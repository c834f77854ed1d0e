"""The rectangular reference blocks against central finite differences,
the reactive Laplacian against its closed-form oracle and its rectangular
reference, and the closed-form dispatch state matrix against the
rectangular one."""

import dataclasses

import numpy as np
import pytest

import coherence_lab as cl
from coherence_lab import linearize
from coherence_lab.errors import PipelineError
from coherence_lab.linearize import (
    COND_WARN_LIMIT,
    algebraic_residual,
    build_linear_model,
    frequency_residual,
    point_state,
)
from coherence_lab.machines import Gfm

from conftest import OMEGA0, build_small_system, solve_and_init
import oracles


def fd_jacobian(f, x0, h=1e-6):
    y0 = np.atleast_1d(f(x0))
    jac = np.zeros((y0.size, x0.size))
    for j in range(x0.size):
        xp, xm = x0.copy(), x0.copy()
        xp[j] += h
        xm[j] -= h
        jac[:, j] = (f(xp) - f(xm)) / (2.0 * h)
    return jac


def block_close(got, want, tol=1e-6):
    if want.size == 0:
        return got.size == 0
    scale = max(1.0, float(np.max(np.abs(want))))
    return float(np.max(np.abs(got - want))) / scale <= tol


def linear_model(net, ms, op, lossless):
    """The dispatch model, or with lossless the rectangular reactive reference."""
    return oracles.reference_model(net, ms, op) if lossless else build_linear_model(net, ms, op)


def assert_blocks_match_fd(net, ms, op, lossless):
    """Every stacked block is the derivative of one residual family with
    respect to one variable group; check each machine kind's rows or
    columns on their own scale."""
    model = linear_model(net, ms, op, lossless)
    blocks = oracles.build_jacobians(model)
    d0, ef0, v0 = point_state(model)
    n_sg, n_gfm = model.n_sg, model.n_gfm

    freq = lambda d, ef, v: frequency_residual(model, d, ef, v)
    alg = lambda d, ef, v: algebraic_residual(model, d, ef, v)

    j = fd_jacobian(lambda x: freq(x, ef0, v0), d0)
    assert block_close(j[:n_sg], blocks.a1[:n_sg])
    if n_gfm:
        # GFM rows blind to SG angles; a1 holds exact zeros there
        assert np.max(np.abs(j[n_sg:, :n_sg])) < 1e-9
        assert block_close(j[n_sg:], blocks.a1[n_sg:])
        assert not np.any(blocks.a1[n_sg:])
        # frequency rows blind to GFM magnitudes, so no block is stored
        j = fd_jacobian(lambda x: freq(d0, x, v0), ef0)
        assert np.max(np.abs(j)) < 1e-9

    j = fd_jacobian(lambda x: freq(d0, ef0, x), v0)
    assert block_close(j[:n_sg], blocks.a2[:n_sg])
    assert block_close(j[n_sg:], blocks.a2[n_sg:])

    j = fd_jacobian(lambda x: alg(d0, ef0, x), v0)
    assert block_close(j, blocks.a33)
    j = fd_jacobian(lambda x: alg(x, ef0, v0), d0)
    assert block_close(j[:, :n_sg], blocks.a3[:, :n_sg])
    if n_gfm:
        assert block_close(j[:, n_sg:], blocks.a3[:, n_sg:])
        j = fd_jacobian(lambda x: alg(d0, x, v0), ef0)
        assert block_close(j, blocks.a34)

        def q_gfm(v_rect):
            v = v_rect[: model.n_bus] + 1j * v_rect[model.n_bus :]
            return (v * np.conj(model.y_model @ v)).imag[model.gfm_idx]

        assert block_close(fd_jacobian(q_gfm, v0), blocks.q_rows)


@pytest.mark.parametrize("seed,n_gfm", [(21, 0), (22, 1), (23, 2)])
@pytest.mark.parametrize("lossless", [False, True])
def test_blocks_match_finite_differences_small(seed, n_gfm, lossless):
    net, ms = build_small_system(seed, n_m=6, n_gfm=n_gfm)
    _, op = solve_and_init(net, ms)
    assert_blocks_match_fd(net, ms, op, lossless)


def test_blocks_match_finite_differences_68(net68, ms68):
    _, op = solve_and_init(net68, ms68)
    assert_blocks_match_fd(net68, ms68, op, lossless=False)


@pytest.mark.parametrize("lossless", [False, True])
@pytest.mark.parametrize("system", ["ieee68", "ring"])
def test_network_power_jacobian_matches_dense_formula(net68, ms68, system, lossless):
    """The pattern evaluation equals the dense formulas entry for entry."""
    net, ms = (net68, ms68) if system == "ieee68" else build_small_system(8, n_m=30, n_gfm=3)
    _, op = solve_and_init(net, ms)
    model = linear_model(net, ms, op, lossless)
    v = model.v_point
    p, q = v.real, v.imag
    g, b = model.y_model.real, model.y_model.imag
    i0 = model.y_model @ v
    ar, bi = i0.real, i0.imag
    dense = np.block([
        [p[:, None] * g + q[:, None] * b + np.diag(ar),
         -p[:, None] * b + q[:, None] * g + np.diag(bi)],
        [q[:, None] * g - p[:, None] * b - np.diag(bi),
         -q[:, None] * b - p[:, None] * g + np.diag(ar)],
    ])
    rows, cols, values = oracles.network_power_jacobian(model)
    got = np.zeros_like(dense)
    got[rows, cols] = values
    np.testing.assert_array_equal(got, dense)


def closed_form_gap(net, ms, op):
    """Largest entry of the reactive L minus the closed form over a
    susceptance network the oracle stamps and reduces itself."""
    lap = cl.reactive_laplacian(net, ms, op)
    want = oracles.laplacian_closed_form(op, oracles.reduced_susceptance(net, ms, op))
    return float(np.max(np.abs(lap.l - want)))


def test_closed_form_matches_jacobian_68(net68, ms68):
    _, op = solve_and_init(net68, ms68)
    assert closed_form_gap(net68, ms68, op) <= 1e-8


@pytest.mark.parametrize("seed", range(60, 66))
def test_closed_form_matches_jacobian_random(seed):
    n_gfm = seed % 3
    net, ms = build_small_system(seed, n_gfm=n_gfm)
    _, op = solve_and_init(net, ms)
    assert closed_form_gap(net, ms, op) <= 1e-8


@pytest.fixture(scope="module")
def systems(report_s1, report_s2):
    """(net, machines, op) of the three bundled cases and of two rings."""
    systems = {name: (case.net, case.machines, case.op) for name, case in (
        ("base", report_s1.base), ("scenario1", report_s1.scenario),
        ("scenario2", report_s2.scenario))}
    for n_m in (20, 200):
        net, ms = build_small_system(7, n_m=n_m, n_gfm=3)
        systems[f"ring{2 * n_m}"] = (net, ms, solve_and_init(net, ms)[1])
    return systems


def gap_of_scale(got, want):
    """Largest entry of got - want, relative to the largest entry of want."""
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want))) if want.size else 0.0


def test_reactive_laplacian_agrees_with_the_rectangular_reference(systems):
    """The closed form against the 2N x 2N rectangular reduction. Measured:
    L within 3.3e-14 and the E-feedthrough within 2.5e-13 of their scale,
    both on scenario2; the rectangular side carries most of it."""
    for name, (net, ms, op) in systems.items():
        lap = cl.reactive_laplacian(net, ms, op)
        ref = oracles.kron_reduce(oracles.build_jacobians(oracles.reference_model(net, ms, op)))
        assert gap_of_scale(lap.l, ref.l) <= 1e-13, name
        assert gap_of_scale(lap.feedthrough_e, ref.feedthrough_e) <= 1e-12, name
        assert lap.feedthrough_e.shape == (len(ms.machine_buses), len(ms.gfms)), name
        np.testing.assert_array_equal(lap.m_e, ref.m_e)


def test_reactive_laplacian_matches_extended_precision(report_s1, report_s2):
    """Against the same formula over a susceptance network the oracle
    eliminates in np.longdouble: within 1e-15 of max|L| (measured 6.1e-16).
    The rectangular reduction that production used before errs by up to
    3.3e-14 on the same cases, the reference in oracles by 1.5e-14."""
    for case in (report_s1.base, report_s1.scenario, report_s2.scenario):
        lap = cl.reactive_laplacian(case.net, case.machines, case.op)
        kron_b = oracles.reduced_susceptance_extended(case.net, case.machines, case.op)
        want = oracles.laplacian_closed_form(case.op, kron_b)
        assert gap_of_scale(lap.l, want) <= 1e-15


def test_reactive_rows_sum_to_zero(report_s1, report_s2):
    """The diagonal is minus the row sum, so rows sum to roundoff of the
    largest entry; the rectangular reduction left 1.9e-11 on scenario2."""
    for case in (report_s1.base, report_s1.scenario, report_s2.scenario):
        l = case.lap.l
        assert cl.row_sum_check(l).max <= 1e-14 * np.max(np.abs(l))


def assert_warns_when_near_singular(monkeypatch, reduce, row, scale, n_bus):
    """One row of the block that reduce() eliminates scaled down: it warns
    when the block's exact condition number is two orders past the limit,
    and stays quiet on a benign one."""
    real, exact = linearize._solve_probed, []

    def scaled(a, rhs):
        a = a.copy()
        a[row, :] *= scale
        exact.append(np.linalg.cond(a))
        return real(a, rhs)

    monkeypatch.setattr(linearize, "_solve_probed", scaled)
    if scale < 1e-12:
        with pytest.warns(RuntimeWarning, match="near singular"):
            reduce()
        assert exact[0] > 100 * COND_WARN_LIMIT
    else:
        reduce()  # a warning here fails under the suite's filterwarnings
        assert exact[0] < COND_WARN_LIMIT / n_bus


def assert_raises_when_singular(monkeypatch, reduce):
    real = linearize._solve_probed

    def zero_row(a, rhs):
        a = a.copy()
        a[5, :] = 0.0
        return real(a, rhs)

    monkeypatch.setattr(linearize, "_solve_probed", zero_row)
    with pytest.raises(PipelineError, match="^algebraic block is singular; cannot reduce$"):
        reduce()


@pytest.mark.parametrize("row", [0, 17, 40, 67])
@pytest.mark.parametrize("scale", [1e-2, 1e-13, 1e-15])
def test_near_singular_reactive_block_warns(net68, ms68, monkeypatch, row, scale):
    _, op = solve_and_init(net68, ms68)
    assert_warns_when_near_singular(
        monkeypatch, lambda: cl.reactive_laplacian(net68, ms68, op), row, scale, net68.n_bus)


def test_singular_reactive_block_raises(net68, ms68, monkeypatch):
    _, op = solve_and_init(net68, ms68)
    assert_raises_when_singular(monkeypatch, lambda: cl.reactive_laplacian(net68, ms68, op))


def test_reactive_overflow_is_a_pipeline_error(net68, ms68):
    """An internal reactance so small that its susceptance overflows the
    reduction raises PipelineError, not a numpy warning."""
    _, op = solve_and_init(net68, ms68)
    tiny = dataclasses.replace(ms68, sgs=(dataclasses.replace(ms68.sgs[0], xd_prime=1e-310),
                                          *ms68.sgs[1:]))
    with pytest.raises(PipelineError, match="^reactive reduction failed: overflow"):
        cl.reactive_laplacian(net68, tiny, op)


def _taps_on_to_side(net):
    return [dataclasses.replace(br, from_bus=br.to_bus, to_bus=br.from_bus)
            if br.tap != 1.0 else br for br in net.branches]


def _charging_sign_flipped(net):
    return [dataclasses.replace(br, b_charging=-br.b_charging) for br in net.branches]


@pytest.mark.parametrize("fault", [_taps_on_to_side, _charging_sign_flipped])
def test_closed_form_catches_stamping_fault(net68, ms68, monkeypatch, fault):
    """The oracle stamps its own network, so a faulty production stamp
    cannot cancel out of the comparison."""
    _, op = solve_and_init(net68, ms68)
    stamp = linearize.build_admittance

    def faulty(net, lossless=False):
        return stamp(dataclasses.replace(net, branches=fault(net)), lossless=lossless)

    monkeypatch.setattr(linearize, "build_admittance", faulty)
    assert closed_form_gap(net68, ms68, op) > 1e-3


def test_row_sums_and_symmetry(case_base):
    stats = cl.row_sum_check(case_base.lap.l)
    assert stats.max <= 1e-10
    assert abs(stats.mean) <= 1e-11
    assert cl.symmetry_gap(case_base.lap.l) <= 1e-10


def test_laplacian_sign_structure(report_s1, report_s2):
    """The paper's claim that GFMs keep the frequency dynamics a weighted
    Laplacian, on the base case and both scenario cases: couplings are
    never negative and the diagonal is. Measured: the smallest coupling is
    3.4e-4 (base) and 2.3e-4 (scenario1) of max|L|; scenario2 has exact
    zeros and no negative entry."""
    for case in (report_s1.base, report_s1.scenario, report_s2.scenario):
        l = case.lap.l
        off = l[~np.eye(l.shape[0], dtype=bool)]
        assert np.all(np.diag(l) < 0)
        assert np.min(off) >= -1e-13 * np.max(np.abs(l))


def test_mass_scaling(case_base):
    lap = case_base.lap
    assert np.allclose(lap.l_bar * lap.m_e[:, None], lap.l, atol=1e-14)
    assert np.all(lap.m_e > 0)


def test_gfm_equivalent_mass_formula():
    g = Gfm(bus=1, tau=0.05, lambda_p=0.05)
    assert g.m_equivalent(OMEGA0) == pytest.approx(0.05 / (0.05 * OMEGA0))
    # droop stiffening halves the equivalent mass
    g2 = Gfm(bus=1, tau=0.05, lambda_p=0.10)
    assert g2.m_equivalent(OMEGA0) == pytest.approx(0.5 * g.m_equivalent(OMEGA0))


def test_equilibrium_gate_rejects_bad_point(net68, ms68):
    _, op = solve_and_init(net68, ms68)
    op.delta = op.delta.copy()
    op.delta[0] += 0.05
    with pytest.raises(PipelineError, match="not an equilibrium"):
        cl.check_equilibrium(build_linear_model(net68, ms68, op))


@pytest.fixture(scope="module")
def reactive_blocks68(net68, ms68):
    _, op = solve_and_init(net68, ms68)
    return oracles.build_jacobians(oracles.reference_model(net68, ms68, op))


@pytest.mark.parametrize("row", [0, 17, 67, 100, 135])
@pytest.mark.parametrize("scale", [1e-2, 1e-13, 1e-15])
def test_near_singular_reduction_warns(reactive_blocks68, row, scale):
    """The probe estimate is a lower bound on cond_1, so it may stay quiet
    just above the limit, but it must flag every block whose exact
    condition number is two orders past it, and never a benign one."""
    a33 = reactive_blocks68.a33.copy()
    a33[row, :] *= scale
    blocks = dataclasses.replace(reactive_blocks68, a33=a33)
    exact = np.linalg.cond(a33)
    if exact > 100 * COND_WARN_LIMIT:
        with pytest.warns(RuntimeWarning, match="near singular"):
            oracles.kron_reduce(blocks)
    else:
        # cond_1 <= n cond_2, so no lower bound on cond_1 can cross the limit
        assert exact < COND_WARN_LIMIT / a33.shape[0]
        oracles.kron_reduce(blocks)  # a warning here fails under the suite's filterwarnings


def test_state_matrix_angle_block_is_scaled_laplacian(net68, ms68):
    _, op = solve_and_init(net68, ms68)
    model = build_linear_model(net68, ms68, op)
    a = cl.state_matrix(model)
    lap = oracles.kron_reduce(oracles.build_jacobians(model))
    n_r = len(ms68.machine_buses)
    # angle rows first, then frequency rows, each in the model's machine order
    assert a.shape == (2 * n_r + 2 * len(ms68.gfms),) * 2
    assert np.allclose(a[n_r : 2 * n_r, :n_r], lap.l_bar, atol=1e-10)


def test_state_matrix_two_machine_frequency():
    """For two classical machines the single swing mode sits at
    sqrt(|lambda_2|)/2pi; checks the whole chain from power flow to
    eigenstructure against a closed formula."""
    net, ms = build_small_system(5, n_m=2)
    _, op = solve_and_init(net, ms)
    model = build_linear_model(net, ms, op)
    modes = cl.mode_shapes(cl.state_matrix(model), 2)
    assert len(modes) == 1
    lap = oracles.kron_reduce(oracles.build_jacobians(model))
    want = np.sqrt(np.max(np.abs(np.linalg.eigvals(lap.l_bar)))) / (2 * np.pi)
    assert modes[0].freq_hz == pytest.approx(want, rel=1e-8)
    # antiphase shape
    c = modes[0].components
    assert np.abs(np.angle(c[0] / c[1])) == pytest.approx(np.pi, abs=1e-6)


def test_state_matrix_is_stable(case_base):
    model = build_linear_model(case_base.net, case_base.machines, case_base.op)
    a = cl.state_matrix(model)
    assert np.max(np.linalg.eigvals(a).real) < 1e-6


def state_blocks(a, ms):
    """The angle block, the E-feedthrough block and the ve and e_f rows of
    a state matrix of fleet ms."""
    n_r, n_gfm = len(ms.machine_buses), len(ms.gfms)
    rows_w = slice(n_r, 2 * n_r)
    return {"angle": a[rows_w, :n_r], "feedthrough": a[rows_w, 2 * n_r + n_gfm :],
            "ve and e_f": a[2 * n_r :]}


def test_state_matrix_agrees_with_the_rectangular_reference(systems):
    """The closed form against the 2N x 2N rectangular elimination of the
    same dispatch model, each block on its own scale. Measured at one and
    two BLAS threads: the angle block within 5.7e-14 (scenario1), the
    feedthrough within 2.4e-13 (ring400), the ve and e_f rows within
    4.4e-14 (scenario2)."""
    tol = {"angle": 2e-13, "feedthrough": 1e-12, "ve and e_f": 2e-13}
    for name, (net, ms, op) in systems.items():
        model = build_linear_model(net, ms, op)
        got = cl.state_matrix(model)
        want = oracles.rectangular_state_matrix(oracles.build_jacobians(model))
        assert got.shape == want.shape, name
        np.testing.assert_array_equal(got[: len(ms.machine_buses)], want[: len(ms.machine_buses)])
        got, want = state_blocks(got, ms), state_blocks(want, ms)
        for block, limit in tol.items():
            assert gap_of_scale(got[block], want[block]) <= limit, (name, block)


def test_state_matrix_angle_rows_sum_to_zero(systems):
    """Turning every source angle at once moves no power, so each angle
    row sums to zero in exact arithmetic. Measured: within 2.5e-16 of the
    block's largest entry; the rectangular elimination left up to 5.6e-14
    (scenario1)."""
    for name, (net, ms, op) in systems.items():
        angle = state_blocks(cl.state_matrix(build_linear_model(net, ms, op)), ms)["angle"]
        assert np.max(np.abs(angle.sum(axis=1))) <= 2e-15 * np.max(np.abs(angle)), name


def test_state_matrix_ve_rows_read_the_gfm_magnitude_exactly(systems):
    """A GFM bus holds |V| = E, so with no reactive droop (lambda_q = 0)
    each ve row is -1/tau on its own E and ve columns and exactly zero
    elsewhere, and each e_f row follows from it; the rectangular
    elimination gets these only to roundoff."""
    for name in ("scenario1", "scenario2", "ring400"):
        net, ms, op = systems[name]
        ms = dataclasses.replace(
            ms, gfms=tuple(dataclasses.replace(g, lambda_q=0.0) for g in ms.gfms))
        a = cl.state_matrix(build_linear_model(net, ms, op))
        n_r, n_gfm = len(ms.machine_buses), len(ms.gfms)
        tau, kpv, kiv = ms.gfm_arrays("tau", "kpv", "kiv")
        j = np.arange(n_gfm)
        r_v, r_e = 2 * n_r + j, 2 * n_r + n_gfm + j
        ve = np.zeros((n_gfm, a.shape[1]))
        ve[j, r_v] = ve[j, r_e] = -1.0 / tau
        np.testing.assert_array_equal(a[r_v], ve, err_msg=name)
        ef = kpv[:, None] * ve
        ef[j, r_v] += kiv
        np.testing.assert_array_equal(a[r_e], ef, err_msg=name)


@pytest.mark.parametrize("row", [0, 17, 40, 64])
@pytest.mark.parametrize("scale", [1e-2, 1e-13, 1e-15])
def test_near_singular_dispatch_block_warns(report_s1, monkeypatch, row, scale):
    """The state matrix's complex block, on scenario1's scenario case."""
    case = report_s1.scenario
    model = build_linear_model(case.net, case.machines, case.op)
    assert_warns_when_near_singular(
        monkeypatch, lambda: cl.state_matrix(model), row, scale, case.net.n_bus)


def test_singular_dispatch_block_raises(report_s1, monkeypatch):
    case = report_s1.scenario
    model = build_linear_model(case.net, case.machines, case.op)
    assert_raises_when_singular(monkeypatch, lambda: cl.state_matrix(model))


def test_feedthrough_zero_without_gfms(case_base):
    # no voltage-source states to feed through when the fleet is all SG
    assert case_base.lap.feedthrough_e.size == 0 or np.all(
        case_base.lap.feedthrough_e == 0.0
    )
