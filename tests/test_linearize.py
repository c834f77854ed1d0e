"""Analytic Jacobian blocks against central finite differences, and the
Kron-reduced Laplacian against its closed-form expression."""

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


def assert_blocks_match_fd(net, ms, op, lossless):
    """Every stacked block is the derivative of one residual family with
    respect to one variable group; check each machine kind's rows or
    columns on their own scale."""
    model = build_linear_model(net, ms, op, lossless=lossless)
    blocks = cl.build_jacobians(model)
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
    # imported here, so a renamed private helper fails only this test and
    # not the collection of the modules that import this one
    from coherence_lab.linearize import _network_power_jacobian

    net, ms = (net68, ms68) if system == "ieee68" else build_small_system(8, n_m=30, n_gfm=3)
    _, op = solve_and_init(net, ms)
    model = build_linear_model(net, ms, op, lossless=lossless)
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
    rows, cols, values = _network_power_jacobian(model)
    got = np.zeros_like(dense)
    got[rows, cols] = values
    np.testing.assert_array_equal(got, dense)


def closed_form_gap(net, ms, op):
    """Largest entry of the Jacobian-reduced reactive L minus the closed
    form over a susceptance network the oracle stamps itself."""
    lap = cl.kron_reduce(cl.build_jacobians(build_linear_model(net, ms, op, lossless=True)))
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


def test_laplacian_sign_structure(case_base):
    l = case_base.lap.l
    off = l[~np.eye(l.shape[0], dtype=bool)]
    # connected lossless grid: couplings positive, diagonal negative
    assert np.all(np.diag(l) < 0)
    assert np.min(off) > -1e-12


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
        cl.check_equilibrium(build_linear_model(net68, ms68, op, lossless=False))


@pytest.fixture(scope="module")
def reactive_blocks68(net68, ms68):
    _, op = solve_and_init(net68, ms68)
    return cl.build_jacobians(build_linear_model(net68, ms68, op, lossless=True))


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
            cl.kron_reduce(blocks)
    else:
        # cond_1 <= n cond_2, so no lower bound on cond_1 can cross the limit
        assert exact < COND_WARN_LIMIT / a33.shape[0]
        cl.kron_reduce(blocks)  # a warning here fails under the suite's filterwarnings


def test_state_matrix_angle_block_is_scaled_laplacian(net68, ms68):
    _, op = solve_and_init(net68, ms68)
    blocks = cl.build_jacobians(build_linear_model(net68, ms68, op, lossless=False))
    a = cl.state_matrix(blocks)
    lap = cl.kron_reduce(blocks)
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
    blocks = cl.build_jacobians(build_linear_model(net, ms, op, lossless=False))
    modes = cl.mode_shapes(cl.state_matrix(blocks), 2)
    assert len(modes) == 1
    lap = cl.kron_reduce(blocks)
    want = np.sqrt(np.max(np.abs(np.linalg.eigvals(lap.l_bar)))) / (2 * np.pi)
    assert modes[0].freq_hz == pytest.approx(want, rel=1e-8)
    # antiphase shape
    c = modes[0].components
    assert np.abs(np.angle(c[0] / c[1])) == pytest.approx(np.pi, abs=1e-6)


def test_state_matrix_is_stable(case_base):
    model = build_linear_model(case_base.net, case_base.machines, case_base.op, lossless=False)
    a = cl.state_matrix(cl.build_jacobians(model))
    assert np.max(np.linalg.eigvals(a).real) < 1e-6


def test_feedthrough_zero_without_gfms(case_base):
    # no voltage-source states to feed through when the fleet is all SG
    assert case_base.lap.feedthrough_e.size == 0 or np.all(
        case_base.lap.feedthrough_e == 0.0
    )
