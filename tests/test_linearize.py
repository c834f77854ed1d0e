"""Analytic Jacobian blocks against central finite differences, and the
Kron-reduced Laplacian against its closed-form expression."""

import dataclasses

import numpy as np
import pytest

import coherence_lab as cl
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
    """Every A-block is the derivative of one residual family with
    respect to one variable group; check all of them."""
    model = build_linear_model(net, ms, op, lossless=lossless)
    blocks = cl.build_jacobians(model)
    ds0, df0, ef0, v0 = point_state(model)
    n_sg, n_gfm = model.n_sg, model.n_gfm

    freq = lambda ds, df, ef, v: frequency_residual(model, ds, df, ef, v)
    alg = lambda ds, df, ef, v: algebraic_residual(model, ds, df, ef, v)

    j = fd_jacobian(lambda x: freq(x, df0, ef0, v0), ds0)
    assert block_close(j[:n_sg], blocks.a11)
    if n_gfm:
        assert np.max(np.abs(j[n_sg:])) < 1e-9  # GFM rows blind to SG angles

    j = fd_jacobian(lambda x: freq(ds0, df0, ef0, x), v0)
    assert block_close(j[:n_sg], blocks.a12)
    assert block_close(j[n_sg:], blocks.a22)

    if n_gfm:
        j = fd_jacobian(lambda x: freq(ds0, x, ef0, v0), df0)
        assert block_close(j[n_sg:], blocks.a21)  # zeros
        j = fd_jacobian(lambda x: freq(ds0, df0, x, v0), ef0)
        assert block_close(j[n_sg:], blocks.a23)  # zeros

    j = fd_jacobian(lambda x: alg(ds0, df0, ef0, x), v0)
    assert block_close(j, blocks.a33)
    j = fd_jacobian(lambda x: alg(x, df0, ef0, v0), ds0)
    assert block_close(j, blocks.a31)
    if n_gfm:
        j = fd_jacobian(lambda x: alg(ds0, x, ef0, v0), df0)
        assert block_close(j, blocks.a32)
        j = fd_jacobian(lambda x: alg(ds0, df0, x, v0), ef0)
        assert block_close(j, blocks.a34)


@pytest.mark.parametrize("seed,n_gfm", [(21, 0), (22, 1), (23, 2)])
@pytest.mark.parametrize("lossless", [False, True])
def test_blocks_match_finite_differences_small(seed, n_gfm, lossless):
    net, ms = build_small_system(seed, n_m=6, n_gfm=n_gfm)
    _, op = solve_and_init(net, ms)
    assert_blocks_match_fd(net, ms, op, lossless)


def test_blocks_match_finite_differences_68(net68, ms68):
    _, op = solve_and_init(net68, ms68)
    assert_blocks_match_fd(net68, ms68, op, lossless=False)


def closed_form_gap(net, ms, op):
    lap = cl.kron_reduce(cl.build_jacobians(build_linear_model(net, ms, op, lossless=True)))
    kron_b = cl.reduced_susceptance(net, ms, op)
    want = cl.laplacian_closed_form(ms, op, kron_b)
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
    op.sg_delta = op.sg_delta.copy()
    op.sg_delta[0] += 0.05
    with pytest.raises(PipelineError, match="not an equilibrium"):
        cl.check_equilibrium(build_linear_model(net68, ms68, op, lossless=False), op)


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
    sys = cl.state_matrix(blocks)
    lap = cl.kron_reduce(blocks)
    n_r = len(lap.machine_order)
    names = sys.state_names
    d_rows = [i for i, s in enumerate(names) if s.startswith("delta")]
    w_rows = list(sys.omega_rows)
    assert len(d_rows) == n_r and len(w_rows) == n_r
    assert np.allclose(sys.a[np.ix_(w_rows, d_rows)], lap.l_bar, atol=1e-10)


def test_state_matrix_two_machine_frequency():
    """For two classical machines the single swing mode sits at
    sqrt(|lambda_2|)/2pi; checks the whole chain from power flow to
    eigenstructure against a closed formula."""
    net, ms = build_small_system(5, n_m=2)
    _, op = solve_and_init(net, ms)
    blocks = cl.build_jacobians(build_linear_model(net, ms, op, lossless=False))
    sys = cl.state_matrix(blocks)
    modes = cl.mode_shapes(sys)
    assert len(modes) == 1
    lap = cl.kron_reduce(blocks)
    want = np.sqrt(np.max(np.abs(np.linalg.eigvals(lap.l_bar)))) / (2 * np.pi)
    assert modes[0].freq_hz == pytest.approx(want, rel=1e-8)
    # antiphase shape
    c = modes[0].components
    assert np.abs(np.angle(c[0] / c[1])) == pytest.approx(np.pi, abs=1e-6)


def test_state_matrix_is_stable(case_base):
    model = build_linear_model(case_base.net, case_base.machines, case_base.op, lossless=False)
    sys = cl.state_matrix(cl.build_jacobians(model))
    assert np.max(np.linalg.eigvals(sys.a).real) < 1e-6


def test_feedthrough_zero_without_gfms(case_base):
    # no voltage-source states to feed through when the fleet is all SG
    assert case_base.lap.feedthrough_e.size == 0 or np.all(
        case_base.lap.feedthrough_e == 0.0
    )
