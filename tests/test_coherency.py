"""Slow subspace, grouping, perturbation bounds and mode tracking.

The eigensolver is cross-checked against numpy's general dense solver
applied straight to M^{-1} L, which shares no code path with the
symmetric-similarity route used by the library.
"""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coherence_lab as cl
from coherence_lab.coherency import ZERO_EVAL_REL
from coherence_lab.errors import PipelineError, ValidationError

from conftest import build_small_system, lap_from_weights, random_lap_pair
from oracles import subspace_angles


def dense_oracle_eigs(lap):
    vals = np.linalg.eigvals(lap.l_bar)
    assert np.max(np.abs(vals.imag)) < 1e-9
    return np.sort(np.abs(vals.real))


def assert_matches_oracle(lap, r):
    sub = cl.slow_eigensolve(lap, r)
    want = dense_oracle_eigs(lap)
    got = np.abs(np.asarray(sub.eigenvalues))
    scale = want[-1]
    assert np.max(np.abs(got - want)) / scale <= 1e-8
    # exactly one zero for a connected machine graph, the rest negative
    zeros = np.sum(np.abs(sub.eigenvalues) <= ZERO_EVAL_REL * scale)
    assert zeros == 1
    assert np.all(np.asarray(sub.eigenvalues)[1:] < 0)
    return sub


def test_eigensolver_matches_dense_oracle_fixture(report_s1, report_s2):
    for case in (report_s1.base, report_s1.scenario, report_s2.scenario):
        assert_matches_oracle(case.lap, case.sub.r)


@pytest.mark.parametrize("seed", range(70, 76))
def test_eigensolver_matches_dense_oracle_random(seed):
    lap0, sub0, lap1, sub1 = random_lap_pair(seed)
    assert_matches_oracle(lap0, sub0.r)
    assert_matches_oracle(lap1, sub1.r)


def test_slow_basis_is_mass_orthonormal(case_base):
    sub = case_base.sub
    m = case_base.lap.m_e
    gram = sub.w_r.T @ (m[:, None] * sub.w_r)
    assert np.max(np.abs(gram - np.eye(sub.r))) < 1e-9
    assert sub.w_r.shape == (len(m), sub.r)


def test_eigensolver_rejects_asymmetric_input():
    rng = np.random.default_rng(0)
    w = rng.uniform(0.5, 1.0, (4, 4))
    m = np.ones(4)
    lap = lap_from_weights(0.5 * (w + w.T), m)
    lap = dataclasses.replace(lap, l=lap.l.copy())
    lap.l[0, 1] *= 1.5  # break symmetry hard
    with pytest.raises(PipelineError):
        cl.slow_eigensolve(lap, 2)


def test_eigensolver_rejects_disconnected_graph():
    # two components give two zero eigenvalues
    w = np.zeros((4, 4))
    w[0, 1] = w[1, 0] = 1.0
    w[2, 3] = w[3, 2] = 1.0
    with pytest.raises(PipelineError):
        cl.slow_eigensolve(lap_from_weights(w, np.ones(4)), 2)


def two_block_lap(tie=0.05, n_a=3, n_b=3, stiff=10.0, seed=1):
    rng = np.random.default_rng(seed)
    n = n_a + n_b
    w = np.zeros((n, n))
    for block in (range(n_a), range(n_a, n)):
        idx = list(block)
        for i in idx:
            for j in idx:
                if i < j:
                    w[i, j] = w[j, i] = stiff * rng.uniform(0.8, 1.2)
    w[0, n_a] = w[n_a, 0] = tie
    m = rng.uniform(0.1, 0.3, n)
    return lap_from_weights(w, m)


def group(sub):
    """group_machines with row i at bus i + 1."""
    return cl.group_machines(sub, list(range(1, len(sub.w_r) + 1)))


def test_grouping_recovers_planted_blocks():
    lap = two_block_lap()
    sub = cl.slow_eigensolve(lap, 2)
    part = group(sub)
    got = {frozenset(a) for a in part.areas}
    assert got == {frozenset({1, 2, 3}), frozenset({4, 5, 6})}
    # one reference machine per area
    assert len(part.reference_buses) == 2
    assert {part.assignment[ref] for ref in part.reference_buses} == {0, 1}


def test_grouping_alpha_rows_sum_to_one():
    lap = two_block_lap(tie=0.3)
    part = group(cl.slow_eigensolve(lap, 2))
    rows = np.asarray(part.alpha).sum(axis=1)
    assert np.max(np.abs(rows - 1.0)) < 1e-8


@pytest.mark.parametrize("seed", range(80, 86))
def test_grouping_alpha_rows_sum_random(seed):
    lap0, sub0, _, _ = random_lap_pair(seed)
    part = group(sub0)
    rows = np.asarray(part.alpha).sum(axis=1)
    assert np.max(np.abs(rows - 1.0)) < 1e-8
    assert sorted(b for a in part.areas for b in a) == list(range(1, len(lap0.m_e) + 1))


@pytest.mark.parametrize("seed", range(80, 84))
def test_grouping_takes_bus_ids_from_the_caller(seed):
    """The buses only name the rows: given in reverse, they label the same
    row groups and references with the reversed ids."""
    lap, sub, _, _ = random_lap_pair(seed)
    n = len(lap.m_e)
    fwd, rev = group(sub), cl.group_machines(sub, list(range(n, 0, -1)))
    flip = lambda b: n + 1 - b
    assert rev.areas == [sorted(map(flip, a)) for a in fwd.areas]
    assert rev.reference_buses == [flip(b) for b in fwd.reference_buses]
    assert rev.assignment == {flip(b): a for b, a in fwd.assignment.items()}
    assert [set(r) for r in rev.area_rows] == [set(r) for r in fwd.area_rows]
    assert np.array_equal(rev.alpha, fwd.alpha)


def test_base_fixture_grouping(case_base):
    got = {frozenset(a) for a in case_base.part.areas}
    want = {
        frozenset(range(53, 62)),
        frozenset({62, 63, 64, 65}),
        frozenset({66}),
        frozenset({67}),
        frozenset({68}),
    }
    assert got == want


def test_partition_assignment_consistency(case_base):
    part = case_base.part
    for a, members in enumerate(part.areas):
        for b in members:
            assert part.assignment[b] == a


# ---------------------------------------------------------------------------
# perturbation bounds

def assert_bounds_ok(comp):
    if not comp.beta_defined:
        assert comp.bound_rhs is None
        assert comp.bound_holds is None
        assert comp.row_bound_rhs is None
        assert comp.row_bound_holds is None
        return False
    assert comp.bound_holds is True
    assert comp.row_bound_holds is True
    assert comp.theta_matrix_norm <= comp.bound_rhs + 1e-9
    assert float(np.max(comp.row_shift)) <= comp.row_bound_rhs + 1e-9
    return True


def test_bounds_hold_on_fixture_pairs(report_s1, report_s2):
    for rep in (report_s1, report_s2):
        comp = rep.comparison
        if comp.beta_defined:
            assert_bounds_ok(comp)


def test_bounds_hold_on_random_pairs():
    defined = 0
    for seed in range(200, 250):
        lap0, sub0, lap1, sub1 = random_lap_pair(seed)
        comp = cl.compare_subspaces(lap0, sub0, lap1, sub1)
        if assert_bounds_ok(comp):
            defined += 1
    # most random draws keep a spectral gap; a broken beta shows up here
    assert defined >= 35


def test_comparison_alignment_matrix_orthogonal():
    lap0, sub0, lap1, sub1 = random_lap_pair(321)
    comp = cl.compare_subspaces(lap0, sub0, lap1, sub1)
    q = comp.q
    assert np.allclose(q.T @ q, np.eye(q.shape[1]), atol=1e-10)
    assert comp.sigmas.shape == comp.thetas.shape == (sub0.r,)
    assert np.all(comp.sigmas <= 1.0) and np.all(comp.thetas >= 0.0)


def test_identical_subspaces_have_zero_angles():
    lap0, sub0, _, _ = random_lap_pair(5)
    comp = cl.compare_subspaces(lap0, sub0, lap0, sub0)
    assert comp.theta_matrix_norm < 1e-7
    assert np.max(comp.row_shift) < 1e-7


@pytest.mark.parametrize("fixture", ["report_s1", "report_s2"])
def test_case_compared_with_itself_meets_the_bound(request, fixture):
    """Each case of a bundled run against itself: the angles are roundoff,
    far below the residual bound, and not the sqrt(eps) floor of
    1 - cos^2 (5.8e-8 on scenario1 against a bound of 5.1e-13)."""
    rep = request.getfixturevalue(fixture)
    for case in (rep.base, rep.scenario):
        comp, _, _ = cl.compare_cases(case, case)
        assert comp.bound_holds is True
        assert comp.theta_matrix_norm < 1e-14
        assert np.max(comp.thetas) < 1e-14


def test_small_angles_come_from_their_sines():
    """A basis turned by a known small angle reports that angle to full
    relative precision."""
    lap, sub, _, _ = random_lap_pair(5)
    z = np.sqrt(lap.m_e)[:, None] * sub.w_r
    rest = np.linalg.svd(z, full_matrices=True)[0][:, sub.r:]  # orthonormal, outside span(z)
    theta = 3e-9
    turned = z.copy()
    turned[:, 0] = np.cos(theta) * z[:, 0] + np.sin(theta) * rest[:, 0]
    sub_t = dataclasses.replace(sub, w_r=turned / np.sqrt(lap.m_e)[:, None])
    comp = cl.compare_subspaces(lap, sub, lap, sub_t)
    assert comp.thetas[-1] == pytest.approx(theta, rel=1e-6)
    assert comp.theta_matrix_norm == pytest.approx(np.sin(theta), rel=1e-6)


def test_no_eigengap_over_the_zero_eigenvalue(report_s1, report_s2):
    """The first eigengap divides by the zero eigenvalue, which is roundoff,
    so it is None; every other gap is a ratio of two nonzero magnitudes."""
    for case in (report_s1.base, report_s1.scenario, report_s2.scenario):
        mag = np.abs(case.sub.eigenvalues)
        assert case.sub.eigengap[0] is None
        assert case.sub.eigengap[1:] == [float(hi / lo) for lo, hi in zip(mag[1:-1], mag[2:])]


def test_comparison_rejects_mismatched_ranks():
    lap0, _, lap1, _ = random_lap_pair(9)
    sub2 = cl.slow_eigensolve(lap0, 2)
    sub3 = cl.slow_eigensolve(lap1, 3)
    with pytest.raises(ValidationError):
        cl.compare_subspaces(lap0, sub2, lap1, sub3)


@pytest.mark.parametrize("fixture", ["report_s1", "report_s2"])
def test_comparison_angles_match_oracle(request, fixture):
    """compare_subspaces works on sqrt(M_e) W_r, which its M_e-orthonormal
    basis makes orthonormal already; the oracle re-orthonormalizes by QR."""
    rep = request.getfixturevalue(fixture)
    base, scen = rep.base, rep.scenario
    want = subspace_angles(np.sqrt(base.lap.m_e)[:, None] * base.sub.w_r,
                           np.sqrt(scen.lap.m_e)[:, None] * scen.sub.w_r)
    assert np.max(np.abs(rep.comparison.sigmas - np.cos(want))) <= 1e-12
    assert np.max(np.abs(rep.comparison.thetas - want)) <= 1e-9


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 10**6))
def test_subspace_angles_basis_invariant(seed):
    rng = np.random.default_rng(seed)
    n, r = int(rng.integers(4, 9)), int(rng.integers(1, 4))
    a = rng.standard_normal((n, r))
    b = rng.standard_normal((n, r))
    mix_a = rng.standard_normal((r, r)) + 3.0 * np.eye(r)
    mix_b = rng.standard_normal((r, r)) + 3.0 * np.eye(r)
    same = subspace_angles(a, a @ mix_a)
    assert np.max(np.abs(same)) < 1e-7
    t1 = subspace_angles(a, b)
    t2 = subspace_angles(a @ mix_a, b @ mix_b)
    assert np.max(np.abs(np.sort(t1) - np.sort(t2))) < 1e-7


# ---------------------------------------------------------------------------
# epsilon split and slow variables

def test_epsilon_decompose_reconstructs(case_base):
    eps = cl.epsilon_decompose(case_base.lap, case_base.part)
    l = case_base.lap.l
    assert np.allclose(eps.l_internal + eps.epsilon * eps.l_external, l, atol=1e-12)
    assert np.max(np.abs(eps.l_internal.sum(axis=1))) < 1e-10
    assert eps.epsilon > 0.0
    if eps.epsilon_normalized is not None:
        assert eps.epsilon_normalized > 0.0


def test_epsilon_known_toy():
    lap = two_block_lap(tie=0.05)
    part = group(cl.slow_eigensolve(lap, 2))
    eps = cl.epsilon_decompose(lap, part)
    assert eps.epsilon == pytest.approx(0.05)


def test_slow_variable_weighted_mean():
    lap = two_block_lap()
    part = group(cl.slow_eigensolve(lap, 2))
    m = lap.m_e
    delta = np.arange(6, dtype=float) * 0.1
    slow = cl.slow_variable(part, m, delta)
    for a, members in enumerate(part.areas):
        idx = [b - 1 for b in members]
        want = np.sum(m[idx] * delta[idx]) / np.sum(m[idx])
        assert slow[a] == pytest.approx(want)


# ---------------------------------------------------------------------------
# mode bookkeeping

def test_shape_correlation_extremes():
    a = np.array([1.0, -1.0, 0.0], dtype=complex)
    assert cl.coherency.shape_correlation(a, 2j * a) == pytest.approx(1.0)
    b = np.array([0.0, 0.0, 1.0], dtype=complex)
    assert cl.coherency.shape_correlation(a, b) == pytest.approx(0.0)
    assert cl.coherency.shape_correlation(a, np.zeros(3, dtype=complex)) == 0.0


def test_track_modes_follows_correlation():
    mk = lambda f, comp: cl.ModeShape(
        freq_hz=f,
        damping_ratio=0.0,
        components=np.asarray(comp, dtype=complex),
    )
    base = [mk(0.5, [1.0, -1.0]), mk(0.9, [1.0, 1.0])]
    scen = [mk(1.3, [0.9, -1.1]), mk(0.88, [1.0, 0.95])]
    rows = cl.track_modes(base, scen)
    assert rows[0]["scenario_freq_hz"] == pytest.approx(1.3)
    assert rows[0]["delta_hz"] == pytest.approx(0.8)
    assert rows[1]["scenario_freq_hz"] == pytest.approx(0.88)
    assert rows[1]["correlation"] > 0.99


def track_modes_loop(base, scen):
    """The greedy double loop over shape_correlation: the reference the
    vectorized selection must reproduce exactly."""
    tracked = []
    for bm in base:
        best, best_c = None, -1.0
        for sm in scen:
            c = cl.coherency.shape_correlation(bm.components, sm.components)
            if c > best_c:
                best, best_c = sm, c
        tracked.append({
            "base_freq_hz": bm.freq_hz,
            "scenario_freq_hz": best.freq_hz if best else None,
            "delta_hz": (best.freq_hz - bm.freq_hz) if best else None,
            "correlation": best_c if best else None,
        })
    return tracked


def test_track_modes_matches_loop_on_fixtures(report_s1, report_s2):
    for report in (report_s1, report_s2):
        base, scen = report.base.modes_band, report.scenario.modes_all
        assert report.mode_track == track_modes_loop(base, scen)


def random_modes(rng, count, n_r, zero=()):
    modes = []
    for i in range(count):
        comp = rng.standard_normal(n_r) + 1j * rng.standard_normal(n_r)
        if i in zero:
            comp[:] = 0.0
        modes.append(cl.ModeShape(
            freq_hz=float(rng.uniform(0.1, 3.0)), damping_ratio=0.05,
            components=comp,
        ))
    return modes


@pytest.mark.parametrize("seed", range(6))
def test_track_modes_matches_loop_on_random_shapes(seed):
    rng = np.random.default_rng(seed)
    n_r = int(rng.integers(2, 12))
    base = random_modes(rng, 7, n_r, zero=(3,))
    scen = random_modes(rng, 40, n_r, zero=(0, 5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = cl.track_modes(base, scen)
    assert got == track_modes_loop(base, scen)
    # a zero base shape correlates 0 with everything and takes the first mode
    assert got[3]["correlation"] == 0.0
    assert got[3]["scenario_freq_hz"] == scen[0].freq_hz


def test_track_modes_edge_lists():
    rng = np.random.default_rng(9)
    base = random_modes(rng, 3, 4)
    assert cl.track_modes(base, []) == [
        {"base_freq_hz": m.freq_hz, "scenario_freq_hz": None,
         "delta_hz": None, "correlation": None} for m in base
    ]
    assert cl.track_modes([], random_modes(rng, 3, 4)) == []


def test_band_filter(case_base):
    lo, hi = 0.3, 1.0
    for m in case_base.modes_band:
        assert lo <= m.freq_hz <= hi
    in_band = [m for m in case_base.modes_all if lo <= m.freq_hz <= hi]
    assert len(in_band) == len(case_base.modes_band)


@pytest.mark.parametrize("n_m", [4, 6, 8, 10, 20])
def test_undamped_ring_counts_only_true_oscillations(n_m):
    """Every SG of a ring has d = 0, so the base state matrix has a defective
    double zero eigenvalue, the rigid rotation and its Jordan partner.
    Roundoff splits it by about 1e-7 rad/s, real or imaginary at random; it
    is never a mode, so n_m machines give n_m - 1 modes."""
    for seed in range(4):
        net, ms = build_small_system(seed, n_m=n_m)
        base = cl.run_pipeline(net, ms, cl.ScenarioSpec("b", [], areas_r=2)).base
        assert len(base.modes_all) == n_m - 1, f"seed {seed}"


def test_band_from_zero_holds_no_rigid_body_mode():
    """A band may start at 0 Hz. The split zero pair of the undamped base is
    neither a band mode nor tracked into the scenario."""
    net, ms = build_small_system(1, n_m=6)  # SG i at bus 7 + i feeds grid bus 1 + i
    spec = cl.ScenarioSpec("b", [cl.Replacement(9, 3)], areas_r=2, band_hz=(0.0, 2.0))
    report = cl.run_pipeline(net, ms, spec)
    assert report.base.modes_band
    assert min(m.freq_hz for m in report.base.modes_band) > 0.1
    assert [row["base_freq_hz"] for row in report.mode_track] == [
        m.freq_hz for m in report.base.modes_band]
