"""Acceptance gate: one test per shipping criterion.

Run with -v to get one pass/fail line per criterion. Each test prints
the measured numbers so a failing line carries its evidence.
"""

import time

import numpy as np
import pytest

import coherence_lab as cl
from coherence_lab.coherency import ZERO_EVAL_REL
from coherence_lab.reportio import emit

from conftest import (
    DATA,
    build_small_system,
    random_lap_pair,
    solve_and_init,
    two_bus_dicts,
    two_bus_solution,
)
from test_linearize import assert_blocks_match_fd, closed_form_gap
from test_powerflow import solve_two_bus
from test_reportio import read_tree

BAND_TARGETS_HZ = (0.41, 0.57, 0.75, 0.85)


def fixture_cases(report_s1, report_s2):
    return {
        "base": report_s1.base,
        "scenario1": report_s1.scenario,
        "scenario2": report_s2.scenario,
    }


def test_criterion_01_laplacian_row_sums(report_s1, report_s2):
    for label, case in fixture_cases(report_s1, report_s2).items():
        t0 = time.perf_counter()
        stats = cl.row_sum_check(case.lap.l)
        runtime_s = time.perf_counter() - t0
        print(f"criterion 1 [{label}]: max {stats.max:.3e} mean {stats.mean:.3e} "
              f"runtime {runtime_s:.4f}s")
        assert stats.max <= 1e-10, label
        assert abs(stats.mean) <= 1e-11, label
        assert runtime_s < 1.0, label


def test_criterion_02_closed_form_cross_oracle(net68, ms68, report_s1, report_s2):
    t0 = time.perf_counter()
    worst = 0.0
    for label, case in fixture_cases(report_s1, report_s2).items():
        gap = closed_form_gap(case.net, case.machines, case.op)
        worst = max(worst, gap)
        assert gap <= 1e-8, f"{label}: {gap:.3e}"
    for seed in range(300, 320):
        net, ms = build_small_system(seed, n_gfm=seed % 3)
        _, op = solve_and_init(net, ms)
        gap = closed_form_gap(net, ms, op)
        worst = max(worst, gap)
        assert gap <= 1e-8, f"seed {seed}: {gap:.3e}"
    elapsed = time.perf_counter() - t0
    print(f"criterion 2: worst gap {worst:.3e}, {elapsed:.2f}s for 23 systems")
    assert elapsed < 10.0


def test_criterion_03_base_band_modes(case_base):
    freqs = sorted(m.freq_hz for m in case_base.modes_band)
    print(f"criterion 3: band modes {[round(f, 4) for f in freqs]}")
    assert len(freqs) == 4
    for got, want in zip(freqs, sorted(BAND_TARGETS_HZ)):
        assert abs(got - want) <= 0.15, (got, want)


def track_table(report):
    """base freq -> (scenario freq, delta), ordered by base frequency."""
    rows = sorted(report.mode_track, key=lambda t: t["base_freq_hz"])
    return rows


def test_criterion_04_gfm_mode_shift_direction(report_s1, report_s2):
    rows1 = track_table(report_s1)
    rows2 = track_table(report_s2)
    assert [r["base_freq_hz"] for r in rows1] == pytest.approx(
        [r["base_freq_hz"] for r in rows2])
    deltas2 = [abs(r["delta_hz"]) for r in rows2]
    k = int(np.argmax(deltas2))
    f0 = rows1[k]["base_freq_hz"]
    f1 = rows1[k]["scenario_freq_hz"]
    f2 = rows2[k]["scenario_freq_hz"]
    print(f"criterion 4: sensitive mode {f0:.4f} -> {f1:.4f} -> {f2:.4f} Hz")
    assert f0 < f1 < f2
    for i, (r1, r2) in enumerate(zip(rows1, rows2)):
        if i == k:
            continue
        print(f"criterion 4: mode {r1['base_freq_hz']:.4f} moves "
              f"{r1['delta_hz']:+.4f} / {r2['delta_hz']:+.4f} Hz")
        assert abs(r1["delta_hz"]) < 0.05
        assert abs(r2["delta_hz"]) < 0.05
    # the replacement trades a rotating mass for a much lighter droop loop
    for report in (report_s1, report_s2):
        for g in report.scenario.machines.gfms:
            slot = report.scenario.slot_buses.index(g.bus)
            assert report.scenario.lap.m_e[slot] < report.base.lap.m_e[slot]


def area_of(case):
    return dict(case.part.assignment)


def test_criterion_05_scenario_groupings(report_s1, report_s2):
    a2 = area_of(report_s2.scenario)
    area1 = {b for b, a in a2.items() if a == a2[56]}
    print(f"criterion 5 [s2]: area of 56 = {sorted(area1)}")
    assert area1 == {56, 57, 58, 59}
    moved = {53, 54, 55, 60, 61}
    target_areas = {a2[b] for b in moved}
    assert len(target_areas) == 1
    target = target_areas.pop()
    assert target != a2[56]
    # the receiving area is the one holding the GFM replacements
    for gfm_bus in (33, 36, 37, 62):
        assert a2[gfm_bus] == target

    a1 = area_of(report_s1.scenario)
    print(f"criterion 5 [s1]: areas {report_s1.scenario.part.areas}")
    east = {b for b, a in a1.items() if a == a1[56]}
    assert east == {56, 57, 58, 59, 61}
    # bus 55 leaves with the replacement; 53/54/60 are unconstrained
    assert a1[55] == a1[37] == a1[62] == a1[63] == a1[64]
    assert a1[55] != a1[56]


def test_criterion_06_perturbation_bounds(report_s1, report_s2):
    defined = 0
    for label, rep in (("s1", report_s1), ("s2", report_s2)):
        c = rep.comparison
        if c.beta_defined:
            defined += 1
            print(f"criterion 6 [{label}]: |sin|_F {c.theta_matrix_norm:.4f} "
                  f"<= {c.bound_rhs:.4f}; row {np.max(c.row_shift):.4f} "
                  f"<= {c.row_bound_rhs:.4f}")
            assert c.bound_holds is True, label
            assert c.row_bound_holds is True, label
        else:
            assert c.bound_holds is None
    undefined = 0
    for seed in range(500, 550):
        lap0, sub0, lap1, sub1 = random_lap_pair(seed)
        c = cl.compare_subspaces(lap0, sub0, lap1, sub1)
        if not c.beta_defined:
            undefined += 1
            assert c.bound_holds is None and c.row_bound_holds is None
            continue
        assert c.bound_holds is True, seed
        assert c.row_bound_holds is True, seed
    print(f"criterion 6: 50 random pairs, {undefined} with collapsed gap")
    assert undefined <= 15


def test_criterion_07_jacobians_match_finite_differences(net68, ms68, report_s2):
    _, op = solve_and_init(net68, ms68)
    assert_blocks_match_fd(net68, ms68, op, lossless=False)
    scen = report_s2.scenario
    assert_blocks_match_fd(scen.net, scen.machines, scen.op, lossless=True)
    for seed, n_gfm in ((410, 0), (411, 1), (412, 2)):
        net, ms = build_small_system(seed, n_m=6, n_gfm=n_gfm)
        _, op = solve_and_init(net, ms)
        assert_blocks_match_fd(net, ms, op, lossless=False)
        assert_blocks_match_fd(net, ms, op, lossless=True)
    print("criterion 7: all blocks within 1e-6 of central differences")


def test_criterion_08_eigensolver_oracle(report_s1, report_s2):
    for label, case in fixture_cases(report_s1, report_s2).items():
        vals = np.linalg.eigvals(case.lap.l_bar)
        assert np.max(np.abs(vals.imag)) < 1e-9, label
        want = np.sort(np.abs(vals.real))
        got = np.abs(np.asarray(case.sub.eigenvalues))
        rel = np.max(np.abs(got - want)) / want[-1]
        zeros = int(np.sum(np.abs(case.sub.eigenvalues) <= ZERO_EVAL_REL * want[-1]))
        print(f"criterion 8 [{label}]: rel gap {rel:.3e}, {zeros} zero eigenvalue")
        assert rel <= 1e-8, label
        assert zeros == 1, label
        assert np.all(np.asarray(case.sub.eigenvalues)[1:] < 0.0), label


def test_criterion_09_power_flow(report_s1, report_s2, net68):
    for label, case in fixture_cases(report_s1, report_s2).items():
        print(f"criterion 9 [{label}]: mismatch {case.sol.max_mismatch:.3e}")
        assert case.sol.max_mismatch <= 1e-8, label
    _, _, sol = solve_two_bus(tol=1e-12)
    err = abs(sol.v[1] - two_bus_solution())
    print(f"criterion 9 [two-bus]: oracle error {err:.3e}")
    assert err <= 1e-10
    total_mw = sum(b.load_p for b in net68.buses) * net68.base_mva
    print(f"criterion 9 [load]: total {total_mw:.1f} MW")
    assert abs(total_mw - 18408.0) / 18408.0 < 0.01


def test_criterion_10_batch_determinism(tmp_path, monkeypatch):
    jobs = [
        cl.BatchJob(network=str(DATA / "network.json"),
                    machines=str(DATA / "machines.json"),
                    scenario=str(DATA / s), label=s.split(".")[0])
        for s in ("base.json", "scenario1.json", "scenario2.json")
    ]
    trees = []
    for run in ("one", "two"):
        out = tmp_path / run
        monkeypatch.setattr(cl.scenario, "_last_base", None)  # each run computes its base cases
        results = cl.batch_run(jobs, threads=2)
        assert all(r["ok"] for r in results), results
        for r in results:
            emit(r["report"], out, {"json", "csv", "svg", "matrices"})
        trees.append(read_tree(out))
    assert trees[0].keys() == trees[1].keys()
    diff = [n for n in trees[0] if trees[0][n] != trees[1][n]]
    print(f"criterion 10: {len(trees[0])} files, {len(diff)} differ")
    assert diff == []
