"""Scenario parsing, SG-to-GFM replacement mechanics, pipeline wiring,
and batch execution."""

import json
import sys

import numpy as np
import pytest

import coherence_lab as cl
from coherence_lab import reportio
from coherence_lab.errors import ValidationError
from coherence_lab.scenario import (
    THREADS_ENV,
    BatchJob,
    Replacement,
    ScenarioSpec,
    apply_scenario,
    batch_run,
    scenario_from_dict,
)

from conftest import DATA, two_bus_dicts


def s1_spec():
    return cl.load_scenario(DATA / "scenario1.json")


def test_scenario_parsing_roundtrip():
    spec = s1_spec()
    assert spec.name == "scenario1"
    assert spec.areas_r == 5
    assert spec.band_hz == (0.3, 1.0)
    assert [(r.retire_sg_bus, r.gfm_bus) for r in spec.replacements] == [(65, 37)]
    assert spec.replacements[0].gfm_params == "default"


@pytest.mark.parametrize("raw, fragment", [
    ({"replacements": [], "areas_r": 2}, "missing required key 'name'"),
    ({"name": "x", "areas_r": 2}, "missing required key 'replacements'"),
    ({"name": "x", "replacements": []}, "missing required key 'areas_r'"),
    ({"name": "x", "replacements": [], "areas_r": 0}, "at least 1"),
    ({"name": "x", "replacements": [], "areas_r": 2,
      "band_hz": {"lo": 1.0, "hi": 0.5}}, "lo must be below hi"),
    ({"name": "x", "areas_r": 2,
      "replacements": [{"retire_sg_bus": 1, "gfm_bus": 2, "gfm_params": 5}]},
     "gfm_params"),
    ({"name": "x", "areas_r": 2, "replacements": [{"retire_sg_bus": 1}]},
     r"replacements\[0\]: missing field 'gfm_bus'"),
    ({"name": "x", "areas_r": 2, "replacements": [{"retire_sg_bus": "a", "gfm_bus": 2}]},
     r"replacements\[0\]: bad value 'a' for field 'retire_sg_bus'"),
    ({"name": "x", "replacements": [], "areas_r": 2, "band_hz": {"lo": 0.3}},
     "band_hz: missing field 'hi'"),
    ({"name": "x", "replacements": [], "areas_r": "two"}, "field 'areas_r'"),
    ({"name": "x", "replacements": [], "areas_r": 2, "options": {"lossless": False}},
     "options.lossless"),
    ({"name": "x", "replacements": [], "areas_r": 2, "options": {"lossless": "yes"}},
     "options.lossless"),
    ({"name": "x", "replacements": [], "areas_r": 2, "options": {"tol": "tight"}},
     "options: bad value 'tight' for field 'tol'"),
])
def test_scenario_parsing_rejects(raw, fragment):
    with pytest.raises(ValidationError, match=fragment):
        scenario_from_dict(raw)


def test_apply_scenario_rewires_buses(net68, ms68):
    net2, ms2, warns = apply_scenario(net68, ms68, s1_spec())
    assert net2.bus(65).kind == "pq"
    assert net2.bus(37).kind == "pv"
    assert ms2.sg_at(65) is None
    g = ms2.gfm_at(37)
    assert g is not None
    assert len(ms2.sgs) == len(ms68.sgs) - 1
    # originals untouched
    assert net68.bus(65).kind == "slack"
    assert ms68.sg_at(65) is not None


def test_apply_scenario_promotes_slack(net68, ms68):
    # bus 65 is the slack; the largest remaining schedule takes over
    net2, ms2, warns = apply_scenario(net68, ms68, s1_spec())
    assert net2.slack_id() == 68
    assert any("promoted to slack" in w for w in warns)
    biggest = max((m for m in ms2.sgs), key=lambda m: m.p_set)
    assert biggest.bus == 68


def test_gfm_inherits_solved_dispatch(net68, ms68):
    sol = cl.solve_power_flow(net68, ms68, cl.PowerFlowOptions())
    net2, ms2, _ = apply_scenario(net68, ms68, s1_spec(), base_sol=sol)
    g = ms2.gfm_at(37)
    k = net68.index_of[65]
    p_solved = sol.p_inj[k] + net68.bus(65).load_p
    assert g.p_set == pytest.approx(p_solved, abs=1e-9)
    assert g.v_set == pytest.approx(abs(sol.v[net68.index_of[37]]), abs=1e-9)
    assert net2.bus(37).v_setpoint == pytest.approx(g.v_set)


def test_gfm_param_overrides(net68, ms68):
    spec = ScenarioSpec(
        name="custom",
        replacements=[Replacement(65, 37, gfm_params={"tau": 0.1, "lambda_p": 0.02})],
        areas_r=5,
    )
    _, ms2, _ = apply_scenario(net68, ms68, spec)
    g = ms2.gfm_at(37)
    assert g.tau == 0.1
    assert g.lambda_p == 0.02
    assert g.lambda_q == cl.machines.GFM_DEFAULTS["lambda_q"]


@pytest.mark.parametrize("reps, fragment", [
    ([Replacement(99, 37)], "no SG to retire"),
    ([Replacement(65, 37), Replacement(65, 36)], "retired twice"),
    ([Replacement(65, 999)], "not in network"),
    ([Replacement(65, 66)], "already has a machine"),
    ([Replacement(65, 37, gfm_params={"tau": "slow"})],
     r"replacements\[0\]\.gfm_params: bad value 'slow' for field 'tau'"),
])
def test_apply_scenario_rejects(net68, ms68, reps, fragment):
    spec = ScenarioSpec(name="bad", replacements=reps, areas_r=5)
    with pytest.raises(ValidationError, match=fragment):
        apply_scenario(net68, ms68, spec)


def test_base_only_pipeline(report_base):
    assert report_base.scenario is None
    assert report_base.comparison is None
    assert report_base.mode_track is None
    assert report_base.flipped is None
    assert report_base.base.sub.r == 5


def test_scenario_slot_alignment(report_s1):
    base_order = report_s1.base.lap.machine_order
    scen_order = report_s1.scenario.lap.machine_order
    slot = base_order.index(65)
    want = list(base_order)
    want[slot] = 37
    assert scen_order == want
    assert report_s1.scenario.slot_buses == want


def test_scenario_masses_change_only_in_slot(report_s1):
    base = report_s1.base.lap
    scen = report_s1.scenario.lap
    slot = base.machine_order.index(65)
    same = [i for i in range(len(base.m_e)) if i != slot]
    assert np.allclose(scen.m_e[same], base.m_e[same])
    assert scen.m_e[slot] < base.m_e[slot]  # droop mass far below the big unit


def test_pipeline_attaches_base_reference(report_s2):
    scen = report_s2.scenario
    assert scen.lap.l0_bar is not None
    assert np.allclose(scen.lap.l0_bar, report_s2.base.lap.l_bar)


def test_flipped_is_subset_of_fleet(report_s1, report_s2):
    for rep in (report_s1, report_s2):
        assert set(rep.flipped) <= set(rep.base.lap.machine_order)


def test_mode_track_rows(report_s1):
    rows = report_s1.mode_track
    assert len(rows) == len(report_s1.base.modes_band)
    for row in rows:
        assert row["correlation"] > 0.5
        assert row["delta_hz"] == pytest.approx(
            row["scenario_freq_hz"] - row["base_freq_hz"])


def write_two_bus_job(tmp_path, name="job"):
    net, machines = two_bus_dicts()
    np_ = tmp_path / f"{name}.net.json"
    mp = tmp_path / f"{name}.ms.json"
    sp = tmp_path / f"{name}.scn.json"
    np_.write_text(json.dumps(net))
    mp.write_text(json.dumps(machines))
    # one machine, so the slow basis is just the rigid mode
    sp.write_text(json.dumps({"name": name, "replacements": [], "areas_r": 1}))
    return BatchJob(network=str(np_), machines=str(mp), scenario=str(sp), label=name)


def test_batch_run_isolates_failures(tmp_path):
    good = write_two_bus_job(tmp_path, "good")
    bad = BatchJob(network=str(tmp_path / "nope.json"),
                   machines=good.machines, label="bad")
    results = batch_run([good, bad, good], threads=1)
    assert [r["label"] for r in results] == ["good", "bad", "good"]
    assert results[0]["ok"] and results[2]["ok"]
    assert not results[1]["ok"]
    assert "InputOutputError" in results[1]["error"]


def test_batch_run_threaded_matches_serial(tmp_path, monkeypatch):
    jobs = [write_two_bus_job(tmp_path, f"j{i}") for i in range(3)]
    serial = batch_run(jobs, threads=1)
    monkeypatch.setenv(THREADS_ENV, "3")
    threaded = batch_run(jobs)  # thread count comes from the environment
    assert [r["label"] for r in threaded] == [r["label"] for r in serial]
    for a, b in zip(serial, threaded):
        assert a["ok"] and b["ok"]
        la = a["report"].base.lap.l
        lb = b["report"].base.lap.l
        assert np.array_equal(la, lb)


def test_pipeline_deterministic_laplacian(net68, ms68):
    spec = s1_spec()
    r1 = cl.run_pipeline(net68, ms68, spec)
    r2 = cl.run_pipeline(net68, ms68, spec)
    assert np.array_equal(r1.scenario.lap.l, r2.scenario.lap.l)
    assert np.array_equal(r1.base.sub.w_r, r2.base.sub.w_r)
    assert [m.freq_hz for m in r1.scenario.modes_band] == [
        m.freq_hz for m in r2.scenario.modes_band
    ]


def test_pipeline_linearizes_each_case_once(net68, ms68, tmp_path, monkeypatch):
    """One power flow, one dispatch and one reactive model, one equilibrium
    gate and two Jacobian assemblies per case; two report dicts per job;
    no SVD condition number."""
    stages = {
        "build_admittance": cl.network.build_admittance,
        "build_linear_model": cl.linearize.build_linear_model,
        "check_equilibrium": cl.linearize.check_equilibrium,
        "build_jacobians": cl.linearize.build_jacobians,
        "case_to_dict": reportio.case_to_dict,
    }
    counts = dict.fromkeys(stages, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # patch every module attribute that binds a stage, as the pipeline
    # calls each one through its own module's namespace
    modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "coherence_lab"]
    for name, fn in stages.items():
        for mod in modules:
            if getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, counted(name, fn))
    counts["cond"] = 0
    monkeypatch.setattr(np.linalg, "cond", counted("cond", np.linalg.cond))

    report = cl.run_pipeline(net68, ms68, s1_spec())
    reportio.emit(report, tmp_path, {"json", "csv", "svg", "matrices"})
    assert counts == {
        "build_admittance": 6,
        "build_linear_model": 4,
        "check_equilibrium": 2,
        "build_jacobians": 4,
        "case_to_dict": 2,
        "cond": 0,
    }
