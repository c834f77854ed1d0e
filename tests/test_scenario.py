"""Scenario parsing, SG-to-GFM replacement mechanics, pipeline wiring,
and batch execution."""

import copy
import dataclasses
import json
import multiprocessing
import pickle
import sys
import threading
import time
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coherence_lab as cl
from coherence_lab import reportio, scenario as scenario_mod
from coherence_lab.errors import (
    CoherenceLabError,
    ConvergenceError,
    PipelineError,
    ValidationError,
)
from coherence_lab.linearize import build_linear_model
from coherence_lab.scenario import (
    BatchJob,
    Replacement,
    ScenarioSpec,
    apply_scenario,
    batch_run,
    compare_cases,
    scenario_from_dict,
)

from conftest import DATA, build_small_system, solve_and_init, two_bus_dicts
from test_linearize import closed_form_gap


def s1_spec():
    return cl.load_scenario(DATA / "scenario1.json")


def gfm_at(ms, bus):
    (g,) = [g for g in ms.gfms if g.bus == bus]
    return g


@pytest.fixture(scope="module")
def sol68(net68, ms68):
    """The solved base case that apply_scenario builds on."""
    return cl.solve_power_flow(net68, ms68, s1_spec().options)


def test_scenario_parsing_roundtrip():
    spec = s1_spec()
    assert spec.name == "scenario1"
    assert spec.areas_r == 5
    assert spec.band_hz == (0.3, 1.0)
    assert [(r.retire_sg_bus, r.gfm_bus) for r in spec.replacements] == [(65, 37)]
    assert spec.replacements[0].gfm_params == "default"


@pytest.mark.parametrize("field", [
    {"band_hz": None}, {"options": None}, {"options": {"lossless": None}},
    {"replacements": [{"retire_sg_bus": 65, "gfm_bus": 37, "gfm_params": None}]},
])
def test_scenario_null_field_reads_as_default(field):
    """A null field reads as an absent one, in a nested object too."""
    raw = {"name": "x", "replacements": [{"retire_sg_bus": 65, "gfm_bus": 37}], "areas_r": 2}
    spec = scenario_from_dict({**raw, **field})
    assert spec == scenario_from_dict(raw)
    assert spec.band_hz == (0.3, 1.0)
    assert spec.options == cl.PowerFlowOptions()
    assert spec.replacements[0].gfm_params == "default"


@pytest.mark.parametrize("raw, fragment", [
    ({"replacements": [], "areas_r": 2}, "scenario: missing field 'name'"),
    ({"name": "x", "areas_r": 2}, "scenario: missing field 'replacements'"),
    ({"name": "x", "replacements": []}, "scenario: missing field 'areas_r'"),
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
    ({"name": "x", "replacements": [], "areas_r": 2, "options": {"lossless": 1}},
     "options.lossless"),
    ({"name": "x", "replacements": [], "areas_r": 2, "options": {"tol": "tight"}},
     "options: bad value 'tight' for field 'tol'"),
    ({"name": "x", "replacements": 5, "areas_r": 2},
     "scenario: bad value 5 for field 'replacements'"),
    ({"name": "x", "replacements": {"retire_sg_bus": 65, "gfm_bus": 37}, "areas_r": 2},
     "field 'replacements'"),
    ({"name": None, "replacements": [], "areas_r": 2}, "missing field 'name'"),
    *[({"name": bad, "replacements": [], "areas_r": 2}, "for field 'name'")
      for bad in ("", ".hidden", "..", "../escaped", "a/b", "a\\b", "a,b",
                  "tab\there", "line\nbreak", "nul\x00", "del\x7f", "c1\x85")],
    ({"name": "x", "areas_r": 2,
      "replacements": [{"retire_sg_bus": 65, "gfm_bus": 37, "gfm_params": {"bus": 30}}]},
     r"replacements\[0\]: gfm_params: field 'bus' is not allowed"),
    ({"name": "x", "replacements": [], "areas_r": 2, "options": {"max_iter": -1}},
     "max_iter must be nonnegative"),
    ({"name": "x", "replacements": [], "areas_r": 2, "band_hz": {"lo": float("nan"), "hi": 1}},
     "band_hz: bad value nan for field 'lo': numbers must be finite"),
    ({"name": "x", "replacements": [], "areas_r": 2.9},
     "scenario: bad value 2.9 for field 'areas_r'"),
    ({"name": "x", "replacements": [], "areas_r": 2, "options": {"max_iter": 2.5}},
     "options: bad value 2.5 for field 'max_iter'"),
    ({"name": "x", "replacements": [], "areas_r": 2, "options": 5},
     "options: expected an object, got int"),
    ({"name": "x", "replacements": [], "areas_r": 2, "band_hz": 5},
     "band_hz: expected an object, got int"),
    ({"name": "x", "replacements": [], "areas_r": 2, "options": []},
     "options: expected an object, got list"),
    ({"name": 5, "replacements": [], "areas_r": 2},
     "scenario: bad value 5 for field 'name': expected a string"),
    ({"name": "x", "replacements": [], "areas_r": "2"},
     "scenario: bad value '2' for field 'areas_r': expected an integer"),
    ({"name": "x", "replacements": [], "areas_r": 2, "band_hz": {"lo": "0.3", "hi": 1.0}},
     "band_hz: bad value '0.3' for field 'lo': expected a number"),
    ({"name": "x", "replacements": [], "areas_r": 2, "options": {"tol": True}},
     "options: bad value True for field 'tol': expected a number"),
    ({"name": "x", "areas_r": 2,
      "replacements": [{"retire_sg_bus": 65, "gfm_bus": 37, "gfm_params": {"tauu": 0.1}}]},
     r"replacements\[0\]: gfm_params: unknown fields \['tauu'\]"),
    ({"name": "x", "areas_r": 2, "replacements": [{"retire_sg_bus": 65, "gfm_bus": 37},
                                                  {"retire_sg_bus": 65, "gfm_bus": 36}]},
     "^scenario: bus 65 retired twice$"),
    ({"name": "x", "areas_r": 2, "replacements": [{"retire_sg_bus": 65, "gfm_bus": 37},
                                                  {"retire_sg_bus": 64, "gfm_bus": 37}]},
     "^scenario: gfm bus 37 already has a machine$"),
    ({"name": "x", "areas_r": 2,
      "replacements": [{"retire_sg_bus": 65, "gfm_bus": 37, "gfm_params": {"tau": -1.0}}]},
     r"^replacements\[0\]: gfm_params: tau must be positive$"),
    ({"name": "x", "areas_r": 2,
      "replacements": [{"retire_sg_bus": 65, "gfm_bus": 37, "gfm_params": "fast"}]},
     r"^replacements\[0\]: gfm_params must be an object or \"default\"$"),
])
def test_scenario_parsing_rejects(raw, fragment):
    with pytest.raises(ValidationError, match=fragment):
        scenario_from_dict(raw)


@pytest.mark.parametrize("record, args, kwargs, fragment", [
    (ScenarioSpec, ("a/b", [], 5), {}, "for field 'name'"),
    (ScenarioSpec, ("x", [], 0), {}, "areas_r must be at least 1"),
    (ScenarioSpec, ("x", [], 5), {"band_hz": (1.0, 0.3)}, "band_hz lo must be below hi"),
    (ScenarioSpec, ("x", [], 5), {"band_hz": (float("nan"), 1.0)}, "band_hz lo must be below"),
    (cl.PowerFlowOptions, (), {"tol": 0.0}, "tol positive"),
    (cl.PowerFlowOptions, (), {"tol": float("nan")}, "tol positive"),
    (ScenarioSpec, (5, [], 2), {}, "field 'name'"),
    (ScenarioSpec, ("x", [], 2.5), {}, "field 'areas_r'"),
    (cl.Sg, (), {"bus": 1, "m": 0.0, "d": 0.0, "xd_prime": 0.1, "p_set": 1.0},
     "m must be positive"),
    (cl.Gfm, (), {"bus": 1, "lambda_p": 0.0}, "lambda_p must be positive"),
    (cl.Gfm, (), {"bus": 1, "tau": -1.0}, "tau must be positive"),
    (ScenarioSpec, ("x", [], 2), {"band_hz": 5}, "field 'band_hz': expected a pair of numbers"),
    (cl.Sg, (), {"bus": 1, "m": "a", "xd_prime": 0.1, "p_set": 1.0},
     "bad value 'a' for field 'm': expected a number"),
    (cl.PowerFlowOptions, (), {"max_iter": 2.5}, "field 'max_iter': expected an integer"),
    (cl.Bus, (53, "pv"), {}, "bus 53: kind pv requires v_setpoint"),
    (cl.Network, (100.0, -60.0, [cl.Bus(1, "slack", 1.0)], []), {}, "f0_hz must be positive"),
    (cl.Network, (100.0, 60.0, [cl.Bus(1, "slack", 1.0)], [cl.Branch(1, 999, 0.0, 0.1)]), {},
     "branch 1-999: endpoint not a bus"),
    (cl.Branch, (1, 2, 0.0, 0.1), {"tap": 0.0}, "branch 1-2: tap must be positive"),
    (cl.Branch, (1, 2, 0.0, 0.0), {}, "branch 1-2: zero impedance"),
    (cl.Bus, (2, "pq"), {"load_p": "0.5"}, "bad value '0.5' for field 'load_p': expected a number"),
    (cl.Network, (100.0, 60.0, [cl.Bus(1, "slack", 1.0), cl.Bus(1, "pq")], []), {},
     "duplicate bus id 1"),
    (cl.Network, (100.0, 60.0, [cl.Bus(1, "slack", 1.0), cl.Bus(2, "slack", 1.0)], []), {},
     "expected exactly one slack bus, found 2"),
    (cl.Bus, (1, "weird"), {}, "bus 1: bad kind 'weird'"),
    (ScenarioSpec, ("x", [Replacement(65, 37), Replacement(65, 36)], 2), {},
     "^bus 65 retired twice$"),
    (ScenarioSpec, ("x", [Replacement(65, 37), Replacement(64, 37)], 2), {},
     "^gfm bus 37 already has a machine$"),
], ids=["name", "areas_r", "band_hz", "band_hz-nan", "tol", "tol-nan",
        "name-type", "areas_r-type", "sg-m", "gfm-lambda_p", "gfm-tau",
        "band_hz-type", "sg-m-type", "max_iter-type", "pv-without-v_setpoint", "f0_hz",
        "endpoint", "tap", "zero-impedance", "load_p-type", "duplicate-id", "two-slacks",
        "bus-kind", "retired-twice", "gfm-bus-twice"])
def test_code_built_records_check_themselves(record, args, kwargs, fragment):
    """A record built in code passes the rules a file does."""
    with pytest.raises(ValidationError, match=fragment):
        record(*args, **kwargs)


def test_read_record_names_unknown_keys_first():
    """An undeclared key is refused before any field is read, a record's own
    rule is prefixed with the entry, and a field that holds a pair or a
    record (band_hz, options) is read by the reader its metadata names."""
    from coherence_lab.errors import read_record

    with pytest.raises(ValidationError, match=r"^sgs\[0\]: unknown fields \['D'\]$"):
        read_record(cl.Sg, {"bus": "x", "D": 1.0}, "sgs[0]")
    with pytest.raises(ValidationError, match=r"^sgs\[0\]: m must be positive$"):
        read_record(cl.Sg, {"bus": 1, "m": 0, "xd_prime": 0.1, "p_set": 1}, "sgs[0]")
    branch = read_record(cl.Branch, {"from": 1, "to": 2.0, "r": 0, "x": 0.1}, "branches[0]")
    assert branch == cl.Branch(from_bus=1, to_bus=2, r=0.0, x=0.1)
    spec = read_record(ScenarioSpec, {"name": "x", "replacements": [], "areas_r": 2,
                                      "band_hz": {"lo": 0.5, "hi": 2}}, "scenario")
    assert spec == ScenarioSpec("x", (), 2, band_hz=(0.5, 2.0))
    assert type(spec.band_hz[1]) is float


# a valid instance of each input record with a scalar field, as keyword
# arguments; MachineSet has none
VALID = {
    cl.Bus: {"id": 2, "kind": "pv", "v_setpoint": 1.0},
    cl.Branch: {"from_bus": 1, "to_bus": 2, "r": 0.0, "x": 0.1},
    cl.Network: {"base_mva": 100.0, "f0_hz": 60.0,
                 "buses": [cl.Bus(1, "slack", 1.0)], "branches": []},
    cl.Sg: {"bus": 1, "m": 0.1, "xd_prime": 0.1, "p_set": 1.0},
    cl.Gfm: {"bus": 1},
    Replacement: {"retire_sg_bus": 1, "gfm_bus": 2, "gfm_params": "default"},
    ScenarioSpec: {"name": "x", "replacements": [], "areas_r": 2,
                   "band_hz": (0.3, 1.0), "options": cl.PowerFlowOptions()},
    cl.PowerFlowOptions: {},
}
SCALAR_FIELDS = {cls: [f for f in dataclasses.fields(cls)
                       if typing.get_type_hints(cls)[f.name] in (int, float, float | None, str)]
                 for cls in VALID}


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.sampled_from([(cls, f) for cls, fs in SCALAR_FIELDS.items() for f in fs]),
       st.sampled_from(["x", True, [], 2.5, float("nan"), float("inf")]))
def test_code_and_file_records_pass_the_same_rules(cls_field, value):
    """The code-side twin of the CLI's mutated-input test: one scalar field
    of a valid record set to an odd value, the record built in code and read
    by read_record from the same JSON value both accept it or both raise
    ValidationError, and nothing else escapes. (None is left out: a file
    reads null as absent.)"""
    from coherence_lab.errors import read_record

    cls, field = cls_field
    kwargs = {**VALID[cls], field.name: value}
    scalars = {f.name: f.metadata.get("key", f.name) for f in SCALAR_FIELDS[cls]}
    entry = json.loads(json.dumps({key: kwargs[name] for name, key in scalars.items()
                                   if name in kwargs}))
    loader_given = {name: v for name, v in kwargs.items() if name not in scalars}
    outcomes = []
    for build in (lambda: cls(**kwargs),
                  lambda: read_record(cls, entry, "entry", **loader_given)):
        try:
            build()
            outcomes.append("accepted")
        except ValidationError:
            outcomes.append("refused")
    assert outcomes[0] == outcomes[1]


def test_every_input_record_is_read_whole_by_read_record():
    """read_record alone reads every field of each of the nine input records
    from a file object, none given by a loader, into the record code builds,
    and reads each bundled scenario file as load_scenario does."""
    from coherence_lab.errors import read_record

    # each input record as a file holds it, every field set, and as code builds it
    records = [
        (cl.Bus, {"id": 2, "kind": "pv", "v_setpoint": 1.02, "load_p": 0.5, "load_q": 0.1,
                  "shunt_g": 0.01, "shunt_b": 0.2},
         cl.Bus(2, "pv", 1.02, 0.5, 0.1, 0.01, 0.2)),
        (cl.Branch, {"from": 1, "to": 2, "r": 0.01, "x": 0.1, "b_charging": 0.02, "tap": 1.05},
         cl.Branch(1, 2, 0.01, 0.1, 0.02, 1.05)),
        (cl.Network, {"base_mva": 100, "f0_hz": 60,
                      "buses": [{"id": 1, "kind": "slack", "v_setpoint": 1.0},
                                {"id": 2, "kind": "pq"}],
                      "branches": [{"from": 1, "to": 2, "r": 0, "x": 0.1}]},
         cl.Network(100.0, 60.0, (cl.Bus(1, "slack", 1.0), cl.Bus(2, "pq")),
                    (cl.Branch(1, 2, 0.0, 0.1),))),
        (cl.Sg, {"bus": 1, "m": 0.1, "xd_prime": 0.2, "p_set": 1.5, "d": 2},
         cl.Sg(1, 0.1, 0.2, 1.5, 2.0)),
        (cl.Gfm, {"bus": 3, "tau": 0.1, "lambda_p": 0.02, "lambda_q": 0.03, "kpv": 1, "kiv": 10,
                  "v_set": 1.01, "p_set": 0.5, "q_set": 0.1},
         cl.Gfm(3, 0.1, 0.02, 0.03, 1.0, 10.0, 1.01, 0.5, 0.1)),
        (cl.MachineSet, {"sgs": [{"bus": 1, "m": 0.1, "xd_prime": 0.2, "p_set": 1.5}],
                         "gfms": [{"bus": 3}]},
         cl.MachineSet((cl.Sg(1, 0.1, 0.2, 1.5),), (cl.Gfm(3),))),
        (Replacement, {"retire_sg_bus": 1, "gfm_bus": 3, "gfm_params": {"tau": 0.1}},
         Replacement(1, 3, {"tau": 0.1})),
        (ScenarioSpec, {"name": "x", "replacements": [{"retire_sg_bus": 1, "gfm_bus": 3}],
                        "areas_r": 2, "band_hz": {"lo": 0.2, "hi": 2},
                        "options": {"lossless": True, "tol": 1e-9, "max_iter": 10}},
         ScenarioSpec("x", (Replacement(1, 3),), 2, (0.2, 2.0), cl.PowerFlowOptions(1e-9, 10))),
        (cl.PowerFlowOptions, {"tol": 1e-9, "max_iter": 10.0}, cl.PowerFlowOptions(1e-9, 10)),
    ]
    assert len({cls for cls, _, _ in records}) == 9
    for cls, entry, want in records:
        assert entry.keys() == {f.metadata.get("key", f.name) for f in dataclasses.fields(cls)}
        got = read_record(cls, entry, "entry")
        assert got == want
        assert [type(v) for v in dataclasses.astuple(got)] == [
            type(v) for v in dataclasses.astuple(want)]
    for name in ("base", "scenario1", "scenario2"):
        path = DATA / f"{name}.json"
        raw = json.loads(path.read_text())
        assert read_record(ScenarioSpec, raw, "scenario") == cl.load_scenario(path)


def test_negative_max_iter_is_validation_error(net68, ms68):
    """Refused when the options are built, before any Newton step."""
    with pytest.raises(ValidationError, match="max_iter must be nonnegative"):
        cl.solve_power_flow(net68, ms68, cl.PowerFlowOptions(max_iter=-1))
    with pytest.raises(ValidationError, match="max_iter must be nonnegative"):
        cl.run_pipeline(net68, ms68, ScenarioSpec(
            "x", [], 5, options=cl.PowerFlowOptions(max_iter=-1)))


def test_apply_scenario_rewires_buses(net68, ms68, sol68):
    net2, ms2, warns = apply_scenario(net68, ms68, s1_spec(), sol68)
    assert net2.bus(65).kind == "pq"
    assert net2.bus(37).kind == "pv"
    assert 65 not in [m.bus for m in ms2.sgs]
    assert 37 in [g.bus for g in ms2.gfms]
    assert len(ms2.sgs) == len(ms68.sgs) - 1
    # originals untouched
    assert net68.bus(65).kind == "slack"
    assert 65 in [m.bus for m in ms68.sgs]


def test_apply_scenario_promotes_slack(net68, ms68, sol68):
    # bus 65 is the slack; the largest remaining schedule takes over
    net2, ms2, warns = apply_scenario(net68, ms68, s1_spec(), sol68)
    assert net2.slack_id() == 68
    assert any("promoted to slack" in w for w in warns)
    biggest = max((m for m in ms2.sgs), key=lambda m: m.p_set)
    assert biggest.bus == 68


def test_retiring_every_sg_promotes_largest_gfm(net68, ms68):
    """GFMs form voltage, so a fleet with no SG left still has a slack:
    the GFM with the largest schedule, and the pipeline runs through."""
    sg_buses = [m.bus for m in ms68.sgs]
    step_up = {}  # SG bus -> network end of its step-up branch
    for br in net68.branches:
        if br.to_bus in sg_buses:
            step_up[br.to_bus] = br.from_bus
        elif br.from_bus in sg_buses:
            step_up[br.from_bus] = br.to_bus
    spec = ScenarioSpec(
        name="all-gfm", replacements=[Replacement(b, step_up[b]) for b in sg_buses], areas_r=5
    )
    report = cl.run_pipeline(net68, ms68, spec)
    scen = report.scenario
    assert scen.machines.sgs == ()
    biggest = min(scen.machines.gfms, key=lambda g: (-g.p_set, g.bus))
    assert scen.net.slack_id() == biggest.bus == 18
    assert "slack bus 65 retired; bus 18 promoted to slack" in report.warnings
    assert scen.slot_buses == [step_up[b] for b in report.base.slot_buses]
    assert cl.row_sum_check(scen.lap.l).max <= 1e-10


def test_gfm_inherits_solved_dispatch(net68, ms68):
    sol = cl.solve_power_flow(net68, ms68, cl.PowerFlowOptions())
    net2, ms2, _ = apply_scenario(net68, ms68, s1_spec(), base_sol=sol)
    g = gfm_at(ms2, 37)
    k = net68.index_of[65]
    p_solved = sol.p_inj[k] + net68.bus(65).load_p
    assert g.p_set == pytest.approx(p_solved, abs=1e-9)
    assert g.v_set == pytest.approx(abs(sol.v[net68.index_of[37]]), abs=1e-9)
    assert net2.bus(37).v_setpoint == pytest.approx(g.v_set)


def test_gfm_param_overrides(net68, ms68, sol68):
    spec = ScenarioSpec(
        name="custom",
        replacements=[Replacement(65, 37, gfm_params={"tau": 0.1, "lambda_p": 0.02})],
        areas_r=5,
    )
    _, ms2, _ = apply_scenario(net68, ms68, spec, sol68)
    g = gfm_at(ms2, 37)
    assert g.tau == 0.1
    assert g.lambda_p == 0.02
    assert g.lambda_q == cl.Gfm.lambda_q


# each placement fault, one replacement at a time; SG bus 66 stays, SG bus 65 retires
PLACEMENT_FAULTS = [
    (Replacement(99, 37), "^no SG to retire at bus 99$"),
    (Replacement(65, 999), "^gfm bus 999 not in network$"),
    (Replacement(65, 66), "^gfm bus 66 already has a machine$"),
    (Replacement(65, 65), "^gfm bus 65 already has a machine$"),
]


@pytest.mark.parametrize("rep, fragment", PLACEMENT_FAULTS)
def test_apply_scenario_rejects(net68, ms68, sol68, rep, fragment):
    spec = ScenarioSpec(name="bad", replacements=[rep], areas_r=5)
    with pytest.raises(ValidationError, match=fragment):
        apply_scenario(net68, ms68, spec, sol68)


@pytest.mark.parametrize("rep, fragment", PLACEMENT_FAULTS)
def test_placement_fault_is_refused_before_any_power_flow(net68, ms68, monkeypatch,
                                                          rep, fragment):
    calls = []
    solve = scenario_mod.solve_power_flow
    monkeypatch.setattr(scenario_mod, "solve_power_flow",
                        lambda *a: calls.append(1) or solve(*a))
    with pytest.raises(ValidationError, match=fragment):
        cl.run_pipeline(net68, ms68, ScenarioSpec(name="bad", replacements=[rep], areas_r=5))
    assert calls == []


def test_gfm_bus_must_start_as_pq(net68, ms68, monkeypatch):
    """A pv bus with no machine fails the base case, but the placement
    check, which comes first, names the GFM bus."""
    calls = []
    monkeypatch.setattr(scenario_mod, "solve_power_flow", lambda *a: calls.append(1))
    net = dataclasses.replace(net68, buses=[
        dataclasses.replace(b, kind="pv", v_setpoint=1.0) if b.id == 37 else b
        for b in net68.buses])
    with pytest.raises(ValidationError, match="^gfm bus 37 must start as pq, got pv$"):
        cl.run_pipeline(net, ms68, s1_spec())
    assert calls == []


@pytest.mark.parametrize("params, fragment", [
    ({"tau": "slow"}, "gfm_params: bad value 'slow' for field 'tau'"),
    ({"lambda_p": 0}, "gfm_params: lambda_p must be positive"),
    ({"lambda_p": -1}, "gfm_params: lambda_p must be positive"),
    ({"tau": -1}, "gfm_params: tau must be positive"),
    ({"tau": float("inf")}, "gfm_params: bad value inf for field 'tau'"),
    ({"bus": 53}, "gfm_params: field 'bus' is not allowed"),
    ({"tauu": 0.1}, r"gfm_params: unknown fields \['tauu'\]"),
    ("fast", 'gfm_params must be an object or "default"'),
])
def test_replacement_checks_its_gfm_params(params, fragment):
    """A replacement built in code is refused when it is built, before it
    can join a spec."""
    with pytest.raises(ValidationError, match=f"^{fragment}"):
        Replacement(65, 37, gfm_params=params)


def test_checked_gfm_params_are_read_only(net68, ms68):
    """A spec's gfm_params cannot change after their check, yet the spec
    pickles, deep-copies and is replaced like any record, and its report
    writes them as a plain dict would."""
    raw = json.loads((DATA / "scenario1.json").read_text())
    raw["replacements"][0]["gfm_params"] = {"tau": 0.1, "kpv": None}
    spec = scenario_from_dict(raw)
    params = spec.replacements[0].gfm_params
    for write in (lambda: params.__setitem__("tau", -1.0), lambda: params.pop("tau"),
                  lambda: params.update(tau=-1.0), lambda: params.clear(),
                  lambda: params.setdefault("kiv", -1.0), lambda: params.__delitem__("tau"),
                  lambda: params.popitem()):
        with pytest.raises(TypeError, match="read-only"):
            write()
    with pytest.raises(TypeError, match="read-only"):
        params |= {"tau": -1.0}
    assert params == {"tau": 0.1, "kpv": None}
    for twin in (pickle.loads(pickle.dumps(spec)), copy.deepcopy(spec)):
        assert twin == spec
        with pytest.raises(TypeError, match="read-only"):
            twin.replacements[0].gfm_params["tau"] = -1.0
    moved = dataclasses.replace(spec.replacements[0], gfm_bus=36)
    assert moved.gfm_params == params and moved.gfm_bus == 36
    with pytest.raises(ValidationError, match="tau must be positive"):
        dataclasses.replace(spec.replacements[0], gfm_params={"tau": -1.0})

    (rep,) = reportio.report_to_dict(cl.run_pipeline(net68, ms68, spec))["replacements"]
    assert type(rep["gfm_params"]) is dict and rep["gfm_params"] == params


def reactive_case(net, ms, spec):
    """The scenario fleet, its operating point and its reactive L in the
    fleet's own machine order."""
    net2, ms2, _ = apply_scenario(net, ms, spec, cl.solve_power_flow(net, ms, spec.options))
    _, op = solve_and_init(net2, ms2)
    lap = cl.kron_reduce(cl.build_jacobians(build_linear_model(net2, ms2, op, lossless=True)))
    return net2, ms2, op, lap


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_gfm_replacement_keeps_weighted_laplacian(data):
    """The structural claim on random rings: with any set of SGs, none up
    to all, replaced by GFMs at the grid buses their step-ups feed, the
    reactive L stays a weighted Laplacian equal to the closed form, and a
    GFM's droop (tau, lambda_p) enters only its slot's equivalent mass.
    A case may be refused, but only with a typed error."""
    n_m = data.draw(st.integers(2, 10), label="n_m")
    net, ms = build_small_system(data.draw(st.integers(0, 10**6), label="seed"), n_m=n_m)
    # build_small_system hangs SG i at bus n_m + 1 + i off grid bus 1 + i
    retired = sorted(data.draw(st.sets(st.integers(0, n_m - 1)), label="retired"))
    reps = [Replacement(n_m + 1 + i, 1 + i) for i in retired]
    try:
        net2, ms2, op, lap = reactive_case(net, ms, ScenarioSpec("p", reps, areas_r=1))
    except CoherenceLabError:
        return
    l = lap.l
    scale = float(np.max(np.abs(l)))
    assert cl.symmetry_gap(l) <= 1e-10
    assert np.max(np.abs(l.sum(axis=1))) <= 1e-10 * scale
    vals = np.linalg.eigvalsh(0.5 * (l + l.T))
    assert np.sum(np.abs(vals) <= 1e-10 * scale) == 1
    assert np.max(vals) <= 1e-10 * scale
    assert closed_form_gap(net2, ms2, op) <= 1e-8

    if not reps:
        return
    j = data.draw(st.sampled_from(range(len(reps))), label="scaled replacement")
    field = data.draw(st.sampled_from(["tau", "lambda_p"]), label="field")
    k = data.draw(st.floats(0.1, 10.0), label="factor")
    reps[j] = dataclasses.replace(
        reps[j], gfm_params={field: getattr(cl.Gfm, field) * k})
    try:
        _, _, _, scaled = reactive_case(net, ms, ScenarioSpec("p", reps, areas_r=1))
    except CoherenceLabError:
        return
    assert np.array_equal(scaled.l, l)
    slot = ms2.machine_buses.index(reps[j].gfm_bus)
    others = np.arange(l.shape[0]) != slot
    assert np.array_equal(scaled.m_e[others], lap.m_e[others])
    want = lap.m_e[slot] * k if field == "tau" else lap.m_e[slot] / k
    assert abs(scaled.m_e[slot] - want) <= 1e-15 * want


def test_base_only_pipeline(report_base):
    assert report_base.scenario is None
    assert report_base.comparison is None
    assert report_base.mode_track is None
    assert report_base.flipped is None
    assert report_base.base.sub.r == 5


def test_scenario_slot_alignment(report_s1):
    base_order = report_s1.base.slot_buses
    assert base_order == report_s1.base.machines.machine_buses
    slot = base_order.index(65)
    want = list(base_order)
    want[slot] = 37
    assert report_s1.scenario.slot_buses == want


def test_case_angles_follow_slots(report_s2):
    case = report_s2.scenario
    by_bus = dict(zip(case.machines.machine_buses, case.op.delta))
    assert case.delta.tolist() == [by_bus[b] for b in case.slot_buses]


def test_case_records_are_frozen(report_s1):
    case = report_s1.scenario
    for record, name in [(report_s1, "base"), (case, "slot_buses"), (case.lap, "l"),
                         (case.sub, "w_r"), (case.part, "areas"),
                         (case.modes_all[0], "components"), (report_s1.comparison, "q"),
                         (report_s1.spec, "areas_r"), (report_s1.spec.options, "max_iter"),
                         (case.net, "buses"), (case.machines, "sgs")]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):  # a tuple, so the checked network stays as checked
        case.net.buses.append(cl.Bus(1, "slack", 1.0))


def test_scenario_masses_change_only_in_slot(report_s1):
    base = report_s1.base.lap
    scen = report_s1.scenario.lap
    slot = report_s1.base.slot_buses.index(65)
    same = [i for i in range(len(base.m_e)) if i != slot]
    assert np.allclose(scen.m_e[same], base.m_e[same])
    assert scen.m_e[slot] < base.m_e[slot]  # droop mass far below the big unit


def test_flipped_is_subset_of_fleet(report_s1, report_s2):
    for rep in (report_s1, report_s2):
        assert set(rep.flipped) <= set(rep.base.slot_buses)


def test_compare_cases_pairs_a_case_with_itself(report_base, report_s1, report_s2):
    """A case paired with itself: no machine flips, the slow subspaces
    coincide and every band mode tracks onto itself. The residual bound is
    not asserted: with a right-hand side near 0 it cannot absorb the
    rounding floor of the sines, about sqrt(2 eps)."""
    for case in (report_base.base, report_s1.scenario, report_s2.scenario):
        comparison, mode_track, flipped = compare_cases(case, case)
        assert flipped == []
        assert np.all(comparison.thetas < 1e-6)
        assert len(mode_track) == len(case.modes_band) > 0
        for row in mode_track:
            assert row["delta_hz"] == 0
            assert abs(row["correlation"] - 1) <= 1e-12


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
    assert results[1]["exit_code"] == 4


def test_batch_run_checks_base_only_label(tmp_path):
    """A base-only job's label names its spec, so it passes the name rule:
    a label that would write outside the output directory fails the job."""
    good = write_two_bus_job(tmp_path, "good")
    bad = BatchJob(network=str(DATA / "network.json"), machines=str(DATA / "machines.json"),
                   label="../esc")
    results = batch_run([good, bad], threads=1)
    assert [r["ok"] for r in results] == [True, False]
    assert results[1]["exit_code"] == 1
    assert "field 'name'" in results[1]["error"]


@pytest.mark.parametrize("scenario", [
    [],
    {"name": "bad", "replacements": 5, "areas_r": 1},
    {"name": "../escaped", "replacements": [], "areas_r": 1},
])
def test_batch_run_records_malformed_scenario(tmp_path, scenario):
    """A scenario file of the wrong shape fails its own job with exit
    code 1; the jobs around it still run."""
    good = write_two_bus_job(tmp_path, "good")
    sp = tmp_path / "bad.scn.json"
    sp.write_text(json.dumps(scenario))
    bad = BatchJob(network=good.network, machines=good.machines, scenario=str(sp), label="bad")
    results = batch_run([good, bad, good], threads=2)
    assert [r["ok"] for r in results] == [True, False, True]
    assert results[1]["exit_code"] == 1
    assert results[1]["error"].startswith("ValidationError: ")


@pytest.mark.parametrize("threads", [1, 2])
def test_batch_run_propagates_programming_errors(tmp_path, monkeypatch, threads):
    """Only library errors are recorded per job; anything else is a bug
    and reaches the caller."""
    def broken(*args, **kwargs):
        raise ZeroDivisionError("bug inside a job")

    monkeypatch.setattr(scenario_mod, "run_pipeline", broken)
    jobs = [write_two_bus_job(tmp_path, f"j{i}") for i in range(2)]
    with pytest.raises(ZeroDivisionError, match="bug inside a job"):
        batch_run(jobs, threads=threads)


def test_batch_run_threaded_matches_serial(tmp_path, monkeypatch):
    """Jobs on concurrent threads share the one eigensolve worker and give
    the serial results bit for bit, whole reports of the bundled scenarios
    included; back-to-back runs leave at most that one worker thread. Each
    batch starts with no kept base case, so it computes its own."""
    def batch(jobs, threads):
        monkeypatch.setattr(scenario_mod, "_last_base", None)
        return batch_run(jobs, threads=threads)

    jobs = [write_two_bus_job(tmp_path, f"j{i}") for i in range(3)]
    bundled = [BatchJob(str(DATA / "network.json"), str(DATA / "machines.json"),
                        str(DATA / f"{name}.json")) for name in ("scenario1", "scenario2")]
    serial = batch(jobs, threads=1)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # more thread switches, more interleavings
    try:
        threaded = batch(jobs, threads=3)
        docs = {threads: [json.dumps(reportio.report_to_dict(r["report"]))
                          for r in batch(bundled, threads)]
                for threads in (1, 2)}
    finally:
        sys.setswitchinterval(switch)
    assert [r["label"] for r in threaded] == [r["label"] for r in serial]
    for a, b in zip(serial, threaded):
        assert a["ok"] and b["ok"]
        la = a["report"].base.lap.l
        lb = b["report"].base.lap.l
        assert np.array_equal(la, lb)
    assert docs[1] == docs[2]

    before = threading.active_count()
    net, ms = build_small_system(3, n_m=4)
    spec = ScenarioSpec("again", [Replacement(ms.sgs[1].bus, net.buses[1].id)], areas_r=2)
    for _ in range(20):
        monkeypatch.setattr(scenario_mod, "_last_base", None)  # each run uses the worker
        cl.run_pipeline(net, ms, spec)
    assert threading.active_count() <= before + 1
    assert sum(t.name.startswith("coherence-lab-eig") for t in threading.enumerate()) == 1


def test_forked_child_runs_the_pipeline(net68, ms68, monkeypatch):
    """A child forked after the parent has run a pipeline, and so started
    its eigensolve thread, starts its own and gets the parent's L."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("fork is not available on this platform")
    want = cl.run_pipeline(net68, ms68, s1_spec()).scenario.lap.l
    monkeypatch.setattr(scenario_mod, "_last_base", None)  # the child computes its base case
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)

    def child():
        send.send_bytes(cl.run_pipeline(net68, ms68, s1_spec()).scenario.lap.l.tobytes())

    proc = ctx.Process(target=child)
    proc.start()
    got = recv.recv_bytes() if recv.poll(60) else None
    proc.join(10)
    if proc.is_alive():
        proc.kill()
        proc.join()
    assert got == want.tobytes()
    assert proc.exitcode == 0


@pytest.mark.parametrize("broken, first", [
    (["state_matrix", "mode_shapes"], "state_matrix"),
    (["mode_shapes", "build_linear_model"], "mode_shapes"),
    (["build_linear_model", "kron_reduce"], "build_linear_model"),
    (["kron_reduce", "slow_eigensolve"], "kron_reduce"),
    (["slow_eigensolve", "group_machines"], "slow_eigensolve"),
])
def test_case_errors_keep_the_sequential_order(net68, ms68, monkeypatch, broken, first):
    """A failing case raises the first of its stages that fails, in the
    order it runs them: state_matrix, eig, reactive model, kron_reduce,
    slow_eigensolve, group_machines."""
    for name in broken:
        real = getattr(scenario_mod, name)

        def fail(*args, name=name, real=real, **kwargs):
            if name == "build_linear_model" and not kwargs["lossless"]:
                return real(*args, **kwargs)  # only the reactive model fails
            raise PipelineError(f"{name} failed")

        monkeypatch.setattr(scenario_mod, name, fail)
    with pytest.raises(PipelineError, match=f"^{first} failed$"):
        cl.run_pipeline(net68, ms68, s1_spec())


def test_base_eigensolve_error_comes_before_scenario_error(net68, ms68, monkeypatch):
    """The base case's eigensolve still runs when the scenario stage fails;
    its error is raised first, as the sequential chain, which finishes the
    base case before the scenario starts, raises it."""
    def slow_failure(a, n_r):
        time.sleep(0.2)  # still running when the scenario power flow fails
        raise PipelineError("base eigensolve failed")

    # a valid placement whose scenario power flow diverges
    spec = ScenarioSpec("diverges", [Replacement(65, 30)], areas_r=5)
    with pytest.raises(ConvergenceError):
        cl.run_pipeline(net68, ms68, spec)
    monkeypatch.setattr(scenario_mod, "_last_base", None)  # that run kept its base case
    monkeypatch.setattr(scenario_mod, "mode_shapes", slow_failure)
    with pytest.raises(PipelineError, match="base eigensolve failed"):
        cl.run_pipeline(net68, ms68, spec)


def traced_threads(monkeypatch, *names) -> dict:
    """Patch each named stage of the pipeline to record the thread of its
    last call, by name, in the returned dict."""
    threads = {}
    for name in names:
        def traced(*args, name=name, real=getattr(scenario_mod, name)):
            threads[name] = threading.current_thread()
            return real(*args)

        monkeypatch.setattr(scenario_mod, name, traced)
    return threads


def test_both_cases_eigensolves_run_at_once(net68, ms68, monkeypatch):
    """With replacements, the base case finishes on the eig worker while this
    thread runs the scenario case, so both eigensolves are in flight
    together. Run one after the other, they would break the barrier after
    its timeout instead of hanging."""
    barrier = threading.Barrier(2, timeout=10)
    real = scenario_mod.mode_shapes
    threads = []

    def meet(a, n_r):
        threads.append(threading.current_thread())
        barrier.wait()
        return real(a, n_r)

    monkeypatch.setattr(scenario_mod, "mode_shapes", meet)
    cl.run_pipeline(net68, ms68, s1_spec())
    worker, caller = sorted(threads, key=lambda t: t is threading.current_thread())
    assert worker.name.startswith("coherence-lab-eig")
    assert caller is threading.current_thread()


def test_base_failure_on_the_worker_beats_a_finished_scenario(net68, ms68, monkeypatch):
    """The base case's reactive chain, on the eig worker, fails; the scenario
    case, on this thread, finishes. run_pipeline raises the base failure."""
    threads = traced_threads(monkeypatch, "group_machines")
    real = scenario_mod.kron_reduce

    def kron_reduce(blocks):
        if blocks.machines is ms68:  # the base fleet
            threads["base kron_reduce"] = threading.current_thread()
            raise PipelineError("base kron_reduce failed")
        return real(blocks)

    monkeypatch.setattr(scenario_mod, "kron_reduce", kron_reduce)
    with pytest.raises(PipelineError, match="^base kron_reduce failed$"):
        cl.run_pipeline(net68, ms68, s1_spec())
    assert threads["base kron_reduce"].name.startswith("coherence-lab-eig")
    assert threads["group_machines"] is threading.current_thread()  # the scenario's, the last stage


def test_base_only_run_stays_on_the_calling_thread(net68, ms68, monkeypatch):
    """With no scenario case to overlap, a base-only run finishes its case,
    eigensolve included, on this thread."""
    stages = ("mode_shapes", "kron_reduce", "group_machines")
    threads = traced_threads(monkeypatch, *stages)
    cl.run_pipeline(net68, ms68, cl.load_scenario(DATA / "base.json"))
    assert threads == dict.fromkeys(stages, threading.current_thread())


def test_pipeline_deterministic_laplacian(net68, ms68, monkeypatch):
    spec = s1_spec()
    r1 = cl.run_pipeline(net68, ms68, spec)
    monkeypatch.setattr(scenario_mod, "_last_base", None)  # recompute the base case
    r2 = cl.run_pipeline(net68, ms68, spec)
    assert np.array_equal(r1.scenario.lap.l, r2.scenario.lap.l)
    assert np.array_equal(r1.base.sub.w_r, r2.base.sub.w_r)
    assert [m.freq_hz for m in r1.scenario.modes_band] == [
        m.freq_hz for m in r2.scenario.modes_band
    ]


def test_pipeline_linearizes_each_case_once(net68, ms68, tmp_path, monkeypatch):
    """One power flow, one dispatch and one reactive model, one equilibrium
    gate and two Jacobian assemblies per case; one report dict, and with it
    one row-sum check, per case however many formats are emitted; no SVD
    condition number."""
    stages = {
        "build_admittance": cl.network.build_admittance,
        "build_linear_model": cl.linearize.build_linear_model,
        "check_equilibrium": cl.linearize.check_equilibrium,
        "build_jacobians": cl.linearize.build_jacobians,
        "case_to_dict": reportio.case_to_dict,
        "row_sum_check": cl.linearize.row_sum_check,
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
        "row_sum_check": 2,
        "cond": 0,
    }


# ---------------------------------------------------------------------------
# the kept base case: a call with the base inputs of the last finished base
# case reuses a copy of it and runs only its scenario case

EVERY_FORMAT = {"json", "csv", "svg", "matrices"}


def load68(name: str) -> tuple:
    """The bundled grid and one of its scenarios, read afresh: equal to, but
    not the same objects as, every earlier load."""
    return (cl.load_network(DATA / "network.json"), cl.load_machines(DATA / "machines.json"),
            cl.load_scenario(DATA / f"{name}.json"))


def emitted(report, out) -> dict[str, bytes]:
    reportio.emit(report, out, EVERY_FORMAT)
    return {p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*") if p.is_file()}


def recorded_calls(monkeypatch, *stages: str) -> dict[str, list]:
    """Patch every package module attribute bound to each named stage to
    record the thread and the first argument of each call, by name."""
    calls = {name: [] for name in stages}
    modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "coherence_lab"]
    for name in stages:
        real = getattr(scenario_mod, name, None) or getattr(cl.network, name)

        def recorded(*args, name=name, real=real, **kwargs):
            calls[name].append((threading.current_thread(), args[0]))
            return real(*args, **kwargs)

        for mod in modules:
            if getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, recorded)
    return calls


def test_kept_base_emits_the_bytes_of_a_cold_run(monkeypatch, tmp_path):
    """After a base run, scenario1 and scenario2, their files read afresh,
    reuse its base case and emit every file as they do with no kept base."""
    power_flows = recorded_calls(monkeypatch, "solve_power_flow")["solve_power_flow"]
    cl.run_pipeline(*load68("base"))
    for name in ("scenario1", "scenario2"):
        del power_flows[:]
        warm = cl.run_pipeline(*load68(name))
        assert len(power_flows) == 1  # the scenario's alone
        monkeypatch.setattr(scenario_mod, "_last_base", None)
        cold = cl.run_pipeline(*load68(name))
        assert len(power_flows) == 3
        assert emitted(warm, tmp_path / f"warm-{name}") == emitted(cold, tmp_path / f"cold-{name}")


def test_kept_base_reruns_no_base_stage(net68, ms68, monkeypatch):
    """A hit runs the scenario case alone, on this thread: one power flow,
    3 admittance assemblies instead of 6, and one eigensolve."""
    cl.run_pipeline(net68, ms68, cl.load_scenario(DATA / "base.json"))
    calls = recorded_calls(monkeypatch, "solve_power_flow", "build_admittance", "mode_shapes")
    report = cl.run_pipeline(net68, ms68, s1_spec())
    assert [net for _, net in calls["solve_power_flow"]] == [report.scenario.net]
    assert len(calls["build_admittance"]) == 3
    assert [thread for thread, _ in calls["mode_shapes"]] == [threading.current_thread()]


def replace_first(records: tuple, **changes) -> tuple:
    return (dataclasses.replace(records[0], **changes), *records[1:])


def next_up(x: float) -> float:
    return float(np.nextafter(x, np.inf))


# each pair differs in one part of the key, the second by as little as a float can
KEY_CHANGES = {
    "areas_r": lambda net, ms, spec: (net, ms, dataclasses.replace(spec, areas_r=4)),
    "band_hz": lambda net, ms, spec: (net, ms, dataclasses.replace(spec, band_hz=(0.3, 0.9))),
    "options.tol": lambda net, ms, spec: (
        net, ms, dataclasses.replace(spec, options=cl.PowerFlowOptions(tol=next_up(1e-8)))),
    "branch x": lambda net, ms, spec: (
        dataclasses.replace(net, branches=replace_first(net.branches,
                                                        x=next_up(net.branches[0].x))), ms, spec),
    "sg m": lambda net, ms, spec: (
        net, dataclasses.replace(ms, sgs=replace_first(ms.sgs, m=next_up(ms.sgs[0].m))), spec),
    "sg d -0.0": lambda net, ms, spec: (
        net, dataclasses.replace(ms, sgs=replace_first(ms.sgs, d=-0.0)), spec),
}


@pytest.mark.parametrize("part", KEY_CHANGES)
def test_each_key_part_misses(net68, ms68, monkeypatch, part):
    """A second call with the same inputs hits; a change to any one part of
    the key misses, -0.0 against 0.0 too, which == takes for equal."""
    assert ms68.sgs[0].d == 0.0 and str(ms68.sgs[0].d) == "0.0"
    power_flows = recorded_calls(monkeypatch, "solve_power_flow")["solve_power_flow"]
    inputs = (net68, ms68, cl.load_scenario(DATA / "base.json"))
    changed = KEY_CHANGES[part](*inputs)
    assert changed != inputs or part == "sg d -0.0"
    cl.run_pipeline(*inputs)
    cl.run_pipeline(*load68("base"))
    assert len(power_flows) == 1
    cl.run_pipeline(*changed)
    assert len(power_flows) == 2


def write_into(case) -> None:
    """Writes a caller may make into a report's base case."""
    case.sol.v = case.sol.v * 2
    case.lap.l[0, 0] += 1.0
    case.part.areas[0].append(999)
    case.modes_all.append(case.modes_all[0])


def test_writes_into_a_report_never_reach_the_kept_base(net68, ms68, monkeypatch, tmp_path):
    """The caller that computed the base case and each caller that reuses it
    hold their own copies: writes into either leave the next report as a
    cold run's."""
    monkeypatch.setattr(scenario_mod, "_last_base", None)
    cold = emitted(cl.run_pipeline(net68, ms68, s1_spec()), tmp_path / "cold")
    monkeypatch.setattr(scenario_mod, "_last_base", None)
    write_into(cl.run_pipeline(net68, ms68, s1_spec()).base)  # the computed case
    hit = cl.run_pipeline(net68, ms68, s1_spec())
    assert emitted(hit, tmp_path / "after-miss") == cold
    write_into(hit.base)  # a reused copy
    assert emitted(cl.run_pipeline(net68, ms68, s1_spec()), tmp_path / "after-hit") == cold


def test_failed_base_case_is_not_kept(net68, ms68, monkeypatch):
    """A base case that raised is not kept: the same call raises again from
    the base power flow, not from a kept case."""
    cl.run_pipeline(net68, ms68, s1_spec())  # keeps a base at the default options
    power_flows = recorded_calls(monkeypatch, "solve_power_flow")["solve_power_flow"]
    spec = dataclasses.replace(s1_spec(), options=cl.PowerFlowOptions(max_iter=1))
    for n in (1, 2):
        with pytest.raises(ConvergenceError, match="did not converge in 1 iterations"):
            cl.run_pipeline(net68, ms68, spec)
        assert [net for _, net in power_flows] == [net68] * n


def test_base_case_is_kept_when_its_scenario_fails(net68, ms68, monkeypatch):
    """A base case that finished is kept although its scenario case raised."""
    with pytest.raises(ConvergenceError):  # a valid placement that diverges
        cl.run_pipeline(net68, ms68, ScenarioSpec("diverges", [Replacement(65, 30)], areas_r=5))
    power_flows = recorded_calls(monkeypatch, "solve_power_flow")["solve_power_flow"]
    report = cl.run_pipeline(net68, ms68, s1_spec())
    assert [net for _, net in power_flows] == [report.scenario.net]


def test_batch_run_on_one_grid_keeps_serial_results(monkeypatch):
    """Four jobs on the bundled grid, two or three at a time, so that base
    cases are kept and reused across threads, give the serial results."""
    jobs = [BatchJob(str(DATA / "network.json"), str(DATA / "machines.json"),
                     str(DATA / f"{name}.json"))
            for name in ("scenario1", "base", "scenario2", "scenario1")]
    docs = {}
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # more thread switches, more interleavings
    try:
        for threads in (2, 3, 1):
            monkeypatch.setattr(scenario_mod, "_last_base", None)
            results = batch_run(jobs, threads=threads)
            assert all(r["ok"] for r in results)
            docs[threads] = [(json.dumps(reportio.report_to_dict(r["report"])),
                              r["report"].base.lap.l.tobytes()) for r in results]
    finally:
        sys.setswitchinterval(switch)
    assert docs[2] == docs[3] == docs[1]
