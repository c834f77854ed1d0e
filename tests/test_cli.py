"""End-to-end CLI behavior and the exit-code contract."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from importlib.metadata import EntryPoint, PackageNotFoundError, distribution
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coherence_lab
from coherence_lab.cli import _build_parser, main
from coherence_lab.errors import (
    CoherenceLabError,
    ConvergenceError,
    InputOutputError,
    PipelineError,
    ValidationError,
)
from coherence_lab.machines import Gfm

from conftest import DATA, two_bus_dicts


def test_exit_code_contract():
    assert ValidationError("x").exit_code == 1
    assert ConvergenceError("x").exit_code == 2
    assert PipelineError("x").exit_code == 3
    assert CoherenceLabError("x").exit_code == 3
    assert InputOutputError("x").exit_code == 4
    assert isinstance(ConvergenceError("x", [1.0, 0.5]).residual_history, list)


def run_cli(args):
    return main([str(a) for a in args])


def test_run_base_fixture(tmp_path, capsys):
    out = tmp_path / "out"
    rc = run_cli([
        "run", "--network", DATA / "network.json", "--machines", DATA / "machines.json",
        "--scenario", DATA / "base.json", "--out", out, "--emit", "json,csv",
    ])
    captured = capsys.readouterr()
    assert rc == 0
    assert "base areas:" in captured.out
    assert "band modes" in captured.out
    assert (out / "base.report.json").exists()
    assert (out / "base.modes.csv").exists()


def test_run_scenario_prints_tracking(tmp_path, capsys):
    rc = run_cli([
        "run", "--network", DATA / "network.json", "--machines", DATA / "machines.json",
        "--scenario", DATA / "scenario1.json", "--out", tmp_path / "o", "--emit", "json",
    ])
    captured = capsys.readouterr()
    assert rc == 0
    assert "scenario areas:" in captured.out
    assert "tracked modes" in captured.out
    assert "subspace bound" in captured.out


def test_run_without_scenario_uses_areas_r(tmp_path, capsys):
    rc = run_cli([
        "run", "--network", DATA / "network.json", "--machines", DATA / "machines.json",
        "--out", tmp_path / "o", "--emit", "json", "--areas-r", "5",
    ])
    assert rc == 0
    doc = json.loads((tmp_path / "o" / "base.report.json").read_text())
    assert doc["areas_r"] == 5
    assert len(doc["base"]["groups"]["areas"]) == 5


def test_run_without_scenario_checks_areas_r(tmp_path, capsys):
    """The base-only spec the CLI builds passes the same checks as a file."""
    rc = run_cli([
        "run", "--network", DATA / "network.json", "--machines", DATA / "machines.json",
        "--out", tmp_path / "o", "--areas-r", "0",
    ])
    assert rc == 1
    assert "areas_r must be at least 1" in capsys.readouterr().err


def test_cached_parser_carries_nothing_between_calls(tmp_path, capsys):
    """main builds its parser once per process, and each call parses afresh:
    no option, default or subcommand of one call leaks into the next."""
    base_run = ["run", "--network", DATA / "network.json",
                "--machines", DATA / "machines.json", "--emit", "json"]
    validate = ["validate", "--network", DATA / "network.json",
                "--machines", DATA / "machines.json"]

    def areas_r(out):
        return json.loads((out / "base.report.json").read_text())["areas_r"]

    assert run_cli(base_run + ["--out", tmp_path / "a", "--areas-r", "3"]) == 0
    assert areas_r(tmp_path / "a") == 3
    assert run_cli(base_run + ["--out", tmp_path / "b"]) == 0
    assert areas_r(tmp_path / "b") == 2
    assert run_cli(validate) == 0
    with pytest.raises(SystemExit) as exc:
        run_cli(base_run)  # no --out
    assert exc.value.code == 2
    assert "--out" in capsys.readouterr().err
    assert run_cli(base_run + ["--out", tmp_path / "c"]) == 0
    assert areas_r(tmp_path / "c") == 2
    assert _build_parser() is _build_parser()


def test_validate_ok(capsys):
    rc = run_cli([
        "validate", "--network", DATA / "network.json",
        "--machines", DATA / "machines.json",
    ])
    captured = capsys.readouterr()
    assert rc == 0
    assert "68 buses" in captured.out
    assert "converged" in captured.out


def test_bad_emit_format_is_validation_error(tmp_path, capsys):
    rc = run_cli([
        "run", "--network", DATA / "network.json", "--machines", DATA / "machines.json",
        "--out", tmp_path, "--emit", "json,parquet",
    ])
    captured = capsys.readouterr()
    assert rc == 1
    assert "unknown emit format" in captured.err


def test_missing_network_is_io_error(tmp_path, capsys):
    rc = run_cli([
        "validate", "--network", tmp_path / "none.json",
        "--machines", DATA / "machines.json",
    ])
    assert rc == 4
    assert "error:" in capsys.readouterr().err


def test_machine_on_unknown_bus_is_validation_error(tmp_path, capsys):
    netp = tmp_path / "net.json"
    msp = tmp_path / "ms.json"
    net, machines = two_bus_dicts()
    machines["gfms"] = [{"bus": 77}]
    netp.write_text(json.dumps(net))
    msp.write_text(json.dumps(machines))
    rc = run_cli(["validate", "--network", netp, "--machines", msp])
    captured = capsys.readouterr()
    assert rc == 1
    assert "77" in captured.err


def test_gfm_v_set_off_its_bus_setpoint_is_validation_error(tmp_path, capsys):
    """A fleet GFM holds its bus's v_setpoint, so a v_set that differs is
    refused instead of ignored."""
    netp = tmp_path / "net.json"
    msp = tmp_path / "ms.json"
    net, machines = two_bus_dicts()
    net["buses"][1].update(kind="pv", v_setpoint=1.0)
    machines["gfms"] = [{"bus": 2, "v_set": 1.2}]
    netp.write_text(json.dumps(net))
    msp.write_text(json.dumps(machines))
    rc = run_cli(["validate", "--network", netp, "--machines", msp])
    assert rc == 1
    assert "gfm at bus 2: v_set 1.2 differs from the bus v_setpoint 1.0" in capsys.readouterr().err


def test_pv_bus_without_machine_is_validation_error(tmp_path, capsys):
    """No machine supplies the reactive power of a pv bus that holds none,
    so the fleet is refused where it meets the network, by validate and by
    run alike, instead of failing the equilibrium gate after the power flow."""
    net = json.loads((DATA / "network.json").read_text())
    (bus,) = [b for b in net["buses"] if b["id"] == 30]
    bus.update(kind="pv", v_setpoint=1.0)
    netp = tmp_path / "net.json"
    netp.write_text(json.dumps(net))
    for args in (["validate"], ["run", "--scenario", DATA / "scenario1.json", "--out", tmp_path]):
        rc = run_cli([*args, "--network", netp, "--machines", DATA / "machines.json"])
        assert rc == 1
        assert "pv bus 30 has no machine" in capsys.readouterr().err


def test_nonconverging_case_is_convergence_error(tmp_path, capsys):
    net, machines = two_bus_dicts(x=0.5, p_load=1.2, q_load=0.5)
    netp, msp = tmp_path / "net.json", tmp_path / "ms.json"
    netp.write_text(json.dumps(net))
    msp.write_text(json.dumps(machines))
    rc = run_cli(["validate", "--network", netp, "--machines", msp])
    captured = capsys.readouterr()
    assert rc == 2
    assert "residual history" in captured.err


def test_modeshape_from_report(tmp_path, capsys):
    out = tmp_path / "o"
    run_cli([
        "run", "--network", DATA / "network.json", "--machines", DATA / "machines.json",
        "--scenario", DATA / "base.json", "--out", out, "--emit", "json",
    ])
    report = out / "base.report.json"
    doc = json.loads(report.read_text())
    freq = doc["base"]["modes_band"][0]["freq_hz"]
    svg = tmp_path / "m.svg"
    rc = run_cli(["modeshape", "--report", report, "--freq", f"{freq:.6f}", "--out", svg])
    capsys.readouterr()
    assert rc == 0
    assert svg.read_text().startswith("<svg")


@pytest.mark.parametrize("freq", ["99.0", "nan"])
def test_modeshape_no_match(tmp_path, capsys, freq):
    out = tmp_path / "o"
    run_cli([
        "run", "--network", DATA / "network.json", "--machines", DATA / "machines.json",
        "--out", tmp_path / "o", "--emit", "json",
    ])
    rc = run_cli([
        "modeshape", "--report", out / "base.report.json",
        "--freq", freq, "--out", tmp_path / "m.svg",
    ])
    captured = capsys.readouterr()
    assert rc == 1
    assert "no mode within" in captured.err
    assert not (tmp_path / "m.svg").exists()


def test_modeshape_missing_report_is_io_error(tmp_path, capsys):
    rc = run_cli([
        "modeshape", "--report", tmp_path / "none.report.json",
        "--freq", "0.5", "--out", tmp_path / "m.svg",
    ])
    assert rc == 4
    assert "cannot read report" in capsys.readouterr().err


def test_modeshape_unwritable_out_is_io_error(tmp_path, capsys):
    out = tmp_path / "o"
    run_cli([
        "run", "--network", DATA / "network.json", "--machines", DATA / "machines.json",
        "--scenario", DATA / "base.json", "--out", out, "--emit", "json",
    ])
    report = out / "base.report.json"
    freq = json.loads(report.read_text())["base"]["modes_band"][0]["freq_hz"]
    blocker = tmp_path / "plain-file"
    blocker.write_text("")
    rc = run_cli([
        "modeshape", "--report", report, "--freq", f"{freq:.6f}",
        "--out", blocker / "m.svg",
    ])
    assert rc == 4
    assert "cannot write" in capsys.readouterr().err


def test_malformed_network_entry_is_validation_error(tmp_path, capsys):
    net, machines = two_bus_dicts()
    del net["branches"][0]["from"]
    netp, msp = tmp_path / "net.json", tmp_path / "ms.json"
    netp.write_text(json.dumps(net))
    msp.write_text(json.dumps(machines))
    rc = run_cli(["validate", "--network", netp, "--machines", msp])
    assert rc == 1
    assert "branches[0]: missing field 'from'" in capsys.readouterr().err


def test_lossless_false_is_validation_error(tmp_path, capsys):
    spec = json.loads((DATA / "scenario1.json").read_text())
    spec["options"]["lossless"] = False
    sp = tmp_path / "s.json"
    sp.write_text(json.dumps(spec))
    rc = run_cli([
        "run", "--network", DATA / "network.json", "--machines", DATA / "machines.json",
        "--scenario", sp, "--out", tmp_path / "o",
    ])
    assert rc == 1
    assert "options.lossless" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("bus", [30, 53])
def test_gfm_params_bus_is_validation_error(tmp_path, capsys, bus):
    """A GFM placed through gfm_params would skip the placement checks
    made on gfm_bus: bus 30 then diverges in the power flow and bus 53
    fails as 'must start as pq'. It is refused at load time instead."""
    spec = json.loads((DATA / "scenario1.json").read_text())
    spec["replacements"][0]["gfm_params"] = {"bus": bus}
    sp = tmp_path / "s.json"
    sp.write_text(json.dumps(spec))
    rc = run_cli([
        "run", "--network", DATA / "network.json", "--machines", DATA / "machines.json",
        "--scenario", sp, "--out", tmp_path / "o",
    ])
    assert rc == 1
    assert "replacements[0]: gfm_params: field 'bus'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("params, fragment", [
    ({"tauu": 0.1}, r"unknown fields \['tauu'\]"),
    ({"tau": -1.0}, "tau must be positive"),
])
def test_gfm_params_are_checked_at_load(tmp_path, capsys, monkeypatch, params, fragment):
    """A replacement's gfm_params pass the GFM rules when the scenario is
    loaded, so a bad key or value costs no base-case power flow."""
    calls = []
    solve = coherence_lab.scenario.solve_power_flow
    monkeypatch.setattr(coherence_lab.scenario, "solve_power_flow",
                        lambda *a: calls.append(1) or solve(*a))
    spec = json.loads((DATA / "scenario1.json").read_text())
    spec["replacements"][0]["gfm_params"] = params
    sp = tmp_path / "s.json"
    sp.write_text(json.dumps(spec))
    rc = run_cli([
        "run", "--network", DATA / "network.json", "--machines", DATA / "machines.json",
        "--scenario", sp, "--out", tmp_path / "o",
    ])
    assert rc == 1
    assert re.search(r"replacements\[0\]: gfm_params: " + fragment, capsys.readouterr().err)
    assert calls == []


@pytest.mark.parametrize("name", ["../escaped", "a,b"])
def test_unsafe_scenario_name_is_validation_error(tmp_path, capsys, name):
    """The name becomes artifact paths and CSV headers: a path separator
    or a comma is refused before anything is written."""
    scenario = json.loads((DATA / "base.json").read_text())
    scenario["name"] = name
    sp = tmp_path / "scenario.json"
    sp.write_text(json.dumps(scenario))
    out = tmp_path / "trav" / "out"
    rc = run_cli([
        "run", "--network", DATA / "network.json", "--machines", DATA / "machines.json",
        "--scenario", sp, "--out", out, "--emit", "json,csv",
    ])
    assert rc == 1
    assert "field 'name'" in capsys.readouterr().err
    assert [p.name for p in tmp_path.rglob("*")] == ["scenario.json"]


@pytest.mark.parametrize("which, content, fragment", [
    ("network", "[]", "expected an object, got list"),
    ("network", "5", "expected an object, got int"),
    ("machines", "[]", "expected an object, got list"),
    ("machines", "5", "expected an object, got int"),
    ("machines", '{"sgs": 5}', "machines: bad value 5 for field 'sgs'"),
    ("machines", '{"gfms": {}}', "field 'gfms'"),
    ("scenario", "[]", "expected an object, got list"),
    ("scenario", "5", "expected an object, got int"),
    ("scenario", '{"name": "x", "replacements": 5, "areas_r": 2}',
     "field 'replacements'"),
    ("scenario", b"\xff\xfe", "is not valid JSON"),
    ("machines", '{"sgs": [{"bus": 65, "m": NaN, "xd_prime": 0.01, "p_set": 5}]}',
     "sgs[0]: bad value nan for field 'm': numbers must be finite"),
    ("machines", '{"sgs": [{"bus": 65, "m": 0.2, "d": Infinity, "xd_prime": 0.01, "p_set": 5}]}',
     "sgs[0]: bad value inf for field 'd'"),
    ("network", '{"base_mva": 100, "f0_hz": NaN, "buses": [], "branches": []}',
     "network: bad value nan for field 'f0_hz'"),
    ("network", '{"base_mva": 100, "f0_hz": 60, "branches": [], '
     '"buses": [{"id": 1, "kind": "slack", "v_setpoint": 1.0, "load_P": 1}]}',
     "buses[0]: unknown fields ['load_P']"),
    ("network", '{"base_mva": 100, "f0_hz": 60, '
     '"buses": [{"id": 1, "kind": "slack", "v_setpoint": 1.0}, {"id": 2, "kind": "pq"}], '
     '"branches": [{"from": 1, "to": 2, "r": 0, "x": 0.1, "tapp": 1}]}',
     "branches[0]: unknown fields ['tapp']"),
    ("network", '{"basemva": 100, "base_mva": 100, "f0_hz": 60, "branches": [], '
     '"buses": [{"id": 1, "kind": "slack", "v_setpoint": 1.0}]}',
     "network: unknown fields ['basemva']"),
    ("machines", '{"sgs": [{"bus": 65, "m": 0.2, "D": 1, "xd_prime": 0.01, "p_set": 5}]}',
     "sgs[0]: unknown fields ['D']"),
    ("machines", '{"sgs": [{"bus": 65, "m": 0.2, "xd_prime": 0.01, "p_set": 5}], "gfm": []}',
     "machines: unknown fields ['gfm']"),
    ("machines", '{"gfms": [{"bus": 53, "tauu": 0.1}]}', "unknown fields ['tauu']"),
    ("scenario", '{"name": "x", "replacements": [{"retire_sg_bus": 65, "gfm_bus": 37, '
     '"note": "y"}], "areas_r": 2}', "replacements[0]: unknown fields ['note']"),
    ("scenario", '{"name": "x", "replacements": [{"retire_sg_bus": 65, "gfm_bus": 37, '
     '"gfm_params": {"tauu": 0.1}}], "areas_r": 2}',
     "unknown fields ['tauu']"),
    ("scenario", '{"name": "x", "replacements": [], "areas_r": 2, "options": {"max_iters": 5}}',
     "options: unknown fields ['max_iters']"),
    ("scenario", '{"name": "x", "replacements": [], "areas_r": 2, '
     '"band_hz": {"lo": 0.3, "hi": 1.0, "mid": 0.5}}', "band_hz: unknown fields ['mid']"),
    ("scenario", '{"name": "x", "replacements": [], "areas_r": 2, "area_r": 2}',
     "scenario: unknown fields ['area_r']"),
])
def test_malformed_input_file_is_validation_error(tmp_path, capsys, which, content, fragment):
    files = {
        "network": DATA / "network.json",
        "machines": DATA / "machines.json",
        "scenario": DATA / "scenario1.json",
    }
    files[which] = tmp_path / f"{which}.json"
    if isinstance(content, bytes):
        files[which].write_bytes(content)
    else:
        files[which].write_text(content)
    rc = run_cli([
        "run", "--network", files["network"], "--machines", files["machines"],
        "--scenario", files["scenario"], "--out", tmp_path / "o",
    ])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and fragment in err


INPUTS = {
    "network": json.loads((DATA / "network.json").read_text()),
    "machines": json.loads((DATA / "machines.json").read_text()),
    "scenario": json.loads((DATA / "scenario2.json").read_text()),
}


def numeric_paths(doc, path=()):
    """Paths to every number in a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for k, v in items:
        if isinstance(v, (dict, list)):
            yield from numeric_paths(v, path + (k,))
        elif isinstance(v, (int, float)) and not isinstance(v, bool):
            yield path + (k,)


MUTABLE = {name: list(numeric_paths(doc)) for name, doc in INPUTS.items()}
MUTABLE["scenario"] += [
    ("replacements", i, "gfm_params", k)
    for i in range(len(INPUTS["scenario"]["replacements"]))
    for k in [f.name for f in dataclasses.fields(Gfm) if f.name != "bus"]
]
EXIT_CODES = {e.exit_code for e in (
    CoherenceLabError, ValidationError, ConvergenceError, PipelineError, InputOutputError)}


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_mutated_input_exits_with_typed_error(data):
    """One numeric field of the bundled inputs, gfm_params included, set to
    an extreme: run returns 0 or a CoherenceLabError's exit code and lets
    nothing else escape. An overflow in the power flow is a ConvergenceError,
    not a numpy warning; the one warning a run may give is the near-singular
    reduction, on its way to a typed error, and a run that returns 0 warns
    of nothing."""
    name = data.draw(st.sampled_from(sorted(INPUTS)), label="file")
    path = data.draw(st.sampled_from(MUTABLE[name]), label="field")
    value = data.draw(st.sampled_from([0, -1, math.nan, math.inf, -math.inf, 1e300, 1e-300]),
                      label="value")
    docs = json.loads(json.dumps(INPUTS))
    entry = docs[name]
    for key in path[:-1]:
        if entry[key] == "default":  # gfm_params
            entry[key] = {}
        entry = entry[key]
    entry[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        files = {}
        for which, doc in docs.items():
            files[which] = Path(tmp) / f"{which}.json"
            files[which].write_text(json.dumps(doc))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            rc = run_cli([
                "run", "--network", files["network"], "--machines", files["machines"],
                "--scenario", files["scenario"], "--out", Path(tmp) / "o", "--emit", "json",
            ])
    messages = [str(w.message) for w in caught]
    assert rc in {0} | EXIT_CODES
    assert all(m.startswith("algebraic block is near singular") for m in messages), messages
    assert rc != 0 or not caught, messages


def emitted_base_report(tmp_path) -> Path:
    out = tmp_path / "o"
    run_cli([
        "run", "--network", DATA / "network.json", "--machines", DATA / "machines.json",
        "--scenario", DATA / "base.json", "--out", out, "--emit", "json",
    ])
    return out / "base.report.json"


@pytest.mark.parametrize("corrupt, fragment", [
    (lambda doc: doc["base"]["modes_band"][1].pop("freq_hz"), "KeyError: 'freq_hz'"),
    (lambda doc: doc["base"]["groups"]["assignment"].update({"bus7": 0}),
     "ValueError: invalid literal"),
])
def test_modeshape_malformed_report_is_validation_error(tmp_path, capsys, corrupt, fragment):
    report = emitted_base_report(tmp_path)
    doc = json.loads(report.read_text())
    freq = doc["base"]["modes_band"][0]["freq_hz"]
    corrupt(doc)
    report.write_text(json.dumps(doc))
    svg = tmp_path / "m.svg"
    rc = run_cli(["modeshape", "--report", report, "--freq", repr(freq), "--out", svg])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"error: report {report} is malformed: ") and fragment in err
    assert not svg.exists()


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def declared_console_script():
    """The `coherence-lab` target declared in `[project.scripts]`."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        project = tomllib.load(fh)["project"]
    return project.get("scripts", {}).get("coherence-lab")


def test_console_script_is_wired():
    value = declared_console_script()
    assert value == "coherence_lab.cli:main"
    ep = EntryPoint(name="coherence-lab", value=value, group="console_scripts")
    assert ep.load() is main


def test_installed_console_script_matches_pyproject():
    try:
        dist = distribution("coherence-lab")
    except PackageNotFoundError:
        pytest.skip("coherence-lab is not installed in this interpreter")
    installed = dist.entry_points.select(group="console_scripts", name="coherence-lab")
    assert [ep.value for ep in installed] == [declared_console_script()]


def test_import_loads_no_scipy():
    """scipy is not a dependency, and importing it costs more than a whole
    68-bus run's set-up; importing the package must not pull it in."""
    src = Path(coherence_lab.__file__).resolve().parent.parent
    code = ("import sys, coherence_lab\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.strip() == "[]"
