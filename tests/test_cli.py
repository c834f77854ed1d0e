"""End-to-end CLI behavior and the exit-code contract."""

import json
from importlib.metadata import EntryPoint, PackageNotFoundError, distribution
from pathlib import Path

import pytest

from coherence_lab.cli import main
from coherence_lab.errors import (
    CoherenceLabError,
    ConvergenceError,
    InputOutputError,
    PipelineError,
    ValidationError,
)

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


def test_modeshape_no_match(tmp_path, capsys):
    out = tmp_path / "o"
    run_cli([
        "run", "--network", DATA / "network.json", "--machines", DATA / "machines.json",
        "--out", tmp_path / "o", "--emit", "json",
    ])
    rc = run_cli([
        "modeshape", "--report", out / "base.report.json",
        "--freq", "99.0", "--out", tmp_path / "m.svg",
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
