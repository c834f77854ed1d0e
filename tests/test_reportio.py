"""Artifact emission: file set, determinism, CSV/JSON agreement, SVG
plotting, and failure atomicity."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import coherence_lab as cl
from coherence_lab.errors import InputOutputError
from coherence_lab.reportio import case_to_dict, emit, mode_svg, report_to_dict


def read_tree(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def test_emit_file_set(report_s1, tmp_path):
    written = emit(report_s1, tmp_path, {"json", "csv", "svg", "matrices"})
    names = {str(p.relative_to(tmp_path)) for p in written}
    assert "scenario1.report.json" in names
    assert "scenario1.modes.csv" in names
    assert "scenario1.groups.csv" in names
    assert "scenario1.rowsums.csv" in names
    assert "scenario1.eigenvalues.csv" in names
    assert "scenario1.bounds.csv" in names
    assert any(n.startswith("scenario1.base.mode") and n.endswith(".svg") for n in names)
    assert "scenario1.matrices/base/l.csv" in names
    assert "scenario1.matrices/scenario1/l0_bar.csv" in names
    for p in written:
        assert p.exists() and p.stat().st_size > 0


def test_l0_bar_is_base_l_bar_in_scenario_slots(report_s2, tmp_path):
    """The scenario's base reference is the base case's l_bar, labelled
    with the scenario's slot buses."""
    emit(report_s2, tmp_path, {"matrices"})
    mats = tmp_path / "scenario2.matrices"
    l0 = (mats / "scenario2" / "l0_bar.csv").read_text().splitlines()
    base = (mats / "base" / "l_bar.csv").read_text().splitlines()
    assert l0[1:] == base[1:]
    assert l0[0] == ",".join(str(b) for b in report_s2.scenario.slot_buses)
    assert not (mats / "base" / "l0_bar.csv").exists()


def test_emit_json_only(report_base, tmp_path):
    written = emit(report_base, tmp_path, {"json"})
    assert [p.name for p in written] == ["base.report.json"]
    doc = json.loads(written[0].read_text())
    assert doc["scenario"] is None
    assert doc["base"]["groups"]["areas"]
    assert doc["base"]["power_flow"]["max_mismatch"] <= 1e-8


def test_emit_is_byte_deterministic(report_s1, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    emit(report_s1, a, {"json", "csv", "svg", "matrices"})
    emit(report_s1, b, {"json", "csv", "svg", "matrices"})
    ta, tb = read_tree(a), read_tree(b)
    assert ta.keys() == tb.keys()
    for name in ta:
        assert ta[name] == tb[name], f"{name} differs between runs"


def test_emit_failure_leaves_no_partial_set(report_base, tmp_path):
    blocker = tmp_path / "occupied"
    blocker.write_text("a file where the output directory should go")
    with pytest.raises(InputOutputError):
        emit(report_base, blocker / "sub", {"json"})
    assert blocker.read_text().startswith("a file")


def test_report_dict_shape(report_s1):
    doc = report_to_dict(report_s1)
    assert doc["name"] == "scenario1"
    for label in ("base", "scenario"):
        case = doc[label]
        assert set(case["groups"]["areas"][0]) <= set(case["machine_order"])
        assert len(case["modes_band"]) >= 1
        assert case["laplacian"]["row_sum_max"] <= 1e-10
    comp = doc["comparison"]
    assert comp["theta_matrix_norm"] >= 0.0
    assert isinstance(doc["flipped_machines"], list)
    assert doc["mode_track"]


def test_json_numbers_are_plain_python(report_s1):
    # numpy scalars poison json.dumps; the dict must be fully converted
    doc = report_to_dict(report_s1)
    json.dumps(doc)


def test_csv_and_json_agree_on_mode_frequencies(report_s1, tmp_path):
    emit(report_s1, tmp_path, {"json", "csv"})
    doc = json.loads((tmp_path / "scenario1.report.json").read_text())
    lines = (tmp_path / "scenario1.modes.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    bcol = header.index("base_hz")
    csv_base = [float(row.split(",")[bcol]) for row in lines[1:] if row]
    json_base = [m["base_freq_hz"] for m in doc["mode_track"]]
    assert len(csv_base) == len(json_base)
    for a, b in zip(csv_base, json_base):
        assert math.isclose(a, b, rel_tol=1e-6)


def test_rowsums_csv_values(report_s1, tmp_path):
    emit(report_s1, tmp_path, {"csv"})
    lines = (tmp_path / "scenario1.rowsums.csv").read_text().strip().splitlines()
    assert len(lines) >= 3  # header + base + scenario
    header = lines[0].split(",")
    maxcol = header.index("row_sum_max")
    for row in lines[1:]:
        assert float(row.split(",")[maxcol]) <= 1e-10


def test_matrix_csv_roundtrip(report_s1, tmp_path):
    emit(report_s1, tmp_path, {"matrices"})
    f = tmp_path / "scenario1.matrices" / "base" / "l.csv"
    lines = f.read_text().strip().splitlines()
    order = [int(x) for x in lines[0].split(",")]
    assert order == report_s1.base.slot_buses
    got = np.array([[float(x) for x in row.split(",")] for row in lines[1:]])
    # %.17g renders doubles exactly
    assert np.array_equal(got, report_s1.base.lap.l)


def test_mode_svg_structure(report_s1):
    case = report_s1.base
    d = case_to_dict(case)
    areas = {b: a for a, lst in enumerate(case.part.areas) for b in lst}
    svg = mode_svg(d["modes_band"][0], areas, "probe")
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert "probe" in svg
    for bus in case.slot_buses:
        assert f">{bus}</text>" in svg
    # deterministic output
    assert svg == mode_svg(d["modes_band"][0], areas, "probe")


def test_mode_svg_antiphase_pair():
    mode = {
        "freq_hz": 1.0,
        "damping_ratio": 0.0,
        "components": [
            {"bus": 1, "mag": 1.0, "phase_rad": 0.0},
            {"bus": 2, "mag": 1.0, "phase_rad": np.pi},
        ],
    }
    svg = mode_svg(mode, {1: 0, 2: 1}, "pair")
    assert svg.count("<line") >= 2
    assert ">1</text>" in svg and ">2</text>" in svg
