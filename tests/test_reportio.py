"""Artifact emission: file set, determinism, rewrites of a used tree,
CSV/JSON agreement, SVG plotting, and failure atomicity."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from coherence_lab.cli import main as cli_main
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


def test_emit_rewrites_a_used_tree_byte_for_byte(report_s1, tmp_path):
    """Files rewritten in place, whether the old one was longer, shorter or
    the same, end up exactly as a fresh emit writes them."""
    formats = {"json", "csv", "svg", "matrices"}
    used, fresh = tmp_path / "used", tmp_path / "fresh"
    written = emit(report_s1, used, formats)
    for i, path in enumerate(written):
        if i % 3 == 0:
            path.write_bytes(path.read_bytes() * 2 + b"junk\n")
        elif i % 3 == 1:
            path.write_bytes(path.read_bytes()[:1])
    emit(report_s1, used, formats)
    emit(report_s1, fresh, formats)
    tu, tf = read_tree(used), read_tree(fresh)
    assert tu.keys() == tf.keys()
    for name in tf:
        assert tu[name] == tf[name], f"{name} differs from a fresh emit"


def test_emit_names_the_file_it_cannot_write(report_base, tmp_path):
    # a directory, not chmod, blocks the file: chmod does not bind root
    target = tmp_path / "base.modes.csv"
    target.mkdir()
    with pytest.raises(InputOutputError, match=re.escape(f"cannot write {target}:")):
        emit(report_base, tmp_path, {"json", "csv"})
    assert (tmp_path / "base.report.json").is_file()  # written before the failure


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


def cell(x) -> str:
    """How a CSV table renders one report.json value."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return "%.10g" % x
    return str(x)


def csv_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    header, *rows = path.read_text().splitlines()
    return header.split(","), [row.split(",") for row in rows]


@pytest.mark.parametrize("fixture", ["report_base", "report_s1", "report_s2"])
def test_csv_tables_are_views_of_report_json(fixture, request, tmp_path):
    """Every cell of every summary table is the matching report.json
    value under %.10g."""
    emit(request.getfixturevalue(fixture), tmp_path, {"json", "csv"})
    doc = json.loads(next(tmp_path.glob("*.report.json")).read_text())
    name = doc["name"]
    cases = [("base", doc["base"])]
    if doc["scenario"] is not None:
        cases.append((name, doc["scenario"]))

    keys = ("row_sum_mean", "row_sum_std", "row_sum_max", "symmetry_gap")
    _, rows = csv_rows(tmp_path / f"{name}.rowsums.csv")
    assert rows == [[label] + [cell(c["laplacian"][k]) for k in keys] for label, c in cases]

    want = []
    for label, c in cases:
        lap = c["laplacian"]
        for i, e in enumerate(lap["eigenvalues"]):
            est = lap["mode_estimates_hz"][i - 1] if i else None
            want.append([label, str(i), cell(e), cell(est)])
    _, rows = csv_rows(tmp_path / f"{name}.eigenvalues.csv")
    assert rows == want

    base = doc["base"]
    area = base["groups"]["assignment"]
    _, rows = csv_rows(tmp_path / f"{name}.groups.csv")
    _, modes = csv_rows(tmp_path / f"{name}.modes.csv")
    if doc["scenario"] is None:
        refs = base["groups"]["reference_buses"]
        assert rows == [
            [str(b), cell(area[str(b)]), cell(refs[area[str(b)]])]
            for b in base["machine_order"]
        ]
        assert modes == [[str(i + 1), cell(m["freq_hz"])]
                         for i, m in enumerate(base["modes_band"])]
        assert not (tmp_path / f"{name}.bounds.csv").exists()
        return

    scen = doc["scenario"]
    scen_area = scen["groups"]["assignment"]
    assert rows == [
        [str(b), str(sb), cell(area[str(b)]), cell(scen_area[str(sb)]),
         cell(b in doc["flipped_machines"])]
        for b, sb in zip(base["machine_order"], scen["machine_order"])
    ]
    track = ("base_freq_hz", "scenario_freq_hz", "delta_hz", "correlation")
    assert modes == [[str(i + 1)] + [cell(t[k]) for k in track]
                     for i, t in enumerate(doc["mode_track"])]
    c = doc["comparison"]
    _, rows = csv_rows(tmp_path / f"{name}.bounds.csv")
    assert rows == [[
        cell(doc["areas_r"]), cell(c["beta"]), cell(c["theta_matrix_norm"]),
        cell(c["bound_rhs"]), cell(c["bound_holds"]), cell(max(c["row_shift"])),
        cell(c["row_bound_rhs"]), cell(c["row_bound_holds"]),
    ]]


@pytest.mark.parametrize("fixture", ["report_base", "report_s1", "report_s2"])
def test_modeshape_reproduces_every_emitted_svg(fixture, request, tmp_path, capsys):
    """`modeshape --freq f` on the emitted report writes the same bytes as
    the emitted SVG of the band mode at f, base and scenario alike."""
    emit(request.getfixturevalue(fixture), tmp_path, {"json", "svg"})
    report = next(tmp_path.glob("*.report.json"))
    doc = json.loads(report.read_text())
    name = doc["name"]
    cases = [("base", doc["base"])]
    if doc["scenario"] is not None:
        cases.append((name, doc["scenario"]))
    for label, case in cases:
        assert case["modes_band"]
        for i, m in enumerate(case["modes_band"]):
            replot = tmp_path / "replot" / f"{label}.{i}.svg"
            rc = cli_main([
                "modeshape", "--report", str(report),
                "--freq", repr(m["freq_hz"]), "--out", str(replot),
            ])
            assert rc == 0
            emitted = tmp_path / f"{name}.{label}.mode{i + 1}.svg"
            assert replot.read_bytes() == emitted.read_bytes(), emitted.name
    capsys.readouterr()
