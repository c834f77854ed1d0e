"""The repository's tools: the fixture generator reproduces the bundled
data, the artifact digest runs end to end, and the artifact comparison
passes roundoff but not a real change."""

import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import DATA

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def test_make_fixtures_reproduces_bundled_data(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("make_fixtures", TOOLS / "make_fixtures.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setattr(tool, "OUT", tmp_path)
    tool.main()
    capsys.readouterr()
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(p.name for p in DATA.iterdir()) == [
        "base.json", "machines.json", "network.json", "scenario1.json", "scenario2.json"]
    for name in written:
        assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes(), name


def test_artifact_digest_lists_every_artifact(tmp_path):
    """One sha256 line per emitted file of the three bundled runs, and a
    refusal to write into a directory that is not empty."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    cmd = [sys.executable, str(TOOLS / "artifact_digest.py"), str(tmp_path / "out")]
    done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    header, *lines = done.stdout.splitlines()
    assert header == "OPENBLAS_NUM_THREADS=1"
    assert len(lines) == 59
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines)
    out = tmp_path / "out"
    assert [line.split("  ")[1] for line in lines] == sorted(
        p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())

    again = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=300)
    assert again.returncode == 2
    assert "is not empty" in again.stderr


def digest_tree(out: Path, threads: str) -> Path:
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
    done = subprocess.run([sys.executable, str(TOOLS / "artifact_digest.py"), str(out)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return out


def compare(a: Path, b: Path) -> tuple[int, dict[str, str]]:
    """The comparison's exit code and each file's verdict line."""
    done = subprocess.run([sys.executable, str(TOOLS / "artifact_compare.py"), str(a), str(b)],
                          capture_output=True, text=True, timeout=300)
    *lines, summary = done.stdout.splitlines()
    assert re.fullmatch(r"\d+ identical, \d+ within, \d+ DIFFERENT", summary), done.stdout
    return done.returncode, {line.split()[1]: line for line in lines}


@pytest.fixture(scope="module")
def thread_trees(tmp_path_factory):
    """The bundled runs' artifacts at one and at two BLAS threads."""
    root = tmp_path_factory.mktemp("trees")
    return digest_tree(root / "one", "1"), digest_tree(root / "two", "2")


def test_artifact_compare_passes_one_and_two_blas_threads(thread_trees):
    rc, verdicts = compare(*thread_trees)
    assert rc == 0, "\n".join(verdicts.values())
    assert len(verdicts) == 59
    assert all(v.split()[0] in ("identical", "within") for v in verdicts.values())
    for name in ("groups.csv", "modes.csv"):
        assert verdicts[f"scenario2.{name}"].startswith("identical")


def test_artifact_compare_fails_a_laplacian_entry_moved_at_1e_9(thread_trees, tmp_path):
    one, _ = thread_trees
    moved = shutil.copytree(one, tmp_path / "moved")
    path = moved / "scenario1.matrices" / "scenario1" / "l.csv"
    header, *rows = path.read_text().splitlines()
    cells = [[float(x) for x in row.split(",")] for row in rows]
    scale = max(abs(x) for row in cells for x in row)
    cells[3][5] += 1e-9 * scale
    path.write_text("\n".join([header] + [",".join(repr(x) for x in row) for row in cells]) + "\n")
    rc, verdicts = compare(one, moved)
    assert rc == 1
    rel = "scenario1.matrices/scenario1/l.csv"
    assert verdicts[rel].startswith("DIFFERENT") and "row 4 col 5" in verdicts[rel]
    assert [r for r, v in verdicts.items() if v.startswith("DIFFERENT")] == [rel]


def test_artifact_compare_fails_a_swapped_area(thread_trees, tmp_path):
    one, two = thread_trees
    swapped = shutil.copytree(two, tmp_path / "swapped")
    path = swapped / "scenario2.report.json"
    doc = json.loads(path.read_text())
    assignment = doc["scenario"]["groups"]["assignment"]
    assignment["53"], assignment["66"] = assignment["66"], assignment["53"]
    path.write_text(json.dumps(doc, indent=2) + "\n")
    groups = swapped / "scenario2.groups.csv"
    rows = [line.split(",") for line in groups.read_text().splitlines()]
    for row in rows:
        if row[0] == "53":
            row[3] = str(assignment["53"])
    groups.write_text("\n".join(",".join(row) for row in rows) + "\n")
    rc, verdicts = compare(one, swapped)
    assert rc == 1
    assert "/scenario/groups/assignment/53" in verdicts["scenario2.report.json"]
    assert "scenario_area" in verdicts["scenario2.groups.csv"]
    assert sorted(r for r, v in verdicts.items() if v.startswith("DIFFERENT")) == [
        "scenario2.groups.csv", "scenario2.report.json"]
