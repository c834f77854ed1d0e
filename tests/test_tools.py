"""The repository's tools: the fixture generator reproduces the bundled
data, and the artifact digest runs end to end."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

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
