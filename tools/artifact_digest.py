#!/usr/bin/env python3
"""Digest of every artifact the bundled 68-bus runs emit.

    python3 tools/artifact_digest.py OUT

Runs scenario1, base and scenario2, in that order and in one process,
through `coherence-lab run --emit json,csv,svg,matrices` into OUT, with
the package imported from this checkout's src/. It prints the BLAS thread
count, then one `sha256  path` line per file, paths relative to OUT in
sorted order. OUT must be empty or absent, so the digest covers files
written fresh only; rewriting files that exist is checked by the CI step
"Re-emitting into a used tree gives the same bytes". Two checkouts emit
the same artifacts when `diff` finds no difference in their output.

The order covers each path through run_pipeline. scenario1 comes first,
with no base case kept, so its base case finishes on the eig worker beside
its scenario case. base and scenario2 then reuse the base case that
scenario1 kept: base runs no stage, and scenario2 runs its scenario case
alone on the calling thread.

BLAS is pinned to one thread unless OPENBLAS_NUM_THREADS is set; the
count is pinned before numpy loads, because the emitted numbers may
differ in the last bit between thread counts.
"""

import os

THREADS = os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
for _var in ("OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from coherence_lab import cli  # noqa: E402

DATA = SRC / "coherence_lab" / "data" / "ieee68"
CASES = ("scenario1", "base", "scenario2")  # cold first; see the docstring


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    out = Path(argv[0])
    if out.exists() and any(out.iterdir()):
        print(f"artifact_digest: {out} is not empty", file=sys.stderr)
        return 2
    for case in CASES:
        with contextlib.redirect_stdout(io.StringIO()):  # the run summary
            rc = cli.main([
                "run", "--network", str(DATA / "network.json"),
                "--machines", str(DATA / "machines.json"),
                "--scenario", str(DATA / f"{case}.json"),
                "--out", str(out), "--emit", "json,csv,svg,matrices",
            ])
        if rc != 0:
            print(f"artifact_digest: {case} exited {rc}", file=sys.stderr)
            return rc
    print(f"OPENBLAS_NUM_THREADS={THREADS}")
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.relative_to(out).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
