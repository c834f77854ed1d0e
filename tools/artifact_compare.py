#!/usr/bin/env python3
"""Numerical comparison of two artifact trees.

    python3 tools/artifact_compare.py A B

A and B are output directories of `coherence-lab run`, such as two runs
of tools/artifact_digest.py. Prints one line per file, paths relative to
the trees in sorted order, then a count of each verdict:

  identical  the bytes are equal;
  within     every number is within RTOL of its scale, and everything
             else is equal; the line gives the largest difference;
  DIFFERENT  a file is missing, its structure or a discrete field
             differs, or a number is past RTOL of its scale.

Exits 0 when no file is DIFFERENT, 1 when one is, and 2 on bad usage.

What compares how:
  * Discrete fields compare exactly: in report.json every string, bool,
    null and integer (bus ids, areas, flipped machines, iterations), and
    every list length (the mode count); in a CSV table every column whose
    cells are all integers or words (areas, `flipped`, `bound_holds`,
    case labels, mode numbers); the CSV headers, which hold machine order;
    and the SVG plots, byte for byte. A different mode matching shows up
    as a tracked frequency far past RTOL.
  * A number compares relative to its scale, the largest magnitude among
    the numbers of its table or matrix, in both trees: a whole matrix
    under *.matrices/, a column of a CSV table, and in report.json every
    number at the same path with list indices ignored (one eigenvalue
    list, one column of the generation table); a single number is its own
    scale.
  * Row sums are roundoff of L, so they compare on the scale of their
    case's L: the largest entry of that case's l.csv, or their own scale
    when no l.csv was emitted.
  * Roundoff-sized residuals and ratios have scale 1: the power-flow
    mismatch and the equilibrium residual (per unit), the symmetry gap
    (already relative to max|L|) and the damping ratio of an undamped mode.
  * A mode component's phase_rad is an angle, so it compares modulo 2 pi:
    a component on the negative real axis reads pi or -pi by the sign of
    a roundoff imaginary part.

RTOL (Higham 2002, "Accuracy and Stability of Numerical Algorithms",
ch. 1-3, on measuring error relative to the data's scale). Measured on
the bundled runs, relative to scale: one against two BLAS threads moves
l.csv by up to 4.0e-14 and scenario2's feedthrough_e.csv by up to
9.0e-14; replacing the rectangular reactive reduction by the closed form
moved them by 3.3e-14 and 2.5e-13, and the derived report numbers by
less than 1e-11. RTOL sits above these and below 1e-9, a change that is
no longer roundoff.
"""

import json
import math
import re
import sys
from pathlib import Path

RTOL = 1e-10
INTEGER = re.compile(r"-?\d+")
ROW_SUMS = ("row_sum_mean", "row_sum_std", "row_sum_max")
UNIT_SCALE = ("max_mismatch", "equilibrium_max_residual", "symmetry_gap", "damping_ratio")


def as_float(cell: str) -> float | None:
    """The number a CSV cell holds, None for a word or an empty cell."""
    try:
        return float(cell)
    except ValueError:
        return None


class Comparison:
    """The differences found in one file: discrete ones, and pairs of
    numbers, each with the table whose scale it shares."""

    def __init__(self) -> None:
        self.discrete: list[str] = []
        self.pairs: list[tuple[object, str, float, float]] = []  # (table, where, a, b)
        self.scale: dict[object, float] = {}
        self.fixed: dict[object, float] = {}

    def number(self, table, where: str, a: float, b: float, scale: float | None = None) -> None:
        """Record a and b; their table's scale is the given one, or else the
        largest magnitude recorded in it."""
        if a != a and b != b:  # NaN on both sides
            return
        self.pairs.append((table, where, a, b))
        if scale is not None:
            self.fixed[table] = scale
        self.scale[table] = max(self.scale.get(table, 0.0), abs(a), abs(b))

    def worst(self) -> tuple[float, str]:
        """The largest difference relative to its scale, and where."""
        worst, at = 0.0, ""
        for table, where, a, b in self.pairs:
            if a == b:
                continue
            s = self.fixed.get(table, self.scale[table])
            rel = abs(a - b) / s if s > 0 else math.inf
            if not rel <= worst:  # NaN too
                worst, at = rel, where
        return worst, at

    def verdict(self) -> tuple[str, str]:
        worst, at = self.worst()
        numbers = f"{worst:.2e} of scale at {at}" if at else "numbers equal"
        if self.discrete:
            more = f" and {len(self.discrete) - 1} more" if len(self.discrete) > 1 else ""
            return "DIFFERENT", f"{self.discrete[0]}{more}; {numbers}"
        if not worst <= RTOL:
            return "DIFFERENT", f"{numbers}, past {RTOL:.0e}"
        return "within", numbers


def l_scale(trees: tuple[Path, Path], run: str, label: str) -> float | None:
    """max|L| of one case of one run, from its l.csv in the first tree that has it."""
    for tree in trees:
        path = tree / f"{run}.matrices" / label / "l.csv"
        if path.is_file():
            rows = path.read_text().splitlines()[1:]
            return max(abs(float(x)) for row in rows for x in row.split(","))
    return None


def compare_json(a, b, where: str, table: tuple, out: Comparison, scales: dict) -> None:
    if isinstance(a, dict) and isinstance(b, dict):
        if list(a) != list(b):
            out.discrete.append(f"{where or '/'}: keys {list(a)} != {list(b)}")
            return
        for key in a:
            compare_json(a[key], b[key], f"{where}/{key}", (*table, key), out, scales)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            out.discrete.append(f"{where}: {len(a)} entries != {len(b)}")
            return
        for i, (x, y) in enumerate(zip(a, b)):
            compare_json(x, y, f"{where}[{i}]", (*table, "*"), out, scales)
    elif type(a) is float and type(b) is float:
        case, key = table[0], table[-1]
        if key in ROW_SUMS:
            out.number(table, where, a, b, scales.get(case))
        elif key in UNIT_SCALE:
            out.number(table, where, a, b, 1.0)
        elif key == "phase_rad":
            out.number(table, where, a, a + math.remainder(b - a, math.tau))
        else:
            out.number(table, where, a, b)
    elif type(a) is not type(b) or a != b:
        out.discrete.append(f"{where}: {a!r} != {b!r}")


def compare_csv(a: str, b: str, matrix: bool, row_scale, out: Comparison) -> None:
    rows_a = [line.split(",") for line in a.splitlines()]
    rows_b = [line.split(",") for line in b.splitlines()]
    if rows_a[:1] != rows_b[:1]:
        out.discrete.append(f"header {rows_a[:1]} != {rows_b[:1]}")
        return
    if [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        out.discrete.append("table shapes differ")
        return
    header = rows_a[0]
    # a table column holds numbers if one of its cells is a number but not an integer
    numeric = [matrix or any(not INTEGER.fullmatch(r[j]) and as_float(r[j]) is not None
                             for r in rows_a[1:] + rows_b[1:]) for j in range(len(header))]
    for i, (ra, rb) in enumerate(zip(rows_a[1:], rows_b[1:]), start=1):
        for j, (x, y) in enumerate(zip(ra, rb)):
            where = f"row {i} col {j if matrix else header[j]}"
            fx, fy = (as_float(x), as_float(y)) if numeric[j] else (None, None)
            if fx is None or fy is None:
                if x != y:
                    out.discrete.append(f"{where}: {x!r} != {y!r}")
                continue
            table = "matrix" if matrix else header[j]
            if header[j] in ROW_SUMS:
                out.number((table, ra[0]), where, fx, fy, row_scale(ra[0]))
            elif header[j] in UNIT_SCALE:
                out.number(table, where, fx, fy, 1.0)
            else:
                out.number(table, where, fx, fy)


def run_name(rel: str) -> str:
    return rel.split("/")[0].split(".")[0]


def compare_file(trees: tuple[Path, Path], rel: str) -> tuple[str, str]:
    """(verdict, detail) of one relative path."""
    pa, pb = (tree / rel for tree in trees)
    if not pa.is_file() or not pb.is_file():
        return "DIFFERENT", f"only in {trees[0] if pa.is_file() else trees[1]}"
    a, b = pa.read_bytes(), pb.read_bytes()
    if a == b:
        return "identical", ""
    run, out = run_name(rel), Comparison()
    if rel.endswith(".json"):
        doc_a, doc_b = json.loads(a), json.loads(b)
        labels = {"base": "base", "scenario": doc_a.get("name")}
        compare_json(doc_a, doc_b, "", (), out,
                     {k: l_scale(trees, run, v) for k, v in labels.items()})
    elif rel.endswith(".csv"):
        compare_csv(a.decode(), b.decode(), ".matrices/" in rel,
                    lambda label: l_scale(trees, run, label), out)
    else:
        out.discrete.append("bytes differ")
    return out.verdict()


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(Path(p).is_dir() for p in argv):
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    trees = (Path(argv[0]), Path(argv[1]))
    rels = sorted({p.relative_to(tree).as_posix()
                   for tree in trees for p in tree.rglob("*") if p.is_file()})
    counts: dict[str, int] = {"identical": 0, "within": 0, "DIFFERENT": 0}
    for rel in rels:
        verdict, detail = compare_file(trees, rel)
        counts[verdict] += 1
        print(f"{verdict:9s}  {rel}" + (f"  {detail}" if detail else ""))
    print(", ".join(f"{n} {verdict}" for verdict, n in counts.items()))
    return 1 if counts["DIFFERENT"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
