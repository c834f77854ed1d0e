"""Command-line entry points.

Exit codes: 0 success, 1 validation, 2 convergence, 3 pipeline, 4 I/O.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import CoherenceLabError, ConvergenceError, InputOutputError, ValidationError
from .machines import load_machines
from .network import connectivity_check, load_network
from .powerflow import PowerFlowOptions, solve_power_flow
from .reportio import emit, mode_svg
from .scenario import ScenarioSpec, load_scenario, run_pipeline

EMIT_CHOICES = ("json", "csv", "svg", "matrices")


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="coherence-lab",
        description="Coherency and inter-area mode analysis for SG/GFM fleets",
    )
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario pipeline and emit artifacts")
    run.add_argument("--network", required=True)
    run.add_argument("--machines", required=True)
    run.add_argument("--scenario", default=None, help="scenario JSON; omit for base only")
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument(
        "--emit",
        default="json,csv",
        help="comma list of: " + ",".join(EMIT_CHOICES),
    )
    run.add_argument("--areas-r", type=int, default=2,
                     help="slow-mode count for a base-only run (scenario file wins)")

    ms = sub.add_parser("modeshape", help="re-plot one mode from a report JSON")
    ms.add_argument("--report", required=True)
    ms.add_argument("--freq", type=float, required=True, help="target frequency, Hz")
    ms.add_argument("--out", required=True, help="SVG file path")

    val = sub.add_parser("validate", help="check inputs and probe power flow")
    val.add_argument("--network", required=True)
    val.add_argument("--machines", required=True)
    return p


def cmd_run(args: argparse.Namespace) -> int:
    formats = {f.strip() for f in args.emit.split(",") if f.strip()}
    bad = formats - set(EMIT_CHOICES)
    if bad:
        raise ValidationError(f"unknown emit format(s): {sorted(bad)}")
    net = load_network(args.network)
    machines = load_machines(args.machines)
    if args.scenario:
        spec = load_scenario(args.scenario)
    else:
        spec = ScenarioSpec(name="base", replacements=[], areas_r=args.areas_r)

    report = run_pipeline(net, machines, spec)
    written = emit(report, Path(args.out), formats)

    for w in report.warnings:
        print(f"warning: {w}")
    base = report.base
    print(f"case {spec.name}: power flow {base.sol.iterations} iters, "
          f"mismatch {base.sol.max_mismatch:.2e}")
    print("base areas: " + "; ".join(
        f"[{', '.join(str(b) for b in a)}]" for a in base.part.areas))
    print("base band modes (Hz): "
          + ", ".join(f"{m.freq_hz:.3f}" for m in base.modes_band))
    if report.scenario is not None:
        scen = report.scenario
        print("scenario areas: " + "; ".join(
            f"[{', '.join(str(b) for b in a)}]" for a in scen.part.areas))
        if report.mode_track:
            moved = ", ".join(
                f"{t['base_freq_hz']:.3f}->{t['scenario_freq_hz']:.3f}"
                for t in report.mode_track
            )
            print(f"tracked modes (Hz): {moved}")
        c = report.comparison
        if c.beta_defined:
            print(f"subspace bound: |sin|_F {c.theta_matrix_norm:.4f} "
                  f"<= {c.bound_rhs:.4f} ({'ok' if c.bound_holds else 'VIOLATED'})")
        else:
            print("subspace bound: undefined (eigenvalue gap closed)")
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_modeshape(args: argparse.Namespace) -> int:
    try:
        data = json.loads(Path(args.report).read_text())
    except OSError as exc:
        raise InputOutputError(f"cannot read report {args.report}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"report {args.report} is not valid JSON: {exc}") from exc

    candidates = []
    for label in ("base", "scenario"):
        case = data.get(label)
        if not case:
            continue
        areas = {
            int(b): a for b, a in case.get("groups", {}).get("assignment", {}).items()
        }
        for i, m in enumerate(case.get("modes_band", [])):
            candidates.append((label, i, m, areas))
    best = None
    for label, i, m, areas in candidates:
        err = abs(m["freq_hz"] - args.freq)
        if best is None or err < best[0]:
            best = (err, label, i, m, areas)
    if best is None or best[0] > 0.01:
        raise ValidationError(
            f"no mode within 0.01 Hz of {args.freq} Hz in {args.report}"
        )
    _, label, i, m, areas = best
    title = f"{label}: mode {i + 1} at {m['freq_hz']:.3f} Hz"
    out = Path(args.out)
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(mode_svg(m, areas, title))
    except OSError as exc:
        raise InputOutputError(f"cannot write {out}: {exc}") from exc
    print(f"wrote {out}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    net = load_network(args.network)
    machines = load_machines(args.machines)
    comps = connectivity_check(net)
    print(f"network: {net.n_bus} buses, {len(net.branches)} branches, "
          f"{len(comps)} component(s)")
    print(f"machines: {len(machines.sgs)} SG, {len(machines.gfms)} GFM")
    sol = solve_power_flow(net, machines, PowerFlowOptions())
    print(f"power flow converged in {sol.iterations} iterations "
          f"(mismatch {sol.max_mismatch:.2e})")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": cmd_run,
        "modeshape": cmd_modeshape,
        "validate": cmd_validate,
    }
    try:
        return handlers[args.command](args)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.residual_history:
            trace = ", ".join(f"{r:.3e}" for r in exc.residual_history)
            print(f"residual history: {trace}", file=sys.stderr)
        return exc.exit_code
    except CoherenceLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
