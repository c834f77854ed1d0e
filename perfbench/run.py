"""coherence-lab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/` directory. BLAS is pinned to one thread before numpy loads. The
last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics of a traced run with `--trace 1`.
"""

import time

PROCESS_START = time.perf_counter()

import os  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


def parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program() -> bool:
    """Import coherence_lab from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import coherence_lab
    except ImportError as exc:
        print(f"perfbench: cannot import coherence_lab from {SRC}: {exc}", file=sys.stderr)
        return False
    where = Path(coherence_lab.__file__).resolve().parent.parent
    if where != SRC.resolve():
        print(f"perfbench: coherence_lab came from {where}, not {SRC}", file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    args = parse(argv)
    if not import_program():
        return 2

    import harness
    from tracer import Tracer
    from workloads import WORKLOADS

    imported = time.perf_counter() - PROCESS_START
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    info = harness.blas_info()
    print("perfbench: " + json.dumps({"workload": args.workload, "seed": args.seed,
                                      "trace": args.trace, **info}))
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    wl = None
    try:
        wl, setup_times = harness.set_up(WORKLOADS[args.workload], args.seed, work)
        runner = harness.Runner(wl, args.seed)
        if args.trace:
            tracer = Tracer()
            metrics, tally = harness.per_layer(runner, args.seconds, tracer)
            trace_file = OUT / f"trace-{args.workload}.json"
            trace_file.write_text(json.dumps({
                "workload": args.workload, "seed": args.seed, **info,
                "per_job": {k: v for k, (v, _) in metrics.items()},
                "summary": tracer.summary(), **tracer.dump(),
            }))
        else:
            setup_s = imported + statistics.median(setup_times)
            print(f"perfbench: imports {imported:.3f} s, set-ups "
                  + ", ".join(f"{t:.3f}" for t in setup_times) + " s", file=sys.stderr)
            metrics, tally = harness.end_to_end(runner, args.seconds, setup_s)
    finally:
        if wl is not None:
            wl.close()
        shutil.rmtree(work, ignore_errors=True)
    for problem in runner.problems[:20]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(harness.report_line(runner.correct, tally, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
