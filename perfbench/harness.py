"""Set-up, the timed loop, the checks between calls, and the metrics.

A run repeats whole rounds (every item of the workload once, in a fixed
order) until the timed calls add up to the requested seconds, so every
run attempts the same mix of operations whatever its length or seed.
Checks run after each call, outside the timed interval.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import json
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from checks import CheckFailure, check_job
from tracer import Tracer

SETUP_REPEATS = 3
CLOSED_FORM_SHARE = 0.25

# per-layer metrics: (name, unit, source); a source is
# (span name, "calls" | "s" | "self_s") or one of the special keys below
PER_LAYER = [
    ("network.build_admittance.calls", "calls/job", ("network.build_admittance", "calls")),
    ("network.build_admittance.self_ms", "ms/job", ("network.build_admittance", "self_s")),
    ("linearize.check_equilibrium.calls", "calls/job", ("linearize.check_equilibrium", "calls")),
    ("linearize.check_equilibrium.self_ms", "ms/job", ("linearize.check_equilibrium", "self_s")),
    ("linearize.build_linear_model.calls", "calls/job", ("linearize.build_linear_model", "calls")),
    ("linearize.build_linear_model.self_ms", "ms/job", ("linearize.build_linear_model", "self_s")),
    ("linearize.build_jacobians.calls", "calls/job", ("linearize.build_jacobians", "calls")),
    ("linearize.build_jacobians.self_ms", "ms/job", ("linearize.build_jacobians", "self_s")),
    ("linearize.kron_reduce.self_ms", "ms/job", ("linearize.kron_reduce", "self_s")),
    ("linalg.cond.ms", "ms/job", ("linalg.cond", "s")),
    ("linalg.solve.calls", "calls/job", ("linalg.solve", "calls")),
    ("linalg.solve.ms", "ms/job", ("linalg.solve", "s")),
    ("powerflow.solve_power_flow.self_ms", "ms/job", ("powerflow.solve_power_flow", "self_s")),
    ("powerflow.newton_iters", "iters/job", "newton_iters"),
    ("linearize.state_matrix.self_ms", "ms/job", ("linearize.state_matrix", "self_s")),
    ("coherency.mode_shapes.self_ms", "ms/job", ("coherency.mode_shapes", "self_s")),
    ("linalg.eig.ms", "ms/job", ("linalg.eig", "s")),
    ("coherency.slow_eigensolve.self_ms", "ms/job", ("coherency.slow_eigensolve", "self_s")),
    ("coherency.group_machines.self_ms", "ms/job", ("coherency.group_machines", "self_s")),
    ("coherency.track_modes.self_ms", "ms/job", ("coherency.track_modes", "self_s")),
    ("coherency.compare_subspaces.self_ms", "ms/job", ("coherency.compare_subspaces", "self_s")),
    ("linalg.eigh.ms", "ms/job", ("linalg.eigh", "s")),
    ("linalg.svd.ms", "ms/job", ("linalg.svd", "s")),
    ("reportio.emit.self_ms", "ms/job", ("reportio.emit", "self_s")),
    ("reportio.case_to_dict.calls", "calls/job", ("reportio.case_to_dict", "calls")),
    ("reportio.emit.bytes", "bytes/job", "emit_bytes"),
    ("cli.main.ms", "ms/job", ("cli.main", "s")),
    ("network.load_network.ms", "ms/job", ("network.load_network", "s")),
    ("scenario.apply_scenario.self_ms", "ms/job", ("scenario.apply_scenario", "self_s")),
    ("scenario.run_pipeline.ms", "ms/job", ("scenario.run_pipeline", "s")),
    ("scenario.batch_run.overlap", "ratio", "overlap"),
    ("trace.overhead", "ratio", "overhead"),
]


def blas_info() -> dict:
    """BLAS library, version and live thread count, and the CPU count."""
    info = {"numpy": np.__version__, "cpus": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0))}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"], info["blas_version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        info["blas"] = info["blas_version"] = None
    info["blas_threads"] = None
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "lib*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                info["blas_threads"] = int(getattr(lib, sym)())
                break
    return info


@dataclass
class Tally:
    """Timed calls of one kind (traced or not)."""

    durations: list[float] = field(default_factory=list)
    jobs: int = 0
    failed: int = 0

    @property
    def timed(self) -> float:
        return sum(self.durations)


class Runner:
    def __init__(self, wl, seed: int):
        self.wl = wl
        self.rng = np.random.default_rng(seed)
        self.correct = True
        self.problems: list[str] = []

    def call(self, item, tally: Tally, tracer: Tracer | None = None) -> None:
        with tracer or contextlib.nullcontext():
            t0 = time.perf_counter()
            outcome = self.wl.call(item)
            tally.durations.append(time.perf_counter() - t0)
        if outcome.failed:
            tally.failed += 1
            return
        tally.jobs += len(outcome.jobs)
        self.check(outcome)

    def check(self, outcome) -> None:
        closed_form = bool(self.rng.random() < CLOSED_FORM_SHARE)
        for job, report in zip(outcome.jobs, outcome.reports):
            try:
                check_job(job, report, outcome.out_dir, closed_form)
            except CheckFailure as exc:
                self.correct = False
                self.problems.append(f"{job.name}: {exc}")

    def round(self, tally: Tally, tracer: Tracer | None = None) -> None:
        for item in self.wl.items:
            self.call(item, tally, tracer)


def set_up(cls, seed: int, work: Path) -> tuple[object, list[float]]:
    """Build the workload's inputs and make one untimed warm-up call,
    SETUP_REPEATS times; the last workload built is the one measured."""
    times, wl = [], None
    for _ in range(SETUP_REPEATS):
        if wl is not None:
            wl.close()
        t0 = time.perf_counter()
        wl = cls(seed, work)
        outcome = wl.call(wl.items[0])
        times.append(time.perf_counter() - t0)
        if outcome.failed:
            raise RuntimeError(f"{cls.name}: the warm-up call failed")
    return wl, times


def end_to_end(runner: Runner, seconds: float, setup_s: float) -> tuple[dict, Tally]:
    tally = Tally()
    while tally.timed < seconds:
        runner.round(tally)
    metrics = {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (tally.jobs / tally.timed, "1/s"),
        "call_ms_p50": (statistics.median(tally.durations) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, tally


def per_layer(runner: Runner, seconds: float, tracer: Tracer) -> tuple[dict, Tally]:
    """Alternate untraced and traced rounds; per-layer values are per job
    of the traced rounds, and trace.overhead is the traced time per job
    over the untraced time per job."""
    plain, traced = Tally(), Tally()
    while plain.timed + traced.timed < seconds or not traced.durations:
        runner.round(plain)
        runner.round(traced, tracer)
    summary = tracer.summary()
    jobs = traced.jobs
    special = {
        "newton_iters": tracer.newton_iters / jobs,
        "emit_bytes": sum(os.path.getsize(p) for paths in tracer.emitted for p in paths) / jobs,
        "overlap": tracer.batch_overlap(),
        "overhead": (traced.timed / traced.jobs) / (plain.timed / plain.jobs),
    }
    metrics = {}
    for name, unit, source in PER_LAYER:
        if isinstance(source, str):
            value = special[source]
        else:
            span, key = source
            value = summary.get(span, {}).get(key, 0.0) / jobs
            if key != "calls":
                value *= 1e3
        metrics[name] = (value, unit)
    total = Tally(plain.durations + traced.durations, plain.jobs + traced.jobs,
                  plain.failed + traced.failed)
    return metrics, total


def report_line(correct: bool, tally: Tally, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": len(tally.durations),
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })
