"""The three benchmark workloads: their inputs and the call each one times.

Every input is made from the run's seed. The program receives only the
generated inputs: network, machine and scenario data, either as files or
as the objects its own loaders build from them.
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from coherence_lab import cli, scenario
from coherence_lab.errors import CoherenceLabError
from coherence_lab.machines import machines_from_dict
from coherence_lab.network import network_from_dict
from coherence_lab.scenario import BatchJob, scenario_from_dict

OMEGA0 = 2.0 * np.pi * 60.0
DATA = Path(scenario.__file__).parent / "data" / "ieee68"
EMIT = "json,csv,svg,matrices"


@dataclass
class Job:
    """One scenario analysed as a base case plus a scenario case.

    The raw dicts are kept so that the checks can work from the input
    data rather than from the program's parsed objects."""

    name: str
    net_dict: dict
    machines_dict: dict
    scenario_dict: dict


@dataclass
class Outcome:
    """What one timed call produced: the reports of its jobs, or None for
    a job that failed, and the directory its artifacts went to, if any."""

    jobs: list[Job]
    reports: list
    out_dir: Path | None = None

    @property
    def failed(self) -> bool:
        return any(r is None for r in self.reports)


def scenario_dict(name: str, replacements: list[tuple[int, int]], areas_r: int) -> dict:
    return {
        "name": name,
        "replacements": [
            {"retire_sg_bus": sg, "gfm_bus": gfm, "gfm_params": "default"}
            for sg, gfm in replacements
        ],
        "areas_r": areas_r,
        "band_hz": {"lo": 0.3, "hi": 1.0},
        "options": {"lossless": True, "tol": 1e-8, "max_iter": 30},
    }


def ring_system(seed: int, n_m: int) -> tuple[dict, dict]:
    """Random ring grid with one SG hung off each grid bus, as dicts.

    The recipe of the test suite's `build_small_system` with no GFMs in
    the base fleet: n_m grid buses in a ring plus one chord, and n_m
    generator buses behind step-up transformers, so 2 * n_m buses."""
    rng = np.random.default_rng(seed)
    grid = list(range(1, n_m + 1))
    gen = list(range(n_m + 1, 2 * n_m + 1))

    branches = []
    for i in range(n_m):
        branches.append({
            "from": grid[i], "to": grid[(i + 1) % n_m],
            "r": 0.0, "x": float(rng.uniform(0.05, 0.20)),
            "b_charging": float(rng.uniform(0.0, 0.08)),
        })
    branches.append({
        "from": grid[0], "to": grid[n_m // 2],
        "r": 0.0, "x": float(rng.uniform(0.08, 0.20)),
    })
    for i in range(n_m):
        branches.append({
            "from": gen[i], "to": grid[i],
            "r": 0.0, "x": float(rng.uniform(0.02, 0.05)),
            "tap": float(rng.choice([1.0, 1.0, 1.025])),
        })

    loads = rng.uniform(0.3, 0.9, size=n_m)
    share = rng.uniform(0.5, 1.5, size=n_m)
    share = share / share.sum() * float(loads.sum())
    vset = rng.uniform(0.99, 1.04, size=n_m)

    buses = [
        {"id": grid[i], "kind": "pq",
         "load_p": float(loads[i]), "load_q": float(0.3 * loads[i])}
        for i in range(n_m)
    ]
    buses += [
        {"id": gen[i], "kind": "slack" if i == 0 else "pv", "v_setpoint": float(vset[i])}
        for i in range(n_m)
    ]
    sgs = [
        {
            "bus": gen[i],
            "m": float(2.0 * rng.uniform(2.5, 8.0) / OMEGA0),
            "d": 0.0,
            "xd_prime": float(rng.uniform(0.04, 0.12)),
            "p_set": float(share[i]),
        }
        for i in range(n_m)
    ]
    net = {"base_mva": 100.0, "f0_hz": 60.0, "buses": buses, "branches": branches}
    return net, {"sgs": sgs, "gfms": []}


def ring_jobs(seed: int, count: int, n_m: int, n_replace: int, areas_r: int) -> list[Job]:
    """`count` ring grids, each with n_replace non-slack SGs retired in
    favour of GFMs at the grid buses their step-up branches feed."""
    rng = np.random.default_rng(seed)
    jobs = []
    for k in range(count):
        net, ms = ring_system(int(rng.integers(0, 2**31)), n_m)
        picks = sorted(int(i) for i in rng.choice(np.arange(1, n_m), n_replace, replace=False))
        reps = [(n_m + 1 + i, 1 + i) for i in picks]
        name = f"ring{2 * n_m}-{k}"
        jobs.append(Job(name, net, ms, scenario_dict(name, reps, areas_r)))
    return jobs


def _write_json(path: Path, data: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data))
    return path


class Ieee68Penetration:
    """The bundled 68-bus case through `cli.main(["run", ...])`, cycling
    through 32 replacement scenarios with every artifact format emitted."""

    name = "ieee68-penetration"

    def __init__(self, seed: int, work: Path):
        self.work = work
        net = json.loads((DATA / "network.json").read_text())
        ms = json.loads((DATA / "machines.json").read_text())
        sg_buses = [m["bus"] for m in ms["sgs"]]
        step_up = {}
        for br in net["branches"]:
            if br["to"] in sg_buses:
                step_up[br["to"]] = br["from"]
            elif br["from"] in sg_buses:
                step_up[br["from"]] = br["to"]

        scen = [scenario_dict(f"single-{b}", [(b, step_up[b])], 5) for b in sg_buses]
        order = [int(b) for b in np.random.default_rng(seed).permutation(sg_buses)]
        # retiring all 16 units fails (no SG left to take the slack), so the
        # nested penetration sets stop at 15
        for k in range(2, len(sg_buses)):
            scen.append(scenario_dict(
                f"pen-{k:02d}", [(b, step_up[b]) for b in order[:k]], 5))
        entries = [
            (sd, _write_json(work / "scenarios" / f"{sd['name']}.json", sd)) for sd in scen
        ] + [
            (json.loads((DATA / f).read_text()), DATA / f)
            for f in ("scenario1.json", "scenario2.json")
        ]
        self.items = [(Job(sd["name"], net, ms, sd), path) for sd, path in entries]
        self._devnull = open(os.devnull, "w")

        # Keep the report that `cmd_run` builds so that it can be checked.
        # The hook looks up `scenario.run_pipeline` at call time, so a
        # traced run still records the span of the real function.
        self._captured: list = []

        def captured(*args, **kwargs):
            report = scenario.run_pipeline(*args, **kwargs)
            self._captured.append(report)
            return report

        cli.run_pipeline = captured

    def close(self) -> None:
        cli.run_pipeline = scenario.run_pipeline
        self._devnull.close()

    def call(self, item) -> Outcome:
        job, path = item
        out = self.work / "out" / job.name
        argv = [
            "run", "--network", str(DATA / "network.json"),
            "--machines", str(DATA / "machines.json"),
            "--scenario", str(path), "--out", str(out), "--emit", EMIT,
        ]
        self._captured.clear()
        with contextlib.redirect_stdout(self._devnull):
            rc = cli.main(argv)
        report = self._captured[-1] if rc == 0 and self._captured else None
        return Outcome([job], [report], out)


class Ring400:
    """`run_pipeline` on 400-bus ring grids, inputs built in memory."""

    name = "ring-400"

    def __init__(self, seed: int, work: Path):
        self.items = []
        for job in ring_jobs(seed, count=4, n_m=200, n_replace=3, areas_r=4):
            objs = (
                network_from_dict(job.net_dict),
                machines_from_dict(job.machines_dict),
                scenario_from_dict(job.scenario_dict),
            )
            self.items.append((job, objs))

    def close(self) -> None:
        pass

    def call(self, item) -> Outcome:
        job, (net, ms, spec) = item
        try:
            report = scenario.run_pipeline(net, ms, spec)
        except CoherenceLabError:
            report = None
        return Outcome([job], [report])


class RingBatch:
    """`batch_run(jobs, threads=2)` over 200-bus ring scenarios read from
    network, machine and scenario files."""

    name = "ring-batch"
    threads = 2

    def __init__(self, seed: int, work: Path):
        self.jobs = ring_jobs(seed, count=6, n_m=100, n_replace=3, areas_r=4)
        self.batch = []
        for job in self.jobs:
            d = work / "inputs" / job.name
            self.batch.append(BatchJob(
                network=str(_write_json(d / "network.json", job.net_dict)),
                machines=str(_write_json(d / "machines.json", job.machines_dict)),
                scenario=str(_write_json(d / "scenario.json", job.scenario_dict)),
                label=job.name,
            ))
        self.items = [None]

    def close(self) -> None:
        pass

    def call(self, item) -> Outcome:
        results = scenario.batch_run(self.batch, threads=self.threads)
        return Outcome(self.jobs, [r["report"] if r["ok"] else None for r in results])


WORKLOADS = {w.name: w for w in (Ieee68Penetration, Ring400, RingBatch)}
