"""Scenario application and the end-to-end analysis pipeline.

A scenario retires synchronous generators and installs grid-forming
inverters at (usually nearby) buses, inheriting the retired units'
solved injections so the network flows barely move. The pipeline runs
the base case and the scenario case through power flow, linearization,
reduction, grouping, modal analysis, and the subspace comparison, with
scenario rows aligned into the slots of the machines they replace.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace as dc_replace
from pathlib import Path

import numpy as np

from .coherency import (
    ModeShape,
    Partition,
    SlowSubspace,
    SubspaceComparison,
    compare_subspaces,
    group_machines,
    mode_shapes,
    slow_eigensolve,
    track_modes,
)
from .errors import InputOutputError, ValidationError, read_field
from .linearize import (
    LaplacianPair,
    build_jacobians,
    build_linear_model,
    check_equilibrium,
    kron_reduce,
    state_matrix,
)
from .machines import Gfm, MachineSet, gfm_from_dict, validate_against_network
from .network import Bus, Network, connectivity_check
from .powerflow import (
    OperatingPoint,
    PowerFlowOptions,
    PowerFlowSolution,
    init_dynamic_states,
    solve_power_flow,
)

THREADS_ENV = "COHERENCE_LAB_THREADS"


@dataclass(frozen=True)
class Replacement:
    retire_sg_bus: int
    gfm_bus: int
    gfm_params: dict | str = "default"


@dataclass
class ScenarioOptions:
    tol: float = 1e-8
    max_iter: int = 30


@dataclass
class ScenarioSpec:
    name: str
    replacements: list[Replacement]
    areas_r: int
    band_hz: tuple[float, float] = (0.3, 1.0)
    options: ScenarioOptions = field(default_factory=ScenarioOptions)


def load_scenario(path: str | Path) -> ScenarioSpec:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise InputOutputError(f"cannot read scenario file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"scenario file {path} is not valid JSON: {exc}") from exc
    return scenario_from_dict(raw)


def scenario_from_dict(raw: dict) -> ScenarioSpec:
    for key in ("name", "replacements", "areas_r"):
        if key not in raw:
            raise ValidationError(f"scenario JSON missing required key '{key}'")
    reps = []
    for i, e in enumerate(raw["replacements"]):
        where = f"replacements[{i}]"
        retire = read_field(e, "retire_sg_bus", int, where)
        gfm_bus = read_field(e, "gfm_bus", int, where)
        params = e.get("gfm_params", "default")
        if params != "default" and not isinstance(params, dict):
            raise ValidationError("gfm_params must be an object or \"default\"")
        reps.append(Replacement(retire_sg_bus=retire, gfm_bus=gfm_bus, gfm_params=params))
    band = raw.get("band_hz", {"lo": 0.3, "hi": 1.0})
    opts_raw = raw.get("options", {})
    opts = ScenarioOptions(
        tol=read_field(opts_raw, "tol", float, "options", 1e-8),
        max_iter=read_field(opts_raw, "max_iter", int, "options", 30),
    )
    # the key survives only to declare the reactive-path (lossless) model
    if opts_raw.get("lossless", True) is not True:
        raise ValidationError(
            "options.lossless must be true: slow coherency needs the reactive-path reduction"
        )
    spec = ScenarioSpec(
        name=str(raw["name"]),
        replacements=reps,
        areas_r=read_field(raw, "areas_r", int, "scenario"),
        band_hz=(read_field(band, "lo", float, "band_hz"),
                 read_field(band, "hi", float, "band_hz")),
        options=opts,
    )
    if spec.areas_r < 1:
        raise ValidationError("areas_r must be at least 1")
    if spec.band_hz[0] >= spec.band_hz[1]:
        raise ValidationError("band_hz lo must be below hi")
    return spec


def apply_scenario(
    net: Network,
    machines: MachineSet,
    spec: ScenarioSpec,
    base_sol: PowerFlowSolution | None = None,
) -> tuple[Network, MachineSet, list[str]]:
    """Build the scenario network and machine fleet.

    Retired buses become pq; each GFM bus becomes pv holding the base-case
    solved magnitude (unless the replacement overrides v_set). GFM power
    set-points default to the retired unit's solved dispatch, so a slack
    retirement transplants the solved slack output. If the slack itself
    retires, the remaining SG with the largest schedule is promoted.
    """
    if not spec.replacements:
        return net, machines, []
    warnings: list[str] = []
    if base_sol is None:
        base_sol = solve_power_flow(net, machines, PowerFlowOptions(
            tol=spec.options.tol, max_iter=spec.options.max_iter))

    comps = connectivity_check(net)
    comp_of = {b: i for i, c in enumerate(comps) for b in c}

    retired: list[int] = []
    new_gfms: list[Gfm] = []
    for i, rep in enumerate(spec.replacements):
        sg = machines.sg_at(rep.retire_sg_bus)
        if sg is None:
            raise ValidationError(f"no SG to retire at bus {rep.retire_sg_bus}")
        if rep.retire_sg_bus in retired:
            raise ValidationError(f"bus {rep.retire_sg_bus} retired twice")
        if rep.gfm_bus not in net.index_of:
            raise ValidationError(f"gfm bus {rep.gfm_bus} not in network")
        occupied = (
            [m.bus for m in machines.sgs if m.bus not in
             [x.retire_sg_bus for x in spec.replacements]]
            + [m.bus for m in machines.gfms]
            + [g.bus for g in new_gfms]
        )
        if rep.gfm_bus in occupied:
            raise ValidationError(f"gfm bus {rep.gfm_bus} already has a machine")
        if comp_of.get(rep.gfm_bus) != comp_of.get(rep.retire_sg_bus):
            warnings.append(
                f"gfm bus {rep.gfm_bus} is electrically isolated from retired "
                f"bus {rep.retire_sg_bus}"
            )
        retired.append(rep.retire_sg_bus)

        k = net.index_of[rep.retire_sg_bus]
        bus = net.buses[k]
        p_solved = base_sol.p_inj[k] + bus.load_p
        q_solved = base_sol.q_inj[k] + bus.load_q
        v_here = float(np.abs(base_sol.v[net.index_of[rep.gfm_bus]]))
        entry: dict = {"bus": rep.gfm_bus}
        if isinstance(rep.gfm_params, dict):
            entry.update(rep.gfm_params)
        entry.setdefault("p_set", round(float(p_solved), 12))
        entry.setdefault("q_set", round(float(q_solved), 12))
        entry.setdefault("v_set", round(v_here, 12))
        new_gfms.append(gfm_from_dict(entry, f"replacements[{i}].gfm_params"))

    slack = net.slack_id()
    new_buses: list[Bus] = []
    gfm_vset = {g.bus: g.v_set for g in new_gfms}
    for b in net.buses:
        if b.id in retired:
            new_buses.append(dc_replace(b, kind="pq", v_setpoint=None))
        elif b.id in gfm_vset:
            if b.kind != "pq":
                raise ValidationError(f"gfm bus {b.id} must start as pq, got {b.kind}")
            new_buses.append(dc_replace(b, kind="pv", v_setpoint=gfm_vset[b.id]))
        else:
            new_buses.append(b)

    remaining_sgs = [m for m in machines.sgs if m.bus not in retired]
    if slack in retired:
        candidates = sorted(remaining_sgs, key=lambda m: (-m.p_set, m.bus))
        if not candidates:
            raise ValidationError("cannot retire the slack: no SG left to promote")
        promoted = candidates[0].bus
        warnings.append(f"slack bus {slack} retired; bus {promoted} promoted to slack")
        new_buses = [
            dc_replace(b, kind="slack") if b.id == promoted else b for b in new_buses
        ]

    net2 = Network(
        base_mva=net.base_mva,
        f0_hz=net.f0_hz,
        buses=new_buses,
        branches=list(net.branches),
    )
    machines2 = MachineSet(sgs=remaining_sgs, gfms=list(machines.gfms) + new_gfms)
    validate_against_network(machines2, net2)
    return net2, machines2, warnings


# ---------------------------------------------------------------------------
# case analysis

@dataclass
class CaseResult:
    net: Network
    machines: MachineSet
    sol: PowerFlowSolution
    op: OperatingPoint
    lap: LaplacianPair
    sub: SlowSubspace
    part: Partition
    modes_all: list[ModeShape]
    modes_band: list[ModeShape]
    equilibrium_max: float
    slot_buses: list[int]


def _permute_lap(lap: LaplacianPair, perm: list[int], slot_buses: list[int]) -> LaplacianPair:
    p = np.asarray(perm, dtype=int)
    return LaplacianPair(
        l=lap.l[np.ix_(p, p)],
        l_bar=lap.l_bar[np.ix_(p, p)],
        m_e=lap.m_e[p],
        machine_order=list(slot_buses),
        feedthrough_e=lap.feedthrough_e[p, :],
        variant=lap.variant,
        l0_bar=lap.l0_bar,
    )


def _analyze_case(
    net: Network,
    machines: MachineSet,
    spec: ScenarioSpec,
    slot_map: dict[int, int] | None = None,
    base_order: list[int] | None = None,
) -> CaseResult:
    """Power flow through modal analysis for one machine fleet.

    slot_map sends a base machine bus to the bus occupying its slot in
    this case; rows of every machine-indexed product are permuted into
    that slot order so cases remain comparable."""
    pf_opts = PowerFlowOptions(tol=spec.options.tol, max_iter=spec.options.max_iter)
    sol = solve_power_flow(net, machines, pf_opts)
    op = init_dynamic_states(net, machines, sol)
    dispatch = build_linear_model(net, machines, op, lossless=False)
    eq = check_equilibrium(dispatch, op)
    reactive = build_linear_model(net, machines, op, lossless=True)
    lap = kron_reduce(build_jacobians(reactive))

    if slot_map is not None and base_order is not None:
        slot_buses = [slot_map.get(b, b) for b in base_order]
    else:
        slot_buses = list(lap.machine_order)
    row_of = {b: i for i, b in enumerate(lap.machine_order)}
    perm = [row_of[b] for b in slot_buses]
    lap = _permute_lap(lap, perm, slot_buses)

    sub = slow_eigensolve(lap, spec.areas_r)
    part = group_machines(sub)

    sys_full = state_matrix(build_jacobians(dispatch))
    modes_all = mode_shapes(sys_full, band=None)
    prow = [sys_full.machine_order.index(b) for b in slot_buses]
    for m in modes_all:
        m.components = m.components[prow]
        m.machine_order = list(slot_buses)
    lo, hi = spec.band_hz
    modes_band = [m for m in modes_all if lo <= m.freq_hz <= hi]

    return CaseResult(
        net=net,
        machines=machines,
        sol=sol,
        op=op,
        lap=lap,
        sub=sub,
        part=part,
        modes_all=modes_all,
        modes_band=modes_band,
        equilibrium_max=eq.max_residual,
        slot_buses=slot_buses,
    )


@dataclass
class ScenarioReport:
    spec: ScenarioSpec
    base: CaseResult
    scenario: CaseResult | None
    comparison: SubspaceComparison | None
    mode_track: list[dict] | None
    flipped: list[int] | None
    warnings: list[str]


def _flipped_machines(base: Partition, scen: Partition, slot_buses: list[int]) -> list[int]:
    """Slots whose area changed, matching areas by member overlap."""
    base_area = {b: a for a, lst in enumerate(base.areas) for b in lst}
    scen_area = {b: a for a, lst in enumerate(scen.areas) for b in lst}
    base_order = base.machine_order
    # map scenario area -> base area with the largest slot overlap
    n_scen = len(scen.areas)
    mapping: dict[int, int] = {}
    for a in range(n_scen):
        slots = {i for i, b in enumerate(slot_buses) if scen_area[b] == a}
        best, best_ov = 0, -1
        for ab in range(len(base.areas)):
            bslots = {i for i, b in enumerate(base_order) if base_area[b] == ab}
            ov = len(slots & bslots)
            if ov > best_ov:
                best, best_ov = ab, ov
        mapping[a] = best
    flipped = []
    for i, b in enumerate(slot_buses):
        if mapping[scen_area[b]] != base_area[base_order[i]]:
            flipped.append(base_order[i])
    return flipped


def run_pipeline(net: Network, machines: MachineSet, spec: ScenarioSpec) -> ScenarioReport:
    """Base case, optional scenario case, comparison, and mode tracking."""
    warnings: list[str] = []
    base = _analyze_case(net, machines, spec)

    if not spec.replacements:
        return ScenarioReport(
            spec=spec,
            base=base,
            scenario=None,
            comparison=None,
            mode_track=None,
            flipped=None,
            warnings=warnings,
        )

    net2, machines2, warns = apply_scenario(net, machines, spec, base_sol=base.sol)
    warnings.extend(warns)
    slot_map = {r.retire_sg_bus: r.gfm_bus for r in spec.replacements}
    scen = _analyze_case(
        net2, machines2, spec, slot_map=slot_map, base_order=list(base.lap.machine_order)
    )
    scen.lap.l0_bar = base.lap.l_bar.copy()

    comparison = compare_subspaces(base.lap, base.sub, scen.lap, scen.sub)
    mode_track = track_modes(base.modes_band, scen.modes_all)
    flipped = _flipped_machines(base.part, scen.part, scen.slot_buses)

    return ScenarioReport(
        spec=spec,
        base=base,
        scenario=scen,
        comparison=comparison,
        mode_track=mode_track,
        flipped=flipped,
        warnings=warnings,
    )


@dataclass
class BatchJob:
    network: str
    machines: str
    scenario: str | None = None
    label: str | None = None


def batch_run(jobs: list[BatchJob], threads: int | None = None) -> list[dict]:
    """Run jobs concurrently, results in input order; failures are
    recorded, not raised."""
    from .machines import load_machines
    from .network import load_network

    if threads is None:
        threads = int(os.environ.get(THREADS_ENV, "1"))
    threads = max(1, threads)

    def one(job: BatchJob) -> dict:
        try:
            net = load_network(job.network)
            ms = load_machines(job.machines)
            if job.scenario:
                spec = load_scenario(job.scenario)
            else:
                spec = ScenarioSpec(
                    name=job.label or "base", replacements=[], areas_r=2
                )
            report = run_pipeline(net, ms, spec)
            return {"label": job.label or spec.name, "ok": True, "report": report}
        except Exception as exc:  # noqa: BLE001 - batch isolation is the point
            return {
                "label": job.label or job.network,
                "ok": False,
                "error": f"{type(exc).__name__}: {exc}",
            }

    if threads == 1:
        return [one(j) for j in jobs]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(one, jobs))
