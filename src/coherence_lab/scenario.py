"""Scenario application and the end-to-end analysis pipeline.

A scenario retires synchronous generators and installs grid-forming
inverters at (usually nearby) buses, inheriting the retired units'
solved injections so the network flows barely move. The pipeline runs
the base case and the scenario case through power flow, linearization,
reduction, grouping, modal analysis, and the subspace comparison, with
scenario rows aligned into the slots of the machines they replace.
"""

from __future__ import annotations

import copy
import functools
import os
import re
from collections import Counter
from collections.abc import Callable
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
from .errors import (
    CoherenceLabError,
    ValidationError,
    check,
    read_json,
    read_record,
    store_tuples,
)
from .linearize import (
    LaplacianPair,
    build_jacobians,
    build_linear_model,
    check_equilibrium,
    kron_reduce,
    state_matrix,
)
from .machines import Gfm, MachineSet, load_machines, validate_against_network
from .network import Network, load_network
from .powerflow import (
    OperatingPoint,
    PowerFlowOptions,
    PowerFlowSolution,
    init_dynamic_states,
    solve_power_flow,
)

class _ReadOnlyDict(dict):
    """A checked replacement's gfm_params: a dict to json and asdict, but read-only."""

    def _refuse(self, *args, **kwargs):
        raise TypeError("gfm_params are read-only; build a new Replacement")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):  # pickle and deepcopy rebuild it whole, not key by key
        return type(self), (dict(self),)


@dataclass(frozen=True)
class Replacement:
    retire_sg_bus: int
    gfm_bus: int
    gfm_params: dict | str = "default"  # Gfm fields over the defaults, bus excepted

    def __post_init__(self) -> None:
        params = self.gfm_params
        check(self, lambda: [(params == "default" or isinstance(params, dict),
                              'gfm_params must be an object or "default"'),
                             (not isinstance(params, dict) or "bus" not in params,
                              "gfm_params: field 'bus' is not allowed; the GFM sits at gfm_bus")])
        _new_gfm(self)  # the GFM it installs is valid
        if isinstance(params, dict):  # held read-only, as checked
            object.__setattr__(self, "gfm_params", _ReadOnlyDict(params))


@dataclass(frozen=True)
class _Band:  # a scenario file's band_hz object
    lo: float
    hi: float

    def __post_init__(self) -> None:
        check(self)


def _read_band(raw) -> tuple[float, float]:
    band = read_record(_Band, raw, "band_hz")
    return band.lo, band.hi


def _read_options(raw) -> PowerFlowOptions:
    """A scenario file's options object. Its lossless key survives only to
    declare the reactive-path (lossless) model, so it is true or null."""
    if isinstance(raw, dict) and "lossless" in raw:
        if raw["lossless"] is not True and raw["lossless"] is not None:  # 1 == True, so `is`
            raise ValidationError("options.lossless must be true: slow coherency needs the "
                                  "reactive-path reduction")
        raw = {k: v for k, v in raw.items() if k != "lossless"}
    return read_record(PowerFlowOptions, raw, "options")


def _named_twice(buses, message: str) -> tuple:
    """errors.check's rule that no bus is named twice, message filled with the first such bus."""
    twice = [bus for bus, n in Counter(buses).items() if n > 1]
    return not twice, message, *twice[:1]


@dataclass(frozen=True)
class ScenarioSpec:
    name: str  # names artifacts, heads CSV columns
    replacements: tuple[Replacement, ...]
    areas_r: int
    band_hz: tuple[float, float] = field(default=(0.3, 1.0), metadata={"read": _read_band})
    options: PowerFlowOptions = field(default=PowerFlowOptions(),
                                      metadata={"read": _read_options})

    def __post_init__(self) -> None:
        check(self, lambda: [
            (self.name[:1] not in ("", ".")
             and not re.search(r"[/\\,\x00-\x1f\x7f-\x9f]", self.name),
             "bad value {0.name!r} for field 'name': it is empty, starts with '.', "
             "or holds a '/', '\\', ',' or control character", self),
            (self.areas_r >= 1, "areas_r must be at least 1"),
            (self.band_hz[0] < self.band_hz[1], "band_hz lo must be below hi"),  # NaN too
            _named_twice((r.retire_sg_bus for r in self.replacements), "bus {} retired twice"),
            _named_twice((r.gfm_bus for r in self.replacements),
                         "gfm bus {} already has a machine"),
        ])
        store_tuples(self, "replacements")


def load_scenario(path: str | Path) -> ScenarioSpec:
    return scenario_from_dict(read_json(path, "scenario file"))


def scenario_from_dict(raw: dict) -> ScenarioSpec:
    return read_record(ScenarioSpec, raw, "scenario")


def _new_gfm(rep: Replacement, **solved: float) -> Gfm:
    """The GFM that rep installs at its gfm_bus: its gfm_params, a null one
    read as absent, over the solved set-points given and the Gfm defaults."""
    params = {} if rep.gfm_params == "default" else rep.gfm_params
    given = {k: v for k, v in params.items() if v is not None}
    return read_record(Gfm, {"bus": rep.gfm_bus, **solved, **given}, "gfm_params")


def check_placement(net: Network, machines: MachineSet, spec: ScenarioSpec) -> None:
    """The scenario rules that need the grid: each retired bus holds an SG, and each GFM
    bus is in the network, holds no machine of the base fleet (a retiring one too), is pq."""
    sgs, held = {m.bus for m in machines.sgs}, set(machines.machine_buses)
    for rep in spec.replacements:
        if rep.retire_sg_bus not in sgs:
            raise ValidationError(f"no SG to retire at bus {rep.retire_sg_bus}")
        if rep.gfm_bus not in net.index_of:
            raise ValidationError(f"gfm bus {rep.gfm_bus} not in network")
        if rep.gfm_bus in held:
            raise ValidationError(f"gfm bus {rep.gfm_bus} already has a machine")
        if (kind := net.bus(rep.gfm_bus).kind) != "pq":
            raise ValidationError(f"gfm bus {rep.gfm_bus} must start as pq, got {kind}")


def apply_scenario(
    net: Network,
    machines: MachineSet,
    spec: ScenarioSpec,
    base_sol: PowerFlowSolution,
) -> tuple[Network, MachineSet, list[str]]:
    """Build the scenario network and machine fleet from the solved base, after check_placement.

    Retired buses become pq; each GFM bus becomes pv holding the base-case
    solved magnitude (unless the replacement overrides v_set). GFM power
    set-points default to the retired unit's solved dispatch, so a slack
    retirement transplants the solved slack output. If the slack itself
    retires, the remaining SG with the largest schedule is promoted; with
    no SG left, the GFM with the largest schedule.
    """
    check_placement(net, machines, spec)
    retiring = {r.retire_sg_bus for r in spec.replacements}
    remaining_sgs = [m for m in machines.sgs if m.bus not in retiring]
    new_gfms: list[Gfm] = []
    for rep in spec.replacements:
        k = net.index_of[rep.retire_sg_bus]
        p_solved = base_sol.p_inj[k] + net.buses[k].load_p
        q_solved = base_sol.q_inj[k] + net.buses[k].load_q
        v_here = float(np.abs(base_sol.v[net.index_of[rep.gfm_bus]]))
        new_gfms.append(_new_gfm(rep, p_set=round(float(p_solved), 12),
                                 q_set=round(float(q_solved), 12), v_set=round(v_here, 12)))

    gfm_vset = {g.bus: g.v_set for g in new_gfms}
    new_buses = [dc_replace(b, kind="pq", v_setpoint=None) if b.id in retiring
                 else dc_replace(b, kind="pv", v_setpoint=gfm_vset[b.id]) if b.id in gfm_vset
                 else b for b in net.buses]
    gfms = list(machines.gfms) + new_gfms
    warnings: list[str] = []
    if (slack := net.slack_id()) in retiring:
        # GFMs form voltage too, so a fleet without SGs still has a slack
        promoted = min(remaining_sgs or gfms, key=lambda m: (-m.p_set, m.bus)).bus
        warnings.append(f"slack bus {slack} retired; bus {promoted} promoted to slack")
        new_buses = [dc_replace(b, kind="slack") if b.id == promoted else b for b in new_buses]

    net2 = dc_replace(net, buses=new_buses)
    machines2 = MachineSet(sgs=remaining_sgs, gfms=gfms)
    validate_against_network(machines2, net2)
    return net2, machines2, warnings


# ---------------------------------------------------------------------------
# case analysis

@dataclass(frozen=True)
class CaseResult:
    """One case of a run. The analysis results (lap, sub, part, the modes
    and delta) index machines by slot: row i is the machine at
    slot_buses[i]. sol and op keep the network's and the fleet's orders."""

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
    delta: np.ndarray  # machine rotor or GFM angles, rad


_eig_worker: ThreadPoolExecutor


def _new_eig_worker() -> None:
    """One worker thread, shared by the whole process, finishes a base case
    while its scenario case runs on the caller; the executor starts it at
    the first submit. A forked child, which has none of its parent's
    threads, gets a new executor."""
    global _eig_worker
    _eig_worker = ThreadPoolExecutor(1, thread_name_prefix="coherence-lab-eig")


_new_eig_worker()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_eig_worker)


def _analyze_case(
    net: Network,
    machines: MachineSet,
    spec: ScenarioSpec,
    slot_buses: list[int],
) -> tuple[PowerFlowSolution, Callable[[], CaseResult]]:
    """Power flow through modal analysis for one machine fleet. This thread
    runs the power flow, the equilibrium gate and the dispatch Jacobian
    blocks; it returns the solved power flow and finish(), which runs the
    rest in order on whichever thread calls it and returns the CaseResult:
    state_matrix, which drops the blocks, mode_shapes, the reactive model,
    kron_reduce, slow_eigensolve, group_machines. The dispatch and reactive
    models are never alive together.

    The linearization orders machines SGs first, then GFMs; this is the
    one place that maps that order onto slot_buses, by exact indexing, so
    cases stay comparable slot by slot."""
    sol = solve_power_flow(net, machines, spec.options)
    op = init_dynamic_states(net, machines, sol)
    dispatch = build_linear_model(net, machines, op, lossless=False)
    eq = check_equilibrium(dispatch)
    blocks = [build_jacobians(dispatch)]  # finish pops them: freed once the state matrix is built
    del dispatch  # and its dense admittance matrix, before any solve

    def finish() -> CaseResult:
        modes = mode_shapes(state_matrix(blocks.pop()), len(slot_buses))
        row_of = {b: i for i, b in enumerate(machines.machine_buses)}
        perm = np.array([row_of[b] for b in slot_buses], dtype=int)
        native = kron_reduce(build_jacobians(build_linear_model(net, machines, op, lossless=True)))
        lap = LaplacianPair(
            l=native.l[np.ix_(perm, perm)],
            m_e=native.m_e[perm],
            feedthrough_e=native.feedthrough_e[perm, :],
        )
        sub = slow_eigensolve(lap, spec.areas_r)
        modes_all = [dc_replace(m, components=m.components[perm]) for m in modes]
        lo, hi = spec.band_hz
        return CaseResult(
            net=net,
            machines=machines,
            sol=sol,
            op=op,
            lap=lap,
            sub=sub,
            part=group_machines(sub, slot_buses),
            modes_all=modes_all,
            modes_band=[m for m in modes_all if lo <= m.freq_hz <= hi],
            equilibrium_max=eq.max_residual,
            slot_buses=slot_buses,
            delta=op.delta[perm],
        )

    return sol, finish


@dataclass(frozen=True)
class ScenarioReport:
    spec: ScenarioSpec
    base: CaseResult
    scenario: CaseResult | None = None
    comparison: SubspaceComparison | None = None
    mode_track: list[dict] | None = None
    flipped: list[int] | None = None
    warnings: list[str] = field(default_factory=list)


def compare_cases(
    base: CaseResult, scen: CaseResult
) -> tuple[SubspaceComparison, list[dict], list[int]]:
    """Pair two cases in the same slots: their slow subspaces compared, each
    base band mode tracked among the scenario's modes, and the base buses of
    the slots whose area changed, in slot order. A scenario area belongs to
    the base area it shares the most slots with, the lowest index on a tie."""
    base_rows = [set(rows) for rows in base.part.area_rows]
    flipped: set[int] = set()
    for rows in map(set, scen.part.area_rows):
        shared = [len(rows & b) for b in base_rows]
        flipped |= rows - base_rows[shared.index(max(shared))]
    return (
        compare_subspaces(base.lap, base.sub, scen.lap, scen.sub),
        track_modes(base.modes_band, scen.modes_all),
        [base.slot_buses[i] for i in sorted(flipped)],
    )


class _KeptBase:
    """A finished base case and the key it was computed from: (net, machines,
    options, areas_r, band_hz). Its CaseResult shares only the frozen net and
    machines with the caller that computed it, and each caller gets a copy."""

    def __init__(self, key: tuple, case: CaseResult) -> None:
        self.key = key
        self.case = copy.deepcopy(case, {id(key[0]): key[0], id(key[1]): key[1]})

    @functools.cached_property
    def key_repr(self) -> str:
        return repr(self.key)

    def matches(self, key: tuple) -> bool:
        """The same key bit for bit: == takes -0.0 for 0.0 (an SG d of -0.0
        flips the sign of a zero on the state-matrix diagonal) and 1 for 1.0;
        their reprs differ."""
        return self.key == key and self.key_repr == repr(key)

    def copy_for(self, net: Network, machines: MachineSet) -> CaseResult:
        """A copy of the case that holds the caller's own net and machines."""
        return copy.deepcopy(self.case, {id(self.key[0]): net, id(self.key[1]): machines})


_last_base: _KeptBase | None = None  # one per process: the last base case that finished


def _keep_base(key: tuple, case: CaseResult) -> CaseResult:
    global _last_base
    _last_base = _KeptBase(key, case)
    return case


def run_pipeline(net: Network, machines: MachineSet, spec: ScenarioSpec) -> ScenarioReport:
    """The base case; with replacements, the scenario case and compare_cases.

    The last base case to finish in this process is kept. A call whose net,
    machines, options, areas_r and band_hz equal its own bit for bit reruns
    no base stage: it gets a copy of that case and runs only the scenario
    case, on this thread. Otherwise this thread solves the base case up to
    its Jacobian blocks. With replacements, the eig worker finishes the base
    case while this thread runs the scenario case, so the two cases'
    eigensolves overlap; a base-only run finishes on this thread. Errors are
    those of the sequential chain: a placement fault first, then the base
    case's. A base case that raised is not kept."""
    check_placement(net, machines, spec)
    key = (net, machines, spec.options, spec.areas_r, spec.band_hz)
    if (kept := _last_base) is not None and kept.matches(key):
        base = kept.copy_for(net, machines)
        base_sol, base_case = base.sol, lambda: base
    else:
        base_sol, finish_base = _analyze_case(net, machines, spec, machines.machine_buses)
        keep = lambda: _keep_base(key, finish_base())
        base_case = _eig_worker.submit(keep).result if spec.replacements else keep
    if not spec.replacements:
        return ScenarioReport(spec=spec, base=base_case())

    try:
        net2, machines2, warnings = apply_scenario(net, machines, spec, base_sol=base_sol)
        slot_map = {r.retire_sg_bus: r.gfm_bus for r in spec.replacements}
        _, finish_scen = _analyze_case(
            net2, machines2, spec, [slot_map.get(b, b) for b in machines.machine_buses])
        scen = finish_scen()
    except Exception:
        base_case()  # a base-case failure comes out first
        raise
    base = base_case()
    comparison, mode_track, flipped = compare_cases(base, scen)

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


def batch_run(jobs: list[BatchJob], threads: int = 1) -> list[dict]:
    """Run jobs concurrently, results in input order. A job that fails with
    a CoherenceLabError is recorded with its exit code; any other exception
    is a bug and propagates to the caller."""
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
        except CoherenceLabError as exc:
            return {
                "label": job.label or job.network,
                "ok": False,
                "error": f"{type(exc).__name__}: {exc}",
                "exit_code": exc.exit_code,
            }

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(one, jobs))
