"""Newton power flow in polar coordinates and dynamic-state initialization.

Machine reactances stay out of the steady-state network: generators appear
as scheduled injections at pv buses and the slack absorbs the balance.
Loads are constant-PQ here; linearization converts them to admittances at
the solved voltages.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, ValidationError
from .machines import MachineSet, validate_against_network
from .network import Network, build_admittance, connectivity_check


@dataclass
class PowerFlowOptions:
    tol: float = 1e-8
    max_iter: int = 30


@dataclass
class PowerFlowSolution:
    v: np.ndarray  # complex bus voltages, file order
    p_inj: np.ndarray  # net calculated active injection per bus
    q_inj: np.ndarray
    iterations: int
    max_mismatch: float
    residual_history: list[float] = field(default_factory=list)


def _scheduled_injections(net: Network, machines: MachineSet) -> tuple[np.ndarray, np.ndarray]:
    """Specified net P (gen minus load) and Q load per bus."""
    p = np.array([-b.load_p for b in net.buses])
    q = np.array([-b.load_q for b in net.buses])
    for m in machines.sgs:
        p[net.index_of[m.bus]] += m.p_set
    for m in machines.gfms:
        p[net.index_of[m.bus]] += m.p_set
    return p, q


def solve_power_flow(
    net: Network,
    machines: MachineSet,
    opts: PowerFlowOptions | None = None,
) -> PowerFlowSolution:
    """Full Newton power flow from a flat start. Raises ConvergenceError
    with the residual history when the iteration stalls or the Jacobian
    goes singular."""
    opts = opts or PowerFlowOptions()
    validate_against_network(machines, net)
    comps = connectivity_check(net)
    if len(comps) > 1:
        raise ValidationError(
            f"network is split into {len(comps)} islands; largest starts at bus {comps[0][0]}"
        )

    ybus = build_admittance(net)
    n = net.n_bus
    kinds = np.array([b.kind for b in net.buses])
    pq = np.flatnonzero(kinds == "pq")
    pv = np.flatnonzero(kinds == "pv")
    pvpq = np.sort(np.concatenate([pv, pq]))

    vm = np.ones(n)
    va = np.zeros(n)
    for b in net.buses:
        if b.v_setpoint is not None:
            vm[net.index_of[b.id]] = b.v_setpoint

    p_spec, q_spec = _scheduled_injections(net, machines)
    s_spec = p_spec + 1j * q_spec

    history: list[float] = []
    for it in range(opts.max_iter + 1):
        v = vm * np.exp(1j * va)
        ibus = ybus @ v
        s_calc = v * np.conj(ibus)
        mis = s_calc - s_spec
        g = np.concatenate([mis.real[pvpq], mis.imag[pq]])
        max_mis = float(np.max(np.abs(g))) if g.size else 0.0
        history.append(max_mis)
        if max_mis < opts.tol:
            return PowerFlowSolution(
                v=v,
                p_inj=s_calc.real.copy(),
                q_inj=s_calc.imag.copy(),
                iterations=it,
                max_mismatch=max_mis,
                residual_history=history,
            )
        if it == opts.max_iter:
            break

        dv_norm = v / vm
        ds_dva = 1j * (v[:, None] * np.conj(np.diag(ibus) - ybus * v[None, :]))
        ds_dvm = v[:, None] * np.conj(ybus * dv_norm[None, :]) + np.diag(
            np.conj(ibus) * dv_norm
        )
        j11 = ds_dva.real[np.ix_(pvpq, pvpq)]
        j12 = ds_dvm.real[np.ix_(pvpq, pq)]
        j21 = ds_dva.imag[np.ix_(pq, pvpq)]
        j22 = ds_dvm.imag[np.ix_(pq, pq)]
        jac = np.block([[j11, j12], [j21, j22]])
        try:
            dx = np.linalg.solve(jac, -g)
        except np.linalg.LinAlgError:
            raise ConvergenceError(
                "singular power-flow Jacobian; check for islanding or voltage collapse",
                history,
            ) from None
        va[pvpq] += dx[: pvpq.size]
        vm[pq] += dx[pvpq.size :]

    raise ConvergenceError(
        f"power flow did not converge in {opts.max_iter} iterations "
        f"(last mismatch {history[-1]:.3e})",
        history,
    )


@dataclass
class OperatingPoint:
    """Solved network state plus initialized machine internals.

    Effective set-points absorb whatever the dispatch decided (slack power,
    reactive support) so that every dynamic equation evaluates to zero here.
    """

    v: np.ndarray  # complex bus voltages at the linearization point
    sg_delta: np.ndarray
    sg_e: np.ndarray
    sg_p_eff: np.ndarray
    gfm_delta: np.ndarray
    gfm_e: np.ndarray
    gfm_ve: np.ndarray
    gfm_p_eff: np.ndarray
    gfm_vs_eff: np.ndarray


def init_dynamic_states(
    net: Network,
    machines: MachineSet,
    sol: PowerFlowSolution,
    tol: float = 1e-6,
) -> OperatingPoint:
    """Back out machine internal states from the solved terminal conditions.

    SG: E∠δ = V + j x'd I with I the generator current; the reconstructed
    air-gap power must match the schedule (slack excepted, it takes the
    solved value). GFM: the unit forms its bus voltage, so δ = angle(V),
    E = |V|, integrator state zero, and the voltage reference is shifted to
    make the droop residual vanish exactly.
    """
    slack = net.slack_id()
    n_sg = len(machines.sgs)
    sg_delta = np.zeros(n_sg)
    sg_e = np.zeros(n_sg)
    sg_p_eff = np.zeros(n_sg)
    for i, m in enumerate(machines.sgs):
        k = net.index_of[m.bus]
        bus = net.bus(m.bus)
        vk = sol.v[k]
        p_gen = sol.p_inj[k] + bus.load_p
        q_gen = sol.q_inj[k] + bus.load_q
        i_gen = np.conj((p_gen + 1j * q_gen) / vk)
        u = vk + 1j * m.xd_prime * i_gen
        sg_delta[i] = np.angle(u)
        sg_e[i] = np.abs(u)
        sg_p_eff[i] = p_gen
        if m.bus != slack and abs(p_gen - m.p_set) > tol:
            raise ValidationError(
                f"sg at bus {m.bus}: solved output {p_gen:.6f} differs from "
                f"schedule {m.p_set:.6f}"
            )

    n_gfm = len(machines.gfms)
    gfm_delta = np.zeros(n_gfm)
    gfm_e = np.zeros(n_gfm)
    gfm_p_eff = np.zeros(n_gfm)
    gfm_vs_eff = np.zeros(n_gfm)
    for j, g in enumerate(machines.gfms):
        k = net.index_of[g.bus]
        bus = net.bus(g.bus)
        vk = sol.v[k]
        p_gen = sol.p_inj[k] + bus.load_p
        q_gen = sol.q_inj[k] + bus.load_q
        gfm_delta[j] = np.angle(vk)
        gfm_e[j] = np.abs(vk)
        gfm_p_eff[j] = p_gen
        gfm_vs_eff[j] = np.abs(vk) - g.lambda_q * (g.q_set - q_gen)
        if g.bus != slack and abs(p_gen - g.p_set) > tol:
            raise ValidationError(
                f"gfm at bus {g.bus}: solved output {p_gen:.6f} differs from "
                f"schedule {g.p_set:.6f}"
            )

    return OperatingPoint(
        v=sol.v.copy(),
        sg_delta=sg_delta,
        sg_e=sg_e,
        sg_p_eff=sg_p_eff,
        gfm_delta=gfm_delta,
        gfm_e=gfm_e,
        gfm_ve=np.zeros(n_gfm),
        gfm_p_eff=gfm_p_eff,
        gfm_vs_eff=gfm_vs_eff,
    )
