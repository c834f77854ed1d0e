"""Newton power flow in polar coordinates and dynamic-state initialization.

Machine reactances stay out of the steady-state network: generators appear
as scheduled injections at pv buses and the slack absorbs the balance.
Loads are constant-PQ here; linearization converts them to admittances at
the solved voltages.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, ValidationError, check
from .machines import MachineSet, validate_against_network
from .network import Network, _pattern, build_admittance, connectivity_check

# largest gap between a non-slack machine's solved output and its schedule
SCHEDULE_TOL = 1e-6


@dataclass(frozen=True)
class PowerFlowOptions:
    tol: float = 1e-8
    max_iter: int = 30

    def __post_init__(self) -> None:
        check(self, lambda: [(self.max_iter >= 0 and self.tol > 0,  # also refuses a NaN tol
                              "max_iter must be nonnegative and tol positive")])


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
    np.add.at(p, net.rows(machines.machine_buses), [m.p_set for m in machines.fleet])
    return p, q


def _newton_jacobian(ybus: np.ndarray, pvpq: np.ndarray, pq: np.ndarray):
    """J(v, vm, ibus) = [[dP/dθ, dP/d|V|], [dQ/dθ, dQ/d|V|]] over the unknowns
    θ at pvpq and |V| at pq. dS/dθ = j V conj(diag(I) - Y diag(V)) and
    dS/d|V| = V conj(Y diag(V/|V|)) + diag(conj(I) V/|V|) are evaluated, in
    that expression order, only on the pattern of Y; all else is zero."""
    rows, cols = _pattern(ybus)
    y = ybus[rows, cols]
    diag = rows == cols  # one entry per row, rows ascending
    n, m = ybus.shape[0], pvpq.size + pq.size
    pos = np.full(2 * n, -1)  # Jacobian row of [P; Q] and column of [θ; |V|]
    pos[np.concatenate([pvpq, n + pq])] = np.arange(m)
    r = pos[np.concatenate([rows, rows, n + rows, n + rows])]
    c = pos[np.concatenate([cols, n + cols, cols, n + cols])]
    on = (r >= 0) & (c >= 0)
    at = r[on] * m + c[on]

    def jacobian(v: np.ndarray, vm: np.ndarray, ibus: np.ndarray) -> np.ndarray:
        dv_norm = v / vm
        d_i = np.zeros(rows.size, dtype=complex)
        d_i[diag] = ibus
        ds_dva = 1j * (v[rows] * np.conj(d_i - y * v[cols]))
        d_i[diag] = np.conj(ibus) * dv_norm
        ds_dvm = v[rows] * np.conj(y * dv_norm[cols]) + d_i
        jac = np.zeros((m, m))
        jac.flat[at] = np.concatenate([ds_dva.real, ds_dvm.real, ds_dva.imag, ds_dvm.imag])[on]
        return jac

    return jacobian


def solve_power_flow(
    net: Network,
    machines: MachineSet,
    opts: PowerFlowOptions = PowerFlowOptions(),
) -> PowerFlowSolution:
    """Full Newton power flow from a flat start. Raises ConvergenceError
    with the residual history when the iteration stalls, overflows or
    meets an invalid operation, or its Jacobian goes singular."""
    validate_against_network(machines, net)
    comps = connectivity_check(net)
    if len(comps) > 1:
        raise ValidationError(
            f"network is split into {len(comps)} islands; largest starts at bus {comps[0][0]}"
        )

    ybus = build_admittance(net)
    kinds = np.array([b.kind for b in net.buses])
    pq = np.flatnonzero(kinds == "pq")
    pvpq = np.flatnonzero(kinds != "slack")

    vm = np.array([1.0 if b.v_setpoint is None else b.v_setpoint for b in net.buses], dtype=float)
    va = np.zeros(net.n_bus)

    p_spec, q_spec = _scheduled_injections(net, machines)
    s_spec = p_spec + 1j * q_spec
    newton_jac = _newton_jacobian(ybus, pvpq, pq)

    history: list[float] = []

    def diverged(kind: str, _flag: int) -> None:
        raise ConvergenceError(f"power flow diverged: {kind} at iteration {len(history)}", history)

    # an overflow or an invalid operation ends the iteration as a typed error
    with np.errstate(over="call", invalid="call", call=diverged):
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

            jac = newton_jac(v, vm, ibus)
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

    delta, e and p_eff follow the fleet order (SGs, then GFMs), the row
    order of the Laplacian and the state matrix. Effective set-points
    absorb whatever the dispatch decided (slack power, reactive support) so
    that every dynamic equation evaluates to zero here.
    """

    v: np.ndarray  # complex bus voltages at the linearization point
    delta: np.ndarray  # SG rotor or GFM voltage angle
    e: np.ndarray  # SG internal EMF or GFM voltage magnitude
    p_eff: np.ndarray  # solved active output
    gfm_vs_eff: np.ndarray


def init_dynamic_states(
    net: Network,
    machines: MachineSet,
    sol: PowerFlowSolution,
) -> OperatingPoint:
    """Back out machine internal states from the solved terminal conditions.

    SG: E∠δ = V + j x'd I with I the generator current. GFM: the unit
    forms its bus voltage, so E∠δ = V, integrator state zero, and the
    voltage reference is shifted to make the droop residual vanish exactly.
    Every machine's solved output must match its schedule; the slack takes
    the solved value.
    """
    buses, n_sg = machines.machine_buses, len(machines.sgs)
    k = net.rows(buses)
    vk = sol.v[k]
    p_gen = sol.p_inj[k] + np.array([net.buses[i].load_p for i in k])
    q_gen = sol.q_inj[k] + np.array([net.buses[i].load_q for i in k])
    p_set = np.array([m.p_set for m in machines.fleet])
    off = (np.array(buses) != net.slack_id()) & (np.abs(p_gen - p_set) > SCHEDULE_TOL)
    if off.any():
        i = int(np.argmax(off))
        raise ValidationError(
            f"{'sg' if i < n_sg else 'gfm'} at bus {buses[i]}: solved output "
            f"{p_gen[i]:.6f} differs from schedule {p_set[i]:.6f}"
        )

    u = vk.copy()
    i_sg = np.conj((p_gen[:n_sg] + 1j * q_gen[:n_sg]) / vk[:n_sg])
    u[:n_sg] += 1j * np.array([m.xd_prime for m in machines.sgs]) * i_sg
    e = np.abs(u)
    lam_q, q_set = machines.gfm_arrays("lambda_q", "q_set")
    return OperatingPoint(
        v=sol.v.copy(),
        delta=np.angle(u),
        e=e,
        p_eff=p_gen,
        gfm_vs_eff=e[n_sg:] - lam_q * (q_set - q_gen[n_sg:]),
    )
