"""Small-signal models around a solved operating point.

Two linearization variants share one residual formulation:

  * "dispatch": loads become constant admittances (P - jQ)/|V0|^2 at the
    solved voltages and the model is evaluated exactly at the dispatch
    point, where every residual is zero. Used for the full state matrix
    and mode shapes.
  * "reactive": every conductance is dropped (branch r, shunt_g, the real
    part of converted loads) so the algebraic network is purely
    susceptive, and bus voltages are re-anchored by one linear current
    balance driven by the machine internal sources. This is the classical
    electromechanical reduction; on it the angle Laplacian is exactly
    symmetric and matches the closed form over the reduced susceptance
    network. Used for coherency.

Voltage unknowns are rectangular, stacked [Re(V); Im(V)], so algebraic
blocks are 2N wide. Machine rows are ordered SGs first, then GFMs.
GFM buses swap their power-balance rows for the two components of the
voltage-source constraint V = E exp(j delta).
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import PipelineError
from .machines import MachineSet
from .network import Network, build_admittance
from .powerflow import OperatingPoint

EQUILIBRIUM_TOL = 1e-6
COND_WARN_LIMIT = 1e12
COND_PROBES = 4


@dataclass
class LinearModel:
    variant: str
    net: Network
    machines: MachineSet
    y_model: np.ndarray
    v_point: np.ndarray
    sg_idx: np.ndarray
    gfm_idx: np.ndarray
    sg_e: np.ndarray
    sg_delta: np.ndarray
    sg_gp: np.ndarray  # 1/xd'
    sg_p_eff: np.ndarray
    gfm_e: np.ndarray
    gfm_delta: np.ndarray
    gfm_p_eff: np.ndarray

    @property
    def n_bus(self) -> int:
        return self.net.n_bus

    @property
    def n_sg(self) -> int:
        return self.sg_idx.size

    @property
    def n_gfm(self) -> int:
        return self.gfm_idx.size


def _load_admittances(net: Network, v0: np.ndarray, lossless: bool) -> np.ndarray:
    vm2 = np.abs(v0) ** 2
    y = np.zeros(net.n_bus, dtype=complex)
    for i, b in enumerate(net.buses):
        yl = complex(b.load_p, -b.load_q) / vm2[i]
        y[i] = 1j * yl.imag if lossless else yl
    return y


def build_linear_model(
    net: Network,
    machines: MachineSet,
    op: OperatingPoint,
    lossless: bool,
) -> LinearModel:
    """Fold loads into the admittance matrix and pick the evaluation point."""
    sg_idx = np.array([net.index_of[m.bus] for m in machines.sgs], dtype=int)
    gfm_idx = np.array([net.index_of[m.bus] for m in machines.gfms], dtype=int)
    sg_gp = np.array([1.0 / m.xd_prime for m in machines.sgs])

    y = build_admittance(net, lossless=lossless)
    y[np.diag_indices_from(y)] += _load_admittances(net, op.v, lossless)
    if lossless:
        y = 1j * y.imag
        v_point = _anchor_voltages(y, sg_idx, gfm_idx, sg_gp, op)
    else:
        v_point = op.v.copy()

    return LinearModel(
        variant="reactive" if lossless else "dispatch",
        net=net,
        machines=machines,
        y_model=y,
        v_point=v_point,
        sg_idx=sg_idx,
        gfm_idx=gfm_idx,
        sg_e=op.sg_e.copy(),
        sg_delta=op.sg_delta.copy(),
        sg_gp=sg_gp,
        sg_p_eff=op.sg_p_eff.copy(),
        gfm_e=op.gfm_e.copy(),
        gfm_delta=op.gfm_delta.copy(),
        gfm_p_eff=op.gfm_p_eff.copy(),
    )


def _anchor_voltages(
    y_model: np.ndarray,
    sg_idx: np.ndarray,
    gfm_idx: np.ndarray,
    sg_gp: np.ndarray,
    op: OperatingPoint,
) -> np.ndarray:
    """Solve the linear current balance of the susceptance network given the
    machine internal sources, so the evaluation point sits exactly on the
    reduced model's manifold."""
    n = y_model.shape[0]
    a = y_model.copy()
    rhs = np.zeros(n, dtype=complex)
    u_sg = op.sg_e * np.exp(1j * op.sg_delta)
    for i, k in enumerate(sg_idx):
        yg = -1j * sg_gp[i]
        a[k, k] += yg
        rhs[k] += yg * u_sg[i]
    u_gfm = op.gfm_e * np.exp(1j * op.gfm_delta)
    for j, k in enumerate(gfm_idx):
        a[k, :] = 0.0
        a[k, k] = 1.0
        rhs[k] = u_gfm[j]
    try:
        return np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError:
        raise PipelineError("voltage anchoring system is singular") from None


# ---------------------------------------------------------------------------
# residuals (shared by equilibrium checks and finite-difference tests)

def algebraic_residual(
    model: LinearModel,
    sg_delta: np.ndarray,
    gfm_delta: np.ndarray,
    gfm_e: np.ndarray,
    v_rect: np.ndarray,
) -> np.ndarray:
    """Stacked [P rows; Q rows]; GFM buses carry constraint rows instead."""
    n = model.n_bus
    v = v_rect[:n] + 1j * v_rect[n:]
    i_mach = np.zeros(n, dtype=complex)
    u_sg = model.sg_e * np.exp(1j * sg_delta)
    for i, k in enumerate(model.sg_idx):
        i_mach[k] += -1j * model.sg_gp[i] * (u_sg[i] - v[k])
    s = v * np.conj(i_mach - model.y_model @ v)
    res_p = s.real
    res_q = s.imag
    for j, k in enumerate(model.gfm_idx):
        res_p[k] = v[k].real - gfm_e[j] * np.cos(gfm_delta[j])
        res_q[k] = v[k].imag - gfm_e[j] * np.sin(gfm_delta[j])
    return np.concatenate([res_p, res_q])


def frequency_residual(
    model: LinearModel,
    sg_delta: np.ndarray,
    gfm_delta: np.ndarray,
    gfm_e: np.ndarray,
    v_rect: np.ndarray,
) -> np.ndarray:
    """Power imbalance driving each machine's frequency state, at nominal
    frequency. SG rows feel the air-gap power, GFM rows the terminal
    injection measured into the network model."""
    n = model.n_bus
    v = v_rect[:n] + 1j * v_rect[n:]
    out = np.zeros(model.n_sg + model.n_gfm)
    vk = v[model.sg_idx]
    p_gap = model.sg_gp * model.sg_e * (
        vk.real * np.sin(sg_delta) - vk.imag * np.cos(sg_delta)
    )
    out[: model.n_sg] = model.sg_p_eff - p_gap
    if model.n_gfm:
        i_net = model.y_model @ v
        p_term = (v * np.conj(i_net)).real[model.gfm_idx]
        out[model.n_sg :] = model.gfm_p_eff - p_term
    return out


def point_state(model: LinearModel) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    v_rect = np.concatenate([model.v_point.real, model.v_point.imag])
    return model.sg_delta.copy(), model.gfm_delta.copy(), model.gfm_e.copy(), v_rect


# ---------------------------------------------------------------------------
# equilibrium verification

@dataclass
class EquilibriumReport:
    max_residual: float
    families: dict[str, float]


def check_equilibrium(model: LinearModel, op: OperatingPoint) -> EquilibriumReport:
    """Max absolute state-derivative and algebraic residual of the dispatch
    model at the operating point; above EQUILIBRIUM_TOL the point is not a
    solution, any Jacobian taken there is meaningless, and PipelineError
    is raised."""
    net, machines, n = model.net, model.machines, model.n_bus
    ds, df, ef, v_rect = point_state(model)
    freq = frequency_residual(model, ds, df, ef, v_rect)
    alg = algebraic_residual(model, ds, df, ef, v_rect)

    fam: dict[str, float] = {}
    # angle equations are omega - omega0 = 0 exactly at init
    fam["sg_delta"] = 0.0
    fam["gfm_delta"] = 0.0
    sg_m = np.array([m.m for m in machines.sgs])
    fam["sg_omega"] = float(np.max(np.abs(freq[: model.n_sg] / sg_m))) if model.n_sg else 0.0

    if model.n_gfm:
        taus = np.array([g.tau for g in machines.gfms])
        lam_int = np.array([g.lambda_p_internal(net.omega0) for g in machines.gfms])
        fam["gfm_omega"] = float(np.max(np.abs(lam_int * freq[model.n_sg :] / taus)))
        # voltage loop: vs_eff was constructed to zero this at the point
        v = v_rect[:n] + 1j * v_rect[n:]
        q_term = (v * np.conj(model.y_model @ v)).imag[model.gfm_idx]
        lam_q = np.array([g.lambda_q for g in machines.gfms])
        q_set = np.array([g.q_set for g in machines.gfms])
        ve_dot = (op.gfm_vs_eff - op.gfm_ve - np.abs(v[model.gfm_idx])
                  + lam_q * (q_set - q_term)) / taus
        kpv = np.array([g.kpv for g in machines.gfms])
        kiv = np.array([g.kiv for g in machines.gfms])
        fam["gfm_ve"] = float(np.max(np.abs(ve_dot)))
        fam["gfm_e"] = float(np.max(np.abs(kpv * ve_dot + kiv * op.gfm_ve)))
    else:
        fam["gfm_omega"] = fam["gfm_ve"] = fam["gfm_e"] = 0.0

    fam["alg_p"] = float(np.max(np.abs(alg[:n])))
    fam["alg_q"] = float(np.max(np.abs(alg[n:])))
    eq = EquilibriumReport(max_residual=max(fam.values()), families=fam)
    if eq.max_residual > EQUILIBRIUM_TOL:
        raise PipelineError(
            f"operating point is not an equilibrium (max residual "
            f"{eq.max_residual:.3e} > {EQUILIBRIUM_TOL:.1e}); families: {eq.families}"
        )
    return eq


# ---------------------------------------------------------------------------
# analytic Jacobian blocks

@dataclass
class JacobianBlocks:
    model: LinearModel
    machine_order: list[int]
    a11: np.ndarray
    a12: np.ndarray
    a21: np.ndarray
    a22: np.ndarray
    a23: np.ndarray
    a31: np.ndarray
    a32: np.ndarray
    a33: np.ndarray
    a34: np.ndarray
    m_e: np.ndarray  # diagonal entries
    net_power_jac: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] = field(repr=False, default=None)

    @property
    def a1(self) -> np.ndarray:
        n_sg, n_gfm = self.a11.shape[0], self.a21.shape[0]
        out = np.zeros((n_sg + n_gfm, n_sg + n_gfm))
        out[:n_sg, :n_sg] = self.a11
        out[n_sg:, n_sg:] = self.a21
        return out

    @property
    def a2(self) -> np.ndarray:
        return np.vstack([self.a12, self.a22])

    @property
    def a3(self) -> np.ndarray:
        return np.hstack([self.a31, self.a32])

    @property
    def a4(self) -> np.ndarray:
        n_sg = self.a11.shape[0]
        return np.vstack([np.zeros((n_sg, self.a23.shape[1])), self.a23])


def _network_power_jacobian(model: LinearModel):
    """d(P,Q)/d(Re V, Im V) of the quadratic network injections, N x N each."""
    v = model.v_point
    p, q = v.real, v.imag
    g, b = model.y_model.real, model.y_model.imag
    i0 = model.y_model @ v
    ar, bi = i0.real, i0.imag
    dp_dp = p[:, None] * g + q[:, None] * b + np.diag(ar)
    dp_dq = -p[:, None] * b + q[:, None] * g + np.diag(bi)
    dq_dp = q[:, None] * g - p[:, None] * b - np.diag(bi)
    dq_dq = -q[:, None] * b - p[:, None] * g + np.diag(ar)
    return dp_dp, dp_dq, dq_dp, dq_dq


def build_jacobians(model: LinearModel) -> JacobianBlocks:
    """All small-signal blocks of one model at its evaluation point; only
    assembly, check_equilibrium on the dispatch model is the gate."""
    machines = model.machines
    n = model.n_bus
    n_sg, n_gfm = model.n_sg, model.n_gfm
    v = model.v_point
    p, q = v.real, v.imag

    dp_dp, dp_dq, dq_dp, dq_dq = _network_power_jacobian(model)

    # residual rows are injections minus network flows
    rp_dp, rp_dq = -dp_dp, -dp_dq
    rq_dp, rq_dq = -dq_dp, -dq_dq

    a11 = np.zeros((n_sg, n_sg))
    a12 = np.zeros((n_sg, 2 * n))
    a31 = np.zeros((2 * n, n_sg))
    sin_d, cos_d = np.sin(model.sg_delta), np.cos(model.sg_delta)
    for i, k in enumerate(model.sg_idx):
        gp, e = model.sg_gp[i], model.sg_e[i]
        sd, cd = sin_d[i], cos_d[i]
        # air-gap power P = gp*e*(p sin - q cos) drives the SG frequency row
        dpg_dd = gp * e * (p[k] * cd + q[k] * sd)
        a11[i, i] = -dpg_dd
        a12[i, k] = -gp * e * sd
        a12[i, n + k] = gp * e * cd
        # bus-side machine injection enters the balance rows at its bus
        rp_dp[k, k] += gp * e * sd
        rp_dq[k, k] += -gp * e * cd
        rq_dp[k, k] += gp * e * cd - 2.0 * gp * p[k]
        rq_dq[k, k] += gp * e * sd - 2.0 * gp * q[k]
        a31[k, i] = dpg_dd
        a31[n + k, i] = gp * e * (q[k] * cd - p[k] * sd)

    a21 = np.zeros((n_gfm, n_gfm))
    a23 = np.zeros((n_gfm, n_gfm))
    a22 = np.zeros((n_gfm, 2 * n))
    a32 = np.zeros((2 * n, n_gfm))
    a34 = np.zeros((2 * n, n_gfm))
    for j, k in enumerate(model.gfm_idx):
        e = model.gfm_e[j]
        sd, cd = np.sin(model.gfm_delta[j]), np.cos(model.gfm_delta[j])
        a22[j, :n] = -dp_dp[k, :]
        a22[j, n:] = -dp_dq[k, :]
        # constraint rows V - E exp(j delta) replace the bus balance
        rp_dp[k, :] = 0.0
        rp_dq[k, :] = 0.0
        rq_dp[k, :] = 0.0
        rq_dq[k, :] = 0.0
        rp_dp[k, k] = 1.0
        rq_dq[k, k] = 1.0
        a32[k, j] = e * sd
        a32[n + k, j] = -e * cd
        a34[k, j] = -cd
        a34[n + k, j] = -sd

    a33 = np.block([[rp_dp, rp_dq], [rq_dp, rq_dq]])

    omega0 = model.net.omega0
    m_e = np.array(
        [m.m for m in machines.sgs] + [g.m_equivalent(omega0) for g in machines.gfms]
    )

    return JacobianBlocks(
        model=model,
        machine_order=[m.bus for m in machines.sgs] + [g.bus for g in machines.gfms],
        a11=a11,
        a12=a12,
        a21=a21,
        a22=a22,
        a23=a23,
        a31=a31,
        a32=a32,
        a33=a33,
        a34=a34,
        m_e=m_e,
        net_power_jac=(dp_dp, dp_dq, dq_dp, dq_dq),
    )


# ---------------------------------------------------------------------------
# reduction to machine coordinates

@dataclass
class LaplacianPair:
    l: np.ndarray
    l_bar: np.ndarray
    m_e: np.ndarray  # diagonal entries
    machine_order: list[int]
    feedthrough_e: np.ndarray
    variant: str
    l0_bar: np.ndarray | None = None  # base-case reference, attached by scenarios


def _eliminate(blocks: JacobianBlocks) -> np.ndarray:
    """X = A33^{-1} [A3, A34]: the one solve that removes the algebraic
    voltages.

    COND_PROBES fixed-seed probe columns p_j ride along in the same solve,
    so ||A33||_1 max_j ||A33^{-1} p_j||_1 / ||p_j||_1, a lower bound on
    cond_1(A33) (Dixon 1983), costs O(N^2) on top of the factorization.
    """
    a33 = blocks.a33
    n_rhs = blocks.a3.shape[1] + blocks.a34.shape[1]
    probes = np.random.default_rng(0).standard_normal((a33.shape[0], COND_PROBES))
    try:
        x = np.linalg.solve(a33, np.hstack([blocks.a3, blocks.a34, probes]))
    except np.linalg.LinAlgError:
        raise PipelineError("algebraic block is singular; cannot reduce") from None
    growth = np.abs(x[:, n_rhs:]).sum(axis=0) / np.abs(probes).sum(axis=0)
    cond = float(np.abs(a33).sum(axis=0).max() * growth.max())
    if not cond <= COND_WARN_LIMIT:  # also catches a NaN estimate
        warnings.warn(
            f"algebraic block is near singular (cond {cond:.3e}); "
            "reduction may be inaccurate",
            RuntimeWarning,
            stacklevel=3,
        )
    return x[:, :n_rhs].copy()  # contiguous, as a solve without probes returns


def kron_reduce(blocks: JacobianBlocks) -> LaplacianPair:
    """Eliminate the algebraic voltage variables.

    L = A1 - A2 A33^{-1} A3 couples machine angles; the E-feedthrough
    A4 - A2 A33^{-1} A34 is reported alongside but holds no angle dynamics.
    """
    n_r = blocks.a3.shape[1]
    x = _eliminate(blocks)
    l = blocks.a1 - blocks.a2 @ x[:, :n_r]
    feed = blocks.a4 - blocks.a2 @ x[:, n_r:]
    l_bar = l / blocks.m_e[:, None]
    return LaplacianPair(
        l=l,
        l_bar=l_bar,
        m_e=blocks.m_e.copy(),
        machine_order=list(blocks.machine_order),
        feedthrough_e=feed,
        variant=blocks.model.variant,
    )


def reduced_susceptance(net: Network, machines: MachineSet, op: OperatingPoint) -> np.ndarray:
    """Susceptance matrix of the reactive network reduced onto the machine
    source nodes (SG internal nodes, GFM buses), machine order."""
    model = build_linear_model(net, machines, op, lossless=True)
    n = model.n_bus
    n_sg = model.n_sg
    b_full = np.zeros((n + n_sg, n + n_sg))
    b_full[:n, :n] = model.y_model.imag
    for i, k in enumerate(model.sg_idx):
        bg = -model.sg_gp[i]
        b_full[n + i, n + i] += bg
        b_full[k, k] += bg
        b_full[n + i, k] -= bg
        b_full[k, n + i] -= bg
    source = np.concatenate([np.arange(n, n + n_sg), model.gfm_idx]).astype(int)
    keep = np.setdiff1d(np.arange(n + n_sg), source)
    bff = b_full[np.ix_(source, source)]
    bfr = b_full[np.ix_(source, keep)]
    brr = b_full[np.ix_(keep, keep)]
    try:
        return bff - bfr @ np.linalg.solve(brr, bfr.T)
    except np.linalg.LinAlgError:
        raise PipelineError("interior susceptance block is singular") from None


def laplacian_closed_form(
    machines: MachineSet,
    op: OperatingPoint,
    kron_b: np.ndarray,
) -> np.ndarray:
    """Angle Laplacian over the reduced susceptance network:
    L_ij = E_i E_j B_ij cos(delta_i - delta_j) off the diagonal, rows sum
    to zero."""
    e = np.concatenate([op.sg_e, op.gfm_e])
    d = np.concatenate([op.sg_delta, op.gfm_delta])
    l = (e[:, None] * e[None, :]) * kron_b * np.cos(d[:, None] - d[None, :])
    np.fill_diagonal(l, 0.0)
    np.fill_diagonal(l, -l.sum(axis=1))
    return l


@dataclass
class RowSumStats:
    mean: float
    std: float
    max: float
    runtime_s: float


def row_sum_check(l: np.ndarray) -> RowSumStats:
    """Statistics of |L 1|; exact zero row sums are the conservation law
    the reduction must preserve."""
    t0 = time.perf_counter()
    r = np.abs(l @ np.ones(l.shape[0]))
    stats = RowSumStats(
        mean=float(np.mean(r)),
        std=float(np.std(r)),
        max=float(np.max(r)),
        runtime_s=time.perf_counter() - t0,
    )
    return stats


def symmetry_gap(l: np.ndarray) -> float:
    denom = float(np.max(np.abs(l)))
    if denom == 0.0:
        return 0.0
    return float(np.max(np.abs(l - l.T)) / denom)


# ---------------------------------------------------------------------------
# full state matrix (dispatch variant)

@dataclass
class StateSpace:
    a: np.ndarray
    state_names: list[str]
    machine_order: list[int]
    omega_rows: np.ndarray  # indices of frequency states, machine order


def state_matrix(blocks: JacobianBlocks) -> StateSpace:
    """Assemble d/dt [delta, omega, ve, e_f] from the dispatch-model blocks.

    The algebraic voltages are eliminated through the same solve that
    produces the Laplacian, so the angle block of this matrix is
    M_e^{-1} L with the dispatch-variant L.
    """
    model = blocks.model
    machines = model.machines
    n = model.n_bus
    n_sg, n_gfm = model.n_sg, model.n_gfm
    n_r = n_sg + n_gfm

    t = -_eliminate(blocks)
    t3, t4 = t[:, :n_r], t[:, n_r:]
    l = blocks.a1 + blocks.a2 @ t3
    feed = blocks.a4 + blocks.a2 @ t4

    omega0 = model.net.omega0
    nx = 2 * n_r + 2 * n_gfm
    a = np.zeros((nx, nx))
    sl_d = slice(0, n_r)
    sl_w = slice(n_r, 2 * n_r)
    sl_e = slice(2 * n_r + n_gfm, nx)

    a[sl_d, sl_w] = np.eye(n_r)
    a[sl_w, sl_d] = l / blocks.m_e[:, None]
    if n_gfm:
        a[sl_w, sl_e] = feed / blocks.m_e[:, None]
    w_damp = np.zeros(n_r)
    for i, m in enumerate(machines.sgs):
        w_damp[i] = -m.d_internal(omega0) / m.m
    for j, g in enumerate(machines.gfms):
        w_damp[n_sg + j] = -1.0 / g.tau
    a[sl_w, sl_w] = np.diag(w_damp)

    if n_gfm:
        dp_dp, dp_dq, dq_dp, dq_dq = blocks.net_power_jac
        v = model.v_point
        p, q = v.real, v.imag
        for j, g in enumerate(machines.gfms):
            k = model.gfm_idx[j]
            vm = np.abs(v[k])
            h_vm = np.zeros(2 * n)
            h_vm[k] = p[k] / vm
            h_vm[n + k] = q[k] / vm
            q_row = np.concatenate([dq_dp[k, :], dq_dq[k, :]])
            row_v = -(h_vm + g.lambda_q * q_row) / g.tau
            ve_row_d = row_v @ t3
            ve_row_e = row_v @ t4
            r = 2 * n_r + j
            a[r, sl_d] = ve_row_d
            a[r, sl_e] += ve_row_e
            a[r, r] += -1.0 / g.tau
            re = 2 * n_r + n_gfm + j
            a[re, sl_d] = g.kpv * ve_row_d
            a[re, sl_e] += g.kpv * ve_row_e
            a[re, r] += g.kpv * (-1.0 / g.tau) + g.kiv

    names = (
        [f"delta:{b}" for b in blocks.machine_order]
        + [f"omega:{b}" for b in blocks.machine_order]
        + [f"ve:{g.bus}" for g in machines.gfms]
        + [f"e:{g.bus}" for g in machines.gfms]
    )
    return StateSpace(
        a=a,
        state_names=names,
        machine_order=list(blocks.machine_order),
        omega_rows=np.arange(n_r, 2 * n_r),
    )
