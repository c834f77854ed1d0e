"""Small-signal models around a solved operating point.

Two models, machine rows ordered SGs first, then GFMs:

  * the dispatch model: loads become constant admittances (P - jQ)/|V0|^2
    at the solved voltages and the model is evaluated exactly at the
    dispatch point, where every residual is zero. Its residuals, which the
    equilibrium gate reads, take rectangular bus voltages, and GFM buses
    swap their power-balance rows for the voltage-source constraint
    V = E exp(j delta). The state matrix is built in closed form: the
    network, loads included, is Kron-reduced onto the machine sources by
    one complex elimination, and each block is a derivative of the power
    S = W conj(Y_red W) that the sources W = E exp(j delta) deliver. Used
    for mode shapes.
  * the reactive Laplacian, in closed form: every conductance is dropped
    (branch r, shunt_g, the real part of converted loads), the purely
    susceptive network is Kron-reduced onto the machine sources by one
    real elimination, and L_ij = E_i E_j B_ij cos(delta_i - delta_j).
    This is the classical electromechanical reduction; L is symmetric and
    its rows sum to zero. Used for coherency.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

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
    net: Network
    machines: MachineSet
    op: OperatingPoint
    y_model: np.ndarray
    v_point: np.ndarray
    sg_idx: np.ndarray
    gfm_idx: np.ndarray
    sg_gp: np.ndarray  # 1/xd'

    @property
    def n_bus(self) -> int:
        return self.net.n_bus

    @property
    def n_sg(self) -> int:
        return self.sg_idx.size

    @property
    def n_gfm(self) -> int:
        return self.gfm_idx.size


def _load_admittances(net: Network, v0: np.ndarray) -> np.ndarray:
    vm2 = np.abs(v0) ** 2
    y = np.zeros(net.n_bus, dtype=complex)
    for i, b in enumerate(net.buses):
        y[i] = complex(b.load_p, -b.load_q) / vm2[i]
    return y


def build_linear_model(net: Network, machines: MachineSet, op: OperatingPoint) -> LinearModel:
    """The dispatch model: loads folded into the admittance matrix, evaluated
    at the solved voltages."""
    sg_idx, gfm_idx = np.split(net.rows(machines.machine_buses), [len(machines.sgs)])
    y = build_admittance(net)
    y[np.diag_indices_from(y)] += _load_admittances(net, op.v)
    return LinearModel(
        net=net,
        machines=machines,
        op=op,
        y_model=y,
        v_point=op.v.copy(),
        sg_idx=sg_idx,
        gfm_idx=gfm_idx,
        sg_gp=np.array([1.0 / m.xd_prime for m in machines.sgs]),
    )


# ---------------------------------------------------------------------------
# residuals (shared by equilibrium checks and finite-difference tests)

def algebraic_residual(
    model: LinearModel, delta: np.ndarray, gfm_e: np.ndarray, v_rect: np.ndarray
) -> np.ndarray:
    """Stacked [P rows; Q rows]; GFM buses carry constraint rows instead.
    delta holds every machine angle in fleet order."""
    n, n_sg, sg, gfm = model.n_bus, model.n_sg, model.sg_idx, model.gfm_idx
    v = v_rect[:n] + 1j * v_rect[n:]
    i_mach = np.zeros(n, dtype=complex)
    u_sg = model.op.e[:n_sg] * np.exp(1j * delta[:n_sg])
    i_mach[sg] += -1j * model.sg_gp * (u_sg - v[sg])
    s = v * np.conj(i_mach - model.y_model @ v)
    res_p, res_q = s.real, s.imag
    res_p[gfm] = v[gfm].real - gfm_e * np.cos(delta[n_sg:])
    res_q[gfm] = v[gfm].imag - gfm_e * np.sin(delta[n_sg:])
    return np.concatenate([res_p, res_q])


def frequency_residual(
    model: LinearModel, delta: np.ndarray, gfm_e: np.ndarray, v_rect: np.ndarray
) -> np.ndarray:
    """Power imbalance driving each machine's frequency state, at nominal
    frequency, in fleet order. SG rows feel the air-gap power, GFM rows the
    terminal injection measured into the network model; neither depends on
    gfm_e, which is taken only to share the signature of algebraic_residual."""
    n, n_sg = model.n_bus, model.n_sg
    v = v_rect[:n] + 1j * v_rect[n:]
    vk, d_sg = v[model.sg_idx], delta[:n_sg]
    p_out = np.zeros(n_sg + model.n_gfm)
    p_out[:n_sg] = model.sg_gp * model.op.e[:n_sg] * (
        vk.real * np.sin(d_sg) - vk.imag * np.cos(d_sg)
    )
    if model.n_gfm:
        p_out[n_sg:] = (v * np.conj(model.y_model @ v)).real[model.gfm_idx]
    return model.op.p_eff - p_out


def point_state(model: LinearModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(delta, gfm_e, v_rect) at the model's evaluation point."""
    v_rect = np.concatenate([model.v_point.real, model.v_point.imag])
    return model.op.delta.copy(), model.op.e[model.n_sg :].copy(), v_rect


# ---------------------------------------------------------------------------
# equilibrium verification

@dataclass
class EquilibriumReport:
    max_residual: float
    families: dict[str, float]


def check_equilibrium(model: LinearModel) -> EquilibriumReport:
    """Max absolute state-derivative and algebraic residual of the dispatch
    model at its operating point; above EQUILIBRIUM_TOL the point is not a
    solution, any Jacobian taken there is meaningless, and PipelineError
    is raised."""
    net, machines, op, n = model.net, model.machines, model.op, model.n_bus
    delta, gfm_e, v_rect = point_state(model)
    freq = frequency_residual(model, delta, gfm_e, v_rect)
    alg = algebraic_residual(model, delta, gfm_e, v_rect)

    fam: dict[str, float] = {}  # angle rows, omega - omega0, are 0 at init by construction
    sg_m = np.array([m.m for m in machines.sgs])
    fam["sg_omega"] = float(np.max(np.abs(freq[: model.n_sg] / sg_m))) if model.n_sg else 0.0

    if model.n_gfm:
        taus, lam_q, q_set, kpv = machines.gfm_arrays("tau", "lambda_q", "q_set", "kpv")
        lam_int = np.array([g.lambda_p_internal(net.omega0) for g in machines.gfms])
        fam["gfm_omega"] = float(np.max(np.abs(lam_int * freq[model.n_sg :] / taus)))
        # voltage loop: vs_eff was constructed to zero this at the point
        v = v_rect[:n] + 1j * v_rect[n:]
        q_term = (v * np.conj(model.y_model @ v)).imag[model.gfm_idx]
        ve_dot = (op.gfm_vs_eff - np.abs(v[model.gfm_idx]) + lam_q * (q_set - q_term)) / taus
        fam["gfm_ve"] = float(np.max(np.abs(ve_dot)))
        fam["gfm_e"] = float(np.max(np.abs(kpv * ve_dot)))
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


def _equivalent_masses(machines: MachineSet, omega0: float) -> np.ndarray:
    """Each machine's swing mass in fleet order: an SG's m, a GFM's droop-loop equivalent."""
    return np.array([m.m for m in machines.sgs] + [g.m_equivalent(omega0) for g in machines.gfms])


# ---------------------------------------------------------------------------
# reduction to machine coordinates

@dataclass(frozen=True)
class LaplacianPair:
    """Row i is machine i of the fleet (SGs, then GFMs), or slot i in a
    pipeline case."""

    l: np.ndarray
    m_e: np.ndarray  # diagonal entries
    feedthrough_e: np.ndarray

    @property
    def l_bar(self) -> np.ndarray:
        """M_e^{-1} L, the Laplacian per unit of equivalent mass."""
        return self.l / self.m_e[:, None]


def _solve_probed(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """A^{-1} rhs without its last COND_PROBES columns.

    Those are fixed-seed probe columns p_j that ride along in the same
    solve, so ||A||_1 max_j ||A^{-1} p_j||_1 / ||p_j||_1, a lower bound on
    cond_1(A) (Dixon 1983), costs O(N^2) on top of the factorization.
    """
    try:
        x = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError:
        raise PipelineError("algebraic block is singular; cannot reduce") from None
    n_rhs = rhs.shape[1] - COND_PROBES
    growth = np.abs(x[:, n_rhs:]).sum(axis=0) / np.abs(rhs[:, n_rhs:]).sum(axis=0)
    cond = float(np.abs(a).sum(axis=0).max() * growth.max())
    if not cond <= COND_WARN_LIMIT:  # also catches a NaN estimate
        warnings.warn(
            f"algebraic block is near singular (cond {cond:.3e}); "
            "reduction may be inaccurate",
            RuntimeWarning,
            stacklevel=3,
        )
    return x[:, :n_rhs]  # the probe columns dropped


def _reduce_onto_sources(
    y: np.ndarray, sg_bus: np.ndarray, gfm_bus: np.ndarray, y_sg: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One probed solve that eliminates every bus without a GFM from the
    network y (real or complex, left unchanged) with the machine sources
    attached: each SG's internal node tied to its bus by the branch
    admittance y_sg, and the GFM buses.

    Returns (k_sg, Y_ks, X = Y_kk^{-1} Y_ks): Y_kk is y over the
    eliminated buses, gathered without copying y, with y_sg added on each
    SG bus's diagonal; the columns of Y_ks tie those buses to each source,
    SGs then GFMs; k_sg is the row of each SG's bus among them. The
    reduced network over the sources is Y_ss - Y_ks^T X, y being symmetric.
    """
    kept = np.setdiff1d(np.arange(y.shape[0]), gfm_bus)  # every bus without a GFM
    k_sg, n_sg = np.searchsorted(kept, sg_bus), sg_bus.size
    n_r = n_sg + gfm_bus.size
    # an SG's internal node reaches only its bus, a GFM bus the network
    rhs = np.zeros((kept.size, n_r + COND_PROBES), dtype=y.dtype)
    rhs[k_sg, np.arange(n_sg)] = -y_sg
    rhs[:, n_sg:n_r] = y[np.ix_(kept, gfm_bus)]
    rhs[:, n_r:] = np.random.default_rng(0).standard_normal((kept.size, COND_PROBES))
    block = y[np.ix_(kept, kept)]
    block[k_sg, k_sg] += y_sg
    return k_sg, rhs[:, :n_r], _solve_probed(block, rhs)


def reactive_laplacian(net: Network, machines: MachineSet, op: OperatingPoint) -> LaplacianPair:
    """The slow-coherency Laplacian in closed form, rows in fleet order.

    The susceptance network (every conductance dropped, each load a
    susceptance -Q/|V|^2 at the solved voltages, each SG's internal node
    behind 1/xd') is Kron-reduced onto the machine sources, the SG
    internal nodes and the GFM buses, by one real solve that eliminates
    every other bus (Kron 1939; Dorfler and Bullo 2013). Over the reduced
    susceptances B the active outputs are
    P_i = sum_j E_i E_j B_ij sin(delta_i - delta_j), so
    L_ij = -dP_i/d(delta_j) = E_i E_j B_ij cos(delta_i - delta_j) off the
    diagonal, the diagonal is minus the row sum, and the E-feedthrough is
    -dP_i/dE_k for each GFM k. An overflow or invalid operation is a
    PipelineError.
    """
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return _reactive_laplacian(net, machines, op)
    except FloatingPointError as exc:
        raise PipelineError(f"reactive reduction failed: {exc}") from None


def _reactive_laplacian(net: Network, machines: MachineSet, op: OperatingPoint) -> LaplacianPair:
    sg_bus, gfm_bus = np.split(net.rows(machines.machine_buses), [len(machines.sgs)])
    n_sg, n_r = sg_bus.size, len(machines.machine_buses)
    gp = 1.0 / np.array([m.xd_prime for m in machines.sgs])
    b = build_admittance(net, lossless=True).imag
    b[np.diag_indices_from(b)] -= np.array([bus.load_q for bus in net.buses]) / np.abs(op.v) ** 2
    _, coupling, x = _reduce_onto_sources(b, sg_bus, gfm_bus, -gp)
    # the reduced susceptances off the diagonal; sources meet directly only
    # where two GFM buses share a branch
    b_red = -(coupling.T @ x)
    b_red[n_sg:, n_sg:] += b[np.ix_(gfm_bus, gfm_bus)]
    np.fill_diagonal(b_red, 0.0)

    e, phase = op.e, op.delta[:, None] - op.delta[None, :]
    l = e[:, None] * e[None, :] * b_red * np.cos(phase)
    np.fill_diagonal(l, -l.sum(axis=1))
    # dP_i/dE_k = E_i B_ik sin(delta_i - delta_k), and dP_k/dE_k = P_k / E_k
    w = b_red * np.sin(phase)
    dp_de = e[:, None] * w
    np.fill_diagonal(dp_de, w @ e)
    return LaplacianPair(
        l=l,
        m_e=_equivalent_masses(machines, net.omega0),
        # subtracted from zeros, not negated, so an exact zero stays +0
        feedthrough_e=np.zeros((n_r, n_r - n_sg)) - dp_de[:, n_sg:],
    )


@dataclass
class RowSumStats:
    mean: float
    std: float
    max: float


def row_sum_check(l: np.ndarray) -> RowSumStats:
    """Statistics of |L 1|; exact zero row sums are the conservation law
    the reduction must preserve."""
    r = np.abs(l @ np.ones(l.shape[0]))
    return RowSumStats(
        mean=float(np.mean(r)),
        std=float(np.std(r)),
        max=float(np.max(r)),
    )


def symmetry_gap(l: np.ndarray) -> float:
    denom = float(np.max(np.abs(l)))
    if denom == 0.0:
        return 0.0
    return float(np.max(np.abs(l - l.T)) / denom)




# ---------------------------------------------------------------------------
# full state matrix (dispatch variant)

def state_matrix(model: LinearModel) -> np.ndarray:
    """The state matrix of d/dt [delta, omega, ve, e_f] of the dispatch
    model: n_r angle rows, then n_r frequency rows, in the model's machine
    order (SGs, then GFMs), then n_gfm ve and n_gfm e_f rows.

    The model network, loads included, is Kron-reduced onto the machine
    sources by one complex solve, as reactive_laplacian reduces the
    lossless one. Over the reduced admittance Y each source with voltage
    W = E exp(j delta) delivers S = W conj(Y W), an SG its air-gap power
    and a GFM its terminal power, and with T_ik = W_i conj(Y_ik W_k)
    dS_i/d(delta_k) = j (S_i [i = k] - T_ik) and
    dS_i/dE_k = (S_i [i = k] + T_ik) / E_k. The dispatch Laplacian is
    L = -Re dS/d(delta), so the angle block is M_e^{-1} L; the
    E-feedthrough is -Re dS/dE; the ve rows read Q = Im S and the GFM bus
    magnitude |V| = E. At an equilibrium every eliminated bus's current
    balance holds, so these are the derivatives with the algebraic
    voltages eliminated.
    """
    machines, op, y = model.machines, model.op, model.y_model
    n_sg, n_gfm, gfm = model.n_sg, model.n_gfm, model.gfm_idx
    n_r = n_sg + n_gfm
    nx = 2 * n_r + 2 * n_gfm
    # allocated before the reduction, so that the state matrix, which an
    # eigensolve may hold for a while, does not sit above its temporaries
    a = np.zeros((nx, nx))
    y_sg = -1j * model.sg_gp  # 1/(j xd')
    k_sg, coupling, x = _reduce_onto_sources(y, model.sg_idx, gfm, y_sg)
    # an SG's row of -Y_ks^T X is its bus's row of X times y_sg
    y_red = np.empty((n_r, n_r), dtype=complex)
    y_red[:n_sg] = y_sg[:, None] * x[k_sg]
    y_red[np.arange(n_sg), np.arange(n_sg)] += y_sg
    y_red[n_sg:] = -(coupling[:, n_sg:].T @ x)
    y_red[n_sg:, n_sg:] += y[np.ix_(gfm, gfm)]

    e, w = op.e, op.e * np.exp(1j * op.delta)
    s = w * np.conj(y_red @ w)
    t = w[:, None] * np.conj(y_red * w)
    u = np.diag(s) - t  # dS/d(delta) = j u
    j = np.arange(n_gfm)
    ds_de = t[:, n_sg:] / e[n_sg:]
    ds_de[n_sg + j, j] += s[n_sg:] / e[n_sg:]

    sl_d = slice(0, n_r)
    sl_w = slice(n_r, 2 * n_r)
    sl_e = slice(2 * n_r + n_gfm, nx)

    m_e = _equivalent_masses(machines, model.net.omega0)
    a[sl_d, sl_w] = np.eye(n_r)
    a[sl_w, sl_d] = u.imag / m_e[:, None]
    a[sl_w, sl_e] = -ds_de.real / m_e[:, None]
    tau, lam_q, kpv, kiv = machines.gfm_arrays("tau", "lambda_q", "kpv", "kiv")
    a[sl_w, sl_w] = np.diag(
        [-m.d_internal(model.net.omega0) / m.m for m in machines.sgs] + list(-1.0 / tau))

    # d(ve)/dt falls with |V| = E and with Q
    ve_d = -(lam_q / tau)[:, None] * u[n_sg:].real
    ve_e = -(np.eye(n_gfm) + lam_q[:, None] * ds_de[n_sg:].imag) / tau[:, None]
    r_v, r_e = 2 * n_r + j, 2 * n_r + n_gfm + j
    a[r_v, sl_d] = ve_d
    a[r_v, sl_e] += ve_e
    a[r_v, r_v] += -1.0 / tau
    a[r_e, sl_d] = kpv[:, None] * ve_d
    a[r_e, sl_e] += kpv[:, None] * ve_e
    a[r_e, r_v] += kpv * (-1.0 / tau) + kiv

    return a
