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

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import PipelineError
from .machines import MachineSet
from .network import Network, _pattern, build_admittance
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


def build_linear_model(
    net: Network,
    machines: MachineSet,
    op: OperatingPoint,
    lossless: bool,
) -> LinearModel:
    """Fold loads into the admittance matrix and pick the evaluation point."""
    rows = net.rows(machines.machine_buses)
    sg_idx, gfm_idx = np.split(rows, [len(machines.sgs)])
    sg_gp = np.array([1.0 / m.xd_prime for m in machines.sgs])

    y = build_admittance(net, lossless=lossless)
    y[np.diag_indices_from(y)] += _load_admittances(net, op.v)
    if lossless:
        y = 1j * y.imag
        v_point = _anchor_voltages(y, sg_idx, gfm_idx, sg_gp, op)
    else:
        v_point = op.v.copy()

    return LinearModel(
        net=net,
        machines=machines,
        op=op,
        y_model=y,
        v_point=v_point,
        sg_idx=sg_idx,
        gfm_idx=gfm_idx,
        sg_gp=sg_gp,
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
    a = y_model.copy()
    rhs = np.zeros(y_model.shape[0], dtype=complex)
    u = op.e * np.exp(1j * op.delta)
    yg = -1j * sg_gp
    a[sg_idx, sg_idx] += yg
    rhs[sg_idx] += yg * u[: sg_idx.size]
    a[gfm_idx, :] = 0.0
    a[gfm_idx, gfm_idx] = 1.0
    rhs[gfm_idx] = u[sg_idx.size :]
    try:
        return np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError:
        raise PipelineError("voltage anchoring system is singular") from None


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


# ---------------------------------------------------------------------------
# analytic Jacobian blocks

@dataclass(frozen=True)
class JacobianBlocks:
    """Stacked small-signal blocks of one model; machine rows and columns
    run SG i -> i, GFM j -> n_sg + j.

      a1  (n_r x n_r)    frequency rows by machine angle
      a2  (n_r x 2N)     frequency rows by bus voltage
      a3  (2N x n_r)     algebraic rows by machine angle
      a33 (2N x 2N)      algebraic rows by bus voltage
      a34 (2N x n_gfm)   algebraic rows by GFM magnitude

    GFM frequency rows see neither machine angles nor magnitudes, so a1 is
    nonzero only on its SG diagonal and no frequency-row magnitude block
    exists. q_rows and vm_rows (n_gfm x 2N) are dQ/dV and d|V|/dV at the
    GFM buses, the parts of the network Jacobian that the GFM voltage loop
    of the state matrix reads. a3 and a34 are the leading columns of
    rhs = [a3 | a34 | probes], the right-hand side of the one solve
    against a33 (see _reduce), built once.

    The blocks keep the model's fleet and nominal frequency, not the model
    itself, so its dense admittance matrix is freed with it.
    """

    machines: MachineSet
    omega0: float
    a1: np.ndarray
    a2: np.ndarray
    a33: np.ndarray
    rhs: np.ndarray
    q_rows: np.ndarray
    vm_rows: np.ndarray
    m_e: np.ndarray  # diagonal entries

    @property
    def a3(self) -> np.ndarray:
        return self.rhs[:, : self.a1.shape[0]]

    @property
    def a34(self) -> np.ndarray:
        return self.rhs[:, self.a1.shape[0] : self.a1.shape[0] + self.q_rows.shape[0]]


def _network_power_jacobian(model: LinearModel):
    """d(P,Q)/d(Re V, Im V) of the quadratic network injections, the 2N x 2N
    [[dP/dRe, dP/dIm], [dQ/dRe, dQ/dIm]] evaluated only on the pattern of the
    model admittance: (rows, cols, values); every other entry is zero."""
    rows, cols = _pattern(model.y_model)
    y = model.y_model[rows, cols]
    g, b = y.real, y.imag
    v = model.v_point
    p, q = v.real[rows], v.imag[rows]
    i0 = model.y_model @ v
    diag = rows == cols  # one entry per row, rows ascending
    ar, bi = np.zeros(rows.size), np.zeros(rows.size)
    ar[diag] = i0.real
    bi[diag] = i0.imag
    n = model.n_bus
    return (
        np.concatenate([rows, rows, n + rows, n + rows]),
        np.concatenate([cols, n + cols, cols, n + cols]),
        np.concatenate([p * g + q * b + ar, -p * b + q * g + bi,
                        q * g - p * b - bi, -q * b - p * g + ar]),
    )


def build_jacobians(model: LinearModel) -> JacobianBlocks:
    """All small-signal blocks of one model at its evaluation point; only
    assembly, check_equilibrium on the dispatch model is the gate."""
    machines, op = model.machines, model.op
    n = model.n_bus
    n_sg, n_gfm = model.n_sg, model.n_gfm
    n_r = n_sg + n_gfm

    rows, cols, d_pq = _network_power_jacobian(model)
    # residual rows are injections minus network flows
    a33 = np.zeros((2 * n, 2 * n))
    a33[rows, cols] = -d_pq

    a1 = np.zeros((n_r, n_r))
    a2 = np.zeros((n_r, 2 * n))
    rhs = np.zeros((2 * n, n_r + n_gfm + COND_PROBES))
    a3, a34 = rhs[:, :n_r], rhs[:, n_r : n_r + n_gfm]
    rhs[:, n_r + n_gfm :] = np.random.default_rng(0).standard_normal((2 * n, COND_PROBES))
    sg, i_sg = model.sg_idx, np.arange(n_sg)
    gp, e = model.sg_gp, op.e[:n_sg]
    sd, cd = np.sin(op.delta[:n_sg]), np.cos(op.delta[:n_sg])
    p, q = model.v_point.real[sg], model.v_point.imag[sg]
    # air-gap power P = gp*e*(p sin - q cos) drives the SG frequency row
    dpg_dd = gp * e * (p * cd + q * sd)
    a1[i_sg, i_sg] = -dpg_dd
    a2[i_sg, sg] = -gp * e * sd
    a2[i_sg, n + sg] = gp * e * cd
    # bus-side machine injection enters the balance rows at its bus
    a33[sg, sg] += gp * e * sd
    a33[sg, n + sg] += -gp * e * cd
    a33[n + sg, sg] += gp * e * cd - 2.0 * gp * p
    a33[n + sg, n + sg] += gp * e * sd - 2.0 * gp * q
    a3[sg, i_sg] = dpg_dd
    a3[n + sg, i_sg] = gp * e * (q * cd - p * sd)

    gfm, j_gfm = model.gfm_idx, np.arange(n_gfm)
    e = op.e[n_sg:]
    sd, cd = np.sin(op.delta[n_sg:]), np.cos(op.delta[n_sg:])
    # the network rows of each GFM bus: P feeds its frequency row, Q its
    # voltage loop; j_of maps a P or Q row to its GFM, -1 off GFM buses
    j_of = np.full(2 * n, -1)
    j_of[gfm], j_of[n + gfm] = j_gfm, j_gfm
    j_row = j_of[rows]
    p_on, q_on = (j_row >= 0) & (rows < n), (j_row >= 0) & (rows >= n)
    a2[n_sg + j_row[p_on], cols[p_on]] = -d_pq[p_on]
    q_rows = np.zeros((n_gfm, 2 * n))
    q_rows[j_row[q_on], cols[q_on]] = d_pq[q_on]
    v = model.v_point[gfm]
    vm = np.abs(v)
    vm_rows = np.zeros((n_gfm, 2 * n))
    vm_rows[j_gfm, gfm] = v.real / vm
    vm_rows[j_gfm, n + gfm] = v.imag / vm
    # constraint rows V - E exp(j delta) replace the bus balance
    a33[gfm, :] = a33[n + gfm, :] = 0.0
    a33[gfm, gfm] = a33[n + gfm, n + gfm] = 1.0
    a3[gfm, n_sg + j_gfm] = e * sd
    a3[n + gfm, n_sg + j_gfm] = -e * cd
    a34[gfm, j_gfm] = -cd
    a34[n + gfm, j_gfm] = -sd

    omega0 = model.net.omega0
    m_e = np.array(
        [m.m for m in machines.sgs] + [g.m_equivalent(omega0) for g in machines.gfms]
    )

    return JacobianBlocks(
        machines=machines,
        omega0=omega0,
        a1=a1,
        a2=a2,
        a33=a33,
        rhs=rhs,
        q_rows=q_rows,
        vm_rows=vm_rows,
        m_e=m_e,
    )


# ---------------------------------------------------------------------------
# reduction to machine coordinates

@dataclass(frozen=True)
class LaplacianPair:
    """Row i is machine i of the reduced blocks' fleet (SGs, then GFMs), or
    slot i in a pipeline case."""

    l: np.ndarray
    m_e: np.ndarray  # diagonal entries
    feedthrough_e: np.ndarray

    @property
    def l_bar(self) -> np.ndarray:
        """M_e^{-1} L, the Laplacian per unit of equivalent mass."""
        return self.l / self.m_e[:, None]


def _reduce(blocks: JacobianBlocks) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one elimination of the algebraic voltages: X = A33^{-1} [A3, A34],
    returned with L = A1 - A2 X3 and the E-feedthrough -A2 X4.

    COND_PROBES fixed-seed probe columns p_j ride along in the same solve,
    so ||A33||_1 max_j ||A33^{-1} p_j||_1 / ||p_j||_1, a lower bound on
    cond_1(A33) (Dixon 1983), costs O(N^2) on top of the factorization.
    """
    a33 = blocks.a33
    n_r = blocks.a1.shape[0]
    n_rhs = n_r + blocks.q_rows.shape[0]
    try:
        x = np.linalg.solve(a33, blocks.rhs)
    except np.linalg.LinAlgError:
        raise PipelineError("algebraic block is singular; cannot reduce") from None
    probes = blocks.rhs[:, n_rhs:]
    growth = np.abs(x[:, n_rhs:]).sum(axis=0) / np.abs(probes).sum(axis=0)
    cond = float(np.abs(a33).sum(axis=0).max() * growth.max())
    if not cond <= COND_WARN_LIMIT:  # also catches a NaN estimate
        warnings.warn(
            f"algebraic block is near singular (cond {cond:.3e}); "
            "reduction may be inaccurate",
            RuntimeWarning,
            stacklevel=3,
        )
    x = x[:, :n_rhs]  # the probe columns dropped
    l = blocks.a1 - blocks.a2 @ x[:, :n_r]
    # subtracted from zeros, not negated, so an exact zero stays +0
    feed = np.zeros((n_r, n_rhs - n_r)) - blocks.a2 @ x[:, n_r:]
    return l, feed, x


def kron_reduce(blocks: JacobianBlocks) -> LaplacianPair:
    """Eliminate the algebraic voltage variables.

    L = A1 - A2 A33^{-1} A3 couples machine angles; the E-feedthrough
    -A2 A33^{-1} A34 is reported alongside but holds no angle dynamics.
    """
    l, feed, _ = _reduce(blocks)
    return LaplacianPair(l=l, m_e=blocks.m_e, feedthrough_e=feed)


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

def state_matrix(blocks: JacobianBlocks) -> np.ndarray:
    """Assemble the state matrix of d/dt [delta, omega, ve, e_f] from the
    dispatch-model blocks: n_r angle rows, then n_r frequency rows, in the
    model's machine order (SGs, then GFMs), then n_gfm ve and n_gfm e_f rows.

    The algebraic voltages are eliminated through the same solve that
    produces the Laplacian, so the angle block of this matrix is
    M_e^{-1} L with the dispatch-variant L.
    """
    machines = blocks.machines
    n_r, n_gfm = blocks.a1.shape[0], blocks.q_rows.shape[0]
    nx = 2 * n_r + 2 * n_gfm
    # allocated before the reduction, so that the state matrix, which an
    # eigensolve may hold for a while, does not sit above its temporaries
    a = np.zeros((nx, nx))
    l, feed, x = _reduce(blocks)
    x3, x4 = x[:, :n_r], x[:, n_r:]

    sl_d = slice(0, n_r)
    sl_w = slice(n_r, 2 * n_r)
    sl_e = slice(2 * n_r + n_gfm, nx)

    a[sl_d, sl_w] = np.eye(n_r)
    a[sl_w, sl_d] = l / blocks.m_e[:, None]
    a[sl_w, sl_e] = feed / blocks.m_e[:, None]
    tau, lam_q, kpv, kiv = machines.gfm_arrays("tau", "lambda_q", "kpv", "kiv")
    a[sl_w, sl_w] = np.diag(
        [-m.d_internal(blocks.omega0) / m.m for m in machines.sgs] + [-1.0 / t for t in tau])

    # d(ve)/dt falls with |V| and Q, and dV/d(delta, E) = -X: the two
    # signs cancel
    rows_v = (blocks.vm_rows + lam_q[:, None] * blocks.q_rows) / tau[:, None]
    # one vector-matrix product per row: a stacked rows_v @ x3 sums in
    # another order and moves the last bits of the state matrix
    ve_d, ve_e = np.zeros((n_gfm, n_r)), np.zeros((n_gfm, n_gfm))
    for i, row in enumerate(rows_v):
        ve_d[i], ve_e[i] = row @ x3, row @ x4
    j = np.arange(n_gfm)
    r_v, r_e = 2 * n_r + j, 2 * n_r + n_gfm + j
    a[r_v, sl_d] = ve_d
    a[r_v, sl_e] += ve_e
    a[r_v, r_v] += -1.0 / tau
    a[r_e, sl_d] = kpv[:, None] * ve_d
    a[r_e, sl_e] += kpv[:, None] * ve_e
    a[r_e, r_v] += kpv * (-1.0 / tau) + kiv

    return a
