"""Reference computations the tests compare the package against.

Each oracle is written from the modeling conventions alone: it takes only
the package's data types (Network, MachineSet, OperatingPoint), so a fault
in the production stamping, load folding or reduction cannot cancel out
of a comparison. The exception is the rectangular reference for the
reactive Laplacian and the dispatch state matrix: the 2N x 2N Jacobian
blocks, which the finite-difference tests check against the package's
residuals, reduced through the package's probed solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from coherence_lab import LaplacianPair, MachineSet, Network, OperatingPoint
from coherence_lab.linearize import COND_PROBES, LinearModel, _solve_probed
from coherence_lab.network import _pattern


def reference_admittance(net: Network, lossless: bool = False) -> np.ndarray:
    """Element-by-element oracle: each branch contributes a 2x2 block
    [[y'+yc', -y'], [-y', y+yc]] with the tap on the from side, where
    y' = y/t per off-diagonal and y/t^2 on the from diagonal."""
    n = net.n_bus
    y = np.zeros((n, n), dtype=complex)
    for br in net.branches:
        f, t = net.index_of[br.from_bus], net.index_of[br.to_bus]
        z = complex(0.0 if lossless else br.r, br.x)
        ys = 1.0 / z
        yc = 0.5j * br.b_charging
        block = np.array([
            [(ys + yc) / (br.tap * br.tap), -ys / br.tap],
            [-ys / br.tap, ys + yc],
        ])
        y[np.ix_([f, t], [f, t])] += block
    for b in net.buses:
        k = net.index_of[b.id]
        y[k, k] += complex(0.0 if lossless else b.shunt_g, b.shunt_b)
    return y


def _source_network(net: Network, machines: MachineSet, op: OperatingPoint):
    """The susceptance matrix of the reactive network with every SG's
    internal node appended, and the indices of the source nodes (SG
    internal nodes, GFM buses, in machine order SGs then GFMs) and of the
    nodes to eliminate.

    The bus block is the lossless admittance's susceptance plus each
    load's -Q/|V|^2 at the solved voltages; every SG adds an internal
    node behind -1/xd'.
    """
    n, n_sg = net.n_bus, len(machines.sgs)
    b = np.zeros((n + n_sg, n + n_sg))
    b[:n, :n] = reference_admittance(net, lossless=True).imag
    for bus in net.buses:
        k = net.index_of[bus.id]
        b[k, k] -= bus.load_q / abs(op.v[k]) ** 2
    for i, sg in enumerate(machines.sgs):
        k, g = net.index_of[sg.bus], n + i
        bg = -1.0 / sg.xd_prime
        b[np.ix_([k, g], [k, g])] += [[bg, -bg], [-bg, bg]]
    source = list(range(n, n + n_sg)) + [net.index_of[g.bus] for g in machines.gfms]
    keep = [k for k in range(n + n_sg) if k not in source]
    return b, source, keep


def reduced_susceptance(net: Network, machines: MachineSet, op: OperatingPoint) -> np.ndarray:
    """Susceptance matrix of the reactive network reduced onto the machine
    source nodes, machine order SGs then GFMs; all other nodes are
    eliminated."""
    b, source, keep = _source_network(net, machines, op)
    bff = b[np.ix_(source, source)]
    bfr = b[np.ix_(source, keep)]
    brr = b[np.ix_(keep, keep)]
    return bff - bfr @ np.linalg.solve(brr, bfr.T)


def reduced_susceptance_extended(
    net: Network, machines: MachineSet, op: OperatingPoint
) -> np.ndarray:
    """reduced_susceptance with the elimination in extended precision
    (np.longdouble), one node at a time; the matrix it eliminates is
    stamped in double precision, as the package stamps its own."""
    b, source, keep = _source_network(net, machines, op)
    b = b.astype(np.longdouble)
    for k in keep:  # the block is definite, so no pivoting is needed
        b -= np.outer(b[:, k], b[k, :]) / b[k, k]
    return b[np.ix_(source, source)]


def laplacian_closed_form(op: OperatingPoint, kron_b: np.ndarray) -> np.ndarray:
    """Angle Laplacian over the reduced susceptance network:
    L_ij = E_i E_j B_ij cos(delta_i - delta_j) off the diagonal, rows sum
    to zero."""
    e, d = op.e, op.delta
    l = (e[:, None] * e[None, :]) * kron_b * np.cos(d[:, None] - d[None, :])
    np.fill_diagonal(l, 0.0)
    np.fill_diagonal(l, -l.sum(axis=1))
    return l


def reference_model(net: Network, machines: MachineSet, op: OperatingPoint) -> LinearModel:
    """The rectangular reactive model: the lossless admittance with each
    load's susceptance -Q/|V|^2, evaluated at the bus voltages that the
    machine sources drive through it (SG internal EMFs behind xd', GFM
    buses held at E exp(j delta)), so the point sits on the reduced
    model's manifold."""
    n, n_sg = net.n_bus, len(machines.sgs)
    sg = np.array([net.index_of[m.bus] for m in machines.sgs], dtype=int)
    gfm = np.array([net.index_of[g.bus] for g in machines.gfms], dtype=int)
    gp = np.array([1.0 / m.xd_prime for m in machines.sgs])
    y = 1j * reference_admittance(net, lossless=True).imag
    for k, bus in enumerate(net.buses):
        y[k, k] -= 1j * bus.load_q / abs(op.v[k]) ** 2

    a, rhs = y.copy(), np.zeros(n, dtype=complex)
    u = op.e * np.exp(1j * op.delta)
    a[sg, sg] += -1j * gp
    rhs[sg] += -1j * gp * u[:n_sg]
    a[gfm, :] = 0.0
    a[gfm, gfm] = 1.0
    rhs[gfm] = u[n_sg:]
    return LinearModel(net=net, machines=machines, op=op, y_model=y,
                       v_point=np.linalg.solve(a, rhs), sg_idx=sg, gfm_idx=gfm, sg_gp=gp)


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
    against a33.
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


def network_power_jacobian(model: LinearModel):
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
    """All small-signal blocks of one model at its evaluation point, with
    rectangular bus voltages as the algebraic unknowns."""
    machines, op = model.machines, model.op
    n = model.n_bus
    n_sg, n_gfm = model.n_sg, model.n_gfm
    n_r = n_sg + n_gfm

    rows, cols, d_pq = network_power_jacobian(model)
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
    return JacobianBlocks(
        machines=machines,
        omega0=omega0,
        a1=a1,
        a2=a2,
        a33=a33,
        rhs=rhs,
        q_rows=q_rows,
        vm_rows=vm_rows,
        m_e=np.array([m.m for m in machines.sgs]
                     + [g.m_equivalent(omega0) for g in machines.gfms]),
    )


def kron_reduce(blocks: JacobianBlocks) -> LaplacianPair:
    """The rectangular reduction: L = A1 - A2 A33^{-1} A3 couples machine
    angles, and -A2 A33^{-1} A34 is the E-feedthrough."""
    n_r = blocks.a1.shape[0]
    x = _solve_probed(blocks.a33, blocks.rhs)
    return LaplacianPair(l=blocks.a1 - blocks.a2 @ x[:, :n_r], m_e=blocks.m_e,
                         feedthrough_e=-(blocks.a2 @ x[:, n_r:]))


def rectangular_state_matrix(blocks: JacobianBlocks) -> np.ndarray:
    """The state matrix of d/dt [delta, omega, ve, e_f] with the 2N
    rectangular voltages eliminated by one solve against a33: the angle
    and feedthrough blocks are kron_reduce's, scaled by M_e^{-1}, and the
    ve and e_f rows read d|V|/dV and dQ/dV at the GFM buses."""
    machines = blocks.machines
    n_r, n_gfm = blocks.a1.shape[0], blocks.q_rows.shape[0]
    nx = 2 * n_r + 2 * n_gfm
    x = _solve_probed(blocks.a33, blocks.rhs)
    x3, x4 = x[:, :n_r], x[:, n_r:]

    sl_d, sl_w, sl_e = slice(0, n_r), slice(n_r, 2 * n_r), slice(2 * n_r + n_gfm, nx)
    a = np.zeros((nx, nx))
    a[sl_d, sl_w] = np.eye(n_r)
    a[sl_w, sl_d] = (blocks.a1 - blocks.a2 @ x3) / blocks.m_e[:, None]
    a[sl_w, sl_e] = -(blocks.a2 @ x4) / blocks.m_e[:, None]
    tau, lam_q, kpv, kiv = machines.gfm_arrays("tau", "lambda_q", "kpv", "kiv")
    a[sl_w, sl_w] = np.diag(
        [-m.d_internal(blocks.omega0) / m.m for m in machines.sgs] + [-1.0 / t for t in tau])

    # d(ve)/dt falls with |V| and Q, and dV/d(delta, E) = -X: the two
    # signs cancel
    rows_v = (blocks.vm_rows + lam_q[:, None] * blocks.q_rows) / tau[:, None]
    ve_d, ve_e = rows_v @ x3, rows_v @ x4
    j = np.arange(n_gfm)
    r_v, r_e = 2 * n_r + j, 2 * n_r + n_gfm + j
    a[r_v, sl_d] = ve_d
    a[r_v, sl_e] += ve_e
    a[r_v, r_v] += -1.0 / tau
    a[r_e, sl_d] = kpv[:, None] * ve_d
    a[r_e, sl_e] += kpv[:, None] * ve_e
    a[r_e, r_v] += kpv * (-1.0 / tau) + kiv
    return a


def subspace_angles(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Canonical angles between column spans, ascending; basis-invariant
    by QR."""
    qa, _ = np.linalg.qr(a)
    qb, _ = np.linalg.qr(b)
    s = np.linalg.svd(qa.T @ qb, compute_uv=False)
    return np.arccos(np.clip(s, 0.0, 1.0))
