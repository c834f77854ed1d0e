"""Reference computations the tests compare the package against.

Each oracle is written from the modeling conventions alone: it takes only
the package's data types (Network, MachineSet, OperatingPoint), so a fault
in the production stamping, load folding or reduction cannot cancel out
of a comparison. The one exception is the rectangular reference for the
reactive Laplacian: its model is built here, but it is reduced through
the package's Jacobian assembly and probed solve, which the dispatch
model shares and the finite-difference tests check on their own.
"""

from __future__ import annotations

import numpy as np

from coherence_lab import JacobianBlocks, LaplacianPair, MachineSet, Network, OperatingPoint
from coherence_lab.linearize import LinearModel, _solve_probed


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


def kron_reduce(blocks: JacobianBlocks) -> LaplacianPair:
    """The rectangular reduction: L = A1 - A2 A33^{-1} A3 couples machine
    angles, and -A2 A33^{-1} A34 is the E-feedthrough."""
    n_r = blocks.a1.shape[0]
    x = _solve_probed(blocks.a33, blocks.rhs)
    return LaplacianPair(l=blocks.a1 - blocks.a2 @ x[:, :n_r], m_e=blocks.m_e,
                         feedthrough_e=-(blocks.a2 @ x[:, n_r:]))


def subspace_angles(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Canonical angles between column spans, ascending; basis-invariant
    by QR."""
    qa, _ = np.linalg.qr(a)
    qb, _ = np.linalg.qr(b)
    s = np.linalg.svd(qa.T @ qb, compute_uv=False)
    return np.arccos(np.clip(s, 0.0, 1.0))
