"""Reference computations the tests compare the package against.

Each oracle is written from the modeling conventions alone: it takes only
the package's data types (Network, MachineSet, OperatingPoint) and calls
none of its functions, so a fault in the production stamping, load
folding or reduction cannot cancel out of a comparison.
"""

from __future__ import annotations

import numpy as np

from coherence_lab import MachineSet, Network, OperatingPoint


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


def reduced_susceptance(net: Network, machines: MachineSet, op: OperatingPoint) -> np.ndarray:
    """Susceptance matrix of the reactive network reduced onto the machine
    source nodes (SG internal nodes, GFM buses), machine order SGs then
    GFMs.

    The bus block is the lossless admittance's susceptance plus each
    load's -Q/|V|^2 at the solved voltages; every SG adds an internal
    node behind -1/xd'. All other nodes are eliminated.
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
    bff = b[np.ix_(source, source)]
    bfr = b[np.ix_(source, keep)]
    brr = b[np.ix_(keep, keep)]
    return bff - bfr @ np.linalg.solve(brr, bfr.T)


def laplacian_closed_form(op: OperatingPoint, kron_b: np.ndarray) -> np.ndarray:
    """Angle Laplacian over the reduced susceptance network:
    L_ij = E_i E_j B_ij cos(delta_i - delta_j) off the diagonal, rows sum
    to zero."""
    e, d = op.e, op.delta
    l = (e[:, None] * e[None, :]) * kron_b * np.cos(d[:, None] - d[None, :])
    np.fill_diagonal(l, 0.0)
    np.fill_diagonal(l, -l.sum(axis=1))
    return l


def subspace_angles(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Canonical angles between column spans, ascending; basis-invariant
    by QR."""
    qa, _ = np.linalg.qr(a)
    qb, _ = np.linalg.qr(b)
    s = np.linalg.svd(qa.T @ qb, compute_uv=False)
    return np.arccos(np.clip(s, 0.0, 1.0))
