"""Slow subspace extraction, machine grouping, mode shapes, and
perturbation bounds.

All spectral work happens in mass-normalized coordinates: for diagonal
M_e > 0 the operator S = M_e^{-1/2} L M_e^{-1/2} is symmetric whenever L
is, it is similar to M_e^{-1} L, and its orthonormal eigenvectors Z map
to M_e-orthonormal eigenvectors W = M_e^{-1/2} Z of M_e^{-1} L. Angles,
residuals, and perturbation norms are therefore measured in the
inertia-weighted metric, which is what makes the printed bounds actual
theorems instead of heuristics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PipelineError, ValidationError
from .linearize import LaplacianPair, StateSpace, symmetry_gap

SYMMETRY_TOL = 1e-8
ZERO_EVAL_REL = 1e-10
BETA_FLOOR = 1e-12


@dataclass
class SlowSubspace:
    eigenvalues: np.ndarray  # sorted by magnitude, ascending
    w_full: np.ndarray  # M_e-orthonormal eigenvector columns
    w_r: np.ndarray
    sigma_r: np.ndarray  # slow eigenvalues, diag entries
    r: int
    machine_order: list[int]
    eigengap: list[float | None]
    symmetry_defect: float


def _mass_normalized(lap: LaplacianPair) -> np.ndarray:
    inv_sqrt_m = 1.0 / np.sqrt(lap.m_e)
    s = lap.l * inv_sqrt_m[:, None] * inv_sqrt_m[None, :]
    return 0.5 * (s + s.T)


def slow_eigensolve(lap: LaplacianPair, r: int) -> SlowSubspace:
    """Eigendecompose the weighted Laplacian and keep the r slowest modes.

    Requires a symmetric L (the reactive-path reduction delivers one);
    the solve runs on the symmetric normalized operator and the basis is
    mapped back, so eigenvalues are real by construction.
    """
    n = lap.l.shape[0]
    if not 1 <= r <= n:
        raise ValidationError(f"r={r} outside 1..{n}")
    defect = symmetry_gap(lap.l)
    if defect > SYMMETRY_TOL:
        raise PipelineError(
            f"Laplacian asymmetry {defect:.3e} exceeds {SYMMETRY_TOL:.1e}; "
            "slow coherency needs the reactive-path reduction"
        )
    vals, z = np.linalg.eigh(_mass_normalized(lap))
    # floor the tolerance scale at 1 rad^2/s^2 so a spectrum that is pure
    # rounding noise (single machine, L identically zero) reads as one
    # zero mode instead of a positive eigenvalue
    scale = max(float(np.max(np.abs(vals))), 1.0)
    if np.max(vals) > ZERO_EVAL_REL * scale:
        raise PipelineError(
            f"weighted Laplacian has a positive eigenvalue {np.max(vals):.3e}"
        )
    order = np.argsort(np.abs(vals), kind="stable")
    vals = vals[order]
    z = z[:, order]
    n_zero = int(np.sum(np.abs(vals) <= ZERO_EVAL_REL * scale))
    if n_zero != 1:
        raise PipelineError(
            f"expected exactly one zero eigenvalue, found {n_zero} "
            "(machine graph may be disconnected)"
        )
    # deterministic sign: largest-magnitude entry of each column positive
    for j in range(n):
        k = int(np.argmax(np.abs(z[:, j])))
        if z[k, j] < 0:
            z[:, j] = -z[:, j]
    w = z * (1.0 / np.sqrt(lap.m_e))[:, None]  # W = M_e^{-1/2} Z
    gaps: list[float | None] = []
    for i in range(n - 1):
        denom = abs(vals[i])
        gaps.append(abs(vals[i + 1]) / denom if denom > 1e-300 else None)
    return SlowSubspace(
        eigenvalues=vals,
        w_full=w,
        w_r=w[:, :r].copy(),
        sigma_r=vals[:r].copy(),
        r=r,
        machine_order=list(lap.machine_order),
        eigengap=gaps,
        symmetry_defect=defect,
    )


@dataclass
class Partition:
    areas: list[list[int]]  # bus ids, one list per area
    reference_buses: list[int]
    alpha: np.ndarray  # rows sum to one; reference rows are unit vectors
    assignment: dict[int, int]  # bus id -> area index
    machine_order: list[int]


def group_machines(sub: SlowSubspace) -> Partition:
    """Reference-machine grouping on the slow basis.

    Complete-pivot Gaussian elimination picks the r most independent rows
    of W_r as references; expressing every row in that basis gives
    weights that sum to one, and each machine joins the reference with
    its largest weight.
    """
    w_r = sub.w_r
    n, r = w_r.shape
    x = w_r.copy()
    scale0 = float(np.max(np.abs(x)))
    if scale0 == 0.0:
        raise PipelineError("slow basis is zero; cannot group")
    refs: list[int] = []
    for _ in range(r):
        i, j = np.unravel_index(int(np.argmax(np.abs(x))), x.shape)
        piv = x[i, j]
        if abs(piv) < 1e-12 * scale0:
            raise PipelineError(
                "reference basis is singular; r may exceed the number of "
                "distinguishable groups"
            )
        refs.append(int(i))
        x = x - np.outer(x[:, j], x[i, :]) / piv
    refs.sort()
    w_ref = w_r[refs, :]
    try:
        alpha = np.linalg.solve(w_ref.T, w_r.T).T
    except np.linalg.LinAlgError:
        raise PipelineError("reference basis is singular after pivoting") from None
    areas: list[list[int]] = [[] for _ in range(r)]
    assignment: dict[int, int] = {}
    for i in range(n):
        a = int(np.argmax(alpha[i, :]))
        bus = sub.machine_order[i]
        areas[a].append(bus)
        assignment[bus] = a
    for lst in areas:
        lst.sort()
    return Partition(
        areas=areas,
        reference_buses=[sub.machine_order[i] for i in refs],
        alpha=alpha,
        assignment=assignment,
        machine_order=list(sub.machine_order),
    )


@dataclass
class ModeShape:
    freq_hz: float
    damping_ratio: float
    eigenvalue: complex
    components: np.ndarray  # complex, frequency states, machine order
    machine_order: list[int]


def mode_shapes(sys: StateSpace, band: tuple[float, float] | None = None) -> list[ModeShape]:
    """Oscillatory modes of the full state matrix, optionally band-filtered.

    One mode per conjugate pair; components are the frequency-state rows
    of the eigenvector scaled so the largest entry is exactly 1.
    """
    vals, vecs = np.linalg.eig(sys.a)
    out: list[ModeShape] = []
    for idx in range(vals.size):
        lam = vals[idx]
        if lam.imag <= 1e-9:
            continue
        f = lam.imag / (2.0 * np.pi)
        if band is not None and not (band[0] <= f <= band[1]):
            continue
        comp = vecs[sys.omega_rows, idx].copy()
        k = int(np.argmax(np.abs(comp)))
        if np.abs(comp[k]) > 0:
            comp = comp / comp[k]
        out.append(
            ModeShape(
                freq_hz=float(f),
                damping_ratio=float(-lam.real / abs(lam)),
                eigenvalue=complex(lam),
                components=comp,
                machine_order=list(sys.machine_order),
            )
        )
    out.sort(key=lambda m: (m.freq_hz, m.damping_ratio))
    return out


def shape_correlation(a: np.ndarray, b: np.ndarray) -> float:
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        return 0.0
    return float(np.abs(np.vdot(a, b)) / (na * nb))


def track_modes(base: list[ModeShape], scen: list[ModeShape]) -> list[dict]:
    """Follow each base mode into a scenario by eigenvector correlation.

    Rows must already be aligned (same machine slots). Frequency bands
    are no help here since the interesting mode leaves the band.
    """
    tracked = []
    for bm in base:
        best, best_c = None, -1.0
        for sm in scen:
            c = shape_correlation(bm.components, sm.components)
            if c > best_c:
                best, best_c = sm, c
        tracked.append(
            {
                "base_freq_hz": bm.freq_hz,
                "scenario_freq_hz": best.freq_hz if best else None,
                "delta_hz": (best.freq_hz - bm.freq_hz) if best else None,
                "correlation": best_c if best else None,
            }
        )
    return tracked


@dataclass
class SubspaceComparison:
    sigmas: np.ndarray
    thetas: np.ndarray  # rad, ascending
    theta_matrix_norm: float  # Frobenius norm of sin(Theta)
    beta: float
    beta_defined: bool
    bound_rhs: float | None
    bound_holds: bool | None
    row_shift: np.ndarray
    row_bound_rhs: float | None
    row_bound_holds: bool | None
    q: np.ndarray
    machine_order: list[int]


def compare_subspaces(
    base_lap: LaplacianPair,
    base_sub: SlowSubspace,
    scen_lap: LaplacianPair,
    scen_sub: SlowSubspace,
) -> SubspaceComparison:
    """Canonical angles between base and scenario slow subspaces plus the
    residual and row-shift perturbation bounds.

    Inputs must be row-aligned: scenario machines sit in the slots of the
    base machines they replace. The gap beta compares the scenario's
    slowest r magnitudes against the first base magnitude outside the
    slow set; when that separation closes the bounds are reported
    undefined rather than violated.
    """
    if base_sub.r != scen_sub.r:
        raise ValidationError("subspace ranks differ")
    if base_lap.l.shape != scen_lap.l.shape:
        raise ValidationError("machine counts differ; align rows first")
    r = base_sub.r
    n = base_lap.l.shape[0]

    z_base = np.sqrt(base_lap.m_e)[:, None] * base_sub.w_r
    z_scen = np.sqrt(scen_lap.m_e)[:, None] * scen_sub.w_r

    u, s, vt = np.linalg.svd(z_base.T @ z_scen)
    sigmas = np.clip(s, 0.0, 1.0)
    thetas = np.arccos(sigmas)
    sin_theta_norm = float(np.sqrt(np.sum(1.0 - sigmas**2)))
    q = u @ vt

    if r < n:
        beta = float(np.abs(base_sub.eigenvalues[r]) - np.abs(scen_sub.eigenvalues[r - 1]))
    else:
        beta = 0.0
    beta_defined = beta > BETA_FLOOR

    s0 = _mass_normalized(base_lap)
    s1 = _mass_normalized(scen_lap)
    resid = s0 @ z_scen - z_scen * scen_sub.sigma_r[None, :]
    row_shift = np.linalg.norm(z_scen - z_base @ q, axis=1)

    if beta_defined:
        bound_rhs = float(np.linalg.norm(resid) / beta)
        bound_holds = sin_theta_norm <= bound_rhs + 1e-9
        row_bound_rhs = float((1.0 + np.sqrt(2.0)) * np.linalg.norm(s1 - s0) / beta)
        row_bound_holds = float(np.max(row_shift)) <= row_bound_rhs + 1e-9
    else:
        bound_rhs = None
        bound_holds = None
        row_bound_rhs = None
        row_bound_holds = None

    return SubspaceComparison(
        sigmas=sigmas,
        thetas=thetas,
        theta_matrix_norm=sin_theta_norm,
        beta=beta,
        beta_defined=beta_defined,
        bound_rhs=bound_rhs,
        bound_holds=bound_holds,
        row_shift=row_shift,
        row_bound_rhs=row_bound_rhs,
        row_bound_holds=row_bound_holds,
        q=q,
        machine_order=list(base_sub.machine_order),
    )


def subspace_angles(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Canonical angles between column spans; basis-invariant by QR."""
    qa, _ = np.linalg.qr(a)
    qb, _ = np.linalg.qr(b)
    s = np.linalg.svd(qa.T @ qb, compute_uv=False)
    return np.arccos(np.clip(s, 0.0, 1.0))


@dataclass
class EpsilonSplit:
    l_internal: np.ndarray
    l_external: np.ndarray
    epsilon: float
    epsilon_normalized: float | None


def epsilon_decompose(lap: LaplacianPair, partition: Partition) -> EpsilonSplit:
    """Split L into intra-area coupling (rows sum to zero within each
    area) and a normalized inter-area remainder: L = L_int + eps * L_ext.

    eps is the largest inter-area coupling magnitude; the normalized
    variant divides by the weakest nonzero intra-area coupling, None when
    some area has no internal ties.
    """
    l = lap.l
    n = l.shape[0]
    area = np.array([partition.assignment[b] for b in lap.machine_order])
    same = area[:, None] == area[None, :]
    off = ~np.eye(n, dtype=bool)

    l_int = np.where(same & off, l, 0.0)
    np.fill_diagonal(l_int, 0.0)
    np.fill_diagonal(l_int, -l_int.sum(axis=1))
    rest = l - l_int
    inter_mag = np.abs(np.where(~same, l, 0.0))
    epsilon = float(np.max(inter_mag))
    if epsilon > 0.0:
        l_ext = rest / epsilon
    else:
        l_ext = np.zeros_like(l)
    intra_vals = np.abs(l_int[same & off])
    intra_vals = intra_vals[intra_vals > 1e-15 * max(1.0, float(np.max(np.abs(l))))]
    eps_norm = float(epsilon / np.min(intra_vals)) if intra_vals.size else None
    return EpsilonSplit(
        l_internal=l_int,
        l_external=l_ext,
        epsilon=epsilon,
        epsilon_normalized=eps_norm,
    )


def slow_variable(partition: Partition, m_e: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Inertia-weighted mean angle of each area (the aggregate slow
    coordinate), in area order."""
    out = np.zeros(len(partition.areas))
    idx_of = {b: i for i, b in enumerate(partition.machine_order)}
    for a, buses in enumerate(partition.areas):
        idx = [idx_of[b] for b in buses]
        w = m_e[idx]
        out[a] = float(np.sum(w * delta[idx]) / np.sum(w))
    return out
