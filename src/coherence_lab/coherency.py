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
from .linearize import LaplacianPair, symmetry_gap

SYMMETRY_TOL = 1e-8
ZERO_EVAL_REL = 1e-10
BETA_FLOOR = 1e-12
# An oscillation is an eigenvalue whose imaginary part exceeds OSC_REL
# sqrt(eps ||A||_1). Undamped SGs (d = 0) give the state matrix a defective
# double zero eigenvalue, the rigid rotation and its Jordan partner, which
# roundoff splits by O(sqrt(eps ||A||)) (Golub and Van Loan, Matrix
# Computations, 7.2), real or imaginary at random. Measured on the 68-bus
# case with shuffled bus and branch orders and on rings of 40 to 400 buses:
# that split reaches 1.8 sqrt(eps ||A||_1) (3.9e-7 rad/s), and the slowest
# true mode 1.5e6 of it (0.57 rad/s). 1e3 sits near the geometric middle.
OSC_REL = 1e3


@dataclass(frozen=True)
class SlowSubspace:
    eigenvalues: np.ndarray  # sorted by magnitude, ascending
    w_r: np.ndarray  # M_e-orthonormal columns of the r slowest eigenvectors
    r: int
    eigengap: list[float | None]  # |lambda_k+1| / |lambda_k|, None over the zero eigenvalue
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
    z = z[:, order[:r]]  # the r slowest eigenvectors
    n_zero = int(np.sum(np.abs(vals) <= ZERO_EVAL_REL * scale))
    if n_zero != 1:
        raise PipelineError(
            f"expected exactly one zero eigenvalue, found {n_zero} "
            "(machine graph may be disconnected)"
        )
    # deterministic sign: largest-magnitude entry of each column positive
    flip = z[np.argmax(np.abs(z), axis=0), np.arange(r)] < 0
    z[:, flip] = -z[:, flip]
    # no gap over the zero eigenvalue, whose magnitude is roundoff
    mag = np.abs(vals)
    gaps = [float(hi / lo) if lo > ZERO_EVAL_REL * scale else None
            for lo, hi in zip(mag[:-1], mag[1:])]
    return SlowSubspace(
        eigenvalues=vals,
        w_r=z * (1.0 / np.sqrt(lap.m_e))[:, None],  # W = M_e^{-1/2} Z
        r=r,
        eigengap=gaps,
        symmetry_defect=defect,
    )


@dataclass(frozen=True)
class Partition:
    areas: list[list[int]]  # bus ids, one list per area
    reference_buses: list[int]
    alpha: np.ndarray  # rows sum to one; reference rows are unit vectors
    assignment: dict[int, int]  # bus id -> area index
    area_rows: list[list[int]]  # rows of the slow basis, ordered as in areas


def group_machines(sub: SlowSubspace, buses: list[int]) -> Partition:
    """Reference-machine grouping on the slow basis; row i of W_r is the
    machine at buses[i].

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
    area = alpha.argmax(axis=1).tolist()
    area_rows: list[list[int]] = [[] for _ in range(r)]
    for i in sorted(range(n), key=buses.__getitem__):
        area_rows[area[i]].append(i)
    return Partition(
        areas=[[buses[i] for i in rows] for rows in area_rows],
        reference_buses=[buses[i] for i in refs],
        alpha=alpha,
        assignment={buses[i]: a for i, a in enumerate(area)},
        area_rows=area_rows,
    )


@dataclass(frozen=True)
class ModeShape:
    freq_hz: float
    damping_ratio: float
    components: np.ndarray  # complex, one per machine


def mode_shapes(a: np.ndarray, n_r: int) -> list[ModeShape]:
    """Oscillatory modes of the full state matrix a of n_r machines.

    One mode per conjugate pair; components are the frequency-state rows
    n_r .. 2 n_r - 1 of the eigenvector (the layout state_matrix builds),
    scaled so the largest entry is exactly 1.
    """
    vals, vecs = np.linalg.eig(a)
    osc = vals.imag > OSC_REL * np.sqrt(np.finfo(float).eps * np.linalg.norm(a, 1))
    lams = vals[osc]
    comps = vecs[n_r : 2 * n_r][:, osc].T  # one row per mode
    pivots = comps[np.arange(lams.size), np.argmax(np.abs(comps), axis=1)][:, None]
    comps = np.divide(comps, pivots, out=comps.copy(), where=np.abs(pivots) > 0)
    # the scalar abs(lam), not np.abs: the array form differs in the last bit
    out = [
        ModeShape(
            freq_hz=float(lam.imag / (2.0 * np.pi)),
            damping_ratio=float(-lam.real / abs(lam)),
            components=comp,
        )
        for lam, comp in zip(lams, comps)
    ]
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
    are no help here since the interesting mode leaves the band. Each base
    mode takes the first scenario mode of highest |b^H s| / (|b| |s|).
    """
    if not scen:
        return [{"base_freq_hz": bm.freq_hz, "scenario_freq_hz": None,
                 "delta_hz": None, "correlation": None} for bm in base]
    s = np.array([sm.components for sm in scen])
    b = np.array([bm.components for bm in base]).reshape(len(base), s.shape[1])
    den = np.linalg.norm(b, axis=1)[:, None] * np.linalg.norm(s, axis=1)[None, :]
    corr = np.divide(np.abs(b.conj() @ s.T), den, out=np.zeros(den.shape), where=den > 0)
    tracked = []
    for bm, k in zip(base, corr.argmax(axis=1)):
        best = scen[k]
        tracked.append(
            {
                "base_freq_hz": bm.freq_hz,
                "scenario_freq_hz": best.freq_hz,
                "delta_hz": best.freq_hz - bm.freq_hz,
                "correlation": shape_correlation(bm.components, best.components),
            }
        )
    return tracked


@dataclass(frozen=True)
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

    overlap = z_base.T @ z_scen
    u, s, vt = np.linalg.svd(overlap)
    sigmas = np.clip(s, 0.0, 1.0)
    # the sines are the singular values of the part of Z_s outside span(Z_b);
    # 1 - sigma^2 would floor them at sqrt(eps), so small angles come from
    # their sines and large ones from their cosines (Bjorck and Golub 1973)
    sines = np.clip(np.linalg.svd(z_scen - z_base @ overlap, compute_uv=False)[::-1], 0.0, 1.0)
    thetas = np.where(sines < np.sqrt(0.5), np.arcsin(sines), np.arccos(sigmas))
    sin_theta_norm = float(np.linalg.norm(sines))
    q = u @ vt

    if r < n:
        beta = float(np.abs(base_sub.eigenvalues[r]) - np.abs(scen_sub.eigenvalues[r - 1]))
    else:
        beta = 0.0
    beta_defined = beta > BETA_FLOOR

    s0 = _mass_normalized(base_lap)
    s1 = _mass_normalized(scen_lap)
    resid = s0 @ z_scen - z_scen * scen_sub.eigenvalues[None, : scen_sub.r]
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
    )


@dataclass(frozen=True)
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
    same = np.zeros((n, n), dtype=bool)
    for rows in partition.area_rows:
        same[np.ix_(rows, rows)] = True
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
    coordinate), in area order; m_e and delta are in the row order of the
    slow basis the partition was grouped from."""
    return np.array([np.sum(m_e[rows] * delta[rows]) / np.sum(m_e[rows])
                     for rows in partition.area_rows])
