"""Report assembly and deterministic file emission.

Everything written here must be byte-stable across identical runs:
no timestamps, no environment echoes, fixed float formatting, fixed
key ordering. Matrix dumps use full precision; summary tables round
to a fixed short format.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .coherency import epsilon_decompose, slow_variable
from .errors import InputOutputError
from .linearize import row_sum_check
from .scenario import CaseResult, ScenarioReport

CSV_FMT = "%.10g"
FULL_FMT = "%.17g"


def _py(x):
    """Coerce numpy scalars/arrays to plain python for json."""
    if isinstance(x, np.ndarray):
        return [_py(v) for v in x]
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, complex):
        return {"re": x.real, "im": x.imag}
    if isinstance(x, dict):
        return {k: _py(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_py(v) for v in x]
    return x


def _gen_table(case: CaseResult) -> list[dict]:
    net, sol = case.net, case.sol
    rows = []
    for bus in case.slot_buses:
        k = net.index_of[bus]
        b = net.buses[k]
        rows.append(
            {
                "bus": bus,
                "p_pu": float(sol.p_inj[k] + b.load_p),
                "q_pu": float(sol.q_inj[k] + b.load_q),
                "v_mag": float(np.abs(sol.v[k])),
            }
        )
    return rows


def _delta_by_slot(case: CaseResult) -> np.ndarray:
    by_bus: dict[int, float] = {}
    for i, m in enumerate(case.machines.sgs):
        by_bus[m.bus] = float(case.op.sg_delta[i])
    for j, g in enumerate(case.machines.gfms):
        by_bus[g.bus] = float(case.op.gfm_delta[j])
    return np.array([by_bus[b] for b in case.slot_buses])


def _modes_band(case: CaseResult) -> list[dict]:
    return [
        {
            "freq_hz": m.freq_hz,
            "damping_ratio": m.damping_ratio,
            "components": [
                {"bus": b, "mag": float(np.abs(c)), "phase_rad": float(np.angle(c))}
                for b, c in zip(m.machine_order, m.components)
            ],
        }
        for m in case.modes_band
    ]


def case_to_dict(case: CaseResult) -> dict:
    lap = case.lap
    stats = row_sum_check(lap.l)
    evals = np.asarray(case.sub.eigenvalues)
    est = np.sqrt(np.abs(evals[1:])) / (2.0 * np.pi)
    eps = epsilon_decompose(lap, case.part)
    slow = slow_variable(case.part, lap.m_e, _delta_by_slot(case))
    total_load = float(sum(b.load_p for b in case.net.buses))
    gen = _gen_table(case)
    slack = case.net.slack_id()
    return {
        "machine_order": list(case.slot_buses),
        "power_flow": {
            "iterations": case.sol.iterations,
            "max_mismatch": case.sol.max_mismatch,
            "total_load_pu": total_load,
            "total_gen_pu": float(sum(g["p_pu"] for g in gen)),
            "slack_bus": slack,
            "generation": gen,
        },
        "equilibrium_max_residual": case.equilibrium_max,
        "laplacian": {
            "variant": lap.variant,
            "row_sum_mean": stats.mean,
            "row_sum_std": stats.std,
            "row_sum_max": stats.max,
            "symmetry_gap": case.sub.symmetry_defect,
            "m_e": _py(lap.m_e),
            "eigenvalues": _py(case.sub.eigenvalues),
            "eigengap": _py(case.sub.eigengap),
            "mode_estimates_hz": _py(est),
        },
        "groups": {
            "reference_buses": list(case.part.reference_buses),
            "areas": [list(a) for a in case.part.areas],
            "assignment": {str(b): a for b, a in sorted(case.part.assignment.items())},
        },
        "epsilon": {
            "epsilon": eps.epsilon,
            "epsilon_normalized": eps.epsilon_normalized,
        },
        "slow_variables": _py(slow),
        "modes_band": _modes_band(case),
        "modes_all_hz": [m.freq_hz for m in case.modes_all],
    }


def report_to_dict(report: ScenarioReport) -> dict:
    spec = report.spec
    out = {
        "name": spec.name,
        "areas_r": spec.areas_r,
        "band_hz": [spec.band_hz[0], spec.band_hz[1]],
        "options": {
            "lossless": True,  # the only model slow coherency accepts
            "tol": spec.options.tol,
            "max_iter": spec.options.max_iter,
        },
        "replacements": [
            {
                "retire_sg_bus": r.retire_sg_bus,
                "gfm_bus": r.gfm_bus,
                "gfm_params": r.gfm_params,
            }
            for r in spec.replacements
        ],
        "warnings": list(report.warnings),
        "base": case_to_dict(report.base),
        "scenario": case_to_dict(report.scenario) if report.scenario else None,
    }
    if report.comparison is not None:
        c = report.comparison
        out["comparison"] = {
            "machine_order": list(c.machine_order),
            "sigmas": _py(c.sigmas),
            "thetas": _py(c.thetas),
            "theta_matrix_norm": c.theta_matrix_norm,
            "beta": c.beta,
            "beta_defined": c.beta_defined,
            "bound_rhs": c.bound_rhs,
            "bound_holds": c.bound_holds,
            "row_shift": _py(c.row_shift),
            "row_bound_rhs": c.row_bound_rhs,
            "row_bound_holds": c.row_bound_holds,
            "q": _py(c.q),
        }
        out["mode_track"] = _py(report.mode_track)
        out["flipped_machines"] = list(report.flipped or [])
    else:
        out["comparison"] = None
        out["mode_track"] = None
        out["flipped_machines"] = None
    return out


# ---------------------------------------------------------------------------
# file emission

def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return CSV_FMT % x
    return str(x)


def _csv_lines(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for r in rows:
        lines.append(",".join(_fmt(v) for v in r))
    return "\n".join(lines) + "\n"


def _modes_csv(report: ScenarioReport) -> str:
    if report.mode_track is None:
        header = ["mode", "base_hz"]
        rows = [[i + 1, m.freq_hz] for i, m in enumerate(report.base.modes_band)]
    else:
        name = report.spec.name
        header = ["mode", "base_hz", f"{name}_hz", "delta_hz", "correlation"]
        rows = [
            [
                i + 1,
                t["base_freq_hz"],
                t["scenario_freq_hz"],
                t["delta_hz"],
                t["correlation"],
            ]
            for i, t in enumerate(report.mode_track)
        ]
    return _csv_lines(header, rows)


def _groups_csv(report: ScenarioReport) -> str:
    base = report.base
    base_area = {b: a for a, lst in enumerate(base.part.areas) for b in lst}
    if report.scenario is None:
        header = ["bus", "area", "reference_bus"]
        rows = [
            [b, base_area[b], base.part.reference_buses[base_area[b]]]
            for b in base.slot_buses
        ]
        return _csv_lines(header, rows)
    scen = report.scenario
    scen_area = {b: a for a, lst in enumerate(scen.part.areas) for b in lst}
    flipped = set(report.flipped or [])
    header = ["base_bus", "scenario_bus", "base_area", "scenario_area", "flipped"]
    rows = []
    for i, b in enumerate(base.slot_buses):
        sb = scen.slot_buses[i]
        rows.append([b, sb, base_area[b], scen_area[sb], b in flipped])
    return _csv_lines(header, rows)


def _rowsums_csv(report: ScenarioReport) -> str:
    header = ["case", "row_sum_mean", "row_sum_std", "row_sum_max", "symmetry_gap"]
    rows = []
    for label, case in (("base", report.base), (report.spec.name, report.scenario)):
        if case is None:
            continue
        stats = row_sum_check(case.lap.l)
        rows.append([label, stats.mean, stats.std, stats.max, case.sub.symmetry_defect])
    return _csv_lines(header, rows)


def _eigenvalues_csv(report: ScenarioReport) -> str:
    header = ["case", "index", "eigenvalue", "freq_estimate_hz"]
    rows = []
    for label, case in (("base", report.base), (report.spec.name, report.scenario)):
        if case is None:
            continue
        for i, e in enumerate(case.sub.eigenvalues):
            est = np.sqrt(abs(e)) / (2 * np.pi) if i > 0 else None
            rows.append([label, i, float(e), est])
    return _csv_lines(header, rows)


def _bounds_csv(report: ScenarioReport) -> str:
    c = report.comparison
    header = [
        "r",
        "beta",
        "sin_theta_fro",
        "bound_rhs",
        "bound_holds",
        "max_row_shift",
        "row_bound_rhs",
        "row_bound_holds",
    ]
    rows = [
        [
            report.spec.areas_r,
            c.beta,
            c.theta_matrix_norm,
            c.bound_rhs,
            c.bound_holds,
            float(np.max(c.row_shift)),
            c.row_bound_rhs,
            c.row_bound_holds,
        ]
    ]
    return _csv_lines(header, rows)


_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf"]


def mode_svg(mode_dict: dict, areas: dict[int, int], title: str) -> str:
    """Polar phasor plot of one mode shape, plain SVG."""
    size, cx, cy, rmax = 520, 260, 260, 200
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<text x="{cx}" y="24" text-anchor="middle" font-family="monospace" '
        f'font-size="14">{title}</text>',
    ]
    for frac in (0.25, 0.5, 0.75, 1.0):
        parts.append(
            f'<circle cx="{cx}" cy="{cy}" r="{rmax * frac:.1f}" fill="none" '
            f'stroke="#cccccc" stroke-width="1"/>'
        )
    parts.append(
        f'<line x1="{cx - rmax}" y1="{cy}" x2="{cx + rmax}" y2="{cy}" '
        f'stroke="#cccccc" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{cx}" y1="{cy - rmax}" x2="{cx}" y2="{cy + rmax}" '
        f'stroke="#cccccc" stroke-width="1"/>'
    )
    for comp in mode_dict["components"]:
        bus = comp["bus"]
        r = rmax * min(1.0, comp["mag"])
        ang = comp["phase_rad"]
        x = cx + r * np.cos(ang)
        y = cy - r * np.sin(ang)
        color = _PALETTE[areas.get(bus, 0) % len(_PALETTE)]
        parts.append(
            f'<line x1="{cx}" y1="{cy}" x2="{x:.2f}" y2="{y:.2f}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="{color}"/>'
        )
        lx = cx + (r + 14) * np.cos(ang)
        ly = cy - (r + 14) * np.sin(ang)
        parts.append(
            f'<text x="{lx:.2f}" y="{ly:.2f}" text-anchor="middle" '
            f'font-family="monospace" font-size="11" fill="{color}">{bus}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _matrix_csv(m: np.ndarray, order: list[int]) -> str:
    lines = [",".join(str(b) for b in order)]
    arr = np.atleast_2d(m)
    for row in arr:
        lines.append(",".join(FULL_FMT % v for v in row))
    return "\n".join(lines) + "\n"


def emit(report: ScenarioReport, out_dir: str | Path, formats: set[str]) -> list[Path]:
    """Write the requested artifacts; content is fully built before any
    file is opened so a failure cannot leave a partial set behind."""
    out = Path(out_dir)
    name = report.spec.name
    staged: list[tuple[Path, str]] = []

    if "json" in formats:
        payload = json.dumps(report_to_dict(report), indent=2)
        staged.append((out / f"{name}.report.json", payload + "\n"))
    if "csv" in formats:
        staged.append((out / f"{name}.modes.csv", _modes_csv(report)))
        staged.append((out / f"{name}.groups.csv", _groups_csv(report)))
        staged.append((out / f"{name}.rowsums.csv", _rowsums_csv(report)))
        staged.append((out / f"{name}.eigenvalues.csv", _eigenvalues_csv(report)))
        if report.comparison is not None:
            staged.append((out / f"{name}.bounds.csv", _bounds_csv(report)))
    if "svg" in formats:
        for label, case in (("base", report.base), (report.spec.name, report.scenario)):
            if case is None:
                continue
            areas = {b: a for a, lst in enumerate(case.part.areas) for b in lst}
            for i, m in enumerate(_modes_band(case)):
                t = f"{label}: mode {i + 1} at {m['freq_hz']:.3f} Hz"
                staged.append(
                    (out / f"{name}.{label}.mode{i + 1}.svg", mode_svg(m, areas, t))
                )
    if "matrices" in formats:
        for label, case in (("base", report.base), (report.spec.name, report.scenario)):
            if case is None:
                continue
            sub = out / f"{name}.matrices" / label
            order = case.slot_buses
            staged.append((sub / "l.csv", _matrix_csv(case.lap.l, order)))
            staged.append((sub / "l_bar.csv", _matrix_csv(case.lap.l_bar, order)))
            staged.append((sub / "m_e.csv", _matrix_csv(case.lap.m_e, order)))
            staged.append(
                (sub / "feedthrough_e.csv", _matrix_csv(case.lap.feedthrough_e, order))
            )
            if case is report.scenario:  # the base reference, in slot order
                staged.append((sub / "l0_bar.csv", _matrix_csv(report.base.lap.l_bar, order)))

    written: list[Path] = []
    try:
        for path, content in staged:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(content)
            written.append(path)
    except OSError as exc:
        raise InputOutputError(f"cannot write {path}: {exc}") from exc
    return written
