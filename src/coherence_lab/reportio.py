"""Report assembly and deterministic file emission.

`report_to_dict` is the one record of a run. The JSON report, every CSV
table and every mode-shape SVG are formatted from that record; only the
matrix dumps read the arrays, for their full precision.

Everything written here must be byte-stable across identical runs:
no timestamps, no environment echoes, fixed float formatting, fixed
key ordering. Matrix dumps use full precision; summary tables round
to a fixed short format.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .coherency import epsilon_decompose, slow_variable
from .errors import InputOutputError
from .linearize import row_sum_check
from .scenario import CaseResult, ScenarioReport

CSV_FMT = "%.10g"
FULL_FMT = "%.17g"


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


def case_to_dict(case: CaseResult) -> dict:
    lap = case.lap
    stats = row_sum_check(lap.l)
    est = np.sqrt(np.abs(case.sub.eigenvalues[1:])) / (2.0 * np.pi)
    eps = epsilon_decompose(lap, case.part)
    slow = slow_variable(case.part, lap.m_e, case.delta)
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
            # the reactive-path reduction is the only one slow coherency accepts
            "variant": "reactive",
            "row_sum_mean": stats.mean,
            "row_sum_std": stats.std,
            "row_sum_max": stats.max,
            "symmetry_gap": case.sub.symmetry_defect,
            "m_e": lap.m_e.tolist(),
            "eigenvalues": case.sub.eigenvalues.tolist(),
            "eigengap": list(case.sub.eigengap),
            "mode_estimates_hz": est.tolist(),
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
        "slow_variables": slow.tolist(),
        "modes_band": [
            {
                "freq_hz": m.freq_hz,
                "damping_ratio": m.damping_ratio,
                "components": [
                    {"bus": b, "mag": float(np.abs(c)), "phase_rad": float(np.angle(c))}
                    for b, c in zip(case.slot_buses, m.components)
                ],
            }
            for m in case.modes_band
        ],
        "modes_all_hz": [m.freq_hz for m in case.modes_all],
    }


def report_to_dict(report: ScenarioReport) -> dict:
    """The one record of a run, plain JSON types throughout; report.json
    and every CSV table and SVG plot are formatted from it."""
    spec = report.spec
    out = {
        "name": spec.name,
        "areas_r": spec.areas_r,
        "band_hz": [spec.band_hz[0], spec.band_hz[1]],
        # lossless is the only model slow coherency accepts
        "options": {"lossless": True, **asdict(spec.options)},
        "replacements": [{k: dict(v) if isinstance(v, dict) else v  # gfm_params, read-only
                          for k, v in asdict(r).items()} for r in spec.replacements],
        "warnings": list(report.warnings),
        "base": case_to_dict(report.base),
        "scenario": case_to_dict(report.scenario) if report.scenario else None,
    }
    if report.comparison is not None:
        c = report.comparison
        out["comparison"] = {
            "machine_order": list(report.base.slot_buses),
            "sigmas": c.sigmas.tolist(),
            "thetas": c.thetas.tolist(),
            "theta_matrix_norm": c.theta_matrix_norm,
            "beta": c.beta,
            "beta_defined": c.beta_defined,
            "bound_rhs": c.bound_rhs,
            "bound_holds": c.bound_holds,
            "row_shift": c.row_shift.tolist(),
            "row_bound_rhs": c.row_bound_rhs,
            "row_bound_holds": c.row_bound_holds,
            "q": c.q.tolist(),
        }
        out["mode_track"] = [dict(t) for t in report.mode_track]
        out["flipped_machines"] = list(report.flipped)
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


def _cases(doc: dict) -> list[tuple[str, dict]]:
    """(label, case record) of the base and, when present, the scenario;
    the scenario is labelled with the run's name."""
    cases = [("base", doc["base"])]
    if doc.get("scenario"):
        cases.append((doc["name"], doc["scenario"]))
    return cases


def _modes_csv(doc: dict) -> str:
    if doc["mode_track"] is None:
        header = ["mode", "base_hz"]
        rows = [[i + 1, m["freq_hz"]] for i, m in enumerate(doc["base"]["modes_band"])]
    else:
        header = ["mode", "base_hz", f"{doc['name']}_hz", "delta_hz", "correlation"]
        rows = [
            [
                i + 1,
                t["base_freq_hz"],
                t["scenario_freq_hz"],
                t["delta_hz"],
                t["correlation"],
            ]
            for i, t in enumerate(doc["mode_track"])
        ]
    return _csv_lines(header, rows)


def _groups_csv(doc: dict) -> str:
    base = doc["base"]
    base_groups = base["groups"]
    base_area = base_groups["assignment"]
    scen = doc["scenario"]
    if scen is None:
        header = ["bus", "area", "reference_bus"]
        rows = [
            [b, base_area[str(b)], base_groups["reference_buses"][base_area[str(b)]]]
            for b in base["machine_order"]
        ]
        return _csv_lines(header, rows)
    scen_area = scen["groups"]["assignment"]
    flipped = set(doc["flipped_machines"])
    header = ["base_bus", "scenario_bus", "base_area", "scenario_area", "flipped"]
    rows = [
        [b, sb, base_area[str(b)], scen_area[str(sb)], b in flipped]
        for b, sb in zip(base["machine_order"], scen["machine_order"])
    ]
    return _csv_lines(header, rows)


def _rowsums_csv(doc: dict) -> str:
    header = ["case", "row_sum_mean", "row_sum_std", "row_sum_max", "symmetry_gap"]
    rows = []
    for label, case in _cases(doc):
        lap = case["laplacian"]
        rows.append([label, lap["row_sum_mean"], lap["row_sum_std"], lap["row_sum_max"],
                     lap["symmetry_gap"]])
    return _csv_lines(header, rows)


def _eigenvalues_csv(doc: dict) -> str:
    header = ["case", "index", "eigenvalue", "freq_estimate_hz"]
    rows = []
    for label, case in _cases(doc):
        lap = case["laplacian"]
        est = [None] + lap["mode_estimates_hz"]
        for i, e in enumerate(lap["eigenvalues"]):
            rows.append([label, i, e, est[i]])
    return _csv_lines(header, rows)


def _bounds_csv(doc: dict) -> str:
    c = doc["comparison"]
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
            doc["areas_r"],
            c["beta"],
            c["theta_matrix_norm"],
            c["bound_rhs"],
            c["bound_holds"],
            max(c["row_shift"]),
            c["row_bound_rhs"],
            c["row_bound_holds"],
        ]
    ]
    return _csv_lines(header, rows)


def band_mode_plots(doc: dict) -> list[tuple[str, int, dict, dict[int, int], str]]:
    """(label, index, mode, areas, title) for each band mode of a report
    record, in emission order; areas maps a bus to its area index."""
    plots = []
    for label, case in _cases(doc):
        areas = {int(b): a for b, a in case["groups"]["assignment"].items()}
        for i, m in enumerate(case["modes_band"]):
            title = f"{label}: mode {i + 1} at {m['freq_hz']:.3f} Hz"
            plots.append((label, i, m, areas, title))
    return plots


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
    arr = np.atleast_2d(m)
    row_fmt = ",".join([FULL_FMT] * arr.shape[1])
    lines = [",".join(str(b) for b in order)]
    lines += [row_fmt % tuple(row) for row in arr.tolist()]
    return "\n".join(lines) + "\n"


def _keep_contents(path: str, flags: int) -> int:
    """`open` with this opener leaves an existing file's bytes in place."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def _write_artifacts(staged: list[tuple[Path, str]]) -> list[Path]:
    """Write each (path, text) in order, making each parent directory once.
    An existing file is rewritten in place and cut to length, because ext4
    flushes a file to disk on close once it was opened with O_TRUNC, as by
    `Path.write_text`, whose encoding and newlines these writes keep. An
    OSError becomes an InputOutputError naming the file; the files written
    before it stay."""
    written: list[Path] = []
    made: set[Path] = set()
    try:
        for path, content in staged:
            if path.parent not in made:
                path.parent.mkdir(parents=True, exist_ok=True)
                made.add(path.parent)
            with open(path, "w", opener=_keep_contents) as f:
                f.write(content)
                f.truncate()
            written.append(path)
    except OSError as exc:
        raise InputOutputError(f"cannot write {path}: {exc}") from exc
    return written


def emit(report: ScenarioReport, out_dir: str | Path, formats: set[str]) -> list[Path]:
    """Write the requested artifacts. Every file's content is built before
    any file is opened, so a formatting failure writes nothing, and neither
    does a failure to make `out_dir`. A failure after that leaves the files
    written before it."""
    out = Path(out_dir)
    doc = report_to_dict(report)
    name = doc["name"]
    staged: list[tuple[Path, str]] = []

    if "json" in formats:
        staged.append((out / f"{name}.report.json", json.dumps(doc, indent=2) + "\n"))
    if "csv" in formats:
        staged.append((out / f"{name}.modes.csv", _modes_csv(doc)))
        staged.append((out / f"{name}.groups.csv", _groups_csv(doc)))
        staged.append((out / f"{name}.rowsums.csv", _rowsums_csv(doc)))
        staged.append((out / f"{name}.eigenvalues.csv", _eigenvalues_csv(doc)))
        if doc["comparison"] is not None:
            staged.append((out / f"{name}.bounds.csv", _bounds_csv(doc)))
    if "svg" in formats:
        for label, i, m, areas, title in band_mode_plots(doc):
            staged.append((out / f"{name}.{label}.mode{i + 1}.svg", mode_svg(m, areas, title)))
    if "matrices" in formats:
        for label, case in (("base", report.base), (name, report.scenario)):
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
    return _write_artifacts(staged)
