"""Output checks made apart from the program.

Each check compares a result against an independent computation from the
input data, or against a property the method must have; none compares
against stored output. A failed check raises CheckFailure.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

ROW_SUM_TOL = 1e-10
SYMMETRY_REL = 1e-8
EIG_REL = 1e-8
ZERO_REL = 1e-9
CLOSED_FORM_REL = 1e-9


class CheckFailure(AssertionError):
    pass


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailure(what)


def stamp_admittance(net: dict, lossless: bool = False) -> np.ndarray:
    """Bus admittance matrix from the README's pi-model convention:
    Yff = (y + jb/2)/t^2, Yft = Ytf = -y/t, Ytt = y + jb/2, plus bus shunts.
    With lossless=True, branch resistance and shunt conductance are dropped."""
    idx = {b["id"]: i for i, b in enumerate(net["buses"])}
    y = np.zeros((len(idx), len(idx)), dtype=complex)
    for br in net["branches"]:
        f, t = idx[br["from"]], idx[br["to"]]
        ys = 1.0 / complex(0.0 if lossless else br["r"], br["x"])
        yc = 0.5j * br.get("b_charging", 0.0)
        tap = br.get("tap", 1.0)
        y[f, f] += (ys + yc) / tap**2
        y[t, t] += ys + yc
        y[f, t] -= ys / tap
        y[t, f] -= ys / tap
    for b in net["buses"]:
        g = 0.0 if lossless else b.get("shunt_g", 0.0)
        y[idx[b["id"]], idx[b["id"]]] += complex(g, b.get("shunt_b", 0.0))
    return y


def check_power_flow(net: dict, case, tol: float) -> None:
    """The returned voltages meet every scheduled injection within tol.

    Bus kinds and machine set-points are the case's own (a scenario turns
    retired buses into pq and GFM buses into pv); loads and branches come
    from the input data."""
    v = case.sol.v
    s = v * np.conj(stamp_admittance(net) @ v)
    p_gen = {m.bus: m.p_set for m in case.machines.sgs + case.machines.gfms}
    worst = 0.0
    for k, (b, bus) in enumerate(zip(net["buses"], case.net.buses, strict=True)):
        require(b["id"] == bus.id, "the case reorders the buses")
        kind = bus.kind
        if kind == "slack":
            continue
        p_spec = p_gen.get(b["id"], 0.0) - b.get("load_p", 0.0)
        worst = max(worst, abs(s[k].real - p_spec))
        if kind == "pq":
            worst = max(worst, abs(s[k].imag + b.get("load_q", 0.0)))
    require(worst <= tol, f"power-flow mismatch {worst:.3e} exceeds tol {tol:.1e}")


def check_laplacian(case) -> None:
    """L rows sum to zero and L is symmetric; the eigenvalues of M_e^-1 L
    have exactly one zero and agree with the reported slow spectrum."""
    l, m_e = case.lap.l, case.lap.m_e
    row = float(np.max(np.abs(l.sum(axis=1))))
    require(row <= ROW_SUM_TOL, f"L row sum {row:.3e} exceeds {ROW_SUM_TOL:.0e}")
    scale_l = float(np.max(np.abs(l)))
    asym = float(np.max(np.abs(l - l.T)))
    require(asym <= SYMMETRY_REL * scale_l, f"L asymmetry {asym:.3e}")

    ev = np.linalg.eigvals(l / m_e[:, None])
    scale = max(float(np.max(np.abs(ev))), 1.0)
    n_zero = int(np.sum(np.abs(ev) <= ZERO_REL * scale))
    require(n_zero == 1, f"M_e^-1 L has {n_zero} zero eigenvalues, expected 1")
    require(float(np.max(np.abs(ev.imag))) <= EIG_REL * scale, "M_e^-1 L has complex eigenvalues")
    got = np.sort(np.asarray(case.sub.eigenvalues, dtype=float))
    gap = float(np.max(np.abs(np.sort(ev.real) - got)))
    require(gap <= EIG_REL * scale, f"slow spectrum differs from eigvals by {gap:.3e}")


def check_closed_form(net: dict, case) -> None:
    """L equals E_i E_j B_ij cos(delta_i - delta_j) off the diagonal, with
    B the susceptance network Kron-reduced here onto the machine sources
    (SG internal nodes behind xd', GFM buses) and E, delta backed out of
    the returned voltages."""
    idx = {b["id"]: i for i, b in enumerate(net["buses"])}
    n = len(idx)
    v = case.sol.v
    s = v * np.conj(stamp_admittance(net) @ v)
    load = np.array([complex(b.get("load_p", 0.0), b.get("load_q", 0.0)) for b in net["buses"]])
    b_bus = stamp_admittance(net, lossless=True).imag
    b_bus[np.diag_indices(n)] -= load.imag / np.abs(v) ** 2

    sgs = {m.bus: m for m in case.machines.sgs}
    slots = list(case.slot_buses)
    sg_slots = [i for i, bus in enumerate(slots) if bus in sgs]
    n_sg = len(sg_slots)
    b_full = np.zeros((n + n_sg, n + n_sg))
    b_full[:n, :n] = b_bus
    e = np.zeros(len(slots))
    d = np.zeros(len(slots))
    source = np.zeros(len(slots), dtype=int)
    for j, i in enumerate(sg_slots):
        bus = slots[i]
        k = idx[bus]
        bg = 1.0 / sgs[bus].xd_prime
        b_full[n + j, n + j] -= bg
        b_full[k, k] -= bg
        b_full[n + j, k] += bg
        b_full[k, n + j] += bg
        u = v[k] + 1j * sgs[bus].xd_prime * np.conj((s[k] + load[k]) / v[k])
        e[i], d[i], source[i] = abs(u), np.angle(u), n + j
    for i, bus in enumerate(slots):
        if bus not in sgs:
            k = idx[bus]
            e[i], d[i], source[i] = abs(v[k]), np.angle(v[k]), k
    keep = np.setdiff1d(np.arange(n + n_sg), source)
    bfr = b_full[np.ix_(source, keep)]
    kron = b_full[np.ix_(source, source)] - bfr @ np.linalg.solve(
        b_full[np.ix_(keep, keep)], bfr.T)
    want = np.outer(e, e) * kron * np.cos(d[:, None] - d[None, :])
    np.fill_diagonal(want, 0.0)
    np.fill_diagonal(want, -want.sum(axis=1))
    gap = float(np.max(np.abs(case.lap.l - want)))
    scale = float(np.max(np.abs(want)))
    require(gap <= CLOSED_FORM_REL * scale, f"L differs from the closed form by {gap:.3e}")


def check_partition(case, areas_r: int) -> None:
    """The areas partition the machines into areas_r non-empty areas, each
    holding its own reference machine."""
    areas = case.part.areas
    members = [b for a in areas for b in a]
    require(len(areas) == areas_r, f"{len(areas)} areas, expected {areas_r}")
    require(sorted(members) == sorted(case.slot_buses), "areas do not partition the machines")
    refs = case.part.reference_buses
    require(len(refs) == areas_r, "one reference machine per area expected")
    for a, (lst, ref) in enumerate(zip(areas, refs)):
        require(ref in lst, f"area {a} does not hold its reference machine {ref}")


def check_gfm_slots(report, replacements: list[dict]) -> None:
    """Each GFM sits in the slot of the SG it replaced, with a smaller m_e."""
    base, scen = report.base, report.scenario
    for rep in replacements:
        slot = base.slot_buses.index(rep["retire_sg_bus"])
        require(scen.slot_buses[slot] == rep["gfm_bus"],
                f"slot of bus {rep['retire_sg_bus']} holds {scen.slot_buses[slot]}")
        require(scen.lap.m_e[slot] < base.lap.m_e[slot],
                f"GFM at bus {rep['gfm_bus']} is not lighter than the SG it replaced")


def read_matrix_csv(path: Path) -> tuple[list[int], np.ndarray]:
    lines = path.read_text().splitlines()
    order = [int(x) for x in lines[0].split(",")]
    return order, np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])


def check_artifacts(report, out_dir: Path) -> None:
    """report.json parses, and each l.csv reads back equal to the returned L."""
    name = report.spec.name
    try:
        data = json.loads((out_dir / f"{name}.report.json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckFailure(f"report.json unreadable: {exc}") from None
    require(data.get("name") == name, "report.json names another scenario")
    for label, case in (("base", report.base), (name, report.scenario)):
        try:
            order, l = read_matrix_csv(out_dir / f"{name}.matrices" / label / "l.csv")
        except (OSError, ValueError) as exc:
            raise CheckFailure(f"{label} l.csv unreadable: {exc}") from None
        require(order == list(case.slot_buses), f"{label} l.csv machine order differs")
        require(l.shape == case.lap.l.shape and np.array_equal(l, case.lap.l),
                f"{label} l.csv differs from the returned L")


def check_job(job, report, out_dir: Path | None, closed_form: bool) -> None:
    """Every check on one job: both cases, the GFM slots, the artifacts."""
    spec = job.scenario_dict
    for case in (report.base, report.scenario):
        check_power_flow(job.net_dict, case, spec["options"]["tol"])
        check_laplacian(case)
        check_partition(case, spec["areas_r"])
        if closed_form:
            check_closed_form(job.net_dict, case)
    check_gfm_slots(report, spec["replacements"])
    if out_dir is not None:
        check_artifacts(report, out_dir)
