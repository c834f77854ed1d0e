"""Static network model: buses, branches, admittance assembly.

Conventions:
  * one-based external bus ids, zero-based internal indices in file order
  * branch pi-model with an off-nominal tap on the "from" side,
    Yff = (y + jb/2) / t^2, Yft = Ytf = -y / t, Ytt = y + jb/2
  * bus shunts enter the diagonal as shunt_g + j*shunt_b
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InputOutputError, ValidationError, read_field

BUS_KINDS = ("slack", "pv", "pq")


@dataclass(frozen=True)
class Bus:
    id: int
    kind: str
    v_setpoint: float | None = None
    load_p: float = 0.0
    load_q: float = 0.0
    shunt_g: float = 0.0
    shunt_b: float = 0.0


@dataclass(frozen=True)
class Branch:
    from_bus: int
    to_bus: int
    r: float
    x: float
    b_charging: float = 0.0
    tap: float = 1.0


@dataclass
class Network:
    base_mva: float
    f0_hz: float
    buses: list[Bus]
    branches: list[Branch]
    index_of: dict[int, int] = field(init=False)

    def __post_init__(self) -> None:
        self.index_of = {b.id: i for i, b in enumerate(self.buses)}

    @property
    def n_bus(self) -> int:
        return len(self.buses)

    @property
    def omega0(self) -> float:
        return 2.0 * np.pi * self.f0_hz

    def bus(self, bus_id: int) -> Bus:
        try:
            return self.buses[self.index_of[bus_id]]
        except KeyError:
            raise ValidationError(f"unknown bus id {bus_id}") from None

    def slack_id(self) -> int:
        for b in self.buses:
            if b.kind == "slack":
                return b.id
        raise ValidationError("network has no slack bus")


def load_network(path: str | Path) -> Network:
    """Read a network JSON file, validate it, and return the model."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise InputOutputError(f"cannot read network file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"network file {path} is not valid JSON: {exc}") from exc
    return network_from_dict(raw)


def network_from_dict(raw: dict) -> Network:
    for key in ("base_mva", "f0_hz", "buses", "branches"):
        if key not in raw:
            raise ValidationError(f"network JSON missing required key '{key}'")
    buses = []
    for i, entry in enumerate(raw["buses"]):
        where = f"buses[{i}]"
        bus_id = read_field(entry, "id", int, where)
        kind = entry.get("kind")
        if kind not in BUS_KINDS:
            raise ValidationError(f"bus {bus_id}: bad kind {kind!r}")
        buses.append(
            Bus(
                id=bus_id,
                kind=kind,
                v_setpoint=read_field(entry, "v_setpoint", float, where, None),
                load_p=read_field(entry, "load_p", float, where, 0.0),
                load_q=read_field(entry, "load_q", float, where, 0.0),
                shunt_g=read_field(entry, "shunt_g", float, where, 0.0),
                shunt_b=read_field(entry, "shunt_b", float, where, 0.0),
            )
        )
    branches = []
    for i, e in enumerate(raw["branches"]):
        where = f"branches[{i}]"
        branches.append(
            Branch(
                from_bus=read_field(e, "from", int, where),
                to_bus=read_field(e, "to", int, where),
                r=read_field(e, "r", float, where),
                x=read_field(e, "x", float, where),
                b_charging=read_field(e, "b_charging", float, where, 0.0),
                tap=read_field(e, "tap", float, where, 1.0),
            )
        )
    net = Network(
        base_mva=float(raw["base_mva"]),
        f0_hz=float(raw["f0_hz"]),
        buses=buses,
        branches=branches,
    )
    _validate(net)
    return net


def _validate(net: Network) -> None:
    errors: list[str] = []
    if net.base_mva <= 0:
        errors.append("base_mva must be positive")
    if net.f0_hz <= 0:
        errors.append("f0_hz must be positive")
    seen: set[int] = set()
    for b in net.buses:
        if b.id in seen:
            errors.append(f"duplicate bus id {b.id}")
        seen.add(b.id)
        if b.kind in ("slack", "pv") and b.v_setpoint is None:
            errors.append(f"bus {b.id}: kind {b.kind} requires v_setpoint")
        if b.v_setpoint is not None and b.v_setpoint <= 0:
            errors.append(f"bus {b.id}: v_setpoint must be positive")
    n_slack = sum(1 for b in net.buses if b.kind == "slack")
    if n_slack != 1:
        errors.append(f"expected exactly one slack bus, found {n_slack}")
    for br in net.branches:
        if br.from_bus not in seen or br.to_bus not in seen:
            errors.append(f"branch {br.from_bus}-{br.to_bus}: endpoint not a bus")
        if br.from_bus == br.to_bus:
            errors.append(f"branch {br.from_bus}-{br.to_bus}: self loop")
        if br.r == 0.0 and br.x == 0.0:
            errors.append(f"branch {br.from_bus}-{br.to_bus}: zero impedance")
        if br.tap <= 0:
            errors.append(f"branch {br.from_bus}-{br.to_bus}: tap must be positive")
    if errors:
        raise ValidationError("network validation failed: " + "; ".join(errors))


def build_admittance(net: Network, lossless: bool = False) -> np.ndarray:
    """Assemble the complex bus admittance matrix.

    With lossless=True all branch resistances and bus shunt conductances are
    dropped; charging and shunt susceptances are kept.
    """
    n = net.n_bus
    y = np.zeros((n, n), dtype=complex)
    for br in net.branches:
        f = net.index_of[br.from_bus]
        t = net.index_of[br.to_bus]
        r = 0.0 if lossless else br.r
        ys = 1.0 / complex(r, br.x)
        yc = 0.5j * br.b_charging
        tap = br.tap
        y[f, f] += (ys + yc) / tap**2
        y[t, t] += ys + yc
        y[f, t] -= ys / tap
        y[t, f] -= ys / tap
    for b in net.buses:
        k = net.index_of[b.id]
        g = 0.0 if lossless else b.shunt_g
        y[k, k] += complex(g, b.shunt_b)
    return y


def connectivity_check(net: Network) -> list[list[int]]:
    """Return the connected components of the branch graph as bus-id lists.

    A single component is the healthy case; callers decide whether more is
    an error or just a warning.
    """
    adj: dict[int, set[int]] = {b.id: set() for b in net.buses}
    for br in net.branches:
        adj[br.from_bus].add(br.to_bus)
        adj[br.to_bus].add(br.from_bus)
    unvisited = set(adj)
    components: list[list[int]] = []
    while unvisited:
        root = min(unvisited)
        stack = [root]
        comp = []
        unvisited.discard(root)
        while stack:
            node = stack.pop()
            comp.append(node)
            for nb in adj[node]:
                if nb in unvisited:
                    unvisited.discard(nb)
                    stack.append(nb)
        components.append(sorted(comp))
    components.sort(key=lambda c: (-len(c), c[0]))
    return components
