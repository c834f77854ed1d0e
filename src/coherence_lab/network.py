"""Static network model: buses, branches, admittance assembly.

Conventions:
  * one-based external bus ids, zero-based internal indices in file order
  * branch pi-model with an off-nominal tap on the "from" side,
    Yff = (y + jb/2) / t^2, Yft = Ytf = -y / t, Ytt = y + jb/2
  * bus shunts enter the diagonal as shunt_g + j*shunt_b
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ValidationError, check, read_json, read_record, store_tuples


@dataclass(frozen=True)
class Bus:
    id: int
    kind: str
    v_setpoint: float | None = None
    load_p: float = 0.0
    load_q: float = 0.0
    shunt_g: float = 0.0
    shunt_b: float = 0.0

    def __post_init__(self) -> None:
        check(self, lambda: [
            (self.kind in ("slack", "pv", "pq"), "bus {0.id}: bad kind {0.kind!r}", self),
            (self.kind not in ("slack", "pv") or self.v_setpoint is not None,
             "bus {0.id}: kind {0.kind} requires v_setpoint", self),
            (self.v_setpoint is None or self.v_setpoint > 0,
             "bus {0.id}: v_setpoint must be positive", self),
        ])


@dataclass(frozen=True)
class Branch:
    from_bus: int = field(metadata={"key": "from"})
    to_bus: int = field(metadata={"key": "to"})
    r: float
    x: float
    b_charging: float = 0.0
    tap: float = 1.0

    def __post_init__(self) -> None:
        check(self, lambda: [
            (self.from_bus != self.to_bus, "branch {0.from_bus}-{0.to_bus}: self loop", self),
            (self.r != 0.0 or self.x != 0.0, "branch {0.from_bus}-{0.to_bus}: zero impedance",
             self),
            # the lossless stamp is 1/(jx), and every stamp divides by tap^2
            (self.r == 0.0 or self.x != 0.0, "branch {0.from_bus}-{0.to_bus}: x must be nonzero",
             self),
            (self.tap > 0, "branch {0.from_bus}-{0.to_bus}: tap must be positive", self),
            (self.tap <= 0 or 0.0 < self.tap * self.tap < math.inf,
             "branch {0.from_bus}-{0.to_bus}: tap {0.tap!r} is out of range", self),
        ])


@dataclass(frozen=True)
class Network:
    base_mva: float
    f0_hz: float
    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]

    def __post_init__(self) -> None:
        check(self, lambda: [
            (self.base_mva > 0, "base_mva must be positive"),
            (self.f0_hz > 0, "f0_hz must be positive"),
            *[(False, "duplicate bus id {}", b.id)  # index_of keeps the last of each id
              for i, b in enumerate(self.buses) if self.index_of[b.id] != i],
            ((n_slack := [b.kind for b in self.buses].count("slack")) == 1,
             "expected exactly one slack bus, found {}", n_slack),
            *[(False, "branch {}-{}: endpoint not a bus", br.from_bus, br.to_bus)
              for br in self.branches
              if br.from_bus not in self.index_of or br.to_bus not in self.index_of],
        ])
        store_tuples(self, "buses", "branches")

    @functools.cached_property
    def index_of(self) -> dict[int, int]:
        """The position of each bus id in file order."""
        return {b.id: i for i, b in enumerate(self.buses)}

    @property
    def n_bus(self) -> int:
        return len(self.buses)

    @property
    def omega0(self) -> float:
        return 2.0 * np.pi * self.f0_hz

    def rows(self, bus_ids: list[int]) -> np.ndarray:
        """The position of each bus id in file order."""
        return np.array([self.index_of[b] for b in bus_ids], dtype=int)

    def bus(self, bus_id: int) -> Bus:
        try:
            return self.buses[self.index_of[bus_id]]
        except KeyError:
            raise ValidationError(f"unknown bus id {bus_id}") from None

    def slack_id(self) -> int:
        return next(b.id for b in self.buses if b.kind == "slack")


def load_network(path: str | Path) -> Network:
    """Read a network JSON file, validate it, and return the model."""
    return network_from_dict(read_json(path, "network file"))


def network_from_dict(raw: dict) -> Network:
    return read_record(Network, raw, "network")


def build_admittance(net: Network, lossless: bool = False) -> np.ndarray:
    """Assemble the complex bus admittance matrix.

    With lossless=True all branch resistances and bus shunt conductances are
    dropped; charging and shunt susceptances are kept.
    """
    # np.add.at is unbuffered: stamps accumulate in branch order, then shunts
    rows, cols, vals = [], [], []
    for br in net.branches:
        f = net.index_of[br.from_bus]
        t = net.index_of[br.to_bus]
        ys = 1.0 / complex(0.0 if lossless else br.r, br.x)
        yc = 0.5j * br.b_charging
        rows += (f, t, f, t)
        cols += (f, t, t, f)
        vals += ((ys + yc) / br.tap**2, ys + yc, -(ys / br.tap), -(ys / br.tap))
    diag = list(range(net.n_bus))  # bus ids are unique, so buses sit in file order
    vals += [complex(0.0 if lossless else b.shunt_g, b.shunt_b) for b in net.buses]
    y = np.zeros((net.n_bus, net.n_bus), dtype=complex)
    np.add.at(y, (rows + diag, cols + diag), np.array(vals, dtype=complex))
    return y


def _pattern(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-major (rows, cols) of the nonzeros of y plus its whole diagonal:
    every entry where a network power derivative can be nonzero."""
    mask = y != 0
    np.fill_diagonal(mask, True)
    return np.divmod(np.flatnonzero(mask), y.shape[1])  # 2-D np.nonzero is ~10x slower


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
