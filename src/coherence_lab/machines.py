"""Machine fleet model: synchronous generators and grid-forming inverters.

Data-file conventions (all on the network MVA base):
  * sg.m is the swing coefficient multiplying d(omega)/dt with omega in
    rad/s, i.e. 2H/omega0 for inertia constant H in seconds
  * sg.d is pu damping power per pu frequency deviation
  * gfm.lambda_p is the per-unit active droop (0.05 means 5 percent),
    gfm.lambda_q the per-unit reactive droop

Internally the frequency loop works in rad/s, so the per-unit droop and
damping values are rescaled by omega0 where they meet a rad/s signal.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError, check, read_json, read_record, store_tuples
from .network import Network

@dataclass(frozen=True)
class Sg:
    bus: int
    m: float
    xd_prime: float
    p_set: float
    d: float = 0.0

    def __post_init__(self) -> None:
        check(self, lambda: [(self.m > 0, "m must be positive"),
                             (self.xd_prime > 0, "xd_prime must be positive"),
                             (self.d >= 0, "d must be nonnegative")])

    def d_internal(self, omega0: float) -> float:
        # pu power per rad/s
        return self.d / omega0


@dataclass(frozen=True)
class Gfm:
    bus: int
    tau: float = 0.05
    lambda_p: float = 0.05
    lambda_q: float = 0.05
    kpv: float = 0.5
    kiv: float = 20.0
    v_set: float = 1.0
    p_set: float = 0.0
    q_set: float = 0.0

    def __post_init__(self) -> None:
        check(self, lambda: [(self.tau > 0, "tau must be positive"),
                             (self.lambda_p > 0, "lambda_p must be positive"),
                             (self.lambda_q >= 0, "lambda_q must be nonnegative"),
                             (self.kpv >= 0 and self.kiv >= 0, "kpv/kiv must be nonnegative"),
                             (self.v_set > 0, "v_set must be positive")])

    def lambda_p_internal(self, omega0: float) -> float:
        # rad/s of frequency droop per pu of power
        return self.lambda_p * omega0

    def m_equivalent(self, omega0: float) -> float:
        """Inertia-equivalent mass of the frequency droop loop."""
        return self.tau / self.lambda_p_internal(omega0)


@dataclass(frozen=True)
class MachineSet:
    sgs: tuple[Sg, ...] = ()
    gfms: tuple[Gfm, ...] = ()

    def __post_init__(self) -> None:
        def rules():
            buses = self.machine_buses
            dupes = sorted({b for b in buses if buses.count(b) > 1})
            return [(not dupes, "more than one machine at bus(es) {}", dupes),
                    (bool(buses), "machine set is empty")]
        check(self, rules)
        store_tuples(self, "sgs", "gfms")

    @property
    def fleet(self) -> list[Sg | Gfm]:
        """Every machine in fleet order: SGs, then GFMs."""
        return [*self.sgs, *self.gfms]

    @property
    def machine_buses(self) -> list[int]:
        return [m.bus for m in self.fleet]

    def gfm_arrays(self, *fields: str) -> list[np.ndarray]:
        """One array per named GFM parameter, in fleet order."""
        return [np.array([getattr(g, f) for g in self.gfms]) for f in fields]


def load_machines(path: str | Path) -> MachineSet:
    return machines_from_dict(read_json(path, "machine file"))


def machines_from_dict(raw: dict) -> MachineSet:
    return read_record(MachineSet, raw, "machines")


def validate_against_network(ms: MachineSet, net: Network) -> None:
    """Cross-checks that need the network: bus existence and kinds, each
    GFM's v_set equal to its bus's v_setpoint, the voltage it holds, and a
    machine at every slack and pv bus, to supply its reactive power."""
    errors: list[str] = []
    v_set = {g.bus: g.v_set for g in ms.gfms}
    for bus in ms.machine_buses:
        if bus not in net.index_of:
            errors.append(f"machine bus {bus} not in network")
        elif net.bus(bus).kind not in ("slack", "pv"):
            errors.append(f"machine bus {bus} must be slack or pv, got {net.bus(bus).kind}")
        elif bus in v_set and v_set[bus] != net.bus(bus).v_setpoint:
            errors.append(f"gfm at bus {bus}: v_set {v_set[bus]!r} differs from the "
                          f"bus v_setpoint {net.bus(bus).v_setpoint!r}")
    held = set(ms.machine_buses)
    errors += [f"{b.kind} bus {b.id} has no machine" for b in net.buses
               if b.kind != "pq" and b.id not in held]
    if errors:
        raise ValidationError("machine/network validation failed: " + "; ".join(errors))
