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

from .errors import ValidationError, as_int, as_list, read_field, read_json
from .network import Network

GFM_DEFAULTS = {
    "tau": 0.05,
    "lambda_p": 0.05,
    "lambda_q": 0.05,
    "kpv": 0.5,
    "kiv": 20.0,
}


@dataclass(frozen=True)
class Sg:
    bus: int
    m: float
    d: float
    xd_prime: float
    p_set: float

    def d_internal(self, omega0: float) -> float:
        # pu power per rad/s
        return self.d / omega0


@dataclass(frozen=True)
class Gfm:
    bus: int
    tau: float = GFM_DEFAULTS["tau"]
    lambda_p: float = GFM_DEFAULTS["lambda_p"]
    lambda_q: float = GFM_DEFAULTS["lambda_q"]
    kpv: float = GFM_DEFAULTS["kpv"]
    kiv: float = GFM_DEFAULTS["kiv"]
    v_set: float = 1.0
    p_set: float = 0.0
    q_set: float = 0.0

    def lambda_p_internal(self, omega0: float) -> float:
        # rad/s of frequency droop per pu of power
        return self.lambda_p * omega0

    def m_equivalent(self, omega0: float) -> float:
        """Inertia-equivalent mass of the frequency droop loop."""
        return self.tau / self.lambda_p_internal(omega0)


@dataclass
class MachineSet:
    sgs: list[Sg]
    gfms: list[Gfm]

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

    def sg_at(self, bus: int) -> Sg | None:
        for m in self.sgs:
            if m.bus == bus:
                return m
        return None


def load_machines(path: str | Path) -> MachineSet:
    return machines_from_dict(read_json(path, "machine file"))


def machines_from_dict(raw: dict) -> MachineSet:
    sgs = []
    for i, e in enumerate(read_field(raw, "sgs", as_list, "machines", [])):
        where = f"sgs[{i}]"
        sg = Sg(
            bus=read_field(e, "bus", as_int, where),
            m=read_field(e, "m", float, where),
            d=read_field(e, "d", float, where, 0.0),
            xd_prime=read_field(e, "xd_prime", float, where),
            p_set=read_field(e, "p_set", float, where),
        )
        _check(where, [(sg.m > 0, "m must be positive"),
                       (sg.xd_prime > 0, "xd_prime must be positive"),
                       (sg.d >= 0, "d must be nonnegative")])
        sgs.append(sg)
    gfms = [
        gfm_from_dict(e, f"gfms[{i}]")
        for i, e in enumerate(read_field(raw, "gfms", as_list, "machines", []))
    ]
    ms = MachineSet(sgs=sgs, gfms=gfms)
    _validate_standalone(ms)
    return ms


def gfm_from_dict(e: dict, where: str = "gfm") -> Gfm:
    """One GFM, checked by the same rules wherever it comes from: a fleet
    file or a scenario replacement."""
    bus = read_field(e, "bus", as_int, where)
    known = set(GFM_DEFAULTS) | {"v_set", "p_set", "q_set"}
    unknown = set(e) - known - {"bus"}
    if unknown:
        raise ValidationError(f"gfm at bus {bus}: unknown fields {sorted(unknown)}")
    fields = dict(GFM_DEFAULTS)
    fields.update({k: read_field(e, k, float, where) for k in e if k != "bus"})
    g = Gfm(bus=bus, **fields)
    _check(where, [(g.tau > 0, "tau must be positive"),
                   (g.lambda_p > 0, "lambda_p must be positive"),
                   (g.lambda_q >= 0, "lambda_q must be nonnegative"),
                   (g.kpv >= 0 and g.kiv >= 0, "kpv/kiv must be nonnegative"),
                   (g.v_set > 0, "v_set must be positive")])
    return g


def _check(where: str, rules: list[tuple[bool, str]]) -> None:
    """Raise ValidationError naming the entry and every rule it breaks."""
    broken = [rule for ok, rule in rules if not ok]
    if broken:
        raise ValidationError(f"{where}: " + "; ".join(broken))


def _validate_standalone(ms: MachineSet) -> None:
    errors: list[str] = []
    buses = ms.machine_buses
    dupes = {b for b in buses if buses.count(b) > 1}
    if dupes:
        errors.append(f"more than one machine at bus(es) {sorted(dupes)}")
    if not buses:
        errors.append("machine set is empty")
    if errors:
        raise ValidationError("machine validation failed: " + "; ".join(errors))


def validate_against_network(ms: MachineSet, net: Network) -> None:
    """Cross-checks that need the network: bus existence and kinds."""
    errors: list[str] = []
    for bus in ms.machine_buses:
        if bus not in net.index_of:
            errors.append(f"machine bus {bus} not in network")
        elif net.bus(bus).kind not in ("slack", "pv"):
            errors.append(f"machine bus {bus} must be slack or pv, got {net.bus(bus).kind}")
    slack = net.slack_id()
    if slack not in ms.machine_buses:
        errors.append(f"slack bus {slack} has no machine")
    if errors:
        raise ValidationError("machine/network validation failed: " + "; ".join(errors))
