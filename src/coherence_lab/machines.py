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

import json
from dataclasses import dataclass
from pathlib import Path

from .errors import InputOutputError, ValidationError, read_field
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
    def machine_buses(self) -> list[int]:
        return [m.bus for m in self.sgs] + [m.bus for m in self.gfms]

    def sg_at(self, bus: int) -> Sg | None:
        for m in self.sgs:
            if m.bus == bus:
                return m
        return None

    def gfm_at(self, bus: int) -> Gfm | None:
        for m in self.gfms:
            if m.bus == bus:
                return m
        return None


def load_machines(path: str | Path) -> MachineSet:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise InputOutputError(f"cannot read machine file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"machine file {path} is not valid JSON: {exc}") from exc
    return machines_from_dict(raw)


def machines_from_dict(raw: dict) -> MachineSet:
    sgs = []
    for i, e in enumerate(raw.get("sgs", [])):
        where = f"sgs[{i}]"
        sgs.append(
            Sg(
                bus=read_field(e, "bus", int, where),
                m=read_field(e, "m", float, where),
                d=read_field(e, "d", float, where, 0.0),
                xd_prime=read_field(e, "xd_prime", float, where),
                p_set=read_field(e, "p_set", float, where),
            )
        )
    gfms = [gfm_from_dict(e, f"gfms[{i}]") for i, e in enumerate(raw.get("gfms", []))]
    ms = MachineSet(sgs=sgs, gfms=gfms)
    _validate_standalone(ms)
    return ms


def gfm_from_dict(e: dict, where: str = "gfm") -> Gfm:
    bus = read_field(e, "bus", int, where)
    known = set(GFM_DEFAULTS) | {"v_set", "p_set", "q_set"}
    unknown = set(e) - known - {"bus"}
    if unknown:
        raise ValidationError(f"gfm at bus {bus}: unknown fields {sorted(unknown)}")
    fields = dict(GFM_DEFAULTS)
    fields.update({k: read_field(e, k, float, where) for k in e if k != "bus"})
    return Gfm(bus=bus, **fields)


def _validate_standalone(ms: MachineSet) -> None:
    errors: list[str] = []
    buses = ms.machine_buses
    dupes = {b for b in buses if buses.count(b) > 1}
    if dupes:
        errors.append(f"more than one machine at bus(es) {sorted(dupes)}")
    for sg in ms.sgs:
        if sg.m <= 0:
            errors.append(f"sg at bus {sg.bus}: m must be positive")
        if sg.xd_prime <= 0:
            errors.append(f"sg at bus {sg.bus}: xd_prime must be positive")
        if sg.d < 0:
            errors.append(f"sg at bus {sg.bus}: d must be nonnegative")
    for g in ms.gfms:
        if g.tau <= 0:
            errors.append(f"gfm at bus {g.bus}: tau must be positive")
        if g.lambda_p <= 0:
            errors.append(f"gfm at bus {g.bus}: lambda_p must be positive")
        if g.lambda_q < 0:
            errors.append(f"gfm at bus {g.bus}: lambda_q must be nonnegative")
        if g.kpv < 0 or g.kiv < 0:
            errors.append(f"gfm at bus {g.bus}: kpv/kiv must be nonnegative")
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
