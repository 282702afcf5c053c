"""Physical distribution-network description: types, JSON parsing, validation.

Documents are UTF-8 JSON with top-level keys ``name``, ``omega_hz`` (or
``omega_rad_s``), ``buses[]`` and ``lines[]``. Numeric fields may carry a unit
suffix (``R_ohm``, ``R_mohm``, ``L_mH``, ``C_mF``, ``P_kW``, ...); a bare field
name means SI units. Values are normalized to SI on parse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ConfigError

OMEGA_60HZ = 2.0 * math.pi * 60.0

# Accepted suffix spellings per physical dimension, with multiplier to SI.
_UNIT_SUFFIXES = {
    "resistance": {"": 1.0, "_ohm": 1.0, "_mohm": 1e-3},
    "inductance": {"": 1.0, "_H": 1.0, "_mH": 1e-3},
    "capacitance": {"": 1.0, "_F": 1.0, "_mF": 1e-3, "_uF": 1e-6},
    "current": {"": 1.0, "_A": 1.0},
    "active_power": {"": 1.0, "_W": 1.0, "_kW": 1e3},
    "reactive_power": {"": 1.0, "_VAR": 1.0, "_kVAR": 1e3},
    "angle": {"": 1.0, "_rad": 1.0},
    "plain": {"": 1.0},
}

@dataclass(frozen=True)
class ControlInput:
    """Converter set point: chopper duty cycle, inverter phase angle, modulation index."""

    d: float = 0.5
    delta: float = 0.1
    m_a: float = 0.8


@dataclass(frozen=True)
class LoadParams:
    """Load bus circuit: shunt C, parallel R, series Rl-L branch.

    P, Q and pf are operating-point metadata; the four circuit values drive
    the dynamics.
    """

    P: float
    Q: float
    pf: float
    R: float
    L: float
    Rl: float
    C: float


@dataclass(frozen=True)
class PvbParams:
    """PV + battery resource parameters.

    R_PV is the signed slope dv_pv/di_pv of the linearized PV curve and must
    be negative for a physical panel.
    """

    R_PV: float
    I_PV: float
    L_1PV: float
    C_PV: float
    R_2PV: float
    L_2PV: float
    R_s: float
    R_e: float
    R_t: float
    C_s: float
    C_b: float
    operating_point: ControlInput = field(default_factory=ControlInput)


@dataclass(frozen=True)
class BusSpec:
    """One bus. Every bus requires load params: the resource's measurements
    include the load current at its own bus. kind='PVB' also requires pvb
    params; kind='Load' forbids them."""

    id: int
    kind: str  # 'PVB' | 'Load'
    load: LoadParams | None = None
    pvb: PvbParams | None = None


@dataclass(frozen=True)
class LineSpec:
    """Series R-L connection between two buses."""

    from_bus: int
    to_bus: int
    R: float
    L: float

    def key(self) -> tuple[int, int]:
        """Unordered endpoint pair, normalized low-high."""
        a, b = self.from_bus, self.to_bus
        return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class NetworkModel:
    name: str
    omega_nom: float
    buses: tuple[BusSpec, ...]
    lines: tuple[LineSpec, ...]

    def bus(self, bus_id: int) -> BusSpec:
        for b in self.buses:
            if b.id == bus_id:
                return b
        raise KeyError(f"no bus {bus_id}")

    @property
    def bus_ids(self) -> list[int]:
        return [b.id for b in self.buses]


@dataclass(frozen=True)
class Violation:
    code: str
    location: str
    message: str

    def __str__(self) -> str:
        return f"[{self.code}] {self.location}: {self.message}"


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def _get_number(obj: dict, name: str, dim: str, loc: str, required: bool = True,
                default: float | None = None) -> float | None:
    """Fetch a numeric field accepting any unit-suffixed spelling of `name`."""
    hits = []
    for suffix, factor in _UNIT_SUFFIXES[dim].items():
        key = name + suffix
        if key in obj:
            hits.append((key, factor))
    if not hits:
        if required:
            spellings = ", ".join(name + s for s in _UNIT_SUFFIXES[dim])
            raise ConfigError(
                f"missing field '{name}' (accepted spellings: {spellings})", loc)
        return default
    if len(hits) > 1:
        raise ConfigError(
            f"field '{name}' given more than once: {[k for k, _ in hits]}", loc)
    key, factor = hits[0]
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"field '{key}' must be a number", loc)
    return float(value) * factor


def _require(obj, key, typ, loc):
    if key not in obj:
        raise ConfigError(f"missing field '{key}'", loc)
    value = obj[key]
    if not isinstance(value, typ) or isinstance(value, bool):
        raise ConfigError(f"field '{key}' has wrong type", loc)
    return value


def _parse_load(obj: dict, loc: str) -> LoadParams:
    return LoadParams(
        P=_get_number(obj, "P", "active_power", loc),
        Q=_get_number(obj, "Q", "reactive_power", loc),
        pf=_get_number(obj, "pf", "plain", loc),
        R=_get_number(obj, "R", "resistance", loc),
        L=_get_number(obj, "L", "inductance", loc),
        Rl=_get_number(obj, "Rl", "resistance", loc),
        C=_get_number(obj, "C", "capacitance", loc),
    )


def _parse_pvb(obj: dict, loc: str) -> PvbParams:
    op = ControlInput()
    if "operating_point" in obj:
        op_obj = _require(obj, "operating_point", dict, loc)
        op_loc = loc + ".operating_point"
        op = ControlInput(
            d=_get_number(op_obj, "d", "plain", op_loc, required=False, default=op.d),
            delta=_get_number(op_obj, "delta", "angle", op_loc, required=False, default=op.delta),
            m_a=_get_number(op_obj, "m_a", "plain", op_loc, required=False, default=op.m_a),
        )
    return PvbParams(
        R_PV=_get_number(obj, "R_PV", "resistance", loc),
        I_PV=_get_number(obj, "I_PV", "current", loc),
        L_1PV=_get_number(obj, "L_1PV", "inductance", loc),
        C_PV=_get_number(obj, "C_PV", "capacitance", loc),
        R_2PV=_get_number(obj, "R_2PV", "resistance", loc),
        L_2PV=_get_number(obj, "L_2PV", "inductance", loc),
        R_s=_get_number(obj, "R_s", "resistance", loc),
        R_e=_get_number(obj, "R_e", "resistance", loc),
        R_t=_get_number(obj, "R_t", "resistance", loc),
        C_s=_get_number(obj, "C_s", "capacitance", loc),
        C_b=_get_number(obj, "C_b", "capacitance", loc),
        operating_point=op,
    )


def parse_network(doc: dict) -> NetworkModel:
    """Build a NetworkModel from a parsed JSON document.

    Raises ConfigError with a document location on any schema or
    invariant problem; the returned model always satisfies validate().
    """
    if not isinstance(doc, dict):
        raise ConfigError("document root must be a JSON object", "$")
    name = doc.get("name", "network")
    if not isinstance(name, str):
        raise ConfigError("field 'name' must be a string", "$")

    if "omega_hz" in doc and "omega_rad_s" in doc:
        raise ConfigError("give either 'omega_hz' or 'omega_rad_s', not both", "$")
    if "omega_rad_s" in doc:
        omega = float(_require(doc, "omega_rad_s", (int, float), "$"))
    elif "omega_hz" in doc:
        omega = 2.0 * math.pi * float(_require(doc, "omega_hz", (int, float), "$"))
    else:
        omega = OMEGA_60HZ

    bus_objs = _require(doc, "buses", list, "$")
    if len(bus_objs) == 0:
        raise ConfigError("empty network (no buses)", "$.buses")
    buses = []
    for i, b in enumerate(bus_objs):
        loc = f"$.buses[{i}]"
        if not isinstance(b, dict):
            raise ConfigError("bus entry must be an object", loc)
        bus_id = _require(b, "id", int, loc)
        kind = _require(b, "kind", str, loc)
        if kind not in ("PVB", "Load"):
            raise ConfigError(f"unknown bus kind '{kind}'", loc)
        load = _parse_load(b["load"], loc + ".load") if "load" in b else None
        pvb = _parse_pvb(b["pvb"], loc + ".pvb") if "pvb" in b else None
        if kind == "PVB" and pvb is None:
            raise ConfigError("PVB bus needs 'pvb' parameters", loc)
        if load is None:
            raise ConfigError(f"{kind} bus needs 'load' parameters", loc)
        if kind == "Load" and pvb is not None:
            raise ConfigError("Load bus cannot carry 'pvb' parameters", loc)
        buses.append(BusSpec(id=bus_id, kind=kind, load=load, pvb=pvb))

    line_objs = _require(doc, "lines", list, "$")
    lines = []
    for i, ln in enumerate(line_objs):
        loc = f"$.lines[{i}]"
        if not isinstance(ln, dict):
            raise ConfigError("line entry must be an object", loc)
        lines.append(LineSpec(
            from_bus=_require(ln, "from", int, loc),
            to_bus=_require(ln, "to", int, loc),
            R=_get_number(ln, "R", "resistance", loc),
            L=_get_number(ln, "L", "inductance", loc),
        ))

    model = NetworkModel(name=name, omega_nom=omega,
                         buses=tuple(buses), lines=tuple(lines))
    report = validate(model)
    if report:
        first = report[0]
        raise ConfigError(
            f"[{first.code}] {first.message} ({len(report)} violation(s) total)",
            first.location)
    return model


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def connected(bus_ids, lines) -> bool:
    """Whether `lines` join all of `bus_ids` into one graph; every line end
    must be one of them. No buses is not connected."""
    adj: dict[int, set[int]] = {b: set() for b in bus_ids}
    for ln in lines:
        adj[ln.from_bus].add(ln.to_bus)
        adj[ln.to_bus].add(ln.from_bus)
    if not adj:
        return False
    first = next(iter(adj))
    seen, stack = {first}, [first]
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) == len(adj)


def validate(model: NetworkModel) -> list[Violation]:
    """Check every structural and physical invariant; empty list means valid.

    Violations are data, not exceptions, and come back sorted by location.
    """
    out: list[Violation] = []

    def bad(code, loc, msg):
        out.append(Violation(code, loc, msg))

    if model.omega_nom <= 0:
        bad("non-physical-frequency", "$.omega", "omega_nom must be > 0")

    seen_ids: set[int] = set()
    for i, b in enumerate(model.buses):
        loc = f"$.buses[{i}]"
        if b.id in seen_ids:
            bad("duplicate-bus", loc, f"bus id {b.id} appears more than once")
        seen_ids.add(b.id)
        if b.kind == "PVB" and b.pvb is None:
            bad("missing-pvb-params", loc, "PVB bus without pvb parameters")
        if b.load is None:
            bad("missing-load-params", loc, f"{b.kind} bus without load parameters")
        if b.kind == "Load" and b.pvb is not None:
            bad("unexpected-pvb-params", loc, "Load bus carries pvb parameters")
        if b.load is not None:
            l = b.load
            for fname, val in (("R", l.R), ("L", l.L), ("Rl", l.Rl), ("C", l.C)):
                if not val > 0:
                    bad("non-physical-" + ("inductance" if fname == "L" else
                                           "capacitance" if fname == "C" else "resistance"),
                        f"{loc}.load.{fname}", f"{fname} must be > 0, got {val}")
            if not (0.0 < l.pf <= 1.0):
                bad("bad-power-factor", f"{loc}.load.pf", f"pf must be in (0,1], got {l.pf}")
        if b.pvb is not None:
            p = b.pvb
            for fname, val in (("L_1PV", p.L_1PV), ("L_2PV", p.L_2PV)):
                if not val > 0:
                    bad("non-physical-inductance", f"{loc}.pvb.{fname}",
                        f"{fname} must be > 0, got {val}")
            for fname, val in (("C_PV", p.C_PV), ("C_s", p.C_s), ("C_b", p.C_b)):
                if not val > 0:
                    bad("non-physical-capacitance", f"{loc}.pvb.{fname}",
                        f"{fname} must be > 0, got {val}")
            for fname, val in (("R_s", p.R_s), ("R_e", p.R_e), ("R_t", p.R_t)):
                if not val > 0:
                    bad("non-physical-resistance", f"{loc}.pvb.{fname}",
                        f"{fname} must be > 0, got {val}")
            # Negative slope only: a panel's linearized dv/di is < 0.
            if not p.R_PV < 0:
                bad("non-physical-pv-slope", f"{loc}.pvb.R_PV",
                    f"R_PV must be < 0 (signed dv/di slope), got {p.R_PV}")
            op = p.operating_point
            if not (0.0 <= op.d <= 1.0):
                bad("bad-operating-point", f"{loc}.pvb.operating_point.d",
                    f"duty cycle must be in [0,1], got {op.d}")
            if not (0.0 <= op.m_a <= 1.0):
                bad("bad-operating-point", f"{loc}.pvb.operating_point.m_a",
                    f"modulation index must be in [0,1], got {op.m_a}")

    seen_pairs: set[tuple[int, int]] = set()
    for i, ln in enumerate(model.lines):
        loc = f"$.lines[{i}]"
        if ln.from_bus == ln.to_bus:
            bad("self-loop", loc, f"line endpoints coincide at bus {ln.from_bus}")
        for end in (ln.from_bus, ln.to_bus):
            if end not in seen_ids:
                bad("dangling-endpoint", loc, f"line references nonexistent bus {end}")
        if ln.key() in seen_pairs:
            bad("duplicate-line", loc, f"more than one line between {ln.key()}")
        seen_pairs.add(ln.key())
        if not ln.R > 0:
            bad("non-physical-resistance", f"{loc}.R", f"R must be > 0, got {ln.R}")
        if not ln.L > 0:
            bad("non-physical-inductance", f"{loc}.L", f"L must be > 0, got {ln.L}")

    # only reached without dangling line ends
    if not out and not connected(model.bus_ids, model.lines):
        bad("disconnected", "$", "network graph is not connected")

    out.sort(key=lambda v: (v.location, v.code))
    return out
