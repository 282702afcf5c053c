"""Per-segment continuous-time state-space assembly in the synchronous dq frame.

State ordering is fixed as [resource | network lines | aux branches | loads]:

* resource block (6):  i_pv, v_dc, i_t_q, i_t_d, v_Cs, v_Cb
* each internal line (2):  I_{u}_{v}_q, I_{u}_{v}_d
* each aux branch (2):     I_{aux}_q, I_{aux}_d
* each loaded bus (4):     V_{k}_q, V_{k}_d, I_LL{k}_q, I_LL{k}_d

Circuit conventions (signs fixed once in two stamps, covered by oracle tests):

* _rotate: each dq pair decays and rotates, dx_q/dt = -rate x_q + w x_d and
  dx_d/dt = -rate x_d - w x_q, at rate R/L for a branch current and 1/(RC)
  for a bus voltage.
* _terminal: branch current i of inductance L meets bus k with sign s:
  s V_k / L enters its KVL and -s i / C enters k's KCL. A line from a to b
  meets a with +1 and b with -1; an aux half and a load's Rl-L branch meet
  their bus with +1; the converter filter current i_t meets the resource bus
  with -1, flowing into it. A bus without a load has no voltage state, is
  treated as grounded and takes nothing (only hand-built test segments).
* the far end of an aux half is the disturbance channel u2, entering with -1/L.

Contingency transforms keep the state dimension fixed:

* short_circuit: the line is split at its midpoint with a fault resistance
  R_f to ground there; the differential (fault) current mode is eliminated
  quasi-statically, leaving the normal series stamp plus an extra voltage
  drain G (V_u + V_v) at both end buses, G = inv([[r, -wl], [wl, r]])/2 with
  r = 2 R_f + R/2 and wl = w L/2. R_f -> inf recovers the normal stamp.
* line_outage: the line's current states decay as di/dt = -(R/L) i and all
  coupling to bus voltages is removed in both directions.
* line_disconnect: open at one end only; the open end's voltage leaves the
  KVL and the open end's KCL no longer sees the line current.

Assembly is exact: with the converter held at its set point u1_op, every
element equation is affine in the state, so A is stamped from the closed-form
coefficients, the operating point comes from one linear solve, and B1 holds
the closed-form partial derivatives with respect to (d, delta, m_a).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError, ShslabError
from .grid import PvbParams
from .segmentation import SegmentModel
from .util import doc_value, integer

PVB_STATE_NAMES = ("i_pv", "v_dc", "i_t_q", "i_t_d", "v_Cs", "v_Cb")

_KINDS = ("normal", "short_circuit", "line_outage", "line_disconnect")


@dataclass(frozen=True)
class ContingencySpec:
    """One structural scenario. line is required for every kind but 'normal'."""

    kind: str
    line: tuple[int, int] | None = None
    R_f: float = 1e-3
    open_end: int | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown contingency kind '{self.kind}'")
        if self.kind == "normal":
            if self.line is not None:
                raise ConfigError("'normal' takes no line reference")
        else:
            if self.line is None:
                raise ConfigError(f"'{self.kind}' needs a line reference")
        if self.kind == "short_circuit" and not self.R_f > 0:
            raise ConfigError(f"fault resistance must be > 0, got {self.R_f}")
        if self.kind == "line_disconnect":
            if self.open_end is None or self.open_end not in self.line:
                raise ConfigError("'line_disconnect' needs open_end at one line endpoint")

    @classmethod
    def normal(cls) -> "ContingencySpec":
        return cls(kind="normal")

    @classmethod
    def short_circuit(cls, line: tuple[int, int], R_f: float = 1e-3) -> "ContingencySpec":
        return cls(kind="short_circuit", line=tuple(line), R_f=R_f)

    @classmethod
    def line_outage(cls, line: tuple[int, int]) -> "ContingencySpec":
        return cls(kind="line_outage", line=tuple(line))

    @classmethod
    def line_disconnect(cls, line: tuple[int, int], open_end: int) -> "ContingencySpec":
        return cls(kind="line_disconnect", line=tuple(line), open_end=open_end)

    def name(self) -> str:
        if self.kind == "normal":
            return "normal"
        u, v = sorted(self.line)
        return f"{self.kind}_{u}_{v}"


def contingency_from_json(obj: dict, loc: str = "$") -> ContingencySpec:
    """The contingency a config entry describes. Every kind reads 'kind' and
    'line'; a short circuit also reads 'R_f_ohm', a disconnect 'open_end'.
    An entry that is not an object, a value ContingencySpec rejects, or a key
    its kind does not read is a ConfigError at `loc`."""
    if not isinstance(obj, dict):
        raise ConfigError(f"expected a contingency object, got {obj!r}", loc)
    try:
        spec = ContingencySpec(
            obj.get("kind"), tuple(obj["line"]) if "line" in obj else None,
            float(obj.get("R_f_ohm", ContingencySpec.R_f)), obj.get("open_end"))
    except (ConfigError, TypeError, ValueError) as exc:
        raise ConfigError(str(exc), loc) from exc
    own = {"short_circuit": "R_f_ohm", "line_disconnect": "open_end"}.get(spec.kind)
    for key in obj:
        if key not in ("kind", "line", own):
            raise ConfigError(f"'{spec.kind}' takes no key '{key}'", loc)
    return spec


@dataclass(frozen=True, eq=False)
class StateSpaceModel:
    """Continuous-time model of one scenario, linearized at its operating point.

    x_op is the absolute operating-point state; the model states are
    deviations from it.
    """

    alpha: int
    name: str
    A: np.ndarray
    B1: np.ndarray
    B2: np.ndarray
    C: np.ndarray
    state_labels: tuple[str, ...]
    u2_labels: tuple[str, ...]
    x_op: np.ndarray
    omega_nom: float = 0.0

    def __post_init__(self):
        for fname in ("A", "B1", "B2", "C", "x_op"):
            arr = np.array(getattr(self, fname), dtype=float)
            if fname != "x_op" and arr.ndim != 2:
                raise ConfigError(f"{fname} must be a matrix, got shape {arr.shape}")
            arr.setflags(write=False)
            object.__setattr__(self, fname, arr)
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise ConfigError(f"A must be square, got {self.A.shape}")
        if self.B1.shape != (n, 3):
            raise ConfigError(f"B1 must be {n}x3, got {self.B1.shape}")
        if self.B2.shape[0] != n or self.B2.shape[1] % 2:
            raise ConfigError(f"B2 must be {n}x(2*n_aux), got {self.B2.shape}")
        if self.C.shape[1] != n:
            raise ConfigError(f"C must have {n} columns, got {self.C.shape}")
        if len(self.state_labels) != n or len(self.u2_labels) != self.B2.shape[1]:
            raise ConfigError("label lists inconsistent with matrix dimensions")
        if self.x_op.shape != (n,):
            raise ConfigError(f"x_op must have length {n}, got {self.x_op.shape}")

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def p(self) -> int:
        return self.C.shape[0]


@dataclass(frozen=True, eq=False)
class ScenarioFamily:
    """All scenarios of one segment over a shared state labeling; index 0 is normal."""

    segment_id: int
    scenarios: tuple[StateSpaceModel, ...]

    def __post_init__(self):
        object.__setattr__(self, "scenarios", tuple(self.scenarios))
        if not self.scenarios:
            raise ConfigError("family needs at least one scenario")
        first = self.scenarios[0]
        for i, sc in enumerate(self.scenarios):
            if sc.alpha != i:
                raise ConfigError(f"scenario {i} carries alpha={sc.alpha}")
            if sc.state_labels != first.state_labels or sc.u2_labels != first.u2_labels:
                raise ConfigError(f"scenario {i} labels differ from scenario 0")
            if sc.p != first.p:
                raise ConfigError(f"scenario {i} output dimension differs")

    def __len__(self) -> int:
        return len(self.scenarios)

    def __iter__(self):
        return iter(self.scenarios)

    def __getitem__(self, i: int) -> StateSpaceModel:
        return self.scenarios[i]

    @property
    def names(self) -> list[str]:
        return [sc.name for sc in self.scenarios]

    @property
    def state_labels(self) -> tuple[str, ...]:
        return self.scenarios[0].state_labels


class _Index:
    """Label layout for one segment: [pvb | lines | aux | loads]."""

    def __init__(self, segment: SegmentModel):
        self.segment = segment
        self.labels: list[str] = []
        self.u2_labels: list[str] = []
        self.has_pvb = segment.pvb_bus is not None
        if self.has_pvb:
            self.labels.extend(PVB_STATE_NAMES)
        self.line_i: dict[tuple[int, int], tuple[int, int]] = {}
        for ln in segment.internal_lines:
            u, v = ln.key()
            self.line_i[(u, v)] = (len(self.labels), len(self.labels) + 1)
            self.labels += [f"I_{u}_{v}_q", f"I_{u}_{v}_d"]
        self.aux_i: dict[str, tuple[int, int]] = {}
        self.u2_i: dict[str, tuple[int, int]] = {}
        for a in segment.aux_buses:
            self.aux_i[a.aux_id] = (len(self.labels), len(self.labels) + 1)
            self.labels += [f"I_{a.aux_id}_q", f"I_{a.aux_id}_d"]
            self.u2_i[a.aux_id] = (len(self.u2_labels), len(self.u2_labels) + 1)
            self.u2_labels += [f"V_{a.aux_id}_q", f"V_{a.aux_id}_d"]
        self.vq: dict[int, int] = {}
        self.vd: dict[int, int] = {}
        self.jq: dict[int, int] = {}
        self.jd: dict[int, int] = {}
        for k in segment.bus_ids:
            if segment.bus(k).load is None:
                continue
            base = len(self.labels)
            self.vq[k], self.vd[k] = base, base + 1
            self.jq[k], self.jd[k] = base + 2, base + 3
            self.labels += [f"V_{k}_q", f"V_{k}_d", f"I_LL{k}_q", f"I_LL{k}_d"]
        self.n = len(self.labels)
        self.index = {lab: i for i, lab in enumerate(self.labels)}

    def shunt_C(self, bus: int) -> float:
        return self.segment.bus(bus).load.C


def _resolve_line_mode(segment: SegmentModel, contingency: ContingencySpec):
    """The contingency's line key, or None for 'normal'; a line that is not
    internal to the segment is a ConfigError, a mistake in the input."""
    if contingency.kind == "normal":
        return None
    key = tuple(sorted(contingency.line))
    internal = {ln.key() for ln in segment.internal_lines}
    if key not in internal:
        raise ConfigError(
            f"contingency references line {key} which is not internal to "
            f"segment {segment.id} (internal lines: {sorted(internal)})")
    return key


def _fault_drain(R: float, L: float, R_f: float, omega: float) -> np.ndarray:
    """Quasi-static midpoint-fault conductance G with drain G (V_u + V_v) per end bus."""
    r = 2.0 * R_f + R / 2.0
    wl = omega * L / 2.0
    M = np.array([[r, -wl], [wl, r]])
    return np.linalg.inv(M) / 2.0


def _rotate(A: np.ndarray, q: int, d: int, rate: float, w: float) -> None:
    """Decay plus dq rotation of the (q, d) row pair: dx_q/dt gets
    -rate x_q + w x_d and dx_d/dt gets -rate x_d - w x_q."""
    A[q, q] += -rate
    A[q, d] += w
    A[d, d] += -rate
    A[d, q] += -w


def _terminal(A: np.ndarray, idx: _Index, q: int, d: int, bus: int,
              L: float, sign: float) -> None:
    """Couple the branch current (q, d) of inductance L to `bus`: the bus
    voltage enters the branch KVL with sign/L and the current leaves the
    bus's KCL with sign/C. A bus without a voltage state is grounded."""
    if bus not in idx.vq:
        return
    C = idx.shunt_C(bus)
    A[q, idx.vq[bus]] += sign / L
    A[d, idx.vd[bus]] += sign / L
    A[idx.vq[bus], q] += -sign / C
    A[idx.vd[bus], d] += -sign / C


def _stamp_linear(segment: SegmentModel, contingency: ContingencySpec,
                  idx: _Index) -> tuple[np.ndarray, np.ndarray]:
    """Analytic A and B2 entries for everything except the resource block."""
    faulted = _resolve_line_mode(segment, contingency)
    w = segment.omega_nom
    A = np.zeros((idx.n, idx.n))
    B2 = np.zeros((idx.n, len(idx.u2_labels)))

    for ln in segment.internal_lines:
        u, v = ln.key()
        iq, id_ = idx.line_i[(u, v)]
        kind = contingency.kind if (u, v) == faulted else "normal"
        # an outaged line's current only decays: no rotation, no coupling
        _rotate(A, iq, id_, ln.R / ln.L, 0.0 if kind == "line_outage" else w)
        if kind == "line_outage":
            continue
        open_end = contingency.open_end if kind == "line_disconnect" else None
        for bus, sign in ((u, 1.0), (v, -1.0)):
            if bus != open_end:
                _terminal(A, idx, iq, id_, bus, ln.L, sign)
        if kind == "short_circuit":
            G = _fault_drain(ln.R, ln.L, contingency.R_f, w)
            ends = [b for b in (u, v) if b in idx.vq]
            for a_bus in ends:
                Ca = idx.shunt_C(a_bus)
                for b_bus in ends:
                    A[idx.vq[a_bus], idx.vq[b_bus]] += -G[0, 0] / Ca
                    A[idx.vq[a_bus], idx.vd[b_bus]] += -G[0, 1] / Ca
                    A[idx.vd[a_bus], idx.vq[b_bus]] += -G[1, 0] / Ca
                    A[idx.vd[a_bus], idx.vd[b_bus]] += -G[1, 1] / Ca

    for a in segment.aux_buses:
        iq, id_ = idx.aux_i[a.aux_id]
        cq, cd = idx.u2_i[a.aux_id]
        _rotate(A, iq, id_, a.R / a.L, w)
        _terminal(A, idx, iq, id_, a.attach_bus, a.L, 1.0)
        B2[iq, cq] = -1.0 / a.L
        B2[id_, cd] = -1.0 / a.L

    # after the lines, so a bus's shunt term lands after any fault drain
    for k, vqi in idx.vq.items():
        lp = segment.bus(k).load
        _rotate(A, vqi, idx.vd[k], 1.0 / (lp.R * lp.C), w)
        _rotate(A, idx.jq[k], idx.jd[k], lp.Rl / lp.L, w)
        _terminal(A, idx, idx.jq[k], idx.jd[k], k, lp.L, 1.0)
    return A, B2


def _stamp_resource(A: np.ndarray, segment: SegmentModel, idx: _Index,
                    u1_op: np.ndarray) -> np.ndarray:
    """Write the resource rows of A, and the converter's terminal at its bus,
    and return the constant term b of dx/dt = A x + b.

    With the converter held at u1_op the element equations are affine in
    (i_pv, v_dc, i_t_q, i_t_d, v_Cs, v_Cb) and the resource bus voltage, so
    these coefficients are their exact partial derivatives. The battery
    terminal current is i_bat = g_s (v_dc - v_Cs) + g_e (v_dc - v_Cb) with
    g_s = 1/(R_s den), g_e = 1/(R_e den), den = 1 + R_t/R_s + R_t/R_e, and
    the battery voltage is v_b = v_dc - R_t i_bat.
    """
    p = segment.bus(segment.pvb_bus).pvb
    d, delta, m_a = u1_op
    sin, cos = math.sin(delta), math.cos(delta)
    denom = 1.0 + p.R_t / p.R_s + p.R_t / p.R_e
    g_s, g_e = 1.0 / (p.R_s * denom), 1.0 / (p.R_e * denom)
    # d v_b / d (v_dc, v_Cs, v_Cb)
    dvb = np.array([1.0 - p.R_t * (g_s + g_e), p.R_t * g_s, p.R_t * g_e])
    A[0, 0:2] = p.R_PV / p.L_1PV, -(1.0 - d) / p.L_1PV
    A[1, 0:6] = np.array([1.0 - d, -(g_s + g_e), -0.75 * m_a * sin,
                          -0.75 * m_a * cos, g_s, g_e]) / p.C_PV
    A[2:4, 1] = 0.5 * m_a * np.array([sin, cos]) / p.L_2PV
    # the filter current i_t flows into the resource bus
    _rotate(A, 2, 3, p.R_2PV / p.L_2PV, segment.omega_nom)
    _terminal(A, idx, 2, 3, segment.pvb_bus, p.L_2PV, -1.0)
    A[4, [1, 4, 5]] = (dvb - [0.0, 1.0, 0.0]) / (p.R_s * p.C_s)
    A[5, [1, 4, 5]] = (dvb - [0.0, 0.0, 1.0]) / (p.R_e * p.C_b)
    b = np.zeros(idx.n)
    b[0] = -p.R_PV * p.I_PV / p.L_1PV
    return b


def _resource_input_map(p: PvbParams, u1_op: np.ndarray, x_op: np.ndarray) -> np.ndarray:
    """Partial derivatives of the resource rows with respect to (d, delta, m_a)
    at x_op; the battery rows do not see the converter commands."""
    i_pv, v_dc, i_tq, i_td = x_op[0:4]
    _, delta, m_a = u1_op
    sin, cos = math.sin(delta), math.cos(delta)
    B1 = np.zeros((6, 3))
    B1[0, 0] = v_dc / p.L_1PV
    B1[1] = np.array([-i_pv, -0.75 * m_a * (cos * i_tq - sin * i_td),
                      -0.75 * (cos * i_td + sin * i_tq)]) / p.C_PV
    B1[2, 1:] = 0.5 * v_dc * m_a * cos / p.L_2PV, 0.5 * v_dc * sin / p.L_2PV
    B1[3, 1:] = -0.5 * v_dc * m_a * sin / p.L_2PV, 0.5 * v_dc * cos / p.L_2PV
    return B1


def _selection(idx: _Index, rows: list[str]) -> np.ndarray:
    """Selection-row C over the labels `rows`: every output is a state."""
    C = np.zeros((len(rows), idx.n))
    for r, lab in enumerate(rows):
        C[r, idx.index[lab]] = 1.0
    return C


def build_measurement(segment: SegmentModel) -> np.ndarray:
    """Selection-row C over v_dc, i_t_q, i_t_d and the load current
    I_LL_q, I_LL_d at the resource bus; a resource bus without a load is a
    ConfigError."""
    idx = _Index(segment)
    if not idx.has_pvb:
        raise ConfigError("segment has no resource bus; measurement set undefined")
    k = segment.pvb_bus
    if k not in idx.jq:
        raise ConfigError(f"resource bus {k} has no load to monitor")
    return _selection(idx, ["v_dc", "i_t_q", "i_t_d", f"I_LL{k}_q", f"I_LL{k}_d"])


def build_state_space(segment: SegmentModel, contingency: ContingencySpec,
                      alpha: int = 0) -> StateSpaceModel:
    """Assemble one scenario's matrices.

    With the converter at its set point and the aux voltages at reference,
    every element equation is affine in the state, dx/dt = A x + b, and A is
    stamped exactly: network and loads by _stamp_linear, the resource rows by
    _stamp_resource. The operating point is the one solution of A x_op = -b
    (zero for a segment without a resource), and B1 holds the exact partial
    derivatives of the resource rows with respect to (d, delta, m_a) at x_op.
    """
    idx = _Index(segment)
    A, B2 = _stamp_linear(segment, contingency, idx)
    B1 = np.zeros((idx.n, 3))
    x_op = np.zeros(idx.n)
    if idx.has_pvb:
        pvb = segment.bus(segment.pvb_bus).pvb
        op = pvb.operating_point
        u1_op = np.array([op.d, op.delta, op.m_a])
        b = _stamp_resource(A, segment, idx, u1_op)
        try:
            x_op = np.linalg.solve(A, -b)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"no operating point for scenario '{contingency.name()}': "
                f"state matrix is singular") from exc
        B1[0:6] = _resource_input_map(pvb, u1_op, x_op)
        C = build_measurement(segment)
    else:
        C = _selection(idx, idx.labels)

    return StateSpaceModel(
        alpha=alpha, name=contingency.name(), A=A, B1=B1, B2=B2, C=C,
        state_labels=tuple(idx.labels), u2_labels=tuple(idx.u2_labels),
        x_op=x_op, omega_nom=segment.omega_nom)


def build_family(segment: SegmentModel, contingencies: list[ContingencySpec],
                 loc: str | None = None) -> ScenarioFamily:
    """Build all scenarios of a segment; the list must start with 'normal',
    or it is a ConfigError at `loc`. An error in scenario i names it, and
    names `loc[i]` when the entries came from a document at `loc`."""
    if not contingencies or contingencies[0].kind != "normal":
        raise ConfigError("the list must start with a 'normal' entry", loc)

    scenarios = []
    for i, spec in enumerate(contingencies):
        try:
            scenarios.append(build_state_space(segment, spec, alpha=i))
        except ShslabError as exc:
            where = f"{loc}[{i}]: " if loc is not None else ""
            raise type(exc)(f"{where}scenario {i} ({spec.name()}): {exc}") from exc
    return ScenarioFamily(segment_id=segment.id, scenarios=tuple(scenarios))


# ---------------------------------------------------------------------------
# family (de)serialization
# ---------------------------------------------------------------------------


def family_to_json(family: ScenarioFamily) -> dict:
    return {
        "segment_id": family.segment_id,
        "alpha_names": family.names,
        "state_labels": list(family.state_labels),
        "u2_labels": list(family.scenarios[0].u2_labels),
        "scenarios": [
            {
                "alpha": sc.alpha,
                "name": sc.name,
                "A": sc.A.tolist(),
                "B1": sc.B1.tolist(),
                "B2": sc.B2.tolist(),
                "C": sc.C.tolist(),
                "x_op": sc.x_op.tolist(),
                "omega_rad_s": sc.omega_nom,
            }
            for sc in family.scenarios
        ],
    }


def family_from_json(doc: dict) -> ScenarioFamily:
    """The family a `build` document describes. Keys it does not read are
    ignored, such as the aux-voltage feedthrough matrix of files written
    while outputs carried one. A document the model or family checks
    reject is a ConfigError."""
    try:
        labels = tuple(doc["state_labels"])
        u2_labels = tuple(doc["u2_labels"])
        def mat(rows, ncols):
            arr = np.array(rows, dtype=float)
            if arr.size == 0:
                arr = arr.reshape(len(rows), ncols)
            return arr

        scenarios = tuple(
            StateSpaceModel(
                alpha=doc_value(sc, "alpha", integer, f"$.scenarios[{i}]"), name=sc["name"],
                A=np.array(sc["A"], dtype=float),
                B1=np.array(sc["B1"], dtype=float),
                B2=mat(sc["B2"], len(u2_labels)),
                C=np.array(sc["C"], dtype=float),
                state_labels=labels, u2_labels=u2_labels,
                x_op=np.array(sc["x_op"], dtype=float),
                omega_nom=float(sc.get("omega_rad_s", 0.0)))
            for i, sc in enumerate(doc["scenarios"])
        )
        family = ScenarioFamily(segment_id=doc_value(doc, "segment_id", integer, "$"),
                                scenarios=scenarios)
    except (KeyError, TypeError, ValueError, ConfigError) as exc:
        raise ConfigError(f"malformed family document: {exc}") from exc
    for i, sc in enumerate(family):
        for fname in ("A", "B1", "B2", "C", "x_op"):
            if not np.all(np.isfinite(getattr(sc, fname))):
                raise ConfigError(
                    f"segment {family.segment_id} scenario {i} ({sc.name}): "
                    f"{fname} has a NaN or infinite entry")
    return family
