"""Partition a network into per-resource segments with auxiliary boundary buses.

Every line whose endpoints land in different segments is cut: each side keeps
an auxiliary branch carrying exactly half the line impedance, and the two
halves are peer-linked. The voltage at the shared auxiliary node is the
disturbance channel the neighboring segment reports.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SegmentationError
from .grid import BusSpec, LineSpec, NetworkModel


@dataclass(frozen=True)
class AuxBusSpec:
    """Half of a cut line: an R-L branch from attach_bus to the shared aux node."""

    aux_id: str
    attach_bus: int
    R: float
    L: float
    cut_from: int
    cut_to: int
    peer_segment: int
    peer_aux: str


@dataclass(frozen=True)
class SegmentModel:
    """One partition cell: a single resource bus plus its assigned load buses.

    `buses` keeps parameter copies for every member bus. pvb_bus may be None
    only for hand-built test circuits; segment_network always yields exactly
    one resource bus per segment.
    """

    id: int
    pvb_bus: int | None
    load_buses: frozenset[int]
    internal_lines: tuple[LineSpec, ...]
    aux_buses: tuple[AuxBusSpec, ...]
    buses: tuple[BusSpec, ...]
    omega_nom: float

    @property
    def bus_ids(self) -> list[int]:
        return sorted(b.id for b in self.buses)

    def bus(self, bus_id: int) -> BusSpec:
        for b in self.buses:
            if b.id == bus_id:
                return b
        raise KeyError(f"segment {self.id} has no bus {bus_id}")


def _aux_name(u: int, v: int, attach: int) -> str:
    return f"a{u}_{v}_{attach}"


def segment_network(model: NetworkModel,
                    assignment: dict[int, int]) -> list[SegmentModel]:
    """Split `model` into segments per the bus->segment-id assignment.

    Each segment must contain exactly one PVB bus and induce a connected
    subgraph. Cut lines become symmetric half-impedance auxiliary branches.
    """
    ids = set(model.bus_ids)
    missing = sorted(ids - set(assignment))
    if missing:
        raise SegmentationError(f"assignment does not cover buses {missing}")
    extra = sorted(set(assignment) - ids)
    if extra:
        raise SegmentationError(f"assignment references unknown buses {extra}")

    seg_ids = sorted(set(assignment.values()))
    members = {s: sorted(b for b, sid in assignment.items() if sid == s) for s in seg_ids}

    for s in seg_ids:
        pvbs = [b for b in members[s] if model.bus(b).kind == "PVB"]
        if len(pvbs) != 1:
            raise SegmentationError(
                f"segment {s} must contain exactly one PVB bus, found {pvbs or 'none'}")

    internal: dict[int, list[LineSpec]] = {s: [] for s in seg_ids}
    cut_lines: list[LineSpec] = []
    for ln in model.lines:
        if assignment[ln.from_bus] == assignment[ln.to_bus]:
            internal[assignment[ln.from_bus]].append(ln)
        else:
            cut_lines.append(ln)

    for s in seg_ids:
        adj: dict[int, set[int]] = {b: set() for b in members[s]}
        for ln in internal[s]:
            adj[ln.from_bus].add(ln.to_bus)
            adj[ln.to_bus].add(ln.from_bus)
        seen = {members[s][0]}
        stack = [members[s][0]]
        while stack:
            for nxt in adj[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        if len(seen) != len(members[s]):
            raise SegmentationError(
                f"segment {s} is not connected through its internal lines")

    aux: dict[int, list[AuxBusSpec]] = {s: [] for s in seg_ids}
    for ln in cut_lines:
        u, v = ln.key()
        su, sv = assignment[u], assignment[v]
        # Z/2 on each side; the shared midpoint voltage is the u2 channel.
        half_R, half_L = ln.R / 2.0, ln.L / 2.0
        aux[su].append(AuxBusSpec(
            aux_id=_aux_name(u, v, u), attach_bus=u, R=half_R, L=half_L,
            cut_from=u, cut_to=v, peer_segment=sv, peer_aux=_aux_name(u, v, v)))
        aux[sv].append(AuxBusSpec(
            aux_id=_aux_name(u, v, v), attach_bus=v, R=half_R, L=half_L,
            cut_from=u, cut_to=v, peer_segment=su, peer_aux=_aux_name(u, v, u)))

    segments = []
    for s in seg_ids:
        pvb = next(b for b in members[s] if model.bus(b).kind == "PVB")
        segments.append(SegmentModel(
            id=s,
            pvb_bus=pvb,
            load_buses=frozenset(b for b in members[s] if b != pvb),
            internal_lines=tuple(sorted(internal[s], key=LineSpec.key)),
            aux_buses=tuple(sorted(aux[s], key=lambda a: a.aux_id)),
            buses=tuple(model.bus(b) for b in members[s]),
            omega_nom=model.omega_nom,
        ))
    return segments


def segments_to_json(segments: list[SegmentModel]) -> dict:
    """Inspection dump for `shslab segment --dump`."""
    out = []
    for seg in segments:
        out.append({
            "id": seg.id,
            "pvb_bus": seg.pvb_bus,
            "load_buses": sorted(seg.load_buses),
            "internal_lines": [
                {"from": ln.from_bus, "to": ln.to_bus, "R_ohm": ln.R, "L_H": ln.L}
                for ln in seg.internal_lines
            ],
            "aux_buses": [
                {"aux_id": a.aux_id, "attach_bus": a.attach_bus,
                 "R_ohm": a.R, "L_H": a.L,
                 "cut_line": [a.cut_from, a.cut_to],
                 "peer": [a.peer_segment, a.peer_aux]}
                for a in seg.aux_buses
            ],
            "omega_rad_s": seg.omega_nom,
        })
    return {"segments": out}
