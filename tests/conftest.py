import json
from dataclasses import replace

import numpy as np
import pytest

from shslab import data_path
from shslab.grid import BusSpec, ControlInput, LineSpec, LoadParams, PvbParams, parse_network
from shslab.probing import design_mami
from shslab.segmentation import SegmentModel, segment_network
from shslab.ssbuild import ContingencySpec, ScenarioFamily, StateSpaceModel, build_family

PAPER_ASSIGNMENT = {1: 1, 4: 1, 2: 2, 5: 2, 3: 3, 6: 3}
ARCH_ASSIGNMENT = {1: 1, 4: 1, 7: 1, 2: 2, 3: 2, 6: 2, 5: 3, 8: 3, 9: 3}

PAPER_TAU0 = 0.01
PAPER_TS = 1e-6


def bits(a):
    """The bit patterns of a float64 array, for exact comparison."""
    return np.ascontiguousarray(a).view(np.int64)


def load_bundled(name):
    return json.loads(data_path(name).read_text())


def with_line(model, line: LineSpec):
    """Copy of the network with one extra line."""
    return replace(model, lines=model.lines + (line,))


@pytest.fixture(scope="session")
def paper_net():
    return parse_network(load_bundled("paper6bus.json"))


@pytest.fixture(scope="session")
def arch_net():
    return parse_network(load_bundled("arch9bus.json"))


@pytest.fixture(scope="session")
def paper_segments(paper_net):
    return segment_network(paper_net, PAPER_ASSIGNMENT)


@pytest.fixture(scope="session")
def seg1(paper_segments):
    return next(s for s in paper_segments if s.id == 1)


@pytest.fixture(scope="session")
def m1_contingencies():
    return [ContingencySpec.normal(),
            ContingencySpec.short_circuit((1, 4), R_f=1e-3),
            ContingencySpec.line_outage((1, 4)),
            ContingencySpec.line_disconnect((1, 4), open_end=1)]


@pytest.fixture(scope="session")
def m1_family(seg1, m1_contingencies):
    return build_family(seg1, m1_contingencies)


@pytest.fixture(scope="session")
def all_families(paper_segments, m1_contingencies):
    out = {}
    for seg in paper_segments:
        cons = m1_contingencies if seg.id == 1 else [ContingencySpec.normal()]
        out[seg.id] = build_family(seg, cons)
    return out


@pytest.fixture(scope="session")
def m1_probe(m1_family):
    return design_mami(m1_family, m1_family[0].x_op, "delta", PAPER_TAU0, PAPER_TS)


# ---------------------------------------------------------------------------
# hand-built circuits
# ---------------------------------------------------------------------------

LOAD_A = LoadParams(P=45e3, Q=21.74e3, pf=0.9, R=0.423, L=0.180, Rl=0.43, C=1.29e-3)
LOAD_B = LoadParams(P=25e3, Q=12.09e3, pf=0.9, R=0.235, L=0.100, Rl=0.24, C=0.72e-3)
PVB_PARAMS = PvbParams(R_PV=-2.3, I_PV=550.0, L_1PV=2e-3, C_PV=10e-3,
                       R_2PV=5.25e-3, L_2PV=1.8e-3, R_s=3.75e-3, R_e=3.75e-3,
                       R_t=2.745e-3, C_s=7586.5, C_b=7586.5,
                       operating_point=ControlInput())


def two_load_bus_segment(R=1.0, L=0.7e-3, omega=0.0):
    """Two loaded buses joined by one line; no resource (stamp oracle circuit)."""
    return SegmentModel(
        id=1, pvb_bus=None, load_buses=frozenset({1, 2}),
        internal_lines=(LineSpec(1, 2, R, L),),
        aux_buses=(),
        buses=(BusSpec(1, "Load", load=LOAD_A), BusSpec(2, "Load", load=LOAD_B)),
        omega_nom=omega)


def bare_line_segment(R=1.0, L=1.0, omega=0.0):
    """One line between two bare (stateless) buses: the 2-state circuit."""
    return SegmentModel(
        id=1, pvb_bus=None, load_buses=frozenset({1, 2}),
        internal_lines=(LineSpec(1, 2, R, L),),
        aux_buses=(),
        buses=(BusSpec(1, "Load", load=None), BusSpec(2, "Load", load=None)),
        omega_nom=omega)


def small_pvb_segment(line_R=1.0, line_L=0.7e-3, omega=2 * np.pi * 60):
    """Resource bus plus one load bus: the smallest full vertical circuit."""
    return SegmentModel(
        id=7, pvb_bus=2, load_buses=frozenset({1}),
        internal_lines=(LineSpec(1, 2, line_R, line_L),),
        aux_buses=(),
        buses=(BusSpec(1, "Load", load=LOAD_A),
               BusSpec(2, "PVB", load=LOAD_B, pvb=PVB_PARAMS)),
        omega_nom=omega)


def make_model(A, B1=None, C=None, alpha=0, name="normal"):
    """Minimal StateSpaceModel around a bare A matrix (tests of the numerics)."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    B1 = np.zeros((n, 3)) if B1 is None else np.asarray(B1, dtype=float)
    C = np.eye(n) if C is None else np.asarray(C, dtype=float)
    return StateSpaceModel(
        alpha=alpha, name=name, A=A, B1=B1,
        B2=np.zeros((n, 0)), C=C, D2=np.zeros((C.shape[0], 0)),
        state_labels=tuple(f"x{i}" for i in range(n)),
        u2_labels=(), x_op=np.zeros(n))


def make_family(models, segment_id=99):
    return ScenarioFamily(segment_id=segment_id, scenarios=tuple(models))
