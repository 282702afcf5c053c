import pytest

from conftest import ARCH_ASSIGNMENT, PAPER_ASSIGNMENT, PVB_PARAMS, LOAD_A, LOAD_B
from shslab.errors import SegmentationError
from shslab.grid import BusSpec, LineSpec, NetworkModel
from shslab.segmentation import segment_network, segments_to_json


def test_cut_line_1_4_gets_half_impedance(paper_net):
    # isolate bus 4 so line 1-4 (1 ohm, 0.7 mH) is cut
    assignment = {4: 1, 1: 2, 2: 2, 5: 2, 3: 3, 6: 3}
    segments = segment_network(paper_net, assignment)
    seg_a = next(s for s in segments if s.id == 1)
    seg_b = next(s for s in segments if s.id == 2)
    (aux_a,) = seg_a.aux_buses
    aux_b = next(a for a in seg_b.aux_buses if (a.cut_from, a.cut_to) == (1, 4))
    for aux, attach in ((aux_a, 4), (aux_b, 1)):
        assert aux.attach_bus == attach
        assert aux.R == 0.5
        assert aux.L == 0.35e-3
    assert aux_a.peer_segment == 2 and aux_a.peer_aux == aux_b.aux_id
    assert aux_b.peer_segment == 1 and aux_b.peer_aux == aux_a.aux_id


def test_single_segment_has_no_aux():
    net = NetworkModel(
        name="solo", omega_nom=377.0,
        buses=(BusSpec(1, "PVB", load=LOAD_A, pvb=PVB_PARAMS),
               BusSpec(2, "Load", load=LOAD_B)),
        lines=(LineSpec(1, 2, 1.0, 1e-3),))
    (seg,) = segment_network(net, {1: 1, 2: 1})
    assert seg.aux_buses == ()


def test_impedance_conservation(paper_net, arch_net):
    for net, assignment in ((paper_net, PAPER_ASSIGNMENT),
                            (arch_net, ARCH_ASSIGNMENT)):
        segments = segment_network(net, assignment)
        halves = {}
        for seg in segments:
            for aux in seg.aux_buses:
                halves.setdefault((aux.cut_from, aux.cut_to), []).append(aux)
        lines = {ln.key(): ln for ln in net.lines}
        assert halves  # some lines are actually cut
        for key, pair in halves.items():
            assert len(pair) == 2
            assert pair[0].R + pair[1].R == lines[key].R
            assert pair[0].L + pair[1].L == lines[key].L


def test_peer_symmetry(paper_segments):
    by_id = {a.aux_id: (seg.id, a) for seg in paper_segments for a in seg.aux_buses}
    for seg in paper_segments:
        for aux in seg.aux_buses:
            peer_seg, peer = by_id[aux.peer_aux]
            assert peer_seg == aux.peer_segment
            assert peer.peer_aux == aux.aux_id
            assert peer.peer_segment == seg.id


def test_bus_partition(paper_net, paper_segments):
    seen = []
    for seg in paper_segments:
        assert seg.pvb_bus not in seg.load_buses
        seen.append(seg.pvb_bus)
        seen.extend(seg.load_buses)
    assert sorted(seen) == sorted(paper_net.bus_ids)


def test_internal_lines_preserved_verbatim(paper_net, paper_segments):
    originals = {ln.key(): ln for ln in paper_net.lines}
    for seg in paper_segments:
        for ln in seg.internal_lines:
            assert originals[ln.key()] == ln


def test_uncovered_bus_rejected(paper_net):
    with pytest.raises(SegmentationError, match="does not cover"):
        segment_network(paper_net, {1: 1, 4: 1})


def test_two_pvb_segment_rejected(paper_net):
    assignment = dict(PAPER_ASSIGNMENT)
    assignment[5] = 1  # puts PVB buses 4 and 5 together
    with pytest.raises(SegmentationError, match="exactly one PVB"):
        segment_network(paper_net, assignment)


def test_pvb_free_segment_rejected(paper_net):
    assignment = {1: 9, 2: 9, 3: 9, 4: 1, 5: 1, 6: 1}  # 9 has no PVB, 1 has three
    with pytest.raises(SegmentationError, match="exactly one PVB"):
        segment_network(paper_net, assignment)


def test_disconnected_segment_rejected(paper_net):
    # buses 3 and 4 share no internal line; PVB counts are all valid
    assignment = {3: 1, 4: 1, 1: 2, 2: 2, 5: 2, 6: 3}
    with pytest.raises(SegmentationError, match="not connected"):
        segment_network(paper_net, assignment)


def test_aux_naming_scheme(paper_segments):
    seg1 = next(s for s in paper_segments if s.id == 1)
    (aux,) = seg1.aux_buses
    assert aux.aux_id == "a1_2_1"
    assert aux.peer_aux == "a1_2_2"


def test_segments_dump_shape(paper_segments):
    doc = segments_to_json(paper_segments)
    assert [s["id"] for s in doc["segments"]] == [1, 2, 3]
    seg1 = doc["segments"][0]
    assert seg1["pvb_bus"] == 4
    assert seg1["load_buses"] == [1]
    assert seg1["aux_buses"][0]["peer"] == [2, "a1_2_2"]
