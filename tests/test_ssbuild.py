import json

import numpy as np
import pytest

from conftest import (ARCH_ASSIGNMENT, LOAD_A, LOAD_B, PAPER_ASSIGNMENT, PVB_PARAMS,
                      bare_line_segment, small_pvb_segment, two_load_bus_segment)
from oracles import branch_incidence, fd_jacobian, segment_rhs
from shslab.errors import BuildError, ConfigError, NetworkFormatError
from shslab.grid import BusSpec, LineSpec
from shslab.segmentation import SegmentModel, segment_network
from shslab.ssbuild import (PVB_STATE_NAMES, ContingencySpec, ScenarioFamily,
                            build_family, build_measurement, build_state_space,
                            family_from_json, family_to_json)


def labels_index(model):
    return {lab: i for i, lab in enumerate(model.state_labels)}


# ---------------------------------------------------------------------------
# stamping oracles
# ---------------------------------------------------------------------------


def test_two_bus_rl_stamp_matches_hand_derivation():
    # L dI/dt = V1 - V2 - R I with omega = 0: coefficients are exact
    R, L = 1.0, 0.7e-3
    seg = two_load_bus_segment(R=R, L=L, omega=0.0)
    model = build_state_space(seg, ContingencySpec.normal())
    ix = labels_index(model)
    iq, idd = ix["I_1_2_q"], ix["I_1_2_d"]
    for row, v1, v2 in ((iq, ix["V_1_q"], ix["V_2_q"]),
                        (idd, ix["V_1_d"], ix["V_2_d"])):
        expected = np.zeros(model.n)
        expected[row] = -R / L
        expected[v1] = 1.0 / L
        expected[v2] = -1.0 / L
        assert np.array_equal(model.A[row], expected)
    # KCL: the line current leaves bus 1 and enters bus 2
    assert model.A[ix["V_1_q"], iq] == -1.0 / LOAD_A.C
    assert model.A[ix["V_2_q"], iq] == 1.0 / LOAD_B.C


def test_dq_coupling_signs():
    seg = two_load_bus_segment(R=1.0, L=0.5e-3, omega=377.0)
    model = build_state_space(seg, ContingencySpec.normal())
    ix = labels_index(model)
    assert model.A[ix["I_1_2_q"], ix["I_1_2_d"]] == 377.0
    assert model.A[ix["I_1_2_d"], ix["I_1_2_q"]] == -377.0
    assert model.A[ix["V_1_q"], ix["V_1_d"]] == 377.0
    assert model.A[ix["V_1_d"], ix["V_1_q"]] == -377.0


def test_m1_normal_dimension(m1_family):
    assert m1_family[0].n == 18
    assert m1_family[0].state_labels[:6] == PVB_STATE_NAMES


def test_state_label_block_order(m1_family):
    labels = list(m1_family.state_labels)
    assert labels == [
        "i_pv", "v_dc", "i_t_q", "i_t_d", "v_Cs", "v_Cb",
        "I_1_4_q", "I_1_4_d",
        "I_a1_2_1_q", "I_a1_2_1_d",
        "V_1_q", "V_1_d", "I_LL1_q", "I_LL1_d",
        "V_4_q", "V_4_d", "I_LL4_q", "I_LL4_d",
    ]
    assert m1_family[0].u2_labels == ("V_a1_2_1_q", "V_a1_2_1_d")


def test_line_outage_rows_decoupled(seg1):
    model = build_state_space(seg1, ContingencySpec.line_outage((1, 4)))
    ix = labels_index(model)
    iq, idd = ix["I_1_4_q"], ix["I_1_4_d"]
    R_over_L = 1.0 / 0.7e-3
    for row in (iq, idd):
        expected = np.zeros(model.n)
        expected[row] = -R_over_L
        assert np.array_equal(model.A[row], expected)
    # bus KCLs no longer see the line current
    assert np.all(model.A[:, iq][np.arange(model.n) != iq] == 0.0)
    assert np.all(model.A[:, idd][np.arange(model.n) != idd] == 0.0)
    assert model.n == 18


def test_line_disconnect_drops_open_end_only(seg1, m1_family):
    normal = m1_family[0]
    model = build_state_space(seg1, ContingencySpec.line_disconnect((1, 4), open_end=1))
    ix = labels_index(model)
    iq = ix["I_1_4_q"]
    L = 0.7e-3
    # open end 1: its voltage leaves the KVL, its KCL ignores the current
    assert model.A[iq, ix["V_1_q"]] == 0.0
    assert model.A[iq, ix["V_4_q"]] == -1.0 / L
    assert model.A[ix["V_1_q"], iq] == 0.0
    # far end keeps both couplings, identical to normal
    assert model.A[ix["V_4_q"], iq] == normal.A[ix["V_4_q"], iq] != 0.0


def test_short_circuit_limits(seg1, m1_family):
    normal = m1_family[0]
    faint = build_state_space(seg1, ContingencySpec.short_circuit((1, 4), R_f=1e6))
    hard = build_state_space(seg1, ContingencySpec.short_circuit((1, 4), R_f=1e-3))
    assert np.max(np.abs(faint.A - normal.A)) < 1e-2
    assert np.max(np.abs(hard.A - normal.A)) > 1.0
    # the series (sum-mode) line stamp itself is untouched
    ix = labels_index(normal)
    iq = ix["I_1_4_q"]
    assert np.array_equal(hard.A[iq], normal.A[iq])


def test_family_shapes_and_names(m1_family):
    assert [sc.n for sc in m1_family] == [18, 18, 18, 18]
    assert m1_family.names == ["normal", "short_circuit_1_4",
                               "line_outage_1_4", "line_disconnect_1_4"]
    assert [sc.alpha for sc in m1_family] == [0, 1, 2, 3]
    assert all(sc.p == 5 for sc in m1_family)


def test_family_of_one(seg1):
    fam = build_family(seg1, [ContingencySpec.normal()])
    assert len(fam) == 1


def test_identical_normals_bitwise(seg1):
    a = build_state_space(seg1, ContingencySpec.normal())
    b = build_state_space(seg1, ContingencySpec.normal())
    for fname in ("A", "B1", "B2", "C", "D2", "x_op"):
        assert np.array_equal(getattr(a, fname), getattr(b, fname))


def test_family_requires_normal_first(seg1):
    with pytest.raises(BuildError, match="must be 'normal'"):
        build_family(seg1, [ContingencySpec.line_outage((1, 4))])


def test_contingency_on_foreign_line_rejected(seg1):
    # a line outside the segment is an input mistake, not a failed assembly
    with pytest.raises(ConfigError, match="not internal"):
        build_state_space(seg1, ContingencySpec.line_outage((2, 5)))


def test_build_error_carries_scenario_index(seg1):
    # a foreign line is a ConfigError; it carries the index all the same
    with pytest.raises(ConfigError, match="scenario 1"):
        build_family(seg1, [ContingencySpec.normal(),
                            ContingencySpec.line_outage((2, 5))])


def test_contingency_spec_validation():
    with pytest.raises(BuildError):
        ContingencySpec(kind="normal", line=(1, 4))
    with pytest.raises(BuildError):
        ContingencySpec(kind="line_outage")
    with pytest.raises(BuildError):
        ContingencySpec.short_circuit((1, 4), R_f=0.0)
    with pytest.raises(BuildError):
        ContingencySpec.line_disconnect((1, 4), open_end=2)


# ---------------------------------------------------------------------------
# measurement map
# ---------------------------------------------------------------------------


def test_measurement_rows_m1(seg1, m1_family):
    model = m1_family[0]
    ix = labels_index(model)
    expected_rows = ["v_dc", "i_t_q", "i_t_d", "I_LL4_q", "I_LL4_d"]
    assert model.C.shape == (5, 18)
    for r, lab in enumerate(expected_rows):
        row = np.zeros(18)
        row[ix[lab]] = 1.0
        assert np.array_equal(model.C[r], row)
    # aux-voltage indicator
    assert model.D2.shape == (5, 2)
    assert np.array_equal(model.D2[:2, :2], np.eye(2))
    assert np.all(model.D2[2:] == 0.0)


def test_measurement_without_aux_has_zero_columns():
    model = build_state_space(small_pvb_segment(), ContingencySpec.normal())
    assert model.D2.shape == (5, 0)
    assert model.B2.shape == (16, 0)


def test_measurement_norm_is_one(m1_family):
    for sc in m1_family:
        assert np.linalg.norm(sc.C, 2) == pytest.approx(1.0, abs=1e-12)


def test_measurement_requires_resource():
    with pytest.raises(BuildError, match="no resource bus"):
        build_measurement(two_load_bus_segment())


def test_measurement_falls_back_to_adjacent_load():
    # resource bus without its own load: monitor the internally adjacent one
    seg = SegmentModel(
        id=3, pvb_bus=2, load_buses=frozenset({1}),
        internal_lines=(LineSpec(1, 2, 1.0, 0.7e-3),),
        aux_buses=(),
        buses=(BusSpec(1, "Load", load=LOAD_A),
               BusSpec(2, "PVB", load=None, pvb=PVB_PARAMS)),
        omega_nom=377.0)
    model = build_state_space(seg, ContingencySpec.normal())
    picked = [model.state_labels[int(np.argmax(r))] for r in model.C]
    assert picked == ["v_dc", "i_t_q", "i_t_d", "I_LL1_q", "I_LL1_d"]


# ---------------------------------------------------------------------------
# derivative and KCL oracles
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scenario_i", [0, 1, 2, 3])
def test_assembled_a_matches_fd_jacobian(seg1, m1_contingencies, m1_family, scenario_i):
    con = m1_contingencies[scenario_i]
    model = m1_family[scenario_i]
    u1_op = np.array([PVB_PARAMS.operating_point.d,
                      PVB_PARAMS.operating_point.delta,
                      PVB_PARAMS.operating_point.m_a])
    J = fd_jacobian(
        lambda x: segment_rhs(seg1, con, x, u1_op, np.zeros(2)), model.x_op)
    scale = np.maximum(np.abs(model.A), 1e-6 * np.abs(model.A).max())
    assert np.max(np.abs(J - model.A) / scale) <= 1e-6


def _u1_op(segment):
    op = segment.bus(segment.pvb_bus).pvb.operating_point
    return np.array([op.d, op.delta, op.m_a])


def _assert_affine_exact(segment, con, model, seed):
    # with u1 fixed the element equations are affine in (x, u2), so A and B2
    # must carry any step exactly, not just to first order
    u1_op = np.zeros(3) if segment.pvb_bus is None else _u1_op(segment)
    u2_ref = np.zeros(model.B2.shape[1])

    def rhs(x, u2=u2_ref):
        return segment_rhs(segment, con, x, u1_op, u2)

    f_op = rhs(model.x_op)
    steps = [(model.A, lambda dx: rhs(model.x_op + dx))]
    if u2_ref.size:
        steps.append((model.B2, lambda du: rhs(model.x_op, du)))
    scale = np.max(np.abs(model.x_op)) or 1.0  # a segment without a resource rests at 0
    rng = np.random.default_rng(seed)
    for M, step in steps:
        for _ in range(5):
            dv = rng.uniform(-1.0, 1.0, M.shape[1]) * scale
            err = np.linalg.norm(step(dv) - f_op - M @ dv)
            assert err <= 1e-14 * np.linalg.norm(M, 2) * np.linalg.norm(dv)


@pytest.mark.parametrize("scenario_i", [0, 1, 2, 3])
def test_assembled_a_is_exact_for_affine_rhs(seg1, m1_contingencies, m1_family, scenario_i):
    _assert_affine_exact(seg1, m1_contingencies[scenario_i], m1_family[scenario_i],
                         scenario_i)


def _every_contingency(segment):
    """normal, then each internal line short-circuited, outaged and open at each end"""
    yield ContingencySpec.normal()
    for ln in segment.internal_lines:
        key = ln.key()
        yield ContingencySpec.short_circuit(key)
        yield ContingencySpec.line_outage(key)
        for end in key:
            yield ContingencySpec.line_disconnect(key, open_end=end)


_CIRCUITS = {"bare_line": bare_line_segment, "two_load_bus": two_load_bus_segment,
             "small_pvb": small_pvb_segment}


@pytest.mark.parametrize("shape", ["paper6bus-1", "paper6bus-2", "paper6bus-3", "arch9bus-1",
                                   "arch9bus-2", "arch9bus-3", *_CIRCUITS])
def test_assembled_a_is_exact_for_every_scenario_shape(paper_net, arch_net, shape):
    # every bundled segment and hand-built circuit under every contingency
    # its internal lines admit: grounded ends, aux halves, no resource
    if shape in _CIRCUITS:
        segment = _CIRCUITS[shape]()
    else:
        net, seg_id = shape.split("-")
        nets = {"paper6bus": (paper_net, PAPER_ASSIGNMENT), "arch9bus": (arch_net, ARCH_ASSIGNMENT)}
        segment = next(s for s in segment_network(*nets[net]) if s.id == int(seg_id))
    for i, con in enumerate(_every_contingency(segment)):
        _assert_affine_exact(segment, con, build_state_space(segment, con), i)


@pytest.mark.parametrize("scenario_i", [0, 1, 2, 3])
def test_b1_matches_fd_jacobian_in_u1(seg1, m1_contingencies, m1_family, scenario_i):
    con, model = m1_contingencies[scenario_i], m1_family[scenario_i]
    J = fd_jacobian(
        lambda u: segment_rhs(seg1, con, model.x_op, u, np.zeros(2)), _u1_op(seg1))
    assert np.max(np.abs(J - model.B1)) <= 1e-8 * np.max(np.abs(model.B1))
    assert np.all(model.B1[4:] == 0.0)


def test_rhs_vanishes_at_operating_point(seg1, m1_contingencies, m1_family):
    for con, model in zip(m1_contingencies, m1_family):
        u1_op = np.array([0.5, 0.1, 0.8])
        resid = np.linalg.norm(segment_rhs(seg1, con, model.x_op, u1_op, np.zeros(2)))
        assert resid <= 1e-6 * (1.0 + np.linalg.norm(model.x_op))


def _kcl_segment(bus_ids, lines):
    loads = [LOAD_A, LOAD_B]
    buses = tuple(BusSpec(b, "Load", load=loads[i % 2]) for i, b in enumerate(bus_ids))
    return SegmentModel(id=1, pvb_bus=None, load_buses=frozenset(bus_ids),
                        internal_lines=tuple(lines), aux_buses=(),
                        buses=buses, omega_nom=377.0)


@pytest.mark.parametrize("bus_ids,lines", [
    ((1, 2), [LineSpec(1, 2, 1.0, 1e-3)]),
    ((1, 2, 3), [LineSpec(1, 2, 1.0, 1e-3), LineSpec(2, 3, 0.5, 2e-3)]),
    ((1, 2, 3, 4), [LineSpec(1, 2, 1.0, 1e-3), LineSpec(1, 3, 0.5, 2e-3),
                    LineSpec(1, 4, 0.8, 1.5e-3)]),
    ((1, 2, 3, 4), [LineSpec(1, 2, 1.0, 1e-3), LineSpec(2, 3, 0.5, 2e-3),
                    LineSpec(3, 4, 0.7, 1e-3), LineSpec(1, 4, 0.9, 3e-3)]),
])
def test_kcl_rows_match_incidence(bus_ids, lines):
    seg = _kcl_segment(bus_ids, lines)
    model = build_state_space(seg, ContingencySpec.normal())
    ix = labels_index(model)
    inc = branch_incidence(bus_ids, [(ln.from_bus, ln.to_bus) for ln in lines])
    for r, bus in enumerate(bus_ids):
        C_shunt = seg.bus(bus).load.C
        for axis in ("q", "d"):
            vrow = ix[f"V_{bus}_{axis}"]
            for j, ln in enumerate(lines):
                u, v = ln.key()
                col = ix[f"I_{u}_{v}_{axis}"]
                assert model.A[vrow, col] == inc[r, j] / C_shunt
            assert model.A[vrow, ix[f"I_LL{bus}_{axis}"]] == -1.0 / C_shunt


def test_scenario_locality(paper_segments, m1_family):
    # whatever happens on segment 2's lines cannot touch segment 1's matrices
    seg2 = next(s for s in paper_segments if s.id == 2)
    build_family(seg2, [ContingencySpec.normal(),
                        ContingencySpec.line_outage((2, 5))])
    seg1 = next(s for s in paper_segments if s.id == 1)
    rebuilt = build_state_space(seg1, ContingencySpec.normal())
    assert np.array_equal(rebuilt.A, m1_family[0].A)
    assert np.array_equal(rebuilt.B1, m1_family[0].B1)


def test_eigen_two_state_bare_line():
    model = build_state_space(bare_line_segment(R=1.0, L=1.0, omega=0.0),
                              ContingencySpec.normal())
    assert model.n == 2
    eig = np.linalg.eigvals(model.A)
    assert np.allclose(sorted(eig.real), [-1.0, -1.0])
    assert np.allclose(eig.imag, 0.0)


def test_pvb_block_zero_couplings(m1_family):
    # resource states never couple to line or aux currents directly, and the
    # disturbance channel never drives the resource block
    for sc in m1_family:
        net_aux_cols = slice(6, 10)
        assert np.all(sc.A[0:6, net_aux_cols] == 0.0)
        assert np.all(sc.B2[0:6, :] == 0.0)


def test_family_json_roundtrip(m1_family):
    text = json.dumps(family_to_json(m1_family))
    again = family_from_json(json.loads(text))
    assert again.segment_id == m1_family.segment_id
    assert again.state_labels == m1_family.state_labels
    for a, b in zip(again, m1_family):
        assert a.name == b.name
        for fname in ("A", "B1", "B2", "C", "D2", "x_op"):
            assert np.array_equal(getattr(a, fname), getattr(b, fname))


@pytest.mark.parametrize("fname", ["A", "B1", "B2", "C", "D2", "x_op"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_family_from_json_rejects_non_finite(m1_family, fname, bad):
    doc = family_to_json(m1_family)
    entry = doc["scenarios"][3][fname]
    if fname == "x_op":
        entry[-1] = bad
    else:
        entry[-1][-1] = bad
    with pytest.raises(NetworkFormatError,
                       match=rf"scenario 3 \(line_disconnect_1_4\): {fname} has a NaN"):
        family_from_json(doc)


def test_family_uniformity_enforced(m1_family):
    small = build_state_space(small_pvb_segment(), ContingencySpec.normal(), alpha=1)
    with pytest.raises(BuildError, match="labels differ"):
        ScenarioFamily(segment_id=1, scenarios=(m1_family[0], small))
