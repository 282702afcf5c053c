import json
import math

import pytest

from conftest import load_bundled, with_line
from shslab.errors import ConfigError
from shslab.grid import ControlInput, LineSpec, parse_network, validate


def minimal_doc():
    return {
        "name": "tiny",
        "omega_hz": 60,
        "buses": [
            {"id": 1, "kind": "PVB",
             "pvb": {"R_PV_ohm": -2.3, "I_PV_A": 550, "L_1PV_mH": 2, "C_PV_mF": 10,
                     "R_2PV_mohm": 5.25, "L_2PV_mH": 1.8, "R_s_mohm": 3.75,
                     "R_e_mohm": 3.75, "R_t_mohm": 2.745, "C_s_F": 7586.5,
                     "C_b_F": 7586.5},
             "load": {"P_kW": 25, "Q_kVAR": 12.09, "pf": 0.9, "R_ohm": 0.235,
                      "L_mH": 100, "Rl_ohm": 0.24, "C_mF": 0.72}},
            {"id": 2, "kind": "Load",
             "load": {"P_kW": 45, "Q_kVAR": 21.74, "pf": 0.9, "R_ohm": 0.423,
                      "L_mH": 180, "Rl_ohm": 0.43, "C_mF": 1.29}},
        ],
        "lines": [{"from": 1, "to": 2, "R_ohm": 1.26, "L_mH": 0.636}],
    }


def test_parse_line_bare_si_fields():
    doc = minimal_doc()
    doc["lines"] = [{"from": 1, "to": 2, "R": 1.26, "L": 0.636e-3}]
    model = parse_network(doc)
    line = model.lines[0]
    assert (line.from_bus, line.to_bus) == (1, 2)
    assert line.R == 1.26
    assert line.L == 0.636e-3


def test_unit_suffixes_normalize():
    doc = minimal_doc()
    model = parse_network(doc)
    assert model.lines[0].L == pytest.approx(0.636e-3, rel=1e-15)
    assert model.bus(1).load.C == pytest.approx(0.72e-3, rel=1e-15)
    assert model.bus(1).pvb.R_2PV == pytest.approx(5.25e-3, rel=1e-15)


def test_si_and_milli_spellings_agree():
    # SI doc derived by applying the documented factors; a decimal SI literal
    # can differ from the converted value by one ulp, so build by product.
    doc_milli = minimal_doc()
    doc_si = json.loads(json.dumps(doc_milli))
    line = doc_si["lines"][0]
    line["L_H"] = line.pop("L_mH") * 1e-3
    for bus in doc_si["buses"]:
        load = bus["load"]
        load["L_H"] = load.pop("L_mH") * 1e-3
        load["C_F"] = load.pop("C_mF") * 1e-3
        if "pvb" in bus:
            pvb = bus["pvb"]
            for key, factor in (("L_1PV_mH", 1e-3), ("C_PV_mF", 1e-3),
                                ("R_2PV_mohm", 1e-3), ("L_2PV_mH", 1e-3),
                                ("R_s_mohm", 1e-3), ("R_e_mohm", 1e-3),
                                ("R_t_mohm", 1e-3)):
                base = key.rsplit("_", 1)[0]
                suffix = {"mH": "_H", "mF": "_F", "mohm": "_ohm"}[key.rsplit("_", 1)[1]]
                pvb[base + suffix] = pvb.pop(key) * factor
    assert parse_network(doc_si) == parse_network(doc_milli)


def test_duplicate_unit_spelling_rejected():
    doc = minimal_doc()
    doc["lines"][0]["R"] = 1.26
    with pytest.raises(ConfigError, match="more than once"):
        parse_network(doc)


def test_empty_network_rejected():
    with pytest.raises(ConfigError, match="empty network"):
        parse_network({"name": "none", "buses": [], "lines": []})


def test_parse_error_carries_location():
    doc = minimal_doc()
    del doc["lines"][0]["R_ohm"]
    with pytest.raises(ConfigError, match=r"\$\.lines\[0\]"):
        parse_network(doc)


def test_bundled_paper6bus_shape():
    model = parse_network(load_bundled("paper6bus.json"))
    assert len(model.buses) == 6
    assert len(model.lines) == 5
    assert sorted(b.id for b in model.buses if b.kind == "PVB") == [4, 5, 6]
    assert model.omega_nom == pytest.approx(2 * math.pi * 60)


@pytest.mark.parametrize("name", ["paper6bus.json", "arch9bus.json"])
def test_bundled_documents_validate_clean(name):
    assert validate(parse_network(load_bundled(name))) == []


def test_dangling_line_violation(paper_net):
    bad = with_line(paper_net, LineSpec(1, 9, 1.0, 1e-3))
    codes = [v.code for v in validate(bad)]
    assert "dangling-endpoint" in codes


def test_zero_inductance_violation(paper_net):
    bad = with_line(paper_net, LineSpec(4, 5, 1.0, 0.0))
    report = validate(bad)
    assert any(v.code == "non-physical-inductance" for v in report)


def test_duplicate_line_violation(paper_net):
    bad = with_line(paper_net, LineSpec(2, 1, 0.5, 1e-3))  # 1-2 exists
    assert any(v.code == "duplicate-line" for v in validate(bad))


def test_disconnected_graph_violation(paper_net):
    import dataclasses
    bad = dataclasses.replace(paper_net, lines=paper_net.lines[1:])
    assert any(v.code == "disconnected" for v in validate(bad))


def test_load_bus_with_pvb_params_rejected():
    doc = minimal_doc()
    doc["buses"][1]["pvb"] = doc["buses"][0]["pvb"]
    with pytest.raises(ConfigError, match="cannot carry 'pvb'"):
        parse_network(doc)


@pytest.mark.parametrize("i, kind", [(0, "PVB"), (1, "Load")])
def test_bus_without_load_rejected(i, kind):
    doc = minimal_doc()
    del doc["buses"][i]["load"]
    with pytest.raises(ConfigError,
                       match=rf"\$\.buses\[{i}\]: {kind} bus needs 'load' parameters"):
        parse_network(doc)


@pytest.mark.parametrize("bus_id", [4, 1])
def test_bus_without_load_violation(paper_net, bus_id):
    import dataclasses
    i = paper_net.bus_ids.index(bus_id)
    buses = list(paper_net.buses)
    buses[i] = dataclasses.replace(buses[i], load=None)
    bad = dataclasses.replace(paper_net, buses=tuple(buses))
    kind = buses[i].kind
    assert [(v.code, v.location, v.message) for v in validate(bad)] == [
        ("missing-load-params", f"$.buses[{i}]", f"{kind} bus without load parameters")]


def test_operating_point_parsed_and_checked():
    doc = minimal_doc()
    doc["buses"][0]["pvb"]["operating_point"] = {"delta_rad": 0.25}
    # fields left out take ControlInput's defaults
    assert parse_network(doc).bus(1).pvb.operating_point == ControlInput(delta=0.25)
    assert ControlInput() == ControlInput(d=0.5, delta=0.1, m_a=0.8)
    doc["buses"][0]["pvb"]["operating_point"]["m_a"] = 1.2
    with pytest.raises(ConfigError, match=r"\[bad-operating-point\] modulation index") as exc:
        parse_network(doc)
    assert exc.value.location == "$.buses[0].pvb.operating_point.m_a"


def test_positive_r_pv_rejected():
    doc = minimal_doc()
    doc["buses"][0]["pvb"]["R_PV_ohm"] = 2.3
    with pytest.raises(ConfigError, match="R_PV"):
        parse_network(doc)


def test_validation_report_is_deterministic(paper_net):
    bad = with_line(with_line(paper_net, LineSpec(1, 9, 1.0, 1e-3)),
                    LineSpec(3, 3, -1.0, 0.0))
    r1, r2 = validate(bad), validate(bad)
    assert r1 == r2
    assert [v.location for v in r1] == sorted(v.location for v in r1)


def test_omega_defaults_to_60hz():
    doc = minimal_doc()
    del doc["omega_hz"]
    assert parse_network(doc).omega_nom == pytest.approx(2 * math.pi * 60)


def test_omega_rad_s_override():
    doc = minimal_doc()
    del doc["omega_hz"]
    doc["omega_rad_s"] = 100.0
    assert parse_network(doc).omega_nom == 100.0
