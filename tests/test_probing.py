import numpy as np
import pytest

from conftest import make_family, make_model, small_pvb_segment
from oracles import trapezoid_lti
from shslab.errors import ConfigError, NumericalError
from shslab.probing import (ProbingDesign, channel_index, compute_delta_min,
                            compute_mu0, compute_mu1, current_state_mask, design_mami,
                            probe_from_json, probe_to_json)
from shslab.ssbuild import ContingencySpec, ScenarioFamily, build_state_space


def test_channel_index():
    assert channel_index("d") == 0
    assert channel_index("delta") == 1
    assert channel_index("m_a") == 2
    assert channel_index(2) == 2
    assert channel_index("0") == 0
    assert channel_index("2") == 2
    with pytest.raises(ConfigError):
        channel_index("phi")
    with pytest.raises(ConfigError):
        channel_index(5)
    with pytest.raises(ConfigError):
        channel_index("3")


def test_current_state_mask(m1_family):
    labels = m1_family.state_labels
    mask = current_state_mask(labels)
    picked = {lab for lab, m in zip(labels, mask) if m}
    assert picked == {"i_t_q", "i_t_d", "I_1_4_q", "I_1_4_d",
                      "I_a1_2_1_q", "I_a1_2_1_d",
                      "I_LL1_q", "I_LL1_d", "I_LL4_q", "I_LL4_d"}
    assert "i_pv" not in picked and "v_dc" not in picked


def test_mu0_two_percent_of_max_current(m1_family):
    model = m1_family[0]
    eq = np.zeros(model.n)
    ix = {lab: i for i, lab in enumerate(model.state_labels)}
    eq[ix["i_t_q"]] = 281.5      # largest current magnitude
    eq[ix["I_1_4_q"]] = -120.0
    eq[ix["v_dc"]] = 1000.0      # not a current; must be ignored
    assert compute_mu0(model, eq) == pytest.approx(5.63, abs=1e-12)


def test_mu0_small_cases(m1_family):
    model = m1_family[0]
    ix = {lab: i for i, lab in enumerate(model.state_labels)}
    eq = np.zeros(model.n)
    assert compute_mu0(model, eq) == 0.0
    eq[ix["I_LL1_q"]] = -10.0
    eq[ix["I_LL4_q"]] = 4.0
    assert compute_mu0(model, eq) == pytest.approx(0.2, abs=1e-15)


def test_mu0_operating_point_m1(m1_family):
    mu0 = compute_mu0(m1_family[0], m1_family[0].x_op)
    assert mu0 > 0
    mask = current_state_mask(m1_family[0].state_labels)
    assert mu0 == pytest.approx(0.02 * np.abs(m1_family[0].x_op[mask]).max())


def test_mu1_selection_rows(m1_family):
    assert compute_mu1(m1_family) == pytest.approx(1.0, abs=1e-12)


def test_mu1_scaled_and_mixed():
    A = np.diag([-1.0, -2.0])
    base = np.array([[1.0, 0.0]])
    fam2 = make_family([make_model(A, C=2.0 * base)])
    assert compute_mu1(fam2) == pytest.approx(2.0)
    mixed = make_family([make_model(A, C=base, alpha=0),
                         make_model(A, C=3.0 * base, alpha=1, name="x")])
    assert compute_mu1(mixed) == pytest.approx(3.0)


def test_mu1_refuses_unstable_family():
    fam = make_family([make_model(np.array([[1.0]]))])
    with pytest.raises(NumericalError, match="stable"):
        compute_mu1(fam)


@pytest.mark.parametrize("ts", [7e-3, 0.02], ids=["partial-sample", "longer-than-window"])
def test_delta_min_needs_whole_samples(m1_family, ts):
    with pytest.raises(ConfigError, match="whole number"):
        compute_delta_min(m1_family, "delta", 0.01, ts)


def test_delta_min_identical_scenarios_flagged(m1_family):
    twin = make_family([make_model(np.diag([-1.0, -2.0]), alpha=0),
                        make_model(np.diag([-1.0, -2.0]), alpha=1, name="copy")])
    result = compute_delta_min(twin, "delta", 0.01, 1e-4)
    assert result.value == 0.0
    assert result.indistinguishable
    with pytest.raises(NumericalError, match="indistinguishable"):
        design_mami(twin, np.array([0.0, 1.0]), "delta", 0.01, 1e-4)


def test_delta_min_m1_six_positive_pairs(m1_family):
    result = compute_delta_min(m1_family, "delta", 0.002, 1e-5)
    assert len(result.gaps) == 6
    assert all(gap > 0 for gap in result.gaps.values())
    assert result.value == min(result.gaps.values())
    assert result.pair in result.gaps


def test_delta_min_cross_checked_with_trapezoid_oracle():
    # two variants differing only in the line resistance
    seg_a = small_pvb_segment(line_R=1.0)
    seg_b = small_pvb_segment(line_R=1.3)
    fam = ScenarioFamily(segment_id=7, scenarios=(
        build_state_space(seg_a, ContingencySpec.normal(), alpha=0),
        build_state_space(seg_b, ContingencySpec.normal(), alpha=1)))
    tau0, ts = 2e-3, 1e-5
    result = compute_delta_min(fam, "delta", tau0, ts)
    assert result.value > 0

    fine = ts / 10
    steps = int(round(tau0 / fine))
    aggs = []
    for sc in fam:
        u = np.zeros(3 + sc.B2.shape[1])
        u[1] = 1.0
        B = np.hstack([sc.B1, sc.B2])
        states = trapezoid_lti(sc.A, B, u, np.zeros(sc.n), fine, steps)
        aggs.append((sc.C @ states.T).sum(axis=0))
    oracle = np.max(np.abs(aggs[0] - aggs[1]))
    assert result.value == pytest.approx(oracle, rel=1e-2)


def test_threshold_arithmetic_reference_values():
    # mu0=5.63, mu1=1, delta_min=112.15 -> R0 just above 0.1004; R=0.101 clears it
    R0 = 2.0 * 5.63 * 1.0 / 112.15
    assert R0 == pytest.approx(0.10040, abs=1e-5)
    design = ProbingDesign(mu0=5.63, mu1=1.0, delta_min=112.15, R0=R0, R=0.101,
                           channel=1, tau0=0.01)
    assert design.R > design.R0


def test_threshold_arithmetic_trivial():
    assert 2.0 * 1.0 * 1.0 / 2.0 == 1.0
    design = ProbingDesign(mu0=1.0, mu1=1.0, delta_min=2.0, R0=1.0, R=1.01,
                           channel=0, tau0=1.0)
    assert design.R0 == 1.0


def test_margin_yields_r(m1_probe):
    assert m1_probe.R == pytest.approx(1.01 * m1_probe.R0, rel=1e-12)
    assert m1_probe.R > m1_probe.R0


def test_design_on_bundled_family(m1_family, m1_probe):
    assert m1_probe.mu0 == pytest.approx(compute_mu0(m1_family[0], m1_family[0].x_op))
    assert m1_probe.mu1 == pytest.approx(1.0)
    assert m1_probe.delta_min > 0
    assert m1_probe.R0 == pytest.approx(
        2 * m1_probe.mu0 * m1_probe.mu1 / m1_probe.delta_min, rel=1e-12)
    assert m1_probe.channel == 1
    assert m1_probe.argmin_pair is not None


def test_r0_scaling_properties():
    base = 2.0 * 3.0 * 2.0 / 4.0
    assert 2.0 * 6.0 * 2.0 / 4.0 == pytest.approx(2 * base)      # linear in mu0
    assert 2.0 * 3.0 * 4.0 / 4.0 == pytest.approx(2 * base)      # linear in mu1
    assert 2.0 * 3.0 * 2.0 / 8.0 == pytest.approx(base / 2)      # inverse in delta


def test_design_rejects_non_positive_margin(m1_family):
    with pytest.raises(ConfigError, match="margin"):
        design_mami(m1_family, m1_family[0].x_op, 1, 0.002, 1e-5, margin=1.0)


def test_design_rejects_zero_mu0(m1_family):
    with pytest.raises(NumericalError, match="mu0"):
        design_mami(m1_family, np.zeros(18), 1, 0.002, 1e-5)


def test_probing_design_constructor_guards():
    with pytest.raises(ConfigError, match="does not exceed"):
        ProbingDesign(mu0=1.0, mu1=1.0, delta_min=2.0, R0=1.0, R=0.5,
                      channel=0, tau0=1.0)
    with pytest.raises(ConfigError, match="inconsistent"):
        ProbingDesign(mu0=1.0, mu1=1.0, delta_min=2.0, R0=0.9, R=1.5,
                      channel=0, tau0=1.0)
    with pytest.raises(ConfigError, match="delta_min"):
        ProbingDesign(mu0=1.0, mu1=1.0, delta_min=0.0, R0=1.0, R=2.0,
                      channel=0, tau0=1.0)


def test_probe_document_shape_is_step(m1_probe):
    doc = probe_to_json(m1_probe)
    assert doc["shape"] == "step"
    assert probe_from_json(doc) == m1_probe
    doc.pop("shape")
    assert probe_from_json(doc) == m1_probe
    with pytest.raises(ConfigError, match="p.json: unsupported probe shape 'chirp'"):
        probe_from_json(dict(doc, shape="chirp"), "p.json")


def test_enlarging_family_cannot_increase_delta_min(m1_family):
    tau0, ts = 0.002, 1e-5
    sub = ScenarioFamily(segment_id=1, scenarios=m1_family.scenarios[:2])
    d_sub = compute_delta_min(sub, 1, tau0, ts)
    d_full = compute_delta_min(m1_family, 1, tau0, ts)
    assert d_full.value <= d_sub.value + 1e-12

