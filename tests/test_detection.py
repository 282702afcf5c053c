import dataclasses
import re

import numpy as np
import pytest

import shslab.detection as detection
from conftest import PAPER_TS, bits, make_model
from oracles import (held_factor, loop_detect, loop_fit, loop_observability_stack,
                     loop_samples, simulate, step_records)
from shslab.detection import (DetectionReport, MeasurementWindow, detect_sequence,
                              estimate_initial_state, grid_stack, observability_stack,
                              sample_indices)
from shslab.errors import ConfigError, NumericalError
from shslab.linsys import discretize_zoh
from shslab.util import _MEMO

TS = 1e-5
STEPS = 500  # 5 ms window on the coarse test grid
SUB = 5


@pytest.fixture(scope="module")
def dmodels(m1_family):
    return [discretize_zoh(sc, TS) for sc in m1_family]


def probe_step(magnitude, channel=1, q=2):
    """[u1; u2] of a probe of `magnitude` on u1 channel `channel`."""
    held = np.zeros(3 + q)
    held[channel] = magnitude
    return held


def on_grid(window, sub):
    """The window of every sub-th sample of a window that keeps every sample."""
    assert window.stride == 1
    return dataclasses.replace(window, samples=window.samples[::sub], stride=sub)


def probe_window(dmodel, x0, magnitude, channel=1, steps=STEPS, noise=None, sub=SUB):
    """The estimator grid, every sub-th sample, of the oracle's record of
    `dmodel` from x0 under a probe step of `magnitude`, with `noise` added to
    every sample of the record."""
    held = probe_step(magnitude, channel, dmodel.Bd2.shape[1])
    trace = simulate(dmodel, x0, *step_records(held, steps), steps)
    y = trace.outputs if noise is None else trace.outputs + noise
    return on_grid(MeasurementWindow(t_start=0.0, ts=TS, samples=y, steps=steps, held=held),
                   sub)


def detect(models, windows, **kwargs):
    """detect_sequence on windows that hold window 0's inputs."""
    for window in windows:
        assert np.array_equal(bits(window.held), bits(windows[0].held))
    return detect_sequence(models, windows, **kwargs)


def forced_outputs(dmodel, window):
    """The oracle's forced response of `dmodel` to the window's held inputs."""
    return simulate(dmodel, None, *step_records(window.held, window.steps),
                    window.steps).outputs


def observable_projector(G, rtol=1e-6):
    """Projector onto the directions the window actually resolves. States the
    window horizon cannot excite into the outputs (slow storage modes, outaged
    line currents) admit no recovery guarantee; the estimator returns their
    minimum-norm (zero) component."""
    _, s, Vt = np.linalg.svd(G, full_matrices=False)
    keep = Vt[s >= rtol * s[0]]
    return keep.T @ keep


def test_self_recovery_noise_free(dmodels, m1_probe):
    rng = np.random.default_rng(11)
    for i, d in enumerate(dmodels):
        G = observability_stack(d, STEPS, SUB)
        x0 = observable_projector(G) @ (rng.standard_normal(18) * m1_probe.mu0)
        window = probe_window(d, x0, m1_probe.R)
        x0_hat, residual = estimate_initial_state(d, window)
        assert np.linalg.norm(x0_hat - x0) <= 1e-6 * np.linalg.norm(x0)
        ynorm = np.linalg.norm(window.samples)
        assert residual <= 1e-8 * ynorm


def test_output_equivalent_recovery_any_x0(dmodels, m1_probe):
    # arbitrary x0: the estimate reproduces the free output trajectory even
    # when unobservable components cannot come back
    rng = np.random.default_rng(12)
    d = dmodels[0]
    G = observability_stack(d, STEPS, SUB)
    x0 = rng.standard_normal(18) * m1_probe.mu0
    window = probe_window(d, x0, m1_probe.R)
    x0_hat, _ = estimate_initial_state(d, window)
    assert np.linalg.norm(G @ (x0_hat - x0)) <= 1e-8 * np.linalg.norm(G @ x0)


def test_zero_window_minimum_norm(dmodels):
    d = dmodels[0]
    window = probe_window(d, np.zeros(18), 0.0)
    x0_hat, residual = estimate_initial_state(d, window)
    assert np.array_equal(x0_hat, np.zeros(18))
    assert residual == 0.0


def test_cross_fit_ordering_all_pairs(dmodels, m1_probe):
    rng = np.random.default_rng(23)
    for i, d_true in enumerate(dmodels):
        x0 = rng.standard_normal(18) * m1_probe.mu0
        window = probe_window(d_true, x0, m1_probe.R)
        residuals = [estimate_initial_state(d, window)[1]
                     for d in dmodels]
        for j in range(len(dmodels)):
            if j != i:
                assert residuals[i] < residuals[j]


def test_detect_picks_generating_scenario(dmodels, m1_probe):
    window = probe_window(dmodels[2], np.zeros(18), m1_probe.R)
    verdict = detect(dmodels, [window]).verdicts[0]
    assert verdict.detected == 2
    assert verdict.residuals[2] < min(r for j, r in enumerate(verdict.residuals) if j != 2)


def test_detect_family_of_one(dmodels):
    window = probe_window(dmodels[1], np.ones(18), 0.0)
    verdict = detect(dmodels[:1], [window]).verdicts[0]
    assert verdict.detected == 0


def test_probe_off_adversarial_x0_can_miss(dmodels):
    # seeded search over random initial states at shrinking scales, ending at
    # the degenerate adversary (zero deviation, trajectories coincide exactly)
    rng = np.random.default_rng(20250810)
    directions = [rng.standard_normal(18) for _ in range(4)]
    scales = [1.0, 1e-4, 1e-8, 0.0]
    misses = 0
    for direction in directions:
        for scale in scales:
            x0 = scale * direction
            window = probe_window(dmodels[1], x0, 0.0)
            verdict = detect(dmodels, [window]).verdicts[0]
            misses += verdict.detected != 1
    assert misses >= 1


def test_tie_break_lowest_index(dmodels):
    twins = [dmodels[1], dmodels[1]]
    window = probe_window(dmodels[1], np.full(18, 3.0), 0.0)
    verdict = detect(twins, [window]).verdicts[0]
    assert verdict.detected == 0
    assert verdict.residuals[0] == verdict.residuals[1]


def test_detection_deterministic(dmodels, m1_probe):
    rng = np.random.default_rng(5)
    x0 = rng.standard_normal(18)
    w1 = probe_window(dmodels[3], x0, m1_probe.R)
    w2 = probe_window(dmodels[3], x0, m1_probe.R)
    v1 = detect(dmodels, [w1]).verdicts[0]
    v2 = detect(dmodels, [w2]).verdicts[0]
    assert np.array_equal(v1.residuals, v2.residuals)
    assert v1.detected == v2.detected


def test_detect_sequence_empty(dmodels):
    report = detect(dmodels, [], truth=[])
    assert report.verdicts == ()
    assert report.accuracy is None


def test_detect_sequence_scores(dmodels, m1_probe):
    rng = np.random.default_rng(9)
    truth = [3, 0, 2, 1, 2, 0]
    windows = [probe_window(dmodels[a], rng.standard_normal(18), m1_probe.R)
               for a in truth]
    report = detect(dmodels, windows, truth=truth)
    assert report.detected == truth
    assert report.accuracy == 1.0
    assert report.matches == 6
    doc = report.to_json()
    assert doc["accuracy"] == 1.0
    assert [w["true"] for w in doc["windows"]] == truth
    assert all(len(w["residuals"]) == 4 for w in doc["windows"])


def test_report_detected_is_row_argmin_with_ties_to_index_0():
    report = DetectionReport(residuals=[[0.5, 0.5, 0.7], [0.3, 0.1, 0.1], [2.0, 1.0, 0.0]])
    assert report.detected == [0, 1, 2]
    assert all(type(d) is int for d in report.detected)


def test_report_to_json_from_the_table():
    rows = [[0.25, 0.5], [1.5, 0.125]]
    windows = [{"k": 0, "detected": 0, "residuals": [0.25, 0.5]},
               {"k": 1, "detected": 1, "residuals": [1.5, 0.125]}]
    assert DetectionReport(residuals=rows).to_json() == {"windows": windows}
    scored = DetectionReport(residuals=rows, truth=[0, 0]).to_json()
    assert scored == {"windows": [dict(w, true=0) for w in windows],
                      "matches": 1, "accuracy": 0.5}
    assert list(scored) == ["windows", "matches", "accuracy"]
    assert list(scored["windows"][0]) == ["k", "detected", "residuals", "true"]
    assert all(type(r) is float for w in scored["windows"] for r in w["residuals"])
    empty = np.empty((0, 4))
    assert DetectionReport(residuals=empty).to_json() == {"windows": []}
    assert DetectionReport(residuals=empty, truth=[]).to_json() == {
        "windows": [], "matches": 0, "accuracy": None}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_report_rejects_non_finite_residual(bad):
    with pytest.raises(NumericalError, match="finite"):
        DetectionReport(residuals=[[0.1, 0.2], [bad, 0.3]])


@pytest.mark.parametrize("shape", [(2,), (2, 0), (1, 2, 2)], ids=["1d", "no-scenario", "3d"])
def test_report_rejects_a_table_of_wrong_shape(shape):
    with pytest.raises(ConfigError, match=r"\(K, m\) table"):
        DetectionReport(residuals=np.ones(shape))


@pytest.mark.parametrize("truth, k, a", [([9, 0], 0, 9), ([0, -1], 1, -1), ([0, 4], 1, 4)],
                         ids=["9", "-1", "m"])
def test_report_rejects_a_truth_entry_outside_the_scenarios(truth, k, a):
    with pytest.raises(ConfigError, match=re.escape(
            f"truth entry {k} = {a} outside scenario set 0..3")):
        DetectionReport(residuals=np.zeros((2, 4)), truth=truth)
    assert DetectionReport(residuals=np.zeros((2, 4)), truth=[3, 0]).matches == 1


def test_report_verdicts_are_read_only_rows_of_the_table():
    table = np.array([[0.3, 0.1], [0.2, 0.4]])
    report = DetectionReport(residuals=table)
    table[0, 0] = 9.0  # the report keeps its own copy
    assert report.residuals[0, 0] == 0.3 and not report.residuals.flags.writeable
    for k, verdict in enumerate(report.verdicts):
        assert verdict.detected == report.detected[k]
        assert np.shares_memory(verdict.residuals, report.residuals[k])
        assert np.array_equal(verdict.residuals, report.residuals[k])
        with pytest.raises(ValueError, match="read-only"):
            verdict.residuals[0] = 1.0


def test_grouped_detection_matches_per_window_fits(dmodels, m1_probe):
    # two input records (probe on, probe off) and two lengths, one call per
    # record and length; scenario 2 (line outage) has a rank-deficient stack
    rng = np.random.default_rng(31)
    plan = [  # (scenario, probe on, steps, x0 scale)
        (2, True, STEPS, 1.0), (0, True, STEPS, 1.0), (3, True, STEPS, 0.0),
        (1, False, STEPS, 1.0), (2, False, STEPS, 0.0), (0, False, STEPS, 0.0),
        (2, False, 300, 1.0), (3, True, 300, 1.0), (2, True, 300, 1.0),
        (1, True, STEPS, 1.0)]
    windows = [probe_window(dmodels[a], scale * rng.standard_normal(18) * m1_probe.mu0,
                            m1_probe.R if on else 0.0, steps=steps)
               for a, on, steps, scale in plan]
    records = {}
    for entry, window in zip(plan, windows):
        records.setdefault(entry[1:3], []).append((entry, window))
    reports = [detect(dmodels, [w for _, w in group])
               for group in records.values()]
    assert len(records) == 4

    fitted = [(entry, window, verdict) for group, report in zip(records.values(), reports)
              for (entry, window), verdict in zip(group, report.verdicts)]
    assert len(fitted) == len(plan)
    for (a, on, steps, scale), window, verdict in fitted:
        fits = [estimate_initial_state(d, window) for d in dmodels]
        ref = np.array([r for _, r in fits])
        got = verdict.residuals
        if scale == 0.0 and not on:
            # an all-zero window: exact ties, broken toward index 0
            assert np.all(got == 0.0) and np.all(ref == 0.0)
            assert verdict.detected == 0
            continue
        tol = 1e-9 * np.maximum(np.abs(ref), np.abs(got)) \
            + 1e-14 * np.linalg.norm(window.samples)
        assert np.all(np.abs(got - ref) <= tol)
        assert verdict.detected == int(np.argmin(ref))
        if on:
            assert verdict.detected == a


@pytest.mark.parametrize("subsample", [1, SUB])
def test_fit_matches_full_stack_lstsq(dmodels, m1_probe, subsample):
    # the chunked QR reduction against numpy's lstsq on the whole stack, on
    # stacks of several chunks, including the rank-deficient line outage
    rng = np.random.default_rng(7 + subsample)
    idx = sample_indices(STEPS, subsample)
    for gen in dmodels:
        noise = 1e-3 * rng.standard_normal((STEPS + 1, gen.p))
        window = probe_window(gen, rng.standard_normal(18) * m1_probe.mu0,
                              m1_probe.R, noise=noise, sub=subsample)
        for d in dmodels:
            stack = observability_stack(d, STEPS, subsample)
            assert stack.shape[0] > 2 * detection._QR_ROWS
            y = (window.samples - forced_outputs(d, window)[idx]).reshape(-1)
            x_ref = np.linalg.lstsq(stack, y, rcond=None)[0]
            ref = np.linalg.norm(stack @ x_ref - y)
            x0_hat, residual = estimate_initial_state(d, window)
            tol = 1e-14 * np.linalg.norm(y)
            assert abs(residual - ref) <= 1e-9 * ref + tol
            assert np.max(np.abs(stack @ x0_hat - stack @ x_ref)) <= 1e-9 * np.max(np.abs(y))
            assert np.linalg.norm(x0_hat - x_ref) <= 1e-9 * np.linalg.norm(x_ref)


def test_fit_rank_cut_is_full_stack_rule(m1_family):
    # at the paper grid the stacks carry singular values between the cut numpy
    # applies to the 18 x 18 triangle (18 eps) and the one it applies to the
    # full stack (rows * eps); the estimate must use the full-stack cut
    rng = np.random.default_rng(11)
    steps, sub = 10000, 10
    for sc in m1_family:
        d = discretize_zoh(sc, PAPER_TS)
        stack = observability_stack(d, steps, sub)
        y_free = stack @ rng.standard_normal(18) + 1e-3 * rng.standard_normal(stack.shape[0])
        x_ref = np.linalg.lstsq(stack, y_free, rcond=None)[0]
        window = MeasurementWindow(t_start=0.0, ts=PAPER_TS, samples=y_free.reshape(-1, d.p),
                                   steps=steps, held=np.zeros(3 + d.Bd2.shape[1]), stride=sub)
        x0_hat, _ = estimate_initial_state(d, window)
        assert np.linalg.norm(x0_hat - x_ref) <= 1e-9 * np.linalg.norm(x_ref)


def test_estimator_rejects_mismatched_ts(dmodels):
    window = probe_window(dmodels[0], np.zeros(18), 0.0)
    other = discretize_zoh_like(dmodels[0])
    with pytest.raises(ConfigError, match="discretized"):
        estimate_initial_state(other, window)


def discretize_zoh_like(d):
    from shslab.linsys import DiscreteStateSpace
    return DiscreteStateSpace(Ad=d.Ad, Bd1=d.Bd1, Bd2=d.Bd2, C=d.C, ts=d.ts * 2)


def test_estimator_rejects_unobservable():
    model = make_model(np.diag([-1.0, -2.0]), C=np.zeros((1, 2)))
    d = discretize_zoh(model, TS)
    window = MeasurementWindow(t_start=0, ts=TS, samples=np.zeros((11, 1)),
                               steps=10, held=np.zeros(3))
    with pytest.raises(NumericalError, match="unobservable"):
        estimate_initial_state(d, window)


def test_minimum_norm_on_rank_deficient():
    # only state 0 observed and the states are decoupled: state 1 must come
    # back as 0 (minimum norm), state 0 recovered
    model = make_model(np.diag([-1.0, -2.0]), C=np.array([[1.0, 0.0]]))
    d = discretize_zoh(model, TS)
    steps = 40
    trace = simulate(d, np.array([2.0, 5.0]), None, None, steps)
    window = MeasurementWindow(t_start=0, ts=TS, samples=trace.outputs,
                               steps=steps, held=np.zeros(3))
    x0_hat, residual = estimate_initial_state(d, window)
    assert x0_hat[0] == pytest.approx(2.0, rel=1e-9)
    assert x0_hat[1] == pytest.approx(0.0, abs=1e-12)
    assert residual <= 1e-9


def test_window_validation():
    with pytest.raises(ConfigError, match=re.escape(
            "samples hold 5 rows; a 3-step window kept at stride 1 holds 4")):
        MeasurementWindow(t_start=0, ts=TS, samples=np.zeros((5, 2)), steps=3,
                          held=np.zeros(3))
    with pytest.raises(ConfigError, match="sample period"):
        MeasurementWindow(t_start=0, ts=0.0, samples=np.zeros((5, 2)), steps=4,
                          held=np.zeros(3))
    for held in (np.zeros((5, 3)), np.zeros(2)):
        with pytest.raises(ConfigError, match=re.escape(
                f"held inputs must be a (3 + q,) vector [u1; u2], got shape {held.shape}")):
            MeasurementWindow(t_start=0, ts=TS, samples=np.zeros((5, 2)), steps=4, held=held)
    for steps in (0, 4.0, True):
        with pytest.raises(ConfigError, match="steps must be an integer >= 1"):
            MeasurementWindow(t_start=0, ts=TS, samples=np.zeros((5, 2)), steps=steps,
                              held=np.zeros(3))


@pytest.mark.parametrize("value", [float("inf"), -float("inf"), float("nan")],
                         ids=["inf", "-inf", "nan"])
def test_window_refuses_non_finite_held_inputs(value):
    held = probe_step(value)
    with pytest.raises(ConfigError, match=re.escape(
            f"held inputs must be finite, got {held.tolist()}")):
        MeasurementWindow(t_start=0, ts=TS, samples=np.zeros((5, 2)), steps=4, held=held)


@pytest.mark.parametrize("ts", [float("inf"), float("nan")], ids=["inf", "nan"])
def test_window_period_must_be_finite(ts):
    with pytest.raises(ConfigError, match=f"sample period must be finite and > 0, got {ts}"):
        MeasurementWindow(t_start=0, ts=ts, samples=np.zeros((5, 2)), steps=4,
                          held=np.zeros(3))


@pytest.mark.parametrize("samples", [np.zeros(5), np.zeros((5, 0)), np.zeros((5, 2, 1))],
                         ids=["1d", "no-output", "3d"])
def test_window_samples_must_be_a_table(samples):
    with pytest.raises(ConfigError, match=re.escape(
            f"samples must be an (N+1, p) table with p >= 1, got shape {samples.shape}")):
        MeasurementWindow(t_start=0, ts=TS, samples=samples, steps=4, held=np.zeros(3))


def test_window_keeps_every_stride_th_sample():
    held = np.zeros(3)
    # 10 steps at stride 3 keep samples 0, 3, 6 and 9
    window = MeasurementWindow(t_start=0, ts=TS, samples=np.zeros((4, 2)), steps=10,
                               held=held, stride=3)
    assert window.steps == 10
    with pytest.raises(ConfigError, match=re.escape(
            "samples hold 5 rows; a 10-step window kept at stride 3 holds 4")):
        MeasurementWindow(t_start=0, ts=TS, samples=np.zeros((5, 2)), steps=10, held=held,
                          stride=3)
    for stride in (0, 2.0, True):
        with pytest.raises(ConfigError, match="stride must be an integer >= 1"):
            MeasurementWindow(t_start=0, ts=TS, samples=np.zeros((11, 2)), steps=10,
                              held=held, stride=stride)


def test_fits_read_the_estimator_grid_of_a_strided_window(dmodels, m1_probe):
    # one record fitted at two grids is two windows; each fit reads every row
    # its window holds, bit for bit the per-scenario oracle's on that grid
    d = dmodels[0]
    record = probe_window(d, None, m1_probe.R, sub=1)
    for sub in (SUB, 2 * SUB):
        grid = on_grid(record, sub)
        x0_hat, residual = estimate_initial_state(d, grid)
        x_ref, r_ref = loop_fit(held_factor(d, STEPS, sub), grid.held, loop_samples([grid]))
        assert np.array_equal(bits(x0_hat), bits(x_ref[:, 0]))
        assert np.array_equal(bits(residual), bits(r_ref[0]))
        ref = np.array([r for r, _ in loop_detect(dmodels, [grid])])
        assert np.array_equal(bits(detect(dmodels, [grid]).residuals), bits(ref))


def test_detect_sequence_rejects_two_grids(dmodels, m1_probe):
    record = probe_window(dmodels[0], np.zeros(18), m1_probe.R, sub=1)
    windows = [on_grid(record, SUB), on_grid(record, SUB), on_grid(record, 2 * SUB)]
    with pytest.raises(ConfigError, match=re.escape(
            "window 2 is kept at stride 10, window 0 at stride 5; windows must keep one grid")):
        detect_sequence(dmodels, windows)


def test_estimate_initial_state_refuses_another_grid(dmodels, m1_probe):
    # a window is fitted on the grid it keeps; subsample may only name it
    d = dmodels[0]
    window = probe_window(d, np.ones(18), m1_probe.R)
    fit = estimate_initial_state(d, window)
    same = estimate_initial_state(d, window, subsample=SUB)
    assert np.array_equal(bits(fit[0]), bits(same[0])) and fit[1] == same[1]
    for sub in (1, 2 * SUB):
        with pytest.raises(ConfigError, match=re.escape(
                f"subsample={sub}: a window kept at stride {SUB} is fitted on that grid")):
            estimate_initial_state(d, window, subsample=sub)


def test_forced_outputs_take_u2_through_the_state(dmodels):
    # the stack's u2 columns, summed: the forced response to u2 held at ones
    d = dmodels[0]
    steps = 20
    forced = grid_stack(d, steps, 1)[:, d.n + 3:].sum(axis=1).reshape(steps + 1, d.p)
    # at k=0 the state is zero and outputs are states: no feedthrough
    assert np.array_equal(forced[0], np.zeros(5))
    assert np.all(forced[-1, :2] != 0.0)  # u2 reached v_dc and i_t_q by then


def test_observability_stack_shape(dmodels):
    G = observability_stack(dmodels[0], STEPS, SUB)
    n_rows = len(sample_indices(STEPS, SUB)) * 5
    assert G.shape == (n_rows, 18)
    assert np.array_equal(G[:5], dmodels[0].C)


@pytest.mark.parametrize("ts, steps, subsample", [
    (PAPER_TS, 10000, 10),  # the estimator grid of a run
    (TS, 1000, 1),          # the recorded grid detect replays
    (TS, 0, 1), (TS, 1, 1), (TS, 2, 1),
    (TS, 40, 1),            # 41 rows in blocks of 6: the last holds 5
], ids=["run-grid", "replay-grid", "steps0", "steps1", "steps2", "partial-block"])
def test_observability_stack_matches_loop_oracle(m1_family, ts, steps, subsample):
    full_grid = steps >= 1000
    for sc, rank in zip(m1_family, (17, 17, 9, 11)):
        d = discretize_zoh(sc, ts)
        got = observability_stack(d, steps, subsample)
        ref = loop_observability_stack(d, steps, subsample)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert np.linalg.matrix_rank(got) == np.linalg.matrix_rank(ref)
        if full_grid:
            assert np.linalg.matrix_rank(got) == rank


def test_detect_sequence_rejects_two_window_lengths(dmodels, m1_probe):
    long = probe_window(dmodels[0], np.zeros(18), m1_probe.R)
    short = probe_window(dmodels[1], np.zeros(18), m1_probe.R, steps=300)
    with pytest.raises(ConfigError, match=re.escape(
            "window 1 has 300 steps, window 0 has 500; one call fits windows of one length")):
        detect_sequence(dmodels, [long, short])


def _signed_zero(held, cols):
    out = np.array(held)
    part = out[cols]
    part[part == 0.0] = -0.0
    out[cols] = part
    return out


@pytest.mark.parametrize("edit", [
    lambda held: np.zeros_like(held),                    # probe off against probe on
    lambda held: _signed_zero(held, slice(0, 3)),
    lambda held: _signed_zero(held, slice(3, None)),
    lambda held: np.concatenate([held[:3], np.zeros(3)]),
], ids=["u1-probe-off", "u1-signed-zero", "u2-signed-zero", "u2-width"])
def test_detect_sequence_rejects_a_second_input_record(dmodels, m1_probe, edit):
    on = probe_window(dmodels[2], np.zeros(18), m1_probe.R)
    # an equal copy of window 0's held inputs is compared, not refused
    copy = dataclasses.replace(on, held=np.array(on.held))
    other = dataclasses.replace(on, held=edit(on.held))
    assert copy.held is not on.held
    assert len(detect_sequence(dmodels, [on, copy]).detected) == 2
    with pytest.raises(ConfigError, match=re.escape(
            "window 2: its held inputs differ from window 0's; "
            "one call fits windows that hold the same inputs")):
        detect_sequence(dmodels, [on, copy, other])


def test_detect_sequence_needs_more_equations_than_states(dmodels, m1_probe):
    # 11 samples at stride 10 leave 2 estimator rows of 5 outputs: 10
    # equations for 18 states, which every scenario fits exactly
    short = [probe_window(dmodels[a], np.zeros(18), m1_probe.R, steps=10, sub=1)
             for a in (1, 2)]
    with pytest.raises(ConfigError, match=re.escape(
            "10 estimator equations at subsample=10 for 18 states")):
        detect(dmodels, [on_grid(w, 10) for w in short])
    # every sample of the same records is 55 equations
    assert len(detect(dmodels, short).verdicts) == 2


def test_report_truth_length_guard(dmodels, m1_probe):
    window = probe_window(dmodels[0], np.zeros(18), m1_probe.R)
    with pytest.raises(ConfigError, match="truth"):
        detect(dmodels, [window], truth=[0, 1])


def test_warm_detection_matches_cold_and_full_stack_lstsq(m1_family, m1_probe, monkeypatch):
    # the paper grid, where line_outage's stack has rank 9 and
    # line_disconnect's rank 11; models built here, so the first call is cold
    steps, sub = 10000, 10
    models = [discretize_zoh(sc, PAPER_TS) for sc in m1_family]
    held = probe_step(m1_probe.R, m1_probe.channel)
    rng = np.random.default_rng(41)
    windows = []
    for a in (2, 3, 0, 1, 3, 2):
        trace = simulate(models[a], rng.standard_normal(18) * m1_probe.mu0,
                         *step_records(held, steps), steps)
        y = trace.outputs + 1e-3 * rng.standard_normal(trace.outputs.shape)
        windows.append(MeasurementWindow(t_start=0.0, ts=PAPER_TS, samples=y[::sub],
                                         steps=steps, held=held, stride=sub))
    cold = detect(models, windows)
    stacks = [observability_stack(d, steps, sub) for d in models]
    calls = []
    monkeypatch.setattr(detection, "observability_stack", lambda *a: calls.append(a))
    warm = detect(models, windows)
    monkeypatch.undo()
    assert calls == []
    assert np.array_equal(bits(cold.residuals), bits(warm.residuals))

    idx = sample_indices(steps, sub)
    assert [np.linalg.matrix_rank(s) for s in stacks[2:]] == [9, 11]
    for i, (d, stack) in enumerate(zip(models, stacks)):
        Y = np.stack([(w.samples - forced_outputs(d, w)[idx]).reshape(-1) for w in windows],
                     axis=1)
        X_ref = np.linalg.lstsq(stack, Y, rcond=None)[0]
        ref = np.linalg.norm(stack @ X_ref - Y, axis=0)
        for k, verdict in enumerate(warm.verdicts):
            tol = 1e-14 * np.linalg.norm(Y[:, k])
            assert abs(verdict.residuals[i] - ref[k]) <= 1e-9 * ref[k] + tol


@pytest.fixture(scope="module")
def paper_grid_windows(m1_family, m1_probe):
    """Noisy 10,000-step windows at the paper grid under two held inputs,
    probe on and probe off: for each, the list of its windows."""
    steps = 10000
    models = [discretize_zoh(sc, PAPER_TS) for sc in m1_family]
    helds = {on: probe_step(m1_probe.R if on else 0.0, m1_probe.channel) for on in (True, False)}
    rng = np.random.default_rng(43)
    windows = {True: [], False: []}
    for a, on in ((2, True), (0, True), (3, True), (1, False), (2, False), (3, False),
                  (0, True), (1, False)):
        trace = simulate(models[a], rng.standard_normal(18) * m1_probe.mu0,
                         *step_records(helds[on], steps), steps)
        windows[on].append(MeasurementWindow(
            t_start=0.0, ts=PAPER_TS, samples=trace.outputs + 1e-3 * rng.standard_normal(
                trace.outputs.shape), steps=steps, held=helds[on]))
    return models, windows


@pytest.mark.parametrize("subsample", [1, 10])
def test_detect_sequence_bitwise_per_scenario_loop(m1_family, paper_grid_windows, subsample):
    # the streamed all-scenario fit against one fit per scenario, bit for
    # bit, cold (models built here) and warm, on the rank-9 and rank-11 stacks
    # of line_outage and line_disconnect
    records = {on: [on_grid(w, subsample) for w in windows]
               for on, windows in paper_grid_windows[1].items()}
    models = [discretize_zoh(sc, PAPER_TS) for sc in m1_family]
    if subsample == 10:
        ranks = [np.linalg.matrix_rank(observability_stack(d, 10000, 10)) for d in models]
        assert ranks == [17, 17, 9, 11]
    refs = [loop_detect(models, windows) for windows in records.values()]
    for _ in ("cold", "warm"):
        for windows, ref in zip(records.values(), refs):
            report = detect(models, windows)
            assert np.array_equal(bits(report.residuals), bits(np.array([r for r, _ in ref])))


@pytest.mark.parametrize("subsample", [1, 10])
def test_estimate_initial_state_bitwise_per_scenario_fit(paper_grid_windows, subsample):
    models, records = paper_grid_windows
    for record in records[True][:2] + records[False][:2]:
        window = on_grid(record, subsample)
        for d in models:
            x0_hat, residual = estimate_initial_state(d, window)
            x_ref, r_ref = loop_fit(held_factor(d, window.steps, subsample),
                                    window.held, loop_samples([window]))
            assert np.array_equal(bits(x0_hat), bits(x_ref[:, 0]))
            assert np.array_equal(bits(residual), bits(r_ref[0]))


@pytest.mark.parametrize("subsample", [1, 3])
@pytest.mark.parametrize("steps", [-1, -5])
def test_observability_stack_refuses_negative_steps(dmodels, steps, subsample):
    with pytest.raises(ConfigError, match=re.escape(f"a window needs steps >= 0, got {steps}")):
        observability_stack(dmodels[0], steps, subsample)


def test_estimate_initial_state_stays_cold(m1_family, m1_probe, monkeypatch):
    # every call builds one stack of the held-input model and stores nothing
    calls = []
    original = detection.observability_stack

    def counted(dmodel, steps, subsample=1):
        calls.append((dmodel.n, steps, subsample))
        return original(dmodel, steps, subsample)
    monkeypatch.setattr(detection, "observability_stack", counted)
    d = discretize_zoh(m1_family[1], TS)
    window = probe_window(d, np.ones(18), m1_probe.R)
    first = estimate_initial_state(d, window)
    second = estimate_initial_state(d, window)
    assert calls == [(23, STEPS, SUB)] * 2
    assert not _MEMO.get(d)
    assert np.array_equal(bits(first[0]), bits(second[0])) and first[1] == second[1]
