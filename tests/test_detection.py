import numpy as np
import pytest

import shslab.detection as detection
from conftest import PAPER_TS, bits, make_model
from oracles import loop_detect, loop_fit, loop_free_outputs, loop_observability_stack
from shslab.detection import (MeasurementWindow, ScenarioVerdict, detect_sequence,
                              estimate_initial_state, forced_outputs, forced_responses,
                              observability_stack, sample_indices)
from shslab.errors import ConfigError, NumericalError
from shslab.linsys import discretize_zoh, simulate

TS = 1e-5
STEPS = 500  # 5 ms window on the coarse test grid
SUB = 5


@pytest.fixture(scope="module")
def dmodels(m1_family):
    return [discretize_zoh(sc, TS) for sc in m1_family]


def probe_window(dmodel, x0, magnitude, channel=1, steps=STEPS, noise=None):
    u1 = np.zeros((steps + 1, 3))
    u1[:steps, channel] = magnitude
    u2 = np.zeros((steps + 1, dmodel.Bd2.shape[1]))
    trace = simulate(dmodel, x0, u1, u2, steps)
    y = trace.outputs if noise is None else trace.outputs + noise
    return MeasurementWindow(t_start=0.0, ts=TS, samples=y, u1=u1, u2=u2)


def detect(models, windows, **kwargs):
    """detect_sequence on the forced responses forced_responses simulates."""
    return detect_sequence(models, windows, forced_responses(models, windows), **kwargs)


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
        x0_hat, residual = estimate_initial_state(d, window, subsample=SUB)
        assert np.linalg.norm(x0_hat - x0) <= 1e-6 * np.linalg.norm(x0)
        ynorm = np.linalg.norm(window.samples[sample_indices(STEPS, SUB)])
        assert residual <= 1e-8 * ynorm


def test_output_equivalent_recovery_any_x0(dmodels, m1_probe):
    # arbitrary x0: the estimate reproduces the free output trajectory even
    # when unobservable components cannot come back
    rng = np.random.default_rng(12)
    d = dmodels[0]
    G = observability_stack(d, STEPS, SUB)
    x0 = rng.standard_normal(18) * m1_probe.mu0
    window = probe_window(d, x0, m1_probe.R)
    x0_hat, _ = estimate_initial_state(d, window, subsample=SUB)
    assert np.linalg.norm(G @ (x0_hat - x0)) <= 1e-8 * np.linalg.norm(G @ x0)


def test_zero_window_minimum_norm(dmodels):
    d = dmodels[0]
    window = probe_window(d, np.zeros(18), 0.0)
    x0_hat, residual = estimate_initial_state(d, window, subsample=SUB)
    assert np.array_equal(x0_hat, np.zeros(18))
    assert residual == 0.0


def test_cross_fit_ordering_all_pairs(dmodels, m1_probe):
    rng = np.random.default_rng(23)
    for i, d_true in enumerate(dmodels):
        x0 = rng.standard_normal(18) * m1_probe.mu0
        window = probe_window(d_true, x0, m1_probe.R)
        residuals = [estimate_initial_state(d, window, subsample=SUB)[1]
                     for d in dmodels]
        for j in range(len(dmodels)):
            if j != i:
                assert residuals[i] < residuals[j]


def test_detect_picks_generating_scenario(dmodels, m1_probe):
    window = probe_window(dmodels[2], np.zeros(18), m1_probe.R)
    verdict = detect(dmodels, [window], subsample=SUB).verdicts[0]
    assert verdict.detected == 2
    assert verdict.x0_hat.shape == (4, 18)
    assert verdict.residuals[2] < min(r for j, r in enumerate(verdict.residuals) if j != 2)


def test_detect_family_of_one(dmodels):
    window = probe_window(dmodels[1], np.ones(18), 0.0)
    verdict = detect(dmodels[:1], [window], subsample=SUB).verdicts[0]
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
            verdict = detect(dmodels, [window], subsample=SUB).verdicts[0]
            misses += verdict.detected != 1
    assert misses >= 1


def test_tie_break_lowest_index(dmodels):
    twins = [dmodels[1], dmodels[1]]
    window = probe_window(dmodels[1], np.full(18, 3.0), 0.0)
    verdict = detect(twins, [window], subsample=SUB).verdicts[0]
    assert verdict.detected == 0
    assert verdict.residuals[0] == verdict.residuals[1]


def test_verdict_requires_argmin_consistency():
    with pytest.raises(NumericalError, match="argmin"):
        ScenarioVerdict(detected=1, residuals=np.array([0.1, 0.2]),
                        x0_hat=np.zeros((2, 3)))
    v = ScenarioVerdict(detected=0, residuals=np.array([0.1, 0.2]),
                        x0_hat=np.zeros((2, 3)))
    scaled = ScenarioVerdict(detected=0, residuals=3.7 * v.residuals,
                             x0_hat=v.x0_hat)
    assert scaled.detected == v.detected


def test_detection_deterministic(dmodels, m1_probe):
    rng = np.random.default_rng(5)
    x0 = rng.standard_normal(18)
    w1 = probe_window(dmodels[3], x0, m1_probe.R)
    w2 = probe_window(dmodels[3], x0, m1_probe.R)
    v1 = detect(dmodels, [w1], subsample=SUB).verdicts[0]
    v2 = detect(dmodels, [w2], subsample=SUB).verdicts[0]
    assert np.array_equal(v1.residuals, v2.residuals)
    assert np.array_equal(v1.x0_hat, v2.x0_hat)
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
    report = detect(dmodels, windows, truth=truth, subsample=SUB)
    assert report.detected == truth
    assert report.accuracy == 1.0
    assert report.matches == 6
    doc = report.to_json()
    assert doc["accuracy"] == 1.0
    assert [w["true"] for w in doc["windows"]] == truth
    assert all(len(w["residuals"]) == 4 for w in doc["windows"])


def test_grouped_detection_matches_per_window_fits(dmodels, m1_probe, monkeypatch):
    # two input records (probe on, probe off) and two lengths, in runs that
    # split and rejoin; scenario 2 (line outage) has a rank-deficient stack
    rng = np.random.default_rng(31)
    plan = [  # (scenario, probe on, steps, x0 scale)
        (2, True, STEPS, 1.0), (0, True, STEPS, 1.0), (3, True, STEPS, 0.0),
        (1, False, STEPS, 1.0), (2, False, STEPS, 0.0), (0, False, STEPS, 0.0),
        (2, False, 300, 1.0), (3, True, 300, 1.0), (2, True, 300, 1.0),
        (1, True, STEPS, 1.0)]
    windows = [probe_window(dmodels[a], scale * rng.standard_normal(18) * m1_probe.mu0,
                            m1_probe.R if on else 0.0, steps=steps)
               for a, on, steps, scale in plan]
    runs = 5
    calls = []
    original = detection.forced_outputs
    monkeypatch.setattr(detection, "forced_outputs",
                        lambda d, w: calls.append(w) or original(d, w))
    report = detect(dmodels, windows, subsample=SUB)
    monkeypatch.undo()
    assert len(calls) == runs * len(dmodels)

    for (a, on, steps, scale), window, verdict in zip(plan, windows, report.verdicts):
        fits = [estimate_initial_state(d, window, subsample=SUB) for d in dmodels]
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
        assert verdict.x0_hat.shape == (len(dmodels), 18)
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
                              m1_probe.R, noise=noise)
        for d in dmodels:
            stack = observability_stack(d, STEPS, subsample)
            assert stack.shape[0] > 2 * detection._QR_ROWS
            y = (window.samples - forced_outputs(d, window))[idx].reshape(-1)
            x_ref = np.linalg.lstsq(stack, y, rcond=None)[0]
            ref = np.linalg.norm(stack @ x_ref - y)
            x0_hat, residual = estimate_initial_state(d, window, subsample=subsample)
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
        samples = np.zeros((steps + 1, d.p))
        samples[sample_indices(steps, sub)] = y_free.reshape(-1, d.p)
        window = MeasurementWindow(t_start=0.0, ts=PAPER_TS, samples=samples,
                                   u1=np.zeros((steps + 1, 3)),
                                   u2=np.zeros((steps + 1, d.Bd2.shape[1])))
        x0_hat, _ = estimate_initial_state(d, window, subsample=sub)
        assert np.linalg.norm(x0_hat - x_ref) <= 1e-9 * np.linalg.norm(x_ref)


def test_estimator_rejects_mismatched_ts(dmodels):
    window = probe_window(dmodels[0], np.zeros(18), 0.0)
    other = discretize_zoh_like(dmodels[0])
    with pytest.raises(ConfigError, match="discretized"):
        estimate_initial_state(other, window, subsample=SUB)


def discretize_zoh_like(d):
    from shslab.linsys import DiscreteStateSpace
    return DiscreteStateSpace(Ad=d.Ad, Bd1=d.Bd1, Bd2=d.Bd2, C=d.C, ts=d.ts * 2)


def test_estimator_rejects_unobservable():
    model = make_model(np.diag([-1.0, -2.0]), C=np.zeros((1, 2)))
    d = discretize_zoh(model, TS)
    u1 = np.zeros((11, 3))
    u2 = np.zeros((11, 0))
    window = MeasurementWindow(t_start=0, ts=TS, samples=np.zeros((11, 1)),
                               u1=u1, u2=u2)
    with pytest.raises(NumericalError, match="unobservable"):
        estimate_initial_state(d, window, subsample=1)


def test_minimum_norm_on_rank_deficient():
    # only state 0 observed and the states are decoupled: state 1 must come
    # back as 0 (minimum norm), state 0 recovered
    model = make_model(np.diag([-1.0, -2.0]), C=np.array([[1.0, 0.0]]))
    d = discretize_zoh(model, TS)
    steps = 40
    trace = simulate(d, np.array([2.0, 5.0]), None, None, steps)
    window = MeasurementWindow(t_start=0, ts=TS, samples=trace.outputs,
                               u1=np.zeros((steps + 1, 3)),
                               u2=np.zeros((steps + 1, 0)))
    x0_hat, residual = estimate_initial_state(d, window, subsample=1)
    assert x0_hat[0] == pytest.approx(2.0, rel=1e-9)
    assert x0_hat[1] == pytest.approx(0.0, abs=1e-12)
    assert residual <= 1e-9


def test_window_validation():
    with pytest.raises(ConfigError, match="u1"):
        MeasurementWindow(t_start=0, ts=TS, samples=np.zeros((5, 2)),
                          u1=np.zeros((4, 3)), u2=np.zeros((5, 0)))
    with pytest.raises(ConfigError, match="sample period"):
        MeasurementWindow(t_start=0, ts=0.0, samples=np.zeros((5, 2)),
                          u1=np.zeros((5, 3)), u2=np.zeros((5, 0)))


def test_forced_outputs_take_u2_through_the_state(dmodels):
    d = dmodels[0]
    steps = 20
    u2 = np.ones((steps + 1, 2))
    window = MeasurementWindow(t_start=0, ts=TS, samples=np.zeros((steps + 1, 5)),
                               u1=np.zeros((steps + 1, 3)), u2=u2)
    forced = forced_outputs(d, window)
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


def test_forced_entries_serve_only_their_record(dmodels, m1_probe, monkeypatch):
    # records A, an equal copy of A, B (u1 differs), B, C (u2 differs), A again:
    # consecutive equal records share one array, any change starts a new one
    rng = np.random.default_rng(5)
    windows = [probe_window(dmodels[a], rng.standard_normal(18) * m1_probe.mu0,
                            m1_probe.R if on else 0.0)
               for a, on in ((1, True), (3, True), (2, False), (0, False), (1, True),
                             (2, True))]
    assert windows[0].u1 is not windows[1].u1
    u2 = np.full_like(windows[4].u2, 0.1)
    windows[4] = MeasurementWindow(t_start=0.0, ts=TS, samples=windows[4].samples,
                                   u1=windows[4].u1, u2=u2)
    calls = []
    original = detection.forced_outputs
    monkeypatch.setattr(detection, "forced_outputs",
                        lambda d, w: calls.append((d, w)) or original(d, w))
    forced = forced_responses(dmodels, windows)
    monkeypatch.undo()
    heads = [windows[k] for k in (0, 2, 4, 5)]
    assert calls == [(d, w) for w in heads for d in dmodels]
    assert forced[1] is forced[0] and forced[3] is forced[2]
    assert len({id(f) for f in forced}) == 4
    for f, window in zip(forced, windows):
        assert not f.flags.writeable
        assert f.shape == (len(dmodels), *window.samples.shape)
        for d, response in zip(dmodels, f):
            assert np.array_equal(bits(response), bits(forced_outputs(d, window)))


def test_forced_entry_of_wrong_shape_rejected(dmodels, m1_probe):
    windows = [probe_window(dmodels[0], np.zeros(18), m1_probe.R) for _ in range(2)]
    forced = forced_responses(dmodels, windows)
    with pytest.raises(ConfigError, match="1 forced responses for 2 windows"):
        detect_sequence(dmodels, windows, forced[:1], subsample=SUB)
    for wrong in (forced[1][:, :-1], forced[1][:-1]):
        with pytest.raises(ConfigError, match=r"window 1: forced responses are \("):
            detect_sequence(dmodels, windows, [forced[0], wrong], subsample=SUB)


def test_report_truth_length_guard(dmodels, m1_probe):
    window = probe_window(dmodels[0], np.zeros(18), m1_probe.R)
    with pytest.raises(ConfigError, match="truth"):
        detect(dmodels, [window], truth=[0, 1])


def test_warm_detection_matches_cold_and_full_stack_lstsq(m1_family, m1_probe, monkeypatch):
    # the paper grid, where line_outage's stack has rank 9 and
    # line_disconnect's rank 11; models built here, so the first call is cold
    steps, sub = 10000, 10
    models = [discretize_zoh(sc, PAPER_TS) for sc in m1_family]
    u1 = np.zeros((steps + 1, 3))
    u1[:steps, m1_probe.channel] = m1_probe.R
    u2 = np.zeros((steps + 1, 2))
    rng = np.random.default_rng(41)
    windows = []
    for a in (2, 3, 0, 1, 3, 2):
        trace = simulate(models[a], rng.standard_normal(18) * m1_probe.mu0, u1, u2, steps)
        windows.append(MeasurementWindow(
            t_start=0.0, ts=PAPER_TS, samples=trace.outputs + 1e-3 * rng.standard_normal(
                trace.outputs.shape), u1=u1, u2=u2))
    cold = detect(models, windows, subsample=sub)
    stacks = [observability_stack(d, steps, sub) for d in models]
    calls = []
    monkeypatch.setattr(detection, "observability_stack", lambda *a: calls.append(a))
    warm = detect(models, windows, subsample=sub)
    monkeypatch.undo()
    assert calls == []
    for a, b in zip(cold.verdicts, warm.verdicts):
        assert np.array_equal(a.residuals.view(np.int64), b.residuals.view(np.int64))
        assert np.array_equal(a.x0_hat.view(np.int64), b.x0_hat.view(np.int64))

    idx = sample_indices(steps, sub)
    assert [np.linalg.matrix_rank(s) for s in stacks[2:]] == [9, 11]
    for i, (d, stack) in enumerate(zip(models, stacks)):
        Y = np.stack([(w.samples - forced_outputs(d, w))[idx].reshape(-1) for w in windows],
                     axis=1)
        X_ref = np.linalg.lstsq(stack, Y, rcond=None)[0]
        ref = np.linalg.norm(stack @ X_ref - Y, axis=0)
        for k, verdict in enumerate(warm.verdicts):
            tol = 1e-14 * np.linalg.norm(Y[:, k])
            assert abs(verdict.residuals[i] - ref[k]) <= 1e-9 * ref[k] + tol
            assert np.linalg.norm(verdict.x0_hat[i] - X_ref[:, k]) \
                <= 1e-9 * np.linalg.norm(X_ref[:, k])


@pytest.fixture(scope="module")
def paper_grid_windows(m1_family, m1_probe):
    """Noisy 10,000-step windows at the paper grid in runs of two input
    records, probe on and probe off: two runs of several windows and two of
    one window each."""
    steps = 10000
    models = [discretize_zoh(sc, PAPER_TS) for sc in m1_family]
    records = {}
    for on in (True, False):
        u1 = np.zeros((steps + 1, 3))
        u1[:steps, m1_probe.channel] = m1_probe.R if on else 0.0
        records[on] = (u1, np.zeros((steps + 1, 2)))
    rng = np.random.default_rng(43)
    windows = []
    for a, on in ((2, True), (0, True), (3, True), (1, False), (2, False), (3, False),
                  (0, True), (1, False)):
        u1, u2 = records[on]
        trace = simulate(models[a], rng.standard_normal(18) * m1_probe.mu0, u1, u2, steps)
        windows.append(MeasurementWindow(
            t_start=0.0, ts=PAPER_TS, samples=trace.outputs + 1e-3 * rng.standard_normal(
                trace.outputs.shape), u1=u1, u2=u2))
    return models, windows


@pytest.mark.parametrize("subsample", [1, 10])
def test_detect_sequence_bitwise_per_scenario_loop(m1_family, paper_grid_windows, subsample):
    # the streamed all-scenario fit against one fit per scenario, bit for
    # bit, cold (models built here) and warm, on the rank-9 and rank-11 stacks
    # of line_outage and line_disconnect
    _, windows = paper_grid_windows
    models = [discretize_zoh(sc, PAPER_TS) for sc in m1_family]
    if subsample == 10:
        ranks = [np.linalg.matrix_rank(observability_stack(d, 10000, 10)) for d in models]
        assert ranks == [17, 17, 9, 11]
    ref = loop_detect(models, windows, subsample)
    for _ in ("cold", "warm"):
        report = detect_sequence(models, windows, forced_responses(models, windows),
                                 subsample=subsample)
        assert len(report.verdicts) == len(ref)
        for verdict, (residuals, x0_hat) in zip(report.verdicts, ref):
            assert np.array_equal(bits(verdict.residuals), bits(residuals))
            assert np.array_equal(bits(verdict.x0_hat), bits(x0_hat))


@pytest.mark.parametrize("subsample", [1, 10])
def test_estimate_initial_state_bitwise_per_scenario_fit(paper_grid_windows, subsample):
    models, windows = paper_grid_windows
    for window in windows[:4]:
        for d in models:
            x0_hat, residual = estimate_initial_state(d, window, subsample=subsample)
            factor = detection._factor(d, window.steps, subsample)
            x_ref, r_ref = loop_fit(factor, loop_free_outputs(
                [window], forced_outputs(d, window), subsample))
            assert np.array_equal(bits(x0_hat), bits(x_ref[:, 0]))
            assert np.array_equal(bits(residual), bits(r_ref[0]))
