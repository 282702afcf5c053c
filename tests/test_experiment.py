import dataclasses
import gc
import io
import json
import re
import weakref

import numpy as np
import pytest

from conftest import bits, make_family, make_model
from oracles import loop_truth, simulate, step_records, window_table
import shslab.detection as detection
import shslab.experiment as experiment
import shslab.probing as probing
from shslab.detection import MeasurementWindows, detect_sequence
from shslab.errors import ConfigError, NumericalError
from shslab.experiment import (ExperimentConfig, SwitchingSequence, eigen_report,
                               generate_sequence, read_windows, run_experiment,
                               write_outputs)
from shslab.linsys import discretize_zoh, expm
from shslab.probing import ProbingDesign
from shslab.ssbuild import build_family
from shslab.util import _MEMO

# coarse, fast experiment grid for unit tests; the acceptance suite runs the
# paper-scale one
TAU, TAU0, TS, SUB = 0.05, 0.005, 1e-5, 5
# the u1 and u2 parts of a held-input vector [u1; u2]
_COLUMNS = {"u1": slice(0, 3), "u2": slice(3, None)}


@pytest.fixture(scope="module")
def coarse_probe(m1_family):
    from shslab.probing import design_mami
    return design_mami(m1_family, m1_family[0].x_op, "delta", TAU0, TS)


def config(m1_family, probe, **kw):
    defaults = dict(family=m1_family, probe=probe, tau=TAU, tau0=TAU0, ts=TS,
                    K=5, seed=42, subsample=SUB)
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def test_generate_sequence_single(m1_family, coarse_probe):
    cfg = config(m1_family, coarse_probe, K=1)
    seq = generate_sequence(cfg)
    assert len(seq) == 1
    assert 0 <= seq.alphas[0] < 4


def test_generate_sequence_deterministic(m1_family, coarse_probe):
    cfg = config(m1_family, coarse_probe, K=40, seed=7)
    assert generate_sequence(cfg) == generate_sequence(cfg)
    other = config(m1_family, coarse_probe, K=40, seed=8)
    assert generate_sequence(cfg) != generate_sequence(other)


def test_sequence_frequencies_uniform(m1_family, coarse_probe):
    counts = np.zeros(4)
    for seed in range(1000):
        cfg = config(m1_family, coarse_probe, K=40, seed=seed)
        for a in generate_sequence(cfg).alphas:
            counts[a] += 1
    freq = counts / counts.sum()
    assert np.all(np.abs(freq - 0.25) < 0.05)


def test_run_noise_free_all_correct(m1_family, coarse_probe):
    cfg = config(m1_family, coarse_probe, K=5, seed=3)
    result = run_experiment(cfg)
    assert result.accuracy == 1.0
    assert result.report.detected == list(result.sequence.alphas)


def test_probe_off_ablation_mean_accuracy_below_one(m1_family, coarse_probe):
    accs = []
    for seed in range(5):
        cfg = config(m1_family, coarse_probe, K=5, seed=seed, probe_override_R=0.0)
        accs.append(run_experiment(cfg).accuracy)
    assert np.mean(accs) < 1.0


def test_windows_share_input_records(m1_family, coarse_probe):
    result = run_experiment(config(m1_family, coarse_probe, K=4, seed=3))
    first = result.windows[0]
    assert first.held.shape == (5,) and not first.held.flags.writeable
    for window in result.windows:
        assert window.held is first.held
    # a caller's writable vector, or a read-only view of one, is copied
    writable = np.array(first.held)
    view = writable[:]
    view.setflags(write=False)
    vectors = (writable, view)
    copies = [MeasurementWindows(t_start=first.t_start, ts=TS, samples=first.samples,
                                 steps=first.steps, held=held, stride=first.stride)
              for held in vectors]
    for window, held in zip(copies, vectors):
        assert not np.shares_memory(window.held, held)
        assert not window.held.flags.writeable
    writable[1] += 1.0
    assert copies[0].held[1] == copies[1].held[1] == first.held[1]
    # a read-only view of the batch's own vector is its buffer, kept
    kept = MeasurementWindows(t_start=first.t_start, ts=TS, samples=first.samples,
                              steps=first.steps, held=first.held[:], stride=first.stride)
    assert np.shares_memory(kept.held, first.held)


def test_indexed_windows_view_the_batch_samples(m1_family, coarse_probe):
    windows = run_experiment(config(m1_family, coarse_probe, K=4, seed=3)).windows
    for k, window in enumerate(windows):
        assert np.shares_memory(window.samples, windows.samples)
        assert np.shares_memory(window.t_start, windows.t_start)
        assert not window.samples.flags.writeable
        assert np.array_equal(window.samples[0], windows.samples[k])
        with pytest.raises(ValueError, match="read-only"):
            window.samples[0, 0, 0] = 1.0


def noise_stream(seed):
    """The generator a run at `seed` draws its measurement noise from."""
    return np.random.default_rng(np.random.SeedSequence(seed).spawn(3)[1])


def oracle_truth(result):
    """Window samples and boundary states of `result`'s run, rebuilt by the
    per-window simulate-and-hold loop from the same initial state and noise
    stream, on the same estimator grid."""
    cfg = result.config
    dmodels = [discretize_zoh(sc, cfg.ts) for sc in cfg.family]
    hold = [expm(sc.A * (cfg.tau - cfg.tau0)) for sc in cfg.family]
    return loop_truth(dmodels, hold, result.boundary_states[0], result.sequence.alphas,
                      cfg.applied_R, cfg.probe.channel, cfg.window_steps,
                      cfg.noise_sigma, noise_stream(cfg.seed), cfg.subsample)


def assert_truth_matches_oracle(result, windows=None):
    """Every sample of every window, result's own or those of the batch
    `windows` (say, the one written_windows reads from a full record),
    within 1e-12 of each output column's largest magnitude, every boundary
    state within 1e-12 of the largest one; returns the oracle's window
    samples, every sample of each window."""
    samples, boundaries = oracle_truth(result)
    assert np.array_equal(result.boundary_states[0], boundaries[0])
    err = np.max(np.abs(result.boundary_states - boundaries))
    assert err <= 1e-12 * np.max(np.abs(boundaries))
    windows = result.windows if windows is None else windows
    for k, (got, y) in enumerate(zip(windows.samples, samples, strict=True)):
        assert got.shape == y[::windows.stride].shape
        assert np.all(np.abs(got - y[::windows.stride]) <= 1e-12 * np.max(np.abs(y), axis=0)), k
    return samples


def written_windows(result, out_dir, mode):
    """write_outputs(result, out_dir, mode), and the batch its windows.npy
    records: result's own for a strided record; for a full one, the batch
    of every sample of each window's record as written. A full record is
    checked first: its every subsample-th row is the window's samples bit
    for bit, and every other row lies within 1e-12 of each output column's
    largest magnitude of the per-window oracle's."""
    write_outputs(result, out_dir, windows_mode=mode)
    windows = result.windows
    if mode == "strided":
        return windows
    table = np.load(out_dir / "windows" / "windows.npy")
    records = np.ascontiguousarray(table[:, :, 1:1 + windows.samples.shape[2]])
    oracle, _ = oracle_truth(result)
    grid = np.arange(records.shape[1]) % windows.stride == 0
    for k, (record, y) in enumerate(zip(records, oracle, strict=True)):
        assert np.array_equal(_bits(record[grid]), _bits(windows.samples[k])), k
        assert np.all(np.abs(record[~grid] - y[~grid]) <= 1e-12 * np.max(np.abs(y), axis=0)), k
    return dataclasses.replace(windows, samples=records, stride=1)


def test_state_continuity_across_switches(tmp_path, m1_family, coarse_probe):
    cfg = config(m1_family, coarse_probe, K=4, seed=1)
    seq = SwitchingSequence(alphas=(0, 2, 1, 3))  # switch every interval
    result = run_experiment(cfg, seq)
    assert np.array_equal(result.boundary_states[0], np.zeros(18))
    # each window starts at the state carried over from the previous interval
    dmodels = [discretize_zoh(sc, TS) for sc in m1_family]
    for k, a in enumerate(seq.alphas):
        y0 = dmodels[a].C[:, :dmodels[a].n] @ result.boundary_states[k]
        assert np.allclose(result.windows.samples[k, 0], y0, rtol=0, atol=1e-12)
    assert_truth_matches_oracle(result, written_windows(result, tmp_path, "full"))


# (probe on, x0 mode, noise sigma, sequence or None for a drawn one)
TRUTH_CASES = [(probe, x0, sigma, None) for probe in (True, False)
               for x0 in ("zero", "random") for sigma in (0.0, 1e-3)] + [
    (True, "random", 0.0, (3,) * 40),                  # one scenario: the largest batch
    (True, "random", 1e-3, (0, 2, 3, 2, 0, 3, 3, 0)),  # scenario 1 never visited
]


@pytest.mark.parametrize("probe_on, x0_mode, sigma, alphas", TRUTH_CASES)
def test_truth_matches_per_window_oracle(tmp_path, m1_family, coarse_probe, probe_on, x0_mode,
                                         sigma, alphas):
    K = 6 if alphas is None else len(alphas)
    cfg = config(m1_family, coarse_probe, K=K, seed=4, x0_mode=x0_mode,
                 noise_sigma=sigma, probe_override_R=None if probe_on else 0.0)
    result = run_experiment(cfg, None if alphas is None else SwitchingSequence(alphas))
    full = written_windows(result, tmp_path, "full")
    samples = assert_truth_matches_oracle(result, full)
    oracle_windows = dataclasses.replace(result.windows,
                                         samples=np.stack([y[::SUB] for y in samples]))
    dmodels = [discretize_zoh(sc, TS) for sc in m1_family]
    oracle = detect_sequence(dmodels, oracle_windows)
    assert result.report.detected == oracle.detected
    # the run's own report is a fit on fresh models of the same windows
    fresh = detect_sequence(dmodels, result.windows)
    for got, ref in zip(result.report.verdicts, fresh.verdicts):
        assert np.array_equal(got.residuals, ref.residuals)
    if not probe_on and x0_mode == "zero" and sigma == 0.0:
        # the passive premise: nothing excites the system, every sample is zero
        assert all(np.all(w.samples == 0.0) for w in full)


# the unstable hold overflows on its way to the error
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("x0_mode", ["zero", "random"])
def test_divergence_names_interval_and_scenario(x0_mode):
    family = make_family([make_model(np.diag([-1.0, -2.0])),
                          make_model(np.diag([-1.0, 2e4]), alpha=1, name="unstable")])
    probe = ProbingDesign(mu0=1.0, mu1=1.0, delta_min=1.0, R0=2.0, R=3.0,
                          channel=1, tau0=TAU0)
    cfg = ExperimentConfig(family=family, probe=probe, tau=TAU, tau0=TAU0, ts=TS,
                           K=4, seed=0, subsample=SUB, x0_mode=x0_mode)
    with pytest.raises(NumericalError, match=r"interval 2 \(scenario 1\)"):
        run_experiment(cfg, SwitchingSequence(alphas=(0, 0, 1, 0)))


def test_probe_occupies_window_only(m1_family, coarse_probe):
    cfg = config(m1_family, coarse_probe, K=2, seed=5)
    result = run_experiment(cfg)
    steps = int(round(TAU0 / TS))
    for w in result.windows:
        assert w.steps == steps
        assert w.held.tolist() == [0.0, coarse_probe.R, 0.0, 0.0, 0.0]
    # unforced propagation across the probe-off remainder matches fine ZOH
    dmodel = discretize_zoh(m1_family[result.sequence.alphas[0]], TS)
    trace = simulate(dmodel, result.boundary_states[0],
                     *step_records(result.windows[0].held, steps), steps,
                     record_states=True)
    gap_steps = int(round((TAU - TAU0) / TS))
    relax = simulate(dmodel, trace.final_state, None, None, gap_steps,
                     record_states=True)
    assert np.allclose(relax.final_state, result.boundary_states[1],
                       rtol=1e-8, atol=1e-10)


def test_noise_touches_windows_not_state(m1_family, coarse_probe):
    clean = run_experiment(config(m1_family, coarse_probe, K=3, seed=9))
    noisy = run_experiment(config(m1_family, coarse_probe, K=3, seed=9,
                                  noise_sigma=1e-3))
    assert np.array_equal(clean.boundary_states, noisy.boundary_states)
    assert not np.array_equal(clean.windows[0].samples, noisy.windows[0].samples)


@pytest.mark.parametrize("subsample", [SUB, 1])
def test_noise_only_on_the_estimator_grid(tmp_path, m1_family, coarse_probe, subsample):
    # the same seed and initial state with and without noise, in full
    # records: the samples between grid rows are the noise-free ones bit for
    # bit, and the grid rows add sigma times the seed's noise stream, one
    # (grid rows, p) block per window in window order. At subsample 1 the
    # grid is every sample, and the draw is one (N+1, p) block per window
    kw = dict(K=4, seed=9, x0_mode="random", subsample=subsample)
    clean, noisy = (
        written_windows(run_experiment(config(m1_family, coarse_probe, noise_sigma=sigma, **kw)),
                        tmp_path / str(sigma), "full")
        for sigma in (0.0, 1e-3))
    rows = np.arange(clean.steps + 1)
    grid, off = rows[::subsample], rows[rows % subsample != 0]
    stream = noise_stream(9)
    for c, w in zip(clean.samples, noisy.samples, strict=True):
        assert np.array_equal(bits(w[off]), bits(c[off]))
        draw = stream.standard_normal((grid.size, w.shape[1]))
        assert np.array_equal(bits(w[grid]), bits(c[grid] + 1e-3 * draw))


def test_x0_random_mode_scaled_to_mu0(m1_family, coarse_probe):
    cfg = config(m1_family, coarse_probe, K=1, seed=2, x0_mode="random")
    result = run_experiment(cfg)
    assert np.max(np.abs(result.boundary_states[0])) == pytest.approx(
        coarse_probe.mu0, rel=1e-12)
    again = run_experiment(cfg)
    assert np.array_equal(result.boundary_states, again.boundary_states)


def test_config_validation(m1_family, coarse_probe):
    with pytest.raises(ConfigError, match="tau/10"):
        config(m1_family, coarse_probe, tau0=0.02)
    with pytest.raises(ConfigError, match="whole number"):
        config(m1_family, coarse_probe, tau=0.0500001)
    with pytest.raises(ConfigError, match="K"):
        config(m1_family, coarse_probe, K=0)
    with pytest.raises(ConfigError, match="x0_mode"):
        config(m1_family, coarse_probe, x0_mode="warm")
    with pytest.raises(ConfigError, match="noise"):
        config(m1_family, coarse_probe, noise_sigma=-1.0)


@pytest.mark.parametrize("level", [float("inf"), float("-inf"), float("nan")])
def test_config_rejects_a_non_finite_probe_override(m1_family, coarse_probe, level):
    # refused before any simulation, not blamed on a diverging model
    with pytest.raises(ConfigError, match=f"probe_override_R must be finite, got {level}"):
        config(m1_family, coarse_probe, probe_override_R=level)


def test_config_rejects_probe_designed_over_another_window(m1_family):
    from shslab.probing import design_mami
    probe = design_mami(m1_family, m1_family[0].x_op, "delta", TAU0 / 2, TS)
    with pytest.raises(ConfigError, match=r"designed over tau0=0\.0025, but the "
                                          r"experiment's detection window is tau0=0\.005"):
        config(m1_family, probe)


def test_sequence_entry_out_of_range(m1_family, coarse_probe):
    cfg = config(m1_family, coarse_probe, K=2)
    with pytest.raises(ConfigError, match="outside"):
        run_experiment(cfg, SwitchingSequence(alphas=(0, 9)))


def test_k1_normal_only_trivially_accurate(m1_family, coarse_probe):
    from shslab.ssbuild import ScenarioFamily
    solo = ScenarioFamily(segment_id=1, scenarios=m1_family.scenarios[:1])
    cfg = ExperimentConfig(family=solo, probe=coarse_probe, tau=TAU, tau0=TAU0,
                           ts=TS, K=1, seed=0, subsample=SUB)
    result = run_experiment(cfg)
    assert result.accuracy == 1.0
    assert result.report.detected == [0]


def test_eigen_report_bundled(all_families):
    for fam in all_families.values():
        rep = eigen_report(fam)
        assert rep.all_hurwitz
        assert len(rep.eigenvalues) == len(fam)
        assert all(len(e) == fam[0].n for e in rep.eigenvalues)
        assert 0 <= rep.most_damped < len(fam)


def test_eigen_report_flags_instability():
    fam = make_family([make_model(np.array([[-1.0, 0.0], [0.0, 1.0]]))])
    rep = eigen_report(fam)
    assert not rep.all_hurwitz
    assert rep.max_real[0] == pytest.approx(1.0)


def test_eigen_report_csv(tmp_path, m1_family):
    rep = eigen_report(m1_family)
    path = tmp_path / "eigs.csv"
    rep.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "alpha,re,im"
    assert len(lines) == 1 + 4 * 18
    first = lines[1].split(",")
    assert int(first[0]) == 0
    assert float(first[1]) == rep.eigenvalues[0][0].real


def test_write_and_read_windows_roundtrip(tmp_path, m1_family, coarse_probe):
    cfg = config(m1_family, coarse_probe, K=3, seed=13)
    result = run_experiment(cfg)
    out = tmp_path / "run"
    write_outputs(result, out, windows_mode="strided")
    assert (out / "truth.csv").exists()
    assert (out / "detected.csv").exists()
    assert (out / "sequence.csv").exists()
    assert (out / "report.json").exists()
    windows = read_windows(out / "windows", probe=None)
    assert len(windows) == 3
    stride = cfg.subsample
    for k, w in enumerate(windows):
        src = result.windows[k]
        assert w.ts == TS * stride
        assert np.array_equal(w.samples, src.samples)
        assert w.steps == src.steps // stride
        assert np.array_equal(_bits(w.held), _bits(src.held))


def test_read_windows_share_input_records(tmp_path, m1_family, coarse_probe):
    result = run_experiment(config(m1_family, coarse_probe, K=4, seed=3))
    write_outputs(result, tmp_path, windows_mode="strided")
    windows = read_windows(tmp_path / "windows")
    first = windows[0]
    assert not first.held.flags.writeable
    for k, window in enumerate(windows):
        assert window.held is first.held
        assert k == 0 or not np.shares_memory(windows.samples[k], windows.samples[0])
    # one read-only copy of the table's output columns, not a view of the file
    assert windows.samples.flags.owndata and not windows.samples.flags.writeable


@pytest.mark.parametrize("change", ["signed-zero", "value"])
@pytest.mark.parametrize("record", ["u1", "u2"])
def test_read_windows_rejects_a_second_input_record(tmp_path, m1_family, coarse_probe,
                                                    record, change):
    # window 2 of 4 holds another record: -0.0 where the others hold 0.0,
    # or one entry changed
    result = run_experiment(config(m1_family, coarse_probe, K=4, seed=3))
    other = np.array(result.windows[0].held)
    part = other[_COLUMNS[record]]
    if change == "signed-zero":
        part[part == 0.0] = -0.0
    else:
        part[-1] += 1.0
    # a batch holds one input vector, so window 2's record is written into
    # the table as a run of per-window inputs would have written it
    write_outputs(result, tmp_path)
    path = tmp_path / "windows" / "windows.npy"
    table = np.load(path)
    table[2, :-1, table.shape[2] - other.size:] = other
    np.save(path, table)
    with pytest.raises(ConfigError, match=re.escape(
            f"{path} window 2: its {record} columns differ from window 0's")):
        read_windows(tmp_path / "windows")


@pytest.mark.parametrize("record", ["u1", "u2"])
def test_read_windows_refuses_inputs_not_held(tmp_path, m1_family, coarse_probe, record):
    # every window's record changes from recorded row 7 on, so the windows
    # still share one record; its last row only pads it and may differ
    write_outputs(run_experiment(config(m1_family, coarse_probe, K=3, seed=3)), tmp_path)
    path = tmp_path / "windows" / "windows.npy"
    table = np.load(path)
    p = table.shape[2] - 6
    col = 1 + p + _COLUMNS[record].start
    table[:, -1, col] = 9.0
    np.save(path, table)
    held = read_windows(tmp_path / "windows")[0].held
    assert held[_COLUMNS[record].start] == table[0, 0, col]
    table[:, 7:-1, col] += 0.5
    np.save(path, table)
    with pytest.raises(ConfigError, match=re.escape(
            f"{path} window 0: its {record} record changes at row 7; inputs must be held "
            f"over rows 0..{table.shape[1] - 2}")):
        read_windows(tmp_path / "windows")


@pytest.mark.parametrize("key, value", [("n_outputs", 0), ("n_outputs", -1), ("n_u2", -1)])
def test_read_windows_rejects_negative_widths(tmp_path, m1_family, coarse_probe, key, value):
    # n_outputs=-1 with n_u2=8 keeps the table's width, so only the check
    # on the keys themselves can refuse it
    write_outputs(run_experiment(config(m1_family, coarse_probe, K=3, seed=3)), tmp_path)
    meta = tmp_path / "windows" / "meta.json"
    doc = json.loads(meta.read_text())
    doc.update({key: value, "n_u2" if key == "n_outputs" else "n_outputs":
                doc["n_outputs"] + doc["n_u2"] - value})
    meta.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=re.escape(f"{meta}: key '{key}' has bad value {value}: must be >=")):
        read_windows(tmp_path / "windows")


def test_read_windows_checks_each_npy_start_against_meta(tmp_path, m1_family, coarse_probe):
    write_outputs(run_experiment(config(m1_family, coarse_probe, K=3, seed=3)), tmp_path)
    path = tmp_path / "windows" / "windows.npy"
    table = np.load(path)
    assert table[1, 0, 0] == TAU
    table[1, 0, 0] = 0.05000000000000001
    np.save(path, table)
    with pytest.raises(ConfigError, match=re.escape(
            f"{path} window 1: starts at t=0.05000000000000001; "
            f"meta.json's window_starts[1] is 0.05")):
        read_windows(tmp_path / "windows")


@pytest.mark.parametrize("meta, message", [
    ("{", "JSONDecodeError"),
    ('{"ts": 1e-05, "n_outputs": 5, "n_u2": 2}', "KeyError('window_starts')"),
    ('{"ts": 1e-05, "n_outputs": 5, "n_u2": 2, "window_starts": 3}', "TypeError"),
], ids=["not-json", "no-window-starts", "starts-not-a-list"])
def test_read_windows_rejects_malformed_meta(tmp_path, meta, message):
    (tmp_path / "meta.json").write_text(meta)
    with pytest.raises(ConfigError, match="meta.json: malformed") as exc:
        read_windows(tmp_path)
    assert message in str(exc.value)


def test_read_windows_checks_probe_tau0_against_meta(tmp_path, m1_family, coarse_probe):
    # a stride of 3 does not divide the 500 window steps: the record keeps
    # samples 0, 3, ..., 498, 167 rows where tau0 / (3 ts) is 166.7
    result = run_experiment(config(m1_family, coarse_probe, K=2, seed=3, subsample=3))
    write_outputs(result, tmp_path, windows_mode="strided")
    windows = read_windows(tmp_path / "windows", probe=coarse_probe)
    assert windows.samples.shape[:2] == (2, 167)
    other = dataclasses.replace(coarse_probe, tau0=0.011)
    with pytest.raises(ConfigError, match="meta.json") as exc:
        read_windows(tmp_path / "windows", probe=other)
    assert "tau0=0.005" in str(exc.value) and "tau0=0.011" in str(exc.value)


@pytest.mark.parametrize("probe", [False, True], ids=["no-probe", "probe"])
def test_read_windows_rejects_a_window_of_another_length(tmp_path, m1_family, coarse_probe,
                                                         probe):
    # tau0=0.005 at ts=5e-05 implies 101 rows; the table holds 100
    write_outputs(run_experiment(config(m1_family, coarse_probe, K=3, seed=3)), tmp_path)
    path = tmp_path / "windows" / "windows.npy"
    table = np.load(path)
    assert table.shape[:2] == (3, 101)
    np.save(path, table[:, :100])
    cols = table.shape[2]
    with pytest.raises(ConfigError, match=re.escape(
            f"{path}: holds a float64 table of shape (3, 100, {cols}); "
            f"meta.json implies a float64 table of shape (3, 101, {cols})")):
        read_windows(tmp_path / "windows", probe=coarse_probe if probe else None)


def test_read_windows_refuses_a_trace_without_format(tmp_path, m1_family, coarse_probe):
    # what traces of window CSV files carry, which this version no longer reads
    write_outputs(run_experiment(config(m1_family, coarse_probe, K=2, seed=3)), tmp_path)
    meta = tmp_path / "windows" / "meta.json"
    doc = json.loads(meta.read_text())
    del doc["format"]
    meta.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=re.escape(f"{meta}: no window format")) as exc:
        read_windows(tmp_path / "windows")
    assert "manifest.json" in str(exc.value)


@pytest.mark.parametrize("tau0", [0.0, float("nan")], ids=["zero", "nan"])
def test_read_windows_rejects_bad_meta_tau0(tmp_path, m1_family, coarse_probe, tau0):
    write_outputs(run_experiment(config(m1_family, coarse_probe, K=2, seed=3)), tmp_path)
    meta = tmp_path / "windows" / "meta.json"
    meta.write_text(json.dumps(dict(json.loads(meta.read_text()), tau0=tau0)))
    with pytest.raises(ConfigError, match=f"meta.json: tau0={tau0} must be positive"):
        read_windows(tmp_path / "windows")


# values a record must keep bit for bit: signed zero, the smallest
# subnormal, large and small exponents, inf and nan
SPECIAL = (-0.0, 5e-324, 1e-5, 1e16, -1e300, float("nan"), float("inf"))


@pytest.fixture(scope="module")
def special_result(m1_family, coarse_probe):
    """A three-window run whose middle window's outputs hold SPECIAL on every
    estimator-grid row it spans."""
    result = run_experiment(config(m1_family, coarse_probe, K=3, seed=13))
    samples = np.array(result.windows.samples)
    samples[1, :len(SPECIAL)] = np.array(SPECIAL)[:, None]
    samples[1, :len(SPECIAL), 1] *= -1.0
    return dataclasses.replace(result, windows=dataclasses.replace(result.windows,
                                                                   samples=samples))


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def _saved(tables) -> bytes:
    """The bytes np.save writes for the stacked tables."""
    buf = io.BytesIO()
    np.save(buf, np.stack(tables))
    return buf.getvalue()


@pytest.mark.parametrize("mode, stride", [("strided", SUB), ("full", 1)])
def test_windows_npy_matches_table_oracle(tmp_path, special_result, mode, stride):
    # windows.npy holds the oracle's tables bit for bit, and reads back as them
    tables = [window_table(w, stride) for w in written_windows(special_result, tmp_path, mode)]
    npy = tmp_path / "windows" / "windows.npy"
    assert npy.read_bytes() == _saved(tables)

    # read back a run whose held inputs have -0.0 wherever they have 0.0
    signed = np.array(special_result.windows.held)
    signed[signed == 0.0] = -0.0
    result = dataclasses.replace(special_result, windows=dataclasses.replace(
        special_result.windows, held=signed))
    tables = [window_table(w, stride)
              for w in written_windows(result, tmp_path / "signed", mode)]
    p = special_result.windows.samples.shape[2]
    windows = read_windows(tmp_path / "signed" / "windows")
    assert len(windows) == 3
    for w, table in zip(windows, tables, strict=True):
        assert np.array_equal(_bits(w.t_start[0]), _bits(table[0, 0]))
        assert np.array_equal(_bits(w.samples[0]), _bits(table[:, 1:1 + p]))
        assert np.array_equal(_bits(w.held), _bits(table[0, 1 + p:]))
    # the special values made it through, and every window shares one vector
    assert np.isnan(windows[1].samples).any() and np.isinf(windows[1].samples).any()
    assert (windows[1].samples == 5e-324).any()
    assert np.signbit(windows[0].held[windows[0].held == 0.0]).all()
    for w in windows:
        assert w.held is windows.held


@pytest.mark.parametrize("record", ["u1", "u2"])
@pytest.mark.parametrize("mode, stride", [("strided", SUB), ("full", 1)])
def test_window_files_format_each_record_from_its_own_values(
        tmp_path, m1_family, coarse_probe, mode, stride, record):
    # held inputs whose `record` part has -0.0 wherever the run's has 0.0:
    # every window's `record` columns are written from those values, -0.0
    # included, and the other part's zeros stay 0.0
    result = run_experiment(config(m1_family, coarse_probe, K=4, seed=13))
    b = np.array(result.windows.held)
    part = b[_COLUMNS[record]]
    part[part == 0.0] = -0.0
    result = dataclasses.replace(result, windows=dataclasses.replace(result.windows, held=b))
    assert all(w.held is result.windows.held for w in result.windows)

    written = written_windows(result, tmp_path, mode)
    npy = tmp_path / "windows" / "windows.npy"
    assert npy.read_bytes() == _saved([window_table(w, stride) for w in written])
    p = result.windows.samples.shape[2]
    inputs = np.load(npy)[:, :, 1 + p:]
    for cols, signed in ((_COLUMNS[record], True), (_COLUMNS[{"u1": "u2", "u2": "u1"}[record]],
                                                    False)):
        zeros = [table[table == 0.0] for table in inputs[:, :, cols]]
        assert all(z.size for z in zeros)
        assert [np.signbit(z).any() for z in zeros] == [signed] * 4


def test_rerun_removes_stale_window_files(tmp_path, m1_family, coarse_probe):
    # a rerun owns only meta.json and windows.npy: a window CSV file of an
    # older trace is never read again, so it stays like any other file
    write_outputs(run_experiment(config(m1_family, coarse_probe, K=6, seed=3)), tmp_path)
    win_dir = tmp_path / "windows"
    (win_dir / "window_2.csv").write_text("t,y0\r\n0.1,0.0\r\n")
    (win_dir / "notes.txt").write_text("kept")
    result = run_experiment(config(m1_family, coarse_probe, K=3, seed=3))
    write_outputs(result, tmp_path)
    assert sorted(f.name for f in win_dir.iterdir()) == [
        "meta.json", "notes.txt", "window_2.csv", "windows.npy"]
    assert len(read_windows(win_dir)) == 3

    write_outputs(result, tmp_path, windows_mode="none")
    assert sorted(f.name for f in win_dir.iterdir()) == ["notes.txt", "window_2.csv"]


def test_sequence_csv_contents(tmp_path, m1_family, coarse_probe):
    cfg = config(m1_family, coarse_probe, K=2, seed=21)
    result = run_experiment(cfg)
    write_outputs(result, tmp_path, windows_mode="none")
    rows = (tmp_path / "sequence.csv").read_text().strip().splitlines()
    assert rows[0] == "k,true,detected"
    for k, line in enumerate(rows[1:]):
        fields = line.split(",")
        assert int(fields[0]) == k + 1
        assert int(fields[1]) == result.sequence.alphas[k]
        assert int(fields[2]) == result.report.detected[k]


@pytest.mark.parametrize("subsample", [1, SUB, 10])
@pytest.mark.parametrize("x0_mode, sigma", [("zero", 0.0), ("zero", 1e-3),
                                            ("random", 0.0), ("random", 1e-3)])
def test_grid_run_keeps_the_full_runs_grid_rows(tmp_path, m1_family, coarse_probe,
                                                subsample, x0_mode, sigma):
    # a run keeps each window's estimator grid; the full record write_outputs
    # forms holds every sample of the per-window oracle and the grid rows bit
    # for bit, so a strided record is every subsample-th row of a full one
    kw = dict(K=6, seed=4, x0_mode=x0_mode, noise_sigma=sigma, subsample=subsample)
    result = run_experiment(config(m1_family, coarse_probe, **kw))
    assert all(w.stride == subsample for w in result.windows)
    assert_truth_matches_oracle(result, written_windows(result, tmp_path / "full", "full"))
    write_outputs(result, tmp_path / "grid")
    grid, full = (np.load(tmp_path / name / "windows" / "windows.npy") for name in ("grid", "full"))
    assert np.array_equal(_bits(grid), _bits(full[:, ::subsample]))
    assert (tmp_path / "grid" / "report.json").read_bytes() == \
        (tmp_path / "full" / "report.json").read_bytes()
    grid, full = (json.loads((tmp_path / name / "windows" / "meta.json").read_text())
                  for name in ("grid", "full"))
    assert (grid.pop("ts"), grid.pop("stride_applied")) == (TS * subsample, subsample)
    assert (full.pop("ts"), full.pop("stride_applied")) == (TS, 1)
    assert grid == full


def test_full_record_of_a_noisy_grid_run_holds_its_grid_rows(tmp_path, m1_family,
                                                              coarse_probe):
    # samples 0, 3, ..., 498 of the 501-row records, noise included, are the
    # full record's rows 0, 3, ..., 498 bit for bit
    result = run_experiment(config(m1_family, coarse_probe, K=3, seed=6, subsample=3,
                                   x0_mode="random", noise_sigma=1e-3))
    write_outputs(result, tmp_path, windows_mode="full")
    table = np.load(tmp_path / "windows" / "windows.npy")
    assert table.shape[:2] == (3, 501)
    for samples, rows in zip(result.windows.samples, table, strict=True):
        assert samples.shape == (167, 5)
        assert np.array_equal(_bits(rows[::3, 1:6]), _bits(samples))


@pytest.mark.parametrize("mode", ["strided", "full"])
@pytest.mark.parametrize("grid", ["stride", "steps"])
def test_write_outputs_refuses_windows_off_the_configs_grid(tmp_path, m1_family, coarse_probe,
                                                            mode, grid):
    # windows kept at twice the config's stride, or over half its window,
    # are refused before any file is written
    result = run_experiment(config(m1_family, coarse_probe, K=3, seed=6))
    w = result.windows
    off = (dataclasses.replace(w, samples=w.samples[:, ::2], stride=2 * SUB) if grid == "stride"
           else dataclasses.replace(w, samples=w.samples[:, :51], steps=250))
    with pytest.raises(ConfigError, match=f"stride {off.stride} over {off.steps} steps.*"
                                          f"stride {SUB} over 500"):
        write_outputs(dataclasses.replace(result, windows=off), tmp_path / "out", mode)
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# what run_experiment keeps per family
# ---------------------------------------------------------------------------


@pytest.fixture
def fresh_family(seg1, m1_contingencies):
    """A family no other test has run on, so its memo starts empty."""
    return build_family(seg1, m1_contingencies)


def assert_bitwise_equal_results(got, ref):
    assert got.sequence == ref.sequence
    assert np.array_equal(_bits(got.boundary_states), _bits(ref.boundary_states))
    for a, b in zip(got.windows, ref.windows, strict=True):
        assert np.array_equal(_bits(a.samples), _bits(b.samples))
    assert np.array_equal(_bits(got.report.residuals), _bits(ref.report.residuals))


def test_interleaved_runs_on_one_family_match_fresh_families(
        fresh_family, seg1, m1_contingencies, coarse_probe):
    # probe on, probe off, another tau and another ts, each met again after
    # the others have filled the family's memo
    variants = [dict(), dict(probe_override_R=0.0), dict(tau=0.06),
                dict(ts=5e-6, subsample=10), dict(x0_mode="random", noise_sigma=1e-3),
                dict(seed=8), dict(probe_override_R=0.0, x0_mode="random"),
                dict(tau=0.06, seed=9), dict(ts=5e-6, subsample=10, seed=10)]
    for kw in variants:
        got = run_experiment(config(fresh_family, coarse_probe, **kw))
        ref = run_experiment(config(build_family(seg1, m1_contingencies), coarse_probe, **kw))
        assert_bitwise_equal_results(got, ref)


def test_warm_run_does_no_cold_work(fresh_family, coarse_probe, monkeypatch):
    calls = {"matrix_power": 0, "discretize_zoh": 0, "observability_stack": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    # the boundary matrices' Ad^N, one matrix_power per scenario
    for module, name in ((experiment.np.linalg, "matrix_power"),
                         (probing, "discretize_zoh"), (detection, "observability_stack")):
        counted(module, name)
    run_experiment(config(fresh_family, coarse_probe, seed=1))
    # each stack takes matrix_power twice, for P and for P^b
    assert calls == {"matrix_power": 4 + 2 * 4, "discretize_zoh": 4, "observability_stack": 4}
    calls.update(dict.fromkeys(calls, 0))
    run_experiment(config(fresh_family, coarse_probe, seed=2, x0_mode="random",
                          noise_sigma=1e-3))
    assert calls == {"matrix_power": 0, "discretize_zoh": 0, "observability_stack": 0}
    # another probe record needs nothing new: neither the boundary matrices
    # nor the stacks depend on the inputs' levels
    run_experiment(config(fresh_family, coarse_probe, seed=3, probe_override_R=0.0))
    assert calls == {"matrix_power": 0, "discretize_zoh": 0, "observability_stack": 0}


def test_truth_and_fit_share_one_stack(tmp_path, fresh_family, seg1, m1_contingencies,
                                       coarse_probe, monkeypatch):
    calls = []
    original = detection.observability_stack

    def counted(dmodel, steps, subsample=1):
        calls.append((len(dmodel.Ad), steps, subsample))
        return original(dmodel, steps, subsample)
    monkeypatch.setattr(detection, "observability_stack", counted)
    # cold: one stack of the 23-state held-input model per scenario on the
    # estimator grid, which the truth and detection's stored QR both read
    cfg = config(fresh_family, coarse_probe, seed=1)
    run_experiment(cfg)
    dmodels = probing.discretized(fresh_family, TS)
    assert calls == [(23, cfg.window_steps, SUB)] * len(dmodels)
    for d in dmodels:
        stack = _MEMO[d][("stack", cfg.window_steps, SUB)]
        assert _MEMO[d][("factor", cfg.window_steps, SUB)][0] is stack
    # warm: none
    calls.clear()
    run_experiment(config(fresh_family, coarse_probe, seed=2, x0_mode="random"))
    assert calls == []
    # a cold full record is formed from the grid stacks too: no stride-1 stack
    family = build_family(seg1, m1_contingencies)
    write_outputs(run_experiment(config(family, coarse_probe, seed=1)), tmp_path, "full")
    assert calls == [(23, cfg.window_steps, SUB)] * len(dmodels)


def test_a_window_batch_past_one_product_is_split(tmp_path, m1_family, coarse_probe):
    # 200 windows of one scenario on a 501-row grid: one (200 x 23)(23 x 22*5)
    # product per block would pass _GEMM_MAX, so the batch is taken in shares,
    # in the run and in its full record
    kw = dict(K=200, seed=5, ts=5e-6, subsample=2, x0_mode="random")
    assert detection._GEMM_MAX < 200 * 23 * 22 * 5
    result = run_experiment(config(m1_family, coarse_probe, **kw), SwitchingSequence((2,) * 200))
    full = written_windows(result, tmp_path, "full")
    assert full.samples.shape == (200, 1001, 5)
    assert_truth_matches_oracle(result, full)


def test_design_and_run_share_one_discretization(fresh_family, monkeypatch):
    probe = probing.design_mami(fresh_family, fresh_family[0].x_op, "delta", TAU0, TS)
    dmodels = probing.discretized(fresh_family, TS)

    def refuse(*args, **kwargs):
        raise AssertionError("discretized the family again")
    monkeypatch.setattr(probing, "discretize_zoh", refuse)
    result = run_experiment(config(fresh_family, probe))
    assert result.accuracy == 1.0
    assert probing.discretized(fresh_family, TS) is dmodels


def test_memo_entries_are_frozen_and_die_with_the_family(seg1, m1_contingencies,
                                                          coarse_probe):
    gc.collect()
    before = len(_MEMO)
    family = build_family(seg1, m1_contingencies)
    cfg = config(family, coarse_probe)
    result = run_experiment(cfg)
    dmodels = probing.discretized(family, TS)
    assert len(_MEMO) == before + 1 + len(dmodels)
    M = experiment._window_response(cfg, dmodels)
    # one boundary map for probe on and probe off; each run's batch holds one
    # input vector
    off = run_experiment(config(family, coarse_probe, probe_override_R=0.0))
    assert experiment._window_response(off.config, dmodels) is M
    for run in (result, off):
        held = run.windows.held
        assert held.shape == (5,) and not held.flags.writeable
        assert all(window.held is held for window in run.windows)
    assert result.windows.held[coarse_probe.channel] == coarse_probe.R
    assert not np.any(off.windows.held)
    assert len(_MEMO) == before + 1 + len(dmodels)
    assert M.shape == (len(dmodels), 23, 23)
    arrays = [held, M]
    for d in dmodels:
        stack, qs, tri = _MEMO[d][("factor", cfg.window_steps, SUB)]
        arrays += [stack, *qs, tri]
    assert not any(a.flags.writeable for a in arrays)

    owner = weakref.ref(family)
    del family, cfg, result, off, run, dmodels, held, M, arrays, d, stack, qs, tri
    gc.collect()
    assert owner() is None
    assert len(_MEMO) == before
