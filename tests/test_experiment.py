import dataclasses
import gc
import json
import os
import subprocess
import sys
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from conftest import make_family, make_model
from oracles import csv_read_window, csv_write_windows, loop_truth
import shslab
import shslab.detection as detection
import shslab.experiment as experiment
import shslab.probing as probing
from shslab.detection import MeasurementWindow, detect_sequence, forced_outputs, forced_responses
from shslab.errors import ConfigError, NumericalError
from shslab.experiment import (ExperimentConfig, SwitchingSequence, eigen_report,
                               generate_sequence, read_windows, run_experiment,
                               write_outputs)
from shslab.linsys import discretize_zoh, expm, simulate
from shslab.probing import ProbingDesign
from shslab.ssbuild import build_family
from shslab.util import _MEMO

# coarse, fast experiment grid for unit tests; the acceptance suite runs the
# paper-scale one
TAU, TAU0, TS, SUB = 0.05, 0.005, 1e-5, 5


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
    for window in result.windows[1:]:
        assert np.shares_memory(window.u1, first.u1)
        assert np.shares_memory(window.u2, first.u2)
    # a caller's writable record, or a read-only view of one, is copied
    records = (np.array(first.u1), first.u1[:])
    copies = [MeasurementWindow(t_start=0.0, ts=TS, samples=first.samples,
                                u1=u1, u2=first.u2) for u1 in records]
    for window, u1 in zip(copies, records):
        assert not np.shares_memory(window.u1, u1)
        assert not window.u1.flags.writeable
    records[0][0, 1] += 1.0
    assert copies[0].u1[0, 1] == first.u1[0, 1]


def oracle_truth(result):
    """Window samples and boundary states of `result`'s run, rebuilt by the
    per-window simulate-and-hold loop from the same initial state and noise
    stream."""
    cfg = result.config
    dmodels = [discretize_zoh(sc, cfg.ts) for sc in cfg.family]
    hold = [expm(sc.A * (cfg.tau - cfg.tau0)) for sc in cfg.family]
    rng_noise = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(3)[1])
    first = result.windows[0]
    return loop_truth(dmodels, hold, result.boundary_states[0], result.sequence.alphas,
                      first.u1, first.u2, cfg.window_steps,
                      cfg.noise_sigma, rng_noise)


def assert_truth_matches_oracle(result):
    """Every window within 1e-12 of each output column's largest magnitude,
    every boundary state within 1e-12 of the largest one; returns the oracle's
    window samples."""
    samples, boundaries = oracle_truth(result)
    assert np.array_equal(result.boundary_states[0], boundaries[0])
    err = np.max(np.abs(result.boundary_states - boundaries))
    assert err <= 1e-12 * np.max(np.abs(boundaries))
    for k, (w, y) in enumerate(zip(result.windows, samples)):
        assert w.samples.shape == y.shape
        assert np.all(np.abs(w.samples - y) <= 1e-12 * np.max(np.abs(y), axis=0)), k
    return samples


def test_state_continuity_across_switches(m1_family, coarse_probe):
    cfg = config(m1_family, coarse_probe, K=4, seed=1)
    seq = SwitchingSequence(alphas=(0, 2, 1, 3))  # switch every interval
    result = run_experiment(cfg, seq)
    assert np.array_equal(result.boundary_states[0], np.zeros(18))
    # each window starts at the state carried over from the previous interval
    dmodels = [discretize_zoh(sc, TS) for sc in m1_family]
    for k, a in enumerate(seq.alphas):
        y0 = dmodels[a].C @ result.boundary_states[k]
        assert np.allclose(result.windows[k].samples[0], y0, rtol=0, atol=1e-12)
    assert_truth_matches_oracle(result)


# (probe on, x0 mode, noise sigma, sequence or None for a drawn one)
TRUTH_CASES = [(probe, x0, sigma, None) for probe in (True, False)
               for x0 in ("zero", "random") for sigma in (0.0, 1e-3)] + [
    (True, "random", 0.0, (3,) * 40),                  # one scenario: the largest batch
    (True, "random", 1e-3, (0, 2, 3, 2, 0, 3, 3, 0)),  # scenario 1 never visited
]


@pytest.mark.parametrize("probe_on, x0_mode, sigma, alphas", TRUTH_CASES)
def test_truth_matches_per_window_oracle(m1_family, coarse_probe, probe_on, x0_mode,
                                         sigma, alphas, monkeypatch):
    K = 6 if alphas is None else len(alphas)
    cfg = config(m1_family, coarse_probe, K=K, seed=4, x0_mode=x0_mode,
                 noise_sigma=sigma, probe_override_R=None if probe_on else 0.0)
    # detection discounts the truth's forced responses instead of simulating
    # them again, also for a scenario the sequence never visits
    calls = []
    monkeypatch.setattr(detection, "forced_outputs",
                        lambda d, w: calls.append(w) or forced_outputs(d, w))
    result = run_experiment(cfg, None if alphas is None else SwitchingSequence(alphas))
    monkeypatch.undo()
    assert calls == []
    samples = assert_truth_matches_oracle(result)
    oracle_windows = [dataclasses.replace(w, samples=y)
                      for w, y in zip(result.windows, samples)]
    dmodels = [discretize_zoh(sc, TS) for sc in m1_family]
    oracle = detect_sequence(dmodels, oracle_windows,
                             forced_responses(dmodels, oracle_windows), subsample=SUB)
    assert result.report.detected == oracle.detected
    simulated = detect_sequence(dmodels, list(result.windows),
                                forced_responses(dmodels, result.windows), subsample=SUB)
    for got, ref in zip(result.report.verdicts, simulated.verdicts):
        assert np.array_equal(got.residuals, ref.residuals)
    if not probe_on and x0_mode == "zero" and sigma == 0.0:
        # the passive premise: nothing excites the system, every sample is zero
        assert all(np.all(w.samples == 0.0) for w in result.windows)


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
        assert np.all(w.u1[:steps, 1] == coarse_probe.R)
        assert np.all(w.u1[:steps, [0, 2]] == 0.0)
        assert np.all(w.u1[steps] == 0.0)
    # unforced propagation across the probe-off remainder matches fine ZOH
    dmodel = discretize_zoh(m1_family[result.sequence.alphas[0]], TS)
    trace = simulate(dmodel, result.boundary_states[0],
                     result.windows[0].u1, result.windows[0].u2, steps,
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
        idx = np.arange(0, src.steps + 1, stride)
        assert w.ts == TS * stride
        assert np.array_equal(w.samples, src.samples[idx])
        assert np.array_equal(w.u1, src.u1[idx])
        assert np.array_equal(w.u2, src.u2[idx])


def test_read_windows_share_input_records(tmp_path, m1_family, coarse_probe):
    result = run_experiment(config(m1_family, coarse_probe, K=4, seed=3))
    write_outputs(result, tmp_path, windows_mode="strided")
    windows = read_windows(tmp_path / "windows")
    first = windows[0]
    for window in windows[1:]:
        assert np.shares_memory(window.u1, first.u1)
        assert np.shares_memory(window.u2, first.u2)
        assert not np.shares_memory(window.samples, first.samples)


def test_read_windows_orders_files_by_index(tmp_path, m1_family, coarse_probe):
    result = run_experiment(config(m1_family, coarse_probe, K=11, seed=3))
    write_outputs(result, tmp_path, windows_mode="strided")
    win_dir = tmp_path / "windows"
    # unpadded names sort window_10 before window_2 by name
    for k in range(11):
        (win_dir / f"window_{k:04d}.csv").rename(win_dir / f"window_{k}.csv")
    windows = read_windows(win_dir)
    assert [w.t_start for w in windows] == [w.t_start for w in result.windows]
    for w, src in zip(windows, result.windows):
        assert np.array_equal(w.samples, src.samples[::SUB])


def test_read_windows_checks_each_start_against_meta(tmp_path, m1_family, coarse_probe):
    result = run_experiment(config(m1_family, coarse_probe, K=3, seed=3))
    write_outputs(result, tmp_path, windows_mode="strided")
    path = tmp_path / "windows" / "window_0001.csv"
    header, first, rest = path.read_bytes().split(b"\r\n", 2)
    t, fields = first.split(b",", 1)
    assert float(t) == result.windows[1].t_start == TAU
    path.write_bytes(b"\r\n".join([header, b"0.05000000000000001," + fields, rest]))
    with pytest.raises(ConfigError, match=r"window_0001.csv: starts at t=0.05000000000000001; "
                                          r"meta.json's window_starts\[1\] is 0.05"):
        read_windows(tmp_path / "windows")


@pytest.mark.parametrize("change, message", [
    (lambda d: (d / "window_0001.csv").unlink(), "no file for 1, unexpected or repeated none"),
    (lambda d: (d / "window_0003.csv").write_bytes((d / "window_0002.csv").read_bytes()),
     "no file for none, unexpected or repeated 3"),
    (lambda d: (d / "window_2.csv").write_bytes((d / "window_0002.csv").read_bytes()),
     "no file for none, unexpected or repeated 2"),
], ids=["missing", "extra", "repeated"])
def test_read_windows_needs_every_listed_window_once(tmp_path, m1_family, coarse_probe,
                                                     change, message):
    result = run_experiment(config(m1_family, coarse_probe, K=3, seed=3))
    write_outputs(result, tmp_path, windows_mode="strided")
    change(tmp_path / "windows")
    with pytest.raises(ConfigError, match="meta.json lists 3 windows") as exc:
        read_windows(tmp_path / "windows")
    assert message in str(exc.value)


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
    assert [w.samples.shape[0] for w in windows] == [167, 167]
    other = dataclasses.replace(coarse_probe, tau0=0.011)
    with pytest.raises(ConfigError, match="meta.json") as exc:
        read_windows(tmp_path / "windows", probe=other)
    assert "tau0=0.005" in str(exc.value) and "tau0=0.011" in str(exc.value)


@pytest.mark.parametrize("probe", [False, True], ids=["no-probe", "probe"])
def test_read_windows_rejects_a_window_of_another_length(tmp_path, m1_family, coarse_probe,
                                                         probe):
    result = run_experiment(config(m1_family, coarse_probe, K=3, seed=3))
    write_outputs(result, tmp_path, windows_mode="strided")
    path = tmp_path / "windows" / "window_0002.csv"
    path.write_bytes(path.read_bytes().rsplit(b"\r\n", 2)[0] + b"\r\n")
    with pytest.raises(ConfigError, match="window_0002.csv: has 100 data rows") as exc:
        read_windows(tmp_path / "windows", probe=coarse_probe if probe else None)
    assert "tau0=0.005 at ts=5e-05 implies 101" in str(exc.value)


@pytest.mark.parametrize("tau0", [0.0, float("nan")], ids=["zero", "nan"])
def test_read_windows_rejects_bad_meta_tau0(tmp_path, m1_family, coarse_probe, tau0):
    write_outputs(run_experiment(config(m1_family, coarse_probe, K=2, seed=3)), tmp_path)
    meta = tmp_path / "windows" / "meta.json"
    meta.write_text(json.dumps(dict(json.loads(meta.read_text()), tau0=tau0)))
    with pytest.raises(ConfigError, match=f"meta.json: tau0={tau0} must be positive"):
        read_windows(tmp_path / "windows")


# values whose text form is easy to get wrong: signed zero, the smallest
# subnormal, exponent notation on both sides, overflow to inf, nan
SPECIAL = (-0.0, 5e-324, 1e-5, 1e16, -1e300, float("nan"), float("inf"))


@pytest.fixture(scope="module")
def special_result(m1_family, coarse_probe):
    """A three-window run whose middle window's outputs hold SPECIAL on every
    estimator-grid row it spans, and whose last window's u1 has -0.0 where the
    others have 0.0."""
    result = run_experiment(config(m1_family, coarse_probe, K=3, seed=13))
    first, middle, last = result.windows
    samples = np.array(middle.samples)
    samples[::SUB][:len(SPECIAL)] = np.array(SPECIAL)[:, None]
    samples[::SUB][:len(SPECIAL), 1] *= -1.0
    u1 = np.array(last.u1)
    u1[u1 == 0.0] = -0.0
    return dataclasses.replace(result, windows=(
        first,
        dataclasses.replace(middle, samples=samples),
        dataclasses.replace(last, u1=u1)))


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@pytest.mark.parametrize("mode, stride", [("strided", SUB), ("full", 1)])
def test_window_files_match_csv_oracle(tmp_path, special_result, mode, stride):
    out, ref = tmp_path / "run", tmp_path / "ref"
    ref.mkdir()
    write_outputs(special_result, out, windows_mode=mode)
    csv_write_windows(special_result, ref, stride)
    names = sorted(f.name for f in (out / "windows").glob("window_*.csv"))
    assert names == sorted(f.name for f in ref.iterdir())
    for name in names:
        assert (out / "windows" / name).read_bytes() == (ref / name).read_bytes(), name

    windows = read_windows(out / "windows")
    p = special_result.windows[0].samples.shape[1]
    for name, w in zip(names, windows):
        table = csv_read_window(ref / name)
        assert np.array_equal(_bits(w.t_start), _bits(table[0, 0]))
        assert np.array_equal(_bits(w.samples), _bits(table[:, 1:1 + p]))
        assert np.array_equal(_bits(w.u1), _bits(table[:, 1 + p:4 + p]))
        assert np.array_equal(_bits(w.u2), _bits(table[:, 4 + p:]))
    # the special values made it through, and only bitwise-equal records are shared
    assert np.isnan(windows[1].samples).any() and np.isinf(windows[1].samples).any()
    assert (windows[1].samples == 5e-324).any()
    assert np.signbit(windows[2].u1[windows[2].u1 == 0.0]).all()
    assert np.shares_memory(windows[1].u1, windows[0].u1)
    assert not np.shares_memory(windows[2].u1, windows[1].u1)
    assert np.shares_memory(windows[2].u2, windows[1].u2)


@pytest.mark.parametrize("record", ["u1", "u2"])
@pytest.mark.parametrize("mode, stride", [("strided", SUB), ("full", 1)])
def test_window_files_format_each_record_from_its_own_values(
        tmp_path, m1_family, coarse_probe, mode, stride, record):
    # the input records run A, A, B, A, where B has -0.0 wherever A has 0.0:
    # the last window must be written from A's values, not from B's tails
    result = run_experiment(config(m1_family, coarse_probe, K=4, seed=13))
    a = getattr(result.windows[0], record)
    b = np.array(a)
    b[b == 0.0] = -0.0
    windows = list(result.windows)
    windows[2] = dataclasses.replace(windows[2], **{record: b})
    result = dataclasses.replace(result, windows=tuple(windows))
    assert all(getattr(w, record) is a for w in windows[:2] + windows[3:])

    out, ref = tmp_path / "run", tmp_path / "ref"
    ref.mkdir()
    write_outputs(result, out, windows_mode=mode)
    csv_write_windows(result, ref, stride)
    names = sorted(f.name for f in (out / "windows").glob("window_*.csv"))
    assert names == sorted(f.name for f in ref.iterdir()) and len(names) == 4
    for name in names:
        assert (out / "windows" / name).read_bytes() == (ref / name).read_bytes(), name
    p = result.windows[0].samples.shape[1]
    cols = slice(1 + p, 4 + p) if record == "u1" else slice(4 + p, None)
    zeros = [table[table == 0.0] for table in
             (csv_read_window(out / "windows" / name)[:, cols] for name in names)]
    assert all(z.size for z in zeros)
    assert [np.signbit(z).any() for z in zeros] == [False, False, True, False]


def _cpus(monkeypatch, count):
    """Let write_outputs see `count` usable CPUs, and count its forks."""
    forks = []
    fork = os.fork

    def counted():
        forks.append(None)
        return fork()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
    monkeypatch.setattr(os, "fork", counted)
    return forks


@pytest.mark.parametrize("cpus", [1, 2, 5], ids=["one-cpu", "two-cpus", "more-cpus-than-windows"])
@pytest.mark.parametrize("mode, stride", [("strided", SUB), ("full", 1)])
def test_window_files_same_bytes_at_any_cpu_count(tmp_path, monkeypatch, special_result,
                                                  mode, stride, cpus):
    ref = tmp_path / "ref"
    ref.mkdir()
    csv_write_windows(special_result, ref, stride)
    forks = _cpus(monkeypatch, cpus)
    write_outputs(special_result, tmp_path / "run", windows_mode=mode)
    assert len(forks) == min(cpus, len(special_result.windows)) - 1
    out = tmp_path / "run" / "windows"
    names = sorted(f.name for f in out.glob("window_*.csv"))
    assert names == sorted(f.name for f in ref.iterdir()) and len(names) == 3
    for name in names:
        assert (out / name).read_bytes() == (ref / name).read_bytes(), name
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_window_files_written_here_when_no_child_can_be_forked(tmp_path, monkeypatch,
                                                              special_result):
    ref = tmp_path / "ref"
    ref.mkdir()
    csv_write_windows(special_result, ref, SUB)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})

    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    write_outputs(special_result, tmp_path / "run")
    for name in sorted(f.name for f in ref.iterdir()):
        assert (tmp_path / "run" / "windows" / name).read_bytes() == (ref / name).read_bytes()


@pytest.mark.parametrize("bad", [0, 3], ids=["own-share", "child-share"])
def test_failed_share_raises_as_the_serial_writer(tmp_path, monkeypatch, m1_family,
                                                  coarse_probe, bad):
    # two shares, windows 0-1 written here and 2-3 by a child; a directory
    # in a window file's place makes its share fail
    result = run_experiment(config(m1_family, coarse_probe, K=4, seed=13))
    (tmp_path / "windows" / f"window_{bad:04d}.csv").mkdir(parents=True)
    errors = []
    for cpus in (1, 2):
        forks = _cpus(monkeypatch, cpus)
        with pytest.raises(OSError) as exc:
            write_outputs(result, tmp_path)
        assert len(forks) == cpus - 1
        errors.append((type(exc.value), str(exc.value)))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    assert errors[0] == errors[1]
    assert errors[0][0] is IsADirectoryError and f"window_{bad:04d}.csv" in errors[0][1]


REPRO_WITH_FOUR_CPUS = """
import os, sys
os.sched_getaffinity = lambda pid: {0, 1, 2, 3}
from shslab.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_forked_writer_prints_each_summary_line_once(tmp_path):
    # stdout to a pipe is block-buffered, so a child that flushed the
    # parent's buffer on exit would print the summary twice
    src = str(Path(shslab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.run(
        [sys.executable, "-c", REPRO_WITH_FOUR_CPUS, "repro-paper", "--K", "4",
         "--out-dir", str(tmp_path / "rp")],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    repeated = [line for line, n in Counter(lines).items() if n > 1]
    assert not repeated
    for line in ("== segment state dimensions ==", "== eigenvalue analysis ==",
                 "== probing design and switched-sequence detection ==",
                 "intervals = 4, accuracy = 1.0000 (4/4)"):
        assert line in lines
    assert len(list((tmp_path / "rp" / "windows").glob("window_*.csv"))) == 4


def test_rerun_removes_stale_window_files(tmp_path, m1_family, coarse_probe):
    win_dir = tmp_path / "windows"
    write_outputs(run_experiment(config(m1_family, coarse_probe, K=6, seed=3)), tmp_path)
    (win_dir / "window_2.csv").write_bytes((win_dir / "window_0002.csv").read_bytes())
    (win_dir / "notes.txt").write_text("kept")
    result = run_experiment(config(m1_family, coarse_probe, K=3, seed=3))
    write_outputs(result, tmp_path)
    assert sorted(f.name for f in win_dir.iterdir()) == [
        "meta.json", "notes.txt", "window_0000.csv", "window_0001.csv", "window_0002.csv"]
    assert len(read_windows(win_dir)) == 3

    write_outputs(result, tmp_path, windows_mode="none")
    assert sorted(f.name for f in win_dir.iterdir()) == ["notes.txt"]


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
    for a, b in zip(got.report.verdicts, ref.report.verdicts, strict=True):
        assert np.array_equal(_bits(a.residuals), _bits(b.residuals))
        assert np.array_equal(_bits(a.x0_hat), _bits(b.x0_hat))


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
    calls = {"simulate": 0, "discretize_zoh": 0, "observability_stack": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((experiment, "simulate"), (detection, "simulate"),
                         (probing, "discretize_zoh"), (detection, "observability_stack")):
        counted(module, name)
    run_experiment(config(fresh_family, coarse_probe, seed=1))
    assert calls == {"simulate": 4, "discretize_zoh": 4, "observability_stack": 4}
    calls.update(dict.fromkeys(calls, 0))
    run_experiment(config(fresh_family, coarse_probe, seed=2, x0_mode="random",
                          noise_sigma=1e-3))
    assert calls == {"simulate": 0, "discretize_zoh": 0, "observability_stack": 0}
    # another probe record needs its own forced responses, nothing else
    run_experiment(config(fresh_family, coarse_probe, seed=3, probe_override_R=0.0))
    assert calls == {"simulate": 4, "discretize_zoh": 0, "observability_stack": 0}


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
    u1, u2, forced, M, h = experiment._window_response(cfg, dmodels)
    assert result.windows[0].u1 is u1 and result.windows[0].u2 is u2
    assert forced.shape == (len(dmodels), *result.windows[0].samples.shape)
    arrays = [u1, u2, forced, *M.values(), *h.values()]
    for d in dmodels:
        stack, qs, tri = _MEMO[d][("factor", cfg.window_steps, SUB)]
        arrays += [stack, *qs, tri]
    assert not any(a.flags.writeable for a in arrays)

    owner = weakref.ref(family)
    del family, cfg, result, dmodels, u1, u2, forced, M, h, arrays, d, stack, qs, tri
    gc.collect()
    assert owner() is None
    assert len(_MEMO) == before
