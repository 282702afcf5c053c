"""Switched-system experiment: random scenario sequence, probed windows,
detection, scoring, and file artifacts.

Each interval [k tau, (k+1) tau) runs one scenario. The probe occupies
[k tau, k tau + tau0) and is recorded together with the outputs; the state
then relaxes unforced to the next boundary. The state vector carries over
interval boundaries unchanged.

Every window sees the same held inputs u = [u1; u2], so the truth is linear
in the held-input state z = [x; u] of linsys.hold_inputs: window k of
scenario a holds the samples y_j = C_z Ad_z^j z_k, and the next boundary
state follows from z_(k+1) = diag(hold_a, I) Ad_z^N z_k, with
hold_a = exp(A_a (tau - tau0)) and the input part of z carried unchanged.
The truth is evaluated that way, exactly up to round-off: the chain of
boundary states through one matrix per scenario, and all windows of a
scenario as one batched product of their start states z_k with the
scenario's stack [O | S] on the estimator grid, detection.grid_stack's, the
one copy detection's fits also read.

None of that depends on the window data. The discretized models are
probing.discretized's, built once per family and ts, and the input records
and boundary matrices once per family and (ts, tau, tau0, probe channel,
applied probe level); both are kept as long as the family lives. A later
run on the same family draws its initial state, chains the boundary
states, takes the window products and the noise, and fits against
detection's stored factors.

Measurement noise, noise_sigma times one standard normal per output, is
drawn only for the estimator grid: every subsample-th sample of a window,
the rows detection fits and a strided window record keeps. The draws come
from one stream per seed, window by window, a (rows on the grid, p) block
each; the samples between grid rows are the noise-free outputs.

A window keeps only its estimator grid unless the run is asked for every
sample (`full`, which a full window record needs). Rows r, r + subsample,
... of a full record are the grid products from Ad_z^r z_k, so the grid
rows hold the same bits either way.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .detection import (DetectionReport, MeasurementWindow, detect_sequence, free_outputs,
                        grid_stack, grid_step, held_input, require_equations)
from .errors import ConfigError, NumericalError
from .linsys import eig_sorted, expm, hold_inputs
from .probing import ProbingDesign, discretized, whole_steps
from .ssbuild import ScenarioFamily
from .util import doc_value, dump_json, integer, memo


@dataclass(frozen=True)
class SwitchingSequence:
    alphas: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.alphas)


def check_experiment(family: ScenarioFamily, *, tau: float, tau0: float, ts: float, K: int,
                     seed: int, noise_sigma: float, subsample: int, x0_mode: str,
                     probe_override_R: float | None) -> None:
    """Every check of an ExperimentConfig that needs no probe design, so a
    caller can refuse a run before designing its probe; the config runs
    them itself and then checks the probe's tau0 against its own."""
    if K < 1:
        raise ConfigError(f"K must be >= 1, got {K}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if not (tau > 0 and tau0 > 0 and ts > 0):
        raise ConfigError("tau, tau0 and ts must all be > 0")
    if tau0 > tau / 10.0 + 1e-15:
        raise ConfigError(f"detection window tau0={tau0} must be <= tau/10={tau / 10}")
    whole_steps("tau", tau, ts)
    steps = whole_steps("tau0", tau0, ts)
    if not (math.isfinite(noise_sigma) and noise_sigma >= 0):
        raise ConfigError(f"noise_sigma must be finite and >= 0, got {noise_sigma}")
    if probe_override_R is not None and not math.isfinite(probe_override_R):
        raise ConfigError(f"probe_override_R must be finite, got {probe_override_R}")
    if x0_mode not in ("zero", "random"):
        raise ConfigError(f"x0_mode must be 'zero' or 'random', got '{x0_mode}'")
    require_equations(steps, family[0].p, family[0].n, subsample)


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    family: ScenarioFamily
    probe: ProbingDesign
    tau: float
    tau0: float
    ts: float
    K: int
    seed: int
    noise_sigma: float = 0.0
    subsample: int = 10
    x0_mode: str = "zero"          # 'zero' | 'random' (max-norm scaled to mu0)
    probe_override_R: float | None = None   # e.g. 0.0 for the passive ablation

    def __post_init__(self):
        check_experiment(self.family, tau=self.tau, tau0=self.tau0, ts=self.ts, K=self.K,
                         seed=self.seed, noise_sigma=self.noise_sigma,
                         subsample=self.subsample, x0_mode=self.x0_mode,
                         probe_override_R=self.probe_override_R)
        if not abs(self.probe.tau0 - self.tau0) <= 1e-12 * self.tau0:
            raise ConfigError(
                f"the probe is designed over tau0={self.probe.tau0}, but the "
                f"experiment's detection window is tau0={self.tau0}")

    @property
    def window_steps(self) -> int:
        return int(round(self.tau0 / self.ts))

    @property
    def applied_R(self) -> float:
        return self.probe.R if self.probe_override_R is None else self.probe_override_R


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    config: ExperimentConfig
    sequence: SwitchingSequence
    report: DetectionReport
    windows: tuple[MeasurementWindow, ...]
    boundary_states: np.ndarray    # (K+1, n), state at each interval boundary

    @property
    def accuracy(self) -> float:
        return self.report.accuracy


def _rngs(seed: int):
    children = np.random.SeedSequence(seed).spawn(3)
    return tuple(np.random.default_rng(c) for c in children)


def generate_sequence(config: ExperimentConfig) -> SwitchingSequence:
    """K i.i.d. uniform draws over the scenario set, deterministic per seed."""
    rng_seq, _, _ = _rngs(config.seed)
    draws = rng_seq.integers(0, len(config.family), size=config.K)
    return SwitchingSequence(alphas=tuple(int(a) for a in draws))


def _window_response(config: ExperimentConfig, dmodels: tuple):
    """What every window of a run shares, built once per family and
    (ts, tau, tau0, probe channel, applied probe level): the frozen input
    records u1_win and u2_win, and per scenario a the boundary matrix
    diag(hold_a, I) Ad_z^N of the module docstring, stacked into one
    read-only (m, n_z, n_z) array."""
    family = config.family
    steps = config.window_steps
    n = family[0].n

    def build():
        u1_win = np.zeros((steps + 1, 3))
        u1_win[:steps, config.probe.channel] = config.applied_R
        u2_win = np.zeros((steps + 1, dmodels[0].Bd2.shape[1]))
        M = np.array([np.linalg.matrix_power(hold_inputs(d).Ad, steps) for d in dmodels])
        for a, sc in enumerate(family):
            M[a, :n] = expm(sc.A * (config.tau - config.tau0)) @ M[a, :n]
        # frozen, so every window of every run shares these arrays
        for arr in (u1_win, u2_win, M):
            arr.setflags(write=False)
        return u1_win, u2_win, M

    key = ("window response", config.ts, config.tau, config.tau0,
           config.probe.channel, config.applied_R)
    return memo(family, key, build)


def run_experiment(config: ExperimentConfig, sequence: SwitchingSequence | None = None,
                   full: bool = False) -> ExperimentResult:
    """Simulate the switched truth with probing, detect per window, score.

    Each window keeps the estimator grid, every subsample-th sample of its
    record, or with `full` every sample; the grid rows are the same bits
    either way."""
    if sequence is None:
        sequence = generate_sequence(config)
    family = config.family
    m = len(family)
    for k, a in enumerate(sequence.alphas):
        if not 0 <= a < m:
            raise ConfigError(f"sequence entry {k} = {a} outside scenario set 0..{m - 1}")
    if len(sequence) != config.K:
        raise ConfigError(
            f"sequence length {len(sequence)} differs from K={config.K}")

    dmodels = discretized(family, config.ts)
    _, rng_noise, rng_x0 = _rngs(config.seed)
    n = family[0].n

    if config.x0_mode == "zero":
        x = np.zeros(n)
    else:
        x = rng_x0.standard_normal(n)
        scale = config.probe.mu0 if config.probe.mu0 > 0 else 1.0
        x *= scale / np.max(np.abs(x))

    u1_win, u2_win, M = _window_response(config, dmodels)
    # the grid stacks outlive this run's arrays: built before them, they do
    # not sit between them on the heap and hold its top up
    for d in dmodels:
        grid_stack(d, config.window_steps, config.subsample)

    # the held-input state at every boundary; its input part stays the same
    Z = np.empty((config.K + 1, M.shape[1]))
    Z[0] = np.concatenate([x, u1_win[0], u2_win[0]])
    for k, a in enumerate(sequence.alphas):
        Z[k + 1] = M[a] @ Z[k]
        if not np.all(np.isfinite(Z[k + 1])):
            raise NumericalError(
                f"simulation diverged in interval {k} (scenario {a}); "
                f"the scenario model is unstable")

    # every window one batched product per scenario over its windows, into
    # arrays the windows then own without a copy; all of them allocated
    # first, so the products' transients do not sit between them
    grid_shape = (config.window_steps // config.subsample + 1, dmodels[0].p)
    shape = (config.window_steps + 1, dmodels[0].p) if full else grid_shape
    stride = 1 if full else config.subsample
    samples = [np.empty(shape) for _ in range(config.K)]
    alphas = np.asarray(sequence.alphas)
    for a in range(m):
        ks = np.flatnonzero(alphas == a)
        free_outputs(dmodels[a], Z[ks], [samples[k] for k in ks],
                     config.window_steps, config.subsample, full)

    windows: list[MeasurementWindow] = []
    for k, y in enumerate(samples):
        if config.noise_sigma > 0:
            y[::config.subsample // stride] += (
                config.noise_sigma * rng_noise.standard_normal(grid_shape))
        y.setflags(write=False)
        windows.append(MeasurementWindow(
            t_start=k * config.tau, ts=config.ts, samples=y,
            u1=u1_win, u2=u2_win, stride=stride))

    report = detect_sequence(dmodels, windows, truth=list(sequence.alphas),
                             subsample=config.subsample)
    return ExperimentResult(config=config, sequence=sequence, report=report,
                            windows=tuple(windows), boundary_states=Z[:, :n])


# ---------------------------------------------------------------------------
# eigenvalue reporting
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class EigenReport:
    alphas: tuple[int, ...]
    names: tuple[str, ...]
    eigenvalues: tuple[np.ndarray, ...]
    max_real: tuple[float, ...]

    @property
    def all_hurwitz(self) -> bool:
        return all(mx < 0.0 for mx in self.max_real)

    @property
    def most_damped(self) -> int:
        """Scenario whose dominant (largest-real-part) mode is most negative."""
        return int(np.argmin(self.max_real))

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["alpha", "re", "im"])
            for a, eig in zip(self.alphas, self.eigenvalues):
                for lam in eig:
                    writer.writerow([a, repr(float(lam.real)), repr(float(lam.imag))])


def eigen_report(family: ScenarioFamily) -> EigenReport:
    eigs = tuple(eig_sorted(sc.A) for sc in family)
    return EigenReport(
        alphas=tuple(sc.alpha for sc in family),
        names=tuple(sc.name for sc in family),
        eigenvalues=eigs,
        max_real=tuple(float(e.real.max()) for e in eigs))


# ---------------------------------------------------------------------------
# file artifacts
# ---------------------------------------------------------------------------


_NPY = "windows.npy"


def window_rows(tau0: float, ts: float) -> int:
    """Samples a window of length tau0 holds at period ts: those at 0, ts,
    2 ts, ... up to tau0, to 1e-6 of a sample. A record that keeps every
    stride-th sample of a window has this many rows at ts = stride times the
    simulated period, whether or not the stride divides the window's steps."""
    return math.floor(tau0 / ts + 1e-6) + 1


def _write_sequence_csv(path, rows, header):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_outputs(result: ExperimentResult, out_dir, windows_mode: str = "strided") -> None:
    """Emit truth.csv, detected.csv, sequence.csv, report.json and windows/.

    windows_mode: 'strided' records every subsample-th sample (the estimator
    grid), 'full' records every sample, which only a result of
    run_experiment(..., full=True) holds, 'none' skips the window record.
    The record is windows/windows.npy, one float64 table of shape (K, rows,
    1 + p + 3 + q) whose columns are t, the outputs, u1 and u2; the stride
    and periods land in windows/meta.json so a replay can rebuild the exact
    estimation problem. The table is streamed one window at a time, and its
    bytes are those of np.save of the stacked table. A windows.npy and
    meta.json an earlier run left in windows/ that this run does not write
    are removed.
    """
    if windows_mode not in ("strided", "full", "none"):
        raise ConfigError(f"unknown windows mode '{windows_mode}'")
    cfg = result.config
    stride = 1 if windows_mode == "full" else cfg.subsample
    try:
        step = grid_step(result.windows, stride)
    except ConfigError as exc:
        raise ConfigError(f"windows mode '{windows_mode}': {exc}") from exc
    os.makedirs(out_dir, exist_ok=True)
    truth = list(result.sequence.alphas)
    detected = result.report.detected

    _write_sequence_csv(os.path.join(out_dir, "truth.csv"),
                        list(enumerate(truth, start=1)), ["k", "alpha"])
    _write_sequence_csv(os.path.join(out_dir, "detected.csv"),
                        list(enumerate(detected, start=1)), ["k", "alpha"])
    _write_sequence_csv(os.path.join(out_dir, "sequence.csv"),
                        [(k + 1, t, d) for k, (t, d) in enumerate(zip(truth, detected))],
                        ["k", "true", "detected"])
    dump_json(result.report.to_json(), os.path.join(out_dir, "report.json"))

    win_dir = os.path.join(out_dir, "windows")
    if windows_mode == "none":
        _clear_windows(win_dir, set())
        return
    os.makedirs(win_dir, exist_ok=True)
    _clear_windows(win_dir, {"meta.json", _NPY})
    p = result.windows[0].samples.shape[1] if result.windows else 0
    q = result.windows[0].u2.shape[1] if result.windows else 0
    dump_json({
        "format": "npy",
        "ts": cfg.ts * stride,
        "ts_simulated": cfg.ts,
        "stride_applied": stride,
        "tau0": cfg.tau0,
        "n_outputs": p,
        "n_u2": q,
        "window_starts": [w.t_start for w in result.windows],
    }, os.path.join(win_dir, "meta.json"))
    shape = (len(result.windows), window_rows(cfg.tau0, cfg.ts * stride), 1 + p + 3 + q)
    with open(os.path.join(win_dir, _NPY), "wb") as fh:
        np.lib.format.write_array_header_1_0(fh, {
            "descr": np.lib.format.dtype_to_descr(np.dtype(np.float64)),
            "fortran_order": False, "shape": shape})
        for w in result.windows:
            idx = np.arange(0, w.steps + 1, stride)
            fh.write(np.column_stack(
                [w.t_start + w.ts * idx, w.samples[::step], w.u1[idx], w.u2[idx]]).tobytes())


def _clear_windows(win_dir, keep: set) -> None:
    """Remove meta.json and windows.npy under win_dir unless named in `keep`,
    so no earlier run's record is left beside this run's. Other files are
    not the run's and stay."""
    for name in {"meta.json", _NPY} - keep:
        path = os.path.join(win_dir, name)
        if os.path.exists(path):
            os.remove(path)


def read_windows(win_dir, probe: ProbingDesign | None = None) -> list[MeasurementWindow]:
    """Rebuild MeasurementWindows from a windows/ directory written above.

    The returned windows live on the recorded grid; detect them with
    subsample=1 against a family discretized at the recorded ts. A trace
    holds one input record: every window's u1 and u2 columns must equal
    window 0's bit for bit, all windows share one frozen u1 and one frozen
    u2, and that record must hold its inputs as detection.held_input
    requires. meta.json's ts must be ts_simulated * stride_applied, and
    every window must hold window_rows(tau0, ts) rows for meta.json's tau0
    and start at its entry of window_starts exactly (both are round-trips
    of one float, and the first t is t_start + ts * 0). With a probe,
    meta.json's tau0 must be the probe design's, and its ts_simulated the
    probe's ts if the design records one, each within 1e-12 relative.

    meta.json must carry "format": "npy" and describes windows.npy, whose
    dtype and shape (len(window_starts), rows, 1 + p + 3 + q) must match it.
    A meta.json without a format key is a trace of per-window CSV files,
    which this version no longer reads; `shslab run` with the config in the
    run's manifest.json writes the same windows again as windows.npy.
    """
    meta = os.path.join(win_dir, "meta.json")
    if not os.path.exists(meta):
        raise ConfigError(f"missing {meta}")
    try:
        with open(meta, "r", encoding="utf-8") as fh:
            info = json.load(fh)
        ts = float(info["ts"])
        starts = [float(t) for t in info["window_starts"]]
        ts_simulated = float(info["ts_simulated"])
        tau0 = float(info["tau0"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{meta}: malformed: {exc!r}") from exc
    p, q, stride = (doc_value(info, key, integer, meta)
                    for key in ("n_outputs", "n_u2", "stride_applied"))
    for key, value, least in (("n_outputs", p, 1), ("n_u2", q, 0)):
        if value < least:
            raise ConfigError(f"{meta}: key '{key}' has bad value {value}: must be >= {least}")
    fmt = info.get("format")
    if fmt is None:
        raise ConfigError(f"{meta}: no window format; this is a trace of window CSV "
                          f"files, which this version no longer reads. Re-run "
                          f"`shslab run` with the config in the run's manifest.json "
                          f"to record its windows as {_NPY}")
    if fmt != "npy":
        raise ConfigError(f"{meta}: unknown window format {fmt!r}; this version reads 'npy'")
    ts_written = ts_simulated * stride
    if not (np.isfinite(ts) and ts > 0 and abs(ts - ts_written) <= 1e-12 * ts):
        raise ConfigError(f"{meta}: ts={ts} must be positive, finite and equal to "
                          f"ts_simulated * stride_applied = {ts_written}")
    if not (np.isfinite(tau0) and tau0 > 0):
        raise ConfigError(f"{meta}: tau0={tau0} must be positive and finite")
    rows = window_rows(tau0, ts)
    misfit = f"probe.json does not fit the windows {meta} describes: meta.json records"
    if probe is not None and not abs(probe.tau0 - tau0) <= 1e-12 * probe.tau0:
        raise ConfigError(
            f"{misfit} tau0={tau0}, the probe design has tau0={probe.tau0}; window has "
            f"{rows} samples, probe design implies {window_rows(probe.tau0, ts)}")
    if probe is not None and probe.ts is not None \
            and not abs(probe.ts - ts_simulated) <= 1e-12 * probe.ts:
        raise ConfigError(f"{misfit} ts_simulated={ts_simulated}, the probe design has "
                          f"ts={probe.ts}")
    path = os.path.join(win_dir, _NPY)
    table = _npy_table(path, (len(starts), rows, 1 + p + 3 + q))
    off = np.flatnonzero(table[:, 0, 0] != np.array(starts, dtype=float))
    if off.size:
        k = int(off[0])
        raise ConfigError(f"{path} window {k}: starts at t={float(table[k, 0, 0])!r}; "
                          f"meta.json's window_starts[{k}] is {starts[k]!r}")
    if not len(table):
        return []
    # compared on the int64 view, so -0.0 differs from 0.0 and NaN payloads count
    inputs = table.view(np.int64)[:, :, 1 + p:]
    differs = inputs != inputs[:1]
    off = np.flatnonzero(differs.any(axis=(1, 2)))
    if off.size:
        k = int(off[0])
        raise ConfigError(f"{path} window {k}: its {'u1' if differs[k, :, :3].any() else 'u2'} "
                          f"columns differ from window 0's; a trace holds one input record")
    u1, u2 = np.array(table[0, :, 1 + p:4 + p]), np.array(table[0, :, 4 + p:])
    u1.setflags(write=False)
    u2.setflags(write=False)
    windows = [MeasurementWindow(t_start=arr[0, 0], ts=ts, samples=arr[:, 1:1 + p], u1=u1, u2=u2)
               for arr in table]
    try:
        held_input(windows[0])
    except ConfigError as exc:
        raise ConfigError(f"{path} {exc}") from exc
    return windows


def _npy_table(path, shape: tuple) -> np.ndarray:
    """The float64 table of `shape` in windows.npy at `path`, as a plain
    ndarray view of the mapped file. Nothing is unpickled, and the file is
    mapped, not read, so a header that declares more data than the file
    holds is an error before anything is allocated; the windows copy what
    they keep."""
    if not os.path.exists(path):
        raise ConfigError(f"missing {path}")
    try:
        table = np.load(path, mmap_mode="r", allow_pickle=False)
    except (ValueError, EOFError) as exc:
        raise ConfigError(f"{path}: not a readable .npy table: {exc}") from exc
    if not isinstance(table, np.ndarray) or (table.dtype, table.shape) != (np.float64, shape):
        found = (f"a {table.dtype} table of shape {table.shape}"
                 if isinstance(table, np.ndarray) else "an archive")
        raise ConfigError(f"{path}: holds {found}; meta.json implies a float64 table "
                          f"of shape {shape}")
    return table.view(np.ndarray)
