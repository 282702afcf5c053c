"""Switched-system experiment: random scenario sequence, probed windows,
detection, scoring, and file artifacts.

Each interval [k tau, (k+1) tau) runs one scenario. The probe occupies
[k tau, k tau + tau0) and is recorded together with the outputs; the state
then relaxes unforced to the next boundary. The state vector carries over
interval boundaries unchanged.

Every window sees the same held inputs u = [u1; u2], so the truth is linear
in the held-input state z = [x; u] of linsys.discretize_zoh's model: window
k of scenario a holds the samples y_j = C Ad^j z_k, and the next boundary
state follows from z_(k+1) = diag(hold_a, I) Ad^N z_k, with
hold_a = exp(A_a (tau - tau0)) and the input part of z carried unchanged.
The truth is evaluated that way, exactly up to round-off: the chain of
boundary states through one matrix per scenario, and all windows of a
scenario as one batched product of their start states z_k with the
scenario's stack [O | S] on the estimator grid, detection.grid_stack's, the
one copy detection's fits also read.

None of that depends on the window data. The discretized models are
probing.discretized's, built once per family and ts, and the boundary
matrices once per family and (ts, tau, tau0), whatever the probe; both are
kept as long as the family lives. A later run on the same family sets its
held inputs, draws its initial state, chains the boundary states, takes the
window products and the noise, and fits against detection's stored
factors.

A run's windows are one detection.MeasurementWindows batch, one
(K, grid rows, p) array: each window keeps only its estimator grid, every
subsample-th sample, the rows detection fits. Measurement noise,
noise_sigma times one standard normal per output, goes on those rows, drawn
from one stream per seed, window by window. A full window record is formed
when it is written, as the products from Ad^r z_k on rows r,
r + subsample, ..., with the window's own samples on its grid rows, so only
they carry noise.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .detection import (DetectionReport, MeasurementWindows, detect_sequence, free_outputs,
                        grid_stack, require_equations)
from .errors import ConfigError, NumericalError
from .linsys import eig_sorted, expm
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
    windows: MeasurementWindows
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


def _window_response(config: ExperimentConfig, dmodels: tuple) -> np.ndarray:
    """The boundary maps every window of a run shares, built once per family
    and (ts, tau, tau0): per scenario a the matrix diag(hold_a, I) Ad^N of
    the module docstring, stacked into one read-only (m, n_z, n_z) array. It
    does not depend on the probe, so runs at every probe level share it."""
    family = config.family
    n = family[0].n

    def build():
        M = np.array([np.linalg.matrix_power(d.Ad, config.window_steps) for d in dmodels])
        for a, sc in enumerate(family):
            M[a, :n] = expm(sc.A * (config.tau - config.tau0)) @ M[a, :n]
        # frozen, so every window of every run shares it
        M.setflags(write=False)
        return M

    return memo(family, ("window response", config.ts, config.tau, config.tau0), build)


def _window_outputs(config: ExperimentConfig, alphas, Z: np.ndarray,
                    full: bool = False) -> np.ndarray:
    """Every window's noise-free outputs, window k's from the held-input state
    Z[k] under scenario alphas[k], on its estimator grid or with `full` on
    every row: one (K, rows, p) array, allocated first, so the products'
    transients do not sit inside it, and filled by one free_outputs batch
    per scenario through its C-contiguous windows."""
    dmodels = discretized(config.family, config.ts)
    steps = config.window_steps
    rows = steps + 1 if full else steps // config.subsample + 1
    samples = np.empty((len(alphas), rows, dmodels[0].p))
    for a, dmodel in enumerate(dmodels):
        ks = np.flatnonzero(np.equal(alphas, a))
        free_outputs(dmodel, Z[ks], [samples[k] for k in ks], steps, config.subsample, full)
    return samples


def run_experiment(config: ExperimentConfig,
                   sequence: SwitchingSequence | None = None) -> ExperimentResult:
    """Simulate the switched truth with probing, detect per window, score.

    Each window keeps the estimator grid, every subsample-th sample of its
    record."""
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

    held = np.zeros(dmodels[0].inputs)
    held[config.probe.channel] = config.applied_R
    M = _window_response(config, dmodels)
    # the grid stacks outlive this run's arrays: built before them, they do
    # not sit between them on the heap and hold its top up
    for d in dmodels:
        grid_stack(d, config.window_steps, config.subsample)

    # the held-input state at every boundary; its input part stays the same
    Z = np.empty((config.K + 1, M.shape[1]))
    Z[0] = np.concatenate([x, held])
    for k, a in enumerate(sequence.alphas):
        Z[k + 1] = M[a] @ Z[k]
        if not np.all(np.isfinite(Z[k + 1])):
            raise NumericalError(
                f"simulation diverged in interval {k} (scenario {a}); "
                f"the scenario model is unstable")

    # an array the windows then own without a copy; noise is drawn one
    # window at a time, in window order
    samples = _window_outputs(config, sequence.alphas, Z)
    if config.noise_sigma > 0:
        for y in samples:
            y += config.noise_sigma * rng_noise.standard_normal(y.shape)
    samples.setflags(write=False)
    windows = MeasurementWindows(
        t_start=np.arange(config.K) * config.tau, ts=config.ts, samples=samples,
        steps=config.window_steps, held=held, stride=config.subsample)

    report = detect_sequence(dmodels, windows, truth=list(sequence.alphas))
    return ExperimentResult(config=config, sequence=sequence, report=report,
                            windows=windows, boundary_states=Z[:, :n])


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
    simulated period, whether or not the stride divides the window's steps.
    A window with no finite number of samples is a ConfigError."""
    rows = tau0 / ts + 1e-6
    if not math.isfinite(rows):
        raise ConfigError(f"a window of tau0={tau0} at ts={ts} holds no finite number of samples")
    return math.floor(rows) + 1


def _write_sequence_csv(path, rows, header):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_outputs(result: ExperimentResult, out_dir, windows_mode: str = "strided") -> None:
    """Emit truth.csv, detected.csv, sequence.csv, report.json and windows/.

    windows_mode: 'strided' records the windows' samples, every subsample-th
    sample (the estimator grid); 'full' records every sample, formed here by
    one free_outputs batch per scenario from z_k = [x_k; held] with each
    window's samples, noise included, on its grid rows; 'none' skips it.
    The record is windows/windows.npy, one float64 table of shape (K, rows,
    1 + p + 3 + q) whose columns are t, the outputs, u1 and u2, the last
    two the window's held inputs on the rows before N and zeros on the row
    at t = tau0, where the probe is off; the stride and periods land in
    windows/meta.json so a replay can rebuild the exact estimation problem.
    The table is streamed one window at a time, and its bytes are those of
    np.save of the stacked table. A windows.npy and meta.json an earlier run
    left in windows/ that this run does not write are removed. Windows that
    do not keep the config's estimator grid over its window are a
    ConfigError before any file is written.
    """
    if windows_mode not in ("strided", "full", "none"):
        raise ConfigError(f"unknown windows mode '{windows_mode}'")
    cfg = result.config
    windows = result.windows
    if (windows.stride, windows.steps) != (cfg.subsample, cfg.window_steps):
        raise ConfigError(f"the result's windows keep stride {windows.stride} over "
                          f"{windows.steps} steps; its config's estimator grid keeps stride "
                          f"{cfg.subsample} over {cfg.window_steps}")
    stride = 1 if windows_mode == "full" else cfg.subsample
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
    p, held = windows.samples.shape[2], windows.held
    dump_json({
        "format": "npy",
        "ts": cfg.ts * stride,
        "ts_simulated": cfg.ts,
        "stride_applied": stride,
        "tau0": cfg.tau0,
        "n_outputs": p,
        "n_u2": held.size - 3,
        "window_starts": windows.t_start.tolist(),
    }, os.path.join(win_dir, "meta.json"))
    records = windows.samples
    if windows_mode == "full":
        Z = np.column_stack([result.boundary_states[:-1],
                             np.broadcast_to(held, (len(windows), held.size))])
        records = _window_outputs(cfg, result.sequence.alphas, Z, full=True)
        records[:, ::cfg.subsample] = windows.samples
    idx = np.arange(0, windows.steps + 1, stride)
    inputs = np.zeros((idx.size, held.size))
    inputs[idx < windows.steps] = held
    shape = (len(windows), idx.size, 1 + p + held.size)
    with open(os.path.join(win_dir, _NPY), "wb") as fh:
        np.lib.format.write_array_header_1_0(fh, {
            "descr": np.lib.format.dtype_to_descr(np.dtype(np.float64)),
            "fortran_order": False, "shape": shape})
        for t_start, y in zip(windows.t_start, records):
            fh.write(np.column_stack([t_start + windows.ts * idx, y, inputs]).tobytes())


def _clear_windows(win_dir, keep: set) -> None:
    """Remove meta.json and windows.npy under win_dir unless named in `keep`,
    so no earlier run's record is left beside this run's. Other files are
    not the run's and stay."""
    for name in {"meta.json", _NPY} - keep:
        path = os.path.join(win_dir, name)
        if os.path.exists(path):
            os.remove(path)


def read_windows(win_dir, probe: ProbingDesign | None = None) -> MeasurementWindows:
    """Rebuild the MeasurementWindows batch a windows/ directory written
    above records, with one copy of the table's output columns.

    The batch keeps every recorded sample, stride 1, the grid
    detect_sequence fits it on, against a family discretized at the
    recorded ts. A trace holds at least one window and one input record:
    every window's u1 and u2 columns must equal window 0's bit for bit, and
    that record must hold its inputs, finite and unchanged over every row
    but the last, which only pads it; its row 0 is the batch's held vector.
    meta.json's ts must be
    ts_simulated * stride_applied, for a finite ts_simulated > 0 and a
    stride_applied >= 1, and every window must hold
    window_rows(tau0, ts) rows for meta.json's tau0 and start at its entry
    of window_starts exactly (both are round-trips of one float, and the
    first t is t_start + ts * 0). With a probe, meta.json's tau0 must be
    the probe design's, and its ts_simulated the probe's ts if the design
    records one, each within 1e-12 relative.

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
    for key, value, least in (("n_outputs", p, 1), ("n_u2", q, 0),
                              ("stride_applied", stride, 1)):
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
    if not (np.isfinite(ts_simulated) and ts_simulated > 0):
        raise ConfigError(f"{meta}: ts_simulated={ts_simulated} must be positive and finite")
    ts_written = ts_simulated * stride
    if not (np.isfinite(ts) and ts > 0 and abs(ts - ts_written) <= 1e-12 * ts):
        raise ConfigError(f"{meta}: ts={ts} must be positive, finite and equal to "
                          f"ts_simulated * stride_applied = {ts_written}")
    if not (np.isfinite(tau0) and tau0 > 0):
        raise ConfigError(f"{meta}: tau0={tau0} must be positive and finite")
    try:
        rows = window_rows(tau0, ts)
        implied = rows if probe is None else window_rows(probe.tau0, ts)
    except ConfigError as exc:
        raise ConfigError(f"{meta}: {exc}") from exc
    misfit = f"probe.json does not fit the windows {meta} describes: meta.json records"
    if probe is not None and not abs(probe.tau0 - tau0) <= 1e-12 * probe.tau0:
        raise ConfigError(
            f"{misfit} tau0={tau0}, the probe design has tau0={probe.tau0}; window has "
            f"{rows} samples, probe design implies {implied}")
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
        raise ConfigError(f"no windows in {win_dir}")
    # compared on the int64 view, so -0.0 differs from 0.0 and NaN payloads count
    inputs = table.view(np.int64)[:, :, 1 + p:]
    differs = inputs != inputs[:1]
    off = np.flatnonzero(differs.any(axis=(1, 2)))
    if off.size:
        k = int(off[0])
        raise ConfigError(f"{path} window {k}: its {'u1' if differs[k, :, :3].any() else 'u2'} "
                          f"columns differ from window 0's; a trace holds one input record")
    try:
        windows = MeasurementWindows(t_start=table[:, 0, 0], ts=ts, samples=table[:, :, 1:1 + p],
                                     steps=rows - 1, held=table[0, 0, 1 + p:])
    except ConfigError as exc:
        raise ConfigError(f"{path} window 0: {exc}") from exc
    record = table[0, :-1, 1 + p:]
    for name, cols in (("u1", slice(0, 3)), ("u2", slice(3, None))):
        off = np.flatnonzero(np.any(record[:, cols] != windows.held[cols], axis=1))
        if off.size:
            raise ConfigError(f"{path} window 0: its {name} record changes at row {off[0]}; "
                              f"inputs must be held over rows 0..{rows - 2}")
    return windows


def _npy_table(path, shape: tuple) -> np.ndarray:
    """The float64 table of `shape` in windows.npy at `path`, as a plain
    ndarray view of the mapped file. Nothing is unpickled, and the file is
    mapped, not read, so a header that declares more data than the file
    holds is an error before anything is allocated; the batch copies what
    it keeps."""
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
