"""Switched-system experiment: random scenario sequence, probed windows,
detection, scoring, and file artifacts.

Each interval [k tau, (k+1) tau) runs one scenario. The probe occupies
[k tau, k tau + tau0) and is recorded together with the outputs; the state
then relaxes unforced to the next boundary. The state vector carries over
interval boundaries unchanged.

Every window sees the same inputs, so within an interval of scenario a the
truth is affine in the window-start state x_k: the window's samples are
y_j = f_a,j + C Ad_a^j x_k and the next boundary state is
x_{k+1} = hold_a (Ad_a^N x_k + g_a), where f_a and g_a are the outputs and
the final state of the forced response from rest and
hold_a = exp(A_a (tau - tau0)). The truth is evaluated that way, exactly up
to round-off: one forced response per scenario, the chain of boundary
states, and one blocked free response over all windows of each scenario.
Every window hands detection those same forced responses, one array of all
scenarios of the family, visited or not, so detection simulates nothing.

None of that depends on the window data. The discretized models are
probing.discretized's, built once per family and ts, and the input records,
forced responses and boundary maps once per family and (ts, tau, tau0, probe
channel, applied probe level); both are kept as long as the family lives.
A later run on the same family draws its initial state, chains the boundary
states, takes the free responses and the noise, and fits against
detection's stored factors.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
import threading
import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .detection import DetectionReport, MeasurementWindow, detect_sequence
from .errors import ConfigError, NumericalError
from .linsys import eig_sorted, expm, free_outputs, simulate
from .probing import ProbingDesign, discretized, whole_steps
from .ssbuild import ScenarioFamily
from .util import doc_value, dump_json, integer, memo


@dataclass(frozen=True)
class SwitchingSequence:
    alphas: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.alphas)


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
        if self.K < 1:
            raise ConfigError(f"K must be >= 1, got {self.K}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not (self.tau > 0 and self.tau0 > 0 and self.ts > 0):
            raise ConfigError("tau, tau0 and ts must all be > 0")
        if self.tau0 > self.tau / 10.0 + 1e-15:
            raise ConfigError(
                f"detection window tau0={self.tau0} must be <= tau/10={self.tau / 10}")
        whole_steps("tau", self.tau, self.ts)
        whole_steps("tau0", self.tau0, self.ts)
        if not abs(self.probe.tau0 - self.tau0) <= 1e-12 * self.tau0:
            raise ConfigError(
                f"the probe is designed over tau0={self.probe.tau0}, but the "
                f"experiment's detection window is tau0={self.tau0}")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ConfigError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        if self.x0_mode not in ("zero", "random"):
            raise ConfigError(f"x0_mode must be 'zero' or 'random', got '{self.x0_mode}'")
        if self.subsample < 1:
            raise ConfigError(f"subsample must be >= 1, got {self.subsample}")
        # the fit needs more equations than states, or every residual is 0
        rows = (self.window_steps // self.subsample + 1) * self.family[0].p
        if rows <= self.family[0].n:
            raise ConfigError(
                f"subsample={self.subsample} leaves {rows} estimator equations per "
                f"window for {self.family[0].n} states; it must leave more")

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
    records u1_win and u2_win, the read-only (m, N+1, p) forced outputs
    whose row a is f_a, and per scenario a the affine boundary map
    x_{k+1} = M_a x_k + h_a of the module docstring, with M_a = hold_a Ad_a^N
    and h_a = hold_a g_a."""
    family = config.family
    steps = config.window_steps

    def build():
        u1_win = np.zeros((steps + 1, 3))
        u1_win[:steps, config.probe.channel] = config.applied_R
        u2_win = np.zeros((steps + 1, dmodels[0].Bd2.shape[1]))
        forced, M, h = np.empty((len(family), steps + 1, dmodels[0].p)), {}, {}
        for a in range(len(family)):
            trace = simulate(dmodels[a], None, u1_win, u2_win, steps, record_states=True)
            hold = expm(family[a].A * (config.tau - config.tau0))
            forced[a] = trace.outputs
            M[a] = hold @ np.linalg.matrix_power(dmodels[a].Ad, steps)
            h[a] = hold @ trace.final_state
            del trace
        # frozen, so every window of every run shares these arrays
        for arr in (u1_win, u2_win, forced, *M.values(), *h.values()):
            arr.setflags(write=False)
        return u1_win, u2_win, forced, M, h

    key = ("window response", config.ts, config.tau, config.tau0,
           config.probe.channel, config.applied_R)
    return memo(family, key, build)


def run_experiment(config: ExperimentConfig,
                   sequence: SwitchingSequence | None = None) -> ExperimentResult:
    """Simulate the switched truth with probing, detect per window, score."""
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

    u1_win, u2_win, forced, M, h = _window_response(config, dmodels)

    boundaries = np.empty((config.K + 1, n))
    boundaries[0] = x
    for k, a in enumerate(sequence.alphas):
        x = M[a] @ x + h[a]
        if not np.all(np.isfinite(x)):
            raise NumericalError(
                f"simulation diverged in interval {k} (scenario {a}); "
                f"the scenario model is unstable")
        boundaries[k + 1] = x

    # the free part, one blocked pass over all windows of a scenario, written
    # into arrays the windows then own without a copy
    samples = [np.empty_like(forced[0]) for _ in range(config.K)]
    alphas = np.asarray(sequence.alphas)
    for a in range(m):
        ks = np.flatnonzero(alphas == a)
        free_outputs(dmodels[a], boundaries[ks], [samples[k] for k in ks])

    windows: list[MeasurementWindow] = []
    for k, (a, y) in enumerate(zip(sequence.alphas, samples)):
        y += forced[a]
        if config.noise_sigma > 0:
            y += config.noise_sigma * rng_noise.standard_normal(y.shape)
        y.setflags(write=False)
        windows.append(MeasurementWindow(
            t_start=k * config.tau, ts=config.ts, samples=y,
            u1=u1_win, u2=u2_win))

    report = detect_sequence(dmodels, windows, [forced] * config.K,
                             truth=list(sequence.alphas), subsample=config.subsample)
    return ExperimentResult(config=config, sequence=sequence, report=report,
                            windows=tuple(windows), boundary_states=boundaries)


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


_WINDOW_NAME = re.compile(r"window_([0-9]+)\.csv")


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
    grid), 'full' records every sample, 'none' skips window files. The stride
    and periods land in windows/meta.json so a replay can rebuild the exact
    estimation problem. Window files and meta.json an earlier run left in
    windows/ that this run does not write are removed. The window files are
    written in contiguous shares, one per CPU this process may run on
    (`_in_shares`); their bytes do not depend on how many shares there are.
    """
    if windows_mode not in ("strided", "full", "none"):
        raise ConfigError(f"unknown windows mode '{windows_mode}'")
    os.makedirs(out_dir, exist_ok=True)
    cfg = result.config
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
    stride = 1 if windows_mode == "full" else cfg.subsample
    os.makedirs(win_dir, exist_ok=True)
    names = [f"window_{k:04d}.csv" for k in range(len(result.windows))]
    _clear_windows(win_dir, {"meta.json", *names})
    p = result.windows[0].samples.shape[1] if result.windows else 0
    q = result.windows[0].u2.shape[1] if result.windows else 0
    dump_json({
        "ts": cfg.ts * stride,
        "ts_simulated": cfg.ts,
        "stride_applied": stride,
        "tau0": cfg.tau0,
        "n_outputs": p,
        "n_u2": q,
        "window_starts": [w.t_start for w in result.windows],
    }, os.path.join(win_dir, "meta.json"))
    header = ",".join(["t"] + [f"y{i}" for i in range(p)]
                      + [f"u1_{i}" for i in range(3)] + [f"u2_{i}" for i in range(q)])

    def write(share):
        # The u1/u2 columns come from input records that consecutive windows
        # share (run_experiment and read_windows hand them the same frozen
        # arrays), so each record pair is formatted once into per-row tails.
        records, tails = (None, None), None
        for name, w in share:
            idx = np.arange(0, w.steps + 1, stride)
            if records[0] is not w.u1 or records[1] is not w.u2:
                records = w.u1, w.u2
                inputs = np.column_stack([w.u1[idx], w.u2[idx]])
                tails = [",".join(map(repr, row)) + "\r\n" for row in inputs.tolist()]
            columns = [map(repr, (w.t_start + w.ts * idx).tolist()),
                       *(map(repr, col) for col in w.samples[idx].T.tolist())]
            with open(os.path.join(win_dir, name), "w", newline="", encoding="utf-8") as fh:
                fh.write(header + "\r\n" + "".join(map(",".join, zip(*columns, tails))))

    _in_shares(write, list(zip(names, result.windows)))


def _in_shares(write, items: list) -> None:
    """write(share) over contiguous shares of `items`, one share per CPU this
    process may run on and at most one per item. Forked children write every
    share but the first, which this process writes itself; it then reaps
    them all, and writes again any share whose child failed or could not be
    forked, so an error is raised where write(items) would raise it. A child
    only formats and writes, and leaves through os._exit, so it never
    returns into the caller or flushes the caller's buffered output. Where
    this process cannot fork, or another Python thread runs, there is one
    share and no child."""
    n, count = len(items), 1
    if (hasattr(os, "sched_getaffinity") and hasattr(os, "fork")
            and threading.active_count() == 1):
        count = max(1, min(len(os.sched_getaffinity(0)), n))
    shares = [items[n * i // count:n * (i + 1) // count] for i in range(count)]
    children = []
    try:
        for share in shares[1:]:
            children.append((_fork(write, share), share))
        write(shares[0])
    finally:
        failed = [share for pid, share in children
                  if pid is None or os.waitpid(pid, 0)[1] != 0]
    for share in failed:
        write(share)


def _fork(write, share) -> int | None:
    """The pid of a child that runs write(share) and exits 0 only if it
    returned, or None when no child could be forked."""
    try:
        with warnings.catch_warnings():
            # From Python 3.12 os.fork warns whenever the process has another
            # OS thread, and OpenBLAS's pool is one; the child calls no BLAS.
            warnings.filterwarnings("ignore", r".*use of fork\(\) may lead to deadlocks",
                                    DeprecationWarning)
            pid = os.fork()
    except OSError:
        return None
    if pid == 0:
        code = 1
        try:
            write(share)
            code = 0
        finally:
            os._exit(code)
    return pid


def _clear_windows(win_dir, keep: set) -> None:
    """Remove the window files and meta.json under win_dir whose names are
    not in `keep`, so no earlier run's record is left beside this run's."""
    if not os.path.isdir(win_dir):
        return
    for name in os.listdir(win_dir):
        if (name == "meta.json" or _WINDOW_NAME.fullmatch(name)) and name not in keep:
            os.remove(os.path.join(win_dir, name))


def _bad_row(path, cols: int) -> str | None:
    """Name the first data row of a window file that is not `cols` numbers."""
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        next(fh, None)
        for line_no, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            fields = line.split(",")
            if len(fields) != cols:
                return f"row {line_no} has {len(fields)} fields, expected {cols}"
            for field in fields:
                try:
                    float(field)
                except ValueError:
                    return f"row {line_no} has non-numeric field {field.strip()!r}"
    return None


def _record(cols: np.ndarray, prev: np.ndarray | None) -> np.ndarray:
    """`cols` as a frozen record, or `prev` itself when the two are bitwise equal."""
    if prev is not None and np.array_equal(prev.view(np.int64), cols.view(np.int64)):
        return prev
    rec = np.array(cols)
    rec.setflags(write=False)
    return rec


def _some(indices: list[int]) -> str:
    """The first few of `indices` for a message, or 'none'."""
    if not indices:
        return "none"
    return ", ".join(map(str, indices[:5])) + (", ..." if len(indices) > 5 else "")


def read_windows(win_dir, probe: ProbingDesign | None = None) -> list[MeasurementWindow]:
    """Rebuild MeasurementWindows from a windows/ directory written above.

    The returned windows live on the recorded grid; detect them with
    subsample=1 against a family discretized at the recorded ts. Consecutive
    windows with bitwise-equal input columns share one frozen record. Files
    are taken in the order of their integer index, which must run over
    0..len(window_starts)-1 of meta.json exactly once each, meta.json's ts
    must be ts_simulated * stride_applied, and every file must hold
    window_rows(tau0, ts) rows for meta.json's tau0 and start at its entry of
    window_starts exactly (both are repr round-trips of one float, and the
    first t is t_start + ts * 0). With a probe, meta.json's tau0 must be the
    probe design's, within 1e-12 relative.
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
    ts_written = ts_simulated * stride
    if not (np.isfinite(ts) and ts > 0 and abs(ts - ts_written) <= 1e-12 * ts):
        raise ConfigError(f"{meta}: ts={ts} must be positive, finite and equal to "
                          f"ts_simulated * stride_applied = {ts_written}")
    if not (np.isfinite(tau0) and tau0 > 0):
        raise ConfigError(f"{meta}: tau0={tau0} must be positive and finite")
    rows = window_rows(tau0, ts)
    if probe is not None and not abs(probe.tau0 - tau0) <= 1e-12 * probe.tau0:
        raise ConfigError(
            f"probe.json does not fit the windows {meta} describes: meta.json records "
            f"tau0={tau0}, the probe design has tau0={probe.tau0}; window has "
            f"{rows} samples, probe design implies {window_rows(probe.tau0, ts)}")
    cols = 1 + p + 3 + q
    files = sorted((int(m.group(1)), m.string) for m in map(
        _WINDOW_NAME.fullmatch, os.listdir(win_dir)) if m)
    indices = [k for k, _ in files]
    count = len(starts)
    if indices != list(range(count)):
        missing = sorted(set(range(count)).difference(indices))
        surplus = sorted(k for k, c in Counter(indices).items()
                         if c > 1 or not 0 <= k < count)
        raise ConfigError(
            f"{win_dir}: meta.json lists {count} windows, numbered 0..{count - 1}; "
            f"no file for {_some(missing)}, unexpected or repeated {_some(surplus)}")
    windows = []
    u1 = u2 = None
    for k, fname in files:
        path = os.path.join(win_dir, fname)
        try:
            with warnings.catch_warnings():
                # a header-only file is reported below, not as a warning
                warnings.simplefilter("ignore", UserWarning)
                arr = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, comments=None)
        except ValueError as exc:
            raise ConfigError(f"{fname}: {_bad_row(path, cols) or exc}") from exc
        if arr.shape[0] < 2:
            raise ConfigError(f"{fname}: needs at least two data rows, has {arr.shape[0]}")
        if arr.shape[1] != cols:
            raise ConfigError(f"{fname}: column count does not match meta.json")
        if arr.shape[0] != rows:
            raise ConfigError(f"{fname}: has {arr.shape[0]} data rows; meta.json's "
                              f"tau0={tau0} at ts={ts} implies {rows}")
        if arr[0, 0] != starts[k]:
            raise ConfigError(f"{fname}: starts at t={float(arr[0, 0])!r}; meta.json's "
                              f"window_starts[{k}] is {starts[k]!r}")
        u1 = _record(arr[:, 1 + p:4 + p], u1)
        u2 = _record(arr[:, 4 + p:], u2)
        windows.append(MeasurementWindow(
            t_start=arr[0, 0], ts=ts, samples=arr[:, 1:1 + p], u1=u1, u2=u2))
    return windows
