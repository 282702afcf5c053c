"""Scenario identification per measurement window.

For each candidate scenario the unknown window-start state is estimated by
stacked least squares against the recorded outputs, with the forced
response to the window's probe and aux inputs removed. Detection's product
is the (K, m) table of the attained fit residuals, window by scenario; in
each window the scenario with the smallest residual wins, ties toward the
lowest scenario index.

Every response is a product with one array per model and estimator grid:
the observability stack [O | S] of the discretized model, whose inputs are
held as states, z = [x; u1; u2] (linsys.discretize_zoh). Its first n
columns O map a window-start state to the free response on the grid, its
last 3 + q columns S map held inputs to the forced response. grid_stack builds it
once per model and grid, in floor(sqrt(rows)) blocks of rows, and keeps it
as long as the model lives. Fits solve against O, with its streamed QR
kept beside it, and discount S held; the switched truth forms every window
as [O | S] z_k (free_outputs), and probe design its unit-step responses as
the response from z = e_(n+ch).

A run's windows are one MeasurementWindows batch: one (K, rows, p) sample
array of windows of one length and one grid, under one input vector
held = [u1; u2] over rows 0..N-1; a batch has no way to express any other
input. A detect_sequence call fits one batch. A window keeps every
stride-th sample of its record, the estimator grid its fit reads whole: the
switched truth's windows keep every subsample-th, a replayed trace's every
recorded sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, NumericalError, ShslabError
from .linsys import DiscreteStateSpace
from .util import memo

# rows per QR step in _factor
_QR_ROWS = 128
# the most multiply-adds one product of free_outputs may take: a
# (40 x 18)(18 x 500) gemm, which OpenBLAS runs on the calling thread
_GEMM_MAX = 40 * 18 * 500


def _frozen(a) -> np.ndarray:
    """A read-only float64 array with the contents of `a`. A read-only
    float64 array that owns its memory, or is a read-only view of a plain
    read-only array that does, is kept, so batches that hold one input
    vector share its buffer and windows[k] shares the batch's samples;
    anything else, a view of a writable array or of a mapped file, is
    copied."""
    if isinstance(a, np.ndarray) and a.dtype == np.float64 and not a.flags.writeable:
        base = a if a.flags.owndata else a.base
        if type(base) is np.ndarray and base.flags.owndata and not base.flags.writeable:
            return a
    arr = np.array(a, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class MeasurementWindows:
    """The K detection windows of one probe record, uniformly sampled over
    `steps` steps each from t_start[k], under one input vector held =
    [u1; u2] over rows 0..N-1 of every window, which the estimator must
    discount. Each window keeps every stride-th sample of its N+1-row
    record, rows 0, stride, 2 stride, ...: the estimator grid, every row of
    which a fit reads. len() is K; windows[k] is window k, a one-window batch."""

    t_start: np.ndarray       # (K,)
    ts: float
    samples: np.ndarray       # (K, N // stride + 1, p)
    steps: int                # N
    held: np.ndarray          # (3 + q,)
    stride: int = 1

    def __post_init__(self):
        for fname in ("t_start", "samples", "held"):
            object.__setattr__(self, fname, _frozen(getattr(self, fname)))
        if not (math.isfinite(self.ts) and self.ts > 0):
            raise ConfigError(f"sample period must be finite and > 0, got {self.ts}")
        for fname in ("steps", "stride"):
            value = getattr(self, fname)
            if type(value) is bool or not isinstance(value, (int, np.integer)) or value < 1:
                raise ConfigError(f"{fname} must be an integer >= 1, got {value!r}")
            object.__setattr__(self, fname, int(value))
        if self.samples.ndim != 3 or not self.samples.shape[2]:
            raise ConfigError(f"samples must be a (K, N+1, p) array with p >= 1, "
                              f"got shape {self.samples.shape}")
        kept = self.steps // self.stride + 1
        if self.samples.shape[1] != kept:
            raise ConfigError(f"samples hold {self.samples.shape[1]} rows; a {self.steps}-step "
                              f"window kept at stride {self.stride} holds {kept}")
        if self.t_start.shape != self.samples.shape[:1]:
            raise ConfigError(f"{len(self.samples)} windows need a ({len(self.samples)},) "
                              f"vector of start times, got shape {self.t_start.shape}")
        if self.held.ndim != 1 or self.held.size < 3:
            raise ConfigError(f"held inputs must be a (3 + q,) vector [u1; u2], "
                              f"got shape {self.held.shape}")
        if not np.all(np.isfinite(self.held)):
            raise ConfigError(f"held inputs must be finite, got {self.held.tolist()}")

    def __len__(self) -> int:
        return len(self.samples)

    def __getitem__(self, k: int) -> MeasurementWindows:
        k = range(len(self))[k]   # IndexError out of range, so iteration stops
        return replace(self, t_start=self.t_start[k:k + 1], samples=self.samples[k:k + 1])


class Verdict(NamedTuple):
    """One window's row of a DetectionReport."""

    detected: int
    residuals: np.ndarray     # (m,)


@dataclass(frozen=True, eq=False)
class DetectionReport:
    """The fit residual of every scenario in every window, one read-only
    (K, m) table, optionally scored against a truth sequence. Window k's
    verdict is the argmin of row k, the lowest scenario index on ties."""

    residuals: np.ndarray     # (K, m)
    truth: tuple[int, ...] | None = None

    def __post_init__(self):
        res = _frozen(self.residuals)
        if res.ndim != 2 or (len(res) and not res.shape[1]):
            raise ConfigError(f"residuals must be a (K, m) table with m >= 1, "
                              f"got shape {res.shape}")
        if not np.all(np.isfinite(res)):
            raise NumericalError("fit residuals must be finite")
        object.__setattr__(self, "residuals", res)
        if self.truth is not None:
            truth = tuple(int(a) for a in self.truth)
            if len(truth) != len(res):
                raise ConfigError("truth length differs from window count")
            for k, a in enumerate(truth):
                if not 0 <= a < res.shape[1]:
                    raise ConfigError(f"truth entry {k} = {a} outside scenario set "
                                      f"0..{res.shape[1] - 1}")
            object.__setattr__(self, "truth", truth)

    @property
    def detected(self) -> list[int]:
        return np.argmin(self.residuals, axis=1).tolist() if len(self.residuals) else []

    @property
    def verdicts(self) -> tuple[Verdict, ...]:
        """(detected, residuals) per window, row k a view of the table's row
        k; kept for perfbench, which reads the report through it."""
        return tuple(map(Verdict, self.detected, self.residuals))

    @property
    def matches(self) -> int | None:
        if self.truth is None:
            return None
        return sum(d == t for d, t in zip(self.detected, self.truth))

    @property
    def accuracy(self) -> float | None:
        return self.matches / len(self.truth) if self.truth else None

    def to_json(self) -> dict:
        out: dict = {"windows": [{"k": k, "detected": d, "residuals": row.tolist()}
                                 for k, (d, row) in enumerate(self.verdicts)]}
        if self.truth is not None:
            for entry, t in zip(out["windows"], self.truth):
                entry["true"] = t
            out["matches"] = self.matches
            out["accuracy"] = self.accuracy
        return out


def sample_indices(steps: int, subsample: int) -> np.ndarray:
    """Estimator grid: every subsample-th sample index, always including 0."""
    if steps < 0:
        raise ConfigError(f"a window needs steps >= 0, got {steps}")
    if subsample < 1:
        raise ConfigError(f"subsample must be >= 1, got {subsample}")
    return np.arange(0, steps + 1, subsample)


def require_equations(steps: int, p: int, n: int, subsample: int,
                      location: str | None = None) -> None:
    """Refuse a window of `steps` steps and p outputs whose estimator grid
    holds no more equations than the models have states (n): every scenario
    would fit it exactly, and round-off would pick the verdict."""
    equations = sample_indices(steps, subsample).size * p
    if equations <= n:
        raise ConfigError(f"{equations} estimator equations at subsample={subsample} "
                          f"for {n} states; a window must hold more", location)


def observability_stack(dmodel: DiscreteStateSpace, steps: int,
                        subsample: int = 1) -> np.ndarray:
    """Stacked map z0 -> [y_k]_{k in grid} for the free response, a read-only
    (rows * p, n_z) array.

    Row block k is C P^k with P = Ad^subsample. With b = floor(sqrt(rows)),
    block i*b + j is (C P^j) (P^b)^i: b - 1 products give the heads C P^j,
    about rows/b more give the hops (P^b)^i, and one batched product forms
    every block. grid_stack keeps one read-only copy per model and grid.
    """
    rows = sample_indices(steps, subsample).size
    n, p = len(dmodel.Ad), dmodel.p
    b = math.isqrt(rows)
    nb = -(-rows // b)
    P = np.linalg.matrix_power(dmodel.Ad, subsample)
    heads = np.empty((b, p, n))
    heads[0] = dmodel.C
    for j in range(1, b):
        np.matmul(heads[j - 1], P, out=heads[j])
    P_b = np.linalg.matrix_power(P, b)
    hops = np.empty((nb, n, n))
    hops[0] = np.eye(n)
    for i in range(1, nb):
        np.matmul(hops[i - 1], P_b, out=hops[i])
    stack = np.matmul(heads, hops[:, None]).reshape(nb * b * p, n)[:rows * p]
    stack.setflags(write=False)
    return stack


def _check_window(dmodel: DiscreteStateSpace, windows: MeasurementWindows) -> None:
    if windows.samples.shape[2] != dmodel.p:
        raise ConfigError(f"window has {windows.samples.shape[2]} outputs, model has {dmodel.p}")
    if abs(windows.ts - dmodel.ts) > 1e-12 * max(windows.ts, dmodel.ts):
        raise ConfigError(f"window sampled at {windows.ts}, model discretized at {dmodel.ts}")
    if windows.held.size != dmodel.inputs:
        raise ConfigError(f"window has {windows.held.size - 3} aux inputs, "
                          f"model has {dmodel.inputs - 3}")


def grid_stack(dmodel: DiscreteStateSpace, steps: int, subsample: int) -> np.ndarray:
    """The read-only stack [O | S], observability_stack of dmodel, on the
    estimator grid of a window of `steps` steps, built once per (model,
    steps, subsample) and kept while the model lives: the one copy that
    detection's fits, the switched truth and probe design read. It does not
    depend on the inputs' levels."""
    return memo(dmodel, ("stack", steps, subsample),
                lambda: observability_stack(dmodel, steps, subsample))


def free_outputs(dmodel: DiscreteStateSpace, Z0: np.ndarray, out, steps: int,
                 subsample: int, full: bool = False) -> None:
    """Write the outputs of a window of `steps` steps from every row
    z0 = [x0; u1; u2] of Z0, the model started at x0 under inputs held at
    u1 and u2, into the matching C-contiguous array of `out`: (rows, p)
    arrays of the estimator grid j = 0, subsample, 2 subsample, ..., or with
    `full` (steps + 1, p) arrays of every j = 0..steps. They are the free
    response of dmodel from z0.

    The grid rows are Z0 times grid_stack's stack, taken in its
    b = floor(sqrt(rows)) row blocks: one batched product of (W, n_z)(n_z, b p)
    blocks and one more for the rows past the last whole block. A batch
    whose products would exceed _GEMM_MAX multiply-adds is taken in shares
    of fewer windows. Rows r, r + subsample, ... of a full record are the
    same products from Z0 (Ad^r)^T, so its every subsample-th row is the
    grid record bit for bit.
    """
    stack = grid_stack(dmodel, steps, subsample)
    Z = np.array(Z0, dtype=float, ndmin=2)
    p, nz = dmodel.p, stack.shape[1]
    if Z.shape != (len(out), nz):
        raise NumericalError(f"Z0 must be ({len(out)}, {nz}), got {Z.shape}")
    rows = len(stack) // p
    kept = steps + 1 if full else rows
    if any(y.shape != (kept, p) or not y.flags.c_contiguous for y in out):
        raise NumericalError(f"every output array must be C-contiguous ({kept}, {p})")
    b = math.isqrt(rows)
    whole = rows // b * b * p
    blocks = stack[:whole].reshape(-1, b * p, nz).transpose(0, 2, 1)
    tail = stack[whole:].T
    share = max(1, _GEMM_MAX // (nz * b * p))
    stride = subsample if full else 1
    for r in range(stride):
        if r:
            Z = Z @ dmodel.Ad.T
        for lo in range(0, len(Z), share):
            S = Z[lo:lo + share]
            for y, head, end in zip(out[lo:lo + share], np.matmul(S, blocks).transpose(1, 0, 2),
                                    S @ tail):
                grid = np.empty(rows * p) if full else y.reshape(-1)
                grid[:whole].reshape(head.shape)[...] = head
                grid[whole:] = end
                if full:
                    y[r::stride] = grid.reshape(rows, p)[:(steps - r) // stride + 1]


def _factor(stack: np.ndarray, n: int):
    """A held-input stack [O | S] with the QR of O, its first n columns,
    streamed over chunks of _QR_ROWS rows: the stack, the q of every chunk
    and the final n-by-n triangle, all read-only."""
    if not np.any(stack[:, :n]):
        raise NumericalError("all-zero observability map; model is unobservable")
    qs, tri = [], np.empty((0, n))
    for lo in range(0, stack.shape[0], _QR_ROWS):
        q, tri = np.linalg.qr(np.vstack([tri, stack[lo:lo + _QR_ROWS, :n]]))
        qs.append(q)
    for arr in (stack, tri, *qs):
        arr.setflags(write=False)
    return stack, tuple(qs), tri


def _fit(factors, windows: MeasurementWindows) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares window-start states (m, n, K) of a batch of K windows
    against m factors of one state dimension from _factor on its grid, and
    the attained residual norms (m, K).

    Every row the windows hold is copied once into one (rows, K) matrix,
    detection's peak memory. One streamed pass forms, chunk by chunk, the
    free part of every scenario, the rows less the forced response S held,
    and applies the m stored rotations of the chunk in one batched product,
    small enough for the calling thread. Each
    triangle goes to numpy's lstsq at the rank cut numpy applies to the full
    stack, eps * max(rows, n) times the largest singular value, so
    rank-deficient stacks get the minimum-norm estimate. Residuals are those
    of the full stacks' responses [O | S] [x0_hat; held] to the rows.
    """
    held = windows.held
    samples = windows.samples.transpose(1, 2, 0).reshape(-1, len(windows))
    stacks, qs, tris = zip(*factors)
    rows, n = stacks[0].shape[0], tris[0].shape[1]
    forced = np.stack([stack[:, n:] @ held for stack in stacks])
    chunks = range(0, rows, _QR_ROWS)
    rhs = np.empty((len(factors), 0, samples.shape[1]))
    for c, lo in enumerate(chunks):
        q = np.stack([chunk_qs[c] for chunk_qs in qs]).transpose(0, 2, 1)
        free = samples[lo:lo + _QR_ROWS] - forced[:, lo:lo + _QR_ROWS, None]
        rhs = np.matmul(q, np.concatenate([rhs, free], axis=1))
    rcond = np.finfo(float).eps * max(rows, n)
    x0_hat = np.stack([np.linalg.lstsq(tri, r, rcond=rcond)[0] for tri, r in zip(tris, rhs)])
    z_hat = np.concatenate([x0_hat, np.broadcast_to(held[:, None], (
        len(factors), len(held), samples.shape[1]))], axis=1)
    squares = np.zeros((len(factors), samples.shape[1]))
    for lo in chunks:
        misfit = np.stack([stack[lo:lo + _QR_ROWS] for stack in stacks]) @ z_hat
        misfit -= samples[lo:lo + _QR_ROWS]
        squares += np.einsum("aij,aij->aj", misfit, misfit)
    return x0_hat, np.sqrt(squares)


def estimate_initial_state(dmodel: DiscreteStateSpace, window: MeasurementWindows,
                           subsample: int | None = None) -> tuple[np.ndarray, float]:
    """Least-squares window-start state and the attained fit residual of a
    one-window batch, such as windows[k].

    Rank-deficient observability gives the minimum-norm estimate; an all-zero
    observability map is reported as an error. This is detect_sequence's fit
    for one window and one scenario, but it builds the stack and its QR
    afresh on every call and stores nothing: it is the cold path the stored
    factors are checked against, and a model it is called on pins no factor.
    `subsample` may only name the window's own stride; it is kept because
    perfbench passes it.
    """
    if len(window) != 1:
        raise ConfigError(f"estimate_initial_state fits one window; got a batch of "
                          f"{len(window)}")
    if subsample is not None and subsample != window.stride:
        raise ConfigError(f"subsample={subsample}: a window kept at stride {window.stride} "
                          f"is fitted on that grid")
    _check_window(dmodel, window)
    factor = _factor(observability_stack(dmodel, window.steps, window.stride), dmodel.n)
    x0_hat, residual = _fit([factor], window)
    return x0_hat[0, :, 0], float(residual[0, 0])


def detect_sequence(models: list[DiscreteStateSpace], windows: MeasurementWindows,
                    truth: list[int] | None = None) -> DetectionReport:
    """Fit every scenario to every window of a batch: the report's (K, m)
    table holds window k's residuals in row k, its argmin the verdict.

    All windows are fitted in one pass for all scenarios, on the grid the
    batch keeps, with each scenario's stack and QR from the memo of _factor.
    A window length require_equations refuses is a ConfigError.
    """
    if not windows:
        return DetectionReport(residuals=np.empty((0, len(models))), truth=truth)
    if not models:
        raise ConfigError("scenario list is empty")
    steps, stride = windows.steps, windows.stride
    require_equations(steps, windows.samples.shape[2], models[0].n, stride)

    factors = []
    for i, model in enumerate(models):
        try:
            _check_window(model, windows)
            factors.append(memo(model, ("factor", steps, stride),
                                lambda: _factor(grid_stack(model, steps, stride), model.n)))
        except ShslabError as exc:
            raise type(exc)(f"scenario {i}: {exc}") from exc
    return DetectionReport(residuals=_fit(factors, windows)[1].T, truth=truth)
