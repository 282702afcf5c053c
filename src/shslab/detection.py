"""Scenario identification per measurement window.

For each candidate scenario the unknown window-start state is estimated by
stacked least squares against the recorded outputs (with the forced
response to the recorded probe and aux voltages removed). Detection's
product is the (K, m) table of the attained fit residuals, window by
scenario; in each window the scenario with the smallest residual wins, ties
toward the lowest scenario index.

The forced response each fit discounts is the scenario's output from rest
under the windows' input record. One detect_sequence call covers windows
of one length that share one input record, and never simulates: the caller
hands in one (m, N+1, p) array for them all, the switched truth the
responses it already holds, anything else those of forced_responses. The
observability stack is built in floor(sqrt(rows)) blocks of rows. It and its
streamed QR depend only on the discretized model and the estimator grid, so
detect_sequence builds them once per model and grid and keeps them as long
as the model lives; every later fit on that grid only applies the stored
rotations to its window data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, NumericalError, ShslabError
from .linsys import DiscreteStateSpace, simulate
from .util import memo

# rows per QR step in _factor
_QR_ROWS = 128


def _frozen(a) -> np.ndarray:
    """A read-only float64 array with the contents of `a`. An array that is
    already read-only float64 and owns its memory is kept, so windows that
    share one input record share its buffer; anything else is copied."""
    if (isinstance(a, np.ndarray) and a.dtype == np.float64
            and not a.flags.writeable and a.flags.owndata):
        return a
    arr = np.array(a, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class MeasurementWindow:
    """Uniformly sampled output record over one detection window, together
    with the input records the estimator must discount."""

    t_start: float
    ts: float
    samples: np.ndarray       # (N+1, p)
    u1: np.ndarray            # (N+1, 3); row N only pads the record
    u2: np.ndarray            # (N+1, q)

    def __post_init__(self):
        for fname in ("samples", "u1", "u2"):
            object.__setattr__(self, fname, _frozen(getattr(self, fname)))
        if not self.ts > 0:
            raise ConfigError(f"sample period must be > 0, got {self.ts}")
        if self.samples.ndim != 2 or not self.samples.shape[1]:
            raise ConfigError(f"samples must be an (N+1, p) table with p >= 1, "
                              f"got shape {self.samples.shape}")
        rows = self.samples.shape[0]
        if rows < 2:
            raise ConfigError("window needs at least two samples")
        if self.u1.shape != (rows, 3):
            raise ConfigError(f"u1 record must be ({rows}, 3), got {self.u1.shape}")
        if self.u2.ndim != 2 or self.u2.shape[0] != rows:
            raise ConfigError(f"u2 record must have {rows} rows, got {self.u2.shape}")

    @property
    def steps(self) -> int:
        return self.samples.shape[0] - 1


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
    """Stacked map x0 -> [y_k]_{k in grid} for the free response.

    Row block k is C P^k with P = Ad^subsample. With b = floor(sqrt(rows)),
    block i*b + j is (C P^j) (P^b)^i: b - 1 products give the heads C P^j,
    about rows/b more give the hops (P^b)^i, and one batched product forms
    every block, the same blocking linsys.simulate and free_outputs use.
    """
    rows = sample_indices(steps, subsample).size
    n, p = dmodel.n, dmodel.p
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
    return np.matmul(heads, hops[:, None]).reshape(nb * b * p, n)[:rows * p]


def forced_outputs(dmodel: DiscreteStateSpace, window: MeasurementWindow) -> np.ndarray:
    """Outputs the scenario would produce from zero initial state under the
    window's recorded inputs; u2 reaches them only through the state."""
    return simulate(dmodel, None, window.u1, window.u2, window.steps).outputs


def _check_window(dmodel: DiscreteStateSpace, window: MeasurementWindow) -> None:
    if window.samples.shape[1] != dmodel.p:
        raise ConfigError(
            f"window has {window.samples.shape[1]} outputs, model has {dmodel.p}")
    if abs(window.ts - dmodel.ts) > 1e-12 * max(window.ts, dmodel.ts):
        raise ConfigError(f"window sampled at {window.ts}, model discretized at {dmodel.ts}")


def _factor(dmodel: DiscreteStateSpace, steps: int, subsample: int):
    """The observability stack of `dmodel` on the estimator grid of a window
    of `steps` steps, with its QR streamed over chunks of _QR_ROWS rows: the
    q of every chunk and the final n-by-n triangle, all read-only."""
    stack = observability_stack(dmodel, steps, subsample)
    if not np.any(stack):
        raise NumericalError("all-zero observability map; model is unobservable")
    qs, tri = [], np.empty((0, stack.shape[1]))
    for lo in range(0, stack.shape[0], _QR_ROWS):
        q, tri = np.linalg.qr(np.vstack([tri, stack[lo:lo + _QR_ROWS]]))
        qs.append(q)
    for arr in (stack, tri, *qs):
        arr.setflags(write=False)
    return stack, tuple(qs), tri


def _fit(factors, windows, forced, subsample: int) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares window-start states (m, n, W) of W windows of one length
    against m factors from _factor of one state dimension, and the attained
    residual norms (m, W), discounting the m scenarios' forced responses.

    The windows' estimator rows are copied once into one (rows, W) matrix,
    detection's peak memory. One streamed pass forms, chunk by chunk, the
    free part of every scenario and applies the m stored rotations of the
    chunk in one batched product, small enough for the calling thread. Each
    triangle goes to numpy's lstsq at the rank cut numpy applies to the full
    stack, eps * max(rows, n) times the largest singular value, so
    rank-deficient stacks get the minimum-norm estimate. Residuals are taken
    against the full stacks.
    """
    samples = np.stack([w.samples[::subsample] for w in windows], axis=-1).reshape(-1, len(windows))
    forced = forced[:, ::subsample].reshape(len(factors), -1)
    stacks, qs, tris = zip(*factors)
    rows, n = stacks[0].shape
    chunks = range(0, rows, _QR_ROWS)

    def free(lo):
        return samples[lo:lo + _QR_ROWS] - forced[:, lo:lo + _QR_ROWS, None]

    rhs = np.empty((len(factors), 0, samples.shape[1]))
    for c, lo in enumerate(chunks):
        q = np.stack([chunk_qs[c] for chunk_qs in qs]).transpose(0, 2, 1)
        rhs = np.matmul(q, np.concatenate([rhs, free(lo)], axis=1))
    rcond = np.finfo(float).eps * max(rows, n)
    x0_hat = np.stack([np.linalg.lstsq(tri, r, rcond=rcond)[0] for tri, r in zip(tris, rhs)])
    squares = np.zeros((len(factors), samples.shape[1]))
    for lo in chunks:
        misfit = np.stack([stack[lo:lo + _QR_ROWS] for stack in stacks]) @ x0_hat
        misfit -= free(lo)
        squares += np.einsum("aij,aij->aj", misfit, misfit)
    return x0_hat, np.sqrt(squares)


def estimate_initial_state(dmodel: DiscreteStateSpace, window: MeasurementWindow,
                           subsample: int = 10) -> tuple[np.ndarray, float]:
    """Least-squares window-start state and the attained fit residual.

    Rank-deficient observability gives the minimum-norm estimate; an all-zero
    observability map is reported as an error. This is detect_sequence's fit
    for one window and one scenario, but it builds the stack and its QR
    afresh on every call and stores nothing: it is the cold path the stored
    factors are checked against, and a model it is called on pins no factor.
    """
    _check_window(dmodel, window)
    x0_hat, residual = _fit([_factor(dmodel, window.steps, subsample)], [window],
                            forced_responses([dmodel], window), subsample)
    return x0_hat[0, :, 0], float(residual[0, 0])


def forced_responses(models: list[DiscreteStateSpace],
                     window: MeasurementWindow) -> np.ndarray:
    """The read-only (m, N+1, p) forced outputs of the m models under the
    input records of `window`, as detect_sequence takes them for every
    window that shares those records."""
    forced = np.array([forced_outputs(model, window) for model in models])
    forced.setflags(write=False)
    return forced


def detect_sequence(models: list[DiscreteStateSpace],
                    windows: list[MeasurementWindow],
                    forced: np.ndarray,
                    truth: list[int] | None = None,
                    subsample: int = 10) -> DetectionReport:
    """Fit every scenario to every window of an ordered list: the report's
    (K, m) table holds window k's residuals in row k, its argmin the verdict.

    The windows must be of one length and share one input record, and
    forced is the read-only (m, N+1, p) forced outputs of the m models under
    that record. All windows are fitted in one pass for all scenarios, with
    each scenario's stack and QR from the memo of _factor. A window length
    require_equations refuses is a ConfigError.
    """
    if truth is not None and len(truth) != len(windows):
        raise ConfigError("truth sequence length differs from window count")
    if not windows:
        return DetectionReport(residuals=np.empty((0, len(models))), truth=truth)
    if not models:
        raise ConfigError("scenario list is empty")
    head = windows[0]
    for k, window in enumerate(windows):
        if window.steps != head.steps:
            raise ConfigError(f"window {k} has {window.steps} steps, window 0 has "
                              f"{head.steps}; one call fits windows of one length")
    if np.shape(forced) != (len(models), *head.samples.shape):
        raise ConfigError(f"forced responses are {np.shape(forced)}, "
                          f"expected {(len(models), *head.samples.shape)}")
    require_equations(head.steps, head.samples.shape[1], models[0].n, subsample)

    factors = []
    for i, model in enumerate(models):
        try:
            for window in windows:
                _check_window(model, window)
            factors.append(memo(model, ("factor", head.steps, subsample),
                                partial(_factor, model, head.steps, subsample)))
        except ShslabError as exc:
            raise type(exc)(f"scenario {i}: {exc}") from exc
    return DetectionReport(residuals=_fit(factors, windows, forced, subsample)[1].T,
                           truth=truth)
