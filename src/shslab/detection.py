"""Scenario identification per measurement window.

For each candidate scenario the unknown window-start state is estimated by
stacked least squares against the recorded outputs, with the forced
response to the window's probe and aux inputs removed. Detection's product
is the (K, m) table of the attained fit residuals, window by scenario; in
each window the scenario with the smallest residual wins, ties toward the
lowest scenario index.

Every response is a product with one array per model and estimator grid:
the observability stack [O | S] of the model with its inputs held as states
(linsys.hold_inputs), z = [x; u1; u2]. Its first n columns O map a
window-start state to the free response on the grid, its last 3 + q
columns S map held inputs to the forced response. grid_stack builds it
once per model and grid, in floor(sqrt(rows)) blocks of rows, and keeps it
as long as the model lives. Fits solve against O, with its streamed QR
kept beside it, and discount S [u1; u2]; the switched truth forms every
window as [O | S] z_k (free_outputs), and probe design its unit-step
responses as the response from z = e_(n+ch). So a window's inputs must be
held: u1 and u2 constant over rows 0..N-1, row N only padding the record.
Any other record is a ConfigError.

One detect_sequence call covers windows of one length that share one input
record bit for bit. A window may keep only every stride-th sample of its
record, the switched truth's the estimator grid alone; a fit reads every
subsample // stride-th of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, NumericalError, ShslabError
from .linsys import DiscreteStateSpace, hold_inputs
from .util import memo

# rows per QR step in _factor
_QR_ROWS = 128
# the most multiply-adds one product of free_outputs may take: a
# (40 x 18)(18 x 500) gemm, which OpenBLAS runs on the calling thread
_GEMM_MAX = 40 * 18 * 500


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


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two float64 records are one array or hold the same bits, so
    -0.0 differs from 0.0; windows that share one frozen record cost no
    comparison."""
    return a is b or (a.shape == b.shape
                      and np.array_equal(a.view(np.int64), b.view(np.int64)))


@dataclass(frozen=True, eq=False)
class MeasurementWindow:
    """Uniformly sampled output record over one detection window, together
    with the input records the estimator must discount. The samples may keep
    only every stride-th sample of the N+1-row record, rows 0, stride,
    2 stride, ...; the input records are always whole."""

    t_start: float
    ts: float
    samples: np.ndarray       # (N // stride + 1, p)
    u1: np.ndarray            # (N+1, 3); row N only pads the record
    u2: np.ndarray            # (N+1, q)
    stride: int = 1

    def __post_init__(self):
        for fname in ("samples", "u1", "u2"):
            object.__setattr__(self, fname, _frozen(getattr(self, fname)))
        if not (math.isfinite(self.ts) and self.ts > 0):
            raise ConfigError(f"sample period must be finite and > 0, got {self.ts}")
        if type(self.stride) is bool or not isinstance(self.stride, (int, np.integer)) \
                or self.stride < 1:
            raise ConfigError(f"stride must be an integer >= 1, got {self.stride!r}")
        object.__setattr__(self, "stride", int(self.stride))
        if self.samples.ndim != 2 or not self.samples.shape[1]:
            raise ConfigError(f"samples must be an (N+1, p) table with p >= 1, "
                              f"got shape {self.samples.shape}")
        if self.u1.ndim != 2 or self.u1.shape[1] != 3:
            raise ConfigError(f"u1 record must be (N+1, 3), got {self.u1.shape}")
        rows = self.u1.shape[0]
        if rows < 2:
            raise ConfigError("window needs at least two samples")
        kept = (rows - 1) // self.stride + 1
        if self.samples.shape[0] != kept:
            raise ConfigError(f"samples hold {self.samples.shape[0]} rows; a {rows}-row u1 "
                              f"record kept at stride {self.stride} holds {kept}")
        if self.u2.ndim != 2 or self.u2.shape[0] != rows:
            raise ConfigError(f"u2 record must have {rows} rows, got {self.u2.shape}")

    @property
    def steps(self) -> int:
        return self.u1.shape[0] - 1


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


def grid_step(windows, stride: int) -> int:
    """The step through the samples of `windows` that reads every stride-th
    sample of their records: stride // s for windows that all keep every
    s-th sample, s dividing `stride`. Windows kept at mixed strides, or at
    one that does not divide `stride`, are a ConfigError naming the window."""
    kept = windows[0].stride if windows else 1
    for k, window in enumerate(windows):
        if window.stride != kept:
            raise ConfigError(f"window {k} is kept at stride {window.stride}, window 0 "
                              f"at stride {kept}; windows must keep one grid")
        if stride % window.stride:
            raise ConfigError(f"window {k} is kept at stride {window.stride}, which does "
                              f"not divide the stride {stride} read from it")
    return stride // kept


def observability_stack(dmodel: DiscreteStateSpace, steps: int,
                        subsample: int = 1) -> np.ndarray:
    """Stacked map x0 -> [y_k]_{k in grid} for the free response, a read-only
    (rows * p, n) array.

    Row block k is C P^k with P = Ad^subsample. With b = floor(sqrt(rows)),
    block i*b + j is (C P^j) (P^b)^i: b - 1 products give the heads C P^j,
    about rows/b more give the hops (P^b)^i, and one batched product forms
    every block. grid_stack keeps one read-only copy per model and grid, of
    the model with its inputs held as states.
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
    stack = np.matmul(heads, hops[:, None]).reshape(nb * b * p, n)[:rows * p]
    stack.setflags(write=False)
    return stack


def _check_window(dmodel: DiscreteStateSpace, window: MeasurementWindow) -> None:
    if window.samples.shape[1] != dmodel.p:
        raise ConfigError(
            f"window has {window.samples.shape[1]} outputs, model has {dmodel.p}")
    if abs(window.ts - dmodel.ts) > 1e-12 * max(window.ts, dmodel.ts):
        raise ConfigError(f"window sampled at {window.ts}, model discretized at {dmodel.ts}")
    if window.u2.shape[1] != dmodel.Bd2.shape[1]:
        raise ConfigError(f"window has {window.u2.shape[1]} aux inputs, "
                          f"model has {dmodel.Bd2.shape[1]}")


def grid_stack(dmodel: DiscreteStateSpace, steps: int, subsample: int) -> np.ndarray:
    """The read-only stack [O | S], observability_stack of
    hold_inputs(dmodel), on the estimator grid of a window of `steps` steps,
    built once per (model, steps, subsample) and kept while the model lives:
    the one copy that detection's fits, the switched truth and probe design
    read. It does not depend on the inputs' levels."""
    return memo(dmodel, ("stack", steps, subsample),
                lambda: observability_stack(hold_inputs(dmodel), steps, subsample))


def free_outputs(dmodel: DiscreteStateSpace, Z0: np.ndarray, out, steps: int,
                 subsample: int, full: bool = False) -> None:
    """Write the outputs of a window of `steps` steps from every row
    z0 = [x0; u1; u2] of Z0, the model started at x0 under inputs held at
    u1 and u2, into the matching C-contiguous array of `out`: (rows, p)
    arrays of the estimator grid j = 0, subsample, 2 subsample, ..., or with
    `full` (steps + 1, p) arrays of every j = 0..steps. They are the free
    response of hold_inputs(dmodel) from z0.

    The grid rows are Z0 times grid_stack's stack, taken in its
    b = floor(sqrt(rows)) row blocks: one batched product of (W, n_z)(n_z, b p)
    blocks and one more for the rows past the last whole block. A batch
    whose products would exceed _GEMM_MAX multiply-adds is taken in shares
    of fewer windows. Rows r, r + subsample, ... of a full record are the
    same products from Z0 (Ad_z^r)^T, so its every subsample-th row is the
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
    step = hold_inputs(dmodel).Ad.T if full else None
    for r in range(stride):
        if r:
            Z = Z @ step
        for lo in range(0, len(Z), share):
            S = Z[lo:lo + share]
            for y, head, end in zip(out[lo:lo + share], np.matmul(S, blocks).transpose(1, 0, 2),
                                    S @ tail):
                grid = np.empty(rows * p) if full else y.reshape(-1)
                grid[:whole].reshape(head.shape)[...] = head
                grid[whole:] = end
                if full:
                    y[r::stride] = grid.reshape(rows, p)[:(steps - r) // stride + 1]


def held_input(window: MeasurementWindow) -> np.ndarray:
    """[u1; u2] as the window holds them over its rows 0..N-1, the last 3 + q
    entries of its held-input state; row N only pads the records. A record
    that changes within those rows is a ConfigError naming the window as
    window 0, the first of those that share its records."""
    for name in ("u1", "u2"):
        record = getattr(window, name)[:-1]
        if not (record == record[0]).all():
            row = np.flatnonzero(np.any(record != record[0], axis=1))[0]
            raise ConfigError(f"window 0: its {name} record changes at row {row}; "
                              f"inputs must be held over rows 0..{window.steps - 1}")
    return np.concatenate([window.u1[0], window.u2[0]])


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


def _fit(factors, windows, held, subsample: int) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares window-start states (m, n, W) of W windows of one length
    against m factors from _factor of one state dimension, and the attained
    residual norms (m, W), for windows that hold the inputs `held`.

    The windows' estimator rows, read at grid_step, are copied once into
    one (rows, W) matrix, detection's peak memory. One streamed pass forms,
    chunk by chunk, the free part of every scenario, the rows less the
    forced response S held, and applies the m stored rotations of the chunk
    in one batched product, small enough for the calling thread. Each
    triangle goes to numpy's lstsq at the rank cut numpy applies to the full
    stack, eps * max(rows, n) times the largest singular value, so
    rank-deficient stacks get the minimum-norm estimate. Residuals are those
    of the full stacks' responses [O | S] [x0_hat; held] to the rows.
    """
    step = grid_step(windows, subsample)
    samples = np.stack([w.samples[::step] for w in windows], axis=-1).reshape(-1, len(windows))
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


def estimate_initial_state(dmodel: DiscreteStateSpace, window: MeasurementWindow,
                           subsample: int = 10) -> tuple[np.ndarray, float]:
    """Least-squares window-start state and the attained fit residual.

    Rank-deficient observability gives the minimum-norm estimate; an all-zero
    observability map is reported as an error. This is detect_sequence's fit
    for one window and one scenario, but it builds the stack and its QR
    afresh on every call and stores nothing: it is the cold path the stored
    factors are checked against, and a model it is called on pins no factor.
    A window that keeps every stride-th sample needs a stride dividing
    subsample, and its inputs held as held_input requires.
    """
    _check_window(dmodel, window)
    held = held_input(window)
    factor = _factor(observability_stack(hold_inputs(dmodel), window.steps, subsample),
                     dmodel.n)
    x0_hat, residual = _fit([factor], [window], held, subsample)
    return x0_hat[0, :, 0], float(residual[0, 0])


def detect_sequence(models: list[DiscreteStateSpace],
                    windows: list[MeasurementWindow],
                    truth: list[int] | None = None,
                    subsample: int = 10) -> DetectionReport:
    """Fit every scenario to every window of an ordered list: the report's
    (K, m) table holds window k's residuals in row k, its argmin the verdict.

    The windows must be of one length, keep one grid whose stride divides
    subsample, and share one input record, bit for bit, that held_input
    accepts. All windows are fitted in one pass for all scenarios, with each
    scenario's stack and QR from the memo of _factor. A window of another
    length, grid or input record, a record whose inputs are not held, and a
    window length require_equations refuses, are a ConfigError.
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
        for name in ("u1", "u2"):
            if not _same_bits(getattr(window, name), getattr(head, name)):
                raise ConfigError(f"window {k}: its {name} record differs from window 0's; "
                                  f"one call fits windows that share one input record")
    held = held_input(head)
    require_equations(head.steps, head.samples.shape[1], models[0].n, subsample)

    factors = []
    for i, model in enumerate(models):
        try:
            for window in windows:
                _check_window(model, window)
            factors.append(memo(model, ("factor", head.steps, subsample),
                                lambda: _factor(grid_stack(model, head.steps, subsample),
                                                model.n)))
        except ShslabError as exc:
            raise type(exc)(f"scenario {i}: {exc}") from exc
    return DetectionReport(residuals=_fit(factors, windows, held, subsample)[1].T,
                           truth=truth)
