"""Scenario identification per measurement window.

For each candidate scenario the unknown window-start state is estimated by
stacked least squares against the recorded outputs (with the recorded probe
and aux-voltage feedthrough removed), and the scenario with the smallest
fit residual wins. Ties break toward the lowest scenario index. Windows that
share their input records are fitted together, one solve per scenario.

The forced response each fit discounts is the scenario's output from rest
under the window's input record. A caller that already holds it, as the
switched-truth simulation does, hands it to detect_sequence; anything else
is simulated here. The observability stack is built in floor(sqrt(rows))
blocks of rows, a few dozen small products instead of one per row. It and
its streamed QR depend only on the discretized model and the estimator grid,
so detect_sequence builds them once per model and grid and keeps them as
long as the model lives; every later fit on that grid only applies the
stored rotations to its window data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import EstimationError
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
            raise EstimationError(f"sample period must be > 0, got {self.ts}")
        rows = self.samples.shape[0]
        if rows < 2:
            raise EstimationError("window needs at least two samples")
        if self.u1.shape != (rows, 3):
            raise EstimationError(
                f"u1 record must be ({rows}, 3), got {self.u1.shape}")
        if self.u2.ndim != 2 or self.u2.shape[0] != rows:
            raise EstimationError(
                f"u2 record must have {rows} rows, got {self.u2.shape}")

    @property
    def steps(self) -> int:
        return self.samples.shape[0] - 1


@dataclass(frozen=True, eq=False)
class ScenarioVerdict:
    detected: int
    residuals: np.ndarray     # (m,)
    x0_hat: np.ndarray        # (m, n)

    def __post_init__(self):
        res = np.asarray(self.residuals, dtype=float)
        if not np.all(np.isfinite(res)):
            raise EstimationError("verdict residuals must be finite")
        if self.detected != int(np.argmin(res)):
            raise EstimationError("detected scenario must be the residual argmin")


@dataclass(frozen=True, eq=False)
class DetectionReport:
    """Per-window verdicts, optionally scored against a truth sequence."""

    verdicts: tuple[ScenarioVerdict, ...]
    truth: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "verdicts", tuple(self.verdicts))
        if self.truth is not None:
            truth = tuple(int(a) for a in self.truth)
            if len(truth) != len(self.verdicts):
                raise EstimationError("truth length differs from verdict count")
            object.__setattr__(self, "truth", truth)

    @property
    def detected(self) -> list[int]:
        return [v.detected for v in self.verdicts]

    @property
    def matches(self) -> int | None:
        if self.truth is None:
            return None
        return sum(1 for v, t in zip(self.verdicts, self.truth) if v.detected == t)

    @property
    def accuracy(self) -> float | None:
        if self.truth is None or not self.verdicts:
            return None
        return self.matches / len(self.verdicts)

    def to_json(self) -> dict:
        out: dict = {
            "windows": [
                {
                    "k": k,
                    "detected": v.detected,
                    "residuals": [float(r) for r in v.residuals],
                }
                for k, v in enumerate(self.verdicts)
            ],
        }
        if self.truth is not None:
            for k, entry in enumerate(out["windows"]):
                entry["true"] = self.truth[k]
            out["matches"] = self.matches
            out["accuracy"] = self.accuracy
        return out


def sample_indices(steps: int, subsample: int) -> np.ndarray:
    """Estimator grid: every subsample-th sample index, always including 0."""
    if subsample < 1:
        raise EstimationError(f"subsample must be >= 1, got {subsample}")
    return np.arange(0, steps + 1, subsample)


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
    window's recorded inputs (includes the D2 u2 feedthrough)."""
    return simulate(dmodel, None, window.u1, window.u2, window.steps).outputs


def _check_window(dmodel: DiscreteStateSpace, window: MeasurementWindow) -> None:
    if window.samples.shape[1] != dmodel.p:
        raise EstimationError(
            f"window has {window.samples.shape[1]} outputs, model has {dmodel.p}")
    if abs(window.ts - dmodel.ts) > 1e-12 * max(window.ts, dmodel.ts):
        raise EstimationError(
            f"window sampled at {window.ts}, model discretized at {dmodel.ts}")


def _free_outputs(windows: list[MeasurementWindow], forced: np.ndarray,
                  subsample: int) -> np.ndarray:
    """(rows, windows) matrix of the strided samples of windows that share
    their input records, with those records' forced response removed."""
    if subsample < 1:
        raise EstimationError(f"subsample must be >= 1, got {subsample}")
    # filled in place from strided views: these (rows, windows) matrices set
    # detection's peak memory
    forced = forced[::subsample]
    free = np.empty((len(windows),) + forced.shape)
    for k, window in enumerate(windows):
        np.subtract(window.samples[::subsample], forced, out=free[k])
    return free.reshape(len(windows), -1).T


def _factor(dmodel: DiscreteStateSpace, steps: int, subsample: int):
    """The observability stack of `dmodel` on the estimator grid of a window
    of `steps` steps, with its QR streamed over chunks of _QR_ROWS rows: the
    q of every chunk and the final n-by-n triangle, all read-only."""
    stack = observability_stack(dmodel, steps, subsample)
    if not np.any(stack):
        raise EstimationError("all-zero observability map; model is unobservable")
    qs, tri = [], np.empty((0, stack.shape[1]))
    for lo in range(0, stack.shape[0], _QR_ROWS):
        q, tri = np.linalg.qr(np.vstack([tri, stack[lo:lo + _QR_ROWS]]))
        qs.append(q)
    for arr in (stack, tri, *qs):
        arr.setflags(write=False)
    return stack, tuple(qs), tri


def _fit(factor, free: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares window-start states for every column of `free` and the
    attained residual norms, against a factor from _factor.

    The stored rotations of the streamed QR are applied to `free` chunk by
    chunk, in the order they were taken, so every LAPACK and BLAS call stays
    small enough to run on the calling thread. The triangle goes to numpy's
    lstsq at the rank cut numpy applies to the full stack,
    eps * max(rows, n) times the largest singular value, so rank-deficient
    stacks get the minimum-norm estimate. Residuals are taken against the
    full stack.
    """
    stack, qs, tri = factor
    rows, n = stack.shape
    chunks = range(0, rows, _QR_ROWS)
    rhs = np.empty((0, free.shape[1]))
    for lo, q in zip(chunks, qs):
        rhs = q.T @ np.vstack([rhs, free[lo:lo + _QR_ROWS]])
    x0_hat, _, _, _ = np.linalg.lstsq(tri, rhs, rcond=np.finfo(float).eps * max(rows, n))
    squares = np.zeros(free.shape[1])
    for lo in chunks:
        misfit = stack[lo:lo + _QR_ROWS] @ x0_hat
        misfit -= free[lo:lo + _QR_ROWS]
        squares += np.einsum("ij,ij->j", misfit, misfit)
    return x0_hat, np.sqrt(squares)


def estimate_initial_state(dmodel: DiscreteStateSpace, window: MeasurementWindow,
                           subsample: int = 10) -> tuple[np.ndarray, float]:
    """Least-squares window-start state and the attained fit residual.

    Rank-deficient observability gives the minimum-norm estimate; an all-zero
    observability map is reported as an error. This is the one-window case of
    the solve detect_sequence makes per run of windows, but it builds the
    stack and its QR afresh on every call and stores nothing: it is the cold
    path detect_sequence's stored factors are checked against, and a model
    it is called on once pins no factor.
    """
    _check_window(dmodel, window)
    x0_hat, residual = _fit(_factor(dmodel, window.steps, subsample), _free_outputs(
        [window], forced_outputs(dmodel, window), subsample))
    return x0_hat[:, 0], float(residual[0])


def _shared_input_runs(windows: list[MeasurementWindow]) -> list[list[MeasurementWindow]]:
    """Split the window list into runs of consecutive windows with identical
    input records (and hence one length), the common case for a fixed probe."""
    def same(a, b):
        return a is b or np.array_equal(a, b)

    runs = [[windows[0]]]
    for window in windows[1:]:
        head = runs[-1][0]
        if same(window.u1, head.u1) and same(window.u2, head.u2):
            runs[-1].append(window)
        else:
            runs.append([window])
    return runs


def detect_sequence(models: list[DiscreteStateSpace],
                    windows: list[MeasurementWindow],
                    truth: list[int] | None = None,
                    subsample: int = 10,
                    forced: dict[int, np.ndarray] | None = None) -> DetectionReport:
    """Fit every scenario to every window of an ordered list and pick the
    minimum-residual scenario per window.

    Consecutive windows with identical input records share, per scenario, one
    forced response and one least-squares solve over all of their windows;
    every scenario's stack and its QR come from the memo of _factor.

    `forced` maps a scenario index to that model's forced outputs under the
    input records of windows[0], for a caller that already simulated them.
    An entry serves only the runs whose u1 and u2 are those very arrays; any
    other run, and any scenario without an entry, is simulated here.
    """
    if truth is not None and len(truth) != len(windows):
        raise EstimationError("truth sequence length differs from window count")
    if not windows:
        return DetectionReport(verdicts=(), truth=tuple(truth or ()) if truth is not None else None)
    if not models:
        raise EstimationError("scenario list is empty")

    verdicts = []
    for run in _shared_input_runs(windows):
        head = run[0]
        handed = forced if (forced is not None and head.u1 is windows[0].u1
                            and head.u2 is windows[0].u2) else {}
        fits = []
        for i, model in enumerate(models):
            try:
                for window in run:
                    _check_window(model, window)
                factor = memo(model, ("factor", head.steps, subsample),
                              partial(_factor, model, head.steps, subsample))
                f = handed.get(i)
                if f is None:
                    f = forced_outputs(model, head)
                elif f.shape != head.samples.shape:
                    raise EstimationError(
                        f"forced response is {f.shape}, windows are {head.samples.shape}")
                fits.append(_fit(factor, _free_outputs(run, f, subsample)))
            except EstimationError as exc:
                raise EstimationError(f"scenario {i}: {exc}") from exc
        x0_hat = np.stack([x for x, _ in fits])          # (m, n, windows)
        residuals = np.stack([r for _, r in fits])       # (m, windows)
        for col in range(len(run)):
            verdicts.append(ScenarioVerdict(
                detected=int(np.argmin(residuals[:, col])),
                residuals=residuals[:, col], x0_hat=x0_hat[:, :, col]))
    return DetectionReport(verdicts=tuple(verdicts),
                           truth=tuple(truth) if truth is not None else None)
