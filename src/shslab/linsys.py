"""Numerical services on the assembled models: spectra, exact zero-order-hold
discretization, and discrete-time response simulation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .ssbuild import StateSpaceModel

@dataclass(frozen=True, eq=False)
class DiscreteStateSpace:
    """Exact ZOH discretization of a StateSpaceModel at sample period ts."""

    Ad: np.ndarray
    Bd1: np.ndarray
    Bd2: np.ndarray
    C: np.ndarray
    ts: float

    def __post_init__(self):
        for fname in ("Ad", "Bd1", "Bd2", "C"):
            arr = np.array(getattr(self, fname), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, fname, arr)

    @property
    def n(self) -> int:
        return self.Ad.shape[0]

    @property
    def p(self) -> int:
        return self.C.shape[0]


@dataclass(frozen=True, eq=False)
class ResponseTrace:
    """Uniformly sampled outputs, and the states when they were recorded."""

    outputs: np.ndarray            # (steps+1, p)
    states: np.ndarray | None = None

    @property
    def final_state(self) -> np.ndarray:
        if self.states is None:
            raise NumericalError("trace was simulated without state recording")
        return self.states[-1]


def eig_sorted(A: np.ndarray) -> np.ndarray:
    """Eigenvalues sorted by (real part, imaginary part) ascending."""
    try:
        # numpy returns a real array when every eigenvalue is real
        vals = np.linalg.eigvals(np.asarray(A, dtype=float)).astype(complex)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue solver failed: {exc}") from exc
    order = np.lexsort((vals.imag, vals.real))
    return vals[order]


def eigenvalues(model: StateSpaceModel) -> np.ndarray:
    return eig_sorted(model.A)


# Pade [m/m] coefficients b_0..b_m and the bound theta_m on the scaled norm
# up to which degree m is accurate to double precision (Al-Mohy and Higham
# 2009, with theta_13 = 4.25 as scipy.linalg.expm takes it)
_PADE = {
    3: (1.495585217958292e-2, (120.0, 60.0, 12.0, 1.0)),
    5: (2.539398330063230e-1, (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0)),
    7: (9.504178996162932e-1, (17297280.0, 8648640.0, 1995840.0, 277200.0,
                               25200.0, 1512.0, 56.0, 1.0)),
    9: (2.097847961257068e0, (17643225600.0, 8821612800.0, 2075673600.0,
                              302702400.0, 30270240.0, 2162160.0, 110880.0,
                              3960.0, 90.0, 1.0)),
    13: (4.25e0, (64764752532480000.0, 32382376266240000.0,
                  7771770303897600.0, 1187353796428800.0,
                  129060195264000.0, 10559470521600.0, 670442572800.0,
                  33522128640.0, 1323241920.0, 40840800.0, 960960.0,
                  16380.0, 182.0, 1.0)),
}


def _extra_squarings(A: np.ndarray, m: int) -> int:
    """Al-Mohy and Higham's ell(A, m): squarings needed on top of the norm
    bound so that the degree-m backward error stays below the unit
    round-off, from the leading term of its series (exact for small A)."""
    norm = np.linalg.norm(A, 1)
    if norm == 0:
        return 0
    c = math.factorial(m) ** 2 / (math.factorial(2 * m) * math.factorial(2 * m + 1))
    absA = np.abs(A)
    col = np.ones(len(A))
    for _ in range(2 * m + 1):
        col = col @ absA                 # column sums of |A|^k
    alpha = c * col.max() / norm
    u = 2.0 ** -53
    return max(0, math.ceil(math.log2(alpha / u) / (2 * m))) if alpha > 0 else 0


def expm(M: np.ndarray) -> np.ndarray:
    """Matrix exponential by the scaling and squaring algorithm of Al-Mohy and
    Higham (2009, Algorithm 6.1), the one scipy.linalg.expm follows, with the
    matrix-power norms computed exactly.

    scipy.linalg.expm solves its Pade system with getrf/getrs, and OpenBLAS
    runs getrs on its worker threads even for these 18- to 23-state
    matrices: on a 2-vCPU host one call took about 8 ms, against 0.03 ms for
    the single-threaded solve numpy's gesv makes here.
    """
    A = np.asarray(M, dtype=float)
    ident = np.eye(len(A))
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    d4 = np.linalg.norm(A4, 1) ** 0.25
    d6 = np.linalg.norm(A6, 1) ** (1 / 6)
    powers = [ident, A2, A4, A6]
    s = 0
    eta = max(d4, d6)
    m = next((d for d in (3, 5) if eta <= _PADE[d][0] and _extra_squarings(A, d) == 0), 0)
    if not m:
        A8 = A4 @ A4
        d8 = np.linalg.norm(A8, 1) ** 0.125
        eta3 = max(d6, d8)
        m = next((d for d in (7, 9) if eta3 <= _PADE[d][0] and _extra_squarings(A, d) == 0), 0)
        if m == 9:
            powers.append(A8)
    if not m:
        m = 13
        d10 = np.linalg.norm(A8 @ A2, 1) ** 0.1
        eta5 = min(eta3, max(d8, d10))
        s = max(0, math.ceil(math.log2(eta5 / _PADE[13][0]))) if eta5 > 0 else 0
        s += _extra_squarings(A / 2.0 ** s, 13)
        A = A / 2.0 ** s
        powers = [ident, A2 / 4.0 ** s, A4 / 16.0 ** s, A6 / 64.0 ** s]
    b = _PADE[m][1]
    if m < 13:
        powers = powers[:m // 2 + 1]
        U = A @ sum(b[2 * k + 1] * P for k, P in enumerate(powers))
        V = sum(b[2 * k] * P for k, P in enumerate(powers))
    else:
        I, A2, A4, A6 = powers
        U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
                 + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * I)
        V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
             + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * I)
    E = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        E = E @ E
    return E


def discretize_zoh(model: StateSpaceModel, ts: float) -> DiscreteStateSpace:
    """Exact discretization via the augmented matrix exponential
    exp([[A, B], [0, 0]] ts) -> [[Ad, Bd], [0, I]]."""
    if not (np.isfinite(ts) and ts > 0):
        raise NumericalError(f"sample period must be positive and finite, got {ts}")
    n = model.n
    B = np.hstack([model.B1, model.B2])
    m = B.shape[1]
    aug = np.zeros((n + m, n + m))
    aug[:n, :n] = model.A
    aug[:n, n:] = B
    E = expm(aug * ts)
    Ad = E[:n, :n]
    Bd = E[:n, n:]
    return DiscreteStateSpace(Ad=Ad, Bd1=Bd[:, :3], Bd2=Bd[:, 3:],
                              C=model.C, ts=ts)


def simulate(dmodel: DiscreteStateSpace, x0: np.ndarray,
             u1: np.ndarray | None, u2: np.ndarray | None, steps: int,
             record_states: bool = False) -> ResponseTrace:
    """Propagate x_{k+1} = Ad x_k + Bd1 u1_k + Bd2 u2_k for k = 0..steps-1 and
    record y_k = C x_k at k = 0..steps.

    Input arrays need at least `steps` rows; a row `steps` is never used, so
    a missing one is treated as zero, and rows past `steps` are ignored.

    The recursion is evaluated exactly (up to round-off) in blocks of
    b = floor(sqrt(steps+1)) samples rather than one sample at a time. The
    samples sit position-major in one zero-padded array: slab j holds
    [x_k, u1_k, u2_k] for sample k = i*b + j of every block i, so
    x_{k+1} = [Ad Bd1 Bd2] [x_k; u1_k; u2_k] advances all blocks at once with
    one product of a contiguous slab. Pass 1 runs that recursion inside
    every block from a zero carry-in (b-1 slab products). The true last state
    of each block then follows from the previous one through Ad^b (one
    n-vector product per block), and pass 2 adds each block's carry-in,
    propagated by Ad^1..Ad^b, and forms the outputs (2b slab products). That
    is about 3 sqrt(steps) Python iterations.

    Each product has about sqrt(steps) rows. At the window lengths used here
    (10^4 steps) that is small enough for OpenBLAS to run it on the calling
    thread; a few large products per call instead wake its worker threads,
    and on a loaded host waiting for them made call times spread widely.
    """
    n = dmodel.n
    q = dmodel.Bd2.shape[1]
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    if x.shape != (n,):
        raise NumericalError(f"x0 must have length {n}, got {x.shape}")

    def prep(u, cols, name):
        if u is None:
            return np.zeros((steps + 1, cols))
        u = np.asarray(u, dtype=float)
        if u.ndim != 2 or u.shape[1] != cols:
            raise NumericalError(f"{name} must be (steps, {cols}), got {u.shape}")
        if u.shape[0] < steps:
            raise NumericalError(f"{name} has {u.shape[0]} rows, need >= {steps}")
        if u.shape[0] == steps:
            u = np.vstack([u, np.zeros(cols)])
        return u

    U1 = prep(u1, 3, "u1")
    U2 = prep(u2, q, "u2")

    rows = steps + 1
    b = math.isqrt(rows)
    nb = -(-rows // b)
    m = 3 + q

    # Z[j, i] = [x_k, u1_k, u2_k] for sample k = i*b + j, zero-padded
    Z = np.zeros((b, nb, n + m))
    by_block = Z.transpose(1, 0, 2)
    last = rows - (nb - 1) * b
    for cols, U in ((slice(n, n + 3), U1), (slice(n + 3, n + m), U2)):
        by_block[:-1, :, cols] = U[:(nb - 1) * b].reshape(nb - 1, b, U.shape[1])
        by_block[-1, :last, cols] = U[(nb - 1) * b:rows]
    step_map = np.vstack([dmodel.Ad.T, dmodel.Bd1.T, dmodel.Bd2.T])

    # pass 1: the recursion inside every block at once, zero carry-in
    Z[0, 0, :n] = x
    np.matmul(Z[-1, :-1, n:], step_map[n:], out=Z[0, 1:, :n])
    for j in range(1, b):
        np.matmul(Z[j - 1], step_map, out=Z[j, :, :n])

    # chain the blocks' true last states through Ad^b
    AdT = dmodel.Ad.T
    if nb > 1:
        AdT_b = np.linalg.matrix_power(AdT, b)
        carry = np.empty((nb - 1, n))
        carry[0] = Z[-1, 0, :n]
        for i in range(1, nb - 1):
            carry[i] = Z[-1, i, :n] + carry[i - 1] @ AdT_b

    # pass 2: add each block's carry-in, then take the outputs slab by slab
    Y = np.empty((b, nb, dmodel.p))
    for j in range(b):
        if nb > 1:
            carry = carry @ AdT
            Z[j, 1:, :n] += carry
        np.matmul(Z[j, :, :n], dmodel.C.T, out=Y[j])
    ys = Y.transpose(1, 0, 2).reshape(-1, dmodel.p)[:rows]
    X = by_block[:, :, :n].reshape(-1, n)[:rows] if record_states else None
    return ResponseTrace(outputs=ys, states=X)


def step_response(dmodel: DiscreteStateSpace, channel: int, steps: int) -> ResponseTrace:
    """Zero-initial response to a unit step on one u1 channel, active over
    [0, steps*ts)."""
    u1 = np.zeros((steps + 1, 3))
    u1[:steps, channel] = 1.0
    return simulate(dmodel, None, u1, None, steps)
