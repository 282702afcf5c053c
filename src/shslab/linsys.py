"""Numerical services on the assembled models: spectra and the exact
zero-order-hold discretization every response is taken from.

Every input shslab applies is held over a window, so discretize_zoh returns
the model with its inputs held as extra states, z = [x; u1; u2]: the
response from x0 to inputs held at u1 and u2 is its free response from z0 =
[x0; u1; u2]. A detection.MeasurementWindows batch carries those inputs as
one vector, held = [u1; u2], the input part of z. detection.grid_stack keeps
that model's observability stack per estimator grid, and
detection.free_outputs forms responses as products with it; nothing steps
through a window sample by sample."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .ssbuild import StateSpaceModel

@dataclass(frozen=True, eq=False)
class DiscreteStateSpace:
    """Exact ZOH discretization of a StateSpaceModel at sample period ts, with
    its inputs held as states: z = [x; u1; u2] steps as z' = Ad z and is
    seen as y = C z, with Ad = [[exp(A ts), B_ts], [0, I]] and C = [C_x, 0].
    n is the model's own state count; the last `inputs` states are held."""

    Ad: np.ndarray
    C: np.ndarray
    n: int
    ts: float

    def __post_init__(self):
        for fname in ("Ad", "C"):
            arr = np.array(getattr(self, fname), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, fname, arr)

    @property
    def p(self) -> int:
        return self.C.shape[0]

    @property
    def inputs(self) -> int:
        return len(self.Ad) - self.n


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
    exp([[A, B], [0, 0]] ts) = [[Ad, Bd], [0, I]], kept whole as the
    held-input model, its bottom rows set to [0, I] exactly (Van Loan, IEEE
    TAC 23(3), 1978). Its free response from z0 = [x0; u1; u2] is the
    model's response from x0 to inputs held at u1 and u2, so the last 3 + q
    columns of its observability stack are the forced responses to unit
    held inputs."""
    if not (np.isfinite(ts) and ts > 0):
        raise NumericalError(f"sample period must be positive and finite, got {ts}")
    n = model.n
    B = np.hstack([model.B1, model.B2])
    aug = np.zeros((n + B.shape[1],) * 2)
    aug[:n, :n] = model.A
    aug[:n, n:] = B
    Ad = expm(aug * ts)
    Ad[n:] = np.eye(len(aug))[n:]
    C = np.hstack([model.C, np.zeros((model.p, B.shape[1]))])
    return DiscreteStateSpace(Ad=Ad, C=C, n=n, ts=ts)
