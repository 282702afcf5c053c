"""Independent numerical oracles used by the tests.

These are deliberately separate implementations from the package: a classic
fixed-step RK4 integrator, an implicit-trapezoid integrator, a per-sample
discrete-time recursion, a central finite-difference Jacobian, and an
incidence-matrix builder. They never call into shslab's discretization,
simulation or stamping code paths.
"""

import numpy as np


def rk4_lti(A, B, u_seq, ts_u, x0, h, steps):
    """Fixed-step RK4 on dx/dt = A x + B u(t) for a piecewise-constant input.

    u_seq[k] is held over [k ts_u, (k+1) ts_u); h must divide ts_u so every
    RK4 step sits inside one hold interval (the input is then constant over
    all stage evaluations, matching zero-order-hold semantics exactly).
    Returns (steps+1, n) states.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    u_seq = np.asarray(u_seq, dtype=float)
    x = np.array(x0, dtype=float)
    out = np.empty((steps + 1, x.size))
    out[0] = x
    for k in range(steps):
        hold = min(int((k * h + h / 2) / ts_u), len(u_seq) - 1)
        bu = B @ u_seq[hold]

        def f(xi):
            return A @ xi + bu

        k1 = f(x)
        k2 = f(x + h / 2 * k1)
        k3 = f(x + h / 2 * k2)
        k4 = f(x + h * k3)
        x = x + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        out[k + 1] = x
    return out


def trapezoid_lti(A, B, u_const, x0, h, steps):
    """Implicit trapezoid (Tustin) on dx/dt = A x + B u with constant u."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    I = np.eye(n)
    lhs = np.linalg.inv(I - (h / 2) * A)
    M = lhs @ (I + (h / 2) * A)
    g = lhs @ (h * (np.asarray(B, dtype=float) @ np.asarray(u_const, dtype=float)))
    x = np.array(x0, dtype=float)
    out = np.empty((steps + 1, n))
    out[0] = x
    for k in range(steps):
        x = M @ x + g
        out[k + 1] = x
    return out


def fd_jacobian(f, x0):
    """Central finite-difference Jacobian of f at x0."""
    x0 = np.asarray(x0, dtype=float)
    f0 = np.asarray(f(x0))
    J = np.zeros((f0.size, x0.size))
    hbase = np.cbrt(np.finfo(float).eps)
    for j in range(x0.size):
        h = hbase * max(abs(x0[j]), 1.0)
        xp = x0.copy()
        xm = x0.copy()
        xp[j] += h
        xm[j] -= h
        J[:, j] = (np.asarray(f(xp)) - np.asarray(f(xm))) / (2.0 * h)
    return J


def branch_incidence(bus_ids, branches):
    """Signed incidence: inc[bus_row, branch] = -1 at the from-end, +1 at the
    to-end. `branches` is a list of (from_bus, to_bus)."""
    row = {b: i for i, b in enumerate(bus_ids)}
    inc = np.zeros((len(bus_ids), len(branches)))
    for j, (u, v) in enumerate(branches):
        if u in row:
            inc[row[u], j] = -1.0
        if v in row:
            inc[row[v], j] = 1.0
    return inc


def loop_simulate(Ad, Bd1, Bd2, C, D2, x0, u1, u2, steps):
    """Per-sample recursion x_{k+1} = Ad x_k + Bd1 u1_k + Bd2 u2_k with
    y_k = C x_k + D2 u2_k, one Python iteration per sample.

    u1 and u2 need at least `steps` rows; a missing row `steps` is zero.
    Returns ((steps+1, n) states, (steps+1, p) outputs).
    """
    Ad, Bd1, Bd2, C, D2 = (np.asarray(a, dtype=float) for a in (Ad, Bd1, Bd2, C, D2))
    n, q = Ad.shape[0], Bd2.shape[1]

    def padded(u, cols):
        u = np.zeros((steps + 1, cols)) if u is None else np.asarray(u, dtype=float)
        if u.shape[0] == steps:
            u = np.vstack([u, np.zeros(cols)])
        return u

    U1 = padded(u1, 3)
    U2 = padded(u2, q)
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    xs = np.empty((steps + 1, n))
    ys = np.empty((steps + 1, C.shape[0]))
    for k in range(steps + 1):
        xs[k] = x
        ys[k] = C @ x + D2 @ U2[k]
        if k < steps:
            x = Ad @ x + Bd1 @ U1[k] + Bd2 @ U2[k]
    return xs, ys
