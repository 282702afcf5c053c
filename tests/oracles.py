"""Independent numerical oracles used by the tests.

These are deliberately separate implementations from the package: a classic
fixed-step RK4 integrator, an implicit-trapezoid integrator, a per-sample
discrete-time recursion and the blocked one the package once ran
(`simulate`), a central finite-difference Jacobian, an incidence-matrix
builder, the segment element equations written out directly, the
column-by-column window table that windows.npy must hold, the per-row
observability stack, the per-window switched-truth loop and the
per-scenario window fits. Apart from the last two they never call into
shslab's discretization, response or stamping code paths; the element
equations share only the state layout. The truth loop runs `simulate` once
per window, which its own tests hold to `loop_simulate`, so it shares
nothing with the truth, which `detection.free_outputs` forms from
detection's stored held-input grid stack. The per-scenario fits take their
factors from shslab's `observability_stack` of `hold_inputs` and `_factor`,
and their forced responses from that stack's input columns, as the package
does, and differ from it only in how the window data meet them: one
(rows, windows) sample matrix and one pass of rotations per scenario, the
arithmetic detection is held to bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np

from shslab.detection import _QR_ROWS, _check_window, _factor, observability_stack
from shslab.errors import ConfigError, NumericalError
from shslab.linsys import hold_inputs
from shslab.ssbuild import _Index  # state layout only, no coefficients


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


def loop_simulate(Ad, Bd1, Bd2, C, x0, u1, u2, steps):
    """Per-sample recursion x_{k+1} = Ad x_k + Bd1 u1_k + Bd2 u2_k with
    y_k = C x_k, one Python iteration per sample.

    u1 and u2 need at least `steps` rows; a missing row `steps` is zero.
    Returns ((steps+1, n) states, (steps+1, p) outputs). x0 may also be a
    batch of K initial states (K, n), which gives (steps+1, K, n) states and
    (steps+1, K, p) outputs under the same inputs.
    """
    Ad, Bd1, Bd2, C = (np.asarray(a, dtype=float) for a in (Ad, Bd1, Bd2, C))
    n, q = Ad.shape[0], Bd2.shape[1]

    def padded(u, cols):
        u = np.zeros((steps + 1, cols)) if u is None else np.asarray(u, dtype=float)
        if u.shape[0] == steps:
            u = np.vstack([u, np.zeros(cols)])
        return u

    U1 = padded(u1, 3)
    U2 = padded(u2, q)
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    xs = np.empty((steps + 1,) + x.shape)
    ys = np.empty((steps + 1,) + x.shape[:-1] + (C.shape[0],))
    for k in range(steps + 1):
        xs[k] = x
        ys[k] = (C @ x.T).T
        if k < steps:
            x = (Ad @ x.T).T + Bd1 @ U1[k] + Bd2 @ U2[k]
    return xs, ys


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


def simulate(dmodel, x0, u1, u2, steps, record_states=False) -> ResponseTrace:
    """Propagate x_{k+1} = Ad x_k + Bd1 u1_k + Bd2 u2_k for k = 0..steps-1 and
    record y_k = C x_k at k = 0..steps, for inputs of any shape in time.

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
    propagated by Ad^1..Ad^b, and forms the outputs (2b slab products).
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


def fault_drain(R, L, R_f, omega):
    """Quasi-static midpoint-fault conductance G with drain G (V_u + V_v) per end bus."""
    r = 2.0 * R_f + R / 2.0
    wl = omega * L / 2.0
    M = np.array([[r, -wl], [wl, r]])
    return np.linalg.inv(M) / 2.0


def pvb_rhs(xp, vbus, u1, p, omega):
    """Resource element equations: boost PV stage, DC link, inverter filter,
    two-capacitor battery. xp = (i_pv, v_dc, i_t_q, i_t_d, v_Cs, v_Cb),
    vbus = terminal bus voltage (q, d), u1 = (d, delta, m_a) absolute."""
    i_pv, v_dc, i_tq, i_td, v_cs, v_cb = xp
    Vq, Vd = vbus
    d, delta, m_a = u1
    v_pv = (i_pv - p.I_PV) * p.R_PV
    denom = 1.0 + p.R_t / p.R_s + p.R_t / p.R_e
    i_bat = ((v_dc - v_cs) / p.R_s + (v_dc - v_cb) / p.R_e) / denom
    v_b = v_dc - p.R_t * i_bat
    e_q = 0.5 * m_a * v_dc * math.sin(delta)
    e_d = 0.5 * m_a * v_dc * math.cos(delta)
    i_inv = 0.75 * m_a * (math.cos(delta) * i_td + math.sin(delta) * i_tq)
    return np.array([
        (v_pv - (1.0 - d) * v_dc) / p.L_1PV,
        ((1.0 - d) * i_pv - i_inv - i_bat) / p.C_PV,
        (e_q - p.R_2PV * i_tq - Vq) / p.L_2PV + omega * i_td,
        (e_d - p.R_2PV * i_td - Vd) / p.L_2PV - omega * i_tq,
        (v_b - v_cs) / (p.R_s * p.C_s),
        (v_b - v_cb) / (p.R_e * p.C_b),
    ])


def segment_rhs(segment, contingency, x, u1, u2):
    """Full element-equation right-hand side in absolute coordinates.

    This evaluates the physics directly (no stamped coefficients) so it can
    back operating-point and derivative cross-checks of the stamped A and B1.
    """
    idx = _Index(segment)
    x = np.asarray(x, dtype=float)
    u1 = np.asarray(u1, dtype=float)
    u2 = np.asarray(u2, dtype=float)
    if x.shape != (idx.n,):
        raise ConfigError(f"state vector must have length {idx.n}")
    modes = ({} if contingency.kind == "normal"
             else {tuple(sorted(contingency.line)): contingency})
    w = segment.omega_nom
    dx = np.zeros(idx.n)
    # accumulated KCL current into each loaded bus, (q, d)
    inj = {k: np.zeros(2) for k in idx.vq}

    def bus_V(k):
        if k in idx.vq:
            return np.array([x[idx.vq[k]], x[idx.vd[k]]])
        return np.zeros(2)

    for ln in segment.internal_lines:
        u, v = ln.key()
        iq, id_ = idx.line_i[(u, v)]
        I = np.array([x[iq], x[id_]])
        mode = modes.get((u, v))
        if mode is not None and mode.kind == "line_outage":
            dx[iq] = -(ln.R / ln.L) * I[0]
            dx[id_] = -(ln.R / ln.L) * I[1]
            continue
        Vu, Vv = bus_V(u), bus_V(v)
        drop_u = drop_v = False
        if mode is not None and mode.kind == "line_disconnect":
            drop_u = mode.open_end == u
            drop_v = mode.open_end == v
        eu = np.zeros(2) if drop_u else Vu
        ev = np.zeros(2) if drop_v else Vv
        dx[iq] = (eu[0] - ev[0] - ln.R * I[0]) / ln.L + w * I[1]
        dx[id_] = (eu[1] - ev[1] - ln.R * I[1]) / ln.L - w * I[0]
        if u in inj and not drop_u:
            inj[u] -= I
        if v in inj and not drop_v:
            inj[v] += I
        if mode is not None and mode.kind == "short_circuit":
            G = fault_drain(ln.R, ln.L, mode.R_f, w)
            drain = G @ (Vu + Vv)
            if u in inj:
                inj[u] -= drain
            if v in inj:
                inj[v] -= drain

    for a in segment.aux_buses:
        iq, id_ = idx.aux_i[a.aux_id]
        cq, cd = idx.u2_i[a.aux_id]
        I = np.array([x[iq], x[id_]])
        Vk = bus_V(a.attach_bus)
        Va = np.array([u2[cq], u2[cd]])
        dx[iq] = (Vk[0] - Va[0] - a.R * I[0]) / a.L + w * I[1]
        dx[id_] = (Vk[1] - Va[1] - a.R * I[1]) / a.L - w * I[0]
        if a.attach_bus in inj:
            inj[a.attach_bus] -= I

    if idx.has_pvb:
        pv_bus = segment.pvb_bus
        dx[0:6] = pvb_rhs(x[0:6], bus_V(pv_bus), u1, segment.bus(pv_bus).pvb, w)
        if pv_bus in inj:
            inj[pv_bus] += np.array([x[2], x[3]])  # terminal current into the bus

    for k, vqi in idx.vq.items():
        lp = segment.bus(k).load
        vdi, jqi, jdi = idx.vd[k], idx.jq[k], idx.jd[k]
        Vq, Vd = x[vqi], x[vdi]
        Jq, Jd = x[jqi], x[jdi]
        dx[vqi] = (inj[k][0] - Vq / lp.R - Jq) / lp.C + w * Vd
        dx[vdi] = (inj[k][1] - Vd / lp.R - Jd) / lp.C - w * Vq
        dx[jqi] = (Vq - lp.Rl * Jq) / lp.L + w * Jd
        dx[jdi] = (Vd - lp.Rl * Jd) / lp.L - w * Jq
    return dx


def step_records(held, steps):
    """The (steps+1)-row u1 and u2 records of a step to `held` = [u1; u2]:
    held on rows 0..steps-1, zero on row `steps`, where the probe is off."""
    record = np.zeros((steps + 1, len(held)))
    record[:steps] = held
    return record[:, :3], record[:, 3:]


def window_table(window, stride):
    """The (rows, columns) record of one window at `stride`, column by
    column: t = t_start + ts * index, the outputs, u1 and u2 of the window's
    step_records: one slice of windows.npy. A window that keeps every
    window.stride-th sample holds sample index in its row index /
    window.stride."""
    idx = np.arange(0, window.steps + 1, stride)
    u1, u2 = step_records(window.held, window.steps)
    table = np.empty((idx.size, 1 + window.samples.shape[1] + window.held.size))
    table[:, 0] = window.t_start + window.ts * idx
    table[:, 1:] = np.hstack([window.samples[idx // window.stride], u1[idx], u2[idx]])
    return table


def loop_truth(dmodels, hold, x, alphas, R, channel, steps,
               noise_sigma=0.0, rng_noise=None, subsample=1):
    """The switched truth one window at a time: a full `simulate` from the
    carried-over state in every interval under the probe step R e_channel
    (zero aux inputs), then `hold` across the probe-off remainder. Noise
    goes on the samples at indices 0, subsample, 2 subsample, ..., one block
    of draws per window. Returns (list of (steps+1, p) window samples, (K+1,
    n) boundary states)."""
    step = np.zeros(3 + dmodels[0].Bd2.shape[1])
    step[channel] = R
    u1_win, u2_win = step_records(step, steps)
    samples = []
    boundaries = np.empty((len(alphas) + 1, len(x)))
    grid = np.arange(0, steps + 1, subsample)
    for k, a in enumerate(alphas):
        boundaries[k] = x
        trace = simulate(dmodels[a], x, u1_win, u2_win, steps, record_states=True)
        y = trace.outputs
        if noise_sigma > 0:
            y[grid] += noise_sigma * rng_noise.standard_normal((grid.size, y.shape[1]))
        samples.append(y)
        x = hold[a] @ trace.final_state
    boundaries[len(alphas)] = x
    return samples, boundaries


def loop_observability_stack(dmodel, steps, subsample=1):
    """Stacked map x0 -> [y_k]_{k in grid} for the free response, one
    (n x n) product per row of the grid."""
    idx = np.arange(0, steps + 1, subsample)
    P = np.linalg.matrix_power(dmodel.Ad, subsample)
    blocks = np.empty((idx.size, dmodel.p, dmodel.n))
    Phi = np.eye(dmodel.n)
    for row in range(idx.size):
        blocks[row] = dmodel.C @ Phi
        if row + 1 < idx.size:
            Phi = P @ Phi
    return blocks.reshape(idx.size * dmodel.p, dmodel.n)


def loop_samples(windows):
    """(rows, windows) matrix of every sample of windows of one length and
    grid, filled one window at a time."""
    out = np.empty((len(windows),) + windows[0].samples.shape)
    for k, window in enumerate(windows):
        out[k] = window.samples
    return out.reshape(len(windows), -1).T


def held_factor(model, steps, subsample):
    """_factor of a fresh held-input stack of `model`."""
    return _factor(observability_stack(hold_inputs(model), steps, subsample), model.n)


def loop_fit(factor, held, samples):
    """Least-squares window-start states for every column of `samples`,
    windows that hold the inputs `held`, and the attained residual norms
    against one factor from shslab's _factor of a held-input stack [O | S]:
    the forced response S held removed, the stored rotations applied chunk
    by chunk, lstsq on the triangle at the full-stack rank cut, residuals of
    the full stack's response [O | S] [x0; held]."""
    stack, qs, tri = factor
    rows, n = stack.shape[0], tri.shape[1]
    free = samples - (stack[:, n:] @ held)[:, None]
    chunks = range(0, rows, _QR_ROWS)
    rhs = np.empty((0, free.shape[1]))
    for lo, q in zip(chunks, qs):
        rhs = q.T @ np.vstack([rhs, free[lo:lo + _QR_ROWS]])
    x0_hat, _, _, _ = np.linalg.lstsq(tri, rhs, rcond=np.finfo(float).eps * max(rows, n))
    z_hat = np.vstack([x0_hat, np.tile(held[:, None], free.shape[1])])
    squares = np.zeros(free.shape[1])
    for lo in chunks:
        misfit = stack[lo:lo + _QR_ROWS] @ z_hat
        misfit -= samples[lo:lo + _QR_ROWS]
        squares += np.einsum("ij,ij->j", misfit, misfit)
    return x0_hat, np.sqrt(squares)


def loop_detect(models, windows):
    """Per window, the (m,) residuals and (m, n) states of every scenario's
    fit on window 0's grid, one scenario at a time, for windows that hold
    window 0's inputs and the forced responses to them."""
    held, steps, stride = windows[0].held, windows[0].steps, windows[0].stride
    per_model = []
    for model in models:
        for window in windows:
            _check_window(model, window)
        per_model.append(loop_fit(held_factor(model, steps, stride), held,
                                  loop_samples(windows)))
    x0_hat = np.stack([x for x, _ in per_model])
    residuals = np.stack([r for _, r in per_model])
    return [(residuals[:, col], x0_hat[:, :, col]) for col in range(len(windows))]
