"""Independent numerical oracles used by the tests.

These are deliberately separate implementations from the package: a classic
fixed-step RK4 integrator, an implicit-trapezoid integrator, a per-sample
discrete-time recursion, a central finite-difference Jacobian, an
incidence-matrix builder, the segment element equations written out
directly, the per-value csv.writer/csv.reader loops for window files, the
per-row observability stack, the per-window switched-truth loop, the
per-scenario window fits, and the block-by-block free response. Apart from
the last three they never call into shslab's discretization, simulation or
stamping code paths; the element equations share only the state layout.
The truth loop runs shslab's `simulate` once per window, which
`loop_simulate` checks in its own test. The per-scenario fits take their
factors from shslab's `_factor` and differ from the package only in how
the window data meet them: one (rows, windows) free matrix and one pass of
rotations per scenario, the arithmetic detection is held to bit for bit.
They split the windows into runs of equal input records themselves and
simulate each run's forced responses, so they share no run split with
`detection.forced_responses`.
The block-by-block free response is the same arithmetic as `free_outputs`
with a copy of every block into every window's array.
"""

import csv
import math
import os

import numpy as np

from shslab.detection import (_QR_ROWS, MeasurementWindow, _check_window, _factor,
                              forced_outputs)
from shslab.errors import ConfigError
from shslab.linsys import simulate
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


def csv_write_windows(result, win_dir, stride):
    """Write result's window files one value at a time through csv.writer,
    the reference for the bytes of experiment.write_outputs (meta.json is
    not written)."""
    p = result.windows[0].samples.shape[1] if result.windows else 0
    q = result.windows[0].u2.shape[1] if result.windows else 0
    header = (["t"] + [f"y{i}" for i in range(p)]
              + [f"u1_{i}" for i in range(3)] + [f"u2_{i}" for i in range(q)])
    for k, w in enumerate(result.windows):
        idx = np.arange(0, w.steps + 1, stride)
        times = w.t_start + w.ts * idx
        with open(os.path.join(win_dir, f"window_{k:04d}.csv"), "w",
                  newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row, i in enumerate(idx):
                writer.writerow([repr(float(times[row]))]
                                + [repr(float(v)) for v in w.samples[i]]
                                + [repr(float(v)) for v in w.u1[i]]
                                + [repr(float(v)) for v in w.u2[i]])


def csv_read_window(path):
    """Parse one window file field by field through csv.reader: the
    (rows, columns) table experiment.read_windows must reproduce."""
    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        rows = [[float(v) for v in row] for row in reader]
    return np.array(rows)


def loop_truth(dmodels, hold, x, alphas, u1_win, u2_win, steps,
               noise_sigma=0.0, rng_noise=None):
    """The switched truth one window at a time: a full `simulate` from the
    carried-over state in every interval, then `hold` across the probe-off
    remainder. Returns (list of (steps+1, p) window samples, (K+1, n)
    boundary states)."""
    samples = []
    boundaries = np.empty((len(alphas) + 1, len(x)))
    for k, a in enumerate(alphas):
        boundaries[k] = x
        trace = simulate(dmodels[a], x, u1_win, u2_win, steps, record_states=True)
        y = trace.outputs
        if noise_sigma > 0:
            y = y + noise_sigma * rng_noise.standard_normal(y.shape)
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


def loop_free_outputs(windows, forced, subsample):
    """(rows, windows) matrix of the strided samples of windows that share
    their input records, with those records' forced response removed."""
    if subsample < 1:
        raise ConfigError(f"subsample must be >= 1, got {subsample}")
    # filled in place from strided views
    forced = forced[::subsample]
    free = np.empty((len(windows),) + forced.shape)
    for k, window in enumerate(windows):
        np.subtract(window.samples[::subsample], forced, out=free[k])
    return free.reshape(len(windows), -1).T


def loop_fit(factor, free):
    """Least-squares window-start states for every column of `free` and the
    attained residual norms against one factor from shslab's _factor: the
    stored rotations applied chunk by chunk, lstsq on the triangle at the
    full-stack rank cut, residuals against the full stack."""
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


def loop_detect(models, windows, subsample):
    """Per window, the (m,) residuals and (m, n) states of every scenario's
    fit, one scenario at a time per run of windows that share their input
    records, each run's forced responses simulated from its first window."""
    fits = []
    for run in _shared_input_runs(windows):
        head = run[0]
        per_model = []
        for model in models:
            for window in run:
                _check_window(model, window)
            per_model.append(loop_fit(_factor(model, head.steps, subsample),
                                      loop_free_outputs(run, forced_outputs(model, head),
                                                        subsample)))
        x0_hat = np.stack([x for x, _ in per_model])
        residuals = np.stack([r for _, r in per_model])
        fits.extend((residuals[:, col], x0_hat[:, :, col]) for col in range(len(run)))
    return fits


def block_free_outputs(dmodel, X0, out):
    """Write the unforced outputs y_j = C Ad^j x0 of every row x0 of X0 into
    the matching array of `out`, one (len(X0) x n)(n x b*p) product per
    block of b = floor(sqrt(rows)) samples and one copy of that block into
    every array."""
    if not out:
        return
    S = np.array(X0, dtype=float, ndmin=2)
    n, p = dmodel.n, dmodel.p
    rows = out[0].shape[0]
    b = max(1, math.isqrt(rows))
    AdT = dmodel.Ad.T
    G = np.empty((n, b, p))
    G[:, 0] = dmodel.C.T
    for j in range(1, b):
        np.matmul(AdT, G[:, j - 1], out=G[:, j])
    G = G.reshape(n, b * p)
    AdT_b = np.linalg.matrix_power(AdT, b)
    for start in range(0, rows, b):
        width = min(b, rows - start)
        Y = (S @ G[:, :width * p]).reshape(len(out), width, p)
        for y, block in zip(out, Y):
            y[start:start + width] = block
        S = S @ AdT_b
