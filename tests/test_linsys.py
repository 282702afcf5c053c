import math
import re

import numpy as np
import pytest
import scipy.linalg

from conftest import PAPER_TS, bare_line_segment, bits, make_model
from oracles import blocks, loop_simulate, rk4_lti, simulate
from shslab.detection import _GEMM_MAX, free_outputs, grid_stack
from shslab.errors import ConfigError, NumericalError
from shslab.linsys import discretize_zoh, eig_sorted, eigenvalues, expm
from shslab.probing import compute_mu1
from shslab.ssbuild import ContingencySpec, build_state_space


def test_eigenvalues_sorted_diag():
    model = make_model(np.diag([-1.0, -2.0]))
    eig = eigenvalues(model)
    assert np.allclose(eig, [-2.0, -1.0])


def test_eigenvalues_rl_line_multiplicity_two():
    model = build_state_space(bare_line_segment(R=1.0, L=1.0, omega=0.0),
                              ContingencySpec.normal())
    eig = eigenvalues(model)
    assert np.allclose(eig, [-1.0, -1.0])


def _scipy_eig_sorted(A):
    vals = scipy.linalg.eigvals(A)
    return vals[np.lexsort((vals.imag, vals.real))]


def _assert_bitwise(a, b):
    assert a.dtype == b.dtype == np.complex128
    assert np.array_equal(a.view(np.float64), b.view(np.float64))


def test_eig_sorted_bitwise_scipy_bundled(all_families):
    for fam in all_families.values():
        for sc in fam:
            _assert_bitwise(eig_sorted(sc.A), _scipy_eig_sorted(sc.A))


def test_eig_sorted_bitwise_scipy_random():
    # symmetric and triangular matrices have all-real spectra, where numpy
    # returns float64 unless eig_sorted casts
    rng = np.random.default_rng(2024)
    all_real = 0
    for k in range(200):
        n = 1 + k % 30
        A = rng.standard_normal((n, n))
        if k % 4 == 1:
            A = A + A.T
        elif k % 4 == 2:
            A = np.triu(A)
        all_real += np.isrealobj(np.linalg.eigvals(A))
        _assert_bitwise(eig_sorted(A), _scipy_eig_sorted(A))
    assert all_real >= 100


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_eigenvalues_non_finite_is_numerical_error(bad):
    with pytest.raises(NumericalError, match="eigenvalue solver failed"):
        eigenvalues(make_model(np.array([[bad, 0.0], [0.0, -1.0]])))


def test_m1_scenarios_hurwitz(m1_family):
    for sc in m1_family:
        assert np.max(eigenvalues(sc).real) < 0.0


def test_bundled_families_pass_stability_gate(all_families):
    for fam in all_families.values():
        assert compute_mu1(fam) > 0.0


def test_zoh_integrator_state():
    model = make_model(np.array([[0.0]]), B1=np.array([[1.0, 0.0, 0.0]]))
    Ad, Bd1, _, _ = blocks(discretize_zoh(model, 1e-3))
    assert np.allclose(Ad, [[1.0]], atol=1e-15)
    assert np.allclose(Bd1[0, 0], 1e-3, rtol=1e-12)


def test_zoh_first_order_closed_form():
    model = make_model(np.array([[-1.0]]), B1=np.array([[1.0, 0.0, 0.0]]))
    Ad, Bd1, _, _ = blocks(discretize_zoh(model, 1.0))
    assert Ad[0, 0] == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert Bd1[0, 0] == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)


def test_zoh_rejects_bad_ts(m1_family):
    for ts in (0.0, -1e-6, float("nan"), float("inf")):
        with pytest.raises(NumericalError):
            discretize_zoh(m1_family[0], ts)


def _random_stable(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    A -= (np.max(np.linalg.eigvals(A).real) + 1.0) * np.eye(n)
    return A


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_zoh_semigroup_random(seed):
    model = make_model(_random_stable(5, seed))
    ts = 0.01
    half = blocks(discretize_zoh(model, ts))[0]
    full = blocks(discretize_zoh(model, 2 * ts))[0]
    err = np.max(np.abs(half @ half - full)) / np.max(np.abs(full))
    assert err <= 1e-10


def test_zoh_semigroup_m1(m1_family):
    ts = 1e-6
    half = blocks(discretize_zoh(m1_family[0], ts))[0]
    full = blocks(discretize_zoh(m1_family[0], 2 * ts))[0]
    err = np.max(np.abs(half @ half - full)) / np.max(np.abs(full))
    assert err <= 1e-10


# every Pade degree (3, 5, 7, 9) and degree 13 with and without squarings
@pytest.mark.parametrize("scale", [0.0, 1e-3, 0.1, 0.5, 1.5, 4.0, 50.0])
def test_expm_matches_scipy_random(scale):
    rng = np.random.default_rng(int(scale * 100))
    for n in (1, 2, 5, 23):
        M = scale * rng.standard_normal((n, n)) / math.sqrt(n)
        ref = scipy.linalg.expm(M)
        assert np.max(np.abs(expm(M) - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_expm_matches_scipy_m1(m1_family):
    # the augmented discretization at several ts and the probe-off hold
    for sc in m1_family:
        B = np.hstack([sc.B1, sc.B2])
        aug = np.zeros((sc.n + B.shape[1],) * 2)
        aug[:sc.n, :sc.n] = sc.A
        aug[:sc.n, sc.n:] = B
        for M in (aug * 1e-6, aug * 1e-5, aug * 1e-4, sc.A * 9.99e-3):
            ref = scipy.linalg.expm(M)
            assert np.max(np.abs(expm(M) - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_simulate_zero_everything(m1_family):
    d = discretize_zoh(m1_family[0], 1e-5)
    trace = simulate(d, None, None, None, 50)
    assert np.all(trace.outputs == 0.0)
    assert trace.outputs.shape == (51, d.p)


def test_simulate_matches_step_response(m1_family):
    # the oracle's unit step against the engine's, the response of the
    # held-input model from z = e_(n+1), every sample of the window
    d = discretize_zoh(m1_family[0], 1e-5)
    steps = 200
    u1 = np.zeros((steps + 1, 3))
    u1[:steps, 1] = 1.0
    a = simulate(d, None, u1, None, steps)
    b = np.empty((steps + 1, d.p))
    free_outputs(d, np.eye(d.n + 5)[d.n + 1], [b], steps, 10, full=True)
    assert np.max(np.abs(a.outputs - b)) <= 1e-12 * np.max(np.abs(a.outputs))


def test_simulate_linearity(m1_family):
    d = discretize_zoh(m1_family[0], 1e-5)
    rng = np.random.default_rng(3)
    steps = 100
    x0a, x0b = rng.standard_normal((2, 18))
    u1a, u1b = rng.standard_normal((2, steps + 1, 3))
    u2a, u2b = rng.standard_normal((2, steps + 1, 2))
    ya = simulate(d, x0a, u1a, u2a, steps).outputs
    yb = simulate(d, x0b, u1b, u2b, steps).outputs
    yab = simulate(d, x0a + x0b, u1a + u1b, u2a + u2b, steps).outputs
    assert np.allclose(ya + yb, yab, rtol=1e-9, atol=1e-9 * np.abs(yab).max())


def test_zoh_agrees_with_rk4_oracle(m1_family):
    # one millisecond window here; the acceptance suite runs the full window
    model = m1_family[0]
    ts = 1e-6
    steps = 1000
    d = discretize_zoh(model, ts)
    u1 = np.zeros((steps + 1, 3))
    u1[:steps, 1] = 0.7
    trace = simulate(d, None, u1, None, steps, record_states=True)
    B = np.hstack([model.B1, model.B2])
    u_seq = np.hstack([u1, np.zeros((steps + 1, 2))])
    ref = rk4_lti(model.A, B, u_seq, ts, np.zeros(18), ts / 2, 2 * steps)[::2]
    scale = np.abs(ref).max()
    assert np.max(np.abs(trace.states - ref)) <= 1e-6 * scale


@pytest.fixture(scope="module")
def paper_dmodels(m1_family):
    return [discretize_zoh(sc, PAPER_TS) for sc in m1_family]


# step counts straddle the block size floor(sqrt(steps+1)) and its edges;
# input records have `steps`, `steps+1` and more than `steps+1` rows
@pytest.mark.parametrize("steps", [0, 1, 2, 99, 100, 101, 10000])
@pytest.mark.parametrize("extra_rows", [0, 1, 7])
def test_simulate_matches_loop_oracle(paper_dmodels, steps, extra_rows):
    rng = np.random.default_rng(1000 * steps + extra_rows)
    for d in paper_dmodels:
        Ad, Bd1, Bd2, C = blocks(d)
        assert np.any(Bd2)  # u2 drives the state
        rows = steps + extra_rows
        x0 = rng.standard_normal(d.n)
        u1 = rng.standard_normal((rows, 3))
        u2 = rng.standard_normal((rows, Bd2.shape[1]))
        trace = simulate(d, x0, u1, u2, steps, record_states=True)
        xs, ys = loop_simulate(Ad, Bd1, Bd2, C, x0, u1, u2, steps)
        assert trace.states.shape == xs.shape and trace.outputs.shape == ys.shape
        assert np.max(np.abs(trace.states - xs)) <= 1e-12 * np.max(np.abs(xs))
        assert np.max(np.abs(trace.outputs - ys)) <= 1e-12 * np.max(np.abs(ys))
        assert np.array_equal(trace.final_state, trace.states[-1])


# the engine, detection.free_outputs: the products of held-input states
# z0 = [x0; u1; u2] with detection's stored grid stack of the model with its
# inputs held as states

@pytest.fixture
def fresh_dmodels(m1_family):
    """The paper-grid models discretized afresh, so the grid stacks that
    free_outputs stores on them go with each test."""
    return [discretize_zoh(sc, PAPER_TS) for sc in m1_family]


def test_discretize_zoh_layout(paper_dmodels, m1_family):
    # the held-input model z = [x; u1; u2]: its input rows hold exactly, the
    # outputs read no input, and the state rows are the expm of the
    # augmented matrix
    sc, d = m1_family[0], paper_dmodels[0]
    n, nz = sc.n, sc.n + 5
    assert d.n == n and d.inputs == 5 and d.ts == PAPER_TS
    assert d.Ad.shape == (nz, nz) and d.C.shape == (d.p, nz)
    assert np.array_equal(d.Ad[n:], np.eye(nz)[n:])
    assert np.array_equal(d.C[:, n:], np.zeros((d.p, 5)))
    assert np.array_equal(d.C[:, :n], sc.C)
    aug = np.zeros((nz, nz))
    aug[:n, :n] = sc.A
    aug[:n, n:] = np.hstack([sc.B1, sc.B2])
    ref = scipy.linalg.expm(aug * PAPER_TS)[:n]
    assert np.max(np.abs(d.Ad[:n] - ref)) <= 1e-12 * np.max(np.abs(ref))


def held_states(rng, batch, d):
    """`batch` random start states, all under one random held input u:
    the (batch, n + 3 + q) held-input states and u."""
    u = rng.standard_normal(d.inputs)
    return np.hstack([rng.standard_normal((batch, d.n)), np.tile(u, (batch, 1))]), u


# the same step counts; one, a few and a full sequence's worth of windows;
# grid strides that divide the steps and strides that do not, each as the
# grid record and as the full record
@pytest.mark.parametrize("steps", [0, 1, 2, 99, 100, 101, 10000])
@pytest.mark.parametrize("batch", [1, 3, 40])
def test_free_outputs_matches_loop_oracle(fresh_dmodels, steps, batch):
    rng = np.random.default_rng(100 * steps + batch)
    for d in fresh_dmodels:
        Z0, u = held_states(rng, batch, d)
        held = np.tile(u, (steps + 1, 1))
        _, ys = loop_simulate(*blocks(d), Z0[:, :d.n], held[:, :3], held[:, 3:], steps)
        for stride in (1, 3, 10):
            for full in (False, True):
                out = [np.empty((steps + 1 if full else steps // stride + 1, d.p))
                       for _ in range(batch)]
                free_outputs(d, Z0, out, steps, stride, full)
                for k, y in enumerate(out):
                    ref = ys[::1 if full else stride, k]
                    assert np.max(np.abs(y - ref)) <= 1e-12 * np.max(np.abs(ref)), \
                        (stride, full, k)


# the batched product against a loop of one (W x n_z)(n_z x b*p) product per
# block of the stored grid stack and share of at most _GEMM_MAX // (n_z b p)
# windows, bit for bit, at every stride: a window alone (vector products), a
# few, and a full sequence's worth, which at stride 1 takes two shares
@pytest.mark.parametrize("steps", [0, 1, 99, 100, 101, 10000])
@pytest.mark.parametrize("batch", [1, 3, 40])
def test_free_outputs_bitwise_block_loop(fresh_dmodels, steps, batch):
    rng = np.random.default_rng(7 * steps + batch)
    for d in fresh_dmodels:
        Z0, _ = held_states(rng, batch, d)
        for stride in (1, 3, 10):
            got = [np.empty((steps // stride + 1, d.p)) for _ in range(batch)]
            free_outputs(d, Z0, got, steps, stride)
            stack = grid_stack(d, steps, stride)
            width = math.isqrt(len(stack) // d.p) * d.p
            share = max(1, _GEMM_MAX // (Z0.shape[1] * width))
            ref = np.vstack([np.hstack([Z0[w:w + share] @ stack[lo:lo + width].T
                                        for lo in range(0, len(stack), width)])
                             for w in range(0, batch, share)])
            for k, y in enumerate(got):
                assert np.array_equal(bits(y.reshape(-1)), bits(ref[k])), (stride, k)


# a full record repeats the grid products from each row offset, so its every
# stride-th row is the grid record bit for bit: strides that divide the
# block width b = floor(sqrt(rows)) and strides that do not
@pytest.mark.parametrize("stride", [1, 3, 10])
@pytest.mark.parametrize("steps", [0, 1, 2, 99, 100, 101, 10000])
@pytest.mark.parametrize("batch", [1, 3, 40])
def test_free_outputs_stride_bitwise_block_loop(fresh_dmodels, steps, batch, stride):
    rng = np.random.default_rng(11 * steps + batch)
    for d in fresh_dmodels:
        Z0, _ = held_states(rng, batch, d)
        grid = [np.empty((steps // stride + 1, d.p)) for _ in range(batch)]
        full = [np.empty((steps + 1, d.p)) for _ in range(batch)]
        free_outputs(d, Z0, grid, steps, stride)
        free_outputs(d, Z0, full, steps, stride, full=True)
        for k, (g, f) in enumerate(zip(grid, full)):
            assert np.array_equal(bits(f[::stride]), bits(g)), k


# the stack's input columns are the forced responses to unit held inputs:
# each against the per-sample loop's, on every u1 and u2 channel, on the
# grid and as a full record
@pytest.mark.parametrize("steps", [1, 2, 99, 100, 101, 10000])
def test_input_columns_match_loop_forced_response(fresh_dmodels, steps):
    for d in fresh_dmodels:
        n, q = d.n, d.inputs - 3
        for ch in range(3 + q):
            held = np.zeros((steps + 1, 3 + q))
            held[:steps, ch] = 1.0
            _, ys = loop_simulate(*blocks(d), None, held[:, :3], held[:, 3:], steps)
            # u2 reaches no output of line_outage and line_disconnect: both
            # responses are exact zeros there
            scale = np.max(np.abs(ys))
            assert scale > 0.0 or ch >= 3, ch
            for stride in (1, 3, 10):
                column = grid_stack(d, steps, stride)[:, n + ch].reshape(-1, d.p)
                assert np.max(np.abs(column - ys[::stride])) <= 1e-12 * scale, (ch, stride)
                full = np.empty((steps + 1, d.p))
                free_outputs(d, np.eye(n + 3 + q)[n + ch], [full], steps, stride, full=True)
                assert np.max(np.abs(full - ys)) <= 1e-12 * scale, (ch, stride)


def test_forced_response_at_level_R_is_R_times_the_unit_response(fresh_dmodels, m1_probe):
    # a product with z = [0; R e_ch; 0] adds only exact zeros to R times the
    # unit column, so every level's forced response scales the unit one
    steps = 10000
    for d in fresh_dmodels:
        for ch in range(d.inputs):
            unit = np.eye(d.n + 5)[d.n + ch]
            for R in (m1_probe.R, 0.101, 3.0):
                at_R, at_1 = (np.empty((steps // 10 + 1, d.p)) for _ in range(2))
                free_outputs(d, R * unit, [at_R], steps, 10)
                free_outputs(d, unit, [at_1], steps, 10)
                assert np.array_equal(bits(at_R), bits(R * at_1)), (ch, R)


def test_free_outputs_shape_errors(m1_family):
    d = discretize_zoh(m1_family[0], 1e-5)
    # 18 states and 3 + 2 held inputs
    with pytest.raises(NumericalError, match=re.escape("Z0 must be (1, 23), got (2, 23)")):
        free_outputs(d, np.zeros((2, 23)), [np.empty((11, 5))], 10, 1)
    with pytest.raises(NumericalError, match=re.escape("Z0 must be (2, 23), got (2, 18)")):
        free_outputs(d, np.zeros((2, 18)), [np.empty((11, 5))] * 2, 10, 1)
    with pytest.raises(NumericalError, match="output array"):
        free_outputs(d, np.zeros((2, 23)), [np.empty((11, 5)), np.empty((10, 5))], 10, 1)
    with pytest.raises(NumericalError, match="C-contiguous"):
        free_outputs(d, np.zeros((1, 23)), [np.empty((11, 10))[:, ::2]], 10, 1)
    # 10 steps at subsample 3 keep samples 0, 3, 6 and 9; a full record all 11
    with pytest.raises(NumericalError, match=re.escape("C-contiguous (4, 5)")):
        free_outputs(d, np.zeros((1, 23)), [np.empty((5, 5))], 10, 3)
    with pytest.raises(NumericalError, match=re.escape("C-contiguous (11, 5)")):
        free_outputs(d, np.zeros((1, 23)), [np.empty((4, 5))], 10, 3, full=True)
    with pytest.raises(ConfigError, match="subsample must be >= 1, got 0"):
        free_outputs(d, np.zeros((1, 23)), [np.empty((11, 5))], 10, 0)
    # one start state is a batch of one window
    free_outputs(d, np.zeros(23), [np.empty((4, 5))], 10, 3)


def test_simulate_shape_errors(m1_family):
    d = discretize_zoh(m1_family[0], 1e-5)
    with pytest.raises(NumericalError, match="x0"):
        simulate(d, np.zeros(5), None, None, 10)
    with pytest.raises(NumericalError, match="u1"):
        simulate(d, None, np.zeros((5, 3)), None, 10)
    with pytest.raises(NumericalError, match="u2"):
        simulate(d, None, None, np.zeros((11, 7)), 10)


def test_final_state_requires_recording(m1_family):
    d = discretize_zoh(m1_family[0], 1e-5)
    trace = simulate(d, None, None, None, 5)
    with pytest.raises(NumericalError):
        _ = trace.final_state
