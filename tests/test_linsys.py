import math

import numpy as np
import pytest
import scipy.linalg

from conftest import PAPER_TS, bare_line_segment, bits, make_model
from oracles import block_free_outputs, loop_simulate, rk4_lti
from shslab.errors import NumericalError
from shslab.linsys import (discretize_zoh, eig_sorted, eigenvalues, expm, free_outputs,
                           simulate, step_response)
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
    d = discretize_zoh(model, 1e-3)
    assert np.allclose(d.Ad, [[1.0]], atol=1e-15)
    assert np.allclose(d.Bd1[0, 0], 1e-3, rtol=1e-12)


def test_zoh_first_order_closed_form():
    model = make_model(np.array([[-1.0]]), B1=np.array([[1.0, 0.0, 0.0]]))
    d = discretize_zoh(model, 1.0)
    assert d.Ad[0, 0] == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert d.Bd1[0, 0] == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)


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
    half = discretize_zoh(model, ts)
    full = discretize_zoh(model, 2 * ts)
    err = np.max(np.abs(half.Ad @ half.Ad - full.Ad)) / np.max(np.abs(full.Ad))
    assert err <= 1e-10


def test_zoh_semigroup_m1(m1_family):
    ts = 1e-6
    half = discretize_zoh(m1_family[0], ts)
    full = discretize_zoh(m1_family[0], 2 * ts)
    err = np.max(np.abs(half.Ad @ half.Ad - full.Ad)) / np.max(np.abs(full.Ad))
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
    d = discretize_zoh(m1_family[0], 1e-5)
    steps = 200
    u1 = np.zeros((steps + 1, 3))
    u1[:steps, 1] = 1.0
    a = simulate(d, None, u1, None, steps)
    b = step_response(d, 1, steps)
    assert np.array_equal(a.outputs, b.outputs)


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
        assert np.any(d.Bd2)  # u2 drives the state
        rows = steps + extra_rows
        x0 = rng.standard_normal(d.n)
        u1 = rng.standard_normal((rows, 3))
        u2 = rng.standard_normal((rows, d.Bd2.shape[1]))
        trace = simulate(d, x0, u1, u2, steps, record_states=True)
        xs, ys = loop_simulate(d.Ad, d.Bd1, d.Bd2, d.C, x0, u1, u2, steps)
        assert trace.states.shape == xs.shape and trace.outputs.shape == ys.shape
        assert np.max(np.abs(trace.states - xs)) <= 1e-12 * np.max(np.abs(xs))
        assert np.max(np.abs(trace.outputs - ys)) <= 1e-12 * np.max(np.abs(ys))
        assert np.array_equal(trace.final_state, trace.states[-1])


# the same step counts; one, a few and a full sequence's worth of windows
@pytest.mark.parametrize("steps", [0, 1, 2, 99, 100, 101, 10000])
@pytest.mark.parametrize("batch", [1, 3, 40])
def test_free_outputs_matches_loop_oracle(paper_dmodels, steps, batch):
    rng = np.random.default_rng(100 * steps + batch)
    for d in paper_dmodels:
        X0 = rng.standard_normal((batch, d.n))
        out = [np.empty((steps + 1, d.p)) for _ in range(batch)]
        free_outputs(d, X0, out)
        _, ys = loop_simulate(d.Ad, d.Bd1, d.Bd2, d.C, X0, None, None, steps)
        for k, y in enumerate(out):
            ref = ys[:, k]
            assert np.max(np.abs(y - ref)) <= 1e-12 * np.max(np.abs(ref)), k


# the batched free response against the block-by-block copy loop, bit for
# bit: a window alone (vector products), a few, and a full sequence's worth
@pytest.mark.parametrize("steps", [0, 1, 99, 100, 101, 10000])
@pytest.mark.parametrize("batch", [1, 3, 40])
def test_free_outputs_bitwise_block_loop(paper_dmodels, steps, batch):
    rng = np.random.default_rng(7 * steps + batch)
    for d in paper_dmodels:
        X0 = rng.standard_normal((batch, d.n))
        got = [np.empty((steps + 1, d.p)) for _ in range(batch)]
        ref = [np.empty((steps + 1, d.p)) for _ in range(batch)]
        free_outputs(d, X0, got)
        block_free_outputs(d, X0, ref)
        for k, (y, r) in enumerate(zip(got, ref)):
            assert np.array_equal(bits(y), bits(r)), k


def test_free_outputs_shape_errors(m1_family):
    d = discretize_zoh(m1_family[0], 1e-5)
    with pytest.raises(NumericalError, match="X0"):
        free_outputs(d, np.zeros((2, 18)), [np.empty((11, 5))])
    with pytest.raises(NumericalError, match="output array"):
        free_outputs(d, np.zeros((2, 18)), [np.empty((11, 5)), np.empty((10, 5))])
    with pytest.raises(NumericalError, match="C-contiguous"):
        free_outputs(d, np.zeros((1, 18)), [np.empty((11, 10))[:, ::2]])


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
