"""Acceptance gate: one test per criterion, each at its stated tolerance,
printing a PASS line (run with -s to see them on success).

The heavyweight criteria (4, 5) run the bundled six-bus configuration at the
production grid: tau = 0.6 s, tau0 = 10 ms, ts = 1 us, estimator stride 10.
"""

import numpy as np

from conftest import PAPER_TAU0, PAPER_TS, bare_line_segment, two_load_bus_segment
from oracles import fd_jacobian, rk4_lti, segment_rhs, simulate, step_records
from shslab.detection import (MeasurementWindow, estimate_initial_state, free_outputs,
                              observability_stack, sample_indices)
from shslab.experiment import ExperimentConfig, run_experiment
from shslab.linsys import discretize_zoh, eigenvalues
from shslab.probing import ProbingDesign, compute_delta_min
from shslab.ssbuild import ContingencySpec, build_state_space

SUBSAMPLE = 10  # pinned estimator stride for every acceptance run


def _ok(n, msg):
    print(f"ACCEPTANCE {n} PASS: {msg}")


def test_criterion_1_mami_threshold_arithmetic():
    mu0, mu1, delta_min = 5.63, 1.0, 112.15
    R0 = 2.0 * mu0 * mu1 / delta_min
    assert abs(R0 - 0.10040) <= 1e-5
    design = ProbingDesign(mu0=mu0, mu1=mu1, delta_min=delta_min, R0=R0,
                           R=0.101, channel=1, tau0=PAPER_TAU0)
    assert design.R > design.R0
    _ok(1, f"R0 = {R0:.6f} = 0.10040 +/- 1e-5 and R = 0.101 > R0")


def test_criterion_2_segment_dimensions(all_families):
    dims = {sid: fam[0].n for sid, fam in sorted(all_families.items())}
    assert dims == {1: 18, 2: 20, 3: 18}
    _ok(2, f"bundled segment state dimensions {dims} == 18/20/18")


def test_criterion_3_stability_spectra(m1_family):
    worst = {}
    for sc in m1_family:
        worst[sc.name] = float(np.max(eigenvalues(sc).real))
        assert worst[sc.name] < 0.0
    _ok(3, "all four scenario spectra strictly in the open left half-plane "
           + str({k: f"{v:.3e}" for k, v in worst.items()}))


def _paper_config(m1_family, m1_probe, seed, probe_override_R=None):
    return ExperimentConfig(
        family=m1_family, probe=m1_probe, tau=0.6, tau0=PAPER_TAU0,
        ts=PAPER_TS, K=40, seed=seed, subsample=SUBSAMPLE,
        x0_mode="zero", probe_override_R=probe_override_R)


def test_criterion_4_detection_reproduction(m1_family, m1_probe):
    seeds = [101, 202, 303, 404, 505]
    for seed in seeds:
        result = run_experiment(_paper_config(m1_family, m1_probe, seed))
        assert result.report.detected == list(result.sequence.alphas), \
            f"seed {seed}: detected sequence diverged from truth"
        assert result.accuracy == 1.0
    _ok(4, f"noise-free probed K=40 runs: accuracy 1.0 on {len(seeds)} seeds {seeds}")


def test_criterion_5_probe_necessity_ablation(m1_family, m1_probe):
    accuracies = []
    for seed in range(20):
        result = run_experiment(
            _paper_config(m1_family, m1_probe, seed, probe_override_R=0.0))
        accuracies.append(result.accuracy)
    mean_acc = float(np.mean(accuracies))
    assert mean_acc < 1.0
    _ok(5, f"probe off (R=0): mean accuracy {mean_acc:.3f} < 1.0 over 20 seeds")


def test_criterion_6a_jacobian_oracle(seg1, m1_contingencies, m1_family):
    worst = 0.0
    u1_op = np.array([0.5, 0.1, 0.8])
    for con, model in zip(m1_contingencies, m1_family):
        J = fd_jacobian(
            lambda x: segment_rhs(seg1, con, x, u1_op, np.zeros(2)), model.x_op)
        scale = np.maximum(np.abs(model.A), 1e-6 * np.abs(model.A).max())
        worst = max(worst, float(np.max(np.abs(J - model.A) / scale)))
    assert worst <= 1e-6
    _ok(6, f"(a) assembled A vs central-difference derivative of the element "
           f"equations: max entrywise relative error {worst:.2e} <= 1e-6")


def test_criterion_6b_zoh_vs_rk4(m1_family, m1_probe):
    model = m1_family[0]
    steps = int(round(PAPER_TAU0 / PAPER_TS))
    d = discretize_zoh(model, PAPER_TS)
    u1 = np.zeros((steps + 1, 3))
    u1[:steps, 1] = m1_probe.R
    trace = simulate(d, None, u1, None, steps, record_states=True)
    B = np.hstack([model.B1, model.B2])
    u_seq = np.hstack([u1, np.zeros((steps + 1, model.B2.shape[1]))])
    ref = rk4_lti(model.A, B, u_seq, PAPER_TS, np.zeros(model.n),
                  PAPER_TS / 2, 2 * steps)[::2]
    rel = float(np.max(np.abs(trace.states - ref)) / np.abs(ref).max())
    assert rel <= 1e-6
    # the response engine's full record, from the held-input state [0; R e_1; 0]
    z0 = np.zeros(model.n + 3 + model.B2.shape[1])
    z0[model.n + 1] = m1_probe.R
    y = np.empty((steps + 1, model.p))
    free_outputs(d, z0, [y], steps, SUBSAMPLE, full=True)
    y_ref = ref @ model.C.T
    rel_y = float(np.max(np.abs(y - y_ref)) / np.abs(y_ref).max())
    assert rel_y <= 1e-6
    _ok(6, f"(b) exact-hold simulation vs fine-step RK4 over the 10 ms window: "
           f"relative error {rel:.2e} <= 1e-6 in the states, {rel_y:.2e} <= 1e-6 in "
           f"the response engine's outputs")


def test_criterion_6c_semigroup(m1_family):
    worst = 0.0
    for sc in m1_family:
        half = discretize_zoh(sc, PAPER_TS)
        full = discretize_zoh(sc, 2 * PAPER_TS)
        err = np.max(np.abs(half.Ad @ half.Ad - full.Ad)) / np.max(np.abs(full.Ad))
        worst = max(worst, float(err))
    assert worst <= 1e-10
    _ok(6, f"(c) hold-discretization semigroup property: error {worst:.2e} <= 1e-10")


def test_criterion_6d_hand_derived_rl_stamp():
    R, L = 1.0, 0.7e-3
    seg = two_load_bus_segment(R=R, L=L, omega=0.0)
    model = build_state_space(seg, ContingencySpec.normal())
    ix = {lab: i for i, lab in enumerate(model.state_labels)}
    row = np.zeros(model.n)
    row[ix["I_1_2_q"]] = -R / L
    row[ix["V_1_q"]] = 1.0 / L
    row[ix["V_2_q"]] = -1.0 / L
    assert np.array_equal(model.A[ix["I_1_2_q"]], row)
    bare = build_state_space(bare_line_segment(R=1.0, L=1.0, omega=0.0),
                             ContingencySpec.normal())
    assert np.allclose(np.linalg.eigvals(bare.A), [-1.0, -1.0])
    _ok(6, "(d) hand-derived two-bus R-L stamp matches exactly")


def test_criterion_7_delta_min_positive_all_pairs(m1_family):
    result = compute_delta_min(m1_family, "delta", PAPER_TAU0, PAPER_TS)
    assert len(result.gaps) == 6
    assert all(gap > 0.0 for gap in result.gaps.values())
    _ok(7, f"delta_min = {result.value:.4f} (closest pair {result.pair}); all 6 "
           f"pairwise gaps positive; bundled reference value 112.15 is not a "
           f"target (source matrices unpublished)")


def test_criterion_8_initial_state_estimator(m1_family, m1_probe):
    steps = int(round(PAPER_TAU0 / PAPER_TS))
    dmodels = [discretize_zoh(sc, PAPER_TS) for sc in m1_family]
    stacks = [observability_stack(d, steps, SUBSAMPLE) for d in dmodels]
    held = np.zeros(5)
    held[m1_probe.channel] = m1_probe.R
    u1, u2 = step_records(held, steps)
    rng = np.random.default_rng(77)

    worst_rec = 0.0
    for i, d in enumerate(dmodels):
        # recovery is asserted on the window-resolvable directions; the
        # estimator returns the minimum-norm (zero) component elsewhere
        _, s, Vt = np.linalg.svd(stacks[i], full_matrices=False)
        keep = Vt[s >= 1e-6 * s[0]]
        x0 = keep.T @ (keep @ (rng.standard_normal(18) * m1_probe.mu0))
        trace = simulate(d, x0, u1, u2, steps)
        window = MeasurementWindow(t_start=0.0, ts=PAPER_TS,
                                   samples=trace.outputs[::SUBSAMPLE], steps=steps,
                                   held=held, stride=SUBSAMPLE)
        x0_hat, residual = estimate_initial_state(d, window)
        rec = np.linalg.norm(x0_hat - x0) / np.linalg.norm(x0)
        worst_rec = max(worst_rec, float(rec))
        assert rec <= 1e-6
        ynorm = np.linalg.norm(trace.outputs[sample_indices(steps, SUBSAMPLE)])
        assert residual <= 1e-8 * ynorm

    orderings = 0
    for i, d_true in enumerate(dmodels):
        x0 = rng.standard_normal(18) * m1_probe.mu0
        trace = simulate(d_true, x0, u1, u2, steps)
        window = MeasurementWindow(t_start=0.0, ts=PAPER_TS,
                                   samples=trace.outputs[::SUBSAMPLE], steps=steps,
                                   held=held, stride=SUBSAMPLE)
        residuals = [estimate_initial_state(d, window)[1] for d in dmodels]
        for j in range(4):
            if j != i:
                assert residuals[i] <= residuals[j], f"pair ({i},{j}) misordered"
                orderings += 1
    assert orderings == 12
    _ok(8, f"x0 recovery worst case {worst_rec:.2e} <= 1e-6 on resolvable "
           f"directions; self-fit <= cross-fit for all ordered scenario pairs")
