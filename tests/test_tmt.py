"""Frequency estimation, margin construction, and hard-clamp denoising."""

import numpy as np
import pytest

from tmtmag import (
    AcquisitionPlan,
    BenchmarkSetup,
    FrequencyGrid,
    FrequencySearchError,
    PLTrace,
    build_margins,
    denoise_pipeline,
    estimate_template_frequency,
    margin_width,
    shot_noise,
    simulate_ensemble,
    simulate_trace,
    template,
    tmt_denoise,
)
from tmtmag.bench import EnsembleRun
from tmtmag.tmt import clamp_details, estimate_frequencies
from tmtmag.wavelets import uwt_analyze, uwt_decompose


def _template_trace(params, plan, omega):
    return PLTrace(times=plan.times, values=template(plan.times, omega, params),
                   params=params, plan=plan)


# ---------------------------------------------------------------------------
# frequency estimation
# ---------------------------------------------------------------------------

def test_grid_validation():
    with pytest.raises(ValueError):
        FrequencyGrid(2.0, 1.0)
    with pytest.raises(ValueError):
        FrequencyGrid(1.0, 2.0, n_points=2)
    grid = FrequencyGrid.around(1e7, fraction=0.1, n_points=11)
    assert grid.omegas.size == 11
    np.testing.assert_allclose(grid.omegas[[0, -1]], [0.9e7, 1.1e7])


def test_noiseless_estimate_recovers_frequency(paper_params):
    # with enough fringes in the window the correlation peaks at the true
    # frequency; short windows bias the unnormalized peak (tested below)
    plan = AcquisitionPlan(0.2e-6, 3.7e-6, 128e6, 25000, 20, seed=1)
    omega_star = paper_params.omega_calib * 1.004
    trace = _template_trace(paper_params, plan, omega_star)
    grid = FrequencyGrid.around(paper_params.omega_calib, 0.15, 2001)
    est = estimate_template_frequency(trace, paper_params, grid)
    assert abs(est.omega_temp - omega_star) < grid.step
    assert est.grid is grid


def test_estimator_offset_is_small_but_nonzero(paper_params, short_plan):
    # the 100-sample window holds only ~2 fringes; even noiselessly the
    # unnormalized correlation peak sits slightly off the true frequency,
    # and noise scatters the per-trace estimates around that offset
    noiseless = _template_trace(paper_params, short_plan, paper_params.omega_calib)
    grid = FrequencyGrid.around(paper_params.omega_calib, 0.15, 2001)
    est = estimate_template_frequency(noiseless, paper_params, grid)
    det_offset = (est.omega_temp - paper_params.omega_calib) / paper_params.omega_calib
    assert 0.0 < abs(det_offset) < 0.01

    plan = short_plan.with_(n_experiments=50, seed=21)
    values = simulate_ensemble(paper_params, plan, paper_params.omega_calib)
    omegas = estimate_frequencies(values, plan.times, paper_params, grid)
    rel_err = (omegas - paper_params.omega_calib) / paper_params.omega_calib
    assert np.all(np.abs(rel_err) < 0.02)
    assert np.std(rel_err) > 0.0


def test_zero_trace_rejected(paper_params, short_plan):
    trace = PLTrace(times=short_plan.times, values=np.zeros(short_plan.n_samples),
                    params=paper_params, plan=short_plan)
    grid = FrequencyGrid.around(paper_params.omega_calib)
    with pytest.raises(FrequencySearchError, match="constant"):
        estimate_template_frequency(trace, paper_params, grid)


def test_boundary_maximum_rejected(paper_params):
    plan = AcquisitionPlan(0.2e-6, 3.7e-6, 128e6, 25000, 20, seed=1)
    omega_star = paper_params.omega_calib
    trace = _template_trace(paper_params, plan, omega_star)
    # grid starting just above the true frequency: R decreases from the
    # left edge, so the discrete maximum lands on the boundary
    grid = FrequencyGrid(omega_star * 1.001, omega_star * 1.1, 101)
    with pytest.raises(FrequencySearchError, match="boundary"):
        estimate_template_frequency(trace, paper_params, grid)


def test_batch_estimates_match_single(paper_params, short_plan):
    plan = short_plan.with_(n_experiments=6, seed=9)
    values = simulate_ensemble(paper_params, plan, paper_params.omega_calib)
    grid = FrequencyGrid.around(paper_params.omega_calib, 0.15, 501)
    batch = estimate_frequencies(values, plan.times, paper_params, grid)
    for i in range(values.shape[0]):
        trace = PLTrace(times=plan.times, values=values[i], params=paper_params, plan=plan)
        single = estimate_template_frequency(trace, paper_params, grid)
        assert batch[i] == pytest.approx(single.omega_temp, rel=0, abs=0)


# ---------------------------------------------------------------------------
# margins
# ---------------------------------------------------------------------------

def test_margins_collapse_at_large_beta(paper_params, short_plan):
    omega = paper_params.omega_calib
    margins = build_margins(omega, 16.0, paper_params, short_plan, "bior6.8", levels=4)
    kernel = uwt_decompose(template(short_plan.times, omega, paper_params), "bior6.8", 4)
    assert np.max(2.0 * margins.width * margins.noise_details) < 1e-9
    for k, dk in zip(margins.kernel_details, kernel.details):
        np.testing.assert_array_equal(k, dk)


def test_margins_huge_at_negative_beta(paper_params, short_plan):
    margins = build_margins(paper_params.omega_calib, -16.0, paper_params,
                            short_plan, "bior6.8", levels=4)
    assert np.min(2.0 * margins.width * margins.noise_details) > 1e3  # beyond any PL coefficient


def test_margin_width_formula_at_pi(paper_params):
    f_sample = 128e6
    k = 23
    omega = np.pi * f_sample / k  # puts omega * t exactly at pi on sample k
    plan = AcquisitionPlan(0.0, 64 / f_sample, f_sample, 25000, 10, seed=1)
    beta = 1.5
    margins = build_margins(omega, beta, paper_params, plan, "bior6.8", levels=4)
    expected = (10.0 ** (-beta) * np.sqrt(paper_params.n1)
                / np.sqrt(plan.duration * plan.repetitions * plan.f_sample))
    assert margins.width * shot_noise(plan.times[k], omega, paper_params) == \
        pytest.approx(expected, rel=1e-12)
    assert margin_width(beta, plan) == margins.width


def test_margin_width_limits(short_plan):
    assert margin_width(-np.inf, short_plan) == np.inf
    assert margin_width(np.inf, short_plan) == 0.0
    # 10**400 overflows a float: the width saturates instead of raising
    assert margin_width(-400.0, short_plan) == np.inf
    assert margin_width(np.float64(-400.0), short_plan) == np.inf


def test_margins_ordered(paper_params, short_plan):
    # K +/- width*|S| equals the min/max of the decomposed time-domain margins
    omega = paper_params.omega_calib
    margins = build_margins(omega, 0.0, paper_params, short_plan, "bior6.8", levels=5)
    assert np.all(margins.noise_details >= 0.0)
    scaled = margins.width * shot_noise(short_plan.times, omega, paper_params)
    kernel = template(short_plan.times, omega, paper_params)
    du, _ = uwt_analyze(kernel + scaled, "bior6.8", 5)
    dl, _ = uwt_analyze(kernel - scaled, "bior6.8", 5)
    half = margins.width * margins.noise_details
    np.testing.assert_allclose(margins.kernel_details + half, np.maximum(du, dl), atol=1e-14)
    np.testing.assert_allclose(margins.kernel_details - half, np.minimum(du, dl), atol=1e-14)


# ---------------------------------------------------------------------------
# hard clamp and denoising
# ---------------------------------------------------------------------------

def test_hard_clamp_cases():
    # interval 2 +/- 1 * 1 = [1, 3]
    assert clamp_details(5.0, 2.0, 1.0, 1.0) == 3.0
    assert clamp_details(2.0, 2.0, 1.0, 1.0) == 2.0
    assert clamp_details(0.0, 2.0, 1.0, 1.0) == 1.0
    # exact limits: infinite width is the identity even where |S| = 0,
    # zero width pins to the kernel
    raw = np.array([5.0, -7.0, 0.5])
    np.testing.assert_array_equal(clamp_details(raw, 2.0, np.array([1.0, 0.0, 2.0]), np.inf), raw)
    np.testing.assert_array_equal(clamp_details(raw, 2.0, 1.0, 0.0), [2.0, 2.0, 2.0])


def test_raw_limit_passthrough(paper_params, short_plan):
    trace = simulate_trace(paper_params, short_plan, paper_params.omega_calib, 0)
    margins = build_margins(paper_params.omega_calib, -16.0, paper_params,
                            short_plan, "bior6.8", levels=5)
    out = tmt_denoise(trace, margins, "bior6.8")
    rel = np.max(np.abs(out.values - trace.values)) / np.max(np.abs(trace.values))
    assert rel < 1e-10


@pytest.mark.parametrize("beta", [-4.0, 0.0, 4.0, 16.0])
def test_template_passthrough(paper_params, short_plan, beta):
    omega = paper_params.omega_calib * 1.01
    trace = _template_trace(paper_params, short_plan, omega)
    margins = build_margins(omega, beta, paper_params, short_plan, "bior6.8", levels=5)
    out = tmt_denoise(trace, margins, "bior6.8")
    np.testing.assert_allclose(out.values, trace.values, atol=1e-9)


def test_clamped_details_stay_inside_margins(paper_params, short_plan):
    trace = simulate_trace(paper_params, short_plan, paper_params.omega_calib, 2)
    margins = build_margins(paper_params.omega_calib, 0.5, paper_params,
                            short_plan, "bior6.8", levels=5)
    details, approx = uwt_analyze(trace.values, "bior6.8", 5)
    clamped = clamp_details(details, margins.kernel_details, margins.noise_details, margins.width)
    half = margins.width * margins.noise_details
    assert np.all(clamped >= margins.kernel_details - half)
    assert np.all(clamped <= margins.kernel_details + half)
    assert np.any(clamped[0] != details[0])  # something was clamped
    # the approximation band is exempt: denoising keeps the raw trace mean
    out = tmt_denoise(trace, margins, "bior6.8")
    assert np.mean(out.values) == pytest.approx(np.mean(trace.values), rel=1e-12)


@pytest.fixture(scope="module")
def ensemble_run(paper_params):
    plan = AcquisitionPlan(0.97e-6, 1.75e-6, 128e6, 25000, 8, seed=77)
    return EnsembleRun(BenchmarkSetup(params=paper_params, plan=plan,
                                      omega_true=paper_params.omega_calib, n_sd=2))


@pytest.mark.parametrize("beta", [-np.inf, -400.0, -4.0, 0.0, 2.0, np.inf])
def test_ensemble_and_per_trace_paths_agree(ensemble_run, paper_params, beta):
    run = ensemble_run
    setup = run.setup
    batch = run.denoised(beta)
    assert not np.any(np.isnan(batch))
    for i in range(run.values.shape[0]):
        trace = PLTrace(times=run.times, values=run.values[i], params=paper_params,
                        plan=setup.plan)
        margins = build_margins(run.omega_temps[i], beta, paper_params, setup.plan,
                                setup.basis, run.levels, setup.boundary)
        single = tmt_denoise(trace, margins, setup.basis).values
        assert not np.any(np.isnan(single))
        assert np.max(np.abs(single - batch[i])) < 1e-12
        if beta < -300.0:  # the raw limit, criterion 4's bound
            rel = np.max(np.abs(single - trace.values)) / np.max(np.abs(trace.values))
            assert rel < 1e-10


def test_denoise_mismatch_errors(paper_params, short_plan):
    trace = simulate_trace(paper_params, short_plan, paper_params.omega_calib, 0)
    margins = build_margins(paper_params.omega_calib, 0.0, paper_params,
                            short_plan, "bior6.8", levels=5)
    with pytest.raises(ValueError, match="basis"):
        tmt_denoise(trace, margins, "haar")
    other_plan = short_plan.with_(t_stop=2.14e-6)
    other = simulate_trace(paper_params, other_plan, paper_params.omega_calib, 0)
    with pytest.raises(ValueError, match="grid"):
        tmt_denoise(other, margins, "bior6.8")


def test_pipeline_reduces_variance_at_detection_points(paper_params, short_plan):
    from tmtmag import find_detection_points

    omega = paper_params.omega_calib
    plan = short_plan.with_(n_experiments=40, seed=99)
    points = find_detection_points(omega, plan, 2, paper_params)
    raw_at_points, tmt_at_points = [], []
    for i in range(plan.n_experiments):
        trace = simulate_trace(paper_params, plan, omega, i)
        out, est = denoise_pipeline(trace, paper_params, plan, beta=0.0, basis="bior6.8")
        raw_at_points.append(trace.values[points.indices])
        tmt_at_points.append(out.values[points.indices])
    raw_var = np.var(np.array(raw_at_points), axis=0)
    tmt_var = np.var(np.array(tmt_at_points), axis=0)
    assert np.all(tmt_var < raw_var)


def test_pipeline_determinism(paper_params, short_plan):
    trace = simulate_trace(paper_params, short_plan, paper_params.omega_calib, 5)
    out1, est1 = denoise_pipeline(trace, paper_params, short_plan, 0.0, "bior6.8")
    out2, est2 = denoise_pipeline(trace, paper_params, short_plan, 0.0, "bior6.8")
    np.testing.assert_array_equal(out1.values, out2.values)
    assert est1.omega_temp == est2.omega_temp
