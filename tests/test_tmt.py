"""Frequency estimation, margin construction, and hard-clamp denoising."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tmtmag import (
    AcquisitionPlan,
    BenchmarkSetup,
    FrequencyGrid,
    FrequencySearchError,
    build_margins,
    denoise_pipeline,
    estimate_frequencies,
    margin_width,
    shot_noise,
    simulate_ensemble,
    template,
    tmt_denoise,
)
from tmtmag.bench import EnsembleRun
from tmtmag.tmt import clamp_details
from tmtmag.wavelets import uwt_analyze


# ---------------------------------------------------------------------------
# frequency estimation
# ---------------------------------------------------------------------------

def test_grid_validation():
    with pytest.raises(ValueError):
        FrequencyGrid(2.0, 1.0)
    with pytest.raises(ValueError):
        FrequencyGrid(1.0, 2.0, n_points=2)
    # linspace needs an integer count; a float or a bool is caught at construction
    for bad in (3.5, 3.0, True):
        with pytest.raises(ValueError, match="n_points must be an integer"):
            FrequencyGrid(1.0, 2.0, n_points=bad)
    grid = FrequencyGrid.around(1e7, fraction=0.1, n_points=11)
    assert grid.omegas.size == 11
    np.testing.assert_allclose(grid.omegas[[0, -1]], [0.9e7, 1.1e7])
    # an infinite bound would make the omegas [nan, inf, ...], and the search
    # would then report a grid-edge maximum at omega=nan
    for bad in (np.nan, np.inf, -np.inf):
        for bounds in ((bad, 2.0), (1.0, bad)):
            with pytest.raises(ValueError, match="omega_min and omega_max must be finite"):
                FrequencyGrid(*bounds)


def test_noiseless_estimate_recovers_frequency(paper_params):
    # with enough fringes in the window the correlation peaks at the true
    # frequency; short windows bias the unnormalized peak (tested below)
    plan = AcquisitionPlan(0.2e-6, 3.7e-6, 128e6, 25000, 20, seed=1)
    omega_star = paper_params.omega_calib * 1.004
    trace = template(plan.times, omega_star, paper_params)
    grid = FrequencyGrid.around(paper_params.omega_calib, 0.15, 2001)
    omega_temp = estimate_frequencies(trace, plan.times, paper_params, grid)
    assert abs(omega_temp - omega_star) < grid.step


def test_estimator_offset_is_small_but_nonzero(paper_params, short_plan):
    # the 100-sample window holds only ~2 fringes; even noiselessly the
    # unnormalized correlation peak sits slightly off the true frequency,
    # and noise scatters the per-trace estimates around that offset
    noiseless = template(short_plan.times, paper_params.omega_calib, paper_params)
    grid = FrequencyGrid.around(paper_params.omega_calib, 0.15, 2001)
    omega_temp = estimate_frequencies(noiseless, short_plan.times, paper_params, grid)
    det_offset = (omega_temp - paper_params.omega_calib) / paper_params.omega_calib
    assert 0.0 < abs(det_offset) < 0.01

    plan = short_plan.with_(n_experiments=50, seed=21)
    values = simulate_ensemble(paper_params, plan, paper_params.omega_calib)
    omegas = estimate_frequencies(values, plan.times, paper_params, grid)
    rel_err = (omegas - paper_params.omega_calib) / paper_params.omega_calib
    assert np.all(np.abs(rel_err) < 0.02)
    assert np.std(rel_err) > 0.0


def test_zero_trace_rejected(paper_params, short_plan):
    grid = FrequencyGrid.around(paper_params.omega_calib)
    with pytest.raises(FrequencySearchError, match="constant"):
        estimate_frequencies(np.zeros(short_plan.n_samples), short_plan.times, paper_params,
                             grid)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_trace_rejected(paper_params, short_plan, bad):
    # argmax of a NaN spectrum row is 0, which looked like a grid-boundary miss
    values = simulate_ensemble(paper_params, short_plan.with_(n_experiments=3),
                               paper_params.omega_calib)
    values[1, 7] = bad
    grid = FrequencyGrid.around(paper_params.omega_calib)
    with pytest.raises(FrequencySearchError, match="trace 1: non-finite sample .* index 7"):
        estimate_frequencies(values, short_plan.times, paper_params, grid)


def test_boundary_maximum_rejected(paper_params):
    plan = AcquisitionPlan(0.2e-6, 3.7e-6, 128e6, 25000, 20, seed=1)
    omega_star = paper_params.omega_calib
    trace = template(plan.times, omega_star, paper_params)
    # grid starting just above the true frequency: R decreases from the
    # left edge, so the discrete maximum lands on the boundary
    grid = FrequencyGrid(omega_star * 1.001, omega_star * 1.1, 101)
    with pytest.raises(FrequencySearchError, match="boundary"):
        estimate_frequencies(trace, plan.times, paper_params, grid)


@pytest.mark.parametrize("rows,message", [
    (("good", "good", "constant"), "trace 2: constant"),
    (("good", "edge", "good"), "trace 1: correlation maximum at the grid boundary"),
    (("good", "constant", "edge"), "trace 1: constant"),
    (("good", "edge", "constant"), "trace 1: correlation maximum at the grid boundary"),
])
def test_first_failing_trace_is_named(paper_params, rows, message):
    # trace 0 is fine; the first bad trace in order is named, and a
    # constant trace (whose flat spectrum also peaks on the edge) is
    # reported as constant
    plan = AcquisitionPlan(0.2e-6, 3.7e-6, 128e6, 25000, 20, seed=1)
    omega_star = paper_params.omega_calib
    grid = FrequencyGrid(omega_star * 1.001, omega_star * 1.1, 101)
    traces = {"good": template(plan.times, omega_star * 1.05, paper_params),
              "edge": template(plan.times, omega_star, paper_params),
              "constant": np.full(plan.n_samples, 0.3)}
    values = np.stack([traces[row] for row in rows])
    with pytest.raises(FrequencySearchError, match=message):
        estimate_frequencies(values, plan.times, paper_params, grid)


def test_batch_estimates_match_single(paper_params, short_plan):
    plan = short_plan.with_(n_experiments=6, seed=9)
    values = simulate_ensemble(paper_params, plan, paper_params.omega_calib)
    grid = FrequencyGrid.around(paper_params.omega_calib, 0.15, 501)
    batch = estimate_frequencies(values, plan.times, paper_params, grid)
    for i in range(values.shape[0]):
        single = estimate_frequencies(values[i], plan.times, paper_params, grid)
        assert single.shape == ()
        assert batch[i] == single
    # any batch shape is searched as its row-major flattening
    nested = estimate_frequencies(values.reshape(2, 3, -1), plan.times, paper_params, grid)
    assert nested.shape == (2, 3)
    np.testing.assert_array_equal(nested, batch.reshape(2, 3))


# ---------------------------------------------------------------------------
# margins
# ---------------------------------------------------------------------------

def test_margins_collapse_at_large_beta(paper_params, short_plan):
    omega = paper_params.omega_calib
    kernel_details, noise_details = build_margins(omega, paper_params, short_plan, "bior6.8", 4)
    kernel, _ = uwt_analyze(template(short_plan.times, omega, paper_params), "bior6.8", 4)
    assert np.max(2.0 * margin_width(16.0, short_plan) * noise_details) < 1e-9
    np.testing.assert_array_equal(kernel_details, kernel)


def test_margins_huge_at_negative_beta(paper_params, short_plan):
    _, noise_details = build_margins(paper_params.omega_calib, paper_params, short_plan,
                                     "bior6.8", 4)
    # beyond any PL coefficient
    assert np.min(2.0 * margin_width(-16.0, short_plan) * noise_details) > 1e3


def test_margin_width_formula_at_pi(paper_params):
    f_sample = 128e6
    k = 23
    omega = np.pi * f_sample / k  # puts omega * t exactly at pi on sample k
    plan = AcquisitionPlan(0.0, 64 / f_sample, f_sample, 25000, 10, seed=1)
    beta = 1.5
    expected = (10.0 ** (-beta) * np.sqrt(paper_params.n1)
                / np.sqrt(plan.duration * plan.repetitions * plan.f_sample))
    assert margin_width(beta, plan) * shot_noise(plan.times[k], omega, paper_params) == \
        pytest.approx(expected, rel=1e-12)


def test_margin_width_limits(short_plan):
    assert margin_width(-np.inf, short_plan) == np.inf
    assert margin_width(np.inf, short_plan) == 0.0
    # 10**400 overflows a float: the width saturates instead of raising
    assert margin_width(-400.0, short_plan) == np.inf
    assert margin_width(np.float64(-400.0), short_plan) == np.inf


def test_margins_ordered(paper_params, short_plan):
    # K +/- width*|S| equals the min/max of the decomposed time-domain margins
    omega = paper_params.omega_calib
    kernel_details, noise_details = build_margins(omega, paper_params, short_plan, "bior6.8", 5)
    assert np.all(noise_details >= 0.0)
    width = margin_width(0.0, short_plan)
    scaled = width * shot_noise(short_plan.times, omega, paper_params)
    kernel = template(short_plan.times, omega, paper_params)
    du, _ = uwt_analyze(kernel + scaled, "bior6.8", 5)
    dl, _ = uwt_analyze(kernel - scaled, "bior6.8", 5)
    half = width * noise_details
    np.testing.assert_allclose(kernel_details + half, np.maximum(du, dl), atol=1e-14)
    np.testing.assert_allclose(kernel_details - half, np.minimum(du, dl), atol=1e-14)


def test_margins_batch_shape(paper_params, short_plan):
    # an array of frequencies gives one margin stack per entry, equal to the scalar call
    omegas = paper_params.omega_calib * np.array([[0.99, 1.0, 1.02], [1.01, 0.98, 1.0]])
    kernel_details, noise_details = build_margins(omegas, paper_params, short_plan,
                                                  "bior6.8", 4, squared_contrast=True)
    assert kernel_details.shape == noise_details.shape == (5, 2, 3, short_plan.n_samples)
    k, s = build_margins(omegas[1, 2], paper_params, short_plan, "bior6.8", 4,
                         squared_contrast=True)
    assert k.shape == (5, short_plan.n_samples)
    np.testing.assert_array_equal(kernel_details[:, 1, 2], k)
    np.testing.assert_array_equal(noise_details[:, 1, 2], s)


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
    trace = simulate_ensemble(paper_params, short_plan, paper_params.omega_calib)[0]
    out = tmt_denoise(trace, paper_params.omega_calib, -16.0, paper_params,
                      short_plan, "bior6.8", levels=5)
    rel = np.max(np.abs(out - trace)) / np.max(np.abs(trace))
    assert rel < 1e-10


@pytest.mark.parametrize("beta", [-4.0, 0.0, 4.0, 16.0])
def test_template_passthrough(paper_params, short_plan, beta):
    omega = paper_params.omega_calib * 1.01
    trace = template(short_plan.times, omega, paper_params)
    out = tmt_denoise(trace, omega, beta, paper_params, short_plan, "bior6.8", levels=5)
    np.testing.assert_allclose(out, trace, atol=1e-9)


def test_clamped_details_stay_inside_margins(paper_params, short_plan):
    omega = paper_params.omega_calib
    trace = simulate_ensemble(paper_params, short_plan, omega)[2]
    kernel_details, noise_details = build_margins(omega, paper_params, short_plan, "bior6.8", 5)
    width = margin_width(0.5, short_plan)
    details, approx = uwt_analyze(trace, "bior6.8", 5)
    clamped = clamp_details(details, kernel_details, noise_details, width)
    half = width * noise_details
    assert np.all(clamped >= kernel_details - half)
    assert np.all(clamped <= kernel_details + half)
    assert np.any(clamped[0] != details[0])  # something was clamped
    # the approximation band is exempt: denoising keeps the raw trace mean
    out = tmt_denoise(trace, omega, 0.5, paper_params, short_plan, "bior6.8", levels=5)
    assert np.mean(out) == pytest.approx(np.mean(trace), rel=1e-12)


@pytest.fixture(scope="module")
def ensemble_run(paper_params):
    plan = AcquisitionPlan(0.97e-6, 1.75e-6, 128e6, 25000, 8, seed=77)
    return EnsembleRun(BenchmarkSetup(params=paper_params, plan=plan,
                                      omega_true=paper_params.omega_calib, n_sd=2))


def _denoise_like(run, values, omega_temps, beta):
    setup = run.setup
    return tmt_denoise(values, omega_temps, beta, setup.params, setup.plan, setup.basis,
                       run.levels)


@pytest.mark.parametrize("beta", [-np.inf, -400.0, -4.0, 0.0, 2.0, np.inf])
def test_ensemble_and_per_trace_paths_agree(ensemble_run, beta):
    run = ensemble_run
    batch = run.denoised(beta)
    assert not np.any(np.isnan(batch))
    np.testing.assert_array_equal(_denoise_like(run, run.values, run.omega_temps, beta), batch)
    for i in range(run.values.shape[0]):
        single = _denoise_like(run, run.values[i], run.omega_temps[i], beta)
        np.testing.assert_array_equal(single, batch[i])
        if beta < -300.0:  # the raw limit, criterion 4's bound
            rel = np.max(np.abs(single - run.values[i])) / np.max(np.abs(run.values[i]))
            assert rel < 1e-10


def test_scalar_frequency_broadcasts_over_traces(ensemble_run):
    run = ensemble_run
    batch = _denoise_like(run, run.values, run.omega_temps[0], 0.0)
    np.testing.assert_array_equal(batch[3], _denoise_like(run, run.values[3], run.omega_temps[0], 0.0))


@settings(max_examples=25, deadline=None)
@given(beta=st.one_of(st.sampled_from([-np.inf, np.inf]), st.floats(allow_nan=False)),
       row=st.integers(0, 7))
@example(beta=-np.inf, row=0)
@example(beta=-309.0, row=3)
@example(beta=np.inf, row=7)
def test_tmt_denoise_properties(ensemble_run, beta, row):
    run = ensemble_run
    values, omega = run.values[row], run.omega_temps[row]
    single = _denoise_like(run, values, omega, beta)
    np.testing.assert_array_equal(single, _denoise_like(run, run.values, run.omega_temps, beta)[row])
    clean = template(run.times, omega, run.setup.params)
    assert np.max(np.abs(_denoise_like(run, clean, omega, beta) - clean)) < 1e-9
    if beta <= -309.0:  # 10**(-beta) overflows: the raw limit
        assert np.max(np.abs(single - values)) / np.max(np.abs(values)) < 1e-10


@pytest.fixture(scope="module")
def ensemble_coeffs(ensemble_run):
    """Raw detail coefficients and margins ``(details, K, |S|)`` of the ensemble."""
    run, setup = ensemble_run, ensemble_run.setup
    details, _ = uwt_analyze(run.values, setup.basis, run.levels)
    kernel, noise = build_margins(run.omega_temps, setup.params, setup.plan, setup.basis,
                                  run.levels)
    return details, kernel, noise


@settings(max_examples=40, deadline=None)
@given(beta=st.floats(allow_nan=False, allow_infinity=False))
@example(beta=-309.0)
@example(beta=-308.0)
@example(beta=400.0)
def test_clamped_details_in_margin_property(ensemble_run, ensemble_coeffs, beta):
    details, kernel, noise = ensemble_coeffs
    width = margin_width(beta, ensemble_run.setup.plan)
    clamped = clamp_details(details, kernel, noise, width)
    if width == np.inf:  # 10**(-beta) overflows: the raw limit, even where |S| is 0
        np.testing.assert_array_equal(clamped, details)
        return
    half = width * noise
    assert np.all(clamped >= kernel - half)
    assert np.all(clamped <= kernel + half)


def test_clamp_raw_limit_returns_details_unchanged(ensemble_run, ensemble_coeffs):
    details, kernel, noise = ensemble_coeffs
    width = margin_width(-np.inf, ensemble_run.setup.plan)
    np.testing.assert_array_equal(clamp_details(details, kernel, noise, width), details)


def test_nan_beta_rejected(ensemble_run):
    # NaN is no filter order: it would make every denoised sample NaN
    run = ensemble_run
    with pytest.raises(ValueError, match="beta"):
        margin_width(np.nan, run.setup.plan)
    with pytest.raises(ValueError, match="beta"):
        _denoise_like(run, run.values, run.omega_temps, np.nan)
    with pytest.raises(ValueError, match="beta"):
        run.denoised(np.nan)
    with pytest.raises(ValueError, match="beta"):
        run.denoised(np.float64(np.nan), at_points=True)


def test_denoise_mismatch_errors(paper_params, short_plan):
    other_plan = short_plan.with_(t_stop=2.14e-6)
    other = simulate_ensemble(paper_params, other_plan, paper_params.omega_calib)[0]
    with pytest.raises(ValueError, match="grid"):
        tmt_denoise(other, paper_params.omega_calib, 0.0, paper_params, short_plan,
                    "bior6.8", levels=5)
    with pytest.raises(ValueError, match="grid"):
        denoise_pipeline(other, paper_params, short_plan, 0.0, "bior6.8")


def test_pipeline_reduces_variance_at_detection_points(paper_params, short_plan):
    from tmtmag import find_detection_points

    omega = paper_params.omega_calib
    plan = short_plan.with_(n_experiments=40, seed=99)
    points = find_detection_points(omega, plan, 2, paper_params)
    raw_at_points, tmt_at_points = [], []
    for trace in simulate_ensemble(paper_params, plan, omega):
        out, _ = denoise_pipeline(trace, paper_params, plan, beta=0.0, basis="bior6.8")
        raw_at_points.append(trace[points.indices])
        tmt_at_points.append(out[points.indices])
    raw_var = np.var(np.array(raw_at_points), axis=0)
    tmt_var = np.var(np.array(tmt_at_points), axis=0)
    assert np.all(tmt_var < raw_var)


def test_pipeline_determinism(paper_params, short_plan):
    trace = simulate_ensemble(paper_params, short_plan, paper_params.omega_calib)[5]
    out1, omega1 = denoise_pipeline(trace, paper_params, short_plan, 0.0, "bior6.8")
    out2, omega2 = denoise_pipeline(trace, paper_params, short_plan, 0.0, "bior6.8")
    np.testing.assert_array_equal(out1, out2)
    assert omega1 == omega2
