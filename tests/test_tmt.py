"""Frequency estimation, margin construction, and hard-clamp denoising."""

import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tmtmag import (
    AcquisitionPlan,
    BenchmarkSetup,
    FrequencyGrid,
    FrequencySearchError,
    SensorParams,
    default_beta_grid,
    estimate_frequencies,
    margin_width,
    shot_noise,
    simulate_ensemble,
    template,
    tmt_denoise,
)
from tmtmag import bench, tmt
from tmtmag.bench import EnsembleRun
from tmtmag.ramsey import envelope
from tmtmag.tmt import GridEdgeError, clamp_details, residual_chunks
from tmtmag.wavelets import uwt_analyze, uwt_synthesize


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
    with pytest.raises(GridEdgeError, match="boundary"):
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
    with pytest.raises(FrequencySearchError, match=message) as failure:
        estimate_frequencies(values, plan.times, paper_params, grid)
    assert isinstance(failure.value, GridEdgeError) == ("grid boundary" in message)


def test_batch_estimates_match_single(paper_params, short_plan):
    # the search reduces blocks of SPECTRUM_ROWS traces: two full blocks and
    # part of a third
    n = 2 * tmt.SPECTRUM_ROWS + 3
    plan = short_plan.with_(n_experiments=n, seed=9)
    values = simulate_ensemble(paper_params, plan, paper_params.omega_calib)
    grid = FrequencyGrid.around(paper_params.omega_calib, 0.15, 501)
    batch = estimate_frequencies(values, plan.times, paper_params, grid)
    for i in range(values.shape[0]):
        single = estimate_frequencies(values[i], plan.times, paper_params, grid)
        assert single.shape == ()
        assert batch[i] == single
    # any batch shape is searched as its row-major flattening
    nested = estimate_frequencies(values.reshape(5, 7, -1), plan.times, paper_params, grid)
    assert nested.shape == (5, 7)
    np.testing.assert_array_equal(nested, batch.reshape(5, 7))
    # a fringe at 1.5 omega_calib peaks on the grid's lower edge in this window;
    # in the third block it is still the one named, ahead of a later one
    edge = template(plan.times, 1.5 * paper_params.omega_calib, paper_params)
    bad = 2 * tmt.SPECTRUM_ROWS + 1
    values[bad] = values[-1] = edge
    with pytest.raises(FrequencySearchError, match=f"trace {bad}: correlation maximum at the "
                                                   f"grid boundary"):
        estimate_frequencies(values, plan.times, paper_params, grid)
    with pytest.raises(FrequencySearchError, match=f"trace {bad}: correlation maximum"):
        estimate_frequencies(values.reshape(5, 7, -1), plan.times, paper_params, grid)
    # every trace is checked for non-finite samples before any is searched
    values[-1, 3] = np.nan
    with pytest.raises(FrequencySearchError, match=f"trace {n - 1}: non-finite sample"):
        estimate_frequencies(values, plan.times, paper_params, grid)


def test_search_holds_no_spectrum_of_the_batch(paper_params):
    # the search reduces each block of SPECTRUM_ROWS traces to its maxima
    # before the next block is computed: its traced peak (the traces are made
    # before tracing starts) is flat in the number of traces.  A (n, G)
    # spectrum or a weighted copy of the traces, as the search once held,
    # would raise it fivefold from 128 to 1024 traces.
    grid = FrequencyGrid.around(paper_params.omega_calib, 0.15, 2001)
    peaks = {}
    for n in (128, 1024):
        plan = AcquisitionPlan(0.97e-6, 2.14e-6, 128e6, 25000, n, seed=5)
        values = simulate_ensemble(paper_params, plan, paper_params.omega_calib)
        estimate_frequencies(values[:2], plan.times, paper_params, grid)  # lazy imports
        tracemalloc.start()
        try:
            estimate_frequencies(values, plan.times, paper_params, grid)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[1024] < 1.05 * peaks[128], peaks


def full_search_argmax(values, times, params, grid):
    """Each trace's argmax over its full spectrum: the search's definition."""
    return np.argmax(tmt.correlation_spectrum(values, times, params, grid.omegas), axis=1)


def assert_search_is_the_full_argmax(values, times, params, grid):
    """The coarse-to-fine grid maximum of every trace is its full-spectrum argmax, and the
    search of that trace alone fails as the argmax says: a constant trace by name, an
    argmax on a grid end as a GridEdgeError, and otherwise not at all."""
    search = tmt._LobeSearch(times, params, grid)
    k, _ = search(values)
    full = full_search_argmax(values, times, params, grid)
    np.testing.assert_array_equal(k, full)
    for trace, top in zip(values, full):
        if np.ptp(trace) == 0.0:
            with pytest.raises(FrequencySearchError, match="constant trace"):
                estimate_frequencies(trace, times, params, grid)
        elif top in (0, grid.n_points - 1):
            with pytest.raises(GridEdgeError):
                estimate_frequencies(trace, times, params, grid)
        else:
            estimate_frequencies(trace, times, params, grid)
    return search


@settings(max_examples=60, deadline=None)
@given(t_start=st.floats(0.0, 2e-6), duration=st.floats(0.2e-6, 3.5e-6),
       repetitions=st.sampled_from([1, 3, 30, 1000, 25000, 400000]),
       n_points=st.integers(3, 6001), fraction=st.floats(0.01, 0.3),
       offset=st.floats(-1.2, 1.2), seed=st.integers(0, 2**32 - 1))
@example(t_start=0.97e-6, duration=1.17e-6, repetitions=25000, n_points=2001, fraction=0.15,
         offset=0.0, seed=7)
@example(t_start=0.2e-6, duration=0.42e-6, repetitions=25000, n_points=2001, fraction=0.15,
         offset=0.9, seed=7)
@example(t_start=0.2e-6, duration=3.5e-6, repetitions=30, n_points=2001, fraction=0.15,
         offset=0.99, seed=11)
@example(t_start=0.97e-6, duration=1.17e-6, repetitions=1, n_points=2001, fraction=0.15,
         offset=-1.0, seed=12)
def test_coarse_to_fine_search_finds_the_full_argmax(paper_params, t_start, duration,
                                                      repetitions, n_points, fraction, offset,
                                                      seed):
    # windows of 25 to 448 samples, repetition counts down to 1 (where a trace of
    # zeros is constant), grids from 3 points (the full search) to 6001, and
    # fringes inside, near and beyond a grid end
    plan = AcquisitionPlan(t_start, t_start + duration, 128e6, repetitions, 6, seed=seed)
    grid = FrequencyGrid.around(paper_params.omega_calib, fraction, n_points)
    omega = paper_params.omega_calib * (1.0 + offset * fraction)
    values = simulate_ensemble(paper_params, plan, omega)
    assert_search_is_the_full_argmax(values, plan.times, paper_params, grid)


def full_search_estimates(values, times, params, grid):
    """The parabolic vertices through each trace's full-spectrum argmax and its neighbours."""
    r = tmt.correlation_spectrum(values, times, params, grid.omegas)
    k = np.argmax(r, axis=1)
    r_lo, r_mid, r_hi = (r[np.arange(k.size), k + d] for d in (-1, 0, 1))
    denom = r_lo - 2.0 * r_mid + r_hi
    shift = np.divide(0.5 * (r_lo - r_hi), denom, out=np.zeros(k.size), where=denom != 0.0)
    omegas = grid.omegas
    return omegas[k] + shift * (omegas[1] - omegas[0])


@pytest.mark.parametrize("t_start,t_stop,n_points", [(0.97e-6, 1.75e-6, 101),
                                                     (0.2e-6, 3.7e-6, 301)])
def test_search_without_a_coarse_grid_is_the_full_search(paper_params, t_start, t_stop,
                                                          n_points):
    # a grid whose lobe spans fewer than 2 * LOBE_STEPS points (100 samples on 101
    # points), or whose coarse and window transforms would cost no less than the
    # full one (448 samples on 301 points), is searched on its full spectrum, and
    # the estimates are that spectrum's vertices bit for bit
    plan = AcquisitionPlan(t_start, t_stop, 128e6, 25000, 20, seed=4)
    grid = FrequencyGrid.around(paper_params.omega_calib, 0.15, n_points)
    assert tmt._LobeSearch(plan.times, paper_params, grid).coarse is None
    values = simulate_ensemble(paper_params, plan, paper_params.omega_calib * 1.02)
    np.testing.assert_array_equal(estimate_frequencies(values, plan.times, paper_params, grid),
                                  full_search_estimates(values, plan.times, paper_params, grid))


def test_coarse_to_fine_search_on_a_fine_grid(paper_params):
    # 100,001 trial frequencies, the most a config may ask for: the coarse grid
    # has 43 points, and the estimates are the full spectrum's parabolic vertices
    plan = AcquisitionPlan(0.97e-6, 2.14e-6, 128e6, 25000, 8, seed=3)
    grid = FrequencyGrid.around(paper_params.omega_calib, 0.15, 100_001)
    values = simulate_ensemble(paper_params, plan, paper_params.omega_calib * 1.02)
    search = assert_search_is_the_full_argmax(values, plan.times, paper_params, grid)
    assert search.coarse is not None and search.coarse.width == 43
    np.testing.assert_allclose(estimate_frequencies(values, plan.times, paper_params, grid),
                               full_search_estimates(values, plan.times, paper_params, grid),
                               rtol=1e-12, atol=0)


def test_search_takes_the_coarse_path_on_the_workload_grids(paper_params):
    # the frequency grid of every preset has 2001 points; each of these windows
    # is searched coarse to fine, with no trace sent back to the full spectrum
    grid = FrequencyGrid.around(paper_params.omega_calib, 0.15, 2001)
    for t_start, t_stop in ((0.97e-6, 2.14e-6), (0.2e-6, 3.7e-6), (0.2e-6, 0.62e-6)):
        plan = AcquisitionPlan(t_start, t_stop, 128e6, 25000, 40, seed=7)
        values = simulate_ensemble(paper_params, plan, paper_params.omega_calib * 1.02)
        search = assert_search_is_the_full_argmax(values, plan.times, paper_params, grid)
        assert search.coarse is not None and search.full is None


def test_zero_dimensional_values_rejected_by_search(paper_params, short_plan):
    # a 0-d value raised IndexError from values.shape[-1]
    grid = FrequencyGrid.around(paper_params.omega_calib)
    with pytest.raises(FrequencySearchError, match="values"):
        estimate_frequencies(np.float64(0.2), short_plan.times, paper_params, grid)


def test_values_not_matching_times_rejected_by_search(paper_params, short_plan):
    # a batch whose last axis is not len(times) failed in numpy's broadcast
    values = simulate_ensemble(paper_params, short_plan.with_(n_experiments=2),
                               paper_params.omega_calib)
    grid = FrequencyGrid.around(paper_params.omega_calib)
    with pytest.raises(FrequencySearchError, match=r"values of shape \(2, 100\).* 99 samples of times"):
        estimate_frequencies(values, short_plan.times[:99], paper_params, grid)


# ---------------------------------------------------------------------------
# correlation spectrum: chirp-z transform against two oracles
# ---------------------------------------------------------------------------

def einsum_operands(values, times, params, omegas):
    """The centred trapezoid-weighted traces ``u`` (n_traces, N) and the
    (G, N) kernel ``k`` of DC-removed templates, whose product is the spectrum."""
    dt = times[1] - times[0]
    weights = np.full(times.size, dt)
    weights[0] = weights[-1] = 0.5 * dt
    kernel = template(times[None, :], omegas[:, None], params)
    kernel = kernel - kernel.mean(axis=1, keepdims=True)
    return (values - values.mean(axis=1, keepdims=True)) * weights, kernel


def einsum_spectrum(values, times, params, omegas):
    """The spectrum as a (G, N) kernel of DC-removed templates and one einsum."""
    return np.einsum("en,gn->eg", *einsum_operands(values, times, params, omegas),
                     optimize=False)


def exact_spectrum(values, times, params, omegas):
    """The spectrum of the float inputs summed with 40 significant digits."""
    mpf = mpmath.mpf
    with mpmath.workdps(40):
        n = len(times)
        dt = (mpf(times[-1]) - mpf(times[0])) / (n - 1)
        weights = [dt / 2] + [dt] * (n - 2) + [dt / 2]
        n0, n1 = mpf(params.n0), mpf(params.n1)
        env = [mpmath.exp(-(mpf(t) / mpf(params.t2_star)) ** mpf(params.decay_power))
               for t in times]
        kernel = []
        for omega in omegas:
            row = [(1 + mpmath.cos(mpf(omega) * mpf(t)) * decay) / 2 * (n0 - n1) + n1
                   for t, decay in zip(times, env)]
            mean = mpmath.fsum(row) / n
            kernel.append([k - mean for k in row])
        out = np.empty((len(values), len(omegas)))
        for e, trace in enumerate(values):
            mean = mpmath.fsum(mpf(v) for v in trace) / n
            u = [(mpf(v) - mean) * w for v, w in zip(trace, weights)]
            out[e] = [float(mpmath.fsum(a * b for a, b in zip(u, row))) for row in kernel]
    return out


def scipy_czt_spectrum(values, times, params, omegas):
    """The spectrum from ``scipy.signal.czt`` of the weighted trace and of the envelope."""
    from scipy.signal import czt

    n, dt = times.size, times[1] - times[0]
    weights = np.full(n, dt)
    weights[0] = weights[-1] = 0.5 * dt
    env = envelope(times, params)

    def overlap(x):  # Re sum_n x_n exp(i omega_g t_n), as sum_n x_n a**-n w**(n g)
        z = czt(x, omegas.size, w=np.exp(1j * (omegas[1] - omegas[0]) * dt),
                a=np.exp(-1j * omegas[0] * dt))
        return (z * np.exp(1j * omegas * times[0])).real

    weighted = (values - values.mean(axis=1, keepdims=True)) * weights
    mean_template = overlap(env) / n
    return 0.5 * (params.n0 - params.n1) * (
        overlap(weighted * env) - weighted.sum(axis=1, keepdims=True) * mean_template)


def assert_spectrum_close(r, oracle, rtol=1e-11, scale=None):
    """Agreement within ``rtol * scale`` per trace, and the oracle's value at
    each trace's new argmax within that tolerance of the oracle's maximum.
    ``scale`` is one value per trace, by default ``max|oracle|``."""
    if scale is None:
        scale = np.abs(oracle).max(axis=1)
    assert np.all(np.abs(r - oracle).max(axis=1) <= rtol * scale)
    at_argmax = oracle[np.arange(r.shape[0]), r.argmax(axis=1)]
    assert np.all(oracle.max(axis=1) - at_argmax <= rtol * scale)


def spectrum_case(n, g, lo, width, t_start, contrast, n_ave, t2_scale, decay_power, noise, seed):
    """Three noisy fringes on ``n`` samples at 128 MHz from ``t_start``, and
    ``g`` trial frequencies; grid bounds are fractions of the angular Nyquist
    frequency pi * f_sample, and the noise a fraction of the fringe amplitude."""
    f_sample = 128e6
    times = t_start + np.arange(n) / f_sample
    nyquist = np.pi * f_sample
    omegas = np.linspace(lo * nyquist, (lo + width * (0.999 - lo)) * nyquist, g)
    params = SensorParams.from_contrast(contrast, n_ave, t2_scale * times[-1], decay_power,
                                        b_calib=100e-6)
    rng = np.random.default_rng(seed)
    amplitude = 0.5 * (params.n0 - params.n1)
    values = (template(times, rng.uniform(omegas[0], omegas[-1]), params)
              + noise * amplitude * rng.standard_normal((3, n)))
    return values, times, params, omegas


#: four samples 23 ns long on a slow fringe: the spectrum nearly cancels
CANCELLING_CASE = dict(n=4, g=3, lo=0.015625, width=0.0078125, t_start=4.757073763551737e-06,
                       contrast=0.03125, n_ave=1.0, t2_scale=1.0, decay_power=1.0, noise=0.3,
                       seed=24)


@settings(max_examples=50, deadline=None)
@given(n=st.integers(4, 600), g=st.integers(3, 4001),
       lo=st.floats(0.001, 0.99), width=st.floats(0.001, 1.0),
       t_start=st.floats(0.0, 5e-6), contrast=st.floats(0.01, 0.99),
       n_ave=st.floats(0.01, 10.0), t2_scale=st.floats(1.0, 20.0),
       decay_power=st.floats(1.0, 4.0), noise=st.sampled_from([0.0, 0.01, 0.3]),
       seed=st.integers(0, 2**32 - 1))
@example(n=448, g=2001, lo=0.031, width=0.0062, t_start=0.97e-6, contrast=0.2143,
         n_ave=0.196, t2_scale=1.0, decay_power=2.0, noise=0.3, seed=7)
@example(n=571, g=6, lo=0.0325, width=1.0, t_start=5e-6, contrast=0.28, n_ave=7.43,
         t2_scale=7.42, decay_power=3.09, noise=0.3, seed=3834129984)
@example(**CANCELLING_CASE)
@example(n=4, g=136, lo=0.001953125, width=0.001953125, t_start=0.0, contrast=0.125, n_ave=1.0,
         t2_scale=7.0, decay_power=4.0, noise=0.01, seed=1)
@example(n=4, g=501, lo=0.0078125, width=0.00390625, t_start=0.0, contrast=0.015625, n_ave=1.0,
         t2_scale=4.0, decay_power=4.0, noise=0.01, seed=1)
@example(n=4, g=2800, lo=0.001, width=0.001, t_start=0.0, contrast=0.5, n_ave=1.0,
         t2_scale=8.0, decay_power=4.0, noise=0.3, seed=1)
def test_spectrum_matches_einsum_oracle(n, g, lo, width, t_start, contrast, n_ave, t2_scale,
                                        decay_power, noise, seed):
    # The oracle's template carries the constant n1 + A, so its own rounding,
    # relative to max|r|, grows as the fringe fades: T2* is at least the
    # window's end, and the noise is a fraction of the fringe amplitude A.
    # The second example has 571 samples on 6 frequencies, where unreduced
    # chirp phases (1e5 rad) cost 3e-11 of max|r|.
    # The einsum's rounding error scales with the sum of its terms'
    # magnitudes, not with max|r|: 1.03 times max|r| on the workload-shaped
    # first example, up to 33 times on the cancelling third.  On the fourth
    # and fifth it exceeds the bound itself: 1.15e-11 and 1.13e-11 of that sum
    # from the exact spectrum, where the library is 1.85e-12 and 3.2e-13 from
    # it.  The last spans 0.019 rad of a slow fringe in 23 ns, so the spectrum
    # is a small remainder of its terms; it is within the bound only because
    # the window means come off the trace, not the template.  So
    # a frequency at which the two disagree by more than the bound is settled
    # by the exact sum, within the same bound.
    values, times, params, omegas = spectrum_case(n, g, lo, width, t_start, contrast, n_ave,
                                                  t2_scale, decay_power, noise, seed)
    r = tmt.correlation_spectrum(values, times, params, omegas)
    u, kernel = einsum_operands(values, times, params, omegas)
    oracle = np.einsum("en,gn->eg", u, kernel, optimize=False)
    scale = np.einsum("en,gn->eg", np.abs(u), np.abs(kernel), optimize=False).max(axis=1)
    disputed = np.flatnonzero((np.abs(r - oracle) > 1e-11 * scale[:, None]).any(axis=0))
    oracle[:, disputed] = exact_spectrum(values, times, params, omegas[disputed])
    assert_spectrum_close(r, oracle, scale=scale)


def test_cancelling_spectrum_matches_the_exact_sum():
    # the case where the einsum oracle is off by 1.2e-11 of max|r|
    values, times, params, omegas = spectrum_case(**CANCELLING_CASE)
    r = tmt.correlation_spectrum(values, times, params, omegas)
    assert_spectrum_close(r, exact_spectrum(values, times, params, omegas))


@pytest.mark.parametrize("t_start,t_stop", [(0.97e-6, 1.39e-6), (0.97e-6, 2.14e-6),
                                            (0.2e-6, 3.7e-6)])
@pytest.mark.parametrize("n_omegas", [101, 2001])
def test_spectrum_matches_scipy_czt(paper_params, t_start, t_stop, n_omegas):
    # scipy raises a complex w, of modulus 1 only to rounding, to the powers
    # k**2 / 2, so its own error grows with the grid (up to 1.9e-10 of
    # max|r| on random grids of up to 4001 points); it is checked on the
    # workloads' grids
    pytest.importorskip("scipy.signal")
    plan = AcquisitionPlan(t_start, t_stop, 128e6, 25000, 20, seed=3)
    values = simulate_ensemble(paper_params, plan, paper_params.omega_calib * 1.02)
    omegas = FrequencyGrid.around(paper_params.omega_calib, 0.15, n_omegas).omegas
    r = tmt.correlation_spectrum(values, plan.times, paper_params, omegas)
    assert_spectrum_close(r, scipy_czt_spectrum(values, plan.times, paper_params, omegas))
    assert_spectrum_close(r, einsum_spectrum(values, plan.times, paper_params, omegas))


def test_spectrum_rows_do_not_depend_on_the_batch(paper_params, short_plan):
    # rows go through the FFTs in chunks; a row's bits must not depend on its chunk
    values = simulate_ensemble(paper_params, short_plan.with_(n_experiments=70),
                               paper_params.omega_calib)
    omegas = FrequencyGrid.around(paper_params.omega_calib, 0.15, 301).omegas
    batch = tmt.correlation_spectrum(values, short_plan.times, paper_params, omegas)
    for i in (0, tmt.SPECTRUM_ROWS - 1, tmt.SPECTRUM_ROWS, 69):
        single = tmt.correlation_spectrum(values[i:i + 1], short_plan.times, paper_params, omegas)
        np.testing.assert_array_equal(single[0], batch[i])
        # one trace is a batch of one: a 1-D trace gives its row as a 1-D spectrum
        one = tmt.correlation_spectrum(values[i], short_plan.times, paper_params, omegas)
        np.testing.assert_array_equal(one, batch[i])
    # any (..., N) batch gives the (..., G) spectrum of its traces
    nested = tmt.correlation_spectrum(values.reshape(2, 35, -1), short_plan.times, paper_params,
                                      omegas)
    np.testing.assert_array_equal(nested, batch.reshape(2, 35, -1))
    # a one-frequency grid (step 0) gives that frequency's column of the spectrum
    column = tmt.correlation_spectrum(values, short_plan.times, paper_params, omegas[150:151])
    assert_spectrum_close(column, batch[:, 150:151], scale=np.abs(batch).max(axis=1))


def test_non_uniform_grids_rejected(paper_params, short_plan):
    times = short_plan.times
    omegas = FrequencyGrid.around(paper_params.omega_calib, 0.15, 201).omegas
    values = template(times, paper_params.omega_calib, paper_params)[None, :]
    bent = times.copy()
    bent[5] += 1e-6 * (times[1] - times[0])
    with pytest.raises(FrequencySearchError, match="times must be a uniform grid"):
        tmt.correlation_spectrum(values, bent, paper_params, omegas)
    geometric = np.geomspace(omegas[0], omegas[-1], omegas.size)
    with pytest.raises(FrequencySearchError, match="omegas must be a uniform grid"):
        tmt.correlation_spectrum(values, times, paper_params, geometric)
    with pytest.raises(FrequencySearchError, match="omegas must be 1-D"):
        tmt.correlation_spectrum(values, times, paper_params, omegas[None, :])
    with pytest.raises(FrequencySearchError, match="trace too short"):
        tmt.correlation_spectrum(values[:, :1], times[:1], paper_params, omegas)


# ---------------------------------------------------------------------------
# margins
# ---------------------------------------------------------------------------

def _stage(values, omega_temps, params, plan, basis, levels, **kwargs):
    """The residual details and ``|S|`` that :func:`residual_chunks` yields for
    the (n, N) traces ``values``, its chunks joined along the trace axis."""
    chunks = list(residual_chunks(values, omega_temps, params, plan, basis, levels, **kwargs))
    return tuple(np.concatenate([chunk[i] for chunk in chunks], axis=1) for i in (1, 2))


def test_margins_collapse_at_large_beta(paper_params, short_plan):
    # the margins close on the template: the clip interval of the residual
    # shrinks to nothing around zero
    omega = paper_params.omega_calib
    clean = template(short_plan.times, omega, paper_params)
    details, noise_details = _stage(clean[None], [omega], paper_params, short_plan,
                                    "bior6.8", 4)
    assert np.max(2.0 * margin_width(16.0, short_plan) * noise_details) < 1e-9
    # the residual is formed against the template itself: a clean trace leaves none
    np.testing.assert_array_equal(details, 0.0)


def test_margins_huge_at_negative_beta(paper_params, short_plan):
    omega = paper_params.omega_calib
    _, noise_details = _stage(template(short_plan.times, omega, paper_params)[None], [omega],
                              paper_params, short_plan, "bior6.8", 4)
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
    # one power for every input: a Python float and a numpy scalar give bit-equal widths
    grid = default_beta_grid()
    as_float = np.array([margin_width(float(beta), short_plan) for beta in grid])
    as_numpy = np.array([margin_width(np.float64(beta), short_plan) for beta in grid])
    np.testing.assert_array_equal(as_float.view(np.int64), as_numpy.view(np.int64))


def test_margins_ordered(paper_params, short_plan):
    # the residual's clip interval +/- width*|S|, shifted by the template's
    # coefficients K, equals the min/max of the decomposed time-domain margins
    omega = paper_params.omega_calib
    templates = template(short_plan.times, omega, paper_params)
    noise_details = _stage(templates[None], [omega], paper_params, short_plan, "bior6.8",
                           5)[1][:, 0]
    assert np.all(noise_details >= 0.0)
    width = margin_width(0.0, short_plan)
    scaled = width * shot_noise(short_plan.times, omega, paper_params)
    kernel_details, _ = uwt_analyze(templates, "bior6.8", 5)
    du, _ = uwt_analyze(templates + scaled, "bior6.8", 5)
    dl, _ = uwt_analyze(templates - scaled, "bior6.8", 5)
    big = np.full_like(noise_details, np.inf)
    hi = kernel_details + clamp_details(big, noise_details, width)
    lo = kernel_details + clamp_details(-big, noise_details, width)
    np.testing.assert_allclose(hi, np.maximum(du, dl), atol=1e-14)
    np.testing.assert_allclose(lo, np.minimum(du, dl), atol=1e-14)


def test_margins_batch_shape(paper_params, short_plan):
    # a batch of traces gives one coefficient stack per trace, equal to the
    # batch of one and to the analysis of the shot-noise profile itself
    n = short_plan.n_samples
    omegas = paper_params.omega_calib * np.array([0.99, 1.0, 1.02, 1.01, 0.98, 1.0])
    values = simulate_ensemble(paper_params, short_plan.with_(n_experiments=6),
                               paper_params.omega_calib)
    details, noise_details = _stage(values, omegas, paper_params, short_plan, "bior6.8", 4,
                                    squared_contrast=True)
    assert details.shape == noise_details.shape == (5, 6, n)
    d, s = _stage(values[5:], omegas[5:], paper_params, short_plan, "bior6.8", 4,
                  squared_contrast=True)
    assert d.shape == s.shape == (5, 1, n)
    np.testing.assert_array_equal(details[:, 5:], d)
    np.testing.assert_array_equal(noise_details[:, 5:], s)
    profile = shot_noise(short_plan.times, omegas[5], paper_params, squared_contrast=True)
    np.testing.assert_array_equal(s[:, 0], np.abs(uwt_analyze(profile, "bior6.8", 4)[0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -1.7e7])
def test_bad_template_frequency_rejected(paper_params, short_plan, bad):
    # NaN margins made the clamp a no-op: tmt_denoise returned about the raw traces
    values = simulate_ensemble(paper_params, short_plan.with_(n_experiments=3),
                               paper_params.omega_calib)
    omegas = np.full(3, paper_params.omega_calib)
    omegas[1] = bad
    for omega_temps in (bad, omegas):
        with pytest.raises(ValueError, match="omega_temps"):
            next(residual_chunks(values, np.broadcast_to(omega_temps, 3), paper_params,
                                 short_plan, "bior6.8", 4))
        with pytest.raises(ValueError, match="omega_temps"):
            tmt_denoise(values, omega_temps, 0.0, paper_params, short_plan, "bior6.8", levels=4)


def test_residual_chunk_rows_bound_samples_and_rows():
    # at most 9600 samples a chunk, at least one trace and at most 64 traces
    assert [tmt.residual_chunk_rows(n) for n in (53, 150, 232, 411, 448, 20000)] == \
        [64, 64, 41, 23, 21, 1]


@pytest.mark.parametrize("rows, samples", [(1, tmt.RESIDUAL_SAMPLES), (7, tmt.RESIDUAL_SAMPLES),
                                           (50, 50 * 448)])
def test_chunk_size_moves_no_bit(paper_params, monkeypatch, rows, samples):
    # each trace is analysed on its own and the sweep buckets each experiment
    # apart, so the full-trace denoise and the point sweep of 50 traces of 448
    # samples (chunks of 21 by default) come out the same in chunks of 1, of 7
    # and in one chunk of the whole ensemble
    plan = AcquisitionPlan(0.2e-6, 3.7e-6, 128e6, 25000, 50, seed=19)
    setup = BenchmarkSetup(params=paper_params, plan=plan,
                           omega_true=paper_params.omega_calib * 1.005, n_sd=None)
    betas = (-np.inf, -2.0, 0.0, 0.5, np.inf)

    def outputs():
        run = EnsembleRun(setup, betas)
        return ([run.denoised(beta, at_points=True) for beta in betas],
                tmt_denoise(run.values, run.omega_temps, 0.0, paper_params, plan, "bior6.8",
                            run.levels))

    assert tmt.residual_chunk_rows(plan.n_samples) == 21
    expected = outputs()
    monkeypatch.setattr(tmt, "RESIDUAL_ROWS", rows)
    monkeypatch.setattr(tmt, "RESIDUAL_SAMPLES", samples)
    assert tmt.residual_chunk_rows(plan.n_samples) == rows
    points, denoised = outputs()
    for got, want in zip(points, expected[0]):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(denoised, expected[1])


def test_point_sweep_peak_flat_in_window_length(paper_params):
    # a chunk holds at most 9600 trace samples, so the point sweep's traced
    # peak, less its (K, n_exp, p) output, hardly grows from 150 to 448
    # samples a trace; chunks of 64 traces raised it 3.3-fold
    betas = np.linspace(-4.0, 2.0, 61)
    peaks = {}
    for t_start, t_stop in ((0.97e-6, 2.14e-6), (0.2e-6, 3.7e-6)):
        plan = AcquisitionPlan(t_start, t_stop, 128e6, 25000, 200, seed=23)
        run = EnsembleRun(BenchmarkSetup(params=paper_params, plan=plan,
                                         omega_true=paper_params.omega_calib, n_sd=None), betas)
        tracemalloc.start()
        try:
            run.denoised(betas[0], at_points=True)  # builds every order's samples
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        peaks[plan.n_samples] = peak - betas.size * run.denoised(betas[0], at_points=True).nbytes
    assert sorted(peaks) == [150, 448]
    assert peaks[448] < 1.5 * peaks[150], peaks


# ---------------------------------------------------------------------------
# hard clamp and denoising
# ---------------------------------------------------------------------------

def test_hard_clamp_cases():
    # template coefficient 2, interval 2 +/- 1 * 1 = [1, 3]: the residual
    # raw - 2 is clipped into [-1, 1]
    assert 2.0 + clamp_details(5.0 - 2.0, 1.0, 1.0) == 3.0
    assert 2.0 + clamp_details(2.0 - 2.0, 1.0, 1.0) == 2.0
    assert 2.0 + clamp_details(0.0 - 2.0, 1.0, 1.0) == 1.0
    # exact limits: infinite width is the identity even where |S| = 0,
    # zero width pins to the template (a zero residual)
    residual = np.array([5.0, -7.0, 0.5])
    np.testing.assert_array_equal(
        clamp_details(residual, np.array([1.0, 0.0, 2.0]), np.inf), residual)
    np.testing.assert_array_equal(clamp_details(residual, 1.0, 0.0), [0.0, 0.0, 0.0])


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
    details, noise_details = _stage(trace[None], [omega], paper_params, short_plan,
                                    "bior6.8", 5)
    width = margin_width(0.5, short_plan)
    clamped = clamp_details(details, noise_details, width)
    half = width * noise_details
    assert np.all(clamped >= -half)
    assert np.all(clamped <= half)
    assert np.any(clamped[0] != details[0])  # something was clamped
    # the approximation band is exempt: denoising keeps the raw trace mean
    out = tmt_denoise(trace, omega, 0.5, paper_params, short_plan, "bior6.8", levels=5)
    assert np.mean(out) == pytest.approx(np.mean(trace), rel=1e-12)


def _ensemble_run(paper_params, n_exp):
    plan = AcquisitionPlan(0.97e-6, 1.75e-6, 128e6, 25000, n_exp, seed=77)
    return EnsembleRun(BenchmarkSetup(params=paper_params, plan=plan,
                                      omega_true=paper_params.omega_calib, n_sd=2),
                       [-np.inf, -4.0, 0.0, 2.0, np.inf])


@pytest.fixture(scope="module")
def ensemble_run(paper_params):
    return _ensemble_run(paper_params, 8)


@pytest.fixture(scope="module")
def chunked_ensemble_run(paper_params):
    """An ensemble that spans three chunks of the residual stage, the last a partial one."""
    return _ensemble_run(paper_params, 130)


def _denoise_like(run, values, omega_temps, beta):
    setup = run.setup
    return tmt_denoise(values, omega_temps, beta, setup.params, setup.plan, setup.basis,
                       run.levels)


@pytest.mark.parametrize("beta", [-np.inf, -400.0, -4.0, 0.0, 2.0, np.inf])
def test_ensemble_and_per_trace_paths_agree(ensemble_run, chunked_ensemble_run, beta):
    for run in (ensemble_run, chunked_ensemble_run):
        batch = run.denoised(beta)
        assert not np.any(np.isnan(batch))
        np.testing.assert_array_equal(_denoise_like(run, run.values, run.omega_temps, beta),
                                      batch)
        # a (2, n / 2, N) batch: its chunks cross the boundary of the halves
        half = run.values.shape[0] // 2
        np.testing.assert_array_equal(
            _denoise_like(run, run.values.reshape(2, half, -1),
                          run.omega_temps.reshape(2, half), beta),
            batch.reshape(2, half, -1))
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
    clean = template(run.setup.plan.times, omega, run.setup.params)
    assert np.max(np.abs(_denoise_like(run, clean, omega, beta) - clean)) < 1e-9
    if beta <= -309.0:  # 10**(-beta) overflows: the raw limit
        assert np.max(np.abs(single - values)) / np.max(np.abs(values)) < 1e-10


@pytest.fixture(scope="module")
def ensemble_coeffs(ensemble_run):
    """Residual detail coefficients and ``|S|`` of the ensemble."""
    run, setup = ensemble_run, ensemble_run.setup
    return _stage(run.values, run.omega_temps, setup.params, setup.plan, setup.basis,
                  run.levels)


@settings(max_examples=40, deadline=None)
@given(beta=st.floats(allow_nan=False, allow_infinity=False))
@example(beta=-309.0)
@example(beta=-308.0)
@example(beta=400.0)
def test_clamped_details_in_margin_property(ensemble_run, ensemble_coeffs, beta):
    details, noise = ensemble_coeffs
    width = margin_width(beta, ensemble_run.setup.plan)
    clamped = clamp_details(details, noise, width)
    if width == np.inf:  # 10**(-beta) overflows: the raw limit, even where |S| is 0
        np.testing.assert_array_equal(clamped, details)
        return
    half = width * noise
    assert np.all(clamped >= -half)
    assert np.all(clamped <= half)


def test_clamp_raw_limit_returns_details_unchanged(ensemble_run, ensemble_coeffs):
    details, noise = ensemble_coeffs
    width = margin_width(-np.inf, ensemble_run.setup.plan)
    np.testing.assert_array_equal(clamp_details(details, noise, width), details)


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


def _estimate_then_denoise(values, params, plan, beta):
    """The two calls that denoise traces of unknown frequency: ``(denoised, omega_temps)``."""
    grid = FrequencyGrid.around(params.omega_calib)
    omega_temps = estimate_frequencies(values, plan.times, params, grid)
    return tmt_denoise(values, omega_temps, beta, params, plan, "bior6.8"), omega_temps


def test_denoise_mismatch_errors(paper_params, short_plan):
    other_plan = short_plan.with_(t_stop=2.14e-6)
    other = simulate_ensemble(paper_params, other_plan, paper_params.omega_calib)[0]
    with pytest.raises(ValueError, match="grid"):
        tmt_denoise(other, paper_params.omega_calib, 0.0, paper_params, short_plan,
                    "bior6.8", levels=5)
    with pytest.raises(ValueError, match="grid"):
        _estimate_then_denoise(other, paper_params, short_plan, 0.0)


def test_zero_dimensional_values_rejected(paper_params, short_plan):
    # _as_traces read values.shape[-1] of a 0-d value: IndexError
    with pytest.raises(ValueError, match="values"):
        tmt_denoise(np.float64(0.2), paper_params.omega_calib, 0.0, paper_params, short_plan,
                    "bior6.8", levels=4)
    with pytest.raises(ValueError, match="values"):
        _estimate_then_denoise(0.2, paper_params, short_plan, 0.0)


def test_pipeline_reduces_variance_at_detection_points(paper_params, short_plan):
    from tmtmag import find_detection_points

    omega = paper_params.omega_calib
    plan = short_plan.with_(n_experiments=40, seed=99)
    points = find_detection_points(omega, plan, 2, paper_params)
    raw_at_points, tmt_at_points = [], []
    for trace in simulate_ensemble(paper_params, plan, omega):
        out, _ = _estimate_then_denoise(trace, paper_params, plan, 0.0)
        raw_at_points.append(trace[points.indices])
        tmt_at_points.append(out[points.indices])
    raw_var = np.var(np.array(raw_at_points), axis=0)
    tmt_var = np.var(np.array(tmt_at_points), axis=0)
    assert np.all(tmt_var < raw_var)


def test_pipeline_determinism(paper_params, short_plan):
    trace = simulate_ensemble(paper_params, short_plan, paper_params.omega_calib)[5]
    out1, omega1 = _estimate_then_denoise(trace, paper_params, short_plan, 0.0)
    out2, omega2 = _estimate_then_denoise(trace, paper_params, short_plan, 0.0)
    np.testing.assert_array_equal(out1, out2)
    assert omega1 == omega2


# ---------------------------------------------------------------------------
# the paper's formulation as an oracle
# ---------------------------------------------------------------------------

ORACLE_BETAS = (-np.inf, -400.0, -2.0, 0.0, 0.5, 3.0, np.inf)


def _paper_tmt(values, omega_temps, width, params, plan, basis, levels, noise_details):
    """The paper's TMT: raw detail coefficients clamped into ``K +/- width * |S|``.

    ``K`` is the analysis of the templates at ``omega_temps`` (one per
    trace), ``noise_details`` is ``|S|`` and the raw approximation band is
    kept.  The residual form returns the same traces up to rounding.
    """
    details, approx = uwt_analyze(values, basis, levels)
    templates = template(plan.times, np.asarray(omega_temps)[..., None], params)
    kernel_details, _ = uwt_analyze(templates, basis, levels)
    with np.errstate(invalid="ignore"):  # inf * 0 where |S| vanishes
        half = width * noise_details
    clamped = np.fmin(np.fmax(details, kernel_details - half), kernel_details + half)
    return uwt_synthesize(clamped, approx, basis)


def _zero_some_noise(noise_details):
    """Set ``|S| = 0`` on the finest level and on part of level 2, in place."""
    noise_details[0] = 0.0
    noise_details[2, ::2, : noise_details.shape[-1] // 2] = 0.0


@pytest.mark.parametrize("basis", ["haar", "db2", "bior6.8"])
def test_residual_form_matches_paper_formulation(paper_params, monkeypatch, basis):
    plan = AcquisitionPlan(0.97e-6, 2.14e-6, 128e6, 25000, 12, seed=29)
    run = EnsembleRun(BenchmarkSetup(params=paper_params, plan=plan,
                                     omega_true=paper_params.omega_calib * 1.005, n_sd=3,
                                     basis=basis), ORACLE_BETAS)
    # coefficients with |S| = 0: a finite width pins them to the template,
    # an infinite one leaves them raw; the same zeros reach tmt_denoise (the
    # full-trace path) and the run's point build, whose 12 experiments are
    # one chunk
    stage = tmt.residual_chunks

    def stage_with_zeros(*args, at=..., **kwargs):
        for rows, details, noise_details in stage(*args, **kwargs):
            _zero_some_noise(noise_details)
            yield rows, details[at], noise_details[at]

    monkeypatch.setattr(tmt, "residual_chunks", stage_with_zeros)
    monkeypatch.setattr(bench, "residual_chunks", stage_with_zeros)
    noise_details = np.abs(uwt_analyze(shot_noise(plan.times, run.omega_temps[:, None],
                                                  paper_params), basis, run.levels)[0])
    _zero_some_noise(noise_details)
    (rows, _, patched), = stage_with_zeros(run.values, run.omega_temps, paper_params, plan,
                                           basis, run.levels)
    assert rows == slice(0, tmt.residual_chunk_rows(plan.n_samples))
    assert rows.stop >= plan.n_experiments
    np.testing.assert_array_equal(patched, noise_details)
    indices = run.points.indices
    tolerance = dict(rtol=1e-12, atol=1e-13 * np.max(np.abs(run.values)))
    for beta in ORACLE_BETAS:
        expected = _paper_tmt(run.values, run.omega_temps, margin_width(beta, plan),
                              paper_params, plan, basis, run.levels, noise_details)
        denoised = tmt_denoise(run.values, run.omega_temps, beta, paper_params, plan, basis,
                               run.levels)
        np.testing.assert_allclose(denoised, expected, **tolerance)
        np.testing.assert_allclose(run.denoised(beta), expected, **tolerance)
        np.testing.assert_allclose(run.denoised(beta, at_points=True), expected[:, indices],
                                   **tolerance)


@pytest.mark.parametrize("basis", ["haar", "db2", "bior6.8"])
@pytest.mark.parametrize("beta", ORACLE_BETAS)
def test_clean_template_returned_bit_for_bit(paper_params, short_plan, basis, beta):
    # the residual of a clean template is exactly zero, and so is its clip
    omegas = paper_params.omega_calib * np.array([0.98, 1.0, 1.013])
    clean = template(short_plan.times, omegas[:, None], paper_params)
    out = tmt_denoise(clean, omegas, beta, paper_params, short_plan, basis, levels=4)
    np.testing.assert_array_equal(out, clean)
    single = template(short_plan.times, omegas[2], paper_params)
    out = tmt_denoise(single, omegas[2], beta, paper_params, short_plan, basis, levels=4)
    np.testing.assert_array_equal(out, single)
