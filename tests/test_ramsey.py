"""Photon-level derivations, analytic waveforms, and sampling statistics."""

import mpmath
import numpy as np
import pytest
from scipy.optimize import fsolve

from tmtmag import (
    GAMMA_E,
    AcquisitionPlan,
    SensorParams,
    calib_frequency,
    sensing_frequency,
    shot_noise,
    simulate_ensemble,
    template,
)
from tmtmag.ramsey import _substream_keys, envelope


# ---------------------------------------------------------------------------
# photon level derivation
# ---------------------------------------------------------------------------

def photon_levels(contrast, n_ave):
    """``(n0, n1)`` of the sensor that ``SensorParams.from_contrast`` builds."""
    params = SensorParams.from_contrast(contrast, n_ave, 3.9e-6, 2.0, 100e-6)
    return params.n0, params.n1


def test_derive_photon_levels_against_root_finder():
    contrast, n_ave = 0.2143, 0.196

    def relations(x):
        n0, n1 = x
        return [(n0 - n1) / n0 - contrast, 0.5 * (n0 + n1) - n_ave]

    expected = fsolve(relations, [0.2, 0.15], full_output=False)
    n0, n1 = photon_levels(contrast, n_ave)
    np.testing.assert_allclose([n0, n1], expected, rtol=1e-9)
    assert abs((n0 + n1) / 2 - n_ave) < 1e-9
    assert abs((n0 - n1) / n0 - contrast) < 1e-9
    # frozen values for downstream reference
    assert abs(n0 - 0.21952175617404938) < 1e-12
    assert abs(n1 - 0.17247824382595062) < 1e-12


def test_derive_photon_levels_zero_contrast_limit():
    n0, n1 = photon_levels(1e-12, 0.196)
    np.testing.assert_allclose([n0, n1], [0.196, 0.196], rtol=1e-9)


def test_derive_photon_levels_hand_algebra():
    n0, n1 = photon_levels(0.5, 1.0)
    np.testing.assert_allclose([n0, n1], [4.0 / 3.0, 2.0 / 3.0], rtol=1e-14)


def test_derive_photon_levels_rejects_bad_inputs():
    with pytest.raises(ValueError, match="contrast must lie in"):
        photon_levels(0.0, 0.196)
    with pytest.raises(ValueError, match="contrast must lie in"):
        photon_levels(1.0, 0.196)
    with pytest.raises(ValueError, match="n_ave must be finite"):
        photon_levels(0.2, -1.0)


def test_sensor_params_consistency_enforced(paper_params):
    with pytest.raises(ValueError, match="n0 > n1"):
        SensorParams(n0=0.1, n1=0.2, contrast=0.2, n_ave=0.15,
                     t2_star=3.9e-6, decay_power=2.0, omega_calib=1e7)
    with pytest.raises(ValueError, match="contrast"):
        SensorParams(n0=0.22, n1=0.17, contrast=0.5, n_ave=0.195,
                     t2_star=3.9e-6, decay_power=2.0, omega_calib=1e7)


# ---------------------------------------------------------------------------
# calibration frequency
# ---------------------------------------------------------------------------

def test_calib_frequency_reference_value():
    omega = calib_frequency(100e-6, -2 * np.pi * 28.024e9)
    np.testing.assert_allclose(omega, 2 * np.pi * 2.8024e6, rtol=1e-12)


def test_calib_frequency_zero_and_linearity():
    assert calib_frequency(0.0) == 0.0
    assert calib_frequency(2e-4) == pytest.approx(2 * calib_frequency(1e-4), rel=1e-15)


def test_sensing_frequency_offsets(paper_params):
    omega = sensing_frequency(paper_params, 2e-6)
    np.testing.assert_allclose(omega, abs(GAMMA_E) * 102e-6, rtol=1e-12)


# ---------------------------------------------------------------------------
# template waveform
# ---------------------------------------------------------------------------

def test_template_at_zero_is_n0(paper_params):
    assert template(0.0, 2 * np.pi * 2.8024e6, paper_params) == pytest.approx(
        paper_params.n0, abs=0)


def test_template_fully_dephased(paper_params):
    t = 50 * paper_params.t2_star  # envelope < 1e-12
    value = template(t, 2 * np.pi * 2.8024e6, paper_params)
    assert abs(value - 0.5 * (paper_params.n0 + paper_params.n1)) < 1e-12


def test_template_against_arbitrary_precision(paper_params):
    t = 0.97e-6
    omega = 2 * np.pi * 2.8024e6
    with mpmath.workdps(50):
        n0 = mpmath.mpf(paper_params.n0)
        n1 = mpmath.mpf(paper_params.n1)
        arg = mpmath.mpf(t) / mpmath.mpf(paper_params.t2_star)
        ref = (mpmath.mpf("0.5")
               * (1 + mpmath.cos(mpmath.mpf(omega) * t) * mpmath.e ** (-(arg ** 2)))
               * (n0 - n1) + n1)
        ref = float(ref)
    assert template(t, omega, paper_params) == pytest.approx(ref, rel=1e-14)


def test_template_bounded_on_dense_grid(paper_params):
    t = np.linspace(0.0, 10 * paper_params.t2_star, 20001)
    values = template(t, 2 * np.pi * 2.8024e6, paper_params)
    assert np.all(values >= paper_params.n1 - 1e-15)
    assert np.all(values <= paper_params.n0 + 1e-15)


# ---------------------------------------------------------------------------
# shot noise profile
# ---------------------------------------------------------------------------

def test_shot_noise_at_zero(paper_params):
    assert shot_noise(0.0, 2 * np.pi * 2.8024e6, paper_params) == pytest.approx(
        np.sqrt(paper_params.n0), abs=0)


def test_shot_noise_at_pi(paper_params):
    omega = 2 * np.pi * 2.8024e6
    t = np.pi / omega
    assert shot_noise(t, omega, paper_params) == pytest.approx(
        np.sqrt(paper_params.n1), rel=1e-12)


def test_shot_noise_at_half_pi(paper_params):
    omega = 2 * np.pi * 2.8024e6
    t = 0.5 * np.pi / omega
    expected = np.sqrt((paper_params.n0 - paper_params.n1) / 4.0
                       + 0.5 * (paper_params.n0 + paper_params.n1))
    assert shot_noise(t, omega, paper_params) == pytest.approx(expected, rel=1e-12)


def test_shot_noise_squared_contrast_variant(paper_params):
    omega = 2 * np.pi * 2.8024e6
    t = 0.5 * np.pi / omega
    plain = shot_noise(t, omega, paper_params)
    squared = shot_noise(t, omega, paper_params, squared_contrast=True)
    # the projection-variance variant is strictly smaller for n0 - n1 < 1
    assert squared < plain
    expected = np.sqrt(0.25 * (paper_params.n0 - paper_params.n1) ** 2
                       * envelope(t, paper_params) ** 2
                       + 0.5 * (paper_params.n0 + paper_params.n1))
    assert squared == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# trace sampling
# ---------------------------------------------------------------------------

def test_plan_grid(short_plan):
    assert short_plan.n_samples == 100
    times = short_plan.times
    assert times[0] == short_plan.t_start
    np.testing.assert_allclose(np.diff(times), 1.0 / short_plan.f_sample, rtol=1e-12)


def test_plan_validation():
    with pytest.raises(ValueError):
        AcquisitionPlan(1e-6, 0.5e-6, 128e6, 1000, 10)
    with pytest.raises(ValueError):
        AcquisitionPlan(0.0, 1e-6, 128e6, 0, 10)
    with pytest.raises(ValueError, match="samples"):
        AcquisitionPlan(0.0, 1e-8, 128e6, 1000, 10)


@pytest.mark.parametrize("name,value", [
    # a non-integral M was simulated as given, and M = True gave all-zero traces
    ("repetitions", 25000.5),
    ("repetitions", True),
    # failed later, inside simulate_ensemble, with a TypeError
    ("n_experiments", 3.5),
    ("n_experiments", True),
    # seed 1.5 gave seed 1's streams
    ("seed", 1.5),
    ("seed", False),
])
def test_plan_counts_are_integers(short_plan, name, value):
    with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {value!r}$"):
        short_plan.with_(**{name: value})
    assert getattr(short_plan.with_(**{name: np.int64(3)}), name) == 3


def test_contrast_free_limit_is_poisson(paper_params):
    # nearly degenerate contrast: every point averages M Poisson(lambda) draws
    params = SensorParams.from_contrast(1e-9, 0.196, 3.9e-6, 2.0, 100e-6)
    plan = AcquisitionPlan(0.0, 2e-6, 64e6, 400, 50, seed=3)
    values = simulate_ensemble(params, plan, params.omega_calib)
    lam = 0.196
    stderr = np.sqrt(lam / plan.repetitions / values.size)
    assert abs(values.mean() - lam) < 5 * stderr


def test_ensemble_mean_matches_template(paper_params, short_plan):
    omega = 2 * np.pi * 2.8024e6
    plan = short_plan.with_(n_experiments=200, seed=77)
    values = simulate_ensemble(paper_params, plan, omega)
    expected = template(plan.times, omega, paper_params)
    bound = 5 * shot_noise(plan.times, omega, paper_params) / np.sqrt(
        plan.repetitions * plan.n_experiments)
    assert np.all(np.abs(values.mean(axis=0) - expected) < bound)


def test_variance_at_time_zero_is_n0(paper_params):
    # pure |0> state at t=0: per-repetition photon variance equals n0
    plan = AcquisitionPlan(0.0, 1e-6, 8e6, 500, 2000, seed=11)
    values = simulate_ensemble(paper_params, plan, paper_params.omega_calib)
    var = np.var(values[:, 0]) * plan.repetitions
    stderr = paper_params.n0 * np.sqrt(2.0 / (plan.n_experiments - 1))
    assert abs(var - paper_params.n0) < 4 * stderr


def test_photon_counts_follow_compound_distribution(paper_params):
    # at a fringe crossing the state projection is a fair coin, so the
    # photon total over M repetitions is a binomial mixture of Poissons;
    # chi-square against the analytic pmf (threshold: 0.1% critical value)
    from math import comb, exp, factorial

    omega = paper_params.omega_calib
    f_sample = 128e6
    t_cross = 0.5 * np.pi / omega
    k_idx = 2
    m_reps = 2
    plan = AcquisitionPlan(t_cross - k_idx / f_sample, t_cross + 4 / f_sample,
                           f_sample, m_reps, 6000, seed=71)
    assert abs(plan.times[k_idx] - t_cross) < 1e-15
    values = simulate_ensemble(paper_params, plan, omega)
    counts = np.round(values[:, k_idx] * m_reps).astype(int)

    def compound_pmf(c):
        return sum(comb(m_reps, k) * 0.5 ** m_reps
                   * exp(-(k * paper_params.n0 + (m_reps - k) * paper_params.n1))
                   * (k * paper_params.n0 + (m_reps - k) * paper_params.n1) ** c
                   / factorial(c)
                   for k in range(m_reps + 1))

    obs = np.bincount(counts).astype(float)
    expected = np.array([compound_pmf(c) for c in range(obs.size)]) * counts.size
    expected[-1] += counts.size - expected.sum()
    while expected[-1] < 5:
        expected[-2] += expected[-1]
        obs[-2] += obs[-1]
        expected, obs = expected[:-1], obs[:-1]
    chi2 = np.sum((obs - expected) ** 2 / expected)
    critical = {1: 10.83, 2: 13.82, 3: 16.27, 4: 18.47, 5: 20.52}[obs.size - 1]
    assert chi2 < critical


def test_pure_poisson_mode(paper_params, short_plan):
    omega = paper_params.omega_calib
    values = simulate_ensemble(paper_params, short_plan.with_(n_experiments=100, seed=5),
                               omega, photon_stats="poisson")
    expected = template(short_plan.times, omega, paper_params)
    bound = 5 * np.sqrt(expected / (short_plan.repetitions * 100))
    assert np.all(np.abs(values.mean(axis=0) - expected) < bound)
    with pytest.raises(ValueError, match="photon_stats"):
        simulate_ensemble(paper_params, short_plan, omega, photon_stats="gauss")


def test_trace_determinism(paper_params, short_plan):
    a = simulate_ensemble(paper_params, short_plan, paper_params.omega_calib)
    b = simulate_ensemble(paper_params, short_plan, paper_params.omega_calib)
    np.testing.assert_array_equal(a[3], b[3])
    assert np.any(a[4] != a[3])


def test_substreams_are_order_independent(paper_params, short_plan):
    whole = simulate_ensemble(paper_params, short_plan, paper_params.omega_calib)
    # row i depends only on (seed, i): the same in ensembles of 8 and 20
    small = simulate_ensemble(paper_params, short_plan.with_(n_experiments=8),
                              paper_params.omega_calib)
    assert whole.shape[0] == 20
    np.testing.assert_array_equal(whole[7], small[7])
    np.testing.assert_array_equal(whole[:8], small)
    # and at 3 and 50, where the keys come from arrays of other lengths
    three, fifty = (simulate_ensemble(paper_params, short_plan.with_(n_experiments=n),
                                      paper_params.omega_calib) for n in (3, 50))
    np.testing.assert_array_equal(fifty[:3], three)
    np.testing.assert_array_equal(fifty[:20], whole)


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 2**64, 2**128 + 3])
def test_substream_keys_match_seed_sequence(seed):
    # one to five 32-bit words of entropy: the pool's zero padding, a full pool,
    # and words mixed in after it
    keys = _substream_keys(seed, 40)
    assert keys.dtype == np.uint64 and keys.shape == (40, 2)
    for i in range(40):
        expected = np.random.SeedSequence(entropy=seed, spawn_key=(i,)).generate_state(2, np.uint64)
        np.testing.assert_array_equal(keys[i], expected)


def test_substream_keys_reject_what_seed_sequence_cannot_key():
    with pytest.raises(ValueError, match="seed"):
        _substream_keys(-1, 3)
    with pytest.raises(ValueError, match=r"2\*\*32 experiments"):
        _substream_keys(0, 2**32 + 1)


def per_experiment_ensemble(params, plan, omega_true, photon_stats):
    """The ensemble drawn with one ``Generator(Philox(SeedSequence(seed, spawn_key=(i,))))``
    built per experiment: the sampler's definition, which ``simulate_ensemble`` re-keys."""
    t, m = plan.times, plan.repetitions
    p0 = 0.5 * (1.0 + np.cos(omega_true * t) * envelope(t, params))
    out = np.empty((plan.n_experiments, plan.n_samples))
    for i in range(plan.n_experiments):
        ss = np.random.SeedSequence(entropy=plan.seed, spawn_key=(i,))
        rng = np.random.Generator(np.random.Philox(ss))
        if photon_stats == "bernoulli-poisson":
            k0 = rng.binomial(m, p0)
            out[i] = rng.poisson(k0 * params.n0 + (m - k0) * params.n1)
        else:
            out[i] = rng.poisson(m * template(t, omega_true, params))
    return out / m


@pytest.mark.parametrize("photon_stats", ["bernoulli-poisson", "poisson"])
@pytest.mark.parametrize("seed", [0, 7, 2**64 + 5])
def test_simulate_matches_per_experiment_generators(paper_params, short_plan, photon_stats, seed):
    plan = short_plan.with_(n_experiments=25, seed=seed)
    omega = paper_params.omega_calib * 1.01
    np.testing.assert_array_equal(simulate_ensemble(paper_params, plan, omega, photon_stats),
                                  per_experiment_ensemble(paper_params, plan, omega, photon_stats))


def test_simulate_rejects_nonpositive_frequency(paper_params, short_plan):
    # NaN and +-inf are rejected by name too, before numpy's sampler sees them
    for omega in (0.0, -1.0, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="omega_true"):
            simulate_ensemble(paper_params, short_plan, omega)
