"""Standard-error and comparison helpers shared by the bench and acceptance tests."""

from dataclasses import fields

import numpy as np

from tmtmag.ramsey import envelope, template


def assert_stats_identical(a, b):
    """Two ``EnsembleStats`` hold the same bits in every field."""
    for field in fields(a):
        np.testing.assert_array_equal(getattr(a, field.name), getattr(b, field.name),
                                      err_msg=field.name)


def raw_variance(times, omega, params, repetitions, photon_stats="bernoulli-poisson"):
    """Closed-form variance of a raw sample, per detection time.

    sigma_p^2 = [p0 n0 + (1 - p0) n1 + (n0 - n1)^2 p0 (1 - p0)] / M with p0 at
    ``omega``: binomial projections, then Poisson photons.  Poisson counts
    alone (``photon_stats="poisson"``) leave ``template / M``.
    """
    if photon_stats == "poisson":
        return template(times, omega, params) / repetitions
    p0 = 0.5 * (1.0 + np.cos(omega * times) * envelope(times, params))
    return (p0 * params.n0 + (1.0 - p0) * params.n1
            + (params.n0 - params.n1) ** 2 * p0 * (1.0 - p0)) / repetitions


def fringe_mse_stderr(variance, n_exp: int) -> float:
    """SE of the raw fringe-averaged MSE, the mean over points of ``variance``
    (from :func:`raw_variance`): each point's MSE has variance 2 sigma_p^4 / n_exp."""
    return float(np.sqrt(np.sum(2.0 * variance ** 2 / n_exp)) / variance.size)


def raw_snr_stderr(delta_n: float, variance, n_exp: int) -> float:
    """Delta-method SE of the raw SNR ``delta_n / sqrt(fringe MSE)`` of ``n_exp``
    experiments, the SNR and the fringe MSE's mean and SE all from the closed-form
    ``variance``: 0.5 * SNR * SE(mean) / mean."""
    mean = float(np.mean(variance))
    return 0.5 * delta_n / np.sqrt(mean) * fringe_mse_stderr(variance, n_exp) / mean


def bias_sq_mean(stats) -> float:
    return float(np.mean(stats.bias ** 2))


def variance_mean(stats) -> float:
    return float(np.mean(stats.variance))


def bias_sq_mean_stderr(stats) -> float:
    """SE of the point-averaged squared bias.

    bias_hat is Gaussian with variance Var/n, so
    Var(bias_hat^2) ~= 2 (Var/n)^2 + 4 bias^2 Var/n per point.
    """
    n = stats.n_exp
    per_point = 2.0 * (stats.variance / n) ** 2 + 4.0 * stats.bias ** 2 * stats.variance / n
    q = len(stats.bias)
    return float(np.sqrt(np.sum(per_point)) / q)


def variance_mean_stderr(stats) -> float:
    """SE of the point-averaged variance (normal approximation)."""
    n = stats.n_exp
    per_point = (stats.variance * np.sqrt(2.0 / max(n - 1, 1))) ** 2
    q = len(stats.variance)
    return float(np.sqrt(np.sum(per_point)) / q)


def diff_slack(se_a: float, se_b: float, n_sigma: float = 3.0) -> float:
    return n_sigma * float(np.hypot(se_a, se_b))


def assert_monotone_tradeoff(stats_list, n_sigma: float = 3.0):
    """Squared bias non-decreasing, variance non-increasing along the grid."""
    bias_sq = [bias_sq_mean(s) for s in stats_list]
    bias_se = [bias_sq_mean_stderr(s) for s in stats_list]
    var = [variance_mean(s) for s in stats_list]
    var_se = [variance_mean_stderr(s) for s in stats_list]
    for k in range(len(stats_list) - 1):
        assert bias_sq[k + 1] - bias_sq[k] >= -diff_slack(bias_se[k], bias_se[k + 1], n_sigma), (
            f"squared bias dropped beyond {n_sigma} SE between grid points {k} and {k + 1}"
        )
        assert var[k + 1] - var[k] <= diff_slack(var_se[k], var_se[k + 1], n_sigma), (
            f"variance rose beyond {n_sigma} SE between grid points {k} and {k + 1}"
        )
