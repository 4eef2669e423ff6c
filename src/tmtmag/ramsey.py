"""Synthetic Ramsey photoluminescence traces for a single two-level NV sensor.

A sensing run projects the qubit onto |0> or |1> once per repetition with
probability set by the accumulated phase, and the readout collects a
Poisson-distributed number of photons whose mean depends on the projected
state (``n0`` for |0>, ``n1`` for |1>).  Traces store the photon count per
repetition, so the expected value of every sample equals the analytic
fringe ``template``.

Dephasing enters through the stretched-exponential envelope
``exp(-(t/T2*)**p)``; pulse-level dynamics are not modelled.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

#: electron gyromagnetic ratio, rad/s per tesla
GAMMA_E = -2.0 * np.pi * 28.024e9


def calib_frequency(b_calib: float, gamma_e: float = GAMMA_E) -> float:
    """Angular precession frequency |gamma_e| * B for a field along z."""
    if not 0.0 <= b_calib < np.inf:
        raise ValueError(f"b_calib must be finite and >= 0, got {b_calib}")
    return abs(gamma_e) * b_calib


@dataclass(frozen=True)
class SensorParams:
    """Photon statistics and coherence parameters of the NV readout."""

    n0: float
    n1: float
    contrast: float
    n_ave: float
    t2_star: float
    decay_power: float
    omega_calib: float
    gamma_e: float = GAMMA_E

    def __post_init__(self):
        if not np.inf > self.n0 > self.n1 > 0.0:
            raise ValueError(f"need finite n0 > n1 > 0, got n0={self.n0}, n1={self.n1}")
        if not 0.0 < self.contrast < 1.0:
            raise ValueError(f"contrast must lie in (0, 1), got {self.contrast}")
        if not 0.0 < self.t2_star < np.inf:
            raise ValueError(f"t2_star must be finite and positive, got {self.t2_star}")
        if not 1.0 <= self.decay_power < np.inf:
            raise ValueError(f"decay_power must be finite and >= 1, got {self.decay_power}")
        if not (np.isfinite(self.gamma_e) and self.gamma_e != 0.0):
            raise ValueError(f"gamma_e must be finite and non-zero, got {self.gamma_e}")
        if not 0.0 < self.omega_calib < np.inf:
            raise ValueError(f"omega_calib = |gamma_e| * b_calib must be finite and positive, "
                             f"got {self.omega_calib}")
        if abs(self.contrast - (self.n0 - self.n1) / self.n0) > 1e-9:
            raise ValueError("contrast is inconsistent with (n0 - n1)/n0")
        if abs(self.n_ave - 0.5 * (self.n0 + self.n1)) > 1e-9:
            raise ValueError("n_ave is inconsistent with (n0 + n1)/2")

    @classmethod
    def from_contrast(cls, contrast: float, n_ave: float, t2_star: float,
                      decay_power: float, b_calib: float,
                      gamma_e: float = GAMMA_E) -> "SensorParams":
        """Photon means ``n0``, ``n1`` from ``contrast = (n0 - n1)/n0`` and ``n_ave = (n0 + n1)/2``."""
        if not 0.0 < contrast < 1.0:
            raise ValueError(f"contrast must lie in (0, 1), got {contrast}")
        if not 0.0 < n_ave < np.inf:
            raise ValueError(f"n_ave must be finite and positive, got {n_ave}")
        n0 = 2.0 * n_ave / (2.0 - contrast)
        return cls(n0=n0, n1=n0 * (1.0 - contrast), contrast=contrast, n_ave=n_ave,
                   t2_star=t2_star, decay_power=decay_power,
                   omega_calib=calib_frequency(b_calib, gamma_e), gamma_e=gamma_e)


@dataclass(frozen=True)
class AcquisitionPlan:
    """Sampling window, repetition budget and ensemble size of a run."""

    t_start: float
    t_stop: float
    f_sample: float
    repetitions: int
    n_experiments: int
    seed: int = 0

    def __post_init__(self):
        for name in ("repetitions", "n_experiments", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not np.inf > self.t_stop > self.t_start >= 0.0:
            raise ValueError(f"need finite t_stop > t_start >= 0, got [{self.t_start}, {self.t_stop}]")
        if not 0.0 < self.f_sample < np.inf:
            raise ValueError(f"f_sample must be finite and positive, got {self.f_sample}")
        if not 1 <= self.repetitions < 2 ** 63:  # numpy draws take a C long
            raise ValueError(f"repetitions must be >= 1 and < 2**63, got {self.repetitions}")
        if self.n_experiments < 1:
            raise ValueError(f"n_experiments must be >= 1, got {self.n_experiments}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not np.isfinite((self.t_stop - self.t_start) * self.f_sample):
            raise ValueError(f"the window [{self.t_start}, {self.t_stop}] s at f_sample "
                             f"{self.f_sample} Hz holds a non-finite number of samples")
        if self.n_samples < 4:
            raise ValueError(f"window supports only {self.n_samples} samples, need >= 4")

    @property
    def n_samples(self) -> int:
        return int(round((self.t_stop - self.t_start) * self.f_sample))

    @property
    def duration(self) -> float:
        return self.t_stop - self.t_start

    @property
    def times(self) -> np.ndarray:
        return self.t_start + np.arange(self.n_samples) / self.f_sample

    def with_(self, **kwargs) -> "AcquisitionPlan":
        return replace(self, **kwargs)


def envelope(t, params: SensorParams):
    """Dephasing envelope exp(-(t/T2*)**p)."""
    t = np.asarray(t, dtype=float)
    return np.exp(-((t / params.t2_star) ** params.decay_power))


def template(t, omega: float, params: SensorParams):
    """Expected PL waveform at sensing frequency ``omega``.

    0.5 * [1 + cos(omega t) * exp(-(t/T2*)**p)] * (n0 - n1) + n1
    """
    t = np.asarray(t, dtype=float)
    p0 = 0.5 * (1.0 + np.cos(omega * t) * envelope(t, params))
    return p0 * (params.n0 - params.n1) + params.n1


def shot_noise(t, omega_temp: float, params: SensorParams,
               squared_contrast: bool = False):
    """Photon standard deviation per repetition at the template frequency.

    sqrt[ (n0-n1)/4 sin^2(wt) + n0 cos^2(wt/2) + n1 sin^2(wt/2) ]

    ``squared_contrast=True`` switches the first term to the projection
    noise variance (n0-n1)^2/4 sin^2(wt) exp(-2(t/T2*)**p), for
    sensitivity studies; the plain form is the default.
    """
    t = np.asarray(t, dtype=float)
    wt = omega_temp * t
    if squared_contrast:
        first = 0.25 * (params.n0 - params.n1) ** 2 * np.sin(wt) ** 2 * envelope(t, params) ** 2
    else:
        first = 0.25 * (params.n0 - params.n1) * np.sin(wt) ** 2
    var = (first
           + params.n0 * np.cos(0.5 * wt) ** 2
           + params.n1 * np.sin(0.5 * wt) ** 2)
    return np.sqrt(var)


def sensing_frequency(params: SensorParams, delta_b: float) -> float:
    """Precession frequency with a sensing offset field added to the calibration field."""
    b_calib = params.omega_calib / abs(params.gamma_e)
    return abs(params.gamma_e) * (b_calib + delta_b)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def experiment_rng(seed: int, experiment: int) -> np.random.Generator:
    """Counter-based (Philox) substream for one ensemble member.

    Substreams depend only on (seed, experiment), so ensembles are
    reproducible under any evaluation order.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(experiment),))
    return np.random.Generator(np.random.Philox(ss))


#: Largest mean numpy's ``Generator.poisson`` accepts ("lam value too large"
#: beyond it).  Every mean drawn is at most ``repetitions * n0``.
POISSON_LAM_MAX = float(np.iinfo(np.int64).max - 10 * np.sqrt(np.iinfo(np.int64).max))


#: photon-count models of :func:`simulate_ensemble`
PHOTON_MODELS = ("bernoulli-poisson", "poisson")


def simulate_ensemble(params: SensorParams, plan: AcquisitionPlan, omega_true: float,
                      photon_stats: str = "bernoulli-poisson") -> np.ndarray:
    """All ``plan.n_experiments`` traces as an (n_experiments, n_samples) array."""
    if not 0.0 < omega_true < np.inf:
        raise ValueError(f"omega_true must be positive and finite, got {omega_true}")
    if photon_stats not in PHOTON_MODELS:
        raise ValueError(f"unknown photon_stats mode {photon_stats!r}")
    t = plan.times
    m = plan.repetitions
    # every experiment draws from the same mean profile
    if photon_stats == "bernoulli-poisson":
        p0 = 0.5 * (1.0 + np.cos(omega_true * t) * envelope(t, params))
    else:
        mean = m * template(t, omega_true, params)
    out = np.empty((plan.n_experiments, plan.n_samples))
    for i in range(plan.n_experiments):
        rng = experiment_rng(plan.seed, i)
        if photon_stats == "bernoulli-poisson":
            # number of |0> projections among M repetitions, then the photon
            # total is Poisson with the state-summed mean
            k0 = rng.binomial(m, p0)
            out[i] = rng.poisson(k0 * params.n0 + (m - k0) * params.n1)
        else:
            out[i] = rng.poisson(mean)
    out /= m
    return out

