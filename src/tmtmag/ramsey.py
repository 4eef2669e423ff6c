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


def shot_noise(t, omega_temp: float, params: SensorParams):
    """Photon standard deviation per repetition at the template frequency: the
    paper's profile, TMT's one margin model,

    sqrt[ (n0-n1)/4 sin^2(wt) + n0 cos^2(wt/2) + n1 sin^2(wt/2) ]

    Its square over the simulator's exact variance p0 n0 + (1-p0) n1 +
    (n0-n1)^2 p0 (1-p0), at the paper's parameters and sensing frequency, is
    0.979-1.058 on the default window, 0.924-1.074 on the presets' and
    0.878-1.117 once the envelope has decayed; the margins keep the paper's
    form on purpose.
    """
    t = np.asarray(t, dtype=float)
    wt = omega_temp * t
    var = (0.25 * (params.n0 - params.n1) * np.sin(wt) ** 2
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

#: the hashing constants of numpy's ``SeedSequence`` (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def _substream_keys(seed: int, n: int) -> np.ndarray:
    """The (n, 2) uint64 Philox keys ``SeedSequence(entropy=seed, spawn_key=(i,))``
    gives experiments ``i < n``, as ``generate_state(2, np.uint64)``, in one pass.

    numpy's mixing, run on uint32 arrays: the seed's 32-bit words (least
    significant first, padded with zeros to the pool size) and the spawn key
    ``i`` are hashed into a pool of four words, which is hashed out into the
    key.  Only the last entropy word, ``i``, differs between experiments, so
    every step before it is one word wide.  An experiment index takes one
    word, so ``n`` is at most ``2**32``.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if not 0 <= n <= 2 ** 32:
        raise ValueError(f"substreams are keyed for 0 to 2**32 experiments, got {n}")
    u32, seed = np.uint32, int(seed)
    entropy = []
    while True:  # the seed's words, least significant first; 0 is one word
        entropy.append(np.full(1, seed & 0xFFFFFFFF, dtype=u32))
        seed >>= 32
        if not seed:
            break
    entropy += [np.zeros(1, dtype=u32)] * (_POOL_SIZE - len(entropy))
    entropy.append(np.arange(n, dtype=u32))
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ u32(hash_const)
        hash_const = hash_const * _MULT_A & 0xFFFFFFFF
        value = value * u32(hash_const)
        return value ^ (value >> u32(16))

    def mix(x, y):
        result = u32(_MIX_MULT_L) * x - u32(_MIX_MULT_R) * y
        return result ^ (result >> u32(16))

    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    state = np.empty((n, _POOL_SIZE), dtype=u32)
    hash_const = _INIT_B
    for i, word in enumerate(pool):
        word = word ^ u32(hash_const)
        hash_const = hash_const * _MULT_B & 0xFFFFFFFF
        word = word * u32(hash_const)
        state[:, i] = word ^ (word >> u32(16))
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


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
    # experiment i draws from Philox under the key that SeedSequence(entropy=seed,
    # spawn_key=(i,)) gives it, so its substream depends only on (seed, i); one
    # generator is re-keyed per experiment, into the state a fresh one starts in
    bits = np.random.Philox(0)
    rng = np.random.Generator(bits)
    state = bits.state
    out = np.empty((plan.n_experiments, plan.n_samples))
    for i, key in enumerate(_substream_keys(plan.seed, plan.n_experiments).tolist()):
        state["state"]["key"] = key
        bits.state = state
        if photon_stats == "bernoulli-poisson":
            # number of |0> projections among M repetitions, then the photon
            # total is Poisson with the state-summed mean
            k0 = rng.binomial(m, p0)
            out[i] = rng.poisson(k0 * params.n0 + (m - k0) * params.n1)
        else:
            out[i] = rng.poisson(mean)
    out /= m
    return out

