"""Template-margin-threshold (TMT) wavelet denoiser for Ramsey PL traces.

Per trace, the fringe frequency is estimated by template cross-correlation
(:func:`estimate_frequencies`).  The analytic template at that frequency
and the shot-noise profile ``S(t)`` are decomposed with the undecimated
transform, giving coefficients ``K`` and ``|S|``.  Each raw detail
coefficient is then clamped into ``K +/- width * |S|``
(:func:`clamp_details`) and the trace is reconstructed; the approximation
band is kept raw.  By linearity this interval is exactly the min/max of
the decompositions of the time-domain margins ``template +/- width * S``.

The width is ``10**(-beta) / sqrt(T_I * M * f_sample)``; ``beta`` is the
filter order.  The limits are exact: ``beta = -inf`` (and any ``beta``
small enough that ``10**(-beta)`` overflows) gives an infinite width and
returns the raw trace; ``beta = +inf`` gives width 0 and pins every detail
coefficient to the template's.

The API takes and returns plain arrays of traces, one trace being a batch
of one; the ensemble path in :mod:`tmtmag.bench` calls the same
:func:`build_margins` and :func:`clamp_details`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ramsey import AcquisitionPlan, SensorParams, shot_noise, template
from .wavelets import WaveletBasis, default_levels, uwt_analyze, uwt_synthesize


class FrequencySearchError(ValueError):
    """Raised when the template-frequency search cannot produce a maximum."""


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform angular-frequency search grid."""

    omega_min: float
    omega_max: float
    n_points: int = 2001

    def __post_init__(self):
        if not (self.omega_max > self.omega_min > 0.0):
            raise ValueError(f"need omega_max > omega_min > 0, got [{self.omega_min}, {self.omega_max}]")
        if self.n_points < 3:
            raise ValueError(f"grid needs at least 3 points, got {self.n_points}")

    @classmethod
    def around(cls, omega_center: float, fraction: float = 0.15,
               n_points: int = 2001) -> "FrequencyGrid":
        return cls(omega_center * (1.0 - fraction), omega_center * (1.0 + fraction), n_points)

    @property
    def omegas(self) -> np.ndarray:
        return np.linspace(self.omega_min, self.omega_max, self.n_points)

    @property
    def step(self) -> float:
        return (self.omega_max - self.omega_min) / (self.n_points - 1)


def correlation_spectrum(values: np.ndarray, times: np.ndarray,
                         params: SensorParams, omegas: np.ndarray) -> np.ndarray:
    """Trace/template overlap versus trial frequency, shape (n_traces, n_omegas).

    ``values`` has shape (n_traces, n_samples).  Trapezoid-weighted inner
    product of each DC-removed trace with the DC-removed template sampled
    on the trace grid; DC removal subtracts each series' arithmetic mean
    over the window.
    """
    values = np.asarray(values, dtype=float)
    times = np.asarray(times, dtype=float)
    n = times.size
    if n < 2:
        raise FrequencySearchError("trace too short for a correlation search")
    dt = times[1] - times[0]
    weights = np.full(n, dt)
    weights[0] = weights[-1] = 0.5 * dt
    kernel = template(times[None, :], omegas[:, None], params)
    kernel = kernel - kernel.mean(axis=1, keepdims=True)
    centered = values - values.mean(axis=1, keepdims=True)
    # einsum with optimize=False keeps the reduction order fixed, so results
    # do not depend on BLAS threading
    return np.einsum("en,gn->eg", centered * weights, kernel, optimize=False)


def estimate_frequencies(values: np.ndarray, times: np.ndarray, params: SensorParams,
                         grid: FrequencyGrid) -> np.ndarray:
    """Per-trace template frequencies for a whole ensemble.

    ``values`` has shape (n_traces, n_samples).  Each trace's discrete
    correlation maximizer over ``grid`` is refined by one parabolic
    interpolation through its two neighbours.  A constant trace or a
    maximum on the grid boundary (search window too narrow) is an error, and
    so is a trace with a NaN or infinite sample.
    """
    values = np.asarray(values, dtype=float)
    bad = ~np.isfinite(values)
    if bad.any():
        i, k = np.argwhere(bad)[0]
        raise FrequencySearchError(f"trace {i}: non-finite sample {values[i, k]} at index {k}")
    omegas = grid.omegas
    r = correlation_spectrum(values, times, params, omegas)
    k = np.argmax(r, axis=1)
    constant = np.ptp(values, axis=1) == 0.0
    failed = constant | (k == 0) | (k == omegas.size - 1)
    if failed.any():
        i = int(np.argmax(failed))  # the first failing trace
        if constant[i]:
            raise FrequencySearchError(
                f"trace {i}: constant trace, correlation identically zero after DC removal"
            )
        raise FrequencySearchError(
            f"trace {i}: correlation maximum at the grid boundary "
            f"(omega={omegas[k[i]]:.6g}); widen the search grid"
        )
    rows = np.arange(k.size)
    r_lo, r_mid, r_hi = r[rows, k - 1], r[rows, k], r[rows, k + 1]
    denom = r_lo - 2.0 * r_mid + r_hi
    # a flat top (denom 0) keeps the grid maximum: its shift stays 0
    shift = np.divide(0.5 * (r_lo - r_hi), denom, out=np.zeros(k.size), where=denom != 0.0)
    return omegas[k] + shift * (omegas[1] - omegas[0])


# ---------------------------------------------------------------------------
# margins and shrinkage
# ---------------------------------------------------------------------------

def margin_width(beta: float, plan: AcquisitionPlan) -> float:
    """Margin scale 10**(-beta) / sqrt(T_I * M * f_sample); inf once 10**(-beta) overflows."""
    with np.errstate(over="ignore"):  # numpy scalars overflow to inf
        try:
            scale = 10.0 ** (-beta)
        except OverflowError:  # Python floats raise instead
            scale = np.inf
    return scale / np.sqrt(plan.duration * plan.repetitions * plan.f_sample)


def clamp_details(raw_details, kernel_details, noise_details, width: float) -> np.ndarray:
    """Hard-clamp detail coefficients into ``kernel +/- width * noise``.

    Shape-agnostic: the arrays broadcast, so one trace's ``(levels + 1, N)``
    stack and an ensemble's ``(levels + 1, n_exp, N)`` stack go through the
    same call.  ``noise_details`` is ``|S|``, the absolute shot-noise
    coefficients.  An infinite width is the identity on the details (also
    where ``|S|`` vanishes); width 0 pins them to ``kernel_details``.
    """
    if width == np.inf:
        return raw_details
    half = width * noise_details
    return np.clip(raw_details, kernel_details - half, kernel_details + half)


def build_margins(omega_temps, params: SensorParams, plan: AcquisitionPlan,
                  basis: WaveletBasis | str, levels: int, boundary: str = "periodic",
                  squared_contrast: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Template and absolute shot-noise detail coefficients ``(K, |S|)`` at ``omega_temps``.

    Both have shape ``(levels + 1,) + np.shape(omega_temps) + (N,)``; the
    width is applied by :func:`clamp_details`.  ``squared_contrast`` selects
    the shot-noise model variant (see :func:`tmtmag.ramsey.shot_noise`).
    """
    times = plan.times
    omegas = np.asarray(omega_temps, dtype=float)[..., None]
    kernel_details, _ = uwt_analyze(template(times, omegas, params), basis, levels, boundary)
    noise = shot_noise(times, omegas, params, squared_contrast=squared_contrast)
    noise_details, _ = uwt_analyze(noise, basis, levels, boundary)
    return kernel_details, np.abs(noise_details)


def _as_traces(values, plan: AcquisitionPlan) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.shape[-1] != plan.n_samples:
        raise ValueError(f"traces have {values.shape[-1]} samples but the plan's time grid "
                         f"has {plan.n_samples}")
    return values


def tmt_denoise(values, omega_temps, beta: float, params: SensorParams,
                plan: AcquisitionPlan, basis: WaveletBasis | str,
                levels: int | None = None, boundary: str = "periodic",
                squared_contrast: bool = False) -> np.ndarray:
    """Denoise traces ``values`` (shape ``(..., N)``) at their template frequencies.

    ``omega_temps`` broadcasts to ``values.shape[:-1]``.  The detail
    coefficients go through :func:`clamp_details` with the margins of
    :func:`build_margins`; the raw approximation band is kept.
    """
    values = _as_traces(values, plan)
    if levels is None:
        levels = default_levels(plan.n_samples)
    omega_temps = np.broadcast_to(omega_temps, values.shape[:-1])
    details, approx = uwt_analyze(values, basis, levels, boundary)
    kernel_details, noise_details = build_margins(omega_temps, params, plan, basis, levels,
                                                  boundary, squared_contrast)
    clamped = clamp_details(details, kernel_details, noise_details, margin_width(beta, plan))
    return uwt_synthesize(clamped, approx, basis, boundary)


def denoise_pipeline(values, params: SensorParams, plan: AcquisitionPlan,
                     beta: float, basis: WaveletBasis | str,
                     levels: int | None = None, grid: FrequencyGrid | None = None,
                     boundary: str = "periodic") -> tuple[np.ndarray, np.ndarray]:
    """Estimate each trace's template frequency, then denoise; returns ``(denoised, omega_temps)``."""
    values = _as_traces(values, plan)
    if grid is None:
        grid = FrequencyGrid.around(params.omega_calib)
    rows = values.reshape(-1, plan.n_samples)
    omega_temps = estimate_frequencies(rows, plan.times, params, grid).reshape(values.shape[:-1])
    return tmt_denoise(values, omega_temps, beta, params, plan, basis, levels, boundary), omega_temps
