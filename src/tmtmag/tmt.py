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

The per-trace API (:func:`estimate_template_frequency`,
:func:`build_margins`, :func:`tmt_denoise`) runs the same array-level
functions as the ensemble path in :mod:`tmtmag.bench`, with a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ramsey import AcquisitionPlan, PLTrace, SensorParams, shot_noise, template
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


@dataclass(frozen=True)
class TemplateEstimate:
    """Result of the template-frequency search."""

    omega_temp: float
    grid: FrequencyGrid


def _refine_parabolic(omegas: np.ndarray, r: np.ndarray, k: int) -> float:
    denom = r[k - 1] - 2.0 * r[k] + r[k + 1]
    if denom == 0.0:
        return omegas[k]
    shift = 0.5 * (r[k - 1] - r[k + 1]) / denom
    return omegas[k] + shift * (omegas[1] - omegas[0])


def estimate_frequencies(values: np.ndarray, times: np.ndarray, params: SensorParams,
                         grid: FrequencyGrid) -> np.ndarray:
    """Per-trace template frequencies for a whole ensemble.

    ``values`` has shape (n_traces, n_samples).  Each trace's discrete
    correlation maximizer over ``grid`` is refined by one parabolic
    interpolation through its two neighbours.  A constant trace or a
    maximum on the grid boundary (search window too narrow) is an error.
    """
    values = np.asarray(values, dtype=float)
    omegas = grid.omegas
    r = correlation_spectrum(values, times, params, omegas)
    out = np.empty(values.shape[0])
    for i, k in enumerate(np.argmax(r, axis=1)):
        if np.ptp(values[i]) == 0.0:
            raise FrequencySearchError(
                f"trace {i}: constant trace, correlation identically zero after DC removal"
            )
        if k == 0 or k == omegas.size - 1:
            raise FrequencySearchError(
                f"trace {i}: correlation maximum at the grid boundary "
                f"(omega={omegas[k]:.6g}); widen the search grid"
            )
        out[i] = _refine_parabolic(omegas, r[i], int(k))
    return out


def estimate_template_frequency(trace: PLTrace, params: SensorParams,
                                grid: FrequencyGrid) -> TemplateEstimate:
    """Template frequency of one trace: :func:`estimate_frequencies` on a batch of one."""
    omega_temp = estimate_frequencies(trace.values[None], trace.times, params, grid)[0]
    return TemplateEstimate(omega_temp=omega_temp, grid=grid)


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


@dataclass(frozen=True)
class MarginSet:
    """Clamp intervals ``kernel_details +/- width * noise_details`` for one (omega_temp, beta).

    ``kernel_details`` and ``noise_details`` (the absolute shot-noise
    coefficients) are stacked ``(levels + 1, N)`` undecimated detail
    coefficients; the interval is ordered by construction.
    """

    kernel_details: np.ndarray
    noise_details: np.ndarray
    width: float
    beta: float
    levels: int
    times: np.ndarray
    basis_name: str
    boundary: str


def build_margins(omega_temp: float, beta: float, params: SensorParams,
                  plan: AcquisitionPlan, basis: WaveletBasis | str,
                  levels: int | None = None, boundary: str = "periodic",
                  squared_contrast: bool = False) -> MarginSet:
    """Decompose the template and the shot-noise profile at ``omega_temp`` once each.

    ``squared_contrast`` switches the shot-noise model variant (see
    :func:`tmtmag.ramsey.shot_noise`).
    """
    times = plan.times
    if levels is None:
        levels = default_levels(times.size)
    kernel_details, _ = uwt_analyze(template(times, omega_temp, params), basis, levels, boundary)
    noise = shot_noise(times, omega_temp, params, squared_contrast=squared_contrast)
    noise_details, _ = uwt_analyze(noise, basis, levels, boundary)
    return MarginSet(
        kernel_details=kernel_details,
        noise_details=np.abs(noise_details),
        width=margin_width(beta, plan),
        beta=beta,
        levels=levels,
        times=times,
        basis_name=basis if isinstance(basis, str) else basis.name,
        boundary=boundary,
    )


def tmt_denoise(trace: PLTrace, margins: MarginSet, basis: WaveletBasis | str) -> PLTrace:
    """Denoise one trace against prebuilt margins.

    The raw trace is decomposed with the same basis, depth and boundary as
    the margins, its detail coefficients go through :func:`clamp_details`,
    the raw approximation band is kept, and the result is reconstructed.
    """
    basis_name = basis if isinstance(basis, str) else basis.name
    if basis_name != margins.basis_name:
        raise ValueError(f"margins were built for basis {margins.basis_name!r}, got {basis_name!r}")
    if trace.values.size != margins.times.size or not np.allclose(trace.times, margins.times):
        raise ValueError("margins were built for a different time grid")
    details, approx = uwt_analyze(trace.values, basis, margins.levels, margins.boundary)
    clamped = clamp_details(details, margins.kernel_details, margins.noise_details, margins.width)
    denoised = uwt_synthesize(clamped, approx, basis, margins.boundary)
    return PLTrace(times=trace.times, values=denoised, params=trace.params, plan=trace.plan)


def denoise_pipeline(trace: PLTrace, params: SensorParams, plan: AcquisitionPlan,
                     beta: float, basis: WaveletBasis | str,
                     levels: int | None = None, grid: FrequencyGrid | None = None,
                     boundary: str = "periodic") -> tuple[PLTrace, TemplateEstimate]:
    """Estimate the template frequency, build margins, denoise; returns both artifacts."""
    if grid is None:
        grid = FrequencyGrid.around(params.omega_calib)
    estimate = estimate_template_frequency(trace, params, grid)
    margins = build_margins(estimate.omega_temp, beta, params, plan, basis, levels, boundary)
    return tmt_denoise(trace, margins, basis), estimate
