"""Monte-Carlo benchmark harness for the TMT denoiser.

Collects ensemble error statistics at slope detection points, scans the
filter order for the bias/variance trade-off, transfers the optimum order
from calibration runs, and fits SNR power laws against integration time.

Statistics use population normalization (divide by the ensemble size), so
``mse == bias**2 + variance`` holds exactly for every detection point.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .ramsey import (
    AcquisitionPlan,
    SensorParams,
    simulate_ensemble,
    template,
)
from .tmt import FrequencyGrid, build_margins, clamp_details, estimate_frequencies, margin_width
from .wavelets import default_levels, uwt_analyze, uwt_synthesis_rows, uwt_synthesize


def child_seed(seed: int, *indices: int) -> int:
    """Deterministic sub-seed for an indexed configuration."""
    entropy = [int(seed)] + [int(i) for i in indices]
    return int(np.random.SeedSequence(entropy=entropy).generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# detection points
# ---------------------------------------------------------------------------

def detection_crossings(omega: float, t_start: float, t_stop: float) -> np.ndarray:
    """Times with omega*t = pi/2 (mod 2*pi) inside [t_start, t_stop].

    These sit on the negative slopes of the PL fringes, where the template
    crosses its midline going down.
    """
    period = 2.0 * np.pi / omega
    m_lo = int(np.ceil((t_start / period) - 0.25))
    m_hi = int(np.floor((t_stop / period) - 0.25))
    return (0.25 + np.arange(max(m_lo, 0), m_hi + 1)) * period


@dataclass(frozen=True)
class DetectionPointSet:
    """Sample indices on negative fringe slopes, with true template values."""

    indices: np.ndarray
    times: np.ndarray
    truths: np.ndarray

    def __post_init__(self):
        if len(self.indices) < 1:
            raise ValueError("need at least one detection point")
        if np.any(np.diff(self.indices) <= 0):
            raise ValueError("detection indices must be strictly increasing")

    def __len__(self) -> int:
        return len(self.indices)


def find_detection_points(omega: float, plan: AcquisitionPlan, n_sd: int | None,
                          params: SensorParams) -> DetectionPointSet:
    """Samples nearest the first ``n_sd`` negative-slope fringe crossings,
    or nearest every crossing in the window when ``n_sd`` is None."""
    if n_sd is not None and n_sd < 1:
        raise ValueError(f"n_sd must be >= 1, got {n_sd}")
    times = plan.times
    crossings = detection_crossings(omega, plan.t_start, times[-1])
    need = 1 if n_sd is None else n_sd
    if crossings.size < need:
        raise ValueError(
            f"the window [{plan.t_start:.4g}, {plan.t_stop:.4g}] s contains only "
            f"{crossings.size} negative-slope crossings, need {need}"
        )
    idx = np.round((crossings[:n_sd] - plan.t_start) * plan.f_sample).astype(int)
    t_q = times[idx]
    return DetectionPointSet(indices=idx, times=t_q,
                             truths=template(t_q, omega, params))


def plan_for_detection_count(plan: AcquisitionPlan, omega: float, n_sd: int) -> AcquisitionPlan:
    """Shorten/extend ``t_stop`` so the window holds exactly ``n_sd`` crossings."""
    if n_sd < 1:
        raise ValueError(f"n_sd must be >= 1, got {n_sd}")
    period = 2.0 * np.pi / omega
    first = detection_crossings(omega, plan.t_start, plan.t_start + (n_sd + 2) * period)
    t_stop = 0.5 * (first[n_sd - 1] + first[n_sd])
    return plan.with_(t_stop=t_stop)


# ---------------------------------------------------------------------------
# ensemble statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnsembleStats:
    """Per-detection-point ensemble error metrics.

    ``mse``, ``bias``, ``variance``, ``sample_mean`` and ``mse_stderr`` are
    arrays over detection points; ``mse = bias**2 + variance`` exactly.
    """

    mse: np.ndarray
    bias: np.ndarray
    variance: np.ndarray
    sample_mean: np.ndarray
    mse_stderr: np.ndarray
    fringe_averaged_mse: float
    n_exp: int
    beta: float | None = None

    def __post_init__(self):
        if self.n_exp < 2:
            raise ValueError("ensemble statistics need at least 2 experiments")


def ensemble_stats(traces: np.ndarray, points: DetectionPointSet,
                   beta: float | None = None) -> EnsembleStats:
    """MSE/bias/variance over an (n_exp, n_samples) array of traces.

    Gathers the samples at ``points.indices`` and hands them to
    :func:`point_stats`.
    """
    values = np.asarray(traces, dtype=float)
    if values.ndim != 2:
        raise ValueError(f"expected an (n_exp, n_samples) ensemble, got shape {values.shape}")
    if values.shape[0] < 2:
        raise ValueError("need at least 2 experiments for ensemble statistics")
    if np.any(points.indices >= values.shape[1]):
        raise ValueError("detection indices fall outside the trace grid")
    return point_stats(values[:, points.indices], points, beta)


def point_stats(at_points: np.ndarray, points: DetectionPointSet,
                beta: float | None = None) -> EnsembleStats:
    """:class:`EnsembleStats` from the (n_exp, n_sd) values at the detection points.

    The variance divides by n_exp (not n_exp - 1) to keep the
    decomposition identity exact.
    """
    n_exp = at_points.shape[0]
    dev = at_points - points.truths[None, :]
    mse = np.mean(dev ** 2, axis=0)
    bias = np.mean(dev, axis=0)
    sample_mean = np.mean(at_points, axis=0)
    variance = np.mean((at_points - sample_mean[None, :]) ** 2, axis=0)
    fourth = np.mean(dev ** 4, axis=0)
    mse_stderr = np.sqrt(np.maximum(fourth - mse ** 2, 0.0) / n_exp)
    return EnsembleStats(
        mse=mse,
        bias=bias,
        variance=variance,
        sample_mean=sample_mean,
        mse_stderr=mse_stderr,
        fringe_averaged_mse=float(np.mean(mse)),
        n_exp=n_exp,
        beta=beta,
    )


def signal_amplitude(points: DetectionPointSet, params: SensorParams,
                     omega_sense: float, omega_calib: float) -> float:
    """Mean absolute template shift produced by the sensing field.

    delta_N = mean over detection points of
    |template(t_q, omega_sense) - template(t_q, omega_calib)|.
    """
    shift = template(points.times, omega_sense, params) - template(points.times, omega_calib, params)
    return float(np.mean(np.abs(shift)))


def snr(stats: EnsembleStats, delta_n: float) -> float:
    """Signal amplitude over the root fringe-averaged MSE."""
    if stats.fringe_averaged_mse <= 0.0:
        raise ValueError("fringe-averaged MSE must be positive (degenerate noiseless ensemble)")
    return delta_n / np.sqrt(stats.fringe_averaged_mse)


def snr_stderr(stats: EnsembleStats, delta_n: float) -> float:
    """Delta-method standard error of :func:`snr` from the MSE sampling noise."""
    fringe_se = np.sqrt(np.sum(stats.mse_stderr ** 2)) / len(stats.mse)
    value = snr(stats, delta_n)
    return 0.5 * value * fringe_se / stats.fringe_averaged_mse


# ---------------------------------------------------------------------------
# benchmark configurations and the beta sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BenchmarkSetup:
    """One simulate/denoise/evaluate configuration."""

    params: SensorParams
    plan: AcquisitionPlan
    omega_true: float
    n_sd: int | None  # None: every crossing in the window
    basis: str = "bior6.8"
    levels: int | None = None
    grid: FrequencyGrid | None = None
    photon_stats: str = "bernoulli-poisson"
    shared_estimate: bool = False
    squared_contrast: bool = False

    def resolved_levels(self) -> int:
        if self.levels is not None:
            return self.levels
        return default_levels(self.plan.n_samples)

    def resolved_grid(self) -> FrequencyGrid:
        return self.grid if self.grid is not None else FrequencyGrid.around(self.params.omega_calib)

    def with_plan(self, **kwargs) -> "BenchmarkSetup":
        return replace(self, plan=self.plan.with_(**kwargs))


def _blocked_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` summed over blocks of 256 columns of ``a``, in order.

    OpenBLAS splits a large product between threads and then sums some
    elements with another micro-kernel, so its bits depend on the thread
    count; products of one block stay on one thread.
    """
    out = a[:, :256] @ b[:256]
    for s in range(256, a.shape[1], 256):
        out += a[:, s:s + 256] @ b[s:s + 256]
    return out


@dataclass(frozen=True)
class _PackedPoints:
    """The residual coefficients that the detection points' synthesis rows read, packed for beta scans.

    ``rows`` (C, p) are the non-zero rows of every level, stacked level by
    level; ``offsets`` (n_exp, C) are the matching detail coefficients of
    the residual ``values - templates``, ``magnitudes`` their absolute
    values and ``noise`` the matching ``|S|``.  ``base`` (n_exp, p) is the
    templates at the detection points plus the residual approximation
    band's share, and ``work`` is the reused clip buffer.
    """

    rows: np.ndarray
    offsets: np.ndarray
    magnitudes: np.ndarray
    noise: np.ndarray
    base: np.ndarray
    work: np.ndarray


class EnsembleRun:
    """One simulated ensemble with its residual decomposition cached for beta scans.

    Construction finds the detection points (:attr:`points`), simulates,
    estimates the template frequencies (one search of the ensemble mean
    with ``shared_estimate``), builds the templates and ``|S|`` through
    :func:`~tmtmag.tmt.build_margins`, decomposes the residual
    ``values - templates`` once, and scores the raw traces
    (:attr:`raw_stats`).

    :meth:`denoised` clips all residual detail coefficients with one
    :func:`~tmtmag.tmt.clamp_details` call, synthesizes and adds the
    templates, so it equals :func:`~tmtmag.tmt.tmt_denoise` on the same
    traces and frequencies, including the exact limits: ``beta = -inf``
    leaves every residual coefficient unclipped (the raw traces) and
    ``beta = +inf`` zeroes every residual detail (the templates plus the
    residual approximation band's share).

    ``denoised(beta, at_points=True)``, which :meth:`stats` scores,
    synthesizes only the detection samples: the synthesis is linear, so
    each is a fixed row of it (:func:`~tmtmag.wavelets.uwt_synthesis_rows`).
    The first such call packs the C residual coefficients those rows read
    (see :class:`_PackedPoints`), with one boolean gather per coefficient
    stack by the mask of non-zero rows; every beta then costs three
    in-place passes over one (n_exp, C) buffer and one matrix product.  The
    packed clip ``copysign(fmin(width * |S|, |r|), r)`` of a residual
    coefficient ``r`` is the clip of :func:`~tmtmag.tmt.clamp_details` at
    every width: ``fmin`` passes over the NaN of ``inf * 0`` where
    ``|S| = 0``.  The outputs agree with clipping the full stack up to
    rounding.
    """

    def __init__(self, setup: BenchmarkSetup):
        self.setup = setup
        plan, params = setup.plan, setup.params
        self.times = plan.times
        self.levels = setup.resolved_levels()
        self.points = find_detection_points(setup.omega_true, plan, setup.n_sd, params)
        self.values = simulate_ensemble(params, plan, setup.omega_true, setup.photon_stats)
        searched = self.values.mean(axis=0) if setup.shared_estimate else self.values
        self.omega_temps = np.full(plan.n_experiments, estimate_frequencies(
            searched, self.times, params, setup.resolved_grid()))
        self._templates, self._noise_details = build_margins(
            self.omega_temps, params, plan, setup.basis, self.levels, setup.squared_contrast)
        self._residual_details, self._residual_approx = uwt_analyze(
            self.values - self._templates, setup.basis, self.levels)
        self.raw_stats = ensemble_stats(self.values, self.points)

    def denoised(self, beta: float, at_points: bool = False) -> np.ndarray:
        """Denoised traces (n_exp, N); with ``at_points``, only the detection samples (n_exp, p)."""
        width = margin_width(beta, self.setup.plan)
        if not at_points:
            clamped = clamp_details(self._residual_details, self._noise_details, width)
            return self._templates + uwt_synthesize(clamped, self._residual_approx, self.setup.basis)
        packed = self._packed
        clipped = packed.work
        with np.errstate(invalid="ignore"):  # inf * 0 where |S| vanishes; fmin passes over it
            np.multiply(packed.noise, width, out=clipped)
        np.fmin(clipped, packed.magnitudes, out=clipped)
        np.copysign(clipped, packed.offsets, out=clipped)
        return packed.base + _blocked_product(clipped, packed.rows)

    def stats(self, beta: float) -> EnsembleStats:
        """Statistics of the order-``beta`` denoised samples at the detection points."""
        return point_stats(self.denoised(beta, at_points=True), self.points, beta=float(beta))

    @cached_property
    def _packed(self) -> _PackedPoints:
        rows, approx_rows = uwt_synthesis_rows(self.values.shape[1], self.points.indices,
                                               self.setup.basis, self.levels)
        touched = rows.any(axis=2)
        packed_rows = rows[touched]
        # one gather per (levels + 1, n_exp, N) stack, in the level-major
        # column order of rows[touched]; the gathers come out in Fortran
        # order and are copied to C order, as dgemm sums the product of a
        # Fortran-order operand in another order
        offsets, noise = (
            np.ascontiguousarray(np.moveaxis(stack, 1, 0)[:, touched])
            for stack in (self._residual_details, self._noise_details))
        base = (_blocked_product(self._residual_approx, approx_rows)
                + self._templates[:, self.points.indices])
        return _PackedPoints(rows=packed_rows, offsets=offsets, magnitudes=np.abs(offsets),
                             noise=noise, base=base, work=np.empty_like(offsets))


@dataclass
class BetaSweepResult:
    """Filter-order scan of one configuration."""

    betas: np.ndarray
    stats: list[EnsembleStats]
    raw_stats: EnsembleStats
    beta_opt: float
    opt_stats: EnsembleStats
    beta_opt_on_edge: bool
    omega_temps: np.ndarray
    points: DetectionPointSet


def sweep_beta(setup: BenchmarkSetup, beta_grid) -> BetaSweepResult:
    """Simulate once, denoise at every filter order, collect statistics.

    The same ensemble (common random numbers) is reused across the whole
    grid, so curves are directly comparable; the argmin of the
    fringe-averaged MSE is reported and flagged if it sits on a grid edge.
    Only the detection points are synthesized at each order
    (:meth:`EnsembleRun.stats`); they equal the same samples of the fully
    synthesized traces up to rounding.
    """
    betas = np.asarray(beta_grid, dtype=float)
    if betas.size < 3:
        raise ValueError(f"beta grid needs at least 3 values, got {betas.size}")
    if not np.all(betas[1:] > betas[:-1]):
        raise ValueError("beta grid must be strictly increasing")
    run = EnsembleRun(setup)
    stats = [run.stats(beta) for beta in betas]
    k_opt = int(np.argmin([s.fringe_averaged_mse for s in stats]))
    return BetaSweepResult(
        betas=betas,
        stats=stats,
        raw_stats=run.raw_stats,
        beta_opt=float(betas[k_opt]),
        opt_stats=stats[k_opt],
        beta_opt_on_edge=k_opt in (0, betas.size - 1),
        omega_temps=run.omega_temps,
        points=run.points,
    )


def default_beta_grid(start: float = -4.0, stop: float = 2.0, step: float = 0.1) -> np.ndarray:
    """``start, start + step, ...`` up to ``stop``; at least 3 values.

    The step count is rounded only when ``(stop - start) / step`` lies
    within 1e-9 relative of an integer, so no value steps past ``stop``
    other than by rounding.
    """
    span = (stop - start) / step
    n = round(span)
    if abs(span - n) > 1e-9 * abs(span):
        n = int(np.floor(span))
    if n < 2:
        raise ValueError(f"beta grid from {start:g} to {stop:g} by {step:g} "
                         f"holds {max(n + 1, 0)} values, need at least 3")
    return start + step * np.arange(n + 1)


def calibrate_beta(setup: BenchmarkSetup, beta_grid) -> float:
    """Optimum filter order measured on calibration-field-only runs.

    Simulates at the calibration frequency (truths from the calibration
    template) with the same window, repetition count and sampling rate,
    and returns the MSE-minimizing order.
    """
    calib = replace(setup, omega_true=setup.params.omega_calib)
    return sweep_beta(calib, beta_grid).beta_opt


# ---------------------------------------------------------------------------
# scaling fits and derived analyses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalingFit:
    """Power law y = c * x**alpha fitted by least squares in log-log space."""

    prefactor: float
    exponent: float
    r_squared: float
    points: np.ndarray


def fit_scaling(points) -> ScalingFit:
    """Fit (x, y) pairs to c * x**alpha.

    Requires >= 3 finite, strictly positive pairs with at least two
    distinct x values (one x leaves the slope 0/0).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"expected an (n, 2) array of (x, y) pairs, got shape {pts.shape}")
    if pts.shape[0] < 3:
        raise ValueError(f"need at least 3 points for a scaling fit, got {pts.shape[0]}")
    if not np.isfinite(pts).all():
        raise ValueError("scaling fits need finite coordinates")
    if np.any(pts <= 0.0):
        raise ValueError("scaling fits need strictly positive coordinates")
    if np.unique(pts[:, 0]).size < 2:
        raise ValueError("scaling fits need at least two distinct x values")
    lx = np.log(pts[:, 0])
    ly = np.log(pts[:, 1])
    lx_c = lx - lx.mean()
    slope = float(np.sum(lx_c * ly) / np.sum(lx_c ** 2))
    intercept = float(ly.mean() - slope * lx.mean())
    residuals = ly - (intercept + slope * lx)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - float(np.sum(residuals ** 2)) / ss_tot if ss_tot > 0 else 1.0
    return ScalingFit(prefactor=float(np.exp(intercept)), exponent=slope,
                      r_squared=r2, points=pts)


@dataclass(frozen=True)
class SnrPoint:
    """Raw and TMT-enhanced SNR for one repetition count."""

    repetitions: int
    integration_time: float
    raw_snr: float
    tmt_snr: float
    beta_opt: float
    beta_opt_on_edge: bool
    raw_fringe_mse: float
    tmt_fringe_mse: float
    delta_n: float


def benchmark_snr(setup: BenchmarkSetup, m_values, beta_grid) -> list[SnrPoint]:
    """Raw and optimum-order TMT SNR for a family of repetition counts.

    Each repetition count gets an independent random stream (sub-seeded
    from the plan seed), while every beta within one count shares its
    ensemble.
    """
    points = find_detection_points(setup.omega_true, setup.plan, setup.n_sd, setup.params)
    delta_n = signal_amplitude(points, setup.params, setup.omega_true, setup.params.omega_calib)
    out = []
    for k, m in enumerate(m_values):
        sub = setup.with_plan(repetitions=int(m), seed=child_seed(setup.plan.seed, k))
        result = sweep_beta(sub, beta_grid)
        out.append(SnrPoint(
            repetitions=int(m),
            integration_time=float(m * sub.plan.t_stop),
            raw_snr=snr(result.raw_stats, delta_n),
            tmt_snr=snr(result.opt_stats, delta_n),
            beta_opt=result.beta_opt,
            beta_opt_on_edge=result.beta_opt_on_edge,
            raw_fringe_mse=result.raw_stats.fringe_averaged_mse,
            tmt_fringe_mse=result.opt_stats.fringe_averaged_mse,
            delta_n=delta_n,
        ))
    return out


@dataclass(frozen=True)
class GainPoint:
    """Calibration-transferred TMT gain for one PL duration."""

    n_sd: int
    t_stop: float
    beta_calib: float
    raw_fringe_mse: float
    tmt_fringe_mse: float
    gain: float


def gain_profile(setup: BenchmarkSetup, n_sd_values, beta_grid) -> list[GainPoint]:
    """TMT gain sqrt(MSE_raw / MSE_TMT) across PL durations.

    For each requested detection-point count the window is resized to hold
    exactly that many negative-slope crossings; the filter order comes
    from a calibration sweep with the same duration, repetitions and
    sampling rate, then is applied to an independent sensing ensemble.
    """
    out = []
    for k, n_sd in enumerate(n_sd_values):
        plan_k = plan_for_detection_count(setup.plan, setup.omega_true, int(n_sd))
        calib_setup = replace(setup, n_sd=int(n_sd),
                              plan=plan_k.with_(seed=child_seed(setup.plan.seed, k, 0)))
        beta_calib = calibrate_beta(calib_setup, beta_grid)
        sense_setup = replace(setup, n_sd=int(n_sd),
                              plan=plan_k.with_(seed=child_seed(setup.plan.seed, k, 1)))
        raw_mse, tmt_mse = _sense_fringe_mse(sense_setup, beta_calib)
        out.append(GainPoint(
            n_sd=int(n_sd),
            t_stop=plan_k.t_stop,
            beta_calib=beta_calib,
            raw_fringe_mse=raw_mse,
            tmt_fringe_mse=tmt_mse,
            gain=float(np.sqrt(raw_mse / tmt_mse)),
        ))
    return out


def _sense_fringe_mse(setup: BenchmarkSetup, beta: float) -> tuple[float, float]:
    """Raw and order-``beta`` TMT fringe-averaged MSE of one sensing ensemble.

    The ensemble, its residual stacks and its packed clip are freed on
    return, before the next calibration sweep builds its own.
    """
    run = EnsembleRun(setup)
    return run.raw_stats.fringe_averaged_mse, run.stats(beta).fringe_averaged_mse
