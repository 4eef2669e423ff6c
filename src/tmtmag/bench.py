"""Monte-Carlo benchmark harness for the TMT denoiser.

Collects ensemble error statistics at slope detection points, scans the
filter order for the bias/variance trade-off, transfers the optimum order
from calibration runs, and fits SNR power laws against integration time.

Statistics use population normalization (divide by the ensemble size), and
``mse`` is formed as ``bias**2 + variance``, so the identity holds exactly
for every detection point.
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
from .tmt import (SPECTRUM_ROWS, FrequencyGrid, estimate_frequencies, margin_width,
                  residual_chunk_rows, residual_chunks, tmt_denoise)
from .wavelets import default_levels, uwt_basis, uwt_synthesis_rows
# uncalled: perfbench/child.py wraps them (test_benchmark_wrap_points_exist) until ROADMAP item 1
from .wavelets import uwt_analyze, uwt_synthesize  # noqa: F401


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
    if not period < np.inf:
        raise ValueError(f"the fringe at omega = {omega:.6g} rad/s is too slow: its period overflows")
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
        for name in ("indices", "times", "truths"):
            object.__setattr__(self, name, np.asarray(getattr(self, name)))
        indices = self.indices
        if not (indices.ndim == 1 and indices.size and indices.dtype.kind in "iu"
                and indices.min() >= 0):
            raise ValueError(f"indices must be one or more non-negative integers, got {indices!r}")
        if np.any(np.diff(indices) <= 0):
            raise ValueError("indices must be strictly increasing")
        for name in ("times", "truths"):
            if (shape := getattr(self, name).shape) != indices.shape:
                raise ValueError(f"{name} has shape {shape}, indices {indices.shape}")

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
    """Move ``t_stop`` midway between the ``n_sd``-th and the next crossing from ``t_start`` on."""
    if n_sd < 1:
        raise ValueError(f"n_sd must be >= 1, got {n_sd}")
    period = 2.0 * np.pi / omega
    crossings = detection_crossings(omega, plan.t_start, plan.t_start + (n_sd + 2) * period)
    if crossings.size <= n_sd:  # so late a t_start that the periods round away
        raise ValueError(f"t_start = {plan.t_start:.6g} s is too late to resolve {n_sd + 1} crossings")
    return plan.with_(t_stop=float(0.5 * (crossings[n_sd - 1] + crossings[n_sd])))


# ---------------------------------------------------------------------------
# ensemble statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnsembleStats:
    """Per-detection-point ensemble error metrics.

    ``mse``, ``bias``, ``variance`` and ``sample_mean`` are arrays over
    detection points; ``mse = bias**2 + variance`` exactly.
    """

    mse: np.ndarray
    bias: np.ndarray
    variance: np.ndarray
    sample_mean: np.ndarray
    fringe_averaged_mse: float
    n_exp: int

    def __post_init__(self):
        if self.n_exp < 2:
            raise ValueError("ensemble statistics need at least 2 experiments")


def ensemble_stats(traces: np.ndarray, points: DetectionPointSet) -> EnsembleStats:
    """MSE/bias/variance over an (n_exp, n_samples) array of traces.

    Gathers the samples at ``points.indices`` into a C-contiguous array, as
    :class:`EnsembleRun` does, and hands them to :func:`point_stats`.
    """
    values = np.asarray(traces, dtype=float)
    if values.ndim != 2:
        raise ValueError(f"expected an (n_exp, n_samples) ensemble, got shape {values.shape}")
    if np.any(points.indices >= values.shape[1]):
        raise ValueError("detection indices fall outside the trace grid")
    return point_stats(np.take(values, points.indices, axis=1), points)


def point_stats(at_points: np.ndarray, points: DetectionPointSet) -> EnsembleStats:
    """:class:`EnsembleStats` from the (n_exp, n_sd) values at the detection points.

    The variance divides by n_exp (not n_exp - 1), and ``mse`` is
    ``bias * bias + variance``, so the decomposition identity is exact; it
    differs from the mean squared deviation in rounding.  A mean is
    ``np.add.reduce(..., axis=0) / n_exp``, which is what ``np.mean``
    computes.
    """
    n_exp = at_points.shape[0]
    dev = at_points - points.truths[None, :]
    bias = np.add.reduce(dev, axis=0) / n_exp
    sample_mean = np.add.reduce(at_points, axis=0) / n_exp
    spread = at_points - sample_mean[None, :]
    variance = np.add.reduce(spread * spread, axis=0) / n_exp
    mse = bias * bias + variance
    return EnsembleStats(
        mse=mse,
        bias=bias,
        variance=variance,
        sample_mean=sample_mean,
        fringe_averaged_mse=float(np.add.reduce(mse) / mse.size),
        n_exp=n_exp,
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


#: coefficients per block of :func:`_bucket_keys`; its scratch costs no memory
_KEY_BLOCK = 8192


def _bucket_keys(offsets, scales, widths, work) -> np.ndarray:
    """The (C, E) keys ``np.searchsorted(widths, tau)`` of ``tau = |offsets| / scales``.

    ``tau`` goes to ``work``.  The finite positive widths, ``w_lo`` at index
    ``lo`` to ``w_hi`` at ``hi``, are log-spaced (0 before them, inf after),
    so a key is guessed as ``floor((log tau - log w_lo) * scale) + lo + 1``,
    clipped to ``[lo, hi + 1]``, and checked once against the widths on
    either side.  Only failed guesses (NaN ``tau`` at ``r = |S| = 0``, ties,
    grids far from log-uniform) go to ``searchsorted``.  A block's scratch
    is the spent ``tau`` before it, or for the first block the next block's
    keys, so the step allocates no coefficient-sized temporary.
    """
    with np.errstate(divide="ignore", invalid="ignore"):  # s = 0: tau is inf, or NaN at r = 0
        tau = np.divide(np.abs(offsets, out=work), scales, out=work).reshape(-1)
    finite = np.flatnonzero((widths > 0.0) & (widths < np.inf))
    log_lo, log_hi = np.log(widths[finite[[0, -1]]]) if finite.size else (0.0, 0.0)
    block = min(_KEY_BLOCK, tau.size // 2)
    if not (log_hi > log_lo and block):  # under two distinct finite widths, or one coefficient
        return np.searchsorted(widths, tau).reshape(offsets.shape)
    lo, hi = finite[0], finite[-1]
    scale = (hi - lo) / (log_hi - log_lo)
    shift = lo + 1 - log_lo * scale
    below = np.concatenate([[-np.inf], widths])  # below[q] = widths[q - 1]
    above = np.concatenate([widths, [np.inf]])  # above[q] = widths[q]
    keys = np.empty(tau.size, dtype=np.intp)
    guesses = keys.view(np.float64)
    for start in range(0, tau.size, block):
        part = slice(start, start + block)
        t, guess, key = tau[part], guesses[part], keys[part]
        scratch = (tau[start - block:start] if start else guesses[block:2 * block])[:t.size]
        with np.errstate(divide="ignore"):  # tau = 0
            np.log(t, out=guess)
        guess *= scale
        guess += shift
        np.fmin(np.fmax(guess, lo, out=guess), hi + 1, out=guess)  # fmax takes NaN to lo
        key[...] = guess  # in place; truncation floors a guess >= 0
        ok = np.less(np.take(below, key, out=scratch, mode="clip"), t)
        ok &= np.greater_equal(np.take(above, key, out=scratch, mode="clip"), t)
        if not ok.all():
            miss = np.flatnonzero(~ok)
            key[miss] = np.searchsorted(widths, t[miss])
    return keys.reshape(offsets.shape)


def _clipped_point_sums(offsets, scales, rows, widths, out) -> None:
    """Write to the (K, E, p) ``out`` what clipping the residual details at every width
    changes at the synthesis ``rows``.

    ``offsets`` and ``scales`` are the (C, E) residual coefficients and
    ``|S|`` values of E experiments at the C coefficients that the (C, p)
    ``rows`` read, and the K ``widths`` rise.  ``scales`` is overwritten, unless it is
    read-only (one ``|S|`` broadcast over the chunk), when it is copied.  A coefficient ``r``
    with noise scale ``s`` is clipped to ``sign(r)*w*s`` at the widths
    ``w`` below ``tau = |r|/s`` and passes unclipped from there on, so it
    falls into bucket ``q = searchsorted(widths, tau)``, the number of
    widths that clip it (:func:`_bucket_keys`).  With ``U`` and ``B`` the per-bucket
    ``np.bincount`` sums of ``r*row`` and ``sign(r)*s*row``, width ``w_k``
    changes the sample by ``w_k*sum(B[q > k]) - sum(U[q > k])``: each
    coefficient it clips swaps its share ``r*row`` for
    ``sign(r)*w_k*s*row``.  ``sum(U[q > k])`` is the total of a forward
    cumulative sum less its first ``k + 1`` terms, so an infinite width,
    which clips nothing, also where ``s = 0``, changes nothing exactly.
    It holds two (C, E) arrays, the keys and ``work``, and per detection row the two
    (E, K + 1) bucket sums, which are cumulated in place.
    """
    n_buckets, n_exp = widths.size + 1, offsets.shape[1]
    work = np.empty(offsets.shape)
    keys = _bucket_keys(offsets, scales, widths, work)
    keys += n_buckets * np.arange(n_exp)  # one run of buckets per experiment
    keys = keys.ravel()
    # a broadcast |S| (one analysis shared by the chunk) is read-only, and gets a copy
    signed = np.copysign(scales, offsets, out=scales if scales.flags.writeable else None)
    finite = np.where(widths < np.inf, widths, 0.0)  # B is 0 there, and inf * 0 NaN
    for j, row in enumerate(rows.T):
        unclipped, clipped = (
            np.bincount(keys, np.multiply(coeffs, row[:, None], out=work).ravel(),
                        n_exp * n_buckets)
            .reshape(n_exp, n_buckets) for coeffs in (offsets, signed))
        # the sums are cumulated where bincount left them: U forward, B backward from its end
        np.cumsum(unclipped, axis=1, out=unclipped)
        suffix = clipped[:, :0:-1]
        np.cumsum(suffix, axis=1, out=suffix)
        suffix = clipped[:, 1:]
        suffix *= finite
        sample = np.subtract(unclipped[:, :-1], unclipped[:, -1:], out=out[:, :, j].T)
        sample += suffix


class EnsembleRun:
    """One simulated ensemble, denoised at the detection points for every order of a beta grid.

    Construction checks the grid ``betas`` (strictly increasing, no NaN;
    ``+-inf`` allowed), the basis and the depth, finds the detection points (:attr:`points`),
    simulates (:attr:`values`), estimates the template frequencies
    (:attr:`omega_temps`; one search of the ensemble mean with
    ``shared_estimate``), gathers the raw detection samples and scores them
    (:attr:`raw_stats`).  The traces are the only trace-sized array the run
    keeps: both denoising paths read the residual's coefficients and
    ``|S|`` from :func:`~tmtmag.tmt.residual_chunks`, one chunk of
    experiments at a time (at most 64, and at most 9600 trace samples, so a
    chunk's working set does not grow with the window).

    Both return the raw traces plus the synthesis of what the clip changes
    (see :mod:`tmtmag.tmt`).  :meth:`denoised` at full length is
    :func:`~tmtmag.tmt.tmt_denoise` of the run's traces at their
    frequencies, at any beta, exact limits included: ``beta = -inf``
    returns the raw traces bit for bit and ``beta = +inf`` zeroes every
    residual detail.

    ``denoised(beta, at_points=True)``, which :meth:`stats` scores, reads
    one order of the grid from the detection samples that the first such
    call computes at every order at once (:attr:`_at_points`): each
    denoised detection sample is the raw sample plus a fixed row of the
    synthesis (:func:`~tmtmag.wavelets.uwt_synthesis_rows`) applied to
    what clipping changes in the residual details.  The outputs agree with
    clipping the full stack up to rounding, and equal the raw samples bit
    for bit at every order whose width is infinite, where :meth:`stats`
    equals :attr:`raw_stats` bit for bit.
    """

    def __init__(self, setup: BenchmarkSetup, betas):
        self.setup = setup
        plan, params = setup.plan, setup.params
        self.betas = np.array(betas, dtype=float)
        if self.betas.ndim != 1 or self.betas.size < 1:
            raise ValueError(f"beta grid needs at least 1 value, got {betas!r}")
        # per order: numpy's SIMD array power is not libm's pow, and would move table bytes
        self._widths = np.array([margin_width(beta, plan) for beta in self.betas])
        if not np.all(self.betas[1:] > self.betas[:-1]):
            raise ValueError("beta grid must be strictly increasing")
        self.levels = setup.resolved_levels()
        uwt_basis(setup.basis, plan.n_samples, self.levels)
        self.points = find_detection_points(setup.omega_true, plan, setup.n_sd, params)
        self.values = simulate_ensemble(params, plan, setup.omega_true, setup.photon_stats)
        searched = self.values.mean(axis=0) if setup.shared_estimate else self.values
        self.omega_temps = np.full(plan.n_experiments, estimate_frequencies(
            searched, plan.times, params, setup.resolved_grid()))
        self._raw = np.take(self.values, self.points.indices, axis=1)
        self.raw_stats = point_stats(self._raw, self.points)

    def denoised(self, beta: float, at_points: bool = False) -> np.ndarray:
        """Denoised traces (n_exp, N); with ``at_points``, only the detection samples (n_exp, p).

        With ``at_points`` the order must be on the run's grid; the returned
        array is a read-only view.
        """
        if not at_points:
            setup = self.setup
            return tmt_denoise(self.values, self.omega_temps, beta, setup.params, setup.plan,
                               setup.basis, self.levels, setup.squared_contrast)
        k = int(np.searchsorted(self.betas, beta))
        if k == self.betas.size or self.betas[k] != beta:
            raise ValueError(f"beta = {beta} is not on this run's grid of {self.betas.size} "
                             f"orders from {self.betas[0]:g} to {self.betas[-1]:g}")
        return self._at_points[k]

    def stats(self, beta: float) -> EnsembleStats:
        """Statistics of the order-``beta`` denoised samples at the detection points."""
        return point_stats(self.denoised(beta, at_points=True), self.points)

    @cached_property
    def _at_points(self) -> np.ndarray:
        """The (K, n_exp, p) denoised detection samples at the K orders of the grid, read-only.

        Each chunk of :func:`~tmtmag.tmt.residual_chunks` yields the residual
        coefficients and ``|S|`` at the C coefficients that the detection
        rows read, which are bucketed by the width at which they start to
        clip (:func:`_clipped_point_sums`), straight into the chunk's samples,
        before the next chunk is built.  So the cost hardly grows with the
        number of orders, and no matrix product is taken.
        """
        setup, indices = self.setup, self.points.indices
        rows = uwt_synthesis_rows(self.values.shape[1], indices, setup.basis, self.levels)
        level, sample = np.nonzero(rows.any(axis=2))
        rows = rows[level, sample]  # (C, p), level by level
        # the clipped shares come in order of rising width, falling beta
        widths = self._widths[::-1]
        out = np.empty((widths.size,) + self._raw.shape)
        for chunk, offsets, scales in residual_chunks(
                self.values, self.omega_temps, setup.params, setup.plan, setup.basis,
                self.levels, setup.squared_contrast, at=(level, slice(None), sample)):
            _clipped_point_sums(offsets, scales, rows, widths, out[:, chunk])
            out[:, chunk] += self._raw[chunk]
            del offsets  # spent scales stay bound, like tmt_denoise's details; offsets cost RSS
        out.flags.writeable = False
        return out[::-1]


def ensemble_run_bytes(setup: BenchmarkSetup, n_betas: int, n_points: int) -> int:
    """Most bytes an :class:`EnsembleRun` of ``setup`` allocates while it is built, denoises
    its full traces or builds its point sweep on a grid of K = ``n_betas`` orders at
    p = ``n_points`` detection points:

    - per experiment, ``2 * N + (K + 1) * p`` doubles: the trace, the full-trace output, the
      raw detection samples and the sweep's (K, n_exp, p) samples;
    - per experiment of one chunk of :func:`~tmtmag.tmt.residual_chunks`
      (:func:`~tmtmag.tmt.residual_chunk_rows`: ``E = min(n_exp, 64, max(1, 9600 // N))``),
      ``(4 * levels + 12) * N`` doubles of coefficient stacks or (C, E) gathers, and a
      detection row's two ``K + 1`` bucket sums;
    - once, the detection rows (``(2 * levels + 8) * N * p`` doubles while built) and the
      frequency search's block of ``SPECTRUM_ROWS`` traces: 3 complex values a trace and 5
      more per FFT sample, the FFT length being below ``2 * (N + freq_points)``.  A trace
      may fall back to its full spectrum, so this is the full search's term.
    """
    plan, n, levels = setup.plan, setup.plan.n_samples, setup.resolved_levels()
    n_exp, freq_points, p = plan.n_experiments, setup.resolved_grid().n_points, n_points
    rows = min(n_exp, residual_chunk_rows(n))
    chunk = ((4 * levels + 12) * n + 2 * (n_betas + 1)) * rows
    fft = 4 * (3 * min(n_exp, SPECTRUM_ROWS) + 5) * (n + freq_points)
    return 8 * (n_exp * (2 * n + (n_betas + 1) * p) + chunk + (2 * levels + 8) * n * p + fft)


@dataclass
class BetaSweepResult:
    """Filter-order scan of one configuration."""

    betas: np.ndarray
    stats: list[EnsembleStats]
    raw_stats: EnsembleStats
    beta_opt: float
    opt_stats: EnsembleStats
    beta_opt_on_edge: bool
    points: DetectionPointSet


#: most values a :func:`default_beta_grid` (and a configured ``filter.beta_grid``) may hold
MAX_BETA_GRID = 10_001


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
    run = EnsembleRun(setup, betas)
    stats = [run.stats(beta) for beta in betas]
    k_opt = int(np.argmin([s.fringe_averaged_mse for s in stats]))
    return BetaSweepResult(
        betas=betas,
        stats=stats,
        raw_stats=run.raw_stats,
        beta_opt=float(betas[k_opt]),
        opt_stats=stats[k_opt],
        beta_opt_on_edge=k_opt in (0, betas.size - 1),
        points=run.points,
    )


def default_beta_grid(start: float = -4.0, stop: float = 2.0, step: float = 0.1) -> np.ndarray:
    """``start, start + step, ...`` up to ``stop``; at least 3 and at most
    :data:`MAX_BETA_GRID` values.

    The bounds and the step must be finite, with ``step > 0`` and
    ``stop > start``; a bad argument is rejected by name before any
    arithmetic, and a grid too long before it is built.  The step count is
    rounded only when ``(stop - start) / step`` lies within 1e-9 relative
    of an integer, so no value steps past ``stop`` other than by rounding.
    """
    for name, value in (("start", start), ("stop", stop), ("step", step)):
        if not np.isfinite(value):
            raise ValueError(f"beta grid {name} must be finite, got {value}")
    if step <= 0:
        raise ValueError(f"beta grid step must be > 0, got {step:g}")
    if stop <= start:
        raise ValueError(f"beta grid stop must be > start, got start {start:g} and stop {stop:g}")
    span = (stop - start) / step  # inf when the quotient overflows
    if span == np.inf or round(span) + 1 > MAX_BETA_GRID:
        raise ValueError(f"beta grid holds more than {MAX_BETA_GRID} values "
                         f"({span:.6g} steps from start to stop)")
    n = round(span)
    if abs(span - n) > 1e-9 * abs(span):
        n = int(np.floor(span))
    if n < 2:
        raise ValueError(f"beta grid from {start:g} to {stop:g} by {step:g} "
                         f"holds {max(n + 1, 0)} values, need at least 3")
    return start + step * np.arange(n + 1)


# ---------------------------------------------------------------------------
# scaling fits and derived analyses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalingFit:
    """Power law y = c * x**alpha fitted by least squares in log-log space."""

    prefactor: float
    exponent: float
    r_squared: float


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
    if pts[:, 0].min() == pts[:, 0].max():  # np.unique would import numpy.ma
        raise ValueError("scaling fits need at least two distinct x values")
    lx = np.log(pts[:, 0])
    ly = np.log(pts[:, 1])
    lx_c = lx - lx.mean()
    slope = float(np.sum(lx_c * ly) / np.sum(lx_c ** 2))
    intercept = float(ly.mean() - slope * lx.mean())
    residuals = ly - (intercept + slope * lx)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - float(np.sum(residuals ** 2)) / ss_tot if ss_tot > 0 else 1.0
    return ScalingFit(prefactor=float(np.exp(intercept)), exponent=slope, r_squared=r2)


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


def snr_setups(setup: BenchmarkSetup, m_values) -> list[BenchmarkSetup]:
    """The ensembles :func:`benchmark_snr` builds: one per repetition count,
    each on its own sub-seed of the plan seed."""
    return [replace(setup, plan=setup.plan.with_(repetitions=int(m),
                                                 seed=child_seed(setup.plan.seed, k)))
            for k, m in enumerate(m_values)]


def benchmark_snr(setup: BenchmarkSetup, m_values, beta_grid) -> list[SnrPoint]:
    """Raw and optimum-order TMT SNR for a family of repetition counts.

    Each repetition count gets an independent random stream (sub-seeded
    from the plan seed), while every beta within one count shares its
    ensemble.
    """
    points = find_detection_points(setup.omega_true, setup.plan, setup.n_sd, setup.params)
    delta_n = signal_amplitude(points, setup.params, setup.omega_true, setup.params.omega_calib)
    out = []
    for sub in snr_setups(setup, m_values):
        result = sweep_beta(sub, beta_grid)
        out.append(SnrPoint(
            repetitions=sub.plan.repetitions,
            integration_time=float(sub.plan.repetitions * sub.plan.t_stop),
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
    beta_calib_on_edge: bool  # the calibration sweep's optimum sits on a beta grid end


def gain_setups(setup: BenchmarkSetup, n_sd_values) -> list[BenchmarkSetup]:
    """The ensembles :func:`gain_profile` builds, in order: for each ``n_sd``,
    the calibration ensemble at ``omega_calib`` and then the sensing one, on a
    window resized to hold ``n_sd`` crossings of the sensing fringe."""
    out = []
    for k, n_sd in enumerate(n_sd_values):
        plan = plan_for_detection_count(setup.plan, setup.omega_true, int(n_sd))
        out += [replace(setup, n_sd=int(n_sd), omega_true=omega,
                        plan=plan.with_(seed=child_seed(setup.plan.seed, k, i)))
                for i, omega in enumerate((setup.params.omega_calib, setup.omega_true))]
    return out


def gain_profile(setup: BenchmarkSetup, n_sd_values, beta_grid) -> list[GainPoint]:
    """TMT gain sqrt(MSE_raw / MSE_TMT) across PL durations.

    For each requested detection-point count the window is resized to hold
    exactly that many negative-slope crossings; the filter order comes
    from a calibration sweep with the same duration, repetitions and
    sampling rate, then is applied to an independent sensing ensemble.
    """
    out = []
    setups = gain_setups(setup, n_sd_values)
    for calib_setup, sense_setup in zip(setups[::2], setups[1::2]):
        calib = sweep_beta(calib_setup, beta_grid)
        raw_mse, tmt_mse = _sense_fringe_mse(sense_setup, calib.beta_opt)
        out.append(GainPoint(
            n_sd=sense_setup.n_sd,
            t_stop=sense_setup.plan.t_stop,
            beta_calib=calib.beta_opt,
            raw_fringe_mse=raw_mse,
            tmt_fringe_mse=tmt_mse,
            gain=float(np.sqrt(raw_mse / tmt_mse)),
            beta_calib_on_edge=calib.beta_opt_on_edge,
        ))
    return out


def _sense_fringe_mse(setup: BenchmarkSetup, beta: float) -> tuple[float, float]:
    """Raw and order-``beta`` TMT fringe-averaged MSE of one sensing ensemble.

    The run's grid is the one order.  The ensemble and its residual stacks
    are freed on return, before the next calibration sweep builds its own.
    """
    run = EnsembleRun(setup, [beta])
    return run.raw_stats.fringe_averaged_mse, run.stats(beta).fringe_averaged_mse
