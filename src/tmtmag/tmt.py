"""Template-margin-threshold (TMT) wavelet denoiser for Ramsey PL traces.

Per trace, the fringe frequency is estimated by template cross-correlation
(:func:`estimate_frequencies`); on uniform grids of samples and trial
frequencies the correlation spectrum is one chirp-z transform per trace
(:func:`correlation_spectrum`), which the search takes on a coarse grid
and then on a window around the coarse maximum.  The paper clamps every
detail coefficient of the trace into the decomposed margins
``template +/- width * S(t)``, ``S(t)`` being the paper's shot-noise
profile (the one margin model), and keeps the approximation band.
The undecimated transform is linear, so that clamp is a clip of the
residual ``trace - template``: each of its detail coefficients ``r`` is
clipped into ``+/- width * |S|`` (:func:`clamp_details`), ``|S|`` being the
absolute shot-noise coefficients (translation-invariant wavelet shrinkage
centred on the template).  Only detail coefficients are clipped, so every
TMT path computes one identity, the raw trace plus the synthesis of what
the clip changes::

    denoised = trace + uwt_synthesize(clip(r) - r, 0)

with a zero approximation band.  The residual's detail coefficients and
``|S|`` come from one stage, :func:`residual_chunks`, which walks a batch
of traces in chunks of at most 64 traces and 9600 samples.
:func:`tmt_denoise` is the one full-trace denoiser, for any batch of
traces; the full-trace ``denoised(beta)`` of
:class:`tmtmag.bench.EnsembleRun` calls it, and the ensemble's
detection-point sweep reads the same stage's coefficients at the
detection samples' synthesis rows.  The templates serve only to form the
residual, and no approximation band is synthesized.

The width is ``10**(-beta) / sqrt(T_I * M * f_sample)``; ``beta`` is the
filter order.  The limits are exact: ``beta = -inf`` (and any ``beta``
small enough that ``10**(-beta)`` overflows) gives an infinite width, the
clip changes nothing and the raw trace comes back bit for bit;
``beta = +inf`` gives width 0, zeroes every residual detail and leaves the
template plus the residual's approximation share.  A clean template has a
zero residual and comes back bit for bit at every ``beta``.

The three stages, :func:`correlation_spectrum`, :func:`estimate_frequencies`
and :func:`tmt_denoise`, take plain arrays of traces of shape ``(..., N)``
checked by one helper, one trace being a batch of one.  Traces of unknown
frequency are denoised by ``estimate_frequencies``, then ``tmt_denoise``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ramsey import AcquisitionPlan, SensorParams, envelope, shot_noise, template
from .wavelets import WaveletBasis, default_levels, uwt_analyze, uwt_synthesize


class FrequencySearchError(ValueError):
    """Raised when the template-frequency search cannot produce a maximum."""


class GridEdgeError(FrequencySearchError):
    """Raised when a trace's correlation maximum lies on the search grid's edge."""


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform angular-frequency search grid."""

    omega_min: float
    omega_max: float
    n_points: int = 2001

    def __post_init__(self):
        if not (np.isfinite(self.omega_min) and np.isfinite(self.omega_max)):
            raise ValueError(f"omega_min and omega_max must be finite, "
                             f"got [{self.omega_min}, {self.omega_max}]")
        if not (self.omega_max > self.omega_min > 0.0):
            raise ValueError(f"need omega_max > omega_min > 0, got [{self.omega_min}, {self.omega_max}]")
        if isinstance(self.n_points, bool) or not isinstance(self.n_points, (int, np.integer)):
            raise ValueError(f"n_points must be an integer, got {self.n_points!r}")
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


#: traces transformed per FFT call: at G = 2001 each complex work array
#: stays near 0.5 MiB, which the allocator hands back after the search (at
#: 32 rows about 1 MiB more stayed resident, and no call was faster)
SPECTRUM_ROWS = 16


def _fft_length(n: int) -> int:
    """Smallest 5-smooth integer >= ``n`` (a fast FFT length)."""
    m = max(int(n), 1)
    while True:
        rest = m
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return m
        m += 1


def _chirp(c: float, k: np.ndarray) -> np.ndarray:
    """``exp(i c k**2)`` for integers ``k``, with exact phase products.

    ``c k**2`` reaches 1e5 rad when the trace is much longer than the
    frequency grid, and rounding it would cost ``eps * c k**2`` rad.  So
    ``c`` is split into three parts of at most 18 significant bits; while
    ``k**2 < 2**35`` each part times ``k**2`` is an exact double, and
    ``exp`` of it is correct to rounding.
    """
    k2 = (k * k).astype(float)
    out = np.ones(k.size, dtype=complex)
    for _ in range(3):
        mantissa, exponent = np.frexp(c)
        part = np.ldexp(np.trunc(np.ldexp(mantissa, 18)), exponent - 18)
        out *= np.exp(1j * (part * k2))
        c -= part
    return out


def _as_traces(values, n_samples: int, error=ValueError) -> tuple[tuple, np.ndarray]:
    """``(batch, rows)`` of traces ``values`` of shape ``batch + (n_samples,)``, ``rows`` being
    their (n, n_samples) floats: the one shape check of every stage.  Any other shape, a
    0-d value included, raises ``error``."""
    values = np.asarray(values, dtype=float)
    if values.ndim == 0 or values.shape[-1] != n_samples:
        raise error(f"values of shape {values.shape} must end in the {n_samples} samples "
                    f"of times, the time grid")
    return values.shape[:-1], values.reshape(-1, n_samples)


def _uniform_step(grid: np.ndarray, name: str) -> float:
    """Step of the 1-D uniform grid ``grid``; a grid off uniform by more than rounding is an error."""
    if grid.ndim != 1:
        raise FrequencySearchError(f"{name} must be 1-D, got shape {grid.shape}")
    if grid.size < 2:
        return 0.0
    step = (grid[-1] - grid[0]) / (grid.size - 1)
    deviation = np.abs(grid - (grid[0] + step * np.arange(grid.size))).max()
    if not deviation <= 64.0 * np.finfo(float).eps * np.abs(grid).max():
        raise FrequencySearchError(f"{name} must be a uniform grid for the chirp-z search, "
                                   f"but deviates from one by {deviation:.3g}")
    return step


class _ChirpZ:
    """Correlation spectra of blocks of traces on ``width`` consecutive points of the uniform
    grid ``omegas`` (all of them by default), one Bluestein chirp-z transform per trace.

    ``omega_g t_n = omega_g t_0 + omega_0 dt n + 2 c g n`` with ``c = d_omega dt / 2``, and
    ``2 g n = g**2 + n**2 - (g - n)**2`` splits the sum over ``n`` into two chirps
    ``exp(i c k**2)`` and a convolution done by FFT.  A row read from grid index ``g0`` on
    takes its shift ``exp(2 i c g0 n) = chirp[g0] chirp[n] conj(chirp[|g0 - n|])`` into its
    pre-chirp, so no row needs an ``exp``.  The grids are checked and the operands that no
    trace changes (chirps, the kernel's FFT, the weights and the envelope) are built once,
    when this is made; numpy.fft is loaded then, not when tmtmag is imported.
    """

    def __init__(self, times: np.ndarray, params: SensorParams, omegas: np.ndarray,
                 width: int | None = None):
        times = np.asarray(times, dtype=float)
        omegas = np.asarray(omegas, dtype=float)
        n, g = times.size, omegas.size
        if n < 2:
            raise FrequencySearchError("trace too short for a correlation search")
        dt = _uniform_step(times, "times")
        self.width = width = g if width is None else width
        self.chirp = chirp = _chirp(0.5 * _uniform_step(omegas, "omegas") * dt,
                                    np.arange(max(n, g)))
        self.pre = np.exp(1j * (omegas[0] * dt) * np.arange(n)) * chirp[:n]
        self.phase = 0.5 * (params.n0 - params.n1) * np.exp(1j * omegas * times[0])
        # the convolution kernel exp(-i c j**2) at j = g - n in [1 - n, width - 1], j < 0
        # wrapped to size + j
        self.size = size = _fft_length(n + width - 1)
        kernel = np.zeros(size, dtype=complex)
        kernel[:width] = chirp[:width].conj()
        kernel[size - n + 1:] = chirp[n - 1:0:-1].conj()
        self.kernel = np.fft.fft(kernel)
        self.weights = np.full(n, dt)
        self.weights[0] = self.weights[-1] = 0.5 * dt
        self.env = envelope(times, params)
        self.work = None

    def weigh(self, block: np.ndarray) -> np.ndarray:
        """``u`` of the (rows, N) traces ``block``: each centred trace times the weights,
        less its window mean, times the envelope."""
        u = block - block.mean(axis=1, keepdims=True)
        u *= self.weights
        u -= u.sum(axis=1, keepdims=True) / u.shape[1]
        u *= self.env
        return u

    def __call__(self, u: np.ndarray, starts: np.ndarray | None = None) -> np.ndarray:
        """``A Re sum_n u_n exp(i omega_g t_n)`` of each row of ``u`` at the ``width`` grid
        indices ``g`` from its ``starts`` entry on (from 0 without ``starts``), as a
        (rows, width) work array that the next call overwrites."""
        m, n = u.shape
        if self.work is None or len(self.work[0]) < m:
            # one block's work arrays, reused by every block (numpy.fft's out=, new in
            # numpy 2.0): allocating them per block made the allocator hand their
            # pages back and fault them in again
            self.work = (np.empty((m, self.size), dtype=complex),
                         np.empty((m, self.width)), np.empty((m, self.width)))
        transform, r, term = (a[:m] for a in self.work)
        chirp, width = self.chirp, self.width
        if starts is None:
            pre, post = self.pre, self.phase[:width] * chirp[:width]
        else:
            pre = chirp[np.abs(starts[:, None] - np.arange(n))].conj()
            pre *= chirp[starts, None]
            pre *= chirp[:n]
            pre *= self.pre
            post = self.phase[starts[:, None] + np.arange(width)]
            post *= chirp[:width]
        z = np.fft.fft(u * pre, self.size, out=transform)
        z *= self.kernel
        z = np.fft.ifft(z, out=z)[:, :width]
        out = np.multiply(z.real, post.real, out=r)
        out -= np.multiply(z.imag, post.imag, out=term)
        return out


def correlation_spectrum(values: np.ndarray, times: np.ndarray,
                         params: SensorParams, omegas: np.ndarray) -> np.ndarray:
    """Trace/template overlap of traces ``values`` (shape ``(..., N)``) versus trial frequency,
    shape ``(..., len(omegas))``; one trace gives a 1-D spectrum.  Trapezoid-weighted inner
    product of each DC-removed trace with the DC-removed template sampled
    on the trace grid; DC removal subtracts each series' arithmetic mean
    over the window.  ``times`` and ``omegas`` must be uniform grids.

    The DC-removed template is ``A cos(omega t) env(t)`` minus its window
    mean, ``A = (n0 - n1) / 2``.  It sums to zero over the window, so
    taking the window mean off the weighted centred trace instead gives the
    same overlap, ``A Re sum_n u_n exp(i omega_g t_n)``: ``u`` is the
    centred trace times the weights, less its window mean, times the
    envelope.  Both grids are uniform, so the sum over ``n`` is one
    Bluestein chirp-z transform (:class:`_ChirpZ`, which also serves the
    coarse grid and the windows of :func:`estimate_frequencies`).  numpy's
    FFT calls no BLAS, so the result does not depend on the BLAS thread
    count.

    The spectrum is filled block by block, ``SPECTRUM_ROWS`` traces at a
    time, and each row is transformed on its own, so a row's bits do not
    depend on the batch.
    """
    batch, traces = _as_traces(values, np.size(times), FrequencySearchError)
    spectrum = _ChirpZ(times, params, omegas)
    out = np.empty((traces.shape[0], np.size(omegas)))
    for start in range(0, traces.shape[0], SPECTRUM_ROWS):
        rows = slice(start, start + SPECTRUM_ROWS)
        out[rows] = spectrum(spectrum.weigh(traces[rows]))
    return out.reshape(batch + out.shape[1:])


#: coarse steps per half-width of the correlation's main lobe
LOBE_STEPS = 8


def _top(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(k, peaks)``: each row's argmax and its (rows, 3) values at ``k - 1, k, k + 1``
    (the indices clipped into the row, for an argmax on its end)."""
    k = np.argmax(r, axis=1)
    near = np.minimum(np.maximum(k, 1), r.shape[1] - 2)[:, None] + np.arange(-1, 2)
    return k, r[np.arange(k.size)[:, None], near]


class _LobeSearch:
    """Grid maxima of blocks of traces, coarse to fine (see :func:`estimate_frequencies`).

    The correlation with a fringe at ``omega*`` is about
    ``cos((omega - omega*) T / 2)`` times a slower envelope, ``T = |t_0| + |t_{N-1}|``
    being the window's length from ``t = 0``, so its main lobe's half-width is
    ``pi / T``.  The coarse grid runs from one grid end to the other in steps of
    at most ``1 / LOBE_STEPS`` of that, and a window reaches 1.5 coarse steps
    and two grid points to either side of the coarse maximum.  When that would
    not shorten the FFTs, the search is the full spectrum.
    """

    def __init__(self, times: np.ndarray, params: SensorParams, grid: FrequencyGrid):
        times = np.asarray(times, dtype=float)
        _uniform_step(times, "times")  # a 2-D grid is rejected before its ends are read
        self.times, self.params, self.omegas = times, params, grid.omegas
        self.last = last = grid.n_points - 1
        self.full = self.coarse = None
        n = times.size
        span = float(abs(times[0]) + abs(times[-1])) if n >= 2 else 0.0
        # coarse steps from one grid end to the other: each at most 1 / LOBE_STEPS of
        # the main lobe's half-width pi / T, and at least two grid points
        steps = np.ceil(float(grid.omega_max - grid.omega_min) * LOBE_STEPS * span / np.pi)
        if 1 <= steps <= last / 2:
            intervals = int(steps)
            self.step = last / intervals  # grid points per coarse step
            self.half = int(1.5 * self.step) + 3
            if (_fft_length(n + intervals) + _fft_length(n + 2 * self.half)
                    < _fft_length(n + last)):
                self.coarse = _ChirpZ(times, params, np.linspace(
                    grid.omega_min, grid.omega_max, intervals + 1))
                self.window = _ChirpZ(times, params, self.omegas, 2 * self.half + 1)
                # the spectrum's curvature is at most A sum_n |u_n| t_n**2, so between
                # coarse points it rises at most that times (h / 2)**2 / 2 above the nearest
                self.curvature = 0.5 * (params.n0 - params.n1) * times * times
                self.loss = 0.5 * (0.5 * (grid.omega_max - grid.omega_min) / intervals) ** 2
        if self.coarse is None:
            self._full()  # checks the grids (a trace too short, say) before any block

    def _full(self) -> _ChirpZ:
        if self.full is None:
            self.full = _ChirpZ(self.times, self.params, self.omegas)
        return self.full

    def __call__(self, block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(k, peaks)`` of the (rows, N) traces ``block``, as :func:`_top` gives them for
        their full spectra."""
        if self.coarse is None:
            full = self._full()
            return _top(full(full.weigh(block)))
        u = self.coarse.weigh(block)
        r = self.coarse(u)
        top = np.argmax(r, axis=1)
        width = 2 * self.half
        starts = np.minimum(np.maximum(np.rint(top * self.step).astype(np.intp) - self.half, 0),
                            self.last - width)
        # the rival: the best coarse value at least two coarse steps from the maximum
        rival = np.max(r, axis=1, initial=-np.inf,
                       where=np.abs(np.arange(r.shape[1]) - top[:, None]) > 1)
        k, peaks = _top(self.window(u, starts))
        loss = self.loss * np.add.reduce(np.abs(u) * self.curvature, axis=1)
        redo = rival >= peaks[:, 1] - loss
        redo |= (k == 0) & (starts > 0)
        redo |= (k == width) & (starts < self.last - width)
        k += starts
        if redo.any():
            k[redo], peaks[redo] = _top(self._full()(u[redo]))
        return k, peaks


def estimate_frequencies(values: np.ndarray, times: np.ndarray, params: SensorParams,
                         grid: FrequencyGrid) -> np.ndarray:
    """Template frequencies of traces ``values`` (shape ``(..., N)``), shape ``values.shape[:-1]``.

    Each trace's discrete correlation maximizer over ``grid``, the argmax of
    its :func:`correlation_spectrum`, is refined by one parabolic
    interpolation through its two neighbours.  A constant trace or a maximum
    on the grid boundary (search window too narrow, raised as
    :class:`GridEdgeError`) is an error, and so is a trace with a NaN or
    infinite sample, which is looked for first in every trace; errors name
    the first failing trace by its index in the row-major flattened batch.
    ``values`` must end in an axis of ``len(times)`` samples.

    The maximizer is found coarse to fine (:class:`_LobeSearch`): the
    spectrum on a coarse grid locates the lobe, and the spectrum on a window
    around the coarse maximum gives the grid maximum and its neighbours.
    Between coarse points, ``h`` apart, the spectrum rises at most
    ``L = M (h / 2)**2 / 2`` above the nearest one, ``M`` being a bound on its
    curvature.  So a grid maximum outside the window leaves a coarse value
    two or more coarse steps from the coarse maximum within ``L`` of the
    window's maximum.  A trace with such a rival lobe, or whose window
    maximum sits on a window end that is not a grid end, is searched on the
    full spectrum instead.

    The traces are searched ``SPECTRUM_ROWS`` at a time, and each block is
    reduced at once to its estimates, so the search holds no
    (n_traces, n_omegas) array and no copy of the traces.
    """
    batch_shape, values = _as_traces(values, np.size(times), FrequencySearchError)
    for start in range(0, values.shape[0], SPECTRUM_ROWS):  # no mask of the whole batch
        bad = ~np.isfinite(values[start:start + SPECTRUM_ROWS])
        if bad.any():
            i, k = np.argwhere(bad)[0]
            i += start
            raise FrequencySearchError(f"trace {i}: non-finite sample {values[i, k]} at index {k}")
    search = _LobeSearch(times, params, grid)
    omegas = search.omegas
    out = np.empty(values.shape[0])
    for start in range(0, values.shape[0], SPECTRUM_ROWS):
        rows = slice(start, start + SPECTRUM_ROWS)
        k, peaks = search(values[rows])
        constant = np.ptp(values[rows], axis=1) == 0.0
        failed = constant | (k == 0) | (k == omegas.size - 1)
        if failed.any():
            i = int(np.argmax(failed))  # the first failing trace; earlier blocks had none
            if constant[i]:
                raise FrequencySearchError(f"trace {start + i}: constant trace, correlation "
                                           f"identically zero after DC removal")
            raise GridEdgeError(f"trace {start + i}: correlation maximum at the grid "
                                f"boundary (omega={omegas[k[i]]:.6g}); widen the search grid")
        r_lo, r_mid, r_hi = peaks.T
        denom = r_lo - 2.0 * r_mid + r_hi
        # a flat top (denom 0) keeps the grid maximum: its shift stays 0
        shift = np.divide(0.5 * (r_lo - r_hi), denom, out=np.zeros(k.size), where=denom != 0.0)
        out[rows] = omegas[k] + shift * (omegas[1] - omegas[0])
    return out.reshape(batch_shape)


# ---------------------------------------------------------------------------
# margins and shrinkage
# ---------------------------------------------------------------------------

def margin_width(beta: float, plan: AcquisitionPlan) -> float:
    """Margin scale 10**(-beta) / sqrt(T_I * M * f_sample); inf once 10**(-beta) overflows."""
    if np.isnan(beta):  # a NaN width would turn every denoised sample into NaN
        raise ValueError(f"beta must be a number or +-inf, got {beta}")
    try:
        scale = 10.0 ** -float(beta)
    except OverflowError:
        scale = np.inf
    return scale / np.sqrt(plan.duration * plan.repetitions * plan.f_sample)


def clamp_details(details, noise_details, width: float) -> np.ndarray:
    """Clip residual detail coefficients into ``+/- width * noise``.

    ``details`` are the coefficients of ``trace - template``, so the clip
    is the paper's clamp of the trace's coefficients into the margins
    ``K +/- width * |S|``, shifted by the template's coefficients ``K``.
    Shape-agnostic: the arrays broadcast, so one trace's ``(levels + 1, N)``
    stack and an ensemble's ``(levels + 1, n_exp, N)`` stack go through the
    same call.  ``noise_details`` is ``|S|``, the absolute shot-noise
    coefficients.  An infinite width is the identity on the details (also
    where ``|S|`` vanishes); width 0 zeroes them.
    """
    # inf * 0 where |S| vanishes is NaN, and fmin passes over a NaN bound;
    # clipping |r| and restoring its sign needs no second bound array
    with np.errstate(invalid="ignore"):
        half = np.multiply(width, noise_details)
    out = np.empty(np.broadcast_shapes(np.shape(details), np.shape(half)))
    np.fmin(np.abs(details, out=out), half, out=out)
    return np.copysign(out, details, out=out)[()]  # [()]: a scalar for scalar inputs


#: most trace samples per chunk of :func:`residual_chunks`: a chunk's coefficient
#: stacks hold ``(levels + 1) * N`` doubles per trace, so bounding its samples
#: keeps its working set from growing with the window
RESIDUAL_SAMPLES = 64 * 150
#: most traces per chunk: more traces of a short window would grow the point
#: sweep's (K, E, p) bucket sums, which do not shrink with N, on a fine grid
RESIDUAL_ROWS = 64


def residual_chunk_rows(n_samples: int) -> int:
    """Traces per chunk of :func:`residual_chunks` for traces of ``n_samples`` samples:
    ``RESIDUAL_SAMPLES`` samples, at least 1 trace and at most ``RESIDUAL_ROWS``."""
    return min(RESIDUAL_ROWS, max(1, RESIDUAL_SAMPLES // n_samples))


def _chunk_stacks(values, omegas, params, plan, basis, levels, at):
    """Residual details and ``|S|`` of the traces ``values`` at the (E, 1) ``omegas``, indexed
    by ``at``; a function of its own, so that the generator holds no chunk while its
    consumer works.  When the chunk's frequencies are all equal, one template and one
    ``|S|`` analysis serve all of its traces, and ``|S|`` is a read-only broadcast view."""
    shared = omegas.min() == omegas.max()
    if shared:
        omegas = omegas[:1]
    noise = uwt_analyze(shot_noise(plan.times, omegas, params), basis, levels)[0][at]
    noise = np.abs(noise, out=noise)
    residual = template(plan.times, omegas, params)
    residual = np.subtract(values, residual, out=None if shared else residual)
    details = uwt_analyze(residual, basis, levels)[0][at]
    return details, np.broadcast_to(noise, details.shape) if shared else noise


def residual_chunks(values, omega_temps, params: SensorParams, plan: AcquisitionPlan,
                    basis: WaveletBasis | str, levels: int, at=...):
    """Yield ``(rows, details, |S|)`` for each slice ``rows`` of the (n, N) traces ``values``,
    :func:`residual_chunk_rows` traces at a time.

    ``details`` is the ``(levels + 1, E, N)`` detail stack of the residual
    ``values[rows] - template`` at the frequencies ``omega_temps[rows]``
    (finite and positive, checked before the first chunk), and ``|S|`` that
    of the absolute shot-noise profiles (:func:`tmtmag.ramsey.shot_noise`);
    a chunk of one frequency analyses one profile and yields it as a
    read-only view broadcast over its traces.  Both are indexed by ``at``
    first, so ``at = (level, slice(None), sample)`` keeps only (C, E) coefficients.
    Each trace is transformed on its own, so a trace's coefficients do not
    depend on the chunk it falls in.
    """
    omega_temps = np.asarray(omega_temps, dtype=float)
    bad = ~(np.isfinite(omega_temps) & (omega_temps > 0.0))
    if bad.any():
        raise ValueError(f"omega_temps must be finite and positive, got {omega_temps[bad][0]}")
    step = residual_chunk_rows(values.shape[-1])
    for start in range(0, len(values), step):
        rows = slice(start, start + step)
        yield rows, *_chunk_stacks(values[rows], omega_temps[rows, None], params, plan, basis,
                                   levels, at)


def tmt_denoise(values, omega_temps, beta: float, params: SensorParams,
                plan: AcquisitionPlan, basis: WaveletBasis | str,
                levels: int | None = None) -> np.ndarray:
    """Denoise traces ``values`` (shape ``(..., N)``) at their template frequencies.

    ``omega_temps`` broadcasts to ``values.shape[:-1]``.  The traces go
    through :func:`residual_chunks`; per chunk, the residual's detail
    coefficients go through :func:`clamp_details`, and the synthesis of what
    the clip changes, with a zero approximation band, is added to the
    chunk's traces.
    """
    batch, traces = _as_traces(values, plan.n_samples)
    if levels is None:
        levels = default_levels(plan.n_samples)
    omega_temps = np.broadcast_to(omega_temps, batch).reshape(-1)
    width = margin_width(beta, plan)
    out = np.empty(traces.shape)
    for rows, details, noise in residual_chunks(traces, omega_temps, params, plan, basis, levels):
        change = clamp_details(details, noise, width)
        change -= details
        np.add(traces[rows], uwt_synthesize(change, np.zeros(change.shape[1:]), basis),
               out=out[rows])
        # the next chunk is built without |S| and the change; the details stay bound
        # until it replaces them, so their pages are reused (a third of the page faults)
        del noise, change
    return out.reshape(batch + out.shape[1:])
