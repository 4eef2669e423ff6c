"""Filter-bank wavelet transforms on finite discrete signals.

One array API per transform, over a small registry of filter banks and
along the last axis, so a single trace is a batch of one: the undecimated
(stationary, "a trous") ``uwt_analyze`` / ``uwt_synthesize``, with the
detail levels stacked in one array, and the decimated ``dwt_decompose`` /
``dwt_reconstruct``, with a list of ceil-halved levels.

Conventions, fixed once for the whole package:

* analysis is correlation; decimated with stride 2, undecimated with
  stride 1 and level-j filters upsampled by ``2**j``::

      c_j[k] = sum_i h0[i] * c_{j-1}[2*k + i]        (decimated)
      d_j[k] = sum_i h1[i] * c_{j-1}[k + 2**j * i]   (undecimated)

* synthesis is convolution with the ``g0``/``g1`` pair; the undecimated
  inverse averages the redundant branches with a factor 1/2 per level,

* highpass filters come from the lowpass pair by the alternating flip
  ``h1[k] = (-1)**k * g0[L-1-k]`` and ``g1[k] = (-1)**k * h0[L-1-k]``,
  with both lowpass filters zero-padded to a common even length and a
  common symmetry center; :class:`WaveletBasis` takes only the lowpass
  pair and derives the highpass pair itself, so every bank keeps this rule,

* signals extend periodically (circularly), as in the stationary
  transform TMT builds on; this makes the undecimated transform exactly
  shift covariant and both round trips exact to rounding.

* every filter step is one tap loop: the transforms move the sample axis
  first, the step builds one periodically extended copy of its input
  (``np.arange(...) % n``, at most ``2*n - 1`` rows however far the
  upsampled taps reach), and each tap reads a contiguous slice of that
  copy at its offset taken modulo ``n``.  Sums run tap by tap, so a trace
  transformed alone is bit-equal to the same trace in a batch.

Detail levels are indexed finest first: ``details[0]`` is the highest
frequency band.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_SQRT2 = np.sqrt(2.0)

#: analysis lowpass half taps of the biorthogonal 6.8 bank, center outward.
#: 17-tap linear-phase filter; values are the float64 rounding of the exact
#: maxflat-halfband factorization (sum = sqrt(2), eight zeros at z = -1).
_BIOR68_ANALYSIS_LO = (
    0.8259229974584397,
    0.42079628460983926,
    -0.09405920349576163,
    -0.07726317316721135,
    0.049732903490937654,
    0.01193456527972673,
    -0.0169906398676071,
    -0.0019142861290808862,
    0.0019088317364850261,
)

#: synthesis lowpass half taps of the biorthogonal 6.8 bank (11-tap dual,
#: six zeros at z = -1).
_BIOR68_SYNTHESIS_LO = (
    0.7589077294537632,
    0.41784910915032025,
    -0.040367979030381904,
    -0.07872200106266872,
    0.014467504896774099,
    0.014426282505622248,
)

#: Daubechies-2 scaling taps (extremal phase, 4 taps).
_DB2_LO = (
    0.48296291314469025,
    0.836516303737469,
    0.22414386804185735,
    -0.12940952255092145,
)


class WaveletError(ValueError):
    """Raised for invalid transform inputs (length, depth, mode)."""


@dataclass(frozen=True, eq=False)
class WaveletBasis:
    """A (bi)orthogonal two-channel bank, given by its lowpass pair.

    ``h0`` is the analysis and ``g0`` the synthesis lowpass filter, of one
    even length and one symmetry center.  The highpass pair is derived
    from them once, by the alternating flip: ``h1`` from ``g0`` and ``g1``
    from ``h0``.  All four are read-only copies, so no caller can change
    another's filters; banks compare and hash by identity.
    """

    name: str
    h0: np.ndarray
    g0: np.ndarray
    h1: np.ndarray = field(init=False)
    g1: np.ndarray = field(init=False)

    def __post_init__(self):
        h0, g0 = np.array(self.h0, dtype=float), np.array(self.g0, dtype=float)
        lengths = sorted({h0.size, g0.size})
        if len(lengths) != 1 or h0.size % 2 != 0:
            raise WaveletError(f"basis {self.name!r}: filters must share one even length, got {lengths}")
        signs = np.where(np.arange(h0.size) % 2 == 0, 1.0, -1.0)  # the alternating flip
        for attr, taps in (("h0", h0), ("g0", g0), ("h1", signs * g0[::-1]),
                           ("g1", signs * h0[::-1])):
            taps.flags.writeable = False
            object.__setattr__(self, attr, taps)
        if abs(self.h1.sum()) > 1e-12:
            raise WaveletError(f"basis {self.name!r}: highpass does not annihilate constants")
        if abs(self.h0.sum() - _SQRT2) > 1e-12:
            raise WaveletError(f"basis {self.name!r}: lowpass taps do not sum to sqrt(2)")

    def __len__(self) -> int:
        return self.h0.size


# bior6.8's two odd-length linear-phase lowpass filters, zero-padded to 18
# taps centred at tap 8, so the analysis and synthesis delays cancel exactly
_BIOR68_H0, _BIOR68_G0 = np.zeros((2, 18))
_BIOR68_H0[:17] = _BIOR68_ANALYSIS_LO[:0:-1] + _BIOR68_ANALYSIS_LO
_BIOR68_G0[3:14] = _BIOR68_SYNTHESIS_LO[:0:-1] + _BIOR68_SYNTHESIS_LO

_BASES = {basis.name: basis for basis in (
    WaveletBasis("haar", h0=[_SQRT2 / 2.0] * 2, g0=[_SQRT2 / 2.0] * 2),
    WaveletBasis("db2", h0=_DB2_LO, g0=_DB2_LO),
    WaveletBasis("bior6.8", h0=_BIOR68_H0, g0=_BIOR68_G0),
)}


def basis_registry(name: str) -> WaveletBasis:
    """Look up a filter bank by name (``haar``, ``db2``, ``bior6.8``)."""
    try:
        return _BASES[name]
    except KeyError:
        known = ", ".join(sorted(_BASES))
        raise WaveletError(f"unknown wavelet basis {name!r} (known: {known})") from None


def available_bases() -> tuple[str, ...]:
    return tuple(sorted(_BASES))


def _as_basis(basis: WaveletBasis | str) -> WaveletBasis:
    return basis_registry(basis) if isinstance(basis, str) else basis


def default_levels(n_samples: int) -> int:
    """Deepest supported level: floor(log2(N)) - 1."""
    if n_samples < 4:
        raise WaveletError(f"signal too short for any decomposition (N={n_samples})")
    return int(np.floor(np.log2(n_samples))) - 1


def _check_signal(signal) -> np.ndarray:
    x = np.asarray(signal, dtype=float)
    if x.ndim == 0:
        raise WaveletError(f"signal must have a sample axis, got the scalar {x.item()!r}")
    if x.shape[-1] == 0:
        raise WaveletError("empty signal")
    return x


def _check_levels(levels, minimum: int) -> None:
    if isinstance(levels, bool) or not isinstance(levels, (int, np.integer)):
        raise WaveletError(f"levels must be an integer, got {levels!r}")
    if levels < minimum:
        raise WaveletError(f"levels must be >= {minimum}, got {levels}")


# The steps take samples on the first axis and read tap i of output k from
# sample k + step*i (analysis) or k - step*i (synthesis) of one periodically
# extended copy ``x[arange(first, n + reach) % n]``.  Only the offset
# step*i modulo n matters, so the copy reaches at most n - 1 samples past
# the signal (reach = min(step*(L - 1), n - 1)), however deep the level.
# The accumulators come from ``np.zeros(shape)``: ``zeros_like`` would keep
# the transposed strides of a moved-axis input and make every tap's update
# strided.  Zero taps are skipped (bior6.8 pads 7 of the 18 taps of h1 and
# g0 with zeros): adding 0 * x leaves a finite sum bit for bit as it was.

def _analysis_step(a: np.ndarray, taps_lo, taps_hi, step: int):
    n = a.shape[0]
    ext = a[np.arange(n + min(step * (taps_lo.size - 1), n - 1)) % n]
    lo = np.zeros(a.shape)
    hi = np.zeros(a.shape)
    for i in range(taps_lo.size):
        start = step * i % n
        r = ext[start:start + n]
        if taps_lo[i]:
            lo += taps_lo[i] * r
        if taps_hi[i]:
            hi += taps_hi[i] * r
    return lo, hi


def _synthesis_step(lo_in, hi_in, taps_lo, taps_hi, step: int):
    n = lo_in.shape[0]
    reach = min(step * (taps_lo.size - 1), n - 1)
    idx = np.arange(-reach, n) % n
    lo_ext, hi_ext = lo_in[idx], hi_in[idx]
    acc = np.zeros(lo_in.shape)
    for i in range(taps_lo.size):
        start = reach - step * i % n
        if taps_lo[i]:
            acc += taps_lo[i] * lo_ext[start:start + n]
        if taps_hi[i]:
            acc += taps_hi[i] * hi_ext[start:start + n]
    return acc


def _samples_first(x: np.ndarray) -> np.ndarray:
    return np.moveaxis(x, -1, 0)


def _samples_last(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(np.moveaxis(x, 0, -1))


# ---------------------------------------------------------------------------
# undecimated (stationary) transform
# ---------------------------------------------------------------------------

def uwt_basis(basis: WaveletBasis | str, n: int, levels: int) -> WaveletBasis:
    """``basis`` resolved, once ``levels`` undecimated levels are checked to fit ``n`` samples."""
    basis = _as_basis(basis)
    _check_levels(levels, 0)
    if 2 ** (levels + 1) > n:
        raise WaveletError(f"signal too short for {levels + 1} undecimated levels "
                           f"(N={n}, need >= {2 ** (levels + 1)})")
    return basis


def uwt_analyze(signal, basis: WaveletBasis | str, levels: int):
    """Array-level undecimated analysis along the last axis.

    Returns ``(details, approximation)`` with ``details`` stacked as an
    array of shape ``(levels + 1,) + signal.shape``.  Accepts batches;
    all samples along leading axes are transformed independently.
    """
    x = _check_signal(signal)
    basis = uwt_basis(basis, x.shape[-1], levels)
    details = np.empty((levels + 1,) + x.shape)
    a = _samples_first(x)
    for j in range(levels + 1):
        a, d = _analysis_step(a, basis.h0, basis.h1, 1 << j)
        details[j] = np.moveaxis(d, 0, -1)
    return details, _samples_last(a)


def uwt_synthesize(details, approximation, basis: WaveletBasis | str):
    """Inverse of :func:`uwt_analyze`; averages redundant branches.

    Every detail level must have the approximation's length along the
    last axis.
    """
    basis = _as_basis(basis)
    a = np.asarray(approximation, dtype=float)
    n = a.shape[-1]
    for j, d in enumerate(details):
        if np.shape(d)[-1] != n:
            raise WaveletError(f"detail level {j} has length {np.shape(d)[-1]}, "
                               f"expected the approximation's {n}")
    shape = a.shape
    a = _samples_first(a)
    for j in range(len(details) - 1, -1, -1):
        # the moved sample axis leads, so each level must match the
        # approximation's rank before its axes move
        d = np.broadcast_to(np.asarray(details[j], dtype=float), shape)
        a = 0.5 * _synthesis_step(a, _samples_first(d), basis.g0, basis.g1, 1 << j)
    return _samples_last(a)


def uwt_synthesis_rows(n: int, indices, basis: WaveletBasis | str, levels: int) -> np.ndarray:
    """Detail rows of :func:`uwt_synthesize` at the output samples ``indices``.

    Returns ``rows`` of shape ``(levels + 1, n, p)``, ``p = len(indices)``,
    such that for any ``details`` and ``approximation`` on an ``n``-sample
    grid::

        uwt_synthesize(details, approximation)[..., indices]
            == uwt_synthesize(zeros_like(details), approximation)[..., indices]
               + sum_j details[j] @ rows[j]

    up to rounding: the synthesis is linear, so the detail bands add to the
    approximation band's share.  A synthesis tap convolves, so its
    transpose correlates: the rows are :func:`uwt_analyze` of the unit
    impulses at ``indices`` with the dual bank (analysis and synthesis
    filters swapped), scaled by the synthesis factor 1/2 of every level
    passed on the way up.
    """
    basis = _as_basis(basis)
    indices = np.asarray(indices, dtype=int)
    if indices.ndim != 1 or np.any((indices < 0) | (indices >= n)):
        raise WaveletError(f"output indices must be a 1-d subset of [0, {n})")
    dual = WaveletBasis(basis.name, h0=basis.g0, g0=basis.h0)
    details, _ = uwt_analyze((indices[:, None] == np.arange(n)).astype(float), dual, levels)
    details *= 0.5 ** np.arange(1, levels + 2)[:, None, None]
    return np.ascontiguousarray(details.swapaxes(1, 2))


# ---------------------------------------------------------------------------
# decimated transform
# ---------------------------------------------------------------------------

def _decimated_lengths(n: int, levels: int) -> list[int]:
    lengths = []
    for _ in range(levels):
        n = (n + 1) // 2
        lengths.append(n)
    return lengths


def dwt_decompose(signal, basis: WaveletBasis | str, levels: int):
    """Decimated periodized decomposition down to detail level ``levels``.

    Returns ``(details, approximation)``: a list of ``levels + 1`` detail
    arrays, finest first, and the deepest approximation.  Odd intermediate
    lengths extend by one duplicated sample, giving ceil-halved
    coefficient lengths.
    """
    basis = _as_basis(basis)
    x = _check_signal(signal)
    n = x.shape[-1]
    _check_levels(levels, 1)
    if n < 2 ** levels:
        raise WaveletError(f"signal too short for detail level {levels} (N={n})")
    details = []
    a = _samples_first(x)
    for _ in range(levels + 1):
        if a.shape[0] % 2:
            a = np.concatenate([a, a[-1:]])
        lo, hi = _analysis_step(a, basis.h0, basis.h1, 1)
        details.append(_samples_last(hi[::2]))
        a = lo[::2]
    return details, _samples_last(a)


def dwt_reconstruct(details, approximation, basis: WaveletBasis | str,
                    n_samples: int) -> np.ndarray:
    """Inverse of :func:`dwt_decompose` for a signal of ``n_samples`` samples."""
    basis = _as_basis(basis)
    expected = _decimated_lengths(n_samples, len(details))
    for j, (d, want) in enumerate(zip(details, expected)):
        if d.shape[-1] != want:
            raise WaveletError(f"detail level {j} has length {d.shape[-1]}, expected {want}")
    if approximation.shape[-1] != expected[-1]:
        raise WaveletError("approximation length does not match the deepest level")
    a = _samples_first(approximation)
    for j in range(len(details) - 1, -1, -1):
        d = _samples_first(details[j])
        up_a = np.zeros((2 * d.shape[0],) + a.shape[1:])
        up_d = np.zeros(up_a.shape)
        up_a[::2] = a
        up_d[::2] = d
        a = _synthesis_step(up_a, up_d, basis.g0, basis.g1, 1)
        a = a[:n_samples if j == 0 else expected[j - 1]]
    return _samples_last(a)
