"""Filter-bank transforms against brute-force oracles and exact identities."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tmtmag.wavelets import (
    WaveletBasis,
    WaveletError,
    available_bases,
    basis_registry,
    default_levels,
    dwt_decompose,
    dwt_reconstruct,
    uwt_analyze,
    uwt_synthesis_rows,
    uwt_synthesize,
)

SQRT2 = np.sqrt(2.0)


# ---------------------------------------------------------------------------
# independent brute-force implementations (scalar loops, modular indexing)
# ---------------------------------------------------------------------------

def uwt_oracle(x, basis, levels):
    n = len(x)
    h0, h1 = basis.h0, basis.h1
    a = [float(v) for v in x]
    details = []
    for j in range(levels + 1):
        step = 2 ** j
        d = [sum(h1[i] * a[(k + step * i) % n] for i in range(len(h1))) for k in range(n)]
        nxt = [sum(h0[i] * a[(k + step * i) % n] for i in range(len(h0))) for k in range(n)]
        details.append(np.array(d))
        a = nxt
    return details, np.array(a)


def dwt_oracle(x, basis, levels):
    h0, h1 = basis.h0, basis.h1
    a = [float(v) for v in x]
    details = []
    for _ in range(levels + 1):
        if len(a) % 2:
            a = a + [a[-1]]
        n = len(a)
        d = [sum(h1[i] * a[(2 * k + i) % n] for i in range(len(h1))) for k in range(n // 2)]
        nxt = [sum(h0[i] * a[(2 * k + i) % n] for i in range(len(h0))) for k in range(n // 2)]
        details.append(np.array(d))
        a = nxt
    return details, np.array(a)


def lowpass_cascade_oracle(x, basis, levels):
    """Analysis lowpass down to level J, then averaged synthesis lowpass back up."""
    n = len(x)
    a = [float(v) for v in x]
    for j in range(levels + 1):
        step = 2 ** j
        a = [sum(basis.h0[i] * a[(k + step * i) % n] for i in range(len(basis.h0)))
             for k in range(n)]
    for j in range(levels, -1, -1):
        step = 2 ** j
        a = [0.5 * sum(basis.g0[i] * a[(k - step * i) % n] for i in range(len(basis.g0)))
             for k in range(n)]
    return np.array(a)


# ---------------------------------------------------------------------------
# the earlier periodic steps, kept as a bit-exact oracle: one np.roll per
# tap along the last axis
# ---------------------------------------------------------------------------

def _roll_analysis_step(a, taps_lo, taps_hi, step):
    lo = np.zeros_like(a)
    hi = np.zeros_like(a)
    for i in range(taps_lo.size):
        r = np.roll(a, -step * i, axis=-1)
        lo += taps_lo[i] * r
        hi += taps_hi[i] * r
    return lo, hi


def _roll_synthesis_step(lo_in, hi_in, taps_lo, taps_hi, step):
    acc = np.zeros_like(lo_in)
    for i in range(taps_lo.size):
        acc += taps_lo[i] * np.roll(lo_in, step * i, axis=-1)
        acc += taps_hi[i] * np.roll(hi_in, step * i, axis=-1)
    return acc


def roll_uwt_analyze(x, basis, levels):
    details = np.empty((levels + 1,) + x.shape)
    a = x
    for j in range(levels + 1):
        a, details[j] = _roll_analysis_step(a, basis.h0, basis.h1, 1 << j)
    return details, a


def roll_uwt_synthesize(details, a, basis):
    for j in range(len(details) - 1, -1, -1):
        a = 0.5 * _roll_synthesis_step(a, details[j], basis.g0, basis.g1, 1 << j)
    return a


def roll_dwt_decompose(x, basis, levels):
    details = []
    a = x
    for _ in range(levels + 1):
        if a.shape[-1] % 2:
            a = np.concatenate([a, a[..., -1:]], axis=-1)
        lo, hi = _roll_analysis_step(a, basis.h0, basis.h1, 1)
        details.append(hi[..., ::2])
        a = lo[..., ::2]
    return details, a


def roll_dwt_reconstruct(details, a, basis, n_samples):
    for j in range(len(details) - 1, -1, -1):
        d = details[j]
        up_a = np.zeros(a.shape[:-1] + (2 * d.shape[-1],))
        up_d = np.zeros_like(up_a)
        up_a[..., ::2] = a
        up_d[..., ::2] = d
        a = _roll_synthesis_step(up_a, up_d, basis.g0, basis.g1, 1)
        a = a[..., :n_samples if j == 0 else details[j - 1].shape[-1]]
    return a


# ---------------------------------------------------------------------------
# registry and basis invariants
# ---------------------------------------------------------------------------

def test_haar_taps_match_definition():
    haar = basis_registry("haar")
    np.testing.assert_allclose(haar.h0, [SQRT2 / 2, SQRT2 / 2], atol=0)
    np.testing.assert_allclose(haar.h1, [SQRT2 / 2, -SQRT2 / 2], atol=0)


def test_bior68_tap_counts():
    bank = basis_registry("bior6.8")
    assert len(bank) == 18
    assert np.count_nonzero(bank.h0) == 17
    assert np.count_nonzero(bank.g0) == 11


@pytest.mark.parametrize("name", available_bases())
def test_basis_invariants(name):
    bank = basis_registry(name)
    assert abs(bank.h1.sum()) < 1e-12
    assert abs(bank.h0.sum() - SQRT2) < 1e-12
    assert abs(bank.g1.sum()) < 1e-12
    assert abs(bank.g0.sum() - SQRT2) < 1e-12
    # the registry's taps are shared by the whole process, so none can be written
    for taps in (bank.h0, bank.h1, bank.g0, bank.g1):
        assert not taps.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            taps[0] += 1e-3
    # a bank is compared and hashed by identity, not elementwise over its arrays
    h0, g0 = bank.h0.copy(), bank.g0.copy()
    twin = WaveletBasis(name, h0=h0, g0=g0)
    assert (twin == bank) is False and bank == bank
    assert hash(bank) == hash(bank)
    # the bank holds copies: the caller's arrays stay its own and writable
    assert h0.flags.writeable and g0.flags.writeable
    h0[0] += 1.0
    np.testing.assert_array_equal(twin.h0, bank.h0)


def test_unknown_basis_rejected():
    with pytest.raises(WaveletError, match="nosuch"):
        basis_registry("nosuch")


def test_bior68_halfband_identity():
    # the synthesis/analysis lowpass cross-correlation is a halfband
    # filter: unity at lag zero, zero at every other even lag
    bank = basis_registry("bior6.8")
    L = len(bank)

    def corr(lag):
        return sum(bank.g0[k] * bank.h0[k + lag] for k in range(L) if 0 <= k + lag < L)

    assert abs(corr(0) - 1.0) < 1e-14
    for lag in range(2, L, 2):
        assert abs(corr(lag)) < 1e-14
        assert abs(corr(-lag)) < 1e-14


def test_bior68_vanishing_moments():
    # six vanishing moments on the analysis wavelet, eight on synthesis
    bank = basis_registry("bior6.8")
    k = np.arange(len(bank), dtype=float) - (len(bank) - 1) / 2
    for q in range(6):
        assert abs(np.sum(bank.h1 * k ** q)) < 1e-10
    assert abs(np.sum(bank.h1 * k ** 6)) > 1.0
    for q in range(8):
        assert abs(np.sum(bank.g1 * k ** q)) < 1e-10
    assert abs(np.sum(bank.g1 * k ** 8)) > 1.0


# ---------------------------------------------------------------------------
# decimated transform
# ---------------------------------------------------------------------------

def test_dwt_constant_details_vanish():
    details, _ = dwt_decompose([5.0, 5.0, 5.0, 5.0], "haar", levels=1)
    np.testing.assert_allclose(details[0], [0.0, 0.0], atol=1e-12)


def test_dwt_impulse_matches_oracle():
    for name in available_bases():
        basis = basis_registry(name)
        x = np.zeros(32)
        x[0] = 1.0
        details, _ = dwt_decompose(x, basis, levels=1)
        d_ref, a_ref = dwt_oracle(x, basis, levels=1)
        np.testing.assert_allclose(details[0], d_ref[0], atol=1e-14)
        # impulse response of the first detail band is the decimated highpass
        nonzero = np.sort(np.abs(details[0][np.abs(details[0]) > 0]))
        expected = np.sort(np.abs(basis.h1[::2][np.abs(basis.h1[::2]) > 0]))
        np.testing.assert_allclose(nonzero, expected, atol=1e-14)


def test_dwt_random_matches_oracle(rng):
    x = rng.normal(size=64)
    basis = basis_registry("haar")
    details, approx = dwt_decompose(x, basis, levels=3)
    d_ref, a_ref = dwt_oracle(x, basis, levels=3)
    for got, ref in zip(details, d_ref):
        np.testing.assert_allclose(got, ref, atol=1e-12)
    np.testing.assert_allclose(approx, a_ref, atol=1e-12)


def test_dwt_roundtrip_small():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    details, approx = dwt_decompose(x, "haar", levels=1)
    np.testing.assert_allclose(dwt_reconstruct(details, approx, "haar", 4), x,
                               rtol=1e-12, atol=1e-12)


def test_dwt_roundtrip_long_bior(rng):
    x = rng.normal(size=1024)
    details, approx = dwt_decompose(x, "bior6.8", levels=4)
    xr = dwt_reconstruct(details, approx, "bior6.8", 1024)
    assert np.max(np.abs(xr - x)) / np.max(np.abs(x)) < 1e-10


def test_dwt_zero_decomposition_reconstructs_zero():
    details, approx = dwt_decompose(np.zeros(64), "bior6.8", levels=3)
    np.testing.assert_allclose(dwt_reconstruct(details, approx, "bior6.8", 64), np.zeros(64),
                               atol=0)


def test_dwt_odd_length_roundtrip(rng):
    x = rng.normal(size=101)
    details, approx = dwt_decompose(x, "bior6.8", levels=3)
    assert [d.shape[-1] for d in details] == [51, 26, 13, 7]
    np.testing.assert_allclose(dwt_reconstruct(details, approx, "bior6.8", 101), x,
                               rtol=0, atol=1e-12)


def test_dwt_errors():
    with pytest.raises(WaveletError, match="empty"):
        dwt_decompose([], "haar", levels=1)
    with pytest.raises(WaveletError, match="too short"):
        dwt_decompose(np.ones(4), "haar", levels=5)
    with pytest.raises(WaveletError, match="levels"):
        dwt_decompose(np.ones(16), "haar", levels=0)
    with pytest.raises(WaveletError, match="signal must have a sample axis"):
        dwt_decompose(5.0, "haar", levels=1)
    for bad in (1.5, 2.0, True):
        with pytest.raises(WaveletError, match="levels must be an integer"):
            dwt_decompose(np.ones(16), "haar", levels=bad)
    details, approx = dwt_decompose(np.arange(16.0), "haar", levels=2)
    with pytest.raises(WaveletError, match="length"):
        dwt_reconstruct([d[:-1] for d in details], approx, "haar", 16)


# ---------------------------------------------------------------------------
# undecimated transform
# ---------------------------------------------------------------------------

def test_uwt_constant_annihilation():
    for name in available_bases():
        details, _ = uwt_analyze(np.full(37, 5.0), name, 2)
        for d in details:
            assert np.max(np.abs(d)) < 1e-12


def test_uwt_random_matches_oracle(rng):
    basis = basis_registry("haar")
    x = rng.normal(size=32)
    details, approx = uwt_analyze(x, basis, 2)
    d_ref, a_ref = uwt_oracle(x, basis, levels=2)
    for got, ref in zip(details, d_ref):
        np.testing.assert_allclose(got, ref, atol=1e-12)
    np.testing.assert_allclose(approx, a_ref, atol=1e-12)


def test_uwt_shift_covariance(rng):
    x = rng.normal(size=48)
    shift = 7
    plain, plain_approx = uwt_analyze(x, "bior6.8", 3)
    rolled, rolled_approx = uwt_analyze(np.roll(x, shift), "bior6.8", 3)
    np.testing.assert_allclose(rolled, np.roll(plain, shift, axis=-1), atol=1e-12)
    np.testing.assert_allclose(rolled_approx, np.roll(plain_approx, shift), atol=1e-12)


def test_iuwt_roundtrip_deep(rng):
    x = rng.normal(size=512)
    xr = uwt_synthesize(*uwt_analyze(x, "bior6.8", 8), "bior6.8")
    assert np.max(np.abs(xr - x)) / np.max(np.abs(x)) < 1e-10


def test_iuwt_zero_details_is_iterated_lowpass(rng):
    basis = basis_registry("bior6.8")
    x = rng.normal(size=40)
    details, approx = uwt_analyze(x, basis, 2)
    smooth = uwt_synthesize(np.zeros_like(details), approx, basis)
    np.testing.assert_allclose(smooth, lowpass_cascade_oracle(x, basis, 2), atol=1e-12)


def test_iuwt_identity_on_zeros():
    xr = uwt_synthesize(*uwt_analyze(np.zeros(64), "haar", 3), "haar")
    np.testing.assert_allclose(xr, np.zeros(64), atol=0)


def test_uwt_default_levels():
    assert default_levels(100) == 5  # floor(log2(100)) - 1
    assert default_levels(4096) == 11


def test_uwt_errors():
    with pytest.raises(WaveletError, match="too short"):
        uwt_analyze(np.ones(8), "haar", 3)
    with pytest.raises(WaveletError, match="empty"):
        uwt_analyze([], "haar", 1)
    with pytest.raises(WaveletError, match="signal must have a sample axis"):
        uwt_analyze(5.0, "haar", 0)
    for bad in (1.5, 2.0, True, False):
        with pytest.raises(WaveletError, match="levels must be an integer"):
            uwt_analyze(np.ones(16), "haar", bad)
    with pytest.raises(WaveletError, match="levels must be >= 0"):
        uwt_analyze(np.ones(16), "haar", -1)
    details, approx = uwt_analyze(np.arange(16.0), "haar", 2)
    # a 1-sample stack would broadcast against the approximation
    with pytest.raises(WaveletError, match="level 0 has length 1"):
        uwt_synthesize(details[:, :1], approx, "haar")
    with pytest.raises(WaveletError, match="level 0 has length 15"):
        uwt_synthesize(details[:, :-1], approx, "haar")
    with pytest.raises(WaveletError, match="level 2 has length 15"):
        uwt_synthesize([details[0], details[1], details[2][:-1]], approx, "haar")


def test_uwt_batch_matches_single(rng):
    batch = rng.normal(size=(5, 64))
    stacked, _ = uwt_analyze(batch, "bior6.8", 3)
    for i in range(5):
        single, _ = uwt_analyze(batch[i], "bior6.8", 3)
        np.testing.assert_array_equal(stacked[:, i], single)


def test_uwt_symmetric_boundary_basics(rng):
    # a symmetric boundary is the periodic transform of the mirrored signal
    # [x, x[::-1]], whose period holds the reflection at both ends: constants
    # are preserved, and the round trip is exact on every sample, edges too
    const, _ = uwt_analyze(np.full(64, 3.0), "bior6.8", 3)
    for d in const:
        assert np.max(np.abs(d)) < 1e-12
    x = rng.normal(size=150)
    mirrored = np.concatenate([x, x[::-1]])
    for name in ("haar", "db2", "bior6.8"):
        back = uwt_synthesize(*uwt_analyze(mirrored, name, 4), name)
        np.testing.assert_allclose(back, mirrored, atol=1e-10)
    # bior6.8's lowpass is symmetric over its first 17 taps, so each level
    # keeps the reflection, about a centre that moves back 16 * step
    _, approx = uwt_analyze(mirrored, "bior6.8", 4)
    n = mirrored.size
    centre = n - 1 - 16 * (2 ** 5 - 1)
    np.testing.assert_allclose(approx, approx[(centre - np.arange(n)) % n], atol=1e-12)


@pytest.mark.parametrize("name", ["haar", "db2", "bior6.8"])
@pytest.mark.parametrize("batch", [(), (3,), (2, 3)], ids=["1d", "2d", "3d"])
def test_transforms_bit_equal_to_roll_oracle(name, batch):
    # the one tap loop over a periodically extended copy reproduces the
    # per-tap roll steps exactly, down to every rounding; the deeper levels
    # reach further than N (step * (L - 1) > N), so the extension wraps
    # more than once
    basis = basis_registry(name)
    gen = np.random.default_rng(len(batch))
    for n in (4, 5, 8, 9, 33, 150):
        x = gen.normal(size=batch + (n,))
        for levels in range(default_levels(n) + 1):
            details, approx = uwt_analyze(x, basis, levels)
            d_ref, a_ref = roll_uwt_analyze(x, basis, levels)
            np.testing.assert_array_equal(details, d_ref)
            np.testing.assert_array_equal(approx, a_ref)
            assert approx.flags.c_contiguous
            back = uwt_synthesize(details, approx, basis)
            np.testing.assert_array_equal(back, roll_uwt_synthesize(d_ref, a_ref, basis))
            assert back.shape == x.shape and back.flags.c_contiguous
        for levels in range(1, int(np.log2(n)) + 1):
            details, approx = dwt_decompose(x, basis, levels)
            d_ref, a_ref = roll_dwt_decompose(x, basis, levels)
            for got, ref in zip(details, d_ref):
                np.testing.assert_array_equal(got, ref)
            np.testing.assert_array_equal(approx, a_ref)
            np.testing.assert_array_equal(dwt_reconstruct(details, approx, basis, n),
                                          roll_dwt_reconstruct(d_ref, a_ref, basis, n))


def roll_synthesis_rows(n, indices, basis, levels):
    """The earlier rows: the transposed synthesis run on unit vectors, finest
    level first, the tap-i transpose at level j being a roll by -(i << j)."""
    u = np.zeros((n, len(indices)))
    u[indices, np.arange(len(indices))] = 1.0
    rows = np.zeros((levels + 1, n, len(indices)))
    for j in range(levels + 1):
        u = 0.5 * u
        lo = np.zeros_like(u)
        for i in range(len(basis)):
            shifted = np.roll(u, -(i << j), axis=0)
            lo += basis.g0[i] * shifted
            rows[j] += basis.g1[i] * shifted
        u = lo
    return rows


def test_synthesis_rows_match_roll_oracle_exactly():
    for name in available_bases():
        basis = basis_registry(name)
        for n in (4, 5, 7, 8, 9, 16, 33, 150):
            indices = sorted({0, n // 3, n - 1})
            for levels in range(default_levels(n) + 1):
                rows = uwt_synthesis_rows(n, indices, name, levels)
                ref = roll_synthesis_rows(n, indices, basis, levels)
                np.testing.assert_array_equal(rows, ref)
                assert rows.flags.c_contiguous


def test_synthesis_rows_errors():
    with pytest.raises(WaveletError, match="indices"):
        uwt_synthesis_rows(16, [3, 16], "haar", 2)
    with pytest.raises(WaveletError, match="indices"):
        uwt_synthesis_rows(16, [-1], "haar", 2)
    # the depth that uwt_analyze rejects for 8 samples
    with pytest.raises(WaveletError, match="too short"):
        uwt_synthesis_rows(8, [0], "haar", 5)
    with pytest.raises(WaveletError, match="levels"):
        uwt_synthesis_rows(16, [0], "haar", -1)


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

@st.composite
def _rows_case(draw):
    n = draw(st.integers(min_value=4, max_value=200))
    levels = draw(st.integers(min_value=0, max_value=default_levels(n)))
    subset = draw(st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=9))
    return n, levels, sorted(subset)


@settings(max_examples=30, deadline=None)
@given(
    case=_rows_case(),
    name=st.sampled_from(["haar", "bior6.8", "db2"]),
    seed=st.integers(min_value=0, max_value=2 ** 31),
)
def test_property_synthesis_rows_match_full_synthesis(case, name, seed):
    n, levels, indices = case
    gen = np.random.default_rng(seed)
    details = gen.normal(size=(levels + 1, 3, n))
    approx = gen.normal(size=(3, n))
    rows = uwt_synthesis_rows(n, indices, name, levels)
    assert rows.shape == (levels + 1, n, len(indices))
    at_points = uwt_synthesize(np.zeros_like(details), approx, name)[:, indices]
    for j in range(levels + 1):
        at_points += details[j] @ rows[j]
    full = uwt_synthesize(details, approx, name)[:, indices]
    np.testing.assert_allclose(at_points, full, rtol=0, atol=1e-13)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=16, max_value=300),
    levels=st.integers(min_value=0, max_value=6),
    name=st.sampled_from(["haar", "bior6.8", "db2"]),
    seed=st.integers(min_value=0, max_value=2 ** 31),
)
def test_property_uwt_roundtrip(n, levels, name, seed):
    levels = min(levels, default_levels(n))
    x = np.random.default_rng(seed).normal(size=n)
    xr = uwt_synthesize(*uwt_analyze(x, name, levels), name)
    assert np.max(np.abs(xr - x)) <= 1e-10 * max(1.0, np.max(np.abs(x)))


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=16, max_value=300),
    levels=st.integers(min_value=1, max_value=5),
    name=st.sampled_from(["haar", "bior6.8", "db2"]),
    seed=st.integers(min_value=0, max_value=2 ** 31),
)
def test_property_dwt_roundtrip(n, levels, name, seed):
    levels = min(levels, max(1, default_levels(n)))
    x = np.random.default_rng(seed).normal(size=n)
    details, approx = dwt_decompose(x, name, levels=levels)
    xr = dwt_reconstruct(details, approx, name, n)
    assert np.max(np.abs(xr - x)) <= 1e-10 * max(1.0, np.max(np.abs(x)))


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2 ** 31),
    name=st.sampled_from(["haar", "bior6.8"]),
)
def test_property_linearity(seed, name):
    gen = np.random.default_rng(seed)
    x = gen.normal(size=64)
    y = gen.normal(size=64)
    alpha, beta = gen.normal(size=2)
    mix, a_mix = uwt_analyze(alpha * x + beta * y, name, 3)
    dx, a_x = uwt_analyze(x, name, 3)
    dy, a_y = uwt_analyze(y, name, 3)
    np.testing.assert_allclose(mix, alpha * dx + beta * dy, atol=1e-10)
    np.testing.assert_allclose(a_mix, alpha * a_x + beta * a_y, atol=1e-10)


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=16, max_value=64),
    shift=st.integers(min_value=-40, max_value=40),
    seed=st.integers(min_value=0, max_value=2 ** 31),
)
def test_property_shift_covariance(n, shift, seed):
    x = np.random.default_rng(seed).normal(size=n)
    plain, _ = uwt_analyze(x, "haar", 2)
    rolled, _ = uwt_analyze(np.roll(x, shift), "haar", 2)
    np.testing.assert_allclose(rolled, np.roll(plain, shift, axis=-1), atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=8, max_value=64),
    name=st.sampled_from(["haar", "bior6.8", "db2"]),
    seed=st.integers(min_value=0, max_value=2 ** 31),
)
def test_property_oracle_equivalence(n, name, seed):
    basis = basis_registry(name)
    x = np.random.default_rng(seed).normal(size=n)
    levels = min(2, default_levels(n))
    details, approx = uwt_analyze(x, basis, levels)
    d_ref, a_ref = uwt_oracle(x, basis, levels)
    for got, ref in zip(details, d_ref):
        np.testing.assert_allclose(got, ref, atol=1e-12)
    np.testing.assert_allclose(approx, a_ref, atol=1e-12)
    dwt_details, dwt_approx = dwt_decompose(x, basis, levels=max(1, levels))
    dd_ref, da_ref = dwt_oracle(x, basis, max(1, levels))
    for got, ref in zip(dwt_details, dd_ref):
        np.testing.assert_allclose(got, ref, atol=1e-12)
    np.testing.assert_allclose(dwt_approx, da_ref, atol=1e-12)
