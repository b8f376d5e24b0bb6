import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alias_scope.arrays import FeatureTensor
from alias_scope.errors import SizeError
from alias_scope.spectral import (
    FreqGrid,
    dft2_naive,
    fft2,
    filter_frequency_response,
    ifft2,
    power_spectrum,
    signed_frequencies,
)
from alias_scope.synth import tone


def rand_tensor(shape, seed):
    return FeatureTensor(np.random.default_rng(seed).standard_normal(shape))


def rel_err(a, b):
    scale = max(np.abs(a).max(), np.abs(b).max(), 1e-300)
    return np.abs(a - b).max() / scale


# --- frequency grid convention


def test_signed_frequencies_even():
    assert np.allclose(
        signed_frequencies(8), [0, 1 / 8, 2 / 8, 3 / 8, 1 / 2, -3 / 8, -2 / 8, -1 / 8]
    )
    assert signed_frequencies(8)[4] == 0.5  # edge bin is +1/2


def test_signed_frequencies_odd():
    assert np.allclose(signed_frequencies(5), [0, 0.2, 0.4, -0.4, -0.2])


@pytest.mark.parametrize("n", range(1, 20))
def test_signed_frequencies_bounded(n):
    freqs = signed_frequencies(n)
    assert freqs[0] == 0.0
    assert np.all(np.abs(freqs) <= 0.5)


def test_signed_frequencies_exactly_antisymmetric():
    # bins i and n - i must round to opposite values (2/3 - 1 != -1/3), or
    # the band mask is asymmetric at bin-exact cutoffs such as 1/3 on a 3-grid
    for n in range(1, 300):
        freqs = signed_frequencies(n)
        np.testing.assert_array_equal(np.abs(freqs[1:]), np.abs(freqs[1:][::-1]))


# --- naive DFT oracle values


def test_dft_constant_field_is_dc_only():
    f = FeatureTensor(np.full((1, 6, 6), 2.5))
    coeffs = dft2_naive(f).coeffs[0]
    assert coeffs[0, 0] == pytest.approx(2.5, abs=1e-12)
    rest = coeffs.copy()
    rest[0, 0] = 0.0
    assert np.abs(rest).max() < 1e-12


def test_dft_delta_is_flat():
    data = np.zeros((1, 4, 4))
    data[0, 0, 0] = 1.0
    coeffs = dft2_naive(FeatureTensor(data)).coeffs[0]
    assert np.abs(coeffs - 1.0 / 16.0).max() < 1e-12


def test_dft_cosine_tone_8x8():
    # cos(2*pi*(2/8)*w): all power at width bins 2 and 6, magnitude 1/2
    f = tone((1, 8, 8), freq_w=2 / 8)
    coeffs = dft2_naive(f).coeffs[0]
    mags = np.abs(coeffs)
    assert mags[0, 2] == pytest.approx(0.5, abs=1e-12)
    assert mags[0, 6] == pytest.approx(0.5, abs=1e-12)
    mags[0, 2] = mags[0, 6] = 0.0
    assert mags.max() < 1e-12


# --- fast transform gated on the oracle


@pytest.mark.parametrize("shape", [(1, 7, 5), (2, 8, 8), (1, 12, 16)])
def test_fft_matches_naive(shape):
    f = rand_tensor(shape, seed=sum(shape))
    assert rel_err(fft2(f).coeffs, dft2_naive(f).coeffs) < 1e-9


@pytest.mark.parametrize("shape", [(2, 16, 16), (1, 97, 97)])
def test_fft_float32_input_in_double_precision(shape):
    # numpy.fft alone would transform <f4 data in single precision (~1e-7)
    data = np.random.default_rng(sum(shape)).standard_normal(shape).astype("<f4")
    f = FeatureTensor(data)
    assert f.data.dtype == np.float32
    coeffs = fft2(f).coeffs
    assert coeffs.dtype == np.complex128
    assert rel_err(coeffs, dft2_naive(f).coeffs) < 1e-9


def test_fft_zero_tensor():
    f = FeatureTensor(np.zeros((2, 6, 10)))
    assert np.abs(fft2(f).coeffs).max() == 0.0


def test_fft_round_trip_16x16():
    f = rand_tensor((1, 16, 16), seed=7)
    assert np.abs(ifft2(fft2(f)).data - f.data).max() < 1e-9


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 24), st.integers(2, 24), st.integers(0, 2**32 - 1))
def test_fft_matches_naive_all_sizes(h, w, seed):
    f = rand_tensor((1, h, w), seed)
    assert rel_err(fft2(f).coeffs, dft2_naive(f).coeffs) < 1e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 20), st.integers(2, 20), st.integers(0, 2**32 - 1))
def test_linearity(h, w, seed):
    rng = np.random.default_rng(seed)
    f = FeatureTensor(rng.standard_normal((1, h, w)))
    g = FeatureTensor(rng.standard_normal((1, h, w)))
    a, b = 1.7, -0.3
    combo = fft2(FeatureTensor(a * f.data + b * g.data)).coeffs
    parts = a * fft2(f).coeffs + b * fft2(g).coeffs
    assert rel_err(combo, parts) < 1e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 20), st.integers(2, 20), st.integers(0, 2**32 - 1))
def test_conjugate_symmetry(h, w, seed):
    coeffs = fft2(rand_tensor((1, h, w), seed)).coeffs[0]
    flipped = np.conj(coeffs[(-np.arange(h)) % h][:, (-np.arange(w)) % w])
    assert rel_err(coeffs, flipped) < 1e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 20), st.integers(2, 20), st.integers(0, 2**32 - 1))
def test_parseval(h, w, seed):
    f = rand_tensor((1, h, w), seed)
    spatial = (f.data**2).sum()
    spectral = h * w * power_spectrum(fft2(f)).sum()
    assert abs(spatial - spectral) / spatial < 1e-9


def test_power_spectrum_values():
    f = FeatureTensor(np.full((1, 4, 4), 3.0))
    power = power_spectrum(fft2(f))
    assert power[0, 0, 0] == pytest.approx(9.0, abs=1e-12)
    # conjugate symmetry of a real input makes the power map symmetric
    g = rand_tensor((1, 6, 6), 11)
    p = power_spectrum(fft2(g))[0]
    sym = p[(-np.arange(6)) % 6][:, (-np.arange(6)) % 6]
    assert rel_err(p, sym) < 1e-9


# --- high-band membership


def test_high_band_mask():
    grid = FreqGrid(8, 8)
    band = grid.high_band(0.25)
    # |k| <= 0.25 and |l| <= 0.25 both survive; band is strict
    assert not band[0, 0]
    assert not band[2, 2]  # freq exactly 0.25 is kept
    assert band[3, 0]  # 0.375 > 0.25
    assert band[0, 4]  # 0.5 > 0.25


def test_high_band_mask_cached_and_read_only():
    band = FreqGrid(12, 9).high_band(0.25)
    assert FreqGrid(12, 9).high_band(0.25) is band
    assert not band.flags.writeable
    with pytest.raises(ValueError):
        band[0, 0] = True
    fresh = (np.abs(signed_frequencies(12)) > 0.25)[:, None] | (
        np.abs(signed_frequencies(9)) > 0.25
    )[None, :]
    np.testing.assert_array_equal(band, fresh)


# --- filter frequency responses


def test_response_all_pass():
    resp = filter_frequency_response(np.array([[1.0]]), 16)
    assert np.abs(resp - 1.0).max() < 1e-12


def test_response_zero_kernel():
    resp = filter_frequency_response(np.zeros((3, 3)), 8)
    assert resp.max() == 0.0


def test_response_binomial3_closed_form():
    n = 32
    kernel = np.outer([1, 2, 1], [1, 2, 1]) / 16.0
    resp = filter_frequency_response(kernel, n)
    freqs = signed_frequencies(n)
    expected = np.cos(np.pi * freqs[:, None]) ** 2 * np.cos(np.pi * freqs[None, :]) ** 2
    expected = np.roll(expected, (n // 2, n // 2), axis=(0, 1))
    assert np.abs(resp - expected).max() < 1e-12
    center = n // 2
    assert resp[center, center] == pytest.approx(1.0, abs=1e-12)
    # monotone decay from the center along both axes
    row = resp[center, center:]
    col = resp[center:, center]
    assert np.all(np.diff(row) < 0)
    assert np.all(np.diff(col) < 0)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 40),
    st.integers(1, 7),
    st.integers(1, 7),
    st.integers(-6, 6),
    st.integers(0, 2**32 - 1),
)
def test_response_matches_full_fft2(grid, kh, kw, exponent, seed):
    # the half-spectrum map against the full transform it replaced, on odd
    # and even grids: an even grid's +1/2 column comes from the mirror
    kernel = 10.0**exponent * np.random.default_rng(seed).standard_normal(
        (min(kh, grid), min(kw, grid))
    )
    padded = np.zeros((grid, grid))
    padded[: kernel.shape[0], : kernel.shape[1]] = kernel
    full = np.fft.fftshift(np.abs(np.fft.fft2(padded)))
    got = filter_frequency_response(kernel, grid)
    assert got.shape == (grid, grid)
    assert np.abs(got - full).max() <= 1e-14 * full.max()


def test_response_kernel_too_large():
    with pytest.raises(SizeError):
        filter_frequency_response(np.ones((5, 5)), 4)


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_response_empty_kernel_rejected(shape):
    # an empty kernel would give an all-zero response, not an error
    with pytest.raises(SizeError) as info:
        filter_frequency_response(np.zeros(shape), 8)
    assert str(info.value) == f"kernel dims must be positive: {shape}"
