"""Transforms work in one buffer and report digests stream.

The bit-identity tests keep the earlier out-of-place expressions as
references: the in-place rewrites run the same products and sums in the
same order, so the results must be equal, not merely close.  The memory
tests read tracemalloc, which numpy reports its array buffers to, and
state each bound in buffers of the input's C*H*W elements.  The filter
bank Gram matrix is the exception: it is summed by mat-vecs instead of a
GEMM, so it is held to the GEMM within a tolerance.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest
from scipy import ndimage  # imported here, not inside a traced call
from scipy.special import expit

from alias_scope.antialias import (
    _BINOMIAL_ROWS,
    CutoffSpec,
    add_gaussian_noise,
    band_power,
    binomial_blur,
    daf,
)
from alias_scope.arrays import PAIRWISE_LEAF, FeatureTensor, ScoreFile, write_npy
from alias_scope.cli import _sha256
from alias_scope.freqmix import FreqMixWeights, freqmix_apply, frequency_split
from alias_scope.sampling import FilterBank, filter_bank_orthogonality
from alias_scope.spectral import FreqGrid, fft2, power_spectrum

SHAPES = [(3, 97, 97), (1, 1, 1), (2, 2, 1), (2, 1, 2), (4, 12, 16), (2, 9, 7)]
# 0.5 keeps every half-spectrum column and 0.01 only the DC column
CUTOFFS = [0.25, 1 / 3, np.sqrt(2) / 4, 0.5, 0.01]
# large enough that numpy's fixed-size iterator buffers (at most 128 KiB)
# stay a small share of one C*H*W float64 buffer (1 MiB)
MEMORY_SHAPE = (8, 128, 128)


def tensor(shape, dtype, seed=0):
    return np.random.default_rng(seed).standard_normal(shape).astype(dtype)


def weights_for(shape, seed=1):
    c, h, w = shape
    rng = np.random.default_rng(seed)
    return FreqMixWeights(
        rng.standard_normal(c), rng.standard_normal(c),
        rng.standard_normal((h, w)), rng.standard_normal((h, w)),
    )


def traced_peak(fn, *args) -> int:
    """Peak bytes traced while fn(*args) runs, its result included."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# --- the earlier expressions, kept as references


def fft2_reference(data):
    return np.fft.fft2(data.astype(np.float64, copy=False), norm="forward")


def daf_reference(data, cutoff):
    data = data.astype(np.float64, copy=False)
    h, w = data.shape[1:]
    coeffs = np.fft.rfft2(data)
    coeffs[:, FreqGrid(h, w).high_band(cutoff)[:, : w // 2 + 1]] = 0.0
    return np.fft.irfft2(coeffs, s=(h, w))


def freqmix_reference(data, cutoff, weights):
    low = daf_reference(data, cutoff)
    high = data.astype(np.float64) - low
    low_gain = expit(weights.a_low_channel)[:, None, None] * expit(
        weights.a_low_spatial
    )[None, :, :]
    high_gain = expit(weights.a_high_channel)[:, None, None] * expit(
        weights.a_high_spatial
    )[None, :, :]
    return low_gain * low + high_gain * high


def blur_reference(data, size):
    row = _BINOMIAL_ROWS[size]
    out = ndimage.convolve1d(data.astype(np.float64), row, axis=1, mode="reflect")
    return ndimage.convolve1d(out, row, axis=2, mode="reflect")


def noise_reference(data, sigma, seed):
    noise = np.random.default_rng(seed).normal(0.0, sigma, size=data.shape)
    return data.astype(np.float64) + noise


def orthogonality_reference(filters):
    unit = filters / np.abs(filters).max(axis=1)[:, None]
    norms = np.linalg.norm(unit, axis=1)
    matrix = np.abs(unit @ unit.T) / np.outer(norms, norms)
    np.fill_diagonal(matrix, 1.0)
    return matrix


# --- bit identity


@pytest.mark.parametrize("dtype", ["<f4", "<f8"])
@pytest.mark.parametrize("shape", SHAPES)
def test_fft2_and_power_spectrum_bit_identical(shape, dtype):
    data = tensor(shape, dtype)
    spec = fft2(FeatureTensor(data))
    assert np.array_equal(spec.coeffs, fft2_reference(data))
    assert np.array_equal(power_spectrum(spec), np.abs(spec.coeffs) ** 2)


@pytest.mark.parametrize("cutoff", CUTOFFS)
@pytest.mark.parametrize("dtype", ["<f4", "<f8"])
@pytest.mark.parametrize("shape", SHAPES)
def test_daf_and_split_bit_identical(shape, dtype, cutoff):
    data = tensor(shape, dtype)
    want = daf_reference(data, cutoff)
    assert np.array_equal(daf(FeatureTensor(data), CutoffSpec(cutoff)).data, want)
    low, high = frequency_split(FeatureTensor(data), CutoffSpec(cutoff))
    assert np.array_equal(low.data, want)
    assert np.array_equal(high.data, data.astype(np.float64) - want)


@pytest.mark.parametrize("dtype", ["<f4", "<f8"])
@pytest.mark.parametrize("shape", SHAPES)
def test_freqmix_apply_bit_identical(shape, dtype):
    data = tensor(shape, dtype)
    weights = weights_for(shape)
    got = freqmix_apply(FeatureTensor(data), CutoffSpec(0.25), weights).data
    assert np.array_equal(got, freqmix_reference(data, 0.25, weights))


@pytest.mark.parametrize("size", [3, 5, 7])
@pytest.mark.parametrize("dtype", ["<f4", "<f8"])
@pytest.mark.parametrize("shape", SHAPES)
def test_blur_bit_identical(shape, dtype, size):
    data = tensor(shape, dtype)
    got = binomial_blur(FeatureTensor(data), size).data
    assert got.tobytes() == blur_reference(data, size).tobytes()


@pytest.mark.parametrize("sigma, seed", [(0.5, 0), (1.0, 9), (1e-3, 123)])
@pytest.mark.parametrize("dtype", ["<f4", "<f8"])
@pytest.mark.parametrize("shape", SHAPES)
def test_noise_bit_identical(shape, dtype, sigma, seed):
    data = tensor(shape, dtype)
    got = add_gaussian_noise(FeatureTensor(data), sigma, seed).data
    assert got.tobytes() == noise_reference(data, sigma, seed).tobytes()


@pytest.mark.parametrize("shape", [(2, 1), (5, 3), (17, 9), (128, 576)])
def test_orthogonality_matches_gemm(shape):
    filters = np.random.default_rng(4).standard_normal(shape)
    matrix, _ = filter_bank_orthogonality(FilterBank(filters))
    want = orthogonality_reference(filters)
    assert np.abs(matrix - want).max() <= 1e-14 * np.abs(want).max()


def test_inputs_left_unchanged():
    data = tensor((2, 9, 7), "<f8")
    f = FeatureTensor(data.copy())
    fft2(f)
    daf(f, CutoffSpec(0.25))
    binomial_blur(f, 5)
    add_gaussian_noise(f, 0.5, 0)
    freqmix_apply(f, CutoffSpec(0.25), weights_for((2, 9, 7)))
    assert np.array_equal(f.data, data)


# --- memory bounds


def test_sha256_streams_the_file(tmp_path):
    path = tmp_path / "big.bin"
    path.write_bytes(np.random.default_rng(0).bytes(8 << 20))
    want = hashlib.sha256(path.read_bytes()).hexdigest()
    assert _sha256(path) == want
    assert traced_peak(_sha256, path) < 2 << 20


def test_fft2_holds_one_complex_buffer():
    data = tensor(MEMORY_SHAPE, "<f4")
    f = FeatureTensor(data)
    complex_buffer = data.size * 16
    # out of place this was a float64 cast plus one complex array per axis
    assert traced_peak(fft2, f) <= 1.25 * complex_buffer


def test_band_power_holds_a_block_of_channels():
    # a score-map window: the power and high-band gather of one block of
    # 32 channels, 0.89 of the whole (C, H, W) float64 power array, which
    # with its gather of all 64 channels made 1.75
    spec = fft2(FeatureTensor(tensor((64, 32, 32), "<f4")))
    power_array = 64 * 32 * 32 * 8
    assert traced_peak(band_power, spec, CutoffSpec(0.25)) < power_array


def test_daf_holds_one_working_buffer():
    data = tensor(MEMORY_SHAPE, "<f4")
    f = FeatureTensor(data)
    buffer = data.size * 8
    # the float64 cast, the half spectrum and the output each take about
    # one buffer, and the cast is gone before the output is made; with
    # irfft2 a second half spectrum and the cast lived next to the output
    assert traced_peak(daf, f, CutoffSpec(0.25)) <= 2.25 * buffer


def test_freqmix_apply_holds_three_buffers():
    data = tensor(MEMORY_SHAPE, "<f4")
    f = FeatureTensor(data)
    buffer = data.size * 8
    # two bands and one result, or one band, the result and one gain;
    # with two gains, two products and a sum it was six
    peak = traced_peak(freqmix_apply, f, CutoffSpec(0.25), weights_for(MEMORY_SHAPE))
    assert peak <= 3.5 * buffer


def test_blur_casts_no_copy():
    data = tensor(MEMORY_SHAPE, "<f4")
    f = FeatureTensor(data)
    buffer = data.size * 8
    # the two float64 passes; casting the input first made it three
    assert traced_peak(binomial_blur, f, 5) <= 2.25 * buffer


def test_noise_adds_in_place():
    data = tensor(MEMORY_SHAPE, "<f4")
    f = FeatureTensor(data)
    buffer = data.size * 8
    # the noise, which becomes the output; noise plus a sum made it two
    assert traced_peak(add_gaussian_noise, f, 0.5, 7) <= 1.25 * buffer


def test_float64_score_map_loads_without_a_copy(tmp_path):
    path = tmp_path / "score.npy"
    values = np.random.default_rng(0).uniform(0.0, 1.0, (512, 1024))
    write_npy(path, values)
    # the rows read from the file are the map; astype without copy=False
    # made a second one
    scores = ScoreFile(path)
    assert traced_peak(scores.rows, 0, 512) <= 1.25 * values.nbytes
    assert np.array_equal(scores.rows(0, 512), values)


@pytest.mark.parametrize("dtype", ["<f4", "<f8"])
def test_score_map_mean_holds_one_leaf(tmp_path, dtype):
    path = tmp_path / "score.npy"
    values = np.random.default_rng(0).uniform(0.0, 1.0, (512, 1024)).astype(dtype)
    write_npy(path, values)
    # one float64 leaf and its read buffer, not the 4 MiB float64 map
    scores = ScoreFile(path)
    assert traced_peak(scores.mean) <= 1.25 * PAIRWISE_LEAF * (8 + values.itemsize)
    assert scores.mean() == values.astype(np.float64).mean()
