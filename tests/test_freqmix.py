import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alias_scope.antialias import CutoffSpec, daf
from alias_scope.arrays import FeatureFile, FeatureTensor, write_npy
from alias_scope.errors import ShapeError, ValidationError
from alias_scope.freqmix import (
    PARAM_FIELDS,
    WEIGHT_FIELDS,
    FreqMixParams,
    FreqMixWeights,
    channel_means,
    freqmix_apply,
    freqmix_predict_weights,
    frequency_split,
)
from alias_scope.synth import tone

QUARTER = CutoffSpec(0.25)


def rand_tensor(shape, seed):
    return FeatureTensor(np.random.default_rng(seed).standard_normal(shape))


def make_weights(c, h, w, seed=None, fill=None):
    if fill is not None:
        vals = [np.full(c, fill), np.full(c, fill),
                np.full((h, w), fill), np.full((h, w), fill)]
    else:
        rng = np.random.default_rng(seed)
        vals = [rng.standard_normal(c), rng.standard_normal(c),
                rng.standard_normal((h, w)), rng.standard_normal((h, w))]
    return FreqMixWeights(*vals)


def sigmoid(x):
    if x == math.inf:
        return 1.0
    if x == -math.inf:
        return 0.0
    return 1.0 / (1.0 + math.exp(-x))


def apply_reference(f, cutoff, weights):
    """Scalar-loop evaluation of the decomposed band mixing."""
    low, high = frequency_split(f, cutoff)
    c, h, w = f.data.shape
    out = np.zeros((c, h, w))
    for ci in range(c):
        for y in range(h):
            for x in range(w):
                out[ci, y, x] = (
                    sigmoid(weights.a_low_channel[ci])
                    * sigmoid(weights.a_low_spatial[y, x])
                    * low.data[ci, y, x]
                    + sigmoid(weights.a_high_channel[ci])
                    * sigmoid(weights.a_high_spatial[y, x])
                    * high.data[ci, y, x]
                )
    return out


# --- frequency split


def test_split_constant_goes_low():
    f = FeatureTensor(np.full((1, 8, 8), 2.0))
    low, high = frequency_split(f, QUARTER)
    assert np.abs(low.data - f.data).max() < 1e-12
    assert np.abs(high.data).max() < 1e-12


def test_split_high_tone_goes_high():
    f = tone((1, 16, 16), freq_w=6 / 16)
    low, high = frequency_split(f, QUARTER)
    assert np.abs(low.data).max() < 1e-9
    assert np.abs(high.data - f.data).max() < 1e-9


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 12), st.integers(2, 12), st.integers(0, 2**32 - 1))
def test_split_complementarity(h, w, seed):
    f = rand_tensor((2, h, w), seed)
    low, high = frequency_split(f, QUARTER)
    assert np.abs(low.data + high.data - f.data).max() < 1e-9


# --- band mixing


def test_bypass_identity():
    f = rand_tensor((2, 8, 8), 0)
    weights = FreqMixWeights.bypass(2, 8, 8)
    out = freqmix_apply(f, QUARTER, weights)
    assert np.abs(out.data - f.data).max() < 1e-9


def test_high_band_off_equals_daf():
    f = rand_tensor((2, 8, 8), 1)
    weights = FreqMixWeights(
        np.full(2, np.inf),
        np.full(2, -np.inf),
        np.full((8, 8), np.inf),
        np.full((8, 8), -np.inf),
    )
    out = freqmix_apply(f, QUARTER, weights)
    assert np.abs(out.data - daf(f, QUARTER).data).max() < 1e-9


def test_apply_matches_scalar_reference():
    f = rand_tensor((2, 8, 8), 2)
    weights = make_weights(2, 8, 8, seed=3)
    out = freqmix_apply(f, QUARTER, weights)
    ref = apply_reference(f, QUARTER, weights)
    assert np.abs(out.data - ref).max() < 1e-12


def test_apply_shape_mismatch():
    f = rand_tensor((2, 8, 8), 4)
    with pytest.raises(ShapeError):
        freqmix_apply(f, QUARTER, make_weights(3, 8, 8, seed=0))
    with pytest.raises(ShapeError):
        freqmix_apply(f, QUARTER, make_weights(2, 8, 9, seed=0))


def test_band_terms_are_independent():
    # the output is exactly (low term) + (high term); each term only sees
    # its own weights
    f = rand_tensor(( 2, 8, 8), 5)
    low_logits = np.random.default_rng(6).standard_normal(2)
    weights_full = FreqMixWeights(
        low_logits,
        np.full(2, 0.7),
        np.full((8, 8), 0.3),
        np.full((8, 8), -0.2),
    )
    weights_low_only = FreqMixWeights(
        low_logits,
        np.full(2, -np.inf),
        np.full((8, 8), 0.3),
        np.full((8, 8), -np.inf),
    )
    weights_high_only = FreqMixWeights(
        np.full(2, -np.inf),
        np.full(2, 0.7),
        np.full((8, 8), -np.inf),
        np.full((8, 8), -0.2),
    )
    full = freqmix_apply(f, QUARTER, weights_full).data
    low_term = freqmix_apply(f, QUARTER, weights_low_only).data
    high_term = freqmix_apply(f, QUARTER, weights_high_only).data
    assert np.array_equal(full, low_term + high_term)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 10), st.integers(2, 10), st.integers(0, 2**32 - 1))
def test_output_bounded_by_band_amplitudes(h, w, seed):
    f = rand_tensor((1, h, w), seed)
    weights = make_weights(1, h, w, seed=seed + 1)
    low, high = frequency_split(f, QUARTER)
    out = freqmix_apply(f, QUARTER, weights)
    bound = np.abs(low.data) + np.abs(high.data)
    assert np.all(np.abs(out.data) <= bound + 1e-12)


# --- weight prediction


def zero_params(c, k=3):
    return FreqMixParams(
        np.zeros((c, c)), np.zeros(c),
        np.zeros((c, c)), np.zeros(c),
        np.zeros((k, k)), 0.0,
        np.zeros((k, k)), 0.0,
    )


def test_predict_zero_tensor_gives_halves():
    f = FeatureTensor(np.zeros((3, 6, 6)))
    weights = freqmix_predict_weights(f, zero_params(3))
    assert np.all(weights.a_low_channel == 0.0)
    assert np.all(weights.a_high_spatial == 0.0)
    out = freqmix_apply(rand_tensor((3, 6, 6), 7), QUARTER, weights)
    # effective gains are sigmoid(0)^2 = 0.25 on both bands
    ref = 0.25 * rand_tensor((3, 6, 6), 7).data
    assert np.abs(out.data - ref).max() < 1e-12


def test_predict_saturated_bias():
    f = rand_tensor((2, 6, 6), 8)
    params = FreqMixParams(
        np.eye(2), np.full(2, 50.0),
        np.eye(2), np.full(2, 50.0),
        np.zeros((3, 3)), 50.0,
        np.zeros((3, 3)), 50.0,
    )
    weights = freqmix_predict_weights(f, params)
    out = freqmix_apply(f, QUARTER, weights)
    assert np.abs(out.data - f.data).max() < 1e-9


def test_predict_matches_scalar_reference():
    rng = np.random.default_rng(9)
    c, h, w, k = 3, 6, 7, 3
    f = FeatureTensor(rng.standard_normal((c, h, w)))
    params = FreqMixParams(
        rng.standard_normal((c, c)), rng.standard_normal(c),
        rng.standard_normal((c, c)), rng.standard_normal(c),
        rng.standard_normal((k, k)), 0.4,
        rng.standard_normal((k, k)), -0.1,
    )
    weights = freqmix_predict_weights(f, params)

    pooled = np.array([f.data[ci].mean() for ci in range(c)])
    chan_low = np.array(
        [sum(params.fc_low_weight[i, j] * pooled[j] for j in range(c))
         + params.fc_low_bias[i] for i in range(c)]
    )
    assert np.abs(weights.a_low_channel - chan_low).max() < 1e-12

    mean_map = f.data.mean(axis=0)
    half = k // 2
    expected = np.zeros((h, w))
    for y in range(h):
        for x in range(w):
            acc = 0.0
            for dy in range(-half, half + 1):
                for dx in range(-half, half + 1):
                    yy = _reflect_index(y + dy, h)
                    xx = _reflect_index(x + dx, w)
                    acc += params.conv_high_kernel[dy + half, dx + half] * mean_map[yy, xx]
            expected[y, x] = acc + params.conv_high_bias
    assert np.abs(weights.a_high_spatial - expected).max() < 1e-12


@settings(max_examples=100, deadline=None)
@given(
    c=st.integers(1, 9),
    h=st.integers(1, 12),
    w=st.integers(1, 12),
    dtype=st.sampled_from(["<f4", "<f8"]),
    block=st.integers(1, 9 * 12 * 12),
    seed=st.integers(0, 2**16),
)
@example(c=8, h=1, w=1, dtype="<f8", block=1, seed=3)
def test_channel_means_are_numpy_means_bit_for_bit(c, h, w, dtype, block, seed):
    # a running plane sum adds the channels in the order numpy's reduction
    # over axis 0 does, so the streamed means keep every bit
    rng = np.random.default_rng(seed)
    data = (rng.standard_normal((c, h, w)) * 10.0 ** rng.integers(-3, 4, (c, 1, 1))).astype(dtype)
    data64 = data.astype(np.float64)
    params = FreqMixParams(
        rng.standard_normal((c, c)), rng.standard_normal(c),
        rng.standard_normal((c, c)), rng.standard_normal(c),
        rng.standard_normal((3, 3)), 0.4,
        rng.standard_normal((3, 3)), -0.1,
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.npy"
        write_npy(path, data)
        pooled, mean_map = channel_means(b for _, b in FeatureFile(path).blocks(block))
        from_file = freqmix_predict_weights(FeatureFile(path), params)
    assert pooled.tobytes() == data64.mean(axis=(1, 2)).tobytes()
    assert mean_map.tobytes() == data64.mean(axis=0).tobytes()
    whole = freqmix_predict_weights(FeatureTensor(data), params)
    want = params.predict(data64.mean(axis=(1, 2)), data64.mean(axis=0))
    for name in WEIGHT_FIELDS:
        assert getattr(whole, name).tobytes() == getattr(want, name).tobytes()
        assert getattr(from_file, name).tobytes() == getattr(whole, name).tobytes()


def _reflect_index(i, n):
    # symmetric reflection with edge repeat: ... 1 0 | 0 1 2 ... n-1 | n-1 n-2 ...
    period = 2 * n
    i = i % period
    if i < 0:
        i += period
    return i if i < n else period - 1 - i


def test_predict_channel_mismatch():
    with pytest.raises(ShapeError):
        freqmix_predict_weights(rand_tensor((2, 4, 4), 0), zero_params(3))


# --- NPY loading


def test_weights_round_trip_via_npy(tmp_path):
    weights = make_weights(2, 4, 4, seed=10)
    for name in WEIGHT_FIELDS:
        write_npy(tmp_path / f"{name}.npy", getattr(weights, name))
    back = FreqMixWeights.from_npy_dir(tmp_path)
    for name in WEIGHT_FIELDS:
        assert np.array_equal(getattr(back, name), getattr(weights, name))


def test_params_round_trip_via_npy(tmp_path):
    rng = np.random.default_rng(11)
    params = FreqMixParams(
        rng.standard_normal((2, 2)), rng.standard_normal(2),
        rng.standard_normal((2, 2)), rng.standard_normal(2),
        rng.standard_normal((3, 3)), 0.5,
        rng.standard_normal((3, 3)), -0.25,
    )
    for name in PARAM_FIELDS:
        write_npy(tmp_path / f"{name}.npy", np.asarray(getattr(params, name)))
    back = FreqMixParams.from_npy_dir(tmp_path)
    for name in PARAM_FIELDS:
        assert np.array_equal(
            np.asarray(getattr(back, name)), np.asarray(getattr(params, name))
        )


@pytest.mark.parametrize("field", ["conv_low_kernel", "conv_high_kernel"])
@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
def test_params_reject_an_empty_conv_kernel(field, shape):
    # scipy's correlate raises RuntimeError on an empty kernel
    fields = dict(zip(PARAM_FIELDS, vars(zero_params(2)).values()))
    fields[field] = np.zeros(shape)
    with pytest.raises(ShapeError) as info:
        FreqMixParams(**fields)
    assert str(info.value) == f"{field} must be 2D (k, k) with positive dims, got {shape}"


@pytest.mark.parametrize("field", WEIGHT_FIELDS)
def test_weights_reject_a_nan_logit(field):
    values = dict(zip(WEIGHT_FIELDS, vars(FreqMixWeights.bypass(2, 3, 3)).values()))
    values[field] = values[field].copy()
    values[field].flat[-1] = np.nan
    with pytest.raises(ValidationError, match=f"^{field}: logits must not be NaN$"):
        FreqMixWeights(**values)


@pytest.mark.parametrize("field", PARAM_FIELDS)
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_params_reject_a_non_finite_value(field, value):
    values = dict(zip(PARAM_FIELDS, vars(zero_params(2)).values()))
    values[field] = np.array(values[field])
    values[field].flat[-1] = value
    with pytest.raises(ValidationError, match=f"^{field}: parameters must be finite$"):
        FreqMixParams(**values)


def test_weights_shape_check_at_load(tmp_path):
    weights = make_weights(2, 4, 4, seed=12)
    for name in WEIGHT_FIELDS:
        write_npy(tmp_path / f"{name}.npy", getattr(weights, name))
    write_npy(tmp_path / "a_low_channel.npy", np.zeros((2, 2)))  # wrong rank
    with pytest.raises(ShapeError):
        FreqMixWeights.from_npy_dir(tmp_path)
