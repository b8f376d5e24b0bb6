import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alias_scope.antialias import (
    CutoffSpec,
    add_gaussian_noise,
    aliasing_score,
    band_power,
    binomial_blur,
    binomial_kernel,
    daf,
    flc_cutoff,
)
from alias_scope.arrays import FeatureTensor, channel_blocks
from alias_scope.errors import SpecError, UndefinedRatioError, ValidationError
from alias_scope.sampling import subsample
from alias_scope.spectral import (
    Spectrum,
    dft2_naive,
    fft2,
    ifft2,
    power_spectrum,
    signed_frequencies,
)
from alias_scope.synth import one_over_f, tone, white_noise

QUARTER = CutoffSpec(0.25)


def rand_tensor(shape, seed):
    return FeatureTensor(np.random.default_rng(seed).standard_normal(shape))


# --- aliasing score


def test_score_constant_field_is_zero():
    f = FeatureTensor(np.full((2, 8, 8), 3.0))
    assert aliasing_score(f, QUARTER) == 0.0
    assert aliasing_score(f, QUARTER, mode="global") == 0.0


def test_score_high_tone_is_one():
    # zero-mean cos(2*pi*(6/16)*w): every coefficient sits at |l| = 0.375
    f = tone((1, 16, 16), freq_w=6 / 16)
    assert aliasing_score(f, QUARTER) == pytest.approx(1.0, abs=1e-12)


def test_score_low_tone_is_zero():
    f = tone((1, 16, 16), freq_w=2 / 16)
    assert aliasing_score(f, QUARTER) < 1e-24


def test_score_all_zero_rejected():
    f = FeatureTensor(np.zeros((1, 4, 4)))
    with pytest.raises(UndefinedRatioError):
        aliasing_score(f, QUARTER)
    with pytest.raises(UndefinedRatioError):
        aliasing_score(f, QUARTER, mode="global")


def test_score_modes_disagree_when_channels_differ():
    # channel 0: pure low tone, channel 1: faint high tone; the per-channel
    # mean weighs them equally while the global ratio follows the power
    low = tone((1, 16, 16), freq_w=1 / 16).data
    high = 0.1 * tone((1, 16, 16), freq_w=6 / 16).data
    f = FeatureTensor(np.concatenate([low, high]))
    per_channel = aliasing_score(f, QUARTER)
    pooled = aliasing_score(f, QUARTER, mode="global")
    assert per_channel == pytest.approx(0.5, abs=1e-9)
    assert pooled < 0.05


def test_score_bad_mode():
    with pytest.raises(SpecError):
        aliasing_score(rand_tensor((1, 4, 4), 0), QUARTER, mode="median")


def _whole_band_power(spec, cutoff):
    """The unblocked sums: one (C, H, W) |F|^2 and one gather of its high band."""
    power = power_spectrum(spec)
    return power[:, spec.grid.high_band(cutoff.cutoff)].sum(axis=1), power.sum(axis=(1, 2))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 9),
    st.integers(1, 40),
    st.integers(1, 40),
    st.sampled_from(["<f4", "<f8"]),
    st.sampled_from([0.1, 0.25, 0.5]),
    st.integers(1, 9 * 40 * 40),
    st.integers(0, 2**32 - 1),
)
@example(1, 40, 40, "<f8", 0.25, 1, 0)  # one channel: no block to join
@example(9, 33, 17, "<f4", 0.1, 1, 1)  # blocks of two, the last of three
def test_band_power_equals_its_blocks(c, h, w, dtype, cutoff, block, seed):
    # blocks of at least two channels, cut as `score` and band_power cut
    # them, give every per-channel sum the whole spectrum's bits
    spec = fft2(FeatureTensor(np.random.default_rng(seed).standard_normal((c, h, w)).astype(dtype)))
    spec_cut = CutoffSpec(cutoff)
    high, total = band_power(spec, spec_cut)
    blocks = [band_power(Spectrum(spec.coeffs[ch]), spec_cut)
              for ch in channel_blocks((c, h, w), block, least=2)]
    for whole, joined, unblocked in zip((high, total), zip(*blocks), _whole_band_power(spec, spec_cut)):
        assert np.array_equal(whole, np.concatenate(joined))
        assert np.array_equal(whole, unblocked)


@pytest.mark.parametrize("cutoff", [0.1, 0.25, 0.5])
def test_band_power_blocks_keep_whole_bits_at_window_size(cutoff):
    # the score map's windows: 64 channels of 32 x 32 are two blocks
    spec = fft2(rand_tensor((64, 32, 32), 3))
    got = band_power(spec, CutoffSpec(cutoff))
    for blocked, whole in zip(got, _whole_band_power(spec, CutoffSpec(cutoff))):
        assert np.array_equal(blocked, whole)


def test_band_power_overflow_checked_on_joined_totals():
    # constant channels hold all their power, 4e306 each, at DC: the 32
    # channels of each block sum to a finite total, the 64 of both do not
    spec = fft2(FeatureTensor(np.full((64, 32, 32), 2.0e153)))
    assert all(np.isfinite(band_power(Spectrum(spec.coeffs[ch]), QUARTER)[1].sum())
               for ch in channel_blocks(spec.coeffs.shape, 1 << 15, least=2))
    with pytest.raises(ValidationError, match="overflows"):
        band_power(spec, QUARTER)


def test_cutoff_validation():
    with pytest.raises(ValidationError):
        CutoffSpec(0.0)
    with pytest.raises(ValidationError):
        CutoffSpec(0.6)


# --- de-aliasing filter


def test_daf_constant_unchanged():
    f = FeatureTensor(np.full((1, 8, 8), 1.25))
    assert np.abs(daf(f, QUARTER).data - f.data).max() < 1e-12


def test_daf_low_tone_unchanged():
    f = tone((1, 16, 16), freq_w=2 / 16)
    assert np.abs(daf(f, QUARTER).data - f.data).max() < 1e-9


def test_daf_high_tone_removed():
    f = tone((1, 16, 16), freq_w=6 / 16)
    assert np.abs(daf(f, QUARTER).data).max() < 1e-9


def test_daf_keeps_band_edge():
    # |l| exactly at the cutoff survives (strict band)
    f = tone((1, 16, 16), freq_w=4 / 16)
    assert np.abs(daf(f, QUARTER).data - f.data).max() < 1e-9


@pytest.mark.parametrize("cutoff", [0.125, 0.25, np.sqrt(2) / 4])
def test_daf_exact_dealiasing(cutoff):
    spec = CutoffSpec(cutoff)
    for seed in range(5):
        f = rand_tensor((2, 12, 12), seed)
        out = daf(f, spec)
        assert aliasing_score(out, spec) < 1e-12


@pytest.mark.parametrize("shape", [(3, 32, 32), (2, 97, 97)])
def test_daf_float32_input_matches_float64_reference(shape):
    data = np.random.default_rng(sum(shape)).standard_normal(shape).astype("<f4")
    coeffs = np.fft.fft2(data.astype(np.float64))
    keep_h = np.abs(signed_frequencies(shape[1])) <= 0.25
    keep_w = np.abs(signed_frequencies(shape[2])) <= 0.25
    coeffs[:, ~(keep_h[:, None] & keep_w[None, :])] = 0.0
    expected = np.fft.ifft2(coeffs).real
    out = daf(FeatureTensor(data), QUARTER).data
    assert np.abs(out - expected).max() < 1e-9 * np.abs(expected).max()


@st.composite
def daf_case(draw):
    sizes = st.one_of(st.sampled_from([1, 2, 3, 4]), st.integers(1, 12))
    h, w = draw(sizes), draw(sizes)
    # bin-exact cutoffs j/N (that bin survives) and arbitrary ones in (0, 1/2]
    on_bin = [j / n for n in (h, w) for j in range(1, n // 2 + 1)]
    cutoffs = st.floats(1e-3, 0.5)
    cutoff = draw(st.one_of(st.sampled_from(on_bin), cutoffs) if on_bin else cutoffs)
    dtype = draw(st.sampled_from(["<f4", "<f8"]))
    data = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(
        (draw(st.integers(1, 3)), h, w)
    )
    return data.astype(dtype), cutoff


@settings(max_examples=150, deadline=None)
@given(daf_case())
def test_daf_matches_masked_naive_dft(case):
    data, cutoff = case
    spec = dft2_naive(FeatureTensor(data.astype(np.float64)))
    coeffs = spec.coeffs.copy()
    coeffs[:, spec.grid.high_band(cutoff)] = 0.0
    expected = ifft2(Spectrum(coeffs)).data
    out = daf(FeatureTensor(data), CutoffSpec(cutoff)).data
    assert out.dtype == np.float64 and out.shape == data.shape
    assert np.abs(out - expected).max() <= 1e-9 * np.abs(data).max()


@pytest.mark.parametrize("w", [2, 3, 5, 8, 9, 12])
def test_daf_keeps_every_bin_exact_edge(w):
    # a tone on bin j survives cutoff j/W, the next bin up is removed
    for j in range(1, w // 2 + 1):
        edge = tone((1, 3, w), freq_w=j / w)
        assert np.abs(daf(edge, CutoffSpec(j / w)).data - edge.data).max() < 1e-9
        if j + 1 <= w // 2:
            above = tone((1, 3, w), freq_w=(j + 1) / w)
            assert np.abs(daf(above, CutoffSpec(j / w)).data).max() < 1e-9


def test_daf_idempotent():
    f = rand_tensor((1, 10, 14), 9)
    once = daf(f, QUARTER)
    twice = daf(once, QUARTER)
    assert np.abs(twice.data - once.data).max() < 1e-9


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 16), st.integers(2, 16), st.integers(0, 2**32 - 1))
def test_daf_projection_norm_nonincreasing(h, w, seed):
    f = rand_tensor((1, h, w), seed)
    out = daf(f, QUARTER)
    assert np.linalg.norm(out.data) <= np.linalg.norm(f.data) + 1e-12


def test_daf_linear():
    a = rand_tensor((1, 8, 8), 1)
    b = rand_tensor((1, 8, 8), 2)
    combo = daf(FeatureTensor(2.0 * a.data - 3.0 * b.data), QUARTER).data
    parts = 2.0 * daf(a, QUARTER).data - 3.0 * daf(b, QUARTER).data
    assert np.abs(combo - parts).max() < 1e-9


def test_daf_then_subsample_keeps_low_tone_and_drops_fold():
    stride = 2
    cutoff = flc_cutoff(stride)  # 0.25
    low = tone((1, 4, 32), freq_w=2 / 32)  # 0.0625 < 0.25
    high = tone((1, 4, 32), freq_w=12 / 32)  # 0.375 > 0.25 folds to 0.25

    def peak(f):
        power = (np.abs(fft2(f).coeffs[0]) ** 2).sum(axis=0)
        return abs(signed_frequencies(len(power))[int(np.argmax(power))])

    # a safe tone passes through daf + subsample at the unfolded frequency
    assert peak(subsample(daf(low, cutoff), stride)) == pytest.approx(0.125)
    # an unsafe tone folds without daf (0.375 * 2 = 0.75 -> 0.25) and
    # disappears with it
    assert peak(subsample(high, stride)) == pytest.approx(0.25)
    assert np.abs(subsample(daf(high, cutoff), stride).data).max() < 1e-9


# --- stride-only cutoff rule


def test_flc_cutoff_values():
    assert flc_cutoff(2).cutoff == 0.25
    assert flc_cutoff(1).cutoff == 0.5
    assert flc_cutoff(4).cutoff == 0.125


# --- binomial blur


def test_blur_constant_unchanged():
    f = FeatureTensor(np.full((2, 9, 9), 5.0))
    assert np.abs(binomial_blur(f, 3).data - 5.0).max() < 1e-12


def test_binomial_kernel_center_weight():
    assert binomial_kernel(3)[1, 1] == 0.25
    assert binomial_kernel(3).sum() == pytest.approx(1.0, abs=1e-15)
    assert binomial_kernel(5).sum() == pytest.approx(1.0, abs=1e-15)
    assert binomial_kernel(7).sum() == pytest.approx(1.0, abs=1e-15)


def test_blur_bad_size():
    with pytest.raises(SpecError):
        binomial_blur(rand_tensor((1, 8, 8), 0), 4)


@pytest.mark.parametrize("size", [3, 5, 7])
def test_blur_preserves_channel_means(size):
    f = rand_tensor((3, 11, 17), 21)
    out = binomial_blur(f, size)
    before = f.data.mean(axis=(1, 2))
    after = out.data.mean(axis=(1, 2))
    assert np.abs(before - after).max() < 1e-9


def test_blur_reduces_alias_band_every_trial():
    for seed in range(20):
        f = white_noise((1, 32, 32), seed)
        base = aliasing_score(f, QUARTER)
        blurred3 = aliasing_score(binomial_blur(f, 3), QUARTER)
        assert blurred3 < base
        # wider kernels scrub strictly more band power
        high3, _ = band_power(fft2(binomial_blur(f, 3)), QUARTER)
        high7, _ = band_power(fft2(binomial_blur(f, 7)), QUARTER)
        assert high7.sum() < high3.sum()


# --- noise injection


def test_noise_sigma_zero_is_identity():
    f = rand_tensor((1, 8, 8), 3)
    assert np.array_equal(add_gaussian_noise(f, 0.0, seed=1).data, f.data)


def test_noise_deterministic_per_seed():
    f = rand_tensor((2, 8, 8), 4)
    a = add_gaussian_noise(f, 2.0, seed=42)
    b = add_gaussian_noise(f, 2.0, seed=42)
    c = add_gaussian_noise(f, 2.0, seed=43)
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(a.data, c.data)


def test_noise_raises_alias_score_every_trial():
    for seed in range(20):
        f = one_over_f((1, 32, 32), seed)
        sigma = 0.05 * float(f.data.max() - f.data.min())
        noisy = add_gaussian_noise(f, sigma, seed=seed + 1000)
        assert aliasing_score(noisy, QUARTER) > aliasing_score(f, QUARTER)


@pytest.mark.parametrize("sigma", [0.0, 1.0])
def test_noise_negative_seed_rejected(sigma):
    with pytest.raises(SpecError, match="seed"):
        add_gaussian_noise(rand_tensor((1, 4, 4), 0), sigma, seed=-1)
