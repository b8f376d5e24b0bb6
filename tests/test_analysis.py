import contextlib
import io
import json
import os
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alias_scope import analysis, arrays
from alias_scope.analysis import (
    ScoreMap,
    bin_by_score,
    error_type_distribution,
    patch_aliasing_map,
    pixel_cross_entropy,
)
from alias_scope.antialias import CutoffSpec, aliasing_score
from alias_scope.arrays import BinaryMask, FeatureFile, FeatureTensor, LabelMask, write_npy
from alias_scope.cli import main
from alias_scope.errors import ShapeError, SizeError, UndefinedRatioError, ValidationError
from alias_scope.segmetrics import boundary_band, class_band_pairs
from alias_scope.synth import tone

import oracles

QUARTER = CutoffSpec(0.25)


def uniform_score_map(values):
    values = np.asarray(values, dtype=np.float64)
    return ScoreMap(values, window=4, stride=2, cutoff=0.25)


# --- patch score map


def test_patch_map_constant_tensor_is_zero():
    f = FeatureTensor(np.full((1, 16, 16), 2.0))
    score = patch_aliasing_map(f, window=8, stride=4, cutoff=QUARTER)
    assert score.values.shape == (16, 16)
    assert np.all(score.values == 0.0)


def test_patch_map_full_window_equals_global_score():
    rng = np.random.default_rng(0)
    f = FeatureTensor(rng.standard_normal((2, 12, 12)))
    score = patch_aliasing_map(f, window=12, stride=5, cutoff=QUARTER)
    expected = aliasing_score(f, QUARTER)
    assert np.all(score.values == expected)


def test_patch_map_two_tone_halves():
    # low tone on the left half, high tone on the right half
    h, w, win = 32, 64, 16
    low = tone((1, h, w), freq_w=2 / 16).data
    high = tone((1, h, w), freq_w=6 / 16).data
    data = np.where(np.arange(w)[None, None, :] < w // 2, low, high)
    score = patch_aliasing_map(FeatureTensor(data), win, 4, QUARTER)
    assert score.values[:, : w // 2 - win].max() < 0.05
    assert score.values[:, w // 2 + win :].min() > 0.95


def test_patch_map_window_too_large():
    f = FeatureTensor(np.zeros((1, 8, 8)))
    with pytest.raises(SizeError):
        patch_aliasing_map(f, window=9, stride=1, cutoff=QUARTER)


def test_patch_map_metadata():
    f = FeatureTensor(np.random.default_rng(1).standard_normal((1, 8, 8)))
    score = patch_aliasing_map(f, window=4, stride=2, cutoff=QUARTER)
    assert score.metadata() == {
        "window": 4,
        "stride": 2,
        "cutoff": 0.25,
        "mode": "per_channel_mean",
    }
    assert np.all(score.values >= 0.0) and np.all(score.values <= 1.0)


def test_patch_map_independent_of_thread_count(monkeypatch):
    f = FeatureTensor(np.random.default_rng(2).standard_normal((1, 24, 24)))
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    serial = patch_aliasing_map(f, 8, 4, QUARTER).values
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    threaded = patch_aliasing_map(f, 8, 4, QUARTER).values
    assert np.array_equal(serial, threaded)


def _brute_force_fill(data, window, stride, score_of):
    """Score every window, then give each pixel the score of the nearest
    window center: Euclidean argmin over the centers in row-major order,
    first minimum on a tie."""
    _, h, w = data.shape

    def starts(extent):
        out = list(range(0, extent - window + 1, stride))
        return out if out[-1] == extent - window else out + [extent - window]

    centers, scores = [], []
    for y in starts(h):
        for x in starts(w):
            centers.append((y + window // 2, x + window // 2))
            scores.append(score_of(data[:, y : y + window, x : x + window]))
    cy, cx = np.array(centers).T
    py, px = np.indices((h, w)).reshape(2, -1, 1)
    nearest = np.argmin((py - cy) ** 2 + (px - cx) ** 2, axis=1)
    return np.array(scores)[nearest].reshape(h, w)


def _real_window_score(patch):
    try:
        return aliasing_score(FeatureTensor(patch), QUARTER, mode="per_channel_mean")
    except UndefinedRatioError:
        return 0.0


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 19),
    st.integers(1, 19),
    st.integers(1, 19),
    st.integers(1, 8),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_patch_map_fill_matches_brute_force(h, w, window, stride, probe, seed):
    # even strides put pixels halfway between two centers (ties), and a
    # stride that does not divide h - window or w - window adds the clamped
    # last window; with `probe` each window scores its own top-left pixel
    # id, so every center is distinguishable and a wrong pick shows
    window = min(window, h, w)
    data = np.random.default_rng(seed).standard_normal((2, h, w))
    score_of = _real_window_score
    if probe:
        data[0] = np.arange(h * w).reshape(h, w)
        score_of = lambda patch: float(patch[0, 0, 0])  # noqa: E731
    expected = _brute_force_fill(data, window, stride, score_of)
    with pytest.MonkeyPatch.context() as mp:
        if probe:
            mp.setattr(analysis, "aliasing_score", lambda patch, cutoff, mode: score_of(patch.data))
        got = patch_aliasing_map(FeatureTensor(data), window, stride, QUARTER).values
    assert got.shape == (h, w)
    assert np.array_equal(got, expected)


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(["<f4", "<f8"]),
    st.booleans(),
    st.integers(1, 3),
    st.integers(1, 24),
    st.integers(1, 24),
    st.integers(1, 24),
    st.integers(1, 8),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
@example("<f4", False, 2, 8, 12, 8, 3, False, 0)  # H == window: one band
@example("<f8", True, 1, 19, 16, 6, 4, True, 1)  # 2D input, clamped last window
def test_banded_map_equals_in_memory_map(dtype, flat, c, h, w, window, stride, zero, seed):
    # the map from the file, one window-row band at a time, against the map
    # of the whole tensor in memory; `zero` adds zero-power windows
    window = min(window, h, w)
    data = np.random.default_rng(seed).standard_normal((c, h, w)).astype(dtype)
    if zero:
        data[:, : h // 2 + 1, : w // 2 + 1] = 0.0
    if flat:
        data = data[:1]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.npy"
        write_npy(path, data[0] if flat else data)
        banded = patch_aliasing_map(FeatureFile(path), window, stride, QUARTER)
    whole = patch_aliasing_map(FeatureTensor(data), window, stride, QUARTER)
    assert np.array_equal(banded.values, whole.values)
    assert banded.metadata() == whole.metadata()


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 24),
    st.integers(1, 24),
    st.integers(1, 8),
    st.integers(1, 8),
    st.integers(0, 2**32 - 1),
)
def test_banded_map_rejects_nan_anywhere(h, w, window, stride, seed):
    # every row is read and checked, also rows that a stride past the
    # window leaves out of every window
    window = min(window, h, w)
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((2, h, w))
    data[rng.integers(2), rng.integers(h), rng.integers(w)] = np.nan
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.npy"
        write_npy(path, data)
        with pytest.raises(ValidationError, match="feature tensor contains NaN/Inf"):
            patch_aliasing_map(FeatureFile(path), window, stride, QUARTER)


@pytest.mark.parametrize("window, stride", [(0, 1), (4, 0), (9, 1)])
def test_banded_map_rejects_bad_windows_as_in_memory(tmp_path, window, stride):
    data = np.ones((2, 8, 8))
    path = tmp_path / "f.npy"
    write_npy(path, data)
    messages = []
    for source in (FeatureFile(path), FeatureTensor(data)):
        with pytest.raises(SizeError) as exc:
            patch_aliasing_map(source, window, stride, QUARTER)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


def test_feature_file_rows_read_each_channel_band(tmp_path):
    data = np.arange(3 * 7 * 5, dtype="<f4").reshape(3, 7, 5)
    path = tmp_path / "f.npy"
    write_npy(path, data)
    f = FeatureFile(path)
    assert (f.channels, f.height, f.width, f.dtype) == (3, 7, 5, np.dtype("<f4"))
    for y0, y1 in [(0, 7), (2, 5), (6, 7)]:
        band = f.rows(y0, y1)
        assert band.dtype == data.dtype
        assert np.array_equal(band, data[:, y0:y1])
        assert np.array_equal(band, FeatureTensor(data).rows(y0, y1))


# --- pixel cross entropy


def test_ce_one_hot_correct_is_zero():
    gt = LabelMask(np.array([[0, 1], [1, 0]], dtype=np.uint8))
    probs = np.zeros((2, 2, 2))
    for y in range(2):
        for x in range(2):
            probs[gt.data[y, x], y, x] = 1.0
    ce = pixel_cross_entropy(FeatureTensor(probs), gt)
    assert np.all(ce == 0.0)


def test_ce_uniform_is_log_k():
    k = 4
    gt = LabelMask(np.zeros((3, 3), dtype=np.uint8))
    probs = FeatureTensor(np.full((k, 3, 3), 1.0 / k))
    ce = pixel_cross_entropy(probs, gt)
    assert np.abs(ce - np.log(k)).max() < 1e-12


def test_ce_mixed_two_class():
    gt = LabelMask(np.array([[0, 1], [1, 0]], dtype=np.uint8))
    p1 = np.array([[0.25, 0.9], [0.5, 0.1]])
    probs = FeatureTensor(np.stack([1.0 - p1, p1]))
    ce = pixel_cross_entropy(probs, gt)
    expected = -np.log(np.array([[0.75, 0.9], [0.5, 0.9]]))
    assert np.abs(ce - expected).max() < 1e-12


def test_ce_zero_probability_is_clamped():
    gt = LabelMask(np.array([[0, 1]], dtype=np.uint8))
    probs = FeatureTensor(np.array([[[0.0, 0.0]], [[1.0, 1.0]]]))
    ce = pixel_cross_entropy(probs, gt)
    assert ce[0, 0] == pytest.approx(-np.log(np.finfo(np.float64).tiny), abs=1e-12)
    assert ce[0, 1] == 0.0


def test_ce_ignored_pixels_are_nan():
    gt = LabelMask(np.array([[0, 255]], dtype=np.uint8), ignore_value=255)
    probs = FeatureTensor(np.full((2, 1, 2), 0.5))
    ce = pixel_cross_entropy(probs, gt)
    assert not np.isnan(ce[0, 0])
    assert np.isnan(ce[0, 1])


def test_ce_rejects_non_simplex():
    gt = LabelMask(np.zeros((2, 2), dtype=np.uint8))
    probs = FeatureTensor(np.full((2, 2, 2), 0.7))
    with pytest.raises(ValidationError):
        pixel_cross_entropy(probs, gt)


def test_ce_shape_mismatch():
    gt = LabelMask(np.zeros((3, 3), dtype=np.uint8))
    probs = FeatureTensor(np.full((2, 2, 2), 0.5))
    with pytest.raises(ShapeError):
        pixel_cross_entropy(probs, gt)


# --- binned curves


def test_bin_single_bin_collects_everything():
    score = uniform_score_map(np.full((4, 4), 0.31))
    value = np.ones((4, 4))
    mask = BinaryMask(np.ones((4, 4), dtype=bool))
    curve = bin_by_score(score, value, mask, n_bins=10)
    assert curve.counts.sum() == 16
    assert curve.counts[3] == 16  # 0.31 falls in [0.3, 0.4)
    assert curve.means[3] == 1.0
    assert all(np.isnan(m) for i, m in enumerate(curve.means) if i != 3)


def test_bin_means_track_bin_centers():
    rng = np.random.default_rng(5)
    scores = rng.uniform(0.0, 1.0, size=(50, 50))
    curve = bin_by_score(
        uniform_score_map(scores),
        scores,
        BinaryMask(np.ones((50, 50), dtype=bool)),
        n_bins=5,
    )
    centers = (curve.edges[:-1] + curve.edges[1:]) / 2
    assert np.abs(curve.means - centers).max() < 0.05
    assert curve.counts.sum() == 2500


def test_bin_empty_mask():
    score = uniform_score_map(np.zeros((3, 3)))
    curve = bin_by_score(score, np.ones((3, 3)), BinaryMask(np.zeros((3, 3), bool)), 4)
    assert curve.counts.sum() == 0
    assert all(np.isnan(m) for m in curve.means)


def test_bin_score_one_lands_in_last_bin():
    score = uniform_score_map(np.ones((2, 2)))
    curve = bin_by_score(score, np.ones((2, 2)), BinaryMask(np.ones((2, 2), bool)), 4)
    assert curve.counts[-1] == 4


def test_bin_rows_serializable():
    score = uniform_score_map(np.full((2, 2), 0.5))
    curve = bin_by_score(score, np.ones((2, 2)), BinaryMask(np.ones((2, 2), bool)), 2)
    rows = curve.rows()
    assert rows[0]["count"] == 0 and rows[0]["mean"] is None
    assert rows[1]["count"] == 4 and rows[1]["mean"] == 1.0
    json.dumps(rows)  # round-trips through JSON


# --- error type distribution


def shifted_square_masks():
    gt = np.zeros((8, 8), dtype=np.uint8)
    gt[2:6, 2:6] = 1
    pred = np.zeros((8, 8), dtype=np.uint8)
    pred[2:6, 3:7] = 1
    return LabelMask(pred, ignore_value=None), LabelMask(gt, ignore_value=None)


def test_distribution_perfect_prediction_only_displacement():
    _, gt = shifted_square_masks()
    score = uniform_score_map(np.full((8, 8), 0.4))
    curve = error_type_distribution(class_band_pairs(gt, gt, 1), score, d=1, n_bins=4)
    assert curve.type_counts["false_response"].sum() == 0
    assert curve.type_counts["merging"].sum() == 0
    assert curve.type_counts["displacement"].sum() > 0


def test_distribution_empty_prediction_all_merging():
    _, gt = shifted_square_masks()
    pred = LabelMask(np.zeros((8, 8), dtype=np.uint8), ignore_value=None)
    score = uniform_score_map(np.full((8, 8), 0.1))
    curve = error_type_distribution(class_band_pairs(pred, gt, 1), score, d=1, n_bins=4)
    # class 0 covers everything in pred, so only the class-1 bands count
    g_d = boundary_band(BinaryMask(gt.data == 1), 1).band.count()
    assert curve.type_counts["merging"].sum() + curve.type_counts[
        "displacement"
    ].sum() + curve.type_counts["false_response"].sum() == curve.counts.sum()
    assert curve.counts.sum() >= g_d


def test_distribution_two_tone_score_counts_match_oracle():
    pred, gt = shifted_square_masks()
    values = np.zeros((8, 8))
    values[:, 4:] = 0.9  # right half in the high bin
    score = uniform_score_map(values)
    curve = error_type_distribution(class_band_pairs(pred, gt, 1), score, d=1, n_bins=2)
    # oracle: merge per-class tags, lowest class id wins
    merged = np.zeros((8, 8), dtype=int)
    for c in (0, 1):
        p = pred.data == c
        g = gt.data == c
        p_d = oracles.band_pixels(p, 1)
        g_d = oracles.band_pixels(g, 1)
        tags = np.zeros((8, 8), dtype=int)
        tags[p_d & ~g_d] = 1
        tags[g_d & ~p_d] = 2
        tags[(p_d & g_d) & ~(p_d & p & g_d & g)] = 3
        merged = np.where(merged == 0, tags, merged)
    for i, name in ((1, "false_response"), (2, "merging"), (3, "displacement")):
        assert curve.type_counts[name][0] == ((merged == i) & (values < 0.5)).sum()
        assert curve.type_counts[name][1] == ((merged == i) & (values >= 0.5)).sum()


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 9),
    st.integers(1, 21),
    st.integers(1, 4),
    st.integers(1, 3),
    st.integers(2, 6),
    st.integers(0, 2**32 - 1),
)
def test_distribution_matches_per_pixel_merge(h, w, n_classes, d, n_bins, seed):
    # widths that are not a multiple of 8 leave padding bits in the packed rows
    rng = np.random.default_rng(seed)
    labels = [0, 1, 2, 3][:n_classes] + [255]
    gt = LabelMask(rng.choice(labels, (h, w)).astype(np.uint8))
    pred = LabelMask(rng.choice(labels, (h, w)).astype(np.uint8))
    values = rng.uniform(0.0, 1.0, (h, w))
    curve = error_type_distribution(
        class_band_pairs(pred, gt, d), uniform_score_map(values), d=d, n_bins=n_bins
    )
    merged = np.zeros((h, w), dtype=int)  # lowest class id claims a pixel first
    for c in range(n_classes):
        p, g = pred.data == c, gt.data == c
        if not (p.any() or g.any()):
            continue
        p_d, g_d = oracles.band_pixels(p, d), oracles.band_pixels(g, d)
        tags = np.zeros((h, w), dtype=int)
        tags[p_d & ~g_d] = 1
        tags[g_d & ~p_d] = 2
        tags[(p_d & g_d) & ~(p & g)] = 3
        merged = np.where(merged == 0, tags, merged)
    bins = np.minimum((values * n_bins).astype(int), n_bins - 1)
    for tag, name in ((1, "false_response"), (2, "merging"), (3, "displacement")):
        want = np.bincount(bins[merged == tag], minlength=n_bins)
        assert curve.type_counts[name].tolist() == want.tolist()
    want = np.bincount(bins[merged != 0], minlength=n_bins)
    assert curve.counts.tolist() == want.tolist()


@pytest.mark.parametrize("block", [1, 20, 21, 50, 1 << 16])
def test_binning_in_row_blocks_counts_the_same(block):
    # blocks of 1, 1, 1, 2 and all 9 rows of 21 pixels
    rng = np.random.default_rng(block)
    scores = rng.uniform(0.0, 1.0, (9, 21))
    scores[0, :3] = [0.0, 0.4, 1.0]  # bin edges
    select = rng.random((9, 21)) < 0.5
    masks = {"select": BinaryMask(select), "rest": BinaryMask(~select)}
    got = analysis._count_by_bin(uniform_score_map(scores), masks, 5, block)
    for name, mask in masks.items():
        want = np.bincount(analysis._bin_index(scores[mask.bits], 5), minlength=5)
        assert np.array_equal(got[name], want)


@pytest.mark.parametrize("n_bins", [2, 5, 20])
def test_bin_index_in_place_is_the_out_of_place_index(n_bins):
    # the product is floored and the indexes clipped in place: the same
    # indexes as the expression with a copy per step, and the scores unchanged
    scores = np.random.default_rng(n_bins).uniform(0.0, 1.0, 1000)
    scores[:6] = [0.0, 1.0, 0.5, np.nextafter(1.0, 0.0), 1 / n_bins, 5e-324]
    kept = scores.copy()
    want = np.clip(np.floor(scores * n_bins).astype(np.int64), 0, n_bins - 1)
    got = analysis._bin_index(scores, n_bins)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.array_equal(scores, kept)


def _blocks_of(k):
    """`row_blocks` cut into blocks of k rows (all rows for k = None)."""
    def blocks(shape, block=0):
        h = shape[-2]
        step = k or max(h, 1)
        return [slice(y, min(y + step, h)) for y in range(0, h, step)]
    return blocks


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 9),
    st.integers(1, 21),
    st.integers(2, 4),
    st.integers(1, 2),
    st.integers(2, 8),
    st.sampled_from([1, 2, None]),
    st.sampled_from(["<f4", "<f8"]),
    st.sampled_from(["<f4", "<f8"]),
    st.integers(0, 2**32 - 1),
)
def test_row_block_analyze_matches_whole_array_formulas(
    h, w, n_classes, d, n_bins, rows, score_dtype, probs_dtype, seed
):
    # `analyze --score --probs --pred --gt` reads the map, the probabilities
    # and the masks in blocks of 1 row, 2 rows or all rows; its report must
    # give the counts, means and map mean of the whole-array formulas bit
    # for bit.  Class n_classes - 1 is present only in pred, 255 pixels
    # are ignored (NaN cross-entropy), and scores drawn from a short range
    # leave bins empty.
    rng = np.random.default_rng(seed)
    gt = rng.choice([*range(n_classes - 1), 255], (h, w)).astype(np.uint8)
    pred = rng.choice([*range(n_classes), 255], (h, w)).astype(np.uint8)
    pred[0, 0] = n_classes - 1
    lo = rng.uniform(0.0, 1.0)
    scores = rng.uniform(lo, min(1.0, lo + rng.choice([0.1, 1.0])), (h, w)).astype(score_dtype)
    probs = rng.dirichlet(np.ones(n_classes), (h, w)).transpose(2, 0, 1).astype(probs_dtype)
    probs[:, rng.random((h, w)) < 0.2] = 0.0  # p(true class) = 0 on ignored and scored pixels
    probs[0][probs.sum(axis=0) == 0] = 1.0

    # the whole-array formulas, on arrays in memory
    values = scores.astype(np.float64)
    score_map = uniform_score_map(values)
    gt_mask, pred_mask = LabelMask(gt), LabelMask(pred)
    ce = pixel_cross_entropy(FeatureTensor(probs), gt_mask)
    union = np.zeros((h, w), dtype=bool)
    for c in gt_mask.present_classes():
        union |= oracles.band_pixels(gt == c, d)
    curve = bin_by_score(score_map, ce, BinaryMask(union), n_bins)
    select = union & ~np.isnan(ce)
    idx = analysis._bin_index(values[select], n_bins)
    sums = np.bincount(idx, weights=ce[select], minlength=n_bins)
    means = np.where(curve.counts > 0, sums / np.maximum(curve.counts, 1), np.nan)
    assert np.array_equal(curve.means, means, equal_nan=True)
    dist = error_type_distribution(class_band_pairs(pred_mask, gt_mask, d), score_map, d, n_bins)

    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, arr in (("score", scores), ("probs", probs), ("pred", pred), ("gt", gt)):
            paths[name] = Path(tmp, f"{name}.npy")
            write_npy(paths[name], arr)
        argv = ["analyze", *(a for name in paths for a in (f"--{name}", str(paths[name]))),
                "--bins", str(n_bins), "--band-width", str(d)]
        out = io.StringIO()
        with contextlib.ExitStack() as stack:
            for module in (analysis, arrays):
                stack.enter_context(mock.patch.object(module, "row_blocks", _blocks_of(rows)))
            stack.enter_context(contextlib.redirect_stdout(out))
            assert main(argv) == 0
    result = json.loads(out.getvalue())["result"]
    assert result["score_map"]["mean"] == float(values.mean())
    assert result["curves"]["boundary_cross_entropy"] == curve.rows()
    assert result["curves"]["error_type_distribution"] == dist.rows()


def test_distribution_conservation():
    pred, gt = shifted_square_masks()
    score = uniform_score_map(np.random.default_rng(3).uniform(0, 1, (8, 8)))
    curve = error_type_distribution(class_band_pairs(pred, gt, 2), score, d=2, n_bins=5)
    total_tagged = sum(c.sum() for c in curve.type_counts.values())
    assert curve.counts.sum() == total_tagged


def test_distribution_deterministic():
    pred, gt = shifted_square_masks()
    score = uniform_score_map(np.random.default_rng(4).uniform(0, 1, (8, 8)))
    a = error_type_distribution(class_band_pairs(pred, gt, 1), score, d=1, n_bins=6)
    b = error_type_distribution(class_band_pairs(pred, gt, 1), score, d=1, n_bins=6)
    assert json.dumps(a.rows()) == json.dumps(b.rows())


def test_distribution_fully_ignored_masks_count_nothing():
    ignored = LabelMask(np.full((6, 6), 255, dtype=np.uint8))
    score = uniform_score_map(np.full((6, 6), 0.3))
    curve = error_type_distribution(class_band_pairs(ignored, ignored, 1), score, d=1, n_bins=4)
    assert curve.counts.tolist() == [0, 0, 0, 0]
    assert all(c.tolist() == [0, 0, 0, 0] for c in curve.type_counts.values())
