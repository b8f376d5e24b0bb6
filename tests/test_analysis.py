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
    WindowGrid,
    _nearest,
    _window_starts,
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
    # every pixel its own center: rows and mean keep the array's bits
    values = np.asarray(values, dtype=np.float64)
    return WindowGrid(values, np.arange(values.shape[0]), np.arange(values.shape[1]))


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


@pytest.mark.parametrize("window, stride", [(8, 4), (8, 8), (8, 12), (4, 10)])
def test_banded_map_reads_each_row_once(tmp_path, monkeypatch, window, stride):
    # 37 rows: the last window is clamped to overlap the one before it,
    # and a stride past the window leaves rows in no window (one gap wider
    # than the window at w4/s10), which are still read, once
    c, h, w = 3, 37, 20
    data = np.random.default_rng(window * stride).standard_normal((c, h, w))
    path = tmp_path / "f.npy"
    write_npy(path, data)
    reads = []
    real = arrays.NpyFile.read

    def counting(self, fh, out, at):
        channel, y0 = divmod(at // w, h)
        reads.extend((channel, y) for y in range(y0, y0 + out.size // w))
        assert y0 + out.size // w <= h  # one read never spans two channels
        return real(self, fh, out, at)

    monkeypatch.setattr(arrays.NpyFile, "read", counting)
    banded = patch_aliasing_map(FeatureFile(path), window, stride, QUARTER)
    assert sorted(reads) == [(ch, y) for ch in range(c) for y in range(h)]
    whole = patch_aliasing_map(FeatureTensor(data), window, stride, QUARTER)
    assert np.array_equal(banded.values, whole.values)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 600),
    st.integers(1, 600),
    st.integers(1, 48),
    st.integers(1, 48),
    st.integers(0, 2**32 - 1),
)
@example(512, 384, 32, 16, 0)  # four leaves of 49152 values
@example(257, 511, 7, 5, 1)  # 131327 values: four leaves that start mid-row
@example(1, 70001, 1, 1, 2)  # one row wider than a leaf
@example(3, 5, 3, 2, 3)  # fewer values than a leaf
def test_window_grid_rows_and_mean_match_the_expanded_map(h, w, window, stride, seed):
    # the map kept as its window grid gives the rows of the whole (H, W)
    # map it spreads to, and np.mean's bits for its mean, also for maps of
    # several leaves and sizes that are not a multiple of 8
    window = min(window, h, w)
    ys, xs = _window_starts(h, window, stride), _window_starts(w, window, stride)
    rng = np.random.default_rng(seed)
    grid = rng.uniform(0.0, 1.0, (len(ys), len(xs)))
    ny, nx = _nearest(ys, window, h), _nearest(xs, window, w)
    score = WindowGrid(grid, ny, nx)
    # C order, as the whole map was built and np.mean summed it
    expanded = grid[ny[:, None], nx[None, :]]
    assert score.shape == (h, w)
    assert np.array_equal(score.values, expanded)
    for y0, y1 in [(0, h), *np.sort(rng.integers(0, h + 1, (3, 2)), axis=1)]:
        assert np.array_equal(score.rows(y0, y1), expanded[y0:y1])
    assert score.mean() == np.mean(expanded)


def test_features_map_is_kept_as_its_window_grid(monkeypatch):
    # `analyze --features` bins and averages the map without expanding it whole
    f = FeatureTensor(np.random.default_rng(4).standard_normal((2, 40, 72)))
    score = patch_aliasing_map(f, 8, 12, QUARTER)
    assert isinstance(score, WindowGrid)
    assert score.scores.shape == (4, 7)  # rows 8-11 and 20-23 in no window
    assert score.mean() == np.mean(score.values)

    def whole(self):
        raise AssertionError("the whole map was expanded")

    monkeypatch.setattr(WindowGrid, "values", property(whole))
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: Path(tmp) / f"{name}.npy" for name in ("feat", "probs", "gt")}
        write_npy(paths["feat"], f.data)
        write_npy(paths["probs"], np.full((2, 40, 72), 0.5))
        gt = np.zeros((40, 72), np.uint8)
        gt[:, 30:60] = 1
        write_npy(paths["gt"], gt)
        argv = ["analyze", "--features", paths["feat"], "--probs", paths["probs"],
                "--pred", paths["gt"], "--gt", paths["gt"], "--cutoff", "0.25",
                "--window", "8", "--stride-px", "12"]
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main([str(a) for a in argv]) == 0
    assert json.loads(out.getvalue())["result"]["score_map"]["mean"] == score.mean()


def test_banded_map_reports_a_band_before_reading_the_next(tmp_path):
    # a band's windows are scored before the next band's new rows are read,
    # so an overflow in the first band is reported before a NaN in the second
    data = np.ones((2, 24, 8))
    data[:, :8] = 1.7e308 * np.random.default_rng(0).choice([-1.0, 1.0], (2, 8, 8))
    data[0, 12, 3] = np.nan
    path = tmp_path / "f.npy"
    write_npy(path, data)
    with pytest.raises(ValidationError, match="spectral power overflows float64"):
        patch_aliasing_map(FeatureFile(path), 8, 8, QUARTER)


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
    curve = error_type_distribution(class_band_pairs(gt, gt, 1), score, n_bins=4)
    assert curve.type_counts["false_response"].sum() == 0
    assert curve.type_counts["merging"].sum() == 0
    assert curve.type_counts["displacement"].sum() > 0


def test_distribution_empty_prediction_all_merging():
    _, gt = shifted_square_masks()
    pred = LabelMask(np.zeros((8, 8), dtype=np.uint8), ignore_value=None)
    score = uniform_score_map(np.full((8, 8), 0.1))
    curve = error_type_distribution(class_band_pairs(pred, gt, 1), score, n_bins=4)
    # class 0 covers everything in pred, so only the class-1 bands count
    g_d = boundary_band(BinaryMask(gt.data == 1), 1).rows(0, 8).sum()
    assert curve.type_counts["merging"].sum() + curve.type_counts[
        "displacement"
    ].sum() + curve.type_counts["false_response"].sum() == curve.counts.sum()
    assert curve.counts.sum() >= g_d


def test_distribution_two_tone_score_counts_match_oracle():
    pred, gt = shifted_square_masks()
    values = np.zeros((8, 8))
    values[:, 4:] = 0.9  # right half in the high bin
    score = uniform_score_map(values)
    curve = error_type_distribution(class_band_pairs(pred, gt, 1), score, n_bins=2)
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
        class_band_pairs(pred, gt, d), uniform_score_map(values), n_bins=n_bins
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
    dist = error_type_distribution(class_band_pairs(pred_mask, gt_mask, d), score_map, n_bins)

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
    curve = error_type_distribution(class_band_pairs(pred, gt, 2), score, n_bins=5)
    total_tagged = sum(c.sum() for c in curve.type_counts.values())
    assert curve.counts.sum() == total_tagged


def test_distribution_deterministic():
    pred, gt = shifted_square_masks()
    score = uniform_score_map(np.random.default_rng(4).uniform(0, 1, (8, 8)))
    a = error_type_distribution(class_band_pairs(pred, gt, 1), score, n_bins=6)
    b = error_type_distribution(class_band_pairs(pred, gt, 1), score, n_bins=6)
    assert json.dumps(a.rows()) == json.dumps(b.rows())


def test_distribution_fully_ignored_masks_count_nothing():
    ignored = LabelMask(np.full((6, 6), 255, dtype=np.uint8))
    score = uniform_score_map(np.full((6, 6), 0.3))
    curve = error_type_distribution(class_band_pairs(ignored, ignored, 1), score, n_bins=4)
    assert curve.counts.tolist() == [0, 0, 0, 0]
    assert all(c.tolist() == [0, 0, 0, 0] for c in curve.type_counts.values())


# --- planted truth: analyze on features whose window scores are known
#
# The features are 96x96 tiles.  A tile sums a cosine above the 0.25
# cutoff (amplitude a, along rows) and one below it (amplitude b, along
# columns), both a whole number of cycles per window, so every window
# inside a tile holds exactly the two and scores a^2 / (a^2 + b^2).  Every
# class boundary and its band lie where pixels take their score from a
# window inside one tile, so the curves follow from the oracle's bands.

TILE = 96
TILE_SCORES = np.array([[0.1, 0.2 + 2e-6], [0.5, 0.8 - 2e-6]])  # one bin of 5 each


def _window_tiles(extent: int, window: int, stride: int) -> np.ndarray:
    """The tile of the window each pixel takes its score from, -1 where that
    window crosses a tile edge.  Windows start every `stride` pixels, the
    last flush with the far edge, and a pixel takes the window whose center
    (start + window // 2) is nearest, the lower one on a tie."""
    starts = list(range(0, extent - window + 1, stride))
    if starts[-1] != extent - window:
        starts.append(extent - window)
    starts = np.array(starts)
    nearest = starts[np.argmin(np.abs(np.arange(extent)[:, None] - starts - window // 2), axis=1)]
    return np.where(nearest // TILE == (nearest + window - 1) // TILE, nearest // TILE, -1)


def _clean_spans(extent: int, window: int, stride: int) -> list[tuple[int, int]]:
    """Per tile, the pixels [lo, hi) that take their score from a window
    inside it; each is one run, as the nearest window moves monotonically."""
    tiles = _window_tiles(extent, window, stride)
    spans = []
    for t in range(extent // TILE):
        run = np.flatnonzero(tiles == t)
        assert np.array_equal(run, np.arange(run[0], run[-1] + 1))
        spans.append((int(run[0]), int(run[-1]) + 1))
    return spans


def _planted_features(window: int, channels: int) -> np.ndarray:
    high, low = round(0.4 * window), round(0.1 * window)
    assert high / window > 0.25 >= low / window and 2 * high != window
    a = np.kron(np.sqrt(TILE_SCORES), np.ones((TILE, TILE)))
    b = np.kron(np.sqrt(1.0 - TILE_SCORES), np.ones((TILE, TILE)))
    y, x = np.indices(a.shape)
    return np.stack([
        a * np.cos(2 * np.pi * high * (y + c) / window) + b * np.cos(2 * np.pi * low * (x + 3 * c) / window)
        for c in range(channels)
    ])


# per tile, (gt, pred) rectangles (class, y0, y1, x0, x1) around the center
# of its clean region, drawn in order
PLANTED_OBJECTS = {
    (0, 0): ([(1, -10, 10, -10, 10)], [(1, -8, 12, -7, 13)]),
    (0, 1): ([(2, -8, 8, -12, 12)], [(2, -8, 8, -12, 4), (1, -8, 8, 4, 12)]),
    (1, 0): ([(1, -12, -4, -12, -4)], [(3, 2, 12, 0, 12)]),
    (1, 1): ([(1, -10, 10, -10, 0), (2, -10, 10, 0, 10)],
             [(1, -10, 10, -10, 2), (2, -10, 11, 2, 10)]),
}
REACH = 13  # every object lies within this distance of its center


def _oracle_error_sets(pred: np.ndarray, gt: np.ndarray, d: int) -> list[np.ndarray]:
    """false response, merging and displacement pixels from the brute-force
    bands, merged across classes as `error_type_masks` documents: the lowest
    class id claims a pixel."""
    merged = [np.zeros(gt.shape, dtype=bool) for _ in range(3)]
    claimed = np.zeros(gt.shape, dtype=bool)
    for c in sorted(set(np.unique(pred)) | set(np.unique(gt))):
        p, g = pred == c, gt == c
        p_d, g_d = oracles.band_pixels(p, d), oracles.band_pixels(g, d)
        for tagged, pixels in zip(merged, (p_d & ~g_d, g_d & ~p_d, p_d & g_d & ~(p & g))):
            pixels &= ~claimed
            tagged |= pixels
            claimed |= pixels
    return merged


def _planted_masks(spans: list[tuple[int, int]], d: int):
    """(pred, gt) label masks and, per tile, the crop that holds all of its
    boundaries and bands with a margin of 2d + 2."""
    shape = (len(spans) * TILE,) * 2
    pred, gt = np.zeros(shape, np.uint8), np.zeros(shape, np.uint8)
    crops = {}
    for (ty, tx), objects in PLANTED_OBJECTS.items():
        cy, cx = sum(spans[ty]) // 2, sum(spans[tx]) // 2
        r = REACH + 2 * d + 2
        crop = (slice(cy - r, cy + r), slice(cx - r, cx + r))
        assert spans[ty][0] <= cy - r and cy + r <= spans[ty][1]
        assert spans[tx][0] <= cx - r and cx + r <= spans[tx][1]
        crops[ty, tx] = crop
        for mask, rects in zip((gt, pred), objects):
            for c, y0, y1, x0, x1 in rects:
                assert max(map(abs, (y0, y1, x0, x1))) <= REACH
                mask[cy + y0 : cy + y1, cx + x0 : cx + x1] = c
    return pred, gt, crops


def _run_analyze(tmp_path, arrays_by_flag: dict, *args) -> dict:
    argv = ["analyze", "--cutoff", "0.25", *map(str, args)]
    for flag, arr in arrays_by_flag.items():
        path = tmp_path / f"{flag}.npy"
        write_npy(path, arr)
        argv += [f"--{flag}", str(path)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return json.loads(out.getvalue())["result"]["curves"]


@pytest.mark.parametrize("window, stride, dtype, channels, d", [
    (32, 8, "<f8", 3, 3),
    (31, 31, "<f4", 1, 2),
    (32, 32, "<f4", 3, 2),
    (31, 5, "<f8", 1, 3),
])
def test_planted_error_type_counts(tmp_path, window, stride, dtype, channels, d):
    n_bins = 5
    edges = np.linspace(0.0, 1.0, n_bins + 1)
    assert np.abs(TILE_SCORES[..., None] - edges).min() >= 1e-6
    spans = _clean_spans(2 * TILE, window, stride)
    pred, gt, crops = _planted_masks(spans, d)
    # pred and gt agree outside the crops, and there every band is the
    # image border's, the same in both and of class 0 in both: no errors
    outside = np.ones(gt.shape, dtype=bool)
    for crop in crops.values():
        outside[crop] = False
    assert np.array_equal(pred[outside], gt[outside])
    expected = {name: np.zeros(n_bins, dtype=int) for name in ("false_response", "merging", "displacement")}
    for tile, crop in crops.items():
        # inside a crop, its edge adds class 0 contour pixels with bands the
        # same in pred and gt, 2d + 2 away from any object: the error sets
        # are those of the whole image
        errors = _oracle_error_sets(pred[crop], gt[crop], d)
        assert not any(e[:d + 1].any() or e[-d - 1:].any() or e[:, :d + 1].any() or e[:, -d - 1:].any()
                       for e in errors)
        for name, tagged in zip(expected, errors):
            expected[name][int(TILE_SCORES[tile] * n_bins)] += int(tagged.sum())
    assert all(counts.sum() > 0 for counts in expected.values())

    features = _planted_features(window, channels).astype(dtype)
    curves = _run_analyze(tmp_path, {"features": features, "pred": pred, "gt": gt},
                          "--window", window, "--stride-px", stride, "--bins", n_bins,
                          "--band-width", d)
    rows = curves["error_type_distribution"]
    for name, counts in expected.items():
        assert [row[f"count_{name}"] for row in rows] == counts.tolist(), name
    assert [row["count"] for row in rows] == sum(expected.values()).tolist()


def test_planted_cross_entropy_means(tmp_path):
    """Dyadic p(true class) per tile: the simplex sums to 1 exactly and
    every pixel of a tile has the same cross-entropy.  gt is ignored outside the clean regions,
    so their edges are class 0 contour and the bands there count, while the
    ignored frame between them, wider than the band, has no cross-entropy."""
    window, stride, d, n_bins = 32, 8, 3, 5
    spans = _clean_spans(2 * TILE, window, stride)
    assert all(b[0] - a[1] > 2 * d for a, b in zip(spans, spans[1:]))
    _, gt, _ = _planted_masks(spans, d)
    p_true = np.array([[0.5, 0.25], [0.125, 0.75]])
    framed = np.full(gt.shape, 255, np.uint8)
    probs = np.empty((3, *gt.shape))  # gt holds classes 0, 1 and 2
    expected_counts = np.zeros(n_bins, dtype=int)
    expected_means = np.full(n_bins, np.nan)
    for ty, tx in np.ndindex(2, 2):
        crop = (slice(*spans[ty]), slice(*spans[tx]))
        framed[crop] = gt[crop]
        bands = np.zeros(gt[crop].shape, dtype=bool)
        for c in np.unique(gt[crop]):
            bands |= oracles.band_pixels(gt[crop] == c, d)
        b = int(TILE_SCORES[ty, tx] * n_bins)
        expected_counts[b] = int(bands.sum())
        # equal values summed one at a time in pixel order, as binning
        # does, round the same in any order
        sums = np.cumsum(np.full(expected_counts[b], -np.log(p_true[ty, tx])))
        expected_means[b] = sums[-1] / expected_counts[b]
    for ty, tx in np.ndindex(2, 2):  # every pixel of a tile, clean or not
        tile = (slice(ty * TILE, (ty + 1) * TILE), slice(tx * TILE, (tx + 1) * TILE))
        true = np.where(framed[tile] == 255, 0, framed[tile])
        probs[(slice(None), *tile)] = (1.0 - p_true[ty, tx]) / 2
        np.put_along_axis(probs[(slice(None), *tile)], true[None], p_true[ty, tx], axis=0)
    assert np.array_equal(probs.sum(axis=0), np.ones(gt.shape))

    curves = _run_analyze(tmp_path, {"features": _planted_features(window, 3), "probs": probs,
                                     "gt": framed},
                          "--window", window, "--stride-px", stride, "--bins", n_bins,
                          "--band-width", d)
    rows = curves["boundary_cross_entropy"]
    assert [row["count"] for row in rows] == expected_counts.tolist()
    means = np.array([np.nan if row["mean"] is None else row["mean"] for row in rows])
    assert np.all(np.isnan(means) == np.isnan(expected_means))
    assert np.nanmax(np.abs(means - expected_means)) <= 1e-15
