import time
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alias_scope import segmetrics
from alias_scope.arrays import BinaryMask, LabelMask, class_mask
from alias_scope.errors import ShapeError, ValidationError
from alias_scope.segmetrics import (
    TAG_DISPLACEMENT,
    TAG_FALSE_RESPONSE,
    TAG_MERGING,
    boundary_acc,
    boundary_band,
    boundary_iou,
    class_band_pairs,
    classify_boundary_pixels,
    contour,
    default_band_width,
    error_metrics,
    miou,
    multiclass_boundary,
    multiclass_errors,
    pack_rows,
    unpack_rows,
)

import oracles


def bm(bits) -> BinaryMask:
    return BinaryMask(np.asarray(bits, dtype=bool))


def random_mask(rng, h, w, density=None) -> np.ndarray:
    p = rng.uniform(0.2, 0.8) if density is None else density
    return rng.random((h, w)) < p


# row widths on either side of the 64-bit word boundaries of packed rows
WORD_EDGE_WIDTHS = [63, 64, 65, 127, 128, 129]


def shifted_square_pair():
    gt = np.zeros((8, 8), dtype=bool)
    gt[2:6, 2:6] = True
    pred = np.zeros((8, 8), dtype=bool)
    pred[2:6, 3:7] = True
    return pred, gt


# --- contour


def test_contour_full_mask_is_border():
    edge = contour(bm(np.ones((4, 4)))).bits
    expected = np.ones((4, 4), dtype=bool)
    expected[1:-1, 1:-1] = False
    assert np.array_equal(edge, expected)
    assert edge.sum() == 12


def test_contour_single_pixel():
    bits = np.zeros((5, 5), dtype=bool)
    bits[2, 2] = True
    assert np.array_equal(contour(bm(bits)).bits, bits)


def test_contour_empty():
    assert not contour(bm(np.zeros((3, 3)))).bits.any()


@settings(max_examples=60)
@given(
    st.integers(1, 7),
    st.one_of(st.integers(1, 7), st.sampled_from(WORD_EDGE_WIDTHS)),
    st.integers(0, 2**32 - 1),
)
def test_contour_matches_oracle(h, w, seed):
    mask = random_mask(np.random.default_rng(seed), h, w)
    assert np.array_equal(contour(bm(mask)).bits, oracles.contour_pixels(mask))


# --- packed rows


@settings(max_examples=60)
@given(
    st.integers(0, 4),
    st.one_of(st.integers(0, 9), st.sampled_from(WORD_EDGE_WIDTHS)),
    st.integers(0, 2**32 - 1),
)
def test_pack_rows_round_trip_with_zero_padding(h, w, seed):
    bits = random_mask(np.random.default_rng(seed), h, w)
    words = pack_rows(bits)
    assert words.dtype == np.dtype("<u8") and words.shape == (h, -(-w // 64))
    assert np.array_equal(unpack_rows(words, w), bits)
    assert np.bitwise_count(words).sum() == bits.sum()  # padding bits are 0


@pytest.mark.parametrize("dtype", ["|u1", "<u2", "<i4"])
@pytest.mark.parametrize("shape", [(1, 1), (5, 63), (3, 129), (300, 300), (70, 1000)])
def test_pack_class_packs_the_class_mask(dtype, shape):
    # rows packed a block at a time (300 x 300 and 70 x 1000 take several
    # blocks) give the words of the whole bool mask; the ignore value's
    # mask, and that of a label absent from the grid, are empty
    labels = np.random.default_rng(shape[1]).choice([0, 1, 5, 255], shape).astype(dtype)
    for ignore in (None, 255):
        mask = LabelMask(labels, ignore_value=ignore)
        for c in (0, 1, 5, 255, 7):
            packed, bits = segmetrics.pack_class(mask, c), class_mask(mask, c)
            assert packed.shape == shape and packed.words.dtype == np.dtype("<u8")
            assert np.array_equal(packed.words, pack_rows(bits.bits))
            # and its band is the bool mask's
            assert np.array_equal(boundary_band(packed, 2).words, boundary_band(bits, 2).words)


# --- boundary band


def test_band_single_pixel_is_plus_shape():
    bits = np.zeros((5, 5), dtype=bool)
    bits[2, 2] = True
    band = boundary_band(bm(bits), d=1).rows(0, 5)
    expected = np.zeros((5, 5), dtype=bool)
    expected[2, 1:4] = True
    expected[1:4, 2] = True
    assert np.array_equal(band, expected)
    assert band.sum() == 5


def test_band_empty_mask():
    assert not boundary_band(bm(np.zeros((4, 4))), d=3).rows(0, 4).any()


def test_band_square_matches_oracle():
    mask = np.zeros((8, 8), dtype=bool)
    mask[2:6, 2:6] = True
    band = boundary_band(bm(mask), d=2).rows(0, 8)
    assert np.array_equal(band, oracles.band_pixels(mask, 2))


def test_band_contains_contour():
    rng = np.random.default_rng(8)
    mask = random_mask(rng, 6, 6)
    band = boundary_band(bm(mask), d=1).rows(0, 6)
    assert np.all(band[contour(bm(mask)).bits])


@settings(max_examples=40)
@given(st.integers(2, 7), st.integers(2, 7), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_band_monotone_in_d(h, w, d, seed):
    mask = random_mask(np.random.default_rng(seed), h, w)
    narrow = boundary_band(bm(mask), d).rows(0, h)
    wide = boundary_band(bm(mask), d + 1).rows(0, h)
    assert np.all(wide[narrow])


# --- error metrics


def test_perfect_prediction_rates():
    _, gt = shifted_square_pair()
    rates = error_metrics(bm(gt), bm(gt), d=2)
    assert rates.ferr == 0.0
    assert rates.merr == 0.0
    # the displacement rate of a perfect prediction is not 0 by design:
    # its numerator only counts band pixels inside the mask
    assert rates.derr is not None and 0.0 < rates.derr < 1.0


def test_empty_prediction_rates():
    _, gt = shifted_square_pair()
    empty = bm(np.zeros_like(gt))
    rates = error_metrics(empty, bm(gt), d=2)
    assert rates.ferr is None
    assert rates.merr == 1.0
    assert rates.derr is None


def test_shifted_square_matches_oracle():
    pred, gt = shifted_square_pair()
    rates = error_metrics(bm(pred), bm(gt), d=2)
    expected = oracles.boundary_error_rates(pred, gt, 2)
    assert (rates.ferr, rates.merr, rates.derr) == expected


def test_error_metrics_shape_mismatch():
    with pytest.raises(ShapeError):
        error_metrics(bm(np.zeros((3, 3))), bm(np.zeros((4, 4))), d=1)


@settings(max_examples=60)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 2), st.integers(0, 2**32 - 1))
def test_ferr_merr_mirror_symmetry(h, w, d, seed):
    rng = np.random.default_rng(seed)
    a = random_mask(rng, h, w)
    b = random_mask(rng, h, w)
    assert error_metrics(bm(a), bm(b), d).ferr == error_metrics(bm(b), bm(a), d).merr


# --- pixel tags


def test_tags_perfect_prediction():
    _, gt = shifted_square_pair()
    tags = classify_boundary_pixels(bm(gt), bm(gt), d=2)
    assert not (tags == TAG_FALSE_RESPONSE).any()
    assert not (tags == TAG_MERGING).any()


def test_tags_empty_prediction():
    _, gt = shifted_square_pair()
    tags = classify_boundary_pixels(bm(np.zeros_like(gt)), bm(gt), d=2)
    g_d = boundary_band(bm(gt), 2).rows(0, gt.shape[0])
    assert np.array_equal(tags == TAG_MERGING, g_d)


def test_tag_counts_equal_rate_numerators():
    pred, gt = shifted_square_pair()
    tags = classify_boundary_pixels(bm(pred), bm(gt), d=2)
    fr, mg, dp = oracles.tag_counts(pred, gt, 2)
    assert (tags == TAG_FALSE_RESPONSE).sum() == fr
    assert (tags == TAG_MERGING).sum() == mg
    assert (tags == TAG_DISPLACEMENT).sum() == dp


@settings(max_examples=60)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 2), st.integers(0, 2**32 - 1))
def test_tags_consistent_with_rates(h, w, d, seed):
    rng = np.random.default_rng(seed)
    pred = random_mask(rng, h, w)
    gt = random_mask(rng, h, w)
    tags = classify_boundary_pixels(bm(pred), bm(gt), d)
    rates = error_metrics(bm(pred), bm(gt), d)
    n_pd = boundary_band(bm(pred), d).rows(0, h).sum()
    n_gd = boundary_band(bm(gt), d).rows(0, h).sum()
    if rates.ferr is not None:
        assert (tags == TAG_FALSE_RESPONSE).sum() / n_pd == rates.ferr
    if rates.merr is not None:
        assert (tags == TAG_MERGING).sum() / n_gd == rates.merr


# --- mIoU


def test_miou_perfect():
    gt = LabelMask(np.array([[0, 1], [1, 2]], dtype=np.uint8))
    assert miou(gt, gt, 3) == 1.0


def test_miou_complement_binary():
    gt = LabelMask(np.array([[0, 1], [1, 0]], dtype=np.uint8))
    pred = LabelMask(np.array([[1, 0], [0, 1]], dtype=np.uint8))
    assert miou(pred, gt, 2) == 0.0


def test_miou_two_class_counting():
    gt = LabelMask(
        np.array(
            [[0, 0, 1, 1], [0, 0, 1, 1], [0, 0, 1, 1], [0, 0, 1, 1]], dtype=np.uint8
        )
    )
    pred = LabelMask(
        np.array(
            [[0, 0, 0, 1], [0, 0, 0, 1], [0, 0, 0, 1], [0, 0, 0, 1]], dtype=np.uint8
        )
    )
    # class 0: inter 8, union 12; class 1: inter 4, union 8
    assert miou(pred, gt, 2) == pytest.approx((8 / 12 + 4 / 8) / 2, abs=1e-12)


def test_miou_rejects_out_of_range_pred_label():
    gt = LabelMask(np.zeros((4, 4), dtype=np.uint8))
    pred = LabelMask(np.full((4, 4), 3, dtype=np.uint8))
    with pytest.raises(ValidationError):
        miou(pred, gt, 2)


def test_miou_ignores_ignore_pixels():
    gt = LabelMask(np.array([[0, 255], [1, 1]], dtype=np.uint8), ignore_value=255)
    pred = LabelMask(np.array([[0, 1], [1, 1]], dtype=np.uint8), ignore_value=255)
    assert miou(pred, gt, 2) == 1.0


# --- boundary IoU / accuracy


def test_boundary_scores_perfect():
    _, gt = shifted_square_pair()
    assert boundary_iou(bm(gt), bm(gt), d=2) == 1.0
    assert boundary_acc(bm(gt), bm(gt), d=2) == 1.0


def test_boundary_iou_disjoint():
    a = np.zeros((16, 16), dtype=bool)
    a[1:3, 1:3] = True
    b = np.zeros((16, 16), dtype=bool)
    b[12:15, 12:15] = True
    assert boundary_iou(bm(a), bm(b), d=1) == 0.0


def test_boundary_scores_match_oracle():
    pred, gt = shifted_square_pair()
    assert boundary_iou(bm(pred), bm(gt), 2) == oracles.boundary_iou_value(pred, gt, 2)
    assert boundary_acc(bm(pred), bm(gt), 2) == oracles.boundary_acc_value(pred, gt, 2)


@settings(max_examples=60)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 2), st.integers(0, 2**32 - 1))
def test_boundary_iou_bounded_and_tight(h, w, d, seed):
    rng = np.random.default_rng(seed)
    pred = random_mask(rng, h, w)
    gt = random_mask(rng, h, w)
    value = boundary_iou(bm(pred), bm(gt), d)
    if value is None:
        return
    assert 0.0 <= value <= 1.0
    p_d = boundary_band(bm(pred), d).rows(0, h)
    g_d = boundary_band(bm(gt), d).rows(0, h)
    if value == 1.0:
        assert np.array_equal(p_d & pred, g_d & gt)


# --- multiclass aggregation


def test_multiclass_perfect():
    labels = np.array([[0, 0, 1], [0, 2, 1], [2, 2, 1]], dtype=np.uint8)
    gt = LabelMask(labels)
    breakdown = multiclass_errors(class_band_pairs(gt, gt, d=1))
    assert breakdown.means()["ferr"] == 0.0
    assert breakdown.means()["merr"] == 0.0
    assert set(breakdown.counts) == {0, 1, 2}


def test_multiclass_skips_undefined():
    gt = LabelMask(np.array([[0, 0], [1, 1]], dtype=np.uint8))
    pred = LabelMask(np.array([[0, 0], [0, 0]], dtype=np.uint8))
    breakdown = multiclass_errors(class_band_pairs(pred, gt, d=1))
    # class 1 has an empty prediction band: its ferr is undefined and the
    # average only covers class 0
    assert breakdown.counts[1].ratios()["ferr"] is None
    assert breakdown.means()["ferr"] == breakdown.counts[0].ratios()["ferr"]


def test_multiclass_single_class_reduces():
    labels = np.zeros((4, 4), dtype=np.uint8)
    labels[1:3, 1:3] = 1
    gt = LabelMask(labels)
    pred = LabelMask(np.roll(labels, 1, axis=1))
    breakdown = multiclass_errors(class_band_pairs(pred, gt, d=1))
    single = error_metrics(
        bm(pred.data == 1), bm(gt.data == 1), d=1
    )
    ratios = breakdown.counts[1].ratios()
    assert (ratios["ferr"], ratios["merr"], ratios["derr"]) == astuple(single)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 7),
    st.integers(1, 11),
    st.integers(1, 4),
    st.integers(1, 2),
    st.integers(0, 2**32 - 1),
)
def test_class_band_pairs_match_single_class_and_oracles(h, w, n_classes, d, seed):
    rng = np.random.default_rng(seed)
    pred = LabelMask(rng.integers(0, n_classes, (h, w)).astype(np.uint8))
    gt = LabelMask(rng.integers(0, n_classes, (h, w)).astype(np.uint8))
    pairs = dict(class_band_pairs(pred, gt, d))
    errors = multiclass_errors(pairs.items())
    boundary = multiclass_boundary(pairs.items())
    assert set(pairs) == set(np.unique(pred.data)) | set(np.unique(gt.data))
    for c, pair in pairs.items():
        p, g = pred.data == c, gt.data == c
        assert pair.counts() == errors.counts[c]
        ratios = pair.counts().ratios()
        rates = (ratios["ferr"], ratios["merr"], ratios["derr"])
        assert rates == astuple(error_metrics(bm(p), bm(g), d))
        assert rates == oracles.boundary_error_rates(p, g, d)
        tags = pair.tags()
        assert np.array_equal(tags, classify_boundary_pixels(bm(p), bm(g), d))
        counts = tuple(int((tags == t).sum()) for t in (1, 2, 3))
        assert counts == oracles.tag_counts(p, g, d)
        biou = boundary.per_class_iou[c]
        assert biou == boundary_iou(bm(p), bm(g), d) == oracles.boundary_iou_value(
            p, g, d
        )
        bacc = boundary.per_class_acc[c]
        assert bacc == boundary_acc(bm(p), bm(g), d) == oracles.boundary_acc_value(
            p, g, d
        )
        baseline = oracles.boundary_error_rates(g, g, d)[2]
        assert ratios["derr_perfect_baseline"] == error_metrics(bm(g), bm(g), d).derr == baseline
        assert errors.counts[c].ratios()["derr_perfect_baseline"] == baseline


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 7),
    st.integers(1, 11),
    st.integers(1, 4),
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
)
def test_band_counts_match_oracle(h, w, n_classes, d, seed):
    # every band ratio is taken from these seven counts, so they are gated
    # exactly, and each ratio against the oracle that computes it directly
    rng = np.random.default_rng(seed)
    pred = LabelMask(rng.integers(0, n_classes, (h, w)).astype(np.uint8))
    gt = LabelMask(rng.integers(0, n_classes, (h, w)).astype(np.uint8))
    for c, pair in class_band_pairs(pred, gt, d):
        p, g = pred.data == c, gt.data == c
        counts = pair.counts()
        assert astuple(counts) == oracles.band_counts(p, g, d)
        ratios = counts.ratios()
        assert (ratios["ferr"], ratios["merr"], ratios["derr"]) == oracles.boundary_error_rates(
            p, g, d
        )
        assert ratios["derr_perfect_baseline"] == oracles.boundary_error_rates(g, g, d)[2]
        assert ratios["biou"] == oracles.boundary_iou_value(p, g, d)
        assert ratios["bacc"] == oracles.boundary_acc_value(p, g, d)


def test_class_band_pairs_builds_each_pair_when_asked(monkeypatch):
    # a pair is built from two class masks packed from the labels
    pairs_built, packs = [], []
    for name, calls in (("band_pair", pairs_built), ("pack_class", packs)):
        real = getattr(segmetrics, name)
        monkeypatch.setattr(
            segmetrics, name, lambda *a, real=real, calls=calls: calls.append(a) or real(*a)
        )
    labels = LabelMask(np.array([[0, 0, 1], [2, 2, 1], [2, 3, 3]], dtype=np.uint8))
    pairs = class_band_pairs(labels, labels, d=1)
    assert pairs_built == [] and packs == []
    assert next(pairs)[0] == 0 and len(pairs_built) == 1 and len(packs) == 2
    assert [c for c, _ in pairs] == [1, 2, 3]
    assert len(pairs_built) == 4 and len(packs) == 8


@pytest.mark.parametrize("block", [1, 3, 64, 1 << 16])
def test_blocked_bincount_matches_bincount(block):
    # miou's counts in blocks of rows (1, 1, 2 and all 40 rows of 25 pixels;
    # blocks are sized in bytes, so <i4 takes 1, 1, 1 and 40 rows) against
    # whole-image bincounts over the pixels neither mask ignores
    rng = np.random.default_rng(block)
    gt, pred = rng.integers(0, 7, (2, 40, 25)).astype(np.uint8)
    gt[rng.random(gt.shape) < 0.2] = 255
    pred[rng.random(pred.shape) < 0.2] = 255
    valid = (gt != 255) & (pred != 255)
    g, p = gt[valid], pred[valid]
    want = [np.bincount(x, minlength=9) for x in (g[g == p], g, p)]
    for dtype in ("|u1", "<i4"):
        masks = LabelMask(pred.astype(dtype)), LabelMask(gt.astype(dtype))
        assert np.array_equal(segmetrics._valid_label_counts(*masks, 9, block), want)


# --- defaults


def test_default_band_width_scaling():
    assert default_band_width(1024, 2048) == 15
    assert default_band_width(2048, 1024) == 15
    assert default_band_width(64, 64) == 1
    assert default_band_width(512, 512) == max(1, round(15 * 512 / 1024))


# --- exhaustive oracle sweep (small masks)


@pytest.mark.parametrize("d", [1, 2])
def test_brute_force_equivalence_sweep(d):
    rng = np.random.default_rng(100 + d)
    for _ in range(400):
        h = int(rng.integers(1, 7))
        w = int(rng.integers(1, 7))
        pred = random_mask(rng, h, w)
        gt = random_mask(rng, h, w)
        rates = error_metrics(bm(pred), bm(gt), d)
        assert (rates.ferr, rates.merr, rates.derr) == oracles.boundary_error_rates(
            pred, gt, d
        )
        assert boundary_iou(bm(pred), bm(gt), d) == oracles.boundary_iou_value(
            pred, gt, d
        )
        mask_pred = LabelMask(pred.astype(np.uint8), ignore_value=None)
        mask_gt = LabelMask(gt.astype(np.uint8), ignore_value=None)
        assert miou(mask_pred, mask_gt, 2) == oracles.binary_miou(pred, gt)


# --- boundary band against the all-pairs oracle


@st.composite
def band_cases(draw):
    h = draw(st.one_of(st.just(1), st.integers(1, 12)))
    w = draw(st.one_of(st.just(1), st.integers(1, 12), st.sampled_from(WORD_EDGE_WIDTHS)))
    fill = draw(st.sampled_from(["random", "sparse", "empty", "full"]))
    if fill in ("random", "sparse"):
        # sparse masks leave contour pixels alone near the row ends
        density = 0.03 if fill == "sparse" else None
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        mask = random_mask(rng, h, w, density)
    else:
        mask = np.full((h, w), fill == "full")
    d = draw(st.integers(1, h + w + 3))
    return mask, d


def one_pixel(h, w, y, x):
    mask = np.zeros((h, w), dtype=bool)
    mask[y, x] = True
    return mask


@settings(max_examples=200, deadline=None)
@given(band_cases())
# one row at d=199 widens each one-sided run by 1, 2, 4, ..., 64 and then
# 72 columns: whole-word shifts with a zero and a non-zero bit remainder,
# with the pixel at either end of the row
@example((one_pixel(1, 200, 0, 0), 199))
@example((one_pixel(1, 200, 0, 199), 199))
# a full last word: a shift must not carry a row's end pixel into the next row
@example((one_pixel(2, 64, 0, 63), 1))
@example((one_pixel(2, 64, 1, 0), 1))
def test_band_matches_oracle(case):
    mask, d = case
    oracle = oracles.band_pixels(mask, d)
    band = boundary_band(bm(mask), d)
    assert np.array_equal(band.rows(0, mask.shape[0]), oracle)
    # every BandPair count relies on the row padding bits being 0
    assert np.array_equal(band.words, pack_rows(oracle))


@pytest.mark.parametrize("shape", [(0, 0), (0, 5), (4, 0)])
def test_band_zero_size_mask_keeps_shape(shape):
    band = boundary_band(bm(np.zeros(shape, dtype=bool)), d=3).rows(0, shape[0])
    assert band.shape == shape
    assert band.dtype == bool


def test_band_huge_width_is_bounded_by_image():
    mask = np.zeros((64, 64), dtype=bool)
    mask[20:30, 35:50] = True
    start = time.perf_counter()
    band = boundary_band(bm(mask), d=10**12).rows(0, 64)
    assert time.perf_counter() - start < 0.5
    assert np.array_equal(band, oracles.band_pixels(mask, 10**12))
    assert band.all()


# --- label band: every class's band in one dilation


@st.composite
def label_band_cases(draw):
    dtype = draw(st.sampled_from(["|u1", "<i4"]))
    h = draw(st.one_of(st.just(1), st.integers(1, 40)))
    w = draw(st.one_of(st.just(1), st.integers(1, 40)))
    pool = [0, 1, 2, 3, 255] + ([70000] if dtype == "<i4" else [])
    values = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique=True))
    ignore = draw(st.sampled_from([255, None, 0, 3]))
    # squares of `cell` pixels of one label: 1 gives a contour almost
    # everywhere, larger cells long runs of one label
    cell = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = rng.choice(values, (-(-h // cell), -(-w // cell)))
    labels = np.repeat(np.repeat(cells, cell, axis=0), cell, axis=1)[:h, :w]
    d = draw(st.integers(1, 8))
    return LabelMask(labels.astype(dtype), ignore), d


def _label_map(rows, dtype="|u1", ignore=255) -> LabelMask:
    return LabelMask(np.array(rows, dtype=dtype), ignore)


@settings(max_examples=150, deadline=None)
@given(label_band_cases())
# d reaches past the image's height, and a one-pixel-wide map
@example((_label_map([[0, 0, 1, 1, 255], [0, 2, 2, 255, 255]]), 8))
@example((_label_map([[0], [0], [255], [1], [1]], "<i4", None), 3))
# one label everywhere: the image border is the whole contour
@example((_label_map([[4] * 40] * 3), 1))
# nothing but the ignore value: no contour, an empty band
@example((_label_map([[255] * 7] * 2), 2))
def test_label_band_is_the_union_of_class_bands(case):
    mask, d = case
    band = segmetrics.label_band(mask, d)
    ored = np.zeros_like(band.words)
    union = np.zeros(mask.data.shape, dtype=bool)
    for c in mask.present_classes():
        ored |= boundary_band(segmetrics.pack_class(mask, c), d).words
        union |= oracles.band_pixels(mask.data == c, d)
    assert band.shape == mask.data.shape
    assert np.array_equal(band.words, ored)
    assert np.array_equal(band.words, pack_rows(union))


@pytest.mark.parametrize("shape", [(300, 300), (70, 1000), (1000, 70)])
def test_label_band_across_row_blocks(shape):
    # the contour is found a block of rows at a time: stripes 37 rows
    # high, with a few dots, put label changes near the block edges, and
    # rows on a block edge far from any change must stay off the contour
    rng = np.random.default_rng(shape[0])
    stripes = np.repeat(rng.choice([0, 1, 5, 255], shape[0] // 37 + 1), 37)[: shape[0]]
    labels = np.repeat(stripes[:, None], shape[1], axis=1)
    labels[rng.random(shape) < 0.002] = 1
    mask = LabelMask(labels.astype(np.uint8), 255)
    ored = np.zeros_like(pack_rows(labels > 0))
    for c in mask.present_classes():
        ored |= boundary_band(segmetrics.pack_class(mask, c), 3).words
    assert np.array_equal(segmetrics.label_band(mask, 3).words, ored)


# --- mIoU against a per-class literal loop


def miou_loop(pred, gt, n_classes, gt_classes_only, ignore):
    ious = []
    for c in range(n_classes):
        inter = union = in_gt = 0
        for p, g in zip(pred.flat, gt.flat):
            if ignore is not None and ignore in (p, g):
                continue
            inter += p == c and g == c
            union += p == c or g == c
            in_gt += g == c
        if in_gt if gt_classes_only else union:
            ious.append(inter / union)
    return sum(ious) / len(ious) if ious else None


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.sampled_from([None, 255, 1]),
    st.integers(0, 3),
)
def test_miou_matches_per_class_loop(h, w, seed, gt_only, ignore, extra):
    rng = np.random.default_rng(seed)
    pred, gt = (rng.choice([0, 1, 2, 4, 255], size=(h, w)).astype(np.uint8) for _ in range(2))
    labels = np.concatenate([pred.ravel(), gt.ravel()])
    n_classes = int(labels[labels != ignore].max(initial=0)) + 1 + extra
    got = miou(LabelMask(pred, ignore), LabelMask(gt, ignore), n_classes, gt_classes_only=gt_only)
    assert got == miou_loop(pred, gt, n_classes, gt_only, ignore)
