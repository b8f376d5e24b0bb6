"""Segmentation quality metrics built on boundary bands.

For a binary mask X, X_d is the set of pixels within Euclidean distance d
of the mask's contour, on both sides of it.  With prediction P and ground
truth G the three boundary error rates are

    ferr = |P_d \\ G_d| / |P_d|
    merr = |G_d \\ P_d| / |G_d|
    derr = 1 - |(P_d & P) & (G_d & G)| / |P_d & G_d|

Any rate whose denominator is empty is undefined and reported as None;
class averages skip undefined entries.  Note derr is not 0 even for a
perfect prediction (its numerator only counts band pixels inside both
masks), so reports pair it with derr at P = G, 1 - |G_d & G| / |G_d|.

Bands are built once per class, by `band_pair`; the rates, error tags,
BIoU, BAcc and baseline are all methods of the `BandPair` it returns.
A band is the contour dilated by the radius-d disk of integer offsets,
built from shifted ORs on bit-packed rows (`boundary_band`); no distance
transform is computed.  `pack_rows` fixes the one packed layout, 64
pixels per little-endian uint64 word; bands stay in it up to the counts,
and no other module reads or writes it (`band_union`, `error_type_masks`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import isqrt

import numpy as np

from .arrays import BinaryMask, LabelMask, class_mask
from .errors import ShapeError

DEFAULT_BAND_WIDTH = 15
REFERENCE_SCALE = 1024

TAG_NONE = 0
TAG_FALSE_RESPONSE = 1
TAG_MERGING = 2
TAG_DISPLACEMENT = 3

TAG_NAMES = {
    TAG_FALSE_RESPONSE: "false_response",
    TAG_MERGING: "merging",
    TAG_DISPLACEMENT: "displacement",
}


def default_band_width(height: int, width: int) -> int:
    """Scale the reference 15-pixel band down for small images."""
    return max(1, round(DEFAULT_BAND_WIDTH * min(height, width) / REFERENCE_SCALE))


def pack_rows(bits: np.ndarray) -> np.ndarray:
    """(H, W) bool as (H, ceil(W / 64)) little-endian uint64 words: column
    x is bit x % 64 of word x // 64, and row padding bits are 0."""
    h, w = bits.shape
    words = np.zeros((h, -(-w // 64) * 8), dtype=np.uint8)
    words[:, : -(-w // 8)] = np.packbits(bits, axis=-1, bitorder="little")
    return words.view("<u8")


def unpack_rows(words: np.ndarray, width: int) -> np.ndarray:
    """Inverse of `pack_rows`: the first `width` columns as (H, W) bool.
    Word arithmetic gives native-order words, so a big-endian host swaps
    them back to `<u8` before reading the bytes."""
    bytes_ = words.astype("<u8", copy=False).view(np.uint8)
    return np.unpackbits(bytes_, axis=-1, count=width, bitorder="little").view(bool)


def _shifted(words: np.ndarray, s: int) -> np.ndarray:
    """C-contiguous packed rows moved s columns right (s > 0) or left
    (s < 0); bits moved past either end of a row's words are dropped."""
    q, r = divmod(abs(s), 64)
    n = words.shape[1]
    if q:
        moved = np.zeros_like(words)
        k = min(q, n)
        if s > 0:
            moved[:, k:] = words[:, : n - k]
        else:
            moved[:, : n - k] = words[:, k:]
        words = moved
        if not r:
            return words
    # the bit shift carries across words on the flattened rows; the carry
    # out of a row's end word would enter the next row, so it is zeroed
    if s > 0:
        out, carry = words << r, words >> (64 - r)
        carry[:, n - 1 :] = 0
        out.reshape(-1)[1:] |= carry.reshape(-1)[:-1]
    else:
        out, carry = words >> r, words << (64 - r)
        carry[:, :1] = 0
        out.reshape(-1)[:-1] |= carry.reshape(-1)[1:]
    return out


def _contour_words(m: np.ndarray) -> np.ndarray:
    """`contour` on packed rows: m & ~(up & down & left & right).  The
    border rows of `core` stay 0, and the zero padding bits and dropped
    shifts stand for the unset pixels outside the image."""
    core = np.zeros_like(m)
    np.bitwise_and(m[:-2], m[2:], out=core[1:-1])
    core &= _shifted(m, 1)
    core &= _shifted(m, -1)
    return m & ~core


def contour(mask: BinaryMask) -> BinaryMask:
    """Mask pixels with at least one 4-neighbor unset or out of bounds."""
    return BinaryMask(unpack_rows(_contour_words(pack_rows(mask.bits)), mask.width))


@dataclass(frozen=True)
class BoundaryBand:
    """A mask and the pixels within Euclidean distance d of its contour
    (two-sided), as `pack_rows` words of a `width`-column image."""

    mask_words: np.ndarray
    words: np.ndarray
    width: int

    @property
    def band(self) -> BinaryMask:
        return BinaryMask(unpack_rows(self.words, self.width))


def boundary_band(mask: BinaryMask, d: int = DEFAULT_BAND_WIDTH) -> BoundaryBand:
    """Union of the contour shifted by every integer offset (dy, dx) with
    dy^2 + dx^2 <= d^2, which is the set of pixels within Euclidean
    distance d of a contour pixel.

    Row offset dy takes a horizontal run of half-width isqrt(d^2 - dy^2),
    which only grows as |dy| shrinks, so the run is widened while dy walks
    from d down to 0, and each step ORs it into the band shifted by +-dy
    rows.  The run is the union of two one-sided runs, the contour
    stretched right and left by the half-width a.  A one-sided run widens
    to a + s with one OR of itself shifted by s columns, for any s <= a + 1,
    so each distinct half-width costs two column shifts however far it
    moves.  (A symmetric run grown from itself by +-s would lose pixels
    near the row ends, whose path passes outside the image.)  Both loops
    stop at the image extent.  Everything runs on `pack_rows` words, 64
    pixels per uint64, and the band stays packed: about 2*min(d, H-1)
    row-slice ORs plus three word ops per distinct half-width,
    O(d*H*W/64) word operations.
    """
    if d < 1:
        raise ShapeError(f"band width must be >= 1, got {d}")
    h, w = mask.bits.shape
    packed = pack_rows(mask.bits)
    right = _contour_words(packed)
    if not right.any():
        return BoundaryBand(packed, np.zeros_like(packed), w)
    left, run = right.copy(), right
    band = np.zeros_like(run)
    width = 0
    for dy in range(min(d, h - 1), -1, -1):
        reach = min(isqrt(d * d - dy * dy), w - 1)
        if width < reach:
            while width < reach:
                step = min(reach - width, width + 1)
                right |= _shifted(right, step)
                left |= _shifted(left, -step)
                width += step
            run = right | left
        if dy:
            band[dy:] |= run[: h - dy]
            band[: h - dy] |= run[dy:]
        else:
            band |= run
    band[:, -1] &= np.uint64((2**64 - 1) >> (-w % 64))  # `right` spilled into padding
    return BoundaryBand(packed, band, w)


@dataclass(frozen=True)
class BoundaryErrorRates:
    ferr: float | None
    merr: float | None
    derr: float | None


def _count(packed: np.ndarray) -> int:
    return int(np.bitwise_count(packed).sum())


@dataclass(frozen=True)
class BandPair:
    """One class's P, G, P_d and G_d as `pack_rows` words, so a command
    can hold every class's pair at once: 19 classes at 512x1024 take
    4.75 MiB, not 38 MiB.  Row padding bits are 0 in every field, and each
    expression below ands with a field, so they stay 0.
    """

    p: np.ndarray
    g: np.ndarray
    p_d: np.ndarray
    g_d: np.ndarray
    width: int

    def error_sets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Disjoint error sets, also the rate numerators: false_response
        P_d \\ G_d, merging G_d \\ P_d, displacement (P_d & G_d) minus the
        inner-band agreement (P_d & P) & (G_d & G)."""
        both = self.p_d & self.g_d
        return self.p_d & ~self.g_d, self.g_d & ~self.p_d, both & ~(self.p & self.g)

    def rates(self) -> BoundaryErrorRates:
        false_response, merging, displacement = map(_count, self.error_sets())
        n_pd, n_gd = _count(self.p_d), _count(self.g_d)
        n_both = n_pd - false_response
        ferr = false_response / n_pd if n_pd else None
        merr = merging / n_gd if n_gd else None
        derr = 1.0 - (n_both - displacement) / n_both if n_both else None
        return BoundaryErrorRates(ferr, merr, derr)

    @property
    def shape(self) -> tuple[int, int]:
        return self.p.shape[0], self.width

    def tags(self) -> np.ndarray:
        tags = np.zeros(self.shape, dtype=np.uint8)
        for tag, pixels in zip(TAG_NAMES, self.error_sets()):
            tags[unpack_rows(pixels, self.width)] = tag
        return tags

    def derr_baseline(self) -> float | None:
        """derr of a perfect prediction of this gt: 1 - |G_d & G| / |G_d|."""
        return replace(self, p=self.g, p_d=self.g_d).rates().derr

    def iou(self) -> float | None:
        """IoU of the band-restricted masks: inner(P) vs inner(G)."""
        inner_p, inner_g = self.p_d & self.p, self.g_d & self.g
        union = _count(inner_p | inner_g)
        return _count(inner_p & inner_g) / union if union else None

    def acc(self) -> float | None:
        """Fraction of gt band pixels where the prediction agrees with gt."""
        n = _count(self.g_d)
        return _count(self.g_d & ~(self.p ^ self.g)) / n if n else None


def band_pair(pred: BinaryMask, gt: BinaryMask, d: int) -> BandPair:
    if pred.bits.shape != gt.bits.shape:
        raise ShapeError(f"mask shapes differ: {pred.bits.shape} vs {gt.bits.shape}")
    p, g = boundary_band(pred, d), boundary_band(gt, d)
    return BandPair(p.mask_words, g.mask_words, p.words, g.words, p.width)


def relevant_classes(pred: LabelMask, gt: LabelMask) -> list[int]:
    """Classes present in either mask, ignore pixels excluded."""
    return sorted(set(pred.present_classes()) | set(gt.present_classes()))


def class_band_pairs(
    pred: LabelMask, gt: LabelMask, d: int, classes: list[int] | None = None
) -> dict[int, BandPair]:
    """Band pair of each class in `classes`, by default those in either mask."""
    if classes is None:
        classes = relevant_classes(pred, gt)
    return {c: band_pair(class_mask(pred, c), class_mask(gt, c), d) for c in classes}


def band_union(bands: list[np.ndarray], shape: tuple[int, int]) -> BinaryMask:
    """Pixels in any of the packed bands of an (H, W) image."""
    union = np.bitwise_or.reduce([pack_rows(np.zeros(shape, dtype=bool)), *bands])
    return BinaryMask(unpack_rows(union, shape[1]))


def error_type_masks(
    pairs: dict[int, BandPair], shape: tuple[int, int]
) -> dict[str, np.ndarray]:
    """Each error type's (H, W) pixels over all classes, by `TAG_NAMES` value.
    A pixel keeps the type of the lowest class id that claims it; the pixels
    claimed so far are the union of the merged types."""
    empty = pack_rows(np.zeros(shape, dtype=bool))
    merged = [empty.copy() for _ in TAG_NAMES]
    for c in sorted(pairs):
        claimed = np.bitwise_or.reduce(merged)
        for tagged, pixels in zip(merged, pairs[c].error_sets()):
            tagged |= pixels & ~claimed
    return dict(zip(TAG_NAMES.values(), (unpack_rows(t, shape[1]) for t in merged)))


def error_metrics(pred: BinaryMask, gt: BinaryMask, d: int) -> BoundaryErrorRates:
    """Single-class boundary error rates; undefined rates come back as None."""
    return band_pair(pred, gt, d).rates()


def classify_boundary_pixels(pred: BinaryMask, gt: BinaryMask, d: int) -> np.ndarray:
    """Per-pixel error-type tags, matching the rate numerators."""
    return band_pair(pred, gt, d).tags()


def boundary_iou(pred_c: BinaryMask, gt_c: BinaryMask, d: int) -> float | None:
    return band_pair(pred_c, gt_c, d).iou()


def boundary_acc(pred_c: BinaryMask, gt_c: BinaryMask, d: int) -> float | None:
    return band_pair(pred_c, gt_c, d).acc()


def _mean_defined(values: list[float | None]) -> float | None:
    defined = [v for v in values if v is not None]
    return sum(defined) / len(defined) if defined else None


@dataclass(frozen=True)
class ErrorBreakdown:
    per_class: dict[int, BoundaryErrorRates]
    ferr: float | None
    merr: float | None
    derr: float | None


def multiclass_errors(pairs: dict[int, BandPair]) -> ErrorBreakdown:
    """Per-class boundary error rates, averaged over defined entries."""
    per_class = {c: pair.rates() for c, pair in pairs.items()}
    means = {
        name: _mean_defined([getattr(r, name) for r in per_class.values()])
        for name in ("ferr", "merr", "derr")
    }
    return ErrorBreakdown(per_class, **means)


def miou(
    pred: LabelMask,
    gt: LabelMask,
    n_classes: int,
    gt_classes_only: bool = True,
) -> float | None:
    """Mean per-class IoU over non-ignored pixels.

    Averages over classes present in gt by default; with
    gt_classes_only=False every class with a nonempty union contributes.
    """
    if pred.data.shape != gt.data.shape:
        raise ShapeError(
            f"mask shapes differ: {pred.data.shape} vs {gt.data.shape}"
        )
    gt.validate_classes(n_classes)
    pred.validate_classes(n_classes)
    valid = np.ones(gt.data.shape, dtype=bool)
    if gt.ignore_value is not None:
        valid &= gt.data != gt.ignore_value
    if pred.ignore_value is not None:
        valid &= pred.data != pred.ignore_value
    # diagonal and marginals of the confusion matrix over valid pixels,
    # sized by the largest label present, not by n_classes
    g, p = gt.data[valid], pred.data[valid]
    size = int(max(g.max(), p.max())) + 1 if g.size else 0
    inter = np.bincount(g[g == p], minlength=size)
    in_gt = np.bincount(g, minlength=size)
    union = in_gt + np.bincount(p, minlength=size) - inter
    keep = in_gt > 0 if gt_classes_only else union > 0
    ious = [int(i) / int(u) for i, u in zip(inter[keep], union[keep])]
    return sum(ious) / len(ious) if ious else None


@dataclass(frozen=True)
class BoundaryScores:
    per_class_iou: dict[int, float | None]
    per_class_acc: dict[int, float | None]
    biou: float | None
    bacc: float | None


def multiclass_boundary(pairs: dict[int, BandPair]) -> BoundaryScores:
    per_iou = {c: pair.iou() for c, pair in pairs.items()}
    per_acc = {c: pair.acc() for c, pair in pairs.items()}
    means = [_mean_defined(list(scores.values())) for scores in (per_iou, per_acc)]
    return BoundaryScores(per_iou, per_acc, *means)
