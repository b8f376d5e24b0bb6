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

Bands are built once per class, by `band_pair`.  The `BandPair` it returns
gives the error tags and seven pixel counts, `BandCounts`, and every rate,
BIoU, BAcc and baseline is a ratio of two of them, taken in one place,
`BandCounts.ratios`.  `class_band_pairs` builds the pairs one class at a time
as they are asked for, from labels packed by `pack_class`, so a command holds
one pair.  A band is a contour dilated by the radius-d disk of integer
offsets, built from shifted ORs on bit-packed rows (`_dilate`), of one mask's
contour (`boundary_band`) or of the contour between labels, the union of every
class's band (`label_band`); no distance transform is computed.  `pack_rows`
fixes the one packed layout, 64 pixels per little-endian uint64 word; bands
stay in it up to the counts, and no other module reads or writes it: both
band builders and `error_type_masks` hand out a `PackedMask`, which unpacks a
block of rows at a time.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from math import isqrt

import numpy as np

from .arrays import BinaryMask, LabelMask, row_blocks
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


def _zero_words(shape: tuple[int, int]) -> np.ndarray:
    return np.zeros((shape[0], -(-shape[1] // 64)), dtype="<u8")


def pack_rows(bits: np.ndarray) -> np.ndarray:
    """(H, W) bool as (H, ceil(W / 64)) little-endian uint64 words: column
    x is bit x % 64 of word x // 64, and row padding bits are 0."""
    h, w = bits.shape
    words = np.zeros((h, -(-w // 64) * 8), dtype=np.uint8)
    words[:, : -(-w // 8)] = np.packbits(bits, axis=-1, bitorder="little")
    return words.view("<u8")


def pack_class(mask: LabelMask, class_id: int) -> PackedMask:
    """`pack_rows(class_mask(mask, class_id).bits)`, packed one block of
    rows of labels at a time, so no (H, W) bool mask is made."""
    words = _zero_words(mask.data.shape)
    if class_id != mask.ignore_value:
        out = words.view(np.uint8)[:, : -(-mask.width // 8)]
        for rows in row_blocks(mask.data.shape, 1 << 18):
            out[rows] = np.packbits(mask.data[rows] == class_id, axis=-1, bitorder="little")
    return PackedMask(words, mask.width)


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


def _packed(mask: BinaryMask | PackedMask) -> PackedMask:
    return mask if isinstance(mask, PackedMask) else PackedMask(pack_rows(mask.bits), mask.width)


def _dilate(edge: np.ndarray, w: int, d: int) -> PackedMask:
    """Union of the packed pixels `edge`, of an image w pixels wide,
    shifted by every integer offset (dy, dx) with dy^2 + dx^2 <= d^2,
    which is the set of pixels within Euclidean distance d of an edge
    pixel.  `edge` is overwritten.

    Row offset dy takes a horizontal run of half-width isqrt(d^2 - dy^2),
    which only grows as |dy| shrinks, so the run is widened while dy walks
    from d down to 0, and each step ORs it into the band shifted by +-dy
    rows.  The run is the union of two one-sided runs, the edge stretched
    right and left by the half-width a.  A one-sided run widens to a + s
    with one OR of itself shifted by s columns, for any s <= a + 1, so
    each distinct half-width costs two column shifts however far it moves.
    (A symmetric run grown from itself by +-s would lose pixels near the
    row ends, whose path passes outside the image.)  Both loops stop at
    the image extent.  Everything runs on `pack_rows` words, 64 pixels per
    uint64, and the band stays packed: about 2*min(d, H-1) row-slice ORs
    plus three word ops per distinct half-width, O(d*H*W/64) word
    operations.
    """
    if d < 1:
        raise ShapeError(f"band width must be >= 1, got {d}")
    h, right = edge.shape[0], edge
    if not right.any():
        return PackedMask(np.zeros_like(right), w)
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
    return PackedMask(band, w)


def boundary_band(mask: BinaryMask | PackedMask, d: int = DEFAULT_BAND_WIDTH) -> PackedMask:
    """The pixels within Euclidean distance d of the mask's contour; a
    `PackedMask` is used as it is."""
    return _dilate(_contour_words(_packed(mask).words), mask.shape[1], d)


def label_band(mask: LabelMask, d: int = DEFAULT_BAND_WIDTH) -> PackedMask:
    """The OR over the present classes c of
    `boundary_band(pack_class(mask, c), d)`, as one `_dilate` of the label
    contour, since a dilation of a union is the union of the dilations.
    A labelled pixel is on the contour when a 4-neighbour is outside the
    image or holds another label; an ignored pixel is on none, and is
    another label to its neighbours.  The contour is found and packed a
    block of rows at a time, so no (H, W) bool mask is made."""
    labels, (h, w) = mask.data, mask.data.shape
    edge = _zero_words((h, w))
    out = edge.view(np.uint8)[:, : -(-w // 8)]
    for rows in row_blocks((h, w)):
        # the image's border pixels are on it; rows y0 .. y1 - 1 of the
        # block have all four neighbours in the image
        on = np.ones((rows.stop - rows.start, w), dtype=bool)
        y0, y1 = max(rows.start, 1), min(rows.stop, h - 1)
        if y0 < y1:
            m = labels[y0:y1, 1:-1]
            on[y0 - rows.start : y1 - rows.start, 1:-1] = (
                (m != labels[y0 - 1 : y1 - 1, 1:-1]) | (m != labels[y0 + 1 : y1 + 1, 1:-1])
                | (m != labels[y0:y1, :-2]) | (m != labels[y0:y1, 2:])
            )
        if mask.ignore_value is not None:
            on &= labels[rows] != mask.ignore_value
        out[rows] = np.packbits(on, axis=-1, bitorder="little")
    return _dilate(edge, w, d)


@dataclass(frozen=True)
class BoundaryErrorRates:
    ferr: float | None
    merr: float | None
    derr: float | None


def _count(packed: np.ndarray) -> int:
    return int(np.bitwise_count(packed).sum())


@dataclass(frozen=True)
class BandCounts:
    """One class's band pixel counts, the terms of every band ratio."""

    pd: int  # |P_d|
    gd: int  # |G_d|
    both: int  # |P_d & G_d|
    agree: int  # |(P_d & P) & (G_d & G)|
    gd_in: int  # |G_d & G|
    union: int  # |(P_d & P) | (G_d & G)|
    acc: int  # |G_d & ~(P ^ G)|

    def ratios(self) -> dict[str, float | None]:
        """Every band ratio by its report key; None when its denominator is 0."""
        pd, gd, both = self.pd, self.gd, self.both
        return {
            "ferr": (pd - both) / pd if pd else None,
            "merr": (gd - both) / gd if gd else None,
            "derr": 1.0 - self.agree / both if both else None,
            "derr_perfect_baseline": 1.0 - self.gd_in / gd if gd else None,
            "biou": self.agree / self.union if self.union else None,
            "bacc": self.acc / gd if gd else None,
        }


@dataclass(frozen=True)
class BandPair:
    """One class's P, G, P_d and G_d as `pack_rows` words.  Row padding
    bits are 0 in every field, and each expression below ands with a
    field, so they stay 0.
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

    def counts(self) -> BandCounts:
        inner_p, inner_g = self.p_d & self.p, self.g_d & self.g
        return BandCounts(
            pd=_count(self.p_d), gd=_count(self.g_d), both=_count(self.p_d & self.g_d),
            agree=_count(inner_p & inner_g), gd_in=_count(inner_g),
            union=_count(inner_p | inner_g), acc=_count(self.g_d & ~(self.p ^ self.g)),
        )

    @property
    def shape(self) -> tuple[int, int]:
        return self.p.shape[0], self.width

    def tags(self) -> np.ndarray:
        tags = np.zeros(self.shape, dtype=np.uint8)
        for tag, pixels in zip(TAG_NAMES, self.error_sets()):
            tags[unpack_rows(pixels, self.width)] = tag
        return tags


def band_pair(pred: BinaryMask | PackedMask, gt: BinaryMask | PackedMask, d: int) -> BandPair:
    if pred.shape != gt.shape:
        raise ShapeError(f"mask shapes differ: {pred.shape} vs {gt.shape}")
    p, g = _packed(pred), _packed(gt)
    return BandPair(p.words, g.words, boundary_band(p, d).words, boundary_band(g, d).words, p.width)


def relevant_classes(pred: LabelMask, gt: LabelMask) -> list[int]:
    """Classes present in either mask, ignore pixels excluded."""
    return sorted(set(pred.present_classes()) | set(gt.present_classes()))


def class_band_pairs(
    pred: LabelMask, gt: LabelMask, d: int, classes: list[int] | None = None
) -> Iterator[tuple[int, BandPair]]:
    """(class id, band pair) of each class in `classes`, by default those in
    either mask in ascending order; each pair is built when it is asked for."""
    if classes is None:
        classes = relevant_classes(pred, gt)
    for c in classes:
        yield c, band_pair(pack_class(pred, c), pack_class(gt, c), d)


@dataclass(frozen=True)
class PackedMask:
    """An (H, W) boolean grid kept as `pack_rows` words and unpacked a block
    of rows at a time, so it is never whole as one bool per pixel."""

    words: np.ndarray
    width: int

    @property
    def shape(self) -> tuple[int, int]:
        return self.words.shape[0], self.width

    def rows(self, y0: int, y1: int) -> np.ndarray:
        """Rows y0 .. y1 - 1 as (y1 - y0, W) bool."""
        return unpack_rows(self.words[y0:y1], self.width)


def error_type_masks(
    pairs: Iterable[tuple[int, BandPair]], shape: tuple[int, int]
) -> dict[str, PackedMask]:
    """Each error type's (H, W) pixels over all classes, by `TAG_NAMES` value.
    A pixel keeps the type of the first class in `pairs` that claims it,
    the lowest class id for `class_band_pairs`; `claimed` is the running
    union of the merged types.  A class's error sets are disjoint, so
    claiming its pixels type by type claims what the class claims."""
    claimed = _zero_words(shape)
    merged = [np.zeros_like(claimed) for _ in TAG_NAMES]
    for _, pair in pairs:
        if pair.shape != shape:
            raise ShapeError(f"band pair shape {pair.shape} does not match {shape}")
        for tagged, pixels in zip(merged, pair.error_sets()):
            pixels &= ~claimed
            tagged |= pixels
            claimed |= pixels
    return {name: PackedMask(t, shape[1]) for name, t in zip(TAG_NAMES.values(), merged)}


def error_metrics(pred: BinaryMask, gt: BinaryMask, d: int) -> BoundaryErrorRates:
    """Single-class boundary error rates; undefined rates come back as None."""
    r = band_pair(pred, gt, d).counts().ratios()
    return BoundaryErrorRates(r["ferr"], r["merr"], r["derr"])


def classify_boundary_pixels(pred: BinaryMask, gt: BinaryMask, d: int) -> np.ndarray:
    """Per-pixel error-type tags, matching the rate numerators."""
    return band_pair(pred, gt, d).tags()


def boundary_iou(pred_c: BinaryMask, gt_c: BinaryMask, d: int) -> float | None:
    return band_pair(pred_c, gt_c, d).counts().ratios()["biou"]


def boundary_acc(pred_c: BinaryMask, gt_c: BinaryMask, d: int) -> float | None:
    return band_pair(pred_c, gt_c, d).counts().ratios()["bacc"]


@dataclass(frozen=True)
class ErrorBreakdown:
    """Per-class `BandCounts`, in class order."""

    counts: dict[int, BandCounts]

    def means(self) -> dict[str, float | None]:
        """Each ratio but the baseline averaged in class order over the
        classes where it is defined; None when it is defined for none."""
        per_class = [n.ratios() for n in self.counts.values()]
        means = {}
        for name in ("ferr", "merr", "derr", "biou", "bacc"):
            defined = [r[name] for r in per_class if r[name] is not None]
            means[name] = sum(defined) / len(defined) if defined else None
        return means


def multiclass_errors(pairs: Iterable[tuple[int, BandPair]]) -> ErrorBreakdown:
    """Every per-class band count, from one pass over `class_band_pairs`,
    so one class's pair is held at a time."""
    return ErrorBreakdown({c: pair.counts() for c, pair in pairs})


def _valid_label_counts(
    pred: LabelMask, gt: LabelMask, size: int, block: int = 1 << 16
) -> np.ndarray:
    """Per-label counts over the pixels that neither mask ignores: rows are
    where gt and pred agree, gt, and pred.  Taken in blocks of rows of
    about `block` bytes of the wider labels, so no full-size mask, copy or
    intp cast is made; counts are integers, the same for any blocks."""
    counts = np.zeros((3, size), dtype=np.intp)
    for rows in row_blocks(gt.data.shape, block // max(gt.data.itemsize, pred.data.itemsize)):
        g, p = gt.data[rows], pred.data[rows]
        valid = np.ones(g.shape, dtype=bool)
        if gt.ignore_value is not None:
            valid &= g != gt.ignore_value
        if pred.ignore_value is not None:
            valid &= p != pred.ignore_value
        g, p = g[valid], p[valid]
        counts[0] += np.bincount(g[g == p], minlength=size)
        counts[1] += np.bincount(g, minlength=size)
        counts[2] += np.bincount(p, minlength=size)
    return counts


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
    # the diagonal and marginals of the confusion matrix are sized by the
    # largest label present, not by n_classes
    size = max(gt.validate_classes(n_classes), pred.validate_classes(n_classes)) + 1
    inter, in_gt, in_pred = _valid_label_counts(pred, gt, size)
    union = in_gt + in_pred - inter
    keep = in_gt > 0 if gt_classes_only else union > 0
    ious = [int(i) / int(u) for i, u in zip(inter[keep], union[keep])]
    return sum(ious) / len(ious) if ious else None


@dataclass(frozen=True)
class BoundaryScores:
    per_class_iou: dict[int, float | None]
    per_class_acc: dict[int, float | None]
    biou: float | None
    bacc: float | None


def multiclass_boundary(pairs: Iterable[tuple[int, BandPair]]) -> BoundaryScores:
    """The BIoU and BAcc half of `multiclass_errors`."""
    errors = multiclass_errors(pairs)
    per_class = {c: n.ratios() for c, n in errors.counts.items()}
    biou, bacc = ({c: r[name] for c, r in per_class.items()} for name in ("biou", "bacc"))
    means = errors.means()
    return BoundaryScores(biou, bacc, means["biou"], means["bacc"])
