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
masks), so reports pair it with the same-gt perfect baseline for context.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

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


def contour(mask: BinaryMask) -> BinaryMask:
    """Mask pixels with at least one 4-neighbor unset or out of bounds."""
    bits = mask.bits
    padded = np.pad(bits, 1, mode="constant", constant_values=False)
    interior = (
        padded[:-2, 1:-1]
        & padded[2:, 1:-1]
        & padded[1:-1, :-2]
        & padded[1:-1, 2:]
    )
    return BinaryMask(bits & ~interior)


@dataclass(frozen=True)
class BoundaryBand:
    """Pixels within Euclidean distance d of a mask's contour (two-sided)."""

    source: BinaryMask
    d: int
    band: BinaryMask


def boundary_band(mask: BinaryMask, d: int = DEFAULT_BAND_WIDTH) -> BoundaryBand:
    if d < 1:
        raise ShapeError(f"band width must be >= 1, got {d}")
    edge = contour(mask).bits
    if not edge.any():
        band = np.zeros_like(edge)
    else:
        # exact Euclidean distance to the nearest contour pixel
        dist = ndimage.distance_transform_edt(~edge)
        band = dist <= d
    return BoundaryBand(mask, d, BinaryMask(band))


@dataclass(frozen=True)
class BoundaryErrorRates:
    ferr: float | None
    merr: float | None
    derr: float | None


def _check_same_shape(pred: BinaryMask, gt: BinaryMask) -> None:
    if pred.bits.shape != gt.bits.shape:
        raise ShapeError(
            f"mask shapes differ: {pred.bits.shape} vs {gt.bits.shape}"
        )


def error_metrics(pred: BinaryMask, gt: BinaryMask, d: int) -> BoundaryErrorRates:
    """Single-class boundary error rates; undefined rates come back as None."""
    _check_same_shape(pred, gt)
    p_d = boundary_band(pred, d).band.bits
    g_d = boundary_band(gt, d).band.bits
    n_pd = int(p_d.sum())
    n_gd = int(g_d.sum())
    both = p_d & g_d
    n_both = int(both.sum())
    ferr = int((p_d & ~g_d).sum()) / n_pd if n_pd else None
    merr = int((g_d & ~p_d).sum()) / n_gd if n_gd else None
    if n_both:
        inner = int((p_d & pred.bits & g_d & gt.bits).sum())
        derr = 1.0 - inner / n_both
    else:
        derr = None
    return BoundaryErrorRates(ferr, merr, derr)


def classify_boundary_pixels(pred: BinaryMask, gt: BinaryMask, d: int) -> np.ndarray:
    """Per-pixel error-type tags, mutually exclusive, matching the rate
    numerators: false_response = P_d \\ G_d, merging = G_d \\ P_d,
    displacement = (P_d & G_d) minus the inner-band agreement set."""
    _check_same_shape(pred, gt)
    p_d = boundary_band(pred, d).band.bits
    g_d = boundary_band(gt, d).band.bits
    tags = np.zeros(p_d.shape, dtype=np.uint8)
    tags[p_d & ~g_d] = TAG_FALSE_RESPONSE
    tags[g_d & ~p_d] = TAG_MERGING
    agreement = p_d & pred.bits & g_d & gt.bits
    tags[(p_d & g_d) & ~agreement] = TAG_DISPLACEMENT
    return tags


def _mean_defined(values: list[float | None]) -> float | None:
    defined = [v for v in values if v is not None]
    return sum(defined) / len(defined) if defined else None


@dataclass(frozen=True)
class ErrorBreakdown:
    per_class: dict[int, BoundaryErrorRates]
    ferr: float | None
    merr: float | None
    derr: float | None


def relevant_classes(pred: LabelMask, gt: LabelMask) -> list[int]:
    """Classes present in either mask, ignore pixels excluded."""
    return sorted(set(pred.present_classes()) | set(gt.present_classes()))


def multiclass_errors(pred: LabelMask, gt: LabelMask, d: int) -> ErrorBreakdown:
    """Per-class boundary error rates, averaged over defined entries."""
    per_class = {
        c: error_metrics(class_mask(pred, c), class_mask(gt, c), d)
        for c in relevant_classes(pred, gt)
    }
    rates = list(per_class.values())
    return ErrorBreakdown(
        per_class,
        _mean_defined([r.ferr for r in rates]),
        _mean_defined([r.merr for r in rates]),
        _mean_defined([r.derr for r in rates]),
    )


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
    ious = []
    for c in range(n_classes):
        p = (pred.data == c) & valid
        g = (gt.data == c) & valid
        if gt_classes_only and not g.any():
            continue
        union = int((p | g).sum())
        if union == 0:
            continue
        ious.append(int((p & g).sum()) / union)
    return sum(ious) / len(ious) if ious else None


def boundary_iou(pred_c: BinaryMask, gt_c: BinaryMask, d: int) -> float | None:
    """IoU of the band-restricted masks: inner(P) vs inner(G)."""
    _check_same_shape(pred_c, gt_c)
    p_d = boundary_band(pred_c, d).band.bits
    g_d = boundary_band(gt_c, d).band.bits
    inner_p = p_d & pred_c.bits
    inner_g = g_d & gt_c.bits
    union = int((inner_p | inner_g).sum())
    if union == 0:
        return None
    return int((inner_p & inner_g).sum()) / union


def boundary_acc(pred_c: BinaryMask, gt_c: BinaryMask, d: int) -> float | None:
    """Fraction of gt band pixels where the prediction agrees with gt."""
    _check_same_shape(pred_c, gt_c)
    g_d = boundary_band(gt_c, d).band.bits
    n = int(g_d.sum())
    if n == 0:
        return None
    return int((pred_c.bits[g_d] == gt_c.bits[g_d]).sum()) / n


@dataclass(frozen=True)
class BoundaryScores:
    per_class_iou: dict[int, float | None]
    per_class_acc: dict[int, float | None]
    biou: float | None
    bacc: float | None


def multiclass_boundary(pred: LabelMask, gt: LabelMask, d: int) -> BoundaryScores:
    per_iou: dict[int, float | None] = {}
    per_acc: dict[int, float | None] = {}
    for c in relevant_classes(pred, gt):
        p = class_mask(pred, c)
        g = class_mask(gt, c)
        per_iou[c] = boundary_iou(p, g, d)
        per_acc[c] = boundary_acc(p, g, d)
    return BoundaryScores(
        per_iou,
        per_acc,
        _mean_defined(list(per_iou.values())),
        _mean_defined(list(per_acc.values())),
    )
