"""Independent brute-force oracles used to gate the package implementations.

Everything here is deliberately written the slow, literal way: explicit
neighbor checks, all-pairs distances, and set arithmetic on pixel index
sets.  None of it shares code with the package.
"""

from __future__ import annotations

import numpy as np


def contour_pixels(mask: np.ndarray) -> np.ndarray:
    """Boolean contour: set pixels with a 4-neighbor that is unset or outside."""
    h, w = mask.shape
    out = np.zeros_like(mask, dtype=bool)
    for y in range(h):
        for x in range(w):
            if not mask[y, x]:
                continue
            for dy, dx in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                ny, nx = y + dy, x + dx
                if not (0 <= ny < h and 0 <= nx < w) or not mask[ny, nx]:
                    out[y, x] = True
                    break
    return out


def band_pixels(mask: np.ndarray, d: int) -> np.ndarray:
    """Pixels within Euclidean distance d of any contour pixel (all pairs)."""
    edge = contour_pixels(mask)
    ey, ex = np.nonzero(edge)
    if len(ey) == 0:
        return np.zeros_like(mask, dtype=bool)
    h, w = mask.shape
    yy, xx = np.mgrid[0:h, 0:w]
    d2 = (yy[:, :, None] - ey[None, None, :]) ** 2 + (
        xx[:, :, None] - ex[None, None, :]
    ) ** 2
    return (d2.min(axis=2)) <= d * d


def boundary_error_rates(pred: np.ndarray, gt: np.ndarray, d: int):
    """(ferr, merr, derr) by literal set enumeration; None when undefined."""
    p_d = band_pixels(pred, d)
    g_d = band_pixels(gt, d)
    set_pd = set(zip(*np.nonzero(p_d)))
    set_gd = set(zip(*np.nonzero(g_d)))
    set_p = set(zip(*np.nonzero(pred)))
    set_g = set(zip(*np.nonzero(gt)))
    ferr = len(set_pd - (set_gd & set_pd)) / len(set_pd) if set_pd else None
    merr = len(set_gd - (set_pd & set_gd)) / len(set_gd) if set_gd else None
    both = set_pd & set_gd
    if both:
        inner = (set_pd & set_p) & (set_gd & set_g)
        derr = 1.0 - len(inner) / len(both)
    else:
        derr = None
    return ferr, merr, derr


def tag_counts(pred: np.ndarray, gt: np.ndarray, d: int):
    """Pixel counts of the three error types (the rate numerators)."""
    p_d = band_pixels(pred, d)
    g_d = band_pixels(gt, d)
    set_pd = set(zip(*np.nonzero(p_d)))
    set_gd = set(zip(*np.nonzero(g_d)))
    set_p = set(zip(*np.nonzero(pred)))
    set_g = set(zip(*np.nonzero(gt)))
    false_response = set_pd - set_gd
    merging = set_gd - set_pd
    displacement = (set_pd & set_gd) - ((set_pd & set_p) & (set_gd & set_g))
    return len(false_response), len(merging), len(displacement)


def band_counts(pred: np.ndarray, gt: np.ndarray, d: int):
    """(|P_d|, |G_d|, |P_d & G_d|, |P_d & P & G_d & G|, |G_d & G|,
    |(P_d & P) | (G_d & G)|, |G_d & ~(P ^ G)|) by literal set enumeration."""
    set_pd = set(zip(*np.nonzero(band_pixels(pred, d))))
    set_gd = set(zip(*np.nonzero(band_pixels(gt, d))))
    set_p = set(zip(*np.nonzero(pred)))
    set_g = set(zip(*np.nonzero(gt)))
    inner_p, inner_g = set_pd & set_p, set_gd & set_g
    agree = {(y, x) for y, x in set_gd if pred[y, x] == gt[y, x]}
    return (
        len(set_pd),
        len(set_gd),
        len(set_pd & set_gd),
        len(inner_p & inner_g),
        len(inner_g),
        len(inner_p | inner_g),
        len(agree),
    )


def boundary_iou_value(pred: np.ndarray, gt: np.ndarray, d: int):
    p_d = band_pixels(pred, d)
    g_d = band_pixels(gt, d)
    inner_p = set(zip(*np.nonzero(p_d & pred)))
    inner_g = set(zip(*np.nonzero(g_d & gt)))
    union = inner_p | inner_g
    if not union:
        return None
    return len(inner_p & inner_g) / len(union)


def boundary_acc_value(pred: np.ndarray, gt: np.ndarray, d: int):
    g_d = band_pixels(gt, d)
    pixels = list(zip(*np.nonzero(g_d)))
    if not pixels:
        return None
    agree = sum(1 for y, x in pixels if pred[y, x] == gt[y, x])
    return agree / len(pixels)


def binary_miou(pred: np.ndarray, gt: np.ndarray):
    """Mean IoU of a two-class labeling, averaged over classes present in gt."""
    ious = []
    for c in (False, True):
        g = set(zip(*np.nonzero(gt == c)))
        p = set(zip(*np.nonzero(pred == c)))
        if not g:
            continue
        union = p | g
        if not union:
            continue
        ious.append(len(p & g) / len(union))
    return sum(ious) / len(ious) if ious else None
