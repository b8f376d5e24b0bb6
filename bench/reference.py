"""Reference results the benchmark checks the program's outputs against.

Written from the documented definitions (README of alias-scope) with numpy
and scipy only; nothing here imports alias_scope.  Each reference is
computed once per input, outside every timed region.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from inputs import IGNORE


def band_width_default(h: int, w: int) -> int:
    """The documented default band width: 15 px at 1024, scaled down."""
    return max(1, round(15 * min(h, w) / 1024))


def _high_band(h: int, w: int, cutoff: float) -> np.ndarray:
    return (np.abs(np.fft.fftfreq(h)) > cutoff)[:, None] | (
        np.abs(np.fft.fftfreq(w)) > cutoff
    )[None, :]


def band_power(x: np.ndarray, cutoff: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel (high-band power, total power) of a (C, H, W) array."""
    c, h, w = x.shape
    power = np.abs(np.fft.fft2(x.astype(np.float64)) / (h * w)) ** 2
    return power[:, _high_band(h, w, cutoff)].sum(axis=1), power.sum(axis=(1, 2))


def scores(x: np.ndarray, cutoff: float) -> dict:
    """per_channel list, per_channel_mean and global aliasing scores."""
    high, total = band_power(x, cutoff)
    defined = total > 0
    return {
        "per_channel": [float(a / b) if b > 0 else None for a, b in zip(high, total)],
        "per_channel_mean": float((high[defined] / total[defined]).mean()),
        "global": float(high.sum() / total.sum()),
    }


def low_pass(x: np.ndarray, cutoff: float) -> np.ndarray:
    """Ideal low-pass: zero every bin with |k| > cutoff or |l| > cutoff."""
    spec = np.fft.fft2(x.astype(np.float64))
    spec[:, _high_band(x.shape[1], x.shape[2], cutoff)] = 0.0
    return np.fft.ifft2(spec).real


def contour(mask: np.ndarray) -> np.ndarray:
    """Set pixels with a 4-neighbour that is unset or outside the image."""
    padded = np.pad(mask, 1)
    interior = padded[:-2, 1:-1] & padded[2:, 1:-1] & padded[1:-1, :-2] & padded[1:-1, 2:]
    return mask & ~interior


def band(mask: np.ndarray, d: int) -> np.ndarray:
    """Pixels within Euclidean distance d of the mask's contour."""
    edge = contour(mask)
    if not edge.any():
        return np.zeros_like(mask)
    return ndimage.distance_transform_edt(~edge) <= d


def _ratio(num: int, den: int) -> float | None:
    return num / den if den else None


def _mean_defined(values) -> float | None:
    defined = [v for v in values if v is not None]
    return sum(defined) / len(defined) if defined else None


def segmentation(pred: np.ndarray, gt: np.ndarray, d: int) -> dict:
    """Per-class boundary metrics, means, mIoU and the merged error tags.

    ferr = |P_d minus G_d| / |P_d|, merr = |G_d minus P_d| / |G_d|,
    derr = 1 - |P_d & P & G_d & G| / |P_d & G_d|; BIoU is the IoU of the
    inner bands and BAcc the agreement on G_d.  A pixel's tag comes from
    the lowest class id that tags it (1 false response, 2 merging,
    3 displacement).
    """
    pred_valid = pred != IGNORE
    gt_valid = gt != IGNORE
    classes = sorted(set(np.unique(pred[pred_valid]).tolist()) | set(np.unique(gt[gt_valid]).tolist()))
    per_class = {}
    tags = np.zeros(gt.shape, dtype=np.uint8)
    for c in classes:
        p = (pred == c) & pred_valid
        g = (gt == c) & gt_valid
        p_d, g_d = band(p, d), band(g, d)
        n_pd, n_gd, both = int(p_d.sum()), int(g_d.sum()), p_d & g_d
        agree = p_d & p & g_d & g
        inner_p, inner_g = p_d & p, g_d & g
        per_class[c] = {
            "ferr": _ratio(int((p_d & ~g_d).sum()), n_pd),
            "merr": _ratio(int((g_d & ~p_d).sum()), n_gd),
            "derr": None if not both.any() else 1.0 - int(agree.sum()) / int(both.sum()),
            "derr_perfect_baseline": None if not n_gd else 1.0 - int(inner_g.sum()) / n_gd,
            "biou": _ratio(int((inner_p & inner_g).sum()), int((inner_p | inner_g).sum())),
            "bacc": _ratio(int((p[g_d] == g[g_d]).sum()), n_gd),
        }
        class_tags = np.zeros(gt.shape, dtype=np.uint8)
        class_tags[p_d & ~g_d] = 1
        class_tags[g_d & ~p_d] = 2
        class_tags[both & ~agree] = 3
        tags = np.where(tags == 0, class_tags, tags)
    n_classes = max(classes) + 1
    valid = pred_valid & gt_valid
    ious = []
    for c in range(n_classes):
        p, g = (pred == c) & valid, (gt == c) & valid
        if g.any():
            ious.append(int((p & g).sum()) / int((p | g).sum()))
    mean = {
        key: _mean_defined(v[key] for v in per_class.values())
        for key in ("ferr", "merr", "derr", "biou", "bacc")
    }
    return {
        "per_class": per_class,
        "mean": mean,
        "miou": sum(ious) / len(ious),
        "n_classes": n_classes,
        "tags": tags,
    }


def window_starts(extent: int, window: int, stride: int) -> list[int]:
    starts = list(range(0, extent - window + 1, stride))
    if starts[-1] != extent - window:
        starts.append(extent - window)
    return starts


def window_score_map(x: np.ndarray, window: int, stride: int, cutoff: float) -> np.ndarray:
    """Per-channel-mean score of each window at its center, spread to the
    nearest center; a window with no power scores 0."""
    c, h, w = x.shape
    ys, xs = window_starts(h, window, stride), window_starts(w, window, stride)
    values = np.full((h, w), np.nan)
    mask = _high_band(window, window, cutoff)
    for y in ys:
        patches = np.stack([x[:, y : y + window, x0 : x0 + window] for x0 in xs])
        power = np.abs(np.fft.fft2(patches.astype(np.float64)) / window**2) ** 2
        high, total = power[:, :, mask].sum(axis=2), power.sum(axis=(2, 3))
        ratio = np.where(total > 0, high / np.where(total > 0, total, 1.0), np.nan)
        defined = total > 0
        row = np.where(
            defined.any(axis=1),
            np.nansum(ratio, axis=1) / np.maximum(defined.sum(axis=1), 1),
            0.0,
        )
        values[y + window // 2, [x0 + window // 2 for x0 in xs]] = row
    _, (iy, ix) = ndimage.distance_transform_edt(np.isnan(values), return_indices=True)
    return values[iy, ix]


def cross_entropy(probs: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """-log p(true class) per pixel; NaN on ignored pixels."""
    valid = gt != IGNORE
    picked = np.take_along_axis(probs, np.where(valid, gt, 0)[None].astype(np.int64), axis=0)[0]
    out = np.full(gt.shape, np.nan)
    out[valid] = -np.log(picked[valid].astype(np.float64))
    return out


def bin_index(score: np.ndarray, bins: int) -> np.ndarray:
    return np.clip(np.floor(score * bins).astype(np.int64), 0, bins - 1)


def near_bin_edge(score: np.ndarray, bins: int) -> int:
    """Pixels whose score sits so close to a bin edge that rounding may move them."""
    scaled = score * bins
    return int((np.abs(scaled - np.rint(scaled)) < 1e-9 * bins).sum())


def binned_mean(score, value, select, bins) -> tuple[list[int], list[float | None]]:
    select = select & ~np.isnan(value)
    idx = bin_index(score[select], bins)
    counts = np.bincount(idx, minlength=bins)
    sums = np.bincount(idx, weights=value[select], minlength=bins)
    return counts.tolist(), [float(s / n) if n else None for s, n in zip(sums, counts)]


def type_counts(score, tags, bins) -> dict[str, list[int]]:
    tagged = tags != 0
    idx = bin_index(score[tagged], bins)
    out = {"count": np.bincount(idx, minlength=bins).tolist()}
    for tag, name in ((1, "false_response"), (2, "merging"), (3, "displacement")):
        out[f"count_{name}"] = np.bincount(idx[tags[tagged] == tag], minlength=bins).tolist()
    return out
