"""Correlation machinery: per-pixel aliasing-score maps, per-pixel
cross-entropy, and binned statistics linking the two.

The per-pixel score map is a declared reconstruction: scores are computed
on sliding windows (window/stride/cutoff recorded in the map metadata),
assigned to window centers, and spread to the remaining pixels by nearest
computed center.  The centers form a grid (center rows x center columns),
so a pixel's nearest center is its nearest center row crossed with its
nearest center column, ties going to the lower one.  The windows of one
center row lie in one (C, window, W) band of rows, so the map reads the
features one band at a time, from a FeatureTensor in memory or from a
FeatureFile on disk, and never holds more than two bands.
"""

from __future__ import annotations

import os
from collections.abc import Iterable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .antialias import CutoffSpec, aliasing_score
from .arrays import BinaryMask, FeatureFile, FeatureTensor, LabelMask, row_blocks
from .errors import ShapeError, SizeError, UndefinedRatioError, ValidationError
from .segmetrics import BandPair, error_type_masks

THREADS_ENV = "ALIAS_SCOPE_THREADS"


def worker_count() -> int:
    """Available parallelism, capped by the ALIAS_SCOPE_THREADS env var."""
    n = os.cpu_count() or 1
    cap = os.environ.get(THREADS_ENV)
    if cap is not None:
        try:
            n = min(n, max(1, int(cap)))
        except ValueError:
            n = 1
    return n


@dataclass(frozen=True)
class ScoreMap:
    """Per-pixel score in [0, 1] plus the parameters that produced it."""

    values: np.ndarray  # (H, W) float
    window: int
    stride: int
    cutoff: float
    mode: str = "per_channel_mean"

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    def metadata(self) -> dict:
        return {
            "window": self.window,
            "stride": self.stride,
            "cutoff": self.cutoff,
            "mode": self.mode,
        }


def _window_starts(extent: int, window: int, stride: int) -> list[int]:
    # clamp the final window inside the image so edges are covered
    starts = list(range(0, extent - window + 1, stride))
    last = extent - window
    if starts[-1] != last:
        starts.append(last)
    return starts


def _nearest(starts: list[int], window: int, extent: int) -> np.ndarray:
    """Index of the nearest window center for each of `extent` pixels,
    the lower center on a tie."""
    centers = np.asarray(starts) + window // 2
    # pixel p goes to center i+1 only when it lies strictly past the
    # midpoint of centers i and i+1, that is 2p > c_i + c_{i+1}
    midpoints = centers[:-1] + centers[1:]
    return np.searchsorted(midpoints, 2 * np.arange(extent), side="left")


def patch_aliasing_map(
    f: FeatureTensor | FeatureFile, window: int, stride: int, cutoff: CutoffSpec
) -> ScoreMap:
    """Sliding-window aliasing scores spread to every pixel.

    Each window's per-channel-mean score lands on its center pixel;
    pixels without a computed center take the nearest one.  The windows
    are taken from one (C, window, W) band of rows per window row, from
    memory or from the file; the next band is read while the pool scores
    this one's windows, so at most two bands are held.  Rows that no
    window covers (a stride past the window) are read and checked too.
    """
    if window < 1 or stride < 1:
        raise SizeError("window and stride must be positive")
    h, w = f.height, f.width
    if window > min(h, w):
        raise SizeError(f"window {window} exceeds image {h}x{w}")
    ys = _window_starts(h, window, stride)
    xs = _window_starts(w, window, stride)

    def score_at(band: np.ndarray, x: int) -> float:
        patch = FeatureTensor(band[:, :, x : x + window])
        try:
            return aliasing_score(patch, cutoff, mode="per_channel_mean")
        except UndefinedRatioError:
            return 0.0  # zero-power window carries no aliasing energy

    scores, pending, read_to = [], [], 0
    with ThreadPoolExecutor(max_workers=worker_count()) as pool:
        for y in ys:
            # a stride past the window skips rows; read them, a band at a
            # time, only so that they are checked
            for g in range(read_to, y, window):
                f.rows(g, min(g + window, y))
            band = f.rows(y, y + window)
            read_to = y + window
            done, pending = pending, [pool.submit(score_at, band, x) for x in xs]
            scores += [s.result() for s in done]  # frees the previous band
        scores += [s.result() for s in pending]

    grid = np.reshape(scores, (len(ys), len(xs)))
    values = grid[np.ix_(_nearest(ys, window, h), _nearest(xs, window, w))]
    return ScoreMap(values, window, stride, cutoff.cutoff)


def pixel_cross_entropy(probs: FeatureTensor, gt: LabelMask) -> np.ndarray:
    """Per-pixel -log p(true class); ignored pixels come back as NaN.

    p is clamped to the smallest normal float64 before the log, so a true
    class given probability 0 costs -log(tiny) ~= 708.4 rather than +inf.
    """
    c, h, w = probs.data.shape
    if (h, w) != gt.data.shape:
        raise ShapeError(
            f"probability grid {probs.data.shape} does not match mask "
            f"{gt.data.shape}"
        )
    data = probs.data
    if np.any(data < -1e-6) or np.any(np.abs(data.sum(axis=0) - 1.0) > 1e-6):
        raise ValidationError("per-pixel probabilities do not form a simplex")
    gt.validate_classes(c)
    labels = gt.data
    valid = np.ones((h, w), dtype=bool)
    if gt.ignore_value is not None:
        valid = labels != gt.ignore_value
    out = np.full((h, w), np.nan)
    safe_labels = np.where(valid, labels, 0).astype(np.int64)
    picked = np.take_along_axis(data, safe_labels[None, :, :], axis=0)[0]
    out[valid] = -np.log(np.maximum(picked[valid], np.finfo(np.float64).tiny))
    return out


@dataclass(frozen=True)
class BinnedCurve:
    """Equal-width bins over [0, 1] with per-bin counts and means."""

    edges: np.ndarray
    counts: np.ndarray
    means: np.ndarray  # NaN where empty
    type_counts: dict[str, np.ndarray] = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    @property
    def n_bins(self) -> int:
        return len(self.counts)

    def rows(self) -> list[dict]:
        out = []
        for i in range(self.n_bins):
            row = {
                "bin_lo": float(self.edges[i]),
                "bin_hi": float(self.edges[i + 1]),
                "count": int(self.counts[i]),
                "mean": None if np.isnan(self.means[i]) else float(self.means[i]),
            }
            for name, counts in self.type_counts.items():
                row[f"count_{name}"] = int(counts[i])
            out.append(row)
        return out


def _bin_index(scores: np.ndarray, n_bins: int) -> np.ndarray:
    idx = np.floor(scores * n_bins).astype(np.int64)
    return np.clip(idx, 0, n_bins - 1)


def bin_by_score(
    score: ScoreMap, value: np.ndarray, mask: BinaryMask, n_bins: int = 20
) -> BinnedCurve:
    """Mean of `value` per score bin, over pixels where `mask` is set."""
    if n_bins < 2:
        raise SizeError("n_bins must be >= 2")
    value = np.asarray(value, dtype=np.float64)
    if score.values.shape != value.shape or score.values.shape != mask.bits.shape:
        raise ShapeError("score, value, and mask shapes must match")
    select = mask.bits & ~np.isnan(value)
    idx = _bin_index(score.values[select], n_bins)
    vals = value[select]
    counts = np.bincount(idx, minlength=n_bins)
    sums = np.bincount(idx, weights=vals, minlength=n_bins)
    means = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    edges = np.linspace(0.0, 1.0, n_bins + 1)
    return BinnedCurve(edges, counts, means, meta=dict(score.metadata()))


def _count_by_bin(
    scores: np.ndarray, select: np.ndarray, n_bins: int, block: int = 1 << 16
) -> np.ndarray:
    """Bin counts of `scores` where `select` is set, taken in blocks of rows
    of about `block` pixels, so the selected scores and their bin indexes
    never span the image.  `_bin_index` works element by element, so the
    counts do not depend on the blocks."""
    counts = np.zeros(n_bins, dtype=np.intp)
    for rows in row_blocks(scores.shape, block):
        counts += np.bincount(_bin_index(scores[rows][select[rows]], n_bins), minlength=n_bins)
    return counts


def error_type_distribution(
    pairs: Iterable[tuple[int, BandPair]],
    score: ScoreMap,
    d: int,
    n_bins: int = 20,
) -> BinnedCurve:
    """Histogram of boundary error types per score bin.

    `pairs` is `class_band_pairs(pred, gt, d)`; a pixel claimed by several
    classes counts once, as in `error_type_masks`.
    """
    if n_bins < 2:
        raise SizeError("n_bins must be >= 2")
    edges = np.linspace(0.0, 1.0, n_bins + 1)
    type_counts = {
        name: _count_by_bin(score.values, pixels, n_bins)
        for name, pixels in error_type_masks(pairs, score.values.shape).items()
    }
    counts = sum(type_counts.values())
    means = np.full(n_bins, np.nan)
    meta = dict(score.metadata())
    meta["band_width"] = d
    return BinnedCurve(edges, counts, means, type_counts, meta)
