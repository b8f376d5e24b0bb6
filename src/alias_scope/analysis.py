"""Correlation machinery: per-pixel aliasing-score maps, per-pixel
cross-entropy, and binned statistics linking the two.

The per-pixel score map is a declared reconstruction: scores are computed
on sliding windows (the `analyze` report records window, stride and
cutoff), assigned to window centers, and spread to the remaining pixels
by nearest computed center.  The centers form a grid (center rows x
center columns), so a pixel's nearest center is its nearest center row
crossed with its nearest center column, ties going to the lower one.  The
windows of one center row lie in one (C, window, W) band of rows, so the
map reads the features one band at a time, from a FeatureTensor in memory
or from a FeatureFile on disk, and holds one band: from a file, each band
row moves the rows it shares with the last up in place and reads only the
new ones, so each row of the file is read once.  The map is kept as its
window grid and the two nearest-center index vectors (WindowGrid), and
is never whole.

Binning takes its per-pixel inputs the same way, a block of rows at a
time: the score map expanded from its WindowGrid or read from its file
(ScoreFile), both of which give `shape`, `rows` and `mean`, the
cross-entropy computed from probabilities in memory or in their file, and
the masks from bools or from packed rows.
"""

from __future__ import annotations

import functools
import os
from collections.abc import Iterable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .antialias import CutoffSpec, aliasing_score
from .arrays import BinaryMask, FeatureFile, FeatureTensor, LabelMask, ScoreFile, row_blocks
from .arrays import pairwise_mean
from .errors import ShapeError, SizeError, UndefinedRatioError, ValidationError
from .segmetrics import BandPair, PackedMask, error_type_masks


@dataclass(frozen=True)
class WindowGrid:
    """A score map as its window scores: the (len(ys), len(xs)) grid of
    window-center scores, and for each pixel row and column the index of
    its nearest center row and column.  The (H, W) map is expanded a block
    of rows at a time and is never whole."""

    scores: np.ndarray  # (len(ys), len(xs)) float
    ny: np.ndarray  # (H,) center-row index of each pixel row
    nx: np.ndarray  # (W,) center-column index of each pixel column

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.ny), len(self.nx)

    def rows(self, y0: int, y1: int) -> np.ndarray:
        """Rows y0 .. y1 - 1 of the map, expanded from the grid."""
        return self.scores[np.ix_(self.ny[y0:y1], self.nx)]

    def mean(self) -> float:
        """`np.mean` of the expanded map, bit for bit, each leaf expanded
        from the grid a run of one row at a time."""
        width = len(self.nx)

        def fill(out: np.ndarray, at: int) -> None:
            y, x = divmod(at, width)
            done = 0
            while done < out.size:
                n = min(width - x, out.size - done)
                out[done : done + n] = self.scores[self.ny[y], self.nx[x : x + n]]
                done, y, x = done + n, y + 1, 0

        return pairwise_mean(len(self.ny) * width, fill)

    @property
    def values(self) -> np.ndarray:
        """The whole (H, W) map, for library callers: the commands take
        it a block of rows at a time."""
        return self.rows(0, len(self.ny))


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
) -> WindowGrid:
    """Sliding-window aliasing scores spread to every pixel.

    Each window's per-channel-mean score lands on its center pixel;
    pixels without a computed center take the nearest one.  The map is
    returned as its window grid (WindowGrid), expanded on demand.  The windows
    are taken from one (C, window, W) band of rows per window row: views
    of a tensor in memory, or from a file one buffer that each band row
    refills once the pool has scored its windows, reading each row once
    (`FeatureFile.bands`).  Rows that no window covers (a stride past the
    window) are read and checked too.
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
            # errstate is per thread; band_power reports an overflow itself
            with np.errstate(over="ignore", invalid="ignore"):
                return aliasing_score(patch, cutoff, mode="per_channel_mean")
        except UndefinedRatioError:
            return 0.0  # zero-power window carries no aliasing energy

    grid = np.empty((len(ys), len(xs)))
    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        for band, scores in zip(f.bands(ys, window), grid):
            scores[:] = list(pool.map(functools.partial(score_at, band), xs))

    return WindowGrid(grid, _nearest(ys, window, h), _nearest(xs, window, w))


class PixelCrossEntropy:
    """Per-pixel -log p(true class) of a (C, H, W) probability tensor held
    in memory (FeatureTensor) or left in its file (FeatureFile), computed a
    block of rows at a time; ignored pixels come back as NaN.

    p is clamped to the smallest normal float64 before the log, so a true
    class given probability 0 costs -log(tiny) ~= 708.4 rather than +inf.
    The grids must match and every label must be below C, checked here once;
    each block of probabilities must form a simplex, checked as it is read.
    """

    def __init__(self, probs: FeatureTensor | FeatureFile, gt: LabelMask):
        grid = (probs.channels, probs.height, probs.width)
        if grid[1:] != gt.data.shape:
            raise ShapeError(f"probability grid {grid} does not match mask {gt.data.shape}")
        gt.validate_classes(probs.channels)
        self.probs, self.gt = probs, gt

    @property
    def shape(self) -> tuple[int, int]:
        return self.gt.data.shape

    def rows(self, y0: int, y1: int) -> np.ndarray:
        """Rows y0 .. y1 - 1, from blocks of about 65536 probabilities, so
        the rows read at once do not grow with C."""
        out = np.full((y1 - y0, self.gt.width), np.nan)
        for rows in row_blocks((self.probs.channels, y1 - y0, self.gt.width)):
            a, b = y0 + rows.start, y0 + rows.stop
            data = self.probs.rows(a, b)
            if np.any(data < -1e-6) or np.any(np.abs(data.sum(axis=0) - 1.0) > 1e-6):
                raise ValidationError("per-pixel probabilities do not form a simplex")
            labels = self.gt.data[a:b]
            valid = np.ones(labels.shape, dtype=bool)
            if self.gt.ignore_value is not None:
                valid = labels != self.gt.ignore_value
            safe_labels = np.where(valid, labels, 0).astype(np.int64)
            picked = np.take_along_axis(data, safe_labels[None, :, :], axis=0)[0]
            out[rows][valid] = -np.log(np.maximum(picked[valid], np.finfo(np.float64).tiny))
        return out


def pixel_cross_entropy(probs: FeatureTensor | FeatureFile, gt: LabelMask) -> np.ndarray:
    """The whole (H, W) map of `PixelCrossEntropy`."""
    return PixelCrossEntropy(probs, gt).rows(0, gt.height)


@dataclass(frozen=True)
class BinnedCurve:
    """Equal-width bins over [0, 1] with per-bin counts and means."""

    counts: np.ndarray
    means: np.ndarray  # NaN where empty
    type_counts: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def n_bins(self) -> int:
        return len(self.counts)

    @property
    def edges(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n_bins + 1)

    def rows(self) -> list[dict]:
        out, edges = [], self.edges
        for i in range(self.n_bins):
            row = {
                "bin_lo": float(edges[i]),
                "bin_hi": float(edges[i + 1]),
                "count": int(self.counts[i]),
                "mean": None if np.isnan(self.means[i]) else float(self.means[i]),
            }
            for name, counts in self.type_counts.items():
                row[f"count_{name}"] = int(counts[i])
            out.append(row)
        return out


def _bin_index(scores: np.ndarray, n_bins: int) -> np.ndarray:
    x = scores * n_bins  # floored, and its indexes clipped, in place
    idx = np.floor(x, out=x).astype(np.int64)
    return np.clip(idx, 0, n_bins - 1, out=idx)


def bin_by_score(
    score: WindowGrid | ScoreFile,
    value: np.ndarray | PixelCrossEntropy,
    mask: BinaryMask | PackedMask,
    n_bins: int = 20,
) -> BinnedCurve:
    """Mean of `value` per score bin, over pixels where `mask` is set and
    `value` is not NaN.

    The score, value and mask are taken a block of rows at a time.  The
    counts are integers; the sums go into one accumulator with np.add.at,
    which adds in pixel order as one np.bincount(weights=...) over the
    whole grid does, so the means do not depend on the blocks (summing
    per-block bincounts would round differently).
    """
    if n_bins < 2:
        raise SizeError("n_bins must be >= 2")
    if not isinstance(value, PixelCrossEntropy):
        value = np.asarray(value, dtype=np.float64)
    if score.shape != value.shape or score.shape != mask.shape:
        raise ShapeError("score, value, and mask shapes must match")
    counts = np.zeros(n_bins, dtype=np.intp)
    sums = np.zeros(n_bins)
    for rows in row_blocks(score.shape):
        y0, y1 = rows.start, rows.stop
        vals = value.rows(y0, y1) if isinstance(value, PixelCrossEntropy) else value[rows]
        select = mask.rows(y0, y1) & ~np.isnan(vals)
        idx = _bin_index(score.rows(y0, y1)[select], n_bins)
        counts += np.bincount(idx, minlength=n_bins)
        np.add.at(sums, idx, vals[select])
    means = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    return BinnedCurve(counts, means)


def _count_by_bin(
    score: WindowGrid | ScoreFile,
    masks: dict[str, BinaryMask | PackedMask],
    n_bins: int,
    block: int = 1 << 16,
) -> dict[str, np.ndarray]:
    """Bin counts of the scores under each mask, taken in blocks of rows of
    about `block` pixels: each block of scores is read once for every
    mask, and no selected scores or bin indexes span the image.
    `_bin_index` works element by element, so the counts do not depend on
    the blocks."""
    counts = {name: np.zeros(n_bins, dtype=np.intp) for name in masks}
    for rows in row_blocks(score.shape, block):
        scores = score.rows(rows.start, rows.stop)
        for name, mask in masks.items():
            picked = scores[mask.rows(rows.start, rows.stop)]
            counts[name] += np.bincount(_bin_index(picked, n_bins), minlength=n_bins)
        del scores  # not held while the next block is read
    return counts


def error_type_distribution(
    pairs: Iterable[tuple[int, BandPair]],
    score: WindowGrid | ScoreFile,
    n_bins: int = 20,
) -> BinnedCurve:
    """Histogram of boundary error types per score bin.

    `pairs` is `class_band_pairs(pred, gt, d)`; a pixel claimed by several
    classes counts once, as in `error_type_masks`.
    """
    if n_bins < 2:
        raise SizeError("n_bins must be >= 2")
    type_counts = _count_by_bin(score, error_type_masks(pairs, score.shape), n_bins)
    counts = sum(type_counts.values())
    return BinnedCurve(counts, np.full(n_bins, np.nan), type_counts)
