"""Seeded benchmark inputs, built with numpy and scipy only.

Nothing here imports alias_scope: the inputs must not depend on the code
being measured.  Every generator takes a numpy Generator, so one seed fixes
every array a workload uses.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage
from scipy.special import softmax

IGNORE = 255
# Tones in the high-frequency patches lie above this frequency, just over
# the sqrt(2)/4 ~ 0.354 cutoff the workloads use, so they count as aliasing.
PATCH_MIN_FREQ = 0.36


def one_over_f(rng: np.random.Generator, shape) -> np.ndarray:
    """(C, H, W) float32 field with a 1/f amplitude spectrum.

    A few localized high-frequency patches (tones above PATCH_MIN_FREQ
    under a Gaussian window) are added to random channels, so windowed
    aliasing scores vary across the image instead of being flat.
    """
    c, h, w = shape
    fy = np.fft.fftfreq(h)[:, None]
    fx = np.fft.fftfreq(w)[None, :]
    amplitude = 1.0 / np.maximum(np.hypot(fy, fx), 1.0 / max(h, w))
    noise = rng.standard_normal((c, h, w))
    field = np.fft.ifft2(np.fft.fft2(noise) * amplitude).real
    field /= field.std(axis=(1, 2), keepdims=True)

    yy = np.arange(h)[:, None]
    xx = np.arange(w)[None, :]
    for _ in range(max(2, (h * w) // 4096)):
        cy, cx = rng.uniform(0, h), rng.uniform(0, w)
        radius = rng.uniform(0.04, 0.12) * min(h, w) + 1.0
        window = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * radius**2))
        ky, kx = rng.uniform(PATCH_MIN_FREQ, 0.5, size=2) * rng.choice([-1, 1], size=2)
        tone = np.cos(2 * np.pi * (ky * yy + kx * xx) + rng.uniform(0, 2 * np.pi))
        channels = rng.random(c) < 0.5
        field[channels] += rng.uniform(1.0, 3.0) * window * tone
    return field.astype("<f4")


def smooth_unit_map(rng: np.random.Generator, h: int, w: int) -> np.ndarray:
    """(H, W) float32 map strictly inside (0, 1), smooth at ~1/16 image scale."""
    raw = ndimage.gaussian_filter(rng.standard_normal((h, w)), sigma=max(1.0, min(h, w) / 16))
    lo, hi = raw.min(), raw.max()
    return (0.02 + 0.96 * (raw - lo) / (hi - lo)).astype("<f4")


def voronoi_labels(rng: np.random.Generator, h: int, w: int, n_classes: int, cell: int):
    """Voronoi cells around jittered grid points ``cell`` pixels apart.

    Returns (labels, cells): the uint8 class map and the int cell-index map.
    Every class owns at least one cell.  A jittered grid, unlike uniform
    random points, keeps the total boundary length nearly the same from
    seed to seed, so the work a mask pair causes does not depend on the seed.
    """
    gy, gx = np.mgrid[cell // 2 : h : cell, cell // 2 : w : cell]
    jitter = rng.uniform(-0.4, 0.4, size=(2, *gy.shape)) * cell
    ys = np.clip(np.rint(gy + jitter[0]), 0, h - 1).astype(np.int64).ravel()
    xs = np.clip(np.rint(gx + jitter[1]), 0, w - 1).astype(np.int64).ravel()
    n_cells = ys.size
    seeds = np.ones((h, w), dtype=bool)
    seeds[ys, xs] = False
    cell_of_seed = np.full((h, w), -1, dtype=np.int64)
    cell_of_seed[ys, xs] = np.arange(n_cells)
    _, (iy, ix) = ndimage.distance_transform_edt(seeds, return_indices=True)
    cells = cell_of_seed[iy, ix]
    cell_class = np.concatenate(
        [np.arange(n_classes), rng.integers(0, n_classes, max(0, n_cells - n_classes))]
    )[:n_cells]
    rng.shuffle(cell_class)
    return cell_class[cells].astype(np.uint8), cells


def perturb_prediction(
    rng: np.random.Generator, labels: np.ndarray, cells: np.ndarray, n_classes: int
) -> np.ndarray:
    """A prediction that makes all three boundary error types.

    - displacement: labels resampled through a smooth displacement field;
    - merging: some cells take the class of a neighbouring cell;
    - false response: discs of a foreign class dropped inside regions.
    """
    h, w = labels.shape
    scale = min(h, w) / 512
    shift = 4.0 * scale + 1.0
    yy, xx = np.mgrid[0:h, 0:w]
    dy, dx = (
        ndimage.gaussian_filter(rng.standard_normal((h, w)), sigma=max(1.0, min(h, w) / 12))
        for _ in range(2)
    )
    dy *= shift / np.abs(dy).max()
    dx *= shift / np.abs(dx).max()
    sy = np.clip(np.rint(yy + dy), 0, h - 1).astype(np.int64)
    sx = np.clip(np.rint(xx + dx), 0, w - 1).astype(np.int64)
    pred = labels[sy, sx]
    warped_cells = cells[sy, sx]

    n_cells = int(cells.max()) + 1
    for cell in rng.choice(n_cells, size=max(1, n_cells // 10), replace=False):
        inside = warped_cells == cell
        ring = ndimage.binary_dilation(inside) & ~inside
        own = pred[inside]
        neighbours = pred[ring]
        if own.size == 0:
            continue
        neighbours = neighbours[neighbours != own[0]]
        if neighbours.size:
            pred[inside] = np.bincount(neighbours).argmax()

    for _ in range(max(2, (h * w) // 20000)):
        cy, cx = rng.integers(0, h), rng.integers(0, w)
        radius = rng.uniform(6, 12) * scale + 1.0
        disc = (yy - cy) ** 2 + (xx - cx) ** 2 <= radius**2
        foreign = (int(pred[cy, cx]) + rng.integers(1, n_classes)) % n_classes
        pred[disc] = foreign
    return pred.astype(np.uint8)


def mask_pair(rng: np.random.Generator, h: int, w: int, n_classes: int):
    """(pred, gt) uint8 masks; gt carries an ignore strip along its bottom."""
    labels, cells = voronoi_labels(rng, h, w, n_classes, cell=max(4, min(h, w) // 8))
    pred = perturb_prediction(rng, labels, cells, n_classes)
    gt = labels.copy()
    gt[h - max(1, h // 16):, :] = IGNORE
    return pred, gt


def softmax_probs(rng: np.random.Generator, pred: np.ndarray, n_classes: int) -> np.ndarray:
    """(K, H, W) float32 softmax of seeded logits that favour ``pred``."""
    h, w = pred.shape
    logits = rng.normal(0.0, 1.5, size=(n_classes, h, w))
    margin = smooth_unit_map(rng, h, w).astype(np.float64) * 6.0
    logits += margin * (np.arange(n_classes)[:, None, None] == pred)
    return softmax(logits, axis=0).astype("<f4")


def filter_bank(rng: np.random.Generator, n: int, c: int, k: int) -> np.ndarray:
    """(N, C, k, k) float32 bank of seeded filters, none of zero norm."""
    return rng.standard_normal((n, c, k, k)).astype("<f4")


def freqmix_params(rng: np.random.Generator, c: int) -> dict[str, np.ndarray]:
    """Prediction-head parameters (C x C fc, 3 x 3 conv per band) in the
    layout ``freqmix --params-dir`` reads."""
    k = 3
    out = {}
    for band in ("low", "high"):
        out[f"fc_{band}_weight"] = rng.normal(0.0, 1.0 / np.sqrt(c), (c, c))
        out[f"fc_{band}_bias"] = rng.normal(0.0, 0.1, c)
        out[f"conv_{band}_kernel"] = rng.normal(0.0, 0.3, (k, k))
        out[f"conv_{band}_bias"] = np.array(rng.normal(0.0, 0.1))
    return {name: arr.astype("<f4") for name, arr in out.items()}
