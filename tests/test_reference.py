"""The benchmark's reference as a randomized end-to-end oracle for masks.

`bench/reference.py` computes every output the benchmark checks from the
documented definitions, with numpy and scipy's EDT and without
alias_scope; the benchmark runs it at three fixed seeds and shapes.  Here
it is imported read-only and compared with `metrics` and
`analyze --score --probs --pred --gt`, run through `cli.main`, on random
label pairs up to 40 x 40 with ignore strips and scattered ignored
pixels.  Both sides divide the same integers and sum the same values in
pixel order, so every count, ratio and mean must agree exactly.

`analyze --features --probs --pred --gt` is compared with the
reference's `window_score_map` too.  Windowed scores differ from the
reference's in their last bits, so the map mean agrees within 1e-12 and
a pixel within 1e-9 of a bin edge may move to the next bin: every count
agrees within twice the pixels `near_bin_edge` finds, and exactly, with
every cross-entropy mean, when it finds none.
"""

import contextlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from alias_scope.arrays import write_npy
from alias_scope.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))  # reference.py imports its neighbour inputs.py
try:
    import reference
finally:
    sys.path.remove(str(BENCH))

IGNORE = reference.IGNORE


def _ignore(rng: np.random.Generator, labels: np.ndarray) -> np.ndarray:
    """`labels` with a 255 strip along a random side, up to 3 pixels
    deep, and up to a tenth of the pixels set to 255 at random."""
    h, w = labels.shape
    depth = rng.integers(0, 4)
    strip = [np.s_[:depth], np.s_[h - depth :], np.s_[:, :depth], np.s_[:, w - depth :]]
    labels[strip[rng.integers(4)]] = IGNORE
    labels[rng.random((h, w)) < rng.uniform(0.0, 0.1)] = IGNORE
    return labels


def label_pair(seed: int, h: int, w: int, n_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """(pred, gt): blocky gt labels with cells 1-6 pixels wide, pred = gt
    with up to a third of its pixels relabelled, and ignored pixels in
    each.  One pixel is labelled in both, so gt has a class that mIoU
    averages over."""
    rng = np.random.default_rng(seed)
    cell = rng.integers(1, 7)
    cells = rng.integers(0, n_classes, (h // cell + 1, w // cell + 1))
    gt = cells.repeat(cell, 0).repeat(cell, 1)[:h, :w].astype(np.uint8)
    pred = gt.copy()
    noisy = rng.random((h, w)) < rng.uniform(0.0, 0.3)
    pred[noisy] = rng.integers(0, n_classes, np.count_nonzero(noisy))
    pred, gt = _ignore(rng, pred), _ignore(rng, gt)
    y, x = rng.integers(h), rng.integers(w)
    pred[y, x] = gt[y, x] = rng.integers(n_classes)
    return pred, gt


def run_report(*argv) -> dict:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main([str(a) for a in argv]) == 0, argv
    return json.loads(out.getvalue())["result"]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 40), st.integers(1, 40), st.integers(1, 25), st.integers(1, 6),
       st.integers(2, 20), st.integers(0, 2**32 - 1))
def test_masks_match_the_benchmark_reference(h, w, n_classes, d, bins, seed):
    pred, gt = label_pair(seed, h, w, n_classes)
    rng = np.random.default_rng(seed + 1)
    score = rng.random((h, w))
    logits = rng.standard_normal((n_classes, h, w))
    probs = np.exp(logits) / np.exp(logits).sum(axis=0)
    with tempfile.TemporaryDirectory() as folder:
        paths = {}
        for name, arr in (("pred", pred), ("gt", gt), ("score", score), ("probs", probs)):
            paths[name] = Path(folder) / f"{name}.npy"
            write_npy(paths[name], arr)
        metrics = run_report("metrics", paths["pred"], paths["gt"], "--band-width", d)
        curves = run_report(
            "analyze", "--score", paths["score"], "--probs", paths["probs"], "--pred", paths["pred"],
            "--gt", paths["gt"], "--band-width", d, "--bins", bins,
        )["curves"]

    want = reference.segmentation(pred, gt, d)
    assert metrics["per_class"] == {str(c): r for c, r in want["per_class"].items()}
    assert metrics["mean"] == want["mean"]
    assert metrics["miou"] == want["miou"]
    assert metrics["n_classes"] == want["n_classes"]

    # the cross-entropy band as the benchmark's workloads build it: the
    # union of every gt class's band
    gt_bands = np.zeros(gt.shape, dtype=bool)
    for c in np.unique(gt[gt != IGNORE]):
        gt_bands |= reference.band(gt == c, d)
    counts, means = reference.binned_mean(score, reference.cross_entropy(probs, gt), gt_bands, bins)
    ce = curves["boundary_cross_entropy"]
    assert [row["count"] for row in ce] == counts
    assert [row["mean"] for row in ce] == means

    types = curves["error_type_distribution"]
    for key, want_counts in reference.type_counts(score, want["tags"], bins).items():
        assert [row[key] for row in types] == want_counts, key


@settings(max_examples=150, deadline=None)
@given(st.integers(9, 29), st.integers(9, 29), st.integers(1, 3), st.integers(1, 9),
       st.integers(1, 9), st.sampled_from([math.sqrt(2) / 4, 0.25]) | st.floats(0.01, 0.5),
       st.integers(2, 20), st.integers(0, 2**32 - 1))
def test_feature_maps_match_the_benchmark_reference(h, w, c, window, stride, cutoff, bins, seed):
    pred, gt = label_pair(seed, h, w, 5)
    rng = np.random.default_rng(seed + 1)
    features = rng.standard_normal((c, h, w)).astype("<f4")
    y, x = rng.integers(h), rng.integers(w)
    features[rng.integers(c), y : y + rng.integers(h), x : x + rng.integers(w)] = 0.0  # no-power windows
    logits = rng.standard_normal((5, h, w))
    probs = np.exp(logits) / np.exp(logits).sum(axis=0)
    d = int(rng.integers(1, 4))
    with tempfile.TemporaryDirectory() as folder:
        paths = {}
        for name, arr in (("pred", pred), ("gt", gt), ("features", features), ("probs", probs)):
            paths[name] = Path(folder) / f"{name}.npy"
            write_npy(paths[name], arr)
        report = run_report(
            "analyze", "--features", paths["features"], "--probs", paths["probs"],
            "--pred", paths["pred"], "--gt", paths["gt"], "--window", window,
            "--stride-px", stride, "--cutoff", cutoff, "--band-width", d, "--bins", bins,
        )

    score = reference.window_score_map(features, window, stride, cutoff)
    assert abs(report["score_map"]["mean"] - score.mean()) <= 1e-12
    near = reference.near_bin_edge(score, bins)
    gt_bands = np.zeros(gt.shape, dtype=bool)
    for label in np.unique(gt[gt != IGNORE]):
        gt_bands |= reference.band(gt == label, d)
    counts, means = reference.binned_mean(score, reference.cross_entropy(probs, gt), gt_bands, bins)
    ce = report["curves"]["boundary_cross_entropy"]
    types = report["curves"]["error_type_distribution"]
    pairs = [([row["count"] for row in ce], counts)]
    for key, want_counts in reference.type_counts(score, reference.segmentation(pred, gt, d)["tags"], bins).items():
        pairs.append(([row[key] for row in types], want_counts))
    for got_counts, want_counts in pairs:
        assert max(abs(a - b) for a, b in zip(got_counts, want_counts, strict=True)) <= 2 * near
    if near == 0:
        assert [row["mean"] for row in ce] == means
