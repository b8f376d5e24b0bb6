"""Metamorphic properties through `cli.main`.

The oracles gate each layer and the golden file gates bytes at fixed
inputs; these properties gate what neither sees: an axis swap, a flipped
orientation or a class-order slip in a fast path.  Each draws inputs up
to 40 x 40, runs the command on them and on a transformed copy, and
relates the two reports.  "Exactly" means bit for bit.  Where a
transform reorders a sum of scores (the map mean, the mean over
classes), the bound is 1e-15.  Where it reorders the FFT passes or the
high-band sum of a spectrum, it is `REORDERED`.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alias_scope.arrays import read_npy, write_npy
from alias_scope.cli import main

ORIENTATIONS = {
    "transpose": lambda a: a.swapaxes(-1, -2),
    "flip rows": lambda a: a[..., ::-1, :],
    "flip columns": lambda a: a[..., ::-1],
}
SEEDS = st.integers(0, 2**32 - 1)
# transposing features swaps the order of the two FFT passes and of the
# high-band sum; on up to 4 x 40 x 40 inputs, scores of 3000 random
# transposed cases differed from the original by up to 2.4e-15
REORDERED = 1e-14


class Run:
    """Writes arrays to a temp folder and runs commands on them."""

    def __init__(self, folder: str):
        self.folder = Path(folder)

    def put(self, name: str, arr: np.ndarray) -> Path:
        path = self.folder / f"{name}.npy"
        write_npy(path, np.ascontiguousarray(arr))
        return path

    def result(self, *argv) -> dict:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main([str(a) for a in argv]) == 0, argv
        return json.loads(out.getvalue())["result"]


@contextlib.contextmanager
def run():
    with tempfile.TemporaryDirectory() as folder:
        yield Run(folder)


def label_pair(seed: int, h: int, w: int, n_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """(pred, gt): blocky gt labels with an ignore strip along one random
    side, and pred = gt with a tenth of its pixels relabelled."""
    rng = np.random.default_rng(seed)
    cells = rng.integers(0, n_classes, (h // 4 + 1, w // 4 + 1))
    gt = cells.repeat(4, 0).repeat(4, 1)[:h, :w].astype(np.uint8)
    pred = gt.copy()
    noisy = rng.random((h, w)) < 0.1
    pred[noisy] = rng.integers(0, n_classes, np.count_nonzero(noisy))
    strip = [np.s_[:2], np.s_[-2:], np.s_[:, :2], np.s_[:, -2:]][rng.integers(4)]
    gt[strip] = 255
    return pred, gt


def features(seed: int, shape) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal(shape)


# --- masks


@settings(max_examples=25, deadline=None)
@given(st.integers(8, 40), st.integers(8, 40), st.integers(2, 5), st.integers(1, 4),
       st.sampled_from(sorted(ORIENTATIONS)), SEEDS)
def test_metrics_under_orientation(h, w, n_classes, d, orientation, seed):
    # with pred and gt turned alike, every band and count is turned with
    # them: the report is equal exactly
    pred, gt = label_pair(seed, h, w, n_classes)
    turn = ORIENTATIONS[orientation]
    with run() as r:
        base = r.result("metrics", r.put("p", pred), r.put("g", gt), "--band-width", d)
        turned = r.result("metrics", r.put("p2", turn(pred)), r.put("g2", turn(gt)), "--band-width", d)
    assert turned == base


@settings(max_examples=25, deadline=None)
@given(st.integers(8, 40), st.integers(8, 40), st.integers(2, 5), st.integers(1, 4),
       st.randoms(use_true_random=False), SEEDS)
def test_metrics_under_class_relabelling(h, w, n_classes, d, random, seed):
    # the per-class entries move with their ids exactly; the means over
    # classes are summed in id order, so they agree within 1e-15
    pred, gt = label_pair(seed, h, w, n_classes)
    perm = np.arange(256, dtype=np.uint8)  # the ignore label 255 stays
    perm[:n_classes] = random.sample(range(n_classes), n_classes)
    with run() as r:
        base = r.result("metrics", r.put("p", pred), r.put("g", gt), "--band-width", d)
        moved = r.result("metrics", r.put("p2", perm[pred]), r.put("g2", perm[gt]), "--band-width", d)
    assert moved["per_class"] == {str(perm[int(c)]): v for c, v in base["per_class"].items()}
    assert abs(moved["miou"] - base["miou"]) <= 1e-15
    assert moved["mean"].keys() == base["mean"].keys()
    for key, value in base["mean"].items():
        assert abs(moved["mean"][key] - value) <= 1e-15


@settings(max_examples=25, deadline=None)
@given(st.integers(8, 40), st.integers(8, 40), st.integers(2, 5), st.integers(1, 4),
       st.sampled_from(sorted(ORIENTATIONS)), SEEDS)
def test_analyze_score_under_orientation(h, w, n_classes, d, orientation, seed):
    # the score map, pred and gt turned alike: every binned error count is
    # equal exactly; the map mean is summed in another order, within 1e-15
    pred, gt = label_pair(seed, h, w, n_classes)
    score = np.random.default_rng(seed).uniform(0.0, 1.0, (h, w))
    turn = ORIENTATIONS[orientation]
    with run() as r:
        argv = ["--band-width", d, "--bins", 10]
        base = r.result("analyze", "--score", r.put("s", score), "--pred", r.put("p", pred),
                        "--gt", r.put("g", gt), *argv)
        turned = r.result("analyze", "--score", r.put("s2", turn(score)), "--pred", r.put("p2", turn(pred)),
                          "--gt", r.put("g2", turn(gt)), *argv)
    assert turned["curves"] == base["curves"]
    assert turned["band_width"] == base["band_width"]
    mean = turned["score_map"].pop("mean")
    assert abs(mean - base["score_map"].pop("mean")) <= 1e-15
    assert turned["score_map"] == base["score_map"]


# --- features


SCORE_FIELDS = ("aliasing_score", "per_channel_mean", "global")


def assert_scores_close(got: dict, want: dict, tol: float) -> None:
    for key in SCORE_FIELDS:
        assert abs(got[key] - want[key]) <= tol, key


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 4), st.integers(1, 40), st.integers(1, 40),
       st.sampled_from([0.1, 0.25, 0.4]), SEEDS)
def test_score_under_scaling_and_symmetries(c, h, w, cutoff, seed):
    # doubling scales every power by exactly 4; transposing, a circular
    # shift and a channel permutation keep each channel's power, computed
    # and summed in another order
    f = features(seed, (c, h, w))
    rng = np.random.default_rng(seed)
    shift = (int(rng.integers(h)), int(rng.integers(w)))
    with run() as r:
        def score(name, arr):
            return r.result("score", r.put(name, arr), "--cutoff", cutoff)

        base = score("f", f)
        assert score("double", 2 * f) == base
        for name, arr in [("transpose", f.swapaxes(1, 2)), ("shift", np.roll(f, shift, axis=(1, 2)))]:
            got = score(name, arr)
            assert_scores_close(got, base, REORDERED)
            assert np.allclose(got["per_channel"], base["per_channel"], rtol=0, atol=REORDERED)
        order = rng.permutation(c)
        permuted = score("permuted", f[order])
        assert_scores_close(permuted, base, 1e-15)
        assert np.allclose(permuted["per_channel"], np.array(base["per_channel"])[order], rtol=0, atol=1e-15)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 4), st.integers(2, 40), st.integers(2, 40),
       st.sampled_from([0.1, 0.25, 0.4]), SEEDS)
def test_score_of_daf_output_is_zero(c, h, w, cutoff, seed):
    # daf zeroes the band the score measures: what is left is rounding
    with run() as r:
        out = r.folder / "low.npy"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["daf", str(r.put("f", features(seed, (c, h, w)))), "--cutoff", str(cutoff),
                         "--out", str(out)]) == 0
        if not np.any(read_npy(out)):  # all power was in the band: no score
            return
        result = r.result("score", out, "--cutoff", cutoff)
    assert max(result[key] for key in SCORE_FIELDS) < 1e-28


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 4), st.integers(1, 40), st.integers(1, 40),
       st.sampled_from(["<f4", "<f8"]), st.sampled_from([0.1, 0.25, 0.4]), SEEDS)
@example(3, 40, 40, "<f4", 0.25, 0)
def test_split_outputs_sum_to_the_input(c, h, w, dtype, cutoff, seed):
    # high is the float64 input minus low, so adding low back rounds once:
    # within an ulp of the larger magnitude
    f = features(seed, (c, h, w)).astype(dtype)
    with run() as r:
        low, high = r.folder / "low.npy", r.folder / "high.npy"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["split", str(r.put("f", f)), "--cutoff", str(cutoff),
                         "--out-low", str(low), "--out-high", str(high)]) == 0
        low, high = read_npy(low), read_npy(high)
    f = f.astype(np.float64)
    scale = max(np.abs(f).max(), np.abs(low).max())
    assert np.abs(low + high - f).max() <= 1e-15 * scale


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 3), st.integers(8, 40), st.integers(2, 8), st.integers(1, 8), SEEDS)
def test_analyze_features_on_transposed_square_features(c, n, window, stride, seed):
    # the windows of the transpose are the transposed windows, so the map
    # is the transposed map, each score computed in another order
    window = min(window, n)
    f = features(seed, (c, n, n))
    with run() as r:
        def score_map(name, arr):
            return r.result("analyze", "--features", r.put(name, arr), "--cutoff", 0.25,
                            "--window", window, "--stride-px", stride)["score_map"]

        base, turned = score_map("f", f), score_map("t", f.swapaxes(1, 2))
    assert abs(turned.pop("mean") - base.pop("mean")) <= REORDERED
    assert turned == base
