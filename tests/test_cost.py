"""Cost contract: the traced memory peak of every command, in one table.

Each case runs `cli.main` once to warm up (imports, caches, the parser),
then once under tracemalloc, on small fixed inputs.  A float command's
bound is in units of its largest float64 array: C*H*W*8 bytes for a
feature tensor, grid^2*8 for `response`, the float64 bank for `orth`.  The
mask commands, `esr` and `fold`, which read no array, and the commands
that stream blocks of channels, whose peak does not grow with C, are
bounded in MiB.  Each bound is the peak measured with numpy 2.4 plus
about 10%, except that `esr` and `fold`, which measure 9 KiB of argument
parsing and report text, get 0.02 MiB; the README "Memory" table lists
them.  Every
case runs with one score-map worker: each pool thread holds its own
window buffers, so with more the peak would depend on the core count.
`analyze --features` gets about 17%, the margin it needed while its band
reads and window scores overlapped in time.
"""

import contextlib
import io
import math
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from alias_scope import arrays
from alias_scope.arrays import write_npy
from alias_scope.cli import main
from alias_scope.freqmix import PARAM_FIELDS, WEIGHT_FIELDS

MIB = 2**20
FEATURES = (8, 128, 128)  # one float64 unit is 1 MiB
GRID = 512  # `response` map, 2 MiB of float64
BANK = (16, 16, 32, 32)  # 16 filters of 16384 taps, 2 MiB of float64
MASK = (256, 512)


def labels(n_classes: int, shape=MASK) -> np.ndarray:
    """32-pixel squares, 8 x 16 of them on MASK, with classes dealt
    round-robin."""
    h, w = shape
    rows, cols = np.arange(h)[:, None] // 32, np.arange(w)[None, :] // 32
    return ((rows * (w // 32) + cols) % n_classes).astype(np.uint8)


def probabilities(n_classes: int, shape=MASK, seed=0) -> np.ndarray:
    """A (C, H, W) `<f4` simplex from integer counts."""
    counts = np.random.default_rng(seed).integers(1, 9, (n_classes, *shape))
    return (counts / counts.sum(axis=0)).astype("<f4")


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cost")
    rng = np.random.default_rng(0)
    paths = {"dir": tmp}

    def put(name, arr):
        paths[name] = tmp / f"{name}.npy"
        write_npy(paths[name], arr)

    c, h, w = FEATURES
    put("feat", rng.standard_normal(FEATURES).astype("<f4"))
    put("bank", rng.standard_normal(BANK).astype("<f4"))
    put_freqmix_dirs(tmp, c, (h, w), rng)
    put("score", rng.uniform(0.0, 1.0, MASK).astype("<f4"))
    put("probs4", probabilities(4))
    for n in (4, 64):
        gt = labels(n)
        gt[-16:] = 255  # an ignore strip
        put(f"gt{n}", gt)
        put(f"pred{n}", np.roll(labels(n), 5, axis=1))
        if n == 4:  # the same labels as <i4
            put("gt4i4", gt.astype("<i4"))
            put("pred4i4", np.roll(labels(n), 5, axis=1).astype("<i4"))
    return paths


def put_freqmix_dirs(folder, c: int, plane, rng) -> None:
    """FreqMix `weights/` and `params/` under `folder`, for C channels of
    an (H, W) `plane`."""
    shapes = {"channel": (c,), "spatial": plane, "weight": (c, c), "bias": (c,), "kernel": (3, 3)}
    for sub, fields in (("weights", WEIGHT_FIELDS), ("params", PARAM_FIELDS)):
        (folder / sub).mkdir()
        for name in fields:
            kind = name.rsplit("_", 1)[1]
            shape = () if name.startswith("conv") and kind == "bias" else shapes[kind]
            write_npy(folder / sub / f"{name}.npy", rng.standard_normal(shape))


def traced_peak(argv) -> int:
    """Peak bytes traced over one warm `cli.main(argv)`, its report included."""
    argv = [str(a) for a in argv]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, argv
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def streamed(feat, out):
    """The commands that stream blocks of channels: command -> (argv, bound
    in MiB)."""
    cutoff = ["--cutoff", 0.25]
    return {
        "score": (["score", feat, *cutoff], 2.1),
        "daf": (["daf", feat, *cutoff, "--out", out / "daf.npy"], 1.5),
        "split": (["split", feat, *cutoff, "--out-low", out / "low.npy",
                   "--out-high", out / "high.npy"], 1.5),
        "blur": (["blur", feat, "--out", out / "blur.npy"], 1.4),
        "noise": (["noise", feat, "--sigma", 0.5, "--out", out / "noise.npy"], 0.92),
        "freqmix": (["freqmix", feat, *cutoff, "--weights-dir", out / "weights",
                     "--out", out / "mix.npy"], 2.5),
        "freqmix --params-dir": (["freqmix", feat, *cutoff, "--params-dir", out / "params",
                                  "--out", out / "mix.npy"], 2.65),
    }


def cases(p):
    """command -> (argv, bound in bytes)."""
    out = p["dir"]
    feat, unit = p["feat"], np.prod(FEATURES) * 8
    cutoff = ["--cutoff", 0.25]
    mask = ["--score", p["score"], "--pred", p["pred4"], "--gt", p["gt4"]]
    return {
        "esr": (["esr", "--kernel", 3, "--cin", 8, "--cout", 16, "--stride", 2], 0.02 * MIB),
        "fold": (["fold", "--freq", 0.4, "--stride", 2], 0.02 * MIB),
        **{name: (argv, bound * MIB) for name, (argv, bound) in streamed(feat, out).items()},
        "analyze --features": (["analyze", "--features", feat, *cutoff], 0.48 * unit),
        "response": (["response", "--builtin", "binomial3", "--grid", GRID,
                      "--map-out", out / "map.npy"], 1.65 * GRID**2 * 8),
        "orth": (["orth", p["bank"]], 3.3 * np.prod(BANK) * 8),
        "metrics": (["metrics", p["pred4"], p["gt4"]], 1.05 * MIB),
        "metrics <i4": (["metrics", p["pred4i4"], p["gt4i4"]], 1.45 * MIB),
        "analyze --score": (["analyze", *mask], 1.3 * MIB),
        "analyze --score --probs": (["analyze", *mask, "--probs", p["probs4"]], 2.5 * MIB),
    }


COMMANDS = [
    "esr", "fold", "score", "daf", "split", "blur", "noise", "freqmix", "freqmix --params-dir",
    "analyze --features", "response", "orth", "metrics", "metrics <i4",
    "analyze --score", "analyze --score --probs",
]


@pytest.fixture(autouse=True)
def one_worker(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 1)


@pytest.mark.parametrize("command", COMMANDS)
def test_command_peak_within_contract(files, command):
    argv, bound = cases(files)[command]
    peak = traced_peak(argv)
    assert peak <= bound, f"{command}: peak {peak / MIB:.2f} MiB, bound {bound / MIB:.2f} MiB"


@pytest.mark.parametrize("command", ["metrics", "analyze"])
def test_mask_peak_independent_of_class_count(files, command):
    # one class's band pair is held at a time, so 64 classes cost what 4 do
    def argv(n):
        pred, gt = files[f"pred{n}"], files[f"gt{n}"]
        if command == "metrics":
            return ["metrics", pred, gt]
        return ["analyze", "--score", files["score"], "--pred", pred, "--gt", gt]

    few, many = traced_peak(argv(4)), traced_peak(argv(64))
    assert many <= 1.25 * few, f"{few / MIB:.2f} MiB at 4 classes, {many / MIB:.2f} at 64"


@pytest.mark.parametrize("command", ["score", "daf", "split", "blur", "noise", "freqmix", "freqmix --params-dir"])
def test_streamed_peak_independent_of_channel_count(tmp_path, command):
    # one block of about 65536 values is held at a time, so 64 channels of
    # 128 x 128 cost what 4 do, which fit one block
    peaks = {}
    for c in (4, 64):
        folder = tmp_path / f"c{c}"
        folder.mkdir()
        rng = np.random.default_rng(c)
        feat = folder / "feat.npy"
        write_npy(feat, rng.standard_normal((c, 128, 128)).astype("<f4"))
        put_freqmix_dirs(folder, c, (128, 128), rng)
        peaks[c] = traced_peak(streamed(feat, folder)[command][0])
    assert peaks[64] <= 1.25 * peaks[4], f"{peaks[4] / MIB:.2f} MiB at C=4, {peaks[64] / MIB:.2f} at 64"


def features_peaks(tmp_path, shapes) -> list[int]:
    """The traced peak of `analyze --features` on `<f4` features of each shape."""
    peaks = []
    for i, shape in enumerate(shapes):
        path = tmp_path / f"feat{i}.npy"
        write_npy(path, np.random.default_rng(i).standard_normal(shape).astype("<f4"))
        peaks.append(traced_peak(["analyze", "--features", path, "--cutoff", 0.25]))
    return peaks


def test_features_peak_independent_of_height(tmp_path):
    # the features are read one band of window rows at a time and the map
    # is kept as its window grid, so the peak at H = 1024 is that at 128
    few, many = features_peaks(tmp_path, [(8, 128, 256), (8, 1024, 256)])
    assert many <= 1.25 * few, f"{few / MIB:.2f} MiB at H=128, {many / MIB:.2f} at 1024"


def test_features_peak_grows_in_width_by_its_band(tmp_path):
    # the (C, window, W) band of rows grows with W, and on its first read
    # so does the mask of its finiteness check: 5 bytes per <f4 value.
    # Nothing else may grow: the whole (H, W) map took 8 bytes per pixel
    narrow, wide = features_peaks(tmp_path, [(8, 128, 256), (8, 128, 2048)])
    band_growth = 5 * 8 * 32 * (2048 - 256)  # the default window is 32 rows
    growth = wide - narrow
    assert growth <= 1.1 * band_growth, f"{growth / MIB:.2f} MiB, band {band_growth / MIB:.2f}"


def test_probs_peak_independent_of_channel_count(tmp_path):
    # the probabilities are read about 65536 at a time, so the peak with
    # 64 channels is that with 4
    shape = (128, 256)
    score, gt = tmp_path / "score.npy", tmp_path / "gt.npy"
    write_npy(score, np.random.default_rng(1).uniform(0.0, 1.0, shape))
    write_npy(gt, labels(4, shape))
    peaks = {}
    for c in (4, 64):
        probs = tmp_path / f"probs{c}.npy"
        write_npy(probs, probabilities(c, shape, seed=c))
        argv = ["analyze", "--score", score, "--probs", probs, "--pred", gt, "--gt", gt]
        peaks[c] = traced_peak(argv)
    assert peaks[64] <= 1.25 * peaks[4], f"{peaks[4] / MIB:.2f} MiB at C=4, {peaks[64] / MIB:.2f} at 64"


def test_score_map_peak_below_the_map(tmp_path):
    # an external map is read a leaf of values at a time for its mean and a
    # block of rows at a time to bin, so on 1024 x 1024 |u1 masks the peak
    # stays below the 8 MiB float64 map itself
    shape = (1024, 1024)
    score, pred, gt = (tmp_path / f"{name}.npy" for name in ("score", "pred", "gt"))
    write_npy(score, np.random.default_rng(2).uniform(0.0, 1.0, shape))
    write_npy(gt, labels(4, shape))
    write_npy(pred, np.roll(labels(4, shape), 5, axis=1))
    peak = traced_peak(["analyze", "--score", score, "--pred", pred, "--gt", gt])
    assert peak < np.prod(shape) * 8, f"peak {peak / MIB:.2f} MiB"


# the inputs read more than once, by command: the params head's features
# once for the channel means and once to mix, and an external map once for
# its mean and once per curve
READ_TWICE_OR_MORE = {
    "freqmix --params-dir": {"feat": 2},
    "analyze --score": {"score": 2},
    "analyze --score --probs": {"score": 3},
}


@pytest.mark.parametrize("command", COMMANDS)
def test_each_input_read_once_per_pass(files, monkeypatch, command):
    # the bytes each command reads through NpyFile.read, per input, as a
    # multiple of that input's payload: every input once, except the
    # passes named in READ_TWICE_OR_MORE
    argv = [str(a) for a in cases(files)[command][0]]
    inputs = {}
    for flag, arg in zip(["", *argv], map(Path, argv)):
        if arg.is_dir():
            inputs.update((path, 1) for path in arg.glob("*.npy"))
        elif arg.suffix == ".npy" and flag not in ("--out", "--out-low", "--out-high", "--map-out"):
            inputs[arg] = 1
    for name, times in READ_TWICE_OR_MORE.get(command, {}).items():
        inputs[files[name]] = times
    read = dict.fromkeys(inputs, 0)
    real = arrays.NpyFile.read

    def counting(self, fh, out, at):
        read[Path(self.path)] = read.get(Path(self.path), 0) + out.nbytes
        return real(self, fh, out, at)

    monkeypatch.setattr(arrays.NpyFile, "read", counting)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
    payload = {}
    for path in read:
        npy = arrays.NpyFile(path)
        payload[path] = math.prod(npy.shape) * npy.dtype.itemsize
    assert {path: n / payload[path] for path, n in read.items()} == inputs
