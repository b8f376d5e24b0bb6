"""Golden outputs: the bytes of every subcommand's report and arrays, pinned.

Each case runs `cli.main` once, from a fixed working directory that holds
tiny seeded inputs under relative names, so the reports, which embed the
input paths and digests, repeat.  The inputs are bit-stable: integers,
`Generator.random` draws, dyadic quantizations of `synth.white_noise` and
integer counts divided by their sum, with no libm call behind any stored
bit.  `golden/reports.json` stores each report's text and sha256, and
the sha256, shape, dtype, float64 sum and sum of squares of every NPY
the case writes, with the numpy version and machine they were recorded
on.  On that platform a report must match byte for byte and an array's
file by its digest; elsewhere, keys, strings, integers, shapes and dtypes
must match exactly and floats within 1e-12 relative.  An array's sum is
held to 1e-12 of sqrt(size * sum of squares), the largest its magnitude
can be, because the sum of a high band is rounding noise around zero.

To rewrite the file from the current code, run this module with
ALIAS_SCOPE_UPDATE_GOLDEN=1, and name the changed cases and the largest
float change in CHANGES.md.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
from pathlib import Path

import numpy as np
import pytest

from alias_scope.arrays import write_npy
from alias_scope.cli import main
from alias_scope.freqmix import PARAM_FIELDS, WEIGHT_FIELDS
from alias_scope.synth import white_noise

GOLDEN = Path(__file__).parent / "golden" / "reports.json"
UPDATE = os.environ.get("ALIAS_SCOPE_UPDATE_GOLDEN") == "1"
H, W, C = 24, 32, 3

MASKS = ["pred.npy", "gt.npy"]
SCORE = ["analyze", "--score", "score.npy", "--bins", 8]
FEATURES = ["analyze", "--features", "feat.npy", "--cutoff", 0.25, "--window", 8,
            "--stride-px", 4, "--bins", 8]
LABELS = ["--pred", "pred.npy", "--gt", "gt.npy"]
PROBS = ["--probs", "probs.npy"]
ESR = ["--kernel", 3, "--cin", 4, "--cout", 8, "--stride", 2]
OUT_FLAGS = ("--out", "--out-low", "--out-high", "--map-out")

CASES = {
    "metrics": ["metrics", *MASKS],
    "metrics --all-classes": ["metrics", *MASKS, "--all-classes"],
    "metrics --classes": ["metrics", *MASKS, "--classes", 5],
    "metrics --band-width": ["metrics", *MASKS, "--band-width", 2],
    "metrics --ignore-value": ["metrics", *MASKS, "--ignore-value", 2],
    "analyze --score": SCORE,
    "analyze --score <f8": ["analyze", "--score", "score8.npy", "--bins", 8],
    "analyze --score --gt": [*SCORE, "--gt", "gt.npy"],
    "analyze --score --probs": [*SCORE, *PROBS, "--gt", "gt.npy"],
    "analyze --score --pred": [*SCORE, *LABELS],
    "analyze --score --probs --pred": [*SCORE, *PROBS, *LABELS],
    "analyze --score --probs <f4 --pred": [*SCORE, "--probs", "probs4.npy", *LABELS,
                                           "--band-width", 1],
    "analyze --score --pred --ignore-value": [*SCORE, *LABELS, "--ignore-value", 1],
    "analyze --score csv": [*SCORE, *PROBS, *LABELS, "--format", "csv"],
    "analyze --features": FEATURES,
    "analyze --features --probs": [*FEATURES, *PROBS, "--gt", "gt.npy"],
    "analyze --features --pred": [*FEATURES, *LABELS],
    "analyze --features --probs --pred": [*FEATURES, *PROBS, *LABELS],
    "analyze --features --flc-stride": ["analyze", "--features", "feat.npy", "--flc-stride", 2,
                                        "--window", 6, "--stride-px", 5, "--bins", 5,
                                        *PROBS, *LABELS],
    "analyze --features csv": [*FEATURES, *PROBS, *LABELS, "--format", "csv"],
    "esr": ["esr", *ESR],
    "esr explicit sizes": ["esr", "--kernel-h", 3, "--kernel-w", 1, "--cin", 2, "--cout", 6,
                           "--in-h", 24, "--in-w", 32, "--out-h", 12, "--out-w", 16],
    "score --cutoff": ["score", "feat.npy", "--cutoff", 0.25],
    "score --flc-stride": ["score", "feat.npy", "--flc-stride", 4, "--mode", "global"],
    "score esr": ["score", "feat.npy", *ESR],
    "score --config": ["score", "feat.npy", "--config", "score.cfg"],
    "daf": ["daf", "feat.npy", "--cutoff", 0.25, "--out", "daf.out.npy"],
    "daf --config": ["daf", "feat.npy", "--config", "flc.cfg", "--out", "daf-cfg.out.npy"],
    "split": ["split", "feat.npy", *ESR, "--out-low", "low.out.npy", "--out-high", "high.out.npy"],
    "blur": ["blur", "feat.npy", "--size", 5, "--out", "blur.out.npy"],
    "noise": ["noise", "feat.npy", "--sigma", 0.5, "--seed", 3, "--out", "noise.out.npy"],
    "noise --config": ["noise", "feat.npy", "--sigma", 2, "--config", "seed.cfg",
                       "--out", "noise-cfg.out.npy"],
    "freqmix --weights-dir": ["freqmix", "feat.npy", "--weights-dir", "weights",
                              "--out", "mix-weights.out.npy"],
    "freqmix --params-dir": ["freqmix", "feat.npy", "--params-dir", "params", "--cutoff", 0.375,
                             "--out", "mix-params.out.npy"],
    "response --builtin": ["response", "--builtin", "binomial5", "--grid", 16,
                           "--map-out", "response.out.npy"],
    "response --kernel-file": ["response", "--kernel-file", "kernel.npy", "--grid", 12],
    "orth": ["orth", "bank.npy"],
    "fold": ["fold", "--freq", 0.4, "--stride", 2],
}


def write_inputs(directory: Path) -> None:
    rng = np.random.default_rng(2024)
    rows, cols = np.arange(H)[:, None] // 6, np.arange(W)[None, :] // 8
    gt = ((rows + 2 * cols) % C).astype(np.uint8)
    gt[-3:, :5] = 255  # an ignore patch
    pred = np.roll(gt, 2, axis=1)
    pred[5:9, 20:24] = C  # a class present only in pred
    counts = rng.integers(1, 9, (C, H, W))
    counts[:, 4, 4:12] = [[0], [0], [1]]  # p = 0 for classes 0 and 1
    scores = rng.random((H, W))
    scores[0, :3] = [0.0, 0.5, 1.0]  # bin edges
    features = np.round(white_noise((4, H, W), seed=7).data * 256) / 256
    arrays = {
        "gt": gt,
        "pred": pred,
        "probs": counts / counts.sum(axis=0),
        "probs4": (counts / counts.sum(axis=0)).astype("<f4"),
        "score": scores.astype("<f4"),
        "score8": scores,
        "feat": features.astype("<f4"),
    }
    for name, arr in arrays.items():
        write_npy(directory / f"{name}.npy", arr)
    dyadic = {  # integers over 4: logits, heads, kernels and banks
        **{f"weights/{name}": rng.integers(-8, 9, (4,) if name.endswith("channel") else (H, W))
           for name in WEIGHT_FIELDS},
        **{f"params/{name}": rng.integers(-4, 5, shape) for name, shape in zip(
            PARAM_FIELDS, [(4, 4), (4,), (4, 4), (4,), (3, 3), (1,), (3, 3), (1,)])},
        "kernel": rng.integers(0, 5, (3, 3)),
        "bank": rng.integers(-4, 5, (6, 3, 3)),
    }
    for sub in ("weights", "params"):
        (directory / sub).mkdir()
    for name, arr in dyadic.items():
        write_npy(directory / f"{name}.npy", arr / 4)
    configs = {
        # the [analysis] and [output] seed keys are ones score never reads
        "score": "[cutoff]\nvalue = 0.375\n\n[score]\nmode = global\n\n"
                 "[analysis]\nwindow = 5\n\n[output]\nseed = 5\n",
        "flc": "[cutoff]\nflc_stride = 3\n",
        "seed": "[output]\nseed = 11\n",
    }
    for name, text in configs.items():
        (directory / f"{name}.cfg").write_text(text)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    write_inputs(directory)
    return directory


@pytest.fixture(scope="module")
def golden():
    stored = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {"cases": {}}
    recorded = {}
    yield stored, recorded
    if UPDATE:
        GOLDEN.parent.mkdir(exist_ok=True)
        platform_info = {"numpy": np.__version__, "machine": platform.machine()}
        text = json.dumps({**platform_info, "cases": recorded}, indent=1, sort_keys=True)
        GOLDEN.write_text(text + "\n")


def report(workdir, monkeypatch, argv) -> str:
    monkeypatch.chdir(workdir)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([str(a) for a in argv]) == 0, argv
    return out.getvalue()


def array_digest(path: Path) -> dict:
    data = path.read_bytes()
    arr = np.load(path)
    wide = arr.astype(np.float64)
    return {
        "sha256": hashlib.sha256(data).hexdigest(),
        "shape": list(arr.shape),
        "dtype": arr.dtype.str,
        "sum": float(wide.sum()),
        "sumsq": float(np.square(wide).sum()),
    }


def assert_close(got, want, where="report", abs_tol=0.0):
    """Keys, strings and integers exactly; floats within 1e-12 relative."""
    if isinstance(want, float) or isinstance(got, float):
        assert isinstance(got, (int, float)) and isinstance(want, (int, float)), where
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=abs_tol), f"{where}: {got} != {want}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), where
        for key in want:
            assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_close(g, w, f"{where}[{i}]")
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


def parse(text: str, argv) -> object:
    if not text:
        return text
    if "csv" not in argv:
        return json.loads(text)

    def cell(value):
        try:
            return int(value)
        except ValueError:
            try:
                return float(value)
            except ValueError:
                return value

    return [[cell(v) for v in row] for row in csv.reader(io.StringIO(text))]


@pytest.mark.parametrize("case", CASES)
def test_report_matches_golden(workdir, monkeypatch, golden, case):
    argv = [str(a) for a in CASES[case]]
    text = report(workdir, monkeypatch, argv)
    stored, recorded = golden
    digest = hashlib.sha256(text.encode()).hexdigest()
    outputs = [argv[i + 1] for i, flag in enumerate(argv) if flag in OUT_FLAGS]
    arrays = {path: array_digest(workdir / path) for path in outputs}
    recorded[case] = {"argv": argv, "sha256": digest, "text": text, "arrays": arrays}
    if UPDATE:
        return
    want = stored["cases"][case]
    assert want["argv"] == argv
    assert arrays.keys() == want["arrays"].keys()
    if (stored["numpy"], stored["machine"]) == (np.__version__, platform.machine()):
        assert text == want["text"]
        assert digest == want["sha256"]
        assert arrays == want["arrays"]
        return
    assert_close(parse(text, argv), parse(want["text"], argv))
    for path, got in arrays.items():
        expected = want["arrays"][path]
        assert (got["shape"], got["dtype"]) == (expected["shape"], expected["dtype"]), path
        assert_close(got["sumsq"], expected["sumsq"], f"{path}.sumsq")
        scale = math.sqrt(math.prod(got["shape"]) * expected["sumsq"])
        assert_close(got["sum"], expected["sum"], f"{path}.sum", abs_tol=1e-12 * scale)
