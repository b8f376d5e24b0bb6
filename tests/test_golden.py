"""Golden reports: the bytes of `metrics` and `analyze` reports, pinned.

Each case runs `cli.main` once, from a fixed working directory that holds
tiny seeded inputs under relative names, so the reports, which embed the
input paths and digests, repeat.  The inputs are bit-stable: integers,
`Generator.random` draws, dyadic quantizations of `synth.white_noise` and
integer counts divided by their sum, with no libm call behind any stored
bit.  `golden/reports.json` stores each report's text and sha256, with
the numpy version and machine they were recorded on.  On that platform a
report must match byte for byte; elsewhere, keys, strings and integers
must match exactly and floats within 1e-12 relative.

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


def assert_close(got, want, where="report"):
    """Keys, strings and integers exactly; floats within 1e-12 relative."""
    if isinstance(want, float) or isinstance(got, float):
        assert isinstance(got, (int, float)) and isinstance(want, (int, float)), where
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0), f"{where}: {got} != {want}"
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
    argv = CASES[case]
    text = report(workdir, monkeypatch, argv)
    stored, recorded = golden
    digest = hashlib.sha256(text.encode()).hexdigest()
    recorded[case] = {"argv": [str(a) for a in argv], "sha256": digest, "text": text}
    if UPDATE:
        return
    want = stored["cases"][case]
    assert want["argv"] == [str(a) for a in argv]
    if (stored["numpy"], stored["machine"]) == (np.__version__, platform.machine()):
        assert text == want["text"]
        assert digest == want["sha256"]
    else:
        assert_close(parse(text, argv), parse(want["text"], argv))
