import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import alias_scope
from alias_scope import arrays, cli, segmetrics
from alias_scope.arrays import LabelMask, read_npy, write_npy
from alias_scope.cli import main
from alias_scope.errors import InternalError
from alias_scope.freqmix import PARAM_FIELDS, WEIGHT_FIELDS
from alias_scope.synth import tone, white_noise


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.fixture
def feature_file(tmp_path):
    path = tmp_path / "feat.npy"
    write_npy(path, white_noise((2, 16, 16), seed=7).data)
    return path


@pytest.fixture
def mask_pair(tmp_path):
    gt = np.zeros((8, 8), dtype=np.uint8)
    gt[2:6, 2:6] = 1
    pred = np.zeros((8, 8), dtype=np.uint8)
    pred[2:6, 3:7] = 1
    gt_path = tmp_path / "gt.npy"
    pred_path = tmp_path / "pred.npy"
    write_npy(gt_path, gt)
    write_npy(pred_path, pred)
    return pred_path, gt_path


# --- esr


def test_esr_resnet_case(capsys):
    report = run_json(
        capsys, "esr", "--kernel", 3, "--cin", 64, "--cout", 128, "--stride", 2
    )
    assert abs(report["result"]["esr"] - math.sqrt(2) / 2) < 1e-9
    assert abs(report["result"]["nyquist"] - math.sqrt(2) / 4) < 1e-9


def test_esr_pointwise_case(capsys):
    report = run_json(
        capsys, "esr", "--kernel", 1, "--cin", 64, "--cout", 64, "--stride", 2
    )
    assert report["result"]["esr"] == 0.5
    assert report["result"]["nyquist"] == 0.25
    assert report["result"]["kernel_smaller_than_stride"] is True


def test_esr_identity_kernel_case(capsys):
    report = run_json(
        capsys, "esr", "--kernel", 2, "--cin", 3, "--cout", 12, "--stride", 2
    )
    assert report["result"]["esr"] == 1.0
    assert report["result"]["nyquist"] == 0.5


def test_esr_explicit_sizes_consistency(capsys):
    code, _, err = run(
        capsys,
        "esr", "--kernel", 3, "--cin", 1, "--cout", 1,
        "--stride", 2,
        "--in-h", 8, "--in-w", 8, "--out-h", 8, "--out-w", 8,
    )
    assert code == 2
    assert "inconsistent" in err


def test_esr_missing_flags(capsys):
    code, _, err = run(capsys, "esr", "--kernel", 3)
    assert code == 2


# --- score / daf round trip


def test_bin_exact_cutoff_keeps_both_signed_bins(capsys, tmp_path):
    # on a 3-grid every bin has |f| <= 1/3, so cutoff 1/3 keeps the whole
    # spectrum, the +1/3 and -1/3 bins alike
    feat, out = tmp_path / "w3.npy", tmp_path / "low.npy"
    data = np.array([[[0.12573022, -0.13210486, 0.64042264]]])
    write_npy(feat, data)
    cutoff = 1 / 3
    code, _, err = run(capsys, "daf", feat, "--cutoff", cutoff, "--out", out)
    assert code == 0, err
    assert np.abs(read_npy(out) - data).max() < 1e-12
    report = run_json(capsys, "score", feat, "--cutoff", cutoff)
    assert report["result"]["aliasing_score"] == 0.0


def test_daf_then_score_is_zero(capsys, tmp_path, feature_file):
    out = tmp_path / "clean.npy"
    code, _, err = run(
        capsys, "daf", feature_file, "--cutoff", 0.25, "--out", out
    )
    assert code == 0, err
    report = run_json(capsys, "score", out, "--cutoff", 0.25)
    assert report["result"]["aliasing_score"] < 1e-12
    assert report["result"]["per_channel_mean"] < 1e-12
    assert report["result"]["global"] < 1e-12


def test_score_reports_both_modes(capsys, feature_file):
    report = run_json(capsys, "score", feature_file, "--cutoff", 0.25)
    result = report["result"]
    assert result["mode"] == "per_channel_mean"
    assert 0.0 <= result["per_channel_mean"] <= 1.0
    assert 0.0 <= result["global"] <= 1.0
    assert len(result["per_channel"]) == 2
    assert result["cutoff_source"] == "explicit"


def test_score_cutoff_from_esr_flags(capsys, feature_file):
    report = run_json(
        capsys, "score", feature_file,
        "--kernel", 3, "--cin", 64, "--cout", 128, "--stride", 2,
    )
    assert abs(report["config"]["cutoff"] - math.sqrt(2) / 4) < 1e-9
    assert report["config"]["cutoff_source"] == "esr"


def test_score_flc_cutoff(capsys, feature_file):
    report = run_json(capsys, "score", feature_file, "--flc-stride", 2)
    assert report["config"]["cutoff"] == 0.25
    assert report["config"]["cutoff_source"] == "flc"


def test_two_cutoff_sources_rejected(capsys, feature_file):
    code, _, err = run(
        capsys, "score", feature_file, "--cutoff", 0.25, "--flc-stride", 2
    )
    assert code == 2
    assert "exactly one" in err


def test_missing_cutoff_rejected(capsys, feature_file):
    code, _, err = run(capsys, "score", feature_file)
    assert code == 2


def test_score_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "score", tmp_path / "nope.npy", "--cutoff", 0.25)
    assert code == 2


# --- split / blur / noise / freqmix transforms


def test_split_parts_sum(capsys, tmp_path, feature_file):
    low = tmp_path / "low.npy"
    high = tmp_path / "high.npy"
    code, _, err = run(
        capsys, "split", feature_file, "--cutoff", 0.25,
        "--out-low", low, "--out-high", high,
    )
    assert code == 0, err
    total = read_npy(low) + read_npy(high)
    assert np.abs(total - read_npy(feature_file)).max() < 1e-9


def test_blur_writes_same_shape(capsys, tmp_path, feature_file):
    out = tmp_path / "blur.npy"
    code, _, _ = run(capsys, "blur", feature_file, "--size", 3, "--out", out)
    assert code == 0
    assert read_npy(out).shape == (2, 16, 16)


def test_noise_seeded(capsys, tmp_path, feature_file):
    out1 = tmp_path / "n1.npy"
    out2 = tmp_path / "n2.npy"
    run(capsys, "noise", feature_file, "--sigma", 1.0, "--seed", 9, "--out", out1)
    run(capsys, "noise", feature_file, "--sigma", 1.0, "--seed", 9, "--out", out2)
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_noise_negative_seed_rejected(capsys, tmp_path, feature_file, source):
    out = tmp_path / "n.npy"
    if source == "flag":
        extra = ["--seed", -1]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[output]\nseed = -3\n")
        extra = ["--config", cfg]
    code, stdout, err = run(capsys, "noise", feature_file, "--sigma", 1.0, *extra, "--out", out)
    assert code == 2
    assert stdout == ""
    assert err.startswith("alias-scope: error:") and "seed" in err
    assert not out.exists()


@pytest.mark.parametrize("sigma", ["nan", "inf", "-inf"])
def test_noise_non_finite_sigma_rejected(capsys, tmp_path, feature_file, sigma):
    out = tmp_path / "n.npy"
    code, stdout, err = run(capsys, "noise", feature_file, f"--sigma={sigma}", "--out", out)
    assert code == 2
    assert stdout == ""
    assert err.startswith("alias-scope: error:") and "sigma" in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_noise_overflowing_sigma_rejected_without_warnings(capsys, tmp_path, feature_file):
    # sigma * z overflows to inf for |z| > 1.8: one error line, no numpy warning
    out = tmp_path / "n.npy"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, err = run(capsys, "noise", feature_file, "--sigma", 1e308, "--out", out)
    assert code == 2
    assert stdout == ""
    assert err.startswith("alias-scope: error:") and err.count("\n") == 1
    assert not out.exists()


def test_noise_overflow_blames_sigma(capsys, tmp_path):
    # the input is finite, so an overflow to inf comes from sigma
    feat, out = tmp_path / "f.npy", tmp_path / "n.npy"
    write_npy(feat, np.ones((2, 8, 8)))
    code, stdout, err = run(capsys, "noise", feat, "--sigma", 1e308, "--out", out)
    assert code == 2
    assert stdout == ""
    assert err.count("\n") == 1 and "sigma" in err
    assert not out.exists()


def test_split_same_output_file_rejected(capsys, tmp_path, feature_file):
    (tmp_path / "sub").mkdir()
    out = tmp_path / "bands.npy"
    code, stdout, err = run(
        capsys, "split", feature_file, "--cutoff", 0.25,
        "--out-low", out, "--out-high", tmp_path / "sub" / ".." / "bands.npy",
    )
    assert code == 2
    assert stdout == ""
    assert err.startswith("alias-scope: error:") and "same file" in err
    assert not out.exists()


def test_freqmix_bypass_weights(capsys, tmp_path, feature_file):
    wdir = tmp_path / "weights"
    wdir.mkdir()
    big = 80.0  # saturates the sigmoid
    write_npy(wdir / "a_low_channel.npy", np.full(2, big))
    write_npy(wdir / "a_high_channel.npy", np.full(2, big))
    write_npy(wdir / "a_low_spatial.npy", np.full((16, 16), big))
    write_npy(wdir / "a_high_spatial.npy", np.full((16, 16), big))
    out = tmp_path / "mixed.npy"
    code, _, err = run(
        capsys, "freqmix", feature_file, "--weights-dir", wdir, "--out", out
    )
    assert code == 0, err
    assert np.abs(read_npy(out) - read_npy(feature_file)).max() < 1e-9


def test_freqmix_needs_one_source(capsys, tmp_path, feature_file):
    code, _, err = run(capsys, "freqmix", feature_file, "--out", tmp_path / "o.npy")
    assert code == 2


@pytest.mark.parametrize("shape", [(0, 0), (0, 3)])
def test_freqmix_empty_conv_kernel_exit_2(capsys, tmp_path, feature_file, shape):
    params, out = tmp_path / "params", tmp_path / "mixed.npy"
    params.mkdir()
    shapes = [(2, 2), (2,), (2, 2), (2,), (3, 3), (), shape, ()]  # a valid head but one kernel
    for name, field_shape in zip(PARAM_FIELDS, shapes):
        write_npy(params / f"{name}.npy", np.zeros(field_shape))
    code, stdout, err = run(capsys, "freqmix", feature_file, "--params-dir", params, "--out", out)
    assert (code, stdout) == (2, "")
    assert err == f"alias-scope: error: conv_high_kernel must be 2D (k, k) with positive dims, got {shape}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "source, shapes, bad, message",
    [
        ("--weights-dir", dict(zip(WEIGHT_FIELDS, [(2,), (2,), (16, 16), (16, 16)])),
         "a_low_channel", "logits must not be NaN"),
        ("--params-dir", dict(zip(PARAM_FIELDS, [(2, 2), (2,), (2, 2), (2,), (3, 3), (), (3, 3), ()])),
         "conv_low_bias", "parameters must be finite"),
    ],
)
def test_freqmix_nan_weight_or_parameter_exit_2(capsys, tmp_path, feature_file, source, shapes, bad, message):
    # a bad weight file is named, not blamed on the features
    folder, out = tmp_path / "head", tmp_path / "mixed.npy"
    folder.mkdir()
    for name, shape in shapes.items():
        write_npy(folder / f"{name}.npy", np.full(shape, np.nan if name == bad else 0.0))
    code, stdout, err = run(capsys, "freqmix", feature_file, source, folder, "--out", out)
    assert (code, stdout) == (2, "")
    assert err == f"alias-scope: error: {bad}: {message}\n"
    assert not out.exists()


def test_freqmix_overflowing_predicted_logits_exit_2(capsys, tmp_path):
    # a mean that overflows to inf, times a zero weight, is a NaN logit
    features, params, out = tmp_path / "big.npy", tmp_path / "params", tmp_path / "mixed.npy"
    write_npy(features, np.full((2, 8, 8), 1.7e308))
    params.mkdir()
    values = [np.eye(2), np.zeros(2), np.eye(2), np.zeros(2), np.zeros((3, 3)), 0.0, np.zeros((3, 3)), 0.0]
    for name, value in zip(PARAM_FIELDS, values):
        write_npy(params / f"{name}.npy", np.asarray(value, dtype=float))
    code, stdout, err = run(capsys, "freqmix", features, "--params-dir", params, "--out", out)
    assert (code, stdout) == (2, "")
    assert err == "alias-scope: error: predicted freqmix logits overflow float64; rescale the features\n"
    assert not out.exists()


# --- metrics


def test_metrics_identical_masks(capsys, mask_pair):
    _, gt = mask_pair
    report = run_json(capsys, "metrics", gt, gt)
    result = report["result"]
    assert result["miou"] == 1.0
    assert result["mean"]["ferr"] == 0.0
    assert result["mean"]["merr"] == 0.0
    assert result["mean"]["biou"] == 1.0
    assert result["mean"]["bacc"] == 1.0
    # literal displacement rate of a perfect prediction, with its baseline
    for entry in result["per_class"].values():
        assert entry["derr"] == entry["derr_perfect_baseline"]


def test_metrics_shifted_square(capsys, mask_pair):
    pred, gt = mask_pair
    report = run_json(capsys, "metrics", pred, gt, "--band-width", 2)
    result = report["result"]
    assert result["band_width"] == 2
    assert 0.0 < result["miou"] < 1.0
    assert result["per_class"]["1"]["ferr"] > 0.0


def test_metrics_shape_mismatch(capsys, tmp_path, mask_pair):
    pred, _ = mask_pair
    other = tmp_path / "other.npy"
    write_npy(other, np.zeros((4, 4), dtype=np.uint8))
    code, _, err = run(capsys, "metrics", pred, other)
    assert code == 2


# --- analyze


def test_analyze_json_curves(capsys, tmp_path):
    h, w = 16, 16
    feat = tmp_path / "feat.npy"
    write_npy(feat, white_noise((1, h, w), seed=3).data)
    gt = np.zeros((h, w), dtype=np.uint8)
    gt[4:12, 4:12] = 1
    pred = np.roll(gt, 1, axis=1)
    gt_path, pred_path = tmp_path / "gt.npy", tmp_path / "pred.npy"
    write_npy(gt_path, gt)
    write_npy(pred_path, pred)
    probs = np.full((2, h, w), 0.5)
    probs_path = tmp_path / "probs.npy"
    write_npy(probs_path, probs)
    report = run_json(
        capsys, "analyze",
        "--features", feat, "--probs", probs_path,
        "--pred", pred_path, "--gt", gt_path,
        "--cutoff", 0.25, "--window", 8, "--stride-px", 4, "--bins", 5,
        "--band-width", 1,
    )
    result = report["result"]
    assert result["score_map"]["window"] == 8
    curves = result["curves"]
    ce_rows = curves["boundary_cross_entropy"]
    assert len(ce_rows) == 5
    total = sum(r["count"] for r in ce_rows)
    assert total > 0
    defined = [r["mean"] for r in ce_rows if r["mean"] is not None]
    assert all(abs(v - math.log(2)) < 1e-9 for v in defined)
    dist_rows = curves["error_type_distribution"]
    assert sum(r["count_merging"] for r in dist_rows) > 0


def test_analyze_csv_output(capsys, tmp_path):
    feat = tmp_path / "feat.npy"
    write_npy(feat, white_noise((1, 8, 8), seed=4).data)
    gt = np.zeros((8, 8), dtype=np.uint8)
    gt[2:6, 2:6] = 1
    gt_path = tmp_path / "gt.npy"
    write_npy(gt_path, gt)
    pred_path = tmp_path / "pred.npy"
    write_npy(pred_path, np.roll(gt, 1, axis=0))
    code, out, err = run(
        capsys, "analyze",
        "--features", feat, "--pred", pred_path, "--gt", gt_path,
        "--cutoff", 0.25, "--window", 4, "--stride-px", 2, "--bins", 3,
        "--band-width", 1, "--format", "csv",
    )
    assert code == 0, err
    lines = out.strip().splitlines()
    assert lines[0].startswith("curve,bin_lo,bin_hi,count")
    assert len(lines) == 4  # header + one row per bin


def test_analyze_external_score_map(capsys, tmp_path):
    score = tmp_path / "score.npy"
    write_npy(score, np.full((8, 8), 0.5))
    gt = np.zeros((8, 8), dtype=np.uint8)
    gt[2:6, 2:6] = 1
    gt_path = tmp_path / "gt.npy"
    write_npy(gt_path, gt)
    pred_path = tmp_path / "pred.npy"
    write_npy(pred_path, gt)
    report = run_json(
        capsys, "analyze",
        "--score", score, "--pred", pred_path, "--gt", gt_path,
        "--bins", 4, "--band-width", 1,
    )
    score_map = report["result"]["score_map"]
    assert score_map.pop("mean") == 0.5
    assert score_map == {"window": 0, "stride": 0, "cutoff": 0.0, "mode": "external"}
    assert type(score_map["cutoff"]) is float


def _bad_features(tmp_path, fault):
    """A --features file with one fault, and the stderr line it must give."""
    path = tmp_path / "feat.npy"
    data = white_noise((2, 16, 16), seed=5).data
    line = f"{path}: feature tensor contains NaN/Inf"
    if fault == "nan-in-gap":
        # windows of 4 at stride 8 cover rows 0-3, 8-11, ...; row 5 lies
        # in no window, yet the whole-file load rejected it
        data = white_noise((2, 40, 40), seed=5).data
        data[0, 5, 3] = np.nan
        write_npy(path, data)
    elif fault in ("nan-first-row", "inf-last-row"):
        data[1, 0 if fault == "nan-first-row" else -1, 3] = np.nan if "nan" in fault else np.inf
        write_npy(path, data)
    elif fault == "truncated":
        write_npy(path, data)
        path.write_bytes(path.read_bytes()[:-8])
        line = f"{path}: payload is {data.nbytes - 8} bytes, expected {data.nbytes}"
    elif fault == "3d-int":
        write_npy(path, np.zeros((2, 16, 16), dtype=np.int32))
        line = f"{path}: 3D integer arrays have no interpretation here"
    elif fault == "2d-int":
        write_npy(path, np.zeros((16, 16), dtype=np.uint8))
        line = f"{path}: expected a float feature tensor"
    else:
        write_npy(path, data[None])
        line = f"{path}: expected 2D or 3D array, got 4D"
    return path, f"alias-scope: error: {line}\n"


@pytest.mark.parametrize(
    "fault, window, stride",
    [(f, 8, 4) for f in ("nan-first-row", "inf-last-row", "truncated", "3d-int", "2d-int", "4d")]
    + [("nan-in-gap", 4, 8)],
)
def test_analyze_bad_features_exit_2(capsys, tmp_path, fault, window, stride):
    # the features are read a band at a time, yet each fault gives the line
    # the whole-file load gave, and no report
    path, line = _bad_features(tmp_path, fault)
    code, out, err = run(
        capsys, "analyze", "--features", path, "--cutoff", 0.25,
        "--window", window, "--stride-px", stride,
    )
    assert (code, out, err) == (2, "", line)


@pytest.mark.parametrize("command", ["analyze --probs", "score", "daf"])
def test_nan_in_a_float_input_names_its_file(capsys, tmp_path, command):
    # analyze reads two float files: the line says which one holds the NaN
    feat, probs, gt = tmp_path / "feat.npy", tmp_path / "probs.npy", tmp_path / "gt.npy"
    features, probabilities = white_noise((2, 16, 16), seed=5).data, np.full((2, 16, 16), 0.5)
    (probabilities if command == "analyze --probs" else features)[1, 7, 3] = np.nan
    write_npy(feat, features)
    write_npy(probs, probabilities)
    write_npy(gt, np.zeros((16, 16), dtype=np.uint8))
    bad = probs if command == "analyze --probs" else feat
    argv = {
        "analyze --probs": ["analyze", "--features", feat, "--probs", probs, "--gt", gt,
                            "--window", 8, "--stride-px", 4],
        "score": ["score", feat],
        "daf": ["daf", feat, "--out", tmp_path / "daf.npy"],
    }[command]
    code, out, err = run(capsys, *argv, "--cutoff", 0.25)
    assert (code, out, err) == (2, "", f"alias-scope: error: {bad}: feature tensor contains NaN/Inf\n")


def test_analyze_needs_exactly_one_source(capsys, tmp_path):
    code, _, err = run(capsys, "analyze", "--bins", 4)
    assert code == 2


@pytest.mark.parametrize("flags, message", [
    (["--probs", "probs"], "--probs needs --gt"),
    (["--pred", "labels"], "--pred needs --gt"),
    (["--format", "csv"], "csv output needs at least one curve (--probs/--pred)"),
])
def test_analyze_checks_flag_combinations_before_reading(
    capsys, monkeypatch, tmp_path, flags, message
):
    # a combination that can give no report exits before the 128 KiB of
    # features are read or any window is scored
    feat, probs, labels = tmp_path / "feat.npy", tmp_path / "probs.npy", tmp_path / "labels.npy"
    write_npy(feat, white_noise((2, 64, 128), seed=3).data)
    write_npy(probs, np.full((2, 64, 128), 0.5))
    write_npy(labels, np.zeros((64, 128), dtype=np.uint8))
    paths = {"probs": probs, "labels": labels}
    reads = _count_calls(monkeypatch, arrays.NpyFile, "read")
    code, out, err = run(capsys, "analyze", "--features", feat, "--cutoff", 0.25,
                         *(paths.get(flag, flag) for flag in flags))
    assert (code, out, err) == (2, "", f"alias-scope: error: {message}\n")
    assert sum(buffer.nbytes for _, _, buffer, _ in reads) == 0


@pytest.mark.parametrize("wrong, message", [
    ("gt", "gt shape does not match the score map"),
    ("pred", "pred and gt shapes differ"),
])
def test_analyze_shape_mismatch_exit_2(capsys, tmp_path, wrong, message):
    paths = {name: tmp_path / f"{name}.npy" for name in ("score", "gt", "pred")}
    write_npy(paths["score"], np.linspace(0.0, 1.0, 64).reshape(8, 8))
    for name in ("gt", "pred"):
        write_npy(paths[name], np.zeros((8, 9) if name == wrong else (8, 8), dtype=np.uint8))
    report = tmp_path / "report.json"
    code, out, err = run(capsys, "analyze", "--score", paths["score"], "--gt", paths["gt"],
                         "--pred", paths["pred"], "--out", report)
    assert (code, out, err) == (2, "", f"alias-scope: error: {message}\n")
    assert not report.exists()


@pytest.mark.parametrize("flags, message", [
    (["--builtin", "binomial3", "--kernel-file", "kernel"],
     "give exactly one of --builtin or --kernel-file"),
    ([], "give exactly one of --builtin or --kernel-file"),
    (["--builtin", "binomialx"], "unknown builtin kernel 'binomialx'"),
])
def test_response_kernel_source_errors_exit_2(capsys, tmp_path, flags, message):
    kernel = tmp_path / "k.npy"
    write_npy(kernel, np.ones((3, 3)))
    report, map_out = tmp_path / "report.json", tmp_path / "map.npy"
    code, out, err = run(capsys, "response", *(kernel if f == "kernel" else f for f in flags),
                         "--grid", 8, "--out", report, "--map-out", map_out)
    assert (code, out, err) == (2, "", f"alias-scope: error: {message}\n")
    assert sorted(tmp_path.iterdir()) == [kernel]


@pytest.mark.parametrize("command", ["daf", "blur", "noise", "freqmix"])
def test_array_commands_need_out(capsys, tmp_path, feature_file, command):
    weights = tmp_path / "weights"
    weights.mkdir()
    for name in WEIGHT_FIELDS:
        write_npy(weights / f"{name}.npy", np.zeros((2,) if name.endswith("channel") else (16, 16)))
    flags = {"daf": ["--cutoff", 0.25], "blur": [], "noise": ["--sigma", 0.5],
             "freqmix": ["--weights-dir", weights]}[command]
    before = sorted(tmp_path.rglob("*"))
    code, out, err = run(capsys, command, feature_file, *flags)
    assert (code, out) == (2, "")
    assert err == "alias-scope: error: this command writes an array: --out is required\n"
    assert sorted(tmp_path.rglob("*")) == before


def test_internal_error_exits_3(capsys, monkeypatch):
    def broken(*args):
        raise InternalError("folded frequency out of range")

    monkeypatch.setattr(cli, "predicted_alias_frequency", broken)
    code, out, err = run(capsys, "fold", "--freq", 0.4, "--stride", 2)
    assert (code, out, err) == (3, "", "alias-scope: internal error: folded frequency out of range\n")


# --- response


def test_response_binomial3(capsys, tmp_path):
    out_map = tmp_path / "resp.npy"
    report = run_json(
        capsys, "response", "--builtin", "binomial3", "--grid", 64,
        "--map-out", out_map,
    )
    assert report["result"]["dc"] == pytest.approx(1.0, abs=1e-12)
    resp = read_npy(out_map)
    assert resp.shape == (64, 64)
    assert resp[32, 32] == pytest.approx(1.0, abs=1e-12)


def test_response_kernel_file(capsys, tmp_path):
    kfile = tmp_path / "k.npy"
    write_npy(kfile, np.array([[1.0]]))
    report = run_json(capsys, "response", "--kernel-file", kfile, "--grid", 8)
    assert report["result"]["dc"] == 1.0
    assert report["result"]["min"] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "kernel", [np.array([[np.nan, 1.0], [1.0, 1.0]]), np.full((3, 3), 1e308)],
    ids=["nan-entry", "overflowing-response"],
)
def test_response_non_finite_rejected(capsys, tmp_path, kernel):
    kfile, out_map = tmp_path / "k.npy", tmp_path / "resp.npy"
    write_npy(kfile, kernel)
    code, stdout, err = run(
        capsys, "response", "--kernel-file", kfile, "--grid", 8, "--map-out", out_map
    )
    assert code == 2
    assert stdout == ""
    assert err.startswith("alias-scope: error:") and "not finite" in err
    assert not out_map.exists()


@pytest.mark.parametrize("shape", [(0, 3), (0, 0)])
def test_response_empty_kernel_file_exit_2(capsys, tmp_path, shape):
    kfile, out_map = tmp_path / "k.npy", tmp_path / "resp.npy"
    write_npy(kfile, np.zeros(shape))
    code, stdout, err = run(
        capsys, "response", "--kernel-file", kfile, "--grid", 8, "--map-out", out_map
    )
    assert (code, stdout) == (2, "")
    assert err == f"alias-scope: error: kernel dims must be positive: {shape}\n"
    assert not out_map.exists()


def test_response_unknown_builtin(capsys):
    code, _, err = run(capsys, "response", "--builtin", "box9", "--grid", 8)
    assert code == 2


def test_response_grid_too_large_for_memory(capsys, tmp_path):
    # a 10^7 x 10^7 float64 grid is 728 TiB, more than a 47-bit address
    # space holds, so the allocation is refused at once
    map_out = tmp_path / "map.npy"
    code, out, err = run(
        capsys, "response", "--builtin", "binomial3", "--grid", 10_000_000,
        "--map-out", map_out,
    )
    assert code == 2
    assert out == ""
    assert err.startswith("alias-scope: error: input too large for memory")
    assert not map_out.exists()


def test_response_same_map_and_report_file_rejected(capsys, tmp_path):
    (tmp_path / "sub").mkdir()
    out = tmp_path / "resp.out"
    code, stdout, err = run(
        capsys, "response", "--builtin", "binomial3", "--grid", 8,
        "--map-out", out, "--out", tmp_path / "sub" / ".." / "resp.out",
    )
    assert code == 2
    assert stdout == ""
    assert err == f"alias-scope: error: --map-out and --out are the same file: {out}\n"
    assert not out.exists()


# --- orth


def test_orth_identity_kernels(capsys, tmp_path):
    bank = tmp_path / "bank.npy"
    write_npy(bank, np.eye(4).reshape(4, 2, 2))
    report = run_json(capsys, "orth", bank)
    assert report["result"]["mean_abs_cosine_similarity"] == 0.0
    matrix = np.array(report["result"]["matrix"])
    assert np.array_equal(matrix, np.eye(4))


def test_orth_zero_filter(capsys, tmp_path):
    bank = tmp_path / "bank.npy"
    write_npy(bank, np.zeros((3, 2, 2)))
    code, _, err = run(capsys, "orth", bank)
    assert code == 2


def test_orth_report_independent_of_scale(capsys, tmp_path):
    bank = np.random.default_rng(5).standard_normal((6, 3, 3, 3))
    reports = []
    for scale in (1.0, 1e200):
        path = tmp_path / f"bank{scale:g}.npy"
        write_npy(path, scale * bank)
        code, out, err = run(capsys, "orth", path)
        assert code == 0, err
        result = json.loads(out)["result"]
        assert "null" not in json.dumps(result)
        reports.append(result)
    small, large = reports
    assert abs(small["mean_abs_cosine_similarity"] - large["mean_abs_cosine_similarity"]) < 1e-12
    assert np.abs(np.array(small["matrix"]) - np.array(large["matrix"])).max() < 1e-12


def test_orth_non_finite_bank_rejected(capsys, tmp_path):
    bank = np.eye(4).reshape(4, 2, 2)
    bank[1, 0, 1] = np.nan
    path = tmp_path / "bank.npy"
    write_npy(path, bank)
    code, stdout, err = run(capsys, "orth", path)
    assert code == 2
    assert stdout == ""
    assert "NaN/Inf" in err


# --- fold


def test_fold(capsys):
    report = run_json(capsys, "fold", "--freq", 0.4, "--stride", 2)
    assert report["result"]["folded_frequency"] == pytest.approx(0.2, abs=1e-12)


def test_fold_out_of_range(capsys):
    code, _, err = run(capsys, "fold", "--freq", 0.7, "--stride", 2)
    assert code == 2


# --- config file and output plumbing


def test_config_file_supplies_defaults(capsys, tmp_path, feature_file):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[cutoff]\nvalue = 0.25\n\n[score]\nmode = global\n")
    report = run_json(capsys, "score", feature_file, "--config", cfg)
    assert report["config"]["cutoff"] == 0.25
    assert report["config"]["score_mode"] == "global"
    assert report["result"]["mode"] == "global"


def test_flag_overrides_config(capsys, tmp_path, feature_file):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[cutoff]\nvalue = 0.125\n")
    report = run_json(capsys, "score", feature_file, "--cutoff", 0.25, "--config", cfg)
    assert report["config"]["cutoff"] == 0.25


def test_report_written_to_out_file(capsys, tmp_path, feature_file):
    out = tmp_path / "report.json"
    code, stdout, _ = run(
        capsys, "score", feature_file, "--cutoff", 0.25, "--out", out
    )
    assert code == 0
    assert stdout == ""
    report = json.loads(out.read_text())
    assert report["tool"] == "alias-scope"
    assert report["inputs"]["input"]["sha256"]


def test_csv_rejected_outside_analyze(capsys, feature_file):
    code, _, err = run(
        capsys, "score", feature_file, "--cutoff", 0.25, "--format", "csv"
    )
    assert code == 2


def test_reports_embed_version_and_digest(capsys, feature_file):
    report = run_json(capsys, "score", feature_file, "--cutoff", 0.25)
    assert report["version"]
    digest = report["inputs"]["input"]["sha256"]
    assert len(digest) == 64


@pytest.mark.parametrize(
    "section", ["[cutoff]\nvalue = quarter\n", "[cutoff]\nflc_stride = two\n"]
)
def test_non_numeric_config_cutoff_rejected(capsys, tmp_path, feature_file, section):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(section)
    code, _, err = run(capsys, "score", feature_file, "--config", cfg)
    assert code == 2
    assert "config cutoff." in err


@pytest.mark.parametrize("command", ["score", "analyze"])
def test_overflowing_spectral_power_rejected(capsys, tmp_path, command):
    # finite features whose |F|^2 overflows float64: exit 2, never a null score
    feat, probs, gt = tmp_path / "feat.npy", tmp_path / "probs.npy", tmp_path / "gt.npy"
    write_npy(feat, 1e200 * white_noise((2, 8, 8), seed=3).data)
    argv = ["score", feat]
    if command == "analyze":
        write_npy(probs, np.full((2, 8, 8), 0.5))
        write_npy(gt, np.zeros((8, 8), dtype=np.uint8))
        argv = ["analyze", "--features", feat, "--probs", probs, "--gt", gt,
                "--window", 4, "--stride-px", 2]
    code, stdout, err = run(capsys, *argv, "--cutoff", 0.25)
    assert code == 2
    assert stdout == ""
    assert "overflows" in err


@pytest.mark.parametrize("command", ["score", "analyze"])
def test_float64_edge_input_rejected_in_one_line(tmp_path, command):
    # the transform of +-1.7e308 overflows to inf and NaN; band_power turns
    # that into the one error line, with no numpy RuntimeWarning before it.
    # pytest captures warnings in process, so this runs the CLI in its own
    # process; the map's windows are scored on pool threads, which numpy's
    # errstate of the main thread does not cover
    side = 16 if command == "score" else 40
    feat = tmp_path / "edge.npy"
    signs = np.random.default_rng(0).choice([-1.0, 1.0], (2, side, side))
    write_npy(feat, 1.7e308 * signs)
    argv = ["score", feat] if command == "score" else [
        "analyze", "--features", feat, "--window", 8, "--stride-px", 4]
    src = str(Path(alias_scope.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "alias_scope", *map(str, argv), "--cutoff", "0.25"],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "alias-scope: error: spectral power overflows float64; rescale the features\n"


def test_score_single_pass_matches_modes(capsys, feature_file):
    report = run_json(capsys, "score", feature_file, "--cutoff", 0.25)
    result = report["result"]
    per_channel = result["per_channel"]
    assert result["aliasing_score"] == result["per_channel_mean"]
    assert result["per_channel_mean"] == pytest.approx(np.mean(per_channel), abs=1e-15)
    assert 0.0 <= result["global"] <= 1.0


def test_score_all_zero_tensor_exit_2(capsys, tmp_path):
    path = tmp_path / "zeros.npy"
    write_npy(path, np.zeros((2, 8, 8)))
    code, _, err = run(capsys, "score", path, "--cutoff", 0.25)
    assert code == 2
    assert "undefined" in err


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_analyze_non_finite_score_map_rejected(capsys, tmp_path, bad):
    values = np.full((8, 8), 0.5)
    values[3, 3] = bad
    score = tmp_path / "score.npy"
    write_npy(score, values)
    gt = np.zeros((8, 8), dtype=np.uint8)
    gt[2:6, 2:6] = 1
    gt_path = tmp_path / "gt.npy"
    write_npy(gt_path, gt)
    code, _, err = run(
        capsys, "analyze", "--score", score, "--pred", gt_path, "--gt", gt_path,
        "--bins", 4, "--band-width", 1,
    )
    assert code == 2
    assert "NaN/Inf" in err


@pytest.mark.parametrize("shape", [(0, 8), (8, 0)])
def test_analyze_empty_score_map_exit_2(capsys, tmp_path, shape):
    # an empty map has no mean: one error line, not a NaN report
    score = tmp_path / "score.npy"
    write_npy(score, np.zeros(shape))
    code, out, err = run(capsys, "analyze", "--score", score)
    assert code == 2
    assert out == ""
    assert err == f"alias-scope: error: {score}: score map dims must be positive: {shape}\n"


@pytest.mark.parametrize("fault", ["range-then-nan", "truncated"])
def test_analyze_score_map_errors_are_one_line(capsys, tmp_path, fault):
    # a 300 x 300 map spans two leaves of its mean: NaN in the last value
    # is reported over a value out of range in row 0, as a whole-map read did
    score = tmp_path / "score.npy"
    values = np.full((300, 300), 0.5)
    values[0, 0] = 2.0
    values[-1, -1] = np.nan
    write_npy(score, values)
    line = f"{score}: score map contains NaN/Inf"
    if fault == "truncated":
        score.write_bytes(score.read_bytes()[:-8])
        line = f"{score}: payload is {values.nbytes - 8} bytes, expected {values.nbytes}"
    code, out, err = run(capsys, "analyze", "--score", score)
    assert code == 2
    assert out == ""
    assert err == f"alias-scope: error: {line}\n"


def test_analyze_zero_true_class_probability_is_strict_json(capsys, tmp_path):
    h, w = 8, 8
    gt = np.zeros((h, w), dtype=np.uint8)
    gt[2:6, 2:6] = 1
    probs = np.zeros((2, h, w))
    probs[1] = 1.0  # every class-0 pixel gets p(true) = 0
    score = tmp_path / "score.npy"
    write_npy(score, np.full((h, w), 0.5))
    gt_path, probs_path = tmp_path / "gt.npy", tmp_path / "probs.npy"
    write_npy(gt_path, gt)
    write_npy(probs_path, probs)
    code, out, err = run(
        capsys, "analyze", "--score", score, "--probs", probs_path,
        "--gt", gt_path, "--bins", 2, "--band-width", 1,
    )
    assert code == 0, err
    report = json.loads(out, parse_constant=_reject_constant)
    means = [r["mean"] for r in report["result"]["curves"]["boundary_cross_entropy"]]
    assert all(m is None or math.isfinite(m) for m in means)
    assert any(m is not None and m > 0.0 for m in means)


def test_metrics_pred_label_out_of_range(capsys, tmp_path, mask_pair):
    _, gt_path = mask_pair
    pred = np.zeros((8, 8), dtype=np.uint8)
    pred[0, 0] = 5
    pred_path = tmp_path / "pred_bad.npy"
    write_npy(pred_path, pred)
    code, _, err = run(capsys, "metrics", pred_path, gt_path, "--classes", 2)
    assert code == 2
    assert "out of range" in err


BAD_MASKS = {
    "negative": (np.full((8, 8), -3, dtype="<i4"), [], "label mask contains negative labels"),
    "empty": (np.zeros((0, 8), dtype=np.uint8), [], "label mask dims must be positive: (0, 8)"),
    "out of range": (np.full((8, 8), 7, dtype=np.uint8), ["--classes", 5],
                     "label 7 out of range for 5 classes"),
}


@pytest.mark.parametrize("fault", BAD_MASKS)
@pytest.mark.parametrize("position", ["pred", "gt"])
def test_metrics_label_mask_errors_name_the_file(capsys, tmp_path, mask_pair, fault, position):
    # with two masks read, the message says which of them is at fault
    labels, flags, message = BAD_MASKS[fault]
    bad = tmp_path / "bad.npy"
    write_npy(bad, labels)
    pred, gt = mask_pair
    masks = [bad, gt] if position == "pred" else [pred, bad]
    code, out, err = run(capsys, "metrics", *masks, *flags)
    assert code == 2
    assert out == ""
    assert err == f"alias-scope: error: {bad}: {message}\n"


def _count_calls(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def _count_label_scans(monkeypatch):
    # a mask's one scan for its labels computes its cached `labels`
    return _count_calls(monkeypatch, LabelMask.labels, "func")


def _count_band_calls(monkeypatch):
    return _count_calls(monkeypatch, segmetrics, "boundary_band")


@pytest.fixture
def three_class_pair(tmp_path):
    gt = np.zeros((8, 8), dtype=np.uint8)
    gt[2:6, 2:6] = 1
    gt[6:, :] = 2
    pred = np.roll(gt, 1, axis=1)
    gt_path = tmp_path / "gt3.npy"
    pred_path = tmp_path / "pred3.npy"
    write_npy(gt_path, gt)
    write_npy(pred_path, pred)
    return pred_path, gt_path


@pytest.mark.parametrize("classes", [0, 2])
def test_metrics_validates_labels_before_any_band(
    capsys, monkeypatch, three_class_pair, classes
):
    calls = _count_band_calls(monkeypatch)
    pred, gt = three_class_pair
    code, out, err = run(capsys, "metrics", pred, gt, "--classes", classes)
    assert code == 2
    assert "out of range" in err
    assert out == ""
    assert calls == []


def test_metrics_builds_two_bands_per_class(capsys, monkeypatch, three_class_pair):
    calls = _count_band_calls(monkeypatch)
    packs = _count_calls(monkeypatch, segmetrics, "pack_class")
    unpacks = _count_calls(monkeypatch, segmetrics, "unpack_rows")
    pred, gt = three_class_pair
    report = run_json(capsys, "metrics", pred, gt, "--band-width", 1)
    assert len(report["result"]["per_class"]) == 3
    assert len(calls) == 2 * 3
    # each class mask is packed once, from the labels, and stays packed
    # through every count
    assert len(packs) == 2 * 3
    assert unpacks == []


@pytest.mark.parametrize("classes", [[], ["--classes", 3]])
def test_metrics_scans_and_validates_each_mask_once(
    capsys, monkeypatch, three_class_pair, classes
):
    scans = _count_label_scans(monkeypatch)
    checks = _count_calls(monkeypatch, LabelMask, "validate_classes")
    pred, gt = three_class_pair
    report = run_json(capsys, "metrics", pred, gt, "--band-width", 1, *classes)
    assert len(report["result"]["per_class"]) == 3
    # the class list and the range check read one scan of each mask
    assert len(scans) == 2 and scans[0][0] is not scans[1][0]
    assert len(checks) == 2


def test_metrics_parses_each_header_once(capsys, monkeypatch, three_class_pair):
    # each mask's header is parsed once, when it is typed, and its payload
    # is read through read_npy from that NpyFile
    headers = _count_calls(monkeypatch, arrays.NpyFile, "__init__")
    reads = _count_calls(monkeypatch, arrays, "read_npy")
    pred, gt = three_class_pair
    run_json(capsys, "metrics", pred, gt, "--band-width", 1)
    assert len(headers) == 2
    assert [type(args[0]) for args in reads] == [arrays.NpyFile] * 2


def test_analyze_builds_two_bands_per_class(capsys, monkeypatch, tmp_path, three_class_pair):
    pred, gt = three_class_pair
    probs_path, score_path = tmp_path / "probs3.npy", tmp_path / "score3.npy"
    write_npy(probs_path, np.full((3, 8, 8), 1 / 3))
    write_npy(score_path, np.linspace(0.0, 1.0, 64).reshape(8, 8))
    calls = _count_band_calls(monkeypatch)
    packs = _count_calls(monkeypatch, segmetrics, "pack_class")
    dilations = _count_calls(monkeypatch, segmetrics, "_dilate")
    scans = _count_label_scans(monkeypatch)
    report = run_json(
        capsys, "analyze", "--score", score_path, "--probs", probs_path,
        "--pred", pred, "--gt", gt, "--band-width", 1, "--bins", 2,
    )
    curves = set(report["result"]["curves"])
    assert curves == {"boundary_cross_entropy", "error_type_distribution"}
    # one band per class mask, and the --probs union is one more dilation,
    # of the gt label contour
    assert len(calls) == 2 * 3
    assert len(packs) == 2 * 3
    assert len(dilations) == 2 * 3 + 1
    # gt is scanned once, for the --probs range check, and the class list
    # reads that scan
    assert len(scans) == 2 and scans[0][0] is not scans[1][0]


def test_analyze_probs_band_is_one_dilation(capsys, monkeypatch, tmp_path, three_class_pair):
    # without --pred no class mask is packed: the --probs union is the
    # dilated gt label contour
    _, gt = three_class_pair
    probs_path, score_path = tmp_path / "probs3.npy", tmp_path / "score3.npy"
    write_npy(probs_path, np.full((3, 8, 8), 1 / 3))
    write_npy(score_path, np.linspace(0.0, 1.0, 64).reshape(8, 8))
    calls = _count_band_calls(monkeypatch)
    packs = _count_calls(monkeypatch, segmetrics, "pack_class")
    dilations = _count_calls(monkeypatch, segmetrics, "_dilate")
    report = run_json(
        capsys, "analyze", "--score", score_path, "--probs", probs_path,
        "--gt", gt, "--band-width", 1, "--bins", 2,
    )
    assert set(report["result"]["curves"]) == {"boundary_cross_entropy"}
    assert (len(calls), len(packs), len(dilations)) == (0, 0, 1)


def test_analyze_broken_simplex_fails_before_any_band(capsys, monkeypatch, tmp_path, three_class_pair):
    # the cross-entropy is binned before the error types, so probabilities
    # that break the simplex fail before any class's band pair is built
    pred, gt = three_class_pair
    probs_path, score_path = tmp_path / "probs3.npy", tmp_path / "score3.npy"
    probs = np.full((3, 8, 8), 1 / 3)
    probs[:, -1, -1] = 0.5
    write_npy(probs_path, probs)
    write_npy(score_path, np.linspace(0.0, 1.0, 64).reshape(8, 8))
    calls = _count_band_calls(monkeypatch)
    code, out, err = run(
        capsys, "analyze", "--score", score_path, "--probs", probs_path,
        "--pred", pred, "--gt", gt, "--band-width", 1, "--bins", 2,
    )
    assert code == 2
    assert out == ""
    assert err == "alias-scope: error: per-pixel probabilities do not form a simplex\n"
    assert calls == []


_RANGE_CHECKS = [  # command, flag, config key (None: flag only), bad value
    ("metrics", "--band-width", "metrics.band_width", 0),
    ("analyze", "--band-width", "metrics.band_width", -5),
    ("analyze", "--bins", "analysis.bins", 1),
    ("metrics", "--classes", None, -1),
]


@pytest.mark.parametrize(
    "command, flag, key, value, source",
    [(*case, source) for case in _RANGE_CHECKS for source in ("flag", "config")
     if source == "flag" or case[2] is not None],
)
def test_out_of_range_settings_exit_2_without_bands(
    capsys, tmp_path, command, flag, key, value, source
):
    # all-ignored masks and a bare score map build no band and no curve,
    # so the range check cannot lean on the band or binning code
    ignored, score = tmp_path / "ignored.npy", tmp_path / "score.npy"
    write_npy(ignored, np.full((8, 8), 255, dtype=np.uint8))
    write_npy(score, np.full((8, 8), 0.5))
    if source == "flag":
        extra = [flag, value]
    else:
        section, name = key.split(".")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[{section}]\n{name} = {value}\n")
        extra = ["--config", cfg]
    argv = {"metrics": ["metrics", ignored, ignored], "analyze": ["analyze", "--score", score]}
    code, out, err = run(capsys, *argv[command], *extra)
    assert code == 2
    assert out == ""
    assert err.startswith("alias-scope: error:") and "must be >= " in err
    assert f"got {value}" in err


def test_report_bytes_independent_of_thread_cap(capsys, monkeypatch, mask_pair, feature_file):
    pred, gt = mask_pair
    features = ["analyze", "--features", feature_file, "--cutoff", "0.25", "--window", "8",
                "--stride-px", "4"]
    outputs = []
    for count in (1, 4):
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        for argv in (["fold", "--freq", "0.4", "--stride", "2"], ["metrics", pred, gt], features):
            code, out, err = run(capsys, *argv)
            assert code == 0, err
            outputs.append(out)
    assert outputs[:3] == outputs[3:]


def test_metrics_all_ignored_masks_report_nulls(capsys, tmp_path):
    path = tmp_path / "ignored.npy"
    write_npy(path, np.full((8, 8), 255, dtype=np.uint8))
    result = run_json(capsys, "metrics", path, path)["result"]
    assert result["n_classes"] == 0
    assert result["per_class"] == {}
    assert result["miou"] is None
    assert set(result["mean"].values()) == {None}


# --- fuzz: every input gives a strict-JSON report (exit 0) or exit 2


@st.composite
def label_pair(draw):
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    labels = hnp.arrays(np.uint8, shape, elements=st.sampled_from([0, 1, 2, 255]))
    return draw(labels), draw(labels)


@settings(max_examples=60, deadline=None)
@given(
    label_pair(),
    st.sampled_from(["metrics", "analyze"]),
    st.sampled_from([-3, 0, 1, 2, 7, 10**12]),
    st.sampled_from([None, "small", "enough"]),
    st.sampled_from([None, -1, 1]),
    st.integers(0, 2**32 - 1),
)
def test_cli_fuzz_segmentation_reports(masks, command, band_width, classes, ignore, seed):
    pred, gt = masks
    with tempfile.TemporaryDirectory() as tmp:
        pred_path, gt_path = Path(tmp, "pred.npy"), Path(tmp, "gt.npy")
        write_npy(pred_path, pred)
        write_npy(gt_path, gt)
        argv = ["--band-width", band_width]
        if ignore is not None:
            argv += ["--ignore-value", ignore]
        if command == "metrics":
            argv = ["metrics", pred_path, gt_path, *argv]
            ignored = 255 if ignore is None else ignore
            labels = np.concatenate([pred.ravel(), gt.ravel()])
            top = int(labels[labels != ignored].max(initial=0))
            if classes is not None:
                argv += ["--classes", top if classes == "small" else top + 1]
        else:
            score_path = Path(tmp, "score.npy")
            write_npy(score_path, np.random.default_rng(seed).uniform(0, 1, gt.shape))
            argv = ["analyze", "--score", score_path, "--pred", pred_path, "--gt", gt_path,
                    "--bins", 3, *argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([str(a) for a in argv])
    assert code in (0, 2), err.getvalue()
    if code == 0:
        json.loads(out.getvalue(), parse_constant=_reject_constant)
    else:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("alias-scope: error:")


# --- start-up: only blur and freqmix load scipy

_SCIPY_PROBE = """
import contextlib, io, json, sys
from alias_scope.cli import main

def run_all(commands):
    codes = []
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes.append(main(argv))
    return codes

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

plain, scipy_users = json.loads(sys.argv[1])
report = {"plain": run_all(plain), "scipy_after_plain": scipy_modules()}
report["scipy_users"] = run_all(scipy_users)
report["scipy_after_users"] = scipy_modules()
print(json.dumps(report))
"""


def test_only_blur_and_freqmix_import_scipy(tmp_path):
    feat, probs, score = tmp_path / "feat.npy", tmp_path / "probs.npy", tmp_path / "score.npy"
    gt_path, pred_path, bank = tmp_path / "gt.npy", tmp_path / "pred.npy", tmp_path / "bank.npy"
    write_npy(feat, white_noise((2, 16, 16), seed=7).data)
    write_npy(probs, np.full((2, 16, 16), 0.5))
    write_npy(score, np.linspace(0.0, 1.0, 256).reshape(16, 16))
    gt = np.zeros((16, 16), dtype=np.uint8)
    gt[4:12, 4:12] = 1
    write_npy(gt_path, gt)
    write_npy(pred_path, np.roll(gt, 1, axis=1))
    write_npy(bank, np.eye(4).reshape(4, 2, 2))
    weights = tmp_path / "weights"
    weights.mkdir()
    for name in WEIGHT_FIELDS:
        shape = (2,) if name.endswith("channel") else (16, 16)
        write_npy(weights / f"{name}.npy", np.zeros(shape))
    out = lambda name: str(tmp_path / name)  # noqa: E731
    labels = ["--pred", pred_path, "--gt", gt_path, "--band-width", 1, "--bins", 4]
    plain = [
        ["fold", "--freq", 0.4, "--stride", 2],
        ["esr", "--kernel", 3, "--cin", 4, "--cout", 8, "--stride", 2],
        ["score", feat, "--cutoff", 0.25],
        ["daf", feat, "--cutoff", 0.25, "--out", out("daf.npy")],
        ["split", feat, "--cutoff", 0.25, "--out-low", out("lo.npy"), "--out-high", out("hi.npy")],
        ["noise", feat, "--sigma", 0.5, "--seed", 7, "--out", out("noise.npy")],
        ["response", "--builtin", "binomial3", "--grid", 16],
        ["orth", bank],
        ["metrics", pred_path, gt_path, "--band-width", 1],
        ["analyze", "--features", feat, "--probs", probs, *labels, "--cutoff", 0.25,
         "--window", 8, "--stride-px", 6],
        ["analyze", "--score", score, *labels],
    ]
    scipy_users = [
        ["blur", feat, "--size", 3, "--out", out("blur.npy")],
        ["freqmix", feat, "--cutoff", 0.25, "--weights-dir", weights, "--out", out("mix.npy")],
    ]
    argv = json.dumps([[[str(a) for a in cmd] for cmd in cmds] for cmds in (plain, scipy_users)])
    src = str(Path(alias_scope.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, argv], env=env, capture_output=True, text=True,
        check=True,
    )
    report = json.loads(proc.stdout)
    assert report["plain"] == [0] * len(plain)
    assert report["scipy_after_plain"] == []
    assert report["scipy_users"] == [0, 0]
    assert "scipy.ndimage" in report["scipy_after_users"]  # the probe does see scipy


# --- command contract: per-command flags, one report path, config checks

MEASURING = ("esr", "score", "metrics", "analyze", "response", "orth", "fold")
TRANSFORMS = ("daf", "split", "blur", "noise", "freqmix")

# the config-file keys each command reads (analyze with --features) ...
_OUT, _CUTOFF = {"output.format"}, {"cutoff.value", "cutoff.flc_stride"}
KEYS_READ = {
    "esr": _OUT, "response": _OUT, "orth": _OUT, "fold": _OUT,
    "score": {*_CUTOFF, "score.mode", *_OUT},
    "daf": _CUTOFF, "split": _CUTOFF, "freqmix": _CUTOFF,
    "blur": set(),
    "noise": {"output.seed"},
    "metrics": {"metrics.band_width", *_OUT},
    "analyze": {*_CUTOFF, "metrics.band_width", "analysis.window", "analysis.stride",
                "analysis.bins", *_OUT},
}
# ... and the settings its report's `config` block holds
REPORT_CONFIG = {
    "esr": {"out_format"}, "response": {"out_format"}, "orth": {"out_format"},
    "fold": {"out_format"},
    "score": {"cutoff_source", "cutoff", "score_mode", "out_format"},
    "metrics": {"band_width", "out_format"},
    "analyze": {"cutoff_source", "cutoff", "band_width", "window", "stride", "bins",
                "out_format"},
}


@pytest.fixture(scope="module")
def command_argv(tmp_path_factory):
    """A valid argument vector for every subcommand, on small inputs."""
    tmp = tmp_path_factory.mktemp("commands")
    feat, probs, bank = tmp / "feat.npy", tmp / "probs.npy", tmp / "bank.npy"
    gt_path, pred_path = tmp / "gt.npy", tmp / "pred.npy"
    write_npy(feat, white_noise((2, 16, 16), seed=7).data)
    write_npy(probs, np.full((2, 16, 16), 0.5))
    gt = np.zeros((16, 16), dtype=np.uint8)
    gt[4:12, 4:12] = 1
    write_npy(gt_path, gt)
    write_npy(pred_path, np.roll(gt, 1, axis=1))
    write_npy(bank, np.eye(4).reshape(4, 2, 2))
    weights = tmp / "weights"
    weights.mkdir()
    for name in WEIGHT_FIELDS:
        write_npy(weights / f"{name}.npy", np.zeros((2,) if name.endswith("channel") else (16, 16)))
    argv = {
        "esr": ["esr", "--kernel", 3, "--cin", 4, "--cout", 8, "--stride", 2],
        "score": ["score", feat, "--cutoff", 0.25],
        "daf": ["daf", feat, "--cutoff", 0.25, "--out", tmp / "daf.npy"],
        "split": ["split", feat, "--cutoff", 0.25,
                  "--out-low", tmp / "lo.npy", "--out-high", tmp / "hi.npy"],
        "blur": ["blur", feat, "--out", tmp / "blur.npy"],
        "noise": ["noise", feat, "--sigma", 0.5, "--out", tmp / "noise.npy"],
        "freqmix": ["freqmix", feat, "--weights-dir", weights, "--out", tmp / "mix.npy"],
        "metrics": ["metrics", pred_path, gt_path],
        "analyze": ["analyze", "--features", feat, "--probs", probs, "--pred", pred_path,
                    "--gt", gt_path, "--cutoff", 0.25, "--window", 8, "--stride-px", 4,
                    "--bins", 4],
        "response": ["response", "--builtin", "binomial3", "--grid", 16],
        "orth": ["orth", bank],
        "fold": ["fold", "--freq", 0.4, "--stride", 2],
    }
    return {name: [str(a) for a in args] for name, args in argv.items()}


def _main_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


NO_OP_FLAGS = (
    [(c, "--seed", "3") for c in (*MEASURING, "daf", "split", "blur", "freqmix")]
    + [(c, "--format", "json") for c in TRANSFORMS]
    + [("split", "--out", "unused.npy")]
)


@pytest.mark.parametrize("command, flag, value", NO_OP_FLAGS)
def test_no_op_flag_rejected(capsys, command_argv, command, flag, value):
    argv = command_argv[command]
    assert _main_captured(argv)[0] == 0
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, value])
    assert exc.value.code == 2
    # split's --out is now an ambiguous prefix of --out-low/--out-high
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err or "ambiguous option: --out" in err


@pytest.mark.parametrize("command", [*MEASURING, *TRANSFORMS])
def test_subcommand_help(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert text.startswith(f"usage: alias-scope {command}")
    assert ("--seed" in text) == (command == "noise")
    assert ("--format" in text) == (command in MEASURING)
    assert ("--out OUT" in text) == (command != "split")
    assert "--config" in text


def test_parser_built_once():
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize("command", [*MEASURING, *TRANSFORMS])
def test_repeated_main_calls_identical(command_argv, command):
    argv = command_argv[command]
    outputs = [argv[argv.index(flag) + 1] for flag in ("--out", "--out-low", "--out-high")
               if flag in argv]
    runs = []
    for _ in range(2):
        code, out, err = _main_captured(argv)
        assert code == 0, err
        runs.append((out, err, [Path(p).read_bytes() for p in outputs]))
    assert runs[0] == runs[1]
    assert bool(runs[0][0]) == (command in MEASURING)


def test_metrics_per_class_keys_sort_as_strings(capsys, tmp_path):
    gt = np.zeros((12, 12), dtype=np.uint8)
    gt[2:6, 2:6] = 2
    gt[7:11, 3:10] = 10
    gt_path, pred_path = tmp_path / "gt.npy", tmp_path / "pred.npy"
    write_npy(gt_path, gt)
    write_npy(pred_path, np.roll(gt, 1, axis=0))
    code, out, err = run(capsys, "metrics", pred_path, gt_path, "--band-width", 1)
    assert code == 0, err
    assert list(json.loads(out)["result"]["per_class"]) == ["0", "10", "2"]
    assert out.index('"10": {') < out.index('"2": {')


@pytest.mark.parametrize("command, code", [("score", 2), ("fold", 0)])
def test_config_percent_is_literal(capsys, tmp_path, command_argv, command, code):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[cutoff]\nvalue = 25%\n")
    argv = [a for a in command_argv[command] if a not in ("--cutoff", "0.25")]
    got, out, err = run(capsys, *argv, "--config", cfg)
    assert got == code, err
    if code == 2:
        assert out == ""
        assert err == (
            "alias-scope: error: config cutoff.value='25%': "
            "could not convert string to float: '25%'\n"
        )


@pytest.mark.parametrize(
    "command, section, key",
    [("analyze", "[output]\nformat = xml\n", "output.format"),
     ("fold", "[output]\nformat = xml\n", "output.format"),
     ("metrics", "[score]\nmode = bogus\n", "score.mode"),
     ("score", "[score]\nmode = bogus\n", "score.mode")],
)
def test_config_choice_keys_checked(capsys, tmp_path, command_argv, command, section, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(section)
    code, out, err = run(capsys, *command_argv[command], "--config", cfg)
    if key not in KEYS_READ[command]:  # metrics never reads score.mode
        assert (code, err) == (0, "")
        assert set(json.loads(out)["config"]) == REPORT_CONFIG[command]
        return
    assert code == 2
    assert out == ""
    assert err.startswith(f"alias-scope: error: config {key}=") and "expected one of" in err


@pytest.mark.parametrize("source", ["flag", "config"])
def test_csv_outside_analyze_writes_nothing(capsys, tmp_path, command_argv, source):
    cfg, out_map, report = tmp_path / "run.cfg", tmp_path / "resp.npy", tmp_path / "r.json"
    cfg.write_text("[output]\nformat = csv\n")
    extra = ["--format", "csv"] if source == "flag" else ["--config", cfg]
    code, out, err = run(
        capsys, *command_argv["response"], "--map-out", out_map, "--out", report, *extra
    )
    assert code == 2
    assert out == "" and "csv output" in err
    assert not out_map.exists() and not report.exists()


def test_overflow_rejections_print_no_warnings(tmp_path):
    # the finiteness checks give exit 2; numpy must not warn on the way there
    feat, kernel = tmp_path / "feat.npy", tmp_path / "k.npy"
    write_npy(feat, 1e200 * white_noise((2, 8, 8), seed=3).data)
    write_npy(kernel, np.full((3, 3), 1e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv in (["score", feat, "--cutoff", 0.25],
                     ["response", "--kernel-file", kernel, "--grid", 8]):
            code, out, err = _main_captured([str(a) for a in argv])
            assert code == 2
            assert out == ""
            assert err.startswith("alias-scope: error:") and err.count("\n") == 1


CONFIG_KEYS = {
    "cutoff": ["value", "flc_stride"],
    "score": ["mode"],
    "metrics": ["band_width"],
    "analysis": ["window", "stride", "bins"],
    "output": ["format", "seed"],
}
_line_text = st.text(st.characters(blacklist_categories=("Cs", "Cc", "Zl", "Zp")), max_size=8)
_config_value = st.one_of(
    st.sampled_from(["json", "csv", "xml", "global", "per_channel_mean", "bogus", "25%",
                     "%(x)s", "%%", "0.25", "nan", "-inf", "1e400", "", '"0.25"', "'3'"]),
    st.integers(-3, 40).map(str),
    st.floats().map(repr),
    _line_text,
)
_config_entry = st.tuples(
    st.one_of(st.sampled_from([*CONFIG_KEYS, "DEFAULT", "bogus"]), _line_text),
    st.one_of(st.sampled_from([k for keys in CONFIG_KEYS.values() for k in keys]), _line_text),
    _config_value,
)
_config_text = st.one_of(
    st.lists(_config_entry, max_size=6).map(
        lambda entries: "".join(f"[{s}]\n{k} = {v}\n" for s, k, v in entries)
    ),
    st.text(max_size=60),
)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([*MEASURING, *TRANSFORMS]), _config_text)
def test_cli_fuzz_config_files(command_argv, command, text):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp, "run.cfg")
        cfg.write_text(text, encoding="utf-8")
        code, out, err = _main_captured([*command_argv[command], "--config", str(cfg)])
    assert code in (0, 2), err
    if code == 2:
        assert out == ""
        assert err.startswith("alias-scope: error:")
    elif command in TRANSFORMS:
        assert out == ""
    elif out.startswith("curve,"):
        assert command == "analyze"
    else:
        report = json.loads(out, parse_constant=_reject_constant)
        config = report["config"]
        assert set(config) == REPORT_CONFIG[command]
        assert config.get("score_mode", "global") in ("per_channel_mean", "global")
        assert config["out_format"] == "json"
        if command == "analyze":  # the map was made with the settings the report records
            score_map = report["result"]["score_map"]
            assert [score_map[k] for k in ("window", "stride", "cutoff")] == [
                config[k] for k in ("window", "stride", "cutoff")]


def _outputs(argv):
    return [Path(argv[i + 1]).read_bytes() for i, flag in enumerate(argv)
            if flag in ("--out", "--out-low", "--out-high")]


@pytest.fixture(scope="module")
def runs_without_config(command_argv):
    runs = {}
    for command, argv in command_argv.items():
        runs[command] = (*_main_captured(argv), _outputs(argv))
    return runs


_name = st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=8)
_entries = st.dictionaries(
    st.tuples(st.one_of(st.sampled_from(list(CONFIG_KEYS)), _name),
              st.one_of(st.sampled_from([k for keys in CONFIG_KEYS.values() for k in keys]),
                        _name)),
    _config_value,
    max_size=8,
)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([*MEASURING, *TRANSFORMS]), _entries)
def test_config_keys_not_read_change_nothing(command_argv, runs_without_config, command, entries):
    sections: dict[str, list[str]] = {}
    for (section, key), value in entries.items():
        if f"{section}.{key}" not in KEYS_READ[command]:
            sections.setdefault(section, []).append(f"{key} = {value}\n")
    text = "".join(f"[{section}]\n" + "".join(lines) for section, lines in sections.items())
    argv = command_argv[command]
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp, "run.cfg")
        cfg.write_text(text, encoding="utf-8")
        code, out, err = _main_captured([*argv, "--config", str(cfg)])
    assert (code, out, err, _outputs(argv)) == runs_without_config[command], text


@pytest.mark.parametrize("flag, value", [
    ("--window", 5), ("--stride-px", 3), ("--cutoff", 0.3), ("--flc-stride", 2),
    ("--kernel", 3), ("--kernel-h", 3), ("--kernel-w", 3), ("--cin", 4), ("--cout", 4),
    ("--stride", 2), ("--in-h", 8), ("--in-w", 8), ("--out-h", 4), ("--out-w", 4),
])
def test_analyze_score_rejects_feature_flags(capsys, tmp_path, flag, value):
    score = tmp_path / "score.npy"
    write_npy(score, np.full((8, 8), 0.5))
    assert run(capsys, "analyze", "--score", score)[0] == 0
    code, out, err = run(capsys, "analyze", "--score", score, flag, value)
    assert code == 2
    assert out == ""
    assert err.startswith("alias-scope: error:") and err.count("\n") == 1
    assert flag in err


# --- the cutoff source rule, against a model written out here
#
# Flags > config file > default, the source taken as a whole: given flags
# name exactly one of --cutoff, --flc-stride or the downsampler (any of its
# ten flags), and the config's [cutoff] keys are then not read; without
# flags the config sets at most one key; without either, freqmix takes 0.25.

CUTOFF_COMMANDS = ("score", "daf", "split", "freqmix", "analyze")
DOWNSAMPLER_VALUES = {
    "--kernel": st.just(3), "--kernel-h": st.just(2), "--kernel-w": st.just(5),
    "--cin": st.just(4), "--cout": st.sampled_from([8, 64]), "--stride": st.sampled_from([2, 4]),
    "--in-h": st.just(16), "--in-w": st.just(32), "--out-h": st.just(8), "--out-w": st.just(16),
}
CUTOFF_FLAG_VALUES = {
    "--cutoff": st.sampled_from([0.25, 0.3]), "--flc-stride": st.sampled_from([2, 4]),
    **DOWNSAMPLER_VALUES,
}
_cutoff_flags = st.one_of(
    st.fixed_dictionaries({}, optional=CUTOFF_FLAG_VALUES),
    st.fixed_dictionaries({}, optional=DOWNSAMPLER_VALUES),
    st.fixed_dictionaries({}, optional={f: CUTOFF_FLAG_VALUES[f] for f in ("--cutoff", "--flc-stride")}),
    st.fixed_dictionaries(  # a kernel and channels, so that the stride and sizes decide
        {f: v for f, v in DOWNSAMPLER_VALUES.items() if f in ("--kernel", "--cin", "--cout")},
        optional={f: v for f, v in DOWNSAMPLER_VALUES.items() if f.startswith(("--stride", "--in", "--out"))},
    ),
)
_cutoff_config = st.fixed_dictionaries({}, optional={"value": st.just(0.2), "flc_stride": st.just(3)})


def _model_nyquist(flags: dict) -> float | None:
    """Half the downsampler's ESR, clamped to 1/2; None where its flags do
    not describe one."""
    kernel_h, kernel_w = (flags.get(f, flags.get("--kernel")) for f in ("--kernel-h", "--kernel-w"))
    if None in (kernel_h, kernel_w, flags.get("--cin"), flags.get("--cout")):
        return None
    sizes = [flags.get(f) for f in ("--in-h", "--in-w", "--out-h", "--out-w")]
    stride = flags.get("--stride")
    if any(sizes):
        if not all(sizes):
            return None
        in_h, in_w, out_h, out_w = sizes
        if stride is not None and (stride != in_h // out_h or stride != in_w // out_w):
            return None
    elif stride is None:
        return None
    else:
        in_h, in_w, out_h, out_w = stride, stride, 1, 1
    k = min(kernel_h, kernel_w, math.sqrt(flags["--cout"] / flags["--cin"]))
    return min(k * math.sqrt((out_h * out_w) / (in_h * in_w)) / 2.0, 0.5)


def _cutoff_model(command: str, flags: dict, config: dict) -> tuple[int, str | None, float | None]:
    """(exit code, cutoff_source, cutoff) of the rule above."""
    downsampler = {f: v for f, v in flags.items() if f in DOWNSAMPLER_VALUES}
    sources = [f for f in ("--cutoff", "--flc-stride") if f in flags] + ["esr"] * bool(downsampler)
    if len(sources) > 1 or (not sources and len(config) > 1):
        return 2, None, None
    if downsampler:
        cutoff = _model_nyquist(downsampler)
        return (2, None, None) if cutoff is None else (0, "esr", cutoff)
    value, stride = flags.get("--cutoff"), flags.get("--flc-stride")
    if not sources:
        value, stride = config.get("value"), config.get("flc_stride")
    if value is not None:
        return 0, "explicit", value
    if stride is not None:
        return 0, "flc", 1 / (2 * stride)
    return (0, "default", 0.25) if command == "freqmix" else (2, None, None)


@pytest.fixture(scope="module")
def cutoff_argv(command_argv, tmp_path_factory):
    """Each cutoff command's argument vector without a cutoff source."""
    tmp = tmp_path_factory.mktemp("cutoff")
    feat = command_argv["score"][1]
    argv = {
        "score": ["score", feat],
        "daf": ["daf", feat, "--out", tmp / "daf.npy"],
        "split": ["split", feat, "--out-low", tmp / "lo.npy", "--out-high", tmp / "hi.npy"],
        "freqmix": [*command_argv["freqmix"][:-1], tmp / "mix.npy"],
        "analyze": ["analyze", "--features", feat, "--window", 8, "--stride-px", 4],
    }
    return {name: [str(a) for a in args] for name, args in argv.items()}


def _run_cutoff(argv: list[str], flags: dict, config: dict):
    """(exit code, stdout, stderr, output bytes) of argv with these cutoff
    flags and [cutoff] config keys."""
    argv = [*argv, *(str(a) for item in flags.items() for a in item)]
    with tempfile.TemporaryDirectory() as tmp:
        if config:
            cfg = Path(tmp, "run.cfg")
            cfg.write_text("[cutoff]\n" + "".join(f"{k} = {v}\n" for k, v in config.items()))
            argv += ["--config", str(cfg)]
        code, out, err = _main_captured(argv)
    return code, out, err, _outputs(argv) if code == 0 else []


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(CUTOFF_COMMANDS), _cutoff_flags, _cutoff_config)
def test_cutoff_source_rule(cutoff_argv, command, flags, config):
    code, source, cutoff = _cutoff_model(command, flags, config)
    got_code, out, err, outputs = _run_cutoff(cutoff_argv[command], flags, config)
    assert got_code == code, err
    if code == 2:
        assert out == ""
        assert err.startswith("alias-scope: error:") and err.count("\n") == 1
    elif command in ("score", "analyze"):
        report = json.loads(out)["config"]
        assert (report["cutoff_source"], report["cutoff"]) == (source, cutoff)
    else:  # the arrays of the same command given the cutoff itself
        reference = _run_cutoff(cutoff_argv[command], {"--cutoff": repr(cutoff)}, {})
        assert reference[0] == 0 and outputs == reference[3]


@pytest.mark.parametrize("command, flags, config, code, message", [
    pytest.param("freqmix", {"--stride": 4, "--in-h": 64, "--in-w": 64, "--out-h": 16,
                             "--out-w": 16}, {}, 2, "missing --kernel (or --kernel-h/--kernel-w)",
                 id="freqmix-sizes-without-kernel"),
    pytest.param("score", {"--cutoff": 0.25, "--stride": 2, "--in-h": 8}, {}, 2,
                 "specify exactly one cutoff source: --cutoff, ESR flags, or --flc-stride",
                 id="cutoff-beside-stride-and-in-h"),
    pytest.param("score", {}, {"value": 0.25, "flc_stride": 4}, 2,
                 "config sets both cutoff.value and cutoff.flc_stride: keep one",
                 id="config-sets-both-keys"),
    pytest.param("score", {"--flc-stride": 4}, {"value": 0.25}, 0, None,
                 id="flc-stride-flag-beats-config-value"),
    pytest.param("score", {"--stride": 2}, {}, 2, "missing --kernel (or --kernel-h/--kernel-w)",
                 id="stride-alone"),
])
def test_cutoff_source_named_cases(cutoff_argv, command, flags, config, code, message):
    assert _cutoff_model(command, flags, config)[0] == code
    got_code, out, err, _ = _run_cutoff(cutoff_argv[command], flags, config)
    if code == 2:
        assert (got_code, out, err) == (2, "", f"alias-scope: error: {message}\n")
    else:
        assert got_code == 0, err
        report = json.loads(out)["config"]
        assert (report["cutoff_source"], report["cutoff"]) == ("flc", 0.125)
