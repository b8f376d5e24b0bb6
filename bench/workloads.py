"""The three benchmark workloads: seeded inputs, invocation lists and checks.

``prepare`` runs in the parent process (run.py).  It writes a workload's inputs and
reference results into a work directory, with a ``manifest.json`` that
records each input's shape, dtype and size.  ``invocations`` runs in the
workload child: it rebuilds the fixed list of ``alias-scope`` argument
vectors from the manifest, each with a check of its output.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy import ndimage
from scipy.special import expit

import inputs
import reference

WORKLOADS = ("activations", "segmentation", "correlation")

# Shapes per workload; the tiny ones serve the harness self-test.
SHAPES = {
    False: {
        "tensors": [(32, 128, 128), (32, 97, 97), (128, 32, 32), (8, 256, 256)],
        "bank": (128, 64, 3),  # (N, C, k) of an (N, C, k, k) bank
        "seg": (512, 1024),
        "corr_features": (64, 128, 256),
    },
    True: {
        "tensors": [(4, 16, 16), (4, 13, 13), (8, 8, 8), (2, 32, 32)],
        "bank": (8, 4, 3),
        "seg": (48, 96),
        "corr_features": (8, 48, 64),
    },
}
N_CLASSES = 19
PAIRS = 2
NOISE_SIGMA = 0.5
BLUR_SIZE = 5
WINDOW, WINDOW_STRIDE, BINS = 32, 8, 20
ARRAY_TOL = 1e-9  # relative to the largest reference magnitude
SCORE_TOL = 1e-9
CE_TOL = 1e-5  # the program may take the log in float32


def esr_flags(cin: int) -> list[str]:
    return ["--kernel", "3", "--cin", str(cin), "--cout", str(2 * cin), "--stride", "2"]


def esr_cutoff() -> float:
    """Nyquist of a 3x3, C -> 2C, stride-2 layer: min(3, sqrt 2) * 1/2 / 2."""
    return min(3.0, math.sqrt(2.0)) * 0.5 / 2.0


class CheckFailed(Exception):
    """An invocation's output disagrees with the reference."""


@dataclass(frozen=True)
class Invocation:
    label: str
    argv: list[str]
    check: Callable[[str], None]  # receives the captured stdout


# ---------------------------------------------------------------------------
# preparation (parent process, untimed)


class _Writer:
    def __init__(self, work: Path):
        self.work = work
        self.inputs: dict[str, dict] = {}

    def input(self, name: str, arr: np.ndarray) -> str:
        path = self.work / f"{name}.npy"
        path.parent.mkdir(parents=True, exist_ok=True)
        np.save(path, arr)
        self.inputs[name] = {
            "shape": list(arr.shape),
            "dtype": arr.dtype.str,
            "bytes": path.stat().st_size,
        }
        return str(path)

    def ref(self, name: str, arr: np.ndarray) -> str:
        path = self.work / "ref" / f"{name}.npy"
        path.parent.mkdir(parents=True, exist_ok=True)
        np.save(path, arr)
        return str(path)


def prepare(name: str, seed: int, work: Path, tiny: bool = False) -> dict:
    """Write the workload's inputs and references; return the manifest."""
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    writer = _Writer(work)
    (work / "out").mkdir(parents=True, exist_ok=True)
    shapes = SHAPES[tiny]
    cases = {
        "activations": _prepare_activations,
        "segmentation": _prepare_segmentation,
        "correlation": _prepare_correlation,
    }[name](rng, writer, shapes, seed)
    manifest = {"workload": name, "seed": seed, "tiny": tiny, "inputs": writer.inputs, "cases": cases}
    (work / "manifest.json").write_text(json.dumps(manifest, indent=1))
    return manifest


def _prepare_activations(rng, writer: _Writer, shapes: dict, seed: int) -> dict:
    cutoff = esr_cutoff()
    tensors = []
    for i, shape in enumerate(shapes["tensors"]):
        x = inputs.one_over_f(rng, shape)
        params = inputs.freqmix_params(rng, shape[0])
        params_dir = writer.work / f"t{i}_params"
        for field, arr in params.items():
            writer.input(f"t{i}_params/{field}", arr)
        x64 = x.astype(np.float64)
        low = reference.low_pass(x, cutoff)
        high = x64 - low
        p = {k: v.astype(np.float64) for k, v in params.items()}
        pooled, mean_map = x64.mean(axis=(1, 2)), x64.mean(axis=0)
        gain = {}
        for band in ("low", "high"):
            chan = p[f"fc_{band}_weight"] @ pooled + p[f"fc_{band}_bias"]
            spat = ndimage.correlate(mean_map, p[f"conv_{band}_kernel"], mode="reflect")
            spat = spat + float(p[f"conv_{band}_bias"])
            gain[band] = expit(chan)[:, None, None] * expit(spat)[None, :, :]
        row = {3: [1, 2, 1], 5: [1, 4, 6, 4, 1], 7: [1, 6, 15, 20, 15, 6, 1]}[BLUR_SIZE]
        row = np.array(row, dtype=np.float64) / sum(row)
        blurred = ndimage.convolve1d(x64, row, axis=1, mode="reflect")
        blurred = ndimage.convolve1d(blurred, row, axis=2, mode="reflect")
        noise = np.random.default_rng(seed).normal(0.0, NOISE_SIGMA, size=shape)
        tensors.append({
            "path": writer.input(f"t{i}", x),
            "params_dir": str(params_dir),
            "shape": list(shape),
            "scores": reference.scores(x, cutoff),
            "low": writer.ref(f"t{i}_low", low),
            "high": writer.ref(f"t{i}_high", high),
            "mix": writer.ref(f"t{i}_mix", gain["low"] * low + gain["high"] * high),
            "blur": writer.ref(f"t{i}_blur", blurred),
            "noise": writer.ref(f"t{i}_noise", x64 + noise),
        })
    bank = inputs.filter_bank(rng, *shapes["bank"])
    flat = bank.reshape(bank.shape[0], -1).astype(np.float64)
    norms = np.linalg.norm(flat, axis=1)
    cosine = np.abs(flat @ flat.T) / np.outer(norms, norms)
    np.fill_diagonal(cosine, 1.0)
    n = len(flat)
    kernel = np.outer(*[np.array([1, 4, 6, 4, 1]) / 16.0] * 2)
    padded = np.zeros((64, 64))
    padded[:5, :5] = kernel
    response = np.abs(np.fft.fft2(padded))
    return {
        "cutoff": cutoff,
        "noise_seed": seed,
        "tensors": tensors,
        "bank": writer.input("bank", bank),
        "bank_mean_off": float((cosine.sum() - n) / (n * (n - 1))),
        "bank_count": n,
        "response": {"dc": float(response[0, 0]), "min": float(response.min()), "max": float(response.max())},
    }


def _prepare_segmentation(rng, writer: _Writer, shapes: dict, seed: int) -> dict:
    h, w = shapes["seg"]
    d = reference.band_width_default(h, w)
    pairs = []
    for i in range(PAIRS):
        pred, gt = inputs.mask_pair(rng, h, w, N_CLASSES)
        score = inputs.smooth_unit_map(rng, h, w)
        ref = reference.segmentation(pred, gt, d)
        score64 = score.astype(np.float64)
        pairs.append({
            "pred": writer.input(f"p{i}_pred", pred),
            "gt": writer.input(f"p{i}_gt", gt),
            "score": writer.input(f"p{i}_score", score),
            "metrics": {k: ref[k] for k in ("per_class", "mean", "miou", "n_classes")},
            "score_mean": float(score64.mean()),
            "near_edge": reference.near_bin_edge(score64, BINS),
            "types": reference.type_counts(score64, ref["tags"], BINS),
        })
    return {"band_width": d, "pairs": pairs}


def _prepare_correlation(rng, writer: _Writer, shapes: dict, seed: int) -> dict:
    c, h, w = shapes["corr_features"]
    cutoff = esr_cutoff()
    d = reference.band_width_default(h, w)
    images = []
    for i in range(PAIRS):
        features = inputs.one_over_f(rng, (c, h, w))
        pred, gt = inputs.mask_pair(rng, h, w, N_CLASSES)
        probs = inputs.softmax_probs(rng, pred, N_CLASSES)
        score = reference.window_score_map(features, WINDOW, WINDOW_STRIDE, cutoff)
        seg = reference.segmentation(pred, gt, d)
        gt_bands = np.zeros(gt.shape, dtype=bool)
        for cls in np.unique(gt[gt != inputs.IGNORE]):
            gt_bands |= reference.band(gt == cls, d)
        counts, means = reference.binned_mean(score, reference.cross_entropy(probs, gt), gt_bands, BINS)
        images.append({
            "features": writer.input(f"i{i}_features", features),
            "probs": writer.input(f"i{i}_probs", probs),
            "pred": writer.input(f"i{i}_pred", pred),
            "gt": writer.input(f"i{i}_gt", gt),
            "score_mean": float(score.mean()),
            "near_edge": reference.near_bin_edge(score, BINS),
            "ce": {"count": counts, "mean": means},
            "types": reference.type_counts(score, seg["tags"], BINS),
        })
    return {"cutoff": cutoff, "band_width": d, "channels": c, "images": images}


# ---------------------------------------------------------------------------
# invocation lists and checks (workload child)


def invocations(work: Path) -> list[Invocation]:
    manifest = json.loads((work / "manifest.json").read_text())
    build = {
        "activations": _activations,
        "segmentation": _segmentation,
        "correlation": _correlation,
    }[manifest["workload"]]
    return build(manifest["cases"], work / "out")


def parse_report(text: str) -> dict:
    """Strict JSON: NaN and Infinity are a failure, not a value."""

    def reject(constant):
        raise CheckFailed(f"report holds the non-JSON constant {constant}")

    try:
        return json.loads(text, parse_constant=reject)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"report is not JSON: {exc}") from exc


def _close(what: str, got, want, tol: float) -> None:
    if want is None or got is None:
        if got is not want:
            raise CheckFailed(f"{what}: got {got!r}, expected {want!r}")
        return
    if not abs(got - want) <= tol * max(1.0, abs(want)):
        raise CheckFailed(f"{what}: got {got!r}, expected {want!r}")


def _same_array(path: str, ref_path: str, shape) -> None:
    out = np.load(path, mmap_mode="r")
    if out.shape != tuple(shape) or out.dtype != np.dtype("<f8"):
        raise CheckFailed(f"{path}: {out.dtype.str} {out.shape}, expected <f8 {tuple(shape)}")
    ref = np.load(ref_path, mmap_mode="r")
    scale = max(float(np.abs(ref).max()), 1e-300)
    err = float(np.abs(out - ref).max()) / scale
    if not err <= ARRAY_TOL:
        raise CheckFailed(f"{path}: max relative error {err:.3e}")


def _checks_arrays(pairs: list[tuple[str, str, list]]) -> Callable[[str], None]:
    def check(_stdout: str) -> None:
        for path, ref_path, shape in pairs:
            _same_array(path, ref_path, shape)

    return check


def _check_report(fn: Callable[[dict], None]) -> Callable[[str], None]:
    def check(stdout: str) -> None:
        fn(parse_report(stdout)["result"])

    return check


def _bins(what: str, rows: list[dict], want: dict[str, list], near_edge: int) -> None:
    if len(rows) != BINS:
        raise CheckFailed(f"{what}: {len(rows)} bins, expected {BINS}")
    for key, counts in want.items():
        got = [row[key] for row in rows]
        off = sum(abs(a - b) for a, b in zip(got, counts))
        if off > 2 * near_edge:
            raise CheckFailed(f"{what}.{key}: {got} expected {counts}")


def _activations(cases: dict, out: Path) -> list[Invocation]:
    cutoff = cases["cutoff"]
    result = []
    for i, t in enumerate(cases["tensors"]):
        x, shape, flags = t["path"], t["shape"], esr_flags(t["shape"][0])
        tag = f"t{i}"

        def score(r, t=t):
            _close("cutoff", r["cutoff"], cutoff, 1e-12)
            for mode in ("per_channel_mean", "global"):
                _close(mode, r[mode], t["scores"][mode], SCORE_TOL)
            _close("aliasing_score", r["aliasing_score"], t["scores"]["per_channel_mean"], SCORE_TOL)
            if len(r["per_channel"]) != t["shape"][0]:
                raise CheckFailed("per_channel has the wrong length")
            for c, (got, want) in enumerate(zip(r["per_channel"], t["scores"]["per_channel"])):
                _close(f"per_channel[{c}]", got, want, SCORE_TOL)

        o = {k: str(out / f"{tag}_{k}.npy") for k in ("daf", "low", "high", "mix", "blur", "noise")}
        result += [
            Invocation(f"score:{tag}", ["score", x, *flags], _check_report(score)),
            Invocation(f"daf:{tag}", ["daf", x, *flags, "--out", o["daf"]],
                       _checks_arrays([(o["daf"], t["low"], shape)])),
            Invocation(f"split:{tag}", ["split", x, *flags, "--out-low", o["low"], "--out-high", o["high"]],
                       _checks_arrays([(o["low"], t["low"], shape), (o["high"], t["high"], shape)])),
            Invocation(f"freqmix:{tag}", ["freqmix", x, "--params-dir", t["params_dir"], *flags, "--out", o["mix"]],
                       _checks_arrays([(o["mix"], t["mix"], shape)])),
            Invocation(f"blur:{tag}", ["blur", x, "--size", str(BLUR_SIZE), "--out", o["blur"]],
                       _checks_arrays([(o["blur"], t["blur"], shape)])),
            Invocation(f"noise:{tag}", ["noise", x, "--sigma", str(NOISE_SIGMA), "--seed", str(cases["noise_seed"]),
                                        "--out", o["noise"]],
                       _checks_arrays([(o["noise"], t["noise"], shape)])),
        ]

    def esr(r):
        _close("esr", r["esr"], math.sqrt(2) / 2, 1e-12)
        _close("nyquist", r["nyquist"], math.sqrt(2) / 4, 1e-12)

    def fold(r):
        _close("folded_frequency", r["folded_frequency"], 0.2, 1e-12)

    def response(r):
        for key, want in cases["response"].items():
            _close(key, r[key], want, 1e-9)

    def orth(r):
        if r["count"] != cases["bank_count"] or len(r["matrix"]) != cases["bank_count"]:
            raise CheckFailed("orth: wrong filter count")
        _close("mean_abs_cosine_similarity", r["mean_abs_cosine_similarity"], cases["bank_mean_off"], 1e-9)

    result += [
        Invocation("esr", ["esr", *esr_flags(64)], _check_report(esr)),
        Invocation("fold", ["fold", "--freq", "0.4", "--stride", "2"], _check_report(fold)),
        Invocation("response", ["response", "--builtin", f"binomial{BLUR_SIZE}"], _check_report(response)),
        Invocation("orth", ["orth", cases["bank"]], _check_report(orth)),
    ]
    return result


def _segmentation(cases: dict, out: Path) -> list[Invocation]:
    d = cases["band_width"]
    result = []
    for i, p in enumerate(cases["pairs"]):
        want = p["metrics"]

        def metrics(r, want=want):
            if r["band_width"] != d or r["n_classes"] != want["n_classes"]:
                raise CheckFailed("metrics: band width or class count differs")
            _close("miou", r["miou"], want["miou"], 1e-12)
            if sorted(r["per_class"]) != sorted(want["per_class"]):
                raise CheckFailed("metrics: class set differs")
            for c, rates in want["per_class"].items():
                for key, value in rates.items():
                    _close(f"class {c} {key}", r["per_class"][c][key], value, 1e-12)
            for key, value in want["mean"].items():
                _close(f"mean {key}", r["mean"][key], value, 1e-12)

        def analyze(r, p=p):
            if r["score_map"]["mode"] != "external" or r["band_width"] != d:
                raise CheckFailed("analyze: score map mode or band width differs")
            _close("score_map.mean", r["score_map"]["mean"], p["score_mean"], 1e-12)
            _bins("error_type_distribution", r["curves"]["error_type_distribution"], p["types"], p["near_edge"])

        result += [
            Invocation(f"metrics:p{i}", ["metrics", p["pred"], p["gt"]], _check_report(metrics)),
            Invocation(f"analyze-score:p{i}", ["analyze", "--score", p["score"], "--pred", p["pred"], "--gt", p["gt"]],
                       _check_report(analyze)),
        ]
    return result


def _correlation(cases: dict, out: Path) -> list[Invocation]:
    result = []
    for i, im in enumerate(cases["images"]):

        def analyze(r, im=im):
            meta = r["score_map"]
            if (meta["window"], meta["stride"], meta["mode"]) != (WINDOW, WINDOW_STRIDE, "per_channel_mean"):
                raise CheckFailed("analyze: score map parameters differ")
            _close("score_map.cutoff", meta["cutoff"], cases["cutoff"], 1e-12)
            _close("score_map.mean", meta["mean"], im["score_mean"], SCORE_TOL)
            if r["band_width"] != cases["band_width"]:
                raise CheckFailed("analyze: band width differs")
            ce_rows = r["curves"]["boundary_cross_entropy"]
            _bins("boundary_cross_entropy", ce_rows, {"count": im["ce"]["count"]}, im["near_edge"])
            if not im["near_edge"]:
                for b, (row, want) in enumerate(zip(ce_rows, im["ce"]["mean"])):
                    _close(f"cross-entropy bin {b}", row["mean"], want, CE_TOL)
            _bins("error_type_distribution", r["curves"]["error_type_distribution"], im["types"], im["near_edge"])

        argv = [
            "analyze", "--features", im["features"], "--probs", im["probs"],
            "--pred", im["pred"], "--gt", im["gt"], *esr_flags(cases["channels"]),
            "--window", str(WINDOW), "--stride-px", str(WINDOW_STRIDE), "--bins", str(BINS),
        ]
        result.append(Invocation(f"analyze:i{i}", argv, _check_report(analyze)))
    return result
