"""Command-line interface.

Measuring subcommands (esr, score, metrics, analyze, orth, fold, response)
print a JSON report to stdout or --out; transforming subcommands (daf,
blur, noise, freqmix, split) write NPY files, a block of channels at a
time, each renamed into place once it is complete.  Reports embed the tool
version, the settings the command read (`config`) and sha256 digests of
every input, so identical invocations produce byte-identical output.
Each subcommand accepts only the flags it reads: --format on the
measuring commands, --seed on noise, --out everywhere but split.  Of a
--config file it reads and checks only the keys of the SETTINGS it uses.

Exit codes: 0 success, 2 usage/input error, 3 internal invariant failure.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import csv
import functools
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    PixelCrossEntropy,
    bin_by_score,
    error_type_distribution,
    patch_aliasing_map,
)
from .antialias import (
    SCORE_MODES,
    CutoffSpec,
    add_gaussian_noise,
    band_power,
    binomial_blur,
    binomial_kernel,
    channel_scores,
    check_power,
    daf,
    flc_cutoff,
    score_from_power,
)
from .arrays import (
    FeatureFile,
    LabelMask,
    NpyWriter,
    ScoreFile,
    read_npy,
    write_npy,
)
from .errors import InputError, InternalError, ValidationError
from .freqmix import (
    FreqMixParams,
    FreqMixWeights,
    freqmix_apply,
    freqmix_predict_weights,
    frequency_split,
)
from .sampling import (
    DownsampleSpec,
    FilterBank,
    esr,
    esr_anisotropic,
    filter_bank_orthogonality,
    nyquist,
    predicted_alias_frequency,
)
from .spectral import fft2, filter_frequency_response
from .segmetrics import (
    class_band_pairs,
    default_band_width,
    label_band,
    miou,
    multiclass_errors,
    relevant_classes,
)

TOOL_NAME = "alias-scope"
FORMATS = ("json", "csv")

# setting: config key, cast, default, flag attribute, choices.  Commands
# resolve their settings in this order, so the first bad one is reported.
SETTINGS = {
    "cutoff": ("cutoff.value", float, None, "cutoff", None),
    "flc_stride": ("cutoff.flc_stride", int, None, "flc_stride", None),
    "score_mode": ("score.mode", str, "per_channel_mean", "mode", SCORE_MODES),
    "band_width": ("metrics.band_width", int, None, "band_width", None),
    "window": ("analysis.window", int, 32, "window", None),
    "stride": ("analysis.stride", int, 8, "stride_px", None),
    "bins": ("analysis.bins", int, 20, "bins", None),
    "out_format": ("output.format", str, "json", "format", FORMATS),
    "seed": ("output.seed", int, 0, "seed", None),
}
# the downsampler's flags: any one of them makes its ESR the cutoff source
ESR_FLAGS = ("--kernel", "--kernel-h", "--kernel-w", "--cin", "--cout",
             "--stride", "--in-h", "--in-w", "--out-h", "--out-w")
# the flags of analyze that only --features reads
FEATURE_FLAGS = ("--window", "--stride-px", "--cutoff", "--flc-stride", *ESR_FLAGS)


# ---------------------------------------------------------------------------
# config file (sections of key = value pairs)


def _load_config_file(path) -> dict[str, str]:
    parser = configparser.ConfigParser(interpolation=None)  # values are literal
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except (OSError, UnicodeDecodeError, configparser.Error) as exc:
        raise InputError(f"cannot read config {path}: {exc}") from exc
    flat = {}
    for section in parser.sections():
        for key, value in parser.items(section):
            flat[f"{section}.{key}"] = value.strip().strip('"').strip("'")
    return flat


def _setting(args, name: str):
    """Explicit flag > config file > default.

    A config value must cast, and must be one of `choices` when those are
    given; argparse already holds the flag to the same choices.
    """
    key, cast, default, attr, choices = SETTINGS[name]
    value = getattr(args, attr, None)
    if value is not None:
        return value
    cfg = getattr(args, "_config", {})
    if key not in cfg:
        return default
    try:
        value = cast(cfg[key])
    except ValueError as exc:
        raise InputError(f"config {key}={cfg[key]!r}: {exc}") from exc
    if choices is not None and value not in choices:
        raise InputError(f"config {key}={value!r}: expected one of {', '.join(choices)}")
    return value


def _settings(args, *names: str) -> dict:
    """The named settings, resolved and checked in SETTINGS order: the
    `config` block of the command's report."""
    return {name: _setting(args, name) for name in SETTINGS if name in names}


# ---------------------------------------------------------------------------
# cutoff resolution


def _downsample_spec_from_args(args) -> DownsampleSpec:
    kernel_h = args.kernel_h if args.kernel_h is not None else args.kernel
    kernel_w = args.kernel_w if args.kernel_w is not None else args.kernel
    if kernel_h is None or kernel_w is None:
        raise InputError("missing --kernel (or --kernel-h/--kernel-w)")
    if args.cin is None or args.cout is None:
        raise InputError("missing --cin/--cout")
    sizes = (args.in_h, args.in_w, args.out_h, args.out_w)
    if any(v is not None for v in sizes):
        if any(v is None for v in sizes):
            raise InputError("explicit sizes need all of --in-h/--in-w/--out-h/--out-w")
        spec = DownsampleSpec(
            kernel_h, kernel_w, args.cin, args.cout,
            args.in_h, args.in_w, args.out_h, args.out_w,
        )
        if args.stride is not None and (
            spec.stride_h != args.stride or spec.stride_w != args.stride
        ):
            raise InputError(
                f"--stride {args.stride} inconsistent with sizes "
                f"(stride {spec.stride_h}x{spec.stride_w})"
            )
        return spec
    if args.stride is None:
        raise InputError("missing --stride (or explicit sizes)")
    return DownsampleSpec.from_stride(
        (kernel_h, kernel_w), args.cin, args.cout, args.stride
    )


def _given(args, flags) -> list[str]:
    """Those of `flags` given on the command line."""
    return [flag for flag in flags if getattr(args, flag[2:].replace("-", "_")) is not None]


def _resolve_cutoff(args, default: float | None = None) -> tuple[str, float]:
    """The cutoff source as a whole: flags > config file > default.  Given
    flags name exactly one of --cutoff, --flc-stride or the downsampler,
    and the config's [cutoff] keys are then not read; without flags the
    config may set one of them."""
    esr_given = bool(_given(args, ESR_FLAGS))
    explicit, flc = args.cutoff, args.flc_stride
    if esr_given + (explicit is not None) + (flc is not None) > 1:
        raise InputError("specify exactly one cutoff source: --cutoff, ESR flags, or --flc-stride")
    if not esr_given and explicit is None and flc is None:
        explicit, flc = _setting(args, "cutoff"), _setting(args, "flc_stride")
        if explicit is not None and flc is not None:
            raise InputError("config sets both cutoff.value and cutoff.flc_stride: keep one")
    if esr_given:
        return "esr", nyquist(_downsample_spec_from_args(args))
    if explicit is not None:
        return "explicit", explicit
    if flc is not None:
        return "flc", flc_cutoff(flc).cutoff
    if default is not None:
        return "default", default
    raise InputError("a cutoff is required: give --cutoff, ESR flags, or --flc-stride")


# ---------------------------------------------------------------------------
# report plumbing


def _sha256(path) -> str:
    """Digest of a file, read in 256 KiB blocks so no input is held twice."""
    digest = hashlib.sha256()
    block = bytearray(1 << 18)
    view = memoryview(block)
    with open(path, "rb") as fh:
        while n := fh.readinto(block):
            digest.update(view[:n])
    return digest.hexdigest()


def _write(args, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _report_json(config: dict, inputs: dict, result: dict) -> str:
    """Strict, key-sorted JSON report of a measuring command, with the tool
    version, the settings it read and input digests.  Every measuring
    command builds its report here; a non-JSON --format is an input error."""
    if config["out_format"] != "json":
        raise InputError("csv output is only available for binned curves (analyze)")
    report = {
        "tool": TOOL_NAME,
        "version": __version__,
        "config": config,
        "inputs": {
            name: {"path": str(path), "sha256": _sha256(path)}
            for name, path in inputs.items()
        },
        "result": result,
    }
    try:
        text = json.dumps(
            report, indent=2, sort_keys=True, allow_nan=False, default=lambda a: a.tolist()
        )
    except ValueError as exc:
        raise InternalError(f"report is not strict JSON: {exc}") from exc
    return text + "\n"


def _curves_csv(curves: dict[str, list[dict]]) -> str:
    fields = ["curve", *dict.fromkeys(k for rows in curves.values() for row in rows for k in row)]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    for name, rows in curves.items():
        for row in rows:
            writer.writerow({"curve": name, **row})
    return buf.getvalue()


def _band_width_for(band_width: int | None, shape: tuple[int, int]) -> int:
    if band_width is None:
        return default_band_width(*shape)
    if band_width < 1:
        raise InputError(f"band width must be >= 1, got {band_width}")
    return band_width


# ---------------------------------------------------------------------------
# subcommands


def cmd_esr(args) -> None:
    spec = _downsample_spec_from_args(args)
    config = _settings(args, "out_format")
    rate = esr(spec)
    rate_h, rate_w = esr_anisotropic(spec)
    result = {
        "esr": rate,
        "esr_h": rate_h,
        "esr_w": rate_w,
        "nyquist": nyquist(spec),
        "stride_h": spec.stride_h,
        "stride_w": spec.stride_w,
        "kernel_smaller_than_stride": spec.kernel_smaller_than_stride,
    }
    _write(args, _report_json(config, {}, result))


def cmd_score(args) -> None:
    source, cutoff = _resolve_cutoff(args)
    config = {**_settings(args, "score_mode", "out_format"),
              "cutoff_source": source, "cutoff": cutoff}
    features, spec = FeatureFile(args.input), CutoffSpec(cutoff)
    # blocks of two or more channels keep the whole tensor's bits (channel_blocks)
    with np.errstate(over="ignore", invalid="ignore"):  # band_power reports an overflow
        powers = [band_power(fft2(f), spec) for _, f in features.blocks(least=2)]
        high, total = (np.concatenate(p) for p in zip(*powers))
        check_power(total)  # a sum over blocks overflows where no block's does
    result = {
        "aliasing_score": score_from_power(high, total, config["score_mode"]),
        "mode": config["score_mode"],
        "per_channel_mean": score_from_power(high, total, "per_channel_mean"),
        "global": score_from_power(high, total, "global"),
        "per_channel": channel_scores(high, total),
        "cutoff": cutoff,
        "cutoff_source": source,
    }
    _write(args, _report_json(config, {"input": args.input}, result))


def _require_out(args) -> str:
    if not args.out:
        raise InputError("this command writes an array: --out is required")
    return args.out


def _stream(args, features: FeatureFile, outs: list, transform) -> None:
    """Run `transform(channels, block)` on each block of channels of
    `features`, in order, and append the float64 FeatureTensors it returns,
    one per path of `outs`, to those files.  The outputs are renamed into
    place only once every block is written.  Each block read was checked to
    be finite, so NaN/Inf in an output is the transform's overflow."""
    with contextlib.ExitStack() as stack:
        writers = [stack.enter_context(NpyWriter(out, np.float64, features.shape)) for out in outs]
        for channels, block in features.blocks():
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    results = transform(channels, block)
            except ValidationError as exc:
                raise ValidationError(
                    f"{args.command} output overflows float64; rescale the features"
                ) from exc
            for writer, result in zip(writers, results):
                write_npy(writer, result.data)
            del block, results, result  # the next block is read with none of these alive


def cmd_daf(args) -> None:
    _, cutoff = _resolve_cutoff(args)
    features, spec = FeatureFile(args.input), CutoffSpec(cutoff)
    _stream(args, features, [_require_out(args)], lambda channels, f: [daf(f, spec)])


def cmd_split(args) -> None:
    if Path(args.out_low).resolve() == Path(args.out_high).resolve():
        raise InputError(f"--out-low and --out-high are the same file: {args.out_low}")
    _, cutoff = _resolve_cutoff(args)
    features, spec = FeatureFile(args.input), CutoffSpec(cutoff)
    _stream(args, features, [args.out_low, args.out_high],
            lambda channels, f: frequency_split(f, spec))


def cmd_blur(args) -> None:
    features = FeatureFile(args.input)
    _stream(args, features, [_require_out(args)],
            lambda channels, f: [binomial_blur(f, args.size)])


def cmd_noise(args) -> None:
    seed = _setting(args, "seed")
    if seed < 0:  # before default_rng, which would raise ValueError
        raise InputError(f"seed must be >= 0, got {seed}")
    features, rng = FeatureFile(args.input), np.random.default_rng(seed)
    _stream(args, features, [_require_out(args)],
            lambda channels, f: [add_gaussian_noise(f, args.sigma, rng)])


def cmd_freqmix(args) -> None:
    _, cutoff = _resolve_cutoff(args, default=0.25)
    features = FeatureFile(args.input)
    if (args.weights_dir is None) == (args.params_dir is None):
        raise InputError("give exactly one of --weights-dir or --params-dir")
    if args.weights_dir is not None:
        weights = FreqMixWeights.from_npy_dir(args.weights_dir)
    else:
        weights = freqmix_predict_weights(features, FreqMixParams.from_npy_dir(args.params_dir))
    weights.check_against(features.shape)
    spec = CutoffSpec(cutoff)
    _stream(args, features, [_require_out(args)],
            lambda channels, f: [freqmix_apply(f, spec, weights.for_channels(channels))])


def cmd_metrics(args) -> None:
    config = _settings(args, "band_width", "out_format")
    if args.classes is not None and args.classes < 0:
        raise InputError(f"--classes must be >= 0, got {args.classes}")
    pred = LabelMask.from_npy(args.pred, args.ignore_value)
    gt = LabelMask.from_npy(args.gt, args.ignore_value)
    if pred.data.shape != gt.data.shape:
        raise InputError("pred and gt shapes differ")
    classes = relevant_classes(pred, gt)
    n_classes = args.classes if args.classes is not None else (max(classes) + 1 if classes else 0)
    # miou validates both masks against n_classes, so it runs before any band
    mean_iou = miou(pred, gt, n_classes, gt_classes_only=not args.all_classes)
    d = _band_width_for(config["band_width"], gt.data.shape)
    errors = multiclass_errors(class_band_pairs(pred, gt, d, classes))
    result = {
        "miou": mean_iou,
        "band_width": d,
        "n_classes": n_classes,
        "per_class": {str(c): counts.ratios() for c, counts in errors.counts.items()},
        "mean": errors.means(),
    }
    _write(args, _report_json(config, {"pred": args.pred, "gt": args.gt}, result))


def cmd_analyze(args) -> None:
    inputs = {}
    if (args.features is None) == (args.score is None):
        raise InputError("give exactly one of --features or --score")
    curves: dict[str, list[dict]] = {}
    result: dict = {}
    if args.features is not None:
        source, cutoff = _resolve_cutoff(args)
        config = {**_settings(args, "band_width", "window", "stride", "bins", "out_format"),
                  "cutoff_source": source, "cutoff": cutoff}
    else:
        if given := _given(args, FEATURE_FLAGS):
            raise InputError(f"--score does not read {', '.join(given)}: only --features does")
        config = _settings(args, "band_width", "bins", "out_format")
    bins = config["bins"]
    if bins < 2:
        raise InputError(f"bins must be >= 2, got {bins}")
    for flag, path in (("--probs", args.probs), ("--pred", args.pred)):
        if path is not None and args.gt is None:
            raise InputError(f"{flag} needs --gt")
    if config["out_format"] == "csv" and args.probs is None and args.pred is None:
        raise InputError("csv output needs at least one curve (--probs/--pred)")
    # every per-pixel input is read a block of rows at a time: the
    # features a band of window rows, the score map a leaf of values at a
    # time for its mean and again in blocks to bin, read from its file or
    # expanded from its window grid, and the probabilities as the
    # cross-entropy of each block is binned: the map is never whole
    if args.features is not None:
        inputs["features"] = args.features
        window, stride = config["window"], config["stride"]
        score_map = patch_aliasing_map(FeatureFile(args.features), window, stride, CutoffSpec(cutoff))
        result["score_map"] = {"window": window, "stride": stride, "cutoff": cutoff,
                               "mode": "per_channel_mean"}
    else:
        inputs["score"] = args.score
        score_map = ScoreFile(args.score)
        result["score_map"] = {"window": 0, "stride": 0, "cutoff": 0.0, "mode": "external"}
    result["score_map"]["mean"] = score_map.mean()

    gt = None
    if args.gt is not None:
        gt = LabelMask.from_npy(args.gt, args.ignore_value)
        inputs["gt"] = args.gt
        if gt.data.shape != score_map.shape:
            raise InputError("gt shape does not match the score map")
    d = _band_width_for(config["band_width"], score_map.shape)
    result["band_width"] = d

    if args.probs is not None:
        inputs["probs"] = args.probs
        ce = PixelCrossEntropy(FeatureFile(args.probs), gt)
    if args.pred is not None:
        pred = LabelMask.from_npy(args.pred, args.ignore_value)
        inputs["pred"] = args.pred
        if pred.data.shape != gt.data.shape:
            raise InputError("pred and gt shapes differ")
    # the cross-entropy is binned first, over one dilation of the gt label
    # contour, so bad probabilities fail before any band pair is built; the
    # error types take one class's pair of bands at a time
    if args.probs is not None:
        curve = bin_by_score(score_map, ce, label_band(gt, d), bins)
        curves["boundary_cross_entropy"] = curve.rows()
    if args.pred is not None:
        dist = error_type_distribution(class_band_pairs(pred, gt, d), score_map, bins)
        curves["error_type_distribution"] = dist.rows()

    if config["out_format"] == "csv":
        _write(args, _curves_csv(curves))
        return
    result["curves"] = curves
    _write(args, _report_json(config, inputs, result))


def cmd_response(args) -> None:
    if args.map_out and args.out and Path(args.map_out).resolve() == Path(args.out).resolve():
        raise InputError(f"--map-out and --out are the same file: {args.map_out}")
    config = _settings(args, "out_format")
    inputs = {}
    if (args.builtin is None) == (args.kernel_file is None):
        raise InputError("give exactly one of --builtin or --kernel-file")
    if args.builtin is not None:
        if not args.builtin.startswith("binomial"):
            raise InputError(f"unknown builtin kernel {args.builtin!r}")
        try:
            size = int(args.builtin.removeprefix("binomial"))
        except ValueError as exc:
            raise InputError(f"unknown builtin kernel {args.builtin!r}") from exc
        kernel = binomial_kernel(size)
    else:
        kernel = read_npy(args.kernel_file).astype(np.float64)
        inputs["kernel"] = args.kernel_file
    response = filter_frequency_response(kernel, args.grid)
    center = args.grid // 2
    result = {
        "grid": args.grid,
        "dc": float(response[center, center]),
        "min": float(response.min()),
        "max": float(response.max()),
        "map_out": str(args.map_out) if args.map_out else None,
    }
    report = _report_json(config, inputs, result)  # a rejected --format writes no map
    if args.map_out:
        write_npy(args.map_out, response)
    _write(args, report)


def cmd_orth(args) -> None:
    config = _settings(args, "out_format")
    bank = FilterBank.from_npy(args.bank)
    matrix, mean_off = filter_bank_orthogonality(bank)
    result = {
        "count": bank.count,
        "mean_abs_cosine_similarity": mean_off,
        "matrix": matrix,
    }
    _write(args, _report_json(config, {"bank": args.bank}, result))


def cmd_fold(args) -> None:
    config = _settings(args, "out_format")
    folded = predicted_alias_frequency(args.freq, args.stride)
    result = {
        "input_frequency": args.freq,
        "stride": args.stride,
        "folded_frequency": folded,
    }
    _write(args, _report_json(config, {}, result))


# ---------------------------------------------------------------------------
# parser


def _add_cutoff_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("cutoff (exactly one source)")
    group.add_argument("--cutoff", type=float, help="explicit normalized cutoff")
    group.add_argument("--flc-stride", type=int, help="stride-only cutoff 1/(2s)")
    _add_esr_flags(parser)


def _add_esr_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group(
        "downsampler description",
        "a kernel size (square, or per axis), input and output channels, and a "
        "stride or all four input and output sizes",
    )
    for flag in ESR_FLAGS:
        group.add_argument(flag, type=int)


@functools.cache  # main() may run many times in one process
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=TOOL_NAME,
        description="Aliasing analysis for downsampling operators and "
        "segmentation outputs",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *, report=False, out=True):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="key=value section config file")
        if out:
            p.add_argument("--out", help="write the report/array here instead of stdout")
        if report:
            p.add_argument("--format", choices=FORMATS)
        p.set_defaults(func=func)
        return p

    p = command("esr", cmd_esr, "equivalent sampling rate", report=True)
    _add_esr_flags(p)

    p = command("score", cmd_score, "aliasing score of a tensor", report=True)
    p.add_argument("input")
    p.add_argument("--mode", choices=SCORE_MODES)
    _add_cutoff_flags(p)

    p = command("daf", cmd_daf, "ideal de-aliasing filter")
    p.add_argument("input")
    _add_cutoff_flags(p)

    p = command("split", cmd_split, "low/high band split", out=False)
    p.add_argument("input")
    p.add_argument("--out-low", required=True)
    p.add_argument("--out-high", required=True)
    _add_cutoff_flags(p)

    p = command("blur", cmd_blur, "binomial blur baseline")
    p.add_argument("input")
    p.add_argument("--size", type=int, choices=[3, 5, 7], default=3)

    p = command("noise", cmd_noise, "seeded Gaussian noise")
    p.add_argument("input")
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--seed", type=int)

    p = command("freqmix", cmd_freqmix, "frequency mixing forward pass")
    p.add_argument("input")
    p.add_argument("--weights-dir", help="directory of weight-logit NPY files")
    p.add_argument("--params-dir", help="directory of prediction-head NPY files")
    _add_cutoff_flags(p)

    p = command("metrics", cmd_metrics, "segmentation metrics", report=True)
    p.add_argument("pred")
    p.add_argument("gt")
    p.add_argument("--classes", type=int)
    p.add_argument("--band-width", dest="band_width", type=int)
    p.add_argument("--ignore-value", type=int, default=255)
    p.add_argument("--all-classes", action="store_true",
                   help="average IoU over all classes, not just those in gt")

    p = command("analyze", cmd_analyze, "score/error correlation", report=True)
    p.add_argument("--features", help="feature tensor NPY for the score map")
    p.add_argument("--score", help="precomputed 2D score map NPY")
    p.add_argument("--probs", help="per-class probability tensor NPY")
    p.add_argument("--pred", help="predicted label mask NPY")
    p.add_argument("--gt", help="ground-truth label mask NPY")
    p.add_argument("--window", type=int)
    p.add_argument("--stride-px", dest="stride_px", type=int,
                   help="window stride in pixels")
    p.add_argument("--bins", type=int)
    p.add_argument("--band-width", dest="band_width", type=int)
    p.add_argument("--ignore-value", type=int, default=255)
    _add_cutoff_flags(p)

    p = command("response", cmd_response, "filter frequency response", report=True)
    p.add_argument("--builtin", help="binomial3 | binomial5 | binomial7")
    p.add_argument("--kernel-file", help="2D kernel NPY")
    p.add_argument("--grid", type=int, default=64)
    p.add_argument("--map-out", help="write the centered magnitude map NPY here")

    p = command("orth", cmd_orth, "filter bank orthogonality", report=True)
    p.add_argument("bank")

    p = command("fold", cmd_fold, "predicted alias frequency", report=True)
    p.add_argument("--freq", type=float, required=True)
    p.add_argument("--stride", type=int, required=True)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args._config = _load_config_file(args.config) if args.config else {}
        args.func(args)
    except InternalError as exc:
        print(f"{TOOL_NAME}: internal error: {exc}", file=sys.stderr)
        return 3
    except (InputError, OSError) as exc:
        print(f"{TOOL_NAME}: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"{TOOL_NAME}: error: input too large for memory: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
