"""The feature commands stream blocks of channels.

`daf`, `split`, `blur`, `noise` and `freqmix` read, transform and write a
block of whole channels at a time.  Every output file must hold the bytes
that `write_npy` writes for the whole-tensor library call, whatever the
block size, and a failure at any block must leave no output behind.
`score` transforms a block at a time, and its report must hold the
whole-tensor call's numbers bit for bit.
"""

import contextlib
import functools
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alias_scope import cli
from alias_scope.antialias import (
    CutoffSpec,
    add_gaussian_noise,
    band_power,
    binomial_blur,
    channel_scores,
    daf,
    score_from_power,
)
from alias_scope.arrays import FeatureFile, FeatureTensor, write_npy
from alias_scope.cli import main
from alias_scope.freqmix import (
    FreqMixParams,
    FreqMixWeights,
    freqmix_apply,
    frequency_split,
)
from alias_scope.spectral import fft2
from test_cost import put_freqmix_dirs

COMMANDS = ["daf", "split", "blur", "noise", "freqmix --weights-dir", "freqmix --params-dir"]


def run(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


def command_argv(command, feat, folder: Path, outs) -> list:
    """argv of `command` on `feat`, writing to `outs` (two paths for split)."""
    cutoff = ["--cutoff", 0.3]
    return {
        "daf": ["daf", feat, *cutoff, "--out", outs[0]],
        "split": ["split", feat, *cutoff, "--out-low", outs[0], "--out-high", outs[1]],
        "blur": ["blur", feat, "--size", 5, "--out", outs[0]],
        "noise": ["noise", feat, "--sigma", 0.5, "--seed", 3, "--out", outs[0]],
        "freqmix --weights-dir": ["freqmix", feat, *cutoff, "--weights-dir", folder / "weights",
                                  "--out", outs[0]],
        "freqmix --params-dir": ["freqmix", feat, *cutoff, "--params-dir", folder / "params",
                                 "--out", outs[0]],
    }[command]


def whole_tensor_outputs(command, data, folder: Path) -> list[np.ndarray]:
    """The library call on the whole tensor, as the command made it before
    it streamed; the channel-mean map of `--params-dir` is numpy's mean."""
    f, spec = FeatureTensor(data), CutoffSpec(0.3)
    if command == "daf":
        return [daf(f, spec).data]
    if command == "split":
        return [band.data for band in frequency_split(f, spec)]
    if command == "blur":
        return [binomial_blur(f, 5).data]
    if command == "noise":
        return [add_gaussian_noise(f, 0.5, 3).data]
    if command == "freqmix --weights-dir":
        weights = FreqMixWeights.from_npy_dir(folder / "weights")
    else:
        data64 = data.astype(np.float64)
        params = FreqMixParams.from_npy_dir(folder / "params")
        weights = params.predict(data64.mean(axis=(1, 2)), data64.mean(axis=0))
    return [freqmix_apply(f, spec, weights).data]


def npy_bytes(arr: np.ndarray, folder: Path) -> bytes:
    path = folder / "reference.npy"
    write_npy(path, arr)
    return path.read_bytes()


@contextlib.contextmanager
def channel_blocks_of(block: int):
    """Every `FeatureFile.blocks` call cut `block` elements at a time."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FeatureFile, "blocks", functools.partialmethod(FeatureFile.blocks, block))
        yield


@settings(max_examples=150, deadline=None)
@given(
    command=st.sampled_from(COMMANDS),
    c=st.integers(1, 9),
    h=st.integers(1, 12),
    w=st.integers(1, 12),
    dtype=st.sampled_from(["<f4", "<f8"]),
    block_share=st.floats(0.0, 1.0),
    in_place=st.booleans(),
    seed=st.integers(0, 2**16),
)
@example(command="freqmix --params-dir", c=9, h=1, w=1, dtype="<f4", block_share=0.0,
         in_place=False, seed=3)  # one-pixel planes: numpy's mean map is a pairwise sum
def test_streamed_output_is_the_whole_tensor_call(command, c, h, w, dtype, block_share, in_place, seed):
    # blocks from one channel (block = 1) up to the whole tensor; with
    # in_place, --out (--out-low for split) names the input file itself
    block = 1 + round(block_share * (c * h * w - 1))
    data = np.random.default_rng(seed).standard_normal((c, h, w)).astype(dtype)
    with tempfile.TemporaryDirectory() as tmp:
        folder = Path(tmp)
        feat = folder / "feat.npy"
        write_npy(feat, data)
        put_freqmix_dirs(folder, c, (h, w), np.random.default_rng(seed))
        want = [npy_bytes(arr, folder) for arr in whole_tensor_outputs(command, data, folder)]
        outs = [feat if in_place else folder / "out.npy", folder / "high.npy"]
        with channel_blocks_of(block):
            code, err = run(command_argv(command, feat, folder, outs))
        assert code == 0, err
        assert [out.read_bytes() for out in outs[: len(want)]] == want


def make_failure_inputs(folder: Path, fault: str) -> Path:
    """A 3 x 256 x 256 `<f4` tensor, which the default block size reads one
    channel at a time, with a NaN in its last channel for `fault` "nan"."""
    data = np.random.default_rng(5).standard_normal((3, 256, 256)).astype("<f4")
    if fault == "nan":
        data[-1, -1, -1] = np.nan
    feat = folder / "feat.npy"
    write_npy(feat, data)
    put_freqmix_dirs(folder, 3, (256, 256), np.random.default_rng(5))
    return feat


@pytest.mark.parametrize("existing", [False, True], ids=["new-out", "existing-out"])
@pytest.mark.parametrize("fault", ["nan", "write-error"])
@pytest.mark.parametrize("command", COMMANDS)
def test_failed_stream_leaves_outputs_as_they_were(tmp_path, monkeypatch, command, fault, existing):
    feat = make_failure_inputs(tmp_path, fault)
    outs = [tmp_path / "out.npy", tmp_path / "high.npy"]
    if existing:
        for out in outs:
            out.write_bytes(b"earlier bytes of " + out.name.encode())
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    if fault == "write-error":  # the disk fills up at the second block
        calls = []

        def failing_write(dest, arr):
            calls.append(arr.shape)
            if len(calls) > 1:
                raise OSError(28, "No space left on device")
            write_npy(dest, arr)

        monkeypatch.setattr(cli, "write_npy", failing_write)
    code, err = run(command_argv(command, feat, tmp_path, outs))
    assert code == 2
    assert err.startswith("alias-scope: error:") and err.count("\n") == 1
    assert ("NaN/Inf" if fault == "nan" else "No space left") in err
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


@pytest.fixture
def overflowing(tmp_path):
    # finite +-1.7e308 values, whose transforms overflow float64
    signs = np.random.default_rng(0).random((2, 16, 16)) < 0.5
    feat = tmp_path / "big.npy"
    write_npy(feat, np.where(signs, -1.7e308, 1.7e308))
    put_freqmix_dirs(tmp_path, 2, (16, 16), np.random.default_rng(0))
    return feat


@pytest.mark.parametrize("command", ["daf", "split", "blur", "freqmix --weights-dir"])
def test_transform_overflow_named_in_one_line(tmp_path, overflowing, command):
    outs = [tmp_path / "out.npy", tmp_path / "high.npy"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, err = run(command_argv(command, overflowing, tmp_path, outs))
    assert code == 2
    assert err.count("\n") == 1
    assert err.startswith(f"alias-scope: error: {command.split()[0]} output overflows float64")
    assert not any(out.exists() for out in outs)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["big.npy", "params", "weights"]


@settings(max_examples=25, deadline=None)
@given(
    c=st.sampled_from([1, 3, 5, 7]),
    h=st.integers(48, 400),
    extra=st.integers(0, 300),
    dtype=st.sampled_from(["<f4", "<f8"]),
    cutoff=st.sampled_from([0.1, 0.25, 0.4]),
    seed=st.integers(0, 2**16),
)
def test_streamed_score_is_the_whole_tensor_call(c, h, extra, dtype, cutoff, seed):
    # planes of 65536 values or more are read two channels at a time, and
    # an odd C folds its last channel into the block before it: a block of
    # one channel would sum its high band pairwise and move the last bits
    w = -(-(1 << 16) // h) + extra
    data = np.random.default_rng(seed).standard_normal((c, h, w)).astype(dtype)
    high, total = band_power(fft2(FeatureTensor(data)), CutoffSpec(cutoff))
    want = {
        "per_channel": channel_scores(high, total),
        "per_channel_mean": score_from_power(high, total, "per_channel_mean"),
        "global": score_from_power(high, total, "global"),
    }
    with tempfile.TemporaryDirectory() as tmp:
        feat, out = Path(tmp) / "feat.npy", Path(tmp) / "score.json"
        write_npy(feat, data)
        code, err = run(["score", feat, "--cutoff", cutoff, "--out", out])
        assert code == 0, err
        result = json.loads(out.read_text())["result"]
    assert {key: result[key] for key in want} == want


def test_score_overflow_over_blocks_rejected(tmp_path):
    # each channel's power is 0.6e308 and each block of two sums to a finite
    # 1.2e308, but the four channels' total overflows float64
    signs = np.random.default_rng(0).random((4, 256, 256)) < 0.5
    feat = tmp_path / "big.npy"
    write_npy(feat, np.where(signs, -1.0, 1.0) * np.sqrt(0.6e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, err = run(["score", feat, "--cutoff", 0.25])
    assert code == 2
    assert err == "alias-scope: error: spectral power overflows float64; rescale the features\n"
