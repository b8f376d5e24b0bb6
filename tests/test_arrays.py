import contextlib
import io
import math
import os
import tempfile
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alias_scope import arrays
from alias_scope.arrays import (
    BinaryMask,
    FeatureFile,
    FeatureTensor,
    LabelMask,
    NpyWriter,
    ScoreFile,
    class_mask,
    read_npy,
    write_npy,
)
from alias_scope.cli import main
from alias_scope.errors import FormatError, InternalError, UnsupportedDtypeError, ValidationError


@pytest.mark.parametrize(
    "dtype", [np.float32, np.float64, np.uint8, np.int32, np.uint16]
)
def test_npy_round_trip_bit_exact(tmp_path, dtype):
    rng = np.random.default_rng(3)
    if np.issubdtype(dtype, np.floating):
        arr = rng.standard_normal((4, 5, 6)).astype(dtype)
    else:
        arr = rng.integers(0, 100, size=(5, 6)).astype(dtype)
    path = tmp_path / "a.npy"
    write_npy(path, arr)
    back = read_npy(path)
    assert back.dtype == arr.dtype
    assert back.shape == arr.shape
    assert back.tobytes() == arr.tobytes()


def test_npy_interops_with_numpy(tmp_path):
    arr = np.arange(12, dtype=np.float64).reshape(3, 4)
    path = tmp_path / "a.npy"
    write_npy(path, arr)
    assert np.array_equal(np.load(path), arr)  # our container is plain NPY
    np.save(tmp_path / "b.npy", arr)
    assert np.array_equal(read_npy(tmp_path / "b.npy"), arr)


def _v1_header(descr: str, shape: tuple[int, ...]) -> bytes:
    """The NPY v1.0 header the writer once built itself, kept as the
    reference for numpy's: the dict's repr, spaces up to a multiple of 64
    bytes with magic, version and length, and a newline."""
    header = "{'descr': %r, 'fortran_order': False, 'shape': %r, }" % (descr, shape)
    header += " " * (-(len(header) + 11) % 64) + "\n"
    return b"\x93NUMPY\x01\x00" + len(header).to_bytes(2, "little") + header.encode("ascii")


@pytest.mark.parametrize("descr", ["<f4", "<f8", "|u1", "<i4", "<u2"])
@pytest.mark.parametrize(
    "shape", [(), (0,), (5,), (2, 3), (3, 0, 7), (0, 10**12), (0, 10**6, 10**6)], ids=str
)
def test_npy_header_bytes_are_pinned(tmp_path, descr, shape):
    # the zero-size shapes reach long headers without writing data
    arr = np.arange(math.prod(shape)).astype(descr).reshape(shape)
    write_npy(tmp_path / "a.npy", arr)
    assert (tmp_path / "a.npy").read_bytes() == _v1_header(descr, shape) + arr.tobytes()


def test_load_zeros_3d_float(tmp_path):
    path = tmp_path / "z.npy"
    write_npy(path, np.zeros((2, 4, 4), dtype=np.float32))
    [(_, t)] = FeatureFile(path).blocks()
    assert isinstance(t, FeatureTensor)
    assert (t.channels, t.height, t.width) == (2, 4, 4)
    assert not t.data.any()


def test_load_2d_uint8_labels(tmp_path):
    labels = np.array([[0, 1], [1, 0]], dtype=np.uint8)
    path = tmp_path / "m.npy"
    write_npy(path, labels)
    m = LabelMask.from_npy(path)
    assert isinstance(m, LabelMask)
    assert np.array_equal(m.data, labels)


def test_load_2d_float_is_single_channel_tensor(tmp_path):
    path = tmp_path / "f.npy"
    write_npy(path, np.ones((3, 3), dtype=np.float64))
    [(_, t)] = FeatureFile(path).blocks()
    assert isinstance(t, FeatureTensor)
    assert t.channels == 1


def test_truncated_header_is_format_error(tmp_path):
    path = tmp_path / "bad.npy"
    path.write_bytes(b"\x93NUMPY\x01\x00\xff\xff{'descr'")
    with pytest.raises(FormatError):
        read_npy(path)


def test_bad_magic_is_format_error(tmp_path):
    path = tmp_path / "bad.npy"
    path.write_bytes(b"NOTNPY" + b"\x00" * 30)
    with pytest.raises(FormatError):
        read_npy(path)


def test_truncated_payload_is_format_error(tmp_path):
    path = tmp_path / "bad.npy"
    write_npy(path, np.zeros((4, 4), dtype=np.float64))
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(FormatError):
        read_npy(path)


def test_trailing_payload_bytes_are_format_error(tmp_path):
    path = tmp_path / "long.npy"
    write_npy(path, np.zeros((4, 4), dtype=np.float64))
    path.write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(FormatError):
        read_npy(path)


@pytest.mark.parametrize(
    "arr", [np.arange(6.0).reshape(2, 3), np.float64(2.5), np.zeros((0, 3))]
)
def test_read_npy_gives_writable_c_array(tmp_path, arr):
    path = tmp_path / "a.npy"
    write_npy(path, arr)
    back = read_npy(path)
    assert back.shape == np.shape(arr)
    assert back.flags.writeable and back.flags.c_contiguous
    assert np.array_equal(back, arr)


def test_fortran_order_rejected(tmp_path):
    path = tmp_path / "f.npy"
    np.save(path, np.asfortranarray(np.arange(12.0).reshape(3, 4)))
    with pytest.raises(FormatError):
        read_npy(path)


def test_unsupported_dtype_rejected(tmp_path):
    path = tmp_path / "i8.npy"
    np.save(path, np.arange(4, dtype=np.int64))
    with pytest.raises(UnsupportedDtypeError):
        read_npy(path)
    with pytest.raises(UnsupportedDtypeError):
        write_npy(tmp_path / "o.npy", np.arange(4, dtype=np.int64))


def test_nonfinite_floats_rejected(tmp_path):
    arr = np.ones((1, 2, 2), dtype=np.float64)
    arr[0, 0, 0] = np.nan
    path = tmp_path / "nan.npy"
    write_npy(path, arr)
    with pytest.raises(ValidationError, match=f"{path}: feature tensor contains NaN/Inf"):
        list(FeatureFile(path).blocks())


def test_3d_int_rejected(tmp_path):
    path = tmp_path / "i.npy"
    write_npy(path, np.zeros((2, 2, 2), dtype=np.int32))
    with pytest.raises(UnsupportedDtypeError):
        LabelMask.from_npy(path)


def test_save_unwritable_path_raises(tmp_path):
    t = FeatureTensor(np.zeros((1, 2, 2)))
    with pytest.raises(OSError):
        write_npy(tmp_path / "no" / "such" / "dir" / "x.npy", t.data)


def test_save_unwritable_path_names_the_path(tmp_path):
    # the temp file is an implementation detail: the error names the path
    path = tmp_path / "no" / "x.npy"
    with pytest.raises(FileNotFoundError, match=str(path)) as caught:
        write_npy(path, np.zeros(3))
    assert ".tmp" not in str(caught.value)


def test_npy_writer_appends_blocks_and_renames_on_success(tmp_path):
    arr = np.arange(60, dtype="<f8").reshape(5, 3, 4)
    path = tmp_path / "a.npy"
    write_npy(path, arr)
    whole = path.read_bytes()
    path.write_bytes(b"earlier")
    with NpyWriter(path, arr.dtype, arr.shape) as writer:
        for rows in (slice(0, 2), slice(2, 3), slice(3, 5)):
            write_npy(writer, arr[rows])
            assert path.read_bytes() == b"earlier"  # not renamed until the end
    assert path.read_bytes() == whole
    assert [p.name for p in tmp_path.iterdir()] == ["a.npy"]


@pytest.mark.parametrize(
    "blocks",
    [[(2, 3, 4)], [(2, 3, 4), (4, 3, 4)], [(5, 4, 3)], [(5, 12)]],
    ids=["too-few", "too-many", "wrong-plane", "wrong-rank"],
)
def test_npy_writer_rejects_blocks_that_miss_the_shape(tmp_path, blocks):
    path = tmp_path / "a.npy"
    with pytest.raises(InternalError):
        with NpyWriter(path, "<f8", (5, 3, 4)) as writer:
            for shape in blocks:
                write_npy(writer, np.zeros(shape))
    assert list(tmp_path.iterdir()) == []


def test_npy_writer_error_leaves_path_as_it_was(tmp_path):
    path = tmp_path / "a.npy"
    path.write_bytes(b"earlier")
    with pytest.raises(RuntimeError):
        with NpyWriter(path, "<f8", (2, 2)) as writer:
            write_npy(writer, np.ones((1, 2)))
            raise RuntimeError("a later block failed")
    assert path.read_bytes() == b"earlier"
    assert [p.name for p in tmp_path.iterdir()] == ["a.npy"]


def test_npy_writer_failed_publish_puts_the_old_file_back(tmp_path, monkeypatch):
    # the old file is renamed aside before the temp file is renamed onto
    # the path; when that second rename fails, the old file goes back
    path = tmp_path / "a.npy"
    path.write_bytes(b"earlier")
    rename, renamed = os.rename, []

    def failing_rename(src, dst):
        renamed.append(os.path.basename(src))
        if str(src).endswith(".tmp"):
            raise OSError(28, "No space left on device")
        rename(src, dst)

    monkeypatch.setattr(os, "rename", failing_rename)
    with pytest.raises(OSError, match="No space left"):
        write_npy(path, np.arange(6.0))
    assert path.read_bytes() == b"earlier"
    assert [p.name for p in tmp_path.iterdir()] == ["a.npy"]
    assert renamed[0] == "a.npy" and renamed[1].endswith(".tmp") and renamed[2].endswith(".old")


def test_npy_writer_first_write_leaves_only_the_output(tmp_path):
    write_npy(tmp_path / "a.npy", np.arange(6.0))
    assert [p.name for p in tmp_path.iterdir()] == ["a.npy"]
    assert np.array_equal(read_npy(tmp_path / "a.npy"), np.arange(6.0))


def test_write_through_symlink_keeps_the_link(tmp_path):
    (tmp_path / "data").mkdir()
    target, link = tmp_path / "data" / "a.npy", tmp_path / "link.npy"
    target.write_bytes(b"earlier")
    link.symlink_to(target)
    write_npy(link, np.arange(6.0))
    assert link.is_symlink()
    assert np.array_equal(read_npy(target), np.arange(6.0))
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["a.npy", "data", "link.npy"]


def test_write_to_fifo_is_in_place(tmp_path):
    # a pipe, like /dev/stdout, cannot be renamed over: it is written as is
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()))
    reader.start()
    write_npy(fifo, np.arange(6.0))
    reader.join(timeout=10)
    assert not reader.is_alive()
    np.save(tmp_path / "want.npy", np.arange(6.0))
    assert received == [(tmp_path / "want.npy").read_bytes()]
    assert fifo.is_fifo()


def test_class_mask_uniform():
    m = LabelMask(np.full((4, 4), 3, dtype=np.uint8))
    assert class_mask(m, 3).bits.all()
    assert not class_mask(m, 0).bits.any()


def test_class_mask_checkerboard():
    board = np.indices((4, 4)).sum(axis=0) % 2
    m = LabelMask(board.astype(np.uint8))
    assert class_mask(m, 1).count() == 8


def test_class_mask_clears_ignored():
    data = np.array([[1, 255], [1, 1]], dtype=np.uint8)
    m = LabelMask(data, ignore_value=255)
    assert class_mask(m, 255).count() == 0
    assert class_mask(m, 1).count() == 3


def test_label_validation():
    m = LabelMask(np.array([[0, 5]], dtype=np.uint8))
    m.validate_classes(6)
    with pytest.raises(ValidationError):
        m.validate_classes(5)
    with pytest.raises(ValidationError):
        LabelMask(np.array([[-1, 0]], dtype=np.int32), ignore_value=None)


@pytest.mark.parametrize(
    "data",
    [np.array([[0, 2**32 + 1]]), np.array([[0, -(2**31) - 1]]), np.array([[0, 2**31]], np.uint32)],
)
def test_labels_outside_int32_are_rejected(data):
    # the int32 cast would wrap them: 2**32 + 1 to the label 1, and a
    # uint32 2**31 to a negative label
    with pytest.raises(ValidationError, match=f"^label mask {data.dtype} values must fit in int32$"):
        LabelMask(data)


def test_int64_labels_that_fit_are_cast_to_int32():
    mask = LabelMask(np.array([[0, 2**31 - 1], [-(2**31), 7]]), ignore_value=-(2**31))
    assert mask.data.dtype == np.int32
    assert mask.present_classes() == [0, 7, 2**31 - 1]


def test_complex_features_are_rejected():
    # the float64 cast would drop the imaginary part
    with pytest.raises(ValidationError, match="^feature tensor must be real, got dtype complex128$"):
        FeatureTensor(np.ones((1, 2, 2)) + 1j)
    assert FeatureTensor(np.ones((1, 2, 2), dtype=np.int16)).data.dtype == np.float64


@pytest.mark.parametrize("ignore", [None, 255])
def test_labelled_rows(ignore):
    mask = LabelMask(np.array([[0, 255], [3, 255], [255, 1]], dtype=np.uint8), ignore)
    want = np.array([[1, 0], [1, 0], [0, 1]], dtype=bool) | (ignore is None)
    assert np.array_equal(mask.labelled(slice(1, 3)), want[1:])
    assert np.array_equal(mask.labelled(slice(None)), want)


@settings(max_examples=50)
@given(
    st.integers(1, 6),
    st.integers(1, 6),
    st.integers(2, 5),
    st.integers(0, 2**32 - 1),
)
def test_class_mask_partitions(h, w, n_classes, seed):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, n_classes, size=(h, w)).astype(np.uint8)
    m = LabelMask(labels, ignore_value=None)
    cover = np.zeros((h, w), dtype=int)
    for c in range(n_classes):
        cover += class_mask(m, c).bits
    assert (cover == 1).all()


LABEL_POOLS = {"|u1": [0, 1, 3, 255], "<u2": [0, 3, 255, 65535], "<i4": [0, 3, 255, 2**30]}


@st.composite
def label_grids(draw):
    dtype = draw(st.sampled_from(sorted(LABEL_POOLS)))
    h, w = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    pool = st.sampled_from(LABEL_POOLS[dtype])
    values = draw(st.lists(pool, min_size=h * w, max_size=h * w))
    return np.array(values, dtype=dtype).reshape(h, w)


@settings(max_examples=100)
@given(label_grids(), st.sampled_from([None, 0, 255]))
@example(np.array([[2**30, 7]], dtype="<i4"), None)
@example(np.array([[2**30, 255]], dtype="<i4"), 255)
def test_present_classes_matches_unique(data, ignore):
    expected = [int(v) for v in np.unique(data) if v != ignore]
    mask = LabelMask(data, ignore)
    assert mask.present_classes() == expected
    # the range check reads that one scan, not the mask
    object.__setattr__(mask, "data", None)
    top = max(expected, default=-1)
    assert mask.validate_classes(top + 1) == top
    with pytest.raises(ValidationError, match=f"^label {top} out of range for {top} classes$"):
        mask.validate_classes(top)


@pytest.mark.parametrize("dtype", ["<f4", "<f8", "|u1", "<i4", "<u2"])
def test_score_file_rows_are_the_float64_map(tmp_path, dtype):
    # 700 rows of 300 pixels: row blocks of 218 rows, the last one short
    rng = np.random.default_rng(5)
    values = rng.uniform(0.0, 1.0, (700, 300))
    if dtype[1] != "f":
        values = values > 0.5
    path = tmp_path / "score.npy"
    write_npy(path, values.astype(dtype))
    scores = ScoreFile(path)
    want = read_npy(path).astype(np.float64)
    assert scores.shape == (700, 300)
    for y0, y1 in [(0, 700), (0, 1), (3, 7), (217, 437), (699, 700)]:
        rows = scores.rows(y0, y1)
        assert rows.dtype == np.float64
        assert np.array_equal(rows, want[y0:y1])


def test_score_file_checks(tmp_path):
    path = tmp_path / "score.npy"
    values = np.full((700, 300), 0.5)
    values[0, 0] = 2.0  # out of range in the first block
    values[-1, -1] = np.nan  # NaN in the last block
    write_npy(path, values)
    with pytest.raises(ValidationError, match="NaN/Inf"):
        ScoreFile(path).rows(0, 700)
    with pytest.raises(ValidationError, match=r"lie in \[0, 1\]"):
        ScoreFile(path).rows(0, 699)
    for shape, message in [((2, 3, 4), "must be 2D"), ((0, 4), "must be positive")]:
        write_npy(path, np.zeros(shape))
        with pytest.raises(ValidationError, match=message):
            ScoreFile(path)


SCORE_DTYPES = ["<f4", "<f8", "|u1", "<i4", "<u2"]
# numpy stops splitting at 128 values, so every leaf of at least 128 splits
# where numpy does; sizes around leaves and numpy's 8-value unroll, and primes
MEAN_SIZES = [1, 2, 7, 8, 9, 127, 128, 129, 255, 256, 257, 1021, 1023, 1024,
              1025, 4093, 4095, 4097, 65535, 65537, 131071, 131073]


@st.composite
def score_maps(draw):
    dtype = draw(st.sampled_from(SCORE_DTYPES))
    n = draw(st.one_of(st.sampled_from(MEAN_SIZES), st.integers(1, 20000)))
    h = draw(st.sampled_from([d for d in (1, 2, 3, 7) if n % d == 0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if dtype[1] == "f":
        # magnitudes 1e-17 .. 1, mixed within the map, so the order of the
        # additions shows in the last bits
        values = rng.uniform(0.0, 1.0, n) * 10.0 ** rng.integers(-17, 1, n)
    else:
        values = rng.integers(0, 2, n)
    return values.astype(dtype).reshape(h, n // h)


@settings(max_examples=300, deadline=None)
@given(score_maps(), st.sampled_from([128, 136, 1000, 4096, 1 << 16]))
@example(np.full((1, 1), 0.3), 128)
@example(np.linspace(0.0, 1.0, 131073).reshape(1, -1), 128)
def test_score_file_mean_is_numpy_mean_bit_for_bit(values, leaf):
    # the leaves are summed as numpy's pairwise sum splits the whole map,
    # so the mean keeps every bit of np.mean over the float64 map
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "score.npy"
        write_npy(path, values)
        want = float(read_npy(path).astype(np.float64).mean())
        with mock.patch.object(arrays, "PAIRWISE_LEAF", leaf):
            got = ScoreFile(path).mean()
    assert got.hex() == want.hex()


def test_score_file_mean_checks(tmp_path, monkeypatch):
    # several leaves: NaN/Inf in the last one still wins over a value out
    # of range in the first, because the range is checked after the pass
    monkeypatch.setattr(arrays, "PAIRWISE_LEAF", 128)
    path = tmp_path / "score.npy"
    values = np.full((40, 30), 0.5)
    values[0, 0] = 2.0
    values[-1, -1] = np.nan
    write_npy(path, values)
    with pytest.raises(ValidationError, match="score map contains NaN/Inf"):
        ScoreFile(path).mean()
    values[-1, -1] = 0.5
    write_npy(path, values)
    with pytest.raises(ValidationError, match=r"score values must lie in \[0, 1\]"):
        ScoreFile(path).mean()
    # a payload cut short after the header was checked
    values[0, 0] = 0.5
    write_npy(path, values)
    scores = ScoreFile(path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(FormatError, match="payload shorter than its header"):
        scores.mean()


def test_signed_labels_scan_in_row_blocks():
    # the negative-label scan and present_classes take <i4 labels a block of
    # rows at a time: no 1 MiB `arr < 0` or `arr != ignore` mask and no
    # 4 MiB sorted copy of the labels
    labels = np.zeros((1024, 1024), dtype="<i4")
    labels[::7, ::5] = 2**30
    labels[-1, -1] = 255
    tracemalloc.start()
    try:
        classes = LabelMask(labels).present_classes()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert classes == [0, 2**30]
    assert peak < 2**20
    labels[-1, -1] = -1  # in the last block of rows
    with pytest.raises(ValidationError, match="negative labels"):
        LabelMask(labels)
    assert LabelMask(labels, ignore_value=-1).present_classes() == [0, 2**30]


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16])
def test_unsigned_labels_build_no_sign_mask(dtype):
    # |u1 and <u2 labels cannot be negative, so no full-size `arr < 0` or
    # `arr != ignore` mask (1 MiB each here) is built
    labels = np.zeros((1024, 1024), dtype=dtype)
    tracemalloc.start()
    try:
        LabelMask(labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16


def test_binary_mask_round_trip(tmp_path):
    bits = np.array([[True, False], [False, True]])
    path = tmp_path / "b.npy"
    write_npy(path, BinaryMask(bits).bits.astype(np.uint8))
    back = LabelMask.from_npy(path)
    assert isinstance(back, LabelMask)
    assert np.array_equal(back.data.astype(bool), bits)


def test_label_file_as_features_is_rejected_from_its_header(tmp_path, capsys):
    # the messages of a whole-file load, from the header alone: a 2D
    # integer file is a label mask, a zero-size float file an empty tensor
    path = tmp_path / "x.npy"
    cases = [
        (np.zeros((4, 4), dtype="|u1"), "expected a float feature tensor"),
        (np.zeros((4, 4), dtype="<i4"), "expected a float feature tensor"),
        (np.zeros((0, 4)), "feature tensor dims must be positive: (1, 0, 4)"),
        (np.zeros((2, 0, 4), dtype="<f4"), "feature tensor dims must be positive: (2, 0, 4)"),
    ]
    for data, message in cases:
        write_npy(path, data)
        with pytest.raises(ValidationError) as info:
            FeatureFile(path)
        assert str(info.value).removeprefix(f"{path}: ") == message
    # a large <i4 label file, with a negative label, is not read at all
    labels = np.zeros((2048, 2048), dtype="<i4")
    labels[-1, -1] = -1
    write_npy(path, labels)
    del labels
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="expected a float feature tensor"):
            FeatureFile(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * 2**20
    out = tmp_path / "daf.npy"
    for argv in (["analyze", "--features", str(path)], ["daf", str(path), "--out", str(out)]):
        capsys.readouterr()
        assert main([*argv, "--cutoff", "0.25"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"alias-scope: error: {path}: expected a float feature tensor\n")
    assert not out.exists()


def test_label_file_is_rejected_from_its_header(tmp_path, capsys):
    # a float file is not a label mask, whatever its values or size, and
    # every mask input says so from the header alone
    path, good, score = tmp_path / "x.npy", tmp_path / "good.npy", tmp_path / "score.npy"
    write_npy(good, np.zeros((4, 4), dtype=np.uint8))
    write_npy(score, np.full((4, 4), 0.5))
    nan = np.ones((4, 4))
    nan[-1, -1] = np.nan
    line = f"alias-scope: error: {path}: expected an integer label mask\n"
    for data in (np.zeros((4, 4), dtype="<f4"), np.zeros((2, 4, 4)), nan, np.zeros((0, 4), dtype="<f4")):
        write_npy(path, data)
        for argv in (["metrics", path, good], ["metrics", good, path],
                     ["analyze", "--score", score, "--pred", path, "--gt", good],
                     ["analyze", "--score", score, "--pred", good, "--gt", path]):
            capsys.readouterr()
            assert main([str(a) for a in argv]) == 2
            assert capsys.readouterr() == ("", line)
    # a large float file is not read at all
    write_npy(path, np.zeros((2048, 2048), dtype="<f4"))
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="expected an integer label mask"):
            LabelMask.from_npy(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * 2**20


# --- fuzz: any header dict reads, or raises FormatError/UnsupportedDtypeError
# alike from every reader

_DIMS = st.one_of(
    st.integers(-2, 4),
    st.booleans(),
    st.sampled_from([10**30, 2**62, 2**63, 4611686018427387904]),
)


@st.composite
def npy_header(draw):
    descr = draw(
        st.one_of(
            st.sampled_from(["<f8", "<f4", "|u1", "<i4", "<u2"]),
            st.sampled_from(["<i8", ">f8", "", ["<f8"], {}, 8, None, b"<f8", ("<f8",)]),
        )
    )
    fortran = draw(st.one_of(st.just(False), st.sampled_from([True, 0, 1, None, "False"])))
    shape = draw(
        st.one_of(
            st.tuples(*[_DIMS] * draw(st.integers(0, 3))),
            st.sampled_from([[2, 2], 4, None, (2.0, 2)]),
        )
    )
    return {"descr": descr, "fortran_order": fortran, "shape": shape}


def _npy_bytes(header: dict, payload: bytes) -> bytes:
    text = repr(header)
    text += " " * ((-(10 + len(text) + 1)) % 64) + "\n"
    return b"\x93NUMPY\x01\x00" + len(text).to_bytes(2, "little") + text.encode() + payload


def _f8_header(descr="<f8", shape=(2, 2)):
    return {"descr": descr, "fortran_order": False, "shape": shape}


def _outcome(reader, path):
    try:
        return reader(path)
    except (FormatError, UnsupportedDtypeError, ValidationError) as exc:
        return exc


def _error(outcome):
    return (type(outcome).__name__, str(outcome)) if isinstance(outcome, Exception) else None


def _type_rule_errors(path, descr, shape):
    """The (type, message) that FeatureFile, LabelMask.from_npy and
    ScoreFile raise on a well-formed header of this descr and shape, or
    None where they open."""
    floats = descr[1] == "f"
    if len(shape) not in (2, 3):
        feature = label = ("ValidationError", f"{path}: expected 2D or 3D array, got {len(shape)}D")
    elif not floats and len(shape) == 3:
        feature = label = ("UnsupportedDtypeError", f"{path}: 3D integer arrays have no interpretation here")
    elif floats:
        label = ("ValidationError", f"{path}: expected an integer label mask")
        feature = None
        if 0 in shape:
            feature = ("ValidationError", f"{path}: feature tensor dims must be positive: {(1, *shape)[-3:]}")
    elif 0 in shape:
        feature = label = ("ValidationError", f"{path}: label mask dims must be positive: {shape}")
    else:
        feature, label = ("ValidationError", f"{path}: expected a float feature tensor"), None
    score = None
    if len(shape) != 2:
        score = ("ValidationError", f"{path}: score map must be 2D")
    elif 0 in shape:
        score = ("ValidationError", f"{path}: score map dims must be positive: {shape}")
    return feature, label, score


@settings(max_examples=200, deadline=None)
@given(npy_header(), st.sampled_from(["empty", "short", "exact", "long"]), st.integers(0, 2**32 - 1))
@example(_f8_header(descr=["<f8"]), "exact", 0)
@example(_f8_header(descr={}), "exact", 0)
@example(_f8_header(shape=(True, True, True)), "exact", 0)
@example(_f8_header(shape=(10**30, 4, 4)), "empty", 0)
@example(_f8_header(shape=(4611686018427387904, 4, 4)), "empty", 0)
@example(_f8_header(shape=(0, 2**63)), "exact", 0)
@example(_f8_header(descr="<i4"), "exact", 0)
@example(_f8_header(shape=(2, 0, 3)), "exact", 0)
@example(_f8_header(descr="|u1", shape=(0, 3)), "exact", 0)
def test_read_npy_header_fuzz(header, length, seed):
    shape, descr = header["shape"], header["descr"]
    itemsize = 8 if not isinstance(descr, str) else int(descr[-1:] or 8)
    n = 1
    if isinstance(shape, tuple):
        for dim in shape:
            n *= dim if isinstance(dim, int) else 1
    exact = max(0, min(n * itemsize, 4096))
    size = {"empty": 0, "short": max(0, exact - itemsize), "exact": exact, "long": exact + itemsize}[length]
    payload = np.random.default_rng(seed).uniform(-1, 1, size).astype("<f8").tobytes()[:size]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "x.npy")
        path.write_bytes(_npy_bytes(header, payload))
        readers = (read_npy, FeatureFile, LabelMask.from_npy, ScoreFile)
        arr, features, labels, scores = (_outcome(reader, path) for reader in readers)
        if isinstance(arr, Exception):  # a malformed header: one error from every reader
            assert isinstance(arr, (FormatError, UnsupportedDtypeError))
            for exc in (features, labels, scores):
                assert (type(exc), str(exc)) == (type(arr), str(arr))
        else:  # only a well-formed header reads, and fails only by a type rule
            assert isinstance(descr, str) and all(type(dim) is int for dim in shape)
            assert arr.shape == shape
            assert arr.nbytes == len(payload)
            feature_error, label_error, score_error = _type_rule_errors(path, descr, shape)
            if label_error is None and np.any((arr < 0) & (arr != 255)):  # random <i4 bytes
                label_error = ("ValidationError", f"{path}: label mask contains negative labels")
            assert _error(features) == feature_error
            assert _error(labels) == label_error
            assert _error(scores) == score_error
            if label_error is None:
                assert np.array_equal(labels.data, arr)
            if feature_error is None:
                assert features.shape == (1, *shape)[-3:]
                if np.isfinite(arr).all():  # <f4 views of random bytes may not be
                    read = np.concatenate([block.data for _, block in features.blocks()])
                    assert np.array_equal(read, arr.reshape(features.shape))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["score", str(path), "--cutoff", "0.25"])
    assert code in (0, 2), err.getvalue()
