import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alias_scope.arrays import (
    BinaryMask,
    FeatureTensor,
    LabelMask,
    class_mask,
    load_array,
    read_npy,
    save_array,
    write_npy,
)
from alias_scope.errors import FormatError, UnsupportedDtypeError, ValidationError


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


def test_load_zeros_3d_float(tmp_path):
    path = tmp_path / "z.npy"
    write_npy(path, np.zeros((2, 4, 4), dtype=np.float32))
    t = load_array(path)
    assert isinstance(t, FeatureTensor)
    assert (t.channels, t.height, t.width) == (2, 4, 4)
    assert not t.data.any()


def test_load_2d_uint8_labels(tmp_path):
    labels = np.array([[0, 1], [1, 0]], dtype=np.uint8)
    path = tmp_path / "m.npy"
    write_npy(path, labels)
    m = load_array(path)
    assert isinstance(m, LabelMask)
    assert np.array_equal(m.data, labels)


def test_load_2d_float_is_single_channel_tensor(tmp_path):
    path = tmp_path / "f.npy"
    write_npy(path, np.ones((3, 3), dtype=np.float64))
    t = load_array(path)
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
    with pytest.raises(ValidationError):
        load_array(path)


def test_3d_int_rejected(tmp_path):
    path = tmp_path / "i.npy"
    write_npy(path, np.zeros((2, 2, 2), dtype=np.int32))
    with pytest.raises(UnsupportedDtypeError):
        load_array(path)


def test_save_unwritable_path_raises(tmp_path):
    t = FeatureTensor(np.zeros((1, 2, 2)))
    with pytest.raises(OSError):
        save_array(t, tmp_path / "no" / "such" / "dir" / "x.npy")


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


def test_binary_mask_round_trip(tmp_path):
    bits = np.array([[True, False], [False, True]])
    path = tmp_path / "b.npy"
    save_array(BinaryMask(bits), path)
    back = load_array(path)
    assert isinstance(back, LabelMask)
    assert np.array_equal(back.data.astype(bool), bits)
