"""Dense array containers and NPY v1.0 file I/O.

Features are (C, H, W) float grids, label masks are (H, W) integer grids,
and binary masks are (H, W) booleans.  Files use the NPY v1.0 container,
little-endian, C order, restricted to the dtypes '<f4', '<f8', '|u1',
'<i4', '<u2'.  All values are immutable after construction.

Every read goes through one NpyFile, which checks the header and payload
size on opening and reads runs of the payload: read_npy reads it whole,
FeatureFile reads a feature tensor a block of channels or a band of rows
at a time, ScoreFile reads a score map in blocks, and
LabelMask.from_npy reads a label mask whole through read_npy, from the
NpyFile that typed it.  FeatureFile and LabelMask.from_npy type a file
from its header by one set of rules, before any payload is read, and
every check of a file's values names the file.  write_npy writes every
payload byte: a whole array to a path, or the next block of an
NpyWriter, which writes the header to a temp file beside the output and
renames it into place only once every block is written, so a failure
leaves no partial file.  numpy.lib.format writes the header; NpyFile
parses it itself, because numpy's reader raises IndexError on some bad
descrs and accepts descrs and shapes that this subset rejects.
"""

from __future__ import annotations

import ast
import functools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    FormatError,
    InternalError,
    UnsupportedDtypeError,
    ValidationError,
)

NPY_MAGIC = b"\x93NUMPY"

FLOAT_DTYPES = (np.dtype("<f4"), np.dtype("<f8"))
INT_DTYPES = (np.dtype("|u1"), np.dtype("<i4"), np.dtype("<u2"))
_DESCR_TO_DTYPE = {dtype.str: dtype for dtype in FLOAT_DTYPES + INT_DTYPES}
INT32 = np.iinfo(np.int32)  # other integer labels are cast to int32

DEFAULT_IGNORE_VALUE = 255


class NpyFile:
    """An NPY v1.0 file whose header and payload size are checked once, on
    opening, and whose payload is read later by `read`, whole or in runs."""

    def __init__(self, path):
        with open(path, "rb") as fh:
            prefix = fh.read(10)
            if len(prefix) < 10 or prefix[:6] != NPY_MAGIC:
                raise FormatError(f"{path}: not an NPY file (bad magic)")
            major, minor = prefix[6], prefix[7]
            if (major, minor) != (1, 0):
                raise FormatError(f"{path}: unsupported NPY version {major}.{minor}")
            header_len = int.from_bytes(prefix[8:10], "little")
            header_bytes = fh.read(header_len)
            if len(header_bytes) < header_len:
                raise FormatError(f"{path}: truncated header")
            self._offset = fh.tell()
            payload = os.fstat(fh.fileno()).st_size - self._offset
        try:
            header = ast.literal_eval(header_bytes.decode("ascii").strip())
        except (UnicodeDecodeError, ValueError, SyntaxError) as exc:
            raise FormatError(f"{path}: unparseable header") from exc
        keys = {"descr", "fortran_order", "shape"}
        if not isinstance(header, dict) or set(header) != keys:
            raise FormatError(f"{path}: header keys must be descr/fortran_order/shape")
        descr = header["descr"]
        if not isinstance(descr, str) or descr not in _DESCR_TO_DTYPE:
            raise UnsupportedDtypeError(f"{path}: unsupported dtype {descr!r}")
        if header["fortran_order"] is not False:
            raise FormatError(f"{path}: fortran_order must be False")
        shape = header["shape"]
        if not (
            isinstance(shape, tuple)
            and all(type(n) is int and n >= 0 for n in shape)
        ):
            raise FormatError(f"{path}: bad shape {shape!r}")
        dtype = _DESCR_TO_DTYPE[descr]
        count = math.prod(shape)  # Python ints: no overflow, () gives 1
        expected = count * dtype.itemsize
        if payload != expected:
            raise FormatError(
                f"{path}: payload is {payload} bytes, expected {expected}"
            )
        if count == 0:  # a payload that fits the file fits numpy; an empty one may not
            try:
                np.empty(0, dtype=dtype).reshape(shape)
            except ValueError as exc:
                raise FormatError(f"{path}: shape {shape!r} is too large") from exc
        self.path, self.dtype, self.shape = path, dtype, shape

    def read(self, fh, out: np.ndarray, at: int) -> np.ndarray:
        """Fill `out`, of this file's dtype, with the payload's elements from
        index `at` on, read from `fh`, this file opened for reading."""
        fh.seek(self._offset + at * self.dtype.itemsize)
        if fh.readinto(out) != out.nbytes:
            raise FormatError(f"{self.path}: payload shorter than its header")
        return out


def read_npy(path) -> np.ndarray:
    """Read an NPY v1.0 file, by path or from its `NpyFile`, into a C-ordered array."""
    npy = path if isinstance(path, NpyFile) else NpyFile(path)
    with open(npy.path, "rb") as fh:
        return npy.read(fh, np.empty(npy.shape, npy.dtype), 0)


class NpyWriter:
    """An NPY v1.0 file of a given dtype and shape, written a block along
    its first axis at a time.  Entering writes the header, by
    `np.lib.format.write_array_header_1_0`, to a temp file beside `path`;
    `write_npy(writer, block)` appends each block's payload; a clean exit
    checks that the blocks filled the shape and publishes the temp file
    at `path`.

    Publishing renames an existing file at `path` to a hidden name beside
    it, renames the temp file onto the now free name, and unlinks the old
    file.  On ext4 a rename over an existing file starts writeback of the
    new one in the caller, and a rename onto a free name does not.  Between
    the two renames a concurrent reader finds no file at `path`, and a
    process killed then leaves the old file under its hidden name,
    `.<name>.<hex>.old`.  Any error leaves `path` as it was, with no temp
    or old file beside it.  A `path` that exists and is not a regular
    file, such as /dev/stdout, is written in place: it cannot be renamed
    over.  A symlink is kept, and the file it names is replaced."""

    def __init__(self, path, dtype, shape: tuple[int, ...]):
        given = np.dtype(dtype)
        dtype = given.newbyteorder("<") if given.byteorder == ">" else given
        if dtype.str not in _DESCR_TO_DTYPE:
            raise UnsupportedDtypeError(f"cannot save dtype {given}")
        self.path, self.dtype, self.shape = path, dtype, tuple(int(n) for n in shape)
        self.written = 0

    def __enter__(self) -> "NpyWriter":
        if os.path.exists(self.path) and not os.path.isfile(self.path):
            self._target = self._temp = None
            self.fh = open(self.path, "wb")
        else:  # beside the file a symlink names, so the link is kept
            self._target = os.path.realpath(self.path)
            folder, name = os.path.split(self._target)
            self._temp = os.path.join(folder, f".{name}.{os.urandom(4).hex()}.tmp")
            try:
                self.fh = open(self._temp, "xb")
            except OSError as exc:  # named by the path asked for, not the temp file
                raise OSError(exc.errno, exc.strerror, str(self.path)) from exc
        try:
            header = {"descr": self.dtype.str, "fortran_order": False, "shape": self.shape}
            np.lib.format.write_array_header_1_0(self.fh, header)
        except BaseException:
            self._discard()
            raise
        return self

    def _next_block(self, arr: np.ndarray) -> np.ndarray:
        """`arr`, the next block along the first axis or the whole array, in
        the file's dtype, for `write_npy`; InternalError if it does not
        continue the shape."""
        fits = arr.shape[1:] == self.shape[1:] and arr.ndim == len(self.shape)
        if not fits or self.written + arr.size > math.prod(self.shape):
            raise InternalError(f"{self.path}: block {arr.shape} does not continue {self.shape}")
        self.written += arr.size
        return arr.astype(self.dtype, copy=False)

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            self.fh.close()
            if exc_type is None:
                if self.written != math.prod(self.shape):
                    raise InternalError(
                        f"{self.path}: {self.written} of {math.prod(self.shape)} elements written"
                    )
                if self._temp is not None:
                    self._publish()
                return
        except BaseException:
            self._discard()
            raise
        self._discard()

    def _publish(self) -> None:
        """Move the finished temp file to the target, the old file aside
        first; if that fails, put the old file back."""
        old = os.path.splitext(self._temp)[0] + ".old"
        try:
            os.rename(self._target, old)
        except FileNotFoundError:  # a first write: nothing to move aside
            old = None
        try:
            os.rename(self._temp, self._target)
        except BaseException:
            if old is not None:
                os.rename(old, self._target)
            raise
        self._temp = None  # published: nothing left to discard
        if old is not None:
            os.unlink(old)

    def _discard(self) -> None:
        self.fh.close()
        if self._temp is not None:
            os.unlink(self._temp)


def write_npy(dest, arr: np.ndarray) -> None:
    """Write an array's payload: the whole array to the path `dest`, as an
    NPY v1.0 file (C order, supported dtypes only), or the next block of an
    open NpyWriter.  Every NPY payload byte is written here."""
    arr = np.asarray(arr, order="C")  # keeps 0-d arrays 0-d
    if isinstance(dest, NpyWriter):
        dest.fh.write(dest._next_block(arr))  # the buffer itself: no bytes copy
        return
    with NpyWriter(dest, arr.dtype, arr.shape) as writer:
        writer.fh.write(writer._next_block(arr))


def row_blocks(shape: tuple[int, ...], block: int = 1 << 16) -> list[slice]:
    """Slices of consecutive rows of an (H, W) grid, or of the H axis of a
    (C, H, W) tensor, about `block` elements each and at least one row, so
    a per-block temporary never spans the grid.  The last slice stops at
    H."""
    *lead, h, w = shape
    step = max(1, block // max(1, math.prod(lead) * w))
    return [slice(y, min(y + step, h)) for y in range(0, h, step)]


def channel_blocks(shape: tuple[int, int, int], block: int = 1 << 16, least: int = 1) -> list[slice]:
    """Slices of whole channels of a (C, H, W) grid: `row_blocks` over
    (C, H*W) cuts them, about `block` elements and at least `least`
    channels each, or all C if fewer, with a shorter last block joined to
    the one before.

    numpy lays out `band_power`'s high-band gather bin-major and sums it
    pairwise for one channel but bin by bin for two or more, so `least=2`
    keeps every per-channel sum of blocked `band_power` calls bit for bit."""
    c, h, w = shape
    cuts = row_blocks((c, h * w), max(block, least * h * w))
    if len(cuts) > 1 and cuts[-1].stop - cuts[-1].start < least:
        cuts[-2:] = [slice(cuts[-2].start, c)]
    return cuts


@dataclass(frozen=True)
class FeatureTensor:
    """Real-valued (C, H, W) grid; every element finite.  `source`, the
    path of the file it was read from, if any, begins every message of its
    checks."""

    data: np.ndarray
    source: str | None = None

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.ndim != 3:
            raise self._invalid(f"feature tensor must be 3D, got shape {arr.shape}")
        if np.iscomplexobj(arr):
            raise self._invalid(f"feature tensor must be real, got dtype {arr.dtype}")
        if arr.dtype not in FLOAT_DTYPES:
            arr = arr.astype(np.float64)
        if any(n <= 0 for n in arr.shape):
            raise self._invalid(f"feature tensor dims must be positive: {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise self._invalid("feature tensor contains NaN/Inf")
        object.__setattr__(self, "data", arr)

    def _invalid(self, message: str) -> ValidationError:
        return ValidationError(message if self.source is None else f"{self.source}: {message}")

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]

    def blocks(self):
        """The whole tensor as one block of channels, like `FeatureFile.blocks`."""
        yield slice(0, self.channels), self

    def rows(self, y0: int, y1: int) -> np.ndarray:
        """Rows y0 .. y1 - 1 of every channel, as a (C, y1 - y0, W) view."""
        return self.data[:, y0:y1]

    def bands(self, starts: list[int], height: int):
        """Rows y .. y + height - 1 of every channel for each y of `starts`,
        as views, like `FeatureFile.bands`."""
        for y in starts:
            yield self.data[:, y : y + height]


@dataclass(frozen=True)
class LabelMask:
    """Integer (H, W) label grid; ignore_value marks unlabeled pixels.
    `source`, the path of the file it was read from, if any, begins every
    message of its checks."""

    data: np.ndarray
    ignore_value: int | None = DEFAULT_IGNORE_VALUE
    source: str | None = None

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.ndim != 2:
            raise self._invalid(f"label mask must be 2D, got shape {arr.shape}")
        if arr.dtype not in INT_DTYPES:
            if not np.issubdtype(arr.dtype, np.integer):
                raise self._invalid(f"label mask dtype must be integer: {arr.dtype}")
            if arr.size and not (INT32.min <= arr.min() and arr.max() <= INT32.max):
                raise self._invalid(f"label mask {arr.dtype} values must fit in int32")
            arr = arr.astype(np.int32)
        if any(n <= 0 for n in arr.shape):
            raise self._invalid(f"label mask dims must be positive: {arr.shape}")
        object.__setattr__(self, "data", arr)
        if arr.dtype.kind == "i":  # |u1 and <u2 labels cannot be negative
            for rows in row_blocks(arr.shape):
                if np.any((arr[rows] < 0) & self.labelled(rows)):
                    raise self._invalid("label mask contains negative labels")

    def _invalid(self, message: str) -> ValidationError:
        return ValidationError(message if self.source is None else f"{self.source}: {message}")

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @classmethod
    def from_npy(cls, path, ignore_value: int | None = DEFAULT_IGNORE_VALUE) -> "LabelMask":
        """The label mask in an NPY file, typed from its header by
        `_array_kind` before its payload is read: anything but a 2D integer
        array is rejected unread."""
        npy = NpyFile(path)
        if _array_kind(path, npy.dtype, npy.shape)[0] is not LabelMask:
            raise ValidationError(f"{path}: expected an integer label mask")
        return cls(read_npy(npy), ignore_value, str(path))

    @functools.cached_property
    def labels(self) -> np.ndarray:
        """The labels present, but the ignore value, in ascending order and
        read-only: one scan of the mask, which `present_classes` and
        `validate_classes` both read."""
        if self.data.dtype.itemsize <= 2:
            # |u1 and <u2 labels index a table of at most 65536 flags, with
            # no intp copy of the mask; an <i4 label can be up to
            # 2**31 - 1, so it takes the union of each block's np.unique
            seen = np.zeros(1 << (8 * self.data.dtype.itemsize), dtype=bool)
            seen[self.data] = True
            labels = np.flatnonzero(seen)
        else:
            blocks = row_blocks(self.data.shape)
            labels = np.unique(np.concatenate([np.unique(self.data[r]) for r in blocks]))
        labels = labels[labels != self.ignore_value]  # elementwise: None drops none
        labels.flags.writeable = False
        return labels

    def labelled(self, rows: slice) -> np.ndarray:
        """Rows `rows` as bools, set where a pixel holds a label: every
        pixel but the ignore value, all of them when it is None.  The one
        place that compares pixels with the ignore value."""
        data = self.data[rows]
        if self.ignore_value is None:
            return np.ones(data.shape, dtype=bool)
        return data != self.ignore_value

    def validate_classes(self, n_classes: int) -> int:
        """Check that every label but the ignore value is below n_classes;
        return the largest such label, or -1 when there is none."""
        top = int(self.labels[-1]) if self.labels.size else -1
        if top >= n_classes:
            raise self._invalid(f"label {top} out of range for {n_classes} classes")
        return top

    def present_classes(self) -> list[int]:
        return [int(v) for v in self.labels]


@dataclass(frozen=True)
class BinaryMask:
    """Boolean (H, W) grid."""

    bits: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.bits)
        if arr.ndim != 2:
            raise ValidationError(f"binary mask must be 2D, got shape {arr.shape}")
        object.__setattr__(self, "bits", arr.astype(bool, copy=False))

    @property
    def height(self) -> int:
        return self.bits.shape[0]

    @property
    def width(self) -> int:
        return self.bits.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.bits.shape

    def rows(self, y0: int, y1: int) -> np.ndarray:
        """Rows y0 .. y1 - 1, as a view."""
        return self.bits[y0:y1]

    def count(self) -> int:
        return int(self.bits.sum())


def _array_kind(path, dtype: np.dtype, shape: tuple[int, ...]) -> tuple[type, tuple[int, ...]]:
    """The type rules of FeatureFile and LabelMask.from_npy: the class an
    array of this dtype and shape becomes, and the shape it is made with.
    A 2D integer array is a LabelMask; a 2D float array is a one-channel
    FeatureTensor and a 3D one a (C, H, W) FeatureTensor.  Anything else
    is rejected."""
    if len(shape) not in (2, 3):
        raise ValidationError(f"{path}: expected 2D or 3D array, got {len(shape)}D")
    if dtype in FLOAT_DTYPES:
        return FeatureTensor, (1, *shape)[-3:]
    if len(shape) == 3:
        raise UnsupportedDtypeError(f"{path}: 3D integer arrays have no interpretation here")
    return LabelMask, shape


class FeatureFile(NpyFile):
    """A float feature tensor left in its NPY file, read a block of
    channels or a band of rows at a time, so that the whole tensor is
    never held.

    Opening checks the header and applies `_array_kind`'s type rules to it,
    without reading the payload: a 2D float array is one channel, and a
    label mask is rejected.  `shape` is the (C, H, W) shape.  Every read
    goes through FeatureTensor's checks, so a NaN/Inf fails with its
    message, prefixed by the path.
    """

    def __init__(self, path):
        super().__init__(path)
        kind, shape = _array_kind(path, self.dtype, self.shape)
        if 0 in shape:  # fails with its class's message, on no data
            kind(np.empty(shape, self.dtype), source=str(path))
        if kind is LabelMask:
            raise ValidationError(f"{path}: expected a float feature tensor")
        self.shape = shape
        self.channels, self.height, self.width = shape

    def blocks(self, block: int = 1 << 16, least: int = 1):
        """Each block of whole channels, in order, as (channel slice,
        FeatureTensor), cut by `channel_blocks`.  Each is one read of the
        payload, checked to be finite."""
        plane = self.height * self.width
        with open(self.path, "rb") as fh:
            for channels in channel_blocks((self.channels, self.height, self.width), block, least):
                data = np.empty((channels.stop - channels.start, self.height, self.width), self.dtype)
                yield channels, FeatureTensor(self.read(fh, data, channels.start * plane), str(self.path))
                del data  # the next block is read without this one

    def rows(self, y0: int, y1: int) -> np.ndarray:
        """Rows y0 .. y1 - 1 of every channel, one read per channel."""
        band = np.empty((self.channels, y1 - y0, self.width), dtype=self.dtype)
        with open(self.path, "rb") as fh:
            return self._read_rows(fh, band, y0)

    def bands(self, starts: list[int], height: int):
        """Rows y .. y + height - 1 of every channel for each y of the
        ascending `starts`, in one (C, height, W) buffer that the next step
        overwrites: the rows it shares with the previous band are moved up
        in place and only the new rows are read, so each row is read once.
        Rows that fall between two bands are read into the buffer and
        checked too."""
        band = np.empty((self.channels, height, self.width), dtype=self.dtype)
        bottom = 0  # the last band was rows bottom - height .. bottom - 1
        with open(self.path, "rb") as fh:
            for y in starts:
                keep = max(0, bottom - y)
                if keep:  # one flat forward copy per channel, no temporary
                    for plane in band.reshape(self.channels, -1):
                        plane[: keep * self.width] = plane[(height - keep) * self.width :]
                for gap in range(bottom, y, height):
                    self._read_rows(fh, band[:, : min(height, y - gap)], gap)
                self._read_rows(fh, band[:, keep:], y + keep)
                yield band
                bottom = y + height

    def _read_rows(self, fh, out: np.ndarray, y0: int) -> np.ndarray:
        """Fill `out`, a (C, n, W) array whose channels are each contiguous,
        with rows y0 .. y0 + n - 1 of every channel, one read per channel,
        and check them to be finite."""
        for c, plane in enumerate(out):
            self.read(fh, plane, (c * self.height + y0) * self.width)
        return FeatureTensor(out, str(self.path)).data  # checks the rows are finite, no copy


PAIRWISE_LEAF = 1 << 16  # values per leaf of `pairwise_mean`, at least 128


class ScoreFile(NpyFile):
    """A 2D score map left in its NPY file and read as float64 a block of
    rows, or for its mean a leaf of values, at a time, so it is never
    whole.  Any supported dtype is read; the values must be finite and lie
    in [0, 1].
    """

    def __init__(self, path):
        super().__init__(path)
        if len(self.shape) != 2:
            raise ValidationError(f"{path}: score map must be 2D")
        if 0 in self.shape:  # its mean would be NaN
            raise ValidationError(f"{path}: score map dims must be positive: {self.shape}")

    def rows(self, y0: int, y1: int) -> np.ndarray:
        """Rows y0 .. y1 - 1 as one float64 array, read and checked to be
        finite a block of rows at a time; the range is checked once all of
        them are read, so NaN/Inf anywhere in them is reported first."""
        width = self.shape[1]
        out = np.empty((y1 - y0, width))
        with open(self.path, "rb") as fh:
            in_range = [
                self._read_into(fh, out[rows], (y0 + rows.start) * width)
                for rows in row_blocks(out.shape)
            ]
        if not all(in_range):
            raise ValidationError(f"{self.path}: score values must lie in [0, 1]")
        return out

    def mean(self) -> float:
        """`np.mean` of the whole float64 map, bit for bit, by
        `pairwise_mean`; each leaf is checked to be finite as it is read,
        and the range after the pass."""
        in_range = []
        with open(self.path, "rb") as fh:
            mean = pairwise_mean(
                math.prod(self.shape), lambda out, at: in_range.append(self._read_into(fh, out, at))
            )
        if not all(in_range):
            raise ValidationError(f"{self.path}: score values must lie in [0, 1]")
        return mean

    def _read_into(self, fh, out: np.ndarray, at: int) -> bool:
        """Fill float64 `out` from element `at` on, through a buffer in the
        map's dtype if it differs, checked to be finite; True if they lie
        in [0, 1]."""
        raw = out if self.dtype == out.dtype else np.empty(out.shape, self.dtype)
        self.read(fh, raw, at)
        if not np.all(np.isfinite(raw)):
            raise ValidationError(f"{self.path}: score map contains NaN/Inf")
        out[...] = raw  # no copy when `raw` is `out`
        return 0.0 <= out.min() and out.max() <= 1.0


def pairwise_mean(count: int, fill) -> float:
    """`np.mean` of `count` float64 values, bit for bit, without holding
    them: `fill(out, at)` writes the values from index `at` on into `out`,
    one buffer of at most `PAIRWISE_LEAF` values, and `_pairwise_sum` adds
    the leaves up."""
    leaf = np.empty(min(count, PAIRWISE_LEAF))

    def leaf_sum(at: int, n: int) -> float:
        fill(leaf[:n], at)
        return np.add.reduce(leaf[:n])

    return float(_pairwise_sum(0, count, leaf_sum) / count)


def _pairwise_sum(at: int, n: int, leaf_sum) -> float:
    """The n values from index `at` on, split as numpy's pairwise sum
    splits a float64 reduction until they fit a leaf, whose sum
    `leaf_sum(at, k)` takes; numpy stops splitting at 128 values, so any
    leaf of 128 or more keeps its bits."""
    if n <= PAIRWISE_LEAF:
        return leaf_sum(at, n)
    half = n // 2 - n // 2 % 8
    return _pairwise_sum(at, half, leaf_sum) + _pairwise_sum(at + half, n - half, leaf_sum)


def class_mask(mask: LabelMask, class_id: int) -> BinaryMask:
    """Binary mask of pixels equal to class_id; ignored pixels are cleared,
    so the mask of the ignore value itself is empty."""
    if class_id == mask.ignore_value:
        return BinaryMask(np.zeros(mask.data.shape, dtype=bool))
    return BinaryMask(mask.data == class_id)
