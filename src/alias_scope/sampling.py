"""Sampling-theory calculations for downsampling operators.

The equivalent sampling rate of a downsampler combines its spatial stride
with how much signal the kernel and channel expansion can carry:

    rate = min(K, sqrt(C_out / C_in)) * sqrt((H_out * W_out) / (H_in * W_in))

Anything above half this rate folds into lower frequencies after
subsampling; predicted_alias_frequency gives the folded tone location.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arrays import FeatureTensor
from .errors import DegenerateFilterError, SpecError, ValidationError

from . import arrays


@dataclass(frozen=True)
class DownsampleSpec:
    """Kernel, channel, and size description of one downsampling layer."""

    kernel_h: int
    kernel_w: int
    in_channels: int
    out_channels: int
    in_h: int
    in_w: int
    out_h: int
    out_w: int

    def __post_init__(self):
        for name in (
            "kernel_h",
            "kernel_w",
            "in_channels",
            "out_channels",
            "in_h",
            "in_w",
            "out_h",
            "out_w",
        ):
            if getattr(self, name) < 1:
                raise SpecError(f"{name} must be a positive integer")
        if self.out_h > self.in_h or self.out_w > self.in_w:
            raise SpecError("output size must not exceed input size")
        if self.in_h % self.out_h or self.in_w % self.out_w:
            raise SpecError(
                f"stride must be integral: {self.in_h}/{self.out_h}, "
                f"{self.in_w}/{self.out_w}"
            )

    @property
    def stride_h(self) -> int:
        return self.in_h // self.out_h

    @property
    def stride_w(self) -> int:
        return self.in_w // self.out_w

    @property
    def channel_ratio(self) -> float:
        return self.out_channels / self.in_channels

    @property
    def kernel_smaller_than_stride(self) -> bool:
        # sparse sampling with gaps; the rate formula is taken literally
        # but reports flag these specs
        return self.kernel_h < self.stride_h or self.kernel_w < self.stride_w

    @classmethod
    def from_stride(
        cls,
        kernel: int | tuple[int, int],
        in_channels: int,
        out_channels: int,
        stride: int | tuple[int, int],
    ) -> "DownsampleSpec":
        kh, kw = (kernel, kernel) if isinstance(kernel, int) else kernel
        sh, sw = (stride, stride) if isinstance(stride, int) else stride
        if sh < 1 or sw < 1:
            raise SpecError("stride must be a positive integer")
        return cls(kh, kw, in_channels, out_channels, sh, sw, 1, 1)


def esr(spec: DownsampleSpec) -> float:
    """Equivalent sampling rate using the smaller kernel side as K."""
    k = min(spec.kernel_h, spec.kernel_w)
    area_ratio = (spec.out_h * spec.out_w) / (spec.in_h * spec.in_w)
    return min(k, math.sqrt(spec.channel_ratio)) * math.sqrt(area_ratio)


def esr_anisotropic(spec: DownsampleSpec) -> tuple[float, float]:
    """Per-axis equivalent sampling rates (height, width)."""
    c = math.sqrt(spec.channel_ratio)
    rate_h = min(spec.kernel_h, c) * (spec.out_h / spec.in_h)
    rate_w = min(spec.kernel_w, c) * (spec.out_w / spec.in_w)
    return rate_h, rate_w


def nyquist(spec: DownsampleSpec) -> float:
    """Half the equivalent sampling rate, clamped to the grid maximum 1/2."""
    return min(esr(spec) / 2.0, 0.5)


def subsample(f: FeatureTensor, stride: int) -> FeatureTensor:
    """Point-wise decimation: output (c, h, w) = input (c, h*stride, w*stride)."""
    if stride < 1:
        raise SpecError("stride must be a positive integer")
    if f.height % stride or f.width % stride:
        raise SpecError(
            f"stride {stride} does not divide {f.height}x{f.width}"
        )
    return FeatureTensor(f.data[:, ::stride, ::stride].copy())


def space_to_depth(f: FeatureTensor, block: int) -> FeatureTensor:
    """Rearrange each block x block tile into block^2 channels (lossless)."""
    if block < 1:
        raise SpecError("block must be a positive integer")
    c, h, w = f.data.shape
    if h % block or w % block:
        raise SpecError(f"block {block} does not divide {h}x{w}")
    x = f.data.reshape(c, h // block, block, w // block, block)
    x = x.transpose(0, 2, 4, 1, 3)  # (c, bh, bw, h', w')
    return FeatureTensor(x.reshape(c * block * block, h // block, w // block).copy())


def depth_to_space(f: FeatureTensor, block: int) -> FeatureTensor:
    """Exact inverse of space_to_depth."""
    if block < 1:
        raise SpecError("block must be a positive integer")
    cb, h, w = f.data.shape
    if cb % (block * block):
        raise SpecError(f"channel count {cb} not divisible by block^2")
    c = cb // (block * block)
    x = f.data.reshape(c, block, block, h, w)
    x = x.transpose(0, 3, 1, 4, 2)  # (c, h, bh, w, bw)
    return FeatureTensor(x.reshape(c, h * block, w * block).copy())


def predicted_alias_frequency(k: float, stride: int) -> float:
    """Observed normalized frequency of a tone at k after stride-subsampling.

    fold(x) = min(x mod 1, 1 - x mod 1), applied to k * stride; a tone at
    exactly the Nyquist edge stays at 1/2.
    """
    if not 0.0 <= k <= 0.5:
        raise SpecError(f"frequency {k} outside [0, 1/2]")
    if stride < 1:
        raise SpecError("stride must be a positive integer")
    x = (k * stride) % 1.0
    return min(x, 1.0 - x)


@dataclass(frozen=True)
class FilterBank:
    """Flattened downsampling filters of identical length."""

    filters: np.ndarray  # (count, length)

    def __post_init__(self):
        arr = np.asarray(self.filters, dtype=np.float64)
        if arr.ndim != 2:
            raise SpecError(f"filter bank must be (count, length), got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("filter bank contains NaN/Inf")
        object.__setattr__(self, "filters", arr)

    @property
    def count(self) -> int:
        return self.filters.shape[0]

    @classmethod
    def from_npy(cls, path) -> "FilterBank":
        """Load from an (N, Kh, Kw) or (N, C, Kh, Kw) array, one filter per row."""
        arr = arrays.read_npy(path)
        if arr.ndim not in (3, 4):
            raise SpecError(
                f"{path}: filter bank must be (N,Kh,Kw) or (N,C,Kh,Kw), "
                f"got {arr.ndim}D"
            )
        return cls(arr.reshape(arr.shape[0], -1).astype(np.float64))


def filter_bank_orthogonality(bank: FilterBank) -> tuple[np.ndarray, float]:
    """Pairwise |cosine similarity| matrix and its mean off-diagonal value."""
    if bank.count < 2:
        raise SpecError("orthogonality analysis needs at least 2 filters")
    # |cosine| is scale-free; a peak |value| of 1 keeps x.x finite
    peaks = np.abs(bank.filters).max(axis=1, initial=0.0)
    if np.any(peaks == 0.0):
        raise DegenerateFilterError("filter bank contains a zero-norm filter")
    unit = bank.filters / peaks[:, None]
    norms = np.linalg.norm(unit, axis=1)
    n = bank.count
    # One mat-vec per row, not the unit @ unit.T GEMM: a threaded GEMM
    # leaves OpenBLAS's idle worker spinning for ~0.1 s of CPU after it
    # returns.  Each row's products fill its upper triangle and are
    # mirrored into the lower one, so the matrix is exactly symmetric.
    gram = np.empty((n, n))
    for i, row in enumerate(unit):
        gram[i, i:] = gram[i:, i] = unit[i:] @ row
    matrix = np.abs(gram) / np.outer(norms, norms)
    np.fill_diagonal(matrix, 1.0)
    mean_off = float((matrix.sum() - n) / (n * (n - 1)))
    return matrix, mean_off
