"""2D discrete Fourier transforms and frequency-domain helpers.

Convention: the forward transform carries the full 1/(H*W) factor and the
inverse carries none, so idft2(dft2(f)) == f and the total spatial power
equals H*W times the total spectral power.  Frequencies are reported in
signed normalized form: index i on an N-grid maps to i/N for i <= N/2 and
to (i - N)/N otherwise, so |freq| never exceeds 1/2 and the single bin at
the edge of an even grid is +1/2.

The fast transforms are numpy.fft's under the same convention
(norm="forward"), run in double precision whatever the input dtype, and
gated in the tests against the literal double-sum oracle dft2_naive.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .arrays import FeatureTensor
from .errors import SizeError, ValidationError


def signed_frequencies(n: int) -> np.ndarray:
    """Signed normalized frequency for each DFT bin of an n-point grid.

    Bins i and n - i get exactly opposite values, so |freq| masks are symmetric.
    """
    idx = np.arange(n)
    return np.where(idx <= n // 2, idx, idx - n) / n


@functools.lru_cache(maxsize=64)
def _high_band(height: int, width: int, cutoff: float) -> np.ndarray:
    hk = np.abs(signed_frequencies(height)) > cutoff
    hl = np.abs(signed_frequencies(width)) > cutoff
    mask = hk[:, None] | hl[None, :]
    mask.flags.writeable = False  # one array is shared by every caller
    return mask


@dataclass(frozen=True)
class FreqGrid:
    """The signed-frequency grid of an (H, W) spectrum."""

    height: int
    width: int

    def high_band(self, cutoff: float) -> np.ndarray:
        """Boolean (H, W) mask of bins with |k| > cutoff or |l| > cutoff.

        Cached per (H, W, cutoff) and read-only: the score map asks for the
        same mask once per window.
        """
        return _high_band(self.height, self.width, cutoff)


@dataclass(frozen=True)
class Spectrum:
    """Complex (C, H, W) DFT coefficients under the 1/(H*W) convention."""

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=np.complex128)
        if arr.ndim != 3:
            raise ValueError(f"spectrum must be 3D, got shape {arr.shape}")
        object.__setattr__(self, "coeffs", arr)

    @property
    def channels(self) -> int:
        return self.coeffs.shape[0]

    @property
    def height(self) -> int:
        return self.coeffs.shape[1]

    @property
    def width(self) -> int:
        return self.coeffs.shape[2]

    @property
    def grid(self) -> FreqGrid:
        return FreqGrid(self.height, self.width)


# ---------------------------------------------------------------------------
# Public transforms


def dft2_naive(f: FeatureTensor) -> Spectrum:
    """Direct double-sum DFT per channel; the oracle for fft2.

    F(c, k, l) = (1/(H*W)) * sum_{h,w} f(c,h,w) * exp(-2*pi*j*(k*h/H + l*w/W))
    evaluated literally, one output bin at a time.
    """
    data = f.data
    c, h, w = data.shape
    hh = np.arange(h)[:, None]
    ww = np.arange(w)[None, :]
    out = np.empty((c, h, w), dtype=np.complex128)
    for k in range(h):
        for l in range(w):
            phase = np.exp(-2j * np.pi * (k * hh / h + l * ww / w))
            out[:, k, l] = (data * phase).sum(axis=(1, 2))
    return Spectrum(out / (h * w))


def fft2(f: FeatureTensor) -> Spectrum:
    """Fast 2D transform with the 1/(H*W) forward normalization.

    The input is cast once to complex128 (numpy.fft transforms float32
    input in single precision), and both axes are transformed in that
    buffer, W first as np.fft.fft2 does, so no other spectrum-sized array
    is made.
    """
    coeffs = f.data.astype(np.complex128)
    for axis in (2, 1):
        np.fft.fft(coeffs, axis=axis, norm="forward", out=coeffs)
    return Spectrum(coeffs)


def ifft2(spec: Spectrum) -> FeatureTensor:
    """Inverse of fft2; returns the real part as a float tensor."""
    return FeatureTensor(ifft2_complex(spec).real)


def ifft2_complex(spec: Spectrum) -> np.ndarray:
    """Inverse transform without discarding the imaginary part."""
    return np.fft.ifft2(spec.coeffs, norm="forward")


def power_spectrum(spec: Spectrum) -> np.ndarray:
    """Per-(c, k, l) squared magnitude |F|^2, squared in place of |F|."""
    power = np.abs(spec.coeffs)
    return np.square(power, out=power)


def filter_frequency_response(kernel: np.ndarray, grid: int) -> np.ndarray:
    """Magnitude response of a 2D kernel on an N x N grid, DC at the center.

    Uses the unnormalized transform of the zero-padded kernel, so an
    all-pass 1x1 kernel [1] reports a flat response of 1.  The kernel is
    real, so its rfft2 half spectrum holds every magnitude: the centered
    map takes columns 0 .. N - 1 - N//2 from it directly and the rest from
    the mirror |F(k, l)| = |F(-k, -l)|, and no full complex grid is made.
    """
    kernel = np.asarray(kernel, dtype=np.float64)
    if kernel.ndim != 2:
        raise SizeError(f"kernel must be 2D, got shape {kernel.shape}")
    if 0 in kernel.shape:
        raise SizeError(f"kernel dims must be positive: {kernel.shape}")
    kh, kw = kernel.shape
    if kh > grid or kw > grid:
        raise SizeError(f"kernel {kernel.shape} larger than {grid}x{grid} grid")
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite is checked below
        half = np.abs(np.fft.rfft2(kernel, s=(grid, grid)))  # zero-pads the kernel
    if not np.all(np.isfinite(half)):
        raise ValidationError("kernel or its response is not finite")
    # centered row i holds frequency row (i - s) mod N, and column j column
    # (j - s) mod N, with s = N//2 as in np.fft.fftshift
    s, n = grid // 2, grid - grid // 2
    out = np.empty((grid, grid))
    out[s:, s:] = half[:n, :n]
    out[:s, s:] = half[n:, :n]
    out[: s + 1, :s] = half[s::-1, s:0:-1]
    out[s + 1 :, :s] = half[: s : -1, s:0:-1]
    return out
