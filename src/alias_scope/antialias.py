"""Aliasing quantification and removal.

The aliasing score is the fraction of spectral power in the high band
H(c) = {(k, l) : |k| > c or |l| > c}; the de-aliasing filter (daf) zeroes
exactly that band on the real half spectrum, so its output is real by
construction.  The band boundary is strict: coefficients at |k| == c
survive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import FeatureTensor, channel_blocks
from .errors import SpecError, UndefinedRatioError, ValidationError
from .spectral import FreqGrid, Spectrum, fft2, power_spectrum

SCORE_MODES = ("per_channel_mean", "global")

_BINOMIAL_ROWS = {
    3: np.array([1.0, 2.0, 1.0]) / 4.0,
    5: np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0,
    7: np.array([1.0, 6.0, 15.0, 20.0, 15.0, 6.0, 1.0]) / 64.0,
}


@dataclass(frozen=True)
class CutoffSpec:
    """Square-band cutoff: (k, l) is high iff |k| > cutoff or |l| > cutoff."""

    cutoff: float

    def __post_init__(self):
        if not 0.0 < self.cutoff <= 0.5:
            raise ValidationError(f"cutoff must be in (0, 1/2], got {self.cutoff}")


def flc_cutoff(stride: int) -> CutoffSpec:
    """Stride-only cutoff 1/(2*stride), the baseline rule this tool refines."""
    if stride < 1:
        raise SpecError("stride must be a positive integer")
    return CutoffSpec(1.0 / (2 * stride))


def band_power(spec: Spectrum, cutoff: CutoffSpec) -> tuple[np.ndarray, np.ndarray]:
    """(high-band power, total power) per channel; ValidationError on overflow.

    |F|^2, its high-band gather and both sums are taken a block of whole
    channels at a time, about 32768 power values and at least two channels
    each (`channel_blocks`), so every per-channel sum keeps the bits of the
    whole spectrum's and the power held does not grow with C.  numpy sums
    a gather of two or more channels one step per bin, so each further
    block adds a pass over the bins: smaller blocks cost time.  The
    overflow check runs once, on the joined totals.
    """
    mask = spec.grid.high_band(cutoff.cutoff)
    high, total = np.empty(spec.channels), np.empty(spec.channels)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is checked below
        for ch in channel_blocks(spec.coeffs.shape, 1 << 15, least=2):
            power = power_spectrum(Spectrum(spec.coeffs[ch]))
            high[ch] = power[:, mask].sum(axis=1)
            total[ch] = power.sum(axis=(1, 2))
            del power  # the next block's is made without this one
        check_power(total)
    return high, total


def check_power(total: np.ndarray) -> None:
    """ValidationError if the total power summed over channels overflows."""
    if not np.isfinite(total.sum()):
        raise ValidationError("spectral power overflows float64; rescale the features")


def score_from_power(
    high: np.ndarray, total: np.ndarray, mode: str = "per_channel_mean"
) -> float:
    """Aliasing score from band_power's per-channel (high, total) pair.

    per_channel_mean averages the per-channel ratios (channels with zero
    power are excluded); global pools power over all channels first.
    """
    if mode not in SCORE_MODES:
        raise SpecError(f"mode must be one of {SCORE_MODES}, got {mode!r}")
    if mode == "global":
        high, total = high.sum(keepdims=True), total.sum(keepdims=True)
    defined = total > 0.0
    if not np.any(defined):
        raise UndefinedRatioError("aliasing score undefined for all-zero tensor")
    return float((high[defined] / total[defined]).mean())


def channel_scores(high: np.ndarray, total: np.ndarray) -> list[float | None]:
    """Per-channel ratios from band_power's output; None for zero-power channels."""
    return [float(h / t) if t > 0.0 else None for h, t in zip(high, total)]


def aliasing_score(
    f: FeatureTensor, cutoff: CutoffSpec, mode: str = "per_channel_mean"
) -> float:
    """Fraction of spectral power above the cutoff, in [0, 1]; see score_from_power."""
    return score_from_power(*band_power(fft2(f), cutoff), mode)


def daf(f: FeatureTensor, cutoff: CutoffSpec) -> FeatureTensor:
    """De-aliasing filter: zero every coefficient in the high band.

    An ideal low-pass projection; the result has aliasing_score 0 at the
    same cutoff and is idempotent.  H(c) is symmetric under (k, l) -> (-k, -l),
    so zeroing it on the rfft2 half spectrum (columns 0 .. W//2) of the
    float64 data is the whole projection, and the output is real by construction.
    On the half spectrum the band is every column past a prefix, plus the
    high rows within that prefix, so the H-axis passes run in place on the
    kept columns only.  Each step is one of np.fft.rfft2's and
    np.fft.irfft2's, and the result equals theirs bit for bit.
    """
    _, h, w = f.data.shape
    band = FreqGrid(h, w).high_band(cutoff.cutoff)
    kept = w // 2 + 1 - np.count_nonzero(band[0, : w // 2 + 1])
    coeffs = np.fft.rfft(f.data.astype(np.float64, copy=False), axis=2)
    coeffs[:, :, kept:] = 0.0
    low = coeffs[:, :, :kept]
    np.fft.fft(low, axis=1, out=low)
    low[:, band[:, 0]] = 0.0
    np.fft.ifft(low, axis=1, out=low)
    return FeatureTensor(np.fft.irfft(coeffs, n=w, axis=2))


def binomial_kernel(size: int) -> np.ndarray:
    """Separable 2D binomial kernel of the given size (sums to 1)."""
    if size not in _BINOMIAL_ROWS:
        raise SpecError(f"blur size must be one of {sorted(_BINOMIAL_ROWS)}")
    row = _BINOMIAL_ROWS[size]
    return np.outer(row, row)


def binomial_blur(f: FeatureTensor, size: int) -> FeatureTensor:
    """Depthwise separable binomial blur with edge-symmetric reflect padding.

    The symmetric (edge-including) reflection preserves each channel's
    mean exactly, so the DC gain is 1.
    """
    from scipy import ndimage  # imported here so other commands start without scipy

    row = _BINOMIAL_ROWS.get(size)
    if row is None:
        raise SpecError(f"blur size must be one of {sorted(_BINOMIAL_ROWS)}")
    # float64 output straight from the input: ndimage filters each line in
    # a float64 buffer, so this equals casting first, without the cast copy
    out = ndimage.convolve1d(f.data, row, axis=1, mode="reflect", output=np.float64)
    out = ndimage.convolve1d(out, row, axis=2, mode="reflect")
    return FeatureTensor(out)


def add_gaussian_noise(
    f: FeatureTensor, sigma: float, seed: int | np.random.Generator
) -> FeatureTensor:
    """Add i.i.d. N(0, sigma^2) noise, deterministic for a given seed.

    The noise is sigma * z for a standard-normal stream z, which is what
    rng.normal(0, sigma) draws, and the input is added to it in place.
    `seed` may be a Generator, whose stream is drawn on: blocks of
    channels taken in order from one Generator get the whole tensor's noise.
    """
    if not 0 <= sigma < np.inf:
        raise SpecError(f"sigma must be a finite number >= 0, got {sigma}")
    if not isinstance(seed, np.random.Generator) and seed < 0:
        raise SpecError(f"seed must be >= 0, got {seed}")
    if sigma == 0:
        return FeatureTensor(f.data.astype(np.float64))
    out = np.random.default_rng(seed).standard_normal(f.data.shape)
    with np.errstate(over="ignore"):  # FeatureTensor rejects an overflow to inf
        out *= sigma
        out += f.data
    try:
        return FeatureTensor(out)
    except ValidationError as exc:  # f is finite, so the noise overflowed
        raise SpecError(f"noise with sigma {sigma} overflows float64") from exc
