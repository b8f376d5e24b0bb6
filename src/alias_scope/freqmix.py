"""Frequency-mixing operator: split a tensor at a cutoff and recombine the
bands with sigmoid-squashed channel and spatial weights.

Weights are stored as raw logits; the sigmoid is applied here so exported
parameters stay unconstrained.  The operator is forward-only.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .antialias import CutoffSpec, daf
from .arrays import FeatureFile, FeatureTensor, read_npy
from .errors import ShapeError

WEIGHT_FIELDS = (
    "a_low_channel",
    "a_high_channel",
    "a_low_spatial",
    "a_high_spatial",
)

PARAM_FIELDS = (
    "fc_low_weight",
    "fc_low_bias",
    "fc_high_weight",
    "fc_high_bias",
    "conv_low_kernel",
    "conv_low_bias",
    "conv_high_kernel",
    "conv_high_bias",
)


@dataclass(frozen=True)
class FreqMixWeights:
    """Per-band channel vectors (C,) and spatial maps (H, W), as logits."""

    a_low_channel: np.ndarray
    a_high_channel: np.ndarray
    a_low_spatial: np.ndarray
    a_high_spatial: np.ndarray

    def __post_init__(self):
        for name in ("a_low_channel", "a_high_channel"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.ndim != 1:
                raise ShapeError(f"{name} must be 1D (C,), got {arr.shape}")
            object.__setattr__(self, name, arr)
        for name in ("a_low_spatial", "a_high_spatial"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.ndim != 2:
                raise ShapeError(f"{name} must be 2D (H, W), got {arr.shape}")
            object.__setattr__(self, name, arr)

    def check_against(self, shape: tuple[int, int, int]) -> None:
        c, h, w = shape
        if self.a_low_channel.shape != (c,) or self.a_high_channel.shape != (c,):
            raise ShapeError(
                f"channel weights {self.a_low_channel.shape} do not match C={c}"
            )
        if self.a_low_spatial.shape != (h, w) or self.a_high_spatial.shape != (h, w):
            raise ShapeError(
                f"spatial weights {self.a_low_spatial.shape} do not match "
                f"({h}, {w})"
            )

    @functools.cached_property
    def spatial_gains(self) -> tuple[np.ndarray, np.ndarray]:
        """The sigmoid of the low and the high spatial logits."""
        from scipy.special import expit  # imported here so other commands start without scipy

        return expit(self.a_low_spatial), expit(self.a_high_spatial)

    def for_channels(self, channels: slice) -> "FreqMixWeights":
        """The weights of a block of channels: its channel vectors' slice,
        and the same spatial maps, whose gains are taken once and shared
        by every block."""
        block = FreqMixWeights(
            self.a_low_channel[channels], self.a_high_channel[channels],
            self.a_low_spatial, self.a_high_spatial,
        )
        vars(block)["spatial_gains"] = self.spatial_gains
        return block

    @classmethod
    def bypass(cls, channels: int, height: int, width: int) -> "FreqMixWeights":
        """Logits at +inf on both bands: the operator becomes the identity."""
        inf = np.inf
        return cls(
            np.full(channels, inf),
            np.full(channels, inf),
            np.full((height, width), inf),
            np.full((height, width), inf),
        )

    @classmethod
    def from_npy_dir(cls, directory) -> "FreqMixWeights":
        directory = Path(directory)
        return cls(*(read_npy(directory / f"{name}.npy") for name in WEIGHT_FIELDS))


@dataclass(frozen=True)
class FreqMixParams:
    """Prediction-head parameters: per-band C->C fc and k x k conv."""

    fc_low_weight: np.ndarray
    fc_low_bias: np.ndarray
    fc_high_weight: np.ndarray
    fc_high_bias: np.ndarray
    conv_low_kernel: np.ndarray
    conv_low_bias: float
    conv_high_kernel: np.ndarray
    conv_high_bias: float

    def __post_init__(self):
        for name in ("fc_low_weight", "fc_high_weight"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
                raise ShapeError(f"{name} must be square (C, C), got {arr.shape}")
            object.__setattr__(self, name, arr)
        c = self.fc_low_weight.shape[0]
        for name in ("fc_low_bias", "fc_high_bias"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.shape != (c,):
                raise ShapeError(f"{name} must be (C,)={c}, got {arr.shape}")
            object.__setattr__(self, name, arr)
        for name in ("conv_low_kernel", "conv_high_kernel"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.ndim != 2 or 0 in arr.shape:
                raise ShapeError(f"{name} must be 2D (k, k) with positive dims, got {arr.shape}")
            object.__setattr__(self, name, arr)
        for name in ("conv_low_bias", "conv_high_bias"):
            arr = np.asarray(getattr(self, name), dtype=np.float64).reshape(-1)
            if arr.size != 1:
                raise ShapeError(f"{name} must be a scalar, got {arr.size} values")
            object.__setattr__(self, name, float(arr[0]))

    @property
    def channels(self) -> int:
        return self.fc_low_weight.shape[0]

    def predict(self, pooled: np.ndarray, mean_map: np.ndarray) -> FreqMixWeights:
        """Logits from a tensor's per-channel means and channel-mean map
        (see `channel_means`).  Channel logits: fc of the means, per band.
        Spatial logits: k x k conv over the map with reflect padding, per
        band."""
        if self.channels != len(pooled):
            raise ShapeError(f"params expect C={self.channels}, tensor has C={len(pooled)}")
        chan_low = self.fc_low_weight @ pooled + self.fc_low_bias
        chan_high = self.fc_high_weight @ pooled + self.fc_high_bias
        spat_low = _reflect_conv2d(mean_map, self.conv_low_kernel) + self.conv_low_bias
        spat_high = _reflect_conv2d(mean_map, self.conv_high_kernel) + self.conv_high_bias
        return FreqMixWeights(chan_low, chan_high, spat_low, spat_high)

    @classmethod
    def from_npy_dir(cls, directory) -> "FreqMixParams":
        directory = Path(directory)
        return cls(*(read_npy(directory / f"{name}.npy") for name in PARAM_FIELDS))


def frequency_split(
    f: FeatureTensor, cutoff: CutoffSpec
) -> tuple[FeatureTensor, FeatureTensor]:
    """(low, high) band pair with low + high == f."""
    low = daf(f, cutoff)
    high = f.data.astype(np.float64)
    high -= low.data
    return low, FeatureTensor(high)


def freqmix_apply(
    f: FeatureTensor, cutoff: CutoffSpec, weights: FreqMixWeights
) -> FeatureTensor:
    """Recombine the two bands with sigmoid(channel) * sigmoid(spatial) gains."""
    from scipy.special import expit  # imported here so other commands start without scipy

    weights.check_against(f.data.shape)
    low, high = frequency_split(f, cutoff)
    # each band is released once it is multiplied into its gain, so at most
    # three (C, H, W) float64 arrays are alive at once
    low_spatial, high_spatial = weights.spatial_gains
    out = expit(weights.a_low_channel)[:, None, None] * low_spatial
    out *= low.data
    del low
    gain = expit(weights.a_high_channel)[:, None, None] * high_spatial
    gain *= high.data
    del high
    out += gain
    return FeatureTensor(out)


def _reflect_conv2d(plane: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    # correlation (no kernel flip) with edge-symmetric padding, matching the
    # usual conv-layer orientation
    from scipy import ndimage  # imported here so other commands start without scipy

    return ndimage.correlate(plane, kernel, mode="reflect")


def channel_means(blocks) -> tuple[np.ndarray, np.ndarray]:
    """The per-channel means and the channel-mean map of a tensor given as
    FeatureTensor blocks of whole channels, in order: `mean(axis=(1, 2))`
    and `mean(axis=0)` of its float64 cast, bit for bit.  The map is a
    running sum of the channel planes, added one plane at a time in
    channel order, as numpy's reduction over the leading axis adds them
    whenever a plane has more than one pixel."""
    pooled, total = [], None
    for block in blocks:
        data = block.data.astype(np.float64, copy=False)
        pooled.append(data.mean(axis=(1, 2)))
        for plane in data:
            if total is None:
                total = plane.copy()
            else:
                total += plane
    pooled = np.concatenate(pooled)
    if total.size == 1:  # one-pixel planes: numpy sums the C values pairwise, as one row
        return pooled, pooled.reshape(-1, 1, 1).mean(axis=0)
    return pooled, total / len(pooled)


def freqmix_predict_weights(
    f: FeatureTensor | FeatureFile, params: FreqMixParams
) -> FreqMixWeights:
    """Predict logits from the tensor itself: `FreqMixParams.predict` of
    its `channel_means`, the fc of the global average pool and the k x k
    conv of the channel-mean map, per band.  The means are taken over
    `f.blocks()`, one block of channels at a time from a file."""
    with np.errstate(over="ignore", invalid="ignore"):  # an inf mean saturates a gain
        means = channel_means(block for _, block in f.blocks())
    return params.predict(*means)
