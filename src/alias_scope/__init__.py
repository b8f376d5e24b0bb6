"""Aliasing analysis for downsampling operators and segmentation outputs."""

__version__ = "0.2.0"

from .antialias import (
    CutoffSpec,
    add_gaussian_noise,
    aliasing_score,
    binomial_blur,
    binomial_kernel,
    daf,
    flc_cutoff,
)
from .arrays import (
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
from .analysis import (
    BinnedCurve,
    PixelCrossEntropy,
    WindowGrid,
    bin_by_score,
    error_type_distribution,
    patch_aliasing_map,
    pixel_cross_entropy,
)
from .freqmix import (
    FreqMixParams,
    FreqMixWeights,
    channel_means,
    freqmix_apply,
    freqmix_predict_weights,
    frequency_split,
)
from .sampling import (
    DownsampleSpec,
    FilterBank,
    depth_to_space,
    esr,
    esr_anisotropic,
    filter_bank_orthogonality,
    nyquist,
    predicted_alias_frequency,
    space_to_depth,
    subsample,
)
from .segmetrics import (
    boundary_acc,
    boundary_band,
    boundary_iou,
    classify_boundary_pixels,
    contour,
    default_band_width,
    error_metrics,
    miou,
    multiclass_errors,
)
from .spectral import (
    FreqGrid,
    Spectrum,
    dft2_naive,
    fft2,
    filter_frequency_response,
    ifft2,
    power_spectrum,
    signed_frequencies,
)

__all__ = [name for name in dir() if not name.startswith("_")]
