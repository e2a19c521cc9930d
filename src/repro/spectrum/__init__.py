"""Spectrum substrate: data structures, preprocessing, quantization, bucketing."""

from .spectrum import MassSpectrum
from .preprocess import (
    PreprocessingConfig,
    filter_peaks,
    select_top_k,
    scale_and_normalize,
    preprocess_spectrum,
    preprocess_batch,
    preprocessing_survival_rate,
)
from .quantize import (
    QuantizerConfig,
    quantize_mz,
    quantize_intensity,
    quantize_spectrum,
    dequantize_mz,
)
from .bucketing import (
    BucketingConfig,
    bucket_index,
    bucket_key,
    check_precursor_columns,
    precursor_bucket_key,
    partition_spectra,
    bucket_size_histogram,
    bucket_statistics,
    pairwise_work,
    split_oversized_buckets,
)
from .validation import (
    ValidationIssue,
    ValidationReport,
    DatasetQCReport,
    validate_spectrum,
    validate_dataset,
)
from .similarity import (
    binned_vector,
    cosine_similarity,
    pairwise_cosine_matrix,
    cosine_distance_matrix,
)

__all__ = [
    "MassSpectrum",
    "PreprocessingConfig",
    "filter_peaks",
    "select_top_k",
    "scale_and_normalize",
    "preprocess_spectrum",
    "preprocess_batch",
    "preprocessing_survival_rate",
    "QuantizerConfig",
    "quantize_mz",
    "quantize_intensity",
    "quantize_spectrum",
    "dequantize_mz",
    "BucketingConfig",
    "bucket_index",
    "bucket_key",
    "check_precursor_columns",
    "precursor_bucket_key",
    "partition_spectra",
    "bucket_size_histogram",
    "bucket_statistics",
    "pairwise_work",
    "split_oversized_buckets",
    "binned_vector",
    "cosine_similarity",
    "pairwise_cosine_matrix",
    "cosine_distance_matrix",
    "ValidationIssue",
    "ValidationReport",
    "DatasetQCReport",
    "validate_spectrum",
    "validate_dataset",
]
