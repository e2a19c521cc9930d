"""Hyperdimensional-computing substrate: packed bits, item memories, encoder."""

from .kernels import kernel_runtime
from .bitops import (
    WORD_BITS,
    words_for_dim,
    pack_bits,
    unpack_bits,
    extract_bit_columns,
    counts_from_planes,
    popcount,
    hamming_distance,
    random_hypervectors,
    flip_bits,
    majority_bundle,
)
from .itemmemory import ItemMemory, ItemMemoryConfig
from .encoder import IDLevelEncoder, EncoderConfig
from .hamming import (
    DISTANCE_DTYPE,
    MAX_CONDENSED_DIM,
    pairwise_hamming_blocked,
    hamming_cross,
    hamming_to_query,
    condensed_index,
    condensed_pairwise_hamming,
    squareform,
    normalized_hamming,
)
from .compression import (
    CompressionReport,
    hv_bytes_per_spectrum,
    compression_from_spectra,
    compression_from_descriptor,
)

__all__ = [
    "kernel_runtime",
    "WORD_BITS",
    "words_for_dim",
    "pack_bits",
    "unpack_bits",
    "extract_bit_columns",
    "counts_from_planes",
    "popcount",
    "hamming_distance",
    "random_hypervectors",
    "flip_bits",
    "majority_bundle",
    "ItemMemory",
    "ItemMemoryConfig",
    "IDLevelEncoder",
    "EncoderConfig",
    "DISTANCE_DTYPE",
    "MAX_CONDENSED_DIM",
    "pairwise_hamming_blocked",
    "hamming_cross",
    "hamming_to_query",
    "condensed_index",
    "condensed_pairwise_hamming",
    "squareform",
    "normalized_hamming",
    "CompressionReport",
    "hv_bytes_per_spectrum",
    "compression_from_spectra",
    "compression_from_descriptor",
]
