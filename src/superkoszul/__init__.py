"""Exact double Koszul complex machinery for super vector spaces."""

__version__ = "0.1.0"

from .linalg import (
    DimensionError,
    RestrictionError,
    SparseMap,
    Spectrum,
    SpectrumError,
    Subspace,
    SubspaceError,
)

__all__ = [
    "DimensionError",
    "RestrictionError",
    "SparseMap",
    "Spectrum",
    "SpectrumError",
    "Subspace",
    "SubspaceError",
    "__version__",
]
