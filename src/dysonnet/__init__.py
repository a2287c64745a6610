"""Layered networks from scale posets, exact risk Hessians, Matrix Dyson
Equation spectra, and KL contraction and likelihood decomposition."""

__version__ = "0.1.0"

from .errors import (
    CapacityError,
    ConvergenceError,
    DomainError,
    DysonnetError,
    NumericError,
    ShapeError,
    StabilityError,
)

__all__ = [
    "CapacityError",
    "ConvergenceError",
    "DomainError",
    "DysonnetError",
    "NumericError",
    "ShapeError",
    "StabilityError",
    "__version__",
]
