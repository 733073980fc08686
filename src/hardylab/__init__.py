"""Deterministic verification toolkit for hidden-variables vs quantum
conditional-measurement statistics."""

from . import bellhv, gedanken, hardy4, hvlogic, qcore
from .errors import (
    DimensionMismatchError,
    HardyLabError,
    InternalConsistencyError,
    InvalidParameterError,
    ZeroProbabilityError,
)
from .qcore import Projector, StateVector

__all__ = [
    "bellhv", "gedanken", "hardy4", "hvlogic", "qcore",
    "StateVector", "Projector",
    "HardyLabError", "DimensionMismatchError", "ZeroProbabilityError",
    "InvalidParameterError", "InternalConsistencyError",
]

__version__ = "0.1.0"
