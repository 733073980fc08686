"""Finite-dimensional complex linear algebra for projective measurement.

States are normalized complex vectors, observables are orthogonal
projectors, and all statistics go through the Born rule.  Born
probabilities are squared norms ||A psi||^2; conditional measurement
(measure A, then B) is <psi|ABA|psi>/<psi|A|psi> = ||BA psi||^2/||A psi||^2,
i.e. with state reduction included.  Everything is a pure function over
immutable values.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    InternalConsistencyError,
    InvalidParameterError,
    ZeroProbabilityError,
)

TOL_NORM = 1e-12
TOL_PROJECTOR = 1e-12
# Raw Born values outside [-EPS_PROB, 1+EPS_PROB] signal an algebra bug.
EPS_PROB = 1e-12


@dataclass(frozen=True)
class StateVector:
    """Normalized complex amplitude vector in a finite-dimensional space."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size == 0:
            raise InvalidParameterError("state amplitudes must be a non-empty 1-d vector")
        if not np.all(np.isfinite(amps)):
            raise InvalidParameterError("state amplitudes must be finite")
        norm_sq = float(np.vdot(amps, amps).real)
        if abs(norm_sq - 1.0) > TOL_NORM:
            raise InvalidParameterError(
                f"state is not normalized: ||psi||^2 = {norm_sq!r}; use StateVector.normalize"
            )
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @classmethod
    def normalize(cls, raw) -> "StateVector":
        """Build a state from an arbitrary nonzero amplitude vector."""
        raw = np.asarray(raw, dtype=complex)
        norm = float(np.linalg.norm(raw))
        if norm == 0.0 or not np.isfinite(norm):
            raise InvalidParameterError("cannot normalize a zero or non-finite vector")
        return cls(raw / norm)

    def overlap(self, other: "StateVector") -> complex:
        _check_dims(self.dim, other.dim)
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def same_ray(self, other: "StateVector", tol: float = 1e-10) -> bool:
        """Equality up to global phase: | <a|b> | = 1."""
        return abs(abs(self.overlap(other)) - 1.0) <= tol


@dataclass(frozen=True)
class Projector:
    """Hermitian idempotent matrix, optionally carrying a display name."""

    matrix: np.ndarray
    name: str = ""

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] == 0:
            raise InvalidParameterError("projector matrix must be square and non-empty")
        if not np.all(np.isfinite(mat)):
            raise InvalidParameterError("projector matrix must be finite")
        herm = np.max(np.abs(mat - mat.conj().T))
        if herm > TOL_PROJECTOR:
            raise InvalidParameterError(f"projector {self.name!r} is not Hermitian (defect {herm:.3e})")
        idem = np.max(np.abs(mat @ mat - mat))
        if idem > TOL_PROJECTOR:
            raise InvalidParameterError(f"projector {self.name!r} is not idempotent (defect {idem:.3e})")
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    @classmethod
    def from_ket(cls, ket, name: str = "") -> "Projector":
        """Rank-1 projector |k><k| onto the (normalized) given ket."""
        k = StateVector.normalize(ket).amplitudes
        return cls(np.outer(k, k.conj()), name=name)

    @classmethod
    def identity(cls, dim: int, name: str = "1") -> "Projector":
        return cls(np.eye(dim, dtype=complex), name=name)

    def complement(self) -> "Projector":
        return Projector(np.eye(self.dim, dtype=complex) - self.matrix,
                         name=f"1-{self.name}" if self.name else "")

    def label(self) -> str:
        return self.name or f"<projector dim={self.dim}>"


@dataclass(frozen=True)
class DisturbanceMetrics:
    """Disturbance of a sharp observable by a preceding rank-1 measurement.

    c is the retention probability, sigma_f the post-measurement standard
    deviation sqrt(c(1-c)), and entropic_bound = -ln(c) (natural log;
    math.inf when c = 0).
    """

    c: float
    sigma_f: float = field(init=False)
    entropic_bound: float = field(init=False)

    def __post_init__(self):
        c = float(self.c)
        if not (-EPS_PROB <= c <= 1.0 + EPS_PROB):
            raise InternalConsistencyError(f"disturbance c = {c!r} outside [0,1]")
        c = min(max(c, 0.0), 1.0)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "sigma_f", math.sqrt(c * (1.0 - c)))
        object.__setattr__(self, "entropic_bound", math.inf if c == 0.0 else -math.log(c))


def _check_dims(*dims: int) -> None:
    if len(set(dims)) > 1:
        raise DimensionMismatchError(f"dimension mismatch: {dims}")


def _clamp_probability(value: float, context: str) -> float:
    if not (-EPS_PROB <= value <= 1.0 + EPS_PROB):
        raise InternalConsistencyError(f"{context}: raw value {value!r} outside [0,1] tolerance band")
    return min(max(value, 0.0), 1.0)


def _norm_sq(amplitudes: np.ndarray) -> float:
    return float(np.vdot(amplitudes, amplitudes).real)


def zero_threshold(dim: int) -> float:
    """(16*dim*eps)^2: ||A psi|| carries an absolute rounding error of order
    dim*eps (Higham 2002), so a squared norm at or below this counts as zero."""
    return (16 * dim * sys.float_info.epsilon) ** 2


def _nonzero(p_a: float, a: Projector, action: str) -> float:
    zero = zero_threshold(a.dim)
    if p_a <= zero:
        raise ZeroProbabilityError(f"cannot {action} {a.label()}: probability {p_a!r} <= {zero!r}")
    return p_a


def born_probability(psi: StateVector, a: Projector) -> float:
    """Born rule <psi|A|psi> = ||A psi||^2, clamped to [0,1] after a tolerance check."""
    _check_dims(psi.dim, a.dim)
    return _clamp_probability(_norm_sq(a.matrix @ psi.amplitudes),
                              f"born_probability({a.label()})")


def conditional_probability(psi: StateVector, a: Projector, b: Projector) -> float:
    """P(B|A) = ||B A psi||^2 / ||A psi||^2: measure A first, then B."""
    _check_dims(psi.dim, a.dim, b.dim)
    p_a = _nonzero(born_probability(psi, a), a, "condition on")
    return _clamp_probability(_norm_sq((b.matrix @ a.matrix) @ psi.amplitudes) / p_a,
                              f"conditional_probability({b.label()}|{a.label()})")


def post_measurement_state(psi: StateVector, a: Projector) -> StateVector:
    """Reduced state A|psi>/||A|psi>|| after observing A."""
    _nonzero(born_probability(psi, a), a, "project onto")
    return StateVector.normalize(a.matrix @ psi.amplitudes)


def deviation(psi: StateVector, a: Projector) -> float:
    """Standard deviation sqrt(<A^2> - <A>^2) = sqrt(p(1-p)) of a projector."""
    p = born_probability(psi, a)
    return math.sqrt(p * (1.0 - p))


def disturbance_metrics(p_first: Projector, p_second: Projector) -> DisturbanceMetrics:
    """Disturbance of p_second caused by first measuring rank-1 p_first.

    Uses the operator identity P A P = Tr(PA) P for rank-1 P, so
    c = Tr(p_first p_second).
    """
    _check_dims(p_first.dim, p_second.dim)
    if abs(p_first.trace - 1.0) > TOL_PROJECTOR:
        raise InvalidParameterError(
            f"first projector {p_first.label()} must be rank 1 (trace {p_first.trace!r})"
        )
    c = float(np.trace(p_first.matrix @ p_second.matrix).real)
    return DisturbanceMetrics(c=c)


def tensor(a, b):
    """Kronecker product of two states or two projectors."""
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        return StateVector(np.kron(a.amplitudes, b.amplitudes))
    if isinstance(a, Projector) and isinstance(b, Projector):
        name = f"{a.name}(x){b.name}" if (a.name or b.name) else ""
        return Projector(np.kron(a.matrix, b.matrix), name=name)
    raise InvalidParameterError("tensor expects two StateVectors or two Projectors")


def commutator_norm(a: Projector, b: Projector) -> float:
    """Max-entry magnitude of AB - BA."""
    _check_dims(a.dim, b.dim)
    comm = a.matrix @ b.matrix - b.matrix @ a.matrix
    return float(np.max(np.abs(comm)))
