"""Finite-dimensional complex linear algebra for projective measurement.

States are normalized complex vectors, observables are orthogonal
projectors, and all statistics go through the Born rule.  Born
probabilities are squared norms ||A psi||^2; conditional measurement
(measure A, then B) is <psi|ABA|psi>/<psi|A|psi> = ||BA psi||^2/||A psi||^2,
i.e. with state reduction included.  Everything is a pure function over
immutable values.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InternalConsistencyError,
    InvalidParameterError,
    ZeroProbabilityError,
)

TOL_NORM = 1e-12
TOL_PROJECTOR = 1e-12


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
        if not np.isfinite(mat).all():
            raise InvalidParameterError("projector matrix must be finite")
        herm = np.abs(mat - mat.conj().T).max()
        if herm > TOL_PROJECTOR:
            raise InvalidParameterError(f"projector {self.name!r} is not Hermitian (defect {herm:.3e})")
        idem = np.abs(mat @ mat - mat).max()
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


def _check_dims(*dims: int) -> None:
    if len(set(dims)) > 1:
        raise DimensionMismatchError(f"dimension mismatch: {dims}")


def _norm_sq(amplitudes: np.ndarray) -> float:
    return float(np.vdot(amplitudes, amplitudes).real)


def zero_threshold(dim: int) -> float:
    """(16*dim*eps)^2: ||A psi|| carries an absolute rounding error of order
    dim*eps (Higham 2002), so a squared norm at or below this counts as zero."""
    return (16 * dim * sys.float_info.epsilon) ** 2


def bound(exact: float, dim: int, cond: float = 1.0) -> float:
    """Largest rounding residual of a computed probability whose exact value is `exact`.

    The same model as zero_threshold: 16*dim*eps relative, times the condition
    number `cond` of the formula, plus zero_threshold(dim).  Compare as
    `not residual <= bound`, so that a NaN fails; bound(0, dim) is zero_threshold(dim).
    """
    return 16 * dim * sys.float_info.epsilon * abs(exact) * cond + zero_threshold(dim)


def _clamp_probability(value: float, context: str, dim: int, cond: float = 1.0) -> float:
    """Clamp to [0,1]; a raw value further out than bound(1, dim, cond), or NaN, is a bug."""
    slack = bound(1.0, dim, cond)
    if not -slack <= value <= 1.0 + slack:
        raise InternalConsistencyError(
            f"{context}: raw value {value!r} outside [0,1] by more than the rounding bound {slack!r}")
    return min(max(value, 0.0), 1.0)


def _nonzero(p_a: float, a: Projector, action: str) -> float:
    zero = zero_threshold(a.dim)
    if p_a <= zero:
        raise ZeroProbabilityError(f"cannot {action} {a.label()}: probability {p_a!r} <= {zero!r}")
    return p_a


def born_probability(psi: StateVector, a: Projector) -> float:
    """Born rule <psi|A|psi> = ||A psi||^2, clamped to [0,1] within the rounding bound."""
    _check_dims(psi.dim, a.dim)
    return _clamp_probability(_norm_sq(a.matrix @ psi.amplitudes),
                              f"born_probability({a.label()})", a.dim)


def conditional_probability(psi: StateVector, a: Projector, b: Projector) -> float:
    """P(B|A) = ||B A psi||^2 / ||A psi||^2: measure A first, then B.  Dividing
    by P(A) scales the rounding by 1/P(A), so the clamp takes cond = 1 + 1/P(A)."""
    _check_dims(psi.dim, a.dim, b.dim)
    p_a = _nonzero(born_probability(psi, a), a, "condition on")
    return _clamp_probability(_norm_sq((b.matrix @ a.matrix) @ psi.amplitudes) / p_a,
                              f"conditional_probability({b.label()}|{a.label()})",
                              a.dim, 1.0 + 1.0 / p_a)


def post_measurement_state(psi: StateVector, a: Projector) -> StateVector:
    """Reduced state A|psi>/||A|psi>|| after observing A."""
    _nonzero(born_probability(psi, a), a, "project onto")
    return StateVector.normalize(a.matrix @ psi.amplitudes)


def disturbance_metrics(p_first: Projector, p_second: Projector) -> float:
    """Retention c of p_second after first measuring rank-1 p_first.

    Uses the operator identity P A P = Tr(PA) P for rank-1 P, so
    c = Tr(p_first p_second), clamped to [0,1] within the rounding bound.
    """
    _check_dims(p_first.dim, p_second.dim)
    if abs(p_first.trace - 1.0) > TOL_PROJECTOR:
        raise InvalidParameterError(
            f"first projector {p_first.label()} must be rank 1 (trace {p_first.trace!r})"
        )
    return _clamp_probability(float(np.trace(p_first.matrix @ p_second.matrix).real),
                              f"disturbance_metrics({p_first.label()}, {p_second.label()})",
                              p_first.dim)


def tensor(a: Projector, b: Projector) -> Projector:
    """Kronecker product of two projectors."""
    if not (isinstance(a, Projector) and isinstance(b, Projector)):
        raise InvalidParameterError("tensor expects two Projectors")
    name = f"{a.name}(x){b.name}" if (a.name or b.name) else ""
    return Projector(np.kron(a.matrix, b.matrix), name=name)


def commutator_norm(a: Projector, b: Projector) -> float:
    """Max-entry magnitude of AB - BA."""
    _check_dims(a.dim, b.dim)
    comm = a.matrix @ b.matrix - b.matrix @ a.matrix
    return float(np.max(np.abs(comm)))
