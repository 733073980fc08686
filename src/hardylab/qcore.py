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


@dataclass(frozen=True)
class StateVector:
    """Normalized complex amplitude vector in a finite-dimensional space."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size == 0:
            raise InvalidParameterError("state amplitudes must be a non-empty 1-d vector")
        norm_sq = float(np.vdot(amps, amps).real)
        # ||psi||^2 rounds like a Born probability of 1: within bound(1, dim).
        # `not <=`: an inf or NaN amplitude makes norm_sq NaN or inf, so only a
        # vector that fails here needs the finiteness test
        if not abs(norm_sq - 1.0) <= bound(1.0, amps.size):
            if not np.isfinite(amps).all():
                raise InvalidParameterError("state amplitudes must be finite")
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


@dataclass(frozen=True)
class Projector:
    """Hermitian idempotent matrix, optionally carrying a display name."""

    matrix: np.ndarray
    name: str = ""

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] == 0:
            raise InvalidParameterError("projector matrix must be square and non-empty")
        validate_projectors(mat, self.name)
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def label(self) -> str:
        return self.name or f"<projector dim={self.dim}>"


def rank1(ket) -> np.ndarray:
    """The rank-1 projector matrix |k><k|: the outer product of the normalized ket."""
    k = StateVector.normalize(ket).amplitudes
    return np.outer(k, k.conj())


def projectors(mats, names) -> tuple[Projector, ...]:
    """The Projectors named `names` on the rows of a (k, d, d) stack: one validate_projectors
    call for the stack, none per Projector.  A failing row raises Projector(row, name)'s error."""
    mats = np.asarray(mats, dtype=complex)
    if 0 in mats.shape or mats.shape != (len(names),) + mats.shape[-1:] * 2:
        raise InvalidParameterError("projectors needs a non-empty (k, d, d) stack and k names")
    try:
        validate_projectors(mats)
    except InvalidParameterError:
        for mat, name in zip(mats, names):
            validate_projectors(mat, name)
        raise
    mats.flags.writeable = False
    family = tuple(object.__new__(Projector) for _ in names)
    for p, mat, name in zip(family, mats, names):
        vars(p).update(matrix=mat, name=name)  # the fields Projector.__init__ would set
    return family


def validate_projectors(mats: np.ndarray, name: str = "") -> None:
    """Raise unless `mats`, one (d, d) matrix or a (..., d, d) stack of them, is
    finite, Hermitian and idempotent: no entry of P - P^dagger or of P P - P may
    exceed bound(1, d), the rounding of a probability of 1 in dimension d
    (7.1e-15 for d = 2, 1.4e-14 for d = 4, 1.8e-14 for d = 5)."""
    if not np.isfinite(mats).all():
        raise InvalidParameterError(f"projector {name!r} is not finite")
    allowed = bound(1.0, mats.shape[-1])
    herm = np.abs(mats - mats.conj().swapaxes(-1, -2))
    if herm.max() > allowed:
        _defect_error(herm, name, "Hermitian")
    idem = np.abs(mats @ mats - mats)
    if idem.max() > allowed:
        _defect_error(idem, name, "idempotent")


def _defect_error(defect: np.ndarray, name: str, kind: str):
    """The error for a failed projector property; a stack names its worst row."""
    row = f" in row {np.unravel_index(defect.argmax(), defect.shape)[0]}" if defect.ndim > 2 else ""
    raise InvalidParameterError(
        f"projector {name!r}{row} is not {kind} (defect {defect.max():.3e})")


def first_failure(ok, *values) -> tuple | None:
    """None if `ok`, a bool or a bool array, holds everywhere.  Otherwise the flat
    index of its first False and, as floats, each of `values` (broadcast to the
    shape of `ok`) at that index.  A NaN compared with `<=` is False, so it fails."""
    if ok is True or (ok is not False and ok.all()):
        return None
    i = int(np.argmin(ok))
    return (i, *(float(np.broadcast_to(v, np.shape(ok)).flat[i]) for v in values))


def _check_dims(*dims: int) -> None:
    if len(set(dims)) > 1:
        raise DimensionMismatchError(f"dimension mismatch: {dims}")


def _norm_sq(amplitudes: np.ndarray) -> float:
    return float(np.vdot(amplitudes, amplitudes).real)


def zero_threshold(dim: int) -> float:
    """(16*dim*eps)^2: ||A psi|| carries an absolute rounding error of order
    dim*eps (Higham 2002), so a squared norm at or below this counts as zero."""
    return (16 * dim * sys.float_info.epsilon) ** 2


def bound(exact, dim: int, cond=1.0):
    """Largest rounding residual of a computed probability whose exact value is `exact`.

    The same model as zero_threshold: 16*dim*eps relative, times the condition
    number `cond` of the formula, plus zero_threshold(dim).  Compare as
    `not residual <= bound`, so that a NaN fails; bound(0, dim) is zero_threshold(dim).
    `exact` and `cond` may be arrays, one bound per row.
    """
    return 16 * dim * sys.float_info.epsilon * abs(exact) * cond + zero_threshold(dim)


def agree(value, exact, allowed, what: str, at: tuple[str, np.ndarray] | None = None) -> float:
    """The worst residual / allowed, where each `value` must lie within `allowed` (> 0) of
    `exact`; else InternalConsistencyError "{what}: {value!r} vs {exact!r} (bound {allowed!r})".

    Floats or (N,) arrays, broadcast together.  The test is `not |value - exact| <= allowed`,
    so a NaN fails.  An array failure names its first failing row i: `at ("alpha", alphas)`
    reads " at alpha {alphas[i]!r}", no `at` reads " row {i}".
    """
    residual = abs(value - exact)
    if type(residual) is float and type(allowed) is float:  # the scalar pipeline's hot path
        if residual <= allowed:
            return residual / allowed
    else:
        # A worst ratio below 1 puts every residual below its bound.  A NaN, or a
        # ratio that rounds to 1, is left to the exact test.
        worst = float((residual / allowed).max())
        if worst < 1.0:
            return worst
        ok = residual <= allowed
        failure = first_failure(ok, value, exact, allowed)
        if failure is None:
            return worst
        row, value, exact, allowed = failure
        if np.ndim(ok):
            what += f" at {at[0]} {float(at[1][row])!r}" if at else f" row {row}"
    raise InternalConsistencyError(f"{what}: {value!r} vs {exact!r} (bound {allowed!r})")


def _clamp_probability(value, context: str, dim: int, cond=1.0):
    """Clamp to [0,1]; a raw value further out than bound(1, dim, cond), or NaN, is a bug.

    `value` and `cond` may be arrays, one row each; the first row out of its band is reported."""
    clipped = min(max(value, 0.0), 1.0) if type(value) is float else np.clip(value, 0.0, 1.0)
    agree(value, clipped, bound(1.0, dim, cond), context)
    return clipped


def born_probability(psi: StateVector, a: Projector) -> float:
    """Born rule <psi|A|psi> = ||A psi||^2, clamped to [0,1] within the rounding bound."""
    _check_dims(psi.dim, a.dim)
    return _clamp_probability(_norm_sq(a.matrix @ psi.amplitudes),
                              f"born_probability({a.label()})", a.dim)


def conditional_probability(psi: StateVector, a: Projector, b: Projector) -> float:
    """P(B|A) = ||B A psi||^2 / ||A psi||^2: measure A first, then B.  Dividing
    by P(A) scales the rounding by 1/P(A), so the clamp takes cond = 1 + 1/P(A)."""
    _check_dims(psi.dim, a.dim, b.dim)
    p_a, zero = born_probability(psi, a), zero_threshold(a.dim)
    if p_a <= zero:
        raise ZeroProbabilityError(
            f"cannot condition on {a.label()}: probability {p_a!r} <= {zero!r}")
    return _clamp_probability(_norm_sq((b.matrix @ a.matrix) @ psi.amplitudes) / p_a,
                              f"conditional_probability({b.label()}|{a.label()})",
                              a.dim, 1.0 + 1.0 / p_a)


def disturbance_metrics(p_first: Projector, p_second: Projector) -> float:
    """Retention c of p_second after first measuring rank-1 p_first.

    Uses the operator identity P A P = Tr(PA) P for rank-1 P, so
    c = Tr(p_first p_second), clamped to [0,1] within the rounding bound.
    p_first is rank 1 when its trace is within bound(1, dim) of 1.
    """
    _check_dims(p_first.dim, p_second.dim)
    if not abs(p_first.trace - 1.0) <= bound(1.0, p_first.dim):
        raise InvalidParameterError(
            f"first projector {p_first.label()} must be rank 1 (trace {p_first.trace!r})"
        )
    return _clamp_probability(float(np.trace(p_first.matrix @ p_second.matrix).real),
                              f"disturbance_metrics({p_first.label()}, {p_second.label()})",
                              p_first.dim)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of the trailing square matrices of `a` and `b`, broadcast
    over their leading axes.  Each entry is the single product a_ij b_kl, as in
    np.kron, so the result is the same to the bit, at a fraction of its cost."""
    prod = a[..., :, None, :, None] * b[..., None, :, None, :]
    *lead, n, m, _, _ = prod.shape
    return prod.reshape(*lead, n * m, n * m)


def tensor(a: Projector, b: Projector) -> Projector:
    """Kronecker product of two projectors."""
    if not (isinstance(a, Projector) and isinstance(b, Projector)):
        raise InvalidParameterError("tensor expects two Projectors")
    name = f"{a.name}(x){b.name}" if (a.name or b.name) else ""
    return Projector(kron(a.matrix, b.matrix), name=name)


def commutator_norm(a: Projector, b: Projector) -> float:
    """Max-entry magnitude of AB - BA."""
    _check_dims(a.dim, b.dim)
    comm = a.matrix @ b.matrix - b.matrix @ a.matrix
    return float(np.max(np.abs(comm)))
