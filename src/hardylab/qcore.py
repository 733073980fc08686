"""Finite-dimensional complex linear algebra for projective measurement.

States are normalized complex vectors, observables are orthogonal
projectors, and all statistics go through the Born rule.  Born
probabilities are squared norms ||A psi||^2; conditional measurement
(measure A, then B) is <psi|ABA|psi>/<psi|A|psi> = ||BA psi||^2/||A psi||^2,
i.e. with state reduction included.  Everything is a pure function over
immutable values.

Families of projectors are evaluated as one stack: born_probabilities and
conditional_probabilities take a sequence of Projectors (and of pairs), on
one state or one state per row.  Each makes the same BLAS call on each row
that the one-row arithmetic makes, so every value is the same to the bit,
and each row passes the same checks; born_probability and
conditional_probability are the stack of one.  row_dots is the one batched
row dot behind those squared norms and bellhv's closed-form rows.

The clamp band (clamp_probability), the zero rule (zero_threshold) and the
agreement test (bound, agree) take floats or arrays alike; hardy4 uses them
on its kets and builds no Projector.
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
        return float(self.matrix.trace().real)

    def label(self) -> str:
        return self.name or f"<projector dim={self.dim}>"


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
    family = []
    for mat, name in zip(mats, names):
        p = object.__new__(Projector)
        fields = p.__dict__  # the fields Projector.__init__ would set
        fields["matrix"], fields["name"] = mat, name
        family.append(p)
    return tuple(family)


def validate_projectors(mats: np.ndarray, name: str = "") -> None:
    """Raise unless `mats`, one (d, d) matrix or a (..., d, d) stack of them, is
    finite, Hermitian and idempotent: no entry of P - P^dagger or of P P - P may
    exceed bound(1, d), the rounding of a probability of 1 in dimension d
    (7.1e-15 for d = 2, 1.4e-14 for d = 4, 1.8e-14 for d = 5).

    Both defects go into one work buffer, P - P^dagger in its first half and P P - P
    in its second, and one maximum tests both.  An inf or NaN entry makes the
    Hermitian defect inf or NaN, which `not <=` fails, so only a stack that fails
    needs the finiteness test, as in StateVector."""
    work = np.empty((2, *mats.shape), dtype=mats.dtype)
    herm, idem = work
    np.conjugate(mats.swapaxes(-1, -2), out=herm)
    # inf - inf, inf * 0 and overflow all leave an inf or NaN defect, which fails below
    with np.errstate(invalid="ignore", over="ignore"):
        np.subtract(mats, herm, out=herm)
        np.matmul(mats, mats, out=idem)
        np.subtract(idem, mats, out=idem)
        # a real stack takes its defects in place
        defect = np.abs(work, out=work if work.dtype.kind == "f" else None)
    allowed = bound(1.0, mats.shape[-1])
    if not np.maximum.reduce(defect, axis=None) <= allowed:
        if not np.isfinite(mats).all():
            raise InvalidParameterError(f"projector {name!r} is not finite")
        herm, idem = defect
        if not np.maximum.reduce(herm, axis=None) <= allowed:
            _defect_error(herm, name, "Hermitian")
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


def row_dots(a, b) -> np.ndarray:
    """a_i.dot(b_i) for each pair of rows of two (..., d) arrays that broadcast together.

    A row-by-column matmul makes the one BLAS dot call, with the same strides, that
    a_i.dot(b_i) makes.  matmul, not einsum: with numpy 2.4 on OpenBLAS it rounds each
    row as np.dot does (einsum differed on 1,332 of 3,000 Bell rows), so a row matches
    the one-row arithmetic to the bit.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _norm_sq(vecs: np.ndarray) -> np.ndarray:
    """np.vdot(v, v).real for each row v of a complex (k, d) stack, by the same BLAS dot."""
    return row_dots(vecs.conj(), vecs).real


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
    if type(residual) is float and type(allowed) is float:  # the hot path of one float alpha
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


def clamp_probability(value, context: str, dim: int, cond=1.0):
    """Clamp to [0,1]; a raw value further out than bound(1, dim, cond), or NaN, is a bug.

    `value` and `cond` may be arrays, one row each; the first row out of its band is reported."""
    clipped = min(max(value, 0.0), 1.0) if type(value) is float else np.clip(value, 0.0, 1.0)
    agree(value, clipped, bound(1.0, dim, cond), context)
    return clipped


def _applied(psi, mats: np.ndarray) -> np.ndarray:
    """A_i psi_i for each row i of a (k, d, d) stack: one gemv per row, as A @ psi.
    `psi` is one StateVector for every row, or a sequence of k of them, one per row."""
    if isinstance(psi, StateVector):
        return mats @ psi.amplitudes
    return (mats @ np.array([s.amplitudes for s in psi])[:, :, None])[:, :, 0]


def _family_dim(psi, *families) -> int:
    """The dimension every state and projector shares; each family has one row per state."""
    states = (psi,) if isinstance(psi, StateVector) else psi
    k = len(families[0])
    if not k or len(states) not in (1, k) or [len(f) for f in families].count(k) != len(families):
        raise InvalidParameterError("needs non-empty families of one length, "
                                    "and one state or one state per row")
    dims = [p.dim for group in (states, *families) for p in group]
    if dims.count(dims[0]) != len(dims):
        _check_dims(*dims)
    return dims[0]


def _born_rows(psi, mats: np.ndarray, family, dim: int) -> list[float]:
    """born_probabilities on `mats`, the stacked matrices of `family`.  A value in [0, 1]
    is its own clamp; any other goes through clamp_probability, which clamps or raises."""
    return [p if 0.0 <= p <= 1.0 else clamp_probability(p, f"born_probability({a.label()})", dim)
            for p, a in zip(_norm_sq(_applied(psi, mats)).tolist(), family)]


def born_probabilities(psi, family) -> list[float]:
    """born_probability(psi, A) for each Projector A of the sequence `family`, to the bit,
    from one stacked evaluation; psi is one state or one state per row.  Each row is
    clamped within its own band, and a row out of it raises born_probability's error."""
    dim = _family_dim(psi, family)
    return _born_rows(psi, np.array([a.matrix for a in family]), family, dim)


def born_probability(psi: StateVector, a: Projector) -> float:
    """Born rule <psi|A|psi> = ||A psi||^2, clamped to [0,1] within the rounding bound."""
    return born_probabilities(psi, (a,))[0]


def conditional_probabilities(psi, firsts, seconds, p_first=None) -> list[float]:
    """conditional_probability(psi, A, B) for each pair (A, B) of the sequences `firsts` and
    `seconds`, to the bit, from one stacked evaluation; psi is one state or one state per
    row.  `p_first`, if given, is born_probabilities(psi, firsts), for callers that need
    P(A) too.  Each row passes the zero rule and its own clamp band, and a row that fails
    raises conditional_probability's error."""
    dim = _family_dim(psi, firsts, seconds)
    a_mats = np.array([a.matrix for a in firsts])
    if p_first is None:
        p_first = _born_rows(psi, a_mats, firsts, dim)
    raw = _norm_sq(_applied(psi, np.array([b.matrix for b in seconds]) @ a_mats)).tolist()
    zero, out = zero_threshold(dim), []
    for r, p_a, a, b in zip(raw, p_first, firsts, seconds, strict=True):
        if p_a <= zero:
            raise ZeroProbabilityError(
                f"cannot condition on {a.label()}: probability {p_a!r} <= {zero!r}")
        p = r / p_a
        out.append(p if 0.0 <= p <= 1.0 else clamp_probability(
            p, f"conditional_probability({b.label()}|{a.label()})", dim, 1.0 + 1.0 / p_a))
    return out


def conditional_probability(psi: StateVector, a: Projector, b: Projector) -> float:
    """P(B|A) = ||B A psi||^2 / ||A psi||^2: measure A first, then B.  Dividing
    by P(A) scales the rounding by 1/P(A), so the clamp takes cond = 1 + 1/P(A)."""
    return conditional_probabilities(psi, (a,), (b,))[0]


def disturbance_metrics(p_first: Projector, p_second: Projector) -> float:
    """Retention c of p_second after first measuring rank-1 p_first.

    Uses the operator identity P A P = Tr(PA) P for rank-1 P, so
    c = Tr(p_first p_second), clamped to [0,1] within the rounding bound.
    p_first is rank 1 when its trace is within bound(1, dim) of 1.
    """
    dim = p_first.dim
    if p_second.dim != dim:
        _check_dims(dim, p_second.dim)
    trace = p_first.trace
    if not abs(trace - 1.0) <= bound(1.0, dim):
        raise InvalidParameterError(
            f"first projector {p_first.label()} must be rank 1 (trace {trace!r})"
        )
    c = float((p_first.matrix @ p_second.matrix).trace().real)
    # a value in [0, 1] is its own clamp, as in _born_rows
    return c if 0.0 <= c <= 1.0 else clamp_probability(
        c, f"disturbance_metrics({p_first.label()}, {p_second.label()})", dim)


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
