"""Finite-dimensional complex linear algebra for projective measurement.

States are normalized complex vectors, observables are orthogonal
projectors, and all statistics go through the Born rule.  Born
probabilities are squared norms ||A psi||^2; conditional measurement
(measure A, then B) is <psi|ABA|psi>/<psi|A|psi> = ||BA psi||^2/||A psi||^2,
i.e. with state reduction included.  Everything is a pure function over
immutable values.

born_probability and conditional_probability are the general matrix path
on one StateVector and one Projector each, the reference the tests check
the commands against; born_probabilities and conditional_probabilities
apply them row by row to families, and projectors builds a family from one
validated (k, d, d) stack.  The commands measure only rank-1 projectors, and
for rank-1 P, P A P = Tr(PA) P, so each of their probabilities is a
squared modulus of a dot product of kets: braket and overlap take it on
kets of two Python complex numbers, with IEEE operations in a fixed order,
so the digits are the same on every CPU.

The clamp band (clamp_probability), the zero rule (zero_threshold) and the
agreement test (bound, agree) take floats or arrays alike; hardy4 uses them
on its kets, gedanken and bellhv on theirs, and none of them builds a
Projector.  clamp_probability owns the in-band rule: a float already in
[0, 1] is its own clamp, returned as it is; conditional, born_probability,
disturbance_metrics and gedanken's helpers apply that rule before they call
it only to skip building its context.  A conditional measurement's one
decision is made in one place: conditioning clamps P(A) and applies the
zero rule, and conditional divides by P(A) and clamps with cond = 1 + 1/P(A).  conditional_probability, hardy4,
bellhv and gedanken all call them.
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
        p.__dict__.update(matrix=mat, name=name)  # the fields Projector.__init__ would set
        family.append(p)
    return tuple(family)


def validate_projectors(mats: np.ndarray, name: str = "") -> None:
    """Raise unless `mats`, a (d, d) matrix (or a stack of them), is finite, Hermitian and
    idempotent: no entry of P - P^dagger or of P P - P may exceed bound(1, d), the rounding
    of a probability of 1 in dimension d (7.1e-15 for d = 2, 1.4e-14 for d = 4, 1.8e-14
    for d = 5).

    An inf or NaN entry makes the Hermitian defect inf or NaN, which `not <=` fails, so
    only a matrix that fails needs the finiteness test, as in StateVector.  A stack
    names its worst row."""
    # inf - inf, inf * 0 and overflow all leave an inf or NaN defect, which fails below
    with np.errstate(invalid="ignore", over="ignore"):
        defects = (("Hermitian", np.abs(mats - mats.conj().swapaxes(-1, -2))),
                   ("idempotent", np.abs(mats @ mats - mats)))
    allowed = bound(1.0, mats.shape[-1])
    for kind, defect in defects:
        if not defect.max() <= allowed:
            if not np.isfinite(mats).all():
                raise InvalidParameterError(f"projector {name!r} is not finite")
            row = (f" in row {np.unravel_index(defect.argmax(), defect.shape)[0]}"
                   if defect.ndim > 2 else "")
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


_EPS = sys.float_info.epsilon


def zero_threshold(dim: int) -> float:
    """(16*dim*eps)^2: ||A psi|| carries an absolute rounding error of order
    dim*eps (Higham 2002), so a squared norm at or below this counts as zero."""
    return (16 * dim * _EPS) ** 2


def bound(exact, dim: int, cond=1.0):
    """Largest rounding residual of a computed probability whose exact value is `exact`.

    The same model as zero_threshold: 16*dim*eps relative, times the condition
    number `cond` of the formula, plus zero_threshold(dim).  Compare as
    `not residual <= bound`, so that a NaN fails; bound(0, dim) is zero_threshold(dim).
    `exact` and `cond` may be arrays, one bound per row.
    """
    # 16*dim*eps is dim * 2^-48 and its square dim^2 * 2^-96, both exact, so the
    # product and ** 2 of zero_threshold give the same bits
    rel = 16 * dim * _EPS
    return rel * abs(exact) * cond + rel * rel


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
    A float already in [0, 1] is its own clamp and is returned as it is.

    `value` and `cond` may be arrays, one row each; the first row out of its band is reported."""
    if type(value) is float:
        if 0.0 <= value <= 1.0:
            return value
        clipped = min(max(value, 0.0), 1.0)
    else:
        clipped = np.clip(value, 0.0, 1.0)
    agree(value, clipped, bound(1.0, dim, cond), context)
    return clipped


def born_probability(psi: StateVector, a: Projector) -> float:
    """Born rule <psi|A|psi> = ||A psi||^2, clamped to [0,1] within the rounding bound."""
    if psi.dim != a.dim:
        _check_dims(psi.dim, a.dim)
    amps = a.matrix @ psi.amplitudes
    p = float(np.vdot(amps, amps).real)
    # a value in [0, 1] is its own clamp
    return p if 0.0 <= p <= 1.0 else clamp_probability(p, f"born_probability({a.label()})", a.dim)


def conditioning(raw, name: str, dim: int):
    """P(A) of a conditional measurement on A named `name`: the raw squared norm clamped
    within bound(1, dim) (context "born_probability({name})"), and then the zero rule:
    at or below zero_threshold(dim) is ZeroProbabilityError.  A float or an (N,) array;
    an array's message names its first failing value."""
    zero = zero_threshold(dim)
    if type(raw) is float and zero < raw <= 1.0:  # the hot path: in band and not zero
        return raw
    p = clamp_probability(raw, f"born_probability({name})", dim)
    failure = first_failure(p > zero, p)
    if failure is not None:
        raise ZeroProbabilityError(
            f"cannot condition on {name}: probability {failure[1]!r} <= {zero!r}")
    return p


def conditional(joint, p_first, then: str, first: str, dim: int):
    """P(then|first) = joint / P(first), P(first) from conditioning.  Dividing by P(first)
    scales the rounding by 1/P(first), so the clamp takes cond = 1 + 1/P(first)
    (context "conditional_probability({then}|{first})").  Floats or (N,) arrays."""
    p = joint / p_first
    if type(p) is float and 0.0 <= p <= 1.0:  # a value in [0, 1] is its own clamp
        return p
    return clamp_probability(p, f"conditional_probability({then}|{first})", dim,
                             1.0 + 1.0 / p_first)


def conditional_probability(psi: StateVector, a: Projector, b: Projector) -> float:
    """P(B|A) = ||B A psi||^2 / ||A psi||^2: measure A first, then B, by conditioning
    and conditional."""
    _check_dims(psi.dim, a.dim, b.dim)
    amps = a.matrix @ psi.amplitudes
    p_a = conditioning(float(np.vdot(amps, amps).real), a.label(), a.dim)
    amps = (b.matrix @ a.matrix) @ psi.amplitudes
    return conditional(float(np.vdot(amps, amps).real), p_a, b.label(), a.label(), a.dim)


def _row_states(psi, *families) -> list[StateVector]:
    """The state of each row: `psi` for every row, or `psi` itself, one state per row.
    The families must be non-empty and of one length."""
    k = len(families[0])
    states = [psi] * k if isinstance(psi, StateVector) else list(psi)
    if not k or len(states) != k or any(len(f) != k for f in families):
        raise InvalidParameterError("needs non-empty families of one length, "
                                    "and one state or one state per row")
    return states


def born_probabilities(psi, family) -> list[float]:
    """born_probability(psi, A) for each Projector A of `family`; psi is one state or one
    state per row."""
    return [born_probability(s, a) for s, a in zip(_row_states(psi, family), family)]


def conditional_probabilities(psi, firsts, seconds) -> list[float]:
    """conditional_probability(psi, A, B) for each pair (A, B) of `firsts` and `seconds`;
    psi is one state or one state per row."""
    return [conditional_probability(s, a, b)
            for s, a, b in zip(_row_states(psi, firsts, seconds), firsts, seconds)]


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
            f"first projector {p_first.label()} must be rank 1 (trace {trace!r})")
    c = float((p_first.matrix @ p_second.matrix).trace().real)
    return c if 0.0 <= c <= 1.0 else clamp_probability(
        c, f"disturbance_metrics({p_first.label()}, {p_second.label()})", dim)


def braket(a, b) -> complex:
    """<a|b> of two kets, each a pair of Python complex numbers (or floats), as
    conj(a0) b0 + conj(a1) b1 in that order: only IEEE + - *, so the same bits on every CPU."""
    return a[0].conjugate() * b[0] + a[1].conjugate() * b[1]


def overlap(a, b) -> float:
    """|<a|b>|^2 as re^2 + im^2 of braket(a, b): for rank-1 P = |a><a|, the Born
    probability of P on the normalized state |b>, and Tr(|a><a| |b><b|)."""
    z = braket(a, b)
    return z.real * z.real + z.imag * z.imag


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
