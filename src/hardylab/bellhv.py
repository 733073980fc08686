"""Non-contextual hidden-variables model for a single qubit.

A projector along Bloch axis m, evaluated on the pure state with Bloch
vector s, gets the dichotomic response

    A(lambda) = (1/2) [1 + sign(lambda + |s.m|/2) * sign(s.m)]

with lambda uniform on [-1/2, 1/2] and the sign(0) = +1 convention.  The
set {lambda : A(lambda) = 1} is a half-open interval, so all single- and
joint-set measures are exact interval arithmetic, never discretization.
The model reproduces every single-projector Born probability; the
classical (Bayes) conditional mu[b & a]/mu[a] is compared against the
quantum conditional <m|P_n|m> to exhibit where it fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qcore
from .errors import InvalidParameterError, ZeroProbabilityError
from .qcore import Projector, StateVector

UNIT_TOL = 1e-12
# Interval ends are exact to rounding, about 1e-16, so a conditioning set of
# measure (1 + s.m)/2 at or below this counts as empty, on both sides.
MIN_MEASURE = 1e-14
# Largest scan and Monte Carlo sizes accepted, checked before any work.
MAX_TRIALS = 1_000_000
MAX_SAMPLES = 10_000_000

_SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
_SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

X_HAT = np.array([1.0, 0.0, 0.0])
Y_HAT = np.array([0.0, 1.0, 0.0])
Z_HAT = np.array([0.0, 0.0, 1.0])


def unit_vector(v) -> np.ndarray:
    """Validate a Bloch vector: 3 real components, unit norm."""
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise InvalidParameterError(f"Bloch vector must have 3 components, got shape {v.shape}")
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > UNIT_TOL:
        raise InvalidParameterError(f"Bloch vector must be unit length, |v| = {norm!r}")
    return v


@dataclass(frozen=True)
class LambdaSet:
    """Disjoint sorted half-open intervals [lo, hi) inside [-1/2, 1/2]."""

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        cleaned = []
        prev_hi = -math.inf
        for lo, hi in sorted(self.intervals):
            if hi <= lo:
                continue  # empty under the half-open convention
            if lo < -0.5 - 1e-15 or hi > 0.5 + 1e-15:
                raise InvalidParameterError(f"interval [{lo}, {hi}) outside [-1/2, 1/2]")
            if lo < prev_hi:
                raise InvalidParameterError("intervals must be disjoint")
            cleaned.append((float(lo), float(hi)))
            prev_hi = hi
        object.__setattr__(self, "intervals", tuple(cleaned))

    @classmethod
    def empty(cls) -> "LambdaSet":
        return cls(())

    @classmethod
    def full(cls) -> "LambdaSet":
        return cls(((-0.5, 0.5),))

    @property
    def measure(self) -> float:
        return sum(hi - lo for lo, hi in self.intervals)

    def intersection(self, other: "LambdaSet") -> "LambdaSet":
        out = []
        for lo1, hi1 in self.intervals:
            for lo2, hi2 in other.intervals:
                lo, hi = max(lo1, lo2), min(hi1, hi2)
                if hi > lo:
                    out.append((lo, hi))
        return LambdaSet(tuple(out))

    def complement(self) -> "LambdaSet":
        out = []
        cursor = -0.5
        for lo, hi in self.intervals:
            if lo > cursor:
                out.append((cursor, lo))
            cursor = hi
        if cursor < 0.5:
            out.append((cursor, 0.5))
        return LambdaSet(tuple(out))

    def contains(self, lam: float) -> bool:
        return any(lo <= lam < hi for lo, hi in self.intervals)


@dataclass(frozen=True)
class ConditionalComparison:
    quantum: float
    classical: float
    s: np.ndarray
    m: np.ndarray
    n: np.ndarray

    @property
    def discrepancy(self) -> float:
        return abs(self.quantum - self.classical)

    def to_dict(self) -> dict:
        return {
            "s": list(self.s), "m": list(self.m), "n": list(self.n),
            "quantum": self.quantum, "classical": self.classical,
            "discrepancy": self.discrepancy,
        }


@dataclass(frozen=True)
class ScanResult:
    max: ConditionalComparison
    histogram: tuple[int, ...]  # 20 bins over discrepancy in [0, 1]


@dataclass(frozen=True)
class MalleyResult:
    violating_s: np.ndarray | None
    discrepancy: float


@dataclass(frozen=True)
class MonteCarloResult:
    classical_estimate: float
    exact: float
    z_score: float
    passed: bool  # within 5 standard errors


def _response(dot: float, lam):
    """Dichotomic response at hidden variable(s) lam for s.m = dot, sign(0) = +1."""
    signs = np.where(lam + 0.5 * abs(dot) >= 0.0, 1.0, -1.0)
    return 0.5 * (1.0 + signs * (1.0 if dot >= 0.0 else -1.0))


def response_value(s, m, lam: float) -> float:
    """Pointwise dichotomic response; independent cross-check for the interval form."""
    return float(_response(float(np.dot(unit_vector(s), unit_vector(m))), lam))


def hv_response(s, m) -> LambdaSet:
    """Closed-form lambda-set {lambda : response = 1}; measure (1 + s.m)/2."""
    sm = float(np.dot(unit_vector(s), unit_vector(m)))
    if sm > 0.0:
        return LambdaSet(((-0.5 * sm, 0.5),))
    if sm < 0.0:
        return LambdaSet(((-0.5, 0.5 * sm),))
    return LambdaSet(((0.0, 0.5),))


def hv_expectation(s, m) -> float:
    return hv_response(s, m).measure


def projector_from_axis(m, name: str = "") -> Projector:
    """P_m = (1 + m.sigma)/2."""
    m = unit_vector(m)
    mat = 0.5 * (np.eye(2, dtype=complex)
                 + m[0] * _SIGMA_X + m[1] * _SIGMA_Y + m[2] * _SIGMA_Z)
    return Projector(mat, name=name or f"P({m[0]:g},{m[1]:g},{m[2]:g})")


def state_from_bloch(s) -> StateVector:
    """Pure qubit state with Bloch vector s (eigenvector of P_s)."""
    rho = projector_from_axis(unit_vector(s)).matrix
    vals, vecs = np.linalg.eigh(rho)
    return StateVector.normalize(vecs[:, int(np.argmax(vals))])


def classical_conditional(s, m, n) -> float:
    """Bayes rule mu[b & a]/mu[a] over the hidden-variable sets."""
    a = hv_response(s, m)
    if a.measure <= MIN_MEASURE:
        raise ZeroProbabilityError(f"conditioning set for m={unit_vector(m).tolist()} has hidden-"
                                   f"variable measure {float(a.measure)!r} <= {MIN_MEASURE!r}")
    return hv_response(s, n).intersection(a).measure / a.measure


def quantum_conditional_qubit(s, m, n) -> float:
    """Quantum conditional P(P_n | P_m) on the state with Bloch vector s."""
    psi = state_from_bloch(s)
    return qcore.conditional_probability(psi, projector_from_axis(m, "P_m"),
                                         projector_from_axis(n, "P_n"))


def compare(s, m, n) -> ConditionalComparison:
    # The classical side runs first: its measure check refuses a near-empty
    # conditioning set before the quantum side divides by it.
    classical = classical_conditional(s, m, n)
    return ConditionalComparison(
        quantum=quantum_conditional_qubit(s, m, n), classical=classical,
        s=unit_vector(s), m=unit_vector(m), n=unit_vector(n),
    )


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    # per-trial sub-seed: identical results whether trials run serially or not
    return np.random.default_rng(np.random.SeedSequence((seed, trial)))


def sample_direction(rng: np.random.Generator) -> np.ndarray:
    """Uniform direction: z ~ U(-1,1), azimuth ~ U(0, 2pi)."""
    z = rng.uniform(-1.0, 1.0)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    r = math.sqrt(max(1.0 - z * z, 0.0))
    return np.array([r * math.cos(phi), r * math.sin(phi), z])


def scan_discrepancy(trials: int, seed: int) -> ScanResult:
    """Seeded random (s, m, n) triples; max discrepancy and a 20-bin histogram."""
    if not 1 <= trials <= MAX_TRIALS:
        raise InvalidParameterError(f"trials must be in [1, {MAX_TRIALS}], got {trials!r}")
    bins = [0] * 20
    best: ConditionalComparison | None = None
    for i in range(trials):
        rng = _trial_rng(seed, i)
        s, m, n = (sample_direction(rng) for _ in range(3))
        cmp = compare(s, m, n)
        bins[min(int(cmp.discrepancy * 20.0), 19)] += 1
        if best is None or cmp.discrepancy > best.discrepancy:
            best = cmp
    return ScanResult(max=best, histogram=tuple(bins))


def malley_search(m, n, trials: int, seed: int) -> MalleyResult:
    """Look for a state s where Bayes and quantum conditionals disagree.

    For non-commuting P_m, P_n (m != +-n) a violating state is found
    quickly; for commuting pairs the search comes up empty.
    """
    m = unit_vector(m)
    n = unit_vector(n)
    worst = 0.0
    for i in range(trials):
        rng = _trial_rng(seed, i)
        s = sample_direction(rng)
        try:
            cmp = compare(s, m, n)
        except ZeroProbabilityError:
            continue  # s opposite m: nothing to condition on
        worst = max(worst, cmp.discrepancy)
        if cmp.discrepancy > 1e-6:
            return MalleyResult(violating_s=s, discrepancy=cmp.discrepancy)
    return MalleyResult(violating_s=None, discrepancy=worst)


def monte_carlo_check(s, m, n, samples: int, seed: int) -> MonteCarloResult:
    """Sample lambda directly through the pointwise response function.

    Independent of the interval arithmetic: membership is decided by the
    sign formula, and the estimate must sit within 5 standard errors of
    the interval-exact conditional.
    """
    if not 100 <= samples <= MAX_SAMPLES:
        raise InvalidParameterError(f"samples must be in [100, {MAX_SAMPLES}], got {samples!r}")
    exact = classical_conditional(s, m, n)
    s = unit_vector(s)
    lam = np.random.default_rng(seed).uniform(-0.5, 0.5, size=samples)
    in_a = _response(float(np.dot(s, unit_vector(m))), lam) == 1.0
    n_a = int(np.count_nonzero(in_a))
    if n_a == 0:
        raise ZeroProbabilityError("no Monte Carlo samples fell in the conditioning set")
    in_b = _response(float(np.dot(s, unit_vector(n))), lam) == 1.0
    estimate = float(np.count_nonzero(in_a & in_b)) / n_a
    se = math.sqrt(exact * (1.0 - exact) / n_a)
    se_guard = se if se > 0.0 else 1.0 / n_a
    z = (estimate - exact) / se_guard
    return MonteCarloResult(classical_estimate=estimate, exact=exact,
                            z_score=z, passed=abs(estimate - exact) <= 5.0 * se_guard)
