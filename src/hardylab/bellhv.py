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

`compare` evaluates one triple through the matrix pipeline and
`LambdaSet` arithmetic, on the closed-form ket of the Bloch vector
(`state_from_bloch`).  Scans evaluate all their rows at once from the
closed forms (`conditional_rows`): the quantum conditional (1 + m.n)/2
and the overlap of two response intervals.  A scan draws from one PCG64
stream per seed, in which trial i owns draws 6i..6i+5; PCG64 jumps ahead
by n draws in O(log n) steps, so `_trial_rng(seed, trial)` redraws any
one trial alone.  Scalar `compare` is the oracle: it re-checks the
printed maximum and SCAN_RECHECKS seeded rows of every scan, each from
its own redrawn trial, and a disagreement raises
InternalConsistencyError (exit 3 on the command line).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qcore
from .errors import InternalConsistencyError, InvalidParameterError, ZeroProbabilityError
from .qcore import Projector, StateVector

UNIT_TOL = 1e-12
# Interval ends are exact to rounding, about 1e-16, so a conditioning set of
# measure (1 + s.m)/2 at or below this counts as empty, on both sides.
MIN_MEASURE = 1e-14
# Largest scan and Monte Carlo sizes accepted, checked before any work.
MAX_TRIALS = 1_000_000
MAX_SAMPLES = 10_000_000
# Trials per block of closed-form rows: bounds a scan's working arrays.
SCAN_CHUNK = 1 << 14
# Seeded rows of each scan that scalar `compare` re-checks, besides the maximum.
SCAN_RECHECKS = 4

# Draws of a scan's stream that each trial owns: z and azimuth of s, m and n.
TRIAL_DRAWS = 6

X_HAT = np.array([1.0, 0.0, 0.0])
Y_HAT = np.array([0.0, 1.0, 0.0])
Z_HAT = np.array([0.0, 0.0, 1.0])


def unit_vector(v) -> np.ndarray:
    """Validate a Bloch vector: 3 finite real components, unit norm."""
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise InvalidParameterError(f"Bloch vector must have 3 components, got shape {v.shape}")
    norm = float(np.linalg.norm(v))
    # `not <=`: a NaN component makes the norm NaN, which must fail too
    if not abs(norm - 1.0) <= UNIT_TOL:
        raise InvalidParameterError(
            f"Bloch vector {v.tolist()} must be finite with unit length, |v| = {norm!r}")
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
    """P_m = (1 + m.sigma)/2 = [[1 + z, x - iy], [x + iy, 1 - z]]/2."""
    x, y, z = unit_vector(m).tolist()
    mat = 0.5 * np.array([[1.0 + z, complex(x, -y)], [complex(x, y), 1.0 - z]])
    return Projector(mat, name=name or f"P({x:g},{y:g},{z:g})")


def state_from_bloch(s) -> StateVector:
    """Pure qubit state with Bloch vector s = (x, y, z): (a, (x + iy)/(2a)) with
    a = sqrt((1 + z)/2) for z >= 0, else the same ray ((x - iy)/(2b), b) with
    b = sqrt((1 - z)/2).  The divisor is at least sqrt(1/2), so nothing cancels."""
    x, y, z = unit_vector(s).tolist()
    if z >= 0.0:
        a = math.sqrt((1.0 + z) / 2.0)
        return StateVector(np.array([a, complex(x, y) / (2.0 * a)]))
    b = math.sqrt((1.0 - z) / 2.0)
    return StateVector(np.array([complex(x, -y) / (2.0 * b), b]))


def _empty_conditioning(m, measure: float) -> ZeroProbabilityError:
    return ZeroProbabilityError(f"conditioning set for m={unit_vector(m).tolist()} has hidden-"
                                f"variable measure {float(measure)!r} <= {MIN_MEASURE!r}")


def classical_conditional(s, m, n) -> float:
    """Bayes rule mu[b & a]/mu[a] over the hidden-variable sets."""
    a = hv_response(s, m)
    if a.measure <= MIN_MEASURE:
        raise _empty_conditioning(m, a.measure)
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
    """The seed's PCG64 stream, moved on to the first of trial `trial`'s draws.

    Trial 0 starts the stream, so `_trial_rng(seed, 0)` draws as
    default_rng(seed) does.
    """
    stream = np.random.PCG64(np.random.SeedSequence(seed))
    return np.random.Generator(stream.advance(TRIAL_DRAWS * trial))


def sample_direction(rng: np.random.Generator) -> np.ndarray:
    """Uniform direction: z ~ U(-1,1), azimuth ~ U(0, 2pi)."""
    z = rng.uniform(-1.0, 1.0)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    r = math.sqrt(max(1.0 - z * z, 0.0))
    return np.array([r * math.cos(phi), r * math.sin(phi), z])


def _trial_draws(seed: int, trial: int, count: int) -> list[np.ndarray]:
    """The first `count` sample_direction draws of one trial's stream."""
    rng = _trial_rng(seed, trial)
    return [sample_direction(rng) for _ in range(count)]


def _blocks(trials: int):
    """range(trials) as consecutive ranges of at most SCAN_CHUNK trials."""
    return (range(start, min(start + SCAN_CHUNK, trials))
            for start in range(0, trials, SCAN_CHUNK))


def _trial_directions(seed: int, trials: range, count: int) -> np.ndarray:
    """(len(trials), count, 3): _trial_draws for each trial, bit for bit.

    `trials` is consecutive, so its draws are one stretch of the stream.
    uniform(lo, hi) is lo + (hi - lo) * random(), so each trial's first
    2 * count doubles give the same directions as `count` sample_direction calls.
    """
    u = _trial_rng(seed, trials.start).random((len(trials), TRIAL_DRAWS))[:, :2 * count]
    z = -1.0 + 2.0 * u[:, 0::2]
    phi = 2.0 * math.pi * u[:, 1::2]
    r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    return np.stack((r * np.cos(phi), r * np.sin(phi), z), axis=-1)


def _dots(a, b) -> np.ndarray:
    """Row-wise dot products of (..., 3) arrays.

    matmul, not einsum: with numpy 2.4 on OpenBLAS it rounds each row as
    np.dot does in hv_response (einsum differed on 1,332 of 3,000 rows), so
    the classical side matched `compare` to the bit.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _interval_ends(dot):
    """hv_response over arrays: ends [lo, hi) of {lambda : response = 1} for s.m = dot."""
    lo = np.where(dot > 0.0, -0.5 * dot, np.where(dot < 0.0, -0.5, 0.0))
    hi = np.where(dot < 0.0, 0.5 * dot, 0.5)
    return lo, hi


def conditional_rows(s, m, n) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form (quantum, classical, measure) for rows of Bloch vectors.

    s, m and n are (..., 3) arrays that broadcast against each other.
    quantum is (1 + m.n)/2, the rank-1 conditional on any state; classical
    is the overlap of the two response intervals over the measure
    (1 + s.m)/2 of the conditioning one.  Where measure <= MIN_MEASURE the
    classical value means nothing: callers refuse or skip those rows.
    """
    a_lo, a_hi = _interval_ends(_dots(s, m))
    b_lo, b_hi = _interval_ends(_dots(s, n))
    measure = a_hi - a_lo
    overlap = np.maximum(np.minimum(a_hi, b_hi) - np.maximum(a_lo, b_lo), 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        classical = overlap / measure
    return tuple(np.broadcast_arrays((1.0 + _dots(m, n)) / 2.0, classical, measure))


def _rechecked(triple, quantum: float, classical: float, measure: float) -> ConditionalComparison:
    """Scalar `compare` on one closed-form row; raise unless both sides agree within
    qcore.bound(1, 2, 1 + 1/measure), as the Bayes ratio scales the rounding of s.m
    by 1/measure.  A NaN on either side fails."""
    cmp = compare(*triple)
    tol = qcore.bound(1.0, 2, 1.0 + 1.0 / measure)
    if not (abs(cmp.quantum - quantum) <= tol and abs(cmp.classical - classical) <= tol):
        raise InternalConsistencyError(
            f"closed-form row (quantum {float(quantum)!r}, classical {float(classical)!r}) "
            f"disagrees with compare (quantum {cmp.quantum!r}, classical {cmp.classical!r}) "
            f"at s={cmp.s.tolist()}, m={cmp.m.tolist()}, n={cmp.n.tolist()}")
    return cmp


def scan_discrepancy(trials: int, seed: int) -> ScanResult:
    """Seeded random (s, m, n) triples; max discrepancy and a 20-bin histogram.

    Rows come from `conditional_rows`, SCAN_CHUNK trials at a time.  Scalar
    `compare` re-checks the maximum row, whose values it reports, and
    SCAN_RECHECKS rows drawn from the stream after the last trial.
    """
    if not 1 <= trials <= MAX_TRIALS:
        raise InvalidParameterError(f"trials must be in [1, {MAX_TRIALS}], got {trials!r}")
    quantum, classical, measure = np.empty((3, trials))
    for block in _blocks(trials):
        s, m, n = _trial_directions(seed, block, 3).transpose(1, 0, 2)
        rows = slice(block.start, block.stop)
        quantum[rows], classical[rows], measure[rows] = conditional_rows(s, m, n)
        empty = np.flatnonzero(measure[rows] <= MIN_MEASURE)
        if empty.size:
            raise _empty_conditioning(m[empty[0]], measure[rows][empty[0]])
    discrepancy = np.abs(quantum - classical)
    bins = np.bincount(np.minimum((discrepancy * 20.0).astype(np.intp), 19), minlength=20)

    def recheck(i: int) -> ConditionalComparison:
        return _rechecked(_trial_draws(seed, i, 3), quantum[i], classical[i], measure[i])

    best = recheck(int(np.argmax(discrepancy)))  # the first maximum, as a running `>` keeps
    for i in _trial_rng(seed, trials).integers(trials, size=SCAN_RECHECKS):
        recheck(int(i))
    return ScanResult(max=best, histogram=tuple(int(b) for b in bins))


def malley_search(m, n, trials: int, seed: int) -> MalleyResult:
    """Look for a state s where Bayes and quantum conditionals disagree.

    For non-commuting P_m, P_n (m != +-n) a violating state is found
    quickly; for commuting pairs the search comes up empty.  Rows come
    from `conditional_rows`; scalar `compare` confirms the one returned.
    """
    m = unit_vector(m)
    n = unit_vector(n)
    worst = 0.0
    for block in _blocks(trials):
        s = _trial_directions(seed, block, 1)[:, 0]
        quantum, classical, measure = conditional_rows(s, m, n)
        # s opposite m: nothing to condition on
        discrepancy = np.where(measure > MIN_MEASURE, np.abs(quantum - classical), 0.0)
        hits = np.flatnonzero(discrepancy > 1e-6)
        if hits.size:
            j = hits[0]
            cmp = _rechecked(_trial_draws(seed, block[j], 1) + [m, n],
                             quantum[j], classical[j], measure[j])
            return MalleyResult(violating_s=cmp.s, discrepancy=cmp.discrepancy)
        worst = max(worst, float(discrepancy.max()))
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
