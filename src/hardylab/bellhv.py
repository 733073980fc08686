"""Non-contextual hidden-variables model for a single qubit.

A projector along Bloch axis m, evaluated on the pure state with Bloch
vector s, gets the dichotomic response

    A(lambda) = (1/2) [1 + sign(lambda + |s.m|/2) * sign(s.m)]

with lambda uniform on [-1/2, 1/2] and the sign(0) = +1 convention.  The
set {lambda : A(lambda) = 1} is one half-open interval (`LambdaSet`), and
the joint set of two responses is the overlap of their intervals, so
every measure is exact interval arithmetic, never discretization.
The model reproduces every single-projector Born probability; the
classical (Bayes) conditional mu[b & a]/mu[a] is compared against the
quantum conditional <m|P_n|m> to exhibit where it fails.

On the scalar path a Bloch vector is a triple of Python floats (x, y, z):
`unit_vector` validates any 3 components into one, `_direction` draws one,
and `ConditionalComparison` carries three.  `compare` evaluates one triple
by the Born rule on kets and by interval overlap.  It is `_compare_rows` on
one row: that core validates each s, m and n once (`unit_vector`) and runs
on the triples the private cores that the public step functions run after
validating.  Its classical side is interval arithmetic on (lo, hi) float
pairs from `_interval`, the rule that `hv_response` wraps in a `LambdaSet`,
through `_overlap` and `_measure`, the helpers of `LambdaSet.intersection`
and `measure`.  Its quantum side builds no operator: P_m = |m><m| is
rank 1, so P_m P_n P_m = |<n|m>|^2 P_m and P(n|m) = |<n|m>|^2 |<m|s>|^2 /
|<m|s>|^2, on the kets of the three Bloch vectors (`_bloch_ket`, the
formula of `state_from_bloch`), in Python complex arithmetic.  Every
3-vector dot product is a0*b0 + a1*b1 + a2*b2, in that order, on floats
and on rows alike: numpy's dot lets the BLAS kernel of the CPU choose its
order, so its last digit moves with the CPU, and this does not.
Scans evaluate all their rows at once from the closed forms
(`conditional_rows`): the quantum conditional (1 + m.n)/2 and the
overlap of two response intervals.  `_directions` turns a block's draws
into directions in one preallocated component-major array, so that each
component of a block's s, m or n is one contiguous row for the kernel.
A scan draws from one PCG64 stream per seed, in which trial i owns draws
6i..6i+5; PCG64 jumps ahead by n draws in O(log n) steps, so
`_trial_rng(seed, trial)` redraws any one trial alone.  `compare`'s core
is the oracle: one call re-checks the printed maximum and SCAN_RECHECKS
seeded rows of every scan.  Each side of a row must agree with the
oracle's within qcore.bound(1, 2, 1 + 1/measure) (qcore.agree); a
disagreement raises InternalConsistencyError (exit 3 on the command
line).  A scan builds one PCG64 and draws its blocks in stream order,
then the seeded picks, and drops a pick that repeats an earlier one; it
then restores the stream's start state once and redraws the distinct
picked trials in one pass, in ascending order, jumping ahead from each to
the next, through `sample_direction`'s scalar formula (`_direction`).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import qcore
from .errors import InvalidParameterError, ZeroProbabilityError
from .qcore import Projector, StateVector

# An interval end is -s.m/2 or s.m/2, so rounding may put it a little outside
# [-1/2, 1/2]: LambdaSet accepts ends up to RANGE_SLACK outside.
RANGE_SLACK = 1e-15
# unit_vector accepts |v| within _UNIT_SLACK of 1.  For |s|, |m| <= 1 + d, s.m is
# at most 1 + 2d to first order, and rounding |s|, |m| and s.m adds at most about
# 4 eps, so an end s.m/2 lies within d + 2 eps of [-1/2, 1/2]: d = RANGE_SLACK - 2 eps.
_UNIT_SLACK = RANGE_SLACK - 2 * sys.float_info.epsilon
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


def _dot(a, b) -> float:
    """a.b of two float triples as a0*b0 + a1*b1 + a2*b2, in that order, as _row_dots
    takes each row."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _row_dots(a, b):
    """a_i.b_i for each pair of rows of two (..., 3) arrays that broadcast together, as
    a0*b0 + a1*b1 + a2*b2 elementwise: each product and sum is rounded once, in this
    order, so a row is _dot of its vectors' float triples to the bit, on every CPU."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def unit_vector(v) -> tuple[float, float, float]:
    """Validate a Bloch vector, any sequence of 3 real components: each finite, unit norm to
    within _UNIT_SLACK (5.6e-16), so the response intervals of any two accepted vectors
    lie within RANGE_SLACK of [-1/2, 1/2].  Return its components as Python floats."""
    try:
        # no components for text, which float() would read character by character
        x, y, z = map(float, () if isinstance(v, str) else v)
    except (TypeError, ValueError) as exc:
        raise InvalidParameterError(f"Bloch vector must have 3 real components, got {v!r}") from exc
    norm = math.sqrt(x * x + y * y + z * z)  # _dot's order
    # `not <=`: a NaN component makes the norm NaN, which must fail too
    if not abs(norm - 1.0) <= _UNIT_SLACK:
        raise InvalidParameterError(
            f"Bloch vector {[x, y, z]} must be finite with unit length, |v| = {norm!r}")
    return x, y, z


def _check_interval(lo: float, hi: float) -> None:
    """Raise unless [lo, hi) is empty or lies within RANGE_SLACK of [-1/2, 1/2]."""
    if hi > lo and (lo < -0.5 - RANGE_SLACK or hi > 0.5 + RANGE_SLACK):
        raise InvalidParameterError(f"interval [{lo}, {hi}) outside [-1/2, 1/2]")


def _measure(lo: float, hi: float) -> float:
    """Measure of [lo, hi): 0 where empty."""
    return max(hi - lo, 0.0)


def _overlap(lo: float, hi: float, other_lo: float, other_hi: float) -> tuple[float, float]:
    """Ends of the overlap of [lo, hi) and [other_lo, other_hi)."""
    return max(lo, other_lo), min(hi, other_hi)


@dataclass(frozen=True)
class LambdaSet:
    """One half-open interval [lo, hi) inside [-1/2, 1/2]; empty where hi <= lo."""

    lo: float
    hi: float

    def __post_init__(self):
        _check_interval(self.lo, self.hi)

    @property
    def measure(self) -> float:
        return _measure(self.lo, self.hi)

    def intersection(self, other: "LambdaSet") -> "LambdaSet":
        return LambdaSet(*_overlap(self.lo, self.hi, other.lo, other.hi))


@dataclass(frozen=True)
class ConditionalComparison:
    quantum: float
    classical: float
    s: tuple[float, float, float]
    m: tuple[float, float, float]
    n: tuple[float, float, float]

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
    return float(_response(_dot(unit_vector(s), unit_vector(m)), lam))


# Each step below has one implementation, a private core on validated
# vectors; the public function of the same step validates, then calls it.

def _interval(sm: float) -> tuple[float, float]:
    """Ends (lo, hi) of {lambda : response = 1} for s.m = sm, checked as LambdaSet
    checks its ends."""
    if sm > 0.0:
        lo, hi = -0.5 * sm, 0.5
    elif sm < 0.0:
        lo, hi = -0.5, 0.5 * sm
    else:
        lo, hi = 0.0, 0.5
    _check_interval(lo, hi)
    return lo, hi


def hv_response(s, m) -> LambdaSet:
    """Closed-form lambda-set {lambda : response = 1}; measure (1 + s.m)/2."""
    return LambdaSet(*_interval(_dot(unit_vector(s), unit_vector(m))))


def hv_expectation(s, m) -> float:
    return hv_response(s, m).measure


def _axis_matrix(m: np.ndarray) -> np.ndarray:
    """(..., 3) axes to (..., 2, 2) matrices [[1 + z, x - iy], [x + iy, 1 - z]]/2.

    Real and imaginary parts are set apart, as complex(x, -y) does: x - 1j*y
    would lose the sign of a zero y."""
    x, y, z = np.moveaxis(m, -1, 0)
    mat = np.zeros(m.shape[:-1] + (2, 2), dtype=complex)
    mat.real[..., 0, 0] = 1.0 + z
    mat.real[..., 1, 1] = 1.0 - z
    mat.real[..., 0, 1] = mat.real[..., 1, 0] = x
    mat.imag[..., 0, 1] = -y
    mat.imag[..., 1, 0] = y
    return 0.5 * mat


def projector_from_axis(m, name: str = "") -> Projector:
    """P_m = (1 + m.sigma)/2 = [[1 + z, x - iy], [x + iy, 1 - z]]/2."""
    m = unit_vector(m)
    return Projector(_axis_matrix(np.array(m)), name=name or "P({:g},{:g},{:g})".format(*m))


def _bloch_ket(s) -> tuple[complex, complex]:
    """The ket of Bloch vector s = (x, y, z), three floats: (a, (x + iy)/(2a)) with
    a = sqrt((1 + z)/2) for z >= 0, else the same ray ((x - iy)/(2b), b) with
    b = sqrt((1 - z)/2).  The divisor is at least sqrt(1/2), so nothing cancels."""
    x, y, z = s
    if z >= 0.0:
        a = math.sqrt((1.0 + z) / 2.0)
        return complex(a), complex(x, y) / (2.0 * a)
    b = math.sqrt((1.0 - z) / 2.0)
    return complex(x, -y) / (2.0 * b), complex(b)


def state_from_bloch(s) -> StateVector:
    """Pure qubit state with Bloch vector s, the ket of _bloch_ket."""
    return StateVector(np.array(_bloch_ket(unit_vector(s))))


# The cores below take s, m and n as triples of Python floats.

def _empty_conditioning(m, measure: float) -> ZeroProbabilityError:
    return ZeroProbabilityError(f"conditioning set for m={list(m)} has hidden-"
                                f"variable measure {float(measure)!r} <= {MIN_MEASURE!r}")


def _classical(s, m, n) -> float:
    """Bayes rule mu[b & a]/mu[a]: the overlap of the response intervals over a's measure,
    as LambdaSet computes b.intersection(a).measure / a.measure."""
    a = _interval(_dot(s, m))
    measure = _measure(*a)
    if measure <= MIN_MEASURE:
        raise _empty_conditioning(m, measure)
    return _measure(*_overlap(*_interval(_dot(s, n)), *a)) / measure


def _quantum(s, m, n) -> float:
    """P(n|m) on the state of s by the Born rule on kets, in dimension 2: P(m) =
    |<m|s>|^2 by qcore.conditioning, then |<n|m>|^2 |<m|s>|^2 / P(m) by qcore.conditional."""
    ket_s, ket_m = _bloch_ket(s), _bloch_ket(m)
    raw = qcore.overlap(ket_m, ket_s)
    p_m = qcore.conditioning(raw, "P_m", 2)
    return qcore.conditional(qcore.overlap(_bloch_ket(n), ket_m) * raw, p_m, "P_n", "P_m", 2)


def _compare_rows(triples) -> list[ConditionalComparison]:
    """`compare` on each (s, m, n) of `triples`, each vector validated once."""
    rows = [(unit_vector(s), unit_vector(m), unit_vector(n)) for s, m, n in triples]
    # The classical sides run first: their measure check refuses a near-empty
    # conditioning set before the quantum side divides by it.
    classical = [_classical(*row) for row in rows]
    return [ConditionalComparison(quantum=_quantum(s, m, n), classical=c, s=s, m=m, n=n)
            for (s, m, n), c in zip(rows, classical)]


def compare(s, m, n) -> ConditionalComparison:
    return _compare_rows([(s, m, n)])[0]


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    """The seed's PCG64 stream, moved on to the first of trial `trial`'s draws.

    Trial 0 starts the stream, so `_trial_rng(seed, 0)` draws as
    default_rng(seed) does.
    """
    stream = np.random.PCG64(np.random.SeedSequence(seed))
    return np.random.Generator(stream.advance(TRIAL_DRAWS * trial))


def sample_direction(rng: np.random.Generator) -> np.ndarray:
    """Uniform direction: z ~ U(-1,1), azimuth ~ U(0, 2pi).

    Both from one random(2) call: uniform(lo, hi) is lo + (hi - lo) * random(),
    so this draws the same bits as uniform(-1, 1) and then uniform(0, 2pi)."""
    return np.array(_direction(*rng.random(2).tolist()))


def _direction(u_z: float, u_phi: float) -> tuple[float, float, float]:
    """The direction of the uniform draws u_z (for z) and u_phi (for the azimuth)."""
    z = -1.0 + 2.0 * u_z
    phi = 2.0 * math.pi * u_phi
    r = math.sqrt(max(1.0 - z * z, 0.0))
    return r * math.cos(phi), r * math.sin(phi), z


def _blocks(trials: int):
    """range(trials) as consecutive ranges of at most SCAN_CHUNK trials."""
    return (range(start, min(start + SCAN_CHUNK, trials))
            for start in range(0, trials, SCAN_CHUNK))


def _directions(u: np.ndarray) -> np.ndarray:
    """(k, 3, 3) directions from (k, TRIAL_DRAWS) uniform draws, bit for bit the
    3 sample_direction calls on each row's draws: uniform(lo, hi) is
    lo + (hi - lo) * random(), so the same doubles give the same directions.

    The result is a (trial, vector, component) view of one (3, 3, k) array, written
    in place: each component of each vector is a contiguous row of k values."""
    out = np.empty((3, 3, len(u)))
    x, y, z = out
    np.multiply(u[:, 0::2].T, 2.0, out=z)
    z += -1.0
    phi = np.multiply(u[:, 1::2].T, 2.0 * math.pi)
    # r = sqrt(max(1 - z*z, 0)), in x
    np.multiply(z, z, out=x)
    np.subtract(1.0, x, out=x)
    np.maximum(x, 0.0, out=x)
    np.sqrt(x, out=x)
    np.multiply(x, np.sin(phi), out=y)
    x *= np.cos(phi, out=phi)
    return out.transpose(2, 1, 0)


def _interval_ends(dot):
    """_interval over arrays: ends [lo, hi) of {lambda : response = 1} for s.m = dot.

    lo is 0.0 - dot/2, not -dot/2, so that s.m = +0.0 gives lo = +0.0, as in _interval."""
    half = 0.5 * dot
    negative = dot < 0.0
    return np.where(negative, -0.5, 0.0 - half), np.where(negative, half, 0.5)


def conditional_rows(s, m, n) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form (quantum, classical, measure) for rows of Bloch vectors.

    s, m and n are (..., 3) arrays that broadcast against each other.
    quantum is (1 + m.n)/2, the rank-1 conditional on any state; classical
    is the overlap of the two response intervals over the measure
    (1 + s.m)/2 of the conditioning one.  Where measure <= MIN_MEASURE the
    classical value means nothing: callers refuse or skip those rows.
    Each array is returned as computed, not broadcast to a common shape:
    quantum has the shape of m.n, classical that of s.m and s.n together, and
    measure that of s.m.  Every caller passes rows of one shape.
    """
    a_lo, a_hi = _interval_ends(_row_dots(s, m))
    b_lo, b_hi = _interval_ends(_row_dots(s, n))
    measure = a_hi - a_lo
    overlap = np.maximum(np.minimum(a_hi, b_hi) - np.maximum(a_lo, b_lo), 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        classical = overlap / measure
    return (1.0 + _row_dots(m, n)) / 2.0, classical, measure


def _rechecked(rows: list[int], triples, quantum: list[float], classical: list[float],
               measure: list[float]) -> list[ConditionalComparison]:
    """`compare`'s core on closed-form rows `rows`, drawn again as `triples`, in one call;
    raise unless both sides of each agree within qcore.bound(1, 2, 1 + 1/measure), as the
    Bayes ratio scales the rounding of s.m by 1/measure.  A NaN on either side fails."""
    checked = _compare_rows(triples)
    for row, cmp, q, c, mu in zip(rows, checked, quantum, classical, measure):
        tol = qcore.bound(1.0, 2, 1.0 + 1.0 / mu)
        # agree builds its messages, only for a row that fails
        if not (abs(q - cmp.quantum) <= tol and abs(c - cmp.classical) <= tol):
            qcore.agree(q, cmp.quantum, tol, f"closed-form row {row} quantum vs compare")
            qcore.agree(c, cmp.classical, tol, f"closed-form row {row} classical vs compare")
    return checked


def _redraw(rng: np.random.Generator, trials: list[int]) -> list[tuple[tuple[float, ...], ...]]:
    """The (s, m, n) of each of the distinct `trials`, in that order, from `rng` standing
    at the first draw of trial 0: the trials are drawn in ascending order, each after a
    jump over the trials before it, and their draws become directions by `_direction`."""
    drawn, at = {}, 0
    for trial in sorted(trials):
        rng.bit_generator.advance(TRIAL_DRAWS * (trial - at))
        u = rng.random(TRIAL_DRAWS).tolist()
        drawn[trial] = (_direction(u[0], u[1]), _direction(u[2], u[3]), _direction(u[4], u[5]))
        at = trial + 1
    return [drawn[trial] for trial in trials]


def scan_discrepancy(trials: int, seed: int) -> ScanResult:
    """Seeded random (s, m, n) triples; max discrepancy and a 20-bin histogram.

    Rows come from `conditional_rows`, SCAN_CHUNK trials at a time, each block's
    copied into the scan's three preallocated arrays.  `compare`'s core
    re-checks the maximum row, whose values it reports, and SCAN_RECHECKS rows
    drawn from the stream after the last trial, each distinct row once, all in
    one call.  One PCG64 serves the scan: the blocks draw from it in stream
    order, which leaves it at the draws after the last trial, and the re-checked
    rows are redrawn from its start state, restored once.
    """
    if not 1 <= trials <= MAX_TRIALS:
        raise InvalidParameterError(f"trials must be in [1, {MAX_TRIALS}], got {trials!r}")
    rng = _trial_rng(seed, 0)
    start = rng.bit_generator.state

    quantum, classical, measure = np.empty((3, trials))
    for block in _blocks(trials):
        s, m, n = _directions(rng.random((len(block), TRIAL_DRAWS))).transpose(1, 0, 2)
        rows = conditional_rows(s, m, n)
        empty = np.flatnonzero(rows[2] <= MIN_MEASURE)
        if empty.size:
            raise _empty_conditioning(m[empty[0]].tolist(), rows[2][empty[0]])
        at = slice(block.start, block.stop)
        quantum[at], classical[at], measure[at] = rows
    discrepancy = quantum - classical
    np.abs(discrepancy, out=discrepancy)
    index = (discrepancy * 20.0).astype(np.intp)
    bins = np.bincount(np.minimum(index, 19, out=index), minlength=20)

    # the first maximum, as a running `>` keeps, then the seeded rows; each trial once
    picked = list(dict.fromkeys(
        [int(np.argmax(discrepancy)), *rng.integers(trials, size=SCAN_RECHECKS).tolist()]))
    rng.bit_generator.state = start
    best = _rechecked(picked, _redraw(rng, picked), quantum[picked].tolist(),
                      classical[picked].tolist(), measure[picked].tolist())[0]
    return ScanResult(max=best, histogram=tuple(bins.tolist()))


def monte_carlo_check(s, m, n, samples: int, seed: int) -> MonteCarloResult:
    """Sample lambda directly through the pointwise response function.

    Independent of the interval arithmetic: membership is decided by the
    sign formula, and the estimate must sit within 5 standard errors of
    the interval-exact conditional.
    """
    if not 100 <= samples <= MAX_SAMPLES:
        raise InvalidParameterError(f"samples must be in [100, {MAX_SAMPLES}], got {samples!r}")
    s, m, n = map(unit_vector, (s, m, n))
    exact = _classical(s, m, n)
    lam = np.random.default_rng(seed).uniform(-0.5, 0.5, size=samples)
    in_a = _response(_dot(s, m), lam) == 1.0
    n_a = int(np.count_nonzero(in_a))
    if n_a == 0:
        raise ZeroProbabilityError("no Monte Carlo samples fell in the conditioning set")
    in_b = _response(_dot(s, n), lam) == 1.0
    estimate = float(np.count_nonzero(in_a & in_b)) / n_a
    se = math.sqrt(exact * (1.0 - exact) / n_a)
    se_guard = se if se > 0.0 else 1.0 / n_a
    z = (estimate - exact) / se_guard
    return MonteCarloResult(classical_estimate=estimate, exact=exact,
                            z_score=z, passed=abs(estimate - exact) <= 5.0 * se_guard)
