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

`compare` evaluates one triple through the matrix pipeline and
`LambdaSet` overlap, on the closed-form ket of the Bloch vector
(`state_from_bloch`).  It is `_compare_rows` on one row: that core
validates each s, m and n once, runs the private cores that the public
step functions run after validating, and validates the projectors P_m
and P_n of all its rows as one stack.
Scans evaluate all their rows at once from the closed forms
(`conditional_rows`): the quantum conditional (1 + m.n)/2 and the
overlap of two response intervals.  A scan draws from one PCG64 stream
per seed, in which trial i owns draws 6i..6i+5; PCG64 jumps ahead by n
draws in O(log n) steps, so `_trial_rng(seed, trial)` redraws any one
trial alone.  `compare`'s core is the oracle: one call re-checks the
printed maximum and SCAN_RECHECKS seeded rows of every scan, a (5, 3, 3)
stack of redrawn triples whose ten projectors are validated as one
stack.  Each side of a row must agree with the oracle's within
qcore.bound(1, 2, 1 + 1/measure) (qcore.agree); a disagreement raises
InternalConsistencyError (exit 3 on the command line).  A scan builds
one PCG64: each block of rows and each re-checked row restores its start
state and jumps ahead to its trial.
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


def unit_vector(v) -> np.ndarray:
    """Validate a Bloch vector: 3 finite real components, unit norm to within
    _UNIT_SLACK (5.6e-16), so the response intervals of any two accepted vectors
    lie within RANGE_SLACK of [-1/2, 1/2]."""
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise InvalidParameterError(f"Bloch vector must have 3 components, got shape {v.shape}")
    norm = math.sqrt(v.dot(v))  # what np.linalg.norm computes for a real 1-d array
    # `not <=`: a NaN component makes the norm NaN, which must fail too
    if not abs(norm - 1.0) <= _UNIT_SLACK:
        raise InvalidParameterError(
            f"Bloch vector {v.tolist()} must be finite with unit length, |v| = {norm!r}")
    return v


@dataclass(frozen=True)
class LambdaSet:
    """One half-open interval [lo, hi) inside [-1/2, 1/2]; empty where hi <= lo."""

    lo: float
    hi: float

    def __post_init__(self):
        if self.hi > self.lo and (self.lo < -0.5 - RANGE_SLACK or self.hi > 0.5 + RANGE_SLACK):
            raise InvalidParameterError(f"interval [{self.lo}, {self.hi}) outside [-1/2, 1/2]")

    @property
    def measure(self) -> float:
        return max(self.hi - self.lo, 0.0)

    def intersection(self, other: "LambdaSet") -> "LambdaSet":
        return LambdaSet(max(self.lo, other.lo), min(self.hi, other.hi))


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
            "s": self.s.tolist(), "m": self.m.tolist(), "n": self.n.tolist(),
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
    return float(_response(float(np.dot(unit_vector(s), unit_vector(m))), lam))


# Each step below has one implementation, a private core on validated
# vectors; the public function of the same step validates, then calls it.

def _response_set(sm: float) -> LambdaSet:
    """{lambda : response = 1} for s.m = sm."""
    if sm > 0.0:
        return LambdaSet(-0.5 * sm, 0.5)
    if sm < 0.0:
        return LambdaSet(-0.5, 0.5 * sm)
    return LambdaSet(0.0, 0.5)


def hv_response(s, m) -> LambdaSet:
    """Closed-form lambda-set {lambda : response = 1}; measure (1 + s.m)/2."""
    return _response_set(float(np.dot(unit_vector(s), unit_vector(m))))


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
    return Projector(_axis_matrix(m), name=name or "P({:g},{:g},{:g})".format(*m.tolist()))


def _bloch_state(s: np.ndarray) -> StateVector:
    x, y, z = s.tolist()
    if z >= 0.0:
        a = math.sqrt((1.0 + z) / 2.0)
        return StateVector(np.array([a, complex(x, y) / (2.0 * a)]))
    b = math.sqrt((1.0 - z) / 2.0)
    return StateVector(np.array([complex(x, -y) / (2.0 * b), b]))


def state_from_bloch(s) -> StateVector:
    """Pure qubit state with Bloch vector s = (x, y, z): (a, (x + iy)/(2a)) with
    a = sqrt((1 + z)/2) for z >= 0, else the same ray ((x - iy)/(2b), b) with
    b = sqrt((1 - z)/2).  The divisor is at least sqrt(1/2), so nothing cancels."""
    return _bloch_state(unit_vector(s))


def _empty_conditioning(m: np.ndarray, measure: float) -> ZeroProbabilityError:
    return ZeroProbabilityError(f"conditioning set for m={m.tolist()} has hidden-"
                                f"variable measure {float(measure)!r} <= {MIN_MEASURE!r}")


def _classical(s: np.ndarray, m: np.ndarray, n: np.ndarray) -> float:
    """Bayes rule mu[b & a]/mu[a]: the overlap of the response intervals over a's measure."""
    a = _response_set(float(np.dot(s, m)))
    if a.measure <= MIN_MEASURE:
        raise _empty_conditioning(m, a.measure)
    return _response_set(float(np.dot(s, n))).intersection(a).measure / a.measure


def _compare_rows(triples) -> list[ConditionalComparison]:
    """`compare` on each (s, m, n) of `triples`, each vector validated once; the
    2k projectors P_m, P_n of the k rows are validated as one stack."""
    rows = [(unit_vector(s), unit_vector(m), unit_vector(n)) for s, m, n in triples]
    # The classical sides run first: their measure check refuses a near-empty
    # conditioning set before the quantum side divides by it.
    classical = [_classical(*row) for row in rows]
    family = qcore.projectors(_axis_matrix(np.array([v for _, m, n in rows for v in (m, n)])),
                              ("P_m", "P_n") * len(rows))
    return [ConditionalComparison(quantum=qcore.conditional_probability(_bloch_state(s), p_m, p_n),
                                  classical=c, s=s, m=m, n=n)
            for (s, m, n), c, p_m, p_n in zip(rows, classical, family[0::2], family[1::2])]


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
    u_z, u_phi = rng.random(2).tolist()
    z = -1.0 + 2.0 * u_z
    phi = 2.0 * math.pi * u_phi
    r = math.sqrt(max(1.0 - z * z, 0.0))
    return np.array([r * math.cos(phi), r * math.sin(phi), z])


def _blocks(trials: int):
    """range(trials) as consecutive ranges of at most SCAN_CHUNK trials."""
    return (range(start, min(start + SCAN_CHUNK, trials))
            for start in range(0, trials, SCAN_CHUNK))


def _directions(u: np.ndarray) -> np.ndarray:
    """(k, 3, 3) directions from (k, TRIAL_DRAWS) uniform draws, bit for bit the
    3 sample_direction calls on each row's draws: uniform(lo, hi) is
    lo + (hi - lo) * random(), so the same doubles give the same directions."""
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


def _rechecked(rows: list[int], triples, quantum: list[float], classical: list[float],
               measure: list[float]) -> list[ConditionalComparison]:
    """`compare`'s core on closed-form rows `rows`, drawn again as `triples`, in one call;
    raise unless both sides of each agree within qcore.bound(1, 2, 1 + 1/measure), as the
    Bayes ratio scales the rounding of s.m by 1/measure.  A NaN on either side fails."""
    checked = _compare_rows(triples)
    for row, cmp, q, c, mu in zip(rows, checked, quantum, classical, measure):
        tol = qcore.bound(1.0, 2, 1.0 + 1.0 / mu)
        qcore.agree(q, cmp.quantum, tol, f"closed-form row {row} quantum vs compare")
        qcore.agree(c, cmp.classical, tol, f"closed-form row {row} classical vs compare")
    return checked


def scan_discrepancy(trials: int, seed: int) -> ScanResult:
    """Seeded random (s, m, n) triples; max discrepancy and a 20-bin histogram.

    Rows come from `conditional_rows`, SCAN_CHUNK trials at a time.  `compare`'s
    core re-checks the maximum row, whose values it reports, and SCAN_RECHECKS
    rows drawn from the stream after the last trial, all five in one call.  One
    PCG64 serves the scan: each block and each re-checked row restores its start
    state and jumps ahead to the trial it needs.
    """
    if not 1 <= trials <= MAX_TRIALS:
        raise InvalidParameterError(f"trials must be in [1, {MAX_TRIALS}], got {trials!r}")
    rng = _trial_rng(seed, 0)
    stream, start = rng.bit_generator, rng.bit_generator.state

    def at_trial(trial: int) -> np.random.Generator:
        """`rng`, moved to the first of trial `trial`'s draws, as _trial_rng(seed, trial)."""
        stream.state = start
        stream.advance(TRIAL_DRAWS * trial)
        return rng

    quantum, classical, measure = np.empty((3, trials))
    for block in _blocks(trials):
        u = at_trial(block.start).random((len(block), TRIAL_DRAWS))
        s, m, n = _directions(u).transpose(1, 0, 2)
        rows = slice(block.start, block.stop)
        quantum[rows], classical[rows], measure[rows] = conditional_rows(s, m, n)
        empty = np.flatnonzero(measure[rows] <= MIN_MEASURE)
        if empty.size:
            raise _empty_conditioning(m[empty[0]], measure[rows][empty[0]])
    discrepancy = np.abs(quantum - classical)
    bins = np.bincount(np.minimum((discrepancy * 20.0).astype(np.intp), 19), minlength=20)

    # the first maximum, as a running `>` keeps, then the seeded rows
    picked = [int(np.argmax(discrepancy))] + at_trial(trials).integers(
        trials, size=SCAN_RECHECKS).tolist()
    triples = _directions(np.array([at_trial(i).random(TRIAL_DRAWS) for i in picked]))
    best = _rechecked(picked, triples, quantum[picked].tolist(), classical[picked].tolist(),
                      measure[picked].tolist())[0]
    return ScanResult(max=best, histogram=tuple(bins.tolist()))


def monte_carlo_check(s, m, n, samples: int, seed: int) -> MonteCarloResult:
    """Sample lambda directly through the pointwise response function.

    Independent of the interval arithmetic: membership is decided by the
    sign formula, and the estimate must sit within 5 standard errors of
    the interval-exact conditional.
    """
    if not 100 <= samples <= MAX_SAMPLES:
        raise InvalidParameterError(f"samples must be in [100, {MAX_SAMPLES}], got {samples!r}")
    s, m, n = unit_vector(s), unit_vector(m), unit_vector(n)
    exact = _classical(s, m, n)
    lam = np.random.default_rng(seed).uniform(-0.5, 0.5, size=samples)
    in_a = _response(float(np.dot(s, m)), lam) == 1.0
    n_a = int(np.count_nonzero(in_a))
    if n_a == 0:
        raise ZeroProbabilityError("no Monte Carlo samples fell in the conditioning set")
    in_b = _response(float(np.dot(s, n)), lam) == 1.0
    estimate = float(np.count_nonzero(in_a & in_b)) / n_a
    se = math.sqrt(exact * (1.0 - exact) / n_a)
    se_guard = se if se > 0.0 else 1.0 / n_a
    z = (estimate - exact) / se_guard
    return MonteCarloResult(classical_estimate=estimate, exact=exact,
                            z_score=z, passed=abs(estimate - exact) <= 5.0 * se_guard)
