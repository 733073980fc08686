"""Two-particle interferometer scenario in a 5-dimensional space.

Basis ordering: [gamma, u+u-, u+v-, v+u-, v+v-].  The gamma channel
holds the annihilated pair; indices 1..4 are the positron (u+, v+)
tensored with the electron (u-, v-).  Single-particle detectors act as
zero on |gamma> (an annihilated pair triggers no particle detector) and
as a local rank-1 projector tensored with identity on the particle
sector.

The "infinity" detectors resolve the u/v paths directly; the "time 0"
detectors resolve the recombined paths after the final beam splitters:

    C(0) projects onto (u - i v)/sqrt(2)
    D(0) projects onto (v - i u)/sqrt(2)

per party.  Local-realistic reasoning promotes the probability-1
conditionals among these detectors to definite value assignments; the
report quantifies where those assignments break against the quantum
conditional probabilities.

full_report builds no operator.  Every detector is rank 1 on its
particle, and for rank-1 P, P A P = Tr(PA) P (Hardy 1993), so each
probability is a squared modulus of a dot product of the one-particle
kets of _KETS, taken by qcore.braket and qcore.overlap in Python complex
arithmetic in a fixed order.  The state is the gamma amplitude and the
2x2 particle amplitudes _PAIR; a click of detector |a> on one particle
leaves v_a = (<a| (x) 1) psi on the other, or (1 (x) <a|) psi for an
electron detector.  build_state and build_detectors give the same model
as a StateVector and eight 5x5 Projectors: the general matrix path, which
the tests check full_report against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qcore
from .qcore import Projector, StateVector

GAMMA, UU, UV, VU, VV = range(5)
# Dimension of the state, which sets the rounding bound of every probability but the trace.
DIM = 5

_R = 1.0 / math.sqrt(2.0)
# One particle's kets on its (u, v) paths.
_KETS = {"C(inf)": (1.0 + 0j, 0j), "D(inf)": (0j, 1.0 + 0j),
         "C(0)": (complex(_R, 0.0), complex(0.0, -_R)),
         "D(0)": (complex(0.0, -_R), complex(_R, 0.0))}
# psi = -1/2 |gamma> + sum _PAIR[i][j] |i+ j->, i and j indexing (u, v)
_GAMMA_AMPLITUDE = -0.5
_PAIR = ((0j, 0.5j), (0.5j, 0.5 + 0j))
# The pairs of amplitudes <a| meets: a positron ket each column of _PAIR, an electron ket
# each row.
_AMPLITUDES = (tuple(zip(*_PAIR)), _PAIR)
# Each detector: its particle (0 the positron, 1 the electron), its ket there, and
# whether it also clicks on |gamma>.
_DETECTORS = {
    "C+(inf)": (0, _KETS["C(inf)"], False), "D+(inf)": (0, _KETS["D(inf)"], False),
    "C-(inf)": (1, _KETS["C(inf)"], False), "D-(inf)": (1, _KETS["D(inf)"], False),
    "C+(0)": (0, _KETS["C(0)"], False), "D+(0)": (0, _KETS["D(0)"], False),
    "C-(0)": (1, _KETS["C(0)"], False), "D-(0)": (1, _KETS["D(0)"], False),
    # the complement 1 - D(x) is C(x) on the electron, and the identity on |gamma>
    "1-D-(inf)": (1, _KETS["C(inf)"], True), "1-D-(0)": (1, _KETS["C(0)"], True),
}
_NAMES = tuple(_DETECTORS)[:8]  # the eight detectors, in DetectorSet's order


@dataclass(frozen=True)
class DetectorSet:
    """The eight detectors, embedded as 5x5 projectors."""

    c_plus_inf: Projector
    d_plus_inf: Projector
    c_minus_inf: Projector
    d_minus_inf: Projector
    c_plus_0: Projector
    d_plus_0: Projector
    c_minus_0: Projector
    d_minus_0: Projector


@dataclass(frozen=True)
class RelationResult:
    """One verified relation: quantum value vs local-realistic prediction."""

    quantum_value: float
    hv_prediction: float

    @property
    def discrepancy(self) -> float:
        return abs(self.quantum_value - self.hv_prediction)


GedankenReport = dict[str, RelationResult]


def build_state() -> StateVector:
    """Entangled state (1/2)(-|gamma> + i|u+v-> + i|v+u-> + |v+v->)."""
    return StateVector(np.array([_GAMMA_AMPLITUDE, *_PAIR[0], *_PAIR[1]]))


def build_detectors() -> DetectorSet:
    """Each detector's positron (x) electron operator, zero on gamma."""
    eye = np.eye(2, dtype=complex)
    mats = np.zeros((8, 5, 5), dtype=complex)
    for mat, name in zip(mats, _NAMES):
        party, ket, _ = _DETECTORS[name]
        local = np.outer(ket, np.conj(ket))
        mat[1:, 1:] = qcore.kron(eye, local) if party else qcore.kron(local, eye)
    return DetectorSet(*(Projector(mat, name) for mat, name in zip(mats, _NAMES)))


def _after(detector: str) -> tuple:
    """v_a, the unnormalized ket of the other particle after the detector's |a> clicks."""
    party, ket, _ = _DETECTORS[detector]
    amps0, amps1 = _AMPLITUDES[party]
    return qcore.braket(ket, amps0), qcore.braket(ket, amps1)


def joint_probability(positron: str, electron: str) -> float:
    """<a b> = |<a b|psi>|^2 = |<b|v_a>|^2 for a positron and an electron detector
    that do not click on gamma, clamped within bound(1, DIM)."""
    p = qcore.overlap(_DETECTORS[electron][1], _after(positron))
    # a value in [0, 1] is its own clamp
    return p if 0.0 <= p <= 1.0 else qcore.clamp_probability(
        p, f"born_probability({positron}{electron})", DIM)


def _conditional(first: str, then: str) -> float:
    """P(then|first): measure detector `first`, then `then`, with state reduction.

    P(first) = |v_a|^2, plus |gamma|^2 for a detector that clicks on gamma, by
    qcore.conditioning.  The click leaves |a> (x) v_a, so `then` = |b> reads |<b|v_a>|^2
    on the other particle or |<b|a>|^2 |v_a|^2 on the same one, plus |gamma|^2 where both
    click on gamma; over P(first) by qcore.conditional."""
    party, a, on_gamma = _DETECTORS[first]
    then_party, b, then_on_gamma = _DETECTORS[then]
    v = _after(first)
    gamma = _GAMMA_AMPLITUDE * _GAMMA_AMPLITUDE if on_gamma else 0.0
    particle = qcore.braket(v, v).real
    p_first = qcore.conditioning(gamma + particle, first, DIM)
    seen = qcore.overlap(b, v) if then_party != party else qcore.overlap(b, a) * particle
    return qcore.conditional((gamma if then_on_gamma else 0.0) + seen, p_first, then, first, DIM)


def _trace(first: str, second: str) -> float:
    """Tr P Q = |<p|q>|^2 of two rank-1 projectors on one particle, named by their
    kets, clamped within bound(1, 2)."""
    c = qcore.overlap(_KETS[first], _KETS[second])
    return c if 0.0 <= c <= 1.0 else qcore.clamp_probability(
        c, f"disturbance_metrics({first}, {second})", 2)


# Each relation's exact quantum value, the dimension it is computed in, and the
# condition number of its formula: 1 + 1/P(A) for a conditional on A, else 1.
_EXACT = {
    "joint_Cplus_Cminus": (0.0, 5, 1.0),
    "P(D-inf|C+inf)": (1.0, 5, 1 + 1 / 0.25),
    "P(D+inf|C-inf)": (1.0, 5, 1 + 1 / 0.25),
    "joint_Dplus_Dminus": (0.25, 5, 1.0),
    "P(C+inf|D-0)": (1.0, 5, 1 + 1 / 0.125),
    "P(C-inf|D+0)": (1.0, 5, 1 + 1 / 0.125),
    "P(D-inf|D-0)": (0.5, 5, 1 + 1 / 0.125),
    "complement_electron_trace": (0.5, 2, 1.0),
    "complement_full_space": (0.75, 5, 1 + 1 / 0.5),
}


def full_report() -> GedankenReport:
    """All nine relations, quantum value against local-realistic prediction.  Each
    quantum value must agree with its exact value: within qcore.bound(*_EXACT[rid]).
    Then the paper's relation: P(D-inf|D-0), from the state, must equal the trace
    Tr D-(0) D-(inf) of one particle's kets, within the sum of their two bounds."""
    # The four paradox-free relations among the path detectors: quantum and
    # local-realistic readings agree here; paradoxes only arise once the
    # time-0 detectors enter.
    p_dd = joint_probability("D+(inf)", "D-(inf)")
    report = {
        "joint_Cplus_Cminus": RelationResult(joint_probability("C+(inf)", "C-(inf)"), 0.0),
        "P(D-inf|C+inf)": RelationResult(_conditional("C+(inf)", "D-(inf)"), 1.0),
        "P(D+inf|C-inf)": RelationResult(_conditional("C-(inf)", "D+(inf)"), 1.0),
        "joint_Dplus_Dminus": RelationResult(p_dd, p_dd),
        # The probability-1 chain: D(0) on one party implies C(inf) on the other.
        "P(C+inf|D-0)": RelationResult(_conditional("D-(0)", "C+(inf)"), 1.0),
        "P(C-inf|D+0)": RelationResult(_conditional("D+(0)", "C-(inf)"), 1.0),
        # Local realism promotes the chain to P(D-(inf)|D-(0)) = 1; quantum
        # mechanically the first measurement disturbs the state and the
        # conditional equals c = Tr D-(0) D-(inf) = 1/2.
        "P(D-inf|D-0)": RelationResult(_conditional("D-(0)", "D-(inf)"), 1.0),
        # Complementary reading: a null D-(inf) should force a null D-(0).  On the
        # electron qubit 1-D(0) = C(0) and 1-D(inf) = C(inf), so the electron-sector
        # trace Tr (1-D(0))(1-D(inf)) is Tr C(0) C(inf) = 1/2; the conditional on the
        # full 5-dim space, where the gamma channel contributes, is 3/4.  Both differ
        # from the local-realistic 1, so the paradox shows either way.
        "complement_electron_trace": RelationResult(_trace("C(0)", "C(inf)"), 1.0),
        "complement_full_space": RelationResult(_conditional("1-D-(inf)", "1-D-(0)"), 1.0),
    }
    for rid, result in report.items():
        exact, dim, cond = _EXACT[rid]
        allowed = qcore.bound(exact, dim, cond)
        # agree builds its message, only for a value that fails
        if not abs(result.quantum_value - exact) <= allowed:
            qcore.agree(result.quantum_value, exact, allowed, f"gedanken {rid}")
    trace = _trace("D(0)", "D(inf)")
    qcore.agree(report["P(D-inf|D-0)"].quantum_value, trace,
                qcore.bound(*_EXACT["P(D-inf|D-0)"]) + qcore.bound(trace, 2),
                "gedanken P(D-inf|D-0) vs Tr D-(0) D-(inf)")
    return report
