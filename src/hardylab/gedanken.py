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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qcore
from .qcore import Projector, StateVector

GAMMA, UU, UV, VU, VV = range(5)

_U = np.array([1.0, 0.0], dtype=complex)
_V = np.array([0.0, 1.0], dtype=complex)
_C0_KET = (_U - 1j * _V) / np.sqrt(2.0)
_D0_KET = (_V - 1j * _U) / np.sqrt(2.0)


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
    amps = np.zeros(5, dtype=complex)
    amps[GAMMA] = -0.5
    amps[UV] = 0.5j
    amps[VU] = 0.5j
    amps[VV] = 0.5
    return StateVector(amps)


def _embed(positron: np.ndarray, electron: np.ndarray, name: str) -> Projector:
    """Embed a positron (x) electron operator into the 5-dim space, zero on gamma."""
    mat = np.zeros((5, 5), dtype=complex)
    mat[1:, 1:] = np.kron(positron, electron)
    return Projector(mat, name=name)


def _rank1(ket: np.ndarray) -> np.ndarray:
    return np.outer(ket, ket.conj())


def build_detectors() -> DetectorSet:
    eye = np.eye(2, dtype=complex)
    return DetectorSet(
        c_plus_inf=_embed(_rank1(_U), eye, "C+(inf)"),
        d_plus_inf=_embed(_rank1(_V), eye, "D+(inf)"),
        c_minus_inf=_embed(eye, _rank1(_U), "C-(inf)"),
        d_minus_inf=_embed(eye, _rank1(_V), "D-(inf)"),
        c_plus_0=_embed(_rank1(_C0_KET), eye, "C+(0)"),
        d_plus_0=_embed(_rank1(_D0_KET), eye, "D+(0)"),
        c_minus_0=_embed(eye, _rank1(_C0_KET), "C-(0)"),
        d_minus_0=_embed(eye, _rank1(_D0_KET), "D-(0)"),
    )


STATE = build_state()
DETECTORS = build_detectors()


def full_report() -> GedankenReport:
    """All nine relations, quantum value against local-realistic prediction."""
    psi, det = STATE, DETECTORS
    # The four paradox-free relations among the path detectors: quantum and
    # local-realistic readings agree here; paradoxes only arise once the
    # time-0 detectors enter.
    joint_cc = Projector(det.c_plus_inf.matrix @ det.c_minus_inf.matrix, name="C+(inf)C-(inf)")
    joint_dd = Projector(det.d_plus_inf.matrix @ det.d_minus_inf.matrix, name="D+(inf)D-(inf)")
    p_dd = qcore.born_probability(psi, joint_dd)
    # On the electron qubit 1-D(0) = C(0) and 1-D(inf) = C(inf), both rank 1,
    # so the electron-sector trace Tr (1-D(0))(1-D(inf)) is Tr C(0) C(inf).
    trace_value = qcore.disturbance_metrics(Projector(_rank1(_C0_KET), name="C(0)"),
                                            Projector(_rank1(_U), name="C(inf)"))
    return {
        "joint_Cplus_Cminus": RelationResult(qcore.born_probability(psi, joint_cc), 0.0),
        "P(D-inf|C+inf)": RelationResult(
            qcore.conditional_probability(psi, det.c_plus_inf, det.d_minus_inf), 1.0),
        "P(D+inf|C-inf)": RelationResult(
            qcore.conditional_probability(psi, det.c_minus_inf, det.d_plus_inf), 1.0),
        "joint_Dplus_Dminus": RelationResult(p_dd, p_dd),
        # The probability-1 chain: D(0) on one party implies C(inf) on the other.
        "P(C+inf|D-0)": RelationResult(
            qcore.conditional_probability(psi, det.d_minus_0, det.c_plus_inf), 1.0),
        "P(C-inf|D+0)": RelationResult(
            qcore.conditional_probability(psi, det.d_plus_0, det.c_minus_inf), 1.0),
        # Local realism promotes the chain to P(D-(inf)|D-(0)) = 1; quantum
        # mechanically the first measurement disturbs the state and the
        # conditional equals c = Tr D-(0) D-(inf) = 1/2.
        "P(D-inf|D-0)": RelationResult(
            qcore.conditional_probability(psi, det.d_minus_0, det.d_minus_inf), 1.0),
        # Complementary reading: a null D-(inf) should force a null D-(0).  The
        # electron-sector trace gives 1/2, the conditional on the full 5-dim
        # space (where the gamma channel contributes) 3/4; both differ from
        # the local-realistic 1, so the paradox shows either way.
        "complement_electron_trace": RelationResult(trace_value, 1.0),
        "complement_full_space": RelationResult(qcore.conditional_probability(
            psi, det.d_minus_inf.complement(), det.d_minus_0.complement()), 1.0),
    }
