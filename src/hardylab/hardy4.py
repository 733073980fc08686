"""Parametric two-qubit model exhibiting the paradox for alpha != beta.

The state is alpha|++> - beta|--> with alpha^2 + beta^2 = 1, measured by
rank-1 projectors U_i = |u><u| and D_i = |d><d| on each qubit:

    |u> = (sqrt(beta)|+> + sqrt(alpha)|->) / sqrt(alpha + beta)
    |d> = (beta^{3/2}|+> - alpha^{3/2}|->) / sqrt(alpha^3 + beta^3)

Closed forms used as cross-checks against the matrix pipeline:

    <D1>          = alpha^2 beta^2 / (1 - alpha beta)
    P(D2|D1)      = (beta-alpha)^2 / ((beta-alpha)^2 + alpha beta)
    P(U2|D1)      = P(U1|D2) = 1
    <U1 U2>       = 0
    c_bar         = Tr D (1-U) = alpha beta / ((beta-alpha)^2 + alpha beta)
                  = 1 - P(D2|D1)
    [D, U]        = sqrt(P(D2|D1) c_bar)   (max-entry norm)
    <D1 D2>       = t^2 (1-2t) / (1-t)^2   with t = alpha beta

Everything here is real and non-negative by construction; alpha is the
single free parameter, beta = sqrt(1 - alpha^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qcore
from .errors import InternalConsistencyError, InvalidParameterError
from .qcore import Projector, StateVector

# alpha values closer than this to beta are treated as maximally entangled.
EQUAL_PARAM_TOL = 1e-9

# Default absolute tolerance of the closed-form cross-checks.
DEFAULT_TOL = 1e-10
# optimize_paradox checks that <D1D2> is lower this far either side of alpha*.
OPT_STEP = 1e-3
# sweep refuses more rows than this before building any.
MAX_STEPS = 100_000


@dataclass(frozen=True)
class HardyParams:
    """(alpha, beta) with alpha^2 + beta^2 = 1, both in (0, 1)."""

    alpha: float
    beta: float

    @classmethod
    def from_alpha(cls, alpha: float) -> "HardyParams":
        alpha = float(alpha)
        if not (0.0 < alpha < 1.0) or not math.isfinite(alpha):
            raise InvalidParameterError(f"alpha must lie strictly in (0, 1), got {alpha!r}")
        return cls(alpha=alpha, beta=math.sqrt(1.0 - alpha * alpha))

    @property
    def t(self) -> float:
        """Entanglement parameter t = alpha * beta, in (0, 1/2]."""
        return self.alpha * self.beta

    @property
    def maximally_entangled(self) -> bool:
        return abs(self.alpha - self.beta) <= EQUAL_PARAM_TOL


@dataclass(frozen=True)
class HardyModel:
    """State and projectors for one parameter choice.

    U1/D1 act on qubit 1 (tensored with identity on qubit 2) and vice
    versa; u_local/d_local are the 2x2 single-qubit projectors shared by
    both parties.
    """

    params: HardyParams
    psi: StateVector
    u_local: Projector
    d_local: Projector
    U1: Projector
    U2: Projector
    D1: Projector
    D2: Projector


@dataclass(frozen=True)
class HardyMetrics:
    p_D1: float
    p_cond_U2_given_D1: float
    p_cond_U1_given_D2: float
    p_cond_D2_given_D1: float
    p_joint_U1U2: float
    p_joint_D1D2: float
    c_bar: float
    commutator_D1U1: float


@dataclass(frozen=True)
class ContradictionResult:
    """Local realism forces P(1-U1 | D1) = 1; quantum gives c_bar < 1."""

    status: str  # "contradiction" | "no_contradiction"
    hv_value: float
    quantum_value: float | None
    discrepancy: float | None


@dataclass(frozen=True)
class Optimum:
    alpha_star: float
    p_max: float


def build_model(alpha: float) -> HardyModel:
    params = HardyParams.from_alpha(alpha)
    a, b = params.alpha, params.beta
    u_ket = np.array([math.sqrt(b), math.sqrt(a)]) / math.sqrt(a + b)
    d_ket = np.array([b ** 1.5, -(a ** 1.5)]) / math.sqrt(a ** 3 + b ** 3)
    psi = StateVector(np.array([a, 0.0, 0.0, -b], dtype=complex))
    u_local = Projector.from_ket(u_ket, name="U")
    d_local = Projector.from_ket(d_ket, name="D")
    eye = Projector.identity(2)
    return HardyModel(
        params=params,
        psi=psi,
        u_local=u_local,
        d_local=d_local,
        U1=qcore.tensor(u_local, eye),
        U2=qcore.tensor(eye, u_local),
        D1=qcore.tensor(d_local, eye),
        D2=qcore.tensor(eye, d_local),
    )


def _joint(a: Projector, b: Projector, name: str) -> Projector:
    # Product of commuting projectors is again a projector.
    return Projector(a.matrix @ b.matrix, name=name)


def compute_metrics(model: HardyModel) -> HardyMetrics:
    """All model statistics by direct matrix evaluation (no closed forms)."""
    psi = model.psi
    return HardyMetrics(
        p_D1=qcore.born_probability(psi, model.D1),
        p_cond_U2_given_D1=qcore.conditional_probability(psi, model.D1, model.U2),
        p_cond_U1_given_D2=qcore.conditional_probability(psi, model.D2, model.U1),
        p_cond_D2_given_D1=qcore.conditional_probability(psi, model.D1, model.D2),
        p_joint_U1U2=qcore.born_probability(psi, _joint(model.U1, model.U2, "U1U2")),
        p_joint_D1D2=qcore.born_probability(psi, _joint(model.D1, model.D2, "D1D2")),
        c_bar=qcore.disturbance_metrics(model.d_local, model.u_local.complement()).c,
        commutator_D1U1=qcore.commutator_norm(model.d_local, model.u_local),
    )


def closed_form_metrics(params: HardyParams) -> HardyMetrics:
    """The same statistics from the analytic closed forms."""
    a, b = params.alpha, params.beta
    t = params.t
    p_d1 = (a * b) ** 2 / (1.0 - t)
    p_cond = (b - a) ** 2 / ((b - a) ** 2 + t)
    # t/((b-a)^2+t), not 1 - p_cond, which cancels to rounding as t -> 0.
    c_bar = t / ((b - a) ** 2 + t)
    return HardyMetrics(
        p_D1=p_d1,
        p_cond_U2_given_D1=1.0,
        p_cond_U1_given_D2=1.0,
        p_cond_D2_given_D1=p_cond,
        p_joint_U1U2=0.0,
        p_joint_D1D2=p_d1 * p_cond,
        c_bar=c_bar,
        # |<u|d>|^2 = P(D2|D1), and the commutator of two rank-1 projectors
        # is |<u|d>| sqrt(1 - |<u|d>|^2).
        commutator_D1U1=math.sqrt(p_cond * c_bar),
    )


_CHECKED_FIELDS = ("p_D1", "p_cond_U2_given_D1", "p_cond_U1_given_D2",
                   "p_cond_D2_given_D1", "p_joint_U1U2", "p_joint_D1D2", "c_bar",
                   "commutator_D1U1")


def cross_check(matrix: HardyMetrics, closed: HardyMetrics, tol: float = DEFAULT_TOL) -> None:
    """Raise if the matrix pipeline disagrees with the closed forms."""
    for name in _CHECKED_FIELDS:
        m, c = getattr(matrix, name), getattr(closed, name)
        if abs(m - c) > tol:
            raise InternalConsistencyError(
                f"closed-form cross-check failed for {name}: matrix {m!r} vs closed {c!r}"
            )


def disturbance_contradiction(model: HardyModel) -> ContradictionResult:
    """Two-step contradiction: hv forces P(1-U1|D1)=1, quantum gives c_bar."""
    if model.params.maximally_entangled:
        return ContradictionResult(status="no_contradiction", hv_value=1.0,
                                   quantum_value=None, discrepancy=None)
    quantum = qcore.conditional_probability(model.psi, model.D1, model.U1.complement())
    return ContradictionResult(status="contradiction", hv_value=1.0,
                               quantum_value=quantum, discrepancy=1.0 - quantum)


def sweep(alpha_min: float, alpha_max: float, steps: int,
          tol: float = DEFAULT_TOL) -> list[tuple[float, HardyMetrics]]:
    """Uniform alpha grid, endpoints included; every row is cross-checked."""
    if not (0.0 < alpha_min < alpha_max < 1.0):
        raise InvalidParameterError(
            f"need 0 < alpha_min < alpha_max < 1, got ({alpha_min!r}, {alpha_max!r})"
        )
    if not 2 <= steps <= MAX_STEPS:
        raise InvalidParameterError(f"steps must be in [2, {MAX_STEPS}], got {steps!r}")
    rows = []
    for i in range(steps):
        alpha = alpha_min + (alpha_max - alpha_min) * i / (steps - 1)
        model = build_model(alpha)
        metrics = compute_metrics(model)
        cross_check(metrics, closed_form_metrics(model.params), tol=tol)
        rows.append((alpha, metrics))
    return rows


def optimize_paradox(tol: float = DEFAULT_TOL) -> Optimum:
    """Maximum of the joint paradox probability <D1 D2> over alpha.

    <D1D2> = t^2(1-2t)/(1-t)^2 peaks at t* = (3-sqrt5)/2 with
    p_max = (5 sqrt5 - 11)/2 (Hardy 1993).  alpha* is the smaller root of
    alpha beta = t*.  The matrix pipeline must agree with p_max at alpha*
    within tol and fall below it at alpha* +- OPT_STEP.
    """
    t_star = (3.0 - math.sqrt(5.0)) / 2.0
    alpha_star = math.sqrt((1.0 - math.sqrt(1.0 - 4.0 * t_star ** 2)) / 2.0)
    p_max = (5.0 * math.sqrt(5.0) - 11.0) / 2.0
    below, at, above = (compute_metrics(build_model(a)).p_joint_D1D2
                        for a in (alpha_star - OPT_STEP, alpha_star, alpha_star + OPT_STEP))
    if abs(at - p_max) > tol or not (below < at and above < at):
        raise InternalConsistencyError(f"matrix <D1D2> at alpha* -h, 0, +h is {below!r}, {at!r}, "
                                       f"{above!r}; closed-form p_max {p_max!r}")
    return Optimum(alpha_star=alpha_star, p_max=p_max)


CSV_HEADER = ("alpha,beta,p_D1,p_D2_given_D1,p_U2_given_D1,p_U1_given_D2,"
              "p_U1U2,p_D1D2,c_bar,comm_D1U1")


def sweep_csv_rows(rows: list[tuple[float, HardyMetrics]]) -> list[str]:
    """Serialize sweep rows to the documented 10-column CSV layout."""
    out = [CSV_HEADER]
    for alpha, m in rows:
        beta = math.sqrt(1.0 - alpha * alpha)
        values = (alpha, beta, m.p_D1, m.p_cond_D2_given_D1, m.p_cond_U2_given_D1,
                  m.p_cond_U1_given_D2, m.p_joint_U1U2, m.p_joint_D1D2,
                  m.c_bar, m.commutator_D1U1)
        out.append(",".join(f"{v:.15g}" for v in values))
    return out
