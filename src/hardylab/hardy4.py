"""Parametric two-qubit model exhibiting the paradox away from maximal entanglement.

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

Each matrix value must lie within qcore.bound(closed, 4, cond) of its
closed form, by qcore.agree, which makes every agreement check here: the
rounding model of qcore.zero_threshold, with condition number
cond = 1 + 1/|beta - alpha| for the three forms through beta - alpha
(P(D2|D1), <D1 D2> and the commutator) and 1 for the others.  No tolerance
is set by hand, so a relative error shows at any alpha, however small the
value.

Two pipelines compute these statistics by the Born rule.  The scalar one
(build_model, compute_metrics) serves one alpha through ten qcore
Projectors, built from one stack of three kets (qcore.rank1) and
validated as two stacks by qcore.projectors; its Born probabilities and
its conditionals are each one qcore family call.  `hardy --alpha` and
`certify` use it.  The array kernel (metrics_arrays) serves many
alphas at once and builds no operator: for rank-1 P, P A P = Tr(PA) P,
so every statistic is a squared dot product of the real 2-vector kets
of _kets, taken elementwise over the alphas.  It checks each ket's norm
in place of the projector checks, takes probabilities under qcore's
clamp band and zero rule, and cross-checks every row against the closed
forms.  `hardy --sweep` and `hardy --optimize` use the kernel, and the
scalar pipeline is the oracle at each sweep's two endpoint rows.  sweep
returns the kernel's columns as they are; this module formats no output.

Everything here is real and non-negative by construction; alpha is the
single free parameter, beta = sqrt(1 - alpha^2).  The paradox exists where
the matrix <D1 D2>, about (beta - alpha)^2 near 1/sqrt2, is above
qcore.zero_threshold(4) (paradox_event): more than about 7e-15 from 1/sqrt2.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import qcore
from .errors import InternalConsistencyError, InvalidParameterError
from .qcore import Projector, StateVector

# Dimension of the two-qubit space, which sets the rounding bound of every check.
DIM = 4
# optimize_paradox checks that <D1D2> is lower this far either side of alpha*.
OPT_STEP = 1e-3
# sweep refuses more rows than this before building any.
MAX_STEPS = 100_000
# Rows metrics_arrays takes at once: over 100,000 rows its peak traced memory is 6.7 MB
# in these blocks, against 27 MB in one call.
BLOCK_ROWS = 1 << 10


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


@dataclass(frozen=True)
class HardyModel:
    """State and projectors for one parameter choice.

    U1/D1 act on qubit 1 (tensored with identity on qubit 2) and vice
    versa; u_local/d_local are the 2x2 single-qubit projectors shared by
    both parties, and u_perp_local is 1 - U.  U1U2 and D1D2 are the joint
    products and U1_perp is 1 - U1: every operator the metrics read.
    """

    params: HardyParams
    psi: StateVector
    u_local: Projector
    d_local: Projector
    u_perp_local: Projector
    U1: Projector
    U2: Projector
    D1: Projector
    D2: Projector
    U1U2: Projector
    D1D2: Projector
    U1_perp: Projector


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
    quantum_value: float
    discrepancy: float


@dataclass(frozen=True)
class Optimum:
    alpha_star: float
    p_max: float


def _kets(a, b) -> np.ndarray:
    """|u> and |d> of the module docstring, and (sqrt(alpha)|+> - sqrt(beta)|->), unnormalized,
    which spans 1 - U: a (3, 2) stack for floats, (3, 2, N) for (N,) arrays.

    Subtracting U from the identity cancels to rounding as alpha nears 0
    or 1, where c_bar = Tr D(1-U) is about alpha*beta; the third ket keeps every digit.
    """
    sa, sb = np.sqrt(a), np.sqrt(b)
    kets = np.array([[sb, sa], [b ** 1.5, -(a ** 1.5)], [sa, -sb]])
    kets[0] /= np.sqrt(a + b)
    kets[1] /= np.sqrt(a ** 3 + b ** 3)
    return kets


# Read-only identities and names that build_model reads.
_EYE2 = np.eye(2, dtype=complex)
_EYE4 = np.eye(DIM, dtype=complex)
_EYE2.flags.writeable = _EYE4.flags.writeable = False
_LOCAL_NAMES = ("U", "D", "1-U")
_JOINT_NAMES = ("U(x)1", "1(x)U", "D(x)1", "1(x)D", "U1U2", "D1D2", "1-U(x)1")


def build_model(alpha: float) -> HardyModel:
    """The state and ten projectors of one alpha, validated as a 2x2 and a 4x4 stack."""
    params = HardyParams.from_alpha(alpha)
    a, b = params.alpha, params.beta
    local = qcore.rank1(_kets(a, b))
    u, d = local[:2]
    joint = np.empty((len(_JOINT_NAMES), DIM, DIM), dtype=complex)
    joint[:4] = qcore.kron(np.array([u, _EYE2, d, _EYE2]), np.array([_EYE2, u, _EYE2, d]))
    # U1 U2 and D1 D2 in one stacked matmul: products of commuting projectors,
    # so again projectors
    np.matmul(joint[0:4:2], joint[1:4:2], out=joint[4:6])
    np.subtract(_EYE4, joint[0], out=joint[6])
    return HardyModel(params, StateVector(np.array([a, 0.0, 0.0, -b], dtype=complex)),
                      *qcore.projectors(local, _LOCAL_NAMES),
                      *qcore.projectors(joint, _JOINT_NAMES))


def compute_metrics(model: HardyModel) -> HardyMetrics:
    """All model statistics by direct matrix evaluation (no closed forms): the Born
    probabilities as one family and the conditionals as another, on P(D1) and P(D2)
    from the first."""
    psi = model.psi
    p_d1, p_d2, p_u1u2, p_d1d2 = qcore.born_probabilities(
        psi, (model.D1, model.D2, model.U1U2, model.D1D2))
    u2_given_d1, u1_given_d2, d2_given_d1 = qcore.conditional_probabilities(
        psi, (model.D1, model.D2, model.D1), (model.U2, model.U1, model.D2),
        p_first=(p_d1, p_d2, p_d1))
    return HardyMetrics(
        p_D1=p_d1,
        p_cond_U2_given_D1=u2_given_d1,
        p_cond_U1_given_D2=u1_given_d2,
        p_cond_D2_given_D1=d2_given_d1,
        p_joint_U1U2=p_u1u2,
        p_joint_D1D2=p_d1d2,
        c_bar=qcore.disturbance_metrics(model.d_local, model.u_perp_local),
        commutator_D1U1=qcore.commutator_norm(model.d_local, model.u_local),
    )


def closed_form_metrics(params: HardyParams) -> HardyMetrics:
    """The same statistics from the analytic closed forms, for float or (N,) array params."""
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
        # (math.sqrt keeps one alpha's value a Python float)
        commutator_D1U1=np.sqrt(p_cond * c_bar) if np.ndim(t) else math.sqrt(p_cond * c_bar),
    )


_CHECKED_FIELDS = tuple(f.name for f in dataclasses.fields(HardyMetrics))
# Closed forms that pass through beta - alpha: its rounding is amplified by
# 1/|beta - alpha| as alpha nears 1/sqrt2.  No float alpha gives beta == alpha.
_THROUGH_GAP = ("p_cond_D2_given_D1", "p_joint_D1D2", "commutator_D1U1")
# cross_check's checks per `reference`: each field, whether it is in _THROUGH_GAP, and the
# message of its failure, written once here rather than on every call
_CROSS_CHECKS = {reference: tuple((name, name in _THROUGH_GAP,
                                   f"{reference} cross-check failed for {name}")
                                  for name in _CHECKED_FIELDS)
                 for reference in ("closed-form", "scalar")}
# disturbance_contradiction's checks: the closed-form field each value must match, and
# the message of its failure
_CONTRADICTION_CHECKS = (("c_bar", "P(1-U1|D1) vs closed-form c_bar"),
                         ("p_cond_D2_given_D1", "P(U1|D1) vs closed-form p_cond_D2_given_D1"))


def _gap_cond(params: HardyParams):
    """The condition number 1 + 1/|beta - alpha| of the fields in _THROUGH_GAP."""
    return 1.0 + 1.0 / abs(params.beta - params.alpha)


def _bound(name: str, exact: float, params: HardyParams) -> float:
    """qcore.bound for field `name`, with condition number _gap_cond(params)
    for the fields in _THROUGH_GAP and 1 for the others."""
    return qcore.bound(exact, DIM, _gap_cond(params) if name in _THROUGH_GAP else 1.0)


def cross_check(matrix: HardyMetrics, closed: HardyMetrics, params: HardyParams,
                reference: str = "closed-form") -> None:
    """Raise if the matrix pipeline disagrees with `closed` beyond rounding.

    `reference` names what `closed` holds: "closed-form", the closed forms, or
    "scalar", the scalar pipeline where it re-checks a row of metrics_arrays.
    Fields and params may be floats or (N,) arrays; an array names the first row that fails.
    """
    gap_cond, at = _gap_cond(params), ("alpha", params.alpha)
    for name, through_gap, what in _CROSS_CHECKS[reference]:
        c = getattr(closed, name)
        allowed = qcore.bound(c, DIM, gap_cond if through_gap else 1.0)
        qcore.agree(getattr(matrix, name), c, allowed, what, at=at)


def paradox_event(metrics: HardyMetrics) -> bool:
    """Whether D1=1, D2=1 can happen: the matrix <D1 D2> is above qcore.zero_threshold(DIM)."""
    return bool(metrics.p_joint_D1D2 > qcore.zero_threshold(DIM))


def disturbance_contradiction(model: HardyModel, metrics: HardyMetrics,
                              closed: HardyMetrics) -> ContradictionResult:
    """Two-step contradiction where paradox_event(metrics) holds: hv forces P(1-U1|D1) = 1,
    quantum gives c_bar, and the discrepancy is P(U1|D1), else 0.  Each must match its closed
    form within its rounding bound: P(1-U1|D1) the one-qubit c_bar = Tr D(1-U) (the paper's
    relation), and P(U1|D1), a squared norm of its own, not the cancelling 1 - P(1-U1|D1),
    the closed-form P(D2|D1), both fields of `closed`, the model's closed_form_metrics.
    Both condition on metrics.p_D1, the P(D1) compute_metrics took."""
    values = qcore.conditional_probabilities(model.psi, (model.D1, model.D1),
                                             (model.U1_perp, model.U1),
                                             p_first=(metrics.p_D1, metrics.p_D1))
    for value, (name, what) in zip(values, _CONTRADICTION_CHECKS):
        exact = getattr(closed, name)
        qcore.agree(value, exact, _bound(name, exact, model.params), what)
    present = paradox_event(metrics)
    return ContradictionResult("contradiction" if present else "no_contradiction", 1.0,
                               values[0], values[1] if present else 0.0)


def _raise_zero_probability(alpha: float, zero: float):
    """The scalar pipeline's ZeroProbabilityError at `alpha`, where the kernel found
    P(D1) or P(D2) zero: its message is the one `hardy --alpha` gives."""
    compute_metrics(build_model(alpha))
    raise InternalConsistencyError(f"the array kernel finds P(D1) or P(D2) <= {zero!r} at alpha "
                                   f"{alpha!r}, where the scalar pipeline does not")


def _matrix_metrics(params: HardyParams) -> HardyMetrics:
    """compute_metrics for (N,) arrays of alpha and beta, by the Born rule on the three kets.

    For a rank-1 projector P = |k><k|, P A P = Tr(PA) P (Hardy 1993), so each
    statistic is a squared dot product of real 2-vectors: with v = (<d| (x) 1) psi,
    P(D1) = |v|^2, <D1 D2> = (d.v)^2 and P(B|D1) = (b.v)^2 / |v|^2.  It checks
    every ket and the state, and clamps every probability, as qcore does for the
    scalar pipeline; metrics_arrays cross-checks the result.
    """
    a, b = params.alpha, params.beta
    kets = _kets(a, b)
    kets /= np.sqrt(kets[:, 0] * kets[:, 0] + kets[:, 1] * kets[:, 1])[:, None]
    # For a real unit ket k, k k^T is symmetric to the bit, and (k k^T)^2 - k k^T is
    # (|k|^2 - 1) k k^T: so |k|^2 within bound(1, 2) of 1 passes validate_projectors on
    # |k><k| and its Kronecker products, and disturbance_metrics' trace test.  A NaN fails.
    defects = abs(kets[:, 0] * kets[:, 0] + kets[:, 1] * kets[:, 1] - 1.0)
    for name, defect in zip(_LOCAL_NAMES, defects):
        failure = qcore.first_failure(defect <= qcore.bound(1.0, 2), a)
        if failure is not None:
            raise InvalidParameterError(
                f"projector {name!r} is not a rank-1 projector at alpha {failure[1]!r}")
    # the bound of StateVector's norm check
    failure = qcore.first_failure(abs(a * a + b * b - 1.0) <= qcore.bound(1.0, DIM), a)
    if failure is not None:
        raise InvalidParameterError(f"state is not normalized at alpha {failure[1]!r}")
    (u0, u1), (d0, d1), (w0, w1) = kets
    # psi = alpha|++> - beta|-->, so v is both (<d| (x) 1) psi and (1 (x) <d|) psi:
    # P(D2) and P(U1|D2) are P(D1) and P(U2|D1) to the bit, and share their clamps
    v0, v1 = a * d0, -b * d1
    p_d1 = qcore.clamp_probability(v0 * v0 + v1 * v1, "born_probability(D(x)1)", DIM)
    zero = qcore.zero_threshold(DIM)
    failure = qcore.first_failure(p_d1 > zero, a)
    if failure is not None:
        _raise_zero_probability(failure[1], zero)
    cond = 1.0 + 1.0 / p_d1
    uv, dv = u0 * v0 + u1 * v1, d0 * v0 + d1 * v1
    uu = a * u0 * u0 - b * u1 * u1  # <u u|psi>
    dw = d0 * w0 + d1 * w1
    p_u_given_d = qcore.clamp_probability(uv * uv / p_d1, "conditional_probability(1(x)U|D(x)1)",
                                          DIM, cond)
    return HardyMetrics(
        p_D1=p_d1,
        p_cond_U2_given_D1=p_u_given_d,
        p_cond_U1_given_D2=p_u_given_d,
        p_cond_D2_given_D1=qcore.clamp_probability(
            dv * dv / p_d1, "conditional_probability(1(x)D|D(x)1)", DIM, cond),
        p_joint_U1U2=qcore.clamp_probability(uu * uu, "born_probability(U1U2)", DIM),
        p_joint_D1D2=qcore.clamp_probability(dv * dv, "born_probability(D1D2)", DIM),
        # Tr D(1-U) = (d.w)^2, w the unit ket of 1 - U
        c_bar=qcore.clamp_probability(dw * dw, "disturbance_metrics(D, 1-U)", 2),
        # DU - UD = (u.d)(d u^T - u d^T), whose largest entry is |u.d| |d0 u1 - d1 u0|
        commutator_D1U1=abs(u0 * d0 + u1 * d1) * abs(d0 * u1 - d1 * u0),
    )


def metrics_arrays(alphas) -> HardyMetrics:
    """compute_metrics for each alpha of a 1-d array, as one (N,) array per field.

    Rows go through _matrix_metrics BLOCK_ROWS at a time, and every row is
    cross-checked against the closed forms, as cross_check does for one alpha.
    """
    alphas = np.asarray(alphas, dtype=float)
    invalid = qcore.first_failure((0.0 < alphas) & (alphas < 1.0), alphas)
    if invalid is not None:
        HardyParams.from_alpha(invalid[1])  # raises its InvalidParameterError
    out = np.empty((len(_CHECKED_FIELDS), alphas.size))
    for start in range(0, alphas.size, BLOCK_ROWS):
        a = alphas[start:start + BLOCK_ROWS]
        params = HardyParams(alpha=a, beta=np.sqrt(1.0 - a * a))
        metrics = _matrix_metrics(params)
        cross_check(metrics, closed_form_metrics(params), params)
        out[:, start:start + a.size] = [getattr(metrics, name) for name in _CHECKED_FIELDS]
    return HardyMetrics(*out)


def sweep(alpha_min: float, alpha_max: float, steps: int) -> tuple[np.ndarray, HardyMetrics]:
    """Uniform alpha grid from alpha_min to alpha_max, no point past alpha_max, and
    metrics_arrays of it: the (steps,) alphas and one (steps,) column per field.

    metrics_arrays computes and cross-checks every row; scalar compute_metrics
    re-checks the two endpoint rows, read as floats, within the same per-field bound.
    """
    if not (0.0 < alpha_min < alpha_max < 1.0):
        raise InvalidParameterError(
            f"need 0 < alpha_min < alpha_max < 1, got ({alpha_min!r}, {alpha_max!r})"
        )
    if not 2 <= steps <= MAX_STEPS:
        raise InvalidParameterError(f"steps must be in [2, {MAX_STEPS}], got {steps!r}")
    # i as a float, as Python converts it in (alpha_max - alpha_min) * i: the same bits;
    # a point that rounds past alpha_max (to 1.0 from 0.9999999999999999) is clamped to it
    grid = alpha_min + (alpha_max - alpha_min) * np.arange(steps, dtype=float) / (steps - 1)
    alphas = np.minimum(grid, alpha_max)
    metrics = metrics_arrays(alphas)
    for i in (0, -1):
        model = build_model(float(alphas[i]))
        row = HardyMetrics(*(float(getattr(metrics, name)[i]) for name in _CHECKED_FIELDS))
        cross_check(row, compute_metrics(model), model.params, reference="scalar")
    return alphas, metrics


def optimize_paradox() -> Optimum:
    """Maximum of the joint paradox probability <D1 D2> over alpha.

    <D1D2> = t^2(1-2t)/(1-t)^2 peaks at t* = (3-sqrt5)/2 with
    p_max = (5 sqrt5 - 11)/2 (Hardy 1993).  alpha* is the smaller root of
    alpha beta = t*.  The matrix pipeline (one metrics_arrays call over
    alpha* - OPT_STEP, alpha*, alpha* + OPT_STEP) must agree with p_max at
    alpha* within the <D1D2> bound of cross_check and fall below it on both sides.
    """
    t_star = (3.0 - math.sqrt(5.0)) / 2.0
    alpha_star = math.sqrt((1.0 - math.sqrt(1.0 - 4.0 * t_star ** 2)) / 2.0)
    p_max = (5.0 * math.sqrt(5.0) - 11.0) / 2.0
    below, at, above = metrics_arrays(
        [alpha_star - OPT_STEP, alpha_star, alpha_star + OPT_STEP]).p_joint_D1D2.tolist()
    qcore.agree(at, p_max, _bound("p_joint_D1D2", p_max, HardyParams.from_alpha(alpha_star)),
                "matrix <D1D2> at alpha* vs closed-form p_max")
    if not (below < at and above < at):
        raise InternalConsistencyError(f"matrix <D1D2> at alpha* -h, 0, +h is {below!r}, {at!r}, "
                                       f"{above!r}: no maximum at alpha*")
    return Optimum(alpha_star=alpha_star, p_max=p_max)
