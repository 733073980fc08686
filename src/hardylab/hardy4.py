"""Parametric two-qubit model exhibiting the paradox away from maximal entanglement.

The state is alpha|++> - beta|--> with alpha^2 + beta^2 = 1, measured by
rank-1 projectors U_i = |u><u| and D_i = |d><d| on each qubit:

    |u> = (sqrt(beta)|+> + sqrt(alpha)|->) / sqrt(alpha + beta)
    |d> = (beta^{3/2}|+> - alpha^{3/2}|->) / sqrt(alpha^3 + beta^3)

Closed forms used as cross-checks against the Born-rule values:

    <D1>          = alpha^2 beta^2 / (1 - alpha beta)
    P(D2|D1)      = (beta-alpha)^2 / ((beta-alpha)^2 + alpha beta)
    P(U2|D1)      = P(U1|D2) = 1
    <U1 U2>       = 0
    c_bar         = Tr D (1-U) = alpha beta / ((beta-alpha)^2 + alpha beta)
                  = 1 - P(D2|D1)
    [D, U]        = sqrt(P(D2|D1) c_bar)   (max-entry norm)
    <D1 D2>       = <D1> P(D2|D1)

On the unit circle <D1 D2> is t^2 (1-2t) / (1-t)^2 with t = alpha beta (Hardy
1993), but 1 - 2t cancels to rounding near 1/sqrt2, where it is (beta - alpha)^2:
no code here computes that form.

Each Born-rule value must lie within qcore.bound(closed, 4, cond) of its
closed form, by qcore.agree, which makes every agreement check here: the
rounding model of qcore.zero_threshold, with condition number
cond = 1 + 1/|beta - alpha| for the three forms through beta - alpha
(P(D2|D1), <D1 D2> and the commutator) and 1 for the others.  No tolerance
is set by hand, so a relative error shows at any alpha, however small the
value.

One pipeline computes these statistics, for a Python-float alpha (`hardy
--alpha`, `certify`, and the three rows of `hardy --optimize`) and for (N,)
arrays of alphas (metrics_arrays, behind `hardy --sweep` only), in one
function body.  It builds no operator: for rank-1 P, P A P = Tr(PA) P, so
every statistic is a squared dot product of the real unit 2-vector kets of
build_model, |u>, |d> and |w>, which spans 1 - U.  build_model checks each ket's norm in
place of the projector checks, and the state's norm; compute_metrics takes
P(D1) by qcore.conditioning, P(U2|D1) and P(D2|D1) by qcore.conditional and
every other probability under qcore's clamp band, and checks the
paper's relation <D1 D2> = P(D1) P(U1|D1): local realism forces U1 = 0
once D1 = 1, and P(U1|D1) = |<u|d>|^2 = 1 - c_bar is the disturbance of
U1 by the measurement of D1 that the paradox reads.  The one arithmetic
step chosen by type is the square root, math.sqrt or np.sqrt; both are
correctly rounded, as + - * / are, so a float alpha's values equal its
array row to the bit on any CPU, and no BLAS call is made.  metrics_arrays cross-checks every row
against the closed forms, as optimize_paradox does each of its float rows;
sweep returns its grid and columns as they are; this module formats no output.

Everything here is real and non-negative by construction; alpha is the
single free parameter, beta = sqrt(1 - alpha^2).  The paradox exists where
<D1 D2>, about (beta - alpha)^2 near 1/sqrt2 and about <D1> near 0, is above
qcore.zero_threshold(4) (paradox_event): more than about 7e-15 from 1/sqrt2,
and alpha above 2^-46.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import qcore
from .errors import InternalConsistencyError, InvalidParameterError

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
    """The checked unit kets of one alpha, or of (N,) arrays of alphas, each a pair of
    components on (|+>, |->), floats or (N,) arrays: u spans U, d spans D and w spans
    1 - U, on either qubit."""

    params: HardyParams
    u: tuple
    d: tuple
    w: tuple


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


def _sqrt(x):
    """math.sqrt of a float, np.sqrt of an array: the one arithmetic step chosen by type."""
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def _kets(a, b):
    """|u> and |d> of the module docstring, and (sqrt(alpha)|+> - sqrt(beta)|->), unnormalized,
    which spans 1 - U: three pairs of components, floats for float a and b, (N,) arrays for
    (N,) arrays.

    Subtracting U from the identity cancels to rounding as alpha nears 0
    or 1, where c_bar = Tr D(1-U) is about alpha*beta; the third ket keeps every digit.
    x^{3/2} is x * sqrt(x) and x^3 is x * x * x: numpy's power is not correctly rounded,
    and its digits depend on the CPU.
    """
    sa, sb = _sqrt(a), _sqrt(b)
    nu, nd = _sqrt(a + b), _sqrt(a * a * a + b * b * b)
    return (sb / nu, sa / nu), (b * sb / nd, -(a * sa) / nd), (sa, -sb)


# the projectors the three kets span, which name a ket that fails its norm check
_KET_NAMES = ("U", "D", "1-U")
# the bounds of the ket-norm checks and of StateVector's norm check in DIM
_KET_BOUND = qcore.bound(1.0, 2)
_STATE_BOUND = qcore.bound(1.0, DIM)


def _checked_model(params: HardyParams) -> HardyModel:
    """The unit kets of `params`, floats or (N,) arrays, after the checks that stand for
    qcore's on the projectors and the state; a failing row names its alpha."""
    a, b = params.alpha, params.beta
    unit = []
    for name, (k0, k1) in zip(_KET_NAMES, _kets(a, b)):
        norm = _sqrt(k0 * k0 + k1 * k1)
        k0, k1 = k0 / norm, k1 / norm
        # For a real unit ket k, k k^T is symmetric to the bit, and (k k^T)^2 - k k^T is
        # (|k|^2 - 1) k k^T: so |k|^2 within bound(1, 2) of 1 passes validate_projectors on
        # |k><k| and its Kronecker products, and has trace 1 within that bound.  A NaN fails.
        failure = qcore.first_failure(abs(k0 * k0 + k1 * k1 - 1.0) <= _KET_BOUND, a)
        if failure is not None:
            raise InvalidParameterError(
                f"projector {name!r} is not a rank-1 projector at alpha {failure[1]!r}")
        unit.append((k0, k1))
    failure = qcore.first_failure(abs(a * a + b * b - 1.0) <= _STATE_BOUND, a)
    if failure is not None:
        raise InvalidParameterError(f"state is not normalized at alpha {failure[1]!r}")
    return HardyModel(params, *unit)


def build_model(alpha: float) -> HardyModel:
    """The parameters and the three checked unit kets of one alpha."""
    return _checked_model(HardyParams.from_alpha(alpha))


def compute_metrics(model: HardyModel) -> HardyMetrics:
    """Every statistic by the Born rule on the model's kets, floats or (N,) arrays alike.

    For a rank-1 projector P = |k><k|, P A P = Tr(PA) P (Hardy 1993), so each
    statistic is a squared dot product of real 2-vectors: with v = (<d| (x) 1) psi,
    P(D1) = |v|^2, <D1 D2> = (d.v)^2 and P(B|D1) = (b.v)^2 / |v|^2.  P(D1) is taken by
    qcore.conditioning and P(U2|D1) and P(D2|D1) by qcore.conditional; every other
    probability is clamped within qcore's band, and <D1 D2> must equal P(D1) P(U1|D1)
    within its bound, the first failing row named by its alpha.
    """
    params = model.params
    a, b = params.alpha, params.beta
    (u0, u1), (d0, d1), (w0, w1) = model.u, model.d, model.w
    # psi = alpha|++> - beta|-->, so v is both (<d| (x) 1) psi and (1 (x) <d|) psi:
    # P(D2) and P(U1|D2) are P(D1) and P(U2|D1) to the bit, and share their clamps
    v0, v1 = a * d0, -b * d1
    p_d1 = qcore.conditioning(v0 * v0 + v1 * v1, "D(x)1", DIM)
    uv, dv = u0 * v0 + u1 * v1, d0 * v0 + d1 * v1
    uu = a * u0 * u0 - b * u1 * u1  # <u u|psi>
    ud, dw = u0 * d0 + u1 * d1, d0 * w0 + d1 * w1
    p_u_given_d = qcore.conditional(uv * uv, p_d1, "1(x)U", "D(x)1", DIM)
    joint = qcore.clamp_probability(dv * dv, "born_probability(D1D2)", DIM)
    # D1 leaves |d> (x) v, on which U1 reads |<u|d>|^2 whatever v is: no division, but
    # the clamp band of a conditional on D1
    relation = p_d1 * qcore.clamp_probability(ud * ud, "conditional_probability(U(x)1|D(x)1)",
                                              DIM, 1.0 + 1.0 / p_d1)
    qcore.agree(joint, relation, _bound("p_joint_D1D2", relation, params),
                "<D1D2> vs P(D1) P(U1|D1)", at=("alpha", a))
    return HardyMetrics(
        p_D1=p_d1,
        p_cond_U2_given_D1=p_u_given_d,
        p_cond_U1_given_D2=p_u_given_d,
        p_cond_D2_given_D1=qcore.conditional(dv * dv, p_d1, "1(x)D", "D(x)1", DIM),
        p_joint_U1U2=qcore.clamp_probability(uu * uu, "born_probability(U1U2)", DIM),
        p_joint_D1D2=joint,
        # Tr D(1-U) = (d.w)^2, w the unit ket of 1 - U
        c_bar=qcore.clamp_probability(dw * dw, "disturbance_metrics(D, 1-U)", 2),
        # DU - UD = (u.d)(d u^T - u d^T), whose largest entry is |u.d| |d0 u1 - d1 u0|
        commutator_D1U1=abs(ud) * abs(d0 * u1 - d1 * u0),
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
        commutator_D1U1=_sqrt(p_cond * c_bar),
    )


_CHECKED_FIELDS = tuple(f.name for f in dataclasses.fields(HardyMetrics))
# Closed forms that pass through beta - alpha: its rounding is amplified by
# 1/|beta - alpha| as alpha nears 1/sqrt2.  No float alpha gives beta == alpha.
_THROUGH_GAP = ("p_cond_D2_given_D1", "p_joint_D1D2", "commutator_D1U1")
# cross_check's checks: each field, whether it is in _THROUGH_GAP, and the message of its
# failure, written once here rather than on every call
_CROSS_CHECKS = tuple((name, name in _THROUGH_GAP, f"closed-form cross-check failed for {name}")
                      for name in _CHECKED_FIELDS)


def _gap_cond(params: HardyParams):
    """The condition number 1 + 1/|beta - alpha| of the fields in _THROUGH_GAP."""
    return 1.0 + 1.0 / abs(params.beta - params.alpha)


def _bound(name: str, exact: float, params: HardyParams) -> float:
    """qcore.bound for field `name`, with condition number _gap_cond(params)
    for the fields in _THROUGH_GAP and 1 for the others."""
    return qcore.bound(exact, DIM, _gap_cond(params) if name in _THROUGH_GAP else 1.0)


def cross_check(metrics: HardyMetrics, closed: HardyMetrics, params: HardyParams) -> None:
    """Raise if the Born-rule `metrics` disagree with the closed forms `closed` beyond rounding.
    Fields and params may be floats or (N,) arrays; an array names the first row that fails."""
    gap_cond, at = _gap_cond(params), ("alpha", params.alpha)
    for name, through_gap, what in _CROSS_CHECKS:
        c = getattr(closed, name)
        allowed = qcore.bound(c, DIM, gap_cond if through_gap else 1.0)
        qcore.agree(getattr(metrics, name), c, allowed, what, at=at)


def paradox_event(metrics: HardyMetrics) -> bool:
    """Whether D1=1, D2=1 can happen: the matrix <D1 D2> is above qcore.zero_threshold(DIM)."""
    return bool(metrics.p_joint_D1D2 > qcore.zero_threshold(DIM))


def disturbance_contradiction(model: HardyModel, metrics: HardyMetrics,
                              closed: HardyMetrics) -> ContradictionResult:
    """Two-step contradiction where paradox_event(metrics) holds: hv forces P(1-U1|D1) = 1,
    quantum gives c_bar, and the discrepancy is P(U1|D1), else 0.  Measuring D1 leaves
    |d> (x) v, so P(1-U1|D1) = (d.w)^2, which is metrics.c_bar to the bit and already
    cross-checked, and P(U1|D1) = (u.d)^2 on the model's kets, clamped as a conditional on
    metrics.p_D1.  P(U1|D1) is a squared norm of its own, not the cancelling 1 - c_bar, and
    must match the closed-form P(D2|D1), the field of `closed`, the model's
    closed_form_metrics, within its rounding bound."""
    (u0, u1), (d0, d1) = model.u, model.d
    ud = u0 * d0 + u1 * d1
    p_u_given_d = qcore.clamp_probability(ud * ud, "conditional_probability(U(x)1|D(x)1)",
                                          DIM, 1.0 + 1.0 / metrics.p_D1)
    exact = closed.p_cond_D2_given_D1
    qcore.agree(p_u_given_d, exact, _bound("p_cond_D2_given_D1", exact, model.params),
                "P(U1|D1) vs closed-form p_cond_D2_given_D1")
    present = paradox_event(metrics)
    return ContradictionResult("contradiction" if present else "no_contradiction", 1.0,
                               metrics.c_bar, p_u_given_d if present else 0.0)


def _array_params(alphas: np.ndarray) -> HardyParams:
    """HardyParams of an (N,) array of alphas in (0, 1): beta = sqrt(1 - alpha^2) row by row."""
    return HardyParams(alpha=alphas, beta=np.sqrt(1.0 - alphas * alphas))


def _matrix_metrics(params: HardyParams) -> HardyMetrics:
    """compute_metrics of the checked kets of (N,) arrays of alpha and beta."""
    return compute_metrics(_checked_model(params))


def metrics_arrays(alphas) -> HardyMetrics:
    """compute_metrics for each alpha of a 1-d array, as one (N,) array per field.

    Rows go through _matrix_metrics BLOCK_ROWS at a time, and every row is
    cross-checked against the closed forms, as hvlogic.hardy_system does for one alpha.
    """
    alphas = np.asarray(alphas, dtype=float)
    invalid = qcore.first_failure((0.0 < alphas) & (alphas < 1.0), alphas)
    if invalid is not None:
        HardyParams.from_alpha(invalid[1])  # raises its InvalidParameterError
    out = np.empty((len(_CHECKED_FIELDS), alphas.size))
    for start in range(0, alphas.size, BLOCK_ROWS):
        a = alphas[start:start + BLOCK_ROWS]
        params = _array_params(a)
        metrics = _matrix_metrics(params)
        cross_check(metrics, closed_form_metrics(params), params)
        out[:, start:start + a.size] = [getattr(metrics, name) for name in _CHECKED_FIELDS]
    return HardyMetrics(*out)


def sweep(alpha_min: float, alpha_max: float, steps: int) -> tuple[HardyParams, HardyMetrics]:
    """Uniform alpha grid from alpha_min to alpha_max, no point past alpha_max, and
    metrics_arrays of it, which computes and cross-checks every row: the grid as
    HardyParams of (steps,) alphas and betas, each beta as metrics_arrays computes it,
    and one (steps,) column per field.
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
    return _array_params(alphas), metrics_arrays(alphas)


def _checked_metrics(alpha: float) -> HardyMetrics:
    """compute_metrics of build_model(alpha), once cross_check has passed it against
    closed_form_metrics."""
    model = build_model(alpha)
    metrics = compute_metrics(model)
    cross_check(metrics, closed_form_metrics(model.params), model.params)
    return metrics


def optimize_paradox() -> Optimum:
    """Maximum of the joint paradox probability <D1 D2> over alpha.

    <D1D2> = t^2(1-2t)/(1-t)^2 peaks at t* = (3-sqrt5)/2 with
    p_max = (5 sqrt5 - 11)/2 (Hardy 1993).  alpha* is the smaller root of
    alpha beta = t*.  The Born rule on the three float rows alpha* - OPT_STEP,
    alpha* and alpha* + OPT_STEP, each cross-checked against its closed forms
    (_checked_metrics), must agree with p_max at alpha* within the <D1D2> bound
    of cross_check and fall below it on both sides.  A float row equals its
    metrics_arrays row to the bit, so the array kernel, behind `hardy --sweep`
    alone, is not needed here.
    """
    t_star = (3.0 - math.sqrt(5.0)) / 2.0
    alpha_star = math.sqrt((1.0 - math.sqrt(1.0 - 4.0 * t_star ** 2)) / 2.0)
    p_max = (5.0 * math.sqrt(5.0) - 11.0) / 2.0
    below, at, above = (_checked_metrics(alpha).p_joint_D1D2
                        for alpha in (alpha_star - OPT_STEP, alpha_star, alpha_star + OPT_STEP))
    qcore.agree(at, p_max, _bound("p_joint_D1D2", p_max, HardyParams.from_alpha(alpha_star)),
                "matrix <D1D2> at alpha* vs closed-form p_max")
    if not (below < at and above < at):
        raise InternalConsistencyError(f"matrix <D1D2> at alpha* -h, 0, +h is {below!r}, {at!r}, "
                                       f"{above!r}: no maximum at alpha*")
    return Optimum(alpha_star=alpha_star, p_max=p_max)
