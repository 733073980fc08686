import dataclasses
import decimal
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hardylab import cli, hardy4, qcore
from hardylab.errors import InternalConsistencyError, InvalidParameterError, ZeroProbabilityError

alphas = st.floats(min_value=0.05, max_value=0.95)

# log grids toward 0 and 1, and 1/sqrt2 +- 1e-16 .. 1e-2
OPERATOR_GRID = ([10.0 ** -k for k in range(1, 16)] + [1.0 - 10.0 ** -k for k in range(1, 16)]
                 + [1.0 / math.sqrt(2.0) + sign * 10.0 ** k
                    for k in range(-16, -1) for sign in (1.0, -1.0)])


def reference_metrics(ref) -> hardy4.HardyMetrics:
    """The Hardy statistics by qcore's Born rule on the Projectors of the test-only
    reference (conftest.hardy_reference); the commutator is the max-entry norm of DU - UD."""
    psi = ref.psi
    p_d1, p_u1u2, p_d1d2 = qcore.born_probabilities(psi, (ref.D1, ref.U1U2, ref.D1D2))
    u2_given_d1, u1_given_d2, d2_given_d1 = qcore.conditional_probabilities(
        psi, (ref.D1, ref.D2, ref.D1), (ref.U2, ref.U1, ref.D2))
    d, u = ref.d_local.matrix, ref.u_local.matrix
    return hardy4.HardyMetrics(
        p_D1=p_d1, p_cond_U2_given_D1=u2_given_d1, p_cond_U1_given_D2=u1_given_d2,
        p_cond_D2_given_D1=d2_given_d1, p_joint_U1U2=p_u1u2, p_joint_D1D2=p_d1d2,
        c_bar=qcore.disturbance_metrics(ref.d_local, ref.u_perp_local),
        commutator_D1U1=float(np.abs(d @ u - u @ d).max()))


def dot(k, m) -> float:
    return k[0] * m[0] + k[1] * m[1]


class TestParams:
    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.3, 1.7, float("nan")])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(InvalidParameterError):
            hardy4.HardyParams.from_alpha(bad)

    @given(alpha=alphas)
    def test_unit_circle(self, alpha):
        p = hardy4.HardyParams.from_alpha(alpha)
        assert p.alpha ** 2 + p.beta ** 2 == pytest.approx(1.0, abs=1e-12)

    @given(alpha=alphas)
    def test_t_range(self, alpha):
        p = hardy4.HardyParams.from_alpha(alpha)
        assert 0.0 < p.t <= 0.5
        if abs(p.alpha - p.beta) > 1e-9:
            assert p.t < 0.5


class TestModel:
    def test_kets_normalized(self):
        m = hardy4.build_model(0.37)
        for ket in (m.u, m.d, m.w):
            assert dot(ket, ket) == pytest.approx(1.0, abs=1e-12)

    def test_u_d_orthogonal_at_maximal_entanglement(self):
        m = hardy4.build_model(1.0 / math.sqrt(2.0))
        assert dot(m.u, m.d) == pytest.approx(0.0, abs=1e-12)

    def test_party_locality(self, hardy_projectors):
        m = hardy_projectors(0.6)
        for a, b in [(m.D1, m.U2), (m.D2, m.U1), (m.D1, m.D2), (m.U1, m.U2)]:
            assert np.abs(a.matrix @ b.matrix - b.matrix @ a.matrix).max() <= 1e-12

    @pytest.mark.parametrize("alpha", OPERATOR_GRID)
    def test_operators_are_those_of_one_by_one_construction(self, hardy_projectors, alpha):
        """|k><k| of each of build_model's kets is the reference's Projector within
        bound(1, 2), and compute_metrics and disturbance_contradiction agree with the
        reference's Born rule within cross_check's bound, or both refuse to condition on
        a zero P(D1)."""
        model, ref = hardy4.build_model(alpha), hardy_projectors(alpha)
        for ket, want in zip((model.u, model.d, model.w),
                             (ref.u_local, ref.d_local, ref.u_perp_local)):
            assert np.abs(np.outer(ket, ket) - want.matrix).max() <= qcore.bound(1.0, 2), alpha
        try:
            want = reference_metrics(ref)
        except ZeroProbabilityError:
            with pytest.raises(ZeroProbabilityError, match=re.escape("cannot condition on D(x)1")):
                hardy4.compute_metrics(model)
            return
        got, closed = hardy4.compute_metrics(model), hardy4.closed_form_metrics(model.params)
        for name in hardy4._CHECKED_FIELDS:
            assert abs(getattr(got, name) - getattr(want, name)) <= hardy4._bound(
                name, getattr(closed, name), model.params), (alpha, name)
        result = hardy4.disturbance_contradiction(model, got, closed)
        quantum, discrepancy = qcore.conditional_probabilities(
            ref.psi, (ref.D1, ref.D1), (ref.U1_perp, ref.U1))
        assert abs(result.quantum_value - quantum) <= hardy4._bound(
            "c_bar", closed.c_bar, model.params), alpha
        if result.status == "contradiction":
            assert abs(result.discrepancy - discrepancy) <= hardy4._bound(
                "p_cond_D2_given_D1", closed.p_cond_D2_given_D1, model.params), alpha


class TestMetrics:
    def test_alpha_06_values(self):
        m = hardy4.build_model(0.6)
        metrics = hardy4.compute_metrics(m)
        assert metrics.p_D1 == pytest.approx(0.2304 / 0.52, abs=1e-12)
        assert metrics.p_cond_D2_given_D1 == pytest.approx(0.04 / 0.52, abs=1e-12)
        assert metrics.p_cond_U2_given_D1 == pytest.approx(1.0, abs=1e-12)
        assert metrics.p_cond_U1_given_D2 == pytest.approx(1.0, abs=1e-12)
        assert metrics.p_joint_U1U2 == pytest.approx(0.0, abs=1e-12)
        assert metrics.c_bar == pytest.approx(1.0 - 0.04 / 0.52, abs=1e-12)

    def test_maximal_entanglement_premise_vanishes(self):
        m = hardy4.build_model(1.0 / math.sqrt(2.0))
        metrics = hardy4.compute_metrics(m)
        assert metrics.p_cond_D2_given_D1 == pytest.approx(0.0, abs=1e-12)
        assert metrics.commutator_D1U1 <= 1e-12

    def test_commutator_nonzero_off_diagonal(self):
        m = hardy4.build_model(0.6)
        assert hardy4.compute_metrics(m).commutator_D1U1 > 0.01

    @settings(max_examples=60, deadline=None)
    @given(alpha=alphas)
    def test_matrix_matches_closed_forms(self, alpha):
        m = hardy4.build_model(alpha)
        hardy4.cross_check(hardy4.compute_metrics(m),
                           hardy4.closed_form_metrics(m.params), m.params)

    @settings(max_examples=100, deadline=None)
    @given(exponent=st.floats(min_value=math.log10(2e-14), max_value=-2.0),
           near_one=st.booleans())
    def test_p_d1_relative_accuracy_at_the_extremes(self, exponent, near_one):
        """Matrix <D1> within 1e-13 relative of t^2/(1-t), alpha or 1-alpha in [2e-14, 1e-2].

        An absolute tolerance passes any value this small; a relative bound does not.
        """
        alpha = 1.0 - 10.0 ** exponent if near_one else 10.0 ** exponent
        m = hardy4.build_model(alpha)
        closed = hardy4.closed_form_metrics(m.params).p_D1
        assert abs(hardy4.compute_metrics(m).p_D1 - closed) <= 1e-13 * closed

    @settings(max_examples=100, deadline=None)
    @given(exponent=st.floats(min_value=math.log10(2e-14), max_value=-2.0),
           near_one=st.booleans())
    def test_c_bar_relative_accuracy_at_the_extremes(self, exponent, near_one):
        """Matrix c_bar = Tr D(1-U) within 1e-13 relative of t/((b-a)^2+t), alpha or
        1-alpha in [2e-14, 1e-2]: 1-U must not be formed by subtracting U from 1."""
        alpha = 1.0 - 10.0 ** exponent if near_one else 10.0 ** exponent
        m = hardy4.build_model(alpha)
        closed = hardy4.closed_form_metrics(m.params).c_bar
        assert abs(hardy4.compute_metrics(m).c_bar - closed) <= 1e-13 * closed

    def test_c_bar_and_commutator_exact_on_the_same_doubles(self):
        """Closed-form c_bar within 1e-15 relative of the exact ab/((b-a)^2+ab), and the
        commutator within about 1e-15 of the exact sqrt(c_bar (1 - c_bar)), computed
        with Fractions on the same alpha and beta, alpha or 1-alpha down to 2e-14."""
        grid = np.geomspace(2e-14, 1e-2, 60)
        for alpha in [float(x) for x in grid] + [1.0 - float(x) for x in grid] + [0.3, 0.6, 0.9]:
            params = hardy4.HardyParams.from_alpha(alpha)
            a, b = Fraction(params.alpha), Fraction(params.beta)
            c_bar = a * b / ((b - a) ** 2 + a * b)
            comm_sq = c_bar * (1 - c_bar)
            closed = hardy4.closed_form_metrics(params)
            assert abs(Fraction(closed.c_bar) - c_bar) <= Fraction(1e-15) * c_bar, alpha
            assert (abs(Fraction(closed.commutator_D1U1) ** 2 - comm_sq)
                    <= Fraction(2e-15) * comm_sq), alpha

    def test_cross_check_covers_the_commutator(self):
        m = hardy4.build_model(0.6)
        good = hardy4.compute_metrics(m)
        bad = dataclasses.replace(good, commutator_D1U1=good.commutator_D1U1 + 1e-6)
        with pytest.raises(InternalConsistencyError, match="commutator_D1U1"):
            hardy4.cross_check(bad, hardy4.closed_form_metrics(m.params), m.params)

    @settings(max_examples=40, deadline=None)
    @given(alpha=alphas)
    def test_d1_d2_symmetric(self, hardy_projectors, alpha):
        """P(D1), which the kets give for P(D2) too, is the reference's P(D1) and P(D2)."""
        ref = hardy_projectors(alpha)
        p = hardy4.compute_metrics(hardy4.build_model(alpha)).p_D1
        assert p == pytest.approx(qcore.born_probability(ref.psi, ref.D1), abs=1e-12)
        assert p == pytest.approx(qcore.born_probability(ref.psi, ref.D2), abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(alpha=alphas)
    def test_joint_consistency(self, alpha):
        metrics = hardy4.compute_metrics(hardy4.build_model(alpha))
        assert metrics.p_joint_D1D2 == pytest.approx(
            metrics.p_D1 * metrics.p_cond_D2_given_D1, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(alpha=alphas)
    def test_paradox_premise_iff_asymmetric(self, alpha):
        p = hardy4.HardyParams.from_alpha(alpha)
        metrics = hardy4.compute_metrics(hardy4.build_model(alpha))
        if abs(p.alpha - p.beta) > 1e-3:
            assert metrics.p_joint_D1D2 > 0.0
            assert metrics.commutator_D1U1 > 0.0

    def test_cross_check_detects_corruption(self):
        m = hardy4.build_model(0.6)
        good = hardy4.compute_metrics(m)
        bad = hardy4.HardyMetrics(**{**good.__dict__, "p_D1": good.p_D1 + 1e-6})
        with pytest.raises(InternalConsistencyError):
            hardy4.cross_check(bad, hardy4.closed_form_metrics(m.params), m.params)


SHIFT_ALPHAS = [1e-6, 0.6, 1.0 - 1e-6]


def optimizer_alphas() -> list[float]:
    """alpha* - OPT_STEP, alpha* and alpha* + OPT_STEP, the optimizer's three rows."""
    star = hardy4.optimize_paradox().alpha_star
    return [star - hardy4.OPT_STEP, star, star + hardy4.OPT_STEP]


def shift_optimizer_joint(monkeypatch, shift, rows=(0, 1, 2)):
    """Add `shift` to <D1D2> of the optimizer's rows `rows`, indices into optimizer_alphas(),
    after each row's own cross-check."""
    shifted_alphas = [optimizer_alphas()[row] for row in rows]
    checked = hardy4._checked_metrics

    def shifted(alpha):
        m = checked(alpha)
        if alpha not in shifted_alphas:
            return m
        return dataclasses.replace(m, p_joint_D1D2=m.p_joint_D1D2 + shift)
    monkeypatch.setattr(hardy4, "_checked_metrics", shifted)


HALF_SQRT2 = math.sqrt(0.5)


def bits(values) -> bytes:
    """The IEEE bits of a float or of a sequence of floats."""
    return np.asarray(values, dtype=float).tobytes()


LOG_DISTANCE = st.floats(min_value=math.log10(2e-14), max_value=-1.0)


def sqrt_bracket(x: Fraction, digits: int = 60) -> tuple[Fraction, Fraction]:
    """Fractions lo <= sqrt(x) <= hi, a relative 2 * 10^(5 - digits) apart: the
    `digits`-digit decimal root, widened, and then checked by squaring exactly."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        root = Fraction((decimal.Decimal(x.numerator) / x.denominator).sqrt())
    widen = Fraction(1, 10 ** (digits - 5))
    lo, hi = root * (1 - widen), root * (1 + widen)
    assert lo * lo <= x <= hi * hi
    return lo, hi


def exact_metrics(params: hardy4.HardyParams) -> dict[str, tuple[Fraction, Fraction]]:
    """The Hardy fields at the float (alpha, beta) of `params`, each as a bracket
    (lo, hi) of Fractions that holds its exact value: T = alpha beta and
    G = (beta - alpha)^2.  A rational field has lo == hi.  The commutator,
    sqrt(P(D2|D1) c_bar) = sqrt(G T) / (G + T), is irrational: its bracket is sqrt_bracket's."""
    a, b = Fraction(params.alpha), Fraction(params.beta)
    t, g = a * b, (b - a) ** 2
    p_d1, p_cond = t * t / (1 - t), g / (g + t)
    rational = {"p_D1": p_d1, "p_cond_U2_given_D1": Fraction(1),
                "p_cond_U1_given_D2": Fraction(1), "p_cond_D2_given_D1": p_cond,
                "p_joint_U1U2": Fraction(0), "p_joint_D1D2": p_d1 * p_cond, "c_bar": t / (g + t)}
    return {**{name: (x, x) for name, x in rational.items()},
            "commutator_D1U1": sqrt_bracket(g * t / (g + t) ** 2)}


class TestExactOracle:
    """Each computation on its own against exact rational arithmetic, within the bound
    cross_check allows: the closed forms, and the Born rule on a float alpha and on an
    array.  The irrational commutator must lie within it of both ends of its 60-digit
    bracket."""

    # alpha or 1-alpha log-uniform in [2e-14, 0.1], or within 10^6 ulps of 1/sqrt2,
    # where 1/|beta - alpha| is largest; every such alpha is a whole number of ulps away
    @settings(max_examples=200, deadline=None)
    @given(alpha=st.one_of(LOG_DISTANCE.map(lambda x: 10.0 ** x),
                           LOG_DISTANCE.map(lambda x: 1.0 - 10.0 ** x),
                           st.integers(-10 ** 6, 10 ** 6).map(
                               lambda k: HALF_SQRT2 + k * math.ulp(HALF_SQRT2))))
    @example(alpha=2e-14)
    @example(alpha=0.9999999999999999)
    @example(alpha=math.nextafter(HALF_SQRT2, 0.0))
    @example(alpha=math.nextafter(HALF_SQRT2, 1.0))
    def test_every_pipeline_within_the_bound_of_the_exact_value(self, alpha):
        params = hardy4.HardyParams.from_alpha(alpha)
        pipelines = {"closed forms": hardy4.closed_form_metrics(params),
                     "float": hardy4.compute_metrics(hardy4.build_model(alpha)),
                     "kernel": hardy4.metrics_arrays([alpha])}
        for name, (lo, hi) in exact_metrics(params).items():
            allowed = Fraction(hardy4._bound(name, float(lo), params))
            for pipeline, metrics in pipelines.items():
                got = Fraction(float(np.ravel(getattr(metrics, name))[0]))
                assert max(abs(got - lo), abs(got - hi)) <= allowed, (pipeline, name, alpha)

    @pytest.mark.parametrize("alpha", [2e-14, 0.1, 0.5, math.nextafter(HALF_SQRT2, 0.0),
                                       0.9, 0.9999999999999999])
    def test_commutator_bracket_is_far_narrower_than_its_bound(self, alpha):
        """The 60-digit bracket leaves the bound, not the bracket, to decide:
        its width is under 10^-30 of what cross_check allows."""
        params = hardy4.HardyParams.from_alpha(alpha)
        lo, hi = exact_metrics(params)["commutator_D1U1"]
        allowed = Fraction(hardy4._bound("commutator_D1U1", float(lo), params))
        assert 0 < lo < hi
        assert (hi - lo) * 10 ** 30 <= allowed, alpha

    @pytest.mark.parametrize("m, n", [(2, 1), (3, 2), (4, 1), (5, 2), (7, 4), (99, 70)])
    def test_the_relation_holds_exactly_on_the_closed_forms(self, m, n):
        """<D1D2> = P(D1) P(U1|D1), with P(U1|D1) = 1 - c_bar, in exact arithmetic: on the
        float alphas' closed forms, and on the rational points ((m^2-n^2), 2mn)/(m^2+n^2) of
        the unit circle, where both sides are also Hardy's t^2 (1-2t)/(1-t)^2."""
        for alpha in (n / m, 1 - n / m / 7, math.sqrt(0.5) + n * 1e-9):
            x = exact_metrics(hardy4.HardyParams.from_alpha(alpha))
            p_u1_given_d1 = 1 - x["c_bar"][0]
            assert x["p_joint_D1D2"][0] == x["p_D1"][0] * p_u1_given_d1, alpha
        a, b = Fraction(m * m - n * n, m * m + n * n), Fraction(2 * m * n, m * m + n * n)
        t, g = a * b, (b - a) ** 2
        assert a * a + b * b == 1
        p_d1, p_u1_given_d1 = t * t / (1 - t), 1 - t / (g + t)
        assert p_d1 * p_u1_given_d1 == p_d1 * (g / (g + t)) == t * t * (1 - 2 * t) / (1 - t) ** 2


class TestRoundingBound:
    """Agreement with a closed form means within qcore.bound(closed, 4, cond) of it."""

    @pytest.mark.parametrize("alpha", SHIFT_ALPHAS)
    @pytest.mark.parametrize("name", [f for f in hardy4._CHECKED_FIELDS if f != "p_joint_U1U2"])
    def test_relative_shift_of_a_field_raises(self, alpha, name):
        """A 1e-12 relative error shows at any alpha, also where the value is near 1e-12."""
        m = hardy4.build_model(alpha)
        good, closed = hardy4.compute_metrics(m), hardy4.closed_form_metrics(m.params)
        hardy4.cross_check(good, closed, m.params)
        assert getattr(closed, name) != 0.0
        bad = dataclasses.replace(good, **{name: getattr(good, name) * (1.0 + 1e-12)})
        with pytest.raises(InternalConsistencyError, match=f"for {name}:"):
            hardy4.cross_check(bad, closed, m.params)

    @pytest.mark.parametrize("alpha", SHIFT_ALPHAS)
    @pytest.mark.parametrize("value", [10 * qcore.zero_threshold(4), math.nan])
    def test_zero_field_above_threshold_or_nan_raises(self, alpha, value):
        m = hardy4.build_model(alpha)
        bad = dataclasses.replace(hardy4.compute_metrics(m), p_joint_U1U2=value)
        with pytest.raises(InternalConsistencyError, match="p_joint_U1U2"):
            hardy4.cross_check(bad, hardy4.closed_form_metrics(m.params), m.params)

    def test_bound_is_relative_to_the_closed_value(self):
        params = hardy4.HardyParams.from_alpha(1e-6)
        assert hardy4._bound("p_D1", 1e-12, params) == qcore.bound(1e-12, 4)
        cond = 1.0 + 1.0 / abs(params.beta - params.alpha)
        assert hardy4._bound("p_joint_D1D2", 1e-12, params) == qcore.bound(1e-12, 4, cond)

    def test_p_max_off_by_1e_14_raises(self, monkeypatch):
        shift_optimizer_joint(monkeypatch, 1e-14)
        with pytest.raises(InternalConsistencyError, match="p_max"):
            hardy4.optimize_paradox()


def contradiction(model, metrics=None):
    """hardy4.disturbance_contradiction on the model's closed forms and, unless given,
    its own matrix metrics."""
    return hardy4.disturbance_contradiction(
        model, hardy4.compute_metrics(model) if metrics is None else metrics,
        hardy4.closed_form_metrics(model.params))


class TestContradiction:
    def test_alpha_06(self):
        model = hardy4.build_model(0.6)
        result = contradiction(model)
        assert result.status == "contradiction"
        assert result.hv_value == 1.0
        assert result.quantum_value == pytest.approx(1.0 - 0.04 / 0.52, abs=1e-12)
        assert result.discrepancy == pytest.approx(0.04 / 0.52, abs=1e-12)

    def test_quantum_value_is_c_bar_at_the_extremes(self):
        """P(1-U1|D1) on two qubits equals the one-qubit c_bar within its rounding bound,
        alpha or 1-alpha from 2e-14 to 0.1."""
        grid = [float(x) for x in np.geomspace(2e-14, 0.1, 40)]
        for alpha in grid + [1.0 - x for x in grid] + [0.3, 0.6, 0.9]:
            model = hardy4.build_model(alpha)
            result = contradiction(model)
            c_bar = hardy4.closed_form_metrics(model.params).c_bar
            assert abs(result.quantum_value - c_bar) <= qcore.bound(c_bar, 4), alpha

    @pytest.mark.parametrize("alpha", SHIFT_ALPHAS)
    def test_shifted_quantum_value_raises(self, alpha):
        """The ket of 1 - U 1e-12 off scales the quantum value P(1-U1|D1) = (d.w)^2 by
        1 + 2e-12.  disturbance_contradiction reports metrics.c_bar, which is that value, so
        the closed-form cross-check that runs on the metrics before it raises."""
        model = hardy4.build_model(alpha)
        bad = dataclasses.replace(model, w=tuple(k * (1.0 + 1e-12) for k in model.w))
        metrics = hardy4.compute_metrics(bad)
        assert contradiction(bad, metrics).quantum_value == metrics.c_bar
        with pytest.raises(InternalConsistencyError, match="failed for c_bar"):
            hardy4.cross_check(metrics, hardy4.closed_form_metrics(bad.params), bad.params)

    @pytest.mark.parametrize("alpha", SHIFT_ALPHAS)
    def test_shifted_discrepancy_raises(self, alpha):
        """The ket of U 1e-12 off scales P(U1|D1) = (u.d)^2 by 1 + 2e-12."""
        model = hardy4.build_model(alpha)
        metrics = hardy4.compute_metrics(model)
        bad = dataclasses.replace(model, u=tuple(k * (1.0 + 1e-12) for k in model.u))
        with pytest.raises(InternalConsistencyError, match=re.escape("P(U1|D1)")):
            contradiction(bad, metrics)

    @pytest.mark.parametrize("offset", [-1e-6, 1e-9, 2e-9, 1e-6])
    def test_discrepancy_keeps_its_digits_near_maximal_entanglement(self, offset):
        """The discrepancy P(U1|D1) lies within 1e-6 relative of the exact
        (b-a)^2/((b-a)^2+ab) on the same doubles, where 1 - P(1-U1|D1) keeps no digit."""
        model = hardy4.build_model(math.sqrt(0.5) + offset)
        result = contradiction(model)
        a, b = Fraction(model.params.alpha), Fraction(model.params.beta)
        exact = (b - a) ** 2 / ((b - a) ** 2 + a * b)
        assert result.status == "contradiction"
        assert abs(Fraction(result.discrepancy) - exact) <= Fraction(1e-6) * exact

    def test_maximal_entanglement_no_contradiction(self):
        model = hardy4.build_model(1.0 / math.sqrt(2.0))
        result = contradiction(model)
        assert result.status == "no_contradiction"
        # no contradiction: P(1-U1|D1) is 1 to rounding, and the discrepancy is 0
        assert abs(result.quantum_value - 1.0) <= qcore.bound(1.0, 4)
        assert result.discrepancy == 0.0


class TestSweep:
    def test_two_steps_are_endpoints(self):
        grid, _ = hardy4.sweep(0.2, 0.8, 2)
        assert grid.alpha.tolist() == [0.2, 0.8]

    def test_beta_column_is_the_kernels(self):
        """The grid's beta is np.sqrt(1 - alpha^2), the kernel's, which is the float
        pipeline's math.sqrt to the bit: both are correctly rounded."""
        grid, _ = hardy4.sweep(2e-14, 0.9999999999999999, 301)
        assert grid.beta.tobytes() == np.sqrt(1.0 - grid.alpha * grid.alpha).tobytes()
        assert grid.beta.tolist() == [hardy4.HardyParams.from_alpha(a).beta
                                      for a in grid.alpha.tolist()]

    def test_invalid_range(self):
        with pytest.raises(InvalidParameterError):
            hardy4.sweep(0.8, 0.2, 5)
        with pytest.raises(InvalidParameterError):
            hardy4.sweep(0.1, 0.9, 1)

    def test_steps_above_cap_rejected(self):
        with pytest.raises(InvalidParameterError):
            hardy4.sweep(0.1, 0.9, hardy4.MAX_STEPS + 1)

    def test_joint_matches_t_formula(self):
        grid, m = hardy4.sweep(0.1, 0.9, 17)
        for alpha, joint in zip(grid.alpha.tolist(), m.p_joint_D1D2.tolist()):
            t = alpha * math.sqrt(1.0 - alpha * alpha)
            expected = t * t * (1.0 - 2.0 * t) / (1.0 - t) ** 2
            assert joint == pytest.approx(expected, abs=1e-10)

    def test_row_at_maximal_entanglement_is_zero(self):
        _, m = hardy4.sweep(0.5, 1.0 / math.sqrt(2.0), 3)
        assert m.p_joint_D1D2[-1] == pytest.approx(0.0, abs=1e-12)



NEAR_ZERO = [float(x) for x in np.geomspace(2e-14, 0.05, 60)]
# toward 1 - 1e-16, which rounds to 0.9999999999999999
NEAR_ONE = [1.0 - float(x) for x in np.geomspace(1e-16, 0.05, 60)]
NEAR_MAX_ENTANGLEMENT = [float(x) for x in np.linspace(-1e-6, 1e-6, 101) + 1.0 / math.sqrt(2.0)]
UNIFORM = [float(x) for x in np.linspace(0.01, 0.99, 99)]
# the two ends of the valid range and every alpha within 300 ulps of 1/sqrt2
ENDS_AND_ULPS = [2e-14, 0.9999999999999999] + [HALF_SQRT2 + k * math.ulp(HALF_SQRT2)
                                              for k in range(-300, 301)]
# the three rows optimize_paradox checks on the float pipeline
OPTIMIZER = optimizer_alphas()


class TestKernel:
    """metrics_arrays, the array kernel behind hardy --sweep only; hardy --optimize runs
    its three rows on the float pipeline, which the kernel's rows equal to the bit."""

    @pytest.mark.parametrize("grid", [NEAR_ZERO, NEAR_ONE, NEAR_MAX_ENTANGLEMENT, UNIFORM,
                                      ENDS_AND_ULPS, OPTIMIZER],
                             ids=["near_zero", "near_one", "near_max_entanglement", "uniform",
                                  "ends_and_ulps", "optimizer"])
    def test_matches_the_scalar_pipeline(self, grid):
        """Each row of the kernel is compute_metrics on its alpha as a Python float, sign bit
        included: one function body, with math.sqrt for a float and np.sqrt for an array."""
        kernel = hardy4.metrics_arrays(grid)
        for i, alpha in enumerate(grid):
            model = hardy4.build_model(alpha)
            scalar = hardy4.compute_metrics(model)
            assert all(type(k) is float for ket in (model.u, model.d, model.w) for k in ket)
            for name in hardy4._CHECKED_FIELDS:
                value = getattr(scalar, name)
                assert type(value) is float, (alpha, name)
                assert bits(getattr(kernel, name)[i]) == bits(value), (alpha, name)

    @pytest.mark.parametrize("lo, hi, steps", [(0.05, 0.95, 181), (2e-14, 0.9999999999999999, 1001),
                                               (0.1, 0.3, 7), (0.7071067, 0.70710679, 2001),
                                               (0.35392958546780345, 0.9999999999999999, 2)])
    def test_alpha_column_is_the_scalar_grid(self, lo, hi, steps):
        """The formula's points, but none past hi: in the last case the formula's last
        point rounds to 1.0, which is clamped to hi."""
        alphas = hardy4.sweep(lo, hi, steps)[0].alpha.tolist()
        assert alphas == [min(lo + (hi - lo) * i / (steps - 1), hi) for i in range(steps)]

    def test_corrupted_interior_row_raises(self, monkeypatch, capsys):
        matrix_metrics = hardy4._matrix_metrics

        def corrupted(params):
            m = matrix_metrics(params)
            joint = m.p_joint_D1D2.copy()
            joint[4] += 1e-9
            return dataclasses.replace(m, p_joint_D1D2=joint)
        monkeypatch.setattr(hardy4, "_matrix_metrics", corrupted)
        alpha = 0.1 + (0.9 - 0.1) * 4 / 8
        with pytest.raises(InternalConsistencyError, match=f"p_joint_D1D2 at alpha {alpha!r}"):
            hardy4.sweep(0.1, 0.9, 9)
        assert cli.run(["hardy", "--sweep", "--alpha-min", "0.1", "--alpha-max", "0.9",
                        "--steps", "9"]) == 3
        assert "p_joint_D1D2" in capsys.readouterr().err

    def test_zero_probability_row_keeps_the_scalar_message(self, capsys):
        assert cli.run(["hardy", "--sweep", "--alpha-min", "1e-14", "--alpha-max", "0.5",
                        "--steps", "3"]) == 2
        assert capsys.readouterr().err == ("error: cannot condition on D(x)1: probability "
                                           "1.00000000000001e-28 <= 2.0194839173657902e-28\n")

    @pytest.mark.parametrize("bad", [0.0, 1.0, float("nan")])
    def test_invalid_alpha_raises_as_from_alpha(self, bad):
        with pytest.raises(InvalidParameterError, match="strictly in"):
            hardy4.metrics_arrays([0.5, bad])

    def test_blocks_do_not_change_the_rows(self, monkeypatch):
        whole = hardy4.metrics_arrays(UNIFORM)
        monkeypatch.setattr(hardy4, "BLOCK_ROWS", 7)
        blocked = hardy4.metrics_arrays(UNIFORM)
        for name in hardy4._CHECKED_FIELDS:
            assert np.array_equal(getattr(blocked, name), getattr(whole, name)), name

    def test_largest_sweep_over_the_full_range(self):
        """Every row of a MAX_STEPS sweep from 2e-14 to 0.9999999999999999 passes the
        kernel's checks, and <D1D2> is t^2(1-2t)/(1-t)^2 to 1e-12 relative, or to
        1e-15 where 1 - 2t cancels near 1/sqrt2."""
        grid, m = hardy4.sweep(2e-14, 0.9999999999999999, hardy4.MAX_STEPS)
        alpha = grid.alpha
        assert len(alpha) == hardy4.MAX_STEPS
        joint = m.p_joint_D1D2
        t = alpha * np.sqrt(1.0 - alpha * alpha)
        expected = t * t * (1.0 - 2.0 * t) / (1.0 - t) ** 2
        assert np.all(np.abs(joint - expected) <= 1e-12 * expected + 1e-15)


class TestKernelChecks:
    """The kernel's own checks on its kets and its state, which no sweep of valid alphas fails."""

    @pytest.mark.parametrize("component", [0, 1])
    @pytest.mark.parametrize("ket, name", [(0, "U"), (1, "D"), (2, "1-U")])
    def test_a_nan_ket_row_names_its_projector_and_alpha(self, monkeypatch, capsys, ket, name,
                                                         component):
        """A NaN in row 4 of one array ket fails the ket-norm check, which stands for
        validate_projectors on |k><k| and its Kronecker products.  The NaN goes into a copy
        of the component; the kets of a float alpha are left as they are."""
        kets = hardy4._kets

        def nan_row_4(a, b):
            out = kets(a, b)
            if np.ndim(a):
                pair = list(out[ket])
                pair[component] = pair[component].copy()
                pair[component][4] = math.nan
                out = out[:ket] + (tuple(pair),) + out[ket + 1:]
            return out
        monkeypatch.setattr(hardy4, "_kets", nan_row_4)
        alphas = [0.1 + (0.9 - 0.1) * i / 8 for i in range(9)]
        message = f"projector {name!r} is not a rank-1 projector at alpha {alphas[4]!r}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError, match=re.escape(message)):
                hardy4.metrics_arrays(alphas)
            assert cli.run(["hardy", "--sweep", "--alpha-min", "0.1", "--alpha-max", "0.9",
                            "--steps", "9"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_an_unnormalized_state_raises(self):
        a = np.array([0.1, 0.6, 0.9])
        b = np.sqrt(1.0 - a * a)
        with pytest.raises(InvalidParameterError, match="state is not normalized at alpha 0.1"):
            hardy4._matrix_metrics(hardy4.HardyParams(alpha=a, beta=b * (1 + 1e-12)))


class TestOptimizer:
    def test_optimum_against_grid_oracle(self):
        # independent oracle: dense grid over t of t^2(1-2t)/(1-t)^2
        t = np.linspace(1e-6, 0.5, 1_000_000)
        p_grid = float(np.max(t * t * (1.0 - 2.0 * t) / (1.0 - t) ** 2))
        opt = hardy4.optimize_paradox()
        assert opt.p_max == pytest.approx(p_grid, abs=1e-7)

    def test_optimum_against_root_oracle(self):
        # stationary point of the t-formula: t^2 - 3t + 1 = 0
        t_star = (3.0 - math.sqrt(5.0)) / 2.0
        p_star = t_star ** 2 * (1.0 - 2.0 * t_star) / (1.0 - t_star) ** 2
        alpha_star = math.sqrt((1.0 - math.sqrt(1.0 - 4.0 * t_star ** 2)) / 2.0)
        opt = hardy4.optimize_paradox()
        assert opt.p_max == pytest.approx(p_star, abs=1e-10)
        assert opt.alpha_star == pytest.approx(alpha_star, abs=1e-6)

    def test_maximal_entanglement_is_not_optimal(self):
        m = hardy4.build_model(1.0 / math.sqrt(2.0))
        p = hardy4.compute_metrics(m).p_joint_D1D2
        assert p == pytest.approx(0.0, abs=1e-12)
        assert hardy4.optimize_paradox().p_max > p

    def test_no_kernel_call_and_one_cross_check_per_row(self, monkeypatch):
        """The three rows are float rows, each cross-checked against its own closed forms:
        metrics_arrays is not called."""
        kernel_calls, checked = [], []
        cross_check = hardy4.cross_check

        def counted(metrics, closed, params):
            checked.append((params.alpha, type(metrics.p_joint_D1D2)))
            cross_check(metrics, closed, params)
        monkeypatch.setattr(hardy4, "metrics_arrays", lambda alphas: kernel_calls.append(alphas))
        monkeypatch.setattr(hardy4, "cross_check", counted)
        opt = hardy4.optimize_paradox()
        assert kernel_calls == []
        assert checked == [(alpha, float) for alpha in (opt.alpha_star - hardy4.OPT_STEP,
                                                        opt.alpha_star,
                                                        opt.alpha_star + hardy4.OPT_STEP)]

    def test_matrix_pipeline_disagreement_raises(self, monkeypatch):
        shift_optimizer_joint(monkeypatch, 1e-9)
        with pytest.raises(InternalConsistencyError):
            hardy4.optimize_paradox()

    def test_neighbour_above_the_centre_raises(self, monkeypatch):
        # alpha* + h raised by 0.01, above the centre's <D1D2> of about 0.09
        shift_optimizer_joint(monkeypatch, 1e-2, rows=[2])
        with pytest.raises(InternalConsistencyError, match="alpha"):
            hardy4.optimize_paradox()

    def test_flat_neighbourhood_raises(self, monkeypatch):
        # with no step, the neighbours equal the centre instead of lying below it
        monkeypatch.setattr(hardy4, "OPT_STEP", 0.0)
        with pytest.raises(InternalConsistencyError):
            hardy4.optimize_paradox()


class TestValidationsPerCommand:
    """No command builds an operator: each computes its probabilities by the Born rule on
    kets and checks their norms, or builds them as unit kets, so none validates a
    projector."""

    @pytest.mark.parametrize("argv, count", [("hardy --alpha 0.6", 0), ("gedanken", 0),
                                             ("certify --scenario gedanken", 0),
                                             ("hardy --optimize", 0),
                                             ("hardy --sweep --alpha-min 0.1 --alpha-max 0.9 "
                                              "--steps 9", 0),
                                             ("bell --s 0,0,1 --m 1,0,0 --n 0,0,1", 0),
                                             ("bell --scan 100 --seed 5", 0)])
    def test_validate_projectors_calls(self, monkeypatch, argv, count):
        calls = []
        validate = qcore.validate_projectors

        def counted(mats, name=""):
            calls.append(name)
            validate(mats, name)
        monkeypatch.setattr(qcore, "validate_projectors", counted)
        assert cli.run(argv.split()) == 0
        assert len(calls) == count, calls
