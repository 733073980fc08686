import dataclasses
import decimal
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hardylab import cli, hardy4, qcore
from hardylab.errors import InternalConsistencyError, InvalidParameterError

alphas = st.floats(min_value=0.05, max_value=0.95)

# log grids toward 0 and 1, and 1/sqrt2 +- 1e-16 .. 1e-2
OPERATOR_GRID = ([10.0 ** -k for k in range(1, 16)] + [1.0 - 10.0 ** -k for k in range(1, 16)]
                 + [1.0 / math.sqrt(2.0) + sign * 10.0 ** k
                    for k in range(-16, -1) for sign in (1.0, -1.0)])


def one_by_one_operators(params: hardy4.HardyParams) -> dict[str, qcore.Projector]:
    """HardyModel's operator fields as one validated Projector each, from np.outer,
    np.kron, @ and np.eye(4) - U1."""
    a, b = params.alpha, params.beta

    def ket_projector(ket, name):
        k = qcore.StateVector.normalize(ket).amplitudes
        return qcore.Projector(np.outer(k, k.conj()), name=name)

    u_ket, d_ket = hardy4._local_kets(a, b)
    u, d = ket_projector(u_ket, "U"), ket_projector(d_ket, "D")
    eye = np.eye(2)
    u1, u2 = np.kron(u.matrix, eye), np.kron(eye, u.matrix)
    d1, d2 = np.kron(d.matrix, eye), np.kron(eye, d.matrix)
    return {"u_local": u, "d_local": d,
            "u_perp_local": ket_projector(hardy4._u_perp_ket(a, b), "1-U"),
            "U1": qcore.Projector(u1, "U(x)1"), "U2": qcore.Projector(u2, "1(x)U"),
            "D1": qcore.Projector(d1, "D(x)1"), "D2": qcore.Projector(d2, "1(x)D"),
            "U1U2": qcore.Projector(u1 @ u2, "U1U2"),
            "D1D2": qcore.Projector(d1 @ d2, "D1D2"),
            "U1_perp": qcore.Projector(np.eye(4) - u1, "1-U(x)1")}


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
        assert m.u_local.trace == pytest.approx(1.0, abs=1e-12)
        assert m.d_local.trace == pytest.approx(1.0, abs=1e-12)

    def test_u_d_orthogonal_at_maximal_entanglement(self):
        m = hardy4.build_model(1.0 / math.sqrt(2.0))
        overlap = np.trace(m.u_local.matrix @ m.d_local.matrix).real
        assert overlap == pytest.approx(0.0, abs=1e-12)

    def test_party_locality(self):
        m = hardy4.build_model(0.6)
        for a, b in [(m.D1, m.U2), (m.D2, m.U1), (m.D1, m.D2), (m.U1, m.U2)]:
            assert qcore.commutator_norm(a, b) <= 1e-12

    @pytest.mark.parametrize("alpha", OPERATOR_GRID)
    def test_operators_are_those_of_one_by_one_construction(self, alpha):
        """build_model's stacked operators equal, to the bit and by name, the Projectors
        of np.outer, np.kron, @ and np.eye(4) - U1, each validated alone."""
        model = hardy4.build_model(alpha)
        for field, want in one_by_one_operators(model.params).items():
            got = getattr(model, field)
            assert got.name == want.name, field
            assert np.array_equal(got.matrix, want.matrix), (alpha, field)


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
    def test_d1_d2_symmetric(self, alpha):
        m = hardy4.build_model(alpha)
        p1 = qcore.born_probability(m.psi, m.D1)
        p2 = qcore.born_probability(m.psi, m.D2)
        assert p1 == pytest.approx(p2, abs=1e-12)

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


def shift_kernel_joint(monkeypatch, shift, rows=slice(None)):
    """Add `shift` to the kernel's <D1D2> in `rows`, after its own cross-check."""
    kernel = hardy4.metrics_arrays

    def shifted(alphas):
        m = kernel(alphas)
        joint = m.p_joint_D1D2.copy()
        joint[rows] += shift
        return dataclasses.replace(m, p_joint_D1D2=joint)
    monkeypatch.setattr(hardy4, "metrics_arrays", shifted)


HALF_SQRT2 = math.sqrt(0.5)
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
    """Each pipeline on its own against exact rational arithmetic, within the bound
    cross_check allows: the closed forms, the scalar matrix pipeline and the array kernel.
    The irrational commutator must lie within it of both ends of its 60-digit bracket."""

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
                     "scalar": hardy4.compute_metrics(hardy4.build_model(alpha)),
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
        shift_kernel_joint(monkeypatch, 1e-14)
        with pytest.raises(InternalConsistencyError, match="p_max"):
            hardy4.optimize_paradox()


class TestContradiction:
    def test_alpha_06(self):
        model = hardy4.build_model(0.6)
        result = hardy4.disturbance_contradiction(model, hardy4.compute_metrics(model))
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
            result = hardy4.disturbance_contradiction(model, hardy4.compute_metrics(model))
            c_bar = hardy4.closed_form_metrics(model.params).c_bar
            assert abs(result.quantum_value - c_bar) <= qcore.bound(c_bar, 4), alpha

    @pytest.mark.parametrize("alpha", SHIFT_ALPHAS)
    def test_shifted_quantum_value_raises(self, monkeypatch, alpha):
        model = hardy4.build_model(alpha)
        metrics = hardy4.compute_metrics(model)
        conditional = qcore.conditional_probability
        monkeypatch.setattr(qcore, "conditional_probability",
                            lambda *args: conditional(*args) * (1.0 + 1e-12))
        with pytest.raises(InternalConsistencyError, match=re.escape("P(1-U1|D1)")):
            hardy4.disturbance_contradiction(model, metrics)

    @pytest.mark.parametrize("alpha", SHIFT_ALPHAS)
    def test_shifted_discrepancy_raises(self, monkeypatch, alpha):
        model = hardy4.build_model(alpha)
        metrics = hardy4.compute_metrics(model)
        conditional = qcore.conditional_probability
        monkeypatch.setattr(qcore, "conditional_probability", lambda psi, a, b: conditional(
            psi, a, b) * (1.0 + 1e-12 if b is model.U1 else 1.0))
        with pytest.raises(InternalConsistencyError, match=re.escape("P(U1|D1)")):
            hardy4.disturbance_contradiction(model, metrics)

    @pytest.mark.parametrize("offset", [-1e-6, 1e-9, 2e-9, 1e-6])
    def test_discrepancy_keeps_its_digits_near_maximal_entanglement(self, offset):
        """The discrepancy P(U1|D1) lies within 1e-6 relative of the exact
        (b-a)^2/((b-a)^2+ab) on the same doubles, where 1 - P(1-U1|D1) keeps no digit."""
        model = hardy4.build_model(math.sqrt(0.5) + offset)
        result = hardy4.disturbance_contradiction(model, hardy4.compute_metrics(model))
        a, b = Fraction(model.params.alpha), Fraction(model.params.beta)
        exact = (b - a) ** 2 / ((b - a) ** 2 + a * b)
        assert result.status == "contradiction"
        assert abs(Fraction(result.discrepancy) - exact) <= Fraction(1e-6) * exact

    def test_maximal_entanglement_no_contradiction(self):
        model = hardy4.build_model(1.0 / math.sqrt(2.0))
        result = hardy4.disturbance_contradiction(model, hardy4.compute_metrics(model))
        assert result.status == "no_contradiction"
        # no contradiction: P(1-U1|D1) is 1 to rounding, and the discrepancy is 0
        assert abs(result.quantum_value - 1.0) <= qcore.bound(1.0, 4)
        assert result.discrepancy == 0.0


class TestSweep:
    def test_two_steps_are_endpoints(self):
        rows = hardy4.sweep(0.2, 0.8, 2)
        assert [a for a, _ in rows] == [0.2, 0.8]

    def test_invalid_range(self):
        with pytest.raises(InvalidParameterError):
            hardy4.sweep(0.8, 0.2, 5)
        with pytest.raises(InvalidParameterError):
            hardy4.sweep(0.1, 0.9, 1)

    def test_steps_above_cap_rejected(self):
        with pytest.raises(InvalidParameterError):
            hardy4.sweep(0.1, 0.9, hardy4.MAX_STEPS + 1)

    def test_joint_matches_t_formula(self):
        for alpha, m in hardy4.sweep(0.1, 0.9, 17):
            t = alpha * math.sqrt(1.0 - alpha * alpha)
            expected = t * t * (1.0 - 2.0 * t) / (1.0 - t) ** 2
            assert m.p_joint_D1D2 == pytest.approx(expected, abs=1e-10)

    def test_row_at_maximal_entanglement_is_zero(self):
        rows = hardy4.sweep(0.5, 1.0 / math.sqrt(2.0), 3)
        assert rows[-1][1].p_joint_D1D2 == pytest.approx(0.0, abs=1e-12)

    def test_csv_digits_are_format_15g(self):
        rows = hardy4.sweep(2e-14, 0.9999999999999999, 301)
        for line, (alpha, m) in zip(hardy4.sweep_csv_rows(rows)[1:], rows):
            values = (alpha, math.sqrt(1.0 - alpha * alpha), m.p_D1, m.p_cond_D2_given_D1,
                      m.p_cond_U2_given_D1, m.p_cond_U1_given_D2, m.p_joint_U1U2,
                      m.p_joint_D1D2, m.c_bar, m.commutator_D1U1)
            assert line == ",".join(format(v, ".15g") for v in values)

    def test_csv_layout(self):
        lines = hardy4.sweep_csv_rows(hardy4.sweep(0.2, 0.8, 4))
        assert lines[0] == hardy4.CSV_HEADER
        assert len(lines) == 5
        assert all(len(line.split(",")) == 10 for line in lines[1:])


NEAR_ZERO = [float(x) for x in np.geomspace(2e-14, 0.05, 60)]
# toward 1 - 1e-16, which rounds to 0.9999999999999999
NEAR_ONE = [1.0 - float(x) for x in np.geomspace(1e-16, 0.05, 60)]
NEAR_MAX_ENTANGLEMENT = [float(x) for x in np.linspace(-1e-6, 1e-6, 101) + 1.0 / math.sqrt(2.0)]
UNIFORM = [float(x) for x in np.linspace(0.01, 0.99, 99)]


class TestKernel:
    """metrics_arrays, the array kernel behind hardy --sweep and hardy --optimize."""

    @pytest.mark.parametrize("grid", [NEAR_ZERO, NEAR_ONE, NEAR_MAX_ENTANGLEMENT, UNIFORM],
                             ids=["near_zero", "near_one", "near_max_entanglement", "uniform"])
    def test_matches_the_scalar_pipeline(self, grid):
        kernel = hardy4.metrics_arrays(grid)
        for i, alpha in enumerate(grid):
            model = hardy4.build_model(alpha)
            scalar, closed = hardy4.compute_metrics(model), hardy4.closed_form_metrics(model.params)
            for name in hardy4._CHECKED_FIELDS:
                got, want = getattr(kernel, name)[i], getattr(scalar, name)
                assert abs(got - want) <= hardy4._bound(name, getattr(closed, name),
                                                        model.params), (alpha, name)

    @pytest.mark.parametrize("lo, hi, steps", [(0.05, 0.95, 181), (2e-14, 0.9999999999999999, 1001),
                                               (0.1, 0.3, 7), (0.7071067, 0.70710679, 2001),
                                               (0.35392958546780345, 0.9999999999999999, 2)])
    def test_alpha_column_is_the_scalar_grid(self, lo, hi, steps):
        """The formula's points, but none past hi: in the last case the formula's last
        point rounds to 1.0, which is clamped to hi."""
        alphas = [alpha for alpha, _ in hardy4.sweep(lo, hi, steps)]
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

    def test_zero_probability_the_scalar_pipeline_does_not_see_raises(self, monkeypatch):
        monkeypatch.setattr(hardy4, "compute_metrics", lambda model: None)
        with pytest.raises(InternalConsistencyError, match="scalar pipeline does not"):
            hardy4.metrics_arrays([0.5, 1e-14])

    @pytest.mark.parametrize("bad", [0.0, 1.0, float("nan")])
    def test_invalid_alpha_raises_as_from_alpha(self, bad):
        with pytest.raises(InvalidParameterError, match="strictly in"):
            hardy4.metrics_arrays([0.5, bad])

    def test_endpoint_disagreement_with_the_scalar_pipeline_raises(self, monkeypatch):
        compute = hardy4.compute_metrics
        monkeypatch.setattr(hardy4, "compute_metrics", lambda model: dataclasses.replace(
            compute(model), c_bar=compute(model).c_bar * (1.0 + 1e-12)))
        with pytest.raises(InternalConsistencyError, match="scalar cross-check failed for c_bar"):
            hardy4.sweep(0.2, 0.8, 5)

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
        rows = hardy4.sweep(2e-14, 0.9999999999999999, hardy4.MAX_STEPS)
        assert len(rows) == hardy4.MAX_STEPS
        alpha = np.array([a for a, _ in rows])
        joint = np.array([m.p_joint_D1D2 for _, m in rows])
        t = alpha * np.sqrt(1.0 - alpha * alpha)
        expected = t * t * (1.0 - 2.0 * t) / (1.0 - t) ** 2
        assert np.all(np.abs(joint - expected) <= 1e-12 * expected + 1e-15)


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

    def test_one_kernel_call_over_the_three_alphas(self, monkeypatch):
        calls = []
        kernel = hardy4.metrics_arrays

        def counted(alphas):
            calls.append(list(alphas))
            return kernel(alphas)
        monkeypatch.setattr(hardy4, "metrics_arrays", counted)
        opt = hardy4.optimize_paradox()
        assert len(calls) == 1
        assert calls[0] == [opt.alpha_star - hardy4.OPT_STEP, opt.alpha_star,
                            opt.alpha_star + hardy4.OPT_STEP]

    def test_matrix_pipeline_disagreement_raises(self, monkeypatch):
        shift_kernel_joint(monkeypatch, 1e-9)
        with pytest.raises(InternalConsistencyError):
            hardy4.optimize_paradox()

    def test_neighbour_above_the_centre_raises(self, monkeypatch):
        # alpha* + h raised by 0.01, above the centre's <D1D2> of about 0.09
        shift_kernel_joint(monkeypatch, 1e-2, rows=2)
        with pytest.raises(InternalConsistencyError, match="alpha"):
            hardy4.optimize_paradox()

    def test_flat_neighbourhood_raises(self, monkeypatch):
        # with no step, the neighbours equal the centre instead of lying below it
        monkeypatch.setattr(hardy4, "OPT_STEP", 0.0)
        with pytest.raises(InternalConsistencyError):
            hardy4.optimize_paradox()


class TestValidationsPerCommand:
    """Each command validates its projector families as stacks, not one Projector at a
    time.  hardy --optimize runs the array kernel, which validates each of its nine
    (N, d, d) operator stacks on its own: one call over all six (N, 4, 4) stacks
    at once measured slower on a 1,024-row block."""

    @pytest.mark.parametrize("argv, count", [("hardy --alpha 0.6", 2), ("gedanken", 2),
                                             ("certify --scenario gedanken", 2),
                                             ("hardy --optimize", 9),
                                             ("bell --s 0,0,1 --m 1,0,0 --n 0,0,1", 1),
                                             ("bell --scan 100 --seed 5", 1)])
    def test_validate_projectors_calls(self, monkeypatch, argv, count):
        calls = []
        validate = qcore.validate_projectors

        def counted(mats, name=""):
            calls.append(name)
            validate(mats, name)
        monkeypatch.setattr(qcore, "validate_projectors", counted)
        assert cli.run(argv.split()) == 0
        assert len(calls) == count, calls
