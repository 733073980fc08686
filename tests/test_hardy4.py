import dataclasses
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardylab import hardy4, qcore
from hardylab.errors import InternalConsistencyError, InvalidParameterError

alphas = st.floats(min_value=0.05, max_value=0.95)


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
        compute = hardy4.compute_metrics

        def shifted(model):
            m = compute(model)
            return dataclasses.replace(m, p_joint_D1D2=m.p_joint_D1D2 + 1e-14)
        monkeypatch.setattr(hardy4, "compute_metrics", shifted)
        with pytest.raises(InternalConsistencyError, match="p_max"):
            hardy4.optimize_paradox()


class TestContradiction:
    def test_alpha_06(self):
        result = hardy4.disturbance_contradiction(hardy4.build_model(0.6))
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
            result = hardy4.disturbance_contradiction(model)
            c_bar = hardy4.closed_form_metrics(model.params).c_bar
            assert abs(result.quantum_value - c_bar) <= qcore.bound(c_bar, 4), alpha

    @pytest.mark.parametrize("alpha", SHIFT_ALPHAS)
    def test_shifted_quantum_value_raises(self, monkeypatch, alpha):
        model = hardy4.build_model(alpha)
        conditional = qcore.conditional_probability
        monkeypatch.setattr(qcore, "conditional_probability",
                            lambda *args: conditional(*args) * (1.0 + 1e-12))
        with pytest.raises(InternalConsistencyError, match=re.escape("P(1-U1|D1)")):
            hardy4.disturbance_contradiction(model)

    def test_maximally_entangled_no_contradiction(self):
        result = hardy4.disturbance_contradiction(hardy4.build_model(1.0 / math.sqrt(2.0)))
        assert result.status == "no_contradiction"
        assert result.quantum_value is None


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

    def test_csv_layout(self):
        lines = hardy4.sweep_csv_rows(hardy4.sweep(0.2, 0.8, 4))
        assert lines[0] == hardy4.CSV_HEADER
        assert len(lines) == 5
        assert all(len(line.split(",")) == 10 for line in lines[1:])


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

    def test_three_model_builds(self, monkeypatch):
        calls = []
        build = hardy4.build_model

        def counted(alpha):
            calls.append(alpha)
            return build(alpha)
        monkeypatch.setattr(hardy4, "build_model", counted)
        opt = hardy4.optimize_paradox()
        assert len(calls) == 3
        assert calls[1] == opt.alpha_star

    def test_matrix_pipeline_disagreement_raises(self, monkeypatch):
        compute = hardy4.compute_metrics

        def shifted(model):
            m = compute(model)
            return dataclasses.replace(m, p_joint_D1D2=m.p_joint_D1D2 + 1e-9)
        monkeypatch.setattr(hardy4, "compute_metrics", shifted)
        with pytest.raises(InternalConsistencyError):
            hardy4.optimize_paradox()

    def test_flat_neighbourhood_raises(self, monkeypatch):
        # with no step, the neighbours equal the centre instead of lying below it
        monkeypatch.setattr(hardy4, "OPT_STEP", 0.0)
        with pytest.raises(InternalConsistencyError):
            hardy4.optimize_paradox()
