import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardylab import bellhv, qcore
from hardylab.bellhv import X_HAT, Y_HAT, Z_HAT, LambdaSet
from hardylab.errors import InvalidParameterError, ZeroProbabilityError

seeds = st.integers(0, 2**32 - 1)


def rand_dir(seed):
    return bellhv.sample_direction(np.random.default_rng(seed))


class TestLambdaSet:
    def test_empty_and_full(self):
        assert LambdaSet.empty().measure == 0.0
        assert LambdaSet.full().measure == 1.0

    def test_half_open_drops_degenerate(self):
        assert LambdaSet(((0.3, 0.3),)).intervals == ()

    def test_rejects_overlap(self):
        with pytest.raises(InvalidParameterError):
            LambdaSet(((0.0, 0.3), (0.2, 0.4)))

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            LambdaSet(((0.0, 0.7),))

    def test_intersection(self):
        a = LambdaSet(((-0.5, 0.1),))
        b = LambdaSet(((0.0, 0.5),))
        assert a.intersection(b).intervals == ((0.0, 0.1),)

    def test_complement_partition(self):
        a = LambdaSet(((-0.3, 0.0), (0.2, 0.4)))
        assert a.measure + a.complement().measure == pytest.approx(1.0, abs=0)

    @settings(max_examples=50)
    @given(s1=seeds, s2=seeds, s3=seeds)
    def test_measure_additivity_exact(self, s1, s2, s3):
        """mu(a&b) + mu(a&~b) == mu(a); the sets partition exactly, the
        measure subtraction rounds once per interval (<= 1 ulp)."""
        s = rand_dir(s1)
        a = bellhv.hv_response(s, rand_dir(s2))
        b = bellhv.hv_response(s, rand_dir(s3))
        lhs = a.intersection(b).measure + a.intersection(b.complement()).measure
        assert abs(lhs - a.measure) <= 1e-15

    def test_contains_half_open(self):
        a = LambdaSet(((0.0, 0.5),))
        assert a.contains(0.0)
        assert not a.contains(0.5)
        assert not a.contains(-0.1)


class TestResponse:
    def test_aligned_full(self):
        assert bellhv.hv_response(Z_HAT, Z_HAT).intervals == ((-0.5, 0.5),)

    def test_anti_aligned_empty(self):
        assert bellhv.hv_response(Z_HAT, -Z_HAT).measure == 0.0

    def test_orthogonal_half(self):
        assert bellhv.hv_response(Z_HAT, X_HAT).intervals == ((0.0, 0.5),)

    def test_non_unit_rejected(self):
        with pytest.raises(InvalidParameterError):
            bellhv.hv_response(np.array([0.0, 0.0, 2.0]), Z_HAT)

    @settings(max_examples=60)
    @given(s1=seeds, s2=seeds)
    def test_interval_form_matches_pointwise_formula(self, s1, s2):
        """Closed-form interval vs the sign formula sampled on a lambda grid."""
        s, m = rand_dir(s1), rand_dir(s2)
        a = bellhv.hv_response(s, m)
        for lam in np.linspace(-0.499, 0.499, 101):
            assert a.contains(lam) == (bellhv.response_value(s, m, lam) == 1.0)

    @settings(max_examples=60)
    @given(s1=seeds, s2=seeds)
    def test_expectation_matches_born(self, s1, s2):
        s, m = rand_dir(s1), rand_dir(s2)
        psi = bellhv.state_from_bloch(s)
        born = qcore.born_probability(psi, bellhv.projector_from_axis(m))
        assert bellhv.hv_expectation(s, m) == pytest.approx(born, abs=1e-12)

    def test_expectation_closed_form(self):
        s, m = rand_dir(11), rand_dir(12)
        assert bellhv.hv_expectation(s, m) == pytest.approx(
            (1.0 + float(np.dot(s, m))) / 2.0, abs=1e-15)


class TestClassicalConditional:
    def test_same_axis_is_one(self):
        s = rand_dir(5)
        m = rand_dir(6)
        assert bellhv.classical_conditional(s, m, m) == 1.0

    def test_aligned_state_agrees_with_quantum(self):
        m, n = rand_dir(7), rand_dir(8)
        classical = bellhv.classical_conditional(m, m, n)
        assert classical == pytest.approx((1.0 + float(np.dot(m, n))) / 2.0, abs=1e-12)

    def test_z_x_z_is_one(self):
        assert bellhv.classical_conditional(Z_HAT, X_HAT, Z_HAT) == 1.0

    def test_zero_measure_conditioning(self):
        with pytest.raises(ZeroProbabilityError):
            bellhv.classical_conditional(Z_HAT, -Z_HAT, X_HAT)


class TestQuantumConditional:
    def test_same_axis_is_one(self):
        assert bellhv.quantum_conditional_qubit(Z_HAT, X_HAT, X_HAT) == pytest.approx(1.0, abs=1e-12)

    def test_z_x_z_is_half(self):
        assert bellhv.quantum_conditional_qubit(Z_HAT, X_HAT, Z_HAT) == pytest.approx(0.5, abs=1e-12)

    def test_anti_aligned_axes_zero(self):
        assert bellhv.quantum_conditional_qubit(Z_HAT, X_HAT, -X_HAT) == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=40)
    @given(s1=seeds, s2=seeds, s3=seeds)
    def test_state_independent_for_rank1_conditioning(self, s1, s2, s3):
        s, m, n = rand_dir(s1), rand_dir(s2), rand_dir(s3)
        q = bellhv.quantum_conditional_qubit(s, m, n)
        assert q == pytest.approx((1.0 + float(np.dot(m, n))) / 2.0, abs=1e-12)


class TestCompare:
    def test_bayes_failure_exhibit(self):
        cmp = bellhv.compare(Z_HAT, X_HAT, Z_HAT)
        assert cmp.quantum == pytest.approx(0.5, abs=1e-12)
        assert cmp.classical == pytest.approx(1.0, abs=1e-12)
        assert cmp.discrepancy == pytest.approx(0.5, abs=1e-12)

    def test_aligned_state_no_discrepancy(self):
        for seed in range(10):
            m, n = rand_dir(seed), rand_dir(seed + 100)
            assert bellhv.compare(m, m, n).discrepancy <= 1e-12

    def test_same_axes_no_discrepancy(self):
        s, m = rand_dir(3), rand_dir(4)
        assert bellhv.compare(s, m, m).discrepancy <= 1e-12

    def test_serialization_keys(self):
        d = bellhv.compare(Z_HAT, X_HAT, Y_HAT).to_dict()
        assert set(d) == {"s", "m", "n", "quantum", "classical", "discrepancy"}


class TestScan:
    def test_single_trial_reproducible(self):
        a = bellhv.scan_discrepancy(1, 42)
        b = bellhv.scan_discrepancy(1, 42)
        assert a.max.to_dict() == b.max.to_dict()
        assert a.histogram == b.histogram

    def test_histogram_totals(self):
        result = bellhv.scan_discrepancy(250, 7)
        assert sum(result.histogram) == 250
        assert len(result.histogram) == 20

    def test_prefix_stability(self):
        """Per-trial sub-seeding: a longer scan extends, not reshuffles."""
        short = bellhv.scan_discrepancy(50, 9)
        long = bellhv.scan_discrepancy(100, 9)
        assert long.max.discrepancy >= short.max.discrepancy

    def test_trials_above_cap_rejected(self):
        with pytest.raises(InvalidParameterError):
            bellhv.scan_discrepancy(bellhv.MAX_TRIALS + 1, 0)

    def test_discrepancies_bounded(self):
        result = bellhv.scan_discrepancy(200, 1)
        assert 0.0 <= result.max.discrepancy <= 1.0


class TestMalley:
    def test_noncommuting_finds_violation(self):
        result = bellhv.malley_search(X_HAT, Z_HAT, 100, 42)
        assert result.violating_s is not None
        assert result.discrepancy > 1e-6

    def test_commuting_same_axis(self):
        result = bellhv.malley_search(Z_HAT, Z_HAT, 200, 42)
        assert result.violating_s is None
        assert result.discrepancy <= 1e-12

    def test_commuting_opposite_axis(self):
        result = bellhv.malley_search(Z_HAT, -Z_HAT, 200, 42)
        assert result.violating_s is None
        assert result.discrepancy <= 1e-12


class TestMonteCarlo:
    def test_trivial_triple(self):
        s = rand_dir(2)
        mc = bellhv.monte_carlo_check(s, s, s, 1000, 0)
        assert mc.classical_estimate == 1.0
        assert mc.exact == 1.0
        assert mc.passed

    def test_z_x_z(self):
        mc = bellhv.monte_carlo_check(Z_HAT, X_HAT, Z_HAT, 100_000, 42)
        assert mc.passed
        assert np.isfinite(mc.z_score)

    def test_generic_triples_pass(self):
        for seed in range(5):
            s, m, n = rand_dir(seed), rand_dir(seed + 50), rand_dir(seed + 99)
            mc = bellhv.monte_carlo_check(s, m, n, 20_000, seed)
            assert mc.passed, (seed, mc)
            assert np.isfinite(mc.z_score)

    def test_sample_floor(self):
        with pytest.raises(InvalidParameterError):
            bellhv.monte_carlo_check(Z_HAT, X_HAT, Z_HAT, 10, 0)

    def test_samples_above_cap_rejected(self):
        with pytest.raises(InvalidParameterError):
            bellhv.monte_carlo_check(Z_HAT, X_HAT, Z_HAT, bellhv.MAX_SAMPLES + 1, 0)
