import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardylab import bellhv, cli, qcore
from hardylab.bellhv import X_HAT, Y_HAT, Z_HAT, LambdaSet
from hardylab.errors import InvalidParameterError, ZeroProbabilityError

seeds = st.integers(0, 2**32 - 1)
PAULI = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.array([[1, 0], [0, -1]]))


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


class TestProjectorFromAxis:
    def test_equals_the_sigma_sum(self):
        """The literal [[1+z, x-iy], [x+iy, 1-z]]/2 is (1 + m.sigma)/2 by value."""
        rng = np.random.default_rng(17)
        axes = [bellhv.sample_direction(rng) for _ in range(1000)]
        axes += [sign * e for e in (X_HAT, Y_HAT, Z_HAT) for sign in (1.0, -1.0)]
        for m in axes:
            expected = 0.5 * (np.eye(2) + m[0] * PAULI[0] + m[1] * PAULI[1] + m[2] * PAULI[2])
            assert np.array_equal(bellhv.projector_from_axis(m).matrix, expected), m

    def test_default_name(self):
        assert bellhv.projector_from_axis(-X_HAT).name == "P(-1,-0,-0)"
        assert bellhv.projector_from_axis(Z_HAT, "P_m").name == "P_m"


class TestUnitVector:
    @pytest.mark.parametrize("bad", [[math.nan, 0.0, 1.0], [0.0, math.inf, 0.0],
                                     [0.0, 0.0, -math.inf]], ids=str)
    @pytest.mark.parametrize("call", [
        lambda v: bellhv.unit_vector(v),
        lambda v: bellhv.classical_conditional(v, X_HAT, Z_HAT),
        lambda v: bellhv.classical_conditional(Z_HAT, v, Z_HAT),
        lambda v: bellhv.quantum_conditional_qubit(Z_HAT, X_HAT, v),
        lambda v: bellhv.monte_carlo_check(v, X_HAT, Z_HAT, 1000, 0),
    ], ids=["unit_vector", "classical s", "classical m", "quantum n", "monte_carlo s"])
    def test_non_finite_component_rejected(self, call, bad):
        with pytest.raises(InvalidParameterError, match=re.escape(f"Bloch vector {bad}")):
            call(np.array(bad))


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
        """Trial i owns draws 6i..6i+5 of the seed's stream: a longer scan
        extends a shorter one, not reshuffles it."""
        short = bellhv.scan_discrepancy(50, 9)
        long = bellhv.scan_discrepancy(100, 9)
        assert long.max.discrepancy >= short.max.discrepancy

    def test_trials_above_cap_rejected(self):
        with pytest.raises(InvalidParameterError):
            bellhv.scan_discrepancy(bellhv.MAX_TRIALS + 1, 0)

    def test_discrepancies_bounded(self):
        result = bellhv.scan_discrepancy(200, 1)
        assert 0.0 <= result.max.discrepancy <= 1.0


class TestStateFromBloch:
    def test_bloch_vector_within_the_bound(self):
        """<psi|sigma|psi> of the closed-form ket is s, on both branches and at the poles."""
        rng = np.random.default_rng(23)
        axes = [bellhv.sample_direction(rng) for _ in range(1000)]
        axes += [sign * e for e in (X_HAT, Y_HAT, Z_HAT) for sign in (1.0, -1.0)]
        z = 1.0 - 2.0**-52
        axes += [np.array([math.sqrt(1.0 - z * z), 0.0, sign * z]) for sign in (1.0, -1.0)]
        tol = qcore.bound(1.0, 2)
        for s in axes:
            amps = bellhv.state_from_bloch(s).amplitudes
            bloch = np.array([np.vdot(amps, p @ amps).real for p in PAULI])
            assert np.all(np.abs(bloch - s) <= tol), s


def scalar_draws(seed, trials, count=3):
    """sample_direction on each trial's own stream, one trial at a time."""
    out = []
    for i in range(trials):
        rng = bellhv._trial_rng(seed, i)
        out.append([bellhv.sample_direction(rng) for _ in range(count)])
    return np.array(out)


def agrees_with_compare(s, m, n, quantum, classical, measure):
    if measure <= bellhv.MIN_MEASURE:  # both sides refuse an empty conditioning set
        with pytest.raises(ZeroProbabilityError):
            bellhv.compare(s, m, n)
        return True
    cmp = bellhv.compare(s, m, n)
    tol = qcore.bound(1.0, 2, 1.0 + 1.0 / measure)
    return abs(cmp.quantum - quantum) <= tol and abs(cmp.classical - classical) <= tol


class TestScanKernel:
    @pytest.mark.parametrize("seed", [0, 9, 42, 2**32 - 1])
    def test_directions_are_the_scalar_draws(self, seed):
        assert np.array_equal(bellhv._trial_directions(seed, range(400), 3),
                              scalar_draws(seed, 400))

    def test_blocks_are_the_scalar_draws_across_a_chunk_boundary(self, monkeypatch):
        """malley_search's path: one direction per trial, SCAN_CHUNK trials at a time."""
        monkeypatch.setattr(bellhv, "SCAN_CHUNK", 7)
        blocks = list(bellhv._blocks(20))
        assert [(b.start, b.stop) for b in blocks] == [(0, 7), (7, 14), (14, 20)]
        for block in blocks:
            assert np.array_equal(bellhv._trial_directions(9, block, 1),
                                  np.array([bellhv._trial_draws(9, i, 1) for i in block]))

    def test_one_stream_per_seed(self):
        """Trial 0 starts default_rng(seed)'s stream, and trial i + 1 follows trial i."""
        rng = np.random.default_rng(11)
        stream = [bellhv.sample_direction(rng) for _ in range(9)]
        assert np.array_equal(bellhv._trial_directions(11, range(3), 3).reshape(9, 3), stream)

    def test_shorter_scan_rows_are_a_prefix(self):
        long = bellhv._trial_directions(7, range(300), 3)
        assert np.array_equal(bellhv._trial_directions(7, range(120), 3), long[:120])
        assert np.array_equal(bellhv._trial_directions(7, range(120, 300), 3), long[120:])
        rows = [bellhv.conditional_rows(*d.transpose(1, 0, 2)) for d in (long[:120], long)]
        assert all(np.array_equal(short, full[:120]) for short, full in zip(*rows))

    def test_rows_agree_with_compare(self):
        """Random triples plus s = +-m, n = +-m and s orthogonal to m."""
        rng = np.random.default_rng(2024)
        s, m, n = (np.array([bellhv.sample_direction(rng) for _ in range(2000)]) for _ in range(3))
        special = []
        for i in range(100):
            a, b = s[i], n[i]
            ortho = np.cross(a, b) / np.linalg.norm(np.cross(a, b))
            special += [(a, a, b), (-a, a, b), (a, b, b), (a, b, -b), (ortho, a, b),
                        (a, ortho, b)]
        special += [(Z_HAT, X_HAT, Z_HAT), (X_HAT, Z_HAT, Y_HAT), (Z_HAT, Z_HAT, -Z_HAT),
                    (Y_HAT, X_HAT, -X_HAT), (-Z_HAT, Y_HAT, Z_HAT)]
        # s.m exactly 0, s.n neither 0 nor +-1: the sign(0) = +1 branch decides the value
        for n_row in ([0.6, 0.0, 0.8], [0.6, 0.0, -0.8], [-0.28, 0.0, 0.96]):
            special += [(Z_HAT, X_HAT, np.array(n_row)), (Z_HAT, -X_HAT, np.array(n_row))]
        s, m, n = (np.concatenate([col, np.array(extra)])
                   for col, extra in zip((s, m, n), zip(*special)))
        rows = bellhv.conditional_rows(s, m, n)
        assert len(rows[0]) >= 2000
        assert all(agrees_with_compare(*triple, *values)
                   for triple, values in zip(zip(s, m, n), zip(*rows)))

    @pytest.mark.parametrize("seed, trials", [(0, 1), (5, 37), (42, 300), (2**32 - 1, 64)])
    def test_scan_equals_a_scalar_loop(self, seed, trials):
        bins = [0] * 20
        best = None
        for s, m, n in scalar_draws(seed, trials):
            cmp = bellhv.compare(s, m, n)
            bins[min(int(cmp.discrepancy * 20.0), 19)] += 1
            if best is None or cmp.discrepancy > best.discrepancy:
                best = cmp
        result = bellhv.scan_discrepancy(trials, seed)
        assert result.histogram == tuple(bins)
        assert result.max.to_dict() == best.to_dict()

    def test_rechecks_the_maximum_and_seeded_rows(self, monkeypatch):
        seed, trials = 8, 200
        draws = scalar_draws(seed, trials)
        expected = [int(np.argmax([bellhv.compare(*t).discrepancy for t in draws]))]
        after_last_trial = bellhv._trial_rng(seed, trials)
        expected += list(after_last_trial.integers(trials, size=bellhv.SCAN_RECHECKS))
        checked = []
        compare = bellhv.compare

        def spy(s, m, n):
            checked.append(s)
            return compare(s, m, n)
        monkeypatch.setattr(bellhv, "compare", spy)
        bellhv.scan_discrepancy(trials, seed)
        assert np.array_equal(checked, draws[expected, 0])

    def test_seed_42_golden(self):
        """Pins the stream layout: a change to it must edit this test."""
        result = bellhv.scan_discrepancy(1000, 42)
        assert result.histogram == (99, 110, 101, 86, 64, 68, 63, 53, 59, 43,
                                    39, 39, 29, 42, 33, 20, 15, 20, 13, 4)
        assert result.max.to_dict() == bellhv.compare(*bellhv._trial_draws(42, 482, 3)).to_dict()

    def test_blocks_do_not_change_the_result(self, monkeypatch):
        whole = bellhv.scan_discrepancy(100, 3)
        monkeypatch.setattr(bellhv, "SCAN_CHUNK", 7)
        blocked = bellhv.scan_discrepancy(100, 3)
        assert blocked.histogram == whole.histogram
        assert blocked.max.to_dict() == whole.max.to_dict()

    @pytest.mark.parametrize("side", [0, 1])
    def test_kernel_off_by_1e9_exits_3(self, capsys, monkeypatch, side):
        kernel = bellhv.conditional_rows

        def off(s, m, n):
            rows = [r.copy() for r in kernel(s, m, n)]
            rows[side] += 1e-9
            return tuple(rows)
        monkeypatch.setattr(bellhv, "conditional_rows", off)
        assert cli.run(["bell", "--scan", "100"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("internal cross-check failed: closed-form row")

    @pytest.mark.parametrize("side", ["quantum", "classical"])
    def test_nan_recheck_exits_3(self, capsys, monkeypatch, side):
        """A NaN residual fails the re-check: it is not <= any bound."""
        compare = bellhv.compare
        monkeypatch.setattr(bellhv, "compare", lambda s, m, n: dataclasses.replace(
            compare(s, m, n), **{side: math.nan}))
        assert cli.run(["bell", "--scan", "100"]) == 3
        assert capsys.readouterr().err.startswith("internal cross-check failed: closed-form row")

    def test_empty_conditioning_row_raises_the_scalar_message(self, monkeypatch):
        s, n = rand_dir(1), rand_dir(2)
        rows = np.array([[s, rand_dir(3), n], [Z_HAT, -Z_HAT, n], [s, -s, n]])
        monkeypatch.setattr(bellhv, "_trial_directions", lambda seed, trials, count: rows)
        with pytest.raises(ZeroProbabilityError) as scalar:
            bellhv.compare(Z_HAT, -Z_HAT, n)
        with pytest.raises(ZeroProbabilityError) as scan:
            bellhv.scan_discrepancy(3, 0)
        assert str(scan.value) == str(scalar.value) == (
            "conditioning set for m=[-0.0, -0.0, -1.0] has hidden-variable measure 0.0 <= 1e-14")


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
