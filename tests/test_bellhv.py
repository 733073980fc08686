import dataclasses
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardylab import bellhv, cli, qcore
from hardylab.bellhv import LambdaSet
from hardylab.errors import InvalidParameterError, ZeroProbabilityError

seeds = st.integers(0, 2**32 - 1)
X_HAT = np.array([1.0, 0.0, 0.0])
Y_HAT = np.array([0.0, 1.0, 0.0])
Z_HAT = np.array([0.0, 0.0, 1.0])
PAULI = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.array([[1, 0], [0, -1]]))


def rand_dir(seed):
    return bellhv.sample_direction(np.random.default_rng(seed))


class TestLambdaSet:
    def test_empty_and_full(self):
        """An interval with hi <= lo is empty: measure 0.0, not a negative length."""
        assert LambdaSet(0.5, -0.5).measure == 0.0
        assert LambdaSet(-0.5, 0.5).measure == 1.0

    def test_half_open_drops_degenerate(self):
        """An empty interval is never range-checked, however far outside its ends lie."""
        assert LambdaSet(0.3, 0.3).measure == 0.0
        assert LambdaSet(0.7, -0.7).measure == 0.0

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidParameterError,
                           match=re.escape("interval [0.0, 0.7) outside [-1/2, 1/2]")):
            LambdaSet(0.0, 0.7)
        with pytest.raises(InvalidParameterError):
            LambdaSet(-0.5 - 2e-15, 0.0)
        assert LambdaSet(-0.5 - 1e-16, 0.5 + 1e-16).measure == 1.0 + 2e-16

    def test_intersection(self):
        a = LambdaSet(-0.5, 0.1)
        b = LambdaSet(0.0, 0.5)
        assert a.intersection(b) == LambdaSet(0.0, 0.1)
        assert a.intersection(LambdaSet(0.2, 0.5)).measure == 0.0

    @settings(max_examples=50)
    @given(s1=seeds, s2=seeds, s3=seeds)
    def test_measure_additivity_exact(self, s1, s2, s3):
        """mu(a&b) + mu(a&~b) == mu(a); a response set touches one end of [-1/2, 1/2],
        so its complement is one interval too.  The sets partition exactly, the measure
        subtraction rounds once per interval (<= 1 ulp)."""
        s = rand_dir(s1)
        a = bellhv.hv_response(s, rand_dir(s2))
        b = bellhv.hv_response(s, rand_dir(s3))
        not_b = LambdaSet(-0.5, b.lo) if b.hi == 0.5 else LambdaSet(b.hi, 0.5)
        lhs = a.intersection(b).measure + a.intersection(not_b).measure
        assert abs(lhs - a.measure) <= 1e-15

    @settings(max_examples=50)
    @given(s1=seeds, s2=seeds)
    def test_complement_partition(self, s1, s2):
        """A response set touches one end of [-1/2, 1/2], so its complement there is the
        one interval on the other side of its inner end; the two measures sum to 1."""
        s = rand_dir(s1)
        for m in (rand_dir(s2), s, -s):
            a = bellhv.hv_response(s, m)
            assert a.lo == -0.5 or a.hi == 0.5
            rest = LambdaSet(-0.5, a.lo) if a.hi == 0.5 else LambdaSet(a.hi, 0.5)
            assert a.intersection(rest).measure == 0.0
            assert abs(a.measure + rest.measure - 1.0) <= 1e-15

    @settings(max_examples=50)
    @given(s1=seeds, s2=seeds)
    def test_contains_half_open(self, s1, s2):
        """The inner end is half-open as the pointwise response is: lo is in, hi is out."""
        s, m = rand_dir(s1), rand_dir(s2)
        for a, v in ((bellhv.hv_response(s, m), m), (bellhv.hv_response(s, -m), -m)):
            lo_is_inner = a.hi == 0.5
            inner = a.lo if lo_is_inner else a.hi
            below = np.nextafter(inner, -1.0)
            assert bellhv.response_value(s, v, inner) == (1.0 if lo_is_inner else 0.0)
            assert bellhv.response_value(s, v, below) == (0.0 if lo_is_inner else 1.0)


class TestResponse:
    def test_aligned_full(self):
        assert bellhv.hv_response(Z_HAT, Z_HAT) == LambdaSet(-0.5, 0.5)

    def test_anti_aligned_empty(self):
        assert bellhv.hv_response(Z_HAT, -Z_HAT).measure == 0.0

    def test_orthogonal_half(self):
        assert bellhv.hv_response(Z_HAT, X_HAT) == LambdaSet(0.0, 0.5)

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
            assert (a.lo <= lam < a.hi) == (bellhv.response_value(s, m, lam) == 1.0)

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

    def test_stack_is_the_per_vector_matrix_to_the_bit(self):
        """One (k, 3) stack gives each row's matrix as projector_from_axis and the literal
        complex(x, -y) form give it, by tobytes(), so the sign of every zero counts."""
        rng = np.random.default_rng(41)
        axes = [bellhv.sample_direction(rng) for _ in range(2000)]
        axes += [sign * e for e in (X_HAT, Y_HAT, Z_HAT) for sign in (1.0, -1.0)]
        axes += [np.array(v) for v in ([0.6, 0.0, 0.8], [0.6, -0.0, 0.8], [-0.6, 0.0, -0.8],
                                       [-0.6, -0.0, -0.8], [-0.0, 0.0, 1.0], [0.0, -0.0, -1.0])]
        stack = bellhv._axis_matrix(np.array(axes))
        assert stack.shape == (len(axes), 2, 2)
        for m, mat in zip(axes, stack):
            x, y, z = m.tolist()
            literal = 0.5 * np.array([[1.0 + z, complex(x, -y)], [complex(x, y), 1.0 - z]])
            assert mat.tobytes() == bellhv.projector_from_axis(m).matrix.tobytes() == (
                literal.tobytes()), m

    def test_default_name(self):
        assert bellhv.projector_from_axis(-X_HAT).name == "P(-1,-0,-0)"
        assert bellhv.projector_from_axis(Z_HAT, "P_m").name == "P_m"


# Every public entry point that takes a Bloch vector, at each vector it takes;
# "classical" and "quantum" read each side of the Bell comparison through compare.
VALIDATING_CALLS = {
    "unit_vector": lambda v: bellhv.unit_vector(v),
    "classical s": lambda v: bellhv.compare(v, X_HAT, Z_HAT).classical,
    "classical m": lambda v: bellhv.compare(Z_HAT, v, Z_HAT).classical,
    "quantum n": lambda v: bellhv.compare(Z_HAT, X_HAT, v).quantum,
    "monte_carlo s": lambda v: bellhv.monte_carlo_check(v, X_HAT, Z_HAT, 1000, 0),
    "classical n": lambda v: bellhv.compare(Z_HAT, X_HAT, v).classical,
    "quantum s": lambda v: bellhv.compare(v, X_HAT, Z_HAT).quantum,
    "quantum m": lambda v: bellhv.compare(Z_HAT, v, Z_HAT).quantum,
    "compare s": lambda v: bellhv.compare(v, X_HAT, Z_HAT),
    "compare m": lambda v: bellhv.compare(Z_HAT, v, Z_HAT),
    "compare n": lambda v: bellhv.compare(Z_HAT, X_HAT, v),
    "monte_carlo m": lambda v: bellhv.monte_carlo_check(Z_HAT, v, Z_HAT, 1000, 0),
    "monte_carlo n": lambda v: bellhv.monte_carlo_check(Z_HAT, X_HAT, v, 1000, 0),
    "hv_response s": lambda v: bellhv.hv_response(v, Z_HAT),
    "hv_response m": lambda v: bellhv.hv_response(Z_HAT, v),
    "hv_expectation m": lambda v: bellhv.hv_expectation(X_HAT, v),
    "response_value s": lambda v: bellhv.response_value(v, Z_HAT, 0.0),
    "projector_from_axis": lambda v: bellhv.projector_from_axis(v),
    "state_from_bloch": lambda v: bellhv.state_from_bloch(v),
}


EPS = 2.0 ** -52


def largest_accepted(direction, sign: float) -> np.ndarray:
    """The last vector t*direction that unit_vector accepts, as t steps one ulp at a
    time from 1 up (sign +1) or down (sign -1)."""
    t, v = 1.0, bellhv.unit_vector(direction)
    while True:
        t = math.nextafter(t, 2.0 * sign)
        try:
            v = bellhv.unit_vector(t * np.asarray(direction))
        except InvalidParameterError:
            return v


class TestUnitVector:
    @pytest.mark.parametrize("bad", [[math.nan, 0.0, 1.0], [0.0, math.inf, 0.0],
                                     [0.0, 0.0, -math.inf]], ids=str)
    @pytest.mark.parametrize("call", VALIDATING_CALLS.values(), ids=VALIDATING_CALLS.keys())
    def test_non_finite_component_rejected(self, call, bad):
        with pytest.raises(InvalidParameterError, match=re.escape(f"Bloch vector {bad}")):
            call(np.array(bad))

    @pytest.mark.parametrize("bad", [[0.0, 0.0, 2.0], [0.6, 0.0, 0.8 + 1e-9],
                                     [0.0, 0.0, 1.0 + 9e-13], [0.0, 0.0, 1.0 + 3 * EPS]],
                             ids=str)
    @pytest.mark.parametrize("call", VALIDATING_CALLS.values(), ids=VALIDATING_CALLS.keys())
    def test_non_unit_rejected(self, call, bad):
        """1 + 9e-13 once passed unit_vector and then failed the range check of
        LambdaSet, or passed state_from_bloch; 1 + 3 eps is the first z past 1."""
        with pytest.raises(InvalidParameterError, match=re.escape(
                f"Bloch vector {bad} must be finite with unit length")):
            call(np.array(bad))

    @pytest.mark.parametrize("inside, outside", [(1.0 + 2 * EPS, 1.0 + 3 * EPS),
                                                 (1.0 - 2.5 * EPS, 1.0 - 3 * EPS)])
    def test_unit_slack_edge_on_an_axis(self, inside, outside):
        """|v| may be 1e-15 - 2 eps = 5.6e-16 off 1: on an axis, 2 eps above 1 and 2.5 eps below."""
        assert bellhv._UNIT_SLACK == bellhv.RANGE_SLACK - 2 * EPS
        assert bellhv.unit_vector([0.0, 0.0, inside])[2] == inside
        with pytest.raises(InvalidParameterError, match="must be finite with unit length"):
            bellhv.unit_vector([0.0, 0.0, outside])

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["long", "short"])
    @pytest.mark.parametrize("direction", [Z_HAT, -X_HAT, np.ones(3) / math.sqrt(3.0)],
                             ids=["z", "-x", "diagonal"])
    def test_largest_accepted_deviation_passes_every_later_check(self, direction, sign):
        """The longest and the shortest vector that unit_vector accepts along a direction
        run through every entry point: no range, Born-clamp or validation check fires."""
        v = largest_accepted(direction, sign)
        for s, m in ((v, v), (-v, -v), (v, -v), (X_HAT, v), (v, Y_HAT)):
            interval = bellhv.hv_response(s, m)
            assert -0.5 - bellhv.RANGE_SLACK <= interval.lo
            assert interval.hi <= 0.5 + bellhv.RANGE_SLACK
        for s, m, n in ((v, v, v), (v, v, X_HAT), (-v, -v, v), (Y_HAT, v, v)):
            row = bellhv.compare(s, m, n)
            assert 0.0 <= row.quantum <= 1.0 and 0.0 <= row.classical <= 1.0
            assert bellhv.monte_carlo_check(s, m, n, 1000, 0).passed
        assert bellhv.state_from_bloch(v).dim == 2
        assert bellhv.state_from_bloch(-v).dim == 2

    @settings(max_examples=200, deadline=None)
    @given(seed_s=seeds, seed_m=seeds, sign_s=st.sampled_from([1.0, -1.0]),
           sign_m=st.sampled_from([1.0, -1.0]))
    def test_any_two_accepted_vectors_keep_their_ends_in_range(self, seed_s, seed_m,
                                                               sign_s, sign_m):
        """The derivation of _UNIT_SLACK: random directions at the edge of acceptance,
        as s and m in either order and either orientation, give in-range intervals."""
        s = largest_accepted(rand_dir(seed_s), sign_s)
        m = largest_accepted(rand_dir(seed_m), sign_m)
        for a, b in ((s, m), (m, s), (s, s), (m, m), (s, -m)):
            bellhv.hv_response(a, b)


    def test_compare_validates_each_vector_once(self, monkeypatch):
        calls = []
        unit_vector = bellhv.unit_vector

        def spy(v):
            calls.append(v)
            return unit_vector(v)
        monkeypatch.setattr(bellhv, "unit_vector", spy)
        s, m, n = rand_dir(1), rand_dir(2), rand_dir(3)
        bellhv.compare(s, m, n)
        assert len(calls) == 3
        assert all(a is b for a, b in zip(calls, (s, m, n)))

    def test_norm_is_the_numpy_norm(self):
        """The norm in the error message is np.linalg.norm's, bit for bit, for random,
        tiny (squares in the subnormal range or below it) and overflowing components."""
        rng = np.random.default_rng(31)
        vectors = list(rng.normal(size=(2000, 3)) * 10.0 ** rng.uniform(-3, 3, size=(2000, 1)))
        vectors += list(rng.normal(size=(200, 3)) * 10.0 ** rng.uniform(-200, -150, size=(200, 1)))
        vectors += [np.array([1e200, 1e200, 0.0]), np.array([0.0, -1e200, 0.0]),
                    np.array([5e-324, 0.0, 0.0]), np.zeros(3)]
        for v in vectors:
            with np.errstate(over="ignore"):
                expected = float(np.linalg.norm(v))
                with pytest.raises(InvalidParameterError) as exc:
                    bellhv.unit_vector(v)
            assert str(exc.value).endswith(f"|v| = {expected!r}"), v


class TestSampleDirection:
    def test_one_call_is_the_two_uniform_formula(self):
        """Bit for bit, sign bits included, on 10,000 draws of one stream."""
        ours, reference = np.random.default_rng(37), np.random.default_rng(37)
        for _ in range(10_000):
            z = reference.uniform(-1.0, 1.0)
            phi = reference.uniform(0.0, 2.0 * math.pi)
            r = math.sqrt(max(1.0 - z * z, 0.0))
            expected = np.array([r * math.cos(phi), r * math.sin(phi), z])
            assert bellhv.sample_direction(ours).tobytes() == expected.tobytes()
        assert ours.random() == reference.random()


class TestClassicalConditional:
    def test_same_axis_is_one(self):
        s = rand_dir(5)
        m = rand_dir(6)
        assert bellhv.compare(s, m, m).classical == 1.0

    def test_aligned_state_agrees_with_quantum(self):
        m, n = rand_dir(7), rand_dir(8)
        classical = bellhv.compare(m, m, n).classical
        assert classical == pytest.approx((1.0 + float(np.dot(m, n))) / 2.0, abs=1e-12)

    def test_z_x_z_is_one(self):
        assert bellhv.compare(Z_HAT, X_HAT, Z_HAT).classical == 1.0

    def test_zero_measure_conditioning(self):
        with pytest.raises(ZeroProbabilityError):
            bellhv.compare(Z_HAT, -Z_HAT, X_HAT)


class TestQuantumConditional:
    def test_same_axis_is_one(self):
        assert bellhv.compare(Z_HAT, X_HAT, X_HAT).quantum == pytest.approx(1.0, abs=1e-12)

    def test_z_x_z_is_half(self):
        assert bellhv.compare(Z_HAT, X_HAT, Z_HAT).quantum == pytest.approx(0.5, abs=1e-12)

    def test_anti_aligned_axes_zero(self):
        assert bellhv.compare(Z_HAT, X_HAT, -X_HAT).quantum == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=40)
    @given(s1=seeds, s2=seeds, s3=seeds)
    def test_state_independent_for_rank1_conditioning(self, s1, s2, s3):
        s, m, n = rand_dir(s1), rand_dir(s2), rand_dir(s3)
        q = bellhv.compare(s, m, n).quantum
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


def trial_draws(seed, trial, count=3):
    """The first `count` sample_direction draws of one trial's stream."""
    rng = bellhv._trial_rng(seed, trial)
    return [bellhv.sample_direction(rng) for _ in range(count)]


def scalar_draws(seed, trials, count=3):
    """sample_direction on each trial's own stream, one trial at a time."""
    return np.array([trial_draws(seed, i, count) for i in range(trials)])


def stream_directions(seed, trials):
    """The scan's directions for the consecutive `trials`: one stretch of the seed's stream."""
    u = bellhv._trial_rng(seed, trials.start).random((len(trials), bellhv.TRIAL_DRAWS))
    return bellhv._directions(u)


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
        assert np.array_equal(stream_directions(seed, range(400)),
                              scalar_draws(seed, 400))

    def test_blocks_are_the_scalar_draws_across_a_chunk_boundary(self, monkeypatch):
        """The scan's path: 3 directions per trial, SCAN_CHUNK trials at a time."""
        monkeypatch.setattr(bellhv, "SCAN_CHUNK", 7)
        blocks = list(bellhv._blocks(20))
        assert [(b.start, b.stop) for b in blocks] == [(0, 7), (7, 14), (14, 20)]
        for block in blocks:
            assert np.array_equal(stream_directions(9, block),
                                  np.array([trial_draws(9, i) for i in block]))

    def test_one_stream_per_seed(self):
        """Trial 0 starts default_rng(seed)'s stream, and trial i + 1 follows trial i."""
        rng = np.random.default_rng(11)
        stream = [bellhv.sample_direction(rng) for _ in range(9)]
        assert np.array_equal(stream_directions(11, range(3)).reshape(9, 3), stream)

    def test_shorter_scan_rows_are_a_prefix(self):
        long = stream_directions(7, range(300))
        assert np.array_equal(stream_directions(7, range(120)), long[:120])
        assert np.array_equal(stream_directions(7, range(120, 300)), long[120:])
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
        compare_rows = bellhv._compare_rows

        def spy(triples):
            checked.append(triples)
            return compare_rows(triples)
        monkeypatch.setattr(bellhv, "_compare_rows", spy)
        bellhv.scan_discrepancy(trials, seed)
        assert len(checked) == 1
        # bit for bit, signed zeros included: each row is trial_draws(seed, i)
        assert [[v.tobytes() for v in triple] for triple in checked[0]] == [
            [v.tobytes() for v in trial_draws(seed, int(i))] for i in expected]

    def test_rechecks_share_one_stream(self, monkeypatch):
        """One PCG64 per scan: every block of rows and every re-check draw from it."""
        monkeypatch.setattr(bellhv, "SCAN_CHUNK", 7)
        expected = bellhv.scan_discrepancy(20, 4)
        built = []
        pcg64 = np.random.PCG64

        def spy(*args):
            built.append(args)
            return pcg64(*args)
        monkeypatch.setattr(np.random, "PCG64", spy)
        result = bellhv.scan_discrepancy(20, 4)
        assert len(list(bellhv._blocks(20))) == 3
        assert len(built) == 1
        assert result.histogram == expected.histogram
        assert result.max.to_dict() == expected.max.to_dict()

    def test_seed_42_golden(self):
        """Pins the stream layout: a change to it must edit this test."""
        result = bellhv.scan_discrepancy(1000, 42)
        assert result.histogram == (99, 110, 101, 86, 64, 68, 63, 53, 59, 43,
                                    39, 39, 29, 42, 33, 20, 15, 20, 13, 4)
        assert result.max.to_dict() == bellhv.compare(*trial_draws(42, 482)).to_dict()

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
        compare_rows = bellhv._compare_rows
        monkeypatch.setattr(bellhv, "_compare_rows", lambda triples: [
            dataclasses.replace(cmp, **{side: math.nan}) for cmp in compare_rows(triples)])
        assert cli.run(["bell", "--scan", "100"]) == 3
        assert capsys.readouterr().err.startswith("internal cross-check failed: closed-form row")

    def test_empty_conditioning_row_raises_the_scalar_message(self, monkeypatch):
        s, n = rand_dir(1), rand_dir(2)
        rows = np.array([[s, rand_dir(3), n], [Z_HAT, -Z_HAT, n], [s, -s, n]])
        monkeypatch.setattr(bellhv, "_directions", lambda u: rows)
        with pytest.raises(ZeroProbabilityError) as scalar:
            bellhv.compare(Z_HAT, -Z_HAT, n)
        with pytest.raises(ZeroProbabilityError) as scan:
            bellhv.scan_discrepancy(3, 0)
        assert str(scan.value) == str(scalar.value) == (
            "conditioning set for m=[-0.0, -0.0, -1.0] has hidden-variable measure 0.0 <= 1e-14")


def exact_sides(s, m, n):
    """(quantum, classical, measure, s.m, s.n) with the float inputs taken exactly, as
    Fractions: (1 + m.n)/2, and the overlap of the two response intervals over the
    measure (1 + s.m)/2 of the conditioning one."""
    s, m, n = ([Fraction(x) for x in v.tolist()] for v in (s, m, n))
    sm, sn, mn = (sum(a * b for a, b in zip(u, v)) for u, v in ((s, m), (s, n), (m, n)))

    def interval(dot):  # hv_response, sign(0) = +1
        return (-dot / 2, Fraction(1, 2)) if dot >= 0 else (Fraction(-1, 2), dot / 2)
    (a_lo, a_hi), (b_lo, b_hi) = interval(sm), interval(sn)
    measure = a_hi - a_lo
    overlap = max(min(a_hi, b_hi) - max(a_lo, b_lo), Fraction(0))
    return (1 + mn) / 2, overlap / measure if measure else None, measure, sm, sn


class TestExactOracle:
    """Both pipelines, `compare` and `conditional_rows`, against exact rational arithmetic.

    Triples with |s.m| or |s.n| below 1e-15 are left out: there the sign(0) = +1
    convention makes the classical value jump, so a rounding of s.m across zero moves
    it by far more than any rounding bound.  test_rows_agree_with_compare covers those
    triples, rows against `compare`, as it does the empty conditioning sets that
    `compare` refuses."""

    @staticmethod
    def assert_exact(triples):
        exact = [exact_sides(*triple) for triple in triples]
        kept = [(triple, sides[:3]) for triple, sides in zip(triples, exact)
                if min(abs(sides[3]), abs(sides[4])) >= 1e-15 and sides[2] > bellhv.MIN_MEASURE]
        rows = bellhv.conditional_rows(*(np.array(col) for col in zip(*(t for t, _ in kept))))
        for ((s, m, n), (quantum, classical, measure)), q_row, c_row in zip(kept, *rows[:2]):
            tol = qcore.bound(1.0, 2, 1.0 + 1.0 / float(measure))
            cmp = bellhv.compare(s, m, n)
            for what, got, want in (("compare quantum", cmp.quantum, quantum),
                                    ("compare classical", cmp.classical, classical),
                                    ("rows quantum", q_row, quantum),
                                    ("rows classical", c_row, classical)):
                assert abs(Fraction(float(got)) - want) <= tol, (what, s, m, n)

    @settings(max_examples=300)
    @given(s1=seeds, s2=seeds, s3=seeds)
    def test_random_and_edge_triples(self, s1, s2, s3):
        """A random triple, and with it n = m, n = -m and s = m."""
        s, m, n = rand_dir(s1), rand_dir(s2), rand_dir(s3)
        self.assert_exact([(s, m, n), (s, m, m), (s, m, -m), (m, m, n)])


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
