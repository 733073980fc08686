import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardylab import bellhv, qcore
from hardylab.errors import (
    DimensionMismatchError,
    InternalConsistencyError,
    InvalidParameterError,
    ZeroProbabilityError,
)
from hardylab.qcore import Projector, StateVector


EPS = 2.0 ** -52


def random_state(rng, dim):
    raw = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return StateVector.normalize(raw)


def random_projector(rng, dim, rank=None):
    """Projector onto a random subspace via QR."""
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(raw)
    rank = rank if rank is not None else int(rng.integers(1, dim))
    cols = q[:, :rank]
    return Projector(cols @ cols.conj().T)


def ket_projector(ket, name=""):
    """|k><k| for the normalized ket, as one Projector."""
    return Projector(qcore.rank1(ket), name=name)


def identity(dim):
    return Projector(np.eye(dim))


def reduced_state(psi, a):
    """The state A psi / ||A psi|| after observing A."""
    return StateVector.normalize(a.matrix @ psi.amplitudes)


def orthogonal_projector_family(rng, dim):
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(raw)
    return [Projector(np.outer(q[:, k], q[:, k].conj())) for k in range(dim)]


class TestStateVector:
    def test_normalize(self):
        psi = StateVector.normalize([3.0, 4.0])
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12

    def test_rejects_unnormalized(self):
        with pytest.raises(InvalidParameterError):
            StateVector(np.array([1.0, 1.0]))

    def test_rejects_zero(self):
        with pytest.raises(InvalidParameterError):
            StateVector.normalize([0.0, 0.0])

    def test_rejects_nan(self):
        with pytest.raises(InvalidParameterError):
            StateVector(np.array([np.nan, 0.0]))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, complex(0.0, math.inf),
                                     complex(math.nan, 0.0)], ids=str)
    @pytest.mark.parametrize("at", [0, 1])
    def test_non_finite_amplitude_named(self, bad, at):
        """Finiteness is tested only once the norm check fails; it still names the cause."""
        amps = np.array([1.0, 0.0], dtype=complex)
        amps[at] = bad
        with pytest.raises(InvalidParameterError, match="^state amplitudes must be finite$"):
            StateVector(amps)

    def test_overflowing_norm_is_not_normalized(self):
        with pytest.raises(InvalidParameterError, match="not normalized"):
            StateVector(np.array([1e200, 0.0]))

    @pytest.mark.parametrize("dim", [2, 4, 5])
    @pytest.mark.parametrize("step", [EPS, -EPS / 2], ids=["long", "short"])
    def test_norm_edge_is_the_rounding_bound(self, dim, step):
        """||psi||^2 may be bound(1, dim) off 1, about 16*dim*eps: psi = (x, 0, ...) with
        x = 1 + k*step has ||psi||^2 = 1 + 2k*step, inside for 2k*|step| = 16*dim*eps,
        outside for one step more."""
        allowed = qcore.bound(1.0, dim)
        k = round(8 * dim * EPS / abs(step))
        for k, inside in ((k, True), (k + 1, False)):
            amps = np.zeros(dim)
            amps[0] = 1.0 + k * step
            assert (abs(float(amps @ amps) - 1.0) <= allowed) == inside
            if inside:
                StateVector(amps)
            else:
                with pytest.raises(InvalidParameterError, match="not normalized"):
                    StateVector(amps)

    def test_immutable(self):
        psi = StateVector.normalize([1.0, 0.0])
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0.0


class TestProjector:
    def test_rank1_has_trace_one(self):
        p = ket_projector([1.0, 1.0j])
        assert abs(p.trace - 1.0) < 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(InvalidParameterError):
            Projector(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_idempotent(self):
        with pytest.raises(InvalidParameterError):
            Projector(0.5 * np.eye(2))


class TestBornProbability:
    def test_identity_gives_one(self):
        rng = np.random.default_rng(0)
        psi = random_state(rng, 5)
        assert qcore.born_probability(psi, identity(5)) == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        psi = StateVector.normalize([1.0, 0.0])
        with pytest.raises(DimensionMismatchError):
            qcore.born_probability(psi, identity(3))

    @settings(max_examples=50)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 4, 5]))
    def test_spectral_decomposition_sums_to_one(self, seed, dim):
        rng = np.random.default_rng(seed)
        psi = random_state(rng, dim)
        total = sum(qcore.born_probability(psi, p)
                    for p in orthogonal_projector_family(rng, dim))
        assert total == pytest.approx(1.0, abs=1e-12)


class TestClampBand:
    """Raw values are clamped to [0,1] within qcore.bound(1, dim, cond), and raise beyond it."""

    @pytest.mark.parametrize("dim", [2, 4, 5])
    def test_born_band_is_the_rounding_bound(self, dim, monkeypatch):
        psi, a = StateVector.normalize(np.eye(dim)[0]), identity(dim)
        slack = qcore.bound(1.0, dim)
        for raw, clamped in ((1.0 + slack / 2, 1.0), (-slack / 2, 0.0)):
            monkeypatch.setattr(qcore, "_norm_sq", lambda amps, raw=raw: raw)
            assert qcore.born_probability(psi, a) == clamped
        for raw in (1.0 + 2 * slack, -2 * slack, math.nan):
            monkeypatch.setattr(qcore, "_norm_sq", lambda amps, raw=raw: raw)
            with pytest.raises(InternalConsistencyError, match=re.escape("(bound ")):
                qcore.born_probability(psi, a)

    def test_conditional_band_takes_one_over_p_a(self, monkeypatch):
        psi, a = StateVector.normalize([1.0, 0.0]), identity(2)
        p_a = 1e-3
        slack = qcore.bound(1.0, 2, 1.0 + 1.0 / p_a)
        for excess, ok in ((slack / 2, True), (2 * slack, False)):
            raws = iter([p_a, p_a * (1.0 + excess)])
            monkeypatch.setattr(qcore, "_norm_sq", lambda amps: next(raws))
            if ok:
                assert qcore.conditional_probability(psi, a, a) == 1.0
            else:
                with pytest.raises(InternalConsistencyError, match=re.escape("(bound ")):
                    qcore.conditional_probability(psi, a, a)

    def test_disturbance_of_opposite_axes_clamps_to_zero(self):
        """Tr P_s P_-s is 0; rounding leaves it within about 2e-16 of 0, on either side."""
        negative = 0
        for seed in range(200):
            s = bellhv.sample_direction(np.random.default_rng(seed))
            p, q = bellhv.projector_from_axis(s), bellhv.projector_from_axis(-s)
            raw = float(np.trace(p.matrix @ q.matrix).real)
            c = qcore.disturbance_metrics(p, q)
            assert c == max(raw, 0.0) and c <= qcore.bound(1.0, 2)
            negative += raw < 0.0
        assert negative > 0  # some raw traces round below zero: the clamp is exercised


    def test_rows_share_the_band(self):
        """An array is clamped row by row, each row within its own cond's band."""
        cond = np.array([1.0, 1e6])
        slack = qcore.bound(1.0, 4, cond)
        raw = 1.0 + slack / 2
        clamped = qcore._clamp_probability(raw, "rows", 4, cond)
        assert isinstance(clamped, np.ndarray) and np.array_equal(clamped, [1.0, 1.0])
        raw[1] = 1.0 + 2 * slack[1]
        with pytest.raises(InternalConsistencyError,
                           match=re.escape(f"rows row 1: {float(raw[1])!r} vs 1.0 (bound ")):
            qcore._clamp_probability(raw, "rows", 4, cond)

    def test_a_float_stays_a_float(self):
        assert type(qcore._clamp_probability(0.25, "float", 2)) is float


class TestFirstFailure:
    def test_scalars(self):
        assert qcore.first_failure(True, 1.0) is None
        assert qcore.first_failure(False, 1.0, 2.0) == (0, 1.0, 2.0)

    def test_first_false_row_and_its_values(self):
        values = np.array([1.0, 5.0, 2.0, 6.0])
        assert qcore.first_failure(values <= 3.0, values, 7.0) == (1, 5.0, 7.0)
        assert qcore.first_failure(values[::2] <= 3.0, values[::2]) is None

    def test_nan_fails(self):
        row, value = qcore.first_failure(np.array([0.0, math.nan]) <= 1.0, [0.0, math.nan])
        assert row == 1 and math.isnan(value)


class TestAgree:
    def test_float_returns_the_ratio(self):
        ratio = qcore.agree(0.5 + 2.0 ** -53, 0.5, 2.0 ** -50, "x")
        assert type(ratio) is float and ratio == 0.125
        assert qcore.agree(0.25, 0.25, 1e-15, "x") == 0.0

    def test_float_at_the_bound_agrees(self):
        assert qcore.agree(1.0 + 2.0 ** -50, 1.0, 2.0 ** -50, "x") == 1.0

    def test_float_beyond_the_bound_raises_in_one_layout(self):
        with pytest.raises(InternalConsistencyError) as err:
            qcore.agree(0.5 + 2.0 ** -49, 0.5, 2.0 ** -50, "P(x)")
        assert str(err.value) == (f"P(x): {0.5 + 2.0 ** -49!r} vs 0.5 "
                                  f"(bound {2.0 ** -50!r})")

    @pytest.mark.parametrize("value, exact", [(math.nan, 1.0), (1.0, math.nan),
                                              (np.array([0.0, math.nan]), 0.0),
                                              (0.0, np.array([0.0, math.nan]))])
    def test_nan_on_either_side_fails(self, value, exact):
        with pytest.raises(InternalConsistencyError, match="nan"):
            qcore.agree(value, exact, 1.0, "x")

    def test_array_returns_the_worst_ratio(self):
        value = np.array([1.0, 2.0 + 1e-3, 3.0])
        allowed = np.array([1e-2, 2e-3, 1e-2])
        assert qcore.agree(value, np.array([1.0, 2.0, 3.0]), allowed, "x") == pytest.approx(0.5)

    def test_array_names_its_first_failing_row(self):
        value = np.array([1.0, 2.0, 3.5, 4.5])
        exact = np.array([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(InternalConsistencyError) as err:
            qcore.agree(value, exact, 0.1, "field")
        assert str(err.value) == "field row 2: 3.5 vs 3.0 (bound 0.1)"
        with pytest.raises(InternalConsistencyError) as err:
            qcore.agree(value, exact, 0.1, "field", at=("alpha", np.array([0.1, 0.2, 0.3, 0.4])))
        assert str(err.value) == "field at alpha 0.3: 3.5 vs 3.0 (bound 0.1)"

    def test_numpy_scalar_prints_as_a_float(self):
        with pytest.raises(InternalConsistencyError) as err:
            qcore.agree(np.float64(1.0), 2.0, 0.5, "x")
        assert str(err.value) == "x: 1.0 vs 2.0 (bound 0.5)"


class TestValidateProjectors:
    def test_a_valid_stack_passes(self):
        rng = np.random.default_rng(5)
        qcore.validate_projectors(np.array([random_projector(rng, 3).matrix for _ in range(4)]))

    @pytest.mark.parametrize("kind, corrupt", [("Hermitian", lambda m: m + [[0, 1e-9], [0, 0]]),
                                               ("idempotent", lambda m: 2 * m)],
                             ids=["hermitian", "idempotent"])
    def test_a_stack_names_its_worst_row(self, kind, corrupt):
        stack = np.array([ket_projector([1.0, float(k)]).matrix for k in range(4)])
        stack[2] = corrupt(stack[2])
        with pytest.raises(InvalidParameterError, match=f"'P' in row 2 is not {kind}"):
            qcore.validate_projectors(stack, "P")

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidParameterError, match="finite"):
            qcore.validate_projectors(np.full((3, 2, 2), math.nan))

    @pytest.mark.parametrize("dim", [2, 4, 5])
    def test_hermitian_edge_is_the_rounding_bound(self, dim):
        """[[1, h], [0, 0]] is idempotent, and its Hermitian defect is h: bound(1, dim)
        passes, the next double above it fails."""
        allowed = qcore.bound(1.0, dim)
        for h, inside in ((allowed, True), (math.nextafter(allowed, 1.0), False)):
            mat = np.zeros((dim, dim))
            mat[0, 0], mat[0, 1] = 1.0, h
            if inside:
                qcore.validate_projectors(mat, "P")
            else:
                with pytest.raises(InvalidParameterError, match="'P' is not Hermitian"):
                    qcore.validate_projectors(mat, "P")

    @pytest.mark.parametrize("dim", [2, 4, 5])
    def test_idempotent_edge_is_the_rounding_bound(self, dim):
        """diag(1 + k eps, 0, ...) has idempotent defect k eps, within bound(1, dim) for
        k = 16*dim and outside it for one more; also as a row of a stack."""
        allowed = qcore.bound(1.0, dim)
        for k, inside in ((16 * dim, True), (16 * dim + 1, False)):
            mat = np.zeros((dim, dim))
            mat[0, 0] = 1.0 + k * EPS
            assert bool(abs(mat[0, 0] * mat[0, 0] - mat[0, 0]) <= allowed) == inside
            stack = np.array([np.eye(dim), mat])
            if inside:
                qcore.validate_projectors(mat, "P")
                qcore.validate_projectors(stack, "P")
            else:
                with pytest.raises(InvalidParameterError, match="'P' is not idempotent"):
                    qcore.validate_projectors(mat, "P")
                with pytest.raises(InvalidParameterError, match="'P' in row 1 is not idempotent"):
                    qcore.validate_projectors(stack, "P")


class TestProjectors:
    NAMES = ("P0", "P1", "P2", "P3")

    def test_same_as_one_by_one(self):
        rng = np.random.default_rng(9)
        mats = np.array([random_projector(rng, 3).matrix for _ in range(4)])
        lone = [Projector(mat.copy(), name=name) for mat, name in zip(mats, self.NAMES)]
        family = qcore.projectors(mats, self.NAMES)
        assert len(family) == 4
        for p, q in zip(family, lone):
            assert type(p) is Projector and p.name == q.name and p.label() == q.label()
            assert np.array_equal(p.matrix, q.matrix) and p.matrix.dtype == q.matrix.dtype
            assert not p.matrix.flags.writeable

    def test_one_validation_for_the_stack(self, monkeypatch):
        stack = [ket_projector([1.0, float(k)]).matrix for k in range(4)]
        calls = []
        validate = qcore.validate_projectors

        def spy(mats, name=""):
            calls.append(np.shape(mats))
            validate(mats, name)
        monkeypatch.setattr(qcore, "validate_projectors", spy)
        qcore.projectors(stack, self.NAMES)
        assert calls == [(4, 2, 2)]

    @pytest.mark.parametrize("kind, corrupt", [("Hermitian", lambda m: m + [[0, 1e-9], [0, 0]]),
                                               ("idempotent", lambda m: 2 * m),
                                               ("finite", lambda m: m * math.nan)],
                             ids=["hermitian", "idempotent", "nan"])
    def test_a_bad_row_raises_what_its_lone_projector_raises(self, kind, corrupt):
        stack = np.array([ket_projector([1.0, float(k)]).matrix for k in range(4)])
        stack[2] = corrupt(stack[2])
        with pytest.raises(InvalidParameterError) as lone:
            Projector(stack[2].copy(), name="P2")
        with pytest.raises(InvalidParameterError) as family:
            qcore.projectors(stack, self.NAMES)
        assert str(family.value) == str(lone.value)
        assert str(family.value).startswith(f"projector 'P2' is not {kind}")

    @pytest.mark.parametrize("mats, names", [(np.eye(2), ("A", "B")),
                                             (np.zeros((2, 2, 3)), ("A", "B")),
                                             (np.zeros((0, 2, 2)), ()),
                                             (np.array([np.eye(2)] * 2), ("A",))],
                             ids=["one-matrix", "not-square", "empty", "names-short"])
    def test_rejects_a_stack_without_one_name_per_square_matrix(self, mats, names):
        with pytest.raises(InvalidParameterError, match="k names"):
            qcore.projectors(mats, names)


class TestConditionalProbability:
    def test_idempotence_b_equals_a(self):
        rng = np.random.default_rng(1)
        psi = random_state(rng, 4)
        a = random_projector(rng, 4, rank=2)
        assert qcore.conditional_probability(psi, a, a) == pytest.approx(1.0, abs=1e-12)

    def test_zero_probability_error_names_projector(self):
        psi = StateVector.normalize([1.0, 0.0])
        a = ket_projector([0.0, 1.0], name="P_down")
        with pytest.raises(ZeroProbabilityError, match="P_down"):
            qcore.conditional_probability(psi, a, identity(2))

    def test_zero_threshold_from_rounding(self):
        assert repr(qcore.zero_threshold(4)) == "2.0194839173657902e-28"
        assert qcore.zero_threshold(2) == qcore.zero_threshold(4) / 4

    @pytest.mark.parametrize("dim", [2, 4, 5])
    def test_bound_shares_the_rounding_model(self, dim):
        zero = qcore.zero_threshold(dim)
        assert qcore.bound(0.0, dim) == zero
        assert qcore.bound(1.0, dim) == math.sqrt(zero) + zero
        assert qcore.bound(-0.5, dim, cond=3.0) == 1.5 * math.sqrt(zero) + zero

    def test_generic_position_zero_is_zero(self):
        # rounding leaves ||A psi||^2 near 1e-31 here, <psi|A|psi> near 1e-16
        for seed in range(200):
            s = bellhv.sample_direction(np.random.default_rng(seed))
            psi, opposite = bellhv.state_from_bloch(s), bellhv.projector_from_axis(-s)
            with pytest.raises(ZeroProbabilityError):
                qcore.conditional_probability(psi, opposite, identity(2))

    def test_tiny_positive_probability_conditions(self):
        psi = StateVector.normalize([1.0, 1e-13])
        a = ket_projector([0.0, 1.0])
        assert qcore.born_probability(psi, a) == pytest.approx(1e-26, rel=1e-12)
        assert qcore.conditional_probability(psi, a, a) == 1.0

    @settings(max_examples=50)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 4, 5]))
    def test_reduction_consistency(self, seed, dim):
        """P(B|A) must equal the Born probability of B in the reduced state."""
        rng = np.random.default_rng(seed)
        psi = random_state(rng, dim)
        a = random_projector(rng, dim)
        b = random_projector(rng, dim)
        if qcore.born_probability(psi, a) <= 1e-6:
            return
        via_cond = qcore.conditional_probability(psi, a, b)
        via_reduced = qcore.born_probability(reduced_state(psi, a), b)
        assert via_cond == pytest.approx(via_reduced, abs=1e-12)

    @settings(max_examples=50)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_rank1_conditional_is_trace_and_state_independent(self, seed):
        rng = np.random.default_rng(seed)
        dim = 4
        a = random_projector(rng, dim, rank=1)
        b = random_projector(rng, dim)
        expected = float(np.trace(a.matrix @ b.matrix).real)
        for _ in range(3):
            psi = random_state(rng, dim)
            if qcore.born_probability(psi, a) <= 1e-6:
                continue
            assert qcore.conditional_probability(psi, a, b) == pytest.approx(expected, abs=1e-11)


class TestDeviation:
    @settings(max_examples=30)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_post_measurement_deviation_matches_disturbance(self, seed):
        rng = np.random.default_rng(seed)
        dim = 4
        a = random_projector(rng, dim, rank=1)
        b = random_projector(rng, dim)
        psi = random_state(rng, dim)
        if qcore.born_probability(psi, a) <= 1e-6:
            return
        c = qcore.disturbance_metrics(a, b)
        p = qcore.born_probability(reduced_state(psi, a), b)
        assert math.sqrt(p * (1.0 - p)) == pytest.approx(math.sqrt(c * (1.0 - c)), abs=1e-12)


class TestDisturbanceMetrics:
    def test_same_projector(self):
        p = ket_projector([1.0, 0.0])
        assert qcore.disturbance_metrics(p, p) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_gives_infinite_bound(self):
        """c = 0, where the entropic bound -ln c is infinite."""
        p = ket_projector([1.0, 0.0])
        q = ket_projector([0.0, 1.0])
        assert qcore.disturbance_metrics(p, q) == 0.0

    def test_rank_requirement(self):
        with pytest.raises(InvalidParameterError):
            qcore.disturbance_metrics(identity(2), ket_projector([1.0, 0.0]))

    def test_rank_edge_is_the_rounding_bound(self):
        """diag(1 + k eps, k eps) is a projector to rounding (each defect k eps) with
        trace 1 + 2k eps: rank 1 within bound(1, 2) for k = 16, not for k = 17."""
        target = ket_projector([1.0, 0.0])
        for k, inside in ((16, True), (17, False)):
            p = Projector(np.diag([1.0 + k * EPS, k * EPS]), "P")
            assert (abs(p.trace - 1.0) <= qcore.bound(1.0, 2)) == inside
            if inside:
                assert qcore.disturbance_metrics(p, target) == 1.0
            else:
                with pytest.raises(InvalidParameterError, match="first projector P must be rank 1"):
                    qcore.disturbance_metrics(p, target)


class TestTensor:
    def test_identity_tensor_identity(self):
        t = qcore.tensor(identity(2), identity(2))
        assert np.allclose(t.matrix, np.eye(4))

    def test_disjoint_factors_commute(self):
        rng = np.random.default_rng(3)
        d1 = qcore.tensor(random_projector(rng, 2, rank=1), identity(2))
        u2 = qcore.tensor(identity(2), random_projector(rng, 2, rank=1))
        assert qcore.commutator_norm(d1, u2) <= 1e-12

    def test_sandwich_identity(self):
        rng = np.random.default_rng(4)
        d = random_projector(rng, 2, rank=1)
        u = random_projector(rng, 2, rank=1)
        d1 = qcore.tensor(d, identity(2))
        u2 = qcore.tensor(identity(2), u)
        sandwich = d1.matrix @ u2.matrix @ d1.matrix
        assert np.max(np.abs(sandwich - qcore.tensor(d, u).matrix)) <= 1e-12

    @settings(max_examples=30)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_preserves_projector_invariants(self, seed):
        rng = np.random.default_rng(seed)
        a = random_projector(rng, 2)
        b = random_projector(rng, 3)
        t = qcore.tensor(a, b)  # construction re-validates Hermiticity/idempotence
        assert t.dim == 6

    def test_bit_identical_to_np_kron(self):
        """The broadcast product rounds each entry as np.kron does, sign bits included."""
        rng = np.random.default_rng(6)
        for dims in [(2, 2)] * 200 + [(2, 3), (3, 2), (4, 2)] * 20:
            a, b = (random_projector(rng, d) for d in dims)
            got, want = qcore.tensor(a, b).matrix, np.kron(a.matrix, b.matrix)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got.real), np.signbit(want.real))
            assert np.array_equal(np.signbit(got.imag), np.signbit(want.imag))

    def test_kron_broadcasts_over_stacks(self):
        rng = np.random.default_rng(7)
        stack = np.array([random_projector(rng, 2).matrix for _ in range(5)])
        eye = np.eye(2)
        for got, m in zip(qcore.kron(stack, eye), stack):
            assert np.array_equal(got, np.kron(m, eye))
        for got, m in zip(qcore.kron(eye, stack), stack):
            assert np.array_equal(got, np.kron(eye, m))

    def test_mixed_kinds_rejected(self):
        with pytest.raises(InvalidParameterError):
            qcore.tensor(StateVector.normalize([1.0, 0.0]), identity(2))


class TestCommutatorNorm:
    def test_self_commutes(self):
        p = ket_projector([1.0, 2.0])
        assert qcore.commutator_norm(p, p) == 0.0

    def test_noncommuting_positive(self):
        p = ket_projector([1.0, 0.0])
        q = ket_projector([1.0, 1.0])
        assert qcore.commutator_norm(p, q) > 0.01
