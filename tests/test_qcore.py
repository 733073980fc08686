import math

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

    def test_same_ray_ignores_global_phase(self):
        psi = StateVector.normalize([1.0, 1.0j])
        phi = StateVector(psi.amplitudes * np.exp(0.37j))
        assert psi.same_ray(phi)

    def test_immutable(self):
        psi = StateVector.normalize([1.0, 0.0])
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0.0


class TestProjector:
    def test_from_ket_rank1(self):
        p = Projector.from_ket([1.0, 1.0j])
        assert abs(p.trace - 1.0) < 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(InvalidParameterError):
            Projector(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_idempotent(self):
        with pytest.raises(InvalidParameterError):
            Projector(0.5 * np.eye(2))

    def test_complement(self):
        p = Projector.from_ket([1.0, 0.0])
        q = p.complement()
        assert np.allclose(p.matrix + q.matrix, np.eye(2))


class TestBornProbability:
    def test_identity_gives_one(self):
        rng = np.random.default_rng(0)
        psi = random_state(rng, 5)
        assert qcore.born_probability(psi, Projector.identity(5)) == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        psi = StateVector.normalize([1.0, 0.0])
        with pytest.raises(DimensionMismatchError):
            qcore.born_probability(psi, Projector.identity(3))

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
        psi, a = StateVector.normalize(np.eye(dim)[0]), Projector.identity(dim)
        slack = qcore.bound(1.0, dim)
        for raw, clamped in ((1.0 + slack / 2, 1.0), (-slack / 2, 0.0)):
            monkeypatch.setattr(qcore, "_norm_sq", lambda amps, raw=raw: raw)
            assert qcore.born_probability(psi, a) == clamped
        for raw in (1.0 + 2 * slack, -2 * slack, math.nan):
            monkeypatch.setattr(qcore, "_norm_sq", lambda amps, raw=raw: raw)
            with pytest.raises(InternalConsistencyError, match="rounding bound"):
                qcore.born_probability(psi, a)

    def test_conditional_band_takes_one_over_p_a(self, monkeypatch):
        psi, a = StateVector.normalize([1.0, 0.0]), Projector.identity(2)
        p_a = 1e-3
        slack = qcore.bound(1.0, 2, 1.0 + 1.0 / p_a)
        for excess, ok in ((slack / 2, True), (2 * slack, False)):
            raws = iter([p_a, p_a * (1.0 + excess)])
            monkeypatch.setattr(qcore, "_norm_sq", lambda amps: next(raws))
            if ok:
                assert qcore.conditional_probability(psi, a, a) == 1.0
            else:
                with pytest.raises(InternalConsistencyError, match="rounding bound"):
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


class TestConditionalProbability:
    def test_idempotence_b_equals_a(self):
        rng = np.random.default_rng(1)
        psi = random_state(rng, 4)
        a = random_projector(rng, 4, rank=2)
        assert qcore.conditional_probability(psi, a, a) == pytest.approx(1.0, abs=1e-12)

    def test_zero_probability_error_names_projector(self):
        psi = StateVector.normalize([1.0, 0.0])
        a = Projector.from_ket([0.0, 1.0], name="P_down")
        with pytest.raises(ZeroProbabilityError, match="P_down"):
            qcore.conditional_probability(psi, a, Projector.identity(2))

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
                qcore.conditional_probability(psi, opposite, Projector.identity(2))

    def test_tiny_positive_probability_conditions(self):
        psi = StateVector.normalize([1.0, 1e-13])
        a = Projector.from_ket([0.0, 1.0])
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
        via_reduced = qcore.born_probability(qcore.post_measurement_state(psi, a), b)
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


class TestPostMeasurementState:
    def test_eigenstate_unchanged(self):
        psi = StateVector.normalize([1.0, 0.0, 0.0])
        a = Projector.from_ket([1.0, 0.0, 0.0])
        assert qcore.post_measurement_state(psi, a).same_ray(psi)

    def test_zero_projection_error(self):
        psi = StateVector.normalize([1.0, 0.0])
        with pytest.raises(ZeroProbabilityError):
            qcore.post_measurement_state(psi, Projector.from_ket([0.0, 1.0]))


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
        p = qcore.born_probability(qcore.post_measurement_state(psi, a), b)
        assert math.sqrt(p * (1.0 - p)) == pytest.approx(math.sqrt(c * (1.0 - c)), abs=1e-12)


class TestDisturbanceMetrics:
    def test_same_projector(self):
        p = Projector.from_ket([1.0, 0.0])
        assert qcore.disturbance_metrics(p, p) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_gives_infinite_bound(self):
        """c = 0, where the entropic bound -ln c is infinite."""
        p = Projector.from_ket([1.0, 0.0])
        q = Projector.from_ket([0.0, 1.0])
        assert qcore.disturbance_metrics(p, q) == 0.0

    def test_rank_requirement(self):
        with pytest.raises(InvalidParameterError):
            qcore.disturbance_metrics(Projector.identity(2), Projector.from_ket([1.0, 0.0]))


class TestTensor:
    def test_identity_tensor_identity(self):
        t = qcore.tensor(Projector.identity(2), Projector.identity(2))
        assert np.allclose(t.matrix, np.eye(4))

    def test_disjoint_factors_commute(self):
        rng = np.random.default_rng(3)
        d1 = qcore.tensor(random_projector(rng, 2, rank=1), Projector.identity(2))
        u2 = qcore.tensor(Projector.identity(2), random_projector(rng, 2, rank=1))
        assert qcore.commutator_norm(d1, u2) <= 1e-12

    def test_sandwich_identity(self):
        rng = np.random.default_rng(4)
        d = random_projector(rng, 2, rank=1)
        u = random_projector(rng, 2, rank=1)
        d1 = qcore.tensor(d, Projector.identity(2))
        u2 = qcore.tensor(Projector.identity(2), u)
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

    def test_mixed_kinds_rejected(self):
        with pytest.raises(InvalidParameterError):
            qcore.tensor(StateVector.normalize([1.0, 0.0]), Projector.identity(2))


class TestCommutatorNorm:
    def test_self_commutes(self):
        p = Projector.from_ket([1.0, 2.0])
        assert qcore.commutator_norm(p, p) == 0.0

    def test_noncommuting_positive(self):
        p = Projector.from_ket([1.0, 0.0])
        q = Projector.from_ket([1.0, 1.0])
        assert qcore.commutator_norm(p, q) > 0.01
