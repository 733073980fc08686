import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardylab import bellhv, cli, gedanken, qcore
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
    k = StateVector.normalize(ket).amplitudes
    return Projector(np.outer(k, k.conj()), name=name)


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
    """Raw values are clamped to [0,1] within qcore.bound(1, dim, cond), and raise beyond it.
    The raw squared norms are injected as what np.vdot returns, once the state is built."""

    @pytest.mark.parametrize("dim", [2, 4, 5])
    def test_born_band_is_the_rounding_bound(self, dim, monkeypatch):
        psi, a = StateVector.normalize(np.eye(dim)[0]), identity(dim)
        slack = qcore.bound(1.0, dim)
        for raw, clamped in ((1.0 + slack / 2, 1.0), (-slack / 2, 0.0)):
            monkeypatch.setattr(np, "vdot", lambda v, w, raw=raw: complex(raw))
            assert qcore.born_probability(psi, a) == clamped
        for raw in (1.0 + 2 * slack, -2 * slack, math.nan):
            monkeypatch.setattr(np, "vdot", lambda v, w, raw=raw: complex(raw))
            with pytest.raises(InternalConsistencyError, match=re.escape("(bound ")):
                qcore.born_probability(psi, a)

    def test_conditional_band_takes_one_over_p_a(self, monkeypatch):
        psi, a = StateVector.normalize([1.0, 0.0]), identity(2)
        p_a = 1e-3
        slack = qcore.bound(1.0, 2, 1.0 + 1.0 / p_a)
        for excess, ok in ((slack / 2, True), (2 * slack, False)):
            raws = iter([p_a, p_a * (1.0 + excess)])
            monkeypatch.setattr(np, "vdot", lambda v, w: complex(next(raws)))
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
        clamped = qcore.clamp_probability(raw, "rows", 4, cond)
        assert isinstance(clamped, np.ndarray) and np.array_equal(clamped, [1.0, 1.0])
        raw[1] = 1.0 + 2 * slack[1]
        with pytest.raises(InternalConsistencyError,
                           match=re.escape(f"rows row 1: {float(raw[1])!r} vs 1.0 (bound ")):
            qcore.clamp_probability(raw, "rows", 4, cond)

    def test_a_float_stays_a_float(self):
        assert type(qcore.clamp_probability(0.25, "float", 2)) is float

    @pytest.mark.parametrize("value", [0.0, -0.0, 5e-324, 0.25, 1.0])
    def test_a_float_in_band_is_its_own_clamp(self, value):
        """clamp_probability owns the in-band rule its callers also apply: the float itself."""
        assert qcore.clamp_probability(value, "in band", 2) is value


def reference_zero_threshold(dim):
    """qcore.zero_threshold as first written, with sys.float_info.epsilon looked up."""
    return (16 * dim * sys.float_info.epsilon) ** 2


def reference_bound(exact, dim, cond=1.0):
    """qcore.bound as first written, through a nested zero_threshold call."""
    return 16 * dim * sys.float_info.epsilon * abs(exact) * cond + reference_zero_threshold(dim)


class TestBoundGolden:
    """qcore.bound works out 16*dim*eps once; it and zero_threshold give the bits of the
    expressions they were first written as, on floats and on arrays."""

    DIMS = range(1, 9)

    def test_zero_threshold(self):
        for dim in self.DIMS:
            assert bits(qcore.zero_threshold(dim)) == bits(reference_zero_threshold(dim))

    def test_floats(self):
        rng = np.random.default_rng(35)
        exacts = ([0.0, -0.0, 1.0, -1.0, 5e-324, 1e-300, 0.5, 1e300, math.inf, math.nan]
                  + (rng.choice([-1.0, 1.0], 2_000) * 10.0 ** rng.uniform(-320, 300, 2_000)).tolist())
        conds = [1.0, 2.0, 1.0 + 1.0 / 3e-9, 1e15] + (1.0 + 10.0 ** rng.uniform(-3, 12, 16)).tolist()
        for dim in self.DIMS:
            for cond in conds:
                for exact in exacts:
                    got, want = qcore.bound(exact, dim, cond), reference_bound(exact, dim, cond)
                    assert type(got) is float and bits(got) == bits(want), (exact, dim, cond)
            assert qcore.bound(0.0, dim) == qcore.zero_threshold(dim)

    def test_arrays_and_cond_arrays(self):
        rng = np.random.default_rng(36)
        exact = np.concatenate([[0.0, -0.0, 1.0, 5e-324, np.inf, np.nan],
                                rng.choice([-1.0, 1.0], 500) * 10.0 ** rng.uniform(-320, 300, 500)])
        cond = 1.0 + 10.0 ** rng.uniform(-3, 12, exact.size)
        for dim in self.DIMS:
            for c in (1.0, 7.5, cond):
                got, want = qcore.bound(exact, dim, c), reference_bound(exact, dim, c)
                assert isinstance(got, np.ndarray) and got.tobytes() == want.tobytes(), (dim, c)
            got, want = qcore.bound(0.25, dim, cond), reference_bound(0.25, dim, cond)
            assert got.tobytes() == want.tobytes(), dim


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


NON_FINITE = pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=str)
# (0, 0) on the diagonal: inf - inf in the Hermitian defect; (0, 1) off it: inf * 0 in P P
NON_FINITE_AT = pytest.mark.parametrize("at", [(0, 0), (0, 1)], ids=["diagonal", "off-diagonal"])


def with_entry(mat: np.ndarray, at: tuple[int, int], value: float) -> np.ndarray:
    out = np.array(mat)
    out[at] = value
    return out


class TestNonFiniteProjectors:
    """A NaN or inf entry is named "not finite", whichever check first sees it, and no
    numpy RuntimeWarning is raised on the way: under `warnings.simplefilter("error")`
    one would end the call first."""

    HALF = np.full((2, 2), 0.5)  # |+><+|

    @NON_FINITE
    @NON_FINITE_AT
    def test_projector(self, bad, at):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError, match=r"^projector 'P' is not finite$"):
                Projector(with_entry(self.HALF.astype(complex), at, bad), name="P")

    @NON_FINITE
    @NON_FINITE_AT
    @pytest.mark.parametrize("dtype", [complex, float])
    def test_validate_one_matrix(self, bad, at, dtype):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError, match=r"^projector 'P' is not finite$"):
                qcore.validate_projectors(with_entry(self.HALF.astype(dtype), at, bad), "P")

    @NON_FINITE
    @NON_FINITE_AT
    @pytest.mark.parametrize("dtype", [complex, float])
    def test_validate_a_stack(self, bad, at, dtype):
        stack = np.array([self.HALF] * 3, dtype=dtype)
        stack[1] = with_entry(stack[1], at, bad)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError, match=r"^projector 'P' is not finite$"):
                qcore.validate_projectors(stack, "P")

    @NON_FINITE
    @NON_FINITE_AT
    def test_projectors_names_the_row(self, bad, at):
        stack = np.array([self.HALF] * 3, dtype=complex)
        stack[2] = with_entry(stack[2], at, bad)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError, match=r"^projector 'B' is not finite$"):
                qcore.projectors(stack, ("Z", "A", "B"))

    @NON_FINITE
    def test_finiteness_is_named_before_a_defect_of_another_row(self, bad):
        """Row 0 is not Hermitian and row 2 is not finite: the stack is "not finite"."""
        stack = np.array([self.HALF] * 3, dtype=complex)
        stack[0, 0, 1] += 1e-9
        stack[2, 1, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError, match=r"^projector 'P' is not finite$"):
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


def bits(values) -> list[int]:
    """The bit patterns of float or complex `values`: equal only if equal to the bit."""
    return np.asarray(values).view(np.int64).ravel().tolist()


def lone_born(psi, a) -> float:
    """The Born rule on one projector, written out: ||A psi||^2 by np.vdot, clamped."""
    v = a.matrix @ psi.amplitudes
    return min(max(float(np.vdot(v, v).real), 0.0), 1.0)


def lone_conditional(psi, a, b) -> float:
    """||(B A) psi||^2 over the clamped P(A), by np.vdot, clamped."""
    v = (b.matrix @ a.matrix) @ psi.amplitudes
    return min(max(float(np.vdot(v, v).real) / lone_born(psi, a), 0.0), 1.0)


# Hardy alphas: seeded uniform draws, a log grid toward 0 and 1 down to 2e-14,
# and 1/sqrt2 +- 10^-k.
FAMILY_ALPHAS = (np.random.default_rng(23).uniform(0.0, 1.0, 200).tolist()
                 + np.geomspace(2e-14, 0.1, 40).tolist()
                 + [1.0 - x for x in np.geomspace(1.2e-16, 0.1, 40).tolist()]
                 + [math.sqrt(0.5) + s * 10.0 ** -k for k in range(1, 15) for s in (1, -1)])


class TestFamilies:
    """born_probabilities and conditional_probabilities on a family give, row by row,
    the bits of the one-projector arithmetic, and a bad row raises the lone row's error."""

    def test_hardy_families_match_the_lone_arithmetic_to_the_bit(self, hardy_projectors):
        for alpha in FAMILY_ALPHAS:
            m = hardy_projectors(alpha)
            family = (m.D1, m.D2, m.U1U2, m.D1D2, m.U1, m.U2, m.U1_perp)
            assert bits(qcore.born_probabilities(m.psi, family)) == bits(
                [lone_born(m.psi, a) for a in family]), alpha
            firsts, seconds = (m.D1, m.D2, m.D1, m.D1, m.D1), (m.U2, m.U1, m.D2, m.U1_perp, m.U1)
            assert bits(qcore.conditional_probabilities(m.psi, firsts, seconds)) == bits(
                [lone_conditional(m.psi, a, b) for a, b in zip(firsts, seconds)]), alpha

    def test_bell_rows_match_the_lone_arithmetic_to_the_bit(self):
        """Seeded triples, each row on its own state."""
        for seed in range(200):
            rng = np.random.default_rng(seed)
            rows = [[bellhv.sample_direction(rng) for _ in range(3)] for _ in range(5)]
            states = [bellhv.state_from_bloch(s) for s, _, _ in rows]
            p_m = [bellhv.projector_from_axis(m) for _, m, _ in rows]
            p_n = [bellhv.projector_from_axis(n) for _, _, n in rows]
            assert bits(qcore.conditional_probabilities(states, p_m, p_n)) == bits(
                [lone_conditional(*row) for row in zip(states, p_m, p_n)]), seed
            assert bits(qcore.born_probabilities(states, p_n)) == bits(
                [lone_born(*row) for row in zip(states, p_n)]), seed

    def test_gedanken_families_match_the_lone_arithmetic_to_the_bit(self):
        psi, det = gedanken.build_state(), list(vars(gedanken.build_detectors()).values())
        assert bits(qcore.born_probabilities(psi, det)) == bits([lone_born(psi, a) for a in det])
        pairs = [(a, b) for a in det for b in det]
        firsts, seconds = zip(*pairs)
        assert bits(qcore.conditional_probabilities(psi, firsts, seconds)) == bits(
            [lone_conditional(psi, a, b) for a, b in pairs])

    def test_one_projector_calls_are_stacks_of_one(self):
        psi, det = gedanken.build_state(), gedanken.build_detectors()
        assert qcore.born_probability(psi, det.d_minus_0) == qcore.born_probabilities(
            psi, [det.d_minus_0])[0]
        assert qcore.conditional_probability(psi, det.d_minus_0, det.c_plus_inf) == (
            qcore.conditional_probabilities(psi, [det.d_minus_0], [det.c_plus_inf])[0])

    @staticmethod
    def lone_and_family_errors(error, lone, family) -> tuple[str, str]:
        with pytest.raises(error) as lone_error:
            lone()
        with pytest.raises(error) as family_error:
            family()
        return str(lone_error.value), str(family_error.value)

    @pytest.mark.parametrize("per_row_states", [False, True])
    def test_a_zero_conditioning_row_raises_its_lone_error(self, per_row_states):
        psi = StateVector.normalize([1.0, 0.0])
        up, down = ket_projector([1.0, 0.0], "up"), ket_projector([0.0, 1.0], "down")
        states = [psi] * 3 if per_row_states else psi
        lone, family = self.lone_and_family_errors(
            ZeroProbabilityError, lambda: qcore.conditional_probability(psi, down, up),
            lambda: qcore.conditional_probabilities(states, (up, down, up), (up, up, down)))
        assert family == lone and lone.startswith("cannot condition on down: probability ")

    @pytest.mark.parametrize("step", ["born", "conditional"])
    def test_a_row_out_of_its_clamp_band_raises_its_lone_error(self, monkeypatch, step):
        """One squared norm (the Born rule's, or the conditional's second) reads
        1 + 2 bound(1, 2, 2) at one row: the row of a family of three, or a family of one.
        The squared norms are injected as what np.vdot returns: one call per row for the
        Born rule, two (P(A), then ||B A psi||^2) for the conditional."""
        psi = StateVector.normalize([1.0, 0.0])
        family = tuple(Projector(np.eye(2), name=name) for name in ("A", "B", "C"))
        vdot, bad = np.vdot, 1.0 + 2 * qcore.bound(1.0, 2, 2.0)

        def one_bad_row(row):
            calls = []

            def patched(v, w):
                calls.append(None)
                at = row + 1 if step == "born" else 2 * row + 2
                return complex(bad) if len(calls) == at else vdot(v, w)
            monkeypatch.setattr(np, "vdot", patched)

        def run(fam):
            return (qcore.born_probabilities(psi, fam) if step == "born"
                    else qcore.conditional_probabilities(psi, fam, fam))
        one_bad_row(0)
        with pytest.raises(InternalConsistencyError) as lone:
            run(family[1:2])
        one_bad_row(1)
        with pytest.raises(InternalConsistencyError) as stacked:
            run(family)
        context = "born_probability(B)" if step == "born" else "conditional_probability(B|B)"
        assert str(stacked.value) == str(lone.value)
        assert str(lone.value).startswith(f"{context}: {bad!r} vs 1.0 (bound ")

    def test_families_need_one_length_and_one_state_or_one_per_row(self):
        psi, a = StateVector.normalize([1.0, 0.0]), identity(2)
        for call in (lambda: qcore.born_probabilities(psi, ()),
                     lambda: qcore.born_probabilities([psi] * 2, (a,)),
                     lambda: qcore.conditional_probabilities(psi, (a, a), (a,))):
            with pytest.raises(InvalidParameterError, match="one state per row"):
                call()
        with pytest.raises(DimensionMismatchError):
            qcore.conditional_probabilities(psi, (a, identity(3)), (a, a))


class TestConditioning:
    """qcore.conditioning and qcore.conditional: the one zero rule and clamp of a
    conditional measurement, on floats and on (N,) arrays."""

    def test_an_in_band_float_is_returned_as_it_is(self):
        p = 0.1 + 0.2
        assert qcore.conditioning(p, "A", 4) is p
        q = qcore.conditional(0.125, p, "B", "A", 4)
        assert type(q) is float and q == 0.125 / p

    @pytest.mark.parametrize("dim", [2, 4, 5])
    def test_a_value_within_its_band_is_clamped(self, dim):
        slack = qcore.bound(1.0, dim)
        assert qcore.conditioning(1.0 + slack / 2, "A", dim) == 1.0
        p = 1e-3
        cond_slack = qcore.bound(1.0, dim, 1.0 + 1.0 / p)
        assert qcore.conditional(p * (1.0 + cond_slack / 2), p, "B", "A", dim) == 1.0
        assert qcore.conditional(-cond_slack / 2 * p, p, "B", "A", dim) == 0.0

    @pytest.mark.parametrize("raw", [1.0 + 2 * qcore.bound(1.0, 4), math.nan])
    def test_conditioning_beyond_its_band_is_a_bug(self, raw):
        with pytest.raises(InternalConsistencyError) as err:
            qcore.conditioning(raw, "D(x)1", 4)
        exact = 1.0 if raw == raw else raw
        assert str(err.value) == (f"born_probability(D(x)1): {raw!r} vs {exact!r} "
                                  f"(bound {qcore.bound(1.0, 4)!r})")

    @pytest.mark.parametrize("excess", [2.0, math.nan])
    def test_a_conditional_beyond_its_band_is_a_bug(self, excess):
        p = 1e-3
        allowed = qcore.bound(1.0, 5, 1.0 + 1.0 / p)
        joint = p * (1.0 + excess * allowed)
        with pytest.raises(InternalConsistencyError) as err:
            qcore.conditional(joint, p, "C-(inf)", "C+(inf)", 5)
        value = joint / p
        exact = 1.0 if value == value else value
        assert str(err.value) == (f"conditional_probability(C-(inf)|C+(inf)): {value!r} vs "
                                  f"{exact!r} (bound {allowed!r})")

    def test_the_zero_rule(self):
        """At or below zero_threshold, after the clamp, is zero; the float just above is not."""
        zero = qcore.zero_threshold(2)
        above = float(np.nextafter(zero, 1.0))
        assert qcore.conditioning(above, "P_m", 2) is above
        for raw, shown in ((zero, zero), (1e-300, 1e-300), (0.0, 0.0), (-1e-20, 0.0)):
            with pytest.raises(ZeroProbabilityError) as err:
                qcore.conditioning(raw, "P_m", 2)
            assert str(err.value) == f"cannot condition on P_m: probability {shown!r} <= {zero!r}"

    def test_rows_equal_the_float_path_to_the_bit(self):
        slack = qcore.bound(1.0, 4)
        raw = np.array([0.3, 1.0 + slack / 2, 1e-27, 0.5, 1.0])
        joint = raw * np.array([0.25, 1.0 + slack, 0.75, 1.0 / 3.0, 0.0])
        p = qcore.conditioning(raw, "D(x)1", 4)
        q = qcore.conditional(joint, p, "1(x)D", "D(x)1", 4)
        assert isinstance(p, np.ndarray) and isinstance(q, np.ndarray)
        one_by_one = [qcore.conditioning(float(r), "D(x)1", 4) for r in raw]
        assert bits(p) == bits(one_by_one)
        assert bits(q) == bits([qcore.conditional(float(j), pi, "1(x)D", "D(x)1", 4)
                                for j, pi in zip(joint, one_by_one)])

    def test_rows_name_their_first_failing_value(self):
        zero = qcore.zero_threshold(4)
        with pytest.raises(ZeroProbabilityError) as err:
            qcore.conditioning(np.array([0.3, 1e-29, 0.0]), "D(x)1", 4)
        assert str(err.value) == f"cannot condition on D(x)1: probability 1e-29 <= {zero!r}"
        raw = np.array([0.3, 0.5, 1.0 + 2 * qcore.bound(1.0, 4)])
        with pytest.raises(InternalConsistencyError) as err:
            qcore.conditioning(raw, "D(x)1", 4)
        assert str(err.value) == (f"born_probability(D(x)1) row 2: {float(raw[2])!r} vs 1.0 "
                                  f"(bound {qcore.bound(1.0, 4)!r})")

    @pytest.mark.parametrize("argv", [
        "hardy --alpha 0.6", "hardy --sweep --alpha-min 0.1 --alpha-max 0.9 --steps 9",
        "gedanken", "certify --scenario gedanken", "bell --s 0,0,1 --m 1,0,0 --n 0,0,1"])
    def test_every_command_conditions_through_them(self, argv, capsys, monkeypatch):
        """Each command conditions through qcore, so one monkeypatch of qcore reaches it."""
        calls = []
        for name in ("conditioning", "conditional"):
            real = getattr(qcore, name)
            monkeypatch.setattr(
                qcore, name, lambda *args, name=name, real=real: calls.append(name) or real(*args))
        assert cli.run(argv.split()) == 0
        capsys.readouterr()
        assert set(calls) == {"conditioning", "conditional"}


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
        assert np.abs(d1.matrix @ u2.matrix - u2.matrix @ d1.matrix).max() <= 1e-12

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
