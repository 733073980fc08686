import numpy as np
import pytest

from hardylab import cli, gedanken, qcore
from hardylab.gedanken import GAMMA, UU, UV, VU, VV


@pytest.fixture(scope="module")
def psi():
    return gedanken.build_state()


@pytest.fixture(scope="module")
def det():
    return gedanken.build_detectors()


def raw_conditional(psi_vec, a, b):
    """Independent oracle: direct 5x5 evaluation of <psi|ABA|psi>/<psi|A|psi>."""
    num = np.vdot(a @ psi_vec, b @ (a @ psi_vec)).real
    den = np.vdot(psi_vec, a @ psi_vec).real
    return num / den


def electron_factor(p):
    """The 2x2 factor P of an electron detector 1 (x) P: its top-left block on the
    particle sector [u+u-, u+v-, v+u-, v+v-]."""
    return qcore.Projector(p.matrix[1:3, 1:3])


class TestState:
    def test_normalized(self, psi):
        assert np.vdot(psi.amplitudes, psi.amplitudes).real == pytest.approx(1.0, abs=1e-12)

    def test_amplitudes(self, psi):
        amps = psi.amplitudes
        assert amps[GAMMA] == pytest.approx(-0.5)
        assert amps[UU] == 0.0  # the annihilated component
        assert amps[UV] == pytest.approx(0.5j)
        assert amps[VU] == pytest.approx(0.5j)
        assert amps[VV] == pytest.approx(0.5)

    def test_d_minus_inf_probability(self, psi, det):
        # |i/2|^2 + |1/2|^2 components carrying v-
        assert qcore.born_probability(psi, det.d_minus_inf) == pytest.approx(0.5, abs=1e-12)


class TestDetectors:
    def test_projector_invariants(self, det):
        for p in vars(det).values():
            assert np.max(np.abs(p.matrix - p.matrix.conj().T)) <= 1e-12
            assert np.max(np.abs(p.matrix @ p.matrix - p.matrix)) <= 1e-12

    def test_annihilate_gamma(self, det):
        gamma = np.zeros(5)
        gamma[GAMMA] = 1.0
        for p in vars(det).values():
            assert np.max(np.abs(p.matrix @ gamma)) == 0.0

    def test_completeness_on_particle_sector(self, det):
        block = (det.c_minus_0.matrix + det.d_minus_0.matrix)[1:, 1:]
        assert np.max(np.abs(block - np.eye(4))) <= 1e-12
        block = (det.c_plus_0.matrix + det.d_plus_0.matrix)[1:, 1:]
        assert np.max(np.abs(block - np.eye(4))) <= 1e-12

    def test_locality_commutators(self, det):
        plus = [det.c_plus_inf, det.d_plus_inf, det.c_plus_0, det.d_plus_0]
        minus = [det.c_minus_inf, det.d_minus_inf, det.c_minus_0, det.d_minus_0]
        for p in plus:
            for m in minus:
                assert qcore.commutator_norm(p, m) <= 1e-12

    def test_qubit_detectors_rank1(self, det):
        for p in (det.c_minus_inf, det.d_minus_inf, det.c_minus_0, det.d_minus_0):
            assert electron_factor(p).trace == pytest.approx(1.0, abs=1e-12)

    def test_qubit_disturbance_half(self, det):
        d_0, d_inf = electron_factor(det.d_minus_0), electron_factor(det.d_minus_inf)
        assert qcore.disturbance_metrics(d_0, d_inf) == pytest.approx(0.5, abs=1e-12)


class TestBaseRelations:
    def test_values(self):
        rep = gedanken.full_report()
        assert rep["joint_Cplus_Cminus"].quantum_value == pytest.approx(0.0, abs=1e-12)
        assert rep["P(D-inf|C+inf)"].quantum_value == pytest.approx(1.0, abs=1e-12)
        assert rep["P(D+inf|C-inf)"].quantum_value == pytest.approx(1.0, abs=1e-12)
        assert rep["joint_Dplus_Dminus"].quantum_value == pytest.approx(0.25, abs=1e-12)

    def test_no_discrepancy(self):
        rep = gedanken.full_report()
        for key in ("joint_Cplus_Cminus", "P(D-inf|C+inf)", "P(D+inf|C-inf)",
                    "joint_Dplus_Dminus"):
            r = rep[key]
            assert r.discrepancy <= 1e-12


class TestChain:
    def test_conditionals_are_one(self):
        rep = gedanken.full_report()
        assert rep["P(C+inf|D-0)"].quantum_value == pytest.approx(1.0, abs=1e-12)
        assert rep["P(C-inf|D+0)"].quantum_value == pytest.approx(1.0, abs=1e-12)

    def test_d_minus_0_probability_eighth(self, psi, det):
        assert qcore.born_probability(psi, det.d_minus_0) == pytest.approx(0.125, abs=1e-12)


class TestDisturbance:
    def test_direct(self, psi, det):
        rep = gedanken.full_report()
        r = rep["P(D-inf|D-0)"]
        assert r.quantum_value == pytest.approx(0.5, abs=1e-12)
        assert r.hv_prediction == 1.0
        assert r.discrepancy == pytest.approx(0.5, abs=1e-12)
        # independent oracle: raw matrix arithmetic on the 5x5 operators
        oracle = raw_conditional(psi.amplitudes, det.d_minus_0.matrix, det.d_minus_inf.matrix)
        assert r.quantum_value == pytest.approx(oracle, abs=1e-12)

    def test_complement(self, psi, det):
        rep = gedanken.full_report()
        assert rep["complement_electron_trace"].quantum_value == pytest.approx(0.5, abs=1e-12)
        assert rep["complement_full_space"].quantum_value == pytest.approx(0.75, abs=1e-12)
        for r in (rep["complement_electron_trace"], rep["complement_full_space"]):
            assert r.hv_prediction == 1.0
            assert r.quantum_value < 1.0
        eye = np.eye(5)
        oracle = raw_conditional(psi.amplitudes,
                                 eye - det.d_minus_inf.matrix,
                                 eye - det.d_minus_0.matrix)
        assert rep["complement_full_space"].quantum_value == pytest.approx(oracle, abs=1e-12)

    @staticmethod
    def projected_state(psi, det):
        """(1 - D-(inf)) psi / ||(1 - D-(inf)) psi||: the state after D-(inf) stays silent."""
        return qcore.StateVector.normalize((np.eye(5) - det.d_minus_inf.matrix) @ psi.amplitudes)

    def test_projected_state_overlaps_d_minus_0(self, psi, det):
        reduced = self.projected_state(psi, det)
        assert qcore.born_probability(reduced, det.d_minus_0) > 0.0

    def test_projected_state_form(self, psi, det):
        # (1 - D-(inf))|psi> is proportional to -|gamma> + i|v+ u->
        expected = np.zeros(5, dtype=complex)
        expected[GAMMA] = -1.0
        expected[VU] = 1.0j
        reduced = self.projected_state(psi, det).amplitudes
        # the same ray: |<reduced|expected>| = 1 up to global phase
        overlap = np.vdot(reduced, qcore.StateVector.normalize(expected).amplitudes)
        assert abs(abs(overlap) - 1.0) <= 1e-10


def test_full_report_contains_all_relations():
    rep = gedanken.full_report()
    assert set(rep) == {
        "joint_Cplus_Cminus", "P(D-inf|C+inf)", "P(D+inf|C-inf)", "joint_Dplus_Dminus",
        "P(C+inf|D-0)", "P(C-inf|D+0)", "P(D-inf|D-0)",
        "complement_electron_trace", "complement_full_space",
    }


@pytest.mark.parametrize("step, relation", [("born_probability", "joint_Cplus_Cminus"),
                                            ("conditional_probability", "P(D-inf|C+inf)"),
                                            ("disturbance_metrics", "complement_electron_trace")])
def test_relation_off_its_exact_value_exits_3(capsys, monkeypatch, step, relation):
    """Each of the nine values is checked against its exact value: a 1e-9 shift of
    the first relation a qcore step computes stops the report before any output."""
    fn = getattr(qcore, step)
    monkeypatch.setattr(qcore, step, lambda *args: fn(*args) + 1e-9)
    assert cli.run(["gedanken"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"internal cross-check failed: gedanken {relation}: ")
