import dataclasses
import itertools
import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hardylab import cli, gedanken, hardy4, hvlogic, qcore
from hardylab.errors import InternalConsistencyError, InvalidParameterError
from hardylab.hvlogic import (
    ConstraintSystem,
    Exclusion,
    Implication,
    RequiredEvent,
    check,
    derive_two_step,
    replay,
)


def hardy_like_system(required=True):
    req = (RequiredEvent(cid="<D1D2>>0", literals=(("D1", True), ("D2", True))),) if required else ()
    return ConstraintSystem(
        variables=("D1", "D2", "U1", "U2"),
        implications=(
            Implication(cid="P(U2|D1)=1", antecedents=(("D1", True),), consequent=("U2", True)),
            Implication(cid="P(U1|D2)=1", antecedents=(("D2", True),), consequent=("U1", True)),
        ),
        exclusions=(Exclusion(cid="<U1U2>=0", literals=(("U1", True), ("U2", True))),),
        required_positive=req,
    )


def fallback_system():
    """X=1 is excluded with Z=1 and with Z=0: unit propagation from X=1 forces
    nothing, so check's certificate for it names no violated constraint."""
    return ConstraintSystem(
        variables=("X", "Z"),
        exclusions=(Exclusion(cid="x1", literals=(("X", True), ("Z", True))),
                    Exclusion(cid="x0", literals=(("X", True), ("Z", False)))),
        required_positive=(RequiredEvent(cid="X=1", literals=(("X", True),)),
                           RequiredEvent(cid="X=0", literals=(("X", False),))),
    )


def hardy_system_at(alpha):
    model = hardy4.build_model(alpha)
    return hvlogic.hardy_system(model, hardy4.compute_metrics(model))


class TestValidation:
    def test_duplicate_variables(self):
        with pytest.raises(InvalidParameterError):
            ConstraintSystem(variables=("A", "A"))

    def test_undeclared_variable(self):
        with pytest.raises(InvalidParameterError):
            ConstraintSystem(
                variables=("A",),
                implications=(Implication(cid="x", antecedents=(("A", True),),
                                          consequent=("B", True)),),
            )

    @pytest.mark.parametrize("exclusion_id, event_id", [("x", "e"), ("y", "x"), ("e", "e")])
    def test_duplicate_constraint_ids(self, exclusion_id, event_id):
        """A -> B, forbid A & B, event A=1: with a shared id the paradox chain names
        two constraints at once, and replay could not tell which one it cites."""
        def system(exclusion_id, event_id):
            return ConstraintSystem(
                variables=("A", "B"),
                implications=(Implication(cid="x", antecedents=(("A", True),),
                                          consequent=("B", True)),),
                exclusions=(Exclusion(cid=exclusion_id, literals=(("A", True), ("B", True))),),
                required_positive=(RequiredEvent(cid=event_id, literals=(("A", True),)),),
            )

        with pytest.raises(InvalidParameterError, match="unique"):
            system(exclusion_id, event_id)
        distinct = system("y", "e")
        cert = check(distinct)
        assert cert.status == "paradox" and cert.violated_constraint == "y"
        assert replay(distinct, cert)

    def test_variable_limit(self):
        with pytest.raises(InvalidParameterError):
            ConstraintSystem(variables=tuple(f"v{i}" for i in range(21)))


class TestCheck:
    def test_empty_system_satisfiable(self):
        assert check(ConstraintSystem(variables=("A", "B"))).status == "satisfiable"

    def test_hardy_system_paradox(self):
        cert = check(hardy_like_system())
        assert cert.status == "paradox"
        assert cert.failing_event == "<D1D2>>0"
        literals = [s.literal for s in cert.forced_chain]
        assert ("D1", True) in literals
        assert ("U2", True) in literals
        assert ("U1", True) in literals
        assert cert.violated_constraint == "<U1U2>=0"

    def test_without_required_event_satisfiable(self):
        cert = check(hardy_like_system(required=False))
        assert cert.status == "satisfiable"
        # the all-zeros assignment is admissible
        assert not any(cert.witness["any"].values())

    def test_monotonicity_adding_constraints(self):
        """Adding a constraint never turns paradox into satisfiable."""
        base = hardy_like_system()
        assert check(base).status == "paradox"
        extra = ConstraintSystem(
            variables=base.variables,
            implications=base.implications + (
                Implication(cid="extra", antecedents=(("U1", True),), consequent=("D2", False)),),
            exclusions=base.exclusions + (
                Exclusion(cid="extra-exc", literals=(("D1", True), ("U1", True))),),
            required_positive=base.required_positive,
        )
        assert check(extra).status == "paradox"

    def test_stops_once_every_event_has_witness(self, monkeypatch):
        calls = []
        admissible = hvlogic._admissible

        def counted(system, assign):
            calls.append(1)
            return admissible(system, assign)
        monkeypatch.setattr(hvlogic, "_admissible", counted)
        names = tuple(f"v{i}" for i in range(16))
        cert = check(ConstraintSystem(
            variables=names,
            required_positive=(RequiredEvent(cid="r", literals=(("v0", True),)),),
        ))
        assert len(calls) == 2
        assert cert.witness == {"r": {name: name == "v0" for name in names}}

    def test_satisfiable_witness_realizes_event(self):
        sys_ = ConstraintSystem(
            variables=("A", "B"),
            implications=(Implication(cid="i", antecedents=(("A", True),),
                                      consequent=("B", True)),),
            required_positive=(RequiredEvent(cid="r", literals=(("A", True),)),),
        )
        cert = check(sys_)
        assert cert.status == "satisfiable"
        w = cert.witness["r"]
        assert w["A"] and w["B"]


class TestReplay:
    def test_rejects_forged_implication_chain(self):
        # P(U2|D1)=1 is satisfied, not violated, by the chain D1=1, U2=1
        sys_ = ConstraintSystem(
            variables=("D1", "U2"),
            implications=(Implication(cid="P(U2|D1)=1", antecedents=(("D1", True),),
                                      consequent=("U2", True)),),
            required_positive=(RequiredEvent(cid="D1=1", literals=(("D1", True),)),),
        )
        assert check(sys_).status == "satisfiable"
        forged = hvlogic.Certificate(
            status="paradox",
            failing_event="D1=1",
            forced_chain=(hvlogic.ChainStep(literal=("D1", True), constraint_id="D1=1"),
                          hvlogic.ChainStep(literal=("U2", True), constraint_id="P(U2|D1)=1")),
            violated_constraint="P(U2|D1)=1",
        )
        assert not replay(sys_, forged)

    def test_rejects_chain_seeded_by_another_event(self):
        # A=1 and B=1 are each realizable; only their conjunction is excluded
        sys_ = ConstraintSystem(
            variables=("A", "B"),
            exclusions=(Exclusion(cid="x", literals=(("A", True), ("B", True))),),
            required_positive=(RequiredEvent(cid="a", literals=(("A", True),)),
                               RequiredEvent(cid="b", literals=(("B", True),))),
        )
        assert check(sys_).status == "satisfiable"
        forged = hvlogic.Certificate(
            status="paradox",
            failing_event="a",
            forced_chain=(hvlogic.ChainStep(literal=("A", True), constraint_id="a"),
                          hvlogic.ChainStep(literal=("B", True), constraint_id="b")),
            violated_constraint="x",
        )
        assert not replay(sys_, forged)

    def test_accepts_genuine_certificate(self):
        sys_ = hardy_like_system()
        assert replay(sys_, check(sys_))

    def test_rejects_satisfiable_certificate(self):
        sys_ = hardy_like_system(required=False)
        assert not replay(sys_, check(sys_))

    def test_rejects_tampered_chain(self):
        sys_ = hardy_like_system()
        cert = check(sys_)
        tampered = hvlogic.Certificate(
            status="paradox",
            failing_event=cert.failing_event,
            forced_chain=cert.forced_chain[:-1] + (
                hvlogic.ChainStep(literal=("U1", False), constraint_id="P(U1|D2)=1"),),
            violated_constraint=cert.violated_constraint,
        )
        assert not replay(sys_, tampered)

    def test_rejects_unknown_constraint_id(self):
        sys_ = hardy_like_system()
        cert = check(sys_)
        tampered = hvlogic.Certificate(
            status="paradox",
            failing_event=cert.failing_event,
            forced_chain=(hvlogic.ChainStep(literal=("D1", True), constraint_id="bogus"),),
            violated_constraint=cert.violated_constraint,
        )
        assert not replay(sys_, tampered)

    @staticmethod
    def refuse_check(monkeypatch):
        def refused(system):
            raise AssertionError("replay must not call check")
        monkeypatch.setattr(hvlogic, "check", refused)

    def test_accepts_fallback_certificate_without_check(self, monkeypatch):
        sys_ = fallback_system()
        cert = check(sys_)
        assert cert.status == "paradox" and cert.failing_event == "X=1"
        assert cert.violated_constraint is None
        self.refuse_check(monkeypatch)
        assert replay(sys_, cert)

    def test_rejects_fallback_certificate_of_realizable_event(self, monkeypatch):
        sys_ = fallback_system()
        forged = hvlogic.Certificate(
            status="paradox",
            failing_event="X=0",
            forced_chain=(hvlogic.ChainStep(literal=("X", False), constraint_id="X=0"),),
        )
        self.refuse_check(monkeypatch)
        assert not replay(sys_, forged)

    def test_fallback_enumeration_applies_implications(self, monkeypatch):
        """X=1 is unrealizable only through the implications to W=1: an enumeration
        that skipped them would find X=1, W=0 and reject the certificate."""
        sys_ = ConstraintSystem(
            variables=("X", "Z", "W"),
            implications=(
                Implication(cid="XZ->W", antecedents=(("X", True), ("Z", True)), consequent=("W", True)),
                Implication(cid="X~Z->W", antecedents=(("X", True), ("Z", False)), consequent=("W", True)),
            ),
            exclusions=(Exclusion(cid="<XW>=0", literals=(("X", True), ("W", True))),),
            required_positive=(RequiredEvent(cid="X=1", literals=(("X", True),)),),
        )
        cert = check(sys_)
        assert cert.status == "paradox" and cert.violated_constraint is None
        self.refuse_check(monkeypatch)
        assert replay(sys_, cert)


class TestDeriveTwoStep:
    def test_hardy_derivation(self):
        derived = derive_two_step(hardy_like_system())
        pairs = {(d.antecedents, d.consequent) for d in derived}
        assert ((("D1", True),), ("U1", False)) in pairs
        assert ((("D2", True),), ("U2", False)) in pairs
        assert len(derived) == 2

    def test_without_exclusion_empty(self):
        sys_ = ConstraintSystem(
            variables=("D1", "D2", "U1", "U2"),
            implications=hardy_like_system().implications,
        )
        assert derive_two_step(sys_) == []

    def test_derived_conflicts_with_quantum_cbar(self):
        # hv concludes P(1-U1|D1) = 1; the quantum value is c_bar < 1
        model = hardy4.build_model(0.6)
        result = hardy4.disturbance_contradiction(model, hardy4.compute_metrics(model))
        derived = derive_two_step(hardy_system_at(0.6))
        assert any(d.consequent == ("U1", False) for d in derived)
        assert result.quantum_value < 1.0
        assert result.discrepancy > 0.0


class TestGates:
    """0 and 1 mean 0 and 1 within the bound the producing module checks the value with."""

    @pytest.mark.parametrize("dim", [4, 5])
    def test_exclusion_at_the_zero_threshold(self, dim):
        exc = hvlogic._exclusion(qcore.zero_threshold(dim), "<U1U2>=0", "U1", "U2",
                                 qcore.bound(0.0, dim))
        assert exc.literals == (("U1", True), ("U2", True))

    @pytest.mark.parametrize("p", [1e-12, 1e-27, math.nan])
    def test_exclusion_of_a_positive_joint_raises(self, p):
        with pytest.raises(InternalConsistencyError, match="'<U1U2>=0' not quantum-justified"):
            hvlogic._exclusion(p, "<U1U2>=0", "U1", "U2", qcore.bound(0.0, 4))

    @pytest.mark.parametrize("p", [1.0, 1.0 - 3 * 2.0 ** -52, 1.0 - qcore.bound(1.0, 4) / 2])
    def test_implication_within_the_bound_of_one(self, p):
        imp = hvlogic._implication(p, "D1", "U2", qcore.bound(1.0, 4))
        assert (imp.cid, imp.antecedents, imp.consequent) == ("P(U2|D1)=1", (("D1", True),),
                                                              ("U2", True))

    @pytest.mark.parametrize("p", [1.0 - 1e-12, 1.0 - 2 * qcore.bound(1.0, 4), math.nan])
    def test_implication_off_one_raises(self, p):
        with pytest.raises(InternalConsistencyError, match=re.escape("'P(U2|D1)=1'")):
            hvlogic._implication(p, "D1", "U2", qcore.bound(1.0, 4))

    def test_hardy_gates_take_the_dimension_of_the_state(self, monkeypatch):
        report = gedanken.full_report()
        monkeypatch.setattr(gedanken, "full_report", lambda: report)
        seen = []
        agree = qcore.agree

        def spy(value, exact, allowed, what, at=None):
            if what.startswith("constraint "):  # a gate, not a clamp
                seen.append((exact, allowed))
            return agree(value, exact, allowed, what, at)
        monkeypatch.setattr(qcore, "agree", spy)
        hardy_system_at(0.6)
        hvlogic.gedanken_system()
        # each gate takes the bound its producer checks the value with: hardy4._bound
        # (cond 1 for these three fields), and gedanken's, whose conditionals on
        # P(C+-inf) = 1/4 and P(D+-0) = 1/8 take cond 5 and 9
        params = hardy4.HardyParams.from_alpha(0.6)
        producers = [hardy4._bound(name, target, params) for name, target in (
            ("p_cond_U2_given_D1", 1.0), ("p_cond_U1_given_D2", 1.0), ("p_joint_U1U2", 0.0))]
        producers += [qcore.bound(*gedanken._EXACT[rid]) for rid in (
            "joint_Cplus_Cminus", "P(D-inf|C+inf)", "P(D+inf|C-inf)", "P(C+inf|D-0)",
            "P(C-inf|D+0)")]
        assert [allowed for _, allowed in seen] == producers == [
            qcore.bound(target, dim, cond) for target, dim, cond in [
                (1.0, 4, 1.0), (1.0, 4, 1.0), (0.0, 4, 1.0), (0.0, 5, 1.0),
                (1.0, 5, 5.0), (1.0, 5, 5.0), (1.0, 5, 9.0), (1.0, 5, 9.0)]]
        assert [exact for exact, _ in seen] == [1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0]


class TestQuantumGatedSystems:
    def test_hardy_system_paradox_at_06(self):
        assert check(hardy_system_at(0.6)).status == "paradox"

    def test_hardy_system_satisfiable_at_maximal_entanglement(self):
        sys_ = hardy_system_at(1.0 / math.sqrt(2.0))
        assert sys_.required_positive == ()
        assert check(sys_).status == "satisfiable"

    def test_hardy_system_invalid_alpha(self):
        with pytest.raises(InvalidParameterError):
            hardy_system_at(1.5)

    def test_gedanken_system_paradox_with_expected_chain(self):
        sys_ = hvlogic.gedanken_system()
        cert = check(sys_)
        assert cert.status == "paradox"
        literals = [s.literal for s in cert.forced_chain]
        # chain runs D-0 -> C+inf -> D-inf plus the mirror D+0 -> C-inf -> D+inf
        for lit in [("D-0", True), ("C+inf", True), ("D-inf", True),
                    ("D+0", True), ("C-inf", True), ("D+inf", True)]:
            assert lit in literals
        assert cert.violated_constraint == "<C+inf C-inf>=0"
        assert replay(sys_, cert)

    def test_gedanken_system_without_exclusion_satisfiable(self):
        sys_ = hvlogic.gedanken_system()
        relaxed = ConstraintSystem(
            variables=sys_.variables,
            implications=sys_.implications,
            exclusions=(),
            required_positive=sys_.required_positive,
        )
        assert check(relaxed).status == "satisfiable"

    def test_gedanken_system_gates_on_the_report(self, monkeypatch):
        report = gedanken.full_report()
        chain = report["P(C+inf|D-0)"]
        off = dataclasses.replace(chain, quantum_value=chain.quantum_value - 1e-9)
        monkeypatch.setattr(gedanken, "full_report", lambda: {**report, "P(C+inf|D-0)": off})
        with pytest.raises(InternalConsistencyError, match=re.escape("'P(C+inf|D-0)=1'")):
            hvlogic.gedanken_system()

    def test_failed_gate_exits_3(self, capsys, monkeypatch):
        """On a fixed encoding an off-target value is a bug, never bad input."""
        report = gedanken.full_report()
        chain = report["P(C+inf|D-0)"]
        off = dataclasses.replace(chain, quantum_value=chain.quantum_value - 1e-9)
        monkeypatch.setattr(gedanken, "full_report", lambda: {**report, "P(C+inf|D-0)": off})
        assert cli.run(["certify", "--scenario", "gedanken"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "internal cross-check failed: constraint 'P(C+inf|D-0)=1' not quantum-justified")

    def test_gedanken_system_computes_only_the_required_event(self, monkeypatch):
        report = gedanken.full_report()
        monkeypatch.setattr(gedanken, "full_report", lambda: report)
        calls = []
        for name in ("born_probability", "conditional_probability"):
            fn = getattr(qcore, name)
            monkeypatch.setattr(qcore, name,
                                lambda *a, _fn=fn, _name=name: calls.append(_name) or _fn(*a))
        hvlogic.gedanken_system()
        assert calls == ["born_probability"]  # <D+0 D-0>, which the report does not carry

    @pytest.mark.parametrize("joint", [qcore.zero_threshold(5), math.nan, 1e-12])
    def test_gedanken_required_event_above_zero_threshold(self, monkeypatch, joint):
        report = gedanken.full_report()
        monkeypatch.setattr(gedanken, "full_report", lambda: report)
        monkeypatch.setattr(qcore, "born_probability", lambda *a: joint)
        if joint > qcore.zero_threshold(5):
            assert hvlogic.gedanken_system().required_positive[0].cid == "<D+0 D-0>>0"
        else:
            with pytest.raises(InternalConsistencyError, match="<D\\+0 D-0> unexpectedly zero"):
                hvlogic.gedanken_system()

    def test_gated_values_sit_on_their_targets(self):
        """Every gated value is within a few eps of 0 or 1, far inside the bound."""
        eps = 2.0 ** -52
        report = gedanken.full_report()
        assert report["joint_Cplus_Cminus"].quantum_value == 0.0
        for rid in ("P(D-inf|C+inf)", "P(D+inf|C-inf)", "P(C+inf|D-0)", "P(C-inf|D+0)"):
            assert report[rid].quantum_value == 1.0, rid
        for alpha in (2e-14, 1e-6, 0.6, 1.0 - 1e-6, 0.9999999999999999):
            m = hardy4.compute_metrics(hardy4.build_model(alpha))
            assert abs(m.p_cond_U2_given_D1 - 1.0) <= 4 * eps, alpha
            assert abs(m.p_cond_U1_given_D2 - 1.0) <= 4 * eps, alpha
            assert m.p_joint_U1U2 <= qcore.zero_threshold(4), alpha

    def test_serialization_round_trip_fields(self):
        sys_ = hardy_system_at(0.6)
        d = sys_.to_dict()
        assert set(d) == {"variables", "implications", "exclusions", "required_positive"}
        cert = check(sys_)
        cd = cert.to_dict()
        assert cd["status"] == "paradox"
        assert all({"literal", "by"} == set(step) for step in cd["forced_chain"])


# ---------------------------------------------------- replay soundness ---

def _holds(assign, literals):
    return all(assign[name] == value for name, value in literals)


def _realizable(system, event_id):
    """Exhaustive enumeration, independent of hvlogic: can the event occur?"""
    event = next((e for e in system.required_positive if e.cid == event_id), None)
    if event is None:
        return True  # no such event: nothing was refuted
    for bits in itertools.product((False, True), repeat=len(system.variables)):
        assign = dict(zip(system.variables, bits))
        if (_holds(assign, event.literals)
                and all(not _holds(assign, imp.antecedents) or _holds(assign, (imp.consequent,))
                        for imp in system.implications)
                and not any(_holds(assign, exc.literals) for exc in system.exclusions)):
            return True
    return False


@st.composite
def systems(draw):
    n = draw(st.integers(1, 8))
    names = [f"v{i}" for i in range(n)]
    literal = st.tuples(st.sampled_from(names), st.booleans())
    literals = st.lists(literal, min_size=1, max_size=2, unique_by=lambda lit: lit[0]).map(tuple)
    events = [RequiredEvent(cid=f"e{k}", literals=lits)
              for k, lits in enumerate(draw(st.lists(literals, min_size=1, max_size=3)))]
    # antecedents often taken from an event, so that forced chains are not all trivial
    antecedents = st.one_of(literals, st.sampled_from([(lit,) for ev in events
                                                       for lit in ev.literals]))
    implications = [Implication(cid=f"i{k}", antecedents=ant, consequent=cons)
                    for k, (ant, cons) in enumerate(draw(st.lists(st.tuples(antecedents, literal),
                                                                  max_size=8)))]
    exclusions = [Exclusion(cid=f"x{k}", literals=lits)
                  for k, lits in enumerate(draw(st.lists(literals, max_size=3)))]
    return ConstraintSystem(variables=tuple(names), implications=tuple(implications),
                            exclusions=tuple(exclusions), required_positive=tuple(events))


@st.composite
def certificates(draw, system):
    """A forced chain from one event, then mutated: the forgeries replay must reject."""
    event = draw(st.sampled_from(system.required_positive))
    chain, violated = hvlogic._forced_chain(system, event)
    chain = list(chain)
    cids = ([c.cid for c in system.implications] + [c.cid for c in system.exclusions]
            + [c.cid for c in system.required_positive])
    if draw(st.booleans()):
        # swap the violated id, half the time for one the chain itself used
        used = [s.constraint_id for s in chain if s.constraint_id != event.cid]
        violated = draw(st.sampled_from(used) if used and draw(st.booleans())
                        else st.sampled_from(cids + [None]))
    for mutation in draw(st.lists(st.sampled_from(["drop", "cid", "flip"]), max_size=1)):
        if chain:
            k = draw(st.integers(0, len(chain) - 1))
            step = chain[k]
            if mutation == "drop":
                del chain[k]
            elif mutation == "cid":
                chain[k] = hvlogic.ChainStep(literal=step.literal,
                                             constraint_id=draw(st.sampled_from(cids)))
            else:
                name, value = step.literal
                chain[k] = hvlogic.ChainStep(literal=(name, not value),
                                             constraint_id=step.constraint_id)
    return hvlogic.Certificate(status="paradox", failing_event=event.cid,
                               forced_chain=tuple(chain), violated_constraint=violated)


class TestReplaySoundness:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_accepted_certificate_refutes_its_event(self, data):
        system = data.draw(systems())
        cert = data.draw(certificates(system))
        if replay(system, cert):
            assert not _realizable(system, cert.failing_event)

    @settings(max_examples=100, deadline=None)
    @given(system=systems())
    @example(system=fallback_system())
    def test_check_paradox_certificates_replay(self, system):
        cert = check(system)
        if cert.status == "paradox":
            assert not _realizable(system, cert.failing_event)
            assert replay(system, cert)


def _first_witnesses(system):
    """Enumeration independent of hvlogic: per event, the lowest-index admissible
    assignment realizing it (variable i is bit i of the index); `any` with no events."""
    n = len(system.variables)
    admissible = []
    for idx in range(1 << n):
        assign = {name: bool((idx >> i) & 1) for i, name in enumerate(system.variables)}
        if (all(not _holds(assign, imp.antecedents) or _holds(assign, (imp.consequent,))
                for imp in system.implications)
                and not any(_holds(assign, exc.literals) for exc in system.exclusions)):
            admissible.append(assign)
    if not system.required_positive:
        return {"any": admissible[0]} if admissible else {}
    return {ev.cid: next((a for a in admissible if _holds(a, ev.literals)), None)
            for ev in system.required_positive}


class TestCheckAgainstEnumeration:
    @settings(max_examples=300, deadline=None)
    @given(system=systems(), drop_events=st.booleans())
    def test_status_failing_event_and_witnesses(self, system, drop_events):
        if drop_events:
            system = dataclasses.replace(system, required_positive=())
        expected = _first_witnesses(system)
        unrealizable = [cid for cid, w in expected.items() if w is None]
        cert = check(system)
        if unrealizable:
            assert cert.status == "paradox"
            assert cert.failing_event == unrealizable[0]
        else:
            assert cert.status == "satisfiable"
            assert cert.witness == expected
