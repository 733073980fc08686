import dataclasses
import itertools
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardylab import gedanken, hardy4, hvlogic, qcore
from hardylab.errors import InvalidParameterError
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
        result = hardy4.disturbance_contradiction(model)
        derived = derive_two_step(hardy_system_at(0.6))
        assert any(d.consequent == ("U1", False) for d in derived)
        assert result.quantum_value < 1.0
        assert result.discrepancy > 0.0


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
        with pytest.raises(InvalidParameterError, match=re.escape("'P(C+inf|D-0)=1'")):
            hvlogic.gedanken_system()

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
    def test_check_paradox_certificates_replay(self, system):
        cert = check(system)
        if cert.status == "paradox":
            assert not _realizable(system, cert.failing_event)
            if cert.violated_constraint is not None:
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
