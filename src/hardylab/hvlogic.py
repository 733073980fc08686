"""Local-realism satisfiability checker over dichotomic value assignments.

Quantum facts with probability 0 or 1 become logical constraints
over 0/1 hidden-variable assignments: probability-1 conditionals become
implications, probability-0 joints become exclusions, and strictly
positive joints become events that must be realized by at least one
admissible assignment.  Instances are tiny (<= 20 variables), so the
checker enumerates assignments until every event has a witness, and a
paradox verdict comes with a replayable forced chain.  It enumerates
only the variables some implication, exclusion or event mentions and
holds the rest at 0: such a variable changes neither admissibility nor
any event, so every lowest-index witness has it at 0 already.  Replay's
fallback still enumerates all 2^n assignments on its own.

The commands' encodings are four constant systems, CONSTANT_SYSTEMS,
built once at import: the two Hardy systems (without and with the event
<D1D2>>0), the two-step form they share and the thought experiment's.
hardy_system, two_step_system and gedanken_system run their quantum
checks on every call and then return one of them.  Each one's
certificate is computed by check on first use and then shared
(constant_certificate); check itself keeps no cache, and the caller
still replays a paradox before it prints one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from . import gedanken, hardy4, qcore
from .errors import InternalConsistencyError, InvalidParameterError

MAX_VARIABLES = 20

Literal = tuple[str, bool]


def _fmt_literal(lit: Literal) -> str:
    name, value = lit
    return f"{name}=1" if value else f"{name}=0"


@dataclass(frozen=True)
class Implication:
    cid: str
    antecedents: tuple[Literal, ...]
    consequent: Literal

    def to_text(self) -> str:
        """`['D1=1'] -> U1=0`: the antecedent literals, then the consequent."""
        return f"{[_fmt_literal(l) for l in self.antecedents]} -> {_fmt_literal(self.consequent)}"


@dataclass(frozen=True)
class Exclusion:
    cid: str
    literals: tuple[Literal, ...]


@dataclass(frozen=True)
class RequiredEvent:
    cid: str
    literals: tuple[Literal, ...]


def _literals(item: Implication | Exclusion | RequiredEvent) -> tuple[Literal, ...]:
    """Every literal a constraint or event names: an implication's antecedents, then its consequent."""
    if isinstance(item, Implication):
        return item.antecedents + (item.consequent,)
    return item.literals


@dataclass(frozen=True)
class ConstraintSystem:
    variables: tuple[str, ...]
    implications: tuple[Implication, ...] = ()
    exclusions: tuple[Exclusion, ...] = ()
    required_positive: tuple[RequiredEvent, ...] = ()

    def __post_init__(self):
        if len(set(self.variables)) != len(self.variables):
            raise InvalidParameterError("variable names must be unique")
        if len(self.variables) > MAX_VARIABLES:
            raise InvalidParameterError(f"at most {MAX_VARIABLES} variables supported")
        groups = (self.implications, self.exclusions, self.required_positive)
        # a chain step names its constraint by id, so an id must name one constraint
        ids = [item.cid for group in groups for item in group]
        if len(set(ids)) != len(ids):
            repeated = sorted({cid for cid in ids if ids.count(cid) > 1})
            raise InvalidParameterError(f"constraint ids must be unique, repeated: {repeated}")
        declared = set(self.variables)
        for group in groups:
            for item in group:
                for name, _ in _literals(item):
                    if name not in declared:
                        raise InvalidParameterError(
                            f"constraint {item.cid!r} references undeclared variable {name!r}"
                        )
                # X=1 & X=0 never holds, and check's refutation of such an event would not
                # replay; an antecedent may still share its variable with the consequent
                conjunction = [name for name, _ in
                               (item.antecedents if isinstance(item, Implication) else item.literals)]
                for name in conjunction:
                    if conjunction.count(name) > 1:
                        raise InvalidParameterError(
                            f"constraint {item.cid!r} names variable {name!r} twice in one conjunction"
                        )

    def to_dict(self) -> dict:
        return {
            "variables": list(self.variables),
            "implications": [
                {"id": c.cid,
                 "if": [_fmt_literal(l) for l in c.antecedents],
                 "then": _fmt_literal(c.consequent)}
                for c in self.implications
            ],
            "exclusions": [
                {"id": c.cid, "forbid": [_fmt_literal(l) for l in c.literals]}
                for c in self.exclusions
            ],
            "required_positive": [
                {"id": c.cid, "event": [_fmt_literal(l) for l in c.literals]}
                for c in self.required_positive
            ],
        }


@dataclass(frozen=True)
class ChainStep:
    literal: Literal
    constraint_id: str


@dataclass(frozen=True)
class Certificate:
    status: str  # "satisfiable" | "paradox"
    witness: dict = field(default_factory=dict)  # event id -> satisfying assignment
    failing_event: str | None = None
    forced_chain: tuple[ChainStep, ...] = ()
    violated_constraint: str | None = None

    def to_dict(self) -> dict:
        out = {"status": self.status}
        if self.status == "satisfiable":
            out["witness"] = {k: dict(v) for k, v in self.witness.items()}
        else:
            out["failing_event"] = self.failing_event
            out["forced_chain"] = [
                {"literal": _fmt_literal(s.literal), "by": s.constraint_id}
                for s in self.forced_chain
            ]
            out["violated_constraint"] = self.violated_constraint
        return out


def _admissible(system: ConstraintSystem, assign: dict[str, bool]) -> bool:
    for imp in system.implications:
        if all(assign[n] == v for n, v in imp.antecedents):
            cn, cv = imp.consequent
            if assign[cn] != cv:
                return False
    for exc in system.exclusions:
        if all(assign[n] == v for n, v in exc.literals):
            return False
    return True


def _forced_chain(system: ConstraintSystem, event: RequiredEvent):
    """Unit propagation from the event literals to a violated constraint.

    Returns (chain, violated_cid); chain steps seeded by the event itself
    carry the event id.  Propagates to closure before reporting the first
    violated exclusion, so the chain shows every forced value.
    """
    known: dict[str, bool] = {}
    chain: list[ChainStep] = []
    for lit in event.literals:
        known[lit[0]] = lit[1]
        chain.append(ChainStep(literal=lit, constraint_id=event.cid))
    changed = True
    while changed:
        changed = False
        for imp in system.implications:
            if not all(known.get(n) == v for n, v in imp.antecedents):
                continue
            cn, cv = imp.consequent
            if cn in known:
                if known[cn] != cv:
                    chain.append(ChainStep(literal=imp.consequent, constraint_id=imp.cid))
                    return tuple(chain), imp.cid
                continue
            known[cn] = cv
            chain.append(ChainStep(literal=imp.consequent, constraint_id=imp.cid))
            changed = True
    for exc in system.exclusions:
        if all(known.get(n) == v for n, v in exc.literals):
            return tuple(chain), exc.cid
    return tuple(chain), None


def check(system: ConstraintSystem) -> Certificate:
    """Is every required-positive event realizable?  Enumerates in index order (bit i is
    variable i) until each has a witness: the first admissible assignment realizing it.

    Only the variables some constraint or event mentions are enumerated, in that order;
    the others are held at 0.  Such a variable changes neither admissibility nor any
    event, so clearing it in a witness gives a lower index that is a witness too: the
    witnesses, and the order they are found in, are those of the full 2^n enumeration.
    """
    mentioned = set()
    for group in (system.implications, system.exclusions, system.required_positive):
        for item in group:
            for name, _ in _literals(item):
                mentioned.add(name)
    # each variable's bit in the enumerated index, 0 for one held at 0
    masks = []
    bit = 1
    for name in system.variables:
        if name in mentioned:
            masks.append((name, bit))
            bit <<= 1
        else:
            masks.append((name, 0))
    witness: dict[str, dict[str, bool]] = {}
    pending = {ev.cid: ev for ev in system.required_positive}
    for idx in range(bit):  # bit is 1 << (number of mentioned variables) here
        assign = {name: bool(idx & mask) for name, mask in masks}
        if not _admissible(system, assign):
            continue
        if not system.required_positive:
            witness["any"] = assign
        for cid in [c for c, ev in pending.items()
                    if all(assign[m] == v for m, v in ev.literals)]:
            witness[cid] = assign
            del pending[cid]
        if not pending:
            break
    if pending:
        event = next(iter(pending.values()))
        chain, violated = _forced_chain(system, event)
        return Certificate(status="paradox", failing_event=event.cid,
                           forced_chain=chain, violated_constraint=violated)
    return Certificate(status="satisfiable", witness=witness)


def replay(system: ConstraintSystem, cert: Certificate) -> bool:
    """Independently validate a paradox certificate's forced chain.

    Each step must be licensed by the named constraint given the
    literals established so far (a seed literal by the failing event
    itself), and the terminal constraint must be violated by the
    accumulated assignment.  A fallback certificate, one that names no
    violated constraint, holds only if replay's own enumeration finds no
    admissible assignment realizing the event.
    """
    if cert.status != "paradox":
        return False
    constraints = {c.cid: c for c in system.implications}
    constraints.update({c.cid: c for c in system.exclusions})
    event = next((c for c in system.required_positive if c.cid == cert.failing_event), None)
    if event is None:
        return False
    known: dict[str, bool] = {}
    for step in cert.forced_chain:
        name, value = step.literal
        if step.constraint_id == event.cid:
            if step.literal not in event.literals:
                return False
        else:
            imp = constraints.get(step.constraint_id)
            if not (isinstance(imp, Implication) and imp.consequent == step.literal
                    and all(known.get(a) == v for a, v in imp.antecedents)):
                return False
        if name in known and known[name] != value:
            # the chain itself exposes the contradiction
            return cert.violated_constraint == step.constraint_id
        known[name] = value
    if cert.violated_constraint is None:
        # enumerated here, not through check, so the checker does not vouch for itself
        names = system.variables
        for idx in range(1 << len(names)):
            assign = {var: bool((idx >> i) & 1) for i, var in enumerate(names)}
            if (all(assign[nm] == v for nm, v in event.literals)
                    and all(assign[c.consequent[0]] == c.consequent[1]
                            or not all(assign[a] == v for a, v in c.antecedents)
                            for c in system.implications)
                    and not any(all(assign[nm] == v for nm, v in c.literals)
                                for c in system.exclusions)):
                return False
        return True
    violated = constraints.get(cert.violated_constraint)
    if isinstance(violated, Exclusion):
        return all(known.get(nm) == v for nm, v in violated.literals)
    if isinstance(violated, Implication):
        # violated only when the consequent is known with the opposite value
        cn, cv = violated.consequent
        return all(known.get(a) == v for a, v in violated.antecedents) and known.get(cn) == (not cv)
    return False


def derive_two_step(system: ConstraintSystem) -> list[Implication]:
    """Resolve pairwise exclusions against probability-1 implications.

    From an exclusion forbidding X=1 & Y=1 and an implication A -> X=1,
    derive A -> Y=0.  Applied to the four-variable system this yields
    D1 -> U1=0 and D2 -> U2=0; without the exclusion the derivation is
    empty.
    """
    derived: list[Implication] = []
    seen = set()
    for exc in system.exclusions:
        if len(exc.literals) != 2 or not all(v for _, v in exc.literals):
            continue
        for imp in system.implications:
            cx, cv = imp.consequent
            if not cv:
                continue
            for (xn, _), (yn, _) in ((exc.literals[0], exc.literals[1]),
                                     (exc.literals[1], exc.literals[0])):
                if cx != xn:
                    continue
                new = Implication(cid=f"derived:{imp.cid}&{exc.cid}",
                                  antecedents=imp.antecedents,
                                  consequent=(yn, False))
                key = (new.antecedents, new.consequent)
                if key not in seen and new.consequent not in new.antecedents:
                    seen.add(key)
                    derived.append(new)
    return derived


def _two_step(base: ConstraintSystem) -> tuple[ConstraintSystem, tuple[Implication, ...]]:
    """`base` plus its two-step derivations, requiring only D1=1, and the derived."""
    derived = tuple(derive_two_step(base))
    system = ConstraintSystem(
        variables=base.variables,
        implications=base.implications + derived,
        exclusions=base.exclusions,
        required_positive=(RequiredEvent(cid="<D1>>0", literals=(("D1", True),)),),
    )
    return system, derived


def _implication(given: str, then: str) -> Implication:
    """`given=1 -> then=1`: the encoding of P(then|given) = 1."""
    return Implication(cid=f"P({then}|{given})=1", antecedents=((given, True),),
                       consequent=(then, True))


def _exclusion(cid: str, a: str, b: str) -> Exclusion:
    """Forbid `a=1 & b=1`: the encoding of a joint probability of 0."""
    return Exclusion(cid=cid, literals=((a, True), (b, True)))


def _hardy_constraints(required: tuple[RequiredEvent, ...]) -> ConstraintSystem:
    """The two-qubit encoding: P(U2|D1) = P(U1|D2) = 1 and <U1U2> = 0, requiring `required`."""
    return ConstraintSystem(
        variables=("D1", "D2", "U1", "U2"),
        implications=(_implication("D1", "U2"), _implication("D2", "U1")),
        exclusions=(_exclusion("<U1U2>=0", "U1", "U2"),),
        required_positive=required,
    )


# The commands' four constant systems, each built and validated once: hardy_system's two,
# without and with the event <D1D2>>0; the two-step form of either, with its derived
# implications (the form drops the base's event, so both give this one system); and
# gedanken_system's.
_HARDY_SYSTEMS = (_hardy_constraints(()), _hardy_constraints(
    (RequiredEvent(cid="<D1D2>>0", literals=(("D1", True), ("D2", True))),)))
_TWO_STEP = _two_step(_HARDY_SYSTEMS[0])
_GEDANKEN_SYSTEM = ConstraintSystem(
    variables=("C+inf", "D+inf", "C-inf", "D-inf", "C+0", "D+0", "C-0", "D-0"),
    implications=tuple(_implication(given, then) for given, then in (
        ("C+inf", "D-inf"), ("C-inf", "D+inf"), ("D-0", "C+inf"), ("D+0", "C-inf"))),
    exclusions=(_exclusion("<C+inf C-inf>=0", "C+inf", "C-inf"),),
    required_positive=(RequiredEvent(cid="<D+0 D-0>>0",
                                     literals=(("D+0", True), ("D-0", True))),),
)
CONSTANT_SYSTEMS = (*_HARDY_SYSTEMS, _TWO_STEP[0], _GEDANKEN_SYSTEM)


@functools.cache
def _certificate(index: int) -> Certificate:
    return check(CONSTANT_SYSTEMS[index])


def constant_certificate(system: ConstraintSystem) -> Certificate:
    """check(system) for one of CONSTANT_SYSTEMS, that very object: checked on the first
    call for it in a process, then the same Certificate, which callers only read.

    Keyed by which constant is meant, never by the value of a caller's system; check
    itself caches nothing.  Any other system is InvalidParameterError.
    """
    for index, constant in enumerate(CONSTANT_SYSTEMS):
        if system is constant:
            return _certificate(index)
    raise InvalidParameterError("constant_certificate takes one of CONSTANT_SYSTEMS; "
                                "check any other system")


def two_step_system(base: ConstraintSystem) -> tuple[ConstraintSystem, tuple[Implication, ...]]:
    """`base` plus its two-step derivations, requiring only D1=1; also returns the derived.

    Local realism admits D1=1 here: the contradiction is with the quantum
    P(1-U1|D1) of hardy4.disturbance_contradiction.  The form drops the base's
    events, so either of hardy_system's systems gives the one constant two-step
    form, built once; any other base is derived anew, and an equal base gives an
    equal system either way.
    """
    if base is _HARDY_SYSTEMS[0] or base is _HARDY_SYSTEMS[1]:
        return _TWO_STEP
    return _two_step(base)


def hardy_system(model: hardy4.HardyModel, metrics: hardy4.HardyMetrics,
                 closed: hardy4.HardyMetrics) -> ConstraintSystem:
    """Constraint encoding of the two-qubit model, from the caller's metrics.

    The metrics must first pass hardy4.cross_check against `closed`, the
    model's hardy4.closed_form_metrics, which are exactly 1, 1 and 0 for the
    three encoded fields; a metric off its closed form is a bug,
    InternalConsistencyError.  The event <D1D2> > 0 is required exactly when
    hardy4.paradox_event(metrics) holds (<D1D2> above qcore.zero_threshold(4)),
    the decision hardy4.disturbance_contradiction reads too.  The encoding
    depends on nothing else, so it is one of two constant systems of
    CONSTANT_SYSTEMS; the cross-check runs on every call.
    """
    hardy4.cross_check(metrics, closed, model.params)
    return _HARDY_SYSTEMS[hardy4.paradox_event(metrics)]


def gedanken_system() -> ConstraintSystem:
    """Constraint encoding of the thought-experiment detector relations.

    The exclusion and the four implications encode relations of
    gedanken.full_report(), which raises unless each agrees with its exact
    value; only <D+0 D-0>, which the report does not carry, is computed here,
    by gedanken.joint_probability, and must exceed qcore.zero_threshold.  Both
    checks run on every call, which then returns the constant system of
    CONSTANT_SYSTEMS.
    """
    gedanken.full_report()
    joint_dd0 = gedanken.joint_probability("D+(0)", "D-(0)")
    if not joint_dd0 > qcore.zero_threshold(gedanken.DIM):
        raise InternalConsistencyError("<D+0 D-0> unexpectedly zero; cannot build required event")
    return _GEDANKEN_SYSTEM
