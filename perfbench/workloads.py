"""The benchmark's four workloads: seeded inputs, the timed operation, its check.

Each workload is split in two steps so that set-up time can leave out the
benchmark's own work: `inputs(seed)` draws the inputs and runs the
oracle (the benchmark's own cost), and `ops(inputs)` turns them into
operations on hardylab's public entry points (the program's cost).  One
list of operations is one round; a run repeats whole rounds in the same
order, so every run has the same make-up whatever its length.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from hardylab import bellhv, cli, hvlogic

import oracle


@dataclass
class Op:
    """One timed call and the check of its result."""

    call: Callable[[], object]
    check: Callable[[object], list]
    # True for the hardy_points alphas where the program is known to be
    # wrong today (see oracle.GATE_FAULT); only that error counts as failed.
    known_fault: bool = False


@dataclass
class Workload:
    inputs: Callable[[int], object]
    ops: Callable[[object, Counter], list]
    unit: str  # the workload's own unit of work
    per_op: int  # units of work in one op
    notes: Counter = field(default_factory=Counter)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """`cli.run` in-process, with its standard output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(argv)
    return code, buf.getvalue()


def _cli_op(argv: list[str], check, parse=json.loads, known_fault=False) -> Op:
    def verify(result):
        code, text = result
        if code != 0:
            return [f"{' '.join(argv)}: exit code {code}"]
        try:
            out = parse(text)
        except ValueError as exc:
            return [f"{' '.join(argv)}: unreadable output ({exc})"]
        return [f"{' '.join(argv)}: {e}" for e in check(out)]
    return Op(call=lambda: run_cli(argv), check=verify, known_fault=known_fault)


def _direction(rng: random.Random) -> list[float]:
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        norm = math.sqrt(sum(x * x for x in v))
        if norm > 1e-3:
            return [x / norm for x in v]


# Alphas closer than this to 0, 1 or 1/sqrt(2) are never drawn from the
# seed: near them hvlogic's absolute gate misfires (oracle.GATE_FAULT),
# and the failures must not depend on the seed.  The fault is kept in
# view by the fixed GATE_BAND alphas instead.
ALPHA_MARGIN = 1e-4
GATE_BAND = (1e-6, 1e-5, math.sqrt(0.5) + 1e-8, math.sqrt(0.5) + 1e-6, math.sqrt(0.5) + 4e-6)


def seeded_alpha(rng: random.Random) -> float:
    while True:
        a = rng.random()
        if ALPHA_MARGIN < a < 1.0 - ALPHA_MARGIN and abs(a - math.sqrt(0.5)) > ALPHA_MARGIN:
            return a


# ------------------------------------------------------------ bell_scan ---

SCAN_TRIALS = 100
SCANS_PER_ROUND = 32


def _bell_scan_inputs(seed: int):
    rng = random.Random(seed)
    return [(rng.randrange(2 ** 31), [_direction(rng) for _ in range(3)])
            for _ in range(SCANS_PER_ROUND)]


def _scan_check(trials: int, triple=None):
    def check(out):
        errors = oracle.check_scan(out, trials)
        if triple is not None:
            # bellhv.compare on the benchmark's own triple, against the same formulas
            errors += oracle.check_comparison(bellhv.compare(*triple).to_dict(), *triple)
        return errors
    return check


def _bell_scan_ops(inputs, notes):
    return [_cli_op(["bell", "--scan", str(SCAN_TRIALS), "--seed", str(k)],
                    _scan_check(SCAN_TRIALS, triple))
            for k, triple in inputs]


# --------------------------------------------------------- certify_enum ---

ENUM_VARIABLES = 12
ENUM_IMPLICATIONS = 12
ENUM_EXCLUSIONS = 3
ENUM_EVENTS = 2
# One satisfiable system to three paradoxes, in that order, 128 per round.
# Unequal shares keep op_p50_ms and op_p90_ms each inside one mode should
# satisfiable systems become cheaper than paradoxes (an early exit in
# check once every event has a witness): both fall among the paradoxes.
ENUM_SATISFIABLE = 32
ENUM_PARADOX = 3 * ENUM_SATISFIABLE


def _random_system(rng: random.Random) -> dict:
    names = [f"v{i}" for i in range(ENUM_VARIABLES)]

    def lits(k):
        return tuple((name, rng.random() < 0.5) for name in rng.sample(names, k))

    imps = []
    for i in range(ENUM_IMPLICATIONS):
        ant, cons = lits(2)
        imps.append((f"i{i}", (ant,), cons))
    return {"variables": names, "implications": imps,
            "exclusions": [(f"x{i}", lits(2)) for i in range(ENUM_EXCLUSIONS)],
            "events": [(f"e{i}", lits(2)) for i in range(ENUM_EVENTS)]}


def _certify_enum_inputs(seed: int):
    """Systems with a fixed shape: a satisfiable one, then three paradoxes, and so on.

    Every system has required events, so hvlogic.check always enumerates
    all 2^n assignments.  Paradoxes are kept only when unit propagation
    refutes the failing event: replay then checks a short chain instead
    of enumerating 2^n assignments a second time, and every op is one
    size.
    """
    rng = random.Random(seed)
    wanted = {"satisfiable": ENUM_SATISFIABLE, "paradox": ENUM_PARADOX}
    picked: dict[str, list] = {"satisfiable": [], "paradox": []}
    while any(len(picked[k]) < n for k, n in wanted.items()):
        system = _random_system(rng)
        verdict = oracle.solve(system)
        if verdict["status"] == "paradox":
            first = dict(system["events"])[verdict["unrealizable"][0]]
            if not oracle.propagation_refutes(system, first):
                continue
        if len(picked[verdict["status"]]) < wanted[verdict["status"]]:
            picked[verdict["status"]].append((system, verdict))
    paradoxes = iter(picked["paradox"])
    return [pair for sat in picked["satisfiable"]
            for pair in (sat, next(paradoxes), next(paradoxes), next(paradoxes))]


def to_program_system(system: dict) -> hvlogic.ConstraintSystem:
    return hvlogic.ConstraintSystem(
        variables=tuple(system["variables"]),
        implications=tuple(hvlogic.Implication(cid=c, antecedents=a, consequent=q)
                           for c, a, q in system["implications"]),
        exclusions=tuple(hvlogic.Exclusion(cid=c, literals=l) for c, l in system["exclusions"]),
        required_positive=tuple(hvlogic.RequiredEvent(cid=c, literals=l)
                                for c, l in system["events"]),
    )


def certify(system: hvlogic.ConstraintSystem):
    """The certify_enum op: exhaustive check, then replay of a paradox certificate."""
    cert = hvlogic.check(system)
    return cert, (hvlogic.replay(system, cert) if cert.status == "paradox" else None)


def _certify_enum_ops(inputs, notes):
    def op(system, verdict):
        program_system = to_program_system(system)

        def check(result):
            cert, replayed = result
            # replay's answer is counted, not trusted: it accepts forged chains
            notes[{None: "replay not run", True: "replay accepted",
                   False: "replay rejected"}[replayed]] += 1
            return oracle.check_certificate(system, oracle.parse_certificate(cert.to_dict()),
                                            verdict)
        return Op(call=lambda: certify(program_system), check=check)
    return [op(system, verdict) for system, verdict in inputs]


# --------------------------------------------------------- hardy_points ---

POINTS_PER_ROUND = 200


def _hardy_points_inputs(seed: int):
    rng = random.Random(seed)
    alphas = [seeded_alpha(rng) for _ in range(POINTS_PER_ROUND - len(GATE_BAND))]
    stride = POINTS_PER_ROUND // len(GATE_BAND)
    for i, alpha in enumerate(GATE_BAND):
        alphas.insert(i * stride, alpha)
    return alphas


def _hardy_points_ops(alphas, notes):
    return [_cli_op(["hardy", "--alpha", repr(a)],
                    lambda out, a=a: oracle.check_hardy_point(a, out),
                    known_fault=a in GATE_BAND)
            for a in alphas]


# ---------------------------------------------------------- cli_session ---

SESSIONS_PER_ROUND = 3
SESSION_SCAN_TRIALS = 300
SWEEP_STEPS = 9
BELL_AXES = ([0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0])


def _cli_session_inputs(seed: int):
    rng = random.Random(seed)
    return [{"alpha": seeded_alpha(rng), "lo": rng.uniform(0.05, 0.45),
             "hi": rng.uniform(0.55, 0.95), "mc_seed": rng.randrange(2 ** 31),
             "scan_seed": rng.randrange(2 ** 31)}
            for _ in range(SESSIONS_PER_ROUND)]


def _certify_check(expected: dict, two_step_alpha=None):
    def check(out):
        errors = oracle.check_certify(out, expected)
        if out.get("certificate", {}).get("status") == "paradox" and out.get("replay_ok") is not True:
            errors.append("replay_ok is not true")
        if two_step_alpha is not None:
            got = out.get("quantum_vs_hv", {}).get("quantum_value")
            if not oracle.close(got, oracle.hardy_closed(two_step_alpha)["c_bar"]):
                errors.append(f"quantum_vs_hv.quantum_value {got!r}")
        return errors
    return check


def _session_ops(p: dict) -> list[Op]:
    """The nine commands of the CLI's determinism criterion, on one set of parameters."""
    a = repr(p["alpha"])
    axes = [",".join(f"{x:g}" for x in v) for v in BELL_AXES]
    return [
        _cli_op(["gedanken"], oracle.check_gedanken),
        _cli_op(["hardy", "--alpha", a], lambda out: oracle.check_hardy_point(p["alpha"], out)),
        _cli_op(["--format", "csv", "hardy", "--sweep", "--alpha-min", repr(p["lo"]),
                 "--alpha-max", repr(p["hi"]), "--steps", str(SWEEP_STEPS)],
                lambda text: oracle.check_sweep_csv(text, p["lo"], p["hi"], SWEEP_STEPS),
                parse=str),
        _cli_op(["hardy", "--optimize"], oracle.check_optimum),
        _cli_op(["bell", "--s", axes[0], "--m", axes[1], "--n", axes[2],
                 "--mc-samples", "1000", "--seed", str(p["mc_seed"])],
                lambda out: oracle.check_bell_single(out, *BELL_AXES)),
        _cli_op(["bell", "--scan", str(SESSION_SCAN_TRIALS), "--seed", str(p["scan_seed"])],
                _scan_check(SESSION_SCAN_TRIALS)),
        _cli_op(["certify", "--scenario", "hardy", "--alpha", a],
                _certify_check(oracle.hardy_expected_system(p["alpha"]))),
        _cli_op(["certify", "--scenario", "gedanken"], _certify_check(oracle.GEDANKEN_SYSTEM)),
        _cli_op(["certify", "--scenario", "two-step", "--alpha", a],
                _certify_check(oracle.hardy_expected_system(p["alpha"], two_step=True),
                               two_step_alpha=p["alpha"])),
    ]


def _cli_session_ops(sessions, notes):
    return [op for p in sessions for op in _session_ops(p)]


WORKLOADS = {
    "bell_scan": lambda: Workload(_bell_scan_inputs, _bell_scan_ops, "trials", SCAN_TRIALS),
    "certify_enum": lambda: Workload(_certify_enum_inputs, _certify_enum_ops,
                                     "assignments", 1 << ENUM_VARIABLES),
    "hardy_points": lambda: Workload(_hardy_points_inputs, _hardy_points_ops, "verdicts", 1),
    "cli_session": lambda: Workload(_cli_session_inputs, _cli_session_ops, "commands", 1),
}
