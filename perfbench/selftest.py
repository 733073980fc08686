"""Self-test of the benchmark's checkers: each must pass a right answer and reject a wrong one.

    python3 perfbench/selftest.py

Right answers are real hardylab outputs; wrong ones are the same outputs
with one value moved (a probability by 1e-6, a histogram count by one,
p_max by 1e-6) or a certificate forged or flipped.  A checker that
passes a wrong answer proves nothing, so any such case exits 1.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hardylab import hvlogic  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402


def cli_json(*argv):
    code, text = workloads.run_cli(list(argv))
    assert code == 0, argv
    return json.loads(text)


def bump(path, delta=1e-6):
    """Mutation adding delta to the value at a key path."""
    def mutate(out):
        node = out
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] += delta
        return out
    return mutate


def setitem(path, value):
    def mutate(out):
        node = out
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return out
    return mutate


def hardy_cases():
    for alpha in (0.6, 0.0123, 0.9876):
        good = cli_json("hardy", "--alpha", repr(alpha))
        check = lambda out, a=alpha: oracle.check_hardy_point(a, out)
        for key in ("p_D1", "p_cond_D2_given_D1", "p_joint_D1D2", "p_cond_U2_given_D1"):
            yield f"hardy {alpha}: matrix.{key} off by 1e-6", check, good, bump(["matrix", key])
        yield (f"hardy {alpha}: paradox flipped", check, good, setitem(["paradox"], "absent"))
        yield (f"hardy {alpha}: contradiction value off by 1e-6", check, good,
               bump(["disturbance_contradiction", "quantum_value"]))


def move_top_count(out):
    top = max(i for i, c in enumerate(out["histogram"]) if c)
    out["histogram"][top] -= 1
    out["histogram"][min(top + 1, 19) if top < 19 else 0] += 1
    return out


def bell_cases():
    good = cli_json("bell", "--scan", "50", "--seed", "3")
    check = lambda out: oracle.check_scan(out, 50)
    yield "scan: histogram total off by one", check, good, bump(["histogram", 0], 1)
    yield "scan: top bin disagrees with the max", check, good, move_top_count
    yield "scan: max quantum off by 1e-6", check, good, bump(["max", "quantum"])
    yield "scan: max classical off by 1e-6", check, good, bump(["max", "classical"])
    single = cli_json("bell", "--s", "0,0,1", "--m", "1,0,0", "--n", "0,0,1",
                      "--mc-samples", "1000", "--seed", "7")
    check = lambda out: oracle.check_bell_single(out, *workloads.BELL_AXES)
    yield "bell single: quantum off by 1e-6", check, single, bump(["quantum"])
    yield "bell single: Monte Carlo estimate off", check, single, bump(["monte_carlo", "classical_estimate"], -0.01)


def session_cases():
    good = cli_json("hardy", "--optimize")
    yield "optimize: p_max off by 1e-6", oracle.check_optimum, good, bump(["p_max"])
    yield "optimize: alpha* off by 1e-5", oracle.check_optimum, good, bump(["alpha_star"], 1e-5)
    good = cli_json("gedanken")
    yield ("gedanken: 3/4 off by 1e-6", oracle.check_gedanken, good,
           bump(["relations", "complement_full_space", "quantum_value"]))
    yield ("gedanken: chain value off by 1e-6", oracle.check_gedanken, good,
           bump(["relations", "P(C+inf|D-0)", "quantum_value"], -1e-6))
    code, text = workloads.run_cli(["--format", "csv", "hardy", "--sweep", "--alpha-min", "0.1",
                                    "--alpha-max", "0.9", "--steps", "9"])
    check = lambda t: oracle.check_sweep_csv(t, 0.1, 0.9, 9)
    yield "csv: a row missing", check, text, lambda t: "\n".join(t.splitlines()[:-1])

    def csv_bump(t):
        lines = t.splitlines()
        cols = lines[3].split(",")
        cols[2] = repr(float(cols[2]) + 1e-6)
        lines[3] = ",".join(cols)
        return "\n".join(lines)
    yield "csv: p_D1 off by 1e-6", check, text, csv_bump
    good = cli_json("certify", "--scenario", "hardy", "--alpha", "0.6")
    check = lambda out: oracle.check_certify(out, oracle.hardy_expected_system(0.6))
    yield ("certify hardy: implication dropped from the system", check, good,
           lambda out: (out["system"]["implications"].pop(), out)[1])
    yield ("certify hardy: verdict flipped", check, good,
           setitem(["certificate", "status"], "satisfiable"))
    yield ("certify hardy: chain step dropped", check, good,
           lambda out: (out["certificate"]["forced_chain"].pop(1), out)[1])


def certificate_cases():
    """Certificates straight from hvlogic, against the oracle's verdict."""
    forged_system = {"variables": ["D1", "U2"],
                     "implications": [("P(U2|D1)=1", (("D1", True),), ("U2", True))],
                     "exclusions": [], "events": [("<D1>>0", (("D1", True),))]}
    forged = {"status": "paradox", "witness": {}, "failing_event": "<D1>>0",
              "chain": [(("D1", True), "<D1>>0"), (("U2", True), "P(U2|D1)=1")],
              "violated": "P(U2|D1)=1"}
    program_cert = hvlogic.Certificate(
        status="paradox", failing_event="<D1>>0", violated_constraint="P(U2|D1)=1",
        forced_chain=tuple(hvlogic.ChainStep(literal=l, constraint_id=c) for l, c in forged["chain"]))
    accepted = hvlogic.replay(workloads.to_program_system(forged_system), program_cert)
    print(f"info: hvlogic.replay on the forged certificate returns {accepted}")
    yield ("forged paradox on a satisfiable system",
           lambda c: oracle.check_certificate(forged_system, c, oracle.solve(forged_system)),
           {**forged, "status": "satisfiable", "witness": {"<D1>>0": {"D1": True, "U2": True}}},
           lambda c: forged)

    inputs = workloads.WORKLOADS["certify_enum"]().inputs(5)
    for system, verdict in inputs[:2]:  # one satisfiable, one paradox
        cert, _ = workloads.certify(workloads.to_program_system(system))
        good = oracle.parse_certificate(cert.to_dict())
        check = lambda c, s=system, v=verdict: oracle.check_certificate(s, c, v)
        status = verdict["status"]
        flipped = "paradox" if status == "satisfiable" else "satisfiable"
        yield f"enum {status}: verdict flipped", check, good, setitem(["status"], flipped)
        if status == "satisfiable":
            def unrealize(c, s=system):
                cid, lits = s["events"][0]
                c["witness"][cid][lits[0][0]] = not lits[0][1]
                return c
            yield "enum satisfiable: witness misses its event", check, good, unrealize
        else:
            yield ("enum paradox: literal flipped in the chain", check, good,
                   lambda c: {**c, "chain": c["chain"][:1] + [
                       ((c["chain"][1][0][0], not c["chain"][1][0][1]), c["chain"][1][1])]
                       + c["chain"][2:]})
            yield ("enum paradox: violated constraint misnamed", check, good,
                   setitem(["violated"], "no-such-constraint"))


def main() -> int:
    bad = 0
    for group in (hardy_cases, bell_cases, session_cases, certificate_cases):
        for label, check, good, mutate in group():
            good_errors = check(copy.deepcopy(good))
            wrong_errors = check(mutate(copy.deepcopy(good)))
            ok = not good_errors and wrong_errors
            bad += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {label}"
                  + (f"  (right answer rejected: {good_errors[:1]})" if good_errors else "")
                  + ("" if wrong_errors else "  (wrong answer passed)"))
    print(f"{'all checkers reject wrong answers' if not bad else f'{bad} cases failed'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
