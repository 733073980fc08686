"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
report lines.
"""

import itertools
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from hardylab import bellhv, gedanken, hardy4, hvlogic, qcore


def report(number, description, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {description}")
    assert ok, f"criterion {number}: {description}"


@pytest.fixture(scope="module")
def scenario():
    return gedanken.build_state(), gedanken.build_detectors()


def test_criterion_1_gedanken_disturbance(scenario):
    psi, det = scenario
    quantum = qcore.conditional_probability(psi, det.d_minus_0, det.d_minus_inf)
    start = time.perf_counter()  # warm call above; timed call below
    quantum = qcore.conditional_probability(psi, det.d_minus_0, det.d_minus_inf)
    elapsed = time.perf_counter() - start
    hv = 1.0
    ok = (abs(quantum - 0.5) <= 1e-12
          and abs(abs(quantum - hv) - 0.5) <= 1e-12
          and elapsed < 1e-3)
    report(1, f"P(D-inf|D-0) = {quantum:.15f} vs hv 1, in {elapsed*1e6:.0f} us", ok)


def test_criterion_2_gedanken_chain(scenario):
    psi, det = scenario
    conds = [
        qcore.conditional_probability(psi, det.c_plus_inf, det.d_minus_inf),
        qcore.conditional_probability(psi, det.c_minus_inf, det.d_plus_inf),
        qcore.conditional_probability(psi, det.d_minus_0, det.c_plus_inf),
        qcore.conditional_probability(psi, det.d_plus_0, det.c_minus_inf),
    ]
    joint_cc = qcore.born_probability(
        psi, qcore.Projector(det.c_plus_inf.matrix @ det.c_minus_inf.matrix))
    # independent oracle: raw 5x5 numpy evaluation
    v = psi.amplitudes
    dd = det.d_plus_inf.matrix @ det.d_minus_inf.matrix
    joint_dd_oracle = float(np.vdot(v, dd @ v).real)
    joint_dd = qcore.born_probability(
        psi, qcore.Projector(det.d_plus_inf.matrix @ det.d_minus_inf.matrix))
    ok = (all(abs(c - 1.0) <= 1e-12 for c in conds)
          and abs(joint_cc) <= 1e-12
          and abs(joint_dd - 0.25) <= 1e-12
          and abs(joint_dd - joint_dd_oracle) <= 1e-12)
    report(2, f"chain conditionals {conds}, <C+C-> = {joint_cc:.1e}, <D+D-> = {joint_dd}", ok)


def test_criterion_3_complement_test():
    trace = gedanken.full_report()["complement_electron_trace"].quantum_value
    full = gedanken.full_report()["complement_full_space"].quantum_value
    ok = (abs(trace - 0.5) <= 1e-12 and abs(full - 0.75) <= 1e-12
          and trace != 1.0 and full != 1.0)
    report(3, f"electron-sector trace {trace}, full-space conditional {full}", ok)


def test_criterion_4_hardy_closed_forms():
    rng = np.random.default_rng(42)
    alphas = rng.uniform(0.05, 0.95, size=100)
    start = time.perf_counter()
    worst = 0.0
    for alpha in alphas:
        model = hardy4.build_model(float(alpha))
        matrix = hardy4.compute_metrics(model)
        closed = hardy4.closed_form_metrics(model.params)
        for name in ("p_D1", "p_cond_U2_given_D1", "p_cond_U1_given_D2",
                     "p_cond_D2_given_D1", "p_joint_U1U2", "c_bar"):
            worst = max(worst, abs(getattr(matrix, name) - getattr(closed, name)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 0.1
    report(4, f"100 random alphas, worst closed-form deviation {worst:.2e}, {elapsed*1e3:.0f} ms", ok)


def test_criterion_5_paradox_optimum():
    t = np.linspace(0.5e-6, 0.5, 1_000_000)
    oracle = float(np.max(t * t * (1.0 - 2.0 * t) / (1.0 - t) ** 2))
    opt = hardy4.optimize_paradox()
    ok = abs(opt.p_max - oracle) <= 1e-7
    report(5, f"p_max {opt.p_max:.10f} vs 1e6-point grid oracle {oracle:.10f}", ok)


def test_criterion_6_maximal_entanglement_resolution(capsys):
    alpha = 1.0 / math.sqrt(2.0)
    model = hardy4.build_model(alpha)
    metrics = hardy4.compute_metrics(model)
    from hardylab import cli
    code = cli.run(["certify", "--scenario", "hardy", "--alpha", str(alpha)])
    payload = json.loads(capsys.readouterr().out)
    with capsys.disabled():
        ok = (metrics.commutator_D1U1 <= 1e-12
              and metrics.p_cond_D2_given_D1 <= 1e-12
              and code == 0
              and payload["certificate"]["status"] == "satisfiable")
        report(6, f"[D1,U1] = {metrics.commutator_D1U1:.1e}, premise "
                  f"{metrics.p_cond_D2_given_D1:.1e}, certify satisfiable", ok)


def test_criterion_7_bell_model_reproduction():
    worst = 0.0
    for i in range(1000):
        rng = np.random.default_rng(np.random.SeedSequence((42, i)))
        s = bellhv.sample_direction(rng)
        m = bellhv.sample_direction(rng)
        born = qcore.born_probability(bellhv.state_from_bloch(s),
                                      bellhv.projector_from_axis(m))
        worst = max(worst, abs(bellhv.hv_expectation(s, m) - born))
    ok = worst <= 1e-12
    report(7, f"1000 random (s,m): worst |hv - Born| = {worst:.2e}", ok)


def test_criterion_8_bayes_rule_failure():
    cmp = bellhv.compare(bellhv.Z_HAT, bellhv.X_HAT, bellhv.Z_HAT)
    scan = bellhv.scan_discrepancy(10_000, 42)
    ok = (abs(cmp.quantum - 0.5) <= 1e-12
          and abs(cmp.classical - 1.0) <= 1e-12
          and abs(cmp.discrepancy - 0.5) <= 1e-12
          and scan.max.discrepancy >= 0.49)
    report(8, f"(z,x,z): quantum {cmp.quantum}, classical {cmp.classical}; "
              f"scan max {scan.max.discrepancy:.4f}", ok)


def test_criterion_9_commuting_agreement():
    worst = 0.0
    for i in range(100):
        rng = np.random.default_rng(np.random.SeedSequence((7, i)))
        s = bellhv.sample_direction(rng)
        m = bellhv.sample_direction(rng)
        worst = max(worst, bellhv.compare(s, m, m).discrepancy)
        if (1.0 + float(np.dot(s, m))) / 2.0 > 1e-9:  # nondegenerate conditioning
            worst = max(worst, bellhv.compare(s, m, -m).discrepancy)
    ok = worst <= 1e-12
    report(9, f"100 random s with m = n and m = -n: worst discrepancy {worst:.2e}", ok)


def test_criterion_10_monte_carlo_cross_check():
    start = time.perf_counter()
    all_passed = True
    for i in range(10):
        rng = np.random.default_rng(np.random.SeedSequence((1234, i)))
        s = bellhv.sample_direction(rng)
        m = bellhv.sample_direction(rng)
        n = bellhv.sample_direction(rng)
        mc = bellhv.monte_carlo_check(s, m, n, 100_000, seed=i)
        all_passed = all_passed and mc.passed
    elapsed = time.perf_counter() - start
    ok = all_passed and elapsed < 1.0
    report(10, f"10 triples x 1e5 samples within 5 SE, {elapsed*1e3:.0f} ms", ok)


def _holds(assign, literals):
    return all(assign[name] == value for name, value in literals)


def _realizable(system, event_id):
    """Exhaustive enumeration written here, independent of hvlogic's checker."""
    event = next(e for e in system.required_positive if e.cid == event_id)
    for bits in itertools.product((False, True), repeat=len(system.variables)):
        assign = dict(zip(system.variables, bits))
        if (_holds(assign, event.literals)
                and all(not _holds(assign, imp.antecedents) or _holds(assign, (imp.consequent,))
                        for imp in system.implications)
                and not any(_holds(assign, exc.literals) for exc in system.exclusions)):
            return True
    return False


def test_criterion_11_certificates():
    model = hardy4.build_model(0.6)
    hardy_sys = hvlogic.hardy_system(model, hardy4.compute_metrics(model))
    ged_sys = hvlogic.gedanken_system()
    results = []
    for system in (hardy_sys, ged_sys):
        cert = hvlogic.check(system)
        results.append(cert.status == "paradox"
                       and hvlogic.replay(system, cert)
                       and not _realizable(system, cert.failing_event))
    ok = all(results)
    report(11, "hardy(0.6) and gedanken certificates: paradox, replay ok, "
               "unrealizable by an enumeration written in the test", ok)


def test_criterion_12_determinism(cli_env):
    commands = [
        ["gedanken"],
        ["hardy", "--alpha", "0.6"],
        ["--format", "csv", "hardy", "--sweep",
         "--alpha-min", "0.1", "--alpha-max", "0.9", "--steps", "9"],
        ["hardy", "--optimize"],
        ["bell", "--s", "0,0,1", "--m", "1,0,0", "--n", "0,0,1", "--mc-samples", "1000"],
        ["bell", "--scan", "300", "--seed", "5"],
        ["certify", "--scenario", "hardy", "--alpha", "0.6"],
        ["certify", "--scenario", "gedanken"],
        ["certify", "--scenario", "two-step", "--alpha", "0.6"],
    ]
    ok = True
    for argv in commands:
        runs = [subprocess.run([sys.executable, "-m", "hardylab.cli", *argv],
                               capture_output=True, check=True, env=cli_env).stdout
                for _ in range(2)]
        if runs[0] != runs[1]:
            ok = False
            break
    report(12, f"{len(commands)} commands, two runs each, byte-identical output", ok)
