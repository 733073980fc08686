import contextlib
import dataclasses
import io
import json
import math
import re
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hardylab import bellhv, cli, gedanken, hardy4, qcore
from hardylab.errors import InvalidParameterError


def run_json(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestGedankenCommand:
    def test_report(self, capsys):
        code, payload = run_json(capsys, ["gedanken"])
        assert code == 0
        rel = payload["relations"]["P(D-inf|D-0)"]
        assert rel["quantum_value"] == pytest.approx(0.5, abs=1e-12)
        assert rel["hv_prediction"] == 1.0
        assert rel["discrepancy"] == pytest.approx(0.5, abs=1e-12)


class TestHardyCommand:
    def test_single_alpha(self, capsys):
        code, payload = run_json(capsys, ["hardy", "--alpha", "0.6"])
        assert code == 0
        assert payload["paradox"] == "present"
        assert payload["matrix"]["p_cond_D2_given_D1"] == pytest.approx(0.04 / 0.52, abs=1e-10)
        assert payload["closed_form"]["c_bar"] == pytest.approx(1.0 - 0.04 / 0.52, abs=1e-12)

    def test_maximal_entanglement_absent(self, capsys):
        code, payload = run_json(capsys, ["hardy", "--alpha", str(1.0 / math.sqrt(2.0))])
        assert code == 0
        assert payload["paradox"] == "absent"
        assert payload["disturbance_contradiction"]["status"] == "no_contradiction"

    @pytest.mark.parametrize("alpha", [1e-6, 1e-5, math.sqrt(0.5) + 1e-10, math.sqrt(0.5) + 1e-8,
                                       math.sqrt(0.5) + 1e-6])
    def test_paradox_present_off_maximal_entanglement(self, capsys, alpha):
        code, payload = run_json(capsys, ["hardy", "--alpha", repr(alpha)])
        assert code == 0
        assert payload["paradox"] == "present"

    @pytest.mark.parametrize("alpha", [math.sqrt(0.5)])
    def test_paradox_absent_at_maximal_entanglement(self, capsys, alpha):
        code, payload = run_json(capsys, ["hardy", "--alpha", repr(alpha)])
        assert code == 0
        assert payload["paradox"] == "absent"

    @settings(max_examples=100, deadline=None)
    @given(alpha=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
    @example(alpha=math.sqrt(0.5) + 2e-9)
    @example(alpha=math.sqrt(0.5) + 1e-9)
    def test_paradox_iff_contradiction(self, alpha):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(["hardy", "--alpha", repr(alpha)])
        # alpha*beta below ~1.4e-14 leaves <D1> under qcore.zero_threshold(4)
        assert code in (0, 2)
        if code == 0:
            payload = json.loads(out.getvalue())
            contradiction = payload["disturbance_contradiction"]
            assert ((payload["paradox"] == "present")
                    == (contradiction["status"] == "contradiction")
                    == (contradiction["discrepancy"] > 0.0))

    @pytest.mark.parametrize("alpha", [math.sqrt(0.5) + sign * 10.0 ** k
                                       for k in range(-16, -2) for sign in (-1, 1)]
                             + [math.nextafter(math.sqrt(0.5), 0.0),
                                math.nextafter(math.sqrt(0.5), 1.0)])
    def test_one_zero_rule_near_maximal_entanglement(self, capsys, alpha):
        """The paradox, the contradiction, a positive discrepancy and a certified paradox
        all hold exactly when the matrix <D1D2> is above qcore.zero_threshold(4)."""
        code, payload = run_json(capsys, ["hardy", "--alpha", repr(alpha)])
        assert code == 0
        contradiction = payload["disturbance_contradiction"]
        positive = payload["matrix"]["p_joint_D1D2"] > qcore.zero_threshold(4)
        assert (payload["paradox"] == "present") == positive
        assert (contradiction["status"] == "contradiction") == positive
        assert (contradiction["discrepancy"] > 0.0) == positive
        code, payload = run_json(capsys, ["certify", "--scenario", "hardy", "--alpha", repr(alpha)])
        assert code == 0
        assert (payload["certificate"]["status"] == "paradox") == positive
        assert payload.get("replay_ok", False) == positive

    def test_optimize(self, capsys):
        code, payload = run_json(capsys, ["hardy", "--optimize"])
        assert code == 0
        assert payload["p_max"] == pytest.approx(0.0901699437494742, abs=1e-7)

    def test_sweep_csv(self, capsys):
        code = cli.run(["--format", "csv", "hardy", "--sweep",
                        "--alpha-min", "0.2", "--alpha-max", "0.8", "--steps", "4"])
        out = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert out[0].startswith("alpha,beta,p_D1")
        assert len(out) == 5

    def test_invalid_alpha_exit_2(self, capsys):
        assert cli.run(["hardy", "--alpha", "1.5"]) == 2

    def test_missing_mode_exit_2(self, capsys):
        assert cli.run(["hardy"]) == 2

    def test_sweep_missing_bounds_exit_2(self, capsys):
        assert cli.run(["hardy", "--sweep"]) == 2

    def test_steps_above_cap_exit_2(self, capsys):
        assert cli.run(["hardy", "--sweep", "--alpha-min", "0.1", "--alpha-max", "0.9",
                        "--steps", str(hardy4.MAX_STEPS + 1)]) == 2

    @pytest.mark.parametrize("alpha_min, steps", [("0.35392958546780345", "2"),
                                                  ("0.01870396532166641", "181")])
    def test_sweep_whose_grid_rounds_past_alpha_max(self, capsys, monkeypatch, alpha_min, steps):
        """The grid formula's last point rounds to 1.0 here; the sweep clamps it to
        alpha_max instead of refusing a request that passed validation.  The printed
        alpha has 15 digits, so the rows are read where the command builds them."""
        built = []
        sweep = hardy4.sweep

        def spy(*args):
            built.append(sweep(*args))
            return built[-1]
        monkeypatch.setattr(hardy4, "sweep", spy)
        code, payload = run_json(capsys, ["hardy", "--sweep", "--alpha-min", alpha_min,
                                          "--alpha-max", "0.9999999999999999", "--steps", steps])
        assert code == 0
        assert len(payload["rows"]) == int(steps)
        assert built[0][-1][0] == 0.9999999999999999


COMPARE_STDOUT = """\
{
  "classical": 1.0,
  "discrepancy": 0.5,
  "m": [
    1.0,
    0.0,
    0.0
  ],
  "n": [
    0.0,
    0.0,
    1.0
  ],
  "quantum": 0.5,
  "s": [
    0.0,
    0.0,
    1.0
  ]
}
"""

SCAN_1000_SEED_42_STDOUT = """\
{
  "histogram": [
    99,
    110,
    101,
    86,
    64,
    68,
    63,
    53,
    59,
    43,
    39,
    39,
    29,
    42,
    33,
    20,
    15,
    20,
    13,
    4
  ],
  "max": {
    "classical": 0.0,
    "discrepancy": 0.988884049052397,
    "m": [
      0.194653816209721,
      0.120869079542731,
      0.973396403037059
    ],
    "n": [
      0.0898332591276067,
      0.302201253241604,
      0.949001785084578
    ],
    "quantum": 0.988884049052397,
    "s": [
      -0.747745657131734,
      -0.620887029799452,
      0.235320480339992
    ]
  }
}
"""


COMPARE_MC_STDOUT = """\
{
  "classical": 1.0,
  "discrepancy": 0.5,
  "m": [
    1.0,
    0.0,
    0.0
  ],
  "monte_carlo": {
    "classical_estimate": 1.0,
    "exact": 1.0,
    "passed": true,
    "z_score": 0.0
  },
  "n": [
    0.0,
    0.0,
    1.0
  ],
  "quantum": 0.5,
  "s": [
    0.0,
    0.0,
    1.0
  ]
}
"""

# s = m = (1,1,1)/|(1,1,1)|: s.s rounds to 1.0000000000000002, so the response interval
# starts at -0.5000000000000001, inside the 1e-15 slack of the range check
SLACK_MC_STDOUT = """\
{
  "classical": 0.788675134594813,
  "discrepancy": 2.22044604925031e-16,
  "m": [
    0.577350269189626,
    0.577350269189626,
    0.577350269189626
  ],
  "monte_carlo": {
    "classical_estimate": 0.79,
    "exact": 0.788675134594813,
    "passed": true,
    "z_score": 0.0725658668079235
  },
  "n": [
    0.0,
    0.0,
    1.0
  ],
  "quantum": 0.788675134594813,
  "s": [
    0.577350269189626,
    0.577350269189626,
    0.577350269189626
  ]
}
"""

class TestBellCommand:
    def test_compare(self, capsys):
        code, payload = run_json(capsys, ["bell", "--s", "0,0,1", "--m", "1,0,0", "--n", "0,0,1"])
        assert code == 0
        assert payload["quantum"] == pytest.approx(0.5, abs=1e-12)
        assert payload["classical"] == pytest.approx(1.0, abs=1e-12)

    def test_compare_stdout_golden(self, capsys):
        assert cli.run(["bell", "--s", "0,0,1", "--m", "1,0,0", "--n", "0,0,1"]) == 0
        assert capsys.readouterr().out == COMPARE_STDOUT

    def test_scan_stdout_golden(self, capsys):
        """Every printed byte of one scan: the maximum comes from `compare`'s core, so a
        changed digit there shows here, where a comparison with `compare` would not."""
        assert cli.run(["bell", "--scan", "1000", "--seed", "42"]) == 0
        assert capsys.readouterr().out == SCAN_1000_SEED_42_STDOUT

    def test_monte_carlo_stdout_golden(self, capsys):
        """The Monte Carlo path, whose exact value is `compare`'s classical core."""
        assert cli.run(["bell", "--s", "0,0,1", "--m", "1,0,0", "--n", "0,0,1",
                        "--mc-samples", "100000"]) == 0
        assert capsys.readouterr().out == COMPARE_MC_STDOUT

    def test_interval_end_in_the_range_slack_stdout_golden(self, capsys):
        assert cli.run(["bell", "--s=1,1,1", "--m=1,1,1", "--n=0,0,1", "--mc-samples", "500",
                        "--seed", "3"]) == 0
        assert capsys.readouterr().out == SLACK_MC_STDOUT

    def test_negative_first_component_needs_equals_form(self, capsys):
        code, payload = run_json(capsys, ["bell", "--s", "0,0,1", "--m=-1,0,0", "--n", "0,0,1"])
        assert code == 0
        assert payload["m"] == [-1.0, 0.0, 0.0]
        assert payload["quantum"] == pytest.approx(0.5, abs=1e-12)
        assert payload["classical"] == 1.0

    @pytest.mark.parametrize("mode", [[], ["--mc-samples", "1000"]], ids=" ".join)
    @pytest.mark.parametrize("m_x", ["3e-8", "6e-8", "1e-7"])
    def test_near_antiparallel_axis_exit_2(self, capsys, m_x, mode):
        # (1 + s.m)/2 lies above qcore's rounding threshold but at most bellhv.MIN_MEASURE
        m = np.array([float(m_x), 0.0, -1.0])
        measure = (1.0 + float(np.dot([0.0, 0.0, 1.0], m / np.linalg.norm(m)))) / 2.0
        assert qcore.zero_threshold(2) < measure <= bellhv.MIN_MEASURE
        assert cli.run(["bell", "--s", "0,0,1", f"--m={m_x},0,-1", "--n", "1,0,0", *mode]) == 2
        assert "hidden-variable measure" in capsys.readouterr().err

    def test_vectors_normalized(self, capsys):
        code, payload = run_json(capsys, ["bell", "--s", "0,0,9", "--m", "3,0,0", "--n", "0,0,2"])
        assert code == 0
        assert payload["s"] == [0.0, 0.0, 1.0]

    def test_monte_carlo_attached(self, capsys):
        code, payload = run_json(capsys, ["bell", "--s", "0,0,1", "--m", "1,0,0",
                                          "--n", "0,0,1", "--mc-samples", "1000"])
        assert code == 0
        assert payload["monte_carlo"]["passed"] is True

    def test_monte_carlo_parses_each_vector_once(self, capsys, monkeypatch):
        parsed = []
        parse = cli._parse_vector
        monkeypatch.setattr(cli, "_parse_vector", lambda text: parsed.append(text) or parse(text))
        assert cli.run(["bell", "--s", "0,0,1", "--m", "1,0,0", "--n", "0,1,0",
                        "--mc-samples", "1000"]) == 0
        assert parsed == ["0,0,1", "1,0,0", "0,1,0"]

    def test_scan(self, capsys):
        code, payload = run_json(capsys, ["bell", "--scan", "100", "--seed", "5"])
        assert code == 0
        assert sum(payload["histogram"]) == 100
        assert payload["max"]["discrepancy"] >= 0.0

    def test_bad_vector_exit_2(self, capsys):
        assert cli.run(["bell", "--s", "0,0", "--m", "1,0,0", "--n", "0,0,1"]) == 2
        assert cli.run(["bell", "--s", "0,0,1e-9", "--m", "1,0,0", "--n", "0,0,1"]) == 2

    @pytest.mark.parametrize("flag, text", [("--s", "inf,0,1"), ("--n", "0,nan,1")])
    def test_non_finite_vector_exit_2(self, cli_env, flag, text):
        vectors = {"--s": "0,0,1", "--m": "1,0,0", "--n": "0,0,1", flag: text}
        proc = subprocess.run([sys.executable, "-m", "hardylab.cli", "bell",
                               *(f"{k}={v}" for k, v in vectors.items())],
                              capture_output=True, env=cli_env)
        assert proc.returncode == 2
        assert proc.stdout == b""
        # only the error line: no numpy warning from normalizing the vector first
        assert proc.stderr == f"error: vector {text!r} has a non-finite component\n".encode()

    def test_huge_vector_normalizes_without_overflow(self, cli_env):
        def bell(s):
            return subprocess.run([sys.executable, "-m", "hardylab.cli", "bell", "--s", s,
                                   "--m", "1,0,0", "--n", "0,0,1"],
                                  capture_output=True, env=cli_env)
        huge, plain = bell("1e200,1e200,0"), bell("1,1,0")
        assert (huge.returncode, huge.stderr) == (0, b"")
        assert huge.stdout == plain.stdout

    @pytest.mark.parametrize("k", [-19, 0, 7, 510, 600, 1023 - 4])
    def test_power_of_two_scale_moves_no_digit(self, k):
        expected = np.array([3.0, -4.0, 12.0]) / 13.0
        text = ",".join(repr(math.ldexp(c, k)) for c in (3.0, -4.0, 12.0))
        assert np.array_equal(cli._parse_vector(text), expected)

    @pytest.mark.parametrize("text", ["1e-300,-1e-300,0", "5e-324,0,0", "5.7e-7,5.7e-7,5.7e-7"])
    def test_norm_below_1e_6_rejected(self, text):
        with pytest.raises(InvalidParameterError, match="too close to zero"):
            cli._parse_vector(text)

    def test_norm_above_1e_6_accepted(self):
        """|(5.8e-7, 5.8e-7, 5.8e-7)| = 1.005e-6: the threshold is on |v|, not on a component."""
        v = cli._parse_vector("5.8e-7,5.8e-7,5.8e-7")
        assert np.allclose(v, np.ones(3) / math.sqrt(3.0), rtol=0, atol=1e-15)

    def test_missing_vectors_exit_2(self, capsys):
        assert cli.run(["bell"]) == 2

    def test_scan_above_cap_exit_2(self, capsys):
        assert cli.run(["bell", "--scan", str(bellhv.MAX_TRIALS + 1)]) == 2

    def test_mc_samples_above_cap_exit_2(self, capsys):
        assert cli.run(["bell", "--s", "0,0,1", "--m", "1,0,0", "--n", "0,0,1",
                        "--mc-samples", str(bellhv.MAX_SAMPLES + 1)]) == 2


class TestCertifyCommand:
    def test_hardy_paradox(self, capsys):
        code, payload = run_json(capsys, ["certify", "--scenario", "hardy", "--alpha", "0.6"])
        assert code == 0
        assert payload["certificate"]["status"] == "paradox"
        assert payload["replay_ok"] is True
        assert "gray_code_agrees" not in payload

    def test_hardy_satisfiable_at_maximal_entanglement(self, capsys):
        code, payload = run_json(capsys, ["certify", "--scenario", "hardy",
                                          "--alpha", str(1.0 / math.sqrt(2.0))])
        assert code == 0
        assert payload["certificate"]["status"] == "satisfiable"

    def test_gedanken(self, capsys):
        code, payload = run_json(capsys, ["certify", "--scenario", "gedanken"])
        assert code == 0
        assert payload["certificate"]["status"] == "paradox"
        assert payload["replay_ok"] is True

    def test_two_step(self, capsys):
        code, payload = run_json(capsys, ["certify", "--scenario", "two-step", "--alpha", "0.6"])
        assert code == 0
        assert payload["certificate"]["status"] == "satisfiable"
        assert payload["quantum_vs_hv"]["discrepancy"] == pytest.approx(0.04 / 0.52, abs=1e-10)

    @pytest.mark.parametrize("field", ["p_D1", "p_joint_D1D2", "p_cond_D2_given_D1",
                                       "commutator_D1U1"])
    @pytest.mark.parametrize("argv", ["hardy --alpha 0.6", "certify --scenario hardy",
                                      "certify --scenario two-step"])
    def test_shifted_metric_fails_the_closed_form_cross_check(self, capsys, monkeypatch,
                                                              argv, field):
        """Every mode that encodes the matrix metrics checks them against the closed forms."""
        compute = hardy4.compute_metrics
        monkeypatch.setattr(hardy4, "compute_metrics", lambda model: dataclasses.replace(
            compute(model), **{field: getattr(compute(model), field) * (1.0 + 1e-9)}))
        assert cli.run(argv.split()) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"internal cross-check failed: closed-form cross-check failed for {field}: ")

    @pytest.mark.parametrize("argv, closed_forms", [("hardy --alpha 0.6", 2),
                                                    ("certify --scenario hardy", 1),
                                                    ("certify --scenario two-step", 2)])
    def test_one_cross_check_per_mode(self, capsys, monkeypatch, argv, closed_forms):
        """One cross_check per mode; disturbance_contradiction takes the closed forms again."""
        calls = []

        def counted(name):
            fn = getattr(hardy4, name)

            def wrapper(*args):
                calls.append(name)
                return fn(*args)
            return wrapper
        for name in ("closed_form_metrics", "cross_check"):
            monkeypatch.setattr(hardy4, name, counted(name))
        assert cli.run(argv.split()) == 0
        assert (calls.count("closed_form_metrics"), calls.count("cross_check")) == (closed_forms, 1)

    def test_alpha_defaults_to_06(self, capsys):
        for scenario in ("hardy", "two-step"):
            cli.run(["certify", "--scenario", scenario])
            default = capsys.readouterr().out
            cli.run(["certify", "--scenario", scenario, "--alpha", "0.6"])
            assert capsys.readouterr().out == default

    def test_unknown_scenario_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.run(["certify", "--scenario", "nonsense"])
        assert excinfo.value.code == 2


class TestGlobalFlags:
    def test_unknown_flag_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.run(["gedanken", "--bogus"])
        assert excinfo.value.code == 2

    def test_seed_after_subcommand(self, capsys):
        assert cli.run(["bell", "--scan", "10", "--seed", "3"]) == 0

    def test_determinism_same_output(self, capsys):
        cli.run(["bell", "--scan", "50", "--seed", "11"])
        first = capsys.readouterr().out
        cli.run(["bell", "--scan", "50", "--seed", "11"])
        second = capsys.readouterr().out
        assert first == second

    def test_round15_rounds_floats_and_keeps_bools(self):
        """bool is not a float subclass, so it passes unchanged; np.float64 is one, so it rounds."""
        out = cli._round15({"flags": (True, False), "x": [np.float64(0.1 + 0.2), 0.1 + 0.2, 3]})
        assert out == {"flags": [True, False], "x": [0.3, 0.3, 3]}
        assert [type(v) for v in out["flags"] + out["x"]] == [bool, bool, float, float, int]

    @pytest.mark.parametrize("argv", [
        ["--seed", "1", "gedanken"],
        ["hardy", "--alpha", "0.6", "--seed", "1"],
        ["certify", "--scenario", "hardy", "--seed", "1"],
        ["bell", "--s", "0,0,1", "--m", "1,0,0", "--n", "0,0,1", "--seed", "1"],
        ["--format", "csv", "gedanken"],
        ["hardy", "--alpha", "0.6", "--format", "csv"],
        ["--format", "csv", "hardy", "--optimize"],
        ["bell", "--scan", "10", "--format", "csv"],
        ["certify", "--scenario", "gedanken", "--format", "csv"],
    ], ids=" ".join)
    def test_unread_flag_exit_2(self, capsys, argv):
        assert cli.run(argv) == 2
        assert "no effect" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["hardy", "--sweep", "--alpha-min", "0.2", "--alpha-max", "0.8", "--steps", "3",
         "--format", "csv"],
        ["--seed", "3", "bell", "--scan", "10"],
        ["bell", "--s", "0,0,1", "--m", "1,0,0", "--n", "0,0,1", "--mc-samples", "1000",
         "--seed", "3"],
        ["--format", "json", "certify", "--scenario", "gedanken"],
        ["certify", "--scenario", "two-step"],
        ["certify", "--scenario", "hardy", "--alpha", "0.6"],
    ], ids=" ".join)
    def test_read_flag_accepted(self, capsys, argv):
        assert cli.run(argv) == 0

    @pytest.mark.parametrize("argv", [
        ["--eps-cond", "1e-12", "gedanken"],
        ["hardy", "--alpha", "0.6", "--eps-cond", "1e-12"],
        ["certify", "--scenario", "hardy", "--eps-cond", "1e-12"],
        ["bell", "--scan", "10", "--eps-cond", "1e-12"],
        ["bell", "--s", "0,0,1", "--m", "1,0,0", "--n", "0,0,1", "--mc-samples", "1000",
         "--seed", "3", "--eps-cond", "1e-12"],
        ["--eps-cond", "1e-12", "bell", "--s", "0,0,1", "--m", "1,0,0", "--n", "0,0,1"],
    ], ids=" ".join)
    def test_eps_cond_rejected(self, capsys, argv):
        # the zero-probability threshold follows from rounding; there is no flag for it
        with pytest.raises(SystemExit) as excinfo:
            cli.run(argv)
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["--tol", "0.5", "gedanken"],
        ["--tol", "1e-9", "gedanken"],
        ["bell", "--scan", "10", "--tol", "1e-9"],
        ["bell", "--s", "0,0,1", "--m", "1,0,0", "--n", "0,0,1", "--tol", "1e-9"],
        ["certify", "--scenario", "gedanken", "--tol", "1e-9"],
        ["--tol", "1e-9", "hardy", "--alpha", "0.6"],
        ["hardy", "--optimize", "--tol", "1e-9"],
        ["hardy", "--sweep", "--alpha-min", "0.2", "--alpha-max", "0.8", "--steps", "3",
         "--format", "csv", "--tol", "1e-9"],
    ], ids=" ".join)
    def test_tol_rejected(self, capsys, argv):
        # every check derives its bound from rounding (qcore.bound); there is no flag for it
        with pytest.raises(SystemExit) as excinfo:
            cli.run(argv)
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.startswith("usage: hardylab")


SWEEP = ["--sweep", "--alpha-min", "0.1", "--alpha-max", "0.9", "--steps", "3"]
VECTORS = ["--s", "0,0,1", "--m", "1,0,0", "--n", "0,0,1"]


# (argv, stderr message) pairs that exit 2
UNREAD_FLAG = [
    (["certify", "--scenario", "gedanken", "--alpha", "0.3"],
     "--alpha: no effect on certify --scenario gedanken"),
    (["hardy", "--optimize", "--alpha", "0.3"], "--alpha: no effect on hardy --optimize"),
    (["hardy", "--alpha", "0.3", "--steps", "4"], "--steps: no effect on hardy --alpha"),
    (["bell", "--scan", "3", "--s", "0,0,1", "--mc-samples", "5"],
     "--s, --mc-samples: no effect on bell --scan"),
    (["hardy", *SWEEP, "--alpha", "0.3"], "--alpha: no effect on hardy --sweep"),
    (["hardy", "--alpha", "0.3", "--alpha-min", "0.2"],
     "--alpha-min: no effect on hardy --alpha"),
    (["hardy", "--optimize", *SWEEP],
     "--sweep, --alpha-min, --alpha-max, --steps: no effect on hardy --optimize"),
    (["bell", *VECTORS, "--scan", "3"], "--s, --m, --n: no effect on bell --scan"),
    (["bell", "--scan", "3", "--mc-samples", "100"], "--mc-samples: no effect on bell --scan"),
    (["certify", "--scenario", "gedanken", "--alpha", "0.6"],
     "--alpha: no effect on certify --scenario gedanken"),
]
MISSING_FLAG = [
    (["hardy", "--sweep", "--alpha-min", "0.1"], "hardy --sweep requires --alpha-max, --steps"),
    (["bell", "--s", "0,0,1"], "bell --s/--m/--n requires --m, --n"),
    (["bell", "--mc-samples", "5"], "bell --s/--m/--n --mc-samples requires --s, --m, --n"),
]


def argv_id(value):
    return " ".join(value) if isinstance(value, list) else ""


class TestModeTable:
    @pytest.mark.parametrize("argv, message", UNREAD_FLAG, ids=argv_id)
    def test_flag_unread_by_mode_exit_2(self, capsys, argv, message):
        assert cli.run(argv) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command, modes", [
        ("hardy", ["hardy --alpha", "hardy --sweep", "hardy --optimize"]),
        ("bell", ["bell --scan", "bell --s/--m/--n", "bell --s/--m/--n --mc-samples"]),
    ])
    def test_bare_command_names_its_modes(self, capsys, command, modes):
        assert cli.run([command]) == 2
        err = capsys.readouterr().err
        assert all(mode in err for mode in modes)

    @pytest.mark.parametrize("argv, message", MISSING_FLAG, ids=argv_id)
    def test_missing_required_flag_exit_2(self, capsys, argv, message):
        assert cli.run(argv) == 2
        assert message in capsys.readouterr().err


class TestCachedParser:
    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_usage_errors_leave_the_parser_usable(self, capsys):
        """Rejected argv, usage errors (SystemExit) among them, interleaved with accepted
        argv: a second pass through the same parser gives the same codes and output."""
        rejected = [argv for argv, _ in UNREAD_FLAG + MISSING_FLAG] + [
            ["certify", "--scenario", "nonsense"], ["gedanken", "--bogus"], ["bell", "--m", "-1,0,0"],
            ["hardy"], ["--eps-cond", "1e-12", "gedanken"]]
        accepted = [["gedanken"], ["hardy", "--alpha", "0.6"], ["bell", "--scan", "10", "--seed", "3"],
                    ["--format", "csv", "hardy", *SWEEP], ["certify", "--scenario", "gedanken"],
                    ["bell", *VECTORS]]
        argvs = [argv for pair in zip(rejected, accepted * 3) for argv in pair]

        def outcome(argv):
            try:
                code = cli.run(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        first, second = ([outcome(argv) for argv in argvs] for _ in range(2))
        assert first == second
        assert [code for code, _, _ in first] == [2, 0] * len(rejected)


class TestAlphaRange:
    """<D1> = t^2/(1-t), t = alpha*beta, must exceed qcore.zero_threshold(4) ~ 2.0e-28."""

    @pytest.mark.parametrize("command", [["hardy"], ["certify", "--scenario", "hardy"]],
                             ids=" ".join)
    @pytest.mark.parametrize("alpha, code", [("1e-7", 0), ("2e-14", 0),
                                             ("0.9999999999999999", 0), ("1e-14", 2)])
    def test_conditioning_threshold(self, capsys, command, alpha, code):
        assert cli.run([*command, "--alpha", alpha]) == code
        captured = capsys.readouterr()
        if code == 2:  # both numbers print as plain floats
            assert captured.err == ("error: cannot condition on D(x)1: probability "
                                    f"1.00000000000001e-28 <= {qcore.zero_threshold(4)!r}\n")
        else:
            payload = json.loads(captured.out)
            if command == ["hardy"]:
                assert payload["paradox"] == "present"
                for key in ("p_D1", "p_joint_D1D2"):
                    assert payload["matrix"][key] == payload["closed_form"][key]
            else:
                assert payload["certificate"]["status"] == "paradox"


def shifted(field: str, by: float):
    """A HardyMetrics transform that adds `by` to one field."""
    return lambda m: dataclasses.replace(m, **{field: getattr(m, field) + by})


def rows_shifted(rows):
    """bellhv.conditional_rows' rows with 1e-9 added to the quantum side."""
    return (rows[0] + 1e-9,) + tuple(rows[1:])


# Each agreement check (qcore.agree) a command reaches: the command, the step made to
# return a wrong value (module, name and the change to its result) and the check's `what`.
AGREEMENT_SITES = {
    "cross_check": ("hardy --alpha 0.6", (hardy4, "compute_metrics", shifted("p_D1", 1e-9)),
                    "closed-form cross-check failed for p_D1"),
    # a wrong closed form would fail cross_check first, so 1 - U1 is built wrong
    "disturbance_contradiction": ("certify --scenario two-step",
                                  (hardy4, "build_model",
                                   lambda model: dataclasses.replace(model, U1_perp=model.U1)),
                                  "P(1-U1|D1) vs closed-form c_bar"),
    "optimize_paradox": ("hardy --optimize",
                         (hardy4, "metrics_arrays", shifted("p_joint_D1D2", 1e-9)),
                         "matrix <D1D2> at alpha* vs closed-form p_max"),
    "hvlogic gate": ("hardy --alpha 0.6",
                     (hardy4, "compute_metrics", shifted("p_joint_U1U2", 1e-9)),
                     "constraint '<U1U2>=0' not quantum-justified"),
    "bell re-check": ("bell --scan 100", (bellhv, "conditional_rows", rows_shifted),
                      "closed-form row 20 quantum vs compare"),
    "clamp": ("hardy --alpha 0.6", (qcore, "_norm_sq", lambda raw: 2.0),
              "born_probability(D(x)1)"),
    "gedanken": ("gedanken", (qcore, "disturbance_metrics", lambda c: c + 1e-9),
                 "gedanken complement_electron_trace"),
}
ONE_LAYOUT = re.compile(r"internal cross-check failed: (.+): (\S+) vs (\S+) \(bound (\S+)\)\n")


@pytest.mark.parametrize("argv, fault, what", AGREEMENT_SITES.values(), ids=AGREEMENT_SITES)
def test_every_agreement_check_exits_3_in_one_layout(capsys, monkeypatch, argv, fault, what):
    module, name, change = fault
    fn = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: change(fn(*args)))
    assert cli.run(argv.split()) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    layout = ONE_LAYOUT.fullmatch(captured.err)
    assert layout is not None, captured.err
    assert layout[1] == what
    assert all(math.isfinite(float(v)) for v in layout.groups()[1:])


@pytest.mark.parametrize("shift, code", [(-5e-14, 0), (-2e-13, 3)])
def test_gedanken_and_its_certificate_judge_a_value_alike(capsys, monkeypatch, shift, code):
    """P(C+inf|D-0) moved by `shift`: `gedanken` checks it within qcore.bound(1, 5, 9),
    1.6e-13, and `certify --scenario gedanken` gates it within the same bound, so both
    commands pass it or both exit 3."""
    conditional_probability = qcore.conditional_probability
    det = gedanken.DETECTORS

    def shifted(psi, a, b):
        p = conditional_probability(psi, a, b)
        return p + shift if a is det.d_minus_0 and b is det.c_plus_inf else p
    monkeypatch.setattr(qcore, "conditional_probability", shifted)
    assert [cli.run(["gedanken"]), cli.run(["certify", "--scenario", "gedanken"])] == [code] * 2
    err = capsys.readouterr().err
    assert err == "" if code == 0 else err.count("gedanken P(C+inf|D-0)") == 2


def ulps_from_half_sqrt2(k: int) -> float:
    """The float k units in the last place away from sqrt(0.5)."""
    bits = struct.unpack("<q", struct.pack("<d", math.sqrt(0.5)))[0]
    return struct.unpack("<d", struct.pack("<q", bits + k))[0]


LOG_DISTANCE = st.floats(min_value=math.log10(2e-14), max_value=-1.0)


@settings(max_examples=150, deadline=None)
@given(alpha=st.one_of(LOG_DISTANCE.map(lambda x: 10.0 ** x),
                       LOG_DISTANCE.map(lambda x: 1.0 - 10.0 ** x),
                       st.integers(-10 ** 6, 10 ** 6).map(ulps_from_half_sqrt2)))
@example(alpha=2e-14)
@example(alpha=0.9999999999999999)
@example(alpha=ulps_from_half_sqrt2(1))
def test_rounding_bound_holds_on_working_code(alpha):
    """No cross-check, gate or relation check fires: alpha or 1-alpha log-uniform in
    [2e-14, 0.1], or within 10^6 ulps of 1/sqrt2, where 1/|beta-alpha| is largest."""
    for argv in (["hardy", "--alpha", repr(alpha)],
                 ["certify", "--scenario", "hardy", "--alpha", repr(alpha)],
                 ["certify", "--scenario", "two-step", "--alpha", repr(alpha)]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
        assert (code, err.getvalue()) == (0, ""), argv


def test_closed_pipe_exits_0_without_traceback(cli_env):
    # more output than a pipe buffer holds, so the write after the close must fail
    proc = subprocess.Popen(
        [sys.executable, "-m", "hardylab.cli", "--format", "csv", "hardy", "--sweep",
         "--alpha-min", "0.1", "--alpha-max", "0.9", "--steps", "1000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=cli_env)
    assert proc.stdout.readline().startswith(b"alpha,beta,")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert b"Traceback" not in err
    assert err == b""
