import contextlib
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hardylab import bellhv, cli, hardy4, qcore


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

    def test_maximally_entangled_absent(self, capsys):
        code, payload = run_json(capsys, ["hardy", "--alpha", str(1.0 / math.sqrt(2.0))])
        assert code == 0
        assert payload["paradox"] == "absent"
        assert payload["disturbance_contradiction"]["status"] == "no_contradiction"

    @pytest.mark.parametrize("alpha", [1e-6, 1e-5, math.sqrt(0.5) + 1e-8, math.sqrt(0.5) + 1e-6])
    def test_paradox_present_off_maximal_entanglement(self, capsys, alpha):
        code, payload = run_json(capsys, ["hardy", "--alpha", repr(alpha)])
        assert code == 0
        assert payload["paradox"] == "present"

    @pytest.mark.parametrize("alpha", [math.sqrt(0.5), math.sqrt(0.5) + 1e-10])
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
            assert ((payload["paradox"] == "present")
                    == (payload["disturbance_contradiction"]["status"] == "contradiction"))

    def test_optimize_reads_tol(self, capsys, monkeypatch):
        seen = []
        optimize = hardy4.optimize_paradox

        def recorded(tol):
            seen.append(tol)
            return optimize(tol=tol)
        monkeypatch.setattr(hardy4, "optimize_paradox", recorded)
        assert cli.run(["hardy", "--optimize", "--tol", "1e-9"]) == 0
        assert seen == [1e-9]

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


class TestBellCommand:
    def test_compare(self, capsys):
        code, payload = run_json(capsys, ["bell", "--s", "0,0,1", "--m", "1,0,0", "--n", "0,0,1"])
        assert code == 0
        assert payload["quantum"] == pytest.approx(0.5, abs=1e-12)
        assert payload["classical"] == pytest.approx(1.0, abs=1e-12)

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
        measure = (1.0 + float(np.dot(bellhv.Z_HAT, m / np.linalg.norm(m)))) / 2.0
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

    def test_bad_tol_exit_2(self, capsys):
        assert cli.run(["--tol", "0.5", "gedanken"]) == 2

    def test_seed_after_subcommand(self, capsys):
        assert cli.run(["bell", "--scan", "10", "--seed", "3"]) == 0

    def test_determinism_same_output(self, capsys):
        cli.run(["bell", "--scan", "50", "--seed", "11"])
        first = capsys.readouterr().out
        cli.run(["bell", "--scan", "50", "--seed", "11"])
        second = capsys.readouterr().out
        assert first == second

    @pytest.mark.parametrize("argv", [
        ["--seed", "1", "gedanken"],
        ["hardy", "--alpha", "0.6", "--seed", "1"],
        ["certify", "--scenario", "hardy", "--seed", "1"],
        ["bell", "--s", "0,0,1", "--m", "1,0,0", "--n", "0,0,1", "--seed", "1"],
        ["--tol", "1e-9", "gedanken"],
        ["bell", "--scan", "10", "--tol", "1e-9"],
        ["bell", "--s", "0,0,1", "--m", "1,0,0", "--n", "0,0,1", "--tol", "1e-9"],
        ["certify", "--scenario", "gedanken", "--tol", "1e-9"],
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
        ["--tol", "1e-9", "hardy", "--alpha", "0.6"],
        ["hardy", "--optimize", "--tol", "1e-9"],
        ["hardy", "--sweep", "--alpha-min", "0.2", "--alpha-max", "0.8", "--steps", "3",
         "--format", "csv", "--tol", "1e-9"],
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


SWEEP = ["--sweep", "--alpha-min", "0.1", "--alpha-max", "0.9", "--steps", "3"]
VECTORS = ["--s", "0,0,1", "--m", "1,0,0", "--n", "0,0,1"]


class TestModeTable:
    @pytest.mark.parametrize("argv, message", [
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
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else "")
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

    @pytest.mark.parametrize("argv, message", [
        (["hardy", "--sweep", "--alpha-min", "0.1"], "hardy --sweep requires --alpha-max, --steps"),
        (["bell", "--s", "0,0,1"], "bell --s/--m/--n requires --m, --n"),
        (["bell", "--mc-samples", "5"], "bell --s/--m/--n --mc-samples requires --s, --m, --n"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else "")
    def test_missing_required_flag_exit_2(self, capsys, argv, message):
        assert cli.run(argv) == 2
        assert message in capsys.readouterr().err


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


def test_closed_pipe_exits_0_without_traceback(cli_env):
    # more output than a pipe buffer holds, so the write after the close must fail
    proc = subprocess.Popen(
        [sys.executable, "-m", "hardylab.cli", "--format", "csv", "hardy", "--sweep",
         "--alpha-min", "0.1", "--alpha-max", "0.9", "--steps", "1000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=cli_env)
    assert proc.stdout.readline().startswith(b"alpha,beta,")
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 0
    assert b"Traceback" not in err
    assert err == b""
