import argparse
import contextlib
import dataclasses
import io
import json
import math
import random
import re
import struct
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hardylab import bellhv, cli, gedanken, hardy4, hvlogic, qcore
from hardylab.errors import InvalidParameterError


# JSON-shaped payloads: nested dicts (str keys), lists and tuples over str (non-ASCII too),
# float (np.float64 too; NaN, +-inf and -0.0 among them), int, bool and None.
FLOATS = st.floats(allow_nan=True, allow_infinity=True)
PAYLOADS = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.text(), FLOATS,
              FLOATS.map(np.float64), st.sampled_from([1e15, 1e16, 1e-5, -0.0])),
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.lists(children, max_size=4).map(tuple),
                               st.dictionaries(st.text(), children, max_size=4)),
    max_leaves=20)


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
        assert built[0][0].alpha[-1] == 0.9999999999999999

    def test_csv_digits_are_format_15g(self, capsys):
        assert cli.run(["--format", "csv", "hardy", "--sweep", "--alpha-min", "2e-14",
                        "--alpha-max", "0.9999999999999999", "--steps", "301"]) == 0
        lines = capsys.readouterr().out.splitlines()
        rows = sweep_rows(2e-14, 0.9999999999999999, 301)
        assert len(lines) == len(rows) + 1
        for line, (alpha, m) in zip(lines[1:], rows):
            values = (alpha, math.sqrt(1.0 - alpha * alpha), m.p_D1, m.p_cond_D2_given_D1,
                      m.p_cond_U2_given_D1, m.p_cond_U1_given_D2, m.p_joint_U1U2,
                      m.p_joint_D1D2, m.c_bar, m.commutator_D1U1)
            assert line == ",".join(format(v, ".15g") for v in values)

    def test_csv_layout(self, capsys):
        assert cli.run(["--format", "csv", "hardy", "--sweep", "--alpha-min", "0.2",
                        "--alpha-max", "0.8", "--steps", "4"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == cli.CSV_HEADER
        assert len(lines) == 5
        assert all(len(line.split(",")) == 10 for line in lines[1:])

    @pytest.mark.parametrize("alpha_min, alpha_max, steps",
                             [("0.05", "0.95", "181"),
                              ("0.35392958546780345", "0.9999999999999999", "2")])
    def test_csv_and_json_carry_the_same_values(self, capsys, alpha_min, alpha_max, steps):
        """Each CSV field is format(v, ".15g") of the JSON row's value v, and beta is
        sqrt(1 - alpha^2) at the grid's alpha, which JSON does not print."""
        argv = ["hardy", "--sweep", "--alpha-min", alpha_min, "--alpha-max", alpha_max,
                "--steps", steps]
        code, payload = run_json(capsys, argv)
        assert code == 0
        assert cli.run(["--format", "csv", *argv]) == 0
        header, *lines = capsys.readouterr().out.splitlines()
        names = header.split(",")
        assert names == ["alpha", "beta", *list(CSV_TO_JSON)[1:]]
        alphas = hardy4.sweep(float(alpha_min), float(alpha_max), int(steps))[0].alpha.tolist()
        assert len(lines) == len(payload["rows"]) == len(alphas) == int(steps)
        for line, row, alpha in zip(lines, payload["rows"], alphas):
            assert set(row) == set(CSV_TO_JSON.values())
            fields = dict(zip(names, line.split(","), strict=True))
            assert fields.pop("beta") == format(math.sqrt(1.0 - alpha * alpha), ".15g")
            assert fields["alpha"] == format(alpha, ".15g")
            assert fields == {name: format(row[key], ".15g") for name, key in CSV_TO_JSON.items()}


def sweep_rows(alpha_min: float, alpha_max: float, steps: int):
    """hardy4.sweep's columns as (alpha, HardyMetrics of floats) rows."""
    grid, m = hardy4.sweep(alpha_min, alpha_max, steps)
    return [(alpha, hardy4.HardyMetrics(*values))
            for alpha, *values in zip(grid.alpha.tolist(), *(c.tolist() for c in vars(m).values()))]


# Each CSV column of a sweep but beta, and the JSON key that holds its value.
CSV_TO_JSON = {"alpha": "alpha", "p_D1": "p_D1", "p_D2_given_D1": "p_cond_D2_given_D1",
               "p_U2_given_D1": "p_cond_U2_given_D1", "p_U1_given_D2": "p_cond_U1_given_D2",
               "p_U1U2": "p_joint_U1U2", "p_D1D2": "p_joint_D1D2", "c_bar": "c_bar",
               "comm_D1U1": "commutator_D1U1"}


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
  "discrepancy": 0.0,
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


def numpy_parse_vector(text: str) -> tuple[float, float, float]:
    """cli._parse_vector as it was written on numpy arrays, kept as the reference of its
    Python-float body."""
    try:
        parts = [float(p) for p in text.split(",")]
    except ValueError as exc:
        raise InvalidParameterError(f"cannot parse vector {text!r}: {exc}") from exc
    if len(parts) != 3:
        raise InvalidParameterError(f"vector must have 3 components, got {text!r}")
    v = np.asarray(parts)
    if not np.all(np.isfinite(v)):
        raise InvalidParameterError(f"vector {text!r} has a non-finite component")
    exp = math.frexp(float(np.abs(v).max()))[1]
    v = np.ldexp(v, -exp)
    norm = math.sqrt(bellhv._dot(v.tolist(), v.tolist()))
    if math.ldexp(norm, min(exp, 0)) < 1e-6:
        raise InvalidParameterError(f"vector {text!r} too close to zero to normalize")
    return tuple((v / norm).tolist())


# Components at the edges of the float range: signed zeros, subnormals, the smallest
# normal, values near the 1e-6 floor, 1e308 and the largest float, and the non-finite.
SPECIAL_COMPONENTS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-315, sys.float_info.min,
                      5.8e-7, -5.7e-7, 1e-6, 1e308, -1e308, sys.float_info.max,
                      -sys.float_info.max, math.nan, math.inf, -math.inf]
# Texts with the wrong number of components or a component float() cannot read.
MALFORMED_VECTORS = ["", "1", "1,2", "1,2,3,4", "1,,2", ",1,2", "1,2,", "a,b,c", "1;2;3",
                     "0x1p3,1,1", "1,2,3e", "1 2 3", "--1,0,0", "1,2,3,", "nan,inf",
                     " 1 , 2 , 3 ", "1_0,2,3", "inf,-inf,nan,0", "１,2,3"]


def seeded_vector_texts(count: int, seed: int) -> list[str]:
    """`count` texts of three components: each a special component about one time in
    four, else a random sign times 10^U(-330, 308.25), written by repr or by %.3g."""
    rng = random.Random(seed)
    texts = []
    for _ in range(count):
        parts = []
        for _ in range(3):
            if rng.random() < 0.25:
                c = rng.choice(SPECIAL_COMPONENTS)
            else:
                c = rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(-330.0, 308.25)
            parts.append(repr(c) if rng.random() < 0.8 else "%.3g" % c)
        texts.append(",".join(parts))
    return texts


def vector_outcome(parse, text: str):
    """The bytes, the type and the component types of parse(text), or its exception's type
    and message."""
    try:
        v = parse(text)
    except Exception as exc:  # noqa: BLE001 - the type is part of the outcome
        return type(exc), str(exc)
    return struct.pack("3d", *v), type(v), tuple(map(type, v))


class TestParseVectorGolden:
    """cli._parse_vector on Python floats gives what its numpy body gave: the same bytes,
    or the same exception and message."""

    def test_seeded_triples_match_the_numpy_body(self):
        texts = seeded_vector_texts(20_000, seed=35) + MALFORMED_VECTORS + [
            ",".join(map(repr, (a, b, c)))
            for a in SPECIAL_COMPONENTS for b in SPECIAL_COMPONENTS[::3]
            for c in SPECIAL_COMPONENTS[::4]]
        outcomes = {"ok": 0, "error": 0}
        for text in texts:
            got = vector_outcome(cli._parse_vector, text)
            assert got == vector_outcome(numpy_parse_vector, text), text
            outcomes["ok" if isinstance(got[0], bytes) else "error"] += 1
        # both kinds of outcome are well represented
        assert min(outcomes.values()) > 2_000, outcomes


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

    @pytest.mark.parametrize("argv", ["hardy --alpha 0.6", "certify --scenario hardy",
                                      "certify --scenario two-step"])
    def test_one_cross_check_per_mode(self, capsys, monkeypatch, argv):
        """One cross_check per mode, in hvlogic.hardy_system, and one closed_form_metrics:
        the closed forms it checks against are the ones `hardy --alpha` prints and
        disturbance_contradiction compares with."""
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
        assert (calls.count("closed_form_metrics"), calls.count("cross_check")) == (1, 1)

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

    @settings(max_examples=200, deadline=None)
    @given(payload=PAYLOADS)
    @example(payload={"flags": (True, False), "x": [np.float64(0.1 + 0.2), 0.1 + 0.2, 3]})
    @example(payload={"b": 1, "a": {"d": None, "c": [0.1, ()]}})
    @example(payload=[math.nan, math.inf, -math.inf, -0.0, np.float64(-0.0), 1e15, 1e16, 1e-5,
                      123456789012345678, None, "\u00e9\u2603\U0001f600\"\\\n", {}, [], ()])
    def test_json_text_is_json_dumps_of_the_rounded_payload(self, payload):
        """The one-pass writer prints what json.dumps(indent=2, sort_keys=True) prints for the
        payload with every float rounded to 15 significant digits: bool, not a float
        subclass, passes unchanged; np.float64, one, rounds."""
        def round15(value):
            if isinstance(value, float):
                return float(f"{value:.15g}")
            if isinstance(value, dict):
                return {k: round15(v) for k, v in value.items()}
            if isinstance(value, (list, tuple)):
                return [round15(v) for v in value]
            return value
        assert cli._json_text(payload) == json.dumps(round15(payload), indent=2, sort_keys=True)

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


TRANSCRIPT_ARGVS = [json.loads(entry.split("\t")[0]) for entry in
                    (Path(__file__).parent / "data" / "transcript.tsv").read_text().splitlines()[1:]]
# the CLI's own tokens: commands, each command's flags and their abbreviations, values,
# `--` and stray tokens
GLOBAL_FLAGS = ["--format", "--seed", "--fo", "--se", "-h", "--help", "--h"]
COMMAND_FLAGS = {
    "gedanken": [],
    "hardy": ["--alpha", "--sweep", "--alpha-min", "--alpha-max", "--steps", "--optimize", "--alp",
              "--alpha-m", "--alpha-ma", "--sw", "--st", "--opt"],
    "bell": ["--s", "--m", "--n", "--scan", "--mc-samples", "--sc", "--mc"],
    "certify": ["--scenario", "--alpha", "--scen", "--al"],
}
ALL_FLAGS = GLOBAL_FLAGS + sorted({f for flags in COMMAND_FLAGS.values() for f in flags}) + [
    "--bogus", "-x"]
VALUES = ["0.6", "0.3", "-0.5", "-1", "3", "1e-3", "nan", "0,0,1", "1,0,0", "-1,0,0", "json", "csv",
          "xml", "hardy", "two-step", "gedanken", "nonsense", "x", ""]
# values each flag takes, keyed by its full name (an abbreviation takes its flag's)
FLAG_VALUES = {"--format": ["json", "csv"], "--seed": ["0", "3"], "--alpha": ["0.6", "1e-3", "2"],
               "--alpha-min": ["0.1", "0.2"], "--alpha-max": ["0.9", "0.95"], "--steps": ["2", "3"],
               "--s": ["0,0,1", "-1,0,0"], "--m": ["1,0,0", "1,1,1"], "--n": ["0,0,1", "0,1,0"],
               "--scan": ["1", "10"], "--mc-samples": ["100", "500"],
               "--scenario": ["hardy", "two-step", "gedanken"]}


def flag_value(rng: random.Random, flag: str) -> str:
    """Mostly a value the flag takes, else any of VALUES."""
    names = [flag] if flag in FLAG_VALUES else [name for name in FLAG_VALUES if name.startswith(flag)]
    return rng.choice(FLAG_VALUES[names[0]] if names and rng.random() < 0.8 else VALUES)
STRAYS = ["--", "extra", "bogus", "-", "hardy", "bell"]


def fuzz_argvs(count: int, seed: int) -> list[list[str]]:
    """Seeded argvs over the CLI's tokens.  Most start with a command, some with a global flag
    or with no command; flags are mostly the command's own, with a value it takes, some as
    `--flag=value`, the rest other commands' flags, stray tokens and other values."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        command = rng.choice(list(COMMAND_FLAGS))
        start = rng.random()
        argv = [command] if start < 0.75 else [] if start < 0.85 else [
            flag := rng.choice(GLOBAL_FLAGS[:2]), flag_value(rng, flag), command]
        own = COMMAND_FLAGS[command] + GLOBAL_FLAGS[:2]
        for _ in range(rng.randrange(6)):
            flag = rng.choice(own if rng.random() < 0.8 else ALL_FLAGS)
            kind = rng.random()
            if kind < 0.5:
                argv += [flag, flag_value(rng, flag)]
            elif kind < 0.65:
                argv.append(f"{flag}={flag_value(rng, flag)}")
            elif kind < 0.8:
                argv.append(flag)
            elif kind < 0.95:
                argv.append(rng.choice(STRAYS))
            else:
                argv.insert(rng.randrange(len(argv) + 1), rng.choice(list(COMMAND_FLAGS)))
        out.append(argv)
    return out


def parse_outcome(parse, argv):
    """The namespace's items in order (by repr, so that NaN equals NaN), or the SystemExit
    code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return repr(list(vars(parse(argv)).items()))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


def run_outcome(argv: list[str]):
    """cli.run(argv)'s return value, ("SystemExit", code), or the type and message of any
    other exception; the output is dropped."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.run(argv)
        except SystemExit as exc:
            return "SystemExit", exc.code
        except Exception as exc:  # noqa: BLE001 - any other exception is the finding
            return type(exc).__name__, str(exc)


class TestNoTraceback:
    def test_every_argv_exits_with_a_documented_code(self):
        """The transcript's argvs and 2,000 fuzzed ones: cli.run returns 0, 2 or 3, or
        argparse exits 0 (help) or 2 (usage error); no other exception escapes."""
        allowed = {0, 2, 3, ("SystemExit", 0), ("SystemExit", 2)}
        outcomes = {tuple(argv): run_outcome(argv)
                    for argv in TRANSCRIPT_ARGVS + fuzz_argvs(2000, seed=36)}
        assert {argv: o for argv, o in outcomes.items() if o not in allowed} == {}
        # the fuzz reaches the runners and both of argparse's exits
        assert {0, 2, ("SystemExit", 0), ("SystemExit", 2)} <= set(outcomes.values())


class TestParseRoutes:
    def test_routed_parse_is_the_top_level_parse(self):
        """The transcript's argvs and 2,000 fuzzed ones: the routed parse and the top-level
        parse give the same namespace in the same order, or exit alike."""
        argvs = TRANSCRIPT_ARGVS + fuzz_argvs(2000, seed=32)
        routed = [parse_outcome(cli._parse, argv) for argv in argvs]
        top_level = [parse_outcome(lambda a: cli.build_parser().parse_args(a), argv)
                     for argv in argvs]
        assert [argv for argv, a, b in zip(argvs, routed, top_level) if a != b] == []
        exits = sum(isinstance(outcome, tuple) for outcome in routed)
        assert 0 < exits < len(argvs)

    @pytest.mark.parametrize("argv, top_level", [
        (["hardy", "--alpha", "0.6"], False),
        (["--format", "csv", "hardy", *SWEEP], True),
        (["hardy", "--alpha", "0.6", "extra"], True),
    ], ids=argv_id)
    def test_top_level_parser_only_off_the_routed_path(self, capsys, monkeypatch, argv, top_level):
        parser = cli.build_parser()
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return argparse.ArgumentParser.parse_args(parser, *args, **kwargs)
        monkeypatch.setattr(parser, "parse_args", spy)
        try:
            cli.run(argv)
        except SystemExit as exc:
            assert exc.code == 2
        assert bool(calls) == top_level


REPEATED_FLAG = [
    (["hardy", "--alpha", "0.6", "--alpha", "0.3"], "--alpha"),
    (["hardy", "--alpha", "0.6", "--alpha", "0.6"], "--alpha"),
    (["certify", "--scenario", "hardy", "--alpha=0.6", "--al", "0.3"], "--alpha"),
    (["--seed", "1", "bell", "--scan", "3", "--seed", "2"], "--seed"),
    (["--seed", "1", "--seed", "2", "bell", "--scan", "3"], "--seed"),
    (["bell", "--scan", "3", "--seed", "1", "--se", "1"], "--seed"),
    (["--format", "csv", "hardy", *SWEEP, "--format", "json"], "--format"),
    (["--format", "json", "gedanken", "--format", "json"], "--format"),
    (["hardy", "--sweep", "--sweep", "--alpha-min", "0.1", "--alpha-max", "0.9", "--steps", "3"],
     "--sweep"),
    (["bell", "--scan", "3", "--scan", "4"], "--scan"),
    (["bell", *VECTORS, "--mc-samples", "100", "--mc-samples", "200"], "--mc-samples"),
    (["certify", "--scenario", "hardy", "--scenario", "two-step"], "--scenario"),
    (["--seed", "1", "hardy", "--alpha", "0.6", "--alpha", "0.3", "--seed", "1"],
     "--alpha, --seed"),
]


class TestRepeatedFlag:
    @pytest.mark.parametrize("argv, flags", REPEATED_FLAG, ids=argv_id)
    def test_exit_2_naming_the_flag(self, capsys, argv, flags):
        """Before or after the subcommand, with the same value or another: exit 2, nothing on
        stdout, and the flags in the order their second occurrence was read."""
        assert cli.run(argv) == 2
        assert capsys.readouterr() == ("", f"error: {flags} given more than once\n")

    @pytest.mark.parametrize("argv, flags", REPEATED_FLAG, ids=argv_id)
    def test_both_routes_record_it_alike(self, argv, flags):
        routed = cli._parse(argv)
        assert routed.repeated == tuple(flags.split(", "))
        assert vars(routed) == vars(cli.build_parser().parse_args(argv))

    @pytest.mark.parametrize("argv", [["--seed", "1", "bell", "--scan", "3"],
                                      ["bell", "--scan", "3", "--seed", "1"],
                                      ["--format", "csv", "hardy", *SWEEP]], ids=argv_id)
    def test_a_global_flag_once_on_either_side_is_read(self, argv):
        assert not hasattr(cli._parse(argv), "repeated")


def json_float(value: float) -> str:
    """What json.dumps prints for `value` rounded to 15 significant digits."""
    rounded = float("%.15g" % value)
    if math.isfinite(rounded):
        return repr(rounded)
    return "NaN" if rounded != rounded else "Infinity" if rounded > 0 else "-Infinity"


def neighbours(value: float, k: int) -> list[float]:
    """`value` and the k floats on each side of it."""
    out = [value]
    for direction in (-math.inf, math.inf):
        v = value
        for _ in range(k):
            v = math.nextafter(v, direction)
            out.append(v)
    return out


class TestJsonFloatShortcut:
    EDGES = (neighbours(1e-4, 200) + neighbours(9.999999999999995e-5, 50)
             + neighbours(9.99999999999999e14, 50) + neighbours(9.999999999999995e14, 50)
             + neighbours(1e15, 50) + neighbours(1e16, 50)
             + [10.0 ** (15 + i / 1000) for i in range(1001)]
             + [float(i) for i in range(-100, 1001)] + [2.0 ** 52, 2.0 ** 53, 123456789012345.0]
             + [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308]
             + [5e-324 * 3 ** k for k in range(40)] + [math.inf, -math.inf, math.nan])

    def test_edges(self):
        values = self.EDGES + [-v for v in self.EDGES]
        assert [cli._json_text(v) for v in values] == [json_float(v) for v in values]

    def test_np_float64_inf_and_nan(self):
        values = [np.float64(v) for v in self.EDGES[::7] + [0.1 + 0.2, -1e-4]]
        assert [cli._json_text(v) for v in values] == [json_float(v) for v in values]
        assert [cli._json_text(v) for v in (math.inf, -math.inf, math.nan, np.float64(math.nan))] == [
            "Infinity", "-Infinity", "NaN", "NaN"]

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(32)
        values = (rng.integers(0, 2 ** 64, size=100_000, dtype=np.uint64).view(np.float64).tolist()
                  + (10.0 ** rng.uniform(-5.0, 16.0, size=20_000)).tolist())
        assert [cli._json_text(v) for v in values] == [json_float(v) for v in values]


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
    # a wrong closed form or ket would fail cross_check first, so the ket of U is made
    # the ket of 1 - U in the model disturbance_contradiction reads, after the metrics are
    # checked
    "disturbance_contradiction": ("certify --scenario two-step",
                                  (cli, "_hardy_encoding", lambda encoding: (
                                      dataclasses.replace(encoding[0], u=encoding[0].w),
                                      *encoding[1:])),
                                  "P(U1|D1) vs closed-form p_cond_D2_given_D1"),
    # every clamped probability reads 1e-9 high, which moves <D1D2> by 1e-9 and
    # P(D1) P(U1|D1) by about 5e-10 at alpha 0.6
    "relation": ("hardy --alpha 0.6", (qcore, "clamp_probability", lambda p: p + 1e-9),
                 "<D1D2> vs P(D1) P(U1|D1)"),
    # each of the optimizer's three float rows, after its own cross-check
    "optimize_paradox": ("hardy --optimize",
                         (hardy4, "_checked_metrics", shifted("p_joint_D1D2", 1e-9)),
                         "matrix <D1D2> at alpha* vs closed-form p_max"),
    # hvlogic.hardy_system cross-checks the metrics it encodes before it builds a constraint
    "hvlogic gate": ("certify --scenario hardy",
                     (hardy4, "compute_metrics", shifted("p_joint_U1U2", 1e-9)),
                     "closed-form cross-check failed for p_joint_U1U2"),
    "bell re-check": ("bell --scan 100", (bellhv, "conditional_rows", rows_shifted),
                      "closed-form row 20 quantum vs compare"),
    # every ket reads (2, 2), so P(D1) reads 4 (alpha^2 + beta^2) = 4
    "clamp": ("hardy --alpha 0.6",
              (hardy4, "build_model", lambda model: dataclasses.replace(
                  model, u=(2.0, 2.0), d=(2.0, 2.0), w=(2.0, 2.0))),
              "born_probability(D(x)1)"),
    "gedanken": ("gedanken", (gedanken, "_trace", lambda c: c + 1e-9),
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


def joint_row_4_shifted(m):
    """_matrix_metrics' columns with 1e-9 added to row 4 of <D1D2>."""
    joint = m.p_joint_D1D2.copy()
    joint[4] += 1e-9
    return dataclasses.replace(m, p_joint_D1D2=joint)


# A sweep check made to fail: the step made to return a wrong value (module, name and
# the change to its result) and the start of the message.  Row 4 of the 9-row sweep
# from 0.1 to 0.9 is an interior row.
SWEEP_FAULTS = {
    "kernel row": ((hardy4, "_matrix_metrics", joint_row_4_shifted),
                   f"closed-form cross-check failed for p_joint_D1D2 at alpha "
                   f"{0.1 + (0.9 - 0.1) * 4 / 8!r}: "),
}


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("fault, what", SWEEP_FAULTS.values(), ids=SWEEP_FAULTS)
def test_a_failed_sweep_prints_nothing(capsys, monkeypatch, fault, what, fmt):
    """Every row is checked before the first is written, so a failed check exits 3
    with stdout empty, in either format."""
    module, name, change = fault
    fn = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: change(fn(*args)))
    assert cli.run(["--format", fmt, "hardy", "--sweep", "--alpha-min", "0.1",
                    "--alpha-max", "0.9", "--steps", "9"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"internal cross-check failed: {what}")


@pytest.mark.parametrize("shift, code", [(-5e-14, 0), (-2e-13, 3)])
def test_gedanken_and_its_certificate_judge_a_value_alike(capsys, monkeypatch, shift, code):
    """P(C+inf|D-0) moved by `shift`: `gedanken` checks it within qcore.bound(1, 5, 9),
    1.6e-13, and `certify --scenario gedanken` builds its constraint only after the same
    check, so both commands pass it or both exit 3 with the same message."""
    conditional = gedanken._conditional

    def shifted(first, then):
        p = conditional(first, then)
        return p + shift if (first, then) == ("D-(0)", "C+(inf)") else p
    monkeypatch.setattr(gedanken, "_conditional", shifted)
    assert [cli.run(["gedanken"]), cli.run(["certify", "--scenario", "gedanken"])] == [code] * 2
    err = capsys.readouterr().err
    assert err == "" if code == 0 else err.count("gedanken P(C+inf|D-0)") == 2


def test_paper_relation_off_the_trace_exits_3_on_every_call(capsys, monkeypatch):
    """P(D-inf|D-0) is checked against Tr D-(0) D-(inf) as computed, not only against 1/2:
    that trace moved by 1e-9 fails the relation in `gedanken` and in `certify --scenario
    gedanken`, whose system is a constant, on a second in-process call as on the first."""
    trace = gedanken._trace

    def shifted(first, second):
        c = trace(first, second)
        return c + 1e-9 if (first, second) == ("D(0)", "D(inf)") else c
    monkeypatch.setattr(gedanken, "_trace", shifted)
    argvs = [["gedanken"], ["certify", "--scenario", "gedanken"]] * 2
    assert [cli.run(argv) for argv in argvs] == [3] * 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count(
        "internal cross-check failed: gedanken P(D-inf|D-0) vs Tr D-(0) D-(inf): ") == 4


# The argvs that reach each constant system of hvlogic, in CONSTANT_SYSTEMS' order: the
# two Hardy systems, without and with the event <D1D2>>0, the two-step form they share
# (from either), and the thought experiment's.
CONSTANT_ARGVS = ["certify --scenario hardy --alpha 0.7071067811865476",
                  "certify --scenario hardy",
                  "certify --scenario two-step --alpha 0.7071067811865476",
                  "certify --scenario two-step",
                  "certify --scenario gedanken"]


@pytest.fixture
def warm_certificates(capsys):
    """Every constant system's certificate computed, as after a process's first commands."""
    for argv in CONSTANT_ARGVS:
        assert cli.run(argv.split()) == 0
    capsys.readouterr()
    assert hvlogic._certificate.cache_info().currsize == len(hvlogic.CONSTANT_SYSTEMS)


@pytest.mark.parametrize("argv, fault, what", AGREEMENT_SITES.values(), ids=AGREEMENT_SITES)
def test_agreement_checks_exit_3_with_certificates_warm(warm_certificates, capsys, monkeypatch,
                                                        argv, fault, what):
    test_every_agreement_check_exits_3_in_one_layout(capsys, monkeypatch, argv, fault, what)


@pytest.mark.parametrize("shift, code", [(-5e-14, 0), (-2e-13, 3)])
def test_gedanken_judged_alike_with_certificates_warm(warm_certificates, capsys, monkeypatch,
                                                      shift, code):
    test_gedanken_and_its_certificate_judge_a_value_alike(capsys, monkeypatch, shift, code)


def test_hardy_alpha_replays_its_paradox(capsys, monkeypatch):
    """`hardy --alpha` prints "present" only for a certificate that passes replay: a
    failed replay exits 3 with nothing on stdout, as certify does."""
    monkeypatch.setattr(hvlogic, "replay", lambda system, cert: False)
    assert cli.run(["hardy", "--alpha", "0.6"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal cross-check failed: paradox certificate failed its own replay\n"


def test_each_constant_system_is_checked_once_per_process(capsys, monkeypatch):
    """From a cold cache, many Hardy and certify commands run check once for each of the
    four constant systems, and replay once for each paradox they print."""
    checked, replayed = [], []
    check, replay = hvlogic.check, hvlogic.replay
    monkeypatch.setattr(hvlogic, "check", lambda system: checked.append(system) or check(system))
    monkeypatch.setattr(hvlogic, "replay",
                        lambda system, cert: replayed.append(system) or replay(system, cert))
    hvlogic._certificate.cache_clear()
    alphas = [0.05 * k for k in range(1, 20)] + [0.7071067811865476]
    printed = 0
    for _ in range(2):
        for alpha in alphas:
            for argv in (["hardy", "--alpha", repr(alpha)],
                         ["certify", "--scenario", "hardy", "--alpha", repr(alpha)],
                         ["certify", "--scenario", "two-step", "--alpha", repr(alpha)]):
                code, payload = run_json(capsys, argv)
                assert code == 0, argv
                printed += (payload.get("paradox") == "present"
                            or payload.get("certificate", {}).get("status") == "paradox")
        code, payload = run_json(capsys, ["certify", "--scenario", "gedanken"])
        printed += payload["certificate"]["status"] == "paradox"
    # by identity: both Hardy systems share one two-step form
    assert [next(i for i, c in enumerate(hvlogic.CONSTANT_SYSTEMS) if c is s)
            for s in checked] == [1, 2, 0, 3]
    assert len(replayed) == printed == 2 * (2 * 19 + 1)


@pytest.mark.parametrize("argv", ["hardy --alpha 0.6", "hardy --alpha 0.7071067811865476",
                                  *CONSTANT_ARGVS, "--format csv certify --scenario gedanken"])
def test_first_and_second_run_print_what_a_fresh_process_prints(capsys, cli_env, argv):
    """The first in-process run (cold certificates), the second (warm) and a fresh
    interpreter print the same bytes, with the same exit code and stderr."""
    hvlogic._certificate.cache_clear()
    runs = []
    for _ in range(2):
        code = cli.run(argv.split())
        runs.append((code, *capsys.readouterr()))
    proc = subprocess.run([sys.executable, "-m", "hardylab.cli", *argv.split()],
                          capture_output=True, text=True, env=cli_env, timeout=60)
    assert runs[0] == runs[1] == (proc.returncode, proc.stdout, proc.stderr)


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


NUMPY_DIR = str(Path(np.__file__).resolve().parent)


def is_numpy(obj) -> bool:
    """Whether `obj` is a numpy module or an object of a numpy type."""
    name = obj.__name__ if isinstance(obj, type(np)) else type(obj).__module__
    return name.split(".")[0] == "numpy"


def numpy_calls(argv: list[str]) -> tuple[int, list[str]]:
    """cli.run(argv)'s exit code and each numpy call a sys.setprofile spy saw in it: a Python
    function of numpy's package, a builtin or method of a numpy module or object, and a
    hardylab function returning a numpy value.  The last covers ufuncs, which raise no
    profile event of their own."""
    seen = []

    def spy(frame, event, arg):
        code = frame.f_code
        if event == "call" and str(Path(code.co_filename).resolve()).startswith(NUMPY_DIR):
            seen.append(code.co_qualname)
        elif event == "return" and is_numpy(arg):
            seen.append(f"{code.co_qualname} returned {type(arg).__name__}")
        elif event == "c_call" and (
                (getattr(arg, "__module__", None) or "").split(".")[0] == "numpy"
                or is_numpy(getattr(arg, "__self__", None))):
            seen.append(getattr(arg, "__qualname__", repr(arg)))
    with contextlib.redirect_stdout(io.StringIO()):
        sys.setprofile(spy)
        try:
            code = cli.run(argv)
        finally:
            sys.setprofile(None)
    return code, seen


class TestScalarCommandsMakeNoNumpyCall:
    """The scalar commands run on Python floats and complex numbers alone: from a cold and
    from a warm certificate cache, cli.run calls no numpy function, method or builtin."""

    @pytest.mark.parametrize("argv", ["hardy --alpha 0.6", "hardy --optimize", "gedanken",
                                      "certify --scenario hardy", "certify --scenario two-step",
                                      "certify --scenario gedanken",
                                      "bell --s 0,0,1 --m 1,0,0 --n 0,1,0"])
    def test_no_numpy_call(self, argv):
        hvlogic._certificate.cache_clear()
        for _ in range(2):
            assert numpy_calls(argv.split()) == (0, [])

    def test_cli_holds_no_numpy_module(self):
        """cli reads every array through the library: no global of it is a numpy module."""
        assert [name for name, value in vars(cli).items() if isinstance(value, types.ModuleType)
                and value.__name__.split(".")[0] == "numpy"] == []

    def test_the_spy_sees_numpy(self):
        """A command that builds arrays: the spy sees its calls and a ufunc's result."""
        code, seen = numpy_calls(["hardy", "--sweep", "--alpha-min", "0.1", "--alpha-max", "0.9",
                                  "--steps", "3"])
        assert code == 0
        assert "asarray" in seen and "_sqrt returned ndarray" in seen, seen


# What each CPU variant runs through cli.run in one process: the Hardy, gedanken and bell
# commands whose digits numpy's SIMD paths or a BLAS kernel could reach.
CPU_CORPUS = [["hardy", "--alpha", alpha] for alpha in ("0.6", "0.9", "2e-14",
                                                          "0.9999999999999999")] + [
    ["certify", "--scenario", "two-step", "--alpha", "0.9"],
    ["hardy", "--optimize"],
    ["--format", "csv", "hardy", "--sweep", "--alpha-min", "0.05", "--alpha-max", "0.95",
     "--steps", "181"],
    ["gedanken"],
    ["certify", "--scenario", "gedanken"],
    ["bell", "--s=0.6,-0.8,-0.4", "--m=-0.8,0.6,0.4", "--n=-0.9,1.0,0.9"],
    ["bell", "--s=0.6,-0.8,-0.4", "--m=-0.8,0.6,0.4", "--n=-0.9,1.0,0.9",
     "--mc-samples", "1000", "--seed", "5"],
    ["bell", "--scan", "100", "--seed", "4"],
]


def numpy_cpu_features() -> tuple[list[str], dict[str, bool]]:
    """numpy's dispatched CPU features that it reports enabled, and every feature it knows."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    features = umath.__cpu_features__
    return [f for f in umath.__cpu_dispatch__ if features.get(f)], features


def blas_name() -> str:
    """The BLAS numpy was built against, as np.show_config names it, or "" where it cannot say."""
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return ""


def test_hardy_stdout_is_the_same_bytes_on_every_cpu_path(cli_env):
    """The Hardy, gedanken and bell commands print the same bytes under every OpenBLAS
    kernel and with numpy's dispatched SIMD paths off: their printed values take no BLAS
    call and round only + - * / and sqrt, each correctly, in a fixed order.  OpenBLAS
    kernels need the CPU's instructions: Haswell runs where numpy reports AVX2 and FMA3,
    SkylakeX where it reports AVX-512."""
    if "openblas" not in blas_name().lower():
        pytest.skip(f"numpy is not linked to OpenBLAS (BLAS {blas_name() or 'unknown'!r})")
    enabled, features = numpy_cpu_features()
    base = {k: v for k, v in cli_env.items()
            if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
    variants = {"default": {}, "Prescott": {"OPENBLAS_CORETYPE": "Prescott"}}
    if features.get("AVX2") and features.get("FMA3"):
        variants["Haswell"] = {"OPENBLAS_CORETYPE": "Haswell"}
    if features.get("AVX512F"):
        variants["SkylakeX"] = {"OPENBLAS_CORETYPE": "SkylakeX"}
    if enabled:
        variants["no SIMD dispatch"] = {"NPY_DISABLE_CPU_FEATURES": " ".join(enabled)}
    script = ("import sys\nfrom hardylab import cli\n"
              f"sys.exit(max(cli.run(argv) for argv in {CPU_CORPUS!r}))\n")
    outs = {}
    for name, env in variants.items():
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              env={**base, **env}, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, b""), name
        outs[name] = proc.stdout
    assert outs["default"].count(b"\n") > 181
    assert {name: out == outs["default"] for name, out in outs.items()} == dict.fromkeys(
        outs, True)
