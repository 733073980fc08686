"""The committed transcript: every printed byte of ~300 argvs, pinned by hash.

`tests/data/transcript.tsv` holds one line per argv: the argv as a JSON list,
the exit code, and the SHA-256 of stdout and of stderr.  An argv that ends in
argparse's SystemExit (a usage error) records `SystemExit <code>` and its
stdout hash only, since argparse's wording belongs to the interpreter.  The
test runs every argv in-process through `cli.run` and names each one whose
line differs.

A change that alters output regenerates the file and lists the changed argvs:

    PYTHONPATH=src python tests/test_transcript.py --write
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import struct
import sys
from pathlib import Path

from hardylab import cli

TRANSCRIPT = Path(__file__).resolve().parent / "data" / "transcript.tsv"
HEADER = "argv\texit\tstdout_sha256\tstderr_sha256"

SWEEP = ["--sweep", "--alpha-min", "0.1", "--alpha-max", "0.9", "--steps", "3"]
VECTORS = ["--s", "0,0,1", "--m", "1,0,0", "--n", "0,0,1"]
# nearly orthogonal s and m whose rounded dot has the other sign than the exact one
NEAR_ORTHOGONAL = ["--s=0.206196161770772,0.1955326341458375,-0.9587753291856188",
                   "--m=-0.6185417449049126,0.7852835767961712,0.02712588844992735",
                   "--n=-0.6693777296468275,-0.3821147356212035,-0.6371199132612294"]


def ulps_from_half_sqrt2(k: int) -> float:
    """The float k units in the last place away from sqrt(0.5)."""
    bits = struct.unpack("<q", struct.pack("<d", math.sqrt(0.5)))[0]
    return struct.unpack("<d", struct.pack("<q", bits + k))[0]


def argvs() -> list[list[str]]:
    """Every mode in both formats, exit-2 argvs, both parse routes and the boundary cases."""
    alphas = (["0.6", "0.3", "0.5", "0.1", "0.9", "0.2", "0.4", "0.7", "0.8", "0.05", "1e-3",
               "1e-10", "2e-14", "1e-14", "1e-6", "0.99", "0.999999999", "0.9999999999999999",
               "0.7071067811865476"]
              + [repr(ulps_from_half_sqrt2(k)) for k in (-64, -8, -3, -2, -1, 1, 2, 3, 8, 64)]
              + [repr(math.sqrt(0.5) + sign * 10.0 ** e) for e in (-12, -9, -6) for sign in (-1, 1)]
              # the edge of the zero rule on P(D1) and, just above it, of the one on <D1D2>
              + ["1.4210854715201903e-14", "1.4210854715201904e-14", repr(2.0 ** -46),
                 "1.4210854715202007e-14"])
    bad_alphas = ["1.5", "0", "1", "-0.1", "nan", "inf", "x", ""]
    out = [["gedanken"], ["--format", "json", "gedanken"], ["gedanken", "--format", "json"],
           ["--format", "csv", "gedanken"], ["gedanken", "--seed", "1"], ["gedanken", "--bogus"]]
    for alpha in alphas:
        out += [["hardy", "--alpha", alpha],
                ["certify", "--scenario", "hardy", "--alpha", alpha],
                ["certify", "--scenario", "two-step", "--alpha", alpha]]
    for alpha in bad_alphas:
        out += [["hardy", "--alpha", alpha], ["certify", "--scenario", "two-step", "--alpha", alpha]]
    out += [["hardy", "--alpha=0.6"], ["hardy", "--alpha=-0.5"], ["hardy", "--alp", "0.6"],
            ["hardy", "--alpha", "0.6", "--alpha", "0.3"], ["hardy", "--alpha", "0.6", "--format", "csv"],
            ["hardy", "--alpha", "0.6", "--seed", "1"], ["--seed", "1", "hardy", "--alpha", "0.6"],
            ["hardy", "--alpha", "0.3", "--steps", "4"], ["hardy", "--alpha", "0.3", "--alpha-min", "0.2"],
            ["hardy", "--alpha", "0.3", "--optimize"], ["hardy", "--alpha", "0.3", "--sweep"],
            ["hardy"], ["hardy", "--steps", "3"], ["hardy", "--alpha"]]
    sweeps = [("0.1", "0.9", "3"), ("0.2", "0.8", "2"), ("0.05", "0.95", "181"),
              ("2e-14", "0.9999999999999999", "3"), ("2e-14", "0.9999999999999999", "50"),
              ("0.7", "0.9999999999999999", "7"), ("0.35392958546780345", "0.9", "2"),
              ("0.01870396532166641", "0.99", "181"), ("0.7071067811865475", "0.7071067811865477", "5"),
              ("1e-14", "0.5", "3")]
    for lo, hi, steps in sweeps:
        sweep = ["--sweep", "--alpha-min", lo, "--alpha-max", hi, "--steps", steps]
        out += [["hardy", *sweep], ["hardy", *sweep, "--format", "csv"],
                ["--format", "csv", "hardy", *sweep], ["--format", "json", "hardy", *sweep]]
    out += [["hardy", "--sweep"], ["hardy", "--sweep", "--alpha-min", "0.1"],
            ["hardy", "--sweep", "--alpha-min", "0.5", "--alpha-max", "0.2", "--steps", "3"],
            ["hardy", "--sweep", "--alpha-min", "0", "--alpha-max", "0.2", "--steps", "3"],
            ["hardy", "--sweep", "--alpha-min", "0.1", "--alpha-max", "1", "--steps", "3"],
            ["hardy", "--sweep", "--alpha-min", "0.1", "--alpha-max", "0.9", "--steps", "1"],
            ["hardy", "--sweep", "--alpha-min", "0.1", "--alpha-max", "0.9", "--steps", "100001"],
            ["hardy", "--sweep", "--alpha-min", "0.1", "--alpha-max", "0.9", "--steps", "2.5"],
            ["hardy", *SWEEP, "--alpha", "0.3"], ["hardy", *SWEEP, "--seed", "3"],
            ["hardy", "--sw", "--alpha-m", "0.1", "--alpha-max", "0.9", "--steps", "3"],
            ["hardy", "--sw", "--alpha-mi", "0.1", "--alpha-ma", "0.9", "--st", "3"],
            ["--format", "csv", "hardy", "--sweep", "--alpha-min=0.1", "--alpha-max=0.9", "--steps=3"],
            ["hardy", "--optimize"], ["hardy", "--opt"], ["--format", "json", "hardy", "--optimize"],
            ["--format", "csv", "hardy", "--optimize"], ["hardy", "--optimize", "--alpha", "0.3"],
            ["hardy", "--optimize", *SWEEP], ["hardy", "--optimize", "--seed", "2"]]
    vectors = [("0,0,1", "1,0,0", "0,0,1"), ("1,0,0", "0,1,0", "0,0,1"), ("1,1,1", "1,1,1", "0,0,1"),
               ("0,0,1", "0,0,1", "0,0,1"), ("0,0,1", "0,0,-1", "1,0,0"), ("1,2,3", "-1,0.5,2", "3,-2,1"),
               ("0.6,0,0.8", "0,0.6,0.8", "0.8,0.6,0"), ("1e-300,0,1e-300", "1,0,0", "0,0,1"),
               ("1e300,1e300,0", "0,1,0", "1,0,0"), ("0,0,2e-6", "0,3,0", "4,0,0"),
               ("-1,0,0", "-1,0,0", "-1,0,0"), ("0.1,0.2,0.3", "0.3,0.2,0.1", "-0.2,0.1,0.4")]
    for s, m, n in vectors:
        triple = [f"--s={s}", f"--m={m}", f"--n={n}"]
        out += [["bell", *triple], ["bell", *triple, "--mc-samples", "1000", "--seed", "7"]]
    out += [["bell", *NEAR_ORTHOGONAL], ["bell", *NEAR_ORTHOGONAL, "--mc-samples", "2000"],
            ["bell", *VECTORS], ["bell", *VECTORS, "--mc-samples", "100000"],
            ["bell", *VECTORS, "--mc-samples", "100"], ["bell", *VECTORS, "--mc-samples", "99"],
            ["bell", *VECTORS, "--mc-samples", "10000001"],
            ["--seed", "5", "bell", *VECTORS, "--mc-samples", "500"],
            ["bell", "--s=1,1,1", "--m=1,1,1", "--n=0,0,1", "--mc-samples", "500", "--seed", "3"],
            ["bell", "--s", "0,0,1", "--m=-1,0,0", "--n", "0,0,1"],
            ["bell", "--s", "0,0,1", "--m", "-1,0,0", "--n", "0,0,1"],
            ["bell", "--s", "0,0,0", "--m", "1,0,0", "--n", "0,0,1"],
            ["bell", "--s", "0,0,1e-7", "--m", "1,0,0", "--n", "0,0,1"],
            ["bell", "--s", "nan,0,1", "--m", "1,0,0", "--n", "0,0,1"],
            ["bell", "--s", "inf,0,1", "--m", "1,0,0", "--n", "0,0,1"],
            ["bell", "--s", "0,1", "--m", "1,0,0", "--n", "0,0,1"],
            ["bell", "--s", "a,b,c", "--m", "1,0,0", "--n", "0,0,1"],
            ["bell", "--s", "0,0,1"], ["bell", "--mc-samples", "5"], ["bell"],
            ["bell", *VECTORS, "--seed", "1"], ["bell", *VECTORS, "--format", "csv"],
            ["bell", *VECTORS, "--scan", "3"]]
    for trials, seed in (("1", "0"), ("10", "3"), ("50", "11"), ("100", "7"), ("1000", "42"),
                         ("3", "2147483648")):
        out += [["bell", "--scan", trials, "--seed", seed], ["--seed", seed, "bell", "--scan", trials]]
    # the smallest scan with two trials, and the last trial of a block and the first of the next
    out += [["bell", "--scan", "2", "--seed", "1"], ["bell", "--scan", "16384", "--seed", "5"],
            ["bell", "--scan", "16385", "--seed", "5"]]
    out += [["bell", "--scan", "100"], ["bell", "--sc", "10"], ["bell", "--scan=10", "--seed=4"],
            ["bell", "--scan", "0"], ["bell", "--scan", "1000001"], ["bell", "--scan", "ten"],
            ["--seed", "-1", "bell", "--scan", "3"], ["bell", "--scan", "3", "--seed", "-1"],
            ["bell", "--scan", "10", "--format", "csv"], ["bell", "--scan", "3", "--mc-samples", "100"],
            ["bell", "--scan", "3", "--s", "0,0,1", "--mc-samples", "5"]]
    out += [["certify", "--scenario", "hardy"], ["certify", "--scenario", "two-step"],
            ["certify", "--scenario", "gedanken"], ["--format", "json", "certify", "--scenario", "gedanken"],
            ["--format", "csv", "certify", "--scenario", "gedanken"],
            ["certify", "--scenario", "gedanken", "--alpha", "0.3"],
            ["certify", "--scenario", "hardy", "--seed", "1"], ["certify", "--scenario", "nonsense"],
            ["certify"], ["certify", "--scenario"], ["certify", "--sc", "hardy"],
            ["certify", "--scenario=two-step", "--alpha=0.3"]]
    # both parse routes: a global flag before the command, one after it, a token left
    # over, an unknown command, no command, and argparse's `--`
    out += [["--format", "csv", "hardy", "--alpha", "0.6"], ["--seed", "3", "gedanken"],
            ["--format", "json", "--seed", "1", "bell", "--scan", "10"],
            ["bell", "--scan", "10", "--seed", "3", "--format", "json"],
            ["hardy", "--alpha", "0.6", "extra"], ["gedanken", "extra"], ["certify", "--scenario", "hardy", "x"],
            ["bogus"], ["bogus", "--alpha", "0.6"], ["--format", "csv", "bogus"], [], ["--format", "csv"],
            ["--seed", "x", "gedanken"], ["--format", "xml", "gedanken"], ["gedanken", "--format", "xml"],
            ["--", "gedanken"], ["hardy", "--", "--alpha", "0.6"], ["gedanken", "--"],
            ["--alpha", "0.6", "hardy"], ["HARDY", "--alpha", "0.6"], ["hard", "--alpha", "0.6"]]
    return out


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def outcome(argv: list[str]) -> tuple[str, str, str]:
    """(exit, stdout hash, stderr hash) of one in-process run; a usage error's stderr is '-'."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return str(cli.run(argv)), sha256(out.getvalue()), sha256(err.getvalue())
        except SystemExit as exc:
            return f"SystemExit {exc.code}", sha256(out.getvalue()), "-"


def line(argv: list[str]) -> str:
    return "\t".join([json.dumps(argv), *outcome(argv)])


def read() -> list[list[str]]:
    """The recorded argvs, in file order; each line's other fields are `line`'s."""
    lines = TRANSCRIPT.read_text().splitlines()
    assert lines[0] == HEADER
    return [json.loads(entry.split("\t")[0]) for entry in lines[1:]]


def test_transcript_lists_every_argv():
    assert read() == argvs()


def test_every_argv_prints_its_recorded_bytes():
    recorded = TRANSCRIPT.read_text().splitlines()[1:]
    mismatched = [" ".join(argv) for argv, want in zip(read(), recorded) if line(argv) != want]
    assert not mismatched, f"{len(mismatched)} argv(s) differ from {TRANSCRIPT.name}: {mismatched}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    TRANSCRIPT.parent.mkdir(exist_ok=True)
    TRANSCRIPT.write_text("\n".join([HEADER, *map(line, argvs())]) + "\n")
    print(f"{TRANSCRIPT}: {len(argvs())} argvs")
