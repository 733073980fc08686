"""Command-line verification harness.

Subcommands:
  gedanken   thought-experiment report (quantum vs hidden-variables values)
  hardy      two-qubit model: single point, parameter sweep, or optimizer
  bell       d=2 hidden-variables model: single comparison or random scan
  certify    local-realism satisfiability certificates

Each command mode in `_MODES` names its runner, the flags it requires
and the flags it reads; any other flag given is a validation error, and so
is a flag given more than once, a global flag given both before and after
the subcommand included.
Exit codes: 0 success, 2 validation error, 3 internal cross-check failure
(the latter signals an implementation bug, never a physics result).
Output cut short by a reader that closes the pipe (`| head`) exits 0.
Output is deterministic: identical argv (and seed) gives byte-identical
reports.

An argv is parsed on one of two routes.  When argv[0] names a subcommand,
that subcommand's parser reads argv[1:] alone: the same parser, into the same
namespace, that the top-level parser hands argv[1:] to after it has matched
the command name, so the top-level pass is skipped.  Any other argv (a global
flag first, an unknown command, no command), and any argv whose subcommand
parse leaves a token over, goes through the top-level parser, whose usage
line and message a leftover token or an unknown command then gets.  Either
route gives the same namespace, attribute by attribute and in order, and the
same output: on the top-level route too, the subcommand's parser reads into
the top-level namespace (`_Subcommands`), where each flag's action (`_Once`)
sees whether the flag was already given.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

from . import bellhv, gedanken, hardy4, hvlogic
from .errors import HardyLabError, InternalConsistencyError, InvalidParameterError


@dataclass(frozen=True)
class RunConfig:
    format: str = "json"
    seed: int = 42

    def __post_init__(self):
        if self.seed < 0:
            raise InvalidParameterError(f"--seed must be >= 0, got {self.seed!r}")


_CONFIG_FIELDS = tuple(f.name for f in dataclasses.fields(RunConfig))


CSV_HEADER = ("alpha,beta,p_D1,p_D2_given_D1,p_U2_given_D1,p_U1_given_D2,"
              "p_U1U2,p_D1D2,c_bar,comm_D1U1")
# One %-format per CSV row: the same digits as format(v, ".15g") for each value,
# the rounding _json_text applies to each float.
_CSV_ROW = ",".join(["%.15g"] * 10)


def _json_text(value, indent: str = "") -> str:
    """`value` as json.dumps(value, indent=2, sort_keys=True) writes it, each float
    first rounded to 15 significant digits for stable output, in one pass.

    Dicts (with str keys), lists and tuples nest; str, int, bool, None and
    float (np.float64 too) are the leaves.  NaN and +-inf print as json
    prints them.

    A float whose `%.15g` text t has a `.` and no exponent prints as t.  With
    DBL_DIG = 15, no other decimal of at most 15 significant digits reads back
    as the double float(t), so repr(float(t)), the shortest decimal that does,
    has t's digits; %g has stripped t's trailing zeros, and |v| lies in
    [1e-4, 1e15), where %g and repr both print plain notation.  Every other
    text (an exponent, an integral value, which repr prints with `.0`, +-0,
    subnormals, inf and nan) goes through float(t) and repr.
    """
    if isinstance(value, float):
        text = "%.15g" % value
        if "." in text and "e" not in text:
            return text
        value = float(text)
        if math.isfinite(value):
            return repr(value)
        return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = ",\n".join([f"{inner}{encode_basestring_ascii(k)}: {_json_text(v, inner)}"
                            for k, v in sorted(value.items())])
        return f"{{\n{items}\n{indent}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = ",\n".join([inner + _json_text(v, inner) for v in value])
        return f"[\n{items}\n{indent}]"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _parse_vector(text: str) -> tuple[float, float, float]:
    """The unit vector along `text`, three comma-separated finite reals, as a triple of
    Python floats."""
    try:
        parts = [float(p) for p in text.split(",")]
    except ValueError as exc:
        raise InvalidParameterError(f"cannot parse vector {text!r}: {exc}") from exc
    if len(parts) != 3:
        raise InvalidParameterError(f"vector must have 3 components, got {text!r}")
    if not all(map(math.isfinite, parts)):
        raise InvalidParameterError(f"vector {text!r} has a non-finite component")
    # Scaled by the power of two at its largest component, the squares in the
    # norm cannot overflow, and v / |v| keeps every digit: the scale is exact.
    exp = math.frexp(max(map(abs, parts)))[1]
    x, y, z = (math.ldexp(c, -exp) for c in parts)
    # the fixed order of every Bloch-vector dot in bellhv, not np.linalg.norm: a BLAS
    # dot's last digit depends on the CPU
    norm = math.sqrt(x * x + y * y + z * z)
    # |v| itself while exp <= 0; beyond, |v| >= 1/2 passes either way, and the
    # capped exponent keeps ldexp from overflowing
    if math.ldexp(norm, min(exp, 0)) < 1e-6:
        raise InvalidParameterError(f"vector {text!r} too close to zero to normalize")
    return x / norm, y / norm, z / norm


# Each runner returns its payload: a dict emitted as JSON, or a list of CSV lines.

def _run_gedanken(args, cfg: RunConfig) -> dict:
    return {"relations": {rid: {"quantum_value": r.quantum_value,
                                "hv_prediction": r.hv_prediction,
                                "discrepancy": r.discrepancy}
                          for rid, r in gedanken.full_report().items()}}


def _hardy_encoding(args) -> tuple[hardy4.HardyModel, hardy4.HardyMetrics, hardy4.HardyMetrics,
                                   hvlogic.ConstraintSystem]:
    """The model of --alpha, its Born-rule metrics, its closed forms, and the constraint
    system the metrics encode once hvlogic.hardy_system has cross-checked them against
    the closed forms."""
    model = hardy4.build_model(0.6 if args.alpha is None else args.alpha)
    metrics = hardy4.compute_metrics(model)
    closed = hardy4.closed_form_metrics(model.params)
    return model, metrics, closed, hvlogic.hardy_system(model, metrics, closed)


def _replayed(system: hvlogic.ConstraintSystem) -> hvlogic.Certificate:
    """The constant system's certificate, computed once per process; a paradox must pass
    its own replay on every call that prints it."""
    cert = hvlogic.constant_certificate(system)
    if cert.status == "paradox" and not hvlogic.replay(system, cert):
        raise InternalConsistencyError("paradox certificate failed its own replay")
    return cert


def _run_hardy_point(args, cfg: RunConfig) -> dict:
    model, metrics, closed, system = _hardy_encoding(args)
    return {
        "alpha": model.params.alpha,
        "beta": model.params.beta,
        "matrix": vars(metrics),
        "closed_form": vars(closed),
        "paradox": "present" if _replayed(system).status == "paradox" else "absent",
        "disturbance_contradiction": vars(
            hardy4.disturbance_contradiction(model, metrics, closed)),
    }


def _run_hardy_sweep(args, cfg: RunConfig) -> dict | list[str]:
    """The sweep's columns, all checked before the first row is written: CSV in the
    documented 10-column layout, or one JSON dict per row, keyed alpha and the fields."""
    grid, m = hardy4.sweep(args.alpha_min, args.alpha_max, args.steps)
    if cfg.format == "csv":
        columns = (grid.alpha, grid.beta, m.p_D1, m.p_cond_D2_given_D1,
                   m.p_cond_U2_given_D1, m.p_cond_U1_given_D2, m.p_joint_U1U2,
                   m.p_joint_D1D2, m.c_bar, m.commutator_D1U1)
        return [CSV_HEADER, *(_CSV_ROW % row for row in zip(*(c.tolist() for c in columns)))]
    columns = {"alpha": grid.alpha, **vars(m)}
    return {"rows": [dict(zip(columns, row))
                     for row in zip(*(c.tolist() for c in columns.values()))]}


def _run_hardy_optimize(args, cfg: RunConfig) -> dict:
    return vars(hardy4.optimize_paradox())


def _run_bell_scan(args, cfg: RunConfig) -> dict:
    result = bellhv.scan_discrepancy(args.scan, cfg.seed)
    return {"max": result.max.to_dict(), "histogram": list(result.histogram)}


def _run_bell_compare(args, cfg: RunConfig) -> dict:
    """Both `bell --s/--m/--n` modes; `--mc-samples` adds the Monte Carlo check."""
    s, m, n = map(_parse_vector, (args.s, args.m, args.n))
    payload = bellhv.compare(s, m, n).to_dict()
    if args.mc_samples is not None:
        payload["monte_carlo"] = vars(
            bellhv.monte_carlo_check(s, m, n, args.mc_samples, cfg.seed))
    return payload


def _certified(scenario: str, system: hvlogic.ConstraintSystem) -> dict:
    """The system and its replayed certificate."""
    cert = _replayed(system)
    payload = {"scenario": scenario, "system": system.to_dict(), "certificate": cert.to_dict()}
    if cert.status == "paradox":
        payload["replay_ok"] = True
    return payload


def _run_certify_hardy(args, cfg: RunConfig) -> dict:
    return _certified("hardy", _hardy_encoding(args)[3])


def _run_certify_two_step(args, cfg: RunConfig) -> dict:
    model, metrics, closed, base = _hardy_encoding(args)
    system, derived = hvlogic.two_step_system(base)
    payload = _certified("two-step", system)
    payload["derived_implications"] = [d.to_text() for d in derived]
    payload["quantum_vs_hv"] = vars(hardy4.disturbance_contradiction(model, metrics, closed))
    return payload


def _run_certify_gedanken(args, cfg: RunConfig) -> dict:
    return _certified("gedanken", hvlogic.gedanken_system())


# mode -> (runner, flags it requires, flags it reads), flags by argparse
# destination.  `--format json` is read by every mode.
_MODES = {
    "gedanken": (_run_gedanken, (), ()),
    "hardy --alpha": (_run_hardy_point, (), ("alpha",)),
    "hardy --sweep": (_run_hardy_sweep, ("alpha_min", "alpha_max", "steps"),
                      ("sweep", "alpha_min", "alpha_max", "steps", "format")),
    "hardy --optimize": (_run_hardy_optimize, (), ("optimize",)),
    "bell --scan": (_run_bell_scan, (), ("scan", "seed")),
    "bell --s/--m/--n": (_run_bell_compare, ("s", "m", "n"), ("s", "m", "n")),
    "bell --s/--m/--n --mc-samples": (_run_bell_compare, ("s", "m", "n"),
                                      ("s", "m", "n", "mc_samples", "seed")),
    "certify --scenario hardy": (_run_certify_hardy, (), ("scenario", "alpha")),
    "certify --scenario two-step": (_run_certify_two_step, (), ("scenario", "alpha")),
    "certify --scenario gedanken": (_run_certify_gedanken, (), ("scenario",)),
}


def _mode(args) -> str:
    """The `_MODES` key argv selects; a second mode selector is left unread."""
    if args.command == "hardy":
        mode = ("hardy --optimize" if args.optimize else "hardy --sweep" if args.sweep
                else "hardy --alpha" if args.alpha is not None else None)
    elif args.command == "bell":
        mode = ("bell --scan" if args.scan is not None
                else "bell --s/--m/--n --mc-samples" if args.mc_samples is not None
                else "bell --s/--m/--n" if (args.s, args.m, args.n) != (None, None, None)
                else None)
    elif args.command == "certify":
        mode = f"certify --scenario {args.scenario}"
    else:
        mode = args.command
    if mode is None:
        modes = [m for m in _MODES if m.startswith(f"{args.command} ")]
        raise InvalidParameterError(f"{args.command} requires a mode: {'; '.join(modes)}")
    return mode


class _Once:
    """Mixin for a flag's argparse action: a flag that already holds a value given on the
    command line, before or after the subcommand, is added to the namespace's
    `repeated`, which run() refuses.  A value not yet given is the action's default
    object itself, or absent under SUPPRESS.  The action's own __call__ then stores
    the value."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest, self.default) is not self.default:
            repeated = getattr(namespace, "repeated", ())
            if self.option_strings[0] not in repeated:
                namespace.repeated = (*repeated, self.option_strings[0])
        super().__call__(parser, namespace, values, option_string)


class _StoreOnce(_Once, argparse._StoreAction):
    pass


class _StoreTrueOnce(_Once, argparse._StoreTrueAction):
    pass


class _Subcommands(argparse._SubParsersAction):
    """The subcommand's parser reads the rest of argv into the top-level namespace itself,
    not into a fresh one copied over it, so that a global flag given after the command
    finds the value it was given before the command.  Defaults fill only what is
    absent, so the namespace holds the same items in the same order either way."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values[0])
        _, rest = self.choices[values[0]].parse_known_args(values[1:], namespace)
        if rest:
            vars(namespace).setdefault(argparse._UNRECOGNIZED_ARGS_ATTR, []).extend(rest)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose flags are `_Once` actions and whose subcommands parse into
    the top-level namespace; the parsers add_subparsers builds are _Parsers too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.register("action", None, _StoreOnce)
        self.register("action", "store", _StoreOnce)
        self.register("action", "store_true", _StoreTrueOnce)
        self.register("action", "parsers", _Subcommands)


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and its subcommand parsers by command name."""
    # Built once per process: parse_args returns a fresh namespace and leaves
    # the parser as it was, also when a usage error exits.
    # Global flags are accepted both before and after the subcommand, once.
    # SUPPRESS leaves a global flag absent until it is given; real defaults
    # are applied in run().
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"),
                        default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)

    parser = _Parser(prog="hardylab", parents=[common],
                                     description="Hidden-variables vs quantum verification harness")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("gedanken", help="thought-experiment report", parents=[common])

    hardy = sub.add_parser("hardy", help="two-qubit model", parents=[common])
    hardy.add_argument("--alpha", type=float)
    hardy.add_argument("--sweep", action="store_true")
    hardy.add_argument("--alpha-min", type=float)
    hardy.add_argument("--alpha-max", type=float)
    hardy.add_argument("--steps", type=int)
    hardy.add_argument("--optimize", action="store_true")

    bell = sub.add_parser("bell", help="d=2 hidden-variables model", parents=[common])
    bell.add_argument("--s", help="state Bloch vector x,y,z")
    bell.add_argument("--m", help="first measurement axis x,y,z")
    bell.add_argument("--n", help="second measurement axis x,y,z")
    bell.add_argument("--scan", type=int, help="number of random triples")
    bell.add_argument("--mc-samples", type=int)

    certify = sub.add_parser("certify", help="satisfiability certificates", parents=[common])
    certify.add_argument("--scenario", required=True,
                         choices=("hardy", "gedanken", "two-step"))
    certify.add_argument("--alpha", type=float, help="hardy and two-step alpha (default 0.6)")
    return parser, sub.choices


def build_parser() -> argparse.ArgumentParser:
    """The top-level parser, built once per process."""
    return _parsers()[0]


def _parse(argv: list[str]) -> argparse.Namespace:
    """The namespace build_parser().parse_args(argv) returns, through argv[0]'s own
    subcommand parser when argv[0] names one and it reads every other token."""
    parser, commands = _parsers()
    command = commands.get(argv[0]) if argv else None
    if command is not None:
        args, rest = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not rest:
            return args
    return parser.parse_args(argv)


def run(argv: list[str]) -> int:
    args = _parse(argv)
    try:
        if hasattr(args, "repeated"):
            raise InvalidParameterError(f"{', '.join(args.repeated)} given more than once")
        cfg = RunConfig(**{name: getattr(args, name)
                           for name in _CONFIG_FIELDS if hasattr(args, name)})
        mode = _mode(args)
        runner, requires, reads = _MODES[mode]
        missing = ["--" + k.replace("_", "-") for k in requires if getattr(args, k) is None]
        if missing:
            raise InvalidParameterError(f"{mode} requires {', '.join(missing)}")
        unread = ["--" + k.replace("_", "-") for k, v in vars(args).items()
                  if k != "command" and k not in reads and v is not None and v is not False
                  and not (k == "format" and v == "json")]
        if unread:
            raise InvalidParameterError(f"{', '.join(unread)}: no effect on {mode}")
        out = runner(args, cfg)
    except InternalConsistencyError as exc:
        print(f"internal cross-check failed: {exc}", file=sys.stderr)
        return 3
    except HardyLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(out) if isinstance(out, list) else _json_text(out))
    return 0


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left early; stdout goes to devnull so the exit flush cannot fail too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    sys.exit(code)


if __name__ == "__main__":
    main()
