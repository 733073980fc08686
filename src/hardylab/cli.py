"""Command-line verification harness.

Subcommands:
  gedanken   thought-experiment report (quantum vs hidden-variables values)
  hardy      two-qubit model: single point, parameter sweep, or optimizer
  bell       d=2 hidden-variables model: single comparison or random scan
  certify    local-realism satisfiability certificates

Each command mode in `_MODES` names its runner, the flags it requires
and the flags it reads; any other flag given is a validation error.
Exit codes: 0 success, 2 validation error, 3 internal cross-check failure
(the latter signals an implementation bug, never a physics result).
Output cut short by a reader that closes the pipe (`| head`) exits 0.
Output is deterministic: identical argv (and seed) gives byte-identical
reports.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import bellhv, gedanken, hardy4, hvlogic
from .errors import HardyLabError, InternalConsistencyError, InvalidParameterError


@dataclass(frozen=True)
class RunConfig:
    format: str = "json"
    seed: int = 42

    def __post_init__(self):
        if self.seed < 0:
            raise InvalidParameterError(f"--seed must be >= 0, got {self.seed!r}")


def _round15(value):
    """Recursively round floats to 15 significant digits for stable output."""
    if isinstance(value, float):
        return float(f"{value:.15g}")
    if isinstance(value, dict):
        return {k: _round15(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round15(v) for v in value]
    return value


def _parse_vector(text: str) -> np.ndarray:
    try:
        parts = [float(p) for p in text.split(",")]
    except ValueError as exc:
        raise InvalidParameterError(f"cannot parse vector {text!r}: {exc}") from exc
    if len(parts) != 3:
        raise InvalidParameterError(f"vector must have 3 components, got {text!r}")
    v = np.asarray(parts)
    if not np.all(np.isfinite(v)):
        raise InvalidParameterError(f"vector {text!r} has a non-finite component")
    # Scaled by the power of two at its largest component, the squares in the
    # norm cannot overflow, and v / |v| keeps every digit: the scale is exact.
    exp = math.frexp(float(np.abs(v).max()))[1]
    v = np.ldexp(v, -exp)
    norm = float(np.linalg.norm(v))
    # |v| itself while exp <= 0; beyond, |v| >= 1/2 passes either way, and the
    # capped exponent keeps ldexp from overflowing
    if math.ldexp(norm, min(exp, 0)) < 1e-6:
        raise InvalidParameterError(f"vector {text!r} too close to zero to normalize")
    return v / norm


# Each runner returns its payload: a dict emitted as JSON, or a list of CSV lines.

def _run_gedanken(args, cfg: RunConfig) -> dict:
    return {"relations": {rid: {"quantum_value": r.quantum_value,
                                "hv_prediction": r.hv_prediction,
                                "discrepancy": r.discrepancy}
                          for rid, r in gedanken.full_report().items()}}


def _hardy_encoding(args) -> tuple[hardy4.HardyModel, hardy4.HardyMetrics,
                                   hardy4.HardyMetrics, hvlogic.ConstraintSystem]:
    """The model of --alpha, its matrix metrics cross-checked against the closed
    forms, the closed forms, and the constraint system the metrics encode."""
    model = hardy4.build_model(0.6 if args.alpha is None else args.alpha)
    metrics = hardy4.compute_metrics(model)
    system = hvlogic.hardy_system(model, metrics)
    closed = hardy4.closed_form_metrics(model.params)
    hardy4.cross_check(metrics, closed, model.params)
    return model, metrics, closed, system


def _run_hardy_point(args, cfg: RunConfig) -> dict:
    model, metrics, closed, system = _hardy_encoding(args)
    return {
        "alpha": model.params.alpha,
        "beta": model.params.beta,
        "matrix": vars(metrics),
        "closed_form": vars(closed),
        "paradox": "present" if hvlogic.check(system).status == "paradox" else "absent",
        "disturbance_contradiction": vars(hardy4.disturbance_contradiction(model, metrics)),
    }


def _run_hardy_sweep(args, cfg: RunConfig) -> dict | list[str]:
    rows = hardy4.sweep(args.alpha_min, args.alpha_max, args.steps)
    if cfg.format == "csv":
        return hardy4.sweep_csv_rows(rows)
    return {"rows": [dict(alpha=a, **vars(m)) for a, m in rows]}


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
    """The system and its certificate; a paradox must pass its own replay."""
    cert = hvlogic.check(system)
    payload = {"scenario": scenario, "system": system.to_dict(), "certificate": cert.to_dict()}
    if cert.status == "paradox":
        payload["replay_ok"] = hvlogic.replay(system, cert)
        if not payload["replay_ok"]:
            raise InternalConsistencyError("paradox certificate failed its own replay")
    return payload


def _run_certify_hardy(args, cfg: RunConfig) -> dict:
    return _certified("hardy", _hardy_encoding(args)[3])


def _run_certify_two_step(args, cfg: RunConfig) -> dict:
    model, metrics, _, base = _hardy_encoding(args)
    system, derived = hvlogic.two_step_system(base)
    payload = _certified("two-step", system)
    payload["derived_implications"] = [d.to_text() for d in derived]
    payload["quantum_vs_hv"] = vars(hardy4.disturbance_contradiction(model, metrics))
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # Built once per process: parse_args returns a fresh namespace and leaves
    # the parser as it was, also when a usage error exits.
    # Global flags are accepted both before and after the subcommand.
    # SUPPRESS keeps the subparser from clobbering values parsed by the
    # main parser; real defaults are applied in run().
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"),
                        default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)

    parser = argparse.ArgumentParser(prog="hardylab", parents=[common],
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
    return parser


def run(argv: list[str]) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig(**{f.name: getattr(args, f.name)
                           for f in dataclasses.fields(RunConfig) if hasattr(args, f.name)})
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
    print("\n".join(out) if isinstance(out, list)
          else json.dumps(_round15(out), indent=2, sort_keys=True))
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
