"""Command-line verification harness.

Subcommands:
  gedanken   thought-experiment report (quantum vs hidden-variables values)
  hardy      two-qubit model: single point, parameter sweep, or optimizer
  bell       d=2 hidden-variables model: single comparison or random scan
  certify    local-realism satisfiability certificates

Exit codes: 0 success, 2 validation error, 3 internal cross-check failure
(the latter signals an implementation bug, never a physics result).
Output cut short by a reader that closes the pipe (`| head`) exits 0.
Output is deterministic: identical argv (and seed) gives byte-identical
reports.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import bellhv, gedanken, hardy4, hvlogic
from .errors import HardyLabError, InternalConsistencyError, InvalidParameterError


@dataclass(frozen=True)
class RunConfig:
    format: str = "json"
    tol: float = 1e-10
    seed: int = 42
    eps_cond: float = 1e-14

    def __post_init__(self):
        if not (0.0 < self.tol <= 1e-3):
            raise InvalidParameterError(f"--tol must be in (0, 1e-3], got {self.tol!r}")
        if self.seed < 0:
            raise InvalidParameterError(f"--seed must be >= 0, got {self.seed!r}")
        if self.eps_cond <= 0.0:
            raise InvalidParameterError(f"--eps-cond must be positive, got {self.eps_cond!r}")


def _round15(value):
    """Recursively round floats to 15 significant digits for stable output."""
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return float(f"{value:.15g}")
    if isinstance(value, dict):
        return {k: _round15(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round15(v) for v in value]
    return value


def _emit_json(payload: dict) -> None:
    print(json.dumps(_round15(payload), indent=2, sort_keys=True))


def _parse_vector(text: str) -> np.ndarray:
    try:
        parts = [float(p) for p in text.split(",")]
    except ValueError as exc:
        raise InvalidParameterError(f"cannot parse vector {text!r}: {exc}") from exc
    if len(parts) != 3:
        raise InvalidParameterError(f"vector must have 3 components, got {text!r}")
    v = np.asarray(parts)
    norm = float(np.linalg.norm(v))
    if norm < 1e-6:
        raise InvalidParameterError(f"vector {text!r} too close to zero to normalize")
    return v / norm


def _relation_dict(report: gedanken.GedankenReport) -> dict:
    return {
        rid: {"quantum_value": r.quantum_value,
              "hv_prediction": r.hv_prediction,
              "discrepancy": r.discrepancy}
        for rid, r in report.items()
    }


def _run_gedanken(args, cfg: RunConfig) -> int:
    _emit_json({"relations": _relation_dict(gedanken.full_report())})
    return 0


def _run_hardy(args, cfg: RunConfig) -> int:
    if args.optimize:
        _emit_json(dataclasses.asdict(hardy4.optimize_paradox(tol=cfg.tol)))
        return 0
    if args.sweep:
        if args.alpha_min is None or args.alpha_max is None or args.steps is None:
            raise InvalidParameterError("--sweep requires --alpha-min, --alpha-max and --steps")
        rows = hardy4.sweep(args.alpha_min, args.alpha_max, args.steps, tol=cfg.tol)
        if cfg.format == "csv":
            for line in hardy4.sweep_csv_rows(rows):
                print(line)
        else:
            _emit_json({"rows": [dict(alpha=a, **dataclasses.asdict(m)) for a, m in rows]})
        return 0
    if args.alpha is None:
        raise InvalidParameterError("hardy requires one of --alpha, --sweep, --optimize")
    model = hardy4.build_model(args.alpha)
    metrics = hardy4.compute_metrics(model)
    closed = hardy4.closed_form_metrics(model.params)
    hardy4.cross_check(metrics, closed, tol=cfg.tol)
    cert = hvlogic.check(hvlogic.hardy_system(model, metrics))
    _emit_json({
        "alpha": model.params.alpha,
        "beta": model.params.beta,
        "matrix": dataclasses.asdict(metrics),
        "closed_form": dataclasses.asdict(closed),
        "paradox": "present" if cert.status == "paradox" else "absent",
        "disturbance_contradiction": dataclasses.asdict(hardy4.disturbance_contradiction(model)),
    })
    return 0


def _run_bell(args, cfg: RunConfig) -> int:
    if args.scan is not None:
        result = bellhv.scan_discrepancy(args.scan, cfg.seed)
        _emit_json({"max": result.max.to_dict(), "histogram": list(result.histogram)})
        return 0
    if args.s is None or args.m is None or args.n is None:
        raise InvalidParameterError("bell requires --s, --m and --n (or --scan N)")
    s, m, n = map(_parse_vector, (args.s, args.m, args.n))
    payload = bellhv.compare(s, m, n, eps_cond=cfg.eps_cond).to_dict()
    if args.mc_samples is not None:
        mc = bellhv.monte_carlo_check(s, m, n, args.mc_samples, cfg.seed)
        payload["monte_carlo"] = dataclasses.asdict(mc)
    _emit_json(payload)
    return 0


def _run_certify(args, cfg: RunConfig) -> int:
    if args.scenario == "gedanken":
        system = hvlogic.gedanken_system()
    else:
        model = hardy4.build_model(args.alpha)
        system = hvlogic.hardy_system(model, hardy4.compute_metrics(model))
    if args.scenario == "two-step":
        system, derived = hvlogic.two_step_system(system)
        _emit_json({
            "scenario": "two-step",
            "system": system.to_dict(),
            "certificate": hvlogic.check(system).to_dict(),
            "derived_implications": [d.to_text() for d in derived],
            "quantum_vs_hv": dataclasses.asdict(hardy4.disturbance_contradiction(model)),
        })
        return 0
    cert = hvlogic.check(system)
    gray = hvlogic.check(system, order="gray")
    if gray.status != cert.status:
        raise InternalConsistencyError("Gray-code re-enumeration disagrees with index order")
    payload = {
        "scenario": args.scenario,
        "system": system.to_dict(),
        "certificate": cert.to_dict(),
        "gray_code_agrees": True,
    }
    if cert.status == "paradox":
        payload["replay_ok"] = hvlogic.replay(system, cert)
        if not payload["replay_ok"]:
            raise InternalConsistencyError("paradox certificate failed its own replay")
    _emit_json(payload)
    return 0


def build_parser() -> argparse.ArgumentParser:
    # Global flags are accepted both before and after the subcommand.
    # SUPPRESS keeps the subparser from clobbering values parsed by the
    # main parser; real defaults are applied in run().
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=argparse.SUPPRESS,
                        help="cross-check tolerance (default 1e-10)")
    common.add_argument("--format", choices=("json", "csv"),
                        default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--eps-cond", type=float, default=argparse.SUPPRESS,
                        help="zero-probability conditioning threshold")

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
    certify.add_argument("--alpha", type=float, default=0.6)
    return parser


_RUNNERS = {
    "gedanken": _run_gedanken,
    "hardy": _run_hardy,
    "bell": _run_bell,
    "certify": _run_certify,
}


# Global flags by argparse destination, as error messages name them.
_GLOBAL_FLAGS = {"tol": "--tol", "format": "--format csv", "seed": "--seed", "eps_cond": "--eps-cond"}


def _flags_read(args) -> set[str]:
    """The global flags the selected command reads; giving any other is an error."""
    if args.command == "hardy":
        return {"tol", "format"} if args.sweep and not args.optimize else {"tol"}
    if args.command == "bell" and args.scan is not None:
        return {"seed"}
    if args.command == "bell":
        return {"eps_cond", "seed"} if args.mc_samples is not None else {"eps_cond"}
    return set()


def run(argv: list[str]) -> int:
    args = build_parser().parse_args(argv)
    try:
        given = {k: v for k, v in vars(args).items() if k in _GLOBAL_FLAGS}
        cfg = RunConfig(**given)
        # --format json is what every command emits anyway
        unread = [_GLOBAL_FLAGS[k] for k, v in given.items()
                  if k not in _flags_read(args) and v != "json"]
        if unread:
            raise InvalidParameterError(f"{', '.join(unread)}: no effect on this {args.command} command")
        return _RUNNERS[args.command](args, cfg)
    except InternalConsistencyError as exc:
        print(f"internal cross-check failed: {exc}", file=sys.stderr)
        return 3
    except HardyLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


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
