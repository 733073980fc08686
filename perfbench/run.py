"""Benchmark for hardylab: one workload, one seed, one run.

    python3 perfbench/run.py --workload hardy_points --seed 1 --seconds 25 --trace 0

A single caller drives hardylab in a closed loop, in-process, through its
public entry points (`cli.run`, and `hvlogic.check`/`replay` for systems
the CLI cannot express).  Every operation's output is checked against
the benchmark's own computations (oracle.py).  The last line of standard
output is one JSON object: `correct`, `attempted`, `failed` and the
metrics, end-to-end ones with `--trace 0`, per-layer ones with
`--trace 1`.  A fuller record goes to perfbench/results/.

Timings are reported at reference speed: a fixed kernel owned by the
benchmark runs between operations, and each operation's time is scaled
by REF_NOMINAL_S over the kernel's time measured next to it.  On a
shared machine whose speed drifts this keeps the figures steady; the raw
figures are written beside the scaled ones.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

# Workload names and metric units are read from BENCHMARK.json, the one
# place they are written; workloads.WORKLOADS and tracing.SPANS must match it.
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

# The reference kernel: REF_REPS passes of small-matrix numpy calls and
# interpreter work, the same mix as hardylab's own.  REF_NOMINAL_S is its
# nominal time, inside the 0.7-1.5 ms it measures on a 2-core 2.1 GHz Xeon
# machine (Python 3.11.7, numpy 2.4.6); measured times are multiplied by
# REF_NOMINAL_S over the kernel's measured time to give times at reference
# speed.
REF_REPS = 80
REF_NOMINAL_S = 1.0e-3
REF_MATRIX = np.array([[0.6, 0.2j, 0.1, 0.0], [-0.2j, 0.3, 0.0, 0.1],
                       [0.1, 0.0, 0.5, 0.3], [0.0, 0.1, 0.3, 0.4]], dtype=complex)
# Between two ops the kernel runs for about REF_SHARE of the longer one's
# time, and each op is scaled by the mean of the kernel blocks just before
# and after it.
REF_SHARE = 0.1
# Set-up probes per run, spread evenly over the run so that their median
# samples the machine's speed states as the ops do.  A probe is scaled by
# (REF_NOMINAL_S / kernel time) ** SETUP_SPEED_EXPONENT: a fresh
# interpreter's start-up follows the kernel's speed only in part (system
# calls, page faults and file reads do not).  On the 2-core Xeon above the
# exponent 0.5 halved the probe-to-probe spread; 1 cut it by a fifth only.
SETUP_PROBES = 9
SETUP_SPEED_EXPONENT = 0.5
SETUP_REF_RUNS = 5


def reference_kernel() -> float:
    acc = 0.0
    for i in range(REF_REPS):
        m = REF_MATRIX * (1.0 + 1e-3 * i)
        p = m @ m
        acc += float(np.max(np.abs(p - p.conj().T)))
        acc += sum({j: j * acc for j in range(8)}.values()) * 1e-12
    return acc


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def reference_block(op_s: float) -> float:
    """Median of enough kernel runs to take REF_SHARE of `op_s` (at least one)."""
    runs = max(1, round(REF_SHARE * op_s / REF_NOMINAL_S))
    return statistics.median(time_reference() for _ in range(runs))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in BENCH["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true",
                   help="internal: one set-up probe in a fresh interpreter")
    return p.parse_args(argv)


def git_commit() -> str:
    """HEAD of the checkout's git metadata, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


# ------------------------------------------------------------- set-up ---

def probe(workload_name: str, seed: int) -> None:
    """Child side of one set-up probe: imports, program-side inputs, one warm-up op."""
    import workloads
    w = workloads.WORKLOADS[workload_name]()
    t0 = time.perf_counter()
    inputs = w.inputs(seed)
    gen_s = time.perf_counter() - t0  # the benchmark's own work, not set-up
    w.ops(inputs, w.notes)[0].call()
    print(json.dumps({"gen_s": gen_s}), flush=True)


class SetupProbes:
    """SETUP_PROBES set-up probes, due at evenly spaced points of a run."""

    def __init__(self, workload_name: str, seed: int, seconds: float):
        self.workload_name, self.seed = workload_name, seed
        self.due = [(k + 0.5) * seconds / SETUP_PROBES for k in range(SETUP_PROBES)]
        self.probes: list[tuple[float, float]] = []  # (raw seconds, kernel seconds)

    def __call__(self, passed: float) -> bool:
        """Run the probes due by `passed` seconds of the run; say whether any ran."""
        ran = False
        while len(self.probes) < len(self.due) and passed >= self.due[len(self.probes)]:
            before = [time_reference() for _ in range(SETUP_REF_RUNS)]
            raw = setup_time(self.workload_name, self.seed)
            after = [time_reference() for _ in range(SETUP_REF_RUNS)]
            self.probes.append((raw, statistics.median(before + after)))
            ran = True
        return ran

    def scaled(self) -> list[float]:
        return [raw * (REF_NOMINAL_S / ref) ** SETUP_SPEED_EXPONENT for raw, ref in self.probes]


def setup_time(workload_name: str, seed: int) -> float:
    """Fresh interpreter to first timed op, less the benchmark's own input generation."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", workload_name, "--seed", str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if code != 0 or not line:
        raise RuntimeError(f"set-up probe exited with code {code}")
    return elapsed - json.loads(line)["gen_s"]


# -------------------------------------------------------- measurement ---

def run_ops(ops, seconds: float, tracer, between=None):
    """Whole rounds of `ops` until `seconds` have passed, with reference runs between.

    With a tracer, even rounds are traced and odd ones not, so the
    overhead of tracing is measured under the same drift.  After each op,
    `between(seconds passed so far)` may do other work and say so; its
    time is not counted as passed, and the next op is then called once
    untimed, to warm the caches up again, and gets a fresh reference
    block before it.  Returns the op samples as (raw seconds, traced,
    reference block before, reference block after) and the check outcome.
    """
    import oracle
    samples, errors = [], []
    failed, rounds = 0, 0
    # op times of the previous round: the block before an op is sized to it too
    last_dt = [0.0] * len(ops)
    before = reference_block(0.0)
    start, paused = time.perf_counter(), 0.0
    while True:
        traced = tracer is not None and rounds % 2 == 0
        for i, op in enumerate(ops):
            if traced:
                tracer.install()
            t0 = time.perf_counter()
            try:
                result = op.call()
            except Exception as exc:  # a crash is an op failure, not a benchmark crash
                result = exc
            dt = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
            last_dt[i] = dt
            after = reference_block(max(dt, last_dt[(i + 1) % len(ops)]))
            samples.append((dt, traced, before, after))
            before = after
            try:
                errs = ([f"raised {result!r}"] if isinstance(result, Exception)
                        else op.check(result))
            except Exception as exc:  # output too malformed for the checker to read
                errs = [f"check raised {exc!r}"]
            if errs:
                failed += 1
                if not (op.known_fault and len(errs) == 1 and errs[0].endswith(oracle.GATE_FAULT)):
                    errors.extend(errs)
            if between is not None:
                t_pause = time.perf_counter()
                if between(t_pause - start - paused):
                    ops[(i + 1) % len(ops)].call()
                    before = reference_block(last_dt[(i + 1) % len(ops)])
                    paused += time.perf_counter() - t_pause
        rounds += 1
        if (time.perf_counter() - start - paused >= seconds
                and (tracer is None or rounds >= 2)):
            return samples, failed, errors, rounds


def scaled_times(samples):
    """Each op's time at reference speed, by the mean of the blocks just before and after it."""
    return [(dt * 2.0 * REF_NOMINAL_S / (before + after), traced)
            for dt, traced, before, after in samples]


def per_layer_metrics(tracer, n_ops: int, scale: float) -> dict:
    """Calls, self time at reference speed and counts, per traced op."""
    import tracing
    metrics = {}
    for name in tracing.SPANS:
        metrics[f"{name}.calls"] = tracer.calls[name] / n_ops
        metrics[f"{name}.self_ms"] = 1e3 * scale * tracer.self_s[name] / n_ops
    for name in tracing.COUNTS:
        metrics[name] = tracer.counts[name] / n_ops
    return metrics


def latency_metrics(times: list[float]) -> dict:
    return {
        "op_p50_ms": 1e3 * statistics.median(times),
        "op_p90_ms": 1e3 * statistics.quantiles(times, n=10)[8],
        "ops_per_s": len(times) / sum(times),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hardylab" / "__init__.py").is_file():
        print(f"error: hardylab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe:
        probe(args.workload, args.seed)
        return 0

    import tracing
    import workloads

    w = workloads.WORKLOADS[args.workload]()
    ops = w.ops(w.inputs(args.seed), w.notes)
    for op in ops[:9]:  # warm-up: first calls, lazy imports, allocator
        op.call()
        time_reference()
    gc.collect()
    tracer = tracing.Tracer() if args.trace else None
    setups = None if args.trace else SetupProbes(args.workload, args.seed, args.seconds)
    samples, failed, errors, rounds = run_ops(ops, args.seconds, tracer, setups)
    scaled = scaled_times(samples)
    refs = [s[2] for s in samples] + [samples[-1][3]]
    ref_median = statistics.median(refs)

    untraced = [t for t, traced in scaled if not traced]
    raw = {}
    if args.trace:
        traced = [t for t, tr in scaled if tr]
        metrics = per_layer_metrics(tracer, len(traced), REF_NOMINAL_S / ref_median)
        metrics["trace.overhead_ms"] = 1e3 * (statistics.median(traced)
                                              - statistics.median(untraced))
    else:
        metrics = latency_metrics(untraced)
        metrics["setup_s"] = statistics.median(setups.scaled())
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        raw = latency_metrics([s[0] for s in samples])
        raw["setup_s"] = statistics.median(r for r, _ in setups.probes)
    units = {m["name"]: m["unit"] for m in BENCH["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} differ between "
              "BENCHMARK.json and the run", file=sys.stderr)
        return 2

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": git_commit(),
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), "rounds": rounds, "ops_per_round": len(ops),
        "attempted": len(samples), "failed": failed, "correct": not errors,
        "errors": errors[:20], "notes": dict(w.notes),
        "reference": {"nominal_ms": 1e3 * REF_NOMINAL_S, "measured_median_ms": 1e3 * ref_median,
                      "runs": len(refs)},
        "metrics": metrics, "raw": raw,
        "setup_probes_s": [] if setups is None else [
            {"raw": raw_s, "reference": ref_s, "scaled": scaled_s}
            for (raw_s, ref_s), scaled_s in zip(setups.probes, setups.scaled())],
    }
    if not args.trace:
        # the workload's own unit of work: trials, assignments, verdicts or commands
        record[f"{w.unit}_per_s"] = {"scaled": metrics["ops_per_s"] * w.per_op,
                                     "raw": raw["ops_per_s"] * w.per_op}
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")

    for name, value in metrics.items():
        extra = f"   raw {raw[name]:.4f}" if name in raw else ""
        print(f"{args.workload:13s} {name:42s} {value:12.4f} {units[name]}{extra}", file=sys.stderr)
    for e in errors[:5]:
        print(f"check failed: {e}", file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": len(samples), "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
