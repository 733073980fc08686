"""Run the benchmark as sets of runs and say whether the sets agree.

    python3 perfbench/compare.py                     # two sets of 10 runs, every workload
    python3 perfbench/compare.py --sets 1 --runs 5 --workload certify_enum

Each run is the command in BENCHMARK.json, run for its run_seconds, with
its own seed: set 1 uses seeds 1, 2, ... and set 2 seeds 1001, 1002, ...
For every workload and end-to-end metric it prints each set's median and
quartiles and the spread (q3 - q1) as a share of the median.  A set is
steady when every spread, setup_s's too, is within the metric's bound;
two sets agree when their medians differ, in either direction, by no
more than the bound, and the share of failed operations is the same.
Every run must report correct output.
Exit code 0 when all of that holds.  The collected figures go to
perfbench/results/compare-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"


def run_once(bench: dict, workload: str, seed: int) -> dict:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((RESULTS / f"{workload}_seed{seed}_trace0.json").read_text())
    result.update(wall_s=wall, raw=record["raw"], reference=record["reference"])
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def moved_by(first: float, second: float) -> float:
    return abs(second - first) / first


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, choices=(1, 2), default=2)
    p.add_argument("--workload", action="append",
                   choices=[w["name"] for w in bench["workloads"]])
    args = p.parse_args(argv)
    names = args.workload or [w["name"] for w in bench["workloads"]]

    sets = []
    for k in range(args.sets):
        runs = {}
        for name in names:
            runs[name] = []
            for i in range(args.runs):
                seed = 1000 * k + i + 1
                r = run_once(bench, name, seed)
                runs[name].append(r)
                print(f"set {k + 1} {name} seed {seed}: attempted {r['attempted']} "
                      f"failed {r['failed']} correct {r['correct']} wall {r['wall_s']:.1f} s",
                      file=sys.stderr, flush=True)
        sets.append(runs)

    ok = True
    print(f"{'workload':13s} {'metric':12s} {'bound':>6s}  "
          + "  ".join(f"{'set ' + str(k + 1) + ' median [q1, q3] spread':>44s}"
                      for k in range(args.sets)) + "  verdict")
    for name in names:
        shares = [{Fraction(r["failed"], r["attempted"]) for r in runs[name]} for runs in sets]
        correct = all(r["correct"] for runs in sets for r in runs[name])
        same_share = len(set().union(*shares)) == 1
        ok &= correct and same_share
        for metric in bench["end_to_end"]:
            stats = [spread([r["metrics"][metric["name"]]["value"] for r in runs[name]])
                     for runs in sets]
            verdicts = []
            if any(s[3] > metric["bound"] for s in stats):
                verdicts.append("spread over bound")
            if len(stats) == 2 and moved_by(stats[0][0], stats[1][0]) > metric["bound"]:
                verdicts.append("median moved over bound")
            ok &= not verdicts
            cells = "  ".join(f"{m:14.5g} [{q1:.5g}, {q3:.5g}] {s:6.1%}" for m, q1, q3, s in stats)
            print(f"{name:13s} {metric['name']:12s} {metric['bound']:6.2f}  {cells}  "
                  f"{'; '.join(verdicts) or 'ok'}")
        print(f"{name:13s} failed share per set: "
              f"{[sorted(str(f) for f in s) for s in shares]}  correct: {correct}")

    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"compare-{int(time.time())}.json"
    out.write_text(json.dumps({"sets": sets, "agree": ok}, indent=1) + "\n")
    print(f"{'agree' if ok else 'DISAGREE'}; figures in {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
