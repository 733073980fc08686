"""Per-layer tracing by wrapping hardylab's public functions from outside.

Nothing under src/ changes: `Tracer.install` swaps each listed module
attribute (or class attribute) for a wrapper and `uninstall` puts the
originals back, so untraced rounds run the program exactly as shipped.
Intra-module calls go through module globals, which are the patched
attributes, so they are traced too.  Self time is a span's duration
minus the durations of the wrapped spans it directly contains.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

from hardylab import bellhv, cli, gedanken, hardy4, hvlogic, qcore

# (layer, owner, attribute): owner is the module or class holding the attribute.
TRACED = [
    ("qcore", qcore.Projector, "__post_init__"),
    ("qcore", qcore.StateVector, "__post_init__"),
    ("qcore", qcore, "born_probability"),
    ("qcore", qcore, "conditional_probability"),
    ("qcore", qcore, "tensor"),
    ("hardy4", hardy4, "build_model"),
    ("hardy4", hardy4, "compute_metrics"),
    ("hardy4", hardy4, "closed_form_metrics"),
    ("hardy4", hardy4, "cross_check"),
    ("hardy4", hardy4, "disturbance_contradiction"),
    ("hardy4", hardy4, "sweep"),
    ("hardy4", hardy4, "optimize_paradox"),
    ("bellhv", bellhv, "scan_discrepancy"),
    ("bellhv", bellhv, "compare"),
    ("bellhv", bellhv, "state_from_bloch"),
    ("bellhv", bellhv, "projector_from_axis"),
    ("bellhv", bellhv, "hv_response"),
    ("bellhv", bellhv.LambdaSet, "intersection"),
    ("bellhv", bellhv, "sample_direction"),
    ("bellhv", bellhv, "monte_carlo_check"),
    ("hvlogic", hvlogic, "check"),
    ("hvlogic", hvlogic, "replay"),
    ("hvlogic", hvlogic, "hardy_system"),
    ("hvlogic", hvlogic, "gedanken_system"),
    ("hvlogic", hvlogic, "derive_two_step"),
    ("gedanken", gedanken, "full_report"),
    ("cli", cli, "run"),
]


def span_name(layer: str, owner, attr: str) -> str:
    """`qcore.Projector` for a dataclass constructor, `bellhv.LambdaSet.intersection`
    for a method, `hardy4.build_model` for a module function."""
    if attr == "__post_init__":
        return f"{layer}.{owner.__name__}"
    if isinstance(owner, type):
        return f"{layer}.{owner.__name__}.{attr}"
    return f"{layer}.{attr}"


SPANS = [span_name(*t) for t in TRACED]
# Counts taken at a span boundary from the call's input or output.
COUNTS = ["hvlogic.check.assignments", "cli.run.stdout_bytes"]


class Tracer:
    """Accumulates calls and self time per span name while installed."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._child_s: list[float] = []  # time in wrapped children, per open span
        self._originals = [(owner, attr, owner.__dict__[attr]) for _, owner, attr in TRACED]

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._child_s.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - t0
                self.self_s[name] += span - self._child_s.pop()
                self.calls[name] += 1
                if self._child_s:
                    self._child_s[-1] += span
        return wrapper

    def install(self) -> None:
        for name, (owner, attr, fn) in zip(SPANS, self._originals):
            setattr(owner, attr, self._wrap(name, fn))
        check, run = hvlogic.check, cli.run

        def counted_check(system, *args, **kwargs):
            self.counts["hvlogic.check.assignments"] += 1 << len(system.variables)
            return check(system, *args, **kwargs)

        def counted_run(argv):
            # the benchmark captures stdout in a StringIO; the output is ASCII
            out = sys.stdout
            start = out.tell()
            try:
                return run(argv)
            finally:
                self.counts["cli.run.stdout_bytes"] += out.tell() - start
        hvlogic.check, cli.run = counted_check, counted_run

    def uninstall(self) -> None:
        for owner, attr, fn in self._originals:
            setattr(owner, attr, fn)
