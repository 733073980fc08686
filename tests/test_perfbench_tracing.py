"""The benchmark's per-layer run wraps hardylab functions by name.

Renaming or deleting a traced function should fail here rather than
crash `python3 perfbench/run.py --trace 1`.
"""

import importlib
import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_restores_originals(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    originals = [(owner, attr, owner.__dict__[attr]) for _, owner, attr in tracing.TRACED]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(owner.__dict__[attr] is not fn for owner, attr, fn in originals)
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in originals)
