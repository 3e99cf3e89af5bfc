"""The benchmark's traced run wraps wsn3d functions by name; check that every
name it wraps exists and that restoring puts each original back.

A refactor that renames a wrapped function fails here instead of only in a
traced benchmark run.
"""

import importlib.util
from pathlib import Path

import wsn3d.cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_wraps_and_restore_undoes():
    layers, spans = load("layers"), load("spans")
    rec = spans.SpanRecorder()
    layers.install(rec, wsn3d.cli)
    patched = list(rec._patches)
    try:
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, f"{owner.__name__}.{attr} not wrapped"
    finally:
        rec.restore()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr} not restored"
