"""The benchmark's traced run wraps wsn3d functions by name; check that every
name it wraps exists, that a CLI run reaches the synthetic draw, placement
and prediction wrappers, and that restoring puts each original back.

A refactor that renames a wrapped function, or calls one past the name the
trace wraps, fails here instead of reading 0 in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

import wsn3d.cli
from wsn3d import data_io

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


def test_pipeline_reaches_every_placement_span(tmp_path):
    layers, spans = load("layers"), load("spans")
    rec = spans.SpanRecorder()
    layers.install(rec, wsn3d.cli)
    try:
        argv = ["pipeline", "--nodes", str(data_io.bundled_nodes_path()), "--synthetic", "sun-shade",
                "--epochs", "40", "--rounds", "5", "--dead", "3,7", "--out", str(tmp_path)]
        assert wsn3d.cli.main(argv) == 0
    finally:
        rec.restore()
    totals = rec.layer_totals(rec.pass_id)
    for name in ("placement.moments_build", "placement.window_costs", "placement.placement_step",
                 "placement.run_placement", "estimation.predict", "data_io.generate_synthetic"):
        assert totals.get(name, {}).get("calls", 0) >= 1, f"{name} recorded no call"
    # one predict_dead and one prediction_accuracy call, whatever the number of dead nodes
    assert totals["estimation.predict"]["calls"] == 2
