"""Harness check: every workload once at reduced size, untraced and traced.

Confirms that each metric named in BENCHMARK.json is printed with its unit,
that no command fails its reference check, and that the traced layers account
for the traced wall time. It never looks at how long anything took.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(HERE))

from reference import mismatches  # noqa: E402
from spans import SpanRecorder  # noqa: E402


def bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
            "--seed", "3", "--seconds", "0", "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(argv, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_emitted_and_outputs_correct(workload, trace):
    proc = bench(HERE.parent, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if trace:
        record = json.loads((HERE / "results" / f"{workload}-seed3-trace1.json").read_text())
        assert all(abs(c - 1.0) <= 0.1 for c in record["trace_record"]["self_time_coverage"])
    else:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", ".work"))
    proc = bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_reference_tolerance():
    assert mismatches({"a": [1, 2.0]}, {"a": [1, 2.0 * (1 + 1e-10)]}) == []
    assert mismatches({"a": [1, 2.0]}, {"a": [1, 2.0 * (1 + 1e-8)]})
    assert mismatches([[3, 4]], [[3, 5]])  # partitions and node sets are exact
    assert mismatches({"a": 1}, {"b": 1})


def test_self_time_subtracts_children():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 6.0, 10.0])
    rec = SpanRecorder(clock=lambda: next(ticks))
    with rec.span("outer"):
        with rec.span("inner"):
            pass
        with rec.span("inner"):
            pass
    totals = rec.layer_totals(0)
    assert totals["outer"] == {"s": 10.0, "self_s": 6.0, "calls": 1}
    assert totals["inner"] == {"s": 4.0, "self_s": 4.0, "calls": 2}
