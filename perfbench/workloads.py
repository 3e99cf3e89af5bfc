"""The benchmark's workloads: seeded inputs and the CLI commands of one pass.

Inputs come from a pool of ``POOL`` instances. The workload seed picks the
instance (seed mod POOL), which seeds the generated deployment and the dropped
trace rows and is passed to the CLI as ``--seed``; every instance has reference
outputs in ``references/``. The program only ever sees the generated files.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import io
import json
import math
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

POOL = 16

# The bundled deployment holds 54 nodes in a 10 m cube; generated deployments
# scale the cube with the node count so the density, and with it the number of
# neighbors per node at a given radius, stays the same.
FIXTURE_NODES = 54
FIXTURE_SIDE_M = 10.0
DROP_FRACTION = 0.05
DEAD_IDS = "3,7,11"
FAILED = -1  # exit code recorded for a command that crashed or was skipped

WORKLOADS = ("intel54-pipeline", "uniform400-estimate", "traces150-io")  # why: see README.md

# Sizes per workload. "full" is what the benchmark measures; "smoke" is a
# reduced copy for the harness check. Keys left out keep the CLI defaults.
SIZES = {
    "full": {
        "intel54-pipeline": {},
        "uniform400-estimate": {"nodes": 400},
        "traces150-io": {"nodes": 150, "epochs": 1500, "rounds": 30},
    },
    "smoke": {
        "intel54-pipeline": {"epochs": 100, "rounds": 20},
        "uniform400-estimate": {"nodes": 60},
        "traces150-io": {"nodes": 30, "epochs": 100, "rounds": 5},
    },
}


@dataclass(frozen=True)
class Command:
    """One CLI call of a pass and the outputs it is checked by."""

    name: str
    argv: list[str]
    artifacts: tuple[str, ...]  # files under out/, or "stdout"
    prepare: Callable[[], None] | None = None  # untimed step run just before


@dataclass
class Result:
    name: str
    rc: int
    seconds: float
    stdout: str
    cal: float = math.nan  # calibration kernel seconds measured around the call


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_uniform_nodes(path: Path, n: int, instance: int) -> None:
    """n nodes drawn uniformly in a cube at the bundled fixture's density."""
    side = FIXTURE_SIDE_M * (n / FIXTURE_NODES) ** (1.0 / 3.0)
    pts = np.random.default_rng(instance).uniform(0.0, side, (n, 3))
    rows = [f"{k},{x:.3f},{y:.3f},{z:.3f}" for k, (x, y, z) in enumerate(pts, start=1)]
    path.write_text("node_id,x,y,z\n" + "\n".join(rows) + "\n", encoding="utf-8")


def write_gapped_trace(src: Path, dst: Path, instance: int) -> None:
    """Copy a reading CSV, dropping a seeded DROP_FRACTION of its data rows."""
    header, *rows = src.read_text(encoding="utf-8").splitlines()
    rng = np.random.default_rng((instance, 1))
    drop = set(rng.choice(len(rows), size=round(DROP_FRACTION * len(rows)), replace=False).tolist())
    kept = [r for k, r in enumerate(rows) if k not in drop]
    dst.write_text("\n".join([header, *kept]) + "\n", encoding="utf-8")


def prepare_inputs(workload: str, size: str, instance: int, root: Path, work: Path) -> None:
    """Write the run's fixed inputs (the deployment) into ``work``."""
    work.mkdir(parents=True, exist_ok=True)
    params = SIZES[size][workload]
    if workload == "intel54-pipeline":
        shutil.copyfile(root / "src" / "wsn3d" / "fixtures" / "intel54.csv", work / "nodes.csv")
    else:
        write_uniform_nodes(work / "nodes.csv", params["nodes"], instance)


def commands(workload: str, size: str, instance: int, work: Path) -> list[Command]:
    p = SIZES[size][workload]
    nodes, out = str(work / "nodes.csv"), str(work / "out")
    common = ["--nodes", nodes, "--seed", str(instance), "--out", out]
    epochs = ["--epochs", str(p["epochs"])] if "epochs" in p else []
    rounds = ["--rounds", str(p["rounds"])] if "rounds" in p else []
    if workload == "intel54-pipeline":
        argv = ["pipeline", *common, "--synthetic", "sun-shade", *epochs, *rounds]
        return [Command("pipeline", argv, ("clusters.json", "curve.csv", "nodes.csv"))]
    if workload == "uniform400-estimate":
        argv = ["estimate", *common, "--radius", "6"]
        return [Command("estimate", argv, ("clusters.json",))]
    trace = work / "traces.csv"
    gap = functools.partial(write_gapped_trace, work / "out" / "readings.csv", trace, instance)
    return [
        Command("synth", ["synth", *common, "--synthetic", "uniform", *epochs], ("readings.csv",)),
        Command("place", ["place", *common, "--readings", str(trace), *rounds],
                ("curve.csv", "nodes.csv"), prepare=gap),
        Command("predict", ["predict", *common, "--readings", str(trace), "--dead", DEAD_IDS],
                ("stdout",)),
    ]


def run_pass(cmds: list[Command], main, out: Path, calibrate=None) -> list[Result]:
    """Run each command through ``main(argv)``, timing only the call itself.

    ``out`` is emptied first, so no output of an earlier pass can pass a check.
    A command after a failed one is skipped and counted as failed. With
    ``calibrate`` (a function returning a list of kernel timings), each call
    is bracketed by calibrations and its result carries their median.
    """
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    results = []
    for cmd in cmds:
        if results and results[-1].rc != 0:
            results.append(Result(cmd.name, FAILED, math.nan, ""))
            continue
        if cmd.prepare is not None:
            try:
                cmd.prepare()
            except OSError:  # the previous command left no usable output
                traceback.print_exc()
                results.append(Result(cmd.name, FAILED, math.nan, ""))
                continue
        cal = calibrate() if calibrate else []
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            t0 = time.perf_counter()
            try:
                rc = main(cmd.argv)
            except Exception:  # a crash is a failed command, not a failed benchmark
                traceback.print_exc()
                rc = FAILED
            seconds = time.perf_counter() - t0
        cal += calibrate() if calibrate else []
        results.append(Result(cmd.name, rc, seconds, buf.getvalue(),
                              statistics.median(cal) if cal else math.nan))
    return results


def _number(text: str):
    try:
        return int(text)
    except ValueError:
        return float(text)


def read_artifact(out: Path, name: str, stdout: str):
    """An output in comparable form: JSON as parsed, CSV and tables as numbers."""
    if name == "stdout":
        rows = [line.split() for line in stdout.splitlines()]
        return [[_number(v) for v in r] for r in rows if r and r[0].isdigit()]
    text = (out / name).read_text(encoding="utf-8")
    if name.endswith(".json"):
        return json.loads(text)
    header, *rows = list(csv.reader(io.StringIO(text)))
    if name == "readings.csv":
        # 225k rows are summarised: row count exact, values by their sum of squares
        return {"header": header, "rows": len(rows),
                "sum_sq": math.fsum(float(r[2]) ** 2 for r in rows)}
    return {"header": header, "rows": [[_number(v) for v in r] for r in rows]}


def outputs(cmd: Command, result: Result, out: Path) -> dict:
    return {name: read_artifact(out, name, result.stdout) for name in cmd.artifacts}
