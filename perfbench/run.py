"""Benchmark of the wsn3d CLI: three seeded workloads, timed end to end and per layer.

    python3 perfbench/run.py --workload intel54-pipeline --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout of the repository; the program is imported
from ``src/`` next to this directory, in process, through ``wsn3d.cli.main``.
With ``--trace 0`` the last stdout line holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run (see README.md). The full
record of a run (quartiles, sample counts, input digests, environment, spans)
goes to ``perfbench/results/<workload>-seed<seed>-trace<trace>.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import reference  # noqa: E402
import workloads as wl  # noqa: E402
from spans import SpanRecorder  # noqa: E402

MIN_PASSES = 3
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 120
CAL_REPEATS = 3
CAL_ARRAY = np.arange(64.0)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "OPENBLAS_CORETYPE")
SETUP_CODE = "import sys; sys.path.insert(0, sys.argv[1]); import wsn3d.cli; wsn3d.cli.build_parser()"
# One pass in a fresh interpreter; prints its results and peak resident set (KiB on Linux).
RSS_CODE = """
import dataclasses, json, resource, sys
from pathlib import Path
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads as wl
from wsn3d.cli import main
workload, size, instance, work = sys.argv[3], sys.argv[4], int(sys.argv[5]), Path(sys.argv[6])
results = wl.run_pass(wl.commands(workload, size, instance, work), main, work / "out")
print(json.dumps({"results": [dataclasses.asdict(r) for r in results],
                  "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
"""


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def git_commit() -> str | None:
    """The checkout's commit, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def environment() -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_lapack": {k: {f: v.get(f) for f in ("name", "version", "openblas configuration")}
                        for k, v in deps.items() if k in ("blas", "lapack")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": git_commit(),
    }


class Checker:
    """Checks each command's outputs against the reference and keeps the tally."""

    def __init__(self, expected: dict):
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}

    def pass_done(self, cmds, results, work: Path) -> None:
        for cmd, res in zip(cmds, results):
            self.attempted += 1
            problems = self._check(cmd, res, work)
            if problems:
                self.failed += 1
                self.problems.extend(f"{cmd.name}: {p}" for p in problems[:5])

    def _check(self, cmd, res, work: Path) -> list[str]:
        if res.rc != 0:
            return [f"exit code {res.rc}"]
        try:
            got = wl.outputs(cmd, res, work / "out")
            # the gapped trace made from synth's output must repeat exactly
            digest = wl.sha256(work / "traces.csv") if cmd.name == "synth" else None
        except (OSError, ValueError) as exc:
            return [f"unreadable output: {exc}"]
        problems = reference.mismatches(self.expected[cmd.name], got, cmd.name)
        if digest and self.digests.setdefault("traces.csv", digest) != digest:
            problems.append("gapped trace differs from the first pass")
        return problems


def setup_times() -> list[float]:
    """Cold starts of a fresh interpreter up to ``import wsn3d.cli`` plus ``build_parser()``."""
    argv = [sys.executable, "-c", SETUP_CODE, str(ROOT / "src")]
    subprocess.run(argv, check=True, timeout=CHILD_TIMEOUT_S)  # untimed: fills the bytecode caches
    times = []
    for _ in range(SETUP_REPEATS):
        # no timeout here: with one, subprocess polls for the exit in steps of
        # up to 50 ms, which would quantize the measurement
        t0 = time.perf_counter()
        subprocess.run(argv, check=True)
        times.append(time.perf_counter() - t0)
    return times


def peak_rss_mb(args, work: Path, checker: Checker) -> float:
    """Peak resident memory of a fresh interpreter that runs one checked pass."""
    instance = args.seed % wl.POOL
    wl.prepare_inputs(args.workload, args.size, instance, ROOT, work)
    argv = [sys.executable, "-c", RSS_CODE, str(HERE), str(ROOT / "src"),
            args.workload, args.size, str(instance), str(work)]
    proc = subprocess.run(argv, check=True, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    doc = json.loads(proc.stdout.splitlines()[-1])
    results = [wl.Result(**r) for r in doc["results"]]
    checker.pass_done(wl.commands(args.workload, args.size, instance, work), results, work)
    return doc["maxrss_kib"] / 1024.0


def calibration_kernel() -> float:
    """Seconds for a fixed mix of the operations the CLI's hot loops spend
    their time on: tuple keys, dict lookups and stores, numpy scalar reads."""
    t0 = time.perf_counter()
    table: dict[tuple[int, int], float] = {}
    for i in range(20_000):
        key = (i & 255, i & 7)
        table[key] = table.get(key, 0.0) + float(CAL_ARRAY[i & 63]) * 0.5
    return time.perf_counter() - t0


def calibrate() -> list[float]:
    return [calibration_kernel() for _ in range(CAL_REPEATS)]


def checked_pass(cmds, main, work: Path, checker: Checker, calibrate=None) -> dict[str, float]:
    """One checked pass; returns seconds per command, the pass wall time and,
    when calibrated, the pass wall time in calibration units. A pass with a
    failed command returns nothing to time."""
    gc.collect()
    results = wl.run_pass(cmds, main, work / "out", calibrate)
    checker.pass_done(cmds, results, work)
    if any(r.rc != 0 for r in results):
        return {}
    times = {f"cmd.{r.name}_s": r.seconds for r in results}
    times["wall_s"] = sum(r.seconds for r in results)
    if calibrate:
        times["wall_cal"] = sum(r.seconds / r.cal for r in results)
    return times


def add(samples: dict[str, list[float]], values: dict[str, float]) -> None:
    for name, v in values.items():
        samples.setdefault(name, []).append(v)


def run_untraced(args, cli, cmds, work, checker) -> tuple[dict, dict]:
    samples = {"setup_s": setup_times(), "peak_rss_mb": [peak_rss_mb(args, work / "rss", checker)]}
    checked_pass(cmds, cli.main, work, checker)  # warm-up
    deadline = time.perf_counter() + args.seconds
    passes = 0
    while passes < MIN_PASSES or time.perf_counter() < deadline:
        passes += 1
        add(samples, checked_pass(cmds, cli.main, work, checker, calibrate))
    return samples, {}


def run_traced(args, cli, cmds, work, checker) -> tuple[dict, dict]:
    """Untraced and traced passes in turn; layer metrics come from the traced ones."""
    rec = SpanRecorder()

    def traced_main(argv):
        with rec.span(layers.ROOT):
            return cli.main(argv)

    checked_pass(cmds, cli.main, work, checker)  # warm-up
    samples: dict[str, list[float]] = {}
    coverage = []
    deadline = time.perf_counter() + args.seconds
    while rec.pass_id < MIN_PASSES or time.perf_counter() < deadline:
        add(samples, checked_pass(cmds, cli.main, work, checker))
        rec.pass_id += 1
        layers.install(rec, cli)
        try:
            traced = checked_pass(cmds, traced_main, work, checker)
        finally:
            rec.restore()
        if traced:
            add(samples, {"traced_wall_s": traced["wall_s"], **layers.pass_metrics(rec, rec.pass_id)})
            coverage.append(layers.self_time_coverage(rec, rec.pass_id, traced["wall_s"]))
    if samples.get("wall_s") and samples.get("traced_wall_s"):
        samples["trace.overhead_s"] = [statistics.median(samples["traced_wall_s"])
                                       - statistics.median(samples["wall_s"])]
    return samples, {"self_time_coverage": coverage, **rec.dump()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(wl.SIZES), default="full",
                        help="'smoke' runs a reduced copy of each workload for the harness check")
    args = parser.parse_args()

    if not (ROOT / "src" / "wsn3d" / "cli.py").is_file():
        print(f"perfbench: no wsn3d source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from wsn3d import cli

    instance = args.seed % wl.POOL
    load_before = os.getloadavg()
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        wl.prepare_inputs(args.workload, args.size, instance, ROOT, work)
        digests = {"nodes.csv": wl.sha256(work / "nodes.csv")}
        cmds = wl.commands(args.workload, args.size, instance, work)
        checker = Checker(reference.load(args.workload)[args.size][str(instance)])
        run = run_traced if args.trace else run_untraced
        samples, trace_record = run(args, cli, cmds, work, checker)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    digests.update(checker.digests)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    stats = {m["name"]: {**summary(samples.get(m["name"]) or [0.0]), "unit": m["unit"]}
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    why = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)
    record = {
        "workload": args.workload, "why": why, "size": args.size,
        "seed": args.seed, "instance": instance, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(), "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
        "inputs_sha256": digests, "attempted": checker.attempted, "failed": checker.failed,
        "error_rate": checker.failed / checker.attempted, "problems": checker.problems[:50],
        "metrics": stats, "samples": samples, "trace_record": trace_record,
    }
    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record) + "\n", encoding="utf-8")

    for p in checker.problems[:10]:
        print(f"mismatch: {p}")
    print("inputs:", " ".join(f"{k}={v[:16]}" for k, v in digests.items()))
    for name, s in stats.items():
        print(f"{name}: median {s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}] n={s['n']} {s['unit']}")
    if "wall_s" in samples:
        s = summary(samples["wall_s"])
        print(f"wall_s (uncalibrated): median {s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}] n={s['n']} s")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": s["median"], "unit": s["unit"]} for name, s in stats.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
