"""Reference outputs for every workload instance, and the check against them.

Integers and strings (cluster partitions and their order, selected node sets,
row counts) must match exactly. Floats must match within a relative tolerance
of RTOL, with an absolute floor of ATOL for values that are zero or nearly so,
so that a change that only rounds sums differently still passes.

The references were recorded from the program as first benchmarked:

    python3 perfbench/reference.py

rewrites ``perfbench/references/<workload>.json`` for every instance and size.
Record again only when the program's outputs are meant to change.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from pathlib import Path

import workloads as wl

RTOL = 1e-9
ATOL = 1e-12
REF_DIR = Path(__file__).resolve().parent / "references"


def load(workload: str) -> dict:
    return json.loads((REF_DIR / f"{workload}.json").read_text(encoding="utf-8"))


def mismatches(expected, got, where: str = "") -> list[str]:
    """Every place where ``got`` differs from ``expected``, as readable strings."""
    if isinstance(expected, float) or isinstance(got, float):
        ok = (isinstance(got, (int, float)) and not isinstance(got, bool)
              and math.isclose(expected, got, rel_tol=RTOL, abs_tol=ATOL))
        return [] if ok else [f"{where}: expected {expected!r}, got {got!r}"]
    if isinstance(expected, dict) and isinstance(got, dict):
        if expected.keys() != got.keys():
            return [f"{where}: keys {sorted(expected)} != {sorted(got)}"]
        return [m for k in expected for m in mismatches(expected[k], got[k], f"{where}/{k}")]
    if isinstance(expected, list) and isinstance(got, list):
        if len(expected) != len(got):
            return [f"{where}: length {len(expected)} != {len(got)}"]
        return [m for k, (e, g) in enumerate(zip(expected, got)) for m in mismatches(e, g, f"{where}[{k}]")]
    return [] if expected == got and type(expected) is type(got) else [f"{where}: expected {expected!r}, got {got!r}"]


def record(root: Path) -> None:
    sys.path.insert(0, str(root / "src"))
    from wsn3d.cli import main

    REF_DIR.mkdir(exist_ok=True)
    scratch = REF_DIR.parent / ".work"
    scratch.mkdir(exist_ok=True)
    for workload in wl.WORKLOADS:
        doc: dict = {}
        for size in wl.SIZES:
            for instance in range(wl.POOL):
                with tempfile.TemporaryDirectory(dir=scratch) as tmp:
                    work = Path(tmp)
                    wl.prepare_inputs(workload, size, instance, root, work)
                    cmds = wl.commands(workload, size, instance, work)
                    results = wl.run_pass(cmds, main, work / "out")
                    if any(r.rc != 0 for r in results):
                        raise SystemExit(f"{workload} {size} {instance}: exit codes {[r.rc for r in results]}")
                    doc.setdefault(size, {})[str(instance)] = {
                        c.name: wl.outputs(c, r, work / "out") for c, r in zip(cmds, results)
                    }
                print(workload, size, instance, flush=True)
        (REF_DIR / f"{workload}.json").write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")


if __name__ == "__main__":
    record(Path(__file__).resolve().parent.parent)
