"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see every line.
"""

import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from wsn3d import data_io, reference
from wsn3d.cli import main as cli_main
from wsn3d.clustering import Deployment, capture_clusters, form_clusters
from wsn3d.estimation import (
    cluster_accuracy,
    information_accuracy,
    predict_dead,
    prediction_accuracy,
)
from wsn3d.geometry import (
    CorrelationModel,
    correlation,
    correlation_radius,
    dodeca_circumradius,
    dodeca_vertices,
    dodeca_volume,
)
from wsn3d.placement import run_placement, select_nodes

GOLDEN_DIR = Path(__file__).parent / "golden"


@contextmanager
def criterion(tag: str, title: str):
    try:
        yield
    except BaseException:
        print(f"[{tag}] {title}: FAIL")
        raise
    print(f"[{tag}] {title}: PASS")


def test_c1_reported_cluster_table_reproduction(fixture_path, deployment, tmp_path, capsys):
    """The 6 m CLI run must reproduce the reported 7-cluster table exactly.

    The reported member sets are radius-6 consistent (each head's ball over the
    then-remaining nodes equals its member set; see
    TestCaptureClusters.test_reported_partition_is_radius_consistent), but the
    max-neighbor election deterministically elects node 34 first, which has 41
    in-range neighbors against the reported maximum cluster of 18. The
    diagnostic below lists each election with its candidate set so any
    tie-driven deviation would be visible; the divergence here is not a tie.

    Nor is it the counting radius. The reported first head, node 14, has 18
    neighbors within 6 m and ranks 34th of 54 by that count. Replaying the
    reported head order with a 6 m capture, where each election picks the
    node with the most (or the fewest) remaining neighbors within a separate
    counting radius, fails at every counting radius from 0.5 m to 12 m in
    0.05 m steps, whether the reported head must win outright or by this
    election's tie-breaks. Only below about 0.7 m (most-neighbors) or 1.0 m
    (fewest) is it even among the tied candidates, where nearly every node
    ties. Whether the election rule or the bundled table is at fault cannot
    be settled from the repository: the table's provenance waits on the
    paper's full text, and wsn3d.reference bundles it as comparison
    metadata, not as a regeneration target.
    """
    with criterion("C1", "reported cluster table reproduction at radius 6"):
        start = time.perf_counter()
        code = cli_main(
            ["cluster", "--nodes", str(fixture_path), "--radius", "6", "--out", str(tmp_path)]
        )
        elapsed = time.perf_counter() - start
        capsys.readouterr()
        assert code == 0
        assert elapsed < 1.0
        doc = json.loads((tmp_path / "clusters.json").read_text())
        got = {c["head"]: frozenset(c["members"]) for c in doc["clusters"]}
        want = dict(reference.REPORTED_CLUSTERS)
        if got != want:
            trace = []
            form_clusters(deployment, 6.0, trace=trace)
            lines = ["election trace (head <- candidates, residual ties):"]
            for rec in trace:
                lines.append(
                    f"  head {rec.head}: candidates {rec.candidates}, "
                    f"ties after distance rule {rec.dmax_ties}"
                    + (" [singleton sweep]" if rec.singleton_sweep else "")
                )
            lines.append(f"elected heads:  {sorted(got)}")
            lines.append(f"reported heads: {sorted(want)}")
            lines.append(
                "reported member sets ARE consistent with a greedy 6 m capture "
                f"in head order {reference.REPORTED_HEAD_ORDER} (verified by "
                "capture_clusters), but no tie in the max-neighbor election "
                "permits that head order: the first election is won outright "
                "by a node with more in-range neighbors than any reported "
                "cluster contains."
            )
            pytest.fail("\n".join(lines))


def test_c2_geometry_oracles():
    with criterion("C2", "dodecahedron volume vs Monte-Carlo hull oracle"):
        start = time.perf_counter()
        from scipy.spatial import ConvexHull

        verts = dodeca_vertices(edge=1.0)
        hull = ConvexHull(verts)
        normals, offsets = hull.equations[:, :3], hull.equations[:, 3]
        lo, hi = verts.min(axis=0), verts.max(axis=0)
        rng = np.random.default_rng(2024)
        n = 1_000_000
        pts = rng.uniform(lo, hi, size=(n, 3))
        inside = np.all(pts @ normals.T + offsets <= 1e-12, axis=1)
        box_volume = float(np.prod(hi - lo))
        mc_volume = box_volume * inside.mean()
        assert abs(dodeca_volume(1.0) - mc_volume) / mc_volume < 0.01
        const = math.sqrt(3.0) / 4.0 * (1.0 + math.sqrt(5.0))
        assert abs(dodeca_circumradius(1.0) - const) < 1e-9
        assert time.perf_counter() - start < 30.0


def test_c3_correlation_round_trip():
    with criterion("C3", "correlation/radius round trip, 1000 random tuples"):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            model = CorrelationModel(
                theta=float(rng.uniform(1.0, 100.0)),
                alpha=float(rng.choice([0.5, 1.0, 2.0])),
            )
            tau = float(rng.uniform(0.01, 0.99))
            assert abs(correlation(model, correlation_radius(model, tau)) - tau) < 1e-12


def test_c4_accuracy_algebraic_identities():
    with criterion("C4", "accuracy identities (perfect correlation, m=1 closed form)"):
        for m in range(1, 51):
            acc = information_accuracy(m, np.ones(m), np.ones((m, m)), 1.0, np.zeros(m))
            assert acc == 1.0
        rng = np.random.default_rng(4)
        for _ in range(100):
            rho = float(rng.uniform(0.0, 1.0))
            sigma_s2 = float(rng.uniform(0.1, 5.0))
            sigma_n2 = float(rng.uniform(0.0, 2.0))
            got = information_accuracy(1, [rho], [[1.0]], sigma_s2, [sigma_n2])
            assert abs(got - (2.0 * rho - 1.0 - sigma_n2 / sigma_s2)) < 1e-14


def test_c5_cluster_accuracy_matches_simulated_field(deployment):
    """Each cluster's accuracy equals 1 - E[(S - mean)**2] / sigma_s2, where S
    is the field at the event and mean the plain mean of the cluster's noisy
    readings, estimated over a drawn field within 5 standard errors."""
    z_bound, draws, sigma_n2 = 5.0, 40_000, 0.05
    with criterion("C5", "cluster accuracy is 1 - MSE of the fused mean over a simulated field"):
        model = CorrelationModel(theta=30.0, alpha=1.0)
        sigma_s2 = 1.0
        clusters = form_clusters(deployment, 6.0)
        event_id = int(deployment.node_ids.max()) + 1
        for position in (deployment.centroid(), (2.0, 2.0, 2.0)):
            # the event is one more node of the field, so S is drawn with the readings
            dep = Deployment(np.append(deployment.node_ids, event_id), np.vstack([deployment.positions, position]))
            field = data_io.generate_synthetic(dep, model, draws, seed=5)
            rng = np.random.default_rng(5)
            readings = field.values + rng.normal(0.0, math.sqrt(sigma_n2), field.values.shape)
            s = field.values[dep.index([event_id])[0]]
            reports = cluster_accuracy(deployment, clusters, model, position, sigma_s2, sigma_n2)
            for cluster, report in zip(clusters, reports):
                rows = dep.index([cluster.head, *cluster.members])
                err = (s - readings[rows].mean(axis=0)) ** 2 / sigma_s2
                z = (1.0 - err.mean() - report.accuracy) / (err.std(ddof=1) / math.sqrt(draws))
                assert abs(z) <= z_bound, (position, cluster.head, report.accuracy, z)


def test_c6_dead_node_predictor():
    with criterion("C6", "dead-node predictor vs brute-force oracles"):
        rng = np.random.default_rng(6)
        for _ in range(100):
            m = int(rng.integers(1, 20))
            o = m + int(rng.integers(0, 10))
            obs = rng.uniform(-50.0, 50.0, m)
            assert abs(predict_dead(obs, o) - math.fsum(obs) / o) < 1e-12
        assert predict_dead([10.0, 10.0], 4) == 5.0
        for _ in range(100):
            o = int(rng.integers(1, 15))
            rho_dead = rng.uniform(0.0, 1.0, o)
            a = rng.uniform(0.0, 1.0, (o, o))
            rho_pair = (a + a.T) / 2.0
            np.fill_diagonal(rho_pair, 1.0)
            got = prediction_accuracy(o, rho_dead, rho_pair)
            double_sum = math.fsum(
                rho_pair[i, j] for i in range(o) for j in range(o) if j != i
            )
            want = 2.0 / o * math.fsum(rho_dead) - double_sum / o**2
            assert abs(got - want) < 1e-12


def test_c7_placement_properties(deployment):
    with criterion("C7", "placement saturation and sun-group selection"):
        start = time.perf_counter()
        matrix = data_io.sun_shade_readings(deployment, seed=42)
        clusters = form_clusters(deployment, 6.0)
        threshold = 5.0
        record = []
        state, costs = run_placement(matrix, clusters, rounds=300, record=record)
        # (a) per-node best cost never decreases
        for prev, cur in zip(record, record[1:]):
            for a, b in zip(prev.best_cost, cur.best_cost):
                assert b >= a
        # (b) mean cost saturates over the final 30 rounds
        tail = np.asarray(state.cost_history[-30:])
        assert (tail.max() - tail.min()) / abs(tail.mean()) < 0.01
        # (c) selection shrinks monotonically as the threshold sweeps up
        prev_sel = set(costs)
        for t in np.linspace(0.0, max(costs.values()) + 1.0, 40):
            sel = select_nodes(costs, float(t))
            assert sel <= prev_sel
            prev_sel = sel
        # (d) the default threshold selects exactly the constructed sun group
        sun, _ = data_io.sun_shade_groups(deployment)
        assert select_nodes(costs, threshold) == sun
        assert time.perf_counter() - start < 10.0


def test_c8_synthetic_field_fidelity(deployment):
    with criterion("C8", "synthetic field correlation fidelity and reproducibility"):
        model = CorrelationModel(theta=30.0, alpha=1.0)
        matrix = data_io.generate_synthetic(deployment, model, 800, 42)
        pos = deployment.positions
        diff = pos[:, None, :] - pos[None, :, :]
        want = np.exp(-np.sqrt((diff**2).sum(axis=2)) / 30.0)
        emp = np.corrcoef(matrix.values)
        err = np.abs(emp - want)
        np.fill_diagonal(err, 0.0)
        assert err.max() <= 0.05
        again = data_io.generate_synthetic(deployment, model, 800, 42)
        assert np.array_equal(matrix.values, again.values)


def c9_commands(nodes: str) -> dict[str, list[str]]:
    """C9's argv of each command, without --out, on the node file ``nodes``."""
    return {
        "cluster": ["cluster", "--nodes", nodes, "--radius", "6"],
        "estimate": ["estimate", "--nodes", nodes],
        "place": [
            "place", "--nodes", nodes, "--synthetic", "sun-shade",
            "--rounds", "300", "--threshold", "5", "--seed", "42",
        ],
        "synth": ["synth", "--nodes", nodes, "--synthetic", "uniform", "--epochs", "60"],
        "predict": [
            "predict", "--nodes", nodes, "--synthetic", "uniform",
            "--epochs", "60", "--dead", "16",
        ],
        "pipeline": [
            "pipeline", "--nodes", nodes, "--synthetic", "sun-shade",
            "--rounds", "15", "--epochs", "60",
        ],
    }


C9_ARTIFACTS = {
    "cluster": ["clusters.json"],
    "estimate": ["clusters.json"],
    "place": ["curve.csv", "nodes.csv"],
    "synth": ["readings.csv"],
    "predict": [],
    "pipeline": ["clusters.json", "curve.csv", "nodes.csv"],
}


def test_c9_cli_determinism_and_goldens(fixture_path, tmp_path, capsys, assert_matches_golden_csv):
    """Every command's artifacts are byte-identical across reruns, and the
    radius-6 clusters.json is byte-identical to its golden file.

    The placement artifacts depend on the synthetic field draw, whose last
    bits vary with the BLAS kernel and numpy's CPU dispatch, so curve.csv and
    nodes.csv are compared with their goldens as parsed CSV: header, row
    count, round, node_id and selected exactly, mean_cost and cost within
    GOLDEN_RTOL (see conftest.py).
    """
    with criterion("C9", "byte-identical CLI reruns and repository golden files"):
        for name, argv in c9_commands(str(fixture_path)).items():
            out_a, out_b = tmp_path / f"{name}_a", tmp_path / f"{name}_b"
            assert cli_main(argv + ["--out", str(out_a)]) == 0
            stdout_a = capsys.readouterr().out
            assert cli_main(argv + ["--out", str(out_b)]) == 0
            stdout_b = capsys.readouterr().out
            for fname in C9_ARTIFACTS[name]:
                assert (out_a / fname).read_bytes() == (out_b / fname).read_bytes()
            if not C9_ARTIFACTS[name]:
                assert stdout_a == stdout_b
        assert (tmp_path / "cluster_a" / "clusters.json").read_bytes() == (
            GOLDEN_DIR / "clusters_r6.json"
        ).read_bytes()
        assert_matches_golden_csv(tmp_path / "place_a" / "curve.csv", {"mean_cost"})
        assert_matches_golden_csv(tmp_path / "place_a" / "nodes.csv", {"cost"})


def test_node_file_order_changes_no_output(fixture_path, tmp_path, monkeypatch, capsys):
    """The C9 argvs, and pipeline with dead nodes, give the same stdout and
    artifacts, byte for byte, on a row-shuffled copy of the bundled node file:
    every stage reads the nodes in id order, whatever the file's order."""
    header, *rows = fixture_path.read_text(encoding="utf-8").splitlines(keepends=True)
    order = np.random.default_rng(0).permutation(len(rows))
    assert (order != np.arange(len(rows))).any()
    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_text(header + "".join(rows[k] for k in order), encoding="utf-8")
    outputs = {}
    for nodes in (fixture_path, shuffled):
        commands = c9_commands(str(nodes))
        commands["pipeline_dead"] = commands["pipeline"] + ["--dead", "3,7,11"]
        run_dir = tmp_path / nodes.stem
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)  # relative --out, so stdout names the same paths
        for name, argv in commands.items():
            assert cli_main(argv + ["--out", name]) == 0
            outputs.setdefault(name, []).append((
                capsys.readouterr().out,
                {path.name: path.read_bytes() for path in sorted((run_dir / name).glob("*"))},
            ))
    for name, (bundled, reshuffled) in outputs.items():
        assert reshuffled == bundled, name


def test_reported_table_capture_consistency(deployment):
    """Companion check: the reported table is a valid greedy 6 m capture."""
    cs = capture_clusters(deployment, reference.REPORTED_HEAD_ORDER, 6.0)
    got = {c.head: frozenset(c.members) for c in cs}
    assert got == dict(reference.REPORTED_CLUSTERS)
    sizes = [len(c.members) for c in cs]
    assert sizes == sorted(sizes, reverse=True)
