import argparse
import csv
import inspect
import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import wsn3d
from wsn3d import data_io
from wsn3d.cli import _SUBCOMMANDS, _write_outputs, build_parser, main
from wsn3d.clustering import Cluster, ClusterSet
from wsn3d.geometry import CorrelationModel, correlation, pairwise_distances
from wsn3d.placement import run_placement

GOLDEN_DIR = Path(__file__).parent / "golden"


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def subprocess_env():
    """The environment of a child interpreter that imports this checkout's wsn3d."""
    env = dict(os.environ)
    src = str(Path(wsn3d.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_cli_import_leaves_scipy_out():
    # scipy is a test-only dependency; importing the CLI must not load it
    code = "import sys, wsn3d.cli; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=subprocess_env(), timeout=120).returncode == 0


def subcommands(parser=None):
    """The argparse parser of each subcommand in ``parser``, by name; by
    default in the parser of every subcommand."""
    parser = build_parser() if parser is None else parser
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return dict(sub.choices)


@pytest.fixture()
def nodes_arg(fixture_path):
    return str(fixture_path)


@pytest.fixture()
def single_node_csv(tmp_path):
    p = tmp_path / "single.csv"
    p.write_text("node_id,x,y,z\n1,0.0,0.0,0.0\n", encoding="utf-8")
    return str(p)


class TestCluster:
    def test_fixture_run(self, nodes_arg, tmp_path, capsys):
        code, out, _ = run(
            ["cluster", "--nodes", nodes_arg, "--radius", "6", "--out", str(tmp_path)], capsys
        )
        assert code == 0
        doc = json.loads((tmp_path / "clusters.json").read_text())
        assert len(doc["clusters"]) == 7
        assert doc["radius"] == 6.0
        assert "7 clusters" in out

    def test_single_node_singleton(self, single_node_csv, tmp_path, capsys):
        code, out, _ = run(["cluster", "--nodes", single_node_csv, "--out", str(tmp_path)], capsys)
        assert code == 0
        doc = json.loads((tmp_path / "clusters.json").read_text())
        assert doc["clusters"] == [{"order": 1, "head": 1, "members": []}]

    def test_derived_radius(self, nodes_arg, tmp_path, capsys):
        code, _, _ = run(
            [
                "cluster", "--nodes", nodes_arg, "--derive-radius",
                "--tau-n", "0.85", "--theta", "30", "--out", str(tmp_path),
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads((tmp_path / "clusters.json").read_text())
        assert doc["radius"] == pytest.approx(4.875567884933247, abs=1e-9)
        # the partition at the derived radius is frozen as a golden file
        golden = GOLDEN_DIR / "clusters_derived.json"
        assert (tmp_path / "clusters.json").read_bytes() == golden.read_bytes()

    def test_event_range_golden(self, nodes_arg, tmp_path, capsys):
        # the 13 nodes within the tau_e = 0.85 range of (2, 2, 2), clustered at
        # the derived radius, are frozen as a golden file
        argv = ["cluster", "--nodes", nodes_arg, "--event", "2,2,2", "--derive-radius", "--out", str(tmp_path)]
        code, out, _ = run(argv, capsys)
        assert code == 0
        assert "    1    48    13  " in out
        golden = GOLDEN_DIR / "clusters_event.json"
        assert (tmp_path / "clusters.json").read_bytes() == golden.read_bytes()

    def test_rerun_is_byte_identical(self, nodes_arg, tmp_path, capsys):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        run(["cluster", "--nodes", nodes_arg, "--out", str(a_dir)], capsys)
        run(["cluster", "--nodes", nodes_arg, "--out", str(b_dir)], capsys)
        assert (a_dir / "clusters.json").read_bytes() == (b_dir / "clusters.json").read_bytes()


class TestEstimate:
    def test_accuracies_in_unit_interval(self, nodes_arg, tmp_path, capsys):
        code, out, _ = run(["estimate", "--nodes", nodes_arg, "--out", str(tmp_path)], capsys)
        assert code == 0
        doc = json.loads((tmp_path / "clusters.json").read_text())
        accs = [c["accuracy"] for c in doc["clusters"]]
        assert len(accs) == 7
        assert all(0.0 < a < 1.0 for a in accs)
        # singleton clusters are not the most accurate
        best_head = max(doc["clusters"], key=lambda c: c["accuracy"])
        assert best_head["members"]
        assert "centroid" in out

    def test_more_noise_lowers_every_accuracy(self, nodes_arg, tmp_path, capsys):
        run(
            ["estimate", "--nodes", nodes_arg, "--sigma-n2", "0.05", "--out", str(tmp_path / "a")],
            capsys,
        )
        run(
            ["estimate", "--nodes", nodes_arg, "--sigma-n2", "0.5", "--out", str(tmp_path / "b")],
            capsys,
        )
        a = json.loads((tmp_path / "a" / "clusters.json").read_text())
        b = json.loads((tmp_path / "b" / "clusters.json").read_text())
        for ca, cb in zip(a["clusters"], b["clusters"]):
            assert cb["accuracy"] < ca["accuracy"]

    def test_singleton_at_event_zero_noise(self, single_node_csv, tmp_path, capsys):
        code, out, _ = run(
            [
                "estimate", "--nodes", single_node_csv, "--event", "0,0,0",
                "--sigma-n2", "0", "--out", str(tmp_path),
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads((tmp_path / "clusters.json").read_text())
        assert doc["clusters"][0]["accuracy"] == 1.0
        assert "1.0000" in out


class TestPredict:
    def test_no_dead_nodes(self, nodes_arg, tmp_path, capsys):
        code, out, _ = run(
            ["predict", "--nodes", nodes_arg, "--synthetic", "uniform", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        assert "nothing to predict" in out

    def test_identical_readings_plain_mean(self, tmp_path, capsys):
        nodes = tmp_path / "nodes.csv"
        nodes.write_text(
            "node_id,x,y,z\n1,0,0,0\n2,1,0,0\n3,2,0,0\n4,3,0,0\n", encoding="utf-8"
        )
        readings = tmp_path / "readings.csv"
        rows = ["epoch,node_id,value"]
        for e in range(4):
            for n in (1, 2, 3):  # node 4 is dead, others all read 10.0
                rows.append(f"{e},{n},10.0")
        readings.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code, out, _ = run(
            [
                "predict", "--nodes", str(nodes), "--readings", str(readings),
                "--dead", "4", "--predict-unbiased", "--out", str(tmp_path),
            ],
            capsys,
        )
        assert code == 0
        assert "10.0000" in out

    def test_literal_shrinking_average(self, tmp_path, capsys):
        nodes = tmp_path / "nodes.csv"
        nodes.write_text(
            "node_id,x,y,z\n1,0,0,0\n2,1,0,0\n3,2,0,0\n4,3,0,0\n", encoding="utf-8"
        )
        readings = tmp_path / "readings.csv"
        rows = ["epoch,node_id,value"]
        for e in range(4):
            for n in (1, 2):
                rows.append(f"{e},{n},10.0")
        readings.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code, out, _ = run(
            [
                "predict", "--nodes", str(nodes), "--readings", str(readings),
                "--dead", "3,4", "--eq13-literal", "--out", str(tmp_path),
            ],
            capsys,
        )
        assert code == 0
        assert "5.0000" in out

    def test_literal_qualities_divide_by_the_live_count(self, tmp_path, capsys):
        # nodes 1-4 on a line 1 m apart, 3 and 4 dead: O = 4, D = O - 2 = 2
        nodes = tmp_path / "nodes.csv"
        nodes.write_text("node_id,x,y,z\n1,0,0,0\n2,1,0,0\n3,2,0,0\n4,3,0,0\n", encoding="utf-8")
        readings = tmp_path / "readings.csv"
        readings.write_text("epoch,node_id,value\n0,1,10.0\n0,2,10.0\n", encoding="utf-8")
        code, out, _ = run(
            [
                "predict", "--nodes", str(nodes), "--readings", str(readings),
                "--dead", "3,4", "--eq13-literal", "--out", str(tmp_path),
            ],
            capsys,
        )
        assert code == 0
        rho = [[math.exp(-abs(i - j) / 30.0) for j in range(4)] for i in range(4)]  # theta 30, alpha 1
        off_sum = sum(rho[i][j] for i in range(4) for j in range(4) if j != i)
        rows = [line.split() for line in out.splitlines()[1:]]
        assert [r[0] for r in rows] == ["3", "4"]
        for (_, predicted, quality), x in zip(rows, (2, 3)):
            assert predicted == "5.0000"
            assert quality == f"{2.0 / 4 * sum(rho[x]) - off_sum / 2**2:.4f}"

    def test_printed_quality_is_not_one_minus_mse(self, nodes_arg, deployment, tmp_path, capsys):
        """For a unit noiseless field, the quality predict prints is not 1 - MSE
        of the value it prints, sum(S_live) / O: the printed form sums rho over
        all O nodes, the dead node's own rho = 1 included, and its double sum
        runs over all O nodes too. This pins the gap on the bundled deployment."""
        argv = ["predict", "--nodes", nodes_arg, "--synthetic", "uniform", "--epochs", "20", "--seed", "42",
                "--dead", "3,7,11", "--out", str(tmp_path)]
        code, out, _ = run(argv, capsys)
        assert code == 0
        printed = [float(line.split()[2]) for line in out.splitlines()[1:]]
        rho = correlation(CorrelationModel(theta=30.0), pairwise_distances(deployment.positions))
        o, dead = len(deployment), deployment.index([3, 7, 11])
        live = np.delete(np.arange(o), dead)
        printed_form = 2.0 / o * rho[dead].sum(axis=1) - (rho.sum() - o) / o**2
        one_minus_mse = 2.0 / o * rho[np.ix_(dead, live)].sum(axis=1) - rho[np.ix_(live, live)].sum() / o**2
        assert o == 54
        assert printed == [0.8754, 0.7939, 0.7755] == [round(q, 4) for q in printed_form]
        assert [round(q, 4) for q in one_minus_mse] == [0.8494, 0.7677, 0.7477]

    def test_all_dead_is_error(self, single_node_csv, tmp_path, capsys):
        code, _, err = run(
            [
                "predict", "--nodes", single_node_csv, "--synthetic", "uniform",
                "--dead", "1", "--out", str(tmp_path),
            ],
            capsys,
        )
        assert code == 1
        assert "dead" in err

    def test_repeated_dead_id_is_error(self, nodes_arg, tmp_path, capsys):
        code, out, err = run(
            [
                "predict", "--nodes", nodes_arg, "--synthetic", "uniform", "--epochs", "20",
                "--dead", "3,5,3", "--out", str(tmp_path),
            ],
            capsys,
        )
        assert code == 1
        assert "more than once: [3]" in err
        assert out == ""

    def test_live_node_without_readings_is_input_error(self, nodes_arg, tmp_path, capsys):
        # every bundled node but node 5 reads two epochs
        rows = [f"{e},{i},{e + i / 10}" for e in range(2) for i in range(1, 55) if i != 5]
        trace = tmp_path / "readings.csv"
        trace.write_text("\n".join(["epoch,node_id,value", *rows]) + "\n", encoding="utf-8")
        argv = ["predict", "--nodes", nodes_arg, "--readings", str(trace), "--out", str(tmp_path)]
        code, out, err = run([*argv, "--dead", "3,7"], capsys)
        assert code == 2
        assert "no readings for live nodes [5]" in err
        assert out == ""
        code, out, _ = run([*argv, "--dead", "3,5"], capsys)  # a dead node needs no readings
        assert code == 0
        assert [line.split()[0] for line in out.splitlines()[1:]] == ["3", "5"]


class TestPlace:
    def test_sun_shade_selects_sun_group(self, nodes_arg, deployment, tmp_path, capsys):
        code, out, _ = run(
            [
                "place", "--nodes", nodes_arg, "--synthetic", "sun-shade",
                "--rounds", "300", "--threshold", "5", "--out", str(tmp_path),
            ],
            capsys,
        )
        assert code == 0
        sun, _ = data_io.sun_shade_groups(deployment)
        assert f"{len(sun)} of 54 nodes selected" in out
        curve = (tmp_path / "curve.csv").read_text().splitlines()
        assert len(curve) == 301
        nodes_lines = (tmp_path / "nodes.csv").read_text().splitlines()[1:]
        selected = {int(l.split(",")[0]) for l in nodes_lines if l.endswith(",1")}
        assert selected == sun

    def test_single_round_curve(self, nodes_arg, tmp_path, capsys):
        code, _, _ = run(
            [
                "place", "--nodes", nodes_arg, "--synthetic", "uniform",
                "--rounds", "1", "--epochs", "50", "--out", str(tmp_path),
            ],
            capsys,
        )
        assert code == 0
        assert len((tmp_path / "curve.csv").read_text().splitlines()) == 2

    def test_huge_threshold_selects_none(self, nodes_arg, tmp_path, capsys):
        code, out, _ = run(
            [
                "place", "--nodes", nodes_arg, "--synthetic", "uniform",
                "--rounds", "5", "--epochs", "50", "--threshold", "1e9",
                "--out", str(tmp_path),
            ],
            capsys,
        )
        assert code == 0
        assert "0 of 54" in out

    def test_nodes_with_fewer_than_two_readings_are_an_input_error(self, nodes_arg, tmp_path, capsys):
        # node 3 is read once and node 8 never; both are clustered
        rows = [f"{e},{i},{i + 0.5 * e}" for e in range(6) for i in range(1, 55) if i != 8 and (i != 3 or e == 0)]
        trace = tmp_path / "trace.csv"
        trace.write_text("epoch,node_id,value\n" + "\n".join(rows) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        argv = ["place", "--nodes", nodes_arg, "--readings", str(trace), "--rounds", "3", "--out", str(out)]
        code, _, err = run(argv, capsys)
        assert code == 2
        assert "clustered nodes with fewer than 2 readings: [3, 8]" in err
        assert not out.exists()

    def test_requires_reading_source(self, nodes_arg, tmp_path, capsys):
        code, _, err = run(
            ["place", "--nodes", nodes_arg, "--rounds", "2", "--out", str(tmp_path)], capsys
        )
        assert code == 1
        assert "readings" in err


class TestSynth:
    def test_writes_parseable_readings(self, nodes_arg, tmp_path, capsys):
        code, _, _ = run(
            [
                "synth", "--nodes", nodes_arg, "--synthetic", "uniform",
                "--epochs", "40", "--out", str(tmp_path),
            ],
            capsys,
        )
        assert code == 0
        matrix = data_io.parse_readings(tmp_path / "readings.csv")
        assert matrix.values.shape == (54, 40)
        # the written field is the one that --synthetic uniform draws for place and predict
        source = ["--seed", "42", "--epochs", "40"]
        for argv in (["place", "--rounds", "7"], ["predict", "--dead", "3,7,11"]):
            results = []
            for readings in (["--readings", str(tmp_path / "readings.csv")], ["--synthetic", "uniform"]):
                out = tmp_path / "out"
                code, stdout, err = run([*argv, *readings, *source, "--nodes", nodes_arg, "--out", str(out)], capsys)
                files = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else {}
                shutil.rmtree(out, ignore_errors=True)
                results.append((code, stdout, err, files))
            assert results[0] == results[1], argv
            assert results[0][0] == 0 and results[0][1]

    def test_rows_come_in_id_order(self, tmp_path, capsys):
        # each epoch's rows come in id order, whatever order the node file lists them in
        nodes = tmp_path / "nodes.csv"
        nodes.write_text("node_id,x,y,z\n3,0,0,0\n1,1,0,0\n2,0,1,0\n", encoding="utf-8")
        argv = ["synth", "--nodes", str(nodes), "--synthetic", "uniform", "--epochs", "2", "--out", str(tmp_path)]
        assert run(argv, capsys)[0] == 0
        rows = (tmp_path / "readings.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert [row.split(",")[:2] for row in rows] == [[epoch, nid] for epoch in "01" for nid in "123"]


SUN_SHADE = ["--synthetic", "sun-shade"]


class TestPipeline:
    def test_full_chain(self, nodes_arg, tmp_path, capsys):
        code, out, _ = run(
            [
                "pipeline", "--nodes", nodes_arg, "--synthetic", "sun-shade",
                "--rounds", "20", "--epochs", "60", "--out", str(tmp_path),
            ],
            capsys,
        )
        assert code == 0
        for name in ("clusters.json", "curve.csv", "nodes.csv"):
            assert (tmp_path / name).exists()

    def test_dead_list_without_ids_predicts_nothing(self, nodes_arg, tmp_path, capsys):
        """A --dead of separators alone names no node: the run says so and
        writes the artifacts of a run without --dead."""
        def outputs(*dead):
            out = tmp_path / "out"
            argv = ["pipeline", "--nodes", nodes_arg, *SUN_SHADE, "--rounds", "3", "--epochs", "30",
                    "--out", str(out), *dead]
            code, stdout, err = run(argv, capsys)
            assert (code, err) == (0, "")
            files = {p.name: p.read_bytes() for p in out.iterdir()}
            shutil.rmtree(out)
            return stdout, files

        stdout, files = outputs()
        assert outputs("--dead", ",") == (stdout + "no dead nodes given; nothing to predict\n", files)
        assert sorted(files) == ["clusters.json", "curve.csv", "nodes.csv"]

    @pytest.mark.parametrize("flags", [["--derive-radius", "--tau-n", "0.95"], ["--event", "2,2,2"]])
    def test_places_on_the_partition_it_reports(self, nodes_arg, deployment, tmp_path, capsys, flags):
        argv = ["pipeline", "--nodes", nodes_arg, "--synthetic", "sun-shade",
                "--rounds", "5", "--epochs", "60", "--out", str(tmp_path), *flags]
        code, _, _ = run(argv, capsys)
        assert code == 0
        doc = json.loads((tmp_path / "clusters.json").read_text())
        cs = ClusterSet(tuple(Cluster(e["head"], frozenset(e["members"])) for e in doc["clusters"]), doc["radius"])
        with (tmp_path / "nodes.csv").open(newline="") as f:
            written = {int(r["node_id"]): float(r["cost"]) for r in csv.DictReader(f)}
        assert set(written) == set(cs.node_ids)
        matrix = data_io.sun_shade_readings(deployment, epochs=60, seed=42)
        assert written == run_placement(matrix, cs, rounds=1)[1]


    def test_artifacts_do_not_depend_on_the_blas_thread_count(self, nodes_arg, tmp_path):
        """Placement's pair sums are BLAS Gram products; one BLAS thread and the
        default thread count write the same bytes."""
        for name, threads in (("one", "1"), ("default", None)):
            env = {k: v for k, v in subprocess_env().items()
                   if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
            if threads is not None:
                env["OPENBLAS_NUM_THREADS"] = threads
            argv = [sys.executable, "-m", "wsn3d", "pipeline", "--nodes", nodes_arg, "--synthetic", "sun-shade",
                    "--epochs", "100", "--rounds", "20", "--out", str(tmp_path / name)]
            assert subprocess.run(argv, env=env, capture_output=True, timeout=120).returncode == 0
        for artifact in ("curve.csv", "nodes.csv"):
            assert (tmp_path / "one" / artifact).read_bytes() == (tmp_path / "default" / artifact).read_bytes()

    def test_event_out_of_reach_places_nothing(self, nodes_arg, tmp_path, capsys):
        argv = ["pipeline", "--nodes", nodes_arg, "--synthetic", "sun-shade", "--rounds", "3",
                "--epochs", "30", "--event", "100,100,100", "--out", str(tmp_path)]
        code, _, err = run(argv, capsys)
        assert code == 1
        assert "nothing to place" in err
        assert not (tmp_path / "nodes.csv").exists()

    @pytest.mark.parametrize("flags, exit_code, message", [
        pytest.param([*SUN_SHADE, "--dead", "3,3"], 1, "more than once: [3]", id="3,3-more than once: [3]"),
        pytest.param([*SUN_SHADE, "--dead", "3,999"], 1, "not in deployment: [999]",
                     id="3,999-not in deployment: [999]"),
        pytest.param([*SUN_SHADE, "--dead", "3,x"], 1, "--dead expects comma-separated node ids, got '3,x'",
                     id="3,x-not an id"),
        # int() reads both as 11, but the node file's grammar allows neither
        pytest.param([*SUN_SHADE, "--dead", "1_1"], 1, "--dead expects comma-separated node ids, got '1_1'",
                     id="1_1-underscore"),
        pytest.param([*SUN_SHADE, "--dead", "\uff11\uff11"], 1, "--dead expects comma-separated node ids, got",
                     id="fullwidth-digits"),
        pytest.param([*SUN_SHADE, "--rounds", "0"], 1, "rounds must be at least 1", id="rounds-0"),
        pytest.param([*SUN_SHADE, "--epochs", "1"], 1, "at least 2 epochs", id="one-epoch"),
        pytest.param([*SUN_SHADE, "--readings", "readings.csv"], 1, "either --readings or --synthetic",
                     id="two-reading-sources"),
        pytest.param(["--readings", "no-such-readings.csv"], 2, "no-such-readings.csv", id="missing-readings-file"),
        pytest.param(["--readings", "{tmp_path}/short.csv"], 2, "clustered nodes with fewer than 2 readings: [3]",
                     id="node-with-one-reading"),
    ])
    def test_bad_dead_ids_fail_before_any_artifact(self, nodes_arg, tmp_path, capsys, flags, exit_code, message):
        """A bad --dead, search flag or reading source, or readings too short to
        place, fail before clusters.json is written."""
        # two epochs of every bundled node, but only the first of node 3
        rows = [f"{e},{i},{e + i / 10}" for e in range(2) for i in range(1, 55) if (e, i) != (1, 3)]
        (tmp_path / "short.csv").write_text("\n".join(["epoch,node_id,value", *rows]) + "\n", encoding="utf-8")
        out_dir = tmp_path / "out"
        argv = ["pipeline", "--nodes", nodes_arg, "--rounds", "3", "--epochs", "30", "--out", str(out_dir),
                *(f.format(tmp_path=tmp_path) for f in flags)]
        code, out, err = run(argv, capsys)
        assert code == exit_code
        assert message in err
        assert out == ""
        assert not out_dir.exists()


class TestExitCodes:
    def test_missing_file_is_input_error(self, tmp_path, capsys):
        code, _, err = run(["cluster", "--nodes", str(tmp_path / "nope.csv")], capsys)
        assert code == 2
        assert "input error" in err

    @pytest.mark.parametrize("flag", ["--nodes", "--readings"])
    def test_directory_as_input_is_input_error(self, flag, nodes_arg, tmp_path, capsys):
        argv = ["predict", "--nodes", nodes_arg, "--readings", nodes_arg, "--dead", "3"]
        argv[argv.index(flag) + 1] = str(tmp_path)
        code, _, err = run(argv + ["--out", str(tmp_path / "out")], capsys)
        assert code == 2
        assert err.startswith("input error: ") and "Traceback" not in err

    def test_undecodable_nodes_file_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "nodes.csv"
        bad.write_bytes("node_id,x,y,z\n1,0,0,0\n2,1,1,1 # café\n".encode("latin-1"))
        code, _, err = run(["cluster", "--nodes", str(bad), "--out", str(tmp_path / "out")], capsys)
        assert code == 2
        assert err.startswith("input error: ") and "codec can't decode" in err

    @pytest.mark.parametrize("command", ["cluster", "estimate", "synth", "place", "pipeline"])
    def test_unwritable_out_is_usage_error(self, command, nodes_arg, tmp_path, capsys):
        # an --out below a plain file cannot be made; no input is at fault
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        out = blocker / "out"
        argv = [command, "--nodes", nodes_arg, "--out", str(out)]
        if command in ("place", "pipeline"):
            argv += ["--synthetic", "sun-shade", "--epochs", "20", "--rounds", "2"]
        code, stdout, err = run(argv, capsys)
        assert code == 1
        assert err.startswith(f"error: cannot write --out {out}: ") and "Traceback" not in err
        assert stdout == ""

    def test_artifacts_are_lf_bytes_where_text_writes_use_crlf(self, nodes_arg, tmp_path, capsys, monkeypatch):
        # a text-mode write turns each LF into CRLF on Windows; mimic that here
        write_text = Path.write_text

        def crlf_write_text(self, data, encoding=None, errors=None, newline=None):
            return write_text(self, data, encoding, errors, "\r\n" if newline is None else newline)

        monkeypatch.setattr(Path, "write_text", crlf_write_text)
        texts = {"a.csv": "x,y\n1,2\n", "b.json": '{"\u00e9": 1}\n'}
        _write_outputs(tmp_path / "direct", texts)
        for name, text in texts.items():
            assert (tmp_path / "direct" / name).read_bytes() == text.encode("utf-8")
        argv = ["synth", "--synthetic", "uniform", "--epochs", "20", "--nodes", nodes_arg, "--out", str(tmp_path)]
        assert run(argv, capsys)[0] == 0
        assert b"\r" not in (tmp_path / "readings.csv").read_bytes()

    def test_predict_makes_no_out(self, nodes_arg, tmp_path, capsys):
        # predict has no artifact, so it leaves a missing --out uncreated
        out = tmp_path / "out"
        argv = ["predict", "--synthetic", "uniform", "--nodes", nodes_arg, "--out", str(out)]
        assert run(argv, capsys) == (0, "no dead nodes given; nothing to predict\n", "")
        assert not out.exists()

    def test_malformed_file_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("node_id,x,y,z\n1,a,b,c\n", encoding="utf-8")
        code, _, _ = run(["cluster", "--nodes", str(bad), "--out", str(tmp_path)], capsys)
        assert code == 2

    def test_malformed_readings_file_is_input_error(self, nodes_arg, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("epoch,node_id,value\n0,1,warm\n", encoding="utf-8")
        code, _, err = run(
            ["predict", "--nodes", nodes_arg, "--readings", str(bad), "--dead", "3", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 2
        assert "line 2" in err

    @pytest.mark.parametrize("kind", ["nodes", "readings"])
    def test_field_over_the_csv_limit_is_input_error(self, kind, nodes_arg, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        big = f'"{"1" * (csv.field_size_limit() + 1)}"'
        if kind == "nodes":
            bad.write_text(f"node_id,x,y,z\n1,0,0,0\n2,0,0,{big}\n", encoding="utf-8")
            argv = ["cluster", "--nodes", str(bad)]
        else:
            bad.write_text(f"epoch,node_id,value\n0,1,1.0\n1,1,{big}\n", encoding="utf-8")
            argv = ["predict", "--nodes", nodes_arg, "--readings", str(bad), "--dead", "3"]
        code, _, err = run(argv + ["--out", str(tmp_path)], capsys)
        assert code == 2
        assert "input error: line 3: field larger than field limit" in err

    def test_number_outside_the_grammar_is_input_error(self, nodes_arg, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("epoch,node_id,value\n0,1,1.0\n1_0,1,2.0\n", encoding="utf-8")
        code, _, err = run(
            ["predict", "--nodes", nodes_arg, "--readings", str(bad), "--dead", "3", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 2
        assert "line 3: field epoch" in err

    @pytest.mark.parametrize("command", ["cluster", "estimate"])
    def test_node_id_beyond_int64_is_input_error(self, command, tmp_path, capsys):
        # a valid Python int that the int64 id arrays of clustering cannot hold
        bad = tmp_path / "nodes.csv"
        bad.write_text(f"node_id,x,y,z\n1,0,0,0\n{2**63},1,1,1\n", encoding="utf-8")
        code, _, err = run([command, "--nodes", str(bad), "--out", str(tmp_path / "out")], capsys)
        assert code == 2
        assert "line 3" in err and "Traceback" not in err

    def test_bad_parameter_is_usage_error(self, nodes_arg, tmp_path, capsys):
        # every run builds the correlation model, whether or not it reads it
        trace = tmp_path / "readings.csv"
        rows = [f"{e},{i},{e + i / 10}" for e in range(3) for i in range(1, 55)]
        trace.write_text("\n".join(["epoch,node_id,value", *rows]) + "\n", encoding="utf-8")
        place = ["place", "--readings", str(trace), "--rounds", "2"]
        for argv, message in [
            (["cluster", "--alpha", "9"], "alpha must lie in (0, 2], got 9.0"),
            (["predict", "--synthetic", "uniform", "--theta", "-1"], "theta must be positive and finite, got -1.0"),
            (["predict", "--synthetic", "uniform", "--alpha", "0"], "alpha must lie in (0, 2], got 0.0"),
            ([*place, "--theta", "-1"], "theta must be positive and finite, got -1.0"),
            ([*place, "--alpha", "2.5"], "alpha must lie in (0, 2], got 2.5"),
        ]:
            out = tmp_path / "out"
            code, stdout, err = run([*argv, "--nodes", nodes_arg, "--out", str(out)], capsys)
            assert (code, stdout, err) == (1, "", f"error: {message}\n"), argv
            assert not out.exists()

    def test_small_alpha_gives_an_infinite_event_range(self, nodes_arg, tmp_path, capsys):
        """At --alpha 0.001 every correlation radius is past the largest float:
        the --tau-e range lets every node in, and a derived radius is rejected."""
        default = tmp_path / "default"
        assert run(["cluster", "--nodes", nodes_arg, "--out", str(default)], capsys)[0] == 0
        for argv in (["cluster"], ["estimate", "--event", "5,5,5"]):
            out = tmp_path / argv[0]
            code, _, err = run([*argv, "--alpha", "0.001", "--nodes", nodes_arg, "--out", str(out)], capsys)
            assert (code, err) == (0, ""), argv
            doc = json.loads((out / "clusters.json").read_text())
            assert sum(1 + len(e["members"]) for e in doc["clusters"]) == 54
        clusters = json.loads((default / "clusters.json").read_text())["clusters"]
        assert json.loads((tmp_path / "cluster" / "clusters.json").read_text())["clusters"] == clusters
        argv = ["cluster", "--alpha", "0.001", "--derive-radius", "--nodes", nodes_arg, "--out", str(tmp_path / "d")]
        assert run(argv, capsys) == (1, "", "error: radius must be positive and finite, got inf\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["estimate", "--sigma-s2", "inf"],
            ["estimate", "--sigma-n2", "nan"],
            ["cluster", "--radius", "inf"],
            ["cluster", "--theta", "inf"],
            ["place", "--synthetic", "uniform", "--epochs", "20", "--rounds", "2", "--threshold", "nan"],
            # select_nodes rejects it in the last stage, and pipeline writes only after every stage
            ["pipeline", "--synthetic", "sun-shade", "--epochs", "20", "--rounds", "2", "--threshold", "nan"],
            ["estimate", "--event", "1,2,nan"],
            ["cluster", "--event", "1,2,inf"],
        ],
    )
    def test_non_finite_number_is_usage_error(self, argv, nodes_arg, tmp_path, capsys):
        out = tmp_path / "out"
        code, _, err = run([*argv, "--nodes", nodes_arg, "--out", str(out)], capsys)
        assert code == 1
        assert "finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["estimate", "--sigma-n2", "-1"],
        ["estimate", "--sigma-n2", "nan"],
        # no node lies within reach of this event, so no cluster is scored
        ["estimate", "--event", "100,100,100", "--sigma-s2", "0"],
        # each command checks both thresholds, whether or not the run reads them
        ["cluster", "--tau-e", "0"],
        ["cluster", "--tau-n", "nan"],
        ["estimate", "--tau-n", "0"],
        ["estimate", "--tau-e", "1.5"],
        ["pipeline", "--synthetic", "sun-shade", "--epochs", "20", "--rounds", "2", "--tau-e", "nan"],
        ["pipeline", "--synthetic", "sun-shade", "--epochs", "20", "--rounds", "2", "--tau-n", "-0.5"],
    ])
    def test_bad_variance_is_a_one_line_usage_error(self, argv, nodes_arg, tmp_path, capsys):
        out = tmp_path / "out"
        code, stdout, err = run([*argv, "--nodes", nodes_arg, "--out", str(out)], capsys)
        assert code == 1
        assert err.count("\n") == 1 and "{" not in err
        assert argv[-2].lstrip("-") in err.replace("_", "-")  # the message names the flag
        assert f"got {float(argv[-1])}" in err
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["estimate", "--sigma-s2", "1e308"],
        ["estimate", "--sigma-s2", "1e-308"],
        ["estimate", "--sigma-n2", "1e308"],
        ["pipeline", "--synthetic", "sun-shade", "--epochs", "20", "--rounds", "2", "--sigma-s2", "1e308"],
    ])
    def test_variances_that_overflow_the_noise_term_are_a_usage_error(self, argv, nodes_arg, tmp_path, capsys):
        """Finite variances whose noise term (m * sigma_s2 + sum of sigma_n2) /
        sigma_s2 overflows a float fail with a message naming both, and no
        numpy warning."""
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, stdout, err = run([*argv, "--nodes", nodes_arg, "--out", str(out)], capsys)
        assert caught == []
        assert code == 1
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "sigma_s2" in err and "sigma_n2" in err
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["cluster"],
        ["estimate"],
        ["pipeline", "--synthetic", "sun-shade", "--epochs", "20", "--rounds", "2"],
    ])
    def test_empty_event_is_usage_error(self, argv, nodes_arg, tmp_path, capsys):
        # an empty --event is malformed, not absent: no centroid default
        out = tmp_path / "out"
        code, stdout, err = run([*argv, "--event", "", "--nodes", nodes_arg, "--out", str(out)], capsys)
        assert code == 1
        assert err == "error: --event expects X,Y,Z, got ''\n"
        assert stdout == ""
        assert not out.exists()

    # float() reads "1_0" as 10 and the Arabic-Indic digit five as 5
    @pytest.mark.parametrize("event", ["1_0,2,3", "\u0665,5,5"])
    def test_event_outside_the_plain_number_grammar_is_usage_error(self, event, nodes_arg, tmp_path, capsys):
        out = tmp_path / "out"
        code, stdout, err = run(["estimate", "--event", event, "--nodes", nodes_arg, "--out", str(out)], capsys)
        assert code == 1
        assert err == f"error: --event expects numbers, got {event!r}\n"
        assert stdout == ""
        assert not out.exists()

    def test_spaces_around_event_and_dead_items_are_allowed(self, nodes_arg, tmp_path, capsys):
        def outputs(event, dead):
            out = tmp_path / "out"
            argv = ["pipeline", "--nodes", nodes_arg, "--synthetic", "sun-shade", "--epochs", "20", "--rounds", "2",
                    "--event", event, "--dead", dead, "--out", str(out)]
            code, stdout, err = run(argv, capsys)
            assert (code, err) == (0, "")
            files = {p.name: p.read_bytes() for p in out.iterdir()}
            shutil.rmtree(out)
            return stdout, files

        assert outputs(" 2 , 2 ,2 ", " 3 , 7 ") == outputs("2,2,2", "3,7")

    def test_closed_stdout_exits_without_traceback(self, nodes_arg, tmp_path):
        proc = subprocess.Popen(
            [sys.executable, "-m", "wsn3d", "cluster", "--nodes", nodes_arg, "--out", str(tmp_path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=subprocess_env(),
        )
        proc.stdout.close()  # the reader goes away before the first write
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert "Traceback" not in err and "BrokenPipeError" not in err

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, _ = run(["cluster", "--bogus"], capsys)
        assert code == 1

    @pytest.mark.parametrize("argv", [["place", "--phi1", "0.5"], ["pipeline", "--phi2", "0.5"]])
    def test_adaptation_factors_are_not_options(self, argv, nodes_arg, tmp_path, capsys):
        # the search's factors are fixed at 0.5
        out = tmp_path / "out"
        code, stdout, err = run([*argv, "--synthetic", "sun-shade", "--nodes", nodes_arg, "--out", str(out)], capsys)
        assert code == 1
        assert err.startswith("error: unrecognized arguments: ")
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["estimate", "--theta", "1e-320"],
        ["synth", "--epochs", "20", "--theta", "1e-320"],
        ["predict", "--synthetic", "sun-shade", "--epochs", "20", "--dead", "1", "--theta", "1e-320"],
        ["cluster", "--event", "1e200,0,0"],
        ["estimate", "--event", "1e200,0,0"],
    ])
    def test_overflowing_distances_and_exponents_run_without_warning(self, argv, nodes_arg, tmp_path, capsys):
        """A distance or d**alpha / theta past the largest float is inf, and
        its correlation 0, with nothing on stderr."""
        code, _, err = run([*argv, "--nodes", nodes_arg, "--out", str(tmp_path / "out")], capsys)
        assert (code, err) == (0, "")

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(["--help"], capsys)
        assert code == 0

    def test_each_subcommand_has_its_pinned_options(self):
        # an option is added or dropped here on purpose, never by accident
        common = ["-h", "--help", "--nodes"]
        cluster = [*common, "--radius", "--derive-radius", "--tau-n", "--tau-e", "--event", "--theta", "--alpha"]
        want = {
            "cluster": [*cluster, "--out", "--seed"],
            "estimate": [*cluster, "--sigma-s2", "--sigma-n2", "--out", "--seed"],
            "predict": [*common, "--readings", "--synthetic", "--epochs", "--dead", "--predict-unbiased",
                        "--eq13-literal", "--theta", "--alpha", "--out", "--seed"],
            "place": [*common, "--readings", "--synthetic", "--epochs", "--radius", "--rounds", "--threshold",
                      "--theta", "--alpha", "--out", "--seed"],
            "synth": [*common, "--synthetic", "--epochs", "--theta", "--alpha", "--out", "--seed"],
            "pipeline": [*cluster, "--sigma-s2", "--sigma-n2", "--readings", "--synthetic", "--epochs", "--rounds",
                         "--threshold", "--dead", "--predict-unbiased", "--eq13-literal", "--out", "--seed"],
        }
        assert list(_SUBCOMMANDS) == list(want)
        for name, options in want.items():
            (sub,) = subcommands(build_parser(name)).values()
            assert [s for action in sub._actions for s in action.option_strings] == options, name

    def test_every_option_has_help(self):
        for name, sub in subcommands().items():
            for action in sub._actions:
                assert action.help, f"{name} {action.option_strings} has no help text"

    def test_pipeline_options_parse_as_in_their_stages(self):
        # pipeline runs the cluster, estimate, place and predict stages
        subs = subcommands()
        options = {name: {a.dest: a for a in sub._actions} for name, sub in subs.items()}
        shared = 0
        for dest, action in options["pipeline"].items():
            for stage in ("cluster", "estimate", "place", "predict"):
                other = options[stage].get(dest)
                if other is not None:
                    shared += 1
                    for attr in ("option_strings", "default", "type", "choices", "required", "const"):
                        assert getattr(action, attr) == getattr(other, attr), f"{dest} {attr} vs {stage}"
        assert shared > 30

    def test_subcommand_help_documents_defaults(self, capsys):
        code, out, _ = run(["place", "--help"], capsys)
        assert code == 0
        for token in ("--rounds", "--threshold", "default 300", "default 5"):
            assert token in out


def test_handlers_neither_print_nor_write():
    # _run writes a run's artifacts once and then prints its lines
    for name, (handler, _, _) in _SUBCOMMANDS.items():
        source = inspect.getsource(handler)
        assert "print(" not in source and "_write_outputs(" not in source, name


# the argvs of the C9 acceptance criterion, one per subcommand
C9_ARGVS = [
    ["cluster", "--radius", "6"],
    ["estimate"],
    ["place", "--synthetic", "sun-shade", "--rounds", "300", "--threshold", "5", "--seed", "42"],
    ["synth", "--synthetic", "uniform", "--epochs", "60"],
    ["predict", "--synthetic", "uniform", "--epochs", "60", "--dead", "16"],
    ["pipeline", "--synthetic", "sun-shade", "--rounds", "15", "--epochs", "60"],
]


class TestSubcommandParser:
    """build_parser(name) holds only the subcommand it names, and parses and
    documents it as the parser of every subcommand does; without a known
    name it holds every subcommand."""

    def test_help_and_namespace_match_the_full_parser(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "100")
        full = subcommands()
        for argv in C9_ARGVS:
            name = argv[0]
            one = subcommands(build_parser(name))
            assert set(one) == {name}
            assert one[name].format_help() == full[name].format_help()
            argv = [*argv, "--nodes", "nodes.csv", "--out", "out"]
            assert build_parser(name).parse_args(argv) == build_parser().parse_args(argv)
        assert {argv[0] for argv in C9_ARGVS} == set(full)

    @pytest.mark.parametrize("command", ["bogus", "--help", "-h", "Cluster"])
    def test_no_known_name_builds_every_subcommand(self, command, monkeypatch):
        monkeypatch.setenv("COLUMNS", "100")
        want = {name: p.format_help() for name, p in subcommands().items()}
        assert set(want) == {argv[0] for argv in C9_ARGVS}
        assert {name: p.format_help() for name, p in subcommands(build_parser(command)).items()} == want

    def test_unknown_subcommand_names_every_subcommand(self, capsys):
        code, out, err = run(["bogus"], capsys)
        assert code == 1
        assert out == "" and err.count("\n") == 1
        assert "'bogus'" in err
        for argv in C9_ARGVS:
            assert argv[0] in err

    def test_top_level_help_does_not_show_the_module_docstring(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "100")
        want = build_parser().format_help()
        monkeypatch.setattr(wsn3d.cli, "__doc__", "An edited module docstring.")
        assert build_parser().format_help() == want

    def test_top_level_help_lists_every_subcommand(self, capsys):
        code, out, _ = run(["--help"], capsys)
        assert code == 0
        assert out == build_parser().format_help()
        for name in subcommands():
            assert f"    {name} " in out
