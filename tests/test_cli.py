import argparse
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wsn3d
from wsn3d import data_io
from wsn3d.cli import build_parser, main
from wsn3d.placement import cluster_costs

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


def subcommands():
    """The argparse parser of each subcommand, by name."""
    (sub,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
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

    @pytest.mark.parametrize("variance", ["4", "nan"])
    def test_variance_with_sun_shade_is_usage_error(self, nodes_arg, tmp_path, capsys, variance):
        out = tmp_path / "out"
        argv = ["synth", "--nodes", nodes_arg, "--variance", variance, "--epochs", "5", "--out", str(out)]
        code, _, err = run(argv, capsys)
        assert code == 1
        assert "--variance" in err
        assert not out.exists()


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

    @pytest.mark.parametrize("flags", [["--derive-radius", "--tau-n", "0.95"], ["--event", "2,2,2"]])
    def test_places_on_the_partition_it_reports(self, nodes_arg, deployment, tmp_path, capsys, flags):
        argv = ["pipeline", "--nodes", nodes_arg, "--synthetic", "sun-shade",
                "--rounds", "5", "--epochs", "60", "--out", str(tmp_path), *flags]
        code, _, _ = run(argv, capsys)
        assert code == 0
        cs = data_io.read_cluster_report((tmp_path / "clusters.json").read_text())
        with (tmp_path / "nodes.csv").open(newline="") as f:
            written = {int(r["node_id"]): float(r["cost"]) for r in csv.DictReader(f)}
        assert set(written) == cs.all_ids()
        scn = data_io.sun_shade_scenario(deployment, epochs=60, seed=42)
        assert written == cluster_costs(data_io.generate_synthetic(scn, deployment), cs)


    def test_event_out_of_reach_places_nothing(self, nodes_arg, tmp_path, capsys):
        argv = ["pipeline", "--nodes", nodes_arg, "--synthetic", "sun-shade", "--rounds", "3",
                "--epochs", "30", "--event", "100,100,100", "--out", str(tmp_path)]
        code, _, err = run(argv, capsys)
        assert code == 1
        assert "nothing to place" in err
        assert not (tmp_path / "nodes.csv").exists()


class TestExitCodes:
    def test_missing_file_is_input_error(self, tmp_path, capsys):
        code, _, err = run(["cluster", "--nodes", str(tmp_path / "nope.csv")], capsys)
        assert code == 2
        assert "input error" in err

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

    @pytest.mark.parametrize("command", ["cluster", "estimate"])
    def test_node_id_beyond_int64_is_input_error(self, command, tmp_path, capsys):
        # a valid Python int that the int64 id arrays of clustering cannot hold
        bad = tmp_path / "nodes.csv"
        bad.write_text(f"node_id,x,y,z\n1,0,0,0\n{2**63},1,1,1\n", encoding="utf-8")
        code, _, err = run([command, "--nodes", str(bad), "--out", str(tmp_path / "out")], capsys)
        assert code == 2
        assert "line 3" in err and "Traceback" not in err

    def test_bad_parameter_is_usage_error(self, nodes_arg, tmp_path, capsys):
        code, _, _ = run(
            ["cluster", "--nodes", nodes_arg, "--alpha", "9", "--out", str(tmp_path)], capsys
        )
        assert code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["estimate", "--sigma-s2", "inf"],
            ["estimate", "--sigma-n2", "nan"],
            ["cluster", "--radius", "inf"],
            ["cluster", "--theta", "inf"],
            ["synth", "--synthetic", "uniform", "--variance", "nan"],
            ["place", "--synthetic", "uniform", "--epochs", "20", "--rounds", "2", "--threshold", "nan"],
            ["place", "--synthetic", "uniform", "--epochs", "20", "--rounds", "2", "--phi1", "nan"],
            # checked before any stage runs: the estimate stage writes clusters.json
            ["pipeline", "--synthetic", "sun-shade", "--epochs", "20", "--rounds", "2", "--threshold", "nan"],
        ],
    )
    def test_non_finite_number_is_usage_error(self, argv, nodes_arg, tmp_path, capsys):
        out = tmp_path / "out"
        code, _, err = run([*argv, "--nodes", nodes_arg, "--out", str(out)], capsys)
        assert code == 1
        assert "finite" in err
        assert not out.exists()

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

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(["--help"], capsys)
        assert code == 0

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
        for token in ("--phi1", "--rounds", "--threshold", "default 300", "default 5"):
            assert token in out
