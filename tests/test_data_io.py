import io
import time

import numpy as np
import pytest

from wsn3d import data_io
from wsn3d.clustering import Cluster, ClusterSet, form_clusters
from wsn3d.errors import DataFormatError
from wsn3d.estimation import NoiseProfile, SignalModel, cluster_accuracy
from wsn3d.geometry import CorrelationModel, EventSource


class TestParseNodes:
    def test_bundled_fixture(self, deployment):
        assert len(deployment) == 54
        assert deployment.node(1).position == (1.807, 6.525, 8.785)
        assert deployment.node(47).position == (3.756, 5.074, 7.998)

    def test_empty_body_rejected(self):
        with pytest.raises(DataFormatError, match="no nodes"):
            data_io.parse_nodes(io.StringIO("node_id,x,y,z\n"))

    def test_single_row(self):
        dep = data_io.parse_nodes(io.StringIO("node_id,x,y,z\n47,3.756,5.074,7.998\n"))
        assert dep.node(47).position == (3.756, 5.074, 7.998)

    def test_duplicate_id_reports_line(self):
        src = io.StringIO("node_id,x,y,z\n1,0,0,0\n1,1,1,1\n")
        with pytest.raises(DataFormatError, match="line 3"):
            data_io.parse_nodes(src)

    def test_malformed_number_reports_line(self):
        src = io.StringIO("node_id,x,y,z\n1,0,zero,0\n")
        with pytest.raises(DataFormatError, match="line 2"):
            data_io.parse_nodes(src)

    def test_missing_column_rejected(self):
        src = io.StringIO("node_id,x,y,z\n1,0,0\n")
        with pytest.raises(DataFormatError):
            data_io.parse_nodes(src)

    def test_wrong_header_rejected(self):
        with pytest.raises(DataFormatError, match="header"):
            data_io.parse_nodes(io.StringIO("id,x,y,z\n1,0,0,0\n"))

    def test_row_order_preserved(self):
        src = io.StringIO("node_id,x,y,z\n5,0,0,0\n2,1,1,1\n")
        dep = data_io.parse_nodes(src)
        assert dep.ids() == [5, 2]


class TestParseReadings:
    def test_three_rows_one_node(self):
        src = io.StringIO("epoch,node_id,value\n0,7,1.5\n1,7,2.5\n2,7,3.5\n")
        m = data_io.parse_readings(src)
        assert m.node_ids == (7,) and m.epochs == (0, 1, 2)
        assert np.array_equal(m.row(7), [1.5, 2.5, 3.5])

    def test_sparse_epochs_marked_missing(self):
        src = io.StringIO("epoch,node_id,value\n0,1,1.0\n5,1,2.0\n5,2,3.0\n")
        m = data_io.parse_readings(src)
        assert m.epochs == (0, 5)
        assert m.missing[m.node_ids.index(2), 0]

    def test_duplicate_cell_rejected(self):
        src = io.StringIO("epoch,node_id,value\n0,1,1.0\n0,1,2.0\n")
        with pytest.raises(DataFormatError, match="duplicate cell"):
            data_io.parse_readings(src)

    def test_unknown_node_rejected_with_deployment(self, deployment):
        src = io.StringIO("epoch,node_id,value\n0,999,1.0\n")
        with pytest.raises(DataFormatError, match="unknown node"):
            data_io.parse_readings(src, deployment=deployment)

    def test_non_numeric_value_rejected(self):
        src = io.StringIO("epoch,node_id,value\n0,1,warm\n")
        with pytest.raises(DataFormatError, match="line 2"):
            data_io.parse_readings(src)

    def test_full_scale_parse_under_a_second(self, deployment):
        scn = data_io.SyntheticScenario(
            model=CorrelationModel(theta=30.0), epochs=800, seed=0
        )
        matrix = data_io.generate_synthetic(scn, deployment)
        text = data_io.write_readings(matrix)
        start = time.perf_counter()
        parsed = data_io.parse_readings(io.StringIO(text))
        elapsed = time.perf_counter() - start
        assert parsed.values.shape == (54, 800)
        assert elapsed < 1.0


class TestGenerateSynthetic:
    MODEL = CorrelationModel(theta=30.0, alpha=1.0)

    def test_coincident_nodes_move_together(self):
        from wsn3d.clustering import Deployment, SensorNode

        nodes = (
            SensorNode(id=1, position=(1.0, 1.0, 1.0)),
            SensorNode(id=2, position=(1.0, 1.0, 1.0)),
        )
        scn = data_io.SyntheticScenario(model=self.MODEL, epochs=100, seed=0)
        m = data_io.generate_synthetic(scn, Deployment(nodes=nodes))
        # duplicate covariance rows force the jitter path; fields stay equal
        # up to the jitter scale
        assert np.max(np.abs(m.row(1) - m.row(2))) < 1e-3

    def test_tiny_theta_decorrelates(self, deployment):
        scn = data_io.SyntheticScenario(
            model=CorrelationModel(theta=0.01), epochs=2000, seed=1
        )
        m = data_io.generate_synthetic(scn, deployment)
        emp = np.corrcoef(m.values)
        np.fill_diagonal(emp, 0.0)
        assert np.max(np.abs(emp)) < 0.1

    def test_fixture_pair_matches_model(self, deployment):
        scn = data_io.SyntheticScenario(model=self.MODEL, epochs=800, seed=42)
        m = data_io.generate_synthetic(scn, deployment)
        emp = np.corrcoef(m.values)
        i, j = m.node_ids.index(47), m.node_ids.index(5)
        assert emp[i, j] == pytest.approx(0.9454738349063720, abs=0.05)

    def test_bitwise_reproducible(self, deployment):
        scn = data_io.SyntheticScenario(model=self.MODEL, epochs=100, seed=9)
        a = data_io.generate_synthetic(scn, deployment)
        b = data_io.generate_synthetic(scn, deployment)
        assert np.array_equal(a.values, b.values)

    def test_offsets_and_scales_apply(self, deployment):
        sun, shade = data_io.sun_shade_groups(deployment)
        scn = data_io.sun_shade_scenario(deployment, epochs=800)
        m = data_io.generate_synthetic(scn, deployment)
        sun_id, shade_id = min(sun), min(shade)
        assert m.row(sun_id).mean() == pytest.approx(25.0, abs=1.0)
        assert m.row(shade_id).mean() == pytest.approx(18.0, abs=1.0)
        assert np.var(m.row(sun_id)) > np.var(m.row(shade_id)) * 10


class TestClusterReport:
    def test_empty_set(self):
        text = data_io.write_cluster_report(ClusterSet(clusters=(), radius=6.0))
        assert '"clusters": []' in text

    def test_fixture_run_has_seven_entries(self, deployment):
        cs = form_clusters(deployment, 6.0)
        text = data_io.write_cluster_report(cs)
        assert text.count('"head"') == 7

    def test_round_trip(self, deployment):
        cs = form_clusters(deployment, 6.0)
        back = data_io.read_cluster_report(data_io.write_cluster_report(cs))
        assert back == cs

    def test_accuracy_fields_serialized(self, deployment):
        model = CorrelationModel(theta=30.0)
        cs = form_clusters(deployment, 6.0)
        event = EventSource(position=deployment.centroid(), tau_e=0.85)
        noise = NoiseProfile.uniform(deployment.ids(), 0.05)
        reports = [
            cluster_accuracy(deployment, c, model, SignalModel(), noise, event) for c in cs
        ]
        text = data_io.write_cluster_report(cs, reports)
        assert text.count('"accuracy"') == 7


def empty_state(round, cost_history):
    from wsn3d.placement import PlacementState

    none = np.empty(0)
    return PlacementState(
        node_ids=(), sigma_p2=none, sigma_b2=none, best_cost=none, i_a=none,
        sigma_gb2=0.0, round=round, cost_history=cost_history,
    )


class TestCostCurves:
    def test_row_counts(self):
        state = empty_state(round=300, cost_history=tuple(float(i) for i in range(300)))
        curve, nodes = data_io.write_cost_curves(state, {1: 2.0, 2: 7.0}, {2})
        assert len(curve.splitlines()) == 301
        lines = nodes.splitlines()
        assert lines[0] == "node_id,cost,selected"
        assert lines[1] == "1,2.0,0" and lines[2] == "2,7.0,1"

    def test_empty_run(self):
        state = empty_state(round=0, cost_history=())
        curve, nodes = data_io.write_cost_curves(state, {}, set())
        assert curve == "round,mean_cost\n"
        assert nodes == "node_id,cost,selected\n"

    def test_selected_column_count(self, deployment):
        from wsn3d.placement import PlacementParams, run_placement, select_nodes

        scn = data_io.sun_shade_scenario(deployment, epochs=60)
        matrix = data_io.generate_synthetic(scn, deployment)
        clusters = form_clusters(deployment, 6.0)
        state, costs = run_placement(matrix, clusters, PlacementParams(rounds=20))
        selected = select_nodes(costs, 5.0)
        _, nodes = data_io.write_cost_curves(state, costs, selected)
        ones = sum(1 for line in nodes.splitlines()[1:] if line.endswith(",1"))
        assert ones == len(selected)


class TestReadingsRoundTrip:
    def test_write_then_parse_preserves_values(self, deployment):
        scn = data_io.SyntheticScenario(
            model=CorrelationModel(theta=30.0), epochs=20, seed=4
        )
        matrix = data_io.generate_synthetic(scn, deployment)
        back = data_io.parse_readings(io.StringIO(data_io.write_readings(matrix)))
        assert back.node_ids == tuple(sorted(matrix.node_ids))
        for nid in matrix.node_ids:
            assert np.array_equal(back.row(nid), matrix.row(nid))
