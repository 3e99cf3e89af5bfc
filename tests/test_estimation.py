import math
import re

import numpy as np
import pytest

from wsn3d.clustering import Cluster, Deployment, form_clusters
from wsn3d.data_io import ReadingMatrix, sun_shade_readings
from wsn3d.errors import ConfigurationError, DataFormatError
from wsn3d.estimation import (
    cluster_accuracy,
    information_accuracy,
    predict_dead,
    predict_dead_nodes,
    prediction_accuracy,
)
from wsn3d.geometry import CorrelationModel, correlation, pairwise_distances


class TestInformationAccuracy:
    def test_single_perfect_node(self):
        assert information_accuracy(1, [1.0], [[1.0]], 1.0, [0.0]) == 1.0

    def test_two_perfectly_correlated_nodes(self):
        rho = np.ones((2, 2))
        assert information_accuracy(2, [1.0, 1.0], rho, 1.0, [0.0, 0.0]) == 1.0

    def test_perfect_correlation_fixed_point_all_m(self):
        for m in range(1, 51):
            acc = information_accuracy(m, np.ones(m), np.ones((m, m)), 1.0, np.zeros(m))
            assert acc == 1.0

    def test_single_node_closed_form(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            rho = rng.uniform(0.0, 1.0)
            sigma_s2 = rng.uniform(0.1, 5.0)
            sigma_n2 = rng.uniform(0.0, 2.0)
            got = information_accuracy(1, [rho], [[1.0]], sigma_s2, [sigma_n2])
            want = 2.0 * rho - 1.0 - sigma_n2 / sigma_s2
            assert got == pytest.approx(want, abs=1e-14)

    def test_spec_point_value(self):
        assert information_accuracy(1, [0.9], [[1.0]], 1.0, [0.1]) == pytest.approx(0.7, abs=1e-14)

    def test_monotone_decreasing_in_noise(self):
        rho_pair = np.array([[1.0, 0.5], [0.5, 1.0]])
        base = information_accuracy(2, [0.9, 0.8], rho_pair, 1.0, [0.1, 0.1])
        worse = information_accuracy(2, [0.9, 0.8], rho_pair, 1.0, [0.1, 0.2])
        assert worse < base

    def test_redundancy_penalty(self):
        lo = np.array([[1.0, 0.3], [0.3, 1.0]])
        hi = np.array([[1.0, 0.9], [0.9, 1.0]])
        a_lo = information_accuracy(2, [0.9, 0.8], lo, 1.0, [0.0, 0.0])
        a_hi = information_accuracy(2, [0.9, 0.8], hi, 1.0, [0.0, 0.0])
        assert a_hi < a_lo

    def test_asymmetric_pair_matrix_rejected(self):
        bad = np.array([[1.0, 0.5], [0.4, 1.0]])
        with pytest.raises(ValueError):
            information_accuracy(2, [1.0, 1.0], bad, 1.0, [0.0, 0.0])

    def test_non_unit_diagonal_rejected(self):
        bad = np.array([[0.9, 0.5], [0.5, 1.0]])
        with pytest.raises(ValueError):
            information_accuracy(2, [1.0, 1.0], bad, 1.0, [0.0, 0.0])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            information_accuracy(2, [1.0], np.ones((2, 2)), 1.0, [0.0, 0.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_correlation_rejected(self, bad):
        with pytest.raises(ValueError, match=f"^rho_event must be finite, got {bad}$"):
            information_accuracy(1, [bad], [[1.0]], 1.0, [0.0])
        pair = np.array([[1.0, bad], [bad, 1.0]])
        with pytest.raises(ValueError, match=f"^rho_pair must be finite, got {bad}$"):
            information_accuracy(2, [0.5, 0.5], pair, 1.0, [0.0, 0.0])

    def test_bad_signal_variance_rejected(self):
        for sigma_s2 in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match=f"sigma_s2 must be positive and finite, got {sigma_s2}"):
                information_accuracy(1, [1.0], [[1.0]], sigma_s2, [0.0])

    def test_bad_noise_variance_rejected(self):
        for variance in (math.nan, math.inf, -0.1):
            with pytest.raises(ValueError, match=f"noise variances must be non-negative and finite, got {variance}"):
                information_accuracy(2, [1.0, 1.0], np.ones((2, 2)), 1.0, [0.0, variance])


class TestClusterAccuracy:
    def test_singleton_at_event_is_perfect(self):
        event = (2.0, 2.0, 2.0)
        dep = Deployment([1], [event])
        cluster = Cluster(head=1, members=frozenset())
        model = CorrelationModel(theta=30.0)
        [rep] = cluster_accuracy(dep, [cluster], model, event, 1.0, 0.0)
        assert rep.accuracy == 1.0
        assert rep.m == 1

    def test_spread_cluster_beats_clumped(self):
        # same node-to-event distances, different pairwise spreads
        event = (0.0, 0.0, 0.0)
        r = 5.0
        clumped = [(r, 0.0, 0.0), (r * np.cos(0.1), r * np.sin(0.1), 0.0), (r * np.cos(0.2), r * np.sin(0.2), 0.0)]
        spread = [(r, 0.0, 0.0), (-r, 0.0, 0.0), (0.0, r, 0.0)]
        model = CorrelationModel(theta=30.0)
        cluster = Cluster(head=1, members=frozenset({2, 3}))
        acc_clumped = cluster_accuracy(
            Deployment([1, 2, 3], clumped), [cluster], model, event, 1.0, 0.0
        )[0].accuracy
        acc_spread = cluster_accuracy(
            Deployment([1, 2, 3], spread), [cluster], model, event, 1.0, 0.0
        )[0].accuracy
        assert acc_spread > acc_clumped

    def test_terms_recompose(self, deployment):
        model = CorrelationModel(theta=30.0)
        event = deployment.centroid()
        for rep in cluster_accuracy(deployment, form_clusters(deployment, 6.0), model, event, 1.0, 0.05):
            assert rep.accuracy == pytest.approx(
                rep.gain_term - rep.redundancy_term - rep.noise_term, abs=1e-12
            )
            assert 0.0 < rep.accuracy <= 1.0

    @pytest.mark.parametrize("sigma_s2, sigma_n2, message", [
        (0.0, 0.05, "sigma_s2 must be positive and finite, got 0.0"),
        (math.nan, 0.05, "sigma_s2 must be positive and finite, got nan"),
        (math.inf, 0.05, "sigma_s2 must be positive and finite, got inf"),
        (1.0, math.nan, "sigma_n2 must be non-negative and finite, got nan"),
        (1.0, math.inf, "sigma_n2 must be non-negative and finite, got inf"),
        (1.0, -0.1, "sigma_n2 must be non-negative and finite, got -0.1"),
    ], ids=["sigma_s2-0", "sigma_s2-nan", "sigma_s2-inf", "sigma_n2-nan", "sigma_n2-inf", "sigma_n2-negative"])
    def test_bad_variances_rejected_before_any_cluster(self, deployment, sigma_s2, sigma_n2, message):
        model = CorrelationModel(theta=30.0)
        event = deployment.centroid()
        for clusters in (form_clusters(deployment, 6.0), []):
            with pytest.raises(ValueError, match=message):
                cluster_accuracy(deployment, clusters, model, event, sigma_s2, sigma_n2)

    @pytest.mark.parametrize("event, message", [
        ((0.0, math.nan, 0.0), r"event must be a finite 3D point, got \(0.0, nan, 0.0\)"),
        ((math.inf, 0.0, 0.0), r"event must be a finite 3D point, got \(inf, 0.0, 0.0\)"),
        ((0.0, 0.0), r"event must be a finite 3D point, got \(0.0, 0.0\)"),
    ], ids=["nan", "inf", "2d"])
    def test_bad_event_rejected_before_any_cluster(self, deployment, event, message):
        model = CorrelationModel(theta=30.0)
        for clusters in (form_clusters(deployment, 6.0), []):
            with pytest.raises(ValueError, match=message):
                cluster_accuracy(deployment, clusters, model, event, 1.0, 0.05)


class TestPredictDead:
    def test_single_live_single_total(self):
        assert predict_dead([5.0], 1) == 5.0

    def test_plain_mean_when_none_dead(self):
        assert predict_dead([1.0, 2.0, 3.0], 3) == 2.0

    def test_shrinking_divisor(self):
        assert predict_dead([10.0, 10.0], 4) == 5.0

    def test_unbiased_variant(self):
        assert predict_dead([10.0, 10.0], 4, unbiased=True) == 10.0

    def test_no_observations_rejected(self):
        with pytest.raises(ValueError):
            predict_dead([], 3)

    def test_total_below_live_rejected(self):
        with pytest.raises(ValueError):
            predict_dead([1.0, 2.0], 1)


class TestPredictionAccuracy:
    def test_degenerate_single_node(self):
        assert prediction_accuracy(1, [1.0], [[1.0]]) == 2.0

    def test_vanishing_correlations(self):
        rho_pair = np.eye(3)
        assert prediction_accuracy(3, [0.0, 0.0, 0.0], rho_pair) == 0.0

    def test_two_node_hand_value(self):
        rho_pair = np.array([[1.0, 0.8], [0.8, 1.0]])
        got = prediction_accuracy(2, [0.9, 0.9], rho_pair)
        assert got == pytest.approx(1.4, abs=1e-12)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(18)
        for _ in range(100):
            o = int(rng.integers(1, 12))
            rho_dead = rng.uniform(0.0, 1.0, o)
            a = rng.uniform(0.0, 1.0, (o, o))
            rho_pair = (a + a.T) / 2.0
            np.fill_diagonal(rho_pair, 1.0)
            got = prediction_accuracy(o, rho_dead, rho_pair)
            double_sum = sum(
                rho_pair[i, j] for i in range(o) for j in range(o) if j != i
            )
            want = 2.0 / o * rho_dead.sum() - double_sum / o**2
            assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("live_divisor", [False, True])
    def test_stacked_rows_brute_force_oracle(self, live_divisor):
        rng = np.random.default_rng(19)
        for _ in range(100):
            o = int(rng.integers(2, 12))
            k = int(rng.integers(1, o))
            rho_dead = rng.uniform(0.0, 1.0, (k, o))
            a = rng.uniform(0.0, 1.0, (o, o))
            rho_pair = (a + a.T) / 2.0
            np.fill_diagonal(rho_pair, 1.0)
            got = prediction_accuracy(o, rho_dead, rho_pair, live_divisor=live_divisor)
            double_sum = sum(
                rho_pair[i, j] for i in range(o) for j in range(o) if j != i
            )
            d = o - k if live_divisor else o
            want = [2.0 / o * row.sum() - double_sum / d**2 for row in rho_dead]
            assert got.shape == (k,)
            assert got == pytest.approx(want, abs=1e-12)
            if not live_divisor:  # each row scores as it would alone, to the bit
                alone = [prediction_accuracy(o, row, rho_pair) for row in rho_dead]
                assert got.tolist() == alone

    def test_live_divisor_variant(self):
        rho_pair = np.array([[1.0, 0.8], [0.8, 1.0]])
        got = prediction_accuracy(2, [0.9, 0.9], rho_pair, live_divisor=True)
        assert got == pytest.approx(2.0 / 2.0 * 1.8 - 1.6 / 1.0, abs=1e-12)

    def test_live_divisor_with_every_node_dead_rejected(self):
        with pytest.raises(ValueError, match="live count"):
            prediction_accuracy(2, np.eye(2), np.eye(2), live_divisor=True)
        with pytest.raises(ValueError, match="live count"):
            prediction_accuracy(1, [1.0], [[1.0]], live_divisor=True)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            prediction_accuracy(3, [1.0, 1.0], np.eye(3))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_correlation_rejected(self, bad):
        with pytest.raises(ValueError, match=f"^rho_dead must be finite, got {bad}$"):
            prediction_accuracy(1, [bad], [[1.0]])
        with pytest.raises(ValueError, match=f"^rho_dead must be finite, got {bad}$"):
            prediction_accuracy(2, [[0.5, 0.5], [0.5, bad]], np.eye(2))
        pair = np.array([[1.0, bad], [bad, 1.0]])
        with pytest.raises(ValueError, match=f"^rho_pair must be finite, got {bad}$"):
            prediction_accuracy(2, [0.5, 0.5], pair)

    @pytest.mark.parametrize("rho_dead", [np.ones((2, 4)), np.ones((2, 2)), np.ones((1, 2, 3))])
    def test_row_width_other_than_rho_pair_rejected(self, rho_dead):
        with pytest.raises(ValueError, match="rho_dead must have shape"):
            prediction_accuracy(3, rho_dead, np.eye(3))


MODEL = CorrelationModel(theta=30.0, alpha=1.0)
DEAD = [3, 7, 11, 40]


def with_rows(matrix: ReadingMatrix, keep, values=None) -> ReadingMatrix:
    """The matrix's rows at positions ``keep``, in that order, over ``values`` if given."""
    values = matrix.values if values is None else values
    return ReadingMatrix(tuple(np.asarray(matrix.node_ids)[keep].tolist()), matrix.epochs, values[keep])


class TestPredictDeadNodes:
    @pytest.fixture(scope="class")
    def readings(self, deployment):
        return sun_shade_readings(deployment, MODEL, seed=42)

    @staticmethod
    def oracle(dep, matrix, dead, unbiased, live_divisor):
        """predict_dead of the live nodes' means in id order, and prediction_accuracy
        on the dead rows of the full id-ordered rho_pair."""
        ids = sorted(dep.node_ids.tolist())
        row_of = {i: k for k, i in enumerate(matrix.node_ids)}
        observed = [float(matrix.values[row_of[i]].mean()) for i in ids if i not in dead]
        value = predict_dead(observed, len(ids), unbiased=unbiased)
        rho_pair = correlation(MODEL, pairwise_distances(dep.positions[dep.index(ids)]))
        rho_dead = rho_pair[[ids.index(d) for d in dead]]
        return value, prediction_accuracy(len(ids), rho_dead, rho_pair, live_divisor=live_divisor)

    @pytest.mark.parametrize("unbiased", [False, True])
    @pytest.mark.parametrize("live_divisor", [False, True])
    def test_matches_the_oracle_bit_for_bit(self, deployment, readings, unbiased, live_divisor):
        value, qualities = predict_dead_nodes(deployment, MODEL, readings, DEAD, unbiased, live_divisor)
        want_value, want_qualities = self.oracle(deployment, readings, DEAD, unbiased, live_divisor)
        assert np.float64(value).tobytes() == np.float64(want_value).tobytes()
        assert qualities.shape == (len(DEAD),)
        assert qualities.tobytes() == want_qualities.tobytes()

    def test_row_order_and_dead_rows_are_not_read(self, deployment, readings):
        want = predict_dead_nodes(deployment, MODEL, readings, DEAD)
        n = len(readings.node_ids)
        permuted = with_rows(readings, np.random.default_rng(0).permutation(n))
        live_only = with_rows(readings, [k for k, i in enumerate(readings.node_ids) if i not in DEAD])
        for matrix in (permuted, live_only):
            value, qualities = predict_dead_nodes(deployment, MODEL, matrix, DEAD)
            assert np.float64(value).tobytes() == np.float64(want[0]).tobytes()
            assert qualities.tobytes() == want[1].tobytes()

    def test_silent_live_nodes_named_in_ascending_order(self, deployment, readings):
        values = readings.values.copy()
        rows = [readings.node_ids.index(i) for i in (12, 5)]
        values[rows] = np.nan  # all-NaN rows for 12 and 5
        no_row_for_9 = [k for k, i in enumerate(readings.node_ids) if i != 9]
        matrix = with_rows(readings, no_row_for_9, values)
        with pytest.raises(DataFormatError, match=re.escape("no readings for live nodes [5, 9, 12]")):
            predict_dead_nodes(deployment, MODEL, matrix, DEAD)
        value, _ = predict_dead_nodes(deployment, MODEL, matrix, [*DEAD, 5, 9, 12])  # dead: not read
        assert math.isfinite(value)

    def test_no_dead_ids_predict_the_plain_mean(self, deployment, readings):
        means = [float(row.mean()) for row in readings.values]
        for switches in ((False, False), (True, True)):
            value, qualities = predict_dead_nodes(deployment, MODEL, readings, [], *switches)
            assert value == predict_dead(means, len(means))
            assert qualities.shape == (0,)

    @pytest.mark.parametrize("dead, error, message", [
        ([3, 999, 3], ConfigurationError, "dead ids given more than once: [3]"),
        ([2**63, 2**63], ConfigurationError, "dead ids given more than once: [9223372036854775808]"),
        ([5, 3, 5, 3, 3], ConfigurationError, "dead ids given more than once: [3, 5]"),
        ([*range(1, 55), 999], ConfigurationError, "dead ids not in deployment: [999]"),
        ([-1, 2**63, 2**63 + 1], ConfigurationError,
         "dead ids not in deployment: [-1, 9223372036854775808, 9223372036854775809]"),
        ([*range(54, 0, -1)], ConfigurationError, "all nodes are dead; nothing observed"),
        ([3], DataFormatError, "no readings for live nodes [1, 2, 4, 5]"),
    ], ids=["repeated", "repeated-past-int64", "repeated-sorted", "unknown", "unknown-past-int64",
            "all-dead", "silent-live"])
    def test_errors_come_in_order(self, deployment, readings, dead, error, message):
        """Each case also fails the later checks that it can: the matrix holds
        readings for nodes 3 and 6 onward only, so nodes 1, 2, 4 and 5 are silent."""
        matrix = with_rows(readings, [k for k, i in enumerate(readings.node_ids) if i == 3 or i > 5])
        with pytest.raises(error) as caught:
            predict_dead_nodes(deployment, MODEL, matrix, dead)
        assert str(caught.value) == message
