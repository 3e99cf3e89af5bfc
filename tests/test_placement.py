import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from wsn3d import data_io
from wsn3d.clustering import Cluster, ClusterSet, form_clusters
from wsn3d.placement import (
    PlacementParams,
    PlacementState,
    PrefixMoments,
    cluster_costs,
    cost_function,
    placement_step,
    run_placement,
    select_nodes,
)


FIELDS = ("sigma_p2", "sigma_b2", "best_cost", "i_a")


def make_state(entries, sigma_gb2=0.0):
    values = {f: np.asarray([kw[f] for _, kw in entries], dtype=float) for f in FIELDS}
    ids = tuple(i for i, _ in entries)
    return PlacementState(node_ids=ids, **values, sigma_gb2=sigma_gb2, round=0, cost_history=())


def node(state, node_id):
    """One node's entries of the array state, by field name."""
    k = state.node_ids.index(node_id)
    return {f: getattr(state, f)[k] for f in FIELDS}


class TestCostFunction:
    def test_constant_readings_zero(self):
        assert cost_function([3.0, 3.0, 3.0]) == 0.0

    def test_two_point_variance(self):
        assert cost_function([0.0, 2.0]) == 2.0

    def test_identical_neighbor_doubles(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(200)
        v = np.var(x, ddof=1)
        # covariance of a series with itself is its variance
        assert cost_function(x, [x]) == pytest.approx(2.0 * v, rel=1e-12)

    def test_brute_force_covariance_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(50)
        nb = rng.standard_normal((3, 50))
        got = cost_function(x, nb)
        covs = []
        for k in range(3):
            xc, yc = x - x.mean(), nb[k] - nb[k].mean()
            covs.append(float(np.dot(xc, yc)) / (50 - 1))
        want = float(np.var(x, ddof=1)) + float(np.mean(covs))
        assert got == pytest.approx(want, rel=1e-12)

    def test_too_few_epochs_rejected(self):
        with pytest.raises(ValueError):
            cost_function([1.0])

    def test_misaligned_neighbors_rejected(self):
        with pytest.raises(ValueError):
            cost_function([1.0, 2.0], [[1.0, 2.0, 3.0]])


class TestPlacementStep:
    PARAMS = PlacementParams(phi1=0.5, phi2=0.5, rounds=10)

    def test_equilibrium_keeps_accumulator(self):
        # both attraction terms vanish, so sigma_p2 moves by exactly i_a
        state = make_state(
            [(1, dict(sigma_p2=2.0, sigma_b2=2.0, best_cost=9.0, i_a=0.25))], sigma_gb2=2.0
        )
        new = placement_step(state, {1: 1.0}, self.PARAMS)
        ns = node(new, 1)
        assert ns["i_a"] == 0.25
        assert ns["sigma_p2"] == 2.25

    def test_increment_formula_single_step(self):
        params = PlacementParams(phi1=0.3, phi2=0.7, rounds=10)
        state = make_state(
            [
                (1, dict(sigma_p2=2.0, sigma_b2=3.0, best_cost=9.0, i_a=0.1)),
                (2, dict(sigma_p2=1.0, sigma_b2=6.0, best_cost=11.0, i_a=0.0)),
            ],
            sigma_gb2=6.0,
        )
        new = placement_step(state, {1: 1.0, 2: 1.0}, params)
        ns = node(new, 1)
        want_ia = 0.1 + 0.3 * (3.0 - 2.0) + 0.7 * (6.0 - 2.0)
        assert ns["i_a"] == pytest.approx(want_ia, abs=1e-15)
        assert ns["sigma_p2"] == pytest.approx(2.0 + want_ia, abs=1e-15)

    def test_halfway_move_toward_global_best(self):
        params = PlacementParams(phi1=0.0, phi2=0.5, rounds=10)
        state = make_state(
            [
                (1, dict(sigma_p2=2.0, sigma_b2=2.0, best_cost=1.0, i_a=0.0)),
                (2, dict(sigma_p2=4.0, sigma_b2=4.0, best_cost=9.0, i_a=0.0)),
            ],
            sigma_gb2=4.0,
        )
        new = placement_step(state, {1: 1.0, 2: 9.0}, params)
        assert new.sigma_gb2 == 4.0
        ns = node(new, 1)
        assert ns["i_a"] == 1.0
        assert ns["sigma_p2"] == 3.0

    def test_personal_best_updates_on_improvement(self):
        state = make_state([(1, dict(sigma_p2=7.0, sigma_b2=1.0, best_cost=2.0, i_a=0.0))])
        new = placement_step(state, {1: 5.0}, self.PARAMS)
        ns = node(new, 1)
        assert ns["best_cost"] == 5.0
        assert ns["sigma_b2"] == 7.0

    def test_no_update_without_improvement(self):
        state = make_state([(1, dict(sigma_p2=7.0, sigma_b2=1.0, best_cost=6.0, i_a=0.0))])
        new = placement_step(state, {1: 5.0}, self.PARAMS)
        assert node(new, 1)["best_cost"] == 6.0
        assert node(new, 1)["sigma_b2"] == 1.0

    def test_global_best_follows_best_cost(self):
        state = make_state(
            [
                (1, dict(sigma_p2=3.0, sigma_b2=3.0, best_cost=-math.inf, i_a=0.0)),
                (2, dict(sigma_p2=8.0, sigma_b2=8.0, best_cost=-math.inf, i_a=0.0)),
            ]
        )
        new = placement_step(state, {1: 2.0, 2: 10.0}, self.PARAMS)
        assert new.sigma_gb2 == 8.0

    def test_tied_best_cost_goes_to_the_smaller_id(self):
        state = make_state(
            [
                (1, dict(sigma_p2=3.0, sigma_b2=3.0, best_cost=-math.inf, i_a=0.0)),
                (2, dict(sigma_p2=8.0, sigma_b2=8.0, best_cost=-math.inf, i_a=0.0)),
            ]
        )
        new = placement_step(state, {1: 10.0, 2: 10.0}, self.PARAMS)
        assert new.sigma_gb2 == 3.0

    def test_fixed_point_is_stationary(self):
        state = make_state(
            [
                (1, dict(sigma_p2=5.0, sigma_b2=5.0, best_cost=9.0, i_a=0.0)),
                (2, dict(sigma_p2=5.0, sigma_b2=5.0, best_cost=3.0, i_a=0.0)),
            ],
            sigma_gb2=5.0,
        )
        new = placement_step(state, {1: 1.0, 2: 1.0}, self.PARAMS)
        for nid in new.node_ids:
            ns = node(new, nid)
            assert ns["sigma_p2"] == 5.0 and ns["i_a"] == 0.0
        assert new.sigma_gb2 == 5.0

    def test_input_state_left_unchanged(self):
        state = make_state([(1, dict(sigma_p2=7.0, sigma_b2=1.0, best_cost=2.0, i_a=0.5))])
        before = {f: getattr(state, f).copy() for f in FIELDS}
        placement_step(state, {1: 5.0}, self.PARAMS)
        for f in FIELDS:
            assert np.array_equal(getattr(state, f), before[f])

    def test_misaligned_costs_rejected(self):
        state = make_state([(1, dict(sigma_p2=1.0, sigma_b2=1.0, best_cost=0.0, i_a=0.0))])
        with pytest.raises(ValueError):
            placement_step(state, {2: 1.0}, self.PARAMS)

    def test_history_appends_mean(self):
        state = make_state(
            [
                (1, dict(sigma_p2=1.0, sigma_b2=1.0, best_cost=0.0, i_a=0.0)),
                (2, dict(sigma_p2=1.0, sigma_b2=1.0, best_cost=0.0, i_a=0.0)),
            ]
        )
        new = placement_step(state, {1: 2.0, 2: 4.0}, self.PARAMS)
        assert new.cost_history == (3.0,)
        assert new.round == 1


@pytest.fixture(scope="module")
def sun_shade_run(deployment):
    scn = data_io.sun_shade_scenario(deployment)
    matrix = data_io.generate_synthetic(scn, deployment)
    clusters = form_clusters(deployment, 6.0)
    params = PlacementParams(phi1=0.5, phi2=0.5, rounds=300)
    record = []
    state, costs = run_placement(matrix, clusters, params, record=record)
    return deployment, matrix, clusters, state, costs, record


class TestRunPlacement:
    def test_single_round_history(self, deployment):
        scn = data_io.sun_shade_scenario(deployment, epochs=50)
        matrix = data_io.generate_synthetic(scn, deployment)
        clusters = form_clusters(deployment, 6.0)
        state, _ = run_placement(matrix, clusters, PlacementParams(rounds=1))
        assert len(state.cost_history) == 1

    def test_identical_readings_symmetric_state(self, deployment):
        # every node shows the same series, so variances and bests coincide
        ids = deployment.ids()
        epochs = tuple(range(10))
        series = np.arange(10.0)
        values = np.tile(series, (len(ids), 1))
        matrix = data_io.ReadingMatrix(
            node_ids=tuple(ids),
            epochs=epochs,
            values=values,
            missing=np.zeros_like(values, dtype=bool),
        )
        clusters = form_clusters(deployment, 6.0)
        state, _ = run_placement(matrix, clusters, PlacementParams(rounds=1))
        shared = float(np.var(series, ddof=1))
        assert state.sigma_gb2 == pytest.approx(shared, rel=1e-12)
        assert all(b2 == state.sigma_b2[0] for b2 in state.sigma_b2)

    def test_best_cost_monotone_per_round(self, sun_shade_run):
        *_, record = sun_shade_run
        for prev, cur in zip(record, record[1:]):
            for a, b in zip(prev.best_cost, cur.best_cost):
                assert b >= a

    def test_global_best_dominates(self, sun_shade_run):
        *_, record = sun_shade_run
        for st in record:
            leader = max(st.best_cost)
            assert all(c <= leader for c in st.best_cost)

    def test_saturation_of_mean_cost(self, sun_shade_run):
        _, _, _, state, _, _ = sun_shade_run
        tail = np.asarray(state.cost_history[-30:])
        assert (tail.max() - tail.min()) / abs(tail.mean()) < 0.01

    def test_determinism_bitwise(self, deployment):
        scn = data_io.sun_shade_scenario(deployment, epochs=60)
        matrix = data_io.generate_synthetic(scn, deployment)
        clusters = form_clusters(deployment, 6.0)
        params = PlacementParams(rounds=40)
        a, costs_a = run_placement(matrix, clusters, params)
        b, costs_b = run_placement(matrix, clusters, params)
        assert a.cost_history == b.cost_history
        assert a.node_ids == b.node_ids and (a.sigma_gb2, a.round) == (b.sigma_gb2, b.round)
        for f in FIELDS:
            assert np.array_equal(getattr(a, f), getattr(b, f))
        assert costs_a == costs_b

    def test_returned_costs_are_the_full_series_costs(self, sun_shade_run):
        _, matrix, clusters, _, costs, _ = sun_shade_run
        assert costs == cluster_costs(matrix, clusters)

    def test_missing_readings_rejected(self, deployment):
        scn = data_io.sun_shade_scenario(deployment, epochs=50)
        matrix = data_io.generate_synthetic(scn, deployment)
        short = data_io.ReadingMatrix(
            node_ids=matrix.node_ids[:-1],
            epochs=matrix.epochs,
            values=matrix.values[:-1],
            missing=matrix.missing[:-1],
        )
        clusters = form_clusters(deployment, 6.0)
        with pytest.raises(ValueError):
            run_placement(short, clusters, PlacementParams(rounds=2))


def two_clusters(values, missing):
    """Rows 1..4 as one cluster and rows 5..n as another."""
    n = len(values)
    matrix = data_io.ReadingMatrix(
        node_ids=tuple(range(1, n + 1)),
        epochs=tuple(range(values.shape[1])),
        values=np.where(missing, np.nan, values),
        missing=missing,
    )
    clusters = ClusterSet(
        clusters=(
            Cluster(head=1, members=frozenset({2, 3, 4}), order_index=1),
            Cluster(head=5, members=frozenset(range(6, n + 1)), order_index=2),
        ),
        radius=1.0,
    )
    return matrix, clusters


class TestCovariance:
    def test_matches_np_cov_on_shared_epochs(self):
        rng = np.random.default_rng(3)
        values = rng.normal(20.0, 3.0, size=(7, 30))
        missing = rng.random((7, 30)) < 0.3
        missing[1, :6] = True  # node 2 shares no epoch with anyone before epoch 6
        matrix, clusters = two_clusters(values, missing)
        moments = PrefixMoments(matrix, clusters)
        nones = 0
        for group in ([1, 2, 3, 4], [5, 6, 7]):
            for i in group:
                for j in group:
                    if i == j:
                        continue
                    for upto in range(1, 31):
                        both = ~missing[i - 1, :upto] & ~missing[j - 1, :upto]
                        got = moments.covariance(i, j, upto)
                        if both.sum() < 2:
                            assert got is None, (i, j, upto)
                            nones += 1
                        else:
                            want = np.cov(values[i - 1, :upto][both], values[j - 1, :upto][both])[0, 1]
                            assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12), (i, j, upto)
        assert nones > 0

    @pytest.mark.parametrize("upto", [0, -1, -30])
    def test_upto_below_one_rejected(self, upto):
        matrix, clusters = two_clusters(np.arange(35.0).reshape(7, 5) ** 2, np.zeros((7, 5), dtype=bool))
        with pytest.raises(ValueError, match="at least 1 epoch"):
            PrefixMoments(matrix, clusters).covariance(1, 2, upto)

    @pytest.mark.parametrize("upto", [6, 10**6])
    def test_upto_capped_at_the_series(self, upto):
        matrix, clusters = two_clusters(np.arange(35.0).reshape(7, 5) ** 2, np.zeros((7, 5), dtype=bool))
        moments = PrefixMoments(matrix, clusters)
        assert moments.covariance(1, 2, upto) == moments.covariance(1, 2, 5)

    @pytest.mark.parametrize("i, j", [(2, 2), (1, 99), (99, 1), (1, 5), (6, 3)])
    def test_not_a_pair_of_one_cluster(self, i, j):
        matrix, clusters = two_clusters(np.ones((7, 5)), np.zeros((7, 5), dtype=bool))
        with pytest.raises(KeyError):
            PrefixMoments(matrix, clusters).covariance(i, j, 5)


def test_run_placement_holds_no_full_pair_block():
    """Pair prefix sums are built a block of pairs at a time and only their
    window columns are kept: scoring 51 windows of one 40-node cluster over
    1000 epochs peaks well below that cluster's (4, P, T) pair block."""
    m, t = 40, 1000
    matrix = data_io.ReadingMatrix(
        node_ids=tuple(range(1, m + 1)),
        epochs=tuple(range(t)),
        values=np.random.default_rng(0).normal(size=(m, t)),
        missing=np.zeros((m, t), dtype=bool),
    )
    clusters = ClusterSet(clusters=(Cluster(head=1, members=frozenset(range(2, m + 1)), order_index=1),), radius=1.0)
    block = 4 * (m * (m - 1) // 2) * t * 8
    tracemalloc.start()
    try:
        run_placement(matrix, clusters, PlacementParams(rounds=50))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < block / 2, f"peak {peak} B against a {block} B pair block"


class TestSelectNodes:
    def test_zero_threshold_selects_all(self, sun_shade_run):
        _, _, _, _, costs, _ = sun_shade_run
        assert select_nodes(costs, 0.0) == set(costs)

    def test_threshold_above_max_selects_none(self, sun_shade_run):
        _, _, _, _, costs, _ = sun_shade_run
        assert select_nodes(costs, 1e9) == set()

    def test_monotone_shrinkage(self, sun_shade_run):
        _, _, _, _, costs, _ = sun_shade_run
        prev = set(costs)
        for t in np.linspace(0.0, max(costs.values()) + 1.0, 25):
            cur = select_nodes(costs, float(t))
            assert cur <= prev
            prev = cur

    def test_selects_sun_group(self, sun_shade_run):
        dep, _, _, _, costs, _ = sun_shade_run
        sun, _ = data_io.sun_shade_groups(dep)
        assert select_nodes(costs, 5.0) == sun


class TestParams:
    def test_factors_must_not_both_vanish(self):
        with pytest.raises(ValueError):
            PlacementParams(phi1=0.0, phi2=0.0)

    def test_rounds_at_least_one(self):
        with pytest.raises(ValueError):
            PlacementParams(rounds=0)


@st.composite
def gapped_partitions(draw, min_present=0):
    """Small integer-valued reading matrices with random gaps, split into
    random clusters; every node keeps at least ``min_present`` leading epochs."""
    n = draw(st.integers(1, 7))
    t = draw(st.integers(max(2, min_present), 12))
    values = draw(arrays(float, (n, t), elements=st.integers(-20, 20).map(float)))
    missing = draw(arrays(bool, (n, t), elements=st.booleans()))
    missing[:, :min_present] = False
    labels = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    groups = sorted(
        ([i + 1 for i in range(n) if labels[i] == g] for g in set(labels)),
        key=lambda g: (-len(g), g[0]),
    )
    clusters = ClusterSet(
        clusters=tuple(
            Cluster(head=g[0], members=frozenset(g[1:]), order_index=k)
            for k, g in enumerate(groups, start=1)
        ),
        radius=1.0,
    )
    matrix = data_io.ReadingMatrix(
        node_ids=tuple(range(1, n + 1)),
        epochs=tuple(range(t)),
        values=np.where(missing, np.nan, values),
        missing=missing,
    )
    return matrix, clusters


def brute_force_cost(matrix, neighbors, i, k):
    """Cost of node row i over the first k epochs, pairwise-complete, two-pass."""
    seen = ~matrix.missing[:, :k]
    x = matrix.values[:, :k]
    if seen[[i, *neighbors]].all():
        return cost_function(x[i], x[neighbors])
    xs = x[i][seen[i]]
    cost = float(np.var(xs, ddof=1)) if xs.size >= 2 else 0.0
    covs = []
    for j in neighbors:
        both = seen[i] & seen[j]
        if both.sum() >= 2:
            covs.append(float(np.cov(x[i][both], x[j][both])[0, 1]))
    return cost + (float(np.mean(covs)) if covs else 0.0)


def assert_every_window_matches_brute_force(got, matrix, clusters):
    windows = range(2, len(matrix.epochs) + 1)
    assert got.shape == (len(windows), len(matrix.node_ids))
    for c in clusters:
        group = sorted(c.node_ids())
        for nid in group:
            neighbors = [j - 1 for j in group if j != nid]
            for w, k in enumerate(windows):
                want = brute_force_cost(matrix, neighbors, nid - 1, k)
                assert math.isclose(got[w, nid - 1], want, rel_tol=1e-9, abs_tol=1e-9), (nid, k)


class TestArrayKernelProperties:
    @settings(max_examples=60, deadline=None)
    @given(gapped_partitions())
    def test_every_window_matches_brute_force(self, case):
        matrix, clusters = case
        got = PrefixMoments(matrix, clusters).costs(range(2, len(matrix.epochs) + 1))
        assert_every_window_matches_brute_force(got, matrix, clusters)

    @settings(max_examples=60, deadline=None)
    @given(gapped_partitions(), st.sampled_from([1e5, 1e7]))
    def test_offset_readings_score_as_without_the_offset(self, case, offset):
        """A constant added to every reading moves no cost; the oracle scores
        the readings without it."""
        matrix, clusters = case
        lifted = data_io.ReadingMatrix(matrix.node_ids, matrix.epochs, matrix.values + offset, matrix.missing)
        got = PrefixMoments(lifted, clusters).costs(range(2, len(matrix.epochs) + 1))
        assert_every_window_matches_brute_force(got, matrix, clusters)

    @settings(max_examples=30, deadline=None)
    @given(gapped_partitions(min_present=2), st.integers(1, 12))
    def test_best_cost_monotone_and_leader_dominates(self, case, rounds):
        matrix, clusters = case
        record = []
        run_placement(matrix, clusters, PlacementParams(rounds=rounds), record=record)
        assert len(record) == rounds
        for prev, cur in zip(record, record[1:]):
            assert (cur.best_cost >= prev.best_cost).all()
        for st_ in record:
            leader = np.flatnonzero(st_.best_cost == st_.best_cost.max())[0]
            assert st_.sigma_gb2 == st_.sigma_b2[leader]
