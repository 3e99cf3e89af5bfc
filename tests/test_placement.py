import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from wsn3d import data_io, placement
from wsn3d.clustering import Cluster, ClusterSet, form_clusters
from wsn3d.errors import ConfigurationError, DataFormatError
from wsn3d.estimation import cluster_accuracy
from wsn3d.geometry import CorrelationModel
from wsn3d.placement import (
    PlacementState,
    PrefixMoments,
    placement_step,
    run_placement,
    select_nodes,
)


def cost_function(readings, neighbor_readings=None) -> float:
    """Cost of one node: sample variance of its readings plus the mean sample
    covariance with each aligned neighbor series (zero when no neighbors)."""
    x = np.asarray(readings, dtype=float)
    if x.size < 2:
        raise ValueError(f"need at least 2 epochs to form a variance, got {x.size}")
    cost = float(np.var(x, ddof=1))
    if neighbor_readings is not None:
        nb = np.atleast_2d(np.asarray(neighbor_readings, dtype=float))
        if nb.size:
            if nb.shape[1] != x.size:
                raise ValueError("neighbor readings must align with the node's epochs")
            xc = x - x.mean()
            nc = nb - nb.mean(axis=1, keepdims=True)
            covs = nc @ xc / (x.size - 1)
            cost += float(covs.mean())
    return cost


FIELDS = ("sigma_p2", "sigma_b2", "best_cost", "i_a")


def make_state(entries, sigma_gb2=0.0):
    values = {f: np.asarray([kw[f] for _, kw in entries], dtype=float) for f in FIELDS}
    ids = tuple(i for i, _ in entries)
    return PlacementState(node_ids=ids, **values, sigma_gb2=sigma_gb2, cost_history=())


def node(state, node_id):
    """One node's entries of the array state, by field name."""
    k = state.node_ids.index(node_id)
    return {f: getattr(state, f)[k] for f in FIELDS}


def bits(state):
    """Every field of ``state`` with floats as bytes, so -0.0 and 0.0 differ and NaN equals NaN."""
    scalars = np.array([state.sigma_gb2, *state.cost_history]).tobytes()
    return (state.node_ids, scalars, *(getattr(state, f).tobytes() for f in FIELDS))


def reference_step(state, c):
    """One round of the search as a per-round loop computes it: the reference
    for placement_step's all-rounds array work."""
    c = np.asarray(c, dtype=float)
    improved = c > state.best_cost
    best_cost = np.where(improved, c, state.best_cost)
    sigma_b2 = np.where(improved, state.sigma_p2, state.sigma_b2)
    sigma_gb2 = float(sigma_b2[np.argmax(best_cost)])
    i_a = state.i_a + 0.5 * (sigma_b2 - state.sigma_p2) + 0.5 * (sigma_gb2 - state.sigma_p2)
    return PlacementState(
        state.node_ids, state.sigma_p2 + i_a, sigma_b2, best_cost, i_a, sigma_gb2,
        state.cost_history + (float(np.mean(c)),),
    )


# costs with repeats and ties: both zeros, NaN (never an improvement) and -inf (the start's best)
TIED_COSTS = st.sampled_from([-math.inf, -1.0, -0.0, 0.0, 0.5, 2.0, math.nan])


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
    def test_equilibrium_keeps_accumulator(self):
        # both attraction terms vanish, so sigma_p2 moves by exactly i_a
        state = make_state(
            [(1, dict(sigma_p2=2.0, sigma_b2=2.0, best_cost=9.0, i_a=0.25))], sigma_gb2=2.0
        )
        new = placement_step(state, [1.0])
        ns = node(new, 1)
        assert ns["i_a"] == 0.25
        assert ns["sigma_p2"] == 2.25

    def test_increment_formula_single_step(self):
        state = make_state(
            [
                (1, dict(sigma_p2=2.0, sigma_b2=3.0, best_cost=9.0, i_a=0.1)),
                (2, dict(sigma_p2=1.0, sigma_b2=6.0, best_cost=11.0, i_a=0.0)),
            ],
            sigma_gb2=6.0,
        )
        new = placement_step(state, [1.0, 1.0])
        ns = node(new, 1)
        want_ia = 0.1 + 0.5 * (3.0 - 2.0) + 0.5 * (6.0 - 2.0)
        assert ns["i_a"] == pytest.approx(want_ia, abs=1e-15)
        assert ns["sigma_p2"] == pytest.approx(2.0 + want_ia, abs=1e-15)

    def test_halfway_move_toward_global_best(self):
        # node 1's personal best is its present variance, so only the global best pulls
        state = make_state(
            [
                (1, dict(sigma_p2=2.0, sigma_b2=2.0, best_cost=1.0, i_a=0.0)),
                (2, dict(sigma_p2=4.0, sigma_b2=4.0, best_cost=9.0, i_a=0.0)),
            ],
            sigma_gb2=4.0,
        )
        new = placement_step(state, [1.0, 9.0])
        assert new.sigma_gb2 == 4.0
        ns = node(new, 1)
        assert ns["i_a"] == 1.0
        assert ns["sigma_p2"] == 3.0

    def test_personal_best_updates_on_improvement(self):
        state = make_state([(1, dict(sigma_p2=7.0, sigma_b2=1.0, best_cost=2.0, i_a=0.0))])
        new = placement_step(state, [5.0])
        ns = node(new, 1)
        assert ns["best_cost"] == 5.0
        assert ns["sigma_b2"] == 7.0

    def test_no_update_without_improvement(self):
        state = make_state([(1, dict(sigma_p2=7.0, sigma_b2=1.0, best_cost=6.0, i_a=0.0))])
        new = placement_step(state, [5.0])
        assert node(new, 1)["best_cost"] == 6.0
        assert node(new, 1)["sigma_b2"] == 1.0

    def test_global_best_follows_best_cost(self):
        state = make_state(
            [
                (1, dict(sigma_p2=3.0, sigma_b2=3.0, best_cost=-math.inf, i_a=0.0)),
                (2, dict(sigma_p2=8.0, sigma_b2=8.0, best_cost=-math.inf, i_a=0.0)),
            ]
        )
        new = placement_step(state, [2.0, 10.0])
        assert new.sigma_gb2 == 8.0

    def test_tied_best_cost_goes_to_the_smaller_id(self):
        state = make_state(
            [
                (1, dict(sigma_p2=3.0, sigma_b2=3.0, best_cost=-math.inf, i_a=0.0)),
                (2, dict(sigma_p2=8.0, sigma_b2=8.0, best_cost=-math.inf, i_a=0.0)),
            ]
        )
        new = placement_step(state, [10.0, 10.0])
        assert new.sigma_gb2 == 3.0

    def test_fixed_point_is_stationary(self):
        state = make_state(
            [
                (1, dict(sigma_p2=5.0, sigma_b2=5.0, best_cost=9.0, i_a=0.0)),
                (2, dict(sigma_p2=5.0, sigma_b2=5.0, best_cost=3.0, i_a=0.0)),
            ],
            sigma_gb2=5.0,
        )
        new = placement_step(state, [1.0, 1.0])
        for nid in new.node_ids:
            ns = node(new, nid)
            assert ns["sigma_p2"] == 5.0 and ns["i_a"] == 0.0
        assert new.sigma_gb2 == 5.0

    def test_input_state_left_unchanged(self):
        state = make_state([(1, dict(sigma_p2=7.0, sigma_b2=1.0, best_cost=2.0, i_a=0.5))])
        before = {f: getattr(state, f).copy() for f in FIELDS}
        placement_step(state, [5.0])
        for f in FIELDS:
            assert np.array_equal(getattr(state, f), before[f])

    def test_misaligned_costs_rejected(self):
        state = make_state([(1, dict(sigma_p2=1.0, sigma_b2=1.0, best_cost=0.0, i_a=0.0))])
        with pytest.raises(ValueError):
            placement_step(state, [1.0, 1.0])
        with pytest.raises(ValueError):
            placement_step(state, [[[1.0]]])

    def test_fixed_bests_repeat_every_six_rounds(self):
        # a constant cost row improves every best in the first round only; from
        # then on (e, i_a) turns through the period-6 map of the module docstring
        state = make_state(
            [
                (1, dict(sigma_p2=2.0, sigma_b2=0.0, best_cost=-math.inf, i_a=0.3)),
                (2, dict(sigma_p2=5.0, sigma_b2=0.0, best_cost=-math.inf, i_a=-1.2)),
                (3, dict(sigma_p2=0.5, sigma_b2=0.0, best_cost=-math.inf, i_a=0.0)),
            ]
        )
        record = []
        placement_step(state, np.tile([1.0, 3.0, 2.0], (30, 1)), record)
        assert all(s.sigma_gb2 == 5.0 for s in record)
        assert not np.allclose(record[3].sigma_p2, record[0].sigma_p2)  # it moves, and never settles
        for k in range(len(record) - 6):
            for f in ("sigma_p2", "i_a"):
                np.testing.assert_allclose(getattr(record[k + 6], f), getattr(record[k], f), rtol=0, atol=1e-12)

    def test_history_appends_mean(self):
        state = make_state(
            [
                (1, dict(sigma_p2=1.0, sigma_b2=1.0, best_cost=0.0, i_a=0.0)),
                (2, dict(sigma_p2=1.0, sigma_b2=1.0, best_cost=0.0, i_a=0.0)),
            ]
        )
        new = placement_step(state, [2.0, 4.0])
        assert new.cost_history == (3.0,)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_rounds_in_one_call_match_one_call_per_round(self, data):
        """One R-round call gives, bit for bit, the states of R one-row calls
        and of the per-round reference, with repeated and tied costs, NaN and
        both zeros among them; recorded states share no array and keep their
        values while later rounds run."""
        n, rounds = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 8))
        costs = data.draw(arrays(float, (rounds, n), elements=TIED_COSTS))
        state = PlacementState(
            tuple(range(1, n + 1)),
            **{f: data.draw(arrays(float, n, elements=st.sampled_from([-1.0, 0.0, 0.5, 2.0]))) for f in FIELDS[:2]},
            best_cost=data.draw(arrays(float, n, elements=TIED_COSTS)),
            i_a=data.draw(arrays(float, n, elements=st.sampled_from([-0.25, 0.0, 0.25]))),
            sigma_gb2=0.5,
            cost_history=(1.5,),
        )
        want, one, ref = [], state, state
        for row in costs:
            one, ref = placement_step(one, row), reference_step(ref, row)
            want.append(bits(one))
            assert bits(ref) == want[-1]

        record = []
        assert bits(placement_step(state, costs, record)) == want[-1]
        assert [bits(s) for s in record] == want
        arrays_of = [[getattr(s, f) for f in FIELDS] for s in record]
        for k, earlier in enumerate(arrays_of):
            assert not any(np.shares_memory(a, b) for later in arrays_of[k + 1:] for a in earlier for b in later)

        split = data.draw(st.integers(0, rounds))
        record = []
        mid = placement_step(state, costs[:split], record)
        placement_step(mid, costs[split:], record)
        assert [bits(s) for s in record] == want


@pytest.fixture(scope="module")
def sun_shade_run(deployment):
    matrix = data_io.sun_shade_readings(deployment)
    clusters = form_clusters(deployment, 6.0)
    record = []
    state, costs = run_placement(matrix, clusters, rounds=300, record=record)
    return deployment, matrix, clusters, state, costs, record


class TestRunPlacement:
    def test_single_round_history(self, deployment):
        matrix = data_io.sun_shade_readings(deployment, epochs=50)
        clusters = form_clusters(deployment, 6.0)
        state, _ = run_placement(matrix, clusters, rounds=1)
        assert len(state.cost_history) == 1

    def test_identical_readings_symmetric_state(self, deployment):
        # every node shows the same series, so variances and bests coincide
        series = np.arange(10.0)
        matrix = data_io.ReadingMatrix(
            node_ids=tuple(deployment.node_ids.tolist()),
            epochs=tuple(range(10)),
            values=np.tile(series, (len(deployment), 1)),
        )
        clusters = form_clusters(deployment, 6.0)
        state, _ = run_placement(matrix, clusters, rounds=1)
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
        matrix = data_io.sun_shade_readings(deployment, epochs=60)
        clusters = form_clusters(deployment, 6.0)
        a, costs_a = run_placement(matrix, clusters, rounds=40)
        b, costs_b = run_placement(matrix, clusters, rounds=40)
        assert a.cost_history == b.cost_history
        assert a.node_ids == b.node_ids and a.sigma_gb2 == b.sigma_gb2
        for f in FIELDS:
            assert np.array_equal(getattr(a, f), getattr(b, f))
        assert costs_a == costs_b

    def test_returned_costs_are_the_full_series_costs(self, sun_shade_run):
        _, matrix, clusters, _, costs, _ = sun_shade_run
        moments = PrefixMoments(matrix, clusters)
        full = dict(zip(moments.node_ids, moments.costs([len(matrix.epochs)])[0].tolist()))
        assert costs == full
        # the last round's window caps to the full series whatever the round count
        for rounds in (1, 2, 7, 30, 299):
            assert run_placement(matrix, clusters, rounds)[1] == full, rounds

    @pytest.mark.parametrize("offset, bound", [(0.0, 1e-14), (1e3, 1e-13), (1e5, 1e-11), (1e7, 1e-9)])
    def test_full_series_costs_keep_their_digits_under_an_offset(self, sun_shade_run, offset, bound):
        """A constant added to every reading of the bundled run moves the
        full-series costs from a two-pass math.fsum reference on the readings
        without it by at most ``bound`` relative (the bounds of ROADMAP item
        6's table). The run has no missing cell, so its clusters take the
        neighbor-sum path of PrefixMoments.costs."""
        _, matrix, clusters, _, _, _ = sun_shade_run
        assert not matrix.missing.any()
        t = len(matrix.epochs)
        centered = {nid: x - math.fsum(x) / t for nid, x in zip(matrix.node_ids, matrix.values)}
        want = {}
        for c in clusters:
            group = sorted({c.head, *c.members})
            for i in group:
                cost = math.fsum(centered[i] ** 2) / (t - 1)
                covs = [math.fsum(centered[i] * centered[j]) / (t - 1) for j in group if j != i]
                want[i] = cost + (math.fsum(covs) / len(covs) if covs else 0.0)
        lifted = data_io.ReadingMatrix(matrix.node_ids, matrix.epochs, matrix.values + offset)
        _, got = run_placement(lifted, clusters, rounds=1)
        worst = max(abs(got[i] - w) / abs(w) for i, w in want.items())
        assert worst <= bound, f"relative error {worst:.3g} at offset {offset:g}"

    def test_missing_readings_rejected(self, deployment):
        matrix = data_io.sun_shade_readings(deployment, epochs=50)
        short = data_io.ReadingMatrix(
            node_ids=matrix.node_ids[:-1],
            epochs=matrix.epochs,
            values=matrix.values[:-1],
        )
        clusters = form_clusters(deployment, 6.0)
        message = rf"clustered nodes with fewer than 2 readings: \[{matrix.node_ids[-1]}\]$"
        with pytest.raises(DataFormatError, match=message):
            run_placement(short, clusters, rounds=2)

    def test_empty_partition_rejected(self, deployment):
        matrix = data_io.sun_shade_readings(deployment, epochs=50)
        with pytest.raises(ConfigurationError, match="nothing to place"):
            run_placement(matrix, ClusterSet((), 6.0), rounds=2)

    def test_every_short_node_is_named(self, deployment):
        # node 1 has no row and node 3 one present reading; both are clustered
        matrix = data_io.sun_shade_readings(deployment, epochs=50)
        ids = tuple(i for i in matrix.node_ids if i != 1)
        values = matrix.values[[matrix.node_ids.index(i) for i in ids]]
        values[ids.index(3), 1:] = np.nan
        short = data_io.ReadingMatrix(ids, matrix.epochs, values)
        with pytest.raises(DataFormatError, match=r"fewer than 2 readings: \[1, 3\]$"):
            run_placement(short, form_clusters(deployment, 6.0), rounds=2)


def two_clusters(values, missing):
    """Rows 1..4 as one cluster and rows 5..n as another."""
    n = len(values)
    matrix = data_io.ReadingMatrix(
        node_ids=tuple(range(1, n + 1)),
        epochs=tuple(range(values.shape[1])),
        values=np.where(missing, np.nan, values),
    )
    clusters = ClusterSet(
        clusters=(
            Cluster(head=1, members=frozenset({2, 3, 4})),
            Cluster(head=5, members=frozenset(range(6, n + 1))),
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


class TestMomentsInputs:
    def test_clustered_node_without_a_row_rejected(self):
        matrix, clusters = two_clusters(np.ones((7, 5)), np.zeros((7, 5), dtype=bool))
        rows = data_io.ReadingMatrix(matrix.node_ids[:5], matrix.epochs, matrix.values[:5])
        with pytest.raises(ValueError, match=re.escape("readings missing for nodes [6, 7]")):
            PrefixMoments(rows, clusters)

    @pytest.mark.parametrize("windows, got", [([1], 1), ([5, 1, 3], 1), ([0], 0), ([4, -2], -2)])
    def test_window_below_two_epochs_rejected(self, windows, got):
        matrix, clusters = two_clusters(np.arange(35.0).reshape(7, 5) ** 2, np.zeros((7, 5), dtype=bool))
        with pytest.raises(ValueError, match=f"^need at least 2 epochs, got {got}$"):
            PrefixMoments(matrix, clusters).costs(windows)


def sun_shade_readings(matrix, gapped):
    """The bundled sun-shade readings, or a copy with a seeded 5% of cells missing."""
    if not gapped:
        return matrix
    values = matrix.values.copy()
    values[np.random.default_rng(27).random(values.shape) < 0.05] = np.nan
    return data_io.ReadingMatrix(matrix.node_ids, matrix.epochs, values)


def stacked_node_sums(matrix):
    """(presence, shifted values, (3, N, T) prefix sums) in id order: one
    np.cumsum over the stacked presence, shifted values and their squares."""
    values = matrix.values[np.argsort(matrix.node_ids)]
    present = ~np.isnan(values)
    values = np.where(present, values, 0.0)
    values -= values.sum(axis=1, keepdims=True) / np.maximum(present.sum(axis=1, keepdims=True), 1)
    values = np.where(present, values, 0.0)
    return present, values, np.cumsum(np.stack([present.astype(float), values, values**2]), axis=2)


@pytest.mark.parametrize("gapped", [False, True], ids=["gap-free", "gapped"])
class TestMomentsBuild:
    def test_node_sums_are_the_stacked_cumsum(self, sun_shade_run, gapped):
        """The node sums ``costs`` reads at its window ends, taken at every
        epoch column, hold the bits of one np.cumsum over the stacked
        presence, shifted values and their squares."""
        _, matrix, clusters, *_ = sun_shade_run
        matrix = sun_shade_readings(matrix, gapped)
        moments = PrefixMoments(matrix, clusters)
        assert moments.node_ids.tolist() == sorted(matrix.node_ids)
        got = np.stack(moments._window_sums(np.arange(len(matrix.epochs))))
        want = stacked_node_sums(matrix)[2]
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_build_holds_no_second_copy_of_the_sums(self, sun_shade_run, gapped):
        """Each moment is summed in place in one (N, T) scratch block and its
        window-end columns are copied out unbuffered: taking the sums at every
        column peaks below 1.5 times the three (N, T) arrays it returns (a
        stacked list and its cumsum took 3.4 times)."""
        _, matrix, clusters, *_ = sun_shade_run
        moments = PrefixMoments(sun_shade_readings(matrix, gapped), clusters)
        tracemalloc.start()
        try:
            sums = moments._window_sums(np.arange(len(matrix.epochs)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = sum(s.nbytes for s in sums)
        assert peak < 1.5 * held, f"peak {peak} B against {held} B of sums"


def test_run_placement_holds_no_node_sum_array(sun_shade_run):
    """Only the window-end columns of the node sums are kept, so the bundled
    gap-free run peaks below 1.5 times the (3, N, T) float array of every
    node's prefix sums at every epoch (holding that array took 2.6 times)."""
    _, matrix, clusters, *_ = sun_shade_run
    assert not matrix.missing.any()
    nbytes = 3 * matrix.values.size * 8
    tracemalloc.start()
    try:
        run_placement(matrix, clusters)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * nbytes, f"peak {peak} B against a {nbytes} B node-sum array"


def test_gap_free_cluster_scored_in_member_blocks(sun_shade_run):
    """The bundled run's 42-member cluster spans two or more member blocks; every
    cost keeps the bits of scoring each gap-free cluster whole, with
    o = x.sum(axis=0) - x as each member's neighbor sum."""
    _, matrix, clusters, *_ = sun_shade_run
    moments = PrefixMoments(matrix, clusters)
    t = len(matrix.epochs)
    assert max(len(m) for m in moments._members) > max(1, placement._MEMBER_CELLS // t)
    windows = list(range(2, t + 1))
    at = np.asarray(windows) - 1
    present, values, nodes = stacked_node_sums(matrix)
    want = placement._variance(*nodes[:, :, at]).T
    for members in moments._members:
        assert present[members].all()
        x = values[members]
        o = x.sum(axis=0) - x
        so, sxo = np.cumsum(o, axis=1)[:, at], np.cumsum(x * o, axis=1)[:, at]
        cov = placement._covariance(at + 1, nodes[1, members[:, None], at], so, sxo)
        want[:, members] += (cov / (members.size - 1)).T
    assert moments.costs(windows).tobytes() == np.ascontiguousarray(want).tobytes()
    assert moments.costs([]).shape == (0, len(moments.node_ids))


def placement_peak(rounds):
    """(peak traced bytes, pair block bytes) of a run_placement over one
    40-node cluster and 1000 epochs; the block is that cluster's (4, P, T)
    array of per-pair prefix sums."""
    m, t = 40, 1000
    matrix = data_io.ReadingMatrix(
        node_ids=tuple(range(1, m + 1)),
        epochs=tuple(range(t)),
        values=np.random.default_rng(0).normal(size=(m, t)),
    )
    clusters = ClusterSet(clusters=(Cluster(head=1, members=frozenset(range(2, m + 1))),), radius=1.0)
    block = 4 * (m * (m - 1) // 2) * t * 8
    tracemalloc.start()
    try:
        run_placement(matrix, clusters, rounds=rounds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, block


def test_run_placement_holds_no_full_pair_block():
    """Pair sums come from Gram products of 32-epoch blocks, and windows are
    scored a chunk at a time: scoring 51 windows of one 40-node cluster over
    1000 epochs peaks well below that cluster's (4, P, T) pair block."""
    peak, block = placement_peak(50)
    assert peak < block / 2, f"peak {peak} B against a {block} B pair block"


def test_run_placement_memory_does_not_follow_the_window_count():
    """At the default 300 rounds the 301 windows are still scored a chunk at a
    time, so the peak stays below the pair block too."""
    peak, block = placement_peak(300)
    assert peak < 0.85 * block, f"peak {peak} B against a {block} B pair block"


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

    def test_selected_nodes_score_at_most_their_whole_cluster(self, sun_shade_run):
        """The threshold-5 selection scored by the accuracy `estimate` prints:
        the event at the centroid, theta 30, sigma_s2 1 and sigma_n2 0.05. A
        cluster's selected nodes are scored as a cluster of their own. Wherever
        the threshold drops nodes from a cluster, its accuracy goes down."""
        dep, _, clusters, _, costs, _ = sun_shade_run
        selected = select_nodes(costs, 5.0)
        assert len(selected) == 24
        model, centroid = CorrelationModel(theta=30.0), dep.centroid()

        def accuracy(cluster):
            return cluster_accuracy(dep, [cluster], model, centroid, 1.0, 0.05)[0].accuracy

        kept = {c.head: sorted({c.head, *c.members} & selected) for c in clusters}
        assert kept[10] == kept[51] == []
        # head -> (whole cluster, selected nodes, number selected)
        want = {34: (0.9056, 0.8688, 17), 49: (0.7144, 0.6941, 3), 27: (0.5664, 0.5664, 2),
                29: (0.6211, 0.5440, 1), 16: (0.4839, 0.4839, 1)}
        for c in clusters:
            if c.head in want:
                ids = kept[c.head]
                got = (accuracy(c), accuracy(Cluster(ids[0], frozenset(ids[1:]))), len(ids))
                assert got == pytest.approx(want[c.head], abs=5e-5), c.head


class TestParams:
    def test_rounds_at_least_one(self, deployment):
        # checked before the partition: an empty one is not reported
        matrix = data_io.sun_shade_readings(deployment, epochs=10)
        with pytest.raises(ValueError, match=r"^rounds must be at least 1, got 0$"):
            run_placement(matrix, ClusterSet((), 6.0), rounds=0)

    @pytest.mark.parametrize("rounds", [2.0, True])
    def test_rounds_must_be_an_integer(self, deployment, rounds):
        # checked first too: a float or a bool is named, not run or passed to range
        matrix = data_io.sun_shade_readings(deployment, epochs=10)
        with pytest.raises(ValueError, match=rf"^rounds must be an integer, got {rounds!r}$"):
            run_placement(matrix, ClusterSet((), 6.0), rounds=rounds)

    def test_numpy_integer_rounds_accepted(self, deployment):
        matrix = data_io.sun_shade_readings(deployment, epochs=50)
        clusters = form_clusters(deployment, 6.0)
        state, costs = run_placement(matrix, clusters, rounds=np.int64(3))
        want, want_costs = run_placement(matrix, clusters, rounds=3)
        assert len(state.cost_history) == 3 and state.cost_history == want.cost_history
        assert costs == want_costs


@st.composite
def gapped_partitions(draw, min_present=0, max_epochs=12, gap_free_nodes=False):
    """Small integer-valued reading matrices of at most ``max_epochs`` epochs
    with random gaps, split into random clusters; every node keeps at least
    ``min_present`` leading epochs. With ``gap_free_nodes`` a drawn subset of
    the nodes misses no epoch, so clusters come gap-free, gapped and mixed."""
    n = draw(st.integers(1, 7))
    t = draw(st.integers(max(2, min_present), max_epochs))
    values = draw(arrays(float, (n, t), elements=st.integers(-20, 20).map(float)))
    missing = draw(arrays(bool, (n, t), elements=st.booleans()))
    missing[:, :min_present] = False
    if gap_free_nodes:
        missing[draw(arrays(bool, n, elements=st.booleans()))] = False
    labels = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    groups = sorted(
        ([i + 1 for i in range(n) if labels[i] == g] for g in set(labels)),
        key=lambda g: (-len(g), g[0]),
    )
    clusters = ClusterSet(
        clusters=tuple(Cluster(head=g[0], members=frozenset(g[1:])) for g in groups),
        radius=1.0,
    )
    matrix = data_io.ReadingMatrix(
        node_ids=tuple(range(1, n + 1)),
        epochs=tuple(range(t)),
        values=np.where(missing, np.nan, values),
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
        group = sorted({c.head, *c.members})
        for nid in group:
            neighbors = [j - 1 for j in group if j != nid]
            for w, k in enumerate(windows):
                want = brute_force_cost(matrix, neighbors, nid - 1, k)
                assert math.isclose(got[w, nid - 1], want, rel_tol=1e-9, abs_tol=1e-9), (nid, k)


class TestArrayKernelProperties:
    @settings(max_examples=120, deadline=None)
    @given(st.one_of(gapped_partitions(), gapped_partitions(gap_free_nodes=True)))
    def test_every_window_matches_brute_force(self, case):
        matrix, clusters = case
        got = PrefixMoments(matrix, clusters).costs(range(2, len(matrix.epochs) + 1))
        assert_every_window_matches_brute_force(got, matrix, clusters)

    @settings(max_examples=120, deadline=None)
    @given(st.one_of(gapped_partitions(), gapped_partitions(gap_free_nodes=True)), st.sampled_from([1e5, 1e7]))
    def test_offset_readings_score_as_without_the_offset(self, case, offset):
        """A constant added to every reading moves no cost; the oracle scores
        the readings without it."""
        matrix, clusters = case
        lifted = data_io.ReadingMatrix(matrix.node_ids, matrix.epochs, matrix.values + offset)
        got = PrefixMoments(lifted, clusters).costs(range(2, len(matrix.epochs) + 1))
        assert_every_window_matches_brute_force(got, matrix, clusters)

    @settings(max_examples=30, deadline=None)
    @given(gapped_partitions(min_present=2), st.integers(1, 12))
    def test_best_cost_monotone_and_leader_dominates(self, case, rounds):
        matrix, clusters = case
        record = []
        run_placement(matrix, clusters, rounds=rounds, record=record)
        assert len(record) == rounds
        for prev, cur in zip(record, record[1:]):
            assert (cur.best_cost >= prev.best_cost).all()
        for st_ in record:
            leader = np.flatnonzero(st_.best_cost == st_.best_cost.max())[0]
            assert st_.sigma_gb2 == st_.sigma_b2[leader]

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(gapped_partitions(max_epochs=100), gapped_partitions(max_epochs=100, gap_free_nodes=True)))
    def test_windows_across_gram_blocks(self, case):
        """Windows up to 100 epochs end inside, on and after the 32-epoch
        blocks of the pair sums; each scores alone as in a batch, gap-free
        clusters from their neighbor sums included."""
        matrix, clusters = case
        moments = PrefixMoments(matrix, clusters)
        windows = list(range(2, len(matrix.epochs) + 1))
        got = moments.costs(windows)
        assert_every_window_matches_brute_force(got, matrix, clusters)
        for k, w in enumerate(windows):
            assert np.array_equal(got[k], moments.costs([w])[0]), w
        # unsorted windows, and two that cap at the series, expand from one score each
        assert np.array_equal(moments.costs(windows[::-1] + [len(windows) + 9]), np.vstack([got[::-1], got[-1:]]))
        seen = ~matrix.missing
        for c in clusters:
            for i in sorted({c.head, *c.members}):
                for j in sorted({c.head, *c.members} - {i}):
                    for upto in (31, 32, 33, 64, 65):
                        both = (seen[i - 1] & seen[j - 1])[:upto]
                        got_cov = moments.covariance(i, j, upto)
                        if both.sum() < 2:
                            assert got_cov is None, (i, j, upto)
                        else:
                            x, y = matrix.values[i - 1, :upto][both], matrix.values[j - 1, :upto][both]
                            want = np.cov(x, y)[0, 1]
                            assert math.isclose(got_cov, want, rel_tol=1e-9, abs_tol=1e-9), (i, j, upto)
