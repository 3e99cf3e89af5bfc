import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsn3d import reference
from wsn3d.clustering import (
    Cluster,
    ClusterSet,
    Deployment,
    ElectionRecord,
    _adjacency,
    capture_clusters,
    form_clusters,
)
from wsn3d.data_io import write_cluster_report
from wsn3d.geometry import CorrelationModel, correlation_radius, pairwise_distances

MODEL = CorrelationModel(theta=30.0, alpha=1.0)
RANGE_085 = correlation_radius(MODEL, 0.85)  # about 4.876 m


def line_deployment(xs):
    return Deployment(np.arange(1, len(xs) + 1), [(float(x), 0.0, 0.0) for x in xs])


def neighbor_ids(dep, radius):
    """Map each node id to the ids of the other nodes within the radius."""
    ids = dep.node_ids
    return {i: set(ids[row].tolist()) for i, row in zip(ids.tolist(), _adjacency(dep.positions, radius))}


def in_event_range_ids(dep, event, event_radius):
    """The ids of the nodes within event_radius of the event, by one norm per node."""
    ev = np.asarray(event, dtype=float)
    return {i for i, p in zip(dep.node_ids.tolist(), dep.positions) if np.linalg.norm(p - ev) <= event_radius}


class TestEuclideanDistance:
    def test_fixture_pair(self, deployment):
        a, b = deployment.positions[deployment.index([47, 5])]
        assert pairwise_distances(a, b)[0, 0] == pytest.approx(1.6820719366305354, abs=1e-9)

    def test_coincident_points(self):
        assert pairwise_distances((1.0, 2.0, 3.0), (1.0, 2.0, 3.0))[0, 0] == 0.0

    def test_pythagorean_triple(self):
        assert pairwise_distances((0, 0, 0), (3, 4, 0))[0, 0] == pytest.approx(5.0, abs=1e-12)


class TestEventFilter:
    def test_node_at_event_is_kept(self):
        dep = line_deployment([0.0, 2.0, 50.0])
        assert 2 in set(form_clusters(dep, 6.0, (2.0, 0.0, 0.0), RANGE_085).node_ids)
        assert set(form_clusters(dep, 6.0, (2.0, 0.0, 0.0), 0.0).node_ids) == {2}

    def test_tau_near_one_excludes_everything_away(self):
        dep = line_deployment([0.0, 2.0, 50.0])
        tiny = correlation_radius(MODEL, 1.0 - 1e-12)
        assert set(form_clusters(dep, 6.0, (100.0, 0.0, 0.0), tiny).node_ids) == set()

    def test_three_node_line(self):
        # distances 1, 5, 10 from the event; radius ~4.876 keeps only the first
        dep = line_deployment([1.0, 5.0, 10.0])
        assert set(form_clusters(dep, 6.0, (0.0, 0.0, 0.0), RANGE_085).node_ids) == {1}

    @pytest.mark.parametrize("event, event_radius, message", [
        pytest.param((0.0, np.nan, 0.0), 1.0, r"event must be a finite 3D point, got \(0.0, nan, 0.0\)", id="nan"),
        pytest.param((0.0, 0.0, np.inf), 1.0, "event must be a finite 3D point", id="inf"),
        pytest.param((0.0, 0.0), 1.0, r"event must be a finite 3D point, got \(0.0, 0.0\)", id="2d"),
        pytest.param((0.0, 0.0, 0.0), np.nan, "event_radius must be non-negative, got nan", id="nan-radius"),
        pytest.param((0.0, 0.0, 0.0), -1.0, "event_radius must be non-negative, got -1.0", id="negative-radius"),
    ])
    def test_bad_event_is_rejected(self, event, event_radius, message):
        with pytest.raises(ValueError, match=message):
            form_clusters(line_deployment([0.0, 1.0]), 6.0, event, event_radius)


class TestNeighborSets:
    def test_single_node(self):
        dep = line_deployment([0.0])
        assert neighbor_ids(dep, 6.0) == {1: set()}

    def test_boundary_is_inclusive(self):
        dep = line_deployment([0.0, 1.5])
        nbrs = neighbor_ids(dep, 1.5)
        assert nbrs == {1: {2}, 2: {1}}

    def test_symmetry_random_geometry(self):
        rng = np.random.default_rng(11)
        nbrs = neighbor_ids(Deployment(np.arange(1, 41), rng.uniform(0, 10, (40, 3))), 3.0)
        for i, s in nbrs.items():
            for j in s:
                assert i in nbrs[j]

    @pytest.mark.parametrize(
        "kind", ["uniform", "lattice", "ulp-below", "exact", "ulp-above", "overflow", "underflow", "coincident"]
    )
    @pytest.mark.parametrize("n", [1, 31, 32, 33, 65, 127, 128, 129, 300])
    def test_relation_matches_the_distance_matrix(self, n, kind):
        # up to ten 32-row blocks, each mirrored into the columns below it.
        # The lattice is 7 x 7 x 7 at unit spacing, shuffled, at radius sqrt(2),
        # so that face diagonals lie exactly on the radius. The ulp kinds set
        # the radius to the computed distance of the first and last uniform
        # points, or to the float just below or above it. Overflow spreads the
        # points over 2e154 at radius 1e200, so some squared distances are inf;
        # underflow mixes points 1e-200 and 1e-150 apart at radius 1e-200, whose
        # bound is 0; coincident puts the points on 27 sites.
        rng = np.random.default_rng(n)
        pos = rng.uniform(0.0, 10.0 * (n / 54) ** (1 / 3), (n, 3))
        on = float(pairwise_distances(pos[0], pos[-1])[0, 0])
        radius = {
            "uniform": 6.0, "lattice": float(np.sqrt(2.0)),
            "ulp-below": math.nextafter(on, 0.0), "exact": on, "ulp-above": math.nextafter(on, math.inf),
            "overflow": 1e200, "underflow": 1e-200, "coincident": 1.0,
        }[kind]
        if kind == "lattice":
            pts = np.stack(np.meshgrid(*[np.arange(7.0)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
            pos = np.random.default_rng(n).permutation(pts)[:n]
        elif kind == "overflow":
            pos = rng.uniform(0.0, 2e154, (n, 3))
        elif kind == "underflow":
            pos = rng.integers(0, 3, (n, 3)) * rng.choice([1e-200, 1e-150], (n, 1))
        elif kind == "coincident":
            pos = rng.integers(0, 3, (n, 3)).astype(float)
        d = pairwise_distances(pos)
        want = d <= radius
        np.fill_diagonal(want, False)
        assert np.array_equal(_adjacency(pos, radius), want)
        if n > 1:
            exercised = {
                "lattice": (d == radius).any(),
                "ulp-below": not want[0, -1] and d[0, -1] == math.nextafter(radius, math.inf),
                "exact": want[0, -1] and d[0, -1] == radius,
                "ulp-above": want[0, -1] and d[0, -1] == math.nextafter(radius, 0.0),
                "overflow": np.isinf(d).any() and want.any(),
                "underflow": want.any() and (d > radius).any(),
                "coincident": (want & (d == 0.0)).any(),
            }
            assert exercised.get(kind, True)

    def test_relation_holds_no_n_by_n_float_matrix(self):
        # the relation's N**2 bytes and a few row blocks of float64 distances
        n = 2000
        pos = np.random.default_rng(2).uniform(0.0, 10.0 * (n / 54) ** (1 / 3), (n, 3))
        tracemalloc.start()
        try:
            _adjacency(pos, 6.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n + 2 * 2**20

    def test_fixture_node47_superset(self, deployment):
        # brute-force oracle over the full 54-node set
        pos = dict(zip(deployment.node_ids.tolist(), deployment.positions))
        want = {
            j
            for j in pos
            if j != 47 and float(np.linalg.norm(pos[j] - pos[47])) <= 6.0
        }
        nbrs = neighbor_ids(deployment, 6.0)
        assert nbrs[47] == want
        assert nbrs[47] >= {5, 6, 12, 28, 32, 38}

    def test_radius_must_be_positive(self):
        with pytest.raises(ValueError):
            form_clusters(line_deployment([0.0]), 0.0)


class TestFormClusters:
    def test_collinear_hand_example(self):
        # nodes at 0, 1, 2, 10 with radius 1.5: the middle node wins two
        # neighbors, the far node is left alone
        dep = line_deployment([0.0, 1.0, 2.0, 10.0])
        cs = form_clusters(dep, 1.5)
        assert len(cs) == 2
        first, second = cs.clusters
        assert first.head == 2 and set(first.members) == {1, 3}
        assert second.head == 4 and not second.members

    def test_isolated_node_is_singleton(self):
        dep = line_deployment([0.0])
        cs = form_clusters(dep, 5.0)
        assert len(cs) == 1
        assert cs.clusters[0].head == 1 and cs.clusters[0].members == ()

    def test_partition_and_monotone_sizes(self, deployment):
        cs = form_clusters(deployment, 6.0)
        seen = sorted(i for c in cs for i in {c.head, *c.members})
        assert seen == sorted(deployment.node_ids.tolist())
        sizes = [len(c.members) for c in cs]
        assert sizes == sorted(sizes, reverse=True)

    def test_membership_radius(self, deployment):
        cs = form_clusters(deployment, 6.0)
        pos = dict(zip(deployment.node_ids.tolist(), deployment.positions))
        for c in cs:
            for m in c.members:
                assert pairwise_distances(pos[c.head], pos[m])[0, 0] <= 6.0

    def test_order_invariance(self, deployment):
        cs = form_clusters(deployment, 6.0)
        rng = np.random.default_rng(3)
        for _ in range(3):
            shuffled = rng.permutation(len(deployment))
            cs2 = form_clusters(Deployment(deployment.node_ids[shuffled], deployment.positions[shuffled]), 6.0)
            assert [(c.head, c.members) for c in cs2] == [(c.head, c.members) for c in cs]

    def test_head_dominance_replay(self, deployment):
        # at formation time no remaining node may out-neighbor the elected head
        cs = form_clusters(deployment, 6.0)
        remaining = set(deployment.node_ids.tolist())
        pos = dict(zip(deployment.node_ids.tolist(), deployment.positions))
        for c in cs:
            counts = {
                i: sum(1 for j in remaining if j != i and np.linalg.norm(pos[i] - pos[j]) <= 6.0)
                for i in remaining
            }
            assert counts[c.head] == max(counts.values())
            remaining -= {c.head, *c.members}

    def test_event_restricts_participants(self):
        dep = line_deployment([1.0, 2.0, 50.0])
        cs = form_clusters(dep, 6.0, (0.0, 0.0, 0.0), RANGE_085)
        assert set(cs.node_ids) == {1, 2}

    def test_empty_participants_no_error(self):
        dep = line_deployment([0.0, 1.0])
        cs = form_clusters(dep, 6.0, (100.0, 0.0, 0.0), correlation_radius(MODEL, 1.0 - 1e-12))
        assert len(cs) == 0

    @pytest.mark.parametrize("event, head", [((0.0, 0.0, 0.0), 1), ((3.0, 0.0, 0.0), 2), (None, 1)])
    def test_dmax_ties_are_recorded_before_the_event_rule(self, event, head):
        # both nodes have one neighbor at 1 m, so the farthest-neighbor rule
        # leaves both tied; the event distance, or else the id, then decides
        dep = Deployment([1, 2], [(1.0, 0.0, 0.0), (2.0, 0.0, 0.0)])
        trace = []
        assert form_clusters(dep, 6.0, event=event, trace=trace).clusters[0].head == head
        assert trace == [ElectionRecord(head=head, candidates=[1, 2], dmax_ties=[1, 2])]

    def test_dmax_tolerance_is_in_meters(self):
        # farthest neighbors 3 m + 5e-13 and 3 m away tie within 1e-12 m, so the
        # smallest id heads; their squares, 3e-12 apart, would not tie
        dep = line_deployment([0.0, 3.0000000000005, 10.0, 13.0])
        trace = []
        assert form_clusters(dep, 6.0, trace=trace).clusters[0].head == 1
        assert trace[0].dmax_ties == [1, 2, 3, 4]


def per_pair_form_clusters(dep, radius, event=None, event_radius=np.inf, trace=None):
    """Reference election: recounts every remaining node's neighbors with one
    np.linalg.norm per pair on every round. form_clusters must match it."""
    if event is not None:
        participating = in_event_range_ids(dep, event, event_radius)
    else:
        participating = set(dep.node_ids.tolist())

    by_id = dict(zip(dep.node_ids.tolist(), dep.positions))
    ev = np.asarray(event, dtype=float) if event is not None else None

    def dist(i: int, j: int) -> float:
        return float(np.linalg.norm(by_id[i] - by_id[j]))

    remaining = set(participating)
    clusters: list[Cluster] = []
    while remaining:
        nbrs = {i: {j for j in remaining if j != i and dist(i, j) <= radius} for i in remaining}
        best_count = max(len(s) for s in nbrs.values())
        if best_count == 0:
            for i in sorted(remaining):
                clusters.append(Cluster(head=i, members=frozenset()))
                if trace is not None:
                    trace.append(ElectionRecord(head=i, candidates=[i], singleton_sweep=True))
            break
        candidates = sorted(i for i in remaining if len(nbrs[i]) == best_count)
        dmax = {i: max(dist(i, j) for j in nbrs[i]) for i in candidates}
        low = min(dmax.values())
        tied = [i for i in candidates if dmax[i] <= low + 1e-12]
        head = min(tied)
        if len(tied) > 1 and ev is not None:
            dev = {i: float(np.linalg.norm(by_id[i] - ev)) for i in tied}
            low_ev = min(dev.values())
            head = min(i for i in tied if dev[i] <= low_ev + 1e-12)
        if trace is not None:
            trace.append(ElectionRecord(head=head, candidates=candidates, dmax_ties=tied))
        clusters.append(Cluster(head=head, members=frozenset(nbrs[head])))
        remaining -= {head} | nbrs[head]
    return ClusterSet(clusters=tuple(clusters), radius=radius)


GRID = 4  # coordinates are integers in [0, GRID]


@st.composite
def integer_deployments(draw, max_id=99):
    """Deployments on an integer grid, with shuffled distinct ids from 1 to
    ``max_id``, a radius whose square is an integer, and an optional event
    with its range.

    Squared distances are then exact integers, so the per-pair norm and the
    array kernel agree bit for bit and pairs sit exactly on the radius. The
    small grid makes ties in neighbor count and farthest-neighbor distance
    common; with ``mirrored`` every node gets a twin reflected through the
    grid centre and the event sits there, which ties count, farthest-neighbor
    distance and event distance at once, leaving the id to decide.
    """
    n = draw(st.integers(1, 12))
    coords = draw(st.lists(st.tuples(*[st.integers(0, GRID)] * 3), min_size=n, max_size=n))
    mirrored = draw(st.booleans())
    if mirrored:
        coords += [tuple(GRID - c for c in p) for p in coords]
    ids = draw(st.lists(st.integers(1, max_id), min_size=len(coords), max_size=len(coords), unique=True))
    if mirrored:
        at = (GRID / 2,) * 3
    else:
        at = draw(st.tuples(*[st.integers(0, GRID).map(float)] * 3))
    tau_e = draw(st.none() | st.sampled_from([0.8, 0.85, 0.9]))
    radius = float(np.sqrt(draw(st.integers(1, 3 * GRID * GRID))))
    event = (None, np.inf) if tau_e is None else (at, correlation_radius(MODEL, tau_e))
    return Deployment(ids, np.asarray(coords, dtype=float)), radius, *event


class TestElectionProperties:
    @settings(max_examples=300, deadline=None)
    @given(integer_deployments())
    def test_matches_per_pair_reference(self, case):
        dep, radius, event, event_radius = case
        got_trace, want_trace = [], []
        got = form_clusters(dep, radius, event, event_radius, trace=got_trace)
        want = per_pair_form_clusters(dep, radius, event, event_radius, trace=want_trace)
        assert got == want
        assert got_trace == want_trace

    @settings(max_examples=150, deadline=None)
    @given(integer_deployments())
    def test_partition_and_neighbor_invariants(self, case):
        dep, radius, event, event_radius = case
        cs = form_clusters(dep, radius, event, event_radius)
        participating = in_event_range_ids(dep, event, event_radius) if event else set(dep.node_ids.tolist())
        assert sorted(i for c in cs for i in {c.head, *c.members}) == sorted(participating)
        sizes = [len(c.members) for c in cs]
        assert sizes == sorted(sizes, reverse=True)
        nbrs = neighbor_ids(dep, radius)
        assert all(i in nbrs[j] for i, s in nbrs.items() for j in s)
        remaining = set(participating)
        for c in cs:
            assert set(c.members) == nbrs[c.head] & remaining
            remaining -= {c.head, *c.members}
        if event is None:
            assert capture_clusters(dep, [c.head for c in cs], radius) == cs


class TestNodeOrder:
    @settings(max_examples=150, deadline=None)
    @given(integer_deployments(max_id=2**63 - 1), st.data())
    def test_rows_in_id_order_from_any_permutation(self, case, data):
        dep = case[0]
        perm = data.draw(st.permutations(range(len(dep))))
        again = Deployment(dep.node_ids[perm], dep.positions[perm])
        assert (dep.node_ids[1:] > dep.node_ids[:-1]).all()
        assert again.node_ids.tobytes() == dep.node_ids.tobytes()
        assert again.positions.tobytes() == dep.positions.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(integer_deployments(max_id=2**63 - 1), st.data())
    def test_index_agrees_with_a_dict(self, case, data):
        dep = case[0]
        row_of = {i: k for k, i in enumerate(dep.node_ids.tolist())}
        ids = data.draw(st.lists(st.sampled_from(list(row_of)), max_size=10))
        assert dep.index(ids).tolist() == [row_of[i] for i in ids]
        probe = data.draw(st.integers(1, 2**63 - 1).filter(lambda i: i not in row_of))
        with pytest.raises(KeyError, match=f"no node with id {probe}'"):
            dep.index(ids + [probe])

    @settings(max_examples=150, deadline=None)
    @given(integer_deployments(max_id=2**63 - 1))
    def test_cluster_members_in_id_order(self, case):
        dep, radius, event, event_radius = case
        formed = form_clusters(dep, radius, event, event_radius)
        replayed = capture_clusters(dep, [c.head for c in form_clusters(dep, radius)], radius)
        for c in (*formed, *replayed):
            assert type(c.members) is tuple
            assert all(a < b for a, b in zip(c.members, c.members[1:]))
        for cs in (formed, replayed):
            assert cs.node_ids == tuple(sorted(i for c in cs for i in (c.head, *c.members)))
            assert all(a < b for a, b in zip(cs.node_ids, cs.node_ids[1:]))


class TestCaptureClusters:
    def test_reported_partition_is_radius_consistent(self, deployment):
        """The bundled reference clustering is exactly a greedy 6 m capture."""
        cs = capture_clusters(deployment, reference.REPORTED_HEAD_ORDER, 6.0)
        got = {c.head: set(c.members) for c in cs}
        assert got == {h: set(m) for h, m in reference.REPORTED_CLUSTERS.items()}

    def test_unknown_head_rejected(self, deployment):
        with pytest.raises(ValueError):
            capture_clusters(deployment, [999], 6.0)

    def test_incomplete_sequence_rejected(self, deployment):
        with pytest.raises(ValueError):
            capture_clusters(deployment, [34], 6.0)

    def test_already_claimed_head_rejected(self, deployment):
        with pytest.raises(ValueError):
            capture_clusters(deployment, [34, 22], 6.0)

    def test_numpy_heads_report_as_plain_ints(self, deployment):
        heads = reference.REPORTED_HEAD_ORDER
        from_array = capture_clusters(deployment, np.array(heads), 6.0)
        assert all(type(c.head) is int for c in from_array)
        want = write_cluster_report(capture_clusters(deployment, list(heads), 6.0))
        assert write_cluster_report(from_array) == want


class TestTypes:
    def test_head_cannot_be_member(self):
        with pytest.raises(ValueError):
            Cluster(head=1, members=frozenset({1, 2}))

    def test_members_held_in_id_order(self):
        # a frozenset of these ids iterates as 1000, 2**40, 130, 3
        assert Cluster(1, frozenset({1000, 3, 130, 2**40})).members == (3, 130, 1000, 2**40)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(1, 2**63 - 1), unique=True, max_size=12), st.data())
    def test_any_member_iterable_gives_the_sorted_distinct_tuple(self, distinct, data):
        repeats = data.draw(st.lists(st.sampled_from(distinct), max_size=6)) if distinct else []
        given_ids = data.draw(st.permutations(distinct + repeats))
        form = data.draw(st.sampled_from([list, tuple, set, frozenset]))
        head = st.integers(1, 2**63 - 1)
        head = data.draw(head | st.sampled_from(distinct) if distinct else head)
        if head in distinct:
            with pytest.raises(ValueError, match=f"head {head} cannot be its own member"):
                Cluster(head, form(given_ids))
            return
        got, want = Cluster(head, form(given_ids)), Cluster(head, tuple(sorted(distinct)))
        assert got.members == tuple(sorted(distinct))
        assert got == want and hash(got) == hash(want)
        assert got.size == want.size == 1 + len(distinct)

    def test_cluster_set_rejects_overlap(self):
        a = Cluster(head=1, members=frozenset({2}))
        b = Cluster(head=3, members=frozenset({2}))
        with pytest.raises(ValueError):
            ClusterSet(clusters=(a, b), radius=1.0)
        with pytest.raises(ValueError, match=r"^nodes \[1, 2\] appear in more than one cluster$"):
            ClusterSet(clusters=(Cluster(1, (2,)), Cluster(3, (2,)), Cluster(4, (1,))), radius=1.0)

    def test_cluster_set_rejects_growing_sizes(self):
        a = Cluster(head=1, members=frozenset())
        b = Cluster(head=3, members=frozenset({4}))
        with pytest.raises(ValueError):
            ClusterSet(clusters=(a, b), radius=1.0)

    @pytest.mark.parametrize("node_ids, positions, message", [
        pytest.param([1.0, 2.0], np.zeros((2, 3)), "must be a positive integer, got 1.0", id="float-id"),
        pytest.param([1, 0], np.zeros((2, 3)), "must be a positive integer, got 0", id="id-0"),
        pytest.param([-3], np.zeros((1, 3)), "must be a positive integer, got -3", id="negative-id"),
        pytest.param([1, 2**63], np.zeros((2, 3)), f"node id {2**63} does not fit in int64", id="id-2**63"),
        pytest.param([1, 1], np.zeros((2, 3)), r"duplicate node ids: \[1\]", id="duplicate-id"),
        pytest.param([1, 2], np.zeros((2, 2)), r"positions \(N, 3\), got \(2,\) and \(2, 2\)",
                     id="N-by-2-positions"),
        pytest.param([1, 2], [[0.0, 0.0, 0.0], [0.0, np.nan, 0.0]], "node 2: position must be a finite 3D point",
                     id="nan-coordinate"),
        pytest.param([], np.zeros((0, 3)), "at least one node", id="empty"),
    ])
    def test_deployment_rejects(self, node_ids, positions, message):
        with pytest.raises(ValueError, match=message):
            Deployment(node_ids, positions)

    def test_deployment_holds_read_only_arrays(self):
        dep = Deployment([5, 2, 9], [[0, 0, 0], [1, 1, 1], [2, 2, 2]])
        assert dep.node_ids.dtype == np.int64 and dep.positions.dtype == np.float64
        assert not dep.node_ids.flags.writeable and not dep.positions.flags.writeable
        assert dep.index([9, 5, 9]).tolist() == [2, 1, 2]  # rows in id order: 2, 5, 9
        with pytest.raises(KeyError, match="no node with id 7"):
            dep.index([2, 7])
