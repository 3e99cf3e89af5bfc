"""The estimate path's array forms against reference copies of the loops they
replaced, bit for bit: cluster_accuracy over a whole ClusterSet, which skips
the matrix checks, against one checked per-cluster call each, and the
election on the mirrored block relation of squared distances, with tie-break
distances taken as the root of the largest squared distance to each
candidate's unassigned neighbors, against the full distance matrix and the
blocked maximum of the distances over every column. Fixed 300-node cases
cross the 32-row block boundaries."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsn3d.clustering import (
    Cluster,
    ClusterSet,
    Deployment,
    ElectionRecord,
    _row_blocks,
    form_clusters,
)
from wsn3d.estimation import AccuracyReport, _accuracy_formula, cluster_accuracy, information_accuracy
from wsn3d.geometry import CorrelationModel, correlation, correlation_radius, pairwise_distances

MODEL = CorrelationModel(theta=30.0)


def reference_cluster_accuracy(dep, cluster, model, event, sigma_s2, sigma_n2):
    """One cluster's report from its own positions, rho_event and noise
    variances, as cluster_accuracy computed it one cluster per call."""
    order = (cluster.head, *sorted(cluster.members))
    pos = dep.positions[dep.index(order)]
    m = len(order)
    rho_event = correlation(model, pairwise_distances(pos, event)[:, 0])
    rho_pair = correlation(model, pairwise_distances(pos))
    nv = np.full(m, sigma_n2)
    accuracy = information_accuracy(m, rho_event, rho_pair, sigma_s2, nv)
    _, gain, off_sum, noise_num = _accuracy_formula(m, rho_event, rho_pair, sigma_s2, nv)
    return AccuracyReport(
        head=cluster.head, m=m, accuracy=accuracy,
        gain_term=gain, redundancy_term=off_sum / (m * m), noise_term=noise_num / (m * m),
    )


def blocked_dmax_form_clusters(dep, radius, event=None, event_radius=np.inf, trace=None):
    """form_clusters with the in-radius relation read off the full distance
    matrix, and the tie-break distance of every candidate, lone or not,
    taken as the maximum over all N columns, 32 candidate rows at a time,
    where the row's unassigned neighbors are."""
    participating = dep.node_ids
    if event is not None:
        participating = participating[pairwise_distances(dep.positions, event)[:, 0] <= event_radius]
    ids = np.sort(participating)
    pos = dep.positions[dep.index(ids)]
    adj = pairwise_distances(pos) <= radius
    np.fill_diagonal(adj, False)
    counts = adj.sum(axis=1)
    alive = np.ones(len(ids), dtype=bool)
    clusters = []
    while alive.any():
        best_count = counts[alive].max()
        if best_count == 0:
            for i in ids[alive].tolist():
                clusters.append(Cluster(head=i, members=frozenset()))
                if trace is not None:
                    trace.append(ElectionRecord(head=i, candidates=[i], singleton_sweep=True))
            break
        candidates = np.flatnonzero(alive & (counts == best_count))
        dmax = np.empty(len(candidates))
        for block in _row_blocks(len(candidates)):
            rows = candidates[block]
            dmax[block] = np.max(
                pairwise_distances(pos[rows], pos), axis=1, where=adj[rows] & alive, initial=0.0
            )
        tied = candidates[dmax <= dmax.min() + 1e-12]
        head = tied[0]
        if len(tied) > 1 and event is not None:
            dev = pairwise_distances(pos[tied], event)[:, 0]
            head = tied[dev <= dev.min() + 1e-12][0]
        members = adj[head] & alive
        if trace is not None:
            trace.append(ElectionRecord(
                head=int(ids[head]), candidates=ids[candidates].tolist(), dmax_ties=ids[tied].tolist()
            ))
        clusters.append(Cluster(head=int(ids[head]), members=frozenset(ids[members].tolist())))
        absorbed = np.append(np.flatnonzero(members), head)
        alive[absorbed] = False
        counts -= adj[absorbed].sum(axis=0)
    return ClusterSet(clusters=tuple(clusters), radius=radius)


@st.composite
def deployments(draw):
    """(deployment, radius, event, event_radius): uniform float positions at
    the bundled fixture's density, or an integer grid where counts and
    distances tie; shuffled ids up to 2**63 - 1; an event point and its
    correlation range half of the time, else None and inf."""
    n = draw(st.integers(1, 60))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        pos = rng.integers(0, 5, (n, 3)).astype(float)
        radius = float(np.sqrt(draw(st.integers(1, 48))))
    else:
        pos = rng.uniform(0.0, 10.0 * (n / 54) ** (1 / 3), (n, 3))
        radius = draw(st.sampled_from([1.5, 3.0, 6.0]))
    ids = draw(st.lists(st.integers(1, 2**63 - 1), min_size=n, max_size=n, unique=True))
    event, event_radius = None, np.inf
    if draw(st.booleans()):
        event = tuple(rng.uniform(0.0, 5.0, 3).tolist())
        event_radius = correlation_radius(MODEL, draw(st.sampled_from([0.7, 0.85, 0.95])))
    return Deployment(ids, pos), radius, event, event_radius


def large_deployments():
    """Fixed 300-node cases, ten blocks of rows: uniform at the fixture's
    density, and a shuffled integer grid whose counts and distances tie; each
    with shuffled ids, without and with an event and its range."""
    rng = np.random.default_rng(300)
    ids = rng.permutation(np.arange(1, 301)) * 7919
    uniform = Deployment(ids, rng.uniform(0.0, 10.0 * (300 / 54) ** (1 / 3), (300, 3)))
    grid = Deployment(ids, rng.integers(0, 8, (300, 3)).astype(float))
    event, event_radius = (9.0, 9.0, 3.5), correlation_radius(MODEL, 0.7)  # about 10.7 m
    return [
        pytest.param(uniform, 6.0, None, np.inf, id="uniform"),
        pytest.param(uniform, 6.0, event, event_radius, id="uniform-event"),
        pytest.param(grid, float(np.sqrt(3.0)), None, np.inf, id="grid"),
        pytest.param(grid, float(np.sqrt(3.0)), event, event_radius, id="grid-event"),
    ]


def bits(report):
    return tuple(v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(report))


class TestOneCallAccuracy:
    @settings(max_examples=200, deadline=None)
    @given(deployments(), st.data())
    def test_cluster_set_matches_per_cluster_reports(self, case, data):
        dep, radius, event, event_radius = case
        cs = form_clusters(dep, radius, event, event_radius)
        event = event or dep.centroid()
        sigma_n2 = data.draw(st.sampled_from([0.0, 0.05, 0.3, 2.0]))
        sigma_s2 = data.draw(st.sampled_from([0.5, 1.0, 3.0]))
        got = cluster_accuracy(dep, cs, MODEL, event, sigma_s2, sigma_n2)
        want = [reference_cluster_accuracy(dep, c, MODEL, event, sigma_s2, sigma_n2) for c in cs]
        assert isinstance(got, list)
        assert [bits(r) for r in got] == [bits(r) for r in want]
        for c, w in zip(cs, want):
            one = cluster_accuracy(dep, [c], MODEL, event, sigma_s2, sigma_n2)
            assert [bits(r) for r in one] == [bits(w)]

    @pytest.mark.parametrize("dep, radius, event, event_radius", large_deployments())
    def test_large_cluster_set_matches_per_cluster_reports(self, dep, radius, event, event_radius):
        cs = form_clusters(dep, radius, event, event_radius)
        assert max(c.size for c in cs) > 1
        event = event or dep.centroid()
        got = cluster_accuracy(dep, cs, MODEL, event, 1.0, 0.05)
        want = [reference_cluster_accuracy(dep, c, MODEL, event, 1.0, 0.05) for c in cs]
        assert [bits(r) for r in got] == [bits(r) for r in want]

    def test_singletons_and_an_empty_set(self):
        event = (20.0, 0.0, 0.0)
        dep = Deployment([4, 2, 9], [(10.0 * i, 0.0, 0.0) for i in (4, 2, 9)])
        cs = form_clusters(dep, 1.0, event)
        assert [c.size for c in cs] == [1, 1, 1]
        got = cluster_accuracy(dep, cs, MODEL, event, 1.0, 0.05)
        want = [reference_cluster_accuracy(dep, c, MODEL, event, 1.0, 0.05) for c in cs]
        assert [bits(r) for r in got] == [bits(r) for r in want]
        assert cluster_accuracy(dep, ClusterSet(clusters=(), radius=1.0), MODEL, event, 1.0, 0.05) == []


class TestTieDistances:
    @settings(max_examples=300, deadline=None)
    @given(deployments())
    def test_records_match_the_blocked_maximum(self, case):
        dep, radius, event, event_radius = case
        got_trace, want_trace = [], []
        got = form_clusters(dep, radius, event, event_radius, trace=got_trace)
        want = blocked_dmax_form_clusters(dep, radius, event, event_radius, trace=want_trace)
        assert got == want
        assert got_trace == want_trace

    @pytest.mark.parametrize("dep, radius, event, event_radius", large_deployments())
    def test_large_records_match_the_blocked_maximum(self, dep, radius, event, event_radius):
        got_trace, want_trace = [], []
        got = form_clusters(dep, radius, event, event_radius, trace=got_trace)
        want = blocked_dmax_form_clusters(dep, radius, event, event_radius, trace=want_trace)
        assert got == want
        assert got_trace == want_trace

    def test_many_tied_candidates_span_blocks(self):
        # an 8 x 8 x 8 unit lattice at radius 1: the 216 interior nodes tie on
        # six neighbors each, more candidates than one block of rows
        pts = np.stack(np.meshgrid(*[np.arange(8.0)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
        dep = Deployment(np.arange(1, len(pts) + 1), pts)
        got_trace, want_trace = [], []
        assert form_clusters(dep, 1.0, trace=got_trace) == blocked_dmax_form_clusters(dep, 1.0, trace=want_trace)
        assert got_trace == want_trace
        assert len(got_trace[0].candidates) == 216
