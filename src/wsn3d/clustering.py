"""Distributed cluster formation over 3D sensor deployments.

Clusters grow around elected head nodes: the head with the most in-range
neighbors claims them all, the claimed nodes leave the pool, and the election
repeats until every node belongs to exactly one cluster.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .geometry import CorrelationModel, EventSource, correlation_radius, pairwise_distances


@dataclass(frozen=True)
class SensorNode:
    id: int
    position: tuple[float, float, float]

    def __post_init__(self):
        if not (isinstance(self.id, int) and self.id >= 1):
            raise ValueError(f"node id must be a positive integer, got {self.id!r}")
        if self.id >= 2**63:  # clustering holds ids in int64 arrays
            raise ValueError(f"node id {self.id} does not fit in int64")
        if len(self.position) != 3 or not all(math.isfinite(c) for c in self.position):
            raise ValueError(f"node {self.id}: position must be a finite 3D point")


@dataclass(frozen=True)
class Deployment:
    """An ordered set of uniquely identified sensor nodes, plus an optional event."""

    nodes: tuple[SensorNode, ...]
    event: EventSource | None = None
    _index: dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.nodes:
            raise ValueError("deployment needs at least one node")
        ids = [n.id for n in self.nodes]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ValueError(f"duplicate node ids: {dupes}")
        object.__setattr__(self, "_index", {i: k for k, i in enumerate(ids)})

    def __len__(self) -> int:
        return len(self.nodes)

    def ids(self) -> list[int]:
        return [n.id for n in self.nodes]

    def index(self, node_id: int) -> int:
        """Position of the node with this id in ``nodes``."""
        try:
            return self._index[node_id]
        except KeyError:
            raise KeyError(f"no node with id {node_id}") from None

    def node(self, node_id: int) -> SensorNode:
        return self.nodes[self.index(node_id)]

    def positions(self) -> np.ndarray:
        return np.asarray([n.position for n in self.nodes], dtype=float)

    def centroid(self) -> tuple[float, float, float]:
        c = self.positions().mean(axis=0)
        return (float(c[0]), float(c[1]), float(c[2]))


@dataclass(frozen=True)
class Cluster:
    head: int
    members: frozenset[int]
    order_index: int

    def __post_init__(self):
        if self.head in self.members:
            raise ValueError(f"head {self.head} cannot be its own member")
        if self.order_index < 1:
            raise ValueError("order_index is 1-based")

    def node_ids(self) -> set[int]:
        return {self.head} | set(self.members)

    @property
    def size(self) -> int:
        return 1 + len(self.members)


@dataclass(frozen=True)
class ClusterSet:
    clusters: tuple[Cluster, ...]
    radius: float

    def __post_init__(self):
        seen: set[int] = set()
        for c in self.clusters:
            overlap = seen & c.node_ids()
            if overlap:
                raise ValueError(f"nodes {sorted(overlap)} appear in more than one cluster")
            seen |= c.node_ids()
        sizes = [len(c.members) for c in self.clusters]
        if any(a < b for a, b in zip(sizes, sizes[1:])):
            raise ValueError(f"member counts must be non-increasing in formation order, got {sizes}")

    def __iter__(self):
        return iter(self.clusters)

    def __len__(self) -> int:
        return len(self.clusters)

    def heads(self) -> list[int]:
        return [c.head for c in self.clusters]

    def all_ids(self) -> set[int]:
        out: set[int] = set()
        for c in self.clusters:
            out |= c.node_ids()
        return out


@dataclass
class ElectionRecord:
    """One head election: who was eligible and how ties were resolved."""

    head: int
    candidates: list[int] = field(default_factory=list)  # argmax neighbor count
    dmax_ties: list[int] = field(default_factory=list)  # still tied after min d_max
    singleton_sweep: bool = False


_BLOCK_ROWS = 128


def _check_radius(radius: float) -> None:
    if not (0.0 < radius < math.inf):
        raise ValueError(f"radius must be positive and finite, got {radius}")


def euclidean_distance(a, b) -> float:
    """L2 distance between two 3D points."""
    return float(pairwise_distances(a, b)[0, 0])


def filter_in_event_range(dep: Deployment, model: CorrelationModel) -> set[int]:
    """Ids of nodes whose correlation with the event source is at least tau_e.

    Equivalent to keeping nodes within correlation_radius(model, tau_e) of the
    event position.
    """
    if dep.event is None:
        raise ConfigurationError("deployment has no event source to filter against")
    r = correlation_radius(model, dep.event.tau_e)
    dists = pairwise_distances(dep.positions(), dep.event.position)[:, 0]
    return {n.id for n, d in zip(dep.nodes, dists) if d <= r}


def _row_blocks(n: int):
    return (slice(start, start + _BLOCK_ROWS) for start in range(0, n, _BLOCK_ROWS))


def _adjacency(pos: np.ndarray, radius: float) -> np.ndarray:
    """The (N, N) boolean in-radius relation of the points, False on the diagonal.

    Distances are taken _BLOCK_ROWS rows at a time, so no N x N float matrix
    is ever held: the relation costs N**2 bytes (25 MB at N = 5000).
    """
    adj = np.empty((len(pos), len(pos)), dtype=bool)
    for rows in _row_blocks(len(pos)):
        np.less_equal(pairwise_distances(pos[rows], pos), radius, out=adj[rows])
    np.fill_diagonal(adj, False)
    return adj


def neighbor_sets(nodes, radius: float) -> dict[int, set[int]]:
    """Map each node id to the ids of all other nodes within the given radius.

    The boundary is inclusive, so the relation is symmetric.
    """
    _check_radius(radius)
    node_list = list(nodes.nodes) if isinstance(nodes, Deployment) else list(nodes)
    ids = np.asarray([n.id for n in node_list], dtype=np.int64)
    adj = _adjacency(np.asarray([n.position for n in node_list], dtype=float).reshape(-1, 3), radius)
    return {int(i): set(ids[row].tolist()) for i, row in zip(ids, adj)}


def form_clusters(
    dep: Deployment,
    radius: float,
    model: CorrelationModel | None = None,
    trace: list[ElectionRecord] | None = None,
) -> ClusterSet:
    """Partition the deployment into clusters by iterative head election.

    Each round, over the nodes not yet assigned: the node with the most
    in-radius neighbors becomes head and absorbs them all. Ties are broken by
    the smallest farthest-neighbor distance, then by smaller distance to the
    event source when one exists, then by smaller id. Once no remaining node
    has a neighbor, each leftover becomes a singleton cluster in id order.

    When the deployment carries an event source, only nodes inside its
    correlation range participate (pass the correlation model used to size
    that range); otherwise every node participates.

    Pass a list as ``trace`` to capture, per elected head, the candidate set
    and any residual ties.
    """
    _check_radius(radius)
    if dep.event is not None:
        if model is None:
            raise ConfigurationError("event filtering needs a correlation model")
        participating = filter_in_event_range(dep, model)
    else:
        participating = set(dep.ids())

    # Index k is the k-th smallest participating id, so ascending index order
    # is id order and the first of a tied set is the smallest id.
    ids = np.asarray(sorted(participating), dtype=np.int64)
    pos = np.asarray([dep.node(i).position for i in ids.tolist()], dtype=float).reshape(-1, 3)
    adj = _adjacency(pos, radius)
    counts = adj.sum(axis=1)  # in-radius neighbors that are still unassigned
    alive = np.ones(len(ids), dtype=bool)
    clusters: list[Cluster] = []
    while alive.any():
        best_count = counts[alive].max()
        if best_count == 0:
            for i in ids[alive].tolist():
                clusters.append(Cluster(head=i, members=frozenset(), order_index=len(clusters) + 1))
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
        if len(tied) > 1 and dep.event is not None:
            dev = pairwise_distances(pos[tied], dep.event.position)[:, 0]
            tied = tied[dev <= dev.min() + 1e-12]
        head = tied[0]
        members = adj[head] & alive
        if trace is not None:
            trace.append(ElectionRecord(
                head=int(ids[head]), candidates=ids[candidates].tolist(), dmax_ties=ids[tied].tolist()
            ))
        clusters.append(Cluster(
            head=int(ids[head]), members=frozenset(ids[members].tolist()), order_index=len(clusters) + 1
        ))
        absorbed = np.append(np.flatnonzero(members), head)
        alive[absorbed] = False
        counts -= adj[absorbed].sum(axis=0)  # the relation is symmetric: rows stand for columns
    return ClusterSet(clusters=tuple(clusters), radius=radius)


def capture_clusters(dep: Deployment, heads, radius: float) -> ClusterSet:
    """Replay clustering for a known head sequence.

    Each head, in order, absorbs every not-yet-assigned node within the radius.
    The heads must all be deployment nodes, must still be unassigned when their
    turn comes, and must exhaust the deployment. Useful for verifying whether
    an externally reported partition is consistent with a capture radius.
    """
    _check_radius(radius)
    ids = np.asarray(dep.ids(), dtype=np.int64)
    adj = _adjacency(dep.positions(), radius)
    alive = np.ones(len(ids), dtype=bool)
    clusters: list[Cluster] = []
    for head in heads:
        try:
            k = dep.index(head)
        except KeyError:
            raise ValueError(f"head {head} is not a deployment node") from None
        if not alive[k]:
            raise ValueError(f"head {head} was already assigned to an earlier cluster")
        members = adj[k] & alive
        clusters.append(Cluster(
            head=head, members=frozenset(ids[members].tolist()), order_index=len(clusters) + 1
        ))
        alive[k] = False
        alive[members] = False
    if alive.any():
        raise ValueError(f"head sequence leaves nodes unassigned: {sorted(ids[alive].tolist())}")
    return ClusterSet(clusters=tuple(clusters), radius=radius)
