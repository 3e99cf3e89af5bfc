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
from .geometry import CorrelationModel, EventSource, correlation_radius


@dataclass(frozen=True)
class SensorNode:
    id: int
    position: tuple[float, float, float]

    def __post_init__(self):
        if not (isinstance(self.id, int) and self.id >= 1):
            raise ValueError(f"node id must be a positive integer, got {self.id!r}")
        if len(self.position) != 3 or not all(math.isfinite(c) for c in self.position):
            raise ValueError(f"node {self.id}: position must be a finite 3D point")


@dataclass(frozen=True)
class Deployment:
    """An ordered set of uniquely identified sensor nodes, plus an optional event."""

    nodes: tuple[SensorNode, ...]
    event: EventSource | None = None

    def __post_init__(self):
        if not self.nodes:
            raise ValueError("deployment needs at least one node")
        ids = [n.id for n in self.nodes]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ValueError(f"duplicate node ids: {dupes}")

    def __len__(self) -> int:
        return len(self.nodes)

    def ids(self) -> list[int]:
        return [n.id for n in self.nodes]

    def node(self, node_id: int) -> SensorNode:
        for n in self.nodes:
            if n.id == node_id:
                return n
        raise KeyError(f"no node with id {node_id}")

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


def _check_radius(radius: float) -> None:
    if not (0.0 < radius < math.inf):
        raise ValueError(f"radius must be positive and finite, got {radius}")


def euclidean_distance(a, b) -> float:
    """L2 distance between two 3D points."""
    pa, pb = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.linalg.norm(pa - pb))


def filter_in_event_range(dep: Deployment, model: CorrelationModel) -> set[int]:
    """Ids of nodes whose correlation with the event source is at least tau_e.

    Equivalent to keeping nodes within correlation_radius(model, tau_e) of the
    event position.
    """
    if dep.event is None:
        raise ConfigurationError("deployment has no event source to filter against")
    r = correlation_radius(model, dep.event.tau_e)
    ev = np.asarray(dep.event.position, dtype=float)
    dists = np.linalg.norm(dep.positions() - ev, axis=1)
    return {n.id for n, d in zip(dep.nodes, dists) if d <= r}


def neighbor_sets(nodes, radius: float) -> dict[int, set[int]]:
    """Map each node id to the ids of all other nodes within the given radius.

    The boundary is inclusive, so the relation is symmetric.
    """
    _check_radius(radius)
    node_list = list(nodes.nodes) if isinstance(nodes, Deployment) else list(nodes)
    ids = [n.id for n in node_list]
    pos = np.asarray([n.position for n in node_list], dtype=float)
    if len(node_list) == 0:
        return {}
    diff = pos[:, None, :] - pos[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    out: dict[int, set[int]] = {}
    for k, i in enumerate(ids):
        out[i] = {ids[l] for l in range(len(ids)) if l != k and dist[k, l] <= radius}
    return out


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

    by_id = {n.id: np.asarray(n.position, dtype=float) for n in dep.nodes}
    ev = np.asarray(dep.event.position, dtype=float) if dep.event is not None else None

    def dist(i: int, j: int) -> float:
        return float(np.linalg.norm(by_id[i] - by_id[j]))

    remaining = set(participating)
    clusters: list[Cluster] = []
    while remaining:
        nbrs = {i: {j for j in remaining if j != i and dist(i, j) <= radius} for i in remaining}
        best_count = max(len(s) for s in nbrs.values())
        if best_count == 0:
            for i in sorted(remaining):
                clusters.append(Cluster(head=i, members=frozenset(), order_index=len(clusters) + 1))
                if trace is not None:
                    trace.append(ElectionRecord(head=i, candidates=[i], singleton_sweep=True))
            break
        candidates = sorted(i for i in remaining if len(nbrs[i]) == best_count)
        dmax = {i: max(dist(i, j) for j in nbrs[i]) for i in candidates}
        low = min(dmax.values())
        tied = [i for i in candidates if dmax[i] <= low + 1e-12]
        if len(tied) > 1 and ev is not None:
            dev = {i: float(np.linalg.norm(by_id[i] - ev)) for i in tied}
            low_ev = min(dev.values())
            tied = [i for i in tied if dev[i] <= low_ev + 1e-12]
        head = min(tied)
        if trace is not None:
            trace.append(ElectionRecord(head=head, candidates=candidates, dmax_ties=tied))
        clusters.append(Cluster(head=head, members=frozenset(nbrs[head]), order_index=len(clusters) + 1))
        remaining -= {head} | nbrs[head]
    return ClusterSet(clusters=tuple(clusters), radius=radius)


def capture_clusters(dep: Deployment, heads, radius: float) -> ClusterSet:
    """Replay clustering for a known head sequence.

    Each head, in order, absorbs every not-yet-assigned node within the radius.
    The heads must all be deployment nodes, must still be unassigned when their
    turn comes, and must exhaust the deployment. Useful for verifying whether
    an externally reported partition is consistent with a capture radius.
    """
    _check_radius(radius)
    by_id = {n.id: np.asarray(n.position, dtype=float) for n in dep.nodes}
    remaining = set(dep.ids())
    clusters: list[Cluster] = []
    for head in heads:
        if head not in by_id:
            raise ValueError(f"head {head} is not a deployment node")
        if head not in remaining:
            raise ValueError(f"head {head} was already assigned to an earlier cluster")
        members = {
            j for j in remaining if j != head and float(np.linalg.norm(by_id[j] - by_id[head])) <= radius
        }
        clusters.append(Cluster(head=head, members=frozenset(members), order_index=len(clusters) + 1))
        remaining -= {head} | members
    if remaining:
        raise ValueError(f"head sequence leaves nodes unassigned: {sorted(remaining)}")
    return ClusterSet(clusters=tuple(clusters), radius=radius)
