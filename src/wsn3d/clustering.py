"""Distributed cluster formation over 3D sensor deployments.

Clusters grow around elected head nodes: the head with the most in-range
neighbors claims them all, the claimed nodes leave the pool, and the election
repeats until every node belongs to exactly one cluster. Given an event point,
only the nodes within a given range of it take part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import _squared_bound, _squared_distances, check_event, pairwise_distances


def _node_problem(node_id, position) -> str | None:
    """Why ``node_id`` at ``position`` cannot be a deployment node, or None."""
    if type(node_id) is not int or node_id < 1:
        return f"node id must be a positive integer, got {node_id!r}"
    if node_id >= 2**63:  # ids are held in int64 arrays
        return f"node id {node_id} does not fit in int64"
    if not all(map(math.isfinite, position)):
        return f"node {node_id}: position must be a finite 3D point"
    return None


@dataclass(frozen=True, eq=False)
class Deployment:
    """Sensor nodes as two read-only arrays: ``node_ids`` (int64, unique, from
    1 to 2**63 - 1) and ``positions`` ((N, 3) float64, finite), row k of each
    belonging to the same node. The rows are in ascending id order, whatever
    order they were given in, so every stage walks the nodes in one order."""

    node_ids: np.ndarray
    positions: np.ndarray

    def __post_init__(self):
        ids = np.asarray(self.node_ids)
        pos = np.asarray(self.positions, dtype=np.float64)
        if ids.size == 0:
            raise ValueError("deployment needs at least one node")
        if ids.ndim != 1 or pos.shape != (len(ids), 3):
            raise ValueError(f"need node ids of shape (N,) and positions (N, 3), got {ids.shape} and {pos.shape}")
        if ids.dtype.kind not in "iu" or ids.min() < 1 or ids.max() >= 2**63 or not np.isfinite(pos).all():
            # the first offending node, by the checks the row reader makes; a list
            # of Python ints that no integer dtype holds arrives here as floats
            nodes = zip(np.asarray(self.node_ids, dtype=object).tolist(), pos.tolist())
            problem = next(filter(None, (_node_problem(i, p) for i, p in nodes)), None)
            if problem:
                raise ValueError(problem)
        order = np.argsort(ids)  # not np.unique, which imports numpy.ma (about 1 MB) on first use
        ids, pos = ids.astype(np.int64)[order], pos[order]  # copies, made read-only below
        repeated = ids[1:][ids[1:] == ids[:-1]]
        if repeated.size:
            raise ValueError(f"duplicate node ids: {sorted(set(repeated.tolist()))}")
        ids.flags.writeable = pos.flags.writeable = False
        object.__setattr__(self, "node_ids", ids)
        object.__setattr__(self, "positions", pos)

    def __len__(self) -> int:
        return len(self.node_ids)

    def index(self, ids) -> np.ndarray:
        """Rows of the nodes with these ids, in the order given; an unknown id is a KeyError."""
        want = np.asarray(ids)
        rows = np.minimum(np.searchsorted(self.node_ids, want), len(self) - 1)
        unknown = self.node_ids[rows] != want
        if unknown.any():
            raise KeyError(f"no node with id {want[unknown][0]}")
        return rows

    def centroid(self) -> tuple[float, float, float]:
        c = self.positions.mean(axis=0)
        return (float(c[0]), float(c[1]), float(c[2]))


@dataclass(frozen=True)
class Cluster:
    """A head node and its members. ``members`` is held as the tuple of the
    distinct ids in ascending order, whatever iterable it is given as, so every
    stage walks a cluster's members in one order, as it walks a Deployment's."""

    head: int
    members: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(sorted(set(self.members))))
        if self.head in self.members:
            raise ValueError(f"head {self.head} cannot be its own member")

    @property
    def size(self) -> int:
        return 1 + len(self.members)


@dataclass(frozen=True)
class ClusterSet:
    """Clusters in formation order, their member counts non-increasing, and no
    node in more than one of them. ``node_ids`` holds every clustered id, heads
    and members, in ascending order, as a Deployment holds its ids."""

    clusters: tuple[Cluster, ...]
    radius: float
    node_ids: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        ids = sorted(i for c in self.clusters for i in (c.head, *c.members))
        repeated = sorted({a for a, b in zip(ids, ids[1:]) if a == b})
        if repeated:
            raise ValueError(f"nodes {repeated} appear in more than one cluster")
        object.__setattr__(self, "node_ids", tuple(ids))
        sizes = [len(c.members) for c in self.clusters]
        if any(a < b for a, b in zip(sizes, sizes[1:])):
            raise ValueError(f"member counts must be non-increasing in formation order, got {sizes}")

    def __iter__(self):
        return iter(self.clusters)

    def __len__(self) -> int:
        return len(self.clusters)


@dataclass
class ElectionRecord:
    """One head election: who was eligible and how ties were resolved."""

    head: int
    candidates: list[int] = field(default_factory=list)  # argmax neighbor count
    dmax_ties: list[int] = field(default_factory=list)  # still tied after min d_max
    singleton_sweep: bool = False


_BLOCK_ROWS = 32


def _check_radius(radius: float) -> None:
    if not (0.0 < radius < math.inf):
        raise ValueError(f"radius must be positive and finite, got {radius}")


def _row_blocks(n: int, size: int = _BLOCK_ROWS):
    return (slice(start, start + size) for start in range(0, n, size))


def _adjacency(pos: np.ndarray, radius: float) -> np.ndarray:
    """The (N, N) boolean in-radius relation of the points, False on the diagonal.

    Squared distances are taken _BLOCK_ROWS rows at a time, so no N x N float
    matrix is ever held: the relation costs N**2 bytes (25 MB at N = 5000).
    They are compared with _squared_bound(radius), which gives exactly the
    pairs with pairwise_distances <= radius and needs no square root. Each
    block is measured only against the columns from its own first row on and
    is written with its transpose, since a pair's squared distance has the
    same bits either way round; this takes about half of the distances.
    """
    bound = _squared_bound(radius)
    adj = np.empty((len(pos), len(pos)), dtype=bool)
    for rows in _row_blocks(len(pos)):
        block = adj[rows, rows.start:]
        np.less_equal(_squared_distances(pos[rows], pos[rows.start:]), bound, out=block)
        adj[rows.start:, rows] = block.T
    np.fill_diagonal(adj, False)
    return adj


def form_clusters(
    dep: Deployment,
    radius: float,
    event=None,
    event_radius: float = math.inf,
    trace: list[ElectionRecord] | None = None,
) -> ClusterSet:
    """Partition the deployment into clusters by iterative head election.

    Each round, over the nodes not yet assigned: the node with the most
    in-radius neighbors becomes head and absorbs them all. Ties are broken by
    the smallest farthest-neighbor distance, then by smaller distance to the
    event when one is given, then by smaller id. Once no remaining node has a
    neighbor, each leftover becomes a singleton cluster in id order.

    Given an ``event`` (a finite 3D point), only the nodes within
    ``event_radius`` of it take part, such as correlation_radius(model, tau_e)
    for those whose correlation with the event is at least tau_e; otherwise
    every node takes part. ``event_radius`` must be non-negative; inf lets
    every node in.

    Pass a list as ``trace`` to capture, per elected head, the candidate set
    and the ties left after the farthest-neighbor rule.
    """
    _check_radius(radius)
    if not event_radius >= 0.0:
        raise ValueError(f"event_radius must be non-negative, got {event_radius}")
    rows = np.arange(len(dep))
    if event is not None:
        event = check_event(event)
        rows = rows[pairwise_distances(dep.positions, event)[:, 0] <= event_radius]

    # The deployment's rows are in id order, so ascending index order is id
    # order and the first of a tied set is the smallest id.
    ids, pos = dep.node_ids[rows], dep.positions[rows]
    adj = _adjacency(pos, radius)
    counts = adj.sum(axis=1)  # in-radius neighbors that are still unassigned
    alive = np.ones(len(ids), dtype=bool)
    clusters: list[Cluster] = []
    while alive.any():
        best_count = counts[alive].max()
        if best_count == 0:
            for i in ids[alive].tolist():
                clusters.append(Cluster(head=i, members=()))
                if trace is not None:
                    trace.append(ElectionRecord(head=i, candidates=[i], singleton_sweep=True))
            break
        candidates = np.flatnonzero(alive & (counts == best_count))
        tied = candidates
        if len(candidates) > 1:
            # each candidate's farthest unassigned neighbor, taken over the columns
            # of the block's unassigned neighbors only
            dmax = np.empty(len(candidates))
            for block in _row_blocks(len(candidates)):
                near = adj[candidates[block]] & alive
                cols = np.flatnonzero(near.any(axis=0))
                dmax[block] = np.max(_squared_distances(pos[candidates[block]], pos[cols]), axis=1,
                                     where=near[:, cols], initial=0.0)
            np.sqrt(dmax, out=dmax)  # sqrt is monotone: the root of the maximum is the maximum root
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
        clusters.append(Cluster(head=int(ids[head]), members=tuple(ids[members].tolist())))
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
    ids = dep.node_ids
    adj = _adjacency(dep.positions, radius)
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
        clusters.append(Cluster(head=int(ids[k]), members=tuple(ids[members].tolist())))
        alive[k] = False
        alive[members] = False
    if alive.any():
        raise ValueError(f"head sequence leaves nodes unassigned: {ids[alive].tolist()}")
    return ClusterSet(clusters=tuple(clusters), radius=radius)
