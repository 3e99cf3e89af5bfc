"""Swarm-style search over per-node signal variances with threshold selection.

Each node tracks its present variance, its personal best, and the network-wide
global best; an accumulator pulls the present variance toward both bests each
round. Costs score nodes by the temporal variance of their readings plus the
mean covariance with their cluster neighbors, so high-variability nodes win.
The update as written has no damping, so the present variance can grow without
bound while the accumulator stays positive; no clamp is applied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .clustering import ClusterSet, _row_blocks
from .data_io import ReadingMatrix


@dataclass(frozen=True)
class PlacementParams:
    phi1: float = 0.5
    phi2: float = 0.5
    rounds: int = 300

    def __post_init__(self):
        if not (0.0 <= self.phi1 < math.inf and 0.0 <= self.phi2 < math.inf and self.phi1 + self.phi2 > 0.0):
            raise ValueError(f"adaptation factors must be finite, non-negative, not both 0: {self.phi1}, {self.phi2}")
        if self.rounds < 1:
            raise ValueError(f"rounds must be at least 1, got {self.rounds}")


@dataclass(frozen=True, eq=False)
class PlacementState:
    """Search state after ``round`` rounds.

    Entry k of each (N,) array belongs to node ``node_ids[k]``; the ids are
    ascending. Compare two states field by field with ``np.array_equal``.
    """

    node_ids: tuple[int, ...]
    sigma_p2: np.ndarray  # present signal variance
    sigma_b2: np.ndarray  # personal best variance
    best_cost: np.ndarray  # highest cost seen so far (-inf before the first round)
    i_a: np.ndarray  # accumulated variance increment
    sigma_gb2: float = 0.0
    round: int = 0
    cost_history: tuple[float, ...] = ()


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


def _covariance(n, sx, sy, sxy):
    """One-pass sample covariance from prefix moments (the variance when y is x)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return (sxy - sx * sy / n) / (n - 1)


def _variance(n, sx, sx2):
    """Sample variance from prefix moments: 0 below 2 epochs, clamped at 0."""
    v = _covariance(n, sx, sx, sx2)
    return np.where((n < 2) | (v < 0.0), 0.0, v)


class PrefixMoments:
    """Prefix-resolved variances and pairwise covariances for cluster costs.

    Missing cells are excluded pairwise: a node's variance uses its present
    epochs, a covariance uses epochs present in both series. Prefix sums along
    the epochs make the costs over the first k epochs a lookup at column k-1.
    Node sums are built once; pair sums are built while scoring, a block of
    pairs at a time, and only their window columns are kept. Terms with fewer
    than 2 usable epochs contribute nothing yet.
    """

    def __init__(self, matrix: ReadingMatrix, clusters: ClusterSet):
        self.node_ids = ids = sorted(clusters.all_ids())
        missing = set(ids) - set(matrix.node_ids)
        if missing:
            raise ValueError(f"readings missing for nodes {sorted(missing)}")
        self.epoch_count = len(matrix.epochs)
        row = {nid: r for r, nid in enumerate(matrix.node_ids)}
        rows = [row[nid] for nid in ids]
        present, values = ~matrix.missing[rows], np.where(matrix.missing[rows], 0.0, matrix.values[rows])
        # shift each node by the mean of its present readings (0 with none): costs stay, sums keep their digits
        values -= values.sum(axis=1, keepdims=True) / np.maximum(present.sum(axis=1, keepdims=True), 1)
        self._present, self._values = present.astype(float), np.where(present, values, 0.0)
        self._nodes = np.cumsum([self._present, self._values, self._values**2], axis=2)  # n, sx, sx2: (3, N, T)
        # positions in node_ids of the members of each cluster of 2 or more
        self._members = [np.searchsorted(ids, sorted(c.node_ids())) for c in clusters if c.members]

    def _pair_sums(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Prefix sums n, sx, sy, sxy of the node pairs (a[k], b[k]) as (4, P, T)."""
        sums = np.empty((4, a.size, self.epoch_count))
        np.multiply(self._present[a], self._present[b], out=sums[0])
        np.multiply(self._values[a], sums[0], out=sums[1])
        np.multiply(self._values[b], sums[0], out=sums[2])
        np.multiply(self._values[a] * self._values[b], sums[0], out=sums[3])
        np.cumsum(sums, axis=2, out=sums)
        return sums

    def covariance(self, i: int, j: int, upto: int) -> float | None:
        """Covariance of nodes i and j over the first ``upto`` epochs (capped at
        the series), or None below 2 shared epochs. Both nodes must be in the
        same cluster."""
        if upto < 1:
            raise ValueError(f"need at least 1 epoch, got {upto}")
        for members in self._members:
            pair = members[np.isin(np.take(self.node_ids, members), (i, j))]
            if i != j and pair.size == 2:
                n, sx, sy, sxy = self._pair_sums(pair[:1], pair[1:])[:, 0, min(upto, self.epoch_count) - 1]
                return None if n < 2 else _covariance(n, sx, sy, sxy)
        raise KeyError(f"nodes {i} and {j} are not a pair of one cluster")

    def costs(self, windows: Sequence[int]) -> np.ndarray:
        """(len(windows), N) cost matrix: row w scores every node, in node_ids
        order, over its first ``windows[w]`` epochs (capped at the series).

        A node's neighbor term is the mean over its cluster neighbors, in
        ascending id, of the covariances with at least 2 shared epochs.
        """
        at = np.minimum(np.asarray(windows, dtype=np.intp), self.epoch_count) - 1
        if at.size and at.min() < 1:
            raise ValueError(f"need at least 2 epochs, got {at.min() + 1}")
        out = _variance(*self._nodes[:, :, at]).T
        for members in self._members:
            a, b = np.triu_indices(members.size, k=1)
            pair = np.zeros((members.size, members.size), dtype=np.intp)
            pair[a, b] = pair[b, a] = np.arange(a.size)
            sums = np.empty((4, a.size, at.size))
            for block in _row_blocks(a.size):
                sums[:, block] = self._pair_sums(members[a[block]], members[b[block]])[:, :, at]
            n, sx, sy, sxy = sums.transpose(0, 2, 1)  # each (W, P)
            neighbors = pair[~np.eye(members.size, dtype=bool)].reshape(members.size, -1)
            cov, usable = _covariance(n, sx, sy, sxy)[:, neighbors], (n >= 2)[:, neighbors]
            count = usable.sum(axis=2)
            cost = out[:, members]
            # np.mean over each node's usable covariances as one contiguous row,
            # so the sum runs in the same order as over that node's list alone
            for length in np.unique(count[count > 0]):
                sel = count == length
                cost[sel] += cov[sel][usable[sel]].reshape(-1, length).mean(axis=1)
            out[:, members] = cost
        return out


def cluster_costs(matrix: ReadingMatrix, clusters: ClusterSet) -> dict[int, float]:
    """Full-series cost of every clustered node from its readings and its cluster neighbors."""
    moments = PrefixMoments(matrix, clusters)
    return dict(zip(moments.node_ids, moments.costs([moments.epoch_count])[0].tolist()))


def placement_step(
    state: PlacementState, costs: Mapping[int, float], params: PlacementParams
) -> PlacementState:
    """Advance the search one round with this round's per-node costs.

    Personal bests absorb any cost improvement, the global best variance is
    re-selected from the node with the best cost so far (ties to the smaller
    id), and then every node updates its accumulator and present variance:

        i_a     += phi1 * (sigma_b2 - sigma_p2) + phi2 * (sigma_gb2 - sigma_p2)
        sigma_p2 += i_a

    The round's mean cost is appended to the history. The arrays of ``state``
    are left as they are.
    """
    missing = set(state.node_ids) - set(costs)
    if missing:
        raise ValueError(f"costs missing for nodes {sorted(missing)}")
    c = np.asarray([costs[nid] for nid in state.node_ids], dtype=float)

    improved = c > state.best_cost
    best_cost = np.where(improved, c, state.best_cost)
    sigma_b2 = np.where(improved, state.sigma_p2, state.sigma_b2)
    sigma_gb2 = float(sigma_b2[np.argmax(best_cost)])
    i_a = state.i_a + params.phi1 * (sigma_b2 - state.sigma_p2) + params.phi2 * (sigma_gb2 - state.sigma_p2)

    return replace(
        state,
        sigma_p2=state.sigma_p2 + i_a,
        sigma_b2=sigma_b2,
        best_cost=best_cost,
        i_a=i_a,
        sigma_gb2=sigma_gb2,
        round=state.round + 1,
        cost_history=state.cost_history + (float(np.mean(c)),),
    )


def run_placement(
    matrix: ReadingMatrix,
    clusters: ClusterSet,
    params: PlacementParams,
    record: list[PlacementState] | None = None,
) -> tuple[PlacementState, dict[int, float]]:
    """Run the full placement search; return the final state and the
    full-series cost of every clustered node.

    The search starts from each node's variance over its full reading series.
    Each round scores nodes over a growing data window: the window fills
    linearly across the first 90 percent of the rounds and then covers the
    complete series, so the cost stream settles once additional rounds stop
    bringing new data. One moments build serves the start state, every round's
    window and the returned costs. Pass a list as ``record`` to capture the
    state after every round.
    """
    moments = PrefixMoments(matrix, clusters)
    ids = tuple(moments.node_ids)
    n, sx, sx2 = moments._nodes[:, :, -1]
    if (n < 2).any():
        raise ValueError(f"node {ids[np.argmax(n < 2)]} has fewer than 2 readings; variance undefined")
    start = _variance(n, sx, sx2)
    total = moments.epoch_count
    fill_rounds = max(1, math.ceil(0.9 * params.rounds))
    windows = [max(2, math.ceil(total * k / fill_rounds)) for k in range(1, params.rounds + 1)]
    *rounds, full = moments.costs(windows + [total])

    state = PlacementState(
        ids, sigma_p2=start, sigma_b2=start, best_cost=np.full(len(ids), -math.inf), i_a=np.zeros(len(ids))
    )
    for row in rounds:
        state = placement_step(state, dict(zip(ids, row.tolist())), params)
        if record is not None:
            record.append(state)
    return state, dict(zip(ids, full.tolist()))


def select_nodes(costs: Mapping[int, float], threshold: float) -> set[int]:
    """Ids of nodes whose cost meets or exceeds the threshold."""
    if not math.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")
    return {nid for nid, c in costs.items() if c >= threshold}
