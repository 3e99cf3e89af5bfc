"""Swarm-style search over per-node signal variances with threshold selection.

Each node tracks its present variance, its personal best, and the network-wide
global best; an accumulator pulls the present variance toward both bests each
round. Costs score nodes by the temporal variance of their readings plus the
mean covariance with their cluster neighbors, so high-variability nodes win.

The update has no damping. While the bests stay fixed, let e be the present
variance less the mean of the two bests; one round maps (e, i_a) to
(i_a, i_a - e). That map has determinant 1 and trace 1, so its eigenvalues
are exp(+-i pi/3): the state repeats every 6 rounds and never settles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .clustering import ClusterSet, _row_blocks
from .data_io import ReadingMatrix, _int64
from .errors import ConfigurationError, DataFormatError


@dataclass(frozen=True, eq=False)
class PlacementState:
    """Search state after ``len(cost_history)`` rounds.

    Entry k of each (N,) array belongs to node ``node_ids[k]``; the ids are
    the partition's ``ClusterSet.node_ids``, ascending. Compare two states
    field by field with ``np.array_equal``.
    """

    node_ids: tuple[int, ...]
    sigma_p2: np.ndarray  # present signal variance
    sigma_b2: np.ndarray  # personal best variance
    best_cost: np.ndarray  # highest cost seen so far (-inf before the first round)
    i_a: np.ndarray  # accumulated variance increment
    sigma_gb2: float = 0.0
    cost_history: tuple[float, ...] = ()


def _covariance(n, sx, sy, sxy):
    """One-pass sample covariance from prefix moments (the variance when y is x)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return (sxy - sx * sy / n) / (n - 1)


def _variance(n, sx, sx2):
    """Sample variance from prefix moments: 0 below 2 epochs, clamped at 0."""
    v = _covariance(n, sx, sx, sx2)
    return np.where((n < 2) | (v < 0.0), 0.0, v)


# epochs of one block of the pair-sum Grams
_GRAM_EPOCHS = 32
# Gram cells of one chunk of windows: a chunk's (w, 2m, 2m) stack stays in cache
_GRAM_CELLS = 2**16
# cells of one block of gap-free cluster members: only one block's (rows, T) copies are live
_MEMBER_CELLS = 2**14


class PrefixMoments:
    """Prefix-resolved variances and pairwise covariances for cluster costs.

    Missing cells are excluded pairwise: a node's variance uses its present
    epochs, a covariance uses epochs present in both series. Prefix sums along
    the epochs make a node's variance over the first k epochs a lookup at
    column k-1; ``costs`` sums one moment at a time and keeps only the
    columns that end its windows. A cluster where no member misses an epoch
    needs no pair sums: prefix sums of each member's neighbor sum give its
    summed covariances. Other clusters take pair sums from Gram products of
    their presence and value rows: the Grams of fixed _GRAM_EPOCHS-epoch
    blocks are added in order, and each window adds the Gram of its own last
    partial block. Either way a window's sums depend only on that window.
    Terms with fewer than 2 usable epochs contribute nothing yet.
    """

    def __init__(self, matrix: ReadingMatrix, clusters: ClusterSet):
        self.node_ids = ids = np.asarray(clusters.node_ids)
        rows = np.flatnonzero(np.isin(matrix.node_ids, ids))
        if rows.size < len(ids):
            raise ValueError(f"readings missing for nodes {ids[~np.isin(ids, matrix.node_ids)].tolist()}")
        self.epoch_count = len(matrix.epochs)
        values = matrix.values[rows]  # a copy, rows in id order as ReadingMatrix keeps them
        missing = np.isnan(values)
        present = ~missing
        values[missing] = 0.0
        # shift each node by the mean of its present readings (0 with none): costs stay, sums keep their digits
        values -= values.sum(axis=1, keepdims=True) / np.maximum(present.sum(axis=1, keepdims=True), 1)
        values[missing] = 0.0
        self._present, self._values = present, values
        # positions in node_ids of the members of each cluster of 2 or more
        self._members = [np.searchsorted(ids, sorted((c.head, *c.members))) for c in clusters if c.members]

    def _window_sums(self, at: np.ndarray) -> list[np.ndarray]:
        """[n, sx, sx2], each (N, len(at)): every node's prefix moments at the epoch columns ``at``."""
        sums = [np.empty((len(self.node_ids), at.size)) for _ in range(3)]
        scratch = np.empty(self._values.shape)  # one moment's (N, T) prefix sums at a time
        for end, factors in zip(sums, ((self._present, 1.0), (self._values, 1.0), (self._values, self._values))):
            np.cumsum(np.multiply(*factors, out=scratch), axis=1, out=scratch)
            np.take(scratch, at, axis=1, out=end, mode="clip")  # "clip" writes out unbuffered; at is in range
        return sums

    def _covariances(self, members: np.ndarray, ends: np.ndarray):
        """Yield (windows, n, cov) for a chunk of windows at a time: the shared
        epoch counts and covariances of every pair of the m nodes ``members``
        over the first ``ends[w]`` epochs, each (w, m, m).

        Epoch rows of the members' presence and then their values form z of
        shape (T, 2m); the four m x m blocks of z's Gram over the first e
        epochs hold n, sy, sx and sxy.
        """
        m, b, t = members.size, _GRAM_EPOCHS, self.epoch_count
        z = np.zeros(((t // b + 1) * b, 2 * m))  # a zero tail completes the last block
        z[:t, :m], z[:t, m:] = self._present[members].T, self._values[members].T
        blocks = z.reshape(-1, b, 2 * m)  # (K + 1, b, 2m)
        prefix = np.zeros((len(blocks), 2 * m, 2 * m))  # prefix[k]: the Gram of the first k blocks
        np.matmul(blocks[:-1].transpose(0, 2, 1), blocks[:-1], out=prefix[1:])
        np.cumsum(prefix[1:], axis=0, out=prefix[1:])
        for chunk in _row_blocks(ends.size, max(1, _GRAM_CELLS // (2 * m) ** 2)):
            full, rest = np.divmod(ends[chunk], b)
            tail = blocks[full]
            tail *= (np.arange(b) < rest[:, None])[:, :, None]
            sums = tail.transpose(0, 2, 1) @ tail
            sums += prefix[full]
            n = sums[:, :m, :m]
            yield chunk, n, _covariance(n, sums[:, m:, :m], sums[:, :m, m:], sums[:, m:, m:])

    def covariance(self, i: int, j: int, upto: int) -> float | None:
        """Covariance of nodes i and j over the first ``upto`` epochs (capped at
        the series), or None below 2 shared epochs. Both nodes must be in the
        same cluster."""
        if upto < 1:
            raise ValueError(f"need at least 1 epoch, got {upto}")
        for members in self._members:
            pair = members[np.isin(np.take(self.node_ids, members), (i, j))]
            if i != j and pair.size == 2:
                ((_, n, cov),) = self._covariances(pair, np.array([min(upto, self.epoch_count)]))
                return None if n[0, 0, 1] < 2 else float(cov[0, 0, 1])
        raise KeyError(f"nodes {i} and {j} are not a pair of one cluster")

    def costs(self, windows: Sequence[int]) -> np.ndarray:
        """(len(windows), N) cost matrix: row w scores every node, in node_ids
        order, over its first ``windows[w]`` epochs (capped at the series).

        A node's neighbor term is the mean over its cluster neighbors of the
        covariances with at least 2 shared epochs. In a cluster where no member
        misses an epoch every pair shares all e epochs, so the sum of node i's
        covariances is its covariance with o_i, the sum of the other members'
        series; it comes from prefix sums of o and x * o, a block of members at
        a time. Other clusters take the pair sums of ``_covariances``. Each
        distinct capped window is scored once; each node's variance over the
        longest one stays in ``_variances``.
        """
        at = np.minimum(np.asarray(windows, dtype=np.intp), self.epoch_count) - 1
        if at.size and at.min() < 1:
            raise ValueError(f"need at least 2 epochs, got {at.min() + 1}")
        at, rows = np.unique(at, return_inverse=True)
        n, sx, sx2 = self._window_sums(at)
        out = _variance(n, sx, sx2).T
        del n, sx2  # the neighbor terms read only sx
        self._variances = out[-1].copy() if at.size else None
        for members in self._members:
            if self._present[members].all():
                total = sum(self._values[row] for row in members)  # added from 0 in member order, as x.sum(axis=0)
                for block in _row_blocks(members.size, max(1, _MEMBER_CELLS // self.epoch_count)):
                    part = members[block]
                    x = self._values[part]  # a copy
                    o = total - x  # each member's neighbor sum
                    x *= o
                    so = np.cumsum(o, axis=1, out=o)[:, at]
                    sxo = np.cumsum(x, axis=1, out=x)[:, at]
                    out[:, part] += (_covariance(at + 1, sx[part], so, sxo) / (members.size - 1)).T
            else:
                off_diagonal = ~np.eye(members.size, dtype=bool)
                for chunk, n, cov in self._covariances(members, at + 1):
                    usable = (n >= 2) & off_diagonal
                    count = usable.sum(axis=2)
                    # the mean of the usable covariances, 0 with none
                    out[chunk, members] += np.where(usable, cov, 0.0).sum(axis=2) / np.maximum(count, 1)
        return out[rows]


def placement_step(
    state: PlacementState,
    costs: np.ndarray,
    record: list[PlacementState] | None = None,
) -> PlacementState:
    """Advance the search one round per row of ``costs``, an (R, N) array whose
    row r holds round r's cost of every node in ``state.node_ids`` order; a
    1-D row is one round.

    Each round, personal bests absorb any cost improvement (an equal or NaN
    cost is none), the global best variance is re-selected from the node with
    the best cost so far (ties to the smaller id), and then every node updates
    its accumulator and present variance:

        i_a     += 0.5 * (sigma_b2 - sigma_p2) + 0.5 * (sigma_gb2 - sigma_p2)
        sigma_p2 += i_a

    Each round's mean cost is appended to the history. The running best costs,
    leaders and means of all R rounds are array operations; only the variance
    recurrence loops over the rounds, so R rounds in one call give the same
    bits as R one-row calls. Pass a list as ``record`` to append the state
    after every round; no two recorded states share an array. The arrays of
    ``state`` are left as they are.
    """
    c = np.asarray(costs, dtype=float)
    c = c[None] if c.ndim == 1 else c
    if c.ndim != 2 or c.shape[1] != len(state.node_ids):
        raise ValueError(f"costs must be (rounds, {len(state.node_ids)}) in node_ids order, got shape {c.shape}")
    # running best before each round; NaN costs never improve, a NaN best stays (np.where semantics)
    prior = np.maximum.accumulate(np.vstack([state.best_cost, np.where(np.isnan(c), -math.inf, c)]), axis=0)
    improved = c > prior[:-1]
    # each best is the cost of its last improvement, so the sign of a zero survives
    last = np.maximum.accumulate(np.where(improved, np.arange(len(c))[:, None], -1), axis=0)
    best_cost = np.where(last >= 0, np.take_along_axis(c, np.maximum(last, 0), axis=0), state.best_cost)
    leaders = np.argmax(best_cost, axis=1).tolist()
    means = np.ascontiguousarray(c).mean(axis=1).tolist()  # C order: each row sums as np.mean of it alone

    p, b, i_a, gb = state.sigma_p2, state.sigma_b2, state.i_a, state.sigma_gb2
    for r, leader in enumerate(leaders):
        b = np.where(improved[r], p, b)
        gb = float(b[leader])
        i_a = i_a + 0.5 * (b - p) + 0.5 * (gb - p)
        p = p + i_a
        if record is not None:
            record.append(
                replace(
                    state, sigma_p2=p, sigma_b2=b, best_cost=best_cost[r].copy(), i_a=i_a, sigma_gb2=gb,
                    cost_history=state.cost_history + tuple(means[: r + 1]),
                )
            )
    return replace(
        state,
        sigma_p2=p,
        sigma_b2=b,
        best_cost=best_cost[-1].copy() if len(c) else state.best_cost,
        i_a=i_a,
        sigma_gb2=gb,
        cost_history=state.cost_history + tuple(means),
    )


def run_placement(
    matrix: ReadingMatrix,
    clusters: ClusterSet,
    rounds: int = 300,
    record: list[PlacementState] | None = None,
) -> tuple[PlacementState, dict[int, float]]:
    """Run the full placement search; return the final state and the
    full-series cost of every clustered node.

    The search starts from each node's variance over its full reading series.
    Each round scores nodes over a growing data window: the window fills
    linearly across the first 90 percent of the rounds and then covers the
    complete series, so the cost stream settles once additional rounds stop
    bringing new data. One ``costs`` call scores every round's window; the
    last round's window is the full series, so its row gives the returned
    costs and its variances the start state, and one ``placement_step`` call
    advances every round. Pass a list as ``record`` to capture the state after
    every round.

    Raises ValueError when ``rounds`` is not an int64 integer or is below 1,
    then ConfigurationError when ``clusters`` has no cluster, and then
    DataFormatError naming every clustered node with fewer than 2 present
    readings (a node absent from ``matrix`` has 0).
    """
    if not _int64(rounds):
        raise ValueError(f"rounds must be an integer, got {rounds!r}")
    if rounds < 1:
        raise ValueError(f"rounds must be at least 1, got {rounds}")
    if not clusters.clusters:
        raise ConfigurationError("no node was clustered; nothing to place")
    counted = set(np.asarray(matrix.node_ids)[np.count_nonzero(~matrix.missing, axis=1) >= 2].tolist())
    short = [i for i in clusters.node_ids if i not in counted]
    if short:
        raise DataFormatError(f"clustered nodes with fewer than 2 readings: {short}")
    moments = PrefixMoments(matrix, clusters)
    ids = clusters.node_ids
    total = moments.epoch_count
    fill_rounds = max(1, math.ceil(0.9 * rounds))
    windows = [max(2, math.ceil(total * k / fill_rounds)) for k in range(1, rounds + 1)]
    costs = moments.costs(windows)
    start = moments._variances  # over the last round's window, the full series

    state = PlacementState(
        ids, sigma_p2=start, sigma_b2=start, best_cost=np.full(len(ids), -math.inf), i_a=np.zeros(len(ids))
    )
    return placement_step(state, costs, record), dict(zip(ids, costs[-1].tolist()))


def select_nodes(costs: Mapping[int, float], threshold: float) -> set[int]:
    """Ids of nodes whose cost meets or exceeds the threshold."""
    if not math.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")
    return {nid for nid, c in costs.items() if c >= threshold}
