"""Information accuracy of a cluster head's fused estimate, and dead-node prediction.

A cluster head fuses its m nodes' noisy readings of a Gaussian field into the
plain mean. Its information accuracy, 1 - E[(S - mean)**2] / sigma_s2 for the
field value S at the event, follows in closed form from the exponential
correlation model: a gain from each node's correlation with the event, less a
redundancy term from the pairwise correlations and a noise term.

predict_dead_nodes, the one entry point of prediction for library and CLI alike,
raises ConfigurationError for dead ids repeated, then unknown, then naming every
node, and DataFormatError, last, for live nodes without a present reading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .clustering import Cluster, Deployment
from .errors import ConfigurationError, DataFormatError
from .geometry import CorrelationModel, check_event, correlation, pairwise_distances

if TYPE_CHECKING:  # data_io imports this module
    from .data_io import ReadingMatrix

_SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class AccuracyReport:
    """Information accuracy of one cluster and its three components.

    accuracy = gain_term - redundancy_term - noise_term.
    """

    head: int
    m: int
    accuracy: float
    gain_term: float
    redundancy_term: float
    noise_term: float


def information_accuracy(
    m: int,
    rho_event: Sequence[float],
    rho_pair,
    sigma_s2: float,
    noise_variances: Sequence[float],
) -> float:
    """Normalized information accuracy of an m-node cluster.

    accuracy = (2/m) * sum_i rho_event[i]
             - (1/m**2) * (sum of off-diagonal rho_pair[i, j]
                           + (m * sigma_s2 + sum_i noise_variances[i]) / sigma_s2)

    rho_event holds each node's correlation with the source, rho_pair the
    symmetric unit-diagonal matrix of pairwise node correlations; both must be
    finite. sigma_s2 must be positive and finite, each noise variance
    non-negative and finite, and together they must keep the noise term finite.
    """
    nv = np.asarray(noise_variances, dtype=float)
    _check_variances(sigma_s2, nv, "noise variances")
    if m < 1:
        raise ValueError(f"node count must be at least 1, got {m}")
    if nv.shape != (m,):
        raise ValueError(f"noise_variances must have shape ({m},), got {nv.shape}")
    rho_e = np.asarray(rho_event, dtype=float)
    if rho_e.shape != (m,):
        raise ValueError(f"rho_event must have shape ({m},), got {rho_e.shape}")
    _check_finite(rho_e, "rho_event")
    rp = _checked_pair_matrix(m, rho_pair)
    if np.max(np.abs(np.diag(rp) - 1.0), initial=0.0) > _SYMMETRY_TOL:
        raise ValueError("rho_pair must have a unit diagonal")
    return _accuracy_formula(m, rho_e, rp, sigma_s2, nv)[0]


def _check_variances(sigma_s2: float, noise: np.ndarray, noise_name: str) -> None:
    """Raise ValueError unless sigma_s2 is positive and finite and every noise
    variance is non-negative and finite; the message names the first bad value."""
    if not 0.0 < sigma_s2 < math.inf:
        raise ValueError(f"sigma_s2 must be positive and finite, got {sigma_s2}")
    bad = noise[~((noise >= 0.0) & (noise < math.inf))]
    if bad.size:
        raise ValueError(f"{noise_name} must be non-negative and finite, got {bad[0]}")


def _check_finite(values: np.ndarray, name: str) -> None:
    """Raise ValueError naming the first non-finite correlation in ``values``."""
    bad = values[~np.isfinite(values)]
    if bad.size:
        raise ValueError(f"{name} must be finite, got {bad[0]}")


def _checked_pair_matrix(n: int, rho_pair) -> np.ndarray:
    """rho_pair as a float array, once it is checked to be a finite symmetric (n, n) matrix."""
    rp = np.asarray(rho_pair, dtype=float)
    if rp.shape != (n, n):
        raise ValueError(f"rho_pair must have shape ({n}, {n}), got {rp.shape}")
    _check_finite(rp, "rho_pair")
    if np.max(np.abs(rp - rp.T), initial=0.0) > _SYMMETRY_TOL:
        raise ValueError("rho_pair must be symmetric")
    return rp


def _off_diagonal_sum(rp: np.ndarray) -> float:
    return float(np.sum(rp)) - float(np.sum(np.diag(rp)))


def _accuracy_formula(m: int, rho_e: np.ndarray, rp: np.ndarray, sigma_s2: float, nv: np.ndarray):
    """(accuracy, gain, off-diagonal sum, noise numerator) of an m-node cluster
    from checked float arrays of shapes (m,), (m, m) and (m,) and checked
    variances. Raises ValueError when the variances overflow the noise term.
    """
    off_sum = _off_diagonal_sum(rp)
    gain = 2.0 * float(np.sum(rho_e)) / m
    with np.errstate(over="ignore"):
        noise_num = (m * sigma_s2 + float(np.sum(nv))) / sigma_s2
    if not math.isfinite(noise_num):
        raise ValueError(f"sigma_s2 {sigma_s2} and sigma_n2 overflow the noise term of a {m}-node cluster")
    # combine the two 1/m**2 terms before dividing so the perfect-correlation
    # zero-noise case yields exactly 1.0
    return gain - (off_sum + noise_num) / (m * m), gain, off_sum, noise_num


def cluster_accuracy(
    dep: Deployment,
    clusters: Iterable[Cluster],
    model: CorrelationModel,
    event,
    sigma_s2: float,
    sigma_n2: float,
) -> list[AccuracyReport]:
    """Information accuracy of each cluster, such as those of a ClusterSet, from their geometry.

    Correlations are taken from the exponential model: distances to the event,
    a finite 3D point, give rho_event, pairwise node distances give rho_pair;
    head and members all count toward m. sigma_s2 is the variance of the
    signal at the event and must be positive and finite; every node has the
    noise variance sigma_n2, which must be non-negative and finite. The event
    and both variances are checked before any cluster is scored; a cluster
    whose noise term they overflow raises ValueError. The reports
    come in the clusters' order, each equal to the one the cluster gets alone.
    rho_event is taken for the nodes of all clusters at once, rho_pair per
    cluster.
    """
    event = check_event(event)
    _check_variances(sigma_s2, np.asarray(sigma_n2, dtype=float), "sigma_n2")
    orders = [(c.head, *c.members) for c in clusters]
    nodes = [i for order in orders for i in order]
    pos = dep.positions[dep.index(nodes)]
    rho_event = correlation(model, pairwise_distances(pos, event)[:, 0])
    nv = np.full(len(nodes), float(sigma_n2))
    reports = []
    start = 0
    for order in orders:
        m = len(order)
        part = slice(start, start + m)
        start += m
        rho_pair = correlation(model, pairwise_distances(pos[part]))
        # the kernel's rho_pair is symmetric with a unit diagonal, so the
        # checks of information_accuracy are skipped
        accuracy, gain, off_sum, noise_num = _accuracy_formula(
            m, rho_event[part], rho_pair, sigma_s2, nv[part])
        reports.append(AccuracyReport(
            head=order[0],
            m=m,
            accuracy=accuracy,
            gain_term=gain,
            redundancy_term=off_sum / (m * m),
            noise_term=noise_num / (m * m),
        ))
    return reports


def predict_dead(observed: Sequence[float], o_total: int, unbiased: bool = False) -> float:
    """Predicted reading for a dead node from the live nodes' observations.

    The default divides the live sum by the total node count o_total, which
    shrinks the prediction toward zero as nodes die. Pass unbiased=True to
    divide by the live count instead (the plain mean).
    """
    obs = np.asarray(observed, dtype=float)
    if obs.size == 0:
        raise ValueError("nothing observed: no live nodes")
    if o_total < obs.size:
        raise ValueError(f"total count {o_total} is below the live count {obs.size}")
    divisor = obs.size if unbiased else o_total
    return float(np.sum(obs) / divisor)


def prediction_accuracy(o_total: int, rho_dead, rho_pair, live_divisor: bool = False) -> float | np.ndarray:
    """Normalized quality of the dead-node predictor, for one dead node or k at once.

    quality = (2/O) * sum_i rho_dead[i] - (1/D**2) * sum of off-diagonal rho_pair[i, j]

    where O = o_total. rho_dead is a dead node's row of correlations with all
    O nodes, shape (O,), giving a float, or the rows of k dead nodes, shape
    (k, O), giving a (k,) array; each row scores as it would alone. D is O by
    default (the dimensionally consistent choice); with live_divisor=True it
    is the live count O - k, which must be at least 1. rho_pair is the
    symmetric (O, O) matrix of pairwise correlations; both inputs must be
    finite.
    """
    if o_total < 1:
        raise ValueError(f"total count must be at least 1, got {o_total}")
    # C order sums each row as np.sum sums it alone, whatever the memory order of rho_dead
    rows = np.asarray(rho_dead, dtype=float, order="C")
    if rows.shape[-1:] != (o_total,) or rows.ndim > 2:
        raise ValueError(f"rho_dead must have shape ({o_total},) or (k, {o_total}), got {rows.shape}")
    _check_finite(rows, "rho_dead")
    off_sum = _off_diagonal_sum(_checked_pair_matrix(o_total, rho_pair))
    dead_sums = np.sum(rows, axis=-1)
    d = o_total - dead_sums.size if live_divisor else o_total
    if d < 1:
        raise ValueError(f"live count must be at least 1, got {o_total} nodes of which {dead_sums.size} dead")
    quality = 2.0 / o_total * dead_sums - off_sum / (d * d)
    return quality if dead_sums.ndim else float(quality)


def _check_dead_ids(dep: Deployment, dead_ids: Sequence[int]) -> None:
    """Raise ConfigurationError if a dead id is given more than once, is not
    a node of ``dep``, or if the ids name every node, checked in that order.
    The repeat check sorts the ids once, as Python ints, so it is O(k log k)
    and exact for ids past int64."""
    ordered = sorted(dead_ids)
    repeated = list(dict.fromkeys(a for a, b in zip(ordered, ordered[1:]) if a == b))
    if repeated:
        raise ConfigurationError(f"dead ids given more than once: {repeated}")
    unknown = set(dead_ids) - set(dep.node_ids.tolist())
    if unknown:
        raise ConfigurationError(f"dead ids not in deployment: {sorted(unknown)}")
    if len(dead_ids) == len(dep):  # distinct known ids, and the deployment's ids are distinct
        raise ConfigurationError("all nodes are dead; nothing observed")


def predict_dead_nodes(dep: Deployment, model: CorrelationModel, matrix: ReadingMatrix, dead_ids: Sequence[int],
                       unbiased: bool = False, live_divisor: bool = False) -> tuple[float, np.ndarray]:
    """The predicted reading of the dead nodes ``dead_ids`` and each one's quality.

    Every other node of ``dep`` is live, and its observation is the mean of
    its present readings in ``matrix``; rows of dead nodes, and of nodes not
    in ``dep``, are not read. The value is predict_dead of the live
    observations, in id order, with O the deployment's node count; the
    qualities, one per dead id in the given order, are prediction_accuracy of
    the dead rows of the id-ordered pairwise correlation matrix of all O
    nodes. unbiased and live_divisor select those functions' variants.

    The ids are checked first (see the module docstring for the order); a
    live node with no row, or no present cell in its row, then raises
    DataFormatError naming the silent ids in ascending order. An empty
    ``dead_ids`` is accepted: every node is live, the value is their plain
    mean under both variants, and the qualities are an empty array.
    """
    _check_dead_ids(dep, dead_ids)
    dead = dep.index(dead_ids)
    live_ids = np.delete(dep.node_ids, dead)
    ids = np.asarray(matrix.node_ids)
    rows = np.isin(ids, live_ids)  # the live nodes' rows, in id order as both types keep them
    live = matrix.values[rows]
    present = ~np.isnan(live)
    silent = ~np.isin(live_ids, ids[rows][present.any(axis=1)])  # no row, or no present cell in it
    if silent.any():
        raise DataFormatError(f"no readings for live nodes {live_ids[silent].tolist()}")
    observed = [float(row[keep].mean()) for row, keep in zip(live, present)]
    value = predict_dead(observed, len(dep), unbiased=unbiased)
    rho_pair = correlation(model, pairwise_distances(dep.positions))
    return value, prediction_accuracy(len(dep), rho_pair[dead], rho_pair, live_divisor=live_divisor)
