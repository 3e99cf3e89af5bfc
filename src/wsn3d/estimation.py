"""Observation simulation, BLUE fusion, information accuracy, and dead-node prediction.

The observation model is complex baseband: node q observes the source sample
multiplied by the steering phase exp(1j * 2*pi*q/wavelength * d_q) plus white
circularly symmetric Gaussian noise. The head undoes the phases and averages
with inverse-variance weights, which recovers the source exactly when noise is
absent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .clustering import Cluster, Deployment
from .errors import ConfigurationError
from .geometry import CorrelationModel, EventSource, correlation, pairwise_distances

_SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class SignalModel:
    """Source signal variance plus carrier parameters of the sensing channel.

    Defaults describe a 2.4 GHz carrier in free space, where
    speed = carrier_freq * wavelength / (2*pi) holds exactly.
    """

    sigma_s2: float = 1.0
    wavelength: float = 0.125
    carrier_freq: float = 2.0 * math.pi * 2.4e9
    speed: float = 3.0e8

    def __post_init__(self):
        if not (0.0 < self.sigma_s2 < math.inf):
            raise ValueError(f"sigma_s2 must be positive and finite, got {self.sigma_s2}")
        if self.wavelength <= 0.0 or self.speed <= 0.0:
            raise ValueError("wavelength and speed must be positive")


@dataclass(frozen=True)
class NoiseProfile:
    """Per-node noise variances, keyed by node id."""

    variances: Mapping[int, float]

    def __post_init__(self):
        bad = {i: v for i, v in self.variances.items() if not (0.0 <= v < math.inf)}
        if bad:
            raise ValueError(f"noise variances must be non-negative and finite: {bad}")

    @classmethod
    def uniform(cls, node_ids, variance: float) -> "NoiseProfile":
        return cls({int(i): float(variance) for i in node_ids})

    def for_nodes(self, node_ids) -> np.ndarray:
        try:
            return np.asarray([self.variances[i] for i in node_ids], dtype=float)
        except KeyError as exc:
            raise ConfigurationError(f"no noise variance for node {exc.args[0]}") from None


@dataclass
class ObservationSet:
    """Complex baseband samples of one cluster, ordered head first, then members by id."""

    node_ids: tuple[int, ...]
    samples: np.ndarray  # complex, shape (m, T)
    distances: np.ndarray  # to the event source, shape (m,)
    noise_variances: np.ndarray  # shape (m,)

    def __post_init__(self):
        m = self.samples.shape[0]
        if len(self.node_ids) != m or len(self.distances) != m or len(self.noise_variances) != m:
            raise ValueError("per-node arrays must agree with the sample row count")
        if np.any(self.distances < 0.0):
            raise ValueError("distances must be non-negative")

    @property
    def m(self) -> int:
        return len(self.node_ids)


@dataclass(frozen=True)
class AccuracyReport:
    """Information accuracy of one cluster and its three components.

    accuracy = gain_term - redundancy_term - noise_term.
    """

    head: int
    order_index: int
    m: int
    accuracy: float
    gain_term: float
    redundancy_term: float
    noise_term: float


def propagation_delay(model: SignalModel, d: float) -> float:
    """Travel time of the signal over distance d, i.e. d / speed.

    Identical to 2*pi*d / (carrier_freq * wavelength) whenever the model's
    speed is consistent with its carrier, as the defaults are.
    """
    return d / model.speed


def _cluster_order(cluster: Cluster) -> tuple[int, ...]:
    return (cluster.head, *sorted(cluster.members))


def _steering_phases(model: SignalModel, distances: np.ndarray) -> np.ndarray:
    q = np.arange(len(distances), dtype=float)
    return 2.0 * math.pi * q * distances / model.wavelength


def simulate_observations(
    dep: Deployment,
    cluster: Cluster,
    model: SignalModel,
    noise: NoiseProfile,
    source: Sequence[float],
    seed: int,
) -> ObservationSet:
    """Generate per-node baseband observations of a source sample sequence.

    Node q (in head-first order) sees source * exp(1j * 2*pi*q/wavelength * d_q)
    plus complex Gaussian noise of its profiled variance, split evenly between
    real and imaginary parts. Reproducible from the seed.
    """
    if dep.event is None:
        raise ConfigurationError("deployment has no event source; node distances are undefined")
    s = np.asarray(source, dtype=complex)
    if s.size == 0:
        raise ValueError("source sequence must be non-empty")
    order = _cluster_order(cluster)
    try:
        rows = dep.index(order)
    except KeyError as exc:
        raise ConfigurationError(f"cluster node missing from deployment: {exc.args[0]}") from None
    dists = pairwise_distances(dep.positions[rows], dep.event.position)[:, 0]
    variances = noise.for_nodes(order)

    phases = _steering_phases(model, dists)
    clean = s[None, :] * np.exp(1j * phases)[:, None]
    rng = np.random.default_rng(seed)
    scale = np.sqrt(variances / 2.0)[:, None]
    noise_draw = scale * (
        rng.standard_normal((len(order), s.size)) + 1j * rng.standard_normal((len(order), s.size))
    )
    return ObservationSet(
        node_ids=order,
        samples=clean + noise_draw,
        distances=dists,
        noise_variances=variances,
    )


def blue_estimate(obs: ObservationSet, model: SignalModel) -> np.ndarray:
    """Fuse the cluster's observations into a source estimate.

    Each node's samples are rotated back by its conjugate steering phase and
    combined with inverse-variance weights (a plain average when all noise
    variances are equal). Exact when noise is absent; unbiased otherwise.
    """
    if obs.m == 0:
        raise ValueError("observation set is empty")
    phases = _steering_phases(model, obs.distances)
    aligned = obs.samples * np.exp(-1j * phases)[:, None]
    v = obs.noise_variances
    if np.all(v == v[0]):
        return aligned.mean(axis=0)
    if np.any(v == 0.0):
        # noiseless rows carry infinite weight; average only those
        return aligned[v == 0.0].mean(axis=0)
    w = (1.0 / v) / np.sum(1.0 / v)
    return np.einsum("q,qt->t", w, aligned)


def empirical_mse(obs: ObservationSet, model: SignalModel, truth: Sequence[float]) -> float:
    """Mean squared error |truth - estimate|**2 of the fused estimate over epochs."""
    t = np.asarray(truth, dtype=complex)
    est = blue_estimate(obs, model)
    if t.shape != est.shape:
        raise ValueError(f"truth length {t.size} does not match {est.size} epochs")
    return float(np.mean(np.abs(t - est) ** 2))


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
    symmetric unit-diagonal matrix of pairwise node correlations.
    """
    return _accuracy_terms(m, rho_event, rho_pair, sigma_s2, noise_variances)[0]


def _correlation_sums(n, rows, rho_pair, name, stacked=False):
    """Row sums of ``rows`` and the off-diagonal sum of ``rho_pair``, once both are checked.

    rho_pair must be a symmetric (n, n) matrix. rows is one row of n
    correlations, shape (n,), or with stacked=True also k rows, shape (k, n);
    the row sums come back as a 0-d or a (k,) array. Each row is summed as
    np.sum sums it alone, whatever the memory order of ``rows``.
    """
    r = np.asarray(rows, dtype=float, order="C")
    rp = np.asarray(rho_pair, dtype=float)
    if r.shape[-1:] != (n,) or r.ndim > (2 if stacked else 1):
        shape = f"({n},) or (k, {n})" if stacked else f"({n},)"
        raise ValueError(f"{name} must have shape {shape}, got {r.shape}")
    if rp.shape != (n, n):
        raise ValueError(f"rho_pair must have shape ({n}, {n}), got {rp.shape}")
    if np.max(np.abs(rp - rp.T), initial=0.0) > _SYMMETRY_TOL:
        raise ValueError("rho_pair must be symmetric")
    return np.sum(r, axis=-1), float(np.sum(rp)) - float(np.sum(np.diag(rp)))


def _accuracy_terms(m, rho_event, rho_pair, sigma_s2, noise_variances):
    """(accuracy, gain, off-diagonal sum, noise numerator) of an m-node cluster."""
    if m < 1:
        raise ValueError(f"node count must be at least 1, got {m}")
    if sigma_s2 <= 0.0:
        raise ValueError(f"sigma_s2 must be positive, got {sigma_s2}")
    nv = np.asarray(noise_variances, dtype=float)
    if nv.shape != (m,):
        raise ValueError(f"noise_variances must have shape ({m},), got {nv.shape}")
    event_sum, off_sum = _correlation_sums(m, rho_event, rho_pair, "rho_event")
    if np.max(np.abs(np.diag(np.asarray(rho_pair, dtype=float)) - 1.0), initial=0.0) > _SYMMETRY_TOL:
        raise ValueError("rho_pair must have a unit diagonal")
    if np.any(nv < 0.0):
        raise ValueError("noise variances must be non-negative")
    gain = 2.0 * float(event_sum) / m
    noise_num = (m * sigma_s2 + float(np.sum(nv))) / sigma_s2
    # combine the two 1/m**2 terms before dividing so the perfect-correlation
    # zero-noise case yields exactly 1.0
    return gain - (off_sum + noise_num) / (m * m), gain, off_sum, noise_num


def cluster_accuracy(
    dep: Deployment,
    clusters: Cluster | Iterable[Cluster],
    model: CorrelationModel,
    sig: SignalModel,
    noise: NoiseProfile,
    event: EventSource,
) -> AccuracyReport | list[AccuracyReport]:
    """Information accuracy of one cluster, or of each of several, from their geometry.

    Correlations are taken from the exponential model: node-to-event distances
    give rho_event, pairwise node distances give rho_pair; head and members all
    count toward m. A single Cluster gives one report; a sequence of clusters,
    such as a ClusterSet, gives a list of reports in its order, each equal to
    the cluster's own report. rho_event and the noise variances are taken for
    the nodes of all clusters at once, rho_pair per cluster.
    """
    single = isinstance(clusters, Cluster)
    group = [clusters] if single else list(clusters)
    orders = [_cluster_order(c) for c in group]
    nodes = [i for order in orders for i in order]
    pos = dep.positions[dep.index(nodes)]
    rho_event = correlation(model, pairwise_distances(pos, event.position)[:, 0])
    nv = noise.for_nodes(nodes)
    reports = []
    start = 0
    for cluster, order in zip(group, orders):
        m = len(order)
        part = slice(start, start + m)
        start += m
        rho_pair = correlation(model, pairwise_distances(pos[part]))
        accuracy, gain, off_sum, noise_num = _accuracy_terms(
            m, rho_event[part], rho_pair, sig.sigma_s2, nv[part])
        reports.append(AccuracyReport(
            head=cluster.head,
            order_index=cluster.order_index,
            m=m,
            accuracy=accuracy,
            gain_term=gain,
            redundancy_term=off_sum / (m * m),
            noise_term=noise_num / (m * m),
        ))
    return reports[0] if single else reports


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
    is the live count O - k, which must be at least 1.
    """
    if o_total < 1:
        raise ValueError(f"total count must be at least 1, got {o_total}")
    dead_sums, off_sum = _correlation_sums(o_total, rho_dead, rho_pair, "rho_dead", stacked=True)
    d = o_total - dead_sums.size if live_divisor else o_total
    if d < 1:
        raise ValueError(f"live count must be at least 1, got {o_total} nodes of which {dead_sums.size} dead")
    quality = 2.0 / o_total * dead_sums - off_sum / (d * d)
    return quality if dead_sums.ndim else float(quality)
