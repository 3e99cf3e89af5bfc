"""Observation fusion and information accuracy at a cluster head.

Simulates phase-shifted baseband observations, fuses them back with the
inverse-variance estimator, and sweeps the closed-form accuracy over noise
levels and cluster sizes.
"""

import dataclasses

import numpy as np

from wsn3d import (
    CorrelationModel,
    EventSource,
    NoiseProfile,
    SignalModel,
    blue_estimate,
    cluster_accuracy,
    empirical_mse,
    form_clusters,
    load_bundled_deployment,
    pairwise_distances,
    simulate_observations,
)
from wsn3d.clustering import Cluster

dep0 = load_bundled_deployment()
event = EventSource(position=dep0.centroid(), tau_e=0.85)
dep = dataclasses.replace(dep0, event=event)
model = CorrelationModel(theta=30.0, alpha=1.0)
sig = SignalModel(sigma_s2=1.0)
clusters = form_clusters(dep0, 6.0)
big = clusters.clusters[0]

print(f"cluster head {big.head} with {big.size} nodes")
source = np.random.default_rng(1).standard_normal(200)

for sigma_n2 in (0.0, 0.01, 0.1):
    noise = NoiseProfile.uniform(dep.node_ids.tolist(), sigma_n2)
    obs = simulate_observations(dep, big, sig, noise, source, seed=7)
    mse = empirical_mse(obs, sig, source)
    print(f"  noise variance {sigma_n2:5.2f}  ->  fusion MSE {mse:.3e}")

print()
print("zero-noise fusion is exact:")
noise0 = NoiseProfile.uniform(dep.node_ids.tolist(), 0.0)
obs0 = simulate_observations(dep, big, sig, noise0, source, seed=7)
print(f"  max |estimate - source| = {np.max(np.abs(blue_estimate(obs0, sig) - source)):.3e}")

print()
print("closed-form accuracy per cluster (noise variance 0.05, event at centroid)")
noise = NoiseProfile.uniform(dep.node_ids.tolist(), 0.05)
for c in clusters:
    rep = cluster_accuracy(dep0, c, model, sig, noise, event)
    print(
        f"  head {rep.head:>2} (m={rep.m:>2}): accuracy {rep.accuracy:.4f} "
        f"(gain {rep.gain_term:.4f}, redundancy {rep.redundancy_term:.4f}, "
        f"noise {rep.noise_term:.4f})"
    )

print()
print("accuracy versus cluster size: nodes joining nearest-to-event first")
order = dep0.node_ids[np.argsort(pairwise_distances(dep0.positions, event.position)[:, 0], kind="stable")].tolist()
for m in (1, 2, 5, 10, 20, 40, 54):
    chosen = order[:m]
    cluster = Cluster(head=chosen[0], members=frozenset(chosen[1:]), order_index=1)
    rep = cluster_accuracy(dep0, cluster, model, sig, noise, event)
    print(f"  m = {m:>2}  ->  accuracy {rep.accuracy:.4f}")
