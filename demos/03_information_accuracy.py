"""Information accuracy at a cluster head: the closed form and a simulated field.

The head fuses its cluster's noisy readings into their plain mean. Its
accuracy, 1 - E[(S - mean)**2] / sigma_s2 for the field value S at the event,
has a closed form; drawing the field with the event as one more node checks
it. Then sweeps the closed form over cluster sizes.
"""

import math

import numpy as np

from wsn3d import (
    CorrelationModel,
    Deployment,
    cluster_accuracy,
    form_clusters,
    generate_synthetic,
    load_bundled_deployment,
    pairwise_distances,
)
from wsn3d.clustering import Cluster

dep = load_bundled_deployment()
event = dep.centroid()
model = CorrelationModel(theta=30.0, alpha=1.0)
sigma_s2 = 1.0
sigma_n2 = 0.05
clusters = form_clusters(dep, 6.0)
reports = cluster_accuracy(dep, clusters, model, event, sigma_s2, sigma_n2)

print(f"closed-form accuracy per cluster (noise variance {sigma_n2}, event at centroid)")
for rep in reports:
    print(
        f"  head {rep.head:>2} (m={rep.m:>2}): accuracy {rep.accuracy:.4f} "
        f"(gain {rep.gain_term:.4f}, redundancy {rep.redundancy_term:.4f}, "
        f"noise {rep.noise_term:.4f})"
    )

print()
draws = 20_000
print(f"closed form against 1 - MSE of the fused mean over {draws} field draws")
event_id = int(dep.node_ids.max()) + 1
with_event = Deployment(np.append(dep.node_ids, event_id), np.vstack([dep.positions, event]))
field = generate_synthetic(with_event, model, draws, seed=5).values
readings = field + np.random.default_rng(5).normal(0.0, math.sqrt(sigma_n2), field.shape)
s = field[with_event.index([event_id])[0]]
for cluster, rep in zip(clusters, reports):
    err = (s - readings[with_event.index([cluster.head, *cluster.members])].mean(axis=0)) ** 2 / sigma_s2
    z = (1.0 - err.mean() - rep.accuracy) / (err.std(ddof=1) / math.sqrt(draws))
    print(f"  head {rep.head:>2} (m={rep.m:>2}): formula {rep.accuracy:.4f}  simulated {1.0 - err.mean():.4f}  z {z:+.2f}")

print()
print("accuracy versus cluster size: nodes joining nearest-to-event first")
order = dep.node_ids[np.argsort(pairwise_distances(dep.positions, event)[:, 0], kind="stable")].tolist()
for m in (1, 2, 5, 10, 20, 40, 54):
    chosen = order[:m]
    cluster = Cluster(head=chosen[0], members=frozenset(chosen[1:]))
    rep = cluster_accuracy(dep, [cluster], model, event, sigma_s2, sigma_n2)[0]
    print(f"  m = {m:>2}  ->  accuracy {rep.accuracy:.4f}")
