"""Cluster the bundled 54-node deployment.

Runs the max-neighbor head election at the 6 m radius and at the radius
derived from the tau=0.85 correlation threshold, then replays the previously
reported partition to show it is consistent with a 6 m capture around its
heads even though the election order differs.
"""

from wsn3d import (
    CorrelationModel,
    capture_clusters,
    correlation_radius,
    form_clusters,
    load_bundled_deployment,
)
from wsn3d.reference import REPORTED_CLUSTERS, REPORTED_HEAD_ORDER

dep = load_bundled_deployment()
model = CorrelationModel(theta=30.0, alpha=1.0)


def show(cs, title):
    print(title)
    for order, c in enumerate(cs, start=1):
        members = ",".join(str(m) for m in c.members) or "-"
        print(f"  #{order}: head {c.head:>2} ({c.size} nodes)  {members}")
    print()


show(form_clusters(dep, 6.0), "max-neighbor election at 6 m")

derived = correlation_radius(model, 0.85)
show(form_clusters(dep, derived), f"max-neighbor election at the derived {derived:.3f} m")

replay = capture_clusters(dep, REPORTED_HEAD_ORDER, 6.0)
show(replay, "greedy 6 m capture replay of the reported heads")

ok = {c.head: set(c.members) for c in replay} == {h: set(m) for h, m in REPORTED_CLUSTERS.items()}
print(f"replay reproduces the reported member sets exactly: {ok}")
print(
    "note: the reported table is capture-consistent at 6 m, but its head order\n"
    "cannot arise from the max-neighbor election (the first election winner\n"
    "has 41 in-range neighbors; the largest reported cluster has 18)."
)
