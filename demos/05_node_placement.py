"""Variance-driven node selection on the sun/shade scenario.

Generates the bundled two-population reading set, runs the 300-round placement
search, and shows the cost curve saturating and the threshold picking out
exactly the sunlit (high-variance) group.
"""

from wsn3d import (
    form_clusters,
    load_bundled_deployment,
    run_placement,
    select_nodes,
    sun_shade_groups,
    sun_shade_readings,
)

dep = load_bundled_deployment()
sun, shade = sun_shade_groups(dep)
print(f"deployment split: {len(sun)} sunlit nodes, {len(shade)} shaded nodes")

matrix = sun_shade_readings(dep, seed=42)
clusters = form_clusters(dep, 6.0)
threshold = 5.0
state, costs = run_placement(matrix, clusters, rounds=300)

print()
print("mean cost over rounds (window of readings grows, then saturates)")
for k in (1, 5, 20, 50, 100, 200, 270, 300):
    print(f"  round {k:>3}: {state.cost_history[k - 1]:7.3f}")

selected = select_nodes(costs, threshold)
print()
print(f"threshold {threshold:g} selects {len(selected)} nodes")
print(f"selection equals the sunlit group: {selected == sun}")

print()
print("per-node costs around the threshold")
ranked = sorted(costs.items(), key=lambda kv: -kv[1])
for nid, c in ranked[len(sun) - 3 : len(sun) + 3]:
    mark = "selected" if nid in selected else "rejected"
    print(f"  node {nid:>2}: cost {c:7.3f}  {mark}")
