"""Predicting readings for dead nodes from their live neighbors.

On the bundled sun-shade readings, through the CLI's prediction path, compares
the shrinking-average predictor (divide by the total node count) with the
unbiased live mean, and scores prediction quality from the correlation geometry.
"""

from wsn3d import (
    CorrelationModel,
    correlation,
    load_bundled_deployment,
    pairwise_distances,
    predict_dead_nodes,
    prediction_accuracy,
    sun_shade_readings,
)

dep = load_bundled_deployment()
model = CorrelationModel(theta=30.0, alpha=1.0)
readings = sun_shade_readings(dep, model)  # 800 epochs, seed 42

for dead in ([], [3, 7], [3, 7, 11, 40]):
    literal, _ = predict_dead_nodes(dep, model, readings, dead)
    unbiased, _ = predict_dead_nodes(dep, model, readings, dead, unbiased=True)
    print(f"{len(dep) - len(dead)} live, {len(dead)} dead:  "
          f"total-divisor prediction {literal:7.3f}   live-mean {unbiased:7.3f}")

print()
print("predictor quality for each node, pretending it died (all 54 locations)")
rho_pair = correlation(model, pairwise_distances(dep.positions))
# every node's row of rho_pair is its rho_dead: score all 54 in one call
qualities = prediction_accuracy(len(dep), rho_pair, rho_pair)
scores = sorted(zip(qualities.tolist(), dep.node_ids.tolist()), reverse=True)
print("  best predicted (central, well correlated):")
for q, nid in scores[:3]:
    print(f"    node {nid:>2}: quality {q:.4f}")
print("  worst predicted (isolated corners):")
for q, nid in scores[-3:]:
    print(f"    node {nid:>2}: quality {q:.4f}")
