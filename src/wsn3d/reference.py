"""Previously reported results for the bundled 54-node deployment.

These values were published for this exact coordinate set and are bundled as
comparison metadata. They are not regeneration targets: the accuracy figures
depend on unpublished signal/noise variances and event position.
"""

from __future__ import annotations

# Reported clustering at a 6 m sensing radius: head id -> member ids.
# Every member lies within 6 m of its head, and replaying a greedy capture in
# the order below (largest first) reproduces these sets exactly; see
# clustering.capture_clusters.
REPORTED_CLUSTERS: dict[int, frozenset[int]] = {
    25: frozenset({1, 2, 3, 8, 13, 19, 20, 21, 22, 23, 26, 36, 49, 50, 54}),
    14: frozenset({4, 7, 15, 18, 24, 27, 30, 34, 37, 39, 40, 41, 42, 43, 46, 48, 51, 53}),
    47: frozenset({5, 6, 12, 28, 32, 38}),
    33: frozenset({9, 10, 17, 35, 45, 52}),
    31: frozenset({29, 44}),
    16: frozenset(),
    11: frozenset(),
}

# Capture order consistent with non-increasing cluster sizes.
REPORTED_HEAD_ORDER: tuple[int, ...] = (14, 25, 47, 33, 31, 16, 11)

# Reported information accuracy per head, for this package's estimator design
# and four earlier models (anonymous labels a-d).
REPORTED_ACCURACY: dict[int, dict[str, float]] = {
    25: {"this": 0.9424, "baseline_a": 0.9412, "baseline_b": 0.9412, "baseline_c": 0.9300, "baseline_d": 0.9310},
    14: {"this": 0.9593, "baseline_a": 0.9570, "baseline_b": 0.9570, "baseline_c": 0.9484, "baseline_d": 0.9490},
    47: {"this": 0.9676, "baseline_a": 0.9656, "baseline_b": 0.9656, "baseline_c": 0.9566, "baseline_d": 0.9582},
    33: {"this": 0.9730, "baseline_a": 0.9678, "baseline_b": 0.9678, "baseline_c": 0.9531, "baseline_d": 0.9556},
    31: {"this": 0.9641, "baseline_a": 0.9604, "baseline_b": 0.9604, "baseline_c": 0.9495, "baseline_d": 0.9539},
    16: {"this": 0.9244, "baseline_a": 0.9176, "baseline_b": 0.9176, "baseline_c": 0.9121, "baseline_d": 0.9176},
    11: {"this": 0.9460, "baseline_a": 0.9427, "baseline_b": 0.9427, "baseline_c": 0.9376, "baseline_d": 0.9427},
}
