"""Which wsn3d functions the traced run wraps, and the per-layer metrics.

Each function is patched where the CLI looks it up: module attributes that
``wsn3d.cli`` reaches as ``data_io.x`` or ``estimation.x``, names it imported
directly (``form_clusters``, ``correlation``), and ``PrefixMoments`` methods on
the class. The CLI call itself is the root span, named ``cli``.
"""

from __future__ import annotations

import math

ROOT = "cli"

# layer metric -> (span or counter name, field); fields come from
# SpanRecorder.layer_totals, "count" reads a counter.
LAYER_METRICS = {
    "placement.window_costs.s": ("placement.window_costs", "s"),
    "placement.window_costs.calls": ("placement.window_costs", "calls"),
    "placement.covariance.calls": ("placement.covariance.calls", "count"),
    "placement.moments_build.s": ("placement.moments_build", "s"),
    "placement.moments_build.calls": ("placement.moments_build", "calls"),
    "placement.placement_step.s": ("placement.placement_step", "s"),
    "placement.placement_step.calls": ("placement.placement_step", "calls"),
    "placement.run_placement.self_s": ("placement.run_placement", "self_s"),
    "clustering.form_clusters.s": ("clustering.form_clusters", "s"),
    "clustering.form_clusters.calls": ("clustering.form_clusters", "calls"),
    "clustering.elections": ("clustering.elections", "count"),
    "estimation.cluster_accuracy.s": ("estimation.cluster_accuracy", "s"),
    "estimation.cluster_accuracy.calls": ("estimation.cluster_accuracy", "calls"),
    "geometry.correlation.s": ("geometry.correlation", "s"),
    "geometry.correlation.calls": ("geometry.correlation", "calls"),
    "estimation.predict.s": ("estimation.predict", "s"),
    "data_io.parse_readings.s": ("data_io.parse_readings", "s"),
    "data_io.parse_readings.rows": ("data_io.parse_readings.rows", "count"),
    "data_io.write_readings.s": ("data_io.write_readings", "s"),
    "data_io.write_readings.rows": ("data_io.write_readings.rows", "count"),
    "data_io.generate_synthetic.s": ("data_io.generate_synthetic", "s"),
    "data_io.parse_nodes.s": ("data_io.parse_nodes", "s"),
    "data_io.serialize.s": ("data_io.serialize", "s"),
    "cli.self_s": (ROOT, "self_s"),
}


def install(rec, cli) -> None:
    """Wrap the layers of the already imported ``wsn3d.cli`` module ``cli``."""
    from wsn3d import data_io, estimation, placement

    moments = placement.PrefixMoments
    rec.wrap(moments, "__init__", "placement.moments_build")
    rec.wrap(moments, "costs", "placement.window_costs")
    rec.counter(moments, "covariance", "placement.covariance.calls")
    rec.wrap(placement, "placement_step", "placement.placement_step")
    rec.wrap(placement, "run_placement", "placement.run_placement")

    rec.wrap(cli, "form_clusters", "clustering.form_clusters",
             tally={"clustering.elections": lambda cs: sum(1 for c in cs if c.members)})
    rec.wrap(estimation, "cluster_accuracy", "estimation.cluster_accuracy")
    for module in (cli, estimation, data_io):
        rec.wrap(module, "correlation", "geometry.correlation")
    rec.wrap(estimation, "predict_dead", "estimation.predict")
    rec.wrap(estimation, "prediction_accuracy", "estimation.predict")

    rec.wrap(data_io, "parse_nodes", "data_io.parse_nodes")
    rec.wrap(data_io, "parse_readings", "data_io.parse_readings",
             tally={"data_io.parse_readings.rows": lambda m: int((~m.missing).sum())})
    rec.wrap(data_io, "write_readings", "data_io.write_readings",
             tally={"data_io.write_readings.rows": lambda text: text.count("\n") - 1})
    rec.wrap(data_io, "generate_synthetic", "data_io.generate_synthetic")
    rec.wrap(data_io, "write_cluster_report", "data_io.serialize")
    rec.wrap(data_io, "write_cost_curves", "data_io.serialize")


def pass_metrics(rec, pass_id: int) -> dict[str, float]:
    """Every layer metric of one traced pass; layers the pass never reached read 0."""
    totals = rec.layer_totals(pass_id)
    counts = rec.counts.get(pass_id, {})
    out = {}
    for metric, (name, field) in LAYER_METRICS.items():
        if field == "count":
            out[metric] = counts.get(name, 0)
        else:
            out[metric] = totals.get(name, {}).get(field, 0)
    return out


def self_time_coverage(rec, pass_id: int, traced_wall: float) -> float:
    """Sum of every span's self time in a pass, as a share of its traced wall time."""
    totals = rec.layer_totals(pass_id)
    return math.fsum(t["self_s"] for t in totals.values()) / traced_wall
