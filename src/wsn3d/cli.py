"""Command-line front end: cluster, estimate, predict, place, synth, pipeline.

Human-readable tables go to stdout; machine artifacts are always files under
--out, so repeated runs with identical flags produce byte-identical outputs.
Exit codes: 0 success, 1 usage or configuration error, 2 input-data error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from . import data_io, estimation, placement
from .clustering import ClusterSet, Deployment, form_clusters
from .errors import ConfigurationError, DataFormatError
from .geometry import CorrelationModel, EventSource, correlation, correlation_radius, pairwise_distances


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; usage errors are exit 1 here
        raise _UsageError(message)


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _add_model_flags(p: _Parser):
    p.add_argument("--theta", type=float, default=30.0, help="correlation range parameter (default 30)")
    p.add_argument("--alpha", type=float, default=1.0, help="correlation smoothness in (0,2] (default 1)")


def _add_nodes_flag(p: _Parser):
    p.add_argument("--nodes", required=True, help="node coordinate CSV (node_id,x,y,z)")


def _add_radius_flag(p: _Parser):
    p.add_argument("--radius", type=float, default=6.0, help="clustering radius in meters (default 6)")


def _add_cluster_flags(p: _Parser):
    _add_nodes_flag(p)
    _add_radius_flag(p)
    p.add_argument("--derive-radius", action="store_true",
                   help="derive the radius from --tau-n and the correlation model instead of --radius")
    p.add_argument("--tau-n", type=float, default=0.85, help="node correlation threshold (default 0.85)")
    p.add_argument("--tau-e", type=float, default=0.85, help="event correlation threshold (default 0.85)")
    p.add_argument("--event", type=str, default=None,
                   help="event position X,Y,Z; enables event-range filtering for clustering")


def _add_readings_flags(p: _Parser):
    p.add_argument("--readings", default=None, help="reading CSV (epoch,node_id,value)")
    p.add_argument("--synthetic", default=None, choices=["sun-shade", "uniform"],
                   help="generate readings instead of --readings")
    p.add_argument("--epochs", type=int, default=800, help="epochs for --synthetic (default 800)")


def _add_search_flags(p: _Parser):
    p.add_argument("--phi1", type=float, default=0.5, help="personal-best adaptation factor (default 0.5)")
    p.add_argument("--phi2", type=float, default=0.5, help="global-best adaptation factor (default 0.5)")
    p.add_argument("--rounds", type=int, default=300, help="search rounds (default 300)")
    p.add_argument("--threshold", type=_finite_float, default=5.0,
                   help="selection cost threshold (default 5)")


def _add_dead_flags(p: _Parser):
    p.add_argument("--dead", default="", help="comma-separated dead node ids whose readings to predict")
    p.add_argument("--predict-unbiased", action="store_true",
                   help="divide the live sum by the live count instead of the total count")
    p.add_argument("--eq13-literal", action="store_true",
                   help="use the live-count squared divisor in the normalized predictor")


def _add_signal_flags(p: _Parser):
    p.add_argument("--sigma-s2", type=float, default=1.0, help="source signal variance (default 1)")
    p.add_argument("--sigma-n2", type=float, default=0.05, help="per-node noise variance (default 0.05)")


def _add_out_flag(p: _Parser):
    p.add_argument("--out", type=str, default=".", help="output directory (default current)")
    p.add_argument("--seed", type=int, default=42, help="RNG seed (default 42)")


def _parse_event(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigurationError(f"--event expects X,Y,Z, got {text!r}")
    try:
        x, y, z = (float(v) for v in parts)
    except ValueError:
        raise ConfigurationError(f"--event expects numbers, got {text!r}") from None
    return (x, y, z)


def build_parser() -> _Parser:
    parser = _Parser(prog="wsn3d", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cluster", help="form clusters and write clusters.json")
    _add_cluster_flags(p)
    _add_model_flags(p)
    _add_out_flag(p)

    p = sub.add_parser("estimate", help="cluster, then report per-cluster information accuracy")
    _add_cluster_flags(p)
    _add_model_flags(p)
    _add_signal_flags(p)
    _add_out_flag(p)

    p = sub.add_parser("predict", help="predict readings for dead nodes")
    _add_nodes_flag(p)
    _add_readings_flags(p)
    _add_dead_flags(p)
    _add_model_flags(p)
    _add_out_flag(p)

    p = sub.add_parser("place", help="run the placement search and write cost curves")
    _add_nodes_flag(p)
    _add_readings_flags(p)
    _add_radius_flag(p)
    _add_search_flags(p)
    _add_model_flags(p)
    _add_out_flag(p)

    p = sub.add_parser("synth", help="generate a synthetic reading CSV")
    _add_nodes_flag(p)
    p.add_argument("--synthetic", default="sun-shade", choices=["sun-shade", "uniform"],
                   help="scenario to draw (default sun-shade)")
    p.add_argument("--epochs", type=int, default=800, help="epochs to draw (default 800)")
    p.add_argument("--variance", type=float, default=None,
                   help="field variance of --synthetic uniform (default 1); sun-shade fixes it at 1")
    _add_model_flags(p)
    _add_out_flag(p)

    p = sub.add_parser("pipeline", help="cluster, estimate, then place in one run")
    _add_cluster_flags(p)
    _add_model_flags(p)
    _add_signal_flags(p)
    _add_readings_flags(p)
    _add_search_flags(p)
    _add_dead_flags(p)
    _add_out_flag(p)

    return parser


def _load_deployment(args, with_event: bool) -> Deployment:
    dep = data_io.parse_nodes(args.nodes)
    if with_event and getattr(args, "event", None):
        ev = EventSource(position=_parse_event(args.event), tau_e=args.tau_e)
        dep = Deployment(nodes=dep.nodes, event=ev)
    return dep


def _clustering_radius(args, model: CorrelationModel) -> float:
    if args.derive_radius:
        return correlation_radius(model, args.tau_n)
    return args.radius


def _cluster(args, model: CorrelationModel):
    dep = _load_deployment(args, with_event=True)
    radius = _clustering_radius(args, model)
    return dep, radius, form_clusters(dep, radius, model if dep.event else None)


def _print_cluster_table(cs, reports=None):
    by_head = {r.head: r for r in reports} if reports else {}
    print(f"{len(cs)} clusters at radius {cs.radius:g} m")
    header = f"{'order':>5}  {'head':>4}  {'size':>4}  members"
    if by_head:
        header = f"{'order':>5}  {'head':>4}  {'size':>4}  {'accuracy':>9}  members"
    print(header)
    for c in cs:
        members = ",".join(str(m) for m in sorted(c.members)) or "-"
        if by_head:
            acc = by_head[c.head].accuracy
            print(f"{c.order_index:>5}  {c.head:>4}  {c.size:>4}  {acc:>9.4f}  {members}")
        else:
            print(f"{c.order_index:>5}  {c.head:>4}  {c.size:>4}  {members}")


def _event_for_estimation(args, dep: Deployment) -> tuple[EventSource, str]:
    if getattr(args, "event", None):
        return EventSource(position=_parse_event(args.event), tau_e=args.tau_e), "user"
    return EventSource(position=dep.centroid(), tau_e=args.tau_e), "centroid-default"


def _readings_matrix(args, dep: Deployment):
    readings = getattr(args, "readings", None)
    if readings and args.synthetic:
        raise ConfigurationError("pass either --readings or --synthetic, not both")
    if readings:
        return data_io.parse_readings(readings, deployment=dep)
    if args.synthetic:
        model = CorrelationModel(theta=args.theta, alpha=args.alpha)
        variance = getattr(args, "variance", None)
        if args.synthetic == "sun-shade":
            if variance is not None:
                raise ConfigurationError(
                    "--variance applies to --synthetic uniform only; sun-shade fixes it at 1"
                )
            scn = data_io.sun_shade_scenario(dep, model=model, epochs=args.epochs, seed=args.seed)
        else:
            scn = data_io.SyntheticScenario(
                model=model, variance=1.0 if variance is None else variance,
                epochs=args.epochs, seed=args.seed,
            )
        return data_io.generate_synthetic(scn, dep)
    raise ConfigurationError("readings required: pass --readings PATH or --synthetic NAME")


def cmd_cluster(args) -> int:
    model = CorrelationModel(theta=args.theta, alpha=args.alpha)
    dep, radius, cs = _cluster(args, model)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    meta = {"theta": args.theta, "alpha": args.alpha, "derived_radius": bool(args.derive_radius)}
    (out / "clusters.json").write_text(data_io.write_cluster_report(cs, metadata=meta), encoding="utf-8")
    _print_cluster_table(cs)
    print(f"wrote {out / 'clusters.json'}")
    return 0


def _estimate(args) -> tuple[Deployment, ClusterSet]:
    """Cluster, score every cluster, write clusters.json and print the table."""
    model = CorrelationModel(theta=args.theta, alpha=args.alpha)
    dep, radius, cs = _cluster(args, model)
    event, event_origin = _event_for_estimation(args, dep)
    sig = estimation.SignalModel(sigma_s2=args.sigma_s2)
    noise = estimation.NoiseProfile.uniform(dep.ids(), args.sigma_n2)
    reports = [estimation.cluster_accuracy(dep, c, model, sig, noise, event) for c in cs]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    meta = {
        "theta": args.theta, "alpha": args.alpha,
        "sigma_s2": args.sigma_s2, "sigma_n2": args.sigma_n2,
        "event": list(event.position), "event_origin": event_origin,
    }
    (out / "clusters.json").write_text(
        data_io.write_cluster_report(cs, reports, metadata=meta), encoding="utf-8"
    )
    if event_origin == "centroid-default":
        print(f"note: no --event given; using the deployment centroid {event.position}")
    _print_cluster_table(cs, reports)
    print(f"wrote {out / 'clusters.json'}")
    return dep, cs


def cmd_estimate(args) -> int:
    _estimate(args)
    return 0


def _dead_ids(args, dep: Deployment) -> list[int]:
    """The --dead ids, checked against the deployment; notes when there are none."""
    dead_ids = [int(v) for v in args.dead.split(",") if v.strip()]
    if not dead_ids:
        print("no dead nodes given; nothing to predict")
    unknown = set(dead_ids) - set(dep.ids())
    if unknown:
        raise ConfigurationError(f"dead ids not in deployment: {sorted(unknown)}")
    if set(dead_ids) == set(dep.ids()):
        raise ConfigurationError("all nodes are dead; nothing observed")
    return dead_ids


def _predict(args, dep: Deployment, matrix, dead_ids: list[int]) -> None:
    model = CorrelationModel(theta=args.theta, alpha=args.alpha)
    live_ids = [i for i in sorted(matrix.node_ids) if i not in dead_ids]
    missing = [i for i in live_ids if matrix.present_values(i).size == 0]
    if missing:
        raise DataFormatError(f"no readings for live nodes {missing}")
    observed = [float(matrix.present_values(i).mean()) for i in live_ids]
    o_total = len(live_ids) + len(dead_ids)
    value = estimation.predict_dead(observed, o_total, unbiased=args.predict_unbiased)
    all_ids = sorted(set(live_ids) | set(dead_ids))
    rho_pair = correlation(model, pairwise_distances([dep.node(i).position for i in all_ids]))
    divisor = "live" if args.eq13_literal else "total"
    print(f"{'dead':>5}  {'predicted':>10}  {'quality':>8}")
    for d in dead_ids:
        quality = estimation.prediction_accuracy(
            o_total, rho_pair[all_ids.index(d)], rho_pair, divisor=divisor, live_count=len(live_ids)
        )
        print(f"{d:>5}  {value:>10.4f}  {quality:>8.4f}")


def cmd_predict(args) -> int:
    dep = data_io.parse_nodes(args.nodes)
    dead_ids = _dead_ids(args, dep)
    if dead_ids:
        _predict(args, dep, _readings_matrix(args, dep), dead_ids)
    return 0


def _place(args, dep: Deployment, cs: ClusterSet):
    """Run the placement search on the partition ``cs``; write curve.csv and nodes.csv."""
    if not cs.clusters:
        raise ConfigurationError("no node was clustered; nothing to place")
    matrix = _readings_matrix(args, dep)
    missing = set(cs.all_ids()) - set(matrix.node_ids)
    if missing:
        raise DataFormatError(f"readings do not cover nodes {sorted(missing)}")
    params = placement.PlacementParams(phi1=args.phi1, phi2=args.phi2, rounds=args.rounds)
    state, costs = placement.run_placement(matrix, cs, params)
    selected = placement.select_nodes(costs, args.threshold)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    curve, nodes = data_io.write_cost_curves(state, costs, selected)
    (out / "curve.csv").write_text(curve, encoding="utf-8")
    (out / "nodes.csv").write_text(nodes, encoding="utf-8")
    print(f"{len(selected)} of {len(costs)} nodes selected at threshold {args.threshold:g}")
    return matrix, selected


def cmd_place(args) -> int:
    dep = data_io.parse_nodes(args.nodes)
    _, selected = _place(args, dep, form_clusters(dep, args.radius))
    if selected:
        print("selected:", ",".join(str(i) for i in sorted(selected)))
    out = Path(args.out)
    print(f"wrote {out / 'curve.csv'} and {out / 'nodes.csv'}")
    return 0


def cmd_synth(args) -> int:
    dep = data_io.parse_nodes(args.nodes)
    matrix = _readings_matrix(args, dep)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "readings.csv").write_text(data_io.write_readings(matrix), encoding="utf-8")
    print(f"wrote {out / 'readings.csv'} ({len(matrix.node_ids)} nodes x {len(matrix.epochs)} epochs)")
    return 0


def cmd_pipeline(args) -> int:
    dep, cs = _estimate(args)
    matrix, _ = _place(args, dep, cs)
    if args.dead:
        dead_ids = _dead_ids(args, dep)
        if dead_ids:
            _predict(args, dep, matrix, dead_ids)
    return 0


_COMMANDS = {
    "cluster": cmd_cluster,
    "estimate": cmd_estimate,
    "predict": cmd_predict,
    "place": cmd_place,
    "synth": cmd_synth,
    "pipeline": cmd_pipeline,
}


def _run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 1
    try:
        return _COMMANDS[args.command](args)
    except DataFormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (ConfigurationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # Whoever read stdout has gone. Point stdout at devnull so the flush
        # at interpreter exit has somewhere to write what is still buffered.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
