"""Command-line front end: cluster, estimate, predict, place, synth, pipeline.

Human-readable tables go to stdout; machine artifacts are always files under
--out, written only once every stage has succeeded, so a failed run writes
none and repeated runs with identical flags produce byte-identical outputs.
Exit codes: 0 success, 1 usage or configuration error, 2 input-data error.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import data_io, estimation, placement
from .clustering import ClusterSet, Deployment, form_clusters
from .errors import ConfigurationError, DataFormatError
# correlation is unused here, but perfbench/layers.py wraps cli.correlation by name
from .geometry import CorrelationModel, check_event, correlation, correlation_radius  # noqa: F401


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; usage errors are exit 1 here
        raise _UsageError(message)


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
    p.add_argument("--rounds", type=int, default=300, help="search rounds (default 300)")
    p.add_argument("--threshold", type=float, default=5.0,
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


def _parse_event(text: str | None) -> tuple[float, float, float] | None:
    """The --event point, three numbers in the input files' plain grammar (spaces
    around each allowed) checked to be finite; None when the flag is absent."""
    if text is None:
        return None
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigurationError(f"--event expects X,Y,Z, got {text!r}")
    try:
        if not all(data_io._plain(v.strip()) for v in parts):
            raise ValueError
        x, y, z = (float(v) for v in parts)
    except ValueError:
        raise ConfigurationError(f"--event expects numbers, got {text!r}") from None
    check_event((x, y, z))
    return (x, y, z)


def _add_synth_flags(p: _Parser):
    p.add_argument("--synthetic", default="sun-shade", choices=["sun-shade", "uniform"],
                   help="scenario to draw (default sun-shade)")
    p.add_argument("--epochs", type=int, default=800, help="epochs to draw (default 800)")
    p.set_defaults(readings=None)  # synth always draws; _readings_matrix reads args.readings


# the top-level --help text, kept apart from the module docstring so that
# editing the documentation leaves the CLI's output as it is
_DESCRIPTION = (
    "Cluster a 3D sensor deployment, score each cluster's information "
    "accuracy, predict dead nodes' readings and search node placement. "
    "Exit codes: 0 success, 1 usage or configuration error, 2 input-data error."
)


def build_parser(command: str | None = None) -> _Parser:
    """The CLI's argument parser.

    When ``command`` names a subcommand, the parser holds that subcommand
    alone, with all its flags: each add_argument call sizes a help formatter
    to the terminal, so a run builds only the subcommand it runs. Otherwise
    (None, --help or an unknown name) it holds every subcommand, so the
    top-level help and the invalid-choice error list them all.
    """
    parser = _Parser(prog="wsn3d", description=_DESCRIPTION)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in [command] if command in _SUBCOMMANDS else _SUBCOMMANDS:
        _, help_text, flag_adders = _SUBCOMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for add_flags in flag_adders:
            add_flags(p)
    return parser


def _write_outputs(out: Path, texts: dict[str, str]) -> None:
    """Write each text to its file name under the --out directory, made if
    missing, as UTF-8 bytes: LF stays LF on every platform."""
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, text in texts.items():
            (out / name).write_bytes(text.encode("utf-8"))
    except OSError as exc:
        raise ConfigurationError(f"cannot write --out {out}: {exc}") from None


def _cluster(args, model: CorrelationModel, dep: Deployment, event) -> ClusterSet:
    """Cluster the nodes within the --tau-e range of the event, or all of
    them without one. --tau-n and --tau-e are checked whether or not this
    run reads them."""
    for flag, tau in (("--tau-n", args.tau_n), ("--tau-e", args.tau_e)):
        if not 0.0 < tau <= 1.0:
            raise ConfigurationError(f"{flag} must lie in (0, 1], got {tau}")
    radius = correlation_radius(model, args.tau_n) if args.derive_radius else args.radius
    return form_clusters(dep, radius, event, correlation_radius(model, args.tau_e))


def _cluster_table(cs, reports=None) -> list[str]:
    """The printed table of the partition; reports, one per cluster in its
    order, add an accuracy column when there are any."""
    header = f"{'accuracy':>9}  " if reports else ""
    accuracies = [f"{r.accuracy:>9.4f}  " for r in reports] if reports else [""] * len(cs)
    lines = [f"{len(cs)} clusters at radius {cs.radius:g} m",
             f"{'order':>5}  {'head':>4}  {'size':>4}  {header}members"]
    for order, (c, acc) in enumerate(zip(cs, accuracies), start=1):
        members = ",".join(str(m) for m in c.members) or "-"
        lines.append(f"{order:>5}  {c.head:>4}  {c.size:>4}  {acc}{members}")
    return lines


def _readings_matrix(args, dep: Deployment, model: CorrelationModel):
    if args.readings and args.synthetic:
        raise ConfigurationError("pass either --readings or --synthetic, not both")
    if args.readings:
        return data_io.parse_readings(args.readings, deployment=dep)
    if args.synthetic == "sun-shade":
        return data_io.sun_shade_readings(dep, model, args.epochs, args.seed)
    if args.synthetic:
        return data_io.generate_synthetic(dep, model, args.epochs, args.seed)
    raise ConfigurationError("readings required: pass --readings PATH or --synthetic NAME")


def cmd_cluster(args, dep: Deployment, model: CorrelationModel) -> tuple[dict[str, str], list[str]]:
    cs = _cluster(args, model, dep, _parse_event(args.event))
    meta = {"theta": args.theta, "alpha": args.alpha, "derived_radius": bool(args.derive_radius)}
    texts = {"clusters.json": data_io.write_cluster_report(cs, metadata=meta)}
    return texts, [*_cluster_table(cs), f"wrote {Path(args.out) / 'clusters.json'}"]


def _estimate(args, dep: Deployment, model: CorrelationModel, event) -> tuple[ClusterSet, dict[str, str], list[str]]:
    """Cluster and score every cluster at the event, or at the deployment
    centroid without one: the partition, the clusters.json text by file name
    and the lines to print once it is written."""
    cs = _cluster(args, model, dep, event)
    point, event_origin = (event, "user") if event is not None else (dep.centroid(), "centroid-default")
    reports = estimation.cluster_accuracy(dep, cs, model, point, args.sigma_s2, args.sigma_n2)
    meta = {
        "theta": args.theta, "alpha": args.alpha,
        "sigma_s2": args.sigma_s2, "sigma_n2": args.sigma_n2,
        "event": list(point), "event_origin": event_origin,
    }
    note = f"note: no --event given; using the deployment centroid {point}"
    lines = [note] if event_origin == "centroid-default" else []
    lines += [*_cluster_table(cs, reports), f"wrote {Path(args.out) / 'clusters.json'}"]
    return cs, {"clusters.json": data_io.write_cluster_report(cs, reports, metadata=meta)}, lines


def cmd_estimate(args, dep: Deployment, model: CorrelationModel) -> tuple[dict[str, str], list[str]]:
    _, texts, lines = _estimate(args, dep, model, _parse_event(args.event))
    return texts, lines


def _dead_ids(args, dep: Deployment) -> list[int]:
    """The --dead ids, integers in the node file's plain grammar (spaces around
    each allowed), checked against the deployment by estimation._check_dead_ids."""
    items = [v for v in map(str.strip, args.dead.split(",")) if v]
    try:
        if not all(map(data_io._plain, items)):
            raise ValueError
        dead_ids = [int(v) for v in items]
    except ValueError:
        raise ConfigurationError(f"--dead expects comma-separated node ids, got {args.dead!r}") from None
    estimation._check_dead_ids(dep, dead_ids)
    return dead_ids


def _predict(args, dep: Deployment, model: CorrelationModel, matrix, dead_ids: list[int]) -> list[str]:
    """The table of each dead node's predicted reading and its quality, as lines."""
    value, qualities = estimation.predict_dead_nodes(
        dep, model, matrix, dead_ids, unbiased=args.predict_unbiased, live_divisor=args.eq13_literal)
    return [f"{'dead':>5}  {'predicted':>10}  {'quality':>8}",
            *(f"{d:>5}  {value:>10.4f}  {quality:>8.4f}" for d, quality in zip(dead_ids, qualities))]


def cmd_predict(args, dep: Deployment, model: CorrelationModel) -> tuple[dict[str, str], list[str]]:
    dead_ids = _dead_ids(args, dep)
    if not dead_ids:
        return {}, ["no dead nodes given; nothing to predict"]
    return {}, _predict(args, dep, model, _readings_matrix(args, dep, model), dead_ids)


def _place(args, cs: ClusterSet, matrix) -> tuple[set[int], str, dict[str, str]]:
    """Run the placement search on the partition ``cs``: the selected ids, the
    line to print and the texts of curve.csv and nodes.csv."""
    state, costs = placement.run_placement(matrix, cs, args.rounds)
    selected = placement.select_nodes(costs, args.threshold)
    curve, nodes = data_io.write_cost_curves(state, costs, selected)
    line = f"{len(selected)} of {len(costs)} nodes selected at threshold {args.threshold:g}"
    return selected, line, {"curve.csv": curve, "nodes.csv": nodes}


def cmd_place(args, dep: Deployment, model: CorrelationModel) -> tuple[dict[str, str], list[str]]:
    cs = form_clusters(dep, args.radius)
    selected, line, texts = _place(args, cs, _readings_matrix(args, dep, model))
    chosen = ["selected: " + ",".join(str(i) for i in sorted(selected))] if selected else []
    out = Path(args.out)
    return texts, [line, *chosen, f"wrote {out / 'curve.csv'} and {out / 'nodes.csv'}"]


def cmd_synth(args, dep: Deployment, model: CorrelationModel) -> tuple[dict[str, str], list[str]]:
    matrix = _readings_matrix(args, dep, model)
    line = f"wrote {Path(args.out) / 'readings.csv'} ({len(matrix.node_ids)} nodes x {len(matrix.epochs)} epochs)"
    return {"readings.csv": data_io.write_readings(matrix)}, [line]


def cmd_pipeline(args, dep: Deployment, model: CorrelationModel) -> tuple[dict[str, str], list[str]]:
    event = _parse_event(args.event)
    dead_ids = _dead_ids(args, dep)
    matrix = _readings_matrix(args, dep, model)
    cs, texts, lines = _estimate(args, dep, model, event)
    _, line, place_texts = _place(args, cs, matrix)
    lines.append(line)
    if dead_ids:
        lines += _predict(args, dep, model, matrix, dead_ids)
    elif args.dead:
        lines.append("no dead nodes given; nothing to predict")
    return {**texts, **place_texts}, lines


# subcommand -> (handler, help line, flag adders in --help order); a handler maps
# (args, deployment, model) to its artifact texts by file name and its stdout lines
_SUBCOMMANDS = {
    "cluster": (cmd_cluster, "form clusters and write clusters.json",
                (_add_cluster_flags, _add_model_flags, _add_out_flag)),
    "estimate": (cmd_estimate, "cluster, then report per-cluster information accuracy",
                 (_add_cluster_flags, _add_model_flags, _add_signal_flags, _add_out_flag)),
    "predict": (cmd_predict, "predict readings for dead nodes",
                (_add_nodes_flag, _add_readings_flags, _add_dead_flags, _add_model_flags, _add_out_flag)),
    "place": (cmd_place, "run the placement search and write cost curves",
              (_add_nodes_flag, _add_readings_flags, _add_radius_flag, _add_search_flags, _add_model_flags,
               _add_out_flag)),
    "synth": (cmd_synth, "generate a synthetic reading CSV",
              (_add_nodes_flag, _add_synth_flags, _add_model_flags, _add_out_flag)),
    "pipeline": (cmd_pipeline, "cluster, estimate, then place in one run",
                 (_add_cluster_flags, _add_model_flags, _add_signal_flags, _add_readings_flags,
                  _add_search_flags, _add_dead_flags, _add_out_flag)),
}


def _run(argv) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 1
    try:
        dep = data_io.parse_nodes(args.nodes)
        model = CorrelationModel(theta=args.theta, alpha=args.alpha)
        texts, lines = _SUBCOMMANDS[args.command][0](args, dep, model)
        if texts:  # every stage has run; predict writes nothing and makes no --out
            _write_outputs(Path(args.out), texts)
        print(*lines, sep="\n")
        return 0
    except BrokenPipeError:
        raise  # stdout is gone; main() exits 1 without a message
    except (DataFormatError, OSError) as exc:
        # OSError: an input file missing, a directory or unreadable; output
        # failures are raised as ConfigurationError
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
