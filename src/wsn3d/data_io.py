"""File ingestion, synthetic reading generation, and report serialization.

All CSV traffic uses one dialect: comma separated, '.' decimal, LF line
endings, mandatory header, UTF-8. Parsers also read CRLF line endings, quoted
fields and blank rows, and reject malformed input with the offending line
number instead of repairing it.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import warnings
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import IO, ContextManager, Iterator, Mapping

import numpy as np

from .clustering import Cluster, ClusterSet, Deployment, SensorNode
from .errors import DataFormatError
from .estimation import AccuracyReport
from .geometry import CorrelationModel, correlation, pairwise_distances

_JITTER_FRACTION = 1e-10

_READINGS_HEADER = ("epoch", "node_id", "value")
_CANONICAL_HEADER = ",".join(_READINGS_HEADER) + "\n"
# every byte write_readings emits after the header line; on fields of these bytes
# np.loadtxt accepts and rounds exactly what int() and float() do
_CANONICAL_BYTES = b"0123456789+-.eE,\n"
# longer lines go to the row reader, where int() caps the digits of a number
# (4300 by default, never below 640) and csv caps the length of a field
_CANONICAL_LINE = 512
_READING_ROW = np.dtype([("epoch", np.int64), ("node_id", np.int64), ("value", np.float64)])


@dataclass
class ReadingMatrix:
    """Per-node, per-epoch readings with an explicit missing-cell mask."""

    node_ids: tuple[int, ...]
    epochs: tuple[int, ...]
    values: np.ndarray  # shape (nodes, epochs), NaN where missing
    missing: np.ndarray  # bool, same shape
    _rows: dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        shape = (len(self.node_ids), len(self.epochs))
        if self.values.shape != shape or self.missing.shape != shape:
            raise ValueError(f"values and missing must have shape {shape}")
        if not np.all(np.isfinite(self.values[~self.missing])):
            raise ValueError("present cells must hold finite values")
        self._rows = {nid: k for k, nid in enumerate(self.node_ids)}

    def row(self, node_id: int) -> np.ndarray:
        return self.values[self._rows[node_id]]

    def present_values(self, node_id: int) -> np.ndarray:
        k = self._rows[node_id]
        return self.values[k][~self.missing[k]]


@dataclass(frozen=True)
class SyntheticScenario:
    """Recipe for a spatially correlated reading set.

    The base field is a zero-mean Gaussian process over node positions with
    covariance variance * correlation(distance). Per-node scales multiply the
    field and offsets shift it, so groups of nodes can differ in variability
    the way a sunlit group differs from a shaded one.
    """

    model: CorrelationModel
    variance: float = 1.0
    epochs: int = 800
    seed: int = 42
    offsets: Mapping[int, float] = field(default_factory=dict)
    scales: Mapping[int, float] = field(default_factory=dict)

    def __post_init__(self):
        if not (0.0 < self.variance < math.inf):
            raise ValueError(f"variance must be positive and finite, got {self.variance}")
        if self.epochs < 2:
            raise ValueError(f"need at least 2 epochs, got {self.epochs}")
        bad = {i: s for i, s in self.scales.items() if s <= 0.0}
        if bad:
            raise ValueError(f"scales must be positive: {bad}")


def _open_text(source: str | Path | IO[str]) -> ContextManager[IO[str]]:
    """Open a path (closed on exit) or pass a stream through (left open)."""
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8", newline="")
    return contextlib.nullcontext(source)


def _plain(text: str) -> bool:
    """True when text holds no '_', whitespace, control or non-ASCII character,
    which int() and float() would accept or strip."""
    return text.isascii() and text.isprintable() and "_" not in text and " " not in text


def _rows(fh: IO[str], header: tuple[str, ...]) -> Iterator[tuple[int, list[str]]]:
    """Yield (line number, row) for each non-blank row after the header, which
    must equal ``header``; every row must have as many columns as the header,
    and every field must be ``_plain``."""
    reader = csv.reader(fh)
    got = next(reader, None)
    if got != list(header):
        raise DataFormatError(f"expected header {','.join(header)}, got {got}", line=1)
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise DataFormatError(f"expected {len(header)} columns, got {len(row)}", line=lineno)
        if not _plain("".join(row)):
            name, text = next((name, text) for name, text in zip(header, row) if not _plain(text))
            raise DataFormatError(
                f"field {name} {text!r} holds '_', whitespace, a control or a non-ASCII character", line=lineno)
        yield lineno, row


def parse_nodes(source: str | Path | IO[str]) -> Deployment:
    """Read a deployment from CSV with header node_id,x,y,z."""
    nodes: list[SensorNode] = []
    seen: set[int] = set()
    with _open_text(source) as fh:
        for lineno, row in _rows(fh, ("node_id", "x", "y", "z")):
            try:
                nid = int(row[0])
                x, y, z = (float(v) for v in row[1:])
            except ValueError as exc:
                raise DataFormatError(str(exc), line=lineno) from None
            if nid in seen:
                raise DataFormatError(f"duplicate node id {nid}", line=lineno)
            seen.add(nid)
            try:
                nodes.append(SensorNode(id=nid, position=(x, y, z)))
            except ValueError as exc:
                raise DataFormatError(str(exc), line=lineno) from None
    if not nodes:
        raise DataFormatError("no nodes")
    return Deployment(nodes=tuple(nodes))


def parse_readings(
    source: str | Path | IO[str], deployment: Deployment | None = None
) -> ReadingMatrix:
    """Read a reading trace from CSV with header epoch,node_id,value.

    Epochs need not be dense; cells absent from the file are marked missing.
    When a deployment is supplied, readings for unknown nodes are rejected.
    Epochs and node ids must fit in int64.

    The source is read once. A trace in the form write_readings emits is
    parsed in one array pass; any other text, and any trace that pass
    rejects, goes to the row reader, which accepts the same values and names
    the first bad line.
    """
    with _open_text(source) as fh:
        text = fh.read()
    matrix = _parse_canonical(text, deployment)
    if matrix is None:
        matrix = _parse_rows(io.StringIO(text, newline=""), deployment)
    return matrix


def _parse_canonical(text: str, deployment: Deployment | None) -> ReadingMatrix | None:
    """The matrix of a trace whose body holds only the bytes of _CANONICAL_BYTES,
    in lines of at most _CANONICAL_LINE bytes, or None when the text or its
    values need the row reader."""
    if not text.startswith(_CANONICAL_HEADER) or not text.isascii():
        return None
    body = text[len(_CANONICAL_HEADER):].encode("ascii")
    if body.translate(None, _CANONICAL_BYTES):
        return None
    ends = np.flatnonzero(np.frombuffer(body, dtype=np.uint8) == ord("\n"))
    if np.diff(ends, prepend=-1, append=len(body)).max() > _CANONICAL_LINE:  # a line and its LF
        return None
    try:
        with warnings.catch_warnings():
            # a body without rows draws a UserWarning, and some numpy releases read
            # '1.0' into an int64 column with only a DeprecationWarning
            warnings.simplefilter("error")
            rows = np.loadtxt(io.BytesIO(body), dtype=_READING_ROW, delimiter=",", comments=None,
                              ndmin=1, encoding="ascii")
    except (ValueError, Warning):
        return None
    if not np.isfinite(rows["value"]).all():
        return None
    matrix = _reading_matrix(rows["epoch"], rows["node_id"], rows["value"])
    if matrix.missing.size - np.count_nonzero(matrix.missing) != rows.size:  # a duplicate cell
        return None
    if deployment is not None and not np.isin(matrix.node_ids, deployment.ids()).all():
        return None
    return matrix


def _parse_rows(fh: IO[str], deployment: Deployment | None) -> ReadingMatrix:
    """Read a trace row by row, raising DataFormatError at the first bad line."""
    known = set(deployment.ids()) if deployment is not None else None
    epochs: list[int] = []
    nids: list[int] = []
    values: list[float] = []
    seen: set[tuple[int, int]] = set()
    for lineno, row in _rows(fh, _READINGS_HEADER):
        try:
            epoch = int(row[0])
            nid = int(row[1])
            value = float(row[2])
        except ValueError as exc:
            raise DataFormatError(str(exc), line=lineno) from None
        if not (-(2**63) <= epoch < 2**63 and -(2**63) <= nid < 2**63):
            raise DataFormatError(f"epoch {epoch} or node id {nid} does not fit in int64", line=lineno)
        if not math.isfinite(value):
            raise DataFormatError(f"non-finite value {row[2]}", line=lineno)
        if known is not None and nid not in known:
            raise DataFormatError(f"unknown node {nid}", line=lineno)
        if (nid, epoch) in seen:
            raise DataFormatError(f"duplicate cell (node {nid}, epoch {epoch})", line=lineno)
        seen.add((nid, epoch))
        epochs.append(epoch)
        nids.append(nid)
        values.append(value)
    if not values:
        raise DataFormatError("no readings")
    return _reading_matrix(epochs, nids, values)


def _reading_matrix(epochs, nids, values) -> ReadingMatrix:
    """The (node, epoch) grid of the readings, one per row; rows must not share a cell."""
    node_ids, rows = np.unique(np.asarray(nids, dtype=np.int64), return_inverse=True)
    epoch_ids, cols = np.unique(np.asarray(epochs, dtype=np.int64), return_inverse=True)
    grid = np.full((len(node_ids), len(epoch_ids)), np.nan)
    grid[rows, cols] = values
    return ReadingMatrix(node_ids=tuple(node_ids.tolist()), epochs=tuple(epoch_ids.tolist()),
                         values=grid, missing=np.isnan(grid))


def generate_synthetic(scn: SyntheticScenario, dep: Deployment) -> ReadingMatrix:
    """Draw a reading matrix from the scenario's Gaussian field over the deployment.

    The covariance matrix is Cholesky-factored; if coincident nodes make it
    numerically singular, a diagonal jitter of 1e-10 * variance is added once
    before giving up.
    """
    cov = scn.variance * correlation(scn.model, pairwise_distances(dep.positions()))
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        jittered = cov + _JITTER_FRACTION * scn.variance * np.eye(len(dep))
        try:
            chol = np.linalg.cholesky(jittered)
        except np.linalg.LinAlgError:
            smallest = float(np.linalg.eigvalsh(cov).min())
            raise ValueError(
                f"covariance matrix is not positive definite even after jitter "
                f"(smallest eigenvalue {smallest:.3e})"
            ) from None
    rng = np.random.default_rng(scn.seed)
    draws = rng.standard_normal((scn.epochs, len(dep))) @ chol.T  # (epochs, nodes)
    ids = dep.ids()
    offsets = np.asarray([scn.offsets.get(i, 0.0) for i in ids])
    scales = np.asarray([scn.scales.get(i, 1.0) for i in ids])
    values = (offsets[:, None] + scales[:, None] * draws.T).astype(float)
    return ReadingMatrix(
        node_ids=tuple(ids),
        epochs=tuple(range(scn.epochs)),
        values=values,
        missing=np.zeros_like(values, dtype=bool),
    )


def sun_shade_groups(dep: Deployment, z_split: float = 4.6) -> tuple[set[int], set[int]]:
    """Split nodes by elevation: ids at or above z_split ("sun") and below ("shade")."""
    sun = {n.id for n in dep.nodes if n.position[2] >= z_split}
    return sun, set(dep.ids()) - sun


def sun_shade_scenario(
    dep: Deployment,
    model: CorrelationModel | None = None,
    epochs: int = 800,
    seed: int = 42,
) -> SyntheticScenario:
    """Bundled two-population scenario: a high-variance sunlit group (scale 3,
    offset 25) and a low-variance shaded group (scale 0.5, offset 18)."""
    sun, shade = sun_shade_groups(dep)
    return SyntheticScenario(
        model=model or CorrelationModel(theta=30.0, alpha=1.0),
        variance=1.0,
        epochs=epochs,
        seed=seed,
        offsets={**{i: 25.0 for i in sun}, **{i: 18.0 for i in shade}},
        scales={**{i: 3.0 for i in sun}, **{i: 0.5 for i in shade}},
    )


def write_readings(matrix: ReadingMatrix) -> str:
    """Serialize a reading matrix to the epoch,node_id,value CSV schema."""
    values = np.asarray(matrix.values, dtype=float).T.tolist()
    present = (~matrix.missing.T).tolist()
    # one join per epoch: a single join over all cells would hold every cell string at once
    return "epoch,node_id,value\n" + "".join(
        "".join([f"{epoch},{nid},{v!r}\n" for nid, v, keep in zip(matrix.node_ids, row, mask) if keep])
        for epoch, row, mask in zip(matrix.epochs, values, present)
    )


def write_cluster_report(
    cs: ClusterSet,
    reports: list[AccuracyReport] | None = None,
    metadata: Mapping[str, object] | None = None,
) -> str:
    """Serialize clusters (and accuracy reports, when present) to a JSON document.

    Clusters appear in formation order with stable field order; the schema is
    documented in the README.
    """
    by_head = {r.head: r for r in reports} if reports else {}
    entries = []
    for c in cs:
        entry: dict[str, object] = {
            "order": c.order_index,
            "head": c.head,
            "members": sorted(c.members),
        }
        r = by_head.get(c.head)
        if r is not None:
            entry["m"] = r.m
            entry["accuracy"] = r.accuracy
            entry["gain_term"] = r.gain_term
            entry["redundancy_term"] = r.redundancy_term
            entry["noise_term"] = r.noise_term
        entries.append(entry)
    doc: dict[str, object] = {"radius": cs.radius, "clusters": entries}
    if metadata:
        doc["metadata"] = dict(metadata)
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def read_cluster_report(text: str) -> ClusterSet:
    """Rebuild a ClusterSet from a document produced by write_cluster_report."""
    doc = json.loads(text)
    clusters = tuple(
        Cluster(head=e["head"], members=frozenset(e["members"]), order_index=e["order"])
        for e in doc["clusters"]
    )
    return ClusterSet(clusters=clusters, radius=doc["radius"])


def write_cost_curves(state, costs: Mapping[int, float], selected: set[int]) -> tuple[str, str]:
    """Serialize a placement run: (curve CSV of round,mean_cost) and
    (node CSV of node_id,cost,selected)."""
    curve = "round,mean_cost\n" + "".join(
        f"{k},{float(c)!r}\n" for k, c in enumerate(state.cost_history, start=1)
    )
    nodes = "node_id,cost,selected\n" + "".join(
        f"{nid},{float(costs[nid])!r},{int(nid in selected)}\n" for nid in sorted(costs)
    )
    return curve, nodes


def bundled_nodes_path() -> Path:
    """Path of the packaged 54-node coordinate fixture."""
    return Path(resources.files("wsn3d").joinpath("fixtures/intel54.csv"))


def load_bundled_deployment() -> Deployment:
    return parse_nodes(bundled_nodes_path())
