"""File ingestion, synthetic readings and report serialization.

Synthetic readings come from two functions: generate_synthetic draws a
zero-mean, unit-variance correlated field, and sun_shade_readings scales
and shifts one.
All CSV traffic uses one dialect: comma separated, '.' decimal, LF line
endings, mandatory header, UTF-8. Parsers also read CRLF line endings, quoted
fields and blank rows, and reject malformed input with the offending line
number instead of repairing it.
"""

from __future__ import annotations

import csv
import io
import json
import math
import warnings
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import IO, Iterator, Mapping

import numpy as np

from .clustering import ClusterSet, Deployment, _node_problem, _row_blocks
from .errors import DataFormatError
from .estimation import AccuracyReport
from .geometry import CorrelationModel, correlation, pairwise_distances

_JITTER_FRACTION = 1e-10

# every byte write_readings and a generated deployment emit after the header
# line; on fields of these bytes np.loadtxt accepts and rounds exactly what
# int() and float() do
_CANONICAL_BYTES = b"0123456789+-.eE,\n"
# longer lines go to the row reader, where int() caps the digits of a number
# (4300 by default, never below 640) and csv caps the length of a field
_CANONICAL_LINE = 512
# the array reader's row of each schema; its field names are the header
_NODE_ROW = np.dtype([("node_id", np.int64), ("x", np.float64), ("y", np.float64), ("z", np.float64)])
_READING_ROW = np.dtype([("epoch", np.int64), ("node_id", np.int64), ("value", np.float64)])
# epochs whose rows write_readings formats and joins at a time: enough rows to
# spread numpy's per-call cost, few enough (9600 rows at 150 nodes) that the
# cell strings of a whole trace are never held at once
_WRITE_EPOCHS = 64
# elevation (m) at and above which sun_shade_groups puts a node in the sunlit group
_SUN_Z = 4.6


def _int64(value) -> bool:
    """True for an integer that int64 holds, given as an int or a numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and -(2**63) <= value < 2**63


@dataclass
class ReadingMatrix:
    """Per-node, per-epoch readings; NaN marks a missing cell, and only NaN.
    Rows run in node id order, as in Deployment, and columns in epoch order."""

    node_ids: tuple[int, ...]
    epochs: tuple[int, ...]
    values: np.ndarray  # shape (nodes, epochs), NaN where missing

    def __post_init__(self):
        shape = (len(self.node_ids), len(self.epochs))
        if self.values.shape != shape:
            raise ValueError(f"values must have shape {shape}")
        if np.isinf(self.values).any():
            raise ValueError("present cells must hold finite values")
        for name in ("node_ids", "epochs"):
            # checked one by one: np.asarray would read (1, True) as int64 and (2**70,) as objects
            bad = [v for v in getattr(self, name) if not _int64(v)]
            if bad:
                raise ValueError(f"{name} must be int64 integers, got {bad[0]!r}")
            seq = np.asarray(getattr(self, name), dtype=np.int64)
            unordered = seq[1:] <= seq[:-1]  # a repeat is one case of not ascending
            if unordered.any():
                k = unordered.argmax()
                raise ValueError(f"{name} must be strictly ascending, got {seq[k]} before {seq[k + 1]}")

    @property
    def missing(self) -> np.ndarray:
        """The missing cells, np.isnan(values)."""
        return np.isnan(self.values)


def _text_stream(data: bytes, path: str | Path) -> IO[str]:
    """The file's bytes decoded as UTF-8, as a text stream for the row reader
    with its line ends as they are. A file that is not UTF-8 fails as
    DataFormatError naming the file and the line of the first undecodable byte.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: {exc}", line=data.count(b"\n", 0, exc.start) + 1) from None
    return io.StringIO(text, newline="")


def _plain(text: str) -> bool:
    """True when text holds no '_', whitespace, control or non-ASCII character,
    which int() and float() would accept or strip."""
    return text.isascii() and text.isprintable() and "_" not in text and " " not in text


def _csv_rows(fh: IO[str]) -> Iterator[list[str]]:
    """The rows of csv.reader, with its errors (such as a field over the csv
    module's field size limit) raised as DataFormatError at the reader's line."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except csv.Error as exc:
        raise DataFormatError(str(exc), line=reader.line_num) from None


def _checked_rows(fh: IO[str], header: tuple[str, ...]) -> Iterator[tuple[int, list[str]]]:
    """Yield (line number, row) for each non-blank row after the header, which
    must equal ``header``; every row must have as many columns as the header,
    and every field must be ``_plain``."""
    reader = _csv_rows(fh)
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


def parse_nodes(path: str | Path) -> Deployment:
    """Read a deployment from the CSV file at ``path``, with header node_id,x,y,z.

    The file is read as bytes. A file in canonical form (see parse_readings) is
    then parsed from its path in one array pass; any other file, and any file
    that pass rejects, goes to the row reader, which parses the bytes already
    read, accepts the same values and names the first bad line.
    """
    data = Path(path).read_bytes()
    rows = _canonical_rows(path, data, _NODE_ROW)
    if rows is not None:
        try:
            return Deployment(rows["node_id"], np.stack([rows["x"], rows["y"], rows["z"]], axis=1))
        except ValueError:
            pass
    return _parse_node_rows(_text_stream(data, path))


def _parse_node_rows(fh: IO[str]) -> Deployment:
    """Read a deployment row by row, raising DataFormatError at the first bad line."""
    nodes: dict[int, list[float]] = {}
    for lineno, row in _checked_rows(fh, _NODE_ROW.names):
        try:
            nid = int(row[0])
            xyz = [float(v) for v in row[1:]]
        except ValueError as exc:
            raise DataFormatError(str(exc), line=lineno) from None
        if nid in nodes:
            raise DataFormatError(f"duplicate node id {nid}", line=lineno)
        problem = _node_problem(nid, xyz)
        if problem:
            raise DataFormatError(problem, line=lineno)
        nodes[nid] = xyz
    if not nodes:
        raise DataFormatError("no nodes")
    return Deployment(list(nodes), list(nodes.values()))


def parse_readings(path: str | Path, deployment: Deployment | None = None) -> ReadingMatrix:
    """Read a reading trace from the CSV file at ``path``, with header epoch,node_id,value.

    Epochs need not be dense; cells absent from the file are NaN, the mark of
    a missing cell.
    When a deployment is supplied, readings for unknown nodes are rejected.
    Epochs and node ids must fit in int64.

    The file is read as bytes and checked. A trace in canonical form, the
    form write_readings emits, is then parsed from its path in one array
    pass, kept only if it holds a row for each non-blank line of the checked
    bytes; any other trace, and any trace that pass rejects, goes to the row
    reader, which parses the bytes already read, accepts the same values and
    names the first bad line; only then are the bytes decoded. Canonical form
    is the header line, then only the bytes of _CANONICAL_BYTES in LF-ended
    lines of at most _CANONICAL_LINE bytes.
    """
    data = Path(path).read_bytes()
    rows = _canonical_rows(path, data, _READING_ROW)
    if rows is not None and np.isfinite(rows["value"]).all():
        matrix = _reading_matrix(rows["epoch"], rows["node_id"], rows["value"])
        no_duplicate = matrix.values.size - np.count_nonzero(matrix.missing) == rows.size
        if no_duplicate and (deployment is None or np.isin(matrix.node_ids, deployment.node_ids).all()):
            return matrix
    return _parse_reading_rows(_text_stream(data, path), deployment)


def _canonical_rows(path: str | Path, data: bytes, row: np.dtype) -> np.ndarray | None:
    """The rows of the canonical CSV file at ``path``, whose bytes are ``data``
    and whose header is the field names of ``row``, or None when it needs the
    row reader. The array is never empty.

    The bytes are checked first, so a canonical file is never decoded: the
    check admits only ASCII bytes, on which UTF-8 decoding cannot fail. Then
    np.loadtxt reads the file again from its path, in chunks (it reads a
    stream line by line). Any failure of that read sends the file to the row
    reader: numpy picks a decompressor by the name's suffix, so a plain
    canonical file named t.csv.gz fails there. So does a row count other than
    the checked bytes' non-blank lines, as the file may change between reads.
    The path goes to numpy as a Path, which collapses '//', so numpy never
    takes it for a URL.
    """
    header = ",".join(row.names).encode("ascii") + b"\n"
    if not data.startswith(header):
        return None
    body = data[len(header):]
    if body.translate(None, _CANONICAL_BYTES):
        return None
    ends = np.flatnonzero(np.frombuffer(body, dtype=np.uint8) == ord("\n"))
    lengths = np.diff(ends, prepend=-1, append=len(body))  # each line with its LF; 1 for a blank line
    if lengths.max() > _CANONICAL_LINE:
        return None
    try:
        with warnings.catch_warnings():
            # a body without rows draws a UserWarning, and some numpy releases read
            # '1.0' into an int64 column with only a DeprecationWarning
            warnings.simplefilter("error")
            # comments=None: with comments numpy goes back to reading line by line
            rows = np.loadtxt(Path(path), dtype=row, delimiter=",", comments=None, ndmin=1, skiprows=1,
                              encoding="ascii")
    except Exception:  # the warnings above, or a decompressor's error (lzma's is no OSError)
        return None
    return rows if rows.size == np.count_nonzero(lengths > 1) else None


def _parse_reading_rows(fh: IO[str], deployment: Deployment | None) -> ReadingMatrix:
    """Read a trace row by row, raising DataFormatError at the first bad line."""
    known = set(deployment.node_ids.tolist()) if deployment is not None else None
    epochs: list[int] = []
    nids: list[int] = []
    values: list[float] = []
    seen: set[tuple[int, int]] = set()
    for lineno, row in _checked_rows(fh, _READING_ROW.names):
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
    return ReadingMatrix(node_ids=tuple(node_ids.tolist()), epochs=tuple(epoch_ids.tolist()), values=grid)


def generate_synthetic(dep: Deployment, model: CorrelationModel, epochs: int = 800,
                       seed: int = 42) -> ReadingMatrix:
    """Draw ``epochs`` readings per node from the zero-mean, unit-variance
    Gaussian field over the deployment with covariance correlation(distance).
    Accuracy reads the signal variance only through sigma_n2 / sigma_s2, so
    the field's own scale is fixed at 1.

    The covariance matrix is Cholesky-factored; if coincident nodes make it
    numerically singular, a diagonal jitter of 1e-10 is added once before
    giving up.
    """
    if epochs < 2:
        raise ValueError(f"need at least 2 epochs, got {epochs}")
    cov = correlation(model, pairwise_distances(dep.positions))
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        jittered = cov + _JITTER_FRACTION * np.eye(len(dep))
        try:
            chol = np.linalg.cholesky(jittered)
        except np.linalg.LinAlgError:
            smallest = float(np.linalg.eigvalsh(cov).min())
            raise ValueError(
                f"covariance matrix is not positive definite even after jitter "
                f"(smallest eigenvalue {smallest:.3e})"
            ) from None
    rng = np.random.default_rng(seed)
    draws = rng.standard_normal((epochs, len(dep))) @ chol.T  # (epochs, nodes)
    # the one (nodes, epochs) array, C-ordered; sun_shade_readings works in it in place
    return ReadingMatrix(node_ids=tuple(dep.node_ids.tolist()), epochs=tuple(range(epochs)), values=draws.T.copy())


def _sunlit(dep: Deployment) -> np.ndarray:
    """Mask of the nodes at or above _SUN_Z, the sunlit group of the sun-shade trace."""
    return dep.positions[:, 2] >= _SUN_Z


def sun_shade_groups(dep: Deployment) -> tuple[set[int], set[int]]:
    """Split nodes by elevation: ids at or above _SUN_Z ("sun") and below ("shade")."""
    high = _sunlit(dep)
    return set(dep.node_ids[high].tolist()), set(dep.node_ids[~high].tolist())


def sun_shade_readings(dep: Deployment, model: CorrelationModel | None = None, epochs: int = 800,
                       seed: int = 42) -> ReadingMatrix:
    """The bundled two-population trace: generate_synthetic's unit-variance
    field, scaled by 3 and shifted by 25 on the sunlit nodes (high variance)
    and scaled by 0.5 and shifted by 18 on the shaded ones (see
    sun_shade_groups)."""
    matrix = generate_synthetic(dep, model or CorrelationModel(theta=30.0, alpha=1.0), epochs, seed)
    high = _sunlit(dep)[:, None]
    matrix.values *= np.where(high, 3.0, 0.5)
    matrix.values += np.where(high, 25.0, 18.0)
    return matrix


def write_readings(matrix: ReadingMatrix) -> str:
    """Serialize a reading matrix to the epoch,node_id,value CSV schema.

    Rows come epoch by epoch, each epoch's present cells in node order. The
    epoch and node strings are formatted once; each block of _WRITE_EPOCHS
    epochs gathers them to its present cells, formats its values with repr
    and is joined once, so only one block's cell strings are held at a time.
    """
    values = np.asarray(matrix.values, dtype=float).T  # (epochs, nodes)
    present = ~matrix.missing.T
    epoch_text = np.array([str(epoch) for epoch in matrix.epochs], dtype=object)
    node_text = np.array([f",{nid}," for nid in matrix.node_ids], dtype=object)
    parts = ["epoch,node_id,value\n"]
    for block in _row_blocks(len(epoch_text), _WRITE_EPOCHS):
        mask = present[block]
        rows, cols = np.nonzero(mask)
        cells = np.empty((len(rows), 4), dtype=object)  # epoch, ",nid,", value, LF
        cells[:, 0] = epoch_text[block][rows]
        cells[:, 1] = node_text[cols]
        cells[:, 2] = list(map(repr, values[block][mask].tolist()))
        cells[:, 3] = "\n"
        parts.append("".join(cells.ravel().tolist()))
    return "".join(parts)


def write_cluster_report(
    cs: ClusterSet,
    reports: list[AccuracyReport] | None = None,
    metadata: Mapping[str, object] | None = None,
) -> str:
    """Serialize clusters (and accuracy reports, when present) to a JSON document.

    Clusters appear in formation order with stable field order; reports, when
    given, come one per cluster in the same order. The schema is documented
    in the README.
    """
    entries = []
    for order, c in enumerate(cs, start=1):
        entry: dict[str, object] = {
            "order": order,
            "head": c.head,
            "members": list(c.members),
        }
        if reports:
            r = reports[order - 1]
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
