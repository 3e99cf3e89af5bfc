import csv
import io
import json
import re
import time
import urllib.request

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsn3d import data_io
from wsn3d.clustering import ClusterSet, Deployment, form_clusters
from wsn3d.errors import DataFormatError
from wsn3d.estimation import cluster_accuracy
from wsn3d.geometry import CorrelationModel


@pytest.fixture(scope="session")
def csv_file(tmp_path_factory):
    """Write a text (as UTF-8) or bytes to a file of one session directory and
    return its path; the parsers read files only. Session scope lets the
    hypothesis tests take it."""
    directory = tmp_path_factory.mktemp("csv")

    def write(data, name="data.csv"):
        path = directory / name
        path.write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
        return path

    return write


class TestParseNodes:
    def test_bundled_fixture(self, deployment):
        assert len(deployment) == 54
        assert deployment.positions[deployment.index([1, 47])].tolist() == [[1.807, 6.525, 8.785],
                                                                            [3.756, 5.074, 7.998]]

    def test_empty_body_rejected(self, csv_file):
        with pytest.raises(DataFormatError, match="no nodes"):
            data_io.parse_nodes(csv_file("node_id,x,y,z\n"))

    def test_single_row(self, csv_file):
        dep = data_io.parse_nodes(csv_file("node_id,x,y,z\n47,3.756,5.074,7.998\n"))
        assert dep.node_ids.tolist() == [47] and dep.positions.tolist() == [[3.756, 5.074, 7.998]]

    def test_duplicate_id_reports_line(self, csv_file):
        src = csv_file("node_id,x,y,z\n1,0,0,0\n1,1,1,1\n")
        with pytest.raises(DataFormatError, match="line 3"):
            data_io.parse_nodes(src)

    def test_malformed_number_reports_line(self, csv_file):
        src = csv_file("node_id,x,y,z\n1,0,zero,0\n")
        with pytest.raises(DataFormatError, match="line 2"):
            data_io.parse_nodes(src)

    @pytest.mark.parametrize("row, field", [
        ("1_2,0,0,0", "node_id"), ("1,1_0,0,0", "x"), (" 1,0,0,0", "node_id"),
        ("1,0,0\t,0", "y"), ("1,0,0,1e3 ", "z"), ("1,0,\u0663,0", "y"), ("1,0,0,\u00a01", "z"),
    ])
    def test_number_grammar(self, row, field, csv_file):
        # int() and float() would read each of these fields
        src = csv_file(f"node_id,x,y,z\n9,0,0,0\n{row}\n")
        with pytest.raises(DataFormatError, match=f"line 3: field {field} "):
            data_io.parse_nodes(src)

    def test_missing_column_rejected(self, csv_file):
        src = csv_file("node_id,x,y,z\n1,0,0\n")
        with pytest.raises(DataFormatError):
            data_io.parse_nodes(src)

    def test_wrong_header_rejected(self, csv_file):
        with pytest.raises(DataFormatError, match="header"):
            data_io.parse_nodes(csv_file("id,x,y,z\n1,0,0,0\n"))

    def test_row_order_preserved(self, csv_file):
        src = csv_file("node_id,x,y,z\n5,0,0,0\n2,1,1,1\n")
        dep = data_io.parse_nodes(src)
        assert dep.node_ids.tolist() == [2, 5]  # rows in id order, whatever the file's order

    def test_field_over_the_csv_limit_reports_line(self, csv_file):
        src = csv_file(f'node_id,x,y,z\n1,0,0,0\n2,0,0,"{"1" * (csv.field_size_limit() + 1)}"\n')
        with pytest.raises(DataFormatError, match="line 3: field larger than field limit"):
            data_io.parse_nodes(src)

    def test_undecodable_byte_names_file_and_line(self, csv_file):
        path = csv_file("node_id,x,y,z\n1,0,0,0\n2,1,1,1 # café\n".encode("latin-1"), "nodes.csv")
        with pytest.raises(DataFormatError, match=r"^line 3: .*nodes\.csv: 'utf-8' codec can't decode byte 0xe9"):
            data_io.parse_nodes(path)


class TestParseReadings:
    def test_three_rows_one_node(self, csv_file):
        src = csv_file("epoch,node_id,value\n0,7,1.5\n1,7,2.5\n2,7,3.5\n")
        m = data_io.parse_readings(src)
        assert m.node_ids == (7,) and m.epochs == (0, 1, 2)
        assert np.array_equal(m.values, [[1.5, 2.5, 3.5]])

    def test_sparse_epochs_marked_missing(self, csv_file):
        src = csv_file("epoch,node_id,value\n0,1,1.0\n5,1,2.0\n5,2,3.0\n")
        m = data_io.parse_readings(src)
        assert m.epochs == (0, 5)
        assert m.missing[m.node_ids.index(2), 0]

    def test_duplicate_cell_rejected(self, csv_file):
        src = csv_file("epoch,node_id,value\n0,1,1.0\n0,1,2.0\n")
        with pytest.raises(DataFormatError, match="duplicate cell"):
            data_io.parse_readings(src)

    def test_unknown_node_rejected_with_deployment(self, deployment, csv_file):
        src = csv_file("epoch,node_id,value\n0,999,1.0\n")
        with pytest.raises(DataFormatError, match="unknown node"):
            data_io.parse_readings(src, deployment=deployment)

    def test_non_numeric_value_rejected(self, csv_file):
        src = csv_file("epoch,node_id,value\n0,1,warm\n")
        with pytest.raises(DataFormatError, match="line 2"):
            data_io.parse_readings(src)

    @pytest.mark.parametrize("row, field", [
        ("1_0,7,2.5", "epoch"), ("1, 7 ,2.5", "node_id"), ("1,7,2_5", "value"), ("1,7,\t2.5", "value"),
        ("1,7,\u0663", "value"), ("\uff11,7,2.5", "epoch"), ('1,7,"2.5\n"', "value"),
    ])
    def test_number_grammar(self, row, field, csv_file):
        # int() and float() would read each of these fields
        src = csv_file(f"epoch,node_id,value\n0,7,1.0\n{row}\n")
        with pytest.raises(DataFormatError, match=f"line 3: field {field} "):
            data_io.parse_readings(src)

    @pytest.mark.parametrize("row", [f"{2**63},1,1.0", f"{-(2**63) - 1},1,1.0", f"0,{2**63},1.0"])
    def test_beyond_int64_rejected(self, row, csv_file):
        # np.unique would turn such ids into float64 and lose digits
        src = csv_file(f"epoch,node_id,value\n{-(2**63)},{2**63 - 1},1.0\n{row}\n")
        with pytest.raises(DataFormatError, match="line 3: .*does not fit in int64"):
            data_io.parse_readings(src)

    def test_field_over_the_csv_limit_reports_line(self, csv_file):
        # a line over 512 bytes goes to the row reader, where csv.reader fails
        src = csv_file(f'epoch,node_id,value\n0,1,1.0\n1,1,"{"1" * (csv.field_size_limit() + 1)}"\n')
        with pytest.raises(DataFormatError, match="line 3: field larger than field limit"):
            data_io.parse_readings(src)

    def test_undecodable_byte_names_file_and_line(self, csv_file):
        path = csv_file(b"epoch,node_id,value\n0,1,1.0\n1,1,2.0\n2,1,\xff\n", "readings.csv")
        with pytest.raises(DataFormatError, match=r"^line 4: .*readings\.csv: 'utf-8' codec can't decode byte 0xff"):
            data_io.parse_readings(path)

    def test_full_scale_parse_under_a_second(self, deployment, csv_file):
        matrix = data_io.generate_synthetic(deployment, CorrelationModel(theta=30.0), epochs=800, seed=0)
        path = csv_file(data_io.write_readings(matrix))
        start = time.perf_counter()
        parsed = data_io.parse_readings(path)
        elapsed = time.perf_counter() - start
        assert parsed.values.shape == (54, 800)
        assert elapsed < 1.0


@pytest.mark.parametrize("parse, text", [
    (data_io.parse_nodes, "node_id,x,y,z\n1,0,0,0\n"), (data_io.parse_readings, "epoch,node_id,value\n0,1,1.0\n"),
], ids=["nodes", "readings"])
def test_parsers_read_paths_not_streams(parse, text):
    with pytest.raises(TypeError):
        parse(io.StringIO(text))


class TestGenerateSynthetic:
    MODEL = CorrelationModel(theta=30.0, alpha=1.0)

    def test_coincident_nodes_move_together(self):
        m = data_io.generate_synthetic(Deployment([1, 2], np.ones((2, 3))), self.MODEL, epochs=100, seed=0)
        # duplicate covariance rows force the jitter path; fields stay equal
        # up to the jitter scale
        assert np.max(np.abs(m.values[0] - m.values[1])) < 1e-3

    def test_tiny_theta_decorrelates(self, deployment):
        m = data_io.generate_synthetic(deployment, CorrelationModel(theta=0.01), epochs=2000, seed=1)
        emp = np.corrcoef(m.values)
        np.fill_diagonal(emp, 0.0)
        assert np.max(np.abs(emp)) < 0.1

    def test_fixture_pair_matches_model(self, deployment):
        m = data_io.generate_synthetic(deployment, self.MODEL, epochs=800, seed=42)
        emp = np.corrcoef(m.values)
        i, j = m.node_ids.index(47), m.node_ids.index(5)
        assert emp[i, j] == pytest.approx(0.9454738349063720, abs=0.05)

    def test_bitwise_reproducible(self, deployment):
        a = data_io.generate_synthetic(deployment, self.MODEL, epochs=100, seed=9)
        b = data_io.generate_synthetic(deployment, self.MODEL, epochs=100, seed=9)
        assert np.array_equal(a.values, b.values)

    def test_sun_shade_is_the_field_scaled_then_shifted(self, deployment):
        high = (deployment.positions[:, 2] >= 4.6)[:, None]
        m = data_io.sun_shade_readings(deployment, epochs=60, seed=42)
        field = data_io.generate_synthetic(deployment, self.MODEL, 60, 42)
        want = np.where(high, 3.0, 0.5) * field.values + np.where(high, 25.0, 18.0)
        assert m.values.tobytes() == want.tobytes()
        assert (m.node_ids, m.epochs) == (field.node_ids, field.epochs)
        assert m.node_ids == tuple(deployment.node_ids.tolist()) and m.epochs == tuple(range(60))

    def test_fewer_than_two_epochs_rejected(self, deployment):
        with pytest.raises(ValueError, match=re.escape("need at least 2 epochs, got 1")):
            data_io.generate_synthetic(deployment, self.MODEL, 1)

    def test_offsets_and_scales_apply(self, deployment):
        sun, shade = data_io.sun_shade_groups(deployment)
        m = data_io.sun_shade_readings(deployment, epochs=800)
        sun_row, shade_row = (m.values[m.node_ids.index(min(group))] for group in (sun, shade))
        assert sun_row.mean() == pytest.approx(25.0, abs=1.0)
        assert shade_row.mean() == pytest.approx(18.0, abs=1.0)
        assert np.var(sun_row) > np.var(shade_row) * 10


class TestClusterReport:
    def test_empty_set(self):
        text = data_io.write_cluster_report(ClusterSet(clusters=(), radius=6.0))
        assert '"clusters": []' in text

    def test_fixture_run_has_seven_entries(self, deployment):
        cs = form_clusters(deployment, 6.0)
        text = data_io.write_cluster_report(cs)
        assert text.count('"head"') == 7

    def test_round_trip(self, deployment):
        cs = form_clusters(deployment, 6.0)
        doc = json.loads(data_io.write_cluster_report(cs))
        assert doc["radius"] == cs.radius
        assert [(e["order"], e["head"], e["members"]) for e in doc["clusters"]] == [
            (order, c.head, sorted(c.members)) for order, c in enumerate(cs, start=1)
        ]

    def test_accuracy_fields_serialized(self, deployment):
        model = CorrelationModel(theta=30.0)
        cs = form_clusters(deployment, 6.0)
        reports = cluster_accuracy(deployment, cs, model, deployment.centroid(), 1.0, 0.05)
        text = data_io.write_cluster_report(cs, reports)
        assert text.count('"accuracy"') == 7


def empty_state(cost_history):
    from wsn3d.placement import PlacementState

    none = np.empty(0)
    return PlacementState(
        node_ids=(), sigma_p2=none, sigma_b2=none, best_cost=none, i_a=none,
        sigma_gb2=0.0, cost_history=cost_history,
    )


class TestCostCurves:
    def test_row_counts(self):
        state = empty_state(cost_history=tuple(float(i) for i in range(300)))
        curve, nodes = data_io.write_cost_curves(state, {1: 2.0, 2: 7.0}, {2})
        assert len(curve.splitlines()) == 301
        lines = nodes.splitlines()
        assert lines[0] == "node_id,cost,selected"
        assert lines[1] == "1,2.0,0" and lines[2] == "2,7.0,1"

    def test_empty_run(self):
        state = empty_state(cost_history=())
        curve, nodes = data_io.write_cost_curves(state, {}, set())
        assert curve == "round,mean_cost\n"
        assert nodes == "node_id,cost,selected\n"

    def test_selected_column_count(self, deployment):
        from wsn3d.placement import run_placement, select_nodes

        matrix = data_io.sun_shade_readings(deployment, epochs=60)
        clusters = form_clusters(deployment, 6.0)
        state, costs = run_placement(matrix, clusters, rounds=20)
        selected = select_nodes(costs, 5.0)
        _, nodes = data_io.write_cost_curves(state, costs, selected)
        ones = sum(1 for line in nodes.splitlines()[1:] if line.endswith(",1"))
        assert ones == len(selected)


class TestReadingsRoundTrip:
    def test_write_then_parse_preserves_values(self, deployment, csv_file):
        matrix = data_io.generate_synthetic(deployment, CorrelationModel(theta=30.0), epochs=20, seed=4)
        back = data_io.parse_readings(csv_file(data_io.write_readings(matrix)))
        assert back.node_ids == matrix.node_ids and back.epochs == matrix.epochs
        assert back.values.tobytes() == matrix.values.tobytes()

    def test_integer_values_written_as_floats(self):
        matrix = data_io.ReadingMatrix(node_ids=(1, 2), epochs=(0, 1), values=np.array([[3, 4], [5, 6]]))
        text = data_io.write_readings(matrix)
        assert text == "epoch,node_id,value\n0,1,3.0\n0,2,5.0\n1,1,4.0\n1,2,6.0\n"
        assert text == reference_write_readings(matrix)

    # write_readings joins its rows 64 epochs at a time
    @staticmethod
    def block_matrix(epochs, seed=0):
        """Readings of five nodes over the epochs, a fifth of them missing, with
        signed zero, the smallest subnormal and the largest double among them."""
        rng = np.random.default_rng(seed)
        values = rng.normal(20.0, 3.0, (5, len(epochs)))
        values[rng.random(values.shape) < 0.2] = np.nan
        values[1, :3] = [-0.0, 5e-324, -1.7976931348623157e308]
        return data_io.ReadingMatrix(node_ids=(-(2**63), -3, 0, 7, 2**63 - 1), epochs=tuple(epochs), values=values)

    @staticmethod
    def assert_writes_like_the_reference(matrix, csv_file):
        text = data_io.write_readings(matrix)
        assert text == reference_write_readings(matrix)
        assert_bit_identical(data_io.parse_readings(csv_file(text)), trimmed(matrix))

    @pytest.mark.parametrize("t", [63, 64, 65, 129])
    def test_epoch_counts_around_a_block(self, t, csv_file):
        self.assert_writes_like_the_reference(self.block_matrix(range(t), seed=t), csv_file)

    def test_sparse_negative_epochs_across_blocks(self, csv_file):
        rng = np.random.default_rng(5)
        inner = rng.choice(np.arange(-10**6, 10**6), 127, replace=False).tolist()
        epochs = sorted([-(2**63), *inner, 2**63 - 1])
        self.assert_writes_like_the_reference(self.block_matrix(epochs), csv_file)

    @pytest.mark.parametrize("empty", [[63], [64], [63, 64], [127, 128], [0, 63, 64, 127, 128]])
    def test_all_missing_epoch_at_a_block_edge(self, empty, csv_file):
        matrix = self.block_matrix(range(129))
        matrix.values[:, empty] = np.nan
        self.assert_writes_like_the_reference(matrix, csv_file)

    @pytest.mark.parametrize("block, cell", [(0, (4, 0)), (1, (0, 64)), (1, (2, 100)), (2, (3, 128))])
    def test_block_with_one_present_cell(self, block, cell, csv_file):
        matrix = self.block_matrix(range(129))
        kept = matrix.values[cell]
        matrix.values[:, 64 * block:64 * (block + 1)] = np.nan
        matrix.values[cell] = 1.5 if np.isnan(kept) else kept
        self.assert_writes_like_the_reference(matrix, csv_file)


class TestReadingMatrix:
    def test_nan_is_the_only_missing_mark(self):
        values = np.array([[1.0, np.nan, 2.5], [np.nan, -0.0, 7.0]])
        m = data_io.ReadingMatrix(node_ids=(4, 9), epochs=(0, 3, 8), values=values)
        assert np.array_equal(m.missing, np.isnan(values))
        assert data_io.write_readings(m) == "epoch,node_id,value\n0,4,1.0\n3,9,-0.0\n8,4,2.5\n8,9,7.0\n"
        with pytest.raises(ValueError, match=r"values must have shape \(1, 3\)"):
            data_io.ReadingMatrix(node_ids=(4,), epochs=(0, 3, 8), values=values)
        for bad in (np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                data_io.ReadingMatrix(node_ids=(4, 9), epochs=(0, 3, 8), values=np.where(m.missing, bad, values))

    @pytest.mark.parametrize("node_ids, epochs, message", [
        ((1, 1, 2), (0, 1, 2), "node_ids must be strictly ascending, got 1 before 1"),
        ((1, 2, 3), (0, 0, 2), "epochs must be strictly ascending, got 0 before 0"),
        ((7, 3, 7), (2**63 - 1, -(2**63), 2**63 - 1), "node_ids must be strictly ascending, got 7 before 3"),
        ((1, 2, 3), (5, 4, 5, 4, 5), "epochs must be strictly ascending, got 5 before 4"),
        ((2, 1), (0, 1), "node_ids must be strictly ascending, got 2 before 1"),
        ((1, 2), (3, 0), "epochs must be strictly ascending, got 3 before 0"),
    ], ids=["node id", "epoch", "node ids named first", "two epochs", "unordered node ids", "unordered epochs"])
    def test_repeated_ids_and_epochs_rejected(self, node_ids, epochs, message):
        # a repeat would give one cell two rows, which write_readings would emit
        # as a trace parse_readings rejects; distinct ids or epochs out of order
        # would break the one row and column order every stage reads
        with pytest.raises(ValueError, match=f"^{message}$"):
            data_io.ReadingMatrix(node_ids=node_ids, epochs=epochs, values=np.ones((len(node_ids), len(epochs))))


    @pytest.mark.parametrize("node_ids, epochs, message", [
        ((1.5, True), (0, 2.0), "node_ids must be int64 integers, got 1.5"),
        ((1, True), (0, 1), "node_ids must be int64 integers, got True"),
        ((2**70,), (0,), f"node_ids must be int64 integers, got {2**70}"),
        ((1, 2), (0, 2.0), "epochs must be int64 integers, got 2.0"),
        ((1,), (-(2**63) - 1,), f"epochs must be int64 integers, got {-(2**63) - 1}"),
        ((1,), ("0",), "epochs must be int64 integers, got '0'"),
    ], ids=["float and bool", "bool among ints", "beyond int64", "float epoch", "below int64", "text epoch"])
    def test_ids_and_epochs_must_be_int64_integers(self, node_ids, epochs, message):
        # write_readings would write such a matrix as a trace parse_readings rejects
        with pytest.raises(ValueError, match=f"^{message}$"):
            data_io.ReadingMatrix(node_ids=node_ids, epochs=epochs, values=np.ones((len(node_ids), len(epochs))))


def reference_parse_readings(fh, deployment=None):
    """The per-cell parser that parse_readings replaced, kept as its oracle."""
    reader = csv.reader(fh)
    header = next(reader, None)
    if header != ["epoch", "node_id", "value"]:
        raise DataFormatError(f"expected header epoch,node_id,value, got {header}", line=1)
    known = set(deployment.node_ids.tolist()) if deployment is not None else None
    cells: dict[tuple[int, int], float] = {}
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 3:
            raise DataFormatError(f"expected 3 columns, got {len(row)}", line=lineno)
        try:
            epoch = int(row[0])
            nid = int(row[1])
            value = float(row[2])
        except ValueError as exc:
            raise DataFormatError(str(exc), line=lineno) from None
        if not np.isfinite(value):
            raise DataFormatError(f"non-finite value {row[2]}", line=lineno)
        if known is not None and nid not in known:
            raise DataFormatError(f"unknown node {nid}", line=lineno)
        if (nid, epoch) in cells:
            raise DataFormatError(f"duplicate cell (node {nid}, epoch {epoch})", line=lineno)
        cells[(nid, epoch)] = value
    if not cells:
        raise DataFormatError("no readings")
    node_ids = tuple(sorted({nid for nid, _ in cells}))
    epochs = tuple(sorted({e for _, e in cells}))
    values = np.full((len(node_ids), len(epochs)), np.nan)
    nrow = {nid: k for k, nid in enumerate(node_ids)}
    ecol = {e: k for k, e in enumerate(epochs)}
    for (nid, e), v in cells.items():
        values[nrow[nid], ecol[e]] = v
    return data_io.ReadingMatrix(node_ids=node_ids, epochs=epochs, values=values)


def reference_write_readings(matrix):
    """The per-cell writer that write_readings replaced, kept as its oracle."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["epoch", "node_id", "value"])
    for col, epoch in enumerate(matrix.epochs):
        for rowk, nid in enumerate(matrix.node_ids):
            if not matrix.missing[rowk, col]:
                writer.writerow([epoch, nid, repr(float(matrix.values[rowk, col]))])
    return buf.getvalue()


INT64 = st.integers(-(2**63), 2**63 - 1)
POSITIVE_IDS = st.integers(1, 2**63 - 1)
# any finite double, plus the edges: signed zero, subnormals, the largest magnitudes
FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e308, -1e308, 1.7976931348623157e308]
)


@st.composite
def reading_matrices(draw, ids=INT64):
    """Sorted distinct ids and epochs (sparse, negative, up to the int64 edges),
    random gaps with at least one present cell, finite values."""
    node_ids = sorted(draw(st.sets(ids, min_size=1, max_size=5)))
    epochs = sorted(draw(st.sets(st.integers(-20, 20) | INT64, min_size=1, max_size=6)))
    shape = (len(node_ids), len(epochs))
    n = shape[0] * shape[1]
    present = draw(st.lists(st.booleans(), min_size=n, max_size=n).filter(any))
    missing = ~np.asarray(present).reshape(shape)
    values = np.asarray(draw(st.lists(FINITE, min_size=n, max_size=n)), dtype=float).reshape(shape)
    values[missing] = np.nan
    return data_io.ReadingMatrix(node_ids=tuple(node_ids), epochs=tuple(epochs), values=values)


def trimmed(matrix):
    """The matrix without its all-missing rows and columns, which a trace cannot carry."""
    rows, cols = ~matrix.missing.all(axis=1), ~matrix.missing.all(axis=0)
    return data_io.ReadingMatrix(
        node_ids=tuple(np.asarray(matrix.node_ids)[rows].tolist()),
        epochs=tuple(np.asarray(matrix.epochs)[cols].tolist()),
        values=matrix.values[rows][:, cols],
    )


def assert_bit_identical(a, b):
    assert a.node_ids == b.node_ids and a.epochs == b.epochs
    assert all(type(i) is int for i in (*a.node_ids, *a.epochs))
    assert np.array_equal(a.missing, b.missing)
    assert a.values.dtype == b.values.dtype == np.float64
    assert a.values.tobytes() == b.values.tobytes()  # NaN payloads and -0.0 included


def quote_fields(row, flags):
    """The row with each field whose flag is set in double quotes; a blank row stays blank."""
    return ",".join(f'"{f}"' if q else f for f, q in zip(row.split(","), flags)) if row else row


def outcome(parse, source, deployment=None):
    """The matrix parsed from the source (a path, or a stream for the
    reference), or the (type, message, line) of the error raised."""
    try:
        return parse(source, deployment)
    except DataFormatError as exc:
        return type(exc), str(exc), exc.line


class TestReadingsProperties:
    @settings(max_examples=200, deadline=None)
    @given(reading_matrices())
    def test_write_then_parse_is_bit_identical(self, csv_file, matrix):
        text = data_io.write_readings(matrix)
        assert text == reference_write_readings(matrix)
        assert_bit_identical(data_io.parse_readings(csv_file(text)), trimmed(matrix))

    @settings(max_examples=200, deadline=None)
    @given(reading_matrices(), st.data())
    def test_shuffled_rows_parse_like_the_reference(self, csv_file, matrix, data):
        header, *rows = data_io.write_readings(matrix).splitlines()
        rows = data.draw(st.permutations(rows + [""] * data.draw(st.integers(0, 2))))
        quoted = data.draw(st.lists(st.booleans(), min_size=3 * len(rows), max_size=3 * len(rows)))
        rows = [quote_fields(row, quoted[3 * k:3 * k + 3]) for k, row in enumerate(rows)]
        eol = data.draw(st.sampled_from(["\n", "\r\n"]))  # CRLF or quotes send the text to the row reader
        text = eol.join([header, *rows]) + eol
        got = data_io.parse_readings(csv_file(text))
        assert_bit_identical(got, reference_parse_readings(io.StringIO(text)))
        assert_bit_identical(got, trimmed(matrix))

    FAULTS = ("number", "nan", "unknown", "duplicate", "columns")

    def faulty_row(self, fault, clean_row, known, data):
        epoch, nid, value = clean_row.split(",")
        if fault == "number":
            fields = [epoch, nid, value]
            column = data.draw(st.integers(0, 2))
            bad = ["warm", "", "0x1", "1e"] + (["1.5"] if column < 2 else [])  # 1.5 is no int
            fields[column] = data.draw(st.sampled_from(bad))
            return ",".join(fields)
        if fault == "nan":
            return f"{epoch},{nid},{data.draw(st.sampled_from(['nan', 'NaN', 'inf', '-inf']))}"
        if fault == "unknown":
            return f"{epoch},{data.draw(POSITIVE_IDS.filter(lambda i: i not in known))},{value}"
        if fault == "duplicate":
            return f"{epoch},{nid},1.0"
        return data.draw(st.sampled_from([f"{epoch},{nid}", f"{clean_row},1", epoch]))

    @settings(max_examples=300, deadline=None)
    @given(reading_matrices(ids=POSITIVE_IDS), st.data())
    def test_malformed_rows_fail_like_the_reference(self, csv_file, matrix, data):
        """One or two faulty rows, each inserted anywhere: both parsers stop at
        the first with the same error."""
        header, *clean = data_io.write_readings(matrix).splitlines()
        rows = data.draw(st.permutations(clean))
        dep = Deployment(matrix.node_ids, np.zeros((len(matrix.node_ids), 3)))
        for fault in data.draw(st.lists(st.sampled_from(self.FAULTS), min_size=1, max_size=2)):
            row = self.faulty_row(fault, data.draw(st.sampled_from(clean)), set(matrix.node_ids), data)
            rows.insert(data.draw(st.integers(0, len(rows))), row)
        text = "\n".join([header, *rows]) + "\n"
        want = outcome(reference_parse_readings, io.StringIO(text), dep)
        got = outcome(data_io.parse_readings, csv_file(text), dep)
        assert isinstance(want, tuple), "every injected fault is an error"
        assert got == want


def assert_same_outcome(got, want):
    if isinstance(want, tuple):
        assert got == want
    else:
        assert not isinstance(got, tuple), got
        assert_bit_identical(got, want)


ROUTED_DEPLOYMENT = Deployment([1, 2, 7], np.zeros((3, 3)))
ROUTED = {
    "crlf": "epoch,node_id,value\r\n0,1,1.0\r\n1,2,2.5\r\n",
    "quoted": 'epoch,node_id,value\n"0","1","1.0"\n1,2,"2.5"\n',
    "blank rows": "epoch,node_id,value\n\n0,1,1.0\n\n\n1,2,2.5\n\n",
    "no final newline": "epoch,node_id,value\n0,1,1.0\n1,2,2.5",
    "plus sign": "epoch,node_id,value\n+7,+7,+7\n",
    "leading point": "epoch,node_id,value\n0,1,.5\n",
    "trailing point": "epoch,node_id,value\n0,1,5.\n",
    "upper exponent": "epoch,node_id,value\n0,1,1E5\n",
    "overflow to inf": "epoch,node_id,value\n0,1,1.0\n1,1,1e999\n",
    "fractional epoch": "epoch,node_id,value\n0,1,1.0\n1.5,1,2.0\n",
    "duplicate cell": "epoch,node_id,value\n0,1,1.0\n1,2,2.0\n0,1,3.0\n",
    "unknown node": "epoch,node_id,value\n0,1,1.0\n0,9,2.0\n",
    "trailing comma": "epoch,node_id,value\n0,1,1.0,\n",
    "header only": "epoch,node_id,value\n",
    "other header": "Epoch,node_id,value\n0,1,1.0\n",
    "5001-digit epoch": "epoch,node_id,value\n0,1,1.0\n" + "0" * 5000 + "1,1,2.0\n",
}


@pytest.fixture(scope="module")
def dropped_trace():
    """A canonical 150-node, 1500-epoch trace with 5% of its rows dropped:
    (text, nodes, epochs, rows kept)."""
    rng = np.random.default_rng(7)
    n, t = 150, 1500
    matrix = data_io.ReadingMatrix(
        node_ids=tuple(range(1, n + 1)), epochs=tuple(range(t)),
        values=rng.normal(20.0, 3.0, (n, t)),
    )
    header, *rows = data_io.write_readings(matrix).splitlines()
    kept = rng.permutation(len(rows))[: round(0.95 * len(rows))]
    return "\n".join([header, *(rows[k] for k in kept)]) + "\n", n, t, len(kept)


class TestReadingsRouting:
    """Traces in write_readings' form take the array path; every other text, and
    every trace that path rejects, is read row by row, with the reference's outcome."""

    def test_canonical_trace_skips_the_row_reader(self, dropped_trace, csv_file, monkeypatch):
        text, n, t, kept = dropped_trace
        want = reference_parse_readings(io.StringIO(text))
        path = csv_file(text)

        def no_row_reader(*args):
            raise AssertionError("the row reader ran")

        monkeypatch.setattr(data_io, "_checked_rows", no_row_reader)
        assert_bit_identical(data_io.parse_readings(path), want)
        assert want.missing.sum() == n * t - kept > 0

    @pytest.mark.parametrize("text", ROUTED.values(), ids=ROUTED.keys())
    def test_outcome_matches_the_reference(self, text, csv_file):
        want = outcome(reference_parse_readings, io.StringIO(text), ROUTED_DEPLOYMENT)
        assert_same_outcome(outcome(data_io.parse_readings, csv_file(text), ROUTED_DEPLOYMENT), want)

    def test_undecodable_byte_deep_in_a_canonical_trace(self, dropped_trace, csv_file):
        # the byte check sends the file to the row reader, which decodes it and
        # names the line of the byte as a decode of the whole file does
        text, _, _, _ = dropped_trace
        data = bytearray(text.encode("utf-8"))
        at = data.index(b"\n", len(data) // 2) - 1  # the last digit of a line's value
        data[at] = 0xFF
        path = csv_file(bytes(data))
        with pytest.raises(UnicodeDecodeError) as exc:
            bytes(data).decode("utf-8")
        line = text.count("\n", 0, at) + 1
        want = (DataFormatError, f"line {line}: {path}: {exc.value}", line)
        assert outcome(data_io.parse_readings, path) == want
        assert exc.value.start == at and line > 100_000

    def test_file_with_cr_line_ends(self, csv_file):
        # a file opens with newline="", where a lone CR ends a row; the row reader
        # must keep that on the text read from it
        path = csv_file(b"epoch,node_id,value\r0,1,1.5\r1,1,2.5\r")
        with open(path, encoding="utf-8", newline="") as fh:
            want = reference_parse_readings(fh)
        assert_bit_identical(data_io.parse_readings(path), want)


# coordinate texts in the canonical alphabet: shortest round-trip repr (up to 17
# digits, exponents, -0.0), 17 significant digits in exponent form, %.17g, and
# the three-decimal form of a generated deployment where it stays short
COORDINATE_TEXTS = st.floats(allow_nan=False, allow_infinity=False).flatmap(
    lambda x: st.sampled_from([repr(x), f"{x:.16e}", f"{x:.17g}", *[f"{x:.3f}"] * (abs(x) < 1e20)])
)


@st.composite
def canonical_node_files(draw):
    n = draw(st.integers(1, 30))
    ids = draw(st.lists(POSITIVE_IDS, min_size=n, max_size=n, unique=True))
    rows = [",".join([str(i), *draw(st.lists(COORDINATE_TEXTS, min_size=3, max_size=3))]) for i in ids]
    return "node_id,x,y,z\n" + "\n".join(rows) + "\n"


def node_outcome(parse, source):
    """The ids and position bits of the nodes parsed from the source (a path,
    or a stream for the row reader), or the DataFormatError message."""
    try:
        dep = parse(source)
    except DataFormatError as exc:
        return str(exc)
    return node_bits(dep)


def node_bits(dep):
    """Each node's id and the hex bits of its coordinates, in file order."""
    assert dep.node_ids.dtype == np.int64 and dep.positions.dtype == np.float64
    return [(i, *map(float.hex, p)) for i, p in zip(dep.node_ids.tolist(), dep.positions.tolist())]


ROUTED_NODES = {
    "id zero": "node_id,x,y,z\n1,0,0,0\n0,1,1,1\n",
    "negative id": "node_id,x,y,z\n-4,0,0,0\n",
    "id 2**63": f"node_id,x,y,z\n1,0,0,0\n{2**63},1,1,1\n",
    "id 2**63 - 1": f"node_id,x,y,z\n{2**63 - 1},-0.0,1e-320,1.7976931348623157e308\n",
    "fractional id": "node_id,x,y,z\n1,0,0,0\n2.0,1,1,1\n",
    "exponent id": "node_id,x,y,z\n1e3,0,0,0\n",
    "overflow to inf": "node_id,x,y,z\n1,0,0,0\n2,1,1e999,1\n",
    "duplicate id": "node_id,x,y,z\n1,0,0,0\n2,1,1,1\n1,2,2,2\n",
    "header only": "node_id,x,y,z\n",
    "plus signs": "node_id,x,y,z\n+7,+1,+.5,+5.\n",
    "blank rows": "node_id,x,y,z\n\n1,0,0,0\n\n2,1,1,1\n\n",
    "no final newline": "node_id,x,y,z\n1,0,0,0\n2,1,1,1",
    "crlf": "node_id,x,y,z\r\n1,0,0,0\r\n",
    "quoted": 'node_id,x,y,z\n"1",0,0,0\n',
    "trailing comma": "node_id,x,y,z\n1,0,0,0,\n",
    "missing field": "node_id,x,y,z\n1,0,,0\n",
}


class TestNodesRouting:
    """Node files in canonical form take the array path and give the Deployment
    the row reader gives; every other text, and every file that path rejects,
    has the row reader's outcome."""

    @settings(max_examples=300, deadline=None)
    @given(canonical_node_files())
    def test_array_path_matches_the_row_reader(self, csv_file, text):
        want = node_outcome(data_io._parse_node_rows, io.StringIO(text, newline=""))
        path = csv_file(text)

        def no_row_reader(*args):
            raise AssertionError("the row reader ran")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(data_io, "_checked_rows", no_row_reader)
            assert node_outcome(data_io.parse_nodes, path) == want

    @pytest.mark.parametrize("text", ROUTED_NODES.values(), ids=ROUTED_NODES.keys())
    def test_outcome_matches_the_row_reader(self, text, csv_file):
        want = node_outcome(data_io._parse_node_rows, io.StringIO(text, newline=""))
        assert node_outcome(data_io.parse_nodes, csv_file(text)) == want

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="0123456789+-.eE,\n", max_size=80))
    def test_canonical_alphabet_fuzz(self, csv_file, body):
        text = "node_id,x,y,z\n" + body
        want = node_outcome(data_io._parse_node_rows, io.StringIO(text, newline=""))
        assert node_outcome(data_io.parse_nodes, csv_file(text)) == want

    def test_generated_deployment_skips_the_row_reader(self, fixture_path, monkeypatch):
        with fixture_path.open(encoding="utf-8", newline="") as fh:
            want = node_outcome(data_io._parse_node_rows, fh)
        monkeypatch.setattr(data_io, "_checked_rows", None)
        dep = data_io.parse_nodes(fixture_path)
        assert node_bits(dep) == want


FALLBACK_READINGS = "epoch,node_id,value\n0,1,1.5\n0,2,-0.0\n3,1,2.5e-3\n"
FALLBACK_NODES = "node_id,x,y,z\n1,0.5,1.0,2.0\n7,-3.25,1e-3,4.0\n"


class TestPathReadFallbacks:
    """A canonical file is checked as bytes, then read again by np.loadtxt from
    its path; where that read fails or could go astray, both parsers give the
    row reader's result."""

    @staticmethod
    def assert_row_reader_results(readings, nodes, readings_text, nodes_text, monkeypatch=None):
        """Parse the files at the two paths; with monkeypatch, also require that
        the row reader never runs."""
        want_readings = reference_parse_readings(io.StringIO(readings_text))
        want_nodes = node_outcome(data_io._parse_node_rows, io.StringIO(nodes_text, newline=""))
        if monkeypatch is not None:
            monkeypatch.setattr(data_io, "_checked_rows", None)
        assert_bit_identical(data_io.parse_readings(readings), want_readings)
        assert node_outcome(data_io.parse_nodes, nodes) == want_nodes

    @pytest.mark.parametrize("suffix", [".gz", ".xz", ".bz2"])
    def test_plain_file_with_a_compression_suffix(self, suffix, csv_file):
        # numpy opens such a name with a decompressor, which fails on plain bytes
        self.assert_row_reader_results(csv_file(FALLBACK_READINGS, f"r.csv{suffix}"),
                                       csv_file(FALLBACK_NODES, f"n.csv{suffix}"),
                                       FALLBACK_READINGS, FALLBACK_NODES)

    def test_blank_lf_lines_take_the_array_path(self, csv_file, monkeypatch):
        # blank LF lines are canonical bytes; np.loadtxt skips them, and the row
        # count guard counts only the non-blank lines
        readings = FALLBACK_READINGS.replace("\n", "\n\n")
        nodes = "node_id,x,y,z\n\n" + FALLBACK_NODES.split("\n", 1)[1].replace("\n", "\n\n\n")
        self.assert_row_reader_results(csv_file(readings, "r.csv"), csv_file(nodes, "n.csv"),
                                       readings, nodes, monkeypatch)

    def test_url_like_name_is_read_as_a_local_file(self, tmp_path, monkeypatch):
        fetched = []
        monkeypatch.setattr(urllib.request, "urlopen", lambda *args, **kwargs: fetched.append(args))
        monkeypatch.chdir(tmp_path)
        (tmp_path / "http:" / "host").mkdir(parents=True)
        (tmp_path / "http:" / "host" / "r.csv").write_text(FALLBACK_READINGS)
        (tmp_path / "http:" / "host" / "n.csv").write_text(FALLBACK_NODES)
        self.assert_row_reader_results("http://host/r.csv", "http://host/n.csv",
                                       FALLBACK_READINGS, FALLBACK_NODES, monkeypatch)
        assert fetched == []

    def test_row_count_guard(self, csv_file):
        # the file is read twice, so an array with another row count than the
        # checked bytes' non-blank lines is not kept
        path = csv_file(FALLBACK_READINGS, "r.csv")
        data = FALLBACK_READINGS.encode("ascii")
        assert data_io._canonical_rows(path, data + b"\n\n", data_io._READING_ROW).size == 3
        assert data_io._canonical_rows(path, data + b"4,1,1.0\n", data_io._READING_ROW) is None
        assert data_io._canonical_rows(path, data[:-len(b"3,1,2.5e-3\n")], data_io._READING_ROW) is None
