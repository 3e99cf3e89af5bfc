import csv
import io
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsn3d import data_io
from wsn3d.clustering import Cluster, ClusterSet, Deployment, SensorNode, form_clusters
from wsn3d.errors import DataFormatError
from wsn3d.estimation import NoiseProfile, SignalModel, cluster_accuracy
from wsn3d.geometry import CorrelationModel, EventSource


class TestParseNodes:
    def test_bundled_fixture(self, deployment):
        assert len(deployment) == 54
        assert deployment.node(1).position == (1.807, 6.525, 8.785)
        assert deployment.node(47).position == (3.756, 5.074, 7.998)

    def test_empty_body_rejected(self):
        with pytest.raises(DataFormatError, match="no nodes"):
            data_io.parse_nodes(io.StringIO("node_id,x,y,z\n"))

    def test_single_row(self):
        dep = data_io.parse_nodes(io.StringIO("node_id,x,y,z\n47,3.756,5.074,7.998\n"))
        assert dep.node(47).position == (3.756, 5.074, 7.998)

    def test_duplicate_id_reports_line(self):
        src = io.StringIO("node_id,x,y,z\n1,0,0,0\n1,1,1,1\n")
        with pytest.raises(DataFormatError, match="line 3"):
            data_io.parse_nodes(src)

    def test_malformed_number_reports_line(self):
        src = io.StringIO("node_id,x,y,z\n1,0,zero,0\n")
        with pytest.raises(DataFormatError, match="line 2"):
            data_io.parse_nodes(src)

    @pytest.mark.parametrize("row, field", [
        ("1_2,0,0,0", "node_id"), ("1,1_0,0,0", "x"), (" 1,0,0,0", "node_id"),
        ("1,0,0\t,0", "y"), ("1,0,0,1e3 ", "z"), ("1,0,\u0663,0", "y"), ("1,0,0,\u00a01", "z"),
    ])
    def test_number_grammar(self, row, field):
        # int() and float() would read each of these fields
        src = io.StringIO(f"node_id,x,y,z\n9,0,0,0\n{row}\n")
        with pytest.raises(DataFormatError, match=f"line 3: field {field} "):
            data_io.parse_nodes(src)

    def test_missing_column_rejected(self):
        src = io.StringIO("node_id,x,y,z\n1,0,0\n")
        with pytest.raises(DataFormatError):
            data_io.parse_nodes(src)

    def test_wrong_header_rejected(self):
        with pytest.raises(DataFormatError, match="header"):
            data_io.parse_nodes(io.StringIO("id,x,y,z\n1,0,0,0\n"))

    def test_row_order_preserved(self):
        src = io.StringIO("node_id,x,y,z\n5,0,0,0\n2,1,1,1\n")
        dep = data_io.parse_nodes(src)
        assert dep.ids() == [5, 2]


class TestParseReadings:
    def test_three_rows_one_node(self):
        src = io.StringIO("epoch,node_id,value\n0,7,1.5\n1,7,2.5\n2,7,3.5\n")
        m = data_io.parse_readings(src)
        assert m.node_ids == (7,) and m.epochs == (0, 1, 2)
        assert np.array_equal(m.row(7), [1.5, 2.5, 3.5])

    def test_sparse_epochs_marked_missing(self):
        src = io.StringIO("epoch,node_id,value\n0,1,1.0\n5,1,2.0\n5,2,3.0\n")
        m = data_io.parse_readings(src)
        assert m.epochs == (0, 5)
        assert m.missing[m.node_ids.index(2), 0]

    def test_duplicate_cell_rejected(self):
        src = io.StringIO("epoch,node_id,value\n0,1,1.0\n0,1,2.0\n")
        with pytest.raises(DataFormatError, match="duplicate cell"):
            data_io.parse_readings(src)

    def test_unknown_node_rejected_with_deployment(self, deployment):
        src = io.StringIO("epoch,node_id,value\n0,999,1.0\n")
        with pytest.raises(DataFormatError, match="unknown node"):
            data_io.parse_readings(src, deployment=deployment)

    def test_non_numeric_value_rejected(self):
        src = io.StringIO("epoch,node_id,value\n0,1,warm\n")
        with pytest.raises(DataFormatError, match="line 2"):
            data_io.parse_readings(src)

    @pytest.mark.parametrize("row, field", [
        ("1_0,7,2.5", "epoch"), ("1, 7 ,2.5", "node_id"), ("1,7,2_5", "value"), ("1,7,\t2.5", "value"),
        ("1,7,\u0663", "value"), ("\uff11,7,2.5", "epoch"), ('1,7,"2.5\n"', "value"),
    ])
    def test_number_grammar(self, row, field):
        # int() and float() would read each of these fields
        src = io.StringIO(f"epoch,node_id,value\n0,7,1.0\n{row}\n")
        with pytest.raises(DataFormatError, match=f"line 3: field {field} "):
            data_io.parse_readings(src)

    @pytest.mark.parametrize("row", [f"{2**63},1,1.0", f"{-(2**63) - 1},1,1.0", f"0,{2**63},1.0"])
    def test_beyond_int64_rejected(self, row):
        # np.unique would turn such ids into float64 and lose digits
        src = io.StringIO(f"epoch,node_id,value\n{-(2**63)},{2**63 - 1},1.0\n{row}\n")
        with pytest.raises(DataFormatError, match="line 3: .*does not fit in int64"):
            data_io.parse_readings(src)

    def test_full_scale_parse_under_a_second(self, deployment):
        scn = data_io.SyntheticScenario(
            model=CorrelationModel(theta=30.0), epochs=800, seed=0
        )
        matrix = data_io.generate_synthetic(scn, deployment)
        text = data_io.write_readings(matrix)
        start = time.perf_counter()
        parsed = data_io.parse_readings(io.StringIO(text))
        elapsed = time.perf_counter() - start
        assert parsed.values.shape == (54, 800)
        assert elapsed < 1.0


class TestGenerateSynthetic:
    MODEL = CorrelationModel(theta=30.0, alpha=1.0)

    def test_coincident_nodes_move_together(self):
        from wsn3d.clustering import Deployment, SensorNode

        nodes = (
            SensorNode(id=1, position=(1.0, 1.0, 1.0)),
            SensorNode(id=2, position=(1.0, 1.0, 1.0)),
        )
        scn = data_io.SyntheticScenario(model=self.MODEL, epochs=100, seed=0)
        m = data_io.generate_synthetic(scn, Deployment(nodes=nodes))
        # duplicate covariance rows force the jitter path; fields stay equal
        # up to the jitter scale
        assert np.max(np.abs(m.row(1) - m.row(2))) < 1e-3

    def test_tiny_theta_decorrelates(self, deployment):
        scn = data_io.SyntheticScenario(
            model=CorrelationModel(theta=0.01), epochs=2000, seed=1
        )
        m = data_io.generate_synthetic(scn, deployment)
        emp = np.corrcoef(m.values)
        np.fill_diagonal(emp, 0.0)
        assert np.max(np.abs(emp)) < 0.1

    def test_fixture_pair_matches_model(self, deployment):
        scn = data_io.SyntheticScenario(model=self.MODEL, epochs=800, seed=42)
        m = data_io.generate_synthetic(scn, deployment)
        emp = np.corrcoef(m.values)
        i, j = m.node_ids.index(47), m.node_ids.index(5)
        assert emp[i, j] == pytest.approx(0.9454738349063720, abs=0.05)

    def test_bitwise_reproducible(self, deployment):
        scn = data_io.SyntheticScenario(model=self.MODEL, epochs=100, seed=9)
        a = data_io.generate_synthetic(scn, deployment)
        b = data_io.generate_synthetic(scn, deployment)
        assert np.array_equal(a.values, b.values)

    def test_offsets_and_scales_apply(self, deployment):
        sun, shade = data_io.sun_shade_groups(deployment)
        scn = data_io.sun_shade_scenario(deployment, epochs=800)
        m = data_io.generate_synthetic(scn, deployment)
        sun_id, shade_id = min(sun), min(shade)
        assert m.row(sun_id).mean() == pytest.approx(25.0, abs=1.0)
        assert m.row(shade_id).mean() == pytest.approx(18.0, abs=1.0)
        assert np.var(m.row(sun_id)) > np.var(m.row(shade_id)) * 10


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
        back = data_io.read_cluster_report(data_io.write_cluster_report(cs))
        assert back == cs

    def test_accuracy_fields_serialized(self, deployment):
        model = CorrelationModel(theta=30.0)
        cs = form_clusters(deployment, 6.0)
        event = EventSource(position=deployment.centroid(), tau_e=0.85)
        noise = NoiseProfile.uniform(deployment.ids(), 0.05)
        reports = [
            cluster_accuracy(deployment, c, model, SignalModel(), noise, event) for c in cs
        ]
        text = data_io.write_cluster_report(cs, reports)
        assert text.count('"accuracy"') == 7


def empty_state(round, cost_history):
    from wsn3d.placement import PlacementState

    none = np.empty(0)
    return PlacementState(
        node_ids=(), sigma_p2=none, sigma_b2=none, best_cost=none, i_a=none,
        sigma_gb2=0.0, round=round, cost_history=cost_history,
    )


class TestCostCurves:
    def test_row_counts(self):
        state = empty_state(round=300, cost_history=tuple(float(i) for i in range(300)))
        curve, nodes = data_io.write_cost_curves(state, {1: 2.0, 2: 7.0}, {2})
        assert len(curve.splitlines()) == 301
        lines = nodes.splitlines()
        assert lines[0] == "node_id,cost,selected"
        assert lines[1] == "1,2.0,0" and lines[2] == "2,7.0,1"

    def test_empty_run(self):
        state = empty_state(round=0, cost_history=())
        curve, nodes = data_io.write_cost_curves(state, {}, set())
        assert curve == "round,mean_cost\n"
        assert nodes == "node_id,cost,selected\n"

    def test_selected_column_count(self, deployment):
        from wsn3d.placement import PlacementParams, run_placement, select_nodes

        scn = data_io.sun_shade_scenario(deployment, epochs=60)
        matrix = data_io.generate_synthetic(scn, deployment)
        clusters = form_clusters(deployment, 6.0)
        state, costs = run_placement(matrix, clusters, PlacementParams(rounds=20))
        selected = select_nodes(costs, 5.0)
        _, nodes = data_io.write_cost_curves(state, costs, selected)
        ones = sum(1 for line in nodes.splitlines()[1:] if line.endswith(",1"))
        assert ones == len(selected)


class TestReadingsRoundTrip:
    def test_write_then_parse_preserves_values(self, deployment):
        scn = data_io.SyntheticScenario(
            model=CorrelationModel(theta=30.0), epochs=20, seed=4
        )
        matrix = data_io.generate_synthetic(scn, deployment)
        back = data_io.parse_readings(io.StringIO(data_io.write_readings(matrix)))
        assert back.node_ids == tuple(sorted(matrix.node_ids))
        for nid in matrix.node_ids:
            assert np.array_equal(back.row(nid), matrix.row(nid))

    def test_integer_values_written_as_floats(self):
        matrix = data_io.ReadingMatrix(
            node_ids=(2, 1), epochs=(0, 1), values=np.array([[3, 4], [5, 6]]),
            missing=np.array([[False, True], [False, False]]),
        )
        text = data_io.write_readings(matrix)
        assert text == "epoch,node_id,value\n0,2,3.0\n0,1,5.0\n1,1,6.0\n"
        assert text == reference_write_readings(matrix)


def reference_parse_readings(fh, deployment=None):
    """The per-cell parser that parse_readings replaced, kept as its oracle."""
    reader = csv.reader(fh)
    header = next(reader, None)
    if header != ["epoch", "node_id", "value"]:
        raise DataFormatError(f"expected header epoch,node_id,value, got {header}", line=1)
    known = set(deployment.ids()) if deployment is not None else None
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
    missing = np.ones((len(node_ids), len(epochs)), dtype=bool)
    nrow = {nid: k for k, nid in enumerate(node_ids)}
    ecol = {e: k for k, e in enumerate(epochs)}
    for (nid, e), v in cells.items():
        values[nrow[nid], ecol[e]] = v
        missing[nrow[nid], ecol[e]] = False
    return data_io.ReadingMatrix(node_ids=node_ids, epochs=epochs, values=values, missing=missing)


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
    return data_io.ReadingMatrix(
        node_ids=tuple(node_ids), epochs=tuple(epochs), values=values, missing=missing
    )


def trimmed(matrix):
    """The matrix without its all-missing rows and columns, which a trace cannot carry."""
    rows, cols = ~matrix.missing.all(axis=1), ~matrix.missing.all(axis=0)
    return data_io.ReadingMatrix(
        node_ids=tuple(np.asarray(matrix.node_ids)[rows].tolist()),
        epochs=tuple(np.asarray(matrix.epochs)[cols].tolist()),
        values=matrix.values[rows][:, cols],
        missing=matrix.missing[rows][:, cols],
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


def outcome(parse, text, deployment=None):
    """The parsed matrix, or the (type, message, line) of the error raised."""
    try:
        return parse(io.StringIO(text), deployment)
    except DataFormatError as exc:
        return type(exc), str(exc), exc.line


class TestReadingsProperties:
    @settings(max_examples=200, deadline=None)
    @given(reading_matrices())
    def test_write_then_parse_is_bit_identical(self, matrix):
        text = data_io.write_readings(matrix)
        assert text == reference_write_readings(matrix)
        assert_bit_identical(data_io.parse_readings(io.StringIO(text)), trimmed(matrix))

    @settings(max_examples=200, deadline=None)
    @given(reading_matrices(), st.data())
    def test_shuffled_rows_parse_like_the_reference(self, matrix, data):
        header, *rows = data_io.write_readings(matrix).splitlines()
        rows = data.draw(st.permutations(rows + [""] * data.draw(st.integers(0, 2))))
        quoted = data.draw(st.lists(st.booleans(), min_size=3 * len(rows), max_size=3 * len(rows)))
        rows = [quote_fields(row, quoted[3 * k:3 * k + 3]) for k, row in enumerate(rows)]
        eol = data.draw(st.sampled_from(["\n", "\r\n"]))  # CRLF or quotes send the text to the row reader
        text = eol.join([header, *rows]) + eol
        got = data_io.parse_readings(io.StringIO(text))
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
    def test_malformed_rows_fail_like_the_reference(self, matrix, data):
        """One or two faulty rows, each inserted anywhere: both parsers stop at
        the first with the same error."""
        header, *clean = data_io.write_readings(matrix).splitlines()
        rows = data.draw(st.permutations(clean))
        dep = Deployment(nodes=tuple(SensorNode(id=i, position=(0.0, 0.0, 0.0)) for i in matrix.node_ids))
        for fault in data.draw(st.lists(st.sampled_from(self.FAULTS), min_size=1, max_size=2)):
            row = self.faulty_row(fault, data.draw(st.sampled_from(clean)), set(matrix.node_ids), data)
            rows.insert(data.draw(st.integers(0, len(rows))), row)
        text = "\n".join([header, *rows]) + "\n"
        want = outcome(reference_parse_readings, text, dep)
        got = outcome(data_io.parse_readings, text, dep)
        assert isinstance(want, tuple), "every injected fault is an error"
        assert got == want


def assert_same_outcome(got, want):
    if isinstance(want, tuple):
        assert got == want
    else:
        assert not isinstance(got, tuple), got
        assert_bit_identical(got, want)


class OneShot:
    """A stream whose first read returns all of its text and whose second read fails."""

    def __init__(self, text):
        self.text = text

    def read(self, size=-1):
        if self.text is None:
            raise OSError("the stream was read before")
        text, self.text = self.text, None
        return text


ROUTED_DEPLOYMENT = Deployment(nodes=tuple(SensorNode(id=i, position=(0.0, 0.0, 0.0)) for i in (1, 2, 7)))
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


class TestReadingsRouting:
    """Traces in write_readings' form take the array path; every other text, and
    every trace that path rejects, is read row by row, with the reference's outcome."""

    def test_canonical_trace_skips_the_row_reader(self, monkeypatch):
        rng = np.random.default_rng(7)
        n, t = 150, 1500
        matrix = data_io.ReadingMatrix(
            node_ids=tuple(range(1, n + 1)), epochs=tuple(range(t)),
            values=rng.normal(20.0, 3.0, (n, t)), missing=np.zeros((n, t), dtype=bool),
        )
        header, *rows = data_io.write_readings(matrix).splitlines()
        kept = rng.permutation(len(rows))[: round(0.95 * len(rows))]
        text = "\n".join([header, *(rows[k] for k in kept)]) + "\n"
        want = reference_parse_readings(io.StringIO(text))

        def no_row_reader(*args):
            raise AssertionError("the row reader ran")

        monkeypatch.setattr(data_io, "_rows", no_row_reader)
        assert_bit_identical(data_io.parse_readings(io.StringIO(text)), want)
        assert want.missing.sum() == n * t - len(kept) > 0

    @pytest.mark.parametrize("text", ROUTED.values(), ids=ROUTED.keys())
    def test_outcome_matches_the_reference(self, text):
        want = outcome(reference_parse_readings, text, ROUTED_DEPLOYMENT)
        assert_same_outcome(outcome(data_io.parse_readings, text, ROUTED_DEPLOYMENT), want)

    def test_file_with_cr_line_ends(self, tmp_path):
        # a file opens with newline="", where a lone CR ends a row; the row reader
        # must keep that on the text read from it
        path = tmp_path / "readings.csv"
        path.write_bytes(b"epoch,node_id,value\r0,1,1.5\r1,1,2.5\r")
        with open(path, encoding="utf-8", newline="") as fh:
            want = reference_parse_readings(fh)
        assert_bit_identical(data_io.parse_readings(path), want)

    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    def test_one_shot_stream_is_read_once(self, eol):
        text = eol.join(["epoch,node_id,value", "0,1,1.5", "1,1,2.5", "1,2,-3.0"]) + eol
        assert_bit_identical(data_io.parse_readings(OneShot(text)), reference_parse_readings(io.StringIO(text)))
