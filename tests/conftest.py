import csv
import math
from pathlib import Path

import pytest

from wsn3d import data_io

GOLDEN_DIR = Path(__file__).parent / "golden"

# Relative tolerance for the float columns of the golden CSVs. The digits
# below about 1e-12 relative are rounding noise, not results: the synthetic
# field draw (LAPACK Cholesky, BLAS matmul, numpy's SIMD exp) changes its last
# bits with the OpenBLAS kernel and numpy's CPU dispatch. PrefixMoments shifts
# each node by its mean before its prefix sums, so for `place --synthetic
# sun-shade --seed 42` on the bundled deployment the full-series costs sit
# within 1.4e-15 relative of a two-pass math.fsum evaluation of the same
# readings. Outputs under five OpenBLAS kernels and with numpy's X86_V3/X86_V4
# dispatch disabled differed from the goldens by at most 5.6e-13. Changing the
# window fill fraction in run_placement from 0.9 to 0.91 moves them by 3.7e-2.
GOLDEN_RTOL = 1e-9


def _assert_matches_golden_csv(path: Path, float_columns) -> None:
    """Compare a CSV artifact with the golden file of the same name.

    The header, the row count and every column not in ``float_columns`` must
    be equal as text; the float columns must agree within GOLDEN_RTOL.
    """
    with path.open(newline="") as f:
        got = list(csv.reader(f))
    with (GOLDEN_DIR / path.name).open(newline="") as f:
        want = list(csv.reader(f))
    name = path.name
    assert got[0] == want[0], f"{name}: header {got[0]} != golden {want[0]}"
    assert len(got) == len(want), f"{name}: {len(got) - 1} rows, golden has {len(want) - 1}"
    header = want[0]
    for row, (got_row, want_row) in enumerate(zip(got[1:], want[1:]), start=1):
        assert len(got_row) == len(want_row), f"{name} row {row}: {got_row} != golden {want_row}"
        for column, g, w in zip(header, got_row, want_row):
            if column not in float_columns:
                assert g == w, f"{name} row {row} column {column}: got {g!r}, golden {w!r}"
            elif not math.isclose(gv := float(g), wv := float(w), rel_tol=GOLDEN_RTOL, abs_tol=0.0):
                rel = abs(gv - wv) / abs(wv) if wv else math.inf
                pytest.fail(
                    f"{name} row {row} column {column}: got {g}, golden {w}, "
                    f"relative difference {rel:.3g} > {GOLDEN_RTOL:g}"
                )


@pytest.fixture(scope="session")
def assert_matches_golden_csv():
    return _assert_matches_golden_csv


@pytest.fixture(scope="session")
def fixture_path() -> Path:
    return data_io.bundled_nodes_path()


@pytest.fixture(scope="session")
def deployment():
    return data_io.load_bundled_deployment()
