"""The table writer: its bulk '%.17g' renderer against numpy's savetxt, which formats
each cell with Python's '%.17g'."""

import io
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import modeheat.tables as tables
from modeheat.config import load_config
from modeheat.errors import LargeStepWarning
from modeheat.experiments import run_spectrum

from conftest import REPO

try:  # only the property test needs hypothesis
    from hypothesis import given, settings, strategies as st
    from hypothesis.extra import numpy as hnp
except ImportError:
    hnp = None


def _body(rows: np.ndarray, block: int = tables._WRITE_BLOCK) -> str:
    """What `write_csv` writes after the header, with `block` rows per write."""
    buffer = io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tables, "_WRITE_BLOCK", block)
        tables._write_rows(buffer, rows)
    return buffer.getvalue()


def _savetxt(rows: np.ndarray) -> str:
    reference = io.StringIO()
    np.savetxt(reference, rows, fmt="%.17g", delimiter=",")
    return reference.getvalue()


_SPECIAL = [0.0, -0.0, -1.5, 5e-324, -2.5e-310, 1e300, -1e-300, math.nan, math.inf, -math.inf]


@pytest.mark.parametrize(
    "rows, block",
    [
        (np.array(_SPECIAL).reshape(5, 2), tables._WRITE_BLOCK),
        (np.array(_SPECIAL).reshape(2, 5), tables._WRITE_BLOCK),
        (np.zeros((0, 2)), tables._WRITE_BLOCK),
        # seven rows written three at a time: the last block is partial
        (np.random.default_rng(0).standard_normal((7, 3)) * 10.0 ** np.arange(-1, 2), 3),
    ],
    ids=["special", "five_columns", "no_rows", "partial_block"],
)
def test_write_rows_matches_savetxt(rows, block, monkeypatch, tmp_path):
    monkeypatch.setattr(tables, "_WRITE_BLOCK", block)
    path = tmp_path / "rows.csv"
    tables.write_csv(tables.Table([f"c{j}" for j in range(rows.shape[1])], rows), path)
    ours = path.read_text().split("\n", 1)[1]
    assert ours == _savetxt(rows)


if hnp is None:

    @pytest.mark.skip(reason="hypothesis is not installed")
    def test_rendered_rows_equal_savetxt():
        pass

else:
    _SHAPES = st.tuples(st.integers(0, 40), st.integers(1, 5))
    _TABLES = st.one_of(
        # every bit pattern: subnormals, nans with payloads, both zeros
        hnp.arrays(np.uint64, _SHAPES).map(lambda bits: bits.view(np.float64)),
        hnp.arrays(np.float64, _SHAPES, elements=st.floats()),
    )

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_TABLES, st.integers(1, 50))
    def test_rendered_rows_equal_savetxt(rows, block):
        assert _body(rows, block) == _savetxt(rows)


def _edges() -> np.ndarray:
    powers = np.array([float(f"1e{p}") for p in range(-308, 309)])
    below, above = np.nextafter(powers, 0.0), np.nextafter(powers, math.inf)
    boundaries = [
        0.0, -0.0, math.inf, -math.inf, math.nan,
        5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
        # the last 17-digit integers below 1e16 and 1e17, where fixed form ends
        9999999999999998.0, 1e16, 99999999999999984.0, 1e17,
        # where fixed form starts
        1e-4, 1e-5, *np.nextafter([1e-4, 1e-5], 0.0), *np.nextafter([1e-4, 1e-5], 1.0),
        # halves: exact at 1 and 6 digits, far from a 17-digit rounding half
        0.5, 12345.5,
        # an exact tie at 17 digits, which '%.17g' rounds to even
        2.0**-25,
        # y = |x| * 10**(16 - k) within 5e-17 of a rounding half, found by a
        # closest-vector search: the computed y lands on the wrong side of the
        # half, so each cell needs the guard band
        2.2134216087109993e-229, 7.862931575939347e-206,
        4.421976605688792e-92, 5.9740001618840614e+69,
    ]
    return np.concatenate([powers, below, above, boundaries])


@pytest.mark.parametrize("columns", [1, 3])
def test_edge_cells_equal_savetxt(columns):
    cells = _edges()
    rows = np.resize(np.concatenate([cells, -cells]), (2 * cells.size // columns, columns))
    assert _body(rows) == _savetxt(rows)


def test_shipped_spectrum_psd_table_keeps_its_bytes(tmp_path):
    cfg = load_config(REPO / "configs" / "spectrum.json")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LargeStepWarning)
        table = run_spectrum(cfg, 20191219, 1).tables["spectrum_psd"]
    assert table.rows.shape == (50_001, 2)
    path = tmp_path / "spectrum_psd.csv"
    tables.write_csv(table, path)
    expected = f"# {table.provenance}\nfrequency_hz,psd_m2_per_hz\n" + _savetxt(table.rows)
    assert path.read_bytes() == expected.encode("ascii")


def test_import_builds_no_lookup_table():
    script = (
        "import io, numpy as np, modeheat.tables as t\n"
        "assert t._lookup.cache_info().currsize == 0\n"
        "t._write_rows(io.StringIO(), np.array([[1.5, 2e-30]]))\n"
        "assert t._lookup.cache_info().currsize == 1\n"
    )
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
