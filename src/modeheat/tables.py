"""Result tables and the one writer of their CSV and JSON files.

Experiments return `Table`s; only this module decides how one looks on disk.
The CSV form is an optional ``# provenance`` line, the header, then one line
per row: floats printed with '%.17g' (the text round trip is exact), integers
as integers, and text as is, quoted as in RFC 4180 when it holds a comma, a
double quote, CR or LF.  The JSON mirror is a list of row objects built from
the same rows, with numbers as float and text kept as text.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

__all__ = ["Table", "write_csv", "write_json"]

# Rows formatted per write: bounds the formatted text of a long record.
_WRITE_BLOCK = 1 << 14


@dataclass(frozen=True)
class Table:
    """Named columns and their rows.

    ``rows`` is a 2-D float array, or a list of rows of text and numbers.
    ``provenance`` becomes the CSV's leading ``# ...`` line; the JSON mirror
    leaves it out.
    """

    columns: list[str]
    rows: np.ndarray | list[list]
    provenance: str | None = None


def _text(s: str) -> str:
    if any(c in s for c in ',"\r\n'):
        return '"' + s.replace('"', '""') + '"'
    return s


def _cell(x) -> str:
    if isinstance(x, str):
        return _text(x)
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _write_rows(f, rows: np.ndarray) -> None:
    """Write a 2-D float table as comma-separated '%.17g' rows.

    The bytes equal ``np.savetxt(f, rows, fmt="%.17g", delimiter=",")``, but
    each block of rows is formatted by one %-operation instead of one per row.
    """
    line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    for start in range(0, rows.shape[0], _WRITE_BLOCK):
        block = rows[start : start + _WRITE_BLOCK]
        f.write(line * block.shape[0] % tuple(block.ravel().tolist()))


def write_csv(table: Table, path) -> None:
    with open(path, "w", newline="") as f:
        if table.provenance is not None:
            f.write(f"# {table.provenance}\n")
        f.write(",".join(map(_text, table.columns)) + "\n")
        if isinstance(table.rows, np.ndarray):
            _write_rows(f, table.rows)
        else:
            f.writelines(",".join(map(_cell, row)) + "\n" for row in table.rows)


def write_json(table: Table, path) -> None:
    rows = table.rows.tolist() if isinstance(table.rows, np.ndarray) else table.rows
    records = [
        {k: v if isinstance(v, str) else float(v) for k, v in zip(table.columns, row)}
        for row in rows
    ]
    with open(path, "w") as f:
        f.write(json.dumps(records, indent=2) + "\n")
