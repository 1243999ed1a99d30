"""Compare two trees of `modeheat run` outputs: verdicts exactly, tables cell
by cell, every other output byte for byte.

    python tools/golden_diff.py BEFORE AFTER [--bound 1e-12]

BEFORE and AFTER are directories holding run directories, found at any
depth by their `verdict.json`.  For each run the verdict must be equal, the
checks must form the same sequence of (name, pass/fail, detail), so a
reordered or renamed check counts, and so does a detail text that changed
(a tolerance, say) while pass/fail did not; no check name may repeat within
a run.  The `outputs` and `warnings` lists of its `manifest.json` must be
equal too: the files the run wrote, and the category and message of each
warning it raised.  Each table, a CSV file or a JSON mirror (a list of row
objects), is reported as byte-identical or by its worst cell: |after -
before| over the largest magnitude in that column of BEFORE, 0 for a CSV
cell whose text differs but parses to the same number; text cells must
match exactly.  Columns are matched by header name, so a column dropped,
added or renamed on one side is named as such and the columns both sides
have are still compared cell by cell.  A table that differs also gets one
line per column: how many of its cells differ and the worst of them (or
that they differ in text only), "identical", or the side it is only on.
Any other output (`comparison.json`, `comparison.txt`) must be
byte-identical.  The exit status is 1 when a run or file is missing on one
side, a verdict, check sequence, check detail, outputs list or warnings list
differs, a check name repeats, a non-table file differs, a table has a
column on one side only, another row count or another column order, or a
cell exceeds --bound, else 0.  At --bound 0, the default, a table fails
whenever its bytes differ, even where every cell parses to the same number:
a change of formatting fails the byte-identical gate.  A positive --bound
compares numbers only.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from collections import Counter
from itertools import zip_longest
from pathlib import Path

# Compared per run, not file by file: the manifest carries a timestamp.
_RUN_FILES = {"verdict.json", "manifest.json"}
_MANIFEST_LISTS = ("outputs", "warnings")


def _runs(root: Path) -> set[Path]:
    return {p.parent.relative_to(root) for p in root.rglob("verdict.json")}


def _files(root: Path) -> set[Path]:
    return {
        p.relative_to(root) for p in root.rglob("*") if p.is_file() and p.name not in _RUN_FILES
    }


Check = tuple[str, bool, str | None]


def _checks(path: Path) -> tuple[str, list[Check]]:
    """The verdict and each check's (name, passed, detail); detail None where absent."""
    doc = json.loads(path.read_text())
    return doc["verdict"], [(c["name"], c["passed"], c.get("detail")) for c in doc["checks"]]


def _manifest(path: Path) -> dict:
    """The compared lists of a run's manifest, by key; None where absent."""
    doc = json.loads(path.read_text()) if path.is_file() else {}
    return {key: doc.get(key) for key in _MANIFEST_LISTS}


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _json_cell(v):
    return float(v) if isinstance(v, (int, float)) and not isinstance(v, bool) else v


def _value(cell, parse: bool) -> float | None:
    """The number a cell holds: a float as is, text parsed when `parse` (a CSV
    cell); None for text."""
    if isinstance(cell, float):
        return cell
    return _number(cell) if parse else None


def _rows(path: Path) -> list[list] | None:
    """A table as its header row followed by data rows: a CSV's cells as their
    text, a JSON mirror's as float (numbers) or str (text); None for a file
    that is no table."""
    if path.suffix == ".csv":
        with open(path, newline="") as f:
            return [row for row in csv.reader(f) if row and not row[0].startswith("#")]
    if path.suffix == ".json":
        doc = json.loads(path.read_text())
        if not isinstance(doc, list) or not all(isinstance(r, dict) for r in doc):
            return None
        return [list(doc[0]) if doc else []] + [[_json_cell(v) for v in r.values()] for r in doc]
    return None


def compare_verdicts(before: Path, after: Path) -> list[str]:
    """Differences between two verdict.json files, one line each: the verdict,
    each position where the (name, passed) sequences differ, each position
    where only the detail text differs, and each check name that repeats on
    either side."""
    v0, c0 = _checks(before)
    v1, c1 = _checks(after)
    diffs = [f"verdict {v0} -> {v1}"] if v0 != v1 else []
    for k, (a, b) in enumerate(zip_longest(c0, c1)):
        if a is None or b is None or a[:2] != b[:2]:
            diffs.append(f"check #{k}: {_check_text(a)} -> {_check_text(b)}")
        elif a[2] != b[2]:
            diffs.append(f"check #{k} {a[0]} detail: {a[2]!r} -> {b[2]!r}")
    for side, checks in (("before", c0), ("after", c1)):
        counts = Counter(name for name, *_ in checks)
        diffs += [f"check {n} repeated {c}x in {side}" for n, c in counts.items() if c > 1]
    return diffs


def _check_text(check: Check | None) -> str:
    return "absent" if check is None else f"{check[0]} {'passed' if check[1] else 'failed'}"


def _cell_diffs(col0: list, col1: list, parse: bool) -> tuple[int, float, int]:
    """How many cells of one column differ, the largest difference relative
    to the column's max magnitude in `col0`, and the row where that sits
    first (1 is the first data row).  Cells differ when their text or value
    does; one whose text differs but whose number is the same differs by 0,
    and a difference of text that is no number is infinite.  `parse` reads
    text cells as numbers where they parse, as a CSV's cells are read."""
    numbers = (_value(x, parse) for x in col0)
    scale = max((abs(x) for x in numbers if x is not None and math.isfinite(x)), default=0.0)
    count, worst, where = 0, 0.0, 0
    for i, (x, y) in enumerate(zip(col0, col1), start=1):
        if x == y or (x != x and y != y):
            continue
        vx, vy = _value(x, parse), _value(y, parse)
        if vx is None or vy is None:
            rel = math.inf
        elif vx == vy or (vx != vx and vy != vy):
            rel = 0.0
        elif not math.isfinite(vx - vy) or scale == 0:
            rel = math.inf
        else:
            rel = abs(vy - vx) / scale
        count += 1
        if rel > worst or count == 1:
            worst, where = rel, i
    return count, worst, where


Column = tuple[str, int, float, int, str]


def column_diffs(rows0: list[list], rows1: list[list], parse: bool) -> list[Column] | None:
    """Per column, matched by header name: those of `rows0` in order, then
    those only `rows1` has.  Each is its name, the `_cell_diffs` of its cells
    and the side it is only on ("before" or "after", "" for a shared column);
    a one-sided column differs in every row, infinitely, at its header;
    `parse` is passed to `_cell_diffs`.  None
    when the tables differ in row count or in the order of their shared
    columns, or a header repeats a name or is not as wide as its rows."""
    if len(rows0) != len(rows1):
        return None
    headers = [[str(h) for h in rows[0]] if rows else [] for rows in (rows0, rows1)]
    for rows, header in zip((rows0, rows1), headers):
        if len(set(header)) != len(header) or any(len(r) != len(header) for r in rows):
            return None
    header0, header1 = headers
    if [h for h in header0 if h in header1] != [h for h in header1 if h in header0]:
        return None
    n = max(len(rows0) - 1, 0)
    columns = []
    for j, name in enumerate(header0):
        if name not in header1:
            columns.append((name, n, math.inf, 0, "before"))
            continue
        k = header1.index(name)
        cells = _cell_diffs([r[j] for r in rows0[1:]], [r[k] for r in rows1[1:]], parse)
        columns.append((name, *cells, ""))
    columns += [(name, n, math.inf, 0, "after") for name in header1 if name not in header0]
    return columns


def worst_cell(columns: list[Column] | None) -> tuple[float, str]:
    """The largest relative difference over the `column_diffs` of a table,
    and where it sits.  A shape mismatch is infinite."""
    if columns is None:
        return math.inf, "table shape"
    moved = [
        (rel, f"column {name} only in {side}" if side else f"row {row} column {name}")
        for name, n, rel, row, side in columns
        if n or side
    ]
    return max(moved, key=lambda m: m[0], default=(0.0, "nowhere (cells equal, other text differs)"))


def _column_text(name: str, n: int, rel: float, row: int, side: str) -> str:
    if side:
        return f"column {name}: only in {side}"
    if not n:
        return f"column {name}: identical"
    if not rel:
        return f"column {name}: {n} cell(s) differ in text only, first at row {row}"
    return f"column {name}: {n} cell(s) differ, worst {rel:.3g} x column max at row {row}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    parser.add_argument("--bound", type=float, default=0.0,
                        help="largest allowed cell difference over its column max")
    args = parser.parse_args(argv)
    failed = False

    runs0, runs1 = _runs(args.before), _runs(args.after)
    for run in sorted(runs0 ^ runs1):
        print(f"MISSING run {run} in {'after' if run in runs0 else 'before'}")
        failed = True
    for run in sorted(runs0 & runs1):
        a, b = args.before / run, args.after / run
        diffs = compare_verdicts(a / "verdict.json", b / "verdict.json")
        m0, m1 = _manifest(a / "manifest.json"), _manifest(b / "manifest.json")
        for key in _MANIFEST_LISTS:
            if m0[key] != m1[key]:
                diffs.append(f"manifest {key} {m0[key]} -> {m1[key]}")
        print(f"{'DIFF' if diffs else 'same'} verdict {run}" + "".join(f"\n  {d}" for d in diffs))
        failed |= bool(diffs)

    files0, files1 = _files(args.before), _files(args.after)
    for name in sorted(files0 ^ files1):
        print(f"MISSING {name} in {'after' if name in files0 else 'before'}")
        failed = True
    for name in sorted(files0 & files1):
        a, b = args.before / name, args.after / name
        if a.read_bytes() == b.read_bytes():
            print(f"identical {name}")
            continue
        rows0, rows1 = _rows(a), _rows(b)
        if rows0 is None or rows1 is None:
            print(f"DIFF {name}: not byte-identical")
            failed = True
            continue
        columns = column_diffs(rows0, rows1, parse=name.suffix == ".csv")
        rel, where = worst_cell(columns)
        # at bound 0 the bytes are the contract: equal numbers in other text fail
        over = rel > args.bound or not args.bound > 0
        print(f"{'OVER' if over else 'within'} {name}: worst {rel:.3g} x column max at {where}")
        for column in columns or []:
            print(f"  {_column_text(*column)}")
        failed |= over
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
