"""Result tables and the one writer of their CSV and JSON files.

Experiments return `Table`s; only this module decides how one looks on disk.
The CSV form is an optional ``# provenance`` line, the header, then one line
per row: floats printed with '%.17g' (the text round trip is exact), integers
as integers, and text as is, quoted as in RFC 4180 when it holds a comma, a
double quote, CR or LF.  The JSON mirror is a list of row objects built from
the same rows, with numbers as float and text kept as text.

A float array is rendered in bulk, a block of rows at a time, to exactly the
bytes '%.17g' gives each cell.  The fast path takes finite cells with
1e-280 <= |x| <= 1e280.  It guesses the decimal exponent k by log10, forms
y = |x| * 10**(16 - k) from a double-double power of ten (a table of them,
made from Python integers on the first write) and Dekker's error-free
product, and rounds y to the 17-digit significand N.  Its digits come four at
a time from a table of 0..9999 and are laid out in a zero-padded row of bytes
per cell, in exponent form for k < -4 or k > 16 and in fixed form for
0 <= k <= 16, as '%g' chooses; the fraction's trailing zeros and a point
with no fraction after it stay zero bytes, and one compaction per block drops
every zero byte.

Every other cell is formatted by '%-24.17g' itself, one %-operation per block,
its padding dropped the same way: +-0, inf, nan, subnormal and extreme
magnitudes, -4 <= k < 0, a k that log10 guessed wrong, a power of ten, and
every y within 1e-6 of a rounding half (the guard band).  The computed y is
within a few 1e-15 of the exact product, so outside the band it rounds as
'%.17g' does, and '%.17g' stays the definition; without the band, doubles
such as 5.9740001618840614e+69, whose y lies within 1e-16 of a half, would
round the wrong way.  The band also takes the exact ties that doubles have at
17 digits, such as 2**-25 = 2.98023223876953125e-08, which '%g' rounds to
even.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

__all__ = ["Table", "write_csv", "write_json"]

# Rows rendered per write: bounds the working set of a long table.
_WRITE_BLOCK = 1 << 11

# A rendered cell is six 8-byte words, zero bytes being gaps: five pad bytes,
# the sign, the first digit and a slot for the point; four words of four
# digits, each digit followed by a slot for the point; then 'e', the
# exponent's sign and three digits, and the separator in byte _SEP.
_WORDS = 6
_SEP = 45
_FAST = (1e-280, 1e280)
_K = 290  # the exponents k the fast path meets, with a margin: -_K..._K
_GUARD = 1e-6  # the smallest distance from a rounding half the fast path takes
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitter


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


def _words(text: np.ndarray) -> np.ndarray:
    """Each row of eight bytes as one uint64."""
    return np.ascontiguousarray(text, np.uint8).view(np.uint64)[..., 0]


@functools.cache
def _lookup() -> dict[str, np.ndarray]:
    """The render tables, built on the first write.

    ``groups`` and ``zeros``: for 0..9999 its word of four digits and its
    trailing zero count (4 for 0).
    ``leads``: the word of a first digit d, at d + 10 when negative.
    ``exponents``: the word of exponent k at k + _K, and a blank last word.
    ``powers_hi`` and ``powers_lo``: 10**(16 - k) at k + _K as a double-double,
    each part correctly rounded.
    ``keeps`` and ``points``: for each word and each pair (last kept digit,
    digit before the point) at 17 * last + point, the mask of its kept digits
    and the point it holds, if any.
    """
    n = np.arange(10_000)
    groups = np.zeros((n.size, 8), np.uint8)
    groups[:, ::2] = n[:, None] // np.array([1000, 100, 10, 1]) % 10 + 48
    zeros = sum((n % place == 0).astype(np.uint8) for place in (10, 100, 1000, 10_000))
    leads = np.zeros((20, 8), np.uint8)
    leads[:, 6] = np.arange(20) % 10 + 48
    leads[10:, 5] = ord("-")
    k = np.arange(-_K, _K + 1)
    exponents = np.zeros((k.size + 1, 8), np.uint8)
    exponents[:-1, 0] = ord("e")
    exponents[:-1, 1] = np.where(k < 0, ord("-"), ord("+"))
    exponents[:-1, 2:5] = np.abs(k)[:, None] // np.array([100, 10, 1]) % 10 + 48
    exponents[:-1, 2] *= np.abs(k) >= 100
    powers_hi, powers_lo = np.zeros((2, k.size))
    for j, p in enumerate((16 - k).tolist()):
        num, den = (10**p, 1) if p >= 0 else (1, 10**-p)
        powers_hi[j] = num / den
        m, e = float(powers_hi[j]).as_integer_ratio()
        powers_lo[j] = (num * e - m * den) / (den * e)
    # byte b of word w holds digit i = 4w + b // 2 - 3 (even b >= 6 of word 0 and
    # every even b of the others) or the slot after it (odd b)
    i = 4 * np.arange(_WORDS - 1)[:, None] + np.arange(8) // 2 - 3
    digit = (np.arange(8) % 2 == 0) & (i >= 0)
    last, point = np.divmod(np.arange(17 * 17), 17)
    keep = digit & (i <= np.maximum(last, point)[:, None, None])
    dot = ~digit & (i == point[:, None, None]) & (i >= 0) & (last > point)[:, None, None]
    return {
        "groups": _words(groups),
        "zeros": zeros,
        "leads": _words(leads),
        "exponents": _words(exponents),
        "powers_hi": powers_hi,
        "powers_lo": powers_lo,
        "keeps": _words(keep * np.uint8(255)).T.copy(),
        "points": _words(dot * np.uint8(46)).T.copy(),
    }


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split of `a` into two halves of 26 bits."""
    c = _SPLIT * a
    high = c - (c - a)
    return high, a - high


def _render(x: np.ndarray, words: np.ndarray) -> None:
    """Lay out the '%.17g' text of each cell of 1-D `x` in its row of the
    (x.size, _WORDS) uint64 `words`; the separator byte is left zero."""
    t = _lookup()
    a = np.abs(x)
    fast = (a >= _FAST[0]) & (a <= _FAST[1])
    a[~fast] = 1.0
    k = np.floor(np.log10(a)).astype(np.int64)
    hi, lo = t["powers_hi"][k + _K], t["powers_lo"][k + _K]
    # y = a * 10**(16 - k) = ph + err + a*lo, with ph + err = a*hi exactly
    ph = a * hi
    (ah, al), (bh, bl) = _split(a), _split(hi)
    err = ((ah * bh - ph) + ah * bl + al * bh) + al * bl
    whole = np.rint(ph)
    s = (ph - whole) + (err + a * lo)
    r = np.rint(s)
    frac = s - r
    sig = whole.astype(np.int64) + r.astype(np.int64)
    # N outside (1e16, 1e17): log10 guessed k wrong, or |x| rounds to a power of ten
    fast &= (np.abs(np.abs(frac) - 0.5) > _GUARD) & (sig > 10**16) & (sig < 10**17)
    fixed = (k >= 0) & (k <= 16)
    exp = (k < -4) | (k > 16)
    fast &= fixed | exp
    # a cell left to '%g' gets a significand whose lookups stay in their tables
    sig = np.where(fast, sig, 10**16)

    # the first digit, then the other sixteen four at a time; the last nonzero one
    high, low = np.divmod(sig, 10**8)
    lead, high = np.divmod(high.astype(np.uint32), 10**8)
    low = low.astype(np.uint32)
    parts = [high // 10**4, high % 10**4, low // 10**4, low % 10**4]
    trailing = t["zeros"][parts[3]]
    for j in (2, 1, 0):
        trailing += (trailing == 4 * (3 - j)) * t["zeros"][parts[j]]
    last = 16 - trailing.astype(np.intp)
    # exponent form puts the point after the first digit
    point = np.where(fixed, k, 0)
    layout = 17 * np.maximum(last, point) + point

    keeps, points = t["keeps"], t["points"]
    words[:, 0] = t["leads"][lead + 10 * (x < 0)] | points[0][layout]
    for j, part in enumerate(parts, start=1):
        words[:, j] = t["groups"][part] & keeps[j][layout] | points[j][layout]
    words[:, 5] = t["exponents"][np.where(exp, k + _K, 2 * _K + 1)]

    slow = np.flatnonzero(~fast)
    if slow.size:
        text = ("%-24.17g" * slow.size) % tuple(x[slow].tolist())
        padded = np.frombuffer(text.encode("ascii"), np.uint8).reshape(slow.size, 24)
        words[slow] = 0
        words.view(np.uint8)[slow, :24] = np.where(padded == 32, np.uint8(0), padded)


def _write_rows(f, rows: np.ndarray) -> None:
    """Write a 2-D float table as comma-separated '%.17g' rows.

    The bytes equal ``np.savetxt(f, rows, fmt="%.17g", delimiter=",")``; each
    block of rows is rendered by `_render` and written as it is done.
    """
    rows = np.asarray(rows, dtype=float)
    buffer = np.empty((min(rows.shape[0], _WRITE_BLOCK) * rows.shape[1], _WORDS), np.uint64)
    for start in range(0, rows.shape[0], _WRITE_BLOCK):
        block = rows[start : start + _WRITE_BLOCK]
        words = buffer[: block.size]
        _render(block.ravel(), words)
        cells = words.view(np.uint8)
        cells[:, _SEP] = ord(",")
        cells[block.shape[1] - 1 :: block.shape[1], _SEP] = ord("\n")
        text = cells.ravel()
        f.write(np.compress(text != 0, text).tobytes().decode("ascii"))


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
