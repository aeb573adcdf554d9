"""The text format of every table, as CSV and as JSON.

A ``Table`` is a grid of blocks of rows. Its column kinds are "rs" and
"pct", money and percentages rounded to cents for CSV, "num", 10
significant digits, and "int" and "str", passed through; None prints
empty. Every cell is a scalar: a string, number, bool or None. Both writers
check whole columns before anything is written, then yield the header and
one chunk of text per block, so a table's text is held one block at a time.

CSV money cells are rounded to cents half up on the value's shortest
``repr``: 2.675 prints as 2.68 and 1.005 as 1.01, where ``round()`` gives
2.67 and 1.0 from the binary values just below the ties. A zero prints as
0.00, never -0.00. JSON carries full precision, byte for byte as
``json.dumps(doc, indent=2)`` writes it.

The CSV kernel makes each cell a row of 4-byte units of UTF-8 padded with
0xFF, a byte no UTF-8 text holds, and a block one matrix of units that one
``translate(None, b"\\xff")`` makes text. A comma or newline goes into the
last byte of the cell before it when that byte is padding in every row,
else into a unit of its own. Text cells go through ``str`` once per table,
quoted as RFC 4180 asks, and a ``Coded`` column by its names alone. Float
cells take their digits from a 10,000-entry table of 4-digit groups, "num"
cells as "%.10g" and money cells as "%.2f", and a fraction group blank in
every row is left out. A "num" cell outside 1e-4 <= |x| < 1e10, or whose
value scaled by 10**k (0 <= k <= 13) lies within 1e-5 of a rounding tie,
is printed by "%.10g" itself: the scaling rounds once, by under 1e-6, so
the kernel's digits are exact. A money cell where the kernel could differ
from the cent rule is printed by ``_round2`` (see ``_round2_cells``).

The JSON writer fills a ``%`` template per block, with the keys repeated
into every row: "%r" for exact floats and np.float64 (``float.__repr__``),
"%d" for exact ints, and otherwise ``json.dumps`` of each cell.
"""

from __future__ import annotations

import functools
import json
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal, InvalidOperation
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii

import numpy as np

PAD = np.uint32(0xFFFFFFFF)
_COMMA, _NEWLINE, _MINUS, _POINT = np.frombuffer(b",\xff\xff\xff\n\xff\xff\xff-\xff\xff\xff.\xff\xff\xff", np.uint32)
_LAST = np.frombuffer(b"\0\0\0\xff", np.uint32)[0]  # a unit's last byte, in either byte order
_SPECIAL = (",", '"', "\n", "\r")
_FULL, _LEAD, _LEAD1, _TRAIL, _CENTS = range(0, 50_000, 10_000)  # tables in _digits()
_POW10 = 10 ** np.arange(17)  # exact as floats too


@dataclass(frozen=True, eq=False)
class Coded(Sequence):
    """A dictionary-coded column: entry j is ``names[codes[j]]``."""

    names: tuple
    codes: np.ndarray

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, j):
        return self.names[self.codes[j]]


@dataclass(frozen=True)
class Table:
    """A grid of blocks of rows, written out block after block.

    The first ``row_keys`` columns hold one value per row of a block, the
    same in every block, and the next ``block_keys`` columns one value per
    block; each other column holds one value per row of the whole table.
    A flat table is one block without keys.
    """

    name: str
    columns: tuple[tuple[str, str, Sequence], ...]  # (key, kind, values or Coded)
    row_keys: int = 0
    block_keys: int = 0


def _shape(table: Table) -> tuple[int, int]:
    """The number of blocks and of rows per block; raises ValueError when a
    column's length does not fit them."""
    r, b = table.row_keys, table.row_keys + table.block_keys
    lengths = [len(values) for _, _, values in table.columns]
    blocks = lengths[r] if b > r else 1
    if r:
        rows = lengths[0]
    else:
        rows = lengths[b] // blocks if len(lengths) > b and blocks else 0
    if lengths != [rows] * r + [blocks] * (b - r) + [rows * blocks] * (len(lengths) - b):
        raise ValueError(f"table {table.name}: columns of unequal length")
    return blocks, rows


_CENT = Decimal("0.01")
# A cell goes through the Decimal rule when its value in cents lies within
# _TIE_TOL of a half-cent tie, is negative but rounds to 0, or reaches _EXACT_LIMIT.
_TIE_TOL = 1e-3
_EXACT_LIMIT = 1e9


def _round2(value: float) -> str:
    """The CSV rounding rule: the shortest repr, to cents, half away from zero."""
    cell = Decimal(repr(float(value))).quantize(_CENT, ROUND_HALF_UP)
    if cell == 0:
        cell = abs(cell)  # avoid "-0.00" from tiny negatives
    return str(cell)


def _round2_cells(x: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """The rows of ``x`` that the cent kernel may print otherwise than
    ``_round2``, and their cells as ``_round2`` prints them.

    The kernel rounds the binary value of v, as ``"%.2f"`` does, while
    _round2 rounds its shortest repr r, and |v - r| is at most half an ulp
    of v. The two can only differ when a half-cent tie lies between v and
    r, or on a negative cell that rounds to zero, where the kernel prints
    "-0.00". Below _EXACT_LIMIT both that gap and the rounding error of
    ``x * 100`` are under 2**-16 cents, far inside _TIE_TOL, so every cell
    where they could differ is flagged, along with the very large values.
    """
    large = np.abs(x) >= _EXACT_LIMIT
    cents = np.where(large, 0.0, x) * 100.0  # no overflow near the float limit
    risky = (
        (np.abs(cents - np.floor(cents) - 0.5) <= _TIE_TOL)
        | ((cents < 0) & (cents > -0.5 - _TIE_TOL))
        | large
    )
    rows = np.flatnonzero(risky)
    return rows, list(map(_round2, x[rows].tolist()))


def _finite(table: Table, key: str, values: Sequence) -> np.ndarray:
    x = np.asarray(values, dtype=float)
    if not np.isfinite(x).all():
        bad = x[~np.isfinite(x)][0]
        raise ValueError(f"table {table.name}, column {key}: non-finite value {bad}")
    return x


def _rows(fmt: str, cells: Sequence, lo: int, hi: int) -> Sequence:
    """Rows lo to hi of a checked column, as its ``%`` placeholder takes
    them: the cells of a float array as Python floats."""
    part = cells[lo:hi]
    return part.tolist() if fmt != "%s" and isinstance(part, np.ndarray) else part


def _interleave(columns: list[Sequence]) -> tuple:
    """The cells of equal-length columns in row order, one row after another."""
    width = len(columns)
    args = [None] * (len(columns[0]) * width if columns else 0)
    for j, cells in enumerate(columns):
        args[j::width] = cells
    return tuple(args)


@functools.cache
def _digits() -> np.ndarray:
    """Five tables of 10,000 units: g's 4 digits, then with leading zeros blank
    (0 all blank, then "0"), with trailing zeros blank; "." and its last 2."""
    g = np.arange(10_000)[:, None]
    place = 10 ** np.arange(3, -1, -1)
    digits = g // place % 10 + ord("0")
    lead, trail = g < place, g % (10 * place) == 0
    cents = np.concatenate([np.full_like(g, ord(".")), digits[:, 2:], np.full_like(g, 0xFF)], 1)
    out = np.concatenate([digits, np.where(lead, 0xFF, digits), np.where(lead & (place > 1), 0xFF, digits),
                          np.where(trail, 0xFF, digits), cents]).astype(np.uint8).view(np.uint32).ravel()
    out.flags.writeable = False  # shared by every caller
    return out


def quoted(texts: list[str]) -> list[str]:
    """Texts as CSV cells (RFC 4180): a text holding a comma, a quote, a CR
    or an LF in quotes, with each quote doubled, and the others as they are."""
    joined = "".join(texts)
    if not any(c in joined for c in _SPECIAL):
        return texts
    return ['"' + t.replace('"', '""') + '"' if any(c in t for c in _SPECIAL) else t
            for t in texts]


def text_units(texts: list[str]) -> np.ndarray:
    """Each text as a row of units: its UTF-8, padded to the longest text."""
    joined = "".join(texts)
    if joined.isascii():
        data, sizes = joined.encode("ascii"), map(len, texts)
    else:
        raw = [t.encode("utf-8", "surrogatepass") for t in texts]
        data, sizes = b"".join(raw), map(len, raw)
    size = np.fromiter(sizes, np.intp, len(texts))
    width = -(-int(size.max(initial=0)) // 4) * 4
    out = np.full((len(texts), width), 0xFF, np.uint8)
    out[np.arange(width) < size[:, None]] = np.frombuffer(data, np.uint8)
    return out.view(np.uint32)


def _groups(n: np.ndarray, count: int) -> list[np.ndarray]:
    """The ``count`` lowest 4-digit groups of the integers n, low to high."""
    out = []
    for _ in range(count):
        high = n // 10_000  # numpy divides by a scalar fast, but ``%`` is slow
        out.append(n - 10_000 * high)
        n = high
    return out


def _cells(whole: np.ndarray, fraction: list, negative: np.ndarray, rows, texts) -> np.ndarray:
    """Cells of a sign, the integer part ``whole`` with leading zeros blank
    and the fraction's units, but the given rows hold the given texts."""
    parts = []
    for j, g in enumerate(_groups(whole, -(-len(str(whole.max(initial=0))) // 4))):
        table = np.where(whole >= 10_000 ** (j + 1), _FULL, _LEAD if j else _LEAD1)
        parts.insert(0, np.take(_digits(), table + g))
    negative[rows] = False
    if negative.any():
        parts.insert(0, np.where(negative, _MINUS, PAD))
    text = text_units(texts) if texts else np.empty((0, 0), np.uint32)
    units = np.full((len(whole), max(len(parts) + len(fraction), text.shape[1])), PAD)
    for c, part in enumerate(parts + fraction):
        units[:, c] = part
    units[rows] = PAD
    units[rows, : text.shape[1]] = text
    return units


def num_units(x: np.ndarray) -> np.ndarray:
    """Finite floats as ``"%.10g"`` prints them, from |x|·10**k rounded to
    10 digits, or by ``"%.10g"`` itself where that is not exact.
    A fraction group blank in every row is left out, and so is the point
    when every group is."""
    a = np.abs(x)
    fits = (a >= 1e-4) & (a < 1e10)
    a = np.where(fits, a, 1.0)
    k = np.clip(9 - np.floor(np.log10(a)).astype(np.int64), 0, 13)
    y = a * _POW10[k]
    m = np.rint(y).astype(np.int64)
    m, k = np.where(m >= 10**10, m // 10, m), k - (m >= 10**10)  # rounded up to 11 digits
    # out of range, near a tie, or, where log10 misjudged, not of 10 digits
    other = ~fits | (np.abs(y - np.floor(y) - 0.5) <= 1e-5) | (k < 0)
    other |= (y < 1e9) | (y >= 1e10)
    k, m = np.where(other, 0, k), np.where(other, 0, m)
    # the fraction: a point, then groups with trailing zeros blank unless a lower one is not
    width, scale = -(-int(k.max(initial=0)) // 4), _POW10[k]
    whole = m // scale
    f = (m - whole * scale) * _POW10[4 * width - k]
    fraction, rest = [], np.zeros(len(f), bool)
    for g in _groups(f, width):
        if rest.any() or g.any():  # else the group is blank in every row
            fraction.insert(0, np.take(_digits(), np.where(rest, _FULL, _TRAIL) + g))
            rest |= g != 0
    if fraction:
        fraction.insert(0, np.where(f > 0, _POINT, PAD))
    rows = np.flatnonzero(other)
    return _cells(whole, fraction, x < 0, rows, ["%.10g" % v for v in x[rows].tolist()])


def cent_units(x: np.ndarray, lo: int, rows: np.ndarray, texts: list[str]) -> np.ndarray:
    """Rows lo on of a float column as ``"%.2f"`` prints them, from their count
    of cents, but the column's given rows (all from 1e9 up) hold the given texts."""
    i, j = np.searchsorted(rows, (lo, lo + len(x))).tolist()
    rows, texts = rows[i:j] - lo, texts[i:j]
    cents = x * 100.0
    cents[rows] = 0.0
    n = np.abs(np.rint(cents)).astype(np.int64)
    whole = n // 100
    return _cells(whole, [np.take(_digits(), _CENTS + n - 100 * whole)], x < 0, rows, texts)


def lines(cells: list[np.ndarray]) -> str:
    """Rows of text from the units of their cells: the cells of a row
    joined by commas, and each row ended by a newline. A separator goes
    into the last byte of the cell before it when that byte is padding in
    every row, and into a unit of its own otherwise."""
    rows, ends = len(cells[0]), [_COMMA] * (len(cells) - 1) + [_NEWLINE]
    parts, spare, width = [], [], 0  # spare: (byte of a row, separator written there)
    for cell, end in zip(cells, ends):
        parts.append(cell)
        width += cell.shape[1]
        if cell.shape[1] and ((cell[:, -1] & _LAST) == _LAST).all():
            spare.append((4 * width - 1, end.tobytes()[0]))
        else:
            parts.append(np.broadcast_to(end, (rows, 1)))
            width += 1
    text = bytearray(4 * rows * width)  # filled in place
    np.concatenate(parts, axis=1, out=np.frombuffer(text, np.uint32).reshape(rows, width))
    data = np.frombuffer(text, np.uint8).reshape(rows, 4 * width)
    for at, byte in spare:
        data[:, at] = byte
    return text.translate(None, b"\xff").decode("utf-8", "surrogatepass")


def _csv_column(
    table: Table, key: str, kind: str, values: Sequence
) -> Callable[[int, int], np.ndarray]:
    """A checked column as the text units of its rows lo to hi: text cells
    and a column holding None ("" for None) made once, a ``Coded`` column's
    names once, float cells by the kernel when their rows are asked for."""
    if isinstance(values, Coded):
        units = _csv_column(table, key, kind, values.names)(0, len(values.names))[values.codes]
        return lambda lo, hi: units[lo:hi]
    if kind in ("int", "str"):
        try:  # quoted raises TypeError at a cell that is not a str
            units = text_units(quoted(values))
            return lambda lo, hi: units[lo:hi]
        except TypeError:
            pass
    if not isinstance(values, np.ndarray) and None in values:
        present = [k for k, v in enumerate(values) if v is not None]
        cells = _csv_column(table, key, kind, [values[k] for k in present])(0, len(present))
        units = np.full((len(values), cells.shape[1]), PAD)
        units[present] = cells
        return lambda lo, hi: units[lo:hi]
    if kind in ("int", "str"):
        units = text_units(quoted(list(map(str, values))))
        return lambda lo, hi: units[lo:hi]
    x = _finite(table, key, values)
    if kind == "num":
        return lambda lo, hi: num_units(x[lo:hi])
    try:
        rows, texts = _round2_cells(x)
    except InvalidOperation:
        raise ValueError(
            f"table {table.name}, column {key}: value too large to round to cents"
        ) from None
    return lambda lo, hi: cent_units(x[lo:hi], lo, rows, texts)


def _table_csv(table: Table) -> Iterator[str]:
    """The table as CSV: its header, then one chunk of text per block.

    Every cell is checked before this returns, so a table that cannot be
    written fails before its first chunk is made. Keys are made text units
    once; a block's units are its row keys, its block keys repeated down
    the block and its rows of the other cells.
    """
    blocks, rows = _shape(table)
    header = ",".join(quoted([key for key, _, _ in table.columns])) + "\n"
    if not blocks * rows:
        return iter([header])  # keys that key no row are neither printed nor checked
    r, b = table.row_keys, table.row_keys + table.block_keys
    columns = [_csv_column(table, *column) for column in table.columns]
    row_keys = [cells(0, rows) for cells in columns[:r]]
    block_keys = [cells(0, blocks) for cells in columns[r:b]]

    def chunk(block: int) -> str:
        return lines([
            *row_keys,
            *(np.broadcast_to(units[block], (rows, units.shape[1])) for units in block_keys),
            *(cells(block * rows, (block + 1) * rows) for cells in columns[b:]),
        ])

    return chain([header], map(chunk, range(blocks)))


def _json_column(table: Table, key: str, kind: str, values: Sequence) -> tuple[str, Sequence]:
    """A column as its ``%`` placeholder and its cells, written as
    ``json.dumps`` writes them: cells of exact type float or np.float64
    through "%r" on their float value, which is ``float.__repr__``, exact
    ints through "%d", which is ``int.__repr__``, strings encoded by json's
    own function, and a column of mixed cells through ``json.dumps`` cell by
    cell; every cell is a scalar. A ``Coded`` column's names are written once."""
    if isinstance(values, Coded):
        fmt, names = _json_column(table, key, kind, values.names)
        return fmt, list(map(names.__getitem__, values.codes.tolist()))
    if isinstance(values, np.ndarray):
        return "%r", _finite(table, key, values)
    checked = kind not in ("int", "str")
    if checked:
        _finite(table, key, [v for v in values if v is not None])
    types = set(map(type, values))
    if checked and types <= {float, np.float64}:
        return "%r", list(map(float, values))
    if types == {int}:
        return "%d", values
    if types <= {str}:
        return "%s", list(map(encode_basestring_ascii, values))
    return "%s", list(map(json.dumps, values))


def _table_json(table: Table) -> Iterator[str]:
    """The table as ``json.dumps({"table": ..., "rows": [...]}, indent=2)``
    writes it: its head, then one chunk of text per block, each filled by
    one ``%`` over the template of a block's rows, with every key repeated
    into the rows it belongs to. Every cell is checked before this returns.
    """
    blocks, rows = _shape(table)
    head = '{\n  "table": ' + encode_basestring_ascii(table.name) + ',\n  "rows": ['
    if not blocks * rows:
        return iter([head + "]\n}\n"])  # keys that key no row are not checked
    r, b = table.row_keys, table.row_keys + table.block_keys
    columns = [_json_column(table, *column) for column in table.columns]
    fields = ",".join(
        "\n      " + encode_basestring_ascii(key).replace("%", "%%") + ": " + fmt
        for (key, _, _), (fmt, _) in zip(table.columns, columns)
    )
    template = ",".join(repeat("\n    {" + fields + "\n    }", rows))
    row_keys = [_rows(fmt, cells, 0, rows) for fmt, cells in columns[:r]]
    block_keys = [_rows(fmt, cells, 0, blocks) for fmt, cells in columns[r:b]]

    def chunk(block: int) -> str:
        lo = block * rows
        args = _interleave([
            *row_keys,
            *([cells[block]] * rows for cells in block_keys),
            *(_rows(fmt, cells, lo, lo + rows) for fmt, cells in columns[b:]),
        ])
        end = "\n  ]\n}\n" if block == blocks - 1 else ""
        return (("," if block else "") + template + end) % args

    return chain([head], map(chunk, range(blocks)))

