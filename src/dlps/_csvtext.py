"""The CSV writer's text kernel (see ``cli``): each cell is a row of 4-byte
units of UTF-8 padded with 0xFF, a byte no UTF-8 text holds, and a block of
rows is one matrix of units that one ``translate(None, b"\\xff")`` makes
text. Each comma or newline goes into the last byte of the cell before it
when that byte is padding in every row, else into a unit of its own. Float
cells take their digits from tables of 4-digit groups, and a group of the
fraction that is blank in every row is left out."""

from __future__ import annotations

import functools

import numpy as np

PAD = np.uint32(0xFFFFFFFF)
_COMMA, _NEWLINE, _MINUS, _POINT = np.frombuffer(b",\xff\xff\xff\n\xff\xff\xff-\xff\xff\xff.\xff\xff\xff", np.uint32)
_LAST = np.frombuffer(b"\0\0\0\xff", np.uint32)[0]  # a unit's last byte, in either byte order
_SPECIAL = (",", '"', "\n", "\r")
_FULL, _LEAD, _LEAD1, _TRAIL, _CENTS = range(0, 50_000, 10_000)  # tables in _digits()
_POW10 = 10 ** np.arange(17)  # exact as floats too


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
    text = text_units(texts)
    units = np.full((len(whole), max(len(parts) + len(fraction), text.shape[1])), PAD)
    for c, part in enumerate(parts + fraction):
        units[:, c] = part
    units[rows] = PAD
    units[rows, : text.shape[1]] = text
    return units


def num_units(x: np.ndarray) -> np.ndarray:
    """Finite floats as ``"%.10g"`` prints them, from |x|·10**k rounded to
    10 digits, or by ``"%.10g"`` itself where that is not exact (see ``cli``).
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
