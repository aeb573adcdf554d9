"""Input parsing, canonical serialization, and the bundled benchmark.

Tabular inputs are CSV with fixed headers; configuration and scenarios are
JSON. Parse errors always name the source, line, and field so a bad file
in a batch run can be fixed without guesswork.

The bundled benchmark is a 177-customer feeder (106 residential, 48
commercial, 23 industrial) with a 24-state day profile. Its market price
and load factor at state 22 are the reference operating point the built-in
checks are anchored to; the other 23 states are synthetic placeholders
shaped like a typical exchange day, present so day-level mechanics
(off-peak pricing, tariff comparison) have a full day to work on. The
profile's source label says as much.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

from .domain import (
    STATES_PER_DAY,
    Category,
    CategoryConfig,
    Customer,
    CustomerTable,
    Dataset,
    DayProfile,
    SystemState,
    Violation,
    validate_dataset,
)

__all__ = [
    "ParseError",
    "StateRow",
    "RunConfig",
    "CUSTOMERS_HEADER",
    "MCP_HEADER",
    "parse_customers",
    "parse_mcp",
    "parse_config",
    "default_config",
    "assemble_profile",
    "assemble_dataset",
    "bundled_benchmark",
    "customers_to_csv",
    "profile_to_csv",
    "config_to_json",
]

CUSTOMERS_HEADER = ("id", "category", "base_demand_kw")
MCP_HEADER = ("state", "mcp_rs_per_kwh", "load_factor")

DEFAULT_PROFIT_FACTORS = {
    Category.RESIDENTIAL: 0.03,
    Category.COMMERCIAL: 0.02,
    Category.INDUSTRIAL: 0.01,
}
DEFAULT_PEAK_STATES = frozenset(range(18, 24))


class ParseError(ValueError):
    """Input rejected; carries source name, line number, and field name."""

    def __init__(
        self,
        message: str,
        *,
        source: str = "<string>",
        line: int | None = None,
        field: str | None = None,
    ) -> None:
        self.source = source
        self.line = line
        self.field = field
        where = source if line is None else f"{source}:{line}"
        prefix = f"{where}: " if where else ""
        middle = f"field {field!r}: " if field else ""
        super().__init__(f"{prefix}{middle}{message}")


@dataclass(frozen=True)
class StateRow:
    """One parsed day-profile row, before the peak window is known."""

    index: int
    mcp: float
    load_factor: float


@dataclass(frozen=True)
class RunConfig:
    """Category profit factors plus the peak window definition."""

    categories: tuple[CategoryConfig, ...]
    peak_states: frozenset[int]


def _rows(text: str, header: tuple[str, ...], source: str) -> Iterator[tuple[int, list[str]]]:
    """(line, cells) for each non-blank row after the header of a CSV text,
    once the header is checked: the line the row ends on, as csv.reader
    counts lines, and the row's stripped cells.

    A row the csv module cannot read, such as one with a cell longer than
    ``csv.field_size_limit()``, raises a ParseError at the line it reached.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        first = next(reader, None)
        if first is None:
            raise ParseError(
                f"missing header; expected {','.join(header)}", source=source, line=1
            )
        if tuple(cell.strip() for cell in first) != header:
            raise ParseError(
                f"bad header {','.join(first)!r}; expected {','.join(header)}",
                source=source,
                line=1,
            )
        for row in reader:
            cells = [cell.strip() for cell in row]
            if any(cells):
                yield reader.line_num, cells
    except csv.Error as exc:
        raise ParseError(f"unreadable CSV: {exc}", source=source, line=reader.line_num) from None


# the split path reads a block of this many characters at a time, ending at
# a newline, so the cells of one block are alive at once, not the table's
_BLOCK_CHARS = 1 << 14


def _split_table(text: str) -> CustomerTable | None:
    """The table of a text read as plain lines of three cells, split on
    newlines and commas a block at a time, with each block's columns checked
    as arrays. None, for csv.reader to read, when the text holds a quote, a
    carriage return or a NUL, when the header differs, when a line is blank,
    has other than three cells or a cell too long for csv.reader, or when a
    check fails."""
    # csv.reader before Python 3.11 rejects a NUL
    if '"' in text or "\r" in text or "\0" in text:
        return None
    start = text.find("\n") + 1  # where the body starts; 0 leaves no header
    if tuple(map(str.strip, text[:start].split(","))) != CUSTOMERS_HEADER:
        return None
    limit = csv.field_size_limit()
    ids: list[str] = []
    seen: set[str] = set()
    codes: list[int] = []
    bases: list[np.ndarray] = []
    while start < len(text):
        end = text.find("\n", start + _BLOCK_CHARS) + 1 or len(text)
        block = text[start:end]
        start = end
        if not block.endswith("\n"):
            block += "\n"  # the last line of a text without a final newline
        # in UTF-8 no byte of another character is a comma or a newline, and
        # a cell has no fewer bytes than characters
        raw = np.frombuffer(block.encode("utf-8", "surrogatepass"), dtype=np.uint8)
        at = np.flatnonzero((raw == ord(",")) | (raw == ord("\n")))
        if raw[at].tobytes() != b",,\n" * (at.size // 3):
            return None
        if np.diff(at, prepend=-1).max() > limit + 1:
            return None
        cells = block.replace("\n", ",").split(",")
        cells.pop()  # after the last newline
        block_ids = list(map(str.strip, cells[0::3]))
        seen.update(block_ids)
        categories = cells[1::3]
        spellings = list(set(categories))
        code_of = dict(zip(spellings, Category.parse_codes(map(str.strip, spellings))))
        try:
            base = np.array(cells[2::3], dtype=float)
        except ValueError:
            return None
        if (
            "" in block_ids
            or len(seen) < len(ids) + len(block_ids)
            or None in code_of.values()
            or not (np.isfinite(base) & (base > 0)).all()
        ):
            return None
        ids += block_ids
        codes += map(code_of.__getitem__, categories)
        bases.append(base)
    return CustomerTable(
        ids=tuple(ids),
        codes=np.array(codes, dtype=np.int8),
        base=np.concatenate(bases) if bases else np.empty(0),
    )


def _customer_table(text: str, source: str = "<string>") -> CustomerTable:
    """Parse the customers table into columns; the parser behind
    ``parse_customers`` and every dataset read from CSV.

    ``_split_table`` reads most files. A text it gives way on is read again
    from the start, row by row, by the loop below, the only parser that
    writes errors, so a bad text raises the same error on either path. Each
    row is checked in turn for its field count, an empty id, a duplicate
    id, its category, a number, then a base demand that is not positive or
    not finite.
    """
    table = _split_table(text)
    if table is not None:
        return table
    width = len(CUSTOMERS_HEADER)
    ids: list[str] = []
    seen: set[str] = set()
    codes: list[int] = []
    bases: list[float] = []

    def fail(message: str, field: str | None = None) -> ParseError:
        return ParseError(message, source=source, line=line, field=field)

    for line, row in _rows(text, CUSTOMERS_HEADER, source):
        if len(row) != width:
            raise fail(f"expected {width} fields, got {len(row)}")
        cid, category, demand_text = row
        if not cid:
            raise fail("empty customer id", "id")
        if cid in seen:
            raise fail(f"duplicate customer id {cid!r}", "id")
        seen.add(cid)
        (code,) = Category.parse_codes([category])
        if code is None:
            raise fail(f"unknown category {category!r}", "category")
        try:
            demand = float(demand_text)
        except ValueError:
            raise fail(f"not a number: {demand_text!r}", "base_demand_kw") from None
        if demand <= 0 or not math.isfinite(demand):
            rule = "> 0" if demand <= 0 else "finite"
            raise fail(f"base demand must be {rule}, got {demand}", "base_demand_kw")
        ids.append(cid)
        codes.append(code)
        bases.append(demand)
    return CustomerTable(
        ids=tuple(ids), codes=np.array(codes, dtype=np.int8), base=np.array(bases, dtype=float)
    )


def parse_customers(text: str, source: str = "<string>") -> list[Customer]:
    """Parse the customers table; empty body gives an empty list."""
    return list(_customer_table(text, source).to_customers())


def parse_mcp(text: str, source: str = "<string>") -> list[StateRow]:
    """Parse the 24-state day profile table, returned in state order."""

    def fail(message: str, field: str | None = None) -> ParseError:
        return ParseError(message, source=source, line=line, field=field)

    rows: dict[int, StateRow] = {}
    for line, row in _rows(text, MCP_HEADER, source):
        if len(row) != len(MCP_HEADER):
            raise fail(f"expected {len(MCP_HEADER)} fields, got {len(row)}")
        state_text, mcp_text, lf_text = row
        try:
            index = int(state_text)
        except ValueError:
            raise fail(f"not an integer: {state_text!r}", "state") from None
        if not 1 <= index <= STATES_PER_DAY:
            raise fail(f"state index must be in 1..{STATES_PER_DAY}, got {index}", "state")
        if index in rows:
            raise fail(f"duplicate state {index}", "state")
        values = []
        for cell, field, name in (
            (mcp_text, "mcp_rs_per_kwh", "mcp"),
            (lf_text, "load_factor", "load factor"),
        ):
            try:
                value = float(cell)
            except ValueError:
                raise fail(f"not a number: {cell!r}", field) from None
            if value <= 0:
                raise fail(f"{name} must be > 0, got {value}", field)
            if not math.isfinite(value):
                raise fail(f"{name} must be finite, got {value}", field)
            values.append(value)
        rows[index] = StateRow(index, *values)
    if len(rows) != STATES_PER_DAY:
        raise ParseError(
            f"expected {STATES_PER_DAY} states, found {len(rows)}", source=source
        )
    return [rows[i] for i in range(1, STATES_PER_DAY + 1)]


class _RepeatedKey(tuple):
    """What json.loads builds, under ``_unique_keys``, for an object that
    repeats a key or holds such an object: the keys (and list indices) that
    lead from it to the repeated one, the last item."""


def _repeat_in(value) -> tuple | None:
    """The path to the first key repeated in a value json.loads built with
    ``_unique_keys``; None when no key repeats."""
    if isinstance(value, _RepeatedKey):
        return value
    if isinstance(value, list):
        for k, item in enumerate(value):
            path = _repeat_in(item)
            if path is not None:
                return (str(k), *path)
    return None


def _unique_keys(pairs: list[tuple[str, object]]) -> dict | _RepeatedKey:
    """``object_pairs_hook`` for json.loads under which no value silently
    replaces an earlier one of the same key."""
    seen = set()
    for key, value in pairs:
        path = _repeat_in(value)
        if path is not None:
            return _RepeatedKey((key, *path))
        if key in seen:
            return _RepeatedKey((key,))
        seen.add(key)
    return dict(pairs)


def _repeated_key(data) -> str | None:
    """``key 'x' in a.b`` for the first key repeated in a document that
    json.loads built with ``_unique_keys``; None when no key repeats."""
    path = _repeat_in(data)
    if path is None:
        return None
    *parent, key = path
    return f"key {key!r} in {'.'.join(parent) or 'the top-level object'}"


def parse_config(text: str, source: str = "<string>") -> RunConfig:
    """Parse the JSON run configuration; an empty object means all defaults."""

    def fail(message: str, field: str | None = None) -> ParseError:
        return ParseError(message, source=source, field=field)

    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
        repeat = _repeated_key(data)
    except json.JSONDecodeError as exc:
        raise fail(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise fail("JSON nested too deeply") from None
    if repeat:
        raise fail(f"repeated {repeat}")
    if not isinstance(data, Mapping):
        raise fail("configuration must be a JSON object")
    unknown = set(data) - {"profit_factors", "peak_states"}
    if unknown:
        raise fail(f"unknown configuration keys: {sorted(unknown)}")

    factors = dict(DEFAULT_PROFIT_FACTORS)
    raw_factors = data.get("profit_factors", {})
    if not isinstance(raw_factors, Mapping):
        raise fail("profit_factors must be an object", "profit_factors")
    keys: dict[Category, str] = {}
    for key, value in raw_factors.items():
        try:
            category = Category.parse(str(key))
        except ValueError as exc:
            raise fail(str(exc), "profit_factors") from None
        if category in keys:
            raise fail(
                f"{keys[category]!r} and {key!r} both name category {category.value}",
                "profit_factors",
            )
        keys[category] = key
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise fail(f"profit factor for {key!r} is not a number: {value!r}", "profit_factors")
        if not 0.0 <= value < 1.0:
            raise fail(
                f"profit factor for {key!r} must be in [0, 1), got {value}", "profit_factors"
            )
        factors[category] = float(value)

    peak: Iterable = data.get("peak_states", sorted(DEFAULT_PEAK_STATES))
    if not isinstance(peak, list):
        raise fail("peak_states must be a list of state indices", "peak_states")
    indices: list[int] = []
    for item in peak:
        if not isinstance(item, int) or isinstance(item, bool):
            raise fail(f"peak state {item!r} is not an integer", "peak_states")
        if not 1 <= item <= STATES_PER_DAY:
            raise fail(f"peak state {item} out of range 1..{STATES_PER_DAY}", "peak_states")
        if item in indices:
            raise fail(f"duplicate peak state {item}", "peak_states")
        indices.append(item)
    if not indices:
        raise fail("peak_states must not be empty", "peak_states")
    if len(indices) >= STATES_PER_DAY:
        raise fail("peak_states must leave at least one off-peak state", "peak_states")

    categories = tuple(
        CategoryConfig(category=cat, profit_factor=factors[cat]) for cat in Category
    )
    return RunConfig(categories=categories, peak_states=frozenset(indices))


def default_config() -> RunConfig:
    """Built-in defaults: 3%/2%/1% margins, peak window at states 18..23."""
    return parse_config("{}")


def assemble_profile(
    rows: Iterable[StateRow], peak_states: Iterable[int], source: str = ""
) -> DayProfile:
    """Combine parsed profile rows with a peak window definition."""
    peak = set(peak_states)
    states = tuple(
        SystemState(
            index=row.index,
            mcp=row.mcp,
            load_factor=row.load_factor,
            is_peak=row.index in peak,
        )
        for row in rows
    )
    return DayProfile(states=states, source=source)


def assemble_dataset(
    customers: Iterable[Customer] | CustomerTable,
    config: RunConfig,
    rows: Iterable[StateRow],
    label: str = "",
    profile_source: str = "",
) -> Dataset:
    """Assemble parsed parts into a dataset, keeping only configured categories
    that actually have customers. ``Customer`` objects are put into a table."""
    if not isinstance(customers, CustomerTable):
        customers = CustomerTable.from_customers(customers)
    categories = tuple(cfg for cfg in config.categories if cfg.category in customers.columns)
    profile = assemble_profile(rows, config.peak_states, source=profile_source)
    return Dataset(table=customers, categories=categories, profile=profile, label=label)


def _decode(data: bytes, source: str) -> str:
    """The text of UTF-8 input as text-mode ``open`` reads it: without the
    one byte-order mark a spreadsheet program may put at its start, and with
    each "\\r\\n" and "\\r" read as "\\n". A byte that is not UTF-8 is a
    ParseError naming the source, the line and the byte's offset in the input.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"byte {data[exc.start]:#04x} at offset {exc.start} is not UTF-8",
            source=source,
            line=data.count(b"\n", 0, exc.start) + 1,
        ) from None
    if text.startswith("\ufeff"):
        text = text[1:]
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def _read_text(path: str, source: str) -> str:
    """The text of a UTF-8 file, read by ``_decode``."""
    with open(path, "rb") as fh:
        return _decode(fh.read(), source)


_DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def _read_data_file(name: str) -> tuple[str, str]:
    """The text of one bundled data file and the source name its errors
    carry: the path read when DLPS_DATA_DIR is set, else the bare name."""
    override = os.environ.get("DLPS_DATA_DIR")
    path = os.path.join(override or _DATA_DIR, name)
    source = path if override else name
    return _read_text(path, source), source


@functools.lru_cache(maxsize=1)
def _parse_bundled(
    customers: tuple[str, str], mcp: tuple[str, str], config: tuple[str, str]
) -> Dataset:
    """The benchmark dataset parsed from each file's (text, source); a call
    with the same texts and sources returns the same object, and a parse
    error is raised again on every call, since lru_cache keeps no exception."""
    table = _customer_table(*customers)
    rows = parse_mcp(*mcp)
    return assemble_dataset(
        table,
        parse_config(*config),
        rows,
        label="bundled-benchmark",
        profile_source=(
            "bundled-benchmark day (state 22 is the reference operating point; "
            "other states are synthetic placeholders)"
        ),
    )


@functools.lru_cache(maxsize=1)
def _bundled_violations(ds: Dataset) -> tuple[Violation, ...]:
    """``validate_dataset`` of the shared bundled dataset, found once per
    parse: ``bundled_benchmark`` returns the same read-only object until one
    of its files changes."""
    return tuple(validate_dataset(ds))


def bundled_benchmark() -> Dataset:
    """The embedded 177-customer benchmark dataset.

    Honours the DLPS_DATA_DIR environment variable: when set, customers.csv,
    mcp.csv, and config.json are read from that directory instead of the
    packaged copies, letting a deployment swap the data without reinstalling.

    The files are read on every call but parsed only when their text or
    source differs from the last call's, so the dataset returned is shared
    by every caller that read the same files. It is read-only throughout:
    frozen dataclasses, tuples, mappings that reject assignment and arrays
    that are not writeable.
    """
    return _parse_bundled(
        _read_data_file("customers.csv"),
        _read_data_file("mcp.csv"),
        _read_data_file("config.json"),
    )


def _number(value: float) -> str:
    """Lossless numeric cell: integers without the trailing .0."""
    text = repr(float(value))
    return text[:-2] if text.endswith(".0") else text


def customers_to_csv(customers: Iterable[Customer]) -> str:
    """Serialize customers to the canonical CSV form parse_customers accepts,
    or raise ValueError at the first id that would not read back: one that is
    empty, has whitespace around it (read stripped), holds a CR (read as LF)
    or repeats an id written before it (refused as a duplicate)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CUSTOMERS_HEADER)
    written: set[str] = set()
    for c in customers:
        if not c.id or c.id != c.id.strip() or "\r" in c.id or c.id in written:
            raise ValueError(f"customer id {c.id!r} would not read back from CSV")
        written.add(c.id)
        # repr keeps the shortest digit string that parses back exactly
        writer.writerow([c.id, c.category.value, _number(c.base_demand)])
    return out.getvalue()


def profile_to_csv(rows: Iterable[StateRow] | DayProfile) -> str:
    """Serialize a day profile (or parsed rows) to canonical CSV."""
    if isinstance(rows, DayProfile):
        rows = rows.states
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(MCP_HEADER)
    for row in sorted(rows, key=lambda r: r.index):
        writer.writerow([row.index, _number(row.mcp), _number(row.load_factor)])
    return out.getvalue()


def config_to_json(config: RunConfig) -> str:
    """Serialize a run configuration to canonical JSON."""
    doc = {
        "profit_factors": {
            cfg.category.value: cfg.profit_factor for cfg in config.categories
        },
        "peak_states": sorted(config.peak_states),
    }
    return json.dumps(doc, indent=2) + "\n"
