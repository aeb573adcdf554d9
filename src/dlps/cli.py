"""Batch command-line front end.

Subcommands: ``price`` emits the day's price tables, ``scenario`` replays a
demand-change scenario and reports deltas, ``compare`` bills the same day
under flat/RTP/TOU and the demand-linked schedule, and ``validate`` runs
the built-in reference checks against the bundled benchmark.

Exit codes: 0 success, 1 validation or domain errors (invalid dataset,
failed checks, degenerate pricing groups, a NaN or infinite table cell),
2 I/O and parse errors (including a non-finite value for a float flag or
an input cell, a byte that is not UTF-8 in an input file or on stdin, a
negative seed, and ``--benchmark`` given with ``--customers``, ``--mcp`` or
``--config``). A reader that closes stdout early, as ``| head`` does, ends
the run quietly with exit code 0.
Output is deterministic for fixed inputs and seeds: tables keep a fixed
row order, floats are formatted the same way every run, and no timestamps
are emitted, so runs can be diffed byte for byte.

Monetary and percentage cells in CSV output are rounded to cents half up
on the value's shortest ``repr``: 2.675 prints as 2.68 and 1.005 as 1.01,
where ``round()`` gives 2.67 and 1.0 from the binary values just below the
ties. A zero prints as 0.00, never -0.00. JSON output carries full
precision, byte for byte as ``json.dumps(doc, indent=2)`` writes it.

A table is a grid of blocks of rows: ``price --all`` writes one block per
peak state, each keyed by the state and holding one row per customer keyed
by its id and category. Both table writers work in two phases. The first
checks whole columns before anything is written: non-finite cells, the
money cells flagged below, and values too large to round. The second
yields the header and then one chunk of text per block, and ``_emit``
writes each chunk as it comes, so a table's text is held one block at a
time. The CSV writer makes each block one matrix of 4-byte text units
padded with 0xFF (see ``_csvtext``). Keys and "str" and "int" cells go
through ``str`` once per table, quoted as RFC 4180 asks: a column of str
cells as it is, and a ``Coded`` column by its names alone. A numpy kernel
prints "num" cells as "%.10g" and "rs" and "pct" cells as "%.2f", from a
10,000-entry table of 4-digit groups. A "num" cell outside 1e-4 <= |x| <
1e10, or whose value scaled by 10**k (0 <= k <= 13) lies within 1e-5 of a
rounding tie, is printed by "%.10g" itself: the scaling rounds once, by
under 1e-6, so the kernel's digits are exact. The kernel can differ from
the cent rule only near a half-cent tie, on a negative cell that rounds to
zero or at 1e9 and over; such cells are flagged column by column and
printed by ``_round2``. The JSON writer fills a ``%`` template per block,
with the keys repeated into every row: "%r" for exact floats and
np.float64 (``float.__repr__``), "%d" for exact ints, and otherwise
``json.dumps`` of each cell, in the ``indent=2`` layout.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal, InvalidOperation
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii

import numpy as np

from ._csvtext import PAD, cent_units, lines, num_units, quoted, text_units
from .comparator import SignalKind, compare_to_reference, standard_comparison
from .domain import _BY_CODE, Category, Dataset, category_demands, select_states, validate_dataset
from .ingest import (
    ParseError,
    _bundled_violations,
    _customer_table,
    _decode,
    _read_text,
    assemble_dataset,
    bundled_benchmark,
    default_config,
    parse_config,
    parse_mcp,
)
from .pricing import PriceSchedule, build_schedule, fixed_price, price_grid, verify_ebe
from .scenario import (
    PRESET_NAMES,
    Scenario,
    ScenarioDeltas,
    analysis_state,
    apply_scenario,
    financial_summary,
    load_scenario,
    preset_scenario,
    random_dr_event,
    scenario_deltas,
)

__all__ = ["main", "run_validation", "CheckResult"]


# ---------------------------------------------------------------------------
# table plumbing

# column kinds: "rs" and "pct" round to 2 decimals for CSV, "num" keeps
# 10 significant digits, "int" and "str" pass through; None prints empty.
# Every cell is a scalar: a string, number, bool or None. A column's values
# may be a ``Coded`` column, whose few distinct cells the writers make once.
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


def _all_str(values: Sequence) -> bool:
    """Whether every cell is a str, found by a join that stops at any other."""
    try:
        "".join(values)
    except TypeError:
        return False
    return True


def _csv_column(
    table: Table, key: str, kind: str, values: Sequence
) -> Callable[[int, int], np.ndarray]:
    """A checked column as the text units of its rows lo to hi: text cells
    and a column holding None ("" for None) made once, a ``Coded`` column's
    names once, float cells by the kernel when their rows are asked for."""
    if isinstance(values, Coded):
        units = _csv_column(table, key, kind, values.names)(0, len(values.names))[values.codes]
        return lambda lo, hi: units[lo:hi]
    if kind in ("int", "str") and _all_str(values):
        units = text_units(quoted(values))
        return lambda lo, hi: units[lo:hi]
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


def _emit(
    tables: list[Table],
    out_dir: str | None,
    fmt: str = "csv",
    mirrors: tuple[str, ...] = (),
) -> None:
    """Write tables to out_dir (with a manifest) or print them to stdout.

    Tables named in ``mirrors`` also get a full-precision JSON copy in
    out_dir. Every table is checked before anything is written, so a table
    that cannot be written leaves no partial output; each is then written
    chunk by chunk, as its writer makes them. The files go to a temporary
    directory inside out_dir, which keeps the permissions a plain ``open``
    gives, and move into place with ``os.replace`` once the last is written.
    """
    render = _table_csv if fmt == "csv" else _table_json
    texts = {table.name: render(table) for table in tables}
    if out_dir is None:
        for k, (name, chunks) in enumerate(texts.items()):
            sys.stdout.write(("\n# " if k else "# ") + name + "\n")
            sys.stdout.writelines(chunks)
        return
    files = {f"{name}.{fmt}": chunks for name, chunks in texts.items()}
    manifest: dict[str, dict[str, str]] = {"tables": {n: f"{n}.{fmt}" for n in texts}}
    if mirrors:
        manifest["mirrors"] = {n: f"{n}.json" for n in mirrors}
        for table in tables:
            if table.name in mirrors:
                files[f"{table.name}.json"] = _table_json(table)
    files["manifest.json"] = [json.dumps(manifest, indent=2, sort_keys=True) + "\n"]
    os.makedirs(out_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=".dlps-", dir=out_dir) as staging:
        for filename, chunks in files.items():
            with open(os.path.join(staging, filename), "w", encoding="utf-8") as fh:
                fh.writelines(chunks)
        for filename in files:
            os.replace(os.path.join(staging, filename), os.path.join(out_dir, filename))


# ---------------------------------------------------------------------------
# input loading

def _read_input(path: str) -> str:
    """The text of an input file, or of stdin for "-", decoded alike."""
    if path == "-":
        return _decode(sys.stdin.buffer.read(), path)
    return _read_text(path, path)


def _load_dataset(args) -> Dataset:
    if getattr(args, "benchmark", False):
        given = [f"--{name}" for name in ("customers", "mcp", "config")
                 if getattr(args, name, None) is not None]
        if given:
            raise ParseError(
                f"--benchmark cannot be combined with {', '.join(given)}", source="arguments"
            )
        ds = bundled_benchmark()
        violations = _bundled_violations(ds)
    else:
        if not args.customers or not args.mcp:
            raise ParseError(
                "no input: pass --benchmark, or --customers and --mcp "
                "(with an optional --config)",
                source="arguments",
            )
        paths = [args.customers, args.mcp, getattr(args, "config", None)]
        if [*paths, getattr(args, "scenario", None)].count("-") > 1:
            raise ParseError(
                "at most one input may come from standard input", source="arguments"
            )
        customers = _customer_table(_read_input(args.customers), source=args.customers)
        rows = parse_mcp(_read_input(args.mcp), source=args.mcp)
        if getattr(args, "config", None):
            config = parse_config(_read_input(args.config), source=args.config)
        else:
            config = default_config()
        ds = assemble_dataset(
            customers,
            config,
            rows,
            label=os.path.basename(args.customers),
            profile_source=os.path.basename(args.mcp),
        )
        violations = validate_dataset(ds)
    if violations:
        for v in violations:
            print(f"invalid dataset: {v}", file=sys.stderr)
        raise ValueError(f"dataset failed validation with {len(violations)} violation(s)")
    return ds


# ---------------------------------------------------------------------------
# price

def _customer_keys(ds: Dataset) -> tuple[tuple[str, str, Sequence], ...]:
    """The id and category columns that key each customer's row."""
    names = tuple(category.value for category in _BY_CODE)
    return ("id", "str", ds.table.ids), ("category", "str", Coded(names, ds.table.codes))


def _price_state_table(ds: Dataset, state_index: int) -> Table:
    state = ds.profile.state(state_index)
    demand, prices, _ = price_grid(ds, states=[state_index])
    d, p = demand[0], prices[0]
    share = np.empty_like(d)
    flat = np.empty_like(d)
    for cat, cols in ds.table.columns.items():
        group = np.ldexp(d[cols], -math.frexp(d[cols].max())[1])  # summed as pricing sums
        share[cols] = 100.0 * group / float(group.sum())
        flat[cols] = fixed_price(state.mcp, ds.profit_factor(cat))
    columns = (
        *_customer_keys(ds),
        ("demand_kw", "num", d),
        ("demand_contribution_pct", "pct", share),
        ("unit_price_rs", "rs", p),
        ("fixed_price_rs", "rs", flat),
        ("billing_rs", "rs", p * d),
        ("billing_fixed_rs", "rs", flat * d),
    )
    return Table(f"price_state{state_index}", columns, row_keys=2)


def cmd_price(args) -> int:
    ds = _load_dataset(args)
    if args.state is not None:
        if args.state not in ds.profile.row_of:
            raise ValueError(f"--state: no state with index {args.state} in the profile")
        tables = [_price_state_table(ds, args.state)]
    else:
        peak = ds.profile.peak_indices
        demand, prices, off_peak = price_grid(ds, states=peak)
        on_peak = Table("on_peak", (
            *_customer_keys(ds),
            ("state", "int", peak),
            ("demand_kw", "num", demand.ravel()),
            ("unit_price_rs", "rs", prices.ravel()),
        ), row_keys=2, block_keys=1)
        off = Table("off_peak", (
            ("category", "str", [cat.value for cat in off_peak]),
            ("unit_price_rs", "rs", list(off_peak.values())),
        ))
        tables = [on_peak, off]
    _emit(tables, args.out, args.format)
    return 0


# ---------------------------------------------------------------------------
# scenario

def _run_scenario(
    ds: Dataset, sc: Scenario, category: Category
) -> tuple[int, Dataset, ScenarioDeltas]:
    """The state a scenario is reported at (its scope when that is one state,
    else the analysis state), the dataset it makes there, and the deltas of
    ``category``. Raises ValueError when the scope holds no peak state."""
    if not any(s.is_peak for s in select_states(ds.profile, sc.scope)):
        raise ValueError(f"scenario {sc.label!r} scope {sc.scope!r} holds no peak state")
    state = sc.scope if isinstance(sc.scope, int) else analysis_state(ds.profile)
    perturbed = apply_scenario(ds, sc, at_state=state)
    return state, perturbed, scenario_deltas(ds, perturbed, state, category)


def cmd_scenario(args) -> int:
    ds = _load_dataset(args)
    if args.preset:
        sc = preset_scenario(args.preset, ds, seed=args.seed)
    else:
        text = _read_input(args.scenario)
        try:
            sc = load_scenario(text, ds)
        except ValueError as exc:
            raise ParseError(str(exc), source=args.scenario) from None
    category = Category.parse(args.category)
    state, perturbed, deltas = _run_scenario(ds, sc, category)
    base_fin = financial_summary(ds, state, category)
    pert_fin = deltas.financials

    deltas_table = Table("deltas", (
        ("id", "str", deltas.ids),
        ("demand_pct", "pct", deltas.demand_pct),
        ("unit_price_pct", "pct", deltas.unit_price_pct),
        ("billing_pct", "pct", deltas.billing_pct),
        ("demand_contribution_pct", "pct", deltas.demand_contribution_pct),
    ))

    at = ds.profile.state(state)  # the perturbed dataset shares the profile
    demands = [float(category_demands(d, category, at).sum()) for d in (ds, perturbed)]
    measures = (
        ("demand_kw", *demands),
        ("purchase_cost_rs", base_fin.purchase_cost, pert_fin.purchase_cost),
        ("revenue_rs", base_fin.revenue, pert_fin.revenue),
        ("profit_rs", base_fin.profit, pert_fin.profit),
        (
            "profit_pct_of_purchase",
            None if base_fin.profit_fraction is None else 100 * base_fin.profit_fraction,
            None if pert_fin.profit_fraction is None else 100 * pert_fin.profit_fraction,
        ),
    )
    names, bases, news = zip(*measures)
    financials_table = Table("financials", (
        ("measure", "str", names),
        ("base", "rs", bases),
        ("scenario", "rs", news),
        (
            "difference",
            "rs",
            [None if b is None or n is None else n - b for b, n in zip(bases, news)],
        ),
    ))
    _emit([deltas_table, financials_table], args.out, args.format)
    return 0


# ---------------------------------------------------------------------------
# compare

def cmd_compare(args) -> int:
    ds = _load_dataset(args)
    if not 0.0 <= args.dr_max < 1.0:
        raise ValueError(f"--dr-max must be in [0, 1), got {args.dr_max}")
    if args.tou_multiplier < 1.0:
        raise ValueError(
            f"--tou-multiplier (the TOU peak multiplier) must be >= 1, got {args.tou_multiplier}"
        )
    dr_event = random_dr_event(ds, args.dr_max, args.seed) if args.dr_max > 0 else None
    comparison = standard_comparison(
        ds,
        tou_peak_multiplier=args.tou_multiplier,
        with_profit=not args.no_profit,
        dr_event=dr_event,
    )
    deltas = compare_to_reference(comparison, SignalKind.RTP)

    # compare_to_reference walks the bills in their order: signal, category, state
    billed = [v for b in comparison.billings for v in b.by_category_state.values()]
    comparison_table = Table("comparison", (
        ("signal", "str", [kind.value for kind, _, _ in deltas]),
        ("category", "str", [cat.value for _, cat, _ in deltas]),
        ("state", "int", [t for _, _, t in deltas]),
        ("billing_rs", "rs", billed),
        ("delta_vs_rtp_pct", "pct", list(deltas.values())),
    ))

    windows = (
        ("day", None),
        ("peak", set(ds.profile.peak_indices)),
        ("off_peak", {s.index for s in ds.profile.off_peak_states}),
    )
    groups = [
        (billing, cat, window, indices)
        for billing in comparison.billings
        for cat in (*ds.table.columns, None)
        for window, indices in windows
    ]
    totals = [
        b.total(categories=None if cat is None else [cat], states=indices)
        for b, cat, _, indices in groups
    ]
    aggregates_table = Table("aggregates", (
        ("signal", "str", [b.kind.value for b, _, _, _ in groups]),
        ("category", "str", [cat.value if cat else "all" for _, cat, _, _ in groups]),
        ("window", "str", [window for _, _, window, _ in groups]),
        ("billing_rs", "rs", totals),
    ))
    _emit([comparison_table, aggregates_table], args.out, mirrors=("comparison",))
    return 0


# ---------------------------------------------------------------------------
# validate: built-in reference checks over the bundled benchmark

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


# Published reference results for the bundled benchmark at its reference
# operating point (industrial category, state 22, market price 4.845626).
REFERENCE_PEAK_PRICES = {
    "I1": 3.22, "I2": 4.02, "I3": 3.70, "I4": 4.34, "I5": 5.23, "I6": 6.03,
    "I7": 7.07, "I8": 7.40, "I9": 2.41, "I10": 3.38, "I11": 4.34, "I12": 4.99,
    "I13": 5.47, "I14": 5.95, "I15": 7.24, "I16": 2.41, "I17": 2.41,
    "I18": 4.82, "I19": 2.01, "I20": 2.81, "I21": 3.22, "I22": 3.06,
    "I23": 3.38,
}
REFERENCE_FIXED_PRICE = 4.89
REFERENCE_BASE_FINANCIALS = (5960.12, 6019.73, 59.60)  # purchase, revenue, profit
# scenario -> {customer id or "others": (unit price %, billing %, contribution %)}
REFERENCE_SCENARIO_DELTAS = {
    "s1": {"I8": (8.29, 19.11, 8.96), "I19": (8.29, 19.11, 8.96),
           "others": (-1.56, -1.56, -0.94)},
    "s2": {"I8": (-8.75, -17.88, -9.13), "I19": (-8.75, -17.88, -9.13),
           "others": (1.39, 1.39, 0.96)},
    "s3": {"I8": (-8.69, -17.82, -9.51), "I19": (11.60, 22.76, 10.60),
           "others": (1.46, 1.46, 0.55)},
}
REFERENCE_SCENARIO_FINANCIALS = {
    "s1": (6016.82, 6076.99),
    "s2": (5903.43, 5962.47),
    "s3": (5927.66, 5986.94),
}
# uniformly scaled industrial demand: total, purchase, revenue, profit
REFERENCE_SCALED_FINANCIALS = (1236.42, 5991.21, 6051.12, 59.91)
REFERENCE_BREAKEVEN_KW = 60.87
REFERENCE_ABOVE_BREAKEVEN = {"I5", "I6", "I7", "I8", "I12", "I13", "I14", "I15"}
REFERENCE_BILLING_EXTREMES = (-58.9, 51.1)  # % vs fixed billing: smallest, largest

PRICE_TOL = 0.01
RS_TOL = 0.05
PP_TOL = 0.02
WIDE_RS_TOL = 0.1
EXACT_TOL = 1e-9


def _check_census(ds: Dataset) -> tuple[bool, str]:
    counts = {cat: len(ds.table.ids_in(cat)) for cat in Category}
    expected = {Category.RESIDENTIAL: 106, Category.COMMERCIAL: 48, Category.INDUSTRIAL: 23}
    passed = counts == expected and len(ds.table) == 177
    detail = (
        f"{len(ds.table)} customers "
        f"(residential {counts[Category.RESIDENTIAL]}, commercial "
        f"{counts[Category.COMMERCIAL]}, industrial {counts[Category.INDUSTRIAL]}); "
        "expected 177 (106/48/23)"
    )
    return passed, detail


def _check_industrial_aggregates(ds: Dataset) -> tuple[bool, str]:
    state = ds.profile.state(analysis_state(ds.profile))
    demands = category_demands(ds, Category.INDUSTRIAL, state)
    total = float(demands.sum())
    sum_sq = float((demands**2).sum())
    passed = abs(total - 1230.0) <= EXACT_TOL and abs(sum_sq - 74872.0) <= EXACT_TOL
    detail = (
        f"industrial demand at state {state.index}: total {total:.6g} kW "
        f"(expected 1230), squared sum {sum_sq:.6g} (expected 74872)"
    )
    return passed, detail


def _check_unit_prices(ds: Dataset, schedule: PriceSchedule) -> tuple[bool, str]:
    state = analysis_state(ds.profile)
    devs = {
        cid: abs(schedule.on_peak[(cid, state)] - expected)
        for cid, expected in REFERENCE_PEAK_PRICES.items()
    }
    ok = sum(1 for d in devs.values() if d <= PRICE_TOL + 1e-12)
    worst = max(devs, key=devs.get)
    passed = ok == len(devs)
    detail = (
        f"{ok}/{len(devs)} industrial prices at state {state} within "
        f"{PRICE_TOL} Rs of reference (largest deviation {devs[worst]:.4f} at {worst})"
    )
    return passed, detail


def _check_fixed_price(ds: Dataset) -> tuple[bool, str]:
    state = ds.profile.state(analysis_state(ds.profile))
    kp = ds.profit_factor(Category.INDUSTRIAL)
    observed = fixed_price(state.mcp, kp)
    passed = abs(observed - REFERENCE_FIXED_PRICE) <= PRICE_TOL + 1e-12
    detail = (
        f"industrial flat benchmark price {observed:.4f} Rs vs reference "
        f"{REFERENCE_FIXED_PRICE} (tol {PRICE_TOL})"
    )
    return passed, detail


def _check_base_financials(ds: Dataset, schedule: PriceSchedule) -> tuple[bool, str]:
    state = analysis_state(ds.profile)
    fin = verify_ebe(ds, schedule, Category.INDUSTRIAL, state)
    pc, rv, pf = REFERENCE_BASE_FINANCIALS
    kp = ds.profit_factor(Category.INDUSTRIAL)
    passed = (
        abs(fin.purchase_cost - pc) <= RS_TOL
        and abs(fin.revenue - rv) <= RS_TOL
        and abs(fin.profit - pf) <= RS_TOL
        and fin.profit_fraction is not None
        and abs(fin.profit_fraction - kp) <= EXACT_TOL
    )
    detail = (
        f"industrial at state {state}: purchase {fin.purchase_cost:.2f} vs {pc}, "
        f"revenue {fin.revenue:.2f} vs {rv}, profit {fin.profit:.2f} vs {pf} "
        f"(tol {RS_TOL}); margin {fin.profit_fraction:.10f} vs {kp}"
    )
    return passed, detail


def _check_scenario_deltas(deltas, name: str) -> tuple[bool, str]:
    expected = REFERENCE_SCENARIO_DELTAS[name]
    worst = 0.0
    ok = True
    for cid, (up, billing, dc) in expected.items():
        if cid == "others":
            rows = [d for d in deltas.deltas if d.customer_id not in expected]
            spread = max(r.unit_price_pct for r in rows) - min(r.unit_price_pct for r in rows)
            if spread > EXACT_TOL:
                ok = False
            row = rows[0]
        else:
            row = deltas.delta_for(cid)
        devs = (
            abs(row.unit_price_pct - up),
            abs(row.billing_pct - billing),
            abs(row.demand_contribution_pct - dc),
        )
        worst = max(worst, *devs)
        if any(d > PP_TOL for d in devs):
            ok = False
    detail = (
        f"unit price/billing/contribution changes within {PP_TOL} pp of "
        f"reference (largest deviation {worst:.4f} pp)"
    )
    return ok, detail


def _check_scenario_financials(ds: Dataset, deltas, name: str) -> tuple[bool, str]:
    fin = deltas.financials
    pc, rv = REFERENCE_SCENARIO_FINANCIALS[name]
    kp = ds.profit_factor(Category.INDUSTRIAL)
    passed = (
        abs(fin.purchase_cost - pc) <= RS_TOL
        and abs(fin.revenue - rv) <= RS_TOL
        and fin.profit_fraction is not None
        and abs(fin.profit_fraction - kp) <= EXACT_TOL
    )
    detail = (
        f"purchase {fin.purchase_cost:.2f} vs {pc}, revenue {fin.revenue:.2f} "
        f"vs {rv} (tol {RS_TOL}); margin {fin.profit_fraction:.10f} vs {kp}"
    )
    return passed, detail


def _check_scaled_financials(ds: Dataset) -> tuple[bool, str]:
    target, pc, rv, pf = REFERENCE_SCALED_FINANCIALS
    state_index = analysis_state(ds.profile)
    state = ds.profile.state(state_index)
    base_total = float(category_demands(ds, Category.INDUSTRIAL, state).sum())
    factor = target / base_total - 1.0
    sc = Scenario(
        label="uniform-scale",
        perturbations=dict.fromkeys(ds.table.ids_in(Category.INDUSTRIAL), factor),
        scope=state_index,
    )
    perturbed = apply_scenario(ds, sc)
    fin = financial_summary(perturbed, state_index, Category.INDUSTRIAL)
    passed = (
        abs(fin.purchase_cost - pc) <= WIDE_RS_TOL
        and abs(fin.revenue - rv) <= WIDE_RS_TOL
        and abs(fin.profit - pf) <= WIDE_RS_TOL
    )
    detail = (
        f"industrial demand scaled to {target} kW: purchase {fin.purchase_cost:.2f} "
        f"vs {pc}, revenue {fin.revenue:.2f} vs {rv}, profit {fin.profit:.2f} "
        f"vs {pf} (tol {WIDE_RS_TOL})"
    )
    return passed, detail


def _check_breakeven(ds: Dataset) -> tuple[bool, str]:
    state = ds.profile.state(analysis_state(ds.profile))
    demands = category_demands(ds, Category.INDUSTRIAL, state)
    threshold = float((demands**2).sum() / demands.sum())
    ids = ds.table.ids_in(Category.INDUSTRIAL)
    above = {cid for cid, d in zip(ids, demands.tolist()) if d > threshold}
    passed = (
        abs(threshold - REFERENCE_BREAKEVEN_KW) <= 0.01
        and above == REFERENCE_ABOVE_BREAKEVEN
    )
    detail = (
        f"breakeven demand {threshold:.4f} kW vs {REFERENCE_BREAKEVEN_KW} "
        f"(tol 0.01); {len(above)} customers above it vs "
        f"{len(REFERENCE_ABOVE_BREAKEVEN)} expected"
    )
    return passed, detail


def _check_billing_extremes(ds: Dataset, schedule: PriceSchedule) -> tuple[bool, str]:
    state_index = analysis_state(ds.profile)
    state = ds.profile.state(state_index)
    kp = ds.profit_factor(Category.INDUSTRIAL)
    flat = fixed_price(state.mcp, kp)
    industrial = ds.customers_in(Category.INDUSTRIAL)
    smallest = min(industrial, key=lambda c: (c.base_demand, c.id))
    largest = max(industrial, key=lambda c: (c.base_demand, c.id))
    low = 100.0 * (schedule.on_peak[(smallest.id, state_index)] / flat - 1.0)
    high = 100.0 * (schedule.on_peak[(largest.id, state_index)] / flat - 1.0)
    exp_low, exp_high = REFERENCE_BILLING_EXTREMES
    passed = abs(low - exp_low) <= 0.1 and abs(high - exp_high) <= 0.1
    detail = (
        f"billing vs flat benchmark: {smallest.id} {low:.2f}% (expected {exp_low}), "
        f"{largest.id} {high:+.2f}% (expected +{exp_high}) (tol 0.1 pp)"
    )
    return passed, detail


def run_validation(ds: Dataset | None = None) -> list[CheckResult]:
    """Run every reference check; a dataset can be injected for testing."""
    if ds is None:
        ds = bundled_benchmark()
    presets = tuple(REFERENCE_SCENARIO_DELTAS)
    # built on first use, so a check that raises fails alone; an exception
    # is not cached, so every check that needs the result sees it
    schedule = functools.cache(functools.partial(build_schedule, ds))
    preset = functools.cache(
        lambda n: _run_scenario(ds, preset_scenario(n, ds), Category.INDUSTRIAL)[2]
    )
    checks = (
        ("customer-census", _check_census),
        ("industrial-aggregates", _check_industrial_aggregates),
        ("unit-prices", lambda d: _check_unit_prices(d, schedule())),
        ("fixed-price", _check_fixed_price),
        ("base-financials", lambda d: _check_base_financials(d, schedule())),
        *(
            (f"{n}-deltas", lambda d, n=n: _check_scenario_deltas(preset(n), n))
            for n in presets
        ),
        *(
            (f"{n}-financials", lambda d, n=n: _check_scenario_financials(d, preset(n), n))
            for n in presets
        ),
        ("scaled-financials", _check_scaled_financials),
        ("breakeven-threshold", _check_breakeven),
        ("billing-extremes", lambda d: _check_billing_extremes(d, schedule())),
    )
    results = []
    for name, check in checks:
        try:
            passed, detail = check(ds)
        except Exception as exc:  # a broken dataset must fail, not crash
            passed, detail = False, f"error: {exc}"
        results.append(CheckResult(name, passed, detail))
    return results


def cmd_validate(args) -> int:
    results = run_validation()
    if args.json:
        doc = {
            "passed": all(r.passed for r in results),
            "checks": [
                {"name": r.name, "passed": r.passed, "detail": r.detail}
                for r in results
            ],
        }
        print(json.dumps(doc, indent=2))
    else:
        for r in results:
            print(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.detail}")
        failed = sum(1 for r in results if not r.passed)
        print(
            f"{len(results) - failed}/{len(results)} checks passed"
            + (f", {failed} failed" if failed else "")
        )
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# parser

def _finite_float(text: str) -> float:
    """argparse type for float flags: NaN and infinities are usage errors."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _seed(text: str) -> int:
    """argparse type for seeds: an integer of at least 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _add_input_args(sp) -> None:
    sp.add_argument(
        "--benchmark",
        action="store_true",
        help="use the bundled 177-customer benchmark dataset",
    )
    sp.add_argument("--customers", help="customers CSV (id,category,base_demand_kw); - for stdin")
    sp.add_argument("--mcp", help="day profile CSV (state,mcp_rs_per_kwh,load_factor); - for stdin")
    sp.add_argument("--config", help="JSON run configuration; omitted means defaults")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dlps",
        description="Demand-linked dynamic price signals for demand-response studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    price = sub.add_parser("price", help="emit price tables for a dataset")
    _add_input_args(price)
    which = price.add_mutually_exclusive_group(required=True)
    which.add_argument("--state", type=int, help="price one state (1..24)")
    which.add_argument("--all", action="store_true", help="price every peak state plus the off-peak windows")
    price.add_argument("--out", help="directory to write tables to (default: stdout)")
    price.add_argument("--format", choices=("csv", "json"), default="csv")
    price.set_defaults(func=cmd_price)

    scenario = sub.add_parser("scenario", help="replay a demand-change scenario")
    _add_input_args(scenario)
    which = scenario.add_mutually_exclusive_group(required=True)
    which.add_argument("--preset", choices=PRESET_NAMES, help="built-in scenario")
    which.add_argument("--scenario", help="scenario JSON file; - for stdin")
    scenario.add_argument("--seed", type=_seed, default=0, help="seed for random scenarios")
    scenario.add_argument(
        "--category",
        choices=tuple(c.value for c in Category),
        default=Category.INDUSTRIAL.value,
        help="category to report deltas for",
    )
    scenario.add_argument("--out", help="directory to write tables to (default: stdout)")
    scenario.add_argument("--format", choices=("csv", "json"), default="csv")
    scenario.set_defaults(func=cmd_scenario)

    compare = sub.add_parser(
        "compare", help="bill the day under flat, RTP, TOU, and the demand-linked schedule"
    )
    _add_input_args(compare)
    compare.add_argument(
        "--tou-multiplier",
        type=_finite_float,
        default=1.0,
        help="TOU peak block multiplier (>= 1)",
    )
    compare.add_argument(
        "--dr-max",
        type=_finite_float,
        default=0.15,
        help="largest random peak demand reduction; 0 disables the event",
    )
    compare.add_argument(
        "--seed", type=_seed, default=0, help="seed for the demand-response event"
    )
    compare.add_argument(
        "--no-profit",
        action="store_true",
        help="bill reference signals at raw prices without the profit markup",
    )
    compare.add_argument("--out", help="directory to write tables to (default: stdout)")
    compare.set_defaults(func=cmd_compare)

    validate = sub.add_parser("validate", help="run built-in reference checks on the bundled benchmark")
    validate.add_argument("--json", action="store_true", help="machine-readable results")
    validate.set_defaults(func=cmd_validate)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built once per interpreter: ``parse_args``
    keeps no state from one call to the next."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # no numpy warning: every cell is checked before anything is
        # written, so the table check reports an overflow, once
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader stopped early (``dlps price --all | head``): end quietly,
        # with stdout on devnull so the final flush at exit cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
