"""Builders for small synthetic datasets used across the test modules, and
per-cell, per-group, per-customer and per-row oracles that the array-based
pricing, billing, scenario application, table writers, customer parsing and
validation are checked against, with the earlier hand-tuned forms of the
event compile, the whole-grid billing, the scenario delta rows and the
id-prefix check; and a loader for the benchmark's own modules."""

from __future__ import annotations

import csv
import io
import json
import math
import re
import sys
import types
from collections.abc import Mapping
from dataclasses import replace
from decimal import ROUND_HALF_UP, Decimal, InvalidOperation
from pathlib import Path

import numpy as np

from dlps import (
    BillingComparison,
    Category,
    CategoryConfig,
    Customer,
    CustomerTable,
    Dataset,
    DayProfile,
    DegenerateGroupError,
    DegenerateWindowError,
    ParseError,
    SignalBilling,
    SignalKind,
    SystemState,
    Violation,
    category_demands,
    demand_grid,
    event_multipliers,
    financial_summary,
    off_peak_price,
    on_peak_prices,
    perturbation_at,
    select_states,
)
from dlps._tables import Table
from dlps.domain import _BY_CODE, _PREFIXED_ID
from dlps.ingest import CUSTOMERS_HEADER
from dlps.scenario import ScenarioDeltas, _EventDraws

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench(name: str) -> types.ModuleType:
    """``bench/<name>.py`` run from its source text, so that nothing is
    written beside it. It is registered as ``bench_<name>``, where
    dataclasses look up a module's string annotations."""
    path = BENCH / f"{name}.py"
    module = sys.modules[f"bench_{name}"] = types.ModuleType(f"bench_{name}")
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module

DEFAULT_PROFIT = {
    Category.RESIDENTIAL: 0.03,
    Category.COMMERCIAL: 0.02,
    Category.INDUSTRIAL: 0.01,
}


def build_profile(
    mcps=None,
    load_factors=None,
    peak=tuple(range(18, 24)),
    source="test-profile",
) -> DayProfile:
    """24-state profile; scalar or per-state mcps/load factors."""
    if mcps is None:
        mcps = 3.0
    if load_factors is None:
        load_factors = 1.0
    if isinstance(mcps, (int, float)):
        mcps = [float(mcps)] * 24
    if isinstance(load_factors, (int, float)):
        load_factors = [float(load_factors)] * 24
    peak = set(peak)
    states = tuple(
        SystemState(
            index=i,
            mcp=mcps[i - 1],
            load_factor=load_factors[i - 1],
            is_peak=i in peak,
        )
        for i in range(1, 25)
    )
    return DayProfile(states=states, source=source)


def build_dataset(
    industrial=(),
    commercial=(),
    residential=(),
    profile: DayProfile | None = None,
    profit: dict | None = None,
    label="test-dataset",
) -> Dataset:
    """Dataset from per-category demand lists, ids numbered from 1."""
    profit = {**DEFAULT_PROFIT, **(profit or {})}
    customers = []
    for cat, demands in (
        (Category.RESIDENTIAL, residential),
        (Category.COMMERCIAL, commercial),
        (Category.INDUSTRIAL, industrial),
    ):
        for i, demand in enumerate(demands, start=1):
            customers.append(
                Customer(id=f"{cat.prefix}{i}", category=cat, base_demand=float(demand))
            )
    present = {c.category for c in customers}
    categories = tuple(
        CategoryConfig(category=cat, profit_factor=profit[cat])
        for cat in Category
        if cat in present
    )
    return Dataset(
        table=CustomerTable.from_customers(customers),
        categories=categories,
        profile=profile or build_profile(),
        label=label,
    )


# --- per-cell loop oracles for the grid-based event and billing paths -------

def loop_effective_demand(ds: Dataset, customer, state, dr_event=None) -> float:
    """One customer's demand at one state, shaped by the event cell by cell."""
    demand = customer.base_demand * state.load_factor
    if dr_event is not None:
        demand *= 1.0 + perturbation_at(dr_event, customer.id, state.index, ds.profile)
    return demand


def loop_billing(ds: Dataset, signal, with_profit=True, dr_event=None) -> dict:
    """Billing per (category, state), summed customer by customer."""
    out = {}
    for category in ds.categories_present:
        kp = ds.profit_factor(category)
        proposed = signal.kind is SignalKind.PROPOSED
        markup = 1.0 + kp if (with_profit and not proposed) else 1.0
        customers = ds.customers_in(category)
        for state in ds.profile.states:
            cell = 0.0
            for c in customers:
                demand = loop_effective_demand(ds, c, state, dr_event)
                price = signal.schedule.price(c, state) if proposed else signal.values[state.index]
                cell += price * demand
            out[(category, state.index)] = markup * cell
    return out


def grid_compare(ds: Dataset, signals, with_profit=True, dr_event=None) -> BillingComparison:
    """``compare_signals`` from whole (state x customer) grids: the demand
    grid ``lf * base * event_multipliers``, summed into (state x category)
    totals from a C-ordered copy of each category's columns; the proposed
    schedule's peak rows placed in a grid, and each category's peak cells
    summed from one block of ``p * d`` gathered by flat indices."""
    multipliers = None if dr_event is None else event_multipliers(dr_event, ds)
    demand = demand_grid(ds, multipliers)
    states = ds.profile.states
    columns = ds.table.columns
    profit = np.array([ds.profit_factor(c) for c in columns], dtype=float)
    totals = np.empty((len(demand), len(columns)))
    for k, cols in enumerate(columns.values()):
        totals[:, k] = np.take(demand, cols, axis=1).sum(axis=1)
    peak = [r for r, state in enumerate(states) if state.is_peak]
    billings = []
    for signal in signals:
        if signal.kind is SignalKind.PROPOSED:
            prices = np.zeros_like(demand)
            prices[peak] = signal.schedule.prices
            cells = totals * np.array([signal.schedule.off_peak[c] for c in columns])
            for k, cols in enumerate(columns.values()):
                at = np.add.outer(np.array(peak, dtype=np.intp) * demand.shape[1], cols)
                cells[peak, k] = (prices.take(at) * demand.take(at)).sum(axis=1)
        else:
            prices = np.array([signal.values[s.index] for s in states], dtype=float)
            cells = (1.0 + profit if with_profit else 1.0) * (prices[:, None] * totals)
        out = {}
        for k, category in enumerate(columns):
            out.update(zip([(category, s.index) for s in states], cells[:, k].tolist()))
        billings.append(SignalBilling(signal.kind, with_profit, out))
    return BillingComparison(tuple(billings))


def loop_peak_prices(ds: Dataset, dr_event=None) -> dict:
    """On-peak prices per (customer id, state) from one on_peak_prices call per group."""
    out = {}
    for category in ds.categories_present:
        kp = ds.profit_factor(category)
        customers = ds.customers_in(category)
        for state in ds.profile.peak_states:
            demands = np.array(
                [loop_effective_demand(ds, c, state, dr_event) for c in customers]
            )
            for c, price in zip(customers, on_peak_prices(demands, kp, state.mcp)):
                out[(c.id, state.index)] = float(price)
    return out


def loop_price_grid(ds: Dataset, dr_event=None, states=None):
    """``price_grid`` group by group: the demand rows times the event's whole
    (state x customer) grid, from ``blocked_event_multipliers``; one
    ``on_peak_prices`` call per (category, requested peak state), with a
    degenerate group's error naming both; and each off-peak window summed
    row by row from the category's scaled base demands times the grid's
    row."""
    profile = ds.profile
    if states is None:
        rows = list(range(len(profile.states)))
    else:
        rows = [profile.row(index) for index in states]
        if len(set(rows)) < len(rows):
            raise ValueError(f"states must not repeat, got {list(states)}")
    multipliers = None if dr_event is None else blocked_event_multipliers(dr_event, ds)
    lf = np.array([s.load_factor for s in profile.states], dtype=float)
    base = ds.table.base
    demand = lf[rows, None] * base
    if multipliers is not None:
        demand *= multipliers[rows]
    prices = np.empty_like(demand)
    off_rows = [k for k, r in enumerate(rows) if not profile.states[r].is_peak]
    off_mcps = np.array([s.mcp for s in profile.off_peak_states], dtype=float)
    grow = math.frexp(lf.max())[1]
    if multipliers is not None:
        grow += math.frexp(multipliers.max(initial=0.0))[1]
    off_peak = {}
    for category, cols in ds.table.columns.items():
        kp = ds.config_for(category).profit_factor
        group = np.ldexp(base[cols], -(math.frexp(base[cols].max())[1] + grow))
        totals = []
        for r, state in enumerate(profile.states):
            if not state.is_peak:
                d = lf[r] * group if multipliers is None else lf[r] * group * multipliers[r, cols]
                totals.append(d.sum())
            elif r in rows:
                k = rows.index(r)
                try:
                    prices[k, cols] = on_peak_prices(demand[k, cols], kp, state.mcp)
                except DegenerateGroupError as exc:
                    raise DegenerateGroupError(
                        f"category {category.value} at state {state.index}: {exc}"
                    ) from None
        try:
            off_peak[category] = off_peak_price(totals, off_mcps, kp)
        except DegenerateWindowError as exc:
            raise DegenerateWindowError(f"category {category.value} off-peak window: {exc}") from None
        prices[np.ix_(off_rows, cols)] = off_peak[category]
    return demand, prices, off_peak


def loop_apply_scenario(ds: Dataset, sc, at_state=None) -> Dataset:
    """``apply_scenario`` customer by customer: each base demand times its
    factor in the at_state row of the compiled event, a customer whose
    factor is 1 kept as it is, and the first demand driven to zero or below,
    or past the float range, an error."""
    if at_state is None and isinstance(sc.scope, int):
        at_state = sc.scope
    if at_state is None:
        if any(isinstance(p, Mapping) for p in sc.perturbations.values()):
            raise ValueError(
                f"scenario {sc.label!r} has per-state perturbations; "
                "pass at_state to pick the state to realize"
            )
        at_state = next(iter(select_states(ds.profile, sc.scope)), ds.profile.states[0]).index
    row = event_multipliers(sc, ds)[ds.profile.states.index(ds.profile.state(at_state))]
    customers = []
    for c, factor in zip(ds.customers, row.tolist()):
        demand = c.base_demand * factor
        if not 0 < demand < math.inf:
            raise ValueError(
                f"scenario {sc.label!r} drives demand of {c.id} to {demand} kW"
            )
        customers.append(replace(c, base_demand=demand) if factor != 1.0 else c)
    label = f"{ds.label}+{sc.label}" if ds.label else sc.label
    return replace(ds, table=CustomerTable.from_customers(customers), label=label)


def blocked_event_multipliers(sc, ds: Dataset) -> np.ndarray:
    """``event_multipliers`` with the perturbed customers grouped into blocks
    by the key order of their per-state maps, one fancy-indexed write per
    block; a uniform fraction is the block keyed None, and a draw array over
    the dataset's own customers is one block as it is."""
    states = ds.profile.states
    row_of = {s.index: r for r, s in enumerate(states)}
    scope_rows = [row_of[s.index] for s in select_states(ds.profile, sc.scope)]
    ids = ds.table.ids
    event = sc.perturbations
    blocks: dict = {}
    if isinstance(event, _EventDraws) and event.ids == ids:
        blocks[event.states] = (np.arange(len(ids)), event.draws)
    else:
        column_of = {cid: j for j, cid in enumerate(ids)}
        unknown = sorted(set(event) - column_of.keys())
        if unknown:
            raise ValueError(f"scenario {sc.label!r} perturbs unknown customer ids: {unknown}")
        for cid, p in event.items():
            keys, values = (tuple(p), p.values()) if isinstance(p, Mapping) else (None, (p,))
            cols, block = blocks.setdefault(keys, ([], []))
            cols.append(column_of[cid])
            block.extend(values)
    factors = np.ones((len(states), len(ids)))
    strays: dict = {}
    for keys, (cols, block) in blocks.items():
        fractions = np.asarray(block, dtype=float).reshape(len(cols), -1)
        if keys is None:
            rows, picked = scope_rows, [0] * len(scope_rows)
        else:
            strays.update((t, None) for t in keys if t not in row_of)
            picked = [i for i, t in enumerate(keys) if row_of.get(t) in scope_rows]
            rows = [row_of[keys[i]] for i in picked]
        factors[np.ix_(rows, cols)] = 1.0 + fractions[:, picked].T
    if strays:
        raise ValueError(
            f"scenario {sc.label!r} perturbs states not in the profile: {list(strays)}"
        )
    return factors


def generator_scenario_deltas(base: Dataset, perturbed: Dataset, state_index: int, category):
    """``scenario_deltas`` with each row's four percentages computed by a
    scalar formula, customer by customer."""
    b_state = base.profile.state(state_index)
    p_state = perturbed.profile.state(state_index)
    if not (b_state.is_peak and p_state.is_peak):
        raise ValueError(f"state {state_index} is not a peak state")
    if b_state.mcp != p_state.mcp or b_state.load_factor != p_state.load_factor:
        raise ValueError("base and perturbed datasets disagree on the state itself")
    ids = base.table.ids_in(category)
    if ids != perturbed.table.ids_in(category):
        raise ValueError("base and perturbed datasets list different customers")
    if not ids:
        raise ValueError(f"no customers in category {category.value}")
    kp = base.profit_factor(category)
    if kp != perturbed.profit_factor(category):
        raise ValueError("base and perturbed datasets disagree on the profit factor")

    d_base = category_demands(base, category, b_state)
    d_pert = category_demands(perturbed, category, p_state)
    prices_base = on_peak_prices(d_base, kp, b_state.mcp)
    prices_pert = on_peak_prices(d_pert, kp, p_state.mcp)
    dc_base = d_base / d_base.sum()
    dc_pert = d_pert / d_pert.sum()

    def pct(new: float, old: float) -> float:
        return 100.0 * (new - old) / old

    rows = [
        (
            pct(d_pert[i], d_base[i]),
            pct(prices_pert[i], prices_base[i]),
            pct(prices_pert[i] * d_pert[i], prices_base[i] * d_base[i]),
            pct(dc_pert[i], dc_base[i]),
        )
        for i in range(len(ids))
    ]
    columns = [np.array(column, dtype=float) for column in zip(*rows)]
    financials = financial_summary(perturbed, state_index, category)
    return ScenarioDeltas(state_index, category, tuple(ids), *columns, financials)


def loop_prefix_mismatches(table: CustomerTable) -> dict[int, str]:
    """The validation id-prefix check, id by id: the pattern runs where an
    id's first character is not its category's letter."""
    letters = [cat.prefix for cat in _BY_CODE]
    out = {}
    for j, (cid, k) in enumerate(zip(table.ids, table.codes.tolist())):
        if cid[:1] != letters[k]:
            m = _PREFIXED_ID.match(cid)
            if m:
                out[j] = m.group(1)
    return out


def loop_dr_event(ds: Dataset, max_reduction, seed, symmetric=False) -> dict:
    """Random event perturbations drawn customer by customer, then by peak state."""
    rng = np.random.default_rng(seed)
    peak = ds.profile.peak_indices
    out = {}
    for c in ds.customers:
        if symmetric:
            draws = rng.uniform(-max_reduction, max_reduction, size=len(peak))
        else:
            draws = -rng.uniform(0.0, max_reduction, size=len(peak))
        out[c.id] = {t: float(e) for t, e in zip(peak, draws)}
    return out


# --- per-cell oracles for the table writers ---------------------------------

def round2_reference(value: float) -> str:
    """A CSV money or percentage cell: the shortest repr of the value, to
    cents, ties away from zero, with a zero printed without its sign."""
    cell = Decimal(repr(float(value))).quantize(Decimal("0.01"), ROUND_HALF_UP)
    if cell == 0:
        cell = abs(cell)
    return str(cell)


def _reference_finite(table, key: str, values) -> np.ndarray:
    x = np.asarray(values, dtype=float)
    if not np.isfinite(x).all():
        bad = x[~np.isfinite(x)][0]
        raise ValueError(f"table {table.name}, column {key}: non-finite value {bad}")
    return x


def _reference_quote(cell: str) -> str:
    """A CSV text cell as RFC 4180 writes it: quoted, with each quote
    doubled, when it holds a comma, a quote, a CR or an LF."""
    if any(c in cell for c in ',"\r\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _reference_column(table, key: str, kind: str, values) -> list[str]:
    """One CSV column cell by cell: None prints empty, "int" and "str" cells
    through str and ``_reference_quote``, "num" to 10 significant digits,
    money through the Decimal rule."""
    if not isinstance(values, np.ndarray) and None in values:
        present = iter(
            _reference_column(table, key, kind, [v for v in values if v is not None])
        )
        return ["" if v is None else next(present) for v in values]
    if kind in ("int", "str"):
        return [_reference_quote(str(v)) for v in values]
    x = _reference_finite(table, key, values)
    if kind == "num":
        return list(map("{:.10g}".format, x.tolist()))
    try:
        return list(map(round2_reference, x.tolist()))
    except InvalidOperation:
        raise ValueError(
            f"table {table.name}, column {key}: value too large to round to cents"
        ) from None


def flatten_table(table):
    """A grid table as the flat table of the same rows, built row by row:
    each row of each block takes its row's keys, its block's keys and its
    own cells. Array columns stay arrays of their dtype, and others, ``Coded``
    columns among them, become lists."""
    r, b = table.row_keys, table.row_keys + table.block_keys
    row_keys, block_keys, cells = table.columns[:r], table.columns[r:b], table.columns[b:]
    blocks = len(block_keys[0][2]) if block_keys else 1
    if row_keys:
        rows = len(row_keys[0][2])
    else:
        rows = len(cells[0][2]) // blocks if cells and blocks else 0
    flat = [[] for _ in table.columns]
    for block in range(blocks):
        for row in range(rows):
            line = [
                *(values[row] for _, _, values in row_keys),
                *(values[block] for _, _, values in block_keys),
                *(values[block * rows + row] for _, _, values in cells),
            ]
            for column, cell in zip(flat, line, strict=True):
                column.append(cell)
    return Table(table.name, tuple(
        (key, kind, np.array(column, dtype=values.dtype) if isinstance(values, np.ndarray) else column)
        for (key, kind, values), column in zip(table.columns, flat)
    ))


def table_csv_reference(table) -> str:
    """A table as CSV, one string per cell and one join per row, with
    header and text cells quoted as RFC 4180 asks."""
    cells = [_reference_column(table, *column) for column in table.columns]
    header = ",".join(_reference_quote(key) for key, _, _ in table.columns)
    lines = [header, *map(",".join, zip(*cells, strict=True))]
    return "\n".join(lines) + "\n"


def table_json_reference(table) -> str:
    """A table as JSON: a dict per row, encoded by ``json.dumps``."""
    columns = []
    for key, kind, values in table.columns:
        if isinstance(values, np.ndarray):
            values = _reference_finite(table, key, values).tolist()
        elif kind not in ("int", "str"):
            _reference_finite(table, key, [v for v in values if v is not None])
        columns.append(values)
    keys = [key for key, _, _ in table.columns]
    rows = [dict(zip(keys, row)) for row in zip(*columns, strict=True)]
    doc = {"table": table.name, "rows": rows}
    return json.dumps(doc, indent=2) + "\n"


# --- row-by-row oracles for the columnar customer parser and validation -----

def _loop_rows(text: str, header: tuple[str, ...], source: str):
    """Yield (line_number, row) for a CSV body after checking the header."""
    reader = csv.reader(io.StringIO(text))
    try:
        first = next(reader)
    except StopIteration:
        raise ParseError(
            f"missing header; expected {','.join(header)}", source=source, line=1
        ) from None
    if tuple(cell.strip() for cell in first) != header:
        raise ParseError(
            f"bad header {','.join(first)!r}; expected {','.join(header)}",
            source=source,
            line=1,
        )
    while True:
        try:
            row = next(reader, None)
        except csv.Error as exc:
            raise ParseError(
                f"unreadable CSV: {exc}", source=source, line=reader.line_num
            ) from None
        if row is None:
            return
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(header):
            raise ParseError(
                f"expected {len(header)} fields, got {len(row)}",
                source=source,
                line=reader.line_num,
            )
        yield reader.line_num, [cell.strip() for cell in row]


def loop_parse_customers(text: str, source: str = "<string>") -> list[Customer]:
    """The customers table read row by row, each row checked in turn: field
    count, empty id, duplicate id, category, number, then a base demand
    that is not positive or not finite."""
    customers: list[Customer] = []
    seen: set[str] = set()
    for line, (cid, cat_text, demand_text) in _loop_rows(text, CUSTOMERS_HEADER, source):
        if not cid:
            raise ParseError("empty customer id", source=source, line=line, field="id")
        if cid in seen:
            raise ParseError(
                f"duplicate customer id {cid!r}", source=source, line=line, field="id"
            )
        seen.add(cid)
        try:
            category = Category.parse(cat_text)
        except ValueError as exc:
            raise ParseError(str(exc), source=source, line=line, field="category") from None
        try:
            demand = float(demand_text)
        except ValueError:
            raise ParseError(
                f"not a number: {demand_text!r}",
                source=source,
                line=line,
                field="base_demand_kw",
            ) from None
        if demand <= 0 or not math.isfinite(demand):
            rule = "> 0" if demand <= 0 else "finite"
            raise ParseError(
                f"base demand must be {rule}, got {demand}",
                source=source,
                line=line,
                field="base_demand_kw",
            )
        customers.append(Customer(id=cid, category=category, base_demand=demand))
    return customers


_LOOP_PREFIXED_ID = re.compile(r"^([RCI])\d+$")


def loop_customer_violations(ds: Dataset) -> list[Violation]:
    """The customer and category findings of ``validate_dataset``, customer by
    customer and config by config, in the order validation reports them."""
    out: list[Violation] = []
    seen_ids: set[str] = set()
    for c in ds.customers:
        tag = f"customer {c.id}"
        if c.base_demand <= 0 or not math.isfinite(c.base_demand):
            rule = "> 0" if c.base_demand <= 0 else "finite"
            out.append(Violation(tag, f"base demand must be {rule}, got {c.base_demand}"))
        if c.id in seen_ids:
            out.append(Violation(tag, "duplicate customer id"))
        seen_ids.add(c.id)
        m = _LOOP_PREFIXED_ID.match(c.id)
        if m and m.group(1) != c.category.prefix:
            out.append(
                Violation(
                    tag,
                    f"id prefix {m.group(1)!r} does not match category "
                    f"{c.category.value!r}",
                )
            )
    seen_categories: set[Category] = set()
    for cfg in ds.categories:
        tag = f"category {cfg.category.value}"
        if cfg.category in seen_categories:
            out.append(Violation(tag, "duplicate category configuration"))
        seen_categories.add(cfg.category)
        if not 0.0 <= cfg.profit_factor < 1.0:
            out.append(
                Violation(tag, f"profit factor must be in [0, 1), got {cfg.profit_factor}")
            )
        if not any(c.category == cfg.category for c in ds.customers):
            out.append(Violation(tag, "configured category has no customers"))
    for c in ds.customers:
        if c.category not in seen_categories:
            out.append(
                Violation(
                    f"customer {c.id}", f"no configuration for category {c.category.value}"
                )
            )
    return out


def feeder_csv(n: int, seed: int) -> str:
    """Customers CSV of the n-customer feeder the benchmark generates for a
    seed: the bundled 106/48/23 mix split by largest remainder, R/C/I-prefixed
    ids, demands at 0.1 kW resolution within each category's bundled range,
    and shuffled rows."""
    rng = np.random.default_rng(seed)
    mix = (("residential", "R", 106, 60, 180), ("commercial", "C", 48, 150, 450),
           ("industrial", "I", 23, 250, 920))
    weights = np.array([weight for _, _, weight, _, _ in mix], dtype=float)
    exact = n * weights / weights.sum()
    counts = np.floor(exact).astype(int)
    for i in np.argsort(-(exact - counts), kind="stable")[: n - counts.sum()]:
        counts[i] += 1
    rows, kws = [], []
    for (name, prefix, _, lo, hi), count in zip(mix, counts.tolist()):
        rows += [(f"{prefix}{i}", name) for i in range(1, count + 1)]
        kws.append(rng.integers(lo, hi, size=count, endpoint=True) / 10.0)
    base = np.concatenate(kws)
    order = rng.permutation(n)
    lines = [f"{rows[i][0]},{rows[i][1]},{base[i]:.1f}" for i in order]
    return "id,category,base_demand_kw\n" + "".join(line + "\n" for line in lines)
