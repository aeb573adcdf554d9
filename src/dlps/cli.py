"""Batch command-line front end.

Subcommands: ``price`` emits the day's price tables, ``scenario`` replays a
demand-change scenario and reports deltas, ``compare`` bills the same day
under flat/RTP/TOU and the demand-linked schedule, and ``validate`` runs
the reference checks of ``validation`` against the bundled benchmark. Each
table is written in the text format of ``_tables``.

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
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
from collections.abc import Sequence
from dataclasses import asdict

import numpy as np

from ._tables import Coded, Table, _table_csv, _table_json
from .comparator import SignalKind, compare_to_reference, standard_comparison
from .domain import _BY_CODE, Category, Dataset, category_demands, validate_dataset
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
from .pricing import fixed_price, price_grid
from .scenario import (
    PRESET_NAMES,
    _run_scenario,
    financial_summary,
    load_scenario,
    preset_scenario,
    random_dr_event,
)
from .validation import run_validation

__all__ = ["main"]


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
    # the flags need no input, so a bad one is reported before any is read
    if not 0.0 <= args.dr_max < 1.0:
        raise ValueError(f"--dr-max must be in [0, 1), got {args.dr_max}")
    if args.tou_multiplier < 1.0:
        raise ValueError(
            f"--tou-multiplier (the TOU peak multiplier) must be >= 1, got {args.tou_multiplier}"
        )
    ds = _load_dataset(args)
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

    # each signal's bills are read once, into the list that total() sums for
    # each category (and "all") and window, in bill order: category by
    # category, then state by state, so every sum adds the same terms in turn
    window_of = {s.index: "peak" if s.is_peak else "off_peak" for s in ds.profile.states}
    groups, totals = [], []
    for billing in comparison.billings:
        parts = {(cat, window): [] for cat in (*ds.table.columns, None)
                 for window in ("day", "peak", "off_peak")}
        for (cat, t), v in billing.by_category_state.items():
            for key in (cat, None):
                parts[key, "day"].append(v)
                parts[key, window_of[t]].append(v)
        for (cat, window), bills in parts.items():
            groups.append((billing.kind, cat, window))
            totals.append(sum(bills))
    aggregates_table = Table("aggregates", (
        ("signal", "str", [kind.value for kind, _, _ in groups]),
        ("category", "str", [cat.value if cat else "all" for _, cat, _ in groups]),
        ("window", "str", [window for _, _, window in groups]),
        ("billing_rs", "rs", totals),
    ))
    _emit([comparison_table, aggregates_table], args.out, mirrors=("comparison",))
    return 0


def cmd_validate(args) -> int:
    results = run_validation()
    passed = all(r.passed for r in results)
    if args.json:
        print(json.dumps({"passed": passed, "checks": list(map(asdict, results))}, indent=2))
    else:
        for r in results:
            print(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.detail}")
        failed = sum(1 for r in results if not r.passed)
        print(
            f"{len(results) - failed}/{len(results)} checks passed"
            + (f", {failed} failed" if failed else "")
        )
    return 0 if passed else 1


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
