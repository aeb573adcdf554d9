"""The published reference results for the bundled 177-customer benchmark,
and the checks ``dlps validate`` runs against them, each within a stated
tolerance."""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .domain import Category, Dataset, category_demands
from .ingest import bundled_benchmark
from .pricing import PriceSchedule, build_schedule, fixed_price, verify_ebe
from .scenario import (
    Scenario, _run_scenario, analysis_state, apply_scenario, financial_summary, preset_scenario,
)

__all__ = ["CheckResult", "run_validation"]


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
