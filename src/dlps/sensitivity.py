"""Differential properties of the demand-linked price signal.

For groups with many customers, no single demand dominates the squared-sum
term, and the unit price becomes effectively linear in the customer's own
demand with slope (1 + profit_factor) * mcp * total / sum_sq. Two useful
consequences are checked here numerically rather than assumed:

* the proportionality constant equals that slope times total demand, an
  exact algebraic identity at any group size;
* a relative change in one customer's demand moves their unit price by
  almost the same relative amount (unit self-elasticity), with a gap that
  shrinks as the group grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .pricing import _as_demand_vector, _group_sums, on_peak_prices, proportionality_constant

__all__ = [
    "SensitivityReport",
    "price_demand_slope",
    "proportionality_identity_gap",
    "elasticity_probe",
    "sensitivity_report",
]


def price_demand_slope(demands, profit_factor: float, mcp: float) -> float:
    """Slope of unit price against own demand (Rs/kWh per kW).

    Computed as (1 + profit_factor) * mcp * total / sum_sq; exact in the
    many-customer limit where one customer's demand barely moves the
    group aggregates.
    """
    _, total, sum_sq, shift = _group_sums(demands, profit_factor, mcp)
    return math.ldexp((1.0 + profit_factor) * mcp * total / sum_sq, -shift)


def proportionality_identity_gap(demands, profit_factor: float, mcp: float) -> float:
    """Relative gap between the proportionality constant and slope * total demand.

    Zero up to floating-point rounding for every valid group; kept as a
    computed check rather than an assumption.
    """
    d = _as_demand_vector(demands)
    alpha = proportionality_constant(d, profit_factor, mcp)
    slope = price_demand_slope(d, profit_factor, mcp)
    return abs(alpha - slope * float(d.sum())) / alpha


def elasticity_probe(
    demands,
    target_index: int,
    perturbation: float,
    profit_factor: float,
    mcp: float,
) -> float:
    """Gap (percentage points) between relative price and demand change.

    Scales one customer's demand by (1 + perturbation), reprices the group
    exactly, and returns |%change in that customer's price - %change in
    demand|. For large groups the gap tends to zero; for a group of one it
    is largest, since the customer then is the whole aggregate.
    """
    d = _as_demand_vector(demands)
    if d.size < 2:
        raise ValueError("elasticity probe needs a group of at least 2 customers")
    if not 0 <= target_index < d.size:
        raise ValueError(f"target index {target_index} out of range for group of {d.size}")
    if not -0.5 <= perturbation <= 0.5:
        raise ValueError(f"perturbation must be within [-0.5, 0.5], got {perturbation}")
    if d[target_index] <= 0:
        raise ValueError("target customer must have positive demand")
    before = on_peak_prices(d, profit_factor, mcp)[target_index]
    perturbed = d.copy()
    perturbed[target_index] *= 1.0 + perturbation
    after = on_peak_prices(perturbed, profit_factor, mcp)[target_index]
    price_change_pct = 100.0 * (after - before) / before
    demand_change_pct = 100.0 * perturbation
    return abs(price_change_pct - demand_change_pct)


@dataclass(frozen=True)
class SensitivityReport:
    """Slope, identity gap, and elasticity gap for one group at one state."""

    slope: float
    proportionality_gap: float
    elasticity_gap: float


def sensitivity_report(
    demands,
    profit_factor: float,
    mcp: float,
    target_index: int = 0,
    perturbation: float = 0.01,
) -> SensitivityReport:
    """Bundle the three sensitivity checks for one group at one state."""
    return SensitivityReport(
        slope=price_demand_slope(demands, profit_factor, mcp),
        proportionality_gap=proportionality_identity_gap(demands, profit_factor, mcp),
        elasticity_gap=elasticity_probe(
            demands, target_index, perturbation, profit_factor, mcp
        ),
    )
