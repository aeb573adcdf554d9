"""Demand-linked price signals and economic-balance accounting.

During peak states each customer of a category pays a unit price
proportional to their own demand, scaled so that the category's billing
exactly recovers the energy purchase cost plus the assured margin:

    price_j = (1 + profit_factor) * mcp * demand_j * total / sum_sq

where ``total`` is the category's demand at the state and ``sum_sq`` the sum
of squared demands. Customers demanding more than the group's
contraharmonic mean (sum_sq / total) pay more than the flat benchmark
price; lighter customers pay less, which is the demand-response incentive.

During off-peak states every customer of a category pays one uniform
price: the demand-weighted average market price over the off-peak window,
marked up by the same profit factor, so the balance holds over the window
as a whole rather than state by state.

``price_grid`` prices the (state x customer) rows a caller asks for, in
profile and dataset order. It builds them in one step, ``lf * base`` times
the demand-response event ``M`` (``scenario.event_multipliers``) when there
is one; each category's off-peak window is summed from rows built again
from its scaled base demands. ``on_peak_prices`` runs once per (category,
requested peak state) and ``off_peak_price`` once per category window, on
the values the per-customer formulas above would see, so prices are
bitwise those of pricing each group from its customers one by one.
``build_schedule`` keeps the whole price matrix as a ``PriceSchedule``.

Every sum is taken on its values times ``2**-e``, ``e`` the binary exponent
of the largest value (for rows not built yet, of a bound on it), so no sum
overflows or loses bits to subnormal squares. Scaling by a power of two is
exact, so prices keep every bit wherever the plain sums fit, and the
balance holds at any magnitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .domain import Category, CategoryConfig, Customer, CustomerTable, Dataset, DayProfile
from .domain import SystemState, select_states

if TYPE_CHECKING:
    from .scenario import Scenario

__all__ = [
    "DegenerateGroupError",
    "DegenerateWindowError",
    "PriceSchedule",
    "FinancialSummary",
    "fixed_price",
    "on_peak_prices",
    "proportionality_constant",
    "off_peak_price",
    "price_grid",
    "build_schedule",
    "verify_ebe",
]


class DegenerateGroupError(ValueError):
    """A pricing group has no demand (sum of squared demands is zero)."""


class DegenerateWindowError(ValueError):
    """A pricing window carries no energy, so no average price exists."""


def _as_demand_vector(demands) -> np.ndarray:
    d = np.asarray(demands, dtype=float)
    if d.ndim != 1:
        raise ValueError(f"expected a 1-D demand vector, got shape {d.shape}")
    if d.size == 0:
        raise DegenerateGroupError("empty demand group")
    if np.any(d < 0):
        raise ValueError("demands must be >= 0")
    _check_finite(d, "demands")
    return d


def _check_finite(values: np.ndarray, name: str) -> None:
    finite = np.isfinite(values)
    if not finite.all():
        raise ValueError(f"{name} must be finite, got {values[~finite][0]}")


def _check_price_inputs(mcp: float, profit_factor: float) -> None:
    if mcp <= 0:
        raise ValueError(f"mcp must be > 0, got {mcp}")
    if not math.isfinite(mcp):
        raise ValueError(f"mcp must be finite, got {mcp}")
    if not 0.0 <= profit_factor < 1.0:
        raise ValueError(f"profit factor must be in [0, 1), got {profit_factor}")


def _group_sums(
    demands, profit_factor: float, mcp: float
) -> tuple[np.ndarray, float, float, int]:
    """One pricing group's checked demand vector, its total, its sum of
    squares and the exponent ``shift`` they are scaled by: the three are
    those of the group times ``2**-shift``.

    ``shift`` is the binary exponent of the largest demand, so the scaled
    group's largest demand lies in [0.5, 1), exactly, and neither the
    squares nor their sums overflow or lose bits. Raises
    DegenerateGroupError when every demand is zero.
    """
    _check_price_inputs(mcp, profit_factor)
    d = _as_demand_vector(demands)
    top = float(d.max())
    if top == 0.0:
        raise DegenerateGroupError("every demand in the group is zero")
    shift = math.frexp(top)[1]
    d = np.ldexp(d, -shift)
    return d, float(d.sum()), float(np.dot(d, d)), shift


def fixed_price(mcp: float, profit_factor: float) -> float:
    """Flat benchmark price: market price marked up by the profit factor."""
    _check_price_inputs(mcp, profit_factor)
    return (1.0 + profit_factor) * mcp


def on_peak_prices(demands, profit_factor: float, mcp: float) -> np.ndarray:
    """Per-customer unit prices (Rs/kWh) for one group at one peak state.

    Prices are proportional to each customer's demand; a zero-demand entry
    prices at zero. Raises DegenerateGroupError when the whole group has no
    demand, since no price can recover the (zero) purchase cost ratio.
    """
    d, total, sum_sq, _ = _group_sums(demands, profit_factor, mcp)
    return (1.0 + profit_factor) * mcp * (total / sum_sq) * d


def proportionality_constant(demands, profit_factor: float, mcp: float) -> float:
    """Scale factor linking unit price to demand share.

    Each on-peak price equals this constant times the customer's share of
    group demand: (1 + profit_factor) * mcp * total**2 / sum_sq.
    """
    _, total, sum_sq, _ = _group_sums(demands, profit_factor, mcp)
    return (1.0 + profit_factor) * mcp * total * total / sum_sq


def off_peak_price(demands, mcps, profit_factor: float) -> float:
    """Uniform off-peak price for one group over a window of states.

    ``demands`` is either a matrix (state rows, customer columns) or a
    vector of per-state total demands; ``mcps`` holds the matching per-state
    market prices. The result is the demand-weighted average market price
    marked up by the profit factor, so the group's billing over the window
    equals purchase cost plus margin. The demands are summed scaled by the
    binary exponent of the largest one, by the rule of ``_group_sums``.
    """
    if not 0.0 <= profit_factor < 1.0:
        raise ValueError(f"profit factor must be in [0, 1), got {profit_factor}")
    d = np.asarray(demands, dtype=float)
    m = np.asarray(mcps, dtype=float)
    if m.ndim != 1 or m.size == 0:
        raise ValueError("mcps must be a non-empty 1-D sequence")
    if np.any(m <= 0):
        raise ValueError("mcps must be > 0")
    _check_finite(m, "mcps")
    if d.ndim == 1:
        d = d[:, None]  # one total per state
    elif d.ndim != 2:
        raise ValueError(f"expected 1-D or 2-D demands, got shape {d.shape}")
    if d.shape[0] != m.size:
        raise ValueError(f"demands cover {d.shape[0]} states but {m.size} mcps given")
    if np.any(d < 0):
        raise ValueError("demands must be >= 0")
    _check_finite(d, "demands")
    top = float(d.max(initial=0.0))
    if top == 0.0:
        raise DegenerateWindowError("window carries no energy")
    totals = np.ldexp(d, -math.frexp(top)[1]).sum(axis=1)
    return (1.0 + profit_factor) * float(np.dot(totals, m)) / float(totals.sum())


@dataclass(frozen=True, eq=False)
class PriceSchedule:
    """Complete day-ahead price schedule for a dataset's table and profile.

    ``prices`` is ``price_grid``'s read-only (state x customer) matrix over
    ``profile`` and ``table``, priced under the ``categories``'
    configurations; ``off_peak`` maps each category to its window price, and
    ``provenance`` records the inputs. ``on_peak``, a dict from
    (customer id, state index) to the price at that peak state, is built
    from the peak rows on first read. Treat instances as immutable.
    """

    table: CustomerTable
    profile: DayProfile
    categories: tuple[CategoryConfig, ...]
    prices: np.ndarray
    off_peak: Mapping[Category, float]
    provenance: str = ""

    def __post_init__(self) -> None:
        self.prices.setflags(write=False)

    @cached_property
    def on_peak(self) -> dict[tuple[str, int], float]:
        """Peak prices by category, then state, then column."""
        peak = [(r, s.index) for r, s in enumerate(self.profile.states) if s.is_peak]
        out: dict[tuple[str, int], float] = {}
        for cols in self.table.columns.values():
            ids = [self.table.ids[j] for j in cols.tolist()]
            for r, index in peak:
                out.update(zip([(cid, index) for cid in ids], self.prices[r, cols].tolist()))
        return out

    def price(self, customer: Customer, state: SystemState) -> float:
        """Unit price (Rs/kWh) this customer pays at this state."""
        if state.is_peak:
            try:
                return self.on_peak[(customer.id, state.index)]
            except KeyError:
                raise KeyError(
                    f"schedule has no on-peak price for {customer.id} "
                    f"at state {state.index}"
                ) from None
        try:
            return self.off_peak[customer.category]
        except KeyError:
            raise KeyError(
                f"schedule has no off-peak price for category {customer.category.value}"
            ) from None


@dataclass(frozen=True)
class FinancialSummary:
    """Purchase cost, revenue, and margin over some scope of the day.

    ``profit_fraction`` is profit over purchase cost, or None when the
    scope carries no purchase cost (empty scope), where the fraction is
    undefined.
    """

    purchase_cost: float
    revenue: float
    profit: float
    profit_fraction: float | None
    scope: str


def price_grid(
    ds: Dataset, dr_event: Scenario | None = None, states: Sequence[int] | None = None
) -> tuple[np.ndarray, np.ndarray, dict[Category, float]]:
    """Demand and unit price of every customer at the requested states.

    Returns ``(demand, prices, off_peak)``: a demand matrix and a price
    matrix of (state x customer) layout, with one row per state index of
    ``states`` in the order given (every state, in profile order, when
    ``states`` is None), and each category's off-peak window price, in the
    order of ``ds.table.columns`` (config order for the datasets
    ``assemble_dataset`` builds). Each demand row is bitwise that row of
    ``domain.demand_grid``, shaped by the demand-response event ``dr_event``
    (compiled once by ``scenario.event_multipliers``) when one is given. A
    peak row holds ``on_peak_prices`` of each category's columns; an
    off-peak row holds the category's window price.

    The requested rows are built in one step and each group is priced from
    a contiguous copy of its columns. A peak state not asked for is not
    priced, and every off-peak row is built again per category, from its
    scaled base demands, to be summed into its window. Raises KeyError for
    an index that is not a state of the profile or a category with no
    configuration, ValueError for a repeated index, and DegenerateGroupError
    or DegenerateWindowError with the offending category and state named
    when a group cannot be priced.
    """
    profile = ds.profile
    if states is None:
        rows: Sequence[int] = range(len(profile.states))
    else:
        rows = [profile.row(index) for index in states]
        if len(set(rows)) < len(rows):
            raise ValueError(f"states must not repeat, got {list(states)}")
    multipliers = None
    if dr_event is not None:
        from .scenario import event_multipliers  # deferred: scenario imports pricing

        multipliers = event_multipliers(dr_event, ds)
    lf = np.array([s.load_factor for s in profile.states], dtype=float)
    base = ds.table.base
    demand = lf[rows, None] * base
    out = {r: k for k, r in enumerate(rows)}
    if multipliers is not None:
        for r, k in out.items():
            demand[k] *= multipliers[r]
    prices = np.empty_like(demand)
    off_rows = [k for r, k in out.items() if not profile.states[r].is_peak]
    off_mcps = np.array([s.mcp for s in profile.off_peak_states], dtype=float)
    # a category's demands are below 2**(the exponent of its largest base
    # demand + grow); its window is summed at that scale, so no total overflows
    grow = math.frexp(lf.max())[1]
    if multipliers is not None:
        grow += math.frexp(multipliers.max(initial=0.0))[1]
    off_peak: dict[Category, float] = {}
    for category, cols in ds.table.columns.items():
        kp = ds.config_for(category).profit_factor
        group = np.ldexp(base[cols], -(math.frexp(base[cols].max())[1] + grow))
        totals = []
        for r, state in enumerate(profile.states):
            k = out.get(r)
            if not state.is_peak:
                d = lf[r] * group if multipliers is None else lf[r] * group * multipliers[r, cols]
                totals.append(d.sum())
            elif k is not None:
                try:
                    prices[k, cols] = on_peak_prices(demand[k, cols], kp, state.mcp)
                except DegenerateGroupError as exc:
                    raise DegenerateGroupError(
                        f"category {category.value} at state {state.index}: {exc}"
                    ) from None
        try:
            off_peak[category] = off_peak_price(totals, off_mcps, kp)
        except DegenerateWindowError as exc:
            raise DegenerateWindowError(
                f"category {category.value} off-peak window: {exc}"
            ) from None
        prices[np.ix_(off_rows, cols)] = off_peak[category]
    return demand, prices, off_peak


def build_schedule(ds: Dataset, dr_event: Scenario | None = None) -> PriceSchedule:
    """Price every customer at every state of the day.

    The schedule holds ``price_grid(ds, dr_event)``'s price matrix and
    window prices. Raises DegenerateGroupError or DegenerateWindowError with
    the offending category and state named when a group cannot be priced.
    """
    _, prices, off_peak = price_grid(ds, dr_event)
    factors = ", ".join(
        f"{cfg.category.value}={cfg.profit_factor}" for cfg in ds.categories
    )
    provenance = (
        f"dataset={ds.label or 'unlabelled'}; profile={ds.profile.source or 'unlabelled'}; "
        f"profit_factors=({factors}); peak_states={list(ds.profile.peak_indices)}"
    )
    if dr_event is not None:
        provenance += f"; event={dr_event.label}"
    return PriceSchedule(ds.table, ds.profile, ds.categories, prices, off_peak, provenance)


def verify_ebe(
    ds: Dataset,
    schedule: PriceSchedule,
    category: Category | None = None,
    states: str | int = "day",
) -> FinancialSummary:
    """Check the economic balance by re-billing a scope from schedule prices.

    Purchase cost is market price times demand summed over the scope;
    revenue is schedule price times demand. For a single category over any
    peak state, over the off-peak window as a whole, or over the whole day,
    the profit fraction lands on that category's profit factor; the sums
    here are computed independently of the closed form so tests can assert
    that identity.
    """
    selected = select_states(ds.profile, states)
    customers = ds.customers if category is None else ds.customers_in(category)
    purchase = 0.0
    revenue = 0.0
    for state in selected:
        for customer in customers:
            demand = customer.base_demand * state.load_factor
            purchase += state.mcp * demand
            revenue += schedule.price(customer, state) * demand
    return _summary(purchase, revenue, category, states)


def _summary(
    purchase: float, revenue: float, category: Category | None, states: str | int
) -> FinancialSummary:
    """The summary of one scope's purchase cost and revenue, labelled
    ``category/states`` (``all`` for every category)."""
    profit = revenue - purchase
    return FinancialSummary(
        purchase_cost=purchase,
        revenue=revenue,
        profit=profit,
        profit_fraction=profit / purchase if purchase > 0 else None,
        scope=f"{category.value if category else 'all'}/{states}",
    )
