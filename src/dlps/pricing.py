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

``price_grid`` prices the (state x customer) rows asked for, ``lf * base``
times a demand-response event's factors in its scope: each category's peak
rows as one block, row by row as ``on_peak_prices`` would, and its off-peak
window, summed one 1-D row at a time, in one ``off_peak_price`` call, so
prices are bitwise those of pricing each group alone. Off the peak a
price is one per category, so ``build_schedule`` prices the peak rows only
and keeps that (peak state x customer) block as a ``PriceSchedule``.

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
from .domain import _BY_CODE, SystemState, select_states

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

    ``prices`` is the read-only (peak state x customer) block of
    ``price_grid``'s rows over ``profile`` and ``table``: row k holds the
    prices at the k-th peak state of the profile, priced under the
    ``categories``' configurations. Off-peak prices are one per category,
    so ``off_peak`` maps each category to its window price; ``provenance``
    records the inputs. ``on_peak``, a dict from (customer id, state index)
    to the price at that peak state, is built from the block on first read.
    Treat instances as immutable.
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
        peak = self.profile.peak_indices
        out: dict[tuple[str, int], float] = {}
        for cols in self.table.columns.values():
            ids = [self.table.ids[j] for j in cols.tolist()]
            for k, index in enumerate(peak):
                out.update(zip([(cid, index) for cid in ids], self.prices[k, cols].tolist()))
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
    ``domain.demand_grid``; under an event ``dr_event`` only the rows of its
    scope are compiled and multiplied. A peak row holds ``on_peak_prices`` of
    each category's columns, priced as one block per category; a peak state
    not asked for is not priced. An off-peak row holds the category's window
    price; each window is summed row by row from the scaled base demands.
    Raises KeyError for an index that is not a state of the profile or a
    category with no configuration, ValueError for a repeated index, and
    otherwise the error of the first group, in category then profile order,
    that cannot be priced, naming its category and state. The states are
    checked and the event compiled here; ``_price_rows`` prices the rows.
    """
    if states is None:
        rows: Sequence[int] = range(len(ds.profile.states))
    else:
        rows = [ds.profile.row(index) for index in states]
        if len(set(rows)) < len(rows):
            raise ValueError(f"states must not repeat, got {list(states)}")
    return _price_rows(ds, rows, _event_rows(ds, dr_event))


def _event_rows(ds: Dataset, dr_event: Scenario | None) -> dict[int, np.ndarray] | None:
    """The event's demand factors at each profile row of its scope, compiled
    once; None for no event."""
    if dr_event is None:
        return None
    from .scenario import _compile_event  # deferred: scenario imports pricing

    return dict(zip(*_compile_event(dr_event, ds)))


def _load_factors(profile: DayProfile) -> np.ndarray:
    return np.array([s.load_factor for s in profile.states], dtype=float)


def _peak_rows(profile: DayProfile) -> list[int]:
    return [r for r, s in enumerate(profile.states) if s.is_peak]


def _demand_rows(ds: Dataset, rows: Sequence[int], event: dict[int, np.ndarray] | None) -> np.ndarray:
    """Demand of every customer at the given profile rows, (row x customer):
    ``lf * base``, times the event's factors on the rows of its scope."""
    demand = _load_factors(ds.profile)[rows, None] * ds.table.base
    for k, r in enumerate(rows):
        if event and r in event:
            demand[k] *= event[r]
    return demand


def _window_sums(values: np.ndarray, cols: np.ndarray, rows: Sequence[int], lf: np.ndarray,
                 event: dict[int, np.ndarray] | None) -> np.ndarray:
    """The sum of ``lf[r] * values`` at each profile row r of ``rows``, times
    the event's factors at ``cols`` on the rows of its scope: ``values`` is a
    category's (maybe scaled) base demands, at columns ``cols``. Each sum is
    one 1-D pairwise sum."""
    sums = np.empty(len(rows))
    for i, r in enumerate(rows):
        d = lf[r] * values
        if event and r in event:
            d *= event[r][cols]
        sums[i] = d.sum()
    return sums


def _price_rows(ds: Dataset, rows: Sequence[int], event: dict[int, np.ndarray] | None
                ) -> tuple[np.ndarray, np.ndarray, dict[Category, float]]:
    """``price_grid``'s ``(demand, prices, off_peak)`` at the given profile
    rows, under the compiled event."""
    profile = ds.profile
    demand = _demand_rows(ds, rows, event)
    lf = _load_factors(profile)
    # a category's demands are below 2**(the exponent of its largest base
    # demand + grow); its window is summed at that scale, so no total overflows
    grow = math.frexp(lf.max())[1]
    if event is not None:
        # every factor outside the scope is 1
        top = np.max([f.max(initial=0.0) for f in event.values()],
                     initial=0.0 if len(event) == len(lf) else 1.0)
        grow += math.frexp(top)[1]
    base = ds.table.base
    off = [r for r, s in enumerate(profile.states) if not s.is_peak]
    out = {r: k for k, r in enumerate(rows)}
    prices = np.empty_like(demand)
    # in profile order, so that the first group that cannot be priced is named
    peak = [(out[r], s) for r, s in enumerate(profile.states) if s.is_peak and r in out]
    off_rows = [k for r, k in out.items() if not profile.states[r].is_peak]
    off_mcps = np.array([s.mcp for s in profile.off_peak_states], dtype=float)
    off_peak: dict[Category, float] = {}
    for category, cols in ds.table.columns.items():
        kp = ds.config_for(category).profit_factor
        if peak:
            block = np.ix_([k for k, _ in peak], cols)
            prices[block] = _peak_prices(demand[block], kp, [s for _, s in peak], category)
        scaled = np.ldexp(base[cols], -(math.frexp(base[cols].max())[1] + grow))
        try:
            off_peak[category] = off_peak_price(_window_sums(scaled, cols, off, lf, event), off_mcps, kp)
        except DegenerateWindowError as exc:
            raise DegenerateWindowError(f"category {category.value} off-peak window: {exc}") from None
    window = np.array([off_peak.get(category, 0.0) for category in _BY_CODE])
    prices[off_rows] = window[ds.table.codes]
    return demand, prices, off_peak


def _peak_prices(block: np.ndarray, profit_factor: float, states: list[SystemState],
                 category: Category) -> np.ndarray:
    """``on_peak_prices`` of each row k of a (peak state x customer) block
    at ``states[k]``, written over the block, by ``_group_sums``' steps row by
    row. The block is checked at once; its first bad row is priced alone, to
    raise that row's error."""
    mcps = np.array([s.mcp for s in states], dtype=float)
    top = block.max(axis=1)
    ok = (block.min(axis=1) >= 0) & (top > 0) & (top < np.inf) & (mcps > 0) & (mcps < np.inf)
    ok &= 0.0 <= profit_factor < 1.0
    if not ok.all():
        k = int(np.argmin(ok))
        try:
            on_peak_prices(block[k], profit_factor, states[k].mcp)
        except DegenerateGroupError as exc:
            raise DegenerateGroupError(
                f"category {category.value} at state {states[k].index}: {exc}"
            ) from None
    d = np.ldexp(block, -np.frexp(top)[1][:, None], out=block)
    d *= ((1.0 + profit_factor) * mcps * (d.sum(axis=1) / [np.dot(r, r) for r in d]))[:, None]
    return d


def build_schedule(ds: Dataset, dr_event: Scenario | None = None) -> PriceSchedule:
    """Price every customer at every state of the day.

    The schedule holds ``price_grid(ds, dr_event, ds.profile.peak_indices)``'s
    (peak state x customer) price rows and its window prices; the demand of
    no off-peak state is built. Raises DegenerateGroupError or
    DegenerateWindowError with the offending category and state named when
    a group cannot be priced.
    """
    _, prices, off_peak = _price_rows(ds, _peak_rows(ds.profile), _event_rows(ds, dr_event))
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
