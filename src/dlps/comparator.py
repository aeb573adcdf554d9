"""Billing comparison across tariff signals: flat, RTP, TOU, and demand-linked.

The reference signals are derived from the same day the demand-linked
schedule prices, so comparisons are apples-to-apples:

* flat: one day-long price, the load-weighted mean market price, which
  makes flat billing revenue-neutral against RTP billing over the day;
* rtp: the market clearing price, state by state;
* tou: one load-weighted mean price per window (peak, off-peak), with an
  optional multiplier stressing the peak block;
* proposed: the demand-linked schedule, whose prices already embed the
  assured margin.

Billing under flat/rtp/tou optionally marks revenue up by each category's
profit factor so the retailer take matches across columns. A
demand-response event (a scenario scoped to some window) reshapes demand
inside that window only; reference signals stay as derived from the base
day, which mirrors how a utility would publish prices before the event.

Everything here works on one demand grid, ``D = lf * base * M`` with one
row per state (profile order) and one column per customer (dataset order),
from ``domain.demand_grid``, where ``M`` is the event compiled by
``scenario.event_multipliers`` (1 outside the event's scope). A signal
becomes a price matrix ``P`` of the same layout (one column for the
per-state kinds), and each category of the customer table is billed at
each state by the sum of ``P * D`` over its columns, marked up when asked;
a category with no configuration raises KeyError. The flat and TOU prices
read their per-state event-free demand totals one state row at a time.

``compare_signals`` compiles the event and builds ``D`` once for all its
signals, and ``bill_under_signal`` is its one-signal case.
``standard_comparison`` takes ``D`` and the proposed prices ``P`` from one
``pricing.price_grid`` call instead, and bills the same numbers, bit for
bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping

import numpy as np

from .domain import Category, Dataset, DayProfile, demand_grid
from .pricing import PriceSchedule, build_schedule, off_peak_price, price_grid
from .scenario import Scenario, event_multipliers

__all__ = [
    "SignalKind",
    "TariffSignal",
    "SignalBilling",
    "BillingComparison",
    "rtp_signal",
    "derive_flat",
    "derive_tou",
    "proposed_signal",
    "bill_under_signal",
    "compare_signals",
    "compare_to_reference",
    "event_schedule",
    "standard_comparison",
]


class SignalKind(str, Enum):
    FLAT = "flat"
    RTP = "rtp"
    TOU = "tou"
    PROPOSED = "proposed"


@dataclass(frozen=True)
class TariffSignal:
    """One price signal over the day.

    ``values`` maps state index to unit price for flat/rtp/tou kinds; the
    proposed kind delegates to its per-customer ``schedule`` instead.
    """

    kind: SignalKind
    values: Mapping[int, float] | None = None
    schedule: PriceSchedule | None = None

    def __post_init__(self) -> None:
        if self.kind is SignalKind.PROPOSED:
            if self.schedule is None:
                raise ValueError("proposed signal needs a price schedule")
        else:
            if self.values is None:
                raise ValueError(f"{self.kind.value} signal needs per-state values")
            if any(v <= 0 for v in self.values.values()):
                raise ValueError("signal prices must be > 0")


def rtp_signal(profile: DayProfile) -> TariffSignal:
    """Real-time price signal: the market clearing price at each state."""
    return TariffSignal(
        kind=SignalKind.RTP, values={s.index: s.mcp for s in profile.states}
    )


def derive_flat(ds: Dataset) -> TariffSignal:
    """Day-long flat price: load-weighted mean of the market price.

    Weighting by total demand makes flat billing over the whole day equal
    RTP billing over the whole day for the same demands.
    """
    mcps = np.array([s.mcp for s in ds.profile.states], dtype=float)
    # at zero margin the off-peak rule is the load-weighted mean market price
    value = off_peak_price(_day_totals(ds), mcps, 0.0)
    return TariffSignal(
        kind=SignalKind.FLAT, values={s.index: value for s in ds.profile.states}
    )


def derive_tou(ds: Dataset, peak_multiplier: float = 1.0) -> TariffSignal:
    """Two-block time-of-use price: one load-weighted mean per window.

    At multiplier 1.0 each block is revenue-neutral against RTP within its
    own window; larger multipliers stress the peak block. The peak block
    must not price below the off-peak block.
    """
    if peak_multiplier < 1.0:
        raise ValueError(f"peak multiplier must be >= 1, got {peak_multiplier}")
    totals = _day_totals(ds)
    mcps = np.array([s.mcp for s in ds.profile.states], dtype=float)
    peak = np.array([s.is_peak for s in ds.profile.states])
    peak_value = peak_multiplier * off_peak_price(totals[peak], mcps[peak], 0.0)
    off_value = off_peak_price(totals[~peak], mcps[~peak], 0.0)
    if peak_value < off_value:
        raise ValueError(
            f"time-of-use peak price {peak_value:.6g} fell below "
            f"off-peak price {off_value:.6g}"
        )
    values = {
        s.index: (peak_value if s.is_peak else off_value) for s in ds.profile.states
    }
    return TariffSignal(kind=SignalKind.TOU, values=values)


def _day_totals(ds: Dataset) -> np.ndarray:
    """Event-free demand of each state summed over every customer, one state
    at a time; bitwise ``demand_grid(ds).sum(axis=1)``, whose rows are
    contiguous."""
    base = ds.table.base
    return np.array([(s.load_factor * base).sum() for s in ds.profile.states])


def proposed_signal(schedule: PriceSchedule) -> TariffSignal:
    """Wrap a demand-linked price schedule as a comparable signal."""
    return TariffSignal(kind=SignalKind.PROPOSED, schedule=schedule)


@dataclass(frozen=True)
class SignalBilling:
    """Billing (Rs) under one signal, keyed by (category, state index)."""

    kind: SignalKind
    with_profit: bool
    by_category_state: Mapping[tuple[Category, int], float]

    def total(
        self,
        categories: Iterable[Category] | None = None,
        states: Iterable[int] | None = None,
    ) -> float:
        """Aggregate billing; None selects everything, empty selects nothing."""
        cats = None if categories is None else set(categories)
        idx = None if states is None else set(states)
        return sum(
            v
            for (cat, t), v in self.by_category_state.items()
            if (cats is None or cat in cats) and (idx is None or t in idx)
        )


def _signal_prices(ds: Dataset, signal: TariffSignal) -> np.ndarray:
    """Unit prices per (state, customer) on the demand grid's layout.

    Per-state kinds give one column that broadcasts over customers; the
    proposed kind reads every billed customer's price from its schedule.
    """
    states = ds.profile.states
    if signal.kind is not SignalKind.PROPOSED:
        assert signal.values is not None
        try:
            return np.array([[signal.values[s.index]] for s in states], dtype=float)
        except KeyError as exc:
            raise KeyError(
                f"{signal.kind.value} signal has no price for state {exc.args[0]}"
            ) from None
    assert signal.schedule is not None
    price = signal.schedule.price  # raises KeyError naming the missing cell
    prices = np.zeros((len(states), len(ds.table)))
    for cols in ds.table.columns.values():
        customers = [ds.customers[j] for j in cols.tolist()]
        for r, state in enumerate(states):
            if state.is_peak:
                prices[r, cols] = [price(c, state) for c in customers]
            else:
                prices[r, cols] = price(customers[0], state)
    return prices


def bill_under_signal(
    ds: Dataset,
    signal: TariffSignal,
    with_profit: bool = True,
    dr_event: Scenario | None = None,
) -> SignalBilling:
    """Bill every (category, state) cell of the day under one signal.

    Reference signals (flat/rtp/tou) are marked up by each category's
    profit factor when ``with_profit`` is set, putting them on the same
    retailer-revenue footing as the proposed signal, which embeds its
    margin already. A demand-response event scales each customer's demand
    inside the event's scope before billing. It is the one column of
    ``compare_signals(ds, [signal], with_profit, dr_event)``.
    """
    return compare_signals(ds, [signal], with_profit, dr_event).billings[0]


def _bill(
    ds: Dataset, kind: SignalKind, prices: np.ndarray, demand: np.ndarray, with_profit: bool
) -> SignalBilling:
    """Billing of every category of ``ds.table.columns`` at every state, from
    a price matrix and the demand grid it bills. Raises KeyError for a
    category with no configuration."""
    spend = prices * demand
    out: dict[tuple[Category, int], float] = {}
    for category, cols in ds.table.columns.items():
        kp = ds.profit_factor(category)
        markup = 1.0 + kp if (with_profit and kind is not SignalKind.PROPOSED) else 1.0
        cells = spend[:, cols].sum(axis=1).tolist()
        for state, cell in zip(ds.profile.states, cells):
            out[(category, state.index)] = markup * cell
    return SignalBilling(kind=kind, with_profit=with_profit, by_category_state=out)


@dataclass(frozen=True)
class BillingComparison:
    """Billing under several signals over the same day and demands."""

    billings: tuple[SignalBilling, ...]

    def billing(self, kind: SignalKind) -> SignalBilling:
        for b in self.billings:
            if b.kind is kind:
                return b
        raise KeyError(f"comparison has no {kind.value} column")

    @property
    def kinds(self) -> tuple[SignalKind, ...]:
        return tuple(b.kind for b in self.billings)


def compare_signals(
    ds: Dataset,
    signals: Iterable[TariffSignal],
    with_profit: bool = True,
    dr_event: Scenario | None = None,
) -> BillingComparison:
    """Bill the same day under each signal; one column per signal kind.

    The event is compiled, and the demand grid built, once for every signal.
    """
    signals = tuple(signals)
    if not signals:
        raise ValueError("nothing to compare, no signals given")
    seen: set[SignalKind] = set()
    for signal in signals:
        if signal.kind in seen:
            raise ValueError(f"duplicate signal kind {signal.kind.value}")
        seen.add(signal.kind)
    multipliers = None if dr_event is None else event_multipliers(dr_event, ds)
    demand = demand_grid(ds, multipliers)
    return BillingComparison(billings=tuple(
        _bill(ds, s.kind, _signal_prices(ds, s), demand, with_profit) for s in signals
    ))


def compare_to_reference(
    comparison: BillingComparison,
    reference: SignalKind = SignalKind.RTP,
) -> dict[tuple[SignalKind, Category, int], float]:
    """Percentage billing deltas of every cell against the reference signal.

    Raises when a reference cell is zero, since a relative delta against
    zero billing has no meaning.
    """
    ref = comparison.billing(reference)
    out: dict[tuple[SignalKind, Category, int], float] = {}
    for billing in comparison.billings:
        for key, value in billing.by_category_state.items():
            base = ref.by_category_state[key]
            if base == 0.0:
                category, state = key
                raise ValueError(
                    f"reference billing is zero for {category.value} at state {state}"
                )
            out[(billing.kind, *key)] = 100.0 * (value - base) / base
    return out


def event_schedule(ds: Dataset, dr_event: Scenario | None) -> PriceSchedule:
    """Demand-linked schedule for the event-shaped day.

    Prices each group from the demands actually in effect, so peak prices
    respond to the event while windows outside its scope keep their base
    demands. It is ``pricing.build_schedule(ds, dr_event)``, kept for
    callers that want the proposed signal on its own; ``standard_comparison``
    reads the same prices from the price grid without building a schedule.
    """
    return build_schedule(ds, dr_event)


def standard_comparison(
    ds: Dataset,
    tou_peak_multiplier: float = 1.0,
    with_profit: bool = True,
    dr_event: Scenario | None = None,
) -> BillingComparison:
    """The four-way comparison: flat, RTP, TOU, and the demand-linked schedule.

    Reference signals derive from the base day, the way a utility would
    publish them ahead of any event; the demand-linked schedule is built
    from the demands actually in effect, since it responds to them. The
    result equals ``compare_signals`` over ``derive_flat``, ``rtp_signal``,
    ``derive_tou`` and ``proposed_signal(event_schedule(ds, dr_event))``,
    bit for bit. ``D`` and the proposed prices come from one
    ``price_grid(ds, dr_event)`` call, which raises KeyError for a category
    with no configuration; no other demand grid is built.
    """
    demand, proposed, _ = price_grid(ds, dr_event)
    signals = (derive_flat(ds), rtp_signal(ds.profile), derive_tou(ds, tou_peak_multiplier))
    billings = [_bill(ds, s.kind, _signal_prices(ds, s), demand, with_profit) for s in signals]
    billings.append(_bill(ds, SignalKind.PROPOSED, proposed, demand, with_profit))
    return BillingComparison(billings=tuple(billings))
