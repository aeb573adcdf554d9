"""Billing comparison across tariff signals: flat, RTP, TOU, and demand-linked.

The reference signals are derived from the same day the demand-linked
schedule prices, so comparisons are apples-to-apples: flat is the
load-weighted mean market price over the day, which makes flat billing
revenue-neutral against RTP; RTP is the market price state by state; TOU
is one load-weighted mean per window (peak, off-peak), its peak block
optionally stressed by a multiplier; the proposed signal is the
demand-linked schedule, whose prices embed the assured margin. A
demand-response event (a scenario scoped to some window) reshapes demand
inside that window only; reference signals stay as derived from the base
day, as a utility would publish them before the event. Every event-free
demand is ``lf * base``, so weighting by ``lf`` is weighting by demand:
the flat and TOU prices read the profile alone.

Bills come from the demand at the peak states, ``D = lf * base * M``
(peak state x customer, ``M`` the event's factors on the rows of its
scope), and from ``T``, each category's total demand at each state, summed
once per comparison: its peak rows are the category row sums of ``D``, and
each off-peak row the sum of ``lf_s * base`` over the category's customers,
times ``M`` on the rows of the scope. No (state x customer) array larger
than the peak block is built. A flat, RTP or TOU cell is ``p_s * T[s, c]``,
marked up by the category's profit factor when asked so the retailer take
matches across columns. A proposed off-peak cell is the window price times
``T[s, c]``; a category's proposed peak cells are the row sums of its one
(peak x customer) block of ``p * d``, so their balance stays a check. The
schedule must be priced for the customers, profile states and category
configurations billed.

Each sum is numpy's pairwise sum of one contiguous row of non-negative
terms, so a bill of a category of n customers is within
``gamma(k) = k*u / (1 - k*u)`` of its formula's exact value on the float
demands and prices, relative, with ``u = 2**-53`` and
``k = ceil(log2 n) + 19``: ``ceil(log2 n)`` pairwise levels, at most 17
more additions in numpy's leaves of up to 128 terms, and two products.
The event is compiled once per comparison. ``standard_comparison`` takes
``D`` and the proposed prices from one pricing of the peak rows, as
``pricing.build_schedule`` does, ``compare_signals`` takes ``D`` from the
same demand builder, and both bill through ``_compare``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping

import numpy as np

from .domain import Category, Dataset, DayProfile
from .pricing import PriceSchedule, build_schedule, off_peak_price
from .pricing import _demand_rows, _event_rows, _load_factors, _peak_rows, _price_rows, _window_sums
from .scenario import Scenario

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
    proposed kind bills its ``schedule``'s prices instead.
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
    return TariffSignal(kind=SignalKind.RTP, values={s.index: s.mcp for s in profile.states})


def derive_flat(ds: Dataset) -> TariffSignal:
    """Day-long flat price: load-weighted mean of the market price.

    Load-factor weights are total-demand weights, each demand being base
    times load factor, so flat billing of the event-free day equals RTP's.
    """
    lf = np.array([s.load_factor for s in ds.profile.states], dtype=float)
    mcps = np.array([s.mcp for s in ds.profile.states], dtype=float)
    # at zero margin the off-peak rule is the load-weighted mean market price
    value = off_peak_price(lf, mcps, 0.0)
    return TariffSignal(kind=SignalKind.FLAT, values={s.index: value for s in ds.profile.states})


def derive_tou(ds: Dataset, peak_multiplier: float = 1.0) -> TariffSignal:
    """Two-block time-of-use price: one load-weighted mean per window.

    At multiplier 1.0 each block, weighted by load factor as in
    ``derive_flat``, is revenue-neutral against RTP within its own window;
    larger multipliers stress the peak block, which must not price below
    the off-peak block.
    """
    if peak_multiplier < 1.0:
        raise ValueError(f"peak multiplier must be >= 1, got {peak_multiplier}")
    lf = np.array([s.load_factor for s in ds.profile.states], dtype=float)
    mcps = np.array([s.mcp for s in ds.profile.states], dtype=float)
    peak = np.array([s.is_peak for s in ds.profile.states])
    peak_value = peak_multiplier * off_peak_price(lf[peak], mcps[peak], 0.0)
    off_value = off_peak_price(lf[~peak], mcps[~peak], 0.0)
    if peak_value < off_value:
        raise ValueError(
            f"time-of-use peak price {peak_value:.6g} fell below "
            f"off-peak price {off_value:.6g}"
        )
    values = {
        s.index: (peak_value if s.is_peak else off_value) for s in ds.profile.states
    }
    return TariffSignal(kind=SignalKind.TOU, values=values)


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


def bill_under_signal(
    ds: Dataset,
    signal: TariffSignal,
    with_profit: bool = True,
    dr_event: Scenario | None = None,
) -> SignalBilling:
    """Bill every (category, state) cell of the day under one signal, the
    reference kinds marked up by each category's profit factor when
    ``with_profit`` is set, and each demand shaped by the event when one is
    given: the one column of ``compare_signals(ds, [signal], with_profit,
    dr_event)``."""
    return compare_signals(ds, [signal], with_profit, dr_event).billings[0]


def _bill(ds: Dataset, signal: TariffSignal, demand: np.ndarray, totals: np.ndarray,
          profit: np.ndarray, with_profit: bool) -> SignalBilling:
    """Billing of each category of ``ds.table.columns`` at each state, from the
    (peak state x customer) demand, the (state x category) ``totals`` and the
    ``profit`` factors. Raises KeyError for a state the signal does not price
    and ValueError for a schedule priced for another dataset."""
    states = ds.profile.states
    columns = ds.table.columns
    if signal.kind is SignalKind.PROPOSED:
        schedule = signal.schedule
        for part, mine, theirs in (("customers", schedule.table, ds.table),
                                   ("profile states", schedule.profile.states, states),
                                   ("category configurations", schedule.categories, ds.categories)):
            if mine is not theirs and mine != theirs:
                raise ValueError(
                    f"proposed signal's schedule was built for another dataset: other {part}")
        cells = totals * np.array([schedule.off_peak[c] for c in columns])
        peak = _peak_rows(ds.profile)
        for k, cols in enumerate(columns.values()):
            cells[peak, k] = (np.take(schedule.prices, cols, 1) * np.take(demand, cols, 1)).sum(axis=1)
    else:
        try:
            prices = np.array([signal.values[s.index] for s in states], dtype=float)
        except KeyError as exc:
            raise KeyError(
                f"{signal.kind.value} signal has no price for state {exc.args[0]}") from None
        cells = (1.0 + profit if with_profit else 1.0) * (prices[:, None] * totals)
    out: dict[tuple[Category, int], float] = {}
    for k, category in enumerate(columns):
        out.update(zip([(category, s.index) for s in states], cells[:, k].tolist()))
    return SignalBilling(kind=signal.kind, with_profit=with_profit, by_category_state=out)


def _compare(ds: Dataset, signals: Iterable[TariffSignal], demand: np.ndarray,
             event: dict[int, np.ndarray] | None, with_profit: bool) -> BillingComparison:
    """Bill the day under each signal, from its (peak state x customer)
    ``demand`` under the compiled ``event`` and one sum of the day into
    (state x category) totals. Raises KeyError for a category with no
    configuration."""
    signals = tuple(signals)
    if not signals:
        raise ValueError("nothing to compare, no signals given")
    kinds = [s.kind for s in signals]
    for kind in kinds:
        if kinds.count(kind) > 1:
            raise ValueError(f"duplicate signal kind {kind.value}")
    columns = ds.table.columns
    profit = np.array([ds.profit_factor(c) for c in columns], dtype=float)
    profile = ds.profile
    lf = _load_factors(profile)
    peak = _peak_rows(profile)
    off = [r for r, s in enumerate(profile.states) if not s.is_peak]
    totals = np.empty((len(lf), len(columns)))
    for k, cols in enumerate(columns.values()):
        # a C-ordered copy sums each row pairwise; demand[:, cols] would not
        totals[peak, k] = np.take(demand, cols, axis=1).sum(axis=1)
        totals[off, k] = _window_sums(ds.table.base[cols], cols, off, lf, event)
    return BillingComparison(tuple(_bill(ds, s, demand, totals, profit, with_profit)
                                   for s in signals))


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
    """Bill the same day under each signal; one column per signal kind. The
    event is compiled, and the demand at the peak states built, once for
    every signal."""
    event = _event_rows(ds, dr_event)
    return _compare(ds, signals, _demand_rows(ds, _peak_rows(ds.profile), event), event, with_profit)


def compare_to_reference(
    comparison: BillingComparison,
    reference: SignalKind = SignalKind.RTP,
) -> dict[tuple[SignalKind, Category, int], float]:
    """Percentage billing deltas against the reference signal, in bill order.

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
    demands. It is ``pricing.build_schedule(ds, dr_event)``.
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
    event is compiled once, and ``D`` and the proposed prices come from one
    pricing of the peak rows, as in ``build_schedule(ds, dr_event)``, so the
    result equals ``compare_signals`` over the four signals built one by
    one, bit for bit, with no other demand built.
    """
    event = _event_rows(ds, dr_event)
    demand, prices, off_peak = _price_rows(ds, _peak_rows(ds.profile), event)
    schedule = PriceSchedule(ds.table, ds.profile, ds.categories, prices, off_peak)
    signals = (derive_flat(ds), rtp_signal(ds.profile), derive_tou(ds, tou_peak_multiplier),
               proposed_signal(schedule))
    return _compare(ds, signals, demand, event, with_profit)
