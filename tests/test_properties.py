"""Properties of the two closed-form price rules over generated inputs.

Balance: from ``price_grid``, each category's revenue equals (1 + profit
factor) times its purchase cost at every peak state and over the off-peak
window as a whole. Re-billed from ``build_schedule`` through the
``verify_ebe`` loop, each category's profit fraction equals its profit
factor at every peak state, over the off-peak window and over the day.
Peak prices do not depend on the load factor, the off-peak price does not
depend on the customers, and the flat and TOU prices are bitwise those of
the profile's load-factor column whatever the feeder; nor do peak prices
depend on a power-of-two scale of the group, the off-peak price on a
power-of-two scale of the window, or the flat and TOU prices on a
power-of-two scale of every demand.
Rows priced on request are bitwise the rows of the whole grid. Permuting
the customers permutes the price grid and leaves the billing unchanged;
within a group at a peak state the price never falls as demand rises, and
a customer above the contraharmonic mean pays more than the flat price.
No cross-subsidy: an event confined to one category leaves every price and
bill of the others bitwise as they were. A schedule billed against a
dataset that differs from its own in one field is refused, naming the part.
Sums taken in another order than the pricing code's may differ in the last
digits, so the checks hold to a relative 1e-12 (``pytest.approx``, which
keeps an absolute floor of 1e-12 for a margin at or near 0).

Hypothesis runs derandomized, so every run tries the same examples."""

import dataclasses

import numpy as np
import pytest

from dlps import (
    Category,
    CustomerTable,
    Scenario,
    bill_under_signal,
    build_schedule,
    bundled_benchmark,
    demand_grid,
    derive_flat,
    derive_tou,
    event_multipliers,
    fixed_price,
    off_peak_price,
    on_peak_prices,
    price_grid,
    proposed_signal,
    random_dr_event,
    standard_comparison,
    verify_ebe,
)

from helpers import build_dataset, build_profile, loop_peak_prices

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

PROPERTY = settings(derandomize=True, max_examples=150, deadline=None)
# fewer examples where each costs more: verify_ebe bills customer by customer,
# one schedule lookup per (customer, state), and the order properties price
# the day twice
LOOP = settings(derandomize=True, max_examples=100, deadline=None)
REL = 1e-12

STATES = st.integers(1, 24)
MARGINS = st.floats(0.0, 0.99)
DEMANDS = st.floats(0.01, 1e4)


@st.composite
def profiles(draw):
    """A 24-state profile with at least one peak and one off-peak state."""
    return build_profile(
        mcps=draw(st.lists(st.floats(0.01, 100.0), min_size=24, max_size=24)),
        load_factors=draw(st.lists(st.floats(0.05, 3.0), min_size=24, max_size=24)),
        peak=tuple(draw(st.sets(STATES, min_size=1, max_size=23))),
    )


@st.composite
def datasets(draw, profile=None):
    """One to three categories of up to 20 customers each, with their margins."""
    groups = draw(
        st.fixed_dictionaries(
            {cat.value: st.lists(DEMANDS, max_size=20) for cat in Category}
        ).filter(lambda g: any(g.values()))
    )
    return build_dataset(
        **groups,
        profile=profile or draw(profiles()),
        profit={cat: draw(MARGINS) for cat in Category},
    )


@st.composite
def events(draw, ds):
    """No event, or a random reduction or symmetric event over the peak."""
    if draw(st.booleans()):
        return None
    return random_dr_event(
        ds, draw(st.floats(0.0, 0.99)), draw(st.integers(0, 2**32)), symmetric=draw(st.booleans())
    )


class TestBalance:
    @PROPERTY
    @given(st.data())
    def test_revenue_is_marked_up_purchase(self, data):
        ds = data.draw(datasets())
        demand, prices, off_peak = price_grid(ds, data.draw(events(ds)))
        states = ds.profile.states
        mcp = np.array([s.mcp for s in states])
        off = [r for r, s in enumerate(states) if not s.is_peak]
        for cat, cols in ds.table.columns.items():
            markup = 1.0 + ds.profit_factor(cat)
            d, p = demand[:, cols], prices[:, cols]
            for r, s in enumerate(states):
                if s.is_peak:
                    revenue = float((p[r] * d[r]).sum())
                    purchase = s.mcp * float(d[r].sum())
                    assert revenue == pytest.approx(markup * purchase, rel=REL)
            revenue = float((p[off] * d[off]).sum())
            purchase = float((mcp[off] * d[off].sum(axis=1)).sum())
            assert revenue == pytest.approx(markup * purchase, rel=REL)
            assert np.all(p[off] == off_peak[cat])

    @LOOP
    @given(datasets())
    def test_loop_oracle_lands_on_the_profit_factor(self, ds):
        schedule = build_schedule(ds)
        scopes = [s.index for s in ds.profile.states if s.is_peak] + ["off_peak", "day"]
        for cat in ds.table.columns:
            for scope in scopes:
                fin = verify_ebe(ds, schedule, cat, scope)
                assert fin.profit_fraction == pytest.approx(ds.profit_factor(cat), rel=REL)


class TestClosedForms:
    @PROPERTY
    @given(st.data())
    def test_peak_prices_do_not_depend_on_the_load_factor(self, data):
        ds = data.draw(datasets())
        lfs = data.draw(st.lists(st.floats(0.05, 3.0), min_size=24, max_size=24))
        states = tuple(
            dataclasses.replace(s, load_factor=lf) for s, lf in zip(ds.profile.states, lfs)
        )
        relit = dataclasses.replace(ds, profile=dataclasses.replace(ds.profile, states=states))
        peak = [r for r, s in enumerate(ds.profile.states) if s.is_peak]
        _, prices, _ = price_grid(ds)
        _, relit_prices, _ = price_grid(relit)
        np.testing.assert_allclose(relit_prices[peak], prices[peak], rtol=REL, atol=0)

    @PROPERTY
    @given(st.data())
    def test_off_peak_price_does_not_depend_on_the_customers(self, data):
        profile = data.draw(profiles())
        first = data.draw(datasets(profile))
        second = data.draw(datasets(profile))
        off = [s for s in profile.states if not s.is_peak]
        lf = np.array([s.load_factor for s in off])
        mcp = np.array([s.mcp for s in off])
        mean_mcp = float(lf @ mcp) / float(lf.sum())
        for ds in (first, second):
            _, _, off_peak = price_grid(ds)
            for cat, price in off_peak.items():
                expected = (1.0 + ds.profit_factor(cat)) * mean_mcp
                assert price == pytest.approx(expected, rel=REL)

    @settings(PROPERTY, max_examples=50)  # two feeders per example: under 1 s
    @given(st.data())
    def test_reference_prices_read_the_profile_alone(self, data):
        profile = data.draw(profiles())
        feeders = (data.draw(datasets(profile)), data.draw(datasets(profile)))
        m = data.draw(st.floats(1.0, 3.0))
        lf = np.array([s.load_factor for s in profile.states])
        mcp = np.array([s.mcp for s in profile.states])
        peak = np.array([s.is_peak for s in profile.states])
        flat = off_peak_price(lf, mcp, 0.0)
        for ds in feeders:
            assert derive_flat(ds).values == {s.index: flat for s in profile.states}
        peak_value = m * off_peak_price(lf[peak], mcp[peak], 0.0)
        off_value = off_peak_price(lf[~peak], mcp[~peak], 0.0)
        if peak_value < off_value:
            for ds in feeders:
                with pytest.raises(ValueError, match="fell below"):
                    derive_tou(ds, m)
            return
        tou = {s.index: peak_value if s.is_peak else off_value for s in profile.states}
        for ds in feeders:
            assert derive_tou(ds, m).values == tou

    @PROPERTY
    @given(
        st.lists(DEMANDS, min_size=1, max_size=40),
        st.integers(-1000, 1000),
        MARGINS,
        st.floats(0.01, 100.0),
    )
    # squares just below the normal range whose sum is just inside it
    @example([1.00640888266431, 1.7726492012253887], -512, 0.01, 4.0)
    def test_peak_prices_keep_every_bit_under_a_power_of_two_scale(self, d, j, kp, mcp):
        d = np.array(d)
        scaled = np.ldexp(d, j)
        assert np.array_equal(np.ldexp(scaled, -j), d)  # the scale itself is exact
        assert on_peak_prices(scaled, kp, mcp).tobytes() == on_peak_prices(d, kp, mcp).tobytes()

    @PROPERTY
    @given(
        st.integers(1, 24).flatmap(
            lambda n: st.tuples(
                st.lists(DEMANDS, min_size=n, max_size=n),
                st.lists(st.floats(0.01, 100.0), min_size=n, max_size=n),
            )
        ),
        st.integers(-1000, 1000),
        MARGINS,
    )
    # a window of two 1e308 totals, whose energy overflows
    @example(([np.ldexp(1e308, -1000)] * 2, [3.0, 4.0]), 1000, 0.01)
    # two 1e-320 totals (2024 * 2**-1074), whose marked-up sum is subnormal
    @example(([2024.0, 2024.0], [3.0, 4.0]), -1074, 0.01)
    def test_off_peak_price_keeps_every_bit_under_a_power_of_two_scale(self, window, j, kp):
        totals, mcps = np.array(window[0]), window[1]
        scaled = np.ldexp(totals, j)
        assert np.array_equal(np.ldexp(scaled, -j), totals)  # the scale itself is exact
        assert off_peak_price(scaled, mcps, kp) == off_peak_price(totals, mcps, kp)

    @pytest.mark.filterwarnings("error")
    @PROPERTY
    @given(st.lists(DEMANDS, min_size=1, max_size=40), st.integers(-1000, 1000))
    # three 1e308 kW customers, whose per-state totals overflow
    @example([np.ldexp(1e308, -1000)] * 3, 1000)
    def test_reference_prices_keep_every_bit_under_a_power_of_two_scale(self, d, j):
        profile = bundled_benchmark().profile
        ds = build_dataset(industrial=d, profile=profile)
        scaled = build_dataset(industrial=np.ldexp(d, j), profile=profile)
        for derive in (derive_flat, derive_tou):
            assert derive(scaled).values == derive(ds).values


ODD_SIZES = st.sampled_from([1, 3, 5, 7, 11, 19])


@st.composite
def odd_shuffled_datasets(draw):
    """One to three categories of odd sizes, the table's rows shuffled."""
    groups = draw(
        st.fixed_dictionaries(
            {cat.value: st.one_of(st.just(0), ODD_SIZES) for cat in Category}
        ).filter(lambda g: any(g.values()))
    )
    ds = build_dataset(
        **{name: draw(st.lists(DEMANDS, min_size=n, max_size=n)) for name, n in groups.items()},
        profile=draw(profiles()),
        profit={cat: draw(MARGINS) for cat in Category},
    )
    order = draw(st.permutations(range(len(ds.table))))
    customers = ds.customers
    return dataclasses.replace(
        ds, table=CustomerTable.from_customers(customers[j] for j in order)
    )


@st.composite
def any_events(draw, ds):
    """No event, a random one over the peak, or explicit per-state fractions
    for some customers, over the peak or the whole day."""
    kind = draw(st.sampled_from(["none", "random", "explicit"]))
    if kind == "none":
        return None
    if kind == "random":
        return draw(events(ds).filter(lambda ev: ev is not None))
    ids = draw(st.lists(st.sampled_from(ds.table.ids), min_size=1, unique=True))
    fractions = st.dictionaries(STATES, st.floats(-0.9, 0.9), min_size=1)
    return Scenario(
        label="explicit",
        perturbations={cid: draw(fractions) for cid in ids},
        scope=draw(st.sampled_from(["peak", "day"])),
    )


class TestRowsOnRequest:
    @PROPERTY
    @given(st.data())
    def test_requested_rows_are_the_grid_rows_bitwise(self, data):
        ds = data.draw(odd_shuffled_datasets())
        ev = data.draw(any_events(ds))
        off_peak_states = [s.index for s in ds.profile.states if not s.is_peak]
        states = data.draw(
            st.one_of(
                st.lists(STATES, min_size=1, max_size=24, unique=True),
                st.sampled_from(off_peak_states).map(lambda index: [index]),
            )
        )
        demand, prices, off_peak = price_grid(ds, ev)
        multipliers = None if ev is None else event_multipliers(ev, ds)
        assert demand.tobytes() == demand_grid(ds, multipliers).tobytes()
        rows = [[s.index for s in ds.profile.states].index(index) for index in states]
        some_demand, some_prices, some_off_peak = price_grid(ds, ev, states)
        assert some_demand.tobytes() == demand[rows].tobytes()
        assert some_prices.tobytes() == prices[rows].tobytes()
        assert list(some_off_peak.items()) == list(off_peak.items())

    @LOOP
    @given(st.data())
    def test_schedule_is_the_per_group_loop(self, data):
        ds = data.draw(odd_shuffled_datasets())
        ev = data.draw(any_events(ds))
        schedule = build_schedule(ds, ev)
        assert list(schedule.on_peak.items()) == list(loop_peak_prices(ds, ev).items())
        assert list(schedule.off_peak.items()) == list(price_grid(ds, ev)[2].items())


def reordered(ds, order):
    """The dataset with its customers in the given order."""
    customers = ds.customers
    return dataclasses.replace(ds, table=CustomerTable.from_customers(customers[j] for j in order))


class TestCustomerOrder:
    @LOOP
    @given(st.data())
    def test_permuting_customers_permutes_the_price_grid(self, data):
        ds = data.draw(datasets())
        ev = data.draw(events(ds))  # perturbs customers by id, whatever their order
        order = data.draw(st.permutations(range(len(ds.table))))
        demand, prices, off_peak = price_grid(ds, ev)
        moved_demand, moved_prices, moved_off_peak = price_grid(reordered(ds, order), ev)
        np.testing.assert_allclose(moved_demand, demand[:, order], rtol=REL, atol=0)
        np.testing.assert_allclose(moved_prices, prices[:, order], rtol=REL, atol=0)
        assert moved_off_peak == pytest.approx(off_peak, rel=REL)

    @LOOP
    @given(st.data())
    def test_billing_does_not_depend_on_customer_order(self, data):
        ds = data.draw(datasets())
        ev = data.draw(events(ds))
        order = data.draw(st.permutations(range(len(ds.table))))
        with_profit = data.draw(st.booleans())
        # market prices span at most 1e4 to one, so this TOU peak block never
        # prices below the off-peak block
        fused = standard_comparison(ds, 1e4, with_profit, ev)
        moved = standard_comparison(reordered(ds, order), 1e4, with_profit, ev)
        assert moved.kinds == fused.kinds
        for a, b in zip(fused.billings, moved.billings):
            assert dict(b.by_category_state) == pytest.approx(dict(a.by_category_state), rel=REL)


class TestPeakPriceOrder:
    @PROPERTY
    @given(st.data())
    def test_price_follows_demand_within_a_group(self, data):
        ds = data.draw(datasets())
        demand, prices, _ = price_grid(ds, data.draw(events(ds)))
        for cat, cols in ds.table.columns.items():
            for r, state in enumerate(ds.profile.states):
                if not state.is_peak:
                    continue
                d, p = demand[r, cols], prices[r, cols]
                by_demand = np.argsort(d, kind="stable")
                assert np.all(np.diff(p[by_demand]) >= 0)  # a larger demand never pays less
                heavy = d > (1 + 1e-9) * float(d @ d) / float(d.sum())
                assert np.all(p[heavy] > fixed_price(state.mcp, ds.profit_factor(cat)))


@st.composite
def confined_events(draw, ds):
    """A category of the dataset, and an explicit event over some of its
    customers only: uniform or per-state fractions, at any scope. A factor
    may pass 2, which moves the exponent at which windows are summed."""
    category = draw(st.sampled_from(list(ds.table.columns)))
    ids = draw(st.lists(st.sampled_from(ds.table.ids_in(category)), min_size=1, unique=True))
    fractions = st.floats(-0.9, 2.5)
    per_customer = fractions | st.dictionaries(STATES, fractions, min_size=1)
    scope = draw(st.sampled_from(["peak", "off_peak", "day"]) | STATES)
    return category, Scenario("confined", {cid: draw(per_customer) for cid in ids}, scope)


def outside(ds, category, ev, with_profit):
    """As bits: every price of the customers outside ``category`` from
    ``price_grid`` and ``build_schedule``, the other categories' window
    prices, and their bills under the four signals of
    ``standard_comparison``."""
    cols = np.sort(np.concatenate([c for cat, c in ds.table.columns.items() if cat is not category]))
    _, prices, off_peak = price_grid(ds, ev)
    schedule = build_schedule(ds, ev)
    # market prices span at most 1e4 to one, so this TOU peak block never
    # prices below the off-peak block
    comparison = standard_comparison(ds, 1e4, with_profit, ev)
    return (
        prices[:, cols].tobytes(),
        schedule.prices[:, cols].tobytes(),
        [(cat, p.hex()) for cat, p in off_peak.items() if cat is not category],
        [(cat, p.hex()) for cat, p in schedule.off_peak.items() if cat is not category],
        [
            [(key, v.hex()) for key, v in b.by_category_state.items() if key[0] is not category]
            for b in comparison.billings
        ],
    )


class TestNoCrossSubsidy:
    @LOOP
    @given(st.data())
    def test_an_event_in_one_category_leaves_the_others_as_they_were(self, data):
        ds = data.draw(odd_shuffled_datasets().filter(lambda ds: len(ds.table.columns) > 1))
        category, event = data.draw(confined_events(ds))
        with_profit = data.draw(st.booleans())
        assert outside(ds, category, event, with_profit) == outside(ds, category, None, with_profit)


def altered(ds, field, data):
    """The dataset with one field changed: the customer order, one state's
    market price, load factor or peak flag, or one category's profit
    factor; and the part of the dataset that names it."""
    if field == "customer order":
        n = len(ds.table)
        order = data.draw(st.permutations(range(n)).filter(lambda o: list(o) != list(range(n))))
        return reordered(ds, order), "customers"
    if field == "profit factor":
        k = data.draw(st.integers(0, len(ds.categories) - 1))
        cfg = ds.categories[k]
        factor = data.draw(MARGINS.filter(lambda p: p != cfg.profit_factor))
        categories = list(ds.categories)
        categories[k] = dataclasses.replace(cfg, profit_factor=factor)
        return dataclasses.replace(ds, categories=tuple(categories)), "category configurations"
    states = list(ds.profile.states)
    peaks = sum(t.is_peak for t in states)
    # a peak flag is turned only where the state's window keeps another state
    r = data.draw(st.sampled_from([
        r for r, t in enumerate(states)
        if field != "peak flag" or (peaks if t.is_peak else len(states) - peaks) > 1
    ]))
    s = states[r]
    if field == "mcp":
        states[r] = dataclasses.replace(s, mcp=data.draw(st.floats(0.01, 100.0).filter(lambda m: m != s.mcp)))
    elif field == "load factor":
        states[r] = dataclasses.replace(
            s, load_factor=data.draw(st.floats(0.05, 3.0).filter(lambda f: f != s.load_factor)))
    else:
        states[r] = dataclasses.replace(s, is_peak=not s.is_peak)
    profile = dataclasses.replace(ds.profile, states=tuple(states))
    return dataclasses.replace(ds, profile=profile), "profile states"


class TestScheduleRefusal:
    @settings(LOOP, max_examples=50)  # four schedules and three bills per example: under 1 s
    @given(st.data())
    def test_a_schedule_bills_only_the_dataset_it_was_priced_for(self, data):
        ds = data.draw(odd_shuffled_datasets().filter(lambda ds: len(ds.table) > 1))
        ev = data.draw(any_events(ds))
        field = data.draw(st.sampled_from(
            ["customer order", "mcp", "load factor", "peak flag", "profit factor"]))
        other, part = altered(ds, field, data)
        for priced_for, billed in ((ds, other), (other, ds)):
            schedule = build_schedule(priced_for, ev)
            with pytest.raises(ValueError, match=f"built for another dataset: other {part}$"):
                bill_under_signal(billed, proposed_signal(schedule), dr_event=ev)
        schedule = build_schedule(ds, ev)
        copy = dataclasses.replace(
            ds,
            table=CustomerTable(ds.table.ids, ds.table.codes.copy(), ds.table.base.copy()),
            categories=tuple(dataclasses.replace(c) for c in ds.categories),
            profile=dataclasses.replace(
                ds.profile, states=tuple(dataclasses.replace(s) for s in ds.profile.states)),
        )
        want = bill_under_signal(ds, proposed_signal(schedule), dr_event=ev)
        got = bill_under_signal(copy, proposed_signal(schedule), dr_event=ev)
        assert [v.hex() for v in got.by_category_state.values()] == [
            v.hex() for v in want.by_category_state.values()]
        assert list(got.by_category_state) == list(want.by_category_state)
