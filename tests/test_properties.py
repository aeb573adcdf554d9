"""Properties of the two closed-form price rules over generated inputs.

Balance: from ``price_grid``, each category's revenue equals (1 + profit
factor) times its purchase cost at every peak state and over the off-peak
window as a whole. Re-billed from ``build_schedule`` through the
``verify_ebe`` loop, each category's profit fraction equals its profit
factor at every peak state, over the off-peak window and over the day.
Peak prices do not depend on the load factor, and the off-peak price does
not depend on the customers, nor peak prices on a power-of-two scale of
the group. Rows priced on request are bitwise the rows of the whole grid. Sums taken in another order than the pricing
code's may differ in the last digits, so the checks hold to a relative
1e-12 (``pytest.approx``, which keeps an absolute floor of 1e-12 for a
margin at or near 0).

Hypothesis runs derandomized, so every run tries the same examples."""

import dataclasses

import numpy as np
import pytest

from dlps import (
    Category,
    CustomerTable,
    Scenario,
    build_schedule,
    demand_grid,
    event_multipliers,
    on_peak_prices,
    price_grid,
    random_dr_event,
    verify_ebe,
)
from dlps.domain import category_columns

from helpers import build_dataset, build_profile, loop_peak_prices

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

PROPERTY = settings(derandomize=True, max_examples=150, deadline=None)
# verify_ebe bills customer by customer, one schedule lookup per (customer, state)
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
        for cat, cols in category_columns(ds).items():
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
        for cat in category_columns(ds):
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

    @PROPERTY
    @given(
        st.lists(DEMANDS, min_size=1, max_size=40),
        st.integers(-600, 600),
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
