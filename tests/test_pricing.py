"""Pricing kernels: peak prices, off-peak window price, schedules, balance.

Frozen expected values were derived by hand from the closed forms before
the implementation existed. For the {10, 20, 30} group at unit market
price with no margin: total 60, squared sum 1400, so prices are
demand * 60/1400 and the proportionality constant is 3600/1400.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from dlps import (
    Category,
    CustomerTable,
    DegenerateGroupError,
    DegenerateWindowError,
    bill_under_signal,
    build_schedule,
    compare_signals,
    demand_grid,
    derive_flat,
    derive_tou,
    financial_summary,
    fixed_price,
    off_peak_price,
    on_peak_prices,
    price_grid,
    price_demand_slope,
    proportionality_constant,
    proposed_signal,
    random_dr_event,
    rtp_signal,
    standard_comparison,
    verify_ebe,
)
from dlps.ingest import _customer_table

from helpers import build_dataset, build_profile, feeder_csv, loop_peak_prices

MCP_REF = 4.845626  # benchmark market price at the reference state
REL = 1e-9


class TestFixedPrice:
    def test_reference_value(self):
        assert fixed_price(MCP_REF, 0.01) == pytest.approx(4.894082, abs=1e-6)

    def test_no_margin_passthrough(self):
        assert fixed_price(3.5, 0.0) == 3.5

    @pytest.mark.parametrize("mcp", [0.0, -1.0])
    def test_rejects_nonpositive_mcp(self, mcp):
        with pytest.raises(ValueError, match="mcp"):
            fixed_price(mcp, 0.01)

    @pytest.mark.parametrize("kp", [-0.01, 1.0])
    def test_rejects_bad_profit_factor(self, kp):
        with pytest.raises(ValueError, match="profit factor"):
            fixed_price(3.0, kp)


class TestOnPeakPrices:
    def test_small_group_oracle(self):
        prices = on_peak_prices([10.0, 20.0, 30.0], 0.0, 1.0)
        assert prices == pytest.approx([60 / 140, 120 / 140, 180 / 140], rel=1e-12)

    def test_single_customer_pays_fixed_price(self):
        # with one customer the demand share is 1, so the price collapses
        (price,) = on_peak_prices([57.3], 0.02, 3.7)
        assert price == pytest.approx(1.02 * 3.7, rel=1e-12)

    def test_uniform_group_pays_fixed_price(self):
        prices = on_peak_prices(np.full(40, 12.5), 0.03, 2.8)
        assert prices == pytest.approx(np.full(40, 1.03 * 2.8), rel=1e-12)

    def test_zero_demand_customer_priced_zero(self):
        prices = on_peak_prices([0.0, 10.0, 20.0], 0.01, 2.0)
        assert prices[0] == 0.0
        assert np.all(prices[1:] > 0)

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        demands = rng.uniform(0.1, 500, 60)
        base = on_peak_prices(demands, 0.02, 3.1)
        scaled = on_peak_prices(demands * 13.7, 0.02, 3.1)
        assert scaled == pytest.approx(base, rel=1e-12)

    def test_revenue_recovers_cost_plus_margin(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 200))
            demands = rng.uniform(1e-3, 1000.0, n)
            kp = float(rng.uniform(0.0, 0.2))
            mcp = float(rng.uniform(1e-3, 100.0))
            prices = on_peak_prices(demands, kp, mcp)
            revenue = float(prices @ demands)
            target = (1.0 + kp) * mcp * float(demands.sum())
            assert abs(revenue - target) / target <= REL

    def test_breakeven_at_contraharmonic_mean(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            demands = rng.uniform(0.5, 100.0, int(rng.integers(2, 80)))
            kp = float(rng.uniform(0.0, 0.1))
            mcp = float(rng.uniform(0.5, 10.0))
            threshold = float(demands @ demands) / float(demands.sum())
            prices = on_peak_prices(demands, kp, mcp)
            flat = fixed_price(mcp, kp)
            above = prices > flat
            expected = demands > threshold
            assert np.array_equal(above, expected)

    def test_exactly_average_customer_pays_fixed_price(self):
        # contraharmonic mean of {30, 60, 90} is 70 exactly when paired
        # with a fourth customer sitting on it
        demands = np.array([30.0, 60.0, 90.0])
        threshold = float(demands @ demands) / demands.sum()
        group = np.append(demands, threshold)
        new_threshold = float(group @ group) / group.sum()
        assert new_threshold == pytest.approx(threshold, rel=1e-12)
        prices = on_peak_prices(group, 0.01, 2.0)
        assert prices[-1] == pytest.approx(fixed_price(2.0, 0.01), rel=1e-12)

    def test_degenerate_group_rejected(self):
        with pytest.raises(DegenerateGroupError):
            on_peak_prices([0.0, 0.0], 0.01, 2.0)
        with pytest.raises(DegenerateGroupError):
            on_peak_prices([], 0.01, 2.0)

    def test_negative_demand_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            on_peak_prices([10.0, -1.0], 0.01, 2.0)

    def test_matrix_input_rejected(self):
        with pytest.raises(ValueError, match="1-D"):
            on_peak_prices([[1.0, 2.0]], 0.01, 2.0)


class TestProportionalityConstant:
    def test_small_group_oracle(self):
        assert proportionality_constant([10.0, 20.0, 30.0], 0.0, 1.0) == pytest.approx(
            3600 / 1400, rel=1e-12
        )

    def test_benchmark_value(self, bench_ds):
        demands = [c.base_demand for c in bench_ds.customers_in(Category.INDUSTRIAL)]
        alpha = proportionality_constant(demands, 0.01, MCP_REF)
        assert alpha == pytest.approx(98.89, abs=0.01)

    def test_prices_are_demand_share_times_constant(self):
        rng = np.random.default_rng(3)
        demands = rng.uniform(1.0, 50.0, 30)
        alpha = proportionality_constant(demands, 0.04, 2.2)
        prices = on_peak_prices(demands, 0.04, 2.2)
        assert prices == pytest.approx(alpha * demands / demands.sum(), rel=1e-12)


class TestOffPeakPrice:
    def test_two_state_oracle(self):
        # totals {100, 300} at prices {2, 4}: 1.01 * 1400/400
        assert off_peak_price([100.0, 300.0], [2.0, 4.0], 0.01) == pytest.approx(
            3.535, rel=1e-12
        )

    def test_matrix_and_totals_agree(self):
        matrix = [[60.0, 40.0], [100.0, 200.0]]
        totals = [100.0, 300.0]
        assert off_peak_price(matrix, [2.0, 4.0], 0.01) == pytest.approx(
            off_peak_price(totals, [2.0, 4.0], 0.01), rel=1e-12
        )

    def test_constant_price_window_collapses(self):
        assert off_peak_price([10.0, 20.0, 5.0], [3.3, 3.3, 3.3], 0.0) == pytest.approx(
            3.3, rel=1e-12
        )

    def test_empty_window_rejected(self):
        with pytest.raises(DegenerateWindowError):
            off_peak_price([0.0, 0.0], [2.0, 4.0], 0.01)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="states but"):
            off_peak_price([100.0, 300.0], [2.0], 0.01)

    def test_nonpositive_mcp_rejected(self):
        with pytest.raises(ValueError, match="mcps"):
            off_peak_price([100.0], [0.0], 0.01)


class TestNonFiniteInputs:
    """Each group formula rejects a non-finite input, naming the value,
    instead of returning NaN or infinity."""

    @pytest.mark.parametrize("mcp", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "formula",
        [
            lambda mcp: fixed_price(mcp, 0.01),
            lambda mcp: on_peak_prices([1.0, 2.0], 0.01, mcp),
            lambda mcp: proportionality_constant([1.0, 2.0], 0.01, mcp),
            lambda mcp: price_demand_slope([1.0, 2.0], 0.01, mcp),
        ],
        ids=["fixed", "on-peak", "constant", "slope"],
    )
    def test_mcp(self, formula, mcp):
        with pytest.raises(ValueError, match=f"mcp must be finite, got {mcp}"):
            formula(mcp)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "formula",
        [
            lambda d: on_peak_prices(d, 0.01, 3.0),
            lambda d: proportionality_constant(d, 0.01, 3.0),
            lambda d: price_demand_slope(d, 0.01, 3.0),
            lambda d: off_peak_price(d, [3.0, 2.0], 0.01),
            lambda d: off_peak_price([d, [1.0, 1.0]], [3.0, 2.0], 0.01),
        ],
        ids=["on-peak", "constant", "slope", "off-peak-totals", "off-peak-matrix"],
    )
    def test_demands(self, formula, bad):
        with pytest.raises(ValueError, match=f"demands must be finite, got {bad}"):
            formula([1.0, bad])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_off_peak_mcps(self, bad):
        with pytest.raises(ValueError, match=f"mcps must be finite, got {bad}"):
            off_peak_price([[1.0], [2.0]], [bad, 3.0], 0.01)

    def test_zero_group_is_still_degenerate(self):
        for formula in (on_peak_prices, proportionality_constant, price_demand_slope):
            with pytest.raises(DegenerateGroupError, match="every demand"):
                formula([0.0, 0.0], 0.01, 3.0)


class TestBuildSchedule:
    def test_benchmark_coverage(self, bench_ds):
        schedule = build_schedule(bench_ds)
        assert len(schedule.on_peak) == 177 * 6
        assert set(schedule.off_peak) == set(bench_ds.categories_present)
        for c in bench_ds.customers:
            for state in bench_ds.profile.peak_states:
                assert (c.id, state.index) in schedule.on_peak

    def test_benchmark_reference_prices(self, bench_ds):
        schedule = build_schedule(bench_ds)
        assert schedule.on_peak[("I8", 22)] == pytest.approx(7.40, abs=0.01)
        assert schedule.on_peak[("I19", 22)] == pytest.approx(2.01, abs=0.01)

    def test_off_peak_matches_direct_computation(self, bench_ds):
        schedule = build_schedule(bench_ds)
        window = bench_ds.profile.off_peak_states
        demands = [
            [
                c.base_demand * s.load_factor
                for c in bench_ds.customers_in(Category.INDUSTRIAL)
            ]
            for s in window
        ]
        expected = off_peak_price(demands, [s.mcp for s in window], 0.01)
        assert schedule.off_peak[Category.INDUSTRIAL] == pytest.approx(
            expected, rel=1e-12
        )

    def test_off_peak_uniform_across_category(self, bench_ds):
        schedule = build_schedule(bench_ds)
        state = bench_ds.profile.state(3)
        industrial = bench_ds.customers_in(Category.INDUSTRIAL)
        prices = {schedule.price(c, state) for c in industrial}
        assert len(prices) == 1

    def test_provenance_names_inputs(self, bench_ds):
        schedule = build_schedule(bench_ds)
        assert "bundled-benchmark" in schedule.provenance
        assert "peak_states" in schedule.provenance

    def test_degenerate_group_reported_with_context(self):
        ds = build_dataset(industrial=[40.0])
        broken = ds.customers[0].__class__(
            id="I1", category=Category.INDUSTRIAL, base_demand=0.0
        )
        ds = ds.__class__(
            CustomerTable.from_customers((broken,)), ds.categories, ds.profile, ds.label
        )
        with pytest.raises(DegenerateGroupError, match="industrial at state"):
            build_schedule(ds)

    def test_price_lookup_errors_name_the_gap(self, bench_ds):
        schedule = build_schedule(bench_ds)
        stranger = bench_ds.customers[0].__class__(
            id="I99", category=Category.INDUSTRIAL, base_demand=10.0
        )
        with pytest.raises(KeyError, match="I99"):
            schedule.price(stranger, bench_ds.profile.state(22))


class TestPriceGrid:
    @pytest.mark.parametrize("event_seed", [None, 13])
    def test_rows_hold_the_schedule_prices(self, bench_ds, event_seed):
        event = None if event_seed is None else random_dr_event(bench_ds, 0.15, event_seed)
        demand, prices, off_peak = price_grid(bench_ds, event)
        schedule = build_schedule(bench_ds, event)
        assert prices.shape == demand.shape == (24, len(bench_ds.customers))
        assert off_peak == schedule.off_peak
        for r, state in enumerate(bench_ds.profile.states):
            for j, c in enumerate(bench_ds.customers):
                expected = (
                    schedule.on_peak[(c.id, state.index)]
                    if state.is_peak
                    else schedule.off_peak[c.category]
                )
                assert prices[r, j] == expected  # bitwise, not approximately

    def test_peak_rows_match_the_per_group_loop(self, bench_ds):
        event = random_dr_event(bench_ds, 0.15, seed=3)
        _, prices, _ = price_grid(bench_ds, event)
        expected = loop_peak_prices(bench_ds, event)
        column = {c.id: j for j, c in enumerate(bench_ds.customers)}
        row = {s.index: r for r, s in enumerate(bench_ds.profile.states)}
        assert all(
            prices[row[t], column[cid]] == price for (cid, t), price in expected.items()
        )

    def test_demand_is_the_demand_grid(self, bench_ds):
        demand, _, _ = price_grid(bench_ds)
        assert np.array_equal(demand, demand_grid(bench_ds))

    @pytest.mark.skipif(tracemalloc.is_tracing(), reason="tracemalloc is already tracing")
    def test_peak_rows_hold_no_whole_grid(self, bench_ds):
        # at 20,000 customers one (24 x N) float64 grid is 3.7 MiB; the six
        # peak rows of demand and of prices are 1.8 MiB together
        ds = dataclasses.replace(bench_ds, table=_customer_table(feeder_csv(20_000, seed=1)))
        tracemalloc.start()
        try:
            demand, prices, _ = price_grid(ds, states=ds.profile.peak_indices)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert demand.shape == prices.shape == (6, 20_000)
        assert peak < 3 * 2**20

    def test_states_name_states_of_the_profile_once(self, bench_ds):
        with pytest.raises(KeyError, match="no state with index 25"):
            price_grid(bench_ds, states=[22, 25])
        with pytest.raises(ValueError, match="must not repeat"):
            price_grid(bench_ds, states=[22, 3, 22])

    def test_degenerate_window_reported_with_context(self):
        profile = build_profile(load_factors=[0.0] * 17 + [1.0] * 7, peak=range(18, 25))
        ds = build_dataset(industrial=[10.0, 20.0], profile=profile)
        with pytest.raises(DegenerateWindowError, match="industrial off-peak window"):
            price_grid(ds)

    # each case takes the dataset without residential configuration and the
    # bundled one, which the proposed signal's schedule is built from
    @pytest.mark.parametrize("price", [
        lambda ds, _: price_grid(ds),
        lambda ds, _: build_schedule(ds),
        lambda ds, _: standard_comparison(ds),
        lambda ds, _: bill_under_signal(ds, derive_flat(ds)),
        lambda ds, _: bill_under_signal(ds, rtp_signal(ds.profile)),
        lambda ds, _: bill_under_signal(ds, derive_tou(ds)),
        lambda ds, full: bill_under_signal(ds, proposed_signal(build_schedule(full))),
        lambda ds, _: compare_signals(ds, [rtp_signal(ds.profile), derive_flat(ds)]),
        lambda ds, _: financial_summary(ds),
    ], ids=[
        "price_grid", "build_schedule", "standard_comparison", "bill_flat", "bill_rtp",
        "bill_tou", "bill_proposed", "compare_signals", "financial_summary",
    ])
    def test_a_category_with_no_configuration_is_named(self, bench_ds, price):
        configured = tuple(
            cfg for cfg in bench_ds.categories if cfg.category is not Category.RESIDENTIAL
        )
        ds = dataclasses.replace(bench_ds, categories=configured)
        with pytest.raises(KeyError, match="no configuration for category residential"):
            price(ds, bench_ds)


class TestVerifyEbe:
    def test_benchmark_reference_financials(self, bench_ds):
        schedule = build_schedule(bench_ds)
        fin = verify_ebe(bench_ds, schedule, Category.INDUSTRIAL, 22)
        assert fin.purchase_cost == pytest.approx(5960.12, abs=0.05)
        assert fin.revenue == pytest.approx(6019.73, abs=0.05)
        assert fin.profit == pytest.approx(59.60, abs=0.05)
        assert fin.profit_fraction == pytest.approx(0.01, abs=REL)

    @pytest.mark.parametrize("scope", ["peak", "off_peak", "day"])
    def test_profit_fraction_matches_category_margin(self, bench_ds, scope):
        schedule = build_schedule(bench_ds)
        for category in bench_ds.categories_present:
            kp = bench_ds.profit_factor(category)
            fin = verify_ebe(bench_ds, schedule, category, scope)
            assert fin.profit_fraction == pytest.approx(kp, abs=REL)

    def test_all_categories_blend(self, bench_ds):
        schedule = build_schedule(bench_ds)
        fin = verify_ebe(bench_ds, schedule, None, "day")
        parts = [
            verify_ebe(bench_ds, schedule, cat, "day")
            for cat in bench_ds.categories_present
        ]
        assert fin.purchase_cost == pytest.approx(
            sum(p.purchase_cost for p in parts), rel=REL
        )
        assert fin.revenue == pytest.approx(sum(p.revenue for p in parts), rel=REL)
        assert 0.01 < fin.profit_fraction < 0.03

    def test_empty_scope_has_undefined_fraction(self, bench_ds):
        schedule = build_schedule(bench_ds)
        fin = verify_ebe(bench_ds, schedule, Category.INDUSTRIAL, ())
        assert fin.purchase_cost == 0.0
        assert fin.profit_fraction is None

    def test_scope_string_recorded(self, bench_ds):
        schedule = build_schedule(bench_ds)
        fin = verify_ebe(bench_ds, schedule, Category.INDUSTRIAL, 22)
        assert fin.scope == "industrial/22"


class TestProfitPreservation:
    def test_dynamic_revenue_equals_flat_revenue(self):
        # the demand-linked prices redistribute billing, never the total
        rng = np.random.default_rng(31)
        for _ in range(50):
            demands = rng.uniform(0.5, 200.0, int(rng.integers(2, 100)))
            kp = float(rng.uniform(0.0, 0.15))
            mcp = float(rng.uniform(0.5, 20.0))
            dynamic = float(on_peak_prices(demands, kp, mcp) @ demands)
            flat = fixed_price(mcp, kp) * float(demands.sum())
            assert dynamic == pytest.approx(flat, rel=REL)


class TestScheduleOnToyProfiles:
    def test_constant_profile_prices_match_single_state(self):
        ds = build_dataset(industrial=[10, 20, 30], profile=build_profile(mcps=2.0))
        schedule = build_schedule(ds)
        direct = on_peak_prices([10.0, 20.0, 30.0], 0.01, 2.0)
        for i, cid in enumerate(["I1", "I2", "I3"]):
            for t in range(18, 24):
                assert schedule.on_peak[(cid, t)] == pytest.approx(
                    direct[i], rel=1e-12
                )
        assert schedule.off_peak[Category.INDUSTRIAL] == pytest.approx(
            1.01 * 2.0, rel=1e-12
        )
