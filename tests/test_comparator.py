"""Cross-signal billing: flat, RTP, TOU, and the demand-linked schedule.

The derived reference signals are load-weighted means, so the toy profiles
here are built to make those means easy to verify by hand: equal loads
make the flat price a plain average, and a two-level market price makes
each TOU block obvious.
"""

import dataclasses
import math
import sys
import tracemalloc

import numpy as np
import pytest

from dlps import (
    BillingComparison,
    Category,
    CustomerTable,
    Scenario,
    SignalBilling,
    SignalKind,
    TariffSignal,
    bill_under_signal,
    build_schedule,
    compare_signals,
    compare_to_reference,
    demand_grid,
    derive_flat,
    derive_tou,
    event_multipliers,
    event_schedule,
    proposed_signal,
    random_dr_event,
    rtp_signal,
    standard_comparison,
)
from dlps.ingest import _customer_table

from helpers import (
    build_dataset,
    build_profile,
    feeder_csv,
    loop_billing,
    loop_dr_event,
    loop_peak_prices,
)

REL = 1e-9


def two_level_profile(peak_mcp=5.0, off_mcp=2.0, **kwargs):
    mcps = [peak_mcp if 18 <= i <= 23 else off_mcp for i in range(1, 25)]
    return build_profile(mcps=mcps, **kwargs)


class TestSignalConstruction:
    def test_rtp_reads_the_profile(self, bench_ds):
        signal = rtp_signal(bench_ds.profile)
        assert signal.values[22] == pytest.approx(4.845626)
        assert len(signal.values) == 24

    def test_flat_is_plain_average_at_equal_loads(self):
        mcps = [2.0] * 12 + [5.0] * 12
        ds = build_dataset(industrial=[10.0], profile=build_profile(mcps=mcps))
        signal = derive_flat(ds)
        assert list(signal.values.values()) == pytest.approx([3.5] * 24)

    def test_flat_weights_by_load(self):
        mcps = [2.0] * 12 + [4.0] * 12
        lfs = [1.0] * 12 + [3.0] * 12
        ds = build_dataset(
            industrial=[10.0], profile=build_profile(mcps=mcps, load_factors=lfs)
        )
        signal = derive_flat(ds)
        assert signal.values[1] == pytest.approx(3.5, rel=1e-12)

    def test_tou_blocks(self):
        ds = build_dataset(industrial=[10.0], profile=two_level_profile())
        signal = derive_tou(ds)
        assert signal.values[22] == pytest.approx(5.0, rel=1e-12)
        assert signal.values[3] == pytest.approx(2.0, rel=1e-12)

    def test_tou_multiplier_stresses_peak_only(self):
        ds = build_dataset(industrial=[10.0], profile=two_level_profile())
        signal = derive_tou(ds, peak_multiplier=1.3)
        assert signal.values[22] == pytest.approx(6.5, rel=1e-12)
        assert signal.values[3] == pytest.approx(2.0, rel=1e-12)

    def test_tou_multiplier_below_one_rejected(self, bench_ds):
        with pytest.raises(ValueError, match="peak multiplier"):
            derive_tou(bench_ds, peak_multiplier=0.5)

    def test_tou_inverted_blocks_rejected(self):
        ds = build_dataset(
            industrial=[10.0], profile=two_level_profile(peak_mcp=2.0, off_mcp=5.0)
        )
        with pytest.raises(ValueError, match="fell below"):
            derive_tou(ds)

    def test_proposed_wraps_schedule(self, bench_ds):
        schedule = build_schedule(bench_ds)
        signal = proposed_signal(schedule)
        assert signal.kind is SignalKind.PROPOSED
        assert signal.schedule is schedule

    def test_proposed_needs_schedule(self):
        with pytest.raises(ValueError, match="schedule"):
            TariffSignal(kind=SignalKind.PROPOSED)

    def test_value_signals_need_values(self):
        with pytest.raises(ValueError, match="per-state values"):
            TariffSignal(kind=SignalKind.FLAT)

    def test_nonpositive_prices_rejected(self):
        with pytest.raises(ValueError, match="> 0"):
            TariffSignal(kind=SignalKind.FLAT, values={1: 0.0})

    def test_missing_state_lookup(self, bench_ds):
        values = {s.index: 2.0 for s in bench_ds.profile.states if s.index != 22}
        signal = TariffSignal(kind=SignalKind.RTP, values=values)
        with pytest.raises(KeyError, match="rtp signal has no price for state 22"):
            bill_under_signal(bench_ds, signal)


class TestBilling:
    def test_single_customer_flat_bill_by_hand(self):
        ds = build_dataset(industrial=[92.0], profile=build_profile(mcps=3.0))
        billing = bill_under_signal(ds, derive_flat(ds), with_profit=True)
        # 24 states, 92 kW each at 3.0 Rs marked up 1%
        assert billing.total() == pytest.approx(24 * 92.0 * 3.0 * 1.01, rel=1e-12)

    def test_profit_markup_is_per_category(self):
        ds = build_dataset(
            industrial=[10.0], residential=[10.0], profile=build_profile(mcps=2.0)
        )
        billing = bill_under_signal(ds, rtp_signal(ds.profile), with_profit=True)
        ind = billing.total(categories=[Category.INDUSTRIAL])
        res = billing.total(categories=[Category.RESIDENTIAL])
        assert res / ind == pytest.approx(1.03 / 1.01, rel=1e-12)

    def test_proposed_ignores_profit_flag(self, bench_ds):
        signal = proposed_signal(build_schedule(bench_ds))
        a = bill_under_signal(bench_ds, signal, with_profit=True)
        b = bill_under_signal(bench_ds, signal, with_profit=False)
        assert a.by_category_state == b.by_category_state

    def test_day_splits_into_windows(self, bench_ds):
        billing = bill_under_signal(bench_ds, rtp_signal(bench_ds.profile))
        peak = set(bench_ds.profile.peak_indices)
        off = {s.index for s in bench_ds.profile.off_peak_states}
        assert billing.total() == pytest.approx(
            billing.total(states=peak) + billing.total(states=off), rel=1e-12
        )

    def test_empty_selection_bills_nothing(self, bench_ds):
        billing = bill_under_signal(bench_ds, rtp_signal(bench_ds.profile))
        assert billing.total(categories=[]) == 0.0
        assert billing.total(states=[]) == 0.0


class TestNeutrality:
    def test_flat_matches_rtp_over_the_day(self, bench_ds):
        flat = bill_under_signal(bench_ds, derive_flat(bench_ds), with_profit=False)
        rtp = bill_under_signal(
            bench_ds, rtp_signal(bench_ds.profile), with_profit=False
        )
        assert flat.total() == pytest.approx(rtp.total(), rel=REL)

    def test_tou_matches_rtp_within_each_window(self, bench_ds):
        tou = bill_under_signal(bench_ds, derive_tou(bench_ds), with_profit=False)
        rtp = bill_under_signal(
            bench_ds, rtp_signal(bench_ds.profile), with_profit=False
        )
        peak = set(bench_ds.profile.peak_indices)
        off = {s.index for s in bench_ds.profile.off_peak_states}
        assert tou.total(states=peak) == pytest.approx(rtp.total(states=peak), rel=REL)
        assert tou.total(states=off) == pytest.approx(rtp.total(states=off), rel=REL)

    def test_proposed_matches_marked_up_rtp_per_peak_state(self, bench_ds):
        proposed = bill_under_signal(
            bench_ds, proposed_signal(build_schedule(bench_ds))
        )
        rtp = bill_under_signal(bench_ds, rtp_signal(bench_ds.profile))
        for category in bench_ds.categories_present:
            for t in bench_ds.profile.peak_indices:
                key = (category, t)
                assert proposed.by_category_state[key] == pytest.approx(
                    rtp.by_category_state[key], rel=REL
                )

    def test_proposed_matches_marked_up_rtp_over_day_and_off_peak(self, bench_ds):
        proposed = bill_under_signal(
            bench_ds, proposed_signal(build_schedule(bench_ds))
        )
        rtp = bill_under_signal(bench_ds, rtp_signal(bench_ds.profile))
        off = {s.index for s in bench_ds.profile.off_peak_states}
        for category in bench_ds.categories_present:
            assert proposed.total(categories=[category], states=off) == pytest.approx(
                rtp.total(categories=[category], states=off), rel=REL
            )
            assert proposed.total(categories=[category]) == pytest.approx(
                rtp.total(categories=[category]), rel=REL
            )

    def test_constant_market_price_collapses_all_cells(self):
        # one price all day: the schedule's uniform off-peak price equals
        # the marked-up market price state by state, not just window-wide
        ds = build_dataset(
            industrial=[10.0, 40.0, 25.0], residential=[5.0, 8.0],
            profile=build_profile(mcps=3.0),
        )
        proposed = bill_under_signal(ds, proposed_signal(build_schedule(ds)))
        rtp = bill_under_signal(ds, rtp_signal(ds.profile))
        for key, value in proposed.by_category_state.items():
            assert value == pytest.approx(rtp.by_category_state[key], rel=REL)


class TestComparison:
    def test_standard_columns_in_order(self, bench_ds):
        comparison = standard_comparison(bench_ds)
        assert comparison.kinds == (
            SignalKind.FLAT,
            SignalKind.RTP,
            SignalKind.TOU,
            SignalKind.PROPOSED,
        )

    def test_missing_column_lookup(self, bench_ds):
        comparison = compare_signals(bench_ds, [derive_flat(bench_ds)])
        with pytest.raises(KeyError, match="rtp"):
            comparison.billing(SignalKind.RTP)

    def test_duplicate_kind_rejected(self, bench_ds):
        with pytest.raises(ValueError, match="duplicate"):
            compare_signals(bench_ds, [derive_flat(bench_ds), derive_flat(bench_ds)])

    def test_no_signals_rejected(self, bench_ds):
        with pytest.raises(ValueError, match="no signals"):
            compare_signals(bench_ds, [])

    def test_reference_deltas_zero_against_itself(self, bench_ds):
        deltas = compare_to_reference(standard_comparison(bench_ds))
        rtp_rows = [v for (kind, _, _), v in deltas.items() if kind is SignalKind.RTP]
        assert rtp_rows == [0.0] * len(rtp_rows)

    def test_proposed_deltas_zero_at_peak_states(self, bench_ds):
        deltas = compare_to_reference(standard_comparison(bench_ds))
        for t in bench_ds.profile.peak_indices:
            for category in bench_ds.categories_present:
                assert deltas[(SignalKind.PROPOSED, category, t)] == pytest.approx(
                    0.0, abs=1e-9
                )

    def test_zero_reference_cell_rejected(self):
        key = (Category.INDUSTRIAL, 1)
        ref = SignalBilling(
            kind=SignalKind.RTP, with_profit=False, by_category_state={key: 0.0}
        )
        other = SignalBilling(
            kind=SignalKind.FLAT, with_profit=False, by_category_state={key: 5.0}
        )
        comparison = BillingComparison(billings=(ref, other))
        with pytest.raises(ValueError, match="reference billing is zero"):
            compare_to_reference(comparison)


class TestDemandResponseEvents:
    def test_event_leaves_off_peak_cells_alone(self, bench_ds):
        event = random_dr_event(bench_ds, 0.15, seed=13)
        base = standard_comparison(bench_ds)
        shaped = standard_comparison(bench_ds, dr_event=event)
        off = {s.index for s in bench_ds.profile.off_peak_states}
        for kind in shaped.kinds:
            before = base.billing(kind)
            after = shaped.billing(kind)
            for category in bench_ds.categories_present:
                for t in off:
                    assert after.by_category_state[(category, t)] == pytest.approx(
                        before.by_category_state[(category, t)], rel=1e-12
                    )

    def test_event_lowers_peak_rtp_billing(self, bench_ds):
        event = random_dr_event(bench_ds, 0.15, seed=13)
        base = standard_comparison(bench_ds)
        shaped = standard_comparison(bench_ds, dr_event=event)
        peak = set(bench_ds.profile.peak_indices)
        assert shaped.billing(SignalKind.RTP).total(states=peak) < base.billing(
            SignalKind.RTP
        ).total(states=peak)

    def test_event_schedule_reprices_peak_only(self, bench_ds):
        event = random_dr_event(bench_ds, 0.15, seed=13)
        base = build_schedule(bench_ds)
        shaped = event_schedule(bench_ds, event)
        assert shaped.off_peak == base.off_peak
        changed = sum(
            1
            for key in base.on_peak
            if not np.isclose(shaped.on_peak[key], base.on_peak[key], rtol=1e-12)
        )
        assert changed > 1000

    def test_event_schedule_without_event_is_base(self, bench_ds):
        assert event_schedule(bench_ds, None).on_peak == build_schedule(
            bench_ds
        ).on_peak

    def test_event_provenance_names_the_event(self, bench_ds):
        event = random_dr_event(bench_ds, 0.15, seed=13)
        shaped = event_schedule(bench_ds, event)
        assert "seed 13" in shaped.provenance

    def test_margin_survives_the_event(self, bench_ds):
        # the proposed prices respond to the event, so the retailer margin
        # still lands exactly on each category's profit factor
        event = random_dr_event(bench_ds, 0.15, seed=13)
        comparison = standard_comparison(bench_ds, dr_event=event)
        proposed = comparison.billing(SignalKind.PROPOSED)
        rtp_plain = compare_signals(
            bench_ds, [rtp_signal(bench_ds.profile)], with_profit=False,
            dr_event=event,
        ).billing(SignalKind.RTP)
        for category in bench_ds.categories_present:
            kp = bench_ds.profit_factor(category)
            revenue = proposed.total(categories=[category])
            cost = rtp_plain.total(categories=[category])
            assert revenue / cost == pytest.approx(1.0 + kp, rel=REL)


class TestGridAgainstLoopOracle:
    """The (state x customer) grid path against the per-cell loops it replaced."""

    SEEDS = (3, 13, 29)
    GRID_REL = 1e-12

    @pytest.mark.parametrize("symmetric", [False, True], ids=["reduction", "symmetric"])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_billing_matches_loop(self, bench_ds, seed, symmetric):
        event = random_dr_event(bench_ds, 0.15, seed=seed, symmetric=symmetric)
        signals = (
            derive_flat(bench_ds),
            rtp_signal(bench_ds.profile),
            derive_tou(bench_ds, 1.3),
            proposed_signal(event_schedule(bench_ds, event)),
        )
        for with_profit in (True, False):
            for signal in signals:
                grid = bill_under_signal(bench_ds, signal, with_profit, dr_event=event)
                loop = loop_billing(bench_ds, signal, with_profit, dr_event=event)
                assert grid.by_category_state.keys() == loop.keys()
                for key, want in loop.items():
                    assert grid.by_category_state[key] == pytest.approx(
                        want, rel=self.GRID_REL
                    ), (signal.kind, with_profit, key)

    def test_billing_without_event_matches_loop(self, bench_ds):
        signal = proposed_signal(build_schedule(bench_ds))
        grid = bill_under_signal(bench_ds, signal)
        for key, want in loop_billing(bench_ds, signal).items():
            assert grid.by_category_state[key] == pytest.approx(want, rel=self.GRID_REL)

    @pytest.mark.parametrize("symmetric", [False, True], ids=["reduction", "symmetric"])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_event_prices_equal_per_group_calls_exactly(self, bench_ds, seed, symmetric):
        event = random_dr_event(bench_ds, 0.15, seed=seed, symmetric=symmetric)
        assert build_schedule(bench_ds, event).on_peak == loop_peak_prices(bench_ds, event)

    def test_base_prices_equal_per_group_calls_exactly(self, bench_ds):
        assert build_schedule(bench_ds).on_peak == loop_peak_prices(bench_ds)

    @pytest.mark.parametrize("symmetric", [False, True], ids=["reduction", "symmetric"])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_event_draws_match_per_customer_loop(self, bench_ds, seed, symmetric):
        event = random_dr_event(bench_ds, 0.15, seed=seed, symmetric=symmetric)
        assert event.perturbations == loop_dr_event(bench_ds, 0.15, seed, symmetric)

    def test_missing_schedule_price_names_the_cell(self, bench_ds):
        others = [c for c in bench_ds.customers if c.id != "I8"]
        ds = dataclasses.replace(bench_ds, table=CustomerTable.from_customers(others))
        (i8,) = [c for c in bench_ds.customers if c.id == "I8"]
        with pytest.raises(KeyError, match="no on-peak price for I8 at state 22"):
            build_schedule(ds).price(i8, bench_ds.profile.state(22))

    def test_missing_off_peak_price_names_the_category(self, bench_ds):
        others = [c for c in bench_ds.customers if c.category is not Category.COMMERCIAL]
        ds = dataclasses.replace(bench_ds, table=CustomerTable.from_customers(others))
        commercial = bench_ds.customers_in(Category.COMMERCIAL)[0]
        with pytest.raises(KeyError, match="off-peak price for category commercial"):
            build_schedule(ds).price(commercial, bench_ds.profile.off_peak_states[0])

    def test_missing_signal_state_names_the_state(self, bench_ds):
        values = {s.index: s.mcp for s in bench_ds.profile.states if s.index != 7}
        signal = TariffSignal(kind=SignalKind.RTP, values=values)
        with pytest.raises(KeyError, match="rtp signal has no price for state 7"):
            bill_under_signal(bench_ds, signal)


class TestSingleCompile:
    """standard_comparison bills from one compile and one grid per study."""

    @staticmethod
    def shuffled(ds, seed=0):
        order = np.random.default_rng(seed).permutation(len(ds.customers))
        table = CustomerTable.from_customers(ds.customers[i] for i in order)
        return dataclasses.replace(ds, table=table)

    def test_schedule_of_a_shuffled_copy_is_refused(self, bench_ds):
        schedule = build_schedule(self.shuffled(bench_ds))
        with pytest.raises(ValueError, match="schedule was built for another dataset"):
            bill_under_signal(bench_ds, proposed_signal(schedule))

    @pytest.mark.parametrize("part", ["category configurations", "profile states"])
    def test_schedule_priced_for_other_inputs_is_refused(self, bench_ds, part):
        # at profit factor 0.5 the bundled day would bill 373,466 Rs, not 254,001 Rs
        ds = bench_ds
        if part == "category configurations":
            categories = tuple(dataclasses.replace(c, profit_factor=0.5) for c in ds.categories)
            other = dataclasses.replace(ds, categories=categories)
        else:
            states = tuple(dataclasses.replace(s, mcp=2 * s.mcp) for s in ds.profile.states)
            other = dataclasses.replace(ds, profile=dataclasses.replace(ds.profile, states=states))
        schedule = build_schedule(other)
        with pytest.raises(ValueError, match=f"built for another dataset: other {part}$"):
            bill_under_signal(bench_ds, proposed_signal(schedule))

    def test_billing_a_schedule_builds_no_customer_or_peak_dict(self, bench_ds):
        ds = dataclasses.replace(bench_ds, label="fresh")
        schedule = build_schedule(ds)
        bill_under_signal(ds, proposed_signal(schedule))
        assert "customers" not in ds.__dict__
        assert "on_peak" not in schedule.__dict__

    @pytest.mark.parametrize("tou", [1.0, 1.5])
    @pytest.mark.parametrize("with_profit", [True, False], ids=["profit", "no-profit"])
    @pytest.mark.parametrize("event", [None, 0.15, 0.3], ids=["no-event", "event", "deep-event"])
    @pytest.mark.parametrize("shuffle", [False, True], ids=["bundled", "shuffled"])
    def test_equals_compare_signals_bitwise(self, bench_ds, tou, with_profit, event, shuffle):
        ds = self.shuffled(bench_ds) if shuffle else bench_ds
        dr_event = None if event is None else random_dr_event(ds, event, seed=7)
        fused = standard_comparison(ds, tou, with_profit, dr_event)
        signals = (
            derive_flat(ds),
            rtp_signal(ds.profile),
            derive_tou(ds, tou),
            proposed_signal(build_schedule(ds, dr_event)),
        )
        apart = compare_signals(ds, signals, with_profit=with_profit, dr_event=dr_event)
        assert fused.kinds == apart.kinds
        for a, b in zip(fused.billings, apart.billings):
            assert a.with_profit == b.with_profit
            assert list(a.by_category_state.items()) == list(b.by_category_state.items())

    def test_explicit_event_equals_its_parts_bitwise(self, bench_ds):
        event = Scenario(
            label="mixed", perturbations={"I8": {22: -0.1, 3: 0.5}, "R2": -0.05}, scope="peak"
        )
        fused = standard_comparison(bench_ds, 1.2, dr_event=event)
        apart = compare_signals(
            bench_ds,
            (
                derive_flat(bench_ds),
                rtp_signal(bench_ds.profile),
                derive_tou(bench_ds, 1.2),
                proposed_signal(event_schedule(bench_ds, event)),
            ),
            dr_event=event,
        )
        assert fused == apart

    @staticmethod
    def count_calls(monkeypatch):
        """{name: calls} of the functions below, counted wherever dlps holds them."""
        import dlps.domain
        import dlps.scenario

        calls = {}
        for module, name in (
            (dlps.domain, "select_states"),
            (dlps.domain, "demand_grid"),
            (dlps.scenario, "_compile_event"),
        ):
            original = getattr(module, name)
            calls[name] = 0

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            for held in [m for n, m in sys.modules.items() if n.startswith("dlps.")]:
                if getattr(held, name, None) is original:
                    monkeypatch.setattr(held, name, counted)
        return calls

    def test_each_step_runs_once(self, bench_ds, monkeypatch):
        calls = self.count_calls(monkeypatch)
        event = random_dr_event(bench_ds, 0.15, seed=1)
        standard_comparison(bench_ds, 1.5, dr_event=event)
        assert calls == {"select_states": 1, "demand_grid": 0, "_compile_event": 1}

    def test_compare_signals_compiles_once_for_every_signal(self, bench_ds, monkeypatch):
        event = random_dr_event(bench_ds, 0.15, seed=1)
        signals = (
            derive_flat(bench_ds),
            rtp_signal(bench_ds.profile),
            derive_tou(bench_ds, 1.5),
            proposed_signal(event_schedule(bench_ds, event)),
        )
        calls = self.count_calls(monkeypatch)
        compare_signals(bench_ds, signals, dr_event=event)
        assert calls == {"select_states": 1, "demand_grid": 0, "_compile_event": 1}


class TestBillAccuracy:
    def test_every_cell_is_within_the_stated_bound_of_fsum(self, bench_ds):
        # the comparator docstring's bound: gamma(k) relative, with
        # k = ceil(log2 n) + 19 for a category of n customers
        ds = dataclasses.replace(bench_ds, table=_customer_table(feeder_csv(2000, seed=1)))
        event = random_dr_event(ds, 0.15, seed=1)
        comparison = standard_comparison(ds, 1.5, dr_event=event)
        demand = demand_grid(ds, event_multipliers(event, ds))
        schedule = build_schedule(ds, event)
        signals = (derive_flat(ds), rtp_signal(ds.profile), derive_tou(ds, 1.5))
        values = {s.kind: s.values for s in signals}
        u = 2.0**-53
        peak = {s.index: k for k, s in enumerate(ds.profile.peak_states)}  # row of the price block
        for billing in comparison.billings:
            for category, cols in ds.table.columns.items():
                markup = 1.0 + ds.profit_factor(category)
                # four more for the reference: fsum's rounding, its two
                # products and the second-order terms
                k = math.ceil(math.log2(cols.size)) + 19 + 4
                for r, state in enumerate(ds.profile.states):
                    d = demand[r, cols]
                    if billing.kind in values:
                        want = markup * values[billing.kind][state.index] * math.fsum(d.tolist())
                    elif state.is_peak:
                        want = math.fsum((schedule.prices[peak[state.index], cols] * d).tolist())
                    else:
                        want = schedule.off_peak[category] * math.fsum(d.tolist())
                    got = billing.by_category_state[(category, state.index)]
                    bound = k * u / (1 - k * u) * want
                    assert abs(got - want) <= bound, (billing.kind, category, state.index)


class TestPeakBlockMemory:
    @pytest.mark.skipif(tracemalloc.is_tracing(), reason="tracemalloc is already tracing")
    def test_comparison_holds_no_day_grid(self, bench_ds):
        # only the six peak rows of demand and of prices are (state x
        # customer) arrays; holding the whole demand and price grids, it
        # peaked at 2.67 grids of 24 x N
        ds = dataclasses.replace(bench_ds, table=_customer_table(feeder_csv(20_000, seed=1)))
        event = random_dr_event(ds, 0.15, seed=1)
        grid = 24 * len(ds.table) * 8
        tracemalloc.start()
        try:
            standard_comparison(ds, 1.5, dr_event=event)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * grid, peak / grid
