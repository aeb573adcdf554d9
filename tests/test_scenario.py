"""Scenario application, per-customer deltas, and random demand events.

Expected delta tables for the three named presets were worked out by hand
on the bundled dataset before implementation. In preset terms the largest
industrial customer is I8 (92 kW) and the smallest is I19 (25 kW); the
analysis state is 22, where the load factor peaks.
"""

import dataclasses
import json
import re
from collections.abc import Mapping

import numpy as np
import pytest

from dlps import (
    Category,
    CustomerTable,
    PRESET_NAMES,
    analysis_state,
    apply_scenario,
    build_schedule,
    demand_grid,
    event_multipliers,
    financial_summary,
    load_scenario,
    perturbation_at,
    preset_scenario,
    random_dr_event,
    scenario_deltas,
    scenario_to_json,
    verify_ebe,
    Scenario,
)

from helpers import build_dataset, build_profile, loop_dr_event

PP_TOL = 0.02
RS_TOL = 0.05

# preset -> customer id (or "others") -> (demand, unit price, billing,
# demand contribution), all in percent at state 22
EXPECTED_DELTAS = {
    "s1": {
        "I8": (10.0, 8.29, 19.11, 8.96),
        "I19": (10.0, 8.29, 19.11, 8.96),
        "others": (0.0, -1.56, -1.56, -0.94),
    },
    "s2": {
        "I8": (-10.0, -8.75, -17.88, -9.13),
        "I19": (-10.0, -8.75, -17.88, -9.13),
        "others": (0.0, 1.39, 1.39, 0.96),
    },
    "s3": {
        "I8": (-10.0, -8.69, -17.82, -9.51),
        "I19": (10.0, 11.60, 22.76, 10.60),
        "others": (0.0, 1.46, 1.46, 0.55),
    },
}

# preset -> (purchase cost, revenue) for industrial at state 22
EXPECTED_FINANCIALS = {
    "s1": (6016.82, 6076.99),
    "s2": (5903.43, 5962.47),
    "s3": (5927.66, 5986.94),
}


class TestAnalysisState:
    def test_benchmark_picks_the_load_peak(self, bench_ds):
        assert analysis_state(bench_ds.profile) == 22

    def test_tie_breaks_to_lower_index(self):
        profile = build_profile(load_factors=[0.5] * 24)
        assert analysis_state(profile) == 18

    def test_no_peaks_rejected(self):
        profile = build_profile(peak=())
        with pytest.raises(ValueError, match="no peak states"):
            analysis_state(profile)


class TestApplyScenario:
    def test_preset_moves_targets_only(self, bench_ds):
        sc = preset_scenario("s1", bench_ds)
        out = apply_scenario(bench_ds, sc)
        demands = {c.id: c.base_demand for c in out.customers}
        assert demands["I8"] == pytest.approx(101.2)
        assert demands["I19"] == pytest.approx(27.5)
        assert demands["I1"] == pytest.approx(
            next(c.base_demand for c in bench_ds.customers if c.id == "I1")
        )

    def test_base_dataset_untouched(self, bench_ds):
        before = tuple(c.base_demand for c in bench_ds.customers)
        apply_scenario(bench_ds, preset_scenario("s2", bench_ds))
        assert tuple(c.base_demand for c in bench_ds.customers) == before

    def test_label_combines_both(self, bench_ds):
        out = apply_scenario(bench_ds, preset_scenario("s3", bench_ds))
        assert out.label == "bundled-benchmark+s3"

    def test_unknown_customer_rejected(self, bench_ds):
        sc = Scenario(label="bad", perturbations={"I99": 0.1}, scope=22)
        with pytest.raises(ValueError, match="I99"):
            apply_scenario(bench_ds, sc)

    def test_wipeout_rejected(self, bench_ds):
        sc = Scenario(label="wipe", perturbations={"I8": -1.0}, scope=22)
        with pytest.raises(ValueError, match="drives demand"):
            apply_scenario(bench_ds, sc)

    def test_demand_past_the_float_range_rejected(self, bench_ds):
        sc = Scenario(label="big", perturbations={"I8": 1e308}, scope=22)
        with pytest.raises(ValueError, match=r"^scenario 'big' drives demand of I8 to inf kW$"):
            apply_scenario(bench_ds, sc)

    def test_per_state_values_need_a_state(self, bench_ds):
        sc = Scenario(
            label="nested", perturbations={"I8": {22: -0.1}}, scope="peak"
        )
        with pytest.raises(ValueError, match="at_state"):
            apply_scenario(bench_ds, sc)
        out = apply_scenario(bench_ds, sc, at_state=22)
        demands = {c.id: c.base_demand for c in out.customers}
        assert demands["I8"] == pytest.approx(82.8)
        # at a state the map does not mention, the demand stands
        out21 = apply_scenario(bench_ds, sc, at_state=21)
        assert {c.id: c.base_demand for c in out21.customers}["I8"] == pytest.approx(
            92.0
        )


class TestApplyScenarioIsOneCompiledRow:
    """apply_scenario realises one row of event_multipliers, nothing else."""

    @staticmethod
    def row_demands(ds, sc, state_index):
        rows = [s.index for s in ds.profile.states]
        factors = event_multipliers(sc, ds)[rows.index(state_index)]
        return [c.base_demand * f for c, f in zip(ds.customers, factors)]

    @pytest.mark.parametrize("preset", PRESET_NAMES)
    def test_presets(self, bench_ds, preset):
        sc = preset_scenario(preset, bench_ds, seed=5)
        state = analysis_state(bench_ds.profile)
        out = apply_scenario(bench_ds, sc, at_state=state)
        want = self.row_demands(bench_ds, sc, state)
        assert [c.base_demand for c in out.customers] == want

    @pytest.mark.parametrize("symmetric", [False, True])
    def test_random_event_at_every_state(self, bench_ds, symmetric):
        sc = random_dr_event(bench_ds, 0.2, seed=8, symmetric=symmetric)
        for state in bench_ds.profile.states:
            out = apply_scenario(bench_ds, sc, at_state=state.index)
            want = self.row_demands(bench_ds, sc, state.index)
            assert [c.base_demand for c in out.customers] == want

    def test_state_outside_the_scope_keeps_base_demand(self, bench_ds):
        sc = Scenario(label="night", perturbations={"I8": -0.2}, scope="off_peak")
        out = apply_scenario(bench_ds, sc, at_state=22)
        assert [c.base_demand for c in out.customers] == [
            c.base_demand for c in bench_ds.customers
        ]
        night = apply_scenario(bench_ds, sc, at_state=3)
        assert {c.id: c.base_demand for c in night.customers}["I8"] == pytest.approx(73.6)

    def test_unknown_state_keys_rejected(self, bench_ds):
        sc = Scenario(label="strays", perturbations={"I8": {99: -0.1}}, scope="peak")
        with pytest.raises(ValueError, match=r"states not in the profile: \[99\]"):
            apply_scenario(bench_ds, sc, at_state=22)

    def test_state_key_outside_the_scope_ignored(self, bench_ds):
        sc = Scenario(label="one", perturbations={"I8": {3: -0.5, 22: -0.1}}, scope=22)
        out = apply_scenario(bench_ds, sc)
        assert {c.id: c.base_demand for c in out.customers}["I8"] == pytest.approx(82.8)

    def test_unknown_state_rejected(self, bench_ds):
        sc = Scenario(label="one", perturbations={"I8": 0.1}, scope="peak")
        with pytest.raises(KeyError, match="no state with index 25"):
            apply_scenario(bench_ds, sc, at_state=25)


class TestPerturbationAt:
    def test_flat_value_gated_by_scope(self, bench_ds):
        sc = Scenario(label="one", perturbations={"I8": 0.1}, scope=22)
        assert perturbation_at(sc, "I8", 22, bench_ds.profile) == 0.1
        assert perturbation_at(sc, "I8", 21, bench_ds.profile) == 0.0
        assert perturbation_at(sc, "I7", 22, bench_ds.profile) == 0.0

    def test_window_scope(self, bench_ds):
        sc = Scenario(label="wide", perturbations={"I8": -0.05}, scope="peak")
        for t in bench_ds.profile.peak_indices:
            assert perturbation_at(sc, "I8", t, bench_ds.profile) == -0.05
        assert perturbation_at(sc, "I8", 3, bench_ds.profile) == 0.0

    def test_nested_map_per_state(self, bench_ds):
        sc = Scenario(
            label="map", perturbations={"I8": {22: -0.1, 23: 0.04}}, scope="peak"
        )
        assert perturbation_at(sc, "I8", 22, bench_ds.profile) == -0.1
        assert perturbation_at(sc, "I8", 23, bench_ds.profile) == 0.04
        assert perturbation_at(sc, "I8", 18, bench_ds.profile) == 0.0


class TestEventMultipliers:
    def test_cells_match_perturbation_at(self, bench_ds):
        sc = Scenario(
            label="mixed",
            perturbations={"I8": {22: -0.1, 23: 0.04, 3: 0.5}, "R2": -0.05, "C7": {19: 0.2}},
            scope="peak",
        )
        factors = event_multipliers(sc, bench_ds)
        assert factors.shape == (24, len(bench_ds.customers))
        for r, state in enumerate(bench_ds.profile.states):
            for j, c in enumerate(bench_ds.customers):
                want = 1.0 + perturbation_at(sc, c.id, state.index, bench_ds.profile)
                assert factors[r, j] == want, (c.id, state.index)

    def test_one_outside_the_scope(self, bench_ds):
        sc = Scenario(label="one", perturbations={"I8": 0.1, "I9": {22: 0.3, 21: 0.3}}, scope=22)
        factors = event_multipliers(sc, bench_ds)
        ids = [c.id for c in bench_ds.customers]
        rows = [s.index for s in bench_ds.profile.states]
        assert factors[rows.index(22), ids.index("I8")] == 1.1
        assert factors[rows.index(22), ids.index("I9")] == 1.3
        factors[rows.index(22), [ids.index("I8"), ids.index("I9")]] = 1.0
        assert np.all(factors == 1.0)

    def test_grid_applies_the_factors(self, bench_ds):
        sc = random_dr_event(bench_ds, 0.15, seed=4)
        grid = demand_grid(bench_ds, event_multipliers(sc, bench_ds))
        for r, state in enumerate(bench_ds.profile.states):
            for j, c in enumerate(bench_ds.customers):
                factor = 1.0 + perturbation_at(sc, c.id, state.index, bench_ds.profile)
                assert grid[r, j] == c.base_demand * state.load_factor * factor

    def test_unknown_customer_ids_rejected(self, bench_ds):
        sc = Scenario(label="ghosts", perturbations={"I99": 0.1, "I8": 0.1, "X1": {22: 0.1}})
        with pytest.raises(ValueError, match=r"unknown customer ids: \['I99', 'X1'\]"):
            event_multipliers(sc, bench_ds)

    def test_unknown_state_keys_rejected(self, bench_ds):
        sc = Scenario(label="strays", perturbations={"I8": {22: 0.1, 25: 0.1}, "I9": {0: 0.2}})
        with pytest.raises(ValueError, match=r"states not in the profile: \[25, 0\]"):
            event_multipliers(sc, bench_ds)

    @pytest.mark.parametrize("symmetric", [False, True])
    def test_draw_array_compiles_like_its_dicts(self, bench_ds, symmetric):
        sc = random_dr_event(bench_ds, 0.15, seed=6, symmetric=symmetric)
        plain = dataclasses.replace(sc, perturbations=dict(sc.perturbations))
        assert np.array_equal(
            event_multipliers(sc, bench_ds), event_multipliers(plain, bench_ds)
        )

    def test_draws_against_other_customers_fall_back_to_ids(self, bench_ds):
        sc = random_dr_event(bench_ds, 0.15, seed=6)
        shuffled = dataclasses.replace(
            bench_ds, table=CustomerTable.from_customers(bench_ds.customers[::-1])
        )
        want = event_multipliers(sc, bench_ds)[:, ::-1]
        assert np.array_equal(event_multipliers(sc, shuffled), want)
        fewer = dataclasses.replace(
            bench_ds, table=CustomerTable.from_customers(bench_ds.customers[1:])
        )
        with pytest.raises(ValueError, match=bench_ds.customers[0].id):
            event_multipliers(sc, fewer)

    def test_schedule_rejects_what_the_compile_rejects(self, bench_ds):
        sc = Scenario(label="ghost", perturbations={"I99": 0.1})
        with pytest.raises(ValueError, match="I99"):
            build_schedule(bench_ds, sc)


class TestScenarioDeltas:
    @pytest.mark.parametrize("preset", ["s1", "s2", "s3"])
    def test_preset_tables(self, bench_ds, preset):
        sc = preset_scenario(preset, bench_ds)
        perturbed = apply_scenario(bench_ds, sc)
        table = scenario_deltas(bench_ds, perturbed, 22, Category.INDUSTRIAL)
        expected = EXPECTED_DELTAS[preset]
        for row in table.deltas:
            want = expected.get(row.customer_id, expected["others"])
            assert row.demand_pct == pytest.approx(want[0], abs=PP_TOL)
            assert row.unit_price_pct == pytest.approx(want[1], abs=PP_TOL)
            assert row.billing_pct == pytest.approx(want[2], abs=PP_TOL)
            assert row.demand_contribution_pct == pytest.approx(want[3], abs=PP_TOL)

    @pytest.mark.parametrize("preset", ["s1", "s2", "s3"])
    def test_preset_financials(self, bench_ds, preset):
        sc = preset_scenario(preset, bench_ds)
        perturbed = apply_scenario(bench_ds, sc)
        table = scenario_deltas(bench_ds, perturbed, 22, Category.INDUSTRIAL)
        purchase, revenue = EXPECTED_FINANCIALS[preset]
        assert table.financials.purchase_cost == pytest.approx(purchase, abs=RS_TOL)
        assert table.financials.revenue == pytest.approx(revenue, abs=RS_TOL)
        assert table.financials.profit_fraction == pytest.approx(0.01, abs=1e-9)

    def test_identical_datasets_give_zero_deltas(self, bench_ds):
        table = scenario_deltas(bench_ds, bench_ds, 22, Category.INDUSTRIAL)
        for row in table.deltas:
            assert row.demand_pct == 0.0
            assert row.unit_price_pct == 0.0
            assert row.billing_pct == 0.0
            assert row.demand_contribution_pct == 0.0

    def test_billing_composes_demand_and_price(self, bench_ds):
        sc = random_dr_event(bench_ds, 0.15, seed=3)
        perturbed = apply_scenario(bench_ds, sc, at_state=22)
        for category in bench_ds.categories_present:
            table = scenario_deltas(bench_ds, perturbed, 22, category)
            for row in table.deltas:
                composed = (
                    (1 + row.demand_pct / 100) * (1 + row.unit_price_pct / 100) - 1
                ) * 100
                assert row.billing_pct == pytest.approx(composed, abs=1e-9)

    def test_single_mover_price_tracks_demand(self, bench_ds):
        # one customer moving alone: their price delta carries the same sign
        for cid, move in (("I8", 0.05), ("I8", -0.05), ("I19", 0.08), ("I1", -0.03)):
            sc = Scenario(label="solo", perturbations={cid: move}, scope=22)
            perturbed = apply_scenario(bench_ds, sc)
            row = scenario_deltas(
                bench_ds, perturbed, 22, Category.INDUSTRIAL
            ).delta_for(cid)
            assert row.unit_price_pct * move > 0

    def test_off_peak_state_rejected(self, bench_ds):
        with pytest.raises(ValueError, match="not a peak state"):
            scenario_deltas(bench_ds, bench_ds, 3, Category.INDUSTRIAL)

    def test_customer_mismatch_rejected(self, bench_ds):
        ds = build_dataset(industrial=[40.0, 60.0], profile=bench_ds.profile)
        with pytest.raises(ValueError, match="different customers"):
            scenario_deltas(bench_ds, ds, 22, Category.INDUSTRIAL)

    def test_state_disagreement_rejected(self, bench_ds):
        other = dataclasses.replace(bench_ds, profile=build_profile(mcps=9.9))
        with pytest.raises(ValueError, match="disagree on the state"):
            scenario_deltas(bench_ds, other, 22, Category.INDUSTRIAL)

    def test_delta_lookup_miss(self, bench_ds):
        table = scenario_deltas(bench_ds, bench_ds, 22, Category.INDUSTRIAL)
        with pytest.raises(KeyError, match="R1"):
            table.delta_for("R1")


class TestFinancialSummary:
    def test_benchmark_reference_state(self, bench_ds):
        fin = financial_summary(bench_ds, 22, Category.INDUSTRIAL)
        assert fin.purchase_cost == pytest.approx(5960.12, abs=RS_TOL)
        assert fin.revenue == pytest.approx(6019.73, abs=RS_TOL)
        assert fin.profit == pytest.approx(59.60, abs=RS_TOL)
        assert fin.profit_fraction == pytest.approx(0.01, abs=1e-9)

    def test_agrees_with_schedule_accounting(self, bench_ds):
        schedule = build_schedule(bench_ds)
        for scope in (22, "peak", "off_peak", "day"):
            for category in (*bench_ds.categories_present, None):
                closed = financial_summary(bench_ds, scope, category)
                rebilled = verify_ebe(bench_ds, schedule, category, scope)
                assert closed.purchase_cost == pytest.approx(
                    rebilled.purchase_cost, rel=1e-9
                )
                assert closed.revenue == pytest.approx(rebilled.revenue, rel=1e-9)

    def test_empty_scope_fraction_undefined(self, bench_ds):
        fin = financial_summary(bench_ds, (), Category.INDUSTRIAL)
        assert fin.purchase_cost == 0.0
        assert fin.profit_fraction is None

    def test_scope_label(self, bench_ds):
        assert financial_summary(bench_ds, "peak").scope == "all/peak"


class TestRandomDrEvent:
    def test_seed_determinism(self, bench_ds):
        a = random_dr_event(bench_ds, 0.15, seed=42)
        b = random_dr_event(bench_ds, 0.15, seed=42)
        assert a.perturbations == b.perturbations
        c = random_dr_event(bench_ds, 0.15, seed=43)
        assert c.perturbations != a.perturbations

    def test_covers_every_customer_and_peak_state(self, bench_ds):
        sc = random_dr_event(bench_ds, 0.15, seed=1)
        assert set(sc.perturbations) == {c.id for c in bench_ds.customers}
        peak = set(bench_ds.profile.peak_indices)
        for per_state in sc.perturbations.values():
            assert set(per_state) == peak

    def test_reductions_lie_in_range_with_plausible_mean(self, bench_ds):
        sc = random_dr_event(bench_ds, 0.15, seed=7)
        draws = np.array(
            [e for per_state in sc.perturbations.values() for e in per_state.values()]
        )
        assert draws.size == 177 * 6
        assert np.all(draws <= 0.0)
        assert np.all(draws >= -0.15)
        assert 0.06 <= -draws.mean() <= 0.09

    def test_zero_cap_means_no_event(self, bench_ds):
        sc = random_dr_event(bench_ds, 0.0, seed=9)
        draws = [e for ps in sc.perturbations.values() for e in ps.values()]
        assert draws == [0.0] * len(draws)

    def test_symmetric_draws_both_signs(self, bench_ds):
        sc = random_dr_event(bench_ds, 0.10, seed=5, symmetric=True)
        draws = np.array(
            [e for per_state in sc.perturbations.values() for e in per_state.values()]
        )
        assert np.all(np.abs(draws) <= 0.10)
        assert np.any(draws > 0) and np.any(draws < 0)
        assert abs(draws.mean()) < 0.02

    def test_perturbations_are_a_read_only_mapping(self, bench_ds):
        sc = random_dr_event(bench_ds, 0.15, seed=2)
        assert isinstance(sc.perturbations, Mapping)
        assert list(sc.perturbations) == [c.id for c in bench_ds.customers]
        assert len(sc.perturbations) == 177
        assert "I8" in sc.perturbations and "I99" not in sc.perturbations
        assert sc.perturbations == loop_dr_event(bench_ds, 0.15, seed=2)
        assert loop_dr_event(bench_ds, 0.15, seed=2) == sc.perturbations
        with pytest.raises(TypeError):
            sc.perturbations["I8"] = 0.1
        # a looked-up map is a copy: changing it leaves the event alone
        sc.perturbations["I8"][22] = 0.5
        assert sc.perturbations["I8"][22] != 0.5
        with pytest.raises(KeyError):
            sc.perturbations["I99"]

    @pytest.mark.parametrize("cap", [-0.1, 1.0])
    def test_cap_bounds(self, bench_ds, cap):
        with pytest.raises(ValueError, match="max reduction"):
            random_dr_event(bench_ds, cap, seed=0)


class TestPresets:
    def test_names(self):
        assert PRESET_NAMES == ("s1", "s2", "s3", "s4")

    def test_s1_targets_extremes(self, bench_ds):
        sc = preset_scenario("s1", bench_ds)
        assert sc.perturbations == {"I8": 0.10, "I19": 0.10}
        assert sc.scope == 22

    def test_s3_opposes_them(self, bench_ds):
        sc = preset_scenario("s3", bench_ds)
        assert sc.perturbations == {"I8": -0.10, "I19": 0.10}

    def test_s4_is_a_seeded_event(self, bench_ds):
        sc = preset_scenario("s4", bench_ds, seed=11)
        assert sc.label == "s4"
        assert sc.scope == "peak"
        twin = random_dr_event(bench_ds, 0.10, seed=11, symmetric=True)
        assert sc.perturbations == twin.perturbations

    def test_unknown_preset(self, bench_ds):
        with pytest.raises(ValueError, match="unknown preset"):
            preset_scenario("s9", bench_ds)

    def test_needs_industrial_customers(self):
        ds = build_dataset(residential=[5.0, 6.0])
        with pytest.raises(ValueError, match="industrial"):
            preset_scenario("s1", ds)

    def test_needs_two_distinct(self):
        ds = build_dataset(industrial=[40.0])
        with pytest.raises(ValueError, match="two distinct"):
            preset_scenario("s2", ds)


class TestScenarioJson:
    def test_flat_round_trip(self, bench_ds):
        sc = preset_scenario("s3", bench_ds)
        back = load_scenario(scenario_to_json(sc))
        assert back.label == sc.label
        assert back.scope == sc.scope
        assert back.perturbations == dict(sc.perturbations)

    def test_draw_array_serialises_like_its_dicts(self, bench_ds):
        sc = random_dr_event(bench_ds, 0.08, seed=2, symmetric=True)
        plain = dataclasses.replace(sc, perturbations=dict(sc.perturbations))
        assert scenario_to_json(sc) == scenario_to_json(plain)

    @pytest.mark.parametrize(
        "value, where",
        [
            (float("nan"), "'I8' is not finite: nan"),
            (float("inf"), "'I8' is not finite: inf"),
            ({"22": float("nan")}, "'I8' at state 22 is not finite: nan"),
            ({"19": -0.1, "20": float("-inf")}, "'I8' at state 20 is not finite: -inf"),
            pytest.param(10**400, "'I8' is not finite: 1000", id="huge-int"),
        ],
    )
    def test_non_finite_perturbation_rejected(self, value, where):
        doc = {"perturbations": {"I1": 0.1, "I8": value}}
        with pytest.raises(ValueError, match=where):
            load_scenario(doc)
        with pytest.raises(ValueError, match=where):
            load_scenario(json.dumps(doc))

    def test_nested_round_trip(self, bench_ds):
        sc = random_dr_event(bench_ds, 0.08, seed=2)
        back = load_scenario(scenario_to_json(sc))
        assert back.perturbations == sc.perturbations
        # keys must come back as state indices, not strings
        assert all(
            isinstance(t, int)
            for per_state in back.perturbations.values()
            for t in per_state
        )

    def test_random_mode_draws_against_dataset(self, bench_ds):
        doc = {"label": "event", "mode": "random", "max_reduction": 0.12, "seed": 4}
        sc = load_scenario(doc, bench_ds)
        twin = random_dr_event(bench_ds, 0.12, seed=4)
        assert sc.label == "event"
        assert sc.perturbations == twin.perturbations

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("symmetric", "false", "'symmetric' must be true or false, got 'false'"),
            ("symmetric", 0, "'symmetric' must be true or false, got 0"),
            ("seed", 2.7, "'seed' must be an integer >= 0, got 2.7"),
            ("seed", True, "'seed' must be an integer >= 0, got True"),
            ("seed", "3", "'seed' must be an integer >= 0, got '3'"),
            ("seed", -1, "'seed' must be an integer >= 0, got -1"),
            ("max_reduction", "0.1", "'max_reduction' is not a number: '0.1'"),
            ("max_reduction", False, "'max_reduction' is not a number: False"),
            ("max_reduction", None, "'max_reduction' is not a number: None"),
            ("max_reduction", float("nan"), "'max_reduction' is not finite: nan"),
        ],
    )
    def test_random_mode_rejects_malformed_fields(self, bench_ds, field, value, message):
        doc = {"mode": "random", "max_reduction": 0.1, "seed": 3, "symmetric": True}
        doc[field] = value
        with pytest.raises(ValueError, match=re.escape(message)):
            load_scenario(doc, bench_ds)
        with pytest.raises(ValueError, match=re.escape(message)):
            load_scenario(json.dumps(doc), bench_ds)

    def test_random_mode_takes_json_typed_fields(self, bench_ds):
        sc = load_scenario('{"mode": "random", "max_reduction": 0, "seed": 3, "symmetric": true}', bench_ds)
        assert sc.perturbations == random_dr_event(bench_ds, 0.0, 3, symmetric=True).perturbations

    @pytest.mark.parametrize("scope", [22, 19])
    def test_random_mode_keeps_its_scope(self, bench_ds, scope):
        doc = {"mode": "random", "max_reduction": 0.12, "seed": 4, "scope": scope}
        sc = load_scenario(doc, bench_ds)
        twin = random_dr_event(bench_ds, 0.12, seed=4)
        assert sc.scope == scope
        assert sc.perturbations == twin.perturbations
        # the draws take effect at the scope's state alone
        row = scope - 1
        expected = np.ones((24, len(bench_ds.table)))
        expected[row] = event_multipliers(twin, bench_ds)[row]
        assert np.array_equal(event_multipliers(sc, bench_ds), expected)

    def test_random_mode_without_scope_covers_the_peak(self, bench_ds):
        sc = load_scenario({"mode": "random", "seed": 4}, bench_ds)
        assert sc.scope == "peak"

    @pytest.mark.parametrize(
        "keys",
        [("22", "022"), ("22", " 22"), ("22", "+22"), ("19", "2_2", "22")],
    )
    def test_two_keys_for_one_state_rejected(self, keys):
        doc = {"perturbations": {"I1": 0.1, "I8": {k: -0.1 * n for n, k in enumerate(keys)}}}
        message = "per-state perturbations for 'I8' name state 22 twice"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_scenario(doc)

    @pytest.mark.parametrize(
        "doc, where",
        [
            ('{"perturbations": {"I8": {"22": 0.1, "22": -0.5}, "I19": 0.1, "I19": -0.2}}',
             "key '22' in perturbations.I8"),
            ('{"perturbations": {"I8": 0.1, "I19": 0.1, "I8": -0.2}}', "key 'I8' in perturbations"),
            ('{"perturbations": {"I8": 0.1}, "scope": 22, "scope": "day"}',
             "key 'scope' in the top-level object"),
        ],
    )
    def test_repeated_key_rejected(self, doc, where):
        with pytest.raises(ValueError, match=f"^scenario document repeats {re.escape(where)}$"):
            load_scenario(doc)

    @pytest.mark.parametrize(
        "value, where",
        [
            (True, "'I8' is not a number: True"),
            (False, "'I8' is not a number: False"),
            ("0.1", "'I8' is not a number: '0.1'"),
            (None, "'I8' is not a number: None"),
            ([0.1], "'I8' is not a number: [0.1]"),
            ({"22": True}, "'I8' at state 22 is not a number: True"),
            ({"22": "0.1"}, "'I8' at state 22 is not a number: '0.1'"),
        ],
    )
    def test_explicit_mode_takes_json_numbers_only(self, value, where):
        with pytest.raises(ValueError, match=re.escape(where)):
            load_scenario({"perturbations": {"I1": 0.1, "I8": value}})

    def test_random_mode_needs_dataset(self):
        with pytest.raises(ValueError, match="dataset"):
            load_scenario({"mode": "random", "seed": 1})

    def test_invalid_json_text(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            load_scenario("{nope")

    @pytest.mark.parametrize(
        "text", ["[" * 100_000, '{"perturbations": ' + "[" * 100_000], ids=["top", "in-object"]
    )
    def test_deep_nesting_is_a_value_error(self, text):
        with pytest.raises(ValueError, match="^scenario document is nested too deeply$"):
            load_scenario(text)

    def test_non_object_document(self):
        with pytest.raises(ValueError, match="JSON object"):
            load_scenario("[1, 2]")

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown scenario mode"):
            load_scenario({"mode": "mystery", "perturbations": {}})

    def test_unknown_scope_name(self):
        with pytest.raises(ValueError, match="unknown scenario scope"):
            load_scenario({"perturbations": {"I1": 0.1}, "scope": "evening"})

    @pytest.mark.parametrize(
        "doc, message",
        [
            (
                {"mode": "random", "max_reducton": 0.5, "seed": 1, "lable": "x"},
                "unknown random scenario keys: ['lable', 'max_reducton']",
            ),
            (
                {"mode": "random", "seed": 1, "perturbations": {"I1": 0.1}},
                "unknown random scenario keys: ['perturbations']",
            ),
            (
                {"perturbations": {"I1": 0.1}, "seed": 3},
                "unknown explicit scenario keys: ['seed']",
            ),
        ],
    )
    def test_unknown_keys_rejected_by_name(self, bench_ds, doc, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            load_scenario(doc, bench_ds)

    @pytest.mark.parametrize("label", [None, 5, ["a"], True])
    def test_label_must_be_a_string(self, label):
        message = f"field 'label' must be a string, got {label!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_scenario({"label": label, "perturbations": {"I1": 0.1}})

    @pytest.mark.parametrize("scope", [0, 25, -3])
    def test_state_scope_out_of_range(self, scope):
        message = f"field 'scope' must be in 1..24, got {scope}"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_scenario({"perturbations": {"I1": 0.1}, "scope": scope})

    def test_bool_scope_rejected(self):
        with pytest.raises(ValueError, match="state index or window name"):
            load_scenario({"perturbations": {"I1": 0.1}, "scope": True})

    def test_missing_perturbations(self):
        with pytest.raises(ValueError, match="perturbations object"):
            load_scenario({"mode": "explicit"})

    def test_non_numeric_perturbation(self):
        with pytest.raises(ValueError, match="not a number"):
            load_scenario({"perturbations": {"I1": "lots"}})

    def test_bad_nested_keys(self):
        with pytest.raises(ValueError, match="state index to fraction"):
            load_scenario({"perturbations": {"I1": {"teatime": 0.1}}})
