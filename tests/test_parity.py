"""Parity of the columnar customer parser, of ``validate_dataset``, of
``apply_scenario``, of the event compile, of ``price_grid``'s block pricing,
of the peak-block schedule and billing, of the scenario delta rows and of
the id-prefix check with the row-by-row, customer-by-customer,
group-by-group, whole-grid and earlier hand-tuned versions kept in
``helpers``, on generated inputs.

Hypothesis runs derandomized, so every run tries the same examples."""

import csv
import dataclasses
import math
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from dlps import (
    Category,
    CategoryConfig,
    Customer,
    CustomerTable,
    Dataset,
    PRESET_NAMES,
    ParseError,
    Scenario,
    apply_scenario,
    build_schedule,
    compare_signals,
    derive_flat,
    derive_tou,
    event_multipliers,
    parse_customers,
    preset_scenario,
    price_grid,
    proposed_signal,
    random_dr_event,
    rtp_signal,
    scenario_deltas,
    select_states,
    standard_comparison,
    validate_dataset,
)
from dlps import ingest
from dlps.domain import _prefix_mismatches
from dlps.ingest import CUSTOMERS_HEADER, _customer_table
from dlps.scenario import _EventDraws, _compile_event

from helpers import (
    blocked_event_multipliers,
    build_dataset,
    build_profile,
    generator_scenario_deltas,
    grid_compare,
    load_bench,
    loop_apply_scenario,
    loop_customer_violations,
    loop_parse_customers,
    loop_prefix_mismatches,
    loop_price_grid,
)

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

PARITY = settings(derandomize=True, max_examples=400, deadline=None)


def outcome(parse, text):
    """What a parser makes of a text: its customers, or its error's parts."""
    try:
        return ("ok", parse(text, "feeder.csv"))
    except ParseError as exc:
        return ("error", str(exc), exc.source, exc.line, exc.field)


# --- generated customer CSV texts --------------------------------------------

def quoted(cell: str) -> str:
    return '"' + cell.replace('"', '""') + '"'


ID_FORMS = st.sampled_from(["R{}", "C{}", "I{}", " I{} ", "PLANT-{}", "two\nlines {}", "İ{}", "a,b{}"])
GOOD_CATEGORIES = st.sampled_from(
    ["residential", "Residential", "COMMERCIAL", "industrial", "r", "C", "i", " I ", "Industrial "]
)
BAD_CATEGORIES = st.sampled_from(["", "indust", "x", "res", "residentials", "İ"])
GOOD_DEMANDS = st.sampled_from(["30", "4.5", "1e1", "+5", "1_0", " 7 ", "1e308", "5.", ".5"]) | (
    st.floats(min_value=1e-300, max_value=1e300).map(repr)
)
BAD_DEMANDS = st.sampled_from(
    ["0", "0.0", "-0.0", "-3", "abc", "", "nan", "NaN", " -inf", "inf", "Infinity", "0x10",
     "1__0", "1e-400", "-1e308", "1,5"]
)
BLANK_IDS = st.sampled_from(["", "   "])
ROW_KINDS = st.sampled_from(["row"] * 10 + ["blank", "width"])
ID_FAULTS = st.sampled_from([None] * 10 + ["duplicate", "empty"])
FAULT = st.sampled_from([False] * 7 + [True])
BLANK_LINES = st.sampled_from(["", "   ", " , , ", ",,", "\t"])


@st.composite
def customer_csv(draw):
    """A customers CSV: mostly valid rows, with blank lines, quoting, padding
    and, now and then, a bad header, a wrong field count or a bad cell. Half
    the texts quote only the cells that need it and end lines with "\n"."""
    plain = draw(st.booleans())
    header = ",".join(CUSTOMERS_HEADER)
    if draw(st.integers(0, 19)) == 0:
        header = draw(st.sampled_from(["", "id,category", "id,kind,base_demand_kw"]))
    elif draw(st.booleans()):
        header = " id , category,base_demand_kw "
    lines = [header]
    ids: list[str] = []
    for k in range(draw(st.integers(0, 10))):
        kind = draw(ROW_KINDS)
        if kind == "blank":
            lines.append(draw(BLANK_LINES))
            continue
        cid = draw(ID_FORMS).format(k)
        id_fault = draw(ID_FAULTS)
        if id_fault == "duplicate" and ids:
            cid = draw(st.sampled_from(ids))
        elif id_fault == "empty":
            cid = draw(BLANK_IDS)
        cells = [
            cid,
            draw(BAD_CATEGORIES if draw(FAULT) else GOOD_CATEGORIES),
            draw(BAD_DEMANDS if draw(FAULT) else GOOD_DEMANDS),
        ]
        if kind == "width":
            cells = draw(st.lists(st.sampled_from(cells), max_size=5))
        ids.append(cid)
        lines.append(
            ",".join(
                quoted(cell)
                if ("\n" in cell or "," in cell or (not plain and draw(st.booleans())))
                else cell
                for cell in cells
            )
        )
    end = "\n" if plain else draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


def table_outcome(text):
    """What ``_customer_table`` makes of a text: its columns as bytes, or
    its error's parts."""
    try:
        table = _customer_table(text, "feeder.csv")
    except ParseError as exc:
        return ("error", str(exc), exc.source, exc.line, exc.field)
    return ("ok", table.ids, table.codes.dtype, table.codes.tobytes(), table.base.dtype,
            table.base.tobytes())


HEADER = ",".join(CUSTOMERS_HEADER) + "\n"
# a duplicate id in the second block of the split path, when a block is 16 characters
SPLIT_DUPLICATE = HEADER + "R1,r,1\nR2,r,2\nR3,r,3\nR1,r,4\n"


class TestParserParity:
    @PARITY
    @given(customer_csv())
    @example("id,category,base_demand_kw\n")
    @example("")
    @example('id,category,base_demand_kw\n"R\n1",r,1\n\nR2,x,1\n')
    @example("id,category,base_demand_kw\nR1,r,1\nR1,c,abc\n")
    @example("id,category,base_demand_kw\nR1,r,nan\nR2,c\n")
    @example("id,category,base_demand_kw\nR1,r\nR2,bogus,1\n")
    @example("id,category,base_demand_kw\n ,r,1\n")
    @example(HEADER + "R1,r,1\nR2,c,2")
    @example(HEADER + "R1,r,1\n   \nR2,c,2\n")
    @example(HEADER + "R1,r,1\n,,\nR2,c,2\n")
    @example(HEADER + "R1,r,1\nR\0 2,c,2\n")
    @example(HEADER + "R1,r\n5,R2,c,6\n")
    @example(HEADER + "R1,r,1\nR2,bogus,2\n")
    @example(HEADER + "R1,r,1\nR2,c,inf\n")
    @example(HEADER + "R1,r,1\nR2,c,1e-400\n")
    @example(HEADER + "R1,r,１２\nR2,c,1_0\nR3,i, 7 \n")
    @example(HEADER + "R1,r,1__0\n")
    @example(HEADER + "R1,r,\x1c7\nR2,c,7\u2028\n")
    @example(HEADER + "R1\u2028,r,1\nR\x852,c,2\n")
    @example(HEADER + "R1,r,1\n\n")
    @example(HEADER.rstrip("\n"))
    @example(SPLIT_DUPLICATE)
    def test_same_customers_or_same_error(self, text):
        expected = outcome(loop_parse_customers, text)
        with mock.patch.object(ingest, "_split_table", return_value=None):
            assert outcome(parse_customers, text) == expected
        if expected[0] == "ok":
            table = _customer_table(text, "feeder.csv")
            assert table.to_customers() == tuple(expected[1])
        with mock.patch.object(ingest, "_split_table", return_value=None):
            fallback = table_outcome(text)
        for chars_per_block in (1, 16, ingest._BLOCK_CHARS):
            with mock.patch.object(ingest, "_BLOCK_CHARS", chars_per_block):
                assert table_outcome(text) == fallback

    def test_plain_feeders_take_the_split_path(self):
        bundled = (Path(ingest.__file__).parent / "data" / "customers.csv").read_text()
        generated = load_bench("feeder").generate(5000, 1).to_csv()
        for text in (bundled, generated, generated.rstrip("\n")):
            table = ingest._split_table(text)
            assert table is not None
            with mock.patch.object(ingest, "_split_table", return_value=None):
                assert _customer_table(text) == table

    def test_quoted_bench_feeder_reads_row_by_row_to_the_same_table(self):
        plain = load_bench("feeder").generate(5000, 1).to_csv()
        quoted = "".join(
            ",".join(f'"{cell}"' for cell in line.split(",")) + "\n"
            for line in plain.splitlines()
        )
        assert ingest._split_table(quoted) is None
        expected = table_outcome(plain)
        assert expected[0] == "ok"
        assert table_outcome(quoted) == expected

    @pytest.mark.parametrize("text", [
        HEADER + '"R1",r,1\n',
        HEADER.replace("\n", "\r\n") + "R1,r,1\r\n",
        HEADER + "R1,r,1\n\nR2,r,2\n",
        HEADER + "R1,r,1\n \nR2,r,2\n",
        HEADER + "R1,r,1,\n",
        HEADER + "R1,r,0\n",
        "id,category\nR1,r\n",
        HEADER + "R" * (csv.field_size_limit() + 1) + ",r,1\n",
    ])
    def test_other_texts_take_the_blocked_parser(self, text):
        assert ingest._split_table(text) is None


# --- validation on injected faults ------------------------------------------

FAULTY_IDS = st.sampled_from(
    ["R1", "R2", "C1", "I1", "I2", "R5", "R5a", "X1", "r5", "PLANT-7", "", "I10", "R5\n"]
)
FAULTY_DEMANDS = st.sampled_from(
    [10.0, 42.5, 0.0, -0.0, -1.0, math.nan, math.inf, -math.inf, 3, -2, 1e-300]
)


@st.composite
def faulty_dataset(draw):
    customers = draw(
        st.lists(
            st.builds(Customer, FAULTY_IDS, st.sampled_from(list(Category)), FAULTY_DEMANDS),
            max_size=12,
        )
    )
    configs = draw(
        st.lists(
            st.builds(
                CategoryConfig,
                st.sampled_from(list(Category)),
                st.sampled_from([0.01, 0.03, 1.5, math.nan]),
            ),
            max_size=4,
        )
    )
    return Dataset(CustomerTable.from_customers(customers), tuple(configs), build_profile())


class TestValidationParity:
    @PARITY
    @given(faulty_dataset())
    def test_same_violations_in_the_same_order(self, ds):
        expected = loop_customer_violations(ds)
        assert validate_dataset(ds) == expected


# --- scenarios applied to the table -------------------------------------------

STATES = st.integers(1, 24)
# -1 and below drive a demand to zero or below, which is an error
FRACTIONS = st.sampled_from([0.0, 0.1, -0.1, -1.0, -1.5]) | st.floats(-1.2, 1.0)
SCENARIO = settings(derandomize=True, max_examples=300, deadline=None)


@st.composite
def scenario_case(draw):
    """A small dataset, an explicit or random scenario over it, and the state
    to realize it at (None leaves it to ``apply_scenario``)."""
    profile = build_profile(
        load_factors=draw(st.lists(st.floats(0.2, 1.5), min_size=24, max_size=24)),
        peak=tuple(draw(st.sets(STATES, min_size=1, max_size=23))),
    )
    ds = build_dataset(
        industrial=draw(st.lists(st.floats(0.5, 900.0), min_size=1, max_size=6)),
        residential=draw(st.lists(st.floats(0.5, 50.0), max_size=4)),
        profile=profile,
        label=draw(st.sampled_from(["", "feeder"])),
    )
    scope = draw(st.sampled_from(["peak", "off_peak", "day"]) | STATES)
    if draw(st.booleans()):
        sc = random_dr_event(ds, draw(st.floats(0.0, 0.99)), draw(st.integers(0, 2**32)),
                             symmetric=draw(st.booleans()))
        sc = dataclasses.replace(sc, scope=scope)
    else:
        chosen = draw(st.lists(st.sampled_from([*ds.table.ids, "I99"]), unique=True))
        per_customer = FRACTIONS | st.dictionaries(STATES, FRACTIONS, max_size=4)
        sc = Scenario("generated", {cid: draw(per_customer) for cid in chosen}, scope)
    return ds, sc, draw(st.none() | STATES)


def applied(apply, ds, sc, at_state):
    """A scenario's dataset as bytes of its columns, or its error's text."""
    try:
        out = apply(ds, sc, at_state)
    except ValueError as exc:
        return ("error", str(exc))
    table = out.table
    return ("ok", table.ids, table.codes.tobytes(), table.base.tobytes(), out.label,
            out.categories, out.profile)


TWO_PLANTS = build_dataset(industrial=[40.0, 50.0], residential=[8.0], label="feeder")


class TestScenarioParity:
    @SCENARIO
    @given(scenario_case())
    @example((TWO_PLANTS, Scenario("cut", {"I2": -1.0}, 22), None))
    @example((TWO_PLANTS, Scenario("cut", {"I2": -2.0, "I1": -1.5}, "peak"), 20))
    @example((TWO_PLANTS, Scenario("cut", {"I1": {19: -1.0}, "R1": 0.5}, "day"), 19))
    @example((TWO_PLANTS, Scenario("cut", {"I1": {19: -1.0}}, "day"), None))
    @example((TWO_PLANTS, Scenario("big", {"I2": 1e308}, 22), None))
    def test_same_columns_or_same_error(self, case):
        assert applied(apply_scenario, *case) == applied(loop_apply_scenario, *case)


# --- the event compile ----------------------------------------------------------

# 0, 25 and 99 are not states of any profile
STATE_KEYS = st.integers(0, 25) | st.just(99)
# every numeric type a library caller may hand in; each is converted as float() does
TYPED_FRACTIONS = (
    st.floats(-0.9, 1.0)
    | st.integers(-1, 2)
    | st.booleans()
    | st.floats(-0.5, 1.0, width=32).map(np.float32)
    | st.floats(-0.9, 1.0).map(np.float64)
)


@st.composite
def explicit_event(draw, ds):
    """Explicit perturbations over some of the dataset's customers and maybe
    an unknown one, each a uniform fraction or a per-state map whose keys
    come in the order drawn."""
    chosen = draw(st.lists(st.sampled_from([*ds.table.ids, "I99", "X1"]), unique=True))
    perturbations = {}
    for cid in chosen:
        if draw(st.booleans()):
            perturbations[cid] = draw(TYPED_FRACTIONS)
        else:
            keys = draw(st.lists(STATE_KEYS, unique=True, max_size=6))
            perturbations[cid] = {t: draw(TYPED_FRACTIONS) for t in keys}
    return perturbations


@st.composite
def compile_case(draw):
    """A small dataset and a scenario over it: explicit, a random event drawn
    against it or against other customers, or a draw array over its own
    customers at states its profile may lack."""
    ds = build_dataset(
        industrial=draw(st.lists(st.floats(0.5, 900.0), min_size=1, max_size=5)),
        residential=draw(st.lists(st.floats(0.5, 50.0), max_size=3)),
        profile=build_profile(peak=tuple(draw(st.sets(STATES, min_size=1, max_size=23)))),
    )
    scope = draw(st.sampled_from(["peak", "off_peak", "day"]) | STATES)
    kind = draw(st.sampled_from(["explicit", "own draws", "other draws", "stray draws"]))
    if kind == "explicit":
        perturbations = draw(explicit_event(ds))
    elif kind == "stray draws":
        states = tuple(draw(st.lists(STATE_KEYS, unique=True, min_size=1, max_size=5)))
        rng = np.random.default_rng(draw(st.integers(0, 99)))
        perturbations = _EventDraws(
            ds.table.ids, states, rng.uniform(-0.5, 0.5, size=(len(ds.table), len(states)))
        )
    else:
        other = ds
        if kind == "other draws":
            other = build_dataset(
                industrial=[1.0] * draw(st.integers(1, 6)),
                profile=build_profile(peak=tuple(draw(st.sets(STATES, min_size=1, max_size=23)))),
            )
        perturbations = random_dr_event(
            other, draw(st.floats(0.0, 0.99)), draw(st.integers(0, 2**32)),
            symmetric=draw(st.booleans()),
        ).perturbations
    return ds, Scenario("generated", perturbations, scope)


def shuffled(ds, order):
    """The dataset with its customers in ``order``."""
    return dataclasses.replace(ds, table=CustomerTable.from_customers(ds.customers[i] for i in order))


@st.composite
def shuffled_compile_case(draw):
    """A ``compile_case`` whose customers may then be put in another order,
    so that a random event drawn against them is met as a mapping."""
    ds, sc = draw(compile_case())
    return shuffled(ds, draw(st.permutations(range(len(ds.table))))), sc


COMPILE = settings(derandomize=True, max_examples=300, deadline=None)


def compiled(compile_event, ds, sc):
    """A scenario's factors as bytes, or its error."""
    try:
        factors = compile_event(sc, ds)
    except ValueError as exc:
        return ("error", str(exc))
    return ("ok", factors.dtype, factors.shape, factors.tobytes())


class TestEventCompileParity:
    @SCENARIO
    @given(compile_case())
    @example((TWO_PLANTS, Scenario("mixed", {"I1": {22: 0.1, 19: 0.2}, "I2": {19: 0.3, 22: 0.4}}, "peak")))
    @example((TWO_PLANTS, Scenario("typed", {"I1": np.float32(0.1), "I2": True, "R1": 2}, "day")))
    @example((TWO_PLANTS, Scenario("typed", {"I1": {22: np.float32(0.1), 19: np.float64(0.2)}}, 22)))
    @example((TWO_PLANTS, Scenario("strays", {"I1": {99: 0.1, 0: 0.2}, "I2": {25: 0.1, 99: 0.3}}, 22)))
    @example((TWO_PLANTS, Scenario("both", {"I7": 0.1, "I1": {99: 0.1}}, 22)))
    @example((TWO_PLANTS, Scenario(
        "draws", _EventDraws(TWO_PLANTS.table.ids, (19, 0, 22, 99), np.full((3, 4), 0.1)), "peak"
    )))
    def test_same_factors_or_same_error(self, case):
        ds, sc = case
        assert compiled(event_multipliers, ds, sc) == compiled(blocked_event_multipliers, ds, sc)

    @COMPILE
    @given(shuffled_compile_case())
    @example((TWO_PLANTS, random_dr_event(TWO_PLANTS, 0.3, seed=1)))
    @example((TWO_PLANTS, dataclasses.replace(random_dr_event(TWO_PLANTS, 0.3, seed=1), scope=22)))
    @example((shuffled(TWO_PLANTS, [2, 0, 1]), random_dr_event(TWO_PLANTS, 0.3, seed=1)))
    @example((TWO_PLANTS, Scenario("strays", {"I1": {99: 0.1}, "I2": {22: 0.2}}, "off_peak")))
    def test_scope_rows_in_a_grid_of_ones_are_the_grid(self, case):
        ds, sc = case
        scope = [ds.profile.row(s.index) for s in select_states(ds.profile, sc.scope)]

        def placed(sc, ds):
            rows, factors = _compile_event(sc, ds)
            assert rows == scope
            grid = np.ones((len(ds.profile.states), len(ds.table)))
            grid[rows] = factors
            return grid

        got = compiled(placed, ds, sc)
        assert got == compiled(event_multipliers, ds, sc) == compiled(blocked_event_multipliers, ds, sc)
        if got[0] == "ok":
            outside = [r for r in range(len(ds.profile.states)) if r not in scope]
            assert (event_multipliers(sc, ds)[outside] == 1.0).all()

    def test_float32_fraction_is_widened_before_it_is_added(self):
        sc = Scenario("narrow", {"I1": np.float32(0.1), "I2": {22: np.float32(0.1)}}, 22)
        factors = event_multipliers(sc, TWO_PLANTS)
        assert factors.dtype == np.float64
        # columns R1, I1, I2; row 21 is state 22
        assert factors[21].tolist() == [1.0, *[1.0 + float(np.float32(0.1))] * 2]
        assert factors[21, 1] != 1.0 + np.float32(0.1)


# --- the per-group price loop ------------------------------------------------------

# now and then a market price, margin or load factor that cannot be priced
BAD_MCPS = st.sampled_from([0.0, -1.0, math.nan, math.inf])
BAD_MARGINS = st.sampled_from([1.0, -0.1])
RARELY = st.integers(0, 4).map(lambda k: k == 0)


@st.composite
def pricing_case(draw):
    """A small dataset on a generated profile, with margins, where now and
    then one market price or margin is out of range or a load factor is 0;
    no event, a random one, or explicit fractions that may take a demand to
    zero or below; and every state, or some states, maybe one twice or one
    that the profile lacks."""
    mcps = [draw(st.sampled_from([0.5, 3.0, 7.25])) for _ in range(24)]
    if draw(RARELY):
        mcps[draw(st.integers(0, 23))] = draw(BAD_MCPS)
    load_factors = draw(st.lists(st.floats(0.05, 3.0), min_size=24, max_size=24))
    if draw(RARELY):
        load_factors[draw(st.integers(0, 23))] = 0.0
    profit = {cat: draw(st.sampled_from([0.0, 0.01, 0.3])) for cat in Category}
    if draw(RARELY):
        profit[draw(st.sampled_from(Category))] = draw(BAD_MARGINS)
    ds = build_dataset(
        industrial=draw(st.lists(st.floats(0.5, 900.0), min_size=1, max_size=5)),
        commercial=draw(st.lists(st.floats(15.0, 45.0), max_size=2)),
        residential=draw(st.lists(st.floats(0.5, 50.0), max_size=3)),
        profile=build_profile(
            mcps=mcps,
            load_factors=load_factors,
            peak=tuple(draw(st.sets(STATES, min_size=1, max_size=23))),
        ),
        profit=profit,
    )
    kind = draw(st.sampled_from(["none", "random", "explicit"]))
    event = None
    if kind == "random":
        event = random_dr_event(ds, draw(st.floats(0.0, 0.99)), draw(st.integers(0, 2**32)),
                                symmetric=draw(st.booleans()))
        event = dataclasses.replace(event, scope=draw(st.sampled_from(["peak", "day"]) | STATES))
    elif kind == "explicit":
        chosen = draw(st.lists(st.sampled_from(ds.table.ids), unique=True))
        perturbations = {
            cid: draw(FRACTIONS | st.dictionaries(STATES, FRACTIONS, max_size=4)) for cid in chosen
        }
        scope = draw(st.sampled_from(["peak", "off_peak", "day"]) | STATES)
        event = Scenario("generated", perturbations, scope)
    states = draw(
        st.none() | st.lists(STATES, unique=True, max_size=6) | st.lists(st.integers(1, 25), max_size=3)
    )
    return ds, event, states


def priced(price, ds, event, states):
    """The demand and price rows and window prices of a pricing, or its error."""
    try:
        demand, prices, off_peak = price(ds, event, states)
    except (KeyError, ValueError) as exc:
        return ("error", type(exc), str(exc))
    return ("ok", demand.shape, demand.tobytes(), prices.tobytes(), list(off_peak.items()))


class TestPriceGridParity:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(pricing_case())
    @example((TWO_PLANTS, Scenario("cut", {"I1": {20: -1.0}, "I2": {20: -1.0}}), [22, 20]))
    @example((TWO_PLANTS, Scenario("cut", {"I1": {20: -1.0}, "I2": {20: -1.0}}), [22, 21]))
    @example((TWO_PLANTS, Scenario("cut", {"I1": -1.0, "I2": -1.0}, "day"), None))
    def test_same_rows_or_same_error(self, case):
        assert priced(price_grid, *case) == priced(loop_price_grid, *case)


# --- the peak-block schedule and bills -------------------------------------------

@st.composite
def comparison_case(draw):
    """A small feeder, maybe of one category, its rows shuffled; no event, or
    one over the peak, the off-peak window, the day, one peak state or one
    off-peak state, as uniform fractions, per-state fractions or draws at
    the scope's states; a TOU multiplier; and profit on or off. Up to 20
    industrial customers, since numpy sums 8 or more terms pairwise, so a
    sum taken customer by customer (a strided one) shows in the bits."""
    one = draw(st.booleans())
    ds = build_dataset(
        industrial=draw(st.lists(st.floats(0.5, 900.0), min_size=1, max_size=20)),
        commercial=[] if one else draw(st.lists(st.floats(15.0, 45.0), max_size=3)),
        residential=[] if one else draw(st.lists(st.floats(0.5, 50.0), max_size=4)),
        profile=build_profile(
            mcps=[draw(st.sampled_from([0.5, 3.0, 7.25])) for _ in range(24)],
            load_factors=draw(st.lists(st.floats(0.05, 3.0), min_size=24, max_size=24)),
            peak=tuple(draw(st.sets(STATES, min_size=1, max_size=23))),
        ),
        profit={cat: draw(st.sampled_from([0.0, 0.01, 0.3])) for cat in Category},
    )
    ds = shuffled(ds, draw(st.permutations(range(len(ds.table)))))
    peak = ds.profile.peak_indices
    off = tuple(s.index for s in ds.profile.off_peak_states)
    scope = draw(st.sampled_from(["peak", "off_peak", "day"]) | st.sampled_from(peak)
                 | st.sampled_from(off))
    at = {"peak": peak, "off_peak": off, "day": peak + off}.get(scope, (scope,))
    fractions = st.floats(-0.9, 1.0)
    form = draw(st.sampled_from(["none", "uniform", "per-state", "drawn"]))
    event = None
    if form == "drawn":
        rng = np.random.default_rng(draw(st.integers(0, 99)))
        draws = rng.uniform(-0.9, 1.0, size=(len(ds.table), len(at)))
        event = Scenario("drawn", _EventDraws(ds.table.ids, at, draws), scope)
    elif form != "none":
        chosen = draw(st.lists(st.sampled_from(ds.table.ids), min_size=1, unique=True))
        per_customer = fractions if form == "uniform" else st.dictionaries(
            st.sampled_from(at), fractions, min_size=1)
        event = Scenario(form, {cid: draw(per_customer) for cid in chosen}, scope)
    return ds, event, draw(st.sampled_from([1.0, 1.5, 20.0])), draw(st.booleans())


def billed(comparison):
    """Each column's kind, markup flag and bills, every bill as its bits."""
    return [
        (b.kind, b.with_profit, [(key, v.hex()) for key, v in b.by_category_state.items()])
        for b in comparison.billings
    ]


class TestComparisonParity:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(comparison_case())
    def test_peak_block_bills_are_the_whole_grid_bills_bitwise(self, case):
        ds, event, tou, with_profit = case
        schedule = build_schedule(ds, event)
        _, grid, off_peak = loop_price_grid(ds, event)
        peak = [r for r, s in enumerate(ds.profile.states) if s.is_peak]
        assert schedule.prices.tobytes() == grid[peak].tobytes()
        assert schedule.on_peak == {
            (cid, ds.profile.states[r].index): price
            for r in peak for cid, price in zip(ds.table.ids, grid[r].tolist())
        }
        assert list(schedule.off_peak.items()) == list(off_peak.items())
        try:
            signals = (derive_flat(ds), rtp_signal(ds.profile), derive_tou(ds, tou),
                       proposed_signal(schedule))
        except ValueError as exc:  # the TOU peak block fell below the off-peak one
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                standard_comparison(ds, tou, with_profit, event)
            return
        want = billed(grid_compare(ds, signals, with_profit, event))
        assert billed(standard_comparison(ds, tou, with_profit, event)) == want
        assert billed(compare_signals(ds, signals, with_profit, event)) == want


# --- the scenario delta rows -----------------------------------------------------

@st.composite
def delta_case(draw):
    """A small three-category dataset and a preset or random event over it."""
    ds = build_dataset(
        industrial=draw(st.lists(st.floats(0.5, 900.0), min_size=2, max_size=6)),
        commercial=draw(st.lists(st.floats(0.5, 400.0), max_size=4)),
        residential=draw(st.lists(st.floats(0.5, 50.0), max_size=4)),
        profile=build_profile(
            mcps=draw(st.lists(st.floats(0.5, 20.0), min_size=24, max_size=24)),
            load_factors=draw(st.lists(st.floats(0.2, 1.5), min_size=24, max_size=24)),
            peak=tuple(draw(st.sets(STATES, min_size=1, max_size=6))),
        ),
    )
    if draw(st.booleans()):
        sc = preset_scenario(draw(st.sampled_from(PRESET_NAMES)), ds, seed=draw(st.integers(0, 99)))
    else:
        sc = random_dr_event(ds, draw(st.floats(0.0, 0.9)), draw(st.integers(0, 2**32)),
                             symmetric=draw(st.booleans()))
    return ds, sc


def delta_rows(deltas_of, base, perturbed, state, category):
    """A delta table's rows with every percentage as its exact bits, and
    its financials, or its error."""
    try:
        out = deltas_of(base, perturbed, state, category)
    except ValueError as exc:
        return ("error", str(exc))
    rows = [
        (d.customer_id, *(float(x).hex() for x in dataclasses.astuple(d)[1:]))
        for d in out.deltas
    ]
    return ("ok", out.state, out.category, rows, out.financials)


class TestDeltaRowParity:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(delta_case())
    def test_same_rows_at_every_state_for_every_category(self, case):
        ds, sc = case
        for state in ds.profile.states:
            perturbed = apply_scenario(ds, sc, at_state=state.index)
            for category in Category:
                args = (ds, perturbed, state.index, category)
                assert delta_rows(scenario_deltas, *args) == delta_rows(generator_scenario_deltas, *args)

    def test_rows_hold_python_floats(self, bench_ds):
        sc = preset_scenario("s3", bench_ds)
        perturbed = apply_scenario(bench_ds, sc)
        row = scenario_deltas(bench_ds, perturbed, 22, Category.INDUSTRIAL).deltas[0]
        assert {type(x) for x in dataclasses.astuple(row)[1:]} == {float}


# --- the id-prefix check ---------------------------------------------------------

PREFIX_IDS = st.sampled_from(
    ["", "R1", "C12", "I3", "R", "I", "X1", "r1", "R1a", "R1\n", "İ1", "I١٢", "𝐑1", "Ⅰ1",
     "C\u06f1", "\ud800", "\0", "R" * 40 + "1"]
) | st.text(max_size=4)


class TestPrefixParity:
    @PARITY
    @given(st.lists(st.tuples(PREFIX_IDS, st.sampled_from(list(Category))), max_size=12))
    @example([("", Category.RESIDENTIAL), ("R1", Category.INDUSTRIAL)])
    @example([("I1", Category.RESIDENTIAL), ("", Category.INDUSTRIAL)])
    @example([("𝐑1", Category.COMMERCIAL), ("C١", Category.RESIDENTIAL)])
    def test_same_mismatches(self, rows):
        table = CustomerTable.from_customers(Customer(cid, cat, 1.0) for cid, cat in rows)
        assert _prefix_mismatches(table) == loop_prefix_mismatches(table)
