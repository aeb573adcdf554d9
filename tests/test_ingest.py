"""Parsers, serializers, the bundled dataset, and the data-dir override."""

import dataclasses
import json
import os
import re

import numpy as np
import pytest

from dlps import (
    Category,
    Customer,
    ParseError,
    assemble_dataset,
    bundled_benchmark,
    config_to_json,
    customers_to_csv,
    default_config,
    parse_config,
    parse_customers,
    parse_mcp,
    profile_to_csv,
    validate_dataset,
)
from dlps import ingest
from dlps.ingest import StateRow

CUSTOMERS_CSV = """id,category,base_demand_kw
I1,industrial,30
I2,I,45.5
R1,Residential,8
"""

GOOD_CUSTOMERS_CSV = "id,category,base_demand_kw\nI1,industrial,30\nI2,industrial,60\n"

MCP_CSV = "state,mcp_rs_per_kwh,load_factor\n" + "".join(
    f"{i},{2.0 + i * 0.1:g},{0.5 + i * 0.02:g}\n" for i in range(1, 25)
)


@pytest.fixture
def hypothesis():
    return pytest.importorskip("hypothesis")


def write_data_dir(path, bench_ds, customers=GOOD_CUSTOMERS_CSV):
    (path / "customers.csv").write_text(customers)
    (path / "mcp.csv").write_text(profile_to_csv(bench_ds.profile))
    (path / "config.json").write_text("{}")


class TestParseCustomers:
    def test_accepts_names_and_letters(self):
        customers = parse_customers(CUSTOMERS_CSV)
        assert [c.id for c in customers] == ["I1", "I2", "R1"]
        assert customers[1].category is Category.INDUSTRIAL
        assert customers[2].category is Category.RESIDENTIAL
        assert customers[1].base_demand == 45.5

    def test_blank_lines_skipped(self):
        text = "id,category,base_demand_kw\n\nI1,industrial,30\n\n"
        assert len(parse_customers(text)) == 1

    def test_empty_body_gives_empty_list(self):
        assert parse_customers("id,category,base_demand_kw\n") == []

    def test_missing_header(self):
        with pytest.raises(ParseError, match="missing header"):
            parse_customers("")

    def test_wrong_header_names_expected(self):
        with pytest.raises(ParseError, match="expected id,category,base_demand_kw"):
            parse_customers("customer,kind,kw\nI1,industrial,30\n")

    def test_field_count_carries_line_number(self):
        text = "id,category,base_demand_kw\nI1,industrial,30\nI2,industrial\n"
        with pytest.raises(ParseError) as err:
            parse_customers(text, source="feeder.csv")
        assert err.value.source == "feeder.csv"
        assert err.value.line == 3
        assert "feeder.csv:3" in str(err.value)

    def test_empty_id(self):
        with pytest.raises(ParseError, match="empty customer id"):
            parse_customers("id,category,base_demand_kw\n,industrial,30\n")

    def test_duplicate_id(self):
        text = "id,category,base_demand_kw\nI1,industrial,30\nI1,industrial,31\n"
        with pytest.raises(ParseError, match="duplicate customer id"):
            parse_customers(text)

    def test_unknown_category_names_field(self):
        with pytest.raises(ParseError) as err:
            parse_customers("id,category,base_demand_kw\nI1,farm,30\n")
        assert err.value.field == "category"
        assert err.value.line == 2

    def test_non_numeric_demand(self):
        with pytest.raises(ParseError, match="not a number"):
            parse_customers("id,category,base_demand_kw\nI1,industrial,lots\n")

    def test_nonpositive_demand(self):
        with pytest.raises(ParseError, match="must be > 0"):
            parse_customers("id,category,base_demand_kw\nI1,industrial,0\n")


class TestParseMcp:
    def test_full_day(self):
        rows = parse_mcp(MCP_CSV)
        assert [r.index for r in rows] == list(range(1, 25))
        assert rows[21].mcp == pytest.approx(4.2)

    def test_rows_sorted_even_if_input_is_not(self):
        lines = MCP_CSV.splitlines()
        shuffled = "\n".join([lines[0]] + lines[1:][::-1]) + "\n"
        rows = parse_mcp(shuffled)
        assert [r.index for r in rows] == list(range(1, 25))

    def test_wrong_state_count(self):
        text = "\n".join(MCP_CSV.splitlines()[:-1]) + "\n"
        with pytest.raises(ParseError, match="expected 24 states, found 23"):
            parse_mcp(text)

    def test_non_integer_state(self):
        text = MCP_CSV.replace("\n3,", "\nthree,", 1)
        with pytest.raises(ParseError, match="not an integer"):
            parse_mcp(text)

    def test_state_out_of_range(self):
        text = MCP_CSV.replace("\n24,", "\n25,", 1)
        with pytest.raises(ParseError, match="must be in 1..24"):
            parse_mcp(text)

    def test_duplicate_state(self):
        text = MCP_CSV.replace("\n24,", "\n23,", 1)
        with pytest.raises(ParseError, match="duplicate state 23"):
            parse_mcp(text)

    def test_nonpositive_mcp_names_line(self):
        text = MCP_CSV.replace("\n5,2.5,", "\n5,-2.5,", 1)
        with pytest.raises(ParseError) as err:
            parse_mcp(text, source="day.csv")
        assert err.value.field == "mcp_rs_per_kwh"
        assert err.value.line == 6

    def test_nonpositive_load_factor(self):
        text = MCP_CSV.replace(",0.52\n", ",0\n", 1)
        with pytest.raises(ParseError, match="load factor must be > 0"):
            parse_mcp(text)


def factors(config) -> dict:
    return {cfg.category: cfg.profit_factor for cfg in config.categories}


class TestParseConfig:
    def test_empty_object_is_all_defaults(self):
        config = parse_config("{}")
        assert config == default_config()
        assert [cfg.category for cfg in config.categories] == list(Category)
        assert factors(config) == {
            Category.RESIDENTIAL: 0.03,
            Category.COMMERCIAL: 0.02,
            Category.INDUSTRIAL: 0.01,
        }
        assert config.peak_states == frozenset(range(18, 24))

    def test_partial_override_keeps_other_defaults(self):
        config = parse_config('{"profit_factors": {"industrial": 0.05}}')
        assert factors(config)[Category.INDUSTRIAL] == 0.05
        assert factors(config)[Category.RESIDENTIAL] == 0.03
        assert config.peak_states == frozenset(range(18, 24))

    def test_letter_keys_accepted(self):
        config = parse_config('{"profit_factors": {"R": 0.04}}')
        assert factors(config)[Category.RESIDENTIAL] == 0.04

    def test_peak_states_override(self):
        config = parse_config('{"peak_states": [10, 11, 12]}')
        assert config.peak_states == frozenset({10, 11, 12})

    def test_not_json(self):
        with pytest.raises(ParseError, match="not valid JSON"):
            parse_config("{nope")

    @pytest.mark.parametrize(
        "text", ["[" * 100_000, '{"peak_states": ' + "[" * 100_000], ids=["top", "in-object"]
    )
    def test_deep_nesting_is_a_parse_error_naming_the_file(self, text):
        with pytest.raises(ParseError, match=r"^config\.json: JSON nested too deeply$"):
            parse_config(text, source="config.json")

    def test_not_an_object(self):
        with pytest.raises(ParseError, match="JSON object"):
            parse_config("[1]")

    def test_unknown_keys_rejected(self):
        with pytest.raises(ParseError, match="unknown configuration keys"):
            parse_config('{"margins": {}}')

    def test_unknown_category(self):
        with pytest.raises(ParseError, match="unknown category"):
            parse_config('{"profit_factors": {"farm": 0.1}}')

    def test_factor_out_of_range(self):
        with pytest.raises(ParseError, match="must be in \\[0, 1\\)"):
            parse_config('{"profit_factors": {"industrial": 1.5}}')

    def test_factor_not_a_number(self):
        with pytest.raises(ParseError, match="not a number"):
            parse_config('{"profit_factors": {"industrial": "lots"}}')

    def test_peak_states_must_be_list(self):
        with pytest.raises(ParseError, match="list of state indices"):
            parse_config('{"peak_states": "18-23"}')

    def test_peak_state_not_integer(self):
        with pytest.raises(ParseError, match="not an integer"):
            parse_config('{"peak_states": [18, true]}')

    def test_peak_state_out_of_range(self):
        with pytest.raises(ParseError, match="out of range"):
            parse_config('{"peak_states": [0]}')

    def test_duplicate_peak_state(self):
        with pytest.raises(ParseError, match="duplicate peak state"):
            parse_config('{"peak_states": [18, 18]}')

    @pytest.mark.parametrize(
        "doc, where",
        [
            ('{"profit_factors": {"residential": 0.03, "residential": 0.5}}',
             "repeated key 'residential' in profit_factors"),
            ('{"profit_factors": {"r": 0.5}, "profit_factors": {}}',
             "repeated key 'profit_factors' in the top-level object"),
            ('{"peak_states": [18, [{"a": 1, "a": 2}]]}', "repeated key 'a' in peak_states.1.0"),
        ],
    )
    def test_repeated_key_rejected(self, doc, where):
        with pytest.raises(ParseError) as err:
            parse_config(doc, "run.json")
        assert str(err.value) == f"run.json: {where}"

    @pytest.mark.parametrize("keys", [("r", "residential"), ("Industrial", " i "), ("R", "r")])
    def test_two_spellings_of_one_category_rejected(self, keys):
        first, second = keys
        doc = json.dumps({"profit_factors": {"commercial": 0.02, first: 0.03, second: 0.05}})
        with pytest.raises(ParseError) as err:
            parse_config(doc)
        assert err.value.field == "profit_factors"
        assert f"{first!r} and {second!r} both name category" in str(err.value)

    def test_empty_peak_window(self):
        with pytest.raises(ParseError, match="must not be empty"):
            parse_config('{"peak_states": []}')

    def test_all_day_peak_rejected(self):
        states = list(range(1, 25))
        with pytest.raises(ParseError, match="at least one off-peak"):
            parse_config('{"peak_states": %s}' % states)

    @pytest.mark.parametrize("value", ["false", "true", '"0.01"', "null", "[0.01]"])
    def test_factor_must_be_a_json_number(self, value):
        with pytest.raises(ParseError, match="profit factor for 'industrial' is not a number") as err:
            parse_config('{"profit_factors": {"industrial": %s}}' % value)
        assert err.value.field == "profit_factors"

    @pytest.mark.parametrize(
        "value", ["NaN", "Infinity", "1e400", pytest.param("1" + "0" * 400, id="huge-int")]
    )
    def test_non_finite_factor_out_of_range(self, value):
        with pytest.raises(ParseError, match="must be in \\[0, 1\\)") as err:
            parse_config('{"profit_factors": {"industrial": %s}}' % value)
        assert err.value.field == "profit_factors"

    def test_integer_factor_accepted(self):
        config = parse_config('{"profit_factors": {"industrial": 0}}')
        assert factors(config)[Category.INDUSTRIAL] == 0.0
        assert type(factors(config)[Category.INDUSTRIAL]) is float


class TestRoundTrips:
    def test_customers(self):
        customers = parse_customers(CUSTOMERS_CSV)
        text = customers_to_csv(customers)
        assert parse_customers(text) == customers
        # canonical form is a fixed point
        assert customers_to_csv(parse_customers(text)) == text

    def test_profile_rows(self):
        rows = parse_mcp(MCP_CSV)
        text = profile_to_csv(rows)
        assert parse_mcp(text) == rows
        assert profile_to_csv(parse_mcp(text)) == text

    def test_profile_from_day(self, bench_ds):
        text = profile_to_csv(bench_ds.profile)
        rows = parse_mcp(text)
        assert [r.mcp for r in rows] == [s.mcp for s in bench_ds.profile.states]

    def test_config(self):
        config = parse_config('{"profit_factors": {"industrial": 0.05}}')
        text = config_to_json(config)
        assert parse_config(text) == config

    def test_generated_customers_read_back_or_are_refused(self, hypothesis):
        st = hypothesis.strategies
        # mostly ids that read back, with commas, quotes, newlines, NULs and
        # other scripts inside, and now and then any text at all
        inside = st.text(max_size=4) | st.text(st.sampled_from(list(',"\n\0 \t\xa0é😀')), max_size=4)
        odd = st.builds("{}{}{}".format, st.sampled_from("RCI"), inside, st.sampled_from("0123456789"))
        ids = st.lists(odd | odd | odd | st.text(max_size=3), min_size=1, max_size=8, unique=True)
        demands = st.floats(5e-324, 1e308) | st.sampled_from([5e-324, 2.2250738585072014e-308, 1e308])

        @st.composite
        def feeders(draw):
            return [Customer(cid, draw(st.sampled_from(Category)), draw(demands)) for cid in draw(ids)]

        def one(cid):
            return [Customer("I1", Category.INDUSTRIAL, 30.0), Customer(cid, Category.RESIDENTIAL, 8.0)]

        # the ids that cannot read back: a CR, which files read as a newline,
        # whitespace around the id, which the reader strips, no id at all, and
        # an id written before, which the reader refuses as a duplicate
        @hypothesis.settings(derandomize=True, max_examples=80, deadline=None)
        @hypothesis.given(feeders())
        @hypothesis.example(one("R\r1"))
        @hypothesis.example(one(" R1 "))
        @hypothesis.example(one("R1\t"))
        @hypothesis.example(one("R\xa0"))
        @hypothesis.example(one(""))
        @hypothesis.example(one("   "))
        @hypothesis.example(one("I1"))
        def check(customers):
            try:
                text = customers_to_csv(customers)
            except ValueError as exc:
                assert any(repr(c.id) in str(exc) for c in customers), exc
                return
            assert parse_customers(text) == customers
            # as a file is read: the bytes decoded, each CR read as a newline
            assert parse_customers(ingest._decode(text.encode("utf-8"), "feeder.csv")) == customers

        check()

    def test_generated_profiles_read_back(self, hypothesis):
        st = hypothesis.strategies
        values = st.floats(5e-324, 1e308) | st.sampled_from([5e-324, 1e308])

        @st.composite
        def profiles(draw):  # every state, in any order
            return [StateRow(i, draw(values), draw(values)) for i in draw(st.permutations(range(1, 25)))]

        @hypothesis.settings(derandomize=True, max_examples=20, deadline=None)
        @hypothesis.given(profiles())
        def check(rows):
            assert parse_mcp(profile_to_csv(rows)) == sorted(rows, key=lambda r: r.index)

        check()


class TestAssembly:
    def test_only_present_categories_configured(self):
        customers = parse_customers("id,category,base_demand_kw\nI1,industrial,30\n")
        ds = assemble_dataset(customers, default_config(), parse_mcp(MCP_CSV))
        assert [cfg.category for cfg in ds.categories] == [Category.INDUSTRIAL]

    def test_peak_window_lands_on_profile(self):
        config = parse_config('{"peak_states": [5, 6]}')
        customers = parse_customers("id,category,base_demand_kw\nI1,industrial,30\n")
        ds = assemble_dataset(customers, config, parse_mcp(MCP_CSV))
        assert ds.profile.peak_indices == (5, 6)


class TestBundledBenchmark:
    def test_census(self, bench_ds):
        assert len(bench_ds.customers) == 177
        counts = {
            cat: len(bench_ds.customers_in(cat))
            for cat in bench_ds.categories_present
        }
        assert counts[Category.RESIDENTIAL] == 106
        assert counts[Category.COMMERCIAL] == 48
        assert counts[Category.INDUSTRIAL] == 23

    def test_industrial_aggregates(self, bench_ds):
        demands = [c.base_demand for c in bench_ds.customers_in(Category.INDUSTRIAL)]
        assert sum(demands) == pytest.approx(1230.0)
        assert sum(d * d for d in demands) == pytest.approx(74872.0)

    def test_reference_state(self, bench_ds):
        state = bench_ds.profile.state(22)
        assert state.mcp == pytest.approx(4.845626)
        assert state.load_factor == 1.0
        assert state.is_peak

    def test_profit_factors(self, bench_ds):
        assert bench_ds.profit_factor(Category.RESIDENTIAL) == 0.03
        assert bench_ds.profit_factor(Category.COMMERCIAL) == 0.02
        assert bench_ds.profit_factor(Category.INDUSTRIAL) == 0.01

    def test_passes_validation(self, bench_ds):
        assert validate_dataset(bench_ds) == []

    def test_labels_flag_the_synthetic_states(self, bench_ds):
        assert bench_ds.label == "bundled-benchmark"
        assert "synthetic" in bench_ds.profile.source


class TestDataDirOverride:
    def test_reads_from_override_dir(self, bench_ds, tmp_path, monkeypatch):
        (tmp_path / "customers.csv").write_text(
            "id,category,base_demand_kw\nI1,industrial,30\nI2,industrial,60\n"
        )
        (tmp_path / "mcp.csv").write_text(profile_to_csv(bench_ds.profile))
        (tmp_path / "config.json").write_text("{}")
        monkeypatch.setenv("DLPS_DATA_DIR", str(tmp_path))
        ds = bundled_benchmark()
        assert len(ds.customers) == 2
        assert ds.customers[0].id == "I1"

    def test_missing_override_file_raises(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DLPS_DATA_DIR", str(tmp_path))
        with pytest.raises(OSError):
            bundled_benchmark()

    def test_parse_error_names_the_path_read(self, bench_ds, tmp_path, monkeypatch):
        write_data_dir(tmp_path, bench_ds, "id,category,base_demand_kw\nI1,industrial,nan\n")
        monkeypatch.setenv("DLPS_DATA_DIR", str(tmp_path))
        path = os.path.join(str(tmp_path), "customers.csv")
        with pytest.raises(ParseError, match=f"^{re.escape(path)}:2: field 'base_demand_kw': "):
            bundled_benchmark()

    def test_packaged_data_keeps_the_bare_file_names(self):
        for name in ("customers.csv", "mcp.csv", "config.json"):
            assert ingest._read_data_file(name)[1] == name


class TestBundledCache:
    """``bundled_benchmark`` reads its files on every call and parses them
    again only when a text or its source changes."""

    def test_unchanged_texts_give_the_same_dataset(self):
        assert bundled_benchmark() is bundled_benchmark()

    def test_rewritten_file_gives_the_new_data(self, bench_ds, tmp_path, monkeypatch):
        write_data_dir(tmp_path, bench_ds)
        monkeypatch.setenv("DLPS_DATA_DIR", str(tmp_path))
        first = bundled_benchmark()
        assert first.table.ids == ("I1", "I2") and bundled_benchmark() is first
        (tmp_path / "customers.csv").write_text(GOOD_CUSTOMERS_CSV + "I3,industrial,90\n")
        assert bundled_benchmark().table.ids == ("I1", "I2", "I3")
        (tmp_path / "config.json").write_text('{"peak_states": [20]}')
        assert bundled_benchmark().profile.peak_indices == (20,)

    def test_switching_the_data_dir_gives_its_data(self, bench_ds, tmp_path, monkeypatch):
        write_data_dir(tmp_path, bench_ds)
        packaged = bundled_benchmark()
        monkeypatch.setenv("DLPS_DATA_DIR", str(tmp_path))
        assert len(bundled_benchmark().table) == 2
        monkeypatch.delenv("DLPS_DATA_DIR")
        assert len(bundled_benchmark().table) == 177
        assert bundled_benchmark() == packaged

    def test_parse_error_is_raised_again_until_fixed(self, bench_ds, tmp_path, monkeypatch):
        write_data_dir(tmp_path, bench_ds, GOOD_CUSTOMERS_CSV + "I3,industrial,-1\n")
        monkeypatch.setenv("DLPS_DATA_DIR", str(tmp_path))
        for _ in range(2):
            with pytest.raises(ParseError, match="customers.csv:4: field 'base_demand_kw'"):
                bundled_benchmark()
        (tmp_path / "customers.csv").write_text(GOOD_CUSTOMERS_CSV)
        assert len(bundled_benchmark().table) == 2

    def test_same_bad_text_elsewhere_names_its_own_path(self, bench_ds, tmp_path, monkeypatch):
        bad = GOOD_CUSTOMERS_CSV + "I3,industrial,x\n"
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            write_data_dir(tmp_path / name, bench_ds, bad)
            monkeypatch.setenv("DLPS_DATA_DIR", str(tmp_path / name))
            with pytest.raises(ParseError) as exc:
                bundled_benchmark()
            assert exc.value.source == os.path.join(str(tmp_path / name), "customers.csv")

    def test_shared_dataset_is_read_only(self):
        ds = bundled_benchmark()
        table = ds.table
        for array in (table.base, table.codes, *table.columns.values()):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0
        with pytest.raises(TypeError):
            table.columns[Category.INDUSTRIAL] = np.arange(3)
        with pytest.raises(TypeError):
            del table.columns[Category.INDUSTRIAL]
        with pytest.raises(dataclasses.FrozenInstanceError):
            ds.label = "changed"
        with pytest.raises(dataclasses.FrozenInstanceError):
            ds.profile.states[0].mcp = 1.0
        assert isinstance(ds.table.ids, tuple) and isinstance(ds.customers, tuple)
        assert len(bundled_benchmark().table.columns[Category.INDUSTRIAL]) == 23
