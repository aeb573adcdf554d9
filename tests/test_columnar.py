"""The columnar customer table: validation findings in their old text and
order, the lazily built ``Dataset.customers``, table equality by value, and
CLI runs that build no ``Customer``."""

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from dlps import (
    Category,
    CategoryConfig,
    Customer,
    CustomerTable,
    Dataset,
    assemble_dataset,
    default_config,
    profile_to_csv,
    validate_dataset,
)
from dlps import cli
from dlps.domain import category_demands, demand_grid
from dlps.ingest import _customer_table

from helpers import build_dataset, build_profile, feeder_csv, loop_customer_violations


class TestValidation:
    def test_each_injected_fault(self):
        ds = build_dataset(industrial=[40, 50], residential=[8])
        faults = (
            Customer("I1", Category.INDUSTRIAL, 45.0),  # duplicate id
            Customer("R5", Category.INDUSTRIAL, 45.0),  # prefix mismatch
            Customer("R5a", Category.INDUSTRIAL, 45.0),  # not of the pattern
            Customer("X1", Category.INDUSTRIAL, 45.0),
            Customer("r5", Category.INDUSTRIAL, 45.0),
            Customer("I7", Category.INDUSTRIAL, 0.0),
            Customer("I8", Category.INDUSTRIAL, -3.0),
            Customer("I9", Category.INDUSTRIAL, math.nan),
            Customer("I11", Category.INDUSTRIAL, math.inf),
            Customer("C1", Category.COMMERCIAL, 20.0),  # unconfigured category
        )
        configs = (*ds.categories, CategoryConfig(Category.COMMERCIAL, 0.02))
        faulty = Dataset(
            CustomerTable.from_customers((*ds.customers, *faults)), ds.categories, ds.profile
        )
        unused = Dataset(ds.table, configs, ds.profile)  # configured, no customers
        assert [str(v) for v in validate_dataset(faulty)] == [
            "customer I1: duplicate customer id",
            "customer R5: id prefix 'R' does not match category 'industrial'",
            "customer I7: base demand must be > 0, got 0.0",
            "customer I8: base demand must be > 0, got -3.0",
            "customer I9: base demand must be finite, got nan",
            "customer I11: base demand must be finite, got inf",
            "customer C1: no configuration for category commercial",
        ]
        assert validate_dataset(faulty) == loop_customer_violations(faulty)
        assert [str(v) for v in validate_dataset(unused)] == [
            "category commercial: configured category has no customers"
        ]

    def test_non_finite_profile_values_flagged(self):
        profile = build_profile(mcps=[math.nan] + [3.0] * 23, load_factors=[1.0] * 23 + [math.inf])
        ds = build_dataset(industrial=[40], profile=profile)
        assert [str(v) for v in validate_dataset(ds)] == [
            "state 1: mcp must be finite, got nan",
            "state 24: load factor must be finite, got inf",
        ]


# --- the table behind a dataset ---------------------------------------------

class TestCustomerTable:
    def test_table_dataset_reads_like_the_tuple_dataset(self, bench_ds):
        table = CustomerTable.from_customers(bench_ds.customers)
        ds = dataclasses.replace(bench_ds, table=table)
        assert "customers" not in ds.__dict__
        assert ds.table is table
        assert ds.categories_present == bench_ds.categories_present
        assert ds.table.columns.keys() == bench_ds.table.columns.keys()
        for cat, cols in ds.table.columns.items():
            assert cols.tolist() == [
                j for j, c in enumerate(bench_ds.customers) if c.category == cat
            ]
            state = ds.profile.state(22)
            assert category_demands(ds, cat, state).tolist() == [
                c.base_demand * state.load_factor for c in bench_ds.customers_in(cat)
            ]
        assert np.array_equal(demand_grid(ds), demand_grid(bench_ds))
        assert ds.customers == bench_ds.customers
        assert type(ds.customers) is tuple
        assert ds.customers[5] == bench_ds.customers[5]
        assert len(ds.customers) == 177
        assert ds == bench_ds
        assert ds.customers_in(Category.INDUSTRIAL) == bench_ds.customers_in(Category.INDUSTRIAL)

    def test_replace_and_equality_keep_working(self, bench_ds):
        table = CustomerTable.from_customers(bench_ds.customers[::-1])
        ds = dataclasses.replace(bench_ds, table=table)
        assert ds.table.ids == tuple(c.id for c in bench_ds.customers[::-1])
        assert dataclasses.replace(ds, label="x").customers == ds.customers
        assert ds != bench_ds
        with pytest.raises(dataclasses.FrozenInstanceError):
            ds.customers = ()
        with pytest.raises(dataclasses.FrozenInstanceError):
            ds.table = bench_ds.table

    def test_tables_compare_by_value(self, bench_ds):
        table = bench_ds.table
        twin = CustomerTable(table.ids, table.codes.copy(), table.base.copy())
        assert twin == table and hash(twin) == hash(table)
        assert dataclasses.replace(bench_ds, table=twin) == bench_ds
        assert hash(dataclasses.replace(bench_ds, table=twin)) == hash(bench_ds)
        for other in (
            CustomerTable(table.ids, table.codes, table.base * 1.5),
            CustomerTable(table.ids, (table.codes + 1) % 3, table.base),
            CustomerTable(table.ids[::-1], table.codes, table.base),
        ):
            assert other != table
        assert table != table.to_customers()

    def test_columns_are_read_only(self, bench_ds):
        table = bench_ds.table
        for array in (table.base, table.codes, *table.columns.values()):
            with pytest.raises(ValueError):
                array[0] = 0

    def test_empty_table(self):
        table = _customer_table("id,category,base_demand_kw\n")
        assert len(table) == 0 and table.columns == {} and table.to_customers() == ()
        ds = assemble_dataset(table, default_config(), [], label="empty")
        assert ds.categories == () and ds.customers == ()


# --- CLI runs build no Customer object -----------------------------------

@pytest.fixture()
def feeder_args(tmp_path, bench_ds):
    """--customers and --mcp for a seeded 2,000-customer CSV feeder."""
    customers = tmp_path / "customers.csv"
    customers.write_text(feeder_csv(2000, seed=1))
    mcp = tmp_path / "mcp.csv"
    mcp.write_text(profile_to_csv(bench_ds.profile))
    return ["--customers", str(customers), "--mcp", str(mcp)]


@pytest.fixture()
def built(monkeypatch):
    """One entry per ``Customer`` constructed while the test runs."""
    built = []
    init = Customer.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Customer, "__init__", counting_init)
    return built


SCENARIO_FILES = {
    "explicit.json": {
        "label": "mixed",
        "perturbations": {"I1": -0.2, "I2": {"22": 0.1, "18": -0.05}, "R3": 0.3},
    },
    "random.json": {
        "label": "storm", "mode": "random", "max_reduction": 0.2, "seed": 5, "symmetric": True,
    },
}

# SHA-256 of stdout on the 2,000-customer feeder, pinned from the
# per-customer apply_scenario that ``helpers.loop_apply_scenario`` keeps
SCENARIO_DIGESTS = {
    "s1": (["--preset", "s1"], "2b2fd262f501e4cd4292214e83b0d45236aac2400723f4442f7028bb66722d80"),
    "s2": (["--preset", "s2"], "5be7b3cd0cf2694f07ffbecdbd6db81d9820792498872130b5a2a55e702a4c7f"),
    "s3": (["--preset", "s3"], "166c92d39f8cda43504f07c961f23f0f188915c43bd54444721ff79b92688da4"),
    "s4": (["--preset", "s4"], "5888206ed346515c7688911f0e359847ca970e9886af0aa7561389961a9993e4"),
    "explicit": (
        ["--scenario", "explicit.json"],
        "29ad97f43a7c00c99af9c049625d1ab200f9703ba83b3fae790b53b3047db661",
    ),
    "random": (
        ["--scenario", "random.json"],
        "895aac983dd375912a1ce31b2d84900f7f1c7b87ec2d0f8c3c067dad0401f38c",
    ),
    "explicit-residential-json": (
        ["--scenario", "explicit.json", "--category", "residential", "--format", "json"],
        "dd42ced732cb2831bb6fd543b308627ef24b5d8686994a91c481021d0f37c793",
    ),
}


class TestNoCustomerObjects:
    @pytest.mark.parametrize(
        "command",
        [["price", "--all"], ["price", "--all", "--format", "json"], ["price", "--state", "22"],
         ["compare", "--dr-max", "0.15"]],
    )
    def test_cli_builds_no_customer(self, capsys, monkeypatch, feeder_args, built, command):
        argv = [*command, *feeder_args]
        assert cli.main(argv) == 0
        lean = capsys.readouterr().out
        assert len(built) == 0

        load = cli._load_dataset

        def load_with_customers(args):
            ds = load(args)
            assert len(ds.customers) == 2000
            return ds

        monkeypatch.setattr(cli, "_load_dataset", load_with_customers)
        assert cli.main(argv) == 0
        assert len(built) >= 2000
        assert capsys.readouterr().out == lean

    @pytest.mark.parametrize("name", SCENARIO_DIGESTS)
    def test_scenario_builds_no_customer(self, capsys, tmp_path, feeder_args, built, name):
        for file_name, doc in SCENARIO_FILES.items():
            (tmp_path / file_name).write_text(json.dumps(doc))
        extra, digest = SCENARIO_DIGESTS[name]
        extra = [str(tmp_path / arg) if arg in SCENARIO_FILES else arg for arg in extra]
        assert cli.main(["scenario", *extra, *feeder_args]) == 0
        assert len(built) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
