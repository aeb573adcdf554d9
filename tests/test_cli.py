"""Command-line behaviour: tables, exit codes, determinism, validation.

Most tests drive main() in-process and read captured stdout; one subprocess
smoke test proves the installed entry point works end to end.
"""

import csv
import hashlib
import io
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from dlps import (
    Category, CustomerTable, bundled_benchmark, cli, fixed_price, ingest, load_scenario,
    off_peak_price, profile_to_csv,
)
from dlps.cli import main, run_validation

from helpers import build_dataset, feeder_csv, round2_reference

GOOD_CUSTOMERS = "id,category,base_demand_kw\nI1,industrial,30\nI2,industrial,60\n"


def run(argv, capsys, monkeypatch=None, stdin_text=None):
    """Run the CLI; ``stdin_text`` (text, sent as UTF-8, or bytes) is piped
    to its standard input."""
    if stdin_text is not None:
        data = stdin_text if isinstance(stdin_text, bytes) else stdin_text.encode("utf-8")
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def sections(out: str) -> dict[str, list[dict]]:
    """Split '# name' delimited stdout into {table name: rows}."""
    tables: dict[str, list[dict]] = {}
    name = None
    body: list[str] = []
    for line in out.splitlines() + ["# end"]:
        if line.startswith("# "):
            if name is not None:
                tables[name] = list(csv.DictReader(body))
            name = line[2:]
            body = []
        elif line:
            body.append(line)
    return tables


def by_id(rows, key="id"):
    return {row[key]: row for row in rows}


class TestPrice:
    def test_reference_state_table(self, capsys):
        code, out, err = run(["price", "--benchmark", "--state", "22"], capsys)
        assert code == 0
        rows = by_id(sections(out)["price_state22"])
        assert len(rows) == 177
        assert rows["I8"]["unit_price_rs"] == "7.40"
        assert rows["I8"]["fixed_price_rs"] == "4.89"
        assert rows["I8"]["billing_rs"] == "680.51"
        assert rows["I8"]["demand_contribution_pct"] == "7.48"
        assert rows["I19"]["unit_price_rs"] == "2.01"
        assert rows["R1"]["demand_kw"] == "8"

    def test_off_peak_state_prices_uniformly(self, capsys):
        code, out, _ = run(["price", "--benchmark", "--state", "3"], capsys)
        assert code == 0
        rows = sections(out)["price_state3"]
        industrial = {r["unit_price_rs"] for r in rows if r["category"] == "industrial"}
        assert len(industrial) == 1

    def test_all_states(self, capsys):
        code, out, _ = run(["price", "--benchmark", "--all"], capsys)
        assert code == 0
        tables = sections(out)
        assert len(tables["on_peak"]) == 177 * 6
        assert len(tables["off_peak"]) == 3
        assert {r["category"] for r in tables["off_peak"]} == {
            "residential", "commercial", "industrial",
        }

    def test_json_format_keeps_precision(self, capsys):
        code, out, _ = run(
            ["price", "--benchmark", "--state", "22", "--format", "json"], capsys
        )
        assert code == 0
        payload = out.split("\n", 1)[1]
        doc = json.loads(payload)
        assert doc["table"] == "price_state22"
        heavy = next(r for r in doc["rows"] if r["id"] == "I8")
        assert heavy["unit_price_rs"] == pytest.approx(7.3968, abs=1e-3)

    def test_out_dir_with_manifest(self, capsys, tmp_path):
        out_dir = tmp_path / "tables"
        code, _, _ = run(
            ["price", "--benchmark", "--state", "22", "--out", str(out_dir)], capsys
        )
        assert code == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["tables"] == {"price_state22": "price_state22.csv"}
        text = (out_dir / "price_state22.csv").read_text()
        assert text.startswith("id,category,demand_kw")

    def test_unknown_state_exits_1(self, capsys):
        code, _, err = run(["price", "--benchmark", "--state", "25"], capsys)
        assert code == 1
        assert "no state with index 25" in err

    def test_missing_inputs_exits_2(self, capsys):
        code, _, err = run(["price", "--state", "22"], capsys)
        assert code == 2
        assert "no input" in err

    @pytest.mark.parametrize("flag", ["--customers", "--mcp", "--config"])
    def test_benchmark_with_a_file_flag_exits_2(self, capsys, tmp_path, flag):
        argv = ["price", "--benchmark", flag, str(tmp_path / "missing"), "--state", "22"]
        assert run(argv, capsys) == (
            2, "", f"error: arguments: --benchmark cannot be combined with {flag}\n"
        )

    def test_benchmark_names_every_file_flag_given(self, capsys):
        argv = ["price", "--benchmark", "--config", "c.json", "--customers", "-", "--all"]
        assert run(argv, capsys) == (
            2, "", "error: arguments: --benchmark cannot be combined with --customers, --config\n"
        )

    def test_files_instead_of_benchmark(self, capsys, tmp_path, bench_ds):
        customers = tmp_path / "customers.csv"
        customers.write_text(GOOD_CUSTOMERS)
        mcp = tmp_path / "mcp.csv"
        mcp.write_text(profile_to_csv(bench_ds.profile))
        code, out, _ = run(
            ["price", "--customers", str(customers), "--mcp", str(mcp),
             "--state", "22"], capsys,
        )
        assert code == 0
        rows = by_id(sections(out)["price_state22"])
        assert len(rows) == 2
        # 30 and 60 kW: prices split 2:1 around the marked-up market price
        assert rows["I1"]["unit_price_rs"] == "2.94"
        assert rows["I2"]["unit_price_rs"] == "5.87"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("count, command, table", [
        pytest.param(2, ["price", "--state", "22"], "price_state22", id="price-state-two"),
        pytest.param(3, ["price", "--state", "22"], "price_state22", id="price-state-three"),
        pytest.param(3, ["compare", "--dr-max", "0"], "comparison", id="compare-no-event"),
        pytest.param(3, ["compare"], "comparison", id="compare-event"),
    ])
    def test_non_finite_price_exits_1_without_output(
        self, capsys, tmp_path, bench_ds, count, command, table
    ):
        # finite demands near the float limit pass ingest, validation and
        # pricing, but their bills overflow; the table writer must refuse the
        # non-finite cells rather than print them, in one line and without
        # a numpy warning
        customers = tmp_path / "customers.csv"
        customers.write_text("id,category,base_demand_kw\n" + "".join(
            f"I{j},industrial,1e308\n" for j in range(1, count + 1)
        ))
        mcp = tmp_path / "mcp.csv"
        mcp.write_text(profile_to_csv(bench_ds.profile))
        argv = [command[0], "--customers", str(customers), "--mcp", str(mcp), *command[1:]]
        assert run(argv, capsys) == (
            1, "", f"error: table {table}, column billing_rs: non-finite value inf\n"
        )

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("demand, count", [
        pytest.param("1e200", 2, id="1e200"),
        pytest.param("1e308", 2, id="1e308"),
        pytest.param("1e308", 3, id="1e308-three"),
        pytest.param("1e-320", 2, id="1e-320"),
    ])
    def test_equal_pair_at_the_float_edges_pays_the_flat_price(
        self, capsys, tmp_path, bench_ds, demand, count
    ):
        # the sum of squared demands overflows (1e200, 1e308) or underflows to
        # zero (1e-320), the off-peak window's energy overflows (1e308), and
        # so does each off-peak state's total (three of 1e308); every customer
        # must still pay (1 + p) * mcp at each peak state and the
        # load-weighted off-peak price
        customers = tmp_path / "customers.csv"
        customers.write_text("id,category,base_demand_kw\n" + "".join(
            f"I{j},industrial,{demand}\n" for j in range(1, count + 1)
        ))
        mcp = tmp_path / "mcp.csv"
        mcp.write_text(profile_to_csv(bench_ds.profile))
        code, out, err = run(["price", "--customers", str(customers), "--mcp", str(mcp), "--all"], capsys)
        assert (code, err) == (0, "")
        kp = bench_ds.profit_factor(Category.INDUSTRIAL)
        flat = {
            str(s.index): round2_reference(fixed_price(s.mcp, kp)) for s in bench_ds.profile.peak_states
        }
        rows = sections(out)["on_peak"]
        assert len(rows) == 6 * count
        assert all(row["unit_price_rs"] == flat[row["state"]] for row in rows)
        window = bench_ds.profile.off_peak_states
        off_peak = off_peak_price([s.load_factor for s in window], [s.mcp for s in window], kp)
        assert sections(out)["off_peak"] == [
            {"category": "industrial", "unit_price_rs": round2_reference(off_peak)}
        ]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "demand, mcp_scale, which, message",
        [
            ("1e308", 1, "--state", "table price_state22, column billing_rs: "
             "non-finite value inf"),
            ("30", 1e27, "--all", "table on_peak, column unit_price_rs: "
             "value too large to round to cents"),
            ("30", 1e27, "--state", "table price_state22, column unit_price_rs: "
             "value too large to round to cents"),
        ],
    )
    def test_unprintable_cell_names_table_and_column(
        self, capsys, tmp_path, bench_ds, demand, mcp_scale, which, message, fmt
    ):
        customers = tmp_path / "customers.csv"
        customers.write_text(f"id,category,base_demand_kw\nI1,industrial,{demand}\nI2,industrial,{demand}\n")
        mcp = tmp_path / "mcp.csv"
        mcp.write_text("state,mcp_rs_per_kwh,load_factor\n" + "".join(
            f"{s.index},{s.mcp * mcp_scale!r},{s.load_factor!r}\n" for s in bench_ds.profile.states
        ))
        argv = ["price", "--customers", str(customers), "--mcp", str(mcp), "--format", fmt, which]
        code, out, err = run(argv + (["22"] if which == "--state" else []), capsys)
        if fmt == "json" and "too large" in message:
            assert code == 0  # JSON keeps full precision and rounds nothing
        else:
            assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("which", ["--all", "--state"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", " Infinity "])
    def test_non_finite_demand_exits_2_naming_line_and_field(
        self, capsys, tmp_path, bench_ds, which, value
    ):
        customers = tmp_path / "customers.csv"
        customers.write_text(GOOD_CUSTOMERS + f"I3,industrial,{value}\n")
        mcp = tmp_path / "mcp.csv"
        mcp.write_text(profile_to_csv(bench_ds.profile))
        argv = ["price", "--customers", str(customers), "--mcp", str(mcp), which]
        code, out, err = run(argv + (["22"] if which == "--state" else []), capsys)
        assert code == 2
        assert out == ""
        assert f"{customers}:4: field 'base_demand_kw': base demand must be" in err

    @pytest.mark.parametrize(
        "field,row", [("mcp_rs_per_kwh", "5,nan,0.5"), ("load_factor", "5,2.5,inf")]
    )
    def test_non_finite_profile_exits_2_naming_line_and_field(
        self, capsys, tmp_path, bench_ds, field, row
    ):
        customers = tmp_path / "customers.csv"
        customers.write_text(GOOD_CUSTOMERS)
        lines = profile_to_csv(bench_ds.profile).splitlines()
        lines[5] = row
        mcp = tmp_path / "mcp.csv"
        mcp.write_text("\n".join(lines) + "\n")
        argv = ["price", "--customers", str(customers), "--mcp", str(mcp), "--all"]
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert f"{mcp}:6: field '{field}': " in err and "must be finite" in err

    @pytest.mark.parametrize("which", ["--customers", "--mcp"])
    def test_cell_over_the_csv_field_limit_exits_2_naming_line(
        self, capsys, tmp_path, bench_ds, which
    ):
        huge = "1" * 200_000  # over the csv module's 131,072-character field limit
        customers = tmp_path / "customers.csv"
        mcp = tmp_path / "mcp.csv"
        lines = profile_to_csv(bench_ds.profile).splitlines()
        if which == "--customers":
            customers.write_text(GOOD_CUSTOMERS + f"I3,industrial,{huge}\nI4,industrial,5\n")
            mcp.write_text("\n".join(lines) + "\n")
            bad = f"{customers}:4: "
        else:
            customers.write_text(GOOD_CUSTOMERS)
            lines[5] = f"5,{huge},0.5"
            mcp.write_text("\n".join(lines) + "\n")
            bad = f"{mcp}:6: "
        argv = ["price", "--customers", str(customers), "--mcp", str(mcp), "--all"]
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: {bad}unreadable CSV: field larger than field limit (131072)\n"

    def test_rows_before_an_unreadable_row_are_checked_first(self, capsys, tmp_path, bench_ds):
        customers = tmp_path / "customers.csv"
        customers.write_text(
            GOOD_CUSTOMERS + "I3,industrial,-1\n" + "I4,industrial," + "1" * 200_000 + "\n"
        )
        mcp = tmp_path / "mcp.csv"
        mcp.write_text(profile_to_csv(bench_ds.profile))
        code, _, err = run(
            ["price", "--customers", str(customers), "--mcp", str(mcp), "--all"], capsys
        )
        assert code == 2
        assert f"{customers}:4: field 'base_demand_kw': base demand must be > 0" in err

    def test_stdin_input(self, capsys, tmp_path, monkeypatch, bench_ds):
        mcp = tmp_path / "mcp.csv"
        mcp.write_text(profile_to_csv(bench_ds.profile))
        code, out, _ = run(
            ["price", "--customers", "-", "--mcp", str(mcp), "--state", "22"],
            capsys, monkeypatch, stdin_text=GOOD_CUSTOMERS,
        )
        assert code == 0
        assert len(sections(out)["price_state22"]) == 2

    def test_two_stdin_inputs_exit_2(self, capsys):
        code, _, err = run(
            ["price", "--customers", "-", "--mcp", "-", "--state", "22"], capsys
        )
        assert code == 2
        assert "at most one input" in err

    def test_parse_error_names_the_line(self, capsys, tmp_path, bench_ds):
        customers = tmp_path / "customers.csv"
        customers.write_text("id,category,base_demand_kw\nI1,industrial,-4\n" )
        mcp = tmp_path / "mcp.csv"
        mcp.write_text(profile_to_csv(bench_ds.profile))
        code, _, err = run(
            ["price", "--customers", str(customers), "--mcp", str(mcp),
             "--state", "22"], capsys,
        )
        assert code == 2
        assert f"{customers}:2" in err

    def test_invalid_dataset_exits_1(self, capsys, tmp_path, bench_ds):
        customers = tmp_path / "customers.csv"
        # residential id on an industrial customer
        customers.write_text("id,category,base_demand_kw\nR1,industrial,30\nI2,industrial,60\n")
        mcp = tmp_path / "mcp.csv"
        mcp.write_text(profile_to_csv(bench_ds.profile))
        code, _, err = run(
            ["price", "--customers", str(customers), "--mcp", str(mcp),
             "--state", "22"], capsys,
        )
        assert code == 1
        assert "invalid dataset" in err
        assert "does not match category" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(
            ["price", "--customers", "/no/such/file.csv", "--mcp", "/no/such/day.csv",
             "--state", "22"], capsys,
        )
        assert code == 2


class TestScenario:
    def test_preset_s1_tables(self, capsys):
        code, out, _ = run(["scenario", "--benchmark", "--preset", "s1"], capsys)
        assert code == 0
        tables = sections(out)
        deltas = by_id(tables["deltas"])
        assert len(deltas) == 23
        assert deltas["I8"]["demand_pct"] == "10.00"
        assert deltas["I8"]["unit_price_pct"] == "8.29"
        assert deltas["I8"]["billing_pct"] == "19.11"
        assert deltas["I8"]["demand_contribution_pct"] == "8.96"
        assert deltas["I1"]["unit_price_pct"] == "-1.56"
        fin = by_id(tables["financials"], key="measure")
        assert fin["purchase_cost_rs"]["base"] == "5960.12"
        assert fin["revenue_rs"]["base"] == "6019.72"
        assert fin["profit_rs"]["base"] == "59.60"
        assert fin["profit_pct_of_purchase"]["base"] == "1.00"
        assert fin["profit_pct_of_purchase"]["scenario"] == "1.00"
        assert fin["purchase_cost_rs"]["difference"] == "56.69"

    def test_preset_s3_category_report(self, capsys):
        code, out, _ = run(
            ["scenario", "--benchmark", "--preset", "s3", "--category", "residential"],
            capsys,
        )
        assert code == 0
        deltas = sections(out)["deltas"]
        assert len(deltas) == 106
        # the movers are industrial, so residential rows show no demand change
        assert {r["demand_pct"] for r in deltas} == {"0.00"}

    def test_s4_seed_determinism(self, capsys):
        a = run(["scenario", "--benchmark", "--preset", "s4", "--seed", "9"], capsys)
        b = run(["scenario", "--benchmark", "--preset", "s4", "--seed", "9"], capsys)
        c = run(["scenario", "--benchmark", "--preset", "s4", "--seed", "10"], capsys)
        assert a == b
        assert a != c

    def test_scenario_file(self, capsys, tmp_path):
        doc = {"label": "cut", "perturbations": {"I8": -0.1}, "scope": 22}
        path = tmp_path / "cut.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(["scenario", "--benchmark", "--scenario", str(path)], capsys)
        assert code == 0
        deltas = by_id(sections(out)["deltas"])
        assert deltas["I8"]["demand_pct"] == "-10.00"
        assert deltas["I19"]["demand_pct"] == "0.00"

    def test_scenario_from_stdin(self, capsys, monkeypatch):
        doc = json.dumps({"perturbations": {"I19": 0.2}, "scope": 22})
        code, out, _ = run(
            ["scenario", "--benchmark", "--scenario", "-"],
            capsys, monkeypatch, stdin_text=doc,
        )
        assert code == 0
        assert by_id(sections(out)["deltas"])["I19"]["demand_pct"] == "20.00"

    def test_malformed_scenario_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(["scenario", "--benchmark", "--scenario", str(path)], capsys)
        assert code == 2
        assert "not valid JSON" in err

    def test_unknown_customer_exits_1(self, capsys, monkeypatch):
        doc = json.dumps({"perturbations": {"I99": 0.1}, "scope": 22})
        code, _, err = run(
            ["scenario", "--benchmark", "--scenario", "-"],
            capsys, monkeypatch, stdin_text=doc,
        )
        assert code == 1
        assert "I99" in err

    def test_window_scoped_scenario_uses_analysis_state(self, capsys, monkeypatch):
        doc = json.dumps({"perturbations": {"I8": -0.1}, "scope": "peak"})
        code, out, _ = run(
            ["scenario", "--benchmark", "--scenario", "-"],
            capsys, monkeypatch, stdin_text=doc,
        )
        assert code == 0
        # deltas land on state 22, the highest-load peak state
        assert by_id(sections(out)["deltas"])["I8"]["demand_pct"] == "-10.00"

    @pytest.mark.parametrize("scope", ["off_peak", 3])
    def test_scope_without_peak_state_exits_1(self, capsys, monkeypatch, scope):
        # the scenario is not in effect at any peak state, so there is no
        # peak state at which its deltas could be reported
        doc = json.dumps({"scope": scope, "perturbations": {"I8": -0.2}})
        code, out, err = run(
            ["scenario", "--benchmark", "--scenario", "-"],
            capsys, monkeypatch, stdin_text=doc,
        )
        assert code == 1
        assert out == ""
        assert f"scope {scope!r} holds no peak state" in err

    def test_unknown_state_key_exits_1(self, capsys, monkeypatch):
        doc = json.dumps({"perturbations": {"I8": {"99": -0.1}}})
        code, out, err = run(
            ["scenario", "--benchmark", "--scenario", "-"],
            capsys, monkeypatch, stdin_text=doc,
        )
        assert code == 1
        assert out == ""
        assert "states not in the profile: [99]" in err

    def test_state_key_outside_the_scope_is_ignored(self, capsys, monkeypatch):
        doc = json.dumps({"perturbations": {"I8": {"3": -0.5, "22": -0.1}}})
        code, out, _ = run(
            ["scenario", "--benchmark", "--scenario", "-"],
            capsys, monkeypatch, stdin_text=doc,
        )
        assert code == 0
        assert by_id(sections(out)["deltas"])["I8"]["demand_pct"] == "-10.00"

    @pytest.mark.parametrize(
        "value, shown",
        [("NaN", "nan"), ("Infinity", "inf"), ('{"22": NaN}', "nan"), ('{"19": -Infinity}', "-inf")],
    )
    def test_non_finite_perturbation_exits_2(self, capsys, tmp_path, value, shown):
        path = tmp_path / "odd.json"
        path.write_text('{"perturbations": {"I8": -0.1, "I19": %s}}' % value)
        code, out, err = run(["scenario", "--benchmark", "--scenario", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert str(path) in err
        assert "'I19'" in err
        assert f"not finite: {shown}" in err


    @pytest.mark.parametrize(
        "doc, field",
        [
            ('{"mode": "random", "symmetric": "false"}', "'symmetric'"),
            ('{"mode": "random", "seed": 2.7}', "'seed'"),
            ('{"mode": "random", "max_reduction": "0.1"}', "'max_reduction'"),
            ('{"perturbations": {"I8": true}}', "'I8'"),
            ('{"mode": "random", "max_reducton": 0.5, "seed": 1}', "'max_reducton'"),
            ('{"label": null, "perturbations": {"I8": 0.1}}', "'label'"),
            ('{"label": 5, "perturbations": {"I8": 0.1}}', "'label'"),
            ('{"perturbations": {"I8": 0.1}, "scope": 25}', "'scope'"),
            ('{"perturbations": {"I8": 0.1}, "scope": 0}', "'scope'"),
            ('{"perturbations": {"I8": {"22": 0.1, "22": -0.5}}}',
             "repeats key '22' in perturbations.I8"),
            ('{"perturbations": {"I8": 0.1}, "perturbations": {"I8": -0.5}}',
             "repeats key 'perturbations' in the top-level object"),
        ],
    )
    def test_malformed_scenario_value_exits_2(self, capsys, tmp_path, doc, field):
        path = tmp_path / "odd.json"
        path.write_text(doc)
        code, out, err = run(["scenario", "--benchmark", "--scenario", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert str(path) in err and field in err

    def test_two_keys_for_one_state_exit_2(self, capsys, tmp_path):
        path = tmp_path / "twice.json"
        path.write_text('{"perturbations": {"I8": {"22": 0.1, "022": -0.5}}}')
        code, out, err = run(["scenario", "--benchmark", "--scenario", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert f"{path}: per-state perturbations for 'I8' name state 22 twice" in err

    def test_scenario_and_customers_cannot_both_read_stdin(self, capsys, tmp_path, bench_ds):
        mcp = tmp_path / "mcp.csv"
        mcp.write_text(profile_to_csv(bench_ds.profile))
        code, out, err = run(
            ["scenario", "--customers", "-", "--mcp", str(mcp), "--scenario", "-"], capsys
        )
        assert code == 2
        assert out == ""
        assert "at most one input may come from standard input" in err

    def test_random_document_without_scope_keeps_its_bytes(self, capsys, tmp_path):
        path = tmp_path / "event.json"
        path.write_text(
            '{"label": "event", "mode": "random", "max_reduction": 0.12, "seed": 4, "symmetric": true}'
        )
        code, out, _ = run(["scenario", "--benchmark", "--scenario", str(path)], capsys)
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "d69bf251b2c5135b35ee72991a84fdd2cb4a91c4802c4b89ad2965811342b872"

    @pytest.mark.parametrize("scope", [22, 19])
    def test_random_scope_is_perturbed_and_reported(self, capsys, tmp_path, bench_ds, scope):
        # the same draws written out as one explicit fraction per customer
        # at the scope's state give the same tables
        doc = {"mode": "random", "max_reduction": 0.12, "seed": 4, "scope": scope}
        draws = load_scenario(doc, bench_ds).perturbations
        explicit = {"perturbations": {cid: draws[cid][scope] for cid in draws}, "scope": scope}
        outs = []
        for name, body in (("random.json", doc), ("explicit.json", explicit)):
            path = tmp_path / name
            path.write_text(json.dumps(body))
            code, out, _ = run(["scenario", "--benchmark", "--scenario", str(path)], capsys)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        state, _, deltas = cli._run_scenario(
            bench_ds, load_scenario(doc, bench_ds), Category.INDUSTRIAL
        )
        assert state == deltas.state == scope

    def test_random_scope_without_peak_state_exits_1(self, capsys, monkeypatch):
        doc = json.dumps({"mode": "random", "seed": 4, "scope": "off_peak"})
        code, out, err = run(
            ["scenario", "--benchmark", "--scenario", "-"],
            capsys, monkeypatch, stdin_text=doc,
        )
        assert code == 1
        assert out == ""
        assert "scope 'off_peak' holds no peak state" in err


class TestConfigInput:
    @pytest.mark.parametrize(
        "doc, message",
        [
            ('{"profit_factors": {"industrial": false}}',
             "profit_factors': profit factor for 'industrial' is not a number: False"),
            ('{"profit_factors": {"residential": 0.03, "residential": 0.5}}',
             "repeated key 'residential' in profit_factors"),
            ('{"profit_factors": {"r": 0.03, "residential": 0.05}}',
             "profit_factors': 'r' and 'residential' both name category residential"),
        ],
    )
    def test_bad_profit_factors_exit_2(self, capsys, tmp_path, bench_ds, doc, message):
        customers, mcp, config = (tmp_path / n for n in ("customers.csv", "mcp.csv", "config.json"))
        customers.write_text(GOOD_CUSTOMERS)
        mcp.write_text(profile_to_csv(bench_ds.profile))
        config.write_text(doc)
        argv = ["price", "--all", "--customers", str(customers), "--mcp", str(mcp),
                "--config", str(config)]
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert f"{config}: " in err and message in err


class TestCompare:
    def test_stdout_tables(self, capsys):
        code, out, _ = run(["compare", "--benchmark", "--dr-max", "0"], capsys)
        assert code == 0
        tables = sections(out)
        comparison = tables["comparison"]
        assert len(comparison) == 4 * 3 * 24
        rtp_deltas = {
            r["delta_vs_rtp_pct"] for r in comparison if r["signal"] == "rtp"
        }
        assert rtp_deltas == {"0.00"}
        aggregates = tables["aggregates"]
        assert len(aggregates) == 4 * 4 * 3
        assert {r["window"] for r in aggregates} == {"day", "peak", "off_peak"}
        assert "all" in {r["category"] for r in aggregates}

    def test_proposed_matches_rtp_at_peak_states(self, capsys):
        code, out, _ = run(["compare", "--benchmark", "--dr-max", "0"], capsys)
        assert code == 0
        comparison = sections(out)["comparison"]
        peak = {str(i) for i in range(18, 24)}
        proposed_peak_deltas = {
            r["delta_vs_rtp_pct"]
            for r in comparison
            if r["signal"] == "proposed" and r["state"] in peak
        }
        assert proposed_peak_deltas == {"0.00"}

    def test_out_dir_files_and_manifest(self, capsys, tmp_path):
        out_dir = tmp_path / "cmp"
        code, _, _ = run(
            ["compare", "--benchmark", "--out", str(out_dir)], capsys
        )
        assert code == 0
        names = {p.name for p in out_dir.iterdir()}
        assert names == {
            "comparison.csv", "comparison.json", "aggregates.csv", "manifest.json",
        }
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["mirrors"] == {"comparison": "comparison.json"}
        doc = json.loads((out_dir / "comparison.json").read_text())
        assert doc["table"] == "comparison"

    def test_byte_determinism_under_fixed_seed(self, capsys, tmp_path):
        args = ["compare", "--benchmark", "--dr-max", "0.15", "--seed", "7", "--out"]
        run(args + [str(tmp_path / "a")], capsys)
        run(args + [str(tmp_path / "b")], capsys)
        for name in ("comparison.csv", "comparison.json", "aggregates.csv", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_seed_matters_only_with_an_event(self, capsys):
        base = ["compare", "--benchmark", "--dr-max", "0"]
        a = run(base + ["--seed", "1"], capsys)
        b = run(base + ["--seed", "2"], capsys)
        assert a == b
        event = ["compare", "--benchmark", "--dr-max", "0.15"]
        c = run(event + ["--seed", "1"], capsys)
        d = run(event + ["--seed", "2"], capsys)
        assert c != d

    def test_bad_tou_multiplier_exits_1(self, capsys):
        code, _, err = run(
            ["compare", "--benchmark", "--tou-multiplier", "0.5"], capsys
        )
        assert code == 1
        assert "peak multiplier" in err

    @pytest.mark.parametrize("flag, value", [("--dr-max", "1.5"), ("--tou-multiplier", "0.5")])
    def test_out_of_range_flag_exits_1_naming_it(self, capsys, flag, value):
        code, _, err = run(["compare", "--benchmark", flag, value], capsys)
        assert code == 1
        assert err.startswith(f"error: {flag} ") and err.count("\n") == 1

    @pytest.mark.parametrize("flag, value", [("--dr-max", "1.5"), ("--tou-multiplier", "0.5")])
    def test_out_of_range_flag_is_named_before_the_inputs_are_read(
        self, capsys, tmp_path, flag, value
    ):
        missing = str(tmp_path / "missing.csv")
        argv = ["compare", "--customers", missing, "--mcp", missing, flag, value]
        code, _, err = run(argv, capsys)
        assert code == 1
        assert err.startswith(f"error: {flag} ") and err.count("\n") == 1

    @pytest.mark.parametrize("flag", ["--tou-multiplier", "--dr-max"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "NaN"])
    def test_non_finite_float_flag_exits_2(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--benchmark", f"{flag}={value}"])
        out, err = capsys.readouterr()
        assert exc.value.code == 2
        assert flag in err and "finite" in err
        assert "nan" not in out.lower()

    def test_non_numeric_float_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--benchmark", "--tou-multiplier", "high"])
        assert exc.value.code == 2
        assert "--tou-multiplier" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["compare", "--benchmark", "--seed", "-1"],
         ["scenario", "--benchmark", "--preset", "s4", "--seed", "-3"],
         ["compare", "--benchmark", "--seed", "one"]],
    )
    def test_bad_seed_exits_2_naming_the_flag(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 2
        assert "argument --seed: " in err and repr(argv[-1]) in err
        assert out == ""

    def test_seed_zero_is_accepted(self, capsys):
        assert run(["compare", "--benchmark", "--seed", "0"], capsys) == run(
            ["compare", "--benchmark"], capsys
        )

    def test_no_profit_lowers_reference_billing(self, capsys):
        with_profit = run(["compare", "--benchmark", "--dr-max", "0"], capsys)[1]
        without = run(
            ["compare", "--benchmark", "--dr-max", "0", "--no-profit"], capsys
        )[1]
        total = lambda out: next(
            float(r["billing_rs"])
            for r in sections(out)["aggregates"]
            if r["signal"] == "rtp" and r["category"] == "all" and r["window"] == "day"
        )
        assert total(without) < total(with_profit)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("extra", [[], ["--dr-max", "0"]], ids=["event", "no-event"])
    def test_header_only_customers_bill_nothing(self, capsys, tmp_path, bench_ds, extra):
        # no customers: the reference prices still come from the profile, and
        # every bill is an empty sum
        customers = tmp_path / "customers.csv"
        customers.write_text("id,category,base_demand_kw\n")
        mcp = tmp_path / "mcp.csv"
        mcp.write_text(profile_to_csv(bench_ds.profile))
        code, out, err = run(
            ["compare", "--customers", str(customers), "--mcp", str(mcp), *extra], capsys
        )
        assert (code, err) == (0, "")
        tables = sections(out)
        assert tables["comparison"] == []
        assert [(r["signal"], r["category"], r["billing_rs"]) for r in tables["aggregates"]] == [
            (kind, "all", "0.00") for kind in ("flat", "rtp", "tou", "proposed") for _ in range(3)
        ]
        assert out.startswith("# comparison\nsignal,category,state,billing_rs,delta_vs_rtp_pct\n")


class TestValidate:
    def test_benchmark_passes_all_checks(self, capsys):
        code, out, _ = run(["validate"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 15
        assert all(line.startswith("[PASS]") for line in lines[:-1])
        assert lines[-1] == "14/14 checks passed"

    def test_json_document(self, capsys):
        code, out, _ = run(["validate", "--json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert len(doc["checks"]) == 14
        names = [c["name"] for c in doc["checks"]]
        assert "unit-prices" in names
        assert "breakeven-threshold" in names

    def test_schedule_is_built_once_per_run(self, monkeypatch, bench_ds):
        built = []
        build = cli.build_schedule
        monkeypatch.setattr(cli, "build_schedule", lambda ds: built.append(ds) or build(ds))
        assert all(r.passed for r in run_validation(bench_ds))
        assert built == [bench_ds]

    def test_schedule_error_fails_each_check_that_needs_it(self, monkeypatch, bench_ds):
        def broken(ds):
            raise ValueError("no schedule")

        monkeypatch.setattr(cli, "build_schedule", broken)
        failed = {r.name: r.detail for r in run_validation(bench_ds) if not r.passed}
        assert failed == dict.fromkeys(
            ["unit-prices", "base-financials", "billing-extremes"], "error: no schedule"
        )

    def test_corrupted_dataset_fails_not_crashes(self, bench_ds):
        # drop the largest industrial customer: census, aggregates, and the
        # reference price checks must all report failure
        culled = bench_ds.__class__(
            table=CustomerTable.from_customers(c for c in bench_ds.customers if c.id != "I8"),
            categories=bench_ds.categories,
            profile=bench_ds.profile,
            label=bench_ds.label,
        )
        results = run_validation(culled)
        assert len(results) == 14
        outcomes = {r.name: r.passed for r in results}
        assert outcomes["customer-census"] is False
        assert outcomes["industrial-aggregates"] is False
        assert outcomes["unit-prices"] is False

    def test_wrong_dataset_through_cli_exits_1(self, capsys, monkeypatch):
        toy = build_dataset(industrial=[30.0, 60.0])
        monkeypatch.setattr("dlps.cli.bundled_benchmark", lambda: toy)
        code, out, _ = run(["validate"], capsys)
        assert code == 1
        assert "[FAIL]" in out

    def test_detuned_demand_fails_price_checks(self, capsys, monkeypatch, bench_ds):
        import dataclasses

        bumped = bench_ds.__class__(
            table=CustomerTable.from_customers(
                dataclasses.replace(c, base_demand=c.base_demand * 1.05)
                if c.id == "I8" else c
                for c in bench_ds.customers
            ),
            categories=bench_ds.categories,
            profile=bench_ds.profile,
            label=bench_ds.label,
        )
        monkeypatch.setattr("dlps.cli.bundled_benchmark", lambda: bumped)
        code, out, _ = run(["validate"], capsys)
        assert code == 1
        outcomes = {
            line.split("] ")[1].split(":")[0]: line.startswith("[PASS]")
            for line in out.strip().splitlines()[:-1]
        }
        assert outcomes["industrial-aggregates"] is False
        assert outcomes["unit-prices"] is False
        assert outcomes["customer-census"] is True


class TestDataDirOverride:
    def test_benchmark_reads_override(self, capsys, tmp_path, monkeypatch, bench_ds):
        (tmp_path / "customers.csv").write_text(GOOD_CUSTOMERS)
        (tmp_path / "mcp.csv").write_text(profile_to_csv(bench_ds.profile))
        (tmp_path / "config.json").write_text("{}")
        monkeypatch.setenv("DLPS_DATA_DIR", str(tmp_path))
        code, out, _ = run(["price", "--benchmark", "--state", "22"], capsys)
        assert code == 0
        assert len(sections(out)["price_state22"]) == 2


BOM = "\ufeff"


class TestByteOrderMark:
    """Spreadsheet programs save "CSV UTF-8" with a byte-order mark: one at
    the start of an input is dropped, and one anywhere else stays text."""

    @staticmethod
    def texts(bench_ds) -> dict[str, str]:
        return {
            "--customers": GOOD_CUSTOMERS + "I3,industrial,45\n",
            "--mcp": profile_to_csv(bench_ds.profile),
            "--config": json.dumps({"profit_factors": {"industrial": 0.02}}),
            "--scenario": json.dumps({"perturbations": {"I2": -0.1}, "scope": 22}),
        }

    @staticmethod
    def scenario(capsys, tmp_path, texts, monkeypatch=None, stdin_text=None):
        argv = ["scenario"]
        for flag, text in texts.items():
            path = tmp_path / flag.strip("-")
            if text is not None:
                path.write_bytes(text.encode("utf-8"))
            argv += [flag, "-" if text is None else str(path)]
        return run(argv, capsys, monkeypatch, stdin_text)

    @pytest.mark.parametrize("flag", ["--customers", "--mcp", "--config", "--scenario"])
    def test_mark_at_the_start_of_a_file_is_dropped(self, capsys, tmp_path, bench_ds, flag):
        texts = self.texts(bench_ds)
        plain = self.scenario(capsys, tmp_path, texts)
        assert plain[0] == 0 and plain[1]
        texts[flag] = BOM + texts[flag]
        assert self.scenario(capsys, tmp_path, texts) == plain

    @pytest.mark.parametrize("flag", ["--customers", "--mcp", "--config", "--scenario"])
    def test_mark_at_the_start_of_stdin_is_dropped(
        self, capsys, tmp_path, bench_ds, monkeypatch, flag
    ):
        texts = self.texts(bench_ds)
        plain = self.scenario(capsys, tmp_path, texts)
        piped = {**texts, flag: None}
        for text in (texts[flag], BOM + texts[flag]):
            assert self.scenario(capsys, tmp_path, piped, monkeypatch, text) == plain

    @pytest.mark.parametrize("stdin", [False, True])
    @pytest.mark.parametrize(
        "customers, code, message",
        [
            (BOM + BOM + GOOD_CUSTOMERS, 2, "bad header '\\ufeffid,category,base_demand_kw'"),
            (GOOD_CUSTOMERS.replace(",60", "," + BOM + "60"), 2,
             ":3: field 'base_demand_kw': not a number: '\\ufeff60'"),
        ],
        ids=["second-mark", "mark-in-a-demand"],
    )
    def test_mark_elsewhere_keeps_its_error(
        self, capsys, tmp_path, bench_ds, monkeypatch, stdin, customers, code, message
    ):
        mcp = tmp_path / "mcp.csv"
        mcp.write_text(profile_to_csv(bench_ds.profile))
        path = tmp_path / "customers.csv"
        path.write_bytes(customers.encode("utf-8"))
        argv = ["price", "--customers", "-" if stdin else str(path), "--mcp", str(mcp), "--all"]
        got, out, err = run(argv, capsys, monkeypatch, customers if stdin else None)
        assert (got, out) == (code, "")
        assert message in err

    def test_marked_data_dir_reads_as_unmarked(self, capsys, tmp_path, monkeypatch, bench_ds):
        outputs = []
        for mark in ("", BOM):
            data = tmp_path / f"data{len(mark)}"
            data.mkdir()
            for name, text in (
                ("customers.csv", GOOD_CUSTOMERS),
                ("mcp.csv", profile_to_csv(bench_ds.profile)),
                ("config.json", "{}"),
            ):
                (data / name).write_bytes((mark + text).encode("utf-8"))
            monkeypatch.setenv("DLPS_DATA_DIR", str(data))
            outputs.append(run(["price", "--benchmark", "--all"], capsys))
        assert outputs[0][0] == 0 and outputs[1] == outputs[0]


class TestBundledValidation:
    """The shared bundled dataset is validated once per parse of its files;
    files named on the command line are validated on every call."""

    @pytest.fixture
    def validations(self, monkeypatch):
        calls = []
        validate = ingest.validate_dataset

        def counted(ds):
            calls.append(ds)
            return validate(ds)

        monkeypatch.setattr(ingest, "validate_dataset", counted)
        monkeypatch.setattr(cli, "validate_dataset", counted)
        ingest._bundled_violations.cache_clear()
        yield calls
        ingest._bundled_violations.cache_clear()

    def test_benchmark_commands_validate_once(self, capsys, validations):
        first = run(["scenario", "--benchmark", "--preset", "s1"], capsys)
        for preset in ("s2", "s3", "s4", "s1"):
            assert run(["scenario", "--benchmark", "--preset", preset], capsys)[0] == 0
        assert run(["price", "--benchmark", "--state", "22"], capsys)[0] == 0
        assert run(["compare", "--benchmark"], capsys)[0] == 0
        assert run(["scenario", "--benchmark", "--preset", "s1"], capsys) == first
        assert len(validations) == 1

    def test_rewritten_data_file_is_validated_again(
        self, capsys, tmp_path, monkeypatch, bench_ds, validations
    ):
        for name, text in (("mcp.csv", profile_to_csv(bench_ds.profile)), ("config.json", "{}")):
            (tmp_path / name).write_text(text)
        monkeypatch.setenv("DLPS_DATA_DIR", str(tmp_path))
        argv = ["price", "--benchmark", "--state", "22"]
        (tmp_path / "customers.csv").write_text(GOOD_CUSTOMERS)
        assert [run(argv, capsys)[0] for _ in range(2)] == [0, 0]
        assert len(validations) == 1
        # an R-prefixed id on an industrial customer fails validation
        (tmp_path / "customers.csv").write_text(GOOD_CUSTOMERS.replace("I2,", "R2,"))
        for _ in range(2):
            code, out, err = run(argv, capsys)
            assert (code, out) == (1, "")
            assert "invalid dataset: customer R2: id prefix 'R' does not match" in err
        assert len(validations) == 2
        (tmp_path / "customers.csv").write_text(GOOD_CUSTOMERS)
        assert run(argv, capsys)[0] == 0
        assert len(validations) == 3

    def test_customers_files_are_validated_on_every_call(
        self, capsys, tmp_path, bench_ds, validations
    ):
        customers = tmp_path / "customers.csv"
        customers.write_text(GOOD_CUSTOMERS)
        mcp = tmp_path / "mcp.csv"
        mcp.write_text(profile_to_csv(bench_ds.profile))
        argv = ["price", "--customers", str(customers), "--mcp", str(mcp), "--state", "22"]
        assert [run(argv, capsys)[0] for _ in range(3)] == [0, 0, 0]
        assert len(validations) == 3


class TestInputBytes:
    """An input that is not UTF-8 or nests JSON too deeply exits 2 naming its file."""

    @staticmethod
    def files(tmp_path, bench_ds, customers=GOOD_CUSTOMERS.encode()):
        for name, data in (
            ("customers.csv", customers),
            ("mcp.csv", profile_to_csv(bench_ds.profile).encode()),
            ("config.json", b"{}"),
        ):
            (tmp_path / name).write_bytes(data)
        return ["--customers", str(tmp_path / "customers.csv"), "--mcp", str(tmp_path / "mcp.csv"),
                "--config", str(tmp_path / "config.json")]

    @pytest.mark.parametrize(
        "flag, message",
        [("--config", "JSON nested too deeply"),
         ("--scenario", "scenario document is nested too deeply")],
        ids=["config", "scenario"],
    )
    def test_deeply_nested_json_exits_2(self, capsys, tmp_path, bench_ds, flag, message):
        scenario = tmp_path / "scenario.json"
        scenario.write_text('{"perturbations": {"I1": 0.1}, "scope": 22}')
        argv = ["scenario", *self.files(tmp_path, bench_ds), "--scenario", str(scenario)]
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        argv[argv.index(flag) + 1] = str(deep)
        assert run(argv, capsys) == (2, "", f"error: {deep}: {message}\n")

    @pytest.mark.parametrize(
        "bad", [b"\xff", b"\xc3(", b"\xed\xa0\x80"], ids=["invalid", "cut", "surrogate"]
    )
    def test_non_utf8_customers_file_exits_2_naming_the_byte(self, capsys, tmp_path, bench_ds, bad):
        customers = GOOD_CUSTOMERS.encode().replace(b",30", b",3" + bad + b"0")
        argv = ["price", *self.files(tmp_path, bench_ds, customers), "--all"]
        assert run(argv, capsys) == (
            2, "", f"error: {tmp_path / 'customers.csv'}:2: byte {bad[0]:#04x} at offset 42 "
            "is not UTF-8\n"
        )

    def test_offset_counts_from_the_start_of_the_file(self, capsys, tmp_path, bench_ds):
        # far past the first block a text file decodes, and after a byte-order mark
        body = GOOD_CUSTOMERS + "I3,industrial,45\n" * 5000
        customers = b"\xef\xbb\xbf" + body.encode() + b"I4,industrial,4\xff\n"
        argv = ["price", *self.files(tmp_path, bench_ds, customers), "--all"]
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        assert err.endswith(f":5004: byte 0xff at offset {len(customers) - 2} is not UTF-8\n")

    @pytest.mark.parametrize(
        "bad", [b"\xff", b"\xc3(", b"\xed\xa0\x80"], ids=["invalid", "cut", "surrogate"]
    )
    def test_non_utf8_stdin_exits_2_naming_the_byte(self, capsys, tmp_path, monkeypatch,
                                                    bench_ds, bad):
        customers = GOOD_CUSTOMERS.encode().replace(b"I2", b"I" + bad + b"2")
        argv = ["price", *self.files(tmp_path, bench_ds), "--state", "22"]
        argv[argv.index("--customers") + 1] = "-"
        assert run(argv, capsys, monkeypatch, b"\xef\xbb\xbf" + customers) == (
            2, "", f"error: -:3: byte {bad[0]:#04x} at offset 48 is not UTF-8\n"
        )

    def test_stdin_reads_line_ends_as_a_file_does(self, capsys, tmp_path, monkeypatch, bench_ds):
        # a carriage return inside a quoted id reads as a newline either way
        customers = b'id,category,base_demand_kw\r\n"I\r1",industrial,30\rI2,industrial,60\r\n'
        argv = ["price", *self.files(tmp_path, bench_ds, customers), "--state", "22"]
        from_file = run(argv, capsys)
        assert from_file[0] == 0 and '"I\n1",industrial' in from_file[1]
        argv[argv.index("--customers") + 1] = "-"
        assert run(argv, capsys, monkeypatch, customers) == from_file

    # ids no plain CSV cell can hold, then a NUL, a "%" and a non-ASCII letter
    ODD_IDS = ["I,1", 'I"2', "I\n3", "I\x004", "I%5", "Ié6", "I7"]

    @pytest.mark.parametrize("source", ["file", "stdin"])
    @pytest.mark.parametrize("which", [["--state", "22"], ["--all"]], ids=["state", "all"])
    def test_ids_needing_quotes_read_back_as_written(
        self, capsys, tmp_path, monkeypatch, bench_ds, source, which
    ):
        text = io.StringIO()
        csv.writer(text, lineterminator="\n").writerows(
            [("id", "category", "base_demand_kw"),
             *((cid, "industrial", 30 + k) for k, cid in enumerate(self.ODD_IDS))]
        )
        argv = ["price", *self.files(tmp_path, bench_ds, text.getvalue().encode()), *which]
        stdin = None
        if source == "stdin":
            argv[argv.index("--customers") + 1], stdin = "-", text.getvalue()
        out_dir = tmp_path / "out"
        assert run([*argv, "--out", str(out_dir)], capsys, monkeypatch, stdin)[:2] == (0, "")
        name = "price_state22" if "--state" in which else "on_peak"
        written = (out_dir / f"{name}.csv").read_text(encoding="utf-8")
        code, out, _ = run(argv, capsys, monkeypatch, stdin)
        assert code == 0 and out.startswith(f"# {name}\n{written}")
        header, *rows = list(csv.reader(io.StringIO(written)))
        states = 1 if "--state" in which else len(bench_ds.profile.peak_indices)
        assert [row[0] for row in rows] == self.ODD_IDS * states
        assert {len(row) for row in rows} == {len(header)}
        read = [cells for _, cells in ingest._rows(written, tuple(header), name)]
        assert read == rows

    def test_non_utf8_data_dir_file_exits_2(self, capsys, tmp_path, monkeypatch, bench_ds):
        self.files(tmp_path, bench_ds, GOOD_CUSTOMERS.encode().replace(b"60", b"6\xff0"))
        monkeypatch.setenv("DLPS_DATA_DIR", str(tmp_path))
        path = tmp_path / "customers.csv"
        assert run(["price", "--benchmark", "--all"], capsys) == (
            2, "", f"error: {path}:3: byte 0xff at offset 59 is not UTF-8\n"
        )


class TestStreamedOutput:
    """Every table is checked before the first byte is written; each is
    then written block by block, and an out directory gets all its files
    or none of them."""

    @staticmethod
    def tables():
        ids = ["I1", "I2", "I3"]
        on_peak = cli.Table("on_peak", (
            ("id", "str", ids),
            ("state", "int", [18, 19]),
            ("unit_price_rs", "rs", [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
        ), row_keys=1, block_keys=1)
        off_peak = cli.Table("off_peak", (("unit_price_rs", "rs", [float("nan")]),))
        return [on_peak, off_peak]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("to_dir", [False, True])
    def test_check_failure_in_the_second_table_writes_nothing(
        self, capsys, tmp_path, fmt, to_dir
    ):
        out_dir = tmp_path / "out"
        with pytest.raises(ValueError, match="^table off_peak, column unit_price_rs: non-finite"):
            cli._emit(self.tables(), str(out_dir) if to_dir else None, fmt)
        assert capsys.readouterr().out == ""
        assert not out_dir.exists()

    @pytest.mark.parametrize("to_dir", [False, True])
    def test_price_all_with_an_unprintable_off_peak_price_writes_nothing(
        self, capsys, tmp_path, bench_ds, to_dir
    ):
        # off-peak market prices 1e27 times the bundled ones leave every peak
        # price printable and the off-peak prices too large to round to cents
        (tmp_path / "customers.csv").write_text(GOOD_CUSTOMERS)
        (tmp_path / "mcp.csv").write_text("state,mcp_rs_per_kwh,load_factor\n" + "".join(
            f"{s.index},{s.mcp * (1 if s.is_peak else 1e27)!r},{s.load_factor!r}\n"
            for s in bench_ds.profile.states
        ))
        out_dir = tmp_path / "out"
        argv = ["price", "--customers", str(tmp_path / "customers.csv"),
                "--mcp", str(tmp_path / "mcp.csv"), "--all"]
        code, out, err = run(argv + (["--out", str(out_dir)] if to_dir else []), capsys)
        assert (code, out) == (1, "")
        assert err == "error: table off_peak, column unit_price_rs: value too large to round to cents\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "failing, nth", [("open", 2), ("replace", 1)], ids=["open-second-file", "replace-first"]
    )
    def test_os_error_while_writing_leaves_no_file(
        self, capsys, tmp_path, monkeypatch, failing, nth
    ):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        (out_dir / "notes.txt").write_text("kept")
        calls = []

        def fail_nth(real):
            def call(*args, **kwargs):
                calls.append(args[0])
                if len(calls) == nth:
                    raise OSError(28, "No space left on device")
                return real(*args, **kwargs)
            return call

        if failing == "open":
            monkeypatch.setattr(cli, "open", fail_nth(open), raising=False)
        else:
            monkeypatch.setattr(cli.os, "replace", fail_nth(cli.os.replace))
        argv = ["price", "--benchmark", "--all", "--out", str(out_dir)]
        code, out, err = run(argv, capsys)
        monkeypatch.undo()
        assert (code, out, err) == (2, "", "error: [Errno 28] No space left on device\n")
        assert [p.name for p in out_dir.iterdir()] == ["notes.txt"]
        assert run(argv, capsys)[0] == 0
        assert {p.name for p in out_dir.iterdir()} == {
            "notes.txt", "on_peak.csv", "off_peak.csv", "manifest.json",
        }

    def test_writers_stream_one_chunk_per_block(self, capsys, monkeypatch):
        written = []
        monkeypatch.setattr(sys.stdout, "write", lambda text: written.append(text))
        assert main(["price", "--benchmark", "--all"]) == 0
        monkeypatch.undo()
        # "# on_peak", its header, its six peak-state blocks; then the same for off_peak
        assert [len(text.splitlines()) for text in written] == [1, 1, *[177] * 6, 2, 1, 3]

    @pytest.mark.skipif(tracemalloc.is_tracing(), reason="tracemalloc is already tracing")
    def test_price_all_writer_memory_is_bounded(self, tmp_path, monkeypatch, bench_ds):
        # at 20,000 customers the on_peak table is 120,000 rows and 3.6 MiB of
        # text; the writer holds one peak state's block of it at a time
        (tmp_path / "customers.csv").write_text(feeder_csv(20_000, seed=1))
        (tmp_path / "mcp.csv").write_text(profile_to_csv(bench_ds.profile))
        peaks = []
        emit = cli._emit

        def traced(*args):
            tracemalloc.start()
            try:
                emit(*args)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()

        monkeypatch.setattr(cli, "_emit", traced)
        out_dir = tmp_path / "out"
        argv = ["price", "--customers", str(tmp_path / "customers.csv"),
                "--mcp", str(tmp_path / "mcp.csv"), "--all", "--out", str(out_dir)]
        assert main(argv) == 0
        assert (out_dir / "on_peak.csv").stat().st_size > 3_000_000
        assert peaks[0] < 8 * 2**20


class TestParserReuse:
    """``main`` parses with one parser per interpreter."""

    def test_main_builds_one_parser(self, capsys, monkeypatch):
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        cli._parser.cache_clear()
        assert run(["validate"], capsys)[0] == 0
        assert run(["scenario", "--benchmark", "--preset", "s2"], capsys)[0] == 0
        assert built == [1]

    def test_usage_error_then_valid_call(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["price", "--benchmark", "--state", "22", "--all"])
        assert exc.value.code == 2
        capsys.readouterr()
        code, out, _ = run(["price", "--benchmark", "--state", "22"], capsys)
        assert code == 0 and len(sections(out)["price_state22"]) == 177

    def test_switching_subcommands_keeps_each_ones_defaults(self, capsys):
        first = run(["scenario", "--benchmark", "--preset", "s1"], capsys)
        assert run(["validate"], capsys)[0] == 0
        assert run(["compare", "--benchmark", "--seed", "5"], capsys)[0] == 0
        assert run(["scenario", "--benchmark", "--preset", "s1"], capsys) == first
        code, out, _ = run(["price", "--benchmark", "--all", "--format", "json"], capsys)
        assert code == 0 and out.startswith("# on_peak\n{")

    @pytest.mark.parametrize("argv", [["--help"], ["compare", "--help"]])
    def test_help_matches_a_fresh_parser(self, capsys, argv):
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0
            cached = capsys.readouterr().out
            with pytest.raises(SystemExit):
                cli.build_parser().parse_args(argv)
            assert cached == capsys.readouterr().out != ""


class TestEntryPoint:
    def test_module_execution(self):
        result = subprocess.run(
            [sys.executable, "-m", "dlps", "validate"],
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0
        assert "14/14 checks passed" in result.stdout

    @pytest.mark.parametrize("read_first", [True, False])
    @pytest.mark.parametrize("feeder", [None, 5000])
    def test_closed_stdout_exits_0_quietly(self, tmp_path, bench_ds, read_first, feeder):
        # a reader that stops early, like ``dlps price --all | head -1``; one that
        # closes before anything is written makes the first write fail for sure
        if feeder is None:
            inputs = ["--benchmark"]
        else:
            (tmp_path / "customers.csv").write_text(feeder_csv(feeder, seed=1))
            (tmp_path / "mcp.csv").write_text(profile_to_csv(bench_ds.profile))
            inputs = ["--customers", str(tmp_path / "customers.csv"),
                      "--mcp", str(tmp_path / "mcp.csv")]
        proc = subprocess.Popen(
            [sys.executable, "-m", "dlps", "price", *inputs, "--all"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        if read_first:
            assert proc.stdout.readline() == b"# on_peak\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 0
        assert err == b""

    def test_reader_closing_after_the_first_block_exits_0(self, tmp_path, bench_ds):
        (tmp_path / "customers.csv").write_text(feeder_csv(5000, seed=1))
        (tmp_path / "mcp.csv").write_text(profile_to_csv(bench_ds.profile))
        proc = subprocess.Popen(
            [sys.executable, "-m", "dlps", "price", "--customers", str(tmp_path / "customers.csv"),
             "--mcp", str(tmp_path / "mcp.csv"), "--all"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        lines = [proc.stdout.readline() for _ in range(2 + 5000)]
        assert lines[:2] == [b"# on_peak\n", b"id,category,state,demand_kw,unit_price_rs\n"]
        assert {line.split(b",")[2] for line in lines[2:]} == {b"18"}
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 0
        assert err == b""

    def test_usage_error_exits_2(self):
        result = subprocess.run(
            [sys.executable, "-m", "dlps", "frobnicate"],
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 2
