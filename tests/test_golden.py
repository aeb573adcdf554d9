"""Golden digests of tables written for the bundled benchmark and for a
seeded 2,000-customer feeder.

The digests pin the exact bytes of the command-line tables, so any change
to pricing, event compilation, billing or table formatting that moves a
rounded cell shows up here. The JSON tables keep full precision, so a
change of summation order may move their last digits without changing any
published figure; they are pinned all the same, so that such a move is
seen and recorded rather than passing unnoticed. The bundled tables hold
few of the cells the writer formats one by one (near a half-cent tie, zero,
or 1e9 and over); the 2,000-customer feeder's tables hold many, in runs and
alone, so they pin how those cells are spliced in among the others.
"""

import hashlib
from importlib import resources

import pytest

from dlps import cli, ingest
from dlps.cli import main

from helpers import feeder_csv

GOLDEN = {
    "compare": (
        ["compare", "--benchmark"],
        {
            "aggregates.csv": "59e037b7c8e7dfc46a14dede7500889c6416d261b47392a8da76444c6795776e",
            "comparison.csv": "2337b073604a500ff9fba26372122246ba323d6f87ee7a427cd85df8e99f7ee2",
        },
    ),
    "compare-no-event": (
        ["compare", "--benchmark", "--dr-max", "0"],
        {
            "aggregates.csv": "a82bf1eab37ef3816dc97e330afd72047124c811967df36a9d694d4245602b2d",
            "comparison.csv": "27cf95bdd32bff377138bcb451416a19adc4408eef34cdc6851b866638f61288",
        },
    ),
    "compare-event-tou": (
        ["compare", "--benchmark", "--dr-max", "0.3", "--seed", "7", "--tou-multiplier", "1.5"],
        {
            "aggregates.csv": "85c3aa0c237215d67266a0f6a769ca4aeb77e19abeea1ac3338ee317db3dfdf7",
            "comparison.csv": "2594d2c7bb397912d6fcc44d7efabd4a48e890239645a8c72b7b25d5097261a9",
        },
    ),
    "compare-no-profit": (
        ["compare", "--benchmark", "--no-profit"],
        {
            "aggregates.csv": "e2359307cfbebefacca6f1b53b3c136a4f038a5f86d81eabe0f9c90c5a1f1536",
            "comparison.csv": "77705393a092c571a7678836e382cd0ecfe75165e24774adb4e314f21e044897",
        },
    ),
    "price-all": (
        ["price", "--benchmark", "--all"],
        {
            "off_peak.csv": "8683b85416096331d31e1bf2012418fb8cefa555fd1154e080f52e7310944d99",
            "on_peak.csv": "1d035c26ac6665cbd43583bcf47c27ab6f2c2b46467c2d71145ddfb6b6fe8a2f",
        },
    ),
    "price-state22": (
        ["price", "--benchmark", "--state", "22"],
        {
            "price_state22.csv": "735bfc7e6b3c53ef87a0f3e30bc826e88b72e221919b9afb6659ff5e97fa63a9",
        },
    ),
    "scenario-s1": (
        ["scenario", "--benchmark", "--preset", "s1"],
        {
            "deltas.csv": "1c95dfc8638faaa061ffb0547fa741427614825e069cd770071ab9600568c6b6",
            "financials.csv": "e9f333f6f5d29e66d0aa5ae86fa056d17b84f3f281aa12b97ebda1a7e9177c2f",
        },
    ),
    "scenario-s2": (
        ["scenario", "--benchmark", "--preset", "s2"],
        {
            "deltas.csv": "ef95f0dbcadb1e4f316a152b8e8c7d5f098ad6e0ab78825dcae62637609d1044",
            "financials.csv": "bc488c73e13912eb79311b13305f8f1d61b594bd62bc153efcf4d79a747632dd",
        },
    ),
    "scenario-s3": (
        ["scenario", "--benchmark", "--preset", "s3"],
        {
            "deltas.csv": "8f355513686885cd74cd1af041f9ddda6dc6d706cd98d23c518c3b526f8757aa",
            "financials.csv": "1bd5ba46f821e03bc1255f970d3c4aeb0e70ea341e95339c40783846b54f1c18",
        },
    ),
    "scenario-s4": (
        ["scenario", "--benchmark", "--preset", "s4"],
        {
            "deltas.csv": "a5585195790d9a5095831ad42cd08b3f84ccb9bee2ffcd832da9e996b4d9a4f0",
            "financials.csv": "a5f4d89dd7faee3eba2857ef420e842c4f090cdec94fc23a53930a5db4e62921",
        },
    ),
}

GOLDEN_JSON = {
    "price-all-json": (
        ["price", "--benchmark", "--all", "--format", "json"],
        {
            "off_peak.json": "ae15f1bbd5f5c853d340f8b5d90bfad9faa8fece603c5260a5afef26df41e874",
            "on_peak.json": "d690aa0fc210757a9a71f833e24dbc1c36508fcc3ae5f28ba87d4e4009087f8e",
        },
    ),
    "compare": (
        ["compare", "--benchmark"],
        {
            "comparison.json": "4b77f0baa307b031051e17a29e2792ae696921821c29e5bd9305f2b6bd92513b",
        },
    ),
    "compare-no-event": (
        ["compare", "--benchmark", "--dr-max", "0"],
        {
            "comparison.json": "92978f2acbbb18bc414e29c3b847b8afd72529b16e1e7e429da41bf54d54701d",
        },
    ),
    "compare-event-tou": (
        ["compare", "--benchmark", "--dr-max", "0.3", "--seed", "7", "--tou-multiplier", "1.5"],
        {
            "comparison.json": "1bca820686483990deb707abce6c3447fbdfbf43507ad3e0fff09278d8cee661",
        },
    ),
    "compare-no-profit": (
        ["compare", "--benchmark", "--no-profit"],
        {
            "comparison.json": "573c579ad3dc573743d8d29533074cbdfd97f90532e672c37f379b5590694089",
        },
    ),
}

# the benchmark's seed-1 feeder of 2,000 customers with the bundled day profile
GOLDEN_FEEDER = {
    "price-all": (
        ["price", "--all"],
        {
            "off_peak.csv": "8683b85416096331d31e1bf2012418fb8cefa555fd1154e080f52e7310944d99",
            "on_peak.csv": "1b722fc3fca9848cf9d2dbe2765092c5571ea3c6743e1ceb582566fcbe67c0a1",
        },
    ),
    "price-all-json": (
        ["price", "--all", "--format", "json"],
        {
            "off_peak.json": "e45debc63e75d2d20808c20fe2eb7b5ae909100686e52fae667586e5baf9fb7f",
            "on_peak.json": "40b027988e31baa83436e2d160e0123dd3755f9ade53b77786d1f2cf4077f14e",
        },
    ),
    "price-state22": (
        ["price", "--state", "22"],
        {
            "price_state22.csv": "c38ed783e76542f43213d6e0f2e9c5d11e1213b54239065d6ad7c6abbe7fcbbe",
        },
    ),
    "compare": (
        ["compare", "--dr-max", "0.15", "--seed", "1"],
        {
            "aggregates.csv": "6f6becc8af7c00ff9f7c92d415da92cc8a407622ecf9fc358677b0e53230e6f5",
            "comparison.csv": "a772fa5325fd772a025a005c1e10ac1c836cd46100d2d7c09aa5cf7549a1a8a7",
            "comparison.json": "1da5b23904c5b652ed0b9154af8717feaaddd1f55e13349bed7d0b9fd98a79b2",
        },
    ),
}

VALIDATE_JSON_STDOUT = "6a1528c2a62e5e2beb46f6ec37640caf596d71b51c9a88b4e7427557e5c12748"


def _written(tmp_path, argv, pattern):
    assert main([*argv, "--out", str(tmp_path)]) == 0
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(tmp_path.glob(pattern))
        if p.name != "manifest.json"
    }


@pytest.fixture(autouse=True)
def _cold_caches():
    # each bundled-benchmark command below runs twice in one interpreter: the
    # first run parses the data and builds the parser afresh, the second
    # reuses both and must write the same bytes
    ingest._parse_bundled.cache_clear()
    cli._parser.cache_clear()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_csv_tables_match_golden_digests(tmp_path, name):
    argv, digests = GOLDEN[name]
    for run in ("first", "again"):
        assert _written(tmp_path / run, argv, "*.csv") == digests


@pytest.mark.parametrize("name", sorted(GOLDEN_JSON))
def test_json_tables_match_golden_digests(tmp_path, name):
    argv, digests = GOLDEN_JSON[name]
    for run in ("first", "again"):
        assert _written(tmp_path / run, argv, "*.json") == digests


@pytest.mark.parametrize("name", sorted(GOLDEN_FEEDER))
def test_feeder_tables_match_golden_digests(tmp_path, name):
    argv, digests = GOLDEN_FEEDER[name]
    customers, mcp = tmp_path / "customers.csv", tmp_path / "mcp.csv"
    customers.write_text(feeder_csv(2000, seed=1))
    mcp.write_text((resources.files("dlps") / "data" / "mcp.csv").read_text())
    inputs = ["--customers", str(customers), "--mcp", str(mcp)]
    assert _written(tmp_path / "out", [*argv, *inputs], "*.*") == digests


def test_validate_json_stdout_matches_golden_digest(capsys):
    for _ in range(2):
        assert main(["validate", "--json"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == VALIDATE_JSON_STDOUT
