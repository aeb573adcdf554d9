"""Python work that grows with the feeder, counted rather than timed.

A command is run in process under ``sys.settrace`` and every line event is
counted per function. Work done by numpy does not show in the count, so a
count that grows with the customers means a Python loop over customers or
over their cells. Counts are exact and do not depend on the machine, which
lets the bound be tight where a timing could not be: the slope between a
2,000- and an 8,000-customer feeder of ``bench/feeder.py`` may be at most
``SLOPE`` line events per added customer. One untraced run first fills the
caches that a first call fills (the bundled files, compiled patterns).

Every command is bounded: ``compare``, ``price --all``, ``price --state
22`` and ``scenario`` with the explicit preset s3 and the random preset
s4."""

import collections
import sys
from pathlib import Path

import pytest

import dlps.cli as cli
from dlps import profile_to_csv

from helpers import load_bench

SIZES = (2000, 8000)
SLOPE = 0.2  # line events per added customer; each command reads 0.12 to 0.17


def line_events(argv) -> collections.Counter:
    """Line events of one ``cli.main(argv)`` run, by file and function."""
    counts: collections.Counter = collections.Counter()

    def trace(frame, event, arg):
        if event == "line":
            code = frame.f_code
            counts[f"{Path(code.co_filename).name}:{code.co_name}"] += 1
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        code = cli.main(argv)
    finally:
        sys.settrace(previous)
    assert code == 0
    return counts


@pytest.fixture()
def feeders(tmp_path, bench_ds):
    """--customers and --mcp of each seed-1 feeder of ``SIZES``."""
    mcp = tmp_path / "mcp.csv"
    mcp.write_text(profile_to_csv(bench_ds.profile))
    generate = load_bench("feeder").generate
    out = {}
    for n in SIZES:
        customers = tmp_path / f"customers{n}.csv"
        customers.write_text(generate(n, seed=1).to_csv())
        out[n] = ["--customers", str(customers), "--mcp", str(mcp)]
    return out


@pytest.mark.parametrize("command", [
    ["compare", "--dr-max", "0.15", "--seed", "1"],
    ["price", "--all"],
    ["price", "--state", "22"],
    ["scenario", "--preset", "s3"],
    ["scenario", "--preset", "s4", "--seed", "1"],
], ids=["compare", "price-all", "price-state22", "scenario-s3", "scenario-s4"])
def test_line_events_grow_slowly(tmp_path, feeders, command):
    def argv(n):
        return [*command, *feeders[n], "--out", str(tmp_path / f"out{n}")]

    assert cli.main(argv(SIZES[0])) == 0  # warm-up, untraced
    small, large = (line_events(argv(n)) for n in SIZES)
    slope = (sum(large.values()) - sum(small.values())) / (SIZES[1] - SIZES[0])
    growth = collections.Counter(large)
    growth.subtract(small)
    top = "\n".join(f"  {name}: +{d}" for name, d in growth.most_common(10) if d > 0)
    assert slope <= SLOPE, (
        f"{' '.join(command)}: {slope:.3f} line events per added customer, bound {SLOPE}; "
        f"growing most:\n{top}"
    )
