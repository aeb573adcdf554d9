"""The table writers against the per-cell oracles in ``helpers``.

``_table_csv`` checks every cell of a table, then yields its header and one
chunk of text per block, built by the numpy text kernel: each key column is
made text once, "num" cells print as ``"%.10g"`` and money and percentage
cells as ``"%.2f"``, and the ``_round2`` text of the cells near a half-cent
tie, the zeros and the very large values goes into their slots;
``_table_json`` checks the same way and fills a row template per block with
each column encoded by json's own scalar functions. Every test here holds
them to the per-cell Decimal oracle ``round2_reference`` and to
``table_csv_reference`` and ``table_json_reference``, run on the table that
``flatten_table`` builds row by row, byte for byte.
"""

import json
import math
import re
import warnings
from decimal import InvalidOperation

import numpy as np
import pytest

from dlps import _tables
from dlps._tables import Coded, Table, _table_csv, _table_json

from helpers import flatten_table, round2_reference, table_csv_reference, table_json_reference

CHUNK = 250_000


def csv_text(t) -> str:
    """The CSV writer's chunks, joined."""
    return "".join(_table_csv(t))


def json_text(t) -> str:
    """The JSON writer's chunks, joined."""
    return "".join(_table_json(t))


def money_cells(values) -> list[str]:
    """A money column's cells as the CSV writer prints them."""
    text = csv_text(Table("t", (("x", "rs", np.asarray(values, dtype=float)),)))
    return text.split("\n")[1:-1]


def mismatches(values) -> list[tuple[float, str, str]]:
    x = np.asarray(values, dtype=float)
    got = money_cells(x)
    expected = list(map(round2_reference, x.tolist()))
    if got == expected:
        return []
    return [(v, g, e) for v, g, e in zip(x.tolist(), got, expected) if g != e]


class TestExactRounder:
    def test_every_thousandth_and_its_neighbours(self):
        # k/1000 for |k| <= 2e6 holds every half-cent tie up to 2000, and the
        # float neighbours hold the ties whose binary value lies off the tie
        bad = []
        for start in range(-2_000_000, 2_000_001, CHUNK):
            k = np.arange(start, min(start + CHUNK, 2_000_001))
            x = k / 1000.0
            values = np.concatenate(
                [x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)]
            )
            bad += mismatches(values)
        assert not bad, bad[:10]

    @pytest.mark.parametrize(
        "value, text",
        [
            (2.675, "2.68"),  # binary value below the tie; round() gives 2.67
            (1.005, "1.01"),  # round() gives 1.0
            (0.125, "0.13"),  # an exact binary tie; "%.2f" gives 0.12
            (-2.675, "-2.68"),
            (-1.005, "-1.01"),
            (-0.125, "-0.13"),
            (-0.015, "-0.02"),
            (-0.005, "-0.01"),
            (0.005, "0.01"),
        ],
    )
    def test_ties_round_half_up_on_the_repr(self, value, text):
        assert money_cells([value]) == [text]
        assert round2_reference(value) == text

    @pytest.mark.parametrize(
        "value",
        [0.0, -0.0, -1e-300, -5e-324, 5e-324, -0.001, -0.004999999, 0.0049999,
         -0.00499999999999999],
    )
    def test_zeros_print_unsigned(self, value):
        assert money_cells([value]) == ["0.00"]

    @pytest.mark.parametrize(
        "value",
        [
            1e9,
            1e9 + 0.005,
            -(1e9 + 0.015),
            123456789012.345,
            1e15 + 0.125,  # "%.2f" gives ...0.12; the shortest repr is ...0.1
            -(1e15 + 0.125),
            2.0**53,
            2.0**53 + 2.0,
            1e17,
            9.99e25,
        ],
    )
    def test_large_values_match_reference(self, value):
        assert money_cells([value]) == [round2_reference(value)]

    def test_reference_for_1e15_plus_an_eighth(self):
        assert round2_reference(1e15 + 0.125) == "1000000000000000.10"
        assert f"{1e15 + 0.125:.2f}" == "1000000000000000.12"

    def test_seeded_sample(self):
        rng = np.random.default_rng(20201)
        n = 200_000
        uniform = rng.uniform(-1e4, 1e4, size=n)
        magnitude = 10.0 ** rng.uniform(-6, 12, size=n)
        logspread = np.where(rng.random(n) < 0.5, -magnitude, magnitude)
        cents = np.round(rng.uniform(-1e6, 1e6, size=n)) / 100.0 + 0.005
        bad = mismatches(np.concatenate([uniform, logspread, cents]))
        assert not bad, bad[:10]


def table(kind, values, key="x"):
    return Table("t", ((key, kind, values),))


class TestTableWriter:
    @pytest.mark.parametrize("kind", ["rs", "pct", "num"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_cell_names_table_and_column(self, kind, bad):
        for values in ([1.0, bad], np.array([1.0, bad])):
            with pytest.raises(ValueError, match="table t, column x: non-finite"):
                _table_csv(table(kind, values))
            with pytest.raises(ValueError, match="table t, column x: non-finite"):
                _table_json(table(kind, values))

    def test_too_large_to_round_is_a_value_error(self):
        with pytest.raises(ValueError, match="table t, column x"):
            _table_csv(table("rs", [1e30]))

    def test_cells_near_the_float_limit_fail_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="table t, column x: value too large"):
                _table_csv(table("rs", np.array([1.0, 1e307, -1.7e308])))

    def test_columns_are_formatted_by_kind(self):
        t = Table("t", (
            ("id", "str", ["a", "b"]),
            ("n", "int", [3, 24]),
            ("kw", "num", np.array([1 / 3, 2.0])),
            ("rs", "rs", [2.675, None]),
            ("pp", "pct", [None, -1e-9]),
        ))
        assert csv_text(t) == "id,n,kw,rs,pp\na,3,0.3333333333,2.68,\nb,24,2,,0.00\n"

    def test_empty_table_is_its_header(self):
        assert csv_text(table("rs", [])) == "x\n"

    def test_columns_of_unequal_length_are_rejected(self):
        t = Table("t", (("a", "int", [1, 2]), ("b", "int", [1])))
        for write in (_table_csv, _table_json):
            with pytest.raises(ValueError, match="table t: columns of unequal length"):
                write(t)

    def test_json_rebuilds_rows_in_column_order(self):
        t = Table("t", (
            ("id", "str", ["a", "b"]),
            ("state", "int", [18, 19]),
            ("rs", "rs", np.array([0.1 + 0.2, 2.675])),
        ))
        doc = json.loads(json_text(t))
        assert doc == {
            "table": "t",
            "rows": [
                {"id": "a", "state": 18, "rs": 0.1 + 0.2},
                {"id": "b", "state": 19, "rs": 2.675},
            ],
        }
        assert list(doc["rows"][0]) == ["id", "state", "rs"]


def outcome(write, t):
    """What a writer makes of a table: its text, or its error's type and message."""
    try:
        return write(t)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


class Int(int):
    """An int subclass: json writes it through ``int.__repr__``, never its own."""

    def __repr__(self) -> str:
        return "Int()"


class Float(float):
    """A float subclass: json writes it through ``float.__repr__``, never its own."""

    def __repr__(self) -> str:
        return "Float()"


PLAIN = [1.25, -3.5, 7.3968, 12.0, 0.1 + 0.2, 4.845626, -0.75, 99.99]
FLAGGED = [2.675, 0.0, -1e-9, 1.005, 1e9 + 0.5, -0.125]


class TestSplicedCells:
    @pytest.mark.parametrize(
        "rows", [[0], [7], [3, 4], [0, 7], [2, 3, 4, 5], list(range(8))],
        ids=["first", "last", "adjacent", "ends", "run", "every"],
    )
    @pytest.mark.parametrize("wrap", [list, np.array])
    def test_flagged_rows_match_the_oracle(self, rows, wrap):
        money = list(PLAIN)
        for k, row in enumerate(rows):
            money[row] = FLAGGED[k % len(FLAGGED)]
        pct = list(reversed(money))  # flagged in the mirrored rows too
        t = Table("t", (
            ("id", "str", [f"c{i}" for i in range(8)]),
            ("state", "int", list(range(18, 26))),
            ("kw", "num", wrap(PLAIN)),
            ("rs", "rs", wrap(money)),
            ("pp", "pct", wrap(pct)),
        ))
        assert csv_text(t) == table_csv_reference(t)
        assert json_text(t) == table_json_reference(t)

    def test_round2_runs_once_per_flagged_cell(self, monkeypatch):
        calls = []
        round2 = _tables._round2
        monkeypatch.setattr(_tables, "_round2", lambda v: calls.append(v) or round2(v))
        t = Table("t", (
            ("rs", "rs", np.array([2.675, 1.25, 0.0, 3.5, 1e9])),
            ("pp", "pct", [-1e-9, 7.25, 1.005, None, 12.5]),
            ("kw", "num", [0.0, 2.675, 1e9, 0.125, None]),
        ))
        assert csv_text(t) == table_csv_reference(t)
        assert sorted(calls) == sorted([2.675, 1e9, -1e-9, 1.005])
        calls.clear()
        json_text(t)
        assert calls == []

    def test_float64_list_columns_skip_the_per_cell_encoder(self, monkeypatch):
        calls = []
        dumps = json.dumps
        monkeypatch.setattr(_tables.json, "dumps", lambda v, **kw: calls.append(v) or dumps(v, **kw))
        t = Table("t", (
            ("pp", "pct", [np.float64(1 / 3), 2.5, np.float64(-0.0), np.float64(1e300)]),
            ("rs", "rs", (np.float64(0.1) + 0.2, np.float64(7.0), -1e-9, 5e-324)),
        ))
        text = json_text(t)
        monkeypatch.undo()
        assert calls == []
        assert text == table_json_reference(t)


# customer ids with "%", which a ``%`` template would have to double, and
# with digits of other scripts
IDS = ["I1", "I%2", "R١٢", "C１٢", "%s", "I%%d", "é7", "I8"]


def grid(money, blocks):
    """An on_peak-like grid: id and category keys per row, a state per block,
    and demand and price cells; ``money`` gives each block's prices."""
    return Table("on_peak", (
        ("id", "str", tuple(IDS)),
        ("category", "str", ["industrial", "commercial"] * (len(IDS) // 2)),
        ("state", "int", list(range(18, 18 + blocks))),
        ("demand_kw", "num", np.array(PLAIN * blocks) * 3.0),
        ("unit_price_rs", "rs", np.array(money * blocks)),
    ), row_keys=2, block_keys=1)


class TestGridWriter:
    @pytest.mark.parametrize("blocks", [1, 2, 6])
    @pytest.mark.parametrize(
        "rows", [[], [0], [7], [3, 4], [0, 7], [2, 3, 4, 5], list(range(8))],
        ids=["none", "first", "last", "adjacent", "ends", "run", "every"],
    )
    def test_flagged_rows_in_every_block_match_the_oracle(self, rows, blocks):
        money = list(PLAIN)
        for k, row in enumerate(rows):
            money[row] = FLAGGED[k % len(FLAGGED)]
        t = grid(money, blocks)
        flat = flatten_table(t)
        assert csv_text(t) == table_csv_reference(flat)
        assert json_text(t) == table_json_reference(flat)

    def test_rows_are_row_keys_then_block_keys_then_cells(self):
        t = Table("t", (
            ("id", "str", ["I%1", "R١"]),
            ("state", "int", [18, 19]),
            ("rs", "rs", np.array([1.0, 2.675, 0.0, 3.5])),
        ), row_keys=1, block_keys=1)
        assert csv_text(t) == (
            "id,state,rs\nI%1,18,1.00\nR١,18,2.68\nI%1,19,0.00\nR١,19,3.50\n"
        )

    def test_each_key_is_formatted_once(self, monkeypatch):
        formatted = []
        units = _tables.text_units
        monkeypatch.setattr(_tables, "text_units", lambda c: formatted.append(len(c)) or units(c))
        t = grid(list(PLAIN), blocks=6)
        assert csv_text(t) == table_csv_reference(flatten_table(t))
        assert formatted == [len(IDS), len(IDS), 6]

    @pytest.mark.parametrize("blocks, rows", [(0, 3), (4, 0), (0, 0)])
    def test_grid_without_rows_is_its_header(self, blocks, rows):
        t = Table("t", (
            ("id", "str", ["a"] * rows),
            ("state", "rs", [math.nan] * blocks),  # keys no row, so it is not checked
            ("x", "rs", np.zeros(blocks * rows)),
        ), row_keys=1, block_keys=1)
        assert csv_text(t) == "id,state,x\n" == table_csv_reference(flatten_table(t))
        assert json_text(t) == table_json_reference(flatten_table(t))

    @pytest.mark.parametrize("column", [0, 2, 3, 4])
    def test_non_finite_cells_and_keys_name_their_column(self, column):
        columns = list(grid(list(PLAIN), blocks=3).columns)
        key, kind, values = columns[column]
        values = np.ones(len(values))
        values[1] = math.inf
        columns[column] = (key, "num" if kind in ("str", "int") else kind, values)
        bad = Table("on_peak", tuple(columns), row_keys=2, block_keys=1)
        for write in (_table_csv, _table_json):
            with pytest.raises(ValueError, match=f"^table on_peak, column {key}: non-finite"):
                write(bad)

    def test_too_large_to_round_names_table_and_column(self):
        t = grid([*PLAIN[:7], 1e30], blocks=2)
        with pytest.raises(
            ValueError, match="^table on_peak, column unit_price_rs: value too large to round"
        ):
            _table_csv(t)

    @pytest.mark.parametrize("column, length", [(0, 7), (1, 9), (2, 2), (4, 23)])
    def test_columns_that_do_not_fit_the_grid_are_rejected(self, column, length):
        columns = list(grid(list(PLAIN), blocks=3).columns)
        key, kind, values = columns[column]
        columns[column] = (key, kind, [*values, *values][:length])
        t = Table("on_peak", tuple(columns), row_keys=2, block_keys=1)
        for write in (_table_csv, _table_json):
            with pytest.raises(ValueError, match="table on_peak: columns of unequal length"):
                write(t)


class TestChunks:
    """Each writer checks every cell when it is called, then yields its head
    and one chunk of text per block."""

    @pytest.mark.parametrize("blocks", [1, 2, 6])
    def test_head_then_one_chunk_per_block(self, blocks):
        money = list(PLAIN)
        money[3] = 2.675  # a flagged cell in every block
        t = grid(money, blocks)
        heads = {
            _table_csv: "id,category,state,demand_kw,unit_price_rs\n",
            _table_json: '{\n  "table": "on_peak",\n  "rows": [',
        }
        for write, reference in ((_table_csv, table_csv_reference),
                                 (_table_json, table_json_reference)):
            chunks = list(write(t))
            assert chunks[0] == heads[write]
            assert "".join(chunks) == reference(flatten_table(t))
            assert len(chunks) == 1 + blocks
            for block, chunk in enumerate(chunks[1:]):
                states = (
                    [line.split(",")[2] for line in chunk.splitlines()] if write is _table_csv
                    else re.findall(r'"state": (\d+)', chunk)
                )
                assert states == [str(18 + block)] * len(IDS)

    @pytest.mark.parametrize("bad", [math.inf, 1e30])
    def test_the_last_blocks_cells_are_checked_before_the_first_chunk(self, bad):
        t = grid([*PLAIN[:7], 2.5], blocks=3)
        prices = t.columns[4][2].copy()
        prices[-1] = bad
        t = Table(t.name, (*t.columns[:4], ("unit_price_rs", "rs", prices)), 2, 1)
        writers = (_table_csv, _table_json) if bad == math.inf else (_table_csv,)
        for write in writers:
            with pytest.raises(ValueError, match="^table on_peak, column unit_price_rs: "):
                write(t)


@pytest.mark.parametrize(
    "t",
    [
        Table("t", ()),
        Table("t", (("x", "rs", []),)),
        table("num", np.array([1.5])),
        table("int", [3, True, False]),
        table("int", (True, None, np.int8(4))),
        table("str", ["a", 2.5, math.nan, None, -math.inf]),
        table("rs", [np.float64(0.1) + 0.2, 7, None]),
        table("pct", [np.float64(0.1) + 0.2, 2.675, np.float64(-1e-300), 1e22]),
        table("pct", [np.float64(1.5), Float(2.5), 0.5]),
        table("rs", [np.float64(1.5), np.float32(2.5)]),
        table("int", [10**30, Int(7), None]),
        table("str", ['\u00e9 "q"', None, -0.0, 5e-324, math.inf, np.float64(2.5)]),
        table("int", [np.bool_(True), 1]),
    ],
    ids=["no-columns", "no-rows", "one-cell", "bools", "none-and-int8", "str-mixed", "rs-mixed",
         "float64-mixed", "float-subclass", "float32", "big-int-and-subclass", "str-escapes",
         "numpy-bool"],
)
def test_small_tables_match_the_oracles(t):
    assert outcome(json_text, t) == outcome(table_json_reference, t)
    assert outcome(csv_text, t) == outcome(table_csv_reference, t)


# --- generated tables ---------------------------------------------------------

@pytest.fixture
def hypothesis():
    return pytest.importorskip("hypothesis")


def generated_tables(st, grids=False):
    """Tables of every column kind, as lists, tuples and arrays, with None
    cells, cells the writer flags, odd strings, dictionary-coded "str"
    columns and, now and then, a cell or a column no writer can print; with
    ``grids``, grids of 1 to 6 blocks with up to two row keys and two block
    keys."""
    texts = st.text(max_size=6) | st.sampled_from(
        ["", '"', "\\", "a,b", "%", "%s", "%%d", "\x00\x1f\x7f", "é", " ", "😀", "I8",
         "I%8", "R١٢", "C１２"]
    )
    ties = st.integers(-10**7, 10**7).map(lambda k: (2 * k + 1) / 200)  # half-cent ties
    numbers = st.one_of(
        st.floats(-1e6, 1e6),
        ties,
        st.integers(-10**6, 10**6).map(lambda k: k / 100),
        st.sampled_from([0.0, -0.0, 5e-324, -1e-9, 0.0049999, -0.005, 2.675, 1.005]),
        st.floats(1e8, 1e25) | st.floats(-1e25, -1e8),
    )
    oddities = st.sampled_from([math.nan, math.inf, -math.inf, 1e30, True, "x"])

    @st.composite
    def column(draw, kind, n):
        if kind == "str" and draw(st.integers(0, 3)) == 0:
            names = tuple(draw(st.lists(texts | st.none(), min_size=1, max_size=4)))
            codes = st.integers(0, len(names) - 1)
            return Coded(names, np.array(draw(st.lists(codes, min_size=n, max_size=n)), np.int8))
        if kind == "str":
            cells = texts | st.sampled_from([None, 3, 2.5, math.nan, False])
            values = draw(st.lists(texts if draw(st.booleans()) else cells, min_size=n, max_size=n))
        elif kind == "int":
            cells = st.integers(-10**20, 10**20) | st.booleans() | st.sampled_from([None, 1.5])
            values = draw(st.lists(
                st.integers(0, 30) if draw(st.booleans()) else cells, min_size=n, max_size=n
            ))
        else:
            odd = draw(st.integers(0, 4)) == 0
            cells = st.one_of(numbers, numbers.map(np.float64), st.integers(-99, 99), st.none())
            values = draw(st.lists(
                (cells | oddities) if odd else numbers, min_size=n, max_size=n
            ))
            if draw(st.booleans()):
                values = [v if v is None or isinstance(v, (bool, str)) else np.float64(v)
                          for v in values]
        container = draw(st.sampled_from([list, tuple, np.array]))
        if container is np.array and (None in values or "x" in values):
            container = list  # an array of these holds objects, which no table uses
        return container(values)

    @st.composite
    def tables(draw):
        n = draw(st.integers(0, 12))
        keys = draw(st.lists(texts, min_size=1, max_size=5, unique=True))
        kinds = st.sampled_from(["str", "int", "num", "rs", "pct"])
        columns = tuple(
            (key, kind, draw(column(kind, n))) for key, kind in ((k, draw(kinds)) for k in keys)
        )
        return Table(draw(texts), columns)

    @st.composite
    def grid_tables(draw):
        row_keys, block_keys = draw(st.integers(0, 2)), draw(st.integers(0, 2))
        blocks = draw(st.integers(1, 6)) if block_keys else 1
        rows = draw(st.integers(0, 8))
        lengths = [rows] * row_keys + [blocks] * block_keys
        lengths += [rows * blocks] * draw(st.integers(0 if lengths else 1, 3))
        keys = draw(st.lists(texts, min_size=len(lengths), max_size=len(lengths), unique=True))
        kinds = st.sampled_from(["str", "int", "num", "rs", "pct"])
        columns = tuple(
            (key, kind, draw(column(kind, n)))
            for key, n, kind in ((k, n, draw(kinds)) for k, n in zip(keys, lengths))
        )
        return Table(draw(texts), columns, row_keys, block_keys)

    return grid_tables() if grids else tables()


# tables the strategy seldom draws: text cells of 4 and 8 bytes that fill
# their last unit, so the separator after them needs a unit of its own; "num"
# columns whose low fraction groups are blank in every row, or filled in one
# row only; "str" columns of one cell that is not a str
EDGE_TABLES = [
    Table("t", (("a", "str", ["abcd", "ab"]), ("b", "str", ["", "abcdefgh"]), ("c", "int", [1, 22]))),
    table("num", np.array([1.5, 0.0001, 2.25])),
    table("num", [1.5, 0.0001, 3.000000001]),
    table("num", np.array([1.5, 0.0001, 0.0001234567891])),
    table("str", (3,)),
    table("str", (None,)),
]


def check_parity(hypothesis, write, reference, grids=False):
    def check(t):
        assert outcome(write, t) == outcome(reference, flatten_table(t))

    for t in () if grids else EDGE_TABLES:
        check = hypothesis.example(t)(check)
    settings = hypothesis.settings(derandomize=True, max_examples=200 if grids else 400, deadline=None)
    settings(hypothesis.given(generated_tables(hypothesis.strategies, grids))(check))()


def num_cells(values) -> list[str]:
    """A "num" column's cells as the CSV writer prints them."""
    return csv_text(table("num", np.asarray(values, dtype=float))).split("\n")[1:-1]


# each power of ten from 1e-5 to 1e11 and its float neighbours, values at
# the edges of the kernel's range, half-cent ties, and 1.0000000005, whose
# 10-digit scaling lands within 1e-5 of a tie
KERNEL_EDGES = [
    *(v for p in range(-5, 12) for v in (10.0**p, np.nextafter(10.0**p, 0), np.nextafter(10.0**p, 1e300))),
    9999999999.5, 0.125, 2.675, 1.005, 1.0000000005,
]


def test_kernel_cells_match_percent_and_round2(hypothesis):
    st = hypothesis.strategies
    near_ties = st.tuples(st.integers(10**9, 10**10 - 1), st.integers(0, 13)).map(
        lambda nk: (nk[0] + 0.5) / 10 ** nk[1]
    )
    magnitudes = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(0, 1e-300),  # subnormals and the smallest normals
        st.floats(9.9e8, 1.01e9) | st.floats(9.99e9, 1.01e10),
        near_ties,
    )
    signed = st.tuples(magnitudes, st.booleans()).map(lambda vs: -vs[0] if vs[1] else vs[0])

    @hypothesis.settings(derandomize=True, max_examples=300, deadline=None)
    @hypothesis.given(st.lists(signed, min_size=1, max_size=40))
    @hypothesis.example([0.0, -0.0, 5e-324, -5e-324])
    @hypothesis.example(KERNEL_EDGES)
    @hypothesis.example([-v for v in KERNEL_EDGES])
    def check(values):
        assert num_cells(values) == ["%.10g" % v for v in values]
        try:
            expected = [round2_reference(v) for v in values]
        except InvalidOperation:
            with pytest.raises(ValueError, match="too large to round to cents"):
                money_cells(values)
        else:
            assert money_cells(values) == expected

    check()


def test_csv_writer_matches_oracle_on_generated_tables(hypothesis):
    check_parity(hypothesis, csv_text, table_csv_reference)


def test_json_writer_matches_oracle_on_generated_tables(hypothesis):
    check_parity(hypothesis, json_text, table_json_reference)


def test_csv_writer_matches_oracle_on_generated_grids(hypothesis):
    check_parity(hypothesis, csv_text, table_csv_reference, grids=True)


def test_json_writer_matches_oracle_on_generated_grids(hypothesis):
    check_parity(hypothesis, json_text, table_json_reference, grids=True)
