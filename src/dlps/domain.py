"""Core data model for demand-linked tariff studies.

Units used throughout the package:

* demand: kW (states last one hour, so kW and kWh coincide per state)
* price: Rs/kWh
* profit factor: dimensionless fraction (0.01 means a 1% assured margin)

A day is modelled as 24 hourly states. Each state carries the market
clearing price and a system load factor; a customer's demand at a state is
their base demand scaled by that load factor. All domain values are
immutable after construction; derived quantities are computed on demand.

A dataset's one customer field is a columnar ``CustomerTable``: ids, a
small-int category code and a float64 base demand per customer, plus each
present category's column indices, laid out like the columns of an Arrow
record batch. Grids, category columns, validation and scenarios read the
table. ``Customer`` objects enter only through
``CustomerTable.from_customers``, and ``Dataset.customers``, a read-only
tuple of ``Customer``, is built from the table only when asked for, so a
dataset read from CSV prices, bills and replays scenarios without building
a ``Customer`` object.
"""

from __future__ import annotations

import math
import re
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from types import MappingProxyType
from typing import Iterable

import numpy as np

__all__ = [
    "Category",
    "Customer",
    "CustomerTable",
    "CategoryConfig",
    "SystemState",
    "DayProfile",
    "Dataset",
    "Violation",
    "category_demands",
    "demand_grid",
    "select_states",
    "validate_dataset",
]

STATES_PER_DAY = 24


class Category(str, Enum):
    """Customer category; determines the assured profit margin."""

    RESIDENTIAL = "residential"
    COMMERCIAL = "commercial"
    INDUSTRIAL = "industrial"

    @classmethod
    def parse(cls, text: str) -> "Category":
        """Parse a category name or single-letter code (case-insensitive)."""
        try:
            return _BY_CODE[_ALIAS_CODES[text.strip().lower()]]
        except KeyError:
            raise ValueError(f"unknown category {text!r}") from None

    @classmethod
    def parse_codes(cls, texts: Iterable[str]) -> list[int | None]:
        """``CustomerTable`` codes of stripped category names or letters,
        case-insensitive; None where ``parse`` would raise."""
        return list(map(_ALIAS_CODES.get, map(str.lower, texts)))

    @property
    def prefix(self) -> str:
        """Customer-id letter conventionally used for this category."""
        return _CATEGORY_PREFIX[self]


_CATEGORY_PREFIX = {
    Category.RESIDENTIAL: "R",
    Category.COMMERCIAL: "C",
    Category.INDUSTRIAL: "I",
}
# a customer's category code k stands for _BY_CODE[k]
_BY_CODE = tuple(Category)
_CODE_OF = {cat: k for k, cat in enumerate(_BY_CODE)}
_ALIAS_CODES = {
    **{cat.value: k for cat, k in _CODE_OF.items()},
    **{_CATEGORY_PREFIX[cat].lower(): k for cat, k in _CODE_OF.items()},
}


@dataclass(frozen=True)
class Customer:
    """One metered customer.

    ``base_demand`` is the demand (kW) at a state whose load factor is 1.0;
    demand at any other state scales with the profile's load factor.
    """

    id: str
    category: Category
    base_demand: float


@dataclass(frozen=True, eq=False)
class CustomerTable:
    """Customers as columns, entry j of each column describing customer j.

    ``codes`` holds a small-int category code per customer
    (``Category.parse_codes``) and ``base`` the base demand (kW), both
    read-only. ``columns`` gives each present category's column indices.
    Tables compare equal by value: the same ids, codes and base demands.
    """

    ids: tuple[str, ...]
    codes: np.ndarray
    base: np.ndarray

    def __post_init__(self) -> None:
        self.codes.setflags(write=False)
        self.base.setflags(write=False)

    @classmethod
    def from_customers(cls, customers: Iterable[Customer]) -> "CustomerTable":
        customers = tuple(customers)
        return cls(
            ids=tuple(c.id for c in customers),
            codes=np.array([_CODE_OF[c.category] for c in customers], dtype=np.int8),
            base=np.array([c.base_demand for c in customers], dtype=float),
        )

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CustomerTable):
            return NotImplemented
        return (
            self.ids == other.ids
            and np.array_equal(self.codes, other.codes)
            and np.array_equal(self.base, other.base)
        )

    def __hash__(self) -> int:
        return hash(self.ids)

    @cached_property
    def columns(self) -> Mapping[Category, np.ndarray]:
        """Column indices of each category with customers, in ascending order,
        as a read-only mapping of read-only arrays."""
        out = {}
        for code, category in enumerate(_BY_CODE):
            cols = np.flatnonzero(self.codes == code)
            if cols.size:
                cols.setflags(write=False)
                out[category] = cols
        return MappingProxyType(out)

    def ids_in(self, category: Category) -> list[str]:
        """Ids of one category's customers, in column order."""
        cols = self.columns.get(category)
        return [] if cols is None else list(map(self.ids.__getitem__, cols.tolist()))

    def category_values(self) -> list[str]:
        """Each customer's category name, in column order."""
        names = [category.value for category in _BY_CODE]
        return [names[code] for code in self.codes.tolist()]

    def to_customers(self) -> tuple[Customer, ...]:
        categories = map(_BY_CODE.__getitem__, self.codes.tolist())
        return tuple(map(Customer, self.ids, categories, self.base.tolist()))


@dataclass(frozen=True)
class CategoryConfig:
    """Per-category tariff parameters.

    ``profit_factor`` is the assured margin as a fraction of purchase cost;
    prices carry the multiplier (1 + profit_factor).
    """

    category: Category
    profit_factor: float


@dataclass(frozen=True)
class SystemState:
    """One hourly system state of the day."""

    index: int  # 1..24
    mcp: float  # market clearing price, Rs/kWh
    load_factor: float  # scales every customer's base demand
    is_peak: bool


@dataclass(frozen=True)
class DayProfile:
    """Ordered 24-state day with a label describing where it came from."""

    states: tuple[SystemState, ...]
    source: str = ""

    @cached_property
    def row_of(self) -> Mapping[int, int]:
        """Row in ``states`` of each state index (the first, if one repeats)."""
        return MappingProxyType({s.index: r for r, s in reversed(tuple(enumerate(self.states)))})

    def row(self, index: int) -> int:
        try:
            return self.row_of[index]
        except KeyError:
            raise KeyError(f"no state with index {index}") from None

    def state(self, index: int) -> SystemState:
        return self.states[self.row(index)]

    @property
    def peak_states(self) -> tuple[SystemState, ...]:
        return tuple(s for s in self.states if s.is_peak)

    @property
    def off_peak_states(self) -> tuple[SystemState, ...]:
        return tuple(s for s in self.states if not s.is_peak)

    @property
    def peak_indices(self) -> tuple[int, ...]:
        return tuple(s.index for s in self.peak_states)


@dataclass(frozen=True)
class Dataset:
    """Customers, category parameters, and the day profile they share."""

    table: CustomerTable
    categories: tuple[CategoryConfig, ...]
    profile: DayProfile
    label: str = ""

    @cached_property
    def customers(self) -> tuple[Customer, ...]:
        """The customers as ``Customer`` objects, in dataset order, built
        from the table on first read."""
        return self.table.to_customers()

    def customers_in(self, category: Category) -> tuple[Customer, ...]:
        """Customers of one category, in dataset order."""
        cols = self.table.columns.get(category)
        if cols is None:
            return ()
        customers = self.customers
        return tuple(customers[j] for j in cols.tolist())

    def config_for(self, category: Category) -> CategoryConfig:
        for cfg in self.categories:
            if cfg.category == category:
                return cfg
        raise KeyError(f"no configuration for category {category.value}")

    def profit_factor(self, category: Category) -> float:
        return self.config_for(category).profit_factor

    @property
    def categories_present(self) -> tuple[Category, ...]:
        """Categories that have at least one customer, in config order."""
        present = self.table.columns
        return tuple(cfg.category for cfg in self.categories if cfg.category in present)


@dataclass(frozen=True)
class Violation:
    """One validation finding: the offending entity and what is wrong."""

    entity: str
    message: str

    def __str__(self) -> str:
        return f"{self.entity}: {self.message}"


def category_demands(ds: Dataset, category: Category, state: SystemState) -> np.ndarray:
    """Demands of one category at one state, in dataset customer order."""
    cols = ds.table.columns.get(category)
    if cols is None:
        return np.empty(0)
    return ds.table.base[cols] * state.load_factor


def demand_grid(ds: Dataset, multipliers: np.ndarray | None = None) -> np.ndarray:
    """Demand (kW) of every customer at every state: ``lf * base * multipliers``.

    Rows follow the profile's state order and columns the dataset's customer
    order. ``multipliers`` is a matching (state x customer) matrix of demand
    factors, such as a compiled demand-response event; None keeps base demand.
    Each cell is bitwise base demand times load factor times its factor.
    """
    lf = np.array([s.load_factor for s in ds.profile.states], dtype=float)
    grid = lf[:, None] * ds.table.base[None, :]
    if multipliers is not None:
        grid *= multipliers
    return grid


def select_states(
    profile: DayProfile, scope: str | int | Iterable[int]
) -> tuple[SystemState, ...]:
    """Resolve a state scope to a tuple of states.

    ``scope`` may be ``"day"``, ``"peak"``, ``"off_peak"``, one state index,
    or an iterable of state indices.
    """
    if scope == "day":
        return profile.states
    if scope == "peak":
        return profile.peak_states
    if scope == "off_peak":
        return profile.off_peak_states
    if isinstance(scope, int):
        return (profile.state(scope),)
    if isinstance(scope, str):
        raise ValueError(f"unknown state scope {scope!r}")
    return tuple(profile.state(i) for i in scope)


_PREFIXED_ID = re.compile(r"^([RCI])\d+$")


def _repeated_ids(ids: Sequence[str]) -> list[int]:
    """Positions of the ids that already occur earlier in ``ids``."""
    if len(set(ids)) == len(ids):
        return []
    seen: set[str] = set()
    out = []
    for k, cid in enumerate(ids):
        if cid in seen:
            out.append(k)
        seen.add(cid)
    return out


_PREFIX_POINTS = np.array([ord(_CATEGORY_PREFIX[cat]) for cat in _BY_CODE], dtype=np.uint32)


def _prefix_mismatches(table: CustomerTable) -> dict[int, str]:
    """{column: letter} of the ids of ``_PREFIXED_ID`` form whose letter is
    not their category's prefix.

    Only an id whose first character differs from its prefix can be one.
    Every id's first character is read at once, from one UTF-32 encoding of
    all ids joined, so the pattern runs on those ids alone.
    """
    ids = table.ids
    lengths = np.fromiter(map(len, ids), dtype=np.intp, count=len(ids))
    starts = np.cumsum(lengths) - lengths
    # the trailing NUL keeps the start of an empty last id in range; an empty
    # id reads the next id's first character or the NUL, and the pattern
    # rejects it either way
    joined = ("".join(ids) + "\0").encode("utf-32-le", "surrogatepass")
    first = np.frombuffer(joined, dtype=np.uint32)[starts]
    out = {}
    for j in np.flatnonzero(first != _PREFIX_POINTS[table.codes]).tolist():
        m = _PREFIXED_ID.match(ids[j])
        if m:
            out[j] = m.group(1)
    return out


def validate_dataset(ds: Dataset) -> list[Violation]:
    """Check structural invariants; an empty list means the dataset is valid.

    A dataset that passes validation is accepted by every downstream module
    without raising: positive finite demands, prices and load factors keep
    every pricing group non-degenerate, and the non-empty peak and off-peak
    windows keep both schedule sides defined. Customer checks run over the
    table's columns; findings are listed customer by customer, in check
    order.
    """
    out: list[Violation] = []

    table = ds.table
    ids, base = table.ids, table.base
    bad_demand = (base <= 0) | ~np.isfinite(base)
    repeated = set(_repeated_ids(ids))
    prefixes = _prefix_mismatches(table)
    flagged = {*np.flatnonzero(bad_demand).tolist(), *repeated, *prefixes}
    for j in sorted(flagged):
        tag = f"customer {ids[j]}"
        if bad_demand[j]:
            demand = float(base[j])
            rule = "> 0" if demand <= 0 else "finite"
            out.append(Violation(tag, f"base demand must be {rule}, got {demand}"))
        if j in repeated:
            out.append(Violation(tag, "duplicate customer id"))
        if j in prefixes:
            out.append(
                Violation(
                    tag,
                    f"id prefix {prefixes[j]!r} does not match category "
                    f"{_BY_CODE[table.codes[j]].value!r}",
                )
            )

    seen_categories: set[Category] = set()
    for cfg in ds.categories:
        tag = f"category {cfg.category.value}"
        if cfg.category in seen_categories:
            out.append(Violation(tag, "duplicate category configuration"))
        seen_categories.add(cfg.category)
        if not 0.0 <= cfg.profit_factor < 1.0:
            out.append(
                Violation(
                    tag, f"profit factor must be in [0, 1), got {cfg.profit_factor}"
                )
            )
        if cfg.category not in table.columns:
            out.append(Violation(tag, "configured category has no customers"))

    configured = np.array([cat in seen_categories for cat in _BY_CODE])
    for j in np.flatnonzero(~configured[table.codes]).tolist():
        out.append(
            Violation(
                f"customer {ids[j]}",
                f"no configuration for category {_BY_CODE[table.codes[j]].value}",
            )
        )

    states = ds.profile.states
    if len(states) != STATES_PER_DAY:
        out.append(
            Violation("profile", f"expected {STATES_PER_DAY} states, got {len(states)}")
        )
    seen_indices: set[int] = set()
    for s in states:
        tag = f"state {s.index}"
        if not 1 <= s.index <= STATES_PER_DAY:
            out.append(Violation(tag, "state index out of range 1..24"))
        if s.index in seen_indices:
            out.append(Violation(tag, "duplicate state index"))
        seen_indices.add(s.index)
        if s.mcp <= 0:
            out.append(Violation(tag, f"mcp must be > 0, got {s.mcp}"))
        elif not math.isfinite(s.mcp):
            out.append(Violation(tag, f"mcp must be finite, got {s.mcp}"))
        if s.load_factor <= 0:
            out.append(Violation(tag, f"load factor must be > 0, got {s.load_factor}"))
        elif not math.isfinite(s.load_factor):
            out.append(Violation(tag, f"load factor must be finite, got {s.load_factor}"))
    if states and not any(s.is_peak for s in states):
        out.append(Violation("profile", "no peak states"))
    if states and all(s.is_peak for s in states):
        out.append(Violation("profile", "no off-peak states"))

    return out
