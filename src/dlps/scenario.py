"""Demand-change scenarios: what-if analysis around a base dataset.

A scenario names relative demand changes for some customers, together with
the scope (state or window) where those changes are in effect. Changes may
be one fraction per customer, or one fraction per (customer, state) as
produced by random demand-response events. Applying a scenario never
mutates the base dataset; deltas are computed by pricing both datasets
exactly and comparing.

Sign conventions: a perturbation of +0.10 means demand rises 10%; deltas
are reported in percent, positive when the scenario value exceeds the base
value.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, replace
# collections.abc, not typing: isinstance against typing.Mapping is about five
# times slower, and event_multipliers runs it once per perturbed customer
from collections.abc import Iterator, Mapping
from functools import cached_property

import numpy as np

from .domain import (
    STATES_PER_DAY, Category, CustomerTable, Dataset, DayProfile, category_demands, select_states,
)
from .ingest import _repeated_key, _unique_keys
from .pricing import FinancialSummary, _summary, on_peak_prices

__all__ = [
    "Scenario",
    "CustomerDelta",
    "ScenarioDeltas",
    "PRESET_NAMES",
    "analysis_state",
    "perturbation_at",
    "event_multipliers",
    "apply_scenario",
    "scenario_deltas",
    "financial_summary",
    "random_dr_event",
    "preset_scenario",
    "load_scenario",
    "scenario_to_json",
]

# Relative demand change per customer: one fraction applied across the
# scenario scope, or a per-state-index map of fractions.
Perturbation = float | Mapping[int, float]


@dataclass(frozen=True)
class Scenario:
    """Named set of relative demand changes with the scope they apply to.

    ``scope`` is a state index or one of the window names accepted by
    ``domain.select_states`` and marks where the perturbations are in
    effect; outside it the base demands stand. A per-state key that is a
    state of the profile but lies outside the scope is ignored; a key that
    is not a state of the profile is an error wherever the scenario is
    compiled (``event_multipliers``, ``apply_scenario``).
    """

    label: str
    perturbations: Mapping[str, Perturbation]
    scope: int | str = "peak"


class _EventDraws(Mapping):
    """Read-only {customer id: {state index: fraction}} view of a draw array.

    Row i of ``draws`` holds the fractions of customer ``ids[i]`` at
    ``states``. The array is the event's internal form, which
    ``event_multipliers`` places into the grid as it is; a customer's dict
    is built only when it is looked up.
    """

    def __init__(self, ids: tuple[str, ...], states: tuple[int, ...], draws: np.ndarray):
        draws.setflags(write=False)
        self.ids, self.states, self.draws = ids, states, draws

    @cached_property
    def _row(self) -> dict[str, int]:
        return {cid: i for i, cid in enumerate(self.ids)}

    def __getitem__(self, cid: str) -> dict[int, float]:
        return dict(zip(self.states, self.draws[self._row[cid]].tolist()))

    def __iter__(self) -> Iterator[str]:
        return iter(self.ids)

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class CustomerDelta:
    """Relative changes (percent) for one customer at the analysed state."""

    customer_id: str
    demand_pct: float
    unit_price_pct: float
    billing_pct: float
    demand_contribution_pct: float


@dataclass(frozen=True)
class ScenarioDeltas:
    """Per-customer deltas for one category at one peak state."""

    state: int
    category: Category
    deltas: tuple[CustomerDelta, ...]
    financials: FinancialSummary

    def delta_for(self, customer_id: str) -> CustomerDelta:
        for d in self.deltas:
            if d.customer_id == customer_id:
                return d
        raise KeyError(f"no delta row for customer {customer_id}")


def analysis_state(profile: DayProfile) -> int:
    """Default state for scenario tables: the peak state with the highest load factor."""
    peaks = profile.peak_states
    if not peaks:
        raise ValueError("profile has no peak states")
    best = max(peaks, key=lambda s: (s.load_factor, -s.index))
    return best.index


def perturbation_at(sc: Scenario, customer_id: str, state_index: int, profile: DayProfile) -> float:
    """Relative demand change for a customer at a state; 0 outside the scope."""
    if state_index not in {s.index for s in select_states(profile, sc.scope)}:
        return 0.0
    p = sc.perturbations.get(customer_id, 0.0)
    if isinstance(p, Mapping):
        return float(p.get(state_index, 0.0))
    return float(p)


def event_multipliers(sc: Scenario, ds: Dataset) -> np.ndarray:
    """Compile a scenario into demand factors per (state, customer).

    Rows follow the profile's state order and columns the dataset's customer
    order, matching ``domain.demand_grid``. A cell is ``1 + perturbation``
    inside the scenario's scope and 1 outside it, so the scope is resolved
    once per compile rather than once per lookup. A random event drawn
    against these customers fills one row per drawn state from its draw
    array; otherwise each perturbed customer fills its column, a uniform
    fraction at every state of the scope. Raises ValueError naming perturbed
    customer ids that are not in the dataset, or else per-state keys that
    are not states of the profile, in the order they are met.
    """
    states = ds.profile.states
    row_of = ds.profile.row_of
    scope = [s.index for s in select_states(ds.profile, sc.scope)]
    ids = ds.table.ids
    event = sc.perturbations
    factors = np.ones((len(states), len(ids)))
    strays: dict = {}  # ordered set, in the order they were met

    def place(t: int, columns, fractions) -> None:
        if t not in row_of:
            strays[t] = None
        elif t in scope:
            factors[row_of[t], columns] = 1.0 + fractions

    if isinstance(event, _EventDraws) and event.ids == ids:
        for t, fractions in zip(event.states, event.draws.T):
            place(t, slice(None), fractions)
    else:
        column_of = {cid: j for j, cid in enumerate(ids)}
        unknown = sorted(set(event) - column_of.keys())
        if unknown:
            raise ValueError(f"scenario {sc.label!r} perturbs unknown customer ids: {unknown}")
        for cid, p in event.items():
            per_state = p if isinstance(p, Mapping) else dict.fromkeys(scope, p)
            for t, e in per_state.items():
                # float() first: 1.0 + a float32 fraction would stay float32
                place(t, column_of[cid], float(e))
    if strays:
        raise ValueError(
            f"scenario {sc.label!r} perturbs states not in the profile: {list(strays)}"
        )
    return factors


def apply_scenario(ds: Dataset, sc: Scenario, at_state: int | None = None) -> Dataset:
    """Return a new dataset whose base demands are one state's row of the event.

    The row of ``at_state`` in ``event_multipliers`` scales the table's base
    column, so a state outside the scope keeps base demand; evaluate the
    result at that state. ``at_state`` defaults to the scope when that is a
    single state index; uniform fractions need no state, since every state
    of the scope carries them alike, but per-state perturbations do. Raises
    ValueError naming the first customer whose demand drops to zero or below.
    """
    if at_state is None and isinstance(sc.scope, int):
        at_state = sc.scope
    if at_state is None:
        if isinstance(sc.perturbations, _EventDraws) or any(
            isinstance(p, Mapping) for p in sc.perturbations.values()
        ):
            raise ValueError(
                f"scenario {sc.label!r} has per-state perturbations; "
                "pass at_state to pick the state to realize"
            )
        at_state = next(iter(select_states(ds.profile, sc.scope)), ds.profile.states[0]).index
    row = event_multipliers(sc, ds)[ds.profile.row(at_state)]
    ids, codes, base = ds.table.ids, ds.table.codes, ds.table.base * row
    dropped = np.flatnonzero(base <= 0)
    if dropped.size:
        j = dropped[0]
        raise ValueError(f"scenario {sc.label!r} drives demand of {ids[j]} to {float(base[j])} kW")
    label = f"{ds.label}+{sc.label}" if ds.label else sc.label
    return replace(ds, table=CustomerTable(ids, codes, base), label=label)


def scenario_deltas(
    base: Dataset,
    perturbed: Dataset,
    state_index: int,
    category: Category,
) -> ScenarioDeltas:
    """Per-customer relative changes between two datasets at one peak state.

    Reports demand, unit price, billing, and demand-contribution changes in
    percent, each computed from exact repricing of both datasets as one
    array formula per column, ``100 * (new - old) / old``. Customers
    must match one-to-one; the state must be a peak state in both profiles
    with the same market price.
    """
    b_state = base.profile.state(state_index)
    p_state = perturbed.profile.state(state_index)
    if not (b_state.is_peak and p_state.is_peak):
        raise ValueError(f"state {state_index} is not a peak state")
    if b_state.mcp != p_state.mcp or b_state.load_factor != p_state.load_factor:
        raise ValueError("base and perturbed datasets disagree on the state itself")
    ids = base.table.ids_in(category)
    if ids != perturbed.table.ids_in(category):
        raise ValueError("base and perturbed datasets list different customers")
    if not ids:
        raise ValueError(f"no customers in category {category.value}")
    kp = base.profit_factor(category)
    if kp != perturbed.profit_factor(category):
        raise ValueError("base and perturbed datasets disagree on the profit factor")

    d_base = category_demands(base, category, b_state)
    d_pert = category_demands(perturbed, category, p_state)
    prices_base = on_peak_prices(d_base, kp, b_state.mcp)
    prices_pert = on_peak_prices(d_pert, kp, p_state.mcp)
    dc_base = d_base / d_base.sum()
    dc_pert = d_pert / d_pert.sum()

    def pct(new: np.ndarray, old: np.ndarray) -> list[float]:
        return (100.0 * (new - old) / old).tolist()

    columns = (
        pct(d_pert, d_base),
        pct(prices_pert, prices_base),
        pct(prices_pert * d_pert, prices_base * d_base),
        pct(dc_pert, dc_base),
    )
    deltas = tuple(map(CustomerDelta, ids, *columns))
    financials = financial_summary(perturbed, state_index, category)
    return ScenarioDeltas(
        state=state_index, category=category, deltas=deltas, financials=financials
    )


def financial_summary(
    ds: Dataset,
    states: str | int = "day",
    category: Category | None = None,
) -> FinancialSummary:
    """Closed-form finances over a scope: purchase cost, revenue, margin.

    Purchase cost sums market price times demand; revenue marks each
    category's purchase cost up by its profit factor. ``category=None``
    takes every category of the customer table, and raises KeyError for one
    with no configuration. This is the identity
    the price signal is built to satisfy, computed without touching any
    schedule, which makes it the cross-check partner of the schedule-based
    accounting in ``pricing.verify_ebe``.
    """
    selected = select_states(ds.profile, states)
    categories = [category] if category is not None else list(ds.table.columns)
    purchase = 0.0
    revenue = 0.0
    for cat in categories:
        kp = ds.profit_factor(cat)
        cat_purchase = 0.0
        for state in selected:
            demand = float(category_demands(ds, cat, state).sum())
            cat_purchase += state.mcp * demand
        purchase += cat_purchase
        revenue += (1.0 + kp) * cat_purchase
    return _summary(purchase, revenue, category, states)


def random_dr_event(
    ds: Dataset,
    max_reduction: float,
    seed: int,
    symmetric: bool = False,
) -> Scenario:
    """Random demand-response event over the peak window.

    Every customer draws an independent relative demand change at every
    peak state: a reduction uniform on [0, max_reduction], or uniform on
    [-max_reduction, +max_reduction] when ``symmetric``. Draw order is
    dataset customer order, then ascending peak state, so a seed fully
    determines the scenario.
    """
    if not 0.0 <= max_reduction < 1.0:
        raise ValueError(f"max reduction must be in [0, 1), got {max_reduction}")
    rng = np.random.default_rng(seed)
    peak = ds.profile.peak_indices
    size = (len(ds.table), len(peak))
    if symmetric:
        draws = rng.uniform(-max_reduction, max_reduction, size=size)
    else:
        draws = -rng.uniform(0.0, max_reduction, size=size)
    perturbations = _EventDraws(ds.table.ids, peak, draws)
    mode = "symmetric" if symmetric else "reduction"
    label = f"dr-event({mode} {max_reduction:g}, seed {seed})"
    return Scenario(label=label, perturbations=perturbations, scope="peak")


PRESET_NAMES = ("s1", "s2", "s3", "s4")


def preset_scenario(name: str, ds: Dataset, seed: int = 0) -> Scenario:
    """Benchmark demand-change presets over the industrial category.

    s1: largest and smallest industrial customers both raise demand 10%.
    s2: both cut demand 10%.
    s3: the largest cuts 10% while the smallest raises 10%.
    s4: every customer moves randomly within +/-10% at every peak state.
    Presets s1..s3 are scoped to the default analysis state.
    """
    key = name.strip().lower()
    if key not in PRESET_NAMES:
        raise ValueError(f"unknown preset {name!r}; expected one of {PRESET_NAMES}")
    if key == "s4":
        sc = random_dr_event(ds, 0.10, seed, symmetric=True)
        return replace(sc, label="s4")
    cols = ds.table.columns.get(Category.INDUSTRIAL)
    if cols is None:
        raise ValueError("presets need at least one industrial customer")
    # ranked by (base demand, id), so equal demands are told apart by id
    ranked = list(zip(ds.table.base[cols].tolist(), ds.table.ids_in(Category.INDUSTRIAL)))
    largest, smallest = max(ranked)[1], min(ranked)[1]
    if largest == smallest:
        raise ValueError("presets need two distinct industrial customers")
    moves = {
        "s1": {largest: +0.10, smallest: +0.10},
        "s2": {largest: -0.10, smallest: -0.10},
        "s3": {largest: -0.10, smallest: +0.10},
    }[key]
    return Scenario(label=key, perturbations=moves, scope=analysis_state(ds.profile))


def load_scenario(data: str | Mapping, ds: Dataset | None = None) -> Scenario:
    """Build a scenario from its JSON document (text or parsed object).

    Explicit mode carries the perturbations directly; random mode carries
    {max_reduction, seed, symmetric} and needs the dataset to draw against.
    Any other key than those of its mode, ``label``, ``mode`` and ``scope``
    is an error.
    """
    if isinstance(data, str):
        try:
            data = json.loads(data, object_pairs_hook=_unique_keys)
            repeat = _repeated_key(data)
        except json.JSONDecodeError as exc:
            raise ValueError(f"scenario document is not valid JSON: {exc}") from None
        except RecursionError:
            raise ValueError("scenario document is nested too deeply") from None
        if repeat:
            raise ValueError(f"scenario document repeats {repeat}")
    if not isinstance(data, Mapping):
        raise ValueError("scenario document must be a JSON object")
    mode = data.get("mode", "explicit")
    if mode not in ("explicit", "random"):
        raise ValueError(f"unknown scenario mode {mode!r}")
    used = ("max_reduction", "seed", "symmetric") if mode == "random" else ("perturbations",)
    unknown = set(data) - {"label", "mode", "scope", *used}
    if unknown:
        raise ValueError(f"unknown {mode} scenario keys: {sorted(unknown)}")
    label = data.get("label", "scenario")
    if not isinstance(label, str):
        raise ValueError(f"scenario field 'label' must be a string, got {label!r}")
    scope = data.get("scope", "peak")
    if isinstance(scope, str) and scope not in ("peak", "off_peak", "day"):
        raise ValueError(f"unknown scenario scope {scope!r}")
    if not isinstance(scope, (str, int)) or isinstance(scope, bool):
        raise ValueError("scenario scope must be a state index or window name")
    if isinstance(scope, int) and not 1 <= scope <= STATES_PER_DAY:
        raise ValueError(f"scenario field 'scope' must be in 1..{STATES_PER_DAY}, got {scope}")
    if mode == "random":
        if ds is None:
            raise ValueError("random scenarios need a dataset to draw against")
        seed = data.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            raise ValueError(f"scenario field 'seed' must be an integer >= 0, got {seed!r}")
        symmetric = data.get("symmetric", False)
        if not isinstance(symmetric, bool):
            raise ValueError(f"scenario field 'symmetric' must be true or false, got {symmetric!r}")
        max_reduction = _fraction(data.get("max_reduction", 0.15), "scenario field 'max_reduction'")
        sc = random_dr_event(ds, max_reduction, seed, symmetric)
        return replace(sc, label=label, scope=scope)
    raw = data.get("perturbations")
    if not isinstance(raw, Mapping):
        raise ValueError("explicit scenarios need a perturbations object")
    perturbations: dict[str, Perturbation] = {}
    for cid, value in raw.items():
        if isinstance(value, Mapping):
            try:
                states = list(map(int, value))
            except (TypeError, ValueError):
                raise ValueError(
                    f"per-state perturbations for {cid!r} must map state index to fraction"
                ) from None
            per_state = perturbations[str(cid)] = {}
            for t, e in zip(states, value.values()):
                if t in per_state:
                    raise ValueError(f"per-state perturbations for {cid!r} name state {t} twice")
                per_state[t] = _fraction(e, f"perturbation for {cid!r} at state {t}")
        else:
            perturbations[str(cid)] = _fraction(value, f"perturbation for {cid!r}")
    return Scenario(label=label, perturbations=perturbations, scope=scope)


def _fraction(value, what: str) -> float:
    """A JSON number that is finite and not a bool, as a float; otherwise a
    ValueError that names ``what``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} is not a number: {value!r}")
    if not -sys.float_info.max <= value <= sys.float_info.max:
        raise ValueError(f"{what} is not finite: {value}")
    return float(value)


def scenario_to_json(sc: Scenario) -> str:
    """Serialize a scenario to its canonical explicit-mode JSON document."""
    perturbations: dict[str, object] = {}
    for cid, p in sc.perturbations.items():
        if isinstance(p, Mapping):
            perturbations[cid] = {str(t): p[t] for t in sorted(p)}
        else:
            perturbations[cid] = p
    doc = {
        "label": sc.label,
        "mode": "explicit",
        "perturbations": perturbations,
        "scope": sc.scope,
    }
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"
