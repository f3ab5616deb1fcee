"""Symbol-driven hierarchies: hypothesis diagrams, after-effect coupling,
deterministic scenario execution, and trajectory analysis.

A scenario wires one hypothesis diagram per subsystem of a rooted tree,
feeds them a time diagram of control symbols, and couples levels through
an after-effect scheme: general symbols fire coupled arcs that cascade
down parent-link tuples atomically, completed tuples fire their parent
arc upward, and prolonged silence triggers backstep arcs. Execution is
tick-deterministic; every state change is a logged event, and reports
are recounts of that log.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby
from typing import Iterator, Mapping, NamedTuple, Sequence, Union

from .errors import StatedevError


class ValidationFailedError(StatedevError):
    def __init__(self, report: "ScenarioValidationReport"):
        self.report = report
        head = report.violations[0] if report.violations else "invalid scenario"
        more = len(report.violations) - 1
        super().__init__(head + (f" (+{more} more)" if more > 0 else ""))


class HorizonExceededError(StatedevError):
    pass


class TrajectoryScenarioMismatchError(StatedevError):
    pass


class MissingScoreError(StatedevError):
    pass


class IncomparableReportsError(StatedevError):
    pass


class EventLogError(StatedevError):
    """The event log does not replay over the initial configuration."""


@dataclass(frozen=True)
class HypothesisDiagram:
    """States in development order; labeled arcs climb, back arcs drop."""

    id: str
    states: tuple[str, ...]
    initial: str
    final: str
    labeled_arcs: tuple[tuple[str, str, str], ...]  # (src, dst, symbol)
    back_arcs: tuple[tuple[str, str], ...] = ()
    alphabet: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(
            self, "labeled_arcs", tuple(tuple(a) for a in self.labeled_arcs)
        )
        object.__setattr__(self, "back_arcs", tuple(tuple(a) for a in self.back_arcs))
        object.__setattr__(self, "alphabet", frozenset(sym for _, _, sym in self.labeled_arcs))
        if not self.states:
            raise ValueError(f"diagram {self.id!r} has no states")
        if len(set(self.states)) != len(self.states):
            raise ValueError(f"diagram {self.id!r} has duplicate states")
        for s in (self.initial, self.final):
            if s not in self.states:
                raise ValueError(f"{s!r} is not a state of diagram {self.id!r}")
        for src, dst, _ in self.labeled_arcs:
            if src not in self.states or dst not in self.states:
                raise ValueError(f"arc ({src},{dst}) leaves the states of {self.id!r}")
        for src, dst in self.back_arcs:
            if src not in self.states or dst not in self.states:
                raise ValueError(f"back arc ({src},{dst}) leaves the states of {self.id!r}")

    @cached_property
    def position(self) -> dict[str, int]:
        return {state: i for i, state in enumerate(self.states)}


class ArcRef(NamedTuple):
    """One labeled arc instance, pinned to its subsystem; refs sort as tuples."""

    subsystem: str
    src: str
    dst: str
    symbol: str


@dataclass(frozen=True)
class AfterEffectScheme:
    """Partition of labeled arcs into isolated and coupled, of symbols
    into individual and general, plus the parent-link tuples driving
    downward and upward propagation, stored in parent order."""

    isolated: frozenset[ArcRef]
    coupled: frozenset[ArcRef]
    individual_symbols: frozenset[str]
    general_symbols: frozenset[str]
    parent_links: Mapping[ArcRef, tuple[ArcRef, ...]]
    upward_threshold: Union[int, str] = "all"

    def __post_init__(self):
        object.__setattr__(self, "isolated", frozenset(self.isolated))
        object.__setattr__(self, "coupled", frozenset(self.coupled))
        object.__setattr__(self, "individual_symbols", frozenset(self.individual_symbols))
        object.__setattr__(self, "general_symbols", frozenset(self.general_symbols))
        object.__setattr__(
            self,
            "parent_links",
            {k: tuple(v) for k, v in sorted(self.parent_links.items())},
        )

    def required_count(self, link: tuple[ArcRef, ...]) -> int:
        if self.upward_threshold == "all":
            return len(link)
        return int(self.upward_threshold)


@dataclass(frozen=True)
class HierarchicalStructure:
    """Rooted tree of subsystem ids; `preorder` lists them root first."""

    root: str
    children: Mapping[str, tuple[str, ...]]
    preorder: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "children", {k: tuple(v) for k, v in self.children.items()}
        )
        seen: set[str] = set()
        order: list[str] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node in seen:
                raise ValueError(f"subsystem {node!r} appears twice in the hierarchy")
            seen.add(node)
            order.append(node)
            stack.extend(reversed(self.children.get(node, ())))
        for parent in self.children:
            if parent not in seen:
                raise ValueError(f"children listed for unreachable subsystem {parent!r}")
        object.__setattr__(self, "preorder", tuple(order))


@dataclass(frozen=True)
class TimeDiagramEntry:
    tick: int
    target: Union[str, None]  # None broadcasts to every subsystem knowing the symbol
    symbol: str


@dataclass(frozen=True)
class Scenario:
    id: str
    diagrams: tuple[HypothesisDiagram, ...]
    hierarchy: HierarchicalStructure
    assignment: Mapping[str, str]  # subsystem id -> diagram id
    time_diagram: tuple[TimeDiagramEntry, ...]
    after_effect: AfterEffectScheme
    backstep_timeout: int = 1
    horizon: int = 0

    def __post_init__(self):
        # In id order, the order a model or trajectory file keys them in.
        object.__setattr__(self, "diagrams", tuple(sorted(self.diagrams, key=lambda d: d.id)))
        object.__setattr__(self, "assignment", dict(self.assignment))
        object.__setattr__(self, "time_diagram", tuple(self.time_diagram))
        by_id = {}
        for d in self.diagrams:
            if d.id in by_id:
                raise ValueError(f"duplicate diagram id {d.id!r}")
            by_id[d.id] = d
        object.__setattr__(self, "_by_id", by_id)

    def diagram_of(self, subsystem: str) -> HypothesisDiagram:
        return self._by_id[self.assignment[subsystem]]  # type: ignore[attr-defined]

    @cached_property
    def step_index(self) -> "StepIndex":
        """Built on first use, which `run_scenario` makes after validation."""
        return StepIndex(self)


@dataclass(frozen=True)
class ScenarioValidationReport:
    scenario_id: str
    violations: tuple[str, ...]
    warnings: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def validate_scenario(sc: Scenario) -> ScenarioValidationReport:
    """Check the full cross-structure wiring; report, never raise."""
    bad: list[str] = []
    warn: list[str] = []
    subs = sc.hierarchy.preorder
    ids = {d.id for d in sc.diagrams}

    for sub in subs:
        if sub not in sc.assignment:
            bad.append(f"subsystem {sub!r} has no assigned diagram")
        elif sc.assignment[sub] not in ids:
            bad.append(f"subsystem {sub!r} is assigned unknown diagram {sc.assignment[sub]!r}")
    for sub in sc.assignment:
        if sub not in subs:
            bad.append(f"assignment names unknown subsystem {sub!r}")
    first_sub: dict[str, str] = {}  # diagram id -> the first subsystem assigned it
    assigned = []  # the subsystems with a known diagram, in preorder
    for sub in subs:
        did = sc.assignment.get(sub)
        if did in ids:
            assigned.append(sub)
            if first_sub.setdefault(did, sub) != sub:
                bad.append(f"diagram {did!r} is assigned to both {first_sub[did]!r} and {sub!r}")
    for d in sc.diagrams:
        if d.id not in first_sub:
            warn.append(f"diagram {d.id!r} is not assigned to any subsystem")

    # Per-diagram arc discipline and per-(state, symbol) determinism; the
    # same walk collects the symbols, the labeled arcs and, for each
    # subsystem, the states reachable from its initial state.
    symbols: set[str] = set()
    all_arcs: set[ArcRef] = set()
    reach: dict[str, set[str]] = {}
    for sub in assigned:
        d = sc.diagram_of(sub)
        symbols |= d.alphabet
        pairs: set[tuple[str, str]] = set()
        edges: dict[str, list[str]] = {}
        for src, dst, sym in d.labeled_arcs:
            if d.position[src] >= d.position[dst]:
                bad.append(
                    f"{sub}: labeled arc ({src},{dst},{sym}) does not increase state order"
                )
            all_arcs.add(ArcRef(sub, src, dst, sym))
            pairs.add((src, dst))
            edges.setdefault(src, []).append(dst)
        for src, dst in d.back_arcs:
            if d.position[dst] >= d.position[src]:
                bad.append(f"{sub}: back arc ({src},{dst}) does not decrease state order")
            edges.setdefault(src, []).append(dst)
        for src, dst in d.back_arcs:
            if (src, dst) in pairs:
                bad.append(f"{sub}: arc ({src},{dst}) is both labeled and back")
        leaving: set[tuple[str, str]] = set()
        for src, _, sym in d.labeled_arcs:
            if (src, sym) in leaving:
                bad.append(f"{sub}: symbol {sym!r} leaves state {src!r} on two arcs")
            leaving.add((src, sym))
        seen = {d.initial}
        stack = [d.initial]
        while stack:
            for nxt in edges.get(stack.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        reach[sub] = seen

    # Time diagram entries.
    for i, entry in enumerate(sc.time_diagram):
        if entry.tick < 0:
            bad.append(f"time diagram entry {i} has negative tick {entry.tick}")
        if entry.target is None:
            if entry.symbol not in symbols:
                bad.append(
                    f"time diagram entry {i} broadcasts {entry.symbol!r}, known to no subsystem"
                )
        elif entry.target not in subs:
            bad.append(f"time diagram entry {i} targets unknown subsystem {entry.target!r}")
        elif entry.target in assigned and entry.symbol not in sc.diagram_of(entry.target).alphabet:
            bad.append(
                f"time diagram entry {i}: symbol {entry.symbol!r} is not in the alphabet of {entry.target!r}"
            )

    # After-effect partitions.
    ae = sc.after_effect
    for ref in sorted(all_arcs - ae.isolated - ae.coupled):
        bad.append(f"labeled arc {ref} is in neither the isolated nor the coupled set")
    for ref in sorted(ae.isolated & ae.coupled):
        bad.append(f"labeled arc {ref} is in both the isolated and the coupled set")
    for ref in sorted((ae.isolated | ae.coupled) - all_arcs):
        bad.append(f"after-effect scheme references unknown arc {ref}")
    for sym in sorted(symbols - ae.individual_symbols - ae.general_symbols):
        bad.append(f"symbol {sym!r} is neither individual nor general")
    for sym in sorted(ae.individual_symbols & ae.general_symbols):
        bad.append(f"symbol {sym!r} is both individual and general")
    for ref in sorted(all_arcs):
        if ref.symbol in ae.individual_symbols and ref not in ae.isolated:
            bad.append(f"arc {ref} carries individual symbol {ref.symbol!r} but is not isolated")
        if ref.symbol in ae.general_symbols and ref not in ae.coupled:
            bad.append(f"arc {ref} carries general symbol {ref.symbol!r} but is not coupled")

    # Parent links.
    for parent_ref, link in ae.parent_links.items():
        if parent_ref not in ae.coupled:
            bad.append(f"parent link key {parent_ref} is not a coupled arc")
        kids = set(sc.hierarchy.children.get(parent_ref.subsystem, ()))
        linked_subs = []
        for child_ref in link:
            if child_ref not in ae.coupled:
                bad.append(f"parent link of {parent_ref} references non-coupled arc {child_ref}")
            if child_ref.subsystem not in kids:
                bad.append(
                    f"parent link of {parent_ref} references {child_ref.subsystem!r}, "
                    f"not a child of {parent_ref.subsystem!r}"
                )
            linked_subs.append(child_ref.subsystem)
        if len(set(linked_subs)) != len(linked_subs):
            bad.append(f"parent link of {parent_ref} references one child subsystem twice")

    # Every coupled arc must be reachable from its diagram's initial state.
    for ref in sorted(ae.coupled & all_arcs):
        if ref.src not in reach[ref.subsystem]:
            bad.append(f"coupled arc {ref} starts in a state unreachable from the initial state")

    if ae.upward_threshold != "all":
        if not isinstance(ae.upward_threshold, int) or ae.upward_threshold < 1:
            bad.append(f"upward threshold must be 'all' or a positive integer, got {ae.upward_threshold!r}")
    if sc.backstep_timeout < 1:
        bad.append(f"backstep timeout must be at least 1 tick, got {sc.backstep_timeout}")
    if sc.horizon < 0:
        bad.append(f"horizon must be >= 0, got {sc.horizon}")

    # Double role: a general symbol scheduled directly at a subsystem whose
    # matching arcs also sit inside some parent-link tuple.
    linked = {
        (ref.subsystem, ref.symbol)
        for link in ae.parent_links.values()
        for ref in link
        if ref in all_arcs
    }
    flagged: set[tuple[str, str]] = set()
    for entry in sc.time_diagram:
        if entry.symbol not in ae.general_symbols:
            continue
        targets = [entry.target] if entry.target is not None else assigned
        for sub in targets:
            if (sub, entry.symbol) in linked and (sub, entry.symbol) not in flagged:
                flagged.add((sub, entry.symbol))
                warn.append(
                    f"general symbol {entry.symbol!r} is delivered directly to {sub!r} "
                    "although its arcs are already driven by a parent link"
                )

    return ScenarioValidationReport(sc.id, tuple(bad), tuple(warn))


def initial_configuration(sc: Scenario) -> dict[str, tuple[str, int]]:
    """A configuration maps each subsystem to (state, entry tick). The entry
    tick is the last activity, so it also runs the backstep clock."""
    return {sub: (sc.diagram_of(sub).initial, 0) for sub in sc.hierarchy.preorder}


class Delivery(NamedTuple):
    tick: int
    subsystem: str
    symbol: str
    symbol_kind: str  # "individual" | "general"
    effective: bool
    kind: str = "delivery"


class Firing(NamedTuple):
    tick: int
    subsystem: str
    src: str
    dst: str
    symbol: str
    cause: str  # "direct" | "downward-propagation" | "upward-propagation"
    kind: str = "firing"


class Backstep(NamedTuple):
    tick: int
    subsystem: str
    src: str
    dst: str
    kind: str = "backstep"


class Skipped(NamedTuple):
    """Downward propagation found the child outside the arc's source state."""

    tick: int
    subsystem: str
    src: str
    dst: str
    symbol: str
    actual_state: str
    kind: str = "skipped"


# Each event is a named tuple whose last field is its kind, so events of
# two kinds never compare equal and a record's fields are its JSON keys.
Event = Union[Delivery, Firing, Backstep, Skipped]

EVENT_KINDS: Mapping[str, type] = {
    cls._field_defaults["kind"]: cls for cls in (Delivery, Firing, Backstep, Skipped)
}


class StepIndex:
    """What `step` and `due_deliveries` look up, built once per scenario:

    - `fires`: (subsystem, state, symbol) -> the one arc of the symbol's
      pool that leaves the state; a delivery with none or several is
      ineffective, so it has no entry;
    - `links`: (parent arc, child arcs, required count) in `parent_links`
      order, which upward propagation passes over until a pass fires nothing;
    - `backsteps`: (subsystem, state) -> the target of the back arc with
      the smallest order drop, the first declared among equals;
    - `knowers`: symbol -> the subsystems whose alphabet holds it, in
      preorder, and `position`: subsystem -> its place in preorder.
    """

    __slots__ = ("fires", "links", "backsteps", "knowers", "position")

    def __init__(self, sc: Scenario):
        ae = sc.after_effect
        enabled: dict[tuple[str, str, str], list[ArcRef]] = {}
        knowers: dict[str, list[str]] = {}
        self.backsteps: dict[tuple[str, str], str] = {}
        for sub in sc.hierarchy.preorder:
            d = sc.diagram_of(sub)
            for arc in d.labeled_arcs:
                ref = ArcRef(sub, *arc)
                if ref in (ae.isolated if ref.symbol in ae.individual_symbols else ae.coupled):
                    enabled.setdefault((sub, ref.src, ref.symbol), []).append(ref)
            for symbol in d.alphabet:
                knowers.setdefault(symbol, []).append(sub)
            for here, _ in d.back_arcs:
                if (sub, here) not in self.backsteps:
                    drops = [(d.position[here] - d.position[dst], dst) for src, dst in d.back_arcs if src == here]
                    self.backsteps[sub, here] = min(drops, key=lambda drop: drop[0])[1]
        self.fires = {key: refs[0] for key, refs in enabled.items() if len(refs) == 1}
        self.knowers = {symbol: tuple(subs) for symbol, subs in knowers.items()}
        self.position = {sub: i for i, sub in enumerate(sc.hierarchy.preorder)}
        self.links = tuple((parent, link, ae.required_count(link)) for parent, link in ae.parent_links.items())


def due_deliveries(sc: Scenario) -> dict[int, list[tuple[str, str]]]:
    """The whole schedule, tick -> expanded (target, symbol) list:
    broadcasts fan out to every subsystem knowing the symbol; each tick's
    order is hierarchy preorder of the target, then declaration order."""
    index = sc.step_index
    due: dict[int, list[tuple[int, int, str, str]]] = {}
    for idx, entry in enumerate(sc.time_diagram):
        targets = (entry.target,) if entry.target is not None else index.knowers.get(entry.symbol, ())
        for sub in targets:
            due.setdefault(entry.tick, []).append((index.position[sub], idx, sub, entry.symbol))
    return {tick: [(sub, sym) for _, _, sub, sym in sorted(items)] for tick, items in due.items()}


def step(
    states: dict[str, tuple[str, int]],
    deliveries: Sequence[tuple[str, str]],
    sc: Scenario,
    tick: int,
) -> list[Event]:
    """One tick in place on the configuration `states`: deliver symbols,
    propagate upward, then backstep. Returns the tick's events."""
    ae = sc.after_effect
    index = sc.step_index
    events: list[Event] = []
    fired: set[ArcRef] = set()

    def fire(ref: ArcRef, cause: str) -> None:
        states[ref.subsystem] = (ref.dst, tick)
        fired.add(ref)
        events.append(Firing(tick, ref.subsystem, ref.src, ref.dst, ref.symbol, cause))

    def cascade_down(parent_ref: ArcRef) -> None:
        for child in ae.parent_links.get(parent_ref, ()):
            if states[child.subsystem][0] == child.src:
                fire(child, "downward-propagation")
                cascade_down(child)
            else:
                events.append(
                    Skipped(tick, child.subsystem, child.src, child.dst, child.symbol,
                            states[child.subsystem][0])
                )

    # Phase 1: deliveries in the given order.
    for target, symbol in deliveries:
        kind = "individual" if symbol in ae.individual_symbols else "general"
        ref = index.fires.get((target, states[target][0], symbol))
        events.append(Delivery(tick, target, symbol, kind, ref is not None))
        if ref is not None:
            fire(ref, "direct")
            if kind == "general":
                cascade_down(ref)

    # Phase 2: upward propagation, passing over the links until a pass fires nothing.
    changed = True
    while changed:
        changed = False
        for parent_ref, link, need in index.links:
            if parent_ref in fired or states[parent_ref.subsystem][0] != parent_ref.src:
                continue
            if sum(child in fired for child in link) >= need:
                fire(parent_ref, "upward-propagation")
                changed = True

    # Phase 3: backstep on prolonged silence.
    for sub in index.position:
        here, entered = states[sub]
        if tick - entered >= sc.backstep_timeout and (sub, here) in index.backsteps:
            dst = index.backsteps[sub, here]
            states[sub] = (dst, tick)
            events.append(Backstep(tick, sub, here, dst))

    return events


@dataclass(frozen=True)
class Trajectory:
    """A run as its event log; the configurations are folded from it."""

    scenario_id: str
    horizon: int
    initial: Mapping[str, tuple[str, int]]
    events: tuple[Event, ...]

    def fold(self, states: dict[str, tuple[str, int]]) -> Iterator[tuple[Event, ...]]:
        """Fold the logged firings and backsteps into `states` in place; after
        each tick 0..horizon-1, yield that tick's events. Raises
        EventLogError at an event that leaves a state its subsystem is not
        in, or that is out of tick order or past the horizon."""
        events = self.events
        i = 0
        for t in range(self.horizon):
            start = i
            while i < len(events) and events[i].tick == t:
                event = events[i]
                if event.kind in ("firing", "backstep"):
                    if states.get(event.subsystem, (None,))[0] != event.src:
                        raise EventLogError(f"event {i} leaves {event.src!r}, where "
                                            f"{event.subsystem!r} is not at tick {t}")
                    states[event.subsystem] = (event.dst, t)
                i += 1
            yield events[start:i]
        if i < len(events):
            raise EventLogError(f"event {i} is out of tick order or past the horizon")

    def configurations(self) -> Iterator[dict[str, tuple[str, int]]]:
        """The configuration after each tick 0..horizon-1."""
        states = dict(self.initial)
        for _ in self.fold(states):
            yield dict(states)

    def final_configuration(self) -> Mapping[str, tuple[str, int]]:
        states = dict(self.initial)
        for _ in self.fold(states):
            pass
        return states


def run_scenario(sc: Scenario, horizon: Union[int, None] = None) -> Trajectory:
    """Fold step over the tick grid 0..horizon-1."""
    report = validate_scenario(sc)
    if not report.passed:
        raise ValidationFailedError(report)
    h = sc.horizon if horizon is None else horizon
    if h < 0:
        raise HorizonExceededError(f"horizon must be >= 0, got {h}")
    late = [e for e in sc.time_diagram if e.tick >= h]
    if late:
        raise HorizonExceededError(
            f"time diagram schedules tick {late[0].tick} beyond horizon {h}"
        )
    initial = initial_configuration(sc)
    states = dict(initial)
    due = due_deliveries(sc)
    events: list[Event] = []
    for t in range(h):
        events.extend(step(states, due.get(t, ()), sc, t))
    return Trajectory(sc.id, h, initial, tuple(events))


ScoreTable = Mapping[str, Mapping[str, float]]  # subsystem -> state -> score


@dataclass(frozen=True)
class EfficiencySeries:
    per_subsystem: Mapping[str, tuple[float, ...]]
    aggregate: tuple[float, ...]


@dataclass(frozen=True)
class ScenarioReport:
    scenario_id: str
    horizon: int
    subsystems: tuple[str, ...]
    complete: bool
    non_final: tuple[str, ...]
    redundancy_incidents: tuple[tuple[str, tuple[int, ...]], ...]
    backstep_counts: Mapping[str, int]
    backstep_total: int
    backstep_frequency: float
    coupled_counts: Mapping[str, int]
    coupled_total: int
    coupled_frequency: float
    propagation_counts: Mapping[str, int]
    efficiency: Union[EfficiencySeries, None] = None


def analyze_trajectory(
    tr: Trajectory, sc: Scenario, scores: Union[ScoreTable, None] = None
) -> ScenarioReport:
    """Recount the event log into the scenario quality figures, in one fold
    that also replays the log. A log that does not replay raises
    EventLogError, and is named before a trajectory that does not fit the
    scenario, a score table that lacks a state of a diagram, an initial
    state outside its subsystem's diagram, or a logged firing or backstep
    along an arc that diagram does not have."""
    subs = sc.hierarchy.preorder
    unfit: Union[StatedevError, None] = None
    if tr.scenario_id != sc.id:
        unfit = TrajectoryScenarioMismatchError(f"trajectory belongs to {tr.scenario_id!r}, not {sc.id!r}")
    elif set(tr.initial) != set(subs):
        unfit = TrajectoryScenarioMismatchError("trajectory subsystems differ from the scenario's")
    elif scores is not None:
        unfit = next((MissingScoreError(f"no score for state {state!r} of {sub!r}")
                      for sub in subs for state in sc.diagram_of(sub).states
                      if state not in scores.get(sub, ())), None)
    if unfit is not None:
        tr.final_configuration()
        raise unfit

    # One fold gives the final configuration, the counts and the efficiency
    # series: w(t) per subsystem (score of the state held after tick t) and
    # the per-tick sum across subsystems in sorted order. `row` holds the
    # current scores and changes only where a subsystem moves. An initial
    # state outside its diagram, else the first move along an arc the
    # diagram does not have, is reported once the whole log replays.
    scored = tuple(sorted(subs))
    column = {sub: i for i, sub in enumerate(scored)}
    states = dict(tr.initial)
    stray = next((f"state {state!r} of {sub!r} is not a state of its diagram"
                  for sub, (state, _) in states.items() if state not in sc.diagram_of(sub).position), None)
    labeled = {sub: frozenset(sc.diagram_of(sub).labeled_arcs) for sub in subs}
    back = {sub: frozenset(sc.diagram_of(sub).back_arcs) for sub in subs}
    row = None if scores is None else [scores[sub].get(states[sub][0]) for sub in scored]
    rows: list[tuple[float, ...]] = []
    delivered: dict[str, dict[str, list[int]]] = {}
    backsteps: dict[str, int] = {sub: 0 for sub in subs}
    coupled: dict[str, int] = {sub: 0 for sub in subs}
    propagated: dict[str, int] = {sub: 0 for sub in subs}
    coupled_arcs = sc.after_effect.coupled
    for tick_events in tr.fold(states):
        for event in tick_events:
            kind = event.kind
            if kind == "delivery":
                delivered.setdefault(event.subsystem, {}).setdefault(event.symbol_kind, []).append(event.tick)
                continue
            if kind == "skipped":
                continue
            sub = event.subsystem
            if kind == "backstep":
                backsteps[sub] += 1
                if stray is None and event[2:4] not in back[sub]:  # (src, dst)
                    stray = f"backstep {event.src}->{event.dst} of {sub!r} is not an arc of its diagram"
            else:
                coupled[sub] += event[1:5] in coupled_arcs  # (subsystem, src, dst, symbol)
                propagated[sub] += event.cause != "direct"
                if stray is None and event[2:5] not in labeled[sub]:  # (src, dst, symbol)
                    stray = (f"firing {event.src}->{event.dst} on {event.symbol!r} of {sub!r} "
                             "is not an arc of its diagram")
            if row is not None:
                row[column[sub]] = scores[sub].get(event.dst)
        if row is not None:
            rows.append(tuple(row))
    if stray is not None:
        raise TrajectoryScenarioMismatchError(stray)
    non_final = tuple(sub for sub in subs if states[sub][0] != sc.diagram_of(sub).final)

    incidents = []
    for sub in subs:
        kinds = delivered.get(sub, {})
        if kinds.get("individual") and kinds.get("general"):
            ticks = sorted(set(kinds["individual"]) | set(kinds["general"]))
            incidents.append((sub, tuple(ticks)))

    efficiency = None
    if row is not None:
        per = dict(zip(scored, zip(*rows))) if rows else {sub: () for sub in scored}
        efficiency = EfficiencySeries(per, tuple(map(sum, rows)))

    back_total = sum(backsteps.values())
    coupled_total = sum(coupled.values())
    h = max(tr.horizon, 1)
    return ScenarioReport(
        scenario_id=sc.id,
        horizon=tr.horizon,
        subsystems=subs,
        complete=not non_final,
        non_final=non_final,
        redundancy_incidents=tuple(incidents),
        backstep_counts=backsteps,
        backstep_total=back_total,
        backstep_frequency=back_total / h,
        coupled_counts=coupled,
        coupled_total=coupled_total,
        coupled_frequency=coupled_total / h,
        propagation_counts=propagated,
        efficiency=efficiency,
    )


def compare_scenarios(reports: Sequence[ScenarioReport]) -> tuple[tuple[str, ...], ...]:
    """Group scenario ids best first; ids sharing a group are declared ties.
    Rank lexicographically: completeness, then final aggregate efficiency
    (missing series counts as 0), then fewer backsteps, then fewer
    redundancy incidents."""
    if len(reports) < 2:
        raise ValueError("need at least two reports to compare")
    base = set(reports[0].subsystems)
    for r in reports[1:]:
        if set(r.subsystems) != base:
            raise IncomparableReportsError(
                f"{r.scenario_id!r} covers different subsystems than {reports[0].scenario_id!r}"
            )

    def key(r: ScenarioReport) -> tuple:
        final_eff = 0.0
        if r.efficiency is not None and r.efficiency.aggregate:
            final_eff = r.efficiency.aggregate[-1]
        return (0 if r.complete else 1, -final_eff, r.backstep_total,
                len(r.redundancy_incidents))

    ordered = sorted(reports, key=key)
    return tuple(tuple(r.scenario_id for r in tied) for _, tied in groupby(ordered, key))
