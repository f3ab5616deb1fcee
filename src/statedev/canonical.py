"""Canonical development diagrams: ordered states, timed arcs, object
distributions, and counter-based intensity analysis.

A diagram is a set of states totally ordered by its scale, development
arcs that climb the order and backstep arcs that fall, each carrying a
minimum residence delay expressed in ticks. Objects move along arcs one
transition at a time; the module enforces legality (right source state,
delay respected, inside the horizon) and records every move as an event,
from which per-arc counts and development and degradation intensity are
read back out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Mapping, NamedTuple, Sequence

from .errors import StatedevError


class ArcKind(Enum):
    DEV = "dev"
    BACK = "back"

    # Members are singletons, so identity hashing agrees with equality and
    # hashing an Arc makes no Python-level call for its kind.
    __hash__ = object.__hash__


class UnknownArcError(StatedevError):
    pass


class ObjectNotInFromStateError(StatedevError):
    pass


class TooEarlyError(StatedevError):
    pass


class BeyondHorizonError(StatedevError):
    pass


class WindowOutOfRangeError(StatedevError):
    pass


class ScriptOrderError(StatedevError):
    pass


@dataclass(frozen=True)
class Arc:
    src: str
    dst: str
    delta: int
    kind: ArcKind = ArcKind.DEV

    def __post_init__(self):
        if self.delta < 0:
            raise ValueError("arc delta must be >= 0")

    @property
    def sort_index(self) -> tuple:
        return (self.src, self.dst, self.delta, self.kind.value)


@dataclass(frozen=True)
class CanonicalDiagram:
    """Development diagram over the tick grid [0, horizon].

    The state list order is the scale order; scale_id names the scale
    that induced it when the diagram was authored against one. Arcs may
    violate the order discipline at construction time; validate_canonical
    reports rather than refuses, so broken models stay inspectable.

    `arcs` is the dev arcs, then the back arcs. The index their readers
    share is built on first use and kept: `position` (state -> place in
    the order), `arc_position` (arc -> first place in `arcs`) and
    `out_arcs` (state -> leaving arcs by destination position, delta, kind).
    """

    id: str
    states: tuple[str, ...]
    dev_arcs: tuple[Arc, ...]
    back_arcs: tuple[Arc, ...]
    initial: str
    final: str
    horizon: int
    scale_id: str | None = None
    labels: Mapping[str, str] = field(default_factory=dict)
    arcs: tuple[Arc, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(
            self, "dev_arcs", tuple(sorted(self.dev_arcs, key=lambda a: a.sort_index))
        )
        object.__setattr__(
            self, "back_arcs", tuple(sorted(self.back_arcs, key=lambda a: a.sort_index))
        )
        object.__setattr__(self, "arcs", self.dev_arcs + self.back_arcs)
        object.__setattr__(self, "labels", dict(self.labels))
        if not self.states:
            raise ValueError(f"diagram {self.id!r} has no states")
        if len(set(self.states)) != len(self.states):
            raise ValueError(f"diagram {self.id!r} has duplicate states")
        if self.horizon < 0:
            raise ValueError(f"diagram {self.id!r} has negative horizon")
        known = set(self.states)
        for name, value in (("initial", self.initial), ("final", self.final)):
            if value not in known:
                raise ValueError(f"diagram {self.id!r}: {name} state {value!r} unknown")
        for arc in self.dev_arcs:
            if arc.kind is not ArcKind.DEV:
                raise ValueError(f"diagram {self.id!r}: back arc listed under dev_arcs")
        for arc in self.back_arcs:
            if arc.kind is not ArcKind.BACK:
                raise ValueError(f"diagram {self.id!r}: dev arc listed under back_arcs")
        for arc in self.arcs:
            if arc.src not in known or arc.dst not in known:
                raise ValueError(
                    f"diagram {self.id!r}: arc {arc.src}->{arc.dst} references unknown state"
                )

    @cached_property
    def position(self) -> dict[str, int]:
        return {state: i for i, state in enumerate(self.states)}

    @cached_property
    def arc_position(self) -> dict[Arc, int]:
        where: dict[Arc, int] = {}
        for i, arc in enumerate(self.arcs):
            where.setdefault(arc, i)
        return where

    @cached_property
    def out_arcs(self) -> dict[str, tuple[Arc, ...]]:
        leaving: dict[str, list[Arc]] = {state: [] for state in self.states}
        for arc in sorted(self.arcs, key=lambda a: (self.position[a.dst], a.delta, a.kind.value)):
            leaving[arc.src].append(arc)
        return {state: tuple(arcs) for state, arcs in leaving.items()}


@dataclass(frozen=True)
class DiagramReport:
    """validate_canonical outcome; report-valued, never raises."""

    diagram_id: str
    order_violations: tuple[Arc, ...]
    delta_violations: tuple[Arc, ...]
    unreachable: tuple[str, ...]  # no dev-arc path from the initial state
    final_reachable: bool


def validate_canonical(d: CanonicalDiagram) -> DiagramReport:
    """Check the order discipline, delta ranges, and dev-arc reachability."""
    order_violations = []
    for arc in d.dev_arcs:
        if d.position[arc.src] >= d.position[arc.dst]:
            order_violations.append(arc)
    for arc in d.back_arcs:
        if d.position[arc.dst] >= d.position[arc.src]:
            order_violations.append(arc)
    delta_violations = [a for a in d.arcs if not 0 <= a.delta <= d.horizon]
    reached = {d.initial}
    frontier = [d.initial]
    while frontier:
        for arc in d.out_arcs[frontier.pop()]:
            if arc.kind is ArcKind.DEV and arc.dst not in reached:
                reached.add(arc.dst)
                frontier.append(arc.dst)
    unreachable = tuple(s for s in d.states if s not in reached)
    return DiagramReport(
        diagram_id=d.id,
        order_violations=tuple(order_violations),
        delta_violations=tuple(delta_violations),
        unreachable=unreachable,
        final_reachable=d.final in reached,
    )


class TransitionEvent(NamedTuple):
    object: str
    arc: Arc
    tick: int


def replay_script(
    d: CanonicalDiagram,
    initial: Mapping[str, tuple[str, int]],
    script: Sequence[tuple[str, Arc, int]],
) -> tuple[dict[str, tuple[str, int]], tuple[TransitionEvent, ...]]:
    """Move objects along a scripted transition list, one entry at a time.

    Each entry is (object, arc, tick) and is checked in this order: its
    tick must not fall below the previous entry's (ScriptOrderError), the
    arc must belong to the diagram (UnknownArcError), the tick must lie in
    [0, horizon] (BeyondHorizonError), the object must sit in the arc's
    source (ObjectNotInFromStateError), and it must have stayed there for
    the arc's delay (TooEarlyError). The first illegal entry raises;
    `initial`, a mapping object -> (state, entry tick), is never modified.
    Returns the final placement and one event per entry; arc counts are
    read back from the events.
    """
    arcs = d.arc_position
    # Ids of the script's arc objects found in the diagram, so each object
    # is hashed once; the script keeps them alive, so no id is reused.
    known: set[int] = set()
    assignment = dict(initial)
    events = []
    last_tick = None
    for obj, arc, tick in script:
        if last_tick is not None and tick < last_tick:
            raise ScriptOrderError(f"script ticks go backwards at tick {tick}")
        last_tick = tick
        if id(arc) not in known:
            if arc not in arcs:
                raise UnknownArcError(f"arc {arc.src}->{arc.dst} not in diagram {d.id!r}")
            known.add(id(arc))
        if not 0 <= tick <= d.horizon:
            raise BeyondHorizonError(f"tick {tick} outside [0, {d.horizon}]")
        entry = assignment.get(obj)
        if entry is None or entry[0] != arc.src:
            where = "nowhere" if entry is None else f"in {entry[0]!r}"
            raise ObjectNotInFromStateError(
                f"object {obj!r} is {where}, arc starts at {arc.src!r}"
            )
        if tick < entry[1] + arc.delta:
            raise TooEarlyError(
                f"object {obj!r} entered {arc.src!r} at {entry[1]}, "
                f"arc delay {arc.delta} blocks firing before {entry[1] + arc.delta}"
            )
        assignment[obj] = (arc.dst, tick)
        events.append(TransitionEvent(obj, arc, tick))
    return assignment, tuple(events)


@dataclass(frozen=True)
class IntensityReport:
    """Development/degradation intensity over a tick window."""

    diagram_id: str
    window: tuple[int, int]
    occupancy: Mapping[str, tuple[int, ...]]  # N_i(t) per state over the window
    arc_cumulative: Mapping[Arc, tuple[int, ...]]  # eta_ij(t), cumulative from 0
    development: int  # dev-arc events inside the window
    degradation: int  # back-arc events inside the window
    ratio: float | None  # development / degradation, None when degradation is 0
    reached: Mapping[str, int]  # occupancy at the window's end
    target_delta: Mapping[str, int] | None  # reached minus target, when a target is given


def intensity_report(
    history: Sequence[TransitionEvent],
    d: CanonicalDiagram,
    window: tuple[int, int],
    initial: Mapping[str, tuple[str, int]],
    target: Mapping[str, int] | None = None,
) -> IntensityReport:
    """Reconstruct N_i(t) and cumulative arc counters over a window.

    The target, when given, is a goal distribution (state -> object
    count); the report annotates the difference, it never enforces it.
    """
    t_lo, t_hi = int(window[0]), int(window[1])
    if t_lo > t_hi or t_lo < 0 or t_hi > d.horizon:
        raise WindowOutOfRangeError(f"window [{t_lo}, {t_hi}] outside [0, {d.horizon}]")
    position, where = d.position, d.arc_position
    # id of an event's arc object -> (source position, destination position,
    # arc position), resolved once per object; the history keeps them alive.
    steps: dict[int, tuple[int, int, int]] = {}
    by_tick: dict[int, list[tuple[int, int, int]]] = {}  # tick -> the steps of its events
    for ev in history:
        if not 0 <= ev.tick <= d.horizon:
            raise ValueError(f"event at tick {ev.tick} outside the diagram horizon")
        arc = ev.arc
        step = steps.get(id(arc))
        if step is None:
            i = where.get(arc)
            if i is None:
                raise ValueError(f"event arc {arc.src}->{arc.dst} not in diagram {d.id!r}")
            step = steps[id(arc)] = (position[arc.src], position[arc.dst], i)
        by_tick.setdefault(ev.tick, []).append(step)

    counts = [0] * len(d.states)
    for state, _ in initial.values():
        if state not in position:
            raise ValueError(f"initial distribution places objects on unknown state {state!r}")
        counts[position[state]] += 1
    cumulative = [0] * len(d.arcs)
    dev_count = len(d.dev_arcs)  # arcs before this position are dev arcs
    occupancy_rows, arc_rows = [], []  # one row of counts per tick in the window
    development = degradation = 0

    for t in range(0, t_hi + 1):
        for src, dst, i in by_tick.get(t, ()):
            counts[src] -= 1
            counts[dst] += 1
            cumulative[i] += 1
            if t_lo <= t:
                if i < dev_count:
                    development += 1
                else:
                    degradation += 1
        if t >= t_lo:
            occupancy_rows.append(tuple(counts))
            arc_rows.append(tuple(cumulative))

    arc_columns = list(zip(*arc_rows))
    reached = dict(zip(d.states, counts))
    target_delta = None
    if target is not None:
        target_delta = {
            state: reached[state] - int(target.get(state, 0)) for state in d.states
        }
    return IntensityReport(
        diagram_id=d.id,
        window=(t_lo, t_hi),
        occupancy=dict(zip(d.states, zip(*occupancy_rows))),
        arc_cumulative={arc: arc_columns[i] for arc, i in where.items()},
        development=development,
        degradation=degradation,
        ratio=(development / degradation) if degradation else None,
        reached=reached,
        target_delta=target_delta,
    )
