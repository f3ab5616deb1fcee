"""Exhaustive ground-truth oracles for the tests.

`enumerate_attainable_sequences` lists every legal joint execution of a
timed diagram set outright, and `execution_satisfies` decides whether one
of them visits a prescribed sequence in time: together the deliberately
dumb reference for `composition.check_consistency` on small instances.
`replay_events` checks that a scenario run's event log replays from the
scenario's initial configuration, and `reference_run` is the copy-per-step
stepper that `scenario.run_scenario` must agree with event for event.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from statedev.canonical import Arc, CanonicalDiagram
from statedev.composition import PrescribedSequence, TimedDiagramSet, _sorted_arcs
from statedev.errors import StatedevError
from statedev.scenario import (
    ArcRef,
    Backstep,
    Delivery,
    Event,
    EventLogError,
    Firing,
    Scenario,
    Skipped,
    Trajectory,
    initial_configuration,
)


class SpaceBoundExceededError(StatedevError):
    pass


def _diagram_executions(
    d: CanonicalDiagram, last_tick: int, bound: int, sink: list
) -> list[tuple[tuple[int, Arc], ...]]:
    """All legal single-token executions with firing ticks <= last_tick.

    Executions revisiting a state within one tick are skipped: they only
    oscillate without adding occupancy, and cannot occur at all when
    every cycle-closing arc carries a nonzero delay.
    """
    arcs = _sorted_arcs(d)
    out: list[tuple[tuple[int, Arc], ...]] = []

    def rec(state: str, entered: int, prefix: list, tick_seen: set, last_fire: int):
        out.append(tuple(prefix))
        if len(out) + len(sink) > bound:
            raise SpaceBoundExceededError(
                f"execution count exceeds the configured bound {bound}"
            )
        for arc in arcs:
            if arc.src != state:
                continue
            earliest = max(entered + arc.delta, last_fire)
            for t in range(earliest, last_tick + 1):
                if t == last_fire:
                    if arc.dst in tick_seen:
                        continue
                    seen = tick_seen | {arc.dst}
                else:
                    seen = {state, arc.dst}
                prefix.append((t, arc))
                rec(arc.dst, t, prefix, seen, t)
                prefix.pop()

    rec(d.initial, 0, [], {d.initial}, 0)
    return out


def enumerate_attainable_sequences(
    dset: TimedDiagramSet, horizon: int, bound: int = 200_000
) -> list[tuple[tuple[tuple[int, Arc], ...], ...]]:
    """Every legal joint execution up to the horizon, exhaustively.

    A joint execution is one execution per diagram (diagrams do not
    interact); the result is their cross product. Ground truth for
    check_consistency on small instances; SpaceBoundExceededError
    guards against explosion.
    """
    per_diagram = []
    sink: list = []
    for d, tau in zip(dset.diagrams, dset.intervals):
        execs = _diagram_executions(d, min(tau, horizon), bound, sink)
        sink.extend([None] * len(execs))
        per_diagram.append(execs)
    total = 1
    for execs in per_diagram:
        total *= len(execs)
        if total > bound:
            raise SpaceBoundExceededError(
                f"joint execution count exceeds the configured bound {bound}"
            )
    return [tuple(combo) for combo in itertools.product(*per_diagram)]


def _tick_orderings(groups: list[list]) -> Iterable[tuple]:
    """All merges of the per-diagram event lists preserving each list's order."""
    if all(not g for g in groups):
        yield ()
        return
    for i, g in enumerate(groups):
        if not g:
            continue
        head, rest = g[0], g[1:]
        shrunk = groups[:i] + [rest] + groups[i + 1 :]
        for tail in _tick_orderings(shrunk):
            yield (head,) + tail


def execution_satisfies(
    dset: TimedDiagramSet,
    joint: tuple[tuple[tuple[int, Arc], ...], ...],
    seq: PrescribedSequence,
) -> bool:
    """Whether some same-tick interleaving of the joint execution visits
    the prescribed entries in order by their deadlines."""
    entries = seq.entries
    if not entries:
        return True
    horizon = entries[-1].deadline
    n = len(dset.diagrams)
    per_tick: dict[int, list[list[tuple[int, Arc]]]] = {}
    for di, events in enumerate(joint):
        for tick, arc in events:
            if tick > horizon:
                break
            per_tick.setdefault(tick, [[] for _ in range(n)])[di].append((di, arc))

    def walk(ordering_by_tick: dict[int, tuple]) -> bool:
        states = [d.initial for d in dset.diagrams]
        k = 0
        for t in range(0, horizon + 1):
            while (
                k < len(entries)
                and entries[k].deadline >= t
                and states[entries[k].diagram] == entries[k].state
            ):
                k += 1
            if k == len(entries):
                return True
            if entries[k].deadline < t:
                return False
            for di, arc in ordering_by_tick.get(t, ()):
                states[di] = arc.dst
                while (
                    k < len(entries)
                    and entries[k].deadline >= t
                    and states[entries[k].diagram] == entries[k].state
                ):
                    k += 1
                if k == len(entries):
                    return True
        return k == len(entries)

    ticks = sorted(per_tick)
    option_lists = [list(_tick_orderings(per_tick[t])) for t in ticks]
    for combo in itertools.product(*option_lists):
        if walk({t: ordering for t, ordering in zip(ticks, combo)}):
            return True
    return False


def replay_events(tr: Trajectory, sc: Scenario) -> bool:
    """Whether the log replays from the scenario's initial configuration:
    every firing and backstep leaves the state the fold holds, in tick
    order inside the horizon."""
    try:
        tr.final_configuration()
    except EventLogError:
        return False
    return tr.initial == initial_configuration(sc)


def reference_due(sc: Scenario, tick: int) -> list[tuple[str, str]]:
    """Expanded (target, symbol) list for one tick, by a scan of the whole
    time diagram: broadcasts fan out to every subsystem knowing the
    symbol; order is hierarchy preorder of the target, then declaration
    order."""
    pre = {sub: i for i, sub in enumerate(sc.subsystems())}
    out: list[tuple[int, int, str, str]] = []
    for idx, entry in enumerate(sc.time_diagram):
        if entry.tick != tick:
            continue
        if entry.target is not None:
            out.append((pre[entry.target], idx, entry.target, entry.symbol))
        else:
            for sub in sc.subsystems():
                if entry.symbol in sc.diagram_of(sub).alphabet:
                    out.append((pre[sub], idx, sub, entry.symbol))
    out.sort(key=lambda item: (item[0], item[1]))
    return [(sub, sym) for _, _, sub, sym in out]


def reference_step(
    config: dict, deliveries: list[tuple[str, str]], sc: Scenario, tick: int
) -> tuple[dict, tuple[Event, ...]]:
    """One tick on a copy of the configuration: deliver symbols, propagate
    upward, then backstep."""
    ae = sc.after_effect
    states = dict(config)
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

    for target, symbol in deliveries:
        d = sc.diagram_of(target)
        here = states[target][0]
        pool = ae.isolated if symbol in ae.individual_symbols else ae.coupled
        kind = "individual" if symbol in ae.individual_symbols else "general"
        enabled = [
            ArcRef(target, src, dst, sym)
            for src, dst, sym in d.labeled_arcs
            if sym == symbol and src == here and ArcRef(target, src, dst, sym) in pool
        ]
        if len(enabled) != 1:
            events.append(Delivery(tick, target, symbol, kind, False))
            continue
        events.append(Delivery(tick, target, symbol, kind, True))
        fire(enabled[0], "direct")
        if kind == "general":
            cascade_down(enabled[0])

    parent_refs = sorted(ae.parent_links)
    changed = True
    while changed:
        changed = False
        for parent_ref in parent_refs:
            if parent_ref in fired:
                continue
            link = ae.parent_links[parent_ref]
            done = sum(1 for child in link if child in fired)
            if done < ae.required_count(link):
                continue
            if states[parent_ref.subsystem][0] != parent_ref.src:
                continue
            fire(parent_ref, "upward-propagation")
            changed = True

    for sub in sc.subsystems():
        if tick - states[sub][1] < sc.backstep_timeout:
            continue
        d = sc.diagram_of(sub)
        here = states[sub][0]
        options = [(src, dst) for src, dst in d.back_arcs if src == here]
        if not options:
            continue
        src, dst = min(options, key=lambda arc: d.order(arc[0]) - d.order(arc[1]))
        states[sub] = (dst, tick)
        events.append(Backstep(tick, sub, src, dst))

    return states, tuple(events)


def reference_run(sc: Scenario) -> tuple[list[dict], tuple[Event, ...]]:
    """The configuration after each tick 0..horizon-1 and the event log,
    one reference_step per tick."""
    config = initial_configuration(sc)
    configs: list[dict] = []
    events: list[Event] = []
    for tick in range(sc.horizon):
        config, new = reference_step(config, reference_due(sc, tick), sc, tick)
        configs.append(config)
        events.extend(new)
    return configs, tuple(events)
