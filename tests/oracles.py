"""Exhaustive ground-truth oracles for the tests.

`enumerate_attainable_sequences` lists every legal joint execution of a
timed diagram set outright, and `execution_satisfies` decides whether one
of them visits a prescribed sequence in time: together the deliberately
dumb reference for `composition.check_consistency` on small instances.
`replay_events` checks that a scenario run's event log replays from the
scenario's initial configuration.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from statedev.canonical import Arc, CanonicalDiagram
from statedev.composition import PrescribedSequence, TimedDiagramSet, _sorted_arcs
from statedev.errors import StatedevError
from statedev.scenario import EventLogError, Scenario, Trajectory, initial_configuration


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
