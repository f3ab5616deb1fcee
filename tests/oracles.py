"""Exhaustive ground-truth oracles for the tests.

`enumerate_attainable_sequences` lists every legal joint execution of a
timed diagram set outright, and `execution_satisfies` decides whether one
of them visits a prescribed sequence in time: together the deliberately
dumb reference for `composition.check_consistency` on small instances.
`replay_events` checks that a scenario run's event log replays from the
scenario's initial configuration, and `reference_run` is the copy-per-step
stepper that `scenario.run_scenario` must agree with event for event.
`evaluate` is the tree-walking predicate evaluator that every compiled
predicate must agree with, and `reference_classify_series` and
`reference_parallel_profile` are the trend classifier and the profile that
fold every series twice and search every cycle period directly, one
`reference_estimate_state` per step: the estimator's rule written out case
by case, which `estimate_state` must agree with. The reference profile
cuts its per-tick rows into runs with `runs_of_states`, and
`reference_profile_rows` builds the profile report's rows as a tree of
dicts, one per tick and cell, which the row text of `cli._profile_rows`
must encode to byte for byte.
`reference_intensity_report` is the intensity report that keys its counters
by arc, which `canonical.intensity_report` must agree with, and
`sorted_arcs` the arc order that `check_consistency` expands in.
`covering_check_consistency` is the covering search that keeps every clock
vector that no frontier node with the same states and prefix covers, where
`check_consistency` keeps one node per states and prefix; their whole
verdicts must be equal, and the oracle can record each tick where it keeps
two clock vectors for one states and prefix.
`reference_read_series_csv` is the row-by-row series CSV reader that the
column-wise `cli._read_series_csv` must agree with, and
`reference_sample_assignments` the sampler that tests each declaration's
kind per name per sample, which `statespace.sample_assignments` must draw
exactly as. `reference_validate_scale_disjointness` and
`reference_validate_classificator` are the soundness checks on sampled
points; every fault they sample must lie in a cell, as
`reference_cell_key` names it, where the checks on cells find it.
`reference_serialize_trajectory` and `reference_write_events_csv` write a
run as the whole JSON object and as `csv.writer` rows, which the template
writers must match byte for byte; `reference_read_events` and
`reference_read_time_diagram` read the event log and the time diagram
record by record, and the loader's exact-type paths must give the same
records and the same issues.
"""

from __future__ import annotations

import bisect
import csv
import itertools
import random
from typing import Iterable, Mapping, Sequence, get_type_hints

from statedev import dynamics, modelfile
from statedev.canonical import (
    Arc,
    ArcKind,
    CanonicalDiagram,
    IntensityReport,
    TransitionEvent,
    WindowOutOfRangeError,
)
from statedev.composition import (
    ConsistencyVerdict,
    PrescribedSequence,
    ScheduledFiring,
    TimedDiagramSet,
    _validate_refs,
)
from statedev.dynamics import (
    DynamicsKind,
    DynamicsState,
    EmptyOverlapError,
    ParallelProfile,
    ParameterSeries,
    SeriesTooShortError,
    TrendClass,
    _direction,
)
from statedev.errors import IncomparableValuesError, MissingParameterError, StatedevError
from statedev.predicates import And, Comparison, Name, Node, Not, Number, Text
from statedev.reports import canonical_json
from statedev.scenario import (
    EVENT_KINDS,
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
from statedev.statespace import (
    Classificator,
    DisjointnessReport,
    MissingParameterRangeError,
    Parameters,
    RefinementReport,
    SampleSpec,
    Scale,
    State,
    _evaluate_scale,
    _orders,
    _sampled_names,
)


class SpaceBoundExceededError(StatedevError):
    pass


def sorted_arcs(d: CanonicalDiagram) -> tuple[Arc, ...]:
    """Every arc by (order of src, order of dst, delta, kind)."""
    return tuple(
        sorted(
            d.arcs,
            key=lambda a: (d.states.index(a.src), d.states.index(a.dst), a.delta, a.kind.value),
        )
    )


def _diagram_executions(
    d: CanonicalDiagram, last_tick: int, bound: int, sink: list
) -> list[tuple[tuple[int, Arc], ...]]:
    """All legal single-token executions with firing ticks <= last_tick.

    Executions revisiting a state within one tick are skipped: they only
    oscillate without adding occupancy, and cannot occur at all when
    every cycle-closing arc carries a nonzero delay.
    """
    arcs = sorted_arcs(d)
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


def covering_check_consistency(
    dset: TimedDiagramSet, seq: PrescribedSequence, kept_twice: list | None = None
) -> ConsistencyVerdict:
    """The covering search, kept as the reference the whole verdict of
    `composition.check_consistency` must equal. It keeps a node unless a
    frontier node with the same states and prefix has clocks at least as
    large, so it may keep several clock vectors for one (states, k) where
    `check_consistency` keeps the first node only. It ages every carried
    node's clocks, walks it per diagram and builds a `ScheduledFiring` for
    every node it finds; the search it replaced, over absolute entry ticks,
    is `reference_check_consistency` in tests/test_composition.py.

    Given a list as `kept_twice`, it appends (tick, states, k, clocks) each
    time it keeps a second or later clock vector for one (states, k) at one
    tick, clocks being all the vectors it then keeps for that key."""
    _validate_refs(dset, seq)
    entries = seq.entries
    if not entries:
        return ConsistencyVerdict(True, (), (), None)
    horizon = entries[-1].deadline
    n = len(dset.diagrams)
    limits = [min(tau, horizon) for tau in dset.intervals]
    arcs_from = [d.out_arcs for d in dset.diagrams]
    # A clock at its state's cap enables every arc leaving that state.
    caps = [
        {s: max((a.delta for a in arcs), default=0) for s, arcs in by_src.items()}
        for by_src in arcs_from
    ]

    def claim(states: Sequence[str], k: int, tick: int) -> int:
        while (
            k < len(entries)
            and entries[k].deadline >= tick
            and states[entries[k].diagram] == entries[k].state
        ):
            k += 1
        return k

    # steps[i] is (parent index, firing) of the i-th node found; node 0 is
    # the start. Node keys change as clocks tick, so parents go by index.
    steps: list = [None]

    def finish(i: int) -> ConsistencyVerdict:
        firings = []
        while steps[i] is not None:
            i, firing = steps[i]
            firings.append(firing)
        firings.reverse()
        # Recompute claim ticks along the witness.
        states = [d.initial for d in dset.diagrams]
        k = claim(states, 0, 0)
        ticks = [0] * k
        for f in firings:
            states[f.diagram] = f.arc.dst
            nk = claim(states, k, f.tick)
            ticks += [f.tick] * (nk - k)
            k = nk
        return ConsistencyVerdict(True, tuple(firings), tuple(ticks), None)

    start = tuple(d.initial for d in dset.diagrams)
    best_k = claim(start, 0, 0)
    if best_k == len(entries):
        return finish(0)
    # (states, clocks, k, index in steps, clocks at the last expansion);
    # None marks a node found in this tick, which fires every enabled arc.
    frontier = [(start, (0,) * n, best_k, 0, None)]
    passed = {(start, best_k): [(0,) * n]}  # (states, k) -> clocks of frontier nodes
    for t in range(0, horizon + 1):
        if t:
            passed, aged = {}, []
            for states, ages, k, i, _ in frontier:
                if entries[k].deadline >= t:
                    now = tuple(
                        min(a + 1, caps[di][s]) for di, (s, a) in enumerate(zip(states, ages))
                    )
                    seen = passed.setdefault((states, k), [])
                    if now not in seen:  # the node found first stays
                        seen.append(now)
                        if kept_twice is not None and len(seen) > 1:
                            kept_twice.append((t, states, k, tuple(seen)))
                        aged.append((states, now, k, i, ages))
            if all(now == before for _, now, _, _, before in aged):
                break  # every clock is capped: nothing fires again
            frontier = aged
        for states, ages, k, i, before in frontier:  # grows while it is walked
            for di in range(n):
                lo = -1 if before is None else before[di]
                if t > limits[di] or lo == ages[di]:
                    continue
                for arc in arcs_from[di][states[di]]:
                    if not lo < arc.delta <= ages[di]:
                        continue
                    ns = states[:di] + (arc.dst,) + states[di + 1 :]
                    nk = claim(ns, k, t)
                    if nk > best_k:
                        best_k = nk
                    if nk < len(entries) and entries[nk].deadline < t:
                        continue  # dead branch: its next entry already expired
                    na = ages[:di] + (0,) + ages[di + 1 :]
                    seen = passed.setdefault((ns, nk), [])
                    if any(all(x >= y for x, y in zip(v, na)) for v in seen):
                        continue  # covered: that node may wait and fire as this one
                    steps.append((i, ScheduledFiring(t, di, arc)))
                    if nk == len(entries):
                        return finish(len(steps) - 1)
                    seen.append(na)
                    if kept_twice is not None and len(seen) > 1:
                        kept_twice.append((t, ns, nk, tuple(seen)))
                    frontier.append((ns, na, nk, len(steps) - 1, None))
    return ConsistencyVerdict(False, None, None, best_k + 1)



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
    pre = {sub: i for i, sub in enumerate(sc.hierarchy.preorder)}
    out: list[tuple[int, int, str, str]] = []
    for idx, entry in enumerate(sc.time_diagram):
        if entry.tick != tick:
            continue
        if entry.target is not None:
            out.append((pre[entry.target], idx, entry.target, entry.symbol))
        else:
            for sub in sc.hierarchy.preorder:
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

    for sub in sc.hierarchy.preorder:
        if tick - states[sub][1] < sc.backstep_timeout:
            continue
        d = sc.diagram_of(sub)
        here = states[sub][0]
        options = [(src, dst) for src, dst in d.back_arcs if src == here]
        if not options:
            continue
        src, dst = min(options, key=lambda arc: d.position[arc[0]] - d.position[arc[1]])
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


# Resolved operand forms: ("num", float), ("text", str),
# ("rank", index, levels) for values placed in a declared order.
def _resolve_chain(comp: Comparison, assignment, orders):
    orders = orders or {}
    resolved: list = [None] * len(comp.operands)
    chain_orders: list[tuple[str, ...]] = []
    for idx, op in enumerate(comp.operands):
        if isinstance(op, Number):
            resolved[idx] = ("num", op.value)
        elif isinstance(op, Text):
            resolved[idx] = ("text", op.value)
        elif op.ident in assignment:
            value = assignment[op.ident]
            levels = orders.get(op.ident)
            if levels is not None:
                levels = tuple(levels)
                if value not in levels:
                    raise IncomparableValuesError(
                        f"value {value!r} is not a level of parameter {op.ident!r}"
                    )
                resolved[idx] = ("rank", levels.index(value), levels)
                chain_orders.append(levels)
            elif isinstance(value, str):
                resolved[idx] = ("text", value)
            elif isinstance(value, bool) or not isinstance(value, (int, float)):
                raise IncomparableValuesError(
                    f"parameter {op.ident!r} has non-comparable value {value!r}"
                )
            else:
                resolved[idx] = ("num", float(value))
        else:
            levels = orders.get(op.ident)
            if levels is not None:
                chain_orders.append(tuple(levels))
    missing = []
    for idx, op in enumerate(comp.operands):
        if resolved[idx] is not None:
            continue
        # Unbound name: try it as a level of an ordered parameter in this chain.
        hit = None
        for levels in chain_orders:
            if op.ident in levels:
                hit = ("rank", levels.index(op.ident), levels)
                break
        if hit is None:
            missing.append(op.ident)
        else:
            resolved[idx] = hit
    if missing:
        raise MissingParameterError(missing)
    return resolved


_NUM_CMP = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    "=": lambda a, b: a == b,
    ">=": lambda a, b: a >= b,
    ">": lambda a, b: a > b,
}


def _compare(op: str, left, right) -> bool:
    lk, rk = left[0], right[0]
    if lk == "num" and rk == "num":
        return _NUM_CMP[op](left[1], right[1])
    if lk == "rank" and rk == "text":
        right = _text_to_rank(right[1], left[2])
        rk = "rank"
    elif lk == "text" and rk == "rank":
        left = _text_to_rank(left[1], right[2])
        lk = "rank"
    if lk == "rank" and rk == "rank":
        if left[2] != right[2]:
            raise IncomparableValuesError("values belong to different level orders")
        return _NUM_CMP[op](left[1], right[1])
    if lk == "text" and rk == "text":
        if op == "=":
            return left[1] == right[1]
        raise IncomparableValuesError(
            f"operator {op!r} needs a declared level order for string values"
        )
    raise IncomparableValuesError("cannot compare a number with a categorical value")


def _text_to_rank(text: str, levels: tuple[str, ...]):
    if text not in levels:
        raise IncomparableValuesError(f"{text!r} is not a level of the declared order")
    return ("rank", levels.index(text), levels)


def evaluate(
    node: Node,
    assignment: Mapping[str, object],
    orders: Mapping[str, Sequence[str]] | None = None,
) -> bool:
    """Evaluate against a parameter assignment.

    orders maps ordinal parameter names to their level list, lowest
    first. Raises MissingParameterError / IncomparableValuesError.
    """
    if isinstance(node, Comparison):
        resolved = _resolve_chain(node, assignment, orders)
        return all(
            _compare(op, resolved[i], resolved[i + 1]) for i, op in enumerate(node.ops)
        )
    if isinstance(node, Not):
        return not evaluate(node.item, assignment, orders)
    if isinstance(node, And):
        return all(evaluate(item, assignment, orders) for item in node.items)
    return any(evaluate(item, assignment, orders) for item in node.items)


def reference_estimate_state(prev: DynamicsState, x_prev, x_curr, epsilon: float = 0.0) -> DynamicsState:
    """One estimation step, the rule written out case by case."""
    d = _direction(x_prev, x_curr, epsilon)
    if d == 0:
        streak = prev.streak + 1 if prev.kind is DynamicsKind.STEADY else 1
        return DynamicsState(DynamicsKind.STEADY, streak)
    if d > 0:
        if prev.kind is DynamicsKind.GROWTH:
            return DynamicsState(DynamicsKind.GROWTH, prev.streak + 1)
        if prev.kind in (DynamicsKind.DECLINE, DynamicsKind.TURN_MAX):
            return DynamicsState(DynamicsKind.TURN_MIN, 1)
        return DynamicsState(DynamicsKind.GROWTH, 1)
    if prev.kind is DynamicsKind.DECLINE:
        return DynamicsState(DynamicsKind.DECLINE, prev.streak + 1)
    if prev.kind in (DynamicsKind.GROWTH, DynamicsKind.TURN_MIN):
        return DynamicsState(DynamicsKind.TURN_MAX, 1)
    return DynamicsState(DynamicsKind.DECLINE, 1)


def reference_fold_states(values: Sequence, epsilon: float = 0.0) -> tuple[DynamicsState, ...]:
    """States after each observation, one reference_estimate_state per step."""
    if not values:
        return ()
    out = [DynamicsState.INITIAL]
    for i in range(1, len(values)):
        out.append(reference_estimate_state(out[-1], values[i - 1], values[i], epsilon))
    return tuple(out)


def _within(a, b, epsilon: float) -> bool:
    if epsilon == 0:
        return a == b
    return abs(a - b) <= epsilon


def reference_cycle_period(values: Sequence, epsilon: float):
    """The least p in [2, n//2] with every value epsilon-equal to its p-back
    counterpart, tried one period at a time."""
    n = len(values)
    for p in range(2, n // 2 + 1):
        if all(_within(values[t], values[t - p], epsilon) for t in range(p, n)):
            return p
    return None


def reference_classify_series(series: ParameterSeries, epsilon: float = 0.0) -> TrendClass:
    """Trend classification with the forecast read off a second fold."""
    values = series.values
    n = len(values)
    if n < 2:
        raise SeriesTooShortError("classification needs at least 2 observations")
    signs = [_direction(values[i], values[i + 1], epsilon) for i in range(n - 1)]

    nonzero = [(i, s) for i, s in enumerate(signs) if s != 0]
    if not nonzero:
        monotone = "none"
    elif all(s >= 0 for s in signs):
        monotone = "increasing"
    elif all(s <= 0 for s in signs):
        monotone = "decreasing"
    else:
        monotone = "none"

    criticals = []
    for (_, prev_sign), (j, sign) in zip(nonzero, nonzero[1:]):
        if sign != prev_sign:
            criticals.append(j)

    inflexions: list[int] = []
    if n >= 3:
        try:
            second = [values[i + 2] - 2 * values[i + 1] + values[i] for i in range(n - 2)]
        except TypeError:
            second = None
        if second is not None:
            curve = []
            for i, dd in enumerate(second):
                if dd > epsilon:
                    curve.append((i, 1))
                elif dd < -epsilon:
                    curve.append((i, -1))
            for (_, prev_sign), (j, sign) in zip(curve, curve[1:]):
                if sign != prev_sign:
                    inflexions.append(j + 1)

    cyclic_period = None
    if nonzero and n >= 3:
        cyclic_period = reference_cycle_period(values, epsilon)

    return TrendClass(
        monotone=monotone,
        critical_points=tuple(criticals),
        inflexions=tuple(inflexions),
        bounds=(min(values), max(values)),
        cyclic_period=cyclic_period,
        forecast=reference_fold_states(values, epsilon)[-1].kind,
    )


def reference_grid_states(
    series_set: Sequence[ParameterSeries], interval: tuple[int, int], epsilon: float = 0.0
) -> dict[str, tuple[DynamicsState, ...]]:
    """Each series' state at every grid tick, one reference fold per series."""
    a, b = int(interval[0]), int(interval[1])
    if a > b:
        raise ValueError("interval start exceeds its end")
    names = [s.parameter for s in series_set]
    if len(set(names)) != len(names):
        raise ValueError("duplicate parameter in series set")
    rows: dict[str, tuple[DynamicsState, ...]] = {}
    for series in series_set:
        if not any(a <= t <= b for t in series.ticks):
            raise EmptyOverlapError(series.parameter)
        by_tick = dict(zip(series.ticks, reference_fold_states(series.values, epsilon)))
        rows[series.parameter] = tuple(
            by_tick.get(t, DynamicsState.INITIAL) for t in range(a, b + 1)
        )
    return rows


def runs_of_states(states: Iterable[DynamicsState]) -> list[tuple[DynamicsKind, int, int]]:
    """The maximal runs (kind, first streak, length) of a row of states,
    taken one state at a time: a state extends the last run when it has
    its kind and the streak after it (Unknown's streak stays 0)."""
    runs: list[tuple[DynamicsKind, int, int]] = []
    for state in states:
        if runs:
            kind, first, n = runs[-1]
            if state.kind is kind and state.streak == first + (0 if kind is DynamicsKind.UNKNOWN else n):
                runs[-1] = (kind, first, n + 1)
                continue
        runs.append((state.kind, state.streak, 1))
    return runs


def reference_parallel_profile(
    series_set: Sequence[ParameterSeries], interval: tuple[int, int], epsilon: float = 0.0
) -> ParallelProfile:
    """The parallel profile, one reference fold per series, its rows cut into runs."""
    rows = reference_grid_states(series_set, interval, epsilon)
    return ParallelProfile(
        parameters=tuple(s.parameter for s in series_set),
        start=int(interval[0]),
        end=int(interval[1]),
        rows={name: tuple(runs_of_states(states)) for name, states in rows.items()},
    )


def reference_profile_rows(
    series_set: Sequence[ParameterSeries], interval: tuple[int, int], epsilon: float = 0.0
) -> list[dict]:
    """The profile report's rows as a tree: one dict per grid tick, one
    dict per cell, built from the reference states."""
    rows = reference_grid_states(series_set, interval, epsilon)
    names = [s.parameter for s in series_set]
    columns = [
        [{"kind": state.kind.value, "streak": state.streak} for state in rows[name]]
        for name in names
    ]
    return [
        {"tick": t, "cells": dict(zip(names, cells))}
        for t, cells in zip(range(int(interval[0]), int(interval[1]) + 1), zip(*columns))
    ]


def reference_intensity_report(
    history: Sequence[TransitionEvent],
    d: CanonicalDiagram,
    window: tuple[int, int],
    initial: Mapping[str, tuple[str, int]],
    target: Mapping[str, int] | None = None,
) -> IntensityReport:
    """Reconstruct N_i(t) and cumulative arc counters over a window, with
    the counters kept in dicts keyed by state and by arc."""
    t_lo, t_hi = int(window[0]), int(window[1])
    if t_lo > t_hi or t_lo < 0 or t_hi > d.horizon:
        raise WindowOutOfRangeError(f"window [{t_lo}, {t_hi}] outside [0, {d.horizon}]")
    arcs = set(d.arcs)
    for ev in history:
        if not 0 <= ev.tick <= d.horizon:
            raise ValueError(f"event at tick {ev.tick} outside the diagram horizon")
        if ev.arc not in arcs:
            raise ValueError(f"event arc {ev.arc.src}->{ev.arc.dst} not in diagram {d.id!r}")

    by_tick: dict[int, list[TransitionEvent]] = {}
    for ev in history:
        by_tick.setdefault(ev.tick, []).append(ev)

    counts = {state: 0 for state in d.states}
    for state, _ in initial.values():
        if state not in counts:
            raise ValueError(f"initial distribution places objects on unknown state {state!r}")
        counts[state] += 1
    cumulative = {arc: 0 for arc in d.arcs}
    occupancy: dict[str, list[int]] = {state: [] for state in d.states}
    arc_series: dict[Arc, list[int]] = {arc: [] for arc in d.arcs}
    development = degradation = 0

    for t in range(0, t_hi + 1):
        for ev in by_tick.get(t, ()):
            counts[ev.arc.src] -= 1
            counts[ev.arc.dst] += 1
            cumulative[ev.arc] += 1
            if t_lo <= t:
                if ev.arc.kind is ArcKind.DEV:
                    development += 1
                else:
                    degradation += 1
        if t >= t_lo:
            for state in d.states:
                occupancy[state].append(counts[state])
            for arc in d.arcs:
                arc_series[arc].append(cumulative[arc])

    reached = {state: counts[state] for state in d.states}
    target_delta = None
    if target is not None:
        target_delta = {
            state: reached[state] - int(target.get(state, 0)) for state in d.states
        }
    return IntensityReport(
        diagram_id=d.id,
        window=(t_lo, t_hi),
        occupancy={s: tuple(v) for s, v in occupancy.items()},
        arc_cumulative={a: tuple(v) for a, v in arc_series.items()},
        development=development,
        degradation=degradation,
        ratio=(development / degradation) if degradation else None,
        reached=reached,
        target_delta=target_delta,
    )


def reference_read_series_csv(path: str, model: modelfile.ModelFile) -> list[dynamics.ParameterSeries]:
    """The series CSV reader that walks the file row by row."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        rows = [row for row in reader if row and any(cell.strip() for cell in row)]
    if not rows:
        raise StatedevError(f"series file {path!r} is empty")
    header = [cell.strip() for cell in rows[0]]
    if not header or header[0] != "tick":
        raise StatedevError("series CSV must start with a 'tick' column")
    names = header[1:]
    if not names:
        raise StatedevError("series CSV has no parameter columns")
    for i, name in enumerate(names):
        if name in names[:i]:
            raise StatedevError(f"series column {name!r} appears more than once")
    ticks: dict[str, list[int]] = {name: [] for name in names}
    values: dict[str, list] = {name: [] for name in names}
    for line_no, row in enumerate(rows[1:], start=2):
        try:
            tick = int(row[0])
        except (ValueError, IndexError):
            raise StatedevError(f"{path}:{line_no}: bad tick {row[0]!r}") from None
        for name, cell in zip(names, row[1:]):
            cell = cell.strip()
            if not cell:
                continue
            ticks[name].append(tick)
            values[name].append(cell)
    out = []
    for name in names:
        if not ticks[name]:
            raise StatedevError(f"series column {name!r} holds no observations")
        decl = model.parameters.get(name)
        try:
            if decl is not None and decl.kind == "ordinal":
                series = dynamics.ParameterSeries.from_ordinal(name, ticks[name], values[name], decl.levels)
            else:
                series = dynamics.ParameterSeries(name, tuple(ticks[name]), modelfile.numbers(values[name]))
        except ValueError as exc:
            raise StatedevError(f"series column {name!r}: {exc}") from None
        out.append(series)
    return out


def evaluate_scale(scale: Scale, assignment, parameters: Parameters | None = None) -> State:
    """Classify one assignment on one scale: the one state whose predicate
    holds, or NoMatchError / MultipleMatchError."""
    return _evaluate_scale(scale, assignment, _orders(parameters))


def reference_sample_assignments(
    spec: SampleSpec, names: Sequence[str], parameters: Parameters | None = None
):
    """The sampler that tests each declaration's kind per name per sample."""
    names = sorted(names)
    if not names:
        yield {}  # predicates that read no name: one check decides them
        return
    decls = [(parameters or {}).get(name) for name in names]
    unresolved = [
        name for name, decl in zip(names, decls)
        if decl is None or (decl.levels is None and decl.bounds is None)
    ]
    if unresolved:
        raise MissingParameterRangeError(unresolved)
    rng = random.Random(spec.seed)
    for _ in range(spec.samples):
        yield {
            name: rng.choice(decl.levels) if decl.levels is not None else rng.uniform(*decl.bounds)
            for name, decl in zip(names, decls)
        }


def reference_validate_scale_disjointness(
    scale: Scale, spec: SampleSpec, parameters: Parameters | None = None
) -> DisjointnessReport:
    """The sampled disjointness check: every sampled point where two or
    more predicates hold, and every one where none holds."""
    orders = _orders(parameters)
    names = _sampled_names(scale.predicates, parameters, orders)[0]
    count = 0
    overlaps, gaps = [], []
    for assignment in reference_sample_assignments(spec, names, parameters):
        count += 1
        hits = [i for i, p in enumerate(scale.predicates, start=1) if p.holds(assignment, orders)]
        if len(hits) > 1:
            overlaps.append((assignment, tuple(hits)))
        elif not hits:
            gaps.append(assignment)
    return DisjointnessReport(scale.id, count, tuple(overlaps), tuple(gaps))


def reference_validate_classificator(
    classificator: Classificator, spec: SampleSpec, parameters: Parameters | None = None
) -> RefinementReport:
    """The sampled refinement check: per refinement, every sampled point
    where a child predicate holds and its parent does not, and every one
    where the parent holds and no child predicate does."""
    orders = _orders(parameters)
    total = 0
    violations, unsampled, gaps = [], [], []
    for (sid, pos), child in sorted(classificator.refinements.items()):
        parent = classificator.scales[sid].predicates[pos - 1]
        names = _sampled_names((parent, *child.predicates), parameters, orders)[0]
        try:
            assignments = list(reference_sample_assignments(spec, names, parameters))
        except MissingParameterRangeError as exc:
            unsampled.append(exc)
            continue
        for assignment in assignments:
            total += 1
            parent_ok = parent.holds(assignment, orders)
            held = [j for j, p in enumerate(child.predicates, start=1) if p.holds(assignment, orders)]
            if not parent_ok:
                violations.extend((sid, pos, j, assignment) for j in held)
            elif not held:
                gaps.append((sid, pos, assignment))
    return RefinementReport(classificator.id, total, tuple(violations), tuple(unsampled), tuple(gaps))


def _chains(node: Node):
    if isinstance(node, Comparison):
        yield node
    elif isinstance(node, Not):
        yield from _chains(node.item)
    else:
        for item in node.items:
            yield from _chains(item)


def reference_cell_key(predicates, parameters: Parameters):
    """The cell of an assignment, as a function of the assignment, for
    predicates whose chains each read one name: per name in sorted order,
    the ordinal's level, or for a numeric ("at", c) on a bound or a number
    of its chains and ("in", a, b) strictly between two neighbouring ones."""
    edges = {}
    for name, decl in parameters.items():
        if decl.bounds is None:
            continue
        lo, hi = decl.bounds
        found = {lo, hi}
        for p in predicates:
            for comp in _chains(p.ast):
                if any(isinstance(op, Name) and op.ident == name for op in comp.operands):
                    found.update(op.value for op in comp.operands if isinstance(op, Number) and lo < op.value < hi)
        edges[name] = sorted(found)

    def key(assignment: Mapping) -> tuple:
        out = []
        for name in sorted(assignment):
            value = assignment[name]
            if parameters[name].levels is not None:
                out.append(value)
            elif value in edges[name]:
                out.append(("at", value))
            else:
                i = bisect.bisect(edges[name], value)
                out.append(("in", edges[name][i - 1], edges[name][i]))
        return tuple(out)
    return key


def reference_scenario_to_dict(sc: Scenario) -> dict:
    """The scenario's whole JSON object, each time-diagram entry through
    `_TIME_ENTRY.dump`."""
    return {**modelfile.scenario_to_dict(sc), "time_diagram": [modelfile._TIME_ENTRY.dump(e) for e in sc.time_diagram]}


def reference_trajectory_file_to_dict(tr: Trajectory, sc: Scenario, scores=None) -> dict:
    """The whole trajectory file as one JSON object, each event as its
    `_asdict()` and each time-diagram entry through `_TIME_ENTRY.dump`."""
    return {
        "format_version": modelfile.TRAJECTORY_VERSION,
        "kind": "trajectory-file",
        "scenario_id": sc.id,
        "scenario": reference_scenario_to_dict(sc),
        "trajectory": {
            "horizon": tr.horizon,
            "initial": {sub: [state, entry] for sub, (state, entry) in tr.initial.items()},
            "events": [event._asdict() for event in tr.events],
        },
        "scores": {sub: dict(states) for sub, states in scores.items()} if scores else None,
    }


def reference_serialize_trajectory(tr: Trajectory, sc: Scenario, scores=None) -> str:
    """The trajectory file that `modelfile.serialize_trajectory` must write byte for byte."""
    return canonical_json(reference_trajectory_file_to_dict(tr, sc, scores))


def reference_event_row(event: Event) -> tuple[str, str, str, str, str, str, str]:
    """Flat record (kind, subsystem, symbol, src, dst, cause, effective)."""
    kind = event.kind
    if kind == "delivery":
        return ("delivery", event.subsystem, event.symbol, "", "", event.symbol_kind,
                "true" if event.effective else "false")
    if kind == "firing":
        return ("firing", event.subsystem, event.symbol, event.src, event.dst,
                event.cause, "true")
    if kind == "backstep":
        return ("backstep", event.subsystem, "", event.src, event.dst, "timeout", "true")
    return ("skipped", event.subsystem, event.symbol, event.src, event.dst,
            "downward-propagation", "false")


def reference_write_events_csv(path: str, tr: Trajectory) -> None:
    """The event CSV that `cli._write_events_csv` must write byte for byte."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["seq", "tick", "kind", "subsystem", "symbol", "src", "dst", "cause", "effective"])
        writer.writerows((seq, event.tick, *reference_event_row(event)) for seq, event in enumerate(tr.events))


# kind -> (field names besides "kind", their types from the class annotations, class)
_EVENT_TABLES = {
    kind: (cls._fields[:-1], tuple(get_type_hints(cls)[name] for name in cls._fields[:-1]), cls)
    for kind, cls in EVENT_KINDS.items()
}

_TYPE_NAMES = {str: "a string", int: "an integer", bool: "a boolean"}


def reference_event_from_dict(data) -> Event:
    """One event read from its JSON object; a ValueError names the first bad field."""
    kind = data.get("kind") if isinstance(data, dict) else None
    if not isinstance(kind, str) or kind not in _EVENT_TABLES:
        raise ValueError(f"unknown event kind {kind!r}")
    fields, types, make = _EVENT_TABLES[kind]
    values = tuple(map(data.get, fields))
    for name, typ, value in zip(fields, types, values):
        if type(value) is not typ:
            raise ValueError(f"{kind} event needs {_TYPE_NAMES[typ]} {name!r}")
    return make(*values)


def reference_read_events(items: list, out) -> list[Event]:
    """The events of a version-2 file's event list, one issue per bad item in out."""
    events = []
    for i, item in enumerate(items):
        try:
            events.append(reference_event_from_dict(item))
        except ValueError as exc:
            out.invalid(f"trajectory.events[{i}]", str(exc))
    return events


def reference_read_time_diagram(items: list, where: str, subsystems: Sequence[str], out) -> list:
    """The entries of the time-diagram list of the scenario at where, one
    issue per unknown target and per bad entry in out."""
    entries = []
    for i, item in enumerate(items):
        wi = f"{where}.time_diagram[{i}]"
        item = modelfile._expect_map(item, wi, out)
        target = item.get("target")
        if target is not None and str(target) not in subsystems:
            out.unresolved(wi, f"target {target!r} is not in the hierarchy")
        entry = modelfile._TIME_ENTRY.read(item, wi, out)
        if entry is not None:
            entries.append(entry)
    return entries
