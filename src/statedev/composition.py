"""Diagram composition and consistency against prescribed sequences.

Three constructions: sequential chaining over strictly increasing
intervals, parallel interleaving product over one shared interval, and
generalization of selected child-state tuples into a parent diagram via
a supplied strict partial order. Consistency asks whether a timed set
of diagrams can visit prescribed (diagram, state) entries in list order
by their deadlines; check_consistency answers by breadth-first search
over the joint configuration space.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .canonical import Arc, ArcKind, CanonicalDiagram
from .errors import StatedevError


class IntervalOrderViolationError(StatedevError):
    pass


class IntervalMismatchError(StatedevError):
    pass


class TupleOutOfProductError(StatedevError):
    pass


class OrderCycleError(StatedevError):
    pass


class NoUniqueExtremesError(StatedevError):
    pass


class UnknownDiagramError(StatedevError):
    pass


class UnknownStateError(StatedevError):
    pass


class EmptyCompositionError(StatedevError):
    """No diagram to compose, or no tuple to generalize."""


@dataclass(frozen=True)
class TimedDiagramSet:
    """Diagrams each considered over its own interval [0, tau]."""

    diagrams: tuple[CanonicalDiagram, ...]
    intervals: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "diagrams", tuple(self.diagrams))
        object.__setattr__(self, "intervals", tuple(int(t) for t in self.intervals))
        if len(self.diagrams) != len(self.intervals):
            raise ValueError("one interval per diagram required")
        for d, tau in zip(self.diagrams, self.intervals):
            if tau < 0:
                raise ValueError(f"interval for {d.id!r} is negative")
            if tau > d.horizon:
                raise ValueError(
                    f"interval {tau} for {d.id!r} exceeds its horizon {d.horizon}"
                )


@dataclass(frozen=True)
class PrescribedEntry:
    diagram: int
    state: str
    deadline: int


@dataclass(frozen=True)
class PrescribedSequence:
    entries: tuple[PrescribedEntry, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        for e in self.entries:
            if e.deadline < 0:
                raise ValueError("deadlines must be >= 0")
        for a, b in zip(self.entries, self.entries[1:]):
            if b.deadline < a.deadline:
                raise ValueError("deadlines must be non-decreasing along the list")


def compose_sequential(dset: TimedDiagramSet) -> CanonicalDiagram:
    """Chain the diagrams along strictly increasing intervals.

    States keep their relative order, every diagram's states preceding
    the next one's; a linking dev arc runs from each final state to the
    next initial state with delta equal to the interval gap. A single
    diagram comes back unchanged.
    """
    diagrams, taus = dset.diagrams, dset.intervals
    if not diagrams:
        raise EmptyCompositionError("nothing to compose")
    for i, (a, b) in enumerate(zip(taus, taus[1:])):
        if b <= a:
            raise IntervalOrderViolationError(
                f"intervals must strictly increase; tau[{i}]={a} vs tau[{i + 1}]={b}"
            )
    if len(diagrams) == 1:
        return diagrams[0]

    def rename(i: int, state: str) -> str:
        return f"{i}.{state}"

    states: list[str] = []
    labels: dict[str, str] = {}
    dev: list[Arc] = []
    back: list[Arc] = []
    for i, d in enumerate(diagrams):
        for s in d.states:
            states.append(rename(i, s))
            labels[rename(i, s)] = f"{d.id}:{s}"
        for arc in d.dev_arcs:
            dev.append(Arc(rename(i, arc.src), rename(i, arc.dst), arc.delta, ArcKind.DEV))
        for arc in d.back_arcs:
            back.append(Arc(rename(i, arc.src), rename(i, arc.dst), arc.delta, ArcKind.BACK))
    for i in range(len(diagrams) - 1):
        dev.append(
            Arc(
                rename(i, diagrams[i].final),
                rename(i + 1, diagrams[i + 1].initial),
                taus[i + 1] - taus[i],
                ArcKind.DEV,
            )
        )
    return CanonicalDiagram(
        id="seq(" + ",".join(d.id for d in diagrams) + ")",
        states=tuple(states),
        dev_arcs=tuple(dev),
        back_arcs=tuple(back),
        initial=rename(0, diagrams[0].initial),
        final=rename(len(diagrams) - 1, diagrams[-1].final),
        horizon=taus[-1],
        labels=labels,
    )


def _tuple_id(parts: Sequence[str]) -> str:
    return "(" + ",".join(parts) + ")"


@dataclass(frozen=True)
class ParallelFragment:
    """Interleaving product: .diagram holds the tuple-state diagram,
    tuples maps composite ids back to component states, arc_origin maps
    every composite arc to (component index, component arc)."""

    diagram: CanonicalDiagram
    components: tuple[CanonicalDiagram, ...]
    tuples: dict[str, tuple[str, ...]]
    arc_origin: dict[Arc, tuple[int, Arc]]


def compose_parallel(dset: TimedDiagramSet) -> ParallelFragment:
    """Product over one shared interval; each arc moves one component."""
    diagrams, taus = dset.diagrams, dset.intervals
    if not diagrams:
        raise EmptyCompositionError("nothing to compose")
    if len(set(taus)) > 1:
        raise IntervalMismatchError(f"intervals differ: {list(taus)}")
    tau = taus[0]
    combos = list(itertools.product(*(d.states for d in diagrams)))
    tuples = {_tuple_id(c): tuple(c) for c in combos}
    states = tuple(_tuple_id(c) for c in combos)
    dev: list[Arc] = []
    back: list[Arc] = []
    origin: dict[Arc, tuple[int, Arc]] = {}
    for i, d in enumerate(diagrams):
        for arc in d.arcs:
            for combo in itertools.product(
                *(x.states if j != i else (None,) for j, x in enumerate(diagrams))
            ):
                src = list(combo)
                dst = list(combo)
                src[i] = arc.src
                dst[i] = arc.dst
                new = Arc(_tuple_id(src), _tuple_id(dst), arc.delta, arc.kind)
                (dev if arc.kind is ArcKind.DEV else back).append(new)
                origin[new] = (i, arc)
    return ParallelFragment(
        diagram=CanonicalDiagram(
            id="par(" + ",".join(d.id for d in diagrams) + ")",
            states=states,
            dev_arcs=tuple(dev),
            back_arcs=tuple(back),
            initial=_tuple_id([d.initial for d in diagrams]),
            final=_tuple_id([d.final for d in diagrams]),
            horizon=tau,
        ),
        components=diagrams,
        tuples=tuples,
        arc_origin=origin,
    )


def generalize(
    children: TimedDiagramSet,
    selection: Iterable[Sequence[str]],
    order: Iterable[tuple[Sequence[str], Sequence[str]]],
) -> CanonicalDiagram:
    """Lift selected child-state tuples to a parent diagram.

    The order pairs (a before b) must form a strict partial order on the
    selection with one minimal and one maximal element; parent states
    follow the deterministic linear extension (ties broken by child state
    orders), parent dev arcs are the covering pairs. A parent state id
    spells its child tuple, as `(a0,b1)`.
    """
    diagrams = children.diagrams
    chosen: list[tuple[str, ...]] = []
    for tup in selection:
        tup = tuple(tup)
        if len(tup) != len(diagrams):
            raise TupleOutOfProductError(
                f"tuple {tup} has {len(tup)} parts, expected {len(diagrams)}"
            )
        for d, s in zip(diagrams, tup):
            if s not in d.states:
                raise TupleOutOfProductError(f"state {s!r} not in diagram {d.id!r}")
        if tup not in chosen:
            chosen.append(tup)
    if not chosen:
        raise EmptyCompositionError("selection is empty")
    index = {tup: i for i, tup in enumerate(chosen)}
    n = len(chosen)
    edge = [[False] * n for _ in range(n)]
    for a, b in order:
        a, b = tuple(a), tuple(b)
        if a not in index or b not in index:
            missing = a if a not in index else b
            raise TupleOutOfProductError(f"order pair references unselected tuple {missing}")
        if a == b:
            raise OrderCycleError(f"reflexive order pair on {a}")
        edge[index[a]][index[b]] = True
    # Warshall closure; a cycle shows up as a reflexive closure edge.
    for k in range(n):
        for i in range(n):
            if edge[i][k]:
                row_k = edge[k]
                row_i = edge[i]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
    for i in range(n):
        if edge[i][i]:
            raise OrderCycleError(f"order cycles through {chosen[i]}")
    minimal = [i for i in range(n) if not any(edge[j][i] for j in range(n))]
    maximal = [i for i in range(n) if not any(edge[i][j] for j in range(n))]
    if len(minimal) != 1 or len(maximal) != 1:
        raise NoUniqueExtremesError(
            f"{len(minimal)} minimal and {len(maximal)} maximal tuples; need exactly one of each"
        )

    def tie_key(i: int) -> tuple[int, ...]:
        return tuple(d.position[s] for d, s in zip(diagrams, chosen[i]))

    remaining = set(range(n))
    extension: list[int] = []
    while remaining:
        ready = [i for i in remaining if not any(edge[j][i] for j in remaining if j != i)]
        nxt = min(ready, key=tie_key)
        extension.append(nxt)
        remaining.discard(nxt)

    covering: list[tuple[int, int]] = []
    for i in range(n):
        for j in range(n):
            if edge[i][j] and not any(edge[i][k] and edge[k][j] for k in range(n)):
                covering.append((i, j))

    ids = [_tuple_id(chosen[i]) for i in range(n)]
    states = tuple(ids[i] for i in extension)
    dev = tuple(Arc(ids[i], ids[j], 0, ArcKind.DEV) for i, j in covering)
    return CanonicalDiagram(
        id="gen(" + ",".join(d.id for d in diagrams) + ")",
        states=states,
        dev_arcs=dev,
        back_arcs=(),
        initial=ids[minimal[0]],
        final=ids[maximal[0]],
        horizon=max(children.intervals),
    )


@dataclass(frozen=True)
class ScheduledFiring:
    tick: int
    diagram: int
    arc: Arc


@dataclass(frozen=True)
class ConsistencyVerdict:
    consistent: bool
    witness: tuple[ScheduledFiring, ...] | None
    satisfied_at: tuple[int, ...] | None
    failed_prefix: int | None  # entry count of the shortest unsatisfiable prefix


def _validate_refs(dset: TimedDiagramSet, seq: PrescribedSequence) -> None:
    for e in seq.entries:
        if not 0 <= e.diagram < len(dset.diagrams):
            raise UnknownDiagramError(f"no diagram at index {e.diagram}")
        if e.state not in dset.diagrams[e.diagram].states:
            raise UnknownStateError(
                f"state {e.state!r} not in diagram {dset.diagrams[e.diagram].id!r}"
            )


def check_consistency(dset: TimedDiagramSet, seq: PrescribedSequence) -> ConsistencyVerdict:
    """Decide ordered visitation by deadlines over the joint tick grid.

    Breadth-first search over (per-diagram state, per-diagram residence
    clock, satisfied-prefix length k), tick by tick; within one tick any
    number of diagrams may fire and a diagram may chain zero-delay arcs.
    A residence clock stops at the largest delay leaving its state, since
    any larger clock enables the same arcs. The search keeps the first
    node found of each (states, k) and drops every later one. The witness
    is the first satisfying path found: earliest tick first; within a
    tick, the frontier in discovery order, then diagram index, then
    `out_arcs` order. It does not depend on the hash seed.

    A node (s, c, k) dominates (s, c', k') when c >= c' in every component
    and k >= k'. Proven: whatever the dominated node fires at any later
    tick, the dominating node fires at the same tick, into a node that
    dominates the result. Larger clocks keep every arc enabled, aging keeps
    the order, an interval only forbids later firings, deadlines do not
    decrease along the list, and claim is monotone in k: if claim(s, k')
    gets past k, every entry from k to where it stops holds in s.

    - Drop lemma, checked, not proven: when the search finds a (states, k)
      a second time, a live node found earlier, with the same states and a
      k' >= k, dominates the new one. tests/test_composition.py checks it
      at every drop (`test_every_drop_is_dominated`) and checks the whole
      verdict against the covering search, which keeps clocks per
      (states, k) (`test_search_equals_the_covering_search*`).
    - A key stays found after its node leaves the frontier: a settled
      node's capped clocks dominate any later node with its key, and a new
      node claims from a live parent, so it never carries an expired entry.
    - A carried node fires only the arcs its clocks newly enabled: delta
      above its clock at the last expansion and at most its clock now; an
      arc it fired before gave a node that a kept node, aged, dominates.
      One whose clocks did not move when aged is settled: every clock is
      capped, it fires nothing again, and it leaves the frontier. The
      search stops at the first tick with an empty frontier.
    - Every node walked at tick t has deadline[k] >= t: the start node as
      deadlines are >= 0, a carried node as aging drops a node whose next
      entry expired, and a new node as claiming only moves k forward along
      non-decreasing deadlines. So every claim is on time.
    """
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
    caps_of: dict = {}  # states -> their caps, per diagram
    # Entry k as flat lists; the sentinel past the last one never matches,
    # so claim stops there without a bound test.
    deadline = [e.deadline for e in entries]
    where = [e.diagram for e in entries] + [0]
    want = [e.state for e in entries] + [None]

    def claim(states: Sequence[str], k: int) -> int:
        while states[where[k]] == want[k]:
            k += 1
        return k

    start = tuple(d.initial for d in dset.diagrams)
    best_k = claim(start, 0)
    # steps[i] is (parent index, tick, diagram, arc, k) of the i-th node found,
    # k the prefix it claimed; node 0 is the start. Node keys change as clocks
    # tick: parents go by index.
    steps: list = [(0, 0, None, None, best_k)]

    def finish(i: int) -> ConsistencyVerdict:
        firings, ticks = [], []
        while i:
            parent, tick, di, arc, k = steps[i]
            firings.append(ScheduledFiring(tick, di, arc))
            ticks += [tick] * (k - steps[parent][4])
            i = parent
        ticks += [0] * steps[0][4]
        firings.reverse()
        ticks.reverse()
        return ConsistencyVerdict(True, tuple(firings), tuple(ticks), None)

    if best_k == len(entries):
        return finish(0)
    # (states, clocks, k, index in steps, clocks at the last expansion); a
    # node found in this tick has the clocks -1 there, so every enabled arc
    # fires.
    fresh = (-1,) * n
    frontier = [(start, (0,) * n, best_k, 0, fresh)]
    found = {(start, best_k)}  # every (states, k) found so far
    for t in range(0, horizon + 1):
        if t:
            carried, frontier = frontier, []
            for states, ages, k, i, _ in carried:
                if deadline[k] < t:
                    continue
                capt = caps_of.get(states)
                if capt is None:
                    capt = caps_of[states] = tuple(map(dict.__getitem__, caps, states))
                now = tuple(map(min, map((1).__add__, ages), capt))
                if now != ages:  # else settled: every clock is capped
                    frontier.append((states, now, k, i, ages))
            if not frontier:
                break  # nothing fires again
        live = [di for di in range(n) if t <= limits[di]]
        for states, ages, k, i, before in frontier:  # grows while it is walked
            for di in live:
                lo = before[di]
                if lo == ages[di]:
                    continue
                for arc in arcs_from[di][states[di]]:
                    if not lo < arc.delta <= ages[di]:
                        continue
                    ns = states[:di] + (arc.dst,) + states[di + 1 :]
                    nk = claim(ns, k)
                    if (ns, nk) in found:
                        continue  # a node found earlier dominates it: the drop lemma
                    found.add((ns, nk))
                    best_k = max(best_k, nk)
                    steps.append((i, t, di, arc, nk))
                    if nk == len(entries):
                        return finish(len(steps) - 1)
                    na = ages[:di] + (0,) + ages[di + 1 :]
                    frontier.append((ns, na, nk, len(steps) - 1, fresh))
    return ConsistencyVerdict(False, None, None, best_k + 1)
