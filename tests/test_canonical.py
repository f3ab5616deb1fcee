"""Canonical development diagrams: validation, transitions, intensity."""

import itertools
import random
from time import perf_counter

import pytest

from statedev.canonical import (
    Arc,
    ArcKind,
    BeyondHorizonError,
    CanonicalDiagram,
    ObjectNotInFromStateError,
    ScriptOrderError,
    TooEarlyError,
    TransitionEvent,
    UnknownArcError,
    WindowOutOfRangeError,
    intensity_report,
    replay_script,
    validate_canonical,
)
from statedev.errors import StatedevError
from tests.conftest import chain
from tests.oracles import reference_intensity_report


def arc(src, dst, delta, kind=ArcKind.DEV):
    return Arc(src, dst, delta, kind)


def test_three_state_chain_validates():
    report = validate_canonical(chain(3))
    assert report.order_violations == ()
    assert report.delta_violations == ()
    assert report.unreachable == ()
    assert report.final_reachable


def test_decreasing_dev_arc_is_reported():
    d = CanonicalDiagram(
        id="bad",
        states=("s1", "s2", "s3"),
        dev_arcs=(arc("s1", "s2", 1), arc("s3", "s1", 1)),
        back_arcs=(),
        initial="s1",
        final="s3",
        horizon=5,
    )
    report = validate_canonical(d)
    assert arc("s3", "s1", 1) in report.order_violations


def test_increasing_back_arc_is_reported():
    d = CanonicalDiagram(
        id="bad",
        states=("s1", "s2", "s3"),
        dev_arcs=(arc("s1", "s2", 1), arc("s2", "s3", 1)),
        back_arcs=(arc("s1", "s3", 1, ArcKind.BACK),),
        initial="s1",
        final="s3",
        horizon=5,
    )
    report = validate_canonical(d)
    assert arc("s1", "s3", 1, ArcKind.BACK) in report.order_violations


def test_delta_beyond_horizon_is_reported():
    d = CanonicalDiagram(
        id="slow",
        states=("s1", "s2"),
        dev_arcs=(arc("s1", "s2", 9),),
        back_arcs=(),
        initial="s1",
        final="s2",
        horizon=5,
    )
    report = validate_canonical(d)
    assert arc("s1", "s2", 9) in report.delta_violations
    # Reachability is a graph property; the oversized delay is its own finding.
    assert report.final_reachable


def test_unreachable_state_is_reported():
    d = CanonicalDiagram(
        id="island",
        states=("s1", "s2", "s3"),
        dev_arcs=(arc("s1", "s3", 1),),
        back_arcs=(),
        initial="s1",
        final="s3",
        horizon=5,
    )
    assert validate_canonical(d).unreachable == ("s2",)


def test_apply_transition_moves_object_and_counts():
    d = chain(3, delta=3, horizon=10)
    dist = {"o": ("s1", 0)}
    step = d.dev_arcs[0]
    dist, events = replay_script(d, dist, [("o", step, 3)])
    assert dist["o"] == ("s2", 3)
    assert sum(1 for e in events if e.arc == step) == 1
    (event,) = events
    assert event.tick == 3


def test_apply_transition_too_early():
    d = chain(3, delta=3, horizon=10)
    dist = {"o": ("s1", 0)}
    with pytest.raises(TooEarlyError):
        replay_script(d, dist, [("o", d.dev_arcs[0], 2)])


def test_apply_transition_wrong_source():
    d = chain(3, horizon=10)
    dist = {"o": ("s1", 0)}
    with pytest.raises(ObjectNotInFromStateError):
        replay_script(d, dist, [("o", d.dev_arcs[1], 4)])


def test_apply_transition_beyond_horizon():
    d = chain(3, horizon=4)
    dist = {"o": ("s1", 0)}
    with pytest.raises(BeyondHorizonError):
        replay_script(d, dist, [("o", d.dev_arcs[0], 5)])


def test_apply_transition_unknown_arc():
    d = chain(3, horizon=10)
    dist = {"o": ("s1", 0)}
    with pytest.raises(UnknownArcError):
        replay_script(d, dist, [("o", arc("s1", "s3", 0), 1)])


def test_same_arc_twice_by_different_objects():
    d = chain(2, horizon=6)
    step = d.dev_arcs[0]
    dist = {"a": ("s1", 0), "b": ("s1", 0)}
    final, events = replay_script(d, dist, [("a", step, 1), ("b", step, 2)])
    assert sum(1 for e in events if e.arc == step) == 2
    assert [e.object for e in events] == ["a", "b"]
    assert len(events) == 2


def test_replay_conserves_object_count():
    d = chain(4, horizon=40, back=True)
    rng = random.Random(5)
    initial = {f"o{i}": ("s1", 0) for i in range(10)}
    by_src: dict[str, list[Arc]] = {}
    for a in d.dev_arcs + d.back_arcs:
        by_src.setdefault(a.src, []).append(a)
    where = dict(initial)
    script = []
    for tick in range(1, d.horizon + 1):
        obj = f"o{rng.randrange(10)}"
        state, entered = where[obj]
        options = [a for a in by_src.get(state, []) if entered + a.delta <= tick]
        if not options:
            continue
        step = rng.choice(options)
        script.append((obj, step, tick))
        where[obj] = (step.dst, tick)
    for k in range(1, len(script) + 1):
        dist, _ = replay_script(d, initial, script[:k])
        assert len(dist) == 10
    dist, events = replay_script(d, initial, script)
    assert dist == where
    assert len(events) == len(script)


def _reference_apply_transition(dist, counts, d, obj, arc, tick):
    """The copy-per-step move that replay_script replaced, kept as an oracle."""
    if arc not in d.dev_arcs and arc not in d.back_arcs:
        raise UnknownArcError(f"arc {arc.src}->{arc.dst} not in diagram {d.id!r}")
    if not 0 <= tick <= d.horizon:
        raise BeyondHorizonError(f"tick {tick} outside [0, {d.horizon}]")
    entry = dist.get(obj)
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
    assignment = dict(dist)
    assignment[obj] = (arc.dst, tick)
    counts = dict(counts)
    counts[arc] = counts.get(arc, 0) + 1
    return assignment, counts, TransitionEvent(object=obj, arc=arc, tick=tick)


def _reference_replay(d, initial, script):
    dist, counts, events = initial, {}, []
    last_tick = None
    for obj, a, tick in script:
        if last_tick is not None and tick < last_tick:
            raise ScriptOrderError(f"script ticks go backwards at tick {tick}")
        last_tick = tick
        dist, counts, event = _reference_apply_transition(dist, counts, d, obj, a, tick)
        events.append(event)
    return dist, counts, tuple(events)


def _outcome(replay, d, initial, script):
    try:
        return replay(d, initial, script)
    except StatedevError as exc:
        return type(exc), str(exc)


_ILLEGAL = ("unknown-arc", "horizon", "wrong-source", "unplaced", "too-early", "backwards")


def _random_replay_case(rng):
    """A diagram with delays 0-3, a placement, and a script whose entries are
    legal up to one illegal entry of a randomly chosen kind (or none)."""
    n = rng.randint(3, 6)
    states = tuple(f"s{i}" for i in range(1, n + 1))
    dev = tuple(arc(states[i], states[i + 1], rng.randint(0, 3)) for i in range(n - 1))
    back = tuple(
        arc(states[i + 1], states[i], rng.randint(0, 3), ArcKind.BACK)
        for i in range(n - 1)
        if rng.random() < 0.6
    )
    d = CanonicalDiagram(
        id="rand", states=states, dev_arcs=dev, back_arcs=back,
        initial=states[0], final=states[-1], horizon=rng.randint(4, 20),
    )
    objects = [f"o{i}" for i in range(rng.randint(1, 6))]
    initial = {obj: (rng.choice(states), rng.randint(0, 2)) for obj in objects}
    by_src: dict[str, list[Arc]] = {}
    for a in d.arcs:
        by_src.setdefault(a.src, []).append(a)
    where = dict(initial)
    illegal = rng.choice((None,) + _ILLEGAL)
    at = rng.randrange(25)
    script = []
    tick = rng.randint(0, 2)
    for step in range(25):
        obj = rng.choice(objects)
        state, entered = where[obj]
        if step == at and illegal == "unknown-arc":
            script.append((obj, arc(states[0], states[-1], 0), tick))
        elif step == at and illegal == "horizon":
            script.append((obj, rng.choice(d.arcs), d.horizon + rng.randint(1, 3)))
        elif step == at and illegal == "wrong-source":
            others = [a for a in d.arcs if a.src != state]
            script.append((obj, rng.choice(others), tick))
        elif step == at and illegal == "unplaced":
            script.append(("ghost", rng.choice(d.arcs), tick))
        elif step == at and illegal == "too-early":
            early = [a for a in by_src.get(state, []) if entered + a.delta > tick]
            if early:
                script.append((obj, rng.choice(early), tick))
        elif step == at and illegal == "backwards" and script:
            script.append((obj, rng.choice(d.arcs), script[-1][2] - rng.randint(1, 2)))
        tick += rng.choice((0, 0, 1))
        if tick > d.horizon:
            break
        options = [a for a in by_src.get(state, []) if entered + a.delta <= tick]
        if options:
            a = rng.choice(options)
            script.append((obj, a, tick))
            where[obj] = (a.dst, tick)
    return d, initial, script


def test_replay_equals_the_copy_per_step_reference_on_random_scripts():
    rng = random.Random(20261018)
    seen = set()
    for _ in range(1500):
        d, initial, script = _random_replay_case(rng)
        before = dict(initial)
        expected = _outcome(_reference_replay, d, initial, script)
        got = _outcome(replay_script, d, initial, script)
        if isinstance(expected[0], type):
            assert got == expected
            seen.add(expected[0])
        else:
            reference, reference_counts, reference_events = expected
            final, events = got
            assert final == reference
            assert events == reference_events
            counts: dict[Arc, int] = {}
            for event in events:
                counts[event.arc] = counts.get(event.arc, 0) + 1
            assert counts == reference_counts
            seen.add(None)
        assert initial == before
    assert seen == {
        None, UnknownArcError, BeyondHorizonError, ObjectNotInFromStateError,
        TooEarlyError, ScriptOrderError,
    }


def test_replay_is_linear_in_the_script_length():
    d = chain(7, delta=1, back=True)
    objects = [f"o{i:04d}" for i in range(1000)]
    initial = {obj: ("s1", 0) for obj in objects}
    arcs_from: dict[str, list[Arc]] = {}
    for a in d.arcs:
        arcs_from.setdefault(a.src, []).append(a)
    rng = random.Random(7)
    position = {obj: "s1" for obj in objects}
    script = []
    for tick in range(1, 9):  # 8 ticks x 1000 objects = 8000 transitions
        for obj in objects:
            a = rng.choice(arcs_from[position[obj]])
            script.append((obj, a, tick))
            position[obj] = a.dst
    started = perf_counter()
    final, events = replay_script(d, initial, script)
    elapsed = perf_counter() - started
    assert len(events) == 8000
    assert {obj: state for obj, (state, _) in final.items()} == position
    assert elapsed < 0.5


def test_replay_and_intensity_hash_each_arc_object_once(monkeypatch):
    # The event CSV resolves every row to one of the diagram's arc objects;
    # an equal copy is a second object, and resolves to the same place.
    d = chain(4, horizon=60, back=True)
    rng = random.Random(11)
    objects = [f"o{i}" for i in range(6)]
    initial = {obj: ("s1", 0) for obj in objects}
    where = dict(initial)
    copies = {a: arc(a.src, a.dst, a.delta, a.kind) for a in d.arcs}
    script = []
    for tick in range(1, d.horizon + 1):
        obj = rng.choice(objects)
        state, entered = where[obj]
        options = [a for a in d.out_arcs[state] if entered + a.delta <= tick]
        if options:
            a = rng.choice(options)
            script.append((obj, copies[a] if rng.random() < 0.3 else a, tick))
            where[obj] = (a.dst, tick)
    assert len(script) > 40 and d.arc_position  # the diagram's index is built before counting
    hashed: dict[int, int] = {}
    unhashed = Arc.__hash__

    def counted(self):
        hashed[id(self)] = hashed.get(id(self), 0) + 1
        return unhashed(self)

    monkeypatch.setattr(Arc, "__hash__", counted)
    final, events = replay_script(d, initial, script)
    assert max(hashed.values()) == 1 and len(hashed) <= 2 * len(d.arcs)
    hashed.clear()
    report = intensity_report(events, d, (0, d.horizon), initial)
    # Each object once, and the diagram's arcs again as the keys of the report.
    assert sum(hashed.values()) <= len(hashed) + len(d.arcs) and len(hashed) <= 2 * len(d.arcs)
    monkeypatch.undo()
    assert final == where
    originals = [(obj, d.arcs[d.arc_position[a]], tick) for obj, a, tick in script]
    assert replay_script(d, initial, originals) == (final, events)
    want = reference_intensity_report(events, d, (0, d.horizon), initial)
    assert _intensity_outcome(lambda *case: report) == _intensity_outcome(lambda *case: want)


def _random_intensity_case(rng):
    """A diagram without repeated arcs, a history of its events that may be
    out of order, off the horizon or carry a foreign arc, an initial
    distribution that may use a state outside the diagram, a window that
    may not fit and a target that may name unknown states."""
    n = rng.randint(1, 6)
    states = tuple(f"s{i}" for i in range(n))
    pairs = [(a, b) for a in states for b in states if a != b]
    arcs = {
        Arc(src, dst, rng.randint(0, 3), rng.choice((ArcKind.DEV, ArcKind.BACK)))
        for src, dst in rng.sample(pairs, rng.randint(0, len(pairs)))
    }
    horizon = rng.randint(0, 12)
    d = CanonicalDiagram(
        id="rand", states=states,
        dev_arcs=tuple(a for a in arcs if a.kind is ArcKind.DEV),
        back_arcs=tuple(a for a in arcs if a.kind is ArcKind.BACK),
        initial=states[0], final=states[-1], horizon=horizon,
    )
    history = []
    for _ in range(rng.randint(0, 12)):
        tick = rng.randint(0, horizon) if rng.random() < 0.97 else horizon + rng.choice((1, -horizon - 1))
        if d.arcs and rng.random() < 0.97:
            a = rng.choice(d.arcs)
        else:
            a = Arc(rng.choice(states + ("ghost",)), rng.choice(states), rng.randint(0, 3))
        history.append(TransitionEvent(object=f"o{rng.randint(0, 3)}", arc=a, tick=tick))
    if rng.random() < 0.7:
        history.sort(key=lambda ev: ev.tick)
    places = states + (("elsewhere",) if rng.random() < 0.05 else ())
    initial = {f"o{i}": (rng.choice(places), 0) for i in range(rng.randint(0, 5))}
    lo = rng.randint(-1, horizon + 1) if rng.random() < 0.1 else rng.randint(0, horizon)
    hi = rng.randint(-1, horizon + 1) if rng.random() < 0.1 else rng.randint(lo, horizon) if lo <= horizon else lo
    target = None
    if rng.random() < 0.5:
        target = {rng.choice(states + ("ghost",)): rng.randint(0, 4) for _ in range(rng.randint(0, 3))}
    return history, d, (lo, hi), initial, target


def _intensity_outcome(report, *case):
    try:
        r = report(*case)
    except (StatedevError, ValueError) as exc:
        return type(exc), str(exc)
    return (
        r.diagram_id, r.window, list(r.occupancy.items()), list(r.arc_cumulative.items()),
        r.development, r.degradation, r.ratio, list(r.reached.items()),
        None if r.target_delta is None else list(r.target_delta.items()),
    )


def test_intensity_equals_the_arc_keyed_reference_on_random_diagrams():
    rng = random.Random(20261019)
    seen = set()
    for _ in range(6000):
        case = _random_intensity_case(rng)
        expected = _intensity_outcome(reference_intensity_report, *case)
        assert _intensity_outcome(intensity_report, *case) == expected
        if isinstance(expected[0], type):
            seen.add(expected[1][:8])
        else:  # (development, degradation, target) present or not
            seen.add((expected[4] > 0, expected[5] > 0, expected[8] is not None))
    # every error the report raises, and every mix of event kinds and target
    errors = {"window [", "event at", "event ar", "initial "}
    assert seen == errors | set(itertools.product((False, True), repeat=3))


def test_intensity_flat_without_events():
    d = chain(2, horizon=4)
    initial = {f"o{i}": ("s1", 0) for i in range(10)}
    report = intensity_report([], d, (0, 4), initial)
    assert report.occupancy["s1"] == (10, 10, 10, 10, 10)
    assert report.development == 0
    assert report.degradation == 0
    assert report.ratio is None


def test_intensity_single_event_bookkeeping():
    d = chain(2, horizon=6)
    initial = {"o": ("s1", 0)}
    _, events = replay_script(d, initial, [("o", d.dev_arcs[0], 3)])
    report = intensity_report(events, d, (0, 6), initial)
    assert report.occupancy["s1"] == (1, 1, 1, 0, 0, 0, 0)
    assert report.occupancy["s2"] == (0, 0, 0, 1, 1, 1, 1)


def test_intensity_development_degradation_ratio():
    d = chain(4, horizon=10, back=True)
    f1, f2, f3 = d.dev_arcs
    b43 = d.back_arcs[2]
    initial = {"o": ("s1", 0)}
    script = [
        ("o", f1, 1), ("o", f2, 2), ("o", f3, 3), ("o", b43, 4),
        ("o", f3, 5), ("o", b43, 6), ("o", f3, 7),
    ]
    _, events = replay_script(d, initial, script)
    report = intensity_report(events, d, (0, 10), initial)
    assert report.development == 5
    assert report.degradation == 2
    assert report.ratio == pytest.approx(2.5)


def test_intensity_counts_only_window_events():
    d = chain(4, horizon=10)
    initial = {"o": ("s1", 0)}
    script = [("o", d.dev_arcs[0], 1), ("o", d.dev_arcs[1], 2), ("o", d.dev_arcs[2], 6)]
    _, events = replay_script(d, initial, script)
    report = intensity_report(events, d, (0, 4), initial)
    assert report.development == 2


def test_intensity_target_delta():
    d = chain(2, horizon=5)
    initial = {"a": ("s1", 0), "b": ("s1", 0)}
    _, events = replay_script(d, initial, [("a", d.dev_arcs[0], 1)])
    report = intensity_report(events, d, (0, 5), initial, target={"s2": 2})
    assert report.target_delta == {"s1": 1, "s2": -1}


def test_intensity_window_must_fit_horizon():
    d = chain(2, horizon=4)
    initial = {"o": ("s1", 0)}
    with pytest.raises(WindowOutOfRangeError):
        intensity_report([], d, (0, 9), initial)


def test_diagram_requires_known_endpoints():
    with pytest.raises(ValueError):
        CanonicalDiagram(
            id="bad",
            states=("s1",),
            dev_arcs=(),
            back_arcs=(),
            initial="s0",
            final="s1",
            horizon=3,
        )
