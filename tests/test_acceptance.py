"""Release gate: nine numbered end-to-end checks, one test per criterion.

Each test prints a single "criterion N <name>: PASS" line on success, so a
verbose run reads as a checklist; a failure shows up as the usual pytest
FAILED line for exactly one criterion. Runtime ceilings and corpus sizes
are pinned as module constants.
"""

import contextlib
import csv
import io
import json
import random
from time import perf_counter

import pytest

from statedev.canonical import (
    Arc,
    ArcKind,
    BeyondHorizonError,
    CanonicalDiagram,
    ObjectNotInFromStateError,
    TooEarlyError,
    UnknownArcError,
    intensity_report,
    replay_script,
)
from statedev.cli import main as cli_main
from statedev.composition import (
    IntervalMismatchError,
    IntervalOrderViolationError,
    PrescribedEntry,
    PrescribedSequence,
    TimedDiagramSet,
    check_consistency,
    compose_parallel,
    compose_sequential,
)
from statedev.dynamics import ParameterSeries, classify_series
from statedev import modelfile
from statedev import scenario
from statedev.scenario import (
    AfterEffectScheme,
    ArcRef,
    Backstep,
    Delivery,
    Firing,
    HierarchicalStructure,
    HypothesisDiagram,
    Scenario,
    Skipped,
    TimeDiagramEntry,
    run_scenario,
    validate_scenario,
)
from statedev.statespace import (
    MultipleMatchError,
    ParameterDecl,
    Predicate,
    SampleSpec,
    Scale,
    State,
    classify_hierarchical,
    evaluate_scale,
    sample_assignments,
)

from tests.conftest import TWO_LEVEL, chain
from tests.oracles import SpaceBoundExceededError, enumerate_attainable_sequences, execution_satisfies, replay_events

# Pinned ceilings and corpus sizes.
LIMIT_DETERMINISM_S = 1.0
LIMIT_CONSERVATION_S = 1.0
LIMIT_ORACLE_S = 120.0
ORACLE_SETS = 25
ORACLE_SEQS_PER_SET = 8  # 25 * 8 = 200 prescribed sequences
ORACLE_EXECUTION_CAP = 4000  # joint executions per set the oracle will scan
CLASSIFY_SAMPLES = 10_000
ISOLATION_SCENARIOS = 100
PRODUCT_WALKS = 50
REPORT_SCENARIOS = 100


def _passline(num: int, name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num} {name}: PASS{suffix}")


def _cli(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(list(argv))
    return code, out.getvalue()


# --- criterion 1 -----------------------------------------------------------


def test_criterion_1_determinism_and_replay(tmp_path):
    started = perf_counter()
    for name in ("coordinated", "neglected"):
        out = tmp_path / f"{name}.json"
        events = tmp_path / f"{name}.csv"
        runs = []
        for _ in range(5):  # identical invocations must give identical bytes
            code, text = _cli(
                "simulate", str(TWO_LEVEL), "--scenario", name,
                "--format", "json", "--out", str(out), "--events-out", str(events),
            )
            assert code == 0
            runs.append((text, out.read_bytes(), events.read_bytes()))
        assert all(run == runs[0] for run in runs[1:])

        sc, tr, _scores = modelfile.load_trajectory_file(str(out))
        # manual fold over the tick grid must retrace the stored trajectory
        config = dict(tr.initial)
        due = scenario.due_deliveries(sc)
        folded = []
        for tick in range(tr.horizon):
            folded.extend(scenario.step(config, due.get(tick, ()), sc, tick))
        assert tuple(folded) == tr.events
        assert config == tr.final_configuration()
        assert replay_events(tr, sc)

        fresh = run_scenario(sc)
        assert fresh.events == tr.events

    elapsed = perf_counter() - started
    assert elapsed < LIMIT_DETERMINISM_S
    _passline(1, "determinism and replay", f"{elapsed:.2f}s, 5 identical runs per scenario")


# --- criterion 2 -----------------------------------------------------------


def test_criterion_2_conservation_and_counters():
    started = perf_counter()
    d = chain(5, delta=1, horizon=12, back=True)
    objects = [f"o{i:03d}" for i in range(100)]
    initial = {obj: ("s1", 0) for obj in objects}

    arcs_from: dict[str, list[Arc]] = {}
    for arc in d.arcs:
        arcs_from.setdefault(arc.src, []).append(arc)

    rng = random.Random(20260818)
    position = {obj: "s1" for obj in objects}
    script = []
    for tick in range(1, 11):  # 10 ticks x 100 objects = 1000 transitions
        for obj in objects:
            arc = rng.choice(arcs_from[position[obj]])
            script.append((obj, arc, tick))
            position[obj] = arc.dst

    assert len(script) == 1000
    final_dist, events = replay_script(d, initial, script)
    assert len(events) == 1000
    assert len(final_dist) == 100

    report = intensity_report(events, d, (0, 12), initial)
    ticks = 12 - 0 + 1
    for t in range(ticks):
        assert sum(series[t] for series in report.occupancy.values()) == 100
    assert report.development + report.degradation == 1000
    assert sum(series[-1] for series in report.arc_cumulative.values()) == 1000

    # illegal scripts are rejected with the dedicated errors
    dev12 = Arc("s1", "s2", 1, ArcKind.DEV)
    with pytest.raises(ObjectNotInFromStateError):
        replay_script(d, initial, [("o000", Arc("s2", "s3", 1, ArcKind.DEV), 1)])
    with pytest.raises(TooEarlyError):
        replay_script(d, initial, [("o000", dev12, 0)])
    with pytest.raises(UnknownArcError):
        replay_script(d, initial, [("o000", Arc("s1", "s3", 1, ArcKind.DEV), 1)])
    with pytest.raises(BeyondHorizonError):
        replay_script(d, initial, [("o000", dev12, 13)])

    elapsed = perf_counter() - started
    assert elapsed < LIMIT_CONSERVATION_S
    _passline(2, "conservation and counters", f"{elapsed:.2f}s, 1000 transitions")


# --- criteria 3 and 4 ------------------------------------------------------


def _random_timed_set(rng: random.Random) -> TimedDiagramSet:
    """Up to 2 diagrams x 5 states x 8 arcs, forward spine always present."""
    diagrams = []
    for k in range(rng.randint(1, 2)):
        n = rng.randint(2, 5)
        states = tuple(f"d{k}s{i}" for i in range(n))
        arcs: dict[tuple[str, str, ArcKind], Arc] = {}
        for i in range(n - 1):
            arc = Arc(states[i], states[i + 1], rng.randint(0, 2), ArcKind.DEV)
            arcs[(arc.src, arc.dst, arc.kind)] = arc
        extras = rng.randint(0, max(0, 8 - (n - 1)))
        for _ in range(extras):
            if n < 2:
                break
            i, j = sorted(rng.sample(range(n), 2))
            if rng.random() < 0.45:
                # back arcs keep a strictly positive delay
                arc = Arc(states[j], states[i], rng.randint(1, 2), ArcKind.BACK)
            else:
                arc = Arc(states[i], states[j], rng.randint(0, 2), ArcKind.DEV)
            arcs.setdefault((arc.src, arc.dst, arc.kind), arc)
        diagrams.append(
            CanonicalDiagram(
                id=f"r{k}",
                states=states,
                dev_arcs=tuple(a for a in arcs.values() if a.kind is ArcKind.DEV),
                back_arcs=tuple(a for a in arcs.values() if a.kind is ArcKind.BACK),
                initial=states[0],
                final=states[-1],
                horizon=6,
            )
        )
    intervals = tuple(rng.randint(3, 6) for _ in diagrams)
    return TimedDiagramSet(tuple(diagrams), intervals)


def _random_sequence(rng: random.Random, dset: TimedDiagramSet) -> PrescribedSequence:
    deadlines = sorted(rng.randint(0, 6) for _ in range(rng.randint(1, 4)))
    entries = []
    for deadline in deadlines:
        di = rng.randrange(len(dset.diagrams))
        entries.append(
            PrescribedEntry(
                diagram=di,
                state=rng.choice(dset.diagrams[di].states),
                deadline=deadline,
            )
        )
    return PrescribedSequence(tuple(entries))


@pytest.fixture(scope="module")
def consistency_corpus():
    rng = random.Random(77)
    corpus = []
    regenerated = 0
    while len(corpus) < ORACLE_SETS:
        dset = _random_timed_set(rng)
        try:
            joint = enumerate_attainable_sequences(dset, horizon=6, bound=100_000)
        except SpaceBoundExceededError:
            regenerated += 1
            continue
        if len(joint) > ORACLE_EXECUTION_CAP:
            regenerated += 1
            continue
        sequences = [_random_sequence(rng, dset) for _ in range(ORACLE_SEQS_PER_SET)]
        corpus.append((dset, joint, sequences))
    assert regenerated < 500, "generator keeps hitting the enumeration cap"
    return corpus


def test_criterion_3_consistency_oracle_equivalence(consistency_corpus):
    started = perf_counter()
    compared = 0
    for dset, joint, sequences in consistency_corpus:
        for seq in sequences:
            verdict = check_consistency(dset, seq)
            oracle = any(execution_satisfies(dset, execution, seq) for execution in joint)
            assert verdict.consistent == oracle
            if verdict.consistent:
                assert len(verdict.satisfied_at) == len(seq.entries)
                for tick, entry in zip(verdict.satisfied_at, seq.entries):
                    assert tick <= entry.deadline
            compared += 1
    assert compared == ORACLE_SETS * ORACLE_SEQS_PER_SET
    elapsed = perf_counter() - started
    assert elapsed < LIMIT_ORACLE_S
    _passline(3, "consistency oracle equivalence", f"{elapsed:.1f}s, {compared} verdicts agree")


def test_criterion_4_deadline_monotonicity(consistency_corpus):
    relaxations = 0
    flips = 0
    for dset, _joint, sequences in consistency_corpus:
        for seq in sequences:
            if not check_consistency(dset, seq).consistent:
                continue
            for i in range(len(seq.entries)):
                deadlines = [e.deadline for e in seq.entries]
                deadlines[i] += 1
                for j in range(i + 1, len(deadlines)):
                    # keep the deadline list non-decreasing; only ever raises
                    deadlines[j] = max(deadlines[j], deadlines[j - 1])
                relaxed = PrescribedSequence(
                    tuple(
                        PrescribedEntry(e.diagram, e.state, dl)
                        for e, dl in zip(seq.entries, deadlines)
                    )
                )
                relaxations += 1
                if not check_consistency(dset, relaxed).consistent:
                    flips += 1
    assert relaxations > 0
    assert flips == 0
    _passline(4, "deadline monotonicity", f"{relaxations} relaxations, 0 flips")


# --- criterion 5 -----------------------------------------------------------


def _scale(sid: str, exprs: list[str], names: list[str]) -> Scale:
    return Scale(
        id=sid,
        predicates=tuple(Predicate(f"{sid}[{i}]", e) for i, e in enumerate(exprs)),
        states=tuple(State(names[i], i + 1) for i in range(len(exprs))),
    )


def test_criterion_5_classification(basic_model):
    partition = basic_model.scales["growth3"]
    spec = SampleSpec(samples=CLASSIFY_SAMPLES, seed=11)
    x_wide = {"x": ParameterDecl("x", bounds=(-10.0, 20.0))}
    classified = 0
    for assignment in sample_assignments(spec, ("x",), x_wide):
        state = evaluate_scale(partition, assignment)
        assert state in partition.states
        classified += 1
    assert classified == CLASSIFY_SAMPLES

    overlapping = _scale("ov", ["x < 10", "x >= 5"], ["lowish", "highish"])
    overlap_spec = SampleSpec(samples=CLASSIFY_SAMPLES, seed=12)
    x_overlap = {"x": ParameterDecl("x", bounds=(5.0, 9.99))}
    rejected = 0
    for assignment in sample_assignments(overlap_spec, ("x",), x_overlap):
        with pytest.raises(MultipleMatchError) as info:
            evaluate_scale(overlapping, assignment)
        assert info.value.positions == (1, 2)
        rejected += 1
    assert rejected == CLASSIFY_SAMPLES

    classificator = basic_model.classificators["growth"]
    walked = 0
    deepened = 0
    path_spec = SampleSpec(samples=CLASSIFY_SAMPLES, seed=13)
    for assignment in sample_assignments(path_spec, ("x",), x_wide):
        path = classify_hierarchical(classificator, assignment)
        scale = classificator.root
        for depth, state in enumerate(path):
            assert state in scale.states
            child = classificator.refinements.get((scale.id, state.scale_position))
            if depth + 1 < len(path):
                assert child is not None, "path descends where no refinement exists"
                scale = child
            else:
                assert child is None, "path stops although a refinement continues"
        if len(path) > 1:
            deepened += 1
        walked += 1
    assert walked == CLASSIFY_SAMPLES
    assert deepened > 0  # the refined branch is actually exercised
    _passline(5, "classification", f"3 x {CLASSIFY_SAMPLES} samples")


# --- criterion 6 -----------------------------------------------------------


def _series(values) -> ParameterSeries:
    return ParameterSeries("x", tuple(range(len(values))), tuple(values))


def _assert_cycle_sound(values, period) -> None:
    # reported period p must satisfy x(t) == x(t-p) everywhere it applies
    assert all(values[t] == values[t - period] for t in range(period, len(values)))


def test_criterion_6_dynamics_estimator():
    checked = 0

    for slope in (0.5, 1.0, 2.0, 3.25):
        for intercept in (-3.0, 0.0, 7.5):
            rising = [slope * t + intercept for t in range(12)]
            tc = classify_series(_series(rising))
            assert tc.monotone == "increasing"
            assert tc.critical_points == ()
            assert tc.cyclic_period is None
            falling = [-slope * t + intercept for t in range(12)]
            tc = classify_series(_series(falling))
            assert tc.monotone == "decreasing"
            assert tc.critical_points == ()
            checked += 2

    waves = {
        4: [0.0, 1.0, 0.0, -1.0],
        6: [0.0, 1.0, 2.0, 1.0, 0.0, -1.0],
        8: [0.0, 1.0, 2.0, 3.0, 2.0, 1.0, 0.0, -1.0],
    }
    for period, shape in waves.items():
        for amplitude in (1.0, 2.5):
            values = [v * amplitude for v in shape * 3]
            tc = classify_series(_series(values))
            assert tc.cyclic_period == period
            _assert_cycle_sound(values, tc.cyclic_period)
            checked += 1

    for center in (4, 5, 6):
        for sharpness in (1.0, 0.5):
            values = [-sharpness * (t - center) ** 2 for t in range(11)]
            tc = classify_series(_series(values))
            assert tc.monotone == "none"
            assert tc.critical_points == (center,)
            assert tc.cyclic_period is None
            checked += 1

    _passline(6, "dynamics estimator", f"{checked} noiseless series, all exact")


# --- criteria 7 and 9 ------------------------------------------------------


def _random_scenario(rng: random.Random, sid: str, individual_only: bool) -> Scenario:
    """Two-level hierarchy with per-subsystem chains and a random scheme."""
    kids = tuple(f"c{i}" for i in range(rng.randint(2, 3)))
    hierarchy = HierarchicalStructure(root="root", children={"root": kids})
    subsystems = ("root",) + kids

    diagrams = []
    assignment = {}
    arcs_by_sub: dict[str, tuple[tuple[str, str, str], ...]] = {}
    for sub in subsystems:
        n = rng.randint(3, 5)
        states = tuple(f"{sub}_q{i}" for i in range(n))
        labeled = tuple((states[i], states[i + 1], f"{sub}_s{i}") for i in range(n - 1))
        back = tuple((states[i + 1], states[i]) for i in range(n - 1) if rng.random() < 0.5)
        diagram = HypothesisDiagram(
            id=f"H_{sub}",
            states=states,
            initial=states[0],
            final=states[rng.randint(max(1, n - 2), n - 1)],
            labeled_arcs=labeled,
            back_arcs=back,
        )
        diagrams.append(diagram)
        assignment[sub] = diagram.id
        arcs_by_sub[sub] = labeled

    isolated: set[ArcRef] = set()
    coupled: set[ArcRef] = set()
    individual: set[str] = set()
    general: set[str] = set()
    owner: dict[str, str] = {}
    for sub in subsystems:
        for src, dst, sym in arcs_by_sub[sub]:
            owner[sym] = sub
            ref = ArcRef(sub, src, dst, sym)
            if individual_only or rng.random() < 0.4:
                isolated.add(ref)
                individual.add(sym)
            else:
                coupled.add(ref)
                general.add(sym)

    parent_links: dict[ArcRef, tuple[ArcRef, ...]] = {}
    if not individual_only:
        per_child: dict[str, list[ArcRef]] = {}
        for ref in coupled:
            if ref.subsystem != "root":
                per_child.setdefault(ref.subsystem, []).append(ref)
        for refs in per_child.values():
            refs.sort()
        root_refs = sorted(r for r in coupled if r.subsystem == "root")
        for ref in root_refs:
            if per_child and rng.random() < 0.7:
                chosen = rng.sample(sorted(per_child), rng.randint(1, len(per_child)))
                parent_links[ref] = tuple(
                    sorted(rng.choice(per_child[c]) for c in chosen)
                )

    scheme = AfterEffectScheme(
        isolated=frozenset(isolated),
        coupled=frozenset(coupled),
        individual_symbols=frozenset(individual),
        general_symbols=frozenset(general),
        parent_links=parent_links,
        upward_threshold="all",
    )

    horizon = rng.randint(6, 9)
    symbols = sorted(individual | general)
    entries = []
    for _ in range(rng.randint(3, 7)):
        sym = rng.choice(symbols)
        target = owner[sym] if rng.random() < 0.8 else None
        entries.append(TimeDiagramEntry(tick=rng.randrange(horizon), target=target, symbol=sym))

    sc = Scenario(
        id=sid,
        diagrams=tuple(diagrams),
        hierarchy=hierarchy,
        assignment=assignment,
        time_diagram=tuple(entries),
        after_effect=scheme,
        backstep_timeout=rng.randint(2, 4),
        horizon=horizon,
    )
    report = validate_scenario(sc)
    assert report.passed, report.violations
    return sc


def test_criterion_7_after_effect_semantics(two_level_model):
    sc = two_level_model.scenarios["coordinated"]
    tr = run_scenario(sc)
    firings = [
        (e.tick, e.subsystem, e.symbol, e.cause) for e in tr.events if isinstance(e, Firing)
    ]
    # tick 0: general delivery fires the parent and cascades to both children;
    # tick 1: direct tuple completions lift the parent in the same tick
    assert firings == [
        (0, "top", "advance", "direct"),
        (0, "left", "left_go", "downward-propagation"),
        (0, "right", "right_go", "downward-propagation"),
        (1, "left", "left_fin", "direct"),
        (1, "right", "right_fin", "direct"),
        (1, "top", "finish", "upward-propagation"),
    ]

    isolated_firings = 0
    for seed in range(ISOLATION_SCENARIOS):
        rng = random.Random(1000 + seed)
        sc_r = _random_scenario(rng, f"iso{seed}", individual_only=seed % 2 == 0)
        tr_r = run_scenario(sc_r)
        delivered = {
            (e.tick, e.subsystem, e.symbol)
            for e in tr_r.events
            if isinstance(e, Delivery) and e.effective
        }
        for event in tr_r.events:
            if isinstance(event, Skipped):
                # cascade skips presuppose a coupled parent with links
                assert sc_r.after_effect.parent_links
            if isinstance(event, Firing):
                ref = ArcRef(event.subsystem, event.src, event.dst, event.symbol)
                if ref in sc_r.after_effect.isolated:
                    # individual symbols act on the addressed subsystem only
                    assert event.cause == "direct"
                    assert (event.tick, event.subsystem, event.symbol) in delivered
                    isolated_firings += 1
    assert isolated_firings > 0
    _passline(
        7, "after-effect semantics",
        f"cause labels exact, {ISOLATION_SCENARIOS} isolation scenarios",
    )


# --- criterion 8 -----------------------------------------------------------


def _random_component(rng: random.Random, tag: str) -> CanonicalDiagram:
    n = rng.randint(2, 4)
    states = tuple(f"{tag}{i}" for i in range(n))
    dev = [Arc(states[i], states[i + 1], rng.randint(0, 2), ArcKind.DEV) for i in range(n - 1)]
    back = []
    if n > 1 and rng.random() < 0.6:
        j = rng.randint(1, n - 1)
        back.append(Arc(states[j], states[j - 1], rng.randint(1, 2), ArcKind.BACK))
    return CanonicalDiagram(
        id=f"comp_{tag}",
        states=states,
        dev_arcs=tuple(dev),
        back_arcs=tuple(back),
        initial=states[0],
        final=states[-1],
        horizon=8,
    )


def test_criterion_8_composition_preconditions():
    with pytest.raises(IntervalOrderViolationError):
        compose_sequential(TimedDiagramSet((chain(3, horizon=9), chain(3, horizon=9)), (5, 5)))
    with pytest.raises(IntervalOrderViolationError):
        compose_sequential(TimedDiagramSet((chain(3, horizon=9), chain(3, horizon=9)), (6, 4)))
    with pytest.raises(IntervalMismatchError):
        compose_parallel(TimedDiagramSet((chain(3, horizon=9), chain(3, horizon=9)), (4, 5)))

    for n in (2, 3, 4):
        for m in (2, 3, 4):
            fragment = compose_parallel(
                TimedDiagramSet((chain(n, horizon=10), chain(m, horizon=10)), (8, 8))
            )
            assert len(fragment.diagram.states) == n * m
            assert len(fragment.diagram.dev_arcs) == n * (m - 1) + m * (n - 1)

    rng = random.Random(4242)
    for _ in range(PRODUCT_WALKS):
        left = _random_component(rng, "a")
        right = _random_component(rng, "b")
        fragment = compose_parallel(TimedDiagramSet((left, right), (8, 8)))
        by_tuple = {tup: sid for sid, tup in fragment.tuples.items()}

        current = by_tuple[(left.initial, right.initial)]
        entered = 0
        walk: list[tuple[int, Arc]] = []
        for tick in range(0, 9):
            options = [
                arc
                for arc in fragment.diagram.arcs
                if arc.src == current and entered + arc.delta <= tick
            ]
            if options and rng.random() < 0.8:
                arc = rng.choice(options)
                walk.append((tick, arc))
                current, entered = arc.dst, tick

        for index, component in enumerate((left, right)):
            script = []
            for tick, arc in walk:
                origin_index, component_arc = fragment.arc_origin[arc]
                if origin_index == index:
                    script.append(("w", component_arc, tick))
            initial = {"w": (component.initial, 0)}
            dist, _ = replay_script(component, initial, script)
            assert dist["w"][0] == fragment.tuples[current][index]

    _passline(8, "composition preconditions", f"{PRODUCT_WALKS} product walks project legally")


# --- criterion 9 -----------------------------------------------------------


def _recount_events_csv(path, sc: Scenario) -> dict:
    subs = sc.hierarchy.preorder
    state = {sub: sc.diagram_of(sub).initial for sub in subs}
    backsteps = {sub: 0 for sub in subs}
    coupled = {sub: 0 for sub in subs}
    individual_ticks: dict[str, set[int]] = {}
    general_ticks: dict[str, set[int]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            sub = row["subsystem"]
            if row["kind"] == "firing":
                state[sub] = row["dst"]
                if ArcRef(sub, row["src"], row["dst"], row["symbol"]) in sc.after_effect.coupled:
                    coupled[sub] += 1
            elif row["kind"] == "backstep":
                state[sub] = row["dst"]
                backsteps[sub] += 1
            elif row["kind"] == "delivery":
                bucket = individual_ticks if row["cause"] == "individual" else general_ticks
                bucket.setdefault(sub, set()).add(int(row["tick"]))
    horizon = max(sc.horizon, 1)
    incidents = [
        {"subsystem": sub, "ticks": sorted(individual_ticks[sub] | general_ticks[sub])}
        for sub in subs
        if individual_ticks.get(sub) and general_ticks.get(sub)
    ]
    return {
        "complete": all(state[sub] == sc.diagram_of(sub).final for sub in subs),
        "redundancy_incidents": incidents,
        "backstep_total": sum(backsteps.values()),
        "backstep_per_sub": dict(sorted(backsteps.items())),
        "backstep_frequency": sum(backsteps.values()) / horizon,
        "coupled_total": sum(coupled.values()),
        "coupled_per_sub": dict(sorted(coupled.items())),
        "coupled_frequency": sum(coupled.values()) / horizon,
    }


def test_criterion_9_report_log_agreement(tmp_path):
    backstep_seen = 0
    redundancy_seen = 0
    for seed in range(REPORT_SCENARIOS):
        rng = random.Random(5000 + seed)
        sc = _random_scenario(rng, f"rep{seed}", individual_only=False)
        model_path = tmp_path / f"rep{seed}.json"
        model_path.write_text(
            json.dumps({"format_version": 1, "scenarios": {sc.id: modelfile.scenario_to_dict(sc)}})
        )
        events_path = tmp_path / f"rep{seed}.csv"
        code, text = _cli(
            "simulate", str(model_path), "--scenario", sc.id,
            "--format", "json", "--events-out", str(events_path),
        )
        assert code == 0
        body = json.loads(text)["body"]
        recount = _recount_events_csv(events_path, sc)

        assert body["complete"] == recount["complete"]
        assert body["redundancy_incidents"] == recount["redundancy_incidents"]
        assert body["omitted_possibilities"]["total"] == recount["backstep_total"]
        assert body["omitted_possibilities"]["per_subsystem"] == recount["backstep_per_sub"]
        assert body["omitted_possibilities"]["frequency"] == pytest.approx(
            recount["backstep_frequency"]
        )
        assert body["complexness"]["total"] == recount["coupled_total"]
        assert body["complexness"]["per_subsystem"] == recount["coupled_per_sub"]
        assert body["complexness"]["frequency"] == pytest.approx(recount["coupled_frequency"])

        backstep_seen += recount["backstep_total"]
        redundancy_seen += len(recount["redundancy_incidents"])
    assert backstep_seen > 0  # the corpus exercises omitted possibilities
    assert redundancy_seen > 0  # and at least one redundancy incident
    _passline(9, "report and log agreement", f"{REPORT_SCENARIOS} scenarios recounted")
