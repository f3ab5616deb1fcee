"""Hypothesis diagrams, after-effect propagation, scenario runs, and analysis."""

import dataclasses
import random
from time import perf_counter

import pytest

from statedev.scenario import (
    AfterEffectScheme,
    ArcRef,
    Backstep,
    Delivery,
    EventLogError,
    Firing,
    HierarchicalStructure,
    HorizonExceededError,
    HypothesisDiagram,
    IncomparableReportsError,
    MissingScoreError,
    Scenario,
    Skipped,
    TimeDiagramEntry,
    TrajectoryScenarioMismatchError,
    analyze_trajectory,
    compare_scenarios,
    due_deliveries,
    initial_configuration,
    run_scenario,
    step,
    validate_scenario,
)
from tests.oracles import reference_due, reference_run, reference_step, replay_events

D_TOP = HypothesisDiagram(
    id="D_top",
    states=("T0", "T1", "T2"),
    initial="T0",
    final="T2",
    labeled_arcs=(("T0", "T1", "advance"), ("T1", "T2", "finish")),
    back_arcs=(("T1", "T0"),),
)
D_LEFT = HypothesisDiagram(
    id="D_left",
    states=("L0", "L1", "L2", "L3"),
    initial="L0",
    final="L2",
    labeled_arcs=(
        ("L0", "L1", "left_go"),
        ("L1", "L2", "left_fin"),
        ("L2", "L3", "left_polish"),
    ),
    back_arcs=(("L1", "L0"), ("L2", "L1"), ("L2", "L0")),
)
D_RIGHT = HypothesisDiagram(
    id="D_right",
    states=("R0", "R1", "R2"),
    initial="R0",
    final="R2",
    labeled_arcs=(("R0", "R1", "right_go"), ("R1", "R2", "right_fin")),
    back_arcs=(("R1", "R0"),),
)

HIER = HierarchicalStructure(root="top", children={"top": ("left", "right")})

ADVANCE = ArcRef("top", "T0", "T1", "advance")
FINISH = ArcRef("top", "T1", "T2", "finish")
LEFT_GO = ArcRef("left", "L0", "L1", "left_go")
LEFT_FIN = ArcRef("left", "L1", "L2", "left_fin")
LEFT_POLISH = ArcRef("left", "L2", "L3", "left_polish")
RIGHT_GO = ArcRef("right", "R0", "R1", "right_go")
RIGHT_FIN = ArcRef("right", "R1", "R2", "right_fin")

SCHEME = AfterEffectScheme(
    isolated=frozenset({LEFT_POLISH}),
    coupled=frozenset({ADVANCE, FINISH, LEFT_GO, LEFT_FIN, RIGHT_GO, RIGHT_FIN}),
    individual_symbols=frozenset({"left_polish"}),
    general_symbols=frozenset(
        {"advance", "finish", "left_go", "left_fin", "right_go", "right_fin"}
    ),
    parent_links={
        ADVANCE: (LEFT_GO, RIGHT_GO),
        FINISH: (LEFT_FIN, RIGHT_FIN),
    },
    upward_threshold="all",
)


def scenario(time_diagram, timeout=3, horizon=3, scheme=SCHEME, sid="s"):
    return Scenario(
        id=sid,
        diagrams=(D_TOP, D_LEFT, D_RIGHT),
        hierarchy=HIER,
        assignment={"top": "D_top", "left": "D_left", "right": "D_right"},
        time_diagram=tuple(TimeDiagramEntry(*e) for e in time_diagram),
        after_effect=scheme,
        backstep_timeout=timeout,
        horizon=horizon,
    )


def firings(tr):
    return [(e.tick, e.subsystem, e.cause) for e in tr.events if isinstance(e, Firing)]


def test_events_of_two_kinds_with_equal_fields_differ():
    fields = (2, "left", "L0", "L1", "left_go", "direct")
    firing, skipped = Firing(*fields), Skipped(*fields)
    assert firing != skipped
    assert firing[:6] == skipped[:6]
    assert len({firing, skipped}) == 2
    assert (firing.kind, skipped.kind) == ("firing", "skipped")


def test_hypothesis_diagram_derives_alphabet():
    assert D_LEFT.alphabet == frozenset({"left_go", "left_fin", "left_polish"})


def test_order_decreasing_labeled_arc_is_a_validation_violation():
    bad = HypothesisDiagram(
        id="bad",
        states=("A", "B"),
        initial="A",
        final="B",
        labeled_arcs=(("B", "A", "x"),),
    )
    sc = Scenario(
        id="s",
        diagrams=(bad,),
        hierarchy=HierarchicalStructure(root="only", children={}),
        assignment={"only": "bad"},
        time_diagram=(),
        after_effect=AfterEffectScheme(
            isolated=frozenset(),
            coupled=frozenset({ArcRef("only", "B", "A", "x")}),
            individual_symbols=frozenset(),
            general_symbols=frozenset({"x"}),
            parent_links={},
        ),
        backstep_timeout=1,
        horizon=1,
    )
    report = validate_scenario(sc)
    assert not report.passed
    assert any("order" in v for v in report.violations)


def test_hypothesis_diagram_rejects_unknown_arc_endpoint():
    with pytest.raises(ValueError):
        HypothesisDiagram(
            id="bad",
            states=("A", "B"),
            initial="A",
            final="B",
            labeled_arcs=(("A", "C", "x"),),
        )


def test_hierarchy_rejects_detached_subsystems():
    with pytest.raises(ValueError):
        HierarchicalStructure(root="top", children={"other": ("leaf",)})


def test_validate_accepts_the_two_level_setup():
    sc = scenario([(0, "top", "advance")])
    assert validate_scenario(sc).passed


def test_validate_flags_symbol_in_both_partitions():
    scheme = dataclasses.replace(
        SCHEME, individual_symbols=frozenset({"left_polish", "advance"})
    )
    sc = scenario([(0, "top", "advance")], scheme=scheme)
    report = validate_scenario(sc)
    assert any("both" in v for v in report.violations)


def test_validate_flags_unknown_time_diagram_symbol():
    sc = scenario([(0, "top", "warp")])
    report = validate_scenario(sc)
    assert not report.passed
    assert any("warp" in v for v in report.violations)


def test_validate_flags_unassigned_subsystem():
    sc = Scenario(
        id="s",
        diagrams=(D_TOP, D_LEFT, D_RIGHT),
        hierarchy=HIER,
        assignment={"top": "D_top", "left": "D_left"},
        time_diagram=(),
        after_effect=SCHEME,
        backstep_timeout=1,
        horizon=1,
    )
    report = validate_scenario(sc)
    assert any("right" in v for v in report.violations)


def test_validate_warns_on_double_role_deliveries():
    sc = scenario([(0, "left", "left_fin")])
    report = validate_scenario(sc)
    assert report.passed
    assert any("left_fin" in w for w in report.warnings)
    # A parent link naming an arc that left's diagram lacks drives no arc
    # of left, so the direct delivery plays one role only.
    stray = ArcRef("left", "L0", "L2", "left_fin")
    links = {ADVANCE: (LEFT_GO, RIGHT_GO), FINISH: (stray, RIGHT_FIN)}
    scheme = dataclasses.replace(SCHEME, parent_links=links)
    report = validate_scenario(scenario([(0, "left", "left_fin")], scheme=scheme))
    assert report.warnings == ()


def test_validate_warns_on_a_parent_link_with_no_child_arcs():
    # "all" of no child arcs is none, so the parent fires with no delivery.
    scheme = dataclasses.replace(SCHEME, parent_links={ADVANCE: (), FINISH: (LEFT_FIN, RIGHT_FIN)})
    sc = scenario([], scheme=scheme)
    report = validate_scenario(sc)
    assert report.passed
    assert report.warnings == (
        f"parent link of {ADVANCE} has no child arcs, so it fires upward with no child firing",
    )
    assert firings(run_scenario(sc))[0] == (0, "top", "upward-propagation")


def test_validate_warns_on_an_upward_threshold_above_a_link_size():
    scheme = dataclasses.replace(SCHEME, upward_threshold=3)
    sc = scenario([(0, "left", "left_go"), (0, "right", "right_go")], scheme=scheme)
    report = validate_scenario(sc)
    assert report.passed
    for parent in (ADVANCE, FINISH):
        assert (
            f"parent link of {parent} has 2 child arc(s), fewer than the upward threshold 3, "
            "so it never fires upward"
        ) in report.warnings
    # Both children fire, and the parent does not.
    assert firings(run_scenario(sc)) == [(0, "left", "direct"), (0, "right", "direct")]
    # A threshold the links can reach, and "all", warn about no link.
    for threshold in (1, 2, "all"):
        scheme = dataclasses.replace(SCHEME, upward_threshold=threshold)
        assert not any("upward" in w for w in validate_scenario(scenario([], scheme=scheme)).warnings)


def test_general_symbol_cascades_down_in_one_tick():
    sc = scenario([(1, "top", "advance")], horizon=2)
    tr = run_scenario(sc)
    assert firings(tr) == [
        (1, "top", "direct"),
        (1, "left", "downward-propagation"),
        (1, "right", "downward-propagation"),
    ]
    final = tr.final_configuration()
    assert final["top"][0] == "T1"
    assert final["left"][0] == "L1"
    assert final["right"][0] == "R1"


def test_downward_mismatch_is_skipped_not_fired():
    # left is already past L0 when the parent advances, so only right follows.
    sc = scenario([(0, "left", "left_go"), (1, "top", "advance")], horizon=2)
    tr = run_scenario(sc)
    skipped = [e for e in tr.events if isinstance(e, Skipped)]
    assert [(e.tick, e.subsystem, e.actual_state) for e in skipped] == [(1, "left", "L1")]
    assert (1, "right", "downward-propagation") in firings(tr)


def test_individual_symbols_complete_a_tuple_and_propagate_up():
    sc = scenario(
        [(0, "top", "advance"), (1, "left", "left_fin"), (1, "right", "right_fin")],
        horizon=2,
    )
    tr = run_scenario(sc)
    assert firings(tr)[-3:] == [
        (1, "left", "direct"),
        (1, "right", "direct"),
        (1, "top", "upward-propagation"),
    ]
    assert tr.final_configuration()["top"][0] == "T2"


def test_upward_threshold_counts_distinct_tuple_members():
    scheme = dataclasses.replace(SCHEME, upward_threshold=1)
    sc = scenario([(0, "top", "advance"), (1, "left", "left_fin")], scheme=scheme, horizon=2)
    tr = run_scenario(sc)
    # one fired member suffices at threshold 1
    assert (1, "top", "upward-propagation") in firings(tr)


def test_partial_tuple_does_not_propagate_up_at_threshold_all():
    sc = scenario([(0, "top", "advance"), (1, "left", "left_fin")], horizon=2)
    tr = run_scenario(sc)
    assert (1, "top", "upward-propagation") not in firings(tr)
    assert tr.final_configuration()["top"][0] == "T1"


def test_ineffective_individual_delivery_is_logged():
    sc = scenario([(0, "left", "left_polish")], horizon=1)
    tr = run_scenario(sc)
    deliveries = [e for e in tr.events if isinstance(e, Delivery)]
    assert len(deliveries) == 1
    assert not deliveries[0].effective
    assert firings(tr) == []


def test_broadcast_reaches_every_subsystem_knowing_the_symbol():
    sc = scenario([(0, None, "left_polish")], horizon=1)
    assert due_deliveries(sc)[0] == [("left", "left_polish")]


def test_backstep_fires_after_timeout():
    sc = scenario([(0, "left", "left_go")], timeout=2, horizon=4)
    tr = run_scenario(sc)
    back = [e for e in tr.events if isinstance(e, Backstep)]
    assert [(e.tick, e.subsystem, e.src, e.dst) for e in back] == [(2, "left", "L1", "L0")]


def test_backstep_picks_smallest_order_drop():
    sc = scenario(
        [(0, "top", "advance"), (1, "left", "left_fin")], timeout=2, horizon=4
    )
    tr = run_scenario(sc)
    left_backs = [e for e in tr.events if isinstance(e, Backstep) and e.subsystem == "left"]
    # from L2 both L1 and L0 are reachable; the smaller drop wins
    assert left_backs[0].dst == "L1"


def test_backstep_requires_back_arcs():
    sc = scenario([], timeout=1, horizon=4)
    tr = run_scenario(sc)   # everyone idles in the initial state
    assert [e for e in tr.events if isinstance(e, Backstep)] == []


def test_run_scenario_equals_folding_step():
    sc = scenario(
        [(0, "top", "advance"), (1, "left", "left_fin"), (1, "right", "right_fin")],
        horizon=3,
    )
    tr = run_scenario(sc)
    config = initial_configuration(sc)
    due = due_deliveries(sc)
    events = []
    for tick in range(sc.horizon):
        events.extend(step(config, due.get(tick, ()), sc, tick))
    assert config == tr.final_configuration()
    assert tuple(events) == tr.events


def test_parent_links_fire_in_parent_order_however_declared():
    # Two independent parents complete in one tick, so the upward pass
    # fires them in the order it walks the links: ArcRef order, whatever
    # order the scheme declares them in.
    symbols = {"top": "top_go", "a": "a_go", "b": "b_go", "a1": "a1_go", "b1": "b1_go"}
    refs = {sub: ArcRef(sub, "s0", "s1", sym) for sub, sym in symbols.items()}
    links = [(refs["a"], (refs["a1"],)), (refs["b"], (refs["b1"],))]

    def declared(links):
        return Scenario(
            id="s",
            diagrams=tuple(HypothesisDiagram(f"D{sub}", ("s0", "s1"), "s0", "s1", (("s0", "s1", sym),))
                           for sub, sym in symbols.items()),
            hierarchy=HierarchicalStructure("top", {"top": ("a", "b"), "a": ("a1",), "b": ("b1",)}),
            assignment={sub: f"D{sub}" for sub in symbols},
            time_diagram=(TimeDiagramEntry(0, "b1", "b1_go"), TimeDiagramEntry(0, "a1", "a1_go")),
            after_effect=AfterEffectScheme(frozenset(), frozenset(refs.values()), frozenset(),
                                           frozenset(symbols.values()), dict(links)),
            horizon=1,
        )

    in_order, reversed_order = declared(links), declared(links[::-1])
    events = run_scenario(in_order).events
    assert run_scenario(reversed_order).events == events
    assert reference_run(in_order)[1] == events == reference_run(reversed_order)[1]
    upward = [e.subsystem for e in events if isinstance(e, Firing) and e.cause == "upward-propagation"]
    assert upward == ["a", "b"]


def test_replay_events_reproduces_the_run():
    sc = scenario([(0, "top", "advance"), (2, "left", "left_fin")], timeout=2, horizon=5)
    tr = run_scenario(sc)
    assert replay_events(tr, sc)


def test_run_rejects_deliveries_beyond_horizon():
    sc = scenario([(5, "top", "advance")], horizon=3)
    with pytest.raises(HorizonExceededError):
        run_scenario(sc)


def test_run_rejects_invalid_scenarios():
    sc = scenario([(0, "top", "warp")])
    with pytest.raises(Exception) as err:
        run_scenario(sc)
    assert "warp" in str(err.value)


SOLO = HypothesisDiagram(
    id="solo",
    states=("S0", "S1", "S2"),
    initial="S0",
    final="S2",
    labeled_arcs=(("S0", "S1", "g1"), ("S1", "S2", "g2")),
    back_arcs=(("S2", "S1"),),
)


def solo_scenario(horizon=10, timeout=2):
    refs = (ArcRef("solo", "S0", "S1", "g1"), ArcRef("solo", "S1", "S2", "g2"))
    scheme = AfterEffectScheme(
        isolated=frozenset(),
        coupled=frozenset(refs),
        individual_symbols=frozenset(),
        general_symbols=frozenset({"g1", "g2"}),
        parent_links={},
        upward_threshold="all",
    )
    return Scenario(
        id="solo-run",
        diagrams=(SOLO,),
        hierarchy=HierarchicalStructure(root="solo", children={}),
        assignment={"solo": "solo"},
        time_diagram=(
            TimeDiagramEntry(0, "solo", "g1"),
            TimeDiagramEntry(1, "solo", "g2"),
        ),
        after_effect=scheme,
        backstep_timeout=timeout,
        horizon=horizon,
    )


def test_frequencies_per_tick():
    # 2 coupled firings and 1 backstep in 10 ticks
    tr = run_scenario(solo_scenario())
    report = analyze_trajectory(tr, solo_scenario())
    assert report.coupled_total == 2
    assert report.backstep_total == 1
    assert report.coupled_frequency == pytest.approx(0.2)
    assert report.backstep_frequency == pytest.approx(0.1)


def test_completeness_and_non_final_lists():
    done = run_scenario(scenario(
        [(0, "top", "advance"), (1, "left", "left_fin"), (1, "right", "right_fin")],
        horizon=3,
    ))
    sc = scenario([], horizon=2)
    idle = run_scenario(sc)
    assert analyze_trajectory(done, done_scenario()).complete
    report = analyze_trajectory(idle, sc)
    assert not report.complete
    assert report.non_final == ("top", "left", "right")


def done_scenario():
    return scenario(
        [(0, "top", "advance"), (1, "left", "left_fin"), (1, "right", "right_fin")],
        horizon=3,
    )


def test_redundancy_incident_needs_both_symbol_kinds():
    sc = scenario(
        [(0, "left", "left_polish"), (1, "top", "advance"), (2, "left", "left_fin")],
        timeout=5,
        horizon=3,
    )
    tr = run_scenario(sc)
    report = analyze_trajectory(tr, sc)
    assert report.redundancy_incidents == (("left", (0, 2)),)


def test_efficiency_series_matches_hand_fold():
    sc = done_scenario()
    tr = run_scenario(sc)
    scores = {
        "top": {"T0": 0.0, "T1": 2.0, "T2": 5.0},
        "left": {"L0": 0.0, "L1": 1.0, "L2": 3.0, "L3": 4.0},
        "right": {"R0": 0.0, "R1": 1.0, "R2": 3.0},
    }
    series = analyze_trajectory(tr, sc, scores).efficiency
    assert series.aggregate == (4.0, 11.0, 11.0)
    assert series.per_subsystem["top"] == (2.0, 5.0, 5.0)


def test_efficiency_requires_total_score_table():
    sc = done_scenario()
    tr = run_scenario(sc)
    with pytest.raises(MissingScoreError):
        analyze_trajectory(tr, sc, {"top": {"T0": 0.0}})


@pytest.mark.parametrize("scores", [None, {"top": {"T0": 0.0}}], ids=["unscored", "scored"])
def test_analysis_names_a_subsystem_without_a_diagram(scores):
    sc = done_scenario()
    tr = run_scenario(sc)
    unassigned = dataclasses.replace(sc, assignment={"top": "D_top", "right": "D_right"})
    with pytest.raises(TrajectoryScenarioMismatchError, match="subsystem 'left' has no diagram"):
        analyze_trajectory(tr, unassigned, scores)


def test_compare_prefers_completeness_then_efficiency():
    complete = analyze_trajectory(run_scenario(done_scenario()), done_scenario())
    idle_sc = scenario([], horizon=3)
    idle = analyze_trajectory(run_scenario(idle_sc), idle_sc)
    result = compare_scenarios([idle, complete])
    assert result[0] == ("s",) or result[0][0] == complete.scenario_id
    # the complete run wins regardless of listing order
    assert complete.scenario_id in result[0]


def test_compare_groups_exact_ties():
    a = analyze_trajectory(run_scenario(done_scenario()), done_scenario())
    b = dataclasses.replace(a, scenario_id="twin")
    result = compare_scenarios([a, b])
    assert result == ((a.scenario_id, "twin"),)


def test_compare_needs_matching_subsystems():
    a = analyze_trajectory(run_scenario(done_scenario()), done_scenario())
    solo = analyze_trajectory(run_scenario(solo_scenario()), solo_scenario())
    with pytest.raises(IncomparableReportsError):
        compare_scenarios([a, solo])


def test_compare_breaks_ties_on_backsteps():
    sc_clean = scenario([(0, "top", "advance")], timeout=9, horizon=4, sid="clean")
    sc_noisy = scenario([(0, "top", "advance")], timeout=2, horizon=4, sid="noisy")
    clean = analyze_trajectory(run_scenario(sc_clean), sc_clean)
    noisy = analyze_trajectory(run_scenario(sc_noisy), sc_noisy)
    assert noisy.backstep_total > 0
    result = compare_scenarios([noisy, clean])
    assert result[0] == ("clean",)


def random_scenario(seed: int) -> Scenario:
    """A valid hierarchy of 3-6 chain diagrams: shared symbols, a random
    individual/general split, parent links from each parent arc to one
    coupled arc per child, and 0-2 deliveries per tick."""
    rng = random.Random(seed)
    subs = [f"n{i}" for i in range(rng.randint(3, 6))]
    children: dict[str, list[str]] = {}
    for i, sub in enumerate(subs[1:], start=1):
        children.setdefault(subs[rng.randrange(i)], []).append(sub)
    pool = ["a", "b", "c", "d", "e"]
    general = {sym for sym in pool if rng.random() < 0.6}
    diagrams, arcs = [], {}
    for sub in subs:
        states = tuple(f"{sub}s{j}" for j in range(rng.randint(3, 5)))
        labeled = tuple((states[j], states[j + 1], rng.choice(pool)) for j in range(len(states) - 1))
        backs = tuple((states[j + 1], states[j]) for j in range(len(states) - 1) if rng.random() < 0.7)
        if len(states) > 3 and rng.random() < 0.5:
            backs += ((states[3], states[1]),)
        diagrams.append(HypothesisDiagram(f"D{sub}", states, states[0], states[-1], labeled, backs))
        arcs[sub] = [ArcRef(sub, *arc) for arc in labeled]
    coupled = {ref for refs in arcs.values() for ref in refs if ref.symbol in general}
    links = {}
    for parent, kids in children.items():
        for ref in arcs[parent]:
            if ref not in coupled or rng.random() < 0.3:
                continue
            link = tuple(rng.choice(c) for kid in kids if (c := [r for r in arcs[kid] if r in coupled]))
            if link:
                links[ref] = link
    schedule = []
    for tick in range(rng.randint(15, 40)):
        for _ in range(rng.choice((0, 1, 1, 2))):
            sub = rng.choice(subs)
            symbol = rng.choice(arcs[sub]).symbol
            schedule.append(TimeDiagramEntry(tick, None if rng.random() < 0.2 else sub, symbol))
    sc = Scenario(
        id=f"random{seed}",
        diagrams=tuple(diagrams),
        hierarchy=HierarchicalStructure(subs[0], {k: tuple(v) for k, v in children.items()}),
        assignment={sub: f"D{sub}" for sub in subs},
        time_diagram=tuple(schedule),
        after_effect=AfterEffectScheme(
            isolated=frozenset(ref for refs in arcs.values() for ref in refs) - coupled,
            coupled=frozenset(coupled),
            individual_symbols=frozenset(pool) - general,
            general_symbols=frozenset(general),
            parent_links=links,
            upward_threshold=rng.choice(("all", 1)),
        ),
        backstep_timeout=rng.randint(1, 4),
        horizon=(schedule[-1].tick + 1 if schedule else 0) + rng.randint(0, 5),
    )
    assert validate_scenario(sc).passed, validate_scenario(sc).violations
    return sc


def stepped_configurations(sc):
    config = initial_configuration(sc)
    due = due_deliveries(sc)
    for tick in range(sc.horizon):
        step(config, due.get(tick, ()), sc, tick)
        yield dict(config)


def test_folded_configurations_equal_the_stepped_ones(two_level_model):
    corpus = list(two_level_model.scenarios.values()) + [random_scenario(seed) for seed in range(200)]
    seen = set()
    for sc in corpus:
        tr = run_scenario(sc)
        configs, events = reference_run(sc)
        assert tr.events == events, sc.id
        assert list(stepped_configurations(sc)) == configs, sc.id
        assert list(tr.configurations()) == configs, sc.id
        assert replay_events(tr, sc)
        seen.update((e.kind, getattr(e, "cause", "")) for e in tr.events)
    # the corpus reaches every kind of state change the fold replays
    assert {("firing", "direct"), ("firing", "downward-propagation"),
            ("firing", "upward-propagation"), ("backstep", ""), ("skipped", "")} <= seen


def scheme_variant(sc: Scenario, threshold, rng: random.Random) -> Scenario:
    """sc at the given upward threshold, with some coupled arcs that had no
    parent link given an empty one, which under "all" needs no fired child."""
    ae = sc.after_effect
    links = dict(ae.parent_links)
    for ref in sorted(ae.coupled - links.keys()):
        if rng.random() < 0.15:
            links[ref] = ()
    return dataclasses.replace(sc, after_effect=dataclasses.replace(
        ae, parent_links=links, upward_threshold=threshold))


def test_indexed_step_equals_the_reference_step():
    # From random configurations, reachable or not, with the scheduled and
    # with random deliveries, at both upward thresholds.
    symbols = ("a", "b", "c", "d", "e", "z")
    seen = set()
    for seed in range(600):
        rng = random.Random(f"step-{seed}")
        base = random_scenario(seed)
        for threshold in ("all", 1):
            sc = scheme_variant(base, threshold, rng)
            assert validate_scenario(sc).passed
            due = due_deliveries(sc)
            assert sorted(due) == sorted({entry.tick for entry in sc.time_diagram})
            for tick in range(sc.horizon + 2):
                assert due.get(tick, []) == reference_due(sc, tick)
            order = {ref: pos for pos, ref in enumerate(sc.after_effect.parent_links)}
            for _ in range(10):
                tick = rng.randrange(sc.horizon + 5)
                config = {sub: (rng.choice(sc.diagram_of(sub).states), rng.randint(0, tick))
                          for sub in sc.hierarchy.preorder}
                deliveries = reference_due(sc, tick) + [
                    (rng.choice(sc.hierarchy.preorder), rng.choice(symbols)) for _ in range(rng.randint(0, 6))
                ]
                rng.shuffle(deliveries)
                expected_config, expected_events = reference_step(config, deliveries, sc, tick)
                states = dict(config)
                assert tuple(step(states, deliveries, sc, tick)) == expected_events, (seed, threshold)
                assert states == expected_config, (seed, threshold)
                upward = [order[ArcRef(*e[1:5])] for e in expected_events
                          if e.kind == "firing" and e.cause == "upward-propagation"]
                seen.update((e.kind, getattr(e, "cause", ""), threshold) for e in expected_events)
                if upward != sorted(upward):
                    seen.add("upward pass revisits an earlier link")
                links = sc.after_effect.parent_links
                fired = {"direct": set(), "downward-propagation": set(), "upward-propagation": set()}
                for e in expected_events:
                    if e.kind != "firing":
                        continue
                    ref = ArcRef(*e[1:5])
                    if e.cause == "upward-propagation" and not links[ref]:
                        seen.add("a link with no child fires")
                    if e.cause == "upward-propagation" and fired[e.cause] & set(links[ref]):
                        seen.add("upward over two levels")
                    if e.cause == "downward-propagation" and any(ref in links.get(p, ()) for p in fired[e.cause]):
                        seen.add("downward over two levels")
                    fired[e.cause].add(ref)
    for threshold in ("all", 1):
        assert {("firing", "direct", threshold), ("firing", "downward-propagation", threshold),
                ("firing", "upward-propagation", threshold), ("backstep", "", threshold),
                ("skipped", "", threshold), ("delivery", "", threshold)} <= seen
    assert {"upward pass revisits an earlier link", "a link with no child fires",
            "upward over two levels", "downward over two levels"} <= seen


def test_run_scenario_is_linear_in_the_horizon():
    # one broadcast per tick for 16000 ticks: a stepper that rescans the
    # time diagram every tick takes tens of seconds here
    symbols = ("advance", "left_go", "right_go", "left_fin", "right_fin", "finish", "left_polish")
    horizon = 16000
    sc = scenario([(t, None, symbols[t % len(symbols)]) for t in range(horizon)],
                  timeout=2, horizon=horizon)
    started = perf_counter()
    tr = run_scenario(sc)
    elapsed = perf_counter() - started
    assert tr.horizon == horizon and len(tr.events) > horizon
    assert elapsed < 2.0, f"{elapsed:.2f} s"


def test_fold_rejects_a_log_that_does_not_replay():
    sc = scenario([(0, "top", "advance"), (2, "left", "left_fin")], timeout=2, horizon=5)
    tr = run_scenario(sc)
    i = next(i for i, e in enumerate(tr.events) if isinstance(e, Firing))
    moved = tr.events[i]._replace(src="T2")
    broken = dataclasses.replace(tr, events=tr.events[:i] + (moved,) + tr.events[i + 1:])
    assert not replay_events(broken, sc)
    with pytest.raises(EventLogError):
        broken.final_configuration()
    late = dataclasses.replace(tr, horizon=1)
    assert not replay_events(late, sc)
