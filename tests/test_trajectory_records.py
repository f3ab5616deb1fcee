"""The per-kind record writers and the exact-type readers of trajectory
files and event CSVs against the record-by-record references in
`tests/oracles.py`: the same bytes on seeded runs whose ids hold every
character JSON or CSV must escape or quote, and the same records or the
same issues on files damaged one field at a time."""

import dataclasses
import functools
import json
import random

import pytest

from statedev import cli
from statedev.modelfile import ModelFileError, _Collector, parse_model, serialize_trajectory
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
)
from statedev.scenariofile import load_trajectory_text
from tests.oracles import (
    reference_read_events,
    reference_read_time_diagram,
    reference_serialize_trajectory,
    reference_write_events_csv,
)
from tests.conftest import TWO_LEVEL
from tests.test_scenario import random_scenario

# Prefixes for ids: non-ASCII, outside the BMP, JSON and CSV specials, line
# and paragraph separators, a leading space and format placeholders.
ODD = ("é", "𝄞", '"', "\\", ",", "\n", "\r", "\r\n", "\u2028", "\u2029", " ", "\t", "%s", "%d", "{", "\x00", "'")


def adversarial(sc: Scenario, rng: random.Random) -> Scenario:
    """sc with every subsystem, state, symbol and diagram id renamed: the
    first id of each kind to the empty string, every other one behind one
    or two odd prefixes."""
    names: dict[tuple[str, str], str] = {}

    def rename(kind: str, old: str) -> str:
        if (kind, old) not in names:
            first = not any(k == kind for k, _ in names)
            names[kind, old] = "" if first else "".join(rng.sample(ODD, rng.randint(1, 2))) + old
        return names[kind, old]

    sub, state, symbol = (functools.partial(rename, kind) for kind in ("subsystem", "state", "symbol"))

    def ref(r: ArcRef) -> ArcRef:
        return ArcRef(sub(r.subsystem), state(r.src), state(r.dst), symbol(r.symbol))

    ae = sc.after_effect
    renamed = Scenario(
        id=rng.choice(ODD) + sc.id,
        diagrams=tuple(
            HypothesisDiagram(
                rename("diagram", d.id), tuple(map(state, d.states)), state(d.initial), state(d.final),
                tuple((state(a), state(b), symbol(s)) for a, b, s in d.labeled_arcs),
                tuple((state(a), state(b)) for a, b in d.back_arcs),
            )
            for d in sc.diagrams
        ),
        hierarchy=HierarchicalStructure(
            sub(sc.hierarchy.root), {sub(k): tuple(map(sub, v)) for k, v in sc.hierarchy.children.items()}
        ),
        assignment={sub(k): rename("diagram", v) for k, v in sc.assignment.items()},
        time_diagram=tuple(
            TimeDiagramEntry(e.tick, None if e.target is None else sub(e.target), symbol(e.symbol))
            for e in sc.time_diagram
        ),
        after_effect=AfterEffectScheme(
            frozenset(map(ref, ae.isolated)), frozenset(map(ref, ae.coupled)),
            frozenset(map(symbol, ae.individual_symbols)), frozenset(map(symbol, ae.general_symbols)),
            {ref(p): tuple(map(ref, kids)) for p, kids in ae.parent_links.items()}, ae.upward_threshold,
        ),
        backstep_timeout=sc.backstep_timeout,
        horizon=sc.horizon,
    )
    assert len({(kind, new) for (kind, _), new in names.items()}) == len(names)
    return renamed


def scores_for(sc: Scenario, rng: random.Random):
    if rng.random() < 0.3:
        return None
    return {sub: {s: rng.choice((0.0, 1.5, -2.0, 1e-7, 3e20)) for s in sc.diagram_of(sub).states}
            for sub in sc.hierarchy.preorder}


@pytest.mark.parametrize("seed", range(40))
def test_writers_and_readers_equal_the_references(seed, tmp_path):
    rng = random.Random(f"records-{seed}")
    sc = adversarial(random_scenario(seed), rng)
    tr = run_scenario(sc)
    scores = scores_for(sc, rng)
    text = serialize_trajectory(tr, sc, scores)
    assert text == reference_serialize_trajectory(tr, sc, scores)
    cli._write_events_csv(str(tmp_path / "new.csv"), tr)
    reference_write_events_csv(str(tmp_path / "reference.csv"), tr)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    sc2, tr2, scores2 = load_trajectory_text(text)
    assert sc2 == sc
    assert tr2 == tr
    assert scores2 == scores
    data = json.loads(text)
    out = _Collector()
    events = reference_read_events(data["trajectory"]["events"], out)
    entries = reference_read_time_diagram(data["scenario"]["time_diagram"], "", sc.hierarchy.preorder, out)
    assert not out.issues
    assert typed(sc2.time_diagram, tr2.events) == typed(entries, events)


def test_random_runs_hold_every_event_kind():
    kinds = set()
    for seed in range(40):
        kinds.update(event.kind for event in run_scenario(random_scenario(seed)).events)
    assert kinds == {"delivery", "firing", "backstep", "skipped"}


# One valid file; its event log and time diagram are replaced below.
SCENARIO = parse_model(str(TWO_LEVEL)).scenarios["coordinated"]
BASE = json.loads(serialize_trajectory(run_scenario(SCENARIO), SCENARIO))
EVENTS = [
    Delivery(1, "left", "go", "general", True)._asdict(),
    Firing(1, "left", "a", "b", "go", "direct")._asdict(),
    Backstep(2, "top", "b", "a")._asdict(),
    Skipped(2, "right", "a", "b", "go", "b")._asdict(),
]
ENTRIES = [{"tick": 0, "target": "left", "symbol": "go"}, {"tick": 1, "symbol": "go"}]
MISSING = object()
WRONG = (True, False, 0, 1, 1.0, "1", None, ["x"], {}, MISSING)


def damaged(item: dict, key: str, value) -> dict:
    item = dict(item)
    if value is MISSING:
        item.pop(key, None)
    else:
        item[key] = value
    return item


def typed(entries, events) -> tuple:
    """The records with the type of every value, so True does not pass for 1."""
    return (
        tuple((e, type(e.tick), type(e.target), type(e.symbol)) for e in entries),
        tuple((event, type(event), tuple(map(type, event))) for event in events),
    )


def outcome(events: list, entries: list):
    """What the loader makes of BASE with these lists: records or issues."""
    data = json.loads(json.dumps(BASE))
    data["trajectory"]["events"] = events
    data["scenario"]["time_diagram"] = entries
    try:
        sc, tr, _ = load_trajectory_text(json.dumps(data))
    except ModelFileError as exc:
        return "issues", exc.issues
    return "records", typed(sc.time_diagram, tr.events)


def expected(events: list, entries: list):
    """What the record-by-record readers make of the same lists."""
    out = _Collector()
    found = reference_read_events(events, out)
    made = reference_read_time_diagram(entries, f"scenarios.{SCENARIO.id}", SCENARIO.hierarchy.preorder, out)
    if out.issues:
        return "issues", tuple(out.issues)
    return "records", typed(made, found)


BAD_EVENTS = [
    *(damaged(event, key, value) for event in EVENTS for key in event for value in WRONG
      if value is MISSING or type(value) is not type(event[key])),
    *(damaged(EVENTS[1], "kind", kind) for kind in ("teleport", ["firing"], None, 1, "", MISSING)),
    "firing", 5, None, ["firing"], [], {},
]
BAD_ENTRIES = [
    *(damaged(entry, key, value) for entry in ENTRIES for key in ("tick", "target", "symbol")
      for value in (*WRONG, "nowhere", "top")),
    "entry", 5, None, [], {},
]


@pytest.mark.parametrize("index", range(len(BAD_EVENTS)))
def test_a_damaged_event_gives_the_reference_issues(index):
    events = [*EVENTS, BAD_EVENTS[index], *EVENTS]
    got = outcome(events, ENTRIES)
    assert got == expected(events, ENTRIES)
    assert got[0] == "issues"


@pytest.mark.parametrize("index", range(len(BAD_ENTRIES)))
def test_a_damaged_time_diagram_entry_gives_the_reference_records_or_issues(index):
    entries = [*ENTRIES, BAD_ENTRIES[index], *ENTRIES]
    assert outcome(EVENTS, entries) == expected(EVENTS, entries)


def test_valid_lists_load_through_both_paths():
    got = outcome(EVENTS, ENTRIES)
    assert got == expected(EVENTS, ENTRIES)
    assert got[0] == "records" and len(got[1][1]) == len(EVENTS)


def test_a_run_without_deliveries_or_events_writes_as_the_reference():
    sc = dataclasses.replace(SCENARIO, time_diagram=())
    tr = run_scenario(sc, 0)
    assert not tr.events
    text = serialize_trajectory(tr, sc)
    assert text == reference_serialize_trajectory(tr, sc)
    assert load_trajectory_text(text)[1] == tr
