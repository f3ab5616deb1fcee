"""The scenarios section of a model file, and trajectory files. `modelfile`
imports this module, and with it `scenario`, on the first scenario it
parses and on the first trajectory file it writes or loads."""

from __future__ import annotations

import operator
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, NamedTuple, Union

from .modelfile import (
    Issue, ModelFileError, _Collector, _declared, _entities, _expect_list, _expect_map, _Flat, _json_object,
    _parse_score_table, _strs,
)
from .reports import Encoded
from .scenario import (
    EVENT_KINDS, AfterEffectScheme, ArcRef, Event, HierarchicalStructure, HypothesisDiagram, Scenario, ScoreTable,
    TimeDiagramEntry, Trajectory,
)

# Version 2 stores the initial states and the event log; it is the one read.
TRAJECTORY_VERSION = 2

_LABELED_ARC = _Flat(lambda *values: values, "arc needs from/to/symbol; missing {}",
                     ("from", "src", str), ("to", "dst", str), ("symbol", "symbol", str))
_BACK_ARC = _Flat(lambda *values: values, "back arc needs from/to; missing {}", ("from", "src", str), ("to", "dst", str))
_ARC_REF = _Flat(ArcRef, "arc reference needs subsystem/from/to/symbol; missing {}",
                 ("subsystem", "subsystem", str), ("from", "src", str), ("to", "dst", str), ("symbol", "symbol", str))
_TIME_ENTRY = _Flat(TimeDiagramEntry, "bad entry: {}", ("tick", "tick", int),
                    ("target", "target", lambda v: None if v is None else str(v), None), ("symbol", "symbol", str))


def parse_scenario(sid, raw, where, out, done) -> Union[Scenario, None]:
    ok = True
    hier_raw = _expect_map(raw.get("hierarchy"), f"{where}.hierarchy", out)
    cwhere = f"{where}.hierarchy.children"
    try:
        hierarchy = HierarchicalStructure(
            root=str(hier_raw.get("root")),
            children={
                str(k): _strs(v, f"{cwhere}.{k}", out)
                for k, v in _expect_map(hier_raw.get("children"), cwhere, out).items()
            },
        )
    except ValueError as exc:
        out.invalid(f"{where}.hierarchy", str(exc))
        return None

    diagrams: list[HypothesisDiagram] = []
    for did, draw in _expect_map(raw.get("diagrams"), f"{where}.diagrams", out).items():
        dwhere = f"{where}.diagrams.{did}"
        draw = _expect_map(draw, dwhere, out)
        arcs = _LABELED_ARC.read_list(draw.get("arcs"), f"{dwhere}.arcs", out)
        backs = _BACK_ARC.read_list(draw.get("back_arcs"), f"{dwhere}.back_arcs", out)
        ok = ok and None not in arcs and None not in backs
        try:
            diagrams.append(HypothesisDiagram(
                id=did,
                states=_strs(draw.get("states"), f"{dwhere}.states", out),
                initial=str(draw.get("initial")),
                final=str(draw.get("final")),
                labeled_arcs=tuple(a for a in arcs if a is not None),
                back_arcs=tuple(a for a in backs if a is not None),
            ))
        except ValueError as exc:
            out.invalid(dwhere, str(exc))
            ok = False

    by_id = {d.id: d for d in diagrams}
    assigned = _expect_map(raw.get("assignment"), f"{where}.assignment", out)
    assignment = {str(k): str(v) for k, v in assigned.items()}
    for sub, did in sorted(assignment.items()):
        if did not in by_id:
            out.unresolved(f"{where}.assignment", f"diagram {did!r} is not declared")
            ok = False
        if sub not in hierarchy.preorder:
            out.unresolved(f"{where}.assignment", f"subsystem {sub!r} is not in the hierarchy")
            ok = False

    entries: list[TimeDiagramEntry] = []
    subsystems = set(hierarchy.preorder)
    for i, item in enumerate(_expect_list(raw.get("time_diagram"), f"{where}.time_diagram", out)):
        if type(item) is dict:  # an int tick, a str symbol and no target or a known one
            tick, target, symbol = item.get("tick"), item.get("target"), item.get("symbol")
            known = target is None or type(target) is str and target in subsystems
            if known and type(tick) is int and type(symbol) is str:
                entries.append(TimeDiagramEntry(tick, target, symbol))
                continue
        wi = f"{where}.time_diagram[{i}]"
        item = _expect_map(item, wi, out)
        target = item.get("target")
        if target is not None and str(target) not in subsystems:
            out.unresolved(wi, f"target {target!r} is not in the hierarchy")
            ok = False
        entry = _TIME_ENTRY.read(item, wi, out)
        if entry is None:
            ok = False
        else:
            entries.append(entry)

    awhere = f"{where}.after_effect"
    ae_raw = _expect_map(raw.get("after_effect"), awhere, out)
    individual = frozenset(_strs(ae_raw.get("individual_symbols"), f"{awhere}.individual_symbols", out))
    general = frozenset(_strs(ae_raw.get("general_symbols"), f"{awhere}.general_symbols", out))
    all_refs = {ArcRef(sub, *arc) for sub, did in assignment.items() if did in by_id for arc in by_id[did].labeled_arcs}

    def refs(items: Any, at: str, what: str) -> tuple[list[ArcRef], bool]:
        """The arc references listed at `at`, and whether all were read and known."""
        found, good = [], True
        for i, item in enumerate(_expect_list(items, at, out)):
            ref = _ARC_REF.read(item, f"{at}[{i}]", out)
            if ref is None:
                good = False
                continue
            if ref not in all_refs:
                out.unresolved(f"{at}[{i}]", f"unknown {what} {ref}")
                good = False
            found.append(ref)
        return found, good

    # Listed partitions may name unknown arcs without blocking the scenario;
    # an unlisted one is derived from the symbol classes.
    isolated, coupled = (
        frozenset(refs(ae_raw[key], f"{awhere}.{key}", "arc")[0]) if key in ae_raw
        else frozenset(r for r in all_refs if r.symbol in symbols)
        for key, symbols in (("isolated", individual), ("coupled", general))
    )
    parent_links: dict[ArcRef, tuple[ArcRef, ...]] = {}
    for i, item in enumerate(_expect_list(ae_raw.get("parent_links"), f"{awhere}.parent_links", out)):
        lwhere = f"{awhere}.parent_links[{i}]"
        item = _expect_map(item, lwhere, out)
        parent = _ARC_REF.read(item.get("parent"), f"{lwhere}.parent", out)
        if parent is None:
            ok = False
            continue
        if parent not in all_refs:
            out.unresolved(lwhere, f"unknown parent arc {parent}")
            ok = False
        children, good = refs(item.get("children"), f"{lwhere}.children", "child arc")
        ok = ok and good
        parent_links[parent] = tuple(children)

    threshold = ae_raw.get("upward_threshold", "all")
    if threshold != "all":
        try:
            threshold = int(threshold)
        except (TypeError, ValueError):
            out.invalid(awhere, "upward_threshold must be 'all' or an integer")
            ok = False
    if not ok:
        return None
    return Scenario(
        id=sid,
        diagrams=tuple(diagrams),
        hierarchy=hierarchy,
        assignment=assignment,
        time_diagram=tuple(entries),
        after_effect=AfterEffectScheme(isolated, coupled, individual, general, parent_links, threshold),
        backstep_timeout=int(raw.get("backstep_timeout", 1)),
        horizon=int(raw.get("horizon", 0)),
    )


def scenario_to_dict(sc: Scenario) -> dict:
    """The scenario's JSON object but its "time_diagram", which model and
    trajectory files each write in their own way."""
    ae = sc.after_effect

    def refs(found) -> list:
        return [_ARC_REF.dump(r) for r in sorted(found)]

    return {
        "hierarchy": {
            "root": sc.hierarchy.root,
            "children": {k: list(v) for k, v in sc.hierarchy.children.items() if v},
        },
        "diagrams": {
            d.id: {
                "states": list(d.states),
                "initial": d.initial,
                "final": d.final,
                "arcs": [_LABELED_ARC.dump(a) for a in d.labeled_arcs],
                "back_arcs": [_BACK_ARC.dump(a) for a in d.back_arcs],
            }
            for d in sc.diagrams
        },
        "assignment": dict(sc.assignment),
        "after_effect": {
            "individual_symbols": sorted(ae.individual_symbols),
            "general_symbols": sorted(ae.general_symbols),
            "isolated": refs(ae.isolated),
            "coupled": refs(ae.coupled),
            "parent_links": [
                {"parent": _ARC_REF.dump(parent), "children": [_ARC_REF.dump(c) for c in children]}
                for parent, children in ae.parent_links.items()
            ],
            "upward_threshold": ae.upward_threshold,
        },
        "backstep_timeout": sc.backstep_timeout,
        "horizon": sc.horizon,
    }


# ---------------------------------------------------------------------------
# Trajectory files: self-contained runs (scenario + event log) for later
# analysis. The configurations after each tick are not stored;
# `analyze_trajectory` folds them from the initial states and the events.

# Every event field holds a string but these.
_FIELD_TYPES = {"tick": int, "effective": bool}


class _EventCodec(NamedTuple):
    fields: tuple[str, ...]  # the JSON keys besides "kind"
    types: tuple[type, ...]  # the exact type of each value
    values: Callable  # a JSON object holding every key -> its values in field order
    make: Callable  # the values -> the event, whose kind is its class's own string
    head: str  # the event's canonical JSON up to the tick's value, %(field)s for the other fields


# The JSON keys of an event are its fields, "kind" last. They are written
# sorted, and "tick", every event's first field, sorts last.
_EVENT_CODECS = {
    kind: _EventCodec(
        cls._fields[:-1], tuple(_FIELD_TYPES.get(name, str) for name in cls._fields[:-1]),
        operator.itemgetter(*cls._fields[:-1]), cls,
        '{%s,"tick":' % ",".join(f'"{key}":%({key})s' for key in sorted(cls._fields[1:])),
    )
    for kind, cls in EVENT_KINDS.items()
}

_TYPE_NAMES = {str: "a string", int: "an integer", bool: "a boolean", dict: "an object", list: "a list"}


def event_from_dict(data: Any) -> Event:
    """The event of a JSON object of a known kind with every field of its
    exact type; otherwise a ValueError that names the first bad field."""
    try:
        codec = _EVENT_CODECS[data["kind"]]
        values = codec.values(data)
        if tuple(map(type, values)) == codec.types:
            return codec.make(*values)
    except (KeyError, TypeError):  # not an object, no known kind or a missing field
        pass
    kind = data.get("kind") if isinstance(data, dict) else None
    if not _declared(kind, _EVENT_CODECS):
        raise ValueError(f"unknown event kind {kind!r}")
    codec = _EVENT_CODECS[kind]
    # A missing field reads as None, which no field takes.
    typ, name = next((typ, name) for name, typ in zip(codec.fields, codec.types) if type(data.get(name)) is not typ)
    raise ValueError(f"{kind} event needs {_TYPE_NAMES[typ]} {name!r}")


def _json_text(value: Union[str, bool]) -> str:
    """A string or a boolean as `canonical_json` writes it."""
    return ("false", "true")[value] if type(value) is bool else encode_basestring_ascii(value)


def trajectory_to_dict(tr: Trajectory, sc: Scenario, scores: Union[ScoreTable, None] = None) -> dict:
    """The trajectory file's JSON object. Its two long lists, the scenario's time diagram
    and the event log, are `Encoded` texts written from templates, byte for
    byte as `canonical_json` writes `_TIME_ENTRY.dump(entry)` and
    `event._asdict()`; an event's text up to its tick is filled once per
    call for each distinct run of its other fields."""
    esc = encode_basestring_ascii
    entries = Encoded("[%s]" % ",".join([
        '{"symbol":%s,"tick":%d}' % (esc(e.symbol), e.tick) if e.target is None
        else '{"symbol":%s,"target":%s,"tick":%d}' % (esc(e.symbol), esc(e.target), e.tick)
        for e in sc.time_diagram
    ]))
    heads: dict[tuple, str] = {}

    def head(rest: tuple) -> str:
        codec = _EVENT_CODECS[rest[-1]]
        filled = heads[rest] = codec.head % dict(zip(codec.make._fields[1:], map(_json_text, rest)))
        return filled

    events = Encoded("[%s]" % ",".join(["%s%d}" % (heads.get(e[1:]) or head(e[1:]), e.tick) for e in tr.events]))
    return {
        "format_version": TRAJECTORY_VERSION,
        "kind": "trajectory-file",
        "scenario_id": sc.id,
        "scenario": {**scenario_to_dict(sc), "time_diagram": entries},
        "trajectory": {"horizon": tr.horizon, "events": events,
                       "initial": {sub: list(at) for sub, at in tr.initial.items()}},
        "scores": {sub: dict(states) for sub, states in scores.items()} if scores else None,
    }


def _typed(data: dict, key: str, typ: type, where: str, out: _Collector) -> Any:
    """data[key] when it has type typ; otherwise an issue and None."""
    value = data.get(key)
    if type(value) is typ:
        return value
    out.invalid(where, f"expected {_TYPE_NAMES[typ]}, got {type(value).__name__ if key in data else 'nothing'}")
    return None


def load_trajectory_text(text: str, source: str = "<string>"):
    """Returns (scenario, trajectory, score table or None), and collects
    every issue of a damaged file's structure. The event log is folded, and
    so checked, by `analyze_trajectory`."""
    data = _json_object(text, source)
    if data.get("kind") != "trajectory-file":
        raise ModelFileError([Issue("parse-error", source, "not a trajectory file")])
    version = data.get("format_version")
    if version != TRAJECTORY_VERSION:
        raise ModelFileError([Issue("unknown-version", source, f"format_version {version!r} is not supported")])
    out = _Collector()
    sid = _typed(data, "scenario_id", str, "scenario_id", out)
    raw_sc = _typed(data, "scenario", dict, "scenario", out)
    scenarios = _entities({sid: raw_sc}, "scenarios", out, parse_scenario) if sid is not None and raw_sc is not None else {}
    traw = _typed(data, "trajectory", dict, "trajectory", out)
    if traw is not None:
        horizon = _typed(traw, "horizon", int, "trajectory.horizon", out)
        if horizon is not None and horizon < 0:
            out.invalid("trajectory.horizon", f"must be >= 0, got {horizon}")
        states = {}
        for sub, item in (_typed(traw, "initial", dict, "trajectory.initial", out) or {}).items():
            if isinstance(item, list) and len(item) == 2 and type(item[0]) is str and type(item[1]) is int:
                states[sub] = tuple(item)
            else:
                out.invalid(f"trajectory.initial.{sub}", "expected [state, entry tick]")
        events = []
        for i, item in enumerate(_typed(traw, "events", list, "trajectory.events", out) or ()):
            try:
                events.append(event_from_dict(item))
            except ValueError as exc:
                out.invalid(f"trajectory.events[{i}]", str(exc))
    scores = data.get("scores")
    if scores is not None:
        scores = _parse_score_table(scores, "scores", out)
    if out.issues:
        raise ModelFileError(out.issues)
    return scenarios[sid], Trajectory(sid, horizon, states, tuple(events)), scores
