"""Versioned JSON model files and trajectory files.

One model file is a single JSON document with named sections; predicates
and rule cells are strings in the predicate grammar. Parsing never stops
at the first problem: every parse, type, and reference issue in the file
is collected and raised together, so one round trip shows them all.

Each section's JSON format is stated once: `_SECTIONS` pairs the section
key with its `ModelFile` field and the functions that parse and dump one
entity, and each flat record (arcs, arc references, sequence and
time-diagram entries) is read and written through one field table. A
trajectory file's long lists, its time diagram and event log, are written
from one template per record shape and read on an exact-type path first.
Non-finite numbers are rejected wherever a number enters.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Mapping, NamedTuple, Union

from .canonical import Arc, ArcKind, CanonicalDiagram
from .composition import PrescribedEntry, PrescribedSequence, TimedDiagramSet
from .dynamics import ParameterSeries
from .errors import StatedevError
from .reports import Encoded, canonical_json
from .scenario import (
    EVENT_KINDS,
    AfterEffectScheme,
    ArcRef,
    Event,
    HierarchicalStructure,
    HypothesisDiagram,
    Scenario,
    ScoreTable,
    TimeDiagramEntry,
    Trajectory,
)
from .statespace import (
    Classificator,
    ParameterDecl,
    Predicate,
    RuleMatrix,
    Scale,
    State,
)

FORMAT_VERSION = 1
# Version 2 stores the initial states and the event log; it is the one read.
TRAJECTORY_VERSION = 2


@dataclass(frozen=True)
class Issue:
    code: str  # "parse-error" | "unknown-version" | "unresolved-reference" | "invalid-value"
    where: str
    message: str
    line: Union[int, None] = None
    column: Union[int, None] = None

    def __str__(self) -> str:
        spot = f" (line {self.line}, column {self.column})" if self.line is not None else ""
        return f"{self.where}: {self.message}{spot}"


class ModelFileError(StatedevError):
    """Carries every issue found in one pass over the file."""

    def __init__(self, issues):
        self.issues = tuple(issues)
        head = str(self.issues[0]) if self.issues else "invalid model file"
        more = len(self.issues) - 1
        super().__init__(head + (f" (+{more} more issues)" if more > 0 else ""))


@dataclass(frozen=True)
class CanonicalEntry:
    """A canonical diagram plus its observed and goal distributions."""

    diagram: CanonicalDiagram
    initial_distribution: Mapping[str, str] = field(default_factory=dict)  # object -> state
    target_distribution: Union[Mapping[str, int], None] = None  # state -> count

    def __post_init__(self):
        object.__setattr__(self, "initial_distribution", dict(self.initial_distribution))
        if self.target_distribution is not None:
            object.__setattr__(self, "target_distribution", dict(self.target_distribution))


@dataclass(frozen=True)
class CompositionRequest:
    id: str
    kind: str  # "sequential" | "parallel" | "generalize" | "consistency"
    diagram_set: TimedDiagramSet
    sequence: Union[PrescribedSequence, None] = None
    selection: tuple[tuple[str, ...], ...] = ()
    order_pairs: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...] = ()


@dataclass(frozen=True)
class ModelFile:
    format_version: int
    parameters: Mapping[str, ParameterDecl] = field(default_factory=dict)
    scales: Mapping[str, Scale] = field(default_factory=dict)
    classificators: Mapping[str, Classificator] = field(default_factory=dict)
    rule_matrices: Mapping[str, RuleMatrix] = field(default_factory=dict)
    series: Mapping[str, ParameterSeries] = field(default_factory=dict)
    canonical: Mapping[str, CanonicalEntry] = field(default_factory=dict)
    composition_requests: Mapping[str, CompositionRequest] = field(default_factory=dict)
    scenarios: Mapping[str, Scenario] = field(default_factory=dict)
    score_tables: Mapping[str, ScoreTable] = field(default_factory=dict)


class _Collector:
    def __init__(self):
        self.issues: list[Issue] = []

    def add(self, code: str, where: str, message: str, line=None, column=None):
        self.issues.append(Issue(code, where, message, line, column))

    def unresolved(self, where: str, message: str):
        self.add("unresolved-reference", where, message)

    def invalid(self, where: str, message: str):
        self.add("invalid-value", where, message)


# ---------------------------------------------------------------------------
# Typed readers. A JSON document never holds NaN or an infinity (the loader
# rejects them); `number` reads every other number that enters, from model
# files, trajectory files and CSV cells alike. Strings and integers are read
# with `str` and `int`, so "2" is the integer 2 and 5 the string "5".

def number(value: Any) -> float:
    """value as a finite float. Raises ValueError, TypeError for a
    non-scalar, or OverflowError for an integer beyond the float range."""
    result = float(value)
    if not math.isfinite(result):
        raise ValueError(f"{value!r} is not a finite number")
    return result


def numbers(values: Any) -> tuple[float, ...]:
    """Each value as a finite float; raises as `number` does."""
    result = tuple(map(float, values))
    return result if all(map(math.isfinite, result)) else tuple(map(number, values))


def _declared(ref: Any, table: Mapping[str, Any]) -> bool:
    """Whether ref names an entry of table; a list or object names none."""
    return isinstance(ref, str) and ref in table


def _expect_map(data: Any, where: str, out: _Collector) -> dict:
    if data is None:
        return {}
    if not isinstance(data, dict):
        out.invalid(where, f"expected an object, got {type(data).__name__}")
        return {}
    return data


def _expect_list(data: Any, where: str, out: _Collector) -> list:
    if data is None:
        return []
    if not isinstance(data, list):
        out.invalid(where, f"expected a list, got {type(data).__name__}")
        return []
    return data


def _strs(data: Any, where: str, out: _Collector) -> tuple[str, ...]:
    return tuple(str(item) for item in _expect_list(data, where, out))


_REQUIRED = object()


class _Flat:
    """A flat JSON object read into one record and written back from it.

    Each field is (JSON key, attribute, reader[, default]); a field with a
    default may be absent, and a None value of a field whose default is None
    is not written. Fields are read in table order, so the first bad field
    names the issue; `error` formats its message from the exception. A
    record that is a plain tuple is written back by position.
    """

    def __init__(self, make: Callable, error: str, *fields: tuple):
        self.make = make
        self.error = error
        self.fields = tuple(f if len(f) == 4 else (*f, _REQUIRED) for f in fields)
        self.keys = tuple(f[0] for f in self.fields)
        self.values = operator.attrgetter(*(f[1] for f in self.fields))
        self.omitted_if_none = tuple(f[0] for f in self.fields if f[3] is None)

    def read(self, item: Any, where: str, out: _Collector, **extra) -> Any:
        """The record, or None after an invalid-value issue at where."""
        item = _expect_map(item, where, out)
        values = []
        try:
            for key, _, read, default in self.fields:
                values.append(read(item[key]) if default is _REQUIRED else read(item.get(key, default)))
            return self.make(*values, **extra)
        except (KeyError, TypeError, ValueError) as exc:
            out.invalid(where, self.error.format(exc))
            return None

    def read_list(self, items: Any, where: str, out: _Collector, **extra) -> list:
        """One record or None per item of the list at where."""
        return [self.read(item, f"{where}[{i}]", out, **extra) for i, item in enumerate(_expect_list(items, where, out))]

    def dump(self, record: Any) -> dict:
        data = dict(zip(self.keys, record if isinstance(record, tuple) else self.values(record)))
        for key in self.omitted_if_none:
            if data[key] is None:
                del data[key]
        return data


_ARC = _Flat(Arc, "bad arc: {}", ("from", "src", str), ("to", "dst", str), ("delta", "delta", int, 0))
_LABELED_ARC = _Flat(lambda *values: values, "arc needs from/to/symbol; missing {}",
                     ("from", "src", str), ("to", "dst", str), ("symbol", "symbol", str))
_BACK_ARC = _Flat(lambda *values: values, "back arc needs from/to; missing {}", ("from", "src", str), ("to", "dst", str))
_ARC_REF = _Flat(ArcRef, "arc reference needs subsystem/from/to/symbol; missing {}",
                 ("subsystem", "subsystem", str), ("from", "src", str), ("to", "dst", str), ("symbol", "symbol", str))
_PRESCRIBED = _Flat(PrescribedEntry, "bad entry: {}",
                    ("diagram", "diagram", int), ("state", "state", str), ("deadline", "deadline", int))
_TIME_ENTRY = _Flat(TimeDiagramEntry, "bad entry: {}", ("tick", "tick", int),
                    ("target", "target", lambda v: None if v is None else str(v), None), ("symbol", "symbol", str))


def _entities(data: Any, section: str, out: _Collector, parse_one: Callable, done=None) -> dict:
    """Each entity of one section through parse_one(id, raw, where, out,
    done). parse_one returns None after reporting its own issues; a
    ValueError, TypeError or OverflowError it raises (a constructor
    refusing the entity) becomes an invalid-value issue at the entity."""
    result = {}
    for eid, raw in _expect_map(data, section, out).items():
        where = f"{section}.{eid}"
        try:
            entity = parse_one(eid, _expect_map(raw, where, out), where, out, done)
        except (ValueError, TypeError, OverflowError) as exc:
            out.invalid(where, str(exc))
            continue
        if entity is not None:
            result[eid] = entity
    return result


# ---------------------------------------------------------------------------
# One parse and one dump function per section; `done` holds the sections
# parsed so far, the parameter names ("names") and every name a predicate
# may reference ("values").

def _parse_parameter(name, raw, where, out, done) -> ParameterDecl:
    decl = ParameterDecl(
        name=name,
        kind=raw.get("kind", "numeric"),
        levels=tuple(raw["levels"]) if "levels" in raw else None,
        bounds=tuple(raw["bounds"]) if raw.get("bounds") is not None else None,
    )
    if decl.bounds is not None and not all(map(math.isfinite, decl.bounds)):
        raise ValueError(f"bounds of {name!r} must be finite")
    return decl


def _dump_parameter(decl: ParameterDecl, model) -> dict:
    optional = {"levels": decl.levels, "bounds": decl.bounds}
    return {"kind": decl.kind, **{key: list(value) for key, value in optional.items() if value is not None}}


def _parse_scale(sid, raw, where, out, done) -> Union[Scale, None]:
    predicates: list[Predicate] = []
    states: list[State] = []
    ok = True
    for i, item in enumerate(_expect_list(raw.get("states"), f"{where}.states", out)):
        wi = f"{where}.states[{i}]"
        item = _expect_map(item, wi, out)
        state_id = item.get("id", f"{sid}.{i + 1}")
        expr = item.get("predicate")
        if not isinstance(expr, str):
            out.invalid(wi, "missing predicate string")
            ok = False
            continue
        try:
            predicate = Predicate(name=f"{sid}[{i + 1}]", expression=expr)
        except StatedevError as exc:
            out.add("parse-error", wi, str(exc))
            ok = False
            continue
        for ref in sorted(predicate.references - done["values"]):
            out.unresolved(wi, f"unknown name {ref!r} in predicate")
        predicates.append(predicate)
        states.append(State(id=state_id, scale_position=i + 1, label=item.get("label", "")))
    if not ok:
        return None
    for state in states:
        if isinstance(state.id, (list, dict)):
            raise ValueError(f"state {state.scale_position} has a {type(state.id).__name__} for its id")
    return Scale(id=sid, predicates=tuple(predicates), states=tuple(states))


def _dump_scale(scale: Scale, model) -> dict:
    return {
        "states": [
            {"id": state.id, "predicate": predicate.expression, **({"label": state.label} if state.label else {})}
            for predicate, state in zip(scale.predicates, scale.states)
        ]
    }


def _parse_classificator(cid, raw, where, out, done) -> Union[Classificator, None]:
    scales = done["scales"]
    root_id = raw.get("root")
    if not _declared(root_id, scales):
        out.unresolved(where, f"root scale {root_id!r} is not declared")
        return None
    refinements: dict[tuple[str, int], Scale] = {}
    ok = True
    for i, item in enumerate(_expect_list(raw.get("refinements"), f"{where}.refinements", out)):
        wi = f"{where}.refinements[{i}]"
        item = _expect_map(item, wi, out)
        child_id, parent_id = item.get("child"), item.get("scale")
        if not _declared(child_id, scales):
            out.unresolved(wi, f"child scale {child_id!r} is not declared")
        elif not _declared(parent_id, scales):
            out.unresolved(wi, f"scale {parent_id!r} is not declared")
        else:
            try:
                refinements[(parent_id, int(item["position"]))] = scales[child_id]
                continue
            except (KeyError, TypeError, ValueError):
                out.invalid(wi, "position must be an integer")
        ok = False
    return Classificator(id=cid, root=scales[root_id], refinements=refinements) if ok else None


def _dump_classificator(cl: Classificator, model) -> dict:
    refinements = [
        {"scale": sid, "position": pos, "child": child.id} for (sid, pos), child in sorted(cl.refinements.items())
    ]
    return {"root": cl.root.id, **({"refinements": refinements} if refinements else {})}


def _parse_rule_matrix(mid, raw, where, out, done) -> Union[RuleMatrix, None]:
    params = _strs(raw.get("parameters"), f"{where}.parameters", out)
    for p in params:
        if p not in done["names"]:
            out.unresolved(where, f"row parameter {p!r} is not declared")
    classes = _strs(raw.get("classes"), f"{where}.classes", out)
    rows: list[tuple[Predicate, ...]] = []
    ok = bool(params and classes)
    for i, row in enumerate(_expect_list(raw.get("cells"), f"{where}.cells", out)):
        cells: list[Predicate] = []
        for j, expr in enumerate(_expect_list(row, f"{where}.cells[{i}]", out)):
            try:
                cells.append(Predicate(name=f"{mid}[{i}][{j}]", expression=str(expr)))
            except StatedevError as exc:
                out.add("parse-error", f"{where}.cells[{i}][{j}]", str(exc))
                ok = False
        rows.append(tuple(cells))
    if not ok:
        if not params or not classes:
            out.invalid(where, "rule matrix needs parameters and classes")
        return None
    return RuleMatrix(id=mid, parameters=params, classes=classes, cells=tuple(rows))


def _dump_rule_matrix(m: RuleMatrix, model) -> dict:
    return {
        "parameters": list(m.parameters),
        "classes": list(m.classes),
        "cells": [[cell.expression for cell in row] for row in m.cells],
    }


def _parse_series(sid, raw, where, out, done) -> Union[ParameterSeries, None]:
    name = raw.get("parameter")
    if not _declared(name, done["names"]):
        out.unresolved(where, f"parameter {name!r} is not declared")
        return None
    ticks = _expect_list(raw.get("ticks"), f"{where}.ticks", out)
    values = _expect_list(raw.get("values"), f"{where}.values", out)
    decl = done["parameters"].get(name)
    if decl is not None and decl.kind == "ordinal":
        return ParameterSeries.from_ordinal(name, ticks, values, decl.levels)
    return ParameterSeries(name, tuple(ticks), numbers(values))


def _dump_series(s: ParameterSeries, model: ModelFile) -> dict:
    decl = model.parameters.get(s.parameter)
    ordinal = decl is not None and decl.kind == "ordinal"
    values = [decl.levels[int(v)] for v in s.values] if ordinal else list(s.values)
    return {"parameter": s.parameter, "ticks": list(s.ticks), "values": values}


def _parse_canonical(did, raw, where, out, done) -> Union[CanonicalEntry, None]:
    scale_id = raw.get("scale")
    if scale_id is not None and not _declared(scale_id, done["scales"]):
        out.unresolved(where, f"scale {scale_id!r} is not declared")
    arcs = {
        kind: _ARC.read_list(raw.get(key), f"{where}.{key}", out, kind=kind)
        for key, kind in (("dev_arcs", ArcKind.DEV), ("back_arcs", ArcKind.BACK))
    }
    if any(None in found for found in arcs.values()):
        return None
    diagram = CanonicalDiagram(
        id=did,
        states=_strs(raw.get("states"), f"{where}.states", out),
        dev_arcs=tuple(arcs[ArcKind.DEV]),
        back_arcs=tuple(arcs[ArcKind.BACK]),
        initial=str(raw.get("initial")),
        final=str(raw.get("final")),
        horizon=int(raw.get("horizon", 0)),
        scale_id=scale_id,
        labels=_expect_map(raw.get("labels"), f"{where}.labels", out),
    )
    placed = _expect_map(raw.get("initial_distribution"), f"{where}.initial_distribution", out)
    placement = {str(k): str(v) for k, v in placed.items()}
    for obj, state in sorted(placement.items()):
        if state not in diagram.states:
            out.unresolved(f"{where}.initial_distribution", f"object {obj!r} placed on unknown state {state!r}")
    target_raw = raw.get("target_distribution")
    target: Union[dict[str, int], None] = None
    if target_raw is not None:
        target = {}
        for state, n in _expect_map(target_raw, f"{where}.target_distribution", out).items():
            if state not in diagram.states:
                out.unresolved(f"{where}.target_distribution", f"unknown state {state!r}")
            try:
                target[str(state)] = int(n)
            except (TypeError, ValueError):
                out.invalid(f"{where}.target_distribution", f"count for {state!r} is not an integer")
    return CanonicalEntry(diagram, placement, target)


def _dump_canonical(entry: CanonicalEntry, model) -> dict:
    d = entry.diagram
    optional = {  # written only when set
        "scale": d.scale_id,
        "labels": dict(d.labels) or None,
        "initial_distribution": dict(entry.initial_distribution) or None,
        "target_distribution": None if entry.target_distribution is None else dict(entry.target_distribution),
    }
    return {
        "states": list(d.states),
        "initial": d.initial,
        "final": d.final,
        "horizon": d.horizon,
        "dev_arcs": [_ARC.dump(a) for a in d.dev_arcs],
        "back_arcs": [_ARC.dump(a) for a in d.back_arcs],
        **{key: value for key, value in optional.items() if value is not None},
    }


_REQUEST_KINDS = ("sequential", "parallel", "generalize", "consistency")


def _parse_request(rid, raw, where, out, done) -> Union[CompositionRequest, None]:
    canonical = done["canonical"]
    kind = raw.get("kind")
    if kind not in _REQUEST_KINDS:
        out.invalid(where, f"kind must be one of {', '.join(_REQUEST_KINDS)}; got {kind!r}")
        return None
    ids = _strs(raw.get("diagrams"), f"{where}.diagrams", out)
    ok = True
    for d in ids:
        if d not in canonical:
            out.unresolved(where, f"diagram {d!r} is not declared")
            ok = False
    try:
        intervals = tuple(int(t) for t in _expect_list(raw.get("intervals"), f"{where}.intervals", out))
    except (TypeError, ValueError):
        out.invalid(where, "intervals must be integers")
        ok = False
        intervals = ()
    if len(intervals) != len(ids):
        out.invalid(where, "one interval per diagram required")
        ok = False
    sequence = None
    if kind == "consistency":
        entries: list[PrescribedEntry] = []
        for i, item in enumerate(_expect_list(raw.get("sequence"), f"{where}.sequence", out)):
            wi = f"{where}.sequence[{i}]"
            entry = _PRESCRIBED.read(item, wi, out)
            if entry is None:
                ok = False
                continue
            if not 0 <= entry.diagram < len(ids):
                out.unresolved(wi, f"no diagram at index {entry.diagram}")
                ok = False
            elif ids[entry.diagram] in canonical and entry.state not in canonical[ids[entry.diagram]].diagram.states:
                out.unresolved(wi, f"state {entry.state!r} not in diagram {ids[entry.diagram]!r}")
                ok = False
            entries.append(entry)
        if ok:
            try:
                sequence = PrescribedSequence(tuple(entries))
            except ValueError as exc:
                out.invalid(f"{where}.sequence", str(exc))
                ok = False
    selection: list[tuple[str, ...]] = []
    order_pairs: list[tuple[tuple[str, ...], tuple[str, ...]]] = []
    if kind == "generalize":
        for i, item in enumerate(_expect_list(raw.get("selection"), f"{where}.selection", out)):
            tup = _strs(item, f"{where}.selection[{i}]", out)
            selection.append(tup)
            if len(tup) == len(ids):
                for d, s in zip(ids, tup):
                    if d in canonical and s not in canonical[d].diagram.states:
                        out.unresolved(f"{where}.selection[{i}]", f"state {s!r} not in diagram {d!r}")
                        ok = False
        for i, item in enumerate(_expect_list(raw.get("order"), f"{where}.order", out)):
            try:
                before, after = _expect_list(item, f"{where}.order[{i}]", out)
                order_pairs.append((tuple(str(s) for s in before), tuple(str(s) for s in after)))
            except (TypeError, ValueError):
                out.invalid(f"{where}.order[{i}]", "order entries are [before, after] pairs")
                ok = False
    if not ok:
        return None
    try:
        diagram_set = TimedDiagramSet(tuple(canonical[d].diagram for d in ids), intervals)
    except ValueError as exc:
        out.invalid(f"{where}.intervals", str(exc))
        return None
    return CompositionRequest(rid, kind, diagram_set, sequence, tuple(selection), tuple(order_pairs))


def _dump_request(req: CompositionRequest, model) -> dict:
    dset = req.diagram_set
    item: dict[str, Any] = {"kind": req.kind, "diagrams": [d.id for d in dset.diagrams], "intervals": list(dset.intervals)}
    if req.sequence is not None:
        item["sequence"] = [_PRESCRIBED.dump(e) for e in req.sequence.entries]
    if req.selection:
        item["selection"] = [list(t) for t in req.selection]
    if req.order_pairs:
        item["order"] = [[list(a), list(b)] for a, b in req.order_pairs]
    return item


def _parse_scenario(sid, raw, where, out, done) -> Union[Scenario, None]:
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


def _dump_scenario(sc: Scenario, model) -> dict:
    return {**scenario_to_dict(sc), "time_diagram": [_TIME_ENTRY.dump(e) for e in sc.time_diagram]}


def _parse_score_table(raw: Any, where: str, out: _Collector) -> Union[dict, None]:
    table: dict[str, dict[str, float]] = {}
    ok = True
    for sub, states in _expect_map(raw, where, out).items():
        table[str(sub)] = {}
        for state, value in _expect_map(states, f"{where}.{sub}", out).items():
            try:
                table[str(sub)][str(state)] = number(value)
            except (TypeError, ValueError, OverflowError):
                out.invalid(f"{where}.{sub}", f"score for state {state!r} is not numeric")
                ok = False
    return table if ok else None


class _Section(NamedTuple):
    key: str  # the JSON section
    field: str  # the ModelFile attribute
    parse: Callable  # one entity: (id, raw object, where, collector, done) -> entity or None
    dump: Callable  # one entity: (entity, model) -> its JSON value


# In parse order: a section may refer only to the sections above it.
_SECTIONS = (
    _Section("parameters", "parameters", _parse_parameter, _dump_parameter),
    _Section("scales", "scales", _parse_scale, _dump_scale),
    _Section("classificators", "classificators", _parse_classificator, _dump_classificator),
    _Section("rule_matrices", "rule_matrices", _parse_rule_matrix, _dump_rule_matrix),
    _Section("series", "series", _parse_series, _dump_series),
    _Section("canonical_diagrams", "canonical", _parse_canonical, _dump_canonical),
    _Section("composition_requests", "composition_requests", _parse_request, _dump_request),
    _Section("scenarios", "scenarios", _parse_scenario, _dump_scenario),
    _Section(
        "score_tables", "score_tables",
        lambda tid, raw, where, out, done: _parse_score_table(raw, where, out),
        lambda table, model: {sub: dict(states) for sub, states in table.items()},
    ),
)


class _NonFiniteNumber(Exception):
    pass


def _finite(token: str) -> float:
    """The JSON float and constant hook: NaN and the infinities are refused."""
    value = float(token)
    if not math.isfinite(value):
        raise _NonFiniteNumber(token)
    return value


def _json_object(text: str, source: str) -> dict:
    try:
        data = json.loads(text, parse_float=_finite, parse_constant=_finite)
    except json.JSONDecodeError as exc:
        raise ModelFileError([Issue("parse-error", source, exc.msg, exc.lineno, exc.colno)]) from None
    except _NonFiniteNumber as exc:
        raise ModelFileError([Issue("parse-error", source, f"number {exc} is not finite")]) from None
    except RecursionError:
        raise ModelFileError([Issue("parse-error", source, "nesting is too deep")]) from None
    if not isinstance(data, dict):
        raise ModelFileError([Issue("parse-error", source, "top level must be a JSON object")])
    return data


def parse_model_text(text: str, source: str = "<string>") -> ModelFile:
    """Parse one JSON model document, collecting every issue."""
    data = _json_object(text, source)
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise ModelFileError([Issue(
            "unknown-version", source,
            f"format_version {version!r} is not supported (expected {FORMAT_VERSION})",
        )])
    out = _Collector()
    keys = {section.key for section in _SECTIONS}
    for key in data:
        if key != "format_version" and key not in keys:
            out.invalid(source, f"unknown section {key!r}")
    # A predicate may name any parameter and any ordinal level declared in
    # the raw JSON, so that one broken declaration hides no names.
    raw_params = data["parameters"] if isinstance(data.get("parameters"), dict) else {}
    done: dict[str, Any] = {"names": set(raw_params)}
    done["values"] = done["names"] | {
        str(level) for raw in raw_params.values()
        if isinstance(raw, dict) and isinstance(raw.get("levels"), list) for level in raw["levels"]
    }
    for section in _SECTIONS:
        done[section.field] = _entities(data.get(section.key), section.key, out, section.parse, done)
    if out.issues:
        raise ModelFileError(out.issues)
    return ModelFile(FORMAT_VERSION, **{section.field: done[section.field] for section in _SECTIONS})


def parse_model(path: str) -> ModelFile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_model_text(fh.read(), source=path)


def model_to_dict(model: ModelFile) -> dict:
    data: dict[str, Any] = {"format_version": model.format_version}
    for section in _SECTIONS:
        entities = getattr(model, section.field)
        if entities:
            data[section.key] = {eid: section.dump(entity, model) for eid, entity in entities.items()}
    return data


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


def trajectory_file_to_dict(tr: Trajectory, sc: Scenario, scores: Union[ScoreTable, None] = None) -> dict:
    """The trajectory file. Its two long lists, the scenario's time diagram
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


def serialize_trajectory(tr: Trajectory, sc: Scenario, scores: Union[ScoreTable, None] = None) -> str:
    """The trajectory file in canonical JSON."""
    return canonical_json(trajectory_file_to_dict(tr, sc, scores))


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
    scenarios = _entities({sid: raw_sc}, "scenarios", out, _parse_scenario) if sid is not None and raw_sc is not None else {}
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


def load_trajectory_file(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return load_trajectory_text(fh.read(), source=path)
