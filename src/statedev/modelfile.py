"""Versioned JSON model files and trajectory files.

One model file is a single JSON document with named sections; predicates
and rule cells are strings in the predicate grammar. Parsing never stops
at the first problem: every parse, type, and reference issue in the file
is collected and raised together, so one round trip shows them all.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Mapping, Union, get_type_hints

from .canonical import Arc, ArcKind, CanonicalDiagram
from .composition import PrescribedEntry, PrescribedSequence, TimedDiagramSet
from .dynamics import ParameterSeries
from .errors import StatedevError
from .reports import canonical_json
from .scenario import (
    EVENT_KINDS,
    AfterEffectScheme,
    ArcRef,
    Configuration,
    EfficiencyCriterion,
    Event,
    EventLogError,
    HierarchicalStructure,
    HypothesisDiagram,
    Scenario,
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
# Version 2 stores the initial states and the event log; version 1 also
# stored the configuration after every tick and is still read.
TRAJECTORY_VERSION = 2

SECTIONS = (
    "parameters",
    "scales",
    "classificators",
    "rule_matrices",
    "series",
    "canonical_diagrams",
    "composition_requests",
    "scenarios",
    "score_tables",
)


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
    diagram_ids: tuple[str, ...]
    intervals: tuple[int, ...]
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
    score_tables: Mapping[str, Mapping[str, Mapping[str, float]]] = field(default_factory=dict)


class _Collector:
    def __init__(self):
        self.issues: list[Issue] = []

    def add(self, code: str, where: str, message: str, line=None, column=None):
        self.issues.append(Issue(code, where, message, line, column))

    def unresolved(self, where: str, message: str):
        self.add("unresolved-reference", where, message)

    def invalid(self, where: str, message: str):
        self.add("invalid-value", where, message)


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


def _parse_parameters(data: Any, out: _Collector) -> dict[str, ParameterDecl]:
    decls: dict[str, ParameterDecl] = {}
    for name, raw in _expect_map(data, "parameters", out).items():
        where = f"parameters.{name}"
        raw = _expect_map(raw, where, out)
        try:
            decls[name] = ParameterDecl(
                name=name,
                kind=raw.get("kind", "numeric"),
                levels=tuple(raw["levels"]) if "levels" in raw else None,
                bounds=tuple(raw["bounds"]) if raw.get("bounds") is not None else None,
            )
        except (ValueError, TypeError) as exc:
            out.invalid(where, str(exc))
    return decls


def _known_value_names(raw_params: Any) -> set[str]:
    """Names a predicate may reference: raw parameter names plus every
    declared ordinal level, taken from the raw JSON so that one broken
    declaration does not hide the names it introduced."""
    names: set[str] = set()
    if isinstance(raw_params, dict):
        for name, raw in raw_params.items():
            names.add(name)
            if isinstance(raw, dict) and isinstance(raw.get("levels"), list):
                names.update(str(level) for level in raw["levels"])
    return names


def _parse_scales(data: Any, known: set[str], out: _Collector) -> dict[str, Scale]:
    scales: dict[str, Scale] = {}
    for sid, raw in _expect_map(data, "scales", out).items():
        where = f"scales.{sid}"
        raw = _expect_map(raw, where, out)
        predicates: list[Predicate] = []
        states: list[State] = []
        ok = True
        for i, item in enumerate(_expect_list(raw.get("states"), f"{where}.states", out)):
            item = _expect_map(item, f"{where}.states[{i}]", out)
            state_id = item.get("id", f"{sid}.{i + 1}")
            expr = item.get("predicate")
            if not isinstance(expr, str):
                out.invalid(f"{where}.states[{i}]", "missing predicate string")
                ok = False
                continue
            try:
                predicate = Predicate(name=f"{sid}[{i + 1}]", expression=expr)
            except StatedevError as exc:
                out.add("parse-error", f"{where}.states[{i}]", str(exc))
                ok = False
                continue
            for ref in sorted(predicate.references - known):
                out.unresolved(f"{where}.states[{i}]", f"unknown name {ref!r} in predicate")
            predicates.append(predicate)
            states.append(State(id=state_id, scale_position=i + 1, label=item.get("label", "")))
        if not ok:
            continue
        try:
            scales[sid] = Scale(id=sid, predicates=tuple(predicates), states=tuple(states))
        except ValueError as exc:
            out.invalid(where, str(exc))
    return scales


def _parse_classificators(
    data: Any, scales: Mapping[str, Scale], out: _Collector
) -> dict[str, Classificator]:
    result: dict[str, Classificator] = {}
    for cid, raw in _expect_map(data, "classificators", out).items():
        where = f"classificators.{cid}"
        raw = _expect_map(raw, where, out)
        root_id = raw.get("root")
        if root_id not in scales:
            out.unresolved(where, f"root scale {root_id!r} is not declared")
            continue
        refinements: dict[tuple[str, int], Scale] = {}
        ok = True
        for i, item in enumerate(_expect_list(raw.get("refinements"), f"{where}.refinements", out)):
            item = _expect_map(item, f"{where}.refinements[{i}]", out)
            child_id = item.get("child")
            if child_id not in scales:
                out.unresolved(f"{where}.refinements[{i}]", f"child scale {child_id!r} is not declared")
                ok = False
                continue
            parent_id = item.get("scale")
            if parent_id not in scales:
                out.unresolved(f"{where}.refinements[{i}]", f"scale {parent_id!r} is not declared")
                ok = False
                continue
            try:
                position = int(item["position"])
            except (KeyError, TypeError, ValueError):
                out.invalid(f"{where}.refinements[{i}]", "position must be an integer")
                ok = False
                continue
            refinements[(parent_id, position)] = scales[child_id]
        if not ok:
            continue
        try:
            result[cid] = Classificator(id=cid, root=scales[root_id], refinements=refinements)
        except ValueError as exc:
            out.invalid(where, str(exc))
    return result


def _parse_rule_matrices(
    data: Any, known_params: set[str], out: _Collector
) -> dict[str, RuleMatrix]:
    result: dict[str, RuleMatrix] = {}
    for mid, raw in _expect_map(data, "rule_matrices", out).items():
        where = f"rule_matrices.{mid}"
        raw = _expect_map(raw, where, out)
        params = [str(p) for p in _expect_list(raw.get("parameters"), f"{where}.parameters", out)]
        for p in params:
            if p not in known_params:
                out.unresolved(where, f"row parameter {p!r} is not declared")
        classes = [str(c) for c in _expect_list(raw.get("classes"), f"{where}.classes", out)]
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
            continue
        try:
            result[mid] = RuleMatrix(
                id=mid, parameters=tuple(params), classes=tuple(classes), cells=tuple(rows)
            )
        except ValueError as exc:
            out.invalid(where, str(exc))
    return result


def _parse_series(
    data: Any, decls: Mapping[str, ParameterDecl], raw_names: set[str], out: _Collector
) -> dict[str, ParameterSeries]:
    result: dict[str, ParameterSeries] = {}
    for sid, raw in _expect_map(data, "series", out).items():
        where = f"series.{sid}"
        raw = _expect_map(raw, where, out)
        name = raw.get("parameter")
        if name not in raw_names:
            out.unresolved(where, f"parameter {name!r} is not declared")
            continue
        ticks = _expect_list(raw.get("ticks"), f"{where}.ticks", out)
        values = _expect_list(raw.get("values"), f"{where}.values", out)
        decl = decls.get(name)
        try:
            if decl is not None and decl.kind == "ordinal":
                result[sid] = ParameterSeries.from_ordinal(name, ticks, values, decl.levels)
            else:
                result[sid] = ParameterSeries(name, tuple(ticks), tuple(float(v) for v in values))
        except (ValueError, TypeError) as exc:
            out.invalid(where, str(exc))
    return result


def _parse_arc(item: Any, kind: ArcKind, where: str, out: _Collector) -> Union[Arc, None]:
    item = _expect_map(item, where, out)
    try:
        return Arc(
            src=str(item["from"]),
            dst=str(item["to"]),
            delta=int(item.get("delta", 0)),
            kind=kind,
        )
    except (KeyError, TypeError, ValueError) as exc:
        out.invalid(where, f"bad arc: {exc}")
        return None


def _parse_canonical(
    data: Any, scales: Mapping[str, Scale], out: _Collector
) -> dict[str, CanonicalEntry]:
    result: dict[str, CanonicalEntry] = {}
    for did, raw in _expect_map(data, "canonical_diagrams", out).items():
        where = f"canonical_diagrams.{did}"
        raw = _expect_map(raw, where, out)
        scale_id = raw.get("scale")
        if scale_id is not None and scale_id not in scales:
            out.unresolved(where, f"scale {scale_id!r} is not declared")
        dev: list[Arc] = []
        back: list[Arc] = []
        ok = True
        for i, item in enumerate(_expect_list(raw.get("dev_arcs"), f"{where}.dev_arcs", out)):
            arc = _parse_arc(item, ArcKind.DEV, f"{where}.dev_arcs[{i}]", out)
            ok = ok and arc is not None
            if arc is not None:
                dev.append(arc)
        for i, item in enumerate(_expect_list(raw.get("back_arcs"), f"{where}.back_arcs", out)):
            arc = _parse_arc(item, ArcKind.BACK, f"{where}.back_arcs[{i}]", out)
            ok = ok and arc is not None
            if arc is not None:
                back.append(arc)
        if not ok:
            continue
        try:
            diagram = CanonicalDiagram(
                id=did,
                states=tuple(str(s) for s in _expect_list(raw.get("states"), f"{where}.states", out)),
                dev_arcs=tuple(dev),
                back_arcs=tuple(back),
                initial=str(raw.get("initial")),
                final=str(raw.get("final")),
                horizon=int(raw.get("horizon", 0)),
                scale_id=scale_id,
                labels=_expect_map(raw.get("labels"), f"{where}.labels", out),
            )
        except (ValueError, TypeError) as exc:
            out.invalid(where, str(exc))
            continue
        placement = {
            str(k): str(v)
            for k, v in _expect_map(raw.get("initial_distribution"), f"{where}.initial_distribution", out).items()
        }
        for obj, state in sorted(placement.items()):
            if state not in diagram.states:
                out.unresolved(
                    f"{where}.initial_distribution", f"object {obj!r} placed on unknown state {state!r}"
                )
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
        result[did] = CanonicalEntry(diagram, placement, target)
    return result


def _parse_requests(
    data: Any, canonical: Mapping[str, CanonicalEntry], out: _Collector
) -> dict[str, CompositionRequest]:
    kinds = ("sequential", "parallel", "generalize", "consistency")
    result: dict[str, CompositionRequest] = {}
    for rid, raw in _expect_map(data, "composition_requests", out).items():
        where = f"composition_requests.{rid}"
        raw = _expect_map(raw, where, out)
        kind = raw.get("kind")
        if kind not in kinds:
            out.invalid(where, f"kind must be one of {', '.join(kinds)}; got {kind!r}")
            continue
        ids = [str(d) for d in _expect_list(raw.get("diagrams"), f"{where}.diagrams", out)]
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
                item = _expect_map(item, f"{where}.sequence[{i}]", out)
                try:
                    entry = PrescribedEntry(
                        diagram=int(item["diagram"]),
                        state=str(item["state"]),
                        deadline=int(item["deadline"]),
                    )
                except (KeyError, TypeError, ValueError) as exc:
                    out.invalid(f"{where}.sequence[{i}]", f"bad entry: {exc}")
                    ok = False
                    continue
                if not 0 <= entry.diagram < len(ids):
                    out.unresolved(f"{where}.sequence[{i}]", f"no diagram at index {entry.diagram}")
                    ok = False
                elif ids[entry.diagram] in canonical and entry.state not in canonical[ids[entry.diagram]].diagram.states:
                    out.unresolved(
                        f"{where}.sequence[{i}]",
                        f"state {entry.state!r} not in diagram {ids[entry.diagram]!r}",
                    )
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
                tup = tuple(str(s) for s in _expect_list(item, f"{where}.selection[{i}]", out))
                selection.append(tup)
                if len(tup) == len(ids):
                    for d, s in zip(ids, tup):
                        if d in canonical and s not in canonical[d].diagram.states:
                            out.unresolved(f"{where}.selection[{i}]", f"state {s!r} not in diagram {d!r}")
                            ok = False
            for i, item in enumerate(_expect_list(raw.get("order"), f"{where}.order", out)):
                pair = _expect_list(item, f"{where}.order[{i}]", out)
                if len(pair) != 2:
                    out.invalid(f"{where}.order[{i}]", "order entries are [before, after] pairs")
                    ok = False
                    continue
                order_pairs.append(
                    (tuple(str(s) for s in pair[0]), tuple(str(s) for s in pair[1]))
                )
        if not ok:
            continue
        try:
            TimedDiagramSet(tuple(canonical[d].diagram for d in ids), intervals)
        except ValueError as exc:
            out.invalid(f"{where}.intervals", str(exc))
            continue
        result[rid] = CompositionRequest(
            id=rid,
            kind=kind,
            diagram_ids=tuple(ids),
            intervals=intervals,
            sequence=sequence,
            selection=tuple(selection),
            order_pairs=tuple(order_pairs),
        )
    return result


def _strings(item: Any, keys: tuple[str, ...], what: str, where: str, out: _Collector):
    """The named fields of one object as strings, or None after an issue."""
    item = _expect_map(item, where, out)
    try:
        return tuple(str(item[key]) for key in keys)
    except KeyError as exc:
        out.invalid(where, f"{what} needs {'/'.join(keys)}; missing {exc}")
        return None


def _parse_arc_ref(item: Any, where: str, out: _Collector) -> Union[ArcRef, None]:
    ref = _strings(item, ("subsystem", "from", "to", "symbol"), "arc reference", where, out)
    return ArcRef(*ref) if ref is not None else None


def _parse_scenarios(data: Any, out: _Collector) -> dict[str, Scenario]:
    result: dict[str, Scenario] = {}
    for sid, raw in _expect_map(data, "scenarios", out).items():
        where = f"scenarios.{sid}"
        raw = _expect_map(raw, where, out)
        ok = True

        hier_raw = _expect_map(raw.get("hierarchy"), f"{where}.hierarchy", out)
        cwhere = f"{where}.hierarchy.children"
        try:
            hierarchy = HierarchicalStructure(
                root=str(hier_raw.get("root")),
                children={
                    str(k): tuple(str(c) for c in _expect_list(v, f"{cwhere}.{k}", out))
                    for k, v in _expect_map(hier_raw.get("children"), cwhere, out).items()
                },
            )
        except ValueError as exc:
            out.invalid(f"{where}.hierarchy", str(exc))
            continue

        diagrams: list[HypothesisDiagram] = []
        for did, draw in _expect_map(raw.get("diagrams"), f"{where}.diagrams", out).items():
            dwhere = f"{where}.diagrams.{did}"
            draw = _expect_map(draw, dwhere, out)
            arcs = [
                _strings(item, ("from", "to", "symbol"), "arc", f"{dwhere}.arcs[{i}]", out)
                for i, item in enumerate(_expect_list(draw.get("arcs"), f"{dwhere}.arcs", out))
            ]
            backs = [
                _strings(item, ("from", "to"), "back arc", f"{dwhere}.back_arcs[{i}]", out)
                for i, item in enumerate(_expect_list(draw.get("back_arcs"), f"{dwhere}.back_arcs", out))
            ]
            ok = ok and None not in arcs and None not in backs
            try:
                diagrams.append(
                    HypothesisDiagram(
                        id=did,
                        states=tuple(str(s) for s in _expect_list(draw.get("states"), f"{dwhere}.states", out)),
                        initial=str(draw.get("initial")),
                        final=str(draw.get("final")),
                        labeled_arcs=tuple(a for a in arcs if a is not None),
                        back_arcs=tuple(a for a in backs if a is not None),
                    )
                )
            except ValueError as exc:
                out.invalid(dwhere, str(exc))
                ok = False

        diagram_ids = {d.id for d in diagrams}
        assignment = {
            str(k): str(v)
            for k, v in _expect_map(raw.get("assignment"), f"{where}.assignment", out).items()
        }
        for sub, did in sorted(assignment.items()):
            if did not in diagram_ids:
                out.unresolved(f"{where}.assignment", f"diagram {did!r} is not declared")
                ok = False
            if sub not in hierarchy.preorder():
                out.unresolved(f"{where}.assignment", f"subsystem {sub!r} is not in the hierarchy")
                ok = False

        entries: list[TimeDiagramEntry] = []
        for i, item in enumerate(_expect_list(raw.get("time_diagram"), f"{where}.time_diagram", out)):
            item = _expect_map(item, f"{where}.time_diagram[{i}]", out)
            target = item.get("target")
            if target is not None and str(target) not in hierarchy.preorder():
                out.unresolved(
                    f"{where}.time_diagram[{i}]", f"target {target!r} is not in the hierarchy"
                )
                ok = False
            try:
                entries.append(
                    TimeDiagramEntry(
                        tick=int(item["tick"]),
                        target=str(target) if target is not None else None,
                        symbol=str(item["symbol"]),
                    )
                )
            except (KeyError, TypeError, ValueError) as exc:
                out.invalid(f"{where}.time_diagram[{i}]", f"bad entry: {exc}")
                ok = False

        ae_raw = _expect_map(raw.get("after_effect"), f"{where}.after_effect", out)
        individual = frozenset(
            str(s) for s in _expect_list(ae_raw.get("individual_symbols"), f"{where}.after_effect.individual_symbols", out)
        )
        general = frozenset(
            str(s) for s in _expect_list(ae_raw.get("general_symbols"), f"{where}.after_effect.general_symbols", out)
        )
        all_refs = {
            ArcRef(sub, src, dst, sym)
            for sub, did in assignment.items()
            if did in diagram_ids
            for d in diagrams
            if d.id == did
            for (src, dst, sym) in d.labeled_arcs
        }

        def refs_from(key: str) -> Union[frozenset[ArcRef], None]:
            if key not in ae_raw:
                return None
            refs = []
            for i, item in enumerate(_expect_list(ae_raw.get(key), f"{where}.after_effect.{key}", out)):
                ref = _parse_arc_ref(item, f"{where}.after_effect.{key}[{i}]", out)
                if ref is None:
                    continue
                if ref not in all_refs:
                    out.unresolved(f"{where}.after_effect.{key}[{i}]", f"unknown arc {ref}")
                refs.append(ref)
            return frozenset(refs)

        isolated = refs_from("isolated")
        coupled = refs_from("coupled")
        if isolated is None:
            isolated = frozenset(r for r in all_refs if r.symbol in individual)
        if coupled is None:
            coupled = frozenset(r for r in all_refs if r.symbol in general)

        parent_links: dict[ArcRef, tuple[ArcRef, ...]] = {}
        for i, item in enumerate(_expect_list(ae_raw.get("parent_links"), f"{where}.after_effect.parent_links", out)):
            item = _expect_map(item, f"{where}.after_effect.parent_links[{i}]", out)
            parent = _parse_arc_ref(item.get("parent"), f"{where}.after_effect.parent_links[{i}].parent", out)
            if parent is None:
                ok = False
                continue
            if parent not in all_refs:
                out.unresolved(
                    f"{where}.after_effect.parent_links[{i}]", f"unknown parent arc {parent}"
                )
                ok = False
            children = []
            for j, citem in enumerate(_expect_list(item.get("children"), f"{where}.after_effect.parent_links[{i}].children", out)):
                child = _parse_arc_ref(citem, f"{where}.after_effect.parent_links[{i}].children[{j}]", out)
                if child is None:
                    ok = False
                    continue
                if child not in all_refs:
                    out.unresolved(
                        f"{where}.after_effect.parent_links[{i}].children[{j}]",
                        f"unknown child arc {child}",
                    )
                    ok = False
                children.append(child)
            parent_links[parent] = tuple(children)

        threshold = ae_raw.get("upward_threshold", "all")
        if threshold != "all":
            try:
                threshold = int(threshold)
            except (TypeError, ValueError):
                out.invalid(f"{where}.after_effect", f"upward_threshold must be 'all' or an integer")
                ok = False
        if not ok:
            continue
        try:
            result[sid] = Scenario(
                id=sid,
                diagrams=tuple(diagrams),
                hierarchy=hierarchy,
                assignment=assignment,
                time_diagram=tuple(entries),
                after_effect=AfterEffectScheme(
                    isolated=isolated,
                    coupled=coupled,
                    individual_symbols=individual,
                    general_symbols=general,
                    parent_links=parent_links,
                    upward_threshold=threshold,
                ),
                backstep_timeout=int(raw.get("backstep_timeout", 1)),
                horizon=int(raw.get("horizon", 0)),
            )
        except (ValueError, TypeError) as exc:
            out.invalid(where, str(exc))
    return result


def _parse_score_table(raw: Any, where: str, out: _Collector) -> Union[dict, None]:
    table: dict[str, dict[str, float]] = {}
    ok = True
    for sub, states in _expect_map(raw, where, out).items():
        table[str(sub)] = {}
        for state, value in _expect_map(states, f"{where}.{sub}", out).items():
            try:
                table[str(sub)][str(state)] = float(value)
            except (TypeError, ValueError):
                out.invalid(f"{where}.{sub}", f"score for state {state!r} is not numeric")
                ok = False
    return table if ok else None


def _parse_score_tables(data: Any, out: _Collector) -> dict:
    tables = {tid: _parse_score_table(raw, f"score_tables.{tid}", out)
              for tid, raw in _expect_map(data, "score_tables", out).items()}
    return {tid: table for tid, table in tables.items() if table is not None}


def _json_object(text: str, source: str) -> dict:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFileError([Issue("parse-error", source, exc.msg, exc.lineno, exc.colno)]) from None
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
    for key in data:
        if key != "format_version" and key not in SECTIONS:
            out.invalid(source, f"unknown section {key!r}")

    raw_params = data.get("parameters")
    parameters = _parse_parameters(raw_params, out)
    known = _known_value_names(raw_params)
    scales = _parse_scales(data.get("scales"), known, out)
    classificators = _parse_classificators(data.get("classificators"), scales, out)
    matrices = _parse_rule_matrices(
        data.get("rule_matrices"),
        set(raw_params) if isinstance(raw_params, dict) else set(),
        out,
    )
    series = _parse_series(
        data.get("series"), parameters,
        set(raw_params) if isinstance(raw_params, dict) else set(), out,
    )
    canonical = _parse_canonical(data.get("canonical_diagrams"), scales, out)
    requests = _parse_requests(data.get("composition_requests"), canonical, out)
    scenarios = _parse_scenarios(data.get("scenarios"), out)
    tables = _parse_score_tables(data.get("score_tables"), out)

    if out.issues:
        raise ModelFileError(out.issues)
    return ModelFile(
        format_version=FORMAT_VERSION,
        parameters=parameters,
        scales=scales,
        classificators=classificators,
        rule_matrices=matrices,
        series=series,
        canonical=canonical,
        composition_requests=requests,
        scenarios=scenarios,
        score_tables=tables,
    )


def parse_model(path: str) -> ModelFile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_model_text(fh.read(), source=path)


# ---------------------------------------------------------------------------
# Serialization back to the JSON form.

def _arc_to_dict(arc: Arc) -> dict:
    return {"from": arc.src, "to": arc.dst, "delta": arc.delta}


def _arc_ref_to_dict(ref: ArcRef) -> dict:
    return {"subsystem": ref.subsystem, "from": ref.src, "to": ref.dst, "symbol": ref.symbol}


def scenario_to_dict(sc: Scenario) -> dict:
    ae = sc.after_effect
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
                "arcs": [{"from": a, "to": b, "symbol": s} for a, b, s in d.labeled_arcs],
                "back_arcs": [{"from": a, "to": b} for a, b in d.back_arcs],
            }
            for d in sc.diagrams
        },
        "assignment": dict(sc.assignment),
        "time_diagram": [
            {"tick": e.tick, "symbol": e.symbol, **({"target": e.target} if e.target is not None else {})}
            for e in sc.time_diagram
        ],
        "after_effect": {
            "individual_symbols": sorted(ae.individual_symbols),
            "general_symbols": sorted(ae.general_symbols),
            "isolated": [_arc_ref_to_dict(r) for r in sorted(ae.isolated, key=lambda r: r.sort_key)],
            "coupled": [_arc_ref_to_dict(r) for r in sorted(ae.coupled, key=lambda r: r.sort_key)],
            "parent_links": [
                {"parent": _arc_ref_to_dict(parent), "children": [_arc_ref_to_dict(c) for c in children]}
                for parent, children in sorted(ae.parent_links.items(), key=lambda kv: kv[0].sort_key)
            ],
            "upward_threshold": ae.upward_threshold,
        },
        "backstep_timeout": sc.backstep_timeout,
        "horizon": sc.horizon,
    }


def model_to_dict(model: ModelFile) -> dict:
    data: dict[str, Any] = {"format_version": model.format_version}
    if model.parameters:
        data["parameters"] = {}
        for name, decl in model.parameters.items():
            entry: dict[str, Any] = {"kind": decl.kind}
            if decl.levels is not None:
                entry["levels"] = list(decl.levels)
            if decl.bounds is not None:
                entry["bounds"] = list(decl.bounds)
            data["parameters"][name] = entry
    if model.scales:
        data["scales"] = {
            sid: {
                "states": [
                    {"id": state.id, "predicate": predicate.expression, **({"label": state.label} if state.label else {})}
                    for predicate, state in zip(scale.predicates, scale.states)
                ]
            }
            for sid, scale in model.scales.items()
        }
    if model.classificators:
        data["classificators"] = {}
        for cid, cl in model.classificators.items():
            entry = {"root": cl.root.id}
            if cl.refinements:
                entry["refinements"] = [
                    {"scale": sid, "position": pos, "child": child.id}
                    for (sid, pos), child in sorted(cl.refinements.items())
                ]
            data["classificators"][cid] = entry
    if model.rule_matrices:
        data["rule_matrices"] = {
            mid: {
                "parameters": list(m.parameters),
                "classes": list(m.classes),
                "cells": [[cell.expression for cell in row] for row in m.cells],
            }
            for mid, m in model.rule_matrices.items()
        }
    if model.series:
        data["series"] = {}
        for sid, s in model.series.items():
            decl = model.parameters.get(s.parameter)
            values: list = list(s.values)
            if decl is not None and decl.kind == "ordinal":
                values = [decl.levels[int(v)] for v in s.values]
            data["series"][sid] = {"parameter": s.parameter, "ticks": list(s.ticks), "values": values}
    if model.canonical:
        data["canonical_diagrams"] = {}
        for did, entry in model.canonical.items():
            d = entry.diagram
            item: dict[str, Any] = {
                "states": list(d.states),
                "initial": d.initial,
                "final": d.final,
                "horizon": d.horizon,
                "dev_arcs": [_arc_to_dict(a) for a in d.dev_arcs],
                "back_arcs": [_arc_to_dict(a) for a in d.back_arcs],
            }
            if d.scale_id is not None:
                item["scale"] = d.scale_id
            if d.labels:
                item["labels"] = dict(d.labels)
            if entry.initial_distribution:
                item["initial_distribution"] = dict(entry.initial_distribution)
            if entry.target_distribution is not None:
                item["target_distribution"] = dict(entry.target_distribution)
            data["canonical_diagrams"][did] = item
    if model.composition_requests:
        data["composition_requests"] = {}
        for rid, req in model.composition_requests.items():
            item = {
                "kind": req.kind,
                "diagrams": list(req.diagram_ids),
                "intervals": list(req.intervals),
            }
            if req.sequence is not None:
                item["sequence"] = [
                    {"diagram": e.diagram, "state": e.state, "deadline": e.deadline}
                    for e in req.sequence.entries
                ]
            if req.selection:
                item["selection"] = [list(t) for t in req.selection]
            if req.order_pairs:
                item["order"] = [[list(a), list(b)] for a, b in req.order_pairs]
            data["composition_requests"][rid] = item
    if model.scenarios:
        data["scenarios"] = {sid: scenario_to_dict(sc) for sid, sc in model.scenarios.items()}
    if model.score_tables:
        data["score_tables"] = {
            tid: {sub: dict(states) for sub, states in table.items()}
            for tid, table in model.score_tables.items()
        }
    return data


def serialize_model(model: ModelFile) -> str:
    return json.dumps(model_to_dict(model), sort_keys=True, indent=2) + "\n"


def criterion_from_table(table: Mapping[str, Mapping[str, float]]) -> EfficiencyCriterion:
    return EfficiencyCriterion(
        {(sub, state): value for sub, states in table.items() for state, value in states.items()}
    )


# ---------------------------------------------------------------------------
# Trajectory files: self-contained runs (scenario + event log) for later
# analysis. The configurations after each tick are not stored; the loader
# folds them from the initial states and the events.

# kind -> (event class, {field: type}): the JSON keys of an event are its
# dataclass fields plus "kind".
_EVENT_FIELDS = {kind: (cls, get_type_hints(cls)) for kind, cls in EVENT_KINDS.items()}

_TYPE_NAMES = {str: "a string", int: "an integer", bool: "a boolean", dict: "an object", list: "a list"}


def event_to_dict(event: Event) -> dict:
    return {"kind": event.kind, **{name: getattr(event, name) for name in _EVENT_FIELDS[event.kind][1]}}


def event_from_dict(data: Any) -> Event:
    kind = data.get("kind") if isinstance(data, dict) else None
    if kind not in _EVENT_FIELDS:
        raise ValueError(f"unknown event kind {kind!r}")
    cls, types = _EVENT_FIELDS[kind]
    for name, typ in types.items():
        if type(data.get(name)) is not typ:
            raise ValueError(f"{kind} event needs {_TYPE_NAMES[typ]} {name!r}")
    return cls(**{name: data[name] for name in types})


def _states_to_dict(config: Configuration) -> dict:
    return {sub: [state, entry] for sub, (state, entry) in config.states.items()}


def trajectory_file_to_dict(
    tr: Trajectory, sc: Scenario, scores: Union[Mapping[str, Mapping[str, float]], None] = None
) -> dict:
    return {
        "format_version": TRAJECTORY_VERSION,
        "kind": "trajectory-file",
        "scenario_id": sc.id,
        "scenario": scenario_to_dict(sc),
        "trajectory": {
            "horizon": tr.horizon,
            "initial": _states_to_dict(tr.initial),
            "events": [event_to_dict(e) for e in tr.events],
        },
        "scores": {sub: dict(states) for sub, states in scores.items()} if scores else None,
    }


def serialize_trajectory(
    tr: Trajectory, sc: Scenario, scores: Union[Mapping[str, Mapping[str, float]], None] = None
) -> str:
    return canonical_json(trajectory_file_to_dict(tr, sc, scores))


def _typed(data: dict, key: str, typ: type, where: str, out: _Collector) -> Any:
    """data[key] when it has type typ; otherwise an issue and None."""
    value = data.get(key)
    if type(value) is typ:
        return value
    out.invalid(where, f"expected {_TYPE_NAMES[typ]}, got {type(value).__name__ if key in data else 'nothing'}")
    return None


def _check_stored_configs(tr: Trajectory, stored: Any, out: _Collector) -> None:
    """A version-1 file's per-tick configurations must equal the fold."""
    if not isinstance(stored, list) or len(stored) != tr.horizon:
        out.invalid("trajectory.configs", f"expected a list of {tr.horizon} configurations")
        return
    for t, (config, item) in enumerate(zip(tr.configurations(), stored)):
        states = _states_to_dict(config)
        if item != {"states": states, "last_activity": {sub: entry for sub, (_, entry) in states.items()}}:
            out.invalid(f"trajectory.configs[{t}]", "stored configuration disagrees with the event log")
            return


def load_trajectory_text(text: str, source: str = "<string>"):
    """Returns (scenario, trajectory, score table or None). Reads versions
    1 and 2, and collects every issue of a damaged file."""
    data = _json_object(text, source)
    if data.get("kind") != "trajectory-file":
        raise ModelFileError([Issue("parse-error", source, "not a trajectory file")])
    version = data.get("format_version")
    if version not in (1, TRAJECTORY_VERSION):
        raise ModelFileError([Issue("unknown-version", source, f"format_version {version!r} is not supported")])
    out = _Collector()
    sid = _typed(data, "scenario_id", str, "scenario_id", out)
    raw_sc = _typed(data, "scenario", dict, "scenario", out)
    scenarios = _parse_scenarios({sid: raw_sc}, out) if sid is not None and raw_sc is not None else {}
    traw = _typed(data, "trajectory", dict, "trajectory", out)
    if traw is not None:
        horizon = _typed(traw, "horizon", int, "trajectory.horizon", out)
        if horizon is not None and horizon < 0:
            out.invalid("trajectory.horizon", f"must be >= 0, got {horizon}")
        where = "trajectory.initial"
        initial = _typed(traw, "initial", dict, where, out)
        if version == 1 and initial is not None:
            where += ".states"
            initial = _typed(initial, "states", dict, where, out)
        states = {}
        for sub, item in (initial or {}).items():
            if isinstance(item, list) and len(item) == 2 and type(item[0]) is str and type(item[1]) is int:
                states[sub] = tuple(item)
            else:
                out.invalid(f"{where}.{sub}", "expected [state, entry tick]")
        events = []
        for i, item in enumerate(_typed(traw, "events", list, "trajectory.events", out) or ()):
            try:
                events.append(event_from_dict(item))
            except ValueError as exc:
                out.invalid(f"trajectory.events[{i}]", str(exc))
    scores = data.get("scores")
    if scores is not None:
        scores = _parse_score_table(scores, "scores", out)
    if not out.issues:
        tr = Trajectory(sid, horizon, Configuration(states), tuple(events))
        try:
            if version == 1:
                _check_stored_configs(tr, traw.get("configs"), out)
            else:
                tr.final_configuration()
        except EventLogError as exc:
            out.invalid("trajectory.events", str(exc))
    if out.issues:
        raise ModelFileError(out.issues)
    return scenarios[sid], tr, scores


def load_trajectory_file(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return load_trajectory_text(fh.read(), source=path)
