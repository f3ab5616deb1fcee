"""Versioned JSON model files and trajectory files.

One model file is a single JSON document with named sections; predicates
and rule cells are strings in the predicate grammar. Parsing never stops
at the first problem: every parse, type, and reference issue in the file
is collected and raised together, so one round trip shows them all.

Each section's JSON format is stated once: `_SECTIONS` pairs the section
key with its `ModelFile` field and the function that parses one entity,
and each flat record (arcs, arc references, sequence and time-diagram
entries) is read and written through one field table. Non-finite numbers
are rejected wherever a number enters.

Each section's parser imports the modules of its entities, so a model
pays at start-up only for the sections it holds. Three sections, whose
field tables are built from their modules' classes, live in modules of
their own: `canonicalfile`, `compositionfile` and `scenariofile`, which
also holds the trajectory file codec.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Mapping, NamedTuple, Union

from .errors import StatedevError
from .reports import canonical_json

if TYPE_CHECKING:
    from .canonicalfile import CanonicalEntry
    from .compositionfile import CompositionRequest
    from .dynamics import ParameterSeries
    from .scenario import Scenario, ScoreTable, Trajectory
    from .statespace import Classificator, ParameterDecl, RuleMatrix, Scale

FORMAT_VERSION = 1


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
# One function per section parses one entity; `done` holds the sections
# parsed so far, the parameter names ("names") and every name a predicate
# may reference ("values").

def _parse_parameter(name, raw, where, out, done) -> ParameterDecl:
    from .statespace import ParameterDecl
    decl = ParameterDecl(
        name=name,
        kind=raw.get("kind", "numeric"),
        levels=tuple(raw["levels"]) if "levels" in raw else None,
        bounds=tuple(raw["bounds"]) if raw.get("bounds") is not None else None,
    )
    if decl.bounds is not None and not all(map(math.isfinite, decl.bounds)):
        raise ValueError(f"bounds of {name!r} must be finite")
    return decl


def _parse_scale(sid, raw, where, out, done) -> Union[Scale, None]:
    from .statespace import Predicate, Scale, State
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


def _parse_classificator(cid, raw, where, out, done) -> Union[Classificator, None]:
    from .statespace import Classificator
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


def _parse_rule_matrix(mid, raw, where, out, done) -> Union[RuleMatrix, None]:
    from .statespace import Predicate, RuleMatrix
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


def _parse_series(sid, raw, where, out, done) -> Union[ParameterSeries, None]:
    from .dynamics import ParameterSeries
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


def _each(parse_one: Callable) -> Callable:
    """The parser of a section that reads each entity through parse_one."""
    return lambda data, key, out, done: _entities(data, key, out, parse_one, done)


def _canonical_diagrams(data, key, out, done) -> dict[str, CanonicalEntry]:
    from .canonicalfile import parse_canonical
    return _entities(data, key, out, parse_canonical, done)


def _composition_requests(data, key, out, done) -> dict[str, CompositionRequest]:
    from .compositionfile import parse_request
    return _entities(data, key, out, parse_request, done)


def _scenarios(data, key, out, done) -> dict[str, Scenario]:
    from .scenariofile import parse_scenario
    return _entities(data, key, out, parse_scenario, done)


class _Section(NamedTuple):
    key: str  # the JSON section
    field: str  # the ModelFile attribute
    parse: Callable  # the section: (raw value, key, collector, done) -> {id: entity}


# In parse order: a section may refer only to the sections above it.
_SECTIONS = (
    _Section("parameters", "parameters", _each(_parse_parameter)),
    _Section("scales", "scales", _each(_parse_scale)),
    _Section("classificators", "classificators", _each(_parse_classificator)),
    _Section("rule_matrices", "rule_matrices", _each(_parse_rule_matrix)),
    _Section("series", "series", _each(_parse_series)),
    _Section("canonical_diagrams", "canonical", _canonical_diagrams),
    _Section("composition_requests", "composition_requests", _composition_requests),
    _Section("scenarios", "scenarios", _scenarios),
    _Section("score_tables", "score_tables", _each(lambda tid, raw, where, out, _: _parse_score_table(raw, where, out))),
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
    for section in _SECTIONS:  # an absent section is parsed by none, so it imports no module
        done[section.field] = section.parse(data[section.key], section.key, out, done) if section.key in data else {}
    if out.issues:
        raise ModelFileError(out.issues)
    return ModelFile(FORMAT_VERSION, **{section.field: done[section.field] for section in _SECTIONS})


def parse_model(path: str) -> ModelFile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_model_text(fh.read(), source=path)


def trajectory_file_to_dict(tr: Trajectory, sc: Scenario, scores: Union[ScoreTable, None] = None) -> dict:
    """The trajectory file's JSON object (`scenariofile.trajectory_to_dict`)."""
    from . import scenariofile
    return scenariofile.trajectory_to_dict(tr, sc, scores)


def serialize_trajectory(tr: Trajectory, sc: Scenario, scores: Union[ScoreTable, None] = None) -> str:
    """The trajectory file in canonical JSON."""
    return canonical_json(trajectory_file_to_dict(tr, sc, scores))


def load_trajectory_file(path: str):
    from . import scenariofile
    with open(path, "r", encoding="utf-8") as fh:
        return scenariofile.load_trajectory_text(fh.read(), source=path)
