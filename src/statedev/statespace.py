"""Predicate scales, hierarchical classificators, and rule matrices.

A scale carves the value space of one or more parameters into named
states through an ordered list of predicates; evaluating it against a
parameter assignment yields exactly one state when the scale is sound.
Classificators refine single states with child scales, giving
multi-level classification paths. Rule matrices map a vector of
per-parameter dynamics symbols onto classification classes.

The soundness checks (no overlap, no gap, no child escaping its parent)
evaluate each predicate at one point per cell of the declared parameter
domains. The grammar is closed, so a comparison chain that reads one
parameter is constant between the numbers it holds: the cells decide all
three checks exactly. A chain that reads two parameters, or more than
CELL_CAP cells, falls back to seeded sampling, which can miss a fault.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from functools import partial
from typing import Mapping, Sequence

from . import predicates as pred
from .errors import MissingParameterError, StatedevError


class NoMatchError(StatedevError):
    """No predicate of the scale held for the assignment."""

    def __init__(self, scale_id: str):
        super().__init__(f"no predicate of scale {scale_id!r} matched")
        self.scale_id = scale_id


class MultipleMatchError(StatedevError):
    """Two or more predicates held at once; positions are 1-based."""

    def __init__(self, scale_id: str, positions: Sequence[int]):
        positions = tuple(positions)
        super().__init__(
            f"scale {scale_id!r} matched predicates at positions {list(positions)}"
        )
        self.scale_id = scale_id
        self.positions = positions


class MissingParameterRangeError(StatedevError):
    """Sampling needs a range or level set for a referenced parameter."""

    def __init__(self, names):
        names = tuple(sorted(names))
        super().__init__("no sampling range for parameter(s): " + ", ".join(names))
        self.names = names


@dataclass(frozen=True)
class ParameterDecl:
    """Declared model parameter: numeric, or ordinal with a total level order."""

    name: str
    kind: str = "numeric"
    levels: tuple[str, ...] | None = None  # ordinal only, lowest first
    bounds: tuple[float, float] | None = None  # optional sampling range

    def __post_init__(self):
        if self.kind not in ("numeric", "ordinal"):
            raise ValueError(f"parameter kind must be numeric or ordinal, got {self.kind!r}")
        if self.kind == "ordinal":
            if not self.levels:
                raise ValueError(f"ordinal parameter {self.name!r} needs levels")
            object.__setattr__(self, "levels", tuple(self.levels))
            if len(set(self.levels)) != len(self.levels):
                raise ValueError(f"duplicate level in parameter {self.name!r}")
        elif self.levels is not None:
            raise ValueError(f"numeric parameter {self.name!r} cannot declare levels")
        if self.bounds is not None:
            lo, hi = self.bounds
            if lo > hi:
                raise ValueError(f"bounds of {self.name!r} are reversed")
            object.__setattr__(self, "bounds", (float(lo), float(hi)))


Parameters = Mapping[str, ParameterDecl]


def _orders(parameters: Parameters | None) -> dict[str, tuple[str, ...]]:
    if not parameters:
        return {}
    return {
        decl.name: decl.levels for decl in parameters.values() if decl.levels is not None
    }


@dataclass(frozen=True)
class Predicate:
    """Named predicate; the expression is parsed once at construction. It
    keeps its last compiled form, keyed by the level orders of the names
    it references; a model's orders stay the same from call to call."""

    name: str
    expression: str
    ast: pred.Node = field(init=False, repr=False, compare=False)
    references: frozenset[str] = field(init=False, repr=False, compare=False)
    _last: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ast = pred.parse(self.expression)
        object.__setattr__(self, "ast", ast)
        object.__setattr__(self, "references", pred.referenced_names(ast))
        object.__setattr__(self, "_last", [None])

    def __getstate__(self):
        # Closures do not pickle; a loaded copy compiles again.
        return {**self.__dict__, "_last": [None]}

    def compiled(self, orders: Mapping[str, Sequence] | None = None):
        """The expression compiled under these level orders."""
        orders = orders or {}
        key = tuple([orders.get(name) for name in self.references])
        last = self._last[0]
        if last is None or last[0] != key:
            last = self._last[0] = (key, pred.compile(self.ast, orders))
        return last[1]

    def holds(self, assignment, orders=None) -> bool:
        return self.compiled(orders)(assignment)


@dataclass(frozen=True)
class State:
    id: str
    scale_position: int  # 1-based, matches the predicate order
    label: str = ""


@dataclass(frozen=True)
class Scale:
    """Ordered predicates paired one-to-one with ordered states."""

    id: str
    predicates: tuple[Predicate, ...]
    states: tuple[State, ...]
    references: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "predicates", tuple(self.predicates))
        object.__setattr__(self, "states", tuple(self.states))
        if not self.predicates:
            raise ValueError(f"scale {self.id!r} is empty")
        if len(self.predicates) != len(self.states):
            raise ValueError(f"scale {self.id!r}: predicate and state counts differ")
        ids = [s.id for s in self.states]
        if len(set(ids)) != len(ids):
            raise ValueError(f"scale {self.id!r}: duplicate state id")
        for i, state in enumerate(self.states):
            if state.scale_position != i + 1:
                raise ValueError(
                    f"scale {self.id!r}: state {state.id!r} at position "
                    f"{state.scale_position}, expected {i + 1}"
                )
        object.__setattr__(
            self, "references", frozenset().union(*(p.references for p in self.predicates))
        )

    def compiled(self, orders: Mapping[str, Sequence] | None = None) -> tuple:
        """Each predicate compiled under these level orders, in scale order."""
        return tuple([p.compiled(orders) for p in self.predicates])


def _check_missing(references, assignment, orders) -> None:
    """Raise for the names that are neither bound nor a level of any order."""
    unbound = [n for n in references if n not in assignment]
    if unbound:
        level_pool = frozenset().union(*orders.values())
        missing = [n for n in unbound if n not in level_pool]
        if missing:
            raise MissingParameterError(missing)


def _evaluate_scale(scale: Scale, assignment, orders) -> State:
    _check_missing(scale.references, assignment, orders)
    hits = [i for i, holds in enumerate(scale.compiled(orders)) if holds(assignment)]
    if not hits:
        raise NoMatchError(scale.id)
    if len(hits) > 1:
        raise MultipleMatchError(scale.id, [i + 1 for i in hits])
    return scale.states[hits[0]]


@dataclass(frozen=True)
class Classificator:
    """Hierarchical continuation of a scale: refinements attach a child
    scale to (scale id, predicate position). Positions are 1-based."""

    id: str
    root: Scale
    refinements: Mapping[tuple[str, int], Scale] = field(default_factory=dict)
    scales: Mapping[str, Scale] = field(init=False, repr=False, compare=False)  # by id, root first

    def __post_init__(self):
        object.__setattr__(self, "refinements", dict(self.refinements))
        # Tree check, one walk from the root: every refinement reached, each
        # child scale attached exactly once, no scale repeated along any path.
        below: dict[str, list] = {}
        for (sid, pos), child in self.refinements.items():
            below.setdefault(sid, []).append((pos, child))
        scales = {self.root.id: self.root}
        reached = [self.root]
        for parent in reached:  # grows while it is walked
            for pos, child in below.pop(parent.id, ()):
                if not 1 <= pos <= len(parent.predicates):
                    raise ValueError(
                        f"classificator {self.id!r}: refinement position {pos} "
                        f"outside scale {parent.id!r}"
                    )
                if child.id in scales:
                    raise ValueError(
                        f"classificator {self.id!r}: scale {child.id!r} attached twice"
                    )
                scales[child.id] = child
                reached.append(child)
        if below:
            bad = ", ".join(repr(sid) for sid, _ in self.refinements if sid in below)
            raise ValueError(
                f"classificator {self.id!r}: refinements dangle from unknown scale(s) {bad}"
            )
        object.__setattr__(self, "scales", scales)


def classify_hierarchical(
    classificator: Classificator,
    assignment: Mapping[str, object],
    parameters: Parameters | None = None,
) -> tuple[State, ...]:
    """Full classification path, root state first, deepest last.

    Scale errors propagate with the failing scale's id attached.
    """
    orders = _orders(parameters)
    path: list[State] = []
    scale = classificator.root
    while True:
        state = _evaluate_scale(scale, assignment, orders)
        path.append(state)
        child = classificator.refinements.get((scale.id, state.scale_position))
        if child is None:
            return tuple(path)
        scale = child


@dataclass(frozen=True)
class SampleSpec:
    """How many assignments a soundness check samples where cells do not
    decide it, and the seed; each parameter's domain comes from its
    declaration."""

    samples: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")


def _domains(names: Sequence[str], parameters: Parameters | None) -> list[ParameterDecl]:
    """Each name's declaration; a name without a sampling range raises."""
    decls = [(parameters or {}).get(name) for name in names]
    unresolved = [
        name for name, decl in zip(names, decls)
        if decl is None or (decl.levels is None and decl.bounds is None)
    ]
    if unresolved:
        raise MissingParameterRangeError(unresolved)
    return decls


def sample_assignments(
    spec: SampleSpec, names: Sequence[str], parameters: Parameters | None = None
):
    """Deterministic stream of assignments over the named parameters: an
    ordinal draws one of its levels, a numeric a value within its bounds;
    no names give one empty assignment. A name without a sampling range
    raises here, not at the first draw."""
    names = sorted(names)
    decls = _domains(names, parameters)
    rng = random.Random(spec.seed)
    draws = [
        (name, partial(rng.choice, decl.levels) if decl.levels is not None
         else partial(rng.uniform, *decl.bounds))
        for name, decl in zip(names, decls)
    ]
    return ({name: draw() for name, draw in draws} for _ in range(spec.samples if names else 1))


def _sampled_names(predicates, parameters: Parameters | None, orders) -> tuple[list[str], list]:
    """The names to sample: every declared parameter the predicates read,
    and every other name not read as a level literal, which has no domain;
    and the predicates' comparison chains as `pred.chains` gives them."""
    declared = parameters or {}
    names, found = pred.chains([p.ast for p in predicates], orders)
    names.update(name for p in predicates for name in p.references if name in declared)
    return sorted(names), found


# The most points one check evaluates cell by cell; a larger product of
# cells is sampled instead.
CELL_CAP = 4096


def _cell_values(chains, names: Sequence[str], decls) -> list | None:
    """Per name, one value in each cell of its domain, or None where cells
    do not decide: a chain reads two of the names, or the product of the
    cells exceeds CELL_CAP.

    A chain that reads one name is constant between the numbers it holds.
    A numeric's values are therefore its bounds, each number of its chains
    strictly inside them, and the midpoint of each pair of neighbours; an
    ordinal's are its levels."""
    cuts: dict[str, set] = {name: set() for name in names}
    for read, numbers in chains:
        read = read & cuts.keys()
        if len(read) > 1:
            return None
        for name in read:
            cuts[name].update(numbers)
    values = []
    for name, decl in zip(names, decls):
        if decl.levels is not None:
            values.append(decl.levels)
            continue
        lo, hi = decl.bounds
        edges = sorted({lo, hi, *(c for c in cuts[name] if lo < c < hi)})
        # Halved before the sum, which then cannot overflow; between two
        # neighbouring floats the midpoint is one of them, and the set drops it.
        values.append(sorted({*edges, *(a / 2 + b / 2 for a, b in zip(edges, edges[1:]))}))
    if math.prod(map(len, values)) > CELL_CAP:
        return None
    return values


def _check_points(predicates, spec: SampleSpec, parameters: Parameters | None, orders):
    """The assignments a check evaluates over the names the predicates read:
    one per cell, or the spec's samples where cells do not decide. A name
    without a sampling range raises here."""
    names, chains = _sampled_names(predicates, parameters, orders)
    decls = _domains(names, parameters)
    values = _cell_values(chains, names, decls)
    if values is None:
        return sample_assignments(spec, names, parameters)
    return (dict(zip(names, point)) for point in itertools.product(*values))


@dataclass(frozen=True)
class DisjointnessReport:
    scale_id: str
    samples: int  # points evaluated
    overlaps: tuple  # (assignment, 1-based predicate positions) pairs
    gaps: tuple = ()  # assignments where no predicate holds

    @property
    def passed(self) -> bool:
        return not self.overlaps


def validate_scale_disjointness(
    scale: Scale,
    spec: SampleSpec,
    parameters: Parameters | None = None,
) -> DisjointnessReport:
    """Report every point where two or more predicates hold at once, and
    every point where none holds. The points are one per cell, which
    decides both exactly; where cells do not decide, they are the spec's
    samples, and the check is statistical, not a proof."""
    orders = _orders(parameters)
    tests = tuple(enumerate(scale.compiled(orders), start=1))
    count = 0
    overlaps = []
    gaps = []
    for assignment in _check_points(scale.predicates, spec, parameters, orders):
        count += 1
        hits = [position for position, holds in tests if holds(assignment)]
        if len(hits) > 1:
            overlaps.append((assignment, tuple(hits)))
        elif not hits:
            gaps.append(assignment)
    return DisjointnessReport(scale.id, count, tuple(overlaps), tuple(gaps))


@dataclass(frozen=True)
class RefinementReport:
    classificator_id: str
    samples: int  # points evaluated
    violations: tuple  # (scale id, position, child predicate position, assignment)
    unsampled: tuple = ()  # a MissingParameterRangeError per refinement not checked
    gaps: tuple = ()  # (scale id, position, assignment): the parent holds, no child predicate does

    @property
    def passed(self) -> bool:
        return not self.violations


def validate_classificator(
    classificator: Classificator,
    spec: SampleSpec,
    parameters: Parameters | None = None,
) -> RefinementReport:
    """Check of the refinement property: every point accepted by a child
    predicate must satisfy the parent predicate it refines, and every
    point of the parent must be accepted by some child predicate. Each
    refinement is checked on its own points, as in
    validate_scale_disjointness; one that reads a name without a sampling
    range is listed in `unsampled` and the others are checked."""
    orders = _orders(parameters)
    total = 0
    violations = []
    unsampled = []
    gaps = []
    for (sid, pos), child in sorted(classificator.refinements.items()):
        parent_pred = classificator.scales[sid].predicates[pos - 1]
        parent_holds = parent_pred.compiled(orders)
        tests = child.compiled(orders)
        try:
            assignments = _check_points((parent_pred, *child.predicates), spec, parameters, orders)
        except MissingParameterRangeError as exc:
            unsampled.append(exc)
            continue
        for assignment in assignments:
            total += 1
            parent_ok = parent_holds(assignment)
            held = [j for j, holds in enumerate(tests, start=1) if holds(assignment)]
            if not parent_ok:
                violations.extend((sid, pos, j, assignment) for j in held)
            elif not held:
                gaps.append((sid, pos, assignment))
    return RefinementReport(classificator.id, total, tuple(violations), tuple(unsampled), tuple(gaps))


@dataclass(frozen=True)
class RuleMatrix:
    """Classification rules over dynamics symbols.

    Rows are parameters, columns are classes; the cell predicate for row
    p sees that parameter's current dynamics symbol under both the name
    ``state`` and the parameter's own name. A class matches when every
    cell of its column holds.
    """

    id: str
    parameters: tuple[str, ...]
    classes: tuple[str, ...]
    cells: tuple[tuple[Predicate, ...], ...]

    def __post_init__(self):
        from .dynamics import VOCABULARY
        object.__setattr__(self, "parameters", tuple(self.parameters))
        object.__setattr__(self, "classes", tuple(self.classes))
        object.__setattr__(self, "cells", tuple(tuple(row) for row in self.cells))
        if not self.parameters or not self.classes:
            raise ValueError(f"rule matrix {self.id!r} needs rows and columns")
        if len(set(self.parameters)) != len(self.parameters):
            raise ValueError(f"rule matrix {self.id!r}: duplicate row parameter")
        if len(set(self.classes)) != len(self.classes):
            raise ValueError(f"rule matrix {self.id!r}: duplicate class id")
        if len(self.cells) != len(self.parameters):
            raise ValueError(f"rule matrix {self.id!r}: row count mismatch")
        allowed_extra = set(VOCABULARY) | {"state"}
        for i, row in enumerate(self.cells):
            if len(row) != len(self.classes):
                raise ValueError(
                    f"rule matrix {self.id!r}: row {i} has {len(row)} cells, "
                    f"expected {len(self.classes)}"
                )
            legal = allowed_extra | {self.parameters[i]}
            for j, cell in enumerate(row):
                stray = cell.references - legal
                if stray:
                    raise ValueError(
                        f"rule matrix {self.id!r}: cell ({i}, {j}) references "
                        f"{sorted(stray)} outside the row vocabulary"
                    )


def apply_rule_matrix(
    matrix: RuleMatrix, dyn_states: Mapping[str, object]
) -> frozenset[str]:
    """Classes whose entire column holds for the given dynamics symbols.

    dyn_states maps every row parameter to a DynamicsKind or its symbol
    string. The result may be empty and may hold several classes.
    """
    from .dynamics import VOCABULARY, DynamicsKind
    missing = [p for p in matrix.parameters if p not in dyn_states]
    if missing:
        raise MissingParameterError(missing)
    symbols = {}
    for name in matrix.parameters:
        value = dyn_states[name]
        if isinstance(value, DynamicsKind):
            value = value.value
        if value not in VOCABULARY:
            raise ValueError(f"unknown dynamics symbol {value!r} for {name!r}")
        symbols[name] = value
    matched = []
    for j, cls in enumerate(matrix.classes):
        ok = True
        for i, name in enumerate(matrix.parameters):
            env = {"state": symbols[name], name: symbols[name]}
            orders = {"state": VOCABULARY, name: VOCABULARY}
            if not matrix.cells[i][j].holds(env, orders):
                ok = False
                break
        if ok:
            matched.append(cls)
    return frozenset(matched)
