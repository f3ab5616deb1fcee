"""Closed boolean-comparison grammar for scale predicates.

Expressions combine comparisons (<, <=, =, >=, >) over parameter names,
numeric literals, and quoted ordinal levels, joined with and/or/not and
parentheses. Comparisons chain like ``0 <= x < 10``. The grammar is
deliberately closed: no arithmetic, no calls, no side effects, so every
predicate stays auditable and re-serializable from its source text.

Ordinal parameters compare through a declared total order of levels.  A
bare identifier that is not bound in the assignment resolves as a level
of another parameter in the same comparison (so ``state = Growth`` works
against an ordinal ``state``); anything still unresolved is reported as
a missing parameter.

``compile`` turns a parsed expression and the declared orders into one
closure over an assignment. The rank maps, the constants and the level
each bare name stands for are fixed when it is built, so evaluation only
reads the assignment's values.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence, Union

from .errors import ExpressionError, IncomparableValuesError, MissingParameterError

_TOKEN_RE = re.compile(
    r"(?:"
    r"(?P<number>\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<string>'[^']*'|\"[^\"]*\")"
    r"|(?P<op><=|>=|==|<|>|=|≤|≥)"
    r"|(?P<punct>[()&|!-])"
    r")"
)

_OP_ALIASES = {"≤": "<=", "≥": ">=", "==": "="}
_CMP_OPS = frozenset({"<", "<=", "=", ">=", ">"})
_KEYWORDS = frozenset({"and", "or", "not"})
MAX_DEPTH = 100  # nested parentheses and negations; keeps recursion off the stack limit


@dataclass(frozen=True)
class Name:
    ident: str


@dataclass(frozen=True)
class Number:
    value: float


@dataclass(frozen=True)
class Text:
    value: str


Operand = Union[Name, Number, Text]


@dataclass(frozen=True)
class Comparison:
    operands: tuple[Operand, ...]
    ops: tuple[str, ...]


@dataclass(frozen=True)
class Not:
    item: "Node"


@dataclass(frozen=True)
class And:
    items: tuple["Node", ...]


@dataclass(frozen=True)
class Or:
    items: tuple["Node", ...]


Node = Union[Comparison, Not, And, Or]


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExpressionError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        value = m.group()
        if kind == "op":
            value = _OP_ALIASES.get(value, value)
        elif kind == "ident" and value.lower() in _KEYWORDS:
            kind, value = "kw", value.lower()
        elif kind == "string":
            value = value[1:-1]
        tokens.append((kind, value, pos))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]], length: int):
        self.tokens = tokens
        self.i = 0
        self.length = length
        self.depth = 0

    def _peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, self.length)

    def _take(self):
        tok = self._peek()
        self.i += 1
        return tok

    def _nest(self, pos: int) -> None:
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ExpressionError(f"expression nests deeper than {MAX_DEPTH} levels", pos)

    def _joined(self, word: str, mark: str, item, make) -> Node:
        """One item, or several joined by the keyword word or the mark."""
        items = [item()]
        while self._peek()[:2] in (("kw", word), ("punct", mark)):
            self._take()
            items.append(item())
        return items[0] if len(items) == 1 else make(tuple(items))

    def or_expr(self) -> Node:
        return self._joined("or", "|", self.and_expr, Or)

    def and_expr(self) -> Node:
        return self._joined("and", "&", self.not_expr, And)

    def not_expr(self) -> Node:
        kind, value, pos = self._peek()
        if (kind == "kw" and value == "not") or (kind == "punct" and value == "!"):
            self._take()
            self._nest(pos)
            node = Not(self.not_expr())
            self.depth -= 1
            return node
        return self.atom()

    def atom(self) -> Node:
        kind, value, pos = self._peek()
        if kind == "punct" and value == "(":
            self._take()
            self._nest(pos)
            node = self.or_expr()
            self.depth -= 1
            kind, value, pos = self._take()
            if not (kind == "op" or kind == "punct") or value != ")":
                raise ExpressionError("expected ')'", pos)
            return node
        return self.comparison()

    def comparison(self) -> Node:
        operands = [self.operand()]
        ops: list[str] = []
        while True:
            kind, value, pos = self._peek()
            if kind == "op" and value in _CMP_OPS:
                self._take()
                ops.append(value)
                operands.append(self.operand())
            else:
                break
        if not ops:
            raise ExpressionError("expected comparison operator", pos)
        return Comparison(tuple(operands), tuple(ops))

    @staticmethod
    def _number(text: str, pos: int) -> float:
        value = float(text)
        if not math.isfinite(value):
            raise ExpressionError(f"number {text} is out of range", pos)
        return value

    def operand(self) -> Operand:
        kind, value, pos = self._take()
        if kind == "punct" and value == "-":
            kind2, value2, pos2 = self._take()
            if kind2 != "number":
                raise ExpressionError("expected number after '-'", pos2)
            return Number(-self._number(value2, pos2))
        if kind == "number":
            return Number(self._number(value, pos))
        if kind == "string":
            return Text(value)
        if kind == "ident":
            return Name(value)
        raise ExpressionError(f"expected operand, got {value!r}" if value else "expected operand", pos)


def parse(text: str) -> Node:
    """Parse an expression, raising ExpressionError with the offset on failure."""
    tokens = _tokenize(text)
    if not tokens:
        raise ExpressionError("empty expression", 0)
    parser = _Parser(tokens, len(text))
    node = parser.or_expr()
    kind, value, pos = parser._peek()
    if kind is not None:
        raise ExpressionError(f"unexpected {value!r}", pos)
    return node


def referenced_names(node: Node) -> frozenset[str]:
    """All identifiers appearing in the expression (parameters or bare levels)."""
    return frozenset(
        op.ident for comp in comparisons(node) for op in comp.operands if isinstance(op, Name)
    )


def comparisons(node: Node):
    """Every comparison chain of the expression, in source order."""
    if isinstance(node, Comparison):
        yield node
    elif isinstance(node, Not):
        yield from comparisons(node.item)
    else:
        for item in node.items:
            yield from comparisons(item)


# Compiled evaluation. Each operand of a chain resolves to a (domain, key)
# pair: the domain is _NUM for a number, _TEXT for a string, or the rank
# map of a declared level order, whose key is the level's rank. Equal level
# lists share one rank map, so identity tells whether two ranks compare.
_NUM = "num"
_TEXT = "text"
_ABSENT = object()  # the assignment does not bind the name

_OPS = {"<": operator.lt, "<=": operator.le, "=": operator.eq, ">=": operator.ge, ">": operator.gt}


def _rank_maps(orders: Mapping[str, Sequence] | None) -> dict[str, dict]:
    """Each order as a {level: rank} map; a repeated level keeps its first rank."""
    shared: dict[tuple, dict] = {}
    out = {}
    for name, levels in (orders or {}).items():
        levels = tuple(levels)
        if levels not in shared:
            shared[levels] = {}
            for rank, level in enumerate(levels):
                shared[levels].setdefault(level, rank)
        out[name] = shared[levels]
    return out


def _chain_literals(comp: Comparison, ranks: Mapping[str, dict]) -> dict[str, tuple]:
    """What each name of the chain stands for when unbound: the (rank map,
    rank) of the first order in the chain that has it as a level."""
    chain = [ranks[op.ident] for op in comp.operands if isinstance(op, Name) and op.ident in ranks]
    out: dict[str, tuple] = {}
    for op in comp.operands:
        if isinstance(op, Name):
            hit = next(((order, order[op.ident]) for order in chain if op.ident in order), None)
            if hit is not None:
                out[op.ident] = hit
    return out


def required_names(node: Node, orders: Mapping[str, Sequence] | None = None) -> frozenset[str]:
    """The names an assignment must bind: every referenced name but those
    that each of their chains reads as a level of a declared order."""
    ranks = _rank_maps(orders)
    out: set[str] = set()
    for comp in comparisons(node):
        literals = _chain_literals(comp, ranks)
        out.update(op.ident for op in comp.operands if isinstance(op, Name) and op.ident not in literals)
    return frozenset(out)


def compile(
    node: Node, orders: Mapping[str, Sequence] | None = None
) -> Callable[[Mapping[str, object]], bool]:
    """The expression as one closure over a parameter assignment.

    orders maps ordinal parameter names to their level list, lowest
    first; it is read once, here. The closure raises
    MissingParameterError / IncomparableValuesError.
    """
    return _compile(node, _rank_maps(orders))


def _compile(node: Node, ranks: Mapping[str, dict]):
    if isinstance(node, Comparison):
        return _chain(node, ranks)
    if isinstance(node, Not):
        item = _compile(node.item, ranks)
        return lambda assignment: not item(assignment)
    items = tuple(_compile(item, ranks) for item in node.items)
    if isinstance(node, And):
        def every(assignment):
            for item in items:
                if not item(assignment):
                    return False
            return True
        return every

    def some(assignment):
        for item in items:
            if item(assignment):
                return True
        return False
    return some


def _chain(comp: Comparison, ranks: Mapping[str, dict]):
    """A comparison chain: the full resolution, behind a fast path."""
    literals = _chain_literals(comp, ranks)
    # Per operand: (name or None, its declared order, the constant pair or
    # the level it stands for when unbound).
    specs = []
    for op in comp.operands:
        if isinstance(op, Number):
            specs.append((None, None, (_NUM, op.value)))
        elif isinstance(op, Text):
            specs.append((None, None, (_TEXT, op.value)))
        else:
            specs.append((op.ident, ranks.get(op.ident), literals.get(op.ident)))
    ops = tuple((op, _OPS[op]) for op in comp.ops)

    def resolve(assignment):
        resolved = []
        missing = []
        for ident, order, static in specs:
            value = _ABSENT if ident is None else assignment.get(ident, _ABSENT)
            if value is _ABSENT:
                if static is None:
                    missing.append(ident)
                resolved.append(static)
            elif order is not None:
                try:
                    resolved.append((order, order[value]))
                except (KeyError, TypeError):  # not a level, or unhashable
                    raise IncomparableValuesError(
                        f"value {value!r} is not a level of parameter {ident!r}"
                    ) from None
            elif isinstance(value, str):
                resolved.append((_TEXT, value))
            elif isinstance(value, bool) or not isinstance(value, (int, float)):
                raise IncomparableValuesError(
                    f"parameter {ident!r} has non-comparable value {value!r}"
                )
            else:
                resolved.append((_NUM, float(value)))
        if missing:
            raise MissingParameterError(missing)
        for i, (op, fn) in enumerate(ops):
            if not _compare(op, fn, resolved[i], resolved[i + 1]):
                return False
        return True

    return _fast_chain(specs, [fn for _, fn in ops], resolve)


def _compare(op: str, fn, left, right) -> bool:
    (ld, lk), (rd, rk) = left, right
    if ld is _NUM and rd is _NUM:
        return fn(lk, rk)
    if rd is _TEXT and isinstance(ld, dict):
        rd, rk = ld, _text_rank(rk, ld)
    elif ld is _TEXT and isinstance(rd, dict):
        ld, lk = rd, _text_rank(lk, rd)
    if isinstance(ld, dict) and isinstance(rd, dict):
        if ld is not rd:
            raise IncomparableValuesError("values belong to different level orders")
        return fn(lk, rk)
    if ld is _TEXT and rd is _TEXT:
        if op == "=":
            return lk == rk
        raise IncomparableValuesError(
            f"operator {op!r} needs a declared level order for string values"
        )
    raise IncomparableValuesError("cannot compare a number with a categorical value")


def _text_rank(text: str, order: dict) -> int:
    rank = order.get(text)
    if rank is None:
        raise IncomparableValuesError(f"{text!r} is not a level of the declared order")
    return rank


def _fast_chain(specs, fns, resolve):
    """resolve, behind a fast path for one name between constants of its
    domain: a float-valued name against numbers, or a declared ordinal's
    level against unbound level literals of its order. The fast path
    reads that name's key, and resolve decides whenever it cannot.

    A two-operand chain runs as a three-operand one whose missing side is
    an open bound: "x op k" as "-inf <= x op k", "k op x" as "k op x <= inf".
    Every float and every rank meets an open bound and NaN fails it, so
    the result is that of the chain as written."""
    named = [i for i, (ident, order, static) in enumerate(specs)
             if ident is not None and (order is not None or static is None)]
    if len(named) != 1:
        return resolve
    at = named[0]
    ident, order, _ = specs[at]
    domain = _NUM if order is None else order
    if any(static[0] is not domain for i, (_, _, static) in enumerate(specs) if i != at):
        return resolve
    keys = [static[1] if i != at else None for i, (_, _, static) in enumerate(specs)]
    if len(specs) == 2 and at == 0:
        fns, keys, at = [operator.le, *fns], [-math.inf, *keys], 1
    elif len(specs) == 2:
        fns, keys = [*fns, operator.le], [*keys, math.inf]
    if len(specs) > 3 or at != 1:
        return resolve
    (f0, f1), (k0, _, k2) = fns, keys
    if order is None:
        # A float-valued name: its key is read inline, in the closure's own frame.
        def run(assignment):
            x = assignment.get(ident, _ABSENT)
            if type(x) is not float:
                return resolve(assignment)
            return f0(k0, x) and f1(x, k2)
        return run

    literals = tuple(name for name, _, _ in specs if name is not None and name != ident)

    def run(assignment):
        for literal in literals:  # a bound name is a parameter, not a level
            if literal in assignment:
                return resolve(assignment)
        try:
            x = order.get(assignment.get(ident, _ABSENT))
        except TypeError:  # unhashable, so no level
            return resolve(assignment)
        if x is None:
            return resolve(assignment)
        return f0(k0, x) and f1(x, k2)
    return run
