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
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

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

    def or_expr(self) -> Node:
        items = [self.and_expr()]
        while True:
            kind, value, _ = self._peek()
            if (kind == "kw" and value == "or") or (kind == "punct" and value == "|"):
                self._take()
                items.append(self.and_expr())
            else:
                break
        return items[0] if len(items) == 1 else Or(tuple(items))

    def and_expr(self) -> Node:
        items = [self.not_expr()]
        while True:
            kind, value, _ = self._peek()
            if (kind == "kw" and value == "and") or (kind == "punct" and value == "&"):
                self._take()
                items.append(self.not_expr())
            else:
                break
        return items[0] if len(items) == 1 else And(tuple(items))

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
    out: set[str] = set()
    _collect(node, out)
    return frozenset(out)


def _collect(node: Node, out: set) -> None:
    if isinstance(node, Comparison):
        for op in node.operands:
            if isinstance(op, Name):
                out.add(op.ident)
    elif isinstance(node, Not):
        _collect(node.item, out)
    else:
        for item in node.items:
            _collect(item, out)


# Resolved operand forms: ("num", float), ("text", str),
# ("rank", index, levels) for values placed in a declared order.
def _resolve_chain(comp: Comparison, assignment, orders):
    orders = orders or {}
    resolved: list = [None] * len(comp.operands)
    chain_orders: list[tuple[str, ...]] = []
    for idx, op in enumerate(comp.operands):
        if isinstance(op, Number):
            resolved[idx] = ("num", op.value)
        elif isinstance(op, Text):
            resolved[idx] = ("text", op.value)
        elif op.ident in assignment:
            value = assignment[op.ident]
            levels = orders.get(op.ident)
            if levels is not None:
                levels = tuple(levels)
                if value not in levels:
                    raise IncomparableValuesError(
                        f"value {value!r} is not a level of parameter {op.ident!r}"
                    )
                resolved[idx] = ("rank", levels.index(value), levels)
                chain_orders.append(levels)
            elif isinstance(value, str):
                resolved[idx] = ("text", value)
            elif isinstance(value, bool) or not isinstance(value, (int, float)):
                raise IncomparableValuesError(
                    f"parameter {op.ident!r} has non-comparable value {value!r}"
                )
            else:
                resolved[idx] = ("num", float(value))
        else:
            levels = orders.get(op.ident)
            if levels is not None:
                chain_orders.append(tuple(levels))
    missing = []
    for idx, op in enumerate(comp.operands):
        if resolved[idx] is not None:
            continue
        # Unbound name: try it as a level of an ordered parameter in this chain.
        hit = None
        for levels in chain_orders:
            if op.ident in levels:
                hit = ("rank", levels.index(op.ident), levels)
                break
        if hit is None:
            missing.append(op.ident)
        else:
            resolved[idx] = hit
    if missing:
        raise MissingParameterError(missing)
    return resolved


_NUM_CMP = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    "=": lambda a, b: a == b,
    ">=": lambda a, b: a >= b,
    ">": lambda a, b: a > b,
}


def _compare(op: str, left, right) -> bool:
    lk, rk = left[0], right[0]
    if lk == "num" and rk == "num":
        return _NUM_CMP[op](left[1], right[1])
    if lk == "rank" and rk == "text":
        right = _text_to_rank(right[1], left[2])
        rk = "rank"
    elif lk == "text" and rk == "rank":
        left = _text_to_rank(left[1], right[2])
        lk = "rank"
    if lk == "rank" and rk == "rank":
        if left[2] != right[2]:
            raise IncomparableValuesError("values belong to different level orders")
        return _NUM_CMP[op](left[1], right[1])
    if lk == "text" and rk == "text":
        if op == "=":
            return left[1] == right[1]
        raise IncomparableValuesError(
            f"operator {op!r} needs a declared level order for string values"
        )
    raise IncomparableValuesError("cannot compare a number with a categorical value")


def _text_to_rank(text: str, levels: tuple[str, ...]):
    if text not in levels:
        raise IncomparableValuesError(f"{text!r} is not a level of the declared order")
    return ("rank", levels.index(text), levels)


def evaluate(
    node: Node,
    assignment: Mapping[str, object],
    orders: Mapping[str, Sequence[str]] | None = None,
) -> bool:
    """Evaluate against a parameter assignment.

    orders maps ordinal parameter names to their level list, lowest
    first. Raises MissingParameterError / IncomparableValuesError.
    """
    if isinstance(node, Comparison):
        resolved = _resolve_chain(node, assignment, orders)
        return all(
            _compare(op, resolved[i], resolved[i + 1]) for i, op in enumerate(node.ops)
        )
    if isinstance(node, Not):
        return not evaluate(node.item, assignment, orders)
    if isinstance(node, And):
        return all(evaluate(item, assignment, orders) for item in node.items)
    return any(evaluate(item, assignment, orders) for item in node.items)
