"""Expression grammar: parsing, evaluation, name resolution, and errors."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from statedev.errors import ExpressionError, IncomparableValuesError, MissingParameterError
from statedev.predicates import MAX_DEPTH, compile, parse, referenced_names
from tests.oracles import evaluate


def holds(text, assignment, orders=None):
    return compile(parse(text), orders)(assignment)


def test_chained_comparison():
    assert holds("0 <= x < 10", {"x": 5})
    assert not holds("0 <= x < 10", {"x": 10})
    assert not holds("0 <= x < 10", {"x": -1})


def test_boolean_connectives():
    assert holds("x < 0 or x >= 10", {"x": 12})
    assert not holds("x < 0 or x >= 10", {"x": 5})
    assert holds("not (x < 0) and x < 3", {"x": 1})


def test_equality_aliases():
    # = and == are the same operator.
    assert holds("x = 3", {"x": 3})
    assert holds("x == 3", {"x": 3})


def test_ordinal_levels_compare_through_declared_order():
    order = {"phase": ("Seed", "Sprout", "Plant")}
    assert holds("phase >= Sprout", {"phase": "Plant"}, order)
    assert not holds("phase >= Sprout", {"phase": "Seed"}, order)
    assert holds("phase = Sprout", {"phase": "Sprout"}, order)


def test_quoted_levels():
    order = {"phase": ("Seed", "Sprout", "Plant")}
    assert holds("phase = 'Sprout'", {"phase": "Sprout"}, order)


def test_referenced_names_excludes_resolved_levels():
    node = parse("0 <= x and phase = Sprout")
    assert referenced_names(node) == frozenset({"x", "phase", "Sprout"})


def test_missing_parameter():
    with pytest.raises(MissingParameterError):
        holds("x < 10", {"y": 3})


@pytest.mark.parametrize("bad", ["", "x <", "x + 1 < 2", "(x < 1", "x << 2", "1 2"])
def test_syntax_errors(bad):
    with pytest.raises(ExpressionError):
        parse(bad)


@pytest.mark.parametrize("wrap", [lambda e: f"({e})", lambda e: f"not {e}", lambda e: f"!({e})"])
def test_nesting_is_limited(wrap):
    ok = "x < 1"
    for _ in range(MAX_DEPTH // 2):
        ok = wrap(ok)
    node = parse(ok)
    assert referenced_names(node) == {"x"}
    assert compile(node)({"x": 0})  # an even number of negations
    deep = "x < 1"
    for _ in range(MAX_DEPTH + 1):
        deep = wrap(deep)
    with pytest.raises(ExpressionError, match="nests deeper than"):
        parse(deep)


def test_parse_is_reusable():
    holds_for = compile(parse("0 <= x < 10"))
    assert holds_for({"x": 5})
    assert not holds_for({"x": 50})


@given(st.integers(-50, 50))
def test_interval_predicate_matches_python_semantics(x):
    assert holds("-10 <= x < 10", {"x": x}) == (-10 <= x < 10)


@given(st.integers(-20, 20), st.integers(-20, 20))
def test_conjunction_matches_python_semantics(x, y):
    got = holds("x < y and not (x = y)", {"x": x, "y": y})
    assert got == (x < y)


# Differential check of the compiled closures against the tree-walking
# oracle: the same bool, or the same exception type and message.

_ORDERS = {
    "phase": ("Seed", "Sprout", "Plant"),
    "twin": ("Seed", "Sprout", "Plant"),  # equal levels: one order
    "stage": ("L0", "L1", "Seed"),  # shares the level name Seed
}
_NAMES = ("x", "y", "phase", "twin", "stage", "z", "Seed", "Sprout", "Plant", "L1", "L2")
_VALUES = (0.0, 2.5, -1.0, 3, 7, True, None, "Seed", "Plant", "L1", "mud", "a", (1,))


def _random_operand(rng):
    pick = rng.random()
    if pick < 0.25:
        return repr(rng.choice((0, 1, 2.5, -3, 10)))
    if pick < 0.35:
        return repr(rng.choice(("Seed", "Plant", "L0", "a", "b")))
    return rng.choice(_NAMES)


def _random_expression(rng, depth=0):
    pick = rng.random()
    if depth >= 3 or pick < 0.5:
        operands = [_random_operand(rng) for _ in range(rng.choice((2, 2, 3)))]
        text = operands[0]
        for operand in operands[1:]:
            text += f" {rng.choice(('<', '<=', '=', '>=', '>'))} {operand}"
        return text
    if pick < 0.65:
        return f"not ({_random_expression(rng, depth + 1)})"
    joiner = " and " if pick < 0.85 else " or "
    return joiner.join(f"({_random_expression(rng, depth + 1)})" for _ in range(rng.choice((2, 3))))


def _random_assignment(rng):
    names = rng.sample(_NAMES, rng.randrange(len(_NAMES) + 1))
    return {name: rng.choice(_VALUES + _ORDERS.get(name, ())) for name in names}


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the type and message are what is compared
        return (type(exc), str(exc))


def test_compiled_predicates_equal_the_tree_walking_oracle():
    rng = random.Random(20)
    seen = set()
    for _ in range(3000):
        text = _random_expression(rng)
        node = parse(text)
        orders = rng.choice((_ORDERS, {"phase": _ORDERS["phase"]}, None))
        compiled = compile(node, orders)
        for _ in range(6):
            assignment = _random_assignment(rng)
            want = _outcome(evaluate, node, assignment, orders)
            assert _outcome(compiled, assignment) == want, (text, assignment, orders)
            seen.add(want if isinstance(want, bool) else want[0])
    # Every outcome occurs: both bools and each error type.
    assert seen == {True, False, MissingParameterError, IncomparableValuesError}


def test_compiled_fast_paths_fall_back_on_unusual_values():
    orders = {"phase": ("Seed", "Sprout", "Plant")}
    interval = compile(parse("0 <= x < 10"))
    assert interval({"x": 5}) and not interval({"x": 10})  # ints take the full resolution
    with pytest.raises(MissingParameterError):
        interval({})
    with pytest.raises(IncomparableValuesError, match="non-comparable value True"):
        interval({"x": True})  # a bool is not a number here
    above = compile(parse("5 < x"))  # read as x > 5
    assert above({"x": 6.0}) and above({"x": 6}) and not above({"x": 5.0})
    literal = compile(parse("phase <= Sprout"), orders)
    assert literal({"phase": "Seed"}) and not literal({"phase": "Plant"})
    # A bound name is a parameter, even when it is also a level.
    with pytest.raises(IncomparableValuesError, match="cannot compare a number"):
        literal({"phase": "Seed", "Sprout": 1.0})


_ABSENT = object()
_UNUSUAL = (4.0, 5.0, -0.0, float("nan"), float("inf"), float("-inf"), 5, 0, True, False, "a", "5", None, (5.0,), _ABSENT)


@pytest.mark.parametrize("text", [
    "x < 5", "x <= 5", "x = 5", "x >= 5", "x > 5", "5 < x", "5 <= x", "5 = x", "5 >= x", "5 > x",
    "0 <= x < 10", "0 < x <= 5", "10 > x >= 5", "4 = x = 4", "-1 <= x <= -1",
])
def test_float_name_chains_equal_the_oracle_on_every_kind_of_value(text):
    node = parse(text)
    compiled = compile(node)
    for value in _UNUSUAL:
        assignment = {"y": 1.0} if value is _ABSENT else {"x": value, "y": 1.0}
        want = _outcome(evaluate, node, assignment, None)
        assert _outcome(compiled, assignment) == want, (text, value)


@pytest.mark.parametrize("text", [
    "x < 1 and y < 2 and x > -1",
    "x < 1 or y < 2 or x > 3 or y = 0",
    "not (x < 1 and y < 2 and z < 3)",
    "not (x < 1 or y < 2 or z < 3)",
    "(x < 1 or y < 2 or z < 3) and (x > 0 or y > 0 or z > 0) and not (x = y)",
    "x < 0 or (y < 1 and z < 2 and not (x < 5 or y < 5 or z < 5)) or z = 4",
    "not (not (x < 1 and y < 1 and z < 1) or not (x > -5 or y > -5 or z > -5))",
])
def test_and_or_of_three_or_more_items_equal_the_oracle(text):
    node = parse(text)
    compiled = compile(node)
    rng = random.Random(text)
    values = (-6.0, 0.0, 0.5, 1.0, 4.0, 2, True, None, "a")
    seen = set()
    for _ in range(400):
        assignment = {name: rng.choice(values) for name in ("x", "y", "z") if rng.random() < 0.85}
        want = _outcome(evaluate, node, assignment, None)
        assert _outcome(compiled, assignment) == want, (text, assignment)
        seen.add(want if isinstance(want, bool) else want[0])
    assert {True, False} <= seen


def test_long_and_or_chains_equal_the_oracle_on_random_expressions():
    rng = random.Random(21)
    seen = set()
    for _ in range(1500):
        joiner = rng.choice((" and ", " or "))
        text = joiner.join(f"({_random_expression(rng, 2)})" for _ in range(rng.randint(3, 5)))
        if rng.random() < 0.3:
            text = f"not ({text})"
        if rng.random() < 0.3:
            text = f"({text}){rng.choice((' and ', ' or '))}({_random_expression(rng, 2)})"
        node = parse(text)
        orders = rng.choice((_ORDERS, None))
        compiled = compile(node, orders)
        for _ in range(4):
            assignment = _random_assignment(rng)
            want = _outcome(evaluate, node, assignment, orders)
            assert _outcome(compiled, assignment) == want, (text, assignment, orders)
            seen.add(want if isinstance(want, bool) else want[0])
    assert seen == {True, False, MissingParameterError, IncomparableValuesError}


def test_a_level_literal_takes_the_first_order_of_its_chain():
    # Seed is a level of both orders: here it is read in stage's, as rank 2.
    orders = {"stage": ("L0", "L1", "Seed"), "phase": ("Seed", "Sprout", "Plant")}
    node = parse("stage > Seed < phase")
    assert compile(node, orders)({"stage": "L1", "phase": "Plant"}) is False
    assert evaluate(node, {"stage": "L1", "phase": "Plant"}, orders) is False
