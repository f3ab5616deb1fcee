"""Expression grammar: parsing, evaluation, name resolution, and errors."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from statedev.errors import ExpressionError, MissingParameterError
from statedev.predicates import MAX_DEPTH, evaluate, parse, referenced_names


def holds(text, assignment, orders=None):
    return evaluate(parse(text), assignment, orders)


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
    assert evaluate(node, {"x": 0})  # an even number of negations
    deep = "x < 1"
    for _ in range(MAX_DEPTH + 1):
        deep = wrap(deep)
    with pytest.raises(ExpressionError, match="nests deeper than"):
        parse(deep)


def test_parse_is_reusable():
    node = parse("0 <= x < 10")
    assert evaluate(node, {"x": 5})
    assert not evaluate(node, {"x": 50})


@given(st.integers(-50, 50))
def test_interval_predicate_matches_python_semantics(x):
    assert holds("-10 <= x < 10", {"x": x}) == (-10 <= x < 10)


@given(st.integers(-20, 20), st.integers(-20, 20))
def test_conjunction_matches_python_semantics(x, y):
    got = holds("x < y and not (x = y)", {"x": x, "y": y})
    assert got == (x < y)
