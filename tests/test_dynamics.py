"""Per-tick estimation, trend classification, and parallel profiles."""

import random
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from statedev.dynamics import (
    DynamicsKind,
    DynamicsState,
    EmptyOverlapError,
    ParameterSeries,
    SeriesTooShortError,
    classify_series,
    current_symbol,
    estimate_state,
    _states,
    fold_states,
    parallel_profile,
)
from statedev.errors import IncomparableValuesError
from tests.oracles import reference_classify_series, reference_estimate_state, reference_parallel_profile


def series(*values, start=0):
    ticks = tuple(range(start, start + len(values)))
    return ParameterSeries("p", ticks, tuple(float(v) for v in values))


def test_equal_values_extend_steady():
    prev = DynamicsState(DynamicsKind.STEADY, 1)
    assert estimate_state(prev, 5.0, 5.0) == DynamicsState(DynamicsKind.STEADY, 2)


def test_first_increase_starts_growth():
    got = estimate_state(DynamicsState.INITIAL, 1.0, 2.0)
    assert got == DynamicsState(DynamicsKind.GROWTH, 1)


def test_rise_after_decline_is_turn_min():
    prev = DynamicsState(DynamicsKind.DECLINE, 3)
    assert estimate_state(prev, 4.0, 6.0) == DynamicsState(DynamicsKind.TURN_MIN, 1)


def test_fall_after_growth_is_turn_max():
    prev = DynamicsState(DynamicsKind.GROWTH, 2)
    assert estimate_state(prev, 6.0, 4.0) == DynamicsState(DynamicsKind.TURN_MAX, 1)


def test_epsilon_band_reads_as_steady():
    prev = DynamicsState(DynamicsKind.GROWTH, 1)
    assert estimate_state(prev, 5.0, 5.3, epsilon=0.5).kind is DynamicsKind.STEADY


def test_negative_epsilon_rejected():
    with pytest.raises(ValueError):
        estimate_state(DynamicsState.INITIAL, 1.0, 2.0, epsilon=-0.1)


def test_incomparable_values():
    with pytest.raises(IncomparableValuesError):
        estimate_state(DynamicsState.INITIAL, 1.0, "b", epsilon=0.5)


def _outcome(estimate, *args):
    """The state estimate gives, or the type and message of what it raises."""
    try:
        return estimate(*args)
    except Exception as exc:
        return type(exc), str(exc)


def test_estimate_state_equals_the_rule_written_case_by_case():
    prevs = [DynamicsState(kind, streak) for kind in DynamicsKind
             for streak in ((0,) if kind is DynamicsKind.UNKNOWN else (1, 2, 5))]
    moves = [(1.0, 2.0), (2.0, 1.0), (3.0, 3.0), (5.0, 5.3), (5.3, 5.0), (1.0, "b"), ("a", 1.0), ("a", "b")]
    cases = [(prev, a, b, epsilon) for prev in prevs for a, b in moves for epsilon in (0.0, 0.5, -0.1)]
    outcomes = [_outcome(estimate_state, *case) for case in cases]
    assert outcomes == [_outcome(reference_estimate_state, *case) for case in cases]
    # Every kind is reached, and both errors are raised.
    assert {o.kind for o in outcomes if isinstance(o, DynamicsState)} == set(DynamicsKind) - {
        DynamicsKind.CYCLE_SUSPECT, DynamicsKind.UNKNOWN}
    assert {o[0] for o in outcomes if isinstance(o, tuple)} == {ValueError, IncomparableValuesError}


def test_fold_is_deterministic():
    values = (1.0, 2.0, 3.0, 2.0, 2.0, 1.0)
    assert fold_states(values) == fold_states(values)


def test_classify_monotone_increasing():
    t = classify_series(series(1, 2, 3, 4, 5))
    assert t.monotone == "increasing"
    assert t.critical_points == ()
    assert t.cyclic_period is None
    assert t.forecast is DynamicsKind.GROWTH


def test_classify_monotone_decreasing():
    assert classify_series(series(5, 4, 3, 2, 1)).monotone == "decreasing"


def test_classify_single_peak():
    t = classify_series(series(1, 2, 3, 2, 1))
    assert t.monotone == "none"
    assert t.critical_points == (2,)
    assert t.bounds == (1.0, 3.0)


def test_classify_cycle_period_four():
    t = classify_series(series(0, 1, 0, -1, 0, 1, 0, -1))
    assert t.cyclic_period == 4


def test_cycle_soundness_inequality():
    s = series(0, 1, 0, -1, 0, 1, 0, -1)
    p = classify_series(s).cyclic_period
    assert p is not None
    assert max(abs(s.values[i] - s.values[i - p]) for i in range(p, len(s.values))) == 0


def test_series_too_short():
    with pytest.raises(SeriesTooShortError):
        classify_series(series(1))


def test_current_symbol_tracks_last_step():
    assert current_symbol(classify_series(series(1, 2, 3, 2, 1))) is DynamicsKind.DECLINE
    assert current_symbol(classify_series(series(1, 2))) is DynamicsKind.GROWTH


def test_agreement_between_fold_and_trend_on_monotone_series():
    s = series(1, 2, 3, 4)
    states = fold_states(s.values)
    assert states[-1].kind is DynamicsKind.GROWTH
    assert classify_series(s).monotone == "increasing"


@given(st.lists(st.floats(-100, 100, allow_nan=False), min_size=2, max_size=30))
def test_epsilon_never_adds_critical_points(values):
    s = series(*values)
    tight = len(classify_series(s, epsilon=0.0).critical_points)
    loose = len(classify_series(s, epsilon=1.5).critical_points)
    assert loose <= tight


@given(st.lists(st.floats(-50, 50, allow_nan=False), min_size=3, max_size=20))
def test_reported_cycles_satisfy_soundness(values):
    s = series(*values)
    t = classify_series(s, epsilon=0.25)
    if t.cyclic_period is not None:
        p = t.cyclic_period
        assert p >= 2
        assert all(abs(s.values[i] - s.values[i - p]) <= 0.25 for i in range(p, len(s.values)))


def test_profile_identical_series_give_identical_rows():
    a = ParameterSeries("a", (0, 1, 2), (1.0, 2.0, 3.0))
    b = ParameterSeries("b", (0, 1, 2), (1.0, 2.0, 3.0))
    profile = parallel_profile([a, b], (0, 2))
    assert profile.rows["a"] == profile.rows["b"]
    assert all(s.kind is DynamicsKind.GROWTH for s in _states(profile.rows["a"])[1:])


def test_profile_opposite_series():
    a = ParameterSeries("a", (0, 1, 2), (1.0, 2.0, 3.0))
    b = ParameterSeries("b", (0, 1, 2), (3.0, 2.0, 1.0))
    profile = parallel_profile([a, b], (0, 2))
    for ka, kb in zip(_states(profile.rows["a"])[1:], _states(profile.rows["b"])[1:]):
        assert ka.kind is DynamicsKind.GROWTH
        assert kb.kind is DynamicsKind.DECLINE


def test_profile_marks_ticks_before_series_start_unknown():
    late = ParameterSeries("p", tuple(range(5, 10)), (1.0, 2.0, 3.0, 4.0, 5.0))
    profile = parallel_profile([late], (0, 9))
    assert profile.rows["p"] == ((DynamicsKind.UNKNOWN, 0, 6), (DynamicsKind.GROWTH, 1, 4))
    row = _states(profile.rows["p"])
    assert all(s.kind is DynamicsKind.UNKNOWN for s in row[:5])
    assert row[6].kind is DynamicsKind.GROWTH


def test_profile_requires_overlap():
    late = ParameterSeries("p", (5, 6), (1.0, 2.0))
    with pytest.raises(EmptyOverlapError):
        parallel_profile([late], (0, 4))


def test_series_requires_increasing_ticks():
    with pytest.raises(ValueError):
        ParameterSeries("p", (0, 0, 1), (1.0, 2.0, 3.0))


def test_ordinal_series_classifies_through_level_order():
    s = ParameterSeries.from_ordinal(
        "phase", (0, 1, 2), ("Seed", "Sprout", "Plant"), ("Seed", "Sprout", "Plant")
    )
    assert classify_series(s).monotone == "increasing"


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the type and message are what is compared
        return (type(exc), str(exc))


def _random_values(rng, n):
    alphabet = rng.sample(range(-3, 4), rng.randint(1, 4))
    return tuple(float(rng.choice(alphabet)) for _ in range(n))


def _random_series(rng, name):
    n = rng.randint(1, 40)
    start = rng.randint(0, 6)
    ticks = sorted(rng.sample(range(start, start + 2 * n + 2), n))
    if rng.random() < 0.3:
        order = ("Seed", "Sprout", "Plant", "Tree")
        return ParameterSeries.from_ordinal(name, ticks, [rng.choice(order) for _ in range(n)], order)
    return ParameterSeries(name, tuple(ticks), _random_values(rng, n))


def _long_values(rng, n):
    """n values in monotone runs and plateaus of up to 300 ticks each; a
    step of 0.25 reads as a plateau at epsilon 0.5."""
    values, x = [], 0.0
    while len(values) < n:
        step = rng.choice((1.0, -1.0, 2.0, 0.0, 0.25, -0.25))
        for _ in range(rng.randint(1, 300)):
            x += step
            values.append(x)
    return tuple(values[:n])


def _long_series(rng, name, ticks):
    values = _long_values(rng, len(ticks))
    if rng.random() < 0.3:  # ordinal, one level per distinct value in value order
        order = [f"L{v}" for v in sorted(set(values))]
        return ParameterSeries.from_ordinal(name, ticks, [f"L{v}" for v in values], order)
    return ParameterSeries(name, tuple(ticks), values)


def _longest_run(profile):
    return max(n for runs in profile.rows.values() for _, _, n in runs)


def test_classify_and_profile_equal_the_two_fold_reference():
    # Errors first: a negative epsilon, values that do not compare or subtract.
    for values, epsilon in [((1.0, 2.0), -1.0), ((1.0,), -1.0), ((1.0, "a", 2.0), 0.0),
                            ((1.0, "a"), 0.5), (("a", "b", "a", "b"), 0.0)]:
        s = ParameterSeries("p", tuple(range(len(values))), values)
        assert _outcome(classify_series, s, epsilon) == _outcome(reference_classify_series, s, epsilon)
        got = _outcome(parallel_profile, [s], (0, 3), epsilon)
        assert got == _outcome(reference_parallel_profile, [s], (0, 3), epsilon)
    rng = random.Random(30)
    for _ in range(1500):
        epsilon = rng.choice((0.0, 0.0, 0.5, 1.0, 2.5))
        series_set = [_random_series(rng, name) for name in ("a", "b", "c")[:rng.randint(1, 3)]]
        for s in series_set:
            assert _outcome(classify_series, s, epsilon) == _outcome(reference_classify_series, s, epsilon)
        a = rng.randint(0, 20)
        interval = (a, a + rng.randint(0, 60))
        got = _outcome(parallel_profile, series_set, interval, epsilon)
        assert got == _outcome(reference_parallel_profile, series_set, interval, epsilon)
    # Long runs, on the grid's ticks or gapped, and intervals past either end.
    longest = 0
    for _ in range(40):
        epsilon = rng.choice((0.0, 0.5))
        series_set = []
        for name in ("a", "b", "c")[:rng.randint(1, 3)]:
            n, start = rng.randint(2, 600), rng.randint(-5, 5)
            gapped = rng.random() < 0.5
            ticks = sorted(rng.sample(range(start, start + n + 60), n)) if gapped else range(start, start + n)
            series_set.append(_long_series(rng, name, list(ticks)))
        for s in series_set:
            assert classify_series(s, epsilon) == reference_classify_series(s, epsilon)
        a = rng.randint(-10, 20)
        interval = (a, a + rng.randint(0, 700))
        got = _outcome(parallel_profile, series_set, interval, epsilon)
        assert got == _outcome(reference_parallel_profile, series_set, interval, epsilon)
        if not isinstance(got, tuple):
            longest = max(longest, _longest_run(got))
    assert longest >= 200


def test_a_series_on_the_grid_passes_its_fold_through():
    # Series on the grid, inside it, reaching past it on either side, and
    # with one gap between the grid's ends: every row equals the reference.
    rng = random.Random(32)
    for _ in range(1500):
        n, start = rng.randint(1, 30), rng.randint(-5, 10)
        ticks = list(range(start, start + n + 1))
        del ticks[rng.randrange(1, n) if n > 1 and rng.random() < 0.3 else n]
        s = ParameterSeries("p", tuple(ticks), _random_values(rng, n))
        a = rng.choice((start, start - rng.randint(1, 5), start + rng.randint(0, n)))
        b = rng.choice((ticks[-1], ticks[-1], a + rng.randint(0, 40), a - 1))
        epsilon = rng.choice((0.0, 0.5))
        got = _outcome(parallel_profile, [s], (a, b), epsilon)
        assert got == _outcome(reference_parallel_profile, [s], (a, b), epsilon), (s, a, b)
    longest = 0
    for _ in range(40):
        n, start = rng.randint(2, 600), rng.randint(-5, 10)
        ticks = list(range(start, start + n + 1))
        del ticks[rng.randrange(1, n) if rng.random() < 0.3 else n]
        s = _long_series(rng, "p", ticks)
        a = rng.choice((start, start, start - rng.randint(1, 5), start + rng.randint(0, n)))
        b = rng.choice((ticks[-1], ticks[-1], a + rng.randint(0, 700)))
        epsilon = rng.choice((0.0, 0.5))
        got = _outcome(parallel_profile, [s], (a, b), epsilon)
        assert got == _outcome(reference_parallel_profile, [s], (a, b), epsilon), (s, a, b)
        if not isinstance(got, tuple):
            longest = max(longest, _longest_run(got))
    assert longest >= 200
    exact = ParameterSeries("p", (3, 4, 5), (1.0, 2.0, 1.0))
    runs = ((DynamicsKind.UNKNOWN, 0, 1), (DynamicsKind.GROWTH, 1, 1), (DynamicsKind.TURN_MAX, 1, 1))
    assert parallel_profile([exact], (3, 5)).rows["p"] == runs
    assert tuple(_states(runs)) == fold_states(exact.values)


def test_cycle_search_equals_the_direct_search():
    rng = random.Random(31)
    periods = set()
    for _ in range(3000):
        p, n = rng.randint(1, 9), rng.randint(3, 60)
        pattern = _random_values(rng, p)
        values = [pattern[t % p] for t in range(n)]
        if rng.random() < 0.5:  # one outlier breaks the period
            values[rng.randrange(n)] += rng.choice((1.0, -1.0, 0.25))
        s = ParameterSeries("p", tuple(range(n)), tuple(values))
        epsilon = rng.choice((0.0, 0.0, 0.0, 0.5))
        got = classify_series(s, epsilon)
        assert got == reference_classify_series(s, epsilon), (values, epsilon)
        periods.add(got.cyclic_period)
    assert None in periods and len(periods) > 8


def test_cycle_search_is_linear_for_exact_equality():
    # A 0/1 alternation ending in one outlier has no period: the direct
    # search tries all n/2 candidates, each until the outlier.
    n = 8000
    values = tuple(float(t % 2) for t in range(n - 1)) + (5.0,)
    series = ParameterSeries("p", tuple(range(n)), values)
    start = time.perf_counter()
    trend = classify_series(series)
    assert time.perf_counter() - start < 0.25
    assert trend.cyclic_period is None
