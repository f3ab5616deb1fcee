"""Qualitative dynamics: per-tick state estimation and trend classification.

The estimator answers "what is the parameter doing right now" from the
previous qualitative state and two consecutive values; the classifier
answers the retrospective questions (monotone? turning points? bounded?
inflexion? cyclic?) over a whole observation window. A parallel profile
lays the states of several parameters on one tick grid so that
classification rules can read a full system snapshot; it keeps each row,
and the fold, as runs of equal directions, not one state per tick.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from itertools import compress
from typing import ClassVar, Mapping, Sequence

from .errors import IncomparableValuesError, StatedevError


class SeriesTooShortError(StatedevError):
    """Operation needs more observations than the series holds."""


class EmptyOverlapError(StatedevError):
    """A series has no tick inside the requested interval."""

    def __init__(self, parameter: str):
        super().__init__(f"series for parameter {parameter!r} does not overlap the interval")
        self.parameter = parameter


class DynamicsKind(Enum):
    """Qualitative state vocabulary; declaration order is the ordinal order."""

    GROWTH = "Growth"
    DECLINE = "Decline"
    STEADY = "Steady"
    TURN_MAX = "TurnMax"
    TURN_MIN = "TurnMin"
    CYCLE_SUSPECT = "CycleSuspect"
    UNKNOWN = "Unknown"


VOCABULARY: tuple[str, ...] = tuple(kind.value for kind in DynamicsKind)


@dataclass(frozen=True)
class DynamicsState:
    kind: DynamicsKind
    streak: int

    def __post_init__(self):
        if self.kind is DynamicsKind.UNKNOWN:
            if self.streak != 0:
                raise ValueError("Unknown carries streak 0")
        elif self.streak < 1:
            raise ValueError("streak must be >= 1")

    INITIAL: ClassVar["DynamicsState"]


DynamicsState.INITIAL = DynamicsState(DynamicsKind.UNKNOWN, 0)


def _direction(x_prev, x_curr, epsilon: float) -> int:
    """-1, 0, +1 with |delta| <= epsilon treated as no movement."""
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    try:
        if epsilon == 0:
            if x_curr > x_prev:
                return 1
            return -1 if x_curr < x_prev else 0
        delta = x_curr - x_prev
    except TypeError:
        raise IncomparableValuesError(
            f"cannot compare {x_prev!r} with {x_curr!r}"
        ) from None
    if delta > epsilon:
        return 1
    return -1 if delta < -epsilon else 0


def _signs(values: Sequence, epsilon: float) -> list[int]:
    """The direction of every consecutive pair, as _direction gives it."""
    if len(values) < 2:
        return []
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    try:
        if epsilon == 0:
            return [(b > a) - (b < a) for a, b in zip(values, values[1:])]
        return [(d > epsilon) - (d < -epsilon) for d in map(operator.sub, values[1:], values)]
    except TypeError:
        # Name the first pair that does not compare.
        return [_direction(a, b, epsilon) for a, b in zip(values, values[1:])]


# The estimator's kind from the direction before and the direction now.
_NEXT_KIND = {
    (-1, -1): DynamicsKind.DECLINE,
    (0, -1): DynamicsKind.DECLINE,
    (1, -1): DynamicsKind.TURN_MAX,
    (-1, 0): DynamicsKind.STEADY,
    (0, 0): DynamicsKind.STEADY,
    (1, 0): DynamicsKind.STEADY,
    (-1, 1): DynamicsKind.TURN_MIN,
    (0, 1): DynamicsKind.GROWTH,
    (1, 1): DynamicsKind.GROWTH,
}


# The direction before, read off the previous kind: a rise left Growth or
# TurnMin, a fall Decline or TurnMax, and no movement Steady or the initial
# Unknown. CycleSuspect, which only current_symbol gives, reads as none.
_LAST_DIRECTION = {
    DynamicsKind.GROWTH: 1,
    DynamicsKind.TURN_MIN: 1,
    DynamicsKind.DECLINE: -1,
    DynamicsKind.TURN_MAX: -1,
    DynamicsKind.STEADY: 0,
    DynamicsKind.CYCLE_SUSPECT: 0,
    DynamicsKind.UNKNOWN: 0,
}


def estimate_state(
    prev: DynamicsState, x_prev, x_curr, epsilon: float = 0.0
) -> DynamicsState:
    """One estimation step: new qualitative state from the previous one
    and two consecutive values. Pure function of its four inputs.

    Movement within epsilon is Steady. A rise after a decline (or right
    after a peak) is TurnMin; symmetric for TurnMax. Rises and falls
    otherwise extend or start Growth/Decline streaks. A streak grows while
    the kind repeats and otherwise starts at 1.
    """
    kind = _NEXT_KIND[_LAST_DIRECTION[prev.kind], _direction(x_prev, x_curr, epsilon)]
    return DynamicsState(kind, prev.streak + 1 if kind is prev.kind else 1)


# A run of equal states in a row: (kind, streak of its first tick, length).
# The streak grows by one each tick, except in a run of Unknown, which keeps 0.
Run = tuple[DynamicsKind, int, int]


def fold_states(values: Sequence, epsilon: float = 0.0) -> tuple[DynamicsState, ...]:
    """States after each observation; the first is always the initial Unknown.

    Equal to chaining estimate_state over the values: a state's streak
    grows while its kind repeats, and a turn never follows itself.
    """
    return tuple(_states(_fold(_signs(values, epsilon)))) if values else ()


def _sign_runs(signs: Sequence[int]) -> list[int]:
    """The index where each run of equal signs starts."""
    return [0, *compress(range(1, len(signs)), map(operator.ne, signs[1:], signs))] if signs else []


def _fold(signs: Sequence[int]) -> list[Run]:
    """fold_states of the values whose directions are signs, as maximal runs.

    Within a run of sign s that follows sign p, the first kind is
    _NEXT_KIND[p, s] and the rest are _NEXT_KIND[s, s]. The kind changes
    at every run boundary, so the streak restarts there.
    """
    runs = [(DynamicsKind.UNKNOWN, 0, 1)]
    starts = _sign_runs(signs)
    prev = 0
    for start, end in zip(starts, [*starts[1:], len(signs)]):
        sign = signs[start]
        first, rest = _NEXT_KIND[prev, sign], _NEXT_KIND[sign, sign]
        if first is rest:
            runs.append((first, 1, end - start))
        else:
            runs.append((first, 1, 1))
            if end - start > 1:
                runs.append((rest, 1, end - start - 1))
        prev = sign
    return runs


def _states(runs: Sequence[Run]) -> list[DynamicsState]:
    """The state at each tick the runs cover."""
    out: list[DynamicsState] = []
    for kind, first, n in runs:
        if kind is DynamicsKind.UNKNOWN:
            out += [DynamicsState.INITIAL] * n
        else:
            out += [DynamicsState(kind, streak) for streak in range(first, first + n)]
    return out


def _runs_of(states: Sequence[DynamicsState]) -> list[Run]:
    """The maximal runs of a row of states: a state continues the run
    before it when it has the run's kind and the next streak."""
    runs: list[Run] = []
    kind, first, n = None, 0, 0
    for state in states:
        if state.kind is kind and (state.streak == first + n or kind is DynamicsKind.UNKNOWN):
            n += 1
        else:
            if n:
                runs.append((kind, first, n))
            kind, first, n = state.kind, state.streak, 1
    runs.append((kind, first, n))
    return runs


@dataclass(frozen=True)
class ParameterSeries:
    """Observations of one parameter on an integer tick grid."""

    parameter: str
    ticks: tuple[int, ...]
    values: tuple

    def __post_init__(self):
        ticks = tuple(map(int, self.ticks))
        object.__setattr__(self, "ticks", ticks)
        object.__setattr__(self, "values", tuple(self.values))
        if len(ticks) != len(self.values):
            raise ValueError("ticks and values differ in length")
        if not ticks:
            raise ValueError("series must hold at least one observation")
        if any(map(operator.ge, ticks, ticks[1:])):
            raise ValueError("ticks must be strictly increasing")

    @classmethod
    def from_ordinal(
        cls, parameter: str, ticks: Sequence[int], levels: Sequence[str], order: Sequence[str]
    ) -> "ParameterSeries":
        """Build a rank-valued series from ordinal observations."""
        order = list(order)
        ranks = []
        for level in levels:
            if level not in order:
                raise ValueError(f"level {level!r} not in declared order")
            ranks.append(float(order.index(level)))
        return cls(parameter, tuple(ticks), tuple(ranks))


@dataclass(frozen=True)
class TrendClass:
    """Answers to the standard trend questions over one window."""

    monotone: str  # "increasing" | "decreasing" | "none"
    critical_points: tuple[int, ...]  # value indices where direction reverses
    inflexions: tuple[int, ...]  # value indices where curvature changes sign
    bounds: tuple  # observed (min, max)
    cyclic_period: int | None
    forecast: DynamicsKind  # one-step-ahead qualitative forecast


def _cycle_period(values: Sequence, epsilon: float) -> int | None:
    """The least p in [2, n//2] with every value epsilon-equal to its
    p-back counterpart, or None.

    For epsilon == 0 this is linear: the least period of the whole
    sequence is n minus its longest proper border, read off the
    Knuth-Morris-Pratt failure function, and every period is at least
    that. Epsilon-equality is not transitive, so for epsilon > 0 every
    candidate period is checked directly, O(n^2) in the worst case.
    """
    n = len(values)
    if epsilon == 0:
        border = [0] * n
        k = 0
        for i in range(1, n):
            while k and values[i] != values[k]:
                k = border[k - 1]
            if values[i] == values[k]:
                k += 1
            border[i] = k
        p = max(n - border[-1], 2)
        return p if p <= n // 2 else None
    for p in range(2, n // 2 + 1):
        if all(abs(values[t] - values[t - p]) <= epsilon for t in range(p, n)):
            return p
    return None


def _reversals(signs: Sequence[int]) -> list[int]:
    """The index of every nonzero sign that differs from the nonzero sign
    before it: the start of a run of nonzero signs whose sign differs from
    that of the last nonzero run."""
    out, before = [], 0
    for start in _sign_runs(signs):
        sign = signs[start]
        if sign:
            if sign != before and before:
                out.append(start)
            before = sign
    return out


def classify_series(series: ParameterSeries, epsilon: float = 0.0, signs: Sequence[int] | None = None) -> TrendClass:
    """Retrospective trend classification of one series.

    Needs at least 2 observations; inflexion and cycle search engage
    from 3. Cycle search looks for the minimal period p in [2, n//2]
    with every value epsilon-equal to its p-back counterpart; a series
    with no strict movement is reported as not cyclic. The forecast is
    the estimator's kind after the last observation, which the last two
    directions decide. signs, when given, are the series' directions at
    epsilon, as `ParallelProfile.signs` holds them.
    """
    values = series.values
    n = len(values)
    if n < 2:
        raise SeriesTooShortError("classification needs at least 2 observations")
    if signs is None:
        signs = _signs(values, epsilon)

    moving = any(signs)
    if moving and -1 not in signs:
        monotone = "increasing"
    elif moving and 1 not in signs:
        monotone = "decreasing"
    else:
        monotone = "none"
    criticals = _reversals(signs)  # value index of each extremum

    inflexions: list[int] = []
    if n >= 3:
        try:
            second = [c - 2 * b + a for a, b, c in zip(values, values[1:], values[2:])]
        except TypeError:
            second = None
        if second is not None:
            curve = [(dd > epsilon) - (dd < -epsilon) for dd in second]
            inflexions = [j + 1 for j in _reversals(curve)]

    cyclic_period = None
    if moving and n >= 3:
        cyclic_period = _cycle_period(values, epsilon)

    return TrendClass(
        monotone=monotone,
        critical_points=tuple(criticals),
        inflexions=tuple(inflexions),
        bounds=(min(values), max(values)),
        cyclic_period=cyclic_period,
        forecast=_NEXT_KIND[signs[-2] if n > 2 else 0, signs[-1]],
    )


def current_symbol(trend: TrendClass) -> DynamicsKind:
    """Current dynamics symbol for rule matrices: CycleSuspect when the
    classified window reads as cyclic, else the latest estimator state."""
    if trend.cyclic_period is not None:
        return DynamicsKind.CYCLE_SUSPECT
    return trend.forecast


@dataclass(frozen=True)
class ParallelProfile:
    """Dynamics states of several parameters on one tick grid."""

    parameters: tuple[str, ...]
    start: int
    end: int
    # parameter -> its states on the grid, as maximal runs
    rows: Mapping[str, tuple[Run, ...]]
    # parameter -> the direction of each consecutive pair of its values
    signs: Mapping[str, Sequence[int]] = field(default_factory=dict, compare=False, repr=False)


def parallel_profile(
    series_set: Sequence[ParameterSeries],
    interval: tuple[int, int],
    epsilon: float = 0.0,
) -> ParallelProfile:
    """Lay the estimator states of every series on the tick grid [a, b].

    A grid tick carries the fold state over all of that series' values
    up to and including it; ticks the series never observed are Unknown.
    Every series must overlap the interval. A series that observes
    exactly the grid's ticks keeps the runs of its fold as its row.
    """
    a, b = int(interval[0]), int(interval[1])
    if a > b:
        raise ValueError("interval start exceeds its end")
    names = [s.parameter for s in series_set]
    if len(set(names)) != len(names):
        raise ValueError("duplicate parameter in series set")
    rows: dict[str, tuple[Run, ...]] = {}
    signs: dict[str, list[int]] = {}
    for series in series_set:
        ticks = series.ticks
        i = bisect_left(ticks, a)
        if i == len(ticks) or ticks[i] > b:
            raise EmptyOverlapError(series.parameter)
        signs[series.parameter] = _signs(series.values, epsilon)
        runs = _fold(signs[series.parameter])
        if not (ticks[0] == a and ticks[-1] == b and len(ticks) == b - a + 1):
            by_tick = dict(zip(ticks, _states(runs)))
            runs = _runs_of([by_tick.get(t, DynamicsState.INITIAL) for t in range(a, b + 1)])
        rows[series.parameter] = tuple(runs)
    return ParallelProfile(parameters=tuple(names), start=a, end=b, rows=rows, signs=signs)
