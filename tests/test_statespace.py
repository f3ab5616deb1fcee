"""Scales, hierarchical classification, sampling checks, rule matrices."""

import pickle
import random
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from statedev.errors import IncomparableValuesError, MissingParameterError, StatedevError
from statedev.modelfile import parse_model
from statedev.statespace import (
    CELL_CAP,
    Classificator,
    MissingParameterRangeError,
    MultipleMatchError,
    NoMatchError,
    ParameterDecl,
    Predicate,
    RefinementReport,
    RuleMatrix,
    SampleSpec,
    Scale,
    State,
    apply_rule_matrix,
    classify_hierarchical,
    sample_assignments,
    validate_classificator,
    validate_scale_disjointness,
)
from tests.conftest import BASIC
from tests.oracles import (
    evaluate_scale,
    reference_cell_key,
    reference_sample_assignments,
    reference_validate_classificator,
    reference_validate_scale_disjointness,
)


def scale(sid, *exprs, ids=None):
    ids = ids or [f"{sid}.{i + 1}" for i in range(len(exprs))]
    return Scale(
        id=sid,
        predicates=tuple(Predicate(f"{sid}[{i}]", e) for i, e in enumerate(exprs)),
        states=tuple(State(ids[i], i + 1) for i in range(len(exprs))),
    )


def bounds(**ranges):
    """Numeric parameter declarations sampled over the given (low, high) ranges."""
    return {name: ParameterDecl(name, bounds=r) for name, r in ranges.items()}


X3 = scale("x3", "x < 0", "0 <= x < 10", "x >= 10", ids=["neg", "low", "high"])


def test_evaluate_scale_partition_membership():
    assert evaluate_scale(X3, {"x": 5}).id == "low"
    assert evaluate_scale(X3, {"x": -3}).id == "neg"
    assert evaluate_scale(X3, {"x": 10}).id == "high"


def test_evaluate_scale_overlap_reports_positions():
    overlapping = scale("ov", "x < 5", "x < 10")
    with pytest.raises(MultipleMatchError) as err:
        evaluate_scale(overlapping, {"x": 2})
    assert err.value.positions == (1, 2)


def test_evaluate_scale_gap_raises_no_match():
    gapped = scale("gap", "x < 0", "x > 0")
    with pytest.raises(NoMatchError):
        evaluate_scale(gapped, {"x": 0})


def test_evaluate_scale_missing_parameter():
    with pytest.raises(MissingParameterError):
        evaluate_scale(X3, {"y": 1})


def two_level_classificator():
    root = scale("sign", "x < 0", "x >= 0")
    child = scale("ysplit", "x >= 0 and y < 1", "x >= 0 and y >= 1")
    return Classificator(id="c", root=root, refinements={("sign", 2): child})


def test_classify_descends_into_refinement():
    path = classify_hierarchical(two_level_classificator(), {"x": 2, "y": 0})
    assert [s.id for s in path] == ["sign.2", "ysplit.1"]


def test_classify_stops_at_unrefined_state():
    path = classify_hierarchical(two_level_classificator(), {"x": -1, "y": 0})
    assert [s.id for s in path] == ["sign.1"]


def test_classify_propagates_no_match_at_root():
    gapped = scale("gap", "x < 0", "x > 0")
    c = Classificator(id="c", root=gapped)
    with pytest.raises(NoMatchError) as err:
        classify_hierarchical(c, {"x": 0})
    assert err.value.scale_id == "gap"


def test_refinement_position_must_exist():
    root = scale("sign", "x < 0", "x >= 0")
    with pytest.raises(ValueError):
        Classificator(id="c", root=root, refinements={("sign", 7): root})


def test_disjointness_pass_on_partition():
    spec = SampleSpec(samples=10_000, seed=7)
    report = validate_scale_disjointness(X3, spec, bounds(x=(-20.0, 20.0)))
    assert report.passed and not report.gaps
    # One point per cell: -20, -10, 0, 5, 10, 15, 20.
    assert report.samples == 7
    # A chain that reads two names is sampled.
    sampled = validate_scale_disjointness(scale("xy", "x < y", "x >= y"), spec, bounds(x=(-20.0, 20.0), y=(-20.0, 20.0)))
    assert sampled.passed and not sampled.gaps
    assert sampled.samples == 10_000


def test_disjointness_finds_overlap_point():
    overlapping = scale("ov", "x < 5", "x < 10")
    spec = SampleSpec(samples=50, seed=1)
    report = validate_scale_disjointness(overlapping, spec, bounds(x=(0.0, 4.0)))
    assert not report.passed
    for assignment, positions in report.overlaps:
        assert assignment["x"] < 5
        assert positions == (1, 2)


def test_disjointness_vacuous_without_predicate_pairs():
    # A single predicate has no pair to overlap with.
    single = scale("one", "x < 0")
    spec = SampleSpec(samples=10)
    assert validate_scale_disjointness(single, spec, bounds(x=(-1.0, 1.0))).passed


def test_predicates_that_read_no_name_are_checked_once():
    report = validate_scale_disjointness(scale("s", "1 < 2", "0 = 0"), SampleSpec(samples=50))
    assert (report.samples, report.overlaps) == (1, (({}, (1, 2)),))
    root = scale("r", "1 > 2", "x >= 0")
    leaky = Classificator(id="c", root=root, refinements={("r", 1): scale("k", "0 = 0")})
    report = validate_classificator(leaky, SampleSpec(samples=50))
    assert (report.samples, report.violations) == (1, (("r", 1, 1, {}),))


def test_scale_must_declare_at_least_one_state():
    with pytest.raises(ValueError):
        Scale(id="none", predicates=(), states=())


def test_disjointness_requires_ranges():
    with pytest.raises(MissingParameterRangeError) as err:
        validate_scale_disjointness(X3, SampleSpec(samples=10))
    assert err.value.names == ("x",)


def test_disjointness_samples_an_ordinal_scale(basic_model):
    # phase3 compares the declared ordinal `phase` with bare level names:
    # one point per level.
    report = validate_scale_disjointness(basic_model.scales["phase3"], SampleSpec(samples=50), basic_model.parameters)
    assert report.passed and not report.gaps
    assert report.samples == 3
    # Two ordinals of one level order compared with each other are sampled.
    levels = basic_model.parameters["phase"].levels
    both = {name: ParameterDecl(name, "ordinal", levels=levels) for name in ("phase", "stage")}
    report = validate_scale_disjointness(scale("ps", "phase < stage", "phase >= stage"), SampleSpec(samples=50), both)
    assert report.passed and not report.gaps
    assert report.samples == 50


def test_only_declared_parameters_are_sampled():
    # Seed is a literal where its chain holds phase, and a missing name
    # where it does not; z is declared nowhere.
    phase = {"phase": ParameterDecl("phase", "ordinal", levels=("Seed", "Sprout", "Plant"))}
    literal = scale("lit", "phase = Seed", "phase > Seed")
    assert validate_scale_disjointness(literal, SampleSpec(samples=20), phase).samples == 3
    both = {**phase, "stage": ParameterDecl("stage", "ordinal", levels=("Seed", "Sprout", "Plant"))}
    sampled = scale("lit2", "phase = Seed or phase < stage", "phase > Seed and phase >= stage")
    assert validate_scale_disjointness(sampled, SampleSpec(samples=20), both).samples == 20
    for exprs, missing in ((("phase = Seed", "Seed < 3"), ("Seed",)), (("phase = Seed", "z < 1"), ("z",))):
        with pytest.raises(MissingParameterRangeError) as err:
            validate_scale_disjointness(scale("s", *exprs), SampleSpec(samples=5), phase)
        assert err.value.names == missing


def test_sub_predicate_check_passes_on_true_refinement():
    spec = SampleSpec(samples=2000, seed=3)
    assert validate_classificator(
        two_level_classificator(), spec, bounds(x=(-5.0, 5.0), y=(-5.0, 5.0))
    ).passed


def test_sub_predicate_check_catches_leaky_child():
    root = scale("sign", "x < 0", "x >= 0")
    leaky = scale("leak", "x > -5", "x <= -5")  # covers points the parent state excludes
    c = Classificator(id="c", root=root, refinements={("sign", 2): leaky})
    spec = SampleSpec(samples=500, seed=3)
    report = validate_classificator(c, spec, bounds(x=(-4.0, 4.0)))
    assert not report.passed
    scale_ids = {v[0] for v in report.violations}
    assert scale_ids == {"sign"}


def test_each_refinement_is_sampled_on_its_own():
    # The (sign, 1) refinement reads y, which has no sampling range; the
    # leaky (sign, 2) refinement is still sampled and its escapes reported.
    root = scale("sign", "x < 0", "x >= 0")
    on_y = scale("on_y", "y < 0", "y >= 0")
    leaky = scale("leak", "x > -5", "x <= -5")
    c = Classificator(id="c", root=root, refinements={("sign", 1): on_y, ("sign", 2): leaky})
    report = validate_classificator(c, SampleSpec(samples=500, seed=3), bounds(x=(-4.0, 4.0)))
    # Cells of x in [-4, 4] cut at 0 (-5 lies outside): -4, -2, 0, 2, 4.
    assert report.samples == 5
    assert report.violations == (("sign", 2, 1, {"x": -4.0}), ("sign", 2, 1, {"x": -2.0}))
    assert [(type(exc), exc.names) for exc in report.unsampled] == [(MissingParameterRangeError, ("y",))]
    # A leaky child that compares two names is sampled.
    c = Classificator(id="c", root=root, refinements={
        ("sign", 1): on_y, ("sign", 2): scale("leak2", "x > z", "x <= z")})
    report = validate_classificator(c, SampleSpec(samples=500, seed=3), bounds(x=(-4.0, 4.0), z=(-4.0, 4.0)))
    assert report.samples == 500
    assert report.violations and {v[:2] for v in report.violations} == {("sign", 2)}
    assert [(type(exc), exc.names) for exc in report.unsampled] == [(MissingParameterRangeError, ("y",))]


def test_cells_decide_boundary_overlaps_and_gaps():
    # The overlap is the single point 5, which sampling misses; the gap is
    # the cells 4, (4, 6) and 6.
    x = bounds(x=(0.0, 10.0))
    touch = validate_scale_disjointness(scale("t", "x <= 5", "x >= 5"), SampleSpec(), x)
    assert (touch.overlaps, touch.gaps, touch.samples) == ((({"x": 5.0}, (1, 2)),), (), 5)
    holey = validate_scale_disjointness(scale("h", "x < 4", "x > 6"), SampleSpec(), x)
    assert (holey.overlaps, holey.gaps) == ((), ({"x": 4.0}, {"x": 5.0}, {"x": 6.0}))
    # A child's gaps count only where its parent holds: on [0, 5), not at 6.
    root = scale("r", "x < 5", "x >= 5")
    child = scale("k", "x < 2", "2 < x < 6")
    report = validate_classificator(Classificator(id="c", root=root, refinements={("r", 1): child}), SampleSpec(), x)
    assert report.gaps == (("r", 1, {"x": 2.0}),)
    assert report.violations == (("r", 1, 2, {"x": 5.0}), ("r", 1, 2, {"x": 5.5}))


def test_cells_of_the_widest_bounds_stay_finite():
    wide = bounds(x=(-1.7e308, 1.7e308))
    report = validate_scale_disjointness(scale("s", "x < 0", "x > 0"), SampleSpec(), wide)
    assert report.samples == 5
    assert report.gaps == ({"x": 0.0},)


def test_a_scale_over_the_cell_cap_is_sampled():
    # On [0, 41] the cuts 1..40 leave 42 edges and 41 midpoints per name:
    # 83 * 83 points for x and y.
    big = scale("big", *(f"x = {k} or y = {k}" for k in range(1, 41)), "x < 0")
    decls = bounds(x=(0.0, 41.0), y=(0.0, 41.0))
    assert 83 * 83 > CELL_CAP
    spec = SampleSpec(samples=300, seed=4)
    report = validate_scale_disjointness(big, spec, decls)
    assert report == reference_validate_scale_disjointness(big, spec, decls)
    assert report.samples == 300
    # On [0, 21] y keeps the cuts 1..20: 83 * 43 points, under the cap.
    assert 83 * 43 <= CELL_CAP
    assert validate_scale_disjointness(big, spec, bounds(x=(0.0, 41.0), y=(0.0, 21.0))).samples == 83 * 43


_NUMBERS = ("-2", "0", "1", "2.5", "3", "5", "7.5", "10", "12")
_LEVELS = ("a", "b", "'b'", "c")


def _random_chain(rng, shape):
    """A comparison chain that reads one of x, y, p; or, at a small rate,
    two names, an undeclared name, or a number against a level."""
    roll = rng.random()
    if roll < 0.04:
        shape.add("two names")
        return f"x {rng.choice(('<', '<=', '>='))} y"
    if roll < 0.06:
        return rng.choice(("p < 3", "x = 'a'"))
    if roll < 0.07:
        return rng.choice(("z < 1", "w >= 0"))
    name = rng.choice("xyp")
    pool = _LEVELS if name == "p" else _NUMBERS
    ops = ("<", "<=", "=", ">=", ">")
    if rng.random() < 0.3:
        lo, hi = sorted(rng.sample(range(len(pool)), 2))
        return f"{pool[lo]} {rng.choice(('<', '<='))} {name} {rng.choice(('<', '<='))} {pool[hi]}"
    if rng.random() < 0.5:
        return f"{name} {rng.choice(ops)} {rng.choice(pool)}"
    return f"{rng.choice(pool)} {rng.choice(ops)} {name}"


def _random_predicate(rng, shape, depth=0):
    roll = rng.random()
    if depth >= 2 or roll < 0.5:
        return _random_chain(rng, shape)
    if roll < 0.6:
        return f"not ({_random_predicate(rng, shape, depth + 1)})"
    joined = rng.choice((" and ", " or "))
    return "(" + joined.join(_random_predicate(rng, shape, depth + 1) for _ in range(2)) + ")"


def _outcome(check, *args):
    try:
        return check(*args)
    except StatedevError as exc:
        return type(exc), str(exc)


_SPACE = {
    "x": ParameterDecl("x", bounds=(0.0, 10.0)),
    "y": ParameterDecl("y", bounds=(-5.0, 5.0)),
    "p": ParameterDecl("p", "ordinal", levels=("a", "b", "c")),
    "w": ParameterDecl("w"),
}


def _compare_checks(want, got, shape, cells_of, seen):
    """Every fault the samples find lies in a cell where the cells find it;
    where cells do not decide, both checks are one sampling."""
    if isinstance(want, tuple):
        assert got == want
        seen.add(want[0])
    elif isinstance(got, tuple):
        # A fault on cells that the samples missed.
        assert got[0] is IncomparableValuesError
        seen.add("raised on cells only")
    elif "two names" in shape:
        assert got == want
        seen.add("sampled")
    else:
        assert got.samples <= CELL_CAP
        for name, found, sampled in cells_of(want, got):
            assert len(set(found)) == len(found), name  # one point per cell
            assert set(sampled) <= set(found), name
            seen.add(name if sampled else f"{name} on cells only" if found else "sound")


def test_cells_find_every_sampled_fault_of_a_scale():
    rng = random.Random(20261020)
    seen = set()
    for _ in range(700):
        shape = set()
        s = scale("s", *(_random_predicate(rng, shape) for _ in range(rng.randint(1, 4))))
        spec = SampleSpec(samples=200, seed=rng.randrange(1000))
        key = reference_cell_key(s.predicates, _SPACE)
        cells_of = lambda want, got: (
            ("overlaps", [(key(at), hits) for at, hits in got.overlaps], [(key(at), hits) for at, hits in want.overlaps]),
            ("gaps", [key(at) for at in got.gaps], [key(at) for at in want.gaps]),
        )
        want = _outcome(reference_validate_scale_disjointness, s, spec, _SPACE)
        got = _outcome(validate_scale_disjointness, s, spec, _SPACE)
        _compare_checks(want, got, shape, cells_of, seen)
    assert seen >= {
        "overlaps", "gaps", "overlaps on cells only", "gaps on cells only", "sound", "sampled",
        MissingParameterRangeError, IncomparableValuesError,
    }


def test_cells_find_every_sampled_fault_of_a_refinement():
    rng = random.Random(20261021)
    seen = set()
    for _ in range(400):
        # One refinement, so that a chain of two names in its predicates
        # makes the whole check sampled.
        shapes = [set() for _ in range(rng.randint(1, 3))]
        root = scale("r", *(_random_predicate(rng, shape) for shape in shapes))
        pos = rng.randint(1, len(root.predicates))
        shape = shapes[pos - 1]
        refinements = {("r", pos): scale("k", *(_random_predicate(rng, shape) for _ in range(rng.randint(1, 3))))}
        c = Classificator(id="c", root=root, refinements=refinements)
        spec = SampleSpec(samples=200, seed=rng.randrange(1000))

        key = reference_cell_key((root.predicates[pos - 1], *refinements["r", pos].predicates), _SPACE)
        cells_of = lambda want, got: (
            ("escapes", [(j, key(at)) for _, _, j, at in got.violations], [(j, key(at)) for _, _, j, at in want.violations]),
            ("gaps", [key(at) for _, _, at in got.gaps], [key(at) for _, _, at in want.gaps]),
        )
        want, got = (
            replace(r, unsampled=tuple((type(exc), str(exc)) for exc in r.unsampled)) if isinstance(r, RefinementReport) else r
            for r in (_outcome(reference_validate_classificator, c, spec, _SPACE),
                      _outcome(validate_classificator, c, spec, _SPACE))
        )
        if isinstance(want, RefinementReport) and isinstance(got, RefinementReport):
            assert got.unsampled == want.unsampled
        _compare_checks(want, got, shape, cells_of, seen)
    assert seen >= {"escapes", "gaps", "escapes on cells only", "gaps on cells only", "sound", "sampled"}


def test_a_missing_range_raises_at_the_call():
    with pytest.raises(MissingParameterRangeError):
        sample_assignments(SampleSpec(samples=5), ["x", "y"], bounds(x=(0.0, 1.0)))


def test_a_parsed_model_survives_pickling():
    # Classifying compiles the predicates; their closures do not pickle, so
    # a copy is made without them and compiles again on first use.
    model = parse_model(BASIC)
    obj = {"x": 7.0, "phase": "Seed"}
    path = classify_hierarchical(model.classificators["growth"], obj, model.parameters)
    copy = pickle.loads(pickle.dumps(model))
    assert copy == model
    assert classify_hierarchical(copy.classificators["growth"], obj, copy.parameters) == path


def test_sampling_is_seed_deterministic():
    spec = SampleSpec(samples=25, seed=11)
    a = list(sample_assignments(spec, ["x"], bounds(x=(0.0, 1.0))))
    b = list(sample_assignments(spec, ["x"], bounds(x=(0.0, 1.0))))
    assert a == b
    c = list(sample_assignments(SampleSpec(samples=25, seed=12), ["x"], bounds(x=(0.0, 1.0))))
    assert a != c


def test_ordinal_with_numeric_levels_draws_only_its_levels():
    # Two numeric levels are still levels, not a (low, high) range.
    ordinal = {"g": ParameterDecl("g", "ordinal", levels=(1, 2))}
    draws = [a["g"] for a in sample_assignments(SampleSpec(samples=200, seed=5), ["g"], ordinal)]
    assert all(type(g) is int for g in draws)
    assert set(draws) == {1, 2}


def _random_decl(rng, name):
    roll = rng.random()
    if roll < 0.4:
        levels = rng.sample(["L0", "L1", "L2", "L3", 7, 8.5], rng.randint(1, 5))
        return ParameterDecl(name, "ordinal", levels=tuple(levels))
    if roll < 0.95:
        lo = rng.choice([0.0, -1.0, 1e-9, rng.uniform(-50, 50), -1e300])
        hi = rng.choice([lo, lo + rng.uniform(0, 100), 1e300])
        return ParameterDecl(name, bounds=(lo, hi))
    return ParameterDecl(name)  # numeric without bounds: no sampling range


def _draws(fn, spec, names, parameters):
    try:
        return [[(name, type(v), repr(v)) for name, v in a.items()] for a in fn(spec, names, parameters)]
    except MissingParameterRangeError as exc:
        return (type(exc), str(exc))


def test_bound_draws_equal_the_per_sample_kind_tests():
    rng = random.Random(41)
    kinds = set()
    for _ in range(600):
        pool = rng.sample(["a", "b", "c", "d", "e", "f"], rng.randint(0, 6))
        parameters = {name: _random_decl(rng, name) for name in pool if rng.random() < 0.95}
        names = rng.sample(pool, len(pool))  # any order: both sort the names
        spec = SampleSpec(samples=rng.randint(1, 40), seed=rng.randrange(1000))
        want = _draws(reference_sample_assignments, spec, names, parameters)
        assert _draws(sample_assignments, spec, names, parameters) == want
        if isinstance(want, list) and want:
            kinds.add(frozenset(kind for _, kind, _ in want[0]))
        elif not isinstance(want, list):
            kinds.add(want[0])
    assert {frozenset({str, float}), frozenset({str, int, float}), MissingParameterRangeError} <= kinds


def test_rule_matrix_single_cell():
    m = RuleMatrix(
        id="m",
        parameters=("p",),
        classes=("J1",),
        cells=((Predicate("c", "state = Growth"),),),
    )
    assert apply_rule_matrix(m, {"p": "Growth"}) == frozenset({"J1"})
    assert apply_rule_matrix(m, {"p": "Decline"}) == frozenset()


def test_rule_matrix_two_by_two():
    # J1 wants (Growth, Growth); J2 wants (Growth, Decline).
    m = RuleMatrix(
        id="m",
        parameters=("p", "q"),
        classes=("J1", "J2"),
        cells=(
            (Predicate("a", "state = Growth"), Predicate("b", "state = Growth")),
            (Predicate("c", "state = Growth"), Predicate("d", "state = Decline")),
        ),
    )
    assert apply_rule_matrix(m, {"p": "Growth", "q": "Decline"}) == frozenset({"J2"})
    assert apply_rule_matrix(m, {"p": "Growth", "q": "Growth"}) == frozenset({"J1"})


def test_rule_matrix_missing_row_parameter():
    m = RuleMatrix(
        id="m",
        parameters=("p",),
        classes=("J1",),
        cells=((Predicate("c", "state = Growth"),),),
    )
    with pytest.raises(MissingParameterError):
        apply_rule_matrix(m, {"q": "Growth"})


def test_rule_matrix_rejects_foreign_names():
    with pytest.raises(ValueError):
        RuleMatrix(
            id="m",
            parameters=("p",),
            classes=("J1",),
            cells=((Predicate("c", "other = Growth"),),),
        )


@given(st.floats(min_value=-100, max_value=100, allow_nan=False))
def test_partition_scale_always_matches_exactly_once(x):
    state = evaluate_scale(X3, {"x": x})
    expected = "neg" if x < 0 else ("low" if x < 10 else "high")
    assert state.id == expected


@given(st.integers(-100, 100), st.integers(-100, 100))
def test_order_correspondence(a, b):
    sa = evaluate_scale(X3, {"x": a})
    sb = evaluate_scale(X3, {"x": b})
    if sa.scale_position < sb.scale_position:
        assert a < b
