"""Scales, hierarchical classification, sampling checks, rule matrices."""

import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from statedev.errors import MissingParameterError
from statedev.modelfile import parse_model
from statedev.statespace import (
    Classificator,
    MissingParameterRangeError,
    MultipleMatchError,
    NoMatchError,
    ParameterDecl,
    Predicate,
    RuleMatrix,
    SampleSpec,
    Scale,
    State,
    apply_rule_matrix,
    classify_hierarchical,
    evaluate_scale,
    sample_assignments,
    validate_classificator,
    validate_scale_disjointness,
)
from tests.conftest import BASIC
from tests.oracles import reference_sample_assignments


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
    assert report.passed
    assert report.samples == 10_000


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
    # phase3 compares the declared ordinal `phase` with bare level names.
    report = validate_scale_disjointness(basic_model.scales["phase3"], SampleSpec(samples=50), basic_model.parameters)
    assert report.passed
    assert report.samples == 50


def test_only_declared_parameters_are_sampled():
    # Seed is a literal where its chain holds phase, and a missing name
    # where it does not; z is declared nowhere.
    phase = {"phase": ParameterDecl("phase", "ordinal", levels=("Seed", "Sprout", "Plant"))}
    literal = scale("lit", "phase = Seed", "phase > Seed")
    assert validate_scale_disjointness(literal, SampleSpec(samples=20), phase).samples == 20
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
    assert report.samples == 500
    assert report.violations and {v[:2] for v in report.violations} == {("sign", 2)}
    assert [(type(exc), exc.names) for exc in report.unsampled] == [(MissingParameterRangeError, ("y",))]


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
