"""Model file parsing: completeness of error reports and round-tripping."""

import json

import pytest

from statedev.modelfile import ModelFileError, parse_model, parse_model_text, serialize_trajectory
from statedev.reports import canonical_json
from statedev.scenario import Backstep, Delivery, Firing, Skipped, run_scenario, validate_scenario
from statedev.scenariofile import event_from_dict, load_trajectory_text
from tests.conftest import BASIC, TWO_LEVEL
from tests.oracles import model_to_dict


def test_basic_fixture_parses_fully(basic_model):
    m = basic_model
    assert set(m.parameters) == {"x", "phase"}
    assert set(m.scales) == {"growth3", "low_split", "phase3"}
    assert set(m.classificators) == {"growth"}
    assert set(m.rule_matrices) == {"trend_rule"}
    assert set(m.series) == {"x_run"}
    assert set(m.canonical) == {"dev3", "boost"}
    assert set(m.composition_requests) == {
        "dev_then_boost", "dev_with_boost", "dev_boost_merge", "dev_milestones",
    }


def test_two_level_fixture_parses_fully(two_level_model):
    m = two_level_model
    assert set(m.scenarios) == {"coordinated", "neglected"}
    assert set(m.score_tables) == {"default"}
    sc = m.scenarios["coordinated"]
    assert sc.hierarchy.preorder == ("top", "left", "right")
    assert len(sc.after_effect.parent_links) == 2


def test_round_trip_is_lossless(basic_model, two_level_model):
    for model in (basic_model, two_level_model):
        text = canonical_json(model_to_dict(model))
        again = parse_model_text(text)
        assert model_to_dict(again) == model_to_dict(model)
        # canonical serialization: a second pass is byte-identical
        assert canonical_json(model_to_dict(again)) == text
    # a classificator's time_window is not read, so it is not written back
    raw = json.loads(BASIC.read_text())
    raw["classificators"]["growth"]["time_window"] = [0, 5]
    windowed = parse_model_text(json.dumps(raw))
    assert "time_window" not in canonical_json(model_to_dict(windowed))
    assert model_to_dict(windowed) == model_to_dict(basic_model)


def test_unknown_format_version_is_one_clear_issue():
    with pytest.raises(ModelFileError) as err:
        parse_model_text(json.dumps({"format_version": 99}))
    issues = err.value.issues
    assert len(issues) == 1
    assert issues[0].code == "unknown-version"


def test_json_syntax_error_reports_line_and_column():
    with pytest.raises(ModelFileError) as err:
        parse_model_text('{"format_version": 1,\n  "scales": }')
    (issue,) = err.value.issues
    assert issue.code == "parse-error"
    assert issue.line == 2
    assert issue.column is not None


def test_unknown_section_is_flagged():
    with pytest.raises(ModelFileError) as err:
        parse_model_text(json.dumps({"format_version": 1, "wibbles": {}}))
    assert any("wibbles" in i.where or "wibbles" in i.message for i in err.value.issues)


def test_three_independent_errors_reported_together():
    text = json.dumps({
        "format_version": 1,
        "parameters": {"x": {"kind": "numeric"}},
        "scales": {
            "s": {"states": [
                {"id": "a", "predicate": "x <"},          # syntax error
                {"id": "b", "predicate": "x >= 0"},
            ]},
        },
        "classificators": {
            "c": {"root": "missing_scale"},               # unresolved reference
        },
        "series": {
            "run": {"parameter": "y", "ticks": [0], "values": [1]},  # undeclared parameter
        },
    })
    with pytest.raises(ModelFileError) as err:
        parse_model_text(text)
    issues = err.value.issues
    codes = sorted(i.code for i in issues)
    assert codes == ["parse-error", "unresolved-reference", "unresolved-reference"]
    wheres = " ".join(i.where for i in issues)
    assert "scales.s" in wheres
    assert "classificators.c" in wheres
    assert "series.run" in wheres


def test_error_message_counts_remaining_issues():
    with pytest.raises(ModelFileError) as err:
        parse_model_text(json.dumps({
            "format_version": 1,
            "classificators": {"a": {"root": "no1"}, "b": {"root": "no2"}},
        }))
    assert "(+1 more" in str(err.value)


def test_unresolved_initial_distribution_state():
    text = json.dumps({
        "format_version": 1,
        "canonical_diagrams": {
            "d": {
                "states": ["a", "b"],
                "initial": "a",
                "final": "b",
                "horizon": 3,
                "dev_arcs": [{"from": "a", "to": "b", "delta": 1}],
                "initial_distribution": {"obj": "zz"},
            },
        },
    })
    with pytest.raises(ModelFileError) as err:
        parse_model_text(text)
    assert any("zz" in i.message for i in err.value.issues)


def test_request_referencing_unknown_diagram():
    text = json.dumps({
        "format_version": 1,
        "composition_requests": {
            "r": {"kind": "sequential", "diagrams": ["ghost"], "intervals": [3]},
        },
    })
    with pytest.raises(ModelFileError) as err:
        parse_model_text(text)
    assert any(i.code == "unresolved-reference" for i in err.value.issues)


def test_parent_link_child_must_be_a_hierarchy_child():
    raw = json.loads(TWO_LEVEL.read_text())
    sc = raw["scenarios"]["coordinated"]
    # point the advance tuple at the parent's own arc; parsing still works,
    # the semantic check reports it
    sc["after_effect"]["parent_links"][0]["children"] = [
        {"subsystem": "top", "from": "T1", "to": "T2", "symbol": "finish"},
    ]
    model = parse_model_text(json.dumps(raw))
    report = validate_scenario(model.scenarios["coordinated"])
    assert not report.passed
    assert any("child" in v for v in report.violations)


def test_after_effect_partition_derived_from_symbols(two_level_model):
    scheme = two_level_model.scenarios["coordinated"].after_effect
    assert all(ref.symbol in scheme.general_symbols for ref in scheme.coupled)
    assert all(ref.symbol in scheme.individual_symbols for ref in scheme.isolated)


def test_ordinal_series_values_decode_through_levels():
    text = json.dumps({
        "format_version": 1,
        "parameters": {"phase": {"kind": "ordinal", "levels": ["Seed", "Sprout", "Plant"]}},
        "series": {
            "run": {"parameter": "phase", "ticks": [0, 1], "values": ["Seed", "Plant"]},
        },
    })
    model = parse_model_text(text)
    assert model.series["run"].values == (0.0, 2.0)


def test_trajectory_file_round_trip(two_level_model):
    sc = two_level_model.scenarios["coordinated"]
    scores = two_level_model.score_tables["default"]
    tr = run_scenario(sc)
    text = serialize_trajectory(tr, sc, scores)
    sc2, tr2, scores2 = load_trajectory_text(text)
    assert tr2 == tr
    assert list(tr2.configurations()) == list(tr.configurations())
    assert sc2.id == sc.id
    assert scores2 == {k: dict(v) for k, v in scores.items()}


EVENTS = (
    Delivery(3, "left", "left_go", "general", True),
    Firing(3, "left", "L0", "L1", "left_go", "direct"),
    Backstep(4, "left", "L1", "L0"),
    Skipped(5, "right", "R0", "R1", "right_go", "R2"),
)


def test_each_event_kind_round_trips():
    for event in EVENTS:
        data = event._asdict()
        assert data["kind"] == event.kind
        assert json.loads(json.dumps(data)) == data
        back = event_from_dict(json.loads(json.dumps(data)))
        assert back == event and type(back) is type(event)
        # the kind is the class's own string, not one decoded per event
        assert back.kind is type(event)._field_defaults["kind"]


@pytest.mark.parametrize("data, message", [
    pytest.param({"kind": "firing", "subsystem": "left", "src": "L0", "dst": "L1", "symbol": "left_go",
                  "cause": "direct"}, "firing event needs an integer 'tick'", id="missing-field"),
    pytest.param({**EVENTS[0]._asdict(), "effective": "yes"}, "delivery event needs a boolean 'effective'",
                 id="wrong-type"),
    pytest.param({**EVENTS[3]._asdict(), "actual_state": 2}, "skipped event needs a string 'actual_state'",
                 id="wrong-type-last-field"),
    pytest.param({**EVENTS[2]._asdict(), "tick": True}, "backstep event needs an integer 'tick'",
                 id="bool-for-int"),
    pytest.param({**EVENTS[1]._asdict(), "tick": 1.0, "src": None}, "firing event needs an integer 'tick'",
                 id="first-bad-field-named"),
    pytest.param({**EVENTS[1]._asdict(), "kind": "teleport"}, "unknown event kind 'teleport'", id="unknown-kind"),
    pytest.param({**EVENTS[1]._asdict(), "kind": ["firing"]}, "unknown event kind ['firing']", id="list-kind"),
    pytest.param(["firing"], "unknown event kind None", id="not-an-object"),
])
def test_event_from_dict_names_the_first_bad_field(data, message):
    with pytest.raises(ValueError) as err:
        event_from_dict(data)
    assert str(err.value) == message
