"""Command-line surface: exit codes, report schemas, determinism, round trips."""

import csv
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import statedev
from statedev import cli, dynamics
from statedev.cli import main
from statedev.errors import StatedevError
from statedev.modelfile import parse_model
from statedev.reports import Report, canonical_json, emit_report
from tests.conftest import BASIC, DEV3_EVENTS, TWO_LEVEL, X_SERIES
from statedev.statespace import CELL_CAP, SampleSpec
from tests.oracles import reference_profile_rows, reference_read_series_csv, reference_sample_assignments

BASIC_S = str(BASIC)
TWO_LEVEL_S = str(TWO_LEVEL)
UNSOUND_S = str(BASIC.parent / "unsound.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out) if out else None, err


def test_validate_help_names_the_cell_cap(capsys):
    code, out, _ = run(capsys, "validate", "--help")
    assert code == 0
    assert f"over {CELL_CAP} cells" in " ".join(out.split())


def test_validate_passes_on_shipped_fixtures(capsys):
    for path in (BASIC_S, TWO_LEVEL_S):
        code, report, _ = run_json(capsys, "validate", path)
        assert code == 0
        assert report["kind"] == "validation"
        assert report["body"]["passed"] is True
        assert report["body"]["violations"] == []
        assert path in report["provenance"]["inputs"]


def test_validate_reports_every_issue_of_a_broken_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "format_version": 1,
        "parameters": {"x": {}},
        "scales": {"s": {"states": [{"id": "a", "predicate": "x <"}]}},
        "classificators": {"c": {"root": "ghost"}},
    }))
    code, report, _ = run_json(capsys, "validate", str(bad))
    assert code == 1
    assert report["body"]["passed"] is False
    assert len(report["body"]["violations"]) == 2


def test_validate_checks_the_other_refinements_of_an_unsampled_one(tmp_path, capsys):
    # A second refinement of `sparse` reads the unbounded y: it gets the
    # warning, and the escapes of (gap, 1) are still all reported.
    flawed = BASIC.parent / "flawed.json"
    model = json.loads(flawed.read_text())
    model["classificators"]["sparse"]["refinements"].append({"scale": "gap", "position": 2, "child": "level"})
    path = tmp_path / "flawed2.json"
    path.write_text(json.dumps(model))
    _, before, _ = run_json(capsys, "validate", str(flawed))
    code, after, _ = run_json(capsys, "validate", str(path))
    assert code == 1
    assert after["body"]["violations"] == before["body"]["violations"]
    # One line per escaping cell of x in [-10, 20] cut at 0 and 10.
    assert [line for line in after["body"]["violations"] if "'sparse'" in line] == [
        f"classificator 'sparse': child predicate {j} of ('gap', 1) escapes its parent at {{'x': {x}}}"
        for j, x in ((1, 0.0), (1, 5.0), (2, 10.0), (2, 15.0), (2, 20.0))
    ]
    assert after["body"]["warnings"] == before["body"]["warnings"] + [
        "classificator 'sparse': refinement not sampled (no sampling range for parameter(s): y)"
    ]
    # A child that compares x with a second bounded name is sampled: every
    # sample with x >= 0 escapes the parent x < 0 once.
    model["parameters"]["z"] = {"kind": "numeric", "bounds": [0, 20]}
    model["scales"]["wide"]["states"] = [{"id": "under", "predicate": "x < z"}, {"id": "over", "predicate": "x >= z"}]
    path.write_text(json.dumps(model))
    code, sampled, _ = run_json(capsys, "validate", str(path))
    assert code == 1
    draws = reference_sample_assignments(SampleSpec(samples=1000, seed=0), ["x", "z"], parse_model(path).parameters)
    escapes = sum(draw["x"] >= 0 for draw in draws)
    assert f"classificator 'sparse': {escapes - 5} further escapes" in sampled["body"]["violations"]


def test_validate_flags_the_points_where_classify_fails(capsys):
    # unsound.json: `touching` overlaps at 5, `holey` has no state on [4, 6].
    code, report, _ = run_json(capsys, "validate", UNSOUND_S)
    assert code == 1
    assert report["body"]["violations"][0] == "scale 'touching': predicates [1, 2] overlap at {'x': 5.0}"
    assert report["body"]["warnings"] == [f"scale 'holey': no predicate holds at {{'x': {x}}}" for x in (4.0, 5.0, 6.0)]
    for cid, x, outcome in (
        ("by_touching", 5, "multiple-match in scale 'touching' at positions [1, 2]"),
        ("by_touching", 4.5, "classified"),
        *(("by_holey", x, "no-match in scale 'holey'") for x in (4, 5.5, 6)),
        ("by_holey", 6.5, "classified"),
    ):
        report = run_json(capsys, "classify", UNSOUND_S, "--object", f"x={x}", "--classificator", cid)[1]
        assert report["body"]["outcome"] == outcome, (cid, x)


@pytest.mark.parametrize("states, lines", [
    (["lo", "hi"], []),
    (["hi"], []),
    (["hi", "lo"], ["state 'lo' follows 'hi', which comes later in scale 'split'"]),
    (["lo", "zz", "hi"], ["state 'zz' is not a state of scale 'split'"]),
    (["zz", "hi", "lo", "yy"], ["state 'zz' is not a state of scale 'split'",
                                "state 'lo' follows 'hi', which comes later in scale 'split'",
                                "state 'yy' is not a state of scale 'split'"]),
])
def test_validate_requires_a_diagram_to_follow_its_scale(tmp_path, capsys, states, lines):
    model = json.loads(Path(UNSOUND_S).read_text())
    model["canonical_diagrams"]["reversed"].update(states=states, initial=states[0], final=states[-1], dev_arcs=[])
    path = tmp_path / "diagram.json"
    path.write_text(json.dumps(model))
    violations = run_json(capsys, "validate", str(path))[1]["body"]["violations"]
    assert [v for v in violations if v.endswith("scale 'split'")] == [
        f"diagram 'reversed': {line}" for line in lines
    ]


def test_validate_checks_predicates_that_read_no_name(tmp_path, capsys):
    # Both states of `s` hold everywhere, as classify finds; validate has
    # no name to sample and checks the empty assignment once.
    model = tmp_path / "constant.json"
    model.write_text(json.dumps({
        "format_version": 1,
        "scales": {"s": {"states": [
            {"id": "a", "predicate": "1 < 2"}, {"id": "b", "predicate": "0 = 0"},
        ]}},
        "classificators": {"c": {"root": "s"}},
    }))
    code, report, _ = run_json(capsys, "validate", str(model))
    assert code == 1
    assert report["body"]["violations"] == ["scale 's': predicates [1, 2] overlap at {}"]
    code, report, _ = run_json(capsys, "classify", str(model), "--object", "x=1", "--classificator", "c")
    assert (code, report["body"]["outcome"]) == (1, "multiple-match in scale 's' at positions [1, 2]")


def test_validate_missing_file_exits_one(capsys):
    code, out, err = run(capsys, "validate", "/nonexistent/model.json")
    assert code == 1
    assert out == ""
    assert "error" in err


def test_unknown_subcommand_exits_two(capsys):
    assert run(capsys, "wibble")[0] == 2


def test_classify_object_exit_codes(capsys):
    code, report, _ = run_json(
        capsys, "classify", BASIC_S, "--object", "x=7", "--classificator", "growth"
    )
    assert code == 0
    assert report["body"]["outcome"] == "classified"
    assert [p["state"] for p in report["body"]["path"]] == ["low", "low_late"]

    code, report, _ = run_json(
        capsys, "classify", BASIC_S, "--object", "x=7", "--classificator", "nope"
    )
    assert code == 1


@pytest.mark.parametrize("obj, reason", [
    ("x", "object entries must look like name=value, got 'x'"),
    ("x=7,x=1", "object parameter 'x' appears more than once"),
])
def test_classify_bad_object_syntax_is_usage_error(capsys, obj, reason):
    code, out, err = run(capsys, "classify", BASIC_S, "--object", obj,
                         "--classificator", "growth")
    assert code == 2
    assert "usage error" in err and reason in err
    assert out == ""


def test_profile_over_series_csv(capsys):
    code, report, _ = run_json(
        capsys, "profile", BASIC_S, "--series", str(X_SERIES), "--interval", "0:4"
    )
    assert code == 0
    kinds = [row["cells"]["x"]["kind"] for row in report["body"]["rows"]]
    assert kinds == ["Unknown", "Growth", "Growth", "TurnMax", "Decline"]
    assert report["body"]["trends"]["x"]["critical_points"] == [2]


# Names a template could misread: a % (read as a conversion unless doubled),
# a quote and a backslash (escaped by JSON) and a non-ASCII letter.
_AWKWARD_NAMES = ["x", "%", "a%d", "50%s", 'q"uote', "back\\slash", "\u00e9t\u00e9", "B"]


def _row_series(rng, name):
    """A series of runs of equal steps, on a tick range or gapped."""
    n, start = rng.randint(1, 60), rng.randint(-3, 8)
    if rng.random() < 0.4:
        ticks = sorted(rng.sample(range(start, start + n + 12), n))
    else:
        ticks = list(range(start, start + n))
    values, x = [], 0.0
    while len(values) < n:
        step = rng.choice((1.0, -1.0, 0.0, 0.25))
        for _ in range(rng.randint(1, 15)):
            x += step
            values.append(x)
    return dynamics.ParameterSeries(name, tuple(ticks), tuple(values[:n]))


def _profile_body(profile, rows):
    return {"parameters": list(profile.parameters), "start": profile.start, "end": profile.end,
            "rows": rows, "trends": {}}


def test_profile_rows_text_equals_the_reference_tree():
    rng = random.Random(41)
    seen = {"unsorted": 0, "gap": 0, "past": 0, "percent": 0}
    for _ in range(400):
        names = rng.sample(_AWKWARD_NAMES, rng.randint(1, 4))
        series_set = [_row_series(rng, name) for name in names]
        a = rng.randint(-6, 10)
        interval = (a, a + rng.randint(0, 80))
        epsilon = rng.choice((0.0, 0.5))
        try:
            profile = dynamics.parallel_profile(series_set, interval, epsilon)
        except dynamics.EmptyOverlapError:
            continue
        provenance = {"tool": "t"}
        report = Report("profile", _profile_body(profile, cli._profile_rows(profile)), provenance)
        rows = reference_profile_rows(series_set, interval, epsilon)
        want = {"kind": "profile", "body": _profile_body(profile, rows), "provenance": provenance}
        assert emit_report(report) == canonical_json(want)
        # human-text lists each row's cells, in sorted name order, before its tick.
        sorted_rows = [{"cells": dict(sorted(row["cells"].items())), "tick": row["tick"]} for row in rows]
        text = Report("profile", _profile_body(profile, sorted_rows), provenance)
        assert emit_report(report, "human-text") == emit_report(text, "human-text")
        seen["unsorted"] += names != sorted(names)
        inside = [range(max(s.ticks[0], a), min(s.ticks[-1], interval[1]) + 1) for s in series_set]
        seen["gap"] += any(set(ticks) - set(s.ticks) for s, ticks in zip(series_set, inside))
        seen["past"] += any(s.ticks[0] > a or s.ticks[-1] < interval[1] for s in series_set)
        seen["percent"] += any("%" in name for name in names)
    assert min(seen.values()) >= 20, seen


def test_profile_of_columns_with_awkward_names(tmp_path, capsys):
    series = tmp_path / "s.csv"
    with open(series, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["tick", *_AWKWARD_NAMES])
        for t in range(6):
            writer.writerow([t, *(((t * (i + 1)) % 4) for i in range(len(_AWKWARD_NAMES)))])
    code, out, _ = run(capsys, "profile", BASIC_S, "--series", str(series), "--interval=-1:7")
    assert code == 0
    report = json.loads(out)
    set_ = cli._read_series_csv(str(series), parse_model(BASIC_S))
    report["body"]["rows"] = reference_profile_rows(set_, (-1, 7))
    assert out == canonical_json(report)
    assert list(report["body"]["rows"][3]["cells"]) == _AWKWARD_NAMES


def test_replay_intensity_report(capsys):
    code, report, _ = run_json(
        capsys, "replay", BASIC_S, "--diagram", "dev3", "--events", str(DEV3_EVENTS)
    )
    assert code == 0
    body = report["body"]
    assert body["development"] == 4
    assert body["degradation"] == 1
    assert body["ratio"] == 4.0
    # conservation: two objects at every tick
    for tick in range(7):
        assert sum(series[tick] for series in body["occupancy"].values()) == 2


def test_replay_rejects_inconsistent_event(tmp_path, capsys):
    events = tmp_path / "events.csv"
    events.write_text("tick,object,from,to,arc_kind\n1,a,low,high,dev\n")
    code, report, _ = run_json(capsys, "replay", BASIC_S, "--diagram", "dev3",
                               "--events", str(events))
    assert code == 1
    assert report["kind"] == "validation"


def test_consist_reports_all_request_kinds(capsys):
    outcomes = {}
    for request in ("dev_then_boost", "dev_with_boost", "dev_boost_merge", "dev_milestones"):
        code, report, _ = run_json(capsys, "consist", BASIC_S, "--request", request)
        assert code == 0
        outcomes[request] = report["body"]["outcome"]
    assert outcomes == {
        "dev_then_boost": "composed",
        "dev_with_boost": "composed",
        "dev_boost_merge": "composed",
        "dev_milestones": "consistent",
    }


def test_consist_inconsistent_is_still_exit_zero(tmp_path, capsys):
    raw = json.loads(BASIC.read_text())
    raw["composition_requests"] = {
        "rushed": {
            "kind": "consistency",
            "diagrams": ["dev3"],
            "intervals": [6],
            "sequence": [{"diagram": 0, "state": "high", "deadline": 1}],
        },
    }
    path = tmp_path / "m.json"
    path.write_text(json.dumps(raw))
    code, report, _ = run_json(capsys, "consist", str(path), "--request", "rushed")
    assert code == 0
    assert report["body"]["outcome"] == "inconsistent"
    assert report["body"]["detail"]["failed_prefix"] == 1


def test_consist_rejected_composition_exits_one(tmp_path, capsys):
    raw = json.loads(BASIC.read_text())
    raw["composition_requests"] = {
        "bad": {
            "kind": "sequential",
            "diagrams": ["dev3", "boost"],
            "intervals": [6, 6],
        },
    }
    path = tmp_path / "m.json"
    path.write_text(json.dumps(raw))
    code, report, _ = run_json(capsys, "consist", str(path), "--request", "bad")
    assert code == 1
    assert report["body"]["outcome"] == "rejected"
    assert "message" in report["body"]["detail"]


def test_simulate_writes_trajectory_and_events(tmp_path, capsys):
    out = tmp_path / "traj.json"
    events = tmp_path / "events.csv"
    code, report, _ = run_json(
        capsys, "simulate", TWO_LEVEL_S, "--scenario", "neglected",
        "--scores", "default", "--out", str(out), "--events-out", str(events),
    )
    assert code == 0
    body = report["body"]
    assert body["complete"] is False
    assert body["omitted_possibilities"]["total"] == 3
    assert body["complexness"]["total"] == 4
    assert body["efficiency"]["aggregate"] == [0.0, 4.0, 6.0, 3.0, 1.0, 1.0]

    with events.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["seq", "tick", "kind", "subsystem", "symbol",
                       "src", "dst", "cause", "effective"]
    assert len(rows) == 11
    assert json.loads(out.read_text())["scenario_id"] == "neglected"


def test_simulate_unknown_scenario_exits_one(capsys):
    code, report, _ = run_json(capsys, "simulate", TWO_LEVEL_S, "--scenario", "ghost")
    assert code == 1
    assert report["kind"] == "validation"


def test_analyze_matches_simulate_report(tmp_path, capsys):
    out = tmp_path / "traj.json"
    code, simulated, _ = run_json(
        capsys, "simulate", TWO_LEVEL_S, "--scenario", "coordinated",
        "--scores", "default", "--out", str(out),
    )
    assert code == 0
    code, analyzed, _ = run_json(capsys, "analyze", str(out))
    assert code == 0
    assert analyzed["body"] == simulated["body"]


def test_compare_ranks_complete_run_first(tmp_path, capsys):
    reports = []
    for name in ("coordinated", "neglected"):
        path = tmp_path / f"{name}.json"
        code, out, _ = run(capsys, "simulate", TWO_LEVEL_S, "--scenario", name,
                           "--scores", "default")
        assert code == 0
        path.write_text(out)
        reports.append(str(path))
    code, report, _ = run_json(capsys, "compare", *reports)
    assert code == 0
    assert report["body"]["ranking"] == [["coordinated"], ["neglected"]]


def test_compare_single_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "r.json"
    code, out, _ = run(capsys, "simulate", TWO_LEVEL_S, "--scenario", "coordinated")
    path.write_text(out)
    code, _, err = run(capsys, "compare", str(path))
    assert code == 2
    assert "two report files" in err


@pytest.mark.parametrize("damage, message", [
    (lambda r: r["body"].pop("complete"), "no key 'complete'"),
    (lambda r: r["body"].update(efficiency=[1]), "list indices must be integers"),
    (lambda r: r["body"].update(omitted_possibilities=None), "not subscriptable"),
    (lambda r: r["body"].update(subsystems=[["top"]]), "expected a string, got list"),
    (lambda r: r["body"].update(scenario=float("nan")), "expected a string, got float"),
    (lambda r: r["body"].update(efficiency={"per_subsystem": {}, "aggregate": ["high"]}),
     "could not convert string to float: 'high'"),
    (lambda r: r["body"]["complexness"].update(total=float("inf")), "cannot convert float infinity to integer"),
], ids=["no-complete", "list-efficiency", "null-omitted", "list-subsystem", "nan-scenario", "str-aggregate",
        "inf-total"])
def test_compare_reports_a_malformed_report_body(tmp_path, capsys, damage, message):
    code, out, _ = run(capsys, "simulate", TWO_LEVEL_S, "--scenario", "coordinated")
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(out)
    report = json.loads(out)
    damage(report)
    bad.write_text(json.dumps(report))
    code, out, err = run(capsys, "compare", str(good), str(bad))
    assert code == 1
    assert err == ""
    assert out.count("\n") == 1
    (violation,) = json.loads(out)["body"]["violations"]
    assert violation.startswith(f"{str(bad)!r} is not a trajectory report: ")
    assert message in violation


def test_compare_reports_a_file_that_is_not_json(tmp_path, capsys):
    code, out, _ = run(capsys, "simulate", TWO_LEVEL_S, "--scenario", "coordinated")
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(out)
    bad.write_text("not json")
    code, out, err = run(capsys, "compare", str(good), str(bad))
    assert code == 1
    assert err == ""
    assert json.loads(out)["body"]["violations"][0].startswith(f"{str(bad)!r} is not JSON: ")


def test_compare_error_report_names_the_report_files(tmp_path, capsys):
    code, out, _ = run(capsys, "simulate", TWO_LEVEL_S, "--scenario", "coordinated")
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(out)
    bad.write_text("{}")
    missing = str(tmp_path / "missing.json")
    code, report, _ = run_json(capsys, "compare", str(good), str(bad))
    assert code == 1
    assert report["body"]["target"] == f"{good}, {bad}"
    assert sorted(report["provenance"]["inputs"]) == [str(bad), str(good)]
    # a report file that cannot be opened is named but not listed as an input
    code, report, _ = run_json(capsys, "compare", str(bad), str(good), missing)
    assert code == 1
    assert report["body"]["target"] == f"{bad}, {good}, {missing}"
    assert sorted(report["provenance"]["inputs"]) == [str(bad), str(good)]


def test_validate_reports_hierarchy_children_that_are_not_a_list(tmp_path, capsys):
    raw = json.loads(TWO_LEVEL.read_text())
    raw["scenarios"]["coordinated"]["hierarchy"]["children"] = {"top": 5}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(raw))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 1
    assert err == ""
    assert out.count("\n") == 1
    violations = json.loads(out)["body"]["violations"]
    assert violations[0] == "scenarios.coordinated.hierarchy.children.top: expected a list, got int"


def test_validate_reports_a_predicate_nested_too_deep(tmp_path, capsys):
    raw = json.loads(BASIC.read_text())
    raw["scales"]["growth3"]["states"][0]["predicate"] = "(" * 3000 + "x < 0" + ")" * 3000
    path = tmp_path / "m.json"
    path.write_text(json.dumps(raw))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 1
    assert err == ""
    assert out.count("\n") == 1
    violations = json.loads(out)["body"]["violations"]
    assert violations[0] == "scales.growth3.states[0]: expression nests deeper than 100 levels (at offset 100)"


def test_machine_json_is_byte_stable(capsys):
    outputs = set()
    for _ in range(5):
        code, out, _ = run(capsys, "simulate", TWO_LEVEL_S, "--scenario", "neglected",
                           "--scores", "default")
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1
    # canonical json: sorted keys, no whitespace, trailing newline
    assert out.endswith("\n")
    assert json.dumps(json.loads(out), sort_keys=True, separators=(",", ":")) + "\n" == out


def test_text_format_renders_every_report_kind(capsys):
    for argv in (
        ("validate", BASIC_S),
        ("classify", BASIC_S, "--object", "x=1", "--classificator", "growth"),
        ("profile", BASIC_S, "--series", str(X_SERIES), "--interval", "0:4"),
        ("replay", BASIC_S, "--diagram", "dev3", "--events", str(DEV3_EVENTS)),
        ("consist", BASIC_S, "--request", "dev_milestones"),
        ("simulate", TWO_LEVEL_S, "--scenario", "coordinated"),
    ):
        code, out, _ = run(capsys, *argv, "--format", "text")
        assert code == 0
        assert out.startswith("report: ")
        assert "tool: statedev" in out


def test_validation_seed_flag_changes_samples_but_not_verdict(capsys):
    a = run(capsys, "validate", BASIC_S, "--seed", "1", "--samples", "500")
    b = run(capsys, "validate", BASIC_S, "--seed", "2", "--samples", "500")
    assert a[0] == b[0] == 0
    pa, pb = json.loads(a[1]), json.loads(b[1])
    assert pa["provenance"]["seed"] == 1
    assert pb["provenance"]["seed"] == 2
    assert pa["body"]["passed"] and pb["body"]["passed"]
    # Every check of basic.json is decided on cells, which no seed moves.
    assert pa["body"] == pb["body"]


def test_round_trip_serialized_model_validates_identically(tmp_path, capsys):
    from statedev.modelfile import parse_model
    from tests.oracles import model_to_dict

    copy = tmp_path / "copy.json"
    copy.write_text(json.dumps(model_to_dict(parse_model(BASIC_S)), indent=2))
    a = run_json(capsys, "validate", BASIC_S)[1]
    b = run_json(capsys, "validate", str(copy))[1]
    assert a["body"]["violations"] == b["body"]["violations"]
    assert a["body"]["warnings"] == b["body"]["warnings"]
    assert a["body"]["passed"] == b["body"]["passed"]


def _first(data, kind):
    return next(e for e in data["trajectory"]["events"] if e["kind"] == kind)


@pytest.mark.parametrize("mutate, where", [
    pytest.param(lambda d: d.pop("scenario_id"), "scenario_id", id="no-scenario_id"),
    pytest.param(lambda d: d.pop("scenario"), "scenario", id="no-scenario"),
    pytest.param(lambda d: d.pop("trajectory"), "trajectory", id="no-trajectory"),
    pytest.param(lambda d: d["trajectory"].pop("horizon"), "trajectory.horizon", id="no-horizon"),
    pytest.param(lambda d: d["trajectory"].pop("initial"), "trajectory.initial", id="no-initial"),
    pytest.param(lambda d: d["trajectory"].pop("events"), "trajectory.events", id="no-events"),
    pytest.param(lambda d: _first(d, "delivery").pop("symbol"), "trajectory.events[0]", id="no-symbol"),
    pytest.param(lambda d: _first(d, "firing").pop("tick"), "trajectory.events[1]", id="no-tick"),
    pytest.param(lambda d: _first(d, "firing").update(kind="teleport"), "trajectory.events[1]",
                 id="unknown-kind"),
    pytest.param(lambda d: d.update(scenario_id=7), "scenario_id", id="int-scenario_id"),
    pytest.param(lambda d: d.update(scenario=[]), "scenario", id="list-scenario"),
    pytest.param(lambda d: d.update(trajectory="run"), "trajectory", id="str-trajectory"),
    pytest.param(lambda d: d["trajectory"].update(horizon="3"), "trajectory.horizon", id="str-horizon"),
    pytest.param(lambda d: d["trajectory"].update(horizon=-1), "trajectory.horizon", id="negative-horizon"),
    pytest.param(lambda d: d["trajectory"].update(initial=["top"]), "trajectory.initial",
                 id="list-initial"),
    pytest.param(lambda d: d["trajectory"].update(events={}), "trajectory.events", id="map-events"),
    pytest.param(lambda d: _first(d, "delivery").update(effective="yes"), "trajectory.events[0]",
                 id="str-effective"),
    pytest.param(lambda d: _first(d, "firing").update(kind=["firing"]), "trajectory.events[1]", id="list-kind"),
])
def test_analyze_reports_a_damaged_trajectory_file(tmp_path, capsys, mutate, where):
    path = tmp_path / "traj.json"
    code, _, _ = run(capsys, "simulate", TWO_LEVEL_S, "--scenario", "coordinated",
                     "--out", str(path))
    assert code == 0
    data = json.loads(path.read_text())
    mutate(data)
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 1
    assert err == ""
    assert out.count("\n") == 1
    report = json.loads(out)
    assert report["kind"] == "validation"
    assert any(v.startswith(f"{where}:") for v in report["body"]["violations"])


def test_analyze_rejects_an_event_log_that_does_not_replay(tmp_path, capsys):
    path = tmp_path / "traj.json"
    run(capsys, "simulate", TWO_LEVEL_S, "--scenario", "coordinated", "--out", str(path))
    data = json.loads(path.read_text())
    _first(data, "firing")["src"] = "T2"
    path.write_text(json.dumps(data))
    code, report, _ = run_json(capsys, "analyze", str(path))
    assert code == 1
    assert report["body"]["violations"][0].startswith("trajectory.events:")


def test_simulate_writes_a_compact_version_2_trajectory_file(tmp_path, capsys):
    path = tmp_path / "traj.json"
    run(capsys, "simulate", TWO_LEVEL_S, "--scenario", "coordinated", "--out", str(path))
    text = path.read_text()
    assert text.count("\n") == 1
    data = json.loads(text)
    assert data["format_version"] == 2
    assert sorted(data["trajectory"]) == ["events", "horizon", "initial"]
    assert data["trajectory"]["initial"] == {"left": ["L0", 0], "right": ["R0", 0], "top": ["T0", 0]}


def test_consist_interval_beyond_the_horizon_is_a_model_issue(tmp_path, capsys):
    raw = json.loads(BASIC.read_text())
    raw["composition_requests"]["dev_milestones"]["intervals"] = [99]
    path = tmp_path / "m.json"
    path.write_text(json.dumps(raw))
    code, out, err = run(capsys, "consist", str(path), "--request", "dev_milestones")
    assert code == 1
    assert err == ""
    assert out.count("\n") == 1
    report = json.loads(out)
    assert report["kind"] == "validation"
    assert report["body"]["violations"] == [
        "composition_requests.dev_milestones.intervals: interval 99 for 'dev3' exceeds its horizon 6"
    ]


def test_replay_rejects_ticks_out_of_order(tmp_path, capsys):
    events = tmp_path / "events.csv"
    events.write_text("tick,object,from,to,arc_kind\n2,b,negative,low,dev\n1,a,negative,low,dev\n")
    code, out, err = run(capsys, "replay", BASIC_S, "--diagram", "dev3", "--events", str(events))
    assert code == 1
    assert err == ""
    assert out.count("\n") == 1
    report = json.loads(out)
    assert report["kind"] == "validation"
    assert report["body"]["violations"] == ["script ticks go backwards at tick 1"]


def test_consist_witness_does_not_depend_on_the_hash_seed(tmp_path):
    # Two witnesses meet this sequence by tick 3: s0->s2@3 alone, and
    # s0->s1@2, s1->s2@3. A search that walks a set of nodes picks one by
    # string hashes (under CPython 3.11, hash seeds 0 and 1 gave the second,
    # 2 and 3 the first); the search walks its frontier in discovery order.
    states = ["s0", "s1", "s2", "s3"]
    arcs = [("s0", "s1", 2), ("s0", "s2", 3), ("s1", "s2", 1), ("s2", "s3", 0)]
    model = {
        "format_version": 1,
        "canonical_diagrams": {"loop": {
            "states": states, "initial": "s0", "final": "s3", "horizon": 34,
            "dev_arcs": [{"from": a, "to": b, "delta": t} for a, b, t in arcs],
            "back_arcs": [{"from": "s1", "to": "s0", "delta": 0}],
        }},
        "composition_requests": {"visits": {
            "kind": "consistency", "diagrams": ["loop"], "intervals": [34],
            "sequence": [{"diagram": 0, "state": s, "deadline": t}
                         for s, t in (("s0", 1), ("s2", 3), ("s2", 7))],
        }},
    }
    path = tmp_path / "m.json"
    path.write_text(json.dumps(model))
    src = str(Path(statedev.__file__).resolve().parent.parent)
    outputs = []
    for seed in ("0", "1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        done = subprocess.run(
            [sys.executable, "-m", "statedev.cli", "consist", str(path), "--request", "visits"],
            capture_output=True, env=env, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert len(set(outputs)) == 1
    witness = json.loads(outputs[0])["body"]["detail"]["witness"]
    assert len(witness) == 1


def test_consist_reports_do_not_depend_on_the_hash_seed(tmp_path):
    # Every request of the basic fixture, and a pair of benchmark-like
    # chains whose sequence is met by many witnesses and one that no
    # execution meets, each consisted in one interpreter per hash seed.
    rng = random.Random(3)
    states = [f"c{i}" for i in range(6)]
    dev = [1, 1, 2, 1, 1]

    def chain():
        back = dev[:]
        rng.shuffle(back)
        return {
            "states": states, "initial": states[0], "final": states[-1], "horizon": 30,
            "dev_arcs": [{"from": a, "to": b, "delta": t} for a, b, t in zip(states, states[1:], dev)],
            "back_arcs": [{"from": b, "to": a, "delta": t} for a, b, t in zip(states, states[1:], back)],
        }

    # a climbs, drops and climbs again, b climbs once; the quickest way
    # back to the top of a takes 18 ticks.
    visits = ((0, "c5", 17), (1, "c5", 17), (0, "c0", 17))
    model = {
        "format_version": 1,
        "canonical_diagrams": {"a": chain(), "b": chain()},
        "composition_requests": {
            f"climb_by_{last}": {
                "kind": "consistency", "diagrams": ["a", "b"], "intervals": [30, 30],
                "sequence": [{"diagram": d, "state": s, "deadline": t}
                             for d, s, t in visits + ((0, "c5", last),)],
            }
            for last in (18, 17)
        },
    }
    chains = tmp_path / "chains.json"
    chains.write_text(json.dumps(model))
    basic_requests = json.loads(BASIC.read_text())["composition_requests"]
    calls = [["consist", BASIC_S, "--request", rid] for rid in basic_requests]
    calls += [["consist", str(chains), "--request", rid] for rid in model["composition_requests"]]
    script = "import json, sys\nfrom statedev.cli import main\nfor argv in json.loads(sys.argv[1]):\n    main(argv)\n"
    src = str(Path(statedev.__file__).resolve().parent.parent)
    outputs = []
    for seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        done = subprocess.run(
            [sys.executable, "-c", script, json.dumps(calls)], capture_output=True, env=env, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert len(set(outputs)) == 1
    reports = [json.loads(line) for line in outputs[0].splitlines()]
    assert len(reports) == 6
    assert [r["body"]["outcome"] for r in reports[3:]] == ["consistent", "consistent", "inconsistent"]


def test_a_usage_error_leaves_the_parser_as_it_was(capsys):
    # main builds its parser once per process and reuses it.
    usage = run(capsys, "consist", BASIC_S)  # --request is missing
    valid = run(capsys, "consist", BASIC_S, "--request", "dev_milestones")
    assert run(capsys, "consist", BASIC_S) == usage
    assert usage[0] == 2 and "--request" in usage[2]
    seeded = run(capsys, "simulate", TWO_LEVEL_S, "--scenario", "coordinated", "--seed", "3")
    assert seeded[:2] == (2, "") and "unrecognized arguments: --seed 3" in seeded[2]
    src = str(Path(statedev.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    fresh = subprocess.run(
        [sys.executable, "-m", "statedev.cli", "consist", BASIC_S, "--request", "dev_milestones"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (valid[0], valid[1]) == (fresh.returncode, fresh.stdout)


def _failure(capsys, *argv) -> list:
    """The violations of the one report a failing command prints."""
    code, out, err = run(capsys, *argv)
    assert (code, err, out.count("\n")) == (1, "", 1)
    report = json.loads(out)
    assert report["kind"] == "validation"
    return report["body"]["violations"]


def _model(tmp_path, base, change=None, text=None) -> str:
    """base with change applied to its JSON, or with text replaced by text[1]."""
    raw = base.read_text()
    if change is not None:
        data = json.loads(raw)
        change(data)
        raw = json.dumps(data)  # writes NaN and Infinity as JSON extensions
    if text is not None:
        assert text[0] in raw
        raw = raw.replace(text[0], text[1], 1)
    path = tmp_path / "m.json"
    path.write_text(raw)
    return str(path)


def test_simulate_rejects_a_nan_score(tmp_path, capsys):
    def nan_score(raw):
        raw["score_tables"]["default"]["top"]["T2"] = float("nan")

    path = _model(tmp_path, TWO_LEVEL, nan_score)
    violations = _failure(capsys, "simulate", path, "--scenario", "coordinated", "--scores", "default")
    assert violations == [f"{path}: number NaN is not finite"]


@pytest.mark.parametrize("value", ["inf", "nan", "-1e400"])
def test_classify_rejects_a_non_finite_object_value(capsys, value):
    violations = _failure(capsys, "classify", BASIC_S, "--object", f"x={value},phase=Seed")
    assert violations == [f"object value of 'x': {value!r} is not a finite number"]


@pytest.mark.parametrize("cell", ["inf", "nan"])
def test_profile_rejects_a_non_finite_series_cell(tmp_path, capsys, cell):
    series = tmp_path / "s.csv"
    series.write_text(f"tick,x\n0,1\n1,{cell}\n2,3\n")
    violations = _failure(capsys, "profile", BASIC_S, "--series", str(series), "--interval", "0:2")
    assert violations == [f"series column 'x': {cell!r} is not a finite number"]


@pytest.mark.parametrize("text, interval, message", [
    ("tick,phase\n0,Seed\n1,Bogus\n", "0:1", "series column 'phase': level 'Bogus' not in declared order"),
    ("tick,x\n0,1\n0,2\n", "0:1", "series column 'x': ticks must be strictly increasing"),
    ("tick,x\n1,1\n0,2\n", "0:1", "series column 'x': ticks must be strictly increasing"),
    ("tick,x,x\n0,1,2\n1,2,3\n", "0:1", "series column 'x' appears more than once"),
    ("tick,x,x\n0,1,\n1,2,\n", "0:1", "series column 'x' appears more than once"),
    ("tick,x\n0,1\n1,2\n", "3:1", "interval '3:1': start exceeds its end"),
], ids=["unknown-level", "repeated-tick", "decreasing-tick", "duplicated-column", "repeated-column",
        "reversed-interval"])
def test_profile_reports_a_malformed_series_or_interval(tmp_path, capsys, text, interval, message):
    series = tmp_path / "s.csv"
    series.write_text(text)
    violations = _failure(capsys, "profile", BASIC_S, "--series", str(series), "--interval", interval)
    assert violations == [message]


@pytest.mark.parametrize("interval, message", [
    ("5", "interval must look like a:b, got '5'"),
    ("a:b", "interval bounds must be integers, got 'a:b'"),
], ids=["no-colon", "not-integers"])
def test_profile_malformed_interval_is_usage_error(capsys, interval, message):
    code, out, err = run(capsys, "profile", BASIC_S, "--series", str(X_SERIES), "--interval", interval)
    assert (code, out) == (2, "")
    assert "usage error" in err and message in err


@pytest.mark.parametrize("row, message", [
    ("1,o1,s1", "expected 5 columns"),
    ("x,o1,s1,s2,dev", "bad tick 'x'"),
], ids=["short-row", "bad-tick"])
def test_replay_reports_a_malformed_event_row(tmp_path, capsys, row, message):
    events = tmp_path / "e.csv"
    events.write_text(f"tick,object,from,to,arc_kind\n{row}\n")
    violations = _failure(capsys, "replay", BASIC_S, "--diagram", "dev3", "--events", str(events))
    assert violations == [f"{events}:2: {message}"]


def test_classify_rejects_a_categorical_value_of_a_numeric_parameter(capsys):
    violations = _failure(capsys, "classify", BASIC_S, "--object", "x=abc")
    assert violations == ["cannot compare a number with a categorical value"]


def test_replay_gives_a_repeated_arc_one_series(tmp_path, capsys):
    def repeat_arc(raw):
        raw["canonical_diagrams"]["dev3"]["dev_arcs"] += [{"from": "negative", "to": "high", "delta": 0}] * 2

    path = _model(tmp_path, BASIC, repeat_arc)
    assert run_json(capsys, "validate", path)[0] == 0
    code, report, _ = run_json(
        capsys, "replay", path, "--diagram", "dev3", "--events", str(DEV3_EVENTS), "--window", "1:3"
    )
    assert code == 0
    arcs = report["body"]["arc_cumulative"]
    assert arcs["negative->high dev d0"] == [0, 0, 0]
    assert arcs["negative->low dev d1"] == [1, 2, 2]
    assert all(len(series) == 3 for series in arcs.values())


def test_validate_rejects_a_nan_series_value(tmp_path, capsys):
    def nan_value(raw):
        raw["series"]["x_run"]["values"][2] = "nan"

    violations = _failure(capsys, "validate", _model(tmp_path, BASIC, nan_value))
    assert violations == ["series.x_run: 'nan' is not a finite number"]


@pytest.mark.parametrize("old, new, message", [
    ('"bounds": [-10, 20]', '"bounds": [-10, 1e400]', "{path}: number 1e400 is not finite"),
    ('"bounds": [-10, 20]', '"bounds": ["-inf", "20"]', "parameters.x: bounds of 'x' must be finite"),
    ('"predicate": "x < 0"', '"predicate": "x < 1e400"',
     "scales.growth3.states[0]: number 1e400 is out of range (at offset 4)"),
])
def test_validate_rejects_other_non_finite_numbers(tmp_path, capsys, old, new, message):
    path = _model(tmp_path, BASIC, text=(old, new))
    # a scale that fails also leaves the classificator and diagram built on it unresolved
    assert _failure(capsys, "validate", path)[0] == message.format(path=path)


def test_analyze_rejects_a_non_finite_score(tmp_path, capsys):
    traj = tmp_path / "t.json"
    run(capsys, "simulate", TWO_LEVEL_S, "--scenario", "coordinated", "--scores", "default", "--out", str(traj))
    traj.write_text(traj.read_text().replace('"T2":5', '"T2":1e999'))
    assert _failure(capsys, "analyze", str(traj)) == [f"{traj}: number 1e999 is not finite"]


def test_analyze_reports_a_logged_state_without_a_score(tmp_path, capsys):
    traj = tmp_path / "t.json"
    run(capsys, "simulate", TWO_LEVEL_S, "--scenario", "coordinated", "--scores", "default", "--out", str(traj))
    data = json.loads(traj.read_text())
    data["trajectory"]["initial"]["left"][0] = "L9"
    data["trajectory"]["events"] = []
    traj.write_text(json.dumps(data))
    assert _failure(capsys, "analyze", str(traj)) == ["state 'L9' of 'left' is not a state of its diagram"]


def _events(data):
    return data["trajectory"]["events"]


def _unreplayable(data):
    _events(data)[1]["src"] = "T2"  # top's first firing leaves a state top is not in


# A file with several faults names the first one the reader meets: the event
# log, which replays over the whole horizon before the trajectory is fitted
# to its scenario, its score table and its diagrams.
@pytest.mark.parametrize("mutate, violations", [
    pytest.param(lambda d: (_unreplayable(d), d["trajectory"]["initial"].update(extra=["X0", 0])),
                 ["trajectory.events: event 1 leaves 'T2', where 'top' is not at tick 0"],
                 id="unreplayable-and-other-subsystems"),
    pytest.param(lambda d: (_unreplayable(d), d["scores"]["left"].pop("L3")),
                 ["trajectory.events: event 1 leaves 'T2', where 'top' is not at tick 0"],
                 id="unreplayable-and-scores-lack-a-state"),
    pytest.param(lambda d: _events(d)[8].update(dst="T9"),
                 ["firing T1->T9 on 'finish' of 'top' is not an arc of its diagram"], id="logged-state-without-score"),
    pytest.param(lambda d: (_events(d)[8].update(dst="T9"), d.update(scores=None)),
                 ["firing T1->T9 on 'finish' of 'top' is not an arc of its diagram"], id="logged-state-outside-diagram"),
    pytest.param(lambda d: _events(d)[8].update(dst="T0"),  # T1 -> T0 is a back arc, not a labeled one
                 ["firing T1->T0 on 'finish' of 'top' is not an arc of its diagram"], id="logged-firing-off-its-diagram"),
    pytest.param(lambda d: _events(d).__setitem__(8, dict(kind="backstep", subsystem="top", src="T1", dst="T2", tick=1)),
                 ["backstep T1->T2 of 'top' is not an arc of its diagram"], id="logged-backstep-off-its-diagram"),
    pytest.param(lambda d: (d["trajectory"]["initial"]["top"].__setitem__(0, "ZZ"), d.update(scores=None),
                            d["trajectory"].update(events=[e for e in _events(d) if e["subsystem"] != "top"])),
                 ["state 'ZZ' of 'top' is not a state of its diagram"], id="initial-state-outside-diagram"),
    pytest.param(lambda d: _events(d)[2].update(dst="L9"),
                 ["trajectory.events: event 5 leaves 'L1', where 'left' is not at tick 1"],
                 id="unscored-state-then-unreplayable"),
    pytest.param(lambda d: d["trajectory"].update(horizon=1),
                 ["trajectory.events: event 4 is out of tick order or past the horizon"],
                 id="event-past-horizon"),
    pytest.param(lambda d: (_events(d)[2].update(dst="L9"), d["trajectory"].update(horizon=1)),
                 ["trajectory.events: event 4 is out of tick order or past the horizon"],
                 id="unscored-state-then-past-horizon"),
])
def test_analyze_names_the_first_fault_of_a_damaged_file(tmp_path, capsys, mutate, violations):
    traj = tmp_path / "t.json"
    run(capsys, "simulate", TWO_LEVEL_S, "--scenario", "coordinated", "--scores", "default", "--out", str(traj))
    data = json.loads(traj.read_text())
    mutate(data)
    traj.write_text(json.dumps(data))
    assert _failure(capsys, "analyze", str(traj)) == violations


@pytest.mark.parametrize("change, message", [
    pytest.param(lambda raw: [raw], "{path}: top level must be a JSON object", id="top-level-array"),
    pytest.param(lambda raw: raw["canonical_diagrams"]["dev3"]["target_distribution"].update(top=1) or raw,
                 "canonical_diagrams.dev3.target_distribution: unknown state 'top'", id="unknown-target-state"),
])
def test_validate_reports_a_malformed_model_file(tmp_path, capsys, change, message):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(change(json.loads(BASIC.read_text()))))
    assert _failure(capsys, "validate", str(path)) == [message.format(path=path)]


@pytest.mark.parametrize("value, message", [
    ("nan", "'nan' is not a finite number"),
    ("-1", "must be >= 0, got '-1'"),
], ids=["nan", "negative"])
def test_profile_epsilon_must_be_finite(capsys, value, message):
    code, out, err = run(capsys, "profile", BASIC_S, "--series", str(X_SERIES), "--interval", "0:4", "--epsilon", value)
    assert (code, out) == (2, "")
    assert message in err


def test_validate_samples_must_be_at_least_one(capsys):
    code, out, err = run(capsys, "validate", BASIC_S, "--samples", "0")
    assert (code, out) == (2, "")
    assert "must be >= 1, got '0'" in err


def test_validate_reports_an_order_pair_that_is_not_a_pair_of_lists(tmp_path, capsys):
    def int_pair(raw):
        raw["composition_requests"]["dev_boost_merge"]["order"] = [[1, 2]]

    violations = _failure(capsys, "validate", _model(tmp_path, BASIC, int_pair))
    assert violations == ["composition_requests.dev_boost_merge.order[0]: order entries are [before, after] pairs"]


def test_validate_reports_a_scale_state_id_that_is_a_list(tmp_path, capsys):
    def list_id(raw):
        raw["scales"]["growth3"]["states"][0]["id"] = ["x"]

    violations = _failure(capsys, "validate", _model(tmp_path, BASIC, list_id))
    assert violations[0] == "scales.growth3: state 1 has a list for its id"


def test_validate_reports_an_infinite_arc_delta(tmp_path, capsys):
    path = _model(tmp_path, BASIC, text=('"delta": 1}', '"delta": Infinity}'))
    assert _failure(capsys, "validate", path) == [f"{path}: number Infinity is not finite"]


def test_compare_reports_a_report_nested_too_deep(tmp_path, capsys):
    code, out, _ = run(capsys, "simulate", TWO_LEVEL_S, "--scenario", "coordinated")
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(out)
    bad.write_text("[" * 100_000 + "]" * 100_000)
    (violation,) = _failure(capsys, "compare", str(good), str(bad))
    assert violation.startswith(f"{str(bad)!r} is not JSON: maximum recursion depth exceeded")


def test_validate_reports_a_model_nested_too_deep(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text('{"format_version": 1, "series": ' + "[" * 100_000 + "]" * 100_000 + "}")
    assert _failure(capsys, "validate", str(path)) == [f"{path}: nesting is too deep"]


@pytest.mark.parametrize("request_id, change", [
    ("dev_then_boost", {"diagrams": [], "intervals": []}),
    ("dev_boost_merge", {"selection": [], "order": []}),
], ids=["no-diagrams", "no-selection"])
def test_consist_rejects_an_empty_composition(tmp_path, capsys, request_id, change):
    path = _model(tmp_path, BASIC, lambda raw: raw["composition_requests"][request_id].update(change))
    code, report, err = run_json(capsys, "consist", path, "--request", request_id)
    assert (code, err, report["body"]["outcome"]) == (1, "", "rejected")
    assert report["body"]["detail"]["error"] == "EmptyCompositionError"


def test_replay_treats_equal_copies_of_an_arc_as_one_arc(tmp_path, capsys):
    def repeat_arc(raw):
        raw["canonical_diagrams"]["dev3"]["dev_arcs"] += [{"from": "negative", "to": "high", "delta": 0}] * 2

    path = _model(tmp_path, BASIC, repeat_arc)
    assert run_json(capsys, "validate", path)[0] == 0
    events = tmp_path / "e.csv"
    events.write_text("tick,object,from,to,arc_kind\n1,a,negative,high,dev\n")
    code, report, _ = run_json(capsys, "replay", path, "--diagram", "dev3", "--events", str(events))
    assert code == 0
    assert report["body"]["arc_cumulative"]["negative->high dev d0"] == [0, 1, 1, 1, 1, 1, 1]
    assert report["body"]["reached"] == {"high": 1, "low": 0, "negative": 1}


def test_replay_still_refuses_an_arc_of_several_deltas(tmp_path, capsys):
    def two_deltas(raw):
        raw["canonical_diagrams"]["dev3"]["dev_arcs"] += [
            {"from": "negative", "to": "high", "delta": 0},
            {"from": "negative", "to": "high", "delta": 1},
        ]

    path = _model(tmp_path, BASIC, two_deltas)
    events = tmp_path / "e.csv"
    events.write_text("tick,object,from,to,arc_kind\n\n 1 , a ,negative,high,dev\n2,b,negative,high,back\n")
    violations = _failure(capsys, "replay", path, "--diagram", "dev3", "--events", str(events))
    assert violations == [
        f"{events}:2: dev arc negative->high is ambiguous (several deltas); split the diagram arcs"
    ]
    events.write_text("tick,object,from,to,arc_kind\n1,a,negative,low,dev\n2,b,negative,high,back\n")
    violations = _failure(capsys, "replay", path, "--diagram", "dev3", "--events", str(events))
    assert violations == [f"{events}:3: no back arc negative->high in diagram 'dev3'"]


def test_a_report_body_that_holds_a_cycle_raises_and_prints_nothing(monkeypatch, capsys):
    body = {"target": "m", "passed": True, "violations": [], "warnings": []}
    body["warnings"].append(body["warnings"])
    report = Report(kind="validation", body=body, provenance={"tool": "t"})
    with pytest.raises((ValueError, RecursionError)):
        emit_report(report)
    monkeypatch.setitem(cli._COMMANDS, "validate", (lambda args: (body, 0), *cli._COMMANDS["validate"][1:]))
    with pytest.raises((ValueError, RecursionError)):
        main(["validate", BASIC_S])
    assert capsys.readouterr().out == ""


def _random_series_text(rng) -> str:
    """A series CSV that may be malformed in any of the ways a file can be."""
    pool = ["x", "phase", "y", "x", "tick"]
    names = [rng.choice(pool) for _ in range(rng.randint(0, 4))]
    header = ["tick"] + names
    if rng.random() < 0.05:
        header[0] = rng.choice(["time", "", " tick"])

    def pad(cell):
        return rng.choice(["", " ", "  "]) + cell + rng.choice(["", " ", "\t"])

    lines = [",".join(pad(cell) for cell in header) if rng.random() > 0.04 else " , "]
    tick = rng.randint(-3, 3)
    for _ in range(rng.randint(0, 12)):
        roll = rng.random()
        if roll < 0.08:
            lines.append(rng.choice(["", ",,", "  ,  "]))  # blank rows are not counted
            continue
        tick += 1 if roll > 0.12 else rng.choice([0, -1, -2])
        tick_cell = str(tick)
        if rng.random() < 0.04:
            tick_cell = rng.choice(["a", "1.5", "", "1e2", "nan"])
        cells = [tick_cell]
        for name in names:
            r = rng.random()
            if r < 0.2:
                cells.append("")
            elif name == "phase":
                cells.append(rng.choice(["Seed", "Sprout", "Plant", "Plant", "Bogus"]) if r < 0.97 else "1")
            else:
                cells.append(rng.choice([str(rng.randint(-5, 5)), f"{rng.uniform(-9, 9):.3f}", "1e3"])
                             if r < 0.97 else rng.choice(["nan", "inf", "-inf", "abc", "1e999"]))
        if rng.random() < 0.1:
            cells = cells[:rng.randint(1, len(cells))]  # a short row
        elif rng.random() < 0.05:
            cells.append("9")  # a cell beyond the header
        lines.append(",".join(pad(cell) for cell in cells))
    return "\n".join(lines) + rng.choice(["\n", ""])


def test_column_series_reader_equals_the_row_reader(tmp_path):
    model = parse_model(BASIC_S)
    rng = random.Random(40)
    path = tmp_path / "s.csv"
    outcomes = set()
    for _ in range(4000):
        path.write_text(_random_series_text(rng))
        try:
            want = reference_read_series_csv(str(path), model)
        except StatedevError as exc:
            want = str(exc).replace(str(path), "PATH")
            outcomes.add(re.sub(r"'[^']*'|\d+", "_", want))
        else:
            outcomes.add(len(want))
        try:
            got = cli._read_series_csv(str(path), model)
        except StatedevError as exc:
            got = str(exc).replace(str(path), "PATH")
        assert got == want, path.read_text()
    # Every kind of outcome occurs: series lists of several lengths and each error.
    assert {1, 2, 3, 4} <= outcomes
    for fragment in ("is empty", "must start with", "no parameter columns", "bad tick",
                     "holds no observations", "not in declared order", "strictly increasing",
                     "is not a finite number", "could not convert"):
        assert any(fragment in str(o) for o in outcomes), fragment


def test_validate_warns_on_parent_links_that_cannot_wait_or_cannot_fire(tmp_path, capsys):
    def empty_link(raw):
        sc = raw["scenarios"]["coordinated"]
        sc["after_effect"]["parent_links"][0]["children"] = []
        sc["time_diagram"] = [e for e in sc["time_diagram"] if e["symbol"] != "advance"]

    advance = "ArcRef(subsystem='top', src='T0', dst='T1', symbol='advance')"
    finish = "ArcRef(subsystem='top', src='T1', dst='T2', symbol='finish')"
    path = _model(tmp_path, TWO_LEVEL, empty_link)
    code, report, _ = run_json(capsys, "validate", path)
    assert code == 0 and report["body"]["passed"]
    assert report["body"]["warnings"][0] == (
        f"scenario 'coordinated': parent link of {advance} has no child arcs, "
        "so it fires upward with no child firing"
    )
    events = tmp_path / "events.csv"
    code, _, _ = run(capsys, "simulate", path, "--scenario", "coordinated", "--events-out", str(events))
    assert code == 0
    assert events.read_text().splitlines()[1] == "0,0,firing,top,advance,T0,T1,upward-propagation,true"

    def threshold_3(raw):
        raw["scenarios"]["coordinated"]["after_effect"]["upward_threshold"] = 3

    code, report, _ = run_json(capsys, "validate", _model(tmp_path, TWO_LEVEL, threshold_3))
    assert code == 0 and report["body"]["passed"]
    assert report["body"]["warnings"][:2] == [
        f"scenario 'coordinated': parent link of {parent} has 2 child arc(s), fewer than "
        "the upward threshold 3, so it never fires upward"
        for parent in (advance, finish)
    ]
