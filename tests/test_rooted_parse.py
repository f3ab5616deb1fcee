"""Every command but `validate` parses only the model entities it reads.

Two checks of that rooted parse:

- a differential test against the whole-model parse, on the fixtures and
  every mutant of `tests/mutants.py`, with the roots that the CLI passes for
  each golden non-validate command;
- the unreferenced-entity property: an entity that nothing a command reads
  refers to, valid or broken, changes none of its reports or written files.
"""

import contextlib
import copy
import io
import json
import re
import shutil
from pathlib import Path

import pytest

from statedev import cli, modelfile
from statedev.modelfile import ModelFileError
from tests.conftest import FIXTURES
from tests.mutants import SEEDS, mutants
from tests.test_golden_cli import CASES, GOLDEN, TMP, _written

MODEL_CASES = [case for case in CASES if case["argv"][0] in ("classify", "profile", "replay", "consist", "simulate")]


@pytest.fixture(scope="module")
def case_roots(tmp_path_factory) -> dict:
    """Golden case name -> the roots the CLI passes to parse_model for it."""
    tmp = str(tmp_path_factory.mktemp("out"))
    found = {}
    parse = modelfile.parse_model

    def spy(path, roots=None):
        found[case["name"]] = roots
        return parse(path, roots)

    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(FIXTURES.parent)
        mp.setattr(modelfile, "parse_model", spy)
        for case in MODEL_CASES:
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main([arg.replace(TMP, tmp) for arg in case["argv"]])
    assert set(found) == {case["name"] for case in MODEL_CASES}
    return found


@pytest.fixture(scope="module")
def roots_by_fixture(case_roots) -> dict:
    """Fixture file name -> the distinct roots of the golden commands run on it."""
    found: dict = {}
    for case in MODEL_CASES:
        distinct = found.setdefault(Path(case["argv"][1]).name, {})
        distinct[json.dumps(case_roots[case["name"]], sort_keys=True)] = case_roots[case["name"]]
    return {name: list(distinct.values()) for name, distinct in found.items()}


def _read(text: str, roots):
    """The entities built and the issues, or no entities and the issues of a document-level refusal."""
    try:
        return modelfile._read(text, "model", roots)
    except ModelFileError as exc:
        return None, list(exc.issues)


def _in_order_within(part: list, whole: list) -> bool:
    rest = iter(whole)
    return all(any(item == other for other in rest) for item in part)


def _at(issue, section: str, eid: str) -> bool:
    prefix = f"{section}.{eid}"
    return issue.where == prefix or issue.where.startswith((prefix + ".", prefix + "["))


def _differences(text: str, roots: dict) -> list:
    """What the rooted parse of text gets wrong against the whole-model parse."""
    whole, whole_issues = _read(text, None)
    built, issues = _read(text, roots)
    if whole is None:
        return [] if (built, issues) == (whole, whole_issues) else ["document-level refusal differs"]
    wrong = []
    if not _in_order_within(issues, whole_issues):
        wrong.append(f"rooted issues {issues} are not in order within {whole_issues}")
    for section in modelfile._SECTIONS:
        for eid, entity in built[section.field].items():
            if whole[section.field].get(eid) != entity:
                wrong.append(f"{section.key}.{eid} differs from the whole-model entity")
            # A dependency's issues are the command's issues too.
            missed = [i for i in whole_issues if _at(i, section.key, eid) and i not in issues]
            if missed:
                wrong.append(f"{section.key}.{eid} is built without its issues {missed}")
    if not whole_issues:
        for section in modelfile._SECTIONS:
            ids = roots.get(section.key, ())
            for eid in whole[section.field] if ids is None else ids:
                if eid in whole[section.field] and eid not in built[section.field]:
                    wrong.append(f"root {section.key}.{eid} is not built")
    return wrong


@pytest.mark.parametrize("fixture", sorted(path.name for path in FIXTURES.glob("*.json")))
def test_rooted_parse_of_a_fixture_agrees_with_the_whole_model(fixture, roots_by_fixture):
    text = (FIXTURES / fixture).read_text(encoding="utf-8")
    for roots in (r for rs in roots_by_fixture.values() for r in rs):
        assert not _differences(text, roots), roots


@pytest.mark.parametrize("fixture", sorted(SEEDS))
def test_rooted_parse_of_a_mutant_agrees_with_the_whole_model(fixture, roots_by_fixture):
    failures = [(applied, roots, wrong) for text, applied in mutants(fixture)
                for roots in roots_by_fixture[fixture] if (wrong := _differences(text, roots))]
    assert not failures, f"{len(failures)} rooted parses differ; first: {failures[0]}"


def test_the_issues_of_a_dependency_are_issues_of_the_root():
    """A scale's unknown name is an issue of the diagram that names the scale."""
    doc = json.loads((FIXTURES / "basic.json").read_text(encoding="utf-8"))
    doc["scales"]["growth3"]["states"][0]["predicate"] = "ghost < 0"
    text = json.dumps(doc)
    built, issues = _read(text, {"canonical_diagrams": ["dev3"]})
    assert [(i.where, i.message) for i in issues] == [("scales.growth3.states[0]", "unknown name 'ghost' in predicate")]
    assert set(built["scales"]) == {"growth3"} and set(built["canonical"]) == {"dev3"}
    assert not _differences(text, {"canonical_diagrams": ["dev3"]})


# ---------------------------------------------------------------------------
# The unreferenced-entity property.

def _strays(doc: dict, broken: bool) -> dict:
    """Section key -> one entity for that section that the model's
    own entities do not name. The valid ones name only each other and the
    model's first parameter; each broken one has an issue of its own."""
    if broken:
        return {
            "parameters": {"kind": "complex"},
            "scales": {"states": [{"id": "odd", "predicate": "x <"}]},
            "classificators": {"root": "no_such_scale"},
            "rule_matrices": {"parameters": [], "classes": []},
            "series": {"parameter": "no_such_parameter", "ticks": [0], "values": [1]},
            "canonical_diagrams": {"states": ["S0", "S1"], "initial": "S0", "final": "S1", "dev_arcs": [{"to": "S1"}]},
            "composition_requests": {"kind": "nope"},
            "scenarios": {"time_diagram": 5},
            "score_tables": {"top": {"T0": "high"}},
        }
    two_level = json.loads((FIXTURES / "two_level.json").read_text(encoding="utf-8"))
    param = next(iter(doc.get("parameters") or {}), "stray_parameters")
    return {
        "parameters": {"kind": "numeric", "bounds": [0, 1]},
        "scales": {"states": [{"id": "stray_low", "predicate": f"{param} < 0"},
                              {"id": "stray_high", "predicate": f"{param} >= 0"}]},
        "classificators": {"root": "stray_scales"},
        "rule_matrices": {"parameters": [param], "classes": ["Up"], "cells": [["state = Growth"]]},
        "series": {"parameter": param, "ticks": [0, 1], "values": [0, 1]},
        "canonical_diagrams": {"states": ["S0", "S1"], "initial": "S0", "final": "S1", "horizon": 2,
                               "dev_arcs": [{"from": "S0", "to": "S1", "delta": 1}]},
        "composition_requests": {"kind": "sequential", "diagrams": ["stray_canonical_diagrams"], "intervals": [2]},
        "scenarios": copy.deepcopy(two_level["scenarios"]["neglected"]),
        "score_tables": copy.deepcopy(two_level["score_tables"]["default"]),
    }


_DIGEST = re.compile(r"[0-9a-f]{64}")
# The sections a command reads every entity of.
READ_WHOLE = {"classify": ("parameters", "classificators"), "profile": ("parameters",)}


@pytest.mark.parametrize("broken", (False, True), ids=("valid", "broken"))
@pytest.mark.parametrize("case", [case for case in MODEL_CASES
                                  if case["argv"][1] in ("fixtures/basic.json", "fixtures/two_level.json")],
                         ids=lambda case: case["name"])
def test_an_unreferenced_entity_changes_no_report(case, broken, tmp_path, monkeypatch):
    """The model gains one stray entity in each section, except the
    sections the command reads whole: every entity of those is read."""
    want = next(item for item in json.loads(GOLDEN.read_text(encoding="utf-8")) if item["name"] == case["name"])
    model = case["argv"][1]
    doc = json.loads((FIXTURES.parent / model).read_text(encoding="utf-8"))
    whole = READ_WHOLE.get(case["argv"][0], ())
    for key, entity in _strays(doc, broken).items():
        if key not in whole:
            doc.setdefault(key, {})[f"stray_{key}"] = entity
    text = json.dumps(doc)
    if not broken:
        modelfile.parse_model_text(text)
    (tmp_path / "fixtures").mkdir()
    for path in FIXTURES.iterdir():
        shutil.copy(path, tmp_path / "fixtures")
    (tmp_path / model).write_text(text, encoding="utf-8")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    monkeypatch.chdir(tmp_path)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([arg.replace(TMP, str(out_dir)) for arg in case["argv"]])
    got = stdout.getvalue().replace(str(out_dir), TMP)
    assert code == want["exit"]
    assert got != want["stdout"]  # the model's digest changed
    assert _DIGEST.sub("-", got) == _DIGEST.sub("-", want["stdout"])
    for name in _written(case["argv"]):
        assert (out_dir / name).read_text(encoding="utf-8").replace(str(out_dir), TMP) == want["files"][name]
