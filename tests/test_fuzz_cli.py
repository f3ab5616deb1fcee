"""Mutation fuzz of the command line: every subcommand, run on mutants of
both fixtures and of their reports and trajectory files, prints exactly one
report (or a usage error) and exits 0, 1 or 2, without a traceback.

The mutants come from the operators of ``tests/mutants.py`` plus two more:
non-finite numbers and deep nesting (of JSON lists and of predicate
parentheses). Horizons and intervals are capped at 200 and sampling at 50
so that no example runs long.

The same command lists also run on copies of the fixtures whose JSON object
keys are shuffled: key order must change no exit code, report body or
written file.
"""

import contextlib
import io
import json
import math
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from statedev.cli import main
from tests.conftest import DEV3_EVENTS, FIXTURES, X_SERIES
from tests.mutants import OPERATORS, mutate, replacement

CAP = 200
DEEP = "__deep__"
_DEPTHS = (40, 400, 5000)

COMMANDS = {
    "basic.json": [
        ["validate", "{model}", "--samples", "50"],
        ["validate", "{model}", "--samples", "50", "--format", "text"],
        ["classify", "{model}", "--object", "x=3,phase=Seed"],
        ["profile", "{model}", "--series", str(X_SERIES), "--interval", "0:4"],
        ["replay", "{model}", "--diagram", "dev3", "--events", str(DEV3_EVENTS)],
        *(["consist", "{model}", "--request", r]
          for r in ("dev_then_boost", "dev_with_boost", "dev_boost_merge", "dev_milestones")),
    ],
    "two_level.json": [
        ["validate", "{model}", "--samples", "50"],
        *(["simulate", "{model}", "--scenario", s, "--scores", "default",
           "--out", "{dir}/run.json", "--events-out", "{dir}/run.csv"]
          for s in ("coordinated", "neglected")),
        ["analyze", "{dir}/run.json"],
    ],
}


def fuzz_replacement(op, value, rng):
    if op == "nonfinite":
        return (rng.choice([math.nan, math.inf, -math.inf, "nan", "-inf", "1e999"]),)
    if op == "deep":
        if isinstance(value, str) and rng.random() < 0.5:
            depth = rng.choice(_DEPTHS)
            return ("(" * depth + value + ")" * depth,)
        return (f"{DEEP}{rng.choice(_DEPTHS)}",)
    return replacement(op, value, rng)


def _cap(node):
    """Horizons and intervals no larger than CAP, in place."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key in ("horizon", "intervals") and type(value) is int:
                node[key] = min(value, CAP)
            elif key == "intervals" and isinstance(value, list):
                node[key] = [min(v, CAP) if type(v) is int else v for v in value]
            else:
                _cap(value)
    elif isinstance(node, list):
        for item in node:
            _cap(item)


def mutant_text(doc, rng) -> str:
    doc, _ = mutate(doc, rng, OPERATORS + ("nonfinite", "deep"), fuzz_replacement)
    _cap(doc)
    text = json.dumps(doc)
    for depth in _DEPTHS:
        text = text.replace(f'"{DEEP}{depth}"', "[" * depth + "]" * depth)
    return text


def check_run(argv) -> tuple[int, str]:
    """Run the CLI once and check the one-report contract; returns the exit
    code and the report printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        assert out == "" and err.startswith(("usage", "statedev: error")), (argv, err)
    else:
        assert err == "", (argv, err)
        if "--format" in argv:
            assert out.startswith("report: "), (argv, out[:200])
        else:
            assert out.count("\n") == 1, (argv, out[:200])
            assert isinstance(json.loads(out), dict)
    return code, out


@pytest.fixture(scope="module")
def workdir():
    with tempfile.TemporaryDirectory() as d:
        yield Path(d)


_FUZZ = settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)


@_FUZZ
@given(fixture=st.sampled_from(sorted(COMMANDS)), rng=st.randoms(use_true_random=False))
def test_every_subcommand_survives_a_mutated_model(workdir, fixture, rng):
    model = workdir / "model.json"
    model.write_text(mutant_text(json.loads((FIXTURES / fixture).read_text()), rng))
    (workdir / "run.json").unlink(missing_ok=True)
    for argv in COMMANDS[fixture]:
        if argv[0] == "analyze" and not (workdir / "run.json").exists():
            continue
        check_run([a.format(model=model, dir=workdir) for a in argv])


@pytest.fixture(scope="module")
def clean_run(workdir):
    """A trajectory file and a trajectory report of each fixture scenario."""
    files = {}
    for sc in ("coordinated", "neglected"):
        traj, report = workdir / f"{sc}.traj.json", workdir / f"{sc}.report.json"
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["simulate", str(FIXTURES / "two_level.json"), "--scenario", sc,
                         "--scores", "default", "--out", str(traj)]) == 0
        report.write_text(out.getvalue())
        files[sc] = (json.loads(traj.read_text()), json.loads(report.read_text()), report)
    return files


@_FUZZ
@given(rng=st.randoms(use_true_random=False))
def test_analyze_and_compare_survive_mutated_files(workdir, clean_run, rng):
    traj, report, other = clean_run[rng.choice(sorted(clean_run))]
    path = workdir / "mutant.json"
    path.write_text(mutant_text(traj, rng))
    check_run(["analyze", str(path)])
    path.write_text(mutant_text(report, rng))
    check_run(["compare", str(path), str(other)])


def _shuffled(node, rng):
    """node with the keys of every JSON object in a seeded random order."""
    if isinstance(node, dict):
        keys = list(node)
        rng.shuffle(keys)
        return {key: _shuffled(node[key], rng) for key in keys}
    if isinstance(node, list):
        return [_shuffled(item, rng) for item in node]
    return node


def _outcomes(text, commands, workdir):
    """Per command: the exit code, the report body (a text report without
    its input digest lines) and the bytes of the files written so far."""
    model = workdir / "model.json"
    model.write_text(text)
    for written in workdir.iterdir():
        if written != model:
            written.unlink()
    outcomes = []
    for argv in commands:
        if argv[0] == "analyze" and not (workdir / "run.json").exists():
            continue
        code, out = check_run([a.format(model=model, dir=workdir) for a in argv])
        if "--format" in argv:
            body = [line for line in out.splitlines() if not line.startswith("input: ")]
        else:
            body = json.loads(out)["body"] if out else None
        files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir()) if p != model}
        outcomes.append((code, body, files))
    return outcomes


@pytest.mark.parametrize("fixture, commands", [
    ("basic.json", "basic.json"),
    ("flawed.json", "basic.json"),
    ("two_level.json", "two_level.json"),
    ("flawed_scenario.json", "two_level.json"),
])
def test_json_key_order_changes_no_report(tmp_path, fixture, commands):
    text = (FIXTURES / fixture).read_text()
    expected = _outcomes(text, COMMANDS[commands], tmp_path)
    for seed in range(5):
        shuffled = json.dumps(_shuffled(json.loads(text), random.Random(seed)))
        assert json.loads(shuffled) == json.loads(text)
        assert shuffled != json.dumps(json.loads(text))
        assert _outcomes(shuffled, COMMANDS[commands], tmp_path) == expected


def _arcs_shuffled(model, rng):
    """model with the dev_arcs and back_arcs of every diagram in a seeded random order."""
    model = json.loads(json.dumps(model))
    for diagram in model["canonical_diagrams"].values():
        for key in ("dev_arcs", "back_arcs"):
            rng.shuffle(diagram.get(key, []))
    return model


@pytest.mark.parametrize("fixture", ["basic.json", "flawed.json"])
def test_arc_list_order_changes_no_report(tmp_path, fixture):
    model = json.loads((FIXTURES / fixture).read_text())
    requests = json.loads((FIXTURES / "basic.json").read_text())["composition_requests"]
    commands = [["validate", "{model}", "--samples", "50"],
                *(["consist", "{model}", "--request", r] for r in requests)]
    for diagram in model["canonical_diagrams"]:
        for window in ([], ["--window", "1:3"]):
            commands.append(["replay", "{model}", "--diagram", diagram, "--events", str(DEV3_EVENTS), *window])
    expected = _outcomes(json.dumps(model), commands, tmp_path)
    texts = {json.dumps(model)}
    for seed in range(6):
        text = json.dumps(_arcs_shuffled(model, random.Random(seed)))
        texts.add(text)
        assert _outcomes(text, commands, tmp_path) == expected, seed
    assert len(texts) > 1
