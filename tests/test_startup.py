"""Each command loads only the statedev modules it runs.

`tests/conftest.py` imports every module, so each step here runs in a fresh
interpreter, which reports the statedev modules loaded after the step.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tests.conftest import BASIC, TWO_LEVEL

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import contextlib, io, json, sys
from statedev import cli, modelfile
with contextlib.redirect_stdout(io.StringIO()):
    exec(sys.argv[1])
print(json.dumps(sorted(name for name in sys.modules if name.startswith("statedev."))))
"""


def loaded(step: str) -> set:
    """The statedev modules a fresh interpreter holds after running step."""
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, step], env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return {name[len("statedev."):] for name in json.loads(proc.stdout)}


@pytest.fixture(scope="module")
def models(tmp_path_factory) -> dict:
    """Models that hold some sections of basic.json only."""
    tmp = tmp_path_factory.mktemp("models")
    basic = json.loads(BASIC.read_text(encoding="utf-8"))
    diagrams = {did: {k: v for k, v in d.items() if k != "scale"} for did, d in basic["canonical_diagrams"].items()}
    sections = {
        "requests": {"canonical_diagrams": diagrams, "composition_requests": basic["composition_requests"]},
        "scales": {key: basic[key] for key in ("parameters", "scales", "classificators")},
    }
    paths = {}
    for name, body in sections.items():
        paths[name] = tmp / f"{name}.json"
        paths[name].write_text(json.dumps({"format_version": 1, **body}), encoding="utf-8")
    paths["trajectory"] = tmp / "trajectory.json"
    return {name: str(path) for name, path in paths.items()}


def test_a_model_of_diagrams_and_requests_loads_no_scale_or_scenario_module(models):
    path = models["requests"]
    for step in (f"modelfile.parse_model({path!r})",
                 f"assert cli.main(['consist', {path!r}, '--request', 'dev_then_boost']) == 0"):
        found = loaded(step)
        assert {"canonical", "composition"} <= found
        assert not found & {"scenario", "scenariofile", "statespace", "predicates", "dynamics"}, step


def test_simulate_and_analyze_load_no_scale_or_diagram_module(models):
    out = models["trajectory"]
    found = loaded(
        f"assert cli.main(['simulate', {str(TWO_LEVEL)!r}, '--scenario', 'coordinated', '--out', {out!r}]) == 0\n"
        f"assert cli.main(['analyze', {out!r}]) == 0"
    )
    assert "scenario" in found
    assert not found & {"statespace", "predicates", "dynamics", "canonical", "composition"}


def test_validate_of_parameters_and_scales_loads_no_diagram_or_scenario_module(models):
    path = models["scales"]
    for step in (f"assert cli.main(['validate', {path!r}]) == 0",
                 f"assert cli.main(['classify', {path!r}, '--object', 'x=7,phase=Seed']) == 0"):
        found = loaded(step)
        assert "statespace" in found
        assert not found & {"scenario", "scenariofile", "composition", "canonical", "dynamics"}, step
