"""Every subcommand's stdout, exit code and written files, byte for byte.

`tests/golden_cli.json` holds the outputs of a fixed command list on the
shipped fixtures. The commands run in order from the repository root with
relative fixture paths; files go to one temporary directory, written as
`{tmp}` in the arguments and in the recorded bytes. A case with
`save_stdout` writes its stdout there too, as recorded, so later cases
can read it.

Re-record after an intended change of output with

    PYTHONPATH=src python -m tests.test_golden_cli
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from statedev.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_cli.json"
TMP = "{tmp}"

_BASIC = "fixtures/basic.json"
_TWO_LEVEL = "fixtures/two_level.json"
_FLAWED = "fixtures/flawed.json"
_UNSOUND = "fixtures/unsound.json"
_STRAY = "fixtures/stray.json"


def _simulate(name, *extra, scenario=None):
    return {
        "name": f"simulate-{name}",
        "argv": ["simulate", _TWO_LEVEL, "--scenario", scenario or name, "--scores", "default",
                 *extra, "--out", f"{TMP}/{name}.json", "--events-out", f"{TMP}/{name}.csv"],
        "save_stdout": f"{name}.report.json",
    }


CASES = [
    *({"name": f"validate-{path}", "argv": ["validate", path]} for path in (_BASIC, _TWO_LEVEL)),
    *({"name": f"validate-samples-{path}", "argv": ["validate", path, "--samples", "2000", "--seed", "7"]}
      for path in (_BASIC, _TWO_LEVEL)),
    *({"name": f"validate-text-{path}", "argv": ["validate", path, "--format", "text"]}
      for path in (_BASIC, _TWO_LEVEL)),
    {"name": "classify", "argv": ["classify", _BASIC, "--object", "x=7,phase=Seed"]},
    {"name": "classify-growth", "argv": ["classify", _BASIC, "--object", "x=1", "--classificator", "growth"]},
    {"name": "profile", "argv": ["profile", _BASIC, "--series", "fixtures/x_series.csv", "--interval", "0:4"]},
    {"name": "replay", "argv": ["replay", _BASIC, "--diagram", "dev3", "--events", "fixtures/dev3_events.csv"]},
    {"name": "replay-window", "argv": ["replay", _BASIC, "--diagram", "dev3", "--events",
                                       "fixtures/dev3_events.csv", "--window", "1:3"]},
    *({"name": f"consist-{request}", "argv": ["consist", _BASIC, "--request", request]}
      for request in ("dev_then_boost", "dev_with_boost", "dev_boost_merge", "dev_milestones")),
    _simulate("coordinated"),
    _simulate("neglected"),
    _simulate("long", "--horizon", "12", scenario="coordinated"),
    *({"name": f"analyze-{name}", "argv": ["analyze", f"{TMP}/{name}.json"]}
      for name in ("coordinated", "neglected", "long")),
    {"name": "analyze-v1", "argv": ["analyze", "fixtures/coordinated_v1_trajectory.json"]},
    {"name": "compare", "argv": ["compare", f"{TMP}/coordinated.report.json",
                                 f"{TMP}/neglected.report.json", f"{TMP}/long.report.json"]},
    # One error report per subcommand: its target and provenance inputs.
    {"name": "validate-error", "argv": ["validate", "fixtures/x_series.csv"]},
    {"name": "classify-error", "argv": ["classify", _BASIC, "--object", "x=7", "--classificator", "nope"]},
    {"name": "profile-error", "argv": ["profile", _BASIC, "--series", "fixtures/x_series.csv",
                                       "--interval", "3:1"]},
    {"name": "replay-error-diagram", "argv": ["replay", _BASIC, "--diagram", "nope", "--events",
                                              "fixtures/dev3_events.csv"]},
    {"name": "replay-error-window", "argv": ["replay", _BASIC, "--diagram", "dev3", "--events",
                                             "fixtures/dev3_events.csv", "--window", "3:1"]},
    {"name": "consist-error", "argv": ["consist", _BASIC, "--request", "nope"]},
    {"name": "simulate-error", "argv": ["simulate", _TWO_LEVEL, "--scenario", "nope"]},
    {"name": "analyze-error", "argv": ["analyze", _BASIC]},
    {"name": "compare-error", "argv": ["compare", _BASIC, _TWO_LEVEL]},
    # The report lines of flawed models and inputs.
    {"name": "validate-flawed", "argv": ["validate", _FLAWED]},
    {"name": "classify-error-choice", "argv": ["classify", _FLAWED, "--object", "x=3"]},
    {"name": "classify-no-match", "argv": ["classify", _FLAWED, "--object", "x=3", "--classificator", "sparse"]},
    {"name": "classify-multiple-match", "argv": ["classify", _FLAWED, "--object", "x=3",
                                                 "--classificator", "multi"]},
    {"name": "classify-missing", "argv": ["classify", _BASIC, "--object", "phase=Seed"]},
    {"name": "profile-cycle", "argv": ["profile", _BASIC, "--series", "fixtures/cycle_series.csv",
                                       "--interval", "0:5"]},
    {"name": "replay-error-initial", "argv": ["replay", _BASIC, "--diagram", "boost", "--events",
                                              "fixtures/dev3_events.csv"]},
    {"name": "replay-error-header", "argv": ["replay", _BASIC, "--diagram", "dev3", "--events",
                                             "fixtures/x_series.csv"]},
    {"name": "simulate-error-scores", "argv": ["simulate", _TWO_LEVEL, "--scenario", "coordinated",
                                               "--scores", "nope"]},
    {"name": "validate-flawed-scenario", "argv": ["validate", "fixtures/flawed_scenario.json"]},
    {"name": "simulate-error-horizon", "argv": ["simulate", _TWO_LEVEL, "--scenario", "coordinated",
                                                "--horizon", "-1"]},
    {"name": "profile-text", "argv": ["profile", _BASIC, "--series", "fixtures/x_series.csv",
                                      "--interval", "0:4", "--format", "text"]},
    # A boundary overlap, a gap and a diagram out of its scale's order.
    {"name": "validate-unsound", "argv": ["validate", _UNSOUND]},
    {"name": "validate-unsound-text", "argv": ["validate", _UNSOUND, "--format", "text"]},
    # The human-text rendering of every other report kind.
    {"name": "classify-text", "argv": ["classify", _BASIC, "--object", "x=7,phase=Seed", "--format", "text"]},
    {"name": "replay-text", "argv": ["replay", _BASIC, "--diagram", "dev3", "--events",
                                     "fixtures/dev3_events.csv", "--format", "text"]},
    {"name": "consist-text", "argv": ["consist", _BASIC, "--request", "dev_then_boost", "--format", "text"]},
    {"name": "simulate-text", "argv": ["simulate", _TWO_LEVEL, "--scenario", "coordinated", "--scores", "default",
                                       "--format", "text"]},
    {"name": "analyze-text", "argv": ["analyze", f"{TMP}/coordinated.json", "--format", "text"]},
    {"name": "compare-text", "argv": ["compare", f"{TMP}/coordinated.report.json",
                                      f"{TMP}/neglected.report.json", f"{TMP}/long.report.json", "--format", "text"]},
    # A broken scale and series that only validate reads.
    {"name": "validate-stray", "argv": ["validate", _STRAY]},
    {"name": "consist-stray", "argv": ["consist", _STRAY, "--request", "dev_then_boost"]},
]


def _written(argv):
    """The file names after --out and --events-out, relative to {tmp}."""
    return [argv[i + 1][len(TMP) + 1:] for i, arg in enumerate(argv[:-1])
            if arg in ("--out", "--events-out")]


def run_cases(tmp: str) -> list:
    """Run every case in order; the outputs with tmp written as {tmp}."""
    results = []
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        for case in CASES:
            argv = [arg.replace(TMP, tmp) for arg in case["argv"]]
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            stdout = out.getvalue().replace(tmp, TMP)
            if "save_stdout" in case:
                Path(tmp, case["save_stdout"]).write_text(stdout, encoding="utf-8")
            files = {name: Path(tmp, name).read_bytes().decode("utf-8")
                     for name in _written(case["argv"])}
            results.append({
                "name": case["name"],
                "argv": case["argv"],
                "exit": code,
                "stdout": stdout,
                "files": {name: text.replace(tmp, TMP) for name, text in files.items()},
            })
    finally:
        os.chdir(cwd)
    return results


def test_cli_outputs_equal_the_recorded_bytes(tmp_path):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = run_cases(str(tmp_path))
    assert [case["name"] for case in actual] == [case["name"] for case in expected]
    for got, want in zip(actual, expected):
        assert got == want, want["name"]


# One case per subcommand and one error report, each run again in a fresh
# interpreter: in-process runs share every module the test session imported,
# so only a fresh one shows a command that does not import what it runs.
FRESH = ("validate-fixtures/basic.json", "classify", "profile", "replay", "consist-dev_then_boost",
         "simulate-coordinated", "analyze-coordinated", "compare", "analyze-error")


def test_cases_in_fresh_interpreters(tmp_path):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    tmp = str(tmp_path)
    # Every file the in-order run leaves, from the recorded bytes.
    for case, want in zip(CASES, expected):
        for name, text in want["files"].items():
            Path(tmp, name).write_bytes(text.replace(TMP, tmp).encode("utf-8"))
        if "save_stdout" in case:
            Path(tmp, case["save_stdout"]).write_text(want["stdout"], encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for want in (case for case in expected if case["name"] in FRESH):
        for name in _written(want["argv"]):
            Path(tmp, name).unlink()
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from statedev.cli import main; sys.exit(main())",
             *(arg.replace(TMP, tmp) for arg in want["argv"])],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
        )
        assert (proc.returncode, proc.stdout.replace(tmp, TMP)) == (want["exit"], want["stdout"]), want["name"]
        for name, text in want["files"].items():
            assert Path(tmp, name).read_bytes().decode("utf-8").replace(tmp, TMP) == text, (want["name"], name)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        recorded = run_cases(tmp)
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(recorded)} cases to {GOLDEN}", file=sys.stderr)
