"""Tests of the benchmark itself: seeded generation and the output checks.

Run from the repository root with ``python3 -m pytest bench/tests``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import checks  # noqa: E402
import gen  # noqa: E402
from statedev.cli import main as cli_main  # noqa: E402


def _files(root: str) -> dict[str, bytes]:
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_gives_same_bytes(workload, tmp_path):
    plans = [gen.generate(workload, 7, str(tmp_path / side)) for side in ("a", "b")]
    a, b = _files(str(tmp_path / "a")), _files(str(tmp_path / "b"))
    assert a and a == b
    assert len(plans[0]["ops"]) == len(plans[1]["ops"])
    other = gen.generate(workload, 8, str(tmp_path / "c"))
    assert _files(str(tmp_path / "c")) != a
    assert [op["size"] for op in other["ops"]] == [op["size"] for op in plans[0]["ops"]]


def _run(op: dict) -> list[str]:
    stdouts = []
    for call in op["calls"]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli_main(call) == 0
        stdouts.append(buf.getvalue())
    return stdouts


def _first(plan: dict, size: str, **facts) -> dict:
    return next(
        op for op in plan["ops"]
        if op["size"] == size and all(op["facts"].get(k) == v for k, v in facts.items())
    )


def test_scenario_check_rejects_an_altered_event_row(tmp_path):
    plan = gen.generate("scenario", 3, str(tmp_path))
    op = _first(plan, "S")
    stdouts = _run(op)
    assert checks.check_scenario(op, stdouts) == []

    events = op["files"][1]
    with open(events, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    row = next(r for r in rows[1:] if r[2] == "backstep")
    row[2] = "firing"  # one backstep relabelled as a firing
    with open(events, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    assert checks.check_scenario(op, stdouts)


def test_scenario_check_rejects_a_report_that_differs_from_analyze(tmp_path):
    plan = gen.generate("scenario", 3, str(tmp_path))
    op = _first(plan, "S")
    stdouts = _run(op)
    report = json.loads(stdouts[1])
    report["body"]["omitted_possibilities"]["total"] += 1
    assert checks.check_scenario(op, [stdouts[0], json.dumps(report)])


def test_consistency_check_rejects_a_firing_before_its_delay(tmp_path):
    plan = gen.generate("consistency", 3, str(tmp_path))
    op = _first(plan, "S", feasible=True)
    stdouts = _run(op)
    assert checks.check_consistency(op, stdouts) == []

    report = json.loads(stdouts[0])
    witness = report["body"]["detail"]["witness"]
    # Move a firing that follows another firing of its diagram to the tick
    # that firing happened at, before the residence delay has passed.
    for n, firing in enumerate(witness):
        earlier = [f for f in witness[:n] if f["diagram"] == firing["diagram"]]
        if earlier:
            firing["tick"] = earlier[-1]["tick"]
            break
    else:
        pytest.fail("witness has no diagram firing twice")
    assert checks.check_consistency(op, [json.dumps(report)])


def test_consistency_check_rejects_a_wrong_verdict(tmp_path):
    plan = gen.generate("consistency", 3, str(tmp_path))
    late = _first(plan, "S", feasible=False)
    stdouts = _run(late)
    assert checks.check_consistency(late, stdouts) == []
    report = json.loads(stdouts[0])
    report["body"]["outcome"] = "consistent"
    assert checks.check_consistency(late, [json.dumps(report)])


def test_population_check_rejects_one_changed_occupancy_cell(tmp_path):
    plan = gen.generate("population", 3, str(tmp_path))
    op = _first(plan, "S")
    stdouts = _run(op)
    assert checks.check_population(op, stdouts) == []

    report = json.loads(stdouts[2])
    occupancy = report["body"]["occupancy"]
    state = next(iter(occupancy))
    occupancy[state][len(occupancy[state]) // 2] += 1
    assert checks.check_population(op, stdouts[:2] + [json.dumps(report)])


def test_population_check_rejects_a_wrong_trend(tmp_path):
    plan = gen.generate("population", 3, str(tmp_path))
    op = _first(plan, "S")
    stdouts = _run(op)
    report = json.loads(stdouts[1])
    wave = next(s["name"] for s in op["facts"]["shapes"] if s["period"])
    report["body"]["trends"][wave]["cyclic_period"] += 1
    assert checks.check_population(op, [stdouts[0], json.dumps(report), stdouts[2]])


def test_late_sequences_are_late_by_construction(tmp_path):
    plan = gen.generate("consistency", 5, str(tmp_path))
    for op in plan["ops"]:
        facts = op["facts"]
        last_di, _, deadline = facts["sequence"][-1]
        visits = [s for di, s, _ in facts["sequence"] if di == last_di]
        bound = gen.prescribed_bound(facts["diagrams"][last_di], visits)
        assert (bound > deadline) == (not facts["feasible"])
