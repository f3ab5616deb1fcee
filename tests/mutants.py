"""Seeded structural mutants of the model fixtures, and their recorded outcomes.

A mutant is a fixture document with one to three mutations, each applied
at a path picked from every value in the document:

- ``drop``: delete the key or list item;
- ``swap``: replace the value by one of another JSON type (str, list,
  dict, int, null);
- ``huge``: replace the value by an integer far outside any sane range;
- ``listify``: wrap a string (an id, a state, a symbol) in a list.

``tests/golden_mutants.jsonl`` holds, one line per mutant in generation
order, the fixture name and the outcome of ``parse_model_text``: a digest
of ``model_to_dict`` of the parsed model, the ordered ``(code, where,
message, line, column)`` issue tuples, or the exception type of a crash.
The mutations themselves are not stored; ``mutants`` regenerates them.
To record the outcomes again from the current code:

    PYTHONPATH=src python3 -m tests.mutants --record
"""

from __future__ import annotations

import copy
import hashlib
import json
import random
import sys
from pathlib import Path

from statedev.modelfile import ModelFileError, parse_model_text
from tests.oracles import model_to_dict

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden_mutants.jsonl"
SEEDS = {"basic.json": 1, "two_level.json": 2}
MUTANTS_PER_FIXTURE = 300

OPERATORS = ("drop", "swap", "huge", "listify")
_TYPE_EXAMPLES = {"str": "m", "list": ["m"], "dict": {"m": 1}, "int": 3, "null": None}
_HUGE = (10**30, -(10**30), 2**64 + 1)


def _type_name(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, str):
        return "str"
    if isinstance(value, list):
        return "list"
    if isinstance(value, dict):
        return "dict"
    return "int"


def paths(node, prefix=()) -> list:
    """The path (a tuple of keys and indices) of every value below node."""
    found = []
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        found.append(prefix + (key,))
        found.extend(paths(child, prefix + (key,)))
    return found


def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


def replacement(op: str, value, rng):
    """The new value for a non-drop operator, or None to skip the operator."""
    if op == "swap":
        target = rng.choice([t for t in _TYPE_EXAMPLES if t != _type_name(value)])
        if target == "str" and isinstance(value, (int, float)) and not isinstance(value, bool):
            return (str(value),)
        return (copy.deepcopy(_TYPE_EXAMPLES[target]),)
    if op == "huge":
        return (rng.choice(_HUGE),)
    if op == "listify":
        return ([value],) if isinstance(value, str) else None
    raise ValueError(f"unknown operator {op!r}")


def mutate(doc, rng, operators=OPERATORS, replace=replacement):
    """A mutated deep copy of doc and the list of (operator, path) applied."""
    doc = copy.deepcopy(doc)
    applied = []
    for _ in range(rng.randint(1, 3)):
        candidates = paths(doc)
        if not candidates:
            break
        path = rng.choice(candidates)
        op = rng.choice(operators)
        parent = _parent(doc, path)
        if op == "drop":
            del parent[path[-1]]
        else:
            new = replace(op, parent[path[-1]], rng)
            if new is None:
                continue
            parent[path[-1]] = new[0]
        applied.append((op, ".".join(str(k) for k in path)))
    return doc, applied


def mutants(fixture: str, count: int = MUTANTS_PER_FIXTURE):
    """The seeded mutants of one fixture, as (JSON text, applied mutations)."""
    base = json.loads((FIXTURES / fixture).read_text())
    rng = random.Random(SEEDS[fixture])
    for _ in range(count):
        doc, applied = mutate(base, rng)
        yield json.dumps(doc), applied


def outcome(text: str) -> dict:
    """What parse_model_text makes of one document."""
    try:
        model = parse_model_text(text, source="mutant")
    except ModelFileError as exc:
        return {"issues": [[i.code, i.where, i.message, i.line, i.column] for i in exc.issues]}
    except Exception as exc:  # a crash: recorded, not compared
        return {"crash": type(exc).__name__}
    try:
        dumped = json.dumps(model_to_dict(model), sort_keys=True)
    except Exception as exc:
        return {"crash": f"model_to_dict: {type(exc).__name__}"}
    return {"model": hashlib.sha256(dumped.encode()).hexdigest()}


def record() -> str:
    return "".join(
        json.dumps({"fixture": fixture, **outcome(text)}, separators=(",", ":"), sort_keys=True) + "\n"
        for fixture in SEEDS
        for text, _ in mutants(fixture)
    )


def recorded() -> dict:
    """fixture -> the recorded outcomes, in generation order."""
    found: dict = {fixture: [] for fixture in SEEDS}
    for line in GOLDEN.read_text().splitlines():
        item = json.loads(line)
        found[item.pop("fixture")].append(item)
    return found


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python3 -m tests.mutants --record")
    GOLDEN.write_text(record())
