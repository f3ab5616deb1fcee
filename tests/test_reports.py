"""canonical_json with pre-encoded values, against json.dumps."""

import json
import random
from collections import Counter

import pytest

from statedev.reports import Encoded, canonical_json

# Quotes, backslashes, percent signs and non-ASCII characters in keys and strings.
_CHARS = 'ab"\\%_ é€\n'


def _dumps(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def _text(rng: random.Random) -> str:
    return "".join(rng.choice(_CHARS) for _ in range(rng.randint(0, 4)))


def _plain(rng: random.Random, depth: int):
    """A JSON value with no Encoded in it."""
    kind = rng.randrange(7 if depth < 3 else 5)
    if kind == 0:
        return rng.randint(-1000, 1000)
    if kind == 1:
        return rng.uniform(-1e6, 1e6)
    if kind == 2:
        return rng.choice((True, False, None))
    if kind in (3, 4):
        return _text(rng)
    if kind == 5:
        return [_plain(rng, depth + 1) for _ in range(rng.randint(0, 3))]
    return {_text(rng): _plain(rng, depth + 1) for _ in range(rng.randint(0, 3))}


def _payload(rng: random.Random, depth: int, seen: Counter):
    """(payload, the same payload with each Encoded decoded): a mapping
    whose values are Encoded texts, plain values or such mappings, down to
    depth 3; at depth 0 the payload may be an Encoded itself."""
    if rng.random() < (0.1 if depth == 0 else 0.3):
        value = _plain(rng, 2)
        seen[depth] += 1
        return Encoded(_dumps(value)[:-1]), value
    payload, plain = {}, {}
    for _ in range(rng.randint(1, 5)):
        key = _text(rng)
        if depth < 3 and rng.random() < 0.4:
            payload[key], plain[key] = _payload(rng, depth + 1, seen)
        else:
            payload[key] = plain[key] = _plain(rng, depth + 1)
    return payload, plain


def test_canonical_json_writes_encoded_values_at_any_depth_as_json_dumps():
    rng = random.Random(27)
    seen = Counter()
    for _ in range(2000):
        payload, plain = _payload(rng, 0, seen)
        assert canonical_json(payload) == _dumps(plain)
    assert min(seen[depth] for depth in range(4)) >= 100, seen


def test_canonical_json_refuses_an_encoded_value_in_a_list():
    for payload in ([Encoded("1")], {"a": [Encoded("1")]}, {"a": {"b": [{"c": Encoded("1")}]}}):
        with pytest.raises(TypeError):
            canonical_json(payload)
