"""Report objects and their two serializations.

Every command result is a Report: a kind, a body whose top-level keys
are fixed per kind, and provenance (input digests, seed, tool version,
argv). machine-json output is byte-stable: canonical key order, fixed
separators, no timestamps; human-text renders the same tree readably.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence, Union

from . import __version__
from .errors import StatedevError


class SchemaViolationError(StatedevError):
    pass


SCHEMAS: dict[str, frozenset[str]] = {
    "validation": frozenset({"target", "passed", "violations", "warnings"}),
    "classification": frozenset({"classificator", "object", "outcome", "path"}),
    "profile": frozenset({"parameters", "start", "end", "rows", "trends"}),
    "intensity": frozenset(
        {"diagram", "window", "occupancy", "arc_cumulative", "development",
         "degradation", "ratio", "reached", "target_delta"}
    ),
    "consistency": frozenset({"request", "outcome", "detail"}),
    "trajectory": frozenset(
        {"scenario", "horizon", "subsystems", "complete", "non_final",
         "redundancy_incidents", "omitted_possibilities", "complexness",
         "propagation", "efficiency"}
    ),
    "comparison": frozenset({"compared", "ranking"}),
}


@dataclass(frozen=True)
class Encoded:
    """A JSON value already written as canonical JSON text, which
    `canonical_json` writes as it stands where it is the payload or a
    mapping's value; the JSON encoder refuses one anywhere else, such as
    in a list. human-text renders what the text decodes to."""

    text: str


@dataclass(frozen=True)
class Report:
    kind: str
    body: Mapping[str, Any]
    provenance: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "body", dict(self.body))
        object.__setattr__(self, "provenance", dict(self.provenance))


def check_schema(report: Report) -> None:
    if report.kind not in SCHEMAS:
        raise SchemaViolationError(f"unknown report kind {report.kind!r}")
    expected = SCHEMAS[report.kind]
    actual = frozenset(report.body)
    if actual != expected:
        missing = sorted(expected - actual)
        extra = sorted(actual - expected)
        parts = []
        if missing:
            parts.append("missing " + ", ".join(missing))
        if extra:
            parts.append("unexpected " + ", ".join(extra))
        raise SchemaViolationError(f"{report.kind} report body: " + "; ".join(parts))
    if not report.provenance:
        raise SchemaViolationError("report lacks provenance")


def file_digest(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def make_provenance(
    inputs: Sequence[str] = (),
    seed: Union[int, None] = None,
    argv: Union[Sequence[str], None] = None,
) -> dict:
    digests = {}
    for path in inputs:
        try:
            digests[path] = file_digest(path)
        except OSError:
            pass  # an input that cannot be read has no digest
    return {
        "tool": f"statedev {__version__}",
        "inputs": digests,
        "seed": seed,
        "argv": list(argv) if argv is not None else None,
    }


def _render_human(value: Any, indent: int, lines: list[str], label: str = "") -> None:
    if isinstance(value, Encoded):
        value = json.loads(value.text)
    pad = "  " * indent
    prefix = f"{pad}{label}: " if label else pad
    if isinstance(value, Mapping):
        if not value:
            lines.append(prefix.rstrip(": ") + (": (none)" if label else "(none)"))
            return
        if label:
            lines.append(f"{pad}{label}:")
        for key in value:
            _render_human(value[key], indent + (1 if label else 0), lines, str(key))
    elif isinstance(value, (list, tuple)):
        if not value:
            lines.append(prefix + "(none)")
        elif all(not isinstance(v, (Mapping, list, tuple)) for v in value):
            lines.append(prefix + ", ".join(_scalar(v) for v in value))
        else:
            if label:
                lines.append(f"{pad}{label}:")
            for item in value:
                if isinstance(item, Mapping):
                    lines.append(f"{pad}  -")
                    for key in item:
                        _render_human(item[key], indent + 2, lines, str(key))
                else:
                    _render_human(item, indent + 1, lines, "-")
    else:
        lines.append(prefix + _scalar(value))


def _scalar(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return format(value, "g")
    return str(value)


_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False, check_circular=False).encode


def _holds_encoded(value: Any) -> bool:
    """Whether value is an Encoded or a dict that holds one at any depth."""
    return isinstance(value, Encoded) or isinstance(value, dict) and any(map(_holds_encoded, value.values()))


def _pieces(value: Any):
    """The canonical JSON text of value in pieces, which are joined once:
    an Encoded text can be long, and each copy of it costs."""
    if isinstance(value, Encoded):
        yield value.text
    elif isinstance(value, dict) and any(map(_holds_encoded, value.values())):
        for i, key in enumerate(sorted(value)):
            yield ("," if i else "{") + _ENCODE(key) + ":"
            yield from _pieces(value[key])
        yield "}"
    else:
        yield _ENCODE(value)


def canonical_json(payload: Any) -> str:
    """The byte-stable JSON encoding: sorted keys, compact separators. Each
    Encoded value is written as it stands; the encoder walks down only the
    dicts that hold one, whose keys are strings, and writes every other
    value in one call. It skips the cycle bookkeeping, as reports and
    trajectory files are trees the program builds afresh; a cyclic payload
    still raises (RecursionError) before anything is written."""
    return "".join([*_pieces(payload), "\n"])


def emit_report(report: Report, format: str = "machine-json") -> str:
    """Serialize one report; identical reports give identical bytes."""
    check_schema(report)
    if format == "machine-json":
        return canonical_json({"kind": report.kind, "body": report.body, "provenance": report.provenance})
    if format == "human-text":
        lines = [f"report: {report.kind}"]
        for key in sorted(report.body):
            _render_human(report.body[key], 0, lines, key)
        prov = report.provenance
        lines.append(f"tool: {prov.get('tool', '-')}")
        if prov.get("seed") is not None:
            lines.append(f"seed: {prov['seed']}")
        for path, digest in sorted(prov.get("inputs", {}).items()):
            lines.append(f"input: {path} sha256={digest}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {format!r}")
