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


class Encoded(str):
    """A report body value that already holds its canonical JSON text.

    machine-json splices the text in as it stands, and human-text renders
    what it decodes to. It stands at the top level of a body, and no body
    value whose key sorts before its own holds a mapping."""


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


def canonical_json(payload: Any) -> str:
    """The byte-stable JSON encoding: sorted keys, compact separators.

    Reports and trajectory files are trees the program builds afresh, so
    the encoder skips its cycle bookkeeping; a cyclic payload still raises
    (RecursionError) before anything is written."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False, check_circular=False
    ) + "\n"


def emit_report(report: Report, format: str = "machine-json") -> str:
    """Serialize one report; identical reports give identical bytes."""
    check_schema(report)
    encoded = sorted(key for key, value in report.body.items() if isinstance(value, Encoded))
    if format == "machine-json":
        body = {**report.body, **dict.fromkeys(encoded, [])}
        text = canonical_json({"kind": report.kind, "body": body, "provenance": report.provenance})
        # "body" sorts first, so the text opens with {"body":{ and the body's
        # keys follow in sorted order. Any quote inside a string is escaped,
        # so "key":[] can only be a key and its value, and the keys that sort
        # before an encoded one hold no mapping: its first match is the key.
        parts, at = [], 0
        for key in encoded:
            name = json.dumps(key) + ":"
            start = text.index(name + "[]", at) + len(name)
            parts += text[at:start], report.body[key]
            at = start + 2
        return "".join([*parts, text[at:]])
    if format == "human-text":
        body = {**report.body, **{key: json.loads(report.body[key]) for key in encoded}}
        lines = [f"report: {report.kind}"]
        for key in sorted(body):
            _render_human(body[key], 0, lines, key)
        prov = report.provenance
        lines.append(f"tool: {prov.get('tool', '-')}")
        if prov.get("seed") is not None:
            lines.append(f"seed: {prov['seed']}")
        for path, digest in sorted(prov.get("inputs", {}).items()):
            lines.append(f"input: {path} sha256={digest}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {format!r}")
