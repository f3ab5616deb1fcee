"""The canonical_diagrams section of a model file. `modelfile` imports this
module, and with it `canonical`, on the first canonical diagram it parses."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Union

from .canonical import Arc, ArcKind, CanonicalDiagram
from .modelfile import _declared, _expect_map, _Flat, _strs


@dataclass(frozen=True)
class CanonicalEntry:
    """A canonical diagram plus its observed and goal distributions."""

    diagram: CanonicalDiagram
    initial_distribution: Mapping[str, str] = field(default_factory=dict)  # object -> state
    target_distribution: Union[Mapping[str, int], None] = None  # state -> count

    def __post_init__(self):
        object.__setattr__(self, "initial_distribution", dict(self.initial_distribution))
        if self.target_distribution is not None:
            object.__setattr__(self, "target_distribution", dict(self.target_distribution))


_ARC = _Flat(Arc, "bad arc: {}", ("from", "src", str), ("to", "dst", str), ("delta", "delta", int, 0))


def parse_canonical(did, raw, where, out, done) -> Union[CanonicalEntry, None]:
    scale_id = raw.get("scale")
    if scale_id is not None and not _declared(scale_id, done["scales"]):
        out.unresolved(where, f"scale {scale_id!r} is not declared")
    arcs = {
        kind: _ARC.read_list(raw.get(key), f"{where}.{key}", out, kind=kind)
        for key, kind in (("dev_arcs", ArcKind.DEV), ("back_arcs", ArcKind.BACK))
    }
    if any(None in found for found in arcs.values()):
        return None
    diagram = CanonicalDiagram(
        id=did,
        states=_strs(raw.get("states"), f"{where}.states", out),
        dev_arcs=tuple(arcs[ArcKind.DEV]),
        back_arcs=tuple(arcs[ArcKind.BACK]),
        initial=str(raw.get("initial")),
        final=str(raw.get("final")),
        horizon=int(raw.get("horizon", 0)),
        scale_id=scale_id,
        labels=_expect_map(raw.get("labels"), f"{where}.labels", out),
    )
    placed = _expect_map(raw.get("initial_distribution"), f"{where}.initial_distribution", out)
    placement = {str(k): str(v) for k, v in placed.items()}
    for obj, state in sorted(placement.items()):
        if state not in diagram.states:
            out.unresolved(f"{where}.initial_distribution", f"object {obj!r} placed on unknown state {state!r}")
    target_raw = raw.get("target_distribution")
    target: Union[dict[str, int], None] = None
    if target_raw is not None:
        target = {}
        for state, n in _expect_map(target_raw, f"{where}.target_distribution", out).items():
            if state not in diagram.states:
                out.unresolved(f"{where}.target_distribution", f"unknown state {state!r}")
            try:
                target[str(state)] = int(n)
            except (TypeError, ValueError):
                out.invalid(f"{where}.target_distribution", f"count for {state!r} is not an integer")
    return CanonicalEntry(diagram, placement, target)
