"""The composition_requests section of a model file. `modelfile` imports
this module, and with it `composition`, on the first request it parses."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .composition import PrescribedEntry, PrescribedSequence, TimedDiagramSet
from .modelfile import _expect_list, _Flat, _strs


@dataclass(frozen=True)
class CompositionRequest:
    id: str
    kind: str  # "sequential" | "parallel" | "generalize" | "consistency"
    diagram_set: TimedDiagramSet
    sequence: Union[PrescribedSequence, None] = None
    selection: tuple[tuple[str, ...], ...] = ()
    order_pairs: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...] = ()


_PRESCRIBED = _Flat(PrescribedEntry, "bad entry: {}",
                    ("diagram", "diagram", int), ("state", "state", str), ("deadline", "deadline", int))
_REQUEST_KINDS = ("sequential", "parallel", "generalize", "consistency")


def parse_request(rid, raw, where, out, done) -> Union[CompositionRequest, None]:
    canonical = done["canonical"]
    kind = raw.get("kind")
    if kind not in _REQUEST_KINDS:
        out.invalid(where, f"kind must be one of {', '.join(_REQUEST_KINDS)}; got {kind!r}")
        return None
    ids = _strs(raw.get("diagrams"), f"{where}.diagrams", out)
    ok = True
    for d in ids:
        if d not in canonical:
            out.unresolved(where, f"diagram {d!r} is not declared")
            ok = False
    try:
        intervals = tuple(int(t) for t in _expect_list(raw.get("intervals"), f"{where}.intervals", out))
    except (TypeError, ValueError):
        out.invalid(where, "intervals must be integers")
        ok = False
        intervals = ()
    if len(intervals) != len(ids):
        out.invalid(where, "one interval per diagram required")
        ok = False
    sequence = None
    if kind == "consistency":
        entries: list[PrescribedEntry] = []
        for i, item in enumerate(_expect_list(raw.get("sequence"), f"{where}.sequence", out)):
            wi = f"{where}.sequence[{i}]"
            entry = _PRESCRIBED.read(item, wi, out)
            if entry is None:
                ok = False
                continue
            if not 0 <= entry.diagram < len(ids):
                out.unresolved(wi, f"no diagram at index {entry.diagram}")
                ok = False
            elif ids[entry.diagram] in canonical and entry.state not in canonical[ids[entry.diagram]].diagram.states:
                out.unresolved(wi, f"state {entry.state!r} not in diagram {ids[entry.diagram]!r}")
                ok = False
            entries.append(entry)
        if ok:
            try:
                sequence = PrescribedSequence(tuple(entries))
            except ValueError as exc:
                out.invalid(f"{where}.sequence", str(exc))
                ok = False
    selection: list[tuple[str, ...]] = []
    order_pairs: list[tuple[tuple[str, ...], tuple[str, ...]]] = []
    if kind == "generalize":
        for i, item in enumerate(_expect_list(raw.get("selection"), f"{where}.selection", out)):
            tup = _strs(item, f"{where}.selection[{i}]", out)
            selection.append(tup)
            if len(tup) == len(ids):
                for d, s in zip(ids, tup):
                    if d in canonical and s not in canonical[d].diagram.states:
                        out.unresolved(f"{where}.selection[{i}]", f"state {s!r} not in diagram {d!r}")
                        ok = False
        for i, item in enumerate(_expect_list(raw.get("order"), f"{where}.order", out)):
            try:
                before, after = _expect_list(item, f"{where}.order[{i}]", out)
                order_pairs.append((tuple(str(s) for s in before), tuple(str(s) for s in after)))
            except (TypeError, ValueError):
                out.invalid(f"{where}.order[{i}]", "order entries are [before, after] pairs")
                ok = False
    if not ok:
        return None
    try:
        diagram_set = TimedDiagramSet(tuple(canonical[d].diagram for d in ids), intervals)
    except ValueError as exc:
        out.invalid(f"{where}.intervals", str(exc))
        return None
    return CompositionRequest(rid, kind, diagram_set, sequence, tuple(selection), tuple(order_pairs))
