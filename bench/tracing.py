"""Spans around the calls into each statedev module, for the traced run.

``Tracer.install`` replaces the public functions the CLI reaches with
wrappers that record one span per call: name, start, end, parent span and
operation id. Spans stay in memory until the run ends. Nothing inside the
program changes; the wrappers sit on the module attributes the callers look
up at call time.
"""

from __future__ import annotations

import functools
import json
import os
from collections import Counter, defaultdict
from time import perf_counter


def _size(path) -> int:
    return os.path.getsize(path)


# (module, attribute, span name, counter) for every wrapped call. The counter
# reads the call's arguments and result and returns {name: amount}.
TRACED = (
    ("cli", "main", "cli.main", None),
    ("modelfile", "parse_model", "modelfile.parse",
     lambda a, r: {"modelfile.parse_bytes": _size(a[0])}),
    ("modelfile", "trajectory_file_to_dict", "modelfile.traj_write", None),
    ("modelfile", "load_trajectory_file", "modelfile.traj_load",
     lambda a, r: {"modelfile.traj_bytes": _size(a[0])}),
    ("scenario", "validate_scenario", "scenario.validate", None),
    ("scenario", "run_scenario", "scenario.run",
     lambda a, r: {"scenario.ticks": r.horizon, "scenario.events": len(r.events)}),
    ("scenario", "step", "scenario.step", None),
    ("scenario", "due_deliveries", "scenario.due", None),
    ("scenario", "analyze_trajectory", "scenario.analyze", None),
    ("composition", "check_consistency", "composition.check",
     lambda a, r: {"composition.verdicts": 1, "composition.consistent": int(r.consistent)}),
    ("canonical", "replay_script", "canonical.replay",
     lambda a, r: {"canonical.transitions": len(a[2])}),
    ("canonical", "intensity_report", "canonical.intensity", None),
    ("statespace", "validate_scale_disjointness", "statespace.sample_check",
     lambda a, r: {"statespace.samples": r.samples}),
    ("statespace", "validate_classificator", "statespace.sample_check",
     lambda a, r: {"statespace.samples": r.samples}),
    ("dynamics", "parallel_profile", "dynamics.profile",
     lambda a, r: {"dynamics.observations": sum(len(s.values) for s in a[0])}),
    ("dynamics", "classify_series", "dynamics.profile", None),
    # cli imported emit_report by name, so the wrapper goes on cli.
    ("cli", "emit_report", "reports.emit",
     lambda a, r: {"reports.emit_bytes": len(r.encode("utf-8"))}),
    ("reports", "file_digest", "reports.digest",
     lambda a, r: {"reports.digest_bytes": _size(a[0])}),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent id, op id, name, start, end)
        self.counts: Counter = Counter()
        self.op = None
        self._next = 0
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, fn, name, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._next
            tracer._next += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.spans.append((sid, parent, tracer.op, name, start, end))
            if count is not None:
                tracer.counts.update(count(args, result))
            return result

        return wrapper

    def install(self, modules: dict) -> None:
        for mod, attr, name, count in TRACED:
            module = modules[mod]
            fn = getattr(module, attr)
            self._undo.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, count))
        predicate = modules["statespace"].Predicate
        holds = predicate.holds
        counts = self.counts

        def counted(self_, *args, **kwargs):
            counts["predicates.holds_calls"] += 1
            return holds(self_, *args, **kwargs)

        self._undo.append((predicate, "holds", holds))
        predicate.holds = counted

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._undo):
            setattr(module, attr, fn)
        self._undo.clear()

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: total duration, total self time and call count."""
        child_time: dict = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        total: dict = defaultdict(float)
        self_time: dict = defaultdict(float)
        calls: Counter = Counter()
        for sid, _, _, name, start, end in self.spans:
            total[name] += end - start
            self_time[name] += end - start - child_time[sid]
            calls[name] += 1
        return total, self_time, calls

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def per_layer(tracer: Tracer, ops: int) -> dict:
    """Every per-layer metric, averaged per operation."""
    total, self_time, calls = tracer.totals()
    c = tracer.counts

    def ms(*names, table=total):
        return sum(table[n] for n in names) * 1000 / ops

    def mb(name):
        return c[name] / 1e6 / ops

    def per_op(name):
        return c[name] / ops

    metrics = {
        "cli.self_ms": (ms("cli.main", table=self_time), "ms"),
        "modelfile.parse_ms": (ms("modelfile.parse"), "ms"),
        "modelfile.parse_mb": (mb("modelfile.parse_bytes"), "MB"),
        "modelfile.traj_write_ms": (ms("modelfile.traj_write"), "ms"),
        "modelfile.traj_mb": (mb("modelfile.traj_bytes"), "MB"),
        "modelfile.traj_load_ms": (ms("modelfile.traj_load"), "ms"),
        "scenario.validate_ms": (ms("scenario.validate"), "ms"),
        "scenario.run_self_ms": (ms("scenario.run", table=self_time), "ms"),
        "scenario.step_ms": (ms("scenario.step"), "ms"),
        "scenario.step_calls": (calls["scenario.step"] / ops, "count"),
        "scenario.due_ms": (ms("scenario.due"), "ms"),
        "scenario.ticks": (per_op("scenario.ticks"), "count"),
        "scenario.events": (per_op("scenario.events"), "count"),
        "scenario.analyze_ms": (ms("scenario.analyze"), "ms"),
        "composition.check_ms": (ms("composition.check"), "ms"),
        "composition.verdicts": (per_op("composition.verdicts"), "count"),
        "composition.consistent": (per_op("composition.consistent"), "count"),
        "canonical.replay_ms": (ms("canonical.replay"), "ms"),
        "canonical.transitions": (per_op("canonical.transitions"), "count"),
        "canonical.intensity_ms": (ms("canonical.intensity"), "ms"),
        "statespace.sample_check_ms": (ms("statespace.sample_check"), "ms"),
        "statespace.samples": (per_op("statespace.samples"), "count"),
        "predicates.holds_calls": (per_op("predicates.holds_calls"), "count"),
        "dynamics.profile_ms": (ms("dynamics.profile"), "ms"),
        "dynamics.observations": (per_op("dynamics.observations"), "count"),
        "reports.emit_ms": (ms("reports.emit"), "ms"),
        "reports.emit_mb": (mb("reports.emit_bytes"), "MB"),
        "reports.digest_ms": (ms("reports.digest"), "ms"),
        "reports.digest_mb": (mb("reports.digest_bytes"), "MB"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
