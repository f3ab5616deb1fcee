"""Command-line interface: one subcommand per workflow, reports on stdout.

Exit codes: 0 success, 1 model or validation failure, 2 usage error.
All results go through emit_report; machine-json output is byte-stable
for identical inputs, so repeated runs diff clean. Each command imports
the domain modules it runs, so that a process loads only those.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import sys
from typing import TYPE_CHECKING, Mapping, Sequence, Union

from . import modelfile
from .errors import StatedevError
from .reports import Encoded, Report, emit_report, make_provenance

if TYPE_CHECKING:  # the modules the annotations name
    from . import canonical, dynamics, scenario


def _at_least(low, convert):
    """An argument type: the text converted, rejected below low."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {text!r}")
        return value
    return parse


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="statedev",
        description="State-development modeling: scales, diagrams, scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument(
            "--format", choices=("json", "text"), default="json",
            help="report serialization (default: json)",
        )
        return p

    p = add("validate", "check a model file end to end")
    p.add_argument("model")
    p.add_argument("--samples", type=_at_least(1, int), default=1000,
                   help="samples per scale or refinement that cells do not decide "
                   "(a chain of two parameters, or over 4096 cells)")  # statespace.CELL_CAP
    p.add_argument("--seed", type=int, default=0, help="seed for the sampled checks")

    p = add("classify", "classify one object through a classificator")
    p.add_argument("model")
    p.add_argument("--object", required=True, help="comma-separated name=value pairs")
    p.add_argument("--classificator", help="classificator id (default: the only one)")

    p = add("profile", "dynamics profile of a series file over an interval")
    p.add_argument("model")
    p.add_argument("--series", required=True, help="CSV with a tick column and one column per parameter")
    p.add_argument("--interval", required=True, help="a:b tick window")
    p.add_argument("--epsilon", type=_at_least(0, modelfile.number), default=0.0)

    p = add("replay", "replay a transition script against a canonical diagram")
    p.add_argument("model")
    p.add_argument("--diagram", required=True)
    p.add_argument("--events", required=True, help="CSV with tick,object,from,to,arc_kind")
    p.add_argument("--window", help="a:b tick window (default: the full horizon)")

    p = add("consist", "run a composition or consistency request")
    p.add_argument("model")
    p.add_argument("--request", required=True)

    p = add("simulate", "run a scenario and report its trajectory")
    p.add_argument("model")
    p.add_argument("--scenario", required=True)
    p.add_argument("--horizon", type=int, help="override the scenario's horizon")
    p.add_argument("--scores", help="score table id for the efficiency series")
    p.add_argument("--out", help="write a self-contained trajectory file")
    p.add_argument("--events-out", help="write the event log as CSV")

    p = add("analyze", "re-analyze a stored trajectory file")
    p.add_argument("trajectory")

    p = add("compare", "rank two or more trajectory reports")
    p.add_argument("reports", nargs="+")

    return parser


class _Usage(Exception):
    pass


def _parse_interval(text: str) -> tuple[int, int]:
    a, sep, b = text.partition(":")
    if not sep:
        raise _Usage(f"interval must look like a:b, got {text!r}")
    try:
        return int(a), int(b)
    except ValueError:
        raise _Usage(f"interval bounds must be integers, got {text!r}") from None


def _parse_object(text: str, parameters) -> dict:
    assignment: dict[str, object] = {}
    for part in text.split(","):
        name, sep, value = part.partition("=")
        name = name.strip()
        if not sep or not name:
            raise _Usage(f"object entries must look like name=value, got {part!r}")
        if name in assignment:
            raise _Usage(f"object parameter {name!r} appears more than once")
        value = value.strip()
        decl = parameters.get(name)
        if decl is not None and decl.kind == "ordinal":
            assignment[name] = value
            continue
        try:
            number = float(value)
        except ValueError:
            assignment[name] = value  # not a number: compared as text
            continue
        if not math.isfinite(number):
            raise StatedevError(f"object value of {name!r}: {value!r} is not a finite number")
        assignment[name] = number
    return assignment


def _arc_key(arc: canonical.Arc) -> str:
    return f"{arc.src}->{arc.dst} {arc.kind.value} d{arc.delta}"


def _first_five(head: str, findings, noun: str, line) -> list[str]:
    """Report lines for a check's first five findings, then one that counts the rest."""
    lines = [f"{head}: {line(*finding)}" for finding in findings[:5]]
    if len(findings) > 5:
        lines.append(f"{head}: {len(findings) - 5} further {noun}")
    return lines


def _cmd_validate(args) -> tuple[dict, int]:
    model = modelfile.parse_model(args.model)
    violations: list[str] = []
    warnings: list[str] = []
    # Each check imports its module only for a model that has its section;
    # a classificator refines scales, so a model without scales has none.
    if model.scales:
        from . import statespace
        spec = statespace.SampleSpec(samples=args.samples, seed=args.seed)
        # A refinement's child needs to cover only its parent's region, which
        # the classificator check does.
        children = {child.id for cl in model.classificators.values() for child in cl.refinements.values()}
        for sid, scale in sorted(model.scales.items()):
            try:
                report = statespace.validate_scale_disjointness(scale, spec, model.parameters)
            except statespace.MissingParameterRangeError as exc:
                warnings.append(f"scale {sid!r}: disjointness not sampled ({exc})")
                continue
            violations += _first_five(f"scale {sid!r}", report.overlaps, "overlaps",
                                      lambda at, positions: f"predicates {list(positions)} overlap at {at}")
            if sid not in children:
                warnings += _first_five(f"scale {sid!r}", [(at,) for at in report.gaps], "gaps",
                                        lambda at: f"no predicate holds at {at}")
        for cid, cl in sorted(model.classificators.items()):
            report = statespace.validate_classificator(cl, spec, model.parameters)
            warnings += (f"classificator {cid!r}: refinement not sampled ({exc})" for exc in report.unsampled)
            violations += _first_five(
                f"classificator {cid!r}", report.violations, "escapes",
                lambda sid, pos, j, at: f"child predicate {j} of ({sid!r}, {pos}) escapes its parent at {at}")
            warnings += _first_five(
                f"classificator {cid!r}", report.gaps, "gaps",
                lambda sid, pos, at: f"no child predicate of ({sid!r}, {pos}) holds at {at}")
    if model.canonical:
        from . import canonical
    for did, entry in sorted(model.canonical.items()):
        d = entry.diagram
        report = canonical.validate_canonical(d)
        for arc in report.order_violations:
            violations.append(f"diagram {did!r}: arc {_arc_key(arc)} breaks the order discipline")
        for arc in report.delta_violations:
            violations.append(f"diagram {did!r}: arc {_arc_key(arc)} has delta outside the horizon")
        for state in report.unreachable:
            violations.append(f"diagram {did!r}: state {state!r} unreachable on development arcs")
        if not report.final_reachable:
            violations.append(f"diagram {did!r}: final state unreachable on development arcs")
        if d.scale_id is not None:
            # The diagram's states are states of its scale, in scale order.
            place = {state.id: state.scale_position for state in model.scales[d.scale_id].states}
            top = None  # the state with the highest scale position so far
            for state in d.states:
                if state not in place:
                    violations.append(f"diagram {did!r}: state {state!r} is not a state of scale {d.scale_id!r}")
                elif top is not None and place[state] < place[top]:
                    violations.append(
                        f"diagram {did!r}: state {state!r} follows {top!r}, which comes later in scale {d.scale_id!r}")
                else:
                    top = state
    if model.scenarios:
        from . import scenario
    for sid, sc in sorted(model.scenarios.items()):
        report = scenario.validate_scenario(sc)
        violations.extend(f"scenario {sid!r}: {v}" for v in report.violations)
        warnings.extend(f"scenario {sid!r}: {w}" for w in report.warnings)
    passed = not violations
    body = {
        "target": args.model,
        "passed": passed,
        "violations": violations,
        "warnings": warnings,
    }
    return body, 0 if passed else 1


def _cmd_classify(args) -> tuple[dict, int]:
    from . import statespace
    model = modelfile.parse_model(args.model)
    cid = args.classificator
    if cid is None:
        if len(model.classificators) != 1:
            raise StatedevError(
                "model declares "
                f"{len(model.classificators)} classificators; pick one with --classificator"
            )
        cid = next(iter(model.classificators))
    if cid not in model.classificators:
        raise StatedevError(f"classificator {cid!r} is not declared")
    assignment = _parse_object(args.object, model.parameters)
    outcome = "classified"
    path: list[dict] = []
    try:
        states = statespace.classify_hierarchical(
            model.classificators[cid], assignment, model.parameters
        )
        path = [{"state": s.id, "position": s.scale_position, "label": s.label} for s in states]
    except statespace.NoMatchError as exc:
        outcome = f"no-match in scale {exc.scale_id!r}"
    except statespace.MultipleMatchError as exc:
        outcome = f"multiple-match in scale {exc.scale_id!r} at positions {list(exc.positions)}"
    except statespace.MissingParameterError as exc:
        outcome = f"missing parameters: {', '.join(exc.names)}"
    body = {
        "classificator": cid,
        "object": {k: assignment[k] for k in sorted(assignment)},
        "outcome": outcome,
        "path": path,
    }
    return body, 0 if outcome == "classified" else 1


def _nonblank_rows(path: str) -> list[list[str]]:
    import csv
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return [row for row in csv.reader(fh) if any(map(str.strip, row))]


def _read_series_csv(path: str, model: modelfile.ModelFile) -> list[dynamics.ParameterSeries]:
    """One series per parameter column, read column by column. Line numbers
    count non-blank rows; a blank or missing cell is no observation."""
    from . import dynamics
    rows = _nonblank_rows(path)
    if not rows:
        raise StatedevError(f"series file {path!r} is empty")
    header = [cell.strip() for cell in rows[0]]
    if not header or header[0] != "tick":
        raise StatedevError("series CSV must start with a 'tick' column")
    names = header[1:]
    if not names:
        raise StatedevError("series CSV has no parameter columns")
    if len(set(names)) < len(names):
        repeated = next(name for i, name in enumerate(names) if name in names[:i])
        raise StatedevError(f"series column {repeated!r} appears more than once")
    body = rows[1:]
    tick_cells = [row[0] for row in body]
    try:
        ticks = list(map(int, tick_cells))
    except ValueError:
        for line_no, cell in enumerate(tick_cells, start=2):
            try:
                int(cell)
            except ValueError:
                raise StatedevError(f"{path}:{line_no}: bad tick {cell!r}") from None
        raise
    width = len(header)
    if min(map(len, body), default=width) < width:
        body = [row + [""] * (width - len(row)) for row in body]
    columns = list(zip(*body)) or [()] * width
    out = []
    for name, column in zip(names, columns[1:]):
        name_ticks, values = ticks, list(map(str.strip, column))
        if not all(values):
            kept = [(t, cell) for t, cell in zip(ticks, values) if cell]
            name_ticks, values = [t for t, _ in kept], [cell for _, cell in kept]
        if not name_ticks:
            raise StatedevError(f"series column {name!r} holds no observations")
        decl = model.parameters.get(name)
        try:
            if decl is not None and decl.kind == "ordinal":
                series = dynamics.ParameterSeries.from_ordinal(name, name_ticks, values, decl.levels)
            else:
                series = dynamics.ParameterSeries(name, name_ticks, modelfile.numbers(values))
        except ValueError as exc:
            raise StatedevError(f"series column {name!r}: {exc}") from None
        out.append(series)
    return out


def _profile_rows(profile: dynamics.ParallelProfile) -> Encoded:
    """The profile's rows as canonical JSON: one {"cells", "tick"} object
    per grid tick, its cells in sorted name order. Every row fills one
    template, whose columns each run fills at once."""
    from . import dynamics
    names = sorted(profile.parameters)
    # json.dumps escapes a name as canonical_json does; a % in it is doubled
    # so that the template reads it as text.
    cells = ",".join(json.dumps(name).replace("%", "%%") + ':{"kind":"%s","streak":%d}' for name in names)
    template = '{"cells":{' + cells + '},"tick":%d}'
    columns = []
    for name in names:
        kinds, streaks = [], []
        for kind, first, n in profile.rows[name]:
            kinds += [kind.value] * n
            streaks += [0] * n if kind is dynamics.DynamicsKind.UNKNOWN else range(first, first + n)
        columns += kinds, streaks
    ticks = range(profile.start, profile.end + 1)
    return Encoded("[%s]" % ",".join(map(template.__mod__, zip(*columns, ticks))))


def _cmd_profile(args) -> tuple[dict, int]:
    from . import dynamics
    model = modelfile.parse_model(args.model)
    interval = _parse_interval(args.interval)
    if interval[0] > interval[1]:
        raise StatedevError(f"interval {args.interval!r}: start exceeds its end")
    series_set = _read_series_csv(args.series, model)
    profile = dynamics.parallel_profile(series_set, interval, args.epsilon)
    trends: dict[str, Union[dict, None]] = {}
    for s in series_set:
        try:
            trend = dynamics.classify_series(s, args.epsilon, profile.signs[s.parameter])
            trends[s.parameter] = {
                "monotone": trend.monotone,
                "critical_points": list(trend.critical_points),
                "inflexions": list(trend.inflexions),
                "bounds": list(trend.bounds),
                "cyclic_period": trend.cyclic_period,
                "forecast": trend.forecast.value,
                "current_symbol": dynamics.current_symbol(trend).value,
            }
        except dynamics.SeriesTooShortError:
            trends[s.parameter] = None
    body = {
        "parameters": list(profile.parameters),
        "start": profile.start,
        "end": profile.end,
        "rows": _profile_rows(profile),
        "trends": trends,
    }
    return body, 0


def _read_event_csv(path: str, d: canonical.CanonicalDiagram) -> list[tuple[str, canonical.Arc, int]]:
    from . import canonical
    rows = _nonblank_rows(path)
    if not rows or [c.strip() for c in rows[0]] != ["tick", "object", "from", "to", "arc_kind"]:
        raise StatedevError("event CSV must have the header tick,object,from,to,arc_kind")
    # (src, dst, kind text) -> the distinct arcs with that key; equal
    # copies of an arc are one arc.
    arcs: dict[tuple[str, str, str], list[canonical.Arc]] = {}
    for arc in d.arc_position:
        arcs.setdefault((arc.src, arc.dst, arc.kind.value), []).append(arc)
    script = []
    for line_no, row in enumerate(rows[1:], start=2):
        if len(row) != 5:
            raise StatedevError(f"{path}:{line_no}: expected 5 columns")
        tick_text, obj, src, dst, kind_text = map(str.strip, row)
        try:
            tick = int(tick_text)
        except ValueError:
            raise StatedevError(f"{path}:{line_no}: bad tick {tick_text!r}") from None
        matches = arcs.get((src, dst, kind_text))
        if matches is None:
            raise canonical.UnknownArcError(
                f"{path}:{line_no}: no {kind_text} arc {src}->{dst} in diagram {d.id!r}"
            )
        if len(matches) > 1:
            raise StatedevError(
                f"{path}:{line_no}: {kind_text} arc {src}->{dst} is ambiguous "
                "(several deltas); split the diagram arcs"
            )
        script.append((obj, matches[0], tick))
    return script


def _cmd_replay(args) -> tuple[dict, int]:
    from . import canonical
    model = modelfile.parse_model(args.model)
    if args.diagram not in model.canonical:
        raise StatedevError(f"diagram {args.diagram!r} is not declared")
    entry = model.canonical[args.diagram]
    if not entry.initial_distribution:
        raise StatedevError(f"diagram {args.diagram!r} declares no initial_distribution")
    d = entry.diagram
    window = _parse_interval(args.window) if args.window else (0, d.horizon)
    script = _read_event_csv(args.events, d)
    initial = {obj: (state, 0) for obj, state in entry.initial_distribution.items()}
    _, history = canonical.replay_script(d, initial, script)
    report_data = canonical.intensity_report(
        history, d, window, initial, target=entry.target_distribution
    )
    body = {
        "diagram": d.id,
        "window": list(report_data.window),
        "occupancy": {state: list(series) for state, series in sorted(report_data.occupancy.items())},
        "arc_cumulative": {
            _arc_key(arc): list(series)
            for arc, series in sorted(report_data.arc_cumulative.items(), key=lambda kv: kv[0].sort_index)
        },
        "development": report_data.development,
        "degradation": report_data.degradation,
        "ratio": report_data.ratio,
        "reached": dict(sorted(report_data.reached.items())),
        "target_delta": dict(sorted(report_data.target_delta.items()))
        if report_data.target_delta is not None
        else None,
    }
    return body, 0


def _diagram_summary(d: canonical.CanonicalDiagram) -> dict:
    return {
        "diagram": d.id,
        "states": list(d.states),
        "initial": d.initial,
        "final": d.final,
        "horizon": d.horizon,
        "dev_arcs": [_arc_key(a) for a in d.dev_arcs],
        "back_arcs": [_arc_key(a) for a in d.back_arcs],
    }


def _cmd_consist(args) -> tuple[dict, int]:
    from . import composition
    model = modelfile.parse_model(args.model)
    if args.request not in model.composition_requests:
        raise StatedevError(f"request {args.request!r} is not declared")
    req = model.composition_requests[args.request]
    dset = req.diagram_set
    outcome = "composed"
    detail: dict
    code = 0
    if req.kind == "consistency":
        verdict = composition.check_consistency(dset, req.sequence)
        outcome = "consistent" if verdict.consistent else "inconsistent"
        detail = {
            "witness": [
                {"tick": f.tick, "diagram": f.diagram, "arc": _arc_key(f.arc)}
                for f in verdict.witness
            ]
            if verdict.witness is not None
            else None,
            "satisfied_at": list(verdict.satisfied_at) if verdict.satisfied_at is not None else None,
            "failed_prefix": verdict.failed_prefix,
        }
    else:
        try:
            if req.kind == "sequential":
                detail = _diagram_summary(composition.compose_sequential(dset))
            elif req.kind == "parallel":
                detail = _diagram_summary(composition.compose_parallel(dset).diagram)
            else:
                detail = _diagram_summary(composition.generalize(dset, req.selection, req.order_pairs))
        except StatedevError as exc:
            outcome = "rejected"
            detail = {"error": type(exc).__name__, "message": str(exc)}
            code = 1
    return {"request": req.id, "outcome": outcome, "detail": detail}, code


def _scenario_report_body(rep: scenario.ScenarioReport) -> dict:
    return {
        "scenario": rep.scenario_id,
        "horizon": rep.horizon,
        "subsystems": list(rep.subsystems),
        "complete": rep.complete,
        "non_final": list(rep.non_final),
        "redundancy_incidents": [
            {"subsystem": sub, "ticks": list(ticks)} for sub, ticks in rep.redundancy_incidents
        ],
        "omitted_possibilities": {
            "per_subsystem": dict(sorted(rep.backstep_counts.items())),
            "total": rep.backstep_total,
            "frequency": rep.backstep_frequency,
        },
        "complexness": {
            "per_subsystem": dict(sorted(rep.coupled_counts.items())),
            "total": rep.coupled_total,
            "frequency": rep.coupled_frequency,
        },
        "propagation": {"per_subsystem": dict(sorted(rep.propagation_counts.items()))},
        "efficiency": {
            "per_subsystem": {
                sub: list(series) for sub, series in sorted(rep.efficiency.per_subsystem.items())
            },
            "aggregate": list(rep.efficiency.aggregate),
        }
        if rep.efficiency is not None
        else None,
    }


# The event CSV's columns after seq and tick, per event kind.
_EVENT_ROWS = {
    "delivery": lambda e: ("delivery", e.subsystem, e.symbol, "", "", e.symbol_kind,
                           "true" if e.effective else "false"),
    "firing": lambda e: ("firing", e.subsystem, e.symbol, e.src, e.dst, e.cause, "true"),
    "backstep": lambda e: ("backstep", e.subsystem, "", e.src, e.dst, "timeout", "true"),
    "skipped": lambda e: ("skipped", e.subsystem, e.symbol, e.src, e.dst, "downward-propagation", "false"),
}


def _write_events_csv(path: str, tr: scenario.Trajectory) -> None:
    """One line per event: its seq and tick, then the rest of its row, which
    csv.writer writes once per file for each distinct run of the event's
    fields after the tick."""
    import csv
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    tails: dict[tuple, str] = {}

    def tail(event: scenario.Event) -> str:
        buffer.seek(0)
        buffer.truncate()
        writer.writerow(_EVENT_ROWS[event.kind](event))
        text = tails[event[1:]] = buffer.getvalue()
        return text

    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(
            ("seq", "tick", "kind", "subsystem", "symbol", "src", "dst", "cause", "effective"))
        fh.writelines("%d,%d,%s" % (seq, e.tick, tails.get(e[1:]) or tail(e)) for seq, e in enumerate(tr.events))


def _cmd_simulate(args) -> tuple[dict, int]:
    from . import scenario
    model = modelfile.parse_model(args.model)
    if args.scenario not in model.scenarios:
        raise StatedevError(f"scenario {args.scenario!r} is not declared")
    sc = model.scenarios[args.scenario]
    scores = None
    if args.scores is not None:
        if args.scores not in model.score_tables:
            raise StatedevError(f"score table {args.scores!r} is not declared")
        scores = model.score_tables[args.scores]
    tr = scenario.run_scenario(sc, args.horizon)
    rep = scenario.analyze_trajectory(tr, sc, scores)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(modelfile.serialize_trajectory(tr, sc, scores))
    if args.events_out:
        _write_events_csv(args.events_out, tr)
    return _scenario_report_body(rep), 0


def _cmd_analyze(args) -> tuple[dict, int]:
    from . import scenario
    sc, tr, scores = modelfile.load_trajectory_file(args.trajectory)
    try:
        rep = scenario.analyze_trajectory(tr, sc, scores or None)
    except scenario.EventLogError as exc:
        # The log is read from the file, so a log that does not replay is an issue of the file.
        raise modelfile.ModelFileError([modelfile.Issue("invalid-value", "trajectory.events", str(exc))]) from None
    return _scenario_report_body(rep), 0


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {type(value).__name__}")
    return value


def _report_from_body(body: Mapping) -> scenario.ScenarioReport:
    """A trajectory report body read back; a missing key or a value of the
    wrong type raises KeyError, TypeError, ValueError or OverflowError."""
    from . import scenario
    efficiency = None
    if body.get("efficiency") is not None:
        eff = body["efficiency"]
        per = {sub: modelfile.numbers(series) for sub, series in eff["per_subsystem"].items()}
        efficiency = scenario.EfficiencySeries(
            per_subsystem=per,
            aggregate=modelfile.numbers(eff["aggregate"]),
        )
    return scenario.ScenarioReport(
        scenario_id=_text(body["scenario"]),
        horizon=int(body["horizon"]),
        subsystems=tuple(map(_text, body["subsystems"])),
        complete=bool(body["complete"]),
        non_final=tuple(body["non_final"]),
        redundancy_incidents=tuple(
            (item["subsystem"], tuple(item["ticks"])) for item in body["redundancy_incidents"]
        ),
        backstep_counts=dict(body["omitted_possibilities"]["per_subsystem"]),
        backstep_total=int(body["omitted_possibilities"]["total"]),
        backstep_frequency=modelfile.number(body["omitted_possibilities"]["frequency"]),
        coupled_counts=dict(body["complexness"]["per_subsystem"]),
        coupled_total=int(body["complexness"]["total"]),
        coupled_frequency=modelfile.number(body["complexness"]["frequency"]),
        propagation_counts=dict(body["propagation"]["per_subsystem"]),
        efficiency=efficiency,
    )


def _cmd_compare(args) -> tuple[dict, int]:
    from . import scenario
    if len(args.reports) < 2:
        raise _Usage("compare needs at least two report files")
    loaded = []
    for path in args.reports:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except (ValueError, RecursionError) as exc:
                raise StatedevError(f"{path!r} is not JSON: {exc}") from exc
        if not isinstance(data, dict) or data.get("kind") != "trajectory":
            raise StatedevError(f"{path!r} is not a trajectory report")
        try:
            loaded.append(_report_from_body(data["body"]))
        except KeyError as exc:
            raise StatedevError(f"{path!r} is not a trajectory report: no key {exc}") from exc
        except (AttributeError, TypeError, ValueError, OverflowError) as exc:
            raise StatedevError(f"{path!r} is not a trajectory report: {exc}") from exc
    body = {
        "compared": [r.scenario_id for r in loaded],
        "ranking": [list(group) for group in scenario.compare_scenarios(loaded)],
    }
    return body, 0


# Subcommand -> (its function, the kind of its report, the files it reads).
# A function returns its report body and exit code; an error report is a
# validation report that names those files.
_COMMANDS = {
    "validate": (_cmd_validate, "validation", lambda args: [args.model]),
    "classify": (_cmd_classify, "classification", lambda args: [args.model]),
    "profile": (_cmd_profile, "profile", lambda args: [args.model, args.series]),
    "replay": (_cmd_replay, "intensity", lambda args: [args.model, args.events]),
    "consist": (_cmd_consist, "consistency", lambda args: [args.model]),
    "simulate": (_cmd_simulate, "trajectory", lambda args: [args.model]),
    "analyze": (_cmd_analyze, "trajectory", lambda args: [args.trajectory]),
    "compare": (_cmd_compare, "comparison", lambda args: args.reports),
}


def main(argv: Union[Sequence[str], None] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    command, kind, inputs_of = _COMMANDS[args.command]
    inputs = inputs_of(args)
    try:
        body, code = command(args)
    except _Usage as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except StatedevError as exc:
        issues = exc.issues if isinstance(exc, modelfile.ModelFileError) else [exc]
        kind, code = "validation", 1
        body = {"target": ", ".join(inputs), "passed": False,
                "violations": [str(i) for i in issues], "warnings": []}
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    provenance = make_provenance(inputs=inputs, seed=getattr(args, "seed", None), argv=argv)
    fmt = "machine-json" if args.format == "json" else "human-text"
    sys.stdout.write(emit_report(Report(kind=kind, body=body, provenance=provenance), fmt))
    return code


if __name__ == "__main__":
    sys.exit(main())
