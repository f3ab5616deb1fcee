"""Output checks, made apart from the program.

Each check takes an operation of the plan (its calls and the facts the
generator recorded about the input) and the stdout of each call, and returns
a list of problems; an empty list means the output is correct. Nothing here
imports statedev: every expected value is recomputed from the generated
input or the exported event logs.
"""

from __future__ import annotations

import csv
import json

from gen import prescribed_bound


def _body(stdout: str) -> dict:
    return json.loads(stdout)["body"]


def _read_csv(path: str) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# scenario

def check_scenario(op: dict, stdouts: list[str]) -> list[str]:
    """Fold the exported event CSV over the initial configuration and
    recount every report figure from it."""
    facts = op["facts"]
    subs = facts["preorder"]
    horizon = facts["horizon"]
    coupled = {tuple(arc) for arc in facts["coupled"]}
    scores = facts["scores"]
    sim, ana = _body(stdouts[0]), _body(stdouts[1])
    problems = []
    if ana != sim:
        problems.append("analyze on the written trajectory differs from simulate")

    states = {sub: facts["initial"] for sub in subs}
    backsteps = dict.fromkeys(subs, 0)
    coupled_counts = dict.fromkeys(subs, 0)
    propagated = dict.fromkeys(subs, 0)
    delivered: dict[str, dict[str, set]] = {sub: {"individual": set(), "general": set()} for sub in subs}
    aggregate = []
    rows = _read_csv(op["files"][1])
    i = 0
    for t in range(horizon):
        while i < len(rows) and int(rows[i]["tick"]) == t:
            row = rows[i]
            i += 1
            sub, kind = row["subsystem"], row["kind"]
            if kind in ("firing", "backstep"):
                if states[sub] != row["src"]:
                    problems.append(f"seq {row['seq']}: {sub} is in {states[sub]}, not {row['src']}")
                states[sub] = row["dst"]
            if kind == "backstep":
                backsteps[sub] += 1
            elif kind == "firing":
                if (sub, row["src"], row["dst"], row["symbol"]) in coupled:
                    coupled_counts[sub] += 1
                if row["cause"] != "direct":
                    propagated[sub] += 1
            elif kind == "delivery":
                delivered[sub][row["cause"]].add(t)
        aggregate.append(float(sum(scores[sub][states[sub]] for sub in subs)))
    if i != len(rows):
        problems.append(f"event CSV has {len(rows) - i} rows out of tick order or past the horizon")

    non_final = [sub for sub in subs if states[sub] != facts["final"]]
    incidents = [
        {"subsystem": sub, "ticks": sorted(kinds["individual"] | kinds["general"])}
        for sub, kinds in delivered.items()
        if kinds["individual"] and kinds["general"]
    ]
    expected = {
        "horizon": horizon,
        "subsystems": subs,
        "non_final": non_final,
        "complete": not non_final,
        "redundancy_incidents": incidents,
        "omitted_possibilities": {"per_subsystem": backsteps, "total": sum(backsteps.values()),
                                  "frequency": sum(backsteps.values()) / horizon},
        "complexness": {"per_subsystem": coupled_counts, "total": sum(coupled_counts.values()),
                        "frequency": sum(coupled_counts.values()) / horizon},
        "propagation": {"per_subsystem": propagated},
    }
    for key, value in expected.items():
        if sim.get(key) != value:
            problems.append(f"report field {key!r} disagrees with the event log")
    if (sim.get("efficiency") or {}).get("aggregate") != aggregate:
        problems.append("efficiency aggregate disagrees with the folded states and scores")
    return problems


# ---------------------------------------------------------------------------
# consistency

def _arc_from_key(key: str) -> tuple[str, str, str, int]:
    """'src->dst kind dN' as written in the report."""
    path, kind, delta = key.split(" ")
    src, dst = path.split("->")
    return src, dst, kind, int(delta[1:])


def replay_witness(facts: dict, witness: list[dict]) -> tuple[list[str], list[int]]:
    """Replay a witness against the generated diagrams; return the problems
    and the ticks at which the prescribed entries were met."""
    diagrams = facts["diagrams"]
    entries = facts["sequence"]
    arcs = [
        {(a["from"], a["to"], kind, a["delta"]) for kind in ("dev", "back") for a in d[f"{kind}_arcs"]}
        for d in diagrams
    ]
    where = [[d["initial"], 0] for d in diagrams]
    problems, met = [], []

    def claim(tick: int) -> None:
        while (len(met) < len(entries) and entries[len(met)][2] >= tick
               and where[entries[len(met)][0]][0] == entries[len(met)][1]):
            met.append(tick)

    claim(0)
    last = 0
    for n, firing in enumerate(witness):
        tick, di = firing["tick"], firing["diagram"]
        src, dst, kind, delta = arc = _arc_from_key(firing["arc"])
        if arc not in arcs[di]:
            problems.append(f"firing {n}: arc {firing['arc']} is not in diagram {di}")
        if where[di][0] != src:
            problems.append(f"firing {n}: diagram {di} is in {where[di][0]}, not {src}")
        if tick < where[di][1] + delta:
            problems.append(f"firing {n}: fires at {tick} before its residence delay ends")
        if tick < last or not 0 <= tick <= facts["interval"]:
            problems.append(f"firing {n}: tick {tick} is out of order or outside the interval")
        last = tick
        where[di] = [dst, tick]
        claim(tick)
    if len(met) < len(entries):
        problems.append(f"witness meets only {len(met)} of {len(entries)} entries by their deadlines")
    return problems, met


def check_consistency(op: dict, stdouts: list[str]) -> list[str]:
    facts = op["facts"]
    body = _body(stdouts[0])
    detail = body.get("detail") or {}
    if facts["feasible"]:
        if body.get("outcome") != "consistent":
            return [f"a sequence read off a legal execution came back {body.get('outcome')!r}"]
        problems, met = replay_witness(facts, detail.get("witness") or [])
        if not problems and detail.get("satisfied_at") != met:
            problems.append("satisfied_at differs from the replayed witness")
        return problems
    last_di, _, deadline = facts["sequence"][-1]
    d = facts["diagrams"][last_di]
    bound = prescribed_bound(d, [s for di, s, _ in facts["sequence"] if di == last_di])
    if bound <= deadline:
        return ["the generated late sequence is not late: its bound does not exceed the deadline"]
    if body.get("outcome") != "inconsistent" or detail.get("witness") is not None:
        return [f"a sequence {bound - deadline} tick(s) too late came back {body.get('outcome')!r}"]
    return []


# ---------------------------------------------------------------------------
# population

def _arc_key(src: str, dst: str, kind: str, delta: int) -> str:
    return f"{src}->{dst} {kind} d{delta}"


def check_population(op: dict, stdouts: list[str]) -> list[str]:
    facts = op["facts"]
    validation, profile, intensity = (_body(s) for s in stdouts)
    problems = []
    if not validation.get("passed") or validation.get("violations"):
        problems.append("validate rejects scales that partition by construction")

    trends = profile.get("trends", {})
    for shape in facts["shapes"]:
        got = trends.get(shape["name"]) or {}
        if got.get("monotone") != shape["monotone"] or got.get("cyclic_period") != shape["period"]:
            problems.append(
                f"series {shape['name']}: trend {got.get('monotone')!r} period "
                f"{got.get('cyclic_period')!r}, built as {shape['monotone']!r} period {shape['period']!r}"
            )
    if len(profile.get("rows", [])) != facts["length"]:
        problems.append("profile rows do not cover the interval")

    d = facts["diagram"]
    delta = {(a["from"], a["to"], kind): a["delta"] for kind in ("dev", "back") for a in d[f"{kind}_arcs"]}
    counts = dict.fromkeys(d["states"], 0)
    for state in facts["placement"].values():
        counts[state] += 1
    total = len(facts["placement"])
    occupancy = {s: [] for s in d["states"]}
    arc_counts = {_arc_key(a, b, k, t): 0 for (a, b, k), t in delta.items()}
    dev = back = 0
    rows = _read_csv(facts["events"])
    i = 0
    for t in range(d["horizon"] + 1):
        while i < len(rows) and int(rows[i]["tick"]) == t:
            row = rows[i]
            i += 1
            counts[row["from"]] -= 1
            counts[row["to"]] += 1
            arc_counts[_arc_key(row["from"], row["to"], row["arc_kind"],
                                delta[(row["from"], row["to"], row["arc_kind"])])] += 1
            if row["arc_kind"] == "dev":
                dev += 1
            else:
                back += 1
        for s in d["states"]:
            occupancy[s].append(counts[s])
    got_occ = intensity.get("occupancy", {})
    for t in range(d["horizon"] + 1):
        if sum(series[t] for series in got_occ.values()) != total:
            problems.append(f"occupancy at tick {t} does not sum to {total} objects")
            break
    if got_occ != occupancy:
        problems.append("occupancy disagrees with the fold of the event CSV")
    final_arcs = {key: series[-1] for key, series in intensity.get("arc_cumulative", {}).items()}
    if final_arcs != arc_counts:
        problems.append("final arc_cumulative disagrees with the event CSV")
    if intensity.get("development") != dev or intensity.get("degradation") != back:
        problems.append("development/degradation disagree with the event CSV")
    if intensity.get("reached") != counts:
        problems.append("reached disagrees with the fold of the event CSV")
    return problems


CHECKS = {
    "scenario": check_scenario,
    "consistency": check_consistency,
    "population": check_population,
}
