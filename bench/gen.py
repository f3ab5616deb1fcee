"""Seeded input generator for the three benchmark workloads.

Every workload has three sizes (S, M, L). ``generate(workload, seed, root)``
writes every model, event and series file under ``root`` before any timing
starts and returns a plan: the ordered list of operations of one round, and
for each operation the facts the output checks need (the construction of the
input, never a stored program output). The same workload and seed give the
same bytes.
"""

from __future__ import annotations

import csv
import heapq
import json
import os
import random

# Sizes. A round runs every generated operation once; the three sizes are
# about 2x apart in cost and equal in number, so that the median of a run
# falls among the M operations and the 90th percentile among the L ones.
SCENARIO_SIZES = {
    # name: (children per level, horizon, backstep timeout)
    "S": ((9,), 300, 6),
    "M": ((3, 3), 450, 6),
    "L": ((4, 3), 700, 8),
}
SCENARIO_INSTANCES = 4
SCENARIO_STATES = 5

CONSISTENCY_SIZES = {
    # name: (dev delays of each chain, interval); the search runs to three
    # times the delay sum.
    "S": ((1, 1, 1, 1), 30),
    "M": ((1, 1, 2, 1), 30),
    "L": ((1, 1, 2, 1, 1), 30),
}
CONSISTENCY_REQUESTS = 6  # pairs of one consistent and one inconsistent request

POPULATION_SIZES = {
    # name: (validate samples, series length, objects, moves per object)
    "S": (200, 600, 100, 6),
    "M": (400, 1200, 140, 8),
    "L": (800, 2400, 200, 10),
}
POPULATION_INSTANCES = 4

WORKLOADS = ("scenario", "consistency", "population")


def _rng(seed: int, *parts) -> random.Random:
    return random.Random("-".join(str(p) for p in (seed,) + parts))


def _write_json(path: str, data) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(data, indent=1) + "\n")


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# scenario: rooted hierarchies of chain diagrams driven by a time diagram.

def scenario_model(rng: random.Random, fanout, horizon: int, timeout: int) -> tuple[dict, dict]:
    """One scenario model plus the facts the checks need."""
    levels = [["s0"]]
    children: dict[str, list[str]] = {}
    for width in fanout:
        nxt = []
        for parent in levels[-1]:
            kids = [f"{parent}_{i}" for i in range(width)]
            children[parent] = kids
            nxt.extend(kids)
        levels.append(nxt)
    level_of = {sub: lv for lv, subs in enumerate(levels) for sub in subs}
    preorder: list[str] = []
    stack = ["s0"]
    while stack:
        sub = stack.pop()
        preorder.append(sub)
        stack.extend(reversed(children.get(sub, [])))

    n = SCENARIO_STATES
    states = [f"q{i}" for i in range(n)]
    # Even arcs carry a general symbol shared by every diagram of one level,
    # odd arcs an individual symbol of their own subsystem.
    def symbol(sub: str, i: int) -> str:
        return f"u_{sub}_{i}" if i % 2 else f"g{level_of[sub]}_{i}"

    diagrams = {}
    arcs_of: dict[str, list[tuple[str, str, str]]] = {}
    for sub in preorder:
        arcs = [(states[i], states[i + 1], symbol(sub, i)) for i in range(n - 1)]
        backs = [(states[i], states[i - 1]) for i in range(1, n)]
        backs += [(states[i], states[0]) for i in range(2, n) if rng.random() < 0.3]
        arcs_of[sub] = arcs
        diagrams[f"D_{sub}"] = {
            "states": states,
            "initial": states[0],
            "final": states[-1],
            "arcs": [{"from": a, "to": b, "symbol": s} for a, b, s in arcs],
            "back_arcs": [{"from": a, "to": b} for a, b in backs],
        }

    general = sorted({s for arcs in arcs_of.values() for _, _, s in arcs if s.startswith("g")})
    individual = sorted({s for arcs in arcs_of.values() for _, _, s in arcs if s.startswith("u")})

    def ref(sub: str, i: int) -> dict:
        src, dst, sym = arcs_of[sub][i]
        return {"subsystem": sub, "from": src, "to": dst, "symbol": sym}

    parent_links = []
    for parent, kids in children.items():
        for i in range(0, n - 1, 2):
            linked = rng.sample(kids, 2)
            parent_links.append({
                "parent": ref(parent, i),
                "children": [ref(kid, i) for kid in sorted(linked, key=preorder.index)],
            })

    time_diagram = []
    for t in range(horizon):
        for _ in range(2):
            if rng.random() < 0.35:
                time_diagram.append({"tick": t, "symbol": rng.choice(general)})
            else:
                sub = rng.choice(preorder)
                time_diagram.append(
                    {"tick": t, "target": sub, "symbol": rng.choice(arcs_of[sub])[2]}
                )

    weights = {sub: rng.randint(1, 3) for sub in preorder}
    scores = {sub: {s: weights[sub] * i for i, s in enumerate(states)} for sub in preorder}
    model = {
        "format_version": 1,
        "scenarios": {
            "run": {
                "hierarchy": {"root": "s0", "children": children},
                "diagrams": diagrams,
                "assignment": {sub: f"D_{sub}" for sub in preorder},
                "time_diagram": time_diagram,
                "after_effect": {
                    "individual_symbols": individual,
                    "general_symbols": general,
                    "parent_links": parent_links,
                    "upward_threshold": "all",
                },
                "backstep_timeout": timeout,
                "horizon": horizon,
            }
        },
        "score_tables": {"default": scores},
    }
    facts = {
        "preorder": preorder,
        "horizon": horizon,
        "initial": states[0],
        "final": states[-1],
        "coupled": sorted(
            [sub, a, b, s] for sub, arcs in arcs_of.items() for a, b, s in arcs if s.startswith("g")
        ),
        "scores": scores,
    }
    return model, facts


def _gen_scenario(seed: int, root: str) -> dict:
    models, ops = [], []
    for k in range(SCENARIO_INSTANCES):
        for size, (fanout, horizon, timeout) in SCENARIO_SIZES.items():
            name = f"scenario_{size}{k}"
            model, facts = scenario_model(_rng(seed, "scenario", size, k), fanout, horizon, timeout)
            path = os.path.join(root, name + ".json")
            _write_json(path, model)
            models.append(path)
            traj = os.path.join(root, "out", name + ".traj.json")
            events = os.path.join(root, "out", name + ".events.csv")
            ops.append({
                "name": name,
                "size": size,
                "calls": [
                    ["simulate", path, "--scenario", "run", "--scores", "default",
                     "--out", traj, "--events-out", events],
                    ["analyze", traj],
                ],
                "files": [traj, events],
                "facts": facts,
            })
    return {"models": models, "ops": ops}


# ---------------------------------------------------------------------------
# consistency: timed sets of chain diagrams and prescribed sequences.

def _arcs(d: dict):
    for kind in ("dev", "back"):
        for a in d[f"{kind}_arcs"]:
            yield a["from"], a["to"], a["delta"], kind


def shortest_delays(d: dict, src: str) -> dict[str, int]:
    """Least total residence delay from src to every state (Dijkstra)."""
    dist = {src: 0}
    heap = [(0, src)]
    while heap:
        du, u = heapq.heappop(heap)
        if du > dist[u]:
            continue
        for a, b, delta, _ in _arcs(d):
            if a == u and du + delta < dist.get(b, 1 << 30):
                dist[b] = du + delta
                heapq.heappush(heap, (du + delta, b))
    return dist


def timed_chain(rng: random.Random, dev: list[int], horizon: int) -> dict:
    """Chain with the given dev delays and a back arc under every dev arc;
    the back delays are a shuffle of the dev delays. Chains of one size then
    differ in layout but leave the search the same timing freedom."""
    states = [f"c{i}" for i in range(len(dev) + 1)]
    back = list(dev)
    rng.shuffle(back)
    return {
        "states": states,
        "initial": states[0],
        "final": states[-1],
        "horizon": horizon,
        "dev_arcs": [{"from": a, "to": b, "delta": t} for a, b, t in zip(states, states[1:], dev)],
        "back_arcs": [{"from": b, "to": a, "delta": t} for a, b, t in zip(states, states[1:], back)],
    }


def consistency_pair(rng: random.Random, diagrams: list[dict]):
    """One consistent and one inconsistent sequence over two chains.

    In the generator's execution one chain climbs to its final state, drops
    back to its initial state and climbs again, and the other climbs to its
    final state once; every arc fires as soon as its delay allows. The
    second arrival at the top is at ``target``, the sum of shortest
    residence delays along the first chain's visits. The consistent sequence
    reads the four visits off this execution; the inconsistent one asks for
    the last visit one tick earlier, which no execution can meet. Every other
    deadline is ``target - 1``, so both searches run to about tick
    ``target``.
    """
    di = rng.randrange(2)
    d, other = diagrams[di], diagrams[1 - di]
    top, bottom = d["final"], d["initial"]
    target = prescribed_bound(d, [top, bottom, top])
    head = [[di, top, target - 1], [1 - di, other["final"], target - 1], [di, bottom, target - 1]]
    return head + [[di, top, target]], head + [[di, top, target - 1]]


def prescribed_bound(d: dict, visits: list[str]) -> int:
    """Earliest tick at which one diagram can have made the given visits in order."""
    here, total = d["initial"], 0
    for state in visits:
        total += shortest_delays(d, here)[state]
        here = state
    return total


def _gen_consistency(seed: int, root: str) -> dict:
    models, ops = [], []
    for size, (dev, interval) in CONSISTENCY_SIZES.items():
        rng = _rng(seed, "consistency", size)
        canonical, requests, facts = {}, {}, {}
        for r in range(CONSISTENCY_REQUESTS):
            ids = [f"r{r}_d{i}" for i in range(2)]
            ds = [timed_chain(rng, dev, interval) for _ in ids]
            pair = consistency_pair(rng, ds)
            canonical.update(zip(ids, ds))
            for feasible, entries in zip((True, False), pair):
                rid = f"req{r}_{'ok' if feasible else 'late'}"
                requests[rid] = {
                    "kind": "consistency",
                    "diagrams": ids,
                    "intervals": [interval, interval],
                    "sequence": [{"diagram": a, "state": s, "deadline": t} for a, s, t in entries],
                }
                facts[rid] = {
                    "feasible": feasible,
                    "diagrams": ds,
                    "interval": interval,
                    "sequence": entries,
                }
        path = os.path.join(root, f"consistency_{size}.json")
        _write_json(path, {
            "format_version": 1,
            "canonical_diagrams": canonical,
            "composition_requests": requests,
        })
        models.append(path)
        for rid in requests:
            ops.append({
                "name": f"consistency_{size}_{rid}",
                "size": size,
                "calls": [["consist", path, "--request", rid]],
                "files": [],
                "facts": facts[rid],
            })
    return {"models": models, "ops": ops}


# ---------------------------------------------------------------------------
# population: scales, a classificator, series and an object population.

def _cuts(rng: random.Random, lo: float, hi: float, k: int) -> list[float]:
    return sorted(round(rng.uniform(lo, hi), 3) for _ in range(k))


def _interval_predicates(name: str, cuts: list[float]) -> list[str]:
    """Predicates that partition the real line at the cut points."""
    out = [f"{name} < {cuts[0]}"]
    out += [f"{a} <= {name} < {b}" for a, b in zip(cuts, cuts[1:])]
    out.append(f"{name} >= {cuts[-1]}")
    return out


def series_shapes(rng: random.Random, length: int) -> list[dict]:
    """Noiseless series: two monotone runs and two periodic waves."""
    out = []
    base = rng.randint(0, 50)
    out.append({"name": "w_up", "values": [base + t + (t * t) // 97 for t in range(length)],
                "monotone": "increasing", "period": None})
    out.append({"name": "w_down", "values": [base - 2 * t for t in range(length)],
                "monotone": "decreasing", "period": None})
    for name in ("w_wave", "w_saw"):
        half = rng.randint(3, 9)
        if name == "w_wave":
            pattern = list(range(half)) + list(range(half, 0, -1))
        else:
            pattern = [3 * i for i in range(2 * half)]
        amp = rng.randint(1, 5)
        out.append({"name": name, "values": [amp * pattern[t % len(pattern)] for t in range(length)],
                    "monotone": "none", "period": len(pattern)})
    return out


def population_model(rng: random.Random, length: int, n_objects: int, moves_per_object: int):
    """Model, series shapes, event rows and check facts of one population."""
    x_cuts = _cuts(rng, 10, 90, 5)
    y_cut = round(rng.uniform(10, 40), 3)
    levels = [f"L{i}" for i in range(6)]
    scales = {
        "x_scale": {"states": [{"id": f"x{i}", "predicate": p}
                               for i, p in enumerate(_interval_predicates("x", x_cuts))]},
        "xy_scale": {"states": [
            {"id": "low_low", "predicate": f"x < {x_cuts[2]} and y < {y_cut}"},
            {"id": "low_high", "predicate": f"x < {x_cuts[2]} and not y < {y_cut}"},
            {"id": "high", "predicate": f"x >= {x_cuts[2]}"},
        ]},
        "phase_scale": {"states": [
            {"id": "early", "predicate": "phase <= L1"},
            {"id": "middle", "predicate": "L2 <= phase <= L3"},
            {"id": "late", "predicate": "phase >= L4"},
        ]},
    }
    refinements = []
    bounds = [0.0] + x_cuts + [100.0]
    for pos in (2, 4):
        lo, hi = bounds[pos - 1], bounds[pos]
        mids = sorted(round(rng.uniform(lo, hi), 3) for _ in range(2))
        child = f"x_refine{pos}"
        preds = [f"{lo} <= x < {mids[0]}", f"{mids[0]} <= x < {mids[1]}", f"{mids[1]} <= x < {hi}"]
        scales[child] = {"states": [{"id": f"{child}_{i}", "predicate": p} for i, p in enumerate(preds)]}
        refinements.append({"scale": "x_scale", "position": pos, "child": child})
    shapes = series_shapes(rng, length)

    horizon = 30 * moves_per_object
    diagram = timed_chain(rng, [1, 2, 3, 1, 2, 3], horizon)
    states = diagram["states"]
    diagram["dev_arcs"] += [
        {"from": states[i], "to": states[i + 2], "delta": 3} for i in range(0, len(states) - 2, 2)
    ]
    objects = [f"o{i}" for i in range(n_objects)]
    placement = {obj: states[rng.randrange(3)] for obj in objects}
    moves = []
    for order, obj in enumerate(objects):
        # Every object makes the same number of moves; a move waits its
        # delay plus up to 26 ticks, so the last one stays inside the horizon.
        state, entered = placement[obj], 0
        for _ in range(moves_per_object):
            out = [arc for arc in _arcs(diagram) if arc[0] == state]
            dev = [arc for arc in out if arc[3] == "dev"]
            arc = rng.choice(dev) if dev and rng.random() < 0.6 else rng.choice(out)
            tick = entered + arc[2] + rng.randint(0, 26)
            moves.append((tick, order, obj, arc[0], arc[1], arc[3]))
            state, entered = arc[1], tick
    moves.sort()
    model = {
        "format_version": 1,
        "parameters": {
            "x": {"kind": "numeric", "bounds": [0, 100]},
            "y": {"kind": "numeric", "bounds": [0, 50]},
            "phase": {"kind": "ordinal", "levels": levels},
            **{s["name"]: {"kind": "numeric"} for s in shapes},
        },
        "scales": scales,
        "classificators": {"x_tree": {"root": "x_scale", "refinements": refinements}},
        "series": {
            s["name"]: {"parameter": s["name"], "ticks": list(range(length)), "values": s["values"]}
            for s in shapes
        },
        "canonical_diagrams": {
            "pop": {
                **diagram,
                "initial_distribution": placement,
                "target_distribution": {states[-1]: n_objects // 2},
            }
        },
    }
    facts = {
        "placement": placement,
        "diagram": diagram,
        "shapes": [{k: s[k] for k in ("name", "monotone", "period")} for s in shapes],
        "length": length,
    }
    return model, shapes, [m[:1] + m[2:] for m in moves], facts


def _gen_population(seed: int, root: str) -> dict:
    models, ops = [], []
    for k in range(POPULATION_INSTANCES):
        for size, (samples, length, n_objects, moves_per_object) in POPULATION_SIZES.items():
            name = f"population_{size}{k}"
            model, shapes, moves, facts = population_model(
                _rng(seed, "population", size, k), length, n_objects, moves_per_object
            )
            path = os.path.join(root, name + ".json")
            series = os.path.join(root, name + ".series.csv")
            events = os.path.join(root, name + ".events.csv")
            _write_json(path, model)
            _write_csv(series, ["tick"] + [s["name"] for s in shapes],
                       ([t] + [s["values"][t] for s in shapes] for t in range(length)))
            _write_csv(events, ["tick", "object", "from", "to", "arc_kind"], moves)
            models.append(path)
            facts["events"] = events
            ops.append({
                "name": name,
                "size": size,
                "calls": [
                    ["validate", path, "--samples", str(samples), "--seed", str(seed)],
                    ["profile", path, "--series", series, "--interval", f"0:{length - 1}"],
                    ["replay", path, "--diagram", "pop", "--events", events],
                ],
                "files": [],
                "facts": facts,
            })
    return {"models": models, "ops": ops}


def generate(workload: str, seed: int, root: str) -> dict:
    """Write every input of the workload under root; return the round plan."""
    os.makedirs(os.path.join(root, "out"), exist_ok=True)
    make = {"scenario": _gen_scenario, "consistency": _gen_consistency,
            "population": _gen_population}[workload]
    plan = make(seed, root)
    plan["workload"] = workload
    plan["seed"] = seed
    return plan
