"""The process that runs the operations: one client, one operation at a time.

Usage: python3 bench/worker.py PLAN.json SECONDS TRACE RESULT.json

Each operation calls ``statedev.cli.main`` in-process for every command of
the operation and is timed from its first call to the end of its last. The
loop runs whole rounds of the plan's operations until SECONDS have passed
and at least MIN_OPS operations were timed. The first execution of every
operation is checked by ``checks``; later executions must give the same
bytes. With TRACE 1 the calls into each statedev module are wrapped in spans.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import statistics
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# 100 timed operations leave at least ten beyond the 90th percentile.
MIN_OPS = 100
# Stop starting rounds after this long even below MIN_OPS, so that a much
# slower program still ends the run in time.
MAX_LOOP_SECONDS = 140


def _digest(stdouts: list[str], files: list[str]) -> str:
    h = hashlib.sha256()
    for text in stdouts:
        h.update(text.encode("utf-8"))
    for path in files:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def run(plan: dict, seconds: float, traced: bool) -> dict:
    sys.path.insert(0, SRC)
    from statedev import canonical, cli, composition, dynamics, modelfile, reports, scenario, statespace
    import checks
    import tracing

    check = checks.CHECKS[plan["workload"]]
    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracer.install({
            "cli": cli, "modelfile": modelfile, "scenario": scenario,
            "composition": composition, "canonical": canonical,
            "statespace": statespace, "dynamics": dynamics, "reports": reports,
        })
    ops = plan["ops"]
    rounds = math.ceil(MIN_OPS / len(ops))
    latencies: list[float] = []
    out_bytes = 0
    attempted = failed = 0
    correct = True
    verified: dict[str, str] = {}
    start = perf_counter()
    done = 0
    while done < rounds or perf_counter() - start < seconds:
        if perf_counter() - start > MAX_LOOP_SECONDS:
            break
        for op in ops:
            gc.collect()
            attempted += 1
            stdouts = []
            if tracer is not None:
                tracer.op = attempted
            t0 = perf_counter()
            try:
                for call in op["calls"]:
                    buf = io.StringIO()
                    with contextlib.redirect_stdout(buf):
                        code = cli.main(call)
                    stdouts.append(buf.getvalue())
                    if code != 0:
                        raise RuntimeError(f"{call[0]} exited with {code}: {buf.getvalue()[:300]}")
            except Exception:
                failed += 1
                print(f"operation {op['name']} failed:\n{traceback.format_exc()}", file=sys.stderr)
                continue
            latencies.append(perf_counter() - t0)
            out_bytes += sum(len(s.encode("utf-8")) for s in stdouts)
            out_bytes += sum(os.path.getsize(p) for p in op["files"])
            digest = _digest(stdouts, op["files"])
            if op["name"] not in verified:
                problems = check(op, stdouts)
                for problem in problems:
                    print(f"{op['name']}: {problem}", file=sys.stderr)
                correct = correct and not problems
                verified[op["name"]] = digest
            elif verified[op["name"]] != digest:
                print(f"{op['name']}: output differs from its checked first run", file=sys.stderr)
                correct = False
        done += 1

    result = {"correct": correct, "attempted": attempted, "failed": failed}
    n = len(latencies)
    if not n:
        raise SystemExit("no operation completed")
    if tracer is not None:
        tracer.uninstall()
        metrics = tracing.per_layer(tracer, n)
        metrics["trace.op_ms"] = {"value": 1000 * sum(latencies) / n, "unit": "ms"}
        metrics["trace.ops_per_s"] = {"value": n / sum(latencies), "unit": "ops/s"}
        result["metrics"] = metrics
        result["spans"] = tracer
        return result
    ordered = sorted(latencies)
    result["metrics"] = {
        "ops_per_s": {"value": n / sum(latencies), "unit": "ops/s"},
        "latency_p50_ms": {"value": 1000 * statistics.median(ordered), "unit": "ms"},
        "latency_p90_ms": {"value": 1000 * ordered[math.ceil(0.9 * n) - 1], "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MiB"},
        "output_mb": {"value": out_bytes / n / 1e6, "unit": "MB"},
    }
    return result


def main(argv: list[str]) -> int:
    plan_path, seconds, traced, result_path = argv
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    result = run(plan, float(seconds), traced == "1")
    tracer = result.pop("spans", None)
    if tracer is not None:
        tracer.write(os.path.join(os.path.dirname(result_path), "trace.jsonl"))
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
