"""Benchmark of the statedev CLI on three workloads.

Usage (from the repository root):

    python3 bench/run.py --workload scenario|consistency|population|all \
        --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed, measures set-up time in fresh
interpreters, then runs the operations in a separate worker process for S
seconds (see worker.py) and prints one JSON object as its last line of
output: whether every checked output was correct, the operations attempted
and failed, and the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1). With --workload all it runs the three workloads in turn and
prints one such line per workload, with its name added.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

import gen

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "work")

SETUP_PROBES = 5
# Fresh interpreter to ready: import the CLI with every module and parse
# every generated model of the workload once.
SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
from statedev import cli, modelfile
for path in sys.argv[2:]:
    modelfile.parse_model(path)
sys.stdout.write("ready\\n")
sys.stdout.flush()
"""
WORKER_TIMEOUT = 165


def setup_seconds(models: list[str]) -> float:
    """Median over SETUP_PROBES fresh interpreters of the time to ready."""
    times = []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", SETUP_CODE, SRC, *models], stdout=subprocess.PIPE, text=True
        ) as proc:
            line = proc.stdout.readline()
            times.append(perf_counter() - start)
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or line != "ready\n":
                raise RuntimeError("set-up probe failed")
    return statistics.median(times)


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Generate, set up and run one workload; return its result object."""
    work = os.path.join(WORK, f"{workload}-{seed}-{trace}")
    shutil.rmtree(work, ignore_errors=True)
    inputs = os.path.join(work, "inputs")
    os.makedirs(inputs)
    plan = gen.generate(workload, seed, inputs)
    plan_path = os.path.join(work, "plan.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)

    setup = setup_seconds(plan["models"]) if not trace else None
    result_path = os.path.join(work, "result.json")
    subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), plan_path, str(seconds),
         str(trace), result_path],
        check=True, timeout=WORKER_TIMEOUT,
    )
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    if setup is not None:
        result["metrics"]["setup_s"] = {"value": setup, "unit": "s"}
    shutil.rmtree(inputs)
    return {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS + ("all",),
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "statedev", "cli.py")):
        print(f"error: no statedev sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args.seed, args.seconds, args.trace)))
        return 0
    for workload in gen.WORKLOADS:
        result = run_workload(workload, args.seed, args.seconds, args.trace)
        print(json.dumps({"workload": workload, **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
