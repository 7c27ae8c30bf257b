"""One benchmark process: import iwatower from the checkout's `src`,
make the workload's inputs, print `ready`, then (unless --mode setup)
run whole rounds until --seconds have passed and print one JSON line.

    python3 perfbench/worker.py --workload d2_tower --seed 1 --seconds 10 --mode run

--mode trace wraps every layer first (spans.py) and adds the per-layer
metrics and the span file.  run.py starts this script; it is not meant
to be called by hand except to debug one workload.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RESULTS = ROOT / "perfbench" / "results"


def _cpu():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    imports = {}
    for name in ("numpy", "sympy", "iwatower.cli"):
        start = time.perf_counter()
        importlib.import_module(name)
        imports[name.split(".")[0]] = time.perf_counter() - start
    import iwatower

    if not Path(iwatower.__file__).resolve().is_relative_to(src):
        sys.exit(f"iwatower was imported from {iwatower.__file__}, not from {src}")

    import spans
    import workloads

    workdir = ROOT / "perfbench" / "work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        print("ready", flush=True)
        if args.mode == "setup":
            return 0
        tracer = spans.Tracer()
        if args.mode == "trace":
            spans.instrument(tracer)
        walls, cpus, attempted, failures = [], [], 0, []
        begin = time.perf_counter()
        while not walls or time.perf_counter() - begin < args.seconds:
            tracer.round = len(walls)
            wall, cpu = time.perf_counter(), _cpu()
            n, fails = workload.run_round(tracer.tags)
            walls.append(time.perf_counter() - wall)
            cpus.append(_cpu() - cpu)
            attempted += n
            failures += fails
        result = {
            "walls": walls,
            "cpus": cpus,
            "attempted": attempted,
            "failures": failures,
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "imports": imports,
        }
        if args.mode == "trace":
            result["layers"] = spans.layer_metrics(tracer.spans, len(walls))
            RESULTS.mkdir(exist_ok=True)
            tracer.write(RESULTS / f"trace-{args.workload}-seed{args.seed}.jsonl")
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir)


if __name__ == "__main__":
    sys.exit(main())
