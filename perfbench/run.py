"""iwatower benchmark: one workload, measured in fresh single-threaded
processes, its outputs checked against closed forms.

    python3 perfbench/run.py --workload d1_pipeline --seed 1 --seconds 10 --trace 0

Without --workload it runs all three workloads in turn, one JSON line each.

--trace 0 prints the end-to-end metrics (wall_s, cpu_s, setup_s,
peak_rss_mb); --trace 1 prints the per-layer metrics of a traced run
and the tracing overhead against an untraced run.  The last line of
stdout is the JSON result; a copy goes to perfbench/results/.
See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKER = ROOT / "perfbench" / "worker.py"
WORKLOADS = ("d1_pipeline", "d2_tower", "groupring_sweep")

# set-up is timed in this many fresh interpreters, after one untimed
# start that leaves the byte-code cache warm, and reported as the median
SETUP_SAMPLES = 9
TIMEOUT_S = 170

# numpy must not spread work over threads: one core per workload process
ENV = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")


class BenchmarkError(Exception):
    pass


def _worker(args, workload, mode):
    return [
        sys.executable, str(WORKER), "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode,
    ]


def time_setup(args, workload):
    """Seconds from starting a fresh interpreter to the worker's
    `ready`: importing iwatower (numpy, sympy) and making the inputs."""
    start = time.perf_counter()
    with subprocess.Popen(_worker(args, workload, "setup"), stdout=subprocess.PIPE, text=True, env=ENV, cwd=ROOT) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            proc.wait(timeout=TIMEOUT_S)
        except BaseException:
            proc.kill()
            raise
    if line.strip() != "ready" or proc.returncode:
        raise BenchmarkError(f"set-up process failed (exit code {proc.returncode})")
    return elapsed


def run_worker(args, workload, mode):
    proc = subprocess.run(
        _worker(args, workload, mode), stdout=subprocess.PIPE, text=True, env=ENV, cwd=ROOT, timeout=TIMEOUT_S
    )
    lines = proc.stdout.splitlines()
    if proc.returncode or len(lines) < 2 or lines[0] != "ready":
        raise BenchmarkError(f"{mode} process failed (exit code {proc.returncode})")
    return json.loads(lines[-1])


def measure(args, workload):
    if args.trace:
        plain = run_worker(args, workload, "run")
        traced = run_worker(args, workload, "trace")
        metrics = dict(traced["layers"])
        for name, seconds in traced["imports"].items():
            metrics[f"import.{name}_s"] = {"value": seconds, "unit": "s"}
        overhead = statistics.median(traced["walls"]) - statistics.median(plain["walls"])
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        runs = (plain, traced)
    else:
        time_setup(args, workload)
        setup = statistics.median(time_setup(args, workload) for _ in range(SETUP_SAMPLES))
        run = run_worker(args, workload, "run")
        values = {
            "wall_s": statistics.median(run["walls"]),
            "cpu_s": statistics.median(run["cpus"]),
            "setup_s": setup,
            "peak_rss_mb": run["peak_rss_mb"],
        }
        units = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
        metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
        runs = (run,)
    failures = [f for run in runs for f in run["failures"]]
    for message in failures:
        print(f"FAILED {message}", file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": sum(run["attempted"] for run in runs),
        "failed": len(failures),
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all three in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "iwatower" / "__init__.py").is_file():
        print(f"no iwatower sources under {ROOT / 'src'}: run from a full checkout", file=sys.stderr)
        return 2
    out = ROOT / "perfbench" / "results"
    out.mkdir(exist_ok=True)
    for workload in [args.workload] if args.workload else WORKLOADS:
        try:
            result = measure(args, workload)
        except (BenchmarkError, subprocess.TimeoutExpired) as exc:
            print(f"{workload}: benchmark failed: {exc}", file=sys.stderr)
            return 1
        (out / f"{workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(result, indent=1) + "\n")
        print(f"# {workload}")
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
