"""graphdm benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  The workload runs in a fresh
worker process (worker.py) with BLAS and OpenMP pinned to one thread; with
--trace 0 the run also times cold starts of `import graphdm.cli` plus
loading the inputs.  Prints one line per metric, then, as the last line,
one JSON object with the keys correct, attempted, failed and metrics.
Exits 2 without a result when the checkout has no graphdm sources.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_RUNS = 7
TIME_LIMIT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
UNITS = {"setup_s": "s", "jobs_per_s": "1/s", "units_per_s": "1/s",
         "job_s_p50": "s", "job_s_tail": "s", "failed_frac": "ratio",
         "peak_rss_mib": "MiB"}
# failed_frac is 0 on a healthy run, so it is printed here and carried by
# the result's attempted/failed counts rather than listed as a metric
E2E_REPORTED = [k for k in UNITS if k != "failed_frac"]
SETUP_CODE = """\
import sys
import graphdm.cli
from graphdm.graphs import parse_graph
for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as fh:
        parse_graph(fh.read())
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env.update({var: "1" for var in THREAD_VARS})
    return env


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(files, env) -> float:
    """Median CPU time of cold interpreters importing the CLI and loading files."""
    cmd = [sys.executable, "-c", SETUP_CODE, *files]
    subprocess.run(cmd, cwd=ROOT, env=env, check=True, timeout=60)  # compile once
    times = []
    for _ in range(SETUP_RUNS):
        before = children_cpu()
        subprocess.run(cmd, cwd=ROOT, env=env, check=True, timeout=60)
        times.append(children_cpu() - before)
    return statistics.median(times)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.perf_counter()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "graphdm" / "cli.py").is_file():
        print(f"error: no graphdm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    run_dir = ROOT / workloads.RUN_DIR / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    env = child_env()
    metrics = {}
    if not args.trace:
        jobs = workloads.make_round(args.workload, args.seed, 0,
                                    f"{workloads.RUN_DIR}/{args.workload}/setup")
        metrics["setup_s"] = measure_setup(workloads.write_files(ROOT, jobs), env)

    cmd = [sys.executable, str(Path(__file__).with_name("worker.py")),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    left = TIME_LIMIT_S - (time.perf_counter() - started)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=left)
    except subprocess.TimeoutExpired:
        print(f"error: worker ran past {TIME_LIMIT_S} s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"error: worker exited {proc.returncode}", file=sys.stderr)
        return 1
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics.update(res["metrics"])
    for reason in res["reasons"]:
        print(f"failed: {reason}", file=sys.stderr)

    print(f"workload {args.workload} seed {args.seed}: {res['jobs']} jobs in "
          f"{res['rounds']} rounds, {res['failed']} of {res['attempted']} failed, "
          f"round-0 output sha256 {res['round0_sha256'][:16]}")
    if args.trace:
        shown = tracer.UNITS
        print(f"spans recorded: {res['spans']}")
    else:
        shown = UNITS
        print(f"job_s_p50 over {res['jobs']} jobs; job_s_tail is "
              f"p{res['tail_percentile']:.2f} over {res['jobs']} jobs")
    for name, unit in shown.items():
        print(f"  {name:40s} {metrics[name]:.6g} {unit}")

    units = tracer.UNITS if args.trace else {k: UNITS[k] for k in E2E_REPORTED}
    report = {name: {"value": metrics[name], "unit": unit}
              for name, unit in units.items()}
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
