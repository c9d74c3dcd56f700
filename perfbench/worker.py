"""Run one workload as a closed loop in this process and print its figures.

One client sends one job at a time: each job is an in-process
`graphdm.cli.main([..., "--json"])` call on files made by `workloads`,
timed alone and checked by `oracles` outside the timed region.  Whole rounds
run until the jobs' busy time reaches --seconds.  With --trace 1 every
round runs twice, untraced and traced (alternating which comes first), and
only the traced runs feed the per-layer figures.  The last line of stdout
is one JSON object; run.py reads it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import oracles
import workloads
from graphdm import cli
from tracer import Tracer, summarize

ROOT = Path(__file__).resolve().parent.parent
RERUN_BUDGET_S = 1.0  # job time of round 0 replayed to check repeatability


def run_job(argv):
    """(exit code, CPU seconds, stdout, stderr) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.process_time()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv + ["--json"])
        except SystemExit as exc:  # argparse rejects the command line
            rc = exc.code
    return rc, time.process_time() - t0, out.getvalue(), err.getvalue()


class Loop:
    def __init__(self, workload: str, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.times: list[float] = []
        self.units = 0
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.traced_jobs = 0
        self.traced_verdicts = 0
        self.first: list = []   # (job, seconds, stdout) of round 0's passing jobs

    def fail(self, job, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 5:
            self.reasons.append(f"{job['id']} ({' '.join(job['argv'])}): {reason}")

    def round(self, jobs, traced: bool, keep: bool) -> float:
        """Run and check jobs in order; return their summed CPU time."""
        busy = 0.0
        for job in jobs:
            if traced:
                self.tracer.job = self.traced_jobs
            rc, seconds, text, err = run_job(job["argv"])
            if traced:
                self.tracer.job = -1
                self.traced_jobs += 1
            busy += seconds
            self.attempted += 1
            if not traced:
                self.times.append(seconds)
            if rc != 0:
                self.fail(job, f"exit {rc}: {err.strip()[:200]}")
                continue
            try:
                out = json.loads(text)
            except ValueError:
                self.fail(job, "output is not JSON")
                continue
            reason = oracles.check(job, out)
            if reason:
                self.fail(job, reason)
                continue
            if keep:
                self.first.append((job, seconds, text))
            if traced:
                self.traced_verdicts += workloads.verdict_units(job, out)
            else:
                self.units += workloads.work_units(self.workload, job, out)
        return busy

    def replay_first_round(self) -> str:
        """Rerun round-0 jobs; outputs must repeat byte for byte."""
        spent = 0.0
        digest = hashlib.sha256()
        for job, seconds, text in self.first:
            digest.update(text.encode())
            if spent + seconds > RERUN_BUDGET_S:
                continue
            spent += seconds
            rc, _, again, _ = run_job(job["argv"])
            if rc != 0 or again != text:
                self.fail(job, "output changed when the job was run again")
        return digest.hexdigest()


def tail(times):
    """(value, percentile): the highest percentile with ten jobs beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    tracer = Tracer() if args.trace else None
    loop = Loop(args.workload, tracer)
    prefix = f"{workloads.RUN_DIR}/{args.workload}"
    busy, r = 0.0, 0
    round_s = {False: [], True: []}
    while r == 0 or busy < args.seconds:
        jobs = workloads.make_round(args.workload, args.seed, r, f"{prefix}/r{r:04d}")
        workloads.write_files(ROOT, jobs)
        if tracer is None:
            busy += loop.round(jobs, False, keep=r == 0)
        else:
            for traced in ((False, True) if r % 2 == 0 else (True, False)):
                (tracer.install if traced else tracer.uninstall)()
                seconds = loop.round(jobs, traced, keep=r == 0 and not traced)
                round_s[traced].append(seconds)
                busy += seconds
            tracer.uninstall()
        r += 1
    digest = loop.replay_first_round()

    result = {"attempted": loop.attempted, "failed": loop.failed,
              "reasons": loop.reasons, "rounds": r, "round0_sha256": digest}
    if tracer is None:
        value, pct = tail(loop.times)
        result["metrics"] = {
            "jobs_per_s": len(loop.times) / busy,
            "units_per_s": loop.units / busy,
            "job_s_p50": statistics.median(loop.times),
            "job_s_tail": value,
            "failed_frac": loop.failed / loop.attempted,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        result["jobs"] = len(loop.times)
        result["tail_percentile"] = pct
    else:
        metrics = summarize(tracer, loop.traced_jobs, loop.traced_verdicts)
        untraced = statistics.median(round_s[False])
        traced = statistics.median(round_s[True])
        metrics["trace.round_s_untraced"] = untraced
        metrics["trace.round_s_traced"] = traced
        metrics["trace.overhead_frac"] = traced / untraced - 1
        result["metrics"] = metrics
        result["jobs"] = loop.traced_jobs
        result["spans"] = len(tracer.start)
        tracer.save(ROOT / prefix / "spans.npz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
