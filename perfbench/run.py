"""Benchmark of maltkit's `mk` command on three seeded workloads.

    python3 perfbench/run.py --workload commutator-groups --seed 1 --seconds 20 --trace 0

Every job runs one `mk` verb in this process through `maltkit.cli.main`, so
it takes a user's path: spec-file parse, CLI dispatch, the layer, JSON on
stdout.  One client runs the jobs in a closed loop, one at a time, each under
a per-job time limit, and an independent checker (`oracles.py`) checks every
answer.  With `--trace 0` the run repeats the job list for `--seconds` and
reports the end-to-end metrics; with `--trace 1` it runs the list once
untraced and once traced and reports the per-layer metrics of `spans.py`.

The last line of stdout is the result object; the line before it records the
run's settings and every failed or unresolved job.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = ROOT / "tests" / "data"
OUT = HERE / "_out"

SETUP_SAMPLES = 7
LEGAL_EXITS = (0, 1, 2, 64)

# Child of the set-up measurement: a fresh interpreter imports maltkit and
# parses the workload's spec files, then prints the monotonic clock.
_SETUP_CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1])
import maltkit
from maltkit.specfile import parse_files
for path in sys.argv[2:]:
    parse_files([path])
print(time.monotonic())
"""


class JobTimeout(BaseException):
    """Raised in the job by SIGALRM; a BaseException so `except Exception` in
    the program cannot swallow it."""


def _alarm(signum, frame):
    raise JobTimeout()


def run_job(job, limit, tracer=None):
    """Run one job; return (outcome, seconds, detail).

    outcome is ok, unresolved (exit 2, a budget error) or failed:<kind> with
    kind one of timeout, crash, exit and wrong.
    """
    import maltkit.cli

    out, err = io.StringIO(), io.StringIO()
    code, crash, timed_out = None, None, False
    if tracer:
        tracer.begin_job(job.id)
    start = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, limit)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = maltkit.cli.main(list(job.argv))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except JobTimeout:
        timed_out = True
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # an uncaught exception is the finding, not an error here
        crash = "".join(traceback.format_exception_only(type(exc), exc)).strip()
    seconds = time.perf_counter() - start
    if tracer:
        tracer.end_job(finished=not timed_out)
    if timed_out:
        return "failed:timeout", seconds, f"over {limit:g} s"
    if crash or "Traceback" in err.getvalue():
        return "failed:crash", seconds, crash or err.getvalue().strip().splitlines()[-1]
    if code not in LEGAL_EXITS or (code == 1 and not job.domain_error_ok):
        return "failed:exit", seconds, f"exit {code}: {out.getvalue().strip()[:200]}"
    if code == 2:
        return "unresolved", seconds, out.getvalue().strip()[:200]
    try:
        reason = job.check(code, out.getvalue())
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        reason = f"answer has an unexpected shape: {exc!r}"
    if reason:
        return "failed:wrong", seconds, reason
    return "ok", seconds, None


def run_pass(jobs, limit, tracer=None, before=None):
    """Run the job list once; return (seconds spent in jobs, results).

    `before(i)` runs ahead of job i, untimed.  Checking an answer is not part
    of a job's time; garbage left by the previous job is collected before
    the next one starts.
    """
    results = []
    for i, job in enumerate(jobs):
        if before:
            before(i)
        gc.collect()
        results.append((job, *run_job(job, limit, tracer)))
    return sum(seconds for _, _, seconds, _ in results), results


def setup_sample(files):
    """Seconds from launching a fresh interpreter until maltkit is imported
    and the workload's spec files are parsed."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_CHILD, str(SRC), *files],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1]) - start


def git_revision():
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def summarize(passes):
    """Counts and lists of outcomes over all passes."""
    results = [r for _, rs in passes for r in rs]
    kinds = {}
    for _, outcome, _, _ in results:
        kinds[outcome] = kinds.get(outcome, 0) + 1
    failed = sum(v for k, v in kinds.items() if k.startswith("failed"))
    seen, notes = set(), []
    for job, outcome, seconds, detail in results:
        if outcome != "ok" and (job.label, outcome) not in seen:
            seen.add((job.label, outcome))
            notes.append({"job": job.id, "label": job.label, "outcome": outcome,
                          "seconds": round(seconds, 3), "detail": detail})
    return results, kinds, failed, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few small structures, for the self-test")
    args = parser.parse_args(argv)

    if not (SRC / "maltkit").is_dir() or not DATA.is_dir():
        print(f"maltkit sources or tests/data not found under {ROOT}", file=sys.stderr)
        return 3
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import numpy

    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    # A job still running after this many seconds is stopped and counts as failed.
    limit = workloads.JOB_LIMIT_S[args.workload]
    work = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    signal.signal(signal.SIGALRM, _alarm)
    try:
        jobs, files = workloads.build(args.workload, args.seed, args.size, work, DATA)
        setup_files = [f for f in files if "/fuzz" not in f]
        setup_files += sorted({a for j in jobs for a in j.argv if a.startswith(str(DATA))})
        info = {
            "workload": args.workload, "seed": args.seed, "size": args.size,
            "trace": args.trace, "git_rev": git_revision(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "job_limit_s": limit,
            "term_budget": workloads.TERM_BUDGET, "jobs": len(jobs),
        }
        if args.trace:
            untraced_wall, _ = run_pass(jobs, limit)
            tracer = spans.Tracer()
            tracer.install()
            traced_wall, results = run_pass(jobs, limit, tracer)
            passes = [(traced_wall, results)]
            metrics = tracer.metrics()
            info["tracing_overhead_s"] = traced_wall - untraced_wall
            (OUT / f"spans-{args.workload}-{args.seed}.json").write_text(
                json.dumps(tracer.spans_by_job(), sort_keys=True))
        else:
            # Set-up samples are spread over the first pass, so that they do
            # not all fall in one slow or fast stretch of a shared machine.
            setup = []
            every = max(1, len(jobs) // SETUP_SAMPLES)

            def sample_setup(i):
                if i % every == 0 and len(setup) < SETUP_SAMPLES:
                    setup.append(setup_sample(setup_files))

            passes = [run_pass(jobs, limit, before=sample_setup)]
            elapsed = passes[0][0]
            while elapsed + passes[-1][0] <= args.seconds:
                passes.append(run_pass(jobs, limit))
                elapsed += passes[-1][0]
            while len(setup) < SETUP_SAMPLES:
                setup.append(setup_sample(setup_files))
            metrics = {
                "wall_s": statistics.median(w for w, _ in passes),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "setup_s": statistics.median(setup),
            }
            # The robustness slice differs per seed and mostly stops at a parse
            # diagnostic, so the median job is taken over the other jobs.
            job_times = [s for _, rs in passes for job, _, s, _ in rs if not job.fuzz]
            info["job_p50_s"] = statistics.median(job_times)
            info["job_p50_count"] = len(job_times)
            info["tracing_overhead_s"] = None  # measured by --trace 1 runs
        results, kinds, failed, notes = summarize(passes)
        attempted = len(results)
        if not args.trace:
            metrics["answered_frac"] = kinds.get("ok", 0) / attempted
            units = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s", "answered_frac": "ratio"}
            metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
        info.update({
            "passes": len(passes),
            "outcomes": kinds,
            "failed_frac": failed / attempted,
            "unresolved_frac": kinds.get("unresolved", 0) / attempted,
            "not_ok": notes,
        })
        print(json.dumps(info, sort_keys=True))
        print(json.dumps({
            "correct": "failed:wrong" not in kinds,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
