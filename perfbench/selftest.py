"""Self-test of the benchmark: python3 perfbench/selftest.py

Runs every workload at the tiny size, untraced and twice traced, and checks
that
  1. every metric named in BENCHMARK.json is emitted with its unit;
  2. two traced runs with the same seed give identical counts;
  3. a deliberately corrupted answer is counted as failed.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7
COUNT_SUFFIXES = (".calls", ".tables", ".translations", ".pair_alg_size", ".mixed_pairs")


def run_bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_emitted(result, specs, what):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["attempted"] >= 1, result
    for spec in specs:
        got = result["metrics"].get(spec["name"])
        assert got is not None, f"{what}: {spec['name']} missing"
        assert got["unit"] == spec["unit"], f"{what}: {spec['name']} unit {got['unit']}"
        assert isinstance(got["value"], (int, float)), f"{what}: {spec['name']} value"


def corrupt(text):
    """A wrong answer of the same shape: change the error code, flip a verdict,
    or bump the first integer."""
    try:
        payload = json.loads(text)
    except ValueError:
        return text[:-2] + "?" + text[-1:]
    if "error" in payload:
        payload["error"]["code"] = "Corrupted"
        return json.dumps(payload)
    for holder in (payload, *[v for v in payload.values() if isinstance(v, dict)]):
        for key in ("ok", "found", "abelian"):
            if isinstance(holder.get(key), bool):
                holder[key] = not holder[key]
                return json.dumps(payload)

    def bump(node):
        if isinstance(node, bool):
            return node, False
        if isinstance(node, int):
            return node + 1, True
        if isinstance(node, dict):
            items = list(node.items())
        elif isinstance(node, list):
            items = list(enumerate(node))
        else:
            return node, False
        for k, v in items:
            new, done = bump(v)
            if done:
                node[k] = new
                return node, True
        return node, False

    return json.dumps(bump(payload)[0])


def check_corruption_fails(workload):
    """Every checked job of the tiny workload is counted as failed when its
    stdout is corrupted."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import signal

    import maltkit.cli
    import run
    import workloads

    signal.signal(signal.SIGALRM, run._alarm)
    real = maltkit.cli.main

    def corrupted_main(argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = real(argv)
        sys.stdout.write(corrupt(buf.getvalue()))
        return code

    work = run.OUT / f"selftest-{workload}"
    work.mkdir(parents=True, exist_ok=True)
    checked = 0
    try:
        jobs, _ = workloads.build(workload, SEED, "tiny", work, run.DATA)
        for job in jobs:
            if job.fuzz:
                continue
            outcome, _, detail = run.run_job(job, workloads.JOB_LIMIT_S[workload])
            assert outcome == "ok", f"{job.label}: {outcome} {detail}"
            maltkit.cli.main = corrupted_main
            try:
                outcome, _, _ = run.run_job(job, workloads.JOB_LIMIT_S[workload])
            finally:
                maltkit.cli.main = real
            assert outcome == "failed:wrong", f"corrupted {job.label} counted as {outcome}"
            checked += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    assert checked, workload
    return checked


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for spec in bench["workloads"]:
        workload = spec["name"]
        check_emitted(run_bench(workload, 0), bench["end_to_end"], f"{workload} untraced")
        first, second = run_bench(workload, 1), run_bench(workload, 1)
        check_emitted(first, bench["per_layer"], f"{workload} traced")
        counts = [
            {k: v["value"] for k, v in r["metrics"].items() if k.endswith(COUNT_SUFFIXES)}
            for r in (first, second)
        ]
        assert counts[0] == counts[1], f"{workload}: traced counts differ"
        assert any(counts[0].values()), f"{workload}: no layer was called"
        n = check_corruption_fails(workload)
        print(f"ok {workload}: metrics emitted, counts repeat, {n} corrupted answers caught")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as exc:
        print(f"FAIL {exc}")
        sys.exit(1)
