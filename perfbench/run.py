"""chaintrace benchmark: one measured run of one workload.

    python3 perfbench/run.py --workload exhaustive|randomized|instances \\
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports `chaintrace` from `src/`.
Every pass over the jobs happens in a fresh interpreter (worker.py), and
this process only starts the workers, one at a time, and summarises.

--trace 0  prints the end-to-end metrics: set-up is repeated
           SETUP_RUNS times (the last one goes on to run the jobs) and
           its median is reported.
--trace 1  runs the jobs untraced, then traced, and prints the per-layer
           metrics plus the tracing overhead; the two passes must agree
           on every job's answer.

The job lists are fixed and sized to take about --seconds at the seed
commit; --seconds also sets how long the jobs may run before the rest
count as failed (DEADLINE_FACTOR times it, within the 180 s a run has).
The last line of stdout is one JSON object: correct, attempted, failed
and metrics.  Failed jobs are listed above it by name.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from worker import REF_BLOCK_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORK = os.path.join(ROOT, ".perfbench_work")
SPANS = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = ("exhaustive", "randomized", "instances")
SETUP_RUNS = 5
DEADLINE_FACTOR = 4
RUN_LIMIT_S = 165.0        # every worker is done by then
SETUP_LIMIT_S = 30.0       # one set-up-only worker
CAL_WINDOW_BLOCKS = 30


class WorkerFailed(RuntimeError):
    """A worker exited badly or ran out of time."""


def _worker(args: argparse.Namespace, workdir: str, tag: str, *,
            deadline: float, trace: bool = False,
            setup_only: bool = False) -> tuple[float, dict]:
    """Start one worker and wait for it; (spawn time, its result)."""
    out = os.path.join(workdir, f"{tag}.json")
    inputs = os.path.join(workdir, tag)
    os.makedirs(inputs)
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", inputs, "--out", out,
           "--deadline", repr(deadline)]
    if trace:
        os.makedirs(SPANS, exist_ok=True)
        cmd += ["--trace", "--spans",
                os.path.join(SPANS, f"spans-{args.workload}.bin")]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=max(
            1.0, deadline - spawned + 10.0))
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker {tag} did not finish in time") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"worker {tag} exited with {proc.returncode}")
    with open(out, encoding="utf-8") as handle:
        return spawned, json.load(handle)


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest nearest-rank percentile that has
    at least ten jobs above it; with ten jobs or fewer, the slowest job
    (percentile 100)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    rank = n - 10                     # 1-based; ten jobs rank above it
    return 100.0 * rank / n, ordered[rank - 1]


def _end_to_end(args, workdir: str, started: float) -> tuple[dict, dict]:
    setups = []
    for i in range(SETUP_RUNS - 1):
        spawned, probe = _worker(args, workdir, f"setup{i}", setup_only=True,
                                 deadline=time.monotonic() + SETUP_LIMIT_S)
        setups.append(probe["first_job"] - spawned)
    deadline = min(started + RUN_LIMIT_S,
                   time.monotonic() + SETUP_LIMIT_S
                   + DEADLINE_FACTOR * args.seconds)
    spawned, run = _worker(args, workdir, "run", deadline=deadline)
    setups.append(run["first_job"] - spawned)
    lat = _scaled_latencies(run)
    percentile, tail = tail_latency(lat)
    print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}")
    blocks = sum(b for b, _ in run["calibration"].values())
    print(f"{blocks} calibration blocks; unscaled wall "
          f"{sum(run['latencies'].values()):.4f} s")
    print(f"job_tail_ms is p{percentile:.1f} of {len(lat)} jobs")
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "wall_s": {"value": sum(lat), "unit": "s"},
        "job_p50_ms": {"value": 1000 * statistics.median(lat), "unit": "ms"},
        "job_tail_ms": {"value": 1000 * tail, "unit": "ms"},
        "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
    }
    return run, metrics


def _per_layer(args, workdir: str, started: float) -> tuple[dict, dict]:
    plain_deadline = min(started + 0.45 * RUN_LIMIT_S,
                         time.monotonic() + SETUP_LIMIT_S
                         + DEADLINE_FACTOR * args.seconds)
    _, plain = _worker(args, workdir, "plain", deadline=plain_deadline)
    _, traced = _worker(args, workdir, "traced", trace=True,
                        deadline=started + RUN_LIMIT_S)
    traced["failures"] += plain["failures"]
    for name, answer in plain["answers"].items():
        if traced["answers"].get(name) != answer:
            traced["failures"].append(
                [name, f"traced answer {traced['answers'].get(name)!r}, "
                       f"untraced {answer!r}"])
    metrics = {}
    for name, value in traced["layers"].items():
        metrics[name] = {"value": value, "unit": _unit(name)}
    # unscaled: the traced pass runs no calibration blocks
    metrics["trace.overhead"] = {
        "value": (sum(traced["latencies"].values())
                  / sum(plain["latencies"].values())),
        "unit": "ratio"}
    return traced, metrics


def _scaled_latencies(run: dict) -> list[float]:
    """Job times at the reference speed (see worker.py, speed calibration).

    Job i is multiplied by REF_BLOCK_S over the mean calibration block run
    while it and its neighbours ran: the window of jobs grows by one on
    each side until it holds CAL_WINDOW_BLOCKS blocks, or all of them.
    A traced run has no blocks and stays unscaled."""
    names = list(run["latencies"])
    cal = [run["calibration"][name] for name in names]
    if not sum(blocks for blocks, _ in cal):
        return [run["latencies"][name] for name in names]
    scaled = []
    for i, name in enumerate(names):
        lo = hi = i
        while (sum(b for b, _ in cal[lo:hi + 1]) < CAL_WINDOW_BLOCKS
               and (lo > 0 or hi < len(cal) - 1)):
            lo, hi = max(0, lo - 1), min(len(cal) - 1, hi + 1)
        blocks = sum(b for b, _ in cal[lo:hi + 1])
        seconds = sum(t for _, t in cal[lo:hi + 1])
        scaled.append(run["latencies"][name] * REF_BLOCK_S * blocks / seconds)
    return scaled


def _unit(metric: str) -> str:
    if metric.endswith(".self_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith(".max_cells"):
        return "cells"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one chaintrace benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    if not os.path.isfile(os.path.join(ROOT, "src", "chaintrace",
                                       "__init__.py")):
        print(f"no chaintrace sources under {ROOT}/src; run the benchmark "
              f"from the root of a checkout", file=sys.stderr)
        return 2

    workdir = os.path.join(WORK, f"{os.getpid()}-{args.workload}")
    os.makedirs(workdir)
    try:
        if args.trace:
            run, metrics = _per_layer(args, workdir, started)
        else:
            run, metrics = _end_to_end(args, workdir, started)
    except WorkerFailed as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(WORK) and not os.listdir(WORK):
            os.rmdir(WORK)
    for name, message in run["failures"]:
        print(f"FAILED {name}: {message}")
    failed = len({name for name, _ in run["failures"]})
    attempted = run["attempted"]
    print(f"fail_ratio: {failed}/{attempted} = {failed / attempted:.4f}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
