"""One pass over a workload's jobs, in a fresh interpreter.

run.py starts this script once per measurement, so no process-global
cache carries over between runs.  It imports `chaintrace` from the
checkout's `src/`, builds the jobs (the set-up), stamps the start of the
first job, runs and checks every job, and writes one JSON result file:

    python3 perfbench/worker.py --workload W --seed N --workdir DIR \\
        --out RESULT.json [--deadline MONOTONIC] [--trace] [--setup-only]

With --setup-only it stops at the stamp.  With --trace it installs the
tracer before set-up and adds the per-layer numbers to the result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ANSWERS = os.path.join(HERE, "answers.json")

# span names reported as .count and .self_s, and span names reported as a
# count only; see NOTES.md for the end-to-end metric each should move
TIMED_LAYERS = [
    "rings.inverse", "linalg.matmul", "linalg.det", "linalg.factor",
    "linalg.query", "complexes.space", "complexes.compose",
    "complexes.validate", "homotopy.problem", "homotopy.coset_key",
    "homotopy.solve_for", "homotopy.trace", "ses.extension", "ses.cocycle",
    "ses.check_triple", "ses.connecting", "ses.validate", "generate.sample",
    "search", "search.certify", "detline.det", "detline.bridge",
    "textio.parse", "textio.format", "cli.run",
]
COUNTED_LAYERS = ["complexes.enum"]
COUNTERS = ["rings.elem_new", "linalg.matrix_new"]


# Speed calibration.  The host's cores are shared, and their speed drifts
# by up to a fifth within a minute.  While the jobs run, a timer signal
# interrupts them every CAL_PERIOD_S of CPU time to run one fixed block of
# pure-Python work (integer arithmetic, tuples and a small dict, like the
# package's own inner loops).  The block calls nothing in chaintrace and
# leaves no garbage, so no change to the package can move it.  Job times
# leave the blocks out, and run.py multiplies each by REF_BLOCK_S over the
# mean time of the blocks run near it.
CAL_PERIOD_S = 0.2
CAL_BLOCK_LOOPS = 11_000
REF_BLOCK_S = 0.005


def calibration_block() -> float:
    """Seconds one calibration block takes now."""
    gc_was_on = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    table: dict[tuple[int, int], int] = {}
    x = 12345
    for i in range(CAL_BLOCK_LOOPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = (x & 63, i & 7)
        table[key] = table.get(key, 0) + (x >> 7)
    elapsed = time.perf_counter() - t0
    if gc_was_on:
        gc.enable()
    return elapsed


class SpeedSampler:
    """Runs calibration_block every CAL_PERIOD_S of CPU time, from a
    SIGVTALRM handler, and adds up the blocks and their time."""

    def __init__(self) -> None:
        self.blocks = 0
        self.seconds = 0.0

    def _on_timer(self, _signum, _frame) -> None:
        self.seconds += calibration_block()
        self.blocks += 1

    def __enter__(self) -> "SpeedSampler":
        signal.signal(signal.SIGVTALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_VIRTUAL, CAL_PERIOD_S, CAL_PERIOD_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, signal.SIG_DFL)


class DeadlineExceeded(Exception):
    """The run's time is up; the job in flight and the rest count as
    failed."""


def _on_alarm(_signum, _frame):
    raise DeadlineExceeded()


def _recorded_answers(workload: str, seed: int) -> dict[str, str]:
    """Answers recorded at the seed commit that apply to this run: the
    exhaustive ones on every seed, the others on the default seed."""
    import workloads

    with open(ANSWERS, encoding="utf-8") as handle:
        recorded = json.load(handle)
    if workload == "exhaustive" or seed == workloads.DEFAULT_SEED:
        return recorded.get(workload, {})
    return {}


def run_jobs(jobs, recorded: dict[str, str], tracer=None) -> dict:
    """Time and check every job.  By job name, the result holds each
    finished job's latency (calibration blocks left out), its answer and
    its calibration blocks as [count, seconds]; it also lists one
    [job name, message] pair per problem found.  Traced runs run no
    calibration blocks."""
    paused = tracer.paused if tracer is not None else contextlib.nullcontext
    sampler = SpeedSampler()
    done: dict = {"latencies": {}, "answers": {}, "calibration": {},
                  "failures": [], "attempted": len(jobs), "outcomes": []}
    with sampler if tracer is None else contextlib.nullcontext():
        for i, job in enumerate(jobs):
            try:
                _run_job(job, recorded.get(job.name), sampler, paused, done)
            except DeadlineExceeded:
                done["failures"] += [[j.name, "not finished before the "
                                              "deadline"] for j in jobs[i:]]
                break
    return done


def _run_job(job, want: str | None, sampler: SpeedSampler, paused,
             done: dict) -> None:
    """Time, answer and check one job, adding the outcome to `done`."""
    blocks0, cal0 = sampler.blocks, sampler.seconds
    t0 = time.perf_counter()
    error = None
    try:
        value = job.call()
    except DeadlineExceeded:
        raise
    except Exception as exc:  # a raising job is a failed job
        error = exc
    elapsed = time.perf_counter() - t0
    cal_s = sampler.seconds - cal0
    done["latencies"][job.name] = elapsed - cal_s
    done["calibration"][job.name] = [sampler.blocks - blocks0, cal_s]
    if error is not None:
        done["answers"][job.name] = f"raised {type(error).__name__}"
        done["failures"].append(
            [job.name, f"raised {type(error).__name__}: {error}"])
        return
    with paused():
        answer, problems = job.answer(value), job.check(value)
    if want is not None and want != answer:
        problems.append(f"answer {answer!r}, recorded {want!r}")
    done["answers"][job.name] = answer
    done["failures"] += [[job.name, p] for p in problems]
    done["outcomes"].append((job, value))


def layer_metrics(tracer, outcomes) -> dict[str, float]:
    """The per-layer numbers of a traced run."""
    import workloads

    totals = tracer.layer_totals()
    out: dict[str, float] = {}
    for name in COUNTERS:
        out[f"{name}.count"] = tracer.counts[name]
    for name in TIMED_LAYERS:
        count, self_s = totals.get(name, (0, 0.0))
        out[f"{name}.count"] = count
        out[f"{name}.self_s"] = self_s
    for name in COUNTED_LAYERS:
        out[f"{name}.count"] = totals.get(name, (0, 0.0))[0]
    out["linalg.factor.distinct"] = len(tracer.factored)
    out["linalg.factor.max_cells"] = tracer.max_cells
    solves = out["homotopy.solve_for.count"]
    out["homotopy.solve_for.solved_ratio"] = (tracer.solved / solves
                                              if solves else 0.0)
    examined = attempted = 0
    with tracer.paused():
        for job, (outcome, _cert) in ((j, v) for j, v in outcomes
                                      if j.search is not None):
            examined += outcome.instances_examined
            attempted += workloads.attempted_triples(job.search)
    out["search.examined_ratio"] = examined / attempted if attempted else 0.0
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--deadline", type=float, default=None,
                        help="time.monotonic() value at which to stop")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None,
                        help="with --trace, write the spans to this file")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--small", action="store_true",
                        help="the self-tests' slice of the workload")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import chaintrace  # noqa: F401  (the import is part of set-up)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    import workloads

    jobs = workloads.build(args.workload, args.seed, args.workdir,
                           small=args.small)
    recorded = _recorded_answers(args.workload, args.seed)
    gc.collect()
    first_job = time.monotonic()
    result: dict = {"first_job": first_job}
    if not args.setup_only:
        if args.deadline is not None:
            signal.signal(signal.SIGALRM, _on_alarm)
            signal.setitimer(signal.ITIMER_REAL,
                             max(0.01, args.deadline - time.monotonic()))
        try:
            done = run_jobs(jobs, recorded, tracer)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        outcomes = done.pop("outcomes")
        result.update(done)
        result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                                 .ru_maxrss / 1024)
        if tracer is not None:
            result["layers"] = layer_metrics(tracer, outcomes)
            if args.spans:
                tracer.write_spans(args.spans)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
