"""Self-tests of the benchmark, on a small slice of every workload.

    python3 perfbench/selftest.py

Checks that
  * after installation no chaintrace module or class still holds an
    unwrapped original of a traced entry point;
  * a traced and an untraced pass give identical job answers;
  * two traced passes give identical counts;
  * every per-layer metric is nonzero on each workload that NOTES.md
    says it should move (ARROWS below);
  * the tail percentile follows its definition.
Each pass runs in its own worker process.  Exits 1 on the first failed
group of checks, after printing every problem in it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

# per-layer metric -> the workloads whose end-to-end numbers it should
# move; it must be nonzero there
ARROWS = {
    "rings.elem_new.count": ("exhaustive", "randomized"),
    "rings.inverse.count": ("instances",),
    "linalg.matrix_new.count": ("randomized",),
    "linalg.matmul.count": ("exhaustive",),
    "linalg.det.count": ("instances",),
    "linalg.factor.count": ("exhaustive", "randomized", "instances"),
    "linalg.query.count": ("exhaustive",),
    "complexes.space.count": ("randomized",),
    "complexes.enum.count": ("exhaustive",),
    "complexes.compose.count": ("exhaustive",),
    "complexes.validate.count": ("instances",),
    "homotopy.problem.count": ("randomized",),
    "homotopy.coset_key.count": ("exhaustive",),
    "homotopy.solve_for.count": ("instances",),
    "homotopy.trace.count": ("exhaustive",),
    "ses.extension.count": ("exhaustive",),
    "ses.cocycle.count": ("randomized",),
    "ses.check_triple.count": ("instances", "randomized"),
    "ses.connecting.count": ("instances", "randomized"),
    "ses.validate.count": ("instances", "randomized"),
    "generate.sample.count": ("randomized",),
    "search.count": ("exhaustive",),
    "search.examined_ratio": ("exhaustive", "randomized"),
    "detline.det.count": ("instances",),
    "textio.parse.count": ("instances",),
    "textio.format.count": ("instances",),
    "cli.run.count": ("instances",),
}


def _pass(workload: str, workdir: str, tag: str, trace: bool) -> dict:
    out = os.path.join(workdir, f"{tag}.json")
    inputs = os.path.join(workdir, tag)
    os.makedirs(inputs)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", "0", "--workdir", inputs,
           "--out", out, "--small", "--deadline", repr(time.monotonic() + 300)]
    if trace:
        cmd.append("--trace")
    subprocess.run(cmd, check=True)
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


def check_installation() -> list[str]:
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    return [f"unwrapped original left at {where}"
            for where in tracer.unwrapped_leftovers()]


def check_workload(workload: str) -> list[str]:
    problems = []
    with tempfile.TemporaryDirectory(dir=_scratch()) as tmp:
        plain = _pass(workload, tmp, "plain", trace=False)
        first = _pass(workload, tmp, "traced1", trace=True)
        second = _pass(workload, tmp, "traced2", trace=True)
    for name, message in plain["failures"] + first["failures"]:
        problems.append(f"{workload}: job {name} failed: {message}")
    if plain["answers"] != first["answers"]:
        problems.append(f"{workload}: traced and untraced answers differ")
    for metric, value in first["layers"].items():
        if not metric.endswith(".self_s") and second["layers"][metric] != value:
            problems.append(f"{workload}: {metric} is {value} in one traced "
                            f"pass and {second['layers'][metric]} in another")
    for metric, homes in ARROWS.items():
        if workload in homes and not first["layers"][metric]:
            problems.append(f"{workload}: {metric} is zero")
    return problems


def check_tail() -> list[str]:
    from run import tail_latency

    problems = []
    if tail_latency([float(i) for i in range(1, 49)]) != (100 * 38 / 48, 38.0):
        problems.append("tail of 48 jobs is not the 38th fastest")
    if tail_latency([3.0, 1.0, 2.0]) != (100.0, 3.0):
        problems.append("tail of 3 jobs is not the slowest")
    return problems


def main() -> int:
    groups = [("installation", check_installation), ("tail", check_tail)]
    groups += [(w, lambda w=w: check_workload(w))
               for w in workloads.WORKLOADS]
    for name, check in groups:
        problems = check()
        for problem in problems:
            print(f"FAIL {problem}")
        if problems:
            return 1
        print(f"ok   {name}")
    return 0


def _scratch() -> str:
    """The benchmark's ignored work directory in the checkout."""
    path = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(path, exist_ok=True)
    return path


if __name__ == "__main__":
    sys.exit(main())
