"""Record every job's answer at the default seed into answers.json.

    python3 perfbench/record.py [WORKLOAD ...]

Run it at the commit whose answers are the reference.  Each workload
runs in its own worker process, untraced; the recording is refused when
any job fails its invariants.
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
from worker import ANSWERS  # noqa: E402


def main(argv: list[str]) -> int:
    names = argv or list(workloads.WORKLOADS)
    recorded = {}
    if os.path.exists(ANSWERS):
        with open(ANSWERS, encoding="utf-8") as handle:
            recorded = json.load(handle)
    for name in names:
        with tempfile.TemporaryDirectory(dir=_scratch()) as tmp:
            out = os.path.join(tmp, "result.json")
            # an empty answer set, so the worker checks invariants only
            recorded[name] = {}
            _save(recorded)
            subprocess.run([sys.executable, os.path.join(HERE, "worker.py"),
                            "--workload", name,
                            "--seed", str(workloads.DEFAULT_SEED),
                            "--workdir", tmp, "--out", out,
                            "--deadline", repr(time.monotonic() + 600)],
                           check=True)
            with open(out, encoding="utf-8") as handle:
                result = json.load(handle)
        if result["failures"]:
            for job, message in result["failures"]:
                print(f"FAILED {job}: {message}", file=sys.stderr)
            return 1
        recorded[name] = result["answers"]
        _save(recorded)
        print(f"{name}: {len(result['answers'])} answers, "
              f"{sum(result['latencies'].values()):.2f} s")
    return 0


def _save(recorded: dict) -> None:
    with open(ANSWERS, "w", encoding="utf-8") as handle:
        json.dump(recorded, handle, indent=1, sort_keys=True)
        handle.write("\n")


def _scratch() -> str:
    """The benchmark's ignored work directory in the checkout."""
    path = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(path, exist_ok=True)
    return path


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
