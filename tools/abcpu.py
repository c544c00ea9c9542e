"""Interleaved CPU comparison of two checkouts on one benchmark workload.

    python3 tools/abcpu.py PARENT CHANGE --workload randomized \\
        [--seed 0] [--passes 3] [--small]

Each pass starts one fresh worker interpreter per checkout.  Each worker
imports `chaintrace` from its checkout's `src/` and builds that
checkout's job list (`perfbench/workloads.py`).  The jobs then run
alternately, one job at a time, on the two workers.  Which side goes
first swaps from job to job.  Host speed drifts on a scale of seconds,
and this way it falls on both sides alike.  A job's time is the
process CPU time of its call.

Per pass this prints the two CPU totals and their ratio CHANGE / PARENT.
It also prints every job whose answer string or whose digest of the
result's `repr` differs between the sides.  Exits 1 on any mismatch.
`--small` takes the workload's self-test slice.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time

WORKLOADS = ("exhaustive", "randomized", "instances")


def serve(checkout: str, workload: str, seed: int, small: bool,
          workdir: str) -> None:
    """Worker side: build the jobs, print their count, then run each job
    index read from stdin and print one JSON line per job."""
    sys.path[:0] = [os.path.join(checkout, "src"),
                    os.path.join(checkout, "perfbench")]
    import workloads

    jobs = workloads.build(workload, seed, workdir, small=small)
    print(len(jobs), flush=True)
    for line in sys.stdin:
        job = jobs[int(line)]
        start = time.process_time()
        result = job.call()
        cpu = time.process_time() - start
        print(json.dumps({
            "name": job.name, "cpu": cpu, "answer": job.answer(result),
            "digest": hashlib.sha256(repr(result).encode()).hexdigest()}),
            flush=True)


class Worker:
    def __init__(self, checkout: str, args: argparse.Namespace,
                 workdir: str):
        cmd = [sys.executable, os.path.abspath(__file__), "--serve",
               os.path.abspath(checkout), "--workload", args.workload,
               "--seed", str(args.seed), "--workdir", workdir]
        if args.small:
            cmd.append("--small")
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        self.jobs = int(self.proc.stdout.readline())

    def run(self, index: int) -> dict:
        self.proc.stdin.write(f"{index}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker died at job {index}")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def one_pass(args: argparse.Namespace, scratch: str, number: int) -> bool:
    """One interleaved pass; prints its line and any mismatch, and
    returns True when every job agreed."""
    sides = []
    for tag, checkout in (("a", args.parent), ("b", args.change)):
        workdir = os.path.join(scratch, f"{number}{tag}")
        os.makedirs(workdir)
        sides.append(Worker(checkout, args, workdir))
    a, b = sides
    try:
        if a.jobs != b.jobs:
            print(f"pass {number}: {a.jobs} jobs against {b.jobs}")
            return False
        cpu, agreed = [0.0, 0.0], True
        for index in range(a.jobs):
            order = (0, 1) if index % 2 == 0 else (1, 0)
            got = [None, None]
            for side in order:
                got[side] = sides[side].run(index)
                cpu[side] += got[side]["cpu"]
            for key in ("name", "answer", "digest"):
                if got[0][key] != got[1][key]:
                    agreed = False
                    print(f"pass {number}: job {index} ({got[0]['name']}) "
                          f"differs in {key}: {got[0][key]!r} against "
                          f"{got[1][key]!r}")
        print(f"pass {number}: {a.jobs} jobs, cpu {cpu[0]:.3f} s against "
              f"{cpu[1]:.3f} s, ratio {cpu[1] / cpu[0]:.3f}", flush=True)
        return agreed
    finally:
        a.close()
        b.close()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", nargs="?")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--passes", type=int, default=3)
    parser.add_argument("--small", action="store_true")
    parser.add_argument("--serve", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.serve:
        serve(args.serve, args.workload, args.seed, args.small, args.workdir)
        return 0
    if not (args.parent and args.change):
        parser.error("give the two checkouts, PARENT and CHANGE")
    agreed = True
    with tempfile.TemporaryDirectory(prefix="abcpu-") as scratch:
        for number in range(args.passes):
            agreed = one_pass(args, scratch, number) and agreed
    return 0 if agreed else 1


if __name__ == "__main__":
    sys.exit(main())
