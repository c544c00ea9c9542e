"""The job lists of the three benchmark workloads.

A job is one public call into `chaintrace` (a search plus the `certify`
of its first violation counts as one call), timed on its own.  Each job
turns its result into an answer string; the gate compares that string
with the answer recorded at the seed commit (`answers.json`, default
seed only) and, on every seed, checks invariants that any correct
program satisfies.

Workloads:

* ``exhaustive``  exhaustive `search_violation` at fixed bounds; the
  seed only shuffles the job order.
* ``randomized``  randomized `search_violation` calls, each with its own
  seed derived from the workload seed.
* ``instances``   single-instance CLI jobs (`cli.run`) on text files that
  set-up writes, plus `det_of_automorphism` jobs over Z/101[e].  The
  complexes and sequences come from a fixed corpus seed; the workload
  seed draws every endomorphism, homotopy and bridge matrix.  See
  NOTES.md for why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
from dataclasses import dataclass
from random import Random
from typing import Callable, Optional

import chaintrace as ct
from chaintrace import cli as ct_cli

DEFAULT_SEED = 0
CORPUS_SEED = "chaintrace-instances-corpus"

# (ring, max window, max rank); the answers do not depend on the seed
EXHAUSTIVE_BOUNDS = [("Z/3", 2, 1), ("Z/2", 1, 2), ("Z/4", 2, 1)]

# (ring, max window, max rank, calls, trials per call).  At 200 trials a
# call takes about 0.15-0.25 s at window 2 rank 1, 0.3 s for Z/4 at
# window 3 rank 2 and 0.45 s for Z/3[e] there.  So the median of the 56
# calls falls in the middle of the 16 Z/4 w3r2 calls, and job_tail_ms
# (the 46th) in the middle of the 20 Z/3[e] w3r2 calls, not on the edge
# between two groups of different cost.
RANDOMIZED_BOUNDS = [
    ("Z/5", 2, 1, 5, 200),
    ("Z/4", 2, 1, 5, 200),
    ("Z/3[e]", 2, 1, 5, 200),
    ("Z/2[e]", 2, 1, 5, 200),
    ("Z/4", 3, 2, 16, 200),
    ("Z/3[e]", 3, 2, 20, 200),
]

# (ring, sub ranks, quotient ranks, corpus copy), ranks from degree 0; the
# middle complex is their degreewise sum, and copy k is the k-th draw of
# that shape from the corpus seed.  Integer-SNF cost is heavy-tailed in the
# draw: most draws of a shape take milliseconds, a few take seconds (the
# knee) and some run for minutes (the cliff).  Copies 0-39 of the shapes
# marked "knee" were timed at the seed commit; draws whose homotopy job
# took 0.3-5 s are kept, and no draw with a job over 5 s is.  NOTES.md
# lists the cliff draws.
SEQUENCE_SHAPES = [
    ("Z/4", (1, 1, 1, 1), (1, 1, 1, 1), 0),
    ("Z/4", (2, 2, 2), (2, 3, 3), 1),           # knee
    ("Z/4", (3, 3, 3), (3, 3, 3), 0),
    ("Z/4", (2, 3, 3), (3, 3, 3), 1),
    ("Z/8", (1, 1), (1, 2), 0),
    ("Z/8", (2, 2, 2), (2, 2, 2), 0),
    ("Z/8", (2, 3), (3, 3), 0),
    ("Z/9", (1, 1, 1, 1), (1, 2, 1, 1), 0),
    ("Z/9", (2, 2, 2), (2, 2, 2), 0),
    ("Z/9", (2, 3), (3, 3), 0),
    ("Z/9", (2, 3), (3, 3), 9),                 # knee
    ("Z/9", (2, 3), (3, 3), 13),                # knee
    ("Z/4[e]", (1, 1), (1, 1), 0),
    ("Z/4[e]", (2, 2, 2), (2, 2, 2), 0),
    ("Z/4[e]", (2, 3), (3, 3), 0),
    ("Z/4[e]", (2, 2, 2), (2, 3, 3), 1),        # knee
    ("Z/4[e]", (2, 2, 2), (2, 3, 3), 7),        # knee
    ("Z/9[e]", (1, 1), (1, 1), 0),
    ("Z/9[e]", (1, 1, 1), (1, 2, 1), 0),
    ("Z/9[e]", (2, 2), (2, 2), 0),              # knee
    ("Z/9[e]", (2, 2), (2, 2), 4),              # knee
    ("Z/9[e]", (2, 2), (2, 2), 9),              # knee
    ("Z/9[e]", (2, 2), (2, 2), 12),             # knee
    ("Z/9[e]", (2, 2), (2, 2), 22),             # knee
    ("Z/9[e]", (2, 2), (2, 2), 23),             # knee
    ("Z/101[e]", (1, 1), (1, 1), 0),
    ("Z/101[e]", (1, 1, 1), (1, 1, 1), 0),
    ("Z/101[e]", (1, 2), (1, 1), 0),            # knee
    ("Z/101[e]", (1, 2), (1, 1), 5),            # knee
    ("Z/101[e]", (1, 2), (1, 1), 20),           # knee
    ("Z/101[e]", (1, 2), (1, 1), 34),           # knee
    ("Z/101[e]", (1, 2), (1, 1), 37),           # knee
]
BRIDGE_RINGS = ("Z/4", "Z/8", "Z/9")
BRIDGE_SIZES = (5, 6)
BRIDGE_PER_SIZE = 1
# ranks of the complexes whose automorphisms det jobs take over Z/101[e]
DET_RANKS = [(1, 1), (2, 1), (1, 2), (2, 2), (1, 1, 1), (2, 1, 1),
             (1, 2, 1), (1, 1, 2)]
DET_RING = "Z/101[e]"

WORKLOADS = ("exhaustive", "randomized", "instances")


@dataclass
class Job:
    """One timed public call.

    `call` is what the benchmark times.  `answer` turns its result into
    the string the gate compares with the recorded answer, and `check`
    returns a message for each broken invariant; neither is timed.
    """

    name: str
    call: Callable[[], object]
    answer: Callable[[object], str]
    check: Callable[[object], list[str]]
    # the search bound, kept for the traced run's examined ratio
    search: Optional[ct.SearchConfig] = None


def build(workload: str, seed: int, workdir: str,
          small: bool = False) -> list[Job]:
    """The workload's jobs for this seed; `instances` writes its input
    files under `workdir`.  `small` gives the self-tests' slice."""
    if workload == "exhaustive":
        return _exhaustive_jobs(seed, small)
    if workload == "randomized":
        return _randomized_jobs(seed, small)
    if workload == "instances":
        return _instance_jobs(seed, workdir, small)
    raise ValueError(f"unknown workload {workload!r}")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# searches
# ---------------------------------------------------------------------------


def _search_job(name: str, cfg: ct.SearchConfig) -> Job:
    def call():
        outcome = ct.search_violation(cfg)
        cert = (ct.certify(outcome) if outcome.first_violation is not None
                else None)
        return outcome, cert

    def answer(result) -> str:
        outcome, cert = result
        certified = "none" if cert is None else ("yes" if cert else "no")
        return (f"examined={outcome.instances_examined} "
                f"violations={outcome.violations_found} "
                f"certified={certified}")

    def check(result) -> list[str]:
        outcome, cert = result
        bad = []
        if cfg.ring.is_reduced() and outcome.violations_found:
            bad.append(f"{outcome.violations_found} violations over the "
                       f"reduced ring {cfg.ring}")
        if not 0 <= outcome.violations_found <= outcome.instances_examined:
            bad.append("violations outside 0..examined")
        if (outcome.violations_found > 0) != (cert is not None):
            bad.append("a violation count without a first violation, or "
                       "the reverse")
        if cert is not None and not cert:
            bad.append(f"first violation fails certify: {cert.message}")
        return bad

    return Job(name, call, answer, check, search=cfg)


def attempted_triples(cfg: ct.SearchConfig) -> int:
    """Triples a search looks at: its trials when randomized; when
    exhaustive, the sum of |u|*|v|*|w| over every sequence in range,
    counted with the public ChainMapSpace.count."""
    if cfg.mode == "randomized":
        return cfg.trials
    complexes = list(ct.iter_all_complexes(cfg.ring, max_window=cfg.max_window,
                                           max_rank=cfg.max_rank))
    endos = [ct.ChainMapSpace(k, k).count for k in complexes]
    total = 0
    for sub, n_u in zip(complexes, endos):
        for quo, n_w in zip(complexes, endos):
            for twist in ct.CocycleSpace(sub, quo).iter_all():
                middle = ct.make_extension(sub, quo, twist).middle
                total += n_u * n_w * ct.ChainMapSpace(middle, middle).count
    return total


def _exhaustive_jobs(seed: int, small: bool) -> list[Job]:
    bounds = [("Z/2", 2, 1)] if small else EXHAUSTIVE_BOUNDS
    jobs = [_search_job(f"exhaustive {spec} w{w}r{r}",
                        ct.SearchConfig(ct.parse_ring(spec), max_window=w,
                                        max_rank=r, mode="exhaustive"))
            for spec, w, r in bounds]
    Random(f"{seed}:order").shuffle(jobs)
    return jobs


def _randomized_jobs(seed: int, small: bool) -> list[Job]:
    jobs = []
    for spec, w, r, calls, trials in RANDOMIZED_BOUNDS:
        # the slice keeps call 4 of each bound: at the default seed most of
        # those find a violation, so the slice runs certify too
        for k in [4] if small else range(calls):
            call_seed = f"{seed}/{spec}/w{w}r{r}/{k}"
            cfg = ct.SearchConfig(ct.parse_ring(spec), max_window=w,
                                  max_rank=r, trials=trials,
                                  seed=call_seed, mode="randomized")
            jobs.append(_search_job(f"randomized {spec} w{w}r{r} #{k}", cfg))
    Random(f"{seed}:order").shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# single instances
# ---------------------------------------------------------------------------


def _complex_with_ranks(rng: Random, ring: ct.RingSpec,
                        ranks: tuple[int, ...]) -> ct.PerfectComplex:
    """A random complex with these ranks from degree 0: each differential
    is drawn from the left kernel of the one before, so d*d = 0."""
    diffs = {}
    prev = None
    for i in range(len(ranks) - 1):
        rows, cols = ranks[i + 1], ranks[i]
        if prev is None:
            d = ct.random_matrix(rng, ring, rows, cols)
        else:
            solver = ct.LinearSolver(prev.transpose())
            zero = [ring.zero()] * prev.cols
            entries = []
            for _ in range(rows):
                entries.extend(solver.sample_solution(zero, rng))
            d = ct.Matrix(ring, rows, cols, tuple(entries))
        diffs[i] = d
        prev = d
    return ct.PerfectComplex.build(ring, 0, ranks, diffs)


def _corpus_sequence(spec: str, sub_ranks, quo_ranks, copy: int
                     ) -> ct.ShortExactSequence:
    rng = Random(f"{CORPUS_SEED}:{spec}:{sub_ranks}:{quo_ranks}:{copy}")
    ring = ct.parse_ring(spec)
    sub = _complex_with_ranks(rng, ring, sub_ranks)
    quo = _complex_with_ranks(rng, ring, quo_ranks)
    return ct.make_extension(sub, quo, ct.random_cocycle(rng, sub, quo))


def _perturbed(rng: Random, f: ct.ChainMap) -> ct.ChainMap:
    return ct.perturb(f, ct.random_homotopy(rng, f.source, f.target))


def _write(workdir: str, name: str, text: str) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


def _cli_job(name: str, argv: list[str],
             check_output: Callable[[int, str], list[str]],
             witness_check: Optional[Callable[[str], list[str]]] = None
             ) -> Job:
    """A `cli.run(argv)` job.  The answer is the exit code and a digest of
    stdout; for `homotopy` the witness lines are left out of the digest,
    because any witness is right, and `witness_check` re-evaluates them."""

    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = ct_cli.run(argv)
        return code, out.getvalue()

    def answer(result) -> str:
        code, out = result
        if witness_check is not None:
            out = "".join(line for line in out.splitlines(keepends=True)
                          if not line.startswith("  h "))
        return f"exit={code} stdout={digest(out)}"

    def check(result) -> list[str]:
        code, out = result
        if code not in (0, 1, 2, 64, 65):
            return [f"exit code {code} is not in the README table"]
        bad = check_output(code, out)
        if witness_check is not None and not bad:
            bad = witness_check(out)
        return bad

    return Job(name, call, answer, check)


def _expect(code_wanted: int, *lines: str) -> Callable[[int, str], list[str]]:
    """Invariant: this exit code, and each of these lines in stdout."""

    def check(code: int, out: str) -> list[str]:
        bad = []
        if code != code_wanted:
            bad.append(f"exit code {code}, expected {code_wanted}")
        have = out.splitlines()
        bad += [f"missing line {line!r}" for line in lines if line not in have]
        return bad

    return check


def _homotopy_witness_check(ring: ct.RingSpec, f: ct.ChainMap,
                            g: ct.ChainMap) -> Callable[[str], list[str]]:
    """Re-evaluate the printed witness: f must equal g + d h + h d."""

    def check(out: str) -> list[str]:
        comps = {}
        for line in out.splitlines():
            if line.startswith("  h ") and "#" not in line:
                _, degree, matrix = line.split(None, 2)
                comps[int(degree)] = ct.parse_matrix(ring, matrix)
        h = ct.Homotopy.build(f.source, f.target, comps)
        if ct.perturb(g, h) != f:
            return ["printed homotopy witness does not satisfy "
                    "from = to + d h + h d"]
        return []

    return check


def _sequence_jobs(seed: int, index: int, spec: str, sub_ranks,
                   quo_ranks, copy: int, workdir: str) -> list[Job]:
    ses = _corpus_sequence(spec, sub_ranks, quo_ranks, copy)
    rng = Random(f"{seed}:{spec}:{sub_ranks}:{quo_ranks}:{copy}")
    ring = ses.ring
    strict = ct.random_strict_triple(rng, ses, attempts=8)
    if strict is None:
        strict = ct.EndoTriple(*(ct.ChainMap.identity(k) for k in
                                 (ses.sub, ses.middle, ses.quotient)))
    # perturbing a strict triple keeps every square up to homotopy and
    # every trace, so the defect stays zero
    triple = ct.EndoTriple(_perturbed(rng, strict.on_sub),
                           _perturbed(rng, strict.on_middle),
                           _perturbed(rng, strict.on_quotient))
    v = triple.on_middle
    v2 = _perturbed(rng, v)
    tag = f"{index:02d}"
    ses_path = _write(workdir, f"ses{tag}.txt", ct.ses_file(ses, triple=triple))
    mid_path = _write(workdir, f"mid{tag}.txt",
                      ct.complex_file(ses.middle, "L", {"v": v, "v2": v2}))
    shape = f"{spec} {sub_ranks}+{quo_ranks} #{copy}"
    return [
        _cli_job(f"validate {shape}", ["validate", ses_path],
                 _expect(0, "result: ok")),
        _cli_job(f"additivity {shape}", ["additivity", ses_path],
                 _expect(0, "violation: no (defect is zero)")),
        _cli_job(f"homotopy {shape}",
                 ["homotopy", mid_path, "--from", "v", "--to", "v2"],
                 _expect(0, "homotopic: yes, via"),
                 _homotopy_witness_check(ring, v, v2)),
        # homotopy invariance: v2 has the trace of v
        _cli_job(f"trace {shape}", ["trace", mid_path, "--endo", "v2"],
                 _expect(0, str(ct.graded_trace(v)))),
    ]


def _bridge_jobs(seed: int, rings, sizes, per_size: int) -> list[Job]:
    jobs = []
    for spec in rings:
        ring = ct.parse_ring(spec)
        for n in sizes:
            for k in range(per_size):
                rng = Random(f"{seed}:bridge:{spec}:{n}:{k}")
                mat = ct.random_matrix(rng, ring, n, n)
                jobs.append(_cli_job(
                    f"bridge {spec} {n}x{n} #{k}",
                    ["bridge", "--ring", spec, "--matrix",
                     ct.format_matrix(mat)],
                    _expect(0, "agree: yes")))
    return jobs


def _det_jobs(seed: int, det_ranks, workdir: str) -> list[Job]:
    """det_of_automorphism of an automorphism read back from a file;
    odd degrees divide, which runs RingElem.inverse over Z/101[e]."""
    ring = ct.parse_ring(DET_RING)
    jobs = []
    for index, ranks in enumerate(det_ranks):
        k = _complex_with_ranks(Random(f"{CORPUS_SEED}:det:{ranks}"), ring,
                                ranks)
        rng = Random(f"{seed}:det:{ranks}")
        while True:
            f = _perturbed(rng, ct.ChainMap.identity(k))
            if all(f.comp(n).det().is_unit() for n in k.degrees()):
                break
        path = _write(workdir, f"det{index:02d}.txt",
                      ct.complex_file(k, "K", {"a": f}))
        endo = ct.parse_document(_read(path)).endos["a"]
        jobs.append(_det_job(f"det {DET_RING} {ranks}", endo))
    return jobs


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _det_job(name: str, endo: ct.ChainMap) -> Job:
    def call():
        return ct.det_of_automorphism(endo)

    def check(value) -> list[str]:
        return [] if value.is_unit() else [f"determinant {value} is no unit"]

    return Job(name, call, str, check)


def _instance_jobs(seed: int, workdir: str, small: bool) -> list[Job]:
    shapes, det_ranks = SEQUENCE_SHAPES, DET_RANKS
    bridges = (BRIDGE_RINGS, BRIDGE_SIZES, BRIDGE_PER_SIZE)
    if small:
        # the first draw of each ring, one bridge and one det job
        firsts = {}
        for shape in shapes:
            firsts.setdefault(shape[0], shape)
        shapes, det_ranks = list(firsts.values()), det_ranks[:1]
        bridges = (BRIDGE_RINGS[:1], BRIDGE_SIZES[:1], 1)
    jobs = []
    for index, shape in enumerate(shapes):
        jobs += _sequence_jobs(seed, index, *shape, workdir)
    jobs += _bridge_jobs(seed, *bridges)
    jobs += _det_jobs(seed, det_ranks, workdir)
    Random(f"{seed}:order").shuffle(jobs)
    return jobs
