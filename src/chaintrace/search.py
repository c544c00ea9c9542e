"""Hunting for failures of trace additivity over short exact sequences.

Over a base ring with a square-zero element the additivity of graded
traces breaks once the compatibility squares are only required to
commute up to homotopy; over a reduced base the homotopy-commuting
triples stay additive, and no amount of desk-scale searching turns up a
violation.  This module provides both sides of that experiment:

  * build_counterexample — the minimal violating instance, available
    over any ring that has a square-zero element;
  * search_violation — exhaustive or seeded-random sweeps over
    extensions and endomorphism triples, counting examined triples with
    nonzero trace defect;
  * certify — an independent from-scratch re-check of a reported
    violation, so a search hit is never taken on the search's word.

What counts: a triple is *examined* when all three of its squares
commute at least up to homotopy — the two visible ones (through the
inclusion and the projection) and the connecting square, which pits the
sub endo against the quotient endo across the sequence's boundary map.
The third square cannot be dropped: already over a field there are
triples whose two visible squares commute up to homotopy while the
traces refuse to add, because nothing ties the outer endos together.
Requiring the boundary square as well makes additivity a theorem over
reduced rings (the outer endos then lift to a strictly commuting,
block-triangular middle endo, and the leftover middle discrepancy is
square-zero on cohomology, hence traceless over a field) — while the
classic square-zero-twist instance still sails through all three
squares with a nonzero defect.  That asymmetry is the whole point.
Verdicts are those of the triple's `AdditivityReport` (ses.check_triple):
examined is `squares_hold`, a violation `is_violation`.  Every logged
search is one stream of such reports, counted and logged by one tally;
unlogged, a randomized trial stops at its first failing square instead
(see search_violation).

Exhaustive mode walks complexes (windows anchored at degree 0 —
traces are blind to shifts) and twists, the twists of one pair (K, M)
sharing its connecting problem Hom(M, K[1]), and counts triples in
closed form, without visiting them (see ses._SesSystem.counts).  It
counts one sequence per extension class: t and t + D(s) give sequences
isomorphic through [[1, s], [0, 1]], so with equal counts, and the
pair's problem keys each twist by its class (coset_key).  Only the
first twist of a class in walk order is built, validated and counted;
each later one adds that count.  Triples are visited one by one only
for a log, which builds every sequence and whose sweep reads the
systems admission built to charge them, and to find the first
violation, on the first sequence with one, always the first of its
class.  Admission charges sequences, not classes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from random import Random
from typing import Callable, Iterable, Iterator, Optional

from .complexes import (
    ChainMap,
    Homotopy,
    PerfectComplex,
    Validation,
    _VALID,
)
from .generate import random_extension
from .homotopy import NullHomotopyProblem, graded_trace
from .linalg import LinearSolver, Matrix
from .rings import RingSpec
from .ses import (
    CocycleSpace,
    EndoTriple,
    ShortExactSequence,
    Violation,
    check_triple,
    make_extension,
    validate_ses,
    _SesSystem,
)

DEFAULT_CEILING = 10_000_000

LogLine = Callable[[str], None]
# one walked extension: its sub complex K, its pair's connecting problem
# Hom(M, K[1]) and its twist M -> K[1]
_Extension = tuple[PerfectComplex, NullHomotopyProblem, ChainMap]


class CeilingExceededError(RuntimeError):
    """Exhaustive enumeration would touch more objects than allowed."""


@dataclass(frozen=True)
class SearchConfig:
    """Bounds and determinism knobs for one search run.

    `max_window` bounds how many consecutive degrees a generated complex
    may occupy, `max_rank` the rank in each degree.  `trials` and `seed`
    drive randomized mode (each trial reseeds as f"{seed}:{trial}", so
    outcomes do not depend on scheduling); `ceiling` bounds exhaustive
    mode's complexes, their ordered pairs and its sequences (with a log
    also triples), each refused from its count before the sweep.
    """

    ring: RingSpec
    max_window: int = 2
    max_rank: int = 1
    trials: int = 10_000
    seed: int | str = 0
    mode: str = "randomized"
    ceiling: int = DEFAULT_CEILING

    def __post_init__(self) -> None:
        if self.mode not in ("exhaustive", "randomized"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.max_window < 1:
            raise ValueError("max_window must be at least 1")
        if self.max_rank < 0 or self.trials < 0 or self.ceiling < 1:
            raise ValueError("bounds must be non-negative (ceiling positive)")


@dataclass(frozen=True)
class SearchOutcome:
    """What a search saw: examined = triples with all three squares
    (left, right, connecting) commuting at least up to homotopy."""

    violations_found: int
    first_violation: Optional[Violation]
    instances_examined: int


# ---------------------------------------------------------------------------
# The minimal violating instance
# ---------------------------------------------------------------------------


def build_counterexample(
        ring: RingSpec) -> tuple[ShortExactSequence, EndoTriple, Homotopy]:
    """The smallest failure of trace additivity up to homotopy.

    Writing x for the ring's square-zero witness: the sub complex is one
    free rank in degree 1, the quotient one free rank in degree 0, glued
    by the twist [[x]] (so the middle is R --x--> R in degrees 0..1).
    The triple is u = 0 on the sub, w = 0 on the quotient, and v with
    v^0 = 0, v^1 = [[x]] on the middle.  The right square commutes
    strictly; the left one only up to the returned homotopy (h^1 = [[1]],
    the identity block); the connecting square is strict outright, both
    outer endos being zero.  The graded traces are 0, -x, 0, so the
    defect is -x, nonzero: additivity fails even though every square
    commutes up to homotopy.  Needs a square-zero element — over a
    reduced ring this instance cannot exist (ValueError).
    """
    x = ring.nilpotent_witness()
    if x is None:
        raise ValueError(f"{ring} is reduced: no square-zero element, so "
                         f"the violating instance cannot be built")
    sub = PerfectComplex.single(ring, 1, 1)
    quo = PerfectComplex.single(ring, 0, 1)
    ses = make_extension(sub, quo, ChainMap.build(
        quo, sub.shift(1), {0: Matrix.from_rows(ring, [[x]])}))
    v = ChainMap.build(ses.middle, ses.middle,
                       {1: Matrix.from_rows(ring, [[x]])})
    triple = EndoTriple(ChainMap.zero(sub, sub), v,
                        ChainMap.zero(quo, quo))
    witness = Homotopy.build(sub, ses.middle,
                             {1: Matrix.identity(ring, 1)})
    return ses, triple, witness


def wrap_instance(ses: ShortExactSequence, triple: EndoTriple) -> SearchOutcome:
    """Classify one concrete instance exactly as the searches would: by
    its check_triple report, examined when its three squares hold and a
    violation when it is one.  Only an actual violation is stored, so the
    result feeds straight into certify.
    """
    return _tally([(ses, triple, check_triple(ses, triple))], None)


# ---------------------------------------------------------------------------
# Exhaustive enumeration of complexes
# ---------------------------------------------------------------------------


def _rank_vectors(max_window: int, max_rank: int) -> Iterator[tuple[int, ...]]:
    yield (0,)
    if not max_rank:
        return      # every wider vector has a zero edge rank
    for width in range(1, max_window + 1):
        for vec in itertools.product(range(max_rank + 1), repeat=width):
            # nonzero edge ranks, so each normalised complex shows up once
            if vec[0] and vec[-1]:
                yield vec


def iter_all_complexes(ring: RingSpec, *, max_window: int,
                       max_rank: int) -> Iterator[PerfectComplex]:
    """Every valid complex with window anchored at degree 0, each degree
    of rank at most max_rank, no duplicates (edge ranks nonzero)."""
    for ranks in _rank_vectors(max_window, max_rank):
        yield from _complexes_with_ranks(ring, ranks)


def _complexes_with_ranks(ring: RingSpec, ranks: tuple[int, ...]
                          ) -> Iterator[PerfectComplex]:
    """The complexes with these ranks, differential by differential."""
    n = len(ranks)

    def extend(i: int, prev: Matrix, acc: dict[int, Matrix]
               ) -> Iterator[PerfectComplex]:
        if i == n - 1:
            yield PerfectComplex.build(ring, 0, ranks, dict(acc))
            return
        # rows of the next differential must pair to zero against the
        # columns of the previous one: sample the kernel of its transpose;
        # zero rows have the one empty choice, however big the kernel
        rows, cols = ranks[i + 1], ranks[i]
        row_choices = (list(LinearSolver(prev.transpose())
                            .iter_solutions(None)) if rows else [])
        for combo in itertools.product(row_choices, repeat=rows):
            d = Matrix(ring, rows, cols,
                       tuple(x for row in combo for x in row))
            acc[i] = d
            yield from extend(i + 1, d, acc)
        acc.pop(i, None)

    yield from extend(0, Matrix.zero(ring, ranks[0], 0), {})


# ---------------------------------------------------------------------------
# The search drivers
# ---------------------------------------------------------------------------


def _tally(classified: Iterable[Violation],
           log: Optional[LogLine]) -> SearchOutcome:
    """Count a stream of classified triples, logging one line each:
    "index<TAB>left+right+connecting<TAB>defect"."""
    examined = violations = 0
    first: Optional[Violation] = None
    for index, (ses, triple, report) in enumerate(classified):
        if log is not None:
            log(f"{index}\t{report.left.describe()}+"
                f"{report.right.describe()}+"
                f"{report.connecting.describe()}\t{report.defect}")
        if not report.squares_hold:
            continue             # a failing square: discarded, not examined
        examined += 1
        if report.defect:
            violations += 1
            if first is None:
                first = (ses, triple, report)
    return SearchOutcome(violations, first, examined)


def _capped_power(base: int, exp: int, cap: int) -> int:
    """base ** exp, or cap + 1 once 2 ** exp alone passes cap, so that a
    huge exponent builds no huge integer; exact for comparing with cap
    when base >= 2."""
    return base ** exp if exp < cap.bit_length() else cap + 1


def _ceiling_error(ceiling: int) -> CeilingExceededError:
    return CeilingExceededError(
        f"more than {ceiling} complexes in range; raise the ceiling or "
        f"shrink the bounds")


def _budget_error(ceiling: int, total: int) -> CeilingExceededError:
    return CeilingExceededError(
        f"exhaustive enumeration needs more than {ceiling} objects "
        f"(at least {total}); raise the ceiling or shrink the bounds")


def _admitted_walk(cfg: SearchConfig, *, per_triple: bool
                   ) -> Iterator[_Extension] | Iterator[_SesSystem]:
    """The walk of an exhaustive search, returned once its run is
    measured against the ceiling from counts: its extensions, or
    per_triple their systems, each built once.  Every refusal of
    exhaustive mode is raised here, before the sweep, at the first count
    that passes the ceiling:
      1. a lower bound on the complexes in range, with no factorisation:
         the closed-form number of rank vectors, then their sum, where
         (r0, r1, ...) gives at least |R|^(r0 r1) complexes, one per
         first differential extended by zeros;
      2. the complexes listed;
      3. their ordered pairs, each with at least the zero twist;
      4. the sequences, or per_triple each plus its triples, charged
         from the endo spaces of the very systems the sweep then reads.

    The walk needs no check of its own: a step has kernel_count ** rows
    <= |R|^(rows cols) <= |R|^(max_rank^2) choices of differential, and
    when any step exists (max_window >= 2, max_rank >= 1) the vector
    (max_rank, max_rank) adds exactly that to the sum of 1.
    """
    r, ceiling = cfg.max_rank, cfg.ceiling
    # 1 + r (r+1)^(w-1) rank vectors: (0,), then r^2 (r+1)^(k-2) of each
    # width k >= 2 and r of width 1, all edge ranks nonzero
    if 1 + r * _capped_power(r + 1, cfg.max_window - 1, ceiling) > ceiling:
        raise _ceiling_error(ceiling)
    bound = 0
    for ranks in _rank_vectors(cfg.max_window, r):
        first = ranks[0] * ranks[1] if len(ranks) > 1 else 0
        bound += _capped_power(cfg.ring.cardinality, first, ceiling)
        if bound > ceiling:
            raise _ceiling_error(ceiling)
    all_cs = list(itertools.islice(
        iter_all_complexes(cfg.ring, max_window=cfg.max_window, max_rank=r),
        ceiling + 1))
    if len(all_cs) > ceiling:
        raise _ceiling_error(ceiling)
    pairs = len(all_cs) ** 2
    if pairs > ceiling:
        raise _budget_error(ceiling, pairs)
    walk: Iterator[_Extension] | Iterator[_SesSystem] = _walk(all_cs)
    if per_triple:
        walk, charged = itertools.tee(itertools.starmap(_system, walk))
        charges = (1 + s.u_space.count * s.v_space.count * s.w_space.count
                   for s in charged)
    else:
        # the sweep factors each twist space again, at 0.2% of its time;
        # holding Z/2 w3r2's 31,329 instead would keep 43 MiB
        charges = (CocycleSpace(k, m).count for k in all_cs for m in all_cs)
    for total in itertools.accumulate(charges):
        if total > ceiling:
            raise _budget_error(ceiling, total)
    return walk


def _walk(all_cs: list[PerfectComplex]) -> Iterator[_Extension]:
    """Every extension of one complex in `all_cs` by another, in order, as
    (K, conn_prob, twist): the twists of one pair (K, M) share its
    connecting problem Hom(M, K[1]), built once before them."""
    for sub in all_cs:
        for quo in all_cs:
            conn_prob = NullHomotopyProblem(quo, sub.shift(1))
            for twist in CocycleSpace(sub, quo).iter_all():
                yield sub, conn_prob, twist


def _system(sub: PerfectComplex, conn_prob: NullHomotopyProblem,
            twist: ChainMap) -> _SesSystem:
    """The system of one walked extension, which reads its pair's
    connecting problem.  It is valid by construction: a failing one is a
    bug, not a sequence to skip."""
    ses = make_extension(sub, conn_prob.source, twist)
    check = validate_ses(ses)
    if not check:
        raise RuntimeError(f"generated sequence fails validation: "
                           f"{check.message}; construction bug")
    return _SesSystem(ses, conn_prob)


def _search_exhaustive(cfg: SearchConfig,
                       log: Optional[LogLine]) -> SearchOutcome:
    # a log visits every triple one by one, so it is budgeted per triple
    walk = _admitted_walk(cfg, per_triple=log is not None)
    if log is not None:
        return _tally((c for s in walk for c in s.triples()), log)
    examined = violations = 0
    first: Optional[Violation] = None
    for conn_prob, extensions in itertools.groupby(walk, lambda e: e[1]):
        # keys are not canonical across solvers: one pair's at a time
        classes: dict[tuple[int, ...], tuple[int, int]] = {}
        for sub, _, twist in extensions:
            key = conn_prob.coset_key(twist)
            counts = classes.get(key)
            if counts is None:
                # the first twist of its class; t + D(s) gives a sequence
                # isomorphic to t's, with the same counts
                system = _system(sub, conn_prob, twist)
                counts = classes[key] = system.counts()
                if counts[1] and first is None:
                    # the only triples visited: up to the first violation
                    # of the first sequence that has one, which is the
                    # first of its class
                    first = system.first_violation()
                    if first is None:
                        raise RuntimeError("kernel counts promised a "
                                           "violation that the scan did "
                                           "not find; counting bug")
            examined += counts[0]
            violations += counts[1]
    return SearchOutcome(violations, first, examined)


def _trials(cfg: SearchConfig
            ) -> Iterator[tuple[_SesSystem, Random, ChainMap, ChainMap]]:
    """Each randomized trial's system, its rng and its draws u and v; the
    trial reseeds as f"{seed}:{trial}", so no draw depends on another
    trial's."""
    for trial in range(cfg.trials):
        rng = Random(f"{cfg.seed}:{trial}")
        system = _SesSystem(random_extension(
            rng, cfg.ring, max_window=cfg.max_window, max_rank=cfg.max_rank))
        u = system.u_space.sample(rng)
        yield system, rng, u, system.v_space.sample(rng)


def _search_randomized(cfg: SearchConfig,
                       log: Optional[LogLine]) -> SearchOutcome:
    trials = _trials(cfg)
    if log is not None:     # a line shows all three squares of every trial
        return _tally((s.classify(EndoTriple(u, v, s.w_space.sample(rng)))
                       for s, rng, u, v in trials), log)
    examined = violations = 0
    first: Optional[Violation] = None
    for system, rng, u, v in trials:
        # each square is decided once the one before holds; w is the
        # trial's last draw, so skipping it moves no other
        if not system.left(u, v).holds:
            continue
        w = system.w_space.sample(rng)
        if not (system.right(v, w).holds and system.connecting(u, w).holds):
            continue
        examined += 1
        if graded_trace(v) - graded_trace(u) - graded_trace(w):
            violations += 1
            first = first or system.classify(EndoTriple(u, v, w))
    return SearchOutcome(violations, first, examined)


def search_violation(cfg: SearchConfig,
                     log: Optional[LogLine] = None) -> SearchOutcome:
    """Sweep extensions and endomorphism triples, counting violations.

    A triple is *examined* when its left, right and connecting squares
    all commute at least up to homotopy (without a log, a randomized
    trial decides them in that order and stops at the first that fails);
    it is a *violation* when it is examined and its trace defect is
    nonzero.  Deterministic given the config, including across log
    settings — except that `log`, when given, receives one line per
    classified triple ("index<TAB>left+right+connecting<TAB>defect"):
    every triple gets its full report, which in exhaustive mode forces
    the slow one-by-one sweep and a per-triple budget.  Exhaustive mode
    raises CeilingExceededError before its sweep when a count passes
    cfg.ceiling.
    """
    if cfg.mode == "exhaustive":
        return _search_exhaustive(cfg, log)
    return _search_randomized(cfg, log)


# ---------------------------------------------------------------------------
# Independent re-checking of search hits
# ---------------------------------------------------------------------------


def certify(outcome: SearchOutcome) -> Validation:
    """Re-derive everything a stored violation claims, from scratch.

    Runs validate_ses on a copy of the sequence, so that its boundary is
    derived anew, and re-decides the endos and all three squares via a
    fresh check_triple (whose homotopy witnesses are re-evaluated against
    their defining equation).  Then confirms the defect is nonzero and
    that the defect and each square's strictness match the stored
    report.  ValueError when the outcome carries no violation to
    certify.
    """
    if outcome.first_violation is None:
        raise ValueError("outcome holds no violation to certify")
    ses, triple, stored = outcome.first_violation
    ses = replace(ses)
    v = validate_ses(ses)
    if not v:
        return Validation(False, "ses", v.degree,
                          f"sequence fails re-validation: {v.message}")
    try:
        fresh = check_triple(ses, triple)
    except ValueError as exc:
        return Validation(False, "endo", None, str(exc))
    if not (fresh.left.holds and fresh.right.holds):
        return Validation(False, "square", None,
                          "a visible square does not commute up to homotopy")
    if not fresh.connecting.holds:
        return Validation(False, "square", None,
                          "the connecting square does not commute up to "
                          "homotopy")
    if not fresh.defect:
        return Validation(False, "defect", None,
                          "defect is zero: not a violation")
    if (fresh.defect != stored.defect
            or fresh.left.strict != stored.left.strict
            or fresh.right.strict != stored.right.strict
            or fresh.connecting.strict != stored.connecting.strict):
        return Validation(False, "mismatch", None,
                          "stored report disagrees with recomputation")
    return _VALID
