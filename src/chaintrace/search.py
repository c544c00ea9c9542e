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

Exhaustive mode enumerates complexes (windows anchored at degree 0 —
traces are blind to shifts) and twists, then counts each sequence's
triples without visiting them.  Every condition is linear in (u, v, w)
once each square carries its homotopy as an unknown: the chain-map
equations, "difference = D(h)" per square, and for the additive count
the defect row.  So examined and additive triples are kernel counts of
one Hom-complex system, two factorisations per sequence (see
_SesSystem.counts).  Triples are visited one by one only for a log and
to find the first violation, on the first sequence that has one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import prod
from random import Random
from typing import Callable, Iterable, Iterator, Optional

from .complexes import (
    ChainMap,
    ChainMapSpace,
    Homotopy,
    PerfectComplex,
    Validation,
    _VALID,
    _Term,
    _d_terms,
    _hom_matrix,
    _hom_slots,
)
from .generate import random_extension
from .linalg import LinearSolver, Matrix
from .rings import RingSpec
from .ses import (
    AdditivityReport,
    CocycleSpace,
    EndoTriple,
    ShortExactSequence,
    SquareStatus,
    check_triple,
    connecting_square,
    make_extension,
    validate_ses,
    _SequenceSquares,
)

DEFAULT_CEILING = 10_000_000

Violation = tuple[ShortExactSequence, EndoTriple, AdditivityReport]
LogLine = Callable[[str], None]


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
    ses = make_extension(sub, quo,
                         {0: Matrix.from_rows(ring, [[x]])})
    v = ChainMap.build(ses.middle, ses.middle,
                       {1: Matrix.from_rows(ring, [[x]])})
    triple = EndoTriple(ChainMap.zero(sub, sub), v,
                        ChainMap.zero(quo, quo))
    witness = Homotopy.build(sub, ses.middle,
                             {1: Matrix.identity(ring, 1)})
    return ses, triple, witness


def wrap_instance(ses: ShortExactSequence, triple: EndoTriple) -> SearchOutcome:
    """Classify one concrete instance exactly as the searches would.

    Examined when the two visible squares and the connecting square all
    commute at least up to homotopy; a violation when examined with
    nonzero defect.  Only an actual violation is stored, so the result
    feeds straight into certify.
    """
    report = check_triple(ses, triple)
    conn = connecting_square(ses, triple.on_sub, triple.on_quotient)
    return _tally([(ses, triple, report, conn)], None)


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
        # columns of the previous one: sample the kernel of its transpose
        solver = LinearSolver(prev.transpose())
        rows, cols = ranks[i + 1], ranks[i]
        zero_rhs = [ring.zero()] * prev.cols
        # zero rows have the one empty choice, however big the kernel
        row_choices = list(solver.iter_solutions(zero_rhs)) if rows else []
        for combo in itertools.product(row_choices, repeat=rows):
            d = Matrix(ring, rows, cols,
                       tuple(x for row in combo for x in row))
            acc[i] = d
            yield from extend(i + 1, d, acc)
        acc.pop(i, None)

    yield from extend(0, Matrix.zero(ring, ranks[0], 0), {})


# ---------------------------------------------------------------------------
# One short exact sequence: its triples one by one, or counted in one go
# ---------------------------------------------------------------------------

Classified = tuple[ShortExactSequence, EndoTriple, AdditivityReport,
                   SquareStatus]


class _SesSystem(_SequenceSquares):
    """One sequence's square context plus its three endo spaces, each
    built on first use: `counts` builds no endo space, and a randomized
    trial whose squares all commute on the nose builds no problem."""

    @cached_property
    def u_space(self) -> ChainMapSpace:
        return ChainMapSpace(self.ses.sub, self.ses.sub)

    @cached_property
    def v_space(self) -> ChainMapSpace:
        return ChainMapSpace(self.ses.middle, self.ses.middle)

    @cached_property
    def w_space(self) -> ChainMapSpace:
        return ChainMapSpace(self.ses.quotient, self.ses.quotient)

    def classify(self, triple: EndoTriple) -> Classified:
        """Decide the three squares of one triple, each with a witness,
        and its trace defect: the one per-triple check of every mode, as
        check_triple and connecting_square but without endo validation."""
        return (self.ses, triple, self.visible(triple),
                self.connecting(triple.on_sub, triple.on_quotient))

    def triples(self) -> Iterator[Classified]:
        """Every triple, classified, in enumeration order: middle endo,
        then sub endo, then quotient endo.  The slow oracle of counts."""
        for v in self.v_space.iter_all():
            for u in self.u_space.iter_all():
                for w in self.w_space.iter_all():
                    yield self.classify(EndoTriple(u, v, w))

    def first_violation(self) -> Optional[Violation]:
        """The first examined triple with nonzero defect, or None."""
        for ses, triple, report, conn in self.triples():
            if report.squares_hold and conn.holds and report.defect:
                return ses, triple, report
        return None

    def matrix(self) -> Matrix:
        """B of `counts` with the defect row last: block rows D(u), D(v),
        D(w) and each square's difference minus D(h), in (u, v, w, h_L,
        h_R, h_C), all written by `_hom_matrix`."""
        ses, ring = self.ses, self.ses.ring
        j, q, delta = ses.inclusion, ses.projection, self.delta
        complexes = (ses.sub, ses.middle, ses.quotient)
        endo_slots = [_hom_slots(k, k, 0) for k in complexes]
        probs = (self.left_prob, self.right_prob, self.conn_prob)
        # unknowns 0..2 are u, v, w and 3..5 the homotopies h_L, h_R, h_C;
        # the squares' differences are v j - j u, q v - w q, u[1] delta -
        # delta w
        squares = ([_Term(1, j.comp, left=False), _Term(0, j.comp, sign=-1)],
                   [_Term(1, q.comp), _Term(2, q.comp, left=False, sign=-1)],
                   [_Term(0, delta.comp, shift=1, left=False),
                    _Term(2, delta.comp, sign=-1)])
        block_rows = [(_hom_slots(k, k, 1), _d_terms(k, k, 0, i))
                      for i, k in enumerate(complexes)]
        block_rows += [(p.eq_slots,
                        terms + _d_terms(p.source, p.target, -1, 3 + i, -1))
                       for i, (p, terms) in enumerate(zip(probs, squares))]
        b = _hom_matrix(ring, endo_slots + [p.var_slots for p in probs],
                        block_rows)
        # tr v - tr u - tr w: +-(-1)^n on the diagonals of the endo blocks
        defect = [ring.zero()] * b.cols
        pos = 0
        for sign, slots in zip((-1, 1, -1), endo_slots):
            for n, r, _ in slots:
                x = ring.element(-sign if n % 2 else sign)
                for i in range(r):
                    defect[pos + i * r + i] = x
                pos += r * r
        return Matrix(ring, b.rows + 1, b.cols, b.entries + tuple(defect))

    def counts(self) -> tuple[int, int]:
        """(examined, violations) over all triples, visiting none.

        The examined triples, each with a homotopy (h_L, h_R, h_C) per
        square, are the solutions of one linear system B,

            D(u) = D(v) = D(w) = 0,
            v j - j u = D(h_L),  q v - w q = D(h_R),
            u[1] delta - delta w = D(h_C),

        and the additive ones solve B plus the row tr v - tr u - tr w,
        both written by `matrix` from these terms.  The homotopies of one
        triple form a coset of the three problems' homotopy cycles Z^-1,
        so each kernel is exactly |Z^-1_L| |Z^-1_R| |Z^-1_C| times its
        triple count.
        """
        fibre = prod(p.count for p in (self.left_prob, self.right_prob,
                                       self.conn_prob))
        full = self.matrix()
        b = Matrix(full.ring, full.rows - 1, full.cols,
                   full.entries[:(full.rows - 1) * full.cols])
        examined, additive = (LinearSolver(m).kernel_count for m in (b, full))
        if examined % fibre or additive % fibre:
            raise RuntimeError("kernel count is not a multiple of the "
                               "homotopy cycles; solver bug")
        return examined // fibre, (examined - additive) // fibre


# ---------------------------------------------------------------------------
# The search drivers
# ---------------------------------------------------------------------------


def _tally(classified: Iterable[Classified],
           log: Optional[LogLine]) -> SearchOutcome:
    """Count a stream of classified triples, logging one line each."""
    examined = violations = 0
    first: Optional[Violation] = None
    for index, (ses, triple, report, conn) in enumerate(classified):
        if log is not None:
            log(f"{index}\t{report.left.describe()}+{report.right.describe()}"
                f"+{conn.describe()}\t{report.defect}")
        if not (report.squares_hold and conn.holds):
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


def _admitted_complexes(cfg: SearchConfig, *, per_triple: bool
                        ) -> list[PerfectComplex]:
    """The complexes of an exhaustive search, listed once its run is
    measured against the ceiling from counts.  Every refusal of
    exhaustive mode is raised here, before the sweep, at the first count
    that passes the ceiling:
      1. a lower bound on the complexes in range, with no factorisation:
         the closed-form number of rank vectors, then their sum, where
         (r0, r1, ...) gives at least |R|^(r0 r1) complexes, one per
         first differential extended by zeros;
      2. the complexes listed;
      3. their ordered pairs, each with at least the zero twist;
      4. the sequences, or per_triple each plus its triples.

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
    if per_triple:
        n_endo = {k: ChainMapSpace(k, k).count for k in all_cs}
        charges = (1 + n_endo[s.sub] * n_endo[s.quotient]
                   * ChainMapSpace(s.middle, s.middle).count
                   for s in _iter_extensions(all_cs))
    else:
        charges = (CocycleSpace(k, m).count for k in all_cs for m in all_cs)
    for total in itertools.accumulate(charges):
        if total > ceiling:
            raise _budget_error(ceiling, total)
    return all_cs


def _iter_extensions(all_cs: list[PerfectComplex]
                     ) -> Iterator[ShortExactSequence]:
    """All extensions of one complex in `all_cs` by another, in order."""
    for sub in all_cs:
        for quo in all_cs:
            for twist in CocycleSpace(sub, quo).iter_all():
                yield make_extension(sub, quo, twist)


def _generated_system(ses: ShortExactSequence) -> _SesSystem:
    """The system of a sequence built by make_extension, which is valid
    by construction: a failing one is a bug, not a sequence to skip."""
    check = validate_ses(ses)
    if not check:
        raise RuntimeError(f"generated sequence fails validation: "
                           f"{check.message}; construction bug")
    return _SesSystem(ses)


def _search_exhaustive(cfg: SearchConfig,
                       log: Optional[LogLine]) -> SearchOutcome:
    # a log visits every triple one by one, so it is budgeted per triple
    all_cs = _admitted_complexes(cfg, per_triple=log is not None)
    systems = map(_generated_system, _iter_extensions(all_cs))
    if log is not None:
        return _tally((c for s in systems for c in s.triples()), log)
    examined = violations = 0
    first: Optional[Violation] = None
    for system in systems:
        ex, vi = system.counts()
        examined += ex
        violations += vi
        if vi and first is None:
            # the only triples visited: up to the first violation of the
            # first sequence that has one
            first = system.first_violation()
            if first is None:
                raise RuntimeError("kernel counts promised a violation "
                                   "that the scan did not find; counting "
                                   "bug")
    return SearchOutcome(violations, first, examined)


def _random_triples(cfg: SearchConfig) -> Iterator[Classified]:
    for trial in range(cfg.trials):
        rng = Random(f"{cfg.seed}:{trial}")
        system = _SesSystem(random_extension(
            rng, cfg.ring, max_window=cfg.max_window, max_rank=cfg.max_rank))
        u = system.u_space.sample(rng)
        v = system.v_space.sample(rng)
        w = system.w_space.sample(rng)
        yield system.classify(EndoTriple(u, v, w))


def search_violation(cfg: SearchConfig,
                     log: Optional[LogLine] = None) -> SearchOutcome:
    """Sweep extensions and endomorphism triples, counting violations.

    A triple is *examined* when its left, right and connecting squares
    all commute at least up to homotopy (anything else is discarded
    unexamined); it is a *violation* when it is examined and its trace
    defect is nonzero.  Deterministic given the config, including across
    log settings — except that `log`, when given, receives one line per
    classified triple ("index<TAB>left+right+connecting<TAB>defect"),
    which in exhaustive mode forces the slow one-by-one sweep and a
    per-triple budget.  Exhaustive mode raises CeilingExceededError
    before its sweep when a count passes cfg.ceiling.
    """
    if cfg.mode == "exhaustive":
        return _search_exhaustive(cfg, log)
    return _tally(_random_triples(cfg), log)


# ---------------------------------------------------------------------------
# Independent re-checking of search hits
# ---------------------------------------------------------------------------


def certify(outcome: SearchOutcome) -> Validation:
    """Re-derive everything a stored violation claims, from scratch.

    Runs validate_ses, re-validates the endos and both visible squares
    via a fresh check_triple (whose homotopy witnesses are re-evaluated
    against their defining equation), re-decides the connecting square,
    and confirms the defect is nonzero and matches the stored report.
    ValueError when the outcome carries no violation to certify.
    """
    if outcome.first_violation is None:
        raise ValueError("outcome holds no violation to certify")
    ses, triple, stored = outcome.first_violation
    v = validate_ses(ses)
    if not v:
        return Validation(False, "ses", v.degree,
                          f"sequence fails re-validation: {v.message}")
    try:
        fresh = check_triple(ses, triple)
    except ValueError as exc:
        return Validation(False, "endo", None, str(exc))
    if not fresh.squares_hold:
        return Validation(False, "square", None,
                          "a visible square does not commute up to homotopy")
    if not connecting_square(ses, triple.on_sub, triple.on_quotient).holds:
        return Validation(False, "square", None,
                          "the connecting square does not commute up to "
                          "homotopy")
    if not fresh.defect:
        return Validation(False, "defect", None,
                          "defect is zero: not a violation")
    if (fresh.defect != stored.defect
            or fresh.left.strict != stored.left.strict
            or fresh.right.strict != stored.right.strict):
        return Validation(False, "mismatch", None,
                          "stored report disagrees with recomputation")
    return _VALID
