"""Short exact sequences of complexes and trace additivity bookkeeping.

A short exact sequence here is a sub-complex, a middle complex and a
quotient complex joined by an inclusion and a projection that are exact
degree by degree.  Exactness is certified by counting: the inclusion must
have trivial kernel and the projection must be onto, which with ranks that
add up and a zero composite makes the middle exact.  The counts come from
the shared solver, so the verdicts are exact.

The other half of the module measures endomorphism triples (one endo per
complex) against such a sequence: do its three squares commute, strictly
or up to chain homotopy, and do the graded traces add up?  Two squares
are visible, through the inclusion and the projection; the third pits
the sub endo against the quotient endo across the boundary map from the
quotient into the shifted sub complex (for an extension in block form,
the glueing twist), and it is what separates genuine additivity failures
from bookkeeping artifacts.  An `AdditivityReport` holds all three with
their witnesses; its `is_violation` is the search module's verdict.

One private system per sequence, `_SesSystem`, holds its boundary,
square problems and endo spaces; it reports on triples for every search
mode, draws the fillers of strict triples, and counts triples without
visiting them: with one homotopy per square as an unknown, every
condition on (u, v, w) is linear, so examined triples are the kernel of
one Hom-complex system, and additive ones the kernel of the trace
defect on it, both read off one elimination (see _SesSystem.counts).
For a sequence in block form, as make_extension builds them, the
visible squares' differences are read off the middle endo's blocks,
with no product through the inclusion or the projection.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import prod
from random import Random
from typing import Iterator, Optional

from .complexes import (
    ChainMap,
    ChainMapSpace,
    HomComplex,
    PerfectComplex,
    Validation,
    _VALID,
    _Term,
    _d_terms,
    _hom_d,
    _hom_matrix,
    _hom_slots,
    _twisted_sum,
)
from .homotopy import Homotopy, NullHomotopyProblem, graded_trace
from .linalg import IntegerSystem, LinearSolver, Matrix
from .rings import RingElem


@dataclass(frozen=True)
class ShortExactSequence:
    """sub >--inclusion--> middle --projection-->> quotient."""

    sub: PerfectComplex
    middle: PerfectComplex
    quotient: PerfectComplex
    inclusion: ChainMap
    projection: ChainMap

    @property
    def ring(self):
        return self.middle.ring

    # connecting_map's boundary and the block-form marker, kept outside the
    # fields, so that ==, hash and repr do not see them; make_extension
    # stores the twist it validated and True
    @cached_property
    def _in_block_form(self) -> bool:
        """The inclusion and projection are the block injection [I; 0] and
        projection [0 | I] of a middle laid out as sub (+) quotient."""
        return (self.inclusion, self.projection) == _block_maps(
            self.sub, self.quotient, self.middle)

    @cached_property
    def _delta(self) -> ChainMap:
        # the section as a degree-0 element of Hom(M, L), not a chain map
        s = ChainMap.build(self.quotient, self.middle, find_section(self))
        return _boundary(ChainMap.build(self.quotient, self.sub.shift(1), {
            n: _solve_columns(
                self.inclusion.comp(n + 1), ds,
                f"no boundary at degree {n}: is the sequence exact?")
            for n, ds in _hom_d(self.quotient, self.middle, 0, s.comp)
            if self.sub.rank(n + 1)}))


def validate_ses(ses: ShortExactSequence) -> Validation:
    """Full structural check, reporting the first failure and its degree.

    Order: rings agree, the maps connect the right complexes, the three
    complexes are complexes, the two maps are chain maps, the composite
    is zero, ranks add up degreewise, and finally exactness by counting
    (inclusion injective, projection surjective; with the ranks and the
    zero composite, that makes the middle exact too).
    """
    rings = {ses.sub.ring, ses.middle.ring, ses.quotient.ring}
    if len(rings) != 1:
        return Validation(False, "ring", None,
                          "the three complexes live over different rings")
    if (ses.inclusion.source != ses.sub
            or ses.inclusion.target != ses.middle):
        return Validation(False, "structure", None,
                          "inclusion does not run sub -> middle")
    if (ses.projection.source != ses.middle
            or ses.projection.target != ses.quotient):
        return Validation(False, "structure", None,
                          "projection does not run middle -> quotient")
    for name, k in (("sub", ses.sub), ("middle", ses.middle),
                    ("quotient", ses.quotient)):
        v = k.validate()
        if not v:
            return Validation(False, "complex", v.degree,
                              f"{name} complex invalid: {v.message}")
    for name, f in (("inclusion", ses.inclusion),
                    ("projection", ses.projection)):
        v = f.validate()
        if not v:
            return Validation(False, "chain-map", v.degree,
                              f"{name} is not a chain map: {v.message}")
    if not (ses.projection @ ses.inclusion).is_zero():
        return Validation(False, "compose", None,
                          "projection after inclusion is nonzero")
    lo, hi = min(ses.sub.lo, ses.middle.lo, ses.quotient.lo), \
        max(ses.sub.hi, ses.middle.hi, ses.quotient.hi)
    for n in range(lo, hi + 1):
        if ses.sub.rank(n) + ses.quotient.rank(n) != ses.middle.rank(n):
            return Validation(False, "rank", n,
                              f"ranks at degree {n} do not add up")
    card = ses.ring.cardinality
    for n in range(lo, hi + 1):
        j = LinearSolver(ses.inclusion.comp(n))
        if j.kernel_count != 1:
            return Validation(False, "exact", n,
                              f"inclusion has a kernel at degree {n}")
        q = LinearSolver(ses.projection.comp(n))
        if q.image_count != card ** ses.quotient.rank(n):
            return Validation(False, "exact", n,
                              f"projection not onto at degree {n}")
        # exact in the middle: q j = 0 and |im j| = |ker q| = |R|^rank K
    return _VALID


def _solve_columns(mat: Matrix, rhs: Matrix, failure: str,
                   first: bool = False) -> Matrix:
    """The matrix X with mat @ X = rhs, solved column by column through
    one factorisation of `mat`: each column is solve's witness or, with
    `first`, the first solution iter_solutions yields.  ValueError(failure)
    when some column of rhs has no preimage, RuntimeError when the
    solver's answer fails mat @ X = rhs."""
    solver = LinearSolver(mat)
    cols: list[tuple[RingElem, ...]] = []
    for c in range(rhs.cols):
        b = [rhs.entry(r, c) for r in range(rhs.rows)]
        x = (next(solver.iter_solutions(b), None) if first
             else solver.solve(b).witness)
        if x is None:
            raise ValueError(failure)
        cols.append(x)
    x = Matrix(mat.ring, mat.cols, rhs.cols,
               tuple(cols[c][r] for r in range(mat.cols)
                     for c in range(rhs.cols)))
    if mat @ x != rhs:
        raise RuntimeError("column solution fails re-evaluation; solver bug")
    return x


def find_section(ses: ShortExactSequence) -> dict[int, Matrix]:
    """Degreewise right inverse of the projection, solved column by column.

    Returns one matrix per degree where the quotient has positive rank,
    with projection @ section = identity there.  The section is a module
    map only, not a chain map in general.  Each column is the first of
    iter_solutions, so the section and the boundary derived from it do not
    move with solve's witnesses.  Raises ValueError when some column has
    no preimage (i.e. the projection is not onto).
    """
    out: dict[int, Matrix] = {}
    for n in ses.quotient.degrees():
        rq = ses.quotient.rank(n)
        if rq:
            out[n] = _solve_columns(
                ses.projection.comp(n), Matrix.identity(ses.ring, rq),
                f"projection misses a basis vector at degree {n}",
                first=True)
    return out


def connecting_map(ses: ShortExactSequence) -> ChainMap:
    """The boundary of the sequence: a chain map quotient -> sub.shift(1).

    make_extension keeps the twist it was given and checked.  Any other
    sequence derives it once, as the connecting homomorphism of Hom(M, -):
    a degreewise section s of the projection q (find_section) has
    q D(s) = 0 for D(s) = d_middle s - s d_quotient, so D(s) lands in the
    image of the inclusion j, and delta is the unique solution of

        j^(n+1) delta^n = d_middle^n s^n - s^(n+1) d_quotient^n

    (unique because j is injective).  For a block-form extension the
    section is [0; I] and delta is its twist.  A different section
    changes delta by a null-homotopic map only, so everything downstream
    asks about null-homotopy classes.  ValueError when no delta exists
    (the sequence is not exact) or when it breaks its chain condition
    (the middle is not a complex); run validate_ses first when in doubt.
    """
    return ses._delta


# ---------------------------------------------------------------------------
# Endomorphism triples over a short exact sequence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EndoTriple:
    """One chain endomorphism per complex of a short exact sequence."""

    on_sub: ChainMap
    on_middle: ChainMap
    on_quotient: ChainMap


@dataclass(frozen=True)
class SquareStatus:
    """How one of the three compatibility squares commutes.

    `strict` means the two composites around the square agree on the
    nose; `witness` is a null-homotopy of their difference if one exists
    (for a strict square that is the zero homotopy, which is what the
    solver would return for a zero right-hand side, so a strict square
    is decided without building or factoring any problem).  A square
    with witness None does not even commute up to homotopy.
    """

    strict: bool
    witness: Optional[Homotopy]

    @property
    def holds(self) -> bool:
        return self.witness is not None

    def describe(self) -> str:
        if self.strict:
            return "strict"
        if self.witness is not None:
            return "homotopy"
        return "none"


@dataclass(frozen=True)
class AdditivityReport:
    """Everything check_triple measured about one endomorphism triple: its
    left, right and connecting squares and its graded traces."""

    left: SquareStatus
    right: SquareStatus
    connecting: SquareStatus
    sub_trace: RingElem
    middle_trace: RingElem
    quotient_trace: RingElem
    defect: RingElem            # middle - sub - quotient

    @property
    def squares_hold(self) -> bool:
        """All three squares, left, right and connecting, commute at least
        up to homotopy: the triple is examined."""
        return self.left.holds and self.right.holds and self.connecting.holds

    @property
    def additive(self) -> bool:
        return not self.defect

    @property
    def is_violation(self) -> bool:
        """All three squares commute at least up to homotopy, yet the
        graded traces fail to add up: an examined triple with nonzero
        defect, which a reduced ring never has."""
        return self.squares_hold and not self.additive


Violation = tuple[ShortExactSequence, EndoTriple, AdditivityReport]


class _SesSystem:
    """Everything asked of one sequence K -> L -> M (endos assumed to be
    chain endomorphisms): its boundary delta, a null-homotopy problem per
    square, left K -> L and right L -> M of the sequence, connecting
    M -> K[1] of its pair (K, M), which the pair's sequences may share
    as `conn_prob`, and its three endo spaces.  Each is built on first
    use unless given: a triple whose squares all commute on the nose
    builds no problem, and `counts` builds no endo space.  In block form
    the left and right squares' differences are read off v's blocks;
    any other sequence composes v with j and q."""

    def __init__(self, ses: ShortExactSequence,
                 conn_prob: Optional[NullHomotopyProblem] = None):
        self.ses = ses
        if conn_prob is not None:
            self.conn_prob = conn_prob

    @cached_property
    def delta(self) -> ChainMap:
        return connecting_map(self.ses)

    @cached_property
    def left_prob(self) -> NullHomotopyProblem:
        return NullHomotopyProblem(self.ses.sub, self.ses.middle)

    @cached_property
    def right_prob(self) -> NullHomotopyProblem:
        return NullHomotopyProblem(self.ses.middle, self.ses.quotient)

    @cached_property
    def conn_prob(self) -> NullHomotopyProblem:
        return NullHomotopyProblem(self.ses.quotient, self.ses.sub.shift(1))

    @cached_property
    def u_space(self) -> ChainMapSpace:
        return ChainMapSpace(self.ses.sub, self.ses.sub)

    @cached_property
    def v_space(self) -> ChainMapSpace:
        return ChainMapSpace(self.ses.middle, self.ses.middle)

    @cached_property
    def w_space(self) -> ChainMapSpace:
        return ChainMapSpace(self.ses.quotient, self.ses.quotient)

    def _square(self, diff: ChainMap, problem: str) -> SquareStatus:
        """One square from the difference of its two composites, each *_diff
        read as "through the middle endo (or the shifted sub endo), minus the
        other way around", so a witness h has d h + h d = diff; `problem`
        names the attribute holding its null-homotopy problem."""
        if diff.is_zero():
            return SquareStatus(True, Homotopy.zero(diff.source, diff.target))
        return SquareStatus(False, getattr(self, problem).solve_for(diff))

    def report(self, triple: EndoTriple) -> AdditivityReport:
        """The three squares, each with a witness, and the traces of one
        triple: the per-triple check of exhaustive sweeps, logs and first
        violations, as check_triple but without endo validation."""
        u, v, w = triple.on_sub, triple.on_middle, triple.on_quotient
        tu, tv, tw = graded_trace(u), graded_trace(v), graded_trace(w)
        return AdditivityReport(self.left(u, v), self.right(v, w),
                                self.connecting(u, w), tu, tv, tw, tv - tu - tw)

    def left_diff(self, u: ChainMap, v: ChainMap) -> ChainMap:
        """v j - j u; in block form [v11 - u; v21] at each degree: the first
        rank(K^n) columns of v^n, less u^n in their first rank(K^n) rows."""
        ses = self.ses
        if not ses._in_block_form:
            return v @ ses.inclusion - ses.inclusion @ u
        comps = []
        for n, un in zip(u.degrees(), u.comps):
            vn, k = v.comp(n), un.cols      # k = rank(K^n), r = rank(L^n)
            r, e, f, out = vn.cols, vn.entries, un.entries, []
            for i in range(r):
                row = e[i * r:i * r + k]
                out += ([x - y for x, y in zip(row, f[i * k:i * k + k])]
                        if i < k else row)
            comps.append(Matrix(ses.ring, r, k, tuple(out)))
        return ChainMap(ses.sub, ses.middle, tuple(comps))

    def left(self, u: ChainMap, v: ChainMap) -> SquareStatus:
        return self._square(self.left_diff(u, v), "left_prob")

    def right_diff(self, v: ChainMap, w: ChainMap) -> ChainMap:
        """q v - w q; in block form [v21 | v22 - w] at each degree: the last
        rank(M^n) rows of v^n, less w^n in their last rank(M^n) columns."""
        ses = self.ses
        if not ses._in_block_form:
            return ses.projection @ v - w @ ses.projection
        comps = []
        for n, vn in zip(v.degrees(), v.comps):
            wn, r = w.comp(n), vn.cols      # r = rank(L^n), m = rank(M^n)
            m, e, g, out = wn.cols, vn.entries, wn.entries, []
            k = r - m
            for t in range(m):
                row = e[(k + t) * r:(k + t + 1) * r]
                out += row[:k]
                out += [x - y for x, y in zip(row[k:], g[t * m:t * m + m])]
            comps.append(Matrix(ses.ring, m, r, tuple(out)))
        return ChainMap(ses.middle, ses.quotient, tuple(comps))

    def right(self, v: ChainMap, w: ChainMap) -> SquareStatus:
        return self._square(self.right_diff(v, w), "right_prob")

    def connecting_diff(self, u: ChainMap, w: ChainMap) -> ChainMap:
        """u[1] delta - delta w, degree by degree: the shifted sub endo is
        u^(n+1) at degree n, so it is read off u without building u[1]."""
        delta = self.delta
        return ChainMap(delta.source, delta.target, tuple(
            u.comp(n + 1) @ f - f @ w.comp(n)
            for n, f in zip(delta.degrees(), delta.comps)))

    def connecting(self, u: ChainMap, w: ChainMap) -> SquareStatus:
        return self._square(self.connecting_diff(u, w), "conn_prob")

    def sample_filler(self, u: ChainMap, w: ChainMap,
                      rng: Random) -> Optional[Homotopy]:
        """A uniform filler t, a Homotopy M -> K[1] of the connecting problem,
        that makes [[u, t], [0, w]] a chain endo of a block-form middle, so
        that both visible squares commute strictly; None if (u, w) has none."""
        diff, problem = self.connecting_diff(u, w), self.conn_prob
        # a filler solves d_sub t - t d_quo = diff, i.e. D(t) = -diff here
        filler = problem.solver.sample_solution(
            [-x for x in problem.flatten(diff)], rng)
        return None if filler is None else Homotopy(
            problem.source, problem.target, problem.to_comps(filler))

    def classify(self, triple: EndoTriple) -> Violation:
        """The triple with its sequence and report: the shape in which the
        search streams triples and stores its first violation."""
        return self.ses, triple, self.report(triple)

    def triples(self) -> Iterator[Violation]:
        """Every triple, classified, in enumeration order: middle endo,
        then sub endo, then quotient endo.  The slow oracle of counts."""
        for v in self.v_space.iter_all():
            for u in self.u_space.iter_all():
                for w in self.w_space.iter_all():
                    yield self.classify(EndoTriple(u, v, w))

    def first_violation(self) -> Optional[Violation]:
        """The first examined triple with nonzero defect, or None."""
        return next((c for c in self.triples() if c[2].is_violation), None)

    def matrix(self) -> IntegerSystem:
        """B of `counts` with the defect row last: block rows D(u), D(v),
        D(w) and each square's difference minus D(h), in (u, v, w, h_L,
        h_R, h_C), all written by `_hom_matrix` as integer rows."""
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
        defect = [0] * b.cols
        pos = 0
        for sign, slots in zip((-1, 1, -1), endo_slots):
            for n, r, _ in slots:
                x = (-sign if n % 2 else sign) % ring.modulus
                for i in range(r):
                    defect[pos + i * r + i] = x
                pos += r * r
        return b.with_row(defect)

    def counts(self) -> tuple[int, int]:
        """(examined, violations) over all triples, visiting none.

        The examined triples, each with a homotopy (h_L, h_R, h_C) per
        square, are the solutions of one linear system B,

            D(u) = D(v) = D(w) = 0,
            v j - j u = D(h_L),  q v - w q = D(h_R),
            u[1] delta - delta w = D(h_C),

        and the additive ones also have L = tr v - tr u - tr w = 0, the
        row that `matrix` writes last.  B is eliminated once: the
        additive solutions are the kernel of L on ker B, so there are
        |ker B| / |L(ker B)| of them, and |L(ker B)| is read off B's own
        logs (LinearSolver.kernel_image_count).  The homotopies of one
        triple form a coset of the three problems' homotopy cycles Z^-1,
        so each count is exactly |Z^-1_L| |Z^-1_R| |Z^-1_C| times its
        triple count.
        """
        fibre = prod(p.count for p in (self.left_prob, self.right_prob,
                                       self.conn_prob))
        full = self.matrix()
        solver = LinearSolver(full.top(full.rows - 1))
        examined = solver.kernel_count
        additive = examined // solver.kernel_image_count(full.a[-1])
        if examined % fibre or additive % fibre:
            raise RuntimeError("kernel count is not a multiple of the "
                               "homotopy cycles; solver bug")
        return examined // fibre, (examined - additive) // fibre


def check_triple(ses: ShortExactSequence,
                 triple: EndoTriple) -> AdditivityReport:
    """Measure one endomorphism triple against the sequence's three squares.

    Checks that each endo really is a chain endomorphism of its complex
    (ValueError otherwise), then decides the left, right and connecting
    squares: strict when the two composites agree, otherwise commuting
    up to homotopy when the difference is null-homotopic, with the
    homotopy kept as a witness.  The connecting square needs the boundary
    (see connecting_map) and, unless it is strict, the problem
    Hom(M, K[1]) in degree -1.  Trace arithmetic is reported regardless
    of the square verdicts.  The sequence itself is not re-validated
    here.
    """
    pairs = ((triple.on_sub, ses.sub, "sub"),
             (triple.on_middle, ses.middle, "middle"),
             (triple.on_quotient, ses.quotient, "quotient"))
    for f, k, name in pairs:
        if f.source != k or f.target != k:
            raise ValueError(f"endo on {name} does not match the {name} "
                             f"complex")
        v = f.validate()
        if not v:
            raise ValueError(f"endo on {name} is not a chain map: "
                             f"{v.message}")
    return _SesSystem(ses).report(triple)


def connecting_square(ses: ShortExactSequence, on_sub: ChainMap,
                      on_quotient: ChainMap) -> SquareStatus:
    """The sequence's third square: the boundary map against the outer endos.

    The two visible squares never see how the sub and quotient endos
    interact across the glueing, and that blind spot is wide: even over a
    field one can cook up triples whose two squares commute up to
    homotopy while the traces refuse to add.  The missing constraint is
    this square — the boundary map `delta` (see connecting_map) must
    intertwine the shifted sub endo with the quotient endo, at least up
    to homotopy.  A triple passing all three squares is additive over
    every reduced ring; a square-zero element in the ring is what lets
    all three hold with a nonzero defect.

    check_triple decides this square as part of its report; this is the
    square alone.  Only the outer endos enter; the middle one is
    irrelevant here.  Endos are assumed to be valid chain endomorphisms
    (check_triple enforces that).
    """
    return _SesSystem(ses).connecting(on_sub, on_quotient)


# ---------------------------------------------------------------------------
# Building extensions: middle = sub (+) quotient with a twisted differential
# ---------------------------------------------------------------------------


def _boundary(delta: ChainMap) -> ChainMap:
    """delta, a map quotient -> sub.shift(1) (a twist, or the boundary that
    connecting_map derived), once checked to be a chain map, which is
    d_sub t + t d_quo = 0; ValueError naming the first failing degree."""
    check = delta.validate()
    if not check:
        raise ValueError(f"twist is not a boundary map: {check.message}")
    return delta


def _block_maps(sub: PerfectComplex, quotient: PerfectComplex,
                middle: PerfectComplex) -> tuple[ChainMap, ChainMap]:
    """The block injection sub -> middle and projection middle ->
    quotient of a middle laid out as sub (+) quotient: the first rank(sub)
    columns and the last rank(quotient) rows of the identity."""
    one, zero = sub.ring.one(), sub.ring.zero()

    def basis(n: int) -> range:     # of sub^n (+) quotient^n
        return range(sub.rank(n) + quotient.rank(n))

    def identity_block(rows: range, cols: range) -> Matrix:
        return Matrix(sub.ring, len(rows), len(cols), tuple(
            one if i == j else zero for i in rows for j in cols))

    return (ChainMap(sub, middle, tuple(
                identity_block(basis(n), basis(n)[:sub.rank(n)])
                for n in sub.degrees())),
            ChainMap(middle, quotient, tuple(
                identity_block(basis(n)[sub.rank(n):], basis(n))
                for n in middle.degrees())))


def make_extension(sub: PerfectComplex, quotient: PerfectComplex,
                   twist: Optional[ChainMap] = None,
                   ) -> ShortExactSequence:
    """Assemble the short exact sequence glued by the twist, a chain map
    quotient -> sub.shift(1) (the zero map when None).

    The middle complex is sub (+) quotient degreewise, with differential

        [ d_sub   twist ]
        [   0     d_quo ]

    It is a complex when the twist is a valid chain map,

        d_sub^(n+1) twist^n + twist^(n+1) d_quo^n = 0,

    and then the twist is the sequence's boundary.  ValueError otherwise,
    or for any other map; CocycleSpace yields exactly the twists that
    pass.  The block inclusion and projection make the sequence exact.
    """
    if sub.ring != quotient.ring:
        raise ValueError("extension needs a common ring")
    for name, k in (("sub", sub), ("quotient", quotient)):
        v = k.validate()
        if not v:
            raise ValueError(f"{name} complex invalid: {v.message}")
    shifted = sub.shift(1)
    twist = ChainMap.zero(quotient, shifted) if twist is None else twist
    if not (isinstance(twist, ChainMap)
            and (twist.source, twist.target) == (quotient, shifted)):
        raise ValueError("twist is not a chain map quotient -> sub.shift(1)")
    delta = _boundary(twist)
    middle = _twisted_sum(sub, quotient, delta.comp)
    ses = ShortExactSequence(sub, middle, quotient,
                             *_block_maps(sub, quotient, middle))
    object.__setattr__(ses, "_delta", delta)
    object.__setattr__(ses, "_in_block_form", True)
    return ses


def extension_twist(ses: ShortExactSequence) -> ChainMap:
    """Read the twist back off an extension in block form: the chain map
    quotient -> sub.shift(1) that make_extension takes.

    Requires the inclusion and projection to be exactly the canonical
    block injection/projection (as produced by make_extension); raises
    ValueError otherwise, because then the top-right block of the middle
    differential has no preferred meaning."""
    if not ses._in_block_form:
        raise ValueError("extension is not in block form")
    sub, mid, quo = ses.sub, ses.middle, ses.quotient
    comps = []
    for n in quo.degrees():
        r, c, d = sub.rank(n + 1), quo.rank(n), mid.diff(n)
        comps.append(Matrix(ses.ring, r, c, tuple(
            d.entry(i, sub.rank(n) + j) for i in range(r) for j in range(c))))
    return ChainMap(quo, sub.shift(1), tuple(comps))


class CocycleSpace(HomComplex):
    """All legal twists for make_extension(sub, quotient, ...): the cycles
    of Hom(quotient, sub) in degree +1, where D(t) = d_sub t + t d_quo,
    each yielded as the chain map quotient -> sub.shift(1)."""

    def __init__(self, sub: PerfectComplex, quotient: PerfectComplex):
        super().__init__(quotient, sub, 1)

    def iter_all(self) -> Iterator[ChainMap]:
        target = self.target.shift(1)
        for comps in self.iter_cycles():
            yield ChainMap(self.source, target, comps)

    def sample(self, rng: Random) -> ChainMap:
        return ChainMap(self.source, self.target.shift(1),
                        self.sample_cycle(rng))
