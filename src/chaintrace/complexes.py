"""Bounded complexes of finite free modules, chain maps and homotopy data.

Cohomological indexing throughout: the differential of degree n raises,
d^n : C^n -> C^(n+1), and maps act on column vectors from the left.
Degrees outside a complex's stored window are rank zero; accessors
materialise correctly-shaped empty matrices there, so boundary cases
never need special handling at call sites, and builders refuse any
other block given there.

Complexes built through `PerfectComplex.build` are normalised (zero-rank
degrees trimmed from both ends), which makes dataclass equality agree
with "same ranks and differentials in the same degrees".
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import (Callable, ClassVar, Iterator, Mapping, NamedTuple,
                    Optional, Sequence, TypeVar)

from .linalg import IntegerSystem, LinearSolver, Matrix, ShapeError
from .rings import RingElem, RingSpec


@dataclass(frozen=True)
class Validation:
    """Outcome of a structural check; `degree` is the first failing one."""

    ok: bool
    kind: str = "ok"            # "ok" | "ring" | "shape" | "d-squared" | ...
    degree: Optional[int] = None
    message: str = ""

    def __bool__(self) -> bool:
        return self.ok


_VALID = Validation(True)


def _refuse_outside(noun: str, blocks: Mapping[int, Matrix],
                    empty: Callable[[int], Matrix]) -> None:
    """Refuse blocks given outside a stored window, where the only block
    that fits is the empty one, empty(n): any other would be dropped."""
    for n, f in blocks.items():
        want = empty(n)
        if f != want:
            raise ValueError(f"{noun} at degree {n}, outside the window, "
                             f"is {f.rows}x{f.cols} over {f.ring}, expected "
                             f"{want.rows}x{want.cols} over {want.ring}")


@dataclass(frozen=True)
class PerfectComplex:
    """A bounded complex of free modules: ranks per degree plus differentials.

    ranks[i] is the rank in degree lo+i; diffs[i] is d^(lo+i), one fewer
    than there are degrees.  Use `build` (which trims zero-rank edges and
    fills in omitted zero differentials) unless deliberately constructing
    something malformed for `validate` to report on.
    """

    ring: RingSpec
    lo: int
    ranks: tuple[int, ...]
    diffs: tuple[Matrix, ...]

    def __post_init__(self) -> None:
        if not self.ranks:
            raise ValueError("a complex needs at least one degree")
        if len(self.diffs) != len(self.ranks) - 1:
            raise ValueError("need exactly one differential per adjacent "
                             "pair of degrees")

    @classmethod
    def build(cls, ring: RingSpec, lo: int, ranks: Sequence[int],
              diffs: Optional[Mapping[int, Matrix]] = None) -> "PerfectComplex":
        ranks = list(ranks)
        if any(r < 0 for r in ranks):
            raise ValueError("ranks must be non-negative")
        diffs = dict(diffs or {})
        # trim zero-rank degrees off both ends
        while len(ranks) > 1 and ranks[0] == 0:
            ranks.pop(0)
            lo += 1
        while len(ranks) > 1 and ranks[-1] == 0:
            ranks.pop()
        if ranks == [0]:
            lo = 0
        seq = []
        for i in range(len(ranks) - 1):
            n = lo + i
            d = diffs.pop(n, None)
            if d is None:
                d = Matrix.zero(ring, ranks[i + 1], ranks[i])
            seq.append(d)
        k = cls(ring, lo, tuple(ranks), tuple(seq))
        if diffs:  # what is left lies outside the window
            _refuse_outside("differential", diffs, k.diff)
        return k

    @classmethod
    def single(cls, ring: RingSpec, degree: int, rank: int) -> "PerfectComplex":
        """A free module of the given rank concentrated in one degree."""
        return cls.build(ring, degree, [rank])

    # -- window ------------------------------------------------------------

    @property
    def hi(self) -> int:
        return self.lo + len(self.ranks) - 1

    def degrees(self) -> range:
        return range(self.lo, self.hi + 1)

    def rank(self, n: int) -> int:
        if self.lo <= n <= self.hi:
            return self.ranks[n - self.lo]
        return 0

    def diff(self, n: int) -> Matrix:
        """d^n : C^n -> C^(n+1); an empty/zero matrix outside the window."""
        if self.lo <= n < self.hi:
            return self.diffs[n - self.lo]
        return Matrix.zero(self.ring, self.rank(n + 1), self.rank(n))

    # -- invariants ----------------------------------------------------------

    def euler_rank(self) -> int:
        """Alternating sum of ranks, sum of (-1)^n rank(n)."""
        return sum(-r if n % 2 else r
                   for n, r in zip(self.degrees(), self.ranks))

    def validate(self) -> Validation:
        for i, d in enumerate(self.diffs):
            n = self.lo + i
            if d.ring != self.ring:
                return Validation(False, "ring", n,
                                  f"differential at degree {n} lives over "
                                  f"{d.ring}, complex over {self.ring}")
            want = (self.ranks[i + 1], self.ranks[i])
            if (d.rows, d.cols) != want:
                return Validation(False, "shape", n,
                                  f"d^{n} is {d.rows}x{d.cols}, expected "
                                  f"{want[0]}x{want[1]}")
        for i in range(len(self.diffs) - 1):
            n = self.lo + i
            if not (self.diffs[i + 1] @ self.diffs[i]).is_zero():
                return Validation(False, "d-squared", n,
                                  f"d^{n + 1} d^{n} != 0")
        return _VALID

    # -- constructions -------------------------------------------------------

    def shift(self, k: int) -> "PerfectComplex":
        """Translate degrees by k and scale differentials by (-1)^k."""
        diffs = self.diffs if k % 2 == 0 else tuple(-d for d in self.diffs)
        new_lo = self.lo - k
        return PerfectComplex.build(
            self.ring, new_lo, self.ranks,
            {new_lo + i: d for i, d in enumerate(diffs)})


def _upper_block(a: Matrix, t: Matrix, b: Matrix) -> Matrix:
    """The block upper-triangular matrix [[a, t], [0, b]]."""
    return Matrix.block([[a, t], [Matrix.zero(a.ring, b.rows, a.cols), b]])


def _twisted_sum(a: PerfectComplex, b: PerfectComplex,
                 twist: Callable[[int], Matrix]) -> PerfectComplex:
    """a (+) b degreewise, with differential [[d_a, twist(n)], [0, d_b]]
    at degree n, where twist(n) maps b^n to a^(n+1)."""
    lo, hi = min(a.lo, b.lo), max(a.hi, b.hi)
    ranks = [a.rank(n) + b.rank(n) for n in range(lo, hi + 1)]
    return PerfectComplex.build(a.ring, lo, ranks, {
        n: _upper_block(a.diff(n), twist(n), b.diff(n))
        for n in range(lo, hi)})


def direct_sum(a: PerfectComplex, b: PerfectComplex) -> PerfectComplex:
    if a.ring != b.ring:
        raise ValueError("direct sum needs a common ring")
    return _twisted_sum(a, b, ChainMap.zero(b, a.shift(1)).comp)


_M = TypeVar("_M", bound="_HomMap")


@dataclass(frozen=True)
class _HomMap:
    """A degree-k element of Hom(source, target): blocks
    f^n : source^n -> target^(n+k), with k the class constant `_k`.

    comps[i] is the block at degree source.lo + i: one block per degree
    of the source, the degrees `_hom_slots` walks.  At any other degree
    the block has no columns, and `comp` makes it.  `build` takes blocks
    by degree, as parsed files and literals give them, fills in omitted
    zero blocks and refuses any but the empty one elsewhere.
    """

    source: PerfectComplex
    target: PerfectComplex
    comps: tuple[Matrix, ...]

    _k: ClassVar[int]
    _noun: ClassVar[str]

    def __post_init__(self) -> None:
        if len(self.comps) != len(self.source.ranks):
            raise ValueError(f"need exactly one {self._noun} block per "
                             f"degree of the source")

    @classmethod
    def build(cls: type[_M], source: PerfectComplex, target: PerfectComplex,
              comps: Optional[Mapping[int, Matrix]] = None) -> _M:
        if source.ring != target.ring:
            raise ValueError(f"{cls._noun} needs a common ring")
        comps = dict(comps or {})
        seq = tuple(comps.pop(n) if n in comps
                    else cls._zero_block(source, target, n)
                    for n in source.degrees())
        if comps:  # what is left lies outside the source's degrees
            _refuse_outside(f"{cls._noun} block", comps,
                            lambda n: cls._zero_block(source, target, n))
        return cls(source, target, seq)

    @classmethod
    def zero(cls: type[_M], source: PerfectComplex,
             target: PerfectComplex) -> _M:
        if source.ring != target.ring:
            raise ValueError(f"{cls._noun} needs a common ring")
        return cls(source, target, tuple(cls._zero_block(source, target, n)
                                         for n in source.degrees()))

    @classmethod
    def _zero_block(cls, source: PerfectComplex, target: PerfectComplex,
                    n: int) -> Matrix:
        return Matrix.zero(source.ring, target.rank(n + cls._k),
                           source.rank(n))

    @property
    def ring(self) -> RingSpec:
        return self.source.ring

    def comp(self, n: int) -> Matrix:
        i = n - self.source.lo
        if 0 <= i < len(self.comps):
            return self.comps[i]
        return self._zero_block(self.source, self.target, n)

    def degrees(self) -> range:
        return self.source.degrees()

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.comps)

    def _check_blocks(self, label: str) -> Validation:
        """Ring, then shape, of each stored block in degree order; `label`
        names a block in the messages."""
        for n, f in zip(self.degrees(), self.comps):
            if f.ring != self.ring:
                return Validation(False, "ring", n,
                                  f"{label} at degree {n} over {f.ring}")
            want = (self.target.rank(n + self._k), self.source.rank(n))
            if (f.rows, f.cols) != want:
                return Validation(False, "shape", n,
                                  f"{label} at degree {n} is "
                                  f"{f.rows}x{f.cols}, expected "
                                  f"{want[0]}x{want[1]}")
        return _VALID


class ChainMap(_HomMap):
    """A degreewise map f^n : source^n -> target^n: degree 0 of Hom."""

    _k = 0
    _noun = "chain map"

    @classmethod
    def identity(cls, k: PerfectComplex) -> "ChainMap":
        return cls(k, k, tuple(Matrix.identity(k.ring, r) for r in k.ranks))

    def _degreewise(self, other: "ChainMap",
                    op: Callable[[Matrix, Matrix], Matrix]) -> "ChainMap":
        """op(self^n, other^n) at every degree, for two parallel maps."""
        if self.source != other.source or self.target != other.target:
            raise ValueError("chain maps have different source or target")
        return ChainMap(self.source, self.target,
                        tuple(map(op, self.comps, other.comps)))

    def __add__(self, other: "ChainMap") -> "ChainMap":
        return self._degreewise(other, Matrix.__add__)

    def __sub__(self, other: "ChainMap") -> "ChainMap":
        return self._degreewise(other, Matrix.__sub__)

    def __matmul__(self, other: "ChainMap") -> "ChainMap":
        """Composition self after other."""
        if other.target != self.source:
            raise ValueError("composition mismatch: inner target is not "
                             "outer source")
        return ChainMap(other.source, self.target,
                        tuple(self.comp(n) @ f
                              for n, f in zip(other.degrees(), other.comps)))

    def shift(self, k: int) -> "ChainMap":
        """The same components read between the k-shifted complexes.

        Both differentials pick up the same (-1)^k, so this is again a
        chain map; the component at degree n becomes the old one at n+k,
        read through `comp`, as the shifted zero complex stays at degree 0.
        """
        source = self.source.shift(k)
        return ChainMap(source, self.target.shift(k),
                        tuple(self.comp(n + k) for n in source.degrees()))

    def validate(self) -> Validation:
        """Ring and shape of each component, then D(f) = 0: d f = f d."""
        check = self._check_blocks("component")
        if not check:
            return check
        for n, x in _hom_d(self.source, self.target, 0, self.comp):
            if not x.is_zero():
                return Validation(False, "commute", n,
                                  f"d f != f d at degree {n}")
        return _VALID


class Homotopy(_HomMap):
    """Homotopy data h^n : source^n -> target^(n-1): degree -1 of Hom."""

    _k = -1
    _noun = "homotopy"

    def validate(self) -> Validation:
        return self._check_blocks("homotopy component")


def mapping_cone(f: ChainMap) -> PerfectComplex:
    """Cone(f)^n = source^(n+1) (+) target^n with differential
    [[-d_src, 0], [f, d_tgt]]."""
    check = f.validate()
    if not check:
        raise ValueError(f"mapping cone needs a valid chain map: "
                         f"{check.message}")
    src, tgt = f.source, f.target
    ring = f.ring
    lo = min(src.lo - 1, tgt.lo)
    hi = max(src.hi - 1, tgt.hi)
    ranks = [src.rank(n + 1) + tgt.rank(n) for n in range(lo, hi + 1)]
    diffs = {}
    for n in range(lo, hi):
        diffs[n] = Matrix.block([
            [-src.diff(n + 1),
             Matrix.zero(ring, src.rank(n + 2), tgt.rank(n))],
            [f.comp(n + 1), tgt.diff(n)],
        ])
    return PerfectComplex.build(ring, lo, ranks, diffs)


# ---------------------------------------------------------------------------
# The Hom complex between two fixed complexes, and the chain maps in it
# ---------------------------------------------------------------------------


_Slots = list[tuple[int, int, int]]


def _hom_slots(source: PerfectComplex, target: PerfectComplex,
               k: int) -> _Slots:
    """(n, rows, cols) for every nonzero block source^n -> target^(n+k),
    in ascending degree: the layout of a degree-k element of Hom."""
    slots = []
    for n in source.degrees():
        r, c = target.rank(n + k), source.rank(n)
        if r * c:
            slots.append((n, r, c))
    return slots


def _hom_d(source: PerfectComplex, target: PerfectComplex, k: int,
           comp: Callable[[int], Matrix]) -> Iterator[tuple[int, Matrix]]:
    """D(X)^n = d_tgt X^n - (-1)^k X^(n+1) d_src for the degree-k element
    X of Hom(source, target) whose block at n is comp(n), by matrix
    products, at each block of `_hom_slots(source, target, k + 1)` in
    ascending degree.  `_hom_matrix` writes the same map as rows."""
    for n, _, _ in _hom_slots(source, target, k + 1):
        a = target.diff(n + k) @ comp(n)
        b = comp(n + 1) @ source.diff(n)
        yield n, (a + b if k % 2 else a - b)


class _Term(NamedTuple):
    """sign * f(n) X^(n+shift) if `left`, else sign * X^(n+shift) f(n), at
    each equation block n, where X is unknown number `var`."""

    var: int
    f: Callable[[int], Matrix]
    shift: int = 0
    left: bool = True
    sign: int = 1


def _d_terms(source: PerfectComplex, target: PerfectComplex, k: int,
             var: int = 0, sign: int = 1) -> list[_Term]:
    """sign * D on unknown `var`, a degree-k element of Hom(source,
    target): d_tgt X^n - (-1)^k X^(n+1) d_src, as two terms."""
    return [_Term(var, lambda n: target.diff(n + k), 0, True, sign),
            _Term(var, source.diff, 1, False, sign if k % 2 else -sign)]


def _hom_matrix(ring: RingSpec, layouts: Sequence[_Slots],
                block_rows: Sequence[tuple[_Slots, Sequence[_Term]]]
                ) -> IntegerSystem:
    """The matrix of sums of `_Term`s, written directly as the integer
    rows that LinearSolver factors: the a-parts and, over Z/m[e], the
    e-parts of its entries.

    Columns are the unknowns' entries: one `_hom_slots` layout per
    unknown, concatenated, each block row-major.  Each block row is an
    equation layout and the terms summed into it, and gives one row per
    entry of that sum, in the order of `HomComplex.flatten`."""
    offsets: dict[tuple[int, int], tuple[int, int, int]] = {}
    pos = 0
    for var, slots in enumerate(layouts):
        for n, r, c in slots:
            offsets[var, n] = (pos, r, c)
            pos += r * c
    m, eps = ring.modulus, ring.has_epsilon
    a_rows: list[list[int]] = []
    e_rows: list[list[int]] = []
    for eq_slots, terms in block_rows:
        for n, er, ec in eq_slots:
            a_block = [[0] * pos for _ in range(er * ec)]
            e_block = [[0] * pos for _ in range(er * ec)] if eps else None
            for var, f, shift, left, sign in terms:
                slot = offsets.get((var, n + shift))
                if slot is None:
                    continue
                base, r, c = slot
                a = f(n)
                want = (er, r, ec) if left else (c, ec, er)
                if (a.rows, a.cols, c if left else r) != want:
                    raise ShapeError(f"term on unknown {var} does not fit "
                                     f"the equation block at degree {n}")
                for idx, x in enumerate(a.entries):
                    if not x:
                        continue
                    p, l = divmod(idx, a.cols)
                    if left:      # f[p, l] X[l, j] adds to row (p, j)
                        cells = zip(range(p * ec, p * ec + ec),
                                    range(base + l * ec, base + l * ec + ec))
                    else:         # X[i, p] f[p, l] adds to row (i, l)
                        cells = zip(range(l, er * ec, ec),
                                    range(base + p, base + er * c, c))
                    xa, xb = sign * x.a, sign * x.b
                    for i, j in cells:
                        row = a_block[i]
                        row[j] = (row[j] + xa) % m
                        if xb:    # never over Z/m, where e_block is None
                            row = e_block[i]
                            row[j] = (row[j] + xb) % m
            a_rows += a_block
            if eps:
                e_rows += e_block
    return IntegerSystem(ring, pos, a_rows, e_rows if eps else None)


class HomComplex:
    """Degree k of Hom(source, target) and its differential, as one
    linear system: D(X)^n = d_tgt X^n - (-1)^k X^(n+1) d_src.

    A vector of unknowns is its map's `comps` in order, each block X^n :
    source^n -> target^(n+k) row-major; empty blocks add no entries, so
    it fills `var_slots`.  Equations are D(X), of degree k+1, the same
    way (`eq_slots`).  Cycles are chain maps at k = 0 and twists, chain
    maps into target[1], at k = 1; at k = -1, whose unknowns include
    fillers, D's image is the null-homotopic maps.  One solver serves all;
    its system is the IntegerSystem `_hom_matrix` writes, with no ring
    element built, and neither a drawn nor an enumerated cycle replays a
    right-hand side."""

    def __init__(self, source: PerfectComplex, target: PerfectComplex,
                 k: int):
        if source.ring != target.ring:
            raise ValueError("Hom needs a common ring")
        self.source, self.target, self.k = source, target, k
        self.var_slots = _hom_slots(source, target, k)
        self.eq_slots = _hom_slots(source, target, k + 1)
        system = _hom_matrix(source.ring, [self.var_slots],
                             [(self.eq_slots, _d_terms(source, target, k))])
        self.n_vars = system.cols
        self.solver = LinearSolver(system)

    @property
    def count(self) -> int:
        """Exact number of cycles: degree-k elements X with D(X) = 0."""
        return self.solver.kernel_count

    def flatten(self, f: _HomMap) -> list[RingElem]:
        """The entries of f's blocks in order; for f of degree k+1, a
        right-hand side for D.  ValueError for f out of another complex."""
        if f.source != self.source:
            raise ValueError("map is not out of this Hom complex's source")
        return [x for c in f.comps for x in c.entries]

    def to_comps(self, vec: Sequence[RingElem]) -> tuple[Matrix, ...]:
        """A solution vector as the `comps` of its map: the block X^n at
        every degree n of `source`, empty ones included."""
        ring, comps, pos = self.source.ring, [], 0
        for n in self.source.degrees():
            r, c = self.target.rank(n + self.k), self.source.rank(n)
            comps.append(Matrix(ring, r, c, tuple(vec[pos:pos + r * c])))
            pos += r * c
        return tuple(comps)

    def iter_cycles(self) -> Iterator[tuple[Matrix, ...]]:
        for vec in self.solver.iter_solutions(None):
            yield self.to_comps(vec)

    def sample_cycle(self, rng: Random) -> tuple[Matrix, ...]:
        return self.to_comps(self.solver.sample_solution(None, rng))


class ChainMapSpace(HomComplex):
    """All chain maps source -> target: the cycles of Hom(source, target)
    in degree 0, returned as ChainMap objects."""

    def __init__(self, source: PerfectComplex, target: PerfectComplex):
        super().__init__(source, target, 0)

    def iter_all(self) -> Iterator[ChainMap]:
        for comps in self.iter_cycles():
            yield ChainMap(self.source, self.target, comps)

    def sample(self, rng: Random) -> ChainMap:
        return ChainMap(self.source, self.target, self.sample_cycle(rng))
