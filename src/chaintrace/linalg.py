"""Exact matrix arithmetic and linear-system solving over the small rings.

Matrices are immutable, row-major, and allowed to have zero rows or
columns (a map to or from the zero module); such empty matrices behave
correctly under every operation (det of the 0x0 matrix is 1, trace 0,
products with an empty middle dimension are zero matrices).

The solver works on integer rows only: an IntegerSystem hands them over
directly, with no ring element, and a Matrix is written as one on
arrival.  A system over Z/m[e] becomes, with x = x0 + e*x1, the doubled
block system  [[A0, 0], [A1, A0]] [x0; x1] = [b0; b1]  over Z/m, an
exact translation of the original problem.  Counts and solutions come
from eliminating the lift mod each prime power p^k of m with a pivot of
least p-valuation, so no entry reaches p^k (Storjohann & Mulders, ESA
1998), joined by the CRT; random and enumerated solutions come from its
Smith normal form over the integers.  Neither builds U and V: each logs
its row and column operations, and queries replay the logs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import gcd, prod
from random import Random
from typing import Iterable, Iterator, Optional, Sequence

from .rings import RingElem, RingMismatchError, RingSpec


class ShapeError(ValueError):
    """Matrix dimensions do not fit the requested operation."""


@dataclass(frozen=True)
class Matrix:
    """Immutable rows x cols matrix over a RingSpec, entries row-major."""

    ring: RingSpec
    rows: int
    cols: int
    entries: tuple[RingElem, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ShapeError("negative dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise ShapeError(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} "
                f"entries, got {len(self.entries)}"
            )
        for x in self.entries:
            if x.ring is not self.ring and x.ring != self.ring:
                raise RingMismatchError("entry from a different ring")

    # -- construction ------------------------------------------------------

    @classmethod
    def from_rows(cls, ring: RingSpec, data: Sequence[Sequence]) -> "Matrix":
        """Build from a list of rows; plain ints are coerced to ring elements."""
        rows = len(data)
        cols = len(data[0]) if rows else 0
        flat: list[RingElem] = []
        for r in data:
            if len(r) != cols:
                raise ShapeError("ragged rows")
            for x in r:
                flat.append(x if isinstance(x, RingElem) else ring.element(x))
        return cls(ring, rows, cols, tuple(flat))

    @classmethod
    def zero(cls, ring: RingSpec, rows: int, cols: int) -> "Matrix":
        return cls(ring, rows, cols, (ring.zero(),) * (rows * cols))

    @classmethod
    def identity(cls, ring: RingSpec, n: int) -> "Matrix":
        one, zero = ring.one(), ring.zero()
        ent = tuple(one if i == j else zero for i in range(n) for j in range(n))
        return cls(ring, n, n, ent)

    @classmethod
    def block(cls, grid: Sequence[Sequence["Matrix"]]) -> "Matrix":
        """Assemble a block matrix; every block carries its own shape, so
        zero-width and zero-height blocks are fine."""
        if not grid or not grid[0]:
            raise ShapeError("empty block grid")
        ring = grid[0][0].ring
        heights = [row[0].rows for row in grid]
        widths = [blk.cols for blk in grid[0]]
        for i, row in enumerate(grid):
            if len(row) != len(widths):
                raise ShapeError("ragged block grid")
            for j, blk in enumerate(row):
                if blk.rows != heights[i] or blk.cols != widths[j]:
                    raise ShapeError(f"block ({i},{j}) has shape "
                                     f"{blk.rows}x{blk.cols}")
        out: list[RingElem] = []
        for i, row in enumerate(grid):
            for r in range(heights[i]):
                for blk in row:
                    out.extend(blk.entries[r * blk.cols:(r + 1) * blk.cols])
        return cls(ring, sum(heights), sum(widths), tuple(out))

    # -- access ------------------------------------------------------------

    def entry(self, i: int, j: int) -> RingElem:
        return self.entries[i * self.cols + j]

    def is_zero(self) -> bool:
        return not any(self.entries)

    def transpose(self) -> "Matrix":
        return Matrix(self.ring, self.cols, self.rows,
                      tuple(self.entry(j, i)
                            for i in range(self.cols)
                            for j in range(self.rows)))

    # -- arithmetic --------------------------------------------------------

    def _check_same_shape(self, other: "Matrix") -> None:
        if self.ring != other.ring:
            raise RingMismatchError("matrices over different rings")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError(f"{self.rows}x{self.cols} vs {other.rows}x{other.cols}")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        ent = tuple(x + y for x, y in zip(self.entries, other.entries))
        return Matrix(self.ring, self.rows, self.cols, ent)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        ent = tuple(x - y for x, y in zip(self.entries, other.entries))
        return Matrix(self.ring, self.rows, self.cols, ent)

    def __neg__(self) -> "Matrix":
        return Matrix(self.ring, self.rows, self.cols,
                      tuple(-x for x in self.entries))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ring != other.ring:
            raise RingMismatchError("matrices over different rings")
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.rows}x{self.cols} "
                             f"by {other.rows}x{other.cols}")
        out = _product(self, other.entries, other.cols)
        return Matrix(self.ring, self.rows, other.cols, tuple(out))

    def apply(self, vec: Sequence[RingElem]) -> list[RingElem]:
        """Matrix-vector product (column vector as a plain sequence)."""
        if len(vec) != self.cols:
            raise ShapeError("vector length does not match column count")
        for y in vec:
            if y.ring is not self.ring and y.ring != self.ring:
                raise RingMismatchError("vector entry from a different ring")
        return _product(self, vec, 1)

    # -- invariants --------------------------------------------------------

    def trace(self) -> RingElem:
        if self.rows != self.cols:
            raise ShapeError("trace needs a square matrix")
        t = self.ring.zero()
        for i in range(self.rows):
            t = t + self.entry(i, i)
        return t

    def det(self) -> RingElem:
        """Determinant without division, by the Berkowitz recursion.

        Division-free matters because the rings here have zero divisors,
        so fraction-producing eliminations are not available."""
        if self.rows != self.cols:
            raise ShapeError("det needs a square matrix")
        return _berkowitz_det(self)

    def __str__(self) -> str:
        rows = ",".join(
            "[" + ",".join(str(self.entry(i, j)) for j in range(self.cols)) + "]"
            for i in range(self.rows)
        )
        return f"[{rows}]"


def _product(mat: Matrix, other: Sequence[RingElem],
             cols: int) -> list[RingElem]:
    """Entries, row-major, of mat times the mat.cols x cols matrix whose
    row-major entries are `other`; the caller checks rings and shapes."""
    ring = mat.ring
    k = mat.cols
    a = mat.entries
    out: list[RingElem] = []
    for i in range(mat.rows):
        for j in range(cols):
            # accumulate on plain ints, one element looked up per entry
            sa = sb = 0
            for t in range(k):
                x = a[i * k + t]
                y = other[t * cols + j]
                sa += x.a * y.a
                sb += x.a * y.b + x.b * y.a
            out.append(ring.element(sa, sb))
    return out


def _dot(xs: Iterable[tuple[int, int]], ys: Iterable[tuple[int, int]],
         m: int) -> tuple[int, int]:
    """Sum of the products x*y of paired elements a + b*e, each given as
    its (a, b) pair; the sum is reduced mod m."""
    sa = sb = 0
    for (xa, xb), (ya, yb) in zip(xs, ys):
        sa += xa * ya
        sb += xa * yb + xb * ya
    return sa % m, sb % m


def _berkowitz_det(mat: Matrix) -> RingElem:
    """Division-free determinant via the characteristic polynomial.

    Builds the coefficient vector of det(xI - A) by the Samuelson/Berkowitz
    recursion: each step k convolves the previous vector with
    [1, -a_kk, -(R C), -(R M C), ..., -(R M^(k-1) C)] where M is the leading
    k x k block, R the row below it and C the column to its right.
    The determinant is (-1)^n times the constant coefficient.  Elements
    are carried as (a, b) integer pairs reduced mod m, and one ring
    element is looked up at the end.
    """
    n, m = mat.rows, mat.ring.modulus
    a = [[(x.a, x.b) for x in mat.entries[i * n:(i + 1) * n]]
         for i in range(n)]
    poly = [(1, 0)]
    for k in range(n):
        row = a[k][:k]
        kk_a, kk_b = a[k][k]
        sub = [a[i][:k] for i in range(k)]
        items = [(1, 0), (-kk_a % m, -kk_b % m)]
        vec = [a[i][k] for i in range(k)]
        for step in range(k):
            dot_a, dot_b = _dot(row, vec, m)
            items.append((-dot_a % m, -dot_b % m))
            if step < k - 1:
                vec = [_dot(sub_row, vec, m) for sub_row in sub]
        # truncated convolution: new length k+2
        poly = [_dot(poly[:r + 1], items[r::-1], m) for r in range(k + 2)]
    d_a, d_b = poly[-1]
    if n % 2:
        d_a, d_b = -d_a, -d_b
    return mat.ring.element(d_a, d_b)


# ---------------------------------------------------------------------------
# Integer Smith elimination
# ---------------------------------------------------------------------------


def _smith_log(
    a: Sequence[Sequence[int]],
    modulus: Optional[int] = None,
) -> tuple[list[list[int]], list[int], list[int]]:
    """Smith-eliminate a; return (S, row_ops, col_ops) with U*a*V = S for
    the unimodular U and V that the two logs describe.  S is diagonal and
    each diagonal entry divides the next.

    Classic pivoting algorithm: move a minimal-magnitude entry to the
    pivot, kill its row and column by Euclidean steps, then absorb any
    entry the pivot does not divide and repeat.  Entries are
    arbitrary-precision so nothing overflows.

    The pivot is the first least-magnitude nonzero entry of the working
    block in row-major order.  Two shortcuts keep that rule and so the
    result to the bit: the scan stops at the first entry of magnitude 1,
    which no later entry can undercut under the strict comparison, and
    a pivot of magnitude 1 skips the divisibility sweep, which a unit
    always passes.

    U and V are never built.  Each log is a flat list of triples
    (i, t, q): for q != 0, row_i -= q * row_t (col_i -= q * col_t in the
    column log); for q == 0, swap i and t.  So U*b replays the row log in
    order on b, and V*y replays the column log in reverse order on y,
    where the triple (j, t, q) does y_t -= q * y_j.  With a modulus the
    multipliers are reduced mod modulus and a multiplier that vanishes
    there is not logged, so the logs give U and V mod modulus.  S itself
    always stays exact: the pivot choice, the quotients and the
    divisibility test read it, while the logs are only written.  The
    integer U and V would reach hundreds of thousands of bits on lifts of
    a few dozen rows.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    s = [list(r) for r in a]
    row_ops: list[int] = []
    col_ops: list[int] = []

    def log_sub(ops, i, t, q):
        # i -= q * t, skipped when q vanishes mod the modulus
        if modulus is not None:
            q %= modulus
        if q:
            ops += (i, t, q)

    def row_sub(i, t, q):
        si, st = s[i], s[t]
        for j in range(cols):
            si[j] -= q * st[j]

    def col_swap(j, t):
        for r in s:
            r[j], r[t] = r[t], r[j]

    t = 0
    while t < min(rows, cols):
        # pick the first least-magnitude nonzero entry of the working
        # block, in row-major order, as pivot; a unit cannot be beaten
        # under the strict <, so the scan stops at the first one
        piv = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = s[i][j]
                if x and (best is None or abs(x) < best):
                    best, piv = abs(x), (i, j)
                    if best == 1:
                        break
            if best == 1:
                break
        if piv is None:
            break
        pi, pj = piv
        if pi != t:
            s[pi], s[t] = s[t], s[pi]
            row_ops += (pi, t, 0)
        if pj != t:
            col_swap(pj, t)
            col_ops += (pj, t, 0)

        while True:
            i = 0
            while i < rows:
                if i != t and s[i][t]:
                    q = s[i][t] // s[t][t]
                    row_sub(i, t, q)
                    log_sub(row_ops, i, t, q)
                    if s[i][t]:
                        # remainder is smaller than the pivot: promote it
                        # and go on at row i, which now holds the old pivot
                        # row; the rows before it are already clear
                        s[i], s[t] = s[t], s[i]
                        row_ops += (i, t, 0)
                        continue
                i += 1
            moved = False
            for j in range(cols):
                if j != t and s[t][j]:
                    # column t is zero off the pivot: only s[t][j] changes
                    q = s[t][j] // s[t][t]
                    s[t][j] -= q * s[t][t]
                    log_sub(col_ops, j, t, q)
                    if s[t][j]:
                        col_swap(j, t)
                        col_ops += (j, t, 0)
                        moved = True
                        break
            if not moved:
                break

        # divisibility: the pivot must divide everything that remains;
        # a unit divides everything, so its sweep is skipped
        p = s[t][t]
        if abs(p) != 1:
            bad = next((i for i in range(t + 1, rows)
                        if any(s[i][j] % p for j in range(t + 1, cols))),
                       None)
            if bad is not None:
                row_sub(t, bad, -1)   # row_t += row_bad
                log_sub(row_ops, t, bad, -1)
                continue
        t += 1

    for i in range(min(rows, cols)):
        if s[i][i] < 0:
            for j in range(cols):
                s[i][j] = -s[i][j]
            log_sub(row_ops, i, i, 2)   # row_i = -row_i
    return s, row_ops, col_ops


# ---------------------------------------------------------------------------
# Elimination mod a prime power
# ---------------------------------------------------------------------------


def _local_log(a: Sequence[Sequence[int]], q: int
               ) -> int | tuple[list[int], list[int], list[tuple[int, int]]]:
    """Eliminate a mod q, a prime power p^k or a product of two primes:
    (row_ops, col_ops, pivots) with U*a*V diagonal mod q, the logs in
    _smith_log's format and each pivot s_i kept as (g_i, h_i), g_i =
    gcd(s_i, q) and h_i the inverse of s_i / g_i mod q, all in [0, q).
    The pivot is the first entry of least gcd with q in row-major order:
    mod p^k one of least p-valuation, which divides its row and column, so
    one step clears each entry; the column steps change only the pivot
    row, so they are logged, not applied.  Mod pq the first nonunit
    pivot's gcd g splits q, and g is returned instead."""
    rows, cols = len(a), len(a[0]) if a else 0
    s = [[x % q for x in r] for r in a]
    row_ops: list[int] = []
    col_ops: list[int] = []
    pivots: list[tuple[int, int]] = []
    for t in range(min(rows, cols)):
        g, piv = q, None
        for i, r in enumerate(s[t:], t):
            for j in range(t, cols):
                if r[j] and gcd(r[j], q) < g:
                    g, piv = gcd(r[j], q), (i, j)
                    if g == 1:
                        break
            if g == 1:
                break
        if piv is None:
            break
        if g > 1 and gcd(g, q // g) == 1:
            return g        # not a prime power: g and q // g are primes
        pi, pj = piv
        if pi != t:
            s[pi], s[t] = s[t], s[pi]
            row_ops += (pi, t, 0)
        if pj != t:
            for r in s[t:]:
                r[pj], r[t] = r[t], r[pj]
            col_ops += (pj, t, 0)
        h = pow(s[t][t] // g, -1, q)
        tail = [(j, x) for j, x in enumerate(s[t]) if j > t and x]
        for i in range(t + 1, rows):
            r = s[i]
            if r[t]:
                f = r[t] // g * h % q
                for j, x in tail:
                    r[j] = (r[j] - f * x) % q
                row_ops += (i, t, f)
        for j, x in tail:
            col_ops += (j, t, x // g * h % q)
        pivots.append((g, h))
    return row_ops, col_ops, pivots


def _replay_rows(ops: list[int], v: list[int], q: int) -> list[int]:
    """U v mod q, by replaying the row log ops on v in place."""
    if not any(v):
        return v
    it = iter(ops)
    for i, t, f in zip(it, it, it):
        if f:
            v[i] = (v[i] - f * v[t]) % q
        else:
            v[i], v[t] = v[t], v[i]
    return v


def _span_count(rows: list[list[int]], q: int) -> int:
    """The size of the subgroup of (Z/q)^len(rows) that the columns of
    rows span: the product of q / g_i over the pivots g_i of their
    elimination mod q, or, where a pivot splits q into two primes, the
    product of the counts mod each."""
    got = _local_log(rows, q)
    if isinstance(got, int):
        return _span_count(rows, got) * _span_count(rows, q // got)
    return prod(q // g for g, _ in got[2])


def _replay_cols(ops: list[int], y: list[int], q: int) -> list[int]:
    """V y mod q, by replaying the column log ops backwards on y in place."""
    it = reversed(ops)
    for f, t, j in zip(it, it, it):
        if f:
            y[t] = (y[t] - f * y[j]) % q
        else:
            y[j], y[t] = y[t], y[j]
    return y


# ---------------------------------------------------------------------------
# Linear systems A x = b over the ring
# ---------------------------------------------------------------------------


@dataclass
class IntegerSystem:
    """A rows x cols matrix over the ring written as integer rows: `a`
    holds the entries' a-parts and, over Z/m[e] only, `e` their e-parts,
    each in [0, m).  `lift()` is the integer system that LinearSolver
    factors (the module docstring has it).  The hash is that of the
    Matrix with the same entries, for a tracer that hashes each caller's
    argument: one system counts once, as a Matrix or as one of these."""

    ring: RingSpec
    cols: int
    a: list[list[int]]
    e: Optional[list[list[int]]] = None

    @classmethod
    def of(cls, mat: Matrix) -> "IntegerSystem":
        rows = [mat.entries[i * mat.cols:(i + 1) * mat.cols]
                for i in range(mat.rows)]
        return cls(mat.ring, mat.cols, [[x.a for x in r] for r in rows],
                   [[x.b for x in r] for r in rows]
                   if mat.ring.has_epsilon else None)

    @property
    def rows(self) -> int:
        return len(self.a)

    def lift(self) -> list[list[int]]:
        """The rows themselves over Z/m, the doubled block system
        [[A0, 0], [A1, A0]] over Z/m[e]."""
        if self.e is None:
            return self.a
        pad = [0] * self.cols
        return ([r + pad for r in self.a]
                + [r1 + r0 for r1, r0 in zip(self.e, self.a)])

    def with_row(self, row: list[int]) -> "IntegerSystem":
        """The system with one more equation last, whose coefficients
        have no e-part.  Over Z/m[e] it lifts to two rows that are not
        adjacent: the last of the a-part rows, and the last row."""
        e = None if self.e is None else self.e + [[0] * self.cols]
        return IntegerSystem(self.ring, self.cols, self.a + [row], e)

    def top(self, rows: int) -> "IntegerSystem":
        """The system of the first `rows` equations."""
        e = None if self.e is None else self.e[:rows]
        return IntegerSystem(self.ring, self.cols, self.a[:rows], e)

    def __hash__(self) -> int:
        el = self.ring.element
        e = self.e or [[0] * self.cols] * self.rows
        return hash((self.ring, self.rows, self.cols, tuple(
            el(x, y) for ra, re in zip(self.a, e) for x, y in zip(ra, re))))


@dataclass(frozen=True)
class SolutionReport:
    """Outcome of solving A x = b: exact solvability, one witness, and the
    exact number of solutions (0 when unsolvable)."""

    solvable: bool
    witness: Optional[tuple[RingElem, ...]]
    solution_count: int


class LinearSolver:
    """Factor a matrix on first use, then answer many right-hand sides.

    The matrix comes as an IntegerSystem, which is how HomComplex writes
    its systems, or as a Matrix, which is written as integer rows on
    arrival, so `mat` is always an IntegerSystem.  Both eliminations
    factor its integer lift (the module docstring has it) as U*lift*V = S
    diagonal mod some q, keeping U and V as operation logs that a query
    replays on its own vector.  With c = U b, s_i y_i = c_i (mod q) is
    solvable iff g_i = gcd(s_i, q) divides c_i, and then has exactly g_i
    solutions; rows past the diagonal need c_i = 0, and columns past it
    are free (factor q each).

    kernel_count, image_count, kernel_image_count, solve, coset_key and
    is_solvable eliminate mod each prime power q of m (_local_log) and
    join solutions by the CRT.  sample_solution and iter_solutions
    replay the integer Smith log (_smith_log, q = m), whose exact S fixes
    the samples drawn and the enumeration order; both start from one
    particular solution, and a right-hand side of None is the zero one,
    with nothing to replay.
    Each elimination runs at the first query that needs it: a solver
    only drawn from never counts, and one only counted or solved never
    eliminates over the integers.
    """

    def __init__(self, mat: Matrix | IntegerSystem):
        if isinstance(mat, Matrix):
            mat = IntegerSystem.of(mat)
        self.ring, self.mat = mat.ring, mat
        self._m = self.ring.modulus
        self._eps = self.ring.has_epsilon
        width = 2 if self._eps else 1
        self._n_eq, self._n_var = width * mat.rows, width * mat.cols

    @cached_property
    def _local(self) -> list[tuple[int, int, list[int], list[int],
                                   list[tuple[int, int]]]]:
        """(q, e, row log, column log, pivots) of the lift eliminated mod
        each prime power q of m, where e = 1 mod q and 0 mod m / q."""
        m, lift, out = self._m, self.mat.lift(), []
        todo = [p ** v for p, v in self.ring._prime_powers]
        for q in todo:                  # a split appends its two primes
            got = _local_log(lift, q)
            if isinstance(got, int):
                todo += (got, q // got)
            else:
                out.append((q, m // q * pow(m // q, -1, q) % m, *got))
        return out

    @cached_property
    def kernel_count(self) -> int:
        """Exact size of the kernel, a product over the prime powers."""
        return prod(prod(g for g, _ in piv) * q ** (self._n_var - len(piv))
                    for q, _, _, _, piv in self._local)

    @property
    def image_count(self) -> int:
        """Exact size of the image, via |domain| = kernel * image."""
        return self.ring.cardinality ** self.mat.cols // self.kernel_count

    def kernel_image_count(self, form: Sequence[int]) -> int:
        """|L(ker A)|: how many values the linear form L x = sum_j
        form_j x_j, with integer coefficients (no e-part), takes on the
        kernel.  So kernel_count // kernel_image_count(form) solutions
        also have L x = 0, counted with no elimination of A plus L.

        It reads the kernel's logs.  ker S is spanned by (q/g_i) e_i on
        the pivots and by e_j past them, so L(ker A) = (L V)(ker S) is
        the span of (L V)_i q/g_i and (L V)_j in Z/q, with L V the column
        log replayed forward on L.  Over Z/m[e], L x = L x0 + e L x1
        lifts to the rows [L, 0] and [0, L], whose span lies in
        (Z/q)^2.  The count is a product over the prime powers q."""
        if len(form) != self.mat.cols:
            raise ShapeError("form length does not match column count")
        row, pad = list(form), [0] * self.mat.cols
        lifted = [row + pad, pad + row] if self._eps else [row]
        count = 1
        for q, _, _, col_ops, piv in self._local:
            gens = [_replay_rows(col_ops, [x % q for x in r], q)
                    for r in lifted]
            for r in gens:
                for i, (g, _) in enumerate(piv):
                    r[i] = r[i] * (q // g) % q
            count *= _span_count(gens, q)
        return count

    def _integer_log(self) -> None:
        """Run the integer Smith elimination, once, for the first draw."""
        if hasattr(self, "_gs"):
            return
        m, k = self._m, min(self._n_eq, self._n_var)
        s, self._row_ops, self._col_ops = _smith_log(self.mat.lift(), m)
        # s_i mod m keeps gcd(s_i, m) and (s_i / g) mod (m / g) exact
        self._diag = [s[i][i] % m for i in range(k)]
        self._gs = [gcd(d, m) for d in self._diag]

    # -- plumbing ----------------------------------------------------------

    def _rhs_ints(self, b: Sequence[RingElem]) -> list[int]:
        if len(b) != self.mat.rows:
            raise ShapeError("right-hand side length does not match row count")
        for x in b:
            if x.ring != self.ring:
                raise RingMismatchError("rhs entry from a different ring")
        if self._eps:
            return [x.a for x in b] + [x.b for x in b]
        return [x.a for x in b]

    def _transform(self, rhs: list[int]) -> list[int]:
        """U b mod m for the integer log's U, in place."""
        return _replay_rows(self._row_ops, rhs, self._m)

    def _particular_y(self, b: Optional[Sequence[RingElem]]
                      ) -> Optional[list[int]]:
        """A y with S y = U b mod m, or None when b is unsolvable (as in
        solve: c = U b vanishes past the diagonal, g_i divides c_i on it);
        b = None is the zero right-hand side.  Runs the integer log."""
        self._integer_log()
        y = [0] * self._n_var
        if b is None:
            return y
        c, m, k = self._transform(self._rhs_ints(b)), self._m, len(self._diag)
        if any(c[k:]) or any(ci % g for ci, g in zip(c, self._gs)):
            return None
        for i, (ci, d, g) in enumerate(zip(c, self._diag, self._gs)):
            # pow(x, -1, 1) is 0, the only value mod 1, when g_i = m
            y[i] = ci // g * pow(d // g, -1, m // g) % (m // g)
        return y

    def _y_to_elems(self, y: list[int]) -> tuple[RingElem, ...]:
        """The elements of V y for the integer log's V; y is reduced mod m
        in place."""
        return self._elems(_replay_cols(self._col_ops, y, self._m))

    def _elems(self, x: list[int]) -> tuple[RingElem, ...]:
        el, cols = self.ring.element, self.mat.cols
        if self._eps:
            return tuple(el(x[j], x[cols + j]) for j in range(cols))
        return tuple(el(x[j]) for j in range(cols))

    # -- queries -----------------------------------------------------------

    def is_solvable(self, b: Sequence[RingElem]) -> bool:
        return not any(self.coset_key(b))

    def solve(self, b: Sequence[RingElem]) -> SolutionReport:
        """Solvability, a witness (valid, not canonical) and the count."""
        rhs, x = self._rhs_ints(b), [0] * self._n_var
        for q, e, row_ops, col_ops, piv in self._local:
            c = _replay_rows(row_ops, [v % q for v in rhs], q)
            if any(c[len(piv):]) or any(ci % g for ci, (g, _) in
                                        zip(c, piv)):
                return SolutionReport(False, None, 0)
            y = [ci // g * h % q for ci, (g, h) in zip(c, piv)]
            y += [0] * (self._n_var - len(piv))
            x = [(xi + e * yi) % self._m
                 for xi, yi in zip(x, _replay_cols(col_ops, y, q))]
        return SolutionReport(True, self._elems(x), self.kernel_count)

    def coset_key(self, b: Sequence[RingElem]) -> tuple[int, ...]:
        """Complete invariant of b modulo the image of the matrix: two
        right-hand sides get the same key iff they differ by something
        solvable.  The all-zero key means b itself is solvable.  The key
        is U b mod q per prime power q, each c_i reduced mod g_i; its
        values are not canonical."""
        rhs, key = self._rhs_ints(b), []
        for q, _, row_ops, _, piv in self._local:
            c = _replay_rows(row_ops, [v % q for v in rhs], q)
            key += [ci % g for ci, (g, _) in zip(c, piv)] + c[len(piv):]
        return tuple(key)

    def sample_solution(self, b: Optional[Sequence[RingElem]],
                        rng: Random) -> Optional[tuple[RingElem, ...]]:
        """Uniformly random solution, or None when unsolvable.  b = None
        stands for the zero right-hand side: the same draws from rng give
        the same solution, with no right-hand side to replay."""
        y = self._particular_y(b)
        if y is None:
            return None
        m = self._m
        for i, g in enumerate(self._gs):
            y[i] = (y[i] + rng.randrange(g) * (m // g)) % m
        for i in range(len(self._diag), self._n_var):
            y[i] = rng.randrange(m)
        return self._y_to_elems(y)

    def iter_solutions(
        self, b: Optional[Sequence[RingElem]]
    ) -> Iterator[tuple[RingElem, ...]]:
        """All solutions, deterministically ordered by the integer log;
        the first one yielded is its particular solution, which is in
        general not solve()'s witness.  b = None stands for the zero
        right-hand side, as in sample_solution, and yields the same
        solutions in the same order.  Caller is responsible for keeping
        the solution count within reach."""
        base = self._particular_y(b)
        if base is None:
            return
        m = self._m
        k = len(self._diag)
        ranges = [range(g) for g in self._gs]
        ranges += [range(m)] * (self._n_var - k)
        steps = [m // g for g in self._gs] + [1] * (self._n_var - k)
        for offs in itertools.product(*ranges):
            y = [(base[i] + offs[i] * steps[i]) % m
                 for i in range(self._n_var)]
            yield self._y_to_elems(y)
