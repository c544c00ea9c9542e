"""Exact matrix arithmetic and linear-system solving over the small rings.

Matrices are immutable, row-major, and allowed to have zero rows or
columns (a map to or from the zero module); such empty matrices behave
correctly under every operation (det of the 0x0 matrix is 1, trace 0,
products with an empty middle dimension are zero matrices).

The solver lifts a system over Z/m to the integers and runs Smith normal
form there.  A system over Z/m[e] is handled by splitting x = x0 + e*x1
and solving the doubled block system  [[A0, 0], [A1, A0]] [x0; x1] = [b0; b1]
over Z/m, which is an exact translation of the original problem.  The
diagonal S stays an exact integer matrix because the pivot choice reads
it.  The unimodular factors U and V are never built: the elimination
logs its row and column operations, with multipliers reduced mod m, and
the solver replays the logs on each right-hand side and each solution.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
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
    ring, m = mat.ring, mat.ring.modulus
    k = mat.cols
    a = mat.entries
    out: list[RingElem] = []
    for i in range(mat.rows):
        for j in range(cols):
            # accumulate on plain ints, one element built per entry
            sa = sb = 0
            for t in range(k):
                x = a[i * k + t]
                y = other[t * cols + j]
                sa += x.a * y.a
                sb += x.a * y.b + x.b * y.a
            out.append(RingElem(ring, sa % m, sb % m))
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
    element is built at the end.
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
    return RingElem(mat.ring, d_a, d_b)


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

    def col_sub(j, t, q):
        for r in s:
            r[j] -= q * r[t]

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
                    q = s[t][j] // s[t][t]
                    col_sub(j, t, q)
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
# Linear systems A x = b over the ring
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SolutionReport:
    """Outcome of solving A x = b: exact solvability, one witness, and the
    exact number of solutions (0 when unsolvable)."""

    solvable: bool
    witness: Optional[tuple[RingElem, ...]]
    solution_count: int


class LinearSolver:
    """Factor a matrix once, then answer many right-hand sides.

    Everything reduces to integer SNF of a lift of the matrix: for Z/m the
    lift is the matrix itself; for Z/m[e] it is the doubled block system
    described in the module docstring.  With U*lift*V = S and c = U b, the
    diagonal equation s_i y_i = c_i (mod m) is solvable iff gcd(s_i, m)
    divides c_i and then has exactly gcd(s_i, m) solutions; rows past the
    diagonal need c_i = 0, and columns past it are free (factor m each).

    U and V are never built: the elimination keeps its row and column
    operations as two logs, with multipliers reduced mod m, and each query
    replays them on its own vector (U b forward, V y in reverse), so every
    integer kept here lies in [0, m).  kernel_count reads only the
    diagonal.  S itself is eliminated exactly, which fixes the pivots and
    so the witnesses and the samples drawn.  The pivot is always the first
    least-magnitude entry of the working block in row-major order; the
    early exits at a unit pivot keep that rule, so they move no witness and
    no sample.
    """

    def __init__(self, mat: Matrix):
        self.ring = mat.ring
        self.mat = mat
        m = self.ring.modulus
        self._m = m
        eps = self.ring.has_epsilon
        self._eps = eps
        r, c = mat.rows, mat.cols
        rows = [mat.entries[i * c:(i + 1) * c] for i in range(r)]
        lift = [[x.a for x in row] for row in rows]
        if eps:
            # the doubled block system [[A0, 0], [A1, A0]]
            lift = ([row + [0] * c for row in lift]
                    + [[x.b for x in row] + row0
                       for row, row0 in zip(rows, lift)])
        self._n_eq, self._n_var = len(lift), (2 if eps else 1) * c
        s, self._row_ops, self._col_ops = _smith_log(lift, m)
        k = min(self._n_eq, self._n_var)
        # s_i mod m keeps gcd(s_i, m) and (s_i / g) mod (m / g) exact
        self._diag = [s[i][i] % m for i in range(k)]
        self._gs = [gcd(d, m) for d in self._diag]
        # one gcd per equation row: rows past the diagonal demand c_i = 0
        self._row_gs = self._gs + [m] * (self._n_eq - k)
        self.kernel_count = prod(self._gs, start=1) * m ** (self._n_var - k)

    @property
    def image_count(self) -> int:
        """Exact size of the image, via |domain| = kernel * image."""
        return self.ring.cardinality ** self.mat.cols // self.kernel_count

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
        """U b mod m, by replaying the row log on rhs in place."""
        if not any(rhs):
            return rhs
        m = self._m
        ops = iter(self._row_ops)
        for i, t, q in zip(ops, ops, ops):
            if q:
                rhs[i] = (rhs[i] - q * rhs[t]) % m
            else:
                rhs[i], rhs[t] = rhs[t], rhs[i]
        return rhs

    def _particular_y(self, c: list[int]) -> Optional[list[int]]:
        m = self._m
        y = [0] * self._n_var
        for i, ci in enumerate(c):
            g = self._row_gs[i]
            if ci % g:
                return None
            if i < len(self._diag):
                mm = m // g
                if mm > 1:
                    s_red = (self._diag[i] // g) % mm
                    y[i] = (ci // g) * pow(s_red, -1, mm) % mm
        return y

    def _y_to_elems(self, y: list[int]) -> tuple[RingElem, ...]:
        """The elements of V y, by replaying the column log backwards on y
        in place; y is reduced mod m."""
        m = self._m
        ops = reversed(self._col_ops)
        for q, t, i in zip(ops, ops, ops):
            if q:
                y[t] = (y[t] - q * y[i]) % m
            else:
                y[i], y[t] = y[t], y[i]
        cols = self.mat.cols
        if self._eps:
            return tuple(RingElem(self.ring, y[j], y[cols + j])
                         for j in range(cols))
        return tuple(RingElem(self.ring, y[j]) for j in range(cols))

    # -- queries -----------------------------------------------------------

    def is_solvable(self, b: Sequence[RingElem]) -> bool:
        return not any(self.coset_key(b))

    def solve(self, b: Sequence[RingElem]) -> SolutionReport:
        c = self._transform(self._rhs_ints(b))
        y = self._particular_y(c)
        if y is None:
            return SolutionReport(False, None, 0)
        return SolutionReport(True, self._y_to_elems(y), self.kernel_count)

    def coset_key(self, b: Sequence[RingElem]) -> tuple[int, ...]:
        """Complete invariant of b modulo the image of the matrix: two
        right-hand sides get the same key iff they differ by something
        solvable.  The all-zero key means b itself is solvable."""
        c = self._transform(self._rhs_ints(b))
        return tuple(ci % g for ci, g in zip(c, self._row_gs))

    def sample_solution(self, b: Sequence[RingElem],
                        rng: Random) -> Optional[tuple[RingElem, ...]]:
        """Uniformly random solution, or None when unsolvable."""
        c = self._transform(self._rhs_ints(b))
        y = self._particular_y(c)
        if y is None:
            return None
        m = self._m
        for i, g in enumerate(self._gs):
            y[i] = (y[i] + rng.randrange(g) * (m // g)) % m
        for i in range(len(self._diag), self._n_var):
            y[i] = rng.randrange(m)
        return self._y_to_elems(y)

    def iter_solutions(
        self, b: Sequence[RingElem]
    ) -> Iterator[tuple[RingElem, ...]]:
        """All solutions, deterministically ordered; the first one yielded
        is the same witness solve() reports.  Caller is responsible for
        keeping the solution count within reach."""
        c = self._transform(self._rhs_ints(b))
        base = self._particular_y(c)
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

