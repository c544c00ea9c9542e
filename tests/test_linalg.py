import itertools
import random
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaintrace.complexes import HomComplex
from chaintrace.generate import random_complex
from chaintrace.linalg import LinearSolver, Matrix, ShapeError, _smith_log
from chaintrace.rings import RingMismatchError, RingSpec

Z4 = RingSpec(4)
Z5 = RingSpec(5)
Z7 = RingSpec(7)
Z2E = RingSpec(2, True)
Z3E = RingSpec(3, True)
Z5E = RingSpec(5, True)
Z6 = RingSpec(6)
Z9 = RingSpec(9)
Z4E = RingSpec(4, True)
Z9E = RingSpec(9, True)


def det_int(a):
    """Exact integer determinant (Bareiss fraction-free elimination), the
    oracle that the Smith factors U and V are unimodular."""
    n = len(a)
    if n == 0:
        return 1
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def smith_normal_form(a, modulus=None):
    """(U, S, V) with U*a*V = S: the operation logs of the elimination
    replayed onto identity matrices, reduced mod modulus when one is
    given.  V is built transposed, so its column operations are row
    operations."""
    s, row_ops, col_ops = _smith_log(a, modulus)
    rows = len(a)
    cols = len(a[0]) if rows else 0
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    vt = [[int(i == j) for j in range(cols)] for i in range(cols)]
    for mat, ops in ((u, row_ops), (vt, col_ops)):
        for k in range(0, len(ops), 3):
            i, t, q = ops[k:k + 3]
            if not q:
                mat[i], mat[t] = mat[t], mat[i]
                continue
            mat[i] = [x - q * y for x, y in zip(mat[i], mat[t])]
            if modulus is not None:
                mat[i] = [x % modulus for x in mat[i]]
    return u, s, [list(col) for col in zip(*vt)]


def cofactor_det(mat):
    """Determinant by first-row cofactor expansion, the oracle for the
    Berkowitz recursion of Matrix.det."""
    ring = mat.ring

    def go(row, cols):
        if not cols:
            return ring.one()
        acc = ring.zero()
        for pos, c in enumerate(cols):
            term = mat.entry(row, c) * go(row + 1, cols[:pos] + cols[pos + 1:])
            acc = acc - term if pos % 2 else acc + term
        return acc

    return go(0, tuple(range(mat.cols)))


def solve(mat, b):
    return LinearSolver(mat).solve(b)


def kernel_count(mat):
    return LinearSolver(mat).kernel_count


def image_count(mat):
    return LinearSolver(mat).image_count


def M(ring, rows):
    return Matrix.from_rows(ring, rows)


def all_matrices(ring, rows, cols):
    """Every rows x cols matrix over the ring, in deterministic order."""
    for combo in itertools.product(ring.elements(), repeat=rows * cols):
        yield Matrix(ring, rows, cols, tuple(combo))


def random_matrix(rng, ring, rows, cols):
    return Matrix(ring, rows, cols,
                  tuple(ring.from_index(rng.randrange(ring.cardinality))
                        for _ in range(rows * cols)))


# -- basic matrix arithmetic -------------------------------------------------


def test_matmul_known():
    a = M(Z4, [[2]])
    assert a @ a == M(Z4, [[0]])


def test_trace_known():
    assert M(Z4, [[1, 2], [3, 3]]).trace() == Z4.zero()


def test_shape_errors():
    with pytest.raises(ShapeError):
        M(Z4, [[1, 2]]) @ M(Z4, [[1, 2]])
    with pytest.raises(ShapeError):
        M(Z4, [[1, 2]]) + M(Z4, [[1], [2]])
    with pytest.raises(ShapeError):
        M(Z4, [[1, 2]]).trace()
    with pytest.raises(RingMismatchError):
        M(Z4, [[1]]) @ M(Z5, [[1]])


def test_empty_matrices_are_first_class():
    a = Matrix.zero(Z4, 1, 0)
    b = Matrix.zero(Z4, 0, 1)
    assert (a @ b) == Matrix.zero(Z4, 1, 1)
    assert (b @ a) == Matrix.zero(Z4, 0, 0)
    assert Matrix.zero(Z4, 0, 0).det() == Z4.one()
    assert Matrix.zero(Z4, 0, 0).trace() == Z4.zero()
    assert kernel_count(a) == 1          # map out of the zero module
    assert image_count(b) == 1


def test_apply_checks_length_and_ring():
    a = M(Z4, [[1, 1]])
    assert a.apply([Z4.element(3), Z4.element(2)]) == [Z4.element(1)]
    with pytest.raises(ShapeError):
        a.apply([Z4.one()])
    with pytest.raises(RingMismatchError):
        a.apply([Z5.element(3), Z5.element(4)])
    with pytest.raises(RingMismatchError):
        a.apply([Z3E.epsilon(), Z4.one()])


def test_block_assembly():
    a = Matrix.identity(Z4, 1)
    z01 = Matrix.zero(Z4, 0, 1)
    z10 = Matrix.zero(Z4, 1, 0)
    blk = Matrix.block([[a, z10], [z01, Matrix.zero(Z4, 0, 0)]])
    assert blk == a
    two = M(Z4, [[2]])
    assert Matrix.block([[a, two], [Matrix.zero(Z4, 1, 1), a]]) == \
        M(Z4, [[1, 2], [0, 1]])


# -- determinants ------------------------------------------------------------


def test_det_known_values():
    assert M(Z4, [[2, 1], [1, 2]]).det() == Z4.element(3)
    # diag(1+e, 1+2e) over Z/5[e]: det = 1 + 3e
    d = M(Z5E, [[Z5E.element(1, 1), 0], [0, Z5E.element(1, 2)]]).det()
    assert d == Z5E.element(1, 3)


def test_det_multiplicative():
    rng = random.Random(5)
    for ring in (Z4, Z7, Z3E):
        for n in (2, 3, 5):
            for _ in range(8):
                a = random_matrix(rng, ring, n, n)
                b = random_matrix(rng, ring, n, n)
                assert (a @ b).det() == a.det() * b.det()


def test_berkowitz_agrees_with_cofactor():
    """Matrix.det agrees with the cofactor expansion, the oracle."""
    rng = random.Random(11)
    for ring in (Z4, Z7, Z2E, Z3E):
        for n in range(7):
            for _ in range(6):
                a = random_matrix(rng, ring, n, n)
                assert a.det() == cofactor_det(a)


@st.composite
def square_pairs(draw):
    """Two random n x n matrices over one ring, n <= 6."""
    ring = draw(st.sampled_from((Z4, Z6, Z9, Z2E, Z3E, RingSpec(101, True))))
    n = draw(st.integers(0, 6))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    return random_matrix(rng, ring, n, n), random_matrix(rng, ring, n, n)


@settings(max_examples=40)
@given(square_pairs())
def test_det_is_the_cofactor_expansion_and_multiplicative(pair):
    a, b = pair
    assert a.det() == cofactor_det(a)
    assert (a @ b).det() == a.det() * b.det()


def test_det_identity_and_triangular():
    for ring in (Z4, Z3E):
        assert Matrix.identity(ring, 5).det() == ring.one()
    t = M(Z7, [[2, 5, 1, 0, 3],
               [0, 3, 2, 2, 1],
               [0, 0, 1, 4, 4],
               [0, 0, 0, 4, 2],
               [0, 0, 0, 0, 5]])
    assert t.det() == Z7.element(2 * 3 * 1 * 4 * 5)


# -- integer Smith normal form ------------------------------------------------


def _check_snf(a):
    u, s, v = smith_normal_form(a)
    rows, cols = len(a), len(a[0]) if a else 0
    # U a V == S
    def mul(x, y):
        return [[sum(x[i][k] * y[k][j] for k in range(len(y)))
                 for j in range(len(y[0]) if y else 0)] for i in range(len(x))]
    if rows and cols:
        assert mul(mul(u, a), v) == s
    assert abs(det_int(u)) == 1
    assert abs(det_int(v)) == 1
    diag = [s[i][i] for i in range(min(rows, cols))]
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert s[i][j] == 0
    for d in diag:
        assert d >= 0
    for x, y in zip(diag, diag[1:]):
        if x:
            assert y % x == 0
        else:
            assert y == 0
    return diag


def test_snf_known():
    diag = _check_snf([[2, 4], [6, 8]])
    assert diag == [2, 4]


def test_snf_zero_and_identity():
    assert _check_snf([[0, 0], [0, 0]]) == [0, 0]
    assert _check_snf([[1, 0], [0, 1]]) == [1, 1]


def test_snf_random():
    rng = random.Random(3)
    for _ in range(60):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 6)
        a = [[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(rows)]
        _check_snf(a)


# -- Smith factors carried mod m -----------------------------------------------


def _int_lift(rng, m, rows, cols, eps):
    """Random integer lift of a Z/m system, or the doubled [[A0, 0], [A1, A0]]
    lift of a Z/m[e] system."""
    a0 = [[rng.randrange(m) for _ in range(cols)] for _ in range(rows)]
    if not eps:
        return a0
    a1 = [[rng.randrange(m) for _ in range(cols)] for _ in range(rows)]
    return [r0 + [0] * cols for r0 in a0] + \
        [r1 + r0 for r0, r1 in zip(a0, a1)]


def _with_degenerate_variants(a):
    yield a
    yield [[0] * len(a[0])] + a[1:]                      # zero row
    yield [[0] + r[1:] for r in a]                       # zero column
    yield a + [[x + y for x, y in zip(a[0], a[-1])]]     # rank-deficient


def _check_reduced_snf(a, m):
    """smith_normal_form(a, m) against the integer oracle; returns the
    largest bit-length of the integer factors."""
    u, s, v = smith_normal_form(a)
    ur, sr, vr = smith_normal_form(a, m)
    assert sr == s
    assert ur == [[x % m for x in row] for row in u]
    assert vr == [[x % m for x in row] for row in v]
    return max((abs(x).bit_length() for f in (u, v) for row in f for x in row),
               default=0)


def test_reduced_factors_match_integer_factors():
    rng = random.Random(23)
    for m in (4, 6, 9):
        for eps in (False, True):
            for _ in range(10):
                a = _int_lift(rng, m, rng.randrange(1, 5), rng.randrange(1, 5),
                              eps)
                for b in _with_degenerate_variants(a):
                    _check_reduced_snf(b, m)
        _check_reduced_snf([], m)
        _check_reduced_snf([[], []], m)
    # a doubled 16x16 Z/4[e] lift: the integer factors pass 1,000 bits
    big = _int_lift(random.Random(0), 4, 16, 16, True)
    assert _check_reduced_snf(big, 4) > 1000


# -- unit-pivot exits keep the factorisation bit for bit -----------------------


def _reference_snf(a, modulus=None):
    # smith_normal_form before its unit-pivot exits, verbatim: the
    # oracle that the exits move no pivot, quotient or factor
    rows = len(a)
    cols = len(a[0]) if rows else 0
    s = [list(r) for r in a]
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    # V is kept transposed, so its column operations are row operations
    vt = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def row_sub(mat, i, t, q, mod=None):
        # row_i -= q * row_t, reduced mod `mod` when one is given
        mi, mt = mat[i], mat[t]
        if mod is None:
            for j in range(len(mi)):
                mi[j] -= q * mt[j]
        elif q % mod:
            q %= mod
            for j in range(len(mi)):
                mi[j] = (mi[j] - q * mt[j]) % mod

    def col_sub(mat, j, t, q):
        for r in mat:
            r[j] -= q * r[t]

    def col_swap(mat, j, t):
        for r in mat:
            r[j], r[t] = r[t], r[j]

    t = 0
    while t < min(rows, cols):
        # pick the smallest nonzero entry of the working block as pivot
        piv = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = s[i][j]
                if x and (best is None or abs(x) < best):
                    best, piv = abs(x), (i, j)
        if piv is None:
            break
        pi, pj = piv
        if pi != t:
            s[pi], s[t] = s[t], s[pi]
            u[pi], u[t] = u[t], u[pi]
        if pj != t:
            col_swap(s, pj, t)
            vt[pj], vt[t] = vt[t], vt[pj]

        while True:
            i = 0
            while i < rows:
                if i != t and s[i][t]:
                    q = s[i][t] // s[t][t]
                    row_sub(s, i, t, q)
                    row_sub(u, i, t, q, modulus)
                    if s[i][t]:
                        # remainder is smaller than the pivot: promote it
                        # and go on at row i, which now holds the old pivot
                        # row; the rows before it are already clear
                        s[i], s[t] = s[t], s[i]
                        u[i], u[t] = u[t], u[i]
                        continue
                i += 1
            moved = False
            for j in range(cols):
                if j != t and s[t][j]:
                    q = s[t][j] // s[t][t]
                    col_sub(s, j, t, q)
                    row_sub(vt, j, t, q, modulus)
                    if s[t][j]:
                        col_swap(s, j, t)
                        vt[j], vt[t] = vt[t], vt[j]
                        moved = True
                        break
            if not moved:
                break

        # divisibility: the pivot must divide everything that remains
        p = s[t][t]
        dirty = False
        for i in range(t + 1, rows):
            if any(s[i][j] % p for j in range(t + 1, cols)):
                row_sub(s, t, i, -1)   # row_t += row_i
                row_sub(u, t, i, -1, modulus)
                dirty = True
                break
        if dirty:
            continue
        t += 1

    for i in range(min(rows, cols)):
        if s[i][i] < 0:
            for j in range(cols):
                s[i][j] = -s[i][j]
            row_sub(u, i, i, 2, modulus)   # row_i = -row_i
    v = [list(col) for col in zip(*vt)]
    return u, s, v


def _unit_rich(rng, rows, cols):
    return [[rng.choice((-1, 1, 0, 0, 2, -3, 5)) for _ in range(cols)]
            for _ in range(rows)]


def _unit_free(rng, rows, cols):
    p = rng.choice((2, 3))
    return [[p * rng.randrange(-4, 5) for _ in range(cols)]
            for _ in range(rows)]


def _general(rng, rows, cols):
    return [[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(rows)]


def test_snf_unit_exits_match_reference():
    # integer and mod-m factorisations equal the reference's on matrices
    # rich in units, on unit-free ones (entries in 2Z or 3Z, where the
    # divisibility sweep runs at every pivot), on general ones, on
    # doubled Z/m[e] lifts, and on zero-row and zero-column shapes
    rng = random.Random(71)
    cases = [[], [[], []], [[0, 0, 0]], [[0], [0]], [[1]], [[2, 3]]]
    for draw in (_unit_rich, _unit_free, _general):
        for _ in range(40):
            a = draw(rng, rng.randrange(1, 7), rng.randrange(1, 7))
            cases.extend(_with_degenerate_variants(a))
    for m in (2, 3, 4, 6, 9):
        for _ in range(6):
            cases.append(_int_lift(rng, m, rng.randrange(1, 5),
                                   rng.randrange(1, 5), True))
    for a in cases:
        assert smith_normal_form(a) == _reference_snf(a)
        for m in (4, 6, 9):
            assert smith_normal_form(a, m) == _reference_snf(a, m)


def test_solver_keeps_entries_below_modulus():
    rng = random.Random(8)
    cases = [random_matrix(rng, ring, rng.randrange(0, 5), rng.randrange(0, 5))
             for ring in (Z4, Z6, Z9, Z4E, Z9E) for _ in range(10)]
    cases.append(random_matrix(rng, Z4E, 16, 16))
    for a in cases:
        solver = LinearSolver(a)
        m = a.ring.modulus
        # the multipliers of both logs (a 0 marks a swap) and the diagonal
        kept = solver._row_ops[2::3] + solver._col_ops[2::3] + solver._diag
        assert all(0 <= x < m for x in kept)
        x = [a.ring.from_index(rng.randrange(a.ring.cardinality))
             for _ in range(a.cols)]
        b = a.apply(x)
        assert a.apply(list(solver.solve(b).witness)) == b


def _solver_lift(mat):
    """The integer system LinearSolver factors: the matrix itself over
    Z/m, the doubled [[A0, 0], [A1, A0]] over Z/m[e]."""
    c = mat.cols
    rows = [mat.entries[i * c:(i + 1) * c] for i in range(mat.rows)]
    lift = [[x.a for x in row] for row in rows]
    if mat.ring.has_epsilon:
        lift = ([row + [0] * c for row in lift]
                + [[x.b for x in row] + row0 for row, row0 in zip(rows, lift)])
    return lift


class _DenseSolver(LinearSolver):
    """LinearSolver with U, S and V taken from _reference_snf and U and V
    applied by matrix products: the slow oracle for the operation logs."""

    def __init__(self, mat):
        self.ring, self.mat = mat.ring, mat
        m = self._m = mat.ring.modulus
        self._eps = mat.ring.has_epsilon
        lift = _solver_lift(mat)
        n_eq = self._n_eq = len(lift)
        n_var = self._n_var = (2 if self._eps else 1) * mat.cols
        if lift:
            self._u, s, self._v = _reference_snf(lift, m)
        else:
            self._u, s = [], []
            self._v = [[int(i == j) for j in range(n_var)]
                       for i in range(n_var)]
        k = min(n_eq, n_var)
        self._diag = [s[i][i] % m for i in range(k)]
        self._gs = [gcd(d, m) for d in self._diag]
        self._row_gs = self._gs + [m] * (n_eq - k)
        self.kernel_count = prod(self._gs, start=1) * m ** (n_var - k)

    def _transform(self, rhs):
        return [sum(x * y for x, y in zip(row, rhs)) % self._m
                for row in self._u]

    def _y_to_elems(self, y):
        x = [sum(a * b for a, b in zip(row, y)) % self._m for row in self._v]
        cols = self.mat.cols
        if self._eps:
            return tuple(self.ring.element(x[j], x[cols + j])
                         for j in range(cols))
        return tuple(self.ring.element(x[j]) for j in range(cols))


def _cross_check_systems(rng):
    """Random matrices with their zero-row, zero-column and rank-deficient
    variants, empty shapes, and the degree -1, 0 and 1 Hom-complex
    matrices between random complexes."""
    for ring in (Z4, Z6, Z9, Z2E, Z3E):
        for _ in range(6):
            a = random_matrix(rng, ring, rng.randrange(1, 6),
                              rng.randrange(1, 6))
            rows = [list(a.entries[i * a.cols:(i + 1) * a.cols])
                    for i in range(a.rows)]
            for b in _with_degenerate_variants(rows):
                yield Matrix.from_rows(ring, b)
        for r, c in ((0, 0), (0, 3), (3, 0)):
            yield Matrix.zero(ring, r, c)
        for _ in range(5):
            source, target = (
                random_complex(rng, ring, max_window=3, max_rank=3,
                               lo=rng.randrange(2))
                for _ in range(2))
            for k in (-1, 0, 1):
                yield HomComplex(source, target, k).solver.mat


def test_solver_matches_the_dense_reference():
    # the operation logs give the dense factors' counts, witnesses, coset
    # keys, samples and solution order on every system and right-hand side
    rng = random.Random(19)
    for a in _cross_check_systems(rng):
        fast, slow = LinearSolver(a), _DenseSolver(a)
        assert fast.kernel_count == slow.kernel_count
        assert fast.image_count == slow.image_count
        ring = a.ring
        x = [ring.from_index(rng.randrange(ring.cardinality))
             for _ in range(a.cols)]
        b_any = [ring.from_index(rng.randrange(ring.cardinality))
                 for _ in range(a.rows)]
        for b in ([ring.zero()] * a.rows, a.apply(x), b_any):
            report = fast.solve(b)
            assert report == slow.solve(b)
            if report.solvable:
                assert a.apply(list(report.witness)) == b
            assert fast.coset_key(b) == slow.coset_key(b)
            seed = rng.randrange(2 ** 32)
            assert fast.sample_solution(b, random.Random(seed)) == \
                slow.sample_solution(b, random.Random(seed))
            assert list(itertools.islice(fast.iter_solutions(b), 20)) == \
                list(itertools.islice(slow.iter_solutions(b), 20))


def test_bareiss_det_known():
    assert det_int([[2, 4], [6, 8]]) == -8
    assert det_int([[1, 2], [3, 4]]) == -2
    assert det_int([]) == 1
    assert det_int([[0, 1], [0, 0]]) == 0


# -- solving -----------------------------------------------------------------


def brute_solutions(a, b):
    """Oracle: enumerate the whole domain and keep vectors with A x = b."""
    ring = a.ring
    out = []
    for xs in itertools.product(ring.elements(), repeat=a.cols):
        if a.apply(list(xs)) == list(b):
            out.append(xs)
    return out


def test_solve_known_values():
    rep = solve(M(Z4, [[2]]), [Z4.element(2)])
    assert rep.solvable and rep.solution_count == 2
    assert M(Z4, [[2]]).apply(list(rep.witness)) == [Z4.element(2)]

    rep = solve(M(Z4, [[2]]), [Z4.element(1)])
    assert not rep.solvable and rep.witness is None and rep.solution_count == 0


def test_counts_known_values():
    assert kernel_count(M(Z4, [[2]])) == 2
    e = Z3E.epsilon()
    assert image_count(Matrix(Z3E, 1, 1, (e,))) == 3


def test_count_identity():
    """|R|^cols = kernel * image for assorted matrices."""
    rng = random.Random(9)
    for ring in (Z4, Z5, Z3E):
        for _ in range(20):
            a = random_matrix(rng, ring, rng.randrange(0, 4),
                              rng.randrange(0, 4))
            assert ring.cardinality ** a.cols == \
                kernel_count(a) * image_count(a)


@pytest.mark.parametrize("ring", [Z4, Z2E])
def test_solver_matches_enumeration_small(ring):
    """1x1 systems, all matrices, all right-hand sides (full 2x2 sweep
    lives in the acceptance suite)."""
    for a in all_matrices(ring, 1, 1):
        solver = LinearSolver(a)
        for b in ring.elements():
            sols = brute_solutions(a, (b,))
            rep = solver.solve([b])
            assert rep.solvable == bool(sols)
            assert rep.solution_count == len(sols)
            if sols:
                assert a.apply(list(rep.witness)) == [b]
                assert rep.witness == sols[0] or rep.witness in sols


def test_iter_solutions_complete_and_ordered():
    rng = random.Random(21)
    for ring in (Z4, Z3E):
        for _ in range(15):
            a = random_matrix(rng, ring, rng.randrange(1, 3),
                              rng.randrange(0, 3))
            b = [ring.from_index(rng.randrange(ring.cardinality))
                 for _ in range(a.rows)]
            got = list(LinearSolver(a).iter_solutions(b))
            expect = brute_solutions(a, b)
            assert sorted(x.index for s in got for x in s) == \
                sorted(x.index for s in expect for x in s)
            assert len(got) == len(set(got)) == len(expect)
            rep = LinearSolver(a).solve(b)
            if got:
                assert got[0] == rep.witness


def test_sample_solution_always_solves():
    rng = random.Random(2)
    for ring in (Z4, Z2E, Z5):
        for _ in range(20):
            a = random_matrix(rng, ring, 2, 3)
            x = [ring.from_index(rng.randrange(ring.cardinality))
                 for _ in range(3)]
            b = a.apply(x)
            got = LinearSolver(a).sample_solution(b, rng)
            assert got is not None
            assert a.apply(list(got)) == b


def test_coset_key_is_image_invariant():
    rng = random.Random(14)
    for ring in (Z4, Z3E):
        a = random_matrix(rng, ring, 2, 2)
        solver = LinearSolver(a)
        for _ in range(40):
            b1 = [ring.from_index(rng.randrange(ring.cardinality))
                  for _ in range(2)]
            b2 = [ring.from_index(rng.randrange(ring.cardinality))
                  for _ in range(2)]
            diff = [x - y for x, y in zip(b1, b2)]
            same = solver.coset_key(b1) == solver.coset_key(b2)
            assert same == solver.is_solvable(diff)


def test_solver_shape_checks():
    with pytest.raises(ShapeError):
        solve(M(Z4, [[1, 2]]), [Z4.one(), Z4.one()])
    with pytest.raises(RingMismatchError):
        solve(M(Z4, [[1]]), [Z5.one()])
