import itertools
import random

import pytest

from chaintrace.complexes import ChainMap, PerfectComplex
from chaintrace.detline import (
    BridgeReport,
    GradedLine,
    NotAutomorphismError,
    det_line_of,
    det_of_automorphism,
    det_trace_bridge,
    koszul_swap,
    tensor,
    unit_line,
)
from chaintrace.homotopy import graded_trace
from chaintrace.linalg import Matrix
from chaintrace.rings import RingSpec

Z4 = RingSpec(4)
Z5 = RingSpec(5)
Z7 = RingSpec(7)
Z3E = RingSpec(3, True)


def M(ring, rows):
    return Matrix.from_rows(ring, rows)


def test_line_rejects_non_unit_scalar():
    with pytest.raises(ValueError):
        GradedLine(0, Z4.element(2))


def test_tensor_and_inverse():
    a = GradedLine(2, Z5.element(2))
    b = GradedLine(-1, Z5.element(3))
    t = tensor(a, b)
    assert (t.degree, t.scalar) == (1, Z5.element(1))
    assert tensor(a, a.inverse()) == unit_line(Z5)
    assert a.inverse().scalar == Z5.element(3)  # 2*3 = 6 = 1 mod 5


def test_koszul_swap_values():
    assert koszul_swap(1, 1) == -1
    assert koszul_swap(2, 1) == 1
    assert koszul_swap(0, 5) == 1
    for r, s in itertools.product(range(-3, 4), repeat=2):
        sign = koszul_swap(r, s)
        assert sign in (1, -1)
        assert sign == koszul_swap(s, r)
        assert sign * sign == 1
        assert sign == (1 if (r % 2 == 0 or s % 2 == 0) else -1)


def test_det_line_of_uses_alternating_rank():
    k = PerfectComplex.build(Z4, -1, [2, 1, 3])
    line = det_line_of(k)
    assert line.degree == k.euler_rank() == -4
    assert line.scalar == Z4.one()


def test_det_of_automorphism_single_odd_degree():
    k = PerfectComplex.single(Z5, 1, 1)
    u = ChainMap.build(k, k, {1: M(Z5, [[2]])})
    # odd degree contributes the inverse: 2^(-1) = 3 mod 5
    assert det_of_automorphism(u) == Z5.element(3)


def test_det_of_automorphism_known_two_by_two():
    k = PerfectComplex.single(Z7, 0, 2)
    u = ChainMap.build(k, k, {0: M(Z7, [[1, 2], [3, 4]])})
    assert det_of_automorphism(u) == Z7.element(1 * 4 - 2 * 3)


def test_det_of_automorphism_rejects_non_unit():
    k = PerfectComplex.single(Z4, 0, 1)
    u = ChainMap.build(k, k, {0: M(Z4, [[2]])})
    with pytest.raises(NotAutomorphismError):
        det_of_automorphism(u)


def test_det_of_automorphism_multiplicative_on_composites():
    rng = random.Random(9)
    k = PerfectComplex.build(Z5, 0, [2, 1])
    for _ in range(25):
        def rand_auto():
            while True:
                comps = {
                    n: Matrix(Z5, k.rank(n), k.rank(n),
                              tuple(Z5.element(rng.randrange(5))
                                    for _ in range(k.rank(n) ** 2)))
                    for n in k.degrees()}
                u = ChainMap.build(k, k, comps)
                try:
                    det_of_automorphism(u)
                    return u
                except NotAutomorphismError:
                    continue
        u, v = rand_auto(), rand_auto()
        assert det_of_automorphism(u @ v) == \
            det_of_automorphism(u) * det_of_automorphism(v)


def test_bridge_known_value():
    k = PerfectComplex.single(Z7, 0, 2)
    u = ChainMap.build(k, k, {0: M(Z7, [[1, 2], [3, 4]])})
    rep = det_trace_bridge(u)
    lifted = RingSpec(7, True)
    assert rep.trace_side == lifted.element(1, 5)
    assert rep.det_side == lifted.element(1, 5)
    assert rep.agree


def test_bridge_exhaustive_one_by_one():
    for ring in (Z4, Z7):
        k = PerfectComplex.single(ring, 0, 1)
        for a in range(ring.modulus):
            u = ChainMap.build(k, k, {0: M(ring, [[a]])})
            rep = det_trace_bridge(u)
            assert rep.agree
            assert rep.trace_side.b == a % ring.modulus


def test_bridge_across_degrees_and_signs():
    # one rank in degree 0 and one in degree 1: the degree-1 factor
    # enters inverted, which over the square-zero extension means the
    # trace flips sign — agreement still has to hold; also behind a
    # zero-rank degree that only direct construction keeps
    rng = random.Random(2)
    k = PerfectComplex.build(Z5, 0, [1, 1])
    padded = PerfectComplex(Z5, -1, (0, 1, 1),
                            (Matrix.zero(Z5, 1, 0), k.diff(0)))
    for src, _ in itertools.product((k, padded), range(20)):
        u = ChainMap.build(src, src, {
            0: M(Z5, [[rng.randrange(5)]]),
            1: M(Z5, [[rng.randrange(5)]])})
        rep = det_trace_bridge(u)
        assert rep.agree
        assert rep.trace_side.b == graded_trace(u).a


def test_bridge_rejects_epsilon_ring():
    k = PerfectComplex.single(Z3E, 0, 1)
    with pytest.raises(ValueError):
        det_trace_bridge(ChainMap.identity(k))


def test_det_and_bridge_need_an_endomorphism():
    f = ChainMap.zero(PerfectComplex.single(Z4, 0, 1),
                      PerfectComplex.single(Z4, 0, 2))
    with pytest.raises(ValueError, match="^determinant needs an "
                                         "endomorphism$"):
        det_of_automorphism(f)
    with pytest.raises(ValueError, match="^the comparison needs an "
                                         "endomorphism$"):
        det_trace_bridge(f)


def test_bridge_random_matrices():
    rng = random.Random(8)
    for ring in (Z4, Z5):
        for size in (2, 3):
            k = PerfectComplex.single(ring, 0, size)
            for _ in range(20):
                u = ChainMap.build(k, k, {0: Matrix(
                    ring, size, size,
                    tuple(ring.element(rng.randrange(ring.modulus))
                          for _ in range(size * size)))})
                assert det_trace_bridge(u).agree
