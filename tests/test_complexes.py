import itertools
import random
import re

import pytest

from chaintrace.complexes import (
    ChainMap,
    ChainMapSpace,
    HomComplex,
    Homotopy,
    PerfectComplex,
    direct_sum,
    mapping_cone,
    _hom_d,
    _hom_matrix,
    _hom_slots,
    _Term,
)
from chaintrace.generate import random_complex, random_matrix
from chaintrace.linalg import Matrix, ShapeError
from chaintrace.rings import RingSpec
from oracles import integer_lift, ring_hom_complex_matrix, ring_hom_matrix

Z4 = RingSpec(4)
Z3E = RingSpec(3, True)


def M(ring, rows):
    return Matrix.from_rows(ring, rows)


def two_term(ring, x):
    """0 -> R --x--> R -> 0 in degrees 0, 1."""
    return PerfectComplex.build(ring, 0, [1, 1], {0: M(ring, [[x]])})


def test_build_normalises_zero_edges():
    k = PerfectComplex.build(Z4, 0, [0, 1])
    assert (k.lo, k.ranks) == (1, (1,))
    assert k == PerfectComplex.single(Z4, 1, 1)
    z = PerfectComplex.build(Z4, 5, [0, 0])
    assert (z.lo, z.ranks) == (0, (0,))


def test_accessors_outside_window():
    k = PerfectComplex.single(Z4, 1, 2)
    assert k.rank(0) == 0 and k.rank(1) == 2 and k.rank(7) == 0
    d = k.diff(0)
    assert (d.rows, d.cols) == (2, 0)
    assert (k.diff(1).rows, k.diff(1).cols) == (0, 2)


def test_euler_rank():
    assert PerfectComplex.single(Z4, 0, 3).euler_rank() == 3
    assert PerfectComplex.single(Z4, 1, 1).euler_rank() == -1
    l = two_term(Z3E, Z3E.epsilon())
    assert l.euler_rank() == 0
    assert PerfectComplex.build(Z4, -1, [2, 1, 3]).euler_rank() == -2 + 1 - 3


def test_euler_rank_additive_under_direct_sum():
    rng = random.Random(1)
    for _ in range(20):
        a = PerfectComplex.build(Z4, rng.randrange(-2, 2),
                                 [rng.randrange(4) for _ in range(3)])
        b = PerfectComplex.build(Z4, rng.randrange(-2, 2),
                                 [rng.randrange(4) for _ in range(2)])
        assert direct_sum(a, b).euler_rank() == a.euler_rank() + b.euler_rank()


def test_validate_d_squared_failure_and_degree():
    k = PerfectComplex.build(Z4, 0, [1, 1, 1],
                             {0: M(Z4, [[1]]), 1: M(Z4, [[1]])})
    v = k.validate()
    assert not v and v.kind == "d-squared" and v.degree == 0


def test_validate_shape_reported_distinctly():
    k = PerfectComplex(Z4, 0, (1, 1), (Matrix.zero(Z4, 2, 1),))
    v = k.validate()
    assert not v and v.kind == "shape" and v.degree == 0
    # a differential over another ring is its own kind, checked first
    k = PerfectComplex(Z4, 0, (1, 1), (M(RingSpec(5), [[1]]),))
    v = k.validate()
    assert (v.ok, v.kind, v.degree, v.message) == (
        False, "ring", 0,
        "differential at degree 0 lives over Z/5, complex over Z/4")


def test_valid_three_term():
    k = PerfectComplex.build(Z4, 0, [1, 1, 1],
                             {0: M(Z4, [[2]]), 1: M(Z4, [[2]])})
    assert k.validate()


def test_unit_perturbation_breaks_d_squared():
    k = PerfectComplex.build(Z4, 0, [1, 1, 1],
                             {0: M(Z4, [[2]]), 1: M(Z4, [[2]])})
    bumped = PerfectComplex.build(
        Z4, 0, [1, 1, 1],
        {0: M(Z4, [[2 + 1]]), 1: M(Z4, [[2]])})
    assert not bumped.validate()


def test_shift():
    l = two_term(Z3E, Z3E.epsilon())
    s = l.shift(1)
    assert (s.lo, s.hi) == (-1, 0)
    assert s.diff(-1) == M(Z3E, [[Z3E.element(0, 2)]])   # -e = 2e
    assert s.euler_rank() == -l.euler_rank() == 0
    assert l.shift(2).diff(-2) == l.diff(0)
    assert l.shift(1).shift(-1) == l
    k = PerfectComplex.single(Z4, 0, 2)
    assert k.shift(1).euler_rank() == -2


def test_chain_map_shift():
    l = two_term(Z3E, Z3E.epsilon())
    f = ChainMap.build(l, l, {0: M(Z3E, [[1]]), 1: M(Z3E, [[1]])})
    s = f.shift(1)
    assert s.source == l.shift(1) and s.target == l.shift(1)
    assert s.comp(-1) == f.comp(0) and s.comp(0) == f.comp(1)
    assert s.validate()
    assert f.shift(1).shift(-1) == f
    # a non-endomorphism example: component degrees move with the complexes
    k = PerfectComplex.single(Z3E, 1, 1)
    g = ChainMap.build(k, l, {1: M(Z3E, [[1]])})
    assert g.shift(-2).comp(3) == g.comp(1)
    assert g.shift(-2).validate()


def test_chain_map_identity_and_composition():
    l = two_term(Z3E, Z3E.epsilon())
    ident = ChainMap.identity(l)
    assert ident.validate()
    assert (ident @ ident) == ident
    v = ChainMap.build(l, l, {1: M(Z3E, [[Z3E.epsilon()]])})
    assert v.validate()
    assert (v @ v).is_zero()          # e^2 = 0
    assert (ident @ v) == v


def test_chain_map_commute_failure_degree():
    l = two_term(Z3E, Z3E.epsilon())
    f = ChainMap.build(l, l, {0: M(Z3E, [[1]]), 1: M(Z3E, [[0]])})
    v = f.validate()
    assert not v and v.kind == "commute" and v.degree == 0


def test_chain_map_across_different_windows():
    k = PerfectComplex.single(Z3E, 1, 1)
    l = two_term(Z3E, Z3E.epsilon())
    j = ChainMap.build(k, l, {1: M(Z3E, [[1]])})
    assert j.validate()
    q = ChainMap.build(l, PerfectComplex.single(Z3E, 0, 1),
                       {0: M(Z3E, [[1]])})
    assert q.validate()
    assert (q @ j).is_zero()


def test_composition_of_chain_maps_is_chain_map():
    rng = random.Random(7)
    l = two_term(Z4, 2)
    space = ChainMapSpace(l, l)
    for _ in range(10):
        f, g = space.sample(rng), space.sample(rng)
        assert (g @ f).validate()
        assert (f + g).validate()


def test_mapping_cone_of_identity():
    k = PerfectComplex.single(Z4, 1, 1)
    cone = mapping_cone(ChainMap.identity(k))
    assert (cone.lo, cone.hi) == (0, 1)
    assert cone.ranks == (1, 1)
    assert cone.diff(0) == M(Z4, [[1]])
    assert cone.validate()


def test_mapping_cone_of_zero_is_shifted_sum():
    l = two_term(Z4, 2)
    k = PerfectComplex.build(Z4, 0, [1, 1], {0: M(Z4, [[2]])})
    cone = mapping_cone(ChainMap.zero(k, l))
    assert cone == direct_sum(k.shift(1), l)
    assert cone.euler_rank() == l.euler_rank() - k.euler_rank()


def test_mapping_cone_rejects_invalid_map():
    l = two_term(Z3E, Z3E.epsilon())
    bad = ChainMap.build(l, l, {0: M(Z3E, [[1]]), 1: M(Z3E, [[0]])})
    with pytest.raises(ValueError):
        mapping_cone(bad)


def test_mapping_cone_validates_in_general():
    rng = random.Random(3)
    l = PerfectComplex.build(Z4, 0, [1, 2, 1],
                             {0: M(Z4, [[2], [0]]), 1: M(Z4, [[0, 2]])})
    assert l.validate()
    space = ChainMapSpace(l, l)
    for _ in range(8):
        f = space.sample(rng)
        assert mapping_cone(f).validate()


def brute_chain_maps(src, tgt):
    """Oracle: all degreewise matrix families satisfying d f = f d."""
    ring = src.ring
    lo, hi = min(src.lo, tgt.lo), max(src.hi, tgt.hi)
    degs = [n for n in range(lo, hi + 1) if src.rank(n) * tgt.rank(n)]
    shapes = [(tgt.rank(n), src.rank(n)) for n in degs]
    found = []
    pools = [list(itertools.product(ring.elements(), repeat=r * c))
             for r, c in shapes]
    for combo in itertools.product(*pools):
        comps = {n: Matrix(ring, r, c, tuple(ent))
                 for n, (r, c), ent in zip(degs, shapes, combo)}
        f = ChainMap.build(src, tgt, comps)
        if f.validate():
            found.append(f)
    return found


def test_chain_map_space_matches_brute_force():
    for ring, x in ((Z4, 2), (Z3E, None)):
        val = ring.epsilon() if x is None else ring.element(x)
        l = two_term(ring, val)
        k = PerfectComplex.single(ring, 1, 1)
        for src, tgt in ((l, l), (k, l), (l, k), (k, k)):
            space = ChainMapSpace(src, tgt)
            expect = brute_chain_maps(src, tgt)
            got = list(space.iter_all())
            assert space.count == len(expect) == len(got)
            assert set(got) == set(expect)


def brute_hom_cycles(src, tgt, k):
    """Oracle: every degree-k family X^n : src^n -> tgt^(n+k) with
    d X^n = (-1)^k X^(n+1) d in every degree, as ((n, X^n), ...) tuples
    over the degrees where the block is nonempty."""
    ring = src.ring
    degs = [n for n in src.degrees() if tgt.rank(n + k) * src.rank(n)]
    shapes = [(tgt.rank(n + k), src.rank(n)) for n in degs]
    pools = [list(itertools.product(ring.elements(), repeat=r * c))
             for r, c in shapes]
    found = set()
    for combo in itertools.product(*pools):
        x = {n: Matrix(ring, r, c, tuple(ent))
             for n, (r, c), ent in zip(degs, shapes, combo)}

        def block(n):
            if n in x:
                return x[n]
            return Matrix.zero(ring, tgt.rank(n + k), src.rank(n))

        for n in range(src.lo - 1, src.hi + 1):
            lhs = tgt.diff(n + k) @ block(n)
            rhs = block(n + 1) @ src.diff(n)
            if lhs != (-rhs if k % 2 else rhs):
                break
        else:
            found.add(tuple(x.items()))
    return degs, found


def test_hom_complex_cycles_are_chain_maps_into_shift():
    """Z^k Hom(S, T) is the chain maps S -> T[k], because the shift puts
    (-1)^k on d_T; on tiny instances both match enumeration map by map
    (counts alone cannot see the sign: X^n -> (-1)^n X^n swaps the two
    sign rules)."""
    rng = random.Random(11)
    brute, constrained = 0, 0
    for ring in (Z4, RingSpec(2, True), Z3E):
        for _ in range(30):
            src, tgt = (random_complex(rng, ring, max_window=3, max_rank=2,
                                       lo=rng.randint(0, 1))
                        for _ in range(2))
            for k in range(-2, 3):
                hom = HomComplex(src, tgt, k)
                shifted = ChainMapSpace(src, tgt.shift(k))
                assert hom.count == shifted.count
                if ring == Z4 and hom.n_vars <= 6:
                    degs, expect = brute_hom_cycles(src, tgt, k)
                    # a cycle is its map's comps, empty blocks included
                    cycles = set(hom.iter_cycles())
                    maps = {f.comps for f in shifted.iter_all()}
                    full = {tuple(dict(x).get(n, Matrix.zero(
                        ring, tgt.rank(n + k), src.rank(n)))
                        for n in src.degrees()) for x in expect}
                    assert hom.count == len(expect)
                    assert cycles == maps == full
                    brute += 1
                    constrained += hom.count < 4 ** hom.n_vars
    assert brute >= 100 and constrained >= 10


def test_hom_differential_matches_hom_complex_rows():
    """The matrix-product D of Hom, which ChainMap.validate, perturb and
    make_extension evaluate, equals HomComplex's row assembly applied to
    the unknowns, block by block, for random degree-k elements (mostly
    not cycles, so the sign at odd k shows)."""
    rng = random.Random(12)
    cases = non_cycles = 0
    for ring in (Z4, RingSpec(6), RingSpec(2, True), Z3E):
        for _ in range(40):
            src, tgt = (random_complex(rng, ring, max_window=4, max_rank=2,
                                       lo=rng.randint(0, 1))
                        for _ in range(2))
            for k in range(-2, 3):
                hom = HomComplex(src, tgt, k)
                x = {n: random_matrix(rng, ring, r, c)
                     for n, r, c in hom.var_slots}

                def padded(n):
                    return x.get(n, Matrix.zero(ring, tgt.rank(n + k),
                                                src.rank(n)))

                dx = dict(_hom_d(src, tgt, k, padded))
                assert list(dx) == [n for n, _, _ in hom.eq_slots]
                vec = [e for n, _, _ in hom.var_slots for e in x[n].entries]
                # the vector is its map's blocks in order, empty ones too
                assert hom.to_comps(vec) == tuple(map(padded, src.degrees()))
                # D(X), a degree k+1 map, flattens to the rows applied
                assert hom.flatten(ChainMap.build(src, tgt.shift(k + 1), dx)) \
                    == ring_hom_complex_matrix(hom).apply(vec)
                cases += 1
                non_cycles += any(not b.is_zero() for b in dx.values())
    assert cases == 800 and non_cycles >= 100


def test_hom_complex_system_is_the_lift_of_the_ring_reference():
    """HomComplex's system, written straight into integer rows, is the
    lift of the same matrix summed in the ring (`tests/oracles.py`) at k
    = -2..2: its rows and e-part rows, its shape and its hash, also when
    some blocks are empty, the windows do not meet, or a complex is
    zero."""
    rng = random.Random(15)
    shapes = dict.fromkeys(("no equations", "no unknowns", "both"), 0)
    for ring in (Z4, RingSpec(6), RingSpec(2, True), Z3E):
        pool = [PerfectComplex.single(ring, 0, 0),
                PerfectComplex.single(ring, 3, 2)]
        for _ in range(25):
            src, tgt = (random_complex(rng, ring, max_window=3, max_rank=2,
                                       lo=rng.randint(-1, 2))
                        for _ in range(2))
            for source, target in ((src, tgt), (src, rng.choice(pool)),
                                   (rng.choice(pool), tgt)):
                for k in range(-2, 3):
                    hom = HomComplex(source, target, k)
                    system, reference = (hom.solver.mat,
                                         ring_hom_complex_matrix(hom))
                    assert (system.rows, system.cols) == \
                        (reference.rows, reference.cols) == \
                        (len(system.a), hom.n_vars)
                    assert system.lift() == integer_lift(reference)
                    assert (system.e is None) == (not ring.has_epsilon)
                    assert hash(system) == hash(reference)
                    shapes["no equations"] += not system.rows
                    shapes["no unknowns"] += not system.cols
                    shapes["both"] += bool(system.rows and system.cols)
    assert min(shapes.values()) >= 20, shapes


def test_hom_matrix_terms_match_matrix_products():
    """Every kind of term `_hom_matrix` writes, f X and X f at shift 0
    and 1, negated and not, applied to random blocks of a degree-k
    element X (mostly not cycles) equals the same term evaluated by
    matrix products, block by block in the equation layout; a term
    given twice counts twice.  The ring-element reference assembler is
    applied, and `_hom_matrix`'s integer rows are its lift."""
    rng = random.Random(13)
    nonzero = dict.fromkeys(itertools.product((True, False), (0, 1),
                                              (1, -1)), 0)
    for ring in (Z4, RingSpec(6), RingSpec(2, True), Z3E):
        for _ in range(30):
            src, tgt, other = (random_complex(rng, ring, max_window=4,
                                              max_rank=2)
                               for _ in range(3))
            k = rng.randint(-1, 1)
            slots = _hom_slots(src, tgt, k)
            x = {n: random_matrix(rng, ring, r, c) for n, r, c in slots}
            vec = [e for n, _, _ in slots for e in x[n].entries]

            def block(n):
                return x.get(n, Matrix.zero(ring, tgt.rank(n + k),
                                            src.rank(n)))

            for left, shift, sign in nonzero:
                # f(n) X^(n+s) : src^(n+s) -> other^n, or
                # X^(n+s) f(n) : other^n -> tgt^(n+s+k)
                if left:
                    eq = _hom_slots(src.shift(shift), other, 0)
                    shape = lambda n: (other.rank(n),
                                       tgt.rank(n + shift + k))
                else:
                    eq = _hom_slots(other, tgt, k + shift)
                    shape = lambda n: (src.rank(n + shift), other.rank(n))
                f = {n: random_matrix(rng, ring, *shape(n))
                     for n, _, _ in eq}
                term = _Term(0, f.__getitem__, shift, left, sign)
                expect = []
                for n, _, _ in eq:
                    y = (f[n] @ block(n + shift) if left
                         else block(n + shift) @ f[n])
                    expect.extend((y if sign > 0 else -y).entries)
                mat = ring_hom_matrix(ring, [slots], [(eq, [term])])
                assert mat.apply(vec) == expect
                assert _hom_matrix(ring, [slots], [(eq, [term])]).lift() \
                    == integer_lift(mat)
                # terms landing on the same entries add up
                twice = ring_hom_matrix(ring, [slots], [(eq, [term, term])])
                assert twice.apply(vec) == [y + y for y in expect]
                assert _hom_matrix(ring, [slots], [(eq, [term, term])]) \
                    .lift() == integer_lift(twice)
                nonzero[left, shift, sign] += any(expect)
    assert min(nonzero.values()) >= 20, nonzero
    # a term whose block does not compose with the unknown is refused
    src = PerfectComplex.single(Z4, 0, 2)
    with pytest.raises(ShapeError):
        _hom_matrix(Z4, [_hom_slots(src, src, 0)], [(
            _hom_slots(src, src, 0),
            [_Term(0, lambda n: Matrix.zero(Z4, 1, 2))])])


def test_homotopy_shapes():
    k = PerfectComplex.single(Z3E, 1, 1)
    l = two_term(Z3E, Z3E.epsilon())
    h = Homotopy.build(k, l, {1: M(Z3E, [[1]])})
    assert h.validate()
    assert (h.comp(1).rows, h.comp(1).cols) == (1, 1)
    assert (h.comp(0).rows, h.comp(0).cols) == (0, 0)
    assert (h.comp(2).rows, h.comp(2).cols) == (1, 0)
    bad = Homotopy(k, l, (Matrix.zero(Z3E, 3, 3),))
    assert not bad.validate()


def test_builders_refuse_misshapen_blocks_outside_the_window():
    # outside its stored window a builder used to drop any block silently
    k = PerfectComplex.single(Z4, 0, 2)
    bad = M(Z4, [[1, 2], [3, 1]])
    for build in (ChainMap.build, Homotopy.build):
        with pytest.raises(ValueError, match="degree 5"):
            build(k, k, {5: bad})
        with pytest.raises(ValueError, match="degree 5"):
            build(k, k, {5: Matrix.zero(RingSpec(2), 0, 0)})
        assert build(k, k, {5: Matrix.zero(Z4, 0, 0)}) == build(k, k)
    with pytest.raises(ValueError, match="degree 5"):
        PerfectComplex.build(Z4, 0, [1], {5: M(Z4, [[1, 2]])})
    # a differential trimmed off with its zero-rank degree is still fine
    trimmed = PerfectComplex.build(Z4, 0, [0, 1], {0: Matrix.zero(Z4, 1, 0)})
    assert trimmed == PerfectComplex.single(Z4, 1, 1)
    with pytest.raises(ValueError, match="degree 0"):
        PerfectComplex.build(Z4, 0, [0, 1], {0: Matrix.zero(Z4, 2, 0)})


def test_builders_refuse_a_misshapen_block_where_only_the_target_has_rank():
    # blocks are stored per degree of the source; at a degree where only
    # the target has rank, the one block that fits has no columns
    src = PerfectComplex.single(Z4, 0, 1)
    tgt = PerfectComplex.build(Z4, 0, [1, 2])
    for build, noun, n in ((ChainMap.build, "chain map", 1),
                           (Homotopy.build, "homotopy", 2)):
        with pytest.raises(ValueError, match=re.escape(
                f"{noun} block at degree {n}, outside the window, is 2x1 "
                f"over Z/4, expected 2x0 over Z/4")):
            build(src, tgt, {n: Matrix.zero(Z4, 2, 1)})
        assert build(src, tgt, {n: Matrix.zero(Z4, 2, 0)}) == \
            build(src, tgt)


def test_direct_construction_needs_one_block_per_source_degree():
    src = PerfectComplex.build(Z4, 0, [1, 1])
    tgt = PerfectComplex.single(Z4, 0, 1)
    for comps in ((), (M(Z4, [[1]]),) * 3):
        with pytest.raises(ValueError, match="^need exactly one chain map "
                           "block per degree of the source$"):
            ChainMap(src, tgt, comps)
    assert ChainMap(src, tgt, (M(Z4, [[1]]), Matrix.zero(Z4, 0, 1))) == \
        ChainMap.build(src, tgt, {0: M(Z4, [[1]])})


def test_refusals_name_their_cause():
    z5 = RingSpec(5)
    k4, k5 = PerfectComplex.single(Z4, 0, 1), PerfectComplex.single(z5, 0, 1)
    two = PerfectComplex.build(Z4, 0, [1, 1])
    cases = [
        (lambda: PerfectComplex(Z4, 0, (), ()),
         "a complex needs at least one degree"),
        (lambda: PerfectComplex(Z4, 0, (1, 1), ()),
         "need exactly one differential per adjacent pair of degrees"),
        (lambda: PerfectComplex.build(Z4, 0, [1, -1]),
         "ranks must be non-negative"),
        (lambda: direct_sum(k4, k5), "direct sum needs a common ring"),
        (lambda: ChainMap.build(k4, k5), "chain map needs a common ring"),
        (lambda: ChainMap.zero(k4, k5), "chain map needs a common ring"),
        (lambda: Homotopy.zero(k4, k5), "homotopy needs a common ring"),
        (lambda: ChainMap.identity(k4) + ChainMap.zero(k4, two),
         "chain maps have different source or target"),
        (lambda: ChainMap.identity(k4) @ ChainMap.identity(two),
         "composition mismatch: inner target is not outer source"),
        (lambda: HomComplex(k4, k5, 0), "Hom needs a common ring"),
    ]
    for make, message in cases:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make()
