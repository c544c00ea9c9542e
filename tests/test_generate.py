import itertools
import random

import pytest

from chaintrace.complexes import (ChainMap, ChainMapSpace, Homotopy,
                                  PerfectComplex)
from chaintrace.detline import det_of_automorphism
from chaintrace.generate import (
    assemble_block_endo,
    extension_twist,
    random_chain_endo,
    random_chain_map,
    random_cocycle,
    random_complex,
    random_extension,
    random_homotopy,
    random_matrix,
    random_strict_triple,
)
from chaintrace.homotopy import graded_trace
from chaintrace.linalg import Matrix
from chaintrace.rings import RingSpec
from chaintrace.search import iter_all_complexes
from chaintrace.ses import (
    CocycleSpace,
    ShortExactSequence,
    check_triple,
    connecting_square,
    make_extension,
    validate_ses,
    _SesSystem,
)
from test_ses import twist_map

Z4 = RingSpec(4)
Z6 = RingSpec(6)
Z2E = RingSpec(2, True)
Z3E = RingSpec(3, True)
RINGS = (Z4, Z6, Z2E, Z3E)


def M(ring, rows):
    return Matrix.from_rows(ring, rows)


@pytest.fixture
def lift(monkeypatch):
    """random_strict_triple with its one draw of (u, w) fixed: the strict
    triple it lifts the pair to, or None when it finds no filler."""
    draws = []

    class FixedDraws:   # stands in for the system's two outer endo spaces
        def sample(self, rng):
            return draws.pop(0)

    for name in ("u_space", "w_space"):
        monkeypatch.setattr(_SesSystem, name, property(lambda _: FixedDraws()))

    def lift_pair(ses, u, w, seed=0):
        draws[:] = [u, w]
        return random_strict_triple(random.Random(seed), ses, attempts=1)

    return lift_pair


def filler_of(ses, v):
    """The top-right blocks t^n: M^n -> K^n of an endo of a block middle,
    as the homotopy M -> K[1] they make."""
    sub, quo = ses.sub, ses.quotient
    return Homotopy.build(quo, sub.shift(1), {
        n: Matrix(ses.ring, sub.rank(n), quo.rank(n),
                  tuple(v.comp(n).entry(i, sub.rank(n) + j)
                        for i in range(sub.rank(n))
                        for j in range(quo.rank(n))))
        for n in ses.middle.degrees()})


def test_random_complex_always_valid():
    rng = random.Random(100)
    for ring in RINGS:
        for _ in range(25):
            k = random_complex(rng, ring, max_window=4, max_rank=3)
            assert k.validate()
            assert all(r <= 3 for r in k.ranks)
            assert len(k.ranks) <= 4


def test_random_complex_deterministic():
    a = random_complex(random.Random(7), Z4, max_window=3, max_rank=2)
    b = random_complex(random.Random(7), Z4, max_window=3, max_rank=2)
    assert a == b


def test_random_complex_hits_nonzero_differentials():
    rng = random.Random(0)
    seen_nonzero = False
    for _ in range(40):
        k = random_complex(rng, Z4, max_window=3, max_rank=2)
        if any(not d.is_zero() for d in k.diffs):
            seen_nonzero = True
    assert seen_nonzero


def test_random_chain_map_is_chain_map():
    rng = random.Random(101)
    for ring in (Z4, Z3E):
        for _ in range(10):
            src = random_complex(rng, ring, max_window=3, max_rank=2)
            tgt = random_complex(rng, ring, max_window=3, max_rank=2)
            f = random_chain_map(rng, src, tgt)
            assert f.validate()
            g = random_chain_endo(rng, src)
            assert g.validate()


def test_random_homotopy_shapes():
    rng = random.Random(102)
    src = random_complex(rng, Z4, max_window=3, max_rank=2)
    tgt = random_complex(rng, Z4, max_window=3, max_rank=2)
    h = random_homotopy(rng, src, tgt)
    assert h.validate()


def test_random_cocycle_feeds_make_extension():
    rng = random.Random(103)
    for ring in (Z4, Z3E):
        for _ in range(10):
            sub = random_complex(rng, ring, max_window=3, max_rank=2)
            quo = random_complex(rng, ring, max_window=3, max_rank=2)
            ses = make_extension(sub, quo, random_cocycle(rng, sub, quo))
            assert validate_ses(ses)


def test_random_extension_validates():
    rng = random.Random(104)
    for _ in range(10):
        ses = random_extension(rng, Z6, max_window=3, max_rank=2)
        assert validate_ses(ses)


def test_extension_twist_round_trip():
    rng = random.Random(105)
    for _ in range(10):
        sub = random_complex(rng, Z4, max_window=3, max_rank=2)
        quo = random_complex(rng, Z4, max_window=3, max_rank=2)
        twist = random_cocycle(rng, sub, quo)
        ses = make_extension(sub, quo, twist)
        assert extension_twist(ses) == twist


def test_extension_twist_rejects_non_block_layout():
    k = PerfectComplex.single(Z4, 0, 1)
    l = PerfectComplex.single(Z4, 0, 2)
    j = ChainMap.build(k, l, {0: M(Z4, [[0], [1]])})   # wrong slot
    q = ChainMap.build(l, k, {0: M(Z4, [[1, 0]])})
    ses = ShortExactSequence(k, l, k, j, q)
    assert validate_ses(ses)  # perfectly exact, just not in block form
    with pytest.raises(ValueError):
        extension_twist(ses)


def test_diagonal_filler_on_disjoint_degrees(lift):
    # sub in degree 1, quotient in degree 0: no filler slots at all, so
    # strictness is a yes/no question about u and w alone
    sub = PerfectComplex.single(Z3E, 1, 1)
    quo = PerfectComplex.single(Z3E, 0, 1)
    ses = make_extension(sub, quo,
                         twist_map(sub, quo, {0: M(Z3E, [[Z3E.epsilon()]])}))
    ident_u = ChainMap.identity(sub)
    ident_w = ChainMap.identity(quo)
    triple = lift(ses, ident_u, ident_w)
    assert triple.on_middle == assemble_block_endo(
        ses, ident_u, ident_w, Homotopy.zero(quo, sub.shift(1)))
    assert lift(ses, ident_u, ChainMap.zero(quo, quo)) is None


def test_strict_triples_commute_strictly_and_add_traces():
    rng = random.Random(106)
    found = 0
    for ring in (Z4, Z3E):
        for _ in range(15):
            ses = random_extension(rng, ring, max_window=3, max_rank=2)
            triple = random_strict_triple(rng, ses)
            if triple is None:
                continue
            found += 1
            rep = check_triple(ses, triple)
            assert rep.left.strict and rep.right.strict
            assert rep.defect == ring.zero()
            assert rep.middle_trace == rep.sub_trace + rep.quotient_trace
    assert found >= 20


def test_strict_automorphism_triples_multiply_determinants():
    rng = random.Random(107)
    found = 0
    for ring in (Z4, Z3E):
        for _ in range(15):
            ses = random_extension(rng, ring, max_window=3, max_rank=2)
            triple = random_strict_triple(rng, ses, automorphisms=True)
            if triple is None:
                continue
            found += 1
            dv = det_of_automorphism(triple.on_middle)
            du = det_of_automorphism(triple.on_sub)
            dw = det_of_automorphism(triple.on_quotient)
            assert dv == du * dw
    assert found >= 15


def test_strict_automorphism_triple_gives_up_after_its_attempts():
    # seed 2 draws u = 0, not a unit of Z/4: with one attempt there is no
    # automorphism to lift, while without the condition u lifts as drawn
    k = PerfectComplex.single(Z4, 0, 1)
    ses = make_extension(k, k)
    assert ChainMapSpace(k, k).sample(random.Random(2)).comp(0) == \
        M(Z4, [[0]])
    assert random_strict_triple(random.Random(2), ses, attempts=1,
                                automorphisms=True) is None
    triple = random_strict_triple(random.Random(2), ses, attempts=1)
    assert triple.on_sub.comp(0) == M(Z4, [[0]])


def test_assemble_block_endo_matches_filler(lift):
    rng = random.Random(108)
    lifted = 0
    while lifted < 3:
        sub = random_complex(rng, Z4, max_window=2, max_rank=2)
        quo = random_complex(rng, Z4, max_window=2, max_rank=2)
        ses = make_extension(sub, quo, random_cocycle(rng, sub, quo))
        u = ChainMapSpace(sub, sub).sample(rng)
        w = ChainMapSpace(quo, quo).sample(rng)
        triple = lift(ses, u, w)
        if triple is None:
            continue
        lifted += 1
        v = triple.on_middle
        assert v.validate()
        assert v == assemble_block_endo(ses, u, w, filler_of(ses, v))
        assert graded_trace(v) == graded_trace(u) + graded_trace(w)
        # the zero filler gives the block diagonal [[u, 0], [0, w]]
        diagonal = ChainMap.build(ses.middle, ses.middle, {
            n: Matrix.block([[u.comp(n), Matrix.zero(Z4, sub.rank(n),
                                                     quo.rank(n))],
                             [Matrix.zero(Z4, quo.rank(n), sub.rank(n)),
                              w.comp(n)]])
            for n in ses.middle.degrees()})
        assert assemble_block_endo(
            ses, u, w, Homotopy.zero(quo, sub.shift(1))) == diagonal


def test_random_matrix_deterministic():
    a = random_matrix(random.Random(3), Z6, 2, 3)
    b = random_matrix(random.Random(3), Z6, 2, 3)
    assert a == b


def test_filler_solvability_matches_connecting_square(lift):
    rng = random.Random(23)
    for ring in (Z4, RingSpec(2, True)):
        for _ in range(25):
            ses = random_extension(rng, ring, max_window=2, max_rank=1)
            u = ChainMapSpace(ses.sub, ses.sub).sample(rng)
            w = ChainMapSpace(ses.quotient, ses.quotient).sample(rng)
            assert ((lift(ses, u, w) is not None)
                    == connecting_square(ses, u, w).holds)


def solves_filler_equation(ses, twist, u, w, t):
    """d_K t - t d_M = u delta - delta w at every degree, by products of
    the twist's own blocks."""
    sub, quo = ses.sub, ses.quotient
    for n in range(min(sub.lo, quo.lo) - 1, max(sub.hi, quo.hi) + 1):
        delta = twist.comp(n)
        if (sub.diff(n) @ t.comp(n) - t.comp(n + 1) @ quo.diff(n)
                != u.comp(n + 1) @ delta - delta @ w.comp(n)):
            return False
    return True


def test_filler_matches_brute_force_on_tiny_pairs(lift):
    # every t in Hom^0(M, K), tried against the filler equation: a pair
    # (u, w) lifts exactly when one solves it, and the lift's filler does
    for ring in (RingSpec(2), Z4, Z2E):
        elems = [ring.from_index(i) for i in range(ring.cardinality)]
        cs = list(iter_all_complexes(ring, max_window=2, max_rank=1))
        cs += [k.shift(-1) for k in cs if any(k.ranks)]
        rng = random.Random(f"filler oracle {ring}")
        lifted = refused = 0
        for sub, quo in rng.sample(list(itertools.product(cs, cs)), 12):
            slots = [(n, sub.rank(n), quo.rank(n)) for n in quo.degrees()
                     if sub.rank(n) * quo.rank(n)]
            fillers = []
            for flat in itertools.product(
                    elems, repeat=sum(r * c for _, r, c in slots)):
                t, pos = {}, 0
                for n, r, c in slots:
                    t[n] = Matrix(ring, r, c, flat[pos:pos + r * c])
                    pos += r * c
                fillers.append(Homotopy.build(quo, sub.shift(1), t))
            for twist in CocycleSpace(sub, quo).iter_all():
                ses = make_extension(sub, quo, twist)
                for u, w in itertools.product(
                        ChainMapSpace(sub, sub).iter_all(),
                        ChainMapSpace(quo, quo).iter_all()):
                    exists = any(solves_filler_equation(ses, twist, u, w, t)
                                 for t in fillers)
                    triple = lift(ses, u, w, seed=lifted + refused)
                    assert (triple is not None) == exists, ring
                    if triple is None:
                        refused += 1
                        continue
                    lifted += 1
                    t = filler_of(ses, triple.on_middle)
                    assert solves_filler_equation(ses, twist, u, w, t)
                    assert triple.on_middle.validate()
        assert lifted and refused, ring
