import random

import pytest

from chaintrace.complexes import ChainMap, PerfectComplex
from chaintrace.detline import det_of_automorphism
from chaintrace.generate import (
    DiagonalFillerSystem,
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
from chaintrace.ses import (
    ShortExactSequence,
    check_triple,
    make_extension,
    validate_ses,
)

Z4 = RingSpec(4)
Z6 = RingSpec(6)
Z2E = RingSpec(2, True)
Z3E = RingSpec(3, True)
RINGS = (Z4, Z6, Z2E, Z3E)


def M(ring, rows):
    return Matrix.from_rows(ring, rows)


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


def test_diagonal_filler_on_disjoint_degrees():
    # sub in degree 1, quotient in degree 0: no filler slots at all, so
    # strictness is a yes/no question about u and w alone
    sub = PerfectComplex.single(Z3E, 1, 1)
    quo = PerfectComplex.single(Z3E, 0, 1)
    twist = {0: M(Z3E, [[Z3E.epsilon()]])}
    sys = DiagonalFillerSystem(sub, quo)
    ident_u = ChainMap.identity(sub)
    ident_w = ChainMap.identity(quo)
    assert sys.fill(twist, ident_u, ident_w, random.Random(0)) == {}
    zero_w = ChainMap.zero(quo, quo)
    assert sys.fill(twist, ident_u, zero_w, random.Random(0)) is None


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


def test_assemble_block_endo_matches_filler():
    rng = random.Random(108)
    sub = random_complex(rng, Z4, max_window=2, max_rank=2)
    quo = random_complex(rng, Z4, max_window=2, max_rank=2)
    twist = random_cocycle(rng, sub, quo)
    ses = make_extension(sub, quo, twist)
    sys = DiagonalFillerSystem(sub, quo)
    u = random_chain_endo(rng, sub)
    w = random_chain_endo(rng, quo)
    filler = sys.fill(twist, u, w, random.Random(0))
    if filler is not None:
        v = assemble_block_endo(ses, u, w, filler)
        assert v.validate()
        assert graded_trace(v) == graded_trace(u) + graded_trace(w)


def test_random_matrix_deterministic():
    a = random_matrix(random.Random(3), Z6, 2, 3)
    b = random_matrix(random.Random(3), Z6, 2, 3)
    assert a == b


def test_filler_solvability_matches_connecting_square():
    from chaintrace.ses import connecting_square

    rng = random.Random(23)
    for ring in (Z4, RingSpec(2, True)):
        for _ in range(25):
            ses = random_extension(rng, ring, max_window=2, max_rank=1)
            system = DiagonalFillerSystem(ses.sub, ses.quotient)
            twist = extension_twist(ses)
            u = random_chain_endo(rng, ses.sub)
            w = random_chain_endo(rng, ses.quotient)
            assert ((system.fill(twist, u, w, random.Random(0))
                     is not None)
                    == connecting_square(ses, u, w).holds)
