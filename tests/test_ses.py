import dataclasses
import itertools
import random
import re

import pytest

import chaintrace.linalg as linalg_module
import chaintrace.ses as ses_module
from chaintrace.complexes import (
    ChainMap,
    ChainMapSpace,
    HomComplex,
    PerfectComplex,
    _twisted_sum,
)
from chaintrace.generate import (
    random_chain_endo,
    random_complex,
    random_extension,
    random_homotopy,
    random_strict_triple,
)
from chaintrace.homotopy import (
    Homotopy,
    NullHomotopyProblem,
    find_null_homotopy,
    graded_trace,
    perturb,
)
from chaintrace.linalg import Matrix
from chaintrace.rings import RingSpec
from chaintrace.search import _tally, build_counterexample
from chaintrace.ses import (
    CocycleSpace,
    EndoTriple,
    ShortExactSequence,
    SquareStatus,
    _SesSystem,
    _block_maps,
    check_triple,
    connecting_map,
    connecting_square,
    extension_twist,
    find_section,
    make_extension,
    validate_ses,
)
from chaintrace.textio import parse_document, ses_file
from conftest import count_calls
from oracles import integer_lift, ring_ses_matrix

Z4 = RingSpec(4)
Z2E = RingSpec(2, True)
Z3E = RingSpec(3, True)
# rings where signs and non-unit scalars show
SIGNED_RINGS = (Z4, RingSpec(6), Z2E, Z3E)


def M(ring, rows):
    return Matrix.from_rows(ring, rows)


def random_automorphism(rng, ring, n):
    """A random invertible n x n matrix and its inverse, as a product of
    elementary matrices each inverted on the other side."""
    units = [x for x in ring.elements() if x.is_unit()]
    p, p_inv = Matrix.identity(ring, n), Matrix.identity(ring, n)
    for _ in range(3 * n):
        i, k = rng.randrange(n), rng.randrange(n)
        e = [[ring.element(int(a == b)) for b in range(n)] for a in range(n)]
        e_inv = [row[:] for row in e]
        if i == k:
            c = rng.choice(units)
            e[i][i], e_inv[i][i] = c, c.inverse()
        else:
            c = ring.from_index(rng.randrange(ring.cardinality))
            e[i][k], e_inv[i][k] = c, -c
        p = M(ring, e) @ p
        p_inv = p_inv @ M(ring, e_inv)
    return p, p_inv


def change_middle_basis(rng, ses):
    """The sequence with its middle's basis changed by random degreewise
    automorphisms P: d' = P d P^-1, j' = P j and q' = q P^-1, and the map
    v -> P v P^-1 that carries a middle endo along."""
    ring, mid = ses.ring, ses.middle
    ps = {n: random_automorphism(rng, ring, mid.rank(n))
          for n in mid.degrees()}
    mid2 = PerfectComplex.build(
        ring, mid.lo, mid.ranks,
        {n: ps[n + 1][0] @ mid.diff(n) @ ps[n][1]
         for n in range(mid.lo, mid.hi)})
    ses2 = ShortExactSequence(
        ses.sub, mid2, ses.quotient,
        ChainMap.build(ses.sub, mid2, {n: ps[n][0] @ ses.inclusion.comp(n)
                                       for n in mid.degrees()}),
        ChainMap.build(mid2, ses.quotient,
                       {n: ses.projection.comp(n) @ ps[n][1]
                        for n in mid.degrees()}))
    return ses2, lambda v: ChainMap.build(
        mid2, mid2, {n: ps[n][0] @ v.comp(n) @ ps[n][1]
                     for n in mid.degrees()})


def trace_pairing(ses, report):
    """sum_n (-1)^n Tr(delta^(n-1) z^n), where z = q h_L - h_R j is the
    degree -1 cycle of Hom(K, M) made of the witnesses of the report's
    two visible squares and delta is the sequence's boundary."""
    j, q, delta = ses.inclusion, ses.projection, connecting_map(ses)
    h_l, h_r = report.left.witness, report.right.witness
    acc = ses.ring.zero()
    for n in ses.sub.degrees():
        z = q.comp(n - 1) @ h_l.comp(n) - h_r.comp(n) @ j.comp(n)
        t = (delta.comp(n - 1) @ z).trace()
        acc = acc - t if n % 2 else acc + t
    return acc


def twist_map(sub, quo, blocks):
    """The twist with these blocks, by degree of the quotient: the chain
    map quo -> sub.shift(1) that make_extension takes."""
    return ChainMap.build(quo, sub.shift(1), blocks)


def two_step_extension(ring, x):
    """sub in degree 1, quotient in degree 0, glued by the 1x1 twist [[x]]."""
    sub = PerfectComplex.single(ring, 1, 1)
    quo = PerfectComplex.single(ring, 0, 1)
    return make_extension(sub, quo, twist_map(sub, quo, {0: M(ring, [[x]])}))


def test_make_extension_produces_expected_middle():
    ses = two_step_extension(Z3E, Z3E.epsilon())
    mid = ses.middle
    assert (mid.lo, mid.ranks) == (0, (1, 1))
    assert mid.diff(0) == M(Z3E, [[Z3E.epsilon()]])
    assert ses.inclusion.comp(1) == M(Z3E, [[1]])
    assert ses.projection.comp(0) == M(Z3E, [[1]])
    assert validate_ses(ses)


def test_make_extension_rejects_bad_twist():
    sub = PerfectComplex.build(Z4, 1, [1, 1], {1: M(Z4, [[2]])})
    quo = PerfectComplex.build(Z4, 0, [1, 1], {0: M(Z4, [[2]])})
    with pytest.raises(ValueError):
        make_extension(sub, quo, twist_map(
            sub, quo, {0: M(Z4, [[1]]), 1: M(Z4, [[0]])}))
    # and the shape police
    with pytest.raises(ValueError):
        make_extension(sub, quo, twist_map(sub, quo, {0: M(Z4, [[1, 1]])}))


@pytest.mark.parametrize("side", ["sub", "quotient"])
def test_make_extension_refuses_a_foreign_ring_or_an_invalid_complex(side):
    k = PerfectComplex.single(Z4, 0, 1)
    other = PerfectComplex.single(RingSpec(2), 0, 1)
    # d^1 d^0 = 1: not a complex
    bad = PerfectComplex.build(Z4, 0, [1, 1, 1],
                               {0: M(Z4, [[1]]), 1: M(Z4, [[1]])})
    for odd, message in ((other, "^extension needs a common ring$"),
                         (bad, rf"^{side} complex invalid: d\^1 d\^0 != 0$")):
        args = (odd, k) if side == "sub" else (k, odd)
        with pytest.raises(ValueError, match=message):
            make_extension(*args)


def test_make_extension_refuses_twist_blocks_outside_the_window():
    # a twist block far outside both windows used to be dropped silently;
    # the twist's builder refuses it
    k = PerfectComplex.single(Z4, 0, 1)
    with pytest.raises(ValueError, match="chain map block at degree 7, "
                                         "outside the window"):
        make_extension(k, k, twist_map(k, k, {7: M(Z4, [[1]])}))
    assert make_extension(k, k, twist_map(k, k, {7: Matrix.zero(Z4, 0, 0)})) \
        == make_extension(k, k)


def test_make_extension_refuses_a_twist_block_where_only_the_sub_has_rank():
    # the boundary M -> K[1] has K[1] in degree 0 and M in degree 1 only
    k = PerfectComplex.single(Z4, 1, 1)
    with pytest.raises(ValueError, match=re.escape(
            "chain map block at degree 0, outside the window, is 1x1 over "
            "Z/4, expected 1x0 over Z/4")):
        make_extension(k, k, twist_map(k, k, {0: M(Z4, [[1]])}))


def test_make_extension_refuses_a_twist_that_is_not_into_the_shifted_sub():
    # a twist is a chain map quotient -> sub.shift(1): one into the
    # unshifted sub, one out of another quotient and one over another
    # ring are each refused before the middle is glued
    sub = PerfectComplex.single(Z4, 1, 1)
    quo = PerfectComplex.single(Z4, 0, 1)
    z2 = RingSpec(2)
    twists = (ChainMap.build(quo, sub),
              twist_map(sub, PerfectComplex.single(Z4, 0, 2),
                        {0: M(Z4, [[1, 0]])}),
              twist_map(PerfectComplex.single(z2, 1, 1),
                        PerfectComplex.single(z2, 0, 1), {0: M(z2, [[1]])}))
    for twist in twists:
        with pytest.raises(ValueError, match=re.escape(
                "twist is not a chain map quotient -> sub.shift(1)")):
            make_extension(sub, quo, twist)


def padded_block_maps(sub, quo, mid):
    """Reference for `_block_maps`: identity slices at every degree of the
    middle, fitted to each map's source by `ChainMap.build`."""
    ring = sub.ring
    inc, proj = {}, {}
    for n in mid.degrees():
        rs, r = sub.rank(n), sub.rank(n) + quo.rank(n)
        ident = Matrix.identity(ring, r)
        inc[n] = Matrix(ring, r, rs, tuple(ident.entry(i, j) for i in range(r)
                                           for j in range(rs)))
        proj[n] = Matrix(ring, r - rs, r, ident.entries[rs * r:])
    return ChainMap.build(sub, mid, inc), ChainMap.build(mid, quo, proj)


def test_make_extension_zero_twist_is_direct_sum():
    sub = PerfectComplex.build(Z4, 0, [1, 1], {0: M(Z4, [[2]])})
    quo = PerfectComplex.single(Z4, 0, 2)
    ses = make_extension(sub, quo)
    assert validate_ses(ses)
    assert ses.middle.rank(0) == 3 and ses.middle.rank(1) == 1
    assert (ses.projection @ ses.inclusion).is_zero()
    # the block maps, built one block per degree of each source, are the
    # padded ones, also for the zero complex and windows that do not meet
    rng = random.Random("block maps")
    zero = PerfectComplex.build(Z4, 0, [0])
    disjoint = zeros = 0
    for _ in range(60):
        sub, quo = (zero if rng.random() < 0.2 else random_complex(
            rng, Z4, max_window=2, max_rank=2, lo=rng.randrange(-3, 4))
            for _ in range(2))
        ses = make_extension(sub, quo, CocycleSpace(sub, quo).sample(rng))
        assert (ses.inclusion, ses.projection) == _block_maps(
            sub, quo, ses.middle) == padded_block_maps(sub, quo, ses.middle)
        zeros += zero in (sub, quo)
        disjoint += sub.hi < quo.lo or quo.hi < sub.lo
    assert zeros >= 10 and disjoint >= 10, (zeros, disjoint)


def test_validate_ses_catches_non_injective_inclusion():
    k = PerfectComplex.single(Z4, 0, 1)
    z = PerfectComplex.build(Z4, 0, [0])
    ses = ShortExactSequence(
        k, k, z,
        ChainMap.build(k, k, {0: M(Z4, [[2]])}),
        ChainMap.zero(k, z))
    v = validate_ses(ses)
    assert not v
    assert v.kind == "exact" and v.degree == 0
    assert "kernel" in v.message


def test_validate_ses_catches_rank_mismatch():
    k = PerfectComplex.single(Z4, 0, 1)
    ses = ShortExactSequence(k, k, k, ChainMap.identity(k),
                             ChainMap.zero(k, k))
    v = validate_ses(ses)
    assert not v and v.kind == "rank" and v.degree == 0


def test_validate_ses_catches_nonzero_composite():
    k = PerfectComplex.single(Z4, 0, 1)
    l = PerfectComplex.single(Z4, 0, 2)
    j = ChainMap.build(k, l, {0: M(Z4, [[1], [0]])})
    q = ChainMap.build(l, k, {0: M(Z4, [[1, 1]])})
    v = validate_ses(ShortExactSequence(k, l, k, j, q))
    assert not v and v.kind == "compose"


def test_validate_ses_catches_non_surjective_projection():
    k = PerfectComplex.single(Z4, 0, 1)
    l = PerfectComplex.single(Z4, 0, 2)
    j = ChainMap.build(k, l, {0: M(Z4, [[1], [0]])})
    q = ChainMap.build(l, k, {0: M(Z4, [[0, 2]])})
    v = validate_ses(ShortExactSequence(k, l, k, j, q))
    assert not v and v.kind == "exact" and "onto" in v.message


def test_validate_ses_catches_exactness_gap_in_middle():
    # inclusion of the first coordinate, projection killing both: the
    # kernel of q is all of degree 0 but the image of j is only half
    k = PerfectComplex.single(Z4, 0, 1)
    l = PerfectComplex.single(Z4, 0, 2)
    big = PerfectComplex.single(Z4, 0, 1)
    j = ChainMap.build(k, l, {0: M(Z4, [[1], [0]])})
    q = ChainMap.build(l, big, {0: M(Z4, [[0, 2]])})
    v = validate_ses(ShortExactSequence(k, l, big, j, q))
    assert not v
    assert v.kind == "exact"


def structural_refusals():
    """A hand-built sequence for each refusal validate_ses makes before
    it composes the maps, with the kind, degree and message expected."""
    k, l = PerfectComplex.single(Z4, 0, 1), PerfectComplex.single(Z4, 0, 2)
    j = ChainMap.build(k, l, {0: M(Z4, [[1], [0]])})
    q = ChainMap.build(l, k, {0: M(Z4, [[0, 1]])})
    other_ring = PerfectComplex.single(RingSpec(2), 0, 1)
    # d^1 d^0 = 1: a middle that is not a complex
    bad = PerfectComplex.build(Z4, 0, [1, 1, 1],
                               {0: M(Z4, [[1]]), 1: M(Z4, [[1]])})
    # R --1--> R in degrees 0..1, which k maps into by 1 in degree 0:
    # d j = 1 but j d = 0 there
    cone = PerfectComplex.build(Z4, 0, [1, 1], {0: M(Z4, [[1]])})
    top = PerfectComplex.single(Z4, 1, 1)
    return [
        pytest.param(ShortExactSequence(other_ring, l, k, j, q), "ring", None,
                     "the three complexes live over different rings",
                     id="ring"),
        pytest.param(ShortExactSequence(k, l, k, ChainMap.identity(l), q),
                     "structure", None,
                     "inclusion does not run sub -> middle", id="inclusion"),
        pytest.param(ShortExactSequence(k, l, k, j, ChainMap.identity(l)),
                     "structure", None,
                     "projection does not run middle -> quotient",
                     id="projection"),
        pytest.param(ShortExactSequence(k, bad, k, ChainMap.zero(k, bad),
                                        ChainMap.zero(bad, k)),
                     "complex", 0, "middle complex invalid: d^1 d^0 != 0",
                     id="complex"),
        pytest.param(ShortExactSequence(
            k, cone, top, ChainMap.build(k, cone, {0: M(Z4, [[1]])}),
            ChainMap.build(cone, top, {1: M(Z4, [[1]])})),
            "chain-map", 0,
            "inclusion is not a chain map: d f != f d at degree 0",
            id="chain-map"),
    ]


@pytest.mark.parametrize("ses, kind, degree, message", structural_refusals())
def test_validate_ses_structural_refusals(ses, kind, degree, message):
    v = validate_ses(ses)
    assert not v
    assert (v.kind, v.degree, v.message) == (kind, degree, message)


def test_connecting_map_refuses_a_non_exact_sequence_out_of_block_form():
    # the inclusion of R in degree 1 is zero, so the middle's d s = 1
    # has no preimage under it: no boundary exists
    sub, quo = PerfectComplex.single(Z4, 1, 1), PerfectComplex.single(Z4, 0, 1)
    mid = PerfectComplex.build(Z4, 0, [1, 1], {0: M(Z4, [[1]])})
    ses = ShortExactSequence(sub, mid, quo, ChainMap.zero(sub, mid),
                             ChainMap.build(mid, quo, {0: M(Z4, [[1]])}))
    with pytest.raises(ValueError, match="not in block form"):
        extension_twist(ses)
    with pytest.raises(ValueError, match="^no boundary at degree 0: is the "
                                         "sequence exact\\?$"):
        connecting_map(ses)


def test_find_section_is_right_inverse():
    rng = random.Random(5)
    sub = PerfectComplex.build(Z4, 0, [1, 1], {0: M(Z4, [[2]])})
    quo = PerfectComplex.build(Z4, 0, [1, 1], {0: M(Z4, [[2]])})
    space = CocycleSpace(sub, quo)
    for _ in range(6):
        ses = make_extension(sub, quo, space.sample(rng))
        assert validate_ses(ses)
        sec = find_section(ses)
        for n in quo.degrees():
            prod = ses.projection.comp(n) @ sec[n]
            assert prod == Matrix.identity(Z4, quo.rank(n))


def test_check_triple_on_trace_defect_example():
    for ring in (Z3E, Z2E, Z4):
        x = ring.nilpotent_witness()
        ses = two_step_extension(ring, x)
        assert validate_ses(ses)
        v = ChainMap.build(ses.middle, ses.middle, {1: M(ring, [[x]])})
        triple = EndoTriple(ChainMap.zero(ses.sub, ses.sub), v,
                            ChainMap.zero(ses.quotient, ses.quotient))
        rep = check_triple(ses, triple)
        assert rep.right.strict and rep.right.holds
        assert not rep.left.strict and rep.left.holds
        assert rep.left.witness.comp(1) == M(ring, [[1]])
        assert rep.sub_trace == ring.zero()
        assert rep.quotient_trace == ring.zero()
        assert rep.middle_trace == -x
        assert rep.defect == -x and rep.defect
        assert rep.is_violation and rep.squares_hold and not rep.additive


def test_check_triple_block_triangular_is_strict_and_additive():
    rng = random.Random(11)
    ring = Z4
    sub = PerfectComplex.build(ring, 0, [1, 1], {0: M(ring, [[2]])})
    quo = PerfectComplex.build(ring, 1, [1, 1], {1: M(ring, [[2]])})
    cocycles = CocycleSpace(sub, quo)
    found = 0
    for _ in range(40):
        ses = make_extension(sub, quo, cocycles.sample(rng))
        u = ChainMapSpace(sub, sub).sample(rng)
        w = ChainMapSpace(quo, quo).sample(rng)
        # a strict triple needs a compatible diagonal filler; try a few
        for _ in range(10):
            tau = {n: Matrix(ring, sub.rank(n), quo.rank(n),
                             tuple(ring.from_index(
                                 rng.randrange(ring.cardinality))
                                 for _ in range(sub.rank(n) * quo.rank(n))))
                   for n in range(1, 2)}
            blocks = {}
            for n in ses.middle.degrees():
                rs, rq = sub.rank(n), quo.rank(n)
                t = tau.get(n, Matrix.zero(ring, rs, rq))
                blocks[n] = Matrix.block([
                    [u.comp(n), t],
                    [Matrix.zero(ring, rq, rs), w.comp(n)]])
            v = ChainMap.build(ses.middle, ses.middle, blocks)
            if v.validate():
                rep = check_triple(ses, EndoTriple(u, v, w))
                assert rep.left.strict and rep.right.strict
                assert not rep.defect
                found += 1
                break
    assert found >= 5


def test_check_triple_rejects_mismatched_endo():
    ses = two_step_extension(Z4, Z4.element(2))
    wrong = ChainMap.identity(ses.middle)
    triple = EndoTriple(wrong, ChainMap.identity(ses.middle),
                        ChainMap.zero(ses.quotient, ses.quotient))
    with pytest.raises(ValueError):
        check_triple(ses, triple)


def test_check_triple_rejects_non_chain_endo():
    ses = two_step_extension(Z3E, Z3E.epsilon())
    bad = ChainMap.build(ses.middle, ses.middle, {0: M(Z3E, [[1]])})
    triple = EndoTriple(ChainMap.zero(ses.sub, ses.sub), bad,
                        ChainMap.zero(ses.quotient, ses.quotient))
    with pytest.raises(ValueError):
        check_triple(ses, triple)


def test_identity_triple_es_additive_with_euler_ranks():
    rng = random.Random(3)
    sub = PerfectComplex.build(Z3E, 0, [2, 1], {0: M(Z3E, [[0, 0]])})
    quo = PerfectComplex.build(Z3E, 0, [1, 2])
    space = CocycleSpace(sub, quo)
    ses = make_extension(sub, quo, space.sample(rng))
    triple = EndoTriple(ChainMap.identity(sub), ChainMap.identity(ses.middle),
                        ChainMap.identity(quo))
    rep = check_triple(ses, triple)
    assert rep.left.strict and rep.right.strict
    assert not rep.defect
    card = Z3E.cardinality

    def as_ring(n):
        return Z3E.element(n)

    assert rep.middle_trace == as_ring(ses.middle.euler_rank())
    assert rep.sub_trace == as_ring(sub.euler_rank())


def test_cocycle_space_unconstrained_count():
    sub = PerfectComplex.single(Z4, 1, 1)
    quo = PerfectComplex.single(Z4, 0, 1)
    space = CocycleSpace(sub, quo)
    assert space.count == 4
    twists = list(space.iter_all())
    assert len(twists) == 4
    seen = {t.comp(0).entry(0, 0).index for t in twists}
    assert seen == {0, 1, 2, 3}
    for t in twists:
        assert validate_ses(make_extension(sub, quo, t))


def test_cocycle_space_constrained_count_matches_brute_force():
    sub = PerfectComplex.build(Z4, 1, [1, 1], {1: M(Z4, [[2]])})
    quo = PerfectComplex.build(Z4, 0, [1, 1], {0: M(Z4, [[2]])})
    space = CocycleSpace(sub, quo)
    brute = []
    for t0, t1 in itertools.product(range(4), repeat=2):
        try:
            make_extension(sub, quo, twist_map(
                sub, quo, {0: M(Z4, [[t0]]), 1: M(Z4, [[t1]])}))
            brute.append((t0, t1))
        except ValueError:
            pass
    assert space.count == len(brute) == 8
    got = sorted((t.comp(0).entry(0, 0).index, t.comp(1).entry(0, 0).index)
                 for t in space.iter_all())
    assert got == sorted(brute)
    for t in space.iter_all():
        assert validate_ses(make_extension(sub, quo, t))


def test_prepared_problems_give_same_squares():
    # a square context handed problems built elsewhere decides the visible
    # squares exactly as check_triple's own context does
    ses = two_step_extension(Z3E, Z3E.epsilon())
    squares = _SesSystem(ses)
    squares.left_prob = NullHomotopyProblem(ses.sub, ses.middle)
    squares.right_prob = NullHomotopyProblem(ses.middle, ses.quotient)
    v = ChainMap.build(ses.middle, ses.middle,
                       {1: M(Z3E, [[Z3E.epsilon()]])})
    triple = EndoTriple(ChainMap.zero(ses.sub, ses.sub), v,
                        ChainMap.zero(ses.quotient, ses.quotient))
    a = check_triple(ses, triple)
    b = squares.report(triple)
    assert a.defect == b.defect
    assert a.left.holds == b.left.holds and a.right.strict == b.right.strict


def test_zero_homotopy_is_the_solved_witness_of_zero():
    # a strict square reports Homotopy.zero without solving; that must be
    # exactly the witness the solver returns for the zero map
    rng = random.Random(37)
    for ring in SIGNED_RINGS:
        # both in degree 0: Hom(S, T) is empty in degree -1
        pairs = [(PerfectComplex.single(ring, 0, 1),
                  PerfectComplex.single(ring, 0, 2))]
        for _ in range(12):
            pairs.append(tuple(
                random_complex(rng, ring, max_window=3, max_rank=2,
                               lo=rng.randrange(-1, 2)) for _ in range(2)))
        for s, t in pairs:
            solved = NullHomotopyProblem(s, t).solve_for(ChainMap.zero(s, t))
            assert Homotopy.zero(s, t) == solved


def test_counterexample_squares_are_pinned():
    ses, triple, witness = build_counterexample(Z3E)
    report = check_triple(ses, triple)
    assert report.left == SquareStatus(False, witness)
    assert report.right == SquareStatus(
        True, Homotopy.zero(ses.middle, ses.quotient))
    assert report.connecting == SquareStatus(
        True, Homotopy.zero(ses.quotient, ses.sub.shift(1)))


def test_connecting_map_of_block_extension_is_the_twist():
    ses = two_step_extension(Z3E, Z3E.epsilon())
    delta = connecting_map(ses)
    assert delta.source == ses.quotient
    assert delta.target == ses.sub.shift(1)
    assert delta.comp(0) == M(Z3E, [[Z3E.epsilon()]])
    assert delta.validate()


def test_counting_system_is_the_lift_of_the_ring_reference():
    """`_SesSystem.matrix`, written straight into integer rows, is the
    lift of B with its defect row summed in the ring (`tests/oracles.py`).
    Over Z/m[e] the defect row lifts to two rows that are not adjacent:
    row `rows - 1`, its a-part, and the last row, whose e-part half is
    zero; dropping it leaves the lift of B."""
    rng = random.Random("counting lift")
    for ring in SIGNED_RINGS:
        for _ in range(6):
            system = _SesSystem(random_extension(rng, ring, max_window=3,
                                                 max_rank=2))
            full, reference = system.matrix(), ring_ses_matrix(system)
            lift = full.lift()
            assert (full.rows, full.cols) == (reference.rows, reference.cols)
            assert lift == integer_lift(reference)
            assert hash(full) == hash(reference)
            r, c = full.rows, full.cols
            defect = [x.a for x in reference.entries[(r - 1) * c:]]
            b = full.top(r - 1).lift()
            if ring.has_epsilon:
                assert lift[r - 1] == defect + [0] * c
                assert lift[-1] == [0] * c + defect
                assert b == lift[:r - 1] + lift[r:-1]
            else:
                assert lift[-1] == defect and b == lift[:-1]


def test_stored_boundary_is_invisible_to_eq_hash_and_repr():
    # make_extension keeps the boundary it built with the sequence, outside
    # the fields: a field-by-field copy holds none, compares equal and
    # derives the same boundary
    rng = random.Random("stored boundary")
    for ring in SIGNED_RINGS:
        ses = random_extension(rng, ring, max_window=3, max_rank=2)
        copy = ShortExactSequence(ses.sub, ses.middle, ses.quotient,
                                  ses.inclusion, ses.projection)
        assert "_delta" in vars(ses) and "_delta" not in vars(copy)
        assert ses == copy and hash(ses) == hash(copy)
        assert repr(ses) == repr(copy)
        assert connecting_map(copy) == connecting_map(ses)


def test_connecting_map_fallback_agrees_across_presentations():
    # conjugate the middle by a basis swap in degree 0 so the inclusion
    # and projection are no longer block-form; the boundary's homotopy
    # class must not notice.
    ring = RingSpec(5)
    sub = PerfectComplex.build(ring, 0, [1, 1])
    quo = PerfectComplex.single(ring, 0, 1)
    ses = make_extension(sub, quo, twist_map(sub, quo, {0: M(ring, [[1]])}))
    swap = M(ring, [[0, 1], [1, 0]])
    mid2 = PerfectComplex.build(ring, 0, [2, 1],
                                {0: ses.middle.diff(0) @ swap})
    j2 = ChainMap.build(sub, mid2,
                        {0: swap @ ses.inclusion.comp(0),
                         1: ses.inclusion.comp(1)})
    q2 = ChainMap.build(mid2, quo, {0: ses.projection.comp(0) @ swap})
    ses2 = ShortExactSequence(sub, mid2, quo, j2, q2)
    assert validate_ses(ses2)
    with pytest.raises(ValueError):
        extension_twist(ses2)
    assert connecting_map(ses2).validate()
    for u in ChainMapSpace(sub, sub).iter_all():
        for w in ChainMapSpace(quo, quo).iter_all():
            assert (connecting_square(ses, u, w).holds
                    == connecting_square(ses2, u, w).holds)
    # random degreewise automorphisms P of the middle: j' = P j,
    # q' = q P^-1 and d' = P d P^-1 present the same sequence, so the two
    # boundaries differ by a null-homotopic map
    for ring in SIGNED_RINGS:
        rng = random.Random(f"presentations {ring}")
        for _ in range(8):
            ses = random_extension(rng, ring, max_window=3, max_rank=2)
            if not any(ses.middle.ranks):
                continue  # no basis to change
            while True:  # until P leaves the block form
                ses2, _ = change_middle_basis(rng, ses)
                try:
                    extension_twist(ses2)
                except ValueError:
                    break
            assert validate_ses(ses2)
            delta2 = connecting_map(ses2)
            assert delta2.validate()
            assert find_null_homotopy(delta2 - connecting_map(ses)) \
                is not None, ring


def middle_off_its_twist():
    """A block-form sequence whose middle is glued by a twist t with
    D(t) = d_sub t + t d_quo = 2 at degree 0: no complex, no boundary."""
    sub = PerfectComplex.build(Z4, 1, [1, 1], {1: M(Z4, [[2]])})
    quo = PerfectComplex.build(Z4, 0, [1, 1], {0: M(Z4, [[2]])})
    twist = twist_map(sub, quo, {0: M(Z4, [[1]]), 1: M(Z4, [[0]])})
    mid = _twisted_sum(sub, quo, twist.comp)
    ses = ShortExactSequence(sub, mid, quo, *_block_maps(sub, quo, mid))
    return ses, twist


OFF_ITS_TWIST = "^twist is not a boundary map: d f != f d at degree 0$"


def test_connecting_map_refuses_a_block_form_middle_off_its_twist():
    # the section [0; I] of the block projection solves for the twist
    # itself, which fails its chain condition
    ses, twist = middle_off_its_twist()
    assert extension_twist(ses) == twist
    with pytest.raises(ValueError, match=OFF_ITS_TWIST):
        connecting_map(ses)


def test_connecting_map_refuses_a_middle_off_its_twist_after_a_basis_change():
    # the same sequence with the middle's degree-1 basis changed by P:
    # j' = P j, q' = q P^-1, d' = P d and d P^-1 around degree 1.  The
    # derivation is the same, so the refusal is the same ValueError
    ses, _ = middle_off_its_twist()
    mid = ses.middle
    p, p_inv = M(Z4, [[1, 0], [1, 1]]), M(Z4, [[1, 0], [-1, 1]])
    mid2 = PerfectComplex.build(Z4, mid.lo, mid.ranks,
                                {0: p @ mid.diff(0), 1: mid.diff(1) @ p_inv})
    ses2 = ShortExactSequence(
        ses.sub, mid2, ses.quotient,
        ChainMap.build(ses.sub, mid2, {1: p @ ses.inclusion.comp(1),
                                       2: ses.inclusion.comp(2)}),
        ChainMap.build(mid2, ses.quotient,
                       {0: ses.projection.comp(0),
                        1: ses.projection.comp(1) @ p_inv}))
    with pytest.raises(ValueError, match="not in block form"):
        extension_twist(ses2)
    with pytest.raises(ValueError, match=OFF_ITS_TWIST):
        connecting_map(ses2)


def test_solve_columns_refuses_a_wrong_solver_answer(monkeypatch):
    # a solver whose witness is off by one in its first entry
    solve = ses_module.LinearSolver.solve

    def wrong(self, rhs):
        rep = solve(self, rhs)
        x = rep.witness
        return dataclasses.replace(
            rep, witness=(x[0] + x[0].ring.one(),) + tuple(x[1:]))

    mat = M(Z4, [[1, 0], [0, 1]])
    assert ses_module._solve_columns(mat, mat, "unused") == mat
    monkeypatch.setattr(ses_module.LinearSolver, "solve", wrong)
    with pytest.raises(RuntimeError, match="solver bug"):
        ses_module._solve_columns(mat, mat, "unused")


def nilpotent(x):
    """x^(2^t) = 0 for t one past the bit length of the modulus: no
    nilpotent of Z/m[e] needs an exponent above log2(m) + 1."""
    for _ in range(x.ring.modulus.bit_length() + 1):
        x = x * x
    return not x


def test_defect_is_the_trace_pairing_on_the_counterexamples():
    # the minimal violation over each ring with a square-zero element, and
    # every examined triple of its sequence: the defect is the pairing of
    # the boundary with the visible squares' witnesses, nonzero included,
    # and it lies in the nilradical (over Z/12: 0 or 6, not 2, 3, 4, ...)
    z12 = RingSpec(12)
    for ring in (Z4, RingSpec(8), RingSpec(9), z12, Z2E, Z3E):
        ses, triple, _ = build_counterexample(ring)
        report = check_triple(ses, triple)
        assert report.defect and trace_pairing(ses, report) == report.defect
        defects = set()
        for _, _, report in _SesSystem(ses).triples():
            if report.squares_hold:
                assert trace_pairing(ses, report) == report.defect, ring
                defects.add(report.defect)
        assert len(defects) > 1, ring
        assert all(nilpotent(x) for x in defects), (ring, defects)
        if ring == z12:
            assert defects <= {z12.zero(), z12.element(6)}, defects


def test_a_split_sequence_has_no_violation():
    # a sequence whose boundary is null-homotopic splits up to homotopy,
    # and then the trace is additive on every examined triple; some
    # non-split sequence does violate, so the check can fail
    rng = random.Random(7)
    split = violating = 0
    for ring in (Z4, RingSpec(6), RingSpec(9), Z2E, Z3E):
        for _ in range(60):
            system = _SesSystem(random_extension(rng, ring, max_window=3,
                                                 max_rank=1))
            violations = system.counts()[1]
            if not any(system.conn_prob.coset_key(system.delta)):
                split += 1
                assert violations == 0, system.ses
            else:
                violating += violations > 0
    assert split and violating, (split, violating)


def test_connecting_square_strict_when_both_outer_endos_vanish():
    ses = two_step_extension(Z3E, Z3E.epsilon())
    st = connecting_square(ses,
                           ChainMap.zero(ses.sub, ses.sub),
                           ChainMap.zero(ses.quotient, ses.quotient))
    assert st.strict and st.holds and st.describe() == "strict"


def test_connecting_square_blocks_two_square_impostors_over_a_field():
    # Both triples below have their two visible squares commuting (up to
    # homotopy) yet a nonzero trace defect -- over Z/2, a field.  The
    # boundary square is what rules them out.
    ring = RingSpec(2)

    # quotient identity riding a contractible glueing
    sub = PerfectComplex.build(ring, 0, [1, 1])
    quo = PerfectComplex.single(ring, 0, 1)
    ses = make_extension(sub, quo, twist_map(sub, quo, {0: M(ring, [[1]])}))
    u = ChainMap.zero(sub, sub)
    w = ChainMap.identity(quo)
    rep = check_triple(ses, EndoTriple(
        u, ChainMap.zero(ses.middle, ses.middle), w))
    assert rep.left.holds and rep.right.holds
    assert rep.defect == ring.element(1)
    assert not rep.connecting.holds and not rep.is_violation

    # sub identity over a unit twist
    sub2 = PerfectComplex.single(ring, 1, 1)
    ses2 = make_extension(sub2, quo,
                          twist_map(sub2, quo, {0: M(ring, [[1]])}))
    u2 = ChainMap.identity(sub2)
    w2 = ChainMap.zero(quo, quo)
    rep2 = check_triple(ses2, EndoTriple(
        u2, ChainMap.zero(ses2.middle, ses2.middle), w2))
    assert rep2.left.holds and rep2.right.holds and rep2.defect
    assert not rep2.connecting.holds and not rep2.is_violation

    # swept whole, the two sequences have 16 and 4 examined triples and
    # no violation, in closed form and one by one; as many unexamined
    # triples are impostors like the two above
    for s, want in ((ses, (16, 0)), (ses2, (4, 0))):
        system = _SesSystem(s)
        slow = _tally(system.triples(), None)
        assert system.counts() == want
        assert (slow.instances_examined, slow.violations_found) == want
        impostors = sum(
            r.left.holds and r.right.holds and bool(r.defect)
            and not r.connecting.holds and not r.is_violation
            for _, _, r in system.triples())
        assert impostors == want[0]


def test_connecting_square_accepts_prepared_delta_and_problem():
    ses = two_step_extension(Z4, Z4.element(2))
    squares = _SesSystem(ses)
    squares.delta = connecting_map(ses)
    squares.conn_prob = NullHomotopyProblem(ses.quotient, ses.sub.shift(1))
    u = ChainMap.identity(ses.sub)
    w = ChainMap.identity(ses.quotient)
    a = connecting_square(ses, u, w)
    b = squares.connecting(u, w)
    assert a.strict and b.strict and a.holds == b.holds


def test_square_context_reused_across_triples_matches_fresh_checks():
    # one _SesSystem decides many triples of its sequence, each problem
    # built once; every classification must equal a fresh check_triple,
    # whose connecting square is connecting_square's.  Only sequences
    # with a nonzero boundary count: most random extensions have delta = 0.
    for ring in SIGNED_RINGS:
        rng = random.Random(f"square context {ring}")
        glued = solved = 0
        while glued < 6:
            ses = random_extension(rng, ring, max_window=3, max_rank=2)
            system = _SesSystem(ses)
            if system.delta.is_zero():
                continue
            glued += 1
            triples = [EndoTriple(system.u_space.sample(rng),
                                  system.v_space.sample(rng),
                                  system.w_space.sample(rng))
                       for _ in range(3)]
            for _ in range(2):
                strict = random_strict_triple(rng, ses)
                if strict is not None:
                    triples.append(strict)
            for triple in triples:
                got = system.classify(triple)
                assert got == (ses, triple, check_triple(ses, triple)), ring
                assert got[2].connecting == connecting_square(
                    ses, triple.on_sub, triple.on_quotient), ring
                solved += sum(not s.strict and s.holds
                              for s in (got[2].left, got[2].right,
                                        got[2].connecting))
        assert solved, ring


def test_connecting_square_matches_shifted_composite():
    # the reference evaluates the square through the shifted sub endo,
    # u[1] delta - delta w, against its own null-homotopy problem.  Only
    # sequences with a nonzero boundary count, and the outer endos of
    # strict triples add squares that hold with a witness.
    for ring in SIGNED_RINGS:
        rng = random.Random(f"connecting square {ring}")
        held = glued = 0
        while glued < 8:
            ses = random_extension(rng, ring, max_window=3, max_rank=2)
            delta = connecting_map(ses)
            if delta.is_zero():
                continue
            glued += 1
            prob = NullHomotopyProblem(ses.quotient, ses.sub.shift(1))
            pairs = [(random_chain_endo(rng, ses.sub),
                      random_chain_endo(rng, ses.quotient))]
            for _ in range(2):
                strict = random_strict_triple(rng, ses)
                if strict is not None:
                    pairs.append((strict.on_sub, strict.on_quotient))
            for u, w in pairs:
                diff = u.shift(1) @ delta - delta @ w
                want = SquareStatus(diff.is_zero(), prob.solve_for(diff))
                assert connecting_square(ses, u, w) == want, ring
                held += want.holds
        assert held, ring


def test_block_form_squares_equal_the_product_formulas(monkeypatch):
    # make_extension's sequences read v j - j u and q v - w q off v's
    # blocks and compose nothing; the product formulas are the oracle.
    # Most random extensions split, so each ring draws until it has kept 6
    # glued ones (delta != 0) and 3 split ones.  A copy made by
    # dataclasses.replace or parsed back from its file recomputes the
    # block-form marker; a basis-changed copy is out of block form and
    # takes the product path
    products = count_calls(monkeypatch, ChainMap, "__matmul__")
    for ring in (Z4, RingSpec(6), RingSpec(9), Z2E, Z3E):
        rng = random.Random(f"block squares {ring}")
        wanted = {True: 6, False: 3}    # by "glued"
        while any(wanted.values()):
            ses = random_extension(rng, ring, max_window=3, max_rank=2)
            glued = not connecting_map(ses).is_zero()
            if not wanted[glued]:
                continue
            wanted[glued] -= 1
            copy = dataclasses.replace(ses)
            parsed = parse_document(ses_file(ses)).ses()
            assert "_in_block_form" not in vars(copy) | vars(parsed)
            assert ses._in_block_form and copy._in_block_form \
                and parsed._in_block_form
            assert copy == parsed == ses
            changed = None
            while any(ses.middle.ranks):   # else no basis to change
                changed = change_middle_basis(rng, ses)
                if not changed[0]._in_block_form:
                    break
            system = _SesSystem(ses)
            j, q = ses.inclusion, ses.projection
            for _ in range(3):
                u, v, w = (space.sample(rng) for space in (
                    system.u_space, system.v_space, system.w_space))
                products.clear()
                left, right = system.left_diff(u, v), system.right_diff(v, w)
                assert products == []
                assert left == v @ j - j @ u and right == q @ v - w @ q, ring
                for other in (_SesSystem(copy), _SesSystem(parsed)):
                    assert (other.left_diff(u, v), other.right_diff(v, w)) \
                        == (left, right)
                if changed is None:
                    continue
                ses2, carry = changed
                system2, v2 = _SesSystem(ses2), carry(v)
                j2, q2 = ses2.inclusion, ses2.projection
                products.clear()
                left = system2.left_diff(u, v2)
                right = system2.right_diff(v2, w)
                assert [len({j2, q2} & set(args)) for args in products] \
                    == [1] * 4
                assert left == v2 @ j2 - j2 @ u, ring
                assert right == q2 @ v2 - w @ q2, ring


def test_counting_and_solving_never_run_the_integer_elimination(
        monkeypatch):
    # the integer Smith log serves draws only: exactness, closed-form
    # counts, squares, null homotopies and Hom counts eliminate mod prime
    # powers, and a solver runs the integer log once, at its first draw
    smith_log, calls = linalg_module._smith_log, []

    def counted(*args):
        calls.append(args)
        return smith_log(*args)

    rng = random.Random(12)
    cases = []
    for ring in SIGNED_RINGS:
        ses = random_extension(rng, ring, max_window=3, max_rank=2)
        strict = random_strict_triple(rng, ses)
        moved = EndoTriple(*(
            perturb(f, random_homotopy(rng, f.source, f.target))
            for f in (strict.on_sub, strict.on_middle, strict.on_quotient)))
        loose = EndoTriple(*(random_chain_endo(rng, k) for k in
                             (ses.sub, ses.middle, ses.quotient)))
        null = moved.on_middle - strict.on_middle
        cases.append((ses, (strict, moved, loose),
                      (null, loose.on_middle)))
    monkeypatch.setattr(linalg_module, "_smith_log", counted)
    for ses, triples, maps in cases:
        assert validate_ses(ses)
        _SesSystem(ses).counts()
        for triple in triples:
            check_triple(ses, triple)
        assert find_null_homotopy(maps[0]) is not None
        find_null_homotopy(maps[1])
        for k in (-1, 0, 1):
            assert HomComplex(ses.middle, ses.quotient, k).count >= 1
    assert calls == []
    space = ChainMapSpace(cases[0][0].middle, cases[0][0].middle)
    space.sample(rng)
    assert len(calls) == 1
    space.sample(rng)
    assert len(calls) == 1


def test_closed_form_counts_finish_where_the_integer_snf_stalled():
    # the 57 x 66 system of this Z/4[e] sequence did not factor in 15
    # minutes by Smith elimination over the integers
    ses = random_extension(random.Random("s:7"), RingSpec(4, True),
                           max_window=3, max_rank=2)
    examined, violations = _SesSystem(ses).counts()
    assert 0 <= violations <= examined
