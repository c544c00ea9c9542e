import dataclasses
import itertools
import random

import pytest

from chaintrace.complexes import (
    ChainMap,
    ChainMapSpace,
    Homotopy,
    PerfectComplex,
)
from chaintrace.homotopy import (
    NullHomotopyProblem,
    are_homotopic,
    find_null_homotopy,
    graded_trace,
    perturb,
)
from chaintrace.generate import random_cocycle, random_matrix
from chaintrace.linalg import LinearSolver, Matrix
from chaintrace.rings import RingSpec
from chaintrace.ses import make_extension

Z4 = RingSpec(4)
Z5 = RingSpec(5)
Z3E = RingSpec(3, True)


def M(ring, rows):
    return Matrix.from_rows(ring, rows)


def two_term(ring, x):
    return PerfectComplex.build(ring, 0, [1, 1], {0: M(ring, [[x]])})


def random_homotopy(rng, src, tgt):
    ring = src.ring
    comps = {}
    for n in range(min(src.lo, tgt.lo), max(src.hi, tgt.hi) + 2):
        r, c = tgt.rank(n - 1), src.rank(n)
        if r * c:
            comps[n] = Matrix(ring, r, c,
                              tuple(ring.from_index(rng.randrange(ring.cardinality))
                                    for _ in range(r * c)))
    return Homotopy.build(src, tgt, comps)


def test_graded_trace_alternates_signs():
    l = two_term(Z3E, Z3E.epsilon())
    v = ChainMap.build(l, l, {1: M(Z3E, [[Z3E.epsilon()]])})
    # only a degree-1 contribution e, counted with sign -1
    assert graded_trace(v) == Z3E.element(0, -1) == Z3E.element(0, 2)
    assert graded_trace(ChainMap.identity(l)) == Z3E.zero()  # 1 - 1
    k = PerfectComplex.single(Z4, 0, 2)
    assert graded_trace(ChainMap.identity(k)) == Z4.element(2)


def test_graded_trace_needs_endomorphism():
    k = PerfectComplex.single(Z4, 1, 1)
    l = two_term(Z4, 2)
    with pytest.raises(ValueError):
        graded_trace(ChainMap.zero(k, l))


def test_perturb_is_chain_map_and_trace_invariant():
    rng = random.Random(13)
    for ring, x in ((Z4, Z4.element(2)), (Z3E, Z3E.epsilon()), (Z5, Z5.element(0))):
        l = PerfectComplex.build(ring, 0, [1, 2, 1],
                                 {0: Matrix.from_rows(ring, [[x], [ring.zero().a if False else 0]]),
                                  1: Matrix.from_rows(ring, [[0, x]])})
        assert l.validate()
        space = ChainMapSpace(l, l)
        for _ in range(15):
            f = space.sample(rng)
            h = random_homotopy(rng, l, l)
            g = perturb(f, h)
            assert g.validate()
            assert graded_trace(g) == graded_trace(f)


def test_perturb_zero_map_by_identity_homotopy():
    """d h + h d for h = identity on the degree-1 slot realises the e map."""
    k = PerfectComplex.single(Z3E, 1, 1)
    l = two_term(Z3E, Z3E.epsilon())
    h = Homotopy.build(k, l, {1: M(Z3E, [[1]])})
    g = perturb(ChainMap.zero(k, l), h)
    assert g.comp(1) == M(Z3E, [[Z3E.epsilon()]])
    assert g.comp(0).is_zero()


def test_identity_on_point_has_no_null_homotopy():
    m = PerfectComplex.single(Z4, 0, 1)
    assert find_null_homotopy(ChainMap.identity(m)) is None


def test_null_homotopy_found_with_expected_witness():
    k = PerfectComplex.single(Z3E, 1, 1)
    l = two_term(Z3E, Z3E.epsilon())
    f = ChainMap.build(k, l, {1: M(Z3E, [[Z3E.epsilon()]])})
    assert f.validate()
    h = find_null_homotopy(f)
    assert h is not None
    assert h.comp(1) == M(Z3E, [[1]])
    assert perturb(ChainMap.zero(k, l), h) == f


def test_epsilon_endo_not_homotopic_to_zero():
    l = two_term(Z3E, Z3E.epsilon())
    v = ChainMap.build(l, l, {1: M(Z3E, [[Z3E.epsilon()]])})
    assert are_homotopic(v, ChainMap.zero(l, l)) is None


def test_homotopic_maps_share_graded_trace():
    rng = random.Random(4)
    l = PerfectComplex.build(Z4, 0, [1, 1, 1],
                             {0: M(Z4, [[2]]), 1: M(Z4, [[2]])})
    space = ChainMapSpace(l, l)
    for _ in range(10):
        f = space.sample(rng)
        g = perturb(f, random_homotopy(rng, l, l))
        h = are_homotopic(f, g)
        assert h is not None
        assert graded_trace(f) == graded_trace(g)


def test_find_null_homotopy_rejects_non_chain_map():
    l = two_term(Z3E, Z3E.epsilon())
    bad = ChainMap.build(l, l, {0: M(Z3E, [[1]]), 1: M(Z3E, [[0]])})
    with pytest.raises(ValueError):
        find_null_homotopy(bad)


def test_perturb_and_are_homotopic_refuse_mismatched_maps():
    k, l = two_term(Z4, 2), PerfectComplex.single(Z4, 0, 1)
    f = ChainMap.identity(k)
    for h in (Homotopy.zero(l, k), Homotopy.zero(k, l)):
        with pytest.raises(ValueError, match="^homotopy does not match the "
                                             "map's source/target$"):
            perturb(f, h)
    for g in (ChainMap.zero(l, k), ChainMap.zero(k, l)):
        with pytest.raises(ValueError, match="^maps have different source "
                                             "or target$"):
            are_homotopic(f, g)


def test_prepared_problem_refuses_a_map_out_of_another_complex():
    # a map's entries are laid out by its source's degrees, so a map out
    # of another complex is refused rather than read in the wrong layout
    k, l = two_term(Z4, 2), PerfectComplex.single(Z4, 1, 1)
    problem = NullHomotopyProblem(k, k)
    for call in (problem.coset_key, problem.solve_for):
        with pytest.raises(ValueError, match="^map is not out of this Hom "
                                             "complex's source$"):
            call(ChainMap.zero(l, k))
    assert problem.solve_for(ChainMap.zero(k, k)) == Homotopy.zero(k, k)


def test_solve_for_refuses_a_witness_that_fails_re_evaluation(monkeypatch):
    # f = e at degree 1 is D(h) for h^1 = 1.  A map into another target
    # with the same ranks would read as the same right-hand side: it is
    # refused before solving.  A solver whose witness is off by one in its
    # first entry gives D(h) = 2e: the re-evaluation refuses it
    k, l = PerfectComplex.single(Z3E, 1, 1), two_term(Z3E, Z3E.epsilon())
    problem = NullHomotopyProblem(k, l)
    e = {1: M(Z3E, [[Z3E.epsilon()]])}
    f = ChainMap.build(k, l, e)
    assert problem.solve_for(f) == Homotopy.build(k, l, {1: M(Z3E, [[1]])})
    with pytest.raises(ValueError, match="not into this problem's target"):
        problem.solve_for(ChainMap.build(k, two_term(Z3E, 1), e))
    message = "^null-homotopy witness failed re-evaluation; solver bug$"
    solve = LinearSolver.solve

    def off_by_one(self, rhs):
        rep = solve(self, rhs)
        x = rep.witness
        return dataclasses.replace(
            rep, witness=(x[0] + x[0].ring.one(),) + tuple(x[1:]))

    monkeypatch.setattr(LinearSolver, "solve", off_by_one)
    with pytest.raises(RuntimeError, match=message):
        problem.solve_for(f)


def test_null_homotopy_problem_refuses_a_map_into_another_target():
    # over Z/4, f^1 = 1 from K = Z/4 in degree 1 into L2 = (Z/4 --2--> Z/4)
    # is not null-homotopic, but the same entries into L = (Z/4 --1-->
    # Z/4) are d h for h^1 = 1: read against L's problem, f would pass
    k = PerfectComplex.single(Z4, 1, 1)
    l, l2 = two_term(Z4, 1), two_term(Z4, 2)
    f = ChainMap.build(k, l2, {1: M(Z4, [[1]])})
    assert find_null_homotopy(f) is None
    problem = NullHomotopyProblem(k, l)
    assert problem.coset_key(ChainMap(k, l, f.comps)) == (0,)
    for query in (problem.coset_key, problem.solve_for):
        with pytest.raises(ValueError, match="not into this problem's target"):
            query(f)


def brute_null_homotopy_images(src, tgt):
    """Oracle: evaluate d h + h d for every homotopy h, by direct matrix
    arithmetic (no SNF anywhere), and collect the flattened images."""
    ring = src.ring
    lo, hi = min(src.lo, tgt.lo), max(src.hi, tgt.hi)
    slots = [(n, tgt.rank(n - 1), src.rank(n))
             for n in range(lo, hi + 2) if tgt.rank(n - 1) * src.rank(n)]
    eq_degs = [n for n in range(lo, hi + 1) if tgt.rank(n) * src.rank(n)]
    images = set()
    pools = [list(itertools.product(ring.elements(), repeat=r * c))
             for _, r, c in slots]
    for combo in itertools.product(*pools) if pools else [()]:
        comps = {n: Matrix(ring, r, c, tuple(ent))
                 for (n, r, c), ent in zip(slots, combo)}
        h = Homotopy.build(src, tgt, comps)
        g = perturb(ChainMap.zero(src, tgt), h)
        images.add(tuple(x for n in eq_degs for x in g.comp(n).entries))
    return images, eq_degs


@pytest.mark.parametrize("ring,val", [(Z4, 2), (Z3E, None)])
def test_solver_complete_against_exhaustive_small(ring, val):
    """Every chain map is classified exactly as the brute-force image set
    says (small instance; the acceptance suite runs the bigger sweep)."""
    x = ring.epsilon() if val is None else ring.element(val)
    l = two_term(ring, x)
    images, eq_degs = brute_null_homotopy_images(l, l)
    for f in ChainMapSpace(l, l).iter_all():
        key = tuple(y for n in eq_degs for y in f.comp(n).entries)
        h = find_null_homotopy(f)
        assert (h is not None) == (key in images)
        if h is not None:
            assert perturb(ChainMap.zero(l, l), h) == f


def test_prepared_problem_matches_one_shot():
    rng = random.Random(17)
    l = PerfectComplex.build(Z4, 0, [1, 2, 1],
                             {0: M(Z4, [[2], [0]]), 1: M(Z4, [[0, 2]])})
    prob = NullHomotopyProblem(l, l)
    space = ChainMapSpace(l, l)
    for _ in range(12):
        f = space.sample(rng)
        a = prob.solve_for(f)
        b = find_null_homotopy(f)
        assert (a is None) == (b is None)
        if a is not None:
            assert perturb(ChainMap.zero(l, l), a) == f


def _complex_with_ranks(rng, ring, ranks):
    """A random complex with these ranks from degree 0, each differential
    drawn from the left kernel of the one before."""
    diffs, prev = {}, None
    for i in range(len(ranks) - 1):
        rows, cols = ranks[i + 1], ranks[i]
        if prev is None:
            d = random_matrix(rng, ring, rows, cols)
        else:
            solver = LinearSolver(prev.transpose())
            zero = [ring.zero()] * prev.cols
            d = Matrix(ring, rows, cols, tuple(
                x for _ in range(rows)
                for x in solver.sample_solution(zero, rng)))
        diffs[i] = prev = d
    return PerfectComplex.build(ring, 0, ranks, diffs)


def test_homotopy_on_a_six_by_six_middle_finishes():
    # a (6, 6, 6) middle over Z/4[e]: the integer Smith elimination of
    # its null-homotopy system ran for minutes
    ring = RingSpec(4, True)
    rng = random.Random("(3, 3, 3)+(3, 3, 3)")
    sub, quo = (_complex_with_ranks(rng, ring, (3, 3, 3)) for _ in range(2))
    ses = make_extension(sub, quo, random_cocycle(rng, sub, quo))
    v = ChainMap.identity(ses.middle)
    v2 = perturb(v, random_homotopy(rng, v.source, v.target))
    h = are_homotopic(v, v2)
    assert h is not None and perturb(v2, h) == v
