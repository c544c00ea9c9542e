"""Tests for the violation search: the minimal violating instance, the
exhaustive and randomized sweeps, and the independent certifier.

The pinned counts (examined/violation totals for fixed bounds and seeds)
were frozen from runs that were cross-checked two ways: the closed-form
kernel counts against the one-triple-at-a-time sweep, and search hits
against `certify`.  They guard the enumeration and the linear system
behind the counts against silent drift.
"""

import random
import re
import time
from dataclasses import replace

import pytest

import chaintrace.generate
import chaintrace.linalg
import chaintrace.search
import chaintrace.ses as ses_module
from chaintrace.complexes import (ChainMap, ChainMapSpace, Homotopy,
                                  PerfectComplex, Validation, _HomMap, _hom_d)
from chaintrace.generate import (random_cocycle, random_complex,
                                 random_element, random_extension)
from chaintrace.homotopy import NullHomotopyProblem, graded_trace, perturb
from chaintrace.linalg import IntegerSystem, Matrix
from chaintrace.rings import RingSpec
from chaintrace.search import (
    CeilingExceededError,
    SearchConfig,
    SearchOutcome,
    _complexes_with_ranks,
    _tally,
    build_counterexample,
    certify,
    iter_all_complexes,
    search_violation,
    wrap_instance,
)
from chaintrace.ses import (
    CocycleSpace,
    EndoTriple,
    SquareStatus,
    check_triple,
    connecting_square,
    make_extension,
    validate_ses,
    _SesSystem,
)
from conftest import count_calls
from oracles import integer_lift, per_sequence_search, ring_ses_matrix
from test_ses import twist_map

Z2 = RingSpec(2)
Z3 = RingSpec(3)
Z4 = RingSpec(4)
Z2E = RingSpec(2, True)
Z3E = RingSpec(3, True)


def M(ring, rows):
    return Matrix.from_rows(ring, rows)


# ---------------------------------------------------------------------------
# the minimal violating instance
# ---------------------------------------------------------------------------


def test_counterexample_values_over_square_zero_rings():
    for ring in (Z3E, Z2E, Z4):
        ses, triple, witness = build_counterexample(ring)
        x = ring.nilpotent_witness()
        assert validate_ses(ses)
        assert graded_trace(triple.on_sub) == ring.zero()
        assert graded_trace(triple.on_quotient) == ring.zero()
        assert graded_trace(triple.on_middle) == -x
        report = check_triple(ses, triple)
        assert report.right.strict
        assert not report.left.strict and report.left.holds
        assert report.defect == -x
        assert report.is_violation
        # the packaged homotopy really witnesses the left square
        left_diff = (triple.on_middle @ ses.inclusion
                     - ses.inclusion @ triple.on_sub)
        assert perturb(ChainMap.zero(ses.sub, ses.middle), witness) == left_diff
        assert witness.comp(1) == Matrix.identity(ring, 1)


def test_counterexample_needs_a_square_zero_element():
    for m in (2, 3, 5, 6, 7, 10):
        with pytest.raises(ValueError):
            build_counterexample(RingSpec(m))


def test_wrapped_counterexample_certifies():
    ses, triple, _ = build_counterexample(Z3E)
    out = wrap_instance(ses, triple)
    assert out.violations_found == 1 and out.instances_examined == 1
    assert bool(certify(out))


def test_wrap_instance_discards_incomplete_triangles():
    # two visible squares hold, the connecting one fails: not examined
    sub = PerfectComplex.build(Z2, 0, [1, 1])
    quo = PerfectComplex.single(Z2, 0, 1)
    ses = make_extension(sub, quo, twist_map(sub, quo, {0: M(Z2, [[1]])}))
    triple = EndoTriple(ChainMap.zero(sub, sub),
                        ChainMap.zero(ses.middle, ses.middle),
                        ChainMap.identity(quo))
    report = check_triple(ses, triple)
    assert report.left.holds and report.right.holds and report.defect
    assert not report.connecting.holds and not report.is_violation
    out = wrap_instance(ses, triple)
    assert out == SearchOutcome(0, None, 0)


# ---------------------------------------------------------------------------
# the certifier
# ---------------------------------------------------------------------------


def test_certify_rejects_zero_defect():
    ses, triple, _ = build_counterexample(Z2E)
    zero = EndoTriple(ChainMap.zero(ses.sub, ses.sub),
                      ChainMap.zero(ses.middle, ses.middle),
                      ChainMap.zero(ses.quotient, ses.quotient))
    forged = SearchOutcome(1, (ses, zero, check_triple(ses, zero)), 1)
    verdict = certify(forged)
    assert not verdict and verdict.kind == "defect"


def test_certify_rejects_failing_connecting_square():
    sub = PerfectComplex.build(Z2, 0, [1, 1])
    quo = PerfectComplex.single(Z2, 0, 1)
    ses = make_extension(sub, quo, twist_map(sub, quo, {0: M(Z2, [[1]])}))
    triple = EndoTriple(ChainMap.zero(sub, sub),
                        ChainMap.zero(ses.middle, ses.middle),
                        ChainMap.identity(quo))
    forged = SearchOutcome(1, (ses, triple, check_triple(ses, triple)), 1)
    verdict = certify(forged)
    assert not verdict and verdict.kind == "square"


def test_certify_rejects_tampered_report():
    import dataclasses

    ses, triple, _ = build_counterexample(Z4)
    honest = check_triple(ses, triple)
    tampered = SearchOutcome(
        1, (ses, triple, dataclasses.replace(honest, defect=Z4.element(1))), 1)
    verdict = certify(tampered)
    assert not verdict and verdict.kind == "mismatch"


def test_certify_compares_the_stored_connecting_square():
    # the counterexample's connecting square is strict; a stored report
    # that claims it holds only up to homotopy disagrees with certify's
    out = wrap_instance(*build_counterexample(Z3E)[:2])
    ses, triple, report = out.first_violation
    zero = Homotopy.zero(ses.quotient, ses.sub.shift(1))
    forged = replace(out, first_violation=(
        ses, triple, replace(report, connecting=SquareStatus(False, zero))))
    verdict = certify(forged)
    assert not verdict and verdict.kind == "mismatch"


def test_certify_refuses_a_broken_sequence_endo_or_square():
    out = wrap_instance(*build_counterexample(Z4)[:2])
    ses, triple, report = out.first_violation
    sub, quo = ses.sub, ses.quotient
    # a middle whose d^0 is 1x2 where 1x1 is due, carrying the same maps
    mid = PerfectComplex(Z4, 0, (1, 1), (M(Z4, [[2, 0]]),))
    broken_ses = replace(
        ses, middle=mid,
        inclusion=ChainMap.build(sub, mid, {1: ses.inclusion.comp(1)}),
        projection=ChainMap.build(mid, quo, {0: ses.projection.comp(0)}))
    # a sub endo with a 2x2 block on a rank-one degree
    broken_u = replace(triple, on_sub=ChainMap.build(
        sub, sub, {1: Matrix.identity(Z4, 2)}))
    # v = 1 breaks the left square: v j - j u = 1 is not a multiple of 2,
    # unlike every d h + h d
    broken_v = replace(triple, on_middle=ChainMap.identity(ses.middle))
    assert not check_triple(ses, broken_v).left.holds
    cases = [(broken_ses, triple, "ses", "middle complex invalid"),
             (ses, broken_u, "endo", "endo on sub is not a chain map"),
             (ses, broken_v, "square", "a visible square")]
    for s, t, kind, message in cases:
        verdict = certify(SearchOutcome(1, (s, t, report), 1))
        assert not verdict and verdict.kind == kind
        assert message in verdict.message


def test_certify_derives_the_boundary_afresh():
    # a wrong boundary planted in the stored sequence fails the connecting
    # square of the search's first violation; certify and a fresh copy of
    # the sequence never read it
    out = search_violation(SearchConfig(Z4, max_window=2, max_rank=1,
                                        mode="exhaustive"))
    ses, triple, _ = out.first_violation
    u, w = triple.on_sub, triple.on_quotient
    wrong = ChainMap.build(ses.quotient, ses.sub.shift(1), {0: M(Z4, [[1]])})
    assert connecting_square(ses, u, w).holds
    object.__setattr__(ses, "_delta", wrong)
    assert not connecting_square(ses, u, w).holds
    assert bool(certify(out))
    assert connecting_square(replace(ses), u, w).holds


def test_certify_requires_a_violation():
    ses, _, _ = build_counterexample(Z3E)
    zero = EndoTriple(ChainMap.zero(ses.sub, ses.sub),
                      ChainMap.zero(ses.middle, ses.middle),
                      ChainMap.zero(ses.quotient, ses.quotient))
    with pytest.raises(ValueError):
        certify(wrap_instance(ses, zero))


# ---------------------------------------------------------------------------
# complex enumeration
# ---------------------------------------------------------------------------


def test_iter_all_complexes_census():
    small = list(iter_all_complexes(Z2, max_window=2, max_rank=1))
    assert len(small) == len(set(small)) == 4
    for k in small:
        assert k.validate()
        assert k.lo == 0
    wider = list(iter_all_complexes(Z3, max_window=3, max_rank=1))
    assert len(wider) == len(set(wider)) == 11
    for k in wider:
        assert k.validate()


def test_a_differential_without_rows_factors_nothing(monkeypatch):
    # a differential with no rows has the one empty choice, so neither the
    # enumeration nor the draw factors the differential before it
    listed = count_calls(monkeypatch, chaintrace.search, "LinearSolver")
    assert len(list(_complexes_with_ranks(Z2, (1, 0, 1)))) == 1
    assert len(listed) == 1          # d^1, into degree 2, has a row
    drawn = count_calls(monkeypatch, chaintrace.generate, "LinearSolver")
    rng, replay = random.Random(24), random.Random(24)
    k = random_complex(rng, Z2, max_window=3, max_rank=2)
    # ranks (1, 2, 0): a uniform 2 x 1 d^0, then a d^1 with no rows; the
    # draws are exactly those, with nothing drawn for d^1
    assert replay.randint(1, 3) == 3
    assert [replay.randint(0, 2) for _ in range(3)] == [1, 2, 0]
    d0 = [random_element(replay, Z2) for _ in range(2)]
    assert rng.getstate() == replay.getstate()
    assert k.ranks == (1, 2) and k.diffs == (M(Z2, [[x] for x in d0]),)
    assert drawn == []


# ---------------------------------------------------------------------------
# exhaustive search
# ---------------------------------------------------------------------------


def test_exhaustive_over_prime_field_finds_nothing():
    cfg = SearchConfig(Z2, max_window=2, max_rank=1, mode="exhaustive")
    out = search_violation(cfg)
    # pinned: the enumeration is deterministic, so these are regressions
    assert out.instances_examined == 637
    assert out.violations_found == 0
    assert out.first_violation is None


def test_exhaustive_fast_and_logged_sweeps_agree():
    cfg = SearchConfig(Z2, max_window=2, max_rank=1, mode="exhaustive")
    fast = search_violation(cfg)
    lines = []
    slow = search_violation(cfg, log=lines.append)
    assert fast == slow
    assert len(lines) == 6545     # every classified triple, violating or not
    for line in lines[:50]:
        index, squares, defect = line.split("\t")
        assert index.isdigit()
        parts = squares.split("+")
        assert len(parts) == 3
        assert all(p in ("strict", "homotopy", "none") for p in parts)
        assert defect in ("0", "1")
    assert lines[0] == "0\tstrict+strict+strict\t0"


def test_closed_form_matches_slow_sweep_on_violating_sequence():
    sub = PerfectComplex.build(Z4, 0, [1, 1])
    quo = PerfectComplex.single(Z4, 0, 1)
    ses = make_extension(sub, quo, twist_map(sub, quo, {0: M(Z4, [[2]])}))
    system = _SesSystem(ses)
    fast_ex, fast_vi = system.counts()
    fast_first = system.first_violation()
    lines = []
    slow = _tally(system.triples(), lines.append)
    assert ((fast_ex, fast_vi)
            == (slow.instances_examined, slow.violations_found)
            == (512, 256))
    assert fast_first is not None and slow.first_violation is not None
    assert bool(certify(SearchOutcome(fast_vi, fast_first, fast_ex)))
    assert bool(certify(slow))
    assert fast_first == slow.first_violation


def test_closed_form_matches_slow_sweep_where_signs_matter():
    # over Z/2 every sign is invisible (-x = x); over these rings a wrong
    # sign in a square or in the defect row changes the counts
    for ring, counts in ((Z4, (32, 16)), (Z2E, (32, 16)), (Z3E, (243, 162)),
                         (RingSpec(8), (128, 64)), (RingSpec(9), (243, 162))):
        ses, _, _ = build_counterexample(ring)
        system = _SesSystem(ses)
        slow = _tally(system.triples(), None)
        assert (system.counts()
                == (slow.instances_examined, slow.violations_found)
                == counts), ring
        assert system.first_violation() == slow.first_violation, ring


def test_first_violation_is_none_on_a_sequence_without_one():
    # the split sequence of the counterexample's complexes: its triples
    # are examined, none is a violation, and the scan finds none
    ses, _, _ = build_counterexample(Z4)
    system = _SesSystem(make_extension(ses.sub, ses.quotient))
    examined, violations = system.counts()
    assert examined and not violations
    assert system.first_violation() is None


def test_system_matrix_matches_products_on_random_blocks():
    """B with its defect row, as the reference `ring_ses_matrix` writes
    it and `_SesSystem.matrix` lifts it, applied to random
    (u, v, w, h_L, h_R, h_C) that are mostly not cycles, equals D of each
    endo, each square's difference minus D(h) and tr v - tr u - tr w,
    evaluated by `_hom_d`, ChainMap products and `graded_trace`; on
    sequences with delta != 0 and degree -1 unknowns in Hom(M, K[1]),
    which the counterexample sequences above lack."""
    rng = random.Random(14)
    for ring in (Z4, RingSpec(6), Z2E, Z3E):
        found = 0
        while found < 5:
            sub, quo = (random_complex(rng, ring, max_window=3, max_rank=2)
                        for _ in range(2))
            system = _SesSystem(
                make_extension(sub, quo, random_cocycle(rng, sub, quo)))
            if system.delta.is_zero() or not system.conn_prob.n_vars:
                continue
            found += 1
            spaces = (system.u_space, system.v_space, system.w_space)
            probs = (system.left_prob, system.right_prob, system.conn_prob)
            vecs = [[random_element(rng, ring) for _ in range(x.n_vars)]
                    for x in (*spaces, *probs)]
            u, v, w = (ChainMap(s.source, s.target, s.to_comps(vec))
                       for s, vec in zip(spaces, vecs))
            hs = [Homotopy(p.source, p.target, p.to_comps(vec))
                  for p, vec in zip(probs, vecs[3:])]
            j, q = system.ses.inclusion, system.ses.projection
            delta = system.delta
            expect = []
            for s, e in zip(spaces, (u, v, w)):
                expect += s.flatten(ChainMap.build(
                    s.source, s.target.shift(1),
                    dict(_hom_d(s.source, s.target, 0, e.comp))))
            squares = (v @ j - j @ u, q @ v - w @ q,
                       u.shift(1) @ delta - delta @ w)
            for p, diff, h in zip(probs, squares, hs):
                dh = ChainMap.build(p.source, p.target,
                                    dict(_hom_d(p.source, p.target, -1,
                                                h.comp)))
                expect += p.flatten(diff - dh)
            expect.append(graded_trace(v) - graded_trace(u)
                          - graded_trace(w))
            reference = ring_ses_matrix(system)
            got = reference.apply([x for vec in vecs for x in vec])
            assert got == expect, ring
            assert system.matrix().lift() == integer_lift(reference)


def test_invalid_generated_sequence_is_an_internal_error(monkeypatch):
    # the exhaustive sweep builds only valid sequences; one that fails
    # validation is a bug to report, never a sequence to skip silently
    real = chaintrace.search.validate_ses
    calls = []

    def fails_once(ses):
        calls.append(ses)
        if len(calls) == 1:
            return Validation(False, "exact", 0, "injected failure")
        return real(ses)

    monkeypatch.setattr(chaintrace.search, "validate_ses", fails_once)
    cfg = SearchConfig(Z2, max_window=1, max_rank=1, mode="exhaustive")
    with pytest.raises(RuntimeError, match="injected failure") as err:
        search_violation(cfg)
    assert not isinstance(err.value, CeilingExceededError)
    assert len(calls) == 1


def _budget_message(ceiling, total):
    return re.escape(f"exhaustive enumeration needs more than {ceiling} "
                     f"objects (at least {total})")


def test_exhaustive_ceiling_blocks_oversized_runs():
    # Z/4 w2r1 has 96 sequences: the closed form is charged one each
    default = SearchConfig(Z4, max_window=2, max_rank=1, mode="exhaustive")
    with pytest.raises(CeilingExceededError, match=_budget_message(95, 96)):
        search_violation(replace(default, ceiling=95))
    assert (search_violation(replace(default, ceiling=96))
            == search_violation(default))
    # and the logged sweep budgets per triple, which is far larger
    with pytest.raises(CeilingExceededError,
                       match=_budget_message(10_000_000, 16_947_859)):
        search_violation(default, log=lambda line: None)
    # Z/2 w3r1: the lower bound is 7, but 8 complexes are listed, so at 7
    # the listed count refuses; at 8 the 64 ordered pairs do
    w3r1 = SearchConfig(Z2, max_window=3, max_rank=1, mode="exhaustive")
    with pytest.raises(CeilingExceededError,
                       match="more than 7 complexes in range"):
        search_violation(replace(w3r1, ceiling=7))
    with pytest.raises(CeilingExceededError, match=_budget_message(8, 64)):
        search_violation(replace(w3r1, ceiling=8))


def test_default_ceiling_admits_a_large_closed_form_count():
    # 9 sequences carrying over two billion triples: counted, not visited
    cfg = SearchConfig(RingSpec(6), max_window=1, max_rank=2,
                       mode="exhaustive")
    assert search_violation(cfg) == SearchOutcome(0, None, 2_177_345_029)


# the bounds on which the class sweep is checked against the walk over
# every sequence: reduced and square-zero, prime and composite, Z/m[e]
CLASS_BOUNDS = [(Z2, 2, 1), (Z2, 1, 2), (Z3, 2, 1), (Z4, 2, 1),
                (RingSpec(6), 2, 1), (Z3E, 2, 1)]


@pytest.mark.parametrize("ring, window, rank", CLASS_BOUNDS)
def test_class_sweep_matches_the_per_sequence_walk(ring, window, rank):
    # one sequence counted per extension class gives the outcome of every
    # sequence counted by two kernels, first violation included
    cfg = SearchConfig(ring, max_window=window, max_rank=rank,
                       mode="exhaustive")
    assert search_violation(cfg) == per_sequence_search(cfg)


@pytest.mark.parametrize("ring, window, rank", CLASS_BOUNDS)
def test_every_twist_counts_as_its_class(ring, window, rank):
    # t and t + D(s) give isomorphic sequences: every twist with the class
    # key of an earlier one of its pair has that one's counts
    cs = list(iter_all_complexes(ring, max_window=window, max_rank=rank))
    for sub in cs:
        for quo in cs:
            conn_prob = NullHomotopyProblem(quo, sub.shift(1))
            classes = {}
            for twist in CocycleSpace(sub, quo).iter_all():
                counts = _SesSystem(make_extension(sub, quo, twist),
                                    conn_prob).counts()
                key = conn_prob.coset_key(twist)
                assert classes.setdefault(key, counts) == counts


def test_class_sweep_eliminates_b_once_per_class(monkeypatch):
    # Z/12 w2r1: each counted class builds one solver for its B, the only
    # IntegerSystem that ses hands a solver (validate_ses hands it
    # matrices), and so none for B plus its defect row.  That solver
    # eliminates B once mod each of 4 and 3: over Z/m the lift it passes
    # to _local_log is B's own list of rows
    counted = count_calls(monkeypatch, _SesSystem, "counts")
    solvers = count_calls(monkeypatch, ses_module, "LinearSolver")
    eliminated = count_calls(monkeypatch, chaintrace.linalg, "_local_log")
    cfg = SearchConfig(RingSpec(12), max_window=2, max_rank=1,
                       mode="exhaustive")
    assert search_violation(cfg).violations_found == 564_910_848
    bs = [mat for (mat,) in solvers if isinstance(mat, IntegerSystem)]
    assert len(bs) == len(counted) > 1
    for b in bs:
        assert sum(args[0] is b.a for args in eliminated) == 2


def test_class_sweep_pins():
    # Z/2 w2r2: 7,981 sequences in 1,357 classes, none violating
    cfg = SearchConfig(Z2, max_window=2, max_rank=2, mode="exhaustive")
    assert search_violation(cfg) == SearchOutcome(0, None, 70_093_174_173)
    # Z/p^2 and Z/p[e] count alike at these bounds, though their first
    # violations differ
    for (a, b), window, rank, totals in (
            ((Z4, Z2E), 1, 2, (16_810_569, 0)),
            ((Z4, Z2E), 2, 1, (296_905, 29_440)),
            ((RingSpec(9), Z3E), 2, 1, (441_340_993, 53_327_808))):
        for ring in (a, b):
            out = search_violation(SearchConfig(
                ring, max_window=window, max_rank=rank, mode="exhaustive"))
            assert (out.instances_examined, out.violations_found) == totals


def test_closed_form_walks_the_extensions_once(monkeypatch):
    # Z/3 w2r1: 5 complexes, 49 sequences in 29 extension classes, no
    # violation.  The budget is taken from twist counts, and the sweep
    # builds the first extension of each class once, so no endo space is
    # factored at all, neither by admission nor by a sequence's system
    extensions = count_calls(monkeypatch, chaintrace.search, "make_extension")
    spaces = count_inits(monkeypatch, ChainMapSpace)
    cfg = SearchConfig(Z3, max_window=2, max_rank=1, mode="exhaustive")
    assert search_violation(cfg) == SearchOutcome(0, None, 20743)
    assert len(extensions) == 29 and spaces == []


def test_logged_sweep_reads_the_systems_admission_charged(monkeypatch):
    # Z/2 w2r1: 4 complexes, 22 sequences.  A log charges each sequence
    # its triples from the endo spaces of its system, and the sweep
    # visits the triples of those same systems: each sequence is built
    # once and each of its three endo spaces factored once
    extensions = count_calls(monkeypatch, chaintrace.search, "make_extension")
    spaces = count_inits(monkeypatch, ChainMapSpace)
    lines = []
    cfg = SearchConfig(Z2, max_window=2, max_rank=1, mode="exhaustive")
    assert search_violation(cfg, log=lines.append) == SearchOutcome(
        0, None, 637)
    assert len(lines) == 6545
    assert len(extensions) == 22 and len(spaces) == 3 * 22
    # a refused log still builds no sequence past the one whose charge
    # passes the ceiling, the 18th of Z/4 w2r1
    extensions.clear()
    with pytest.raises(CeilingExceededError,
                       match=_budget_message(10_000_000, 16_947_859)):
        search_violation(replace(cfg, ring=Z4), log=lines.append)
    assert len(extensions) == 18


def count_inits(monkeypatch, cls):
    """Wrap cls.__init__ for the test; the list of argument tuples it saw."""
    real, calls = cls.__init__, []

    def wrapper(self, *args):
        calls.append(args)
        real(self, *args)
    monkeypatch.setattr(cls, "__init__", wrapper)
    return calls


def test_each_boundary_and_connecting_problem_is_built_once(monkeypatch):
    # Z/3 w2r1 again: make_extension builds and checks the boundary of the
    # first sequence of each of the 29 extension classes, which the sweep
    # reuses, and the sequences of one pair (K, M) of the 5 complexes
    # share its connecting problem Hom(M, K[1]), which the walk builds
    boundaries = count_calls(monkeypatch, ses_module, "_boundary")
    problems = count_calls(monkeypatch, ses_module, "NullHomotopyProblem")
    walked = count_calls(monkeypatch, chaintrace.search,
                         "NullHomotopyProblem")
    cfg = SearchConfig(Z3, max_window=2, max_rank=1, mode="exhaustive")
    assert search_violation(cfg) == SearchOutcome(0, None, 20743)
    problems += walked
    assert len(boundaries) == 29
    # K[1] starts at degree -1 unless K = 0, so no left or right problem
    # has the (source, target) of a connecting problem with K nonzero
    cs = list(iter_all_complexes(Z3, max_window=2, max_rank=1))
    keys = {(m, k.shift(1)) for k in cs for m in cs if any(k.ranks)}
    connecting = [args for args in problems if args in keys]
    assert len(connecting) == len(set(connecting)) == len(keys) == 20
    # the rest: a left and a right problem per class, and the connecting
    # problems of the 5 pairs with K = 0
    assert len(problems) == 2 * 29 + 25
    # a randomized trial builds one sequence and its one boundary
    boundaries.clear()
    search_violation(SearchConfig(Z4, max_window=3, max_rank=2, trials=60))
    assert len(boundaries) == 60


def test_searches_lay_out_every_map_without_build(monkeypatch):
    # the library lays out the blocks of every map it makes itself (twists,
    # endos, fillers, witnesses, zero maps), so `build`, which pads and
    # checks blocks given by degree, is left to parsed files and literals
    calls = []
    real = _HomMap.build.__func__

    def counted(cls, *args):
        calls.append(cls)
        return real(cls, *args)
    monkeypatch.setattr(_HomMap, "build", classmethod(counted))
    for ring in (Z4, Z3E):
        cfg = SearchConfig(ring, max_window=3, max_rank=2, trials=60, seed=0)
        assert search_violation(cfg).instances_examined
    # with its first-violation scan
    cfg = SearchConfig(Z4, max_window=2, max_rank=1, mode="exhaustive")
    assert search_violation(cfg).first_violation is not None
    assert calls == []


def test_exhaustive_refuses_huge_ring_before_enumerating():
    # one rank-1 differential over Z/1000003[e] has 10^12 choices: the
    # ceiling refuses them from their count, before listing any
    cfg = SearchConfig(RingSpec(1000003, True), mode="exhaustive")
    start = time.monotonic()
    with pytest.raises(CeilingExceededError,
                       match="more than 10000000 complexes in range"):
        search_violation(cfg)
    assert time.monotonic() - start < 5


def test_rank_zero_bounds_do_not_walk_the_window():
    # at rank 0 the zero complex is the only one, however wide the window
    cfg = SearchConfig(Z2, max_window=10 ** 5, max_rank=0, mode="exhaustive")
    start = time.monotonic()
    assert search_violation(cfg) == SearchOutcome(0, None, 1)
    assert time.monotonic() - start < 5


def test_strict_squares_build_no_problem():
    names = ("left_prob", "right_prob", "conn_prob")
    sub, quo = PerfectComplex.single(Z4, 1, 1), PerfectComplex.single(Z4, 0, 1)
    system = _SesSystem(make_extension(sub, quo))
    middle = system.ses.middle
    zero = EndoTriple(ChainMap.zero(sub, sub), ChainMap.zero(middle, middle),
                      ChainMap.zero(quo, quo))
    _, _, report = system.classify(zero)
    assert (report.left.strict and report.right.strict
            and report.connecting.strict)
    assert not any(name in vars(system) for name in names)
    # the counterexample's left square is not strict: only its problem is
    # built, and the verdicts equal those on eagerly built problems
    ses, triple, _ = build_counterexample(Z4)
    lazy, eager = _SesSystem(ses), _SesSystem(ses)
    for name in names:
        getattr(eager, name)
    assert lazy.classify(triple) == eager.classify(triple)
    assert [name in vars(lazy) for name in names] == [True, False, False]


# ---------------------------------------------------------------------------
# randomized search
# ---------------------------------------------------------------------------


def test_randomized_is_deterministic_and_log_free():
    cfg = SearchConfig(RingSpec(6), trials=200, seed=11)
    first = search_violation(cfg)
    lines = []
    second = search_violation(cfg, log=lines.append)
    assert first == second
    assert first.violations_found == 0
    assert len(lines) == 200


def test_randomized_over_square_zero_ring_finds_certified_violation():
    cfg = SearchConfig(Z4, trials=2500, seed=0)
    out = search_violation(cfg)
    # pinned: per-trial reseeding makes the whole run reproducible
    assert out.violations_found == 13
    assert out.instances_examined == 849
    assert bool(certify(out))


def _reported_trials(cfg):
    """The reference sweep of a randomized search: every trial draws all
    three endos and builds its full report, deciding every square."""
    for trial in range(cfg.trials):
        rng = random.Random(f"{cfg.seed}:{trial}")
        system = _SesSystem(random_extension(
            rng, cfg.ring, max_window=cfg.max_window, max_rank=cfg.max_rank))
        u = system.u_space.sample(rng)
        v = system.v_space.sample(rng)
        w = system.w_space.sample(rng)
        yield system.classify(EndoTriple(u, v, w))


@pytest.mark.parametrize("ring, window, rank", [
    (Z4, 3, 2), (Z3E, 3, 2), (Z2E, 2, 1), (RingSpec(5), 2, 1),
    (RingSpec(6), 2, 1)], ids=str)
@pytest.mark.parametrize("seed", [0, 5])
def test_ordered_trials_match_full_reports(ring, window, rank, seed):
    # stopping a trial at its first failing square keeps every count and
    # the first violation, report and witnesses included; a log still
    # shows all three squares of every trial
    cfg = SearchConfig(ring, max_window=window, max_rank=rank, trials=150,
                       seed=seed)
    reference = list(_reported_trials(cfg))
    expected_lines, lines = [], []
    expected = _tally(reference, expected_lines.append)
    assert search_violation(cfg) == expected
    assert search_violation(cfg, log=lines.append) == expected
    assert lines == expected_lines
    hits = [c for c in reference if c[2].is_violation]
    assert len(hits) == expected.violations_found
    for hit in hits:
        assert bool(certify(SearchOutcome(1, hit, 1)))


def test_unlogged_trials_stop_at_the_first_failing_square(monkeypatch):
    # Z/4 w3r2, 60 trials: the left square fails on 43, and 6 are examined
    cfg = SearchConfig(Z4, max_window=3, max_rank=2, trials=60)
    reference = list(_reported_trials(cfg))
    draws, problems = [], []
    for ses, _, report in reference:
        draws += [ses.sub, ses.middle]
        if not report.left.strict:
            problems.append((ses.sub, ses.middle))
        if not report.left.holds:
            continue
        # w is drawn, and the right square decided, once the left holds
        draws.append(ses.quotient)
        if not report.right.strict:
            problems.append((ses.middle, ses.quotient))
        if report.right.holds and not report.connecting.strict:
            problems.append((ses.quotient, ses.sub.shift(1)))
    examined = sum(report.squares_hold for _, _, report in reference)
    assert 0 < examined < len(draws) - 2 * cfg.trials < cfg.trials
    sampled = count_calls(monkeypatch, ChainMapSpace, "sample")
    built = count_calls(monkeypatch, ses_module, "NullHomotopyProblem")
    traces = count_calls(monkeypatch, chaintrace.search, "graded_trace")
    reported = count_calls(monkeypatch, ses_module, "graded_trace")
    out = search_violation(cfg)
    assert out == _tally(reference, None) and out.violations_found
    assert [space.source for space, _ in sampled] == draws
    assert built == problems
    # three traces per examined triple, and the first violation's report
    assert (len(traces), len(reported)) == (3 * examined, 3)


def test_logged_trials_are_the_reference_sweep(monkeypatch):
    # Z/4 w3r2, 60 trials, 6 of them examined and one a violation: with a
    # log, each trial's full report is taken once and counted by _tally,
    # so the search takes no trace of its own and builds no second report
    cfg = SearchConfig(Z4, max_window=3, max_rank=2, trials=60)
    expected = _tally(_reported_trials(cfg), None)
    assert expected.instances_examined == 6 and expected.violations_found
    traces = count_calls(monkeypatch, chaintrace.search, "graded_trace")
    reported = count_calls(monkeypatch, ses_module, "graded_trace")
    assert search_violation(cfg, log=[].append) == expected
    assert (len(traces), len(reported)) == (0, 3 * cfg.trials)


def test_unlogged_trials_compose_nothing_with_the_block_maps(monkeypatch):
    # Z/4 w3r2, 60 trials: every drawn sequence is make_extension's, so
    # its left and right squares are read off the middle endo's blocks,
    # and no chain map is composed with its inclusion or projection
    cfg = SearchConfig(Z4, max_window=3, max_rank=2, trials=60)
    reference = list(_reported_trials(cfg))
    block_maps = {f for ses, _, _ in reference
                  for f in (ses.inclusion, ses.projection)}
    products = count_calls(monkeypatch, ChainMap, "__matmul__")
    out = search_violation(cfg)
    assert out == _tally(reference, None) and out.violations_found
    assert [args for args in products if block_maps & set(args)] == []


def test_randomized_over_field_examines_but_never_finds():
    cfg = SearchConfig(RingSpec(5), trials=400, seed=0)
    out = search_violation(cfg)
    assert out.violations_found == 0
    assert out.instances_examined > 0


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(Z4, mode="clever")
    with pytest.raises(ValueError):
        SearchConfig(Z4, max_window=0)
    with pytest.raises(ValueError):
        SearchConfig(Z4, ceiling=0)
