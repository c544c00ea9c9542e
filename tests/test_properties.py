"""Properties of twists, boundary maps, Hom counts, chain-map arithmetic
and the text format over random small complexes, of the exhaustive
search's admission check, and of the command line on mutated input
files, checked with hypothesis (deterministic settings from conftest.py).
"""

import contextlib
import dataclasses
import io
import itertools
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chaintrace import cli
from chaintrace.complexes import (
    ChainMap,
    ChainMapSpace,
    HomComplex,
    PerfectComplex,
    _hom_d,
)
from chaintrace.generate import (
    random_complex,
    random_extension,
    random_homotopy,
    random_matrix,
    random_strict_triple,
)
from chaintrace.homotopy import NullHomotopyProblem, perturb
from chaintrace.linalg import IntegerSystem, LinearSolver, Matrix
from chaintrace.rings import RingSpec
from chaintrace.search import (
    CeilingExceededError,
    SearchConfig,
    _admitted_walk,
    iter_all_complexes,
)
from chaintrace.ses import (
    CocycleSpace,
    EndoTriple,
    ShortExactSequence,
    _SesSystem,
    check_triple,
    connecting_map,
    extension_twist,
    make_extension,
    validate_ses,
)
from chaintrace.textio import parse_document, ses_file
from oracles import two_kernel_counts
from test_complexes import brute_hom_cycles
from test_homotopy import brute_null_homotopy_images
from test_ses import change_middle_basis, trace_pairing, twist_map

RINGS = (RingSpec(4), RingSpec(6), RingSpec(2, True), RingSpec(3, True))

deterministic = settings(max_examples=40)


@st.composite
def pairs(draw):
    """A ring, a Random seeded by hypothesis, and two random complexes K
    and M of at most three degrees and rank two.  K starts at -1..1 and M
    at most one degree lower, so that Hom^1(M, K) is seldom empty."""
    ring = draw(st.sampled_from(RINGS))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    lo = rng.randrange(-1, 2)
    k = random_complex(rng, ring, max_window=3, max_rank=2, lo=lo)
    m = random_complex(rng, ring, max_window=3, max_rank=2,
                       lo=lo - rng.randrange(2))
    return ring, rng, k, m


def _twist_window(k, m):
    """Degrees around both windows, with room on each side."""
    return range(min(k.lo, m.lo) - 3, max(k.hi, m.hi) + 4)


@deterministic
@given(pairs())
def test_cocycle_twists_are_accepted_and_are_the_boundary(case):
    ring, rng, k, m = case
    space = CocycleSpace(k, m)
    for _ in range(3):
        twist = space.sample(rng)
        assert (twist.source, twist.target) == (m, k.shift(1))
        ses = make_extension(k, m, twist)
        # the twist is read back, is the stored boundary, and is the one a
        # field-by-field copy derives through the section [0; I] of its
        # block projection
        assert (extension_twist(ses) == twist == connecting_map(ses)
                == connecting_map(dataclasses.replace(ses)))


@deterministic
@given(pairs(), st.booleans())
def test_defect_is_the_trace_pairing_of_the_squares(case, basis_change):
    # for a triple whose two visible squares hold, with witnesses h_L and
    # h_R: defect = sum_n (-1)^n Tr(delta^(n-1) (q h_L - h_R j)^n).  The
    # triples are random endos and a strict triple perturbed by random
    # homotopies, on the extension or on its middle in another basis
    ring, rng, k, m = case
    ses = make_extension(k, m, CocycleSpace(k, m).sample(rng))
    system = _SesSystem(ses)
    triples = [EndoTriple(system.u_space.sample(rng),
                          system.v_space.sample(rng),
                          system.w_space.sample(rng)) for _ in range(6)]
    strict = random_strict_triple(rng, ses)
    if strict is not None:
        triples.append(EndoTriple(*(
            perturb(f, random_homotopy(rng, f.source, f.source))
            for f in (strict.on_sub, strict.on_middle, strict.on_quotient))))
    if basis_change:
        ses, carry = change_middle_basis(rng, ses)
        triples = [EndoTriple(t.on_sub, carry(t.on_middle), t.on_quotient)
                   for t in triples]
    for t in triples:
        report = check_triple(ses, t)
        if report.left.holds and report.right.holds:
            assert trace_pairing(ses, report) == report.defect


@deterministic
@given(pairs())
def test_twists_off_the_cocycles_are_refused(case):
    ring, rng, k, m = case
    # a random block at every slot of Hom^1(M, K): refused exactly when
    # D(t) = d_K t + t d_M is nonzero somewhere
    twist = {n: random_matrix(rng, ring, k.rank(n + 1), m.rank(n))
             for n in m.degrees() if k.rank(n + 1) * m.rank(n)}

    def block(n):
        return twist.get(n, Matrix.zero(ring, k.rank(n + 1), m.rank(n)))

    if any(not x.is_zero() for _, x in _hom_d(m, k, 1, block)):
        with pytest.raises(ValueError):
            make_extension(k, m, twist_map(k, m, twist))
    else:
        # read back with one block per degree of M, empty ones included
        assert extension_twist(make_extension(k, m, twist_map(
            k, m, twist))) == ChainMap(m, k.shift(1), tuple(
                block(n) for n in m.degrees()))
    # one wrong-ring or misshapen block, at any degree, is refused
    n = rng.choice(_twist_window(k, m))
    rows, cols = k.rank(n + 1), m.rank(n)
    other = RingSpec(5) if ring.modulus != 5 else RingSpec(7)
    bad = [Matrix.zero(other, rows, cols),
           Matrix.zero(ring, rows + 1, cols),
           Matrix.zero(ring, rows, cols + rng.randrange(1, 3))]
    for block_n in bad:
        with pytest.raises(ValueError):
            make_extension(k, m, twist_map(k, m, {n: block_n}))


@deterministic
@given(pairs())
def test_sequence_files_round_trip(case):
    ring, rng, k, m = case
    ses = make_extension(k, m, CocycleSpace(k, m).sample(rng))
    triple = EndoTriple(*(ChainMapSpace(c, c).sample(rng)
                          for c in (ses.sub, ses.middle, ses.quotient)))
    doc = parse_document(ses_file(ses, triple=triple))
    assert doc.ses() == ses
    assert doc.triple() == triple


# -- Hom counts against enumeration ----------------------------------------

# |R|^n_vars at most this is enumerated
ENUMERABLE = 4096


@settings(max_examples=60)
@given(pairs())
def test_hom_counts_match_enumeration(case):
    # Z^k Hom(S, T) for k = -1, 0, 1 and B^0, the maps d h + h d
    ring, rng, s, t = case
    for k in (-1, 0, 1):
        hom = HomComplex(s, t, k)
        if ring.cardinality ** hom.n_vars <= ENUMERABLE:
            _, cycles = brute_hom_cycles(s, t, k)
            assert hom.count == len(cycles), k
    problem = NullHomotopyProblem(s, t)
    if ring.cardinality ** problem.n_vars <= ENUMERABLE:
        images, _ = brute_null_homotopy_images(s, t)
        assert problem.solver.image_count == len(images)


@deterministic
@given(st.sampled_from((RingSpec(4), RingSpec(6), RingSpec(3, True))),
       st.integers(0, 2 ** 32 - 1))
def test_coset_keys_agree_exactly_on_homotopic_maps(ring, seed):
    # g is f moved by a random d h + h d, or an unrelated chain map: the
    # keys of f and g agree exactly when f - g is null-homotopic
    rng = random.Random(seed)
    s = random_complex(rng, ring, max_window=3, max_rank=2)
    t = random_complex(rng, ring, max_window=3, max_rank=2,
                       lo=rng.randrange(-1, 2))
    space, problem = ChainMapSpace(s, t), NullHomotopyProblem(s, t)
    f = space.sample(rng)
    moved = perturb(f, random_homotopy(rng, s, t))
    assert problem.coset_key(moved) == problem.coset_key(f)
    for g in (moved, space.sample(rng)):
        same = problem.coset_key(f) == problem.coset_key(g)
        assert same == (problem.solve_for(f - g) is not None)


# -- counts under duality -----------------------------------------------------


def dual_complex(k):
    """K* = Hom(K, R): (K*)^(-n) = (K^n)*, d*^(-n-1) the transpose of d^n."""
    return PerfectComplex.build(k.ring, -k.hi, k.ranks[::-1], {
        -n - 1: k.diff(n).transpose() for n in k.degrees()[:-1]})


def dual_map(f, source, target):
    """f*: B* -> A* of a chain map f: A -> B, (f*)^(-n) the transpose of
    f^n."""
    return ChainMap(source, target, tuple(
        f.comp(-n).transpose() for n in source.degrees()))


def test_counts_are_invariant_under_duality():
    # the dual of K -> L -> M is M* -> L* -> K*.  Each degree splits, so
    # the dual is exact, and transposing is a bijection of every Hom
    # module that commutes with D up to sign: it sends a triple (u, v, w)
    # to (w*, v*, u*), swaps the visible squares, dualizes the connecting
    # one and keeps the traces.  Most duals are out of block form, so
    # their boundary comes from the section solve: an oracle for that
    # path that needs no per-triple sweep
    out_of_block = violating = 0
    for ring in (RingSpec(4), RingSpec(3, True), RingSpec(6),
                 RingSpec(2, True), RingSpec(9)):
        rng = random.Random(f"dual:{ring}")
        for _ in range(20):
            ses = random_extension(rng, ring, max_window=3, max_rank=2)
            k, l, m = (dual_complex(c)
                       for c in (ses.sub, ses.middle, ses.quotient))
            dual = ShortExactSequence(m, l, k,
                                      dual_map(ses.projection, m, l),
                                      dual_map(ses.inclusion, l, k))
            assert validate_ses(dual)
            counts = _SesSystem(ses).counts()
            assert _SesSystem(dual).counts() == counts
            out_of_block += not dual._in_block_form
            violating += bool(counts[1])
    assert out_of_block and violating


# -- one elimination of B against two kernel counts --------------------------

ONE_ELIMINATION_RINGS = (RingSpec(4), RingSpec(6), RingSpec(9), RingSpec(12),
                         RingSpec(2, True), RingSpec(3, True),
                         RingSpec(4, True))


@settings(max_examples=150)
@given(st.sampled_from(ONE_ELIMINATION_RINGS), st.integers(0, 4),
       st.integers(0, 5), st.booleans(), st.integers(0, 2 ** 32 - 1))
@example(RingSpec(4, True), 0, 3, False, 0)     # B with no rows
@example(RingSpec(12), 3, 0, False, 0)          # B with no columns
@example(RingSpec(9), 3, 4, True, 0)            # a zero defect row
def test_form_on_the_kernel_counts_as_a_second_kernel(ring, rows, cols,
                                                      zero_form, seed):
    # |L(ker B)|, read off B's logs, is |ker B| / |ker [B; L]|.  Half the
    # entries are zero and the rest random, so kernels are seldom trivial
    rng = random.Random(seed)
    m = ring.modulus

    def entries(n):
        return [rng.choice((0, rng.randrange(m))) for _ in range(n)]
    b = IntegerSystem(ring, cols, [entries(cols) for _ in range(rows)],
                      [entries(cols) for _ in range(rows)]
                      if ring.has_epsilon else None)
    form = [0] * cols if zero_form else entries(cols)
    solver = LinearSolver(b)
    image = solver.kernel_image_count(form)
    assert image * LinearSolver(b.with_row(form)).kernel_count == (
        solver.kernel_count)
    assert image == 1 or not zero_form


def test_one_elimination_counts_match_two_kernel_counts():
    # _SesSystem.counts eliminates B once; eliminating B and B plus its
    # defect row gives the same counts, violating sequences included
    violating = 0
    for ring in ONE_ELIMINATION_RINGS:
        rng = random.Random(f"one elimination:{ring}")
        for _ in range(15):
            system = _SesSystem(random_extension(rng, ring, max_window=3,
                                                 max_rank=2))
            counts = system.counts()
            assert counts == two_kernel_counts(system), ring
            violating += bool(counts[1])
    assert violating


# -- chain-map arithmetic against its blocks ---------------------------------

# every window below, shifted or not, lies well inside this range
WIDE = range(-6, 9)


@st.composite
def windows(draw, ring):
    """A complex over `ring` starting at -1..1 with up to four ranks from
    0..2: interior zero ranks and the zero complex included.  The
    arithmetic reads only ranks, so the differentials are zero."""
    lo = draw(st.integers(-1, 1))
    ranks = draw(st.lists(st.integers(0, 2), min_size=1, max_size=4))
    return PerfectComplex.build(ring, lo, ranks)


def _random_map(rng, source, target):
    return ChainMap.build(source, target, {
        n: random_matrix(rng, source.ring, target.rank(n), source.rank(n))
        for n in source.degrees()})


def _assert_blocks(f, block):
    """f has block(n) at every degree of WIDE and is what `build` makes
    of those blocks."""
    for n in WIDE:
        assert f.comp(n) == block(n), n
    assert ChainMap.build(f.source, f.target,
                          {n: f.comp(n) for n in WIDE}) == f


@deterministic
@given(st.sampled_from(RINGS), st.data())
def test_chain_map_arithmetic_matches_its_blocks(ring, data):
    a, b, c = (data.draw(windows(ring)) for _ in range(3))
    rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1)))
    f, f2, g = _random_map(rng, b, c), _random_map(rng, b, c), \
        _random_map(rng, a, b)
    _assert_blocks(f @ g, lambda n: f.comp(n) @ g.comp(n))
    _assert_blocks(f + f2, lambda n: f.comp(n) + f2.comp(n))
    _assert_blocks(f - f2, lambda n: f.comp(n) - f2.comp(n))
    for k in (-1, 1, 2):
        shifted = f.shift(k)
        assert (shifted.source, shifted.target) == (b.shift(k), c.shift(k))
        _assert_blocks(shifted, lambda n: f.comp(n + k))
    _assert_blocks(ChainMap.identity(b),
                   lambda n: Matrix.identity(ring, b.rank(n)))


# -- the exhaustive search's admission check ----------------------------------

SMALL_RINGS = (RingSpec(2), RingSpec(3), RingSpec(4), RingSpec(6),
               RingSpec(2, True), RingSpec(3, True))


@settings(max_examples=200)
@given(st.sampled_from(SMALL_RINGS), st.integers(1, 3), st.integers(0, 3),
       st.integers(1, 5000))
def test_no_step_of_an_admitted_walk_passes_the_ceiling(ring, window, rank,
                                                        ceiling):
    # the lower bound: one complex per rank vector, and |R|^(r0 r1) for
    # (r0, r1, ...), one per first differential extended by zeros
    vectors = [(0,)] + [
        v for width in range(1, window + 1)
        for v in itertools.product(range(rank + 1), repeat=width)
        if v[0] and v[-1]]
    bound = sum(ring.cardinality ** (v[0] * v[1] if len(v) > 1 else 0)
                for v in vectors)
    if bound > ceiling:
        cfg = SearchConfig(ring, max_window=window, max_rank=rank,
                           mode="exhaustive", ceiling=ceiling)
        with pytest.raises(CeilingExceededError,
                           match="complexes in range"):
            _admitted_walk(cfg, per_triple=False)
        return
    # so the walk needs no check: each differential of each complex it
    # lists (as far as the listed-count check lets it) had at most
    # `ceiling` choices of rows, given the differential before it
    choices = {}
    listed = itertools.islice(iter_all_complexes(
        ring, max_window=window, max_rank=rank), ceiling + 1)
    for k in listed:
        prev = Matrix.zero(ring, k.ranks[0], 0)
        for d in k.diffs:
            if (prev, d.rows) not in choices:
                solver = LinearSolver(prev.transpose())
                choices[prev, d.rows] = solver.kernel_count ** d.rows
            assert choices[prev, d.rows] <= ceiling, k
            prev = d


# -- the command line on mutated files ---------------------------------------

TRIPLE = (Path(__file__).parent.parent / "demos" / "triple.txt"
          ).read_text().splitlines()

TOKENS = ("ring", "complex", "degrees", "ranks", "d", "map", "endo", "K",
          "L", "M", "j", "q", "u", "v", "w", "0", "1", "-1", "2", "7",
          "99999999999", "e", "2*e", "1+e", "0..1", "1..0", "Z/4", "Z/3[e]",
          "Z/1", "[[1]]", "[[e]]", "[[1,1]]", "[[1],[1]]", "[[]]", "[]", "[[",
          "]]", "#")

token = st.one_of(st.sampled_from(TOKENS),
                  st.text(alphabet="0123456789[],.+-*e/Z ", max_size=6))


@st.composite
def mutated_lines(draw):
    """demos/triple.txt with one to three lines mutated: a token replaced,
    a line deleted or duplicated, a line of directive tokens inserted, or
    a byte that is not UTF-8 inserted."""
    lines = list(TRIPLE)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(("replace", "delete", "duplicate",
                                     "insert", "byte")))
        if kind == "replace":
            words = lines[at].split() or [""]
            words[draw(st.integers(0, len(words) - 1))] = draw(token)
            lines[at] = "  " * draw(st.booleans()) + " ".join(words)
        elif kind == "delete":
            del lines[at]
        elif kind == "duplicate":
            lines.insert(at, lines[at])
        elif kind == "byte":
            # a 0xff byte, which no UTF-8 text holds, written through the
            # surrogate that `surrogateescape` turns back into it
            col = draw(st.integers(0, len(lines[at])))
            lines[at] = lines[at][:col] + "\udcff" + lines[at][col:]
        else:
            words = draw(st.lists(token, min_size=0, max_size=3))
            head = draw(st.sampled_from(TOKENS[:7]))
            lines.insert(at, " ".join([head] + words))
    return "\n".join(lines) + "\n"


@settings(max_examples=60)
@given(mutated_lines())
def test_cli_never_crashes_on_mutated_files(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("mutated") / "triple.txt"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    for command in ("validate", "ses-check", "additivity"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run([command, str(path)])
        assert code in (0, 1, 2, 64, 65), (command, code, err.getvalue())
        assert "Traceback" not in err.getvalue()
        assert "internal error" not in err.getvalue()
