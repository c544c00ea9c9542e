"""Properties of twists, boundary maps and the text format over random
small complexes, of the exhaustive search's admission check, and of the
command line on mutated input files, checked with hypothesis
(deterministic settings from conftest.py).
"""

import contextlib
import io
import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaintrace import cli
from chaintrace.complexes import ChainMap, ChainMapSpace, _hom_d
from chaintrace.generate import random_complex, random_matrix
from chaintrace.linalg import LinearSolver, Matrix
from chaintrace.rings import RingSpec
from chaintrace.search import (
    CeilingExceededError,
    SearchConfig,
    _admitted_complexes,
    iter_all_complexes,
)
from chaintrace.ses import (
    CocycleSpace,
    EndoTriple,
    connecting_map,
    extension_twist,
    make_extension,
)
from chaintrace.textio import parse_document, ses_file

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
        ses = make_extension(k, m, twist)
        assert extension_twist(ses) == twist
        assert connecting_map(ses) == ChainMap.build(m, k.shift(1), twist)


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
            make_extension(k, m, twist)
    else:
        assert extension_twist(make_extension(k, m, twist)) == twist
    # one wrong-ring or misshapen block, at any degree, is refused
    n = rng.choice(_twist_window(k, m))
    rows, cols = k.rank(n + 1), m.rank(n)
    other = RingSpec(5) if ring.modulus != 5 else RingSpec(7)
    bad = [Matrix.zero(other, rows, cols),
           Matrix.zero(ring, rows + 1, cols),
           Matrix.zero(ring, rows, cols + rng.randrange(1, 3))]
    for block_n in bad:
        with pytest.raises(ValueError):
            make_extension(k, m, {n: block_n})


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
            _admitted_complexes(cfg, per_triple=False)
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
    a line deleted or duplicated, or a line of directive tokens inserted."""
    lines = list(TRIPLE)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(("replace", "delete", "duplicate",
                                     "insert")))
        if kind == "replace":
            words = lines[at].split() or [""]
            words[draw(st.integers(0, len(words) - 1))] = draw(token)
            lines[at] = "  " * draw(st.booleans()) + " ".join(words)
        elif kind == "delete":
            del lines[at]
        elif kind == "duplicate":
            lines.insert(at, lines[at])
        else:
            words = draw(st.lists(token, min_size=0, max_size=3))
            head = draw(st.sampled_from(TOKENS[:7]))
            lines.insert(at, " ".join([head] + words))
    return "\n".join(lines) + "\n"


@settings(max_examples=60)
@given(mutated_lines())
def test_cli_never_crashes_on_mutated_files(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("mutated") / "triple.txt"
    path.write_text(text)
    for command in ("validate", "ses-check", "additivity"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run([command, str(path)])
        assert code in (0, 1, 2, 64, 65), (command, code, err.getvalue())
        assert "Traceback" not in err.getvalue()
        assert "internal error" not in err.getvalue()
