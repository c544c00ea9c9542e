"""Seeded random generators for every object the library works with.

All functions take an explicit random.Random so runs are reproducible;
nothing here touches global random state.  Constrained objects (valid
complexes, chain maps, twists, the block fillers of strict triples) are
sampled through the exact linear solver, so a "random X" is always a
genuine X — no generate-and-pray loops except where noted.
"""

from __future__ import annotations

from random import Random
from typing import Optional

from .complexes import (
    ChainMap,
    ChainMapSpace,
    Homotopy,
    PerfectComplex,
    _hom_slots,
    _upper_block,
)
from .detline import NotAutomorphismError, det_of_automorphism
from .linalg import LinearSolver, Matrix
from .rings import RingElem, RingSpec
from .ses import (
    CocycleSpace,
    EndoTriple,
    ShortExactSequence,
    _SesSystem,
    extension_twist,
    make_extension,
)


def random_element(rng: Random, ring: RingSpec) -> RingElem:
    return ring.from_index(rng.randrange(ring.cardinality))


def random_matrix(rng: Random, ring: RingSpec, rows: int, cols: int) -> Matrix:
    return Matrix(ring, rows, cols,
                  tuple(random_element(rng, ring)
                        for _ in range(rows * cols)))


def random_complex(rng: Random, ring: RingSpec, *, max_window: int,
                   max_rank: int, lo: int = 0) -> PerfectComplex:
    """A valid complex with at most max_window occupied degrees starting
    at lo, each rank drawn from 0..max_rank.

    The first differential is uniform; each later one is uniform among
    the matrices compatible with its predecessor (rows sampled from the
    kernel of the transpose), so d^2 = 0 holds by construction.
    """
    width = rng.randint(1, max_window)
    ranks = [rng.randint(0, max_rank) for _ in range(width)]
    diffs: dict[int, Matrix] = {}
    prev: Optional[Matrix] = None
    for i in range(width - 1):
        rows, cols = ranks[i + 1], ranks[i]
        if prev is None:
            d = random_matrix(rng, ring, rows, cols)
        else:
            ents: list[RingElem] = []
            if rows:    # no rows: nothing to draw, so nothing to factor
                solver = LinearSolver(prev.transpose())
                for _ in range(rows):
                    ents.extend(solver.sample_solution(None, rng))
            d = Matrix(ring, rows, cols, tuple(ents))
        diffs[lo + i] = d
        prev = d if cols else None
    return PerfectComplex.build(ring, lo, ranks, diffs)


def random_chain_map(rng: Random, source: PerfectComplex,
                     target: PerfectComplex) -> ChainMap:
    """Uniform over all chain maps source -> target (builds the space
    each call; hold a ChainMapSpace yourself inside hot loops)."""
    return ChainMapSpace(source, target).sample(rng)


def random_chain_endo(rng: Random, k: PerfectComplex) -> ChainMap:
    return random_chain_map(rng, k, k)


def random_homotopy(rng: Random, source: PerfectComplex,
                    target: PerfectComplex) -> Homotopy:
    """Uniform degree -1 map; components are unconstrained."""
    comps = {n: random_matrix(rng, source.ring, r, c)
             for n, r, c in _hom_slots(source, target, -1)}
    return Homotopy.build(source, target, comps)


def random_cocycle(rng: Random, sub: PerfectComplex,
                   quotient: PerfectComplex) -> ChainMap:
    """Uniform twist for make_extension: a chain map quotient -> sub[1]."""
    return CocycleSpace(sub, quotient).sample(rng)


def random_extension(rng: Random, ring: RingSpec, *, max_window: int,
                     max_rank: int) -> ShortExactSequence:
    """Random sub and quotient complexes glued along a random twist."""
    sub = random_complex(rng, ring, max_window=max_window, max_rank=max_rank)
    quo = random_complex(rng, ring, max_window=max_window, max_rank=max_rank)
    return make_extension(sub, quo, random_cocycle(rng, sub, quo))


# ---------------------------------------------------------------------------
# Strict triples: endomorphisms in block-triangular form
# ---------------------------------------------------------------------------


def assemble_block_endo(ses: ShortExactSequence, u: ChainMap, w: ChainMap,
                        filler: Homotopy) -> ChainMap:
    """The endomorphism [[u, filler], [0, w]] of the middle complex, for a
    filler Homotopy quotient -> sub.shift(1): blocks quotient^n -> sub^n."""
    return ChainMap(ses.middle, ses.middle, tuple(
        _upper_block(u.comp(n), filler.comp(n), w.comp(n))
        for n in ses.middle.degrees()))


def random_strict_triple(rng: Random, ses: ShortExactSequence, *,
                         attempts: int = 64,
                         automorphisms: bool = False,
                         ) -> Optional[EndoTriple]:
    """A triple (u, v, w) making both squares commute strictly, with v
    block-triangular; None if `attempts` endo pairs all fail to extend.

    With automorphisms=True, u and w are resampled until each is a
    degreewise automorphism (so v is one too, being block-triangular
    with unit diagonal determinants).
    """
    extension_twist(ses)    # the filler is a block: refuse other layouts
    system = _SesSystem(ses)

    def pick(space: ChainMapSpace) -> Optional[ChainMap]:
        for _ in range(attempts):
            f = space.sample(rng)
            if not automorphisms:
                return f
            try:
                det_of_automorphism(f)
                return f
            except NotAutomorphismError:
                continue
        return None

    for _ in range(attempts):
        u, w = pick(system.u_space), pick(system.w_space)
        if u is None or w is None:
            return None
        filler = system.sample_filler(u, w, rng)
        if filler is None:
            continue
        return EndoTriple(u, assemble_block_endo(ses, u, w, filler), w)
    return None
