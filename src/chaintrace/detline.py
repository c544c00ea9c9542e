"""Graded determinant lines and the determinant/trace comparison.

A graded line is an invertible rank-one object remembered by two pieces
of data: an integer degree and a unit scalar.  The determinant line of a
bounded complex of free modules sits in degree equal to the alternating
sum of the ranks; an automorphism of the complex acts on that line by
the alternating product of its degreewise determinants.

The last function ties determinants to traces: over Z/m, adjoining a
square-zero element e and feeding the automorphism 1 + e*u through the
graded determinant gives exactly 1 + e * (graded trace of u).  That
first-order identity is the reason trace statements are shadows of
determinant statements, and the test suite leans on it both ways.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import ChainMap, PerfectComplex
from .homotopy import graded_trace
from .linalg import Matrix
from .rings import RingElem, RingSpec


class NotAutomorphismError(ValueError):
    """Raised when a degreewise determinant fails to be a unit."""


@dataclass(frozen=True)
class GradedLine:
    """An invertible rank-one gadget: an integer degree plus a unit scalar."""

    degree: int
    scalar: RingElem

    def __post_init__(self) -> None:
        if not self.scalar.is_unit():
            raise ValueError(f"line scalar {self.scalar} is not a unit")

    def inverse(self) -> "GradedLine":
        return GradedLine(-self.degree, self.scalar.inverse())


def unit_line(ring: RingSpec) -> GradedLine:
    return GradedLine(0, ring.one())


def tensor(a: GradedLine, b: GradedLine) -> GradedLine:
    """Tensor product of lines: degrees add, scalars multiply."""
    return GradedLine(a.degree + b.degree, a.scalar * b.scalar)


def koszul_swap(r: int, s: int) -> int:
    """Sign picked up when two lines of degrees r and s move past each
    other: +1 or -1 as (-1)^(r*s)."""
    return -1 if (r * s) % 2 else 1


def det_line_of(k: PerfectComplex) -> GradedLine:
    """The determinant line of a complex: degree is the alternating sum
    of ranks, scalar the identity (a bare complex acts trivially)."""
    return GradedLine(k.euler_rank(), k.ring.one())


def det_of_automorphism(u: ChainMap) -> RingElem:
    """Alternating product of degreewise determinants, det(u^n)^((-1)^n).

    The input must be an endomorphism whose component at every occupied
    degree has unit determinant; otherwise NotAutomorphismError.  (The
    chain-map equation is not consulted here — this is the action on
    the determinant line of whatever degreewise automorphism it is
    given.)
    """
    if u.source != u.target:
        raise ValueError("determinant needs an endomorphism")
    ring = u.ring
    out = ring.one()
    for n in u.source.degrees():
        d = u.comp(n).det()
        if not d.is_unit():
            raise NotAutomorphismError(
                f"determinant {d} at degree {n} is not a unit")
        out = out * (d.inverse() if n % 2 else d)
    return out


def _one_plus_epsilon_times(mat: Matrix, lifted: RingSpec) -> Matrix:
    """Lift a square matrix over Z/m to 1 + e*mat over Z/m[e]."""
    n = mat.rows
    ents = []
    for i in range(n):
        for j in range(n):
            ents.append(lifted.element(1 if i == j else 0,
                                       mat.entry(i, j).a))
    return Matrix(lifted, n, n, tuple(ents))


@dataclass(frozen=True)
class BridgeReport:
    """Both sides of the first-order determinant/trace comparison."""

    det_side: RingElem      # graded determinant of 1 + e*u
    trace_side: RingElem    # 1 + e * graded trace of u

    @property
    def agree(self) -> bool:
        return self.det_side == self.trace_side


def det_trace_bridge(u: ChainMap) -> BridgeReport:
    """Compare det(1 + e*u) against 1 + e*tr(u) over the square-zero
    extension of the base ring.

    The endomorphism must live over a plain Z/m (no e in the base —
    there is nowhere square-zero left to go from Z/m[e], so that input
    is rejected).  Both sides are computed independently: the left by
    lifting each component and taking the alternating product of honest
    determinants over Z/m[e], the right from the graded trace alone.
    """
    if u.source != u.target:
        raise ValueError("the comparison needs an endomorphism")
    ring = u.ring
    if ring.has_epsilon:
        raise ValueError("base ring already has a square-zero element; "
                         "use a plain Z/m endomorphism")
    lifted = RingSpec(ring.modulus, True)
    k = _lift_complex(u.source, lifted)
    blown_up = ChainMap(k, k, tuple(_one_plus_epsilon_times(f, lifted)
                                    for f in u.comps))
    det_side = det_of_automorphism(blown_up)
    tr = graded_trace(u)
    return BridgeReport(det_side, lifted.element(1, tr.a))


def _lift_complex(k: PerfectComplex, lifted: RingSpec) -> PerfectComplex:
    """k over `lifted`, degree for degree, so that a map's blocks fit."""
    return PerfectComplex(lifted, k.lo, k.ranks, tuple(
        Matrix(lifted, d.rows, d.cols,
               tuple(lifted.element(x.a) for x in d.entries))
        for d in k.diffs))
