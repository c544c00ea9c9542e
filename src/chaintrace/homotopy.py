"""Graded traces and the null-homotopy solver.

The graded trace of a chain endomorphism u is sum_n (-1)^n Tr(u^n).  It
is invariant under homotopy perturbation: adding d h + h d never moves
it, which the telescoping of Tr(d h) against Tr(h d) makes exact here,
not just up to something negligible.

Whether a chain map f is null-homotopic is one linear question: is f in
the image of the differential h -> d h + h d of the Hom complex in
degree -1?  `NullHomotopyProblem` is that degree of `HomComplex`, whose
one factorisation per (source, target) pair lets searches test many
maps cheaply; `find_null_homotopy` is the one-shot wrapper.
"""

from __future__ import annotations

from typing import Optional

from .complexes import (ChainMap, HomComplex, Homotopy, PerfectComplex,
                        _hom_d)
from .rings import RingElem


def graded_trace(u: ChainMap) -> RingElem:
    """Alternating-sign trace of a chain endomorphism."""
    if u.source != u.target:
        raise ValueError("graded trace needs an endomorphism "
                         "(source == target)")
    acc = u.ring.zero()
    for n in u.source.degrees():
        t = u.comp(n).trace()
        acc = acc - t if n % 2 else acc + t
    return acc


def perturb(f: ChainMap, h: Homotopy) -> ChainMap:
    """f + D(h) = f + d h + h d, a chain map homotopic to f by
    construction, evaluated by matrix products."""
    if h.source != f.source or h.target != f.target:
        raise ValueError("homotopy does not match the map's source/target")
    dh = _hom_d(f.source, f.target, -1, h.comp)
    return f + ChainMap.build(f.source, f.target, dict(dh))


class NullHomotopyProblem(HomComplex):
    """The linear system 'f = d h + h d' for maps source -> target: degree
    -1 of Hom(source, target), whose differential sends h to d h + h d.
    Built once, solved per map."""

    def __init__(self, source: PerfectComplex, target: PerfectComplex):
        super().__init__(source, target, -1)

    def _rhs(self, f: ChainMap) -> list[RingElem]:
        """f as a right-hand side.  ValueError for a map into another
        target, whose entries would read as some map into this one."""
        if f.target != self.target:
            raise ValueError("map is not into this problem's target")
        return self.flatten(f)

    def coset_key(self, f: ChainMap) -> tuple[int, ...]:
        """Complete invariant of f modulo maps of the form d h + h d: two
        maps get the same key exactly when their difference is one, so
        equality of keys decides 'homotopic' without solving twice."""
        return self.solver.coset_key(self._rhs(f))

    def solve_for(self, f: ChainMap) -> Optional[Homotopy]:
        rep = self.solver.solve(self._rhs(f))
        if not rep.solvable:
            return None
        h = Homotopy(self.source, self.target, self.to_comps(rep.witness))
        # soundness re-check: f = d h + h d exactly, at each nonempty block
        dh = _hom_d(self.source, self.target, -1, h.comp)
        if any(x != f.comp(n) for n, x in dh):
            raise RuntimeError("null-homotopy witness failed re-evaluation; "
                               "solver bug")
        return h


def find_null_homotopy(f: ChainMap) -> Optional[Homotopy]:
    """A homotopy h with f = d h + h d, or None if there is none.

    The witness is the solution that the elimination mod each prime
    power of the modulus gives, joined by the CRT (reproducible, not
    canonical), re-checked by evaluation before being returned.
    """
    check = f.validate()
    if not check:
        raise ValueError(f"not a chain map: {check.message}")
    return NullHomotopyProblem(f.source, f.target).solve_for(f)


def are_homotopic(f: ChainMap, g: ChainMap) -> Optional[Homotopy]:
    """A homotopy between f and g (i.e. f - g = d h + h d), or None."""
    if f.source != g.source or f.target != g.target:
        raise ValueError("maps have different source or target")
    return find_null_homotopy(f - g)
