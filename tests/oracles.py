"""Slow references for the Hom-complex systems and the exhaustive sweep.

`complexes._hom_matrix` and `_SesSystem.matrix` write their systems
straight into integer rows; the tests compare them with the same
matrices written with ring-element arithmetic, as `Matrix` objects, and
with the integer lift that `LinearSolver` factors, read off a `Matrix`
entry by entry.

`_SesSystem.counts` eliminates B once, and the exhaustive sweep counts
one sequence per extension class; the tests compare them with two
kernel counts per sequence and with a sweep that builds and counts every
sequence."""

from math import prod

from chaintrace.complexes import HomComplex, _d_terms, _hom_slots, _Term
from chaintrace.linalg import LinearSolver, Matrix, ShapeError
from chaintrace.search import SearchOutcome, iter_all_complexes
from chaintrace.ses import (CocycleSpace, _SesSystem, make_extension,
                            validate_ses)


def ring_hom_matrix(ring, layouts, block_rows):
    """The matrix of sums of `_Term`s, as `_hom_matrix` lays it out,
    summed entry by entry in the ring."""
    offsets = {}
    pos = 0
    for var, slots in enumerate(layouts):
        for n, r, c in slots:
            offsets[var, n] = (pos, r, c)
            pos += r * c
    zero = ring.zero()
    rows = []
    for eq_slots, terms in block_rows:
        for n, er, ec in eq_slots:
            block = [[zero] * pos for _ in range(er * ec)]
            for var, f, shift, left, sign in terms:
                slot = offsets.get((var, n + shift))
                if slot is None:
                    continue
                base, r, c = slot
                a = f(n)
                want = (er, r, ec) if left else (c, ec, er)
                if (a.rows, a.cols, c if left else r) != want:
                    raise ShapeError(f"term on unknown {var} does not fit "
                                     f"the equation block at degree {n}")
                for idx, x in enumerate(a.entries):
                    p, l = divmod(idx, a.cols)
                    x = x if sign > 0 else -x
                    if left:      # f[p, l] X[l, j] adds to row (p, j)
                        for j in range(ec):
                            row, col = block[p * ec + j], base + l * ec + j
                            row[col] = row[col] + x
                    else:         # X[i, p] f[p, l] adds to row (i, l)
                        for i in range(er):
                            row, col = block[i * ec + l], base + i * c + p
                            row[col] = row[col] + x
            rows.extend(block)
    return Matrix(ring, len(rows), pos, tuple(x for row in rows for x in row))


def ring_hom_complex_matrix(hom: HomComplex):
    """The matrix of D on degree hom.k of Hom(source, target)."""
    return ring_hom_matrix(hom.source.ring, [hom.var_slots], [(
        hom.eq_slots, _d_terms(hom.source, hom.target, hom.k))])


def ring_ses_matrix(system):
    """B of `_SesSystem.counts` with the defect row tr v - tr u - tr w
    last, in the unknowns (u, v, w, h_L, h_R, h_C)."""
    ses, ring = system.ses, system.ses.ring
    j, q, delta = ses.inclusion, ses.projection, system.delta
    complexes = (ses.sub, ses.middle, ses.quotient)
    endo_slots = [_hom_slots(k, k, 0) for k in complexes]
    probs = (system.left_prob, system.right_prob, system.conn_prob)
    squares = ([_Term(1, j.comp, left=False), _Term(0, j.comp, sign=-1)],
               [_Term(1, q.comp), _Term(2, q.comp, left=False, sign=-1)],
               [_Term(0, delta.comp, shift=1, left=False),
                _Term(2, delta.comp, sign=-1)])
    block_rows = [(_hom_slots(k, k, 1), _d_terms(k, k, 0, i))
                  for i, k in enumerate(complexes)]
    block_rows += [(p.eq_slots,
                    terms + _d_terms(p.source, p.target, -1, 3 + i, -1))
                   for i, (p, terms) in enumerate(zip(probs, squares))]
    b = ring_hom_matrix(ring, endo_slots + [p.var_slots for p in probs],
                        block_rows)
    defect = [ring.zero()] * b.cols
    pos = 0
    for sign, slots in zip((-1, 1, -1), endo_slots):
        for n, r, _ in slots:
            x = ring.element(-sign if n % 2 else sign)
            for i in range(r):
                defect[pos + i * r + i] = x
            pos += r * r
    return Matrix(ring, b.rows + 1, b.cols, b.entries + tuple(defect))


def integer_lift(mat):
    """The integer system LinearSolver factors for mat: the matrix itself
    over Z/m, the doubled [[A0, 0], [A1, A0]] over Z/m[e]."""
    c = mat.cols
    rows = [mat.entries[i * c:(i + 1) * c] for i in range(mat.rows)]
    lift = [[x.a for x in row] for row in rows]
    if mat.ring.has_epsilon:
        lift = ([row + [0] * c for row in lift]
                + [[x.b for x in row] + row0 for row, row0 in zip(rows, lift)])
    return lift


def two_kernel_counts(system):
    """(examined, violations) of `_SesSystem.counts` from two
    eliminations: the kernel of B, and that of B plus its defect row."""
    fibre = prod(p.count for p in (system.left_prob, system.right_prob,
                                   system.conn_prob))
    full = system.matrix()
    examined, additive = (LinearSolver(m).kernel_count
                          for m in (full.top(full.rows - 1), full))
    return examined // fibre, (examined - additive) // fibre


def per_sequence_search(cfg):
    """The exhaustive search without a log, one sequence at a time: every
    extension built, validated and counted by `two_kernel_counts`, and
    the first violation scanned on the first sequence that has one."""
    all_cs = list(iter_all_complexes(cfg.ring, max_window=cfg.max_window,
                                     max_rank=cfg.max_rank))
    examined = violations = 0
    first = None
    for sub in all_cs:
        for quo in all_cs:
            for twist in CocycleSpace(sub, quo).iter_all():
                ses = make_extension(sub, quo, twist)
                assert validate_ses(ses)
                system = _SesSystem(ses)
                ex, vi = two_kernel_counts(system)
                examined += ex
                violations += vi
                if vi and first is None:
                    first = system.first_violation()
    return SearchOutcome(violations, first, examined)
