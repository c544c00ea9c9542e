"""Tour of the smallest trace-additivity violation.

Builds, over Z/3[e], a short exact sequence of two-term complexes and an
endomorphism triple (u, v, w) whose three compatibility squares all hold
— the right and connecting ones strictly, the left one up to an explicit
chain homotopy — and
whose graded traces nevertheless refuse to add up:

    Tr(v) - Tr(u) - Tr(w) = -e  !=  0.

Every claim printed below is re-verified in exact arithmetic as it is
printed.
"""

from chaintrace import (
    ChainMap,
    RingSpec,
    build_counterexample,
    check_triple,
    graded_trace,
    perturb,
    ses_file,
)


def main() -> None:
    ring = RingSpec(3, True)
    ses, triple, witness = build_counterexample(ring)

    print(f"ring: {ring}")
    print()
    print("the instance, in the package's text format:")
    print()
    for line in ses_file(ses, triple=triple).splitlines():
        print("   ", line)
    print()

    report = check_triple(ses, triple)
    print("left  square:", report.left.describe())
    print("right square:", report.right.describe())
    print("connecting square:", report.connecting.describe())
    print()

    # The left square's witness is a genuine chain homotopy: perturbing the
    # zero map by it reproduces the difference of the two composites.
    difference = (triple.on_middle @ ses.inclusion
                  - ses.inclusion @ triple.on_sub)
    zero = ChainMap.zero(ses.sub, ses.middle)
    assert perturb(zero, witness) == difference
    print("left-square witness re-verified: dh + hd equals the difference")
    print(f"  h in degree 1: {witness.comp(1)!s}")
    print()

    for name, endo in (("u", triple.on_sub), ("v", triple.on_middle),
                       ("w", triple.on_quotient)):
        print(f"Tr({name}) = {graded_trace(endo)}")
    print(f"defect Tr(v) - Tr(u) - Tr(w) = {report.defect}")
    assert report.defect == -ring.epsilon()
    print()
    print("the defect is a square-zero element -- and that is no accident:")
    print("over a ring with no nonzero square-zero elements, instances like")
    print("this one cannot exist (see demos/search_small_rings.py).")


if __name__ == "__main__":
    main()
