import pickle
import re

import pytest

from chaintrace.rings import RingElem, RingMismatchError, RingSpec
from conftest import count_calls

Z4 = RingSpec(4)
Z5 = RingSpec(5)
Z6 = RingSpec(6)
Z2E = RingSpec(2, True)
Z3E = RingSpec(3, True)


def test_modulus_bound():
    with pytest.raises(ValueError):
        RingSpec(1)
    with pytest.raises(ValueError):
        RingSpec(0)


def test_canonical_residues():
    x = Z4.element(7)
    assert (x.a, x.b) == (3, 0)
    y = Z3E.element(-1, 5)
    assert (y.a, y.b) == (2, 2)


def test_no_epsilon_part_in_plain_ring():
    with pytest.raises(ValueError):
        Z4.element(1, 1)
    # a multiple of the modulus in the e slot is just zero
    assert Z4.element(1, 8) == Z4.one()


def test_epsilon_squares_to_zero():
    e = Z3E.epsilon()
    assert e * e == Z3E.zero()
    with pytest.raises(ValueError):
        Z4.epsilon()


def test_known_product():
    # (1+e)(1+2e) = 1 + 3e = 1 over Z/3[e]
    assert Z3E.element(1, 1) * Z3E.element(1, 2) == Z3E.one()


def test_from_index_refuses_indices_out_of_range():
    assert Z3E.from_index(8) == Z3E.element(2, 2)
    for ring, i in ((Z4, 4), (Z4, -1), (Z3E, 9)):
        message = f"index {i} out of range for {ring}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ring.from_index(i)


def test_mixed_ring_operands_rejected():
    with pytest.raises(RingMismatchError):
        Z4.one() + Z5.one()
    with pytest.raises(RingMismatchError):
        Z4.one() * RingSpec(4, True).one()


@pytest.mark.parametrize("ring", [Z4, Z6, Z2E, Z3E, RingSpec(6, True)])
def test_ring_axioms_exhaustive(ring):
    """Associativity, commutativity, distributivity, identities, inverses --
    checked over every element triple (the rings are small enough)."""
    elems = list(ring.elements())
    assert len(elems) == ring.cardinality
    zero, one = ring.zero(), ring.one()
    for x in elems:
        assert x + zero == x
        assert x * one == x
        assert x + (-x) == zero
        assert x.index == elems.index(x)
        assert ring.from_index(x.index) == x
    for x in elems:
        for y in elems:
            assert x + y == y + x
            assert x * y == y * x
            for z in elems:
                assert (x + y) + z == x + (y + z)
                assert (x * y) * z == x * (y * z)
                assert x * (y + z) == x * y + x * z


@pytest.mark.parametrize("ring", [Z4, Z5, Z6, Z2E, Z3E])
def test_is_unit_matches_inverse_search(ring):
    one = ring.one()
    for x in ring.elements():
        has_inv = any(x * y == one for y in ring.elements())
        assert x.is_unit() == has_inv
        if has_inv:
            assert x * x.inverse() == one
        else:
            with pytest.raises(ValueError):
                x.inverse()


def test_unit_with_nilpotent_part():
    # (1+e)(1-e) = 1 - e^2 = 1
    x = Z3E.element(1, 1)
    assert x.is_unit()
    assert x.inverse() == Z3E.element(1, 2)
    assert Z6.element(5).is_unit()
    assert not Z6.element(2).is_unit()
    assert not Z3E.element(0, 1).is_unit()


def test_inverse_in_large_ring():
    """Z/10007[e] has 10^8 elements: the inverse must not scan them."""
    ring = RingSpec(10007, True)
    one = ring.one()
    for a, b in ((1, 0), (2, 1), (10006, 5000), (1234, 9999), (5, 0)):
        x = ring.element(a, b)
        assert x * x.inverse() == one
    with pytest.raises(ValueError, match="is not a unit in Z/10007"):
        ring.element(0, 7).inverse()


def test_is_reduced():
    assert Z5.is_reduced()
    assert Z6.is_reduced()
    assert RingSpec(2).is_reduced()
    assert RingSpec(3).is_reduced()
    assert not Z4.is_reduced()
    assert not RingSpec(8).is_reduced()
    assert not RingSpec(12).is_reduced()
    assert not Z2E.is_reduced()
    assert not Z3E.is_reduced()


@pytest.mark.parametrize("ring", [Z4, Z5, Z6, Z2E, Z3E, RingSpec(8),
                                  RingSpec(9), RingSpec(12)])
def test_reduced_iff_no_square_zero_element(ring):
    """Cross-check is_reduced against brute force over the whole ring."""
    zero = ring.zero()
    brute = not any(x * x == zero for x in ring.elements() if x)
    assert ring.is_reduced() == brute


@pytest.mark.parametrize("ring,expected", [
    (Z4, 2),
    (RingSpec(8), 4),
    (RingSpec(12), 6),
    (RingSpec(27), 9),
])
def test_nilpotent_witness_values(ring, expected):
    w = ring.nilpotent_witness()
    assert w == ring.element(expected)
    assert w * w == ring.zero()
    # minimality: no smaller positive residue squares to zero
    for k in range(1, expected):
        x = ring.element(k)
        assert x * x != ring.zero()


def test_nilpotent_witness_matches_brute_force():
    # the least positive x with x^2 = 0 mod m, or none below m
    for m in range(2, 1500):
        brute = next(x for x in range(1, m + 1) if x * x % m == 0)
        w = RingSpec(m).nilpotent_witness()
        assert (w is None if brute == m else w == RingSpec(m).element(brute))


def test_nilpotent_witness_of_large_moduli():
    # trial division stops at the cube root of the cofactor, so 19-digit
    # moduli are decided quickly; a prime square keeps its prime
    p = 1000003
    assert RingSpec(p * p).nilpotent_witness() == RingSpec(p * p).element(p)
    assert RingSpec(p * 999983).nilpotent_witness() is None
    assert RingSpec(4 * p).nilpotent_witness() == RingSpec(4 * p).element(2 * p)
    assert RingSpec(10 ** 18 + 3).nilpotent_witness() is None


def test_nilpotent_witness_epsilon_and_reduced():
    assert Z3E.nilpotent_witness() == Z3E.epsilon()
    assert Z2E.nilpotent_witness() == Z2E.epsilon()
    assert Z5.nilpotent_witness() is None
    assert Z6.nilpotent_witness() is None


def test_formatting():
    assert str(Z4) == "Z/4"
    assert str(Z3E) == "Z/3[e]"
    assert str(Z4.element(3)) == "3"
    assert str(Z3E.zero()) == "0"
    assert str(Z3E.element(0, 1)) == "e"
    assert str(Z3E.element(0, 2)) == "2*e"
    assert str(Z3E.element(1, 1)) == "1+e"
    assert str(Z3E.element(1, 2)) == "1+2*e"


def test_hash_and_equality():
    assert Z4.element(5) == Z4.element(1)
    assert hash(Z4.element(5)) == hash(Z4.element(1))
    assert Z4.element(1) != Z5.element(1)
    assert len({Z4.element(i) for i in range(16)}) == 4


def test_zero_and_one_are_built_once_per_ring():
    assert Z4.zero() is Z4.zero() and Z3E.one() is Z3E.one()
    assert Z4.zero() == Z4.element(0) and Z3E.one() == Z3E.element(1)
    # the cached elements stay out of the fields
    Z4.zero()
    assert repr(RingSpec(4)) == repr(Z4) == \
        "RingSpec(modulus=4, has_epsilon=False)"
    assert Z4 == RingSpec(4) and hash(Z4) == hash(RingSpec(4))


def test_other_types_of_ring_value_leave_the_interned_rings_intact():
    # 4.0 == 4 and 1 == True, with equal hashes: were RingSpec(4.0) and
    # RingSpec(4, 1) handed the interned ring, they would write their own
    # field values into it
    z4, z4e = RingSpec(4), RingSpec(4, True)
    assert RingSpec(4.0) is not z4 and RingSpec(4, 1) is not z4e
    assert str(z4) == "Z/4" and str(z4e) == "Z/4[e]"
    assert z4e.has_epsilon is True
    assert RingSpec(4, 1) == RingSpec(4, True)


def test_small_rings_intern_their_elements(monkeypatch):
    # a ring of at most 2^16 elements is one object per value, and
    # construction and arithmetic hand out its one element of each value;
    # so a search run a second time builds no element at all
    from chaintrace.search import SearchConfig, search_violation
    cfg = SearchConfig(Z4, max_window=3, max_rank=2, trials=40)
    first = search_violation(cfg)
    built = count_calls(monkeypatch, RingElem, "__post_init__")
    assert search_violation(cfg) == first
    assert not built
    assert RingSpec(4) is Z4 and RingSpec(3, True) is Z3E
    assert pickle.loads(pickle.dumps(Z3E)) is Z3E
    assert Z4.zero() is Z4.zero() is Z4.element(8)
    assert Z3E.element(2, 1) + Z3E.one() is Z3E.element(0, 1)
    assert repr(RingSpec(4)) == "RingSpec(modulus=4, has_epsilon=False)"
    with pytest.raises(ValueError, match="^Z/4 has no e-part$"):
        Z4.element(1, 1)
    with pytest.raises(ValueError, match="^Z/4 has no e-part$"):
        Z4._elements[5]         # the table refuses an e-part too
    assert len(Z4._elements) == 4
    # a larger ring builds a fresh element each time
    big = RingSpec(257, True)
    assert big._elements is None and big.element(3) is not big.element(3)
    assert big.element(3) == big.element(3)
