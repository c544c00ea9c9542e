"""Arithmetic in Z/m and in Z/m[e] with e^2 = 0.

Every element is kept in canonical residue form (0 <= a, b < m), so
dataclass equality and hashing are reliable.  All values are immutable,
and arithmetic never mutates.  A ring of at most 2^16 elements is one
object per value and interns its elements: construction and arithmetic
return the ring's one element of each value, built on first use.  A
larger ring builds a fresh element each time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd, isqrt, prod
from typing import Iterator, Optional

# rings with at most this many elements are interned, and so are their
# elements
_INTERNED_MAX = 1 << 16
_RINGS: dict[tuple[int, bool], "RingSpec"] = {}


class RingMismatchError(ValueError):
    """Operands belong to different rings."""


def _factor(m: int) -> tuple[tuple[int, int], ...]:
    """m as (base, exponent) pairs with coprime bases, found by trial
    division.  It stops at the cube root of the cofactor left over, which
    then has at most two prime factors: it is 1, p, p^2 (found by isqrt
    and listed as (p, 2)) or pq.  p and pq are listed as (cofactor, 1), so
    the last base may be a product of two primes, squarefree either way."""
    out, d = [], 2
    while d * d * d <= m:
        if m % d == 0:
            v = 0
            while m % d == 0:
                m //= d
                v += 1
            out.append((d, v))
        d += 1
    if m > 1:
        out.append((isqrt(m), 2) if isqrt(m) ** 2 == m else (m, 1))
    return tuple(out)


@dataclass(frozen=True)
class RingSpec:
    """The coefficient ring: Z/modulus, optionally extended by e with e^2 = 0."""

    modulus: int
    has_epsilon: bool = False

    def __new__(cls, modulus: int, has_epsilon: bool = False) -> "RingSpec":
        # one object per small ring value, so that its elements are shared
        if type(modulus) is not int or type(has_epsilon) is not bool:
            return super().__new__(cls)
        ring = _RINGS.get((modulus, has_epsilon))
        if ring is None:
            ring = super().__new__(cls)
            if 2 <= modulus and (modulus * modulus if has_epsilon
                                 else modulus) <= _INTERNED_MAX:
                _RINGS[modulus, has_epsilon] = ring
        return ring

    def __reduce__(self):
        return RingSpec, (self.modulus, self.has_epsilon)

    def __post_init__(self) -> None:
        if self.modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {self.modulus}")

    # -- construction ------------------------------------------------------

    def element(self, a: int = 0, b: int = 0) -> "RingElem":
        table, m = self._elements, self.modulus
        if table is None:
            return RingElem(self, a, b)
        return table[a % m + m * (b % m)]

    def zero(self) -> "RingElem":
        return self._zero

    def one(self) -> "RingElem":
        return self._one

    # built once per ring and kept outside the fields, so that ==, hash
    # and repr do not see them

    @cached_property
    def _elements(self) -> Optional["_Elements"]:
        """The interned elements by index, or None for a larger ring."""
        return _Elements(self) if self.cardinality <= _INTERNED_MAX else None

    @cached_property
    def _zero(self) -> "RingElem":
        return self.element(0)

    @cached_property
    def _one(self) -> "RingElem":
        return self.element(1)

    @cached_property
    def _prime_powers(self) -> tuple[tuple[int, int], ...]:
        """The modulus as `_factor` splits it, factored once per ring."""
        return _factor(self.modulus)

    def epsilon(self) -> "RingElem":
        if not self.has_epsilon:
            raise ValueError(f"{self} has no e")
        return self.element(0, 1)

    # -- enumeration -------------------------------------------------------

    @property
    def cardinality(self) -> int:
        return self.modulus * self.modulus if self.has_epsilon else self.modulus

    def from_index(self, i: int) -> "RingElem":
        """Inverse of RingElem.index: 0 <= i < cardinality."""
        if not 0 <= i < self.cardinality:
            raise ValueError(f"index {i} out of range for {self}")
        return self.element(i % self.modulus, i // self.modulus)

    def elements(self) -> Iterator["RingElem"]:
        """All ring elements in index order (deterministic)."""
        for i in range(self.cardinality):
            yield self.from_index(i)

    # -- structure ---------------------------------------------------------

    def is_reduced(self) -> bool:
        """True iff the ring has no nonzero nilpotents.

        This needs has_epsilon to be false and the modulus squarefree.
        """
        return self.nilpotent_witness() is None

    def nilpotent_witness(self) -> Optional["RingElem"]:
        """A nonzero element squaring to zero, or None if the ring is reduced.

        Over Z/m[e] the witness is e.  Over Z/m it is the minimal positive
        x with x^2 = 0 mod m, namely the product of p^ceil(v/2) over the
        prime powers p^v dividing m; this is nonzero exactly when m is not
        squarefree (e.g. 2 for m=4, 4 for m=8, 6 for m=12).
        """
        if self.has_epsilon:
            return self.epsilon()
        # p^v gives p^ceil(v/2); a squarefree base gives itself
        x = prod(p ** ((v + 1) // 2) for p, v in self._prime_powers)
        if x == self.modulus:
            return None
        return self.element(x)

    def __str__(self) -> str:
        return f"Z/{self.modulus}[e]" if self.has_epsilon else f"Z/{self.modulus}"


class _Elements(dict):
    """A small ring's elements by index a + m*b, each built on first
    lookup; an index with an e-part is refused as RingElem refuses it."""

    def __init__(self, ring: RingSpec):
        super().__init__()
        self.ring = ring

    def __missing__(self, i: int) -> "RingElem":
        m = self.ring.modulus
        x = self[i] = RingElem(self.ring, i % m, i // m)
        return x


@dataclass(frozen=True, slots=True)
class RingElem:
    """An element a + b*e of a RingSpec, stored with 0 <= a, b < modulus."""

    ring: RingSpec
    a: int
    b: int = 0

    def __post_init__(self) -> None:
        m = self.ring.modulus
        object.__setattr__(self, "a", self.a % m)
        object.__setattr__(self, "b", self.b % m)
        if self.b and not self.ring.has_epsilon:
            raise ValueError(f"{self.ring} has no e-part")

    def _check(self, other: "RingElem") -> None:
        if self.ring is not other.ring and self.ring != other.ring:
            raise RingMismatchError(f"{self.ring} vs {other.ring}")

    def __add__(self, other: "RingElem") -> "RingElem":
        self._check(other)
        return self.ring.element(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "RingElem") -> "RingElem":
        self._check(other)
        return self.ring.element(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "RingElem":
        return self.ring.element(-self.a, -self.b)

    def __mul__(self, other: "RingElem") -> "RingElem":
        # (a + b e)(c + d e) = ac + (ad + bc) e   since e^2 = 0
        self._check(other)
        return self.ring.element(self.a * other.a,
                                 self.a * other.b + self.b * other.a)

    def __bool__(self) -> bool:
        return bool(self.a or self.b)

    def is_unit(self) -> bool:
        """a + b*e is invertible iff a is invertible mod m; b plays no role."""
        return gcd(self.a, self.ring.modulus) == 1

    def inverse(self) -> "RingElem":
        """Multiplicative inverse: (a + b*e)^-1 = a^-1 - b*a^-2 * e."""
        if not self.is_unit():
            raise ValueError(f"{self} is not a unit in {self.ring}")
        inv = pow(self.a, -1, self.ring.modulus)
        return self.ring.element(inv, -self.b * inv * inv)

    @property
    def index(self) -> int:
        """Canonical position in the ring's element order: a + m*b."""
        return self.a + self.ring.modulus * self.b

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        e_part = "e" if self.b == 1 else f"{self.b}*e"
        if self.a == 0:
            return e_part
        return f"{self.a}+{e_part}"
