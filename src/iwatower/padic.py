"""Exact p-adic valuation arithmetic on integers.

Everything here is big-integer exact; no floating point.  The tower
formulas follow the standard lifting-the-exponent behaviour of
ord_p(b^{p^n} - 1) for odd p, and the finite-field H^1 orders are the
valuations ord_p(q^{i-1} - 1) attached to residue fields away from p.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

from .errors import (
    HypothesisViolated,
    IwatowerError,
    OddPrimeRequired,
    ResidueCharacteristicP,
    ZeroInput,
)

#: Largest n for which valuation_tower verifies the closed form by exact
#: exponentiation.  Beyond this the closed form is still returned (the
#: lemma holds for all n); the bound only keeps verification fast.
CHECKED_TOWER_BOUND = 6


def prime_base(x: int):
    """The prime that x is a power of, or None (x < 2 too): the least
    factor d of x, by trial division, if x divides d^(bit length of x)."""
    if x < 2:
        return None
    d = next((d for d in range(2, isqrt(x) + 1) if x % d == 0), x)
    return d if d ** x.bit_length() % x == 0 else None


def as_int(x) -> int:
    """x as a Python int when x equals one (3.0, a numpy integer), else
    a ValueError (2.5, "3"), or int()'s own error when it takes no x."""
    if (n := int(x)) != x:
        raise ValueError(f"{x!r} is not an integer")
    return n


def at_least(x, least: int, name: str, error=ValueError) -> int:
    """The parameter `name` read by the as_int rule: a ValueError naming
    it when x is not an integer, and `error` when x is below `least`."""
    if (n := int(x)) != x:
        raise ValueError(f"{name} must be an integer, got {x!r}")
    if n < least:
        raise error(f"{name} must be >= {least}, got {n}")
    return n


@dataclass(frozen=True)
class Prime:
    """A checked prime.  p = 2 is accepted here; lemma-backed operations
    reject it individually."""

    p: int

    def __post_init__(self):
        object.__setattr__(self, "p", as_int(self.p))
        if prime_base(self.p) != self.p:
            raise ValueError(f"not a prime: {self.p}")

    @property
    def odd(self) -> bool:
        return self.p != 2

    def require_odd(self):
        if not self.odd:
            raise OddPrimeRequired("this operation requires an odd prime")


def ord_p(x: int, p: Prime) -> int:
    """Largest e with p^e | x, for nonzero x.  Sign-invariant."""
    if (x := as_int(x)) == 0:
        raise ZeroInput("ord_p(0) is +infinity; branch before calling")
    x = abs(x)
    e = 0
    q = p.p
    while x % q == 0:
        x //= q
        e += 1
    return e


def valuation_tower(b: int, p: Prime, n: int) -> int:
    """ord_p(b^{p^n} - 1) for b = 1 mod p, via the closed form a + n
    with a = ord_p(b - 1).

    Requires odd p and a >= 1.  The value is verified against exact
    exponentiation for n <= CHECKED_TOWER_BOUND.
    """
    p.require_odd()
    b = at_least(b, 2, "b", HypothesisViolated)
    n = at_least(n, 0, "n", HypothesisViolated)
    a = ord_p(b - 1, p)
    if a == 0:
        raise HypothesisViolated(f"ord_{p.p}({b}-1) = 0; b must be 1 mod {p.p}")
    value = a + n
    if n <= CHECKED_TOWER_BOUND:
        direct = ord_p(pow(b, p.p ** n) - 1, p)
        if direct != value:
            raise IwatowerError(f"tower lemma violated: {direct} != {value}")
    return value


def h1_local_order(q: int, i: int, p: Prime) -> int:
    """log_p of the order of the local H^1 term for a residue field of
    cardinality q and twist i: ord_p(q^{i-1} - 1)."""
    i = at_least(i, 2, "twist i")
    q = as_int(q)
    if prime_base(q) is None:
        raise HypothesisViolated(f"q must be a prime power >= 2, got {q}")
    if gcd(q, p.p) != 1:
        raise ResidueCharacteristicP(f"p = {p.p} divides residue cardinality q = {q}")
    return ord_p(pow(q, i - 1) - 1, p)


def h1_local_order_tower(q: int, i: int, p: Prime, n: int) -> int:
    """Same as h1_local_order but at level n of a residue tower,
    where |k_n| = q^{p^n}: returns ord_p(q^{(i-1)p^n} - 1).

    Requires odd p, checked by valuation_tower (a >= 1 when p = 2).  This
    is a + n once a = ord_p(q^{i-1} - 1) >= 1, and 0 for all n if a = 0:
    the order of q^{i-1} mod p is then prime to p, so p-power exponents
    create no p-divisibility.
    """
    a = h1_local_order(q, i, p)
    n = at_least(n, 0, "n", HypothesisViolated)
    if a == 0:
        return 0
    return valuation_tower(pow(as_int(q), as_int(i) - 1), p, n)
