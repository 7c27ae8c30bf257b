import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import iwatower.padic
from iwatower import (
    HypothesisViolated,
    IwatowerError,
    OddPrimeRequired,
    Prime,
    ResidueCharacteristicP,
    ZeroInput,
    h1_local_order,
    h1_local_order_tower,
    ord_p,
    valuation_tower,
)
from iwatower.padic import prime_base


class TestPrime:
    def test_accepts_primes(self):
        for p in (2, 3, 5, 97):
            assert Prime(p).p == p

    def test_rejects_composites(self):
        for x in (-3, -1, 0, 1, 4, 9, 91):
            with pytest.raises(ValueError):
                Prime(x)

    def test_accepts_mersenne_prime_2_31(self):
        # the largest trial divisor is isqrt(2^31 - 1) = 46,340
        assert Prime(2**31 - 1).p == 2**31 - 1

    def test_two_is_not_odd(self):
        with pytest.raises(OddPrimeRequired):
            Prime(2).require_odd()


class TestPrimeBase:
    def test_matches_sympy(self):
        # sympy is the oracle: x is a power of p iff factorint(x) == {p: k}
        for x in [*range(-50, 3001), 2**31 - 1, 3**19, 65537**2, 2**31 * 3]:
            factors = sympy.factorint(x) if x >= 2 else {}
            want = next(iter(factors)) if len(factors) == 1 else None
            assert prime_base(x) == want, x
            assert (prime_base(x) == x) == sympy.isprime(x), x


class TestOrdP:
    def test_known_values(self):
        assert ord_p(63, Prime(3)) == 2
        assert ord_p(1, Prime(5)) == 0
        assert ord_p(-250, Prime(5)) == 3

    def test_zero_rejected(self):
        with pytest.raises(ZeroInput):
            ord_p(0, Prime(3))

    @given(
        x=st.integers(min_value=1, max_value=10**9),
        y=st.integers(min_value=1, max_value=10**9),
        p=st.sampled_from([3, 5, 7]),
    )
    def test_multiplicative(self, x, y, p):
        prime = Prime(p)
        assert ord_p(x * y, prime) == ord_p(x, prime) + ord_p(y, prime)

    @given(
        x=st.integers(min_value=1, max_value=10**6),
        y=st.integers(min_value=1, max_value=10**6),
        p=st.sampled_from([3, 5, 7]),
    )
    def test_ultrametric(self, x, y, p):
        prime = Prime(p)
        vx, vy = ord_p(x, prime), ord_p(y, prime)
        assert ord_p(x + y, prime) >= min(vx, vy)
        if vx != vy:
            assert ord_p(x + y, prime) == min(vx, vy)


class TestValuationTower:
    def test_known_values(self):
        assert valuation_tower(4, Prime(3), 1) == 2
        assert valuation_tower(4, Prime(3), 0) == 1
        assert valuation_tower(6, Prime(5), 3) == 4

    def test_hypothesis_failure(self):
        with pytest.raises(HypothesisViolated):
            valuation_tower(5, Prime(3), 1)  # 5 - 1 = 4 not divisible by 3

    def test_p2_rejected(self):
        with pytest.raises(OddPrimeRequired):
            valuation_tower(3, Prime(2), 1)

    def test_lemma_violation_raises(self, monkeypatch):
        # b^(p^n) replaced by b: the checked value disagrees with a + n
        monkeypatch.setattr(iwatower.padic, "pow", lambda b, e: b, raising=False)
        with pytest.raises(IwatowerError, match="tower lemma violated"):
            valuation_tower(4, Prime(3), 2)

    @given(
        p=st.sampled_from([3, 5, 7]),
        k=st.integers(min_value=1, max_value=50),
        n=st.integers(min_value=0, max_value=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_closed_form_matches_bigint(self, p, k, n):
        prime = Prime(p)
        b = 1 + k * p
        direct = ord_p(pow(b, p**n) - 1, prime)
        assert valuation_tower(b, prime, n, checked=False) == direct


class TestH1LocalOrder:
    def test_known_values(self):
        assert h1_local_order(4, 2, Prime(3)) == 1
        assert h1_local_order(2, 4, Prime(7)) == 1
        assert h1_local_order(5, 2, Prime(3)) == 0

    @pytest.mark.parametrize("q, i, p", [(6, 2, 5), (12, 3, 7)])
    def test_q_not_a_prime_power_rejected(self, q, i, p):
        # no finite field has 6 or 12 elements
        for call in (lambda: h1_local_order(q, i, Prime(p)), lambda: h1_local_order_tower(q, i, Prime(p), 1)):
            with pytest.raises(HypothesisViolated, match=f"q must be a prime power >= 2, got {q}"):
                call()

    def test_prime_power_q_accepted(self):
        assert [h1_local_order(q, 2, Prime(3)) for q in (4, 8, 13)] == [1, 0, 1]

    def test_twist_below_2_rejected(self):
        with pytest.raises(ValueError, match="twist i must be >= 2, got 1"):
            h1_local_order(4, 1, Prime(3))

    def test_residue_characteristic_rejected(self):
        with pytest.raises(ResidueCharacteristicP):
            h1_local_order(9, 2, Prime(3))

    def test_tower_values(self):
        assert h1_local_order_tower(4, 2, Prime(3), 2) == 3
        assert h1_local_order_tower(5, 2, Prime(3), 5) == 0
        assert h1_local_order_tower(4, 2, Prime(3), 0) == 1

    def test_tower_rejects_two_at_every_level(self):
        for n in (0, 1, 2):
            with pytest.raises(OddPrimeRequired):
                h1_local_order_tower(5, 2, Prime(2), n)

    @given(
        q=st.sampled_from([2, 4, 5, 7, 8, 11, 13]),
        i=st.integers(min_value=2, max_value=6),
        p=st.sampled_from([3, 5, 7]),
        n=st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_tower_monotone_unit_steps(self, q, i, p, n):
        if q % p == 0:
            return
        prime = Prime(p)
        a = h1_local_order_tower(q, i, prime, n)
        b = h1_local_order_tower(q, i, prime, n + 1)
        assert b >= a
        if a > 0:
            assert b == a + 1


@pytest.mark.parametrize(
    "call, match",
    [
        pytest.param(lambda: valuation_tower(1, Prime(3), 1), "b must be >= 2", id="tower-b-1"),
        pytest.param(lambda: valuation_tower(4, Prime(3), -1), "n must be >= 0", id="tower-negative-level"),
        pytest.param(lambda: h1_local_order_tower(4, 2, Prime(3), -1), "n must be >= 0", id="h1-negative-level"),
    ],
)
def test_input_checks(call, match):
    with pytest.raises(HypothesisViolated, match=match):
        call()
