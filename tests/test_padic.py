import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import iwatower.padic
from iwatower import (
    ExtensionDescriptor,
    FiniteGroupRingModule,
    GrowthModel,
    HypothesisViolated,
    InvariantReport,
    IwatowerError,
    KGroupRecord,
    LocalPrimeDatum,
    ModulePresentation,
    OddPrimeRequired,
    PrecisionContext,
    Prime,
    ResidueCharacteristicP,
    SeriesElement,
    TowerDatum,
    ZeroInput,
    change_of_s_order,
    coinvariants,
    cyclic_group,
    fit_growth,
    h1_local_order,
    h1_local_order_tower,
    heisenberg,
    mod_p_h2_dimension,
    mu_of_mod_pn,
    omega,
    ord_p,
    predict_growth,
    snf,
    torsion_size_resultant_oracle,
    tower,
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
        assert valuation_tower(b, prime, n) == direct


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


P3 = Prime(3)
CTX = PrecisionContext(P3, 6, 1, 16)
LINEAR = ModulePresentation(CTX, 1, ((SeriesElement.univariate(CTX, [-3, 1]),),))
D1 = InvariantReport(3, 1, "exact", mu=1, lam=1)
TOWER = [TowerDatum(n, 3**n + n, 0, 0) for n in range(5)]


def predict(report=D1, kind="Zp", d=1, i=2, levels=range(3)):
    return predict_growth(report, ExtensionDescriptor(kind, d), P3, i, levels).rows


@pytest.mark.parametrize(
    "call, good, bad, match",
    [
        pytest.param(lambda x: Prime(x), 3, 2.5, "2.5 is not an integer", id="Prime-p"),
        pytest.param(lambda x: ord_p(x, P3), 9, 4.5, "4.5 is not an integer", id="ord_p-x"),
        pytest.param(lambda x: valuation_tower(x, P3, 2), 4, 4.5, "b must be an integer", id="valuation_tower-b"),
        pytest.param(lambda x: valuation_tower(4, P3, x), 2, 2.5, "n must be an integer", id="valuation_tower-n"),
        pytest.param(lambda x: h1_local_order(x, 2, P3), 4, 2.5, "2.5 is not an integer", id="h1_local_order-q"),
        pytest.param(lambda x: h1_local_order(4, x, P3), 3, 2.5, "twist i must be an integer", id="h1_local_order-i"),
        pytest.param(lambda x: h1_local_order_tower(4, 2, P3, x), 2, 2.5, "n must be an integer", id="h1_tower-n"),
        pytest.param(lambda x: PrecisionContext(P3, x, 1, 10), 4, 4.5, "N must be an integer", id="context-N"),
        pytest.param(lambda x: PrecisionContext(P3, 6, x, 10), 1, 1.5, "d must be an integer", id="context-d"),
        pytest.param(lambda x: PrecisionContext(P3, 6, 1, x), 10, 9.5, "D must be an integer", id="context-D"),
        pytest.param(lambda x: omega(CTX, x), 1, 1.5, "n must be an integer", id="omega-n"),
        pytest.param(lambda x: ModulePresentation(CTX, x, ()), 2, 1.5, "generators must be an integer", id="presentation-k"),
        pytest.param(lambda x: coinvariants(LINEAR, x), 1, 1.5, "n must be an integer", id="coinvariants-n"),
        pytest.param(
            lambda x: coinvariants(LINEAR, 1, x), 9, 9.5, "dimension_bound must be an integer", id="coinvariants-bound"
        ),
        pytest.param(lambda x: tower(LINEAR, x), 2, 2.5, "n_max must be an integer", id="tower-n_max"),
        pytest.param(lambda x: cyclic_group(x), 3, 3.5, "k must be an integer", id="cyclic_group-k"),
        pytest.param(
            lambda x: FiniteGroupRingModule(cyclic_group(3), P3, x).shape_of(), 2, 2.5, "N must be an integer",
            id="group-ring-N",
        ),
        pytest.param(
            lambda x: FiniteGroupRingModule(cyclic_group(3), P3, 2, x).shape_of(), 2, 1.5,
            "generators must be an integer", id="group-ring-k",
        ),
        pytest.param(lambda x: mu_of_mod_pn([x], 1, 3), 2, 1.5, "exponent must be an integer", id="mu_of_mod_pn-alpha"),
        pytest.param(lambda x: mu_of_mod_pn([2], x, 3), 1, 1.5, "rank r must be an integer", id="mu_of_mod_pn-r"),
        pytest.param(lambda x: mu_of_mod_pn([2], 1, x), 3, 1.5, "n must be an integer", id="mu_of_mod_pn-n"),
        pytest.param(lambda x: GrowthModel("Iwasawa_d1", x, 1), 3, 3.5, "3.5 is not an integer", id="GrowthModel-p"),
        pytest.param(lambda x: GrowthModel("LiangLim", 3, x), 2, 1.5, "1.5 is not an integer", id="GrowthModel-d"),
        pytest.param(
            lambda x: fit_growth(TOWER, GrowthModel("Iwasawa_d1", 3, 1), n0=x), 1, 1.5, "1.5 is not an integer",
            id="fit_growth-n0",
        ),
        pytest.param(lambda x: KGroupRecord("F", x, (3,)), 2, 2.5, "twist i must be an integer", id="KGroupRecord-i"),
        pytest.param(lambda x: KGroupRecord("F", 2, (x, 9)), 2, 2.5, "2.5 is not an integer", id="KGroupRecord-order"),
        pytest.param(lambda x: LocalPrimeDatum("v", x), 4, 4.5, "4.5 is not an integer", id="LocalPrimeDatum-q"),
        pytest.param(
            lambda x: predict(InvariantReport(3, 2, "exact", mu=1, l0=1), "Zpd", x), 2, 2.5, "2.5 is not an integer",
            id="ExtensionDescriptor-d",
        ),
        pytest.param(lambda x: predict(i=x), 2, 2.5, "twist i must be an integer", id="predict_growth-i"),
        pytest.param(lambda x: predict(levels=[0, x]), 2, 1.5, "levels must be an integer", id="predict_growth-n"),
        pytest.param(lambda x: change_of_s_order(x, (), 2, P3), 2, 1.5, "log_h2_sp must be an integer", id="change_of_s"),
        pytest.param(lambda x: mod_p_h2_dimension(x, 1), 2, 1.5, "cl_sp_p_rank must be an integer", id="mod_p_h2-rank"),
        pytest.param(lambda x: mod_p_h2_dimension(1, x), 2, 1.5, "s_p_count must be an integer", id="mod_p_h2-count"),
        pytest.param(lambda x: SeriesElement.univariate(CTX, [1, 1], x), 0, 0.5, "0.5 is not an integer", id="univariate-j"),
        pytest.param(lambda x: snf([[3, 1], [0, 9]], P3, x), 2, 2.5, "N must be an integer", id="snf-N"),
        pytest.param(
            lambda x: torsion_size_resultant_oracle(LINEAR.relations[0][0], x), 1, 1.5, "n must be an integer",
            id="resultant_oracle-n",
        ),
        pytest.param(lambda x: heisenberg(x).name, 3, 2.5, "p must be an integer", id="heisenberg-p"),
        *[
            pytest.param(
                lambda x, name=name: InvariantReport(**{"p": 3, "d": 1, "method": "exact", name: x}), good, 2.5,
                "2.5 is not an integer", id=f"InvariantReport-{name}",
            )
            for name, good in [("p", 3), ("d", 1), ("mu", 1), ("lam", 2), ("l0", 1), ("rank", 1), ("rank_over_h", 1), ("mu_h", 0)]
        ],
        *[
            pytest.param(
                lambda x, name=name: TowerDatum(**{"n": 1, "log_torsion": 4, "zp_rank": 0, "log_mod_pn": 1, name: x}), 2,
                9.5, "9.5 is not an integer", id=f"TowerDatum-{name}",
            )
            for name in ("n", "log_torsion", "zp_rank", "log_mod_pn")
        ],
    ],
)
def test_integer_parameters(call, good, bad, match):
    """Each public integer parameter reads a value equal to an integer
    as that int, so the result, repr included, is the int's; any other
    value is a ValueError naming the parameter (or, for a parameter
    with no bound, the value)."""
    want = repr(call(good))
    assert repr(call(float(good))) == repr(call(np.int64(good))) == want
    with pytest.raises(ValueError, match=match):
        call(bad)
