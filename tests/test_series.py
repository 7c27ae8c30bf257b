import random
from fractions import Fraction
from math import comb

import numpy as np
import pytest

import iwatower.series
from iwatower import (
    ContextMismatch,
    DegreeOverflow,
    IwatowerError,
    NotSquare,
    PrecisionExhausted,
    Prime,
    PrecisionContext,
    SeriesElement,
    char_poly,
    omega,
    weierstrass_divide,
    weierstrass_prepare,
)

from conftest import poly, reference_char_poly, reference_weierstrass_divide

C1 = PrecisionContext(Prime(3), 6, 1, 16)
C2 = PrecisionContext(Prime(3), 6, 2, 16)


class TestContext:
    def test_validation(self, p3):
        with pytest.raises(ValueError):
            PrecisionContext(p3, 1)  # N >= 2
        with pytest.raises(ValueError):
            PrecisionContext(p3, 4, 0)
        with pytest.raises(Exception):
            PrecisionContext(Prime(2), 4)  # odd p required

    def test_modulus(self, ctx3):
        assert ctx3.modulus == 3**12


class TestSeriesElement:
    def test_normalization_drops_zero_coeffs(self, ctx3):
        f = SeriesElement(ctx3, {(0,): 3**12, (1,): 5})
        assert f.coefficients == {(1,): 5}

    def test_degree_bound_enforced(self, ctx3):
        with pytest.raises(DegreeOverflow):
            SeriesElement(ctx3, {(31,): 1})

    def test_additive_identity(self, ctx3):
        t = SeriesElement.variable(ctx3)
        assert t + SeriesElement.zero(ctx3) == t

    def test_binomial_square(self, p3):
        ctx = PrecisionContext(p3, 2, 1, 8)
        one_plus_t = poly(ctx, [1, 1])
        assert (one_plus_t * one_plus_t) == poly(ctx, [1, 2, 1])

    def test_precision_annihilation(self, ctx3):
        f = poly(ctx3, [0, 3**11])
        g = poly(ctx3, [0, 3])
        assert (f * g).is_zero()

    def test_context_mismatch(self, ctx3, p3):
        other = PrecisionContext(p3, 4, 1, 30)
        with pytest.raises(ContextMismatch):
            SeriesElement.variable(ctx3) + SeriesElement.variable(other)

    def test_mul_truncates_at_degree_bound(self, p3):
        ctx = PrecisionContext(p3, 4, 1, 3)
        f = poly(ctx, [0, 0, 1])  # T^2
        assert (f * f).is_zero()  # T^4 truncated away

    def test_mul_d2_matches_double_loop(self):
        # each variable truncated at D on its own: T1^a T2^b survives
        # when a <= D and b <= D, whatever a + b is
        rng = random.Random(23)
        dropped = kept = 0
        for _ in range(200):
            p = rng.choice([3, 5])
            ctx = PrecisionContext(Prime(p), rng.choice([2, 6, 30]), 2, rng.randrange(1, 7))

            def element():
                return SeriesElement(ctx, {
                    tuple(rng.randrange(ctx.D + 1) for _ in range(2)): rng.choice([1, p, rng.randrange(ctx.modulus)])
                    for _ in range(rng.randrange(0, 6))
                })

            f, g = element(), element()
            want = {}
            for (a1, a2), x in f.coefficients.items():
                for (b1, b2), y in g.coefficients.items():
                    if a1 + b1 <= ctx.D and a2 + b2 <= ctx.D:
                        want[a1 + b1, a2 + b2] = want.get((a1 + b1, a2 + b2), 0) + x * y
            assert f * g == SeriesElement(ctx, want)
            products = [(a1 + b1, a2 + b2) for a1, a2 in f.coefficients for b1, b2 in g.coefficients]
            dropped += any(min(e) <= ctx.D < max(e) for e in products)
            kept += any(sum(e) > ctx.D >= max(e) for e in products)
        assert dropped >= 50 and kept >= 50, (dropped, kept)

    def test_immutable(self, ctx3):
        t = SeriesElement.variable(ctx3)
        with pytest.raises(AttributeError):
            t.coefficients = {}

    @pytest.mark.parametrize("c", [np.int64(3**20 + 1), float(3**20 + 1), Fraction(3**20 + 1)], ids=["int64", "float", "fraction"])
    def test_coefficient_equal_to_an_int_counts_as_that_int(self, p3, c):
        # an int64 square of 3^20 + 1 wraps above 2^63; the Python-int one does not
        ctx = PrecisionContext(p3, 30, 1, 4)
        f = SeriesElement(ctx, {(0,): c})
        assert type(f.coefficients[(0,)]) is int
        assert (f * f).coefficients == {(0,): 6973568803}

    @pytest.mark.parametrize("c", [2.5, Fraction(1, 2), "3"], ids=["2.5", "1/2", "str-3"])
    def test_non_integer_coefficient_rejected(self, ctx3, c):
        with pytest.raises(ValueError, match="is not an integer"):
            SeriesElement(ctx3, {(0,): c, (1,): 1})


class TestRepr:
    # texts written by the repr's own renderer, before it called format_polynomial
    @pytest.mark.parametrize(
        "element, text",
        [
            (SeriesElement(C2, {(0, 0): 7, (1, 2): 5, (3, 0): 1}), "SeriesElement(7 + 5*T1*T2^2 + 1*T1^3)"),
            (SeriesElement.zero(C2), "SeriesElement(0)"),
            (SeriesElement.zero(C1), "SeriesElement(0)"),
            (SeriesElement(C1, {(0,): -1, (1,): 1, (4,): 27}), "SeriesElement(728 + 1*T1 + 27*T1^4)"),
            (SeriesElement.variable(C1), "SeriesElement(1*T1)"),
            (SeriesElement.constant(C1, 3), "SeriesElement(3)"),
            (
                SeriesElement(
                    PrecisionContext(Prime(7), 2, 3, 4),
                    {(0, 1, 0): 2, (2, 0, 3): 48, (0, 0, 1): 1, (1, 1, 1): 1},
                ),
                "SeriesElement(1*T3 + 2*T2 + 1*T1*T2*T3 + 48*T1^2*T3^3)",
            ),
        ],
    )
    def test_pinned(self, element, text):
        assert repr(element) == text


class TestInputChecks:
    @pytest.mark.parametrize(
        "call, error, match",
        [
            pytest.param(lambda: SeriesElement(C1, {(0, 0): 1}), ValueError, "wrong arity", id="arity"),
            pytest.param(lambda: SeriesElement(C1, {(-1,): 1}), ValueError, "negative exponent", id="negative-exponent"),
            pytest.param(lambda: SeriesElement.variable(C1, 1), ValueError, "out of range", id="variable-index"),
            pytest.param(lambda: SeriesElement.variable(C2).univariate_coeffs(), ValueError, "d = 1", id="univariate-coeffs-d2"),
            pytest.param(lambda: omega(C1, -1), ValueError, "n must be >= 0", id="omega-negative-level"),
            pytest.param(lambda: weierstrass_divide(poly(C1, [0, 1]), poly(C1, [1, 3])), ValueError, "monic", id="non-monic-divisor"),
            pytest.param(lambda: weierstrass_divide(poly(C1, [0, 1]), SeriesElement.zero(C1)), ValueError, "monic", id="zero-divisor"),
            pytest.param(lambda: weierstrass_divide(*[SeriesElement.variable(C2)] * 2), ValueError, "d = 1", id="divide-d2"),
            pytest.param(lambda: weierstrass_prepare(SeriesElement.variable(C2)), ValueError, "d = 1", id="prepare-d2"),
            pytest.param(
                lambda: char_poly([[SeriesElement.constant(C1, 1)] * 9] * 9), PrecisionExhausted, "vanishes", id="char-poly-9x9"
            ),
        ],
    )
    def test_raises(self, call, error, match):
        with pytest.raises(error, match=match):
            call()

    @pytest.mark.parametrize("j", [-1, 2])
    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda j: SeriesElement.univariate(C2, [1, 1], j), id="univariate"),
            pytest.param(lambda j: SeriesElement.variable(C2, j), id="variable"),
            pytest.param(lambda j: omega(C2, 1, j), id="omega"),
        ],
    )
    def test_variable_index_range(self, build, j):
        """0 <= j < d wherever a variable is named: at d = 2, j = -1 is
        not read as T2 (Python's last list slot)."""
        with pytest.raises(ValueError, match=f"variable index {j} out of range for d=2"):
            build(j)


class TestOmega:
    def test_level_zero_is_t(self, ctx3):
        assert omega(ctx3, 0) == SeriesElement.variable(ctx3)

    def test_level_one_expansion(self, ctx3):
        assert omega(ctx3, 1) == poly(ctx3, [0, 3, 3, 1])

    def test_degree(self, ctx3):
        for n in (0, 1, 2, 3):
            assert omega(ctx3, n).degree(0) == 3**n

    def test_overflow(self, ctx3):
        with pytest.raises(DegreeOverflow):
            omega(ctx3, 4)  # 81 > D = 30

    def test_composition_identity(self, p3):
        # omega(n+1) = (1 + omega(n))^p - 1
        ctx = PrecisionContext(p3, 6, 1, 100)
        one = SeriesElement.constant(ctx, 1)
        for n in (0, 1, 2, 3):
            w = omega(ctx, n)
            base = one + w
            composed = base * base * base - one
            assert composed == omega(ctx, n + 1)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_int_coeffs_are_binomials(self, p):
        n = 0
        while p**n <= 625:
            q = p**n
            assert iwatower.series.omega_int_coeffs(p, n) == [0] + [comb(q, e) for e in range(1, q + 1)]
            n += 1

    def test_int_coeffs_at_level_eight(self):
        # (1 + T)^q - 1 at q = 3^8: C(q, e) = C(q, q - e), and the
        # coefficients sum to 2^q - 1
        q = 3**8
        coeffs = iwatower.series.omega_int_coeffs(3, 8)
        assert len(coeffs) == q + 1
        assert coeffs[1:q] == coeffs[q - 1:0:-1]
        assert (coeffs[0], coeffs[q]) == (0, 1)
        assert sum(coeffs) == 2**q - 1


class TestWeierstrassPrepare:
    def test_already_distinguished(self, p3):
        ctx = PrecisionContext(p3, 6, 1, 16)
        f = poly(ctx, [3, 3, 1])  # T^2 + pT + p
        wf = weierstrass_prepare(f)
        assert (wf.mu, wf.lam) == (0, 2)
        assert wf.distinguished.univariate_coeffs() == [3, 3, 1]
        assert wf.unit == SeriesElement.constant(wf.unit.context, 1)

    def test_scalar_factor(self, p3):
        ctx = PrecisionContext(p3, 6, 1, 16)
        f = poly(ctx, [9 * 3, 9])  # p^2 * (T + p)
        wf = weierstrass_prepare(f)
        assert (wf.mu, wf.lam) == (2, 1)

    def test_expanded_product_p5(self):
        ctx = PrecisionContext(Prime(5), 6, 1, 16)
        # (T - p)(T^2 + p) = T^3 - pT^2 + pT - p^2
        f = poly(ctx, [-25, 5, -5, 1])
        wf = weierstrass_prepare(f)
        assert (wf.mu, wf.lam) == (0, 3)
        coeffs = wf.distinguished.univariate_coeffs()
        m = wf.distinguished.context.modulus
        assert coeffs[-1] == 1
        assert all(c % 5 == 0 for c in coeffs[:-1])
        assert wf.distinguished == SeriesElement.univariate(wf.distinguished.context, [-25, 5, -5, 1])

    @pytest.mark.parametrize("mu", [0, 2])
    def test_unit_times_p_power(self, p3, mu):
        # lam = 0: the distinguished part is 1 and the unit is f / p^mu
        ctx = PrecisionContext(p3, 6, 1, 16)
        wf = weierstrass_prepare(poly(ctx, [4 * 3**mu, 3 * 3**mu, 3**mu]))
        work = wf.distinguished.context
        assert (wf.mu, wf.lam, wf.effective_precision) == (mu, 0, 6 - mu)
        assert wf.distinguished == SeriesElement.constant(work, 1)
        assert wf.unit == poly(work, [4, 3, 1])

    def test_zero_rejected(self, ctx3):
        with pytest.raises(PrecisionExhausted):
            weierstrass_prepare(SeriesElement.zero(ctx3))

    def test_pure_p_power_near_precision(self, p3):
        ctx = PrecisionContext(p3, 4, 1, 16)
        f = poly(ctx, [0, 27])  # content 3 = N - 1
        with pytest.raises(PrecisionExhausted):
            weierstrass_prepare(f)

    def test_hensel_failure_raises(self, p3, monkeypatch):
        # a lifting step that never corrects g leaves the error nonzero
        ctx = PrecisionContext(p3, 6, 1, 16)
        monkeypatch.setattr(
            iwatower.series, "weierstrass_divide", lambda w, g: (SeriesElement.zero(w.context),) * 2
        )
        with pytest.raises(IwatowerError, match="Hensel"):
            weierstrass_prepare(poly(ctx, [3, 1, 1]))

    def test_roundtrip_randomized(self, ctx3):
        rng = random.Random(11)
        p = 3
        for _ in range(25):
            mu = rng.randrange(0, 3)
            lam = rng.randrange(0, 5)
            gc = [p * rng.randrange(0, 27) for _ in range(lam)] + [1]
            uc = [1 + p * rng.randrange(0, 9)] + [
                rng.randrange(0, 81) for _ in range(4)
            ]
            f = (poly(ctx3, gc) * poly(ctx3, uc)).scale(p**mu)
            wf = weierstrass_prepare(f)
            assert wf.mu == mu
            assert wf.lam == lam
            work = wf.distinguished.context
            prod = wf.distinguished * wf.unit
            f_red = SeriesElement(
                work, {e: c // p**mu for e, c in f.coefficients.items()}
            )
            assert prod == f_red


class TestUnitInverse:
    def test_seeded_units(self):
        # the inverse mod (p^N, T^(D+1)) is unique, so u * x = 1 pins it
        rng = random.Random(5)
        for _ in range(300):
            p = rng.choice((3, 5, 7))
            ctx = PrecisionContext(Prime(p), rng.randrange(2, 13), 1, rng.randrange(1, 31))
            c0 = rng.randrange(1, p) + p * rng.randrange(0, ctx.modulus // p)
            rest = [rng.randrange(0, ctx.modulus) for _ in range(rng.randrange(0, ctx.D + 1))]
            u = poly(ctx, [c0] + rest)
            assert u * iwatower.series._unit_inverse(u) == SeriesElement.constant(ctx, 1)

    @pytest.mark.parametrize("coeffs", [[3, 1], [0, 1], [0]])
    def test_non_unit_constant_term(self, ctx3, coeffs):
        with pytest.raises(PrecisionExhausted, match="constant term is not a unit"):
            iwatower.series._unit_inverse(poly(ctx3, coeffs))


class TestWeierstrassDivide:
    def test_self_division(self, ctx3):
        g = poly(ctx3, [3, 3, 1])
        q, r = weierstrass_divide(g, g)
        assert q == SeriesElement.constant(ctx3, 1)
        assert r.is_zero()

    def test_t_by_t(self, ctx3):
        t = SeriesElement.variable(ctx3)
        q, r = weierstrass_divide(t, t)
        assert q == SeriesElement.constant(ctx3, 1)
        assert r.is_zero()

    def test_cubed_by_omega1(self, ctx3):
        f = poly(ctx3, [0, 0, 0, 1])  # T^3
        q, r = weierstrass_divide(f, omega(ctx3, 1))
        assert q == SeriesElement.constant(ctx3, 1)
        assert r == poly(ctx3, [0, -3, -3])
        assert r.degree(0) < 3

    def test_substitute_back(self, ctx3):
        rng = random.Random(5)
        for _ in range(20):
            fc = [rng.randrange(0, ctx3.modulus) for _ in range(8)]
            gc = [3 * rng.randrange(0, 27) for _ in range(3)] + [1]
            f, g = poly(ctx3, fc), poly(ctx3, gc)
            q, r = weierstrass_divide(f, g)
            assert q * g + r == f
            assert r.degree(0) < g.degree(0)

    def test_matches_long_division(self):
        # the division of the integer lifts, reduced after, against long
        # division reducing mod p^N at each step; p^N passes int64 at N = 40
        rng = random.Random(31)
        seen = dict.fromkeys(["one", "below", "equal", "above"], 0)
        for _ in range(300):
            p, case = rng.choice([3, 5]), rng.choice(list(seen))
            ctx = PrecisionContext(Prime(p), rng.choice([2, 5, 12, 25, 40]), 1, rng.randrange(2, 31))
            dg = 0 if case == "one" else rng.randrange(1, ctx.D)
            df = {"below": rng.randrange(-1, dg), "equal": dg}.get(case, rng.randrange(dg + 1, ctx.D + 1))
            g = poly(ctx, [rng.choice([0, p * rng.randrange(ctx.modulus), rng.randrange(ctx.modulus)]) for _ in range(dg)] + [1])
            f = poly(ctx, [rng.randrange(ctx.modulus) for _ in range(df)] + [rng.randrange(1, ctx.modulus)] * (df >= 0))
            assert weierstrass_divide(f, g) == reference_weierstrass_divide(f, g)
            seen[case] += 1
        assert min(seen.values()) >= 20, seen

    @pytest.mark.parametrize(
        "f, g, error, match",
        [
            pytest.param(poly(C1, [0, 1]), poly(C1, [1, 3]), ValueError, "divisor must be monic", id="non-monic"),
            pytest.param(poly(C1, [0, 1]), SeriesElement.zero(C1), ValueError, "divisor must be monic", id="zero"),
            pytest.param(SeriesElement.variable(C2), SeriesElement.variable(C2), ValueError, "requires d = 1", id="d2"),
            pytest.param(poly(C1, [0, 1]), SeriesElement.variable(C1.with_precision(7)), ContextMismatch, "N=6.* vs .*N=7", id="context"),
        ],
    )
    def test_rejections_match_long_division(self, f, g, error, match):
        messages = []
        for divide in (weierstrass_divide, reference_weierstrass_divide):
            with pytest.raises(error, match=match) as info:
                divide(f, g)
            messages.append(str(info.value))
        assert messages[0] == messages[1]


class TestCharPoly:
    def test_diagonal(self, ctx3):
        a = poly(ctx3, [9])  # p^2
        b = poly(ctx3, [-3, 1])  # T - p
        z = SeriesElement.zero(ctx3)
        det = char_poly([[a, z], [z, b]])
        assert det == a * b

    def test_two_by_two(self, ctx3):
        t = SeriesElement.variable(ctx3)
        p = SeriesElement.constant(ctx3, 3)
        det = char_poly([[t, p], [p, t]])
        assert det == poly(ctx3, [-9, 0, 1])

    def test_identity(self, ctx3):
        one = SeriesElement.constant(ctx3, 1)
        z = SeriesElement.zero(ctx3)
        assert char_poly([[one, z], [z, one]]) == one

    def test_zero_determinant(self, ctx3):
        t = SeriesElement.variable(ctx3)
        with pytest.raises(PrecisionExhausted):
            char_poly([[t, t], [t, t]])

    def test_not_square(self, ctx3):
        t = SeriesElement.variable(ctx3)
        with pytest.raises(NotSquare):
            char_poly([[t, t]])

    def test_multiplicative(self, p3):
        ctx = PrecisionContext(p3, 6, 1, 60)
        rng = random.Random(3)

        def rand_matrix(k):
            return [
                [
                    poly(ctx, [rng.randrange(0, ctx.modulus) for _ in range(3)])
                    for _ in range(k)
                ]
                for _ in range(k)
            ]

        def matmul(A, B):
            k = len(A)
            return [
                [
                    sum(
                        (A[i][l] * B[l][j] for l in range(k)),
                        SeriesElement.zero(ctx),
                    )
                    for j in range(k)
                ]
                for i in range(k)
            ]

        for _ in range(5):
            A, B = rand_matrix(3), rand_matrix(3)
            try:
                lhs = char_poly(matmul(A, B))
                rhs = char_poly(A) * char_poly(B)
            except PrecisionExhausted:
                continue
            assert lhs == rhs

    def test_matches_cofactor_oracle(self):
        # elimination on the integer lift against the cofactor expansion,
        # in value or in exception class and message; zero entries, at the
        # corner too, send pivots off the diagonal
        rng = random.Random(109)
        seen = dict.fromkeys(["value", "zero_corner", "zero_entry", "vanishes", "degree"], 0)
        for case in range(400):
            p, d, k = rng.choice([3, 5]), rng.choice([1, 2]), rng.randrange(1, 7)
            ctx = PrecisionContext(Prime(p), rng.choice([3, 6, 8]), d, rng.choice([1, 2, 3, 6, 16]))
            top = min(ctx.D, rng.choice([0, 1, 1, 2]))

            def entry():
                if rng.random() < 0.3:
                    return SeriesElement.zero(ctx)
                coeffs = {(0,) * d: rng.choice([0, 1, p, rng.randrange(ctx.modulus), p * rng.randrange(ctx.modulus)])}
                for _ in range(rng.randrange(0, 3)):
                    coeffs[tuple(rng.randrange(top + 1) for _ in range(d))] = rng.randrange(ctx.modulus)
                return SeriesElement(ctx, coeffs)

            A = [[entry() for _ in range(k)] for _ in range(k)]
            results = []
            for det in (char_poly, reference_char_poly):
                try:
                    results.append(det(A))
                except IwatowerError as exc:
                    results.append((type(exc), str(exc)))
            got, want = results
            assert got == want, (case, A)
            if isinstance(want, SeriesElement):
                seen["value"] += 1
                seen["zero_corner"] += A[0][0].is_zero()
                seen["zero_entry"] += k > 1 and any(x.is_zero() for row in A for x in row)
            else:
                seen["vanishes" if want[0] is PrecisionExhausted else "degree"] += 1
        assert min(seen.values()) >= 20, seen

    @pytest.mark.parametrize("k", [9, 10, 11, 12])
    def test_triangular_beyond_eight(self, k):
        # no size cap: an upper triangular matrix has the product of its
        # diagonal as determinant, and with its rows reversed that times
        # (-1)^(k(k-1)/2), where each pivot is the last entry of the first row
        rng = random.Random(k)
        ctx = PrecisionContext(Prime(3), 8, 1, 2 * k)

        def entry(unit):
            return poly(ctx, [3 * rng.randrange(9), 1 if unit else rng.randrange(9), rng.randrange(9)])

        z = SeriesElement.zero(ctx)
        A = [[entry(True) if g == i else entry(False) if g > i and rng.random() < 0.6 else z for g in range(k)] for i in range(k)]
        product = SeriesElement.constant(ctx, 1)
        for i in range(k):
            product = product * A[i][i]
        assert char_poly(A) == product
        assert char_poly(A[::-1]) == product.scale((-1) ** (k * (k - 1) // 2))
