import random
import time

import pytest

from iwatower import (
    DegreeOverflow,
    GrowthModel,
    HypothesisViolated,
    InsufficientData,
    ModulePresentation,
    NonIntegralCoefficient,
    NotSquare,
    PrecisionContext,
    PrecisionExhausted,
    SeriesElement,
    TowerDatum,
    char_poly,
    cuoco_monsky_hypothesis_check,
    exact_invariants_d1,
    fit_growth,
    mu_of_mod_pn,
    mu_positivity_equiv,
    tower,
)
from iwatower.formats import format_report
from iwatower.invariants import _det_mod_p

from conftest import cyclic_module, poly, reference_fit_growth, split_module

FAMILIES = ("Iwasawa_d1", "CuocoMonsky", "LiangLim", "Perbet_modpn", "Semidirect_rank")


class TestExactInvariants:
    def test_scalar_times_linear(self, ctx3):
        M = cyclic_module(ctx3, [-27, 9])  # p^2 (T - p)
        rep = exact_invariants_d1(M)
        assert (rep.mu, rep.lam) == (2, 1)
        assert rep.method == "exact"

    def test_omega_level_one(self, ctx3):
        M = cyclic_module(ctx3, [0, 3, 3, 1])
        rep = exact_invariants_d1(M)
        assert (rep.mu, rep.lam) == (0, 3)

    def test_matrix_presentation(self, ctx3):
        t = SeriesElement.variable(ctx3)
        p = SeriesElement.constant(ctx3, 3)
        M = ModulePresentation(ctx3, 2, ((t, p), (p, t)))
        rep = exact_invariants_d1(M)
        assert (rep.mu, rep.lam) == (0, 2)

    def test_truncating_determinant_refused(self, p3):
        # det((T^2, 3), (3, T^2)) = T^4 - 9: at D = 3 the expansion would
        # drop T^4 and read mu = 2, lam = 0 off -9; at D = 4 it is exact
        # and agrees with the fitted tower, which D does not change
        def module(D):
            ctx = PrecisionContext(p3, 8, 1, D)
            t2, three = poly(ctx, [0, 0, 1]), poly(ctx, [3])
            return ModulePresentation(ctx, 2, ((t2, three), (three, t2)))

        for refused in (exact_invariants_d1, mu_positivity_equiv):
            with pytest.raises(DegreeOverflow, match="row degrees in T1 sum to 4 > D = 3"):
                refused(module(3))
        exact = exact_invariants_d1(module(4))
        assert (exact.mu, exact.lam) == (0, 4)
        fitted = fit_growth(tower(module(3), 3), GrowthModel("Iwasawa_d1", 3, 1))
        assert (fitted.mu, fitted.lam) == (0, 4)

    def test_nine_generator_chain(self, ctx3):
        # e_i - T e_(i+1) (i < 8) and (T - 3) e_8 present Lambda/(T - 3) on
        # 9 generators, past any size cap: det = T - 3 gives what the
        # fitted tower gives, and the mod-p cofactor path is memoized
        t, one, z = poly(ctx3, [0, 1]), poly(ctx3, [1]), SeriesElement.zero(ctx3)
        rows = [tuple(one if g == i else -t if g == i + 1 else z for g in range(9)) for i in range(8)]
        M = ModulePresentation(ctx3, 9, (*rows, (z,) * 8 + (poly(ctx3, [-3, 1]),)))
        exact = exact_invariants_d1(M)
        assert (exact.mu, exact.lam) == (0, 1)
        fitted = fit_growth(tower(M, 5), GrowthModel("Iwasawa_d1", 3, 1))
        assert (fitted.mu, fitted.lam) == (0, 1)
        start = time.perf_counter()
        assert mu_positivity_equiv(M) == (False, False)
        assert time.perf_counter() - start < 1

    def test_non_square_rejected(self, ctx3):
        M = ModulePresentation(ctx3, 2, ())
        with pytest.raises(NotSquare):
            exact_invariants_d1(M)

    def test_two_variables_rejected(self, ctx3_d2):
        # square, so only the variable count is wrong: a ValueError, not NotSquare
        t = SeriesElement.variable(ctx3_d2, 0)
        M = ModulePresentation(ctx3_d2, 1, ((t,),))
        with pytest.raises(ValueError, match="exact invariants require d = 1"):
            exact_invariants_d1(M)


class TestMuOfModPn:
    def test_known_values(self):
        assert mu_of_mod_pn({2, 3}, 0, 1) == 2
        assert mu_of_mod_pn((2, 3), 1, 5) == 10
        assert mu_of_mod_pn((), 0, 7) == 0

    def test_monotone_and_eventually_affine(self):
        alphas, r = (1, 2, 5), 2
        values = [mu_of_mod_pn(alphas, r, n) for n in range(1, 12)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        # slope stabilizes to r once n exceeds max(alphas)
        tail = [b - a for a, b in zip(values[5:], values[6:])]
        assert all(s == r for s in tail)

    @pytest.mark.parametrize(
        "alphas, r, n", [((1,), 0, 0), ((1,), -1, 1), ((0,), 0, 1)], ids=["n-0", "rank-negative", "exponent-0"]
    )
    def test_out_of_range_rejected(self, alphas, r, n):
        with pytest.raises(ValueError):
            mu_of_mod_pn(alphas, r, n)


class TestMuPositivity:
    def test_positive(self, ctx3):
        M = cyclic_module(ctx3, [0, 3, 3])  # p * (T + T^2) ... content 1
        exact_pos, mod_p_pos = mu_positivity_equiv(M)
        assert exact_pos is True and mod_p_pos is True

    def test_zero(self, ctx3):
        M = cyclic_module(ctx3, [3, 3, 1])  # distinguished, mu = 0
        exact_pos, mod_p_pos = mu_positivity_equiv(M)
        assert exact_pos is False and mod_p_pos is False

    def test_randomized_agreement(self, ctx3):
        rng = random.Random(31)
        for _ in range(15):
            mu = rng.randrange(0, 2)
            roots = [rng.randrange(1, 9) for _ in range(rng.randrange(0, 3))]
            M = split_module(ctx3, mu, roots)
            exact_pos, mod_p_pos = mu_positivity_equiv(M)
            assert exact_pos == mod_p_pos

    @pytest.mark.parametrize("k", [2, 3])
    def test_square_presentations(self, ctx3, k):
        # entries of degree <= 2, about 60% of their coefficients multiples
        # of p, so the cofactor recursion of _det_mod_p runs past 1 x 1
        rng = random.Random(7 + k)
        p, m = 3, ctx3.modulus

        def coefficient():
            if rng.random() < 0.6:
                return p * rng.randrange(m // p)
            return rng.randrange(m)

        seen, tried = set(), 0
        for _ in range(120):
            rows = tuple(tuple(poly(ctx3, [coefficient() for _ in range(3)]) for _ in range(k)) for _ in range(k))
            M = ModulePresentation(ctx3, k, rows)
            try:
                exact_pos, mod_p_pos = mu_positivity_equiv(M)
            except PrecisionExhausted:
                continue
            assert exact_pos == mod_p_pos
            det = char_poly(M.relation_matrix())
            reduced = [det.coefficient((e,)) % p for e in range(ctx3.D + 1)]
            assert _det_mod_p(M) == reduced
            seen.add(exact_pos)
            tried += 1
        assert seen == {False, True} and tried >= 100


class TestCuocoMonskyHypothesisCheck:
    def test_short_windows_pass(self):
        # zp_rank / p^((d-2)n) at d = 3: a lone unflagged level n = 1 gives 6/3
        model = GrowthModel("CuocoMonsky", 3, 3)
        assert cuoco_monsky_hypothesis_check([], model) == (True, 0)
        flagged = TowerDatum(0, 1, 5, 0, ("PrecisionMargin",))
        assert cuoco_monsky_hypothesis_check([flagged, TowerDatum(1, 2, 6, 0)], model) == (True, 2)


class TestGrowthModelValidation:
    def test_unknown_family(self):
        with pytest.raises(ValueError):
            GrowthModel("NoSuchLaw", 3, 1)

    def test_dimension_constraints(self):
        with pytest.raises(ValueError):
            GrowthModel("Iwasawa_d1", 3, 2)
        with pytest.raises(ValueError):
            GrowthModel("CuocoMonsky", 3, 1)

    @pytest.mark.parametrize("p", [4, 1, 0, -3])
    def test_non_prime_p(self, p):
        with pytest.raises(ValueError, match=f"not a prime: {p}"):
            GrowthModel("Iwasawa_d1", p, 1)


class TestFitGrowth:
    def test_pure_mu(self, ctx3):
        M = cyclic_module(ctx3, [9])
        data = tower(M, 5)
        rep = fit_growth(data, GrowthModel("Iwasawa_d1", 3, 1))
        assert (rep.mu, rep.lam) == (2, 0)
        assert all(r == 0 for r in rep.residuals)
        assert rep.verdict == "window-consistent"

    def test_linear_relation(self, ctx3):
        M = cyclic_module(ctx3, [-3, 1])
        data = tower(M, 5)
        rep = fit_growth(data, GrowthModel("Iwasawa_d1", 3, 1))
        assert (rep.mu, rep.lam) == (0, 1)
        assert set(rep.residuals) == {1}

    def test_cuoco_monsky_instance(self, ctx3_d2):
        f = SeriesElement(ctx3_d2, {(1, 0): 1, (0, 0): -3})
        M = ModulePresentation(ctx3_d2, 1, ((f,),))
        data = tower(M, 3)
        assert [t.log_torsion for t in data] == [1, 6, 27, 108]
        rep = fit_growth(data, GrowthModel("CuocoMonsky", 3, 2))
        assert (rep.mu, rep.l0) == (0, 1)
        assert rep.verdict == "window-consistent"

    def test_cuoco_monsky_hypothesis_failure(self, ctx3_d2):
        f = SeriesElement(ctx3_d2, {(1, 0): 1})  # T1: ranks grow as p^n
        M = ModulePresentation(ctx3_d2, 1, ((f,),))
        data = tower(M, 3)
        assert [t.zp_rank for t in data] == [1, 3, 9, 27]
        model = GrowthModel("CuocoMonsky", 3, 2)
        ok, _ = cuoco_monsky_hypothesis_check(data, model)
        assert not ok
        with pytest.raises(HypothesisViolated):
            fit_growth(data, model)

    def test_insufficient_data(self, ctx3):
        M = cyclic_module(ctx3, [9])
        data = tower(M, 2)  # only n = 1, 2 usable after burn-in
        with pytest.raises(InsufficientData):
            fit_growth(data, GrowthModel("Iwasawa_d1", 3, 1))

    def test_non_integral_coefficient(self):
        data = [TowerDatum(n, 3**n + (n % 2), 0, 0) for n in range(6)]
        with pytest.raises(NonIntegralCoefficient):
            fit_growth(data, GrowthModel("Iwasawa_d1", 3, 1))

    def test_non_integral_l0_message(self):
        # l0 = 1/3 in 9^n + l0 n 3^n; l0 is the one slot that may be negative
        data = [TowerDatum(n, 9**n + n * 3**n // 3, 0, 0) for n in range(5)]
        with pytest.raises(NonIntegralCoefficient, match=r"^main-term coefficient l0 = 1/3 is not an integer$"):
            fit_growth(data, GrowthModel("CuocoMonsky", 3, 2))

    def test_level_below_0_rejected(self):
        data = [TowerDatum(n, 3**abs(n), 0, n) for n in (-1, 1, 2, 3)]
        with pytest.raises(ValueError, match="tower levels must be >= 0, got -1"):
            fit_growth(data, GrowthModel("Iwasawa_d1", 3, 1), n0=0)

    def test_matches_reference(self):
        """Seeded grid against the one-branch-per-family oracle: every
        family with each d its rule allows up to 4, p in {3, 5, 7}, n0 in
        {0, 1, 2}.  A tower has 3 to 6 distinct levels in 0..6, given in
        shuffled order, some flagged with a corrupted datum.  Its data
        is a random combination, coefficients -2..4, of p^(dn),
        n*p^((d-1)n), p^((d-1)n) and n*p^(dn), sometimes plus noise of
        -3..3 times p^((d-1)n) or n*p^((d-1)n) at every level (non-integral
        fits) or at n <= 1 only (residuals below the fitted points).  Its
        zp_rank is 0, constant, or growing like (n+1)*p^((d-2)n), with or
        without a large value at n = 0 that only a window starting at 0
        sees (rank-hypothesis failures)."""
        rng = random.Random(89)
        outcomes = dict.fromkeys(
            ("report", "InsufficientData", "NonIntegralCoefficient", "HypothesisViolated"), 0
        )
        for family in FAMILIES:
            for d in range(1, 5):
                try:
                    GrowthModel(family, 3, d)
                except ValueError:
                    continue
                for p in (3, 5, 7):
                    for n0 in (0, 1, 2):
                        model = GrowthModel(family, p, d)
                        for _ in range(6):
                            data = self._random_tower(rng, p, d)
                            try:
                                want = format_report(reference_fit_growth(data, model, n0))
                            except (InsufficientData, NonIntegralCoefficient, HypothesisViolated) as exc:
                                with pytest.raises(type(exc)) as got:
                                    fit_growth(data, model, n0)
                                assert type(got.value) is type(exc)
                                assert str(got.value) == str(exc)
                                outcomes[type(exc).__name__] += 1
                                continue
                            assert format_report(fit_growth(data, model, n0)) == want
                            outcomes["report"] += 1
        assert min(outcomes.values()) > 0, outcomes

    @staticmethod
    def _random_tower(rng, p, d):
        coeffs = [rng.randrange(-2, 5) if rng.random() < 0.5 else 0 for _ in range(4)]
        noise = rng.choice(("none", "none", "all", "low"))
        rank = rng.choice(("zero", "zero", "constant", "growing", "burn-in"))
        data = []
        for n in sorted(rng.sample(range(7), rng.randrange(3, 7))):
            terms = (p ** (d * n), n * p ** ((d - 1) * n), p ** ((d - 1) * n), n * p ** (d * n))
            value = sum(c * x for c, x in zip(coeffs, terms))
            if noise == "all" or noise == "low" and n <= 1:
                value += rng.randrange(-3, 4) * rng.choice((1, n)) * p ** ((d - 1) * n)
            zp_rank = {"zero": 0, "constant": 2}.get(rank, (n + 1) * p ** (max(d - 2, 0) * n))
            if rank == "burn-in" and n == 0:
                zp_rank = 50
            flags = ()
            if rng.random() < 0.15:
                value, flags = rng.randrange(10**6), ("PrecisionMargin",)
            data.append(TowerDatum(n, value, zp_rank, value, flags))
        rng.shuffle(data)
        return data

    def test_flagged_points_excluded(self, ctx3):
        M = cyclic_module(ctx3, [9])
        data = tower(M, 5)
        # corrupt the top point but flag it: fit must ignore it
        data[-1] = TowerDatum(5, 999999, 0, 0, ("PrecisionMargin",))
        rep = fit_growth(data, GrowthModel("Iwasawa_d1", 3, 1))
        assert (rep.mu, rep.lam) == (2, 0)

    def test_mu_additive_on_direct_sums(self, ctx3):
        rng = random.Random(37)
        model = GrowthModel("Iwasawa_d1", 3, 1)
        for _ in range(5):
            mu1, mu2 = rng.randrange(0, 2), rng.randrange(0, 2)
            r1 = [rng.randrange(1, 9)]
            r2 = [rng.randrange(1, 9)]
            M1 = split_module(ctx3, mu1, r1)
            M2 = split_module(ctx3, mu2, r2)
            z = SeriesElement.zero(ctx3)
            f1 = M1.relations[0][0]
            f2 = M2.relations[0][0]
            Msum = ModulePresentation(ctx3, 2, ((f1, z), (z, f2)))
            fit1 = fit_growth(tower(M1, 5), model)
            fit2 = fit_growth(tower(M2, 5), model)
            fitsum = fit_growth(tower(Msum, 5), model)
            assert fitsum.mu == fit1.mu + fit2.mu
            assert fitsum.lam == fit1.lam + fit2.lam

    def test_agreement_exact_vs_fitted(self, ctx3):
        rng = random.Random(43)
        model = GrowthModel("Iwasawa_d1", 3, 1)
        for _ in range(10):
            mu = rng.randrange(0, 3)
            roots = [rng.randrange(1, 9) for _ in range(rng.randrange(0, 3))]
            M = split_module(ctx3, mu, roots)
            exact = exact_invariants_d1(M)
            fitted = fit_growth(tower(M, 5), model)
            assert (fitted.mu, fitted.lam) == (exact.mu, exact.lam)
            assert fitted.verdict == "window-consistent"


class TestPerbetFit:
    def test_recovers_rank_and_mu(self, ctx3):
        # M = Lambda^r + Lambda/p^mu: log|M_{G_n}/p^n| = r n p^n + mu p^n
        model = GrowthModel("Perbet_modpn", 3, 1)
        for r, mu in ((1, 0), (0, 2), (2, 1)):
            gens = r + (1 if mu else 0)
            rels = []
            if mu:
                row = [SeriesElement.zero(ctx3)] * gens
                row[-1] = poly(ctx3, [3**mu])
                rels.append(tuple(row))
            M = ModulePresentation(ctx3, gens, tuple(rels))
            data = tower(M, 4)
            rep = fit_growth(data, model)
            assert (rep.rank, rep.mu) == (r, mu)


class TestSemidirectRankFit:
    def test_recovers_h_rank(self, ctx3_d2):
        # torsion module with finite coinvariants whose level sizes grow
        # like rank * n * p^n: Lambda_2/(T1 - p) has log = (n+1) p^n
        f = SeriesElement(ctx3_d2, {(1, 0): 1, (0, 0): -3})
        M = ModulePresentation(ctx3_d2, 1, ((f,),))
        data = tower(M, 3)
        rep = fit_growth(data, GrowthModel("Semidirect_rank", 3, 2))
        assert rep.rank_over_h == 1
        assert rep.verdict == "window-consistent"

    def test_nonzero_rank_rejected(self, ctx3_d2):
        f = SeriesElement(ctx3_d2, {(1, 0): 1})
        M = ModulePresentation(ctx3_d2, 1, ((f,),))
        data = tower(M, 3)
        with pytest.raises(HypothesisViolated):
            fit_growth(data, GrowthModel("Semidirect_rank", 3, 2))
