import random

import pytest

from iwatower import (
    BUILTIN_KTABLE,
    ExtensionDescriptor,
    InvariantReport,
    KGroupRecord,
    LocalPrimeDatum,
    MissingInvariant,
    Prime,
    ResidueCharacteristicP,
    change_of_s_order,
    h1_local_order,
    k_even_order_to_h2,
    mod_p_h2_dimension,
    predict_growth,
    vanishing_propagation,
)
from iwatower.formats import format_prediction_tsv
from iwatower.ktheory import KINDS

from conftest import reference_predict_growth


class TestRecords:
    def test_builtin_record(self):
        rec = BUILTIN_KTABLE[0]
        assert rec.order_decomposition == (2, 2, 3, 37)
        assert rec.i == 2

    def test_non_prime_power_rejected(self):
        with pytest.raises(ValueError):
            KGroupRecord("F", 2, (6,))

    def test_twist_bound(self):
        with pytest.raises(ValueError):
            KGroupRecord("F", 1, (2,))

    def test_local_prime_validation(self):
        LocalPrimeDatum("v", 4)
        with pytest.raises(ValueError):
            LocalPrimeDatum("v", 6)

    def test_descriptor_kinds(self):
        ExtensionDescriptor("Zp", 1)
        ExtensionDescriptor("Zpd", 2)
        ExtensionDescriptor("Uniform", 1)
        ExtensionDescriptor("Semidirect", 3)
        with pytest.raises(ValueError):
            ExtensionDescriptor("Zp", 2)
        with pytest.raises(ValueError):
            ExtensionDescriptor("Semidirect", 1)
        with pytest.raises(ValueError):
            ExtensionDescriptor("weird", 1)
        for d in (0, -1):
            with pytest.raises(ValueError, match=r"^Uniform kind requires d >= 1$"):
                ExtensionDescriptor("Uniform", d)

    def test_zpd_must_be_unramified_outside_p(self):
        v = LocalPrimeDatum("v", 7, ramified=True)
        with pytest.raises(ValueError):
            ExtensionDescriptor("Zpd", 2, ramified_primes=(v,))
        # unramified entries are allowed
        ExtensionDescriptor(
            "Zpd", 2, ramified_primes=(LocalPrimeDatum("v", 7, ramified=False),)
        )


class TestOrderBookkeeping:
    def test_p_part_extraction(self):
        rec = BUILTIN_KTABLE[0]
        assert k_even_order_to_h2(rec, Prime(3)) == 1
        assert k_even_order_to_h2(rec, Prime(5)) == 0
        assert k_even_order_to_h2(KGroupRecord("F", 2, ()), Prime(7)) == 0

    def test_change_of_s(self):
        p3 = Prime(3)
        assert change_of_s_order(1, [LocalPrimeDatum("v", 4)], 2, p3) == 2
        assert change_of_s_order(0, [], 2, p3) == 0
        # ord_3(5 - 1) = 0 and ord_3(2 - 1) = 0: no local contribution
        locs = [LocalPrimeDatum("v5", 5), LocalPrimeDatum("v2", 2)]
        assert change_of_s_order(2, locs, 2, p3) == 2
        # ord_3(7 - 1) = 1: one extra unit of order
        assert change_of_s_order(2, [LocalPrimeDatum("v7", 7)], 2, p3) == 3

    def test_change_of_s_rejects_residue_char_p(self):
        with pytest.raises(ResidueCharacteristicP):
            change_of_s_order(0, [LocalPrimeDatum("v", 27)], 2, Prime(3))

    def test_change_of_s_monotone(self):
        rng = random.Random(53)
        p = Prime(3)
        for _ in range(20):
            base = rng.randrange(0, 4)
            locs = []
            total = change_of_s_order(base, locs, 2, p)
            assert total == base
            for _ in range(4):
                q = rng.choice([2, 4, 5, 7, 8, 11, 13])
                locs.append(LocalPrimeDatum("v", q))
                bigger = change_of_s_order(base, locs, 2, p)
                assert bigger >= total
                total = bigger


class TestVanishing:
    def test_browkin_gangl_propagation(self):
        rec = BUILTIN_KTABLE[0]
        ext = ExtensionDescriptor("Zpd", 2)
        for p in (5, 7, 11):
            assert vanishing_propagation(rec, ext, Prime(p)).certified
        for p in (3, 37):
            assert not vanishing_propagation(rec, ext, Prime(p)).certified

    def test_certified_implies_trivial_p_part(self):
        rec = BUILTIN_KTABLE[0]
        ext = ExtensionDescriptor("Zpd", 2)
        for p in (3, 5, 7, 11, 13, 37):
            cert = vanishing_propagation(rec, ext, Prime(p))
            if cert.certified:
                assert k_even_order_to_h2(rec, Prime(p)) == 0

    def test_local_condition_failure(self):
        rec = KGroupRecord("F", 2, (2,))  # trivial 5-part
        # q = 11: 5 | 11 - 1, so the local H^1 term is nontrivial
        v = LocalPrimeDatum("v11", 11, ramified=True)
        ext = ExtensionDescriptor("Semidirect", 2, ramified_primes=(v,))
        cert = vanishing_propagation(rec, ext, Prime(5))
        assert not cert.certified
        assert any("v11" in d for d in cert.failing)
        assert h1_local_order(11, 2, Prime(5)) == 1

    def test_conditions_recorded(self):
        cert = vanishing_propagation(
            BUILTIN_KTABLE[0], ExtensionDescriptor("Zpd", 2), Prime(3)
        )
        assert cert.conditions
        assert cert.failing
        assert any("Quillen-Lichtenbaum" in a for a in cert.assumptions)


class TestPredictGrowth:
    def test_zp_table(self):
        rep = InvariantReport(p=3, d=1, method="fitted", mu=2, lam=1)
        pred = predict_growth(
            rep, ExtensionDescriptor("Zp", 1), Prime(3), 2, range(5)
        )
        assert [r.main_term for r in pred.rows] == [2, 7, 20, 57, 166]
        assert all(r.o_class == "O(1)" for r in pred.rows)
        assert all(r.torsion_type == "p^inf" for r in pred.rows)

    def test_zp_second_difference_identity(self):
        rep = InvariantReport(p=3, d=1, method="fitted", mu=4, lam=7)
        pred = predict_growth(
            rep, ExtensionDescriptor("Zp", 1), Prime(3), 2, range(8)
        )
        for row in pred.rows:
            assert row.main_term - 7 * row.n == 4 * 3**row.n

    def test_zpd_term(self):
        rep = InvariantReport(p=3, d=2, method="fitted", mu=0, l0=1)
        pred = predict_growth(
            rep, ExtensionDescriptor("Zpd", 2), Prime(3), 2, [2]
        )
        assert pred.rows[0].main_term == 18
        assert pred.rows[0].o_class == "O(p^((d-1)n))"

    def test_uniform_is_pn_torsion(self):
        rep = InvariantReport(p=3, d=2, method="fitted", mu=1)
        pred = predict_growth(
            rep, ExtensionDescriptor("Uniform", 2), Prime(3), 2, range(3)
        )
        assert all(r.torsion_type == "p^n" for r in pred.rows)
        assert [r.main_term for r in pred.rows] == [1, 9, 81]

    def test_missing_slot(self):
        rep = InvariantReport(p=3, d=1, method="fitted", mu=2)  # no lam
        with pytest.raises(MissingInvariant):
            predict_growth(
                rep, ExtensionDescriptor("Zp", 1), Prime(3), 2, range(3)
            )

    @pytest.mark.parametrize("i", [1, 0, -2])
    def test_twist_below_2_rejected(self, i):
        rep = InvariantReport(p=3, d=1, method="fitted", mu=2, lam=1)
        with pytest.raises(ValueError, match=f"twist i must be >= 2, got {i}"):
            predict_growth(rep, ExtensionDescriptor("Zp", 1), Prime(3), i, range(3))

    def test_semidirect_upper_bound_rows(self):
        rep = InvariantReport(
            p=3, d=2, method="fitted", rank_over_h=1, mu_h=2
        )
        pred = predict_growth(
            rep, ExtensionDescriptor("Semidirect", 2), Prime(3), 2, range(3)
        )
        asymptotic = [r for r in pred.rows if r.qualifier == "asymptotic"]
        bounds = [r for r in pred.rows if r.qualifier == "UPPER_BOUND"]
        assert [r.main_term for r in asymptotic] == [0, 3, 18]
        assert [r.main_term for r in bounds] == [2, 9, 36]
        assert all(r.torsion_type == "p^n" for r in bounds)

    @pytest.mark.parametrize("q, ext_d", [(5, 1), (3, 2)], ids=["p", "d"])
    def test_report_must_match_prediction(self, q, ext_d):
        rep = InvariantReport(p=3, d=1, method="fitted", mu=2, lam=1)
        kind = "Zp" if ext_d == 1 else "Zpd"
        with pytest.raises(
            ValueError, match=f"report has p = 3, d = 1; prediction has p = {q}, d = {ext_d}"
        ):
            predict_growth(rep, ExtensionDescriptor(kind, ext_d), Prime(q), 2, range(3))

    def test_level_below_0_rejected(self):
        rep = InvariantReport(p=3, d=1, method="fitted", mu=2, lam=1)
        with pytest.raises(ValueError, match="levels must be >= 0, got -1"):
            predict_growth(rep, ExtensionDescriptor("Zp", 1), Prime(3), 2, [2, -1])

    def test_levels_read_once(self):
        rep = InvariantReport(p=3, d=1, method="exact", mu=0, lam=1)
        rows = lambda levels: predict_growth(rep, ExtensionDescriptor("Zp", 1), Prime(3), 2, levels).rows
        assert rows(n for n in range(3)) == rows(range(3)) and len(rows(range(3))) == 3

    def test_asserted_hypotheses_carried(self):
        rep = InvariantReport(p=3, d=2, method="fitted", rank_over_h=1)
        ext = ExtensionDescriptor(
            "Semidirect", 2, asserted_hypotheses=("decomposition dimension 2",)
        )
        pred = predict_growth(rep, ext, Prime(3), 2, range(2))
        assert any("unchecked" in a for a in pred.assumptions)

    def test_matches_reference(self):
        """Seeded grid against the one-branch-per-kind oracle: every kind
        with each d its rule allows up to 4, random slot subsets (so some
        predictions raise MissingInvariant), Semidirect with and without
        mu_h, asserted hypotheses, p in {3, 5, 7}, ranges range(0),
        range(6) and [2, 4]."""
        rng = random.Random(71)
        slot_names = ("mu", "lam", "l0", "rank", "rank_over_h", "mu_h")
        outcomes = {"rows": 0, "missing": 0, "upper_bound": 0}
        for kind in KINDS:
            for d in range(1, 5):
                try:
                    ExtensionDescriptor(kind, d)
                except ValueError:
                    continue
                for _ in range(480):
                    ext = ExtensionDescriptor(
                        kind,
                        d,
                        asserted_hypotheses=tuple(
                            f"hypothesis {k}" for k in range(rng.randrange(3))
                        ),
                    )
                    slots = {
                        name: rng.randrange(-2, 6)
                        for name in slot_names
                        if rng.random() < 0.7
                    }
                    p = Prime(rng.choice((3, 5, 7)))
                    rep = InvariantReport(p=p.p, d=d, method="fitted", **slots)
                    n_range = rng.choice((range(0), range(6), [2, 4]))
                    try:
                        want = format_prediction_tsv(
                            reference_predict_growth(rep, ext, p, 2, n_range)
                        )
                    except MissingInvariant as exc:
                        with pytest.raises(MissingInvariant) as got:
                            predict_growth(rep, ext, p, 2, n_range)
                        assert str(got.value) == str(exc)
                        outcomes["missing"] += 1
                        continue
                    got = format_prediction_tsv(predict_growth(rep, ext, p, 2, n_range))
                    assert got == want
                    outcomes["rows"] += 1
                    outcomes["upper_bound"] += "UPPER_BOUND" in want
        assert min(outcomes.values()) > 0, outcomes


class TestModPH2:
    def test_formula(self):
        assert mod_p_h2_dimension(0, 1) == 0
        assert mod_p_h2_dimension(2, 3) == 4
        for r in range(5):
            assert mod_p_h2_dimension(r, 1) == r

    def test_validation(self):
        with pytest.raises(ValueError):
            mod_p_h2_dimension(0, 0)
        with pytest.raises(ValueError):
            mod_p_h2_dimension(-1, 1)


def test_change_of_s_order_negative_order():
    with pytest.raises(ValueError, match="log_h2_sp must be >= 0"):
        change_of_s_order(-1, (), 2, Prime(3))
