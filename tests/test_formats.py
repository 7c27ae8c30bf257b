import itertools
import random
from fractions import Fraction

import pytest

from iwatower import (
    InvariantReport,
    PrecisionContext,
    Prime,
    SeriesElement,
    TowerDatum,
)
from iwatower.formats import (
    format_ktable,
    format_module_file,
    format_polynomial,
    format_prediction_tsv,
    format_report,
    format_tower_tsv,
    parse_descriptor,
    parse_ktable,
    parse_module_file,
    parse_polynomial,
    parse_report,
    parse_tower_tsv,
)
from iwatower.ktheory import BUILTIN_KTABLE, predict_growth, ExtensionDescriptor


@pytest.fixture
def ctx(p3):
    return PrecisionContext(p3, 6, 2, 16)


class TestPolynomialGrammar:
    def test_basic_terms(self, ctx):
        f = parse_polynomial("2*T1^2*T2 + p*T2 - 5", ctx)
        assert f.coefficient((2, 1)) == 2
        assert f.coefficient((0, 1)) == 3
        assert f.coefficient((0, 0)) == ctx.modulus - 5

    def test_p_powers(self, ctx):
        f = parse_polynomial("p^2*T1", ctx)
        assert f.coefficient((1, 0)) == 9

    def test_bare_variable(self, ctx):
        f = parse_polynomial("T2", ctx)
        assert f.coefficient((0, 1)) == 1

    def test_leading_minus(self, ctx):
        f = parse_polynomial("-T1 + 4", ctx)
        assert f.coefficient((1, 0)) == ctx.modulus - 1
        assert f.coefficient((0, 0)) == 4

    def test_like_terms_combine(self, ctx):
        f = parse_polynomial("T1 + 2*T1", ctx)
        assert f.coefficient((1, 0)) == 3

    def test_errors(self, ctx):
        for bad in ("", "T3", "q*T1", "T1 +", "2**T1"):
            with pytest.raises(ValueError):
                parse_polynomial(bad, ctx)

    def test_roundtrip(self, ctx):
        f = SeriesElement(ctx, {(0, 0): 7, (1, 2): 5, (3, 0): 1})
        assert parse_polynomial(format_polynomial(f), ctx) == f

    def test_format_zero(self, ctx):
        assert format_polynomial(SeriesElement.zero(ctx)) == "0"


class TestModuleFile:
    DOC = """\
# sample module
p: 3
N: 12
d: 1
D: 30
generators: 2
relation: T1 - p; p^2
relation: 0; T1^2 + p*T1
"""

    def test_parse(self):
        M = parse_module_file(self.DOC)
        assert M.context.p.p == 3
        assert M.context.N == 12
        assert M.generators == 2
        assert len(M.relations) == 2
        assert M.relations[0][0].coefficient((1,)) == 1

    def test_roundtrip(self):
        M = parse_module_file(self.DOC)
        assert parse_module_file(format_module_file(M)) == M

    def test_missing_header(self):
        with pytest.raises(ValueError):
            parse_module_file("p: 3\nN: 4\nrelation: T1")

    def test_wrong_relation_arity(self):
        doc = self.DOC.replace("T1 - p; p^2", "T1 - p")
        with pytest.raises(ValueError):
            parse_module_file(doc)

    def test_unknown_field(self):
        with pytest.raises(ValueError):
            parse_module_file(self.DOC + "bogus: 1\n")


class TestTowerTsv:
    def test_roundtrip(self):
        data = [
            TowerDatum(0, 1, 0, 0),
            TowerDatum(1, 2, 3, 2, ("PrecisionMargin",)),
        ]
        assert parse_tower_tsv(format_tower_tsv(data)) == data

    def test_bad_header(self):
        with pytest.raises(ValueError):
            parse_tower_tsv("a\tb\n1\t2\n")

    HEADER = "n\tlog_torsion\tzp_rank\tlog_mod_pn\tflags\n"

    def test_comment_lines_skipped(self):
        text = "# from tower --n-max 1\n" + self.HEADER + "0\t1\t0\t0\t-\n# end\n"
        assert parse_tower_tsv(text) == [TowerDatum(0, 1, 0, 0)]

    @pytest.mark.parametrize("indent", [" ", "  ", "\t"])
    def test_indented_comment_lines_skipped(self, indent):
        text = f"{indent}# from tower\n" + self.HEADER + f"0\t1\t0\t0\t-\n{indent}# end\n"
        assert parse_tower_tsv(text) == [TowerDatum(0, 1, 0, 0)]

    @pytest.mark.parametrize("flags", ["", "A,,B", ",A", "A,"])
    def test_empty_flag_name_rejected(self, flags):
        with pytest.raises(ValueError, match="empty flag name in tower row n = 3"):
            parse_tower_tsv(self.HEADER + f"3\t4\t0\t3\t{flags}\n")

    @pytest.mark.parametrize(
        "row", ["2\t-1\t0\t0\t-", "2\t1\t-1\t0\t-", "2\t1\t0\t-1\t-"], ids=["log_torsion", "zp_rank", "log_mod_pn"]
    )
    def test_negative_count_rejected(self, row):
        # log_torsion, zp_rank and log_mod_pn count p-adic digits
        with pytest.raises(ValueError, match="negative count in tower row n = 2"):
            parse_tower_tsv(self.HEADER + "1\t1\t0\t0\t-\n" + row + "\n")

    @pytest.mark.parametrize(
        "text, match",
        [("", "empty tower table"), ("# no rows\n", "empty tower table"), (HEADER + "0\t1\t0\t0\n", "malformed tower row")],
        ids=["empty", "comments-only", "short-row"],
    )
    def test_malformed_table_rejected(self, text, match):
        with pytest.raises(ValueError, match=match):
            parse_tower_tsv(text)


class TestReportRecord:
    def test_roundtrip(self):
        rep = InvariantReport(
            p=3,
            d=1,
            method="fitted",
            model="Iwasawa_d1",
            mu=2,
            lam=0,
            residuals=(0, 0, 1),
            window_bound=Fraction(1),
            verdict="window-consistent",
        )
        assert parse_report(format_report(rep)) == rep

    def test_exact_report(self):
        rep = InvariantReport(p=3, d=1, method="exact", mu=1, lam=2)
        assert parse_report(format_report(rep)) == rep

    def test_missing_required(self):
        with pytest.raises(ValueError):
            parse_report("p=3\nd=1\n")

    @pytest.mark.parametrize(
        "extra, message",
        [("lamda=2\n", "unknown field 'lamda'"), ("mu=2\n", "duplicate field 'mu'")],
    )
    def test_unknown_or_duplicate_key(self, extra, message):
        with pytest.raises(ValueError, match=message):
            parse_report("p=3\nd=1\nmethod=fitted\nmu=1\n" + extra)

    def test_seeded_roundtrip(self):
        # every slot and window_bound None, 0 or nonzero; residuals empty or
        # not.  A report with a negative mu, lam, rank, rank_over_h or mu_h is refused
        rng = random.Random(20261018)

        def value(kind):
            return rng.choice([-1, 1]) * rng.randrange(1, 10**6) if kind == "nonzero" else kind

        names = ("mu", "lam", "l0", "rank", "rank_over_h", "mu_h", "window_bound")
        for kinds in itertools.product((None, 0, "nonzero"), repeat=len(names)):
            for residuals in ((), tuple(value("nonzero") for _ in range(rng.randrange(1, 6)))):
                slots = {name: value(kind) for name, kind in zip(names, kinds)}
                if slots["window_bound"]:
                    slots["window_bound"] = Fraction(slots["window_bound"], rng.randrange(1, 50))
                rep = InvariantReport(
                    p=rng.choice([3, 5, 7]),
                    d=rng.randrange(1, 4),
                    method=rng.choice(["exact", "fitted"]),
                    model=rng.choice(["", "Iwasawa_d1", "Semidirect_rank"]),
                    residuals=residuals,
                    verdict=rng.choice(["", "window-consistent"]),
                    **slots,
                )
                if any((slots[name] or 0) < 0 for name in ("mu", "lam", "rank", "rank_over_h", "mu_h")):
                    with pytest.raises(ValueError, match="negative record field"):
                        parse_report(format_report(rep))
                else:
                    assert parse_report(format_report(rep)) == rep

    @pytest.mark.parametrize("slot", ["mu", "lam", "rank", "rank_over_h", "mu_h"])
    def test_negative_integral_slot_rejected(self, slot):
        with pytest.raises(ValueError, match=f"negative record field {slot} = -1"):
            parse_report(f"p=3\nd=2\nmethod=fitted\n{slot}=-1\n")

    def test_negative_l0_accepted(self):
        rep = InvariantReport(p=3, d=2, method="fitted", l0=-2)
        assert parse_report(format_report(rep)) == rep

    def test_hash_in_value_roundtrip(self):
        rep = InvariantReport(p=3, d=1, method="fitted", model="Iwasawa_d1#2", verdict="ok # see run #4")
        assert parse_report(format_report(rep)) == rep


class TestKTable:
    def test_roundtrip(self):
        text = format_ktable(BUILTIN_KTABLE)
        records = parse_ktable(text)
        assert records == list(BUILTIN_KTABLE)

    def test_bad_header(self):
        with pytest.raises(ValueError):
            parse_ktable("x\ty\n")

    def test_repeated_pair_rejected(self):
        head = "field_label\ti\tdecomposition\tsource\n"
        rows = ["F\t2\t3\ta\n", "F\t3\t3\tb\n", "G\t2\t3\tc\n"]
        assert [(r.field_label, r.i) for r in parse_ktable(head + "".join(rows))] == [("F", 2), ("F", 3), ("G", 2)]
        for repeat in ("F\t2\t9\td\n", "F\t02\t3\ta\n"):
            with pytest.raises(ValueError, match="repeated K-table row for field 'F' with i = 2"):
                parse_ktable(head + "".join(rows) + repeat)

    @pytest.mark.parametrize("indent", [" ", "  ", "\t"])
    def test_indented_comment_lines_skipped(self, indent):
        lines = format_ktable(BUILTIN_KTABLE).splitlines(keepends=True)
        text = f"{indent}# built in\n" + lines[0] + f"{indent}# rows\n" + "".join(lines[1:])
        assert parse_ktable(text) == list(BUILTIN_KTABLE)


class TestDescriptor:
    def test_parse(self):
        doc = """\
kind: Semidirect
d: 2
ramified_prime: v7 7 ramified
ramified_prime: w5 5 unramified
hypothesis: decomposition dimension 2
note: demo
"""
        ext = parse_descriptor(doc)
        assert ext.kind == "Semidirect"
        assert ext.d == 2
        assert len(ext.ramified_primes) == 2
        assert ext.ramified_primes[0].ramified
        assert not ext.ramified_primes[1].ramified
        assert ext.asserted_hypotheses == ("decomposition dimension 2",)

    def test_hash_kept_in_values(self):
        ext = parse_descriptor(
            "# comment line\n"
            "kind: Zp\n"
            "d: 1\n"
            "  # indented comment line\n"
            "note: see table #12 for context\n"
            "hypothesis: Leopoldt #conjecture holds\n"
        )
        assert ext.notes == ("see table #12 for context",)
        assert ext.asserted_hypotheses == ("Leopoldt #conjecture holds",)

    def test_missing_kind(self):
        with pytest.raises(ValueError):
            parse_descriptor("d: 2\n")

    @pytest.mark.parametrize("line", ["kind: Uniform\n", "d: 1\n"])
    def test_duplicate_field(self, line):
        with pytest.raises(ValueError, match="duplicate field"):
            parse_descriptor("kind: Zp\nd: 1\n" + line)

    @pytest.mark.parametrize(
        "text, match",
        [
            ("kind Zp\nd: 1\n", "no ':'"),
            ("kind: Uniform\nd: 1\nramified_prime: v11\n", "malformed ramified_prime line"),
            ("kind: Uniform\nd: 1\nramified_prime: v11 11 sideways\n", "bad ramification flag 'sideways'"),
        ],
        ids=["no-separator", "one-field", "bad-flag"],
    )
    def test_malformed_line_rejected(self, text, match):
        with pytest.raises(ValueError, match=match):
            parse_descriptor(text)

    def test_zpd_ramified_rejected(self):
        with pytest.raises(ValueError):
            parse_descriptor("kind: Zpd\nd: 2\nramified_prime: v 7 ramified\n")


class TestPredictionTsv:
    def test_upper_bound_tagged(self):
        rep = InvariantReport(p=3, d=2, method="fitted", rank_over_h=1, mu_h=1)
        pred = predict_growth(
            rep, ExtensionDescriptor("Semidirect", 2), Prime(3), 2, range(2)
        )
        text = format_prediction_tsv(pred)
        assert "[UPPER_BOUND]" in text
        assert text.startswith("n\tmain_term\to_class\ttorsion_type\ttheorem_tag\n")
        assert "# assumes" in text
