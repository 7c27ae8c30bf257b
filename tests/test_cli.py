import itertools
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import iwatower
from iwatower.cli import build_parser, main


MODULE_DOC = """\
p: 3
N: 12
d: 1
D: 30
generators: 1
relation: T1 - p
"""

ZP_DESC = "kind: Zp\nd: 1\n"

SELFTEST_REPORT = """\
selftest seed=20260314 guard=2
PASS valuation-tower-vs-bigint: 0 mismatches
PASS snf-vs-integer-smith-form: 0 mismatches
PASS resultant-vs-snf-torsion-size: 0 mismatches over 24 comparisons
PASS weierstrass-roundtrip: 0 mismatches over 12 preparations
PASS exact-vs-fitted-invariants: 0 mismatches over 5 modules
PASS group-ring-lemma-checks: 0 failures over 41 checks
PASS h1-local-order-formula: 0 mismatches
summary: 7 passed, 0 failed, 0 skipped
"""


@pytest.fixture
def module_file(tmp_path):
    path = tmp_path / "mod.txt"
    path.write_text(MODULE_DOC)
    return str(path)


class TestTower:
    def test_basic(self, module_file, tmp_path, capsys):
        out = tmp_path / "tower.tsv"
        code = main(["tower", module_file, "--n-max", "3", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n\tlog_torsion\tzp_rank\tlog_mod_pn\tflags"
        torsions = [int(l.split("\t")[1]) for l in lines[1:]]
        assert torsions == [1, 2, 3, 4]

    def test_any_precision(self, tmp_path, capsys):
        # 7^40 is far beyond int64: Lambda/(T - 7) has log torsion n + 1
        doc = MODULE_DOC.replace("p: 3", "p: 7").replace("N: 12", "N: 40").replace("T1 - p", "T1 - 7")
        path = tmp_path / "mod.txt"
        path.write_text(doc)
        assert main(["tower", str(path), "--n-max", "30"]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == [f"{n}\t{n + 1}\t0\t{n}\t-" for n in range(31)]

    def test_free_module(self, tmp_path):
        doc = MODULE_DOC.replace("relation: T1 - p\n", "")
        path = tmp_path / "free.txt"
        path.write_text(doc)
        out = tmp_path / "tower.tsv"
        assert main(["tower", str(path), "--n-max", "2", "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        ranks = [int(l.split("\t")[2]) for l in rows]
        assert ranks == [1, 3, 9]

    def test_parse_error_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("p: 3\n")
        assert main(["tower", str(path)]) == 1

    def test_short_relation_exit_1(self, tmp_path, capsys):
        # the presentation, not the parser, compares the two counts
        path = tmp_path / "short.txt"
        path.write_text(MODULE_DOC.replace("generators: 1", "generators: 2"))
        assert main(["tower", str(path)]) == 1
        assert "relation length 1 does not match generator count 2" in capsys.readouterr().err

    def test_oversized_flagged_exit_2(self, tmp_path):
        # Lambda/(p) has mu = 1, so its basis stays p^n per level
        path = tmp_path / "mod.txt"
        path.write_text(MODULE_DOC.replace("relation: T1 - p", "relation: p"))
        out = tmp_path / "t.tsv"
        # upper levels overflow the basis bound -> flagged rows, exit 2
        code = main(
            ["tower", str(path), "--n-max", "5", "--dim-bound", "30", "--out", str(out)]
        )
        assert code == 2
        flagged = [
            l for l in out.read_text().splitlines()[1:] if "DimensionOverflow" in l
        ]
        assert flagged

    @pytest.mark.parametrize("p, N", [(3, 4), (5, 6), (7, 3)])
    @pytest.mark.parametrize("below, code, flag", [(1, 2, "PrecisionMargin"), (2, 0, "-")])
    def test_flags_exponent_n_minus_1(self, p, N, below, code, flag, tmp_path):
        # the relation p^(N - below) gives that exponent at every level
        path = tmp_path / "mod.txt"
        doc = MODULE_DOC.replace("p: 3", f"p: {p}").replace("N: 12", f"N: {N}")
        path.write_text(doc.replace("T1 - p", f"p^{N - below}"))
        out = tmp_path / "t.tsv"
        assert main(["tower", str(path), "--n-max", "1", "--out", str(out)]) == code
        rows = [l.split("\t") for l in out.read_text().splitlines()[1:]]
        assert rows == [["0", str(N - below), "0", "0", flag], ["1", str(p * (N - below)), "0", str(p), flag]]

    def test_dim_bound_below_0_exit_1(self, module_file, capsys):
        # below 0 every level would be flagged DimensionOverflow
        assert main(["tower", module_file, "--dim-bound", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "dimension_bound must be >= 0, got -1" in captured.err

    def test_dim_bound_0_unit_determinant(self, tmp_path, capsys):
        # Lambda/(2) is 0: the unit entry 2 drops the only generator, so every level has basis 0
        path = tmp_path / "mod.txt"
        path.write_text(MODULE_DOC.replace("T1 - p", "2"))
        assert main(["tower", str(path), "--n-max", "2", "--dim-bound", "0"]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == [f"{n}\t0\t0\t0\t-" for n in range(3)]

    @pytest.mark.parametrize("relation", ["1 + T1", "1 + T1 + T2"])
    def test_dim_bound_0_unit_constant_term(self, relation, tmp_path, capsys):
        # a determinant with a unit constant term is a unit of Lambda_2,
        # whatever variables it uses: the module is 0, with basis 0
        path = tmp_path / "mod.txt"
        path.write_text(MODULE_DOC.replace("d: 1", "d: 2").replace("T1 - p", relation))
        assert main(["tower", str(path), "--n-max", "2", "--dim-bound", "0"]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == [f"{n}\t0\t0\t0\t-" for n in range(3)]

    def test_distinguished_within_bound(self, module_file, tmp_path):
        # T1 - p is its own monic annihilator: one basis element per level
        out = tmp_path / "t.tsv"
        code = main(
            ["tower", module_file, "--n-max", "5", "--dim-bound", "30", "--out", str(out)]
        )
        assert code == 0
        assert out.read_text().splitlines()[1:] == [f"{n}\t{n + 1}\t0\t{n}\t-" for n in range(6)]

    def test_dim_bound_counts_the_eliminated_basis(self, tmp_path, capsys):
        # ((P, 1), (0, 3)), P = (T - 3)(T - 6): the unit entry 1 drops the
        # second generator and leaves Lambda/(3P), whose mu = 1 basis is
        # 3^n, so level 5 needs 243 <= 300, not the 2 * 3^5 = 486 of the
        # presentation as given
        path = tmp_path / "mod.txt"
        path.write_text(MODULE_DOC.replace("generators: 1\nrelation: T1 - p", (
            "generators: 2\nrelation: 18 - 9*T1 + T1^2; 1\nrelation: 0; 3"
        )))
        assert main(["tower", str(path), "--n-max", "5", "--dim-bound", "300"]) == 0
        rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()[1:]]
        assert [(r[1], r[4]) for r in rows] == [(str(3**n + 2 * (n + 1)), "-") for n in range(6)]

    def test_pivot_products_beyond_d(self, tmp_path, capsys):
        # ((1 + T, T), (T, 3)) at D = 1: the pivot 1 + T gives 3 + 3T - T^2,
        # past D, so it is taken at a larger degree cap and the module is
        # Lambda/(3 + 3T - T^2), with basis 2 per level, not 2 * 3^n
        path = tmp_path / "mod.txt"
        path.write_text("p: 3\nN: 8\nd: 1\nD: 1\ngenerators: 2\nrelation: 1 + T1; T1\nrelation: T1; 3\n")
        assert main(["tower", str(path), "--n-max", "5", "--dim-bound", "100"]) == 0
        rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()[1:]]
        assert [(r[1], r[4]) for r in rows] == [(str(2 * n + 1), "-") for n in range(6)]


class TestFitPredictPipeline:
    def test_pipeline(self, module_file, tmp_path, capsys):
        tower_out = tmp_path / "tower.tsv"
        fit_out = tmp_path / "fit.txt"
        pred_out = tmp_path / "pred.tsv"
        desc = tmp_path / "desc.txt"
        desc.write_text(ZP_DESC)
        assert main(["tower", module_file, "--n-max", "4", "--out", str(tower_out)]) == 0
        assert (
            main(
                [
                    "fit",
                    str(tower_out),
                    "--model",
                    "Iwasawa_d1",
                    "--p",
                    "3",
                    "--out",
                    str(fit_out),
                ]
            )
            == 0
        )
        text = fit_out.read_text()
        assert "mu=0" in text and "lam=1" in text
        assert (
            main(
                [
                    "predict",
                    str(fit_out),
                    str(desc),
                    "--p",
                    "3",
                    "--n-max",
                    "4",
                    "--out",
                    str(pred_out),
                ]
            )
            == 0
        )
        rows = [
            l for l in pred_out.read_text().splitlines() if l and not l.startswith(("n\t", "#"))
        ]
        assert [int(r.split("\t")[1]) for r in rows] == [0, 1, 2, 3, 4]

    def test_predict_uniform_nonpositive_d_exit_1(self, tmp_path, capsys):
        report = tmp_path / "report.txt"
        report.write_text("p=3\nd=1\nmethod=fitted\nmu=1\n")
        desc = tmp_path / "desc.txt"
        desc.write_text("kind: Uniform\nd: -1\n")
        pred_out = tmp_path / "pred.tsv"
        code = main(["predict", str(report), str(desc), "--p", "3", "--out", str(pred_out)])
        assert code == 1
        assert "Uniform kind requires d >= 1" in capsys.readouterr().err
        assert not pred_out.exists()

    @pytest.mark.parametrize("extra", ["lamda=2\n", "mu=0\n"])
    def test_predict_bad_report_key_exit_1(self, extra, tmp_path, capsys):
        # a mistyped or repeated report key is an input error
        report, desc = tmp_path / "report.txt", tmp_path / "desc.txt"
        report.write_text("p=3\nd=1\nmethod=fitted\nmu=1\nlam=1\n" + extra)
        desc.write_text(ZP_DESC)
        assert main(["predict", str(report), str(desc), "--p", "3"]) == 1
        assert "field" in capsys.readouterr().err

    def test_two_point_input_exit_1(self, tmp_path, capsys):
        path = tmp_path / "short.tsv"
        path.write_text(
            "n\tlog_torsion\tzp_rank\tlog_mod_pn\tflags\n"
            "1\t3\t0\t1\t-\n2\t9\t0\t2\t-\n"
        )
        assert main(["fit", str(path), "--model", "Iwasawa_d1", "--p", "3"]) == 1

    @pytest.mark.parametrize("p", ["4", "1"])
    def test_fit_non_prime_exit_1(self, p, tmp_path, capsys):
        # fit rejects a non-prime p with the error predict gives
        tower_out, fit_out = tmp_path / "tower.tsv", tmp_path / "fit.txt"
        tower_out.write_text(
            "n\tlog_torsion\tzp_rank\tlog_mod_pn\tflags\n"
            + "".join(f"{n}\t{n + 1}\t0\t{n}\t-\n" for n in range(4))
        )
        report, desc = tmp_path / "report.txt", tmp_path / "desc.txt"
        report.write_text("p=3\nd=1\nmethod=fitted\nmu=0\nlam=1\n")
        desc.write_text(ZP_DESC)
        capsys.readouterr()
        assert main(["fit", str(tower_out), "--model", "Iwasawa_d1", "--p", p, "--out", str(fit_out)]) == 1
        fit_err = capsys.readouterr().err
        assert main(["predict", str(report), str(desc), "--p", p]) == 1
        assert fit_err == capsys.readouterr().err == f"error: ValueError: not a prime: {p}\n"
        assert not fit_out.exists()

    @pytest.mark.parametrize(
        "descriptor, p, message",
        [
            (ZP_DESC, "5", "report has p = 3, d = 1; prediction has p = 5, d = 1"),
            ("kind: Uniform\nd: 3\n", "3", "report has p = 3, d = 1; prediction has p = 3, d = 3"),
        ],
        ids=["p", "d"],
    )
    def test_predict_report_mismatch_exit_1(self, descriptor, p, message, tmp_path, capsys):
        report, desc = tmp_path / "report.txt", tmp_path / "desc.txt"
        report.write_text("p=3\nd=1\nmethod=fitted\nmu=2\nlam=1\n")
        desc.write_text(descriptor)
        assert main(["predict", str(report), str(desc), "--p", p]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: ValueError: {message}\n"

    @pytest.mark.parametrize(
        "levels, message",
        [((-1, 1, 2, 3), "negative level in tower row n = -1"), ((1, 2, 2), "repeated level in tower row n = 2")],
        ids=["negative", "repeated"],
    )
    def test_fit_bad_level_exit_1(self, levels, message, tmp_path, capsys):
        tower_out, fit_out = tmp_path / "tower.tsv", tmp_path / "fit.txt"
        tower_out.write_text(
            "n\tlog_torsion\tzp_rank\tlog_mod_pn\tflags\n"
            + "".join(f"{n}\t{3**n}\t0\t{n}\t-\n" for n in levels)
        )
        args = ["fit", str(tower_out), "--model", "Iwasawa_d1", "--p", "3", "--n0", "0"]
        assert main([*args, "--out", str(fit_out)]) == 1
        assert capsys.readouterr().err == f"error: ValueError: {message}\n"
        assert not fit_out.exists()

    @pytest.mark.parametrize("first, n0, code", [(0, "1", 3), (1, "1", 3), (0, "0", 0)])
    def test_cuoco_monsky_rank_check_reads_n0_window(self, first, n0, code, tmp_path, capsys):
        # zp_rank 1, 2, 3 grows on n = 1..3; only a window that starts at
        # n = 0, where zp_rank is 5, hides it
        rows = [(0, 0, 5), (1, 3, 1), (2, 18, 2), (3, 81, 3)][first:]
        path = tmp_path / "tower.tsv"
        path.write_text(
            "n\tlog_torsion\tzp_rank\tlog_mod_pn\tflags\n"
            + "".join(f"{n}\t{lt}\t{r}\t0\t-\n" for n, lt, r in rows)
        )
        args = ["fit", str(path), "--model", "CuocoMonsky", "--p", "3", "--d", "2", "--n0", n0]
        assert main(args) == code
        if code == 3:
            assert "rank growth hypothesis fails" in capsys.readouterr().err

    def test_misfit_exit_3(self, tmp_path, capsys):
        rows = ["n\tlog_torsion\tzp_rank\tlog_mod_pn\tflags"]
        for n in range(6):
            rows.append(f"{n}\t{3**n + n % 2}\t0\t0\t-")
        path = tmp_path / "noise.tsv"
        path.write_text("\n".join(rows) + "\n")
        assert main(["fit", str(path), "--model", "Iwasawa_d1", "--p", "3"]) == 3


class TestNegativeCounts:
    @pytest.mark.parametrize(
        "lt, zr", [((1, 2, 3, 4), (-1,) * 4), ((-1, -2, -3, -4), (0,) * 4)], ids=["zp-rank", "log-torsion"]
    )
    def test_tower_file_exit_1(self, tmp_path, capsys, lt, zr):
        rows = ["n\tlog_torsion\tzp_rank\tlog_mod_pn\tflags"]
        rows += [f"{n}\t{a}\t{b}\t0\t-" for n, (a, b) in enumerate(zip(lt, zr))]
        path = tmp_path / "tower.tsv"
        path.write_text("\n".join(rows) + "\n")
        assert main(["fit", str(path), "--model", "Iwasawa_d1", "--p", "3"]) == 1
        assert "negative count in tower row n = 0" in capsys.readouterr().err

    def test_report_exit_1(self, tmp_path, capsys):
        report = tmp_path / "report.txt"
        report.write_text("p=3\nd=1\nmethod=exact\nmu=-1\nlam=-2\n")
        desc = tmp_path / "desc.txt"
        desc.write_text(ZP_DESC)
        assert main(["predict", str(report), str(desc), "--p", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "negative record field" in captured.err


class TestVanishing:
    def test_certified_exit_0(self, capsys):
        code = main(
            ["vanishing", "--field-label", "Q(sqrt(-4683))", "--p", "5"]
        )
        assert code == 0
        assert "certified: yes" in capsys.readouterr().out

    def test_not_certified_exit_4(self, capsys):
        code = main(
            ["vanishing", "--field-label", "Q(sqrt(-4683))", "--p", "3"]
        )
        assert code == 4
        assert "certified: no" in capsys.readouterr().out

    def test_unknown_field_exit_1(self, capsys):
        assert main(["vanishing", "--field-label", "nope", "--p", "5"]) == 1

    @pytest.mark.parametrize("p, code", [("5", 4), ("7", 0)])
    def test_ktable_file(self, tmp_path, capsys, p, code):
        # |K| = 2^2 * 5^2 * 3: a 5-part, no 7-part
        table = tmp_path / "k.tsv"
        table.write_text("field_label\ti\tdecomposition\tsource\nF\t2\t2,25,3\ttest\n")
        assert main(["vanishing", "--ktable", str(table), "--field-label", "F", "--p", p]) == code
        assert f"certified: {'yes' if code == 0 else 'no'}" in capsys.readouterr().out

    @pytest.mark.parametrize("rows", [["2,25,3\ta", "2,3\tb"], ["2,3\tb", "2,25,3\ta"]], ids=["5-part-first", "5-part-last"])
    def test_repeated_ktable_pair_exit_1(self, tmp_path, capsys, rows):
        # the two rows disagree at p = 5, so neither may be read in place of the other
        table = tmp_path / "k.tsv"
        table.write_text("field_label\ti\tdecomposition\tsource\n" + "".join(f"F\t2\t{r}\n" for r in rows))
        assert main(["vanishing", "--ktable", str(table), "--field-label", "F", "--p", "5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: ValueError: repeated K-table row for field 'F' with i = 2\n"

    @pytest.mark.parametrize("flag, code", [("ramified", 4), ("unramified", 0)])
    def test_descriptor_file(self, tmp_path, capsys, flag, code):
        # ord_5(11 - 1) = 1, so a ramified v11 blocks certification at p = 5
        desc = tmp_path / "desc.txt"
        desc.write_text(f"kind: Uniform\nd: 1\nramified_prime: v11 11 {flag}\n")
        argv = ["vanishing", "--descriptor", str(desc), "--field-label", "Q(sqrt(-4683))", "--p", "5"]
        assert main(argv) == code
        out = capsys.readouterr().out
        assert ("FAIL ramified prime v11 (q = 11): " in out) == (flag == "ramified")


class TestInvariants:
    def test_exact_path(self, module_file, capsys):
        assert main(["invariants", module_file]) == 0
        out = capsys.readouterr().out
        assert "method=exact" in out
        assert "mu=0" in out and "lam=1" in out

    @pytest.mark.parametrize("p, N", [(3, 4), (5, 6), (7, 3)])
    def test_content_valuation_n_minus_1_refused(self, p, N, tmp_path, capsys):
        # content valuation N - 1 would leave a precision-1 context, N - 2 leaves 2
        path = tmp_path / "mod.txt"
        doc = MODULE_DOC.replace("p: 3", f"p: {p}").replace("N: 12", f"N: {N}")
        path.write_text(doc.replace("T1 - p", f"p^{N - 1}*T1 - p^{N - 1}"))
        assert main(["invariants", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: PrecisionExhausted: content valuation {N - 1} >= N - 1 = {N - 1}\n"
        path.write_text(doc.replace("T1 - p", f"p^{N - 2}*T1 - p^{N - 1}"))
        assert main(["invariants", str(path)]) == 0
        assert capsys.readouterr().out == f"p={p}\nd=1\nmethod=exact\nmu={N - 2}\nlam=1\n"

    def test_truncating_determinant_refused(self, tmp_path, capsys):
        # det = T^4 - 9; D = 3 would truncate it to -9 (mu=2, lam=0)
        path = tmp_path / "mod.txt"
        path.write_text("p: 3\nN: 8\nd: 1\nD: 3\ngenerators: 2\nrelation: T1^2; 3\nrelation: 3; T1^2\n")
        assert main(["invariants", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: DegreeOverflow: row degrees in T1 sum to 4 > D = 3\n"
        assert main(["invariants", str(path), "--D", "4"]) == 0
        assert capsys.readouterr().out == "p=3\nd=1\nmethod=exact\nmu=0\nlam=4\n"

    def test_nine_generator_chain(self, tmp_path, capsys):
        # Lambda/(T - 3) on 9 generators: e_i - T e_(i+1), (T - 3) e_8
        rows = ["; ".join("1" if g == i else "-T1" if g == i + 1 else "0" for g in range(9)) for i in range(8)]
        rows.append("0; " * 8 + "T1 - 3")
        path = tmp_path / "mod.txt"
        path.write_text("p: 3\nN: 8\nd: 1\nD: 16\ngenerators: 9\n" + "".join(f"relation: {r}\n" for r in rows))
        assert main(["invariants", str(path)]) == 0
        assert capsys.readouterr().out == "p=3\nd=1\nmethod=exact\nmu=0\nlam=1\n"

    def test_two_variables_input_error(self, tmp_path, capsys):
        path = tmp_path / "mod.txt"
        path.write_text(MODULE_DOC.replace("d: 1", "d: 2"))
        assert main(["invariants", str(path)]) == 1
        assert capsys.readouterr().err == "error: ValueError: exact invariants require d = 1\n"


class TestHeaderOverrides:
    def test_precision_override(self, module_file, tmp_path):
        # N=2 leaves no precision margin at n=2: rows get flagged, exit 2
        out = tmp_path / "t.tsv"
        code = main(
            ["tower", module_file, "--N", "2", "--n-max", "2", "--out", str(out)]
        )
        assert code == 2
        assert "PrecisionMargin" in out.read_text()

    def test_degree_override_validated(self, module_file, capsys):
        assert main(["tower", module_file, "--D", "0", "--n-max", "2"]) == 1

    def test_invariants_override(self, module_file, capsys):
        assert main(["invariants", module_file, "--N", "8", "--D", "20"]) == 0
        assert "mu=0" in capsys.readouterr().out


class TestParser:
    def test_built_once(self):
        assert build_parser() is build_parser()

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["tower"],
            ["tower", "m.txt", "--n-max", "abc"],
            ["frobnicate"],
            ["selftest", "--guard", "2"],
            ["tower", "m.txt", "--guard", "2"],
            ["invariants", "m.txt", "--guard", "1"],
        ],
        ids=["no-command", "missing-file", "bad-int", "unknown-command", "selftest-guard", "tower-guard", "invariants-guard"],
    )
    def test_usage_error_exit_1(self, argv, capsys):
        # exit 2 is for flagged output, so a usage error is an input error
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: iwatower") and "error:" in captured.err

    def test_help_exit_0(self, capsys):
        assert main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: iwatower")

    def test_readme_options_table_matches_help(self, capsys):
        # every subcommand has one row, whose options are those its --help prints
        lines = (Path(__file__).parents[1] / "README.md").read_text().splitlines()
        start = lines.index("| Subcommand | Arguments | Options |") + 2
        table = {}
        for line in itertools.takewhile(lambda l: l.startswith("|"), lines[start:]):
            command, _, options = (cell.strip() for cell in line.strip("|").split("|"))
            table[command.strip("`")] = set(re.findall(r"--[\w-]+", options))
        main(["--help"])
        commands = re.search(r"\{([\w,]+)\}", capsys.readouterr().out).group(1).split(",")
        printed = {}
        for command in commands:
            assert main([command, "--help"]) == 0
            printed[command] = set(re.findall(r"--[\w-]+", capsys.readouterr().out)) - {"--help"}
        assert table == printed


class TestOutOfRange:
    def test_tower_negative_n_max_exit_1(self, module_file, capsys):
        assert main(["tower", module_file, "--n-max", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "n_max must be >= 0, got -1" in captured.err

    @pytest.mark.parametrize(
        "flags, message",
        [(["--n-max", "-1"], "n_max must be >= 0, got -1"), (["--i", "1"], "twist i must be >= 2, got 1")],
        ids=["n-max", "twist"],
    )
    def test_predict_exit_1(self, flags, message, tmp_path, capsys):
        report, desc = tmp_path / "report.txt", tmp_path / "desc.txt"
        report.write_text("p=3\nd=1\nmethod=fitted\nmu=1\nlam=1\n")
        desc.write_text(ZP_DESC)
        assert main(["predict", str(report), str(desc), "--p", "3", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


class TestSelftest:
    @pytest.mark.parametrize("optimize", [False, True], ids=["python", "python-O"])
    def test_report_pinned(self, optimize, capsys):
        # the default-seed report, byte for byte: a change that alters
        # every run alike still shows here; -O strips asserts, so a
        # check the report relies on must not be one
        if optimize:
            src = str(Path(iwatower.__file__).parents[1])
            proc = subprocess.run(
                [sys.executable, "-O", "-m", "iwatower.cli", "selftest"],
                capture_output=True, text=True, timeout=300,
                env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1"),
            )
            assert proc.returncode == 0, proc.stderr
            out = proc.stdout
        else:
            assert main(["selftest"]) == 0
            out = capsys.readouterr().out
        assert out == SELFTEST_REPORT

    def test_check_that_raises_is_a_fail_line(self, monkeypatch, capsys):
        # the checks after it still run and report
        def raising(M, U):
            raise ValueError("injected")

        monkeypatch.setattr("iwatower.selftest.augmentation_quotients", raising)
        assert main(["selftest"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines == SELFTEST_REPORT.splitlines()[:6] + [
            "FAIL group-ring-lemma-checks: ValueError: injected",
            "PASS h1-local-order-formula: 0 mismatches",
            "summary: 6 passed, 1 failed, 0 skipped",
        ]
