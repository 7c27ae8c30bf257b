import os
import random
import re
import subprocess
import sys
import textwrap
import time
from math import comb
from pathlib import Path

import numpy as np
import pytest
import sympy

import iwatower
from iwatower import (
    AbelianShape,
    ContextMismatch,
    DegreeOverflow,
    DimensionOverflow,
    PrecisionExhausted,
    Prime,
    PrecisionContext,
    ModulePresentation,
    SeriesElement,
    coinvariants,
    snf,
    torsion_size_resultant_oracle,
    tower,
)
from iwatower.modules import _annihilator, _eliminated, _relation_rows, _resultant, _summands
from iwatower.series import char_poly, omega_int_coeffs
from iwatower.selftest import _oracle_shape_exponents

from conftest import (
    _euclidean_reduction_table, cyclic_module, poly, reference_relation_matrix, reference_snf, split_module,
    sympy_smith_exponents,
)


SNF_KINDS = (
    "dense", "low_rank", "p_divisible", "tall_sparse", "zero_rows", "no_rows", "n_equals_1",
    "mixed_sparsity",
)


# kinds too large for the sympy oracle, checked against reference_snf
LARGE_KINDS = ("mu_banded", "band_over_block", "fill_in", "dense_large")

# kinds whose rows share a content p^k > 1, or have contents that differ
CONTENT_KINDS = ("p_power", "row_contents")


def rows_of(M):
    """The relations of M as rows of integer coefficient dicts, the form
    the coinvariant helpers take."""
    return [[x.coefficients for x in row] for row in M.relations]


def presented(ctx, E):
    """E = (rows, generators) as a ModulePresentation over ctx's prime,
    precision and variables, its degree cap raised to E's largest exponent."""
    rows, k = E
    ctx = PrecisionContext(ctx.p, ctx.N, ctx.d, max([ctx.D] + [max(e) for r in rows for x in r for e in x]))
    return ModulePresentation(ctx, k, tuple(tuple(SeriesElement(ctx, x) for x in r) for r in rows))


def band_over_block(rng, p, N, near=False):
    """An upper bidiagonal band of 8 unit rows, each followed by a unit
    multiple of itself, above a 10 x 10 block of p times nonzeros on
    other columns.  Layer 0 pivots the band and clears the multiples;
    the cleared rows leave at its end, and the block is eliminated from
    layer 1 on.  With `near` every entry is within 31 p of p^N and each
    multiple is the row itself.  Entries are Python ints, so p^N may be
    of any size when `near` is set."""
    m, k = p**N, 8
    def unit():
        return m - p * int(rng.integers(1, 30)) - 1 if near else int(rng.integers(1, m // p)) * p + 1
    band = np.zeros((k, k + 10), dtype=object)
    for i in range(k):
        band[i, i:min(i + 2, k)] = [unit() for _ in range(min(2, k - i))]
    twins = band if near else band * np.array([[unit()] for _ in range(k)]) % m
    block = np.zeros((10, k + 10), dtype=object)
    block[:, k:] = p * (m // p - rng.integers(1, 30, (10, 10)).astype(object) if near else rng.integers(1, m // p, (10, 10)))
    return np.vstack([np.stack([band, twins], axis=1).reshape(2 * k, -1), block])


def snf_inputs(kind, count=8):
    """Seeded (matrix, p, N) inputs of one kind, small enough for the
    sympy oracle except those of LARGE_KINDS.  `tall_sparse` rows are
    e_a - e_b, like the group-ring difference rows.  `mixed_sparsity`
    puts two dense rows among rows with one or two nonzeros, units and
    multiples of p, so that `snf` pivots in an order other than the row
    order.  `mu_banded` are the n = 3 relation matrices of the mu > 0
    modules Lambda/(p (T - 3a)) and Lambda/(p^2); `fill_in` rows hold 5
    units at random, which fill in as they are pivoted.  `p_power` is
    p^k times a random matrix, k from 1 to N - 1, so `snf` has layers
    with no unit below p^k; `row_contents` multiplies each row by its
    own p^c, c from 0 to N - 1, as a unit row over a p^3-divisible
    block."""
    rng = np.random.default_rng((SNF_KINDS + LARGE_KINDS + CONTENT_KINDS).index(kind))
    if kind == "mu_banded":
        for t in range(count):
            ctx = PrecisionContext(Prime(3), int(rng.integers(3, 9)), 1, 4)
            M = cyclic_module(ctx, [9] if t % 2 else [-9 * int(rng.integers(1, 9)), 3])
            yield reference_relation_matrix(M, 3), ctx.p, ctx.N
        return
    for _ in range(count):
        p = int(rng.choice([3, 5, 7]))
        N = 1 if kind == "n_equals_1" else int(rng.integers(2 if kind in CONTENT_KINDS else 1, 9))
        m = p**N
        rows, cols = (int(x) for x in rng.integers(1, 13, size=2))
        A = rng.integers(0, m, (rows, cols))
        if kind == "low_rank":
            r = int(rng.integers(0, 4))
            A = rng.integers(0, m, (rows, r)) @ rng.integers(0, m, (r, cols)) % m
        elif kind == "p_divisible":
            A = A * p ** rng.integers(0, N + 1, (rows, cols)) % m
        elif kind == "tall_sparse":
            cols = min(cols, 8)
            A = np.zeros((4 * cols, cols), dtype=np.int64)
            for row in A:
                row[rng.integers(cols)] += 1
                row[rng.integers(cols)] -= 1
        elif kind == "zero_rows":
            A[rng.random(rows) < 0.5] = 0
        elif kind == "no_rows":
            A = A[:0]
        elif kind == "mixed_sparsity":
            A = np.zeros((2 * rows + 4, cols), dtype=np.int64)
            for row in A:
                at = rng.choice(cols, size=min(cols, int(rng.integers(1, 3))), replace=False)
                row[at] = rng.integers(1, m, at.size) * p ** rng.integers(0, 2, at.size) % m
            A[rng.choice(len(A), 2, replace=False)] = rng.integers(0, m, (2, cols))
        elif kind == "dense_large":
            A = rng.integers(0, m, (rows + 12, cols + 12)) * p ** rng.integers(0, 2, (rows + 12, cols + 12)) % m
        elif kind == "band_over_block":
            N = max(N, 2)
            A = band_over_block(rng, p, N)
        elif kind == "p_power":
            A = A * p ** int(rng.integers(1, N)) % m
        elif kind == "row_contents":
            A = A * p ** rng.integers(0, N, (rows, 1)) % m
        elif kind == "fill_in":
            N = max(N, 2)
            A = np.zeros((30, 30), dtype=np.int64)
            for row in A:
                row[rng.choice(30, 5, replace=False)] = rng.integers(1, p ** (N - 1), 5) * p + 1
        yield A, Prime(p), N


def full_profile(shape, k):
    """All k elementary-divisor exponents including zeros."""
    exps = sorted(
        list(shape.torsion_exponents) + [shape.N] * shape.free_rank_at_precision
    )
    return sorted([0] * (k - len(exps)) + exps)


class TestSnf:
    def test_diagonal(self):
        shape = snf([[5, 0], [0, 125]], Prime(5), 5)
        assert shape.torsion_exponents == (1, 3)
        assert shape.free_rank_at_precision == 0

    def test_zero_matrix(self):
        shape = snf([[0]], Prime(3), 4)
        assert shape.torsion_exponents == ()
        assert shape.free_rank_at_precision == 1

    def test_against_integer_smith_form(self):
        rng = random.Random(17)
        p, N = 3, 6
        for _ in range(25):
            k = rng.randrange(1, 5)
            rows = rng.randrange(1, 6)
            matrix = [
                [rng.randrange(0, p**N) for _ in range(k)] for _ in range(rows)
            ]
            shape = snf(matrix, Prime(p), N)
            assert full_profile(shape, k) == sympy_smith_exponents(matrix, p, N)

    @pytest.mark.parametrize("kind", SNF_KINDS + CONTENT_KINDS)
    def test_matches_reference_kernels(self, kind):
        for A, p, N in snf_inputs(kind):
            shape = snf(A, p, N)
            assert shape == reference_snf(A, p, N)
            # the sympy oracle needs a row; no rows and one zero row
            # present the same cokernel
            rows = A if len(A) else np.zeros((1, A.shape[1]), dtype=np.int64)
            assert full_profile(shape, A.shape[1]) == sympy_smith_exponents(rows.tolist(), p.p, N)

    @pytest.mark.parametrize("kind", SNF_KINDS + CONTENT_KINDS)
    def test_selftest_oracle_matches_sympy(self, kind):
        # the selftest's dense Smith form against sympy's; both need a row
        for A, p, N in snf_inputs(kind):
            rows = A.tolist() if len(A) else [[0] * A.shape[1]]
            assert _oracle_shape_exponents(rows, p.p, N) == sympy_smith_exponents(rows, p.p, N)

    @pytest.mark.parametrize("kind", LARGE_KINDS)
    def test_large_kinds_match_reference(self, kind):
        for A, p, N in snf_inputs(kind):
            assert snf(A, p, N) == reference_snf(A, p, N)

    @pytest.mark.parametrize("kind", SNF_KINDS + LARGE_KINDS + CONTENT_KINDS)
    def test_content_adds_to_every_divisor(self, kind):
        # SNF(p^k A) = p^k SNF(A): the k layers below the content pivot
        # nothing and add no divisor; a divisor reaching N is free
        for A, p, N in snf_inputs(kind):
            base = full_profile(snf(A, p, N), A.shape[1])
            for k in range(1, N):
                shape = snf(A * p.p**k % p.p**N, p, N)
                assert full_profile(shape, A.shape[1]) == sorted(min(e + k, N) for e in base), (k, N)

    def test_degenerate_shapes(self):
        rng = np.random.default_rng(31)
        tall = rng.integers(0, 3**5, (40, 3)) * 3 ** rng.integers(0, 3, (40, 3))
        tall[::3] = 0
        for A in (
            [], np.zeros((0, 5), dtype=np.int64), np.zeros((4, 0), dtype=np.int64),
            np.zeros((3, 4), dtype=np.int64), tall, 9 * np.eye(30, 2, dtype=np.int64),
        ):
            assert snf(A, Prime(3), 5) == reference_snf(A, Prime(3), 5)

    @pytest.mark.parametrize(
        "x", [2**70, -(2**70), 2**63, 2 * 3**60 + 9], ids=["2^70", "-2^70", "2^63", "2*3^60+9"]
    )
    def test_entries_beyond_int64(self, x):
        # entries of any size, inside int64 or not, give the shape of
        # their residue mod p^N
        p = Prime(3)
        assert snf([[x, 1]], p, 4) == snf([[x % 3**4, 1]], p, 4)
        assert snf([[x, 3], [0, 9]], p, 4) == snf([[x % 3**4, 3], [0, 9]], p, 4)

    def test_entries_read_as_integers(self):
        # an entry equal to an integer counts as that integer; 3.5 is not read as 3
        assert snf([[3.0, np.int64(9)]], Prime(3), 2) == snf([[3, 9]], Prime(3), 2)
        with pytest.raises(ValueError, match="3.5 is not an integer"):
            snf([[3.5]], Prime(3), 2)

    def test_ragged_rows_raise(self):
        # rows that are not sequences of one length, and a 1-D input,
        # name the first row that breaks the rule
        for A, row in (([[1, 2], [3]], "row 1 is [3]"), ([[3], [0, 9]], "row 1 is [0, 9]"), ([3, 9], "row 0 is 3")):
            with pytest.raises(ValueError, match=re.escape(f"sequences of one length: {row}")):
                snf(A, Prime(3), 4)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(23)
        for kind in SNF_KINDS:
            for matrix, p, N in snf_inputs(kind):
                base = snf(matrix, p, N)
                rp = rng.permutation(matrix.shape[0])
                cp = rng.permutation(matrix.shape[1])
                assert snf(matrix[np.ix_(rp, cp)], p, N) == base

    def test_unimodular_row_operations(self):
        rng = np.random.default_rng(29)
        for kind in SNF_KINDS:
            for matrix, p, N in snf_inputs(kind):
                if len(matrix) < 2:
                    continue
                base = snf(matrix, p, N)
                i, j = rng.choice(len(matrix), 2, replace=False)
                modified = matrix.copy()
                modified[i] = (modified[i] + int(rng.integers(1, p.p**N)) * modified[j]) % p.p**N
                assert snf(modified, p, N) == base

    @pytest.mark.parametrize(
        "p, N", [(3, 20), (5, 14), (7, 12), (3, 40), (5, 40), (7, 40)],
        ids=["3-20", "5-14", "7-12", "3-40", "5-40", "7-40"],
    )
    def test_any_precision(self, p, N):
        # beyond floor(sqrt(2^63 - 1)), the edge of the int64 oracles (one
        # above it, and N = 40): residues near p^N, and
        # U diag(1, p^3, p^(N-1), 0) V with big-integer U, V
        m = p**N
        rng = random.Random(p)
        near = [[m - rng.randrange(1, 100) for _ in range(4)] for _ in range(4)]
        U, V = ([[rng.randrange(m) for _ in range(4)] for _ in range(4)] for _ in range(2))
        diag = [1, p**3, p ** (N - 1), 0]
        UDV = [
            [sum(U[i][k] * diag[k] * V[k][j] for k in range(4)) % m for j in range(4)]
            for i in range(4)
        ]
        for matrix in (near, UDV):
            shape = snf(matrix, Prime(p), N)
            assert full_profile(shape, 4) == sympy_smith_exponents(matrix, p, N)
        # a sparse band over a p-divisible block, every entry near p^N:
        # updates in two layers on the dict rows
        banded = band_over_block(np.random.default_rng(p), p, N, near=True)
        shape = snf(banded, Prime(p), N)
        assert full_profile(shape, banded.shape[1]) == sympy_smith_exponents(banded.tolist(), p, N)

    def test_int64_oracles_stop_at_their_edge(self, p3):
        # the int64 test oracles raise rather than wrap beyond the edge
        ctx = PrecisionContext(p3, 20, 1, 4)
        with pytest.raises(ValueError, match=r"3\^20 is above 3037000499"):
            reference_snf([[1]], p3, 20)
        with pytest.raises(ValueError, match=r"3\^20 is above 3037000499"):
            reference_relation_matrix(cyclic_module(ctx, [-3, 1]), 1)
        with pytest.raises(ValueError, match=r"3\^20 is above 3037000499"):
            _euclidean_reduction_table(3, 20, 1, 2)
        assert reference_snf([[3]], p3, 19) == AbelianShape((1,), 0, 19)

    def test_log_mod_pn(self):
        shape = snf([[3, 0], [0, 27]], Prime(3), 6)
        assert shape.log_mod_pn(1) == 2
        assert shape.log_mod_pn(2) == 3
        assert shape.log_mod_pn(5) == 4


class TestCoinvariants:
    def test_pure_mu_module(self, ctx3):
        M = cyclic_module(ctx3, [9])  # p^2
        shape = coinvariants(M, 2)
        assert shape.log_torsion == 18
        assert shape.zp_rank == 0

    def test_free_module(self, ctx3):
        M = ModulePresentation(ctx3, 1, ())
        shape = coinvariants(M, 1)
        assert shape.zp_rank == 3
        assert shape.log_torsion == 0

    def test_two_variable_linear_relation(self, ctx3_d2):
        f = SeriesElement(ctx3_d2, {(1, 0): 1, (0, 0): -3})  # T1 - p
        M = ModulePresentation(ctx3_d2, 1, ((f,),))
        shape = coinvariants(M, 1)
        assert shape.log_torsion == 6  # (n+1)*p^n at n = 1
        assert shape.zp_rank == 0

    def test_structure_theorem_sum(self, ctx3):
        # M = Lambda/(p^2) + Lambda/(p) + Lambda (block diagonal)
        z = SeriesElement.zero(ctx3)
        rel1 = (poly(ctx3, [9]), z, z)
        rel2 = (z, poly(ctx3, [3]), z)
        M = ModulePresentation(ctx3, 3, (rel1, rel2))
        for n in (0, 1, 2):
            shape = coinvariants(M, n)
            assert shape.log_torsion == 3 * 3**n
            assert shape.zp_rank == 3**n

    def test_fill_in_case(self, p3):
        # mu = 2, lambda = 1 on the monomial basis: a sparse 486 x 486
        # matrix at n = 5 that fills in unless the sparsest rows pivot first
        ctx = PrecisionContext(p3, 12, 1, 30)
        z = SeriesElement.zero(ctx)
        M = ModulePresentation(ctx, 2, (
            (poly(ctx, [9]), poly(ctx, [1, 1])),
            (z, poly(ctx, [-3 * 7, 1])),
        ))
        shape = coinvariants(M, 5)
        assert (shape.log_torsion, shape.zp_rank) == (2 * 3**5 + 6, 0)
        assert shape == reference_snf(reference_relation_matrix(M, 5), p3, 12)

    def test_dimension_bound(self, ctx3):
        M = cyclic_module(ctx3, [9])
        with pytest.raises(DimensionOverflow):
            coinvariants(M, 2, dimension_bound=5)

    def test_negative_level(self, ctx3):
        with pytest.raises(ValueError, match="n must be >= 0, got -1"):
            coinvariants(cyclic_module(ctx3, [-3, 1]), -1)

    def test_relation_matrix_matches_reference(self):
        # seeded modules with zero entries and terms of degree >= p^n,
        # up to d = 3 and 3 generators
        rng = random.Random(53)
        for _ in range(60):
            d, k, p = rng.randrange(1, 4), rng.randrange(1, 4), rng.choice([3, 5])
            n = rng.randrange(0, 3 if d == 1 else 2)
            ctx = PrecisionContext(Prime(p), rng.randrange(2, 9), d, 30)
            q = p**n

            def entry():
                if rng.random() < 0.3:
                    return SeriesElement.zero(ctx)
                return SeriesElement(ctx, {
                    tuple(rng.randrange(0, q + 3) for _ in range(d)): rng.randrange(ctx.modulus)
                    for _ in range(rng.randrange(1, 4))
                })

            relations = tuple(
                tuple(entry() for _ in range(k)) for _ in range(rng.randrange(0, 4))
            )
            M = ModulePresentation(ctx, k, relations)
            # the level-n moduli of every module without a monic annihilator
            moduli = dict.fromkeys(range(d), omega_int_coeffs(p, n))
            sparse = _relation_rows(rows_of(M), k, moduli, ctx.modulus)
            dense = np.zeros(sparse.shape, dtype=np.int64)
            for i, row in enumerate(sparse.rows):
                assert all(row.values()), row
                dense[i, list(row)] = list(row.values())
            assert np.array_equal(dense, reference_relation_matrix(M, n))


def annihilated_module(rng, d, k, p, N, degrees):
    """A seeded square presentation whose determinant is a unit times a
    monic polynomial in one variable T_j: an upper triangular matrix with
    diagonal entries in T_j of the given degrees and unit leading
    coefficients, entries above the diagonal in every variable with
    exponents up to 7, and rows mixed by a unimodular scalar matrix."""
    ctx = PrecisionContext(Prime(p), N, d, 30)
    j = rng.randrange(d)

    def diagonal(deg):
        coeffs = [rng.randrange(ctx.modulus) for _ in range(deg)]
        return SeriesElement.univariate(ctx, coeffs + [rng.randrange(1, p)], j)

    def above():
        return SeriesElement(ctx, {
            tuple(rng.randrange(8) for _ in range(d)): rng.randrange(ctx.modulus)
            for _ in range(rng.randrange(0, 3))
        })

    rows = [
        [diagonal(deg) if g == i else above() if g > i else SeriesElement.zero(ctx) for g in range(k)]
        for i, deg in enumerate(degrees)
    ]
    for i in range(1, k):  # row_i += c * row_t for t < i: determinant unchanged
        for t in range(i):
            c = SeriesElement.constant(ctx, rng.randrange(ctx.modulus))
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[t])]
    rng.shuffle(rows)
    return ModulePresentation(ctx, k, tuple(tuple(row) for row in rows))


class TestReducedCoinvariants:
    def test_matches_monomial_oracle(self):
        # seeded modules with a monic annihilator h(T_j): coinvariants on
        # the reduced basis equal the SNF of the full monomial matrix
        rng = random.Random(61)
        reduced = empty = high = 0
        for case in range(80):
            d, k, p = rng.randrange(1, 4), rng.randrange(1, 4), rng.choice([3, 5])
            n = rng.randrange(1, 4 if d == 1 else 3)
            while k * p ** (n * d) > 250:
                n -= 1
            degrees = [0] * k if case % 10 == 0 else [rng.randrange(1, 3) for _ in range(k)]
            M = annihilated_module(rng, d, k, p, rng.randrange(2, 9), degrees)
            j, h = _annihilator(rows_of(M), k, M.context)
            assert len(h) - 1 == sum(degrees)
            if len(h) - 1 < p**n:
                reduced += 1
                empty += len(h) == 1
                high += len(h) > 1 and any(
                    e[j] >= len(h) - 1 for row in M.relations for x in row for e in x.coefficients
                )
            ctx = M.context
            want = reference_snf(reference_relation_matrix(M, n), ctx.p, ctx.N)
            assert coinvariants(M, n) == want, (case, d, k, p, n, degrees)
        assert reduced >= 50 and empty >= 6 and high >= 35, (reduced, empty, high)

    def test_level_rows_at_p5_and_p7(self):
        # the level rows w_n(C_h) come from n successive p-th powers of
        # I + C_h, which test_matches_monomial_oracle runs at p = 3 and 5
        # only: here deg h >= 2 at p = 5 and 7, N <= 11 so that the
        # monomial oracle stays within int64
        rng = random.Random(63)
        sevens = 0
        for case in range(36):
            d, k, p = rng.randrange(1, 3), rng.randrange(1, 3), rng.choice([5, 7])
            n = rng.randrange(1, 3) if d == 1 else 1
            degrees = [rng.randrange(1, 3) for _ in range(k)]
            degrees[0] += sum(degrees) < 2
            M = annihilated_module(rng, d, k, p, rng.randrange(2, 12), degrees)
            j, h = _annihilator(rows_of(M), k, M.context)
            assert 2 <= len(h) - 1 == sum(degrees) < p**n
            sevens += p == 7
            ctx = M.context
            want = reference_snf(reference_relation_matrix(M, n), ctx.p, ctx.N)
            assert coinvariants(M, n) == want, (case, d, k, p, n, degrees)
        assert sevens >= 12, sevens

    def test_truncated_determinant_is_not_used(self, p3):
        # ((g, 3), (0, g)), g = T^2 + T + 3, has no unit entry and is one
        # summand, so coinvariants reach _annihilator: det = g^2 =
        # T^4 + 2T^3 + 7T^2 + 6T + 9.  At D = 3 the row degrees sum to 4,
        # so char_poly refuses the truncated 2T^3 + ..., which would lead
        # with a unit but annihilate nothing; the determinant of the
        # integer rows is exact at both D
        for D in (3, 4):
            ctx = PrecisionContext(p3, 4, 1, D)
            g, z = poly(ctx, [3, 1, 1]), SeriesElement.zero(ctx)
            M = ModulePresentation(ctx, 2, ((g, poly(ctx, [3])), (z, g)))
            if D == 3:
                with pytest.raises(DegreeOverflow):
                    char_poly(M.relation_matrix())
            assert _annihilator(rows_of(M), 2, ctx) == (0, [9, 6, 7, 2, 1])
            want = reference_snf(reference_relation_matrix(M, 2), p3, 4)
            assert want.torsion_exponents == (3, 3)
            assert coinvariants(M, 2) == want

    def test_determinant_past_d_reduces_the_basis(self, p3):
        # ((T^2, 3), (3, T^2)) at D = 3: det = T^4 - 9, whose row degrees
        # sum past D, is the annihilator, so level 2 needs 2 * 4 basis
        # elements, not 2 * 3^2
        ctx = PrecisionContext(p3, 8, 1, 3)
        M = ModulePresentation(ctx, 2, ((poly(ctx, [0, 0, 1]), poly(ctx, [3])), (poly(ctx, [3]), poly(ctx, [0, 0, 1]))))
        assert M._parts[0][3] == (0, [3**8 - 9, 0, 0, 0, 1])
        want = reference_snf(reference_relation_matrix(M, 2), p3, 8)
        assert want.log_torsion == 11
        assert coinvariants(M, 2, dimension_bound=8) == want

    def test_annihilator_beyond_eight_generators(self, p3):
        # (T - 3) e_i + 3 e_(i+1) (i < 8) and (T - 3) e_8: one summand with
        # no unit entry, whose determinant (T - 3)^9 is monic; at n = 3 its
        # 9 generators expand on 9 monomials each, not 27, so the basis is
        # 81 where the level element alone would give 243
        ctx = PrecisionContext(p3, 8, 1, 16)
        f, three, z = poly(ctx, [-3, 1]), poly(ctx, [3]), SeriesElement.zero(ctx)
        M = ModulePresentation(ctx, 9, tuple(
            tuple(f if g == i else three if g == i + 1 else z for g in range(9)) for i in range(9)))
        assert _annihilator(rows_of(M), 9, ctx) == (0, [comb(9, i) * (-3) ** (9 - i) % 3**8 for i in range(10)])
        assert coinvariants(M, 3, dimension_bound=81) == AbelianShape((4,) * 9, 0, 8)
        for n in range(4):
            assert coinvariants(M, n) == reference_snf(reference_relation_matrix(M, n), p3, 8), n

    def test_cyclic_matches_resultant_oracle(self):
        # Lambda_1/(f) with mu = 0 and a unit leading coefficient
        rng = random.Random(67)
        tried = 0
        for _ in range(24):
            p = rng.choice([3, 5])
            ctx = PrecisionContext(Prime(p), rng.randrange(4, 9), 1, 30)
            deg = rng.randrange(1, 5)
            f = poly(ctx, [rng.randrange(ctx.modulus) for _ in range(deg)] + [rng.randrange(1, p)])
            M = ModulePresentation(ctx, 1, ((f,),))
            for n in range(1, 4):
                try:
                    oracle = torsion_size_resultant_oracle(f, n)
                except PrecisionExhausted:
                    continue
                shape = coinvariants(M, n)
                if shape.zp_rank:
                    continue
                assert shape.log_torsion == oracle
                tried += 1
        assert tried >= 30

    def test_closed_forms_beyond_the_monomial_basis(self, p3):
        # Lambda/(T - 21), N = 19: v(22^(3^10) - 1) = 11 on one column
        ctx = PrecisionContext(p3, 19, 1, 30)
        assert coinvariants(cyclic_module(ctx, [-21, 1]), 10).torsion_exponents == (11,)
        # Lambda_2/(T1 - 3u), N = 8: (n + 1) * 3^n on 3^n columns, where
        # the monomial basis would have 3^(2n)
        ctx = PrecisionContext(p3, 8, 2, 30)
        f = SeriesElement(ctx, {(1, 0): 1, (0, 0): -3 * 7})
        M = ModulePresentation(ctx, 1, ((f,),))
        shape = coinvariants(M, 5)
        assert (shape.log_torsion, shape.zp_rank) == (6 * 3**5, 0)
        with pytest.raises(DimensionOverflow, match="basis size 243 exceeds bound 242"):
            coinvariants(M, 5, dimension_bound=242)
        # diag(T1 - p) on 3 generators: 3 * 5 * 3^4 on 243 columns at n = 4
        g = SeriesElement(ctx, {(1, 0): 1, (0, 0): -3})
        z = SeriesElement.zero(ctx)
        diag = ModulePresentation(ctx, 3, ((g, z, z), (z, g, z), (z, z, g)))
        assert coinvariants(diag, 4).log_torsion == 3 * 5 * 3**4


def summed_module(rng, d, k, p, N):
    """A seeded direct sum of blocks on a shuffled partition of the k
    generators, with all-zero relations mixed in and the rows shuffled.
    The module uses at most a seeded set U of 0, 1, 2 or d variables and
    each block a seeded subset V of U.  A block is free (no relations),
    constant (upper triangular with diagonal p^mu, as Lambda/(p^mu) on one
    generator), annihilated (upper triangular with diagonal entries in
    one variable of V and unit leading coefficients, rows mixed by a
    unimodular scalar matrix) or mixed (entries p*c plus terms in V)."""
    ctx = PrecisionContext(Prime(p), N, d, 30)
    U = rng.sample(range(d), rng.choice([u for u in (0, 1, 2, d) if u <= d]))
    zero = SeriesElement.zero(ctx)

    def element(V, constant):
        coeffs = {(0,) * d: constant}
        for _ in range(rng.randrange(0, 3) if V else 0):
            exps = tuple(rng.randrange(1, 4) if v in V else 0 for v in range(d))
            coeffs[exps] = coeffs.get(exps, 0) + rng.randrange(ctx.modulus)
        return SeriesElement(ctx, coeffs)

    def block_rows(kind, s, V):
        if kind == "free":
            return []
        if kind == "mixed":
            return [[element(V, p * rng.randrange(ctx.modulus)) for _ in range(s)] for _ in range(rng.randrange(1, s + 2))]
        j = rng.choice(V) if V else 0
        rows = []
        for i in range(s):
            if kind == "constant":
                diagonal = SeriesElement.constant(ctx, p ** rng.randrange(1, 3))
            else:
                deg = rng.randrange(1, 3) if V else 0
                coeffs = [rng.randrange(ctx.modulus) for _ in range(deg)] + [rng.randrange(1, p)]
                diagonal = SeriesElement.univariate(ctx, coeffs, j)
            above = [element(V if kind != "constant" else [], rng.randrange(ctx.modulus)) for _ in range(s)]
            rows.append([diagonal if g == i else above[g] if g > i and rng.random() < 0.6 else zero for g in range(s)])
        for i in range(1, s):  # row_i += c * row_t for t < i: determinant unchanged
            for t in range(i):
                c = SeriesElement.constant(ctx, rng.randrange(ctx.modulus))
                rows[i] = [a + c * b for a, b in zip(rows[i], rows[t])]
        return rows

    order, relations = rng.sample(range(k), k), []
    while order:
        cut = rng.randrange(1, len(order) + 1)
        gens, order = order[:cut], order[cut:]
        V = U if rng.random() < 0.6 else [v for v in U if rng.random() < 0.5]
        for row in block_rows(rng.choice(["free", "constant", "annihilated", "mixed"]), len(gens), V):
            full = [zero] * k
            for g, x in zip(gens, row):
                full[g] = x
            relations.append(tuple(full))
    relations += [(zero,) * k] * rng.randrange(0, 2)
    rng.shuffle(relations)
    return ModulePresentation(ctx, k, tuple(relations))


class TestSummands:
    def test_matches_monomial_oracle(self):
        # seeded direct sums: coinvariants taken summand by summand, over
        # the variables each uses, equal the SNF of the full monomial matrix
        rng = random.Random(71)
        seen = dict.fromkeys(
            ["split", "zero_row", "free", "constant", "reduced", "unreduced", "copies", "uses0", "uses1", "uses2"], 0
        )
        for case in range(160):
            d, k, p = rng.choice([1, 2, 3, 3]), rng.randrange(1, 4), rng.choice([3, 5])
            n = rng.randrange(0, 4 if d == 1 else 3)
            while k * p ** (n * d) > 250:
                n -= 1
            M = summed_module(rng, d, k, p, rng.randrange(2, 9))
            ctx = M.context
            parts = _summands(rows_of(M), k)
            used = {v for row in M.relations for x in row for e in x.coefficients for v in range(d) if e[v]}
            seen["split"] += len(parts) > 1
            seen["zero_row"] += any(not any(x.coefficients for x in row) for row in M.relations)
            seen["copies"] += n > 0 and len(used) < d
            if d == 3 and len(used) < 3:
                seen[f"uses{len(used)}"] += 1
            for rows, s in parts:
                ann = _annihilator(rows, s, ctx)
                seen["free"] += not rows
                seen["constant"] += bool(rows) and all(not any(e) for row in rows for x in row for e in x)
                seen["reduced"] += bool(ann) and 1 < len(ann[1]) <= p**n
                seen["unreduced"] += bool(rows) and not ann
            want = reference_snf(reference_relation_matrix(M, n), ctx.p, ctx.N)
            assert coinvariants(M, n) == want, (case, d, k, p, n, M.relations)
        assert min(seen.values()) >= 8, seen

    def test_bound_sums_the_summands(self, p3):
        # diag(p, T - p): the summed basis 3^n + 1 is within a bound that
        # the 2 * 3^n monomial basis of the whole presentation exceeds
        ctx = PrecisionContext(p3, 8, 1, 30)
        z = SeriesElement.zero(ctx)
        M = ModulePresentation(ctx, 2, ((poly(ctx, [3]), z), (z, poly(ctx, [-3, 1]))))
        want = reference_snf(reference_relation_matrix(M, 3), p3, 8)
        assert want.torsion_exponents == (1,) * 27 + (4,)
        assert coinvariants(M, 3, dimension_bound=28) == want
        assert not tower(M, 3, dimension_bound=28)[3].flags
        with pytest.raises(DimensionOverflow, match="basis size 28 exceeds bound 27"):
            coinvariants(M, 3, dimension_bound=27)

    def test_memory_error_names_the_matrix_built(self, monkeypatch, ctx3_d2):
        # ((p, T1), (0, p)) uses T1 alone: at n = 2 the matrix built is
        # 2 * 3^2 square, not the 2 * 3^4 of the basis bound
        p, z = SeriesElement.constant(ctx3_d2, 3), SeriesElement.zero(ctx3_d2)
        M = ModulePresentation(ctx3_d2, 2, ((p, SeriesElement.variable(ctx3_d2, 0)), (z, p)))

        def refuse(*args):
            raise MemoryError

        monkeypatch.setattr(iwatower.modules, "_relation_rows", refuse)
        with pytest.raises(DimensionOverflow, match=r"the 18 x 18 relation matrix does not fit in memory"):
            coinvariants(M, 2)

    def test_split_mu_module_needs_no_large_matrix(self):
        # diag(p) on 3 generators at d = 2 is three summands Lambda_2/(p)
        # that use no variable: three 1 x 1 SNFs in place of one on
        # 19,683 columns at n = 4
        ctx = PrecisionContext(Prime(3), 8, 2, 30)
        p, z = SeriesElement.constant(ctx, 3), SeriesElement.zero(ctx)
        M = ModulePresentation(ctx, 3, ((p, z, z), (z, p, z), (z, z, p)))
        start = time.perf_counter()
        shape = coinvariants(M, 4)
        elapsed = time.perf_counter() - start
        assert (shape.torsion_exponents, shape.free_rank_at_precision) == ((1,) * 19683, 0)
        assert elapsed < 0.5, elapsed


def content_module(rng, d, k, p, N):
    """A seeded presentation p^mu A with mu from 1 to N - 1 (N - 1 in
    half the cases, so that divisors spill into free rank), or, for
    k >= 2 at times, the direct sum of such a block and one with mu = 0,
    rows shuffled.  Each block uses a seeded set V of variables.  It is
    a unit (upper triangular, unit constants on the diagonal),
    annihilated (upper triangular, a distinguished polynomial in one
    T_j on the diagonal) or generic: one relation more than generators,
    so it has no determinant and stays on the monomial basis."""
    ctx = PrecisionContext(Prime(p), N, d, 30)
    zero = SeriesElement.zero(ctx)

    def element(V, constant):
        coeffs = {(0,) * d: constant}
        for _ in range(rng.randrange(0, 3)):
            exps = tuple(rng.randrange(3) if v in V else 0 for v in range(d))
            coeffs[exps] = coeffs.get(exps, 0) + rng.randrange(ctx.modulus)
        return SeriesElement(ctx, coeffs)

    def block_rows(kind, s, V):
        if kind == "generic":
            return [[element(V, rng.randrange(ctx.modulus)) for _ in range(s)] for _ in range(s + 1)]
        j = rng.choice(V)
        rows = []
        for i in range(s):
            if kind == "unit":
                diagonal = SeriesElement.constant(ctx, rng.randrange(1, p) + p * rng.randrange(ctx.modulus))
            else:
                coeffs = [p * rng.randrange(ctx.modulus) for _ in range(rng.randrange(1, 3))]
                diagonal = SeriesElement.univariate(ctx, coeffs + [rng.randrange(1, p)], j)
            rows.append([diagonal if g == i else element(V, rng.randrange(ctx.modulus)) if g > i else zero for g in range(s)])
        return rows

    cut = rng.randrange(1, k) if k > 1 and rng.random() < 0.4 else k
    relations, offset = [], 0
    for s, mu in ((cut, rng.choice([rng.randrange(1, N), N - 1])), (k - cut, 0)):
        if not s:
            continue
        kind = rng.choice(["unit", "annihilated", "generic"])
        V = rng.sample(range(d), rng.randrange(1, d + 1))
        rows = block_rows(kind, s, V)
        relations += [(zero,) * offset + tuple(x.scale(p**mu) for x in row) + (zero,) * (k - offset - s) for row in rows]
        offset += s
    rng.shuffle(relations)
    return ModulePresentation(ctx, k, tuple(relations))


class TestContent:
    def test_matches_monomial_oracle(self):
        # seeded p^mu A: the divisors of A's coinvariants, on whatever
        # basis A takes, shifted by mu, equal the SNF of the full
        # monomial matrix of p^mu A
        rng = random.Random(79)
        seen = dict.fromkeys(["unit", "reduced", "monomial", "copies", "spill", "beside_mu_0"], 0)
        for case in range(100):
            d, k, p = rng.choice([1, 2, 3, 3]), rng.randrange(1, 4), rng.choice([3, 5])
            n = rng.randrange(0, 4 if d == 1 else 3)
            while k * p ** (n * d) > 250:
                n -= 1
            M = content_module(rng, d, k, p, rng.randrange(2, 9))
            ctx = M.context
            mus = [mu for E, _, mu, _, _ in M._parts if E is None or E[0]]
            seen["beside_mu_0"] += 0 in mus and max(mus) > 0
            for E, _, mu, ann, used in M._parts:
                if not mu:
                    continue
                reduced = ann is not None and len(ann[1]) <= p**n
                seen["unit"] += E is None
                seen["reduced"] += reduced and len(ann[1]) > 1
                seen["monomial"] += E is not None and not reduced
                seen["copies"] += n > 0 and len(used | ({ann[0]} if reduced else set())) < d
                seen["spill"] += E is not None and any(
                    e + mu >= ctx.N for e in coinvariants(presented(ctx, E), n).torsion_exponents
                )
            want = reference_snf(reference_relation_matrix(M, n), ctx.p, ctx.N)
            assert coinvariants(M, n) == want, (case, d, k, p, n, M.relations)
        assert min(seen.values()) >= 8, seen

    def test_closed_form_on_one_column(self, monkeypatch, p3):
        # Lambda/(p^2 (T - p)), N = 16: p^2 times Lambda/(T - p), whose
        # coinvariants are Z/p^(n+1) on one column; the 3^n - 1 unit
        # divisors become p^2, where the monomial basis has 3^n columns
        shapes = []
        real = iwatower.modules.snf

        def recording(matrix, p, N):
            shapes.append(matrix.shape)
            return real(matrix, p, N)

        monkeypatch.setattr(iwatower.modules, "snf", recording)
        ctx = PrecisionContext(p3, 16, 1, 30)
        M = cyclic_module(ctx, [-27, 9])
        for n in range(10):
            shape = coinvariants(M, n)
            assert shape.torsion_exponents == (2,) * (3**n - 1) + (n + 3,), n
            assert shape.free_rank_at_precision == 0
        assert shapes and max(cols for _, cols in shapes) == 1, shapes


def stabilised(rng, B, s, D=30):
    """B on s more generators x_t, in a context truncated at D.  x_t is
    tied by one relation u x_t + (entries on B's generators and x_0 ..
    x_(t-1)), with the pivot u 1, another unit constant, 1 + T_j or a
    unit constant plus terms in p Lambda, which expresses x_t in the
    others, so the module is still B.  The rows are then mixed by a
    unimodular constant matrix and the generators shuffled."""
    ctx = PrecisionContext(B.context.p, B.context.N, B.context.d, D)
    p, m, d, k = ctx.p.p, ctx.modulus, ctx.d, B.generators
    zero = SeriesElement.zero(ctx)

    def pivot():
        kind, c, j = rng.randrange(4), rng.randrange(1, p) + p * rng.randrange(m), rng.randrange(d)
        if kind < 2:
            return SeriesElement.constant(ctx, 1 if kind == 0 else c)
        if kind == 2:
            return SeriesElement.constant(ctx, 1) + SeriesElement.variable(ctx, j)
        return SeriesElement(ctx, {(0,) * d: c, tuple(1 + rng.randrange(2) * (v == j) for v in range(d)): p * rng.randrange(m)})

    def entry():
        coeffs = {(0,) * d: rng.choice([0, rng.randrange(m), p * rng.randrange(m)])}
        for _ in range(rng.randrange(0, 3)):
            coeffs[tuple(rng.randrange(3) for _ in range(d))] = rng.randrange(m)
        return SeriesElement(ctx, coeffs) if rng.random() < 0.7 else zero

    rows = [[SeriesElement(ctx, x.coefficients) for x in row] + [zero] * s for row in B.relations]
    for t in range(s):
        rows.append([entry() for _ in range(k + t)] + [pivot()] + [zero] * (s - t - 1))
    for _ in range(len(rows) - 1):  # row_i += c * row_t, i != t: unimodular
        i, t = rng.sample(range(len(rows)), 2)
        c = SeriesElement.constant(ctx, rng.randrange(m))
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[t])]
    order = rng.sample(range(k + s), k + s)
    rng.shuffle(rows)
    return ModulePresentation(ctx, k + s, tuple(tuple(row[g] for g in order) for row in rows))


def has_unit_entry(rows, ctx):
    zero = (0,) * ctx.d
    return any(x.get(zero, 0) % ctx.p.p for row in rows for x in row)


class TestUnitPivots:
    def test_matches_monomial_oracle(self):
        # seeded presentations of a helper module B on more generators:
        # after unit-pivot elimination their coinvariants equal both the
        # SNF of the full monomial matrix and the coinvariants of B
        rng = random.Random(83)
        seen = dict.fromkeys(["non_constant", "mu_after", "zero", "chain", "beyond_D"], 0)
        for case in range(120):
            d, p = rng.choice([1, 1, 2]), rng.choice([3, 5])
            kind = rng.choice(["summed", "content", "content", "annihilated"])
            k, s = rng.randrange(1, 3), rng.randrange(1, 3)
            N = rng.randrange(2, 9 if p == 3 else 7)
            if kind == "summed":
                B = summed_module(rng, d, k, p, N)
            elif kind == "content":
                B = content_module(rng, d, k, p, N)
            else:
                B = annihilated_module(rng, d, k, p, N, [0 if rng.random() < 0.4 else rng.randrange(1, 3) for _ in range(k)])
            D = 30 if kind == "annihilated" or rng.random() < 0.4 else 2 if kind == "content" else 3
            M = stabilised(rng, B, s, D)
            n = rng.randrange(0, 4 if d == 1 else 3)
            while (k + s) * p ** (n * d) > 250:
                n -= 1
            ctx = M.context
            rows, left = _eliminated(rows_of(M), M.generators, ctx)
            gone = M.generators - left
            zero = (0,) * d
            units = [x for row in M.relations for x in row if x.coefficient(zero) % p]
            seen["non_constant"] += gone > 0 and all(len(x.coefficients) > 1 for x in units)
            seen["mu_after"] += any(mu for _, _, mu, _, _ in M._parts) and all(
                any(c % p for r in S for x in r for c in x.values()) for S, _ in _summands(rows_of(M), M.generators) if S
            )
            seen["zero"] += left == 0
            seen["chain"] += gone >= 2
            assert not has_unit_entry(rows, ctx), (case, M.relations)
            seen["beyond_D"] += any(max(e) > D for row in rows for x in row for e in x)
            want = reference_snf(reference_relation_matrix(M, n), ctx.p, ctx.N)
            assert coinvariants(M, n) == want == coinvariants(B, n), (case, kind, d, k, s, p, n, M.relations)
        assert min(seen.values()) >= 8, seen

    def test_minimal_generator_count(self):
        # at any degree cap D, even one that the products of a pivot
        # pass, no pivot is left, and the generators that remain are as
        # few as Nakayama allows: k - rank over F_p of the constant terms A(0)
        rng = random.Random(89)
        for case in range(200):
            d, k, p, D = rng.choice([1, 2]), rng.randrange(1, 5), rng.choice([3, 5]), rng.choice([1, 2, 3, 30])
            ctx = PrecisionContext(Prime(p), rng.randrange(2, 6), d, D)

            def entry():
                coeffs = {(0,) * d: rng.choice([0, 1, rng.randrange(ctx.modulus), p * rng.randrange(ctx.modulus)])}
                for _ in range(rng.randrange(0, 3)):
                    coeffs[tuple(rng.randrange(min(D, 3) + 1) for _ in range(d))] = rng.randrange(ctx.modulus)
                return SeriesElement(ctx, coeffs) if rng.random() < 0.6 else SeriesElement.zero(ctx)

            M = ModulePresentation(ctx, k, tuple(tuple(entry() for _ in range(k)) for _ in range(rng.randrange(0, k + 2))))
            A0 = [[x.coefficient((0,) * d) % p for x in row] for row in M.relations]
            rank = 0
            for g in range(k):  # row echelon form mod p, column by column
                r = next((r for r in range(rank, len(A0)) if A0[r][g]), None)
                if r is None:
                    continue
                A0[rank], A0[r] = A0[r], A0[rank]
                inv = pow(A0[rank][g], -1, p)
                for t in range(rank + 1, len(A0)):
                    f = A0[t][g] * inv
                    A0[t] = [(a - f * b) % p for a, b in zip(A0[t], A0[rank])]
                rank += 1
            rows, left = _eliminated(rows_of(M), k, ctx)
            assert left == k - rank, (case, M.relations)
            assert not has_unit_entry(rows, ctx), (case, M.relations)
            assert (rows == rows_of(M)) == (rank == 0)

    def test_divided_summand_is_eliminated(self, monkeypatch):
        # Lambda_2/(3 (1 + T1 + T2)) has no unit entry, but its divided
        # summand Lambda_2/(1 + T1 + T2) is 0: its 9^n divisors are all 3,
        # with no Smith form
        shapes = []
        real = iwatower.modules.snf

        def recording(matrix, p, N):
            shapes.append(matrix.shape)
            return real(matrix, p, N)

        monkeypatch.setattr(iwatower.modules, "snf", recording)
        ctx = PrecisionContext(Prime(3), 8, 2, 30)
        M = ModulePresentation(ctx, 1, ((SeriesElement(ctx, {(0, 0): 3, (1, 0): 3, (0, 1): 3}),),))
        assert M._parts == [(None, 1, 1, None, set())]
        for n in range(3):
            assert coinvariants(M, n) == AbelianShape((1,) * 9**n, 0, 8)
        assert not shapes, shapes

    def test_degrees_grow_linearly(self):
        # entries after t pivots are (t+1)-minors, of degree <= (t+1) D:
        # diag(f, .., f, 3) and the chain with T1 below its diagonal,
        # f = 1 + T1 + T2 twelve times, take 12 polynomial pivots
        # (products u r - r[g] r_i alone would reach f^(2^11)) and leave the
        # one entry 3 f^12, the determinant, so the module is Lambda_2/(3);
        # a dense A(0) + T1 B + T2 C with rank_Fp A(0) = k - 2 leaves two
        # generators of degree <= k - 1
        ctx = PrecisionContext(Prime(3), 8, 2, 1)
        f, z = SeriesElement(ctx, {(0, 0): 1, (1, 0): 1, (0, 1): 1}), SeriesElement.zero(ctx)
        T1, three = SeriesElement.variable(ctx, 0), SeriesElement.constant(ctx, 3)
        wide = PrecisionContext(Prime(3), 8, 2, 12)
        det = SeriesElement.constant(wide, 3)
        for _ in range(12):
            det = det * SeriesElement(wide, f.coefficients)
        for below in (z, T1):
            M = ModulePresentation(ctx, 13, tuple(
                tuple((f if i < 12 else three) if g == i else below if g == i - 1 else z for g in range(13)) for i in range(13)))
            assert _eliminated(rows_of(M), 13, ctx) == ([[det.coefficients]], 1)
            for n in range(3):
                assert coinvariants(M, n) == AbelianShape((1,) * 9**n, 0, 8), n
        rng, k = random.Random(97), 7
        M = ModulePresentation(ctx, k, tuple(tuple(SeriesElement(ctx, {
            (0, 0): int(i == g < k - 2) + 3 * rng.randrange(9), (1, 0): rng.randrange(9), (0, 1): rng.randrange(9),
        }) for g in range(k)) for i in range(k)))
        rows, left = _eliminated(rows_of(M), k, ctx)
        assert left == 2 and not has_unit_entry(rows, ctx)
        assert max(max(e) for row in rows for x in row for e in x) <= k - 1
        want = reference_snf(reference_relation_matrix(M, 1), ctx.p, ctx.N)
        assert coinvariants(M, 1) == want

    def test_rank_settles_the_zero_module(self, monkeypatch):
        # a dense A(0) + T1 B + T2 C with A(0) = I mod 3 on 18 generators,
        # and diag(f) and the chain with T1 below f, f = 1 + T1 + T2, on 12,
        # are 0: A(0) has rank k over F_p, found by minors on the constant
        # terms alone, so no polynomial pivot is taken and no matrix built
        entries = []
        real = iwatower.modules.minors

        def recording(rows, accept):
            entries.extend(x for row in rows for x in row)
            return real(rows, accept)

        monkeypatch.setattr(iwatower.modules, "minors", recording)
        ctx = PrecisionContext(Prime(3), 8, 2, 1)
        rng, k = random.Random(101), 18
        dense = ModulePresentation(ctx, k, tuple(tuple(SeriesElement(ctx, {
            (0, 0): int(i == g) + 3 * rng.randrange(3**7), (1, 0): rng.randrange(3**8), (0, 1): rng.randrange(3**8),
        }) for g in range(k)) for i in range(k)))
        f, z = SeriesElement(ctx, {(0, 0): 1, (1, 0): 1, (0, 1): 1}), SeriesElement.zero(ctx)
        chains = [ModulePresentation(ctx, 12, tuple(
            tuple(f if g == i else below if g == i - 1 else z for g in range(12)) for i in range(12)))
            for below in (z, SeriesElement.variable(ctx, 0))]
        for M in [dense] + chains:
            assert M._parts == []
            assert coinvariants(M, 2, dimension_bound=0) == AbelianShape((), 0, 8)
            assert all(t.log_torsion == t.zp_rank == 0 and not t.flags for t in tower(M, 2, dimension_bound=0))
        assert len(entries) == k * k + 2 * 12 * 12
        assert all(not any(e) for x in entries for e in x), entries

    def test_no_pivot_returns_the_module_itself(self):
        # d2_tower's Lambda_2/(T1 - 3u) and Lambda_2/(p), the connected mu > 0
        # chain and test_memory_error_flagged's module have no unit entry:
        # no pivot leaves the rows and the generator count unchanged
        ctx = PrecisionContext(Prime(3), 8, 2, 30)
        T1, T2 = SeriesElement.variable(ctx, 0), SeriesElement.variable(ctx, 1)
        p, z = SeriesElement.constant(ctx, 3), SeriesElement.zero(ctx)
        monomial = lambda a, b: SeriesElement(ctx, {(a, b): 1})
        for M in (
            ModulePresentation(ctx, 1, ((T1 - SeriesElement.constant(ctx, 3 * 7),),)),
            ModulePresentation(ctx, 1, ((p,),)),
            ModulePresentation(ctx, 3, ((p, T1, z), (z, p, T2), (z, z, p))),
            ModulePresentation(ctx, 1, ((T1,), (T2,), (monomial(30, 30),), (monomial(30, 29),), (monomial(29, 30),))),
        ):
            rows = rows_of(M)
            assert _eliminated(rows, M.generators, ctx) == (rows, M.generators)


class TestTower:
    def test_linear_relation(self, ctx3):
        M = cyclic_module(ctx3, [-3, 1])  # T - p
        data = tower(M, 3)
        assert [t.log_torsion for t in data] == [1, 2, 3, 4]
        assert all(t.zp_rank == 0 for t in data)
        assert all(not t.flags for t in data)

    def test_pure_mu(self, ctx3):
        M = cyclic_module(ctx3, [3])
        data = tower(M, 3)
        assert [t.log_torsion for t in data] == [1, 3, 9, 27]

    def test_zero_module(self, ctx3):
        one = SeriesElement.constant(ctx3, 1)
        M = ModulePresentation(ctx3, 1, ((one,),))
        data = tower(M, 3)
        assert all(t.log_torsion == 0 and t.zp_rank == 0 for t in data)

    def test_precision_flagging(self, p3):
        ctx = PrecisionContext(p3, 3, 1, 30)
        M = ModulePresentation(ctx, 1, ((poly(ctx, [9]),),))  # exponent 2 = N - 1
        data = tower(M, 1)
        assert all(t.flags == ("PrecisionMargin",) for t in data)

    def test_negative_n_max_rejected(self, ctx3):
        with pytest.raises(ValueError, match="n_max must be >= 0, got -1"):
            tower(cyclic_module(ctx3, [-3, 1]), -1)

    def test_overflow_flagged_not_raised(self, ctx3):
        M = cyclic_module(ctx3, [9])
        data = tower(M, 5, dimension_bound=30)
        assert data[4].flags == ("DimensionOverflow",)

    @pytest.mark.skipif(sys.platform != "linux", reason="needs Linux RLIMIT_AS")
    def test_memory_error_flagged(self, tmp_path):
        # Lambda_2/(T1, T2, T1^30 T2^30, T1^30 T2^29, T1^29 T2^30) = Z_p on
        # one generator: basis 6,561 at n = 4, within DEFAULT_DIMENSION_BOUND.
        # The T1 and T2 rows pivot on single units, so levels 0-3 take a few
        # seconds, but at n = 4 each of the last three relations has ~900
        # rows of up to 6,561 nonzeros mod 3^16, which do not fit under 1 GiB
        # of address space beyond the imports (the whole level needs about
        # 2.7 GB)
        module = tmp_path / "dense.txt"
        module.write_text(
            "p: 3\nN: 16\nd: 2\nD: 30\ngenerators: 1\nrelation: T1\nrelation: T2\n"
            "relation: T1^30*T2^30\nrelation: T1^30*T2^29\nrelation: T1^29*T2^30\n"
        )
        proc = run_under_address_limit(["tower", str(module), "--n-max", "4"], 2**30)
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout.splitlines()[-1] == "4\t0\t0\t0\tDimensionOverflow"

    @pytest.mark.skipif(sys.platform != "linux", reason="needs Linux RLIMIT_AS")
    def test_connected_mu_closed_form(self, tmp_path):
        # ((p, T1, 0), (0, p, T2), (0, 0, p)) at d = 2 neither splits nor has
        # an annihilator; its level-n coinvariants have order p^(3 p^(2n)),
        # on 19,683 columns at n = 4, which fit under 256 MiB of address
        # space beyond the imports
        module = tmp_path / "chain.txt"
        module.write_text(
            "p: 3\nN: 8\nd: 2\nD: 30\ngenerators: 3\n"
            "relation: p; T1; 0\nrelation: 0; p; T2\nrelation: 0; 0; p\n"
        )
        proc = run_under_address_limit(["tower", str(module), "--n-max", "4"], 2**28)
        assert proc.returncode == 0, proc.stderr
        rows = [line.split("\t") for line in proc.stdout.splitlines()[1:]]
        assert [(r[0], r[1], r[2], r[4]) for r in rows] == [
            (str(n), str(3 * 3 ** (2 * n)), "0", "-") for n in range(5)
        ]

    def test_linear_two_variable_closed_form(self):
        # Lambda_2/(T2 - (1+p) T1 - p), p = 3, uses both variables and has
        # no annihilator; log_torsion is (n + 1) p^n, and n = 4 is one
        # 6,561 x 6,561 SNF
        ctx = PrecisionContext(Prime(3), 8, 2, 30)
        f = SeriesElement(ctx, {(0, 1): 1, (1, 0): -4, (0, 0): -3})
        M = ModulePresentation(ctx, 1, ((f,),))
        for n in range(5):
            shape = coinvariants(M, n)
            assert (shape.log_torsion, shape.zp_rank) == ((n + 1) * 3**n, 0), n


def run_under_address_limit(argv, headroom):
    """Runs the CLI on `argv` in a fresh process whose address space is
    capped at its size after the imports plus `headroom` bytes."""
    script = textwrap.dedent(f"""
        import resource, sys
        from iwatower.cli import main
        size = int(open("/proc/self/statm").read().split()[0]) * resource.getpagesize()
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        resource.setrlimit(resource.RLIMIT_AS, (size + {headroom}, hard))
        sys.exit(main({argv!r}))
    """)
    src = str(Path(iwatower.__file__).parents[1])
    return subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1"),
    )


class TestResultantOracle:
    def test_constant(self, ctx3):
        f = poly(ctx3, [3])
        assert torsion_size_resultant_oracle(f, 1) == 3

    def test_linear(self, ctx3):
        f = poly(ctx3, [-3, 1])
        assert torsion_size_resultant_oracle(f, 2) == 3

    def test_shared_factor(self, ctx3):
        with pytest.raises(PrecisionExhausted):
            torsion_size_resultant_oracle(
                SeriesElement(ctx3, {(1,): 3, (2,): 3, (3,): 1}), 1
            )

    def test_agrees_with_snf(self, ctx3):
        rng = random.Random(41)
        tried = 0
        for _ in range(12):
            mu = rng.randrange(0, 2)
            roots = [rng.randrange(1, 9) for _ in range(rng.randrange(0, 3))]
            M = split_module(ctx3, mu, roots)
            f = M.relations[0][0]
            for n in (0, 1, 2, 3):
                try:
                    oracle = torsion_size_resultant_oracle(f, n)
                except PrecisionExhausted:
                    continue
                shape = coinvariants(M, n)
                if shape.zp_rank:
                    continue
                assert shape.log_torsion == oracle
                tried += 1
        assert tried > 10

    def test_resultant_matches_sympy(self):
        # seeded w_n and f with 12-digit coefficients of either sign, f of
        # degree above and below p^n, and f sharing the root 0 of w_n;
        # the signs may differ from sympy's, and ord_p reads neither
        rng = random.Random(286)
        T = sympy.Symbol("T")
        for _ in range(40):
            p = rng.choice([3, 5, 7])
            w = omega_int_coeffs(p, rng.randrange(0, 3 if p == 3 else 2))
            f = [rng.randrange(-10**12, 10**12) for _ in range(rng.randrange(1, 8))]
            f[-1] = f[-1] or 1
            if rng.random() < 0.2:
                f[0] = 0
            theirs = sympy.resultant(sympy.Poly(w[::-1], T), sympy.Poly(f[::-1], T))
            assert abs(_resultant(w, f)) == abs(int(theirs)), (w, f)


C1 = PrecisionContext(Prime(3), 6, 1, 16)
C2 = PrecisionContext(Prime(3), 6, 2, 16)


@pytest.mark.parametrize(
    "call, error, match",
    [
        pytest.param(lambda: ModulePresentation(C1, 0, ()), ValueError, "generators must be >= 1, got 0", id="no-generators"),
        pytest.param(
            lambda: ModulePresentation(C1, 2, ((SeriesElement.variable(C1),),)), ValueError, "relation length",
            id="relation-length",
        ),
        pytest.param(
            lambda: ModulePresentation(C1, 1, ((SeriesElement.variable(C1.with_precision(7)),),)), ContextMismatch,
            "context", id="entry-context",
        ),
        pytest.param(
            lambda: torsion_size_resultant_oracle(SeriesElement.variable(C2), 1), ValueError, "d = 1", id="oracle-d2"
        ),
        pytest.param(
            lambda: torsion_size_resultant_oracle(SeriesElement.zero(C1), 1), PrecisionExhausted, "resultant is 0 mod p",
            id="oracle-zero",
        ),
    ],
)
def test_input_checks(call, error, match):
    with pytest.raises(error, match=match):
        call()
