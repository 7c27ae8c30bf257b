from fractions import Fraction
from itertools import combinations
from math import comb, isqrt

import numpy as np
import pytest
import sympy
import sympy.matrices.normalforms

from iwatower import (
    AbelianShape,
    DegreeOverflow,
    HypothesisViolated,
    InsufficientData,
    InvariantReport,
    ModulePresentation,
    NonIntegralCoefficient,
    NotSquare,
    PrecisionExhausted,
    Prime,
    PrecisionContext,
    SeriesElement,
    snf,
)
from iwatower.ktheory import QL_ASSUMPTION, PredictionRow, TowerPrediction


@pytest.fixture(scope="session")
def p3():
    return Prime(3)


@pytest.fixture(scope="session")
def ctx3(p3):
    """Standard one-variable context: p = 3, N = 12, D = 30."""
    return PrecisionContext(p3, 12, 1, 30)


@pytest.fixture(scope="session")
def ctx3_d2(p3):
    return PrecisionContext(p3, 8, 2, 30)


def poly(ctx, coeffs):
    """Univariate element from a dense coefficient list."""
    return SeriesElement.univariate(ctx, coeffs)


def cyclic_module(ctx, coeffs):
    """Lambda_1 / (f) for f given by a dense coefficient list."""
    return ModulePresentation(ctx, 1, ((poly(ctx, coeffs),),))


def split_module(ctx, mu, root_units):
    """Lambda_1 / (p^mu * prod (T - p*a)): its characteristic element is
    coprime to every level element, so tower data is exactly affine:
    log torsion = mu*p^n + lam*n + sum ord_p(p*a)."""
    p = ctx.p.p
    f = SeriesElement.constant(ctx, p ** mu)
    for a in root_units:
        f = f * poly(ctx, [-p * a, 1])
    return ModulePresentation(ctx, 1, ((f,),))


#: floor(sqrt(2^63 - 1)): the int64 oracles below hold a residue plus
#: the product of two residues, (p^N - 1)^2 + p^N <= 2^63 - 1, only for
#: p^N up to this edge.  Above it they would wrap silently, so they raise.
INT64_ORACLE_EDGE = isqrt(2**63 - 1)


def _int64_modulus(p, N):
    """p^N, or ValueError when an int64 oracle cannot work mod p^N."""
    m = p ** N
    if m > INT64_ORACLE_EDGE:
        raise ValueError(
            f"p^N = {p}^{N} is above {INT64_ORACLE_EDGE} = floor(sqrt(2^63 - 1)),"
            " where this int64 oracle would wrap; compare with an exact oracle"
        )
    return m


def reference_snf(matrix, p, N):
    """Test oracle for `snf`: an independent kernel that pivots on the
    minimal p-valuation of the whole remaining block (first occurrence
    in row-major order) with a full rank-1 update below each pivot."""
    q = p.p
    m = _int64_modulus(q, N)
    A = np.atleast_2d(np.asarray(matrix, dtype=np.int64)) % m
    if A.size == 0:
        ncols = A.shape[1] if A.ndim == 2 else 0
        return AbelianShape((), ncols, N)
    rows, cols = A.shape
    exps = []
    r = 0
    top = min(rows, cols)
    while r < top:
        sub = A[r:, r:]
        # the least valuation e is the least e with an entry not divisible
        # by p^(e+1), and the first such entry has valuation e
        e = next((e for e in range(N) if (sub % q ** (e + 1)).any()), N)
        if e >= N:
            break
        i, j = map(int, np.argwhere(sub % q ** (e + 1))[0])
        if i:
            A[[r, r + i], :] = A[[r + i, r], :]
        if j:
            A[:, [r, r + j]] = A[:, [r + j, r]]
        pe = q ** e
        u = int(A[r, r]) // pe
        inv = pow(u, -1, m)
        A[r, r:] = (A[r, r:] * inv) % m
        # entries below the pivot all have valuation >= e, so the
        # canonical representatives are exactly divisible by p^e
        c = A[r + 1:, r] // pe
        A[r + 1:, r:] = (A[r + 1:, r:] - c[:, None] * A[r, r:]) % m
        # column operations clearing row r only touch row r, as the
        # pivot column is now zero below the pivot
        A[r, r + 1:] = 0
        exps.append(e)
        r += 1
    torsion = tuple(sorted(e for e in exps if e >= 1))
    return AbelianShape(torsion, cols - len(exps), N)


def sympy_smith_exponents(matrix, p, N):
    """Third-party cokernel oracle: sympy's integer Smith normal form of
    the relation rows stacked with p^N times the identity; the p-adic
    valuations of the nonzero divisors, capped at N, are the sorted
    exponent profile of all `cols` columns.  Needs at least one row."""
    rows = [[int(x) for x in r] for r in matrix]
    cols = len(rows[0])
    m = p ** N
    stacked = sympy.Matrix(rows + [[m if i == j else 0 for j in range(cols)] for i in range(cols)])
    d = sympy.matrices.normalforms.smith_normal_form(stacked)
    exps = []
    for i in range(cols):
        x = abs(int(d[i, i]))
        if x == 0:
            raise AssertionError("stacked matrix cannot have zero divisors")
        e = 0
        while x % p == 0:
            x //= p
            e += 1
        exps.append(min(e, N))
    return sorted(exps)


def _euclidean_reduction_table(p, N, n, max_extra):
    """red[e] = T^e reduced modulo (1+T)^{p^n} - 1 by Euclidean division,
    for e < p^n + max_extra."""
    q = p ** n
    m = _int64_modulus(p, N)
    size = q + max_extra
    red = np.zeros((size, q), dtype=np.int64)
    for e in range(min(q, size)):
        red[e, e] = 1
    w = [(-comb(q, i)) % m for i in range(1, q)]  # T^q = -sum_i C(q,i) T^i
    for e in range(q, size):
        acc = np.zeros(q, dtype=np.int64)
        for i, c in enumerate(w, start=1):
            if c:
                acc = (acc + c * red[e - q + i]) % m
        red[e] = acc
    return red


def reference_relation_matrix(M, n):
    """Test oracle for `modules._relation_matrix`: builds each row
    (relation, multiplier T^a) by multiplying out every term's reduced
    monomials, one multiplier at a time."""
    ctx = M.context
    p, N, d = ctx.p.p, ctx.N, ctx.d
    m = _int64_modulus(p, N)
    q = p ** n
    block = q ** d
    max_deg = [0] * d
    for row in M.relations:
        for entry in row:
            for exps in entry.coefficients:
                for j in range(d):
                    max_deg[j] = max(max_deg[j], exps[j])
    red = [_euclidean_reduction_table(p, N, n, max_deg[j] + 1) for j in range(d)]
    multipliers = list(np.ndindex(*([q] * d)))
    A = np.zeros((len(M.relations) * len(multipliers), M.generators * block), dtype=np.int64)
    row_idx = 0
    for rel in M.relations:
        for a in multipliers:
            out = A[row_idx]
            for gi, entry in enumerate(rel):
                if entry.is_zero():
                    continue
                seg = np.zeros(block, dtype=np.int64)
                for exps, c in entry.coefficients.items():
                    vec = red[0][a[0] + exps[0]]
                    for j in range(1, d):
                        vec = np.multiply.outer(vec, red[j][a[j] + exps[j]]).ravel() % m
                    seg = (seg + c * vec) % m
                out[gi * block:(gi + 1) * block] = seg
            row_idx += 1
    return A


def reference_char_poly(matrix):
    """Test oracle for `series.char_poly`, its former kernel: the same
    shape, context and row-degree checks, then cofactor expansion along
    each row in turn on memoized column subsets, with no division, in
    the truncated ring itself."""
    k = len(matrix)
    if k == 0:
        raise NotSquare("empty matrix")
    if any(len(row) != k for row in matrix):
        raise NotSquare("matrix is not square")
    ctx = matrix[0][0].context
    for row in matrix:
        for entry in row:
            entry._require_same_context(matrix[0][0])
    for j in range(ctx.d):
        if (total := sum(max(e.degree(j) for e in row) for row in matrix)) > ctx.D:
            raise DegreeOverflow(f"row degrees in T{j + 1} sum to {total} > D = {ctx.D}")
    # minors[cols] = det of rows (k - len(cols))..k-1 restricted to cols
    minors = {(): SeriesElement.constant(ctx, 1)}
    for r in range(k - 1, -1, -1):
        new = {}
        for cols in combinations(range(k), k - r):
            acc = SeriesElement.zero(ctx)
            for idx, c in enumerate(cols):
                term = matrix[r][c] * minors[cols[:idx] + cols[idx + 1:]]
                acc = acc + term if idx % 2 == 0 else acc - term
            new[cols] = acc
        minors = new
    det = minors[tuple(range(k))]
    if det.is_zero():
        raise PrecisionExhausted(
            "determinant vanishes mod (p^N, T^(D+1)); torsionness not certifiable"
        )
    return det


def reference_closure(G, generators):
    """Test oracle for `FiniteGroup.closure`: grows the generated set by
    products on both sides of every element seen with every new one,
    until no new element appears."""
    seen = {G.identity}
    frontier = set(generators) - seen
    seen |= frontier
    while frontier:
        new = set()
        for a in seen:
            for b in frontier:
                for c in (G.mul(a, b), G.mul(b, a)):
                    if c not in seen:
                        new.add(c)
        seen |= new
        frontier = new
    return frozenset(seen)


def reference_conjugates(G, elements):
    """Test oracle for `FiniteGroup.conjugates`: g*u*g^-1 for every g in
    G and every given u."""
    t, inv = G.table, G.inverse
    return frozenset({t[t[g][u]][inv[g]] for g in range(G.order) for u in elements})


def reference_all_subgroups(G):
    """Test oracle for `FiniteGroup.all_subgroups`: closes every subgroup
    found with every element outside it, each closure the orbit of the
    identity under right multiplication by all the given elements."""

    def closure(gens):
        seen, frontier = {G.identity}, {G.identity}
        while frontier:
            frontier = {G.table[x][g] for x in frontier for g in gens} - seen
            seen |= frontier
        return frozenset(seen)

    subs = {frozenset({G.identity})}
    frontier = set(subs)
    while frontier:
        new = set()
        for sub in frontier:
            for x in range(G.order):
                if x not in sub and (bigger := closure(sub | {x})) not in subs:
                    new.add(bigger)
        subs |= new
        frontier = new
    return sorted(subs, key=lambda s: (len(s), sorted(s)))


def reference_quotient_shape(M, multipliers):
    """Test oracle for `FiniteGroupRingModule.shape_of`: the rows of
    reference_quotient_rows fed to `snf` as they are."""
    rows = reference_quotient_rows(M, multipliers)
    if not rows:
        return AbelianShape((), M.generators * M.group.order, M.N)
    return snf(rows, M.p, M.N)


def reference_quotient_rows(M, multipliers):
    """The abelian relation rows of the quotient of
    `FiniteGroupRingModule.shape_of` on the basis (generator, group
    element), integers as given.  Base rows are each relation multiplied
    on the left by every group element; difference rows are
    (s - 1) * t * e_j for s in a greedy generating set of the subgroup the
    multipliers generate, every t in G and every generator j.  They span
    every (w - 1) * t * e_j with w in that subgroup, as
    (ab - 1)t = (a - 1)(bt) + (b - 1)t and
    (a^-1 - 1)t = -(a - 1)(a^-1 t)."""
    G = M.group
    width = M.generators * G.order
    rows = []
    for rel in M.relations:
        for g in range(G.order):
            row = [0] * width
            for j, entry in enumerate(rel):
                for s, c in entry.items():
                    row[j * G.order + G.mul(g, s)] += c
            rows.append(row)
    gens, span = [], frozenset({G.identity})
    for w in sorted(multipliers):
        if w not in span:
            gens.append(w)
            span = G.closure(gens)
    for s in gens:
        for t in range(G.order):
            for j in range(M.generators):
                row = [0] * width
                row[j * G.order + G.mul(s, t)] += 1
                row[j * G.order + t] -= 1
                rows.append(row)
    return rows


def reference_is_associative(table):
    """Test oracle for `FiniteGroup._check_associativity`: checks
    (ab)c = a(bc) for every triple."""
    n = len(table)
    return all(
        table[table[a][b]][c] == table[a][table[b][c]]
        for a in range(n)
        for b in range(n)
        for c in range(n)
    )


def reference_predict_growth(inv, ext, p, i, n_range):
    """Test oracle for `ktheory.predict_growth`: one hand-written branch
    per extension kind, each with its own main-term formula, O-class
    and torsion type."""
    p.require_odd()
    d = ext.d
    q = p.p
    rows = []
    if ext.kind == "Zp":
        mu, lam = inv.slot("mu"), inv.slot("lam")
        for n in n_range:
            rows.append(
                PredictionRow(n, mu * q ** n + lam * n, "O(1)", "p^inf", "zp-tower")
            )
    elif ext.kind == "Zpd":
        mu, l0 = inv.slot("mu"), inv.slot("l0")
        for n in n_range:
            rows.append(
                PredictionRow(
                    n,
                    mu * q ** (d * n) + l0 * n * q ** ((d - 1) * n),
                    "O(p^((d-1)n))",
                    "p^inf",
                    "zpd-tower",
                )
            )
    elif ext.kind == "Uniform":
        mu = inv.slot("mu")
        for n in n_range:
            rows.append(
                PredictionRow(
                    n,
                    mu * q ** (d * n),
                    "O(n*p^((d-1)n))",
                    "p^n",
                    "uniform-tower",
                )
            )
    elif ext.kind == "Semidirect":
        rank_h = inv.slot("rank_over_h")
        for n in n_range:
            rows.append(
                PredictionRow(
                    n,
                    rank_h * n * q ** ((d - 1) * n),
                    "O(p^((d-1)n))",
                    "p^inf",
                    "semidirect-tower",
                )
            )
        if inv.mu_h is not None:
            for n in n_range:
                rows.append(
                    PredictionRow(
                        n,
                        rank_h * n * q ** ((d - 1) * n)
                        + inv.mu_h * q ** ((d - 1) * n),
                        "O(n*p^((d-2)n))",
                        "p^n",
                        "semidirect-upper-bound",
                        qualifier="UPPER_BOUND",
                    )
                )
    assumptions = [QL_ASSUMPTION]
    for hyp in ext.asserted_hypotheses:
        assumptions.append(f"asserted (unchecked): {hyp}")
    return TowerPrediction(tuple(rows), tuple(assumptions))


def _det(matrix):
    """Determinant of a square matrix by cofactor expansion along the
    first row."""
    if len(matrix) == 1:
        return matrix[0][0]
    return sum(
        (-1) ** j * a * _det([row[:j] + row[j + 1:] for row in matrix[1:]])
        for j, a in enumerate(matrix[0])
    )


def reference_fit_growth(data, model, n0=1):
    """Test oracle for `invariants.fit_growth`: one hand-written branch
    per family, each with its own basis functions of n (slot "c" the
    O-term representative), non-negative slots, datum and residual
    envelope h(n).  The top points of the window (unflagged, n >= n0,
    also the points both rank checks read) are solved by Cramer's rule
    over exact rationals."""
    p, d = model.p, model.d
    data = sorted(data, key=lambda t: t.n)
    window = [t for t in data if not t.flagged and t.n >= n0]
    if model.family == "Iwasawa_d1":
        names, nonneg = ("mu", "lam", "c"), {"mu", "lam"}
        basis = lambda n: (p ** n, n, 1)
        datum = lambda t: t.log_torsion
        h = lambda n: 1
    elif model.family == "CuocoMonsky":
        names, nonneg = ("mu", "l0", "c"), {"mu"}
        basis = lambda n: (p ** (d * n), n * p ** ((d - 1) * n), p ** ((d - 1) * n))
        datum = lambda t: t.log_torsion
        h = lambda n: p ** ((d - 1) * n)
    elif model.family == "LiangLim":
        names, nonneg = ("mu", "c"), {"mu"}
        basis = lambda n: (p ** (d * n), n * p ** ((d - 1) * n))
        datum = lambda t: t.log_torsion
        h = lambda n: max(1, n) * p ** ((d - 1) * n)
    elif model.family == "Perbet_modpn":
        names, nonneg = ("rank", "mu", "c"), {"rank", "mu"}
        basis = lambda n: (n * p ** (d * n), p ** (d * n), n * p ** ((d - 1) * n))
        datum = lambda t: t.log_mod_pn
        h = lambda n: max(1, n) * p ** ((d - 1) * n)
    elif model.family == "Semidirect_rank":
        names, nonneg = ("rank_over_h", "c"), {"rank_over_h"}
        basis = lambda n: (n * p ** ((d - 1) * n), p ** ((d - 1) * n))
        datum = lambda t: t.log_torsion
        h = lambda n: p ** ((d - 1) * n)
    need = max(3, len(names))
    if len(window) < need:
        raise InsufficientData(
            f"need at least {need} unflagged points with n >= {n0}, got {len(window)}"
        )
    if model.family == "CuocoMonsky":
        ratios = [Fraction(t.zp_rank, p ** ((d - 2) * t.n)) for t in window]
        if ratios[-1] > max(ratios[:-1]):
            raise HypothesisViolated(
                "rank growth hypothesis fails: zp_rank / p^((d-2)n) "
                f"unbounded on window (observed up to {max(ratios)})"
            )
    if model.family == "Semidirect_rank" and any(t.zp_rank for t in window):
        raise HypothesisViolated(
            "finite coinvariants hypothesis fails: nonzero zp_rank on window"
        )
    top = window[-len(names):]
    matrix = [basis(t.n) for t in top]
    det = _det(matrix)
    if det == 0:
        raise InsufficientData("solving system is singular on these points")
    slots = {}
    for j, name in enumerate(names[:-1]):
        replaced = [row[:j] + (datum(t),) + row[j + 1:] for row, t in zip(matrix, top)]
        value = Fraction(_det(replaced), det)
        if value.denominator != 1 or (name in nonneg and value < 0):
            raise NonIntegralCoefficient(
                f"main-term coefficient {name} = {value} is not "
                f"{'a non-negative' if name in nonneg else 'an'} integer"
            )
        slots[name] = int(value)
    residuals = tuple(
        datum(t) - sum(slots[name] * b for name, b in zip(names[:-1], basis(t.n)))
        for t in data
    )
    normalized = [
        abs(Fraction(r, h(t.n)))
        for t, r in zip(data, residuals)
        if not t.flagged and t.n >= n0
    ]
    consistent = normalized[-1] <= max(normalized[:-1])
    return InvariantReport(
        p=p,
        d=d,
        method="fitted",
        model=model.family,
        residuals=residuals,
        window_bound=max(normalized),
        verdict="window-consistent" if consistent else "window-inconsistent",
        **slots,
    )
