"""Finitely presented modules over the truncated d-variable Iwasawa
algebra: coinvariants at tower levels, Smith normal form over Z/p^N,
and the independent resultant oracle for one-variable torsion sizes.

Coinvariants work on the monomial basis modulo the level-n elements
(1+T_j)^{p^n} - 1.  These are monic in distinct variables, so a
monomial reduces one variable at a time through one table of reduced
powers T^e, shared by all variables.  A term c*T^e times every
multiplier T^a is then one block: c times the Kronecker product of the
table slices red[e_j : e_j + p^n] (no Groebner machinery).  The full
and the partial coinvariants are both built from these blocks.  The
Smith normal form eliminates one p-adic valuation layer at a time
(Cohen, GTM 138, section 2.4) in numpy int64 arithmetic, which needs
p^N <= floor(sqrt(2^63 - 1)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import sympy

from .errors import ContextMismatch, DimensionOverflow, PrecisionExhausted
from .padic import Prime, ord_p
from .series import PrecisionContext, SeriesElement, omega_int_coeffs

#: default cap on the number of Z/p^N basis elements of a coinvariant.
DEFAULT_DIMENSION_BOUND = 20000

#: elementary divisors with exponent >= N - guard are flagged as
#: indistinguishable from free at precision N.
DEFAULT_GUARD = 2

# floor(sqrt(2^63 - 1)).  The dense kernels add to or subtract from a
# residue mod p^N the product of two such residues; p^N <= this cap
# keeps every intermediate within (p^N - 1)^2 + p^N <= 2^63 - 1.
_INT64_MODULUS_CAP = 3_037_000_499


def _int64_modulus(p: int, N: int) -> int:
    """p^N, or ValueError when it is above _INT64_MODULUS_CAP."""
    m = p ** N
    if m > _INT64_MODULUS_CAP:
        n_max = max(k for k in range(64) if p ** k <= _INT64_MODULUS_CAP)
        raise ValueError(
            f"p^N = {p}^{N} exceeds the int64 cap {_INT64_MODULUS_CAP}"
            f" = floor(sqrt(2^63 - 1)); p = {p} allows N <= {n_max}"
        )
    return m


@dataclass(frozen=True)
class AbelianShape:
    """Elementary-divisor profile of a finite-precision abelian p-group:
    direct sum of Z/p^{e_i} (1 <= e_i < N) and free_rank copies of
    Z/p^N (indistinguishable from free at this precision)."""

    torsion_exponents: tuple
    free_rank_at_precision: int
    N: int

    @property
    def log_torsion(self) -> int:
        return sum(self.torsion_exponents)

    @property
    def zp_rank(self) -> int:
        return self.free_rank_at_precision

    @property
    def precision_margin(self) -> int:
        top = max(self.torsion_exponents, default=0)
        return self.N - top

    def log_order(self) -> int:
        """log_p of the order of the full finite Z/p^N-module."""
        return self.log_torsion + self.N * self.free_rank_at_precision

    def log_mod_pn(self, n: int) -> int:
        """log_p |A/p^n A|."""
        return sum(min(e, n) for e in self.torsion_exponents) + self.free_rank_at_precision * min(self.N, n)


@dataclass(frozen=True)
class ModulePresentation:
    """M = Lambda_d^k / <rows of the relation matrix>."""

    context: PrecisionContext
    generators: int
    relations: tuple  # tuple of length-k tuples of SeriesElement

    def __post_init__(self):
        if self.generators < 1:
            raise ValueError("need at least one generator")
        rels = tuple(tuple(row) for row in self.relations)
        for row in rels:
            if len(row) != self.generators:
                raise ValueError("relation length does not match generator count")
            for entry in row:
                if entry.context != self.context:
                    raise ContextMismatch(
                        "presentation entry context differs from module context"
                    )
        object.__setattr__(self, "relations", rels)

    def relation_matrix(self):
        return [list(row) for row in self.relations]

    def is_square(self) -> bool:
        return len(self.relations) == self.generators


@dataclass(frozen=True)
class TowerDatum:
    """Per-level measurement of a coinvariant quotient."""

    n: int
    log_torsion: int
    zp_rank: int
    log_mod_pn: int
    flags: tuple = ()

    @property
    def flagged(self) -> bool:
        return bool(self.flags)


# ------------------------------------------------------------------
# Smith normal form over Z/p^N
# ------------------------------------------------------------------


def snf(matrix, p: Prime, N: int) -> AbelianShape:
    """Shape of the cokernel of `matrix` viewed as relations (rows)
    among `ncols` generators of (Z/p^N)^ncols.

    Eliminates one valuation layer at a time: at layer e the block
    holds the unpivoted rows divided by p^e, modulo p^(N-e).  Each row
    in turn pivots on its first unit mod p; the row, scaled to 1, is
    cleared from the rows hit in the pivot column and then dropped.  A
    scanned row without a unit keeps none, as it only loses multiples
    of p.  With no unit left the block is divided by p.  Elementary
    divisors do not depend on pivot order.  Each product is below
    (p^N - 1)^2 < 2^63 (see _INT64_MODULUS_CAP).
    """
    q = p.p
    A = np.atleast_2d(np.asarray(matrix, dtype=np.int64)) % _int64_modulus(q, N)
    cols = A.shape[1]
    exps = []
    for e in range(N):
        m = q ** (N - e)
        A = A[A.any(axis=1)]
        for i in range(A.shape[0]):
            units = np.flatnonzero(A[i] % q)
            if not units.size:
                continue
            j = units[0]
            pivot_row = A[i] * pow(int(A[i, j]), -1, m) % m
            A[i] = 0
            hit = np.flatnonzero(A[:, j])
            A[hit] = (A[hit] - A[hit, j][:, None] * pivot_row) % m
            exps.append(e)
        if len(exps) == cols:
            break
        A //= q
    torsion = tuple(e for e in exps if e >= 1)
    return AbelianShape(torsion, cols - len(exps), N)


# ------------------------------------------------------------------
# Coinvariants on the monomial basis
# ------------------------------------------------------------------


def _reduction_table(p: int, N: int, n: int, size: int) -> np.ndarray:
    """red[e] = coefficients mod p^N of T^e reduced modulo the level
    element (1+T)^{p^n} - 1, for e < size: the identity below p^n, then
    T^e = T * T^(e-1) with T^(p^n) = -sum_{0<i<p^n} C(p^n, i) T^i."""
    q = p ** n
    m = p ** N
    w = np.array([-c % m for c in omega_int_coeffs(p, n)[:q]], dtype=np.int64)
    red = np.zeros((size, q), dtype=np.int64)
    red[:q] = np.eye(q, dtype=np.int64)
    for e in range(q, size):
        red[e, 1:] = red[e - 1, :-1]
        red[e] = (red[e] + red[e - 1, -1] * w) % m
    return red


def _level_terms(M: ModulePresentation, n: int, variables):
    """Reduce the terms of M modulo the level-n elements of `variables`.
    For each term c*T^e of entry (relation i, generator g) yields
    (i, g, the exponents of e outside `variables`, block).  Row a of the
    block is c*T^(a+e) reduced, on the columns T^b; a and b run over the
    exponents < p^n in `variables`, in np.ndindex order.  The block is c
    times the Kronecker product of the slices red[e_v : e_v + p^n], mod
    p^N.  Blocks are full size, so a consumer holds one at a time."""
    ctx = M.context
    p, N = ctx.p.p, ctx.N
    m = _int64_modulus(p, N)
    q = p ** n
    keep = [j for j in range(ctx.d) if j not in variables]
    top = max(
        (exps[v] for row in M.relations for entry in row
         for exps in entry.coefficients for v in variables),
        default=0,
    )
    red = _reduction_table(p, N, n, q + top)
    for i, row in enumerate(M.relations):
        for g, entry in enumerate(row):
            for exps, c in entry.coefficients.items():
                block = np.full((1, 1), c, dtype=np.int64)
                for v in variables:
                    block = np.kron(block, red[exps[v]:exps[v] + q])
                    block %= m
                yield i, g, tuple(exps[j] for j in keep), block


def _relation_matrix(M: ModulePresentation, n: int) -> np.ndarray:
    """The level-n relation matrix on the monomial basis: row
    (relation, multiplier T^a), column (generator, monomial T^b)."""
    ctx = M.context
    b = ctx.p.p ** (n * ctx.d)
    A = np.zeros((len(M.relations) * b, M.generators * b), dtype=np.int64)
    for i, g, _, block in _level_terms(M, n, range(ctx.d)):
        # each block is < p^N <= 2^63 / _INT64_MODULUS_CAP, so the blocks
        # of an entry with fewer than 3 * 10^9 terms sum within int64
        A[i * b:(i + 1) * b, g * b:(g + 1) * b] += block
        del block  # free it before the next block is built
    A %= ctx.modulus
    return A


def coinvariants(
    M: ModulePresentation,
    n: int,
    dimension_bound: int = DEFAULT_DIMENSION_BOUND,
) -> AbelianShape:
    """Shape of the level-n coinvariant quotient of M: the quotient of
    Lambda_d^k by the relation rows together with the level-n elements
    (1+T_j)^{p^n} - 1 acting on every generator, computed on the
    monomial basis with exponents < p^n per variable."""
    ctx = M.context
    b = ctx.p.p ** (n * ctx.d)
    basis = M.generators * b
    if basis > dimension_bound:
        raise DimensionOverflow(
            f"basis size {basis} exceeds bound {dimension_bound}"
        )
    if not M.relations:
        return AbelianShape((), basis, ctx.N)
    nrows = len(M.relations) * b
    try:
        return snf(_relation_matrix(M, n), ctx.p, ctx.N)
    except MemoryError as exc:
        raise DimensionOverflow(
            f"the {nrows} x {basis} relation matrix ({8 * nrows * basis} bytes)"
            " does not fit in memory"
        ) from exc


def partial_coinvariants(
    M: ModulePresentation,
    n: int,
    variables,
    dimension_bound: int = DEFAULT_DIMENSION_BOUND,
) -> ModulePresentation:
    """Coinvariants in a subset of variables only, at level n: returns a
    new presentation over the remaining variables, with generators
    indexed by (old generator, monomial in the eliminated variables).

    Needed for coinvariants along an inner factor of the tower group.
    """
    ctx = M.context
    d = ctx.d
    variables = sorted(set(variables))
    if any(v < 0 or v >= d for v in variables):
        raise ValueError("variable index out of range")
    if len(variables) >= d:
        raise ValueError("use coinvariants() to eliminate all variables")
    b = ctx.p.p ** (n * len(variables))
    new_gens = M.generators * b
    if new_gens > dimension_bound:
        raise DimensionOverflow(
            f"generator count {new_gens} exceeds bound {dimension_bound}"
        )
    new_ctx = PrecisionContext(ctx.p, ctx.N, d - len(variables), ctx.D)
    # rows[relation, multiplier][generator, monomial]: kept exponents -> coefficient
    rows = [[{} for _ in range(new_gens)] for _ in range(len(M.relations) * b)]
    for i, g, kept, block in _level_terms(M, n, variables):
        for a, mono in zip(*np.nonzero(block)):
            coeffs = rows[i * b + a][g * b + mono]
            coeffs[kept] = coeffs.get(kept, 0) + int(block[a, mono])
    new_relations = tuple(
        tuple(SeriesElement(new_ctx, coeffs) for coeffs in row) for row in rows
    )
    return ModulePresentation(new_ctx, new_gens, new_relations)


def tower(
    M: ModulePresentation,
    n_max: int,
    guard: int = DEFAULT_GUARD,
    dimension_bound: int = DEFAULT_DIMENSION_BOUND,
) -> list:
    """Coinvariant measurements for n = 0..n_max.  Levels are
    independent pure computations; per-level failures are recorded as
    flags and the run continues."""

    def level(n: int) -> TowerDatum:
        try:
            shape = coinvariants(M, n, dimension_bound)
        except DimensionOverflow:
            return TowerDatum(n, 0, 0, 0, ("DimensionOverflow",))
        except PrecisionExhausted:
            return TowerDatum(n, 0, 0, 0, ("PrecisionExhausted",))
        flags = ()
        if shape.torsion_exponents and shape.precision_margin < guard:
            flags = ("PrecisionMargin",)
        return TowerDatum(
            n,
            shape.log_torsion,
            shape.zp_rank,
            shape.log_mod_pn(n),
            flags,
        )

    return [level(n) for n in range(n_max + 1)]


# ------------------------------------------------------------------
# Independent resultant oracle (d = 1)
# ------------------------------------------------------------------


def torsion_size_resultant_oracle(f: SeriesElement, n: int) -> int:
    """log_p of the level-n torsion size of Lambda_1/(f), computed as
    ord_p of the exact integer resultant of the level-n element with
    the canonical lift of f.

    Independent of the SNF path: exact big-integer arithmetic on lifted
    coefficients.  Raises PrecisionExhausted when the resultant is 0
    mod p^N (value not determined at this precision)."""
    ctx = f.context
    if ctx.d != 1:
        raise ValueError("resultant oracle requires d = 1")
    if f.is_zero():
        raise PrecisionExhausted("f is 0 at this precision")
    p, N = ctx.p.p, ctx.N
    T = sympy.Symbol("T")
    fint = sympy.Poly(list(reversed(f.univariate_coeffs())), T)
    wint = sympy.Poly(list(reversed(omega_int_coeffs(p, n))), T)
    # Res(w, f) = product of f over the roots of the monic w
    res = int(sympy.resultant(wint, fint))
    if res % (p ** N) == 0:
        raise PrecisionExhausted(
            "resultant is 0 mod p^N; torsion size not determined at this precision"
        )
    return ord_p(res, ctx.p)
