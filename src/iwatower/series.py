"""Truncated polynomial / power-series arithmetic over Z/p^N in d
variables, modeling the completed group algebra of Z_p^d via T_j =
(generator_j) - 1, together with one-variable Weierstrass theory.

Coefficients live in Z/p^N (fixed precision, canonical representatives
in [0, p^N)); degrees are truncated at D per variable.  Elements are
immutable sparse multidegree maps.  Products, divisions with remainder
and determinants run on canonical integer lifts, reduced mod p^N after,
in one product (_sum), one division (_divmod) and one elimination (minors).
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from operator import add, neg, sub

from .errors import (
    ContextMismatch,
    DegreeOverflow,
    IwatowerError,
    NotSquare,
    PrecisionExhausted,
)
from .padic import Prime, as_int, at_least, ord_p


@dataclass(frozen=True)
class PrecisionContext:
    """Ambient ring parameters: work in (Z/p^N)[T_1..T_d] truncated at
    degree D per variable."""

    p: Prime
    N: int
    d: int = 1
    D: int = 16

    def __post_init__(self):
        self.p.require_odd()
        for name, least in (("N", 2), ("d", 1), ("D", 1)):
            object.__setattr__(self, name, at_least(getattr(self, name), least, name))

    @property
    def modulus(self) -> int:
        return self.p.p ** self.N

    def with_precision(self, N: int) -> "PrecisionContext":
        return PrecisionContext(self.p, N, self.d, self.D)


class SeriesElement:
    """Immutable sparse element of the truncated ring.

    coefficients: dict mapping multidegree tuples (length d, entries
    <= D) to nonzero residues mod p^N of values equal to integers.
    """

    __slots__ = ("context", "coefficients")

    def __init__(self, context: PrecisionContext, coefficients: dict):
        m = context.modulus
        clean = {}
        for exps, c in coefficients.items():
            exps = tuple(exps)
            if len(exps) != context.d:
                raise ValueError(f"multidegree {exps} has wrong arity for d={context.d}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            if any(e > context.D for e in exps):
                raise DegreeOverflow(f"exponent in {exps} exceeds D={context.D}")
            if c := as_int(c) % m:
                clean[exps] = c
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "coefficients", clean)

    def __setattr__(self, *a):  # immutability
        raise AttributeError("SeriesElement is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(context: PrecisionContext) -> "SeriesElement":
        return SeriesElement(context, {})

    @staticmethod
    def constant(context: PrecisionContext, c: int) -> "SeriesElement":
        return SeriesElement(context, {(0,) * context.d: c})

    @staticmethod
    def variable(context: PrecisionContext, j: int = 0) -> "SeriesElement":
        return SeriesElement.univariate(context, [0, 1], j)

    @staticmethod
    def univariate(context: PrecisionContext, coeffs, j: int = 0) -> "SeriesElement":
        """Element from a list of coefficients in the single variable T_j."""
        if not 0 <= (j := as_int(j)) < context.d:
            raise ValueError(f"variable index {j} out of range for d={context.d}")
        data = {}
        for e, c in enumerate(coeffs):
            exps = [0] * context.d
            exps[j] = e
            data[tuple(exps)] = c
        return SeriesElement(context, data)

    # -- queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coefficients

    def degree(self, j: int = 0) -> int:
        """Degree in variable j; -1 for the zero element."""
        if not self.coefficients:
            return -1
        return max(e[j] for e in self.coefficients)

    def coefficient(self, exps) -> int:
        return self.coefficients.get(tuple(exps), 0)

    def univariate_coeffs(self) -> list:
        """Dense coefficient list, d = 1 only."""
        if self.context.d != 1:
            raise ValueError("univariate_coeffs requires d = 1")
        out = [0] * (self.degree(0) + 1)
        for (e,), c in self.coefficients.items():
            out[e] = c
        return out if out else [0]

    def content_valuation(self) -> int:
        """min over coefficients of ord_p; N for the zero element."""
        if not self.coefficients:
            return self.context.N
        p = self.context.p
        return min(min(ord_p(c, p), self.context.N) for c in self.coefficients.values())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SeriesElement)
            and self.context == other.context
            and self.coefficients == other.coefficients
        )

    def __hash__(self):
        return hash((self.context, frozenset(self.coefficients.items())))

    def __repr__(self):
        return f"SeriesElement({format_polynomial(self)})"

    # -- arithmetic ---------------------------------------------------

    def _require_same_context(self, other: "SeriesElement"):
        if self.context != other.context:
            raise ContextMismatch(f"{self.context} vs {other.context}")

    def __add__(self, other: "SeriesElement") -> "SeriesElement":
        self._require_same_context(other)
        data = dict(self.coefficients)
        for exps, c in other.coefficients.items():
            data[exps] = data.get(exps, 0) + c
        return SeriesElement(self.context, data)

    def __neg__(self) -> "SeriesElement":
        return SeriesElement(self.context, {e: -c for e, c in self.coefficients.items()})

    def __sub__(self, other: "SeriesElement") -> "SeriesElement":
        return self + (-other)

    def __mul__(self, other: "SeriesElement") -> "SeriesElement":
        """Convolution product, truncated at degree D per variable
        (documented power-series contract; no error on truncation)."""
        self._require_same_context(other)
        product = _sum({}, (1, self.coefficients, other.coefficients))
        return SeriesElement(self.context, {e: c for e, c in product.items() if max(e) <= self.context.D})

    def scale(self, c: int) -> "SeriesElement":
        return SeriesElement(self.context, {e: v * c for e, v in self.coefficients.items()})


def format_polynomial(f: SeriesElement) -> str:
    """The text of f in the polynomial grammar, terms in increasing
    multidegree order with canonical coefficients; it is also the repr,
    and `formats.parse_polynomial` inverts it."""
    if f.is_zero():
        return "0"
    parts = []
    for exps in sorted(f.coefficients):
        c = f.coefficients[exps]
        factors = [str(c)]
        for j, e in enumerate(exps):
            if e == 1:
                factors.append(f"T{j + 1}")
            elif e > 1:
                factors.append(f"T{j + 1}^{e}")
        parts.append("*".join(factors))
    return " + ".join(parts)


def omega(context: PrecisionContext, n: int, j: int = 0) -> SeriesElement:
    """(1 + T_j)^{p^n} - 1: monic distinguished of degree p^n in T_j;
    generates the relative augmentation ideal of the level-n subgroup
    in variable j."""
    n = at_least(n, 0, "n")
    q = context.p.p ** n
    if q > context.D:
        raise DegreeOverflow(f"deg omega({n}) = {q} exceeds D = {context.D}")
    return SeriesElement.univariate(context, omega_int_coeffs(context.p.p, n), j)


def omega_int_coeffs(p: int, n: int) -> list:
    """Exact integer coefficient list of (1+T)^{p^n} - 1 (constant term
    first), untruncated.  Used by the resultant oracle and by the
    coinvariant reduction tables.  C(q, e) = C(q, e - 1) * (q - e + 1) / e
    is exact in integers and cheaper than a binomial per term."""
    q = p ** n
    coeffs = [0, q]
    for e in range(2, q + 1):
        coeffs.append(coeffs[-1] * (q - e + 1) // e)
    return coeffs


# -- one-variable Weierstrass theory ---------------------------------


@dataclass(frozen=True)
class WeierstrassForm:
    """f = p^mu * distinguished * unit to effective precision N - mu.

    distinguished is monic of degree lam with non-leading coefficients
    divisible by p; unit has unit constant term.  Both live in a context
    with precision N - mu.
    """

    mu: int
    distinguished: SeriesElement
    unit: SeriesElement
    lam: int
    effective_precision: int


def _unit_inverse(u: SeriesElement) -> SeriesElement:
    """Inverse of a unit power series mod (p^N, T^{D+1}); d = 1 only.
    Its coefficients follow from u * x = 1 one degree at a time:
    x_0 = 1/c_0 and x_k = -(c_1 x_{k-1} + ... + c_k x_0) / c_0."""
    ctx = u.context
    m = ctx.modulus
    c = u.univariate_coeffs()
    if c[0] % ctx.p.p == 0:
        raise PrecisionExhausted("constant term is not a unit")
    inv0 = pow(c[0], -1, m)
    deg = len(c) - 1
    x = [inv0]
    for k in range(1, ctx.D + 1):
        s = sum(c[j] * x[k - j] for j in range(1, min(k, deg) + 1))
        x.append(-inv0 * s % m)
    return SeriesElement.univariate(ctx, x)


def weierstrass_divide(f: SeriesElement, g: SeriesElement) -> tuple:
    """Division with remainder of f by a monic polynomial g, such as a
    distinguished one (d = 1): returns (q, r) with f = q*g + r and
    deg r < deg g, unique at working precision: _divmod of the canonical
    integer lifts, reduced mod p^N, as that commutes with division by g."""
    f._require_same_context(g)
    if g.univariate_coeffs()[-1] != 1:
        raise ValueError("divisor must be monic")
    q, r = _divmod(f.coefficients, g.coefficients)
    return SeriesElement(f.context, q), SeriesElement(f.context, r)


def weierstrass_prepare(f: SeriesElement) -> WeierstrassForm:
    """Weierstrass preparation of a nonzero univariate f: factor
    f = p^mu * distinguished * unit.

    mu is the content valuation.  The distinguished part and unit live
    in a derived context of precision N - mu, in which the factorization
    holds exactly (mod T^{D+1}).  Raises PrecisionExhausted when mu is
    N - 1 or more, which would leave a context of precision below 2.
    """
    ctx = f.context
    if f.is_zero():
        raise PrecisionExhausted("f is 0 at this precision")
    p = ctx.p.p
    mu = f.content_valuation()
    if mu >= ctx.N - 1:
        raise PrecisionExhausted(f"content valuation {mu} >= N - 1 = {ctx.N - 1}")
    eff = ctx.N - mu
    work = ctx.with_precision(eff)
    f1 = SeriesElement(
        work, {e: c // (p ** mu) for e, c in f.coefficients.items()}
    )
    coeffs = f1.univariate_coeffs()
    # a coefficient of valuation mu leaves a unit in f1
    lam = next(k for k, c in enumerate(coeffs) if c % p)
    # Hensel lifting of the factorization f1 = g*u from the exact split
    # f1 = (lower part) + T^lam * (upper part): start with g = T^lam,
    # u = upper part, error = lower part = 0 mod p (0 when lam = 0).
    upper = SeriesElement.univariate(work, coeffs[lam:])
    g = SeriesElement.univariate(work, [0] * lam + [1])
    u = upper
    for _ in range(eff.bit_length() + 1):
        e = f1 - g * u
        if e.is_zero():
            break
        w = e * _unit_inverse(u)
        q, dg = weierstrass_divide(w, g)
        du = q * u
        g = g + dg
        u = u + du
    if not (f1 - g * u).is_zero():
        raise IwatowerError("Hensel lifting failed to converge")
    return WeierstrassForm(mu=mu, distinguished=g, unit=u, lam=lam, effective_precision=eff)


# -- exact elimination and the characteristic power series ----------


def minors(rows, accept) -> tuple:
    """Fraction-free (Bareiss) elimination on rows of integer coefficient
    dicts over Z[T_1..T_d]: while some entry u = r_i[g] passes accept(u),
    the first in row-major order, each other row r becomes
    (u r - r[g] r_i) / v, v the previous pivot (1 at the first), and row
    i and column g are dropped.  After t pivots each entry is a
    (t+1)-minor of the input, so v divides it in Z[T] (Sylvester's
    identity; Bareiss, Math. Comp. 1968) and degrees grow linearly in t.
    Returns the rows left, the pivots and prod (-1)^(i+g) over them."""
    rows, pivots, sign = [list(r) for r in rows], [], 1
    while pivot := next(((i, g) for i, r in enumerate(rows) for g, u in enumerate(r) if accept(u)), None):
        i, g = pivot
        ri, v = rows.pop(i), pivots[-1] if pivots else None
        rows = [[_exact(_sum({}, (1, ri[g], x), (-1, r[g], y)), v) for h, (x, y) in enumerate(zip(r, ri)) if h != g] for r in rows]
        pivots.append(ri[g])
        sign *= (-1) ** (i + g)
    return rows, pivots, sign


def determinant(rows) -> dict:
    """Determinant of a square matrix of integer coefficient dicts over
    Z[T_1..T_d]: sign times the last pivot of minors, {} when a row is left."""
    rows, pivots, sign = minors(rows, bool)
    return {} if rows else {e: sign * c for e, c in pivots[-1].items()}


def _exact(a: dict, v) -> dict:
    """a / v by _divmod (a for v None); ArithmeticError if v does not divide a."""
    q, r = _divmod(a, v) if v else (a, {})
    if r:
        raise ArithmeticError("the divisor does not divide the entry")
    return q


def _sum(start: dict, *terms) -> dict:
    """start plus c a b for each (c, a, b) in terms, a and b dicts over
    Z[T_1..T_d], without zero coefficients."""
    out = dict(start)
    for c, a, b in terms:
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(map(add, ea, eb))
                out[e] = out.get(e, 0) + c * ca * cb
    return {e: x for e, x in out.items() if x}


def _divmod(a: dict, v: dict) -> tuple:
    """(q, r) with a = q v + r for integer coefficient dicts over
    Z[T_1..T_d]: while v's leading term in graded order divides r's, r's
    is cancelled, which adds only smaller terms, so the loop ends.  r is
    updated in place, its exponents popped from a heap (Monagan and
    Pearce, J. Symbolic Comput. 2011).  r = 0 when v divides a, and for
    d = 1 and a monic v, deg r < deg v."""
    graded = lambda e: (-sum(e), *map(neg, e))  # heap order: largest e first
    lead, r, q = min(v, key=graded), dict(a), {}
    heap = [graded(e) for e in a]
    heapify(heap)
    while heap:
        e = tuple(map(neg, heappop(heap)[1:]))
        if not r[e]:
            continue
        s = tuple(map(sub, e, lead))
        if min(s) < 0 or r[e] % v[lead]:
            break
        q[s] = c = r[e] // v[lead]
        for ev, cv in v.items():
            if (f := tuple(map(add, s, ev))) not in r:
                heappush(heap, graded(f))
            r[f] = r.get(f, 0) - c * cv
    return q, {e: x for e, x in r.items() if x}


def char_poly(matrix) -> SeriesElement:
    """Determinant of a square matrix over the truncated ring in any
    number of variables: determinant of the canonical integer lift,
    reduced mod p^N, as reduction commutes with it.  It raises DegreeOverflow
    when the row degrees (a row's: its entries' largest) in some T_j sum
    past D, where the ring would truncate it.  For d = 1 a nonzero
    determinant certifies the presented cokernel is torsion and generates
    its characteristic ideal at working precision."""
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
    det = SeriesElement(ctx, determinant([[x.coefficients for x in row] for row in matrix]))
    if det.is_zero():
        raise PrecisionExhausted(
            "determinant vanishes mod (p^N, T^(D+1)); torsionness not certifiable"
        )
    return det
