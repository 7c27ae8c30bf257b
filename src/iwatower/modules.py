"""Finitely presented modules over the truncated d-variable Iwasawa
algebra: coinvariants at tower levels, Smith normal form over Z/p^N,
and the independent resultant oracle for one-variable torsion sizes.

Coinvariants first drop each generator that a relation entry with a unit
constant term expresses in the others (Bareiss elimination on the
integer lift, reduced mod p^N after), then split the module into direct
summands, factor out the p-power content of each (p^mu S' has the
elementary divisors of S' times p^mu), drop generators of S' the same
way and expand it only in the variables its relations use: a variable it
does not use multiplies the copies of its coinvariants by p^n.  Each
used variable T_j is reduced modulo one monic polynomial: a monic
annihilator h(T_j) of the summand of degree < p^n when its determinant
gives one, else the level-n element (1+T_j)^{p^n} - 1.  These are monic
in distinct variables, so a monomial reduces one variable at a time (no
Groebner machinery).  A relation row holds only nonzeros: below the
degree of its modulus a power of T_j is itself, and only the powers at
or beyond it come from a table of reduced powers, as long as the largest
exponent the summand uses.  The Smith normal form eliminates one p-adic
valuation layer at a time (Cohen, GTM 138, section 2.4) on sparse dict
rows of Python ints mod p^N, never divided: each pass pivots at the
least row content p^e, on the rows of that content, fewest nonzeros
first to limit fill-in (see snf).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import gcd, prod

from .errors import ContextMismatch, DegreeOverflow, DimensionOverflow, NotSquare, PrecisionExhausted
from .padic import Prime, as_int, at_least, ord_p
from .series import PrecisionContext, SeriesElement, char_poly, minors, omega_int_coeffs

#: default cap on the number of Z/p^N basis elements of a coinvariant.
DEFAULT_DIMENSION_BOUND = 20000

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
        object.__setattr__(self, "generators", at_least(self.generators, 1, "generators"))
        rels = tuple(tuple(row) for row in self.relations)
        for row in rels:
            if len(row) != self.generators:
                raise ValueError(f"relation length {len(row)} does not match generator count {self.generators}")
            for entry in row:
                if entry.context != self.context:
                    raise ContextMismatch(
                        "presentation entry context differs from module context"
                    )
        object.__setattr__(self, "relations", rels)

    def relation_matrix(self):
        return [list(row) for row in self.relations]

    @cached_property
    def _parts(self) -> list:
        """(E, k, mu, annihilator of E or None, variables E uses) for each
        summand S = p^mu S' of M without its unit pivots (see _eliminated,
        _summands and _annihilator), found once per presentation, which
        is immutable.  mu is the least content valuation of the entries of
        S; S' divides each coefficient by p^mu, a lift of S / p^mu, and
        p^mu S' = S for any lift.  S' has k generators; E is S' without
        its own unit pivots, which only a division by p^mu can bring, or
        None when S' is 0."""
        M, parts = _eliminated(self), []
        for S in _summands(M) if M else ():
            ctx, k = S.context, S.generators
            mu = min((x.content_valuation() for row in S.relations for x in row), default=0)
            if mu:
                S = _eliminated(ModulePresentation(ctx, k, tuple(tuple(SeriesElement(ctx, {
                    e: c // ctx.p.p ** mu for e, c in x.coefficients.items()}) for x in row) for row in S.relations)))
            rows = S.relations if S else ()
            used = {v for row in rows for x in row for e in x.coefficients for v in range(ctx.d) if e[v]}
            parts.append((S, k, mu, _annihilator(S) if S else None, used))
        return parts


@dataclass(frozen=True)
class TowerDatum:
    """Per-level measurement of a coinvariant quotient."""

    n: int
    log_torsion: int
    zp_rank: int
    log_mod_pn: int
    flags: tuple = ()

    def __post_init__(self):
        for name in ("n", "log_torsion", "zp_rank", "log_mod_pn"):
            object.__setattr__(self, name, as_int(getattr(self, name)))

    @property
    def flagged(self) -> bool:
        return bool(self.flags)


# ------------------------------------------------------------------
# Smith normal form over Z/p^N
# ------------------------------------------------------------------


def snf(matrix, p: Prime, N: int) -> AbelianShape:
    """Shape of the cokernel of `matrix` viewed as relations (rows)
    among `ncols` generators of (Z/p^N)^ncols.

    Eliminates one valuation layer at a time on rows mod p^N that are
    never divided.  A pass takes p^e, the least content gcd(p^N, row) of
    a live row, so no layer without such a row is visited, and visits the
    rows of content p^e, fewest nonzeros first (ties in row order) to
    limit fill-in.  A row still holding an entry u p^e, u a unit, pivots
    on its first one: (x / p^e) u^-1 times it is taken from each row with
    x in the pivot column, and it is dropped.  A row with no such entry
    left is skipped, as an update then subtracts a multiple of p times
    the pivot row.  The rows cleared to zero leave at the end of a pass.
    Elementary divisors do not depend on pivot order.

    The rows are dict rows of Python ints, with a column -> rows index
    that finds the rows hit by a pivot, so a pivot costs the nonzeros it
    touches rather than a pass over the block (the sparse phase of
    structured Gaussian elimination, after LaMacchia and Odlyzko).  The
    coinvariants hand their rows over as built.  Other input (a list of
    lists, a 2-D array) is read mod p^N, exactly for entries equal to
    integers of any size, into the same rows; its rows must be sequences
    of one length (ValueError), and with none the columns are shape[-1] or 0.
    """
    q = p.p
    m = q ** (N := at_least(N, 1, "N"))
    if not isinstance(matrix, _SparseRows):
        rows = list(matrix)
        cols = len(rows[0]) if rows and hasattr(rows[0], "__len__") else getattr(matrix, "shape", (0,))[-1]
        if bad := [i for i, row in enumerate(rows) if not hasattr(row, "__len__") or len(row) != cols]:
            raise ValueError(f"snf needs rows that are sequences of one length: row {bad[0]} is {rows[bad[0]]!r}")
        rows = [{j: y for j, x in enumerate(row) if (y := as_int(x) % m)} for row in rows]
        matrix = _SparseRows(rows, (len(rows), cols))
    cols = matrix.shape[1]
    live = {i: row for i, row in enumerate(matrix.rows) if row}
    index = [set() for _ in range(cols)]
    for i, row in live.items():
        for j in row:
            index[j].add(i)
    exps = []
    while live:
        contents = [gcd(m, *row.values()) for row in live.values()]
        pe = min(contents)
        e = ord_p(pe, p)
        for i in sorted((i for i, g in zip(live, contents) if g == pe), key=lambda i: len(live[i])):
            row = live[i]
            j = min((c for c, v in row.items() if v % (pe * q)), default=None)
            if j is None:
                continue
            del live[i]
            inv = pow(row[j] // pe, -1, m)
            # the index keeps rows since pivoted or cleared in column j
            for r in [r for r in index[j] if j in live.get(r, ())]:
                target = live[r]
                f = target[j] // pe * inv % m
                for c, v in row.items():
                    x = (target.get(c, 0) - f * v) % m
                    if x:
                        target[c] = x
                        index[c].add(r)
                    else:
                        target.pop(c, None)
            exps.append(e)
        live = {i: row for i, row in live.items() if row}
    return AbelianShape(tuple(e for e in exps if e), cols - len(exps), N)


# ------------------------------------------------------------------
# Coinvariants on the monomial basis
# ------------------------------------------------------------------


@dataclass(frozen=True)
class _SparseRows:
    """Relation rows for snf: per row a dict {column: nonzero residue
    mod p^N}, in row order, and the (rows, columns) shape of the matrix
    they stand for.  snf updates the dicts in place."""

    rows: list
    shape: tuple


def _reduced_powers(modulus, m: int, top: int, stride: int) -> list:
    """red[e] = the nonzeros of T^e reduced modulo the monic polynomial
    `modulus` (integer coefficients, constant term first) of degree q,
    for e <= top, as (b * stride, coefficient mod m) pairs for T^b: T^e
    itself below q, then T^e = T * T^(e-1) with T^q = -sum_{i<q}
    modulus[i] T^i."""
    q = len(modulus) - 1
    w = [c % m for c in modulus[:q]]
    red = [[(e * stride, 1)] for e in range(min(q, top + 1))]
    x = [0] * (q - 1) + [1]  # T^(q-1)
    for _ in range(q, top + 1):
        x = [(y - x[-1] * c) % m for y, c in zip([0] + x[:-1], w)]
        red.append([(b * stride, c) for b, c in enumerate(x) if c])
    return red


def _relation_rows(M: ModulePresentation, moduli: dict) -> _SparseRows:
    """The relation rows of M on the monomials reduced modulo the monic
    moduli[v] in each variable v of `moduli`, which holds every variable
    the relations use, with the shape of the matrix they stand for.  Row
    (i, a) is relation i times the multiplier T^a, and column (g, b) is
    generator g times the monomial T^b, with a_v and b_v below
    deg moduli[v], flattened in lexicographic order.  Each term c*T^e of
    relation i adds the nonzeros of c*T^(a+e) reduced to row (i, a), which
    is reduced mod p^N as soon as it is built.  Each variable's table of
    reduced powers ends at the largest exponent the relations use."""
    m = M.context.modulus
    degrees = [len(h) - 1 for h in moduli.values()]
    b = prod(degrees)
    tops = {v: max((x.degree(v) for row in M.relations for x in row), default=0) for v in moduli}
    tables, stride = [], b
    for (v, h), q in zip(moduli.items(), degrees):
        stride //= q
        tables.append(_reduced_powers(h, m, q - 1 + tops[v], stride))
    multipliers = list(product(*map(range, degrees)))
    rows = []
    for rel in M.relations:
        terms = [
            (g * b, [exps[v] for v in moduli], c)
            for g, x in enumerate(rel) for exps, c in x.coefficients.items()
        ]
        for a in multipliers:
            row = {}
            for base, e, c in terms:
                cells = [(base, c)]
                for red, av, ev in zip(tables, a, e):
                    cells = [(o + s, z) for o, u in cells for s, y in red[av + ev] if (z := u * y % m)]
                for col, x in cells:
                    row[col] = row.get(col, 0) + x
            rows.append({col: y for col, x in row.items() if (y := x % m)})
    return _SparseRows(rows, (len(rows), M.generators * b))


def _annihilator(M: ModulePresentation):
    """(j, h) for a monic h(T_j) with h * Lambda^k inside the relations,
    as integer coefficients with the constant term first, or None.  h is
    det(A) over its leading coefficient, for a square presentation A
    whose determinant (see char_poly) involves T_j alone and leads with a
    unit: adj(A) * A = det * I.  None when char_poly refuses A, as when D
    would truncate det; with mu > 0 no coefficient is a unit."""
    ctx, m = M.context, M.context.modulus
    try:
        det = char_poly(M.relation_matrix())
    except (DegreeOverflow, NotSquare, PrecisionExhausted):
        return None
    support = {v for exps in det.coefficients for v in range(ctx.d) if exps[v]}
    j = min(support, default=0)
    coeffs = [0] * (det.degree(j) + 1)
    for exps, c in det.coefficients.items():
        coeffs[exps[j]] = c
    if len(support) > 1 or coeffs[-1] % ctx.p.p == 0:
        return None
    return j, [c * pow(coeffs[-1], -1, m) % m for c in coeffs]


def _eliminated(M: ModulePresentation):
    """M on fewer generators, M itself when no pivot is taken, or None
    for the zero module.  An entry u = r_i[g] with a unit constant term
    is a unit of Lambda and of each level ring, which are local, so r_i
    expresses generator g in the others (Nakayama): series.minors on the
    integer lift of the relations takes each such pivot.  The entries
    left are minors of degree <= k D, k = M.generators; reduced mod p^N
    they go to the degree cap 2 k D, which char_poly's row-degree rule
    reads when _annihilator takes their determinant."""
    ctx, zero, p = M.context, (0,) * M.context.d, M.context.p.p
    rows, pivots, _ = minors([[x.coefficients for x in r] for r in M.relations], lambda u: u.get(zero, 0) % p)
    ctx, k = PrecisionContext(ctx.p, ctx.N, ctx.d, 2 * M.generators * ctx.D), M.generators - len(pivots)
    return M if not pivots else ModulePresentation(ctx, k, tuple(tuple(SeriesElement(ctx, x) for x in r) for r in rows)) if k else None


def _summands(M: ModulePresentation) -> list:
    """Direct summands of M, relations and generators kept in order: the
    components of the graph linking relation i to generator g when entry
    (i, g) is nonzero.  All-zero relations are dropped; a generator that
    no relation touches is a free summand."""
    parts = [({g}, []) for g in range(M.generators)]
    for i, row in enumerate(M.relations):
        hit = [part for part in parts if any(row[g].coefficients for g in part[0])]
        if hit:
            parts = [part for part in parts if part not in hit]
            parts.append((set().union(*(gs for gs, _ in hit)), [r for _, rs in hit for r in rs] + [i]))
    return [
        ModulePresentation(M.context, len(gs), tuple(tuple(M.relations[i][g] for g in sorted(gs)) for i in sorted(rs)))
        for gs, rs in parts
    ]


def coinvariants(
    M: ModulePresentation,
    n: int,
    dimension_bound: int = DEFAULT_DIMENSION_BOUND,
) -> AbelianShape:
    """Shape of the level-n coinvariant quotient of M: the quotient of
    Lambda_d^k by the relation rows together with the level-n elements
    w_n(T_j) = (1+T_j)^{p^n} - 1 acting on every generator.

    M is first presented on fewer generators where a relation entry has a
    unit constant term (see _eliminated), which leaves the module as it
    is; the summands and `dimension_bound` below count that presentation.
    Coinvariants of a direct sum are the sum of the coinvariants, so each
    summand S of M (see _summands) is taken alone and the exponents are
    merged in sorted order.  S is p^mu S' (see ModulePresentation._parts),
    and SNF(p^mu A) = p^mu SNF(A): of the k p^(nd) divisors of S' on the
    monomial basis, each torsion exponent e of S' becomes e + mu (free
    rank when e + mu >= N) and the units become mu.  The matrix built is
    E's: S' on fewer generators the same way, none when S' is 0.  If E
    uses only the variables in U, its coinvariants are p^(n(d - #U))
    copies of those over U, as E is E' (x) Z_p[[T_v : v not in U]].

    With a monic annihilator h(T_j) of E (see _annihilator) of degree
    < p^n, T_j joins U and its exponents are reduced modulo h, as
    (Z/p^N)[T_j]/(w_n, h) is one ring whichever is reduced by first, and
    each generator gets the level rows w_n(C_h) (x) I, C_h the companion
    matrix of h, from n successive p-th powers of I + C_h.  The other
    variables in U keep exponents < p^n.  `dimension_bound` caps the sum
    over the summands of k * prod deg, over all d variables for a summand
    on k generators, or k p^(nd) for one with mu > 0."""
    n = at_least(n, 0, "n")
    dimension_bound = at_least(dimension_bound, 0, "dimension_bound")
    ctx = M.context
    p, N, d = ctx.p.p, ctx.N, ctx.d
    plans, basis = [], 0
    for E, k, mu, ann, used in M._parts:
        j, h = ann if ann and len(ann[1]) <= p ** n else (None, None)
        plans.append((E, k, mu, j, h, sorted(used | ({j} - {None}))))
        basis += k * (p ** n if h is None or mu else len(h) - 1) * p ** (n * d - n)
    if basis > dimension_bound:
        raise DimensionOverflow(f"basis size {basis} exceeds bound {dimension_bound}")
    omega = omega_int_coeffs(p, n) if any(v != j for *_, j, _, U in plans for v in U) else None
    torsion, free = [], 0
    for E, k, mu, j, h, U in plans:
        copies = p ** (n * (d - len(U)))
        moduli = {v: h if v == j else omega for v in U}
        b = prod(len(x) - 1 for x in moduli.values())
        s = E.generators if E else 0
        t, f = (), s * b
        if s and E.relations:
            if h is not None:  # level rows w_n(T_j) e_g; w_n mod h is row 0 of w_n(C_h)
                m, q = ctx.modulus, len(h) - 1
                red = _reduced_powers(h, m, q, 1)  # x = I + C_h: row a is T^a + T^(a+1) mod h
                x = [[int(a == c) + dict(red[a + 1]).get(c, 0) for c in range(q)] for a in range(q)]
                for _ in range(n):  # x = x^p mod p^N: p - 1 products with the columns of x
                    cols = list(zip(*x))
                    for _ in range(p - 1):
                        x = [[sum(u * v for u, v in zip(row, col)) % m for col in cols] for row in x]
                w = SeriesElement.univariate(E.context, [x[0][0] - 1, *x[0][1:]], j)
                E = ModulePresentation(E.context, s, E.relations + tuple(
                    tuple(w if g == i else SeriesElement.zero(E.context) for g in range(s)) for i in range(s)
                ))
            try:
                shape = snf(_relation_rows(E, moduli), ctx.p, N)
            except MemoryError as exc:
                raise DimensionOverflow(
                    f"the {len(E.relations) * b} x {s * b} relation matrix does not fit in memory"
                ) from exc
            t, f = shape.torsion_exponents, shape.free_rank_at_precision
        if mu:  # S = p^mu S': each of the k p^(n #U) divisors of S' gains mu, up to N
            u = k * p ** (n * len(U)) - len(t) - f
            t, f = (mu,) * u + tuple(e + mu for e in t if e + mu < N), f + sum(e + mu >= N for e in t)
        torsion += t * copies
        free += f * copies
    return AbelianShape(tuple(sorted(torsion)), free, N)


def tower(
    M: ModulePresentation,
    n_max: int,
    dimension_bound: int = DEFAULT_DIMENSION_BOUND,
) -> list:
    """Coinvariant measurements for n = 0..n_max.  Levels are
    independent pure computations; per-level failures are recorded as
    flags and the run continues.  A level with a torsion exponent of
    N - 1, the largest below N, is flagged PrecisionMargin."""
    n_max = at_least(n_max, 0, "n_max")

    def level(n: int) -> TowerDatum:
        try:
            shape = coinvariants(M, n, dimension_bound)
        except DimensionOverflow:
            return TowerDatum(n, 0, 0, 0, ("DimensionOverflow",))
        flags = ("PrecisionMargin",) if M.context.N - 1 in shape.torsion_exponents else ()
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

    Independent of the SNF path: exact rational arithmetic on lifted
    coefficients (see _resultant).  Raises PrecisionExhausted when the
    resultant is 0 mod p^N (value not determined at this precision)."""
    ctx, coeffs = f.context, f.univariate_coeffs()
    p, N = ctx.p.p, ctx.N
    # Res(w, f) = product of f over the roots of the monic w
    res = _resultant(omega_int_coeffs(p, at_least(n, 0, "n")), coeffs)
    if res % (p ** N) == 0:
        raise PrecisionExhausted(
            "resultant is 0 mod p^N; torsion size not determined at this precision"
        )
    return ord_p(res, ctx.p)


def _resultant(a: list, b: list) -> int:
    """Res(a, b) of integer polynomials given as coefficient lists,
    constant term first, with nonzero leading coefficients.  Euclid's
    algorithm over the rationals: Res(a, b) = (-1)^(deg a deg b)
    lc(b)^(deg a - deg r) Res(b, r) for r = a mod b, which is 0 when r
    is 0 and b is not constant, and Res(a, c) = c^(deg a) for a constant
    c."""
    a, b = [Fraction(x) for x in a], [Fraction(x) for x in b]
    res = Fraction(1)
    while len(b) > 1:
        r = a[:]
        while len(r) >= len(b):  # r = a mod b: cancel the leading term
            c = r[-1] / b[-1]
            for i, y in enumerate(b, start=len(r) - len(b)):
                r[i] -= c * y
            while r and not r[-1]:
                r.pop()
        if not r:
            return 0
        res *= (-1) ** ((len(a) - 1) * (len(b) - 1)) * b[-1] ** (len(a) - len(r))
        a, b = b, r
    return int(res * b[0] ** (len(a) - 1))
