"""Module arithmetic over finite p-group rings (Z/p^N)[G]:
augmentation-ideal quotients, subgroup coinvariants, and the fixed test
corpus of small 3-groups.

A group is its multiplication table (table[a][b] is the index of ab),
and every group helper is an orbit under a few elements, found by
lookups in it: `closure` multiplies only by elements that enlarge the
orbit, `conjugates` conjugates only by the group's generating set, and
`all_subgroups` closes each subgroup with one element per right coset.
A `FiniteGroup` is immutable after construction, so it memoises
`closure` and `conjugates`: one entry per distinct argument set, freed
with the group, and one per subgroup that `all_subgroups` finds.  Each
constructor writes its table as one comprehension over the tuples of
coordinates, numbered in lexicographic order.

A module is (Z/p^N)[G]^k modulo the left submodule its relations
generate.  Its quotient by every (w - 1)x with w in a subgroup K is
free on the pairs (generator, right coset Kt) modulo the relations
projected onto those pairs, since (k - 1)t e_j identifies e_{kt} with
e_t; only that projection goes to the Smith normal form over Z/p^N, so
quotient orders are exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GroupTooLarge, HypothesisViolated
from .modules import AbelianShape, snf
from .padic import Prime, as_int, at_least, prime_base

DEFAULT_ORDER_CAP = 243


class FiniteGroup:
    """Explicit finite group: elements 0..order-1 with a multiplication
    table, checked to be a group (entries in range, identity, inverses,
    associativity); `generating_set` holds each element that the smaller
    ones do not generate."""

    def __init__(self, table, name: str = "G"):
        table = [list(row) for row in table]
        n = len(table)
        if n > DEFAULT_ORDER_CAP:
            raise GroupTooLarge(f"order {n} exceeds cap {DEFAULT_ORDER_CAP}")
        if any(len(row) != n for row in table):
            raise ValueError("multiplication table is not square")
        for a, row in enumerate(table):
            for b, x in enumerate(row):
                if not 0 <= x < n:
                    raise ValueError(f"table entry [{a}][{b}] = {x} is not an element 0..{n - 1}")
        self.table = table
        self.order = n
        self.name = name
        self._all = frozenset(range(n))
        self.identity = self._find_identity()
        self.inverse = self._find_inverses()
        self._closures, self._conjugates = {}, {}
        self.generating_set = ()
        while rest := self._all - self.closure(self.generating_set):
            self.generating_set += (min(rest),)
        self._check_associativity()

    def _find_identity(self) -> int:
        for e in range(self.order):
            if all(self.table[e][x] == x and self.table[x][e] == x for x in range(self.order)):
                return e
        raise ValueError("no identity element")

    def _find_inverses(self):
        e = self.identity
        inv = [row.index(e) if e in row else None for row in self.table]
        for x, y in enumerate(inv):
            if y is None or self.table[y][x] != e:
                raise ValueError(f"element {x} has no inverse")
        return inv

    def _check_associativity(self):
        """Light's test: x(gy) = (xg)y for g in the generating set.  The
        g that pass are closed under products and the orbit of the
        identity under the set is the whole table, so every g passes."""
        t = self.table
        for g in self.generating_set:
            for tx in t:
                if [tx[gy] for gy in t[g]] != t[tx[g]]:
                    raise ValueError("multiplication table is not associative")

    def _checked(self, elements: frozenset) -> frozenset:
        if bad := elements - self._all:
            raise ValueError(f"{min(bad)!r} is not a group element 0..{self.order - 1}")
        return frozenset(map(int, elements))

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def closure(self, generators) -> frozenset:
        """Subgroup generated by the given elements (see _close).
        Memoised on the group, one entry per distinct set of elements."""
        key = frozenset(generators)
        if key not in self._closures:
            self._closures[key] = self._close(self._checked(key))
        return self._closures[key]

    def _close(self, generators: frozenset) -> frozenset:
        """The orbit of the identity under right multiplication by each
        of the given elements, smallest first, that is not yet in it.  In
        a finite group each such orbit is a subgroup (g^-1 is a power of
        g), which maps to itself under multiplication by an element
        inside it."""
        t = self.table
        todo, seen, used = generators, {self.identity}, []
        while todo := todo - seen:
            used.append(min(todo))
            frontier = {t[x][used[-1]] for x in seen} - seen
            while frontier:
                seen |= frontier
                frontier = {t[x][g] for x in frontier for g in used} - seen
        return frozenset(seen)

    def is_normal(self, subgroup) -> bool:
        """Whether the subgroup holds its conjugates."""
        sub = frozenset(subgroup)
        return self.conjugates(sub) <= sub

    def conjugates(self, elements) -> frozenset:
        """All G-conjugates of the given elements: their orbit under
        u -> g*u*g^-1 for g in `generating_set`, which is their orbit
        under G as conjugation by a product is the composite of
        conjugations and g^-1 is a power of g.  Memoised on the group, one
        entry per distinct set of elements."""
        key = frozenset(elements)
        if key in self._conjugates:
            return self._conjugates[key]
        t, inv = self.table, self.inverse
        seen = frontier = self._checked(key)
        while frontier:
            frontier = {t[t[g][u]][inv[g]] for u in frontier for g in self.generating_set} - seen
            seen |= frontier
        self._conjugates[key] = seen
        return seen

    def _right_cosets(self, subgroup):
        """The index of each element's right coset Kx, numbering the
        cosets by their smallest elements, and those elements."""
        t, coset, reps = self.table, [None] * self.order, []
        for x in range(self.order):
            if coset[x] is None:
                for k in subgroup:
                    coset[t[k][x]] = len(reps)
                reps.append(x)
        return coset, reps

    def all_subgroups(self):
        """Every subgroup, by closing each one found with one element of
        each of its other right cosets: <S, s*x> = <S, x> for s in S.
        Those sets are closed without the memo, which then records each
        subgroup found as its own closure."""
        subs = frontier = {frozenset({self.identity})}
        while frontier:
            frontier = {
                self._close(sub | {x})
                for sub in frontier for x in self._right_cosets(sub)[1] if x not in sub
            } - subs
            subs = subs | frontier
        for sub in subs:
            self._closures.setdefault(sub, sub)
        return sorted(subs, key=lambda s: (len(s), sorted(s)))

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"


# ------------------------------------------------------------------
# constructions
# ------------------------------------------------------------------


def cyclic_group(k: int) -> FiniteGroup:
    k = at_least(k, 1, "k")
    return FiniteGroup([[*range(a, k), *range(a)] for a in range(k)], f"C{k}")


def direct_product(G: FiniteGroup, H: FiniteGroup) -> FiniteGroup:
    """Elements (g, h), numbered g |H| + h."""
    table = [[x * H.order + y for x in G.table[g] for y in H.table[h]] for g in range(G.order) for h in range(H.order)]
    return FiniteGroup(table, f"{G.name}x{H.name}")


def semidirect_c3_c9() -> FiniteGroup:
    """C9 acted on by C3 through multiplication by 4 (an order-3
    automorphism of Z/9); elements (x mod 9, a mod 3), numbered 3x + a."""
    r9, r3 = range(9), range(3)
    table = [[(x + y * 4**a) % 9 * 3 + (a + b) % 3 for y in r9 for b in r3] for x in r9 for a in r3]
    return FiniteGroup(table, "C9:C3")


def heisenberg(p: int = 3) -> FiniteGroup:
    """Upper unitriangular 3x3 matrices over Z/p; elements (a, b, c),
    numbered (ap + b)p + c, with (a,b,c)(a',b',c') = (a+a', b+b', c+c'+a*b')."""
    r = range(p := at_least(p, 2, "p"))
    table = [
        [((a + x) % p * p + (b + y) % p) * p + (c + z + a * y) % p for x in r for y in r for z in r]
        for a in r for b in r for c in r
    ]
    return FiniteGroup(table, f"Heis{p}")


def corpus_groups(p: int = 3):
    """Fixed in-repo corpus for the finite-level lemma checks: each
    entry is (group, H, Gamma) with H normal, G = H*Gamma and
    H meet Gamma trivial."""
    if p != 3:
        raise ValueError("the fixed corpus is defined for p = 3")
    out = []
    c3, c9, c81 = cyclic_group(3), cyclic_group(9), cyclic_group(81)
    triv = lambda G: frozenset({G.identity})
    out.append((c3, triv(c3), frozenset(range(3))))
    out.append((c9, triv(c9), frozenset(range(9))))
    out.append((c81, triv(c81), frozenset(range(81))))
    e9 = direct_product(c3, c3)
    out.append((e9, e9.closure({3}), e9.closure({1})))  # first factor, second factor
    e27 = direct_product(direct_product(c3, c3), c3)
    out.append((e27, e27.closure({3, 9}), e27.closure({1})))
    sd = semidirect_c3_c9()
    out.append((sd, sd.closure({3}), sd.closure({1})))  # H = C9 = {(x,0)}, Gamma = {(0,a)}
    h = heisenberg(3)
    # H = {(0,b,c)} of order 9 (normal, contains the center); Gamma = {(a,0,0)}
    out.append((h, h.closure({3, 1}), h.closure({9})))
    return out


# ------------------------------------------------------------------
# modules over (Z/p^N)[G]
# ------------------------------------------------------------------


@dataclass(frozen=True)
class FiniteGroupRingModule:
    """Finite presentation over the group ring: generators `k` and
    relations given as vectors of group-ring elements, each a dict
    mapping group-element index to a coefficient equal to an integer."""

    group: FiniteGroup
    p: Prime
    N: int
    generators: int = 1
    relations: tuple = ()

    def __post_init__(self):
        if self.group.order != 1 and prime_base(self.group.order) != self.p.p:
            raise ValueError("group order must be a power of p")
        object.__setattr__(self, "N", at_least(self.N, 1, "N"))
        object.__setattr__(self, "generators", at_least(self.generators, 1, "generators"))
        elements = range(self.group.order)
        rels = tuple(tuple({s: as_int(c) for s, c in dict(e).items()} for e in row) for row in self.relations)
        for row in rels:
            if len(row) != self.generators:
                raise ValueError(f"relation length {len(row)} does not match generator count {self.generators}")
            bad = [s for entry in row for s in entry if s not in elements]
            if bad:
                raise ValueError(f"relation key {bad[0]!r} is not a group element 0..{elements[-1]}")
        object.__setattr__(self, "relations", rels)

    def shape_of(self, multipliers=()) -> AbelianShape:
        """Shape of M / span{(w - 1)x : w in multipliers, x in M}, the
        coinvariants of M under K = <multipliers>: the relations g*rel,
        one g per right coset Kg (k*g*rel projects to the same row),
        projected onto the basis of pairs (generator j, coset Kt)."""
        G = self.group
        t = G.table
        K = G.closure(multipliers)
        if not self.relations:
            return AbelianShape((), self.generators * (G.order // len(K)), self.N)
        coset, reps = G._right_cosets(K)
        width = len(reps)
        rows = []
        for rel in self.relations:
            for g in reps:
                row = [0] * (self.generators * width)
                for j, entry in enumerate(rel):
                    for s, c in entry.items():
                        row[j * width + coset[t[g][s]]] += c
                rows.append(row)
        return snf(rows, self.p, self.N)


def group_ring_module(group: FiniteGroup, p: Prime, N: int) -> FiniteGroupRingModule:
    """The group ring itself as a module over itself."""
    return FiniteGroupRingModule(group, p, N, generators=1, relations=())


# ------------------------------------------------------------------
# the lemma-level operations
# ------------------------------------------------------------------


@dataclass(frozen=True)
class AugmentationQuotients:
    """M/I_U M (span of (u-1)x under the subgroup ring only) against
    M/M(U) (full group-ring span, the coinvariants under the normal
    closure of U), both as exact orders on the coset basis."""

    log_size_iu: int  # log_p |M / I_U M|
    log_size_mu: int  # log_p |M / M(U)|
    inclusion_strict: bool


def augmentation_quotients(M: FiniteGroupRingModule, U) -> AugmentationQuotients:
    U = M.group.closure(U)
    log_iu = M.shape_of(U).log_order()
    log_mu = M.shape_of(M.group.conjugates(U)).log_order()
    return AugmentationQuotients(log_iu, log_mu, log_iu != log_mu)


@dataclass(frozen=True)
class QuotientCoinvariantReport:
    """The three quotient-coinvariant shapes, each the coinvariants
    under one subgroup computed on its coset basis: they are asserted
    pairwise equal when H_m is normal and meets Gamma_n trivially."""

    shape_hm_then_gamma: AbelianShape
    shape_joint: AbelianShape
    shape_gamma_then_hm: AbelianShape

    @property
    def all_equal(self) -> bool:
        return self.shape_hm_then_gamma == self.shape_joint == self.shape_gamma_then_hm


def quotient_coinvariant_check(
    M: FiniteGroupRingModule, H_m, Gamma_n
) -> QuotientCoinvariantReport:
    """Compare (M_{H_m})_{Gamma_n}, M / M(H_m Gamma_n) and
    (M/M(Gamma_n))_{H_m} as abelian groups."""
    G = M.group
    H_m = G.closure(H_m)
    Gamma_n = G.closure(Gamma_n)
    if not G.is_normal(H_m):
        raise HypothesisViolated("H_m must be normal in G")
    if len(H_m & Gamma_n) != 1:
        raise HypothesisViolated("H_m and Gamma_n must intersect trivially")
    joint = G.closure(H_m | Gamma_n)
    if not G.is_normal(joint):
        raise HypothesisViolated(
            "the joint level subgroup generated by H_m and Gamma_n must "
            "be normal in G"
        )
    # (M_{H_m})_{Gamma_n}: H_m is normal so M(H_m) needs no
    # conjugation; the Gamma_n coinvariants of the quotient add the
    # subgroup-ring span of Gamma_n (enough for coinvariants)
    shape1 = M.shape_of(H_m | Gamma_n)
    # M / M(G_{m,n})
    shape2 = M.shape_of(G.conjugates(joint))
    # (M / M(Gamma_n))_{H_m}
    shape3 = M.shape_of(G.conjugates(Gamma_n) | H_m)
    return QuotientCoinvariantReport(shape1, shape2, shape3)
