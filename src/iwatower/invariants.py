"""Extraction of growth invariants: exact structure-theory values where
d = 1 permits (content + Weierstrass data of the characteristic
element), and exact rational model fitting of tower data for the five
asymptotic growth laws.

Coefficients are solved exactly over the rationals from the top tower
points; integrality of the main-term coefficients is itself a checked
property (a float fit could mask precision bugs).  O-term verification
is a bounded-residual report on the observed window, never a claim
about all n: reports carry the verdict "window-consistent" at most.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    HypothesisViolated,
    InsufficientData,
    MissingInvariant,
    NonIntegralCoefficient,
)
from .modules import ModulePresentation
from .padic import Prime, as_int, at_least
from .series import char_poly, determinant, weierstrass_prepare

VERDICT_CONSISTENT = "window-consistent"
VERDICT_INCONSISTENT = "window-inconsistent"


@dataclass(frozen=True)
class InvariantReport:
    """Invariant slots plus fit diagnostics.  `method` is "exact" only
    for d = 1 square presentations with a certified characteristic
    element; fitted reports carry the residual window."""

    p: int
    d: int
    method: str
    model: str = ""
    mu: int = None
    lam: int = None
    l0: int = None
    rank: int = None
    rank_over_h: int = None
    mu_h: int = None
    residuals: tuple = ()
    window_bound: Fraction = None
    verdict: str = ""

    def __post_init__(self):
        for name in ("p", "d", "mu", "lam", "l0", "rank", "rank_over_h", "mu_h"):
            if (value := getattr(self, name)) is not None:
                object.__setattr__(self, name, as_int(value))

    def slot(self, name: str):
        value = getattr(self, name)
        if value is None:
            raise MissingInvariant(f"invariant slot '{name}' is absent")
        return value


def exact_invariants_d1(M: ModulePresentation) -> InvariantReport:
    """mu and lambda of a d = 1 square-presented torsion module, read
    off the Weierstrass form of the determinant of the presentation.
    char_poly raises DegreeOverflow where D would truncate it."""
    if M.context.d != 1:
        raise ValueError("exact invariants require d = 1")
    det = char_poly(M.relation_matrix())
    wf = weierstrass_prepare(det)
    return InvariantReport(
        p=M.context.p.p, d=1, method="exact", mu=wf.mu, lam=wf.lam
    )


def mu_of_mod_pn(alphas, r: int, n: int) -> int:
    """mu of M/p^n for a module pseudo-isomorphic (on its p-power
    torsion) to a sum of cyclic p-power pieces with exponents `alphas`
    and of rank r: n*r + sum_i min(n, alpha_i)."""
    n = at_least(n, 1, "n")
    r = at_least(r, 0, "rank r")
    alphas = [at_least(a, 1, "exponent") for a in alphas]
    return n * r + sum(min(n, a) for a in alphas)


def _det_mod_p(M: ModulePresentation):
    """Determinant of the relation matrix with coefficients reduced mod
    p, as a dense polynomial over F_p truncated at degree D.  A second,
    independent path used by the mu-positivity equivalence."""
    ctx = M.context
    p, D = ctx.p.p, ctx.D

    def to_poly(entry):
        out = [0] * (D + 1)
        for (e,), c in entry.coefficients.items():
            out[e] = c % p
        return out

    def pmul(a, b):
        out = [0] * (D + 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    if cb and i + j <= D:
                        out[i + j] = (out[i + j] + ca * cb) % p
        return out

    k, memo = M.generators, {(): [1] + [0] * D}

    def det(cols):  # the minor of the last len(cols) rows on the columns cols
        if cols not in memo:
            acc = [0] * (D + 1)
            for idx, c in enumerate(cols):
                minor = det(cols[:idx] + cols[idx + 1:])
                term = pmul(to_poly(M.relations[k - len(cols)][c]), minor)
                sign = 1 if idx % 2 == 0 else p - 1
                acc = [(x + sign * y) % p for x, y in zip(acc, term)]
            memo[cols] = acc
        return memo[cols]

    return det(tuple(range(k)))


def mu_positivity_equiv(M: ModulePresentation) -> tuple:
    """(mu > 0 via the exact characteristic element, mu of M/p > 0 via
    an independent mod-p determinant).  The two booleans agree."""
    exact = exact_invariants_d1(M)
    mod_p_det = _det_mod_p(M)
    return exact.mu > 0, all(c == 0 for c in mod_p_det)


# ------------------------------------------------------------------
# growth-law families and fitting
# ------------------------------------------------------------------


@dataclass(frozen=True)
class GrowthModel:
    """A named asymptotic law with its exact functional form."""

    family: str
    p: int
    d: int

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown model family {self.family!r}")
        object.__setattr__(self, "p", Prime(self.p).p)
        object.__setattr__(self, "d", as_int(self.d))
        _FAMILIES[self.family].check_d(self.d, self.family)


@dataclass(frozen=True)
class _FamilySpec:
    """One growth law.  A basis term (a, s, t) is n^a * p^((s*d + t)*n);
    the O-term representative `c` is fitted alongside the main-term
    slots, and residuals are normalized by the `c` term with n^a read
    as max(1, n)^a (the O-class envelope)."""

    main: tuple  # (slot name, basis term) pairs
    c: tuple
    o_class: str
    datum: str  # the TowerDatum field the law concerns
    min_d: int = None
    exact_d: int = None

    def main_term(self, slots, p: int, d: int, n: int):
        """Sum of each main-term slot value times its basis term at n."""
        return sum(slots[name] * _term(term, p, d, n) for name, term in self.main)

    def check_d(self, d: int, label: str):
        """Raise ValueError naming `label` when d breaks the family's rule."""
        if self.min_d is not None and d < self.min_d:
            raise ValueError(f"{label} requires d >= {self.min_d}")
        if self.exact_d is not None and d != self.exact_d:
            raise ValueError(f"{label} requires d = {self.exact_d}")


def _term(term, p: int, d: int, n: int, least: int = 0) -> int:
    """max(least, n)^a * p^((s*d + t)*n) for the basis term (a, s, t) at
    a level n >= 0; every family's d rule keeps s*d + t >= 0."""
    a, s, t = term
    return max(least, n) ** a * p ** ((s * d + t) * n)


#: the growth-law families, the one statement of each law's main-term
#: basis, O-term, datum and d rule; `ktheory.predict_growth` reads them too
_FAMILIES = {
    "Iwasawa_d1": _FamilySpec(
        main=(("mu", (0, 0, 1)), ("lam", (1, 0, 0))),
        c=(0, 0, 0), o_class="O(1)",
        datum="log_torsion", exact_d=1,
    ),
    "CuocoMonsky": _FamilySpec(
        main=(("mu", (0, 1, 0)), ("l0", (1, 1, -1))),
        c=(0, 1, -1), o_class="O(p^((d-1)n))",
        datum="log_torsion", min_d=2,
    ),
    "LiangLim": _FamilySpec(
        main=(("mu", (0, 1, 0)),),
        c=(1, 1, -1), o_class="O(n*p^((d-1)n))",
        datum="log_torsion", min_d=1,
    ),
    "Perbet_modpn": _FamilySpec(
        main=(("rank", (1, 1, 0)), ("mu", (0, 1, 0))),
        c=(1, 1, -1), o_class="O(n*p^((d-1)n))",
        datum="log_mod_pn", min_d=1,
    ),
    "Semidirect_rank": _FamilySpec(
        main=(("rank_over_h", (1, 1, -1)),),
        c=(0, 1, -1), o_class="O(p^((d-1)n))",
        datum="log_torsion", min_d=2,
    ),
}


#: slots the paper asserts to be non-negative integers
_INTEGRAL_SLOTS = {"mu", "lam", "rank", "rank_over_h", "mu_h"}


def _det(matrix) -> int:
    """Determinant of a square integer matrix, by series.determinant on
    constant dicts."""
    return determinant([[{(0,): x} if x else {} for x in row] for row in matrix]).get((0,), 0)


def cuoco_monsky_hypothesis_check(data, model: GrowthModel) -> tuple:
    """(passes, reported bound): whether zp_rank_n / p^{(d-2)n} looks
    bounded on the window (non-increasing tail heuristic)."""
    p, d = model.p, model.d
    ratios = [
        Fraction(t.zp_rank) / Fraction(p ** ((d - 2) * t.n)) if d >= 2 else Fraction(t.zp_rank)
        for t in data
        if not t.flagged
    ]
    if not ratios:
        return True, Fraction(0)
    bound = max(ratios)
    if len(ratios) < 2:
        return True, bound
    ok = ratios[-1] <= max(ratios[:-1])
    return ok, bound


def fit_growth(data, model: GrowthModel, n0: int = 1) -> InvariantReport:
    """Fit the model family's main-term coefficients to tower data by
    Cramer's rule on the highest unflagged points, each determinant
    exact by series.determinant.

    Residuals r_n = data - main terms are reported on all points; the
    verdict is "window-consistent" iff the residuals normalized by the
    O-class envelope do not grow at the end of the window: the unflagged
    points with n >= n0, which the rank-hypothesis checks read too.  A
    level below 0 is a ValueError.
    """
    spec = _FAMILIES[model.family]
    p, d = model.p, model.d
    n0 = as_int(n0)
    data = sorted(data, key=lambda t: t.n)
    for t in data:
        at_least(t.n, 0, "tower levels")
    solvable = [t for t in data if not t.flagged and t.n >= n0]
    terms = spec.main + (("c", spec.c),)
    u = len(terms)
    if len(solvable) < max(3, u):
        raise InsufficientData(
            f"need at least {max(3, u)} unflagged points with n >= {n0}, "
            f"got {len(solvable)}"
        )
    if model.family == "CuocoMonsky":
        ok, bound = cuoco_monsky_hypothesis_check(solvable, model)
        if not ok:
            raise HypothesisViolated(
                f"rank growth hypothesis fails: zp_rank / p^((d-2)n) "
                f"unbounded on window (observed up to {bound})"
            )
    if model.family == "Semidirect_rank" and any(t.zp_rank for t in solvable):
        raise HypothesisViolated(
            "finite coinvariants hypothesis fails: nonzero zp_rank on window"
        )
    top = solvable[-u:]
    rows = [[_term(term, p, d, t.n) for _, term in terms] for t in top]
    rhs = [getattr(t, spec.datum) for t in top]
    if not (det := _det(rows)):
        raise InsufficientData("solving system is singular on these points")
    slots = {}
    for j, (name, _) in enumerate(spec.main):
        value = Fraction(_det([row[:j] + [b] + row[j + 1:] for row, b in zip(rows, rhs)]), det)
        if value.denominator != 1 or (name in _INTEGRAL_SLOTS and value < 0):
            raise NonIntegralCoefficient(
                f"main-term coefficient {name} = {value} is not "
                f"{'a non-negative' if name in _INTEGRAL_SLOTS else 'an'} integer"
            )
        slots[name] = int(value)
    residuals = tuple(
        getattr(t, spec.datum) - spec.main_term(slots, p, d, t.n) for t in data
    )
    sizes = [
        abs(Fraction(r, _term(spec.c, p, d, t.n, least=1)))
        for t, r in zip(data, residuals)
        if not t.flagged and t.n >= n0
    ]
    bound = max(sizes, default=Fraction(0))
    consistent = len(sizes) < 2 or sizes[-1] <= max(sizes[:-1])
    return InvariantReport(
        p=p,
        d=d,
        method="fitted",
        model=model.family,
        residuals=residuals,
        window_bound=bound,
        verdict=VERDICT_CONSISTENT if consistent else VERDICT_INCONSISTENT,
        **slots,
    )
