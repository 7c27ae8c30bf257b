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
    NotSquare,
)
from .modules import ModulePresentation
from .padic import Prime
from .series import char_poly, weierstrass_prepare

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

    def slot(self, name: str):
        value = getattr(self, name)
        if value is None:
            raise MissingInvariant(f"invariant slot '{name}' is absent")
        return value


def exact_invariants_d1(M: ModulePresentation, guard: int = 1) -> InvariantReport:
    """mu and lambda of a d = 1 square-presented torsion module, read
    off the Weierstrass form of the determinant of the presentation."""
    if M.context.d != 1:
        raise NotSquare("exact invariants require d = 1")
    if not M.is_square():
        raise NotSquare("presentation matrix is not square")
    det = char_poly(M.relation_matrix())
    wf = weierstrass_prepare(det, guard=guard)
    return InvariantReport(
        p=M.context.p.p, d=1, method="exact", mu=wf.mu, lam=wf.lam
    )


def mu_of_mod_pn(alphas, r: int, n: int) -> int:
    """mu of M/p^n for a module pseudo-isomorphic (on its p-power
    torsion) to a sum of cyclic p-power pieces with exponents `alphas`
    and of rank r: n*r + sum_i min(n, alpha_i)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if r < 0 or any(a < 1 for a in alphas):
        raise ValueError("rank must be >= 0 and exponents >= 1")
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

    def det(rows, cols):
        if len(cols) == 1:
            return to_poly(M.relations[rows[0]][cols[0]])
        acc = [0] * (D + 1)
        r = rows[0]
        for idx, c in enumerate(cols):
            minor = det(rows[1:], cols[:idx] + cols[idx + 1:])
            term = pmul(to_poly(M.relations[r][c]), minor)
            sign = 1 if idx % 2 == 0 else p - 1
            acc = [(x + sign * y) % p for x, y in zip(acc, term)]
        return acc

    k = M.generators
    return det(tuple(range(k)), tuple(range(k)))


def mu_positivity_equiv(M: ModulePresentation, guard: int = 1) -> tuple:
    """(mu > 0 via the exact characteristic element, mu of M/p > 0 via
    an independent mod-p determinant).  The two booleans agree."""
    exact = exact_invariants_d1(M, guard=guard)
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
        Prime(self.p)
        _FAMILIES[self.family].check_d(self.d, self.family)


@dataclass(frozen=True)
class _FamilySpec:
    # (slot name, basis function of n) pairs; slots named "c" are
    # nuisance O-term representatives and are excluded from main terms
    unknowns: tuple
    o_class: str
    # normalizer h(n) for residuals (the O-class envelope)
    h: callable
    datum_value: callable  # which tower measurement the law concerns
    min_d: int = None
    exact_d: int = None

    @property
    def main(self) -> tuple:
        """The (slot name, basis function) pairs of the main term."""
        return tuple((name, g) for name, g in self.unknowns if name != "c")

    def main_term(self, slots, p: int, d: int, n: int):
        """Sum of each main-term slot value times its basis function at n."""
        return sum(slots[name] * g(p, d, n) for name, g in self.main)

    def check_d(self, d: int, label: str):
        """Raise ValueError naming `label` when d breaks the family's rule."""
        if self.min_d is not None and d < self.min_d:
            raise ValueError(f"{label} requires d >= {self.min_d}")
        if self.exact_d is not None and d != self.exact_d:
            raise ValueError(f"{label} requires d = {self.exact_d}")


def _pw(p, e):
    return p ** e if e >= 0 else Fraction(1, p ** -e)


#: the growth-law families, the one statement of each law's main-term
#: basis, O-class and d rule; `ktheory.predict_growth` reads them too
_FAMILIES = {
    "Iwasawa_d1": _FamilySpec(
        unknowns=(
            ("mu", lambda p, d, n: _pw(p, n)),
            ("lam", lambda p, d, n: n),
            ("c", lambda p, d, n: 1),
        ),
        o_class="O(1)",
        h=lambda p, d, n: 1,
        datum_value=lambda t: t.log_torsion,
        exact_d=1,
    ),
    "CuocoMonsky": _FamilySpec(
        unknowns=(
            ("mu", lambda p, d, n: _pw(p, d * n)),
            ("l0", lambda p, d, n: n * _pw(p, (d - 1) * n)),
            ("c", lambda p, d, n: _pw(p, (d - 1) * n)),
        ),
        o_class="O(p^((d-1)n))",
        h=lambda p, d, n: _pw(p, (d - 1) * n),
        datum_value=lambda t: t.log_torsion,
        min_d=2,
    ),
    "LiangLim": _FamilySpec(
        unknowns=(
            ("mu", lambda p, d, n: _pw(p, d * n)),
            ("c", lambda p, d, n: n * _pw(p, (d - 1) * n)),
        ),
        o_class="O(n*p^((d-1)n))",
        h=lambda p, d, n: max(1, n) * _pw(p, (d - 1) * n),
        datum_value=lambda t: t.log_torsion,
        min_d=1,
    ),
    "Perbet_modpn": _FamilySpec(
        unknowns=(
            ("rank", lambda p, d, n: n * _pw(p, d * n)),
            ("mu", lambda p, d, n: _pw(p, d * n)),
            ("c", lambda p, d, n: n * _pw(p, (d - 1) * n)),
        ),
        o_class="O(n*p^((d-1)n))",
        h=lambda p, d, n: max(1, n) * _pw(p, (d - 1) * n),
        datum_value=lambda t: t.log_mod_pn,
        min_d=1,
    ),
    "Semidirect_rank": _FamilySpec(
        unknowns=(
            ("rank_over_h", lambda p, d, n: n * _pw(p, (d - 1) * n)),
            ("c", lambda p, d, n: _pw(p, (d - 1) * n)),
        ),
        o_class="O(p^((d-1)n))",
        h=lambda p, d, n: _pw(p, (d - 1) * n),
        datum_value=lambda t: t.log_torsion,
        min_d=2,
    ),
}


#: slots the paper asserts to be non-negative integers
_INTEGRAL_SLOTS = {"mu", "lam", "rank", "rank_over_h"}


def _solve_fraction_system(rows, rhs):
    """Gaussian elimination over Q; returns None when singular."""
    k = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for col in range(k):
        piv = next((r for r in range(col, k) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(k):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [aug[r][k] for r in range(k)]


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
    exact rational linear algebra on the highest unflagged points.

    Residuals r_n = data - main terms are reported on all points; the
    verdict is "window-consistent" iff the residuals normalized by the
    O-class envelope do not grow at the end of the window.
    """
    spec = _FAMILIES[model.family]
    p, d = model.p, model.d
    data = sorted(data, key=lambda t: t.n)
    solvable = [t for t in data if not t.flagged and t.n >= n0]
    u = len(spec.unknowns)
    if len(solvable) < max(3, u):
        raise InsufficientData(
            f"need at least {max(3, u)} unflagged points with n >= {n0}, "
            f"got {len(solvable)}"
        )
    if model.family == "CuocoMonsky":
        ok, bound = cuoco_monsky_hypothesis_check(data, model)
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
    rows = [[g(p, d, t.n) for _, g in spec.unknowns] for t in top]
    rhs = [spec.datum_value(t) for t in top]
    solution = _solve_fraction_system(rows, rhs)
    if solution is None:
        raise InsufficientData("solving system is singular on these points")
    coeffs = dict(zip((name for name, _ in spec.unknowns), solution))
    slots = {}
    for name, _ in spec.main:
        value = coeffs[name]
        if value.denominator != 1 or (
            name in _INTEGRAL_SLOTS and value < 0
        ):
            raise NonIntegralCoefficient(
                f"main-term coefficient {name} = {value} is not a "
                f"{'non-negative ' if name in _INTEGRAL_SLOTS else ''}integer"
            )
        slots[name] = int(value)
    residuals = tuple(
        spec.datum_value(t) - spec.main_term(slots, p, d, t.n) for t in data
    )
    window = [
        (t, r)
        for t, r in zip(data, residuals)
        if not t.flagged and t.n >= n0
    ]
    normalized = [Fraction(r) / Fraction(spec.h(p, d, t.n)) for t, r in window]
    bound = max((abs(x) for x in normalized), default=Fraction(0))
    if len(normalized) >= 2:
        consistent = abs(normalized[-1]) <= max(abs(x) for x in normalized[:-1])
    else:
        consistent = True
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
