"""Arithmetic bookkeeping for even K-groups of rings of integers:
translation between stored K-group order decompositions and second
Galois-cohomology orders, change-of-S accounting through local residue
field terms, vanishing propagation up towers, and growth prediction
tables driven by supplied invariants.

Every emitted prediction or certificate labels the identification of
the p-part of an even K-group with the corresponding H^2-order as a
theorem-backed assumption (Quillen-Lichtenbaum), keeping translation
steps distinguishable from computation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .invariants import _FAMILIES, InvariantReport
from .padic import Prime, as_int, at_least, h1_local_order, ord_p, prime_base

QL_ASSUMPTION = (
    "assumes: p-part of K_{2i-2}(O_F) identified with "
    "H^2(G_{S_p}(F), Z_p(i)) (Quillen-Lichtenbaum)"
)

#: extension kind -> (the `fit` family whose slots, main-term basis,
#: O-class and d rule the kind's growth law uses, torsion type, theorem tag)
_KIND_LAWS = {
    "Zp": ("Iwasawa_d1", "p^inf", "zp-tower"),
    "Zpd": ("CuocoMonsky", "p^inf", "zpd-tower"),
    "Uniform": ("LiangLim", "p^n", "uniform-tower"),
    "Semidirect": ("Semidirect_rank", "p^inf", "semidirect-tower"),
}
KINDS = tuple(_KIND_LAWS)


@dataclass(frozen=True)
class KGroupRecord:
    """A known even K-group order decomposition: cyclic factor orders
    (prime powers), so one record serves all p."""

    field_label: str
    i: int
    order_decomposition: tuple
    source: str = ""

    def __post_init__(self):
        object.__setattr__(self, "i", at_least(self.i, 2, "twist i"))
        decomp = tuple(as_int(x) for x in self.order_decomposition)
        for x in decomp:
            if prime_base(x) is None:
                raise ValueError(f"decomposition entry {x} is not a prime power")
        object.__setattr__(self, "order_decomposition", decomp)


@dataclass(frozen=True)
class LocalPrimeDatum:
    """Residue data of a prime: label, residue cardinality q, and
    whether the prime ramifies in the extension."""

    label: str
    q: int
    ramified: bool = True

    def __post_init__(self):
        object.__setattr__(self, "q", as_int(self.q))
        if prime_base(self.q) is None:
            raise ValueError(f"q = {self.q} is not a prime power")


@dataclass(frozen=True)
class ExtensionDescriptor:
    """The tower setting: which growth theorem applies and which primes
    outside p ramify.  Zp/Zpd towers are unramified outside p, so their
    ramified list must be empty."""

    kind: str
    d: int
    ramified_primes: tuple = ()
    asserted_hypotheses: tuple = ()
    notes: tuple = ()

    def __post_init__(self):
        if self.kind not in _KIND_LAWS:
            raise ValueError(f"unknown extension kind {self.kind!r}")
        object.__setattr__(self, "d", as_int(self.d))
        _FAMILIES[_KIND_LAWS[self.kind][0]].check_d(self.d, f"{self.kind} kind")
        prs = tuple(self.ramified_primes)
        if self.kind in ("Zp", "Zpd") and any(v.ramified for v in prs):
            raise ValueError(
                f"{self.kind} towers are unramified outside p; "
                "ramified prime list must be empty"
            )
        object.__setattr__(self, "ramified_primes", prs)
        object.__setattr__(self, "asserted_hypotheses", tuple(self.asserted_hypotheses))
        object.__setattr__(self, "notes", tuple(self.notes))


def k_even_order_to_h2(record: KGroupRecord, p: Prime) -> int:
    """log_p of the p-part of the stored order decomposition; equals
    log_p of the corresponding H^2-order under the identification."""
    p.require_odd()
    return sum(ord_p(x, p) for x in record.order_decomposition)


def change_of_s_order(log_h2_sp: int, locals_, i: int, p: Prime) -> int:
    """log_p |H^2 over the larger set S|: orders multiply along the
    change-of-S short exact sequence, each prime outside p contributing
    its local H^1-order."""
    total = at_least(log_h2_sp, 0, "log_h2_sp")
    for v in locals_:
        total += h1_local_order(v.q, i, p)
    return total


@dataclass(frozen=True)
class VanishingCertificate:
    """Audit record of the vanishing-propagation check: each condition
    is carried verbatim with its outcome."""

    certified: bool
    field_label: str
    p: int
    i: int
    conditions: tuple  # (description, passed) pairs
    assumptions: tuple = (QL_ASSUMPTION,)

    @property
    def failing(self):
        return tuple(desc for desc, ok in self.conditions if not ok)


def vanishing_propagation(
    record: KGroupRecord, ext: ExtensionDescriptor, p: Prime
) -> VanishingCertificate:
    """Certify that the p-part of the even K-group vanishes along the
    whole tower: requires (a) trivial p-part of the stored base order
    and (b) every ramified prime outside p has trivial local H^1 term.
    NotCertified is a value, not an error."""
    conditions = []
    p_part = k_even_order_to_h2(record, p)
    conditions.append(
        (
            f"p-part of |K_{{2i-2}}(O_F)| is trivial for p = {p.p} "
            f"(log_p = {p_part})",
            p_part == 0,
        )
    )
    for v in ext.ramified_primes:
        if not v.ramified or v.q % p.p == 0:
            continue
        h1 = h1_local_order(v.q, record.i, p)
        conditions.append(
            (
                f"ramified prime {v.label} (q = {v.q}): "
                f"ord_p(q^(i-1) - 1) = {h1} must vanish",
                h1 == 0,
            )
        )
    certified = all(ok for _, ok in conditions)
    return VanishingCertificate(
        certified=certified,
        field_label=record.field_label,
        p=p.p,
        i=record.i,
        conditions=tuple(conditions),
    )


@dataclass(frozen=True)
class PredictionRow:
    n: int
    main_term: int
    o_class: str
    torsion_type: str  # "p^inf" or "p^n"
    theorem_tag: str
    qualifier: str = "asymptotic"  # or "UPPER_BOUND"


@dataclass(frozen=True)
class TowerPrediction:
    rows: tuple
    assumptions: tuple


def predict_growth(
    inv: InvariantReport,
    ext: ExtensionDescriptor,
    p: Prime,
    i: int,
    n_range,
) -> TowerPrediction:
    """Per-level main terms of the fit family that the extension kind
    maps to, with the family's symbolic O-class label (the underlying
    theorems provide no constants).  The report's p and d must be those
    of the prediction, and every level at least 0."""
    p.require_odd()
    i = at_least(i, 2, "twist i")
    if inv.p != p.p or inv.d != ext.d:
        raise ValueError(
            f"report has p = {inv.p}, d = {inv.d}; prediction has p = {p.p}, d = {ext.d}"
        )
    n_range = [at_least(n, 0, "levels") for n in n_range]
    family, torsion_type, theorem_tag = _KIND_LAWS[ext.kind]
    spec = _FAMILIES[family]
    slots = {name: inv.slot(name) for name, _ in spec.main}
    d = ext.d
    q = p.p
    rows = [
        PredictionRow(
            n, spec.main_term(slots, q, d, n), spec.o_class, torsion_type, theorem_tag
        )
        for n in n_range
    ]
    if ext.kind == "Semidirect" and inv.mu_h is not None:
        for n in n_range:
            rows.append(
                PredictionRow(
                    n,
                    spec.main_term(slots, q, d, n) + inv.mu_h * q ** ((d - 1) * n),
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


def mod_p_h2_dimension(cl_sp_p_rank: int, s_p_count: int) -> int:
    """F_p-dimension of the mod-p second cohomology from the p-rank of
    the S_p-class group and the number of primes above p."""
    s_p_count = at_least(s_p_count, 1, "s_p_count")
    return at_least(cl_sp_p_rank, 0, "cl_sp_p_rank") + s_p_count - 1


#: stored K-group records shipped with the package.
BUILTIN_KTABLE = (
    KGroupRecord(
        field_label="Q(sqrt(-4683))",
        i=2,
        order_decomposition=(2, 2, 3, 37),
        source="Browkin-Gangl tame kernel tables (imaginary quadratic fields)",
    ),
)
