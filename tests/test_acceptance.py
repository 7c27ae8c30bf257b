"""Acceptance suite: one test per criterion, each printing a single
PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s` to see
the lines as they are produced."""

import random
import time

import pytest

from iwatower import (
    GrowthModel,
    HypothesisViolated,
    ModulePresentation,
    PrecisionExhausted,
    Prime,
    PrecisionContext,
    SeriesElement,
    augmentation_quotients,
    change_of_s_order,
    char_poly,
    coinvariants,
    corpus_groups,
    cuoco_monsky_hypothesis_check,
    exact_invariants_d1,
    fit_growth,
    group_ring_module,
    h1_local_order,
    mod_p_h2_dimension,
    mu_of_mod_pn,
    ord_p,
    quotient_coinvariant_check,
    torsion_size_resultant_oracle,
    tower,
    valuation_tower,
    vanishing_propagation,
    ExtensionDescriptor,
    BUILTIN_KTABLE,
)
from iwatower.cli import main


def report(number, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status} criterion {number}: {label}{suffix}")
    assert ok, f"criterion {number} failed: {label}{suffix}"


def build_corpus():
    """Deterministic corpus of >= 20 one-variable square-presented
    torsion modules over p = 3, N = 12 whose characteristic elements
    are coprime to every level element (products of p-powers and
    linear factors T - p*a)."""
    ctx = PrecisionContext(Prime(3), 12, 1, 30)

    def poly(coeffs):
        return SeriesElement.univariate(ctx, coeffs)

    def split(mu, roots):
        f = SeriesElement.constant(ctx, 3**mu)
        for a in roots:
            f = f * poly([-3 * a, 1])
        return f

    corpus = []
    for mu, roots in [
        (0, [1]),
        (0, [2]),
        (0, [4]),
        (0, [1, 1]),
        (0, [1, 2]),
        (0, [2, 4]),
        (0, [1, 2, 4]),
        (1, []),
        (1, [1]),
        (1, [2, 2]),
        (2, []),
        (2, [1]),
        (2, [1, 4]),
        (3, [2]),
    ]:
        corpus.append(ModulePresentation(ctx, 1, ((split(mu, roots),),)))
    z = SeriesElement.zero(ctx)
    one = SeriesElement.constant(ctx, 1)
    for f1, f2, off_diag in [
        (split(0, [1]), split(0, [2]), z),
        (split(1, []), split(0, [1]), z),
        (split(0, [1, 2]), split(1, []), one),
        (split(0, [4]), split(0, [4]), poly([0, 1])),
        (split(2, []), split(0, [1]), poly([1, 1])),
        (split(0, [1]), split(0, [2, 4]), poly([3])),
        (split(1, [2]), split(0, [1]), z),
    ]:
        corpus.append(ModulePresentation(ctx, 2, ((f1, off_diag), (z, f2))))
    assert len(corpus) >= 20
    return ctx, corpus


@pytest.fixture(scope="module")
def corpus_with_towers():
    ctx, corpus = build_corpus()
    towers = [tower(M, 5) for M in corpus]
    return ctx, corpus, towers


def test_criterion_1_valuation_lemma():
    start = time.time()
    rng = random.Random(101)
    mismatches = 0
    for p in (3, 5, 7):
        prime = Prime(p)
        for _ in range(50):
            b = 1 + rng.randrange(1, 10**6) * p
            n = rng.randrange(0, 7)
            closed = valuation_tower(b, prime, n)
            direct = ord_p(pow(b, p**n) - 1, prime)
            if closed != direct:
                mismatches += 1
    elapsed = time.time() - start
    report(
        1,
        "valuation lemma vs big-integer exponentiation",
        mismatches == 0 and elapsed < 5,
        f"150 samples, {mismatches} mismatches, {elapsed:.1f}s",
    )


def test_criterion_2_growth_law_agreement(corpus_with_towers):
    start = time.time()
    ctx, corpus, towers = corpus_with_towers
    model = GrowthModel("Iwasawa_d1", 3, 1)
    mismatches = 0
    for M, data in zip(corpus, towers):
        exact = exact_invariants_d1(M)
        fitted = fit_growth(data, model)
        if (fitted.mu, fitted.lam) != (exact.mu, exact.lam):
            mismatches += 1
        if fitted.verdict != "window-consistent":
            mismatches += 1
    elapsed = time.time() - start
    report(
        2,
        "fitted (mu, lambda) equal exact invariants on the corpus",
        mismatches == 0 and elapsed < 120,
        f"{len(corpus)} modules, {mismatches} mismatches, {elapsed:.1f}s",
    )


def test_criterion_3_resultant_oracle(corpus_with_towers):
    start = time.time()
    ctx, corpus, towers = corpus_with_towers
    compared = mismatches = 0
    for M in corpus:
        f = char_poly(M.relation_matrix())
        for n in range(5):
            try:
                oracle = torsion_size_resultant_oracle(f, n)
            except PrecisionExhausted:
                continue
            try:
                shape = coinvariants(M, n)
            except PrecisionExhausted:
                continue
            if shape.zp_rank:
                continue
            compared += 1
            if shape.log_torsion != oracle:
                mismatches += 1
    elapsed = time.time() - start
    report(
        3,
        "SNF torsion sizes equal resultant-valuation oracle",
        mismatches == 0 and compared >= 50 and elapsed < 120,
        f"{compared} comparisons, {mismatches} mismatches, {elapsed:.1f}s",
    )


def test_criterion_4_two_variable_growth():
    start = time.time()
    ctx = PrecisionContext(Prime(3), 8, 2, 30)
    f = SeriesElement(ctx, {(1, 0): 1, (0, 0): -3})  # T1 - p
    M = ModulePresentation(ctx, 1, ((f,),))
    data = tower(M, 3)
    measured = [t.log_torsion for t in data]
    ok = measured == [1, 6, 27, 108]
    model = GrowthModel("CuocoMonsky", 3, 2)
    hyp_ok, _ = cuoco_monsky_hypothesis_check(data, model)
    ok = ok and hyp_ok
    rep = fit_growth(data, model)
    ok = ok and (rep.mu, rep.l0) == (0, 1)
    # counter-instance: unbounded rank growth must be refused
    g = SeriesElement(ctx, {(1, 0): 1})  # T1
    counter = tower(ModulePresentation(ctx, 1, ((g,),)), 3)
    counter_ok, _ = cuoco_monsky_hypothesis_check(counter, model)
    ok = ok and not counter_ok
    try:
        fit_growth(counter, model)
        ok = False
    except HypothesisViolated:
        pass
    elapsed = time.time() - start
    report(
        4,
        "two-variable growth instance and rank-hypothesis counter-instance",
        ok and elapsed < 180,
        f"measured {measured}, fit (mu={rep.mu}, l0={rep.l0}), {elapsed:.1f}s",
    )


def test_criterion_5_mu_of_mod_pn():
    start = time.time()
    ctx = PrecisionContext(Prime(3), 12, 1, 30)
    rng = random.Random(505)
    mismatches = 0
    for _ in range(10):
        alphas = [rng.randrange(1, 5) for _ in range(rng.randrange(0, 4))]
        r = rng.randrange(0, 3)
        if not alphas and r == 0:
            alphas = [1]
        for n in range(1, 5):
            # presentation of (sum Lambda/p^alpha_i + Lambda^r) / p^n
            gens = len(alphas) + r
            rels = []
            for i, a in enumerate(alphas):
                row = [SeriesElement.zero(ctx)] * gens
                row[i] = SeriesElement.constant(ctx, 3**a)
                rels.append(tuple(row))
            for j in range(gens):
                row = [SeriesElement.zero(ctx)] * gens
                row[j] = SeriesElement.constant(ctx, 3**n)
                rels.append(tuple(row))
            M = ModulePresentation(ctx, gens, tuple(rels))
            # M/p^n is pure-mu: log torsion at level m is mu * p^m
            shapes = [coinvariants(M, m) for m in (1, 2)]
            mus = [s.log_torsion / 3**m for s, m in zip(shapes, (1, 2))]
            expected = mu_of_mod_pn(alphas, r, n)
            if mus[0] != expected or mus[1] != expected:
                mismatches += 1
    elapsed = time.time() - start
    report(
        5,
        "mod-p^n mu formula vs direct tower computation",
        mismatches == 0 and elapsed < 60,
        f"10 random (alpha, r), n <= 4, {mismatches} mismatches, {elapsed:.1f}s",
    )


def test_criterion_6_group_ring_lemmas():
    start = time.time()
    prime = Prime(3)
    failures = checks = 0
    for G, H, Gamma in corpus_groups(3):
        M = group_ring_module(G, prime, 2)
        subs = G.all_subgroups()
        for U in subs:
            aq = augmentation_quotients(M, U)
            checks += 1
            # |M/M(U)| divides |M/I_U M|
            if aq.log_size_mu > aq.log_size_iu:
                failures += 1
            if G.is_normal(U) and aq.inclusion_strict:
                failures += 1
        for A in subs:
            if not G.is_normal(A):
                continue
            for B in subs:
                if len(A & B) != 1:
                    continue
                if not G.is_normal(G.closure(A | B)):
                    continue
                checks += 1
                if not quotient_coinvariant_check(M, A, B).all_equal:
                    failures += 1
    elapsed = time.time() - start
    report(
        6,
        "finite group-ring coinvariant lemmas, exhaustive over the corpus",
        failures == 0 and checks > 500 and elapsed < 300,
        f"{checks} checks, {failures} failures, {elapsed:.1f}s",
    )


def test_criterion_7_vanishing_bookkeeping():
    rec = BUILTIN_KTABLE[0]
    ext = ExtensionDescriptor("Zpd", 2)
    ok = all(
        vanishing_propagation(rec, ext, Prime(p)).certified for p in (5, 7, 11)
    ) and not any(
        vanishing_propagation(rec, ext, Prime(p)).certified for p in (3, 37)
    )
    report(
        7,
        "stored tame-kernel record certifies exactly for p not in {3, 37}",
        ok,
    )


def test_criterion_8_formula_evaluators():
    rng = random.Random(808)
    mismatches = 0
    for _ in range(100):
        p = rng.choice((3, 5, 7))
        prime = Prime(p)
        i = rng.randrange(2, 8)
        # h1_local_order against direct arithmetic
        q = rng.choice([x for x in (2, 4, 5, 7, 8, 11, 13, 16, 25) if x % p])
        direct = 0
        x = pow(q, i - 1) - 1
        while x and x % p == 0:
            x //= p
            direct += 1
        if h1_local_order(q, i, prime) != direct:
            mismatches += 1
        # change_of_s_order: sum of the local terms
        base = rng.randrange(0, 5)
        from iwatower import LocalPrimeDatum

        qs = [
            rng.choice([x for x in (2, 4, 5, 7, 8, 11, 13) if x % p])
            for _ in range(rng.randrange(0, 4))
        ]
        locs = [LocalPrimeDatum(f"v{k}", qv) for k, qv in enumerate(qs)]
        expected = base + sum(h1_local_order(qv, i, prime) for qv in qs)
        if change_of_s_order(base, locs, i, prime) != expected:
            mismatches += 1
        # mod-p H^2 dimension formula
        r, s = rng.randrange(0, 6), rng.randrange(1, 6)
        if mod_p_h2_dimension(r, s) != r + s - 1:
            mismatches += 1
    report(
        8,
        "formula evaluators vs independent direct arithmetic",
        mismatches == 0,
        f"100 randomized inputs, {mismatches} mismatches",
    )


def test_criterion_9_selftest_determinism(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    code1 = main(["selftest", "--out", str(a)])
    code2 = main(["selftest", "--out", str(b)])
    identical = a.read_bytes() == b.read_bytes()
    report(
        9,
        "pinned-seed selftest reports are byte-identical",
        identical and code1 == 0 and code2 == 0,
        f"exit codes {code1}/{code2}",
    )
