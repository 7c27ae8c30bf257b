import hashlib
import json
import random
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from iwatower import (
    FiniteGroup,
    FiniteGroupRingModule,
    GroupTooLarge,
    HypothesisViolated,
    Prime,
    augmentation_quotients,
    corpus_groups,
    cyclic_group,
    direct_product,
    group_ring_module,
    heisenberg,
    quotient_coinvariant_check,
    semidirect_c3_c9,
)
from iwatower.selftest import _oracle_shape_exponents

from conftest import (
    reference_all_subgroups,
    reference_closure,
    reference_conjugates,
    reference_is_associative,
    reference_quotient_rows,
    reference_quotient_shape,
    sympy_smith_exponents,
)

CORPUS = {G.name: G for G, _, _ in corpus_groups(3)}
C3 = cyclic_group(3)
C3_4 = direct_product(direct_product(C3, C3), direct_product(C3, C3))


def random_loop(rng, n):
    """A seeded random Latin square of order n, filled row by row, with
    rows and columns reordered so that 0 is a two-sided identity."""
    rows, columns = [], [set() for _ in range(n)]

    def fill(row):
        c = len(row)
        if c == n:
            return True
        candidates = [v for v in range(n) if v not in columns[c] and v not in row]
        rng.shuffle(candidates)
        for v in candidates:
            row.append(v)
            columns[c].add(v)
            if fill(row):
                return True
            row.pop()
            columns[c].discard(v)
        return False

    for _ in range(n):
        row = []
        fill(row)  # a Latin rectangle always extends by a row
        rows.append(row)
    rows.sort(key=lambda row: row[0])
    return [[row[rows[0].index(b)] for b in range(n)] for row in rows]


def reference_verdict(table):
    """The error `FiniteGroup` raised before it checked associativity on
    a generating set, for a table with identity 0: the first element
    without a two-sided inverse, else associativity of every triple."""
    for x, row in enumerate(table):
        if table[row.index(0)][x] != 0:
            return f"element {x} has no inverse"
    return None if reference_is_associative(table) else "multiplication table is not associative"


# SHA-256 of json.dumps(G.table) for each group built by the
# constructions, keyed by G.name: the element numbering, fixed.
TABLE_DIGESTS = {
    "C3": "17d0eee91e6333e1187ad1a09da05518b40b225dd366ee32342d785c61a3eea4",
    "C9": "6e662b78e98bdaafe6189ad93e1e4b1bb97fd9a79491cf9b4de32d0e2128d048",
    "C81": "886b0b4cb5554e6f472635509f55047267390304086df14962dbb0bfe81036eb",
    "C3xC3": "5866c28f92e87f668ad348eb1f1c33ee41934252a4db957f364ac04703ea69a9",
    "C3xC3xC3": "9424705dbf791d76adb5a8be106c633925a97d0b41e2f3ec69809ab8d874059c",
    "C9:C3": "93214debab2183606a53c7cb10aa537b8583cd48d6faf2e6bf555839c1f99660",
    "Heis3": "710ebac32492c1ac3211bfb61410707c94bdf833c851626fe5a99a75af0a44cf",
    "C9xC9": "20f6eb720b9758951a1577b0f7781de3c0853a012b741aa6a03efd51a965d925",
    "C3xC3xC3xC3": "241d49ee294dcc17007c24718a69a052397697aa4d3b995dcadc122ff4fe8db5",
}


class TestFiniteGroup:
    @pytest.mark.parametrize(
        "G",
        [*CORPUS.values(), direct_product(cyclic_group(9), cyclic_group(9)), C3_4],
        ids=lambda G: G.name,
    )
    def test_numbering_pinned(self, G):
        assert hashlib.sha256(json.dumps(G.table).encode()).hexdigest() == TABLE_DIGESTS[G.name]

    def test_cyclic(self):
        G = cyclic_group(9)
        assert G.order == 9
        assert G.identity == 0
        assert G.mul(4, 7) == 2
        assert G.inverse[4] == 5

    def test_bad_table_rejected(self):
        for table, message in [
            ([[0, 1], [1, 1]], "no inverse"),  # not a group
            ([[0, 1, 2], [1, 2, 0], [2, 0, 5]], r"entry \[2\]\[2\] = 5"),
            ([[0, 1, 2], [1, 2, 0], [2, 0, -2]], r"entry \[2\]\[2\] = -2"),
            # a loop of order 5 with x * x = 0: inverses exist, (1*2)*2 = 3*2 = 4 but 1*(2*2) = 1
            (
                [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]],
                "not associative",
            ),
        ]:
            with pytest.raises(ValueError, match=message):
                FiniteGroup(table)

    def test_associativity_matches_reference(self):
        # 1,200 seeded loops of order 4-9: the check on a generating set
        # must give every table the verdict of the check on all triples
        rng = random.Random(6)
        verdicts = []
        for _ in range(1200):
            table = random_loop(rng, rng.randint(4, 9))
            try:
                FiniteGroup(table)
                verdict = None
            except ValueError as exc:
                verdict = str(exc)
            assert verdict == reference_verdict(table), table
            verdicts.append(verdict)
        assert verdicts.count(None) > 0
        assert verdicts.count("multiplication table is not associative") > 0

    def test_order_cap(self):
        table = [[(a + b) % 250 for b in range(250)] for a in range(250)]
        with pytest.raises(GroupTooLarge):
            FiniteGroup(table)

    def test_heisenberg_nonabelian(self):
        h = heisenberg(3)
        assert h.order == 27
        assert any(
            h.mul(a, b) != h.mul(b, a) for a in range(27) for b in range(27)
        )

    def test_semidirect_structure(self):
        G = semidirect_c3_c9()
        assert G.order == 27
        H = G.closure({3})  # the C9 factor {(x, 0)}
        assert len(H) == 9
        assert G.is_normal(H)
        Gamma = G.closure({1})
        assert len(Gamma) == 3
        assert not G.is_normal(Gamma)

    @pytest.mark.parametrize(
        "name, n_subgroups, n_normal",
        [
            ("C3", 2, 2),
            ("C9", 3, 3),
            ("C81", 5, 5),
            ("C3xC3", 6, 6),  # 1 trivial + 4 of order 3 + the whole group
            ("C3xC3xC3", 28, 28),  # 1 + 13 lines + 13 planes + 1
            ("C9:C3", 10, 7),
            ("Heis3", 19, 7),  # 1 + 13 of order 3 (1 normal) + 4 of order 9 + 1
        ],
    )
    def test_all_subgroups(self, name, n_subgroups, n_normal):
        G = CORPUS[name]
        subs = G.all_subgroups()
        assert len(subs) == n_subgroups
        assert sum(G.is_normal(S) for S in subs) == n_normal

    @pytest.mark.parametrize("G", [*CORPUS.values(), C3_4], ids=lambda G: G.name)
    def test_all_subgroups_match_reference(self, G):
        # the same list in the same order; C3^4 has 212 subgroups
        assert G.all_subgroups() == reference_all_subgroups(G)

    @pytest.mark.parametrize("name", CORPUS)
    def test_generating_set(self, name):
        # each element is the smallest outside the subgroup the ones
        # before it generate, and together they generate G
        G = CORPUS[name]
        gens = G.generating_set
        for i, g in enumerate(gens):
            span = G.closure(gens[:i])
            assert g not in span and set(range(g)) <= span, gens
        assert G.closure(gens) == frozenset(range(G.order))
        assert 3 ** len(gens) <= G.order

    @pytest.mark.parametrize("name", CORPUS)
    def test_closure_matches_reference(self, name):
        # every single element and every pair (3,321 sets for C81), every
        # subgroup alone and with one element outside it, and seeded sets
        # of 3-6 elements, where the closure skips the ones already generated
        G = CORPUS[name]
        rng = random.Random(G.order)
        sets = [set(gens) for k in (1, 2) for gens in combinations(range(G.order), k)]
        sets += [S | {x} for S in G.all_subgroups() for x in {G.identity} | (set(range(G.order)) - S)]
        sets += [set(rng.sample(range(G.order), rng.randint(3, min(6, G.order)))) for _ in range(300)]
        for gens in sets:
            assert G.closure(gens) == reference_closure(G, gens), sorted(gens)

    @pytest.mark.parametrize("name", CORPUS)
    def test_conjugates_match_reference(self, name):
        # every subgroup and seeded sets of 0-6 elements
        G = CORPUS[name]
        rng = random.Random(G.order)
        sets = G.all_subgroups()
        sets += [set(rng.sample(range(G.order), rng.randint(0, min(6, G.order)))) for _ in range(300)]
        for S in sets:
            assert G.conjugates(S) == reference_conjugates(G, S), sorted(S)

    @pytest.mark.parametrize(
        "call, bad",
        [
            pytest.param(lambda G, M: G.closure({-1}), -1, id="closure-negative"),
            pytest.param(lambda G, M: G.closure({1, 5}), 5, id="closure-too-large"),
            pytest.param(lambda G, M: G.conjugates({-2}), -2, id="conjugates"),
            pytest.param(lambda G, M: G.is_normal({0, 3}), 3, id="is_normal"),
            pytest.param(lambda G, M: M.shape_of({0, 7}), 7, id="shape_of"),
            pytest.param(lambda G, M: augmentation_quotients(M, {-1}), -1, id="augmentation_quotients"),
            pytest.param(lambda G, M: quotient_coinvariant_check(M, {0}, {-1}), -1, id="quotient_coinvariant_check"),
        ],
    )
    def test_element_outside_group_rejected(self, call, bad):
        M = group_ring_module(C3, Prime(3), 2)
        with pytest.raises(ValueError, match=rf"^{bad} is not a group element 0\.\.2$"):
            call(C3, M)

    @pytest.mark.parametrize("name", CORPUS)
    def test_is_normal_matches_definition(self, name):
        G = CORPUS[name]
        inverse = {g: h for g in range(G.order) for h in range(G.order) if G.mul(g, h) == G.identity}
        for S in G.all_subgroups():
            normal = all(G.mul(G.mul(g, u), inverse[g]) in S for g in range(G.order) for u in S)
            assert G.is_normal(S) == normal, sorted(S)

    def test_conjugates_of_normal_subgroup(self):
        h = heisenberg(3)
        center = h.closure({1})  # (0,0,1) generates the center
        assert h.is_normal(center)
        assert h.conjugates(center) == center


def seeded_modules(G, rng):
    """The group ring at N = 2 and two seeded modules with relations,
    whose quotients `shape_of` sends to the Smith normal form."""
    modules = [group_ring_module(G, Prime(3), 2)]
    for _ in range(2):
        k = rng.randint(1, 2)
        relations = tuple(
            tuple({rng.randrange(G.order): rng.randrange(-9, 10) for _ in range(rng.randint(1, 3))} for _ in range(k))
            for _ in range(rng.randint(1, 2))
        )
        modules.append(FiniteGroupRingModule(G, Prime(3), rng.randint(1, 3), generators=k, relations=relations))
    return modules


def outcome(call, *args):
    try:
        return call(*args)
    except HypothesisViolated as exc:
        return repr(exc)


class TestMemo:
    """`closure` and `conjugates` are memoised on each group, keyed by
    the set of elements they are given."""

    REFERENCE = {"closure": reference_closure, "conjugates": reference_conjugates}

    def test_second_call_returns_the_first_result(self):
        for G, _, _ in corpus_groups(3):
            rng = random.Random(G.order)
            sets = G.all_subgroups()
            sets += [set(rng.sample(range(G.order), rng.randint(0, min(4, G.order)))) for _ in range(40)]
            calls = [(method, S) for method in self.REFERENCE for S in sets] * 2
            rng.shuffle(calls)
            first = {}
            for method, S in calls:
                # a list of the same elements in another order finds the same entry
                got = getattr(G, method)(rng.sample(sorted(S), len(S)))
                assert got == self.REFERENCE[method](G, S), (G.name, method, sorted(S))
                assert first.setdefault((method, frozenset(S)), got) is got, (G.name, method, sorted(S))

    @pytest.mark.parametrize("method", REFERENCE)
    def test_outside_element_raises_every_time(self, method):
        G = heisenberg(3)
        call = getattr(G, method)
        for valid in ([], [{1, 3}, [3, 1], *G.all_subgroups()]):
            for S in valid:
                assert call(S) == self.REFERENCE[method](G, S), sorted(S)
            for bad in ({27}, {1, 27}, {-1}, {"a"}):
                with pytest.raises(ValueError, match="is not a group element 0..26"):
                    call(bad)

    @pytest.mark.parametrize("method", REFERENCE)
    @pytest.mark.parametrize("element", [3.0, np.int64(3)], ids=["float", "int64"])
    def test_element_equal_to_an_int_counts_as_that_int(self, method, element):
        # on a new group and from the memo, in both call orders
        expected = self.REFERENCE[method](cyclic_group(9), {3})
        for order in ([{element}, {3}], [{3}, {element}]):
            G = cyclic_group(9)
            for S in order:
                got = getattr(G, method)(S)
                assert got == expected and all(type(x) is int for x in got), (order, S)

    @pytest.mark.parametrize(
        "build_a, build_b, method, S",
        [
            (lambda: cyclic_group(9), lambda: direct_product(C3, C3), "closure", {1}),
            (lambda: heisenberg(3), lambda: direct_product(direct_product(C3, C3), C3), "conjugates", {3}),
            (lambda: semidirect_c3_c9(), lambda: cyclic_group(27), "conjugates", {1}),
        ],
        ids=["C9-C3xC3", "Heis3-C3xC3xC3", "C9:C3-C27"],
    )
    def test_groups_of_one_order_keep_their_own_results(self, build_a, build_b, method, S):
        A, B = build_a(), build_b()
        assert A.order == B.order
        assert getattr(A, method)(S) != getattr(B, method)(S)
        for T in [S, {1, 3}, {2}, S]:
            for G in (A, B, A, B):
                for name, reference in self.REFERENCE.items():
                    assert getattr(G, name)(T) == reference(G, T), (G.name, name, sorted(T))

    def test_lemma_results_do_not_depend_on_call_order(self):
        # an augmentation quotient for every subgroup and seeded set and a
        # quotient-coinvariant check for every pair of subgroups, over the
        # group ring and seeded modules with relations, in a seeded order
        # on one warm group, against the same call on a new group
        for G, _, _ in corpus_groups(3):
            rng = random.Random(G.order + 1)
            subs = G.all_subgroups()
            sets = subs + [set(rng.sample(range(G.order), rng.randint(1, min(3, G.order)))) for _ in range(10)]
            ops = [
                (op, M, args)
                for M in seeded_modules(G, rng)
                for op, args in [(augmentation_quotients, (U,)) for U in sets]
                + [(quotient_coinvariant_check, (A, B)) for A in subs for B in subs]
            ]
            rng.shuffle(ops)
            for op, M, args in ops:
                cold = replace(M, group=FiniteGroup(G.table, G.name))
                assert outcome(op, M, *args) == outcome(op, cold, *args), (G.name, op.__name__, M.relations, args)

    def test_all_subgroups_memoises_only_its_subgroups(self):
        # the sets it closes on the way leave no entries; each subgroup
        # found is then its own closure without a further miss
        for G, _, _ in corpus_groups(3):
            G = FiniteGroup(G.table, G.name)
            before = set(G._closures)
            subs = G.all_subgroups()
            assert subs == reference_all_subgroups(G), G.name
            assert set(G._closures) == before | set(subs), G.name
            for U in subs:
                assert G.closure(sorted(U)) == U, (G.name, sorted(U))
            assert set(G._closures) == before | set(subs), G.name


class TestModuleValidation:
    def test_group_order_must_be_p_power(self):
        for order, p in ((6, 3), (3, 5), (12, 2)):
            with pytest.raises(ValueError, match="group order must be a power of p"):
                FiniteGroupRingModule(cyclic_group(order), Prime(p), 2)

    @pytest.mark.parametrize("order", [1, 3, 9])
    def test_p_power_order_accepted(self, order):
        # the trivial group is p^0
        assert FiniteGroupRingModule(cyclic_group(order), Prime(3), 2).group.order == order

    @pytest.mark.parametrize(
        "N, relations, message",
        [
            (2, (({-1: 1},),), "relation key -1 is not a group element 0..2"),
            (2, (({0: 1, 5: 2},),), "relation key 5 is not a group element 0..2"),
            (0, (), "N must be >= 1, got 0"),
            (-1, (), "N must be >= 1, got -1"),
            (2, (({0: 3.5},),), "3.5 is not an integer"),
        ],
    )
    def test_bad_presentation_rejected(self, N, relations, message):
        with pytest.raises(ValueError, match=message):
            FiniteGroupRingModule(cyclic_group(3), Prime(3), N, relations=relations)

    @pytest.mark.parametrize("k", [-1, 0])
    def test_generator_count_below_1_rejected(self, k):
        with pytest.raises(ValueError, match=f"generators must be >= 1, got {k}"):
            FiniteGroupRingModule(cyclic_group(3), Prime(3), 2, generators=k)

    @pytest.mark.parametrize("c", [3.0, np.int64(3)], ids=["float", "int64"])
    def test_coefficient_equal_to_an_int_counts_as_that_int(self, c):
        M = FiniteGroupRingModule(cyclic_group(3), Prime(3), 2, 1, (({0: c},),))
        assert M.relations == (({0: 3},),) and type(M.relations[0][0][0]) is int
        assert M.shape_of().torsion_exponents == (1,) * 3

    def test_shape_of_group_ring(self):
        G = cyclic_group(9)
        M = group_ring_module(G, Prime(3), 2)
        shape = M.shape_of()
        assert shape.free_rank_at_precision == 9
        assert shape.log_torsion == 0


class TestShapeOf:
    def test_matches_reference_with_relations(self):
        # seeded modules with 0-3 relations over the corpus groups of order
        # <= 27; the non-normal subgroups of C9:C3 and Heis3 tell right
        # cosets Kt from left cosets tK once there are relations
        rng = random.Random(7)
        prime = Prime(3)
        compared = 0
        for G, H, Gamma in corpus_groups(3):
            if G.order > 27:
                continue
            subgroups = G.all_subgroups()
            for _ in range(25):
                k, N = rng.randint(1, 3), rng.randint(1, 4)
                relations = tuple(
                    tuple(
                        {rng.randrange(G.order): rng.randrange(-9, 10) for _ in range(rng.randint(0, 4))}
                        for _ in range(k)
                    )
                    for _ in range(rng.randint(0, 3))
                )
                M = FiniteGroupRingModule(G, prime, N, generators=k, relations=relations)
                U = rng.choice(subgroups)
                for multipliers in (
                    U,
                    G.conjugates(U),
                    H | Gamma,
                    {rng.randrange(G.order), rng.randrange(G.order)},
                ):
                    assert M.shape_of(multipliers) == reference_quotient_shape(M, multipliers), (
                        G.name,
                        relations,
                        sorted(multipliers),
                    )
                    compared += 1
        assert compared == 600

    def test_any_precision(self):
        # p^N = 3^25 is beyond the int64 oracles.  A relation c a + (p^v - c) b
        # has augmentation p^v, 1 <= v <= N, so its quotients are not 0;
        # c is near p^N or of any valuation.  Checked against the integer
        # Smith form too.
        rng = random.Random(25)
        N = 25
        m = 3**N
        compared = 0
        for name in ("C9", "C3xC3", "C9:C3", "Heis3"):
            G = CORPUS[name]
            subgroups = G.all_subgroups()
            for _ in range(2):
                relations = []
                for _ in range(rng.randint(1, 2)):
                    a, b = rng.sample(range(G.order), 2)
                    c = rng.choice([m - rng.randrange(1, 100), rng.randrange(m) * 3 ** rng.randrange(N)])
                    relations.append(({a: c, b: 3 ** rng.randrange(1, N + 1) - c},))
                M = FiniteGroupRingModule(G, Prime(3), N, relations=tuple(relations))
                multipliers = rng.choice(subgroups)
                shape = M.shape_of(multipliers)
                assert shape == reference_quotient_shape(M, multipliers), (name, relations, sorted(multipliers))
                exps = sorted([0] * G.order + list(shape.torsion_exponents) + [N] * shape.free_rank_at_precision)
                assert exps[-G.order:] == sympy_smith_exponents(reference_quotient_rows(M, multipliers), 3, N)
                compared += 1
        assert compared == 8
        # a relation whose 27-column quotients sympy's Smith form does not
        # finish in 20 s: the selftest's dense Smith form takes them
        G = CORPUS["C9:C3"]
        M = FiniteGroupRingModule(G, Prime(3), N, relations=(({0: 56757701514397599, 8: 847288609407, 16: 847288609403},),))
        order_9 = [U for U in G.all_subgroups() if len(U) == 9]
        assert len(order_9) == 4
        for U in order_9:
            shape = M.shape_of(U)
            exps = sorted([0] * G.order + list(shape.torsion_exponents) + [N] * shape.free_rank_at_precision)
            assert exps[-G.order:] == _oracle_shape_exponents(reference_quotient_rows(M, U), 3, N), sorted(U)

    def test_coefficients_beyond_int64(self):
        # a coefficient is read mod p^N, whatever its size
        G = cyclic_group(9)
        big = FiniteGroupRingModule(G, Prime(3), 4, 1, (({0: 2**70, 1: -1},),))
        small = FiniteGroupRingModule(G, Prime(3), 4, 1, (({0: 2**70 % 3**4, 1: -1},),))
        assert big.shape_of() == small.shape_of()


class TestAugmentationQuotients:
    def test_normal_subgroup_equality(self):
        G = semidirect_c3_c9()
        M = group_ring_module(G, Prime(3), 2)
        H = G.closure({3})
        aq = augmentation_quotients(M, H)
        assert not aq.inclusion_strict
        assert aq.log_size_iu == aq.log_size_mu

    def test_trivial_subgroup(self):
        G = cyclic_group(9)
        M = group_ring_module(G, Prime(3), 2)
        aq = augmentation_quotients(M, {G.identity})
        assert aq.log_size_iu == M.shape_of().log_order()
        assert aq.log_size_mu == aq.log_size_iu

    def test_non_normal_strict_inclusion_exists(self):
        G = semidirect_c3_c9()
        M = group_ring_module(G, Prime(3), 2)
        strict_seen = False
        for U in G.all_subgroups():
            aq = augmentation_quotients(M, U)
            # quotient by the larger span is never bigger
            assert aq.log_size_mu <= aq.log_size_iu
            if G.is_normal(U):
                assert not aq.inclusion_strict
            elif aq.inclusion_strict:
                strict_seen = True
        assert strict_seen


class TestQuotientCoinvariants:
    def test_full_coinvariants_abelian(self):
        G = direct_product(cyclic_group(9), cyclic_group(9))
        M = group_ring_module(G, Prime(3), 2)
        H = G.closure({9})  # first factor
        Gamma = G.closure({1})  # second factor
        rep = quotient_coinvariant_check(M, H, Gamma)
        assert rep.all_equal
        # all of G acts trivially on the quotient: a single copy remains
        assert rep.shape_joint.free_rank_at_precision == 1

    def test_semidirect_example(self):
        G = semidirect_c3_c9()
        M = group_ring_module(G, Prime(3), 2)
        rep = quotient_coinvariant_check(M, G.closure({3}), G.closure({1}))
        assert rep.all_equal

    def test_trivial_gamma(self):
        G = cyclic_group(27)
        M = group_ring_module(G, Prime(3), 2)
        H = G.closure({3})
        rep = quotient_coinvariant_check(M, H, {G.identity})
        assert rep.all_equal
        # (M_{H})_{1} = M_H: group ring of G/H
        assert rep.shape_joint.free_rank_at_precision == 3

    def test_non_normal_h_rejected(self):
        G = semidirect_c3_c9()
        M = group_ring_module(G, Prime(3), 2)
        with pytest.raises(HypothesisViolated):
            quotient_coinvariant_check(M, G.closure({1}), G.closure({3}))

    def test_nontrivial_intersection_rejected(self):
        G = cyclic_group(9)
        M = group_ring_module(G, Prime(3), 2)
        with pytest.raises(HypothesisViolated):
            quotient_coinvariant_check(M, G.closure({3}), G.closure({3}))

    def test_corpus_triples(self):
        for G, H, Gamma in corpus_groups(3):
            M = group_ring_module(G, Prime(3), 2)
            assert quotient_coinvariant_check(M, H, Gamma).all_equal


@pytest.mark.parametrize(
    "call, match",
    [
        pytest.param(lambda: FiniteGroup([[0, 1]]), "not square", id="table-not-square"),
        pytest.param(lambda: FiniteGroup([[1, 1], [1, 1]]), "no identity", id="table-without-identity"),
        pytest.param(lambda: corpus_groups(5), "defined for p = 3", id="corpus-p5"),
        pytest.param(
            lambda: FiniteGroupRingModule(C3, Prime(3), 2, generators=1, relations=(({0: 1}, {1: 1}),)),
            "relation length", id="relation-length",
        ),
    ],
)
def test_input_checks(call, match):
    with pytest.raises(ValueError, match=match):
        call()
