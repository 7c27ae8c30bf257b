"""The three benchmark workloads: inputs made from a seed, one round of
operations through iwatower, and checks of every output against closed
forms that this file computes without calling iwatower.

A round returns (attempted, failures); each failure is a one-line
message naming the operation and what differed.  Library entry points
are looked up as module attributes at call time, so a traced run sees
the wrapped versions that `spans.instrument` installs.
"""

from __future__ import annotations

import random

from iwatower import IwatowerError, cli, groupring
from iwatower.padic import Prime

P = 3

# ------------------------------------------------------------------
# closed forms and file parsing, independent of iwatower
# ------------------------------------------------------------------


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_text(coeffs, modulus):
    """Dense integer coefficients (low degree first) in the module-file
    grammar, reduced to canonical residues."""
    terms = []
    for e, c in enumerate(coeffs):
        c %= modulus
        if c:
            terms.append(str(c) if e == 0 else f"{c}*T1^{e}")
    return " + ".join(terms) or "0"


def _read_table(path):
    with open(path) as fh:
        lines = [l.split("\t") for l in fh.read().splitlines() if l and not l.startswith("#")]
    header = lines[0]
    return [dict(zip(header, cells)) for cells in lines[1:]]


def _read_record(path):
    with open(path) as fh:
        return dict(l.split("=", 1) for l in fh.read().splitlines() if "=" in l)


class _Round:
    """Attempted and failed operations of one round."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def call(self, label, argv, check):
        """One CLI call, in-process; it fails on a nonzero exit code or
        when `check()` returns a message."""
        self.attempted += 1
        code = cli.main(argv)
        problem = f"exit code {code}" if code else check()
        if problem:
            self.failures.append(f"{label} {argv[0]}: {problem}")


# ------------------------------------------------------------------
# d1_pipeline
# ------------------------------------------------------------------

D1_N, D1_D, D1_LEVELS = 12, 30, 5

# The make-up of the acceptance corpus.  A characteristic element is
# (mu, roots): p^mu * prod (T - 3a) over the roots, where a root r is a
# unit a = r + 9k and k comes from the seed (one k per distinct root
# of a module, so a repeated root stays repeated).  The residues mod 9
# fix v(a - a') for distinct roots at 0 or 1, which bounds every
# exponent at level 5 by 9, below the 11 that a PrecisionMargin flag
# needs at N = 12; README.md gives the argument.
D1_CYCLIC = [
    (0, (1,)), (0, (2,)), (0, (4,)), (0, (1, 1)), (0, (1, 2)), (0, (2, 4)),
    (0, (1, 2, 4)), (1, ()), (1, (1,)), (1, (2, 2)), (2, ()), (2, (1,)),
    (2, (1, 2)), (3, (2,)),
]
# upper-triangular 2-generator presentations: (f1, f2, off-diagonal)
D1_TRIANGULAR = [
    ((0, (1,)), (0, (2,)), "0"),
    ((1, ()), (0, (1,)), "0"),
    ((0, (1, 2)), (1, ()), "1"),
    ((0, (4,)), (0, (4,)), "T1"),
    ((2, ()), (0, (1,)), "1 + T1"),
    ((0, (1,)), (0, (2, 4)), "3"),
    ((1, (2,)), (0, (1,)), "0"),
]


class D1Pipeline:
    """21 one-variable modules through tower, fit, predict and
    invariants."""

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        modulus = P ** D1_N
        desc = workdir / "desc.txt"
        desc.write_text("kind: Zp\nd: 1\n")
        self.modules = []
        shapes = [(f,) for f in D1_CYCLIC] + D1_TRIANGULAR
        for index, shape in enumerate(shapes):
            factors = shape[:2] if len(shape) == 3 else shape
            units = {
                r: r + 9 * rng.randrange(3 ** 10)
                for _, roots in factors for r in roots
            }

            def element(mu, roots):
                coeffs = [P ** mu]
                for r in roots:
                    coeffs = _poly_mul(coeffs, [-P * units[r], 1])
                return _poly_text(coeffs, modulus)

            if len(shape) == 1:
                rels = [element(*shape[0])]
            else:
                f1, f2, off = shape
                rels = [f"{element(*f1)}; {off}", f"0; {element(*f2)}"]
            mu = sum(m for m, _ in factors)
            lam = sum(len(roots) for _, roots in factors)
            path = workdir / f"m{index:02d}.txt"
            path.write_text(
                f"p: {P}\nN: {D1_N}\nd: 1\nD: {D1_D}\ngenerators: {len(rels)}\n"
                + "".join(f"relation: {r}\n" for r in rels)
            )
            self.modules.append((path, mu, lam))
        self.desc = desc

    def run_round(self, tags):
        rnd = _Round()
        for path, mu, lam in self.modules:
            tags["mu_pos"] = mu > 0
            label = path.stem
            tsv, rep, pred, inv = (path.with_suffix(s) for s in (".tsv", ".rep", ".pred", ".inv"))

            def tower_ok():
                rows = _read_table(tsv)
                got = [(int(r["n"]), int(r["log_torsion"]), int(r["zp_rank"]), r["flags"]) for r in rows]
                want = [(n, mu * P ** n + lam * (n + 1), 0, "-") for n in range(D1_LEVELS + 1)]
                return None if got == want else f"tower {got} != {want}"

            def invariants_ok(record, fitted):
                got = (int(record.get("mu", -1)), int(record.get("lam", -1)))
                if got != (mu, lam):
                    return f"(mu, lam) = {got}, built with {(mu, lam)}"
                if fitted and record.get("verdict") != "window-consistent":
                    return f"verdict {record.get('verdict')}"
                return None

            def predict_ok():
                got = [(int(r["n"]), int(r["main_term"])) for r in _read_table(pred)]
                want = [(n, mu * P ** n + lam * n) for n in range(D1_LEVELS + 1)]
                return None if got == want else f"main terms {got} != {want}"

            levels = str(D1_LEVELS)
            rnd.call(label, ["tower", str(path), "--n-max", levels, "--out", str(tsv)], tower_ok)
            rnd.call(
                label,
                ["fit", str(tsv), "--model", "Iwasawa_d1", "--p", str(P), "--out", str(rep)],
                lambda: invariants_ok(_read_record(rep), True),
            )
            rnd.call(
                label,
                ["predict", str(rep), str(self.desc), "--p", str(P), "--n-max", levels, "--out", str(pred)],
                predict_ok,
            )
            rnd.call(
                label,
                ["invariants", str(path), "--out", str(inv)],
                lambda: invariants_ok(_read_record(inv), False),
            )
        return rnd.attempted, rnd.failures


# ------------------------------------------------------------------
# d2_tower
# ------------------------------------------------------------------

D2_N, D2_D, D2_LEVELS = 8, 30, 3


class D2Tower:
    """Lambda_2/(T1 - 3u) and Lambda_2/(p) through tower and fit."""

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        u = rng.choice([x for x in range(1, 3 ** D2_N) if x % P])
        header = f"p: {P}\nN: {D2_N}\nd: 2\nD: {D2_D}\ngenerators: 1\n"
        # (relation, mu, l0, log_torsion at level n, file stem)
        cases = [
            (f"T1 - {P * u}", 0, 1, lambda n: (n + 1) * P ** n, "distinguished"),
            ("p", 1, 0, lambda n: P ** (2 * n), "mu"),
        ]
        self.modules = []
        for relation, mu, l0, log_torsion, stem in cases:
            path = workdir / f"{stem}.txt"
            path.write_text(header + f"relation: {relation}\n")
            self.modules.append((path, mu, l0, log_torsion))

    def run_round(self, tags):
        rnd = _Round()
        for path, mu, l0, log_torsion in self.modules:
            tags["mu_pos"] = mu > 0
            tsv, rep = path.with_suffix(".tsv"), path.with_suffix(".rep")

            def tower_ok():
                got = [(int(r["n"]), int(r["log_torsion"]), int(r["zp_rank"]), r["flags"]) for r in _read_table(tsv)]
                want = [(n, log_torsion(n), 0, "-") for n in range(D2_LEVELS + 1)]
                return None if got == want else f"tower {got} != {want}"

            def fit_ok():
                record = _read_record(rep)
                got = (int(record.get("mu", -1)), int(record.get("l0", -1)))
                return None if got == (mu, l0) else f"(mu, l0) = {got}, want {(mu, l0)}"

            rnd.call(path.stem, ["tower", str(path), "--n-max", str(D2_LEVELS), "--out", str(tsv)], tower_ok)
            rnd.call(
                path.stem,
                ["fit", str(tsv), "--model", "CuocoMonsky", "--p", str(P), "--d", "2", "--out", str(rep)],
                fit_ok,
            )
        return rnd.attempted, rnd.failures


# ------------------------------------------------------------------
# groupring_sweep
# ------------------------------------------------------------------

GR_N = 2


class GroupringSweep:
    """Every augmentation quotient and every admissible
    quotient-coinvariant check over the p = 3 group corpus at N = 2, in
    an order set by the seed.

    Each quotient is free over Z/p^N on the cosets of a subgroup K, so
    its log_p order is N * [G : K].  K is found here from the
    multiplication table: <U> and its normal closure for the
    augmentation quotients, <A u B> for all three quotient-coinvariant
    shapes."""

    def __init__(self, seed, workdir):
        self.seed = seed

    def run_round(self, tags):
        ops = []
        for G, _, _ in groupring.corpus_groups(P):
            M = groupring.group_ring_module(G, Prime(P), GR_N)
            table = _Table(G.table)
            subs = G.all_subgroups()
            ops += [(G, M, table, U, None) for U in subs]
            for A in subs:
                if G.is_normal(A):
                    ops += [
                        (G, M, table, A, B) for B in subs
                        if len(A & B) == 1 and G.is_normal(G.closure(A | B))
                    ]
        random.Random(self.seed).shuffle(ops)
        rnd = _Round()
        for G, M, table, A, B in ops:
            rnd.attempted += 1
            try:
                if B is None:
                    aq = groupring.augmentation_quotients(M, A)
                    got = (aq.log_size_iu, aq.log_size_mu, aq.inclusion_strict)
                    iu = GR_N * table.index(A)
                    mu = GR_N * table.index(table.conjugates(A))
                    want = (iu, mu, iu != mu)
                else:
                    report = groupring.quotient_coinvariant_check(M, A, B)
                    got = tuple(
                        (s.torsion_exponents, s.free_rank_at_precision)
                        for s in (report.shape_hm_then_gamma, report.shape_joint, report.shape_gamma_then_hm)
                    )
                    want = (((), table.index(A | B)),) * 3
            except IwatowerError as exc:
                got, want = repr(exc), "no error"
            if got != want:
                kind = "augmentation" if B is None else "quotient-coinvariant"
                rnd.failures.append(f"{G.name} {kind} {sorted(A)} {sorted(B or ())}: {got} != {want}")
        return rnd.attempted, rnd.failures


class _Table:
    """Index arithmetic on a multiplication table."""

    def __init__(self, table):
        self.table = table
        self.order = len(table)
        self.identity = next(x for x in range(self.order) if table[x][x] == x)
        self.inverse = [row.index(self.identity) for row in table]

    def index(self, generators):
        """[G : <generators>], the subgroup closed from the identity by
        right multiplication (in a finite group that is a group)."""
        seen = {self.identity}
        frontier = [self.identity]
        while frontier:
            x = frontier.pop()
            for g in generators:
                y = self.table[x][g]
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return self.order // len(seen)

    def conjugates(self, elements):
        t = self.table
        return {t[t[g][u]][self.inverse[g]] for g in range(self.order) for u in elements}


WORKLOADS = {
    "d1_pipeline": D1Pipeline,
    "d2_tower": D2Tower,
    "groupring_sweep": GroupringSweep,
}
