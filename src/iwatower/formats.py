"""Text formats: the polynomial grammar, the module-presentation file,
tower TSV tables, invariant-report records, K-group tables, extension
descriptors, and prediction TSV output.  The polynomial renderer
`format_polynomial` lives in `series` and is imported from there.

Two layouts serve them all, chosen over binary formats for
auditability.  Tables are TSV with one header row (`_read_tsv`,
`_write_tsv`).  Module files, reports and descriptors are line-oriented
`key: value` or `key=value` documents (`_fields`).  Both skip `#`
comment lines; documents reject unknown and duplicate keys.
"""

from __future__ import annotations

import re
from dataclasses import MISSING, fields
from fractions import Fraction

from .invariants import _INTEGRAL_SLOTS, InvariantReport
from .ktheory import ExtensionDescriptor, KGroupRecord, LocalPrimeDatum, TowerPrediction
from .modules import ModulePresentation, TowerDatum
from .padic import Prime
from .series import PrecisionContext, SeriesElement, format_polynomial

_VAR_RE = re.compile(r"^T(\d+)(?:\^(\d+))?$")
_INT_RE = re.compile(r"^[+-]?\d+$")
_P_RE = re.compile(r"^p(?:\^(\d+))?$")


def parse_polynomial(text: str, context: PrecisionContext) -> SeriesElement:
    """Parse the term grammar `c*T1^a*T2^b`, terms joined by + or -,
    with `p` (and `p^k`) allowed as a literal for the context prime."""
    text = text.strip()
    if not text:
        raise ValueError("empty polynomial")
    # split into signed terms at top level
    terms = []
    sign, buf = 1, []
    for ch in text:
        if ch in "+-" and buf and buf[-1] not in "*^":
            terms.append((sign, "".join(buf).strip()))
            sign, buf = (1 if ch == "+" else -1), []
        elif ch in "+-" and not "".join(buf).strip():
            sign *= 1 if ch == "+" else -1
        else:
            buf.append(ch)
    last = "".join(buf).strip()
    if not last:
        raise ValueError(f"dangling sign in polynomial {text!r}")
    terms.append((sign, last))

    data = {}
    p = context.p.p
    for sign, term in terms:
        coeff = sign
        exps = [0] * context.d
        for factor in (f.strip() for f in term.split("*")):
            if not factor:
                raise ValueError(f"empty factor in term {term!r}")
            m = _VAR_RE.match(factor)
            if m:
                j = int(m.group(1)) - 1
                if not 0 <= j < context.d:
                    raise ValueError(
                        f"variable T{j + 1} out of range for d = {context.d}"
                    )
                exps[j] += int(m.group(2) or 1)
                continue
            m = _P_RE.match(factor)
            if m:
                coeff *= p ** int(m.group(1) or 1)
                continue
            if _INT_RE.match(factor):
                coeff *= int(factor)
                continue
            raise ValueError(f"cannot parse factor {factor!r} in {term!r}")
        key = tuple(exps)
        data[key] = data.get(key, 0) + coeff
    return SeriesElement(context, data)


# ------------------------------------------------------------------
# the two shared layouts
# ------------------------------------------------------------------


def _fields(text: str, sep: str, single, repeated=()) -> dict:
    """The `key<sep>value` lines of a document, blank lines and lines
    that start with `#` skipped (a later `#` is data): a key in `single`
    maps to its value and may appear at most once, a key in `repeated`
    maps to its list of values (empty when absent); any other key fails."""
    record = {key: [] for key in repeated}
    for line in map(str.strip, text.splitlines()):
        if not line or line.startswith("#"):
            continue
        key, found, value = (s.strip() for s in line.partition(sep))
        if not found:
            raise ValueError(f"malformed line (no {sep!r}): {line!r}")
        if key in repeated:
            record[key].append(value)
        elif key not in single:
            raise ValueError(f"unknown field {key!r}")
        elif key in record:
            raise ValueError(f"duplicate field {key!r}")
        else:
            record[key] = value
    return record


def _read_tsv(text: str, columns, what: str) -> list:
    """The rows, as cell lists, of a TSV table whose header is `columns`;
    blank lines and lines whose first non-blank character is `#` skipped."""
    lines = [l for l in text.splitlines() if l.strip() and not l.lstrip().startswith("#")]
    if not lines:
        raise ValueError(f"empty {what} table")
    header = tuple(lines[0].split("\t"))
    if header != columns:
        raise ValueError(f"unexpected {what} header: {header}")
    rows = []
    for line in lines[1:]:
        cells = line.split("\t")
        if len(cells) != len(columns):
            raise ValueError(f"malformed {what} row: {line!r}")
        rows.append(cells)
    return rows


def _write_tsv(columns, rows, comments=()) -> str:
    lines = ["\t".join(columns)]
    lines += ["\t".join(str(cell) for cell in row) for row in rows]
    lines += [f"# {c}" for c in comments]
    return "\n".join(lines) + "\n"


def _ints(text: str) -> tuple:
    """Decode a comma-separated list of integers (empty items ignored)."""
    return tuple(int(x) for x in text.split(",") if x)


def _join(values) -> str:
    return ",".join(str(x) for x in values)


# ------------------------------------------------------------------
# module-presentation file
# ------------------------------------------------------------------

_HEADER_KEYS = ("p", "N", "d", "D", "generators")


def parse_module_file(text: str, N: int = None, D: int = None) -> ModulePresentation:
    """Parse the module-presentation document: header fields p, N, d,
    D, generators, then `relation:` lines whose entries are
    `;`-separated polynomials (one per generator).  N and D arguments
    override the header values (command-line precision control)."""
    record = _fields(text, ":", _HEADER_KEYS, ("relation",))
    missing = [k for k in _HEADER_KEYS if k not in record]
    if missing:
        raise ValueError(f"missing header fields: {', '.join(missing)}")
    header = {k: int(record[k]) for k in _HEADER_KEYS}
    header.update((k, v) for k, v in (("N", N), ("D", D)) if v is not None)
    context = PrecisionContext(Prime(header["p"]), header["N"], header["d"], header["D"])
    relations = []
    for value in record["relation"]:
        relations.append(tuple(parse_polynomial(e.strip(), context) for e in value.split(";")))
    return ModulePresentation(context, header["generators"], tuple(relations))


def format_module_file(M: ModulePresentation) -> str:
    ctx = M.context
    header = zip(_HEADER_KEYS, (ctx.p.p, ctx.N, ctx.d, ctx.D, M.generators))
    relations = ("; ".join(format_polynomial(e) for e in row) for row in M.relations)
    return "".join(f"{k}: {v}\n" for k, v in header) + "".join(
        f"relation: {r}\n" for r in relations
    )


# ------------------------------------------------------------------
# tower TSV
# ------------------------------------------------------------------

TOWER_COLUMNS = ("n", "log_torsion", "zp_rank", "log_mod_pn", "flags")


def format_tower_tsv(data) -> str:
    return _write_tsv(TOWER_COLUMNS, (
        (t.n, t.log_torsion, t.zp_rank, t.log_mod_pn, ",".join(t.flags) or "-")
        for t in sorted(data, key=lambda t: t.n)
    ))


def parse_tower_tsv(text: str):
    """Tower rows, each at a distinct level n >= 0 with counts >= 0; the
    flags cell is `-` or comma-separated flag names."""
    out, levels = [], set()
    for n, lt, zr, lm, flags in _read_tsv(text, TOWER_COLUMNS, "tower"):
        names = () if flags == "-" else tuple(flags.split(","))
        if "" in names:
            raise ValueError(f"empty flag name in tower row n = {n}: {flags!r}")
        level = int(n)
        if level < 0:
            raise ValueError(f"negative level in tower row n = {n}")
        if level in levels:
            raise ValueError(f"repeated level in tower row n = {n}")
        levels.add(level)
        counts = tuple(map(int, (lt, zr, lm)))
        if min(counts) < 0:
            raise ValueError(f"negative count in tower row n = {n}")
        out.append(TowerDatum(level, *counts, names))
    return out


# ------------------------------------------------------------------
# invariant-report record (flat key=value text)
# ------------------------------------------------------------------

#: report key -> decoder, in output order.  format_report writes a key
#: unless it holds its InvariantReport default, and inverts each decoder.
_REPORT_FIELDS = {
    "p": int, "d": int, "method": str, "model": str,
    **dict.fromkeys(("mu", "lam", "l0", "rank", "rank_over_h", "mu_h"), int),
    "residuals": _ints, "window_bound": Fraction, "verdict": str,
}


def format_report(report: InvariantReport) -> str:
    defaults = {f.name: f.default for f in fields(InvariantReport)}
    lines = []
    for key, decode in _REPORT_FIELDS.items():
        value = getattr(report, key)
        if value != defaults[key]:
            lines.append(f"{key}={_join(value) if decode is _ints else value}")
    return "\n".join(lines) + "\n"


def parse_report(text: str) -> InvariantReport:
    record = _fields(text, "=", _REPORT_FIELDS)
    for f in fields(InvariantReport):
        if f.default is MISSING and f.name not in record:
            raise ValueError(f"missing record field {f.name!r}")
    report = InvariantReport(**{k: _REPORT_FIELDS[k](v) for k, v in record.items()})
    for slot in sorted(_INTEGRAL_SLOTS & record.keys()):
        if getattr(report, slot) < 0:
            raise ValueError(f"negative record field {slot} = {getattr(report, slot)}")
    return report


# ------------------------------------------------------------------
# K-group table and extension descriptor
# ------------------------------------------------------------------

KTABLE_COLUMNS = ("field_label", "i", "decomposition", "source")


def parse_ktable(text: str):
    """K-group records, each for a distinct (field_label, i) pair."""
    out = {}
    for label, i, decomposition, source in _read_tsv(text, KTABLE_COLUMNS, "K-table"):
        record = KGroupRecord(label, int(i), _ints(decomposition), source)
        if out.setdefault((label, record.i), record) is not record:
            raise ValueError(f"repeated K-table row for field {label!r} with i = {record.i}")
    return list(out.values())


def format_ktable(records) -> str:
    return _write_tsv(KTABLE_COLUMNS, (
        (r.field_label, r.i, _join(r.order_decomposition), r.source) for r in records
    ))


def _local_prime(value: str) -> LocalPrimeDatum:
    """`label q [ramified|unramified]`, ramified when the flag is absent."""
    parts = value.split()
    if len(parts) not in (2, 3):
        raise ValueError(f"malformed ramified_prime line: {value!r}")
    if parts[2:] and parts[2] not in ("ramified", "unramified"):
        raise ValueError(f"bad ramification flag {parts[2]!r}")
    return LocalPrimeDatum(parts[0], int(parts[1]), parts[2:] != ["unramified"])


def parse_descriptor(text: str) -> ExtensionDescriptor:
    """Extension-descriptor document: `kind:` and `d:` fields plus zero
    or more `ramified_prime: label q [ramified|unramified]`,
    `hypothesis:` and `note:` lines."""
    record = _fields(text, ":", ("kind", "d"), ("ramified_prime", "hypothesis", "note"))
    if "kind" not in record or "d" not in record:
        raise ValueError("descriptor needs both 'kind' and 'd' fields")
    return ExtensionDescriptor(
        kind=record["kind"],
        d=int(record["d"]),
        ramified_primes=tuple(_local_prime(v) for v in record["ramified_prime"]),
        asserted_hypotheses=tuple(record["hypothesis"]),
        notes=tuple(record["note"]),
    )


PREDICTION_COLUMNS = ("n", "main_term", "o_class", "torsion_type", "theorem_tag")


def format_prediction_tsv(prediction: TowerPrediction) -> str:
    return _write_tsv(PREDICTION_COLUMNS, (
        (r.n, r.main_term, r.o_class, r.torsion_type,
         r.theorem_tag + ("[UPPER_BOUND]" if r.qualifier == "UPPER_BOUND" else ""))
        for r in prediction.rows
    ), prediction.assumptions)
