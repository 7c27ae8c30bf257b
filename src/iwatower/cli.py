"""Command-line surface: reproducible runs of tower computation,
growth-law fitting, prediction tables, vanishing certification, exact
invariants, and the seeded self-test battery.

Exit-code contract (fixed so shell pipelines can branch):
0 ok, 1 input error, 2 flagged/partial output, 3 model misfit,
4 not-certified.
"""

from __future__ import annotations

import argparse
import sys

from .errors import (
    HypothesisViolated,
    InsufficientData,
    IwatowerError,
    MissingInvariant,
    NonIntegralCoefficient,
)
from .formats import (
    format_prediction_tsv,
    format_report,
    format_tower_tsv,
    parse_descriptor,
    parse_ktable,
    parse_module_file,
    parse_report,
    parse_tower_tsv,
)
from .invariants import GrowthModel, exact_invariants_d1, fit_growth
from .ktheory import BUILTIN_KTABLE, ExtensionDescriptor, predict_growth, vanishing_propagation
from .modules import DEFAULT_DIMENSION_BOUND, tower
from .padic import Prime, at_least
from .selftest import DEFAULT_SEED, run_selftest

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_FLAGGED = 2
EXIT_MISFIT = 3
EXIT_NOT_CERTIFIED = 4


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def cmd_tower(args) -> int:
    M = parse_module_file(_read(args.module_file), N=args.N, D=args.D)
    data = tower(M, args.n_max, dimension_bound=args.dim_bound)
    _emit(format_tower_tsv(data), args.out)
    return EXIT_FLAGGED if any(t.flags for t in data) else EXIT_OK


def cmd_fit(args) -> int:
    data = parse_tower_tsv(_read(args.tower_file))
    model = GrowthModel(args.model, args.p, args.d)
    try:
        report = fit_growth(data, model, n0=args.n0)
    except (NonIntegralCoefficient, HypothesisViolated) as exc:
        sys.stderr.write(f"model misfit: {exc}\n")
        return EXIT_MISFIT
    _emit(format_report(report), args.out)
    return EXIT_OK


def cmd_predict(args) -> int:
    n_max = at_least(args.n_max, 0, "n_max")
    report = parse_report(_read(args.report_file))
    ext = parse_descriptor(_read(args.descriptor_file))
    prediction = predict_growth(
        report, ext, Prime(args.p), args.i, range(n_max + 1)
    )
    _emit(format_prediction_tsv(prediction), args.out)
    return EXIT_OK


def cmd_vanishing(args) -> int:
    if args.ktable:
        records = parse_ktable(_read(args.ktable))
    else:
        records = list(BUILTIN_KTABLE)
    matches = [r for r in records if r.field_label == args.field_label and r.i == args.i]
    if not matches:
        raise IwatowerError(
            f"no record for field {args.field_label!r} with i = {args.i}"
        )
    if args.descriptor:
        ext = parse_descriptor(_read(args.descriptor))
    else:
        ext = ExtensionDescriptor(kind="Zpd", d=2)
    cert = vanishing_propagation(matches[0], ext, Prime(args.p))
    lines = [
        f"field: {cert.field_label}",
        f"p: {cert.p}",
        f"i: {cert.i}",
        f"certified: {'yes' if cert.certified else 'no'}",
    ]
    for desc, ok in cert.conditions:
        lines.append(f"{'PASS' if ok else 'FAIL'} {desc}")
    for a in cert.assumptions:
        lines.append(f"# {a}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if cert.certified else EXIT_NOT_CERTIFIED


def cmd_invariants(args) -> int:
    M = parse_module_file(_read(args.module_file), N=args.N, D=args.D)
    report = exact_invariants_d1(M)
    _emit(format_report(report), args.out)
    return EXIT_OK


def cmd_selftest(args) -> int:
    report, code = run_selftest(seed=args.seed)
    _emit(report, args.out)
    return code


def _new_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iwatower",
        description=(
            "Coinvariant towers, growth invariants, and K-group "
            "bookkeeping over truncated Iwasawa algebras"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("tower", help="compute coinvariant tower data")
    t.add_argument("module_file")
    t.add_argument("--N", type=int, help="override coefficient precision")
    t.add_argument("--D", type=int, help="override degree truncation")
    t.add_argument("--n-max", type=int, default=3, dest="n_max")
    t.add_argument(
        "--dim-bound",
        type=int,
        default=DEFAULT_DIMENSION_BOUND,
        dest="dim_bound",
        help="cap on the coinvariant basis size per level",
    )
    t.add_argument("--out")
    t.set_defaults(func=cmd_tower)

    f = sub.add_parser("fit", help="fit a growth law to tower data")
    f.add_argument("tower_file")
    f.add_argument("--model", required=True)
    f.add_argument("--p", type=int, required=True)
    f.add_argument("--d", type=int, default=1)
    f.add_argument("--n0", type=int, default=1)
    f.add_argument("--out")
    f.set_defaults(func=cmd_fit)

    pr = sub.add_parser("predict", help="evaluate growth predictions")
    pr.add_argument("report_file")
    pr.add_argument("descriptor_file")
    pr.add_argument("--p", type=int, required=True)
    pr.add_argument("--i", type=int, default=2)
    pr.add_argument("--n-max", type=int, default=4, dest="n_max")
    pr.add_argument("--out")
    pr.set_defaults(func=cmd_predict)

    v = sub.add_parser("vanishing", help="certify vanishing propagation")
    v.add_argument("--ktable", help="K-group table file (default: builtin)")
    v.add_argument("--field-label", required=True, dest="field_label")
    v.add_argument("--p", type=int, required=True)
    v.add_argument("--i", type=int, default=2)
    v.add_argument("--descriptor")
    v.add_argument("--out")
    v.set_defaults(func=cmd_vanishing)

    inv = sub.add_parser("invariants", help="exact d=1 invariants")
    inv.add_argument("module_file")
    inv.add_argument("--N", type=int, help="override coefficient precision")
    inv.add_argument("--D", type=int, help="override degree truncation")
    inv.add_argument("--out")
    inv.set_defaults(func=cmd_invariants)

    st = sub.add_parser("selftest", help="run the seeded oracle battery")
    st.add_argument("--seed", type=int, default=DEFAULT_SEED)
    st.add_argument("--out")
    st.set_defaults(func=cmd_selftest)
    return parser


_PARSER = _new_parser()


def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once at import and shared by every
    `main` call; callers must not modify it."""
    return _PARSER


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help and 2 on a usage error
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (InsufficientData, MissingInvariant) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except (IwatowerError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
