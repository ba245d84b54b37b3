"""Command-line front end.

Commands:
    analyze PATH [--json] [--chambers | --no-chambers] [--max-chambers N >= 1]
    generate LABEL [-o PATH]
    catalogue list | verify (LABEL | --all) [--json] | export [-o PATH]

LABEL is a catalogue label such as A^3_1(27) or one of the reflection-type
shorthands A4, D4, B4, F4, H4; reports carry the catalogue label.  The
alternatives in parentheses or around `|` exclude each other: --chambers
with --no-chambers, or a LABEL with --all, is a usage error.

Exit codes: 0 success, 1 verification failures, 2 parse/usage errors,
3 validation errors (duplicate, zero or non-essential normals), 4 unknown labels,
5 internal check failures, reported as "internal check failed" (a bug).  The
checks compare independent routes: the Moebius vs the closed-form
characteristic polynomial and the three integer relations vs the cubic
discriminant (every report); with chambers enumerated, the chamber count vs
f3, the walls vs 2 f2, and diagram vs counting verdicts on simply-lacedness
and irreducibility; in `catalogue verify`, the vertex tallies vs the
restriction chamber counts for f2.  The chamber walk also certifies that
each facet's tight corner rays span it.
A closed standard output ends the process by SIGPIPE, without a message.
The environment variable ARR4_THREADS is validated (a positive integer, else
exit 2) but otherwise inert: no command starts worker threads or processes,
and output is byte-identical whatever its value.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys

from .arrangement import DuplicateHyperplane, MixedField, NotEssential, ZeroNormal
from .catalogue import (
    NoVectorsAvailable,
    UnknownLabel,
    builtin,
    catalogue_rows,
    verify_row,
)
from .fileformat import ArrangementParseError, emit_arrangement, parse_arrangement
from .invariants import positional
from .report import build_report, render_text, row_report_doc, to_json, weight_map

#: analyze enumerates chambers by default only up to this many hyperplanes.
DEFAULT_CHAMBER_LIMIT_N = 32


def _fail(message: str, code: int) -> int:
    print(f"arr4: {message}", file=sys.stderr)
    return code


def _positive(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _write(text: str, path: str | None) -> int:
    """Write text to the file at path, or to standard output without one."""
    if not path:
        sys.stdout.write(text)
        return 0
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        return _fail(str(exc), 2)
    return 0


def cmd_analyze(args) -> int:
    try:
        with open(args.path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        return _fail(str(exc), 2)
    except UnicodeDecodeError as exc:
        return _fail(f"{args.path}: not UTF-8 text ({exc.reason} at byte {exc.start})", 2)
    try:
        arrangement = parse_arrangement(text)
    except ArrangementParseError as exc:
        return _fail(f"{args.path}: {exc}", 2)
    except (DuplicateHyperplane, NotEssential, MixedField, ZeroNormal) as exc:
        return _fail(f"{args.path}: {exc}", 3)
    if args.no_chambers:
        with_chambers = False
    elif args.chambers:
        with_chambers = True
    else:
        with_chambers = arrangement.n <= DEFAULT_CHAMBER_LIMIT_N
    report = build_report(
        arrangement,
        with_chambers=with_chambers,
        max_chambers=args.max_chambers,
    )
    return _write(to_json(report) if args.json else render_text(report), None)


def cmd_generate(args) -> int:
    try:
        arrangement = builtin(args.label)
    except (UnknownLabel, NoVectorsAvailable) as exc:
        return _fail(str(exc), 4)
    return _write(emit_arrangement(arrangement), args.output)


def _catalogue_list(args) -> int:
    for row in catalogue_rows():
        h = positional(row.h, 2)
        t = positional(row.t, 3)
        marker = "vectors" if row.has_vectors else "data-only"
        print(
            f"{row.label:<12} n={row.n:<3} h={h} t={t} f={row.f} "
            f"[{marker}] {row.comments}"
        )
    return 0


def _catalogue_verify(args) -> int:
    labels = [row.label for row in catalogue_rows()] if args.all else [args.label]
    reports = []
    for label in labels:
        try:
            reports.append(verify_row(label))
        except UnknownLabel as exc:
            return _fail(str(exc), 4)
    failures = sum(0 if rep.passed else 1 for rep in reports)
    if args.json:
        doc = {
            "rows": [row_report_doc(rep) for rep in reports],
            "failures": failures,
        }
        sys.stdout.write(to_json(doc))
    else:
        for rep in reports:
            verdict = "ok" if rep.passed else "FAIL"
            outcomes = rep.geometry + rep.checks
            skips = sum(1 for o in outcomes if o.status == "skip")
            print(f"{rep.label:<12} {verdict}  ({len(outcomes) - skips} checks, "
                  f"{skips} skipped)")
            for outcome in outcomes:
                if outcome.status == "fail":
                    print(f"    FAIL {outcome.name}: {outcome.result}")
        print(f"{len(reports)} rows, {failures} failures")
    return 1 if failures else 0


def _catalogue_export(args) -> int:
    doc = [
        {
            "label": row.label,
            "n": row.n,
            "h_vector": weight_map(row.h),
            "t_vector": weight_map(row.t),
            "f_vector": list(row.f),
            "comments": row.comments,
            "has_vectors": row.has_vectors,
        }
        for row in catalogue_rows()
    ]
    return _write(to_json(doc), args.output)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arr4",
        description="Exact analysis of hyperplane arrangements in projective 3-space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="analyze an arrangement file")
    analyze.set_defaults(run=cmd_analyze)
    analyze.add_argument("path")
    analyze.add_argument("--json", action="store_true")
    chambers = analyze.add_mutually_exclusive_group()
    chambers.add_argument("--chambers", action="store_true",
                          help="force chamber enumeration")
    chambers.add_argument("--no-chambers", action="store_true",
                          help="skip chamber enumeration")
    analyze.add_argument("--max-chambers", type=_positive, default=None, metavar="N",
                         help="abort enumeration past N chambers")

    generate = sub.add_parser("generate", help="write a built-in arrangement file")
    generate.set_defaults(run=cmd_generate)
    generate.add_argument("label")
    generate.add_argument("-o", "--output", default=None)

    catalogue = sub.add_parser("catalogue", help="catalogue operations")
    cat_sub = catalogue.add_subparsers(dest="action", required=True)
    cat_sub.add_parser("list", help="print all catalogue rows").set_defaults(run=_catalogue_list)
    verify = cat_sub.add_parser("verify", help="verify catalogue rows",
                                usage="%(prog)s (LABEL | --all) [--json]")
    verify.set_defaults(run=_catalogue_verify)
    rows = verify.add_mutually_exclusive_group(required=True)
    rows.add_argument("label", nargs="?", default=None)
    rows.add_argument("--all", action="store_true")
    verify.add_argument("--json", action="store_true")
    export = cat_sub.add_parser("export", help="write the catalogue as JSON")
    export.set_defaults(run=_catalogue_export)
    export.add_argument("-o", "--output", default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    threads = os.environ.get("ARR4_THREADS")
    if threads is not None:
        try:
            _positive(threads)
        except argparse.ArgumentTypeError as exc:
            return _fail(f"ARR4_THREADS {exc}", 2)
    try:
        return args.run(args)
    except AssertionError as exc:
        return _fail(f"internal check failed: {exc}", 5)


def entry() -> None:
    """Console entry point.  A closed standard output (`arr4 ... | head`) ends
    the process quietly by SIGPIPE, as it does `cat`, not with a traceback."""
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    entry()
