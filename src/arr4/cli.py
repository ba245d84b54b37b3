"""Command-line front end.

Commands:
    analyze PATH [--json] [--chambers | --no-chambers] [--max-chambers N]
    generate LABEL [-o PATH]
    catalogue list | verify (LABEL | --all) [--json] | export [-o PATH]

Exit codes: 0 success, 1 verification failures, 2 parse/usage errors,
3 validation errors (duplicate or non-essential normals), 4 unknown labels.
The environment variable ARR4_THREADS is validated (a positive integer, else
exit 2) but otherwise inert: no command starts worker threads or processes,
and output is byte-identical whatever its value.
"""

from __future__ import annotations

import argparse
import os
import sys

from .arrangement import DuplicateHyperplane, MixedField, NotEssential
from .catalogue import (
    NoVectorsAvailable,
    UnknownLabel,
    builtin,
    catalogue_entry,
    catalogue_rows,
    verify_row,
)
from .fileformat import ArrangementParseError, emit_arrangement, parse_arrangement
from .invariants import positional
from .report import build_report, render_text, row_report_doc, to_json

#: analyze enumerates chambers by default only up to this many hyperplanes.
DEFAULT_CHAMBER_LIMIT_N = 32


def _fail(message: str, code: int) -> int:
    print(f"arr4: {message}", file=sys.stderr)
    return code


def _worker_cap() -> int | None:
    raw = os.environ.get("ARR4_THREADS")
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f"ARR4_THREADS must be a positive integer, got {raw!r}")
    return value


def cmd_analyze(args) -> int:
    try:
        with open(args.path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        return _fail(str(exc), 2)
    try:
        arrangement = parse_arrangement(text)
    except ArrangementParseError as exc:
        return _fail(f"{args.path}: {exc}", 2)
    except (DuplicateHyperplane, NotEssential, MixedField) as exc:
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
    if args.json:
        sys.stdout.write(to_json(report))
    else:
        sys.stdout.write(render_text(report))
    return 0


def cmd_generate(args) -> int:
    try:
        arrangement = builtin(args.label)
    except (UnknownLabel, NoVectorsAvailable) as exc:
        return _fail(str(exc), 4)
    text = emit_arrangement(arrangement)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            return _fail(str(exc), 2)
    else:
        sys.stdout.write(text)
    return 0


def _catalogue_list() -> int:
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
    if args.all:
        labels = [row.label for row in catalogue_rows()]
    elif args.label:
        labels = [args.label]
    else:
        return _fail("verify needs a label or --all", 2)
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
            skips = sum(
                1 for o in rep.geometry + rep.checks if o.status == "skip"
            )
            checked = sum(
                1 for o in rep.geometry + rep.checks if o.status != "skip"
            )
            print(f"{rep.label:<12} {verdict}  ({checked} checks, {skips} skipped)")
            for outcome in rep.geometry + rep.checks:
                if outcome.status == "fail":
                    print(f"    FAIL {outcome.name}: {outcome.result}")
        print(f"{len(reports)} rows, {failures} failures")
    return 1 if failures else 0


def _catalogue_export(args) -> int:
    doc = [
        {
            "label": row.label,
            "n": row.n,
            "h_vector": {str(k): v for k, v in sorted(row.h.items())},
            "t_vector": {str(k): v for k, v in sorted(row.t.items())},
            "f_vector": list(row.f),
            "comments": row.comments,
            "has_vectors": row.has_vectors,
        }
        for row in catalogue_rows()
    ]
    text = to_json(doc)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            return _fail(str(exc), 2)
    else:
        sys.stdout.write(text)
    return 0


def cmd_catalogue(args) -> int:
    if args.action == "list":
        return _catalogue_list()
    if args.action == "verify":
        return _catalogue_verify(args)
    if args.action == "export":
        return _catalogue_export(args)
    return _fail(f"unknown catalogue action {args.action!r}", 2)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arr4",
        description="Exact analysis of hyperplane arrangements in projective 3-space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="analyze an arrangement file")
    analyze.add_argument("path")
    analyze.add_argument("--json", action="store_true")
    analyze.add_argument("--chambers", action="store_true",
                         help="force chamber enumeration")
    analyze.add_argument("--no-chambers", action="store_true",
                         help="skip chamber enumeration")
    analyze.add_argument("--max-chambers", type=int, default=None, metavar="N",
                         help="abort enumeration past N chambers")

    generate = sub.add_parser("generate", help="write a built-in arrangement file")
    generate.add_argument("label")
    generate.add_argument("-o", "--output", default=None)

    catalogue = sub.add_parser("catalogue", help="catalogue operations")
    cat_sub = catalogue.add_subparsers(dest="action", required=True)
    cat_sub.add_parser("list", help="print all catalogue rows")
    verify = cat_sub.add_parser("verify", help="verify catalogue rows")
    verify.add_argument("label", nargs="?", default=None)
    verify.add_argument("--all", action="store_true")
    verify.add_argument("--json", action="store_true")
    export = cat_sub.add_parser("export", help="write the catalogue as JSON")
    export.add_argument("-o", "--output", default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _worker_cap()
    except ValueError as exc:
        return _fail(str(exc), 2)
    if args.command == "analyze":
        return cmd_analyze(args)
    if args.command == "generate":
        return cmd_generate(args)
    if args.command == "catalogue":
        return cmd_catalogue(args)
    return _fail(f"unknown command {args.command!r}", 2)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
