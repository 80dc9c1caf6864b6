"""Command-line front end.

Exit codes: 0 success, 1 verification/catalogue mismatch, 2 invalid input,
3 time budget exhausted (partial results are still emitted, flagged).  A
command whose stdout is closed before its output is written (say, piped into
``head``) stops quietly with exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .catalogue import SUBSETS, run_catalogue
from .constructions import parse_named, supersoluble_family, verify_family
from .errors import BadParams, IngletonError, TimeBudgetExceeded
from .groups import DEFAULT_ORDER_CAP, build_group, matrix_spec, perm_spec
from .permutations import split_generator_list
from .records import class_record, read_records, summary_record, verify_record, write_records
from .search import ALL_FILTERS, DEFAULT_TIME_BUDGET, REQUIRE_LEVELS, SearchOptions, search_offenders
from .subgroups import DEFAULT_SUBGROUP_CAP

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _parse_matrix(text: str):
    try:
        q_text, _, rows_text = text.partition(":")
        q = int(q_text)
        mats = []
        for chunk in rows_text.split(";"):
            entries = [int(x) for x in chunk.split(",")]
            mats.append(entries)
    except ValueError:
        raise BadParams(f"--matrix expects 'q:a,b,...;a,b,...', got {text!r}") from None
    return matrix_spec(q, mats)


def _group_spec_from_args(args):
    sources = [s for s in (args.named, args.perm, args.matrix) if s is not None]
    if len(sources) != 1:
        raise BadParams("exactly one of --named, --perm, --matrix is required")
    if args.named is not None:
        return parse_named(args.named)
    if args.perm is not None:
        return perm_spec(split_generator_list(args.perm))
    return _parse_matrix(args.matrix)


def _open_out(path):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w", encoding="utf-8"), True


def cmd_search(args) -> int:
    G = build_group(_group_spec_from_args(args), cap=args.cap)
    opts = SearchOptions(
        require=args.require,
        minimal_mode=args.minimal,
        disable_filters=tuple(args.no_filter or ()),
        max_subgroups=args.max_subgroups,
        time_budget=args.budget,
    )
    stream, close = _open_out(args.out)
    started = time.monotonic()
    code = EXIT_OK
    try:
        try:
            classes = search_offenders(G, opts)
            complete = True
        except TimeBudgetExceeded as exc:
            print(f"warning: {exc}", file=sys.stderr)
            classes = exc.partial
            complete = False
            code = EXIT_BUDGET
        write_records((class_record(c) for c in classes), stream)
        write_records([summary_record(G, classes, complete, time.monotonic() - started)], stream)
    finally:
        if close:
            stream.close()
    return code


def cmd_family(args) -> int:
    fq = supersoluble_family(args.q, allow_small=args.allow_small, zeta=args.zeta)
    report = verify_family(fq, strict=False)
    stream, close = _open_out(args.out)
    try:
        json.dump(report.to_json(), stream, indent=2, sort_keys=True)
        stream.write("\n")
    finally:
        if close:
            stream.close()
    if report.small_field_warning:
        print("warning: q=3 is below the offender threshold (ratio 8/9)", file=sys.stderr)
    return EXIT_OK if report.all_passed else EXIT_MISMATCH


def cmd_verify(args) -> int:
    with open(args.file, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    # read_records skips blank lines, so the file line of each record is counted here
    line_numbers = [n for n, line in enumerate(lines, start=1) if line.strip()]
    checked = 0
    bad = 0
    groups: dict = {}  # each distinct group spec of the file is built once
    for n, record in zip(line_numbers, read_records(lines)):
        # a line that is not an object (or not JSON) is checked, so
        # verify_record reports it
        if isinstance(record, dict) and record.get("type") not in ("offender-class", "quadruple"):
            continue
        checked += 1
        mismatches = verify_record(record, cap=args.cap, groups=groups)
        if mismatches:
            bad += 1
            for m in mismatches:
                print(f"line {n}: {m}", file=sys.stderr)
    if checked == 0:
        print("error: no quadruple records in file", file=sys.stderr)
        return EXIT_USAGE
    print(f"verified {checked} record(s); {bad} mismatching")
    return EXIT_OK if bad == 0 else EXIT_MISMATCH


def cmd_catalogue(args) -> int:
    ok, _ = run_catalogue(args.subset, sys.stdout, budget=args.budget)
    return EXIT_OK if ok else EXIT_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ingleton",
        description="Find, verify and catalogue Ingleton-inequality offenders in finite groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_search = sub.add_parser("search", help="enumerate offender classes of one group")
    p_search.add_argument("--named", help="named constructor, e.g. sym:5, pgl2:7, alt:4*alt:4, wreath2:alt:4")
    p_search.add_argument("--perm", help="permutation generators as cycle strings, e.g. '(1,2),(1,2,3)'")
    p_search.add_argument("--matrix", help="matrix generators as q:row-major entries, ';'-separated")
    p_search.add_argument("--minimal", action="store_true", help="keep only quadruples satisfying the minimal-violator generation constraints")
    p_search.add_argument("--no-filter", action="append", metavar="NAME",
                          help=f"disable a pruning filter (repeatable; 'all' for oracle mode); names: {', '.join(ALL_FILTERS)}")
    p_search.add_argument("--budget", type=float, default=DEFAULT_TIME_BUDGET,
                          help=f"time budget in seconds (default {DEFAULT_TIME_BUDGET:g})")
    p_search.add_argument("--require", choices=REQUIRE_LEVELS,
                          default="generative", help="classification level required of emitted classes")
    p_search.add_argument("--cap", type=int, default=DEFAULT_ORDER_CAP, help="group order cap")
    p_search.add_argument("--max-subgroups", type=int, default=DEFAULT_SUBGROUP_CAP, help="subgroup lattice cap")
    p_search.add_argument("--out", help="output file for JSON-lines records (default stdout)")
    p_search.set_defaults(func=cmd_search)

    p_family = sub.add_parser("family", help="build and verify the supersoluble matrix family at q")
    p_family.add_argument("q", type=int)
    p_family.add_argument("--allow-small", action="store_true", help="permit q=3 (non-offender boundary case)")
    p_family.add_argument("--zeta", type=int, default=None, help="override the primitive element")
    p_family.add_argument("--out", help="output file for the report JSON (default stdout)")
    p_family.set_defaults(func=cmd_family)

    p_verify = sub.add_parser("verify", help="recompute and compare records from a JSON-lines file")
    p_verify.add_argument("file")
    p_verify.add_argument("--cap", type=int, default=None, help="order cap override for rebuilding groups")
    p_verify.set_defaults(func=cmd_verify)

    p_cat = sub.add_parser("catalogue", help="reproduce the small-order catalogue against expected values")
    p_cat.add_argument("subset", choices=sorted(SUBSETS))
    p_cat.add_argument("--budget", type=float, default=None, help="per-group time budget override in seconds")
    p_cat.set_defaults(func=cmd_catalogue)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away; point stdout at devnull so that the flush at
        # interpreter exit cannot raise again (the recipe of the signal docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_MISMATCH
    except (IngletonError, OSError, UnicodeDecodeError) as exc:
        # invalid input, an unwritable --out or an unreadable record file
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
