"""Command-line front end.

Exit codes: 0 success, 1 verification/catalogue mismatch, 2 invalid input,
3 time budget exhausted (partial results are still emitted, flagged).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .catalogue import SUBSETS, run_catalogue
from .constructions import construct_named, supersoluble_family, verify_family
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


def _parse_named(text: str):
    """Parse 'name:p1:p2', with 'a*b' for direct products and wreath2:name:params."""
    factors = [p.strip() for p in text.split("*") if p.strip()]
    if not factors:
        raise BadParams(f"empty group name {text!r}")
    specs = []
    for factor in factors:
        tokens = factor.split(":")
        name = tokens[0]
        if name == "wreath2":
            if len(tokens) < 2:
                raise BadParams("wreath2 needs an inner constructor, e.g. wreath2:alt:4")
            params: tuple = (tokens[1], *(int(t) for t in tokens[2:]))
        else:
            try:
                params = tuple(int(t) for t in tokens[1:])
            except ValueError:
                raise BadParams(f"non-integer parameter in {factor!r}") from None
        specs.append(construct_named(name, params))
    spec = specs[0]
    for s in specs[1:]:
        spec = construct_named("direct_product", (spec, s))
    return spec


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
        return _parse_named(args.named)
    if args.perm is not None:
        return perm_spec(split_generator_list(args.perm))
    return _parse_matrix(args.matrix)


def _open_out(path):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w", encoding="utf-8"), True


def cmd_search(args) -> int:
    try:
        spec = _group_spec_from_args(args)
        G = build_group(spec, cap=args.cap)
        opts = SearchOptions(
            require=args.require,
            minimal_mode=args.minimal,
            disable_filters=tuple(args.no_filter or ()),
            max_subgroups=args.max_subgroups,
            time_budget=args.budget,
        )
    except IngletonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
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
        except IngletonError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        write_records((class_record(c) for c in classes), stream)
        write_records([summary_record(G, classes, complete, time.monotonic() - started)], stream)
    finally:
        if close:
            stream.close()
    return code


def cmd_family(args) -> int:
    try:
        fq = supersoluble_family(args.q, allow_small=args.allow_small, zeta=args.zeta)
        report = verify_family(fq, strict=False)
    except IngletonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
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
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            records = read_records(fh)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except IngletonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    checked = 0
    bad = 0
    for i, record in enumerate(records, start=1):
        # a line that is not an object is checked, so verify_record reports it
        if isinstance(record, dict) and record.get("type") not in ("offender-class", "quadruple"):
            continue
        checked += 1
        mismatches = verify_record(record, cap=args.cap)
        if mismatches:
            bad += 1
            for m in mismatches:
                print(f"record {i}: {m}", file=sys.stderr)
    if checked == 0:
        print("error: no quadruple records in file", file=sys.stderr)
        return EXIT_USAGE
    print(f"verified {checked} record(s); {bad} mismatching")
    return EXIT_OK if bad == 0 else EXIT_MISMATCH


def cmd_catalogue(args) -> int:
    try:
        ok, _ = run_catalogue(args.subset, sys.stdout, budget=args.budget)
    except IngletonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
