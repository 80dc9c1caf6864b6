"""JSON-lines offender records: emission, parsing, and independent re-verification.

A record carries everything needed to rebuild and recheck a quadruple with no
reference to the producing run's internal ids: the group spec, each subgroup
as generator words plus its order, the eleven term orders, exact lhs/rhs as
decimal strings, the reduced ratio, the score, and classification flags.

``verify_record`` rebuilds the group and the subgroups from the record alone
and recomputes every field; a caller verifying many records can pass a dict
that keeps each distinct group spec's build.  The class size is recomputed by
orbit–stabiliser (``class_size``), from the rebuilt subgroups' generators, so
it shares no code with the search's conjugation rows or canonical form.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from .engine import IngletonReport, Quadruple, evaluate
from .errors import BadParams
from .groups import GroupTable, build_group, spec_from_json, spec_to_json
from .search import OffenderClass
from .subgroups import generated_subgroup

ROLE_NAMES = ("H1", "H2", "H3", "H4")
# The role permutations of the class symmetry: identity, H1<->H2, H3<->H4, both.
ROLE_SWAPS = ((0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2))


def _subgroup_entry(role: str, sub) -> dict:
    G = sub.parent
    return {
        "role": role,
        "order": sub.order,
        "generators": [G.word_str(g) for g in sub.gens],
    }


def quadruple_record(
    Q: Quadruple,
    report: IngletonReport | None = None,
    class_size: int | None = None,
) -> dict:
    G = Q.group
    if report is None:
        report = evaluate(Q)
    return {
        "type": "offender-class" if report.offender else "quadruple",
        "group": spec_to_json(G.spec),
        "group_order": G.n,
        "class_size": class_size,
        "subgroups": [_subgroup_entry(r, s) for r, s in zip(ROLE_NAMES, Q.subs)],
        "terms": report.terms.to_json(),
        "lhs": str(report.lhs),
        "rhs": str(report.rhs),
        "ratio": {"num": report.ratio.numerator, "den": report.ratio.denominator},
        "score": round(report.score, 10),
        "flags": report.flags_json(),
    }


def class_record(cls: OffenderClass) -> dict:
    return quadruple_record(cls.representative, cls.report, cls.size)


def summary_record(G: GroupTable, classes, complete: bool, elapsed: float) -> dict:
    return {
        "type": "summary",
        "group": spec_to_json(G.spec),
        "group_order": G.n,
        "classes": len(classes),
        "complete": complete,
        "elapsed_seconds": round(elapsed, 3),
    }


def class_size(Q: Quadruple) -> int:
    """The size of Q's class under conjugation and the role swaps, by orbit–stabiliser.

    The class is an orbit of G x ROLE_SWAPS, so its size is 4|G| over the
    number of pairs (g, s) with g Hk g^-1 = H_s(k) for every role k.  Only
    swaps that keep the four orders are tried, and then g Hk g^-1 = H_s(k)
    holds iff g conjugates each generator of Hk into H_s(k); each generator
    test filters the g that passed the previous ones.
    """
    G, subs = Q.group, Q.subs
    tests = [
        [(r, subs[s].bits) for k, s in enumerate(swap) for r in subs[k].gens]
        for swap in ROLE_SWAPS
        if all(subs[k].order == subs[s].order for k, s in enumerate(swap))
    ]
    conjugate = G.conjugate  # table reads when dense, concrete products when sparse
    stabiliser = 0
    for test in tests:
        fixers = range(G.n)
        for r, bits in test:
            fixers = [g for g in fixers if bits >> conjugate(g, r) & 1]
        stabiliser += len(fixers)
    return 4 * G.n // stabiliser


def rebuild_quadruple(record: dict, cap: int | None = None, groups: dict | None = None) -> Quadruple:
    """Reconstruct the quadruple from a record's group spec and generator words.

    ``groups``, when given, maps a spec's ``sort_keys`` JSON to its built
    group: a spec built once is reused for every later record that names it.
    A build that raises leaves nothing in the dict.
    """
    key = None if groups is None else json.dumps(record["group"], sort_keys=True)
    G = None if key is None else groups.get(key)
    if G is None:
        spec = spec_from_json(record["group"])
        kwargs = {} if cap is None else {"cap": cap}
        G = build_group(spec, **kwargs)
        if key is not None:
            groups[key] = G
    subs = []
    entries = record["subgroups"]
    if len(entries) != 4:
        raise BadParams("record must carry exactly four subgroups")
    for entry in entries:
        gens = [G.eval_word(w) for w in entry["generators"]]
        subs.append(generated_subgroup(G, gens))
    return Quadruple(*subs)


def _object_field(record: dict, key: str, mismatches: list[str]) -> dict:
    """The record's ``key`` if it is a JSON object (or absent); else a mismatch and {}."""
    value = record.get(key, {})
    if isinstance(value, dict):
        return value
    mismatches.append(f"{key}: recorded {value!r}, expected an object")
    return {}


class InvalidLine(str):
    """A line ``read_records`` could not parse; holds the decoder's message."""


def verify_record(record: dict, cap: int | None = None, groups: dict | None = None) -> list[str]:
    """Recompute the full report from generator words; return all mismatches.

    A malformed record yields mismatches, never an exception.  ``groups`` is
    passed to ``rebuild_quadruple``, so records of one file can share their
    group builds.
    """
    if isinstance(record, InvalidLine):
        return [f"not valid JSON: {record}"]
    if not isinstance(record, dict):
        return [f"record is not a JSON object: {record!r}"]
    mismatches: list[str] = []
    try:
        Q = rebuild_quadruple(record, cap=cap, groups=groups)
    except Exception as exc:  # unparseable spec or words: report, don't crash
        return [f"rebuild failed: {exc}"]
    G = Q.group
    flags = _object_field(record, "flags", mismatches)
    report = evaluate(
        Q,
        with_generative=flags.get("generative") is not None,
        with_irreducible=flags.get("irreducible") is not None,
        with_indomitable=flags.get("indomitable") is not None,
    )
    if record.get("group_order") != G.n:
        mismatches.append(f"group_order: recorded {record.get('group_order')}, rebuilt {G.n}")
    for role, entry, sub in zip(ROLE_NAMES, record["subgroups"], Q.subs):
        if entry.get("order") != sub.order:
            mismatches.append(f"{role} order: recorded {entry.get('order')}, rebuilt {sub.order}")
    terms = report.terms.to_json()
    for key, value in _object_field(record, "terms", mismatches).items():
        if key not in terms:
            mismatches.append(f"unknown term {key}")
        elif terms[key] != value:
            mismatches.append(f"term {key}: recorded {value}, recomputed {terms[key]}")
    if record.get("lhs") != str(report.lhs):
        mismatches.append(f"lhs: recorded {record.get('lhs')}, recomputed {report.lhs}")
    if record.get("rhs") != str(report.rhs):
        mismatches.append(f"rhs: recorded {record.get('rhs')}, recomputed {report.rhs}")
    ratio = _object_field(record, "ratio", mismatches)
    try:
        recorded_ratio = Fraction(int(ratio.get("num", 0)), int(ratio.get("den", 1)))
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        recorded_ratio = None
    if recorded_ratio != report.ratio:
        mismatches.append(f"ratio: recorded {ratio}, recomputed {report.ratio}")
    try:
        recorded_score = float(record.get("score", 0.0))
    except (TypeError, ValueError, OverflowError):
        recorded_score = math.nan
    if not abs(recorded_score - report.score) <= 1e-9:  # a NaN score mismatches too
        mismatches.append(f"score: recorded {record.get('score')}, recomputed {report.score}")
    recomputed_flags = report.flags_json()
    for name, value in flags.items():
        if value is None:
            continue
        if recomputed_flags.get(name) != value:
            mismatches.append(f"flag {name}: recorded {value}, recomputed {recomputed_flags.get(name)}")
    size = record.get("class_size")
    if size is not None:
        recomputed = class_size(Q)
        if recomputed != size:
            mismatches.append(f"class_size: recorded {size}, recomputed {recomputed}")
    return mismatches


def write_records(records, stream) -> None:
    for record in records:
        stream.write(json.dumps(record, sort_keys=True) + "\n")


def read_records(stream) -> list:
    """One parsed value per non-blank line; a line that is not valid JSON
    becomes an ``InvalidLine``, which ``verify_record`` reports."""
    out = []
    for line in stream:
        line = line.strip()
        if not line:
            continue
        try:
            out.append(json.loads(line))
        except json.JSONDecodeError as exc:
            out.append(InvalidLine(f"{exc.msg} at column {exc.colno}"))
    return out
