"""JSON-lines offender records: emission, parsing, and independent re-verification.

A record carries everything needed to rebuild and recheck a quadruple with no
reference to the producing run's internal ids: the group spec, each subgroup
as generator words plus its order, the eleven term orders, exact lhs/rhs as
decimal strings, the reduced ratio, the score, and classification flags.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from .engine import IngletonReport, Quadruple, evaluate
from .errors import BadParams
from .groups import GroupTable, build_group, spec_from_json, spec_to_json
from .search import OffenderClass, _orbit_of
from .subgroups import generated_subgroup

ROLE_NAMES = ("H1", "H2", "H3", "H4")


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


def rebuild_quadruple(record: dict, cap: int | None = None) -> Quadruple:
    """Reconstruct the quadruple from a record's group spec and generator words."""
    spec = spec_from_json(record["group"])
    kwargs = {} if cap is None else {"cap": cap}
    G = build_group(spec, **kwargs)
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


def verify_record(record: dict, cap: int | None = None) -> list[str]:
    """Recompute the full report from generator words; return all mismatches.

    A malformed record yields mismatches, never an exception.
    """
    if not isinstance(record, dict):
        return [f"record is not a JSON object: {record!r}"]
    mismatches: list[str] = []
    try:
        Q = rebuild_quadruple(record, cap=cap)
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
    except (TypeError, ValueError, ZeroDivisionError):
        recorded_ratio = None
    if recorded_ratio != report.ratio:
        mismatches.append(f"ratio: recorded {ratio}, recomputed {report.ratio}")
    try:
        recorded_score = float(record.get("score", 0.0))
    except (TypeError, ValueError):
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
        orbit = len(_orbit_of(G, Q.bits_tuple()))
        if orbit != size:
            mismatches.append(f"class_size: recorded {size}, recomputed {orbit}")
    return mismatches


def write_records(records, stream) -> None:
    for record in records:
        stream.write(json.dumps(record, sort_keys=True) + "\n")


def read_records(stream) -> list[dict]:
    out = []
    for i, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            out.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise BadParams(f"line {i} is not valid JSON: {exc}") from exc
    return out
