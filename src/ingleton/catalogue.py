"""Catalogue reproduction: expected offender data embedded as checked entries.

Expected values are data, never recomputed at runtime.  Provenance of each
number is noted beside it: rows of the published violator/offender tables,
the exact family ratio 2(q-1)^2/q^2, or derived negative controls.

Published per-group counts and scores turn out to enumerate *indomitable*
offender classes (GL(2,5) is the discriminating case: 15 generative classes,
of which exactly the published 4 are indomitable), so search entries compare
expectations against the indomitable subset and report the generative total
alongside.  Counts are asserted only for rows whose published count is 1;
larger counts are compared informationally.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

from .constructions import parse_named, supersoluble_family, verify_family
from .engine import evaluate
from .errors import IngletonError, TimeBudgetExceeded
from .groups import build_group
from .search import DEFAULT_TIME_BUDGET, SearchOptions, search_offenders

SCORE_TOLERANCE = 5e-5


@dataclass(frozen=True)
class CatalogueEntry:
    name: str
    kind: str  # "search" | "family" | "negative"
    expected_order: int
    named: str | None = None  # the group in the --named grammar, for search and negative rows
    family_q: int | None = None
    expected_offender: bool = True
    expected_ratios: tuple[Fraction, ...] = ()
    expected_scores: tuple[float, ...] = ()
    expected_classes: int | None = None
    assert_classes: bool = False


def _fr(num, den):
    return (Fraction(num, den),)


# Published violator table, orders <= 504, restricted to groups the paper
# gives a construction for.  Scores/ratios/class counts from the offender
# table; orders from the violator table.
_S5 = CatalogueEntry(
    name="S5",
    kind="search",
    named="sym:5",
    expected_order=120,
    expected_ratios=_fr(16, 15),
    expected_scores=(0.01348,),
    expected_classes=1,
    assert_classes=True,  # published count 1 (unambiguous)
)
_A4A4 = CatalogueEntry(
    name="A4xA4",
    kind="search",
    named="alt:4*alt:4",
    expected_order=144,
    expected_ratios=_fr(9, 8),
    expected_scores=(0.02370,),
    expected_classes=1,
    assert_classes=True,
)
_BOREL192 = CatalogueEntry(
    name="family-q4 (order-192 Borel)",
    kind="family",
    family_q=4,
    expected_order=192,
    expected_ratios=_fr(9, 8),  # 2(q-1)^2/q^2 at q=4; matches the published row
    expected_scores=(0.02240,),
)
_A4S4 = CatalogueEntry(
    name="A4xS4",
    kind="search",
    named="alt:4*sym:4",
    expected_order=288,
    expected_ratios=_fr(9, 8),
    expected_scores=(0.02080,),
    expected_classes=1,
    assert_classes=True,
)
_A4WR2 = CatalogueEntry(
    name="A4wr2",
    kind="search",
    named="wreath2:alt:4",
    expected_order=288,
    expected_ratios=_fr(9, 8),
    expected_scores=(0.02080, 0.02370),  # published: 0.02080 six times, 0.02370 once
    expected_classes=7,
    assert_classes=False,  # multi-class counts are convention-dependent
)
_PGL27 = CatalogueEntry(
    name="PGL2(7)",
    kind="search",
    named="pgl2:7",
    expected_order=336,
    expected_ratios=_fr(8, 7),
    expected_scores=(0.02295,),
    expected_classes=1,
    assert_classes=True,
)
_A6 = CatalogueEntry(
    name="A6",
    kind="search",
    named="alt:6",
    expected_order=360,
    expected_ratios=(Fraction(9, 8), Fraction(16, 15)),
    expected_scores=(0.02001, 0.02268, 0.01096, 0.01348),
    expected_classes=32,
    assert_classes=False,
)
_GL25 = CatalogueEntry(
    name="GL2(5)",
    kind="search",
    named="gl2:5",
    expected_order=480,
    expected_ratios=_fr(16, 15),
    expected_scores=(0.01045,),
    expected_classes=4,
    assert_classes=False,
)
_FAMILY500 = CatalogueEntry(
    name="family-q5 (order 500)",
    kind="family",
    family_q=5,
    expected_order=500,
    expected_ratios=_fr(32, 25),
    expected_scores=(0.03972,),
)
_PSL28 = CatalogueEntry(
    name="PSL2(8)",
    kind="search",
    named="psl2:8",
    expected_order=504,
    expected_ratios=_fr(7, 6),
    expected_scores=(0.02477,),
    expected_classes=1,
    assert_classes=True,
)
_3PSL27 = CatalogueEntry(
    name="3xPSL2(7)",
    kind="search",
    named="cyclic:3*psl2:7",
    expected_order=504,
    expected_ratios=_fr(9, 8),
    expected_scores=(0.01892,),
    expected_classes=2,
    assert_classes=False,
)


def _negative(name, named, order):
    # derived negative controls: orders below the least published violator,
    # abelian groups, dihedral/metacyclic samples
    return CatalogueEntry(
        name=name,
        kind="negative",
        named=named,
        expected_order=order,
        expected_offender=False,
    )


_NEGATIVES_FAST = (
    _negative("A4", "alt:4", 12),
    _negative("S4", "sym:4", 24),
    _negative("SL2(3)", "sl2:3", 24),
    _negative("A5", "alt:5", 60),
    _negative("D48", "dihedral:24", 48),
    _negative("C24", "cyclic:24", 24),
    _negative("C2^4", "cyclic:2*cyclic:2*cyclic:2*cyclic:2", 16),
)

FAST_ENTRIES = (_S5, _A4A4, _BOREL192) + _NEGATIVES_FAST
STANDARD_ENTRIES = FAST_ENTRIES + (_A4S4, _A4WR2, _PGL27, _A6)
EXTENDED_ENTRIES = STANDARD_ENTRIES + (_GL25, _FAMILY500, _PSL28, _3PSL27)

SUBSETS = {
    "fast": FAST_ENTRIES,
    "standard": STANDARD_ENTRIES,
    "extended": EXTENDED_ENTRIES,
}


@dataclass
class EntryResult:
    entry: CatalogueEntry
    passed: bool
    failures: list[str]
    observed: dict
    elapsed: float


def _match_scores(observed: set[float], expected: tuple[float, ...]) -> bool:
    if len(observed) != len(set(expected)):
        return False
    for o in observed:
        if not any(abs(o - e) <= SCORE_TOLERANCE for e in expected):
            return False
    for e in expected:
        if not any(abs(o - e) <= SCORE_TOLERANCE for o in observed):
            return False
    return True


def _observe_family(q: int) -> dict:
    report = verify_family(supersoluble_family(q), strict=False)
    return {
        "order": report.order,
        "offender": report.offender,
        "ratios": {report.ratio},
        "scores": {report.score},
        "clauses_passed": report.all_passed,
        "failed_clause": next((name for name, ok in report.clauses if not ok), None),
    }


def _observe_search(named: str, budget: float | None) -> dict:
    G = build_group(parse_named(named))
    opts = SearchOptions(time_budget=budget if budget is not None else DEFAULT_TIME_BUDGET)
    classes = search_offenders(G, opts)
    reports = [
        evaluate(c.representative, with_generative=True, with_irreducible=True, with_indomitable=True)
        for c in classes
    ]
    indomitable = [r for r in reports if r.indomitable]
    return {
        "order": G.n,
        "offender": bool(classes),
        "ratios": {r.ratio for r in indomitable},
        "scores": {r.score for r in indomitable},
        "classes": len(indomitable),
        "generative_classes": len(classes),
    }


def _braced(values, fmt=str) -> str:
    return "{" + ", ".join(fmt(v) for v in sorted(values)) + "}"


def _mismatches(entry: CatalogueEntry, obs: dict) -> list[str]:
    """Every way the observation differs from the row, most basic first."""
    failures = []
    if obs.get("failed_clause"):
        failures.append(f"clause: {obs['failed_clause']} failed")
    if obs["order"] != entry.expected_order:
        failures.append(f"order: expected {entry.expected_order}, got {obs['order']}")
    if obs["offender"] != entry.expected_offender:
        failures.append(f"offender: expected {entry.expected_offender}, got {obs['offender']}")
    if entry.expected_offender:
        if obs["ratios"] != set(entry.expected_ratios):
            failures.append(f"ratios: expected {_braced(set(entry.expected_ratios))}, got {_braced(obs['ratios'])}")
        if not _match_scores(obs["scores"], entry.expected_scores):
            score = "{:.5f}".format
            failures.append(
                f"scores: expected {_braced(set(entry.expected_scores), score)}, "
                f"got {_braced(obs['scores'], score)}"
            )
        if entry.assert_classes and obs["classes"] != entry.expected_classes:
            failures.append(f"classes: expected {entry.expected_classes}, got {obs['classes']}")
    return failures


def run_entry(entry: CatalogueEntry, budget: float | None = None) -> EntryResult:
    started = time.monotonic()
    try:
        if entry.kind == "family":
            observed = _observe_family(entry.family_q)
        else:
            observed = _observe_search(entry.named, budget)
        failures = _mismatches(entry, observed)
    except TimeBudgetExceeded as exc:
        observed, failures = {}, [f"budget: {exc}"]
    except IngletonError as exc:
        observed, failures = {}, [f"error: {exc}"]
    return EntryResult(entry, not failures, failures, observed, time.monotonic() - started)


def run_catalogue(subset: str, stream, budget: float | None = None):
    """Run a catalogue subset, print observed vs expected, return overall pass."""
    entries = SUBSETS.get(subset)
    if entries is None:
        raise IngletonError(f"unknown subset {subset!r}; choose from {', '.join(SUBSETS)}")
    SearchOptions(time_budget=budget)  # rejects a NaN budget before any entry runs
    all_passed = True
    results = []
    stream.write(f"catalogue subset: {subset} ({len(entries)} entries)\n")
    for entry in entries:
        result = run_entry(entry, budget=budget)
        results.append(result)
        all_passed &= result.passed
        status = "PASS" if result.passed else "FAIL"
        obs = result.observed
        detail = f"order={obs.get('order', '?')}"
        if entry.kind == "negative":
            detail += f" classes={obs.get('classes', '?')} (expected 0)"
        elif entry.kind == "family":
            detail += f" ratio={next(iter(obs.get('ratios', {'?'})))} clauses_ok={obs.get('clauses_passed')}"
        else:
            detail += (
                f" indomitable={obs.get('classes', '?')}"
                + (f" (published {entry.expected_classes})" if entry.expected_classes else "")
                + f" generative={obs.get('generative_classes', '?')}"
                + f" ratios={_braced(obs.get('ratios', ()))}"
            )
        stream.write(f"{status} {entry.name}: {detail} [{result.elapsed:.1f}s]\n")
        if not result.passed:
            stream.write(f"     first mismatch: {result.failures[0]}\n")
    stream.write(("all entries passed\n") if all_passed else ("FAILURES present\n"))
    return all_passed, results
