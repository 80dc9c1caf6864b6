"""The benchmark's workloads: seeded inputs, one timed operation each, and the
correctness gate that every operation passes outside the timed phase.

The names imported from ``ingleton`` below are the ones the timed operations
look up, so the tracer wraps them here (see ``TRACED``) exactly as it wraps
the names the package's own modules look up.
"""

from __future__ import annotations

import io
import json
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from ingleton import catalogue
from ingleton.constructions import expand_named, supersoluble_family, verify_family
from ingleton.engine import evaluate
from ingleton.groups import PermutationGenerators, build_group, format_word, parse_word, perm_spec
from ingleton.records import class_record, read_records, summary_record, verify_record, write_records
from ingleton.search import SearchOptions, search_offenders

HERE = Path(__file__).resolve().parent
CORPUS_FILES = ("alt6.jsonl", "gl25.jsonl", "a4wr2.jsonl", "psl27_example.jsonl")
FAMILY_QS = (7, 11, 13)
CONJUGATOR_LENGTH = 6
# A search past this budget fails (and is counted) instead of running past
# the benchmark's own time limit.
SEARCH_BUDGET_S = 120.0

# (caller module, name it looks up, span, count the result's length, optional)
# ``__name__`` is this module.  ``_orbit_of`` is the one private name: when it
# is renamed its spans are skipped with a warning.
TRACED = (
    (__name__, "build_group", "groups.build", False, False),
    ("ingleton.records", "build_group", "groups.build", False, False),
    ("ingleton.constructions", "build_group", "groups.build", False, False),
    ("ingleton.engine", "quotient_by_bits", "groups.quotient", False, False),
    ("ingleton.search", "all_subgroups", "subgroups.lattice", True, False),
    ("ingleton.subgroups", "cyclic_atoms", "subgroups.atoms", True, False),
    ("ingleton.subgroups", "join_bits", "subgroups.join", False, False),
    ("ingleton.search", "join_bits", "subgroups.join", False, False),
    ("ingleton.engine", "join_bits", "subgroups.join", False, False),
    ("ingleton.search", "subgroup_conjugacy_classes", "subgroups.classes", True, False),
    ("ingleton.engine", "normal_subgroups", "subgroups.normal", False, False),
    ("ingleton.search", "is_normal", "subgroups.predicates", False, False),
    ("ingleton.search", "is_cyclic", "subgroups.predicates", False, False),
    (__name__, "search_offenders", "search.total", True, False),
    ("ingleton.search", "_orbit_of", "search.orbit", False, True),
    ("ingleton.search", "evaluate", "engine.evaluate", False, False),
    ("ingleton.records", "evaluate", "engine.evaluate", False, False),
    (__name__, "class_record", "records.emit", False, False),
    (__name__, "write_records", "records.emit", False, False),
    (__name__, "read_records", "records.read", False, False),
    (__name__, "verify_record", "records.verify", False, False),
    ("ingleton.records", "rebuild_quadruple", "records.rebuild", False, False),
    ("ingleton.records", "_orbit_of", "records.orbit", False, True),
    (__name__, "supersoluble_family", "constructions.family", False, False),
    (__name__, "verify_family", "constructions.family", False, False),
)


@dataclass
class Outcome:
    """What one timed operation attempted, and how much of it passed the gate.

    An operation attempts one search, or one item per record and family of
    the corpus.  ``latencies`` has the seconds of each attempt that passed:
    the search, or each verified record and family.  ``results`` counts what
    the passing attempts delivered: the offender classes of a search, or the
    verified items.  ``failures`` has one line per failure; ``wrong`` counts
    those whose result disagreed with the reference, as opposed to an
    exception or an exhausted budget.
    """

    attempted: int
    results: int = 0
    latencies: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    wrong: int = 0
    bytes_written: int = 0
    records_verified: int = 0
    family_order: int = 0

    @property
    def failed(self) -> int:
        return self.attempted - len(self.latencies)


def load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Seeded inputs


def perm_order(img) -> int:
    """Order of a permutation given as an image array: lcm of its cycle lengths."""
    seen = [False] * len(img)
    order = 1
    for start in range(len(img)):
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = img[x]
            length += 1
        if length:
            order = order * length // math.gcd(order, length)
    return order


def relabel(spec: PermutationGenerators, seed: int) -> PermutationGenerators:
    """Conjugate every generator by a seeded point permutation and shuffle
    their order: same isomorphism type, different element ids and bitsets."""
    rng = random.Random(seed)
    points = list(range(spec.degree))
    rng.shuffle(points)
    gens = []
    for g in spec.generators:
        img = [0] * spec.degree
        for i, gi in enumerate(g):
            img[points[i]] = points[gi]
        gens.append(img)
    rng.shuffle(gens)
    return perm_spec(gens, spec.degree)


def search_spec(reference: dict, seed: int) -> PermutationGenerators:
    name, params = reference["named"]
    return relabel(expand_named(name, tuple(params)), seed)


def _spec_generators(spec: dict):
    # Read the spec without ingleton.groups.spec_from_json, which cannot parse
    # the wreath2 records (the defect the corpus keeps visible).
    if spec["variant"] == "named":
        return expand_named(spec["name"], tuple(spec["params"])).generators
    if spec["variant"] == "permutation":
        return perm_spec(spec["generators"], spec["degree"]).generators
    raise ValueError(f"corpus spec variant {spec['variant']!r} is not supported")


def conjugate_words(record: dict, rng: random.Random) -> None:
    """Replace the record's quadruple by a seeded conjugate, word by word:
    every generator word w becomes c^-1 * w * c for one random word c."""
    orders = [perm_order(g) for g in _spec_generators(record["group"])]
    c = tuple(rng.randrange(len(orders)) for _ in range(CONJUGATOR_LENGTH))
    c_inv = tuple(k for k in reversed(c) for _ in range(orders[k] - 1))
    for entry in record["subgroups"]:
        entry["generators"] = [format_word(c_inv + parse_word(w) + c) for w in entry["generators"]]


def corpus_text(seed: int) -> str:
    """The checked-in corpus as one JSON-lines text, every quadruple conjugated."""
    rng = random.Random(seed)
    lines = []
    for name in CORPUS_FILES:
        for line in (HERE / "corpus" / name).read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            if record.get("type") == "offender-class":
                conjugate_words(record, rng)
            lines.append(json.dumps(record, sort_keys=True))
    return "\n".join(lines) + "\n"


def prepare(workload: str, seed: int):
    """All inputs of one run, made from the seed alone."""
    if workload == "verify-corpus":
        return corpus_text(seed)
    return search_spec(load_reference()[workload], seed)


# ---------------------------------------------------------------------------
# Timed operations


def search_once(spec: PermutationGenerators):
    """One `ingleton search`: group spec -> offender classes -> written records."""
    started = time.perf_counter()
    G = build_group(spec)
    classes = search_offenders(G, SearchOptions(time_budget=SEARCH_BUDGET_S))
    out = io.StringIO()
    write_records([class_record(c) for c in classes], out)
    write_records([summary_record(G, classes, True, time.perf_counter() - started)], out)
    return G, classes, out.getvalue()


def verify_once(text: str):
    """One `ingleton verify` over the corpus, then the three matrix families.

    Returns (kind, result or exception, start, end) per item, kind being
    "record" or the family's q, and start and end ``time.perf_counter()``
    readings.
    """
    results = []
    for record in read_records(io.StringIO(text)):
        if record.get("type") not in ("offender-class", "quadruple"):
            continue
        started = time.perf_counter()
        try:
            res = verify_record(record)
        except Exception as exc:  # counted as a failed item, never dropped
            res = exc
        results.append(("record", res, started, time.perf_counter()))
    for q in FAMILY_QS:
        started = time.perf_counter()
        try:
            res = verify_family(supersoluble_family(q), strict=False)
        except Exception as exc:
            res = exc
        results.append((q, res, started, time.perf_counter()))
    return results


# ---------------------------------------------------------------------------
# Correctness gate (run outside the timed phase)


def class_summary(classes) -> list:
    """Sorted (class size, ratio, four orders): the same under any relabeling."""
    return sorted(
        [c.size, str(c.report.ratio), [s.order for s in c.representative.subs]] for c in classes
    )


def _catalogue_entry(name: str):
    for entry in catalogue.SUBSETS["extended"]:
        if entry.name == name:
            return entry
    raise KeyError(f"catalogue has no row {name!r}")


def catalogue_problems(reference: dict, G, classes) -> list[str]:
    """Compare order, ratios and scores of the indomitable subset with the catalogue row."""
    entry = _catalogue_entry(reference["catalogue"])
    problems = []
    if G.n != entry.expected_order:
        problems.append(f"order {G.n}, catalogue {entry.expected_order}")
    reports = [
        evaluate(c.representative, with_irreducible=True, with_indomitable=True) for c in classes
    ]
    indomitable = [r for r in reports if r.indomitable]
    ratios = {r.ratio for r in indomitable}
    if ratios != set(entry.expected_ratios):
        problems.append(f"indomitable ratios {sorted(map(str, ratios))}, catalogue {entry.expected_ratios}")
    scores = {r.score for r in indomitable}
    tol = catalogue.SCORE_TOLERANCE
    close = lambda xs, ys: all(any(abs(x - y) <= tol for y in ys) for x in xs)  # noqa: E731
    if not (close(scores, entry.expected_scores) and close(entry.expected_scores, scores)):
        problems.append(f"indomitable scores {sorted(scores)}, catalogue {entry.expected_scores}")
    return problems


def check_search(reference: dict, result, seconds: float) -> Outcome:
    outcome = Outcome(attempted=1)
    if isinstance(result, Exception):
        outcome.failures.append(f"search raised {type(result).__name__}: {result}")
        return outcome
    G, classes, text = result
    outcome.bytes_written = len(text.encode("utf-8"))
    problems = []
    if class_summary(classes) != reference["summary"]:
        problems.append(f"class summary {class_summary(classes)} differs from the reference")
    if len(text.splitlines()) != len(classes) + 1:
        problems.append(f"{len(text.splitlines())} record lines written for {len(classes)} classes")
    try:
        problems += catalogue_problems(reference, G, classes)
    except Exception as exc:  # the classification itself failed on this result
        problems.append(f"catalogue check raised {type(exc).__name__}: {exc}")
    if problems:
        outcome.failures.append("; ".join(problems))
        outcome.wrong = 1
    else:
        outcome.results = len(classes)
        outcome.latencies.append(seconds)
    return outcome


def check_verify(reference: dict, results, duration) -> Outcome:
    if isinstance(results, Exception):
        outcome = Outcome(attempted=reference["records"] + len(FAMILY_QS))
        outcome.failures.append(f"corpus pass raised {type(results).__name__}: {results}")
        return outcome
    outcome = Outcome(attempted=max(len(results), reference["records"] + len(FAMILY_QS)))
    records = sum(1 for kind, *_ in results if kind == "record")
    if records != reference["records"] or len(results) != records + len(FAMILY_QS):
        outcome.failures.append(f"{records} records read, corpus has {reference['records']}")
        outcome.wrong += 1
    for i, (kind, res, start, end) in enumerate(results):
        seconds = duration(start, end)
        label = f"record {i + 1}" if kind == "record" else f"family q={kind}"
        if isinstance(res, Exception):
            outcome.failures.append(f"{label} raised {type(res).__name__}: {res}")
        elif kind == "record":
            if not res:
                outcome.records_verified += 1
                outcome.latencies.append(seconds)
            else:
                outcome.failures.append(f"{label}: {'; '.join(res)}")
                # a rebuild failure is an exception inside verify_record, not a wrong value
                outcome.wrong += not res[0].startswith("rebuild failed:")
        else:
            q = kind
            outcome.family_order = max(outcome.family_order, res.order)
            if res.all_passed and res.offender and res.order == q**3 * (q - 1):
                outcome.latencies.append(seconds)
            else:
                outcome.failures.append(f"{label}: clauses {dict(res.clauses)}")
                outcome.wrong += 1
    outcome.results = len(outcome.latencies)
    return outcome


def run_once(workload: str, inputs):
    """The timed part of one operation; exceptions are returned, not raised."""
    try:
        if workload == "verify-corpus":
            return verify_once(inputs)
        return search_once(inputs)
    except Exception as exc:  # counted as a failed operation by the gate
        return exc


def check(workload: str, reference: dict, result, seconds: float, duration) -> Outcome:
    """The gate for one operation that took ``seconds`` in the timed phase.
    ``duration(start, end)`` gives the seconds of an item within it, measured
    the same way."""
    if workload == "verify-corpus":
        return check_verify(reference, result, duration)
    return check_search(reference, result, seconds)
