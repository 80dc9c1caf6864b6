"""Exhaustive, pruned, symmetry-broken enumeration of offender quadruples.

Enumeration order: H1 runs over conjugacy-class representatives of the
subgroup lattice (simultaneous conjugation is a symmetry of the class
definition), H2 over subgroups meeting H1 nontrivially, H3 over subgroups
meeting both, and H4 innermost over indices >= H3's (the H3<->H4 swap is also
a symmetry).  Every pruning filter implements a proven exclusion criterion,
so disabling filters changes runtime, never results; full canonicalization
happens only on hits, which are rare.

Each role criterion depends on one subgroup and each pair criterion on two
subgroups and the order of their meet, so all of them are decided once, up
front, as bitmasks over subgroup indices.  Role masks: ``h12_mask`` leaves out
cyclic and normal subgroups, ``h34_mask`` prime-power cyclic ones.  Partner
masks: ``apart[i]`` holds every j where neither of Hi, Hj contains the other,
and ``meets[i]`` the members of ``apart[i]`` that meet Hi nontrivially.  The
loops walk intersections of these masks; a disabled filter leaves its mask
full.  What stays in the loops is the join-order test of ``product-h1h2``
once per (H1, H2), and per H4 candidate the factorized-H12 test and one
integer comparison over tabulated intersection orders.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass, replace

from .engine import IngletonReport, Quadruple, evaluate
from .errors import BadParams, TimeBudgetExceeded
from .groups import GroupTable, generating_set
from .subgroups import (
    DEFAULT_SUBGROUP_CAP,
    Subgroup,
    all_subgroups,
    conjugate_bits,
    is_cyclic,
    is_normal,
    is_prime_power,
    join_bits,
    subgroup_conjugacy_classes,
)

FILTER_NONCYCLIC_H1H2 = "noncyclic-h1h2"
FILTER_NONTRIVIAL_MEETS = "nontrivial-meets"
FILTER_NO_CONTAINMENT = "no-containment"
FILTER_PRODUCT_H1H2 = "product-h1h2"
FILTER_H3H4_PRIME_POWER = "h3h4-not-prime-power-cyclic"
FILTER_FACTORIZED_H12 = "factorized-h12"

ALL_FILTERS = (
    FILTER_NONCYCLIC_H1H2,
    FILTER_NONTRIVIAL_MEETS,
    FILTER_NO_CONTAINMENT,
    FILTER_PRODUCT_H1H2,
    FILTER_H3H4_PRIME_POWER,
    FILTER_FACTORIZED_H12,
)

# Classification levels a search can require of the classes it keeps, weakest
# first; each names the IngletonReport flag that decides it.
REQUIRE_LEVELS = ("generative", "irreducible", "indomitable")
DEFAULT_TIME_BUDGET = 1800.0


@dataclass(frozen=True)
class SearchOptions:
    require: str = "generative"
    minimal_mode: bool = False
    disable_filters: tuple[str, ...] = ()
    max_subgroups: int = DEFAULT_SUBGROUP_CAP
    time_budget: float | None = DEFAULT_TIME_BUDGET

    def __post_init__(self):
        if self.require not in REQUIRE_LEVELS:
            raise BadParams(
                f"unknown require level {self.require!r}; known: {', '.join(REQUIRE_LEVELS)}"
            )
        unknown = set(self.disable_filters) - set(ALL_FILTERS) - {"all"}
        if unknown:
            raise BadParams(
                f"unknown filter name(s) {sorted(unknown)}; known: {', '.join(ALL_FILTERS)}"
            )

    def filter_enabled(self, name: str) -> bool:
        return "all" not in self.disable_filters and name not in self.disable_filters


@dataclass(frozen=True)
class OffenderClass:
    """One orbit of offender quadruples under conjugation and both role swaps."""

    representative: Quadruple
    size: int
    report: IngletonReport

    @property
    def key(self) -> tuple[int, int, int, int]:
        return self.representative.bits_tuple()


def _orbit_of(G: GroupTable, tup: tuple[int, int, int, int]):
    """All quadruple bit-tuples reachable by conjugation and the two swaps."""
    orbit = set()
    for g in range(G.n):
        c1, c2, c3, c4 = (conjugate_bits(G, b, g) for b in tup)
        orbit.add((c1, c2, c3, c4))
        orbit.add((c2, c1, c3, c4))
        orbit.add((c1, c2, c4, c3))
        orbit.add((c2, c1, c4, c3))
    return orbit


def canonical_class(Q: Quadruple) -> Quadruple:
    """Lexicographically least member of Q's orbit; idempotent by construction."""
    G = Q.group
    best = min(_orbit_of(G, Q.bits_tuple()))
    return Quadruple(*(Subgroup(G, b) for b in best))


def minimal_constraints(Q: Quadruple) -> bool:
    """Generation constraints every offender in a minimal violator satisfies:
    <Hi,Hj> = G for all pairs, and <Hk,Hij> = G whenever {i,j} != {3,4}."""
    G = Q.group
    full = (1 << G.n) - 1
    subs = Q.subs
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    for i, j in pairs:
        if join_bits(G, subs[i].bits, subs[j].gens, base_gens=subs[i].gens) != full:
            return False
    for i, j in pairs:
        if (i, j) == (2, 3):
            continue
        meet_gens = generating_set(G, subs[i].bits & subs[j].bits)
        for k in range(4):
            if k in (i, j):
                continue
            if join_bits(G, subs[k].bits, meet_gens, base_gens=subs[k].gens) != full:
                return False
    return True


def search_offenders(G: GroupTable, opts: SearchOptions | None = None) -> list[OffenderClass]:
    """All offender classes of G under the documented symmetry and options.

    Deterministic: repeated runs produce identical class lists.  Raises
    OrderCapExceeded on lattice explosion and TimeBudgetExceeded (carrying
    the classes found so far) when the wall-clock budget runs out.
    """
    if opts is None:
        opts = SearchOptions()
    G.require_dense()
    started = time.monotonic()
    deadline = None if opts.time_budget is None else started + opts.time_budget

    subs = all_subgroups(G, opts.max_subgroups)
    S = len(subs)
    bits = [s.bits for s in subs]
    orders = [s.order for s in subs]
    index_of = {s.bits: i for i, s in enumerate(subs)}

    f_noncyc = opts.filter_enabled(FILTER_NONCYCLIC_H1H2)
    f_meets = opts.filter_enabled(FILTER_NONTRIVIAL_MEETS)
    f_contain = opts.filter_enabled(FILTER_NO_CONTAINMENT)
    f_product = opts.filter_enabled(FILTER_PRODUCT_H1H2)
    f_ppc = opts.filter_enabled(FILTER_H3H4_PRIME_POWER)
    f_fact = opts.filter_enabled(FILTER_FACTORIZED_H12)

    cyclic = [is_cyclic(s) for s in subs]
    normal = [is_normal(G, s) for s in subs]

    # role and partner masks (see the module docstring), and the pairwise
    # intersection orders the Ingleton comparison reads
    itab = [array("i", bytes(4 * S)) for _ in range(S)]
    h12_mask = h34_mask = 0
    apart = [0] * S  # apart[i]: neither of Hi, Hj contains the other
    meets = [0] * S  # meets[i]: members of apart[i] meeting Hi nontrivially
    for i in range(S):
        bi, oi = bits[i], orders[i]
        if not (f_noncyc and cyclic[i]) and not (f_product and normal[i]):
            h12_mask |= 1 << i
        if not (f_ppc and cyclic[i] and is_prime_power(oi)):
            h34_mask |= 1 << i
        row = itab[i]
        for j in range(i + 1):
            m = (bi & bits[j]).bit_count()
            row[j] = itab[j][i] = m
            if f_contain and (m == oi or m == orders[j]):
                continue
            apart[i] |= 1 << j
            apart[j] |= 1 << i
            if m > 1 or not f_meets:
                meets[i] |= 1 << j
                meets[j] |= 1 << i

    order_sorted = sorted(range(S), key=lambda i: (orders[i], bits[i]))

    def smallest_superset_order(u: int) -> int:
        for j in order_sorted:
            if u & bits[j] == u:
                return orders[j]
        raise AssertionError("no subgroup contains the union")

    classes = subgroup_conjugacy_classes(G, subs)
    h1_reps = [index_of[cls[0].bits] for cls in classes]

    seen: set[tuple[int, int, int, int]] = set()
    found: list[OffenderClass] = []
    level = REQUIRE_LEVELS.index(opts.require)

    def handle_hit(i1, i2, i3, i4):
        raw = (bits[i1], bits[i2], bits[i3], bits[i4])
        if raw in seen:
            return
        orbit = _orbit_of(G, raw)
        seen.update(orbit)
        canon = min(orbit)
        rep = Quadruple(*(Subgroup(G, b) for b in canon))
        report = evaluate(
            rep,
            with_generative=True,
            with_irreducible=level >= 1,
            with_indomitable=level >= 2,
        )
        # each level implies the ones before it, so its own flag decides
        keep = getattr(report, opts.require)
        if keep and opts.minimal_mode:
            keep = minimal_constraints(rep)
        if keep:
            found.append(OffenderClass(rep, len(orbit), report))

    def check_budget():
        if deadline is not None and time.monotonic() > deadline:
            raise TimeBudgetExceeded(
                f"search budget of {opts.time_budget}s exhausted on group of order {G.n}",
                partial=sorted(found, key=lambda c: c.key),
            )

    for i1 in h1_reps:
        if not h12_mask >> i1 & 1:
            continue
        b1, o1, row1 = bits[i1], orders[i1], itab[i1]
        m2 = meets[i1] & h12_mask
        while m2:
            low2 = m2 & -m2
            i2 = low2.bit_length() - 1
            m2 ^= low2
            check_budget()
            b2, o2, row2 = bits[i2], orders[i2], itab[i2]
            alpha = row1[i2]
            # the join-order half of product-h1h2: H1H2 is a subgroup iff
            # |H1||H2|/|H1 ^ H2| is the order of the smallest subgroup above both
            ab = o1 * o2
            if f_product and ab // alpha == smallest_superset_order(b1 | b2):
                continue
            b12 = b1 & b2
            base34 = meets[i1] & meets[i2] & h34_mask
            m3 = base34
            while m3:
                low3 = m3 & -m3
                i3 = low3.bit_length() - 1
                m3 ^= low3
                if i3 & 63 == 0:
                    check_budget()
                b123 = b12 & bits[i3]
                d = b123.bit_count()
                lhs_part = ab * d
                rhs_part = alpha * row1[i3] * row2[i3]
                row3 = itab[i3]
                m4 = (base34 & apart[i3]) >> i3 << i3
                while m4:
                    low4 = m4 & -m4
                    i4 = low4.bit_length() - 1
                    m4 ^= low4
                    b4 = bits[i4]
                    e = (b12 & b4).bit_count()
                    if f_fact and d * e == alpha * (b123 & b4).bit_count():
                        continue
                    if lhs_part * row3[i4] * e < rhs_part * row1[i4] * row2[i4]:
                        handle_hit(i1, i2, i3, i4)
    found.sort(key=lambda c: c.key)
    return found


def oracle_options(opts: SearchOptions | None = None) -> SearchOptions:
    """The same options with every pruning filter disabled (oracle mode)."""
    if opts is None:
        opts = SearchOptions()
    return replace(opts, disable_filters=("all",))
