"""Exhaustive, pruned, symmetry-broken enumeration of offender quadruples.

Enumeration order: H1 runs over conjugacy-class representatives of the
subgroup lattice (simultaneous conjugation is a symmetry of the class
definition), H2 over subgroups meeting H1 nontrivially, H3 over subgroups
meeting both, and H4 innermost over indices >= H3's (the H3<->H4 swap is also
a symmetry).  Every pruning filter implements a proven exclusion criterion,
so disabling filters changes runtime, never results; full canonicalization
happens only on hits, which are rare.

All pairwise intersection orders are tabulated up front; the innermost loop
is a handful of table lookups, two bitset intersections and one integer
comparison per candidate quadruple.
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

    cyclic = [is_cyclic(s) for s in subs]
    ppc = [cyclic[i] and is_prime_power(orders[i]) for i in range(S)]
    normal = [is_normal(G, s) for s in subs]

    # pairwise intersection orders and nontrivial-meet adjacency masks
    itab = [array("i", bytes(4 * S)) for _ in range(S)]
    nontriv = [0] * S
    for i in range(S):
        bi = bits[i]
        row = itab[i]
        row[i] = orders[i]
        for j in range(i):
            m = (bi & bits[j]).bit_count()
            row[j] = m
            itab[j][i] = m
            if m > 1:
                nontriv[i] |= 1 << j
                nontriv[j] |= 1 << i
        if orders[i] > 1:
            nontriv[i] |= 1 << i

    all_mask = (1 << S) - 1
    f_noncyc = opts.filter_enabled(FILTER_NONCYCLIC_H1H2)
    f_meets = opts.filter_enabled(FILTER_NONTRIVIAL_MEETS)
    f_contain = opts.filter_enabled(FILTER_NO_CONTAINMENT)
    f_product = opts.filter_enabled(FILTER_PRODUCT_H1H2)
    f_ppc = opts.filter_enabled(FILTER_H3H4_PRIME_POWER)
    f_fact = opts.filter_enabled(FILTER_FACTORIZED_H12)

    ppc_mask = 0
    for i in range(S):
        if not ppc[i]:
            ppc_mask |= 1 << i

    order_sorted = sorted(range(S), key=lambda i: (orders[i], bits[i]))

    def smallest_superset_order(u: int) -> int:
        for j in order_sorted:
            if u & bits[j] == u:
                return orders[j]
        raise AssertionError("no subgroup contains the union")

    classes = subgroup_conjugacy_classes(G, subs)
    h1_reps = [index_of[cls[0].bits] for cls in classes]

    seen: dict[tuple[int, int, int, int], bool] = {}
    found: list[OffenderClass] = []
    level = REQUIRE_LEVELS.index(opts.require)

    def handle_hit(i1, i2, i3, i4):
        raw = (bits[i1], bits[i2], bits[i3], bits[i4])
        if raw in seen:
            return
        orbit = _orbit_of(G, raw)
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
        if keep and opts.minimal_mode and not minimal_constraints(rep):
            keep = False
        for member in orbit:
            seen[member] = keep
        if keep:
            found.append(OffenderClass(rep, len(orbit), report))

    def check_budget():
        if deadline is not None and time.monotonic() > deadline:
            raise TimeBudgetExceeded(
                f"search budget of {opts.time_budget}s exhausted on group of order {G.n}",
                partial=sorted(found, key=lambda c: c.key),
            )

    for i1 in h1_reps:
        if f_noncyc and cyclic[i1]:
            continue
        b1, o1 = bits[i1], orders[i1]
        h2_mask = (nontriv[i1] if f_meets else all_mask)
        m2 = h2_mask
        while m2:
            low2 = m2 & -m2
            i2 = low2.bit_length() - 1
            m2 ^= low2
            check_budget()
            if f_noncyc and cyclic[i2]:
                continue
            alpha = itab[i1][i2]
            if f_contain and (alpha == o1 or alpha == orders[i2]):
                continue
            b2, o2 = bits[i2], orders[i2]
            if f_product:
                if normal[i1] or normal[i2]:
                    continue
                if o1 * o2 // alpha == smallest_superset_order(b1 | b2):
                    continue
            b12 = b1 & b2
            base34 = (nontriv[i1] & nontriv[i2]) if f_meets else all_mask
            if f_ppc:
                base34 &= ppc_mask
            ab = o1 * o2
            m3 = base34
            while m3:
                low3 = m3 & -m3
                i3 = low3.bit_length() - 1
                m3 ^= low3
                if i3 & 63 == 0:
                    check_budget()
                beta = itab[i1][i3]
                delta = itab[i2][i3]
                o3 = orders[i3]
                if f_contain and (
                    beta == o1 or beta == o3 or delta == o2 or delta == o3
                ):
                    continue
                b3 = bits[i3]
                b123 = b12 & b3
                d = b123.bit_count()
                lhs_part = ab * d
                rhs_part = alpha * beta * delta
                row1, row2, row3 = itab[i1], itab[i2], itab[i3]
                m4 = base34 & ~((1 << (i3 + 1)) - 1) if f_contain else base34 & ~((1 << i3) - 1)
                while m4:
                    low4 = m4 & -m4
                    i4 = low4.bit_length() - 1
                    m4 ^= low4
                    gamma = row1[i4]
                    epsilon = row2[i4]
                    o4 = orders[i4]
                    if f_contain and (
                        gamma == o1
                        or gamma == o4
                        or epsilon == o2
                        or epsilon == o4
                        or row3[i4] == o3
                        or row3[i4] == o4
                    ):
                        continue
                    b4 = bits[i4]
                    e = (b12 & b4).bit_count()
                    if f_fact:
                        if d * e == alpha * (b123 & b4).bit_count():
                            continue
                    if lhs_part * row3[i4] * e < rhs_part * gamma * epsilon:
                        handle_hit(i1, i2, i3, i4)
    found.sort(key=lambda c: c.key)
    return found


def oracle_options(opts: SearchOptions | None = None) -> SearchOptions:
    """The same options with every pruning filter disabled (oracle mode)."""
    if opts is None:
        opts = SearchOptions()
    return replace(opts, disable_filters=("all",))
