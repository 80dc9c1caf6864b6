"""Exhaustive, pruned, symmetry-broken enumeration of offender quadruples.

Enumeration order.  An offender class is an orbit under simultaneous
conjugation and the two role swaps, and every filter below is invariant
under them, so the loops visit one member of each orbit and may visit more.
H1 runs over conjugacy-class representatives of the subgroup lattice.  H2
runs over the subgroups meeting H1 nontrivially whose class comes no earlier
than H1's (the H1<->H2 swap), and of those over one representative of each
N_G(H1)-orbit (conjugating by N_G(H1) fixes H1).  H3 runs over the subgroups
meeting both, and H4 innermost over indices >= H3's (the H3<->H4 swap).
Every pruning filter implements a proven exclusion criterion, so disabling
filters changes runtime, never results.

Conjugation permutes the lattice, so ``subgroups.conjugation_table`` gives
``conj[g][i]``, the index of g Hi g^-1, and every class fact comes from it:
the orbit of i is Hi's class, with its least index as representative, a
class of one member is a normal subgroup, and H1's stabiliser is N_G(H1).  A
hit's orbit costs four array reads per element; ``seen`` holds every member
of each orbit found, as the packed index ((i1 S + i2) S + i3) S + i4, and
the class representative is the least member by bitset tuple.

Each role criterion depends on one subgroup and each pair criterion on two
subgroups and the order of their meet, so all of them are decided once, up
front, as bitmasks over subgroup indices.  Role masks: ``h12_mask`` leaves out
cyclic and normal subgroups, ``h34_mask`` prime-power cyclic ones.  Partner
masks: ``apart[i]`` holds every j where neither of Hi, Hj contains the other,
and ``meets[i]`` the members of ``apart[i]`` that meet Hi nontrivially.  The
loops walk intersections of these masks; a disabled filter leaves its mask
full.  What stays in the loops is the join-order test of ``product-h1h2``
once per (H1, H2), which only looks at the subgroups of order |H1H2|.

The Ingleton comparison is factored through product-set sizes.  A quadruple
offends iff |H1||H2||H34||H123||H124| < |H12||H13||H14||H23||H24|; dividing
by |H12||H123||H124| gives

    P |H34| < t3 t4,   P = |H1||H2| / |H12| = |H1H2|,
                       tk = |H1k||H2k| / |H12k| = |H1k H2k|,

exact integers because H1k ^ H2k = H12k.  H12 is in the lattice, so the row
of H12 in the table of intersection orders gives |H12k| for every k, and the
row ``t`` is computed once per (H1, H2) over the H3/H4 candidates, which are
bucketed by their t value.  Since |H34| >= 1, an H4 can offend only if
t4 > P // t3: the mask of the candidates above each distinct threshold is
built on first use and ANDed into the H4 mask, so most H4 candidates are
never visited, and an H3 is visited only if t3 > P // max(t).  Per visited H4
the comparison is two list reads.  This threshold is the comparison
rearranged, not a filter, so oracle mode (every filter off) runs the same
kernel.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass, replace

from .engine import IngletonReport, Quadruple, evaluate
from .errors import BadParams, TimeBudgetExceeded
from .groups import GroupTable, bits_to_ids, generating_set
from .subgroups import (
    DEFAULT_SUBGROUP_CAP,
    Subgroup,
    all_subgroups,
    conjugate_bits,
    conjugation_table,
    is_cyclic,
    is_prime_power,
    join_bits,
    # not called here, but perfbench/workloads.py wraps both by this module's name
    is_normal,
    subgroup_conjugacy_classes,
)

FILTER_NONCYCLIC_H1H2 = "noncyclic-h1h2"
FILTER_NONTRIVIAL_MEETS = "nontrivial-meets"
FILTER_NO_CONTAINMENT = "no-containment"
FILTER_PRODUCT_H1H2 = "product-h1h2"
FILTER_H3H4_PRIME_POWER = "h3h4-not-prime-power-cyclic"

ALL_FILTERS = (
    FILTER_NONCYCLIC_H1H2,
    FILTER_NONTRIVIAL_MEETS,
    FILTER_NO_CONTAINMENT,
    FILTER_PRODUCT_H1H2,
    FILTER_H3H4_PRIME_POWER,
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

    found: list[OffenderClass] = []

    def check_budget():
        if deadline is not None and time.monotonic() > deadline:
            raise TimeBudgetExceeded(
                f"search budget of {opts.time_budget}s exhausted on group of order {G.n}",
                partial=sorted(found, key=lambda c: c.key),
            )

    subs = all_subgroups(G, opts.max_subgroups)
    check_budget()
    S = len(subs)
    bits = [s.bits for s in subs]
    orders = [s.order for s in subs]
    index_of = {s.bits: i for i, s in enumerate(subs)}

    # the orbit of i in the table is Hi's class: rep[i], its least index, is
    # its least (order, bits) member; class_size[i] is the class size at a
    # representative and 0 elsewhere, so class_size[i] == 1 iff Hi is normal
    conj = conjugation_table(G, bits, index_of)
    rep, class_size = [-1] * S, [0] * S
    for i in range(S):
        if rep[i] < 0:
            orbit = {c[i] for c in conj}
            class_size[i] = len(orbit)
            for j in orbit:
                rep[j] = i

    f_noncyc = opts.filter_enabled(FILTER_NONCYCLIC_H1H2)
    f_meets = opts.filter_enabled(FILTER_NONTRIVIAL_MEETS)
    f_contain = opts.filter_enabled(FILTER_NO_CONTAINMENT)
    f_product = opts.filter_enabled(FILTER_PRODUCT_H1H2)
    f_ppc = opts.filter_enabled(FILTER_H3H4_PRIME_POWER)

    cyclic = [is_cyclic(s) for s in subs]

    # role and partner masks (see the module docstring), and the pairwise
    # intersection orders the Ingleton comparison reads
    itab = [array("i", bytes(4 * S)) for _ in range(S)]
    h12_mask = h34_mask = 0
    apart = [0] * S  # apart[i]: neither of Hi, Hj contains the other
    meets = [0] * S  # meets[i]: members of apart[i] meeting Hi nontrivially
    for i in range(S):
        bi, oi = bits[i], orders[i]
        if not (f_noncyc and cyclic[i]) and not (f_product and class_size[i] == 1):
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

    # the subgroups of each order, for the join-order test of product-h1h2
    of_order: dict[int, list[int]] = {}
    for b, o in zip(bits, orders):
        of_order.setdefault(o, []).append(b)
    check_budget()

    seen: set[int] = set()
    level = REQUIRE_LEVELS.index(opts.require)

    SS = S * S

    def member_bits(q):
        """The bitset tuple of the packed quadruple q."""
        q12, q34 = divmod(q, SS)
        return bits[q12 // S], bits[q12 % S], bits[q34 // S], bits[q34 % S]

    def handle_hit(i1, i2, i3, i4):
        if ((i1 * S + i2) * S + i3) * S + i4 in seen:
            return
        orbit = set()
        for c in conj:
            j1, j2, j3, j4 = c[i1], c[i2], c[i3], c[i4]
            h12, h21 = (j1 * S + j2) * SS, (j2 * S + j1) * SS
            h34, h43 = j3 * S + j4, j4 * S + j3
            orbit.update((h12 + h34, h21 + h34, h12 + h43, h21 + h43))
        seen.update(orbit)
        canon = min(map(member_bits, orbit))
        quad = Quadruple(*(Subgroup(G, b) for b in canon))
        report = evaluate(
            quad,
            with_generative=True,
            with_irreducible=level >= 1,
            with_indomitable=level >= 2,
        )
        # each level implies the ones before it, so its own flag decides
        keep = getattr(report, opts.require)
        if keep and opts.minimal_mode:
            keep = minimal_constraints(quad)
        if keep:
            found.append(OffenderClass(quad, len(orbit), report))

    for i1 in range(S):
        if rep[i1] != i1 or not h12_mask >> i1 & 1:
            continue
        b1, o1, row1 = bits[i1], orders[i1], itab[i1]
        stab = [c for c in conj if c[i1] == i1]  # N_G(H1), acting on indices
        visited = bytearray(S)  # H2 candidates in the N_G(H1)-orbit of a visited one
        for i2 in bits_to_ids(meets[i1] & h12_mask):
            if rep[i2] < i1 or visited[i2]:  # H2's class comes before H1's
                continue
            for c in stab:
                visited[c[i2]] = 1
            check_budget()
            b2, row2 = bits[i2], itab[i2]
            P = o1 * orders[i2] // row1[i2]  # |H1H2|
            # the join-order half of product-h1h2: every subgroup above H1 and
            # H2 holds the P elements of H1H2, so H1H2 is a subgroup iff a
            # subgroup of order P contains both
            u = b1 | b2
            if f_product and any(u & b == u for b in of_order.get(P, ())):
                continue
            row12 = itab[index_of[b1 & b2]]
            # t[k] = |H1k H2k|, and the H3/H4 candidates bucketed by it
            t = [0] * S
            by_t: dict[int, int] = {}
            m = meets[i1] & meets[i2] & h34_mask
            while m:
                low = m & -m
                k = low.bit_length() - 1
                m ^= low
                tk = t[k] = row1[k] * row2[k] // row12[k]
                by_t[tk] = by_t.get(tk, 0) | low
            above: dict[int, int] = {}  # v -> candidates with t > v

            def t_above(v):
                mask = above.get(v)
                if mask is None:
                    mask = 0
                    for tk, mk in by_t.items():
                        if tk > v:
                            mask |= mk
                    above[v] = mask
                return mask

            # an H3 has a partner only if t3 > P // max(t)
            m3 = t_above(P // max(by_t)) if by_t else 0
            while m3:
                low3 = m3 & -m3
                i3 = low3.bit_length() - 1
                m3 ^= low3
                t3 = t[i3]
                m4 = (t_above(P // t3) & apart[i3]) >> i3 << i3
                row3 = itab[i3]
                while m4:
                    low4 = m4 & -m4
                    i4 = low4.bit_length() - 1
                    m4 ^= low4
                    if P * row3[i4] < t3 * t[i4]:
                        handle_hit(i1, i2, i3, i4)
    found.sort(key=lambda c: c.key)
    return found


def oracle_options(opts: SearchOptions | None = None) -> SearchOptions:
    """The same options with every pruning filter disabled (oracle mode)."""
    if opts is None:
        opts = SearchOptions()
    return replace(opts, disable_filters=("all",))
