"""Exhaustive, pruned, symmetry-broken enumeration of offender quadruples.

Enumeration order.  An offender class is an orbit under simultaneous
conjugation and the two role swaps, and every filter below is invariant
under them, so the loops visit one member of each orbit and may visit more.
H1 runs over conjugacy-class representatives of the subgroup lattice.  H2
runs over the subgroups meeting H1 nontrivially whose class comes no earlier
than H1's (the H1<->H2 swap), and of those over one representative of each
N_G(H1)-orbit (conjugating by N_G(H1) fixes H1).  H3 runs over the subgroups
meeting both, and H4 innermost over those no earlier than H3 in the t-order
defined below (the H3<->H4 swap).
Every pruning filter implements a proven exclusion criterion, so disabling
filters changes runtime, never results.

Conjugation permutes the lattice, and the class BFS of ``all_subgroups``
has already conjugated every subgroup by each of G's generators
(``subgroups.lattice_conjugation``).  So each generator g has a row
``conj[g]``, conj[g][i] the index of g Hi g^-1, read off those images, and
every class fact comes from these k rows, with no row per element of G: the
orbit of i under them is Hi's class, whose representative is the one the
lattice chose, and "no earlier" compares representative indices; a class of
one member is a normal subgroup.  N_G(H1) acts through the rows of the
normaliser generators the lattice kept for H1, each composed along G's BFS
tree from the generator rows on first use.  The cyclic subgroups are the
trivial one and the lattice's atoms (``subgroups.cyclic_atoms``).

Hits by orbit-stabiliser.  A hit (H1, H2, H3, H4) has H1 = r1, its class
representative, and rep(H2) = r2 >= r1.  The members of its orbit with r1
first are the N_G(r1)-orbit O1 of the triples (H2, H3, H4) and
(H2, H4, H3), and, when H2 is in r1's class (r2 = r1), also of the swapped
member v (H2, H1, H3, H4) and its H3<->H4 swap, where v conjugates H2 to r1
along a BFS tree of the class.  The loops reach no other member: one with
r2 > r1 first has its second role in r1's class, which comes earlier.  So
``seen`` holds the triples of O1 only, and only while H1 is r1.  Each
conjugate of r1 leads as many members as r1, so the class size is
|class(r1)| |O1|, and twice that when H2's class is another one: the
H1<->H2 swap maps the members led by r1's class onto those led by H2's.
The key is the least member by bitset tuple.  Its first role is X, the
least-bitset subgroup of the two classes, found once per class, and its
members with X first are those with X's representative first, conjugated
onto X along the class tree: O1 when X is in r1's class, and otherwise the
N_G(r2)-orbit of v (H2, H1, H3, H4) and its H3<->H4 swap, v conjugating H2
to r2.  The four subgroups generate G iff G alone lies above all of them,
which three ANDs of the ``above`` masks decide.

Each role criterion depends on one subgroup and each pair criterion on two
subgroups and the order of their meet, so all of them are decided once, up
front, as bitmasks over subgroup indices.  Role masks: ``h12_mask`` leaves out
cyclic and normal subgroups, ``h34_mask`` prime-power cyclic ones.  Partner
masks: ``apart[i]`` holds every j where neither of Hi, Hj contains the other,
and ``meets[i]`` the members of ``apart[i]`` that meet Hi nontrivially.  The
loops walk intersections of these masks; a disabled filter leaves its mask
full.  ``_pair_tables`` builds them without visiting a pair: ``has[x]``,
the mask of the subgroups holding element x, transposes the lattice once;
the AND of ``has`` over Hi's generators is the set ``above`` Hi, and that
set transposed the set below.  In place of a table of intersection orders,
``levels[i]`` holds, for each order w > 1 of a subgroup of Hi, ascending,
the mask ``ge`` of the k with |Hi ^ Hk| >= w.  It is the OR of the sets
above K over the K <= Hi with |K| >= w: Hi ^ Hk is such a K, and a k above
such a K meets Hi in at least |K| elements.  Walking Hi's subgroups by
falling order builds every level of Hi at one OR per containment pair.  The
first level of Hi is the set meeting it, as a nontrivial meet has at least
its least order.  What stays in the loops is the
join-order test of ``product-h1h2`` once per (H1, H2), which only looks at
the subgroups of order |H1H2|.

The Ingleton comparison is factored through product-set sizes.  A quadruple
offends iff |H1||H2||H34||H123||H124| < |H12||H13||H14||H23||H24|; dividing
by |H12||H123||H124| gives

    P |H34| < t3 t4,   P = |H1||H2| / |H12| = |H1H2|,
                       tk = |H1k||H2k| / |H12k| = |H1k H2k|,

exact integers because H1k ^ H2k = H12k.  No t is computed per candidate.
Every factor of tk is an intersection order with a lattice member (H1, H2
and H12 = H1 ^ H2 are all in the lattice), and ``_bands`` turns ``levels[i]``
into the bands of Hi: one mask per order w of a subgroup of Hi, 1 included,
holding exactly the k with |Hi ^ Hk| = w.  ``_offending_h4`` ANDs the bands
of H1, H2 and H12 over the H3/H4 candidates, nested and pruned at each empty
mask; each nonempty meet of bands w1, w2, w12 is a set of candidates with
t = w1 w2 / w12, and those sets, merged by t, are the buckets ``by_t``.  The
mask "t above v" is an OR of buckets, built on first use per v.

The H3<->H4 swap is broken by t.  The t-order ranks the candidates by
falling t, ties by index, and the pair (H3, H4) is visited only with H4 no
earlier than H3: t4 < t3, or t4 = t3 and i4 >= i3.  It is a total order, so
each unordered pair is visited exactly once, and the swap is a symmetry of
the inequality and of every mask, so the other way round finds nothing new.
An offending pair has t3 t4 > P |H34| >= P, so t4 <= t3 gives t3^2 > P: H3
is walked bucket by bucket, and a bucket is visited only if t3 > isqrt(P).  For
integers, P w < t3 t4 iff t4 > P w // t3, so the offending H4 of an H3 are
set algebra on these masks:

- its H4 mask starts as the candidates in ``apart[i3]`` with
  P // t3 < t4 < t3, and those of its own bucket from i3 up, which is exact
  for |H34| = 1;
- for each level (w, ge) of H3, ascending, the members of ``ge`` keep only
  those with t4 > P w // t3.

An H4 with |H34| = w is in the ``ge`` of every level up to w and of none
above, and the thresholds rise with w, so the last threshold applied to it is
its own: the mask left is exactly the offending H4, and each of its bits goes
to hit handling with no comparison.  The ``ge`` masks shrink as w rises, so
the walk stops at the first one that misses the mask.  This rule is the
comparison rearranged, not a filter, so oracle mode (every filter off) runs
the same kernel.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from functools import cache, reduce
from operator import and_

from .engine import IngletonReport, Quadruple, evaluate
from .errors import BadParams, TimeBudgetExceeded
from .groups import GroupTable, bits_to_ids, generating_set
from .subgroups import (
    DEFAULT_SUBGROUP_CAP,
    Subgroup,
    all_subgroups,
    cyclic_atoms,
    is_prime_power,
    join_bits,
    lattice_conjugation,
    membership_masks,
    # not called here, but perfbench/workloads.py wraps these by this module's name
    is_cyclic,
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
        if self.time_budget is not None and math.isnan(self.time_budget):
            raise BadParams("time budget is NaN; give seconds, 0 or inf")
        if self.time_budget is not None and self.time_budget < 0:
            raise BadParams(f"time budget {self.time_budget:g} is negative; give seconds, 0 or inf")

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


class _ConjugationRows(dict):
    """``rows[x][i]``: the lattice index of x Hi x^-1, for an element x of G.

    The rows of G's distinct generators are read off the images that
    ``lattice_conjugation`` keeps, ``index_of`` mapping each bitset of the
    lattice to its index.  Any other row is composed along G's BFS tree on
    first use and kept: for e_y = e_p g, y Hi y^-1 = p (g Hi g^-1) p^-1, so
    row y is row p read at row g.
    """

    def __init__(self, G: GroupTable, index_of: dict[int, int]):
        super().__init__()
        self.G = G
        gens, images, _ = lattice_conjugation(G)
        self[0] = tuple(range(len(index_of)))
        for k, g in enumerate(gens):
            self[g] = tuple([index_of[images[b][k]] for b in index_of])
        self.generators = [self[g] for g in gens]

    def __missing__(self, x: int) -> tuple[int, ...]:
        G = self.G
        mt, gen_ids = G.mul_table, G.gen_ids
        p, row = 0, self[0]
        for k in G.word(x):
            g = gen_ids[k]
            p = mt[p][g]
            if p not in self:
                self[p] = tuple(map(row.__getitem__, self[g]))
            row = self[p]
        return row


def _orbit(start: list[int], rows, marks: bytearray) -> list[int]:
    """``start`` extended by the indices reachable from it through ``rows``,
    each marked in ``marks`` as it is found; ``start`` is marked by the
    caller."""
    for i in start:
        for row in rows:
            j = row[i]
            if not marks[j]:
                marks[j] = 1
                start.append(j)
    return start


def _triple_orbit(starts, rows, S: int):
    """The orbit of the index triples ``starts`` under the conjugation
    ``rows``, by a BFS: ``(triples, packed)``, the triples in the order found
    and the set of them packed as (a S + b) S + c."""
    triples, packed = [], set()
    for a, b, c in starts:
        p = (a * S + b) * S + c
        if p not in packed:
            packed.add(p)
            triples.append((a, b, c))
    for a, b, c in triples:
        for row in rows:
            x, y, z = row[a], row[b], row[c]
            p = (x * S + y) * S + z
            if p not in packed:
                packed.add(p)
                triples.append((x, y, z))
    return triples, packed


def _pair_tables(subs: list[Subgroup], has: list[int], f_contain, f_meets):
    """The partner masks, intersection levels and upper sets of the lattice
    ``subs``: ``(apart, meets, levels, above)``.

    ``apart[i]`` holds every j where neither of Hi, Hj contains the other (all
    j with ``f_contain`` off), and ``meets[i]`` the members of ``apart[i]``
    that meet Hi nontrivially (all of ``apart[i]`` with ``f_meets`` off).
    ``levels[i]`` has one ``(w, ge)`` per order w > 1 of a subgroup of Hi,
    ascending, where ``ge`` is the mask of the k with |Hi ^ Hk| >= w.
    ``above[i]`` is the mask of the subgroups containing Hi.  ``has`` is
    ``membership_masks`` of the lattice, which is sorted by order.  The
    module docstring says how the tables are built.
    """
    S = len(subs)
    full = (1 << S) - 1
    orders = [s.order for s in subs]
    above = [reduce(and_, map(has.__getitem__, s.gens), full) for s in subs]
    below = [0] * S  # below[i]: the subgroups inside Hi, above transposed
    for j, a in enumerate(above):
        low = 1 << j
        for i in bits_to_ids(a):
            below[i] |= low
    levels = []
    for b in below:
        # walk the subgroups K of Hi by falling order: after the last K of
        # order w, ``ge`` is the OR of above[K] over all |K| >= w
        ks = bits_to_ids(b)  # ks[0] == 0, the trivial subgroup
        level, ge = [], 0
        for j in range(len(ks) - 1, 0, -1):
            k = ks[j]
            ge |= above[k]
            if orders[ks[j - 1]] != orders[k]:
                level.append((orders[k], ge))
        level.reverse()
        levels.append(level)
    if f_contain:
        apart = [full & ~(a | b) for a, b in zip(above, below)]
    else:
        apart = [full] * S
    if not f_meets:
        return apart, apart, levels, above
    # a nontrivial Hi ^ Hk has at least the least order w > 1 of a subgroup of
    # Hi, so the first level of Hi is the set meeting it; the trivial Hi has
    # no level and meets nothing
    meets = [a & level[0][1] if level else 0 for a, level in zip(apart, levels)]
    return apart, meets, levels, above


def _bands(level, full: int):
    """The intersection bands of Hi from its ``level`` (``levels[i]``) in a
    lattice whose mask is ``full``.

    One ``(w, mask)`` per order w of a subgroup of Hi, 1 included, ascending,
    where ``mask`` holds exactly the k with |Hi ^ Hk| == w; the masks
    partition the lattice.  An intersection order is the order of a subgroup
    of Hi, so the band of w is the ``ge`` of its level less the ``ge`` of the
    next, and the band of 1 is what the first ``ge`` leaves out.
    """
    band, w0, ge0 = [], 1, full
    for w, ge in level:
        band.append((w0, ge0 & ~ge))
        w0, ge0 = w, ge
    band.append((w0, ge0))
    return band


class _TAbove(dict):
    """``t_above[v]``: the OR of the buckets of ``by_t`` with t > v, built on
    first use."""

    def __init__(self, by_t: dict[int, int]):
        super().__init__()
        self.by_t = by_t

    def __missing__(self, v: int) -> int:
        mask = 0
        for tk, mk in self.by_t.items():
            if tk > v:
                mask |= mk
        self[v] = mask
        return mask


def _offending_h4(P: int, cands: int, bands1, bands2, bands12, apart: list[int], levels):
    """Yield ``(i3, m4)`` for each H3 with an offending H4, for the (H1, H2)
    whose bands are ``bands1`` and ``bands2``, with H12 = H1 ^ H2's ``bands12``.

    ``P`` is |H1H2| and ``cands`` the mask of the H3/H4 candidates; ``m4``
    is exactly the mask of the H4 in ``apart[i3]`` that make (H1, H2, H3, H4)
    offend and have t4 < t3, or t4 == t3 and i4 >= i3.  The module docstring
    gives the rule.
    """
    # the candidates bucketed by t: tk = |H1k||H2k| / |H12k| is one value on
    # each meet of a band of H1, one of H2 and one of H12
    by_t: dict[int, int] = {}
    for w1, m1 in bands1:
        a = cands & m1
        if not a:
            continue
        for w2, m2 in bands2:
            b = a & m2
            if not b:
                continue
            for w12, m12 in bands12:
                c = b & m12
                if c:
                    tk = w1 * w2 // w12
                    by_t[tk] = by_t.get(tk, 0) | c
    t_above = _TAbove(by_t)
    root = math.isqrt(P)
    for t3, bucket in by_t.items():
        if t3 <= root:  # t3 * t3 <= P: no partner with t4 <= t3
            continue
        below = t_above[P // t3] & ~t_above[t3] & ~bucket  # P // t3 < t4 < t3
        m3 = bucket
        while m3:
            low3 = m3 & -m3
            i3 = low3.bit_length() - 1
            m4 = (below | m3) & apart[i3]  # m3 holds the bucket from i3 up
            m3 ^= low3
            for w, ge in levels[i3]:
                if not m4 & ge:
                    break
                m4 &= ~ge | t_above[P * w // t3]
            if m4:
                yield i3, m4


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

    subs = all_subgroups(G, opts.max_subgroups, deadline)
    check_budget()
    S = len(subs)
    bits = [s.bits for s in subs]
    orders = [s.order for s in subs]

    index_of = {b: i for i, b in enumerate(bits)}
    conj = _ConjugationRows(G, index_of)
    gen_rows = conj.generators
    # the classes, as orbits of the generator rows: rep[i] is the index of
    # the representative the lattice chose for Hi's class, and class_size[i]
    # the class size at a representative and 0 elsewhere, so
    # class_size[i] == 1 iff Hi is normal
    rep, class_size = [-1] * S, [0] * S
    in_class = bytearray(S)
    normalisers = lattice_conjugation(G)[2]
    for b in normalisers:
        r = index_of[b]
        in_class[r] = 1
        cls = _orbit([r], gen_rows, in_class)
        class_size[r] = len(cls)
        for i in cls:
            rep[i] = r

    f_noncyc = opts.filter_enabled(FILTER_NONCYCLIC_H1H2)
    f_meets = opts.filter_enabled(FILTER_NONTRIVIAL_MEETS)
    f_contain = opts.filter_enabled(FILTER_NO_CONTAINMENT)
    f_product = opts.filter_enabled(FILTER_PRODUCT_H1H2)
    f_ppc = opts.filter_enabled(FILTER_H3H4_PRIME_POWER)

    # the cyclic subgroups are the trivial one and the atoms
    atoms = {b for b, _, _ in cyclic_atoms(G)}
    cyclic = [b == 1 or b in atoms for b in bits]

    # role masks (see the module docstring); the partner masks and the
    # intersection levels come from _pair_tables
    h12_mask = h34_mask = 0
    for i in range(S):
        if not (f_noncyc and cyclic[i]) and not (f_product and class_size[i] == 1):
            h12_mask |= 1 << i
        if not (f_ppc and cyclic[i] and is_prime_power(orders[i])):
            h34_mask |= 1 << i
    apart, meets, levels, above = _pair_tables(subs, membership_masks(G.n, bits), f_contain, f_meets)

    @cache
    def bands(i):
        """The bands of Hi, built on first use: few subgroups are an H1, H2
        or H12 of a pair the loops reach."""
        return _bands(levels[i], (1 << S) - 1)

    # the subgroups of each order, for the join-order test of product-h1h2
    of_order: dict[int, list[int]] = {}
    for b, o in zip(bits, orders):
        of_order.setdefault(o, []).append(b)
    check_budget()

    level = REQUIRE_LEVELS.index(opts.require)
    top = 1 << (S - 1)  # G, last in the lattice sorted by order
    # inverse_rows[k] undoes gen_rows[k]
    inverse_rows = []
    for row in gen_rows:
        inverse = [0] * S
        for i, j in enumerate(row):
            inverse[j] = i
        inverse_rows.append(inverse)

    @cache
    def paths(r):
        """A BFS tree of the class of representative r over the generator
        rows: ``paths(r)[y]`` holds the k with which applying gen_rows[k] in
        turn takes r to y."""
        tree, queue = {r: ()}, [r]
        for y in queue:
            for k, row in enumerate(gen_rows):
                z = row[y]
                if z not in tree:
                    tree[z] = tree[y] + (k,)
                    queue.append(z)
        return tree

    @cache
    def least(r):
        """The least-bitset member of the class of representative r: the
        least index, as a class keeps one order."""
        return min(paths(r))

    @cache
    def normaliser_rows(r):
        """The rows of the generators of N_G(Hr), for a representative r."""
        return [conj[x] for x in normalisers[bits[r]]]

    seen: set[int] = set()  # the triples (H2, H3, H4) of the hits' orbit members with the loop's H1

    def handle_hit(i1, i2, i3, i4):
        if (i2 * S + i3) * S + i4 in seen:
            return
        # the swapped member (H2, H1, H3, H4) conjugated so that H2 becomes
        # its representative r2: its last three roles, both ways round
        r2 = rep[i2]
        w1, w3, w4 = i1, i3, i4
        for k in reversed(paths(r2)[i2]):
            row = inverse_rows[k]
            w1, w3, w4 = row[w1], row[w3], row[w4]
        swapped = [(w1, w3, w4), (w1, w4, w3)]
        # the members with i1 first, the only ones the loops reach: the
        # N_G(H1)-orbit of the hit and its H3<->H4 swap, and of the swapped
        # member when H2 is in H1's class
        starts = [(i2, i3, i4), (i2, i4, i3)]
        if r2 == i1:
            starts += swapped
        members, packed = _triple_orbit(starts, normaliser_rows(i1), S)
        seen.update(packed)
        # each conjugate of H1 leads as many members; if H2 is not one of
        # them, the H1<->H2 swap maps those onto the members H2's class leads
        size = class_size[i1] * len(members) * (1 if r2 == i1 else 2)
        # the key starts with the least-bitset first role x, and its members
        # are those with x's representative first, conjugated onto x
        x = least(i1)
        if bits[least(r2)] < bits[x]:
            x = least(r2)
            members = _triple_orbit(swapped, normaliser_rows(r2), S)[0]
        for k in paths(rep[x])[x]:
            row = gen_rows[k]
            members = [(row[a], row[b], row[c]) for a, b, c in members]
        key = (bits[x],) + min((bits[a], bits[b], bits[c]) for a, b, c in members)
        quad = Quadruple(*(Subgroup(G, b) for b in key))
        report = evaluate(
            quad,
            with_generative=True,
            with_irreducible=level >= 1,
            with_indomitable=level >= 2,
            # the subgroups above all four are G alone iff they generate G
            generative=above[i1] & above[i2] & above[i3] & above[i4] == top,
        )
        # each level implies the ones before it, so its own flag decides
        keep = getattr(report, opts.require)
        if keep and opts.minimal_mode:
            keep = minimal_constraints(quad)
        if keep:
            found.append(OffenderClass(quad, size, report))

    for i1 in range(S):
        if rep[i1] != i1 or not h12_mask >> i1 & 1:
            continue
        b1, o1 = bits[i1], orders[i1]
        stab = normaliser_rows(i1)  # generators of N_G(H1), acting on indices
        seen.clear()  # a hit's members with H1 first come only in this pass
        visited = bytearray(S)  # H2 candidates in the N_G(H1)-orbit of a visited one
        for i2 in bits_to_ids(meets[i1] & h12_mask):
            if rep[i2] < i1 or visited[i2]:  # H2's class comes before H1's
                continue
            visited[i2] = 1
            _orbit([i2], stab, visited)
            check_budget()
            b2 = bits[i2]
            i12 = index_of[b1 & b2]
            P = o1 * orders[i2] // orders[i12]  # |H1H2|
            # the join-order half of product-h1h2: every subgroup above H1 and
            # H2 holds the P elements of H1H2, so H1H2 is a subgroup iff a
            # subgroup of order P contains both
            u = b1 | b2
            if f_product and any(u & b == u for b in of_order.get(P, ())):
                continue
            cands = meets[i1] & meets[i2] & h34_mask
            for i3, m4 in _offending_h4(P, cands, bands(i1), bands(i2), bands(i12), apart, levels):
                while m4:
                    low4 = m4 & -m4
                    m4 ^= low4
                    handle_hit(i1, i2, i3, low4.bit_length() - 1)
    found.sort(key=lambda c: c.key)
    return found


def oracle_options(opts: SearchOptions | None = None) -> SearchOptions:
    """The same options with every pruning filter disabled (oracle mode)."""
    if opts is None:
        opts = SearchOptions()
    return replace(opts, disable_filters=("all",))
