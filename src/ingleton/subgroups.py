"""Subgroups as membership bitsets, and lattice-level operations.

A subgroup of a group of order n is an n-bit Python int with bit i set when
element i belongs to it.  Intersection is ``&``, order is ``bit_count()``,
and the bitset doubles as the canonical dedup key since element ids are
canonical per group.

The lattice is enumerated one conjugacy class at a time (Neubüser's cyclic
extension).  Conjugation commutes with joins, ``<H^g, C^g> = <H, C>^g``, so
only one representative R per class is joined with cyclic subgroups, and
only with one cyclic atom per N_G(R)-orbit: for n in N_G(R) the join
<R, C^n> is <R, C>^n, whose class is already known.  The rest of each class
comes from permuting the representative's bitset by ``G.conj_perm``, which
costs one step per member instead of a join closure.  N_G(R) comes from the
same class BFS by orbit-stabiliser, with no scan over G: the BFS keeps a
transversal and, for each edge that reaches a conjugate already found, a
Schreier element fixing R.  By Schreier's lemma these generate N_G(R), so
the atoms' N_G(R)-orbits are a BFS over R's generators and the Schreier
elements outside R.  A join (``groups.join_bits``, which also builds
generating sets) grows a union of right cosets along the Schreier graph,
about one table lookup per element of the result, and stops by Lagrange's
theorem as soon as the cosets cover more than |G|/p elements, p the least
prime factor of [G:H]: most joins of a lattice are G, and those stop about
halfway.  Normal subgroups are the joins of the normal closures of element
classes, closed in one pass.  ``conjugation_table`` then permutes lattice
indices by conjugation, reading each generator's row off
``membership_masks`` of the lattice, which must be sorted by order: its
orbits are the subgroup classes and its fixed points the normal subgroups,
which ``subgroup_conjugacy_classes`` and ``is_normal`` find independently
from bitsets.
"""

from __future__ import annotations

import time
from array import array
from functools import reduce
from operator import and_, itemgetter

from .errors import OrderCapExceeded, ParentMismatch, TimeBudgetExceeded
from .groups import GroupTable, Projection, bits_to_ids, closure_ids, generating_set, is_normal_bits, join_bits, least_prime_factor

DEFAULT_SUBGROUP_CAP = 20000


class Subgroup:
    """An enumerated subgroup; equality and hashing go by (parent, bitset)."""

    __slots__ = ("parent", "bits", "order", "_gens")

    def __init__(self, parent: GroupTable, bits: int, gens=None):
        self.parent = parent
        self.bits = bits
        self.order = bits.bit_count()
        self._gens = tuple(gens) if gens is not None else None

    @property
    def gens(self) -> tuple[int, ...]:
        if self._gens is None:
            self._gens = generating_set(self.parent, self.bits)
        return self._gens

    def member_ids(self) -> list[int]:
        return bits_to_ids(self.bits)

    def contains(self, other: "Subgroup") -> bool:
        return self.bits & other.bits == other.bits

    def __contains__(self, elem: int) -> bool:
        return bool((self.bits >> elem) & 1)

    def __eq__(self, other):
        return (
            isinstance(other, Subgroup)
            and other.parent is self.parent
            and other.bits == self.bits
        )

    def __hash__(self):
        return hash((id(self.parent), self.bits))

    def __repr__(self):
        return f"Subgroup(order={self.order} of {self.parent.n})"


def _check_same_parent(*subs: Subgroup) -> GroupTable:
    parent = subs[0].parent
    for s in subs[1:]:
        if s.parent is not parent:
            raise ParentMismatch("subgroups belong to different groups")
    return parent


def trivial_subgroup(G: GroupTable) -> Subgroup:
    return Subgroup(G, 1, ())


def generated_subgroup(G: GroupTable, elems) -> Subgroup:
    """Smallest subgroup of G containing the given element ids."""
    elems = list(elems)
    bits = closure_ids(G, elems)
    gens = tuple(dict.fromkeys(e for e in elems if e != 0))
    return Subgroup(G, bits, gens if gens else ())


def intersection(A: Subgroup, B: Subgroup) -> Subgroup:
    _check_same_parent(A, B)
    return Subgroup(A.parent, A.bits & B.bits)


def product_set_size(A: Subgroup, B: Subgroup) -> int:
    """|AB| = |A|*|B| / |A n B|, exact."""
    _check_same_parent(A, B)
    meet = (A.bits & B.bits).bit_count()
    size, rem = divmod(A.order * B.order, meet)
    assert rem == 0
    return size


def join(A: Subgroup, B: Subgroup) -> Subgroup:
    G = _check_same_parent(A, B)
    if A.order < B.order:
        A, B = B, A
    return Subgroup(G, join_bits(G, A.bits, B.gens, base_gens=A.gens), A.gens + B.gens)


def is_product_subgroup(A: Subgroup, B: Subgroup) -> bool:
    """True iff the set AB is itself a subgroup (equivalently AB = <A,B>)."""
    return product_set_size(A, B) == join(A, B).order


def is_normal(G: GroupTable, H: Subgroup) -> bool:
    if H.parent is not G:
        raise ParentMismatch("subgroup belongs to a different group")
    return is_normal_bits(G, H.bits)


def conjugate_bits(G: GroupTable, bits: int, g: int) -> int:
    """Membership bitset of g*H*g^-1 given that of H."""
    perm = G.conj_perm(g)
    out = 0
    while bits:
        low = bits & -bits
        out |= 1 << perm[low.bit_length() - 1]
        bits ^= low
    return out


def conjugate_subgroup(G: GroupTable, H: Subgroup, g: int) -> Subgroup:
    perm = G.conj_perm(g)
    return Subgroup(G, conjugate_bits(G, H.bits, g), tuple(perm[x] for x in H.gens))


def membership_masks(n: int, bits: list[int]) -> list[int]:
    """``has[x]``: the mask of the indices i with element x in ``bits[i]``."""
    has = [0] * n
    for i, b in enumerate(bits):
        low = 1 << i
        for x in bits_to_ids(b):
            has[x] |= low
    return has


def conjugation_table(G: GroupTable, subs: list[Subgroup], has: list[int]) -> list[array]:
    """``conj[g][i]``: the index of g Hi g^-1, for every element g of G.

    ``subs`` is closed under conjugation and sorted by order, and ``has`` is
    ``membership_masks`` of it.  The images under g of Hi's generators
    generate g Hi g^-1, so the AND of their ``has`` masks holds the members
    of ``subs`` that contain g Hi g^-1; the only one of them no larger is
    g Hi g^-1 itself, so by the order sort it is the lowest index.  Each
    generator's row costs one such AND per subgroup and becomes an
    ``operator.itemgetter``.  Conjugation by x*g is conjugation by g followed
    by conjugation by x, so the row of x*g is the generator's getter applied
    to the row of x: one C-level call per element of G, walked as a BFS over
    the generators.  Only the BFS frontier is held as tuples; each finished
    row is stored as an ``array``.
    """
    S = len(subs)
    code = "H" if S <= 0xFFFF else "I"
    if S == 1:  # every conjugation fixes a lone subgroup (and itemgetter(k) returns no tuple)
        return [array(code, [0]) for _ in range(G.n)]
    gens = list(dict.fromkeys(G.gen_ids))
    full = (1 << S) - 1
    picks = []
    for g in gens:
        image = G.conj_perm(g)
        above = [reduce(and_, [has[image[x]] for x in s.gens], full) for s in subs]
        picks.append(itemgetter(*[(m & -m).bit_length() - 1 for m in above]))
    conj: list = [None] * G.n
    identity = tuple(range(S))
    conj[0] = array(code, identity)
    mt, n = G.mul_table, G.n
    frontier = [(0, identity)]
    while frontier:
        nxt = []
        for x, row in frontier:
            xn = x * n
            for g, pick in zip(gens, picks):
                y = mt[xn + g]
                if conj[y] is None:
                    composed = pick(row)
                    conj[y] = array(code, composed)
                    nxt.append((y, composed))
        frontier = nxt
    return conj


def _conjugacy_class(
    G: GroupTable, bits: int, gens=(), schreier: list[int] | None = None
) -> dict[int, tuple[int, ...]]:
    """The conjugates of a subgroup H, each bitset mapped to ``gens`` conjugated alike.

    A generating set of H so yields one of each conjugate.  The class is a
    BFS over G's generators.  Given a list ``schreier``, the BFS also keeps a
    transversal u, u[b] H u[b]^-1 = b, at one table read per new conjugate,
    and appends to the list the Schreier element u[c]^-1 g u[b] of each edge
    b -g-> c that reaches a conjugate c already found.  Each fixes H, and
    they generate N_G(H) (Schreier's lemma; the edges of the BFS tree give
    the identity).
    """
    found = {bits: tuple(gens)}
    frontier = [bits]
    conjugators = [(g, G.conj_perm(g)) for g in dict.fromkeys(G.gen_ids)]
    if schreier is not None:
        mt, n, inv = G.mul_table, G.n, G.inv
        u = {bits: 0}
    while frontier:
        nxt = []
        for b in frontier:
            for g, perm in conjugators:
                c = conjugate_bits(G, b, g)
                if c not in found:
                    found[c] = tuple(map(perm.__getitem__, found[b]))
                    nxt.append(c)
                    if schreier is not None:
                        u[c] = mt[g * n + u[b]]
                elif schreier is not None:
                    schreier.append(mt[inv[u[c]] * n + mt[g * n + u[b]]])
        frontier = nxt
    return found


def _class_and_normaliser(
    G: GroupTable, bits: int, gens
) -> tuple[dict[int, tuple[int, ...]], tuple[int, ...]]:
    """H's conjugacy class, as ``_conjugacy_class`` gives it, and generators of N_G(H).

    The Schreier elements of the class BFS generate N_G(H).  Those inside H
    are generated by ``gens``, so ``gens`` and the distinct Schreier elements
    outside H generate it too: no element of G is tested, and no join taken.
    """
    schreier: list[int] = []
    cls = _conjugacy_class(G, bits, gens, schreier)
    return cls, tuple(gens) + tuple(x for x in dict.fromkeys(schreier) if not bits >> x & 1)


def core(G: GroupTable, H: Subgroup) -> Subgroup:
    """Largest normal subgroup of G inside H: the meet of all conjugates of H."""
    if H.parent is not G:
        raise ParentMismatch("subgroup belongs to a different group")
    out = H.bits
    for b in _conjugacy_class(G, H.bits):
        out &= b
    return Subgroup(G, out)


def element_conjugacy_classes(G: GroupTable) -> list[list[int]]:
    """Element conjugacy classes as sorted ids: the classes of singleton bitsets."""
    assigned = bytearray(G.n)
    classes = []
    for a in range(G.n):
        if not assigned[a]:
            cls = sorted(b.bit_length() - 1 for b in _conjugacy_class(G, 1 << a))
            for x in cls:
                assigned[x] = 1
            classes.append(cls)
    return classes


def normal_subgroups(G: GroupTable) -> list[Subgroup]:
    """All normal subgroups, as the joins of the normal closures of element classes.

    Every normal subgroup is the join of the class closures inside it, so the
    closures are joined in one pass: each new closure b enters with its join
    with every normal subgroup found so far, and after k closures the set
    holds the join of every subset of them.  This never enumerates the full
    subgroup lattice, so quotient and indomitability checks stay cheap even
    when the lattice is large.
    """
    cached = G._cache.get("normal_subgroups")
    if cached is None:
        normals = {1}
        for cls in element_conjugacy_classes(G):
            # grow the closure by cosets, adding a member as a generator only
            # when it is not yet inside: most of a class is reached for free
            b, gens = 1, []
            for x in cls:
                if not b >> x & 1:
                    b = join_bits(G, b, (x,), base_gens=gens)
                    gens.append(x)
            if b in normals:
                continue  # the joins are closed under joining
            # a is normal, so a * <gens of b> is already the join
            normals |= {b} | {
                join_bits(G, a, gens, base_gens=()) for a in normals if a | b not in (a, b)
            }
        cached = [Subgroup(G, b) for b in sorted(normals, key=lambda b: (b.bit_count(), b))]
        G._cache["normal_subgroups"] = cached
    return cached


def cyclic_atoms(G: GroupTable) -> list[tuple[int, int, int]]:
    """Distinct nontrivial cyclic subgroups as (bits, order, generator id)."""
    atoms = G._cache.get("cyclic_atoms")
    if atoms is None:
        first: dict[int, int] = {}
        for a, bits in enumerate(G.cyclic_subgroups()):
            if a:
                first.setdefault(bits, a)
        atoms = [(b, b.bit_count(), a) for b, a in first.items()]
        atoms.sort(key=lambda t: (t[1], t[0]))
        G._cache["cyclic_atoms"] = atoms
    return atoms


def all_subgroups(
    G: GroupTable, max_subgroups: int = DEFAULT_SUBGROUP_CAP, deadline: float | None = None
) -> list[Subgroup]:
    """Every subgroup of G, by cyclic extension of conjugacy-class representatives.

    Any subgroup is a join of cyclic subgroups of its own elements, so joining
    known subgroups with cyclic atoms until a fixed point reaches all of them.
    Since ``<H^g, C^g> = <H, C>^g``, only the first subgroup R found in each
    conjugacy class is joined with the atoms, and a new class enters whole:
    if H = R^g, then <H, C> is conjugate to the join <R, C^(g^-1)>.  For n in
    N_G(R) the join <R, C^n> is <R, C>^n, so R is joined with the first atom
    of each N_G(R)-orbit only.  The generators of N_G(R) come from the
    Schreier elements of R's class BFS (``_class_and_normaliser``), and each
    orbit is a BFS of atoms over them, one conjugation per atom and
    generator.  Raises OrderCapExceeded once more than
    ``max_subgroups`` are known (lattice explosion guard), and
    TimeBudgetExceeded when ``time.monotonic()`` passes ``deadline`` at the
    start of a representative's joins; either way it caches nothing.
    """
    cached = G._cache.get("all_subgroups")
    if cached is not None:
        if len(cached) > max_subgroups:
            raise OrderCapExceeded(f"subgroup count {len(cached)} passes the cap {max_subgroups}")
        return cached
    G.require_dense()
    subs: dict[int, tuple[int, ...]] = {1: ()}
    reps: list[tuple[int, tuple[int, ...], tuple[int, ...]]] = []

    def add_class(bits, gens):
        cls, norm_gens = _class_and_normaliser(G, bits, gens)
        subs.update(cls)
        reps.append((bits, gens, norm_gens))
        if len(subs) > max_subgroups:
            raise OrderCapExceeded(
                f"subgroup count passed the cap {max_subgroups} (group of order {G.n})"
            )

    atoms = cyclic_atoms(G)
    # atom_of[x]: the index of the atom that element x generates
    index = {bits: k for k, (bits, _, _) in enumerate(atoms)}
    atom_of = [index.get(bits, 0) for bits in G.cyclic_subgroups()]
    for bits, _, gen in atoms:
        if bits not in subs:
            add_class(bits, (gen,))
    mt, n, inv = G.mul_table, G.n, G.inv
    head = 0
    while head < len(reps):
        if deadline is not None and time.monotonic() > deadline:
            raise TimeBudgetExceeded(
                f"lattice enumeration passed its deadline after joining {head} class "
                f"representatives (group of order {G.n})"
            )
        h_bits, h_gens, norm_gens = reps[head]
        head += 1
        conjugators = [(g * n, inv[g]) for g in norm_gens]
        joined = bytearray(len(atoms))  # atoms in the N_G(R)-orbit of a joined one
        for k, (c_bits, _, c_gen) in enumerate(atoms):
            if joined[k] or c_bits & h_bits == c_bits:
                continue
            # the N_G(R)-orbit of atom k, by a BFS over N_G(R)'s generators
            joined[k] = 1
            orbit = [c_gen]
            for x in orbit:
                for gn, gi in conjugators:
                    y = mt[mt[gn + x] * n + gi]
                    if not joined[atom_of[y]]:
                        joined[atom_of[y]] = 1
                        orbit.append(y)
            j = join_bits(G, h_bits, (c_gen,), base_gens=h_gens)
            if j not in subs:
                add_class(j, h_gens + (c_gen,))
    out = [Subgroup(G, b, g) for b, g in subs.items()]
    out.sort(key=lambda s: (s.order, s.bits))
    G._cache["all_subgroups"] = out
    return out


def subgroup_conjugacy_classes(G: GroupTable, subs) -> list[list[Subgroup]]:
    """Partition ``subs`` into conjugacy classes, least-bitset representative first.

    Classes are sorted by (representative order, representative bitset); any
    conjugate missing from ``subs`` simply does not appear in its class.
    """
    by_bits = {}
    for s in subs:
        if s.parent is not G:
            raise ParentMismatch("subgroup belongs to a different group")
        by_bits[s.bits] = s
    assigned: set[int] = set()
    classes = []
    for s in sorted(subs, key=lambda s: (s.order, s.bits)):
        if s.bits in assigned:
            continue
        orbit = sorted(_conjugacy_class(G, s.bits))
        cls = [by_bits[b] for b in orbit if b in by_bits]
        assigned.update(orbit)
        classes.append(cls)
    classes.sort(key=lambda cls: (cls[0].order, cls[0].bits))
    return classes


def image_subgroup(projection: Projection, H: Subgroup) -> Subgroup:
    """Image of H under a quotient projection; |image| = |H| / |H n kernel|."""
    if H.parent is not projection.source:
        raise ParentMismatch("subgroup does not live in the projection's source group")
    mapping = projection.mapping
    bits = 0
    for x in H.member_ids():
        bits |= 1 << mapping[x]
    return Subgroup(projection.target, bits, tuple(dict.fromkeys(mapping[g] for g in H.gens if mapping[g])))


def is_cyclic(H: Subgroup) -> bool:
    cyc = H.parent.cyclic_subgroups()
    return any(cyc[x] == H.bits for x in H.member_ids())


def is_prime_power(n: int) -> bool:
    if n < 2:
        return False
    p = least_prime_factor(n)
    while n % p == 0:
        n //= p
    return n == 1


def is_cyclic_prime_power(H: Subgroup) -> bool:
    return is_prime_power(H.order) and is_cyclic(H)
