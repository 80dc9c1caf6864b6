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
costs one step per member instead of a join closure.  A join grows a union
of right cosets along the Schreier graph, about one table lookup per element
of the result.  ``conjugation_table`` then permutes lattice indices by
conjugation: its orbits are the subgroup classes and its fixed points the
normal subgroups, which ``subgroup_conjugacy_classes`` and ``is_normal`` find
independently from bitsets.
"""

from __future__ import annotations

from array import array

from .errors import OrderCapExceeded, ParentMismatch
from .groups import GroupTable, Projection, bits_to_ids, closure_ids, generating_set, is_normal_bits

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


def join_bits(G: GroupTable, base_bits: int, gens, base_gens=None) -> int:
    """Membership of <H, gens> given a subgroup H and extra generating elements.

    Grows a union of right cosets H*y along the Schreier graph: one table
    lookup per edge, and each coset is filled exactly once.  The edge labels
    must generate the join together with H, so H's own generators are added
    unless supplied (pass ``base_gens=()`` when H is normal in the join,
    where H * <gens> is already the whole join).
    """
    if base_gens is None:
        base_gens = generating_set(G, base_bits)
    if G.mul_table is None:
        return closure_ids(G, list(base_gens) + list(gens))
    mt, n = G.mul_table, G.n
    members = bits_to_ids(base_bits)
    edge_gens = [g for g in dict.fromkeys(tuple(base_gens) + tuple(gens)) if g]
    covered = base_bits | 1
    reps = [0]
    head = 0
    while head < len(reps):
        rn = reps[head] * n
        head += 1
        for g in edge_gens:
            y = mt[rn + g]
            if not (covered >> y) & 1:
                cos = 0
                for h in members:
                    cos |= 1 << mt[h * n + y]
                cos |= 1 << y
                covered |= cos
                reps.append(y)
    return covered


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


def normaliser_ids(G: GroupTable, bits: int, gens) -> list[int]:
    """N_G(H) as element ids: the g with g*r*g^-1 in H for each generator r of H.

    ``gens`` must generate H; each test is two multiplication-table reads.
    """
    G.require_dense()
    mt, n, inv = G.mul_table, G.n, G.inv
    out = []
    for g in range(n):
        gn, gi = g * n, inv[g]
        if all(bits >> mt[mt[gn + r] * n + gi] & 1 for r in gens):
            out.append(g)
    return out


def conjugation_table(G: GroupTable, bits: list[int], index_of: dict[int, int]) -> list[array]:
    """``conj[g][i]``: the index of g Hi g^-1, for every element g of G.

    The lattice ``bits`` is closed under conjugation.  Each generator's row
    costs one ``conjugate_bits`` call per subgroup; every other element's row
    is composed along a BFS tree of G, since conjugation by x*g is conjugation
    by g followed by conjugation by x.
    """
    S = len(bits)
    code = "H" if S <= 0xFFFF else "I"
    gens = list(dict.fromkeys(G.gen_ids))
    gen_rows = [array(code, [index_of[conjugate_bits(G, b, g)] for b in bits]) for g in gens]
    conj: list = [None] * G.n
    conj[0] = array(code, range(S))
    mt, n = G.mul_table, G.n
    order = [0]
    for x in order:  # grows while it is walked: a BFS of G over its generators
        row = conj[x]
        for g, grow in zip(gens, gen_rows):
            y = mt[x * n + g]
            if conj[y] is None:
                conj[y] = array(code, map(row.__getitem__, grow))
                order.append(y)
    return conj


def _conjugacy_class(G: GroupTable, bits: int, gens=()) -> dict[int, tuple[int, ...]]:
    """The conjugates of a subgroup, each bitset mapped to ``gens`` conjugated alike.

    A generating set of the subgroup so yields one of each conjugate.
    """
    found = {bits: tuple(gens)}
    frontier = [bits]
    conjugators = [(g, G.conj_perm(g)) for g in dict.fromkeys(G.gen_ids)]
    while frontier:
        nxt = []
        for b in frontier:
            for g, perm in conjugators:
                c = conjugate_bits(G, b, g)
                if c not in found:
                    found[c] = tuple(map(perm.__getitem__, found[b]))
                    nxt.append(c)
        frontier = nxt
    return found


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
    classes = G._cache.get("element_classes")
    if classes is None:
        assigned = bytearray(G.n)
        classes = []
        for a in range(G.n):
            if not assigned[a]:
                cls = sorted(b.bit_length() - 1 for b in _conjugacy_class(G, 1 << a))
                for x in cls:
                    assigned[x] = 1
                classes.append(cls)
        G._cache["element_classes"] = classes
    return classes


def normal_subgroups(G: GroupTable) -> list[Subgroup]:
    """All normal subgroups, as the join-closure of single-class normal closures.

    This never enumerates the full subgroup lattice, so quotient and
    indomitability checks stay cheap even when the lattice is large.
    """
    cached = G._cache.get("normal_subgroups")
    if cached is None:
        seeds = []
        seen = {1}
        for cls in element_conjugacy_classes(G):
            b = closure_ids(G, cls)
            if b not in seen:
                seen.add(b)
                seeds.append(b)
        normals = {1} | set(seeds)
        worklist = list(seeds)
        while worklist:
            nxt = []
            for a in worklist:
                for b in sorted(normals):
                    if a | b in (a, b):
                        continue
                    # a is normal, so a * <gens of b> is already the join
                    j = join_bits(G, a, generating_set(G, b), base_gens=())
                    if j not in normals:
                        normals.add(j)
                        nxt.append(j)
            worklist = nxt
        cached = [Subgroup(G, b) for b in sorted(normals, key=lambda b: (b.bit_count(), b))]
        G._cache["normal_subgroups"] = cached
    return cached


def cyclic_atoms(G: GroupTable) -> list[tuple[int, int, int]]:
    """Distinct nontrivial cyclic subgroups as (bits, order, generator id)."""
    atoms = G._cache.get("cyclic_atoms")
    if atoms is None:
        seen = {}
        for a in range(1, G.n):
            bits = 1
            x = a
            while x != 0:
                bits |= 1 << x
                x = G.mul(x, a)
            if bits not in seen:
                seen[bits] = (bits.bit_count(), a)
        atoms = [(b, o, g) for b, (o, g) in seen.items()]
        atoms.sort(key=lambda t: (t[1], t[0]))
        G._cache["cyclic_atoms"] = atoms
    return atoms


def all_subgroups(G: GroupTable, max_subgroups: int = DEFAULT_SUBGROUP_CAP) -> list[Subgroup]:
    """Every subgroup of G, by cyclic extension of conjugacy-class representatives.

    Any subgroup is a join of cyclic subgroups of its own elements, so joining
    known subgroups with cyclic atoms until a fixed point reaches all of them.
    Since ``<H^g, C^g> = <H, C>^g``, only the first subgroup R found in each
    conjugacy class is joined with the atoms, and a new class enters whole:
    if H = R^g, then <H, C> is conjugate to the join <R, C^(g^-1)>.  For n in
    N_G(R) the join <R, C^n> is <R, C>^n, so R is joined with the first atom
    of each N_G(R)-orbit only.  Raises OrderCapExceeded once more than
    ``max_subgroups`` are known (lattice explosion guard) and caches nothing.
    """
    cached = G._cache.get("all_subgroups")
    if cached is not None:
        if len(cached) > max_subgroups:
            raise OrderCapExceeded(f"subgroup count {len(cached)} passes the cap {max_subgroups}")
        return cached
    G.require_dense()
    subs: dict[int, tuple[int, ...]] = {1: ()}
    reps: list[tuple[int, tuple[int, ...]]] = []

    def add_class(bits, gens):
        subs.update(_conjugacy_class(G, bits, gens))
        reps.append((bits, gens))
        if len(subs) > max_subgroups:
            raise OrderCapExceeded(
                f"subgroup count passed the cap {max_subgroups} (group of order {G.n})"
            )

    atoms = cyclic_atoms(G)
    # atom_of[x]: the index of the atom that element x generates
    element_orders = G.element_orders()
    atom_of = [0] * G.n
    for k, (bits, order, gen) in enumerate(atoms):
        for x in bits_to_ids(bits):
            if element_orders[x] == order:
                atom_of[x] = k
        if bits not in subs:
            add_class(bits, (gen,))
    head = 0
    while head < len(reps):
        h_bits, h_gens = reps[head]
        head += 1
        norm = normaliser_ids(G, h_bits, h_gens)
        joined = bytearray(len(atoms))  # atoms in the N_G(R)-orbit of a joined one
        for k, (c_bits, _, c_gen) in enumerate(atoms):
            if joined[k] or c_bits & h_bits == c_bits:
                continue
            for g in norm:
                joined[atom_of[G.conjugate(g, c_gen)]] = 1
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
    orders = H.parent.element_orders()
    return any(orders[x] == H.order for x in H.member_ids())


def is_prime_power(n: int) -> bool:
    if n < 2:
        return False
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            return n == 1
        p += 1
    return True  # n itself prime


def is_cyclic_prime_power(H: Subgroup) -> bool:
    return is_prime_power(H.order) and is_cyclic(H)
