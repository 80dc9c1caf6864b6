"""Subgroups as membership bitsets, and lattice-level operations.

A subgroup of a group of order n is an n-bit Python int with bit i set when
element i belongs to it.  Intersection is ``&``, order is ``bit_count()``,
and the bitset doubles as the canonical dedup key since element ids are
canonical per group.  The expensive operation is the join; it is computed by
growing a union of right cosets along the Schreier graph, which costs about
one table lookup per element of the result instead of one per word.
"""

from __future__ import annotations

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


def _bits_orbit(G: GroupTable, bits: int) -> list[int]:
    """Orbit of a subgroup bitset under conjugation by the group generators."""
    seen = {bits}
    frontier = [bits]
    gens = list(dict.fromkeys(G.gen_ids))
    while frontier:
        nxt = []
        for b in frontier:
            for g in gens:
                c = conjugate_bits(G, b, g)
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    return sorted(seen)


def core(G: GroupTable, H: Subgroup) -> Subgroup:
    """Largest normal subgroup of G inside H: the meet of all conjugates of H."""
    if H.parent is not G:
        raise ParentMismatch("subgroup belongs to a different group")
    out = H.bits
    for b in _bits_orbit(G, H.bits):
        out &= b
    return Subgroup(G, out)


def element_conjugacy_classes(G: GroupTable) -> list[list[int]]:
    classes = G._cache.get("element_classes")
    if classes is None:
        assigned = [False] * G.n
        classes = []
        gens = list(dict.fromkeys(G.gen_ids))
        for a in range(G.n):
            if assigned[a]:
                continue
            orbit = [a]
            assigned[a] = True
            head = 0
            while head < len(orbit):
                x = orbit[head]
                head += 1
                for g in gens:
                    y = G.conjugate(g, x)
                    if not assigned[y]:
                        assigned[y] = True
                        orbit.append(y)
            classes.append(sorted(orbit))
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
    """Every subgroup of G, by join-closure BFS from the cyclic subgroups.

    Any subgroup is a join of cyclic subgroups of its own elements, so joining
    known subgroups with cyclic atoms until a fixed point reaches all of them.
    Raises OrderCapExceeded past ``max_subgroups`` (lattice explosion guard).
    """
    cached = G._cache.get("all_subgroups")
    if cached is not None:
        if len(cached) > max_subgroups:
            raise OrderCapExceeded(f"subgroup count {len(cached)} passes the cap {max_subgroups}")
        return cached
    G.require_dense()
    atoms = cyclic_atoms(G)
    subs: dict[int, tuple[int, ...]] = {1: ()}
    for bits, _, gen in atoms:
        subs[bits] = (gen,)
    worklist = [(bits, (gen,)) for bits, _, gen in atoms]
    if len(subs) > max_subgroups:
        raise OrderCapExceeded(f"subgroup count passed the cap {max_subgroups}")
    head = 0
    while head < len(worklist):
        h_bits, h_gens = worklist[head]
        head += 1
        for c_bits, _, c_gen in atoms:
            if c_bits & h_bits == c_bits:
                continue
            j = join_bits(G, h_bits, (c_gen,), base_gens=h_gens)
            if j not in subs:
                gens = h_gens + (c_gen,)
                subs[j] = gens
                worklist.append((j, gens))
                if len(subs) > max_subgroups:
                    raise OrderCapExceeded(
                        f"subgroup count passed the cap {max_subgroups} "
                        f"(group of order {G.n})"
                    )
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
        orbit = _bits_orbit(G, s.bits)
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
