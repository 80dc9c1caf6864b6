import itertools
import random

import pytest

from ingleton.constructions import dicyclic_spec, expand_named, metacyclic_spec, supersoluble_family
from ingleton.errors import OrderCapExceeded, ParentMismatch
from ingleton.groups import bits_to_ids, build_group, closure_ids, generating_set
from ingleton.permutations import parse_cycles
from ingleton.subgroups import (
    _class_and_normaliser,
    all_subgroups,
    conjugate_bits,
    core,
    cyclic_atoms,
    element_conjugacy_classes,
    generated_subgroup,
    image_subgroup,
    intersection,
    is_cyclic,
    is_cyclic_prime_power,
    is_normal,
    is_product_subgroup,
    join,
    join_bits,
    lattice_conjugation,
    least_prime_factor,
    normal_subgroups,
    product_set_size,
    subgroup_conjugacy_classes,
    trivial_subgroup,
)

from conftest import cyclic_product, named, product, relabelled


# ---------------------------------------------------------------------------
# Independent oracles


def brute_force_subgroups(G):
    """Every subgroup by testing closure of each divisor-sized subset."""
    n = G.n
    found = set()
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    for size in divisors:
        for rest in itertools.combinations(range(1, n), size - 1):
            elems = (0,) + rest
            s = set(elems)
            if all(G.mul(a, b) in s for a in elems for b in elems):
                bits = 0
                for e in elems:
                    bits |= 1 << e
                found.add(bits)
    return found


def naive_all_subgroups(G):
    """Join-closure coded independently: closures by product-set saturation."""

    def closure(elems):
        s = set(elems) | {0}
        while True:
            new = {G.mul(a, b) for a in s for b in s} - s
            if not new:
                bits = 0
                for e in s:
                    bits |= 1 << e
                return bits, frozenset(s)
            s |= new

    cyclics = [closure([a]) for a in range(G.n)]
    cyclic_sets = {bits: elems for bits, elems in cyclics}
    subs = dict(cyclic_sets)
    frontier = list(cyclic_sets.items())
    while frontier:
        fresh = []
        for _, elems in frontier:
            for cb, celems in cyclic_sets.items():
                jb, jelems = closure(elems | celems)
                if jb not in subs:
                    subs[jb] = jelems
                    fresh.append((jb, jelems))
        frontier = fresh
    return set(subs)


# ---------------------------------------------------------------------------


def test_generated_subgroup_examples():
    G = build_group(named("psl2", 7))
    assert generated_subgroup(G, []).order == 1
    orders = G.element_orders()
    g7 = next(e for e in range(G.n) if orders[e] == 7)
    assert generated_subgroup(G, [g7]).order == 7


def test_family_role_subgroup_order():
    from ingleton.constructions import supersoluble_family

    fq = supersoluble_family(5)
    h = generated_subgroup(fq.group, [fq.elements["u1"], fq.elements["t"]])
    assert h.order == 20  # Frobenius group of order q(q-1)


def test_intersection_idempotent_and_parent_checked():
    G = build_group(named("sym", 4))
    subs = all_subgroups(G)
    a = subs[10]
    assert intersection(a, a) == a
    other = build_group(named("sym", 3))
    with pytest.raises(ParentMismatch):
        intersection(a, trivial_subgroup(other))


def test_product_set_size_examples():
    G = build_group(named("sym", 3))
    a = generated_subgroup(G, [G._ids[parse_cycles("(1,2)", 3)]])
    b = generated_subgroup(G, [G._ids[parse_cycles("(1,3)", 3)]])
    assert product_set_size(a, a) == a.order
    assert product_set_size(a, b) == 4
    # |AB| = 4 does not divide 6, so AB is not a subgroup, but <A,B> = S3
    assert join(a, b).order == 6
    assert not is_product_subgroup(a, b)


def test_product_subgroup_containment_and_normality_cases():
    G = build_group(named("sym", 4))
    subs = all_subgroups(G)
    v4 = [s for s in subs if s.order == 4 and is_normal(G, s)][0]
    a4 = [s for s in subs if s.order == 12][0]
    assert is_product_subgroup(v4, a4)  # both normal
    small = [s for s in subs if s.order == 2][0]
    assert is_product_subgroup(small, a4) or small.contains(a4)  # A <= B gives AB = B
    assert is_product_subgroup(small, small)


def test_family_h1_h4_product_size_with_double_loop():
    from ingleton.constructions import supersoluble_family

    fq = supersoluble_family(5)
    G = fq.group
    assert product_set_size(fq.h1, fq.h4) == 20 * 20 // 4 == 100
    literal = set()
    for a in fq.h1.member_ids():
        for b in fq.h4.member_ids():
            literal.add(G.mul(a, b))
    assert len(literal) == 100


def test_is_normal_examples():
    G = build_group(named("sym", 3))
    assert is_normal(G, trivial_subgroup(G))
    full = generated_subgroup(G, list(G.gen_ids))
    assert is_normal(G, full)
    refl = generated_subgroup(G, [G._ids[parse_cycles("(1,2)", 3)]])
    assert not is_normal(G, refl)


def test_core_examples():
    A5 = build_group(named("alt", 5))
    stab = generated_subgroup(
        A5, [A5._ids[parse_cycles("(2,3,4)", 5)], A5._ids[parse_cycles("(2,3)(4,5)", 5)]]
    )
    assert stab.order == 12  # point stabilizer A4
    assert core(A5, stab).order == 1
    S4 = build_group(named("sym", 4))
    v4 = [s for s in all_subgroups(S4) if s.order == 4 and is_normal(S4, s)][0]
    assert core(S4, v4) == v4


def test_core_of_family_roles_trivial():
    from ingleton.constructions import supersoluble_family

    fq = supersoluble_family(5)
    assert core(fq.group, fq.h1).order == 1


def test_normal_subgroups_examples():
    A5 = build_group(named("alt", 5))
    assert [N.order for N in normal_subgroups(A5)] == [1, 60]
    C6 = build_group(named("cyclic", 6))
    assert [N.order for N in normal_subgroups(C6)] == [1, 2, 3, 6]
    from ingleton.constructions import supersoluble_family

    G500 = supersoluble_family(5).group
    assert any(N.order == 5 for N in normal_subgroups(G500))


@pytest.mark.parametrize(
    "spec",
    [
        named("sym", 4),
        named("alt", 5),
        named("sym", 5),
        named("psl2", 7),
        product(named("alt", 4), named("alt", 4)),
        named("wreath2", "alt", 4),
        # abelian, so every subgroup is normal: most are joins of three or
        # more class closures, which joining only pairs of closures misses
        cyclic_product(2, 2, 2, 2),
        cyclic_product(3, 3, 2),
    ],
    ids=["S4", "A5", "S5", "PSL2(7)", "A4xA4", "A4wr2", "C2^4", "C3xC3xC2"],
)
def test_normal_subgroups_are_the_normal_members_of_the_lattice(spec):
    # normal_subgroups never enumerates the lattice, so the two sides are independent
    G = build_group(spec)
    lattice_normals = [s.bits for s in all_subgroups(G) if is_normal(G, s)]
    assert [N.bits for N in normal_subgroups(G)] == lattice_normals


@pytest.mark.parametrize(
    "spec", [cyclic_product(2, 2, 2, 2), product(named("alt", 4), named("alt", 4))], ids=["C2^4", "A4xA4"]
)
def test_normal_subgroups_of_sparse_groups_match_dense(spec, monkeypatch):
    # past groups.DEFAULT_ORDER_CAP a group has no table and join_bits closes
    # generators; normal_subgroups joins with base_gens=(), so H's own
    # generators must still enter the closure
    from ingleton import groups

    dense = [N.bits for N in normal_subgroups(build_group(spec))]
    monkeypatch.setattr(groups, "DEFAULT_ORDER_CAP", 10)
    G = build_group(spec)
    assert G.mul_table is None
    assert [N.bits for N in normal_subgroups(G)] == dense


def test_all_subgroups_counts():
    assert len(all_subgroups(build_group(named("cyclic", 6)))) == 4
    assert len(all_subgroups(build_group(named("dihedral", 4)))) == 10
    assert len(all_subgroups(build_group(named("sym", 4)))) == 30
    assert len(all_subgroups(build_group(named("alt", 5)))) == 59
    assert len(all_subgroups(build_group(named("sym", 5)))) == 156
    assert len(all_subgroups(build_group(named("psl2", 7)))) == 179
    assert len(all_subgroups(build_group(named("sym", 6)))) == 1455  # OEIS A005432


def test_a6_lattice_size(a6_group):
    # the session group caches its lattice, which the A6 search reuses
    assert len(all_subgroups(a6_group)) == 501


def test_all_subgroups_matches_subset_bruteforce():
    specs = [
        named("cyclic", 8),
        named("cyclic", 12),
        named("dihedral", 4),
        named("dihedral", 6),
        named("dihedral", 8),
        cyclic_product(2, 2, 2),
        cyclic_product(2, 4),
        cyclic_product(4, 4),
        named("alt", 4),
        dicyclic_spec(2),  # Q8
    ]
    for spec in specs:
        G = build_group(spec)
        assert G.n <= 16 or G.n == 12
        expected = brute_force_subgroups(G)
        got = {s.bits for s in all_subgroups(G)}
        assert got == expected, f"lattice mismatch for order {G.n}"


@pytest.mark.parametrize(
    "spec",
    [
        named("sym", 4),
        named("alt", 5),
        dicyclic_spec(2),
        product(named("cyclic", 2), named("sym", 4)),
        cyclic_product(2, 2, 2, 2),  # abelian: every conjugacy class is a singleton
        # composite element orders, reached only as joins of zuppos, and
        # zuppos of order p^2 or more, joined only to subgroups holding <c^p>
        named("cyclic", 36),
        cyclic_product(3, 6),
        named("dihedral", 12),
        product(named("sym", 3), named("cyclic", 4)),
        cyclic_product(2, 8),
        metacyclic_spec(9, 6, 2),
    ],
    ids=["S4", "A5", "Q8", "C2xS4", "C2^4", "C36", "C3xC6", "D24", "S3xC4", "C2xC8", "M(9,6,2)"],
)
def test_all_subgroups_matches_naive_join_closure(spec):
    G = build_group(spec)
    assert {s.bits for s in all_subgroups(G)} == naive_all_subgroups(G)


def divisor_count(n):
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def divisor_sum(n):
    return sum(d for d in range(1, n + 1) if n % d == 0)


def test_subgroup_counts_of_cyclic_and_dihedral_groups():
    # C_n has one subgroup per divisor of n; D_n (order 2n) has those of its
    # rotations and, for each d | n, the n/d conjugates of a D_d, sigma(n) in all
    for n in range(1, 61):
        assert len(all_subgroups(build_group(named("cyclic", n)))) == divisor_count(n), n
    for n in range(1, 31):
        assert len(all_subgroups(build_group(named("dihedral", n)))) == divisor_count(n) + divisor_sum(n), n


@pytest.mark.parametrize("name, params", [("wreath2", ("alt", 4)), ("psl2", (8,))], ids=["A4wr2", "PSL2(8)"])
def test_join_count_independent_of_element_numbering(name, params, monkeypatch):
    # one join per class representative R and N_G(R)-orbit of the zuppos it
    # may take: conjugation-invariant, so relabelling the points, and hence
    # the element ids, the representatives and the Schreier elements, must
    # not change it
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return join_bits(*args, **kwargs)

    monkeypatch.setattr("ingleton.subgroups.join_bits", counted)
    plain = expand_named(name, params)
    counts = []
    for seed in (1, 2):
        sigma = list(range(plain.degree))
        random.Random(seed).shuffle(sigma)
        G = build_group(relabelled(plain, sigma))
        calls.clear()
        all_subgroups(G)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_join_bits_matches_generator_closure():
    # every join the lattice could ask for, against closing the generators;
    # the Lagrange exit fires past |G|/p, with p the least prime factor of
    # [G:H], so the cases must include a prime [G:H] (the exit fires on the
    # first new coset) and a join of index exactly p (the largest it must
    # not cut short)
    prime_index = index_p = 0
    for spec in (named("sym", 4), named("alt", 5), named("psl2", 7), named("wreath2", "alt", 4)):
        G = build_group(spec)
        for cls in subgroup_conjugacy_classes(G, all_subgroups(G)):
            H = cls[0]
            index = G.n // H.order
            p = least_prime_factor(index)
            for c_bits, _, c in cyclic_atoms(G):
                j = join_bits(G, H.bits, (c,), base_gens=H.gens)
                assert j == closure_ids(G, H.gens + (c,))
                grown = c_bits & ~H.bits != 0
                prime_index += grown and p == index
                index_p += grown and G.n == p * j.bit_count()
    assert prime_index and index_p


class CountingRow(tuple):
    """A row of the multiplication table that counts the entries read from it."""

    reads = [0]

    def __getitem__(self, i):
        self.reads[0] += 1
        return super().__getitem__(i)


def test_join_bits_stops_by_lagrange(monkeypatch):
    # a point stabiliser S4 has prime index 5 in S5, so one coset past the
    # base covers more than |G|/5 elements and the join is G: one coset of
    # 24 entry reads is filled, not the 4 that growing the whole join takes
    G = build_group(named("sym", 5))
    H = next(s for s in all_subgroups(G) if s.order == 24)
    c = next(x for x in range(G.n) if x not in H)
    reads = [0]
    monkeypatch.setattr(CountingRow, "reads", reads)
    monkeypatch.setattr(G, "mul_table", [CountingRow(row) for row in G.mul_table])
    assert join_bits(G, H.bits, (c,), base_gens=H.gens) == (1 << G.n) - 1
    assert 0 < reads[0] < 2 * H.order


@pytest.mark.parametrize(
    "make, sparse",
    [
        (lambda: build_group(named("sym", 4)), False),
        (lambda: build_group(named("wreath2", "alt", 4)), False),
        (lambda: supersoluble_family(4).group, False),
        (lambda: build_group(named("sym", 4)), True),
    ],
    ids=["S4", "A4wr2", "family-q4", "S4-sparse"],
)
def test_element_classes_are_the_orbits_under_conjugation(make, sparse, monkeypatch):
    # the generators' conjugation BFS against {g x g^-1 : g in G}, element by
    # element, with every product made by G.mul
    from ingleton import groups

    if sparse:
        monkeypatch.setattr(groups, "DEFAULT_ORDER_CAP", 10)
    G = make()
    assert (G.mul_table is None) == sparse
    orbits = {}
    for x in range(G.n):
        orbit = tuple(sorted({G.mul(G.mul(g, x), G.inv[g]) for g in range(G.n)}))
        orbits.setdefault(orbit[0], list(orbit))
    assert element_conjugacy_classes(G) == [orbits[a] for a in sorted(orbits)]


def restart_greedy_generating_set(G, bits):
    """The greedy generating set, closing the kept elements from scratch each time."""
    gens, cur = [], 1
    for x in bits_to_ids(bits):
        if x and not (cur >> x) & 1:
            gens.append(x)
            cur = closure_ids(G, gens)
            if cur == bits:
                break
    return tuple(gens)


@pytest.mark.parametrize(
    "spec",
    [
        named("sym", 4),
        named("alt", 5),
        named("psl2", 7),
        named("wreath2", "alt", 4),
        relabelled(expand_named("sym", (5,)), (2, 4, 0, 3, 1)),
    ],
    ids=["S4", "A5", "PSL2(7)", "A4wr2", "S5-relabelled"],
)
def test_generating_set_matches_restart_greedy(spec):
    # generating_set joins each kept element to what the earlier ones
    # generate; it must keep the same elements as closing them from scratch,
    # since records spell subgroups by these generators' words
    G = build_group(spec)
    for H in all_subgroups(G):
        gens = generating_set(G, H.bits)
        assert gens == restart_greedy_generating_set(G, H.bits)
        assert closure_ids(G, gens) == H.bits


def test_generating_set_of_a_sparse_group(monkeypatch):
    from ingleton import groups

    spec = product(named("alt", 4), named("alt", 4))
    dense = build_group(spec)
    monkeypatch.setattr(groups, "DEFAULT_ORDER_CAP", 10)
    G = build_group(spec)
    assert G.mul_table is None
    for H in all_subgroups(dense):
        assert generating_set(G, H.bits) == restart_greedy_generating_set(dense, H.bits)


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
@pytest.mark.parametrize(
    "spec", [named("sym", 4), named("wreath2", "alt", 4)], ids=["S4", "A4wr2"]
)
def test_cyclic_subgroups_are_the_closures_of_single_elements(spec, sparse, monkeypatch):
    from ingleton import groups

    if sparse:
        monkeypatch.setattr(groups, "DEFAULT_ORDER_CAP", 10)
    G = build_group(spec)
    assert (G.mul_table is None) == sparse
    assert G.cyclic_subgroups() == [closure_ids(G, [a]) for a in range(G.n)]


def test_least_prime_factor():
    assert [least_prime_factor(n) for n in (1, 2, 9, 15, 49, 97, 504)] == [1, 2, 3, 3, 7, 97, 2]


def normaliser_order(G, H):
    return sum(conjugate_bits(G, H.bits, g) == H.bits for g in range(G.n))


@pytest.mark.parametrize(
    "spec",
    [
        named("sym", 4),
        named("alt", 5),
        named("sym", 5),
        named("psl2", 7),
        named("wreath2", "alt", 4),
        relabelled(expand_named("sym", (5,)), (2, 4, 0, 3, 1)),
    ],
    ids=["S4", "A5", "S5", "PSL2(7)", "A4wr2", "S5-relabelled"],
)
def test_normaliser_from_schreier_elements_is_the_stabiliser(spec):
    # all_subgroups marks atom orbits under N_G(R) by conjugating with R's
    # generators and the Schreier elements of R's class BFS outside R; check
    # that they generate the stabiliser under conjugation, of order
    # |G| / |class|, at the representative and at a second member
    G = build_group(spec)
    for cls in subgroup_conjugacy_classes(G, all_subgroups(G)):
        for H in cls[:2]:
            conjugates, norm_gens = _class_and_normaliser(G, H.bits, H.gens)
            assert set(conjugates) == {K.bits for K in cls}
            stabiliser = [g for g in range(G.n) if conjugate_bits(G, H.bits, g) == H.bits]
            assert bits_to_ids(closure_ids(G, norm_gens)) == stabiliser
            assert len(stabiliser) == G.n // len(cls)


@pytest.mark.parametrize(
    "spec",
    [named("sym", 4), named("alt", 5), named("psl2", 7), named("wreath2", "alt", 4)],
    ids=["S4", "A5", "PSL2(7)", "A4wr2"],
)
def test_cached_normaliser_generators_generate_the_stabiliser(spec):
    # all_subgroups caches generators of N_G(R) for each class representative
    # R, the trivial subgroup included; the search acts with them on H2
    # candidates, so they must generate the whole stabiliser of R
    G = build_group(spec)
    subs = all_subgroups(G)
    gens, images, normalisers = lattice_conjugation(G)
    assert len(normalisers) == len(subgroup_conjugacy_classes(G, subs))
    assert set(images) == {s.bits for s in subs}
    assert normalisers[1] == gens
    for b, norm_gens in normalisers.items():
        stabiliser = [g for g in range(G.n) if conjugate_bits(G, b, g) == b]
        assert bits_to_ids(closure_ids(G, norm_gens)) == stabiliser


@pytest.mark.parametrize(
    "spec",
    [named("sym", 4), named("alt", 5), named("sym", 5), named("psl2", 7)],
    ids=["S4", "A5", "S5", "PSL2(7)"],
)
def test_lattice_classes_obey_orbit_stabiliser(spec):
    # a class missing a conjugate, or a subgroup counted twice, breaks the count
    G = build_group(spec)
    subs = all_subgroups(G)
    assert all(closure_ids(G, s.gens) == s.bits for s in subs)  # conjugated generators
    classes = subgroup_conjugacy_classes(G, subs)
    for cls in classes:
        assert len(cls) * normaliser_order(G, cls[0]) == G.n
    assert sum(len(cls) for cls in classes) == len(subs)


def test_lattice_independent_of_element_numbering():
    plain = expand_named("sym", (5,))
    G, H = build_group(plain), build_group(relabelled(plain, (2, 4, 0, 3, 1)))
    subs = all_subgroups(H)
    assert len(subs) == 156
    assert {s.bits for s in subs} != {s.bits for s in all_subgroups(G)}  # the numbering differs

    def class_sizes(K):
        return sorted((cls[0].order, len(cls)) for cls in subgroup_conjugacy_classes(K, all_subgroups(K)))

    assert class_sizes(H) == class_sizes(G)


@pytest.mark.parametrize(
    "spec, cap, size",
    [
        (cyclic_product(2, 2, 2, 2), 50, 67),
        (named("sym", 4), 20, 30),  # the lattice grows a whole conjugacy class at a time
    ],
    ids=["C2^4", "S4"],
)
def test_all_subgroups_cap(spec, cap, size):
    G = build_group(spec)
    with pytest.raises(OrderCapExceeded):
        all_subgroups(G, max_subgroups=cap)
    assert len(all_subgroups(G)) == size  # the failed call cached nothing


def test_conjugacy_classes():
    S3 = build_group(named("sym", 3))
    order2 = [s for s in all_subgroups(S3) if s.order == 2]
    assert len(order2) == 3
    classes = subgroup_conjugacy_classes(S3, order2)
    assert len(classes) == 1 and len(classes[0]) == 3
    assert classes[0][0].bits == min(s.bits for s in order2)

    D8 = build_group(named("dihedral", 4))
    classes = subgroup_conjugacy_classes(D8, all_subgroups(D8))
    assert len(classes) == 8

    S4 = build_group(named("sym", 4))
    v4 = [s for s in all_subgroups(S4) if s.order == 4 and is_normal(S4, s)][0]
    assert subgroup_conjugacy_classes(S4, [v4]) == [[v4]]


def test_image_subgroup():
    from ingleton.groups import quotient_group

    S4 = build_group(named("sym", 4))
    v4 = [N for N in normal_subgroups(S4) if N.order == 4][0]
    Q, proj = quotient_group(S4, v4)
    assert image_subgroup(proj, v4).order == 1  # H = N collapses
    c3 = next(s for s in all_subgroups(S4) if s.order == 3)
    assert image_subgroup(proj, c3).order == 3  # meets the kernel trivially
    with pytest.raises(ParentMismatch):
        image_subgroup(proj, trivial_subgroup(Q))


def test_image_of_504_example_roles():
    # the central order-3 factor meets every role trivially (H1 = A4 has
    # trivial center), so all four images keep their order; the image
    # quadruple stops being an offender because |H3 n H4| grows to 3
    from ingleton.constructions import example_3xpsl27
    from ingleton.groups import quotient_group

    Q = example_3xpsl27()
    G = Q.group
    z = [N for N in normal_subgroups(G) if N.order == 3][0]
    quot, proj = quotient_group(G, z)
    assert quot.n == 168
    images = [image_subgroup(proj, h) for h in Q.subs]
    assert [h.order for h in images] == [12, 12, 21, 21]
    assert (images[2].bits & images[3].bits).bit_count() == 3


def test_cyclic_flags():
    G = build_group(named("cyclic", 12))
    full = generated_subgroup(G, list(G.gen_ids))
    assert is_cyclic(full)
    assert not is_cyclic_prime_power(full)  # 12 is not a prime power
    D8 = build_group(named("dihedral", 4))
    fullD = generated_subgroup(D8, list(D8.gen_ids))
    assert not is_cyclic(fullD)
    c4 = next(s for s in all_subgroups(D8) if s.order == 4 and is_cyclic(s))
    assert is_cyclic_prime_power(c4)


def test_cyclic_atoms_cover_all_cyclic_subgroups():
    G = build_group(named("sym", 4))
    atoms = {bits for bits, _, _ in cyclic_atoms(G)}
    cyclic_subs = {s.bits for s in all_subgroups(G) if is_cyclic(s) and s.order > 1}
    assert atoms == cyclic_subs
