import itertools

import pytest

from ingleton.errors import OrderCapExceeded, ParentMismatch
from ingleton.groups import build_group
from ingleton.permutations import parse_cycles
from ingleton.subgroups import (
    all_subgroups,
    core,
    cyclic_atoms,
    generated_subgroup,
    image_subgroup,
    intersection,
    is_cyclic,
    is_cyclic_prime_power,
    is_normal,
    is_product_subgroup,
    join,
    normal_subgroups,
    product_set_size,
    subgroup_conjugacy_classes,
    trivial_subgroup,
)

from conftest import cyclic_product, named


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
    [named("sym", 4), named("alt", 5), named("sym", 5), named("psl2", 7)],
    ids=["S4", "A5", "S5", "PSL2(7)"],
)
def test_normal_subgroups_are_the_normal_members_of_the_lattice(spec):
    # normal_subgroups never enumerates the lattice, so the two sides are independent
    G = build_group(spec)
    lattice_normals = [s.bits for s in all_subgroups(G) if is_normal(G, s)]
    assert [N.bits for N in normal_subgroups(G)] == lattice_normals


def test_all_subgroups_counts():
    assert len(all_subgroups(build_group(named("cyclic", 6)))) == 4
    assert len(all_subgroups(build_group(named("dihedral", 4)))) == 10
    assert len(all_subgroups(build_group(named("sym", 4)))) == 30


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
    ]
    from ingleton.constructions import dicyclic_spec

    specs.append(dicyclic_spec(2))  # Q8
    for spec in specs:
        G = build_group(spec)
        assert G.n <= 16 or G.n == 12
        expected = brute_force_subgroups(G)
        got = {s.bits for s in all_subgroups(G)}
        assert got == expected, f"lattice mismatch for order {G.n}"


def test_all_subgroups_matches_naive_join_closure_on_s4():
    G = build_group(named("sym", 4))
    assert {s.bits for s in all_subgroups(G)} == naive_all_subgroups(G)


def test_all_subgroups_cap():
    G = build_group(cyclic_product(2, 2, 2, 2))
    G._cache.pop("all_subgroups", None)
    with pytest.raises(OrderCapExceeded):
        all_subgroups(G, max_subgroups=50)  # C2^4 has 67 subgroups
    G._cache.pop("all_subgroups", None)
    assert len(all_subgroups(G)) == 67


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
