import itertools
import random

import pytest

from ingleton.constructions import supersoluble_family
from ingleton.errors import (
    BadParams,
    InvalidGenerator,
    NotNormal,
    OrderCapExceeded,
)
from ingleton.groups import (
    Named,
    Quotient,
    build_group,
    closure_ids,
    format_word,
    matrix_spec,
    parse_word,
    perm_spec,
    quotient_group,
    spec_from_json,
    spec_to_json,
)
from ingleton.permutations import compose, format_cycles, parse_cycles, split_generator_list
from ingleton.subgroups import (
    generated_subgroup,
    normal_subgroups,
    trivial_subgroup,
)

from conftest import named, product


def test_cycle_parse_format_roundtrip():
    img = parse_cycles("(1,2,3)(6,9,10)(7,8,11)", 11)
    assert format_cycles(img) == "(1,2,3)(6,9,10)(7,8,11)"
    assert parse_cycles("()", 4) == (0, 1, 2, 3)
    assert format_cycles((0, 1, 2)) == "()"
    with pytest.raises(BadParams):
        parse_cycles("(1,2,2)")
    with pytest.raises(BadParams):
        parse_cycles("(1,2)(2,3)")


def test_compose_applies_the_left_factor_first():
    # right action: 1 -> 2 under (1,2), then 2 -> 3 under (1,2,3).  The group
    # built is the same up to isomorphism either way, so nothing else checks it
    p, q = parse_cycles("(1,2)", 3), parse_cycles("(1,2,3)", 3)
    assert format_cycles(compose(p, q)) == "(1,3)"
    assert format_cycles(compose(q, p)) == "(2,3)"


def test_split_generator_list():
    assert split_generator_list("(1,2),(1,2,3)") == ["(1,2)", "(1,2,3)"]
    assert split_generator_list("(1,2);(1,2,3)") == ["(1,2)", "(1,2,3)"]
    assert split_generator_list("(1,2,3)(4,5)") == ["(1,2,3)(4,5)"]


def test_cyclic_build():
    G = build_group(named("cyclic", 6))
    assert G.n == 6
    assert G.identity == 0


def test_s5_build_from_generators():
    G = build_group(perm_spec(["(1,2,3,4,5)", "(1,2)"]))
    assert G.n == 120


def test_matrix_family_order_500():
    from ingleton.constructions import supersoluble_family

    fq = supersoluble_family(5)
    assert fq.group.n == 500


def test_group_axioms_exhaustive_small():
    for spec in (named("sym", 3), named("dihedral", 4), named("cyclic", 8)):
        G = build_group(spec)
        n = G.n
        for a in range(n):
            assert G.mul(a, 0) == a
            assert G.mul(0, a) == a
            assert G.mul(a, G.inv[a]) == 0
        for a, b, c in itertools.product(range(n), repeat=3):
            assert G.mul(G.mul(a, b), c) == G.mul(a, G.mul(b, c))


def test_group_axioms_sampled_larger():
    G = build_group(named("sym", 5))
    rng = random.Random(7)
    for _ in range(2000):
        a, b, c = (rng.randrange(G.n) for _ in range(3))
        assert G.mul(G.mul(a, b), c) == G.mul(a, G.mul(b, c))
        assert G.mul(a, G.inv[a]) == 0


def test_build_is_deterministic():
    a = build_group(named("sym", 4))
    b = build_group(named("sym", 4))
    assert a.mul_table == b.mul_table
    assert a.labels == b.labels
    assert [a.word(e) for e in range(a.n)] == [b.word(e) for e in range(b.n)]


def _s4_x_c3_mod_v4():
    G = build_group(product(named("sym", 4), named("cyclic", 3)))
    return quotient_group(G, next(N for N in normal_subgroups(G) if N.order == 4))[0]


@pytest.mark.parametrize(
    "make",
    [
        lambda: build_group(named("sym", 4)),
        lambda: supersoluble_family(4).group,
        lambda: build_group(product(named("alt", 4), named("dihedral", 4))),
        _s4_x_c3_mod_v4,
        lambda: build_group(named("wreath2", "alt", 4)),
        lambda: build_group(perm_spec(["()"], 1)),  # one generator, no row to fill
    ],
    ids=["S4", "family-q4", "A4xD8", "S4xC3/V4", "A4wr2", "C1"],
)
def test_dense_table_matches_concrete_products(make):
    # the table is filled by composing rows; every entry must be the id of
    # the concrete product, and inv must be a two-sided inverse
    G = make()
    n, mt, mul_c, elems, ids = G.n, G.mul_table, G._mul_c, G._elems, G._ids
    assert mt is not None and len(mt) == n * n
    for a in range(n):
        ea = elems[a]
        assert mt[a * n : a * n + n] == [ids[mul_c(ea, eb)] for eb in elems]
        assert mt[a * n + G.inv[a]] == 0 == mt[G.inv[a] * n + a]


@pytest.mark.parametrize("q", [7, 8, 9])
def test_sparse_inverses_are_two_sided(q):
    # past the order cap there is no table: inv comes from the BFS tree alone,
    # so check every element against its concrete matrix product (q = 8, 9
    # are prime powers)
    from ingleton.fields import MAT3_IDENTITY, field_create

    G = supersoluble_family(q).group
    assert G.mul_table is None
    mat_mul, elems = field_create(q).mat_mul, G._elems
    for a in range(G.n):
        ea, eb = elems[a], elems[G.inv[a]]
        assert mat_mul(ea, eb) == MAT3_IDENTITY == mat_mul(eb, ea)


def test_invalid_permutation_generator():
    with pytest.raises(InvalidGenerator):
        perm_spec([(0, 0, 1)])


def test_singular_matrix_generator():
    with pytest.raises(InvalidGenerator):
        matrix_spec(5, [(1, 0, 0, 0, 1, 0, 1, 0, 0)])  # repeated row, det 0


def test_order_cap():
    with pytest.raises(OrderCapExceeded):
        build_group(named("sym", 7), cap=2048)  # 5040 > 2048


def test_words_evaluate_to_their_elements():
    G = build_group(named("sym", 4))
    for e in range(G.n):
        assert G.eval_word(G.word(e)) == e
        assert G.eval_word(G.word_str(e)) == e


def test_word_format_roundtrip():
    for word in ((), (0,), (0, 0, 1), (1, 1, 1, 0, 2)):
        assert parse_word(format_word(word)) == word
    assert format_word((0, 0, 0)) == "g0^3"
    assert parse_word("e") == ()


def test_spec_json_roundtrip():
    specs = [
        perm_spec(["(1,2,3,4,5)", "(1,2)"]),
        matrix_spec(5, [(1, 1, 0, 0, 1, 0, 0, 0, 1)]),
        named("pgl2", 7),
        product(named("alt", 4), named("sym", 4)),
    ]
    for spec in specs:
        assert spec_from_json(spec_to_json(spec)) == spec


def test_quotient_by_trivial_subgroup():
    G = build_group(named("sym", 5))
    Q, proj = quotient_group(G, trivial_subgroup(G))
    assert Q.n == 120
    assert sorted(set(proj.mapping)) == list(range(120))


def test_quotient_s5_by_a5():
    G = build_group(named("sym", 5))
    a5 = [N for N in normal_subgroups(G) if N.order == 60][0]
    Q, proj = quotient_group(G, a5)
    assert Q.n == 2
    fibers = [0, 0]
    for x in range(G.n):
        fibers[proj(x)] += 1
    assert fibers == [60, 60]


def test_quotient_family_by_minimal_normal():
    # unique minimal normal subgroup of the order-500 group has order 5
    from ingleton.constructions import supersoluble_family

    G = supersoluble_family(5).group
    normals = normal_subgroups(G)
    minimal = [N for N in normals if N.order > 1]
    smallest = min(minimal, key=lambda N: N.order)
    assert smallest.order == 5
    assert sum(1 for N in normals if N.order == 5) == 1
    Q, proj = quotient_group(G, smallest)
    assert Q.n == 100
    counts = {}
    for x in range(G.n):
        counts[proj(x)] = counts.get(proj(x), 0) + 1
    assert set(counts.values()) == {5}


def test_quotient_projection_is_homomorphism():
    G = build_group(named("sym", 4))
    v4 = [N for N in normal_subgroups(G) if N.order == 4][0]
    Q, proj = quotient_group(G, v4)
    assert Q.n == 6
    for a in range(G.n):
        for b in range(G.n):
            assert proj(G.mul(a, b)) == Q.mul(proj(a), proj(b))


def test_quotient_not_normal_rejected():
    G = build_group(named("sym", 3))
    H = generated_subgroup(G, [G._ids[parse_cycles("(1,2)", 3)]])
    with pytest.raises(NotNormal):
        quotient_group(G, H)


def test_quotient_spec_rebuilds():
    G = build_group(named("sym", 4))
    v4 = [N for N in normal_subgroups(G) if N.order == 4][0]
    Q, _ = quotient_group(G, v4)
    assert isinstance(Q.spec, Quotient)
    rebuilt = build_group(spec_from_json(spec_to_json(Q.spec)))
    assert rebuilt.n == Q.n
    assert rebuilt.mul_table == Q.mul_table
    assert rebuilt.labels == Q.labels


def test_closure_ids_trivial_and_full():
    G = build_group(named("sym", 3))
    assert closure_ids(G, []) == 1
    assert closure_ids(G, list(G.gen_ids)).bit_count() == 6


def test_named_spec_preserved_on_table():
    G = build_group(named("sym", 5))
    assert isinstance(G.spec, Named)
