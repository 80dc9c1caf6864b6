import tracemalloc
from fractions import Fraction

import pytest

from ingleton.constructions import (
    MAX_FAMILY_ORDER,
    NAMED_CONSTRUCTORS,
    construct_named,
    dicyclic_spec,
    example_3xpsl27,
    metacyclic_spec,
    parse_named,
    supersoluble_family,
    verify_family,
)
from ingleton.engine import ingleton_terms, is_generative, is_offender, score
from ingleton.errors import (
    BadParams,
    FieldTooSmall,
    NotPrimePower,
    OrderCapExceeded,
    UnknownName,
)
from ingleton.groups import build_group, spec_from_json, spec_to_json

from conftest import named, product


NAMED_ORDERS = [
    ("cyclic", (1,), 1),
    ("cyclic", (12,), 12),
    ("dihedral", (2,), 4),
    ("dihedral", (12,), 24),
    ("sym", (5,), 120),
    ("alt", (4,), 12),
    ("alt", (5,), 60),
    ("alt", (6,), 360),
    ("psl2", (5,), 60),
    ("psl2", (7,), 168),
    ("psl2", (8,), 504),
    ("psl2", (9,), 360),
    ("psl2", (11,), 660),
    ("pgl2", (5,), 120),
    ("pgl2", (7,), 336),
    ("sl2", (3,), 24),
    ("sl2", (5,), 120),
    ("gl2", (5,), 480),
    ("wreath2", ("alt", 4), 288),
    ("wreath2", ("sym", 3), 72),
]


@pytest.mark.parametrize("name,params,order", NAMED_ORDERS)
def test_named_orders(name, params, order):
    # the --named text, construct_named and the JSON round trip give one spec
    spec = construct_named(name, params)
    assert parse_named(":".join(map(str, (name, *params)))) == spec
    assert spec_from_json(spec_to_json(spec)) == spec
    G = build_group(spec, cap=2048)
    assert G.n == order


def test_named_orders_cover_every_family():
    assert {name for name, _, _ in NAMED_ORDERS} == set(NAMED_CONSTRUCTORS)


def test_direct_product_and_wreath_orders():
    assert build_group(product(named("alt", 4), named("alt", 4))).n == 144
    assert build_group(construct_named("wreath2", ("alt", 4))).n == 288
    assert build_group(product(named("cyclic", 3), named("psl2", 7))).n == 504
    assert parse_named("alt:4*alt:4") == product(named("alt", 4), named("alt", 4))
    assert parse_named("cyclic:2*cyclic:2*cyclic:2") == product(*(named("cyclic", 2) for _ in range(3)))


def test_order_cap_is_checked_before_any_generator_is_built():
    # a family with a parameter past the cap allocates nothing before raising;
    # building cyclic:5000 up to the cap took about 80 MiB of tuples
    tracemalloc.start()
    try:
        construct_named("cyclic", (10**6,))  # validated, not built
        with pytest.raises(OrderCapExceeded):
            build_group(construct_named("cyclic", (5000,)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert build_group(named("cyclic", 3000), cap=3000).n == 3000


def test_product_order_cap_is_checked_before_any_factor_is_built(monkeypatch):
    # each factor fits the cap, their product does not: the product of the
    # factors' order bounds raises before either factor's group is built
    def no_build(*args):
        raise AssertionError("a factor was built")

    monkeypatch.setattr("ingleton.groups._bfs_build", no_build)
    for text in ("cyclic:2000*cyclic:2000", "sym:4*cyclic:2*cyclic:300"):
        with pytest.raises(OrderCapExceeded, match="at least"):
            build_group(parse_named(text))


def test_unknown_and_bad_params():
    with pytest.raises(UnknownName):
        construct_named("sporadic", (1,))
    with pytest.raises(UnknownName):  # products come from '*' in the text, or DirectProduct
        construct_named("direct_product", (named("cyclic", 2), named("cyclic", 2)))
    with pytest.raises(BadParams):
        construct_named("sym", ())
    with pytest.raises(BadParams):
        construct_named("cyclic", (0,))
    with pytest.raises(NotPrimePower):
        construct_named("psl2", (6,))


def test_metacyclic_spec_validation():
    with pytest.raises(BadParams):
        metacyclic_spec(5, 3, 2)  # 2^3 = 3 mod 5, not an order-3 action
    with pytest.raises(BadParams):
        metacyclic_spec(6, 2, 3)  # r must be coprime to m


def test_metacyclic_orders():
    assert build_group(metacyclic_spec(5, 4, 2)).n == 20  # Frobenius F20
    assert build_group(metacyclic_spec(7, 3, 2)).n == 21
    assert build_group(metacyclic_spec(1, 5, 1)).n == 5
    assert build_group(dicyclic_spec(2)).n == 8  # quaternion group
    assert build_group(dicyclic_spec(6)).n == 24


def test_dicyclic_is_nonabelian_with_unique_involution():
    Q8 = build_group(dicyclic_spec(2))
    orders = Q8.element_orders()
    assert sorted(orders) == [1, 2, 4, 4, 4, 4, 4, 4]


def test_family_small_fields():
    with pytest.raises(FieldTooSmall):
        supersoluble_family(2)
    with pytest.raises(FieldTooSmall):
        supersoluble_family(3)
    rep = verify_family(supersoluble_family(3, allow_small=True))
    assert rep.ratio == Fraction(8, 9)
    assert not rep.offender
    assert rep.small_field_warning


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9])
def test_family_clauses_and_ratio(q):
    fq = supersoluble_family(q)
    rep = verify_family(fq)
    assert rep.all_passed
    assert rep.ratio == Fraction(2 * (q - 1) ** 2, q * q)
    assert rep.offender
    assert fq.group.n == q**3 * (q - 1)
    assert {h.order for h in fq.quadruple.subs} == {q * (q - 1)}
    assert fq.raised_cap == (fq.group.n > 2048)


def test_family_order_cap_is_checked_before_the_field_is_built(monkeypatch):
    # q = 64 (order 16,515,072) once ran past a minute; q = 32 is the largest
    # field size under the cap
    assert 32**3 * 31 <= MAX_FAMILY_ORDER < 37**3 * 36

    def no_field(q):
        raise AssertionError("a field table was built")

    monkeypatch.setattr("ingleton.constructions.field_create", no_field)
    tracemalloc.start()
    try:
        for q in (37, 64, 10**6):
            with pytest.raises(OrderCapExceeded, match="q\\^3"):
                supersoluble_family(q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_family_terms_q5():
    t = ingleton_terms(supersoluble_family(5).quadruple)
    assert (t.h1, t.h2, t.h34, t.h123, t.h124) == (20, 20, 1, 1, 1)
    assert (t.h12, t.h13, t.h14, t.h23, t.h24) == (2, 4, 4, 4, 4)
    assert t.h1234 == 1


def test_family_q7_intersection():
    fq = supersoluble_family(7)
    assert (fq.h1.bits & fq.h2.bits).bit_count() == 2


def test_family_primitive_element_invariance():
    from ingleton.fields import field_create

    F = field_create(5)
    zetas = F.primitive_elements()
    assert len(zetas) >= 2
    reports = [verify_family(supersoluble_family(5, zeta=z)) for z in zetas[:2]]
    a, b = reports
    assert a.order == b.order
    assert a.clauses == b.clauses
    assert a.ratio == b.ratio
    assert abs(a.score - b.score) < 1e-12


def test_family_rejects_non_primitive_zeta():
    with pytest.raises(BadParams):
        supersoluble_family(5, zeta=4)  # 4 has order 2 in GF(5)*


@pytest.mark.parametrize("zeta", [0, 5, -1, 6])
def test_family_rejects_zeta_outside_the_field(zeta):
    # rejected before any multiplicative order is computed: 0 has none, 5
    # and 6 index past the field's tables and -1 never reaches 1
    with pytest.raises(BadParams):
        supersoluble_family(5, zeta=zeta)


def test_example_3xpsl27():
    Q = example_3xpsl27()
    assert Q.group.n == 504
    assert [h.order for h in Q.subs] == [12, 12, 21, 21]
    t = ingleton_terms(Q)
    assert (t.h1, t.h2, t.h34, t.h123, t.h124) == (12, 12, 1, 1, 1)
    assert (t.h12, t.h13, t.h14, t.h23, t.h24) == (2, 3, 3, 3, 3)
    assert Fraction(t.rhs, t.lhs) == Fraction(9, 8)
    assert is_offender(Q)
    assert is_generative(Q)
    assert abs(score(Q) - 0.01892) < 5e-5


def test_dihedral_groups_are_metacyclic_non_violators(small_groups):
    # covered in depth by the negative-control acceptance suite; spot-check here
    from ingleton.search import search_offenders

    for n in (3, 5, 24):
        G = build_group(named("dihedral", n))
        assert search_offenders(G) == []
