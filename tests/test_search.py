import functools
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from ingleton.engine import Quadruple, ingleton_terms
from ingleton.errors import BadParams, TimeBudgetExceeded
from ingleton.groups import build_group, closure_ids
from ingleton.records import read_records, rebuild_quadruple
from ingleton.search import (
    ALL_FILTERS,
    REQUIRE_LEVELS,
    SearchOptions,
    _orbit_of,
    canonical_class,
    minimal_constraints,
    oracle_options,
    search_offenders,
)
from ingleton.constructions import expand_named
from ingleton.subgroups import (
    all_subgroups,
    conjugate_bits,
    conjugate_subgroup,
    conjugation_table,
    normal_subgroups,
    subgroup_conjugacy_classes,
)

from conftest import named, product, relabelled


def test_s4_has_no_offenders():
    assert search_offenders(build_group(named("sym", 4))) == []


def test_a5_has_no_offenders():
    assert search_offenders(build_group(named("alt", 5))) == []


def test_s5_single_class(s5_classes):
    assert len(s5_classes) == 1
    cls = s5_classes[0]
    assert str(cls.report.ratio) == "16/15"
    assert cls.report.generative


GOLDEN_CLASSES = Path(__file__).resolve().parent / "data" / "golden_s5_a4a4.jsonl"


@functools.cache
def lattice_and_offenders(order):
    """The lattice of the group of the golden offender class of that order
    (S5 120, A4xA4 144), rebuilt from its record, and every member of the
    class, sorted, so that member 0 is the class representative."""
    with GOLDEN_CLASSES.open(encoding="utf-8") as f:
        record = next(r for r in read_records(f) if r.get("group_order") == order)
    Q = rebuild_quadruple(record)
    G = Q.group
    lattice = all_subgroups(G)
    by_bits = {s.bits: s for s in lattice}
    members = sorted(_orbit_of(G, Q.bits_tuple()))
    return lattice, [Quadruple(*(by_bits[b] for b in m)) for m in members]


@settings(max_examples=300, deadline=None)
@given(
    order=st.sampled_from((120, 144)),
    picks=st.tuples(*(st.integers(0, 10**6),) * 4),
    member=st.none() | st.integers(0, 10**6),
)
@example(order=120, picks=(0, 0, 0, 0), member=0)
@example(order=144, picks=(0, 0, 0, 0), member=0)
def test_product_size_identity(order, picks, member):
    # the search decides |H1||H2||H34||H123||H124| < |H12||H13||H14||H23||H24|
    # as P |H34| < t3 t4 with P = |H1H2| and tk = |H1k H2k|, and visits only
    # the H4 with t4 > P // t3; a drawn member is a known offender, else the
    # four subgroups are drawn from the lattice
    subs, offenders = lattice_and_offenders(order)
    if member is None:
        Q = Quadruple(*(subs[p % len(subs)] for p in picks))
    else:
        Q = offenders[member % len(offenders)]
    b1, b2, b3, b4 = Q.bits_tuple()

    def size(*bs):
        return functools.reduce(int.__and__, bs).bit_count()

    P, rem = divmod(size(b1) * size(b2), size(b1, b2))
    assert rem == 0
    t = {}
    for k, bk in ((3, b3), (4, b4)):
        t[k], rem = divmod(size(b1, bk) * size(b2, bk), size(b1, b2, bk))
        assert rem == 0
    offends = P * size(b3, b4) < t[3] * t[4]
    terms = ingleton_terms(Q)
    assert offends == (terms.lhs < terms.rhs)
    assert not offends or t[4] > P // t[3]
    if member is not None:
        assert offends


def test_unknown_filter_name_rejected():
    with pytest.raises(BadParams):
        SearchOptions(disable_filters=("not-a-filter",))


def test_unknown_require_level_rejected():
    with pytest.raises(BadParams):
        SearchOptions(require="offender")


def test_canonical_class_idempotent_and_orbit_constant(s5_classes, s5_group):
    rep = s5_classes[0].representative
    canon = canonical_class(rep)
    assert canon.bits_tuple() == canonical_class(canon).bits_tuple()
    rng = random.Random(11)
    for _ in range(5):
        g = rng.randrange(s5_group.n)
        conj = Quadruple(*(conjugate_subgroup(s5_group, h, g) for h in rep.subs))
        assert canonical_class(conj).bits_tuple() == canon.bits_tuple()
    swapped = Quadruple(rep.h2, rep.h1, rep.h4, rep.h3)
    assert canonical_class(swapped).bits_tuple() == canon.bits_tuple()


def test_canonical_representative_is_orbit_minimum(s5_classes):
    rep = s5_classes[0].representative
    assert canonical_class(rep).bits_tuple() == rep.bits_tuple()


def test_class_size_matches_orbit(s5_classes, s5_group):
    cls = s5_classes[0]
    assert cls.size == len(_orbit_of(s5_group, cls.representative.bits_tuple()))


@pytest.mark.parametrize("spec", [named("sym", 4), named("alt", 5), named("sym", 5)], ids=["S4", "A5", "S5"])
def test_conjugation_table_matches_conjugate_bits(spec):
    # rows composed along the BFS tree agree with conjugating every bitset directly
    G = build_group(spec)
    bits = [s.bits for s in all_subgroups(G)]
    index_of = {b: i for i, b in enumerate(bits)}
    conj = conjugation_table(G, bits, index_of)
    assert len(conj) == G.n
    for g in range(G.n):
        assert list(conj[g]) == [index_of[conjugate_bits(G, b, g)] for b in bits]


@pytest.mark.parametrize(
    "spec",
    [named("sym", 4), named("alt", 5), named("sym", 5), named("psl2", 7), named("wreath2", "alt", 4)],
    ids=["S4", "A5", "S5", "PSL2(7)", "A4wr2"],
)
def test_conjugation_table_orbits_are_the_subgroup_classes(spec):
    # the search reads classes and normality off the table; check both against
    # bitset conjugation and against normal closures that never see the lattice
    G = build_group(spec)
    subs = all_subgroups(G)
    bits = [s.bits for s in subs]
    conj = conjugation_table(G, bits, {b: i for i, b in enumerate(bits)})
    orbits = {frozenset(bits[c[i]] for c in conj) for i in range(len(bits))}
    assert orbits == {frozenset(s.bits for s in cls) for cls in subgroup_conjugacy_classes(G, subs)}
    assert sorted(next(iter(o)) for o in orbits if len(o) == 1) == sorted(N.bits for N in normal_subgroups(G))


def class_summary(classes):
    """Sorted (class size, ratio, four orders): the same under any element numbering."""
    return sorted((c.size, str(c.report.ratio), [s.order for s in c.representative.subs]) for c in classes)


@pytest.mark.parametrize(
    "name, params, sigma",
    [("sym", (5,), (2, 4, 0, 3, 1)), ("wreath2", ("alt", 4), (5, 2, 7, 0, 3, 6, 1, 4))],
    ids=["S5", "A4wr2"],
)
def test_classes_independent_of_element_numbering(name, params, sigma):
    # which H2 stands for its N_G(H1)-orbit depends on the element ids, the classes must not
    plain = expand_named(name, params)
    G, H = build_group(plain), build_group(relabelled(plain, sigma))
    assert {s.bits for s in all_subgroups(H)} != {s.bits for s in all_subgroups(G)}  # the numbering differs
    assert class_summary(search_offenders(H)) == class_summary(search_offenders(G))


def test_minimal_constraints_on_s5(s5_classes):
    # S5 has no proper violator subgroup, so its offender satisfies the
    # minimal-violator generation constraints
    assert minimal_constraints(s5_classes[0].representative)
    filtered = search_offenders(build_group(named("sym", 5)), SearchOptions(minimal_mode=True))
    assert len(filtered) == 1


def test_minimal_constraints_fail_when_pair_generates_proper():
    G = build_group(named("sym", 4))
    subs = all_subgroups(G)
    s3 = next(s for s in subs if s.order == 6)
    Q = Quadruple(s3, s3, s3, s3)
    assert not minimal_constraints(Q)


def test_minimal_constraints_family_value_recorded():
    # evaluated and recorded, not asserted: the order-500 family group has
    # proper violator subgroups or not depending on q, so the value is
    # informational for the designated quadruple
    from ingleton.constructions import supersoluble_family

    value = minimal_constraints(supersoluble_family(5).quadruple)
    print(f"minimal_constraints(family q=5 quadruple) = {value}")
    assert value in (True, False)


def test_each_filter_alone_preserves_output():
    # disabling one filter at a time never changes the class set
    for spec in (named("sym", 5), product(named("alt", 4), named("alt", 4))):
        G = build_group(spec)
        baseline = [c.key for c in search_offenders(G)]
        for name in ALL_FILTERS:
            got = [c.key for c in search_offenders(G, SearchOptions(disable_filters=(name,)))]
            assert got == baseline, f"disabling {name} changed the result"


def test_oracle_equivalence_small():
    for spec in (named("sym", 4), named("dihedral", 8), named("sl2", 3), named("alt", 5)):
        G = build_group(spec)
        filtered = [c.key for c in search_offenders(G)]
        oracle = [c.key for c in search_offenders(G, oracle_options())]
        assert filtered == oracle == []


def test_every_emitted_class_is_a_generative_offender(a6_classes):
    from ingleton.engine import is_generative, is_offender

    for cls in a6_classes:
        assert is_offender(cls.representative)
        assert cls.report.generative and is_generative(cls.representative)


def test_a6_classes_with_conjugate_h1_h2(a6_group, a6_classes):
    # 8 of A6's 32 classes have H1 and H2 conjugate, so H2 must also run over
    # H1's own class, not only over later ones
    assert len(a6_classes) == 32
    assert sum(c.size for c in a6_classes) == 23880
    conjugate_pairs = sum(
        any(conjugate_bits(a6_group, b1, g) == b2 for g in range(a6_group.n))
        for b1, b2, _, _ in (c.key for c in a6_classes)
    )
    assert conjugate_pairs == 8


def test_search_determinism(s5_group):
    a = search_offenders(s5_group)
    b = search_offenders(s5_group)
    assert [c.key for c in a] == [c.key for c in b]
    assert [c.size for c in a] == [c.size for c in b]


def test_time_budget_exceeded_carries_partial():
    G = build_group(named("alt", 6))
    all_subgroups(G)  # lattice outside the budgeted region
    with pytest.raises(TimeBudgetExceeded) as info:
        search_offenders(G, SearchOptions(time_budget=0.0))
    assert isinstance(info.value.partial, list)


def test_time_budget_checked_before_the_conjugation_table(monkeypatch, s5_group):
    # with the lattice cached, an exhausted budget stops the search at the
    # check after the lattice, before any later phase runs
    all_subgroups(s5_group)

    def unreachable(*args):
        raise AssertionError("conjugation_table ran after the budget was exhausted")

    monkeypatch.setattr("ingleton.search.conjugation_table", unreachable)
    with pytest.raises(TimeBudgetExceeded) as info:
        search_offenders(s5_group, SearchOptions(time_budget=0.0))
    assert info.value.partial == []


def test_require_levels_keep_the_s5_class(s5_group):
    # the S5 offender class is indomitable, so every level keeps it with its flag set
    for level in REQUIRE_LEVELS:
        classes = search_offenders(s5_group, SearchOptions(require=level))
        assert len(classes) == 1
        assert getattr(classes[0].report, level) is True


def test_require_irreducible_and_indomitable_levels():
    # GL2(5)'s published row counts indomitable classes only; the cheap proxy
    # here is C2 x S5, which has 19 generative classes and none at either
    # stricter level, so only the counts are compared
    G = build_group(product(named("cyclic", 2), named("sym", 5)))
    gen = search_offenders(G)
    irr = search_offenders(G, SearchOptions(require="irreducible"))
    ind = search_offenders(G, SearchOptions(require="indomitable"))
    assert len(irr) <= len(gen)
    assert len(ind) <= len(irr)
    for c in irr:
        assert c.report.irreducible
    for c in ind:
        assert c.report.indomitable


def count_generative_offenders(G, h1_weights=None):
    """Brute-force count of the ordered quadruples of subgroups of G that
    offend and together generate G.

    Independent of the search: no filter, conjugation or symmetry breaking,
    only the membership matrix M of the lattice and its products.  The
    products are at most |G|^5, which fits in int64 for |G| <= 6000.
    ``h1_weights`` maps lattice indices to weights and restricts H1 to them;
    by default every subgroup is an H1 of weight 1.
    """
    np = pytest.importorskip("numpy")
    assert G.n <= 6000
    subs = all_subgroups(G)
    M = np.array([[s.bits >> x & 1 for x in range(G.n)] for s in subs], dtype=np.int64)
    inter = M @ M.T  # inter[i, j] = |Hi ^ Hj|
    orders = np.diag(inter)
    full = (1 << G.n) - 1
    if h1_weights is None:
        h1_weights = dict.fromkeys(range(len(subs)), 1)
    count = 0
    for i1, weight in h1_weights.items():
        for i2 in range(len(subs)):
            m12 = M[i1] * M[i2]
            h12k = M @ m12  # |H1 ^ H2 ^ Hk| for every k
            v = inter[i1] * inter[i2]  # |H1 ^ Hk| |H2 ^ Hk|
            lhs = orders[i1] * orders[i2] * inter * np.outer(h12k, h12k)
            rhs = m12.sum() * np.outer(v, v)
            for i3, i4 in zip(*np.nonzero(lhs < rhs)):
                gens = [g for i in (i1, i2, i3, i4) for g in subs[i].gens]
                if closure_ids(G, gens) == full:
                    count += weight
    return count


def test_orbit_counting_identity_s5(s5_group, s5_classes):
    # every generative offending ordered quadruple lies in exactly one class
    assert count_generative_offenders(s5_group) == sum(c.size for c in s5_classes)


@pytest.mark.slow
def test_orbit_counting_identity_a4a4(a4a4_group, a4a4_classes):
    assert count_generative_offenders(a4a4_group) == sum(c.size for c in a4a4_classes)


@pytest.mark.slow
def test_orbit_counting_identity_a4wr2():
    # A4 wreath 2 has 7 offender classes of sizes 288 and 576, and subgroup
    # classes of many sizes.  Conjugation preserves the count, so H1 runs
    # over subgroup class representatives weighted by class size; H2, H3 and
    # H4 run over the whole lattice, which checks the search's H2 reduction
    # to N_G(H1)-orbits and its class order independently.
    G = build_group(named("wreath2", "alt", 4))
    subs = all_subgroups(G)
    index_of = {s.bits: i for i, s in enumerate(subs)}
    weights = {index_of[cls[0].bits]: len(cls) for cls in subgroup_conjugacy_classes(G, subs)}
    classes = search_offenders(G)
    assert len(classes) == 7 and {c.size for c in classes} == {288, 576}
    assert len(set(weights.values())) > 1
    assert count_generative_offenders(G, weights) == sum(c.size for c in classes)
