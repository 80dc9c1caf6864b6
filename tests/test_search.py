import functools
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from ingleton.engine import Quadruple, ingleton_terms
from ingleton.errors import BadParams, TimeBudgetExceeded
from ingleton.groups import bits_to_ids, build_group, closure_ids, perm_spec
from ingleton.records import class_size, read_records, rebuild_quadruple
from ingleton.search import (
    ALL_FILTERS,
    REQUIRE_LEVELS,
    SearchOptions,
    _ConjugationRows,
    _bands,
    _offending_h4,
    _orbit,
    _pair_tables,
    minimal_constraints,
    oracle_options,
    search_offenders,
)
from ingleton.constructions import expand_named
from ingleton.subgroups import (
    all_subgroups,
    conjugate_bits,
    conjugate_subgroup,
    lattice_conjugation,
    membership_masks,
    normal_subgroups,
    subgroup_conjugacy_classes,
    trivial_subgroup,
)

from conftest import named, product, relabelled
from oracles import canonical_class, orbit_of


def test_s4_has_no_offenders():
    assert search_offenders(build_group(named("sym", 4))) == []


def test_a5_has_no_offenders():
    assert search_offenders(build_group(named("alt", 5))) == []


def test_s5_single_class(s5_classes):
    assert len(s5_classes) == 1
    cls = s5_classes[0]
    assert str(cls.report.ratio) == "16/15"
    assert cls.report.generative


REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_CLASSES = REPO_ROOT / "tests" / "data" / "golden_s5_a4a4.jsonl"


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
    members = sorted(orbit_of(G, Q.bits_tuple()))
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


def test_search_options_reject_a_nan_budget():
    # a NaN deadline compares false, so it would silently run unbudgeted
    with pytest.raises(BadParams):
        SearchOptions(time_budget=float("nan"))
    for budget in (0.0, float("inf"), None):
        assert SearchOptions(time_budget=budget).time_budget == budget


def test_search_options_reject_a_negative_budget():
    # a negative budget once ran to an empty, incomplete summary with exit 3
    for budget in (-1, -1e-9, float("-inf")):
        with pytest.raises(BadParams, match="negative"):
            SearchOptions(time_budget=budget)


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
    assert cls.size == len(orbit_of(s5_group, cls.representative.bits_tuple()))


@settings(max_examples=150, deadline=None)
@given(
    order=st.sampled_from((120, 144)),
    picks=st.tuples(*(st.integers(0, 10**6),) * 4),
    conjugator=st.none() | st.integers(0, 10**6),
    member=st.none() | st.integers(0, 10**6),
)
@example(order=120, picks=(40, 40, 90, 120), conjugator=None, member=None)  # H1 = H2
@example(order=144, picks=(60, 150, 100, 100), conjugator=None, member=None)  # H3 = H4
@example(order=120, picks=(40, 0, 90, 120), conjugator=7, member=None)  # H2 = H1^g
@example(order=144, picks=(100, 0, 60, 60), conjugator=11, member=None)  # both
@example(order=144, picks=(0, 0, 0, 0), conjugator=None, member=0)
def test_class_size_by_orbit_stabiliser_matches_the_orbit(order, picks, conjugator, member):
    # records.class_size counts the (g, swap) pairs fixing the quadruple;
    # orbit_of lists the orbit itself
    subs, offenders = lattice_and_offenders(order)
    if member is None:
        h1, h2, h3, h4 = (subs[p % len(subs)] for p in picks)
        if conjugator is not None:
            h2 = conjugate_subgroup(h1.parent, h1, conjugator % order)
        Q = Quadruple(h1, h2, h3, h4)
    else:
        Q = offenders[member % len(offenders)]
    assert class_size(Q) == len(orbit_of(Q.group, Q.bits_tuple()))


RECORD_FILES = sorted(
    [*(REPO_ROOT / "tests" / "data").glob("*.jsonl"), *(REPO_ROOT / "perfbench" / "corpus").glob("*.jsonl")]
)


@pytest.mark.parametrize("path", RECORD_FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_class_size_of_every_corpus_record(path):
    # the class sizes the search wrote, recomputed from the rebuilt quadruples;
    # alt6.jsonl has classes with H1 and H2 conjugate, so the swaps count there
    with path.open(encoding="utf-8") as f:
        records = [r for r in read_records(f) if r.get("type") == "offender-class"]
    assert records
    for record in records:
        assert class_size(rebuild_quadruple(record)) == record["class_size"]


RELABELLED_S5 = relabelled(expand_named("sym", (5,)), (2, 4, 0, 3, 1))


def lattice_rows(G):
    """The lattice of G, its bits -> index map and its conjugation rows."""
    subs = all_subgroups(G)
    index_of = {s.bits: i for i, s in enumerate(subs)}
    return subs, index_of, _ConjugationRows(G, index_of)


def brute_force_rows(G, bits, index_of):
    """``rows[g][i]``: the index of g Hi g^-1, conjugating every bitset directly."""
    return [[index_of[conjugate_bits(G, b, g)] for b in bits] for g in range(G.n)]


@pytest.mark.parametrize(
    "spec",
    [
        perm_spec([[0]], 1),
        named("cyclic", 2),
        named("sym", 4),
        named("alt", 5),
        named("sym", 5),
        named("wreath2", "alt", 4),
        named("psl2", 8),
        RELABELLED_S5,
    ],
    ids=["trivial", "C2", "S4", "A5", "S5", "A4wr2", "PSL2(8)", "S5-relabelled"],
)
def test_conjugation_table_matches_conjugate_bits(spec):
    # the generator rows read off the class BFS's images, and the row of
    # every element composed along the BFS tree, agree with conjugating every
    # bitset directly, down to the one-subgroup lattice of the trivial group;
    # the relabelled group reshuffles the lattice's (order, bits) sort
    G = build_group(spec)
    subs, index_of, conj = lattice_rows(G)
    expected = brute_force_rows(G, list(index_of), index_of)
    gens = lattice_conjugation(G)[0]
    assert gens == tuple(dict.fromkeys(G.gen_ids))
    assert [list(row) for row in conj.generators] == [expected[g] for g in gens]
    for g in range(G.n):
        assert list(conj[g]) == expected[g]


def test_conjugation_table_of_a_lone_subgroup():
    # the trivial group's lattice is one subgroup, which its generator (the
    # identity) fixes and normalises
    G = build_group(perm_spec([[0]], 1))
    subs, index_of, conj = lattice_rows(G)
    assert subs == [trivial_subgroup(G)]
    assert conj.generators == [(0,)] and conj[0] == (0,)
    assert lattice_conjugation(G) == ((0,), {1: (1,)}, {1: (0,)})


@pytest.mark.parametrize(
    "spec",
    [
        named("sym", 4),
        named("alt", 5),
        named("sym", 5),
        named("wreath2", "alt", 4),
        named("psl2", 8),
        RELABELLED_S5,
    ],
    ids=["S4", "A5", "S5", "A4wr2", "PSL2(8)", "S5-relabelled"],
)
def test_pair_tables_match_pairwise_definitions(spec):
    # the masks come from the transposed lattice; check every cell against
    # the pairwise definitions under each on/off combination of the two
    # partner filters.  A mask that is too large only slows the search, so
    # the search's output cannot catch one.
    G = build_group(spec)
    subs = all_subgroups(G)
    has = membership_masks(G.n, [s.bits for s in subs])
    S = len(subs)
    meet = [[(a.bits & b.bits).bit_count() for b in subs] for a in subs]
    apart = [[meet[i][j] not in (subs[i].order, subs[j].order) for j in range(S)] for i in range(S)]
    for f_contain in (True, False):
        for f_meets in (True, False):
            apart_mask, meets_mask, levels, _ = _pair_tables(subs, has, f_contain, f_meets)
            for i in range(S):
                want_apart = [apart[i][j] or not f_contain for j in range(S)]
                want_meets = [want_apart[j] and (meet[i][j] > 1 or not f_meets) for j in range(S)]
                assert [bool(apart_mask[i] >> j & 1) for j in range(S)] == want_apart
                assert [bool(meets_mask[i] >> j & 1) for j in range(S)] == want_meets
                assert apart_mask[i] >> S == meets_mask[i] >> S == 0
                # one level per order > 1 of a subgroup of Hi, ascending, each
                # the set of the k with |Hi ^ Hk| >= w
                inside = {K.order for K in subs if K.order > 1 and subs[i].contains(K)}
                assert [w for w, _ in levels[i]] == sorted(inside)
                for w, ge in levels[i]:
                    assert [bool(ge >> k & 1) for k in range(S)] == [meet[i][k] >= w for k in range(S)]
            # the bands partition the lattice: k is in the band of w iff
            # |Hi ^ Hk| == w, one band per order of a subgroup of Hi
            for i, level in enumerate(levels):
                band = _bands(level, (1 << S) - 1)
                assert [w for w, _ in band] == sorted({1} | {w for w, _ in level})
                for w, mask in band:
                    assert [bool(mask >> k & 1) for k in range(S)] == [meet[i][k] == w for k in range(S)]


GENERATIVITY_GROUPS = {
    "S5": named("sym", 5),
    "A4xA4": product(named("alt", 4), named("alt", 4)),
    "A4wr2": named("wreath2", "alt", 4),
}


@functools.cache
def lattice_and_above(name):
    """The lattice of the named group and the ``above`` masks of _pair_tables."""
    G = build_group(GENERATIVITY_GROUPS[name])
    subs = all_subgroups(G)
    above = _pair_tables(subs, membership_masks(G.n, [s.bits for s in subs]), True, True)[3]
    return subs, above


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(GENERATIVITY_GROUPS)), picks=st.tuples(*(st.integers(0, 10**6),) * 4))
@example(name="S5", picks=(0, 0, 0, 0))  # all trivial
@example(name="A4xA4", picks=(1, 1, 1, 1))  # one subgroup of order 2, four times
@example(name="A4wr2", picks=(10**6 - 1, 0, 0, 0))  # G among them
def test_generativity_from_the_upper_sets_matches_is_generative(name, picks):
    # the search decides generativity as "the subgroups above all four are G
    # alone", G being last in the lattice sorted by order; engine.is_generative
    # joins the generators onto H1 instead
    from ingleton.engine import is_generative

    subs, above = lattice_and_above(name)
    S = len(subs)
    ids = [p % S for p in picks]
    Q = Quadruple(*(subs[i] for i in ids))
    common = functools.reduce(int.__and__, (above[i] for i in ids))
    assert (common == 1 << (S - 1)) == is_generative(Q)


# (id, spec, whether some offending pair has t3 != t4)
EXACT_H4_GROUPS = [
    ("S5", named("sym", 5), False),
    ("A4xA4", product(named("alt", 4), named("alt", 4)), False),
    ("S5-relabelled", RELABELLED_S5, False),
    ("A4wr2", named("wreath2", "alt", 4), True),
    ("S5xC2", product(named("sym", 5), named("cyclic", 2)), True),
]


@pytest.mark.parametrize(
    "spec, uneven_pairs, disable",
    [
        # with every filter off the candidates are the whole lattice, and the
        # check costs |lattice|^2 per (H1, H2): 10-45 s on the two larger groups
        pytest.param(spec, uneven, disable, id=f"{label}-{name}", marks=[pytest.mark.slow] if disable and uneven else [])
        for label, disable in (("filters", ()), ("no-filter-all", ("all",)))
        for name, spec, uneven in EXACT_H4_GROUPS
    ],
)
def test_offending_h4_sets_are_exact(monkeypatch, spec, uneven_pairs, disable):
    # the search hands every bit of m4 to handle_hit without a comparison, so
    # m4 must be exactly the offending H4 of its H3: for each (H1, H2) the
    # search reaches, the (H3, H4) of every H3 and its m4 must be the pairs
    # of candidates, H4 in apart[i3], with P |H34| < t3 t4 and H4 no earlier
    # than H3 in the t-order (t4 < t3, or t4 == t3 and i4 >= i3), so each
    # unordered offending pair comes out exactly once.  S5 and A4xA4 have
    # only pairs with t3 == t4; A4wr2 and S5xC2 have pairs with t3 != t4,
    # which a swap broken by index alone gets wrong.
    np = pytest.importorskip("numpy")
    G = build_group(spec)
    bits = [s.bits for s in all_subgroups(G)]
    meet = np.array([[(a & b).bit_count() for b in bits] for a in bits], dtype=np.int64)
    apart_of = {}  # the search passes one apart list
    pairs = []
    uneven = []  # offending pairs with t3 != t4

    def least_above(bands):
        # the top band holds the subgroups containing Hi, Hi the least of them
        top = bands[-1][1]
        return (top & -top).bit_length() - 1

    def recording(P, cands, bands1, bands2, bands12, apart, levels):
        got = list(_offending_h4(P, cands, bands1, bands2, bands12, apart, levels))
        i1, i2, i12 = map(least_above, (bands1, bands2, bands12))
        assert bits[i12] == bits[i1] & bits[i2]
        assert P * meet[i12, i12] == meet[i1, i1] * meet[i2, i2]
        ids = np.array(bits_to_ids(cands))
        t = meet[i1, ids] * meet[i2, ids] // meet[i12, ids]
        sub = np.ix_(ids, ids)
        if id(apart) not in apart_of:
            apart_of[id(apart)] = np.array([[a >> k & 1 for k in range(len(bits))] for a in apart], dtype=bool)
        offend = (P * meet[sub] < np.outer(t, t)) & apart_of[id(apart)][sub]
        t3, t4 = t[:, None], t[None, :]
        t_order = (t4 < t3) | ((t4 == t3) & (ids[None, :] >= ids[:, None]))
        # emitted[a, b]: how often (H3, H4) = (ids[a], ids[b]) came out
        emitted = np.zeros(offend.shape, dtype=np.int64)
        for i3, m4 in got:
            np.add.at(emitted, (np.searchsorted(ids, i3), np.searchsorted(ids, bits_to_ids(m4))), 1)
        assert len({i3 for i3, _ in got}) == len(got)
        assert (emitted == (offend & t_order)).all()
        # so each unordered offending pair comes out exactly once
        assert (emitted + emitted.T - np.diag(np.diag(emitted)) == offend).all()
        pairs.append(int(emitted.sum()))
        uneven.append(int((offend & (t3 != t4)).sum()))
        yield from got

    monkeypatch.setattr("ingleton.search._offending_h4", recording)
    assert search_offenders(G, SearchOptions(disable_filters=disable))
    assert sum(pairs) > 0
    assert (sum(uneven) > 0) == uneven_pairs


@pytest.mark.parametrize(
    "spec",
    [named("sym", 4), named("alt", 5), named("sym", 5), named("psl2", 7), named("wreath2", "alt", 4)],
    ids=["S4", "A5", "S5", "PSL2(7)", "A4wr2"],
)
def test_conjugation_table_orbits_are_the_subgroup_classes(spec):
    # the search reads classes and normality off the orbits of the generator
    # rows; check both against bitset conjugation and against normal closures
    # that never see the lattice, and that each class holds one of the
    # representatives the lattice chose
    G = build_group(spec)
    subs, _, conj = lattice_rows(G)
    bits = [s.bits for s in subs]
    orbits = set()
    for i in range(len(bits)):
        orbit = {i}
        while True:
            step = orbit | {row[j] for row in conj.generators for j in orbit}
            if step == orbit:
                break
            orbit = step
        orbits.add(frozenset(bits[j] for j in orbit))
    assert orbits == {frozenset(s.bits for s in cls) for cls in subgroup_conjugacy_classes(G, subs)}
    assert sorted(next(iter(o)) for o in orbits if len(o) == 1) == sorted(N.bits for N in normal_subgroups(G))
    representatives = lattice_conjugation(G)[2]
    assert sorted(len(o & representatives.keys()) for o in orbits) == [1] * len(orbits)


@pytest.mark.parametrize(
    "spec",
    [named("sym", 4), named("alt", 5), named("psl2", 7), named("wreath2", "alt", 4)],
    ids=["S4", "A5", "PSL2(7)", "A4wr2"],
)
def test_normaliser_rows_give_the_normaliser_orbits(spec):
    # the search takes the N_G(H1)-orbits of H2 candidates from the rows of
    # H1's cached normaliser generators; at every class representative they
    # must be the orbits of the whole stabiliser, found by brute force
    G = build_group(spec)
    subs, index_of, conj = lattice_rows(G)
    bits = list(index_of)
    expected = brute_force_rows(G, bits, index_of)
    for b, norm_gens in lattice_conjugation(G)[2].items():
        stabiliser = [g for g in range(G.n) if expected[g][index_of[b]] == index_of[b]]
        brute = {frozenset(expected[g][i] for g in stabiliser) for i in range(len(bits))}
        rows = [conj[x] for x in norm_gens]
        marks = bytearray(len(bits))
        got = set()
        for i in range(len(bits)):
            if not marks[i]:
                marks[i] = 1
                got.add(frozenset(_orbit([i], rows, marks)))
        assert got == brute


@pytest.mark.parametrize(
    "spec, disable",
    [
        (named("sym", 5), ()),
        (named("sym", 5), ("all",)),
        (named("wreath2", "alt", 4), ()),
        (named("gl2", 5), ()),
        (named("alt", 6), ()),
        pytest.param(named("sym", 6), (), marks=pytest.mark.slow),
    ],
    ids=["S5", "S5-no-filter", "A4wr2", "GL2(5)", "A6", "S6"],
)
def test_class_size_and_key_match_the_orbit_of_all_of_g(spec, disable):
    # the search walks a hit's orbit only under N_G(H1) and takes the size
    # and key from it; orbit_of conjugates by every element of G, so its
    # length and least member must match.  A4wr2 and GL2(5) have classes
    # whose key starts in H2's class, A6 and S6 classes with H1 and H2
    # conjugate
    G = build_group(spec)
    classes = search_offenders(G, SearchOptions(disable_filters=disable))
    assert classes
    assert len({cls.key for cls in classes}) == len(classes)
    for cls in classes:
        orbit = orbit_of(G, cls.key)
        assert (cls.size, cls.key) == (len(orbit), min(orbit))


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


def test_time_budget_checked_inside_the_lattice():
    # on a fresh group the deadline stops the lattice at its first class
    # representative, and the lattice is not cached half built
    G = build_group(named("alt", 6))
    with pytest.raises(TimeBudgetExceeded) as info:
        search_offenders(G, SearchOptions(time_budget=0.0))
    assert info.value.partial == []
    assert "all_subgroups" not in G._cache
    assert len(all_subgroups(G)) == 501  # a later call enumerates it whole


def test_time_budget_checked_before_the_conjugation_table(monkeypatch, s5_group):
    # with the lattice cached, an exhausted budget stops the search at the
    # check after the lattice, before the conjugation rows or any later
    # phase is built
    all_subgroups(s5_group)

    def unreachable(*args):
        raise AssertionError("the conjugation rows were built after the budget was exhausted")

    monkeypatch.setattr("ingleton.search._ConjugationRows", unreachable)
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
