import functools
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from ingleton.engine import (
    IngletonTerms,
    Quadruple,
    evaluate,
    exclusion_verdict,
    ingleton_terms,
    is_generative,
    is_indomitable,
    is_irreducible,
    is_offender,
    ratio,
    saturate,
    saturate_normal,
    score,
    score_value,
    shrink_h1,
)
from ingleton.errors import ParentMismatch, PreconditionFailed
from ingleton.groups import bits_to_ids, build_group, closure_ids, quotient_group
from ingleton.records import read_records
from ingleton.subgroups import (
    Subgroup,
    all_subgroups,
    core,
    generated_subgroup,
    image_subgroup,
    is_cyclic,
    is_normal,
    normal_subgroups,
    trivial_subgroup,
)

from conftest import named, product


def test_trivial_quadruple_terms():
    G = build_group(named("cyclic", 2))
    t = trivial_subgroup(G)
    terms = ingleton_terms(Quadruple(t, t, t, t))
    assert terms.lhs == terms.rhs == 1
    assert not is_offender(Quadruple(t, t, t, t))


def test_parent_mismatch_rejected():
    A = build_group(named("cyclic", 2))
    B = build_group(named("cyclic", 3))
    with pytest.raises(ParentMismatch):
        Quadruple(
            trivial_subgroup(A), trivial_subgroup(A), trivial_subgroup(A), trivial_subgroup(B)
        )


def test_ratio_and_score_are_exact_then_float():
    from ingleton.constructions import supersoluble_family

    Q = supersoluble_family(5).quadruple
    assert ratio(Q) == Fraction(32, 25)
    assert abs(score(Q) - 0.03972) < 5e-5


def test_score_of_full_quadruple_is_zero():
    G = build_group(named("sym", 3))
    full = generated_subgroup(G, list(G.gen_ids))
    Q = Quadruple(full, full, full, full)
    assert score(Q) == 0.0
    assert ratio(Q) == 1


def test_non_offender_score_reported_nonpositive():
    G = build_group(named("sym", 4))
    subs = all_subgroups(G)
    s3 = next(s for s in subs if s.order == 6)
    a4 = next(s for s in subs if s.order == 12)
    rep = evaluate(Quadruple(a4, a4, s3, s3))
    assert not rep.offender
    assert rep.score <= 0.0


def test_generative_examples():
    G = build_group(named("cyclic", 2))
    t = trivial_subgroup(G)
    assert not is_generative(Quadruple(t, t, t, t))
    from ingleton.constructions import example_3xpsl27, supersoluble_family

    assert is_generative(supersoluble_family(5).quadruple)
    assert is_generative(example_3xpsl27())


def test_irreducible_examples():
    G = build_group(named("sym", 4))
    full = generated_subgroup(G, list(G.gen_ids))
    subs = all_subgroups(G)
    s3 = next(s for s in subs if s.order == 6)
    assert not is_irreducible(Quadruple(full, s3, s3, s3))  # the full role has core G
    from ingleton.constructions import supersoluble_family

    assert is_irreducible(supersoluble_family(5).quadruple)


def test_indomitable_needs_irreducible():
    G = build_group(named("sym", 4))
    v4 = next(N for N in normal_subgroups(G) if N.order == 4)
    with pytest.raises(PreconditionFailed):
        is_indomitable(Quadruple(v4, v4, v4, v4))


def test_indomitable_vacuous_in_simple_group(a6_classes):
    # A6 is simple, so every irreducible offender is vacuously indomitable
    assert is_indomitable(a6_classes[0].representative)


def test_indomitable_family():
    from ingleton.constructions import supersoluble_family

    assert is_indomitable(supersoluble_family(5).quadruple)


# The irreducible offender classes of S3xS5, flagged up to indomitability:
# six indomitable, five whose image in some quotient still offends.
S3S5_IRREDUCIBLE = Path(__file__).resolve().parent / "data" / "golden_s3s5_irreducible.jsonl"
with S3S5_IRREDUCIBLE.open(encoding="utf-8") as _f:
    S3S5_CLASSES = [r for r in read_records(_f) if r.get("type") == "offender-class"]

ORACLE_GROUPS = {
    "S3xS5": product(named("sym", 3), named("sym", 5)),
    "GL2(5)": named("gl2", 5),
    "C2xS5": product(named("cyclic", 2), named("sym", 5)),
}


@functools.cache
def oracle_group(name):
    """The group, its lattice, and the projection onto G/N for every proper
    nontrivial normal N, found among the lattice's members."""
    G = build_group(ORACLE_GROUPS[name])
    subs = all_subgroups(G)
    projections = [quotient_group(G, N)[1] for N in subs if 1 < N.order < G.n and is_normal(G, N)]
    return G, subs, projections


def _every_s3s5_class(test):
    """Run every S3xS5 fixture class as an explicit example."""
    for member in range(len(S3S5_CLASSES)):
        test = example(name="S3xS5", picks=(0, 0, 0, 0), member=member)(test)
    return test


@settings(max_examples=200, deadline=None)
@given(
    name=st.sampled_from(sorted(ORACLE_GROUPS)),
    picks=st.tuples(*(st.integers(0, 10**6),) * 4),
    member=st.none() | st.integers(0, len(S3S5_CLASSES) - 1),
)
@_every_s3s5_class
def test_classification_matches_cores_and_quotients(name, picks, member):
    # evaluate decides both levels inside G from its normal subgroups; the
    # oracle takes the core of each role and builds every quotient group.  A
    # drawn member is an S3xS5 class rebuilt from its record, else the four
    # subgroups are drawn from the lattice
    if member is not None:
        name = "S3xS5"
    G, subs, projections = oracle_group(name)
    if member is None:
        Q = Quadruple(*(subs[p % len(subs)] for p in picks))
    else:
        entries = S3S5_CLASSES[member]["subgroups"]
        Q = Quadruple(*(generated_subgroup(G, [G.eval_word(w) for w in e["generators"]]) for e in entries))
        assert [h.order for h in Q.subs] == [e["order"] for e in entries]
    report = evaluate(Q, with_indomitable=True)
    irreducible = report.generative and all(core(G, h).order == 1 for h in Q.subs)
    assert report.irreducible == irreducible
    indomitable = irreducible and not any(
        is_offender(Quadruple(*(image_subgroup(proj, h) for h in Q.subs))) for proj in projections
    )
    assert report.indomitable == indomitable
    if member is not None:
        assert report.flags_json() == S3S5_CLASSES[member]["flags"]


def test_shrink_h1_fixed_point_and_preservation(s5_classes):
    from ingleton.constructions import supersoluble_family

    Q = supersoluble_family(5).quadruple
    shrunk = shrink_h1(Q)
    assert shrunk.h1.order <= 20
    assert is_offender(shrunk)
    assert shrink_h1(shrunk).h1.bits == shrunk.h1.bits  # fixed point

    assert is_offender(shrink_h1(s5_classes[0].representative))


def test_saturate_reaches_stable_form(s5_classes):
    Q = saturate(s5_classes[0].representative)
    b = Q.bits_tuple()
    G = Q.group
    pair = {
        "h12": b[0] & b[1],
        "h13": b[0] & b[2],
        "h14": b[0] & b[3],
        "h23": b[1] & b[2],
        "h24": b[1] & b[3],
    }

    def gen_bits(x, y):
        return closure_ids(G, bits_to_ids(pair[x] | pair[y]))

    assert b[0] == gen_bits("h12", "h13") == gen_bits("h12", "h14") == gen_bits("h13", "h14")
    assert b[1] == gen_bits("h12", "h23") == gen_bits("h12", "h24") == gen_bits("h23", "h24")
    assert b[2] == gen_bits("h13", "h23")
    assert b[3] == gen_bits("h14", "h24")
    assert is_offender(Q)


def test_saturate_normal_trivial_and_error_paths(s5_classes):
    rep = s5_classes[0].representative
    G = rep.group
    assert saturate_normal(rep, trivial_subgroup(G)).bits_tuple() == rep.bits_tuple()
    a5 = next(N for N in normal_subgroups(G) if N.order == 60)
    with pytest.raises(PreconditionFailed):
        saturate_normal(rep, a5)  # A5 lies inside no role
    nonnormal = next(s for s in all_subgroups(G) if s.order == 2)
    with pytest.raises(PreconditionFailed):
        saturate_normal(rep, nonnormal)


def _c2xs5_preimage_fixture():
    """C2 x S5 with N = the central C2, the full-preimage offender, and the
    complement 1 x S5 used to deflate roles back below N."""
    G2 = build_group(product(named("cyclic", 2), named("sym", 5)))
    N = next(M for M in normal_subgroups(G2) if M.order == 2)
    quot, proj = quotient_group(G2, N)
    from ingleton.search import search_offenders

    q_classes = search_offenders(quot)
    assert len(q_classes) == 1
    qrep = q_classes[0].representative

    def preimage(h):
        bits = 0
        for x in range(G2.n):
            if (h.bits >> proj(x)) & 1:
                bits |= 1 << x
        return Subgroup(G2, bits)

    full_pre = Quadruple(*(preimage(h) for h in qrep.subs))
    K = next(
        M for M in normal_subgroups(G2) if M.order == 120 and (M.bits & N.bits) == 1
    )
    return G2, N, proj, full_pre, K


def _partial_preimage(full_pre, K):
    """The full preimage with roles 1 and 3 cut down to the complement K."""
    G2 = full_pre.group
    return Quadruple(
        Subgroup(G2, full_pre.h1.bits & K.bits),
        full_pre.h2,
        Subgroup(G2, full_pre.h3.bits & K.bits),
        full_pre.h4,
    )


def test_saturate_normal_full_and_partial_preimages():
    G2, N, proj, full_pre, K = _c2xs5_preimage_fixture()
    assert is_offender(full_pre)
    # full preimage: N lies in every role, saturation is the identity and the
    # image mod N stays an offender
    sat = saturate_normal(full_pre, N)
    assert sat.bits_tuple() == full_pre.bits_tuple()
    img = Quadruple(*(image_subgroup(proj, h) for h in sat.subs))
    assert is_offender(img)

    # partial preimage: deflate roles 1 and 3 to the complement side, keeping
    # N inside roles 2 and 4 only; still an offender, and saturation inflates
    # it back to the full preimage
    partial = _partial_preimage(full_pre, K)
    assert partial.h1.order * 2 == full_pre.h1.order
    assert N.bits & partial.h1.bits == 1
    assert N.bits & partial.h2.bits == N.bits
    assert is_offender(partial)
    resat = saturate_normal(partial, N)
    assert resat.bits_tuple() == full_pre.bits_tuple()
    assert is_offender(resat)
    img2 = Quadruple(*(image_subgroup(proj, h) for h in resat.subs))
    assert is_offender(img2)


def test_saturate_normal_in_a_sparse_group(monkeypatch):
    # past groups.DEFAULT_ORDER_CAP a group has no table and join_bits closes
    # generators: N*H must still hold N where N lies outside H
    from ingleton import groups

    G2, N, _, full_pre, K = _c2xs5_preimage_fixture()
    partial = _partial_preimage(full_pre, K)
    monkeypatch.setattr(groups, "DEFAULT_ORDER_CAP", 10)
    G = build_group(G2.spec)
    assert G.mul_table is None
    sparse = Quadruple(*(Subgroup(G, h.bits) for h in partial.subs))
    resat = saturate_normal(sparse, Subgroup(G, N.bits))
    assert resat.bits_tuple() == full_pre.bits_tuple()


def test_exclusion_verdict_examples():
    G = build_group(named("sym", 4))
    subs = all_subgroups(G)
    c4 = next(s for s in subs if s.order == 4 and is_cyclic(s))
    s3 = next(s for s in subs if s.order == 6)
    d8 = next(s for s in subs if s.order == 8)
    a4 = next(s for s in subs if s.order == 12)

    v = exclusion_verdict(h1=c4)
    assert v.excluded and v.reason == "H1-cyclic"

    v = exclusion_verdict(h3=c4)
    assert v.excluded and v.reason == "H3-prime-power-cyclic"

    disjoint = next(s for s in subs if s.order == 2 and (s.bits & s3.bits) == 1)
    v = exclusion_verdict(h1=s3, h2=disjoint)
    assert v.excluded and v.reason == "trivial-H12"

    v = exclusion_verdict(h1=d8, h3=next(s for s in subs if s.order == 4 and s.contains(s) and (s.bits & d8.bits) == s.bits))
    assert v.excluded  # containment

    v = exclusion_verdict(h1=a4, h2=d8)
    assert v.excluded and v.reason == "product-H1H2"  # A4 is normal in S4


def test_exclusion_verdict_never_excludes_offenders(s5_classes, a4a4_classes, pgl27_classes):
    from ingleton.constructions import example_3xpsl27, supersoluble_family

    quads = [c.representative for c in s5_classes + a4a4_classes + pgl27_classes]
    quads.append(example_3xpsl27())
    quads.append(supersoluble_family(5).quadruple)
    for Q in quads:
        assert not exclusion_verdict(Q).excluded


def test_swap_invariance(s5_classes, a4a4_classes):
    for cls in s5_classes + a4a4_classes:
        Q = cls.representative
        swapped12 = Quadruple(Q.h2, Q.h1, Q.h3, Q.h4)
        swapped34 = Quadruple(Q.h1, Q.h2, Q.h4, Q.h3)
        assert is_offender(swapped12) and is_offender(swapped34)
        assert ratio(swapped12) == ratio(Q) == ratio(swapped34)
        assert abs(score(swapped12) - score(Q)) < 1e-12
        assert abs(score(swapped34) - score(Q)) < 1e-12


def _synthetic_terms(num, den, joint):
    return IngletonTerms(
        h1=den, h2=1, h34=1, h123=1, h124=1,
        h12=num, h13=1, h14=1, h23=1, h24=1, h1234=joint,
    )


def test_score_value_matches_published_normalization():
    # the published A6 score anomalies force dividing |G| by |H1234|
    assert abs(score_value(_synthetic_terms(16, 15, 1), 120) - 0.01348) < 5e-5
    assert abs(score_value(_synthetic_terms(9, 8, 2), 360) - 0.02268) < 5e-5
    assert abs(score_value(_synthetic_terms(16, 15, 3), 360) - 0.01348) < 5e-5
