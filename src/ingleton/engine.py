"""Evaluation, classification and reduction of subgroup quadruples.

The central inequality compares, over a quadruple (H1, H2, H3, H4),

    |H1| |H2| |H34| |H123| |H124|   vs   |H12| |H13| |H14| |H23| |H24|

where subscripts denote intersections.  A quadruple is an offender exactly
when the left side is strictly smaller; everything here is exact integer or
rational arithmetic, with floats confined to the reported score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import ParentMismatch, PreconditionFailed
from .groups import GroupTable, bits_to_ids, closure_ids
from .groups import quotient_by_bits  # not called here; perfbench/workloads.py wraps this name
from .subgroups import (
    Subgroup,
    is_cyclic,
    is_cyclic_prime_power,
    is_normal,
    is_product_subgroup,
    join_bits,
    normal_subgroups,
)


@dataclass(frozen=True)
class Quadruple:
    """Four subgroups of one group, in fixed role order."""

    h1: Subgroup
    h2: Subgroup
    h3: Subgroup
    h4: Subgroup

    def __post_init__(self):
        parent = self.h1.parent
        if any(h.parent is not parent for h in (self.h2, self.h3, self.h4)):
            raise ParentMismatch("quadruple subgroups belong to different groups")

    @property
    def group(self) -> GroupTable:
        return self.h1.parent

    @property
    def subs(self) -> tuple[Subgroup, Subgroup, Subgroup, Subgroup]:
        return (self.h1, self.h2, self.h3, self.h4)

    def bits_tuple(self) -> tuple[int, int, int, int]:
        return (self.h1.bits, self.h2.bits, self.h3.bits, self.h4.bits)


@dataclass(frozen=True)
class IngletonTerms:
    """The eleven subgroup orders entering the inequality."""

    h1: int
    h2: int
    h34: int
    h123: int
    h124: int
    h12: int
    h13: int
    h14: int
    h23: int
    h24: int
    h1234: int

    @property
    def lhs(self) -> int:
        return self.h1 * self.h2 * self.h34 * self.h123 * self.h124

    @property
    def rhs(self) -> int:
        return self.h12 * self.h13 * self.h14 * self.h23 * self.h24

    def to_json(self) -> dict:
        return {
            "h1": self.h1,
            "h2": self.h2,
            "h34": self.h34,
            "h123": self.h123,
            "h124": self.h124,
            "h12": self.h12,
            "h13": self.h13,
            "h14": self.h14,
            "h23": self.h23,
            "h24": self.h24,
            "h1234": self.h1234,
        }


def ingleton_terms(Q: Quadruple) -> IngletonTerms:
    b1, b2, b3, b4 = Q.bits_tuple()
    b12 = b1 & b2
    b123 = b12 & b3
    return IngletonTerms(
        h1=b1.bit_count(),
        h2=b2.bit_count(),
        h34=(b3 & b4).bit_count(),
        h123=b123.bit_count(),
        h124=(b12 & b4).bit_count(),
        h12=b12.bit_count(),
        h13=(b1 & b3).bit_count(),
        h14=(b1 & b4).bit_count(),
        h23=(b2 & b3).bit_count(),
        h24=(b2 & b4).bit_count(),
        h1234=(b123 & b4).bit_count(),
    )


def is_offender(Q: Quadruple) -> bool:
    t = ingleton_terms(Q)
    return t.lhs < t.rhs


def ratio(Q: Quadruple) -> Fraction:
    t = ingleton_terms(Q)
    return Fraction(t.rhs, t.lhs)


def score_value(terms: IngletonTerms, group_order: int) -> float:
    """ln(rhs/lhs) normalized by ln(|G| / |H1234|); 0.0 when that log vanishes."""
    denom = math.log(group_order) - math.log(terms.h1234)
    if denom == 0.0:
        return 0.0
    return (math.log(terms.rhs) - math.log(terms.lhs)) / denom


def score(Q: Quadruple) -> float:
    return score_value(ingleton_terms(Q), Q.group.n)


@dataclass
class IngletonReport:
    """Everything recorded about one evaluated quadruple."""

    terms: IngletonTerms
    lhs: int
    rhs: int
    ratio: Fraction
    score: float
    offender: bool
    generative: bool | None = None
    irreducible: bool | None = None
    indomitable: bool | None = None

    def flags_json(self) -> dict:
        return {
            "offender": self.offender,
            "generative": self.generative,
            "irreducible": self.irreducible,
            "indomitable": self.indomitable,
        }


def evaluate(
    Q: Quadruple,
    with_generative: bool = True,
    with_irreducible: bool = False,
    with_indomitable: bool = False,
) -> IngletonReport:
    G = Q.group
    t = ingleton_terms(Q)
    report = IngletonReport(
        terms=t,
        lhs=t.lhs,
        rhs=t.rhs,
        ratio=Fraction(t.rhs, t.lhs),
        score=score_value(t, G.n),
        offender=t.lhs < t.rhs,
    )
    if with_generative or with_irreducible or with_indomitable:
        report.generative = is_generative(Q)
    if with_irreducible or with_indomitable:
        normals = [N for N in normal_subgroups(G) if N.order > 1]
        # the core of a role is the largest normal subgroup of G inside it
        report.irreducible = report.generative and not any(
            h.bits & N.bits == N.bits for N in normals for h in Q.subs
        )
    if with_indomitable:
        # The image of Hi in G/N is NHi/N, and subgroups containing N meet as
        # their images do (correspondence theorem), so every order on both
        # sides is |N| times its image's: the image offends in G/N iff
        # (NH1, ..., NH4) offends in G.
        report.indomitable = report.irreducible and not any(
            is_offender(Quadruple(*(Subgroup(G, _normal_product(N, h)) for h in Q.subs)))
            for N in normals
            if N.order < G.n
        )
    return report


def is_generative(Q: Quadruple) -> bool:
    """True iff the four subgroups together generate the whole group."""
    G = Q.group
    u = Q.h1.bits | Q.h2.bits | Q.h3.bits | Q.h4.bits
    full = (1 << G.n) - 1
    if u == full:
        return True
    # one join onto H1, which stops by Lagrange once it must be all of G
    return join_bits(G, Q.h1.bits, Q.h2.gens + Q.h3.gens + Q.h4.gens, base_gens=Q.h1.gens) == full


def is_irreducible(Q: Quadruple) -> bool:
    """Generative, with no role containing a nontrivial normal subgroup of G."""
    return evaluate(Q, with_irreducible=True).irreducible


def is_indomitable(Q: Quadruple) -> bool:
    """No quotient by a nontrivial normal subgroup carries the image to an offender.

    Only defined for irreducible quadruples, per the classification chain.
    """
    report = evaluate(Q, with_indomitable=True)
    if not report.irreducible:
        raise PreconditionFailed("indomitability is defined for irreducible quadruples")
    return report.indomitable


# ---------------------------------------------------------------------------
# Reductions


def _generated_from_bits(G: GroupTable, *member_bits: int) -> Subgroup:
    combined = 0
    for b in member_bits:
        combined |= b
    return Subgroup(G, closure_ids(G, bits_to_ids(combined)))


# Each rule (role, (Hij, Hkl)) replaces the role by <Hij, Hkl>.
_SHRINK_H1 = ("h1", ("h13", "h14"))
_REDUCTION_RULES = (
    ("h1", ("h12", "h13")),
    ("h1", ("h12", "h14")),
    _SHRINK_H1,
    ("h2", ("h12", "h23")),
    ("h2", ("h12", "h24")),
    ("h2", ("h23", "h24")),
    ("h3", ("h13", "h23")),
    ("h4", ("h14", "h24")),
)


def _apply_rule(Q: Quadruple, rule) -> Quadruple:
    role, pairs = rule
    b = Q.bits_tuple()
    # "hij" names the intersection of roles i and j
    meets = (b[int(p[1]) - 1] & b[int(p[2]) - 1] for p in pairs)
    return replace(Q, **{role: _generated_from_bits(Q.group, *meets)})


def shrink_h1(Q: Quadruple) -> Quadruple:
    """Replace H1 by <H13, H14>; preserves offender status."""
    return _apply_rule(Q, _SHRINK_H1)


def saturate(Q: Quadruple) -> Quadruple:
    """Iterate the pairwise-intersection reductions to their fixed point.

    The result satisfies H1 = <H12,H13> = <H12,H14> = <H13,H14> and the
    symmetric identities for H2, plus H3 = <H13,H23> and H4 = <H14,H24>.
    Each single step preserves offender status, so the fixed point does too.
    """
    while True:
        for rule in _REDUCTION_RULES:
            reduced = _apply_rule(Q, rule)
            if reduced != Q:
                Q = reduced
                break
        else:
            return Q


def saturate_normal(Q: Quadruple, N: Subgroup) -> Quadruple:
    """Extend every role by a normal subgroup already inside one of them.

    Given an offender with N normal and N <= some H_i, the quadruple
    (N H1, ..., N H4) is again an offender and its image mod N is an offender
    in the quotient.
    """
    G = Q.group
    if N.parent is not G:
        raise ParentMismatch("normal subgroup belongs to a different group")
    if not is_normal(G, N):
        raise PreconditionFailed("saturation needs a normal subgroup")
    if not any(h.bits & N.bits == N.bits for h in Q.subs):
        raise PreconditionFailed("the normal subgroup must lie inside one of the four roles")
    if not is_offender(Q):
        raise PreconditionFailed("saturation is only offender-preserving on offenders")
    return Quadruple(
        *(Subgroup(G, _normal_product(N, h), tuple(dict.fromkeys(N.gens + h.gens))) for h in Q.subs)
    )


def _normal_product(N: Subgroup, H: Subgroup) -> int:
    """Membership of N*H for N normal in G, which is already the join <N, H>."""
    return join_bits(N.parent, N.bits, H.gens, base_gens=())


# ---------------------------------------------------------------------------
# Exclusion criteria


@dataclass(frozen=True)
class Verdict:
    excluded: bool
    reason: str | None = None

    def __bool__(self):
        return self.excluded


UNDETERMINED = Verdict(False, None)

_PAIRS_NONTRIVIAL = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4))


def exclusion_verdict(
    quad: Quadruple | None = None,
    *,
    h1: Subgroup | None = None,
    h2: Subgroup | None = None,
    h3: Subgroup | None = None,
    h4: Subgroup | None = None,
) -> Verdict:
    """Decide whether assigned roles already force the inequality to hold.

    Sound by construction: a quadruple is only Excluded when one of the proven
    criteria applies (trivial pair intersections, containments, cyclic H1/H2,
    prime-power cyclic H3/H4, H1H2 a subgroup, or a factorized H12), so a true
    offender is never discarded.  Unassigned roles are simply not consulted.
    """
    roles = {1: h1, 2: h2, 3: h3, 4: h4}
    if quad is not None:
        roles = {1: quad.h1, 2: quad.h2, 3: quad.h3, 4: quad.h4}
    for i, j in _PAIRS_NONTRIVIAL:
        a, b = roles[i], roles[j]
        if a is not None and b is not None and a.bits & b.bits == 1:
            return Verdict(True, f"trivial-H{i}{j}")
    assigned = [(i, h) for i, h in roles.items() if h is not None]
    for i, a in assigned:
        for j, b in assigned:
            if i != j and a.bits & b.bits == a.bits:
                return Verdict(True, f"containment-H{i}-in-H{j}")
    for i in (1, 2):
        if roles[i] is not None and is_cyclic(roles[i]):
            return Verdict(True, f"H{i}-cyclic")
    for i in (3, 4):
        if roles[i] is not None and is_cyclic_prime_power(roles[i]):
            return Verdict(True, f"H{i}-prime-power-cyclic")
    if all(h is not None for h in roles.values()):
        t = ingleton_terms(Quadruple(roles[1], roles[2], roles[3], roles[4]))
        if t.h123 * t.h124 == t.h12 * t.h1234:
            return Verdict(True, "factorized-H12")
    if roles[1] is not None and roles[2] is not None:
        G = roles[1].parent
        if is_normal(G, roles[1]) or is_normal(G, roles[2]) or is_product_subgroup(roles[1], roles[2]):
            return Verdict(True, "product-H1H2")
    return UNDETERMINED
