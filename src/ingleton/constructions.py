"""Group constructors: named families, the supersoluble matrix family, and
the 3 x PSL(2,7) example quadruple.

Named constructors return compact ``Named`` specs (expanded deterministically
at build time) so that database records stay small and self-describing.
PSL/PGL/GL/SL are realized as permutation groups: Moebius action on the
projective line for the projective families, row-vector action on nonzero
vectors for the linear ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable

from . import engine
from .errors import BadParams, FieldTooSmall, OrderCapExceeded, UnknownName, VerificationFailed
from .fields import FieldTable, Mat3, field_create
from .groups import (
    DEFAULT_ORDER_CAP,
    DirectProduct,
    GroupSpec,
    GroupTable,
    MatrixGenerators,
    Named,
    PermutationGenerators,
    as_int,
    build_group,
    perm_spec,
)
from .permutations import parse_cycles
from .subgroups import Subgroup, generated_subgroup

# ---------------------------------------------------------------------------
# Projective and linear permutation actions


def _moebius_perm(F: FieldTable, mat: tuple[int, int, int, int]) -> tuple[int, ...]:
    """Action of a 2x2 matrix on the projective line, as a row action.

    Points are field elements 0..q-1 plus infinity at index q; the point
    (z : 1) maps to (z*a + c : z*b + d) for the row-major matrix (a, b, c, d).
    """
    a, b, c, d = mat
    q = F.q
    img = []
    for z in range(q):
        num = F.add(F.mul(z, a), c)
        den = F.add(F.mul(z, b), d)
        img.append(q if den == 0 else F.div(num, den))
    img.append(q if b == 0 else F.div(a, b))
    return tuple(img)


def _linear_perm(F: FieldTable, mat: tuple[int, int, int, int]) -> tuple[int, ...]:
    """Row action (x, y) -> (x*a + y*c, x*b + y*d) on the nonzero vectors."""
    a, b, c, d = mat
    q = F.q

    def idx(x, y):
        return x * q + y - 1

    img = [0] * (q * q - 1)
    for x in range(q):
        for y in range(q):
            if x == 0 and y == 0:
                continue
            nx = F.add(F.mul(x, a), F.mul(y, c))
            ny = F.add(F.mul(x, b), F.mul(y, d))
            img[idx(x, y)] = idx(nx, ny)
    return tuple(img)


def _projective_spec(q: int, full: bool) -> PermutationGenerators:
    F = field_create(q)
    z = F.zeta
    gens = [_moebius_perm(F, (1, 0, 1, 1))]  # translation z -> z+1
    if full:
        gens.append(_moebius_perm(F, (z, 0, 0, 1)))
        gens.append(_moebius_perm(F, (0, 1, 1, 0)))  # z -> 1/z
    else:
        gens.append(_moebius_perm(F, (z, 0, 0, F.inv[z])))
        gens.append(_moebius_perm(F, (0, F.neg[1], 1, 0)))  # z -> -1/z
    return PermutationGenerators(q + 1, tuple(gens))


def _linear_spec(q: int, full: bool) -> PermutationGenerators:
    F = field_create(q)
    z = F.zeta
    gens = [
        _linear_perm(F, (1, 1, 0, 1)),
        _linear_perm(F, (1, 0, 1, 1)),
    ]
    if full:
        gens.append(_linear_perm(F, (z, 0, 0, 1)))
    else:
        gens.append(_linear_perm(F, (z, 0, 0, F.inv[z])))
    return PermutationGenerators(q * q - 1, tuple(gens))


# ---------------------------------------------------------------------------
# Named families


def _cyclic(n: int) -> PermutationGenerators:
    if n == 1:
        return PermutationGenerators(1, ())
    return PermutationGenerators(n, (tuple(range(1, n)) + (0,),))


def _dihedral(n: int) -> PermutationGenerators:
    if n == 1:
        return PermutationGenerators(2, ((1, 0),))
    if n == 2:
        return PermutationGenerators(4, ((1, 0, 2, 3), (0, 1, 3, 2)))
    rot = tuple(range(1, n)) + (0,)
    refl = tuple((n - i) % n for i in range(n))
    return PermutationGenerators(n, (rot, refl))


def _sym(n: int) -> PermutationGenerators:
    if n == 1:
        return PermutationGenerators(1, ())
    if n == 2:
        return PermutationGenerators(2, ((1, 0),))
    cycle = tuple(range(1, n)) + (0,)
    transposition = (1, 0) + tuple(range(2, n))
    return PermutationGenerators(n, (cycle, transposition))


def _alt(n: int) -> PermutationGenerators:
    if n <= 2:
        return PermutationGenerators(n, ())
    three = (1, 2, 0) + tuple(range(3, n))
    if n == 3:
        return PermutationGenerators(3, (three,))
    if n % 2 == 1:
        big = tuple(range(1, n)) + (0,)
    else:
        big = (0,) + tuple(range(2, n)) + (1,)
    return PermutationGenerators(n, (three, big))


def wreath2_spec(inner: PermutationGenerators) -> PermutationGenerators:
    """(A x A) : C2 acting on two copies of A's points, swapped by an involution."""
    d = inner.degree
    gens = []
    for g in inner.generators:
        gens.append(tuple(g) + tuple(range(d, 2 * d)))
        gens.append(tuple(range(d)) + tuple(x + d for x in g))
    swap = tuple(range(d, 2 * d)) + tuple(range(d))
    gens.append(swap)
    return PermutationGenerators(2 * d, tuple(gens))


def _wreath2(inner: str, *params) -> PermutationGenerators:
    return wreath2_spec(NAMED_CONSTRUCTORS[inner].build(*params))


@dataclass(frozen=True)
class _Family:
    build: Callable[..., PermutationGenerators]  # checked parameters -> generators
    # A lower bound on the group's order from its one integer parameter;
    # wreath2, whose parameters name an inner family, has none of its own.
    least_order: Callable[[int], int] | None = None
    field_size: bool = False  # the parameter is q, the size of a supported field


# The named families.  Each lower bound is the exact order or the number of
# points the family acts on transitively (a transitive group has at least as
# many elements as points), so the order cap is checked from the parameter
# before any generator is built.
NAMED_CONSTRUCTORS = {
    "cyclic": _Family(_cyclic, lambda n: n),
    "dihedral": _Family(_dihedral, lambda n: 2 * n),
    "sym": _Family(_sym, lambda n: n),
    "alt": _Family(_alt, lambda n: n if n > 2 else 1),  # A1 and A2 are trivial
    "wreath2": _Family(_wreath2),
    "psl2": _Family(partial(_projective_spec, full=False), lambda q: q + 1, field_size=True),
    "pgl2": _Family(partial(_projective_spec, full=True), lambda q: q + 1, field_size=True),
    "gl2": _Family(partial(_linear_spec, full=True), lambda q: q * q - 1, field_size=True),
    "sl2": _Family(partial(_linear_spec, full=False), lambda q: q * q - 1, field_size=True),
}


def _checked(name: str, params, cap: int | None) -> tuple[tuple, int]:
    """Check a named family's parameters; return them normalised, with a lower
    bound on the group's order.

    Ints and decimal-digit strings are taken (``groups.as_int``), and nothing
    else, so a float or a bool raises BadParams; wreath2's parameters keep the
    inner family's name first.  A bound past ``cap`` (when given) raises
    OrderCapExceeded before the field size is checked or a generator built.
    """
    family = NAMED_CONSTRUCTORS.get(name)
    if family is None:
        raise UnknownName(f"unknown constructor {name!r}; known: {', '.join(NAMED_CONSTRUCTORS)}")
    params = tuple(params)
    if family.least_order is None:
        if not params:
            raise BadParams(f"{name} takes an inner named constructor, e.g. {name}:alt:4")
        inner = str(params[0])
        inner_params, inner_least = _checked(inner, params[1:], cap)
        params, least = (inner, *inner_params), 2 * inner_least**2
    else:
        try:
            params = tuple(as_int(p, "parameter") for p in params)
        except (BadParams, ValueError):
            raise BadParams(f"non-integer parameter in {':'.join(map(str, (name, *params)))}") from None
        if len(params) != 1:
            raise BadParams(f"{name} takes one parameter, got {len(params)}")
        if params[0] < 1:
            raise BadParams(f"{name} parameter must be >= 1, got {params[0]}")
        least = family.least_order(params[0])
    if cap is not None and least > cap:
        raise OrderCapExceeded(
            f"{':'.join(map(str, (name, *params)))} has order at least {least}, "
            f"past the order cap {cap}; raise the cap to allow this build"
        )
    if family.field_size:
        field_create(params[0])  # raises NotPrimePower unless GF(q) is supported
    return params, least


def construct_named(name: str, params=()) -> Named:
    """Validate a named family's parameters and return its compact spec.

    Builds no generators; the order cap is checked when the spec is built.
    """
    return Named(name, _checked(name, params, None)[0])


def expand_named(name: str, params: tuple, cap: int = DEFAULT_ORDER_CAP) -> PermutationGenerators:
    """The generators of a named family, once its parameters pass the check
    against the order cap."""
    params, _ = _checked(name, params, cap)
    return NAMED_CONSTRUCTORS[name].build(*params)


def parse_named(text: str) -> GroupSpec:
    """Parse the ``--named`` grammar into a spec.

    A factor is ``name:p1:...`` with integer parameters, except that wreath2's
    first parameter is an inner factor's name (``wreath2:alt:4``); factors
    joined by ``*`` make a direct product, folded from the left.  Whitespace
    around a factor is ignored; an empty factor is an error.
    """
    factors = [f.strip() for f in text.split("*")]
    spec = None
    for k, factor in enumerate(factors, 1):
        if not factor:
            raise BadParams(f"empty factor {k} of {len(factors)} in group name {text!r}")
        name, *params = factor.split(":")
        named = construct_named(name, params)
        spec = named if spec is None else DirectProduct(spec, named)
    return spec


# ---------------------------------------------------------------------------
# Metacyclic helpers (used by the negative-control suites)


def metacyclic_spec(m: int, n: int, r: int) -> PermutationGenerators:
    """Split metacyclic group of order m*n: an m-cycle extended by the
    multiplication-by-r action, realized on m + n points."""
    if m < 1 or n < 1:
        raise BadParams("metacyclic parameters must be positive")
    if math.gcd(r, m) != 1 or pow(r, n, m) != 1 % m:
        raise BadParams(f"need gcd(r,m)=1 and r^n = 1 mod m; got m={m}, n={n}, r={r}")
    a = tuple((i + 1) % m for i in range(m)) + tuple(range(m, m + n))
    b = tuple((r * i) % m for i in range(m)) + tuple(
        m + (j + 1) % n for j in range(n)
    )
    return PermutationGenerators(m + n, (a, b))


def dicyclic_spec(k: int) -> PermutationGenerators:
    """Dicyclic group of order 4k (generalized quaternion for k a 2-power),
    realized by right translations on its own 4k elements."""
    if k < 1:
        raise BadParams("dicyclic parameter must be >= 1")
    m = 2 * k

    def enc(i, e):
        return i + m * e

    a = [0] * (4 * k)
    b = [0] * (4 * k)
    for i in range(m):
        a[enc(i, 0)] = enc((i + 1) % m, 0)
        a[enc(i, 1)] = enc((i - 1) % m, 1)
        b[enc(i, 0)] = enc(i, 1)
        b[enc(i, 1)] = enc((i + k) % m, 0)
    return PermutationGenerators(4 * k, (tuple(a), tuple(b)))


# ---------------------------------------------------------------------------
# The supersoluble matrix family


@dataclass(frozen=True)
class FamilyQuadruple:
    """The designated offender quadruple inside the order q^3(q-1) matrix group."""

    group: GroupTable
    h1: Subgroup
    h2: Subgroup
    h3: Subgroup
    h4: Subgroup
    q: int
    zeta: int
    elements: dict  # name -> element id for u1..u4, t, h2, h3, x
    raised_cap: bool
    small_field_warning: bool

    @property
    def quadruple(self) -> engine.Quadruple:
        return engine.Quadruple(self.h1, self.h2, self.h3, self.h4)


def _family_matrices(F: FieldTable, zeta: int) -> dict[str, Mat3]:
    z = zeta
    zi = F.inv[z]
    one_minus_z = F.sub(1, z)
    inv_one_minus_z = F.div(1, one_minus_z)  # q >= 3 keeps this well-defined
    two = F.add(1, 1)
    alpha = F.div(F.mul(z, F.sub(z, two)), one_minus_z)
    minus_2z = F.neg[F.mul(two, z)]
    neg1 = F.neg[1]
    return {
        "u1": (1, 1, 0, 0, 1, 0, 0, 0, 1),
        "u2": (1, 1, alpha, 0, 1, minus_2z, 0, 0, 1),
        "u3": (1, 0, inv_one_minus_z, 0, 1, 1, 0, 0, 1),
        "u4": (1, 0, 0, 0, 1, 1, 0, 0, 1),
        "t": (z, 0, 0, 0, 1, 0, 0, 0, zi),
        "h2": (z, 0, 0, 0, 1, 1, 0, 0, zi),
        "h3": (z, 1, 0, 0, 1, 0, 0, 0, zi),
        "x": (neg1, inv_one_minus_z, 0, 0, 1, 0, 0, 0, neg1),
    }


# The largest family order built.  q = 32 (order 1,015,808) is the largest
# field size under it; q = 64 would make order 16,515,072.
MAX_FAMILY_ORDER = 1 << 20


def supersoluble_family(q: int, allow_small: bool = False, zeta: int | None = None) -> FamilyQuadruple:
    """Build the order q^3(q-1) upper-triangular matrix group over GF(q) with
    its four designated Frobenius subgroups of order q(q-1).

    Needs q >= 4 so the 1/(1-zeta) entries exist and the result violates the
    Ingleton inequality; q = 3 is allowed behind ``allow_small`` to exercise
    the non-offender boundary, and q = 2 is structurally impossible.  An
    order past ``MAX_FAMILY_ORDER`` raises OrderCapExceeded before the field
    table or any generator is built.
    """
    if q == 2:
        raise FieldTooSmall("q=2 has zeta=1, which makes the 1/(1-zeta) entries undefined")
    if q == 3 and not allow_small:
        raise FieldTooSmall("q=3 yields ratio 8/9 < 1; pass allow_small=True to build it anyway")
    if q < 2:
        raise FieldTooSmall(f"q={q} is not a field size")
    order = q**3 * (q - 1)
    if order > MAX_FAMILY_ORDER:
        raise OrderCapExceeded(
            f"q={q} gives order q^3(q-1) = {order}, past the family's cap {MAX_FAMILY_ORDER}"
        )
    F = field_create(q)
    if zeta is None:
        zeta = F.zeta
    elif not 0 < zeta < q:
        raise BadParams(f"zeta={zeta} is not a nonzero element 1..{q - 1} of GF({q})")
    elif F.element_order(zeta) != q - 1:
        raise BadParams(f"{zeta} is not a primitive element of GF({q})")
    mats = _family_matrices(F, zeta)
    spec = MatrixGenerators(q, (mats["u1"], mats["u4"], mats["t"]))
    G = build_group(spec, cap=order)
    if G.n != order:
        raise VerificationFailed(f"closure gave order {G.n}, expected q^3(q-1) = {order}")
    ids = {}
    for name, mat in mats.items():
        eid = G.element_id(mat)
        if eid is None:
            raise VerificationFailed(f"matrix {name} is not an element of the built group")
        ids[name] = eid
    h1 = generated_subgroup(G, [ids["u1"], ids["t"]])
    h2 = generated_subgroup(G, [ids["u2"], ids["h2"]])
    h3 = generated_subgroup(G, [ids["u3"], ids["h3"]])
    h4 = generated_subgroup(G, [ids["u4"], ids["t"]])
    return FamilyQuadruple(
        group=G,
        h1=h1,
        h2=h2,
        h3=h3,
        h4=h4,
        q=q,
        zeta=zeta,
        elements=ids,
        raised_cap=order > DEFAULT_ORDER_CAP,
        small_field_warning=(q == 3),
    )


@dataclass(frozen=True)
class FamilyReport:
    q: int
    order: int
    zeta: int
    clauses: tuple[tuple[str, bool], ...]
    ratio: Fraction
    offender: bool
    score: float
    raised_cap: bool
    small_field_warning: bool

    @property
    def all_passed(self) -> bool:
        return all(ok for _, ok in self.clauses)

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "order": self.order,
            "zeta": self.zeta,
            "clauses": {name: ok for name, ok in self.clauses},
            "ratio": {"num": self.ratio.numerator, "den": self.ratio.denominator},
            "offender": self.offender,
            "score": self.score,
            "raised_cap": self.raised_cap,
            "small_field_warning": self.small_field_warning,
            "all_passed": self.all_passed,
        }


def verify_family(fq: FamilyQuadruple, strict: bool = True) -> FamilyReport:
    """Check every structural clause of the family quadruple exhaustively.

    With ``strict`` (the default) the first failed clause raises
    VerificationFailed; otherwise the report carries the per-clause booleans.
    """
    G = fq.group
    q = fq.q
    ids = fq.elements
    h1, h2, h3, h4 = fq.h1, fq.h2, fq.h3, fq.h4

    def normalizes(actor, unipotent, h):
        # The actor must normalize the unipotent kernel of h: the closure of
        # the conjugation orbit of the unipotent generator.  For prime q that
        # kernel is just the cyclic group on the generator; for prime powers
        # it is the full order-q root subgroup.  Conjugation by the actor is a
        # permutation, so the orbit is its cycle through the generator.
        orbit = [unipotent]
        y = G.conjugate(actor, unipotent)
        while y != unipotent:
            orbit.append(y)
            y = G.conjugate(actor, y)
        kernel = generated_subgroup(G, sorted(orbit))
        return kernel.order == q and kernel.bits & h.bits == kernel.bits

    clauses: list[tuple[str, bool]] = []
    clauses.append(("group_order", G.n == q**3 * (q - 1)))
    clauses.append(
        (
            "frobenius_normalizers",
            normalizes(ids["t"], ids["u1"], h1)
            and normalizes(ids["t"], ids["u4"], h4)
            and normalizes(ids["h2"], ids["u2"], h2)
            and normalizes(ids["h3"], ids["u3"], h3),
        )
    )
    expected = q * (q - 1)
    clauses.append(("subgroup_orders", all(h.order == expected for h in (h1, h2, h3, h4))))
    side = q - 1
    clauses.append(
        (
            "side_intersections",
            (h1.bits & h3.bits).bit_count() == side
            and (h1.bits & h4.bits).bit_count() == side
            and (h2.bits & h3.bits).bit_count() == side
            and (h2.bits & h4.bits).bit_count() == side,
        )
    )
    clauses.append(("h34_trivial", h3.bits & h4.bits == 1))
    clauses.append(("h12_involution", h1.bits & h2.bits == (1 | (1 << ids["x"]))))
    b123 = h1.bits & h2.bits & h3.bits
    b124 = h1.bits & h2.bits & h4.bits
    clauses.append(("triple_intersections", b123 == 1 and b124 == 1))

    quad = fq.quadruple
    terms = engine.ingleton_terms(quad)
    ratio = Fraction(terms.rhs, terms.lhs)
    clauses.append(("ratio_formula", ratio == Fraction(2 * (q - 1) ** 2, q**2)))
    offender = terms.lhs < terms.rhs
    clauses.append(("offender_iff_ratio", offender == (ratio > 1)))

    if strict:
        for name, ok in clauses:
            if not ok:
                raise VerificationFailed(f"family clause failed: {name} (q={q})")
    return FamilyReport(
        q=q,
        order=G.n,
        zeta=fq.zeta,
        clauses=tuple(clauses),
        ratio=ratio,
        offender=offender,
        score=engine.score_value(terms, G.n),
        raised_cap=fq.raised_cap,
        small_field_warning=fq.small_field_warning,
    )


# ---------------------------------------------------------------------------
# The 3 x PSL(2,7) quadruple on 11 points

PSL27_GENERATORS = ("(1,2,3)", "(6,9,10)(7,8,11)", "(4,11,5)(7,8,9)")
PSL27_G = "(1,2,3)(6,9,10)(7,8,11)"
PSL27_H = "(1,2,3)(4,10,5)(6,9,7)"
PSL27_X = "(4,11)(5,10)(6,9)(7,8)"


def spec_3xpsl27() -> PermutationGenerators:
    return perm_spec(PSL27_GENERATORS, degree=11)


def example_3xpsl27() -> engine.Quadruple:
    """The explicit order-504 offender quadruple on 11 points.

    H1 and H2 are A4's meeting in an involution, H3 and H4 are order-21
    Frobenius groups meeting trivially; every other pairwise meet has order 3.
    """
    G = build_group(spec_3xpsl27())
    if G.n != 504:
        raise VerificationFailed(f"3 x PSL(2,7) build gave order {G.n}")

    def elem(cycles: str) -> int:
        return G.element_id(parse_cycles(cycles, 11))

    g = elem(PSL27_G)
    h = elem(PSL27_H)
    x = elem(PSL27_X)
    xi = G.inv[x]
    h_conj = G.mul(G.mul(xi, h), x)
    g_conj = G.mul(G.mul(xi, g), x)
    return engine.Quadruple(
        generated_subgroup(G, [g, x]),
        generated_subgroup(G, [h, x]),
        generated_subgroup(G, [g, h_conj]),
        generated_subgroup(G, [h, g_conj]),
    )
