"""Fully enumerated finite groups built from generator specs.

A group is closed over its generators by breadth-first search with a fixed
generator order, so element ids are stable across runs and platforms: the
identity is always element 0 and the rest follow in discovery order.  Each
element other than the identity is its BFS parent times one generator, and
that tree gives every inverse with one concrete product per element.  Groups
within the default order cap carry a flat n*n multiplication table, filled a
row at a time by reading the parent's row through one generator's column
(an ``itemgetter`` call per row); larger builds (raised order cap) fall back
to multiplying concrete elements on demand, which is all the matrix-family
verification needs.

The BFS tree also spells every element as a word in the spec's generators,
read off the parent pointers on demand, so subgroups can be serialized as
generator words and re-verified later without reference to the internal ids
of any particular run.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Union

from . import permutations as perms
from .errors import (
    BadParams,
    InvalidGenerator,
    NotNormal,
    OrderCapExceeded,
    ParentMismatch,
)
from .fields import MAT3_IDENTITY, Mat3, field_create, mat_label

DEFAULT_ORDER_CAP = 2048  # also the largest order for which the n*n table is stored


# ---------------------------------------------------------------------------
# Group specs


@dataclass(frozen=True)
class PermutationGenerators:
    degree: int
    generators: tuple[tuple[int, ...], ...]  # 0-indexed image arrays


@dataclass(frozen=True)
class MatrixGenerators:
    q: int
    generators: tuple[Mat3, ...]  # row-major 3x3 over GF(q)


@dataclass(frozen=True)
class Named:
    name: str
    params: tuple  # as normalised by the named-family table in constructions


@dataclass(frozen=True)
class DirectProduct:
    left: "GroupSpec"
    right: "GroupSpec"


@dataclass(frozen=True)
class Quotient:
    base: "GroupSpec"
    normal_words: tuple[str, ...]  # generator words for the kernel


GroupSpec = Union[PermutationGenerators, MatrixGenerators, Named, DirectProduct, Quotient]


def perm_spec(generators, degree: int | None = None) -> PermutationGenerators:
    """Build a permutation spec from cycle strings or image arrays."""
    imgs = []
    maxdeg = degree or 1
    for g in generators:
        if isinstance(g, str):
            img = perms.parse_cycles(g, degree)
        else:
            img = tuple(int(i) for i in g)
        imgs.append(img)
        maxdeg = max(maxdeg, len(img))
    if degree is None:
        degree = maxdeg
    padded = []
    for img in imgs:
        if len(img) < degree:
            img = img + tuple(range(len(img), degree))
        padded.append(perms.validate_perm(img, degree))
    return PermutationGenerators(degree, tuple(padded))


def matrix_spec(q: int, generators) -> MatrixGenerators:
    field = field_create(q)
    mats = []
    for m in generators:
        m = tuple(int(x) for x in m)
        if len(m) != 9 or any(not 0 <= x < q for x in m):
            raise InvalidGenerator(f"matrix {m!r} is not a row-major 3x3 over GF({q})")
        if field.mat_det(m) == 0:
            raise InvalidGenerator(f"matrix {mat_label(m)} is singular over GF({q})")
        mats.append(m)
    return MatrixGenerators(q, tuple(mats))


def spec_to_json(spec: GroupSpec) -> dict:
    if isinstance(spec, PermutationGenerators):
        return {
            "variant": "permutation",
            "degree": spec.degree,
            "generators": [perms.format_cycles(g) for g in spec.generators],
        }
    if isinstance(spec, MatrixGenerators):
        return {
            "variant": "matrix",
            "q": spec.q,
            "generators": [list(g) for g in spec.generators],
        }
    if isinstance(spec, Named):
        return {"variant": "named", "name": spec.name, "params": list(spec.params)}
    if isinstance(spec, DirectProduct):
        return {
            "variant": "direct_product",
            "left": spec_to_json(spec.left),
            "right": spec_to_json(spec.right),
        }
    if isinstance(spec, Quotient):
        return {
            "variant": "quotient",
            "base": spec_to_json(spec.base),
            "normal_words": list(spec.normal_words),
        }
    raise BadParams(f"unknown spec type {type(spec).__name__}")


def spec_from_json(data: dict) -> GroupSpec:
    try:
        variant = data["variant"]
    except (TypeError, KeyError):
        raise BadParams("group spec JSON must be an object with a 'variant' key") from None
    if variant == "permutation":
        return perm_spec(data["generators"], int(data["degree"]))
    if variant == "matrix":
        return matrix_spec(int(data["q"]), data["generators"])
    if variant == "named":
        from .constructions import construct_named  # registry lives with the constructors

        return construct_named(str(data["name"]), data["params"])
    if variant == "direct_product":
        return DirectProduct(spec_from_json(data["left"]), spec_from_json(data["right"]))
    if variant == "quotient":
        return Quotient(spec_from_json(data["base"]), tuple(str(w) for w in data["normal_words"]))
    raise BadParams(f"unknown spec variant {variant!r}")


# ---------------------------------------------------------------------------
# Generator words

_WORD_TOKEN = re.compile(r"^g(\d+)(?:\^(\d+))?$")


def format_word(word: tuple[int, ...]) -> str:
    """Render a generator-index word: () -> "e", (0,1,1) -> "g0*g1^2"."""
    if not word:
        return "e"
    parts = []
    i = 0
    while i < len(word):
        j = i
        while j < len(word) and word[j] == word[i]:
            j += 1
        parts.append(f"g{word[i]}" + (f"^{j - i}" if j - i > 1 else ""))
        i = j
    return "*".join(parts)


def parse_word(text: str) -> tuple[int, ...]:
    text = text.strip()
    if text in ("e", ""):
        return ()
    out: list[int] = []
    for token in text.split("*"):
        m = _WORD_TOKEN.match(token.strip())
        if not m:
            raise BadParams(f"unparseable generator word {text!r}")
        out.extend([int(m.group(1))] * int(m.group(2) or 1))
    return tuple(out)


# ---------------------------------------------------------------------------
# The group table


class GroupTable:
    """Immutable multiplication structure over element ids 0..n-1."""

    def __init__(self, spec, n, gen_ids, parent, label_c, mul_table, inv, mul_c, elems, ids):
        self.spec = spec
        self.n = n
        self.identity = 0
        self.gen_ids = tuple(gen_ids)
        self._parent = parent  # BFS tree: e_i = e_p * g_k for (p, k) = parent[i]
        self._label_c = label_c
        self.mul_table = mul_table  # flat n*n list, or None for sparse groups
        self.inv = inv
        self._mul_c = mul_c
        self._elems = elems
        self._ids = ids
        self._cache: dict = {}

    @cached_property
    def labels(self) -> list[str]:
        """A printable label per element, formatted on first use: no search or
        verification step reads them, only the labels of products and quotients."""
        return [self._label_c(e) for e in self._elems]

    def mul(self, a: int, b: int) -> int:
        if self.mul_table is not None:
            return self.mul_table[a * self.n + b]
        return self._ids[self._mul_c(self._elems[a], self._elems[b])]

    def conjugate(self, g: int, x: int) -> int:
        """g * x * g^-1."""
        return self.mul(self.mul(g, x), self.inv[g])

    def require_dense(self):
        if self.mul_table is None:
            raise OrderCapExceeded(
                f"group of order {self.n} has no multiplication table (stored up to order "
                f"{DEFAULT_ORDER_CAP}); this operation needs it"
            )

    def word(self, elem: int) -> tuple[int, ...]:
        """The generator-index word of an element: its path from the root of the BFS tree."""
        out = []
        while elem:
            elem, k = self._parent[elem]
            out.append(k)
        return tuple(reversed(out))

    def word_str(self, elem: int) -> str:
        return format_word(self.word(elem))

    def eval_word(self, word) -> int:
        if isinstance(word, str):
            word = parse_word(word)
        x = 0
        for k in word:
            if not 0 <= k < len(self.gen_ids):
                raise BadParams(f"word references generator g{k}; group has {len(self.gen_ids)}")
            x = self.mul(x, self.gen_ids[k])
        return x

    def cyclic_subgroups(self) -> list[int]:
        """``cyc[a]``: the membership bitset of the cyclic subgroup <a>, cached."""
        cyc = self._cache.get("cyclic_subgroups")
        if cyc is None:
            cyc = [1] * self.n
            for a in range(1, self.n):
                bits, x = 1, a
                while x != 0:
                    bits |= 1 << x
                    x = self.mul(x, a)
                cyc[a] = bits
            self._cache["cyclic_subgroups"] = cyc
        return cyc

    def element_orders(self) -> list[int]:
        return [b.bit_count() for b in self.cyclic_subgroups()]

    def conj_perm(self, g: int) -> list[int]:
        """The permutation x -> g*x*g^-1 of element ids, cached per g."""
        table = self._cache.setdefault("conj_perms", {})
        perm = table.get(g)
        if perm is None:
            gi = self.inv[g]
            if self.mul_table is not None:
                n, mt = self.n, self.mul_table
                grow = g * n
                perm = [mt[mt[grow + x] * n + gi] for x in range(n)]
            else:
                perm = [self.mul(self.mul(g, x), gi) for x in range(self.n)]
            table[g] = perm
        return perm

    def __repr__(self):
        return f"GroupTable(order={self.n}, spec={type(self.spec).__name__})"


def closure_ids(G: GroupTable, seed_ids) -> int:
    """Membership bitset of the subgroup generated by the given element ids."""
    bits = 1  # identity
    frontier = [0]
    seeds = []
    for s in seed_ids:
        if not 0 <= s < G.n:
            raise BadParams(f"element id {s} out of range for group of order {G.n}")
        if not (bits >> s) & 1:
            bits |= 1 << s
            frontier.append(s)
            seeds.append(s)
    if not seeds:
        return bits
    mt, n = G.mul_table, G.n
    while frontier:
        nxt = []
        for x in frontier:
            for s in seeds:
                y = mt[x * n + s] if mt is not None else G.mul(x, s)
                if not (bits >> y) & 1:
                    bits |= 1 << y
                    nxt.append(y)
        frontier = nxt
    return bits


def bits_to_ids(bits: int) -> list[int]:
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def least_prime_factor(n: int) -> int:
    """The least prime dividing n (n itself for n = 1)."""
    p = 2
    while p * p <= n:
        if n % p == 0:
            return p
        p += 1
    return n


def join_bits(G: GroupTable, base_bits: int, gens, base_gens) -> int:
    """Membership of <H, gens> given a subgroup H, its generators and extra elements.

    Grows a union of right cosets H*y along the Schreier graph: one table
    lookup per edge, and each coset is filled exactly once.  The edge labels
    must generate the join together with H, so H's generators ``base_gens``
    are added (pass ``base_gens=()`` when H is normal in the join, where
    H * <gens> is already the whole join).  A group without a table closes
    generators instead, and then needs H's generators either way.

    The growth stops by Lagrange: the join's index divides [G:H], so once
    the cosets cover more than |G|/p elements, with p the least prime factor
    of [G:H], that index is below p and hence 1, and the join is G.
    """
    if G.mul_table is None:
        return closure_ids(G, [*(base_gens or generating_set(G, base_bits)), *gens])
    mt, n = G.mul_table, G.n
    members = bits_to_ids(base_bits)
    size = order = len(members)
    limit = n // least_prime_factor(n // order)
    edge_gens = [g for g in dict.fromkeys(tuple(base_gens) + tuple(gens)) if g]
    covered = base_bits | 1
    reps = [0]
    head = 0
    while head < len(reps):
        rn = reps[head] * n
        head += 1
        for g in edge_gens:
            y = mt[rn + g]
            if not (covered >> y) & 1:
                cos = 0
                for h in members:
                    cos |= 1 << mt[h * n + y]
                cos |= 1 << y
                covered |= cos
                size += order
                if size > limit:
                    return (1 << n) - 1
                reps.append(y)
    return covered


def generating_set(G: GroupTable, bits: int) -> tuple[int, ...]:
    """A small generating set for the subgroup with this membership bitset.

    Greedy: walk members in id order, keeping each element not yet generated
    and joining it to what the kept ones generate.  Deterministic, and short
    (at most log2 of the order) in practice.
    """
    gens: list[int] = []
    cur = 1
    for x in bits_to_ids(bits):
        if x and not (cur >> x) & 1:
            cur = join_bits(G, cur, (x,), gens)
            gens.append(x)
            if cur == bits:
                break
    return tuple(gens)


def is_normal_bits(G: GroupTable, bits: int) -> bool:
    """True iff conjugation by every group generator maps the subgroup into itself."""
    members = bits_to_ids(bits)
    inv = G.inv
    for g in dict.fromkeys(G.gen_ids):
        gi = inv[g]
        for x in members:
            if not (bits >> G.mul(G.mul(g, x), gi)) & 1:
                return False
    return True


# ---------------------------------------------------------------------------
# Building


def _bfs_build(spec, identity, gens, mul_c, inverse_c, label_c, cap):
    """Close the generators, then materialize the table (dense if small enough)."""
    ids = {identity: 0}
    elems = [identity]
    parent = [(-1, -1)]
    head = 0
    while head < len(elems):
        cur = elems[head]
        for k, g in enumerate(gens):
            z = mul_c(cur, g)
            if z not in ids:
                ids[z] = len(elems)
                elems.append(z)
                parent.append((head, k))
                if len(elems) > cap:
                    raise OrderCapExceeded(
                        f"group closure passed the order cap {cap}; raise the cap to allow this build"
                    )
        head += 1
    n = len(elems)
    gen_ids = [ids[g] for g in gens]

    # Inverses from the BFS tree: e_i = e_p*g_k, so e_i^-1 = g_k^-1 * e_p^-1,
    # one concrete product per element; inverse_c runs on the generators only.
    # Parents precede their children, so inv[p] is known when i is reached.
    gen_invs = [inverse_c(g) for g in gens]
    inv = [0] * n
    for i in range(1, n):
        p, k = parent[i]
        inv[i] = ids[mul_c(gen_invs[k], elems[inv[p]])]

    mul_table = None
    if n <= DEFAULT_ORDER_CAP:
        # Left-multiplication columns L_k let the table be filled a row at a
        # time with no further concrete products: e_i = e_p*g_k, so
        # e_i*e_j = e_p*(g_k*e_j) and row i is row p read through L_k, one
        # itemgetter call per row.  Each row is written in place, so the n*n
        # list is the only table built.  For n == 1 an itemgetter of one
        # index would return a scalar, but the trivial group has no row to
        # fill, so it is never called.
        lcols = [itemgetter(*[ids[mul_c(g, e)] for e in elems]) for g in gens]
        mul_table = [0] * (n * n)
        mul_table[:n] = range(n)
        for i in range(1, n):
            p, k = parent[i]
            mul_table[i * n : i * n + n] = lcols[k](mul_table[p * n : p * n + n])
    return GroupTable(spec, n, gen_ids, parent, label_c, mul_table, inv, mul_c, elems, ids)


def _build_permutation(spec: PermutationGenerators, cap: int) -> GroupTable:
    gens = [perms.validate_perm(g, spec.degree) for g in spec.generators]
    return _bfs_build(
        spec,
        perms.identity_perm(spec.degree),
        gens,
        perms.compose,
        perms.invert,
        perms.format_cycles,
        cap,
    )


def _build_matrix(spec: MatrixGenerators, cap: int) -> GroupTable:
    field = field_create(spec.q)
    for m in spec.generators:
        if field.mat_det(m) == 0:
            raise InvalidGenerator(f"matrix {mat_label(m)} is singular over GF({spec.q})")
    return _bfs_build(
        spec,
        MAT3_IDENTITY,
        list(spec.generators),
        field.mat_mul,
        field.mat_inv,
        mat_label,
        cap,
    )


def _least_order(spec: GroupSpec) -> int:
    """A lower bound on the order of ``spec``'s group, read off its named
    factors without building any; 1 where a factor has no such bound."""
    if isinstance(spec, DirectProduct):
        return _least_order(spec.left) * _least_order(spec.right)
    if isinstance(spec, Named):
        from .constructions import _checked  # registry lives with the constructors

        return _checked(spec.name, spec.params, None)[1]
    return 1


def _build_product(spec: DirectProduct, cap: int) -> GroupTable:
    least = _least_order(spec)
    if least > cap:
        raise OrderCapExceeded(f"direct product order at least {least} passes the order cap {cap}")
    left = build_group(spec.left, cap=cap)
    right = build_group(spec.right, cap=cap)
    if left.n * right.n > cap:
        raise OrderCapExceeded(
            f"direct product order {left.n * right.n} passes the order cap {cap}"
        )
    gens = [(g, 0) for g in left.gen_ids] + [(0, g) for g in right.gen_ids]

    def mul_c(a, b):
        return (left.mul(a[0], b[0]), right.mul(a[1], b[1]))

    def inv_c(a):
        return (left.inv[a[0]], right.inv[a[1]])

    def label_c(a):
        return f"({left.labels[a[0]]}|{right.labels[a[1]]})"

    return _bfs_build(spec, (0, 0), gens, mul_c, inv_c, label_c, cap)


def _build_quotient(spec: Quotient, cap: int) -> GroupTable:
    base = build_group(spec.base, cap=cap)
    kernel_gens = [base.eval_word(w) for w in spec.normal_words]
    bits = closure_ids(base, kernel_gens)
    table, _ = quotient_by_bits(base, bits, spec=spec)
    return table


def build_group(spec: GroupSpec, cap: int = DEFAULT_ORDER_CAP) -> GroupTable:
    """Fully enumerate the group described by ``spec``.

    Deterministic: the same spec always yields the same tables, labels and
    element ordering.  Raises OrderCapExceeded when the closure passes ``cap``
    and InvalidGenerator for non-bijective permutations / singular matrices.
    """
    if isinstance(spec, PermutationGenerators):
        return _build_permutation(spec, cap)
    if isinstance(spec, MatrixGenerators):
        return _build_matrix(spec, cap)
    if isinstance(spec, DirectProduct):
        return _build_product(spec, cap)
    if isinstance(spec, Quotient):
        return _build_quotient(spec, cap)
    if isinstance(spec, Named):
        from .constructions import expand_named  # registry lives with the constructors

        table = build_group(expand_named(spec.name, spec.params, cap), cap=cap)
        table.spec = spec  # keep the compact self-describing form in records
        return table
    raise BadParams(f"cannot build from spec of type {type(spec).__name__}")


# ---------------------------------------------------------------------------
# Quotients


@dataclass(frozen=True)
class Projection:
    """The canonical map G -> G/N as an element-id table."""

    source: GroupTable
    target: GroupTable
    mapping: tuple[int, ...]

    def __call__(self, elem: int) -> int:
        return self.mapping[elem]


def quotient_by_bits(G: GroupTable, kernel_bits: int, spec=None):
    """Quotient of G by the normal subgroup with the given membership bitset."""
    members = bits_to_ids(kernel_bits)
    if not is_normal_bits(G, kernel_bits):
        raise NotNormal(
            f"subgroup of order {len(members)} is not normal (conjugation by generator moves it)"
        )
    n = G.n
    rep = [-1] * n
    for a in range(n):
        if rep[a] >= 0:
            continue
        for x in members:
            rep[G.mul(a, x)] = a  # a is the least element of its coset: ids scan ascending
    if spec is None:
        # record a small generating set of the kernel, not every member
        spec = Quotient(G.spec, tuple(G.word_str(x) for x in generating_set(G, kernel_bits)))

    def mul_c(a, b):
        return rep[G.mul(a, b)]

    def inv_c(a):
        return rep[G.inv[a]]

    def label_c(a):
        return f"{G.labels[a]}N"

    gens = [rep[g] for g in G.gen_ids]
    table = _bfs_build(spec, 0, gens, mul_c, inv_c, label_c, n)
    if table.n * len(members) != n:
        raise NotNormal("quotient order check failed; kernel does not partition the group evenly")
    qid = table._ids
    mapping = tuple(qid[rep[a]] for a in range(n))
    projection = Projection(G, table, mapping)
    return table, projection


def quotient_group(G: GroupTable, N) -> tuple[GroupTable, Projection]:
    """Quotient by a Subgroup N; raises NotNormal if N fails the normality check."""
    if N.parent is not G:
        raise ParentMismatch("the normal subgroup belongs to a different group")
    return quotient_by_bits(G, N.bits)
