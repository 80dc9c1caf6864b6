"""Fully enumerated finite groups built from generator specs.

A group is closed over its generators by breadth-first search with a fixed
generator order, so element ids are stable across runs and platforms: the
identity is always element 0 and the rest follow in discovery order.  The
closure takes one right action per generator and keeps its products as one
id column per generator.  Each element other than the identity is its BFS
parent times one generator, and that tree with those columns gives every
left-multiplication column, hence every inverse, with no concrete product.
Groups within the default order cap carry a multiplication table of n row
tuples, each filled by reading the parent's row through one generator's
left-multiplication column (an ``itemgetter`` call per row).  Larger builds
(raised order cap) fall back to multiplying concrete elements on demand,
which is all the matrix-family verification needs.

A matrix group stores each element as one int that packs the ids of its
three rows, so a generator's right action is three reads of a table over
the rows, with no 3x3 product in the closure.

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
from .fields import MAT3_IDENTITY, FieldTable, Mat3, field_create, mat_label

DEFAULT_ORDER_CAP = 2048  # also the largest order for which the table is stored


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


_INTEGER = re.compile(r"-?[0-9]+")


def as_int(value, what: str) -> int:
    """``value`` if it is an int (a bool is not), or the int that a string of
    decimal digits, with an optional minus sign, spells; anything else raises
    BadParams, so no spec names a group by truncating a float such as 6.5."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and _INTEGER.fullmatch(value):
        return int(value)
    raise BadParams(f"{what} must be an integer, got {value!r}")


def perm_spec(generators, degree: int | None = None) -> PermutationGenerators:
    """Build a permutation spec from cycle strings or image arrays.

    A degree above ``perms.MAX_DEGREE``, given or implied, raises BadParams
    before any generator is padded to it.
    """
    if degree is not None:
        perms.check_degree(degree)
    imgs = []
    maxdeg = degree or 1
    for g in generators:
        if isinstance(g, str):
            img = perms.parse_cycles(g, degree)
        else:
            perms.check_degree(len(g))
            img = tuple(as_int(i, "permutation image") for i in g)
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
        m = tuple(as_int(x, "matrix entry") for x in m)
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
        return perm_spec(data["generators"], as_int(data["degree"], "degree"))
    if variant == "matrix":
        return matrix_spec(as_int(data["q"], "q"), data["generators"])
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


def _word_powers(text: str) -> list[tuple[int, int]]:
    """The (generator index, exponent) of each token: "g0*g1^2" -> [(0, 1), (1, 2)]."""
    text = text.strip()
    if text in ("e", ""):
        return []
    out = []
    for token in text.split("*"):
        m = _WORD_TOKEN.match(token.strip())
        if not m:
            raise BadParams(f"unparseable generator word {text!r}")
        out.append((int(m.group(1)), int(m.group(2) or 1)))
    return out


def parse_word(text: str) -> tuple[int, ...]:
    """The word as a tuple of generator indices, each power written out."""
    return tuple(k for k, e in _word_powers(text) for _ in range(e))


# ---------------------------------------------------------------------------
# The group table


class GroupTable:
    """Immutable multiplication structure over element ids 0..n-1."""

    def __init__(self, spec, n, gen_ids, parent, label_c, mul_table, inv, mul_c, elems, ids, codec):
        self.spec = spec
        self.n = n
        self.identity = 0
        self.gen_ids = tuple(gen_ids)
        self._parent = parent  # BFS tree: e_i = e_p * g_k for (p, k) = parent[i]
        self._label_c = label_c
        self.mul_table = mul_table  # mul_table[a][b] = a*b, n row tuples; None for sparse groups
        self.inv = inv
        self._mul_c = mul_c
        self._elems = elems
        self._ids = ids
        self._codec = codec  # packs concrete elements into stored ones; None stores them as they are
        self._cache: dict = {}

    @cached_property
    def labels(self) -> list[str]:
        """A printable label per element, formatted on first use: no search or
        verification step reads them, only the labels of products and quotients."""
        return [self._label_c(self.element(i)) for i in range(self.n)]

    def element(self, i: int):
        """The concrete element with id i: an image tuple, a row-major 3x3
        matrix, or a pair or coset id of the groups a product or quotient is
        built from."""
        e = self._elems[i]
        return e if self._codec is None else self._codec.unpack(e)

    def element_id(self, e):
        """The id of the concrete element e, or None when e is not in the group."""
        return self._ids.get(e if self._codec is None else self._codec.pack(e))

    def mul(self, a: int, b: int) -> int:
        if self.mul_table is not None:
            return self.mul_table[a][b]
        return self._ids[self._mul_c(self._elems[a], self._elems[b])]

    def conjugate(self, g: int, x: int) -> int:
        """g * x * g^-1."""
        mt = self.mul_table
        if mt is not None:
            return mt[mt[g][x]][self.inv[g]]
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
        """The element a word names.  Each ``gk^e`` of a word string is raised by
        repeated squaring, O(log e) products, so a huge exponent costs no more."""
        powers = _word_powers(word) if isinstance(word, str) else [(k, 1) for k in word]
        x = 0
        for k, e in powers:
            if not 0 <= k < len(self.gen_ids):
                raise BadParams(f"word references generator g{k}; group has {len(self.gen_ids)}")
            a = self.gen_ids[k]
            while e:
                if e & 1:
                    x = self.mul(x, a)
                e >>= 1
                if e:
                    a = self.mul(a, a)
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

    def element_bits(self) -> list[int]:
        """``bit[x]``: the bitset ``1 << x`` of element x, one shared int per
        element, cached, so a list of ids becomes a bitset by a C-level sum."""
        bit = self._cache.get("element_bits")
        if bit is None:
            bit = self._cache["element_bits"] = [1 << x for x in range(self.n)]
        return bit

    def element_orders(self) -> list[int]:
        return [b.bit_count() for b in self.cyclic_subgroups()]

    def conj_perm(self, g: int) -> list[int]:
        """The permutation x -> g*x*g^-1 of element ids, cached per g."""
        table = self._cache.setdefault("conj_perms", {})
        perm = table.get(g)
        if perm is None:
            gi = self.inv[g]
            if self.mul_table is not None:
                mt = self.mul_table
                perm = [mt[y][gi] for y in mt[g]]
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
    mt = G.mul_table
    while frontier:
        nxt = []
        for x in frontier:
            row = mt[x] if mt is not None else None
            for s in seeds:
                y = row[s] if row is not None else G.mul(x, s)
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

    Grows a union of left cosets y*H along the Schreier graph: each new
    representative is y = g*x for an edge generator g and a representative x
    already found, and its coset is row y of the table read at H's ids, one
    C-level ``itemgetter`` call into a set.  The edge labels must generate
    the join together with H, so H's generators ``base_gens`` are added (pass
    ``base_gens=()`` when H is normal in the join, where <gens> * H is
    already the whole join).  A proper join becomes a bitset once, at the
    end, as a C-level sum of cached powers of two.  A group without a table
    closes generators instead, and then needs H's generators either way.

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
    coset = itemgetter(*members, 0)  # the trailing 0 keeps a tuple when |H| = 1
    edge_rows = [mt[g] for g in dict.fromkeys((*base_gens, *gens)) if g]
    covered = set(members)
    reps = [0]
    for x in reps:  # the list grows as the BFS goes
        for row in edge_rows:
            y = row[x]
            if y not in covered:
                size += order
                if size > limit:
                    return (1 << n) - 1
                covered.update(coset(mt[y]))
                reps.append(y)
    return sum(map(G.element_bits().__getitem__, covered))


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
    for g in dict.fromkeys(G.gen_ids):
        for x in members:
            if not (bits >> G.conjugate(g, x)) & 1:
                return False
    return True


# ---------------------------------------------------------------------------
# Building


def _bfs_build(spec, identity, acts, mul_c, label_c, cap, codec=None):
    """Close the identity under the right actions ``acts``, one per generator,
    then take inverses and materialize the table (dense if small enough).
    ``mul_c`` multiplies two stored elements for a group without a table."""
    ids = {identity: 0}
    elems = [identity]
    parent = [(-1, -1)]
    # right[k][x]: the id of e_x*g_k, the closure's own products
    right = [[] for _ in acts]
    steps = [(k, act, col.append) for k, (act, col) in enumerate(zip(acts, right))]
    for head, cur in enumerate(elems):  # the list grows as the BFS goes
        for k, act, put in steps:
            z = act(cur)
            i = ids.get(z)
            if i is None:
                i = ids[z] = len(elems)
                elems.append(z)
                parent.append((head, k))
                if i >= cap:
                    raise OrderCapExceeded(
                        f"group closure passed the order cap {cap}; raise the cap to allow this build"
                    )
            put(i)
    del steps
    n = len(elems)
    gen_ids = [col[0] for col in right]  # e_0*g_k = g_k
    dense = n <= DEFAULT_ORDER_CAP

    # Inverses from the right columns: g_k^-1 is the x with e_x*g_k = e, and
    # its left column L[j] = g_k^-1*e_j follows the tree.  Then e_i = e_p*g_k
    # gives e_i^-1 = g_k^-1*e_p^-1, and parents precede their children, so
    # inv[p] is known when i is reached.
    inv_cols = [_left_column(right, parent, col.index(0)) for col in right]
    if not dense:
        del right  # no table to fill: the right columns are done with
    inv = [0] * n
    for i in range(1, n):
        p, k = parent[i]
        inv[i] = inv_cols[k][inv[p]]
    del inv_cols

    mul_table = None
    if dense:
        # e_i = e_p*g_k gives e_i*e_j = e_p*(g_k*e_j): row i is row p read
        # through g_k's left column, one itemgetter call per row, with no
        # concrete product at all.  For n == 1 an itemgetter of one index
        # would return a scalar, but the trivial group has no row to fill,
        # so it is never called.
        lcols = [itemgetter(*_left_column(right, parent, g)) for g in gen_ids]
        del right
        mul_table = [tuple(range(n))]
        for p, k in parent[1:]:
            mul_table.append(lcols[k](mul_table[p]))
    return GroupTable(spec, n, gen_ids, parent, label_c, mul_table, inv, mul_c, elems, ids, codec)


def _left_column(right, parent, x) -> list[int]:
    """``L[j]``, the id of e_x*e_j for every j, from the closure's right
    columns: e_j = e_q*g_m gives e_x*e_j = (e_x*e_q)*g_m, right[m][L[q]],
    with q < j."""
    col = [x]
    append = col.append
    for q, m in parent[1:]:
        append(right[m][col[q]])
    return col


def _right_actions(mul_c, gens):
    """x -> x*g for each generator g, through the concrete product."""
    return [lambda x, g=g: mul_c(x, g) for g in gens]


def _build_permutation(spec: PermutationGenerators, cap: int) -> GroupTable:
    gens = [perms.validate_perm(g, spec.degree) for g in spec.generators]
    return _bfs_build(
        spec,
        perms.identity_perm(spec.degree),
        _right_actions(perms.compose, gens),
        perms.compose,
        perms.format_cycles,
        cap,
    )


class _PackedMatrices:
    """3x3 matrices over GF(q), each stored as one int.

    A row (a, b, c) has the id a*q^2 + b*q + c in [0, q^3), and a matrix
    packs its three row ids into bit fields of ``width`` bits, row 0 highest.
    """

    def __init__(self, field: FieldTable):
        self.field = field
        self.width = (field.q**3 - 1).bit_length()

    def pack(self, m: Mat3) -> int:
        q, w = self.field.q, self.width
        m0, m1, m2, m3, m4, m5, m6, m7, m8 = m
        return (((m0 * q + m1) * q + m2) << w | (m3 * q + m4) * q + m5) << w | (m6 * q + m7) * q + m8

    def unpack(self, x: int) -> Mat3:
        q, w = self.field.q, self.width
        qq, mask = q * q, (1 << w) - 1
        r0, r1, r2 = x >> 2 * w, x >> w & mask, x & mask
        return (r0 // qq, r0 // q % q, r0 % q, r1 // qq, r1 // q % q, r1 % q, r2 // qq, r2 // q % q, r2 % q)

    def mul(self, a: int, b: int) -> int:
        return self.pack(self.field.mat_mul(self.unpack(a), self.unpack(b)))

    def right_actions(self, gens) -> list:
        """x -> x*g on packed matrices for each generator g.

        Row v of x*g is v*g, so each action reads one table over the row ids
        three times, once per row field, the table pre-shifted to each field.
        The tables are filled, one ``mat_mul`` per row and generator, on the
        orbit of the identity's rows only, which holds every row of every
        element of the group.
        """
        q, w, mat_mul = self.field.q, self.width, self.field.mat_mul
        w2, size, mask = 2 * w, q**3, (1 << w) - 1
        tables = [([0] * size, [0] * size, [0] * size) for _ in gens]
        rows = [q * q, q, 1]  # the rows of the identity
        seen = set(rows)
        for r in rows:  # the list grows as the orbit is found
            v = (r // (q * q), r // q % q, r % q, 0, 0, 0, 0, 0, 0)
            for (t0, t1, t2), g in zip(tables, gens):
                a, b, c = mat_mul(v, g)[:3]
                image = (a * q + b) * q + c
                t0[r], t1[r], t2[r] = image << w2, image << w, image
                if image not in seen:
                    seen.add(image)
                    rows.append(image)
        return [
            lambda x, t0=t0, t1=t1, t2=t2: t0[x >> w2] | t1[x >> w & mask] | t2[x & mask]
            for t0, t1, t2 in tables
        ]


def _build_matrix(spec: MatrixGenerators, cap: int) -> GroupTable:
    field = field_create(spec.q)
    for m in spec.generators:
        if field.mat_det(m) == 0:
            raise InvalidGenerator(f"matrix {mat_label(m)} is singular over GF({spec.q})")
    codec = _PackedMatrices(field)
    return _bfs_build(
        spec,
        codec.pack(MAT3_IDENTITY),
        codec.right_actions(spec.generators),
        codec.mul,
        mat_label,
        cap,
        codec,
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

    def label_c(a):
        return f"({left.labels[a[0]]}|{right.labels[a[1]]})"

    return _bfs_build(spec, (0, 0), _right_actions(mul_c, gens), mul_c, label_c, cap)


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

    def label_c(a):
        return f"{G.labels[a]}N"

    gens = [rep[g] for g in G.gen_ids]
    table = _bfs_build(spec, 0, _right_actions(mul_c, gens), mul_c, label_c, n)
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
