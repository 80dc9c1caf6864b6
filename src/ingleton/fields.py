"""Small finite fields GF(q) for q = p^k <= 64, with 3x3 matrix arithmetic.

Field elements are integers in [0, q) encoding polynomial coefficients base p
(little-endian), so the prime subfield is always {0, 1, ..., p-1}.  For k > 1
the field is built modulo the lexicographically least irreducible monic
polynomial of degree k, found by brute force; this fixes the element encoding
and makes every construction reproducible.

Addition and multiplication are tabulated once per field.  ``mat_mul`` reads
the tables as one row list per left operand, so a 3x3 product is 27 products
and 18 sums, each one list index, with no method calls.  A matrix-group build
calls it once per row and generator to fill its row tables, and a group
without a multiplication table once per product.  ``mat_det`` and ``mat_inv``
go through the scalar methods: a build checks each generator's determinant,
and no build inverts a matrix.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import BadParams, NotPrimePower

MAX_FIELD = 64

Mat3 = tuple[int, ...]  # row-major 3x3 over the field

MAT3_IDENTITY: Mat3 = (1, 0, 0, 0, 1, 0, 0, 0, 1)


def factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, k) with q = p^k, or raise NotPrimePower."""
    if q < 2:
        raise NotPrimePower(f"{q} is not a prime power")
    for p in range(2, q + 1):
        if q % p == 0:
            k = 0
            m = q
            while m % p == 0:
                m //= p
                k += 1
            if m != 1:
                raise NotPrimePower(f"{q} is not a prime power")
            return p, k
    raise NotPrimePower(f"{q} is not a prime power")


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _poly_mod(a, m, p):
    # m monic
    a = list(a)
    dm = len(m) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if c:
            for j in range(dm + 1):
                a[i - dm + j] = (a[i - dm + j] - c * m[j]) % p
    return a[:dm]


def _monic_polys(degree, p):
    # coefficient tuples (c0..c_{d-1}) in lexicographic order; leading 1 implicit
    def rec(prefix, left):
        if left == 0:
            yield prefix + [1]
            return
        for c in range(p):
            yield from rec(prefix + [c], left - 1)

    yield from rec([], degree)


def _is_irreducible(poly, p):
    degree = len(poly) - 1
    for d in range(1, degree // 2 + 1):
        for cand in _monic_polys(d, p):
            rem = _poly_mod(poly, cand, p)
            # divide poly by cand and check zero remainder
            if not any(rem):
                return False
    return True


def _find_irreducible(p, k):
    for poly in _monic_polys(k, p):
        if poly[0] != 0 and _is_irreducible(poly, p):
            return poly
    raise AssertionError(f"no irreducible polynomial of degree {k} over GF({p})")


class FieldTable:
    """GF(q) with fully tabulated addition/multiplication and a primitive element."""

    def __init__(self, q: int):
        if q > MAX_FIELD:  # checked first: factoring costs O(q)
            raise NotPrimePower(f"field size {q} exceeds supported maximum {MAX_FIELD}")
        p, k = factor_prime_power(q)
        self.q = q
        self.p = p
        self.k = k
        self.modulus = _find_irreducible(p, k) if k > 1 else [0, 1]

        def digits(x):
            out = []
            for _ in range(k):
                out.append(x % p)
                x //= p
            return out

        def undigits(ds):
            x = 0
            for d in reversed(ds):
                x = x * p + d
            return x

        add = [0] * (q * q)
        mul = [0] * (q * q)
        for a in range(q):
            da = digits(a)
            for b in range(q):
                db = digits(b)
                add[a * q + b] = undigits([(x + y) % p for x, y in zip(da, db)])
                prod = _poly_mod(_poly_mul(da, db, p), self.modulus, p)
                prod += [0] * (k - len(prod))
                mul[a * q + b] = undigits(prod)
        self._add = add
        self._mul = mul
        # one list per left operand, so mat_mul reads x*y as _mul_rows[x][y]
        self._add_rows = [add[a * q : a * q + q] for a in range(q)]
        self._mul_rows = [mul[a * q : a * q + q] for a in range(q)]
        self.neg = [0] * q
        for a in range(q):
            for b in range(q):
                if add[a * q + b] == 0:
                    self.neg[a] = b
                    break
        self.inv = [0] * q
        for a in range(1, q):
            for b in range(1, q):
                if mul[a * q + b] == 1:
                    self.inv[a] = b
                    break
        self.zeta = self._least_primitive()

    def add(self, a: int, b: int) -> int:
        return self._add[a * self.q + b]

    def sub(self, a: int, b: int) -> int:
        return self._add[a * self.q + self.neg[b]]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a * self.q + b]

    def div(self, a: int, b: int) -> int:
        if b == 0:
            raise ZeroDivisionError("division by zero field element")
        return self._mul[a * self.q + self.inv[b]]

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            if a == 0:
                raise ZeroDivisionError("0 has no inverse in the field")
            a, e = self.inv[a], -e
        out = 1
        while e:
            if e & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            e >>= 1
        return out

    def element_order(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative order")
        if not 0 < a < self.q:
            raise BadParams(f"{a} is not a nonzero element 1..{self.q - 1} of GF({self.q})")
        n, x = 1, a
        while x != 1:
            x = self.mul(x, a)
            n += 1
        return n

    def _least_primitive(self) -> int:
        for a in range(1, self.q):
            if self.element_order(a) == self.q - 1:
                return a
        raise AssertionError("no primitive element found")

    def primitive_elements(self) -> list[int]:
        return [a for a in range(1, self.q) if self.element_order(a) == self.q - 1]

    # 3x3 matrices, row-major tuples

    def mat_mul(self, a: Mat3, b: Mat3) -> Mat3:
        a0, a1, a2, a3, a4, a5, a6, a7, a8 = a
        b0, b1, b2, b3, b4, b5, b6, b7, b8 = b
        A, M = self._add_rows, self._mul_rows
        r0, r1, r2 = M[a0], M[a1], M[a2]
        r3, r4, r5 = M[a3], M[a4], M[a5]
        r6, r7, r8 = M[a6], M[a7], M[a8]
        return (
            A[A[r0[b0]][r1[b3]]][r2[b6]],
            A[A[r0[b1]][r1[b4]]][r2[b7]],
            A[A[r0[b2]][r1[b5]]][r2[b8]],
            A[A[r3[b0]][r4[b3]]][r5[b6]],
            A[A[r3[b1]][r4[b4]]][r5[b7]],
            A[A[r3[b2]][r4[b5]]][r5[b8]],
            A[A[r6[b0]][r7[b3]]][r8[b6]],
            A[A[r6[b1]][r7[b4]]][r8[b7]],
            A[A[r6[b2]][r7[b5]]][r8[b8]],
        )

    def mat_det(self, m: Mat3) -> int:
        mul, sub, add = self.mul, self.sub, self.add
        t1 = mul(m[0], sub(mul(m[4], m[8]), mul(m[5], m[7])))
        t2 = mul(m[1], sub(mul(m[3], m[8]), mul(m[5], m[6])))
        t3 = mul(m[2], sub(mul(m[3], m[7]), mul(m[4], m[6])))
        return add(sub(t1, t2), t3)

    def mat_inv(self, m: Mat3) -> Mat3:
        det = self.mat_det(m)
        if det == 0:
            raise ZeroDivisionError("matrix is singular")
        dinv = self.inv[det]
        mul, sub = self.mul, self.sub
        cof = (
            sub(mul(m[4], m[8]), mul(m[5], m[7])),
            sub(mul(m[2], m[7]), mul(m[1], m[8])),
            sub(mul(m[1], m[5]), mul(m[2], m[4])),
            sub(mul(m[5], m[6]), mul(m[3], m[8])),
            sub(mul(m[0], m[8]), mul(m[2], m[6])),
            sub(mul(m[2], m[3]), mul(m[0], m[5])),
            sub(mul(m[3], m[7]), mul(m[4], m[6])),
            sub(mul(m[1], m[6]), mul(m[0], m[7])),
            sub(mul(m[0], m[4]), mul(m[1], m[3])),
        )
        return tuple(mul(c, dinv) for c in cof)


def mat_label(m: Mat3) -> str:
    rows = [",".join(str(x) for x in m[i : i + 3]) for i in (0, 3, 6)]
    return "[" + ";".join(rows) + "]"


@lru_cache(maxsize=None)
def field_create(q: int) -> FieldTable:
    """Build (and cache) GF(q) for a prime power q <= 64."""
    return FieldTable(q)
