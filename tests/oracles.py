"""Brute-force oracles, independent of the search and of the lattice kernels.

``orbit_of`` conjugates a quadruple by every element of G and applies both
role swaps, so its length is the class size and its least member the
canonical key that the search computes from a stabiliser orbit.
``closure_by_mul`` closes a set of element ids under ``G.mul``, one product
at a time, the oracle for ``join_bits``.  ``matrix_closure`` is the plain
matrix-group build: a BFS over row-major 9-tuples with ``mat_mul``, each
inverse found with ``mat_inv``, the oracle for the packed-row build.
"""

from ingleton.engine import Quadruple
from ingleton.fields import MAT3_IDENTITY, field_create
from ingleton.subgroups import Subgroup, conjugate_bits


def orbit_of(G, tup):
    """All quadruple bit-tuples reachable by conjugation and the two swaps."""
    orbit = set()
    for g in range(G.n):
        c1, c2, c3, c4 = (conjugate_bits(G, b, g) for b in tup)
        orbit.add((c1, c2, c3, c4))
        orbit.add((c2, c1, c3, c4))
        orbit.add((c1, c2, c4, c3))
        orbit.add((c2, c1, c4, c3))
    return orbit


def canonical_class(Q: Quadruple) -> Quadruple:
    """Lexicographically least member of Q's orbit; idempotent by construction."""
    G = Q.group
    best = min(orbit_of(G, Q.bits_tuple()))
    return Quadruple(*(Subgroup(G, b) for b in best))


def closure_by_mul(G, ids):
    """The bitset of the subgroup the element ids generate: a BFS from the
    identity that multiplies each element found by every id through
    ``G.mul``, with no table row, coset or Lagrange stop."""
    found = [0]
    seen = {0}
    for x in found:  # the list grows as the BFS goes
        for s in ids:
            y = G.mul(x, s)
            if y not in seen:
                seen.add(y)
                found.append(y)
    return sum(1 << x for x in seen)


def matrix_closure(q, gens, cap):
    """``(elems, parent, inv)`` of the group the 3x3 matrices ``gens``
    generate over GF(q), in the order of a BFS that multiplies each element
    found by every generator on the right, or None once it passes ``cap``
    elements."""
    F = field_create(q)
    elems = [MAT3_IDENTITY]
    parent = [(-1, -1)]
    ids = {MAT3_IDENTITY: 0}
    for head, x in enumerate(elems):  # the list grows as the BFS goes
        for k, g in enumerate(gens):
            y = F.mat_mul(x, g)
            if y not in ids:
                if len(elems) == cap:
                    return None
                ids[y] = len(elems)
                elems.append(y)
                parent.append((head, k))
    return elems, parent, [ids[F.mat_inv(x)] for x in elems]
