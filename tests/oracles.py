"""Brute-force oracles for offender classes, independent of the search.

``orbit_of`` conjugates a quadruple by every element of G and applies both
role swaps, so its length is the class size and its least member the
canonical key that the search computes from a stabiliser orbit.
"""

from ingleton.engine import Quadruple
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
