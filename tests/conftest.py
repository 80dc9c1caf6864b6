"""Shared corpus and session-scoped search results.

The expensive searches (S5, A4xA4, PGL2(7), A6) run once per session and are
shared between the unit tests and the acceptance suite.
"""

import pytest

from ingleton.constructions import (
    construct_named,
    dicyclic_spec,
    metacyclic_spec,
)
from ingleton.groups import DirectProduct, PermutationGenerators, build_group
from ingleton.search import search_offenders


def named(name, *params):
    return construct_named(name, params)


def product(*specs):
    spec = specs[0]
    for s in specs[1:]:
        spec = DirectProduct(spec, s)
    return spec


def cyclic_product(*orders):
    return product(*(named("cyclic", n) for n in orders))


def relabelled(spec, sigma):
    """The permutation group of ``spec`` with every generator conjugated by the
    point permutation ``sigma`` and the generator order reversed: the same
    group under different element ids and bitsets."""

    def conjugate(img):  # sigma * img * sigma^-1 on points
        out = [0] * len(img)
        for i, j in enumerate(img):
            out[sigma[i]] = sigma[j]
        return tuple(out)

    return PermutationGenerators(spec.degree, tuple(conjugate(g) for g in reversed(spec.generators)))


# Groups of order <= 60 used by the randomized property suites.
SMALL_CORPUS = [
    ("C6", named("cyclic", 6)),
    ("C12", named("cyclic", 12)),
    ("C2xC4", cyclic_product(2, 4)),
    ("C2^3", cyclic_product(2, 2, 2)),
    ("D8", named("dihedral", 4)),
    ("Q8", dicyclic_spec(2)),
    ("D12", named("dihedral", 6)),
    ("A4", named("alt", 4)),
    ("Dic3", dicyclic_spec(3)),
    ("C3xC3", cyclic_product(3, 3)),
    ("D16", named("dihedral", 8)),
    ("SL2(3)", named("sl2", 3)),
    ("S4", named("sym", 4)),
    ("F20", metacyclic_spec(5, 4, 2)),
    ("C7:C3", metacyclic_spec(7, 3, 2)),
    ("C4xC4", cyclic_product(4, 4)),
    ("D24", named("dihedral", 12)),
    ("C3xA4", product(named("cyclic", 3), named("alt", 4))),
    ("S3xS3", product(named("sym", 3), named("sym", 3))),
    ("C9:C3", metacyclic_spec(9, 3, 4)),
    ("A5", named("alt", 5)),
    ("C15", named("cyclic", 15)),
]

# Groups of order <= 144 for the filtered-vs-oracle equivalence sweep.
# Only S5 and A4xA4 contain offenders (least violator order is 120).
ORACLE_CORPUS = SMALL_CORPUS + [
    ("Dic6", dicyclic_spec(6)),
    ("C13:C4", metacyclic_spec(13, 4, 5)),
    ("C2^4", cyclic_product(2, 2, 2, 2)),
    ("D36", named("dihedral", 18)),
    ("C2xA5", product(named("cyclic", 2), named("alt", 5))),
    ("S5", named("sym", 5)),
    ("A4xA4", product(named("alt", 4), named("alt", 4))),
]

# Abelian groups of order <= 128 (negative controls).
ABELIAN_CORPUS = [
    ("C%d" % n, named("cyclic", n))
    for n in (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 100, 128)
] + [
    ("C2xC2", cyclic_product(2, 2)),
    ("C2xC4", cyclic_product(2, 4)),
    ("C2^3", cyclic_product(2, 2, 2)),
    ("C2^4", cyclic_product(2, 2, 2, 2)),
    ("C2^5", cyclic_product(2, 2, 2, 2, 2)),
    ("C3xC3", cyclic_product(3, 3)),
    ("C3xC9", cyclic_product(3, 9)),
    ("C4xC4", cyclic_product(4, 4)),
    ("C5xC5", cyclic_product(5, 5)),
    ("C6xC6", cyclic_product(6, 6)),
    ("C2xC4xC8", cyclic_product(2, 4, 8)),
    ("C8xC16", cyclic_product(8, 16)),
    ("C10xC10", cyclic_product(10, 10)),
    ("C2xC64", cyclic_product(2, 64)),
]

# Split metacyclic presentations a^m = b^n = 1, b a b^-1 = a^r of order <= 200,
# plus dicyclic groups: the metacyclic negative sample.
METACYCLIC_SAMPLE = [
    ("M(5,4,2)", metacyclic_spec(5, 4, 2)),
    ("M(7,3,2)", metacyclic_spec(7, 3, 2)),
    ("M(7,6,3)", metacyclic_spec(7, 6, 3)),
    ("M(9,3,4)", metacyclic_spec(9, 3, 4)),
    ("M(9,6,2)", metacyclic_spec(9, 6, 2)),
    ("M(11,5,3)", metacyclic_spec(11, 5, 3)),
    ("M(13,4,5)", metacyclic_spec(13, 4, 5)),
    ("M(13,12,2)", metacyclic_spec(13, 12, 2)),
    ("M(15,4,2)", metacyclic_spec(15, 4, 2)),
    ("M(16,2,7)", metacyclic_spec(16, 2, 7)),
    ("M(16,2,15)", metacyclic_spec(16, 2, 15)),
    ("M(16,4,3)", metacyclic_spec(16, 4, 3)),
    ("M(25,4,7)", metacyclic_spec(25, 4, 7)),
    ("M(27,3,10)", metacyclic_spec(27, 3, 10)),
    ("M(32,2,15)", metacyclic_spec(32, 2, 15)),
    ("M(49,3,18)", metacyclic_spec(49, 3, 18)),
] + [(f"Dic{k}", dicyclic_spec(k)) for k in range(2, 13)]


@pytest.fixture(scope="session")
def small_groups():
    return [(name, build_group(spec)) for name, spec in SMALL_CORPUS]


@pytest.fixture(scope="session")
def s5_group():
    return build_group(named("sym", 5))


@pytest.fixture(scope="session")
def s5_classes(s5_group):
    return search_offenders(s5_group)


@pytest.fixture(scope="session")
def a4a4_group():
    return build_group(product(named("alt", 4), named("alt", 4)))


@pytest.fixture(scope="session")
def a4a4_classes(a4a4_group):
    return search_offenders(a4a4_group)


@pytest.fixture(scope="session")
def pgl27_group():
    return build_group(named("pgl2", 7))


@pytest.fixture(scope="session")
def pgl27_classes(pgl27_group):
    return search_offenders(pgl27_group)


@pytest.fixture(scope="session")
def a6_group():
    return build_group(named("alt", 6))


@pytest.fixture(scope="session")
def a6_classes(a6_group):
    return search_offenders(a6_group)
