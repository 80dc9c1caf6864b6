import itertools
import random

import pytest
from hypothesis import given, strategies as st

from ingleton.errors import BadParams, NotPrimePower
from ingleton.fields import FieldTable, field_create, factor_prime_power


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27])
def test_field_axioms_exhaustive(q):
    F = field_create(q)
    elems = range(q)
    for a, b in itertools.product(elems, repeat=2):
        assert F.add(a, b) == F.add(b, a)
        assert F.mul(a, b) == F.mul(b, a)
    for a, b, c in itertools.product(elems, repeat=3):
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    for a in elems:
        assert F.add(a, 0) == a
        assert F.mul(a, 1) == a
        assert F.add(a, F.neg[a]) == 0
        if a != 0:
            assert F.mul(a, F.inv[a]) == 1


def test_primitive_element():
    assert field_create(5).zeta == 2  # least generator of the multiplicative group
    F4 = field_create(4)
    assert F4.element_order(F4.zeta) == 3
    F9 = field_create(9)
    assert F9.element_order(F9.zeta) == 8


@pytest.mark.parametrize("a", [-1, 5, 7])
def test_element_order_rejects_elements_outside_the_field(a):
    # -1 used to loop forever and 7 to raise IndexError; q = 5 has elements 0..4
    with pytest.raises(BadParams):
        field_create(5).element_order(a)


def test_element_order_of_zero():
    with pytest.raises(ZeroDivisionError):
        field_create(5).element_order(0)


def test_not_prime_power():
    for q in (0, 1, 6, 10, 12, 15, 36):
        with pytest.raises(NotPrimePower):
            field_create(q)
    with pytest.raises(NotPrimePower):
        field_create(128)  # above the supported maximum


def test_factor_prime_power():
    assert factor_prime_power(8) == (2, 3)
    assert factor_prime_power(27) == (3, 3)
    assert factor_prime_power(13) == (13, 1)


def test_irreducible_modulus_is_deterministic():
    a = FieldTable(9)
    b = FieldTable(9)
    assert a.modulus == b.modulus
    # least lexicographic monic irreducible of degree 2 over GF(3): x^2 + 1
    assert a.modulus == [1, 0, 1]


@given(st.integers(0, 8), st.integers(0, 8))
def test_f9_subtraction_inverts_addition(a, b):
    F = field_create(9)
    assert F.sub(F.add(a, b), b) == a


def test_matrix_operations():
    F = field_create(7)
    m = (1, 2, 3, 0, 1, 4, 0, 0, 1)
    assert F.mat_det(m) == 1
    inv = F.mat_inv(m)
    ident = (1, 0, 0, 0, 1, 0, 0, 0, 1)
    assert F.mat_mul(m, inv) == ident
    assert F.mat_mul(inv, m) == ident
    singular = (1, 2, 3, 2, 4, 6, 0, 0, 1)
    assert F.mat_det(singular) == 0
    with pytest.raises(ZeroDivisionError):
        F.mat_inv(singular)


def test_mat_mul_associativity_sampled():
    F = field_create(5)
    mats = [
        (1, 1, 0, 0, 1, 0, 0, 0, 1),
        (2, 0, 0, 0, 1, 0, 0, 0, 3),
        (1, 0, 2, 0, 1, 1, 0, 0, 1),
    ]
    for a, b, c in itertools.product(mats, repeat=3):
        assert F.mat_mul(F.mat_mul(a, b), c) == F.mat_mul(a, F.mat_mul(b, c))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 27, 64])
def test_mat_mul_matches_the_definition(q):
    # mat_mul reads row lists of the add and mul tables; compare each entry
    # with the sum of products written with the field's own add and mul
    F = field_create(q)
    rng = random.Random(q)
    for _ in range(50):
        a = tuple(rng.randrange(q) for _ in range(9))
        b = tuple(rng.randrange(q) for _ in range(9))
        c = F.mat_mul(a, b)
        for i in range(3):
            for j in range(3):
                s = 0
                for k in range(3):
                    s = F.add(s, F.mul(a[3 * i + k], b[3 * k + j]))
                assert c[3 * i + j] == s


def test_pow_of_zero_to_a_negative_power():
    # like div(a, 0): 0 has no inverse, so a negative power must raise
    F = field_create(5)
    assert F.pow(2, -1) == F.inv[2] == 3
    with pytest.raises(ZeroDivisionError):
        F.pow(0, -1)
