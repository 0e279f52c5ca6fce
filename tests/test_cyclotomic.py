"""Exact cyclotomic arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylrack.cyclotomic import Cyclo, cyclotomic_polynomial


def test_cyclotomic_polynomials():
    # classical values
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    # degree is Euler phi
    assert len(cyclotomic_polynomial(15)) - 1 == 8


def test_roots_of_unity():
    z4 = Cyclo.zeta(4)
    assert z4 * z4 == Cyclo.rational(-1)
    assert z4**4 == Cyclo.rational(1)
    z3 = Cyclo.zeta(3)
    assert z3 * z3 * z3 == Cyclo.rational(1)
    assert z3 + z3**2 == Cyclo.rational(-1)  # 1 + z + z^2 = 0
    z6 = Cyclo.zeta(6)
    assert z6**3 == Cyclo.rational(-1)


def test_mixed_conductor_arithmetic():
    z2 = Cyclo.zeta(2)  # = -1
    z3 = Cyclo.zeta(3)
    prod = z2 * z3
    assert prod**6 == Cyclo.rational(1)
    assert prod**3 == Cyclo.rational(-1)
    assert prod.multiplicative_order() == 6


def test_inverse():
    for v in (Cyclo.rational(Fraction(3, 7)), Cyclo.zeta(5), Cyclo.zeta(8) + 1):
        assert v * v.inverse() == Cyclo.rational(1)
    with pytest.raises(ZeroDivisionError):
        Cyclo.rational(0).inverse()


def test_multiplicative_order():
    assert Cyclo.rational(1).multiplicative_order() == 1
    assert Cyclo.rational(-1).multiplicative_order() == 2
    assert Cyclo.zeta(12).multiplicative_order() == 12
    assert (Cyclo.zeta(12) ** 4).multiplicative_order() == 3


def test_equal_values_hash_equal_across_conductors():
    assert Cyclo.zeta(4) == Cyclo.zeta(12, 3)
    assert len({Cyclo.zeta(4), Cyclo.zeta(12, 3)}) == 1
    assert Cyclo.zeta(6) == -Cyclo.zeta(3, 2)
    assert hash(Cyclo.zeta(6)) == hash(-Cyclo.zeta(3, 2))
    # rationals still hash like the plain numbers they equal
    assert hash(Cyclo.rational(Fraction(2, 3))) == hash(Fraction(2, 3))
    assert hash(Cyclo.rational(-4)) == hash(-4)


def test_coerce_and_zero():
    assert Cyclo.coerce(5) == Cyclo.rational(5)
    assert Cyclo.coerce(Fraction(1, 2)) * 2 == Cyclo.rational(1)
    assert (Cyclo.zeta(3) - Cyclo.zeta(3)).is_zero()


@settings(max_examples=80, deadline=None)
@given(
    st.integers(-5, 5),
    st.integers(-5, 5),
    st.integers(-5, 5),
    st.sampled_from([3, 4, 5, 6, 8]),
)
def test_ring_axioms(a, b, c, N):
    z = Cyclo.zeta(N)
    x = Cyclo.rational(a) + z * b
    y = Cyclo.rational(b) + z * c
    w = Cyclo.rational(c) + z * a
    assert (x + y) * w == x * w + y * w
    assert x * (y * w) == (x * y) * w
    assert x + y == y + x


def test_truthiness_is_nonzero_across_conductors():
    values = [Cyclo.rational(0), Cyclo.rational(Fraction(-1, 3)), Cyclo.zeta(2)]
    values += [Cyclo.zeta(N, k) for N in (3, 4, 12) for k in range(N)]
    values += [Cyclo.zeta(3) - Cyclo.zeta(3), Cyclo.zeta(4) ** 2 + 1]
    values += [1 + Cyclo.zeta(3) + Cyclo.zeta(3, 2), Cyclo.zeta(12, 4) - Cyclo.zeta(3)]
    for v in values:
        assert bool(v) == (not v.is_zero())
    assert not Cyclo.zeta(12, 4) - Cyclo.zeta(3)
    assert Cyclo.zeta(5)


def test_json_roundtrip_is_stable():
    v = Cyclo.zeta(6) + Cyclo.rational(Fraction(1, 3))
    assert v.to_json() == v.to_json()
