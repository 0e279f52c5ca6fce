"""Exact and modular linear algebra engines."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylrack.cyclotomic import Cyclo, cyclotomic_polynomial
from weylrack.linalg import (
    DEFAULT_PRIMES,
    primes_for_conductor,
    rank_cyclo_exact,
    rank_int_exact,
    rank_mod_p,
    rank_two_primes,
    root_of_unity_mod_p,
)


def rank_fraction_oracle(rows):
    """Independent oracle: textbook Gaussian elimination over Q."""
    rows = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    col = 0
    while rows and col < (len(rows[0]) if rows else 0):
        piv = next((i for i, r in enumerate(rows) if r[col]), None)
        if piv is None:
            col += 1
            continue
        prow = rows.pop(piv)
        prow = [x / prow[col] for x in prow]
        rows = [
            [x - r[col] * y for x, y in zip(r, prow)] if r[col] else r for r in rows
        ]
        rows = [r for r in rows if any(r)]
        rank += 1
        col += 1
    return rank


def random_matrix(rng, nrows, ncols, lo=-4, hi=4):
    return [[rng.randint(lo, hi) for _ in range(ncols)] for _ in range(nrows)]


def test_rank_known_values():
    assert rank_int_exact([]) == 0
    assert rank_int_exact([[0, 0], [0, 0]]) == 0
    assert rank_int_exact([[1, 2], [2, 4]]) == 1
    assert rank_int_exact([[1, 0], [0, 1]]) == 2
    assert rank_int_exact([[2, 4, 6], [1, 2, 3], [0, 0, 1]]) == 2


def test_rank_matches_fraction_oracle():
    rng = random.Random(31)
    for _ in range(120):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        expected = rank_fraction_oracle(m)
        assert rank_int_exact(m) == expected
        assert rank_mod_p(np.array(m), DEFAULT_PRIMES[0]) == expected
        assert rank_two_primes(lambda p: rank_mod_p(np.array(m), p), DEFAULT_PRIMES) == expected


def test_rank_cyclo_matches_int_on_integer_input():
    rng = random.Random(33)
    for _ in range(25):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        assert rank_cyclo_exact(m) == rank_int_exact(m)


def test_rank_cyclo_roots_of_unity():
    z = Cyclo.zeta(3)
    # the second row is z times the first: rank 1
    one = Cyclo.rational(1)
    assert rank_cyclo_exact([[one, z], [z, z * z]]) == 1
    # Vandermonde rows at distinct roots: rank 2
    assert rank_cyclo_exact([[one, z], [one, z * z]]) == 2
    assert rank_cyclo_exact([[Cyclo.rational(0)]]) == 0


def test_rank_cyclo_matches_the_residues_mod_two_primes():
    # the entries' images mod p = 1 (mod N), with zeta_N taken to a
    # primitive N-th root of unity in F_p, have the same rank away from
    # finitely many p
    rng = random.Random(35)

    def residue(x, N, p, z):
        return sum(
            c.numerator * pow(c.denominator, -1, p) * pow(z, i, p)
            for i, c in enumerate(x.promote(N).coeffs)
        ) % p

    for N in (3, 4, 5, 7, 8, 9, 12):
        degree = len(cyclotomic_polynomial(N)) - 1
        for _ in range(4):
            nr, nc = rng.randint(1, 4), rng.randint(1, 4)
            base = [
                [Cyclo(N, [rng.randint(-2, 2) for _ in range(degree)]) for _ in range(nc)]
                for _ in range(rng.randint(1, nr))
            ]
            # rows past the first few are combinations of them
            m = base + [
                [sum((rng.choice((0, 1, Cyclo.zeta(N))) * r[j] for r in base), Cyclo.rational(0))
                 for j in range(nc)]
                for _ in range(nr - len(base))
            ]

            def rank(p):
                z = root_of_unity_mod_p(N, p)
                return rank_mod_p(np.array([[residue(x, N, p, z) for x in r] for r in m]), p)

            assert rank_cyclo_exact(m) == rank_two_primes(rank, primes_for_conductor(N))


def test_two_primes_disagreement_is_detected():
    # a matrix divisible by one prime but not the other has different
    # modular ranks, which must raise instead of returning silently
    p0 = DEFAULT_PRIMES[0]
    with pytest.raises(ArithmeticError):
        rank_two_primes(lambda p: rank_mod_p(np.array([[p0]]), p), DEFAULT_PRIMES)
    # and divisibility by the *second* prime is caught symmetrically
    with pytest.raises(ArithmeticError):
        rank_two_primes(lambda p: rank_mod_p(np.array([[DEFAULT_PRIMES[1]]]), p), DEFAULT_PRIMES)


def test_default_primes_are_31_bit_and_distinct():
    p, q = DEFAULT_PRIMES
    assert p != q
    for x in (p, q):
        assert 2**30 < x < 2**31
        assert all(x % d for d in range(2, 50000) if d * d <= x)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.randoms(use_true_random=False))
def test_rank_is_invariant_under_row_operations(nr, nc, rnd):
    m = random_matrix(rnd, nr, nc)
    r = rank_int_exact(m)
    # scaling a row by a nonzero constant and adding another row
    m2 = [list(row) for row in m]
    m2[0] = [3 * x for x in m2[0]]
    if nr > 1:
        m2[1] = [a + b for a, b in zip(m2[1], m2[0])]
    assert rank_int_exact(m2) == r
    assert r <= min(nr, nc)
