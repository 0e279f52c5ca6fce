"""Exact and modular rank/nullspace computations.

Exact ranks are for small matrices: `rank_int_exact` is fraction-free
Gaussian elimination over the integers with gcd row normalization (pure
Python big ints), `rank_cyclo_exact` plain Gaussian elimination over
Q(zeta_N), and `nullspace_rational` works over Q.

Every modular rank goes through `rank_two_primes`, the one agreement
check: it ranks the matrix mod two 31-bit primes (`rank_mod_p`, vectorized
elimination in numpy) and raises unless they agree.  The agreed rank is a
lower bound.  A matrix over Q(zeta_N) is given by its images mod primes
p = 1 (mod N) (`primes_for_conductor`), where zeta_N becomes a primitive
N-th root of unity in F_p (`root_of_unity_mod_p`).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import gcd

import numpy as np

from .cyclotomic import Cyclo

# 31-bit primes (products fit in int64) for integer matrices; both are
# = 1 mod 6, but only the first is = 1 mod 4 (2147483587 = 3 mod 4)
DEFAULT_PRIMES = (2147483629, 2147483587)


def rank_int_exact(rows: list) -> int:
    """Exact rank of an integer matrix, given as a list of row lists.

    Destructive on a copy; entries stay integral via gcd normalization.
    """
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    col = 0
    while rows and col < ncols:
        # smallest nonzero pivot in this column keeps entries small
        pivot_i = None
        for i, r in enumerate(rows):
            if r[col] and (pivot_i is None or abs(r[col]) < abs(rows[pivot_i][col])):
                pivot_i = i
        if pivot_i is None:
            col += 1
            continue
        pivot_row = rows.pop(pivot_i)
        p = pivot_row[col]
        rank += 1
        remaining = []
        for r in rows:
            if r[col]:
                g = gcd(p, r[col])
                a, b = p // g, r[col] // g
                r = [a * x - b * y for x, y in zip(r, pivot_row)]
                if any(r):
                    g = 0
                    for x in r:
                        g = gcd(g, x)
                        if g == 1:
                            break
                    if g > 1:
                        r = [x // g for x in r]
                    remaining.append(r)
            else:
                remaining.append(r)
        rows = remaining
        col += 1
    return rank


def nullspace_rational(rows: list) -> list:
    """Right nullspace basis of a matrix with int/Fraction entries.

    Returns a list of Fraction vectors; exact, for small matrices.
    """
    rows = [[Fraction(x) for x in r] for r in rows]
    if not rows:
        return []
    ncols = len(rows[0])
    pivots = []
    r_idx = 0
    for col in range(ncols):
        pivot = None
        for i in range(r_idx, len(rows)):
            if rows[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r_idx], rows[pivot] = rows[pivot], rows[r_idx]
        pv = rows[r_idx][col]
        rows[r_idx] = [x / pv for x in rows[r_idx]]
        for i in range(len(rows)):
            if i != r_idx and rows[i][col]:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r_idx])]
        pivots.append(col)
        r_idx += 1
        if r_idx == len(rows):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -rows[i][fc]
        basis.append(v)
    return basis


def rank_cyclo_exact(rows: list) -> int:
    """Exact rank over a cyclotomic field; entries are Cyclo/int/Fraction."""
    rows = [[Cyclo.coerce(x) for x in r] for r in rows]
    rows = [r for r in rows if any(r)]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    col = 0
    while rows and col < ncols:
        pivot_i = next((i for i, r in enumerate(rows) if r[col]), None)
        if pivot_i is None:
            col += 1
            continue
        pivot_row = rows.pop(pivot_i)
        inv = pivot_row[col].inverse()
        pivot_row = [x * inv for x in pivot_row]
        rank += 1
        nxt = []
        for r in rows:
            if r[col]:
                f = r[col]
                r = [x - f * y for x, y in zip(r, pivot_row)]
            if any(r):
                nxt.append(r)
        rows = nxt
        col += 1
    return rank


def rank_mod_p(matrix: np.ndarray, p: int) -> int:
    """Rank of an integer matrix mod p; vectorized elimination."""
    m = np.array(matrix, dtype=np.int64) % p
    nrows, ncols = m.shape
    rank = 0
    row = 0
    for col in range(ncols):
        if row == nrows:
            break
        nz = np.nonzero(m[row:, col])[0]
        if nz.size == 0:
            continue
        i = row + int(nz[0])
        if i != row:
            m[[row, i]] = m[[i, row]]
        inv = pow(int(m[row, col]), p - 2, p)
        m[row] = (m[row] * inv) % p
        colvals = m[row + 1 :, col].copy()
        mask = colvals != 0
        if mask.any():
            m[row + 1 :][mask] = (
                m[row + 1 :][mask] - colvals[mask, None] * m[row][None, :]
            ) % p
        row += 1
        rank += 1
    return rank


def rank_two_primes(matrix, primes: tuple = DEFAULT_PRIMES) -> int:
    """Modular rank with two independent primes; raises on disagreement.

    `matrix` is an integer ndarray, or a function from a prime p to the
    matrix's image mod p (for a matrix over Q(zeta_N), with the primes of
    `primes_for_conductor(N)`).  The agreed value is a certified lower
    bound for the rank over the field and equals it away from finitely
    many primes; callers must flag the lower-bound semantics.
    """
    r0, r1 = (rank_mod_p(matrix(p) if callable(matrix) else matrix, p) for p in primes)
    if r0 != r1:
        raise ArithmeticError(
            f"modular ranks disagree: {r0} mod {primes[0]}, {r1} mod {primes[1]}"
        )
    return r0


def primes_for_conductor(N: int) -> tuple:
    """Two primes p = 1 (mod N) near 2^31, so that zeta_N has an image in
    F_p: `DEFAULT_PRIMES` for N = 1, else the two largest from
    (2^31 // N) * N + 1 down."""
    if N == 1:
        return DEFAULT_PRIMES
    return tuple(islice(filter(_is_prime, range((2**31 // N) * N + 1, 0, -N)), 2))


def root_of_unity_mod_p(N: int, p: int) -> int:
    """The first g^((p-1)/N), g = 2, 3, ..., of multiplicative order N in
    F_p, a primitive N-th root of unity; requires p = 1 (mod N)."""
    for g in range(2, p):
        z = pow(g, (p - 1) // N, p)
        if all(pow(z, j, p) != 1 for j in range(1, N)):
            return z


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases: exact below 3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % a == 0 for a in bases):
        return n in bases
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
