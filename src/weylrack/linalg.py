"""Exact and modular rank computations.

Exact ranks are for small matrices: `rank_int_exact` is fraction-free
Gaussian elimination over the integers with gcd row normalization (pure
Python big ints), and `rank_cyclo_exact` eliminates over Q(zeta_N).

Every modular rank goes through `rank_two_primes`, the one agreement
check: it calls a rank function at two 31-bit primes and raises unless
the ranks agree (`rank_mod_p` is vectorized elimination in numpy, in
place); a block-diagonal matrix is ranked block by block.  The agreed
rank is a lower bound.  A matrix over Q(zeta_N) is given by its images
mod primes p = 1 (mod N) (`primes_for_conductor`), where zeta_N becomes a
primitive N-th root of unity in F_p (`root_of_unity_mod_p`).
"""

from __future__ import annotations

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


def rank_cyclo_exact(rows: list) -> int:
    """Exact rank over a cyclotomic field; entries are Cyclo/int/Fraction.
    Forward elimination: each pivot is the first non-zero at or below its
    row, scaled to 1, and the rows below it are cleared in its column."""
    rows = [[Cyclo.coerce(x) for x in r] for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        i = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if i is None:
            continue
        rows[rank], rows[i] = rows[i], rows[rank]
        inv = 1 / rows[rank][col]
        pivot = rows[rank] = [x * inv for x in rows[rank]]
        for k in range(rank + 1, len(rows)):
            if f := rows[k][col]:
                rows[k] = [x - f * y for x, y in zip(rows[k], pivot)]
        rank += 1
    return rank


def rank_mod_p(matrix: np.ndarray, p: int) -> int:
    """Rank of an integer matrix mod p by vectorized elimination: in
    place on an int64 ndarray, whose values are lost, and on an int64
    copy of anything else.  Each step jumps to the next column with a
    non-zero below the pivots found so far."""
    m = np.asarray(matrix, dtype=np.int64)
    m %= p
    rank = col = 0
    while rank < len(m):
        live = np.flatnonzero((m[rank:, col:] != 0).any(axis=0))
        if not live.size:
            break
        col += int(live[0])
        nz = np.flatnonzero(m[rank:, col])
        i = rank + int(nz[0])
        m[[rank, i]] = m[[i, rank]]
        m[rank] = m[rank] * pow(int(m[rank, col]), p - 2, p) % p
        if nz.size > 1:  # rows below with a non-zero in this column
            below = m[rank + 1 :]
            # einsum forms the outer product without the buffers that a
            # broadcast product allocates
            below -= np.einsum("i,j->ij", below[:, col], m[rank])
            below %= p
        rank += 1
        col += 1
    return rank


def rank_two_primes(rank, primes: tuple) -> int:
    """Modular rank with two independent primes; raises on disagreement.

    `rank` is a function from a prime p to the rank mod p of the matrix
    it stands for (for a block-diagonal matrix, the sum of its blocks'
    `rank_mod_p`; for a matrix over Q(zeta_N), with the primes of
    `primes_for_conductor(N)`).  The agreed value is a certified lower
    bound for the rank over the field and equals it away from finitely
    many primes; callers must flag the lower-bound semantics.
    """
    r0, r1 = map(rank, primes)
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
