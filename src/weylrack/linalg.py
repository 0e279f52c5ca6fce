"""Exact and modular rank/nullspace computations.

Three paths, chosen by the caller:

* integer matrices: fraction-free Gaussian elimination with gcd row
  normalization (exact, pure Python big ints);
* cyclotomic matrices: plain Gaussian elimination over Q(zeta_N)
  (exact, only for small dimensions);
* modular: vectorized elimination mod a 31-bit prime in numpy, used as a
  lower-bound engine with two independent primes required to agree.
"""

from __future__ import annotations

from fractions import Fraction
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
    rows = [r for r in rows if any(not x.is_zero() for x in r)]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    col = 0
    while rows and col < ncols:
        pivot_i = next((i for i, r in enumerate(rows) if not r[col].is_zero()), None)
        if pivot_i is None:
            col += 1
            continue
        pivot_row = rows.pop(pivot_i)
        inv = pivot_row[col].inverse()
        pivot_row = [x * inv for x in pivot_row]
        rank += 1
        nxt = []
        for r in rows:
            if not r[col].is_zero():
                f = r[col]
                r = [x - f * y for x, y in zip(r, pivot_row)]
            if any(not x.is_zero() for x in r):
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


def rank_two_primes(matrix: np.ndarray, primes: tuple = DEFAULT_PRIMES) -> int:
    """Modular rank with two independent primes; raises on disagreement.

    The agreed value is a certified lower bound for the rational rank and
    equals it away from finitely many primes; callers must flag the
    lower-bound semantics.
    """
    r0 = rank_mod_p(matrix, primes[0])
    r1 = rank_mod_p(matrix, primes[1])
    if r0 != r1:
        raise ArithmeticError(
            f"modular ranks disagree: {r0} mod {primes[0]}, {r1} mod {primes[1]}"
        )
    return r0
