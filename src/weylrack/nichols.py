"""Nichols-algebra graded dimensions via quantum symmetrizer ranks, and
degree-2 relation extraction for the transposition-class presets.

The degree-k component of the Nichols algebra of a braiding c has
dimension equal to the rank of the quantum symmetrizer
S_k = sum over w in S_k of lift(w), where lift is the Matsumoto section:
lift(w) = c_{i_1} ... c_{i_l} for any reduced word s_{i_1} ... s_{i_l}
of w, with c_i the braiding applied at tensor positions (i, i+1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import lcm

import numpy as np

from .cyclotomic import Cyclo
from .linalg import (
    nullspace_rational,
    rank_cyclo_exact,
    rank_int_exact,
    rank_two_primes,
)
from .ydmodule import Braiding


def reduced_word(images: tuple, from_right: bool = False) -> tuple:
    """A reduced word for the permutation with the given 0-based one-line
    images, as a tuple of adjacent-transposition positions (0-based).

    Repeatedly resolves the leftmost descent (rightmost when
    `from_right`); the length equals the inversion number, so the word is
    reduced.  The two variants give generically different reduced words,
    which feeds the word-independence property test.
    """
    arr = list(images)
    word = []
    while True:
        descents = [i for i in range(len(arr) - 1) if arr[i] > arr[i + 1]]
        if not descents:
            return tuple(reversed(word))
        i = descents[-1] if from_right else descents[0]
        arr[i], arr[i + 1] = arr[i + 1], arr[i]
        word.append(i)


def lift_word(braiding: Braiding, word: tuple, k: int, state: dict) -> dict:
    """Apply the lift of a reduced word to a combination of basis tuples."""
    for pos in reversed(word):
        state = braiding._apply_at(state, pos, k)
        if not state:
            break
    return state


def symmetrizer_columns(braiding: Braiding, k: int, from_right: bool = False):
    """Yield (column index, {row tuple: coeff}) for S_k on V^(x k)."""
    D = braiding.D
    words = [reduced_word(p, from_right) for p in permutations(range(k))]

    def flat(tup):
        out = 0
        for x in tup:
            out = out * D + x
        return out

    total = D**k
    for col in range(total):
        tup = []
        c = col
        for _ in range(k):
            tup.append(c % D)
            c //= D
        tup = tuple(reversed(tup))
        acc: dict = {}
        for w in words:
            for t, v in lift_word(braiding, w, k, {tup: Cyclo.rational(1)}).items():
                acc[t] = acc.get(t, Cyclo.rational(0)) + v
        yield col, {flat(t): v for t, v in acc.items() if not v.is_zero()}


@dataclass
class GradedDims:
    dims: list
    exact: bool
    method: str
    truncated_at: int | None = None  # budget stop, if any

    def total(self) -> int:
        return sum(self.dims)

    def to_json(self) -> dict:
        return {
            "dims": self.dims,
            "exact": self.exact,
            "method": self.method,
            "truncated_at": self.truncated_at,
        }


# largest D^k ranked by exact integer elimination
EXACT_LIMIT = 300


def nichols_graded_dim(
    braiding: Braiding,
    max_degree: int,
    budget: int = 500_000,
    from_right: bool = False,
) -> GradedDims:
    """Graded dimensions dims[k] = rank(S_k) for k = 0..max_degree.

    Exact integer elimination while D^k <= EXACT_LIMIT and the entries
    are rational integers; modular with two agreeing primes beyond, with
    the result flagged as lower-bound ("mod-p") semantics.  Stops early
    and records the truncation degree when D^k exceeds the budget.
    """
    D = braiding.D
    dims = [1]
    exact = True
    methods = set()
    truncated = None
    for k in range(1, max_degree + 1):
        if k == 1:
            dims.append(D)
            continue
        size = D**k
        if size > budget:
            truncated = k
            break
        cols = dict(symmetrizer_columns(braiding, k, from_right))
        conductor = 1
        for col in cols.values():
            for v in col.values():
                conductor = lcm(conductor, v.N)
        if conductor == 1:
            int_cols = {
                c: {r: _as_int(v) for r, v in col.items()} for c, col in cols.items()
            }
            if size <= EXACT_LIMIT:
                rows = [[0] * size for _ in range(size)]
                for c, col in int_cols.items():
                    for r, v in col.items():
                        rows[r][c] = v
                dims.append(rank_int_exact(rows))
                methods.add("exact-int")
            else:
                M = np.zeros((size, size), dtype=np.int64)
                for c, col in int_cols.items():
                    for r, v in col.items():
                        M[r, c] = v
                dims.append(rank_two_primes(M))
                methods.add("mod-p")
                exact = False
        else:
            if size <= 100:
                rows = [[Cyclo.rational(0)] * size for _ in range(size)]
                for c, col in cols.items():
                    for r, v in col.items():
                        rows[r][c] = v
                dims.append(rank_cyclo_exact(rows))
                methods.add("exact-cyclo")
            else:
                ps = _primes_for_conductor(conductor)
                M0 = _cyclo_matrix_mod_p(cols, size, conductor, ps[0])
                M1 = _cyclo_matrix_mod_p(cols, size, conductor, ps[1])
                from .linalg import rank_mod_p

                r0, r1 = rank_mod_p(M0, ps[0]), rank_mod_p(M1, ps[1])
                if r0 != r1:
                    raise ArithmeticError("modular cyclotomic ranks disagree")
                dims.append(r0)
                methods.add("mod-p")
                exact = False
    return GradedDims(dims, exact, "+".join(sorted(methods)) or "trivial", truncated)


def _as_int(v: Cyclo) -> int:
    q = v.as_rational()
    if q.denominator != 1:
        raise ValueError("expected integer entry")
    return q.numerator


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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


def _primes_for_conductor(N: int, count: int = 2) -> list:
    """Primes p = 1 (mod N) near 2^31, so zeta_N embeds in F_p."""
    out = []
    p = (2**31 // N) * N + 1
    while len(out) < count:
        if _is_prime(p):
            out.append(p)
        p -= N
    return out


def _cyclo_matrix_mod_p(cols: dict, size: int, N: int, p: int) -> np.ndarray:
    # a primitive N-th root of unity in F_p
    for g in range(2, p):
        z = pow(g, (p - 1) // N, p)
        if all(pow(z, N // q, p) != 1 for q in _prime_factors(N)):
            break
    M = np.zeros((size, size), dtype=np.int64)
    for c, col in cols.items():
        for r, v in col.items():
            x = v.promote(N) if v.N != N else v
            acc = 0
            zz = 1
            for coeff in x.coeffs:
                num = coeff.numerator % p
                den = pow(coeff.denominator % p, p - 2, p)
                acc = (acc + num * den % p * zz) % p
                zz = zz * z % p
            M[r, c] = acc
    return M


def _prime_factors(n: int) -> set:
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


# -- degree-2 relations -----------------------------------------------------


def degree2_kernel(braiding: Braiding) -> list:
    """Basis of ker(id + c) on V (x) V, as Fraction vectors (requires a
    rational braiding matrix)."""
    n = braiding.D**2
    rows = [[Fraction(0)] * n for _ in range(n)]
    for (a, b), out in braiding.terms.items():
        col = a * braiding.D + b
        rows[col][col] += 1
        for (a2, b2), v in out:
            rows[a2 * braiding.D + b2][col] += v.as_rational()
    return nullspace_rational(rows)


def in_degree2_kernel(braiding: Braiding, combo: dict) -> bool:
    """Is sum coeff * e_a (x) e_b (combo keyed by pairs) killed by id+c?"""
    acc: dict = {}
    for (a, b), coeff in combo.items():
        coeff = Cyclo.coerce(coeff)
        acc[(a, b)] = acc.get((a, b), Cyclo.rational(0)) + coeff
        for (a2, b2), v in braiding.terms[(a, b)]:
            acc[(a2, b2)] = acc.get((a2, b2), Cyclo.rational(0)) + v * coeff
    return all(v.is_zero() for v in acc.values())


# -- transposition-preset relation patterns --------------------------------


def _pair_index_map(n: int) -> dict:
    pairs = [(k, j) for k in range(1, n + 1) for j in range(k + 1, n + 1)]
    return {p: i for i, p in enumerate(pairs)}


def transposition_zeta(cs, pair_a: tuple, pair_b: tuple):
    """zeta_{pair_a}(t_{pair_b}) for the transposition preset: the gamma
    with t_b^-1 g_a = g_j gamma in the coset system."""
    n = cs.cls.group.n
    idx = _pair_index_map(n)
    i = idx[tuple(sorted(pair_a))]
    t_b = cs.cls.elements[idx[tuple(sorted(pair_b))]]
    _, gamma = cs.zeta(i, t_b.inverse())
    return gamma


def sign_product(cs, chi, i: int, j: int, k: int):
    """chi(zeta_ij(t_jk)) chi(zeta_jk(t_ik)) chi(zeta_ik(t_ij))."""
    out = Cyclo.rational(1)
    for pa, pb in (((i, j), (j, k)), ((j, k), (i, k)), ((i, k), (i, j))):
        out = out * chi(transposition_zeta(cs, pa, pb))[0][0]
    return out


TABLE1_CASES = [
    # (label, membership test on (i, j, k))
    ("2<i<j<k", lambda i, j, k: 2 < i < j < k),
    ("i=1,j=2<k", lambda i, j, k: i == 1 and j == 2 < k),
    ("i=1,2<j<k", lambda i, j, k: i == 1 and 2 < j < k),
    ("i=2<j<k", lambda i, j, k: i == 2 < j < k),
    ("2<i<k<j", lambda i, j, k: 2 < i < k < j),
    ("i=1,k=2<j", lambda i, j, k: i == 1 and k == 2 < j),
    ("i=1,2<k<j", lambda i, j, k: i == 1 and 2 < k < j),
    ("i=2<k<j", lambda i, j, k: i == 2 < k < j),
]


def table1_values(cs, chi) -> dict:
    """Evaluate chi on the three cocycle values a = zeta_ij(t_jk),
    b = zeta_jk(t_ik), c = zeta_ik(t_ij) for every index triple in each
    of the eight case patterns; raises if a case is not constant."""
    n = cs.cls.group.n
    out = {}
    for label, member in TABLE1_CASES:
        values = set()
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                for k in range(1, n + 1):
                    if len({i, j, k}) != 3 or not member(i, j, k):
                        continue
                    triple = tuple(
                        _as_int(chi(transposition_zeta(cs, pa, pb))[0][0])
                        for pa, pb in (
                            ((i, j), (j, k)),
                            ((j, k), (i, k)),
                            ((i, k), (i, j)),
                        )
                    )
                    values.add(triple)
        if len(values) > 1:
            raise AssertionError(f"case {label} is not constant: {values}")
        if values:
            out[label] = values.pop()
    return out


def triple_relation_signs(braiding: Braiding, n: int, i: int, j: int, k: int) -> list:
    """Sign pairs (alpha, beta) with
    e_ij (x) e_jk + alpha e_jk (x) e_ik + beta e_ik (x) e_ij in ker(id+c),
    indices referring to transposition basis vectors."""
    idx = _pair_index_map(n)
    a = idx[tuple(sorted((i, j)))]
    b = idx[tuple(sorted((j, k)))]
    c = idx[tuple(sorted((i, k)))]
    out = []
    for alpha in (1, -1):
        for beta in (1, -1):
            if in_degree2_kernel(braiding, {(a, b): 1, (b, c): alpha, (c, a): beta}):
                out.append((alpha, beta))
    return out


def pair_relation_lambdas(
    braiding: Braiding, n: int, i: int, j: int, k: int, l: int
) -> list:
    """Signs lam with e_ij (x) e_kl - lam e_kl (x) e_ij in ker(id+c), for
    disjoint transpositions."""
    idx = _pair_index_map(n)
    a = idx[tuple(sorted((i, j)))]
    b = idx[tuple(sorted((k, l)))]
    out = []
    for lam in (1, -1):
        if in_degree2_kernel(braiding, {(a, b): 1, (b, a): -lam}):
            out.append(lam)
    return out


def square_relation_holds(braiding: Braiding, n: int, i: int, j: int) -> bool:
    """e_ij (x) e_ij in ker(id+c), i.e. the generator squares to zero."""
    idx = _pair_index_map(n)
    a = idx[tuple(sorted((i, j)))]
    return in_degree2_kernel(braiding, {(a, a): 1})
