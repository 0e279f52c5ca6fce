"""Nichols-algebra graded dimensions via quantum symmetrizer ranks, and
degree-2 relation extraction for the transposition-class presets.

The degree-k component of the Nichols algebra of a braiding c has
dimension equal to the rank of the quantum symmetrizer
S_k = sum over w in S_k of lift(w), where lift is the Matsumoto section:
lift(w) = c_{i_1} ... c_{i_l} for any reduced word s_{i_1} ... s_{i_l}
of w, with c_i the braiding applied at tensor positions (i, i+1).

S_k is built in the braiding's own scalars (ints for the CLI's +-1
characters, `Cyclo`s otherwise) and each degree takes one exact or one
modular rank path, as `nichols_graded_dim` describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import permutations
from math import lcm

import numpy as np

from .cyclotomic import Cyclo
from .linalg import (
    nullspace_rational,
    primes_for_conductor,
    rank_cyclo_exact,
    rank_int_exact,
    rank_two_primes,
    root_of_unity_mod_p,
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
    """Yield (column index, {row index: coeff}) for S_k on V^(x k), in the
    scalars of the braiding's coefficients."""
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
            for t, v in lift_word(braiding, w, k, {tup: 1}).items():
                acc[t] = acc.get(t, 0) + v
        yield col, {flat(t): v for t, v in acc.items() if v}


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


# largest D^k ranked by exact elimination over Z, and over Q(zeta_N)
EXACT_LIMIT = 300
CYCLO_EXACT_LIMIT = 100


def nichols_graded_dim(
    braiding: Braiding,
    max_degree: int,
    budget: int = 500_000,
    from_right: bool = False,
) -> GradedDims:
    """Graded dimensions dims[k] = rank(S_k) for k = 0..max_degree.

    S_k is built in ints when every braiding coefficient is a rational
    integer of conductor 1, in `Cyclo`s otherwise.  Each degree's path
    follows the lcm N of its entries' conductors (an int counts as 1):
    exact elimination over Z ("exact-int") while D^k <= EXACT_LIMIT, or
    over Q(zeta_N) ("exact-cyclo") while D^k <= CYCLO_EXACT_LIMIT; beyond,
    the rank mod two agreeing primes p = 1 (mod N), a lower bound ("mod-p",
    not exact).  A non-integer entry of conductor 1 raises ValueError.
    Stops early and records the truncation degree when D^k > budget.
    """
    D = braiding.D
    integral = all(_is_integer(v) for out in braiding.terms.values() for _, v in out)
    if integral:
        terms = {ab: [(t, _as_int(v)) for t, v in out] for ab, out in braiding.terms.items()}
        braiding = Braiding(D, terms)
    dims = [1] + [D] * (max_degree >= 1)
    exact = True
    methods = set()
    truncated = None
    for k in range(2, max_degree + 1):
        size = D**k
        if size > budget:
            truncated = k
            break
        cols = dict(symmetrizer_columns(braiding, k, from_right))
        N = lcm(1, *(getattr(v, "N", 1) for col in cols.values() for v in col.values()))
        if N == 1 and not integral:  # a rational degree of a `Cyclo` braiding
            cols = {c: {r: _as_int(v) for r, v in col.items()} for c, col in cols.items()}
        if size <= (EXACT_LIMIT if N == 1 else CYCLO_EXACT_LIMIT):
            rows = [[0] * size for _ in range(size)]
            for c, col in cols.items():
                for r, v in col.items():
                    rows[r][c] = v
            if N == 1:
                dims.append(rank_int_exact(rows))
                methods.add("exact-int")
            else:
                dims.append(rank_cyclo_exact(rows))
                methods.add("exact-cyclo")
        else:
            at_p = partial(_matrix_mod_p, cols, size, N)
            dims.append(rank_two_primes(at_p, primes_for_conductor(N)))
            methods.add("mod-p")
            exact = False
    return GradedDims(dims, exact, "+".join(sorted(methods)) or "trivial", truncated)


def _is_integer(v) -> bool:
    """Is v a rational integer written without zeta_N (conductor 1)?"""
    if isinstance(v, Cyclo):
        return v.N == 1 and v.coeffs[0].denominator == 1
    return Fraction(v).denominator == 1


def _as_int(v) -> int:
    q = v.as_rational() if isinstance(v, Cyclo) else Fraction(v)
    if q.denominator != 1:
        raise ValueError("expected integer entry")
    return q.numerator


def _matrix_mod_p(cols: dict, size: int, N: int, p: int) -> np.ndarray:
    """S_k over F_p, for a prime p = 1 (mod N): entries in Q(zeta_N) are
    evaluated at `root_of_unity_mod_p(N, p)`, ints are reduced mod p."""
    z = root_of_unity_mod_p(N, p)
    M = np.zeros((size, size), dtype=np.int64)
    for c, col in cols.items():
        for r, v in col.items():
            if not isinstance(v, int):
                x, v = Cyclo.coerce(v).promote(N), 0
                for q in reversed(x.coeffs):
                    v = (v * z + q.numerator * pow(q.denominator, p - 2, p)) % p
            M[r, c] = v % p
    return M


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
