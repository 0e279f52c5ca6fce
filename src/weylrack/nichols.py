"""Nichols-algebra graded dimensions via quantum symmetrizer ranks, and
degree-2 relation extraction for the transposition-class presets.

The degree-k component of the Nichols algebra of a braiding c has
dimension equal to the rank of the quantum symmetrizer
S_k = sum over w in S_k of lift(w), where lift is the Matsumoto section:
lift(w) = c_{i_1} ... c_{i_l} for any reduced word s_{i_1} ... s_{i_l}
of w, with c_i the braiding applied at tensor positions (i, i+1).

S_k is built on index arrays: the D^k basis tuples of a degree are one
stack of flat indices, the identity, and S_k is applied to it as the
product of its coset factors (Andruskiewitsch-Schneider, "Pointed Hopf
algebras", 2002): S_k = (S_{k-1} (x) id)(id + c_{k-2} + c_{k-2}c_{k-3} +
... + c_{k-2}...c_0), positions counted from 0, which takes k(k-1)/2
applications of c instead of one per letter of k! reduced words.  Each one runs over the whole stack
at once in `Braiding._apply_at`, which sends each pair x_a (x) x_b to
x_{a>b} (x) x_a and multiplies in q_ab, both read from the braiding's two
D x D arrays: the stack is int64 when every q is an int and no sum can
overflow, Python objects (big ints, `Cyclo`s) otherwise.  The degree-2
kernel test applies c the same way.
S_k stays in arrays from the lift to the rank: the connected components
of its support are its diagonal blocks, each ranked on its own on the
exact or modular path that `nichols_graded_dim` describes.

A braiding of rack type, c(x_a (x) x_b) = q_ab x_{a>b} (x) x_a, grades
V^(x k) by rack degree: the degree of a word a_1 ... a_k is the
permutation phi_{a_1} o ... o phi_{a_k} of the basis, phi_a(b) = a > b.
Each c_i keeps the degree when > is a rack (phi_{a>b} phi_a = phi_a
phi_b), so S_k is block diagonal by degree.  If q is also a rack
2-cocycle, q(x, y>z) q(y, z) = q(x>y, x>z) q(x, z), the map
x_j -> q_zj x_{z>j} at every tensor position commutes with every c_i,
and it carries the block of degree g onto that of phi_z g phi_z^-1
(Andruskiewitsch-Grana, "From racks to pointed Hopf algebras", 2003).
Conjugate blocks then have equal rank over any field in which the q_zj
are non-zero, so `nichols_graded_dim` builds and ranks only the columns
of the least degree of each orbit and counts each rank once per degree
of the orbit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, permutations, repeat
from math import factorial, lcm

import numpy as np

from .cyclotomic import Cyclo, as_int
from .groups import MEMORY_BUDGET, inverse_rows
from .linalg import (
    primes_for_conductor,
    rank_cyclo_exact,
    rank_int_exact,
    rank_mod_p,
    rank_two_primes,
    root_of_unity_mod_p,
)
from .ncalg import NCPresentation
from .ydmodule import Braiding


def _combine(key: np.ndarray, coeff: np.ndarray) -> tuple:
    """Sum the coefficients of equal keys and drop the zero sums; the
    keys come back sorted.  One sort, then np.add.reduceat over the runs."""
    order = np.argsort(key)
    key = key[order]
    first = np.flatnonzero(np.diff(key, prepend=key[:1] - 1))  # each run's start
    sums = np.add.reduceat(coeff[order], first)
    nonzero = sums.astype(bool)
    return key[first[nonzero]], sums[nonzero]


def lift_word(braiding: Braiding, word: tuple, k: int, stack: tuple) -> tuple:
    """Apply c_{i_1} ... c_{i_l} to a whole stack of terms on V^(x k), one
    `Braiding._apply_at` per letter from the right; the stack is as
    `_apply_at` takes it.  `symmetrizer_columns` lifts one letter at a
    time."""
    for pos in reversed(word):
        stack = braiding._apply_at(stack, pos, k)
    return stack


def symmetrizer_columns(braiding: Braiding, k: int, columns: np.ndarray | None = None):
    """Yield (column index, entries) for S_k on V^(x k), for every column
    in order, or for the ascending flat indices `columns` only: entries
    is the column's slice of one array of (column, row, coeff) triples
    sorted by row, in int64 when the lift is, as objects (big ints,
    `Cyclo`s) otherwise.

    Basis tuples are flat indices in base D, the first tensor position
    most significant.  The columns start as one stack, the identity on
    them, and the coset factors R_k, ..., R_2 act on it in turn, where
    R_m = id + c_{m-2}(id + c_{m-3}(... (id + c_0))): one one-letter
    `lift_word` per step, summed into the stack by `_combine`.
    Expanded, they give the reduced words of the leftmost descent, so
    they match that per-word sum term by term, even for a c that fails
    the braid equation.  Every entry at every step is a
    partial sum of the same at most k! products of at most k(k-1)/2
    coefficients, which `int64_stack` bounds."""
    total = braiding.D**k
    dtype = np.int64 if braiding.int64_stack(k * (k - 1) // 2, factorial(k)) else object
    if columns is None:
        columns = np.arange(total, dtype=np.int64)
    stack = columns * (total + 1), np.ones(len(columns), dtype)
    for m in range(k, 1, -1):
        acc = stack
        for pos in range(m - 1):
            image = lift_word(braiding, (pos,), k, acc)
            acc = _combine(*(np.concatenate(pair) for pair in zip(stack, image)))
        stack = acc
    col, row = np.divmod(stack[0], total)
    entries = np.column_stack((col, row, stack[1]))
    bounds = np.searchsorted(col, np.append(columns, total)).tolist()
    for i, c in enumerate(columns.tolist()):
        yield c, entries[bounds[i] : bounds[i + 1]]


@dataclass
class GradedDims:
    dims: list
    exact: bool
    method: str
    truncated_at: int | None = None  # budget stop, if any

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

# peak bytes per (word, column) term of the former per-word lift stack,
# about 77 measured under tracemalloc for a monomial braiding
LIFT_TERM_BYTES = 80


def _degree_bytes(D: int, k: int) -> int:
    """Bytes that degree k is counted to need at once: the larger of the
    dense D^k x D^k int64 matrix (see `MEMORY_BUDGET`) and a stack of k!
    lifts of every column.  Neither is allocated any more: the coset
    factors of `symmetrizer_columns` hold one partial product and one
    step's image at a time (19 MB at the peak for S_4 at degree 5, where
    the lift term counts 75 MB).  The count stays so that the degrees it
    admits stay where they were: S_4 stops at degree 6 on both terms, and
    `nichols-dim --n 3` at degree 7 on the lift term alone, a truncation
    pinned in the CLI tests' digests."""
    size = D**k
    return max(8 * size * size, LIFT_TERM_BYTES * factorial(k) * size)


def nichols_graded_dim(braiding: Braiding, max_degree: int) -> GradedDims:
    """Graded dimensions dims[k] = rank(S_k) for k = 0..max_degree.

    When `_rack_grading`, run once the budget admits degree 2, finds c
    to be a bijection of rack type with integer scalars q forming a rack
    2-cocycle, degree k builds only the columns that `_degree_orbits`
    keeps at k, one degree per orbit of rack degrees under conjugation,
    and counts each block's rank once for every degree in its orbit:
    the module docstring's transport makes the blocks of one orbit
    isomorphic.  On the modular path that needs every q non-zero mod
    both primes too.  Otherwise every column is built with weight 1.
    Integer scalars keep every degree's conductor at 1 whichever columns
    are built, so the path each degree takes, chosen by D^k as below,
    and its label stay what they are for all columns.

    S_k is built in ints when every braiding coefficient is a rational
    integer of conductor 1, in `Cyclo`s otherwise.  Each degree's path
    follows the lcm N of its entries' conductors (an int counts as 1, and
    an int64 S_k is read as N = 1 unscanned): exact elimination over Z
    ("exact-int") while D^k <= EXACT_LIMIT, or over Q(zeta_N)
    ("exact-cyclo") while D^k <= CYCLO_EXACT_LIMIT; beyond, the rank mod
    two agreeing primes p = 1 (mod N), a lower bound ("mod-p", not exact).
    Either way S_k is ranked by the diagonal blocks of `_components`.
    A non-integer entry of conductor 1 raises ValueError.
    Stops before building a degree whose `_degree_bytes` exceed
    `MEMORY_BUDGET` (read at each call) and records it as the truncation.
    """
    if max_degree < 0:
        raise ValueError(f"max_degree must be at least 0, got {max_degree}")
    D = braiding.D
    dims = [1] + [D] * (max_degree >= 1)
    exact = True
    methods = set()
    truncated = None
    orbits = None
    for k in range(2, max_degree + 1):
        if _degree_bytes(D, k) > MEMORY_BUDGET:
            truncated = k
            break
        if orbits is None:  # D^3 steps, taken once degree 2 is admitted
            phi, units = _rack_grading(braiding)
            orbits = repeat(None) if phi is None else islice(_degree_orbits(phi), 1, None)
        size = D**k
        graded = next(orbits)
        if graded is None or (size > EXACT_LIMIT and not units):
            graded = None, np.ones(size, dtype=np.int64)
        keep, weight = graded
        columns = symmetrizer_columns(braiding, k, keep)
        triples = np.concatenate([e for _, e in columns])
        (col, row), coeff = triples[:, :2].T.astype(np.int64), triples[:, 2]
        N = 1
        if coeff.dtype == object:
            N = lcm(1, *(getattr(v, "N", 1) for v in coeff))
            if N == 1 and braiding.norm is None:  # a rational degree of a `Cyclo` braiding
                coeff = np.frompyfunc(as_int, 1, 1)(coeff)
        single, parts = _components(row, col, size)
        weight = weight[row]  # an entry's row and column share a degree
        if size <= (EXACT_LIMIT if N == 1 else CYCLO_EXACT_LIMIT):
            rank = rank_int_exact if N == 1 else rank_cyclo_exact
            blocks = ((weight[at[0]], _dense(m, i, j, coeff[at]).tolist()) for m, i, j, at in parts)
            dims.append(int(weight[single].sum() + sum(w * rank(b) for w, b in blocks)))
            methods.add("exact-int" if N == 1 else "exact-cyclo")
        else:
            dims.append(_modular_rank(coeff, single, parts, N, weight))
            methods.add("mod-p")
            exact = False
    return GradedDims(dims, exact, "+".join(sorted(methods)) or "trivial", truncated)


def _rack_grading(braiding: Braiding) -> tuple:
    """(phi, units) for an invertible c whose scalars q are rational
    integers and which satisfies the braid equation: `check_braid_equation`
    refuses any other c, and with every q_ab non-zero it proves > a rack,
    a > (b > c) = (a > b) > (a > c), and q a rack 2-cocycle,
    q(a, b>c) q(b, c) = q(a>b, a>c) q(a, c), on every basis triple; units
    is whether every q_ab is non-zero mod both primes of
    `primes_for_conductor(1)`.  (None, False) for any other braiding."""
    if braiding.norm is None:
        return None, False
    try:
        braiding.check_braid_equation()
    except AssertionError:
        return None, False
    q = braiding.q.reshape(-1).tolist()
    return braiding.phi, all(v % p for p in primes_for_conductor(1) for v in q)


def _degree_orbits(phi: np.ndarray):
    """Yield, for k = 1, 2, ..., the flat indices of V^(x k) whose rack
    degree is the least of its orbit, ascending, and every index's
    weight, the size of its degree's orbit.  The degree of a word
    a_1 ... a_k is the row phi[a_1] o ... o phi[a_k], one letter more
    per k on the distinct rows, which `np.unique` sorts.  Conjugation by
    phi[z] takes the degree of a word to that of the word z > a_1 ...
    z > a_k (phi[z] phi[a] phi[z]^-1 = phi[z > a] in a rack), so one
    spelling of each degree finds its conjugates, and the orbits are the
    connected components of the graph joining each degree to them."""
    D = len(phi)
    letters = np.arange(D)
    degrees, word = letters[None], np.zeros(1, dtype=np.int64)
    spelling = np.zeros((1, 0), dtype=np.int64)
    while True:
        product = degrees[:, phi].reshape(-1, D)  # row d * D + a: degrees[d] o phi[a]
        degrees, first, at = np.unique(product, axis=0, return_index=True, return_inverse=True)
        word = at.reshape(-1)[(word[:, None] * D + letters).reshape(-1)]
        d, a = np.divmod(first, D)
        spelling = np.column_stack((spelling[d], a))  # a word of each degree
        m, k = spelling.shape
        conjugates = word[phi[:, spelling] @ D ** np.arange(k - 1, -1, -1)]  # (z, degree)
        root = _roots(np.tile(np.arange(m), D), conjugates.reshape(-1), m)
        yield np.flatnonzero(root[word] == word), np.bincount(root, minlength=m)[root][word]


def _roots(a: np.ndarray, b: np.ndarray, size: int) -> np.ndarray:
    """Each index's least index in its connected component of the graph
    on 0..size-1 with the edges (a[i], b[i]).  Each index starts as its
    own label; a round hooks the larger label of every edge whose two
    ends differ onto the smaller, then follows the labels to their
    roots, until no edge joins two labels."""
    label = np.arange(size)
    while (join := label[a] != label[b]).any():
        x, y = label[a[join]], label[b[join]]
        np.minimum.at(label, np.maximum(x, y), np.minimum(x, y))
        while not np.array_equal(jumped := label[label], label):
            label = jumped
    return label


def _components(row: np.ndarray, col: np.ndarray, size: int) -> tuple:
    """The connected components of the support of entries (row, col) on
    indices 0..size-1, where an entry (r, c) joins r and c.  No entry
    joins two, so each is a diagonal block under one permutation of rows
    and columns together, and the rank is the sum of the blocks' ranks.

    The components are labelled by `_roots`.  Returns the positions of
    the entries of the one-index components, and one (m, i, j, at) per
    larger one: its size m and, for its entries at positions `at`, their
    rows i and columns j among its indices."""
    label = _roots(row, col, size)
    extent = np.bincount(label, minlength=size)  # indices per component, at its label
    order = np.argsort(label, kind="stable")
    local = np.empty(size, dtype=np.int64)
    local[order] = np.arange(size) - (np.cumsum(extent) - extent)[label[order]]
    comp = label[row]
    per = np.bincount(comp, minlength=size)  # entries per component
    by, end = np.argsort(comp, kind="stable"), np.cumsum(per)
    parts = []
    for r in np.flatnonzero(extent > 1).tolist():
        at = by[end[r] - per[r] : end[r]]
        parts.append((int(extent[r]), local[row[at]], local[col[at]], at))
    return np.flatnonzero(extent[comp] == 1), parts


def _dense(m: int, i: np.ndarray, j: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The m x m block with values at (i, j) and zeros elsewhere."""
    block = np.zeros((m, m), dtype=values.dtype)
    block[i, j] = values
    return block


def _modular_rank(coeff: np.ndarray, single: np.ndarray, parts: list, N: int, weight: np.ndarray) -> int:
    """rank S_k mod the two primes of `primes_for_conductor(N)`, from the
    diagonal blocks of `_components`: a one-index block counts when its
    entry is non-zero mod p, and the larger ones are built mod p one at a
    time.  Each block's rank counts `weight` times, read at any of its
    entries."""

    def rank(p: int) -> int:
        z = root_of_unity_mod_p(N, p)
        out = weight[single][_residues(coeff[single], N, p, z) != 0].sum()
        for m, i, j, at in parts:
            out += weight[at[0]] * rank_mod_p(_dense(m, i, j, _residues(coeff[at], N, p, z)), p)
        return int(out)

    return rank_two_primes(rank, primes_for_conductor(N))


def _residues(values: np.ndarray, N: int, p: int, z: int) -> np.ndarray:
    """values mod a prime p = 1 (mod N) as int64, with zeta_N taken to z:
    ints are reduced at once, `Cyclo`s evaluated entry by entry."""
    if N > 1:
        out = []
        for v in values:
            if not isinstance(v, int):
                x, v = Cyclo.coerce(v).promote(N), 0
                for q in reversed(x.coeffs):
                    v = (v * z + q.numerator * pow(q.denominator, p - 2, p)) % p
            out.append(v)
        values = np.array(out, dtype=object)
    return (values % p).astype(np.int64, copy=False)


# -- degree-2 relations -----------------------------------------------------


def degree2_kernel(braiding: Braiding) -> list:
    """Basis of ker(id + c) on V (x) V for an invertible c with rational
    scalars, each vector a dict of Fractions keyed by basis pairs.  c
    permutes the pairs, so the kernel splits by its orbits: an orbit
    p_0 -> ... -> p_{l-1} carries one vector, v_0 = 1 and
    v_{i+1} = -q(p_i) v_i, when the product of its q is (-1)^l, and none
    otherwise.  The orbits are taken from their least pairs, in order."""
    braiding.check_invertible()
    D = braiding.D
    step = braiding.target.tolist()
    q = braiding.q.reshape(-1).tolist()
    q = [v if type(v) is int else Cyclo.coerce(v).as_rational() for v in q]
    seen = [False] * (D * D)
    basis = []
    for start in range(D * D):
        if seen[start]:
            continue
        p, v, vec = start, Fraction(1), {}
        while not seen[p]:
            seen[p] = True
            vec[divmod(p, D)] = v
            v, p = -q[p] * v, step[p]
        if v == 1:
            basis.append(vec)
    return basis


def quadratic_cover_presentation(braiding: Braiding) -> NCPresentation:
    """The quadratic algebra T(V)/(ker(id + c)): its Hilbert dimensions
    dominate the Nichols graded dimensions degreewise."""
    pres = NCPresentation([f"v{i}" for i in range(braiding.D)])
    for vec in degree2_kernel(braiding):
        pres.add_relation(vec)
    return pres


def in_degree2_kernel(braiding: Braiding, combo: dict) -> bool:
    """Is sum coeff * e_a (x) e_b (combo keyed by pairs) killed by id+c?"""
    key = np.array([a * braiding.D + b for a, b in combo], dtype=np.int64)
    coeff = np.array(list(combo.values()), dtype=object)
    image_key, image_coeff = braiding._apply_at((key, coeff), 0, 2)
    key, _ = _combine(np.concatenate([key, image_key]), np.concatenate([coeff, image_coeff]))
    return not len(key)


# -- transposition-preset relation patterns --------------------------------


def _pair_index_map(n: int) -> dict:
    pairs = [(k, j) for k in range(1, n + 1) for j in range(k + 1, n + 1)]
    return {p: i for i, p in enumerate(pairs)}


def cocycle_values(cs, chi, triples: list) -> list:
    """(chi(a), chi(b), chi(c)) for the cocycle values a = zeta_ij(t_jk),
    b = zeta_jk(t_ik) and c = zeta_ik(t_ij) of the transposition preset,
    one per point triple (i, j, k), from one cocycle call: zeta_a(t_b) is
    the gamma with t_b^-1 g_a = g_j gamma, read by its centralizer index."""
    idx = _pair_index_map(cs.cls.group.n)
    pairs = [
        (idx[tuple(sorted(pa))], idx[tuple(sorted(pb))])
        for i, j, k in triples
        for pa, pb in (((i, j), (j, k)), ((j, k), (i, k)), ((i, k), (i, j)))
    ]
    a, b = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    _, C = cs.zeta(a, *inverse_rows(cs.cls.P[b], cs.cls.A[b]))
    return [tuple(chi.values[c] for c in row) for row in C.reshape(-1, 3).tolist()]


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
    triples = list(permutations(range(1, cs.cls.group.n + 1), 3))
    values = cocycle_values(cs, chi, triples)
    out = {}
    for label, member in TABLE1_CASES:
        found = {
            tuple(map(as_int, row)) for triple, row in zip(triples, values) if member(*triple)
        }
        if len(found) > 1:
            raise AssertionError(f"case {label} is not constant: {found}")
        if found:
            out[label] = found.pop()
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
