"""Graded dimensions of braided symmetrizer quotients, degree-2 kernels,
and the transposition cocycle tables."""

import hashlib
import time
import tracemalloc
from fractions import Fraction
from itertools import permutations, product
from math import factorial

import numpy as np
import pytest

from weylrack import nichols
from weylrack.conjugacy import ConjugacyClass, transposition_preset
from weylrack.cyclotomic import Cyclo, as_int
from weylrack.groups import Bn, Permutation
from weylrack.linalg import (
    primes_for_conductor,
    rank_int_exact,
    rank_mod_p,
    rank_two_primes,
    root_of_unity_mod_p,
)
from weylrack.nichols import (
    GradedDims,
    TABLE1_CASES,
    cocycle_values,
    degree2_kernel,
    nichols_graded_dim,
    pair_relation_lambdas,
    square_relation_holds,
    symmetrizer_columns,
    table1_values,
    triple_relation_signs,
)
from weylrack.reps import chi_eps_sgn, chi_sgn_sgn
from weylrack.ydmodule import Braiding, build_yd_module


def braiding_for(n, char):
    cs = transposition_preset(n)
    chi = char(cs.centralizer)
    return build_yd_module(cs, chi).braiding()


def test_s3_graded_dims_exact():
    c = braiding_for(3, chi_sgn_sgn)
    out = nichols_graded_dim(c, 5)
    assert out.dims == [1, 3, 4, 3, 1, 0]
    assert sum(out.dims) == 12
    assert out.exact
    assert out.method == "exact-int"
    assert out.truncated_at is None
    # palindromic over the support
    support = out.dims[:5]
    assert support == support[::-1]


def test_s3_both_characters_agree():
    a = nichols_graded_dim(braiding_for(3, chi_sgn_sgn), 4)
    b = nichols_graded_dim(braiding_for(3, chi_eps_sgn), 4)
    assert a.dims == b.dims == [1, 3, 4, 3, 1]


def test_s4_graded_dims_modular():
    c = braiding_for(4, chi_sgn_sgn)
    out = nichols_graded_dim(c, 4)
    assert out.dims == [1, 6, 19, 42, 71]
    assert not out.exact  # degree 4 needs the two-prime modular engine
    assert "mod-p" in out.method


def test_budget_truncation_is_flagged(monkeypatch):
    # a byte budget: the dense 216 x 216 int64 matrix of degree 3 fits,
    # the 1296 x 1296 one of degree 4 does not
    monkeypatch.setattr(nichols, "MEMORY_BUDGET", 8 * 216**2)
    c = braiding_for(4, chi_sgn_sgn)
    out = nichols_graded_dim(c, 6)
    assert out.truncated_at == 4
    assert out.dims == [1, 6, 19, 42]


def test_default_budget_stops_before_degree_six(monkeypatch):
    # n = 4 degree 6 would need a 17.4 GB dense matrix; the default
    # budget admits degree 5 (484 MB) and refuses degree 6 before
    # building anything.  The modular ranks (degrees 4 and 5) are stubbed
    # out, so the test allocates neither large dense matrix.
    built = []

    def columns(braiding, k, columns=None):
        built.append(k)
        return symmetrizer_columns(braiding, k, columns)

    monkeypatch.setattr(nichols, "symmetrizer_columns", columns)
    monkeypatch.setattr(nichols, "rank_two_primes", lambda matrix, primes: -1)
    c = braiding_for(4, chi_sgn_sgn)
    start = time.perf_counter()
    out = nichols_graded_dim(c, 6)
    assert time.perf_counter() - start < 1.0
    assert out.truncated_at == 6
    assert built == [2, 3, 4, 5]
    assert out.dims == [1, 6, 19, 42, -1, -1]


def test_modular_rank_holds_one_working_copy(monkeypatch):
    # n = 4 to degree 4: only degree 4 is ranked mod p.  Its components
    # are built mod p one at a time and eliminated in place, so the rank
    # may hold the largest component's block and the elimination's
    # temporaries, never the dense 1296 x 1296 int64 matrix (13436928
    # bytes).
    peaks = []
    sizes = []
    rank = nichols.rank_two_primes
    components = nichols._components

    def traced(matrix, primes):
        tracemalloc.start()
        try:
            result = rank(matrix, primes)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        return result

    def recorded(row, col, size):
        single, parts = components(row, col, size)
        sizes.append([m for m, *_ in parts])
        return single, parts

    monkeypatch.setattr(nichols, "rank_two_primes", traced)
    monkeypatch.setattr(nichols, "_components", recorded)
    assert nichols_graded_dim(braiding_for(4, chi_sgn_sgn), 4).dims == [1, 6, 19, 42, 71]
    assert len(peaks) == 1
    largest = max(sizes[-1])
    assert largest < 1296
    assert peaks[0] < 3 * 8 * largest**2


def mixed_conductor_braiding():
    """Diagonal on D = 11 with entries zeta_3 and zeta_4."""
    q = {3: Cyclo.zeta(3), 4: Cyclo.zeta(4)}
    return diagonal_braiding(lambda a, b: q[3] if (a + b) % 2 else q[4], 11)


def test_mixed_conductor_entries_use_the_lcm():
    # the modular path (D^2 = 121 > 100) needs a conductor divisible by
    # both 3 and 4
    out = nichols_graded_dim(mixed_conductor_braiding(), max_degree=2)
    # id + c is invertible on every 2x2 block and 1 + zeta_4 != 0
    assert out.dims == [1, 11, 121]
    assert not out.exact
    assert out.method == "mod-p"


def dense_mod_p(row, col, coeff, size, N, p):
    """S_k over F_p as one dense matrix, as the modular rank built it
    before it went block by block."""
    z = root_of_unity_mod_p(N, p)
    M = np.zeros((size, size), dtype=np.int64)
    for r, c, v in zip(row.tolist(), col.tolist(), coeff.tolist()):
        if not isinstance(v, int):
            x, v = Cyclo.coerce(v).promote(N), 0
            for q in reversed(x.coeffs):
                v = (v * z + q.numerator * pow(q.denominator, p - 2, p)) % p
        M[r, c] = v % p
    return M


def planted_blocks(seed, size=400):
    """A sparse integer matrix, as (row, col, coeff, size) arrays, made of
    square blocks (one of 150 indices) with dependent columns, under a
    random permutation of rows and columns together."""
    rng = np.random.default_rng(seed)
    sizes = [150]
    while sum(sizes) < size:
        sizes.append(int(min(rng.integers(1, 40), size - sum(sizes))))
    perm = rng.permutation(size)
    rows, cols, coeffs = [], [], []
    start = 0
    for m in sizes:
        block = rng.integers(-3, 4, (m, m)) * (rng.random((m, m)) < 4 / m)
        for c in rng.choice(m, m // 4, replace=False):
            a, b = rng.integers(0, m, 2)
            block[:, c] = block[:, a] - 2 * block[:, b]
        r, c = np.nonzero(block)
        rows.append(perm[start + r])
        cols.append(perm[start + c])
        coeffs.append(block[r, c])
        start += m
    return (*map(np.concatenate, (rows, cols, coeffs)), size)


def symmetrizer(braiding, k):
    """S_k as (row, col, coeff, size), drained from `symmetrizer_columns`
    as `nichols_graded_dim` drains it."""
    triples = np.concatenate([e for _, e in symmetrizer_columns(braiding, k)])
    col, row = triples[:, :2].T.astype(np.int64)
    return row, col, triples[:, 2], braiding.D**k


BLOCK_CASES = {
    "s4-sgn-sgn-degree-4": (lambda: symmetrizer(integral(braiding_for(4, chi_sgn_sgn)), 4), 1, 71),
    "s4-eps-sgn-degree-4": (lambda: symmetrizer(integral(braiding_for(4, chi_eps_sgn)), 4), 1, 71),
    "mixed-conductor-degree-2": (lambda: symmetrizer(mixed_conductor_braiding(), 2), 12, 121),
    "planted-seed-5": (lambda: planted_blocks(5), 1, None),
    "planted-seed-6": (lambda: planted_blocks(6), 1, None),
    # S_5 of the S_3 transposition braiding is zero: no entries at all
    "s3-degree-5": (lambda: symmetrizer(integral(braiding_for(3, chi_sgn_sgn)), 5), 1, 0),
}


def is_connected(m, i, j):
    root = list(range(m))

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    for a, b in zip(i.tolist(), j.tolist()):
        root[find(a)] = find(b)
    return len({find(x) for x in range(m)}) == 1


@pytest.mark.parametrize("case", list(BLOCK_CASES))
def test_block_rank_matches_the_dense_rank(case):
    make, N, expected = BLOCK_CASES[case]
    row, col, coeff, size = make()
    single, parts = nichols._components(row, col, size)
    # every entry lies in one component: a one-index one on the diagonal,
    # or a larger one that is connected and maps its indices one to one
    assert (row[single] == col[single]).all()
    seen = set(row[single].tolist())
    for m, i, j, at in parts:
        assert is_connected(m, i, j)
        local = {}
        for g, a in zip(np.r_[row[at], col[at]].tolist(), np.r_[i, j].tolist()):
            assert local.setdefault(g, a) == a
        assert sorted(local.values()) == list(range(m))
        assert not seen & local.keys()
        seen |= local.keys()
    placed = np.concatenate([single] + [at for *_, at in parts])
    assert sorted(placed.tolist()) == list(range(len(row)))
    dense = rank_two_primes(
        lambda p: rank_mod_p(dense_mod_p(row, col, coeff, size, N, p), p), primes_for_conductor(N)
    )
    assert nichols._modular_rank(coeff, single, parts, N, np.ones(len(coeff), dtype=np.int64)) == dense
    if expected is not None:
        assert dense == expected
    else:
        assert 0 < dense < size


def diagonal_braiding(q, D=2):
    """c(e_a (x) e_b) = q(a, b) e_b (x) e_a: the trivial rack, a > b = b."""
    return Braiding(np.tile(np.arange(D), (D, 1)), [[q(a, b) for b in range(D)] for a in range(D)])


def test_cyclotomic_braiding_ranks_over_the_field():
    # q_aa = 1 and q_ab q_ba = 1: a polynomial ring in two variables
    z = Cyclo.zeta(3)
    out = nichols_graded_dim(diagonal_braiding(lambda a, b: z ** (a + 2 * b)), 5)
    assert out.dims == [1, 2, 3, 4, 5, 6]
    assert out.method == "exact-cyclo"
    assert out.exact


def test_integer_valued_cyclo_keeps_its_conductor():
    # zeta_4^2 = -1 everywhere: an exterior algebra; degrees 3 and 4 have
    # no entries, so they are ranked (and labelled) over the integers
    out = nichols_graded_dim(diagonal_braiding(lambda a, b: Cyclo.zeta(4, 2)), 4)
    assert out.dims == [1, 2, 1, 0, 0]
    assert out.method == "exact-cyclo+exact-int"
    assert out.exact


def test_non_integer_rational_braiding_is_refused_at_degree_two():
    c = diagonal_braiding(lambda a, b: Cyclo.rational(Fraction(1, 2)))
    assert nichols_graded_dim(c, 1).dims == [1, 2]
    with pytest.raises(ValueError, match="expected integer entry"):
        nichols_graded_dim(c, 2)


def reduced_word(images: tuple, from_right: bool = False) -> tuple:
    """A reduced word for the permutation with the given 0-based one-line
    images, as a tuple of adjacent-transposition positions (0-based).

    Repeatedly resolves the leftmost descent (rightmost when
    `from_right`); the length equals the inversion number, so the word is
    reduced.  The two variants give generically different reduced words,
    the per-word sums that `oracle_columns` builds for each `from_right`.
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


def test_reduced_words_are_reduced():
    # word length equals the inversion number, and the word multiplies
    # back to the permutation
    import itertools

    for images in itertools.permutations(range(4)):
        p = Permutation(images)
        for from_right in (False, True):
            w = reduced_word(images, from_right)
            inv = sum(
                1
                for i in range(4)
                for j in range(i + 1, 4)
                if images[i] > images[j]
            )
            assert len(w) == inv
            acc = Permutation.identity(4)
            for s in w:
                acc = acc * Permutation.from_cycles(4, [(s + 1, s + 2)])
            assert acc == p


def mirrored_dims(braiding, top: int) -> list:
    """The ranks of S_k for k = 0..top, summed over the reduced words of
    the rightmost descent (`oracle_columns`): the mirror of the leftmost
    words that `symmetrizer_columns` factors."""
    dims = []
    for k in range(top + 1):
        size = braiding.D**k
        dense = [[0] * size for _ in range(size)]
        for col, rows in oracle_columns(braiding, k, True).items():
            for row, v in rows.items():
                dense[row][col] = v
        dims.append(rank_int_exact(dense))
    return dims


def test_symmetrizer_word_choice_does_not_matter():
    # Matsumoto: ranks agree whichever reduced-word convention is used
    c = braiding_for(3, chi_sgn_sgn)
    assert nichols_graded_dim(c, 4).dims == mirrored_dims(c, 4)


def apply_at_tuples(braiding, state, pos):
    """c at tensor positions (pos, pos+1) of a linear combination of basis
    tuples, c(e_a (x) e_b) = q_ab e_{a>b} (x) e_a read off `braiding.phi`
    and `braiding.q` one pair at a time: the per-tuple form in which c
    was first applied."""
    phi, q = braiding.phi.tolist(), braiding.q.tolist()
    out = {}
    for tup, coeff in state.items():
        a, b = tup[pos], tup[pos + 1]
        new = tup[:pos] + (phi[a][b], a) + tup[pos + 2 :]
        acc = out.get(new)
        out[new] = q[a][b] * coeff if acc is None else acc + q[a][b] * coeff
    return {t: v for t, v in out.items() if v}


def oracle_columns(braiding, k, from_right):
    """S_k column by column, the way it was first built: the sum over all
    permutations of the lift of a reduced word, applied to one basis
    tuple at a time through `apply_at_tuples`."""
    D = braiding.D
    out = {}
    for col in range(D**k):
        tup = tuple(col // D ** (k - 1 - i) % D for i in range(k))
        acc = {}
        for p in permutations(range(k)):
            state = {tup: 1}
            for pos in reversed(reduced_word(p, from_right)):
                state = apply_at_tuples(braiding, state, pos)
            for t, v in state.items():
                acc[t] = acc.get(t, 0) + v
        flat = (sum(x * D ** (k - 1 - i) for i, x in enumerate(t)) for t in acc)
        out[col] = {r: v for r, v in zip(flat, acc.values()) if v}
    return out


def integral(braiding):
    """The braiding rebuilt from Python int scalars, as `Braiding` stores
    every rational integer in q."""
    return Braiding(braiding.phi, [[as_int(v) for v in row] for row in braiding.q.tolist()])


def cyclotomic(braiding):
    """The braiding rebuilt from `Cyclo` scalars, which `Braiding`
    converts pair by pair."""
    return Braiding(braiding.phi, [[Cyclo.coerce(v) for v in row] for row in braiding.q.tolist()])


ORACLE_CASES = {
    "s3-sgn-sgn-int": (lambda: integral(braiding_for(3, chi_sgn_sgn)), 5),
    "s3-eps-sgn-int": (lambda: integral(braiding_for(3, chi_eps_sgn)), 5),
    "s4-sgn-sgn-int": (lambda: integral(braiding_for(4, chi_sgn_sgn)), 3),
    "s4-eps-sgn-int": (lambda: integral(braiding_for(4, chi_eps_sgn)), 3),
    "s3-sgn-sgn-cyclo": (lambda: cyclotomic(braiding_for(3, chi_sgn_sgn)), 3),
    "s4-eps-sgn-cyclo": (lambda: cyclotomic(braiding_for(4, chi_eps_sgn)), 3),
    "diagonal-zeta3": (lambda: diagonal_braiding(lambda a, b: Cyclo.zeta(3) ** (a + 2 * b)), 4),
    "diagonal-singular": (lambda: diagonal_braiding(lambda a, b: a + b - 1), 4),
    "coefficient-3": (lambda: diagonal_braiding(lambda a, b: 3 if a != b else -1), 4),
    # 2^40 cubed leaves int64, so the guard must pick exact ints
    "coefficient-2^40": (lambda: diagonal_braiding(lambda a, b: 2**40 if a != b else -1), 3),
    # the longest word on four distinct letters multiplies six 2^11s, 2^66:
    # the guard must count k(k-1)/2 letters per word, not k
    "coefficient-2^11": (lambda: diagonal_braiding(lambda a, b: 2**11 if a != b else -1, 4), 4),
}


@pytest.mark.parametrize("from_right", [False, True])
@pytest.mark.parametrize("case", list(ORACLE_CASES))
def test_symmetrizer_matches_the_per_column_oracle(case, from_right):
    make, top = ORACLE_CASES[case]
    c = make()
    # with from_right, against the mirrored words: every case satisfies
    # the braid equation, so both sums are S_k (Matsumoto)
    for k in range(top + 1):
        columns = {
            col: dict(entries[:, 1:].tolist())
            for col, entries in symmetrizer_columns(c, k)
        }
        assert columns == oracle_columns(c, k, from_right), k


# SHA-256 of the drained (column, row, coeff) int64 triples of S_k, as
# `nichols_graded_dim` drains them, recorded from the per-word lift
SYMMETRIZER_DIGESTS = {
    (3, "sgn-sgn", 4): "2c9f2d36286b76367f1f13534dae0ea0f870fdf2f9e5ca4b8d350ee71914a512",
    (3, "eps-sgn", 4): "2c9f2d36286b76367f1f13534dae0ea0f870fdf2f9e5ca4b8d350ee71914a512",
    (4, "sgn-sgn", 4): "14099c52ba26b3684ec634af33d6ba1a542abe31b40aa6a7c74c50ab999d0ad1",
    (4, "eps-sgn", 4): "b9d038ec9820a9d1de8b7794bd0a543c086b59c524f98b70a69db474c84dc15d",
    (4, "sgn-sgn", 5): "abeb8b98f1268877702ac5c3cd8d588007a41e98c57152cc8c9dac08b63b67ea",
    (4, "eps-sgn", 5): "50a82fb89d762fe836992d6c1dde1545e0660936fe59a6342e6efc9294110b53",
}
CHARACTERS = {"sgn-sgn": chi_sgn_sgn, "eps-sgn": chi_eps_sgn}


@pytest.mark.parametrize("n, char, k", list(SYMMETRIZER_DIGESTS))
def test_symmetrizer_bytes_are_pinned(n, char, k):
    c = braiding_for(n, CHARACTERS[char])
    triples = np.concatenate([e for _, e in symmetrizer_columns(c, k)])
    assert triples.dtype == np.int64
    digest = hashlib.sha256(triples.astype("<i8").tobytes()).hexdigest()
    assert digest == SYMMETRIZER_DIGESTS[n, char, k]


def test_symmetrizer_lift_stays_near_its_result():
    # S_5 of the S_4 transposition braiding: 180864 triples, 4.3 MB.  The
    # coset factors hold the stack and one step's image, about 19 MB at
    # the peak under tracemalloc; summing the lifts of all 120 words at
    # once peaked at 52 MB
    c = braiding_for(4, chi_sgn_sgn)
    tracemalloc.start()
    try:
        triples = np.concatenate([e for _, e in symmetrizer_columns(c, 5)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(triples) == 180864
    assert peak < 28e6, peak


def test_int64_guard_bounds_every_sum():
    def fits(braiding, k):  # S_k: k! words of k(k-1)/2 letters
        return braiding.int64_stack(k * (k - 1) // 2, factorial(k))

    # 3^28 * 8! < 2^63 <= 3^36 * 9!
    c = diagonal_braiding(lambda a, b: 3 if a != b else -1)
    assert fits(c, 8)
    assert not fits(c, 9)


def test_check_invertible_takes_int_coefficients():
    # the ints `Braiding` stores rational integers as
    diagonal_braiding(lambda a, b: 3 if a != b else -1).check_invertible()
    diagonal_braiding(lambda a, b: Cyclo.rational(3 if a != b else -1)).check_invertible()


def class_braiding(element, n=3):
    cs = ConjugacyClass(Bn(n), Bn(n).parse(element)).coset_system()
    return build_yd_module(cs, chi_sgn_sgn(cs.centralizer)).braiding()


def rack_degree(braiding, word):
    """phi_{a_1} o ... o phi_{a_k} as a tuple of images, a > b read off
    `braiding.phi` one pair at a time."""
    phi = braiding.phi.tolist()
    out = tuple(range(braiding.D))
    for a in word:
        out = tuple(out[phi[a][b]] for b in range(braiding.D))
    return out


def degree_blocks(braiding, k, from_right=False):
    """The rank of every diagonal block of the full S_k by rack degree,
    each built densely from all D^k columns and ranked on the path its
    size takes in `nichols_graded_dim`, and each word's degree; asserts
    that no entry joins two degrees.  S_k is `symmetrizer_columns`, or
    with `from_right` the mirrored per-word sum of `oracle_columns`."""
    degree = [rack_degree(braiding, w) for w in product(range(braiding.D), repeat=k)]
    words = {}
    for flat, g in enumerate(degree):
        words.setdefault(g, []).append(flat)
    local = {flat: i for flats in words.values() for i, flat in enumerate(flats)}
    blocks = {g: np.zeros((len(flats),) * 2, dtype=object) for g, flats in words.items()}
    if from_right:
        entries = oracle_columns(braiding, k, True).items()
    else:
        entries = ((col, dict(e[:, 1:].tolist())) for col, e in symmetrizer_columns(braiding, k))
    for col, rows in entries:
        for row, v in rows.items():
            assert degree[row] == degree[col]
            blocks[degree[col]][local[row], local[col]] = v

    def rank(block):
        if braiding.D**k <= nichols.EXACT_LIMIT:
            return rank_int_exact(block.tolist())
        mod = lambda p: rank_mod_p((block % p).astype(np.int64), p)  # noqa: E731
        return rank_two_primes(mod, primes_for_conductor(1))

    return {g: rank(block) for g, block in blocks.items()}, degree


def conjugation_orbits(braiding, degrees):
    """The orbits of the degrees under g -> phi_z g phi_z^-1, z in X."""
    phis = [rack_degree(braiding, (z,)) for z in range(braiding.D)]
    inverses = [tuple(sorted(range(len(phi)), key=phi.__getitem__)) for phi in phis]
    orbits, seen = [], set()
    for g in degrees:
        if g in seen:
            continue
        orbit, todo = {g}, [g]
        while todo:
            h = todo.pop()
            for phi, inv in zip(phis, inverses):
                conj = tuple(phi[h[inv[x]]] for x in range(len(h)))
                if conj not in orbit:
                    orbit.add(conj)
                    todo.append(conj)
        orbits.append(orbit)
        seen |= orbit
    return orbits


TRANSPORT_CASES = {
    "s3-sgn-sgn": lambda: braiding_for(3, chi_sgn_sgn),
    "s3-eps-sgn": lambda: braiding_for(3, chi_eps_sgn),
    "s4-sgn-sgn": lambda: braiding_for(4, chi_sgn_sgn),
    "s4-eps-sgn": lambda: braiding_for(4, chi_eps_sgn),
    "b3-100-(1 2 3)": lambda: class_braiding("100;(1 2 3)"),
    "b3-000-(1 2)": lambda: class_braiding("000;(1 2)"),
}


@pytest.mark.parametrize("from_right", [False, True])
@pytest.mark.parametrize("case", list(TRANSPORT_CASES))
def test_conjugate_degree_blocks_have_equal_ranks(case, from_right):
    # every block of the full S_k has its orbit representative's rank, so
    # the weighted ranks of the kept columns are the sum over all blocks
    c = TRANSPORT_CASES[case]()
    dims = nichols_graded_dim(c, 4).dims
    phi, _ = nichols._rack_grading(c)
    assert phi is not None
    for k, (keep, weight) in zip(range(1, 5), nichols._degree_orbits(phi)):
        ranks, degree = degree_blocks(c, k, from_right)
        orbits = conjugation_orbits(c, ranks)
        assert sum(map(len, orbits)) == len(ranks)
        least = {g: min(orbit) for orbit in orbits for g in orbit}
        assert all(ranks[g] == ranks[least[g]] for g in ranks), k
        assert dims[k] == sum(ranks.values()), k
        assert keep.tolist() == [w for w, g in enumerate(degree) if least[g] == g]
        sizes = {g: len(orbit) for orbit in orbits for g in orbit}
        assert weight.tolist() == [sizes[g] for g in degree]


def built_columns(monkeypatch, braiding, max_degree):
    """nichols_graded_dim's dims and the number of columns it builds in
    each degree from 2 on."""
    built = {}

    def counted(braiding, k, columns=None):
        out = list(symmetrizer_columns(braiding, k, columns))
        built[k] = len(out)
        return iter(out)

    monkeypatch.setattr(nichols, "symmetrizer_columns", counted)
    dims = nichols_graded_dim(braiding, max_degree).dims
    return dims, [built[k] for k in range(2, max_degree + 1)]


def test_a_trivial_rack_keeps_every_column(monkeypatch):
    # c(e_a (x) e_b) = q_ab e_b (x) e_a has one rack degree; the zeta_3
    # scalars are not integers, the -1s are
    zeta = diagonal_braiding(lambda a, b: Cyclo.zeta(3) ** (a + 2 * b))
    assert built_columns(monkeypatch, zeta, 5) == ([1, 2, 3, 4, 5, 6], [4, 8, 16, 32])
    minus = diagonal_braiding(lambda a, b: -1, 3)
    assert nichols._rack_grading(minus)[0] is not None
    assert built_columns(monkeypatch, minus, 4) == ([1, 3, 3, 1, 0], [9, 27, 81])


def sign_flipped(braiding, pair):
    """The braiding with the sign of q at one basis pair flipped."""
    q = braiding.q.copy()
    q[pair] *= -1
    return Braiding(braiding.phi, q)


def test_a_braiding_off_the_cocycle_keeps_every_column(monkeypatch):
    # one sign of the S_3 preset flipped: still a bijection of rack type
    # over the same rack, but q is no longer a 2-cocycle, and conjugate
    # blocks differ (weighting the kept columns would give 6 at degree 2)
    c = sign_flipped(integral(braiding_for(3, chi_sgn_sgn)), (0, 1))
    assert c.bijective
    assert nichols._rack_grading(c) == (None, False)
    dims, built = built_columns(monkeypatch, c, 4)
    assert built == [9, 27, 81]
    assert dims == [1, 3] + [sum(degree_blocks(c, k)[0].values()) for k in range(2, 5)]
    assert dims == [1, 3, 5, 8, 13]


def test_scalars_that_vanish_mod_p_keep_every_modular_column(monkeypatch):
    # the S_6 transposition preset with q scaled by both primes of the
    # modular path: a rack 2-cocycle still, graded at degree 2 (225
    # columns, exact), every column at degree 3 (3375, mod p), where S_3
    # is the identity mod p
    scale = np.prod(primes_for_conductor(1), dtype=object)
    base = braiding_for(6, chi_sgn_sgn)
    c = Braiding(base.phi, base.q.astype(object) * scale)
    phi, units = nichols._rack_grading(c)
    assert phi is not None and not units
    dims, built = built_columns(monkeypatch, c, 3)
    assert built[0] < 225 and built[1] == 3375
    assert dims[3] == 3375


def traced_peak(f, *args):
    """f(*args) and its peak allocation under tracemalloc, in bytes."""
    tracemalloc.start()
    try:
        out = f(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_rack_checks_stay_within_the_degree_budget():
    # the dihedral rack a > b = 2a - b mod 120 with q = 1 passes every
    # grading check, which reads D^3 triples; degree 2 (counted as a
    # dense 14400 x 14400 matrix) is over the default budget, so a run
    # to degree 1 or 2 stops before the checks and holds less than one
    # D x D int64 array, and the checks go one D x D slice at a time
    D = 120
    every = np.arange(D)
    c = Braiding((2 * every[:, None] - every) % D, np.ones((D, D), dtype=np.int64))
    for max_degree, truncated in ((1, None), (2, 2)):
        out, peak = traced_peak(nichols_graded_dim, c, max_degree)
        assert (out.dims, out.truncated_at) == ([1, D], truncated)
        assert peak < 8 * D * D
    (phi, units), peak = traced_peak(nichols._rack_grading, c)
    assert phi is not None and units
    assert peak < 10 * 8 * D * D


def test_degree2_kernel_dimension():
    # D = 3: the kernel of id + c on the 9-dimensional square has
    # dimension 9 - 4 = 5, matching the degree-2 graded dimension
    c = braiding_for(3, chi_sgn_sgn)
    ker = degree2_kernel(c)
    assert len(ker) == 9 - 4


def test_triple_relation_signs():
    for n in (3, 4):
        for char in (chi_sgn_sgn, chi_eps_sgn):
            c = braiding_for(n, char)
            assert triple_relation_signs(c, n, 1, 2, 3) == [(-1, 1)]


def test_pair_relation_lambdas():
    c1 = braiding_for(4, chi_sgn_sgn)
    c2 = braiding_for(4, chi_eps_sgn)
    assert pair_relation_lambdas(c1, 4, 1, 2, 3, 4) == [-1]
    assert pair_relation_lambdas(c2, 4, 1, 2, 3, 4) == [1]


def test_square_relation():
    for char in (chi_sgn_sgn, chi_eps_sgn):
        c = braiding_for(4, char)
        assert square_relation_holds(c, 4, 1, 2)
        assert square_relation_holds(c, 4, 2, 4)


def test_sign_products_are_minus_one():
    for char in (chi_sgn_sgn, chi_eps_sgn):
        cs = transposition_preset(4)
        chi = char(cs.centralizer)
        triples = [(1, 2, 3), (1, 3, 2), (2, 3, 4), (1, 2, 4)]
        assert [a * b * c for a, b, c in cocycle_values(cs, chi, triples)] == [-1] * 4


def test_cocycle_value_table_frozen():
    cs = transposition_preset(5)
    expected_sgn = {
        "2<i<j<k": (-1, -1, -1),
        "i=1,j=2<k": (1, 1, -1),
        "i=1,2<j<k": (-1, 1, 1),
        "i=2<j<k": (-1, 1, 1),
        "2<i<k<j": (-1, -1, -1),
        "i=1,k=2<j": (1, -1, 1),
        "i=1,2<k<j": (-1, 1, 1),
        "i=2<k<j": (-1, 1, 1),
    }
    expected_eps = {
        "2<i<j<k": (1, -1, 1),
        "i=1,j=2<k": (1, 1, -1),
        "i=1,2<j<k": (1, -1, 1),
        "i=2<j<k": (1, 1, -1),
        "2<i<k<j": (1, 1, -1),
        "i=1,k=2<j": (1, -1, 1),
        "i=1,2<k<j": (1, 1, -1),
        "i=2<k<j": (1, -1, 1),
    }
    assert table1_values(cs, chi_sgn_sgn(cs.centralizer)) == expected_sgn
    assert table1_values(cs, chi_eps_sgn(cs.centralizer)) == expected_eps
    assert len(TABLE1_CASES) == 8
