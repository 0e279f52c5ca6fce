"""Group-layer tests: permutation/signed-permutation arithmetic against a
matrix model, parsing, invariants."""

import itertools
import random
from math import lcm

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylrack.groups import (
    Bn,
    BudgetExceeded,
    GroupContext,
    Permutation,
    Sn,
    SignedPermutation,
    _cycle_text_ranks,
    act_rows,
    compose_rows,
    conjugate_pairs,
    conjugate_rows,
    encode,
    element_key,
    from_arrays,
    invert_rows,
    inverse_rows,
    mul_rows,
    rand_int,
    text_order,
    to_arrays,
)


def signed_matrix(x: SignedPermutation):
    """Independent model: the n x n matrix with (-1)^{a_i} in row tau(i),
    column i.  Multiplication of matrices must match the group law."""
    n = x.n
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[x.perm(i)][i] = -1 if x.sign[x.perm(i)] else 1
    return m


def matmul(a, b):
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)
    ]


def random_elem(rng, n, signed=True):
    return (Bn(n) if signed else Sn(n)).random_element(rng)


def test_random_row_and_random_element_draw_the_same_stream():
    for G in (Bn(1), Bn(5), Sn(5), Bn(8)):
        rows, elements = random.Random(3), random.Random(3)
        for _ in range(50):
            images, signs = G.random_row(rows)
            x = G.random_element(elements)
            assert (tuple(images), tuple(signs)) == (x.perm.images, x.sign)
        assert rows.random() == elements.random()


def test_draws_are_the_stdlib_draws_and_leave_the_same_state():
    # random_row is rng.shuffle of the points then one rng.randrange(2)
    # per sign bit, and rand_int is rng.randint: the same values, and the
    # generator left in the same state, so the sampled checks' stream is
    # the stdlib's
    for seed in range(21):
        for n in range(1, 9):
            for G in (Bn(n), Sn(n)):
                ours, stdlib = random.Random(seed), random.Random(seed)
                for _ in range(5):
                    perm = list(range(n))
                    stdlib.shuffle(perm)
                    signs = [stdlib.randrange(2) if G.signed else 0 for _ in range(n)]
                    assert G.random_row(ours) == (perm, signs)
                assert ours.getstate() == stdlib.getstate()
            ours, stdlib = random.Random(seed), random.Random(seed)
            for a, b in ((0, 1), (0, n), (1, n), (2, 8), (n, n), (0, n - 1), (3, 2**40 + n)):
                assert rand_int(ours, a, b) == stdlib.randint(a, b)
            assert ours.getstate() == stdlib.getstate()


def test_rand_int_refuses_an_empty_range():
    with pytest.raises(ValueError, match="empty range"):
        rand_int(random.Random(0), 3, 2)


def test_product_matches_matrix_model():
    rng = random.Random(1)
    for _ in range(300):
        n = rng.randint(1, 7)
        x, y = random_elem(rng, n), random_elem(rng, n)
        assert signed_matrix(x * y) == matmul(signed_matrix(x), signed_matrix(y))


def test_inverse_and_identity():
    rng = random.Random(2)
    for _ in range(200):
        n = rng.randint(1, 7)
        x = random_elem(rng, n)
        assert x * x.inverse() == SignedPermutation.identity(n)
        assert x.inverse() * x == SignedPermutation.identity(n)


def test_conjugation_formula_matches_triple_product():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(1, 6)
        x, y = random_elem(rng, n), random_elem(rng, n)
        assert x.conjugate(y) == x * y * x.inverse()


def test_permutation_composition_is_left_action():
    # (sigma tau)(i) = sigma(tau(i))
    s = Permutation.from_cycles(3, [(1, 2)])
    t = Permutation.from_cycles(3, [(2, 3)])
    st_ = s * t
    assert [st_(i) for i in range(3)] == [s(t(i)) for i in range(3)]
    # and on points: (1 2)(2 3) maps 2 -> 3 -> 3... check a known value
    assert (s * t)(1) == 2  # point 2 (0-based 1) goes to 3 (0-based 2)


def test_cycle_parsing_roundtrip():
    p = Permutation.parse("(1 2 3)(4 5)", 6)
    assert p.cycle_type() == (1, 2, 3)  # fixed points are length-1 cycles
    assert Permutation.parse("()", 4) == Permutation.identity(4)
    with pytest.raises(ValueError):
        Permutation.parse("(1 2", 4)
    with pytest.raises(ValueError):
        Permutation.from_cycles(3, [(1, 4)])


def test_signed_parse_format_roundtrip():
    rng = random.Random(4)
    for _ in range(100):
        x = random_elem(rng, rng.randint(1, 6))
        assert SignedPermutation.parse(x.format()) == x


def test_order_is_minimal_period():
    rng = random.Random(5)
    for _ in range(80):
        x = random_elem(rng, rng.randint(1, 6))
        d = x.order()
        # a cycle of length l has order l, or 2l when it is negative
        assert d == lcm(*(l * (1 + p) for l, p in x.signed_cycle_type()))
        m, power = signed_matrix(x), signed_matrix(x)
        for _ in range(1, d):
            assert power != signed_matrix(SignedPermutation.identity(x.n))
            power = matmul(power, m)
        assert power == signed_matrix(SignedPermutation.identity(x.n))


def test_signed_cycle_type_is_conjugation_invariant():
    rng = random.Random(6)
    for _ in range(150):
        n = rng.randint(2, 6)
        x, g = random_elem(rng, n), random_elem(rng, n)
        assert g.conjugate(x).signed_cycle_type() == x.signed_cycle_type()


def test_signed_cycle_type_values():
    # one negative 2-cycle and one positive fixed point
    x = SignedPermutation((1, 0, 0), Permutation.from_cycles(3, [(1, 2)]))
    assert x.signed_cycle_type() == ((1, 0), (2, 1))
    alpha = SignedPermutation((1, 1, 1), Permutation.identity(3))
    assert alpha.signed_cycle_type() == ((1, 1), (1, 1), (1, 1))


def test_juxtapose_blocks_and_embeddings():
    rng = random.Random(7)
    for _ in range(100):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        x, y = random_elem(rng, n), random_elem(rng, m)
        j = x.juxtapose(y)
        assert j.n == n + m
        # nu->(x) = x # 1 and nu<-(y) = 1 # y commute, with product x # y
        right = x.juxtapose(SignedPermutation.identity(m))
        left = SignedPermutation.identity(n).juxtapose(y)
        assert j == right * left == left * right


def test_orthogonality_is_disjoint_cycle_lengths():
    x = SignedPermutation.parse("00;(1 2)")
    y = SignedPermutation.parse("000;(1 2 3)")
    z = SignedPermutation.parse("000;(1 2)")
    assert x.is_orthogonal_to(y)
    assert not x.is_orthogonal_to(z)  # shared length 2
    # fixed points count as length-1 cycles
    w = SignedPermutation.parse("0;()")
    assert w.is_orthogonal_to(SignedPermutation.parse("100;(1 2 3)"))
    assert not w.is_orthogonal_to(SignedPermutation.parse("100;(1 2)"))
    assert not w.is_orthogonal_to(SignedPermutation.parse("100;()"))


def test_group_context_enumeration_and_order():
    assert Bn(3).order == 48 and Sn(4).order == 24
    assert len(Bn(3).elements()) == 48
    assert len(set(Bn(3).elements())) == 48
    assert len(Sn(4).elements()) == 24
    with pytest.raises(BudgetExceeded):
        GroupContext(12, signed=True).elements()


def test_membership_and_parse_validation():
    assert SignedPermutation.parse("000;(1 2)") in Sn(3)
    assert SignedPermutation.parse("100;(1 2)") not in Sn(3)
    with pytest.raises(ValueError):
        Sn(3).parse("100;(1 2)")


@st.composite
def element_stacks(draw):
    """An element x of B_n and a stack of 0-20 elements, n from 1 to 8;
    sometimes all in S_n (zero signs)."""
    n = draw(st.integers(1, 8))
    signed = draw(st.booleans())

    def element():
        perm = draw(st.permutations(range(n)))
        bits = st.lists(st.integers(0, 1), min_size=n, max_size=n)
        sign = draw(bits) if signed else [0] * n
        return SignedPermutation(sign, Permutation(perm))

    x = element()
    return n, x, [element() for _ in range(draw(st.integers(0, 20)))]


@settings(max_examples=200, deadline=None)
@given(element_stacks())
def test_kernel_agrees_with_signed_permutation(case):
    n, x, ys = case
    T, Ta = to_arrays([x], n)
    P, A = to_arrays(ys, n)
    assert from_arrays(P, A) == ys
    NP, NA = (M[:, 0] for M in conjugate_rows(T, Ta, P, A, invert_rows(P)))
    assert from_arrays(NP, NA) == [x.conjugate(y) for y in ys]
    # the keys are injective: equal keys exactly for equal elements
    keys = encode(P, A).tolist()
    assert len(set(zip(keys, ys))) == len(set(keys)) == len(set(ys))
    images = to_arrays([x.conjugate(y) for y in ys], n)
    assert encode(NP, NA).tolist() == encode(*images).tolist()


@st.composite
def paired_stacks(draw):
    """(n, xs, ys): two stacks of elements of B_n for n from 1 to 13,
    either paired row by row or one of them a single element for every
    row of the other; the other may be empty."""
    n = draw(st.integers(1, 13))
    bits = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    elements = st.builds(
        lambda p, a: SignedPermutation(a, Permutation(p)), st.permutations(range(n)), bits
    )
    k = draw(st.integers(0, 12))
    kx, ky = draw(st.sampled_from([(k, k), (1, k), (k, 1)]))
    xs = draw(st.lists(elements, min_size=kx, max_size=kx))
    ys = draw(st.lists(elements, min_size=ky, max_size=ky))
    return n, xs, ys


@settings(max_examples=300, deadline=None)
@given(paired_stacks())
def test_paired_row_kernels_agree_with_signed_permutation(case):
    # each kernel on its own against the object operations: the sampled
    # laws run both of their sides through these kernels, where a kernel
    # bug could cancel out
    n, xs, ys = case
    P, A = to_arrays(xs, n)
    Q, B = to_arrays(ys, n)
    if len(xs) == 1:
        pairs = [(xs[0], y) for y in ys]
    elif len(ys) == 1:
        pairs = [(x, ys[0]) for x in xs]
    else:
        pairs = list(zip(xs, ys))

    def objects(rows):
        return [tuple(r) for r in rows.tolist()]

    assert objects(compose_rows(P, Q)) == [(x.perm * y.perm).images for x, y in pairs]
    assert objects(act_rows(P, B)) == [x.perm.act_on_signs(y.sign) for x, y in pairs]
    assert from_arrays(*mul_rows(P, A, Q, B)) == [x * y for x, y in pairs]
    assert from_arrays(*conjugate_pairs(P, A, Q, B)) == [x.conjugate(y) for x, y in pairs]
    assert objects(invert_rows(P)) == [x.perm.inverse().images for x in xs]
    assert from_arrays(*inverse_rows(P, A)) == [x.inverse() for x in xs]
    # the block of every x against every y, entry [i, j] = x_j |> y_i
    NP, NA = conjugate_rows(P, A, Q, B, invert_rows(Q))
    assert NP.shape == NA.shape == (len(ys), len(xs), n)
    assert from_arrays(NP.reshape(-1, n), NA.reshape(-1, n)) == [
        x.conjugate(y) for y in ys for x in xs
    ]


def test_act_rows_refuses_unpaired_stacks():
    with pytest.raises(ValueError, match="shape mismatch"):
        act_rows(np.zeros((3, 2), dtype=np.int8), np.zeros((2, 2), dtype=np.int8))


def _text_ranks(perms):
    """The rank of each permutation's cycle text, from sort_key."""
    texts = [SignedPermutation.from_perm(Permutation(p)).sort_key() for p in perms]
    ranks = [0] * len(texts)
    for r, i in enumerate(sorted(range(len(texts)), key=texts.__getitem__)):
        ranks[i] = r
    return ranks


def test_cycle_text_ranks_match_the_string_sort():
    # all of S_n for n <= 7, then random samples up to n = 13, where the
    # number token "10" sorts before "2"
    for n in range(1, 8):
        perms = list(itertools.permutations(range(n)))
        assert _cycle_text_ranks(np.array(perms, dtype=np.int8)).tolist() == _text_ranks(perms)
    rng = random.Random(9)
    for n in range(8, 14):
        perms = {tuple(range(n))}
        while len(perms) < 400:
            p = list(range(n))
            # few moved points as well as many
            moved = rng.sample(range(n), rng.randint(2, n))
            for a, b in zip(moved, moved[1:] + moved[:1]):
                p[a] = b
            perms.add(tuple(p))
            rng.shuffle(p)
            perms.add(tuple(p))
        perms = sorted(perms)
        assert _cycle_text_ranks(np.array(perms, dtype=np.int8)).tolist() == _text_ranks(perms)


def test_element_key_matches_encode():
    # the one-element key that find() uses, over the whole key range
    rng = random.Random(12)
    for n in range(1, 14):
        xs = [Bn(n).random_element(rng) for _ in range(40)]
        xs += [SignedPermutation.identity(n), SignedPermutation((1,) * n, Permutation(range(n)[::-1]))]
        assert [element_key(x) for x in xs] == encode(*to_arrays(xs, n)).tolist()


@st.composite
def mixed_stacks(draw):
    """(n, rows): elements of B_n for n up to 13 with mixed cycle types,
    identity permutation parts and permutation parts drawn more than once."""
    n = draw(st.integers(1, 13))
    bits = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    perms = st.one_of(
        st.just(list(range(n))),
        st.permutations(range(n)),
        # a random cycle on a random subset: few moved points
        st.lists(st.integers(0, n - 1), max_size=n, unique=True).map(
            lambda pts: [dict(zip(pts, pts[1:] + pts[:1])).get(i, i) for i in range(n)]
        ),
    )
    pool = draw(st.lists(perms, min_size=1, max_size=4))
    picks = st.one_of(st.sampled_from(pool), perms)
    rows = draw(st.lists(st.tuples(bits, picks), max_size=40))
    return n, [SignedPermutation(a, Permutation(p)) for a, p in rows]


@settings(max_examples=300, deadline=None)
@given(mixed_stacks())
def test_text_order_matches_the_string_sort(case):
    n, rows = case
    expect = sorted(range(len(rows)), key=lambda i: rows[i].sort_key())
    assert text_order(*to_arrays(rows, n)).tolist() == expect


def test_text_order_on_many_rows_over_few_parts():
    # 3000 rows of B_7 over four permutation parts, the identity among
    # them, with every row drawn twice or more: a tie between equal rows
    # keeps input order, as sorted() does
    rng = random.Random(5)
    n = 7
    parts = [list(range(n)), [1, 2, 0, 4, 3, 6, 5], [6, 5, 4, 3, 2, 1, 0], [3, 0, 1, 2, 5, 6, 4]]
    pool = [
        SignedPermutation([rng.randrange(2) for _ in range(n)], Permutation(rng.choice(parts)))
        for _ in range(1200)
    ]
    rows = pool + [rng.choice(pool) for _ in range(1800)]
    expect = sorted(range(len(rows)), key=lambda i: rows[i].sort_key())
    assert len({x.perm for x in rows}) == 4 and len(set(rows)) < 1200
    assert text_order(*to_arrays(rows, n)).tolist() == expect


def _passes_validation(x) -> bool:
    """Whether x, rebuilt through the validating constructors, is x."""
    if isinstance(x, Permutation):
        return type(x.images) is tuple and Permutation(list(x.images)) == x
    return (
        type(x.sign) is tuple
        and all(type(b) is int for b in x.sign)
        and _passes_validation(x.perm)
        and SignedPermutation(list(x.sign), Permutation(list(x.perm.images))) == x
    )


@settings(max_examples=100, deadline=None)
@given(element_stacks(), st.randoms(use_true_random=False))
def test_group_operation_results_pass_full_validation(case, rnd):
    # the operations build their results without validating them; every
    # result must still be one the public constructors accept
    n, x, ys = case
    results = [x.inverse(), x * x, x * x * x, x.juxtapose(x), x.perm.inverse()]
    for y in ys:
        results += [x * y, y * x, x.conjugate(y), y.conjugate(x), x.juxtapose(y)]
        results += [x.perm * y.perm, x.perm.conjugate(y.perm)]
    results += [Bn(n).random_element(rnd), Sn(n).random_element(rnd)]
    results += from_arrays(*to_arrays(ys, n))
    assert all(_passes_validation(r) for r in results)


def test_public_constructors_still_validate():
    with pytest.raises(ValueError):
        Permutation([0, 0])
    with pytest.raises(ValueError):
        SignedPermutation((0, 2), Permutation([1, 0]))
    with pytest.raises(ValueError):
        SignedPermutation((0,), Permutation([1, 0]))
    with pytest.raises(ValueError):
        SignedPermutation.parse("02;(1 2)")
