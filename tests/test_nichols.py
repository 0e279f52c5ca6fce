"""Graded dimensions of braided symmetrizer quotients, degree-2 kernels,
and the transposition cocycle tables."""

from fractions import Fraction

import pytest

from weylrack.conjugacy import transposition_preset
from weylrack.cyclotomic import Cyclo
from weylrack.groups import Permutation
from weylrack.nichols import (
    GradedDims,
    TABLE1_CASES,
    degree2_kernel,
    nichols_graded_dim,
    pair_relation_lambdas,
    reduced_word,
    sign_product,
    square_relation_holds,
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
    assert out.total() == 12
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


def test_budget_truncation_is_flagged():
    c = braiding_for(4, chi_sgn_sgn)
    out = nichols_graded_dim(c, 6, budget=6**3)
    assert out.truncated_at == 4
    assert out.dims == [1, 6, 19, 42]


def test_mixed_conductor_entries_use_the_lcm():
    # diagonal braiding on D = 11 with entries zeta_3 and zeta_4: the
    # modular path (D^2 = 121 > 100) needs a conductor divisible by both
    D = 11
    q = {3: Cyclo.zeta(3), 4: Cyclo.zeta(4)}
    terms = {
        (a, b): [((b, a), q[3] if (a + b) % 2 else q[4])]
        for a in range(D)
        for b in range(D)
    }
    out = nichols_graded_dim(Braiding(D, terms), max_degree=2)
    # id + c is invertible on every 2x2 block and 1 + zeta_4 != 0
    assert out.dims == [1, 11, 121]
    assert not out.exact
    assert out.method == "mod-p"


def diagonal_braiding(q):
    """c(e_a (x) e_b) = q(a, b) e_b (x) e_a on D = 2."""
    return Braiding(2, {(a, b): [((b, a), q(a, b))] for a in range(2) for b in range(2)})


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


def test_symmetrizer_word_choice_does_not_matter():
    # Matsumoto: ranks agree whichever reduced-word convention is used
    c = braiding_for(3, chi_sgn_sgn)
    a = nichols_graded_dim(c, 4, from_right=False)
    b = nichols_graded_dim(c, 4, from_right=True)
    assert a.dims == b.dims


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
        for (i, j, k) in ((1, 2, 3), (1, 3, 2), (2, 3, 4), (1, 2, 4)):
            assert sign_product(cs, chi, i, j, k) == -1


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
