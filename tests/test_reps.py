"""Centralizer representations, induction, tensor factors, and the
scalar admissibility filter."""

import pytest

from weylrack.conjugacy import ConjugacyClass
from weylrack.cyclotomic import Cyclo
from weylrack.groups import Bn, Sn, SignedPermutation
from weylrack.reps import (
    char_from_function,
    char_rep,
    chi_eps_sgn,
    chi_sgn_sgn,
    finiteness_filter,
    induced_character,
    induced_rep,
    outer_tensor,
    q_value,
    split_blocks,
    tensor_case_admitted,
    trivial_rep,
    z2_character,
)


def cent_of(text, n, signed=False):
    G = Bn(n) if signed else Sn(n)
    return ConjugacyClass(G, SignedPermutation.parse(text)).centralizer()


def test_global_sign_character_values():
    # centralizer of (1 2) in S_4: {e, (12), (34), (12)(34)}
    cent = cent_of("0000;(1 2)", 4)
    assert cent.order == 4
    rep = chi_sgn_sgn(cent)
    vals = {g.format(): rep.character(g) for g in cent.elements}
    assert vals["0000;()"] == Cyclo.rational(1)
    assert vals["0000;(1 2)"] == Cyclo.rational(-1)
    assert vals["0000;(3 4)"] == Cyclo.rational(-1)
    assert vals["0000;(1 2)(3 4)"] == Cyclo.rational(1)


def test_swap_detecting_character_values():
    # -1 exactly on elements that swap points 1 and 2
    cent = cent_of("0000;(1 2)", 4)
    rep = chi_eps_sgn(cent)
    for g in cent.elements:
        expected = -1 if g.perm(0) == 1 else 1
        assert rep.character(g) == Cyclo.rational(expected)


def test_q_values_at_the_base_point():
    base = SignedPermutation.parse("0000;(1 2)")
    cent = cent_of("0000;(1 2)", 4)
    assert q_value(chi_sgn_sgn(cent), base) == Cyclo.rational(-1)
    assert q_value(chi_eps_sgn(cent), base) == Cyclo.rational(-1)
    assert q_value(trivial_rep(cent), base) == Cyclo.rational(1)


def test_char_from_function_rejects_non_multiplicative():
    cent = cent_of("000;(1 2 3)", 3)  # cyclic of order 3
    with pytest.raises(ValueError):
        char_from_function(cent, lambda g: -1 if g.perm(0) == 1 else 1)


def test_char_rep_extension_and_rejection():
    cent = cent_of("0000;(1 2)", 4)
    t12 = SignedPermutation.parse("0000;(1 2)")
    t34 = SignedPermutation.parse("0000;(3 4)")
    rep = char_rep(cent, {t12: -1, t34: 1})
    assert rep.character(t12) == Cyclo.rational(-1)
    assert rep.character(t12 * t34) == Cyclo.rational(-1)
    # an order-2 generator cannot take a cube root of unity
    with pytest.raises(ValueError):
        char_rep(cent, {t12: Cyclo.zeta(3), t34: 1})
    # an assignment on one generator does not reach the whole group
    with pytest.raises(ValueError):
        char_rep(cent, {t12: -1})
    # values must be assigned on centralizer elements
    with pytest.raises(ValueError):
        char_rep(cent, {SignedPermutation.parse("0000;(1 3)"): -1})


def test_z2_character_and_scalar_rejection():
    chi = z2_character((1, 0, 1))
    assert chi((0, 0, 0)) == 1
    assert chi((1, 0, 0)) == -1
    assert chi((1, 0, 1)) == 1
    # non-scalar matrices are rejected by scalar_value
    G = Sn(3)
    sub = {g for g in cent_of("000;(1 2)", 3).elements}
    transversal = _left_transversal(G.elements(), sub)
    ind = induced_rep(G.elements(), sub, transversal, chi_sgn_sgn(cent_of("000;(1 2)", 3)))
    noncentral = SignedPermutation.parse("000;(1 2 3)")
    with pytest.raises(ValueError):
        ind.scalar_value(noncentral)


def _left_transversal(ambient, sub):
    seen = set()
    out = []
    for g in sorted(ambient, key=lambda x: x.sort_key()):
        key = frozenset(g * h for h in sub)
        if key not in seen:
            seen.add(key)
            out.append(g)
    return out


def test_induced_rep_trace_matches_frobenius_formula():
    # induce the sign character of <(1 2)> up to S_3 two independent ways
    G = Sn(3)
    cent = cent_of("000;(1 2)", 3)
    sub = set(cent.elements)
    rep = chi_sgn_sgn(cent)
    transversal = _left_transversal(G.elements(), sub)
    ind = induced_rep(G.elements(), sub, transversal, rep)
    chi = induced_character(G.elements(), sub, rep)
    assert ind.degree == 3
    for g in G.elements():
        assert ind.character(g) == chi(g)
    # frozen values: 3 at the identity, 0 off the subgroup's classes
    ident = SignedPermutation.identity(3)
    assert chi(ident) == Cyclo.rational(3)
    assert chi(SignedPermutation.parse("000;(1 2 3)")) == Cyclo.rational(0)
    assert chi(SignedPermutation.parse("000;(1 2)")) == Cyclo.rational(-1)


def test_induced_rep_rejects_bad_transversal():
    G = Sn(3)
    cent = cent_of("000;(1 2)", 3)
    sub = set(cent.elements)
    rep = chi_sgn_sgn(cent)
    with pytest.raises(ValueError):
        induced_rep(G.elements(), sub, [SignedPermutation.identity(3)], rep)


def test_outer_tensor_characters_multiply():
    x = SignedPermutation.parse("00;(1 2)")
    y = SignedPermutation.parse("100;(1 2 3)")
    cx = ConjugacyClass(Bn(2), x).centralizer()
    cy = ConjugacyClass(Bn(3), y).centralizer()
    big = ConjugacyClass(Bn(5), x.juxtapose(y)).centralizer()
    r1 = chi_sgn_sgn(cx)
    r2 = char_from_function(cy, lambda g: g.perm.sign())
    tens = outer_tensor(r1, r2, big)
    assert tens.degree == 1
    for w in big.elements:
        u, v = split_blocks(w, 2, 3)
        assert tens.character(w) == r1.character(u) * r2.character(v)


def test_split_blocks_rejects_mixing():
    w = SignedPermutation.parse("000;(1 3)")
    with pytest.raises(ValueError):
        split_blocks(w, 2, 1)


def test_filter_requires_orthogonality_and_q_product():
    x = SignedPermutation.parse("00;(1 2)")
    with pytest.raises(ValueError):
        finiteness_filter(x, SignedPermutation.parse("00;(1 2)"), 1, -1)
    y = SignedPermutation.parse("1;()")
    out = finiteness_filter(x, y, 1, 1)
    assert out["verdict"] == "violates"
    assert "q-product must be -1" in out["rules"]


def test_admitted_sign_pairs_frozen_cases():
    pos2 = SignedPermutation.parse("00;(1 2)")
    neg2 = SignedPermutation.parse("10;(1 2)")
    neg_pt = SignedPermutation.parse("1;()")
    pos_pt = SignedPermutation.parse("0;()")
    pos3 = SignedPermutation.parse("000;(1 2 3)")
    pos22 = SignedPermutation.parse("0000;(1 2)(3 4)")
    neg_pair = SignedPermutation.parse("11;()")
    assert tensor_case_admitted(pos2, neg_pt) == [(1, -1), (-1, 1)]
    assert tensor_case_admitted(neg2, pos_pt) == [(-1, 1)]
    assert tensor_case_admitted(pos3, neg_pt) == [(1, -1)]
    assert tensor_case_admitted(pos22, neg_pair) == [(1, -1)]
