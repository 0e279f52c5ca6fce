"""Modules with compatible action and grading, their braidings, and the
arrow-module realization."""

import random

import numpy as np
import pytest

from weylrack.conjugacy import ConjugacyClass, transposition_preset
from weylrack.cyclotomic import Cyclo
from weylrack.groups import Bn, Sn, SignedPermutation, encode, mul_rows, to_arrays
from weylrack.reps import Rep, chi_eps_sgn, chi_sgn_sgn, trivial_rep
from weylrack.ydmodule import (
    ArrowYDModule,
    YDModule,
    build_yd_module,
    psi_isomorphism_check,
)


def yd_transpositions(n, char):
    cs = transposition_preset(n)
    chi = char(cs.centralizer)
    return build_yd_module(cs, chi), cs, chi


def check_cocycle_identity(cs, sample: int, seed: int = 0):
    """The action axiom (gh).w = g.(h.w) on the class level, for sampled
    g, h and every class index i: gamma(gh, i) = gamma(g, j) gamma(h, i),
    where j is the class index of h |> t_i (which check_yd_compatibility
    tests) and both sides move t_i to the same index.  With Rep._check (rho multiplicative) this makes
    h.(g_i v) = g_j (rho(gamma) v) an action."""
    rng = random.Random(seed)
    cls, cent = cs.cls, cs.centralizer
    every = np.arange(cs.size)
    for _ in range(sample):
        g, h = cls.group.random_element(rng), cls.group.random_element(rng)
        (gP, hP, ghP), (gA, hA, ghA) = to_arrays([g, h, g * h], cls.group.n)
        J, Ch = cs.zeta(every, hP[None], hA[None])
        K, Cg = cs.zeta(J, gP[None], gA[None])
        K2, Cgh = cs.zeta(every, ghP[None], ghA[None])
        assert K.tolist() == K2.tolist()
        product = cent.locate(encode(*mul_rows(cent.P[Cg], cent.A[Cg], cent.P[Ch], cent.A[Ch])))
        assert product.tolist() == Cgh.tolist(), (g, h)


def test_compatibility_and_action_exhaustive_small():
    for n in (3, 4):
        for char in (chi_sgn_sgn, chi_eps_sgn):
            yd, cs, _ = yd_transpositions(n, char)
            yd.check_yd_compatibility(sample=None)  # exhaustive over the group
        check_cocycle_identity(cs, sample=60)


def test_compatibility_signed_class():
    cls = ConjugacyClass(Bn(3), SignedPermutation.parse("100;(1 2 3)"))
    yd = build_yd_module(cls.coset_system(), trivial_rep(cls.centralizer()))
    yd.check_yd_compatibility(sample=None)
    check_cocycle_identity(yd.cosets, sample=40)


def test_modules_refuse_a_character_of_another_centralizer():
    # the centralizers of (1 2) and (1 3) in S_3 have the same order
    cs = transposition_preset(3)
    other = ConjugacyClass(Sn(3), SignedPermutation.parse("000;(1 3)")).centralizer()
    assert other.size == cs.centralizer.size
    chi = chi_sgn_sgn(other)
    with pytest.raises(ValueError, match="class centralizer"):
        YDModule(cs, chi)
    with pytest.raises(ValueError, match="class centralizer"):
        ArrowYDModule(cs, chi)


def test_braid_equation_exhaustive():
    for char in (chi_sgn_sgn, chi_eps_sgn):
        yd, _, _ = yd_transpositions(3, char)
        c = yd.braiding()
        assert c.D == 3
        assert c.is_monomial
        c.check_braid_equation(sample=None)  # all 27 basis triples
        c.check_invertible()


def test_braid_equation_sampled_s4():
    yd, _, _ = yd_transpositions(4, chi_sgn_sgn)
    c = yd.braiding()
    assert c.D == 6
    c.check_braid_equation(sample=40, seed=0)
    c.check_invertible()


def test_braiding_coefficients_are_signs():
    # with a sign-valued character every braiding coefficient is +-1
    yd, _, _ = yd_transpositions(4, chi_eps_sgn)
    c = yd.braiding()
    for out in c.terms.values():
        ((_, coeff),) = out
        assert coeff in (Cyclo.rational(1), Cyclo.rational(-1))


def test_braiding_preserves_total_degree():
    # c sends degrees (s, t) to (s |> t, s); the product s t is invariant
    yd, _, _ = yd_transpositions(3, chi_sgn_sgn)
    c = yd.braiding()
    for (a, b), out in c.terms.items():
        ((a1, b1), _) = out[0]
        s, t = yd.degree_of(a), yd.degree_of(b)
        assert yd.degree_of(a1) == s.conjugate(t)
        assert yd.degree_of(b1) == s
        assert yd.degree_of(a1) * yd.degree_of(b1) == s * t


def test_arrow_module_rejects_higher_degree():
    cs = transposition_preset(3)
    zero = Cyclo.rational(0)
    # diag(1, sgn) on the centralizer
    big = Rep(cs.centralizer, [
        ((Cyclo.rational(1), zero), (zero, s)) for ((s,),) in chi_sgn_sgn(cs.centralizer).matrices
    ])
    assert big.degree == 2
    with pytest.raises(NotImplementedError):
        ArrowYDModule(cs, big)


def test_psi_isomorphism_both_characters():
    for n in (3, 4):
        for char in (chi_sgn_sgn, chi_eps_sgn):
            yd, cs, chi = yd_transpositions(n, char)
            arrow = ArrowYDModule(cs, chi)
            res = psi_isomorphism_check(yd, arrow)
            assert res, res.witness


def test_psi_detects_corrupted_coset_table():
    from weylrack.verify import _corrupted_cosets

    yd, cs, chi = yd_transpositions(3, chi_sgn_sgn)
    bad = ArrowYDModule(_corrupted_cosets(cs), chi)
    try:
        res = psi_isomorphism_check(yd, bad)
        detected = not res
    except AssertionError:
        detected = True
    assert detected


def test_adjoint_matches_conjugation_on_degrees():
    yd, cs, chi = yd_transpositions(4, chi_sgn_sgn)
    arrow = ArrowYDModule(cs, chi)
    import random

    rng = random.Random(9)
    for _ in range(80):
        g = cs.cls.group.random_element(rng)
        i = rng.randrange(arrow.m)
        i2, coeff = arrow.adjoint(g, i)
        assert arrow.degree_of(i2) == g.conjugate(arrow.degree_of(i))
        assert not coeff.is_zero()
