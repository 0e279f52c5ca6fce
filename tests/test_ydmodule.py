"""Modules with compatible action and grading, their braidings, and the
arrow-module realization."""

import pytest

from weylrack.conjugacy import ConjugacyClass, transposition_preset
from weylrack.cyclotomic import Cyclo
from weylrack.groups import Bn, Sn, SignedPermutation
from weylrack.reps import chi_eps_sgn, chi_sgn_sgn, trivial_rep
from weylrack.ydmodule import (
    ArrowYDModule,
    build_yd_module,
    psi_isomorphism_check,
)


def yd_transpositions(n, char):
    cs = transposition_preset(n)
    chi = char(cs.centralizer)
    return build_yd_module(cs, chi), cs, chi


def test_compatibility_and_action_exhaustive_small():
    for n in (3, 4):
        for char in (chi_sgn_sgn, chi_eps_sgn):
            yd, _, _ = yd_transpositions(n, char)
            yd.check_yd_compatibility(sample=None)  # exhaustive over the group
            yd.check_is_action(sample=60)


def test_compatibility_signed_class():
    cls = ConjugacyClass(Bn(3), SignedPermutation.parse("100;(1 2 3)"))
    yd = build_yd_module(cls.coset_system(), trivial_rep(cls.centralizer()))
    yd.check_yd_compatibility(sample=None)
    yd.check_is_action(sample=40)


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
    cls = ConjugacyClass(Sn(3), SignedPermutation.parse("000;(1 2)"))
    from weylrack.reps import induced_rep

    sub = set(cs.centralizer.elements)
    trans = sorted(
        {
            frozenset(g * h for h in sub): g
            for g in cls.group.elements()
        }.values(),
        key=lambda x: x.sort_key(),
    )
    big = induced_rep(cls.group.elements(), sub, trans, trivial_rep(cs.centralizer))
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
