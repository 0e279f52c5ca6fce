"""Centralizer characters by centralizer index, and the scalar
admissibility filter."""

import random
import re

import pytest

from weylrack.conjugacy import ConjugacyClass, transposition_preset
from weylrack.cyclotomic import Cyclo
from weylrack.groups import Bn, Sn, SignedPermutation
from weylrack.reps import (
    FULL_CHECK_LIMIT,
    Character,
    char_from_function,
    char_rep,
    chi_eps_sgn,
    chi_sgn_sgn,
    finiteness_filter,
    tensor_case_admitted,
    trivial_rep,
)


def cent_of(text, n, signed=False):
    G = Bn(n) if signed else Sn(n)
    return ConjugacyClass(G, SignedPermutation.parse(text)).centralizer()


def test_global_sign_character_values():
    # centralizer of (1 2) in S_4: {e, (12), (34), (12)(34)}
    cent = cent_of("0000;(1 2)", 4)
    assert cent.order == 4
    rep = chi_sgn_sgn(cent)
    vals = {g.format(): v for g, v in zip(cent.elements, rep.values)}
    assert vals["0000;()"] == Cyclo.rational(1)
    assert vals["0000;(1 2)"] == Cyclo.rational(-1)
    assert vals["0000;(3 4)"] == Cyclo.rational(-1)
    assert vals["0000;(1 2)(3 4)"] == Cyclo.rational(1)


def test_swap_detecting_character_values():
    # -1 exactly on elements that swap points 1 and 2
    cent = cent_of("0000;(1 2)", 4)
    rep = chi_eps_sgn(cent)
    for g, v in zip(cent.elements, rep.values):
        expected = -1 if g.perm(0) == 1 else 1
        assert v == Cyclo.rational(expected)


def test_q_values_at_the_base_point():
    base = SignedPermutation.parse("0000;(1 2)")
    cent = cent_of("0000;(1 2)", 4)
    assert chi_sgn_sgn(cent)(base) == Cyclo.rational(-1)
    assert chi_eps_sgn(cent)(base) == Cyclo.rational(-1)
    assert trivial_rep(cent)(base) == Cyclo.rational(1)
    # an element outside the centralizer has no value
    with pytest.raises(ValueError, match="not in the centralizer"):
        trivial_rep(cent)(SignedPermutation.parse("0000;(1 3)"))


def test_char_from_function_rejects_non_multiplicative():
    cent = cent_of("000;(1 2 3)", 3)  # cyclic of order 3
    with pytest.raises(ValueError):
        char_from_function(cent, lambda g: -1 if g.perm(0) == 1 else 1)
    # past FULL_CHECK_LIMIT pairs the check samples: S_5 has 14400 pairs,
    # and -1 on (1 2) alone breaks 2.5% of them
    S5 = cent_of("00000;()", 5)
    assert S5.size ** 2 > FULL_CHECK_LIMIT
    t12 = SignedPermutation.parse("00000;(1 2)")
    with pytest.raises(ValueError, match="not multiplicative"):
        char_from_function(S5, lambda g: -1 if g == t12 else 1)
    assert len(chi_sgn_sgn(S5).values) == S5.size


def first_broken_pair(cent, fn):
    """The pair a character with values fn breaks first, found as the
    check first found it: pair by pair, every pair in order up to
    FULL_CHECK_LIMIT and the pairs of randrange draws from Random(0)
    beyond, each product multiplied out on objects."""
    k = cent.size
    if k * k <= FULL_CHECK_LIMIT:
        pairs = [divmod(p, k) for p in range(k * k)]
    else:
        rng = random.Random(0)
        pairs = [(rng.randrange(k), rng.randrange(k)) for _ in range(FULL_CHECK_LIMIT)]
    for at, (g, h) in enumerate(pairs):
        x, y = cent.element(g), cent.element(h)
        if fn(x * y) != fn(x) * fn(y):
            return at, x, y
    return None


@pytest.mark.parametrize("n", [5, 6, 7])
def test_a_non_multiplicative_character_names_the_first_broken_pair(n):
    # the centralizer of (1 2) in S_n has 12, 48 and 240 elements: its
    # pairs are all checked for n = 5 and 6 and sampled for n = 7
    cent = cent_of("0" * n + ";(1 2)", n)
    assert (cent.size**2 > FULL_CHECK_LIMIT) == (n == 7)

    def fn(g):  # -1 where 3 goes to 4
        return -1 if g.perm(2) == 3 else 1

    at, x, y = first_broken_pair(cent, fn)
    assert at > 0
    with pytest.raises(ValueError, match=re.escape(f"not multiplicative at ({x}, {y})")):
        char_from_function(cent, fn)


def test_a_product_outside_the_centralizer_is_refused(monkeypatch):
    # a locate that misses one product must not read the value at -1
    cent = cent_of("00000;(1 2)", 5)
    locate = cent.locate

    def missing_one(keys):
        out = locate(keys)
        if len(out) > 1:
            out[7] = -1
        return out

    monkeypatch.setattr(cent, "locate", missing_one)
    with pytest.raises(ValueError, match="outside the centralizer"):
        chi_sgn_sgn(cent)


def test_char_rep_extension_and_rejection():
    cent = cent_of("0000;(1 2)", 4)
    t12 = SignedPermutation.parse("0000;(1 2)")
    t34 = SignedPermutation.parse("0000;(3 4)")
    rep = char_rep(cent, {t12: -1, t34: 1})
    assert rep(t12) == Cyclo.rational(-1)
    assert rep(t12 * t34) == Cyclo.rational(-1)
    assert rep.values == chi_eps_sgn(cent).values
    # an order-2 generator cannot take a cube root of unity
    with pytest.raises(ValueError):
        char_rep(cent, {t12: Cyclo.zeta(3), t34: 1})
    # an assignment on one generator does not reach the whole group
    with pytest.raises(ValueError):
        char_rep(cent, {t12: -1})
    # values must be assigned on centralizer elements
    with pytest.raises(ValueError):
        char_rep(cent, {SignedPermutation.parse("0000;(1 3)"): -1})


def test_rep_refuses_a_non_identity_identity_row():
    cent = cent_of("0000;(1 2)", 4)
    with pytest.raises(ValueError, match="chi\\(identity\\) is not 1"):
        Character(cent, [Cyclo.rational(-1)] * cent.size)


def parity(row):
    """(-1)^(n - cycles) of a permutation row, counted cycle by cycle."""
    seen, cycles = set(), 0
    for start in range(len(row)):
        if start not in seen:
            cycles += 1
            while start not in seen:
                seen.add(start)
                start = row[start]
    return (-1) ** (len(row) - cycles)


@pytest.mark.parametrize("n, signed", [(3, False), (4, False), (5, False), (6, False), (4, True)])
def test_constructors_match_the_centralizer_rows(n, signed):
    # the transposition presets of S_3..S_6, and the centralizer of (1 2)
    # in B_4, read from the permutation part of each centralizer row
    if signed:
        cent = cent_of("0" * n + ";(1 2)", n, signed=True)
    else:
        cent = transposition_preset(n).centralizer
    rows = cent.P.tolist()
    assert chi_sgn_sgn(cent).values == [parity(row) for row in rows]
    assert chi_eps_sgn(cent).values == [-1 if row[0] == 1 else 1 for row in rows]
    assert trivial_rep(cent).values == [1] * cent.size


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
