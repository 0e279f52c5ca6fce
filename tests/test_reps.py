"""Centralizer characters by centralizer index, and the scalar
admissibility filter."""

import random
import re

import numpy as np
import pytest

from weylrack.conjugacy import ConjugacyClass, transposition_preset
from weylrack.cyclotomic import Cyclo, integer_value
from weylrack.groups import Bn, Sn, SignedPermutation, encode, mul_rows
from weylrack.reps import (
    Character,
    char_from_function,
    char_rep,
    chi_eps_sgn,
    chi_sgn_sgn,
    finiteness_filter,
    tensor_case_admitted,
    trivial_rep,
)
from weylrack.verify import _class_representatives


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
        char_from_function(cent, lambda P, A: np.where(P[:, 0] == 1, -1, 1))
    # S_5 has 14400 pairs; -1 on (1 2) alone breaks 2.5% of them
    S5 = cent_of("00000;()", 5)
    t12 = S5.find(SignedPermutation.parse("00000;(1 2)"))
    with pytest.raises(ValueError, match="not multiplicative"):
        char_from_function(S5, lambda P, A: np.where(np.arange(len(P)) == t12, -1, 1))
    assert len(chi_sgn_sgn(S5).values) == S5.size


def first_broken_pair(cent, fn):
    """The pair a character with values fn breaks first, found as the
    check first finds it, each product multiplied out on objects: the
    pairs (g, h) with h in order and g over the greedy generators, each
    the first element outside the subgroup that those before it
    generate; the position of the pair in that order with it."""
    elements, gens, generated, at = list(cent.elements), [], set(), 0
    for g in elements:
        if g in generated:
            continue
        for h in elements:
            if fn(g * h) != fn(g) * fn(h):
                return at, g, h
            at += 1
        # the products of the generators, each multiplied on the left
        gens.append(g)
        generated.add(g)
        grow = list(generated)
        while grow:
            v = grow.pop()
            for w in (x * v for x in gens):
                if w not in generated:
                    generated.add(w)
                    grow.append(w)
    return None


def all_pairs_broken(cent, fn):
    """Whether some pair (g, h) has fn(g h) != fn(g) fn(h), over every pair."""
    elements = list(cent.elements)
    return any(fn(g * h) != fn(g) * fn(h) for g in elements for h in elements)


@pytest.mark.parametrize("n", [5, 6, 7])
def test_a_non_multiplicative_character_names_the_first_broken_pair(n):
    # the centralizer of (1 2) in S_n has 12, 48 and 240 elements
    cent = cent_of("0" * n + ";(1 2)", n)

    def fn(g):  # -1 where 3 goes to 4
        return -1 if g.perm(2) == 3 else 1

    at, x, y = first_broken_pair(cent, fn)
    assert at > 0
    with pytest.raises(ValueError, match=re.escape(f"not multiplicative at ({x}, {y})")):
        char_from_function(cent, lambda P, A: np.where(P[:, 2] == 3, -1, 1))


def test_a_table_broken_on_a_large_group_is_refused():
    # B_6 is the centralizer of its identity: 46080 elements, 2.1e9 pairs,
    # far past any all-pairs check; the sign character with its value at
    # index 3 negated is not a character
    cent = cent_of("000000;()", 6, signed=True)
    values = list(chi_sgn_sgn(cent).values)
    assert cent.element(3).format() == "000000;(1 2 3 4 6 5)"
    values[3] = -values[3]
    pair = "(000000;(1 2 3 4 5 6), 000000;(1 2 3 4 6 5))"
    with pytest.raises(ValueError, match=re.escape(f"not multiplicative at {pair}")):
        Character(cent, values)


VALUE_FUNCTIONS = {  # on the rows (P, A) of a centralizer
    "sgn-sgn": lambda P, A: [parity(row) for row in P.tolist()],
    "eps-sgn": lambda P, A: [-1 if row[0] == 1 else 1 for row in P.tolist()],
}


def every_centralizer():
    """The centralizer of every class of S_2..S_5 and B_2..B_4."""
    return [
        ConjugacyClass(G, rep).centralizer()
        for n, G in [(n, Sn(n)) for n in range(2, 6)] + [(n, Bn(n)) for n in range(2, 5)]
        for rep in _class_representatives(n)
        if G.signed or not any(rep.sign)
    ]


def broken_pairs(cent, values) -> np.ndarray:
    """The flat index g k + h of every pair (g, h) with
    chi(g h) != chi(g) chi(h), over all k^2 pairs at once."""
    k = cent.size
    G, H = np.divmod(np.arange(k * k), k)
    GH = cent.locate(encode(*mul_rows(cent.P[G], cent.A[G], cent.P[H], cent.A[H])))
    assert (GH >= 0).all()
    V = np.array([integer_value(Cyclo.coerce(v)) for v in values])
    return np.flatnonzero(V[GH] != V[G] * V[H])


@pytest.mark.parametrize("name", list(VALUE_FUNCTIONS))
def test_the_generator_proof_matches_the_all_pairs_check(name):
    # each table as it is and with one seeded value negated: accepted
    # exactly when no pair breaks, and a refusal names a broken pair
    rng = random.Random(5)
    verdicts = []
    for cent in every_centralizer():
        values = VALUE_FUNCTIONS[name](cent.P, cent.A)
        negated = list(values)
        negated[rng.randrange(cent.size)] *= -1
        for V in (values, negated):
            broken = broken_pairs(cent, V)
            try:
                Character(cent, [Cyclo.coerce(v) for v in V])
            except ValueError as err:
                verdicts.append(False)
                found = re.fullmatch(r"not multiplicative at \((.*), (.*)\)", str(err))
                if found:
                    g, h = (cent.find(SignedPermutation.parse(x)) for x in found.groups())
                    assert g * cent.size + h in broken
                else:
                    assert str(err) == "chi(identity) is not 1"
                assert broken.size
            else:
                verdicts.append(True)
                assert not broken.size
    assert True in verdicts and False in verdicts


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


def constructor_centralizers(n, signed):
    """The transposition preset of S_n for n >= 3; every centralizer of
    S_2..S_5 and B_2..B_4; and the identity's of B_6, all of B_6."""
    G = Bn(n) if signed else Sn(n)
    out = [transposition_preset(n).centralizer] if not signed and n >= 3 else []
    if n <= (4 if signed else 5):
        reps = [rep for rep in _class_representatives(n) if signed or not any(rep.sign)]
    else:
        reps = [G.identity] if signed else []
    return out + [ConjugacyClass(G, rep).centralizer() for rep in reps]


def object_oracle(cent, fn):
    """The values of fn on each centralizer element as an object, or the
    message of the refusal of that table."""
    values = [Cyclo.coerce(fn(g)) for g in cent.elements]
    try:
        return Character(cent, values).values
    except ValueError as err:
        return str(err)


def row_values(constructor, cent):
    try:
        return constructor(cent).values
    except ValueError as err:
        return str(err)


@pytest.mark.parametrize(
    "n, signed",
    [(2, False), (3, False), (4, False), (5, False), (6, False), (2, True), (3, True), (4, True), (6, True)],
)
def test_constructors_match_the_centralizer_rows(n, signed):
    # each preset character read from the centralizer rows builds no
    # element object, and matches the table of its values on objects:
    # the same values, or the same refusal (chi_eps_sgn is not a
    # character of every centralizer)
    for cent in constructor_centralizers(n, signed):
        assert cent._elements is None
        got = [row_values(f, cent) for f in (chi_sgn_sgn, chi_eps_sgn, trivial_rep)]
        assert cent._elements is None
        rows = cent.P.tolist()
        assert got[0] == [parity(row) for row in rows]
        assert got[2] == [1] * cent.size
        assert got == [
            object_oracle(cent, lambda g: parity(g.perm.images)),
            object_oracle(cent, lambda g: -1 if g.perm(0) == 1 else 1),
            object_oracle(cent, lambda g: 1),
        ]
        if isinstance(got[1], list):
            assert got[1] == [-1 if row[0] == 1 else 1 for row in rows]


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
