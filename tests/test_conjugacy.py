"""Conjugacy classes, centralizers, coset systems, and the juxtaposition
factorizations."""

import random
from math import comb

import pytest

from weylrack.conjugacy import (
    Centralizer,
    ConjugacyClass,
    CosetSystem,
    centralizer,
    centralizer_factorization,
    class_juxtaposition,
    transposition_preset,
)
from weylrack.groups import Bn, Permutation, Sn, SignedPermutation
from weylrack.verify import _class_representatives


def test_transposition_class_sizes():
    # n(n-1)/2 transpositions in S_n
    for n in (3, 4, 5):
        cls = ConjugacyClass(Sn(n), SignedPermutation.parse("0" * n + ";(1 2)"))
        assert cls.size == n * (n - 1) // 2


def test_class_membership_and_invariant():
    cls = ConjugacyClass(Bn(3), SignedPermutation.parse("100;(1 2)"))
    for x in cls:
        assert x.signed_cycle_type() == cls.rep.signed_cycle_type()
    assert cls.rep in cls
    assert SignedPermutation.parse("000;(1 2)") not in cls


def test_orbit_stabilizer_for_all_classes_up_to_n5():
    # |class| * |centralizer| = |G| for every class of B_n, n <= 5
    for n in range(1, 6):
        G = Bn(n)
        for rep in _class_representatives(n):
            cls = ConjugacyClass(G, rep)
            assert cls.size * cls.centralizer().order == G.order


def test_centralizer_is_built_once_and_lazily(monkeypatch):
    built = []
    init = Centralizer.__init__

    def counting_init(self, cls):
        built.append(cls)
        init(self, cls)

    monkeypatch.setattr(Centralizer, "__init__", counting_init)
    cls = ConjugacyClass(Bn(4), SignedPermutation.parse("1000;(1 2 3)"))
    assert built == []
    assert cls.centralizer() is cls.centralizer()
    cs = CosetSystem(cls)
    assert cs.centralizer is cs.cls.centralizer()
    preset = transposition_preset(4)
    assert preset.centralizer is preset.cls.centralizer()
    assert len(built) == 2


def test_centralizer_is_the_commuting_set():
    G = Bn(3)
    x = SignedPermutation.parse("100;(1 2)")
    cent = centralizer(G, x)
    brute = {g for g in G.elements() if g * x == x * g}
    assert cent.element_set == brute


def test_negative_cycle_centralizer_is_cyclic():
    # a negative n-cycle generates its own centralizer, order 2n
    for n in (3, 5):
        x = SignedPermutation(
            (1,) + (0,) * (n - 1),
            Permutation.from_cycles(n, [tuple(range(1, n + 1))]),
        )
        cent = centralizer(Bn(n), x)
        assert cent.order == 2 * n
        assert cent.element_set == {x**k for k in range(2 * n)}


def test_coset_system_zeta_recomposition():
    rng = random.Random(11)
    cls = ConjugacyClass(Bn(3), SignedPermutation.parse("000;(1 2)"))
    cs = cls.coset_system()
    G = Bn(3)
    for _ in range(150):
        h = G.random_element(rng)
        i = rng.randrange(cs.size)
        j, gamma = cs.zeta(i, h)
        # h g_i = g_j gamma with gamma in the centralizer
        assert h * cs[i] == cs[j] * gamma
        assert gamma in cls.centralizer()
        # the coset index tracks the conjugation action on the class
        assert h.conjugate(cls.elements[i]) == cls.elements[j]


def test_transposition_preset_table():
    cs = transposition_preset(4)
    assert cs.cls.size == 6
    # elements are the transpositions (k j) in lex order of (k, j)
    expected = ["(1 2)", "(1 3)", "(1 4)", "(2 3)", "(2 4)", "(3 4)"]
    got = [str(t.perm) for t in cs.cls.elements]
    assert got == expected
    # each g_i conjugates the base point (1 2) to t_i
    base = cs.cls.rep
    for i in range(cs.size):
        assert cs[i].conjugate(base) == cs.cls.elements[i]


def test_centralizer_factorization_orthogonal_pairs():
    x = SignedPermutation.parse("00;(1 2)")
    y = SignedPermutation.parse("100;(1 2 3)")
    out = centralizer_factorization(Bn(2), x, Bn(3), y)
    big = out["centralizer"]
    assert big.order == out["left_factor"].order * out["right_factor"].order
    assert len(out["product_map"]) == big.order


def test_centralizer_factorization_rejects_non_orthogonal():
    x = SignedPermutation.parse("00;(1 2)")
    y = SignedPermutation.parse("00;(1 2)")
    with pytest.raises(ValueError):
        centralizer_factorization(Bn(2), x, Bn(2), y)


def test_class_juxtaposition_size_law():
    # |O_{x#y}| = C(n+m, n) |O_x| |O_y| for orthogonal pairs
    x = SignedPermutation.parse("10;(1 2)")
    y = SignedPermutation.parse("1;()")
    big = class_juxtaposition(Bn(2), x, Bn(1), y)
    cx = ConjugacyClass(Bn(2), x)
    cy = ConjugacyClass(Bn(1), y)
    assert big.size == comb(3, 2) * cx.size * cy.size
    for u in cx:
        for v in cy:
            assert u.juxtapose(v) in big


def test_class_ordering_is_deterministic():
    a = ConjugacyClass(Bn(3), SignedPermutation.parse("100;(1 2 3)"))
    b = ConjugacyClass(Bn(3), SignedPermutation.parse("100;(1 2 3)"))
    assert a.elements == b.elements
    assert a.elements[0] == a.rep
    assert a.elements[1:] == sorted(a.elements[1:], key=lambda x: x.sort_key())
