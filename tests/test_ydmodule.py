"""Modules with compatible action and grading, their braidings, and the
arrow-module realization."""

import random
import re
import tracemalloc
from itertools import product

import numpy as np
import pytest

from weylrack import ydmodule
from weylrack.conjugacy import ConjugacyClass, CosetSystem, transposition_preset
from weylrack.cyclotomic import Cyclo
from weylrack.groups import (
    BudgetExceeded,
    Bn,
    Sn,
    SignedPermutation,
    encode,
    mul_rows,
    rand_int,
    to_arrays,
)
from weylrack.racks import FiniteRack
from weylrack.reps import char_rep, chi_eps_sgn, chi_sgn_sgn, trivial_rep
from weylrack.ydmodule import (
    BRAIDING_PAIR_BYTES,
    ArrowYDModule,
    Braiding,
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
    tests) and both sides move t_i to the same index.  With Character._check (chi multiplicative) this
    makes h.(g_i v) = chi(gamma) g_j v an action."""
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
        c.check_braid_equation(sample=None)  # all 27 basis triples
        c.check_invertible()


def test_braid_equation_sampled_s4():
    yd, _, _ = yd_transpositions(4, chi_sgn_sgn)
    c = yd.braiding()
    assert c.D == 6
    c.check_braid_equation(sample=40)
    c.check_invertible()


def test_braid_equation_names_the_failing_triple():
    # negative control: the S_3 braiding with the sign of one pair flipped
    yd, _, _ = yd_transpositions(3, chi_sgn_sgn)
    c = yd.braiding()
    q = c.q.copy()
    q[0, 1] *= -1
    bad = Braiding(c.phi, q)
    with pytest.raises(AssertionError, match=r"fails on basis \(0, 2, 0\)"):
        bad.check_braid_equation()
    with pytest.raises(AssertionError, match=r"fails on basis \(1, 2, 1\)"):
        bad.check_braid_equation(sample=200)
    # the same flip written as zeta_2 is not an int: the check runs on objects
    q = c.q.astype(object)
    q[0, 1] *= Cyclo.zeta(2)
    with pytest.raises(AssertionError, match=r"fails on basis \(0, 2, 0\)"):
        Braiding(c.phi, q).check_braid_equation()


def zeta3_module():
    # the class of (1 2 3) in S_3, whose centralizer <(1 2 3)> sends
    # (1 2 3) to zeta_3
    t = SignedPermutation.parse("000;(1 2 3)")
    cls = ConjugacyClass(Sn(3), t)
    return build_yd_module(cls.coset_system(), char_rep(cls.centralizer(), {t: Cyclo.zeta(3)}))


@pytest.mark.parametrize("make", [
    lambda: yd_transpositions(4, chi_eps_sgn)[0],
    lambda: yd_transpositions(3, chi_sgn_sgn)[0],
    zeta3_module,
])
def test_braiding_arrays_match_the_per_term_conversion(make):
    # YDModule.braiding reads each character value's integer once; the
    # same scalars as Cyclos, converted pair by pair, give the same q
    c = make().braiding()
    ref = Braiding(c.phi, [[Cyclo.coerce(v) for v in row] for row in c.q.tolist()])
    assert c.q.dtype == ref.q.dtype
    assert [type(v) for v in c.q.flat] == [type(v) for v in ref.q.flat]
    assert c.q.tolist() == ref.q.tolist()
    assert c.norm == ref.norm
    assert c.bijective == ref.bijective


def test_the_zeta3_braiding_keeps_its_roots_of_unity():
    c = zeta3_module().braiding()
    assert {type(v) for v in c.q.flat} == {Cyclo}
    assert c.norm is None and c.q.dtype == object
    c.check_braid_equation()


def test_braid_equation_holds_for_diagonal_braidings():
    # c(e_a (x) e_b) = q(a, b) e_b (x) e_a is a braiding for any q: on int64
    # stacks, on big ints past the int64 guard and on cyclotomic objects
    z = Cyclo.zeta(3)
    for q in (lambda a, b: -1, lambda a, b: 2**40 + a, lambda a, b: z ** (a + 2 * b)):
        c = Braiding([[0, 1, 2]] * 3, [[q(a, b) for b in range(3)] for a in range(3)])
        c.check_braid_equation()
        c.check_braid_equation(sample=50)


def braid_oracle(c, triples):
    """The first of `triples` on which the two sides of the braid equation
    differ, or None: each side is applied to e_a (x) e_b (x) e_c one c at
    a time, c(e_a (x) e_b) = q_ab e_{a>b} (x) e_a on a dict of basis
    tuples, and the two dicts are compared."""
    phi, q = c.phi.tolist(), c.q.tolist()

    def apply(state, pos):
        out = {}
        for tup, v in state.items():
            a, b = tup[pos], tup[pos + 1]
            new = tup[:pos] + (phi[a][b], a) + tup[pos + 2 :]
            out[new] = out.get(new, 0) + q[a][b] * v
        return out

    for triple in triples:
        lhs, rhs = {triple: 1}, {triple: 1}
        for p, r in ((0, 1), (1, 0), (0, 1)):
            lhs, rhs = apply(lhs, p), apply(rhs, r)
        diff = {t: lhs.get(t, 0) - rhs.get(t, 0) for t in {**lhs, **rhs}}
        if any(diff.values()):
            return triple
    return None


def flipped(c, pair, factor=-1):
    """The braiding with q at one basis pair multiplied by `factor`."""
    q = c.q.astype(object)
    q[pair] = q[pair] * factor
    return Braiding(c.phi, q)


def scaled(c, factor=2**40):
    """The braiding with every q multiplied by `factor`."""
    return Braiding(c.phi, c.q.astype(object) * factor)


# phi_0 swaps 0 and 1, phi_1 = phi_2 = id: a > (b > c) = (a > b) > (a > c)
# fails on the triples (0, b, c) with b, c < 2, and only there
NOT_A_RACK = [[1, 0, 2], [0, 1, 2], [0, 1, 2]]


def preset(n, char=chi_sgn_sgn):
    return yd_transpositions(n, char)[0].braiding()


BRAID_CASES = {
    # q_00 = q_01 = 0 kills both sides of every triple where the rack law
    # fails (q_ab is a factor of each): L = R = 0 there, and c braids
    "zero-q": (lambda: Braiding(NOT_A_RACK, [[0, 0, 1], [1, 1, 1], [1, 1, 1]]), None),
    "not-self-distributive": (lambda: Braiding(NOT_A_RACK, [[1] * 3] * 3), "fails"),
    "off-the-cocycle": (lambda: flipped(preset(4, chi_eps_sgn), (2, 3)), "fails"),
    # every q times 2^40, whose cube is past the int64 guard: the check
    # runs on Python ints
    "big-ints": (lambda: scaled(preset(3)), None),
    "big-ints-off-the-cocycle": (lambda: flipped(scaled(preset(3)), (1, 2)), "fails"),
    # the S_3 3-cycles commute, so any q braids on them; the transpositions
    # do not, and one q_ab times zeta_3 leaves the cocycle
    "zeta3": (lambda: zeta3_module().braiding(), None),
    "zeta3-off-the-cocycle": (lambda: flipped(preset(3), (0, 1), Cyclo.zeta(3)), "fails"),
}


@pytest.mark.parametrize("sample", [None, 30])
@pytest.mark.parametrize("case", list(BRAID_CASES))
def test_braid_check_matches_the_per_triple_oracle(case, sample):
    # the verdict and the named triple of `check_braid_equation` against
    # both sides evaluated per triple, over the same triples in the same
    # order: all of them, or the sampled draws
    make, verdict = BRAID_CASES[case]
    c = make()
    if sample is None:
        triples = list(product(range(c.D), repeat=3))
    else:
        rng = random.Random(0)
        triples = [tuple(rand_int(rng, 0, c.D - 1) for _ in range(3)) for _ in range(sample)]
    first = braid_oracle(c, triples)
    if sample is None:
        assert (first is not None) == (verdict == "fails")
    if first is None:
        c.check_braid_equation(sample=sample)
    else:
        with pytest.raises(AssertionError, match=re.escape(f"fails on basis {first}")):
            c.check_braid_equation(sample=sample)


def test_check_invertible_refuses_singular_braidings():
    one, zero = Cyclo.rational(1), Cyclo.rational(0)
    # row 0 of phi is not a permutation: (0, 0) and (0, 1) both go to (0, 0)
    repeated = Braiding([[0, 0], [0, 1]], [[one, one], [one, one]])
    zeroed = Braiding([[0, 1], [0, 1]], [[one, one], [one, zero]])
    for c in (repeated, zeroed):
        with pytest.raises(AssertionError, match="not invertible"):
            c.check_invertible()


def test_braiding_coefficients_are_signs():
    # with a sign-valued character every braiding coefficient is +-1
    yd, _, _ = yd_transpositions(4, chi_eps_sgn)
    c = yd.braiding()
    assert c.q.dtype == np.int64
    assert set(c.q.reshape(-1).tolist()) == {1, -1}


def test_braiding_preserves_total_degree():
    # c sends degrees (s, t) to (s |> t, s); the product s t is invariant
    yd, _, _ = yd_transpositions(3, chi_sgn_sgn)
    c = yd.braiding()
    for (a, b), a1 in np.ndenumerate(c.phi):
        b1 = a
        s, t = yd.degree_of(a), yd.degree_of(b)
        assert yd.degree_of(a1) == s.conjugate(t)
        assert yd.degree_of(b1) == s
        assert yd.degree_of(a1) * yd.degree_of(b1) == s * t


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


def test_compatibility_names_the_first_failing_h(monkeypatch):
    # the cocycle's class index j is corrupted at two pairs (h, i): the
    # failure names the earlier h, although the later one has a smaller i
    cls = ConjugacyClass(Bn(3), SignedPermutation.parse("100;(1 2 3)"))
    cs = cls.coset_system()
    yd = YDModule(cs, trivial_rep(cls.centralizer()))
    elems = cls.group.elements()
    corrupt = {int(encode(*to_arrays([elems[5]], 3))[0]): 2, int(encode(*to_arrays([elems[9]], 3))[0]): 0}
    zeta = cs.zeta

    def corrupted(I, HP, HA):
        J, C = zeta(I, HP, HA)
        keys = np.broadcast_to(encode(HP, HA), np.shape(I)).tolist()
        hit = [corrupt.get(k) == i for k, i in zip(keys, np.asarray(I).tolist())]
        return np.where(hit, (J + 1) % cs.size, J), C

    monkeypatch.setattr(cs, "zeta", corrupted)
    with pytest.raises(AssertionError, match=re.escape(f"fails at h={elems[5]}, class index 2")):
        yd.check_yd_compatibility(sample=None)


def test_braiding_over_the_memory_budget_is_refused_before_it_is_built(monkeypatch):
    yd, cs, chi = yd_transpositions(4, chi_sgn_sgn)
    need = BRAIDING_PAIR_BYTES * yd.m**2
    built = yd.braiding()
    monkeypatch.setattr(ydmodule, "MEMORY_BUDGET", need - 1)

    def zeta(self, I, HP, HA):
        raise AssertionError("the cocycle was called")

    monkeypatch.setattr(CosetSystem, "zeta", zeta)
    with pytest.raises(BudgetExceeded, match="memory budget"):
        YDModule(cs, chi).braiding()
    monkeypatch.undo()
    monkeypatch.setattr(ydmodule, "MEMORY_BUDGET", need)
    again = YDModule(cs, chi).braiding()
    assert np.array_equal(again.phi, built.phi)
    assert np.array_equal(again.q, built.q)


def test_a_module_over_the_memory_budget_is_refused_before_its_compatibility_check(monkeypatch):
    # the check puts 500 sampled pairs per basis vector into one cocycle
    # call, so an over-budget module must be refused before it runs
    cs = transposition_preset(4)
    chi = chi_sgn_sgn(cs.centralizer)
    monkeypatch.setattr(ydmodule, "MEMORY_BUDGET", BRAIDING_PAIR_BYTES * cs.size**2 - 1)

    def check(self, sample=None):
        raise AssertionError("the compatibility check ran")

    monkeypatch.setattr(YDModule, "check_yd_compatibility", check)
    with pytest.raises(BudgetExceeded, match="memory budget"):
        build_yd_module(cs, chi)


PHI_CASES = [(n, char) for n in (3, 4, 5, 6) for char in (chi_sgn_sgn, chi_eps_sgn)] + [
    (element, chi_sgn_sgn)
    for element in ("0000;(1 2)", "00000;(1 2 3)", "00000;(1 2 3 4 5)", "10000;(1 2 3 4 5)")
]


@pytest.mark.parametrize("case, char", PHI_CASES, ids=lambda v: getattr(v, "__name__", None))
def test_braiding_phi_is_the_rack_table_of_the_class(case, char):
    # phi comes from the cocycle's class indices: t_i g_j = g_{i |> j} gamma
    if isinstance(case, int):
        cs = transposition_preset(case)
    else:
        t = SignedPermutation.parse(case)
        cs = ConjugacyClass(Bn(t.n), t).coset_system()
    yd = YDModule(cs, char(cs.centralizer))
    assert np.array_equal(yd.braiding().phi, FiniteRack.from_class(cs.cls).table())


def test_braiding_pair_bytes_bounds_the_measured_peak():
    # the B_5 3-cycles, D = 80: the build peaks at about 107 B a pair
    # under tracemalloc (98 on the B_5 5-cycles, D = 384)
    cls = ConjugacyClass(Bn(5), SignedPermutation.parse("00000;(1 2 3)"))
    cs = cls.coset_system()
    yd = build_yd_module(cs, chi_sgn_sgn(cs.centralizer))
    yd.braiding()  # first-call caches
    tracemalloc.start()
    try:
        yd.braiding()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.8 * BRAIDING_PAIR_BYTES < peak / yd.m**2 <= BRAIDING_PAIR_BYTES
