"""Conjugacy classes, centralizers, coset systems, and the juxtaposition
factorizations."""

import gc
import hashlib
import random
import re
import time
import tracemalloc
import weakref
from math import comb

import numpy as np
import pytest

from weylrack import conjugacy
from weylrack.conjugacy import (
    Centralizer,
    ConjugacyClass,
    CosetSystem,
    centralizer_factorization,
    class_juxtaposition,
    class_size,
    transposition_preset,
)
from weylrack.groups import (
    Bn,
    BudgetExceeded,
    Permutation,
    Sn,
    SignedPermutation,
    conjugate_pairs,
    encode,
    from_arrays,
    text_order,
    to_arrays,
)
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


def test_classes_are_freed_without_the_cyclic_gc():
    # no class, centralizer or element view closes a reference cycle, so
    # reference counting alone frees a class, and its centralizer with it
    gc.disable()
    try:
        for built in range(3):
            cls = ConjugacyClass(Bn(4), SignedPermutation.parse("1000;(1 2 3)"))
            held = [weakref.ref(cls)]
            if built >= 1:
                held.append(weakref.ref(cls.centralizer()))
            if built >= 2:
                list(cls.elements)
                list(cls.centralizer().elements)
            del cls
            assert [ref() for ref in held] == [None] * len(held)
    finally:
        gc.enable()


def test_centralizer_is_the_commuting_set():
    # every class of B_1..B_5 and S_1..S_6, the central ones and S_1
    # included: the closed-form centralizer against the commuting set,
    # element for element and in text-format order
    for group, rep in _all_classes(5, 6):
        cent = ConjugacyClass(group, rep).centralizer()
        brute = [g for g in group.elements() if g * rep == rep * g]
        order = text_order(*to_arrays(brute, group.n))
        assert list(cent.elements) == [brute[i] for i in order.tolist()]
        assert set(cent.elements) == set(brute)
        assert cent.order == len(brute)
        assert from_arrays(cent.P, cent.A) == cent.elements


def test_oversized_centralizer_is_refused_up_front():
    # B_8's identity is a one-element class, but its centralizer is all
    # 10321920 elements of B_8
    cls = ConjugacyClass(Bn(8), Bn(8).identity)
    start = time.monotonic()
    with pytest.raises(BudgetExceeded, match="10321920"):
        cls.centralizer()
    assert time.monotonic() - start < 1.0


def _sha256(*arrays) -> list:
    """The SHA-256 of each int8 array's bytes, in row-major order."""
    return [
        hashlib.sha256(np.ascontiguousarray(a, dtype=np.int8).tobytes()).hexdigest()
        for a in arrays
    ]


# SHA-256 of P, A and the word arrays WP, WA of classes too large for the
# one-at-a-time oracle, recorded before the class build moved onto
# blocked flat indices and text_order onto the distinct permutation
# parts; they pin the numbering independently of text_order
LARGE_CLASS_DIGESTS = {
    "0000000;(1 2 3 4 5 6 7)": [
        "000f172f908180a63c9239c5b66770a57e18471572a960791069f435dec93a3a",
        "9ab272c8ea962e96227fb00dd3a29aa90948620c668524cc0be2eb7ba3c2ea83",
        "4e12206cfd1d735288979408b5685ae4507fccc9d17f3e4253245ba1a5b574c1",
        "0d29435c9ea12196bec9b394e69bccfb5224be22f7d4e9e1b9906160adec3543",
    ],
    "00000000;(1 2 3 4 5 6 7 8)": [
        "c57ff3387361ecd4fa4fbf3d02645eb711e6e613140c036bb3e8a6b3e6003f17",
        "a758a871c632492349477e24ee237c3d0a340c5546a31bfbf61ae52b267b86d5",
        "7f3ae926ee08f8d161343ac421c4f09d8920a87d34133c5a6c184a776a587288",
        "ce5df7bd557fbbffddb09d934a26814e45de9550e07c5938f2c0f6b79cb62682",
    ],
}


def test_largest_admitted_centralizer_is_closed():
    # B_7's identity: the whole group, 645120 elements, at the cap, in
    # the recorded text-format order
    cent = ConjugacyClass(Bn(7), Bn(7).identity).centralizer()
    assert cent.order == 645120
    assert cent.keys.size == np.unique(cent.keys).size == 645120
    assert _sha256(cent.P, cent.A) == [
        "60bebbf9e3635027a7164690efcf9f7d231b24f9b9cf73e8c29abc634bb1a373",
        "0437ceb6a8bbc57bbe0128176a40ac274e8235ad80f1c38684f48bd2deb237b6",
    ]


def _check_pinned_class(text: str) -> ConjugacyClass:
    """The class of `text` in B_n: each element reached by its word, the
    rep first, and rows and words as recorded."""
    rep = SignedPermutation.parse(text)
    cls = ConjugacyClass(Bn(rep.n), rep)
    assert cls.size == np.unique(cls.keys).size
    assert cls.element(0) == rep
    images = encode(*conjugate_pairs(*cls.words, *to_arrays([rep], rep.n)))
    assert np.array_equal(images, cls.keys)
    assert _sha256(cls.P, cls.A, *cls.words) == LARGE_CLASS_DIGESTS[text]
    return cls


def test_largest_admitted_class_is_enumerated():
    # the 8-cycles of B_8: 645120 elements, at the cap
    assert _check_pinned_class("00000000;(1 2 3 4 5 6 7 8)").size == 645120


def test_seven_cycle_class_numbering_is_pinned():
    # the 7-cycles of B_7, 46080 elements: the two classes cycle-split
    # builds are of this size
    assert _check_pinned_class("0000000;(1 2 3 4 5 6 7)").size == 46080


def test_class_build_working_memory_is_bounded():
    # the 7-cycles of B_7: the build allocates at most 1.5 MB beyond the
    # 2.4 MB of rows, words and keys the class keeps (3.2 MB when the
    # whole stack was conjugated and text-ordered at once)
    rep = SignedPermutation.parse("0000000;(1 2 3 4 5 6 7)")
    ConjugacyClass(Bn(7), rep)  # first-call imports and caches
    tracemalloc.start()
    try:
        cls = ConjugacyClass(Bn(7), rep)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cls.size == 46080
    assert peak - held <= 1.5e6


def test_text_order_holds_two_row_arrays():
    # the keys and the order, and the index of the perm-key sort beside
    # the keys before that: 2.3 int64 row arrays above the input on the
    # 46080 rows of the B_7 7-cycles (3.1 when the part ranks were
    # scattered through that index into a third array)
    cls = ConjugacyClass(Bn(7), SignedPermutation.parse("0000000;(1 2 3 4 5 6 7)"))
    text_order(cls.P[:10], cls.A[:10])  # first-call caches
    tracemalloc.start()
    try:
        order = text_order(cls.P, cls.A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(order, np.arange(cls.size))  # its rep is the least text
    assert peak <= 2.5 * 8 * cls.size


def test_negative_cycle_centralizer_is_cyclic():
    # a negative n-cycle generates its own centralizer, order 2n
    for n in (3, 5):
        x = SignedPermutation(
            (1,) + (0,) * (n - 1),
            Permutation.from_cycles(n, [tuple(range(1, n + 1))]),
        )
        cent = ConjugacyClass(Bn(n), x).centralizer()
        assert cent.order == 2 * n
        powers = [SignedPermutation.identity(n)]
        for _ in range(2 * n - 1):
            powers.append(powers[-1] * x)
        assert set(cent.elements) == set(powers)


def test_coset_system_zeta_recomposition():
    rng = random.Random(11)
    cls = ConjugacyClass(Bn(3), SignedPermutation.parse("000;(1 2)"))
    cs = cls.coset_system()
    cent = cls.centralizer()
    G = Bn(3)
    hs = [G.random_element(rng) for _ in range(150)]
    I = [rng.randrange(cs.size) for _ in hs]
    J, C = cs.zeta(I, *to_arrays(hs, 3))
    for h, i, j, c in zip(hs, I, J.tolist(), C.tolist()):
        # h g_i = g_j gamma with gamma the centralizer element c
        gamma = cent.elements[c]
        assert h * cs[i] == cs[j] * gamma
        assert gamma * cls.rep == cls.rep * gamma
        # the coset index tracks the conjugation action on the class
        assert h.conjugate(cls.elements[i]) == cls.elements[j]
    # one h for every index
    J1, C1 = cs.zeta(I, *to_arrays(hs[:1], 3))
    J0, C0 = cs.zeta(I, *to_arrays(hs[:1] * len(I), 3))
    assert J1.tolist() == J0.tolist() and C1.tolist() == C0.tolist()


def test_coset_system_zeta_refuses_an_h_outside_the_group():
    # a sign flip lies in B_3 but not in S_3: it moves (1 2) out of the
    # S_3 class, and on a fixed point it leaves gamma outside G^s
    cs = ConjugacyClass(Sn(3), SignedPermutation.parse("000;(1 2)")).coset_system()
    with pytest.raises(ValueError, match="leaves the class"):
        cs.zeta([0], *to_arrays([SignedPermutation.parse("100;()")], 3))
    with pytest.raises(ValueError, match="outside the centralizer"):
        cs.zeta([0], *to_arrays([SignedPermutation.parse("001;()")], 3))


def test_coset_system_refuses_a_table_that_is_not_a_transversal():
    # the preset table and the least representatives of a B_3 class
    negative = ConjugacyClass(Bn(3), SignedPermutation.parse("100;(1 2 3)"))
    for cs in (transposition_preset(4), negative.coset_system()):
        cls = cs.cls
        reps = [cs[i] for i in range(cs.size)]
        with pytest.raises(ValueError, match="one representative per class element"):
            CosetSystem(cls, reps=reps[:-1])
        # the rep centralizes s, so it conjugates s to t_1, but it is not g_1
        with pytest.raises(ValueError, match="g_1"):
            CosetSystem(cls, reps=[cls.rep] + reps[1:])
        with pytest.raises(ValueError, match="g_1"):
            CosetSystem(cls, reps=[reps[1]] + reps[1:])
        # a wrong g_i at the first position after g_1, and at the last;
        # the error names the representative
        first = reps[:1] + [reps[2], reps[1]] + reps[3:]
        with pytest.raises(ValueError, match=re.escape(f"{reps[2]} does not conjugate s")):
            CosetSystem(cls, reps=first)
        last = reps[:-1] + [reps[-2]]
        with pytest.raises(ValueError, match=re.escape(f"{reps[-2]} does not conjugate s")):
            CosetSystem(cls, reps=last)


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
    out = centralizer_factorization(Bn(2), x, Bn(3), y, {})
    big = out["centralizer"]
    assert big.order == out["left_factor"].order * out["right_factor"].order
    assert len(out["product_map"]) == big.order


def test_centralizer_factorization_product_map_and_failures(monkeypatch):
    x = SignedPermutation.parse("00;(1 2)")
    y = SignedPermutation.parse("100;(1 2 3)")
    classes = {}
    out = centralizer_factorization(Bn(2), x, Bn(3), y, classes)
    assert len(classes) == 3  # O_x, O_y and O_{x#y}, each built once
    left, right = out["left_factor"].elements, out["right_factor"].elements
    for w, (u, v) in zip(out["centralizer"].elements, out["product_map"].tolist()):
        assert left[u].juxtapose(right[v]) == w
    # the centralizers are built; now only the products are wrong
    product = conjugacy.mul_rows
    monkeypatch.setattr(conjugacy, "mul_rows", lambda P, A, Q, B: (P, A))
    with pytest.raises(AssertionError, match="not injective"):
        centralizer_factorization(Bn(2), x, Bn(3), y, classes)

    def flip_first_sign(P, A, Q, B):
        # (1, 0, ...; id) * w: injective, but off the centralizer of x # y
        W, S = product(P, A, Q, B)
        S = S.copy()
        S[:, 0] ^= 1
        return W, S

    monkeypatch.setattr(conjugacy, "mul_rows", flip_first_sign)
    with pytest.raises(AssertionError, match="not onto"):
        centralizer_factorization(Bn(2), x, Bn(3), y, classes)


def test_centralizer_factorization_rejects_non_orthogonal():
    x = SignedPermutation.parse("00;(1 2)")
    y = SignedPermutation.parse("00;(1 2)")
    with pytest.raises(ValueError):
        centralizer_factorization(Bn(2), x, Bn(2), y, {})


def test_class_juxtaposition_size_law():
    # |O_{x#y}| = C(n+m, n) |O_x| |O_y| for orthogonal pairs
    x = SignedPermutation.parse("10;(1 2)")
    y = SignedPermutation.parse("1;()")
    big = class_juxtaposition(Bn(2), x, Bn(1), y, {})
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


def _generators(group):
    """Adjacent transpositions, plus the first sign flip in B_n."""
    n = group.n
    gens = [
        SignedPermutation.from_perm(Permutation.from_cycles(n, [(i, i + 1)]))
        for i in range(1, n)
    ]
    if group.signed:
        gens.append(SignedPermutation((1,) + (0,) * (n - 1), Permutation.identity(n)))
    return gens


def _object_orbit(group, rep):
    """One-at-a-time BFS: {element: conjugator} in discovery order."""
    gens = _generators(group)
    gens = gens + [g.inverse() for g in gens]
    transversal = {rep: group.identity}
    frontier = [rep]
    while frontier:
        new_frontier = []
        for t in frontier:
            for g in gens:
                u = g.conjugate(t)
                if u not in transversal:
                    transversal[u] = g * transversal[t]
                    new_frontier.append(u)
        frontier = new_frontier
    return transversal


def _all_classes(max_bn: int, max_sn: int):
    for n in range(1, max_bn + 1):
        for rep in _class_representatives(n):
            yield Bn(n), rep
    for n in range(1, max_sn + 1):
        perms = {rep.perm.cycle_type(): rep.perm for rep in _class_representatives(n)}
        for perm in perms.values():
            yield Sn(n), SignedPermutation.from_perm(perm)


def test_batched_orbit_matches_the_object_bfs():
    # the class is the object orbit of rep, and word i conjugates rep to
    # element i, by object arithmetic
    for group, rep in _all_classes(4, 5):
        cls = ConjugacyClass(group, rep)
        words = from_arrays(*cls.words)
        assert words[0] == group.identity
        assert [g.conjugate(rep) for g in words] == list(cls.elements)
        assert set(cls.elements) == set(_object_orbit(group, rep))


def test_class_size_closed_form_matches_enumeration():
    for group, rep in _all_classes(5, 5):
        assert class_size(group, rep) == len(_object_orbit(group, rep))


def test_class_arrays_stay_aligned_with_elements():
    negative = ConjugacyClass(Bn(3), SignedPermutation.parse("100;(1 2 3)"))
    cs = transposition_preset(4)  # renumbers its class after enumeration
    renumbered = negative.reorder(negative.elements[:1] + negative.elements[:0:-1])
    for cls in (negative, cs.cls, renumbered):
        assert from_arrays(cls.P, cls.A) == cls.elements
        assert cls.locate(cls.keys).tolist() == list(range(cls.size))
        words = conjugate_pairs(*cls.words, *to_arrays([cls.rep], cls.group.n))
        assert np.array_equal(encode(*words), cls.keys)
        assert cls.find_all(list(cls.elements)).tolist() == list(range(cls.size))
        assert [cls.find(t) for t in cls.elements] == list(range(cls.size))
    # keys of another class are not found, nor elements of another degree
    positive = ConjugacyClass(Bn(3), SignedPermutation.parse("000;(1 2 3)"))
    assert negative.locate(positive.keys).tolist() == [-1] * positive.size
    assert [negative.find(t) for t in positive.elements] == [-1] * positive.size
    assert negative.find(SignedPermutation.parse("1000;(1 2 3)")) == -1


def test_oversized_class_is_refused_up_front():
    # the 10-cycles of B_10 form a class of 185794560 elements
    rep = SignedPermutation((0,) * 10, Permutation.from_cycles(10, [tuple(range(1, 11))]))
    assert class_size(Bn(10), rep) == 185794560
    start = time.monotonic()
    with pytest.raises(BudgetExceeded):
        ConjugacyClass(Bn(10), rep)
    assert time.monotonic() - start < 1.0


def test_degree_over_the_key_range_is_refused():
    # a one-element class, but B_14 elements do not fit an int64 key
    with pytest.raises(BudgetExceeded):
        ConjugacyClass(Bn(14), Bn(14).identity)


def _one_key(x):
    """The class key of one element, as groups.encode defines it."""
    n = x.n
    key = sum(p * n**i for i, p in enumerate(x.perm.images))
    return (key << n) + sum(a << i for i, a in enumerate(x.sign))


def _check_centralizer_and_cosets(cls, oracle):
    cent = cls.centralizer()
    assert cent.elements == sorted(set(cent.elements), key=SignedPermutation.sort_key)
    least = [
        min((oracle[t] * c for c in cent), key=SignedPermutation.sort_key)
        for t in cls.elements
    ]
    assert cls.coset_system().elements == least


def test_class_numbering_matches_the_one_at_a_time_oracle():
    # t_1 = rep, then the text-format order, against the one-at-a-time
    # BFS; every word row conjugates rep to its element, in one
    # conjugate_pairs call per class.  Centralizer and coset
    # representatives are checked on every class up to B_5 and S_7, and
    # on the two B_6 classes with the smallest centralizers: the object
    # coset oracle takes seconds on each other B_6 class.
    b6 = []
    for group, rep in _all_classes(6, 7):
        cls = ConjugacyClass(group, rep)
        oracle = _object_orbit(group, rep)
        rest = sorted((t for t in oracle if t != rep), key=SignedPermutation.sort_key)
        elements = [rep] + rest
        assert len(cls) == cls.size == len(elements)
        assert list(cls.elements) == elements
        assert cls.keys.tolist() == [_one_key(t) for t in elements]
        WP, WA = cls.words
        assert (WP[0] == np.arange(group.n)).all() and not WA[0].any()
        assert np.array_equal(encode(*conjugate_pairs(WP, WA, *to_arrays([rep], group.n))), cls.keys)
        if group.order > 5040:
            b6.append(cls)
        else:
            _check_centralizer_and_cosets(cls, oracle)
    assert len(b6) == 65
    for cls in sorted(b6, key=lambda c: -c.size)[:2]:
        _check_centralizer_and_cosets(cls, _object_orbit(cls.group, cls.rep))
