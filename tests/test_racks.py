"""Racks, the sq test quantity, certificates, and the search."""

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylrack.conjugacy import ConjugacyClass
from weylrack.groups import Bn, Permutation, Sn, SignedPermutation
from weylrack.racks import (
    FiniteRack,
    RackEpimorphism,
    TypeDCertificate,
    _SN_CACHE,
    _strategy_exhaustive,
    collapse_lhs,
    collapse_rhs,
    conjugation_rack,
    find_type_d_certificate,
    juxtaposition_extend_certificate,
    make_certificate,
    pullback_type_d,
    sq,
    sq_fixes_second,
    sq_signed,
    sq_signed_commuting,
    verify_certificate,
)


def random_elem(rng, n):
    return Bn(n).random_element(rng)


def test_sq_closed_form_matches_conjugation():
    rng = random.Random(21)
    for _ in range(400):
        n = rng.randint(2, 7)
        x, y = random_elem(rng, n), random_elem(rng, n)
        direct = sq(x, y)
        c, lam = sq_signed(x, y)
        assert (c, lam) == (direct.sign, direct.perm)


def test_sq_commuting_form_and_criterion():
    rng = random.Random(22)
    done = 0
    while done < 300:
        n = rng.randint(2, 6)
        x = random_elem(rng, n)
        y = SignedPermutation(
            random_elem(rng, n).sign, x.perm ** rng.randint(0, 2 * n)
        )
        direct = sq(x, y)
        c, lam = sq_signed_commuting(x, y)
        assert (c, lam) == (direct.sign, direct.perm)
        assert sq_fixes_second(x, y) == (direct == y)
        lhs = collapse_lhs(x.sign, x.perm, y.perm)
        rhs = collapse_rhs(y.sign, x.perm, y.perm)
        assert (lhs == rhs) == (direct == y)
        done += 1


def test_sq_commuting_form_rejects_non_commuting():
    x = SignedPermutation.parse("000;(1 2)")
    y = SignedPermutation.parse("000;(2 3)")
    with pytest.raises(ValueError):
        sq_signed_commuting(x, y)


def test_class_rack_axioms():
    for text, n, signed in (("000;(1 2)", 3, False), ("100;(1 2 3)", 3, True)):
        G = Bn(n) if signed else Sn(n)
        rack = conjugation_rack(ConjugacyClass(G, G.parse(text)))
        rack.check_axioms()  # self-distributivity and left-invertibility


def test_rack_from_table_rejects_broken_tables():
    # constant rows break left-invertibility
    with pytest.raises(AssertionError):
        FiniteRack.from_table([0, 1], [[0, 0], [0, 0]]).check_axioms()


def test_dihedral_rack_table():
    # x |> y = 2x - y mod 3 is the conjugation rack of transpositions in S_3
    cls = ConjugacyClass(Sn(3), SignedPermutation.parse("000;(1 2)"))
    rack = conjugation_rack(cls)
    table = rack.table()
    for i in range(3):
        for j in range(3):
            assert table[i][j] == (2 * i - j) % 3
    for row in table:
        assert sorted(row) == [0, 1, 2]


def test_verify_certificate_rejects_bad_data():
    cls = ConjugacyClass(Sn(4), SignedPermutation.parse("0000;(1 2)"))
    rack = FiniteRack.from_class(cls)
    # overlapping R and S
    cert = TypeDCertificate(rack, (0, 1), (1, 2), 0, 2)
    assert not verify_certificate(rack, cert).ok
    # witness outside R
    cert = TypeDCertificate(rack, (0,), (1,), 2, 1)
    assert not verify_certificate(rack, cert).ok
    # empty side
    cert = TypeDCertificate(rack, (), (0,), 0, 0)
    assert not verify_certificate(rack, cert).ok
    # index out of range
    cert = TypeDCertificate(rack, (99,), (0,), 99, 0)
    assert not verify_certificate(rack, cert).ok


def test_verify_certificate_failure_lists_are_pinned():
    # every closure failure is reported, in R x R, S x S, then R x S order
    # (x |> y before y |> x), with R and S walked in certificate order
    cls = ConjugacyClass(Bn(3), SignedPermutation.parse("000;(1 2)"))
    rack = FiniteRack.from_class(cls)
    check = verify_certificate(rack, TypeDCertificate(rack, (0, 1), (2, 4), 0, 2))
    assert not check.ok
    assert check.failures == [
        "R not closed: 000;(1 2) |> 000;(1 3)",
        "R not closed: 000;(1 3) |> 000;(1 2)",
        "S not closed: 000;(2 3) |> 101;(1 3)",
        "S not closed: 101;(1 3) |> 000;(2 3)",
        "cross closure fails: 000;(1 2) |> 000;(2 3) not in S",
        "cross closure fails: 000;(1 2) |> 101;(1 3) not in S",
        "cross closure fails: 101;(1 3) |> 000;(1 2) not in R",
        "cross closure fails: 000;(1 3) |> 000;(2 3) not in S",
    ]
    # the dihedral rack x |> y = 2x - y mod 5, from its table
    table = [[(2 * i - j) % 5 for j in range(5)] for i in range(5)]
    rack = FiniteRack.from_table(list(range(5)), table)
    check = verify_certificate(rack, TypeDCertificate(rack, (1, 0), (3, 2), 1, 3))
    assert not check.ok
    assert check.failures == [
        "R not closed: 1 |> 0",
        "R not closed: 0 |> 1",
        "S not closed: 3 |> 2",
        "S not closed: 2 |> 3",
        "cross closure fails: 1 |> 3 not in S",
        "cross closure fails: 1 |> 2 not in S",
        "cross closure fails: 2 |> 1 not in R",
        "cross closure fails: 2 |> 0 not in R",
    ]


def test_verify_certificate_raises_on_results_outside_the_rack():
    # two of the three transpositions of S_3 are not closed under conjugation
    x, y = SignedPermutation.parse("000;(1 2)"), SignedPermutation.parse("000;(1 3)")
    rack = FiniteRack([x, y], lambda u, v: u.conjugate(v))
    escapes = r"000;\(1 2\) \|> 000;\(1 3\) = 000;\(2 3\) escapes the rack"
    with pytest.raises(ValueError, match=escapes):
        verify_certificate(rack, TypeDCertificate(rack, (0,), (1,), 0, 1))


def _object_closure_failures(rack, R, S):
    """The closure loops one rack.op at a time: the reference order."""
    out = []
    for X, name in ((R, "R"), (S, "S")):
        for x in X:
            for y in X:
                if rack.op(x, y) not in X:
                    out.append(f"{name} not closed: {x} |> {y}")
    for x in R:
        for y in S:
            if rack.op(x, y) not in S:
                out.append(f"cross closure fails: {x} |> {y} not in S")
            if rack.op(y, x) not in R:
                out.append(f"cross closure fails: {y} |> {x} not in R")
    return out


def test_batched_closure_check_matches_the_object_loops():
    rng = random.Random(5)
    table = [[(2 * i - j) % 7 for j in range(7)] for i in range(7)]
    racks = [FiniteRack.from_table(list(range(7)), table)]
    classes = ((Bn(3), "100;(1 2)"), (Bn(4), "0000;(1 2 3)"), (Sn(5), "00000;(1 2)(3 4)"))
    for G, text in classes:
        racks.append(FiniteRack.from_class(ConjugacyClass(G, G.parse(text))))
    for rack in racks:
        for _ in range(40):
            picked = rng.sample(range(rack.size), rng.randint(2, min(rack.size, 12)))
            cut = rng.randint(1, len(picked) - 1)
            R, S = picked[:cut], picked[cut:]
            cert = TypeDCertificate(rack, tuple(R), tuple(S), R[0], S[0])
            expect = _object_closure_failures(
                rack, [rack.elements[i] for i in R], [rack.elements[i] for i in S]
            )
            failures = verify_certificate(rack, cert).failures
            assert [f for f in failures if not f.startswith("sq(")] == expect


def test_batched_exhaustive_search_matches_the_assignment_loop():
    def assignment_loop(rack):
        # every assignment to {R, S, neither} in product order, one pair at a time
        elems = rack.elements
        for assignment in product((0, 1, 2), repeat=rack.size):
            R = [x for x, k in zip(elems, assignment) if k == 0]
            S = [x for x, k in zip(elems, assignment) if k == 1]
            if R and S and not _object_closure_failures(rack, R, S):
                for r, s in product(R, S):
                    if rack.sq(r, s) != s:
                        return [rack.index[x] for x in R], [rack.index[x] for x in S], r, s
        return None

    def conjugation(texts):
        return FiniteRack([SignedPermutation.parse(t) for t in texts], lambda u, v: u.conjugate(v))

    table = [[(2 * i - j) % 7 for j in range(7)] for i in range(7)]
    racks = [
        # the transpositions of S_3 and their negatives: of type D
        conjugation(["000;(1 2)", "000;(1 3)", "000;(2 3)", "111;(1 2)", "111;(1 3)", "111;(2 3)"]),
        conjugation(["000;(1 2 3)", "001;()", "010;()", "011;(1 2 3)", "100;()", "101;(1 2 3)", "110;(1 2 3)"]),
        FiniteRack.from_table(list(range(7)), table),
        FiniteRack.from_class(ConjugacyClass(Sn(4), SignedPermutation.parse("0000;(1 2)"))),
    ]
    found = []
    for rack in racks:
        cert = _strategy_exhaustive(rack, 0)
        expect = assignment_loop(rack)
        got = None if cert is None else (
            list(cert.R), list(cert.S), rack.elements[cert.r], rack.elements[cert.s]
        )
        assert got == (None if expect is None else tuple(expect))
        found.append(cert is not None)
    assert found == [True, True, False, False]


def test_search_finds_certificates_in_symmetric_groups():
    # 4-cycles in S_5 and the (2,4) class in S_6 are certifiable
    for n, cycles in ((5, [(1, 2, 3, 4)]), (6, [(1, 2), (3, 4, 5, 6)])):
        cls = ConjugacyClass(
            Sn(n), SignedPermutation.from_perm(Permutation.from_cycles(n, cycles))
        )
        rack = FiniteRack.from_class(cls)
        res = find_type_d_certificate(rack, 0)
        assert res
        assert verify_certificate(rack, res.certificate).ok


def test_search_reports_exhaustion_on_small_racks():
    # the 3-element transposition rack of S_3 is not of type D
    cls = ConjugacyClass(Sn(3), SignedPermutation.parse("000;(1 2)"))
    rack = FiniteRack.from_class(cls)
    res = find_type_d_certificate(rack, 0)
    assert not res
    assert res.exhausted  # bipartitions were enumerated completely


def test_search_result_is_deterministic():
    cls = ConjugacyClass(Bn(4), SignedPermutation.parse("1000;(1 2 3 4)"))
    rack = FiniteRack.from_class(cls)
    a = find_type_d_certificate(rack, 5)
    b = find_type_d_certificate(rack, 5)
    assert bool(a) == bool(b)
    if a:
        assert (a.certificate.R, a.certificate.S) == (b.certificate.R, b.certificate.S)


def test_juxtaposition_extension_preserves_validity():
    cls = ConjugacyClass(Sn(5), SignedPermutation.parse("00000;(1 2 3 4)"))
    rack = FiniteRack.from_class(cls)
    res = find_type_d_certificate(rack, 0)
    assert res
    # the class has cycle lengths {1, 4}; a 2-cycle block is orthogonal
    y = SignedPermutation.parse("10;(1 2)")
    big = juxtaposition_extend_certificate(res.certificate, y)
    assert verify_certificate(big.rack, big).ok
    assert big.rack.size == 0 or big.rack.source.rep.n == 7


def test_make_certificate_raises_naming_the_strategy():
    rack = FiniteRack.from_class(ConjugacyClass(Sn(4), SignedPermutation.parse("0000;(1 2)")))
    t12, t13, t34 = (SignedPermutation.parse(t) for t in ("0000;(1 2)", "0000;(1 3)", "0000;(3 4)"))
    i12, i13, i34 = (rack.find(t) for t in (t12, t13, t34))
    # (1 2) |> (1 3) = (2 3) is outside R = {(1 2), (1 3)}
    with pytest.raises(AssertionError, match="strategy broken-split .*R not closed"):
        make_certificate(rack, [i12, i13], [i34], i12, i34, "broken-split", ())


def test_juxtaposition_extension_rejects_invalid_input():
    cls = ConjugacyClass(Sn(4), SignedPermutation.parse("0000;(1 2)"))
    rack = FiniteRack.from_class(cls)
    bad = TypeDCertificate(rack, (0, 1), (1, 2), 0, 2)
    with pytest.raises(ValueError):
        juxtaposition_extend_certificate(bad, SignedPermutation.parse("000;(1 2 3)"))


def test_epimorphism_construction_checks_homomorphy():
    up = FiniteRack.from_class(
        ConjugacyClass(Bn(3), SignedPermutation.parse("100;(1 2 3)"))
    )
    down = FiniteRack.from_class(
        ConjugacyClass(Sn(3), SignedPermutation.parse("000;(1 2 3)"))
    )
    hom = RackEpimorphism(up, down, lambda x: SignedPermutation.from_perm(x.perm))
    assert hom(up.elements[0]) in down.index
    # a constant map is not surjective
    with pytest.raises(ValueError):
        RackEpimorphism(up, down, lambda x: down.elements[0])


def _first_non_homomorphic_pair(source, target, f):
    """The object loop: the first (x, y) in source-element order with
    f(x |> y) != f(x) |> f(y)."""
    for x in source.elements:
        for y in source.elements:
            if f(source.op(x, y)) != target.op(f(x), f(y)):
                return x, y
    return None


def test_epimorphism_names_the_first_pair_that_is_not_homomorphic(monkeypatch):
    import re

    from weylrack import racks

    up = FiniteRack.from_class(ConjugacyClass(Bn(3), SignedPermutation.parse("100;(1 2 3)")))
    down = FiniteRack.from_class(ConjugacyClass(Sn(3), SignedPermutation.parse("000;(1 2 3)")))
    monkeypatch.setattr(racks, "BLOCK_PAIRS", 5)  # one source row per block
    first_rows = set()
    # every surjective map of the 8 elements onto the 2 of the target
    for bits in product((0, 1), repeat=up.size):
        if len(set(bits)) < 2:
            continue
        images = dict(zip(up.elements, (down.elements[b] for b in bits)))
        pair = _first_non_homomorphic_pair(up, down, images.__getitem__)
        if pair is None:
            RackEpimorphism(up, down, images.__getitem__)
            continue
        x, y = pair
        first_rows.add(up.index[x])
        with pytest.raises(ValueError, match=re.escape(f"not a rack homomorphism at ({x}, {y})")):
            RackEpimorphism(up, down, images.__getitem__)
    assert max(first_rows) > 0  # some first failures lie past the first block


def test_epimorphism_checks_table_and_object_racks_on_the_index_tables(monkeypatch):
    import re

    from weylrack import racks

    cls = ConjugacyClass(Bn(3), SignedPermutation.parse("100;(1 2 3)"))
    # the same rack without its class: op_rows calls the operation
    up = FiniteRack(list(cls.elements), lambda x, y: x.conjugate(y))
    # two commuting elements: the trivial rack on two points
    down = FiniteRack.from_table(["a", "b"], [[0, 1], [0, 1]])
    monkeypatch.setattr(racks, "BLOCK_PAIRS", 5)
    for bits in product((0, 1), repeat=up.size):
        if len(set(bits)) < 2:
            continue
        images = dict(zip(up.elements, ("ab"[b] for b in bits)))
        pair = _first_non_homomorphic_pair(up, down, images.__getitem__)
        if pair is None:
            RackEpimorphism(up, down, images.__getitem__)
            continue
        x, y = pair
        with pytest.raises(ValueError, match=re.escape(f"not a rack homomorphism at ({x}, {y})")):
            RackEpimorphism(up, down, images.__getitem__)
    # a source whose operation leaves it: the first escaping pair is named
    part = FiniteRack(list(cls.elements)[:3], lambda x, y: x.conjugate(y))
    point = FiniteRack.from_table(["a"], [[0]])
    x, y = next(
        (x, y) for x in part.elements for y in part.elements if part.find(x.conjugate(y)) < 0
    )
    with pytest.raises(ValueError, match=re.escape(f"{x} |> {y} = ")):
        RackEpimorphism(part, point, lambda t: "a")


def test_epimorphism_rejects_an_image_outside_the_target():
    up = FiniteRack.from_class(ConjugacyClass(Bn(3), SignedPermutation.parse("100;(1 2 3)")))
    down = FiniteRack.from_class(ConjugacyClass(Sn(3), SignedPermutation.parse("000;(1 2 3)")))
    with pytest.raises(ValueError, match="image 100;.* is not in the target rack"):
        RackEpimorphism(up, down, lambda x: x)


def test_pullback_lifts_certificates():
    up = FiniteRack.from_class(
        ConjugacyClass(Bn(5), SignedPermutation.parse("00000;(1 2 3 4)"))
    )
    down = FiniteRack.from_class(
        ConjugacyClass(Sn(5), SignedPermutation.parse("00000;(1 2 3 4)"))
    )
    hom = RackEpimorphism(up, down, lambda x: SignedPermutation.from_perm(x.perm))
    res = find_type_d_certificate(down, 0)
    assert res
    lifted = pullback_type_d(hom, res.certificate)
    assert verify_certificate(up, lifted).ok


def test_pullback_cache_is_keyed_by_config():
    # the seed is the search's only setting: each seed gets its own S_n
    # search, and the certificate does not depend on which ran first
    cls = ConjugacyClass(Bn(6), SignedPermutation.parse("000000;(1 2 3 4)"))
    rack = FiniteRack.from_class(cls)
    certs = [find_type_d_certificate(rack, seed).certificate for seed in (11, 12, 11)]
    cycle_type = cls.rep.perm.cycle_type()
    first, second = _SN_CACHE[(6, cycle_type, 11)], _SN_CACHE[(6, cycle_type, 12)]
    assert first is not second
    assert certs[0].strategy == "projection-pullback"
    assert certs[0].to_json() == certs[1].to_json() == certs[2].to_json()


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.randoms(use_true_random=False))
def test_sq_is_conjugation_invariant(n, rnd):
    # g |> sq(x, y) = sq(g |> x, g |> y): sq is a rack-theoretic quantity
    x, y, g = (Bn(n).random_element(rnd) for _ in range(3))
    assert g.conjugate(sq(x, y)) == sq(g.conjugate(x), g.conjugate(y))


def test_class_rack_keeps_its_numbering_after_a_renumbering():
    cls = ConjugacyClass(Bn(5), SignedPermutation.parse("10000;(1 2 3 4 5)"))
    rack = FiniteRack.from_class(cls)
    cert = find_type_d_certificate(rack).certificate
    order = cls.elements[:1] + cls.elements[:0:-1]  # rep first, the rest reversed
    renumbered = cls.reorder(order)
    assert verify_certificate(rack, cert).ok
    assert rack.elements == cls.elements
    assert renumbered.elements == order
    assert renumbered.locate(cls.keys).tolist() == [0] + list(range(cls.size - 1, 0, -1))


def test_certificate_json_does_not_depend_on_built_elements():
    # one class per strategy: commuting pair, fixed-point split, pullback,
    # seed closure
    cases = [
        (Bn(5), "10000;(1 2 3 4 5)"),
        (Bn(5), "00001;(1 2)"),
        (Bn(6), "000000;(1 2 3 4)"),
        (Sn(5), "00000;(1 2 3 4)"),
    ]
    strategies = []
    for G, text in cases:
        payloads = []
        for build_first in (False, True):
            cls = ConjugacyClass(G, G.parse(text))
            if build_first:
                assert len(list(cls.elements)) == cls.size
            cert = find_type_d_certificate(FiniteRack.from_class(cls), 0).certificate
            payloads.append(cert.to_json())
        assert payloads[0] == payloads[1]
        strategies.append(payloads[0]["strategy"])
    assert strategies == [
        "commuting-perm-pair", "fixed-point-sign-split", "projection-pullback", "seed-closure"
    ]
