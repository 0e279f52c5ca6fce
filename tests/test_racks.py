"""Racks, the sq test quantity, certificates, and the search."""

import copy
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylrack.conjugacy import ConjugacyClass
from weylrack.groups import Bn, Permutation, Sn, SignedPermutation, from_arrays, to_arrays
from weylrack.racks import (
    MAX_CLOSURE_SIZE,
    MAX_COMMUTING_PARTNERS,
    FiniteRack,
    RackEpimorphism,
    TypeDCertificate,
    _SN_CACHE,
    _closure_from_seeds,
    _commuting_partners,
    _commuting_witness,
    _part_witness,
    _perm_parts,
    _strategy_exhaustive,
    collapse_lhs,
    collapse_rhs,
    find_type_d_certificate,
    fixed_point_split,
    juxtaposition_extend_certificate,
    make_certificate,
    projection,
    pullback_type_d,
    sq_fixes_second,
    sq_signed,
    sq_signed_commuting,
    verify_certificate,
)
from weylrack.verify import _class_representatives, exception_family

from rack_oracles import TableRack, check_axioms


# -- object references for the row search ---------------------------------


def sq(x, y):
    """sq(x, y) = x |> (y |> (x |> y)) on group elements or permutations."""
    return x.conjugate(y.conjugate(x.conjugate(y)))


def perm_cosets(cls) -> dict:
    """{permutation part: the class indices with it, in class order}, the
    parts in order of first appearance."""
    cosets = {}
    for i, x in enumerate(cls.elements):
        cosets.setdefault(x.perm, []).append(i)
    return cosets


def commuting_partners(cosets: dict, tau0) -> list:
    """The partners of tau0 in the order the commuting-pair strategy tries
    them: the powers tau0^2, tau0^3, ... that are parts, then every other
    commuting part in lexicographic order of images."""
    candidates, seen = [], {tau0}
    p = tau0 * tau0
    while p != tau0:
        if p in cosets and p not in seen:
            candidates.append(p)
            seen.add(p)
        p = p * tau0
    for mu in sorted(cosets, key=lambda q: q.images):
        if mu not in seen and mu * tau0 == tau0 * mu:
            candidates.append(mu)
            seen.add(mu)
        if len(candidates) >= MAX_COMMUTING_PARTNERS:
            break
    return candidates


def part_witness(elems: list, R: list, S: list):
    """The first (r, s), over the first of R and of S with each
    permutation part, whose parts xi, lam have sq(xi, lam) != lam."""

    def first_by_perm(rows):
        out = {}
        for i in rows:
            out.setdefault(elems[i].perm, i)
        return out

    perms_S = first_by_perm(S)
    for xi, r in first_by_perm(R).items():
        for lam, s in perms_S.items():
            if sq(xi, lam) != lam:
                return r, s
    return None


def random_elem(rng, n):
    return Bn(n).random_element(rng)


def _power(p, k):
    """The permutation p^k, k >= 0, by repeated products."""
    out = Permutation.identity(p.n)
    for _ in range(k):
        out = out * p
    return out


def conjugate(x, y):
    """x |> y on group elements: the reference for class racks."""
    return x.conjugate(y)


def dihedral(m):
    """x |> y = 2x - y mod m on the integers 0..m-1, and its table rack."""
    op = lambda x, y: (2 * x - y) % m  # noqa: E731
    return TableRack(list(range(m)), [[op(x, y) for y in range(m)] for x in range(m)]), op


def conjugation_table_rack(texts):
    """A table rack on a set of signed permutations closed under
    conjugation, its table filled in one conjugation at a time."""
    elems = [SignedPermutation.parse(t) for t in texts]
    return TableRack(elems, [[elems.index(x.conjugate(y)) for y in elems] for x in elems])


def class_rack(G, text):
    """The rack of the class of `text` in G."""
    return FiniteRack.from_class(ConjugacyClass(G, G.parse(text)))


def trivial_rack(m):
    """The trivial rack on m points, as the class of one negative sign in
    B_m: its elements commute."""
    return class_rack(Bn(m), "1" + "0" * (m - 1) + ";()")


def test_sq_closed_form_matches_conjugation():
    rng = random.Random(21)
    for n in range(2, 8):
        xs = [random_elem(rng, n) for _ in range(60)]
        ys = [random_elem(rng, n) for _ in range(60)]
        L, C = sq_signed(*to_arrays(xs, n), *to_arrays(ys, n))
        assert from_arrays(L, C) == [sq(x, y) for x, y in zip(xs, ys)]
        # one x row for every y row
        L, C = sq_signed(*to_arrays(xs[:1], n), *to_arrays(ys, n))
        assert from_arrays(L, C) == [sq(xs[0], y) for y in ys]


def test_sq_commuting_form_and_criterion():
    rng = random.Random(22)
    outcomes = set()
    for n in range(2, 7):
        xs = [random_elem(rng, n) for _ in range(60)]
        ys = [
            SignedPermutation(random_elem(rng, n).sign, _power(x.perm, rng.randint(0, 2 * n)))
            for x in xs
        ]
        (P, A), (Q, B) = to_arrays(xs, n), to_arrays(ys, n)
        direct = [sq(x, y) for x, y in zip(xs, ys)]
        L, C = sq_signed_commuting(P, A, Q, B)
        assert from_arrays(L, C) == direct
        fixes = [d == y for d, y in zip(direct, ys)]
        assert sq_fixes_second(P, A, Q, B).tolist() == fixes
        assert (collapse_lhs(A, P, Q) == collapse_rhs(B, P, Q)).all(axis=1).tolist() == fixes
        outcomes.update(fixes)
    assert outcomes == {False, True}


def test_sq_commuting_form_rejects_non_commuting():
    xs = [SignedPermutation.parse("000;(1 2)"), SignedPermutation.parse("000;(1 2)")]
    ys = [SignedPermutation.parse("100;(1 2)"), SignedPermutation.parse("000;(2 3)")]
    rows = (*to_arrays(xs, 3), *to_arrays(ys, 3))
    # the commuting first row does not carry the second
    for form in (sq_signed_commuting, sq_fixes_second):
        with pytest.raises(ValueError, match="do not commute"):
            form(*rows)


def test_commuting_witness_is_the_first_pair_of_the_object_loop():
    found = set()
    for n in (3, 4, 5):
        for rep in _class_representatives(n):
            tau = rep.perm
            if tau.is_identity():
                continue
            cls = ConjugacyClass(Bn(n), rep)
            groups = perm_cosets(cls)
            R = groups[tau]
            elems = list(cls.elements)
            for mu in groups:
                if mu * tau != tau * mu:
                    continue
                S = groups[mu]
                T, M = (np.array(p.images, dtype=np.int8) for p in (tau, mu))
                # with one s, the first r may pair with nothing
                for RR, SS in [(R, S)] + [(R, [s]) for s in S]:
                    expect = next(
                        ((r, s) for r in RR for s in SS if sq(elems[r], elems[s]) != elems[s]),
                        None,
                    )
                    assert _commuting_witness(cls, RR, SS, T, M) == expect
                    found.add(None if expect is None else expect[0] == RR[0])
    assert found == {True, False, None}


def test_row_search_matches_the_object_loops():
    # on every class of B_2..B_6: the cosets, the partners of the
    # commuting-pair strategy in the order tried, and the part-level
    # witness of the fixed-point split at every fixed point; then the
    # witness where it comes late, after the parts that commute with
    # tau0, and where there is none
    witnessed = []
    for n in range(2, 7):
        for rep in _class_representatives(n):
            if rep.perm.is_identity():
                continue
            cls = ConjugacyClass(Bn(n), rep)
            cosets = perm_cosets(cls)
            parts, coset = _perm_parts(cls)
            assert [tuple(p) for p in parts.tolist()] == [tau.images for tau in cosets]
            assert [coset(g).tolist() for g in range(len(parts))] == list(cosets.values())
            partners = [Permutation(parts[g].tolist()) for g in _commuting_partners(parts)]
            assert partners == commuting_partners(cosets, rep.perm)
            elems = list(cls.elements)
            splits = [tuple(map(list, fixed_point_split(cls, f))) for f in rep.perm.fixed_points()]
            late = sorted(cosets, key=lambda mu: mu * rep.perm != rep.perm * mu)
            splits.append(([i for mu in late for i in cosets[mu]], cosets[rep.perm]))
            for R, S in splits:
                if R and S:
                    expect = part_witness(elems, R, S)
                    assert _part_witness(cls, np.array(R), np.array(S)) == expect
                    witnessed.append(expect and R.index(expect[0]))
    # no witness, a first pair, and late ones
    assert None in witnessed and 0 in witnessed and max(filter(None, witnessed)) > 100


def test_search_on_a_signless_class_skips_the_signed_strategies():
    # the fixed-point split and the pullback are tried on B_n classes only;
    # the transpositions of S_3 (2x - y mod 3) have no certificate
    rack = class_rack(Sn(3), "000;(1 2)")
    res = find_type_d_certificate(rack)
    assert res.attempted == [
        "commuting-perm-pair", "seed-closure", "exhaustive-bipartition", "randomized-repair"
    ]
    assert not res and res.exhausted


def test_class_rack_axioms():
    # self-distributivity and left-invertibility on every class of S_2..S_5
    # and B_2..B_4, and on the trivial racks the tests use
    racks = [
        FiniteRack.from_class(ConjugacyClass(G, rep))
        for n, G in [(n, Sn(n)) for n in range(2, 6)] + [(n, Bn(n)) for n in range(2, 5)]
        for rep in _class_representatives(n)
        if G.signed or not any(rep.sign)
    ]
    assert len(racks) == 52 and max(rack.size for rack in racks) == 48
    for rack in racks + [trivial_rack(2), trivial_rack(6)]:
        check_axioms(rack)
    for m in (2, 6):
        assert (trivial_rack(m).table() == np.arange(m)).all()


def test_the_axiom_oracle_names_the_first_failure():
    # constant rows break left-invertibility; in the second table every
    # row is a bijection, but c |> (b |> b) = c != b = (c |> b) |> (c |> b)
    with pytest.raises(AssertionError, match=re.escape("y -> 0 |> y is not a bijection")):
        TableRack([0, 1], [[0, 0], [0, 0]])
    with pytest.raises(AssertionError, match=re.escape("self-distributivity fails at (c, b, b)")):
        TableRack(["a", "b", "c"], [[0, 1, 2], [0, 1, 2], [0, 2, 1]])


def test_dihedral_rack_table():
    # x |> y = 2x - y mod 3 is the conjugation rack of transpositions in S_3
    cls = ConjugacyClass(Sn(3), SignedPermutation.parse("000;(1 2)"))
    rack = FiniteRack.from_class(cls)
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


def test_verify_certificate_refuses_a_repeated_index():
    # the commuting-pair certificate of the B_5 class 10000;(1 2 3 4 5),
    # |R| = |S| = 16, with an index of R or of S given twice; the failure
    # names the index whose second place comes first
    rack = class_rack(Bn(5), "10000;(1 2 3 4 5)")
    cert = find_type_d_certificate(rack, 0).certificate
    R, S, r, s = cert.R, cert.S, cert.r, cert.s
    assert (len(R), len(S), cert.strategy) == (16, 16, "commuting-perm-pair")
    cases = [
        (R[:1] + R, S, R[0]),
        ((R[1], R[0], R[0], R[1]) + R[2:], S, R[0]),
        (R, S + S[-1:], S[-1]),
    ]
    for RR, SS, repeated in cases:
        name = "R" if RR != R else "S"
        check = verify_certificate(rack, TypeDCertificate(rack, RR, SS, r, s))
        assert not check.ok and check.failures == [f"{name} repeats index {repeated}"]
    # so make_certificate, which sorts R, and the transports refuse it
    with pytest.raises(AssertionError, match=re.escape(f"['R repeats index {R[0]}']")):
        make_certificate(rack, R[:1] + R, S, r, s, "repeated", ())
    with pytest.raises(ValueError, match=re.escape(f"input certificate is invalid: ['R repeats index {R[0]}']")):
        juxtaposition_extend_certificate(
            TypeDCertificate(rack, R[:1] + R, S, r, s), SignedPermutation.parse("10;(1 2)")
        )


def test_verify_certificate_failure_lists_are_pinned():
    # a closure failure names one pair: the first image on the wrong side
    # under the first generator (R first, then S) whose map moves one
    cls = ConjugacyClass(Bn(3), SignedPermutation.parse("000;(1 2)"))
    rack = FiniteRack.from_class(cls)
    check = verify_certificate(rack, TypeDCertificate(rack, (0, 1), (2, 4), 0, 2))
    assert not check.ok
    assert check.failures == ["R not closed: 000;(1 2) |> 000;(1 3)"]
    # R = {110;(1 2)} is closed and keeps S in place; (1 2) |> (1 3) = (2 3)
    check = verify_certificate(rack, TypeDCertificate(rack, (5,), (0, 1, 3), 5, 0))
    assert check.failures == ["S not closed: 000;(1 2) |> 000;(1 3)"]
    # the dihedral rack x |> y = 2x - y mod 5, from its table
    rack = dihedral(5)[0]
    check = verify_certificate(rack, TypeDCertificate(rack, (1, 0), (3, 2), 1, 3))
    assert not check.ok
    assert check.failures == ["R not closed: 1 |> 0"]
    check = verify_certificate(rack, TypeDCertificate(rack, (0, 1, 4), (2,), 0, 2))
    assert check.failures == ["cross closure fails: 0 |> 2 not in S"]
    check = verify_certificate(rack, TypeDCertificate(rack, (0,), (1, 2, 3, 4), 0, 1))
    assert check.failures == ["cross closure fails: 1 |> 0 not in R"]


def test_a_class_rack_refuses_a_conjugate_outside_its_rows():
    # the transpositions (1 2), (1 3), (1 4) of S_4 alone: (1 2) |> (1 3) = (2 3)
    # is not among their rows
    part = copy.copy(ConjugacyClass(Sn(4), SignedPermutation.parse("0000;(1 2)")))
    part._set_rows(part.P[:3], part.A[:3])
    part.size = 3
    assert [t.format() for t in part.elements] == ["0000;(1 2)", "0000;(1 3)", "0000;(1 4)"]
    with pytest.raises(ValueError, match="leaves the class"):
        FiniteRack.from_class(part)  # a class this small builds its table
    rack = FiniteRack(source=part)  # no table: every call conjugates rows
    with pytest.raises(ValueError, match="leaves the class"):
        rack.op(0, 1)
    with pytest.raises(ValueError, match="leaves the class"):
        rack.table()


def _object_closure_failures(op, R, S):
    """The closure loops one operation on elements at a time: the
    reference order."""
    out = []
    for X, name in ((R, "R"), (S, "S")):
        for x in X:
            for y in X:
                if op(x, y) not in X:
                    out.append(f"{name} not closed: {x} |> {y}")
    for x in R:
        for y in S:
            if op(x, y) not in S:
                out.append(f"cross closure fails: {x} |> {y} not in S")
            if op(y, x) not in R:
                out.append(f"cross closure fails: {y} |> {x} not in R")
    return out


def test_batched_closure_check_matches_the_object_loops():
    rng = random.Random(5)
    racks = [dihedral(7)]
    classes = ((Bn(3), "100;(1 2)"), (Bn(4), "0000;(1 2 3)"), (Sn(5), "00000;(1 2)(3 4)"))
    for G, text in classes:
        racks.append((FiniteRack.from_class(ConjugacyClass(G, G.parse(text))), conjugate))
    for rack, op in racks:
        for _ in range(40):
            picked = rng.sample(range(rack.size), rng.randint(2, min(rack.size, 12)))
            cut = rng.randint(1, len(picked) - 1)
            R, S = picked[:cut], picked[cut:]
            cert = TypeDCertificate(rack, tuple(R), tuple(S), R[0], S[0])
            expect = _object_closure_failures(
                op, [rack.elements[i] for i in R], [rack.elements[i] for i in S]
            )
            failures = verify_certificate(rack, cert).failures
            named = [f for f in failures if not f.startswith("sq(")]
            # rejected on closure iff the loops find a failure, naming one
            assert len(named) == bool(expect)
            assert set(named) <= set(expect)


def test_batched_exhaustive_search_matches_the_assignment_loop():
    def assignment_loop(rack, op):
        # every assignment to {R, S, neither} in product order, one pair at a time
        elems = rack.elements
        index = {x: i for i, x in enumerate(elems)}
        for assignment in product((0, 1, 2), repeat=rack.size):
            R = [x for x, k in zip(elems, assignment) if k == 0]
            S = [x for x, k in zip(elems, assignment) if k == 1]
            if R and S and not _object_closure_failures(op, R, S):
                for r, s in product(R, S):
                    if op(r, op(s, op(r, s))) != s:
                        return [index[x] for x in R], [index[x] for x in S], r, s
        return None

    racks = [
        # the transpositions of S_3 and their negatives: of type D
        (conjugation_table_rack(["000;(1 2)", "000;(1 3)", "000;(2 3)", "111;(1 2)", "111;(1 3)", "111;(2 3)"]), conjugate),
        (conjugation_table_rack(["000;(1 2 3)", "001;()", "010;()", "011;(1 2 3)", "100;()", "101;(1 2 3)", "110;(1 2 3)"]), conjugate),
        dihedral(7),
        (FiniteRack.from_class(ConjugacyClass(Sn(4), SignedPermutation.parse("0000;(1 2)"))), conjugate),
    ]
    found = []
    for rack, op in racks:
        cert = _strategy_exhaustive(rack, 0)
        expect = assignment_loop(rack, op)
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
    i12, i13, i34 = (rack.source.find(t) for t in (t12, t13, t34))
    # (1 2) |> (1 3) = (2 3) is outside R = {(1 2), (1 3)}
    witness = "['R not closed: 0000;(1 2) |> 0000;(1 3)']"
    with pytest.raises(AssertionError, match=re.escape(f"strategy broken-split produced an invalid certificate: {witness}")):
        make_certificate(rack, [i12, i13], [i34], i12, i34, "broken-split", ())


def test_a_certificate_computes_sq_once(monkeypatch):
    # make_certificate keeps the sq(r, s) its verification computed and
    # to_json prints it; a certificate built without it computes its own
    rack = FiniteRack.from_class(ConjugacyClass(Bn(5), SignedPermutation.parse("10000;(1 2 3 4 5)")))
    found = find_type_d_certificate(rack, 0).certificate
    payload = found.to_json()
    parts = (found.R, found.S, found.r, found.s, found.strategy, found.notes)
    calls = []
    rack_sq = FiniteRack.sq
    monkeypatch.setattr(FiniteRack, "sq", lambda self, x, y: calls.append((x, y)) or rack_sq(self, x, y))
    cert = make_certificate(rack, *parts)
    assert cert.to_json() == payload
    assert calls == [(found.r, found.s)]
    assert cert == found == TypeDCertificate(rack, *parts)
    assert TypeDCertificate(rack, *parts).to_json() == payload


def test_juxtaposition_extension_rejects_invalid_input():
    cls = ConjugacyClass(Sn(4), SignedPermutation.parse("0000;(1 2)"))
    rack = FiniteRack.from_class(cls)
    bad = TypeDCertificate(rack, (0, 1), (1, 2), 0, 2)
    with pytest.raises(ValueError):
        juxtaposition_extend_certificate(bad, SignedPermutation.parse("000;(1 2 3)"))


def test_epimorphism_construction_checks_homomorphy():
    up = class_rack(Bn(3), "100;(1 2 3)")
    down = class_rack(Sn(3), "000;(1 2 3)")
    hom = RackEpimorphism(up, down, projection(up.source, down.source))
    expect = [down.source.find(SignedPermutation.from_perm(x.perm)) for x in up.elements]
    assert hom.images.tolist() == expect and min(expect) >= 0


def test_epimorphism_refuses_images_of_a_wrong_length_or_out_of_range_or_not_onto():
    up = class_rack(Bn(3), "100;(1 2 3)")
    down = class_rack(Sn(3), "000;(1 2 3)")
    images = projection(up.source, down.source)
    # refused before anything else: a wrong length, or an entry that is not
    # an index, even where the rest is a homomorphism
    for bad in (images[:-1], np.append(images, 0), images.astype(float), images[:, None]):
        with pytest.raises(ValueError, match="images must be 8 target indices"):
            RackEpimorphism(up, down, bad)
    for k, value in ((0, 2), (5, -1)):
        bad = images.copy()
        bad[k] = value
        with pytest.raises(ValueError, match=re.escape(f"image {value} of element {k} is not in 0..1")):
            RackEpimorphism(up, down, bad)
    # a constant map is not surjective
    with pytest.raises(ValueError, match="not surjective"):
        RackEpimorphism(up, down, np.zeros(up.size, dtype=np.int64))


def test_building_the_lemma_projection_makes_no_signed_permutation(monkeypatch):
    # the projection-pullback lemma's B_5 class onto the S_5 4-cycles is
    # found and checked on class rows and keys alone
    up = class_rack(Bn(5), "10000;(1 2 3 4)")
    down = class_rack(Sn(5), "00000;(1 2 3 4)")
    made = []
    init = SignedPermutation.__init__

    def counted(self, *args, **kwargs):
        made.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SignedPermutation, "__init__", counted)
    hom = RackEpimorphism(up, down, projection(up.source, down.source))
    assert made == [] and hom.images.size == 240


def _first_non_homomorphic_pair(source, f, op, target_op):
    """The object loop: the first (x, y) in source-element order with
    f(x |> y) != f(x) |> f(y), with the operations on elements."""
    for x in source.elements:
        for y in source.elements:
            if f(op(x, y)) != target_op(f(x), f(y)):
                return x, y
    return None


def _epimorphism_agrees_with_the_pair_loop(up, down, images, op, target_op):
    """RackEpimorphism accepts the index array `images` iff the object loop
    finds no failing pair, and the pair it names fails; returns the named
    x, or None."""
    f = dict(zip(up.elements, (down.elements[i] for i in images))).__getitem__
    if _first_non_homomorphic_pair(up, f, op, target_op) is None:
        RackEpimorphism(up, down, images)
        return None
    with pytest.raises(ValueError, match="not a rack homomorphism at") as info:
        RackEpimorphism(up, down, images)
    named = {f"not a rack homomorphism at ({x}, {y})": (x, y) for x in up.elements for y in up.elements}
    x, y = named[str(info.value)]
    assert f(op(x, y)) != target_op(f(x), f(y))
    return x


def test_epimorphism_names_the_first_pair_that_is_not_homomorphic():
    up = class_rack(Bn(3), "100;(1 2 3)")
    down = class_rack(Sn(3), "000;(1 2 3)")
    named = set()
    # every surjective map of the 8 elements onto the 2 of the target
    for bits in product((0, 1), repeat=up.size):
        if len(set(bits)) < 2:
            continue
        named.add(_epimorphism_agrees_with_the_pair_loop(up, down, np.array(bits), conjugate, conjugate))
    # accepted maps, and rejections at the first and at a later generator
    assert None in named and up.elements[0] in named and len(named) > 2


def test_epimorphism_checks_table_and_object_racks_on_the_index_tables():
    cls = ConjugacyClass(Bn(3), SignedPermutation.parse("100;(1 2 3)"))
    # the same rack as a table on its elements, filled in by conjugation
    up = conjugation_table_rack([t.format() for t in cls.elements])
    # two commuting elements: the trivial rack on two points
    down = trivial_rack(2)
    for bits in product((0, 1), repeat=up.size):
        if len(set(bits)) < 2:
            continue
        _epimorphism_agrees_with_the_pair_loop(up, down, np.array(bits), conjugate, lambda u, v: v)


def test_epimorphism_evaluates_linearly_many_pairs(monkeypatch):
    # the projection-pullback lemma's B_5 class onto the S_5 4-cycles:
    # |X| = 240, so the full tables were 2 * 240^2 = 115200 pairs; the
    # generators' maps take at most 4 |X| on each side
    up = class_rack(Bn(5), "10000;(1 2 3 4)")
    down = class_rack(Sn(5), "00000;(1 2 3 4)")
    pairs = {}
    for side, rack in (("source", up), ("target", down)):
        op_rows = rack.op_rows

        def counted(X, Y, side=side, op_rows=op_rows):
            pairs[side] = pairs.get(side, 0) + len(X) * len(Y)
            return op_rows(X, Y)

        monkeypatch.setattr(rack, "op_rows", counted)
    RackEpimorphism(up, down, projection(up.source, down.source))
    assert up.size == 240
    assert 0 < pairs["source"] <= 4 * up.size and 0 < pairs["target"] <= 4 * up.size


def test_epimorphism_rejects_an_image_outside_the_target():
    # the B_3 class of 100;(1 2 3) onto the S_3 class of (1 2): each 3-cycle
    # part is outside that class
    up = class_rack(Bn(3), "100;(1 2 3)")
    down = class_rack(Sn(3), "000;(1 2)")
    images = projection(up.source, down.source)
    assert (images == -1).all()
    with pytest.raises(ValueError, match=re.escape("image -1 of element 0 is not in 0..2")):
        RackEpimorphism(up, down, images)


def test_pullback_lifts_certificates():
    up = FiniteRack.from_class(
        ConjugacyClass(Bn(5), SignedPermutation.parse("00000;(1 2 3 4)"))
    )
    down = FiniteRack.from_class(
        ConjugacyClass(Sn(5), SignedPermutation.parse("00000;(1 2 3 4)"))
    )
    hom = RackEpimorphism(up, down, projection(up.source, down.source))
    res = find_type_d_certificate(down, 0)
    assert res
    lifted = pullback_type_d(hom, res.certificate)
    assert verify_certificate(up, lifted).ok


def test_class_rack_table_working_memory_is_bounded():
    # the S_6 6-cycles: 120 elements, one op_rows block of 14400 pairs
    # conjugated at once; the build allocates at most 0.8 MB beyond the
    # table it keeps (0.74 MB when each x was conjugated on its own)
    cls = ConjugacyClass(Sn(6), SignedPermutation.parse("000000;(1 2 3 4 5 6)"))
    FiniteRack.from_class(cls)  # first-call imports and caches
    tracemalloc.start()
    try:
        rack = FiniteRack.from_class(cls)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cls.size == 120 and rack._table.shape == (120, 120)
    assert peak - held <= 0.8e6


def test_pullback_cache_is_keyed_by_config():
    # the S_n search is decided by tau0 and the seed: each seed gets its
    # own, and the certificate does not depend on which ran first
    cls = ConjugacyClass(Bn(6), SignedPermutation.parse("000000;(1 2 3 4)"))
    rack = FiniteRack.from_class(cls)
    certs = [find_type_d_certificate(rack, seed).certificate for seed in (11, 12, 11)]
    tau0 = cls.rep.perm.images
    first, second = _SN_CACHE[(tau0, 11)], _SN_CACHE[(tau0, 12)]
    assert first is not second
    assert certs[0].strategy == "projection-pullback"
    assert certs[0].to_json() == certs[1].to_json() == certs[2].to_json()


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _certificates_in_a_fresh_interpreter(texts: list) -> list:
    """The certificate JSON of the B_5 class of each text, searched in
    order by one new interpreter, whose S_n search cache starts empty."""
    script = f"""
import json, sys
sys.path.insert(0, "src")
from weylrack.conjugacy import ConjugacyClass
from weylrack.groups import Bn, SignedPermutation
from weylrack.racks import FiniteRack, find_type_d_certificate
out = []
for text in {texts!r}:
    rack = FiniteRack.from_class(ConjugacyClass(Bn(5), SignedPermutation.parse(text)))
    out.append(find_type_d_certificate(rack).certificate.to_json())
print(json.dumps(out))
"""
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_certificates_do_not_depend_on_what_ran_before():
    # two classes of one cycle type with different representatives: the
    # pullback of each numbers its S_5 class from its own tau0
    first, second = "00000;(1 2 3 4)", "00000;(2 3 4 5)"
    alone = [_certificates_in_a_fresh_interpreter([t])[0] for t in (first, second)]
    assert [c["strategy"] for c in alone] == ["projection-pullback"] * 2
    assert _certificates_in_a_fresh_interpreter([first, second]) == alone
    assert _certificates_in_a_fresh_interpreter([second, first]) == alone[::-1]


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


# the classes whose racks the index operation is checked on
INDEX_GROUPS = [Bn(2), Bn(3), Bn(4), Sn(3), Sn(4), Sn(5)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(INDEX_GROUPS), st.randoms(use_true_random=False))
def test_index_operation_matches_conjugation(G, rnd):
    # op, op_rows and sq on indices against conjugate-then-find, for one
    # x against many y, paired rows, a broadcast grid and blocks of rows;
    # these classes are small enough for from_class to keep a table, so
    # the rack built without one checks the computation on the rows
    cls = ConjugacyClass(G, G.random_element(rnd))
    elems, m = cls.elements, cls.size
    index = {t: i for i, t in enumerate(elems)}

    def ref(x, y):
        return index[elems[x].conjugate(elems[y])]

    X = [rnd.randrange(m) for _ in range(rnd.randint(1, 9))]
    Y = [rnd.randrange(m) for _ in range(len(X))]
    x = X[0]
    grid = [[ref(a, b) for b in Y] for a in X]
    expect = [index[sq(elems[a], elems[b])] for a, b in zip(X, Y)]
    for rack in (FiniteRack.from_class(cls), FiniteRack(source=cls)):
        assert rack.op(x, Y[0]) == ref(x, Y[0])
        assert rack.op(x, Y).tolist() == [ref(x, y) for y in Y]
        assert rack.op(X, Y).tolist() == [ref(a, b) for a, b in zip(X, Y)]
        assert rack.op(np.array(X)[:, None], np.array(Y)[None, :]).tolist() == grid
        assert np.concatenate([Z for _, Z in rack.op_rows(X, Y)]).tolist() == grid
        assert rack.sq(X, Y).tolist() == expect
        assert rack.sq(x, Y[0]) == expect[0]


def _worklist_closure(op, x, y, max_size):
    """The two-sided worklist the seed closure used to run, one operation
    at a time: the reference for the orbit search.  Returns the sides as
    sets, or None on a collision or when they outgrow max_size."""
    R, S = {x}, {y}
    queue = [(x, 0), (y, 1)]
    while queue:
        u, side = queue.pop()
        mine, other = (R, S) if side == 0 else (S, R)
        for v in list(mine):
            for w in (op(u, v), op(v, u)):
                if w not in mine:
                    if w in other:
                        return None
                    mine.add(w)
                    queue.append((w, side))
        for v in list(other):
            uv = op(u, v)  # lands on the other side
            vu = op(v, u)  # lands on ours
            if uv not in other:
                if uv in mine:
                    return None
                other.add(uv)
                queue.append((uv, 1 - side))
            if vu not in mine:
                if vu in other:
                    return None
                mine.add(vu)
                queue.append((vu, side))
        if len(R) + len(S) > max_size:
            return None
    return R, S


def test_orbit_closure_matches_the_worklist_on_every_seed_pair():
    racks = [dihedral(m)[0] for m in range(3, 9)]
    racks += [FiniteRack.from_class(ConjugacyClass(Bn(4), rep)) for rep in _class_representatives(4)]
    racks += [
        FiniteRack.from_class(ConjugacyClass(Sn(5), rep))
        for rep in _class_representatives(5)
        if not any(rep.sign)
    ]
    outcomes = set()
    for rack in racks:
        # the reference operation on indices, one element at a time
        if isinstance(rack, TableRack):
            table = rack.table().tolist()
        else:
            elems = rack.source.elements
            index = {t: i for i, t in enumerate(elems)}
            table = [[index[conjugate(a, b)] for b in elems] for a in elems]
        op = lambda u, v: table[u][v]  # noqa: E731
        for x, y in permutations(range(rack.size), 2):
            for max_size in (MAX_CLOSURE_SIZE, 5):
                expect = _worklist_closure(op, x, y, max_size)
                got = _closure_from_seeds(rack, x, y, max_size)
                if expect is None:
                    assert got is None
                    outcomes.add("refused")
                else:
                    assert [R.tolist() for R in got] == [sorted(R) for R in expect]
                    outcomes.add(("grown", len(expect[0]) + len(expect[1]) > 2))
    assert outcomes == {"refused", ("grown", False), ("grown", True)}


def _closure_pair_failures(rack, R, S):
    """A message for every pair that breaks subrack or cross closure of R
    and S (index lists), in the order of the pair loops R x R, S x S, then
    R x S with x |> y before y |> x, every pair computed a block of index
    rows at a time: the reference for the proof from generators."""
    elems = rack.elements
    in_R = np.zeros(rack.size, dtype=bool)
    in_R[list(R)] = True
    in_S = np.zeros(rack.size, dtype=bool)
    in_S[list(S)] = True

    def misses(X, Y, member):
        """(i, j) with x_i |> y_j outside member, in order."""
        for i, Z in rack.op_rows(X, Y):
            rows, cols = np.nonzero(~member[Z])
            yield from zip((rows + i).tolist(), cols.tolist())

    out = []
    for X, member, name in ((R, in_R, "R"), (S, in_S, "S")):
        out += [f"{name} not closed: {elems[X[i]]} |> {elems[X[j]]}" for i, j in misses(X, X, member)]
    # R |> S and S |> R, merged into the order of the loop over R x S
    cross = [(i, j, 0) for i, j in misses(R, S, in_S)]
    cross += [(i, j, 1) for j, i in misses(S, R, in_R)]
    for i, j, flipped in sorted(cross):
        x, y = elems[R[i]], elems[S[j]]
        if flipped:
            out.append(f"cross closure fails: {y} |> {x} not in R")
        else:
            out.append(f"cross closure fails: {x} |> {y} not in S")
    return out


def _pair_check_failures(rack, cert):
    """The certificate conditions decided pair by pair, in the failure
    order of verify_certificate, with every closure failure listed: the
    reference for its proof from generators, which names one of them."""
    failures = []
    if not cert.R or not cert.S:
        failures.append("R and S must be nonempty")
    if any(not 0 <= i < rack.size for i in cert.R + cert.S):
        return failures + ["index out of range"]
    if set(cert.R) & set(cert.S):
        failures.append(f"R and S overlap: {sorted(set(cert.R) & set(cert.S))}")
    if not failures:
        failures.extend(_closure_pair_failures(rack, cert.R, cert.S))
    if cert.r not in cert.R:
        failures.append("r must lie in R")
    if cert.s not in cert.S:
        failures.append("s must lie in S")
    if not failures and rack.sq(cert.r, cert.s) == cert.s:
        r, s = rack.elements[cert.r], rack.elements[cert.s]
        failures.append(f"sq({r}, {s}) == {s}")
    return failures


def _perturbed(cert):
    """The certificate, then with one element of R other than r moved to S,
    then with the first element outside R u S added to R."""
    rack, R, S = cert.rack, list(cert.R), list(cert.S)
    yield cert
    moved = R[-1] if R[-1] != cert.r else R[0]
    rest = tuple(x for x in R if x != moved)
    yield TypeDCertificate(rack, rest, tuple(S) + (moved,), cert.r, cert.s)
    outside = np.setdiff1d(np.arange(rack.size), R + S)
    if outside.size:
        yield TypeDCertificate(rack, tuple(R) + (int(outside[0]),), tuple(S), cert.r, cert.s)


def _found_certificates():
    """Every certificate the search finds at seed 0 for the classes of
    B_2..B_6 the scan searches, and for the classes of S_3..S_6 with a
    nontrivial permutation part."""
    for n in range(2, 7):
        for rep in _class_representatives(n):
            key = rep.signed_cycle_type()
            if all(l == 1 for l, _ in key) or exception_family(key) is not None:
                continue
            yield find_type_d_certificate(FiniteRack.from_class(ConjugacyClass(Bn(n), rep)), 0)
    for n in range(3, 7):
        for rep in _class_representatives(n):
            if not any(rep.sign) and not rep.perm.is_identity():
                yield find_type_d_certificate(FiniteRack.from_class(ConjugacyClass(Sn(n), rep)), 0)


def _oracle_cases():
    """(name, certificate) for the proof-against-pair-check comparisons."""
    found = [res.certificate for res in _found_certificates() if res]
    for cert in found:
        for case in _perturbed(cert):
            yield "found", case
    # the seed closures on D_7 all collide, and those on D_8 grow; a
    # refused seed pair is taken as the two seeds alone
    for m in (7, 8):
        rack = dihedral(m)[0]
        for x, y in permutations(range(m), 2):
            grown = _closure_from_seeds(rack, x, y, MAX_CLOSURE_SIZE)
            R, S = ([x], [y]) if grown is None else (grown[0].tolist(), grown[1].tolist())
            yield "dihedral", TypeDCertificate(rack, tuple(R), tuple(S), R[0], S[0])
    # the trivial rack: every phi_g is the identity, so every element of
    # R u S is its own generator; every assignment to {R, S, neither}
    trivial = trivial_rack(6)
    for assignment in product((0, 1, 2), repeat=6):
        R = tuple(i for i, k in enumerate(assignment) if k == 0)
        S = tuple(i for i, k in enumerate(assignment) if k == 1)
        if R and S:
            yield "trivial", TypeDCertificate(trivial, R, S, R[0], S[0])
    # a class rack without a table: op_rows conjugates class rows
    cls = ConjugacyClass(Bn(4), SignedPermutation.parse("0100;(3 4)"))
    rows = FiniteRack(source=cls)
    assert rows._table is None
    cert = find_type_d_certificate(rows, 0).certificate
    for case in _perturbed(cert):
        yield "rows", case


def test_verify_certificate_matches_the_pair_check():
    seen = {}
    for name, cert in _oracle_cases():
        check = verify_certificate(cert.rack, cert)
        expect = _pair_check_failures(cert.rack, cert)
        closure = [f for f in expect if "closed:" in f or "closure fails:" in f]
        # the closure failures collapse to the first one the proof meets
        named = [f for f in check.failures if f in closure]
        assert len(named) == bool(closure), (name, cert.R, cert.S)
        assert check.failures == [f for f in expect if f not in closure or f in named], (name, cert.R, cert.S)
        assert check.ok == (not expect), (name, cert.R, cert.S)
        seen[name, check.ok] = seen.get((name, check.ok), 0) + 1
    assert set(seen) == {
        ("found", True), ("found", False), ("dihedral", True), ("dihedral", False),
        ("trivial", False), ("rows", True), ("rows", False),
    }


def test_transports_refuse_an_unclosed_certificate_naming_its_witnesses():
    # R = {(1 2)}, S = {(1 3)} are disjoint, but (1 2) |> (1 3) = (2 3)
    # lies in neither
    rack = FiniteRack.from_class(ConjugacyClass(Sn(4), SignedPermutation.parse("0000;(1 2)")))
    i12, i13 = (rack.source.find(SignedPermutation.parse(t)) for t in ("0000;(1 2)", "0000;(1 3)"))
    witnesses = ["cross closure fails: 0000;(1 2) |> 0000;(1 3) not in S"]
    with pytest.raises(AssertionError) as info:
        make_certificate(rack, [i12], [i13], i12, i13, "broken-split", ())
    assert str(info.value) == f"strategy broken-split produced an invalid certificate: {witnesses}"
    bad = TypeDCertificate(rack, (i12,), (i13,), i12, i13)
    with pytest.raises(ValueError) as info:
        juxtaposition_extend_certificate(bad, SignedPermutation.parse("000;(1 2 3)"))
    assert str(info.value) == f"input certificate is invalid: {witnesses}"

    up = FiniteRack.from_class(ConjugacyClass(Bn(3), SignedPermutation.parse("000;(1 2)")))
    down = FiniteRack.from_class(ConjugacyClass(Sn(3), SignedPermutation.parse("000;(1 2)")))
    hom = RackEpimorphism(up, down, projection(up.source, down.source))
    bad = TypeDCertificate(down, (0,), (1,), 0, 1)
    witnesses = [f"cross closure fails: {down.elements[0]} |> {down.elements[1]} not in S"]
    with pytest.raises(ValueError) as info:
        pullback_type_d(hom, bad)
    assert str(info.value) == f"input certificate is invalid: {witnesses}"


def _greedy_generators(op, R, S):
    """The generators the closure proof picks, one operation at a time:
    the first element of R, then of S, outside the orbit of those picked
    so far under their maps g |> ."""
    picked, orbit = [], set()
    for u in list(R) + list(S):
        if u in orbit:
            continue
        picked.append(u)
        orbit.add(u)
        grow = list(orbit)
        while grow:
            v = grow.pop()
            for g in picked:
                w = op(g, v)
                if w not in orbit:
                    orbit.add(w)
                    grow.append(w)
    return picked


def test_closure_proof_conjugates_by_the_greedy_generators_only(monkeypatch):
    certs = []
    rack = dihedral(8)[0]
    for x, y in permutations(range(8), 2):
        grown = _closure_from_seeds(rack, x, y, MAX_CLOSURE_SIZE)
        if grown is not None:
            R, S = (tuple(side.tolist()) for side in grown)
            certs.append(TypeDCertificate(rack, R, S, R[0], S[0]))
    for G, text in ((Bn(4), "0100;(3 4)"), (Bn(5), "00001;(1 2)"), (Bn(5), "10000;(1 2 3 4 5)")):
        certs.append(find_type_d_certificate(FiniteRack.from_class(ConjugacyClass(G, G.parse(text))), 0).certificate)
    trivial = trivial_rack(6)
    certs.append(TypeDCertificate(trivial, (4, 0, 2), (5, 1), 4, 5))
    counts = []
    for cert in certs:
        rows = []
        op_rows = cert.rack.op_rows

        def spy(X, Y):
            rows.extend(np.asarray(X).tolist())
            return op_rows(X, Y)

        monkeypatch.setattr(cert.rack, "op_rows", spy)
        verify_certificate(cert.rack, cert)
        monkeypatch.undo()
        assert rows == _greedy_generators(cert.rack.op, cert.R, cert.S)
        counts.append(len(rows))
    # D_8: at most three generators (two for a pair of antipodal
    # singletons); the three classes of 12, 36 and 32 elements take 4, 5
    # and 3; the trivial rack needs every element
    assert max(counts[:-4]) == 3 and counts[-4:] == [4, 5, 3, 5]
