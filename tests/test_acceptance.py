"""End-to-end acceptance checks, one test per criterion."""

import time

from weylrack.conjugacy import ConjugacyClass, transposition_preset
from weylrack.groups import Bn, SignedPermutation
from weylrack.ncalg import fk_presentation, hilbert_series
from weylrack.nichols import nichols_graded_dim
from weylrack.racks import FiniteRack
from weylrack.reps import chi_eps_sgn, chi_sgn_sgn, tensor_case_admitted
from weylrack.verify import (
    VerifyConfig,
    _class_representatives,
    scan_classes,
    verify_lemmas,
)
from weylrack.ydmodule import ArrowYDModule, build_yd_module, psi_isomorphism_check

from rack_oracles import check_axioms
from test_nichols import mirrored_dims, reduced_word


def run_checks(names, **cfg):
    t0 = time.monotonic()
    reports = verify_lemmas(list(names), VerifyConfig(**cfg))
    elapsed = time.monotonic() - t0
    return reports, elapsed


def test_criterion_1_identity_harness():
    names = [
        "square-closed-forms",
        "juxtaposition-laws",
        "coset-transposition-identities",
        "character-table",
        "sign-products",
        "quadratic-relations",
    ]
    reports, elapsed = run_checks(names)
    assert [r.status for r in reports] == ["pass"] * len(names)
    assert elapsed <= 300


def test_criterion_2_certificate_constructions():
    names = [
        "cycle-split",
        "double-3-cycle-split",
        "two-two-three-split",
        "fixed-sign-split",
    ]
    reports, elapsed = run_checks(names)
    assert [r.status for r in reports] == ["pass"] * len(names)
    assert elapsed <= 600


def test_criterion_3_class_scan():
    t0 = time.monotonic()
    for n in (5, 6):
        rows = scan_classes(n, VerifyConfig(seed=0))
        assert rows
        assert all(r.outcome in ("certificate", "exception-list") for r in rows)
    assert time.monotonic() - t0 <= 1800


def test_criterion_4_exact_graded_dimensions():
    t0 = time.monotonic()
    # transposition class of S_3: exact dims with a zero degree-5 component
    cs3 = transposition_preset(3)
    c3 = build_yd_module(cs3, chi_sgn_sgn(cs3.centralizer)).braiding()
    d3 = nichols_graded_dim(c3, 5)
    assert d3.dims == [1, 3, 4, 3, 1, 0]
    assert sum(d3.dims) == 12
    assert d3.exact
    # the n = 3 quadratic algebra has identical Hilbert data
    h3 = hilbert_series(fk_presentation(3), 5)
    assert h3.dims == d3.dims
    assert h3.terminated
    # the n = 4 quadratic algebra terminates with total dimension 576
    h4 = hilbert_series(fk_presentation(4), 13)
    assert h4.terminated
    assert sum(h4.dims) == 576
    # braiding-based dims for S_4 agree with it through degree 4
    cs4 = transposition_preset(4)
    c4 = build_yd_module(cs4, chi_sgn_sgn(cs4.centralizer)).braiding()
    d4 = nichols_graded_dim(c4, 4)
    assert d4.dims == h4.dims[:5] == [1, 6, 19, 42, 71]
    assert time.monotonic() - t0 <= 900


def test_criterion_5_arrow_module_isomorphism():
    reports, elapsed = run_checks(["arrow-isomorphism"])
    assert reports[0].status == "pass"
    assert "negative-control" in reports[0].detail
    assert elapsed <= 120


def test_criterion_6_structural_suites():
    t0 = time.monotonic()
    for n in (3, 4):
        cs = transposition_preset(n)
        for char in (chi_sgn_sgn, chi_eps_sgn):
            chi = char(cs.centralizer)
            yd = build_yd_module(cs, chi)
            yd.check_yd_compatibility(sample=None)
            braiding = yd.braiding()
            braiding.check_braid_equation(sample=None)
            braiding.check_invertible()
            arrow = ArrowYDModule(cs, chi)
            assert psi_isomorphism_check(yd, arrow)
        check_axioms(FiniteRack.from_class(cs.cls))
    # orbit-stabilizer across every class of B_n, n <= 5
    for n in range(1, 6):
        G = Bn(n)
        for rep in _class_representatives(n):
            cls = ConjugacyClass(G, rep)
            assert cls.size * cls.centralizer().order == G.order
    # word-choice independence of the symmetrizer through degree 4
    cs = transposition_preset(3)
    c = build_yd_module(cs, chi_sgn_sgn(cs.centralizer)).braiding()
    assert nichols_graded_dim(c, 4).dims == mirrored_dims(c, 4)
    import itertools

    for k in (2, 3, 4):
        for images in itertools.permutations(range(k)):
            for from_right in (False, True):
                w = reduced_word(images, from_right)
                inv = sum(
                    1
                    for i in range(k)
                    for j in range(i + 1, k)
                    if images[i] > images[j]
                )
                assert len(w) == inv
    assert time.monotonic() - t0 <= 300


def test_criterion_7_scalar_filter():
    reports, elapsed = run_checks(["scalar-filter"])
    assert reports[0].status == "pass"
    assert elapsed <= 60
    # spot check one admitted-pair table directly
    pos2 = SignedPermutation.parse("00;(1 2)")
    neg_pt = SignedPermutation.parse("1;()")
    assert tensor_case_admitted(pos2, neg_pt) == [(1, -1), (-1, 1)]
