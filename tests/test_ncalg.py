"""Quadratic presentations, truncated Groebner completion, and Hilbert
series; cross-checks against the braiding-based engine."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from weylrack import ncalg
from weylrack.conjugacy import ConjugacyClass, transposition_preset
from weylrack.cyclotomic import Cyclo
from weylrack.groups import Bn, BudgetExceeded
from weylrack.ncalg import (
    GroebnerBasis,
    NCPresentation,
    a_algebra_presentation,
    fk_presentation,
    hilbert_series,
    nc_groebner,
)
from weylrack.linalg import DEFAULT_PRIMES, rank_cyclo_exact
from weylrack.nichols import (
    degree2_kernel,
    in_degree2_kernel,
    nichols_graded_dim,
    quadratic_cover_presentation,
)
from weylrack.reps import chi_eps_sgn, chi_sgn_sgn
from weylrack.ydmodule import Braiding, build_yd_module


def braiding_for(n, char):
    cs = transposition_preset(n)
    return build_yd_module(cs, char(cs.centralizer)).braiding()


def test_presentation_validation():
    pres = NCPresentation(["a", "b"])
    pres.add_relation({(0, 0): 1})
    pres.add_relation({(0, 1): 1, (1, 0): -1})
    with pytest.raises(ValueError):
        pres.add_relation({(0, 0, 0): 1})  # degree 3
    with pytest.raises(ValueError):
        pres.add_relation({(0,): 1, (0, 1): 1})  # inhomogeneous
    with pytest.raises(ValueError):
        fk_presentation(1)
    with pytest.raises(ValueError):
        fk_presentation(3, form="bogus")


def test_n2_total_dimension_two():
    out = hilbert_series(fk_presentation(2), 6)
    assert out.dims == [1, 1, 0, 0, 0, 0, 0]
    assert out.terminated
    assert sum(out.dims) == 2


def test_n3_total_dimension_twelve_both_forms():
    lt = hilbert_series(fk_presentation(3, "lt"), 8)
    assert lt.dims[:6] == [1, 3, 4, 3, 1, 0]
    assert lt.terminated
    assert sum(lt.dims) == 12
    # the ordered-pair form eliminates to the same algebra
    alt = hilbert_series(fk_presentation(3, "all"), 8)
    assert alt.dims == lt.dims
    assert alt.terminated


def test_n4_total_dimension_576():
    out = hilbert_series(fk_presentation(4), 13)
    assert out.terminated
    assert sum(out.dims) == 576
    assert out.dims[:5] == [1, 6, 19, 42, 71]
    # the zero tail only appears at degree 13
    shallow = hilbert_series(fk_presentation(4), 12)
    assert not shallow.terminated


def test_n5_low_degrees_no_termination():
    out = hilbert_series(fk_presentation(5), 6)
    assert out.dims[:4] == [1, 10, 55, 220]  # frozen from this engine
    assert not out.terminated


def test_groebner_is_deterministic():
    a = nc_groebner(fk_presentation(3), 8)
    b = nc_groebner(fk_presentation(3), 8)
    assert a.leading_words() == b.leading_words()


def seeded_words(generator_count):
    rng = random.Random(41)
    return [
        tuple(rng.randrange(generator_count) for _ in range(rng.randint(1, 6)))
        for _ in range(60)
    ]


def rightmost_normal_form(poly, index):
    """Reduce `poly` by `index` = {leading word: monic poly}, rewriting
    the largest monomial at the rightmost occurrence of a leading word."""
    poly = dict(poly)
    out = {}
    while poly:
        m = max(poly, key=lambda w: (len(w), w))
        c = poly.pop(m)
        hits = [
            (pos, lead)
            for pos in range(len(m))
            for lead in index
            if m[pos : pos + len(lead)] == lead
        ]
        if not hits:
            out[m] = c
            continue
        pos, lead = max(hits)
        for mm, v in index[lead].items():
            if mm != lead:
                key = m[:pos] + mm + m[pos + len(lead) :]
                w = poly.get(key, 0) - c * v
                if w:
                    poly[key] = w
                else:
                    poly.pop(key, None)
    return out


def confluence_check(gb, words):
    """Reduce each word twice, by the leftmost rewriting of
    `reference_normal_form` and by `rightmost_normal_form`, and compare
    the normal forms.  A basis complete through the words' degrees gives
    equal forms for every word; different forms show an unresolved
    ambiguity."""
    index = dict(gb.basis)
    return all(
        reference_normal_form({tuple(w): 1}, index) == rightmost_normal_form({tuple(w): 1}, index)
        for w in words
    )


def test_confluence_on_random_words():
    gb = nc_groebner(fk_presentation(3), 8)
    words = seeded_words(gb.generator_count)
    assert confluence_check(gb, words)


def test_confluence_check_fails_on_uncompleted_relations():
    # the fk n=3 relations made monic but never completed: leftmost and
    # rightmost rewriting must reach different normal forms on some word
    basis = []
    for rel in fk_presentation(3).relations:
        lead = max(rel, key=lambda m: (len(m), m))
        basis.append((lead, {m: Fraction(v, rel[lead]) for m, v in rel.items()}))
    basis.sort(key=lambda item: (len(item[0]), item[0]))
    gb = GroebnerBasis(basis, 8, 3)
    assert not confluence_check(gb, seeded_words(gb.generator_count))


def test_sign_table_validation():
    with pytest.raises(ValueError):
        a_algebra_presentation(
            3,
            alpha=lambda i, j, k: 2,
            beta=lambda i, j, k: 1,
            gamma=lambda i, j: -1,
            lam=lambda i, j, k, l: 1,
        )


def test_cross_engine_degree2_agreement():
    # degree-2 Hilbert dimension of the quadratic cover equals the
    # degree-2 graded dimension computed from the braiding
    for n in (3, 4):
        for char in (chi_sgn_sgn, chi_eps_sgn):
            c = braiding_for(n, char)
            pres = quadratic_cover_presentation(c)
            hd = hilbert_series(pres, 2)
            nd = nichols_graded_dim(c, 2)
            assert hd.dims[:3] == nd.dims[:3]


def test_quadratic_cover_dominates_degreewise():
    c = braiding_for(3, chi_sgn_sgn)
    pres = quadratic_cover_presentation(c)
    hd = hilbert_series(pres, 5)
    nd = nichols_graded_dim(c, 5)
    for h, d in zip(hd.dims, nd.dims):
        assert h >= d


def test_hilbert_json_is_serializable():
    import json

    out = hilbert_series(fk_presentation(3), 6)
    blob = json.dumps(out.to_json(), sort_keys=True)
    assert json.loads(blob)["dims"] == out.dims


def seeded_signs(n, seed):
    """alpha, beta, gamma, lam for `a_algebra_presentation`: one +-1 per
    tuple of distinct indices, drawn from random.Random(seed) in product
    order, table by table."""
    rng = random.Random(seed)

    def table(arity):
        keys = itertools.product(range(1, n + 1), repeat=arity)
        signs = {k: rng.choice((1, -1)) for k in keys if len(set(k)) == arity}
        return lambda *k: signs[k]

    return table(3), table(3), table(2), table(4)


def frozen_presentation(name):
    kind, n, variant = name.split("-")
    n = int(n)
    if kind == "fk":
        return fk_presentation(n, variant)
    if kind == "A":
        return a_algebra_presentation(n, *seeded_signs(n, int(variant)))
    char = {"sgn": chi_sgn_sgn, "eps": chi_eps_sgn}[variant]
    return quadratic_cover_presentation(braiding_for(n, char))


# name: (cap, dims, terminated, basis size, leading words in deglex order,
# one base-36 digit per generator), recorded from the pair-by-pair
# Buchberger-Mora completion that the degree-by-degree one replaced; the
# truncated reduced basis is unique for a fixed order, so they must agree
FROZEN = {
    "fk-4-lt": (13, [1, 6, 19, 42, 71, 96, 106, 96, 71, 42, 19, 6, 1, 0], True, 25,
        "00 11 22 30 31 32 33 40 41 42 44 50 51 52 53 54 55 101 202 212 "
        "434 2012 2102 201020 201021"
    ),
    "fk-5-lt": (8, [1, 10, 55, 220, 711, 1960, 4761, 10410, 20796], False, 126,
        "00 11 22 33 40 41 42 43 44 50 51 52 53 55 60 61 62 63 66 70 71 "
        "72 73 74 75 76 77 80 81 82 83 84 85 86 88 90 91 92 93 94 95 96 "
        "97 98 99 101 202 212 303 313 323 545 646 656 878 2012 2102 3013 "
        "3023 3103 3123 3203 3213 6456 6546 30123 30213 31023 31203 32013 "
        "32103 201020 201021 301030 301031 302030 302032 310203 312103 "
        "312131 312132 320103 645464 645465 3010230 3010231 3012030 "
        "3012032 3012131 3012132 3020130 3020132 3020312 3021030 3021031 "
        "3021032 3102131 3102132 3120131 3120132 3121301 3121302 30102030 "
        "30102131 30120132 30120312 30121030 30121031 30121032 30121301 "
        "30121302 30201030 30201032 30201312 31020131 31020132 31021031 "
        "31021032 31021301 31021302 31201031 31201032 31201301 32010230 "
        "32010231 32010232"
    ),
    "fk-4-all": (9, [1, 6, 19, 42, 71, 96, 106, 96, 71, 42], False, 31,
        "3 6 7 9 a b 00 11 22 40 41 42 44 50 51 52 55 80 81 82 84 85 88 "
        "101 202 212 545 2012 2102 201020 201021"
    ),
    "A-3-1": (8, [1, 3, 2, 0, 0, 0, 0, 0, 0], True, 10,
        "2 4 5 00 10 11 13 30 31 33"
    ),
    "A-3-2": (8, [1, 3, 2, 0, 0, 0, 0, 0, 0], True, 12,
        "2 4 5 00 03 11 13 30 31 33 010 101"
    ),
    "A-4-1": (7, [1, 6, 9, 0, 0, 0, 0, 0], True, 42,
        "3 6 7 9 a b 00 02 08 10 11 14 15 20 21 22 24 40 41 42 44 48 50 "
        "51 52 55 58 80 81 82 84 85 88 012 018 045 054 125 128 254 454 "
        "545"
    ),
    "A-4-2": (7, [1, 6, 4, 0, 0, 0, 0, 0], True, 41,
        "3 6 7 9 a b 00 01 05 08 10 11 12 14 15 18 20 21 22 24 25 28 40 "
        "41 42 44 48 50 51 52 55 58 80 81 82 84 85 88 045 454 545"
    ),
    "cover-3-sgn": (8, [1, 3, 4, 3, 1, 0, 0, 0, 0], True, 6,
        "00 11 20 21 22 101"
    ),
    "cover-3-eps": (8, [1, 3, 4, 3, 1, 0, 0, 0, 0], True, 6,
        "00 11 20 21 22 101"
    ),
    "cover-4-sgn": (13, [1, 6, 19, 42, 71, 96, 106, 96, 71, 42, 19, 6, 1, 0], True, 25,
        "00 11 22 30 31 32 33 40 41 42 44 50 51 52 53 54 55 101 202 212 "
        "434 2012 2102 201020 201021"
    ),
    "cover-4-eps": (13, [1, 6, 19, 42, 71, 96, 106, 96, 71, 42, 19, 6, 1, 0], True, 25,
        "00 11 22 30 31 32 33 40 41 42 44 50 51 52 53 54 55 101 202 212 "
        "434 2012 2102 201020 201021"
    ),
}


@pytest.mark.parametrize("name", list(FROZEN))
def test_completion_matches_frozen_output(name):
    cap, dims, terminated, basis_size, leads = FROZEN[name]
    pres = frozen_presentation(name)
    assert hilbert_series(pres, cap).to_json() == {
        "dims": dims,
        "terminated": terminated,
        "basis_size": basis_size,
    }
    words = [tuple(int(c, 36) for c in w) for w in leads.split()]
    assert nc_groebner(pres, cap).leading_words() == words


def scaled(pres, factor):
    """The presentation with every relation multiplied by `factor`."""
    out = NCPresentation(list(pres.generators))
    for rel in pres.relations:
        out.add_relation({m: factor * v for m, v in rel.items()})
    return out


def is_exact(v):
    """An int, or a Fraction only where the denominator is not 1 (never a
    float)."""
    return type(v) is int or (type(v) is Fraction and v.denominator != 1)


def assert_exact_monic(pres, gb):
    """Every relation and basis coefficient is exact, and every basis
    polynomial is monic."""
    assert all(is_exact(v) for rel in pres.relations for v in rel.values())
    for lead, poly in gb.basis:
        assert type(poly[lead]) is int and poly[lead] == 1
        assert all(is_exact(v) for v in poly.values()), poly


def quantum_plane():
    """b a = (2/3) a b and b b = a a: a basis with a coefficient that is
    not an integer."""
    pres = NCPresentation(["a", "b"])
    pres.add_relation({(1, 0): 3, (0, 1): -2})
    pres.add_relation({(1, 1): 1, (0, 0): -1})
    return pres


def rational_relations():
    """Three generators and relations with fractional coefficients, whose
    interreduction meets integral values that arise as Fractions."""
    pres = NCPresentation(["a", "b", "c"])
    h = Fraction(3, 2)
    pres.add_relation({(2, 2): h, (1, 0): h})
    pres.add_relation({(1, 2): -2, (1, 0): h})
    pres.add_relation({(0, 0): -1, (2, 0): 2, (2, 1): 3})
    return pres


EXACT_CASES = {
    "fk-4-lt": (lambda: frozen_presentation("fk-4-lt"), 13),
    "A-4-1": (lambda: frozen_presentation("A-4-1"), 7),
    "quantum-plane": (quantum_plane, 6),
    "rational-relations": (rational_relations, 5),
}


def reference_normal_form(poly, index):
    """Fully reduce `poly` by `index` = {leading word: monic poly} on
    tuple words: the largest monomial first, at the leftmost occurrence of
    the shortest leading word there, as the completion first did it."""
    lengths = sorted({len(w) for w in index})
    poly = dict(poly)
    out = {}
    while poly:
        m = max(poly, key=lambda w: (len(w), w))
        c = poly.pop(m)
        hit = next(
            ((pos, L) for pos in range(len(m)) for L in lengths if m[pos : pos + L] in index),
            None,
        )
        if hit is None:
            out[m] = c
            continue
        pos, L = hit
        lead = m[pos : pos + L]
        for mm, v in index[lead].items():
            if mm != lead:
                key = m[:pos] + mm + m[pos + L :]
                w = poly.get(key, 0) - c * v
                if w:
                    poly[key] = w
                else:
                    poly.pop(key, None)
    return out


def sub_scaled(acc, poly, c, left=()):
    """acc -= c * left * poly on tuple words."""
    for m, v in poly.items():
        w = acc.get(left + m, 0) - c * v
        if w:
            acc[left + m] = w
        else:
            acc.pop(left + m, None)


def reference_overlaps(index, d):
    """The S-polynomials f * v - u * g of length d on tuple words, copied
    and subtracted term by term from `index` = {leading word: monic poly}
    of the leads shorter than d, in deglex order of lf = u s, then of the
    length of s, then of lg = s v."""
    leads = sorted((w for w in index if len(w) < d), key=lambda w: (len(w), w))
    for lf in leads:
        for k in range(1, len(lf)):
            for lg in leads:
                if k < len(lg) == d - len(lf) + k and lg[:k] == lf[len(lf) - k :]:
                    sp = {m + lg[k:]: c for m, c in index[lf].items()}
                    sub_scaled(sp, index[lg], 1, lf[: len(lf) - k])
                    yield sp


def reference_groebner(pres, cap):
    """The degree-by-degree completion on tuple words, as it ran before
    words became ints: pass d reduces the degree-d relations, then every
    overlap S-polynomial of length d, interreducing the degree-d leads."""
    index = {}
    for d in range(1, cap + 1):
        polys = [r for r in pres.relations if len(next(iter(r))) == d]
        polys += list(reference_overlaps(index, d))
        same_degree = []
        for poly in polys:
            poly = reference_normal_form(poly, index)
            if not poly:
                continue
            lead = max(poly, key=lambda w: (len(w), w))
            poly = {m: Fraction(v) / poly[lead] for m, v in poly.items()}
            for other in same_degree:
                if lead in index[other]:
                    sub_scaled(index[other], poly, index[other][lead])
            index[lead] = poly
            same_degree.append(lead)
    return sorted(index.items(), key=lambda item: (len(item[0]), item[0]))


def fraction_braiding():
    """A diagonal braiding on D = 3 (a > b = b) with q_ab = (a + 2) / (b + 2)
    off the diagonal, so that q_ab q_ba = 1, and q_00 = -1."""
    q = [[Cyclo.rational(Fraction(a + 2, b + 2) if a != b else 1 - 2 * (a == 0)) for b in range(3)]
         for a in range(3)]
    return Braiding([[0, 1, 2]] * 3, q)


def fraction_cover():
    """The quadratic cover of `fraction_braiding`: its relations have
    Fraction coefficients."""
    return quadratic_cover_presentation(fraction_braiding())


REFERENCE_CASES = {
    "fk-3-lt": (lambda: fk_presentation(3), 8),
    "fk-4-lt": (lambda: fk_presentation(4), 13),
    "fk-5-lt": (lambda: fk_presentation(5), 8),
    # degree-1 leads
    "fk-4-all": (lambda: fk_presentation(4, "all"), 9),
    "A-4-1": (lambda: frozen_presentation("A-4-1"), 7),
    "A-4-2": (lambda: frozen_presentation("A-4-2"), 7),
    "A-4-3": (lambda: frozen_presentation("A-4-3"), 7),
    "fraction-cover": (fraction_cover, 7),
    # 21 generators: five bits a letter
    "fk-7-lt": (lambda: fk_presentation(7), 4),
}


@pytest.mark.parametrize("name", list(REFERENCE_CASES))
def test_completion_matches_the_tuple_reference(name):
    # the reduced truncated basis is unique (Bergman's diamond lemma), so
    # the leads and every tail coefficient must agree exactly
    make, cap = REFERENCE_CASES[name]
    pres = make()
    basis = nc_groebner(pres, cap).basis
    assert [lead for lead, _ in basis] == [lead for lead, _ in reference_groebner(pres, cap)]
    assert basis == reference_groebner(pres, cap)


def class_braiding(n, element):
    cs = ConjugacyClass(Bn(n), Bn(n).parse(element)).coset_system()
    return build_yd_module(cs, chi_sgn_sgn(cs.centralizer)).braiding()


def id_plus_c(braiding):
    """id + c on V (x) V as a dense D^2 x D^2 object array, column a*D + b
    holding e_ab + q_ab e_{a>b, a}."""
    D = braiding.D
    M = np.zeros((D * D, D * D), dtype=object)
    for (a, b), target in np.ndenumerate(braiding.phi):
        M[a * D + b, a * D + b] += 1
        M[target * D + a, a * D + b] += braiding.q[a, b]
    return M


def dense_rank_mod_p(M, p):
    """The rank mod p of an integer matrix, by Gaussian elimination on the
    dense int64 array, one pivot column at a time.  Only the rows with an
    entry in the pivot column are updated, so the 1024 x 1024 id + c of
    D = 32 takes a fraction of a second, where `linalg.rank_mod_p`'s
    scans of the whole remaining block take about 3 s per prime."""
    M = (M % p).astype(np.int64)
    rank = 0
    for col in range(M.shape[1]):
        rows = rank + np.flatnonzero(M[rank:, col])
        if not rows.size:
            continue
        M[[rank, rows[0]]] = M[[rows[0], rank]]
        M[rank] = M[rank] * pow(int(M[rank, col]), -1, p) % p
        below = rank + 1 + np.flatnonzero(M[rank + 1 :, col])
        M[below] = (M[below] - M[below, col][:, None] * M[rank]) % p
        rank += 1
    return rank


KERNEL_CASES = {
    "s3-preset": lambda: braiding_for(3, chi_sgn_sgn),
    "s4-preset": lambda: braiding_for(4, chi_eps_sgn),
    "b3-000-(1 2)": lambda: class_braiding(3, "000;(1 2)"),
    "b3-100-(1 2 3)": lambda: class_braiding(3, "100;(1 2 3)"),
    "fraction-cover": fraction_braiding,
    "b4-0000-(1 2 3)": lambda: class_braiding(4, "0000;(1 2 3)"),
}


@pytest.mark.parametrize("case", list(KERNEL_CASES))
def test_degree2_kernel_matches_dense_elimination(case):
    # each orbit vector is killed by id + c, and the vectors have disjoint
    # supports, so they are independent: their count is at most D^2 minus
    # the rank over Q, which is at most D^2 minus the rank mod p.  The
    # count reaching the dense rank's bound proves it is the whole kernel.
    c = KERNEL_CASES[case]()
    kernel = degree2_kernel(c)
    assert all(in_degree2_kernel(c, vec) for vec in kernel)
    support = [pair for vec in kernel for pair in vec]
    assert len(support) == len(set(support))
    M = id_plus_c(c)
    if c.norm is None:  # Fraction scalars: exact elimination over Q
        rank = rank_cyclo_exact(M.tolist())
    else:
        rank = dense_rank_mod_p(M, DEFAULT_PRIMES[0])
    assert len(kernel) == c.D**2 - rank


def test_fraction_cover_has_fraction_relations():
    pres = fraction_cover()
    assert any(type(v) is Fraction for rel in pres.relations for v in rel.values())


@pytest.mark.parametrize("name", list(EXACT_CASES))
def test_completion_is_exact_and_does_not_depend_on_scaling(name):
    make, cap = EXACT_CASES[name]
    pres = make()
    gb = nc_groebner(pres, cap)
    assert_exact_monic(pres, gb)
    hilbert = hilbert_series(pres, cap).to_json()
    for factor in (3, Fraction(2, 3)):
        other = scaled(pres, factor)
        other_gb = nc_groebner(other, cap)
        assert_exact_monic(other, other_gb)
        assert other_gb.basis == gb.basis
        assert hilbert_series(other, cap).to_json() == hilbert


def record_completion(monkeypatch, name):
    """Complete a `REFERENCE_CASES` entry, keeping the live rule tables
    that `_overlaps` reads and a copy of each S-polynomial it yields, by
    length, taken before the polynomial is reduced."""
    make, cap = REFERENCE_CASES[name]
    seen = {"spolys": []}
    overlaps = ncalg._overlaps

    def recording(rules, d, bits):
        seen["rules"], seen["bits"] = rules, bits
        for sp in overlaps(rules, d, bits):
            seen["spolys"].append((d, dict(sp)))
            yield sp

    monkeypatch.setattr(ncalg, "_overlaps", recording)
    return nc_groebner(make(), cap), seen


def test_every_rule_is_the_tail_of_its_basis_polynomial(monkeypatch):
    # fk n = 5 interreduces 7 times on the way to cap 8, and a rule left
    # stale there still rewrites correctly, so the tables are read here
    gb, seen = record_completion(monkeypatch, "fk-5-lt")
    encode = lambda w: ncalg._encode(w, seen["bits"])
    tails = {}
    for lead, poly in gb.basis:
        tail = sorted((encode(m) - encode(lead), v) for m, v in poly.items() if m != lead)
        tails.setdefault(len(lead), {})[encode(lead)] = tail
    rules = {L: {lead: sorted(rule) for lead, rule in leads.items()} for L, leads in seen["rules"].items()}
    assert {L: leads for L, leads in rules.items() if leads} == tails


@pytest.mark.parametrize("name", ["fk-5-lt", "fraction-cover"])
def test_s_polynomials_read_off_the_rules_are_f_v_minus_u_g(monkeypatch, name):
    # the leads of length below d are final by pass d, so the finished
    # basis gives the f and g that each pass read
    gb, seen = record_completion(monkeypatch, name)
    encode = lambda w: ncalg._encode(w, seen["bits"])
    index = dict(gb.basis)
    expected = [
        (d, {encode(m): v for m, v in sp.items()})
        for d in range(1, gb.cap + 1)
        for sp in reference_overlaps(index, d)
    ]
    assert expected
    assert seen["spolys"] == expected


def test_the_completion_ends_once_no_overlap_can_reach_the_next_degree(monkeypatch):
    # FK_3's basis is complete with leads of length at most L = 3; past
    # degree 2L - 1 no overlap fits, so a cap of 10^4 makes 2L - 1 passes
    leads = nc_groebner(fk_presentation(3), 12).leading_words()
    L = max(map(len, leads))
    calls = []
    overlaps = ncalg._overlaps

    def counted(rules, d, bits):
        calls.append(d)
        assert len(calls) <= 2 * L - 1, f"pass {d} of a complete basis"
        return overlaps(rules, d, bits)

    monkeypatch.setattr(ncalg, "_overlaps", counted)
    gb = nc_groebner(fk_presentation(3), 10**4)
    assert calls == list(range(1, 2 * L))
    assert gb.leading_words() == leads
    monkeypatch.undo()
    dims = hilbert_series(fk_presentation(3), 10**4).dims
    assert dims[:6] == [1, 3, 4, 3, 1, 0] and not any(dims[5:])


def test_a_pass_over_the_overlap_cap_is_refused_before_its_normal_forms(monkeypatch):
    # FK_4 has 34 overlap ambiguities at pass 3 and 21 at pass 4; with the
    # cap at 33, pass 3 is refused before any of its S-polynomials is
    # reduced: the only normal forms are those of the degree-2 relations
    reduced = []
    normal_form = ncalg._normal_form
    monkeypatch.setattr(ncalg, "_normal_form", lambda poly, plan: reduced.append(1) or normal_form(poly, plan))
    monkeypatch.setattr(ncalg, "MAX_OVERLAPS", 33)
    pres = fk_presentation(4)
    with pytest.raises(BudgetExceeded, match="pass 3 has 34 overlap ambiguities, over the cap of 33"):
        nc_groebner(pres, 13)
    assert len(reduced) == len(pres.relations)
    monkeypatch.setattr(ncalg, "MAX_OVERLAPS", 34)
    assert sum(hilbert_series(pres, 13).dims) == 576
