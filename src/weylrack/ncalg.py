"""Quadratic algebra presentations, truncated noncommutative Groebner
bases, and Hilbert series by normal-word counting.

Monomials are tuples of generator indices ordered by degree-lexicographic
comparison.  Coefficients are exact: an int whenever the denominator is
1, a Fraction only otherwise, so integer relations complete in int
arithmetic.  The relations are homogeneous, so completion runs degree by
degree up to a cap: pass d resolves the degree-d relations and the overlap
ambiguities of length d among the leading words found so far, each once,
and keeps the basis reduced.  Reduction looks subwords up in a dict keyed
by leading word.  The truncated basis makes the normal-word counts correct
through the cap.
"""

from __future__ import annotations

import heapq
import itertools
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from operator import neg


def _deglex_key(mono: tuple) -> tuple:
    return (len(mono), mono)


def _leading(poly: dict) -> tuple:
    return max(poly, key=_deglex_key)


@dataclass
class NCPresentation:
    """Generators (as printable labels) and homogeneous relations of
    degree at most 2, with rational coefficients."""

    generators: list
    relations: list = field(default_factory=list)

    def add_relation(self, poly: dict):
        poly = {tuple(m): _exact(Fraction(v)) for m, v in poly.items() if v}
        if not poly:
            return
        degs = {len(m) for m in poly}
        if len(degs) != 1 or max(degs) > 2:
            raise ValueError("relations must be homogeneous of degree <= 2")
        self.relations.append(poly)


def _pair_index(n: int):
    """Generator bookkeeping for the ordered-pair form: all (i,j), i != j,
    1-based, lex order."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    return pairs, {p: k for k, p in enumerate(pairs)}


def fk_presentation(n: int, form: str = "lt") -> NCPresentation:
    """The quadratic algebra on transposition generators.

    form "lt": generators x_ij for i<j with
        x_ij^2 = 0;
        x_ij x_jk = x_jk x_ik + x_ik x_ij and
        x_jk x_ij = x_ik x_jk + x_ij x_ik  (i<j<k);
        x_ij x_kl = x_kl x_ij  (disjoint pairs).
    form "all": generators x_ij for i != j with x_ij = -x_ji and the
        cyclic three-term and disjoint-commutation relations; eliminating
        x_ji via the degree-1 relations recovers the "lt" form.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if form == "lt":
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        idx = {p: k for k, p in enumerate(pairs)}
        pres = NCPresentation([f"x{i}{j}" for i, j in pairs])
        for p in pairs:
            pres.add_relation({(idx[p], idx[p]): 1})
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                for k in range(j + 1, n + 1):
                    ij, jk, ik = idx[(i, j)], idx[(j, k)], idx[(i, k)]
                    pres.add_relation({(ij, jk): 1, (jk, ik): -1, (ik, ij): -1})
                    pres.add_relation({(jk, ij): 1, (ik, jk): -1, (ij, ik): -1})
        for a in range(len(pairs)):
            for b in range(a + 1, len(pairs)):
                if not set(pairs[a]) & set(pairs[b]):
                    pres.add_relation({(a, b): 1, (b, a): -1})
        return pres
    if form == "all":
        return a_algebra_presentation(
            n,
            alpha=lambda i, j, k: 1,
            beta=lambda i, j, k: 1,
            gamma=lambda i, j: -1,
            lam=lambda i, j, k, l: 1,
        )
    raise ValueError(f"unknown form {form!r}")


def a_algebra_presentation(n: int, alpha, beta, gamma, lam) -> NCPresentation:
    """The sign-twisted family on ordered-pair generators x_ij (i != j):

        x_ij^2 = 0,  x_ij = gamma(i,j) x_ji;
        x_ij x_jk + alpha(i,j,k) x_jk x_ki + beta(i,j,k) x_ki x_ij = 0;
        x_ij x_kl = lam(i,j,k,l) x_kl x_ij  (all indices distinct).

    Sign tables are callables returning +-1; anything else is rejected.
    """
    pairs, idx = _pair_index(n)
    pres = NCPresentation([f"x{i}{j}" for i, j in pairs])

    def sign(v):
        if v not in (1, -1):
            raise ValueError(f"sign table produced {v!r}")
        return v

    for i, j in pairs:
        pres.add_relation({(idx[(i, j)], idx[(i, j)]): 1})
        if i < j:
            pres.add_relation(
                {(idx[(j, i)],): 1, (idx[(i, j)],): -Fraction(sign(gamma(j, i)))}
            )
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                if len({i, j, k}) != 3:
                    continue
                pres.add_relation(
                    {
                        (idx[(i, j)], idx[(j, k)]): 1,
                        (idx[(j, k)], idx[(k, i)]): sign(alpha(i, j, k)),
                        (idx[(k, i)], idx[(i, j)]): sign(beta(i, j, k)),
                    }
                )
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                for l in range(1, n + 1):
                    if len({i, j, k, l}) != 4:
                        continue
                    pres.add_relation(
                        {
                            (idx[(i, j)], idx[(k, l)]): 1,
                            (idx[(k, l)], idx[(i, j)]): -Fraction(sign(lam(i, j, k, l))),
                        }
                    )
    return pres


def quadratic_cover_presentation(braiding) -> NCPresentation:
    """The quadratic algebra T(V)/(ker(id + c)): its Hilbert dimensions
    dominate the Nichols graded dimensions degreewise."""
    from .nichols import degree2_kernel

    pres = NCPresentation([f"v{i}" for i in range(braiding.D)])
    for vec in degree2_kernel(braiding):
        poly = {}
        for flat, coeff in enumerate(vec):
            if coeff:
                poly[(flat // braiding.D, flat % braiding.D)] = coeff
        pres.add_relation(poly)
    return pres


# -- Groebner machinery ----------------------------------------------------


def _exact(q):
    """An int or Fraction q as an int when its denominator is 1."""
    return q.numerator if q.denominator == 1 else q


def _quotient(v, c):
    """v / c exactly: v // c when c divides the int v, else a Fraction
    (an int again when the quotient is integral)."""
    if type(v) is int and type(c) is int and not v % c:
        return v // c
    return _exact(Fraction(v) / c)


def _normal_form(poly: dict, index: dict) -> dict:
    """Fully reduce `poly` by `index` = {leading word: monic poly}.

    The largest monomial is rewritten first, at the leftmost occurrence of
    a leading word; only the word lengths present in the index are looked
    up.  Every rewrite makes smaller monomials only, so a monomial
    containing no leading word is final."""
    lengths = sorted({len(w) for w in index})
    poly = dict(poly)
    heap = [(_heap_key(m), m) for m in poly]
    heapq.heapify(heap)
    out = {}
    while heap:
        m = heapq.heappop(heap)[1]
        c = poly.pop(m, None)
        if c is None:  # cancelled, or taken from an earlier entry
            continue
        n = len(m)
        hit = None
        for pos in range(n):
            for L in lengths:
                if pos + L > n:
                    break
                if m[pos : pos + L] in index:
                    hit = (m[:pos], m[pos : pos + L], m[pos + L :])
                    break
            if hit:
                break
        if hit is None:
            out[m] = c
            continue
        left, lead, right = hit
        for mm, v in index[lead].items():
            if mm == lead:
                continue
            key = left + mm + right
            w = poly.get(key, 0) - c * v
            if not w:
                del poly[key]
            else:
                if key not in poly:
                    heapq.heappush(heap, (_heap_key(key), key))
                poly[key] = w
    return out


def _heap_key(mono: tuple) -> tuple:
    # heapq pops the least key first: deglex-largest monomial first
    return (-len(mono), tuple(map(neg, mono)))


def _sub_scaled(acc: dict, poly: dict, c, left: tuple = (), right: tuple = ()):
    """acc -= c * left * poly * right, dropping the terms that cancel."""
    for m, v in poly.items():
        key = left + m + right
        w = acc.get(key, 0) - c * v
        if w:
            acc[key] = _exact(w)
        else:
            acc.pop(key, None)


@dataclass
class GroebnerBasis:
    basis: list  # list of (leading word, poly) with monic polys
    cap: int
    generator_count: int

    def leading_words(self) -> list:
        return [lead for lead, _ in self.basis]


def nc_groebner(pres: NCPresentation, cap: int) -> GroebnerBasis:
    """Truncated reduced two-sided Groebner basis: complete for all
    ambiguities whose words have degree <= cap.  Deterministic; the basis
    is sorted by deglex leading word.

    The relations are homogeneous, so the completion runs one degree at a
    time.  Pass d reduces the degree-d relations and each overlap
    ambiguity of length d among the current leading words (all shorter
    than d), each formed once, and adds every non-zero remainder as a
    monic polynomial.  A remainder is in normal form, so its lead contains
    no earlier lead and is not inside one: inclusion ambiguities never
    arise, and only the tails of the other degree-d members can contain
    the new lead, which is reduced away there.
    """
    if cap < 2:
        raise ValueError("cap must be at least 2")
    index = {}
    for d in range(1, cap + 1):
        inputs = [r for r in pres.relations if len(next(iter(r))) == d]
        same_degree = []
        for poly in itertools.chain(inputs, _overlaps(index, d)):
            poly = _normal_form(poly, index)
            if not poly:
                continue
            lead = _leading(poly)
            c = poly[lead]
            poly = {m: _quotient(v, c) for m, v in poly.items()}
            for other in same_degree:
                g = index[other]
                if lead in g:
                    _sub_scaled(g, poly, g[lead])
            index[lead] = poly
            same_degree.append(lead)
    basis = sorted(index.items(), key=lambda item: _deglex_key(item[0]))
    return GroebnerBasis(basis, cap, len(pres.generators))


def _overlaps(index: dict, d: int):
    """S-polynomials f * v - u * g of the overlap ambiguities of length d:
    leading words lf = u s and lg = s v with s non-empty and shorter than
    both, and lf v = u lg of length d."""
    leads = sorted(index, key=_deglex_key)
    by_prefix = defaultdict(list)
    for lg in leads:
        for k in range(1, len(lg)):
            by_prefix[lg[:k]].append(lg)
    for lf in leads:
        for k in range(1, len(lf)):
            for lg in by_prefix.get(lf[len(lf) - k :], ()):
                if len(lf) + len(lg) - k != d:
                    continue
                u, v = lf[: len(lf) - k], lg[k:]
                sp = {m + v: c for m, c in index[lf].items()}
                _sub_scaled(sp, index[lg], 1, u)
                yield sp


@dataclass
class HilbertData:
    dims: list
    terminated: bool
    basis_size: int

    def total(self) -> int:
        return sum(self.dims)

    def to_json(self) -> dict:
        return {
            "dims": self.dims,
            "terminated": self.terminated,
            "basis_size": self.basis_size,
        }


def hilbert_series(pres: NCPresentation, cap: int) -> HilbertData:
    gb = nc_groebner(pres, cap)
    return hilbert_from_basis(gb, cap)


def hilbert_from_basis(gb: GroebnerBasis, cap: int) -> HilbertData:
    """Count words avoiding the leading words, degree by degree, with an
    Aho-Corasick style suffix automaton."""
    bad = set(gb.leading_words())
    alphabet = range(gb.generator_count)
    # live generators: degree-1 leading words remove generators entirely
    dead_letters = {w[0] for w in bad if len(w) == 1}
    bad = {w for w in bad if len(w) > 1}
    lengths = sorted({len(w) for w in bad})
    prefixes = {()}
    for w in bad:
        for k in range(1, len(w)):
            prefixes.add(w[:k])

    def longest_suffix_state(word: tuple):
        for k in range(len(word)):
            if word[k:] in prefixes:
                return word[k:]
        return ()

    states = sorted(prefixes, key=_deglex_key)
    sid = {s: i for i, s in enumerate(states)}
    trans = []
    for s in states:
        row = []
        for a in alphabet:
            if a in dead_letters:
                row.append(None)
                continue
            cand = s + (a,)
            if any(cand[-L:] in bad for L in lengths if L <= len(cand)):
                row.append(None)
            else:
                row.append(sid[longest_suffix_state(cand)])
        trans.append(row)

    dims = [1]
    counts = [0] * len(states)
    counts[sid[()]] = 1
    for _ in range(cap):
        nxt = [0] * len(states)
        for i, c in enumerate(counts):
            if not c:
                continue
            for a in alphabet:
                t = trans[i][a]
                if t is not None:
                    nxt[t] += c
        counts = nxt
        dims.append(sum(counts))
    terminated = any(d == 0 for d in dims[1:]) and all(
        d == 0 for d in dims[dims.index(0, 1) :]
    )
    return HilbertData(dims, terminated, len(gb.basis))
