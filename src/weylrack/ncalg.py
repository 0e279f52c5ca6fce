"""Quadratic algebra presentations, truncated noncommutative Groebner
bases, and Hilbert series by normal-word counting.

Monomials are tuples of generator indices ordered by degree-lexicographic
comparison.  Coefficients are exact: an int whenever the denominator is
1, a Fraction only otherwise, so integer relations complete in int
arithmetic.  The relations are homogeneous, so completion runs degree by
degree up to a cap: pass d resolves the degree-d relations and the overlap
ambiguities of length d among the leading words found so far, each once,
and keeps the basis reduced.  The truncated basis makes the normal-word
counts correct through the cap.  The completion codes a word of length L
over G generators as an int of L letters of ceil(log2 G) bits, the first
most significant: words of one length compare as their codes, subwords
are read by shift and mask, and tuples return only in the basis.  Each
basis element is also compiled to a rewrite rule, its tail as (word -
lead, coefficient) pairs: a rewrite of the lead ending `shift` bits from
the right of m adds each term at m + (delta << shift), and the
S-polynomial of the overlap w = lf v = u lg, where the leads cancel, is
tail(f) v - u tail(g), read off the two rules at w.
"""

from __future__ import annotations

import heapq
import itertools
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction

from .groups import BudgetExceeded

# overlap ambiguities one pass may resolve: FK_5 peaks at 302 (pass 8),
# FK_6 has 3141 at pass 8 (0.6 s to cap 8) and 7337 at pass 9
MAX_OVERLAPS = 5000


def _deglex_key(mono: tuple) -> tuple:
    return (len(mono), mono)


@dataclass
class NCPresentation:
    """Generators (as printable labels) and homogeneous relations of
    degree at most 2, with rational coefficients."""

    generators: list
    relations: list = field(default_factory=list, init=False)

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


def _encode(word: tuple, bits: int) -> int:
    return sum(letter << bits * i for i, letter in enumerate(reversed(word)))


def _decode(code: int, length: int, bits: int) -> tuple:
    mask = (1 << bits) - 1
    return tuple(code >> bits * i & mask for i in range(length - 1, -1, -1))


def _normal_form(poly: dict, plan: list) -> dict:
    """Fully reduce `poly` by the rules of `plan` (see `nc_groebner`);
    `poly` is used up.

    The largest monomial m is rewritten first, at the leftmost occurrence
    of a leading word, ending `shift` bits from the right: m + (delta <<
    shift) gets -v times m's coefficient for each (delta, v) of the lead's
    rule.  Each position reads its subwords of the lead lengths, shortest
    first, and stops at the first that neither is a lead nor begins one.
    Every rewrite makes smaller monomials only, so a monomial containing
    no leading word is final."""
    heap = [-m for m in poly]
    heapq.heapify(heap)
    out = {}
    while heap:
        m = -heapq.heappop(heap)
        c = poly.pop(m, None)
        if c is None:  # cancelled, or taken from an earlier entry
            continue
        for probes in plan:  # none is empty, so each binds `rule`
            for shift, mask, rules, begins in probes:
                word = m >> shift & mask
                rule = rules.get(word)
                if rule is not None or word not in begins:
                    break
            if rule is not None:
                break
        else:
            out[m] = c
            continue
        for delta, v in rule:
            key = m + (delta << shift)
            w = poly.get(key, 0) - c * v
            if not w:
                del poly[key]
            else:
                if key not in poly:
                    heapq.heappush(heap, -key)
                poly[key] = w
    return out


def _rule(lead: int, poly: dict) -> tuple:
    """The monic `poly` compiled to a rewrite rule: (word - lead, coefficient)
    for each term but the lead."""
    return tuple((m - lead, v) for m, v in poly.items() if m != lead)


def _sub_scaled(acc: dict, terms, c, left: int = 0):
    """acc[left + m] -= c * v for each term (m, v), dropping the terms
    that cancel; returns acc."""
    for m, v in terms:
        key = left + m
        w = acc.get(key, 0) - c * v
        if w:
            acc[key] = _exact(w)
        else:
            acc.pop(key, None)
    return acc


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
    the new lead, which is reduced away there.  Beside index[L], the
    monic polynomials by leading word, rules[L] holds each compiled by
    `_rule`, rebuilt whenever that interreduction changes its polynomial.
    Pass d reduces by `plan`, one list of probes per position of a
    length-d word from the left, as long as a lead fits there: one
    (shift, mask, rules[L], begins[L]) for each lead length L that fits,
    shortest first, reading the length-L subword at the position, with
    begins[L] the length-L prefixes of longer leads.
    """
    if cap < 2:
        raise ValueError("cap must be at least 2")
    bits = (len(pres.generators) - 1).bit_length()
    relations = defaultdict(list)  # by degree
    for r in pres.relations:
        relations[len(next(iter(r)))].append({_encode(m, bits): v for m, v in r.items()})
    index, rules, begins = {}, {}, {}
    for d in range(1, cap + 1):
        index[d], rules[d], begins[d] = {}, {}, set()
        lengths = [L for L in index if index[L] or L == d]
        plan = [  # `rest` letters from the position to the end
            [(bits * (rest - L), (1 << bits * L) - 1, rules[L], begins[L])
             for L in lengths if L <= rest]
            for rest in range(d, lengths[0] - 1, -1)
        ]
        for poly in itertools.chain(relations[d], _overlaps(rules, d, bits)):
            poly = _normal_form(poly, plan)
            if not poly:
                continue
            lead = max(poly)
            c = poly[lead]
            poly = {m: _quotient(v, c) for m, v in poly.items()}
            for glead, g in index[d].items():
                if lead in g:
                    _sub_scaled(g, poly.items(), g[lead])
                    rules[d][glead] = _rule(glead, g)
            index[d][lead], rules[d][lead] = poly, _rule(lead, poly)
            for L in lengths[:-1]:
                begins[L].add(lead >> bits * (d - L))
    basis = [
        (_decode(lead, L, bits), {_decode(m, L, bits): v for m, v in poly.items()})
        for L, leads in index.items()
        for lead, poly in sorted(leads.items())
    ]
    return GroebnerBasis(basis, cap, len(pres.generators))


def _overlaps(rules: dict, d: int, bits: int):
    """S-polynomials f * v - u * g of the overlap ambiguities of length d,
    read off the rules: leading words lf = u s and lg = s v with s
    non-empty and shorter than both, and w = lf v = u lg of length d, in
    deglex order of lf, then of the length of s, then of lg.  The leads
    cancel in w, leaving tail(f) v - u tail(g): a rule term (delta, x) of
    f gives the word w + (delta << bits |v|), one of g the word w + delta.
    All are found when this is called, and more than MAX_OVERLAPS raise
    BudgetExceeded before any is formed (their tails stay fixed in pass d).
    """
    by_prefix = defaultdict(list)
    for c in range(2, d):
        for lg in sorted(rules[c]):
            for k in range(1, c):
                by_prefix[c, k, lg >> bits * (c - k)].append(lg)
    found = []  # (w, shift, tail of f, tail of g)
    for a in range(2, d):
        for lf in sorted(rules[a]):
            for k in range(1, a):
                c = d - a + k
                shift = bits * (c - k)
                for lg in by_prefix.get((c, k, lf & (1 << bits * k) - 1), ()):
                    w = lf << shift | lg & (1 << shift) - 1
                    found.append((w, shift, rules[a][lf], rules[c][lg]))
    if len(found) > MAX_OVERLAPS:
        raise BudgetExceeded(
            f"Groebner pass {d} has {len(found)} overlap ambiguities, over the cap of {MAX_OVERLAPS}"
        )
    return (
        _sub_scaled({w + (delta << shift): x for delta, x in f}, g, 1, w)
        for w, shift, f, g in found
    )


@dataclass
class HilbertData:
    dims: list
    terminated: bool
    basis_size: int

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
    Aho-Corasick automaton.  Its nodes are the prefixes of the leading
    words; node s moves on letter a to s + (a,) when that is a node, else
    where its suffix link moves on a, so each move lands on the longest
    suffix that is a node, in one step.  A node is forbidden when a
    leading word ends it: it is one, or its link is forbidden.  The
    states are the other nodes; moves to a forbidden node, and on the
    generators that are degree-1 leading words, are dropped."""
    bad = set(gb.leading_words())
    alphabet = range(gb.generator_count)
    # live generators: degree-1 leading words remove generators entirely
    dead_letters = {w[0] for w in bad if len(w) == 1}
    bad = {w for w in bad if len(w) > 1}
    nodes = {()} | {w[:k] for w in bad for k in range(1, len(w) + 1)}
    order = sorted(nodes, key=_deglex_key)
    move, link, forbidden = {}, {}, set(bad)
    for s in order:  # a link is shorter than its node, so it has moved
        back = move[link[s]] if s else [()] * len(alphabet)
        move[s] = []
        for a in alphabet:
            child = s + (a,)
            if child in nodes:
                link[child] = back[a]
                if link[child] in forbidden:
                    forbidden.add(child)
                move[s].append(child)
            else:
                move[s].append(back[a])
    states = [s for s in order if s not in forbidden]
    sid = {s: i for i, s in enumerate(states)}
    moves = [
        [sid[t] for a, t in enumerate(move[s]) if a not in dead_letters and t not in forbidden]
        for s in states
    ]

    dims = [1]
    counts = [0] * len(states)
    counts[sid[()]] = 1
    for _ in range(cap):
        nxt = [0] * len(states)
        for i, c in enumerate(counts):
            if c:
                for t in moves[i]:
                    nxt[t] += c
        counts = nxt
        dims.append(sum(counts))
    terminated = any(d == 0 for d in dims[1:]) and all(
        d == 0 for d in dims[dims.index(0, 1) :]
    )
    return HilbertData(dims, terminated, len(gb.basis))
