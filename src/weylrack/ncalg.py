"""Quadratic algebra presentations, truncated noncommutative Groebner
bases, and Hilbert series by normal-word counting.

Monomials are tuples of generator indices ordered by degree-lexicographic
comparison.  Completion is Buchberger-Mora style: overlap and inclusion
ambiguities of leading words, truncated at a degree cap, which makes the
normal-word counts correct through that cap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction


def _deglex_key(mono: tuple) -> tuple:
    return (len(mono), mono)


def _leading(poly: dict) -> tuple:
    return max(poly, key=_deglex_key)


def _scale(poly: dict, c: Fraction) -> dict:
    return {m: v * c for m, v in poly.items()}


def _add_into(acc: dict, poly: dict, c: Fraction):
    for m, v in poly.items():
        w = acc.get(m, Fraction(0)) + v * c
        if w:
            acc[m] = w
        else:
            acc.pop(m, None)


@dataclass
class NCPresentation:
    """Generators (as printable labels) and homogeneous relations of
    degree at most 2, with rational coefficients."""

    generators: list
    relations: list = field(default_factory=list)

    def add_relation(self, poly: dict):
        poly = {tuple(m): Fraction(v) for m, v in poly.items() if v}
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


def _normal_form(poly: dict, basis: list) -> dict:
    """Fully reduce: while any monomial contains a leading word as a
    subword, rewrite with the corresponding basis element."""
    poly = dict(poly)
    changed = True
    while changed:
        changed = False
        for m in sorted(poly, key=_deglex_key, reverse=True):
            if m not in poly:
                continue
            hit = None
            for lead, g in basis:
                L = len(lead)
                for pos in range(len(m) - L + 1):
                    if m[pos : pos + L] == lead:
                        hit = (g, m[:pos], m[pos + L :])
                        break
                if hit:
                    break
            if hit:
                g, left, right = hit
                c = poly.pop(m)
                # m = left * lead * right; lead = g's leading monomial
                rest = {mm: vv for mm, vv in g.items() if mm != lead}
                lead_c = g[lead]
                for mm, vv in rest.items():
                    key = left + mm + right
                    w = poly.get(key, Fraction(0)) - c * vv / lead_c
                    if w:
                        poly[key] = w
                    else:
                        poly.pop(key, None)
                changed = True
                break
    return poly


@dataclass
class GroebnerBasis:
    basis: list  # list of (leading word, poly) with monic polys
    cap: int
    generator_count: int

    def leading_words(self) -> list:
        return [lead for lead, _ in self.basis]


def nc_groebner(pres: NCPresentation, cap: int) -> GroebnerBasis:
    """Truncated two-sided Groebner basis: complete for all ambiguities
    whose overlap words have degree <= cap.  Deterministic."""
    if cap < 2:
        raise ValueError("cap must be at least 2")
    basis = []

    def insert(poly):
        poly = _normal_form(poly, basis)
        if not poly:
            return False
        lead = _leading(poly)
        poly = _scale(poly, 1 / poly[lead])
        basis.append((lead, poly))
        # keep the basis interreduced: retire members whose lead is now
        # reducible, re-adding their reductions
        i = 0
        while i < len(basis):
            ld, g = basis[i]
            others = basis[:i] + basis[i + 1 :]
            if any(
                ld[p : p + len(l2)] == l2
                for l2, _ in others
                for p in range(len(ld) - len(l2) + 1)
            ):
                basis.pop(i)
                insert(g)
                return True
            i += 1
        return True

    for rel in sorted(
        pres.relations, key=lambda r: (_deglex_key(_leading(r)), sorted(r.items()))
    ):
        insert(rel)

    done = False
    while not done:
        done = True
        snapshot = list(basis)
        for lf, f in snapshot:
            for lg, g in snapshot:
                if (lf, f) not in basis or (lg, g) not in basis:
                    continue
                for amb in _ambiguities(lf, lg, cap):
                    kind, left_f, right_f, left_g, right_g = amb
                    sp = {}
                    _add_into(sp, _pad(f, left_f, right_f), Fraction(1))
                    _add_into(sp, _pad(g, left_g, right_g), Fraction(-1))
                    if insert(sp):
                        done = False
    basis.sort(key=lambda item: _deglex_key(item[0]))
    return GroebnerBasis(basis, cap, len(pres.generators))


def _pad(poly: dict, left: tuple, right: tuple) -> dict:
    return {left + m + right: v for m, v in poly.items()}


def _ambiguities(lf: tuple, lg: tuple, cap: int):
    """Overlap and inclusion ambiguities between two leading words.

    Yields (kind, left_f, right_f, left_g, right_g) such that
    left_f * lf * right_f == left_g * lg * right_g is the ambiguity word.
    """
    # overlap: a proper suffix of lf is a proper prefix of lg
    for k in range(1, min(len(lf), len(lg))):
        if lf[len(lf) - k :] == lg[:k]:
            word_len = len(lf) + len(lg) - k
            if word_len <= cap:
                yield ("overlap", (), lg[k:], lf[: len(lf) - k], ())
    # inclusion: lg occurs inside lf (proper)
    if len(lg) < len(lf):
        for pos in range(len(lf) - len(lg) + 1):
            if lf[pos : pos + len(lg)] == lg:
                if len(lf) <= cap:
                    yield ("inclusion", (), (), lf[:pos], lf[pos + len(lg) :])


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
            if any(cand[max(0, len(cand) - len(w)) :] == w for w in bad):
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


def confluence_check(gb: GroebnerBasis, words: list) -> bool:
    """Reduce each word with two different reduction orders (leftmost
    match first vs basis reversed) and compare normal forms."""
    basis_fwd = gb.basis
    basis_rev = list(reversed(gb.basis))
    for w in words:
        a = _normal_form({tuple(w): Fraction(1)}, basis_fwd)
        b = _normal_form({tuple(w): Fraction(1)}, basis_rev)
        if a != b:
            return False
    return True
