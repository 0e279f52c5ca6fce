"""One-dimensional characters of centralizers over exact cyclotomic
scalars.

A character is indexed like its centralizer: value c is the scalar of
centralizer element c (the centralizers that occur here are small).
Constructors: characters from the values of the centralizer's rows or
a generator assignment.  The finiteness filter applies the necessary
conditions on the scalar q-values of a tensor-factor pair.
"""

from __future__ import annotations

from math import gcd

import numpy as np

from .conjugacy import Centralizer
from .cyclotomic import Cyclo
from .groups import SignedPermutation, encode, mul_rows, prove_from_generators, sign_rows


class Character:
    """A character of the centralizer `cent`: `values[c]` is the Cyclo
    scalar of centralizer element c, in the centralizer's text order.
    chi(1) = 1 and multiplicativity are checked on construction.  The g
    with chi(g h) = chi(g) chi(h) for every h are closed under products,
    so multiplicativity is proved on the pairs (g, h) with g a generator
    (groups.prove_from_generators, g's map being h -> g h).
    """

    def __init__(self, cent: Centralizer, values: list):
        self.cent = cent
        self.values = values
        self._check()

    def _check(self):
        V, cent = self.values, self.cent
        if V[cent.find(cent.group.identity)] != 1:
            raise ValueError("chi(identity) is not 1")
        # the few distinct values by index, each product of two of them
        # formed once: table[u, v] is the index of u v, -1 if none
        index = {}
        idx = np.array([index.setdefault(v, len(index)) for v in V])
        distinct = list(index)
        table = np.array([[index.get(u * v, -1) for v in distinct] for u in distinct])
        P, A = cent.P, cent.A

        def image(g):
            # g h for every h, as centralizer indices
            GH = cent.locate(encode(*mul_rows(P[g : g + 1], A[g : g + 1], P, A)))
            outside = np.flatnonzero(GH < 0)
            if outside.size:
                raise ValueError(
                    f"product outside the centralizer at ({cent.element(g)}, {cent.element(int(outside[0]))})"
                )
            bad = np.flatnonzero(idx[GH] != table[idx[g], idx])
            if bad.size:
                raise ValueError(f"not multiplicative at ({cent.element(g)}, {cent.element(int(bad[0]))})")
            return GH

        prove_from_generators(cent.size, image)

    def __call__(self, g: SignedPermutation) -> Cyclo:
        c = self.cent.find(g)
        if c < 0:
            raise ValueError(f"{g} is not in the centralizer")
        return self.values[c]


def char_from_function(cent: Centralizer, fn) -> Character:
    """The character with the values fn(P, A) of the centralizer's rows,
    one Cyclo for each distinct value."""
    values = np.asarray(fn(cent.P, cent.A)).tolist()
    shared = {v: Cyclo.coerce(v) for v in set(values)}
    return Character(cent, [shared[v] for v in values])


def char_rep(cent: Centralizer, assignment: dict) -> Character:
    """The character with values on a generating set, extended by closure.

    `assignment` maps group elements to scalars.  The extension is built
    by multiplying out words, a breadth-first level of centralizer
    indices at a time; any inconsistency (the same element reached with
    two different values) is an error.
    """
    gens = list(assignment)
    gen_values = [Cyclo.coerce(v) for v in assignment.values()]
    rows = cent.find_all(gens)
    for g, row in zip(gens, rows.tolist()):
        if row < 0:
            raise ValueError(f"{g} is not in the centralizer")
    ident = cent.find(cent.group.identity)
    values = {ident: Cyclo.rational(1)}
    frontier = [ident]
    while frontier:
        # x * g for x in the frontier and g in the generators, x-major
        X, G = np.repeat(frontier, len(gens)), np.tile(rows, len(frontier))
        Y = cent.locate(encode(*mul_rows(cent.P[X], cent.A[X], cent.P[G], cent.A[G])))
        nxt = []
        for x, y, v in zip(X.tolist(), Y.tolist(), gen_values * len(frontier)):
            w = values[x] * v
            if y in values:
                if values[y] != w:
                    raise ValueError(f"inconsistent assignment at {cent.element(y)}")
            else:
                values[y] = w
                nxt.append(y)
        frontier = nxt
    if len(values) != cent.order:
        raise ValueError(f"assignment generates only {len(values)} of {cent.order} elements")
    return Character(cent, [values[c] for c in range(cent.size)])


def trivial_rep(cent: Centralizer) -> Character:
    return char_from_function(cent, lambda P, A: np.ones(len(P), dtype=np.int64))


def chi_sgn_sgn(cent: Centralizer) -> Character:
    """The global sign character: g maps to sgn of its permutation part."""
    return char_from_function(cent, lambda P, A: sign_rows(P))


def chi_eps_sgn(cent: Centralizer) -> Character:
    """-1 exactly on elements whose permutation part swaps 1 and 2.

    On the centralizer of (1 2) in S_n, i.e. <(1 2)> x S_{3..n}, this is
    trivial on the second factor and the sign on the first.
    """
    return char_from_function(cent, lambda P, A: np.where(P[:, 0] == 1, -1, 1))


# -- finiteness necessary conditions --------------------------------------


def finiteness_filter(
    x: SignedPermutation, y: SignedPermutation, q1, q2
) -> dict:
    """Necessary conditions on the q-values of a tensor pair chi1 (x) chi2
    over the class of x # y (x, y orthogonal).  Returns a verdict:
    "violates" means infinite dimension is forced, with the list of rules
    that fired; "consistent" means no rule fired.
    """
    if not x.is_orthogonal_to(y):
        raise ValueError("factors must be orthogonal")
    q1, q2 = Cyclo.coerce(q1), Cyclo.coerce(q2)
    ox, oy = x.order(), y.order()
    fired = []
    if ox % q1.multiplicative_order() or oy % q2.multiplicative_order():
        fired.append("scalar-order divides element order")
    if q1 * q2 != -1:
        fired.append("q-product must be -1")
    # low-order factor forces the other scalar (both orientations)
    if oy <= 2 and q1.multiplicative_order() != 1 and not (q2 == 1 and q1 == -1):
        fired.append("order<=2 second factor forces (q1,q2)=(-1,1)")
    if ox <= 2 and q2.multiplicative_order() != 1 and not (q1 == 1 and q2 == -1):
        fired.append("order<=2 first factor forces (q1,q2)=(1,-1)")
    if gcd(ox, oy) == 1 and oy % 2 == 1 and not (q2 == 1 and q1 == -1):
        fired.append("coprime orders with odd second factor force (q1,q2)=(-1,1)")
    if gcd(ox, oy) == 1 and ox % 2 == 1 and not (q1 == 1 and q2 == -1):
        fired.append("coprime orders with odd first factor force (q1,q2)=(1,-1)")
    # known classification of the positive (2,2) class: q = -1 already
    # gives an infinite-dimensional Nichols algebra on that factor alone,
    # so a finite-dimensional restriction (q2 = 1 path) is impossible
    if q2 == 1 and q1 == -1 and not any(x.sign) and x.perm.cycle_type() == (2, 2):
        fired.append("positive (2,2) factor with q=-1 is classified infinite")
    if q1 == 1 and q2 == -1 and not any(y.sign) and y.perm.cycle_type() == (2, 2):
        fired.append("positive (2,2) factor with q=-1 is classified infinite")
    return {
        "verdict": "violates" if fired else "consistent",
        "rules": fired,
        "q1": repr(q1),
        "q2": repr(q2),
    }


def tensor_case_admitted(x: SignedPermutation, y: SignedPermutation) -> list:
    """Enumerate the four (q1, q2) sign options for a tensor pair and
    return those the filter admits, as (int, int) pairs."""
    out = []
    for q1 in (1, -1):
        for q2 in (1, -1):
            if finiteness_filter(x, y, q1, q2)["verdict"] == "consistent":
                out.append((q1, q2))
    return out
