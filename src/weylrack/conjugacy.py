"""Conjugacy classes, centralizers and coset systems in B_n and S_n.

A class is held as the arrays P, A and keys of groups.to_arrays and
groups.encode; SignedPermutation objects are built on demand.  The class
element ordering is deterministic: the canonical text-format order
(groups.text_order), with the defining representative moved to the front
as t_1.  Coset representatives g_i are the text-format-least conjugators,
except for the transposition preset which reproduces the explicit g_{kj}
table for the class of (1 2) in S_n.
"""

from __future__ import annotations

import copy
from collections import Counter
from collections.abc import Sequence
from math import comb, factorial, prod

import numpy as np

from .groups import (
    MAX_KEY_DEGREE,
    BudgetExceeded,
    GroupContext,
    Permutation,
    SignedPermutation,
    Sn,
    conjugate_rows,
    encode,
    from_arrays,
    juxtapose_rows,
    nu_left,
    nu_right,
    text_order,
    to_arrays,
)


# The largest class enumerated: the 8-cycle classes of B_8 have
# 2^8 8! / 16 = 645120 elements.  Larger classes are refused before any
# allocation.
MAX_CLASS_SIZE = 645120


def class_size(group: GroupContext, rep: SignedPermutation) -> int:
    """|class of rep| from its (signed) cycle type: in B_n,
    2^n n! / prod_(l,p) m_(l,p)! (2l)^m_(l,p); in S_n, n! / prod_l m_l! l^m_l."""
    if group.signed:
        counts = Counter(rep.signed_cycle_type())
        denom = prod(factorial(m) * (2 * l) ** m for (l, _), m in counts.items())
    else:
        counts = Counter(rep.perm.cycle_type())
        denom = prod(factorial(m) * l**m for l, m in counts.items())
    return group.order // denom


class ClassElements(Sequence):
    """The elements of a class in its numbering, as SignedPermutations.

    A view: its length is the class size, and item i is built from row i
    of the class arrays until the first iteration, slice or comparison
    builds every element once for the class to keep."""

    __slots__ = ("_cls",)

    def __init__(self, cls: "ConjugacyClass"):
        self._cls = cls

    def __len__(self) -> int:
        return self._cls.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self._cls._objects()[i]
        return self._cls.element(i)

    def __iter__(self):
        return iter(self._cls._objects())

    def __eq__(self, other) -> bool:
        if isinstance(other, ClassElements):
            other = other._cls._objects()
        if isinstance(other, list):
            return self._cls._objects() == other
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"ClassElements({self._cls!r})"


class ConjugacyClass:
    """The conjugacy class of `rep` in `group`, with a fixed numeration.

    t_1 = rep; the remaining elements are in canonical text-format order
    (groups.text_order).  The class is held as arrays: row i of `P`, `A`
    and `keys` is t_{i+1} (see groups.to_arrays and groups.encode).
    `elements` and `index` build SignedPermutations on first use;
    `element(i)` and `find(x)` reach one of them without that.
    `conjugator[t]` is the BFS word taking rep to t (some g with g |> rep = t).
    """

    def __init__(self, group: GroupContext, rep: SignedPermutation):
        if rep not in group:
            raise ValueError(f"{rep} is not in {group}")
        size = class_size(group, rep)
        if size > MAX_CLASS_SIZE:
            raise BudgetExceeded(
                f"class of {rep} has {size} elements, over the enumeration cap "
                f"of {MAX_CLASS_SIZE}"
            )
        if group.n > MAX_KEY_DEGREE:
            raise BudgetExceeded(
                f"{group} has degree {group.n}, over the key range of degree "
                f"{MAX_KEY_DEGREE}"
            )
        self.group = group
        self.rep = rep
        self.size = size
        self._gens = _generators(group)
        P, A, self._parent, self._gen = _orbit(self._gens, rep)
        if len(P) != size:
            raise AssertionError(f"orbit has {len(P)} elements, expected {size}")
        order = np.concatenate([[0], 1 + text_order(P[1:], A[1:])])
        # the row of each element in discovery order, which the
        # conjugator words follow
        self._row_of = np.argsort(order)
        self._set_rows(P[order], A[order])
        self.class_key = rep.signed_cycle_type()
        self._conjugator = None
        self._centralizer = None

    def _set_rows(self, P: np.ndarray, A: np.ndarray):
        self.P, self.A = P, A
        self.keys = encode(P, A)
        self._key_order = np.argsort(self.keys)
        self._sorted_keys = self.keys[self._key_order]
        self._elements = None
        self._index = None
        self._view = ClassElements(self)

    def reorder(self, elements: list) -> "ConjugacyClass":
        """A copy of the class numbered as `elements` (a permutation of
        it), with arrays and index to match.  This class keeps its
        numbering, and so do the racks built on it."""
        rows = [self.find(t) for t in elements]
        if sorted(rows) != list(range(self.size)):
            raise ValueError("not a renumbering of the class")
        renumbered = copy.copy(self)
        renumbered._row_of = np.argsort(rows)[self._row_of]
        renumbered._set_rows(self.P[rows], self.A[rows])
        return renumbered

    def locate(self, keys: np.ndarray) -> np.ndarray:
        """The element index of each key, -1 for keys outside the class."""
        pos = np.minimum(np.searchsorted(self._sorted_keys, keys), self.size - 1)
        return np.where(self._sorted_keys[pos] == keys, self._key_order[pos], -1)

    @property
    def elements(self) -> ClassElements:
        return self._view

    def _objects(self) -> list:
        """Every element as a SignedPermutation, built once."""
        if self._elements is None:
            self._elements = from_arrays(self.P, self.A)
        return self._elements

    def element(self, i: int) -> SignedPermutation:
        """t_{i+1}, without building the other elements."""
        if self._elements is not None:
            return self._elements[i]
        return SignedPermutation(self.A[i].tolist(), Permutation(self.P[i].tolist()))

    @property
    def index(self) -> dict:
        """{t: i}, built on first use."""
        if self._index is None:
            self._index = {t: i for i, t in enumerate(self._objects())}
        return self._index

    def find(self, x) -> int:
        """The index of x, -1 if x is not in the class: looked up in
        `index` once the elements are built, by its key before."""
        if self._elements is not None:
            return self.index.get(x, -1)
        if not isinstance(x, SignedPermutation) or x.n != self.group.n:
            return -1
        return int(self.locate(encode(*to_arrays([x], x.n)))[0])

    @property
    def conjugator(self) -> dict:
        """{t: g} with g |> rep = t, in discovery order; built on first use
        from the BFS records: t's word is (its generator) * (its parent's)."""
        if self._conjugator is None:
            words = [self.group.identity]
            for parent, gen in zip(self._parent[1:].tolist(), self._gen[1:].tolist()):
                words.append(self._gens[gen] * words[parent])
            elements = self._objects()
            self._conjugator = {
                elements[row]: g for row, g in zip(self._row_of.tolist(), words)
            }
        return self._conjugator

    def __len__(self) -> int:
        return self.size

    def __iter__(self):
        return iter(self._objects())

    def __contains__(self, x) -> bool:
        return self.find(x) >= 0

    def centralizer(self) -> "Centralizer":
        """G^rep, built on first use and shared by every later caller."""
        if self._centralizer is None:
            self._centralizer = Centralizer(self)
        return self._centralizer

    def coset_system(self) -> "CosetSystem":
        return CosetSystem(self)

    def __repr__(self) -> str:
        return f"ConjugacyClass({self.group!r}, {self.rep.format()!r}, size={self.size})"


def _generators(group: GroupContext) -> list:
    """The group generators and their inverses, without repeats."""
    gens = group.generators()
    return list(dict.fromkeys(gens + [g.inverse() for g in gens]))


def _orbit(gens: list, rep: SignedPermutation) -> tuple:
    """Breadth-first orbit of rep under conjugation by `gens`, one whole
    frontier per round.  Returns (P, A, parent, gen) in discovery order:
    frontier-major, generator-minor, first occurrence wins, as a BFS that
    conjugates one element at a time would find them.  Element i > 0 is
    gens[gen[i]] |> element parent[i]."""
    n = rep.n
    gP, gA = to_arrays(gens, n)
    fP, fA = to_arrays([rep], n)
    seen = encode(fP, fA)  # sorted keys of everything found so far
    Ps, As, parents, gen_ids = [fP], [fA], [np.array([-1])], [np.array([-1])]
    start = 0  # discovery index of the frontier's first element
    while len(fP) and gens:
        images = [conjugate_rows(tau, a, fP, fA) for tau, a in zip(gP, gA)]
        # candidate c = f * len(gens) + j is gens[j] |> frontier[f]
        CP = np.stack([p for p, _ in images], axis=1).reshape(-1, n)
        CA = np.stack([s for _, s in images], axis=1).reshape(-1, n)
        keys = encode(CP, CA)
        pos = np.minimum(np.searchsorted(seen, keys), len(seen) - 1)
        fresh = np.flatnonzero(seen[pos] != keys)
        _, first = np.unique(keys[fresh], return_index=True)
        new = fresh[np.sort(first)]
        parents.append(start + new // len(gens))
        gen_ids.append(new % len(gens))
        start += len(fP)
        fP, fA = CP[new], CA[new]
        Ps.append(fP)
        As.append(fA)
        seen = np.sort(np.concatenate([seen, keys[new]]))
    return (
        np.concatenate(Ps),
        np.concatenate(As),
        np.concatenate(parents),
        np.concatenate(gen_ids),
    )


class Centralizer:
    """G^s = {g in G : gs = sg}, enumerated from Schreier generators."""

    def __init__(self, cls: ConjugacyClass):
        self.cls = cls
        self.base = cls.rep
        self.group = cls.group
        expect = self.group.order // cls.size
        self.generators = []
        element_set = {self.group.identity}
        # Consume Schreier generators until the closure reaches the size
        # forced by |O_s| * |G^s| = |G|.
        for schreier in _schreier_generators(cls):
            if len(element_set) == expect:
                break
            if schreier in element_set:
                continue
            self.generators.append(schreier)
            # the closed set is a group H not containing schreier, so the
            # coset schreier * H is all new; close it under the generators
            frontier = [schreier * x for x in element_set]
            element_set.update(frontier)
            while frontier:
                new_frontier = []
                for x in frontier:
                    for g in self.generators:
                        y = g * x
                        if y not in element_set:
                            element_set.add(y)
                            new_frontier.append(y)
                frontier = new_frontier
        if len(element_set) != expect:
            raise AssertionError(
                f"centralizer closure has {len(element_set)} elements, "
                f"expected {expect}"
            )
        elements = list(element_set)
        order = text_order(*to_arrays(elements, self.group.n))
        self.elements = [elements[i] for i in order.tolist()]
        self.element_set = element_set

    @property
    def order(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, x) -> bool:
        return x in self.element_set


def _schreier_generators(cls: ConjugacyClass):
    """Yield Schreier generators of the stabilizer of rep, lazily."""
    for t, g_t in cls.conjugator.items():
        for a in cls._gens:
            u = a.conjugate(t)
            schreier = cls.conjugator[u].inverse() * a * g_t
            if not schreier.is_identity():
                yield schreier


def centralizer(group: GroupContext, s: SignedPermutation) -> Centralizer:
    return ConjugacyClass(group, s).centralizer()


class CosetSystem:
    """Representatives g_i with g_i |> s = t_i and g_1 = id.

    The g_i form a left transversal of G^s in G.  Default choice: the
    text-format-least element of each coset g C; `transposition_preset`
    builds the explicit table for the class of (1 2) in S_n instead.
    """

    def __init__(self, cls: ConjugacyClass, reps: list | None = None):
        self.cls = cls
        self.centralizer = cls.centralizer()
        if reps is None:
            reps = _least_coset_reps(cls, self.centralizer.elements)
        self.reps = reps
        self._check()

    def _check(self):
        if len(self.reps) != self.cls.size:
            raise ValueError("one representative per class element required")
        if not self.reps[0].is_identity():
            raise ValueError("g_1 must be the identity")
        for g, t in zip(self.reps, self.cls.elements):
            if g.conjugate(self.cls.rep) != t:
                raise ValueError(f"g = {g} does not conjugate s to {t}")

    @property
    def size(self) -> int:
        return len(self.reps)

    def __getitem__(self, i: int) -> SignedPermutation:
        return self.reps[i]

    def zeta(self, i: int, h: SignedPermutation) -> tuple:
        """Solve h g_i = g_j gamma with gamma in G^s; returns (j, gamma)."""
        t_j = h.conjugate(self.cls.elements[i])
        j = self.cls.index[t_j]
        gamma = self.reps[j].inverse() * h * self.reps[i]
        return j, gamma


# products g_0 c ordered per text_order call in _least_coset_reps
BLOCK_PRODUCTS = 1 << 14


def _least_coset_reps(cls: ConjugacyClass, cent: list) -> list:
    """For each t in cls, the text-format-least element of the coset
    g_0 C, where g_0 = conjugator[t] and C is the centralizer; a block
    of whole cosets is ordered at a time."""
    reps = []
    step = max(1, BLOCK_PRODUCTS // len(cent))
    for start in range(0, cls.size, step):
        products = [
            cls.conjugator[t] * c for t in cls.elements[start : start + step] for c in cent
        ]
        rank = np.empty(len(products), dtype=np.intp)
        rank[text_order(*to_arrays(products, cls.group.n))] = np.arange(len(products))
        least = rank.reshape(-1, len(cent)).argmin(axis=1)
        reps += [products[k * len(cent) + j] for k, j in enumerate(least.tolist())]
    return reps


def transposition_preset(n: int) -> CosetSystem:
    """The class of (1 2) in S_n with the explicit coset table

        g_{kj} = id         (k,j) = (1,2)
                 (2 j)      k = 1, j > 2
                 (1 j)      k = 2, j > 2
                 (1 k)(2 j) 2 < k < j

    ordered so that t_i runs over the transpositions (k j), k < j, in
    lexicographic order of (k, j).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    sigma = SignedPermutation.from_perm(Permutation.from_cycles(n, [(1, 2)]))

    pairs = [(k, j) for k in range(1, n + 1) for j in range(k + 1, n + 1)]
    order = []
    reps = []
    for k, j in pairs:
        order.append(SignedPermutation.from_perm(Permutation.from_cycles(n, [(k, j)])))
        if (k, j) == (1, 2):
            g = Permutation.identity(n)
        elif k == 1:
            g = Permutation.from_cycles(n, [(2, j)])
        elif k == 2:
            g = Permutation.from_cycles(n, [(1, j)])
        else:
            g = Permutation.from_cycles(n, [(1, k), (2, j)])
        reps.append(SignedPermutation.from_perm(g))

    cls = ConjugacyClass(Sn(n), sigma).reorder(order)
    return CosetSystem(cls, reps=reps)


# -- juxtaposition factorizations (orthogonal case) -----------------------


def _require_orthogonal(x: SignedPermutation, y: SignedPermutation):
    if not x.is_orthogonal_to(y):
        raise ValueError(
            f"{x} and {y} are not orthogonal (shared sign-cycle length)"
        )


def centralizer_factorization(
    gx: GroupContext, x: SignedPermutation, gy: GroupContext, y: SignedPermutation
) -> dict:
    """B_{n+m}^{x#y} = nu->(B_n^x) . nu<-(B_m^y), certified as a bijection.

    Returns the two factors, the ambient centralizer, and the product map.
    """
    _require_orthogonal(x, y)
    n, m = x.n, y.n
    cx = centralizer(gx, x)
    cy = centralizer(gy, y)
    ambient = GroupContext(n + m, signed=gx.signed or gy.signed)
    big = centralizer(ambient, x.juxtapose(y))

    products = {}
    for u in cx:
        nu_u = nu_right(u, m)
        for v in cy:
            w = nu_u * nu_left(v, n)
            if w in products:
                raise AssertionError("product map is not injective")
            products[w] = (u, v)
    if set(products) != big.element_set:
        raise AssertionError("product map is not onto the centralizer")
    return {
        "left_factor": cx,
        "right_factor": cy,
        "centralizer": big,
        "product_map": products,
    }


def class_juxtaposition(
    gx: GroupContext, x: SignedPermutation, gy: GroupContext, y: SignedPermutation
) -> ConjugacyClass:
    """The juxtaposed class O_{x#y}, certified against O_x # O_y.

    O_x # O_y is the orbit of x#y under the embedded subgroup B_n x B_m
    and is a subrack of O_{x#y}; the ambient class additionally moves the
    block supports, so its size carries the binomial placement factor:
    |O_{x#y}| = C(n+m, n) |O_x| |O_y|.  Both facts are checked.
    """
    _require_orthogonal(x, y)
    ambient = GroupContext(x.n + y.n, signed=gx.signed or gy.signed)
    cls_x = ConjugacyClass(gx, x)
    cls_y = ConjugacyClass(gy, y)
    big = ConjugacyClass(ambient, x.juxtapose(y))
    if big.size != comb(x.n + y.n, x.n) * cls_x.size * cls_y.size:
        raise AssertionError("class size mismatch against the placement count")
    # every u # v, u-major, found in the big class by key
    P, A = juxtapose_rows(
        np.repeat(cls_x.P, cls_y.size, axis=0),
        np.repeat(cls_x.A, cls_y.size, axis=0),
        np.tile(cls_y.P, (cls_x.size, 1)),
        np.tile(cls_y.A, (cls_x.size, 1)),
    )
    escaped = np.flatnonzero(big.locate(encode(P, A)) < 0)
    if escaped.size:
        u, v = divmod(int(escaped[0]), cls_y.size)
        raise AssertionError(
            f"{cls_x.element(u)} # {cls_y.element(v)} escapes the juxtaposed class"
        )
    return big
