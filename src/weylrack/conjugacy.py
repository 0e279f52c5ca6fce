"""Conjugacy classes, centralizers and coset systems in B_n and S_n.

A class, a centralizer or a coset system is held as the arrays P, A and
keys of groups.to_arrays and groups.encode; SignedPermutation objects are
built on demand.  The class
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
    inverse_rows,
    juxtapose_rows,
    mul_rows,
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
    """The elements of a class or a centralizer in its numbering, as
    SignedPermutations.

    A view: its length is the number of rows, and item i is built from
    row i of the arrays until the first iteration, slice or comparison
    builds every element once for the owner to keep."""

    __slots__ = ("_cls",)

    def __init__(self, cls: "_Rows"):
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


class _Rows:
    """Elements of `group` held as arrays: row i of `P`, `A` and `keys`
    is element i (see groups.to_arrays and groups.encode).  `elements`
    builds SignedPermutations on first iteration; `element(i)` reaches
    one of them without that, and `find`/`find_all` look elements up by
    their keys."""

    def _set_rows(self, P: np.ndarray, A: np.ndarray):
        self.P, self.A = P, A
        self.keys = encode(P, A)
        self._key_order = np.argsort(self.keys)
        self._sorted_keys = self.keys[self._key_order]
        self._elements = None
        self._view = ClassElements(self)

    def locate(self, keys: np.ndarray) -> np.ndarray:
        """The element index of each key, -1 for keys outside the rows."""
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
        """Element i, without building the others."""
        if self._elements is not None:
            return self._elements[i]
        return from_arrays(self.P[i : i + 1], self.A[i : i + 1])[0]

    def find_all(self, xs: list) -> np.ndarray:
        """The index of each element of B_n in xs, -1 for one that is not
        an element: one locate for the whole list."""
        return self.locate(encode(*to_arrays(xs, self.group.n)))

    def find(self, x) -> int:
        """The index of x, -1 if x is not an element."""
        if not isinstance(x, SignedPermutation) or x.n != self.group.n:
            return -1
        return int(self.find_all([x])[0])

    def __len__(self) -> int:
        return self.size

    def __iter__(self):
        return iter(self._objects())

    def __contains__(self, x) -> bool:
        return self.find(x) >= 0


class ConjugacyClass(_Rows):
    """The conjugacy class of `rep` in `group`, with a fixed numeration.

    t_1 = rep; the remaining elements are in canonical text-format order
    (groups.text_order).  The class is held as rows (see _Rows), and so
    are the BFS words taking rep to each element (see words()).
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
        self._words = None
        self._centralizer = None

    def reorder(self, elements: list) -> "ConjugacyClass":
        """A copy of the class numbered as `elements` (a permutation of
        it), with arrays and keys to match.  This class keeps its
        numbering, and so do the racks built on it."""
        rows = self.find_all(elements)
        if not np.array_equal(np.sort(rows), np.arange(self.size)):
            raise ValueError("not a renumbering of the class")
        renumbered = copy.copy(self)
        renumbered._row_of = np.argsort(rows)[self._row_of]
        renumbered._set_rows(self.P[rows], self.A[rows])
        return renumbered

    def words(self) -> tuple:
        """(P, A) of the conjugator words in discovery order, built on
        first use a BFS level at a time: row i > 0 is
        gens[gen[i]] * (row parent[i]), and row i conjugates rep to the
        class element in row _row_of[i]."""
        if self._words is None:
            n = self.group.n
            gP, gA = to_arrays(self._gens, n)
            WP = np.empty((self.size, n), dtype=np.int8)
            WA = np.zeros((self.size, n), dtype=np.int8)
            WP[0] = np.arange(n)
            done = 1
            while done < self.size:
                # parents never decrease, so the rows up to the first
                # one whose parent is not built yet can all be built
                stop = int(np.searchsorted(self._parent, done))
                parent, gen = self._parent[done:stop], self._gen[done:stop]
                WP[done:stop], WA[done:stop] = mul_rows(
                    gP[gen], gA[gen], WP[parent], WA[parent]
                )
                done = stop
            self._words = WP, WA
        return self._words

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
        CP, CA = _conjugates(gP, gA, fP, fA)
        keys = encode(CP, CA)
        fresh = np.flatnonzero(~_member(seen, keys))
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


def _conjugates(gP: np.ndarray, gA: np.ndarray, P: np.ndarray, A: np.ndarray) -> tuple:
    """(P, A) of every generator row conjugating every row of (P, A):
    row f * len(gP) + j is generator j |> row f."""
    images = [conjugate_rows(tau, a, P, A) for tau, a in zip(gP, gA)]
    n = P.shape[1]
    return (
        np.stack([p for p, _ in images], axis=1).reshape(-1, n),
        np.stack([s for _, s in images], axis=1).reshape(-1, n),
    )


def _member(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Which of `keys` occur in the non-empty sorted array `sorted_keys`."""
    pos = np.minimum(np.searchsorted(sorted_keys, keys), len(sorted_keys) - 1)
    return sorted_keys[pos] == keys


# rows per block of Schreier generators, and of products g_0 c per
# text_order call in _least_coset_reps
BLOCK_PRODUCTS = 1 << 14


class Centralizer(_Rows):
    """G^s = {g in G : gs = sg}, closed from Schreier generators on rows
    (see _Rows), in text-format order."""

    def __init__(self, cls: ConjugacyClass):
        self.cls = cls
        self.base = cls.rep
        self.group = cls.group
        # |O_s| * |G^s| = |G|
        self.size = self.group.order // cls.size
        if self.size > MAX_CLASS_SIZE:
            raise BudgetExceeded(
                f"centralizer of {cls.rep} has {self.size} elements, over the "
                f"enumeration cap of {MAX_CLASS_SIZE}"
            )
        P, A = _close(_schreier_generators(cls), self.group.n, self.size)
        order = text_order(P, A)
        self._set_rows(P[order], A[order])

    @property
    def order(self) -> int:
        return self.size


def _schreier_generators(cls: ConjugacyClass):
    """Yield the Schreier generators word[a |> t]^-1 a word[t] of the
    stabilizer of rep, t in discovery order and a in the generators, as
    (P, A) blocks of at most BLOCK_PRODUCTS rows."""
    gens = len(cls._gens)
    if not gens:
        return
    gP, gA = to_arrays(cls._gens, cls.group.n)
    WP, WA = cls.words()
    TP, TA = cls.P[cls._row_of], cls.A[cls._row_of]
    discovery = np.argsort(cls._row_of)
    step = max(1, BLOCK_PRODUCTS // gens)
    for start in range(0, cls.size, step):
        t = slice(start, start + step)
        # row f * gens + j is for t = row f of the block and a = gens[j]
        u = discovery[cls.locate(encode(*_conjugates(gP, gA, TP[t], TA[t])))]
        k = len(u) // gens
        AWP, AWA = mul_rows(
            np.tile(gP, (k, 1)),
            np.tile(gA, (k, 1)),
            np.repeat(WP[t], gens, axis=0),
            np.repeat(WA[t], gens, axis=0),
        )
        yield mul_rows(*inverse_rows(WP[u], WA[u]), AWP, AWA)


def _close(blocks, n: int, order: int) -> tuple:
    """(P, A) of the subgroup of B_n with `order` elements generated by
    the rows of the (P, A) blocks.  A generator s outside the subgroup H
    closed so far is kept; the coset s H is all new, and a breadth-first
    search under the kept generators from it closes <H, s>."""
    Ps = [np.arange(n, dtype=np.int8)[None, :]]
    As = [np.zeros((1, n), dtype=np.int8)]
    seen = encode(Ps[0], As[0])  # sorted keys of H
    kept = []
    for SP, SA in blocks:
        keys = encode(SP, SA)
        while len(seen) < order:
            outside = np.flatnonzero(~_member(seen, keys))
            if not outside.size:
                break
            i = int(outside[0])
            s = SP[i : i + 1], SA[i : i + 1]
            kept.append(s)
            HP, HA = np.concatenate(Ps), np.concatenate(As)
            FP, FA = mul_rows(*s, HP, HA)
            Ps, As = [HP, FP], [HA, FA]
            seen = np.sort(np.concatenate([seen, np.sort(encode(FP, FA))]), kind="stable")
            while len(FP) and len(seen) < order:
                products = [mul_rows(*g, FP, FA) for g in kept]
                CP = np.concatenate([p for p, _ in products])
                CA = np.concatenate([a for _, a in products])
                ckeys = encode(CP, CA)
                fresh = np.flatnonzero(~_member(seen, ckeys))
                new_keys, first = np.unique(ckeys[fresh], return_index=True)
                FP, FA = CP[fresh[first]], CA[fresh[first]]
                Ps.append(FP)
                As.append(FA)
                seen = np.sort(np.concatenate([seen, new_keys]), kind="stable")
            SP, SA, keys = SP[i + 1 :], SA[i + 1 :], keys[i + 1 :]
        if len(seen) == order:
            break
    if len(seen) != order:
        raise AssertionError(
            f"centralizer closure has {len(seen)} elements, expected {order}"
        )
    return np.concatenate(Ps), np.concatenate(As)


class CosetSystem(_Rows):
    """Representatives g_i with g_i |> s = t_i and g_1 = id, held as rows
    (see _Rows) in the class numbering.

    The g_i form a left transversal of G^s in G.  Default choice: the
    text-format-least element of each coset g C; `reps` (a list of
    elements, as `transposition_preset` gives for the class of (1 2) in
    S_n) replaces it.
    """

    def __init__(self, cls: ConjugacyClass, reps: list | None = None):
        self.cls = cls
        self.group = cls.group
        self.centralizer = cls.centralizer()
        if reps is None:
            P, A = _least_coset_reps(cls, self.centralizer)
        else:
            P, A = to_arrays(reps, self.group.n)
        self.size = len(P)
        self._set_rows(P, A)
        self._check()

    def _check(self):
        """g_1 = id and g_i |> s = t_i for every i, on the rows at once."""
        if self.size != self.cls.size:
            raise ValueError(f"one representative per class element required, not {self.size}")
        if (self.P[0] != np.arange(self.group.n)).any() or self.A[0].any():
            raise ValueError(f"g_1 = {self.element(0)} must be the identity")
        wrong = np.flatnonzero(self._moves(self.P, self.A) != np.arange(self.size))
        if wrong.size:
            i = int(wrong[0])
            raise ValueError(
                f"g_{i + 1} = {self.element(i)} does not conjugate s to t_{i + 1} = "
                f"{self.cls.element(i)}"
            )

    def _moves(self, P: np.ndarray, A: np.ndarray) -> np.ndarray:
        """The class index of g |> s for each row g of (P, A), -1 outside."""
        sP, sA = to_arrays([self.cls.rep], self.group.n)
        return self.cls.locate(encode(*mul_rows(*mul_rows(P, A, sP, sA), *inverse_rows(P, A))))

    def __getitem__(self, i: int) -> SignedPermutation:
        return self.element(i)

    def zeta(self, I, HP: np.ndarray, HA: np.ndarray) -> tuple:
        """The cocycle, solving h g_i = g_j gamma with gamma in G^s for
        each index i of I and row h of (HP, HA), one h for all of I or one
        per index.  Returns the class indices j of h |> t_i and the
        centralizer indices of gamma = g_j^-1 h g_i; an h outside the
        group, whose h |> t_i or gamma escapes, raises."""
        GP, GA = mul_rows(HP, HA, self.P[I], self.A[I])  # h g_i
        J = self._moves(GP, GA)
        if (J < 0).any():
            raise ValueError(f"h |> t_i leaves the class at row {np.argmax(J < 0)}")
        C = self.centralizer.locate(encode(*mul_rows(*inverse_rows(self.P[J], self.A[J]), GP, GA)))
        if (C < 0).any():
            raise ValueError(f"gamma at row {np.argmax(C < 0)} is outside the centralizer")
        return J, C


def _least_coset_reps(cls: ConjugacyClass, cent: Centralizer) -> tuple:
    """(P, A) of the text-format-least element of the coset g_0 C for
    each t in cls, where g_0 is the BFS word of t (cls.words()) and C is
    the centralizer; a block of whole cosets is ordered at a time."""
    WP, WA = cls.words()
    discovery = np.argsort(cls._row_of)
    WP, WA = WP[discovery], WA[discovery]  # in the class numbering
    h = cent.size
    step = max(1, BLOCK_PRODUCTS // h)
    RP, RA = [], []
    for start in range(0, cls.size, step):
        k = min(step, cls.size - start)
        P, A = mul_rows(
            np.repeat(WP[start : start + k], h, axis=0),
            np.repeat(WA[start : start + k], h, axis=0),
            np.tile(cent.P, (k, 1)),
            np.tile(cent.A, (k, 1)),
        )
        rank = np.empty(len(P), dtype=np.intp)
        rank[text_order(P, A)] = np.arange(len(P))
        least = np.arange(k) * h + rank.reshape(k, h).argmin(axis=1)
        RP.append(P[least])
        RA.append(A[least])
    return np.concatenate(RP), np.concatenate(RA)


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


def _class(classes: dict, group: GroupContext, rep: SignedPermutation):
    """The class of rep in group, built once into `classes`."""
    if (group, rep) not in classes:
        classes[group, rep] = ConjugacyClass(group, rep)
    return classes[group, rep]


def centralizer_factorization(
    gx: GroupContext,
    x: SignedPermutation,
    gy: GroupContext,
    y: SignedPermutation,
    classes: dict,
) -> dict:
    """B_{n+m}^{x#y} = nu->(B_n^x) . nu<-(B_m^y), certified as a bijection.

    Returns the two factors, the ambient centralizer, and the product
    map: row w of `product_map` is the index pair (u, v) in the factors
    whose product is element w of the ambient centralizer.  `classes`
    ({(group, rep): class}) supplies and keeps the classes it needs.
    """
    _require_orthogonal(x, y)
    n, m = x.n, y.n
    ambient = GroupContext(n + m, signed=gx.signed or gy.signed)
    cx = _class(classes, gx, x).centralizer()
    cy = _class(classes, gy, y).centralizer()
    big = _class(classes, ambient, x.juxtapose(y)).centralizer()
    # nu->(u) and nu<-(v), then every product nu->(u) nu<-(v), u-major
    UP, UA = juxtapose_rows(
        cx.P, cx.A, np.tile(np.arange(m, dtype=np.int8), (cx.size, 1)),
        np.zeros((cx.size, m), dtype=np.int8),
    )
    VP, VA = juxtapose_rows(
        np.tile(np.arange(n, dtype=np.int8), (cy.size, 1)),
        np.zeros((cy.size, n), dtype=np.int8), cy.P, cy.A,
    )
    keys = encode(*mul_rows(
        np.repeat(UP, cy.size, axis=0),
        np.repeat(UA, cy.size, axis=0),
        np.tile(VP, (cx.size, 1)),
        np.tile(VA, (cx.size, 1)),
    ))
    ordered = np.sort(keys)
    if (ordered[1:] == ordered[:-1]).any():
        raise AssertionError("product map is not injective")
    if not np.array_equal(ordered, big._sorted_keys):
        raise AssertionError("product map is not onto the centralizer")
    product_map = np.empty((big.size, 2), dtype=np.intp)
    product_map[big.locate(keys)] = np.stack(
        np.divmod(np.arange(keys.size), cy.size), axis=1
    )
    return {
        "left_factor": cx,
        "right_factor": cy,
        "centralizer": big,
        "product_map": product_map,
    }


def class_juxtaposition(
    gx: GroupContext,
    x: SignedPermutation,
    gy: GroupContext,
    y: SignedPermutation,
    classes: dict,
) -> ConjugacyClass:
    """The juxtaposed class O_{x#y}, certified against O_x # O_y.

    O_x # O_y is the orbit of x#y under the embedded subgroup B_n x B_m
    and is a subrack of O_{x#y}; the ambient class additionally moves the
    block supports, so its size carries the binomial placement factor:
    |O_{x#y}| = C(n+m, n) |O_x| |O_y|.  Both facts are checked.
    `classes` is as for centralizer_factorization.
    """
    _require_orthogonal(x, y)
    ambient = GroupContext(x.n + y.n, signed=gx.signed or gy.signed)
    cls_x = _class(classes, gx, x)
    cls_y = _class(classes, gy, y)
    big = _class(classes, ambient, x.juxtapose(y))
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
