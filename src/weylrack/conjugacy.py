"""Conjugacy classes, centralizers and coset systems in B_n and S_n.

A class, a centralizer or a coset system is held as the arrays P, A and
keys of groups.to_arrays and groups.encode; SignedPermutation objects are
built on demand, and no holder sits in a reference cycle.  Classes and
centralizers are enumerated in closed form from the signed cycle type
of their representative, with no search, after check_class_budget; a
build writes its rows a block at a time and keeps one copy of each
array, so its working memory is a small overhead on the rows it keeps.
The class element ordering is deterministic: the canonical text-format
order (groups.text_order), with the defining representative moved to the
front as t_1.  Coset representatives g_i are the text-format-least conjugators,
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
    act_rows,
    compose_rows,
    conjugate_pairs,
    element_key,
    encode,
    from_arrays,
    invert_rows,
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

# rows per block: the products g_0 c per text_order call in
# _least_coset_reps, and the rows a class build writes per flat index
BLOCK_PRODUCTS = 1 << 14


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


def check_class_budget(group: GroupContext, rep: SignedPermutation) -> int:
    """|class of rep|, or BudgetExceeded if the class is over the
    enumeration cap or the group over the key range; nothing is built."""
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
    return size


class ClassElements(Sequence):
    """The elements of a class or a centralizer in its numbering, as
    SignedPermutations.

    A view, new on each read of `elements`: its length is the number of
    rows, and item i is built from row i of the arrays until the first
    iteration, slice or comparison builds every element once for the
    owner to keep."""

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

    def _set_rows(self, P: np.ndarray, A: np.ndarray, keys: np.ndarray | None = None):
        self.P, self.A = P, A
        self.keys = encode(P, A) if keys is None else keys
        self._key_order = np.argsort(self.keys)
        self._sorted_keys = self.keys[self._key_order]
        self._elements = None

    def locate(self, keys: np.ndarray) -> np.ndarray:
        """The element index of each key, -1 for keys outside the rows."""
        pos = np.minimum(np.searchsorted(self._sorted_keys, keys), self.size - 1)
        return np.where(self._sorted_keys[pos] == keys, self._key_order[pos], -1)

    @property
    def elements(self) -> ClassElements:
        return ClassElements(self)  # kept here, it would close a cycle

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
        """The index of x, -1 if x is not an element: its key in Python,
        then one search of the sorted keys."""
        if not isinstance(x, SignedPermutation) or x.n != self.group.n:
            return -1
        key = element_key(x)
        pos = int(np.searchsorted(self._sorted_keys, key))
        if pos < self.size and self._sorted_keys[pos] == key:
            return int(self._key_order[pos])
        return -1

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
    are its conjugator words: row i of `words` = (WP, WA) conjugates rep
    to element i, and the word of t_1 is the identity.  The words come
    in closed form from rep's signed cycle type, and the rows with them
    (see _class_words).
    """

    def __init__(self, group: GroupContext, rep: SignedPermutation):
        if rep not in group:
            raise ValueError(f"{rep} is not in {group}")
        self.group = group
        self.rep = rep
        self.size = check_class_budget(group, rep)
        (WP, WA), (P, A) = _class_words(rep, group.signed)
        if len(WP) != self.size:
            raise AssertionError(f"enumerated {len(WP)} elements, expected {self.size}")
        keys = encode(P, A)
        # rep first, then the rest in text order (the texts are distinct)
        is_rep = keys == element_key(rep)
        order = text_order(P, A)
        order = np.concatenate([np.flatnonzero(is_rep), order[~is_rep[order]]])
        # one copy of each array: the unordered one goes as its ordered
        # copy is made (np.take: a row gather, faster than P[order])
        P = np.take(P, order, axis=0)
        A = np.take(A, order, axis=0)
        keys = keys[order]
        WP = np.take(WP, order, axis=0)
        WA = np.take(WA, order, axis=0)
        del order
        self._set_rows(P, A, keys)
        self.words = WP, WA
        if (self._sorted_keys[1:] == self._sorted_keys[:-1]).any():
            raise AssertionError(f"the class of {rep} repeats an element")
        identity = (self.words[0][0] == np.arange(group.n)).all() and not self.words[1][0].any()
        if not (is_rep.any() and identity):
            raise AssertionError(f"the word of {rep} is not the identity")
        self.class_key = rep.signed_cycle_type()
        self._centralizer = None

    def reorder(self, elements: list) -> "ConjugacyClass":
        """A copy of the class numbered as `elements` (a permutation of
        it), with arrays, keys and words to match.  This class keeps its
        numbering, and so do the racks built on it."""
        rows = self.find_all(elements)
        if not np.array_equal(np.sort(rows), np.arange(self.size)):
            raise ValueError("not a renumbering of the class")
        renumbered = copy.copy(self)
        renumbered._set_rows(self.P[rows], self.A[rows], self.keys[rows])
        renumbered.words = self.words[0][rows], self.words[1][rows]
        return renumbered

    def centralizer(self) -> "Centralizer":
        """G^rep, built on first use and shared by every later caller."""
        if self._centralizer is None:
            self._centralizer = Centralizer(self)
        return self._centralizer

    def coset_system(self) -> "CosetSystem":
        return CosetSystem(self)

    def __repr__(self) -> str:
        return f"ConjugacyClass({self.group!r}, {self.rep.format()!r}, size={self.size})"


def _kind(rep: SignedPermutation, cycle: tuple) -> tuple:
    """(length, sign parity) of a cycle of rep, its signed cycle type entry."""
    return len(cycle), sum(rep.sign[i] for i in cycle) & 1


def _free(W: np.ndarray) -> np.ndarray:
    """Which points are not yet an image in each partial word of W, whose
    unset images are n."""
    taken = np.zeros((len(W), W.shape[1] + 1), dtype=bool)
    taken[np.arange(len(W))[:, None], W] = True
    return ~taken[:, :-1]


def _extend(W: np.ndarray, x: int, allowed: np.ndarray) -> np.ndarray:
    """Each partial word of W once per allowed image of point x, in row
    order and then point order, with that image set."""
    rows, images = np.nonzero(allowed)
    W = W[rows]
    W[:, x] = images
    return W


def _class_words(rep: SignedPermutation, signed: bool) -> tuple:
    """((WP, WA), (P, A)): one conjugator word g per element g |> rep of
    its class, and that element.

    rep's cycles, fixed points included, grouped by (length, parity) and
    by least point within a group, are the template.  g maps them onto
    cycles of the same type, one point at a time, as a canonical
    assignment: each image cycle starts at its least point, and the
    images of one group come in order of increasing least point, so each
    permutation of the class is reached once.  In B_n each image cycle
    of length l also takes the 2^(l-1) sign patterns that are 0 at its
    start: the words are (g.s, g) for each distinct permutation g and
    each row s of a small table S.  As SignedPermutation.conjugate with
    rep = (b, sigma), the conjugate of rep by (g.s, g) is
    (g.(s + b + s o sigma^-1), g sigma g^-1): P[g(j)] = g(sigma(j)), once
    per distinct g, and A[g(j)] = T_j for the rows of the small table
    T = S + b + S o sigma^-1, written through the words' flat index."""
    n = rep.n
    cycles = sorted(rep.perm.cycles(include_fixed=True), key=lambda c: _kind(rep, c))
    points = np.arange(n)
    W = np.full((1, n), n, dtype=np.int8)
    last = {}  # kind -> start of the previous template cycle of that kind
    for c in cycles:
        kind = _kind(rep, c)
        later = sum(len(d) for d in cycles if _kind(rep, d) > kind)
        # the start lies above the previous start of its kind and leaves
        # no more free points below it than the later kinds can take
        free = _free(W)
        allowed = free & (np.cumsum(free, axis=1) - free <= later)
        if kind in last:
            allowed &= points > W[:, last[kind], None]
        W = _extend(W, c[0], allowed)
        last[kind] = c[0]
        for x in c[1:]:
            W = _extend(W, x, _free(W) & (points > W[:, c[0], None]))
    loose = [x for c in cycles for x in c[1:]] if signed else []
    S = np.zeros((1 << len(loose), n), dtype=np.int8)
    S[:, loose] = (np.arange(len(S))[:, None] >> np.arange(len(loose))) & 1
    sigma = np.array(rep.perm.images)
    T = S ^ np.array(rep.sign, dtype=np.int8) ^ S[:, np.argsort(sigma)]
    WP = np.repeat(W, len(S), axis=0)
    P = np.repeat(compose_rows(W[:, sigma], invert_rows(W)), len(S), axis=0)
    WA, A = np.empty_like(WP), np.empty_like(P)
    for rows, at in _blocks(len(WP), n):
        # the bit of template point x is the sign at its image g(x)
        image = at + WP[rows]
        pattern = np.arange(rows.start, rows.stop) % len(S)
        WA[rows].reshape(-1)[image] = S[pattern]
        A[rows].reshape(-1)[image] = T[pattern]
    return (WP, WA), (P, A)


def _blocks(k: int, n: int):
    """(rows, at) for each block of BLOCK_PRODUCTS of k rows of n
    columns: the slice of the block, and the offset of each of its rows
    in the block's flat view, as a column."""
    for start in range(0, k, BLOCK_PRODUCTS):
        rows = slice(start, min(start + BLOCK_PRODUCTS, k))
        yield rows, np.arange(rows.stop - start)[:, None] * n


class Centralizer(_Rows):
    """G^s = {g in G : gs = sg} on rows (see _Rows), in text-format
    order, enumerated in closed form (see _centralizer_rows)."""

    def __init__(self, cls: ConjugacyClass):
        # no reference back to cls, which keeps this centralizer
        self.group = cls.group
        # |O_s| * |G^s| = |G|
        self.size = self.group.order // cls.size
        if self.size > MAX_CLASS_SIZE:
            raise BudgetExceeded(
                f"centralizer of {cls.rep} has {self.size} elements, over the "
                f"enumeration cap of {MAX_CLASS_SIZE}"
            )
        P, A = _centralizer_rows(cls.rep, self.group.signed)
        if len(P) != self.size:
            raise AssertionError(f"centralizer has {len(P)} elements, expected {self.size}")
        order = text_order(P, A)
        P = np.take(P, order, axis=0)
        A = np.take(A, order, axis=0)
        del order
        self._set_rows(P, A)

    @property
    def order(self) -> int:
        return self.size


def _centralizer_rows(rep: SignedPermutation, signed: bool) -> tuple:
    """(P, A) of the centralizer of rep = (b, sigma).

    Its permutation tau maps each cycle of sigma onto a cycle of the same
    type as a rotation: it picks the image of the cycle's start, and
    sigma forces the rest.  Its signs d solve d_sigma(i) = d_i + delta_sigma(i),
    delta = b + tau.b, along each cycle from 0 at its start; in B_n each
    of the 2^k flips of whole cycles is added."""
    n = rep.n
    sigma = np.array(rep.perm.images)
    cycles = rep.perm.cycles(include_fixed=True)
    kind, cycle_of = np.empty(n, dtype=np.intp), np.empty(n, dtype=np.intp)
    for j, c in enumerate(cycles):
        kind[list(c)] = 2 * len(c) + _kind(rep, c)[1]
        cycle_of[list(c)] = j
    W = np.full((1, n), n, dtype=np.int8)
    for c in cycles:
        W = _extend(W, c[0], _free(W) & (kind == kind[c[0]]))
        for x, y in zip(c, c[1:]):
            W[:, y] = sigma[W[:, x]]
    b = np.array(rep.sign, dtype=np.int8)
    delta = b ^ act_rows(W, b[None, :])
    D = np.zeros_like(W)
    for c in cycles:
        for x, y in zip(c, c[1:]):
            D[:, y] = D[:, x] ^ delta[:, y]
    k = len(cycles) if signed else 0
    flips = ((np.arange(1 << k)[:, None] >> cycle_of) & 1).astype(np.int8)
    return (
        np.repeat(W, len(flips), axis=0),
        np.repeat(D, len(flips), axis=0) ^ np.tile(flips, (len(W), 1)),
    )


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
        rep = to_arrays([self.cls.rep], self.group.n)
        return self.cls.locate(encode(*conjugate_pairs(P, A, *rep)))

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
    each t in cls, where g_0 is the word of t (cls.words) and C is the
    centralizer; a block of whole cosets is ordered at a time."""
    WP, WA = cls.words
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
