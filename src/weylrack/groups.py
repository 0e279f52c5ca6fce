"""Exact arithmetic in S_n, Z_2^n and the semidirect product B_n = Z_2^n x| S_n.

Conventions (fixed once, everything else is written against them):

* permutations act on the left: (sigma*tau)(i) = sigma(tau(i));
* a permutation acts on a sign vector by (tau.a)_i = a_{tau^-1(i)};
* the product in B_n is (a,tau)(b,mu) = (a + tau.b, tau*mu).

Elements are immutable and hashable.  Indices are 0-based internally;
the text format and cycle notation are 1-based.
"""

from __future__ import annotations

import functools
import itertools
import re
from math import lcm
from typing import Iterable, NamedTuple

import numpy as np


class Permutation:
    """A permutation of {0, ..., n-1} in one-line notation.

    `check=False` skips the validation; the group operations pass it for
    the results they build themselves."""

    __slots__ = ("images", "_hash")

    def __init__(self, images: Iterable[int], check: bool = True):
        images = tuple(images)
        if check and sorted(images) != list(range(len(images))):
            raise ValueError(f"not a permutation of 0..{len(images) - 1}: {images}")
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "_hash", hash(images))

    def __setattr__(self, *a):
        raise AttributeError("Permutation is immutable")

    # -- constructors ----------------------------------------------------

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(range(n))

    @staticmethod
    def from_cycles(n: int, cycles: Iterable[Iterable[int]]) -> "Permutation":
        """Build from 1-based cycles, e.g. from_cycles(5, [(1,2,3),(4,5)])."""
        images = list(range(n))
        for cyc in cycles:
            cyc = [c - 1 for c in cyc]
            if any(not 0 <= c < n for c in cyc) or len(set(cyc)) != len(cyc):
                raise ValueError(f"bad cycle {tuple(c + 1 for c in cyc)} for degree {n}")
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                images[a] = b
        return Permutation(images)

    @staticmethod
    def parse(text: str, n: int) -> "Permutation":
        """Parse 1-based cycle notation, identity written as "()"."""
        text = text.strip()
        if text in ("", "()"):
            return Permutation.identity(n)
        if not re.fullmatch(r"(\(\s*\d+(?:[\s,]+\d+)*\s*\))+", text):
            raise ValueError(f"cannot parse permutation {text!r}")
        cycles = [
            [int(tok) for tok in re.split(r"[\s,]+", body.strip())]
            for body in re.findall(r"\(([^)]*)\)", text)
        ]
        return Permutation.from_cycles(n, cycles)

    # -- group operations ------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if len(self.images) != len(other.images):
            raise ValueError("degree mismatch")
        return Permutation(map(self.images.__getitem__, other.images), check=False)

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(inv, check=False)

    def conjugate(self, other: "Permutation") -> "Permutation":
        """self |> other = self * other * self^-1: it maps self(i) to
        self(other(i))."""
        im = self.images
        out = [0] * len(im)
        for t, j in zip(im, other.images):
            out[t] = im[j]
        return Permutation(out, check=False)

    def act_on_signs(self, bits: tuple) -> tuple:
        """(tau.a)_i = a_{tau^-1(i)}."""
        out = [0] * len(bits)
        for j, i in enumerate(self.images):
            out[i] = bits[j]
        return tuple(out)

    # -- structure -------------------------------------------------------

    def cycles(self, include_fixed: bool = False) -> list:
        """Disjoint cycles as 0-based tuples, each starting at its minimum."""
        seen = [False] * len(self.images)
        out = []
        for start in range(len(self.images)):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            j = self.images[start]
            while j != start:
                cyc.append(j)
                seen[j] = True
                j = self.images[j]
            if len(cyc) > 1 or include_fixed:
                out.append(tuple(cyc))
        return out

    def cycle_type(self) -> tuple:
        """Sorted tuple of cycle lengths (including fixed points)."""
        return tuple(sorted(len(c) for c in self.cycles(include_fixed=True)))

    def fixed_points(self) -> tuple:
        return tuple(i for i, j in enumerate(self.images) if i == j)

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def order(self) -> int:
        return lcm(*(len(c) for c in self.cycles(include_fixed=True)))

    def sign(self) -> int:
        return -1 if sum(len(c) - 1 for c in self.cycles()) % 2 else 1

    # -- dunder ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Permutation.parse({format_cycles(self)!r}, {len(self.images)})"

    def __str__(self) -> str:
        return format_cycles(self)


def format_cycles(perm: Permutation) -> str:
    cycles = perm.cycles()
    if not cycles:
        return "()"
    return "".join("(" + " ".join(str(i + 1) for i in c) + ")" for c in cycles)


class SignedPermutation:
    """An element (a, tau) of B_n = Z_2^n x| S_n.

    `sign` is the Z_2^n part as a 0/1 tuple (additive convention),
    `perm` the S_n part.  The paper writes the same element as a*tau.
    `check=False` skips the validation, as for Permutation.
    """

    __slots__ = ("sign", "perm", "_hash")

    def __init__(self, sign: Iterable[int], perm: Permutation, check: bool = True):
        sign = tuple(sign)
        if check and len(sign) != len(perm.images):
            raise ValueError("sign vector length does not match permutation degree")
        if check and any(b not in (0, 1) for b in sign):
            raise ValueError(f"sign vector must be 0/1: {sign}")
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "_hash", hash((sign, perm.images)))

    def __setattr__(self, *a):
        raise AttributeError("SignedPermutation is immutable")

    # -- constructors ----------------------------------------------------

    @staticmethod
    def identity(n: int) -> "SignedPermutation":
        return SignedPermutation((0,) * n, Permutation.identity(n))

    @staticmethod
    def from_perm(perm: Permutation) -> "SignedPermutation":
        return SignedPermutation((0,) * len(perm.images), perm)

    @staticmethod
    def parse(text: str) -> "SignedPermutation":
        """Parse the canonical text format "11010;(1 2 3)(4 5)"."""
        if ";" not in text:
            raise ValueError(f"expected 'signs;cycles', got {text!r}")
        sign_part, perm_part = text.split(";", 1)
        sign_part = sign_part.strip()
        if not re.fullmatch(r"[01]+", sign_part):
            raise ValueError(f"sign part must be a 0/1 string: {sign_part!r}")
        sign = tuple(int(ch) for ch in sign_part)
        return SignedPermutation(sign, Permutation.parse(perm_part, len(sign)))

    # -- group operations ------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.sign)

    def __mul__(self, other: "SignedPermutation") -> "SignedPermutation":
        """(a,tau)(b,mu) = (a + tau.b, tau*mu)."""
        if len(self.sign) != len(other.sign):
            raise ValueError("degree mismatch")
        tau, b = self.perm, other.sign
        c = list(self.sign)
        for j, i in enumerate(tau.images):
            c[i] ^= b[j]
        return SignedPermutation(c, tau * other.perm, check=False)

    def inverse(self) -> "SignedPermutation":
        """(a,tau)^-1 = (tau^-1.a, tau^-1)."""
        pinv = self.perm.inverse()
        return SignedPermutation(pinv.act_on_signs(self.sign), pinv, check=False)

    def conjugate(self, other: "SignedPermutation") -> "SignedPermutation":
        """self |> other = self * other * self^-1."""
        if len(self.sign) != len(other.sign):
            raise ValueError("degree mismatch")
        a, tau = self.sign, self.perm
        b, mu = other.sign, other.perm
        newperm = tau.conjugate(mu)
        c = list(a)
        for j, i in enumerate(tau.images):
            c[i] ^= b[j]
        for j, i in enumerate(newperm.images):
            c[i] ^= a[j]  # (tau mu tau^-1).a contribution
        return SignedPermutation(c, newperm, check=False)

    def order(self) -> int:
        k, x = 1, self
        ident = SignedPermutation.identity(len(self.sign))
        while x != ident:
            x = x * self
            k += 1
        return k

    def is_identity(self) -> bool:
        return not any(self.sign) and self.perm.is_identity()

    # -- invariants and maps ---------------------------------------------

    def signed_cycle_type(self) -> tuple:
        """Multiset of (length, sign parity over the cycle's support).

        A complete conjugation invariant of B_n; cycles with parity 1 are
        the negative cycles.
        """
        out = []
        for cyc in self.perm.cycles(include_fixed=True):
            out.append((len(cyc), sum(self.sign[i] for i in cyc) & 1))
        return tuple(sorted(out))

    def juxtapose(self, other: "SignedPermutation") -> "SignedPermutation":
        """Block combination x # y of x in B_n and y in B_m, landing in B_{n+m}."""
        n = len(self.sign)
        images = self.perm.images + tuple(i + n for i in other.perm.images)
        return SignedPermutation(
            self.sign + other.sign, Permutation(images, check=False), check=False
        )

    def is_orthogonal_to(self, other: "SignedPermutation") -> bool:
        """Orthogonal = the two elements share no sign-cycle length."""
        return not (cycle_lengths(self.perm.images) & cycle_lengths(other.perm.images))

    # -- text format -----------------------------------------------------

    def format(self) -> str:
        return "".join(str(b) for b in self.sign) + ";" + format_cycles(self.perm)

    def sort_key(self) -> str:
        return self.format()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SignedPermutation)
            and self.sign == other.sign
            and self.perm == other.perm
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"SignedPermutation.parse({self.format()!r})"

    def __str__(self) -> str:
        return self.format()


def cycle_lengths(images) -> set:
    """The cycle lengths of the permutation with these images, a fixed
    point counting as a 1-cycle."""
    seen = [False] * len(images)
    out = set()
    for start in range(len(images)):
        length, j = 0, start
        while not seen[j]:
            seen[j] = True
            j = images[j]
            length += 1
        if length:
            out.add(length)
    return out


# -- batched kernel --------------------------------------------------------
#
# A stack of k elements of B_n is held as two k x n int8 arrays: P, the
# permutations in one-line notation, and A, the 0/1 sign vectors.  The hot
# loops (class enumeration, certificate verification) run on these;
# SignedPermutation stays the parser, the printer and the reference.  A
# kernel costs a fixed handful of NumPy calls whatever k and n: a
# row-wise gather or scatter indexes the raveled stack once, at each
# entry's column plus its row's offset, and a key is one integer matmul
# per block of rows.

# encode() needs n^n * 2^n < 2^63
MAX_KEY_DEGREE = 13

# rows per key matmul: NumPy casts the block's int8 rows to int64 for it
KEY_BLOCK = 1 << 12


def to_arrays(elements: list, n: int) -> tuple:
    """(P, A) for a list of elements of B_n."""
    P = np.array([x.perm.images for x in elements], dtype=np.int8).reshape(-1, n)
    A = np.array([x.sign for x in elements], dtype=np.int8).reshape(-1, n)
    return P, A


def from_arrays(P: np.ndarray, A: np.ndarray) -> list:
    """The elements held by the rows of (P, A)."""
    return [
        SignedPermutation(a, Permutation(p, check=False), check=False)
        for p, a in zip(P.tolist(), A.tolist())
    ]


def juxtapose_rows(P: np.ndarray, A: np.ndarray, Q: np.ndarray, B: np.ndarray) -> tuple:
    """Row-wise x # y for x in rows of (P, A) in B_n and y in rows of
    (Q, B) in B_m, as the arrays of SignedPermutation.juxtapose."""
    return (
        np.concatenate([P, Q + np.int8(P.shape[1])], axis=1),
        np.concatenate([A, B], axis=1),
    )


def _row_offsets(k: int, n: int) -> np.ndarray:
    """The flat index of the first entry of each row of a C-ordered k x n
    stack, as an int32 column.  NumPy casts an int32 index in buffers as
    it indexes, so a gather or scatter makes no int64 copy of it."""
    return np.arange(0, k * n, n, dtype=np.int32)[:, None]


def invert_rows(P: np.ndarray) -> np.ndarray:
    """The row-wise inverse permutations: one scatter of 0..n-1 at the
    flat index of P."""
    k, n = P.shape
    inv = np.empty((k, n), dtype=P.dtype)
    inv.reshape(-1)[P + _row_offsets(k, n)] = np.arange(n, dtype=P.dtype)
    return inv


def compose_rows(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Row-wise permutation products tau mu, (tau mu)(i) = tau(mu(i)), as
    Permutation.__mul__: P[r, Q[r, i]].  Either side may be one row for
    every row of the other; paired rows are one gather from the raveled P."""
    # A single row on either side is read without the offset index: the
    # flat gather alone made the benchmark's scan 6-7 % slower (2 vCPU, 12
    # alternating pairs at seeds 0 and 7, together with act_rows's branch).
    if len(P) == 1:
        return P[0][Q]
    if len(Q) == 1:
        return P[:, Q[0]]
    return np.ravel(P)[Q + _row_offsets(*P.shape)]


def act_rows(P: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Row-wise sign action (tau.a)_i = a_{tau^-1(i)}, as
    Permutation.act_on_signs: one scatter out[r, P[r, i]] = A[r, i].
    Either side may be one row for every row of the other: one tau for a
    stack of sign vectors, or one sign vector for a stack of
    permutations, as _centralizer_rows passes it."""
    if len(P) == 1:
        out = np.empty(A.shape, dtype=A.dtype)
        out[:, P[0]] = A
        return out
    out = np.empty(P.shape, dtype=A.dtype)
    out.reshape(-1)[P + _row_offsets(*P.shape)] = A
    return out


def mul_rows(P: np.ndarray, A: np.ndarray, Q: np.ndarray, B: np.ndarray) -> tuple:
    """Row-wise x * y for x in rows of (P, A) and y in rows of (Q, B), as
    the arrays of SignedPermutation.__mul__: permutation tau mu, signs
    a + tau.b.  Row counts must match or one side must be a single row,
    which the kernels broadcast against every row of the other."""
    return compose_rows(P, Q), A ^ act_rows(P, B)


def inverse_rows(P: np.ndarray, A: np.ndarray) -> tuple:
    """The row-wise inverses (tau^-1.a, tau^-1), as SignedPermutation.inverse:
    (tau^-1.a)_i = a_{tau(i)}."""
    return invert_rows(P), compose_rows(A, P)


def conjugate_pairs(P: np.ndarray, A: np.ndarray, Q: np.ndarray, B: np.ndarray) -> tuple:
    """Row-wise x |> y = x y x^-1 for paired rows x of (P, A) and y of
    (Q, B), through mul_rows and inverse_rows."""
    return mul_rows(*mul_rows(P, A, Q, B), *inverse_rows(P, A))


def conjugate_rows(
    T: np.ndarray, Ta: np.ndarray, P: np.ndarray, A: np.ndarray, Pinv: np.ndarray
) -> tuple:
    """x |> y for every row x = (a, tau) of (T, Ta) and every row
    y = (b, mu) of (P, A), as the arrays of SignedPermutation.conjugate:
    permutation tau mu tau^-1, signs tau.b + (tau mu tau^-1).a + a.  Pinv
    is invert_rows(P), which a caller conjugating the same y by many
    blocks of x computes once.  The arrays have shape (len(P), len(T), n),
    entry [i, j] being x_j |> y_i.

    At w, the permutation is tau(mu(tau^-1 w)), and (tau mu tau^-1).a
    reads a at tau(mu^-1(tau^-1 w)).  So the rows of mu and of mu^-1 are
    gathered at tau^-1 (a small index, shared by the rows of y), and tau
    and a o tau are looked up at the results through one index with each
    x's row offset.  That index is int16 or int32, which NumPy casts in
    buffers: no int64 index of the whole block is made."""
    m, n = T.shape
    tinv = invert_rows(T)
    at = np.arange(0, m * n, n, dtype=np.int16 if m * n < 1 << 15 else np.int32)[:, None]
    index = P[:, tinv] + at
    NP = np.ravel(T)[index]
    np.add(Pinv[:, tinv], at, out=index)
    NA = compose_rows(Ta, T).ravel()[index]
    NA ^= A[:, tinv]
    NA ^= Ta
    return NP, NA


def text_order(P: np.ndarray, A: np.ndarray) -> np.ndarray:
    """The row order of sorted(rows, key=SignedPermutation.sort_key).

    The text "a_1..a_n;(c c c)(c c)" compares its n sign bits first and
    its cycle text after them.  So the rows are grouped by permutation
    part (one sort of perm_keys), the u distinct parts are ranked by
    their cycle text once each (_cycle_text_ranks), and one stable sort
    of (sign bits, a_1 most significant) * u + part rank orders the rows:
    equal rows keep their input order, like sorted().  The keys are
    overwritten by part indices, a block of rows in part order at a time:
    the rows of the blocks after it are not written yet."""
    k, n = P.shape
    if k == 0:
        return np.zeros(0, dtype=np.intp)
    keys = perm_keys(P)
    by_part = np.argsort(keys)
    first, part, prev = [], -1, None  # the first row of each part
    for s in range(0, k, KEY_BLOCK):
        rows = by_part[s : s + KEY_BLOCK]
        block = keys[rows]
        new = np.concatenate([[block[0] != prev], block[1:] != block[:-1]])
        prev = block[-1]
        first.append(rows[new])
        keys[rows] = np.cumsum(new) + part
        part = keys[rows[-1]]
    del by_part, rows  # a view of by_part
    ranks = _cycle_text_ranks(P[np.concatenate(first)])
    # mode="clip": with the default mode NumPy buffers `out` in a copy
    np.take(ranks, keys, out=keys, mode="clip")
    _add_weighted(keys, A, _weights(n).sign[::-1] * len(ranks))
    return np.argsort(keys, kind="stable")


def _cycle_text_ranks(P: np.ndarray) -> np.ndarray:
    """The rank of each row's cycle text "(c c c)(c c)" among the rows,
    which must be distinct permutations.

    The text is compared as a token string: per moved point in
    cycle-walk order (cycles by their minimum, each walked from it) a
    number token and the separator after it.  Separators ' ' < ')' + end
    < ')(' are all below the number tokens, which rank str(v + 1) in
    string order; "()" is the lone token ')' + end.

    Each point's cycle minimum, and its steps forward to it, come from
    pointer doubling: after r rounds, `low` holds 32 * the least point of
    the walk v, P(v), ..., P^(2^r - 1)(v) plus the steps to its first
    occurrence, and J the flat index of P^(2^r)(v); ceil(log2 n) rounds
    cover every cycle.  One row-wise argsort then puts the points in text
    order, and the tokens are written as whole arrays."""
    k, n = P.shape
    w = _weights(n)
    at = np.arange(0, k * n, n)[:, None]  # int64: J indexes itself by take
    points = np.arange(n, dtype=np.int16)
    low = np.broadcast_to(points << 5, (k, n))
    J = P + at
    for r in range((n - 1).bit_length()):
        ahead = np.ravel(low).take(J)
        ahead += 1 << r
        low = np.minimum(low, ahead)
        J = np.ravel(J).take(J)
    steps, low = low & 31, low >> 5
    # cycles by least point, each walked from it; fixed points last
    walk = np.where(P == points, 1 << 14, (low << 5) | ((32 - steps) & 31))
    order = np.argsort(walk, axis=1)
    moved = np.count_nonzero(P != points, axis=1)[:, None]
    live = points < moved
    # the separator closes a cycle where the next point in text order
    # has another least point, and ends the text after the last one
    low = np.ravel(low).take(order + at)
    closes = np.ones((k, n), dtype=bool)
    np.not_equal(low[:, 1:], low[:, :-1], out=closes[:, :-1])
    tokens = np.zeros((k, n, 2), dtype=np.int8)
    tokens[:, :, 0] = np.where(live, w.token[order], 0)
    tokens[:, :, 1] = np.where(live & closes, np.where(points == moved - 1, 1, 2), 0)
    tokens[moved[:, 0] == 0, 0, 0] = 1  # "()"
    # pack the 4-bit tokens, most significant first, 15 to an int64 key
    tokens = tokens.reshape(k, 2 * n)
    keys = []
    for s in range(0, 2 * n, 15):
        chunk = tokens[:, s : s + 15]
        keys.append(_add_weighted(np.zeros(k, dtype=np.int64), chunk, w.pack[-chunk.shape[1] :]))
    ranks = np.empty(k, dtype=np.intp)
    ranks[np.lexsort(keys[::-1])] = np.arange(k)
    return ranks


def perm_keys(P: np.ndarray) -> np.ndarray:
    """One int64 key per row for the permutation part alone,
    sum_i P[i] n^i: encode's key before the sign bits are shifted in."""
    n = P.shape[1]
    if n > MAX_KEY_DEGREE:
        raise ValueError(f"degree {n} exceeds the int64 key range")
    return _add_weighted(np.zeros(len(P), dtype=np.int64), P, _weights(n).perm)


def encode(P: np.ndarray, A: np.ndarray) -> np.ndarray:
    """One int64 key per row, (sum_i P[i] n^i) 2^n + sum_i A[i] 2^i;
    injective on B_n for n <= MAX_KEY_DEGREE."""
    keys = perm_keys(P)
    keys <<= P.shape[1]
    return _add_weighted(keys, A, _weights(P.shape[1]).sign)


def _add_weighted(keys: np.ndarray, M: np.ndarray, w: np.ndarray) -> np.ndarray:
    """keys += M @ w, KEY_BLOCK rows of M at a time; returns keys."""
    for s in range(0, len(M), KEY_BLOCK):
        keys[s : s + KEY_BLOCK] += M[s : s + KEY_BLOCK] @ w
    return keys


class _Weights(NamedTuple):
    perm: np.ndarray  # n^i, the permutation part of a key
    sign: np.ndarray  # 2^i, the sign bits of a key
    token: np.ndarray  # 3 + the rank of str(v + 1) in string order
    pack: np.ndarray  # 16^(14-i), fifteen 4-bit tokens to an int64


@functools.cache
def _weights(n: int) -> _Weights:
    """The constant rows of the keys of degree n."""
    powers = np.arange(n, dtype=np.int64)
    names = [str(v + 1) for v in range(n)]
    weights = _Weights(
        n**powers,
        1 << powers,
        (np.argsort(np.argsort(names, kind="stable")) + 3).astype(np.int8),
        16 ** np.arange(14, -1, -1, dtype=np.int64),
    )
    for w in weights:
        w.flags.writeable = False  # shared by every caller
    return weights


def element_key(x: SignedPermutation) -> int:
    """encode's key of one element, computed in Python integers."""
    n = len(x.sign)
    key = 0
    for p in reversed(x.perm.images):
        key = key * n + p
    for a in reversed(x.sign):
        key = (key << 1) + a
    return key


class GroupContext:
    """A concrete ambient group: B_n, or S_n viewed inside B_n with zero signs.

    All higher layers (classes, racks, modules) take elements together with
    one of these contexts; mixed-degree operations fail loudly.
    """

    # Hard enumeration cap: 2^10 * 10! elements.
    MAX_ORDER = (1 << 10) * 3628800

    def __init__(self, n: int, signed: bool):
        if n < 1:
            raise ValueError("degree must be positive")
        self.n = n
        self.signed = signed
        self._elements = None
        # random_row's constants: each Fisher-Yates position with the bit
        # width of its draw, and the points it shuffles
        self._swaps = [(i, (i + 1).bit_length()) for i in range(n - 1, 0, -1)]
        self._points = list(range(n))

    @property
    def order(self) -> int:
        fact = 1
        for k in range(2, self.n + 1):
            fact *= k
        return (1 << self.n) * fact if self.signed else fact

    @property
    def identity(self) -> SignedPermutation:
        return SignedPermutation.identity(self.n)

    def elements(self) -> list:
        """The full element list (cached).  Refuses beyond the budget cap."""
        if self._elements is None:
            if self.order > self.MAX_ORDER:
                raise BudgetExceeded(
                    f"group of order {self.order} exceeds the enumeration cap"
                )
            perms = [Permutation(p) for p in itertools.permutations(range(self.n))]
            if self.signed:
                self._elements = [
                    SignedPermutation(s, p)
                    for s in itertools.product((0, 1), repeat=self.n)
                    for p in perms
                ]
            else:
                self._elements = [SignedPermutation.from_perm(p) for p in perms]
        return self._elements

    def __contains__(self, x: SignedPermutation) -> bool:
        if not isinstance(x, SignedPermutation) or x.n != self.n:
            return False
        return self.signed or not any(x.sign)

    def random_row(self, rng) -> tuple:
        """(images, signs) lists of a uniform random element: the draws of
        rng.shuffle on the points, then of one rng.randrange(2) per sign
        bit in the signed case, taken as rand_int takes them.  Every
        sampled check draws through here."""
        n, bits = self.n, rng.getrandbits
        perm = self._points.copy()
        for i, k in self._swaps:
            j = bits(k)
            while j > i:
                j = bits(k)
            perm[i], perm[j] = perm[j], perm[i]
        if not self.signed:
            return perm, [0] * n
        sign = []
        for _ in range(n):
            r = bits(2)
            while r > 1:
                r = bits(2)
            sign.append(r)
        return perm, sign

    def random_element(self, rng) -> SignedPermutation:
        perm, sign = self.random_row(rng)
        return SignedPermutation(sign, Permutation(perm, check=False), check=False)

    def parse(self, text: str) -> SignedPermutation:
        x = SignedPermutation.parse(text)
        if x not in self:
            raise ValueError(f"{text!r} is not an element of {self}")
        return x

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupContext)
            and self.n == other.n
            and self.signed == other.signed
        )

    def __hash__(self) -> int:
        return hash((self.n, self.signed))

    def __repr__(self) -> str:
        return f"{'B' if self.signed else 'S'}{self.n}"


def rand_int(rng, a: int, b: int) -> int:
    """rng.randint(a, b), and rng.randrange(b + 1) for a = 0: the same
    draw and the same generator state, by the stdlib's own rule for a
    random.Random (getrandbits of the width's bit length, drawn again
    while it is not below the width), without randrange's argument
    handling."""
    width = b - a + 1
    if width < 1:
        raise ValueError(f"empty range for rand_int: [{a}, {b}]")
    k = width.bit_length()
    r = rng.getrandbits(k)
    while r >= width:
        r = rng.getrandbits(k)
    return a + r


def Bn(n: int) -> GroupContext:
    return GroupContext(n, signed=True)


def Sn(n: int) -> GroupContext:
    """S_n realised inside B_n as the zero-sign subgroup."""
    return GroupContext(n, signed=False)


class BudgetExceeded(RuntimeError):
    """An enumeration or search exceeded its configured budget."""


# default memory budget, in bytes, of a Yetter-Drinfeld module's braiding
# and of one Nichols degree, which still counts one dense D^k x D^k
# matrix, a deliberate over-estimate that keeps the degrees it admits
# where they were: n = 4 to degree 5 (484 MB) fits, degree 6 (17.4 GB)
# does not
MEMORY_BUDGET = 1 << 29
