"""Exact arithmetic in S_n, Z_2^n and the semidirect product B_n = Z_2^n x| S_n.

Conventions (fixed once, everything else is written against them):

* permutations act on the left: (sigma*tau)(i) = sigma(tau(i));
* a permutation acts on a sign vector by (tau.a)_i = a_{tau^-1(i)};
* the product in B_n is (a,tau)(b,mu) = (a + tau.b, tau*mu).

Elements are immutable and hashable.  Indices are 0-based internally;
the text format and cycle notation are 1-based.
"""

from __future__ import annotations

import itertools
import re
from math import lcm
from typing import Iterable

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
# SignedPermutation stays the parser, the printer and the reference.

# encode() needs n^n * 2^n < 2^63
MAX_KEY_DEGREE = 13


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


def invert_rows(P: np.ndarray) -> np.ndarray:
    """The row-wise inverse permutations."""
    inv = np.empty_like(P)
    inv[np.arange(len(P))[:, None], P] = np.arange(P.shape[1], dtype=P.dtype)
    return inv


def compose_rows(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Row-wise permutation products tau mu, (tau mu)(i) = tau(mu(i)), as
    Permutation.__mul__; either side may be one row for every row of the
    other."""
    return np.take_along_axis(P, Q, axis=1)


def act_rows(P: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Row-wise sign action (tau.a)_i = a_{tau^-1(i)}, as
    Permutation.act_on_signs: a gather by the inverse permutation.  P may
    be one row for every row of A."""
    return np.take_along_axis(A, invert_rows(P), axis=1)


def mul_rows(P: np.ndarray, A: np.ndarray, Q: np.ndarray, B: np.ndarray) -> tuple:
    """Row-wise x * y for x in rows of (P, A) and y in rows of (Q, B), as
    the arrays of SignedPermutation.__mul__: permutation tau mu, signs
    a + tau.b.  Row counts must match or one side must be a single row,
    which take_along_axis broadcasts against every row of the other."""
    if len(P) == 1:
        # one x times every row, as in CosetSystem.zeta with one h: a
        # gather from tau and a column permutation, 2.3-4x faster than
        # the broadcast take_along_axis (64 to 645120 rows of B_7, 2 vCPU)
        return P[0][Q], A ^ B[:, np.argsort(P[0])]
    return compose_rows(P, Q), A ^ act_rows(P, B)


def inverse_rows(P: np.ndarray, A: np.ndarray) -> tuple:
    """The row-wise inverses (tau^-1.a, tau^-1), as SignedPermutation.inverse."""
    return invert_rows(P), np.take_along_axis(A, P, axis=1)


def conjugate_pairs(P: np.ndarray, A: np.ndarray, Q: np.ndarray, B: np.ndarray) -> tuple:
    """Row-wise x |> y = x y x^-1 for paired rows x of (P, A) and y of
    (Q, B), through mul_rows and inverse_rows."""
    return mul_rows(*mul_rows(P, A, Q, B), *inverse_rows(P, A))


def conjugate_rows(tau: np.ndarray, a: np.ndarray, P: np.ndarray, A: np.ndarray) -> tuple:
    """x |> y for the fixed x = (a, tau) and every row y of (P, A), as the
    arrays of SignedPermutation.conjugate: permutation tau mu tau^-1, signs
    tau.b + (tau mu tau^-1).a + a."""
    tinv = np.argsort(tau)
    NP = tau[P[:, tinv]]
    return NP, A[:, tinv] ^ a[invert_rows(NP)] ^ a


def text_order(P: np.ndarray, A: np.ndarray) -> np.ndarray:
    """The row order of sorted(rows, key=SignedPermutation.sort_key).

    The text "a_1..a_n;(c c c)(c c)" compares its n sign bits first and
    its cycle text after them.  So the rows are grouped by permutation
    part (one sort of perm_keys), the u distinct parts are ranked by
    their cycle text once each (_cycle_text_ranks), and one stable sort
    of (sign bits, a_1 most significant) * u + part rank orders the rows:
    equal rows keep their input order, like sorted()."""
    k, n = P.shape
    if k == 0:
        return np.zeros(0, dtype=np.intp)
    keys = perm_keys(P)
    by_part = np.argsort(keys)
    keys = keys[by_part]
    new = np.empty(k, dtype=bool)
    new[0] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    del keys
    part = np.cumsum(new)
    part -= 1
    ranks = _cycle_text_ranks(P[by_part[new]])
    key = np.empty(k, dtype=np.int64)
    key[by_part] = np.take(ranks, part, out=part)
    del by_part, part
    signs = np.zeros(k, dtype=np.int64)
    for i in range(n):
        signs <<= 1
        signs += A[:, i]
    signs *= len(ranks)
    key += signs
    del signs
    return np.argsort(key, kind="stable")


def _cycle_text_ranks(P: np.ndarray) -> np.ndarray:
    """The rank of each row's cycle text "(c c c)(c c)" among the rows,
    which must be distinct permutations.

    The text is compared as a token string: per moved point in
    cycle-walk order (cycles by their minimum, each walked from it) a
    number token and the separator after it.  Separators ' ' < ')' + end
    < ')(' are all below the number tokens, which rank str(v + 1) in
    string order; "()" is the lone token ')' + end."""
    k, n = P.shape
    points = np.arange(n, dtype=P.dtype)
    # is_start[i, v]: v is the least point of its cycle, and moved
    least = points[None, :].repeat(k, axis=0)
    walk = P
    for _ in range(n - 1):
        np.minimum(least, walk, out=least)
        walk = np.take_along_axis(P, walk, axis=1)
    is_start = (least == points) & (P != points)
    # next_start[i, v]: the least cycle start above v, n if none
    starts = np.where(is_start, points, np.int8(n))
    next_start = np.minimum.accumulate(starts[:, ::-1], axis=1)[:, ::-1]
    next_start = np.concatenate([next_start[:, 1:], np.full((k, 1), n, dtype=np.int8)], axis=1)
    rows = np.arange(k)
    rank = np.argsort(np.argsort([str(v + 1) for v in range(n)], kind="stable"))
    tokens = np.zeros((2 * n, k), dtype=np.int8)
    start = cur = starts.min(axis=1, initial=n)
    live = cur < n
    tokens[0, ~live] = 1  # "()"
    for q in range(n):
        here = np.where(live, cur, 0)
        after = P[rows, here]
        closes = after == start
        following = next_start[rows, start % n]
        sep = np.where(closes, np.where(following < n, 2, 1), 0)
        tokens[2 * q] = np.where(live, 3 + rank[here], 0)
        tokens[2 * q + 1] = np.where(live, sep, 0)
        start = np.where(closes, following, start)
        cur = np.where(closes, following, after)
        live &= cur < n
    # pack the 4-bit tokens, most significant first, into as few int64
    # sort keys as hold them
    keys, key, used = [], np.zeros(k, dtype=np.int64), 0
    for t in tokens:
        if used + 4 > 63:
            keys.append(key)
            key, used = np.zeros(k, dtype=np.int64), 0
        key = (key << 4) | t.astype(np.int64)
        used += 4
    keys.append(key)
    ranks = np.empty(k, dtype=np.intp)
    ranks[np.lexsort(keys[::-1])] = np.arange(k)
    return ranks


def perm_keys(P: np.ndarray) -> np.ndarray:
    """One int64 key per row for the permutation part alone,
    sum_i P[i] n^i: encode's key before the sign bits are shifted in."""
    n = P.shape[1]
    if n > MAX_KEY_DEGREE:
        raise ValueError(f"degree {n} exceeds the int64 key range")
    # Horner's rule, one column at a time: no k x n int64 temporaries
    keys = np.zeros(len(P), dtype=np.int64)
    for i in reversed(range(n)):
        keys *= n
        keys += P[:, i]
    return keys


def encode(P: np.ndarray, A: np.ndarray) -> np.ndarray:
    """One int64 key per row, (sum_i P[i] n^i) 2^n + sum_i A[i] 2^i;
    injective on B_n for n <= MAX_KEY_DEGREE."""
    keys = perm_keys(P)
    for i in reversed(range(P.shape[1])):
        keys <<= 1
        keys += A[:, i]
    return keys


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
        perm = list(range(n))
        for i in range(n - 1, 0, -1):
            k = (i + 1).bit_length()
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
