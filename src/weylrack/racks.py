"""Finite racks, the sq test, and type-D certificates.

A conjugacy class is a rack under x |> y = x y x^-1.  A pair of disjoint
nonempty subracks R, S with y|>x in R and x|>y in S (for x in R, y in S)
together with r in R, s in S such that sq(r, s) != s is a type-D
certificate; it proves the class is of type D.

Certificate search is constructive-first: closed-form constructions keyed
by the cycle type, on the permutation rows of the class, then pullback
along the projection to S_n (its search cached by tau0 and the seed),
then a two-seed closure search, then randomized bipartition repair.
Absence of a certificate is always reported as inconclusive, never as
"not of type D".
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from itertools import islice, permutations

import numpy as np

from .conjugacy import ConjugacyClass
from .groups import (
    GroupContext,
    Permutation,
    SignedPermutation,
    Sn,
    act_rows,
    compose_rows,
    conjugate_pairs,
    conjugate_rows,
    encode,
    invert_rows,
    juxtapose_rows,
    perm_keys,
    prove_from_generators,
    to_arrays,
)


# -- closed forms for sq in B_n (Lemma-style sign formulas), on rows -------
#
# x = (a, tau) and y = (b, mu) are paired rows of (P, A) and (Q, B), or one
# row for every row of the other side; tau.a is the sign action
# (tau.a)_i = a_{tau^-1(i)} of act_rows.


def _perm_conjugate(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Row-wise tau |> mu = tau mu tau^-1 on permutation rows."""
    return compose_rows(compose_rows(P, Q), invert_rows(P))


def sq_signed(P: np.ndarray, A: np.ndarray, Q: np.ndarray, B: np.ndarray) -> tuple:
    """Closed form for sq((a,tau),(b,mu)) = (c, lambda), no hypotheses, as
    the rows (Lambda, C):

    c   = a + tau.[b + mu.(a + tau.b + (tau|>mu).a) + (mu|>(tau|>mu)).b]
          + (tau|>(mu|>(tau|>mu))).a
    lam = tau|>(mu|>(tau|>mu))
    """
    tm = _perm_conjugate(P, Q)  # tau|>mu
    mtm = _perm_conjugate(Q, tm)  # mu|>(tau|>mu)
    lam = _perm_conjugate(P, mtm)
    inner = B ^ act_rows(Q, A ^ act_rows(P, B) ^ act_rows(tm, A)) ^ act_rows(mtm, B)
    return lam, A ^ act_rows(P, inner) ^ act_rows(lam, A)


def _require_commuting(P: np.ndarray, Q: np.ndarray) -> None:
    if (compose_rows(P, Q) != compose_rows(Q, P)).any():
        raise ValueError("permutation parts do not commute")


def sq_signed_commuting(P: np.ndarray, A: np.ndarray, Q: np.ndarray, B: np.ndarray) -> tuple:
    """Closed form when the permutation parts commute, as (Lambda, C):

    c = a + tau mu.a + tau mu^2.a + mu.a + tau.b + tau^2 mu.b + tau mu.b,
    and lambda = mu.  Refuses rows whose parts do not commute.
    """
    _require_commuting(P, Q)
    return Q, collapse_lhs(A, P, Q) ^ collapse_rhs(B, P, Q) ^ B


def collapse_lhs(A: np.ndarray, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """a + tau mu.a + tau mu^2.a + mu.a (commuting case), row-wise."""
    tm = compose_rows(P, Q)
    return A ^ act_rows(tm, A) ^ act_rows(compose_rows(tm, Q), A) ^ act_rows(Q, A)


def collapse_rhs(B: np.ndarray, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """b + tau.b + tau^2 mu.b + tau mu.b (commuting case), row-wise."""
    tm = compose_rows(P, Q)
    return B ^ act_rows(P, B) ^ act_rows(compose_rows(P, tm), B) ^ act_rows(tm, B)


def sq_fixes_second(P: np.ndarray, A: np.ndarray, Q: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Row-wise sq(a tau, b mu) == b mu, decided by the commuting-case sign
    identity; refuses rows whose parts do not commute."""
    _require_commuting(P, Q)
    return (collapse_lhs(A, P, Q) == collapse_rhs(B, P, Q)).all(axis=1)


# -- racks ----------------------------------------------------------------


# pairs x |> y computed per block of index rows in op_rows
BLOCK_PAIRS = 1 << 14


class FiniteRack:
    """A conjugacy class as a finite rack on its indices 0..m-1, where
    x |> y = x y x^-1 is computed on the class rows, whose numbering never
    changes.  A small class keeps its m x m index table as well (see
    from_class).  `elements` are what the reports print."""

    def __init__(self, *, source: ConjugacyClass):
        """Use from_class; a rack built here has no table."""
        self.source = source
        self._table = None

    @classmethod
    def from_class(cls, conj_class: ConjugacyClass) -> "FiniteRack":
        """The class as a rack; a class whose table fits in one block of
        op_rows keeps the table, so the many tiny calls of a search on a
        small class are lookups."""
        rack = cls(source=conj_class)
        if conj_class.size**2 <= BLOCK_PAIRS:
            rack._table = rack.table()
        return rack

    @property
    def elements(self):
        return self.source.elements

    @property
    def size(self) -> int:
        return self.source.size

    def _locate(self, P: np.ndarray, A: np.ndarray) -> np.ndarray:
        """The class indices of the rows (P, A); a row outside the class
        would mean the class is not closed under conjugation, and raises."""
        Z = self.source.locate(encode(P, A))
        if (Z < 0).any():
            raise ValueError(f"a conjugate leaves the class of {self.source.rep}")
        return Z

    def op(self, x, y):
        """x |> y on indices, elementwise with NumPy broadcasting: an int
        for two ints, else an index array.  A class rack without a table
        forms x y x^-1 on the class rows."""
        if self._table is not None:
            z = self._table[x, y]
        else:
            cls = self.source
            shape = np.broadcast_shapes(np.shape(x), np.shape(y))
            X, Y = (np.broadcast_to(v, shape).ravel() for v in (x, y))
            P, A = conjugate_pairs(cls.P[X], cls.A[X], cls.P[Y], cls.A[Y])
            z = self._locate(P, A).reshape(shape)
        return int(z) if np.ndim(z) == 0 else z

    def sq(self, x, y):
        """sq(x, y) = x |> (y |> (x |> y)) on indices, broadcast as op."""
        return self.op(x, self.op(y, self.op(x, y)))

    def op_rows(self, X, Y):
        """Yield (i, Z) for consecutive blocks of the index list X, where
        Z[k, j] = X[i + k] |> Y[j]: op on the Cartesian product.  A rack
        with a table reads it; one without conjugates Y by the whole block
        of x at once (conjugate_rows, with the inverse rows of Y taken once
        per call) and finds all the keys of the block with one locate."""
        X, Y = np.asarray(X, dtype=np.int64), np.asarray(Y, dtype=np.int64)
        step = max(1, BLOCK_PAIRS // max(1, len(Y)))
        cls = self.source
        if self._table is None:
            PY, AY = cls.P[Y], cls.A[Y]
            PYinv = invert_rows(PY)
        for i in range(0, len(X), step):
            Xb = X[i : i + step]
            if self._table is not None:
                Z = self._table[np.ix_(Xb, Y)]
            else:
                # entry [j, k] of the block is x_k |> y_j
                NP, NA = conjugate_rows(cls.P[Xb], cls.A[Xb], PY, AY, PYinv)
                n = cls.group.n
                Z = self._locate(NP.reshape(-1, n), NA.reshape(-1, n))
                Z = Z.reshape(len(Y), len(Xb)).T
            yield i, Z

    def table(self) -> np.ndarray:
        """The m x m index table of x |> y."""
        every = np.arange(self.size)
        return np.concatenate([Z for _, Z in self.op_rows(every, every)])


# -- certificates ----------------------------------------------------------


@dataclass(frozen=True)
class TypeDCertificate:
    """Witness that a rack is of type D.

    R, S, r, s are indices into the rack's element ordering.  `sq` is the
    index of sq(r, s) as make_certificate's verification found it, not
    compared; a certificate built without it computes it in to_json.
    """

    rack: FiniteRack
    R: tuple
    S: tuple
    r: int
    s: int
    strategy: str = ""
    notes: tuple = ()
    sq: int | None = field(default=None, compare=False, repr=False)

    def to_json(self) -> dict:
        sq = self.rack.sq(self.r, self.s) if self.sq is None else self.sq
        payload = {
            "R": list(self.R),
            "S": list(self.S),
            "r": self.r,
            "s": self.s,
            "sq_value": str(self.rack.elements[sq]),
            "strategy": self.strategy,
            "class": self.rack.source.rep.format(),
            "group": repr(self.rack.source.group),
        }
        if self.notes:
            payload["notes"] = list(self.notes)
        return payload


def make_certificate(
    rack: FiniteRack, R, S, r: int, s: int, strategy: str, notes: tuple
) -> TypeDCertificate:
    """The certificate with subracks R, S and witness pair (r, s), all
    given as indices into the rack; R and S are stored sorted.

    Every certificate is verified here, where it is built; an invalid one
    means the construction named by `strategy` is wrong, and raises."""
    cert = TypeDCertificate(
        rack,
        tuple(sorted(map(int, R))),
        tuple(sorted(map(int, S))),
        int(r),
        int(s),
        strategy,
        notes,
    )
    check = verify_certificate(rack, cert)
    if not check.ok:
        raise AssertionError(
            f"strategy {strategy} produced an invalid certificate: {check.failures}"
        )
    return replace(cert, sq=check.sq)


@dataclass
class CertificateCheck:
    """The verdict, the failures found, and the index of sq(r, s) when the
    check got as far as computing it."""

    ok: bool
    failures: list = field(default_factory=list)
    sq: int | None = None

    def __bool__(self) -> bool:
        return self.ok


def verify_certificate(rack: FiniteRack, cert: TypeDCertificate) -> CertificateCheck:
    """Full check: nonemptiness, no repeated index, disjointness, subrack
    closure, cross closure, and sq(r, s) != s.  Once R and S are nonempty
    and disjoint, R |> R in R, S |> S in S, R |> S in S and S |> R in R
    are proved from generators, and a failure names one pair.

    Lemma.  Let H = {a : phi_a(R) = R and phi_a(S) = S}; it is closed
    under |> (see `prove_from_generators`).  An injective map of a finite
    set that maps R into R maps it onto R.  So if every generator g of
    R u S maps R into R and S into S, R u S lies in H, which is all four
    conditions.  The lemma needs the rack axioms, which conjugation
    satisfies.  The first map with an image on the wrong side, or outside
    R u S, names its first such u."""
    failures = []
    m, elems = rack.size, rack.elements
    if not cert.R or not cert.S:
        failures.append("R and S must be nonempty")
    if any(not 0 <= i < m for i in cert.R) or any(not 0 <= i < m for i in cert.S):
        failures.append("index out of range")
        return CertificateCheck(False, failures)
    for name, X in (("R", cert.R), ("S", cert.S)):
        X = np.asarray(X, dtype=np.int64)
        order = np.argsort(X, kind="stable")  # the places of each index in turn
        repeats = order[1:][np.diff(X[order]) == 0]  # the places after its first
        if repeats.size:
            failures.append(f"{name} repeats index {X[repeats.min()]}")
    if set(cert.R) & set(cert.S):
        failures.append(f"R and S overlap: {sorted(set(cert.R) & set(cert.S))}")
    U = np.array([*cert.R, *cert.S], dtype=np.int64)
    side = np.full(m, -1, dtype=np.int8)
    side[U] = np.repeat([0, 1], [len(cert.R), len(cert.S)])
    at = np.zeros(m, dtype=np.int64)  # rack index -> position in U
    at[U] = np.arange(len(U))

    def image(k):
        ((_, Z),) = rack.op_rows(U[k : k + 1], U)
        bad = np.flatnonzero(side[Z[0]] != side[U])
        if not bad.size:
            return at[Z[0]]
        g, u = int(U[k]), int(U[bad[0]])
        x, y, name = elems[g], elems[u], "RS"[side[u]]
        if side[g] == side[u]:
            failures.append(f"{name} not closed: {x} |> {y}")
        else:
            failures.append(f"cross closure fails: {x} |> {y} not in {name}")

    if not failures:
        prove_from_generators(len(U), image)
    if cert.r not in cert.R:
        failures.append("r must lie in R")
    if cert.s not in cert.S:
        failures.append("s must lie in S")
    sq = None if failures else rack.sq(cert.r, cert.s)
    if sq == cert.s:
        r, s = elems[cert.r], elems[cert.s]
        failures.append(f"sq({r}, {s}) == {s}")
    return CertificateCheck(not failures, failures, sq)


# -- the subsets the closed-form constructions split along -----------------


def _perm_keys(P: np.ndarray) -> np.ndarray:
    """One key per row for the permutation part alone: encode's key of
    the row with zero signs."""
    return perm_keys(P) << P.shape[1]


def _perm_parts(cls: ConjugacyClass) -> tuple:
    """(parts, coset): the distinct permutation parts of the class as
    rows, in order of first appearance, and coset(g), the class indices
    of the elements with part g in class order: the class meets the
    sign-vector coset Z_2^n x| {parts[g]} there.  Row 0 is the
    representative, so part 0 is its permutation part tau0.  One stable
    sort of the part keys groups the class."""
    keys = _perm_keys(cls.P)
    order = np.argsort(keys, kind="stable")
    lo = np.flatnonzero(np.diff(keys[order], prepend=-1))
    hi = np.append(lo[1:], len(order))
    first = np.argsort(order[lo])  # the groups in order of first appearance
    lo, hi = lo[first], hi[first]
    return cls.P[order[lo]], lambda g: order[lo[g] : hi[g]]


def fixed_point_split(cls: ConjugacyClass, f: int) -> tuple:
    """(R, S): the index arrays of the class elements fixing the 0-based
    point f, split by their sign bit at f (R positive, S negative), in
    class order."""
    fixing = np.flatnonzero(cls.P[:, f] == f)
    negative = cls.A[fixing, f] == 1
    return fixing[~negative], fixing[negative]


# -- search ----------------------------------------------------------------


# search budgets; the seed of the randomized repair is the only setting
MAX_COMMUTING_PARTNERS = 200
MAX_SEED_PAIRS = 40000
MAX_CLOSURE_SIZE = 4000
MAX_WITNESS_PAIRS = 20000
EXHAUSTIVE_LIMIT = 10
RANDOM_RESTARTS = 50


@dataclass
class SearchResult:
    certificate: TypeDCertificate | None
    attempted: list
    exhausted: bool = False

    def __bool__(self) -> bool:
        return self.certificate is not None


# shared cache of S_n-rack search results, keyed by (tau0's images, seed):
# all that decides the certificate found
_SN_CACHE: dict = {}


def clear_search_cache() -> None:
    """Empty the cache of S_n searches.  Its keys hold all that decides a
    search, so this changes no result; scan_classes calls it when it
    returns, which bounds the cache by the classes of one scan."""
    _SN_CACHE.clear()


def find_type_d_certificate(rack: FiniteRack, seed: int = 0) -> SearchResult:
    """Try the strategies in order; the first certificate found wins.
    Every strategy takes (rack, seed); only the randomized repair, and the
    pullback through its search downstairs, use the seed.  The fixed-point
    split and the pullback are tried on classes of B_n only."""
    strategies = [("commuting-perm-pair", _strategy_commuting_pair)]
    if rack.source.group.signed:
        strategies.append(("fixed-point-sign-split", _strategy_fixed_point_split))
        strategies.append(("projection-pullback", _strategy_pullback))
    strategies.append(("seed-closure", _strategy_seed_closure))
    if rack.size <= EXHAUSTIVE_LIMIT:
        strategies.append(("exhaustive-bipartition", _strategy_exhaustive))
    strategies.append(("randomized-repair", _strategy_randomized))

    attempted = []
    for name, fn in strategies:
        attempted.append(name)
        cert = fn(rack, seed)
        if cert is not None:
            return SearchResult(cert, attempted)
    return SearchResult(None, attempted, exhausted="exhaustive-bipartition" in attempted)


def _commuting_partners(parts: np.ndarray) -> list:
    """The partners tried for tau0 = parts[0], as indices into the rows
    `parts` of _perm_parts: first the powers tau0^2, tau0^3, ... that are
    parts, then every other part commuting with tau0, in lexicographic
    order of images; MAX_COMMUTING_PARTNERS in all."""
    tau0 = parts[:1]
    index = {k: g for g, k in enumerate(_perm_keys(parts).tolist())}
    tried, p = [0], compose_rows(tau0, tau0)
    while (p != tau0).any():
        tried += [index[k] for k in _perm_keys(p).tolist() if k in index]
        p = compose_rows(p, tau0)
    commuting = (compose_rows(parts, tau0) == compose_rows(tau0, parts)).all(axis=1)
    commuting[tried] = False
    order = np.lexsort(parts.T[::-1])
    return (tried[1:] + order[commuting[order]].tolist())[:MAX_COMMUTING_PARTNERS]


def _strategy_commuting_pair(rack: FiniteRack, seed: int):
    """R and S cut out by two distinct commuting permutation parts.

    Covers the n-cycle / (3^2) / (2^2 3) constructions: there the two
    subracks are the class intersected with Z_2^n x| {tau} and
    Z_2^n x| {mu} for commuting conjugate tau != mu.  Witnesses are found
    through the commuting-case sign identity.
    """
    cls = rack.source
    if not cls.group.signed:
        return None  # sq(r, s) == s identically when signs are absent
    if cls.rep.perm.is_identity():
        return None
    parts, coset = _perm_parts(cls)
    R = coset(0)
    for g in _commuting_partners(parts):
        S = coset(g)
        witness = _commuting_witness(cls, R, S, parts[0], parts[g])
        if witness is None:
            continue
        note = (
            "R and S are the class intersected with the sign-vector "
            f"cosets of {cls.rep.perm} and {Permutation(parts[g].tolist())}"
        )
        return make_certificate(rack, R, S, *witness, "commuting-perm-pair", (note,))
    return None


def _commuting_witness(cls: ConjugacyClass, R, S, tau: np.ndarray, mu: np.ndarray):
    """First (r, s) in R x S (index lists, with the commuting permutation
    parts tau and mu) with sq(r, s) != s, via the sign identity on the
    sign rows; None if the identity holds on all of R x S."""
    T, M = tau[None, :], mu[None, :]
    lhs = collapse_lhs(cls.A[R], T, M)
    rhs = collapse_rhs(cls.A[S], T, M)
    # the first r pairs with the first s whose row differs from its own;
    # if there is none, every rhs row equals lhs[0], and a later r differs
    # from all of them, s = S[0] first
    differs = (rhs != lhs[0]).any(axis=1)
    if differs.any():
        return int(R[0]), int(S[np.argmax(differs)])
    differs = (lhs != lhs[0]).any(axis=1)
    if differs.any():
        return int(R[np.argmax(differs)]), int(S[0])
    return None


def _first_by_part(cls: ConjugacyClass, rows: np.ndarray) -> np.ndarray:
    """The first of `rows` with each permutation part, in order of `rows`."""
    _, first = np.unique(_perm_keys(cls.P[rows]), return_index=True)
    return rows[np.sort(first)]


def _part_witness(cls: ConjugacyClass, R: np.ndarray, S: np.ndarray):
    """The first (r, s) in R x S (index arrays) whose permutation parts
    xi, lam have sq(xi, lam) != lam, taking only the first of R and of S
    with each part, row-major in their order; None if there is none.
    sq runs on the zero-sign rows of the parts, in blocks of one x row,
    then two, four, ... up to BLOCK_PAIRS pairs, as a hit comes early."""
    X, Y = _first_by_part(cls, R), _first_by_part(cls, S)
    i, step = 0, 1
    while i < len(X):
        P = cls.P[X[i : i + step]].repeat(len(Y), 0)
        Q = np.tile(cls.P[Y], (len(P) // len(Y), 1))
        zeros = np.zeros_like(P)
        lam, _ = sq_signed(P, zeros, Q, zeros)
        hits = np.flatnonzero((lam != Q).any(axis=1))
        if hits.size:
            k, j = divmod(int(hits[0]), len(Y))
            return int(X[i + k]), int(Y[j])
        i, step = i + step, min(2 * step, max(1, BLOCK_PAIRS // len(Y)))
    return None


def _strategy_fixed_point_split(rack: FiniteRack, seed: int):
    """Split the sub-rack of elements fixing a point f by the sign bit at f.

    Needs the class to carry both positive and negative fixed points;
    the witness is any pair whose permutation parts xi, lam satisfy
    sq(xi, lam) != lam.
    """
    cls = rack.source
    key = cls.class_key
    if (1, 0) not in key or (1, 1) not in key:
        return None
    # swapping f with a fixed point of the other sign moves rep to the
    # other side, so neither R nor S is empty
    f = max(cls.rep.perm.fixed_points())
    R, S = fixed_point_split(cls, f)
    # a witness among the permutation parts first, else among element pairs
    witness = _part_witness(cls, R, S) or _witness_scan(rack, R, S, MAX_WITNESS_PAIRS)
    if witness is None:
        return None
    note = f"split on the sign bit at fixed point {f + 1}"
    return make_certificate(rack, R, S, *witness, "fixed-point-sign-split", (note,))


def _strategy_pullback(rack: FiniteRack, seed: int):
    """Project to the S_n class of the permutation part, search there, and
    pull the decomposition back through the rack epimorphism."""
    cls = rack.source
    tau0 = cls.rep.perm
    if tau0.is_identity():
        return None
    n = cls.group.n
    key = (tau0.images, seed)
    if key not in _SN_CACHE:
        target = ConjugacyClass(Sn(n), SignedPermutation.from_perm(tau0))
        _SN_CACHE[key] = find_type_d_certificate(FiniteRack.from_class(target), seed)
    result = _SN_CACHE[key]
    if not result:
        return None
    down = result.certificate
    # pi is not checked as a RackEpimorphism: it is the restriction of the
    # group homomorphism B_n -> S_n, so it respects conjugation
    R, S, r, s = _preimage(projection(cls, down.rack.source), down)
    note = (
        f"pulled back along pi from the S_{n} class of {tau0} "
        f"(downstairs strategy: {down.strategy})"
    )
    return make_certificate(rack, R, S, r, s, "projection-pullback", (note,))


def _closure_from_seeds(rack: FiniteRack, x: int, y: int, max_size: int):
    """The least pair (R, S) of index arrays with x in R, y in S and
    a |> b on the side of b for all a, b in R u S; None if the sides meet
    or hold more than max_size elements together.

    In a rack phi_{a |> b} = phi_a phi_b phi_a^-1, so the maps phi_a for
    a in R u S generate the group of phi_x and phi_y (Joyce 1982), and R
    and S are the orbits of x and y under it: a breadth-first search
    under x |> . and y |> ., one op_rows call per round."""
    side = np.full(rack.size, -1, dtype=np.int8)
    side[[x, y]] = 0, 1
    frontier = np.array([x, y])
    count = 2
    while frontier.size:
        images = np.concatenate([Z for _, Z in rack.op_rows([x, y], frontier)]).ravel()
        labels = side[np.concatenate([frontier, frontier])]  # images keep their argument's side
        fresh = side[images] < 0
        side[images[fresh]] = labels[fresh]
        if (side[images] != labels).any():
            return None  # the orbits meet
        frontier = np.flatnonzero(np.bincount(images[fresh], minlength=rack.size))
        count += len(frontier)
        if count > max_size:
            return None
    return np.flatnonzero(side == 0), np.flatnonzero(side == 1)


def _grown_witness(rack: FiniteRack, x: int, y: int):
    """Grow the closure of the seeds x, y and scan it for a witness pair:
    (R, S, r, s) as rack indices, or None if either step fails."""
    grown = _closure_from_seeds(rack, x, y, MAX_CLOSURE_SIZE)
    if grown is None:
        return None
    witness = _witness_scan(rack, *grown, MAX_WITNESS_PAIRS)
    return None if witness is None else (*grown, *witness)


def _strategy_seed_closure(rack: FiniteRack, seed: int):
    """Two-seed closure: every decomposition generated by one element on
    each side is found by this scan."""
    for x, y in islice(permutations(range(rack.size), 2), MAX_SEED_PAIRS):
        found = _grown_witness(rack, x, y)
        if found is not None:
            note = f"grown from seeds {rack.elements[x]}, {rack.elements[y]}"
            return make_certificate(rack, *found, "seed-closure", (note,))
    return None


def _witness_scan(rack: FiniteRack, R, S, budget: int):
    """The first (r, s) with sq(r, s) != s among the first `budget` pairs
    of sorted R x sorted S, row-major, all evaluated in one batch; None if
    there is none."""
    R, S = np.sort(R), np.sort(S)
    k = np.arange(min(budget, len(R) * len(S)))
    r, s = R[k // len(S)], S[k % len(S)]
    hits = np.flatnonzero(rack.sq(r, s) != s)
    return (int(r[hits[0]]), int(s[hits[0]])) if hits.size else None


def _strategy_exhaustive(rack: FiniteRack, seed: int):
    """All assignments of elements to {R, S, neither}; only for tiny racks.

    The assignments are taken in the order of product((0, 1, 2), repeat=m)
    and decided on the operation table a block at a time: R and S are
    closed iff x |> y lands on the side of y for all x, y in R u S, and a
    witness exists iff sq(r, s) != s for some r in R, s in S."""
    m = rack.size
    T = rack.table()
    idx = np.arange(m)
    # differs[x, y]: sq(x, y) = x |> (y |> (x |> y)) != y
    differs = T[idx[:, None], T[idx[None, :], T]] != idx[None, :]
    digits = 3 ** idx[::-1]
    step = max(1, BLOCK_PAIRS // max(1, m * m))
    for start in range(0, 3**m, step):
        ks = np.arange(start, min(start + step, 3**m))
        side = (ks[:, None] // digits) % 3
        in_R, in_S = side == 0, side == 1
        used = side < 2
        unclosed = used[:, :, None] & used[:, None, :] & (side[:, T] != side[:, None, :])
        witness = (in_R[:, :, None] & in_S[:, None, :] & differs).any(axis=(1, 2))
        hits = np.flatnonzero(witness & ~unclosed.any(axis=(1, 2)))
        if hits.size:
            R = np.flatnonzero(in_R[hits[0]])
            S = np.flatnonzero(in_S[hits[0]])
            # the first witness pair in R x S, row-major
            i, j = np.argwhere(differs[np.ix_(R, S)])[0]
            return make_certificate(rack, R, S, R[i], S[j], "exhaustive-bipartition", ())
    return None


def _strategy_randomized(rack: FiniteRack, seed: int):
    """Seeded random two-seed restarts; a cheap last resort."""
    rng = random.Random(seed)
    if rack.size < 2:
        return None
    for _ in range(RANDOM_RESTARTS):
        found = _grown_witness(rack, *rng.sample(range(rack.size), 2))
        if found is not None:
            return make_certificate(rack, *found, "randomized-repair", ())
    return None


# -- certificate transport -------------------------------------------------


def _require_valid(cert: TypeDCertificate) -> None:
    """Transports take certificates from their callers, who may have built
    them without make_certificate; refuse an invalid one."""
    check = verify_certificate(cert.rack, cert)
    if not check.ok:
        raise ValueError(f"input certificate is invalid: {check.failures}")


def _preimage(images: np.ndarray, cert: TypeDCertificate) -> tuple:
    """Pull cert's R and S back along a map given by `images`, the index in
    cert.rack of the image of each source element: (R, S, r, s) with R and
    S the preimages, and r, s the first lifts of cert.r and cert.s (None
    for an empty fiber), all as source indices."""

    def first_lift(i: int):
        lifts = np.flatnonzero(images == i)
        return int(lifts[0]) if lifts.size else None

    R = np.flatnonzero(np.isin(images, cert.R))
    S = np.flatnonzero(np.isin(images, cert.S))
    return R, S, first_lift(cert.r), first_lift(cert.s)


def juxtaposition_extend_certificate(
    cert: TypeDCertificate, y: SignedPermutation
) -> TypeDCertificate:
    """Extend a certificate for O_x to one for O_{x # y} by juxtaposing
    every certificate element with the fixed element y."""
    _require_valid(cert)
    cls = cert.rack.source
    x = cls.rep
    ambient = GroupContext(x.n + y.n, signed=True)
    big = ConjugacyClass(ambient, x.juxtapose(y))
    yP, yA = to_arrays([y], y.n)

    def lift(rows) -> np.ndarray:
        """The indices in the big class of t # y for the rows t."""
        rows = list(rows)
        P, A = juxtapose_rows(
            cls.P[rows], cls.A[rows], yP.repeat(len(rows), 0), yA.repeat(len(rows), 0)
        )
        return big.locate(encode(P, A))

    return make_certificate(
        FiniteRack.from_class(big),
        lift(cert.R),
        lift(cert.S),
        *lift([cert.r, cert.s]),
        "juxtaposition-extension",
        (f"extended from {x.format()} by # {y.format()}",),
    )


def projection(cls: ConjugacyClass, down: ConjugacyClass) -> np.ndarray:
    """pi(x) = x.perm for each element x of the B_n class cls, as its index
    in the S_n class down (-1 where it is not there), found by the keys of
    the permutation parts with zero signs."""
    return down.locate(_perm_keys(cls.P))


class RackEpimorphism:
    """A surjective rack homomorphism f, verified on construction.

    `images[i]` is the target index of f of source element i; an array
    of another length, or with an index outside the target, is refused
    first.  Homomorphy, f(g |> y) = f(g) |> f(y), is checked for the
    generators g of the source (`prove_from_generators`) and every y, as
    images[g |> .] == f(g) |> images, and the first failing (g, y) is
    named.  That suffices: once a and b pass, f((a |> b) |> y) =
    f(a) |> (f(b) |> (f(a) |>^-1 f(y))) = (f(a) |> f(b)) |> f(y), so the
    x that pass form a subrack, and the generators' orbit is the whole
    source."""

    def __init__(self, source: FiniteRack, target: FiniteRack, images):
        self.source, self.target = source, target
        self.images = images = np.asarray(images)
        if images.shape != (source.size,) or images.dtype.kind != "i":
            raise ValueError(f"images must be {source.size} target indices, one per source element")
        k = np.flatnonzero((images < 0) | (images >= target.size))[:1]
        if k.size:
            raise ValueError(f"image {images[k[0]]} of element {k[0]} is not in 0..{target.size - 1}")
        if not np.bincount(images, minlength=target.size).all():
            raise ValueError("the map is not surjective")
        every = np.arange(source.size)

        def image(g):
            ((_, Z),) = source.op_rows(every[g : g + 1], every)
            ((_, W),) = target.op_rows(images[g : g + 1], images)
            bad = np.flatnonzero(images[Z[0]] != W[0])
            if bad.size:
                x, y = source.elements[g], source.elements[int(bad[0])]
                raise ValueError(f"not a rack homomorphism at ({x}, {y})")
            return Z[0]

        prove_from_generators(source.size, image)


def pullback_type_d(hom: RackEpimorphism, cert: TypeDCertificate) -> TypeDCertificate:
    """Pull a certificate back along a rack epimorphism: preimages of R
    and S with any lifts of r and s."""
    if cert.rack is not hom.target:
        raise ValueError("certificate does not live on the target rack")
    _require_valid(cert)
    R, S, r, s = _preimage(hom.images, cert)
    if r is None or s is None:
        raise ValueError("empty fiber over r or s")
    return make_certificate(hom.source, R, S, r, s, "epimorphism-pullback", ())
