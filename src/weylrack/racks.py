"""Finite racks, the sq test, and type-D certificates.

A conjugacy class is a rack under x |> y = x y x^-1.  A pair of disjoint
nonempty subracks R, S with y|>x in R and x|>y in S (for x in R, y in S)
together with r in R, s in S such that sq(r, s) != s is a type-D
certificate; it proves the class is of type D.

Certificate search is constructive-first: closed-form constructions keyed
by the cycle type, then pullback along the projection to S_n, then a
two-seed closure search, then randomized bipartition repair.  Absence of a
certificate is always reported as inconclusive, never as "not of type D".
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .conjugacy import ConjugacyClass
from .groups import (
    GroupContext,
    Permutation,
    SignedPermutation,
    Sn,
    conjugate_rows,
    encode,
    juxtapose_rows,
    to_arrays,
)


def sq(x, y):
    """sq(x, y) = x |> (y |> (x |> y)) for group elements or rack pairs."""
    return x.conjugate(y.conjugate(x.conjugate(y)))


# -- closed forms for sq in B_n (Lemma-style sign formulas) ----------------


def _xor(u: tuple, v: tuple) -> tuple:
    return tuple(map(int.__xor__, u, v))


def sq_signed(x: SignedPermutation, y: SignedPermutation) -> tuple:
    """Closed form for sq((a,tau),(b,mu)) = (c, lambda), no hypotheses.

    c   = a + tau.[b + mu.(a + tau.b + (tau|>mu).a) + (mu|>(tau|>mu)).b]
          + (tau|>(mu|>(tau|>mu))).a
    lam = tau|>(mu|>(tau|>mu))
    """
    a, tau = x.sign, x.perm
    b, mu = y.sign, y.perm
    tm = tau.conjugate(mu)  # tau|>mu
    mtm = mu.conjugate(tm)  # mu|>(tau|>mu)
    lam = tau.conjugate(mtm)
    inner = _xor(_xor(b, mu.act_on_signs(_xor(_xor(a, tau.act_on_signs(b)), tm.act_on_signs(a)))), mtm.act_on_signs(b))
    c = _xor(_xor(a, tau.act_on_signs(inner)), lam.act_on_signs(a))
    return c, lam


def sq_signed_commuting(x: SignedPermutation, y: SignedPermutation) -> tuple:
    """Closed form when the permutation parts commute:

    c = a + tau mu.a + tau mu^2.a + mu.a + tau.b + tau^2 mu.b + tau mu.b,
    and lambda = mu.
    """
    tau, mu = x.perm, y.perm
    if not tau.commutes_with(mu):
        raise ValueError("permutation parts do not commute")
    c = _xor(_xor(collapse_lhs(x.sign, tau, mu), collapse_rhs(y.sign, tau, mu)), y.sign)
    return c, mu


def collapse_lhs(a: tuple, tau: Permutation, mu: Permutation) -> tuple:
    """a + tau mu.a + tau mu^2.a + mu.a (commuting case)."""
    out = a
    tm = tau * mu
    for p in (tm, tm * mu, mu):
        out = _xor(out, p.act_on_signs(a))
    return out


def collapse_rhs(b: tuple, tau: Permutation, mu: Permutation) -> tuple:
    """b + tau.b + tau^2 mu.b + tau mu.b (commuting case)."""
    out = b
    tm = tau * mu
    for p in (tau, tau * tm, tm):
        out = _xor(out, p.act_on_signs(b))
    return out


def sq_fixes_second(x: SignedPermutation, y: SignedPermutation) -> bool:
    """sq(a tau, b mu) == b mu, decided by the commuting-case sign identity."""
    tau, mu = x.perm, y.perm
    if not tau.commutes_with(mu):
        raise ValueError("permutation parts do not commute")
    return collapse_lhs(x.sign, tau, mu) == collapse_rhs(y.sign, tau, mu)


# -- racks ----------------------------------------------------------------


# pairs x |> y computed per block of index rows in op_rows
BLOCK_PAIRS = 1 << 14


class FiniteRack:
    """A finite rack with indexed elements.

    Either backed by an explicit m x m operation table, or by conjugation
    in an ambient group (the usual case here).
    """

    def __init__(self, elements: list, op, source: ConjugacyClass | None = None):
        if source is None:
            self._elements = list(elements)
            self._index = {x: i for i, x in enumerate(self._elements)}
            if len(self._index) != len(self._elements):
                raise ValueError("duplicate rack elements")
        self._op = op
        self._table = None
        # a class rack reads elements, index and size from its class,
        # whose numbering never changes
        self.source = source

    @classmethod
    def from_table(cls, elements: list, table: list) -> "FiniteRack":
        idx = {x: i for i, x in enumerate(elements)}
        rack = cls(elements, lambda x, y: elements[table[idx[x]][idx[y]]])
        m = len(elements)
        rack._table = np.asarray(table, dtype=np.int64).reshape(m, m)
        return rack

    @classmethod
    def from_class(cls, conj_class: ConjugacyClass) -> "FiniteRack":
        return cls(conj_class.elements, lambda x, y: x.conjugate(y), source=conj_class)

    @property
    def elements(self):
        return self._elements if self.source is None else self.source.elements

    @property
    def index(self) -> dict:
        return self._index if self.source is None else self.source.index

    @property
    def size(self) -> int:
        return len(self._elements) if self.source is None else self.source.size

    def find(self, x) -> int:
        """The index of x, -1 if x is not in the rack."""
        return self._index.get(x, -1) if self.source is None else self.source.find(x)

    def op(self, x, y):
        """x |> y."""
        z = self._op(x, y)
        if self.find(z) < 0:
            raise ValueError(f"{x} |> {y} = {z} escapes the rack")
        return z

    def sq(self, x, y):
        return self.op(x, self.op(y, self.op(x, y)))

    def op_rows(self, X, Y):
        """Yield (i, Z) for consecutive blocks of the index list X, where
        Z[k, j] is the index of X[i + k] |> Y[j], or -1 if it escapes the
        rack.  A class rack computes a block with the batched kernel and
        finds its keys in the class; a table rack reads its table; any
        other rack calls its operation."""
        X, Y = np.asarray(X, dtype=np.int64), np.asarray(Y, dtype=np.int64)
        step = max(1, BLOCK_PAIRS // max(1, len(Y)))
        cls = self.source
        for i in range(0, len(X), step):
            Xb = X[i : i + step]
            if self._table is not None:
                Z = self._table[np.ix_(Xb, Y)]
            elif cls is not None:
                PY, AY = cls.P[Y], cls.A[Y]
                images = [conjugate_rows(cls.P[x], cls.A[x], PY, AY) for x in Xb]
                NP = np.concatenate([p for p, _ in images])
                NA = np.concatenate([a for _, a in images])
                Z = cls.locate(encode(NP, NA)).reshape(len(Xb), len(Y))
            else:
                elems, index = self.elements, self.index
                Z = np.array(
                    [[index.get(self._op(elems[x], elems[y]), -1) for y in Y] for x in Xb],
                    dtype=np.int64,
                )
            yield i, Z

    def table(self) -> list:
        return [[self.index[self.op(x, y)] for y in self.elements] for x in self.elements]

    def check_axioms(self, sample: int | None = None, seed: int = 0) -> None:
        """Self-distributivity and left-invertibility; exhaustive unless
        `sample` caps the number of random triples."""
        elems = self.elements
        for x in elems:
            images = {self.op(x, y) for y in elems}
            if len(images) != len(elems):
                raise AssertionError(f"y -> {x} |> y is not a bijection")
        if sample is None:
            triples = product(elems, elems, elems)
        else:
            rng = random.Random(seed)
            triples = (
                (rng.choice(elems), rng.choice(elems), rng.choice(elems))
                for _ in range(sample)
            )
        for x, y, z in triples:
            if self.op(x, self.op(y, z)) != self.op(self.op(x, y), self.op(x, z)):
                raise AssertionError(
                    f"self-distributivity fails at ({x}, {y}, {z})"
                )


def conjugation_rack(conj_class: ConjugacyClass) -> FiniteRack:
    return FiniteRack.from_class(conj_class)


# -- certificates ----------------------------------------------------------


@dataclass(frozen=True)
class TypeDCertificate:
    """Witness that a rack is of type D.

    R, S, r, s are indices into the rack's element ordering.
    """

    rack: FiniteRack
    R: tuple
    S: tuple
    r: int
    s: int
    strategy: str = ""
    notes: tuple = ()

    def to_json(self) -> dict:
        elems = self.rack.elements
        r, s = elems[self.r], elems[self.s]
        payload = {
            "R": list(self.R),
            "S": list(self.S),
            "r": self.r,
            "s": self.s,
            "sq_value": str(self.rack.sq(r, s)),
            "strategy": self.strategy,
        }
        if self.rack.source is not None:
            payload["class"] = self.rack.source.rep.format()
            payload["group"] = repr(self.rack.source.group)
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
    return cert


@dataclass
class CertificateCheck:
    ok: bool
    failures: list = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok


def _closure_failures(rack: FiniteRack, R, S):
    """Yield a message for every pair that breaks subrack or cross
    closure of R and S (index lists), in the order of the pair loops
    R x R, S x S, then R x S with x |> y before y |> x.  Every pair is
    computed; a result outside the rack raises as FiniteRack.op does."""
    m = rack.size
    # member masks carry a False slot at -1 for results outside the rack
    in_R = np.zeros(m + 1, dtype=bool)
    in_R[list(R)] = True
    in_S = np.zeros(m + 1, dtype=bool)
    in_S[list(S)] = True

    def misses(X, Y, member):
        """(i, j, z) for x_i |> y_j = z with member[z] False, in order."""
        for i, Z in rack.op_rows(X, Y):
            bad = ~member[Z]
            if bad.any():
                rows, cols = np.nonzero(bad)
                yield from zip((rows + i).tolist(), cols.tolist(), Z[bad].tolist())

    def message(x, y, z, text):
        if z < 0:
            rack.op(x, y)  # raises: x |> y escapes the rack
        return text

    for X, member, name in ((R, in_R, "R"), (S, in_S, "S")):
        for i, j, z in misses(X, X, member):
            x, y = rack.elements[X[i]], rack.elements[X[j]]
            yield message(x, y, z, f"{name} not closed: {x} |> {y}")
    # R |> S and S |> R, merged into the order of the loop over R x S
    cross = [(i, j, 0, z) for i, j, z in misses(R, S, in_S)]
    cross += [(i, j, 1, z) for j, i, z in misses(S, R, in_R)]
    for i, j, flipped, z in sorted(cross):
        x, y = rack.elements[R[i]], rack.elements[S[j]]
        if flipped:
            yield message(y, x, z, f"cross closure fails: {y} |> {x} not in R")
        else:
            yield message(x, y, z, f"cross closure fails: {x} |> {y} not in S")


def verify_certificate(rack: FiniteRack, cert: TypeDCertificate) -> CertificateCheck:
    """Full check: nonemptiness, disjointness, subrack closure, cross
    closure, and sq(r, s) != s.  Failures carry concrete witnesses."""
    failures = []
    m = rack.size
    if not cert.R or not cert.S:
        failures.append("R and S must be nonempty")
    if any(not 0 <= i < m for i in cert.R) or any(not 0 <= i < m for i in cert.S):
        failures.append("index out of range")
        return CertificateCheck(False, failures)
    if set(cert.R) & set(cert.S):
        failures.append(f"R and S overlap: {sorted(set(cert.R) & set(cert.S))}")
    failures.extend(_closure_failures(rack, cert.R, cert.S))
    if cert.r not in set(cert.R):
        failures.append("r must lie in R")
    if cert.s not in set(cert.S):
        failures.append("s must lie in S")
    if not failures:
        r, s = rack.elements[cert.r], rack.elements[cert.s]
        if rack.sq(r, s) == s:
            failures.append(f"sq({r}, {s}) == {s}")
    return CertificateCheck(not failures, failures)


# -- the subsets the closed-form constructions split along -----------------


def _perm_keys(P: np.ndarray) -> np.ndarray:
    """One key per row for the permutation part alone."""
    return encode(P, np.zeros_like(P))


def perm_cosets(cls: ConjugacyClass) -> dict:
    """Class element indices grouped by permutation part, in class order:
    the class meets the sign-vector coset Z_2^n x| {tau} in the elements
    perm_cosets[tau]; the parts come in order of first appearance."""
    _, first, inverse = np.unique(_perm_keys(cls.P), return_index=True, return_inverse=True)
    rows = np.split(np.argsort(inverse, kind="stable"), np.cumsum(np.bincount(inverse))[:-1])
    return {
        Permutation(cls.P[first[g]].tolist()): rows[g].tolist()
        for g in np.argsort(first).tolist()
    }


def fixed_point_split(cls: ConjugacyClass, f: int) -> tuple:
    """(R, S): the indices of the class elements fixing the 0-based point
    f, split by their sign bit at f (R positive, S negative), in class
    order."""
    fixing = np.flatnonzero(cls.P[:, f] == f)
    negative = cls.A[fixing, f] == 1
    return fixing[~negative].tolist(), fixing[negative].tolist()


def _first_by_perm(cls: ConjugacyClass, rows: list) -> dict:
    """{permutation part: first of `rows` with it}, in order of `rows`."""
    _, first = np.unique(_perm_keys(cls.P[rows]), return_index=True)
    return {Permutation(cls.P[rows[i]].tolist()): rows[i] for i in np.sort(first).tolist()}


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


# shared cache of S_n-rack search results, keyed by (n, cycle type, seed),
# since the seed decides which certificate is found
_SN_CACHE: dict = {}


def find_type_d_certificate(rack: FiniteRack, seed: int = 0) -> SearchResult:
    """Try the strategies in order; the first certificate found wins.
    Every strategy takes (rack, seed); only the randomized repair, and the
    pullback through its search downstairs, use the seed."""
    cls = rack.source
    strategies = [("commuting-perm-pair", _strategy_commuting_pair)]
    if cls is not None and cls.group.signed:
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


def _class_rack(rack: FiniteRack) -> ConjugacyClass:
    if rack.source is None:
        raise ValueError("strategy needs a conjugacy-class rack")
    return rack.source


def _strategy_commuting_pair(rack: FiniteRack, seed: int):
    """R and S cut out by two distinct commuting permutation parts.

    Covers the n-cycle / (3^2) / (2^2 3) constructions: there the two
    subracks are the class intersected with Z_2^n x| {tau} and
    Z_2^n x| {mu} for commuting conjugate tau != mu.  Witnesses are found
    through the commuting-case sign identity.
    """
    cls = _class_rack(rack)
    if not cls.group.signed:
        return None  # sq(r, s) == s identically when signs are absent
    tau0 = cls.rep.perm
    if tau0.is_identity():
        return None
    groups = perm_cosets(cls)
    # candidate partners: powers of tau0 first, then every commuting
    # permutation part in the class
    candidates = []
    seen = {tau0}
    p = tau0 * tau0
    while p != tau0:
        if p in groups and p not in seen:
            candidates.append(p)
            seen.add(p)
        p = p * tau0
    for mu in sorted(groups, key=lambda q: q.images):
        if mu not in seen and mu.commutes_with(tau0):
            candidates.append(mu)
            seen.add(mu)
        if len(candidates) >= MAX_COMMUTING_PARTNERS:
            break

    R = groups[tau0]
    for mu in candidates:
        S = groups[mu]
        witness = _commuting_witness(cls, R, S, tau0, mu)
        if witness is None:
            continue
        note = (
            "R and S are the class intersected with the sign-vector "
            f"cosets of {tau0} and {mu}"
        )
        return make_certificate(rack, R, S, *witness, "commuting-perm-pair", (note,))
    return None


def _commuting_witness(cls: ConjugacyClass, R: list, S: list, tau: Permutation, mu: Permutation):
    """First (r, s) in R x S (index lists) with sq(r, s) != s, via the
    sign identity on the sign rows; None if the identity holds on all of
    R x S."""
    rhs = [(collapse_rhs(tuple(cls.A[s].tolist()), tau, mu), s) for s in S]
    for r in R:
        lhs = collapse_lhs(tuple(cls.A[r].tolist()), tau, mu)
        for rv, s in rhs:
            if lhs != rv:
                return r, s
    return None


def _strategy_fixed_point_split(rack: FiniteRack, seed: int):
    """Split the sub-rack of elements fixing a point f by the sign bit at f.

    Needs the class to carry both positive and negative fixed points;
    the witness is any pair whose permutation parts xi, lam satisfy
    sq(xi, lam) != lam.
    """
    cls = _class_rack(rack)
    key = cls.class_key
    if (1, 0) not in key or (1, 1) not in key:
        return None
    fixed = cls.rep.perm.fixed_points()
    if not fixed:
        return None
    f = max(fixed)
    R, S = fixed_point_split(cls, f)
    if not R or not S:
        return None
    strategy = "fixed-point-sign-split"
    notes = (f"split on the sign bit at fixed point {f + 1}",)
    # look for a witness at the level of permutation parts first
    perms_S = _first_by_perm(cls, S)
    for xi, r in _first_by_perm(cls, R).items():
        for lam, s in perms_S.items():
            if sq(xi, lam) != lam:
                return make_certificate(rack, R, S, r, s, strategy, notes)
    # fall back to a direct scan over element pairs
    budget = MAX_WITNESS_PAIRS
    S_elements = [cls.element(s) for s in S[:budget]]  # no more are reached
    for r in R:
        x = cls.element(r)
        for s, y in zip(S, S_elements):
            budget -= 1
            if budget < 0:
                return None
            if sq(x, y) != y:
                return make_certificate(rack, R, S, r, s, strategy, notes)
    return None


def _strategy_pullback(rack: FiniteRack, seed: int):
    """Project to the S_n class of the permutation part, search there, and
    pull the decomposition back through the rack epimorphism."""
    cls = _class_rack(rack)
    tau0 = cls.rep.perm
    if tau0.is_identity():
        return None
    n = cls.group.n
    key = (n, tau0.cycle_type(), seed)
    if key not in _SN_CACHE:
        target = ConjugacyClass(Sn(n), SignedPermutation.from_perm(tau0))
        _SN_CACHE[key] = find_type_d_certificate(FiniteRack.from_class(target), seed)
    result = _SN_CACHE[key]
    if not result:
        return None
    down = result.certificate
    # pi(x) = x.perm, found by key in the S_n class (zero signs); pi is
    # not checked as a RackEpimorphism, whose pair check is quadratic in
    # the class size
    images = down.rack.source.locate(_perm_keys(cls.P))
    R, S, r, s = _preimage(images, down)
    note = (
        f"pulled back along pi from the S_{n} class of {tau0} "
        f"(downstairs strategy: {down.strategy})"
    )
    return make_certificate(rack, R, S, r, s, "projection-pullback", (note,))


def _closure_from_seeds(rack: FiniteRack, x, y, max_size: int):
    """Grow the smallest pair of subsets containing x, y that is closed
    under the decomposition rules; None on collision or size overflow."""
    R, S = {x}, {y}
    queue = [(x, 0), (y, 1)]
    while queue:
        u, side = queue.pop()
        mine, other = (R, S) if side == 0 else (S, R)
        for v in list(mine):
            for w in (rack.op(u, v), rack.op(v, u)):
                if w not in mine:
                    if w in other:
                        return None
                    mine.add(w)
                    queue.append((w, side))
        for v in list(other):
            uv = rack.op(u, v)  # lands on the other side
            vu = rack.op(v, u)  # lands on ours
            if uv not in other:
                if uv in mine:
                    return None
                other.add(uv)
                queue.append((uv, 1 - side))
            if vu not in mine:
                if vu in other:
                    return None
                mine.add(vu)
                queue.append((vu, side))
        if len(R) + len(S) > max_size:
            return None
    return R, S


def _grown_witness(rack: FiniteRack, x, y):
    """Grow the closure of the seeds x, y and scan it for a witness pair:
    (R, S, r, s) as rack indices, or None if either step fails."""
    grown = _closure_from_seeds(rack, x, y, MAX_CLOSURE_SIZE)
    if grown is None:
        return None
    witness = _witness_scan(rack, *grown, MAX_WITNESS_PAIRS)
    if witness is None:
        return None
    idx = rack.index
    R, S = ([idx[u] for u in side] for side in grown)
    return R, S, idx[witness[0]], idx[witness[1]]


def _strategy_seed_closure(rack: FiniteRack, seed: int):
    """Two-seed closure: every decomposition generated by one element on
    each side is found by this scan."""
    elems = rack.elements
    budget = MAX_SEED_PAIRS
    for i, x in enumerate(elems):
        for j, y in enumerate(elems):
            if i == j:
                continue
            budget -= 1
            if budget < 0:
                return None
            found = _grown_witness(rack, x, y)
            if found is not None:
                note = f"grown from seeds {x}, {y}"
                return make_certificate(rack, *found, "seed-closure", (note,))
    return None


def _witness_scan(rack: FiniteRack, R, S, budget: int):
    for r in sorted(R, key=lambda u: rack.index[u]):
        for s in sorted(S, key=lambda u: rack.index[u]):
            budget -= 1
            if budget < 0:
                return None
            if rack.sq(r, s) != s:
                return r, s
    return None


def _strategy_exhaustive(rack: FiniteRack, seed: int):
    """All assignments of elements to {R, S, neither}; only for tiny racks.

    The assignments are taken in the order of product((0, 1, 2), repeat=m)
    and decided on the operation table a block at a time: R and S are
    closed iff x |> y lands on the side of y for all x, y in R u S, and a
    witness exists iff sq(r, s) != s for some r in R, s in S."""
    elems = rack.elements
    m = len(elems)
    T = np.asarray(rack.table(), dtype=np.int64).reshape(m, m)
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
    elems = rack.elements
    if len(elems) < 2:
        return None
    for _ in range(RANDOM_RESTARTS):
        x, y = rng.sample(elems, 2)
        found = _grown_witness(rack, x, y)
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
    if cls is None:
        raise ValueError("certificate must come from a conjugacy-class rack")
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


class RackEpimorphism:
    """A surjective rack homomorphism, verified on construction.

    `images[i]` is the target index of the image of source element i.
    Homomorphy, f(x |> y) = f(x) |> f(y), is checked on the index tables
    of `op_rows` as images[Z_source] == Z_target; the first failing pair,
    in source-element order, is re-checked on the objects, which names
    it and raises."""

    def __init__(self, source: FiniteRack, target: FiniteRack, mapping):
        self.source = source
        self.target = target
        self.mapping = mapping
        index = target.index
        images = []
        for x in source.elements:
            fx = mapping(x)
            if fx not in index:
                raise ValueError(f"image {fx} is not in the target rack")
            images.append(index[fx])
        if len(set(images)) != target.size:
            raise ValueError("mapping is not surjective")
        self.images = np.array(images, dtype=np.int64)
        elems = source.elements
        every = np.arange(source.size)
        tables = zip(source.op_rows(every, every), target.op_rows(self.images, self.images))
        for (i, Z), (_, W) in tables:
            bad = np.argwhere((Z < 0) | (W < 0) | (self.images[Z] != W))
            if len(bad):
                k, j = bad[0].tolist()
                x, y = elems[i + k], elems[j]
                self._check_pair(x, y)
                raise AssertionError(
                    f"index tables and rack operations disagree at ({x}, {y})"
                )

    def _check_pair(self, x, y) -> None:
        f = self.mapping
        if f(self.source.op(x, y)) != self.target.op(f(x), f(y)):
            raise ValueError(f"not a rack homomorphism at ({x}, {y})")

    def __call__(self, x):
        return self.mapping(x)


def pullback_type_d(
    hom: RackEpimorphism, cert: TypeDCertificate
) -> TypeDCertificate:
    """Pull a certificate back along a rack epimorphism: preimages of R
    and S with any lifts of r and s."""
    if cert.rack is not hom.target:
        raise ValueError("certificate does not live on the target rack")
    _require_valid(cert)
    R, S, r, s = _preimage(hom.images, cert)
    if r is None or s is None:
        raise ValueError("empty fiber over r or s")
    return make_certificate(hom.source, R, S, r, s, "epimorphism-pullback", ())
