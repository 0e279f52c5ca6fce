"""Yetter-Drinfeld modules over conjugacy classes, their braidings, and
the arrow-module realization.

The module attached to a class with numeration t_1, ..., t_m, coset
representatives g_i (g_i conjugates the base point to t_i) and a
centralizer representation rho has basis g_i (x) v_j.  The group acts by
h.(g_i v) = g_{i'}(gamma.v) where h g_i = g_{i'} gamma, the coaction
tags g_i v with degree t_i, and the braiding is
c(g_i v (x) g_j w) = t_i.(g_j w) (x) g_i v.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .conjugacy import CosetSystem
from .cyclotomic import Cyclo, integer_value
from .groups import BudgetExceeded, SignedPermutation, conjugate_pairs, encode, rand_int, to_arrays
from .racks import FiniteRack
from .reps import Rep

# peak bytes per basis pair of `YDModule.braiding`'s per-pair term lists,
# about 525 measured under tracemalloc on the B_5 3-cycles (D = 80), so
# the default memory budget admits D up to about 980
BRAIDING_PAIR_BYTES = 560


class YDModule:
    def __init__(self, cosets: CosetSystem, rep: Rep):
        self.cosets = cosets
        self.cls = cosets.cls
        # rho by centralizer index, as the cocycle gives gamma, so the rep
        # must be on the coset system's centralizer
        if not np.array_equal(rep.cent.keys, cosets.centralizer.keys):
            raise ValueError("rep is not a rep of the class centralizer")
        self.matrices = rep.matrices
        self.m = self.cls.size
        self.d = rep.degree
        self.D = self.m * self.d

    # basis index (i, j) <-> flat i*d + j

    def degree_of(self, flat: int) -> SignedPermutation:
        """Coaction: basis vector g_i v_j has comodule degree t_i."""
        return self.cls.elements[flat // self.d]

    def check_yd_compatibility(self, sample: int | None = None):
        """delta(h.w) = h w_(-1) h^-1 (x) h.w_(0): the action must move a
        vector of degree t_i into the degree-(h |> t_i) component; one
        cocycle call for all pairs (h, i), failing at the first in order."""
        group, cls = self.cls.group, self.cls
        if sample is None:
            elems = group.elements()
        else:
            rng = random.Random(0)
            elems = [group.random_element(rng) for _ in range(sample)]
        HP, HA = (np.repeat(X, self.m, axis=0) for X in to_arrays(elems, group.n))
        I = np.tile(np.arange(self.m), len(elems))
        J, _ = self.cosets.zeta(I, HP, HA)
        bad = np.flatnonzero(cls.keys[J] != encode(*conjugate_pairs(HP, HA, cls.P[I], cls.A[I])))
        if bad.size:
            h, i = divmod(int(bad[0]), self.m)
            raise AssertionError(f"YD compatibility fails at h={elems[h]}, class index {i}")

    def braiding(self) -> "Braiding":
        """c(g_i v_p (x) g_j v_q) = t_i.(g_j v_q) (x) g_i v_p, where
        t_i g_j = g_{i |> j} gamma: the targets i |> j are read from the
        rack table of the class, the coefficients rho(gamma)[r][q] by
        centralizer index from one cocycle call for every pair (i, j).
        Refused with BudgetExceeded before any of it is built when its D^2
        pairs at `BRAIDING_PAIR_BYTES` each exceed the memory budget."""
        from .nichols import MEMORY_BUDGET

        if self.D**2 * BRAIDING_PAIR_BYTES > MEMORY_BUDGET:
            raise BudgetExceeded(
                f"a braiding of D = {self.D} needs {self.D**2} basis pairs, over the memory budget"
                f" of {MEMORY_BUDGET} bytes at {BRAIDING_PAIR_BYTES} bytes a pair"
            )
        m, d, cls = self.m, self.d, self.cls
        T = FiniteRack.from_class(cls).table().tolist()
        I, J = np.divmod(np.arange(m * m), m)
        _, C = self.cosets.zeta(J, cls.P[I], cls.A[I])
        C = C.reshape(m, m).tolist()
        # each matrix entry read once, a rational integer as an int
        matrices = [
            [[v if (n := integer_value(v)) is None else n for v in row] for row in M]
            for M in self.matrices
        ]
        terms = {}
        for i in range(m):
            for p in range(d):
                a = i * d + p
                for j in range(m):
                    M, target = matrices[C[i][j]], T[i][j] * d
                    for q in range(d):
                        terms[(a, j * d + q)] = [
                            ((target + r, a), M[r][q]) for r in range(d) if M[r][q]
                        ]
        return Braiding(self.D, terms)


@dataclass
class Braiding:
    """c on V (x) V, stored per basis pair: c(e_a (x) e_b) = sum of
    coeff * e_{a'} (x) e_{b'} over terms[(a,b)], for every pair.

    Built once, the same terms as lookup arrays: the pair p = a*D + b has
    targets a'*D + b' in target[start[p]:start[p] + count[p]] and the same
    slice of the object array `coeff`, where the rational integers of
    conductor 1 are ints.  If all are ints, `norm` is the largest sum of
    |coeff| over one pair's terms (else None), and `coeff64` is coeff in
    int64 when that holds it."""

    D: int
    terms: dict

    def __post_init__(self):
        D = self.D
        outs = [self.terms[divmod(p, D)] for p in range(D * D)]
        self.count = np.array([len(out) for out in outs], dtype=np.int64)
        self.start = np.cumsum(self.count) - self.count
        targets = [a * D + b for out in outs for (a, b), _ in out]
        self.target = np.array(targets, dtype=np.int64)
        values = [v for out in outs for _, v in out]
        ints = [integer_value(v) for v in values]
        self.coeff = np.empty(len(values), dtype=object)
        self.coeff[:] = [v if i is None else i for v, i in zip(values, ints)]
        # one non-zero term per pair, targets all distinct
        self.bijective = self.is_monomial and len(set(targets)) == D * D and all(self.coeff)
        self.norm = None
        if None not in ints:
            bounds = zip(self.start.tolist(), self.count.tolist())
            self.norm = max((sum(map(abs, ints[s : s + n])) for s, n in bounds), default=0)
        self.coeff64 = self.coeff.astype(np.int64) if self.int64_stack(1, 1) else None

    @property
    def is_monomial(self) -> bool:
        return bool((self.count == 1).all())

    def int64_stack(self, letters: int, words: int) -> bool:
        """Can a stack hold in int64 sums of `words` products of `letters`
        coefficients each?  Each such sum is at most norm^letters * words."""
        return self.norm is not None and self.norm**letters * words < 2**63

    def matrix(self) -> list:
        """Dense D^2 x D^2 matrix; row/column index is a*D + b."""
        n = self.D * self.D
        rows = [[Cyclo.rational(0)] * n for _ in range(n)]
        cols = np.repeat(np.arange(n), self.count).tolist()
        for col, row, v in zip(cols, self.target.tolist(), self.coeff):
            rows[row][col] += v
        return rows

    def check_invertible(self):
        """c is a bijection of basis pairs with non-zero coefficients, or
        a non-monomial map of full rank."""
        if self.bijective:
            return
        if self.is_monomial:
            raise AssertionError("monomial braiding is not invertible")
        from .linalg import rank_cyclo_exact

        if rank_cyclo_exact(self.matrix()) != self.D * self.D:
            raise AssertionError("braiding matrix is singular")

    def _apply_at(self, stack: tuple, pos: int, k: int) -> tuple:
        """Apply c at tensor positions (pos, pos+1) of V^(x k) to a stack of
        terms: the one place c is applied.  Term i of the stack (key, coeff)
        is coeff[i] times the basis tuple of flat index key[i] % D^k (base
        D, first position most significant) in column key[i] // D^k.  The
        pair at the positions is read out of the keys, its target written
        back and its coefficient multiplied in, from `coeff64` on an int64
        stack and from `coeff` on an object one.  Unless c is a bijection
        of basis pairs, a pair with several terms repeats its rows and the
        stack is summed by key."""
        key, coeff = stack
        place = self.D ** (k - 2 - pos)
        pair = key // place % (self.D * self.D)
        table = self.coeff64 if coeff.dtype == np.int64 else self.coeff
        if self.bijective:
            term = self.start[pair]
        else:
            count = self.count[pair]
            rows = np.repeat(np.arange(len(key)), count)
            offset = np.repeat(self.start[pair] - (np.cumsum(count) - count), count)
            term = offset + np.arange(len(rows))
            key, coeff, pair = key[rows], coeff[rows], pair[rows]
        key = key + (self.target[term] - pair) * place
        coeff = coeff * table[term]
        if not self.bijective:
            key, coeff = _combine(key, coeff)
        return key, coeff

    def check_braid_equation(self, sample: int | None = None):
        """(c x id)(id x c)(c x id) = (id x c)(c x id)(id x c) on basis
        triples, exhaustive unless sampled: each side lifts all triples as
        one stack, a column each, in int64 for an integral braiding, and the
        first column lhs - rhs leaves names the failing triple."""
        D, D3 = self.D, self.D**3
        if sample is None:
            flat = np.arange(D3, dtype=np.int64)
        else:
            rng = random.Random(0)
            triples = [[rand_int(rng, 0, D - 1) for _ in range(3)] for _ in range(sample)]
            flat = np.array(triples, dtype=np.int64).reshape(-1, 3) @ [D * D, D, 1]
        key = np.arange(len(flat), dtype=np.int64) * D3 + flat
        ones = np.ones(len(flat), np.int64 if self.int64_stack(3, 2) else object)
        lhs, rhs = (key, ones), (key, -ones)
        for p, q in ((0, 1), (1, 0), (0, 1)):
            lhs, rhs = self._apply_at(lhs, p, 3), self._apply_at(rhs, q, 3)
        key, _ = _combine(np.concatenate([lhs[0], rhs[0]]), np.concatenate([lhs[1], rhs[1]]))
        if len(key):
            t = int(flat[key[0] // D3])
            tup = (t // (D * D), t // D % D, t % D)
            raise AssertionError(f"braid equation fails on basis {tup}")


def _combine(key: np.ndarray, coeff: np.ndarray) -> tuple:
    """Sum the coefficients of equal keys and drop the zero sums; the
    keys come back sorted.  One sort, then np.add.reduceat over the runs."""
    order = np.argsort(key)
    key = key[order]
    first = np.flatnonzero(np.diff(key, prepend=key[:1] - 1))  # each run's start
    sums = np.add.reduceat(coeff[order], first)
    nonzero = sums.astype(bool)
    return key[first[nonzero]], sums[nonzero]


def build_yd_module(cosets: CosetSystem, rep: Rep) -> YDModule:
    """The module, with its Yetter-Drinfeld compatibility checked: on every
    group element up to 2000 of them, on 500 samples beyond."""
    mod = YDModule(cosets, rep)
    n_elems = cosets.cls.group.order
    mod.check_yd_compatibility(sample=None if n_elems <= 2000 else 500)
    return mod


# -- arrow realization -----------------------------------------------------


class ArrowYDModule:
    """The span of arrows a_{t_i, 1} of a Hopf quiver with a single class
    and a single character (the PM one-dimensional case).

    The group acts on arrows by g.a_{y,x} = a_{gy,gx} on the left and
    a_{t_i, 1}.g = chi(zeta_i(g)) a_{t_i g, g} on the right, where
    zeta_i(g) solves g^-1 g_i = g_j zeta_i(g) in the coset system; the
    adjoint action g |> a = g.a.g^-1 closes on the basis arrows.
    """

    def __init__(self, cosets: CosetSystem, chi: Rep):
        if chi.degree != 1:
            raise NotImplementedError(
                "arrow modules are implemented for one-dimensional characters"
            )
        if not np.array_equal(chi.cent.keys, cosets.centralizer.keys):
            raise ValueError("character is not a character of the class centralizer")
        self.cosets = cosets
        self.cls = cosets.cls
        self.chi = chi
        self.m = self.cls.size

    def cocycle(self, i: int, g: SignedPermutation) -> tuple:
        """(j, zeta_i(g)) with g^-1 g_i = g_j zeta_i(g), solved directly
        against the class numeration (independent of CosetSystem.zeta).

        This deliberately re-derives the coset cocycle instead of calling
        CosetSystem.zeta: the arrow-isomorphism check and its corrupted
        coset-table control compare the two, so a shared derivation would
        make that check vacuous."""
        target = g.inverse() * self.cosets[i]
        t_j = g.inverse().conjugate(self.cls.elements[i])
        j = self.cls.find(t_j)
        if j < 0:
            raise AssertionError("cocycle target left the class")
        gamma = self.cosets[j].inverse() * target
        base = self.cls.rep
        if gamma * base != base * gamma:
            raise AssertionError("cocycle value escaped the centralizer")
        return j, gamma

    def right_action(self, i: int, g: SignedPermutation) -> tuple:
        """a_{t_i,1}.g = coeff * a_{t_i g, g}; returns (arrow, coeff)."""
        _, gamma = self.cocycle(i, g)
        coeff = self.chi(gamma)[0][0]
        return (self.cls.elements[i] * g, g), coeff

    def adjoint(self, g: SignedPermutation, i: int) -> tuple:
        """g |> a_{t_i,1} = g.(a_{t_i,1}.g^-1); returns (i', coeff), i' = -1
        if the arrow left the class."""
        (y, x), coeff = self.right_action(i, g.inverse())
        # left multiply: arrow (y, x) -> (g y, g x); g x = 1 here
        y2, x2 = g * y, g * x
        if not x2.is_identity():
            raise AssertionError("adjoint action left the unit-vertex arrows")
        return self.cls.find(y2), coeff

    def degree_of(self, i: int) -> SignedPermutation:
        return self.cls.elements[i]


@dataclass
class PsiCheckResult:
    ok: bool
    witness: dict | None = None

    def __bool__(self) -> bool:
        return self.ok


def psi_isomorphism_check(yd: YDModule, arrow: ArrowYDModule) -> PsiCheckResult:
    """Check that psi: g_i v |-> a_{t_i,1} is a YD isomorphism.

    psi is a bijection between the two bases by construction; we verify
    it is a comodule map (matching degrees) and a module map (the group
    action coefficients agree) for every group element and basis vector.
    """
    if yd.d != 1:
        return PsiCheckResult(False, {"reason": "character case only"})
    if yd.cls is not arrow.cls and yd.cls.elements != arrow.cls.elements:
        return PsiCheckResult(False, {"reason": "different classes"})
    for i in range(yd.m):
        if yd.degree_of(i) != arrow.degree_of(i):
            return PsiCheckResult(
                False, {"reason": "comodule degrees differ", "i": i}
            )
    group = yd.cls.group
    elements = group.elements()
    HP, HA = to_arrays(elements, group.n)
    every = np.arange(yd.m)
    for k, h in enumerate(elements):
        J, C = yd.cosets.zeta(every, HP[k : k + 1], HA[k : k + 1])
        for i in range(yd.m):
            i_yd, coeff_yd = int(J[i]), yd.matrices[C[i]][0][0]
            i_ar, coeff_ar = arrow.adjoint(h, i)
            if i_yd != i_ar or coeff_yd != coeff_ar:
                return PsiCheckResult(
                    False,
                    {
                        "reason": "module map fails",
                        "h": h.format(),
                        "i": i,
                        "yd": (i_yd, repr(coeff_yd)),
                        "arrow": (i_ar, repr(coeff_ar)),
                    },
                )
    return PsiCheckResult(True)
