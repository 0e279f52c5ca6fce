"""Yetter-Drinfeld modules over conjugacy classes, their braidings, and
the arrow-module realization.

The module attached to a class with numeration t_1, ..., t_m, coset
representatives g_i (g_i conjugates the base point to t_i) and a
character chi of the centralizer has basis x_i = g_i v.  The group acts
by h.x_i = chi(gamma) x_{i'} where h g_i = g_{i'} gamma, the coaction
tags x_i with degree t_i, and the braiding is
c(x_i (x) x_j) = t_i.x_j (x) x_i = chi(gamma) x_{i |> j} (x) x_i, where
t_i g_j = g_{i |> j} gamma: a rack and a scalar per basis pair.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .conjugacy import CosetSystem
from .cyclotomic import integer_value
from .groups import (
    MEMORY_BUDGET,
    BudgetExceeded,
    SignedPermutation,
    conjugate_pairs,
    encode,
    rand_int,
    to_arrays,
)
from .reps import Character

# peak bytes per basis pair of `YDModule.braiding`, most of it the cocycle
# call on all pairs: about 99 measured under tracemalloc on the B_5
# 3-cycles (D = 80) and 90 on the B_5 5-cycles (D = 384), so the default
# memory budget admits D up to about 2100
BRAIDING_PAIR_BYTES = 120


class YDModule:
    def __init__(self, cosets: CosetSystem, chi: Character):
        self.cosets = cosets
        self.cls = cosets.cls
        # chi by centralizer index, as the cocycle gives gamma, so the
        # character must be on the coset system's centralizer
        if not np.array_equal(chi.cent.keys, cosets.centralizer.keys):
            raise ValueError("character is not a character of the class centralizer")
        self.chi = chi
        m = self.m = self.cls.size
        # refused before anything is computed when the m^2 basis pairs of
        # its braiding, at `BRAIDING_PAIR_BYTES` each, exceed the budget
        if m**2 * BRAIDING_PAIR_BYTES > MEMORY_BUDGET:
            raise BudgetExceeded(
                f"a braiding of D = {m} needs {m**2} basis pairs, over the memory budget"
                f" of {MEMORY_BUDGET} bytes at {BRAIDING_PAIR_BYTES} bytes a pair"
            )

    def degree_of(self, i: int) -> SignedPermutation:
        """Coaction: the basis vector x_i has comodule degree t_i."""
        return self.cls.elements[i]

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
        """c(x_i (x) x_j) = chi(gamma) x_{i |> j} (x) x_i, where
        t_i g_j = g_{i |> j} gamma: one cocycle call for every pair (i, j)
        gives both, phi = i |> j as its class indices (the rack table of
        the class) and q = chi(gamma) read by centralizer index, each
        character value a rational integer as an int."""
        m, cls = self.m, self.cls
        I, J = np.divmod(np.arange(m * m), m)
        phi, C = self.cosets.zeta(J, cls.P[I], cls.A[I])
        return Braiding(phi.reshape(m, m), _scalars(self.chi.values)[C.reshape(m, m)])


class Braiding:
    """c(x_a (x) x_b) = q[a, b] x_{phi[a, b]} (x) x_a on V (x) V, as two
    D x D arrays: phi[a, b] = a |> b, and the scalar q of each basis pair.
    q holds rational integers as ints, in int64 when they fit, and other
    scalars (big ints, `Cyclo`s) as objects; `norm` is the largest |q|
    when every q is an int, else None.  `target` is phi read as flat pair
    indices, for `_apply_at`."""

    def __init__(self, phi, q):
        self.phi = np.asarray(phi, dtype=np.int64)
        D = self.D = len(self.phi)
        if not (isinstance(q, np.ndarray) and q.dtype == np.int64):
            q = _scalars(np.array(q, dtype=object).reshape(-1).tolist())
        self.q = q.reshape(D, D)
        if self.q.dtype == np.int64:
            self.norm = max(int(self.q.max()), -int(self.q.min()))
        elif all(type(v) is int for v in self.q.flat):
            self.norm = max(map(abs, self.q.flat))
        else:
            self.norm = None
        # the flat pair that c sends the pair a*D + b to, phi[a, b]*D + a
        self.target = (self.phi * D + np.arange(D)[:, None]).reshape(-1)

    @property
    def bijective(self) -> bool:
        """Is c a bijection of basis pairs with non-zero scalars, every
        row of phi a permutation and every q non-zero?"""
        perms = (np.sort(self.phi, axis=1) == np.arange(self.D)).all()
        return bool(perms and self.q.astype(bool).all())

    def int64_stack(self, letters: int, words: int) -> bool:
        """Can a stack hold in int64 sums of `words` products of `letters`
        scalars each?  Each such sum is at most norm^letters * words."""
        return self.norm is not None and self.norm**letters * words < 2**63

    def check_invertible(self):
        """c is invertible exactly when it is `bijective`."""
        if not self.bijective:
            raise AssertionError("braiding is not invertible")

    def _apply_at(self, stack: tuple, pos: int, k: int) -> tuple:
        """Apply c at tensor positions (pos, pos+1) of V^(x k) to a stack of
        terms: the one place c is applied.  Term i of the stack (key, coeff)
        is coeff[i] times the basis tuple of flat index key[i] % D^k (base
        D, first position most significant) in column key[i] // D^k.  The
        pair at the positions is read out of the keys, its `target`
        written back and its scalar multiplied in, from q on an int64 stack
        and from q as objects on an object one."""
        key, coeff = stack
        place = self.D ** (k - 2 - pos)
        pair = key // place % (self.D * self.D)
        q = self.q.reshape(-1)
        if q.dtype != coeff.dtype:
            q = q.astype(object)
        return key + (self.target[pair] - pair) * place, coeff * q[pair]

    def check_braid_equation(self, sample: int | None = None):
        """(c x id)(id x c)(c x id) = (id x c)(c x id)(id x c) on basis
        triples, exhaustive unless sampled.  On x_a (x) x_b (x) x_c the
        left side is L x_{(a|>b)|>(a|>c)} (x) x_{a|>b} (x) x_a with
        L = q_ab q_ac q_{a|>b,a|>c}, the right side R x_{a|>(b|>c)} (x)
        x_{a|>b} (x) x_a with R = q_bc q_{a,b|>c} q_ab, so a triple holds
        when L = R and, unless L = 0, the first targets agree.  Exhaustive,
        the triples go one D x D slice of (b, c) per a; sampled, as one
        array; either way the first failing one is named."""
        D, phi = self.D, self.phi
        q = self.q if self.int64_stack(3, 1) else self.q.astype(object)
        if sample is None:
            every = np.arange(D)
            chunks = ((a, every[:, None], every) for a in range(D))
        else:
            rng = random.Random(0)
            triples = [[rand_int(rng, 0, D - 1) for _ in range(3)] for _ in range(sample)]
            chunks = [np.array(triples, dtype=np.int64).reshape(-1, 3).T]
        for a, b, c in chunks:
            ab, ac, bc = phi[a, b], phi[a, c], phi[b, c]
            L = q[a, b] * q[a, c] * q[ab, ac]
            fails = (L != q[b, c] * q[a, bc] * q[a, b]) | ((L != 0) & (phi[ab, ac] != phi[a, bc]))
            if fails.any():
                at = int(np.argmax(fails))
                tup = tuple(int(np.broadcast_to(x, fails.shape).flat[at]) for x in (a, b, c))
                raise AssertionError(f"braid equation fails on basis {tup}")


def _scalars(values: list) -> np.ndarray:
    """The scalars as one flat array, each rational integer as an int
    (`integer_value`): int64 when all are ints that fit, objects
    otherwise."""
    values = [v if (n := integer_value(v)) is None else n for v in values]
    if all(type(v) is int and -(2**63) < v < 2**63 for v in values):
        return np.array(values, dtype=np.int64)
    out = np.empty(len(values), dtype=object)
    out[:] = values
    return out


def build_yd_module(cosets: CosetSystem, chi: Character) -> YDModule:
    """The module, with its Yetter-Drinfeld compatibility checked: on every
    group element up to 2000 of them, on 500 samples beyond."""
    mod = YDModule(cosets, chi)
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

    def __init__(self, cosets: CosetSystem, chi: Character):
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
        return (self.cls.elements[i] * g, g), self.chi(gamma)

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
    if yd.cls is not arrow.cls and yd.cls.elements != arrow.cls.elements:
        return PsiCheckResult(False, {"reason": "different classes"})
    for i in range(yd.m):
        if yd.degree_of(i) != arrow.degree_of(i):
            return PsiCheckResult(
                False, {"reason": "comodule degrees differ", "i": i}
            )
    group = yd.cls.group
    elements = group.elements()
    # one cocycle call for all pairs (h, i), h major
    HP, HA = (np.repeat(X, yd.m, axis=0) for X in to_arrays(elements, group.n))
    pairs = yd.cosets.zeta(np.tile(np.arange(yd.m), len(elements)), HP, HA)
    J, C = (X.reshape(-1, yd.m).tolist() for X in pairs)
    for k, h in enumerate(elements):
        for i in range(yd.m):
            i_yd, coeff_yd = J[k][i], yd.chi.values[C[k][i]]
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
