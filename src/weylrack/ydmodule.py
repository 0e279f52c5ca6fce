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

from .conjugacy import CosetSystem
from .cyclotomic import Cyclo
from .groups import SignedPermutation
from .reps import Rep


class YDModule:
    def __init__(self, cosets: CosetSystem, rep: Rep):
        self.cosets = cosets
        self.cls = cosets.cls
        self.rep = rep
        if set(rep.domain) != cosets.centralizer.element_set:
            raise ValueError("rep is not a rep of the class centralizer")
        self.m = self.cls.size
        self.d = rep.degree
        self.D = self.m * self.d

    # basis index (i, j) <-> flat i*d + j

    def action_terms(self, h: SignedPermutation, i: int, j: int) -> list:
        """h.(g_i v_j) as [(basis index, coeff)]."""
        i2, gamma = self.cosets.zeta(i, h)
        M = self.rep(gamma)
        return [
            (i2 * self.d + p, M[p][j]) for p in range(self.d) if not M[p][j].is_zero()
        ]

    def degree_of(self, flat: int) -> SignedPermutation:
        """Coaction: basis vector g_i v_j has comodule degree t_i."""
        return self.cls.elements[flat // self.d]

    def check_yd_compatibility(self, sample: int | None = None, seed: int = 0):
        """delta(h.w) = h w_(-1) h^-1 (x) h.w_(0): the action must move a
        vector of degree t into the degree-(h |> t) component."""
        group = self.cls.group
        if sample is None:
            elems = group.elements()
        else:
            rng = random.Random(seed)
            elems = [group.random_element(rng) for _ in range(sample)]
        for h in elems:
            for i in range(self.m):
                for j in range(self.d):
                    expect = h.conjugate(self.cls.elements[i])
                    for flat, _ in self.action_terms(h, i, j):
                        if self.degree_of(flat) != expect:
                            raise AssertionError(
                                f"YD compatibility fails at h={h}, basis ({i},{j})"
                            )

    def check_is_action(self, sample: int = 300, seed: int = 0):
        """rho-module axiom on the class level: (gh).w = g.(h.w), sampled."""
        rng = random.Random(seed)
        group = self.cls.group
        for _ in range(sample):
            g = group.random_element(rng)
            h = group.random_element(rng)
            gh = g * h
            for i in range(self.m):
                for j in range(self.d):
                    direct = dict(self.action_terms(gh, i, j))
                    composed: dict = {}
                    for k, v in self.action_terms(h, i, j):
                        for r, w in self.action_terms(g, k // self.d, k % self.d):
                            composed[r] = composed.get(r, Cyclo.rational(0)) + v * w
                    composed = {r: v for r, v in composed.items() if not v.is_zero()}
                    if direct != composed:
                        raise AssertionError(f"action not multiplicative at {g}, {h}")

    def braiding(self) -> "Braiding":
        terms = {}
        for i in range(self.m):
            t_i = self.cls.elements[i]
            cache = {}
            for j in range(self.m):
                for q in range(self.d):
                    if (j, q) not in cache:
                        cache[(j, q)] = self.action_terms(t_i, j, q)
            for p in range(self.d):
                a = i * self.d + p
                for j in range(self.m):
                    for q in range(self.d):
                        b = j * self.d + q
                        terms[(a, b)] = [
                            ((r, a), v) for r, v in cache[(j, q)]
                        ]
        return Braiding(self.D, terms)


@dataclass
class Braiding:
    """c on V (x) V, stored per basis pair: c(e_a (x) e_b) =
    sum of coeff * e_{a'} (x) e_{b'} over terms[(a,b)]."""

    D: int
    terms: dict

    @property
    def is_monomial(self) -> bool:
        return all(len(v) == 1 for v in self.terms.values())

    def matrix(self) -> list:
        """Dense D^2 x D^2 matrix; row/column index is a*D + b."""
        n = self.D * self.D
        rows = [[Cyclo.rational(0)] * n for _ in range(n)]
        for (a, b), out in self.terms.items():
            for (a2, b2), v in out:
                rows[a2 * self.D + b2][a * self.D + b] = rows[a2 * self.D + b2][
                    a * self.D + b
                ] + v
        return rows

    def check_invertible(self):
        if self.is_monomial:
            imgs = {next(iter(out))[0] for out in self.terms.values()}
            if len(imgs) != self.D * self.D or any(
                next(iter(out))[1].is_zero() for out in self.terms.values()
            ):
                raise AssertionError("monomial braiding is not invertible")
            return
        from .linalg import rank_cyclo_exact

        if rank_cyclo_exact(self.matrix()) != self.D * self.D:
            raise AssertionError("braiding matrix is singular")

    def _apply_at(self, state: dict, pos: int, width: int) -> dict:
        """Apply c at tensor positions (pos, pos+1) to a linear
        combination of basis tuples of length `width`; the coefficients
        may be ints or `Cyclo`s."""
        out: dict = {}
        for tup, coeff in state.items():
            for (a2, b2), v in self.terms[(tup[pos], tup[pos + 1])]:
                new = tup[:pos] + (a2, b2) + tup[pos + 2 :]
                acc = out.get(new)
                out[new] = v * coeff if acc is None else acc + v * coeff
        return {t: v for t, v in out.items() if v}

    def check_braid_equation(self, sample: int | None = None, seed: int = 0):
        """(c x id)(id x c)(c x id) = (id x c)(c x id)(id x c) on basis
        triples; exhaustive unless sampled."""
        if sample is None:
            triples = (
                (a, b, c)
                for a in range(self.D)
                for b in range(self.D)
                for c in range(self.D)
            )
        else:
            rng = random.Random(seed)
            triples = (
                tuple(rng.randrange(self.D) for _ in range(3)) for _ in range(sample)
            )
        for tup in triples:
            state = {tup: Cyclo.rational(1)}
            lhs = self._apply_at(
                self._apply_at(self._apply_at(state, 0, 3), 1, 3), 0, 3
            )
            rhs = self._apply_at(
                self._apply_at(self._apply_at(state, 1, 3), 0, 3), 1, 3
            )
            if lhs != rhs:
                raise AssertionError(f"braid equation fails on basis {tup}")


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
        if set(chi.domain) != cosets.centralizer.element_set:
            raise ValueError("character is not a character of the centralizer")
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
        j = self.cls.index[t_j]
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
        """g |> a_{t_i,1} = g.(a_{t_i,1}.g^-1); returns (i', coeff)."""
        (y, x), coeff = self.right_action(i, g.inverse())
        # left multiply: arrow (y, x) -> (g y, g x); g x = 1 here
        y2, x2 = g * y, g * x
        if not x2.is_identity():
            raise AssertionError("adjoint action left the unit-vertex arrows")
        return self.cls.index[y2], coeff

    def degree_of(self, i: int) -> SignedPermutation:
        return self.cls.elements[i]


def build_arrow_yd_module(cosets: CosetSystem, chi: Rep) -> ArrowYDModule:
    return ArrowYDModule(cosets, chi)


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
    for h in yd.cls.group.elements():
        for i in range(yd.m):
            terms = yd.action_terms(h, i, 0)
            (i_yd, coeff_yd) = terms[0]
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
