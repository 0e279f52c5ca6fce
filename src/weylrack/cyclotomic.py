"""Exact cyclotomic scalars.

A `Cyclo` is an element of the N-th cyclotomic field, stored as a
rational-coefficient polynomial in zeta_N reduced modulo the N-th
cyclotomic polynomial.  Arithmetic is exact; mixed conductors promote to
the least common multiple.  Rational values (conductor 1) interoperate
with plain ints and Fractions, which keeps the common all-integer
computations cheap.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


@lru_cache(maxsize=None)
def cyclotomic_polynomial(N: int) -> tuple:
    """Integer coefficient tuple of Phi_N, low degree first.

    Computed by dividing x^N - 1 by the Phi_d for proper divisors d.
    """
    if N < 1:
        raise ValueError("conductor must be positive")
    poly = [Fraction(-1)] + [Fraction(0)] * (N - 1) + [Fraction(1)]  # x^N - 1
    for d in range(1, N):
        if N % d == 0:
            poly = _polydiv_exact(poly, cyclotomic_polynomial(d))
    assert all(c.denominator == 1 for c in poly)
    return tuple(int(c) for c in poly)


def _polydiv_exact(num: list, den) -> list:
    num = list(num)
    den = [Fraction(c) for c in den]
    out = [Fraction(0)] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        q = num[k + len(den) - 1] / den[-1]
        out[k] = q
        for i, c in enumerate(den):
            num[k + i] -= q * c
    if any(num[: len(den) - 1]):
        raise ArithmeticError("non-exact polynomial division")
    return out


@lru_cache(maxsize=None)
def _trace_weights(N: int) -> tuple:
    """Normalized traces Tr(zeta_N^k) / phi(N) for k < phi(N).

    zeta_N^k is a primitive M-th root of unity, M = N / gcd(k, N).  The
    primitive M-th roots sum to mu(M), which is minus the subleading
    coefficient of Phi_M, so the normalized trace is mu(M) / phi(M).
    """
    out = []
    for k in range(len(cyclotomic_polynomial(N)) - 1):
        phi_M = cyclotomic_polynomial(N // gcd(k, N))
        out.append(Fraction(-phi_M[-2], len(phi_M) - 1))
    return tuple(out)


def _reduce_mod_phi(coeffs: list, N: int) -> tuple:
    """Reduce a coefficient list modulo Phi_N; result has deg < phi(N)."""
    phi = cyclotomic_polynomial(N)
    deg = len(phi) - 1
    coeffs = list(coeffs)
    for k in range(len(coeffs) - 1, deg - 1, -1):
        q = coeffs[k]  # phi is monic
        if q:
            for i, c in enumerate(phi):
                coeffs[k - deg + i] -= q * c
    out = coeffs[:deg]
    out += [Fraction(0)] * (deg - len(out))
    return tuple(Fraction(c) for c in out)


class Cyclo:
    """An exact element of Q(zeta_N)."""

    __slots__ = ("N", "coeffs", "_hash")

    def __init__(self, N: int, coeffs):
        coeffs = _reduce_mod_phi([Fraction(c) for c in coeffs], N)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):
        raise AttributeError("Cyclo is immutable")

    # -- constructors ----------------------------------------------------

    @staticmethod
    def rational(q) -> "Cyclo":
        return Cyclo(1, [Fraction(q)])

    @staticmethod
    def zeta(N: int, k: int = 1) -> "Cyclo":
        """zeta_N^k."""
        k %= N
        return Cyclo(N, [0] * k + [1])

    @staticmethod
    def coerce(x) -> "Cyclo":
        if isinstance(x, Cyclo):
            return x
        if isinstance(x, (int, Fraction)):
            return Cyclo.rational(x)
        raise TypeError(f"cannot coerce {x!r} to Cyclo")

    # -- conductor handling ----------------------------------------------

    def promote(self, L: int) -> "Cyclo":
        """Rewrite in Q(zeta_L); requires N | L."""
        if L == self.N:
            return self
        if L % self.N:
            raise ValueError("can only promote to a multiple conductor")
        step = L // self.N
        out = [Fraction(0)] * (len(self.coeffs) * step)
        for i, c in enumerate(self.coeffs):
            out[i * step] = c
        return Cyclo(L, out)

    @staticmethod
    def _common(a: "Cyclo", b: "Cyclo") -> tuple:
        L = lcm(a.N, b.N)
        return a.promote(L), b.promote(L), L

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        a, b, L = Cyclo._common(self, Cyclo.coerce(other))
        return Cyclo(L, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return Cyclo(self.N, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-Cyclo.coerce(other))

    def __rsub__(self, other):
        return Cyclo.coerce(other) - self

    def __mul__(self, other):
        b = Cyclo.coerce(other)
        if self.N == 1 or b.N == 1:
            # scalar fast path
            if self.N == 1:
                q = self.coeffs[0]
                return Cyclo(b.N, [q * c for c in b.coeffs])
            q = b.coeffs[0]
            return Cyclo(self.N, [q * c for c in self.coeffs])
        a, b, L = Cyclo._common(self, b)
        prod = [Fraction(0)] * (len(a.coeffs) + len(b.coeffs) - 1)
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    if y:
                        prod[i + j] += x * y
        return Cyclo(L, prod)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclo":
        if self.is_zero():
            raise ZeroDivisionError("cyclotomic division by zero")
        if self.N == 1:
            return Cyclo(1, [1 / self.coeffs[0]])
        # extended Euclid in Q[x]: u * self + v * Phi_N = 1
        phi = [Fraction(c) for c in cyclotomic_polynomial(self.N)]
        r0, r1 = phi, list(self.coeffs)
        u0, u1 = [Fraction(0)], [Fraction(1)]
        while any(r1):
            q, rem = _polydivmod(r0, r1)
            r0, r1 = r1, rem
            u0, u1 = u1, _polysub(u0, _polymul(q, u1))
        lead = next(c for c in reversed(r0) if c)
        if any(c for i, c in enumerate(r0) if i > 0 and c):
            raise ArithmeticError("gcd with Phi_N is not constant")
        return Cyclo(self.N, [c / lead for c in u0])

    def __truediv__(self, other):
        return self * Cyclo.coerce(other).inverse()

    def __rtruediv__(self, other):
        return Cyclo.coerce(other) * self.inverse()

    def __pow__(self, k: int) -> "Cyclo":
        if k < 0:
            return self.inverse() ** (-k)
        out = Cyclo.rational(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- predicates and views --------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    def multiplicative_order(self, cap: int = 10000) -> int:
        x = self
        one = Cyclo.rational(1)
        for k in range(1, cap + 1):
            if x == one:
                return k
            x = x * self
        raise ValueError("not a root of unity within cap")

    def __eq__(self, other) -> bool:
        try:
            b = Cyclo.coerce(other)
        except TypeError:
            return NotImplemented
        a, b, _ = Cyclo._common(self, b)
        return a.coeffs == b.coeffs

    def __hash__(self) -> int:
        # Equal values may carry different conductors, so hash the
        # normalized trace, which does not depend on the conductor and is
        # the number itself on rationals.
        if self._hash is None:
            if self.is_rational():
                h = hash(self.coeffs[0])
            else:
                weights = _trace_weights(self.N)
                h = hash(sum(c * w for c, w in zip(self.coeffs, weights)))
            object.__setattr__(self, "_hash", h)
        return self._hash

    def to_json(self) -> dict:
        return {
            "conductor": self.N,
            "coeffs": [[c.numerator, c.denominator] for c in self.coeffs],
        }

    def __repr__(self) -> str:
        if self.is_rational():
            return f"Cyclo.rational({self.coeffs[0]})"
        terms = [
            (f"{c}*" if c != 1 else "") + f"z{self.N}^{i}"
            for i, c in enumerate(self.coeffs)
            if c
        ]
        return " + ".join(terms)


def _polydivmod(num: list, den: list) -> tuple:
    num = list(num)
    dd = len(den) - 1
    while dd and not den[dd]:
        dd -= 1
    q = [Fraction(0)] * max(len(num) - dd, 1)
    for k in range(len(num) - dd - 1, -1, -1):
        c = num[k + dd] / den[dd]
        q[k] = c
        if c:
            for i in range(dd + 1):
                num[k + i] -= c * den[i]
    return q, num[:dd] if dd else [Fraction(0)]


def _polymul(a: list, b: list) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _polysub(a: list, b: list) -> list:
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]
