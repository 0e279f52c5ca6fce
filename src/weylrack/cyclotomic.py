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
    """Reduce a list of Fraction coefficients modulo Phi_N; the result,
    Fractions still, has deg < phi(N)."""
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
    return tuple(out)


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
        """1/x = (product of the other Galois conjugates of x) / N(x): the
        conjugates send zeta_N to zeta_N^k, gcd(k, N) = 1, and the norm
        N(x), x times that product, is rational."""
        if self.is_zero():
            raise ZeroDivisionError("cyclotomic division by zero")
        N = self.N
        others = Cyclo(N, [1])
        for k in range(2, N):
            if gcd(k, N) == 1:
                image = [0] * N
                for i, c in enumerate(self.coeffs):
                    image[i * k % N] = c
                others = others * Cyclo(N, image)
        return others * (1 / (self * others).as_rational())

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

    def multiplicative_order(self) -> int:
        """The least k >= 1 with x^k = 1.  The roots of unity in Q(zeta_N)
        are the lcm(2, N)-th ones, so k <= 2N or x is not one."""
        x = self
        one = Cyclo.rational(1)
        for k in range(1, 2 * self.N + 1):
            if x == one:
                return k
            x = x * self
        raise ValueError(f"{self} is not a root of unity")

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


def integer_value(v) -> int | None:
    """v as an int if it is a rational integer written without zeta_N: an
    int, a Fraction or a `Cyclo` of conductor 1 (so zeta_4^2 is not one);
    None otherwise."""
    if type(v) is int:
        return v
    if isinstance(v, Cyclo):
        if v.N != 1:
            return None
        v = v.coeffs[0]
    q = Fraction(v)
    return q.numerator if q.denominator == 1 else None


def as_int(v) -> int:
    """The `integer_value` of v, which must have one."""
    out = integer_value(v)
    if out is None:
        raise ValueError("expected integer entry")
    return out

