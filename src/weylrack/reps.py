"""Matrix representations of centralizers over exact cyclotomic scalars.

Representations are stored as full evaluation tables (the centralizers
that occur here are small).  Constructors: characters from a value
function or a generator assignment, outer tensor products across
juxtaposition factors, and induction from a subgroup with an explicit
transversal.  The finiteness filter applies the necessary conditions on
the scalar q-values of a tensor-factor pair.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .conjugacy import Centralizer
from .cyclotomic import Cyclo
from .groups import SignedPermutation

FULL_CHECK_LIMIT = 10**4


def _matmul(A: tuple, B: tuple) -> tuple:
    return tuple(
        tuple(
            sum((A[i][k] * B[k][j] for k in range(len(B))), Cyclo.rational(0))
            for j in range(len(B[0]))
        )
        for i in range(len(A))
    )


def _identity_matrix(d: int) -> tuple:
    one, zero = Cyclo.rational(1), Cyclo.rational(0)
    return tuple(tuple(one if i == j else zero for j in range(d)) for i in range(d))


def kron(A: tuple, B: tuple) -> tuple:
    da, db = len(A), len(B)
    return tuple(
        tuple(A[i // db][j // db] * B[i % db][j % db] for j in range(da * db))
        for i in range(da * db)
    )


class Rep:
    """A representation given by its full evaluation table.

    `domain` is the list of group elements (closed under product);
    `table` maps each element to a d x d Cyclo matrix.  Multiplicativity
    and rho(1) = id are checked on construction, exhaustively when the
    domain is small and on a seeded sample beyond FULL_CHECK_LIMIT pairs.
    """

    def __init__(self, domain: list, table: dict, check: bool = True):
        self.domain = list(domain)
        self.table = table
        first = table[self.domain[0]]
        self.degree = len(first)
        if check:
            self._check()

    def _check(self):
        import random

        ident = next(g for g in self.domain if g.is_identity())
        if self.table[ident] != _identity_matrix(self.degree):
            raise ValueError("rho(identity) is not the identity matrix")
        pairs = len(self.domain) ** 2
        if pairs <= FULL_CHECK_LIMIT:
            it = ((g, h) for g in self.domain for h in self.domain)
        else:
            rng = random.Random(0)
            it = (
                (rng.choice(self.domain), rng.choice(self.domain))
                for _ in range(FULL_CHECK_LIMIT)
            )
        for g, h in it:
            gh = g * h
            if gh not in self.table:
                raise ValueError(f"domain not closed: {g} * {h}")
            M, N, MN = self.table[g], self.table[h], self.table[gh]
            # a character compares its values, with no 1 x 1 matrix product
            if (MN[0][0] != M[0][0] * N[0][0]) if self.degree == 1 else (MN != _matmul(M, N)):
                raise ValueError(f"not multiplicative at ({g}, {h})")

    def __call__(self, g) -> tuple:
        return self.table[g]

    def character(self, g) -> Cyclo:
        M = self.table[g]
        return sum((M[i][i] for i in range(self.degree)), Cyclo.rational(0))

    def scalar_value(self, g) -> Cyclo:
        """The scalar q with rho(g) = q id; rejects non-scalar images."""
        M = self.table[g]
        q = M[0][0]
        if M != tuple(
            tuple(q if i == j else Cyclo.rational(0) for j in range(self.degree))
            for i in range(self.degree)
        ):
            raise ValueError(f"rho({g}) is not scalar")
        return q


def char_from_function(cent: Centralizer, fn, check: bool = True) -> Rep:
    """Degree-1 rep from a value function on the centralizer."""
    table = {}
    for g in cent.elements:
        v = Cyclo.coerce(fn(g))
        table[g] = ((v,),)
    return Rep(cent.elements, table, check=check)


def char_rep(cent: Centralizer, assignment: dict) -> Rep:
    """Degree-1 rep from values on a generating set, extended by closure.

    `assignment` maps group elements to scalars.  The extension is built
    by multiplying out words; any inconsistency (the same element reached
    with two different values) is an error.
    """
    values = {cent.group.identity: Cyclo.rational(1)}
    gens = {g: Cyclo.coerce(v) for g, v in assignment.items()}
    for g in gens:
        if g not in cent:
            raise ValueError(f"{g} is not in the centralizer")
    frontier = [cent.group.identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g, v in gens.items():
                y = x * g
                w = values[x] * v
                if y in values:
                    if values[y] != w:
                        raise ValueError(f"inconsistent assignment at {y}")
                else:
                    values[y] = w
                    nxt.append(y)
        frontier = nxt
    if len(values) != cent.order:
        raise ValueError(
            f"assignment generates only {len(values)} of {cent.order} elements"
        )
    return Rep(cent.elements, {g: ((values[g],),) for g in cent.elements})


def trivial_rep(cent: Centralizer) -> Rep:
    return char_from_function(cent, lambda g: 1, check=False)


def chi_sgn_sgn(cent: Centralizer) -> Rep:
    """The global sign character: g maps to sgn of its permutation part."""
    return char_from_function(cent, lambda g: g.perm.sign())


def chi_eps_sgn(cent: Centralizer) -> Rep:
    """-1 exactly on elements whose permutation part swaps 1 and 2.

    On the centralizer of (1 2) in S_n, i.e. <(1 2)> x S_{3..n}, this is
    trivial on the second factor and the sign on the first.
    """
    return char_from_function(cent, lambda g: -1 if g.perm(0) == 1 else 1)


def z2_character(v: tuple):
    """chi_v(a) = (-1)^(v . a) on Z_2^n, as a function on sign vectors."""

    def chi(a: tuple):
        return -1 if sum(x * y for x, y in zip(v, a)) & 1 else 1

    return chi


def outer_tensor(rep1: Rep, rep2: Rep, big_cent: Centralizer) -> Rep:
    """rho1 (x) rho2 on the centralizer of x # y, via the unique block
    factorization w = u # v of centralizer elements."""
    n = rep1.domain[0].n
    m = rep2.domain[0].n
    table = {}
    for w in big_cent.elements:
        u, v = split_blocks(w, n, m)
        if u not in rep1.table or v not in rep2.table:
            raise ValueError(f"{w} does not factor through the juxtaposition")
        table[w] = kron(rep1.table[u], rep2.table[v])
    return Rep(big_cent.elements, table)


def split_blocks(w: SignedPermutation, n: int, m: int) -> tuple:
    """Split w in B_{n+m} as u # v; fails if the permutation mixes blocks."""
    images = w.perm.images
    if any(images[i] >= n for i in range(n)):
        raise ValueError(f"{w} mixes the two blocks")
    from .groups import Permutation

    u = SignedPermutation(w.sign[:n], Permutation(images[:n]))
    v = SignedPermutation(
        w.sign[n:], Permutation(tuple(images[n + i] - n for i in range(m)))
    )
    return u, v


def induced_rep(ambient: list, sub: set, transversal: list, rep: Rep) -> Rep:
    """Induction of `rep` from the subgroup `sub` of the group `ambient`
    along the left transversal t_1, ..., t_k (t_i H pairwise disjoint,
    covering).  Block form: rho^(g)[i][j] = rho(t_i^-1 g t_j) when that
    element lies in H, zero block otherwise.
    """
    k = len(transversal)
    cosets = set()
    for t in transversal:
        if t.inverse() * t not in sub:  # identity must be in sub
            raise ValueError("subgroup does not contain the identity")
        key = frozenset(t * h for h in sub)
        cosets.add(key)
    if len(cosets) != k or k * len(sub) != len(ambient):
        raise ValueError("transversal does not split the group")
    d = rep.degree
    zero = tuple(tuple(Cyclo.rational(0) for _ in range(d)) for _ in range(d))
    table = {}
    for g in ambient:
        blocks = [[zero] * k for _ in range(k)]
        for j, tj in enumerate(transversal):
            gt = g * tj
            for i, ti in enumerate(transversal):
                h = ti.inverse() * gt
                if h in sub:
                    blocks[i][j] = rep.table[h]
                    break
            else:
                raise ValueError("transversal does not cover the group")
        table[g] = tuple(
            tuple(blocks[i // d][j // d][i % d][j % d] for j in range(k * d))
            for i in range(k * d)
        )
    return Rep(ambient, table)


def induced_character(ambient: list, sub: set, rep: Rep):
    """Frobenius formula: chi^(g) = (1/|H|) sum over x in G of
    chi(x^-1 g x), summing only terms with x^-1 g x in H."""

    def chi(g):
        total = Cyclo.rational(0)
        for x in ambient:
            y = x.inverse() * g * x
            if y in sub:
                total = total + rep.character(y)
        return total * Fraction(1, len(sub))

    return chi


def q_value(rep: Rep, sigma: SignedPermutation) -> Cyclo:
    """The scalar by which rep sends sigma; q^ord(sigma) = 1."""
    q = rep.scalar_value(sigma)
    if q ** sigma.order() != 1:
        raise AssertionError("q is not a root of unity of the right order")
    return q


# -- finiteness necessary conditions --------------------------------------


def _scalar_order(q: Cyclo) -> int:
    return q.multiplicative_order()


def finiteness_filter(
    x: SignedPermutation, y: SignedPermutation, q1, q2
) -> dict:
    """Necessary conditions on the q-values of a tensor pair rho1 (x) rho2
    over the class of x # y (x, y orthogonal).  Returns a verdict:
    "violates" means infinite dimension is forced, with the list of rules
    that fired; "consistent" means no rule fired.
    """
    if not x.is_orthogonal_to(y):
        raise ValueError("factors must be orthogonal")
    q1, q2 = Cyclo.coerce(q1), Cyclo.coerce(q2)
    ox, oy = x.order(), y.order()
    fired = []
    if ox % _scalar_order(q1) or oy % _scalar_order(q2):
        fired.append("scalar-order divides element order")
    if q1 * q2 != -1:
        fired.append("q-product must be -1")
    # low-order factor forces the other scalar (both orientations)
    if oy <= 2 and _scalar_order(q1) != 1 and not (q2 == 1 and q1 == -1):
        fired.append("order<=2 second factor forces (q1,q2)=(-1,1)")
    if ox <= 2 and _scalar_order(q2) != 1 and not (q1 == 1 and q2 == -1):
        fired.append("order<=2 first factor forces (q1,q2)=(1,-1)")
    if gcd(ox, oy) == 1 and oy % 2 == 1 and not (q2 == 1 and q1 == -1):
        fired.append("coprime orders with odd second factor force (q1,q2)=(-1,1)")
    if gcd(ox, oy) == 1 and ox % 2 == 1 and not (q1 == 1 and q2 == -1):
        fired.append("coprime orders with odd first factor force (q1,q2)=(1,-1)")
    # known classification of the positive (2,2) class: q = -1 already
    # gives an infinite-dimensional Nichols algebra on that factor alone,
    # so a finite-dimensional restriction (q2 = 1 path) is impossible
    if (
        q2 == 1
        and q1 == -1
        and not any(x.sign)
        and x.perm.cycle_type() == (2, 2)
    ):
        fired.append("positive (2,2) factor with q=-1 is classified infinite")
    if (
        q1 == 1
        and q2 == -1
        and not any(y.sign)
        and y.perm.cycle_type() == (2, 2)
    ):
        fired.append("positive (2,2) factor with q=-1 is classified infinite")
    return {
        "verdict": "violates" if fired else "consistent",
        "rules": fired,
        "q1": repr(q1),
        "q2": repr(q2),
    }


def tensor_case_admitted(x: SignedPermutation, y: SignedPermutation) -> list:
    """Enumerate the four (q1, q2) sign options for a tensor pair and
    return those the filter admits, as (int, int) pairs."""
    out = []
    for q1 in (1, -1):
        for q2 in (1, -1):
            if finiteness_filter(x, y, q1, q2)["verdict"] == "consistent":
                out.append((q1, q2))
    return out
