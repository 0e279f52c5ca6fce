"""Verification harness and class scan.

Three layers:

* identity checks: closed forms of the sq map, juxtaposition laws,
  the coset-transposition identities, character-table values and sign
  products for the transposition class;
* certificate builders: explicit type-D constructions for the cycle,
  double-3-cycle, (2,2,3) and fixed-sign-split families, plus the
  juxtaposition-extension and projection-pullback transfers;
* the scan: classify every conjugacy class of B_n with nontrivial
  permutation part as certified, exception-list, or inconclusive.

Reports are plain dataclasses that serialize deterministically; runtimes
are excluded from serialized output by default so identical configs give
byte-identical files.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import random
import time
from dataclasses import dataclass

from .conjugacy import (
    ConjugacyClass,
    centralizer_factorization,
    class_juxtaposition,
    transposition_preset,
)
from .groups import Bn, Permutation, SignedPermutation, Sn
from .nichols import (
    _as_int,
    pair_relation_lambdas,
    sign_product,
    square_relation_holds,
    table1_values,
    triple_relation_signs,
)
from .racks import (
    FiniteRack,
    RackEpimorphism,
    TypeDCertificate,
    find_type_d_certificate,
    fixed_point_split,
    juxtaposition_extend_certificate,
    make_certificate,
    perm_cosets,
    pullback_type_d,
    sq,
    sq_fixes_second,
    sq_signed,
    sq_signed_commuting,
    _xor,
)
from .reps import chi_eps_sgn, chi_sgn_sgn, tensor_case_admitted
from .ydmodule import ArrowYDModule, build_yd_module, psi_isomorphism_check


@dataclass
class VerifyConfig:
    seed: int = 0
    samples: int = 10000
    max_n: int = 8
    max_m: int = 8
    sign_product_max_n: int = 6
    scan_time_budget: float = 1800.0
    mutate: bool = False

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "samples": self.samples,
            "max_n": self.max_n,
            "max_m": self.max_m,
            "sign_product_max_n": self.sign_product_max_n,
            "mutate": self.mutate,
        }


@dataclass
class VerificationReport:
    check: str
    status: str  # pass | fail | inconclusive
    detail: dict
    runtime: float
    config: dict

    def to_json(self, include_runtime: bool = False) -> dict:
        out = {
            "check": self.check,
            "status": self.status,
            "detail": self.detail,
            "config": self.config,
        }
        if include_runtime:
            out["runtime"] = round(self.runtime, 3)
        return out


@dataclass
class ScanRow:
    n: int
    cycle_type: str
    sign_condition: str
    outcome: str  # certificate | exception-list | inconclusive
    certificate: dict | None = None
    note: str = ""

    def to_json(self) -> dict:
        out = {
            "n": self.n,
            "cycle_type": self.cycle_type,
            "sign_condition": self.sign_condition,
            "outcome": self.outcome,
        }
        if self.certificate is not None:
            out["certificate"] = self.certificate
        if self.note:
            out["note"] = self.note
        return out


# -- sq closed forms -------------------------------------------------------


def _mutated_commuting(x: SignedPermutation, y: SignedPermutation) -> tuple:
    """Deliberately wrong commuting-case formula (one sign term dropped);
    used as a negative control for harness soundness."""
    c, mu = sq_signed_commuting(x, y)
    return _xor(c, y.perm.act_on_signs(x.sign)), mu


def check_square_closed_forms(cfg: VerifyConfig) -> tuple:
    rng = random.Random(cfg.seed)
    commuting_form = _mutated_commuting if cfg.mutate else sq_signed_commuting
    counts = {"general": 0, "commuting": 0, "conjugate-fixed": 0, "involution": 0}
    for _ in range(cfg.samples):
        n = rng.randint(2, cfg.max_n)
        G = Bn(n)
        x = G.random_element(rng)
        y = G.random_element(rng)
        if rng.random() < 0.5:
            # force a commuting pair: replace mu by a power of tau
            y = SignedPermutation(y.sign, x.perm ** rng.randint(0, n))
        direct = sq(x, y)
        c, lam = sq_signed(x, y)
        if (c, lam) != (direct.sign, direct.perm):
            return "fail", {"law": "general", "x": x.format(), "y": y.format()}
        counts["general"] += 1
        if x.perm.commutes_with(y.perm):
            c2, lam2 = commuting_form(x, y)
            if (c2, lam2) != (direct.sign, direct.perm):
                return "fail", {
                    "law": "commuting",
                    "x": x.format(),
                    "y": y.format(),
                    "got": "".join(map(str, c2)),
                    "expected": "".join(map(str, direct.sign)),
                }
            if sq_fixes_second(x, y) != (direct == y):
                return "fail", {"law": "fix-criterion", "x": x.format(), "y": y.format()}
            counts["commuting"] += 1
    # conjugate-pair special cases: (b,mu) = xi |> (a,tau) with xi.a = a;
    # fewer than `floor` of them within 40 * samples attempts is no pass
    floor, attempts = 500, 0
    while counts["conjugate-fixed"] < floor and attempts < 40 * cfg.samples:
        attempts += 1
        n = rng.randint(3, 5)
        G = Bn(n)
        xi_p = Sn(n).random_element(rng).perm
        # a constant on the orbits of xi so that xi.a = a
        a = [0] * n
        for cyc in xi_p.cycles(include_fixed=True):
            s = rng.randrange(2)
            for i in cyc:
                a[i] = s
        a = tuple(a)
        tau = G.random_element(rng).perm if rng.random() < 0.5 else None
        if tau is None:
            # involution stream for the stronger special case
            pts = list(range(1, n + 1))
            rng.shuffle(pts)
            tau = Permutation.from_cycles(n, [tuple(pts[:2])])
        mu = xi_p.conjugate(tau)
        if not tau.commutes_with(mu):
            continue
        x = SignedPermutation(a, tau)
        xi = SignedPermutation.from_perm(xi_p)
        y = xi.conjugate(x)
        c, _ = sq_signed(x, y)
        expected = a
        for p in (tau * mu * mu, mu, tau, tau * tau * mu):
            expected = _xor(expected, p.act_on_signs(a))
        if c != expected:
            return "fail", {"law": "conjugate-fixed", "x": x.format(), "xi": xi.format()}
        counts["conjugate-fixed"] += 1
        if tau * tau == Permutation.identity(n) and tau.commutes_with(xi_p):
            if c != a:
                return "fail", {"law": "involution", "x": x.format(), "xi": xi.format()}
            counts["involution"] += 1
    got = counts["conjugate-fixed"]
    if got < floor:
        reason = f"{got} conjugate-fixed instances, below the floor of {floor}"
        return "inconclusive", {"reason": reason, "verified": counts}
    return "pass", {"verified": counts}


def check_negative_control(cfg: VerifyConfig) -> tuple:
    """The harness must catch a corrupted sq formula.  Pass means the
    mutated run failed with a concrete counterexample."""
    mutated = VerifyConfig(
        seed=cfg.seed, samples=min(cfg.samples, 2000), max_n=cfg.max_n, mutate=True
    )
    status, detail = check_square_closed_forms(mutated)
    if status == "fail":
        return "pass", {"caught": detail}
    return "fail", {"reason": "mutated formula was not detected"}


# -- juxtaposition laws ----------------------------------------------------


def _random_orthogonal_pair(rng, max_total: int) -> tuple:
    while True:
        n = rng.randint(1, max_total - 1)
        m = rng.randint(1, max_total - n)
        x = Bn(n).random_element(rng)
        y = Bn(m).random_element(rng)
        if x.is_orthogonal_to(y):
            return x, y


def check_juxtaposition_laws(cfg: VerifyConfig) -> tuple:
    rng = random.Random(cfg.seed)
    n_random = min(cfg.samples, 2000)
    for _ in range(n_random):
        x, y = _random_orthogonal_pair(rng, 7)
        n, m = x.n, y.n
        x2 = Bn(n).random_element(rng)
        y2 = Bn(m).random_element(rng)
        # product law
        if x.juxtapose(y) * x2.juxtapose(y2) != (x * x2).juxtapose(y * y2):
            return "fail", {"law": "product", "x": x.format(), "y": y.format()}
        # the two block-embedding factorizations commute and agree
        from .groups import nu_left, nu_right

        a, b = nu_right(x, m), nu_left(y, n)
        if x.juxtapose(y) != a * b or a * b != b * a:
            return "fail", {"law": "factorization", "x": x.format(), "y": y.format()}
        # conjugation law
        if sq(x.juxtapose(y), x2.juxtapose(y2)) != sq(x, x2).juxtapose(sq(y, y2)):
            return "fail", {"law": "sq-blockwise", "x": x.format(), "y": y.format()}
        if x.juxtapose(y).conjugate(x2.juxtapose(y2)) != x.conjugate(x2).juxtapose(
            y.conjugate(y2)
        ):
            return "fail", {"law": "conjugation", "x": x.format(), "y": y.format()}
    # exhaustive centralizer/class factorization over class representatives
    checked = 0
    for n in range(1, 5):
        for m in range(1, 6 - n):
            gx, gy = Bn(n), Bn(m)
            reps_x = _class_representatives(n)
            reps_y = _class_representatives(m)
            for x in reps_x:
                for y in reps_y:
                    if not x.is_orthogonal_to(y):
                        continue
                    centralizer_factorization(gx, x, gy, y)
                    class_juxtaposition(gx, x, gy, y)
                    checked += 1
    return "pass", {"random_samples": n_random, "exhaustive_pairs": checked}


def _class_representatives(n: int) -> list:
    """One representative per conjugacy class of B_n, built from the
    signed cycle type: consecutive supports, one sign bit per negative
    cycle."""
    reps = []
    for parts in _signed_types(n):
        images = []
        signs = []
        pos = 0
        for length, parity in parts:
            block = list(range(pos + 1, pos + length)) + [pos]
            images.extend(block)
            signs.extend([parity] + [0] * (length - 1))
            pos += length
        reps.append(SignedPermutation(tuple(signs), Permutation(images)))
    return reps


def _signed_types(n: int) -> list:
    """All multisets of (cycle length, parity) summing to n, sorted."""

    def gen(remaining, min_part):
        if remaining == 0:
            yield ()
            return
        for length in range(min_part, remaining + 1):
            for parity in (0, 1):
                for rest in gen(remaining - length, length):
                    part = ((length, parity),) + rest
                    yield tuple(sorted(part))

    return sorted(set(gen(n, 1)))


# -- coset-transposition identities ----------------------------------------

# Each row: a list of equal words; a word is a list of cycles over the
# tokens 1, 2 (literal points) and j, k, j1, k1 (pairwise distinct
# variables ranging over 3..m); "cond" restricts the assignment.
_ID_ROWS = [
    # left factor (1 2)
    {"sides": [[(1, 2)], [(1, 2)]], "vars": ()},
    {"sides": [[(1, 2), (2, "j")], [(2, "j", 1)], [(1, "j"), (1, 2)]], "vars": ("j",)},
    {"sides": [[(1, 2), (1, "j")], [(1, "j", 2)], [(2, "j"), (1, 2)]], "vars": ("j",)},
    {
        "sides": [
            [(1, 2), (1, "k"), (2, "j")],
            [(1, "k", 2), (2, "j")],
            [(1, "k"), (2, "j"), ("k", "j")],
        ],
        "vars": ("j", "k"),
    },
    # left factor (1 j)
    {"sides": [[(1, "j")], [(1, "j")]], "vars": ("j",)},
    {"sides": [[(1, "j"), (2, "j")], [("j", 2, 1)], [(2, "j"), (1, 2)]], "vars": ("j",)},
    {
        "sides": [[(1, "j"), (2, "j1")], [(1, "j"), (2, "j1")]],
        "vars": ("j", "j1"),
        "cond": lambda v: v["j"] < v["j1"],
    },
    {
        "sides": [
            [(1, "j"), (2, "j1")],
            [(1, "j1"), (2, "j"), ("j", "j1"), (1, 2)],
        ],
        "vars": ("j", "j1"),
        "cond": lambda v: v["j"] > v["j1"],
    },
    {"sides": [[(1, "j"), (1, "j")], []], "vars": ("j",)},
    {
        "sides": [[(1, "j"), (1, "j1")], [(1, "j1", "j")], [(1, "j1"), ("j", "j1")]],
        "vars": ("j", "j1"),
    },
    {
        "sides": [
            [(1, "j"), (1, "k"), (2, "j")],
            [(1, "k", "j"), (2, "j")],
            [(2, "k"), (1, 2), ("k", "j")],
        ],
        "vars": ("j", "k"),
    },
    {
        "sides": [[(1, "j"), (1, "j"), (2, "j1")], [(2, "j1")]],
        "vars": ("j", "j1"),
    },
    {
        "sides": [
            [(1, "j"), (1, "k"), (2, "j1")],
            [(1, "k"), ("k", "j"), (2, "j1")],
            [(1, "k"), (2, "j1"), ("k", "j")],
        ],
        "vars": ("j", "k", "j1"),
    },
    # left factor (2 j)
    {"sides": [[(2, "j")], [(2, "j")]], "vars": ("j",)},
    {"sides": [[(2, "j"), (2, "j")], []], "vars": ("j",)},
    {
        "sides": [[(2, "j"), (2, "j1")], [(2, "j1", "j")], [(2, "j1"), ("j", "j1")]],
        "vars": ("j", "j1"),
    },
    {"sides": [[(2, "j"), (1, "j")], [("j", 1, 2)], [(1, "j"), (1, 2)]], "vars": ("j",)},
    {
        "sides": [
            [(2, "j"), (1, "j1")],
            [(1, "j"), (2, "j1"), ("j", "j1"), (1, 2)],
        ],
        "vars": ("j", "j1"),
        "cond": lambda v: v["j"] < v["j1"],
    },
    {
        "sides": [[(2, "j"), (1, "j1")], [(1, "j1"), (2, "j")]],
        "vars": ("j", "j1"),
        "cond": lambda v: v["j"] > v["j1"],
    },
    {
        "sides": [[(2, "j"), (1, "k"), (2, "j")], [(1, "k")]],
        "vars": ("j", "k"),
    },
    {
        "sides": [
            [(2, "j"), (1, "j"), (2, "j1")],
            [(1, "j"), (1, 2), (2, "j1")],
            [(1, "j"), (1, "j1"), (1, 2)],
            [(1, "j1"), (1, 2), ("j", "j1")],
        ],
        "vars": ("j", "j1"),
    },
    {
        "sides": [
            [(2, "j"), (1, "k"), (2, "j1")],
            [(2, "j"), (2, "j1"), (1, "k")],
            [(2, "j1"), ("j1", "j"), (1, "k")],
            [(2, "j1"), (1, "k"), ("j1", "j")],
        ],
        "vars": ("j", "k", "j1"),
    },
    # left factor (k j), 2 < k < j
    {"sides": [[("k", "j")], [("k", "j")]], "vars": ("k", "j"), "ordered": True},
    {"sides": [[("k", "j"), (2, "j")], [(2, "k"), ("k", "j")]], "vars": ("k", "j"), "ordered": True},
    {"sides": [[("k", "j"), (2, "k")], [(2, "j"), ("k", "j")]], "vars": ("k", "j"), "ordered": True},
    {
        "sides": [[("k", "j"), (2, "j1")], [(2, "j1"), ("k", "j")]],
        "vars": ("k", "j", "j1"),
        "ordered": True,
    },
    {"sides": [[("k", "j"), (1, "j")], [(1, "k"), ("k", "j")]], "vars": ("k", "j"), "ordered": True},
    {"sides": [[("k", "j"), (1, "k")], [(1, "j"), ("k", "j")]], "vars": ("k", "j"), "ordered": True},
    {
        "sides": [[("k", "j"), (1, "j1")], [(1, "j1"), ("k", "j")]],
        "vars": ("k", "j", "j1"),
        "ordered": True,
    },
    {
        "sides": [
            [("k", "j"), (1, "k"), (2, "j")],
            [(1, "k"), (2, "j"), (1, 2)],
        ],
        "vars": ("k", "j"),
        "ordered": True,
    },
    # (k j)(1 k1)(2 j1) with one coincidence among the indices
    {
        "sides": [
            [("k", "j"), (1, "j"), (2, "j1")],
            [(1, "k"), (2, "j1"), ("k", "j")],
        ],
        "vars": ("k", "j", "j1"),
        "ordered": True,
    },
    {
        "sides": [
            [("k", "j"), (1, "k1"), (2, "j")],
            [(1, "k1"), (2, "k"), ("k", "j")],
        ],
        "vars": ("k", "j", "k1"),
        "ordered": True,
        "cond": lambda v: v["k1"] < v["k"],
    },
    {
        "sides": [
            [("k", "j"), (1, "k1"), (2, "j")],
            [(1, "k"), (2, "k1"), (1, 2), ("k", "j", "k1")],
        ],
        "vars": ("k", "j", "k1"),
        "ordered": True,
        "cond": lambda v: v["k1"] > v["k"],
    },
    {
        "sides": [
            [("k", "j"), (1, "k"), (2, "j1")],
            [(1, "j"), (2, "j1"), ("k", "j")],
        ],
        "vars": ("k", "j", "j1"),
        "ordered": True,
        "cond": lambda v: v["j1"] > v["j"],
    },
    {
        "sides": [
            [("k", "j"), (1, "k"), (2, "j1")],
            [(1, "j1"), (2, "j"), (1, 2), ("j", "k", "j1")],
        ],
        "vars": ("k", "j", "j1"),
        "ordered": True,
        "cond": lambda v: v["j1"] < v["j"],
    },
    {
        "sides": [
            [("k", "j"), (1, "k1"), (2, "k")],
            [(1, "k1"), (2, "j"), ("k", "j")],
        ],
        "vars": ("k", "j", "k1"),
        "ordered": True,
    },
    {
        "sides": [
            [("k", "j"), (1, "k1"), (2, "j1")],
            [(1, "k1"), (2, "j1"), ("k", "j")],
        ],
        "vars": ("k", "j", "k1", "j1"),
        "ordered": True,
    },
]


def _word_perm(m: int, word: list, values: dict) -> Permutation:
    out = Permutation.identity(m)
    for cyc in word:
        out = out * Permutation.from_cycles(
            m, [tuple(values.get(t, t) for t in cyc)]
        )
    return out


def check_coset_identities(cfg: VerifyConfig) -> tuple:
    m = cfg.max_m
    instances = 0
    for row in _ID_ROWS:
        names = row["vars"]
        cond = row.get("cond")
        for combo in itertools.permutations(range(3, m + 1), len(names)):
            values = dict(zip(names, combo))
            if row.get("ordered") and not values["k"] < values["j"]:
                continue  # rows with left factor (k j) assume k < j
            if cond is not None and not cond(values):
                continue
            perms = [_word_perm(m, side, values) for side in row["sides"]]
            if any(p != perms[0] for p in perms[1:]):
                return "fail", {
                    "row": repr(row["sides"]),
                    "assignment": values,
                }
            instances += 1
    # consequence: every product g_st * t_ij factors as g_{s't'} * gamma
    # with gamma in the centralizer of (1 2)
    cs = transposition_preset(min(m, 6))
    base = cs.cls.rep
    factored = 0
    for i in range(cs.size):
        for j in range(cs.cls.size):
            u = cs[i] * cs.cls.elements[j]
            t = u.conjugate(base)
            gamma = cs[cs.cls.index[t]].inverse() * u
            if gamma * base != base * gamma:
                return "fail", {"reason": "cocycle escapes centralizer", "i": i, "j": j}
            factored += 1
    return "pass", {"m": m, "instances": instances, "cocycle_factorizations": factored}


# -- character table and sign products -------------------------------------

_EXPECTED_TABLE = {
    "sgn-sgn": {
        "2<i<j<k": (-1, -1, -1),
        "i=1,j=2<k": (1, 1, -1),
        "i=1,2<j<k": (-1, 1, 1),
        "i=2<j<k": (-1, 1, 1),
        "2<i<k<j": (-1, -1, -1),
        "i=1,k=2<j": (1, -1, 1),
        "i=1,2<k<j": (-1, 1, 1),
        "i=2<k<j": (-1, 1, 1),
    },
    "eps-sgn": {
        "2<i<j<k": (1, -1, 1),
        "i=1,j=2<k": (1, 1, -1),
        "i=1,2<j<k": (1, -1, 1),
        "i=2<j<k": (1, 1, -1),
        "2<i<k<j": (1, 1, -1),
        "i=1,k=2<j": (1, -1, 1),
        "i=1,2<k<j": (1, 1, -1),
        "i=2<k<j": (1, -1, 1),
    },
}


def check_character_table(cfg: VerifyConfig) -> tuple:
    cs = transposition_preset(5)
    cent = cs.centralizer
    for name, chi in (("sgn-sgn", chi_sgn_sgn(cent)), ("eps-sgn", chi_eps_sgn(cent))):
        got = table1_values(cs, chi)
        if got != _EXPECTED_TABLE[name]:
            return "fail", {"character": name, "got": got}
    return "pass", {"cases": len(_EXPECTED_TABLE["sgn-sgn"]), "characters": 2}


def check_sign_products(cfg: VerifyConfig) -> tuple:
    total = 0
    for n in range(3, cfg.sign_product_max_n + 1):
        cs = transposition_preset(n)
        cent = cs.centralizer
        for chi in (chi_sgn_sgn(cent), chi_eps_sgn(cent)):
            for i, j, k in itertools.permutations(range(1, n + 1), 3):
                if _as_int(sign_product(cs, chi, i, j, k)) != -1:
                    return "fail", {"n": n, "triple": (i, j, k)}
                total += 1
    return "pass", {"triples": total, "max_n": cfg.sign_product_max_n}


def check_quadratic_relations(cfg: VerifyConfig) -> tuple:
    """Degree-2 relations of the transposition-class braidings: the
    triple relation admits signs (-1, 1), disjoint pairs commute up to a
    character-dependent sign, and squares vanish."""
    results = {}
    for n in (3, 4):
        cs = transposition_preset(n)
        cent = cs.centralizer
        for name, chi in (
            ("sgn-sgn", chi_sgn_sgn(cent)),
            ("eps-sgn", chi_eps_sgn(cent)),
        ):
            braiding = build_yd_module(cs, chi).braiding()
            signs = triple_relation_signs(braiding, n, 1, 2, 3)
            if (-1, 1) not in signs:
                return "fail", {"n": n, "character": name, "signs": signs}
            if not square_relation_holds(braiding, n, 1, 2):
                return "fail", {"n": n, "character": name, "reason": "square"}
            if n >= 4:
                lams = pair_relation_lambdas(braiding, n, 1, 2, 3, 4)
                expected = [-1] if name == "sgn-sgn" else [1]
                if lams != expected:
                    return "fail", {"n": n, "character": name, "lambdas": lams}
                results[f"lambda-{name}"] = expected[0]
    return "pass", results


# -- type-D certificate builders -------------------------------------------


def _class_of(n: int, sign: tuple, perm: Permutation) -> ConjugacyClass:
    return ConjugacyClass(Bn(n), SignedPermutation(tuple(sign), perm))


def coset_pair_certificate(
    cls: ConjugacyClass,
    tau: Permutation,
    mu: Permutation,
    r_elem: SignedPermutation,
    s_elem: SignedPermutation,
    note: str,
) -> TypeDCertificate:
    """R and S are the class elements whose permutation part is exactly
    tau resp. mu; requires tau and mu to commute so the cross closure
    holds, and a witness pair with sq(r, s) != s."""
    if not tau.commutes_with(mu):
        raise ValueError("permutation parts must commute")
    rack = FiniteRack.from_class(cls)
    cosets = perm_cosets(cls)
    return make_certificate(
        rack, cosets[tau], cosets[mu], r_elem, s_elem, "coset-pair", (note,)
    )


def cycle_split_certificate(n: int, negative: bool) -> TypeDCertificate:
    """Type-D certificate for the class of a full n-cycle (n odd >= 5),
    split along the tau / tau^2 permutation cosets."""
    if n % 2 == 0 or n < 5:
        raise ValueError("need odd n >= 5")
    tau = Permutation.from_cycles(n, [tuple(range(1, n + 1))])
    if negative:
        a = (1,) * n
        b = (1,) + (0,) * (n - 1)
    else:
        a = (0,) * n
        b = (1, 0, 0, 1, 0) if n == 5 else (1, 1) + (0,) * (n - 2)
    cls = _class_of(n, a, tau)
    r = SignedPermutation(a, tau)
    s = SignedPermutation(b, tau * tau)
    return coset_pair_certificate(
        cls, tau, tau * tau, r, s, f"cycle split, n={n}, negative={negative}"
    )


# the four published sign cases for the double-3-cycle class in B_6
_DOUBLE3_CASES = [
    ((1, 1, 1, 1, 1, 1), (1, 0, 0, 1, 0, 0)),
    ((0, 0, 0, 0, 0, 0), (0, 0, 0, 1, 1, 0)),
    ((1, 0, 0, 0, 0, 0), (1, 0, 0, 1, 1, 0)),
    ((0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0)),
]


def double_three_cycle_certificate(case: int) -> TypeDCertificate:
    """Type-D certificates for the (3,3) classes in B_6, one per sign
    case, split along the two commuting permutation cosets."""
    a, b = _DOUBLE3_CASES[case]
    tau = Permutation.from_cycles(6, [(1, 2, 3), (4, 5, 6)])
    mu = Permutation.from_cycles(6, [(1, 3, 2), (4, 5, 6)])
    cls = _class_of(6, a, tau)
    r = SignedPermutation(a, tau)
    s = SignedPermutation(b, mu)
    return coset_pair_certificate(cls, tau, mu, r, s, f"double-3-cycle case {case}")


_TWO_TWO_THREE_CASES = [
    ((0,) * 7, (0, 0, 0, 0, 1, 1, 0)),
    ((0, 0, 0, 0, 1, 1, 1), (0, 0, 0, 0, 1, 0, 0)),
]


def two_two_three_certificate(case: int) -> TypeDCertificate:
    """Type-D certificates for the (2,2,3) classes in B_7, split along
    two commuting Klein-four twists of the same 3-cycle."""
    a, b = _TWO_TWO_THREE_CASES[case]
    pi = [(5, 6, 7)]
    tau = Permutation.from_cycles(7, pi + [(1, 2), (3, 4)])
    mu = Permutation.from_cycles(7, pi + [(1, 3), (2, 4)])
    cls = _class_of(7, a, tau)
    r = SignedPermutation(a, tau)
    s = SignedPermutation(b, mu)
    return coset_pair_certificate(cls, tau, mu, r, s, f"(2,2,3) case {case}")


_FIXED_SPLIT_FAMILIES = {
    "near-transposition": {
        "cycles": [(1, 2)],
        "witness": ([(1, 2)], [(2, 3)]),
        "min_n": 4,
    },
    "near-3-cycle": {
        "cycles": [(1, 2, 3)],
        "witness": ([(1, 2, 3)], [(2, 4, 3)]),
        "min_n": 5,
    },
    "double-transposition": {
        "cycles": [(1, 2), (3, 4)],
        "witness": ([(1, 2), (3, 4)], [(2, 3), (4, 5)]),
        "min_n": 6,
    },
}


def fixed_sign_split_certificate(n: int, family: str) -> TypeDCertificate:
    """Split a class with mixed fixed-point signs on the sign bit at the
    last point; the witness pair projects to a permutation pair with
    sq(tau0, mu0) != mu0, which forces sq(r, s) != s upstairs."""
    spec = _FIXED_SPLIT_FAMILIES[family]
    if n < spec["min_n"]:
        raise ValueError(f"{family} needs n >= {spec['min_n']}")
    tau = Permutation.from_cycles(n, spec["cycles"])
    a = (0,) * (n - 1) + (1,)  # one negative fixed point: mixed fixed signs
    cls = _class_of(n, a, tau)
    rack = FiniteRack.from_class(cls)
    R, S = fixed_point_split(cls, n - 1)
    tau0 = Permutation.from_cycles(n, spec["witness"][0])
    mu0 = Permutation.from_cycles(n, spec["witness"][1])
    if sq(tau0, mu0) == mu0:
        raise AssertionError("witness permutation pair does not separate")
    r = next(x for x in R if x.perm == tau0)
    s = next(x for x in S if x.perm == mu0)
    return make_certificate(rack, R, S, r, s, "fixed-sign-split", (f"{family}, n={n}",))


def check_cycle_split(cfg: VerifyConfig) -> tuple:
    sizes = {}
    for n in (5, 7):
        for negative in (False, True):
            cert = cycle_split_certificate(n, negative)
            sizes[f"n={n},negative={negative}"] = [len(cert.R), len(cert.S)]
    return "pass", {"certificates": sizes}


def check_double_three_cycle(cfg: VerifyConfig) -> tuple:
    sizes = {}
    for case in range(4):
        cert = double_three_cycle_certificate(case)
        sizes[f"case-{case}"] = [len(cert.R), len(cert.S)]
    return "pass", {"certificates": sizes}


def check_two_two_three(cfg: VerifyConfig) -> tuple:
    sizes = {}
    for case in range(2):
        cert = two_two_three_certificate(case)
        sizes[f"case-{case}"] = [len(cert.R), len(cert.S)]
    return "pass", {"certificates": sizes}


def check_fixed_sign_split(cfg: VerifyConfig) -> tuple:
    sizes = {}
    for family, spec in _FIXED_SPLIT_FAMILIES.items():
        for n in (5, 6):
            if n < spec["min_n"]:
                continue
            cert = fixed_sign_split_certificate(n, family)
            sizes[f"{family},n={n}"] = [len(cert.R), len(cert.S)]
    return "pass", {"certificates": sizes}


def check_juxtaposition_extension(cfg: VerifyConfig) -> tuple:
    results = {}
    # extend the positive 5-cycle certificate by a transposition block
    base = cycle_split_certificate(5, negative=False)
    y = SignedPermutation((0, 0), Permutation.from_cycles(2, [(1, 2)]))
    big = juxtaposition_extend_certificate(base, y)
    results["5-cycle # transposition"] = big.rack.size
    # extend a double-3-cycle certificate by a negative fixed point
    base = double_three_cycle_certificate(1)
    y = SignedPermutation((1,), Permutation.identity(1))
    big = juxtaposition_extend_certificate(base, y)
    results["(3,3) # negative point"] = big.rack.size
    return "pass", {"extended_rack_sizes": results}


def check_projection_pullback(cfg: VerifyConfig) -> tuple:
    n = 5
    tau = Permutation.from_cycles(n, [(1, 2, 3, 4)])
    a = (1,) + (0,) * (n - 1)
    up = FiniteRack.from_class(_class_of(n, a, tau))
    down = FiniteRack.from_class(
        ConjugacyClass(Sn(n), SignedPermutation.from_perm(tau))
    )
    # construction of the epimorphism certifies homomorphy and surjectivity
    hom = RackEpimorphism(up, down, lambda x: SignedPermutation.from_perm(x.perm))
    res = find_type_d_certificate(down, cfg.seed)
    if not res:
        return "inconclusive", {"reason": "no certificate on the projected rack"}
    lifted = pullback_type_d(hom, res.certificate)
    return "pass", {
        "projected_strategy": res.certificate.strategy,
        "lifted_sizes": [len(lifted.R), len(lifted.S)],
    }


# -- arrow-module isomorphism ----------------------------------------------


class _CorruptedCosets:
    """Coset table with two representatives swapped; the arrow module
    built on top must fail the isomorphism check."""

    def __init__(self, cs):
        self.cls = cs.cls
        self.centralizer = cs.centralizer
        self._cs = cs

    @property
    def size(self):
        return self._cs.size

    def __getitem__(self, i):
        swap = {0: 1, 1: 0}
        return self._cs[swap.get(i, i)]


def check_arrow_isomorphism(cfg: VerifyConfig) -> tuple:
    checked = {}
    for n in (3, 4):
        cs = transposition_preset(n)
        cent = cs.centralizer
        for name, chi in (
            ("sgn-sgn", chi_sgn_sgn(cent)),
            ("eps-sgn", chi_eps_sgn(cent)),
        ):
            yd = build_yd_module(cs, chi)
            arrow = ArrowYDModule(cs, chi)
            res = psi_isomorphism_check(yd, arrow)
            if not res:
                return "fail", {"n": n, "character": name, "witness": res.witness}
            checked[f"n={n},{name}"] = "isomorphic"
    # negative control: a corrupted coset table must be detected
    cs = transposition_preset(3)
    cent = cs.centralizer
    chi = chi_sgn_sgn(cent)
    yd = build_yd_module(cs, chi)
    try:
        bad = ArrowYDModule(_CorruptedCosets(cs), chi)
        res = psi_isomorphism_check(yd, bad)
        detected = not res
        witness = res.witness
    except AssertionError as exc:
        detected, witness = True, {"error": str(exc)}
    if not detected:
        return "fail", {"reason": "corrupted coset table was not detected"}
    checked["negative-control"] = witness
    return "pass", checked


# -- scalar filter cases ---------------------------------------------------

# (label, first-factor signs, first-factor cycles, second-factor signs,
#  expected admitted (q1, q2) sign pairs); the second factor is a sign
# vector over fixed points, orthogonal to the first factor.
_FILTER_CASES = [
    ("pos-transposition/neg-point", (0, 0), [(1, 2)], (1,), [(1, -1), (-1, 1)]),
    ("neg-transposition/identity", (1, 1), [(1, 2)], (0,), [(-1, 1)]),
    ("pos-3-cycle/neg-point", (0, 0, 0), [(1, 2, 3)], (1,), [(1, -1)]),
    ("neg-3-cycle/identity", (1, 1, 1), [(1, 2, 3)], (0,), [(-1, 1)]),
    ("pos-(2,2)/neg-pair", (0, 0, 0, 0), [(1, 2), (3, 4)], (1, 1), [(1, -1)]),
    (
        "negneg-(2,2)/neg-pair",
        (1, 0, 1, 0),
        [(1, 2), (3, 4)],
        (1, 1),
        [(1, -1), (-1, 1)],
    ),
    ("negneg-(2,2)/identity", (1, 0, 1, 0), [(1, 2), (3, 4)], (0, 0), [(-1, 1)]),
    (
        "negpos-(2,2)/neg-pair",
        (1, 0, 0, 0),
        [(1, 2), (3, 4)],
        (1, 1),
        [(1, -1), (-1, 1)],
    ),
    ("negpos-(2,2)/identity", (1, 0, 0, 0), [(1, 2), (3, 4)], (0, 0), [(-1, 1)]),
]


def check_scalar_filter(cfg: VerifyConfig) -> tuple:
    results = {}
    for label, c, cycles, d, expected in _FILTER_CASES:
        x = SignedPermutation(c, Permutation.from_cycles(len(c), cycles))
        y = SignedPermutation(d, Permutation.identity(len(d)))
        got = sorted(tensor_case_admitted(x, y))
        if got != sorted(expected):
            return "fail", {"case": label, "got": got, "expected": expected}
        results[label] = got
    return "pass", {"cases": {k: [list(p) for p in v] for k, v in results.items()}}


# -- registry --------------------------------------------------------------

LEMMA_CHECKS = [
    ("square-closed-forms", check_square_closed_forms),
    ("negative-control", check_negative_control),
    ("juxtaposition-laws", check_juxtaposition_laws),
    ("coset-transposition-identities", check_coset_identities),
    ("character-table", check_character_table),
    ("sign-products", check_sign_products),
    ("quadratic-relations", check_quadratic_relations),
    ("cycle-split", check_cycle_split),
    ("double-3-cycle-split", check_double_three_cycle),
    ("two-two-three-split", check_two_two_three),
    ("fixed-sign-split", check_fixed_sign_split),
    ("juxtaposition-extension", check_juxtaposition_extension),
    ("projection-pullback", check_projection_pullback),
    ("arrow-isomorphism", check_arrow_isomorphism),
    ("scalar-filter", check_scalar_filter),
]


def verify_lemmas(
    selection: list | None = None, config: VerifyConfig | None = None
) -> list:
    config = config or VerifyConfig()
    known = {name for name, _ in LEMMA_CHECKS}
    if selection is not None:
        unknown = set(selection) - known
        if unknown:
            raise ValueError(f"unknown checks: {sorted(unknown)}")
    reports = []
    for name, fn in LEMMA_CHECKS:
        if selection is not None and name not in selection:
            continue
        start = time.monotonic()
        try:
            status, detail = fn(config)
        except Exception as exc:  # a crashed check is a failed check
            status, detail = "fail", {"error": f"{type(exc).__name__}: {exc}"}
        reports.append(
            VerificationReport(
                name, status, detail, time.monotonic() - start, config.to_json()
            )
        )
    return reports


# -- the class scan --------------------------------------------------------


def _format_type(key: tuple) -> str:
    return " ".join(f"({l}{'-' if p else '+'})" for l, p in key)


def exception_family(key: tuple) -> str | None:
    """Match a signed cycle type against the published exception list.
    Families i and ii are absolute; family iii additionally requires all
    fixed-point signs equal."""
    lengths = sorted(l for l, _ in key)
    n = sum(lengths)
    if lengths in ([2, 3], [2, 2, 2]):
        return "i"
    if lengths in ([2, 2, 2, 2], [1, 2, 2]):
        return "ii"
    family_iii = (
        lengths == [1, 1, 2, 2]
        or lengths == [1] * (n - 2) + [2]
        or lengths == [1] * (n - 3) + [3]
    )
    if family_iii:
        fixed_signs = {p for l, p in key if l == 1}
        if len(fixed_signs) <= 1:
            return "iii"
    return None


def count_nontrivial_classes(n: int) -> int:
    return sum(1 for key in _signed_types(n) if any(l > 1 for l, _ in key))


def scan_classes(n: int, config: VerifyConfig | None = None) -> list:
    """Classify every conjugacy class of B_n with nontrivial permutation
    part: exception-list rows are matched by type, everything else gets a
    certificate search."""
    config = config or VerifyConfig()
    rows = []
    deadline = time.monotonic() + config.scan_time_budget
    for rep in _class_representatives(n):
        key = rep.signed_cycle_type()
        if all(l == 1 for l, _ in key):
            continue
        fixed_signs = sorted({p for l, p in key if l == 1})
        if not fixed_signs:
            sign_condition = "no fixed points"
        elif len(fixed_signs) == 1:
            sign_condition = "fixed signs equal"
        else:
            sign_condition = "fixed signs mixed"
        family = exception_family(key)
        cert = None
        if family is not None:
            outcome, note = "exception-list", f"family {family}"
        elif time.monotonic() > deadline:
            outcome, note = "inconclusive", "time budget exhausted"
        else:
            rack = FiniteRack.from_class(ConjugacyClass(Bn(n), rep))
            res = find_type_d_certificate(rack, config.seed)
            if res:
                outcome, note = "certificate", ""
                cert = res.certificate.to_json()
            else:
                outcome = "inconclusive"
                note = (
                    "no certificate found; "
                    "the known exception list may not apply at this n"
                )
        rows.append(ScanRow(n, _format_type(key), sign_condition, outcome, cert, note))
    if len(rows) != count_nontrivial_classes(n):
        raise AssertionError("scan rows do not partition the classes")
    return rows


# -- report emission -------------------------------------------------------


def emit_report(reports: list, fmt: str = "json", include_runtime: bool = False):
    """Serialize VerificationReports or ScanRows; canonical JSON, CSV, or
    a markdown table.  Byte-deterministic for a fixed config unless
    runtimes are requested."""
    payload = [
        r.to_json(include_runtime) if isinstance(r, VerificationReport) else r.to_json()
        for r in reports
    ]
    if fmt == "json":
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    keys = sorted({k for item in payload for k in item})
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=keys, lineterminator="\n")
        writer.writeheader()
        for item in payload:
            writer.writerow(
                {
                    k: json.dumps(v, sort_keys=True) if isinstance(v, (dict, list)) else v
                    for k, v in item.items()
                }
            )
        return buf.getvalue()
    if fmt == "markdown":
        lines = ["| " + " | ".join(keys) + " |", "|" + "---|" * len(keys)]
        for item in payload:
            cells = []
            for k in keys:
                v = item.get(k, "")
                if isinstance(v, (dict, list)):
                    v = json.dumps(v, sort_keys=True)
                cells.append(str(v).replace("|", "\\|"))
            lines.append("| " + " | ".join(cells) + " |")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")
