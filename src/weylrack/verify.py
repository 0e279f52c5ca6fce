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

import copy
import csv
import io
import itertools
import json
import random
import time
from dataclasses import dataclass

import numpy as np

from .conjugacy import (
    BLOCK_PRODUCTS,
    ConjugacyClass,
    centralizer_factorization,
    check_class_budget,
    class_juxtaposition,
    transposition_preset,
)
from .cyclotomic import as_int
from .groups import (
    Bn,
    Permutation,
    SignedPermutation,
    Sn,
    act_rows,
    compose_rows,
    conjugate_pairs,
    cycle_lengths,
    from_arrays,
    juxtapose_rows,
    mul_rows,
    rand_int,
)
from .nichols import (
    cocycle_values,
    pair_relation_lambdas,
    square_relation_holds,
    table1_values,
    triple_relation_signs,
)
from .racks import (
    FiniteRack,
    RackEpimorphism,
    TypeDCertificate,
    clear_search_cache,
    find_type_d_certificate,
    fixed_point_split,
    juxtaposition_extend_certificate,
    make_certificate,
    projection,
    pullback_type_d,
    sq_fixes_second,
    sq_signed,
    sq_signed_commuting,
)
from .reps import chi_eps_sgn, chi_sgn_sgn, tensor_case_admitted
from .ydmodule import ArrowYDModule, build_yd_module, psi_isomorphism_check


# the largest B_n of the sampled sq laws, the largest m of the coset
# identities, and the largest S_n of the sign products
MAX_N = 8
MAX_M = 8
SIGN_PRODUCT_MAX_N = 6
# seconds a scan searches before its later rows are inconclusive (read per scan)
SCAN_TIME_BUDGET = 1800.0


@dataclass
class VerifyConfig:
    seed: int = 0
    samples: int = 10000
    mutate: bool = False

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError(f"samples must be at least 1, got {self.samples}")

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "samples": self.samples,
            "max_n": MAX_N,
            "max_m": MAX_M,
            "sign_product_max_n": SIGN_PRODUCT_MAX_N,
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


# -- sampled laws, checked on row stacks ------------------------------------
#
# Each sampled check draws its instances from the seeded stream as plain
# rows grouped by degree, then tests every law on each group's stacks at
# once.  A failure is reported at the earliest sample, and within
# it at the first law in the check's order, as a sample-by-sample loop
# would; its detail is built from that one sample.


def _record(draws: dict, key, sample: int, *rows) -> None:
    """Add one sample's rows (lists of small ints) to its group in draws,
    packed as bytes: 10000 samples held as Python lists would raise the
    check's peak memory by several MB."""
    if key not in draws:
        draws[key] = ([], bytearray(), [len(row) for row in rows])
    samples, packed, _ = draws[key]
    samples.append(sample)
    for row in rows:
        packed.extend(row)


def _earliest_failure(draws: dict, laws):
    """(law index, row, stacks) for the earliest sample that breaks a law,
    and the first law it breaks; None if every sample keeps every law.
    `draws` holds the groups of _record; laws(*stacks) gives one boolean
    array per law over a group's rows, in the order a sample's laws are
    checked, where the stacks are the group's int8 arrays, one per row
    field."""
    failures = []
    for samples, packed, widths in draws.values():
        flat = np.frombuffer(packed, dtype=np.int8).reshape(len(samples), -1)
        stacks = np.split(flat, np.cumsum(widths)[:-1], axis=1)
        broken = np.stack(laws(*stacks), axis=1)
        bad = np.flatnonzero(broken.any(axis=1))
        if bad.size:
            row = int(bad[0])
            failures.append((samples[row], int(np.argmax(broken[row])), row, stacks))
    if not failures:
        return None
    return min(failures, key=lambda f: f[0])[1:]


def _differ(P: np.ndarray, A: np.ndarray, Q: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Row-wise (P, A) != (Q, B)."""
    return (P != Q).any(axis=1) | (A != B).any(axis=1)


def _sq_rows(P: np.ndarray, A: np.ndarray, Q: np.ndarray, B: np.ndarray) -> tuple:
    """sq(x, y) = x |> (y |> (x |> y)) on paired rows: the direct side,
    derived apart from the closed forms."""
    return conjugate_pairs(P, A, *conjugate_pairs(Q, B, *conjugate_pairs(P, A, Q, B)))


def _element(P: np.ndarray, A: np.ndarray, row: int) -> SignedPermutation:
    return from_arrays(P[row : row + 1], A[row : row + 1])[0]


def _mutated_commuting(P, A, Q, B) -> tuple:
    """Deliberately wrong commuting-case formula (one sign term dropped);
    used as a negative control for harness soundness."""
    L, C = sq_signed_commuting(P, A, Q, B)
    return L, C ^ act_rows(Q, A)


SQUARE_LAWS = ("general", "commuting", "fix-criterion")


def check_square_closed_forms(cfg: VerifyConfig) -> tuple:
    rng = random.Random(cfg.seed)
    commuting_form = _mutated_commuting if cfg.mutate else sq_signed_commuting
    counts = {"general": 0, "commuting": 0, "conjugate-fixed": 0, "involution": 0}

    def laws(P, A, Q, B):
        direct = _sq_rows(P, A, Q, B)
        # the commuting-case laws apply to the rows whose parts commute
        c = np.flatnonzero((compose_rows(P, Q) == compose_rows(Q, P)).all(axis=1))
        counts["commuting"] += len(c)
        commuting, fixes = np.zeros(len(P), bool), np.zeros(len(P), bool)
        commuting[c] = _differ(*commuting_form(P[c], A[c], Q[c], B[c]), direct[0][c], direct[1][c])
        fixed = ~_differ(direct[0][c], direct[1][c], Q[c], B[c])
        fixes[c] = sq_fixes_second(P[c], A[c], Q[c], B[c]) != fixed
        return [_differ(*sq_signed(P, A, Q, B), *direct), commuting, fixes]

    # blocks of 4, 16, 64, ... samples, at most BLOCK_PRODUCTS: a failing run,
    # such as the negative control's, stops soon after its first failure
    signed = {n: Bn(n) for n in range(2, MAX_N + 1)}
    failure, start, block = None, 0, 4
    while failure is None and start < cfg.samples:
        draws = {}
        for i in range(start, min(start + block, cfg.samples)):
            n = rand_int(rng, 2, MAX_N)
            tau, a = signed[n].random_row(rng)
            mu, b = signed[n].random_row(rng)
            if rng.random() < 0.5:
                # force a commuting pair: replace mu by a power of tau
                mu = list(range(n))
                for _ in range(rand_int(rng, 0, n)):
                    mu = [tau[j] for j in mu]
            _record(draws, n, i, tau, a, mu, b)
        failure = _earliest_failure(draws, laws)
        start, block = start + block, min(4 * block, BLOCK_PRODUCTS)
    if failure is not None:
        law, row, (P, A, Q, B) = failure
        x, y = _element(P, A, row), _element(Q, B, row)
        detail = {"law": SQUARE_LAWS[law], "x": x.format(), "y": y.format()}
        if SQUARE_LAWS[law] == "commuting":
            pair = P[row : row + 1], A[row : row + 1], Q[row : row + 1], B[row : row + 1]
            got, expected = commuting_form(*pair)[1][0], _sq_rows(*pair)[1][0]
            detail["got"] = "".join(map(str, got.tolist()))
            detail["expected"] = "".join(map(str, expected.tolist()))
        return "fail", detail
    counts["general"] = cfg.samples
    # conjugate-pair special cases: (b,mu) = xi |> (a,tau) with xi.a = a;
    # fewer than `floor` of them within 40 * samples attempts is no pass
    floor, attempts, found = 500, 0, 0
    unsigned = {n: Sn(n) for n in range(3, 6)}
    draws = {}
    while found < floor and attempts < 40 * cfg.samples:
        attempts += 1
        n = rand_int(rng, 3, 5)
        xi = unsigned[n].random_row(rng)[0]
        # a constant on the orbits of xi so that xi.a = a, one draw per
        # cycle in the order of their least points
        a = [None] * n
        for least in range(n):
            if a[least] is None:
                s, i = rand_int(rng, 0, 1), least
                while a[i] is None:
                    a[i], i = s, xi[i]
        if rng.random() < 0.5:
            tau = signed[n].random_row(rng)[0]
        else:
            # involution stream for the stronger special case: the
            # transposition of the first two shuffled points
            p, q = unsigned[n].random_row(rng)[0][:2]
            tau = list(range(n))
            tau[p], tau[q] = q, p
        mu = [0] * n  # xi |> tau
        for i in range(n):
            mu[xi[i]] = xi[tau[i]]
        if any(tau[j] != mu[t] for t, j in zip(tau, mu)):
            continue  # tau and xi |> tau do not commute
        involution = all(tau[t] == i for i, t in enumerate(tau)) and all(
            tau[x] == xi[t] for t, x in zip(tau, xi)
        )
        counts["involution"] += involution
        _record(draws, n, found, tau, a, xi, [involution])
        found += 1

    def special_laws(T, A, X, flag):
        involution = flag[:, 0] == 1
        M, YA = conjugate_pairs(X, np.zeros_like(A), T, A)  # y = xi |> x
        _, C = sq_signed(T, A, M, YA)
        expected = A
        for p in (compose_rows(compose_rows(T, M), M), M, T, compose_rows(compose_rows(T, T), M)):
            expected = expected ^ act_rows(p, A)
        return [(C != expected).any(axis=1), involution & (C != A).any(axis=1)]

    failure = _earliest_failure(draws, special_laws)
    if failure is not None:
        law, row, (T, A, X, _) = failure
        x, xi = _element(T, A, row), _element(X, np.zeros_like(X), row)
        law = ("conjugate-fixed", "involution")[law]
        return "fail", {"law": law, "x": x.format(), "xi": xi.format()}
    counts["conjugate-fixed"] = found
    if found < floor:
        reason = f"{found} conjugate-fixed instances, below the floor of {floor}"
        return "inconclusive", {"reason": reason, "verified": counts}
    return "pass", {"verified": counts}


def check_negative_control(cfg: VerifyConfig) -> tuple:
    """The harness must catch a corrupted sq formula.  Pass means the
    mutated run failed with a concrete counterexample."""
    mutated = VerifyConfig(seed=cfg.seed, samples=min(cfg.samples, 2000), mutate=True)
    status, detail = check_square_closed_forms(mutated)
    if status == "fail":
        return "pass", {"caught": detail}
    return "fail", {"reason": "mutated formula was not detected"}


# -- juxtaposition laws ----------------------------------------------------


def _random_orthogonal_pair(rng, signed: dict, max_total: int) -> tuple:
    """Rows (images, signs) of x in B_n and y in B_m, n + m <= max_total,
    drawn until x and y share no cycle length; signed[n] is B_n."""
    while True:
        n = rand_int(rng, 1, max_total - 1)
        m = rand_int(rng, 1, max_total - n)
        x = signed[n].random_row(rng)
        y = signed[m].random_row(rng)
        if not (cycle_lengths(x[0]) & cycle_lengths(y[0])):
            return x, y


JUXTAPOSITION_LAWS = ("product", "factorization", "sq-blockwise", "conjugation")


def _juxtaposition_broken(P, A, Q, B, P2, A2, Q2, B2) -> list:
    """Per law, the rows where x # y and x2 # y2 break it."""
    k, n, m = len(P), P.shape[1], Q.shape[1]
    J, J2 = juxtapose_rows(P, A, Q, B), juxtapose_rows(P2, A2, Q2, B2)

    def blockwise(op):
        return juxtapose_rows(*op(P, A, P2, A2), *op(Q, B, Q2, B2))

    # the block embeddings nu->(x) = x # 1 and nu<-(y) = 1 # y
    ident = [np.broadcast_to(np.arange(d, dtype=np.int8), (k, d)) for d in (n, m)]
    right = juxtapose_rows(P, A, ident[1], np.zeros_like(B))
    left = juxtapose_rows(ident[0], np.zeros_like(A), Q, B)
    ab, ba = mul_rows(*right, *left), mul_rows(*left, *right)
    return [
        _differ(*mul_rows(*J, *J2), *blockwise(mul_rows)),
        _differ(*J, *ab) | _differ(*ab, *ba),
        _differ(*_sq_rows(*J, *J2), *blockwise(_sq_rows)),
        _differ(*conjugate_pairs(*J, *J2), *blockwise(conjugate_pairs)),
    ]


def check_juxtaposition_laws(cfg: VerifyConfig) -> tuple:
    rng = random.Random(cfg.seed)
    n_random = min(cfg.samples, 2000)
    signed = {n: Bn(n) for n in range(1, 7)}
    draws = {}
    for i in range(n_random):
        (P, A), (Q, B) = _random_orthogonal_pair(rng, signed, 7)
        n, m = len(P), len(Q)
        x2, y2 = signed[n].random_row(rng), signed[m].random_row(rng)
        _record(draws, (n, m), i, P, A, Q, B, *x2, *y2)
    failure = _earliest_failure(draws, _juxtaposition_broken)
    if failure is not None:
        law, row, (P, A, Q, B, *_) = failure
        x, y = _element(P, A, row), _element(Q, B, row)
        return "fail", {"law": JUXTAPOSITION_LAWS[law], "x": x.format(), "y": y.format()}
    # exhaustive centralizer/class factorization over class representatives;
    # the pairs share their classes, each built once
    checked = 0
    classes = {}
    for n in range(1, 5):
        for m in range(1, 6 - n):
            gx, gy = Bn(n), Bn(m)
            reps_x = _class_representatives(n)
            reps_y = _class_representatives(m)
            for x in reps_x:
                for y in reps_y:
                    if not x.is_orthogonal_to(y):
                        continue
                    centralizer_factorization(gx, x, gy, y, classes)
                    class_juxtaposition(gx, x, gy, y, classes)
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


def _assignments(row: dict, m: int) -> list:
    """The admissible values of a row's variables in 3..m, in the order
    of itertools.permutations."""
    names, cond = row["vars"], row.get("cond")
    out = []
    for combo in itertools.permutations(range(3, m + 1), len(names)):
        values = dict(zip(names, combo))
        if row.get("ordered") and not values["k"] < values["j"]:
            continue  # rows with left factor (k j) assume k < j
        if cond is None or cond(values):
            out.append(values)
    return out


def _word_rows(m: int, word: list, assignments: list) -> np.ndarray:
    """The permutation of the word under each assignment, one row each:
    its cycles multiplied left to right by compose_rows."""
    k = len(assignments)
    out = np.broadcast_to(np.arange(m, dtype=np.int8), (k, m))
    for cyc in word:
        points = [np.array([v.get(t, t) - 1 for v in assignments], dtype=np.int8) for t in cyc]
        C = np.tile(np.arange(m, dtype=np.int8), (k, 1))
        for a, b in zip(points, points[1:] + points[:1]):
            C[np.arange(k), a] = b
        out = compose_rows(out, C)
    return out


def check_coset_identities(cfg: VerifyConfig) -> tuple:
    m = MAX_M
    instances = 0
    for row in _ID_ROWS:
        assignments = _assignments(row, m)
        first, *others = (_word_rows(m, side, assignments) for side in row["sides"])
        bad = np.flatnonzero(np.any([(side != first).any(axis=1) for side in others], axis=0))
        if bad.size:
            return "fail", {"row": repr(row["sides"]), "assignment": assignments[bad[0]]}
        instances += len(assignments)
    # consequence: every product u = g_st * t_ij factors as g_{s't'} * gamma
    # with gamma in the centralizer of (1 2): the cocycle at h = u and g_1 = id
    cs = transposition_preset(min(m, 6))
    cls = cs.cls
    I, J = np.divmod(np.arange(cs.size * cls.size), cls.size)
    try:
        cs.zeta(np.zeros_like(I), *mul_rows(cs.P[I], cs.A[I], cls.P[J], cls.A[J]))
    except ValueError as exc:
        return "fail", {"reason": "cocycle escapes centralizer", "error": str(exc)}
    return "pass", {"m": m, "instances": instances, "cocycle_factorizations": len(I)}


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
    for n in range(3, SIGN_PRODUCT_MAX_N + 1):
        cs = transposition_preset(n)
        cent = cs.centralizer
        triples = list(itertools.permutations(range(1, n + 1), 3))
        for chi in (chi_sgn_sgn(cent), chi_eps_sgn(cent)):
            for triple, (a, b, c) in zip(triples, cocycle_values(cs, chi, triples)):
                if as_int(a * b * c) != -1:
                    return "fail", {"n": n, "triple": triple}
                total += 1
    return "pass", {"triples": total, "max_n": SIGN_PRODUCT_MAX_N}


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
    tau: Permutation, mu: Permutation, a: tuple, b: tuple, note: str
) -> TypeDCertificate:
    """In the class of r = (a, tau) in B_n, R and S are the elements
    whose permutation part is exactly tau resp. mu; requires tau and mu
    to commute so the cross closure holds, and sq(r, s) != s for
    s = (b, mu).  All four are selected on the class rows."""
    cls = _class_of(len(a), a, tau)
    T, M = np.array([tau.images, mu.images], dtype=np.int8)[:, None]
    if (compose_rows(T, M) != compose_rows(M, T)).any():
        raise ValueError("permutation parts must commute")
    R, S = (np.flatnonzero((cls.P == X).all(axis=1)) for X in (T, M))
    r, s = R[(cls.A[R] == a).all(axis=1)][0], S[(cls.A[S] == b).all(axis=1)][0]
    return make_certificate(FiniteRack.from_class(cls), R, S, r, s, "coset-pair", (note,))


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
    return coset_pair_certificate(tau, tau * tau, a, b, f"cycle split, n={n}, negative={negative}")


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
    return coset_pair_certificate(tau, mu, a, b, f"double-3-cycle case {case}")


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
    return coset_pair_certificate(tau, mu, a, b, f"(2,2,3) case {case}")


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
    witness = [Permutation.from_cycles(n, c).images for c in spec["witness"]]
    T, M = np.array(witness, dtype=np.int8)[:, None]
    zeros = np.zeros_like(T)
    if (sq_signed(T, zeros, M, zeros)[0] == M).all():
        raise AssertionError("witness permutation pair does not separate")
    r, s = R[(cls.P[R] == T).all(axis=1)][0], S[(cls.P[S] == M).all(axis=1)][0]
    return make_certificate(rack, R, S, r, s, "fixed-sign-split", (f"{family}, n={n}",))


def _certificate_sizes(certificates) -> tuple:
    """The report of a construction check: [|R|, |S|] of each certificate
    of the (label, certificate) pairs, built one at a time.  Each
    certificate, and the class it holds, is released before the next is
    built."""
    sizes = {}
    for label, cert in certificates:
        sizes[label] = [len(cert.R), len(cert.S)]
        del cert
    return "pass", {"certificates": sizes}


def check_cycle_split(cfg: VerifyConfig) -> tuple:
    return _certificate_sizes(
        (f"n={n},negative={negative}", cycle_split_certificate(n, negative))
        for n in (5, 7)
        for negative in (False, True)
    )


def check_double_three_cycle(cfg: VerifyConfig) -> tuple:
    return _certificate_sizes(
        (f"case-{case}", double_three_cycle_certificate(case)) for case in range(4)
    )


def check_two_two_three(cfg: VerifyConfig) -> tuple:
    return _certificate_sizes(
        (f"case-{case}", two_two_three_certificate(case)) for case in range(2)
    )


def check_fixed_sign_split(cfg: VerifyConfig) -> tuple:
    return _certificate_sizes(
        (f"{family},n={n}", fixed_sign_split_certificate(n, family))
        for family, spec in _FIXED_SPLIT_FAMILIES.items()
        for n in (5, 6)
        if n >= spec["min_n"]
    )


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
    hom = RackEpimorphism(up, down, projection(up.source, down.source))
    res = find_type_d_certificate(down, cfg.seed)
    if not res:
        return "inconclusive", {"reason": "no certificate on the projected rack"}
    lifted = pullback_type_d(hom, res.certificate)
    return "pass", {
        "projected_strategy": res.certificate.strategy,
        "lifted_sizes": [len(lifted.R), len(lifted.S)],
    }


# -- arrow-module isomorphism ----------------------------------------------


def _corrupted_cosets(cs):
    """The coset table with g_1 and g_2 swapped, past its check; the arrow
    module built on it must fail the isomorphism check."""
    bad = copy.copy(cs)
    swap = np.r_[1, 0, 2 : cs.size]
    bad._set_rows(cs.P[swap], cs.A[swap])
    return bad


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
        bad = ArrowYDModule(_corrupted_cosets(cs), chi)
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


# the scan's sign condition, by the number of distinct fixed-point signs
_SIGN_CONDITIONS = ("no fixed points", "fixed signs equal", "fixed signs mixed")


def _scan_row(group, rep: SignedPermutation, seed: int, deadline: float) -> ScanRow:
    """The scan row of the class of rep: matched by type against the
    exception list, else searched for a certificate before the deadline.
    The class and its rack are freed when this returns, before the scan
    builds the next one."""
    key = rep.signed_cycle_type()
    sign_condition = _SIGN_CONDITIONS[len({p for l, p in key if l == 1})]
    family = exception_family(key)
    cert = None
    if family is not None:
        outcome, note = "exception-list", f"family {family}"
    elif time.monotonic() > deadline:
        outcome, note = "inconclusive", "time budget exhausted"
    else:
        rack = FiniteRack.from_class(ConjugacyClass(group, rep))
        res = find_type_d_certificate(rack, seed)
        if res:
            outcome, note = "certificate", ""
            cert = res.certificate.to_json()
        else:
            outcome = "inconclusive"
            note = (
                "no certificate found; "
                "the known exception list may not apply at this n"
            )
    return ScanRow(group.n, _format_type(key), sign_condition, outcome, cert, note)


def scan_classes(n: int, config: VerifyConfig | None = None) -> list:
    """Classify every conjugacy class of B_n with nontrivial permutation
    part: exception-list rows are matched by type, everything else gets a
    certificate search.  A class too large to search is refused with
    BudgetExceeded before any class is built."""
    config = config or VerifyConfig()
    group = Bn(n)  # refuses n < 1
    reps = [r for r in _class_representatives(n) if any(l > 1 for l, _ in r.signed_cycle_type())]
    for rep in reps:
        if exception_family(rep.signed_cycle_type()) is None:
            check_class_budget(group, rep)
    deadline = time.monotonic() + SCAN_TIME_BUDGET
    try:
        rows = [_scan_row(group, rep, config.seed, deadline) for rep in reps]
    finally:
        clear_search_cache()
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
