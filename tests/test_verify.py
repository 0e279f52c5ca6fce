"""The verification registry, the class scan, and report serialization."""

import itertools
import json
import random
import weakref

import pytest

from weylrack import verify
from weylrack.conjugacy import ConjugacyClass
from weylrack.groups import BudgetExceeded, Bn, Permutation, SignedPermutation, Sn
from weylrack.verify import (
    LEMMA_CHECKS,
    MAX_M,
    MAX_N,
    ScanRow,
    VerifyConfig,
    count_nontrivial_classes,
    emit_report,
    _certificate_sizes,
    _class_representatives,
    _earliest_failure,
    _record,
    check_coset_identities,
    check_juxtaposition_laws,
    check_square_closed_forms,
    exception_family,
    scan_classes,
    verify_lemmas,
)


def sq(x, y):
    """sq(x, y) = x |> (y |> (x |> y)) on group elements: the object
    reference for the sign closed forms."""
    return x.conjugate(y.conjugate(x.conjugate(y)))


def test_registry_names_are_unique_and_known():
    names = [name for name, _ in LEMMA_CHECKS]
    assert len(names) == len(set(names))
    assert "square-closed-forms" in names
    assert "negative-control" in names


def test_selection_runs_only_requested_checks():
    reports = verify_lemmas(["square-closed-forms"], VerifyConfig(samples=400))
    assert [r.check for r in reports] == ["square-closed-forms"]
    assert reports[0].status == "pass"


def test_closed_forms_below_their_floor_are_inconclusive():
    # 10 samples allow 400 conjugate-fixed attempts, short of 500 instances
    for seed in (0, 7):
        (report,) = verify_lemmas(["square-closed-forms"], VerifyConfig(seed=seed, samples=10))
        assert report.status == "inconclusive"
        assert "500" in report.detail["reason"]
        assert str(report.detail["verified"]["conjugate-fixed"]) in report.detail["reason"]


def test_unknown_selection_raises():
    with pytest.raises(ValueError):
        verify_lemmas(["no-such-check"])


def test_negative_control_detects_mutation():
    reports = verify_lemmas(["negative-control"], VerifyConfig(samples=400))
    assert reports[0].status == "pass"
    assert "caught" in reports[0].detail


def test_mutated_config_fails_the_closed_form_check():
    reports = verify_lemmas(
        ["square-closed-forms"], VerifyConfig(samples=400, mutate=True)
    )
    assert reports[0].status == "fail"


def test_exception_family_matcher():
    # lengths {2,3} and {2,2,2} -> family i
    assert exception_family(((2, 0), (3, 0))) == "i"
    assert exception_family(((2, 0), (2, 1), (2, 0))) == "i"
    # {2,2,2,2} and {1,2,2} -> family ii
    assert exception_family(((2, 0),) * 4) == "ii"
    assert exception_family(((1, 0), (2, 0), (2, 1))) == "ii"
    # family iii requires equal fixed-point signs
    assert exception_family(((1, 0), (1, 0), (2, 0), (2, 0))) == "iii"
    assert exception_family(((1, 0), (1, 1), (2, 0), (2, 0))) is None
    assert exception_family(((1, 0), (1, 0), (1, 0), (2, 0))) == "iii"
    assert exception_family(((1, 1), (1, 1), (3, 0))) == "iii"
    # no match
    assert exception_family(((5, 0),)) is None
    assert exception_family(((2, 0), (4, 0))) is None


def test_scan_n4_outcomes_frozen():
    rows = scan_classes(4, VerifyConfig(seed=0))
    assert len(rows) == count_nontrivial_classes(4)
    counts = {}
    for r in rows:
        counts[r.outcome] = counts.get(r.outcome, 0) + 1
    # the (2,2) classes without fixed points sit outside the known list
    # at n = 4 and no certificate exists for them
    assert counts == {"exception-list": 8, "certificate": 4, "inconclusive": 3}
    for r in rows:
        if r.outcome == "certificate":
            assert r.certificate is not None
        else:
            assert r.certificate is None
        if r.outcome == "inconclusive":
            assert r.cycle_type in ("(2+) (2+)", "(2+) (2-)", "(2-) (2-)")


def test_scan_n5_counts_frozen():
    rows = scan_classes(5, VerifyConfig(seed=0))
    assert len(rows) == 30
    counts = {}
    for r in rows:
        counts[r.outcome] = counts.get(r.outcome, 0) + 1
    assert counts == {"certificate": 12, "exception-list": 18}


def test_scan_is_byte_deterministic():
    a = emit_report(scan_classes(5, VerifyConfig(seed=0)))
    b = emit_report(scan_classes(5, VerifyConfig(seed=0)))
    assert a == b


def test_scan_frees_each_class_before_building_the_next(monkeypatch):
    # two large classes of B_8 held at once were most of the scan's peak
    built = []

    class Recording(ConjugacyClass):
        def __init__(self, group, rep):
            assert all(ref() is None for ref in built), "an earlier class is alive"
            super().__init__(group, rep)
            built.append(weakref.ref(self))

    monkeypatch.setattr(verify, "ConjugacyClass", Recording)
    scan_classes(4, VerifyConfig(seed=0))
    assert len(built) > 1


def test_scan_empties_the_search_cache(capsys):
    # the S_n searches of the pullback are cached for one scan only, and a
    # second scan in the same process prints the same bytes
    from weylrack.cli import main
    from weylrack.racks import _SN_CACHE

    texts = []
    for _ in range(2):
        assert main(["scan-classes", "--n", "5"]) == 0
        assert not _SN_CACHE
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1] and texts[0].startswith("[")


def test_time_budget_yields_inconclusive_rows(monkeypatch):
    monkeypatch.setattr(verify, "SCAN_TIME_BUDGET", 0.0)
    rows = scan_classes(5)
    assert rows
    assert all(r.outcome in ("inconclusive", "exception-list") for r in rows)


def test_scan_refuses_an_oversized_class_before_building_any(monkeypatch):
    # 72 rows of B_9 are over the class cap; the first of them in scan
    # order is refused before the scan builds a single class
    built = []
    init = ConjugacyClass.__init__

    def counting_init(self, group, rep):
        built.append(rep)
        init(self, group, rep)

    monkeypatch.setattr(verify.ConjugacyClass, "__init__", counting_init)
    with pytest.raises(BudgetExceeded, match=r"class of 001000000;\(4 5 6 7 8 9\) has 967680"):
        scan_classes(9)
    assert built == []


def test_emit_report_formats():
    rows = [
        ScanRow(3, "(3+)", "none", "certificate", {"R": [0], "S": [1]}),
        ScanRow(3, "(2-) (1+)", "equal", "exception-list", None, "family ii"),
    ]
    blob = emit_report(rows, "json")
    parsed = json.loads(blob)
    assert parsed[0]["cycle_type"] == "(3+)"
    assert blob.endswith("\n")
    csv_text = emit_report(rows, "csv")
    assert csv_text.splitlines()[0].startswith("certificate")
    md = emit_report(rows, "markdown")
    assert md.splitlines()[0].startswith("|")
    assert emit_report([], "json") == "[]\n"
    with pytest.raises(ValueError):
        emit_report(rows, "xml")


def test_report_json_roundtrip_excludes_runtime_by_default():
    reports = verify_lemmas(["square-closed-forms"], VerifyConfig(samples=200))
    blob = emit_report(reports)
    parsed = json.loads(blob)
    assert "runtime" not in parsed[0]
    with_rt = json.loads(emit_report(reports, include_runtime=True))
    assert "runtime" in with_rt[0]


# -- the sampled checks against their sample-by-sample loops ---------------
#
# The oracle: the checks as they ran before they moved onto row stacks, one
# sample at a time on SignedPermutation objects, with the sq closed forms
# written on sign tuples.


def _power(p, k):
    """The permutation p^k, k >= 0, by repeated products."""
    out = Permutation.identity(p.n)
    for _ in range(k):
        out = out * p
    return out


def _xor(u, v):
    return tuple(map(int.__xor__, u, v))


def _sq_signed(x, y):
    a, tau, b, mu = x.sign, x.perm, y.sign, y.perm
    tm = tau.conjugate(mu)
    mtm = mu.conjugate(tm)
    lam = tau.conjugate(mtm)
    inner = _xor(_xor(b, mu.act_on_signs(_xor(_xor(a, tau.act_on_signs(b)), tm.act_on_signs(a)))), mtm.act_on_signs(b))
    return _xor(_xor(a, tau.act_on_signs(inner)), lam.act_on_signs(a)), lam


def _collapse_lhs(a, tau, mu):
    out, tm = a, tau * mu
    for p in (tm, tm * mu, mu):
        out = _xor(out, p.act_on_signs(a))
    return out


def _collapse_rhs(b, tau, mu):
    out, tm = b, tau * mu
    for p in (tau, tau * tm, tm):
        out = _xor(out, p.act_on_signs(b))
    return out


def _sq_signed_commuting(x, y):
    c = _xor(_xor(_collapse_lhs(x.sign, x.perm, y.perm), _collapse_rhs(y.sign, x.perm, y.perm)), y.sign)
    return c, y.perm


def _mutated_commuting(x, y):
    c, mu = _sq_signed_commuting(x, y)
    return _xor(c, y.perm.act_on_signs(x.sign)), mu


def loop_square_closed_forms(cfg, general=_sq_signed):
    rng = random.Random(cfg.seed)
    commuting_form = _mutated_commuting if cfg.mutate else _sq_signed_commuting
    counts = {"general": 0, "commuting": 0, "conjugate-fixed": 0, "involution": 0}
    for _ in range(cfg.samples):
        n = rng.randint(2, MAX_N)
        G = Bn(n)
        x = G.random_element(rng)
        y = G.random_element(rng)
        if rng.random() < 0.5:
            y = SignedPermutation(y.sign, _power(x.perm, rng.randint(0, n)))
        direct = sq(x, y)
        if general(x, y) != (direct.sign, direct.perm):
            return "fail", {"law": "general", "x": x.format(), "y": y.format()}
        counts["general"] += 1
        if x.perm * y.perm == y.perm * x.perm:
            c2, lam2 = commuting_form(x, y)
            if (c2, lam2) != (direct.sign, direct.perm):
                return "fail", {
                    "law": "commuting",
                    "x": x.format(),
                    "y": y.format(),
                    "got": "".join(map(str, c2)),
                    "expected": "".join(map(str, direct.sign)),
                }
            fixes = _collapse_lhs(x.sign, x.perm, y.perm) == _collapse_rhs(y.sign, x.perm, y.perm)
            if fixes != (direct == y):
                return "fail", {"law": "fix-criterion", "x": x.format(), "y": y.format()}
            counts["commuting"] += 1
    floor, attempts = 500, 0
    while counts["conjugate-fixed"] < floor and attempts < 40 * cfg.samples:
        attempts += 1
        n = rng.randint(3, 5)
        G = Bn(n)
        xi_p = Sn(n).random_element(rng).perm
        a = [0] * n
        for cyc in xi_p.cycles(include_fixed=True):
            s = rng.randrange(2)
            for i in cyc:
                a[i] = s
        a = tuple(a)
        tau = G.random_element(rng).perm if rng.random() < 0.5 else None
        if tau is None:
            pts = list(range(1, n + 1))
            rng.shuffle(pts)
            tau = Permutation.from_cycles(n, [tuple(pts[:2])])
        mu = xi_p.conjugate(tau)
        if tau * mu != mu * tau:
            continue
        x = SignedPermutation(a, tau)
        xi = SignedPermutation.from_perm(xi_p)
        c, _ = general(x, xi.conjugate(x))
        expected = a
        for p in (tau * mu * mu, mu, tau, tau * tau * mu):
            expected = _xor(expected, p.act_on_signs(a))
        if c != expected:
            return "fail", {"law": "conjugate-fixed", "x": x.format(), "xi": xi.format()}
        counts["conjugate-fixed"] += 1
        if tau * tau == Permutation.identity(n) and tau * xi_p == xi_p * tau:
            if c != a:
                return "fail", {"law": "involution", "x": x.format(), "xi": xi.format()}
            counts["involution"] += 1
    got = counts["conjugate-fixed"]
    if got < floor:
        reason = f"{got} conjugate-fixed instances, below the floor of {floor}"
        return "inconclusive", {"reason": reason, "verified": counts}
    return "pass", {"verified": counts}


def loop_juxtaposition_laws(cfg):
    """The sampled part of the juxtaposition laws, and the count of the
    exhaustive part's orthogonal class pairs."""
    rng = random.Random(cfg.seed)
    n_random = min(cfg.samples, 2000)
    for _ in range(n_random):
        while True:
            n = rng.randint(1, 6)
            m = rng.randint(1, 7 - n)
            x, y = Bn(n).random_element(rng), Bn(m).random_element(rng)
            if x.is_orthogonal_to(y):
                break
        x2, y2 = Bn(n).random_element(rng), Bn(m).random_element(rng)
        if x.juxtapose(y) * x2.juxtapose(y2) != (x * x2).juxtapose(y * y2):
            return "fail", {"law": "product", "x": x.format(), "y": y.format()}
        a, b = x.juxtapose(SignedPermutation.identity(m)), SignedPermutation.identity(n).juxtapose(y)
        if x.juxtapose(y) != a * b or a * b != b * a:
            return "fail", {"law": "factorization", "x": x.format(), "y": y.format()}
        if sq(x.juxtapose(y), x2.juxtapose(y2)) != sq(x, x2).juxtapose(sq(y, y2)):
            return "fail", {"law": "sq-blockwise", "x": x.format(), "y": y.format()}
        if x.juxtapose(y).conjugate(x2.juxtapose(y2)) != x.conjugate(x2).juxtapose(y.conjugate(y2)):
            return "fail", {"law": "conjugation", "x": x.format(), "y": y.format()}
    checked = sum(
        x.is_orthogonal_to(y)
        for n in range(1, 5)
        for m in range(1, 6 - n)
        for x in _class_representatives(n)
        for y in _class_representatives(m)
    )
    return "pass", {"random_samples": n_random, "exhaustive_pairs": checked}


@pytest.mark.parametrize("mutate", [False, True])
@pytest.mark.parametrize("samples", [10, 400, 2000])
@pytest.mark.parametrize("seed", [0, 3, 7])
def test_square_closed_forms_match_the_sample_loop(seed, samples, mutate):
    cfg = VerifyConfig(seed=seed, samples=samples, mutate=mutate)
    assert check_square_closed_forms(cfg) == loop_square_closed_forms(cfg)


@pytest.mark.parametrize("samples", [10, 400, 2000])
@pytest.mark.parametrize("seed", [0, 3, 7])
def test_juxtaposition_laws_match_the_sample_loop(monkeypatch, seed, samples):
    # the exhaustive class-pair part is not sampled; only its count is
    # compared here
    monkeypatch.setattr(verify, "centralizer_factorization", lambda *a: None)
    monkeypatch.setattr(verify, "class_juxtaposition", lambda *a: None)
    cfg = VerifyConfig(seed=seed, samples=samples)
    assert check_juxtaposition_laws(cfg) == loop_juxtaposition_laws(cfg)


def test_sampled_checks_draw_through_getrandbits_only(monkeypatch):
    # the sampled checks take the stdlib's draws from getrandbits itself;
    # randrange, randint and shuffle add a method stack per draw
    def refuse(*args, **kwargs):
        raise AssertionError("a sampled check drew through the random method stack")

    for name in ("randrange", "randint", "shuffle"):
        monkeypatch.setattr(random.Random, name, refuse)
    reports = verify_lemmas(["square-closed-forms", "negative-control", "juxtaposition-laws"])
    assert [r.status for r in reports] == ["pass"] * 3


@pytest.mark.parametrize("degrees", [{7}, {3, 7}])
def test_a_closed_form_broken_in_some_degrees_fails_at_their_first_sample(monkeypatch, degrees):
    rows_form = verify.sq_signed

    def broken_rows(P, A, Q, B):
        L, C = rows_form(P, A, Q, B)
        return L, (C ^ 1 if P.shape[1] in degrees else C)

    def broken_objects(x, y):
        c, lam = _sq_signed(x, y)
        return (tuple(1 - v for v in c) if x.n in degrees else c), lam

    monkeypatch.setattr(verify, "sq_signed", broken_rows)
    cfg = VerifyConfig(seed=0, samples=400)
    # sample 0 is of another degree, so the failure is not the first draw
    assert random.Random(cfg.seed).randint(2, MAX_N) not in degrees
    status, detail = check_square_closed_forms(cfg)
    assert (status, detail) == loop_square_closed_forms(cfg, general=broken_objects)
    assert detail["law"] == "general"
    assert len(detail["x"].split(";")[0]) in degrees


def test_the_closed_form_blocks_stop_growing_at_the_block_cap(monkeypatch):
    # blocks of 4, 16, ..., 16384 samples, then 16384 again: the laws of
    # 40000 samples never see more than BLOCK_PRODUCTS rows at once
    sizes = []
    earliest_failure = verify._earliest_failure

    def spy(draws, laws):
        sizes.append(sum(len(samples) for samples, _, _ in draws.values()))
        return earliest_failure(draws, laws)

    monkeypatch.setattr(verify, "_earliest_failure", spy)
    status, _ = check_square_closed_forms(VerifyConfig(samples=40000))
    assert status == "pass"
    assert max(sizes) <= verify.BLOCK_PRODUCTS == 16384
    assert sizes[:-1] == [4, 16, 64, 256, 1024, 4096, 16384, 16384, 1772]


def test_the_earliest_failure_is_the_earliest_sample_then_its_first_law():
    # each sample's one row holds its flags, one per law
    def laws(F):
        return [F[:, j] == 1 for j in range(3)]

    def drawn(samples):
        draws = {}
        for key, sample, flags in samples:
            _record(draws, key, sample, flags)
        return draws

    # the earliest failure sits in the middle group
    samples = [
        ("a", 0, [0, 0, 0]), ("b", 1, [0, 0, 0]), ("b", 3, [0, 1, 1]), ("b", 4, [1, 0, 0]),
        ("a", 5, [1, 1, 0]), ("a", 6, [1, 0, 0]), ("c", 7, [0, 0, 1]),
    ]
    law, row, (F,) = _earliest_failure(drawn(samples), laws)
    assert (law, row, F[row].tolist()) == (1, 1, [0, 1, 1])
    samples[2] = ("b", 3, [0, 0, 0])
    law, row, (F,) = _earliest_failure(drawn(samples), laws)
    assert (law, row, F[row].tolist()) == (0, 2, [1, 0, 0])
    assert _earliest_failure(drawn(samples[:2]), laws) is None


def test_each_certificate_is_released_before_the_next_is_built():
    # a construction check holds one certificate, and the class under it,
    # at a time: the generator finds the previous one gone on resuming
    class Certificate:
        def __init__(self, size):
            self.R, self.S = [0] * size, [0] * (size + 1)

    def certificates():
        previous = None
        for size in range(3):
            assert previous is None or previous() is None
            cert = Certificate(size)
            previous = weakref.ref(cert)
            yield f"case-{size}", cert
            del cert

    sizes = {"case-0": [0, 1], "case-1": [1, 2], "case-2": [2, 3]}
    assert _certificate_sizes(certificates()) == ("pass", {"certificates": sizes})


def loop_coset_identities(rows, m):
    """The coset-transposition identities checked as they first were:
    assignment by assignment in loop order, each side a product of
    Permutation.from_cycles; the failure, or the count of instances."""
    instances = 0
    for row in rows:
        names, cond = row["vars"], row.get("cond")
        for combo in itertools.permutations(range(3, m + 1), len(names)):
            values = dict(zip(names, combo))
            if row.get("ordered") and not values["k"] < values["j"]:
                continue
            if cond is not None and not cond(values):
                continue
            perms = []
            for side in row["sides"]:
                out = Permutation.identity(m)
                for cyc in side:
                    out = out * Permutation.from_cycles(m, [tuple(values.get(t, t) for t in cyc)])
                perms.append(out)
            if any(p != perms[0] for p in perms[1:]):
                return "fail", {"row": repr(row["sides"]), "assignment": values}
            instances += 1
    return "pass", instances


def test_coset_identities_check_every_instance_of_the_loop():
    status, detail = check_coset_identities(VerifyConfig())
    assert status == "pass"
    assert loop_coset_identities(verify._ID_ROWS, MAX_M) == ("pass", detail["instances"]) == ("pass", 1189)


# a side times a commutator with (7 8): equal for the assignments whose
# cycles miss 7 and 8, so the first failure is not the first assignment
CORRUPTIONS = [
    ([[(1, "j")], [(1, "j")]], [(7, 8), (1, "j"), (7, 8), (1, "j")]),
    ([[("k", "j"), (2, "j1")], [(2, "j1"), ("k", "j")]], [(7, 8), ("k", "j"), (7, 8), ("k", "j")]),
    ([[(2, "j"), (1, "k"), (2, "j")], [(1, "k")]], [(7, 8), (1, "k"), (7, 8), (1, "k")]),
]


@pytest.mark.parametrize("sides, commutator", CORRUPTIONS)
def test_a_corrupted_identity_fails_at_the_loops_first_assignment(monkeypatch, sides, commutator):
    rows = list(verify._ID_ROWS)
    (at,) = [i for i, row in enumerate(rows) if row["sides"] == sides]
    rows[at] = {**rows[at], "sides": [sides[0], sides[1] + commutator]}
    monkeypatch.setattr(verify, "_ID_ROWS", rows)
    status, detail = check_coset_identities(VerifyConfig())
    assert (status, detail) == loop_coset_identities(rows, MAX_M)
    assert status == "fail" and detail["assignment"] != verify._assignments(rows[at], MAX_M)[0]
