"""The verification registry, the class scan, and report serialization."""

import json

import pytest

from weylrack.verify import (
    LEMMA_CHECKS,
    ScanRow,
    VerifyConfig,
    count_nontrivial_classes,
    emit_report,
    exception_family,
    scan_classes,
    verify_lemmas,
)


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


def test_time_budget_yields_inconclusive_rows():
    rows = scan_classes(5, VerifyConfig(scan_time_budget=0.0))
    assert rows
    assert all(r.outcome in ("inconclusive", "exception-list") for r in rows)


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
