"""Command-line interface: exit codes, output formats, config merging."""

import json

import pytest

from weylrack.cli import main


def run(tmp_path, *argv):
    out = tmp_path / "out.json"
    code = main(list(argv) + ["--out", str(out)])
    return code, out.read_text() if out.exists() else ""


def test_verify_subset_passes(tmp_path):
    code, text = run(
        tmp_path,
        "verify-lemmas",
        "--select",
        "square-closed-forms",
        "--samples",
        "400",
    )
    assert code == 0
    payload = json.loads(text)
    assert payload[0]["check"] == "square-closed-forms"
    assert payload[0]["status"] == "pass"
    assert "runtime" not in payload[0]


def test_mutate_flag_returns_failure_code(tmp_path):
    code, text = run(
        tmp_path,
        "verify-lemmas",
        "--select",
        "square-closed-forms",
        "--samples",
        "400",
        "--mutate",
    )
    assert code == 1
    assert json.loads(text)[0]["status"] == "fail"


def test_list_checks(capsys):
    assert main(["verify-lemmas", "--list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "square-closed-forms" in lines
    assert "negative-control" in lines


def test_type_d_exit_codes(tmp_path):
    code, text = run(
        tmp_path, "type-d", "--group", "sn", "--n", "5", "--element", "00000;(1 2 3 4)"
    )
    assert code == 0
    assert json.loads(text)["outcome"] == "certificate"
    # the 3-element transposition rack has no certificate: inconclusive
    code, text = run(
        tmp_path, "type-d", "--group", "sn", "--n", "3", "--element", "000;(1 2)"
    )
    assert code == 2
    payload = json.loads(text)
    assert payload["outcome"] == "inconclusive"
    assert payload["exhausted"]


def test_scan_classes_output(tmp_path):
    code, text = run(tmp_path, "scan-classes", "--n", "3")
    assert code == 0
    rows = json.loads(text)
    assert all(r["outcome"] in ("certificate", "exception-list") for r in rows)


def test_class_info_values(tmp_path):
    code, text = run(
        tmp_path, "class-info", "--n", "5", "--element", "10000;(1 2 3 4 5)"
    )
    assert code == 0
    payload = json.loads(text)
    assert payload["class_size"] == 384
    assert payload["centralizer_order"] == 10
    assert payload["product"] == 3840 == payload["group_order"]


def test_hilbert_and_nichols_dim(tmp_path):
    code, text = run(tmp_path, "hilbert", "--algebra", "fk", "--n", "3", "--cap", "8")
    assert code == 0
    payload = json.loads(text)
    assert payload["dims"][:6] == [1, 3, 4, 3, 1, 0]
    assert payload["terminated"]
    code, text = run(
        tmp_path,
        "nichols-dim",
        "--n",
        "3",
        "--preset",
        "--char",
        "sgn-sgn",
        "--max-degree",
        "5",
    )
    assert code == 0
    payload = json.loads(text)
    assert payload["dims"] == [1, 3, 4, 3, 1, 0]
    assert payload["exact"]


def test_braiding_output(tmp_path):
    code, text = run(tmp_path, "braiding", "--n", "3", "--preset", "--terms")
    assert code == 0
    payload = json.loads(text)
    assert payload["dimension"] == 3
    assert payload["monomial"]
    assert payload["braid_equation"] == "verified"
    assert len(payload["terms"]) == 9


def test_config_file_defaults_and_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema": 1, "seed": 3, "samples": 200}))
    out = tmp_path / "a.json"
    code = main(
        [
            "--config",
            str(cfg),
            "verify-lemmas",
            "--select",
            "square-closed-forms",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload[0]["config"]["seed"] == 3
    assert payload[0]["config"]["samples"] == 200
    # an explicit flag beats the config file
    out2 = tmp_path / "b.json"
    code = main(
        [
            "--config",
            str(cfg),
            "verify-lemmas",
            "--select",
            "square-closed-forms",
            "--seed",
            "7",
            "--out",
            str(out2),
        ]
    )
    assert code == 0
    assert json.loads(out2.read_text())[0]["config"]["seed"] == 7


def test_bad_config_schema_is_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema": 99}))
    with pytest.raises(SystemExit):
        main(["--config", str(cfg), "verify-lemmas", "--list"])


def test_config_without_schema_is_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 3}))
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg), "verify-lemmas", "--list"])
    assert "schema" in str(exc.value.code)


def test_config_with_unknown_key_is_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema": 1, "seed": 3, "sample": 200}))
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg), "verify-lemmas", "--list"])
    assert "sample" in str(exc.value.code)
    assert "\n" not in str(exc.value.code)


def test_markdown_format(tmp_path):
    code, text = run(
        tmp_path,
        "verify-lemmas",
        "--select",
        "square-closed-forms",
        "--samples",
        "200",
        "--format",
        "markdown",
    )
    assert code == 0
    assert text.splitlines()[0].startswith("|")


@pytest.mark.parametrize(
    "argv, needle",
    [
        # the 10-cycles of B_10 are over the class enumeration cap
        (["class-info", "--n", "10", "--element", "0000000000;(1 2 3 4 5 6 7 8 9 10)"], "cap"),
        # a signed element is not in S_3, nor one of degree 2 in B_3
        (["class-info", "--group", "sn", "--n", "3", "--element", "100;(1 2)"], "not an element"),
        (["class-info", "--n", "3", "--element", "00;(1 2)"], "not an element"),
        (["nichols-dim", "--n", "3"], "--element"),
        (["braiding", "--n", "3"], "--element"),
        (["hilbert", "--algebra", "A", "--n", "3"], "--signs"),
    ],
)
def test_refused_or_invalid_input_is_one_error_line(capsys, argv, needle):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("weylrack: error: ")
    assert err.count("\n") == 1
    assert needle in err


@pytest.mark.parametrize(
    "argv, needle",
    [
        (["--config", "{missing}", "class-info", "--n", "3", "--element", "000;()"], "missing.json"),
        (["--config", "{malformed}", "class-info", "--n", "3", "--element", "000;()"], "Expecting"),
        (["hilbert", "--algebra", "A", "--n", "3", "--signs", "{missing}"], "missing.json"),
    ],
)
def test_unreadable_input_file_is_one_error_line(tmp_path, capsys, argv, needle):
    malformed = tmp_path / "malformed.json"
    malformed.write_text('{"schema": 1,')
    paths = {"missing": str(tmp_path / "missing.json"), "malformed": str(malformed)}
    assert main([a.format(**paths) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("weylrack: error: ")
    assert err.count("\n") == 1
    assert needle in err


def test_config_keys_that_flags_always_set_are_rejected(tmp_path):
    # argparse fills --n, --cap and --max-degree before the config is read
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema": 1, "max_degree": 2}))
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg), "nichols-dim", "--n", "3", "--preset"])
    assert "max_degree" in str(exc.value.code)
