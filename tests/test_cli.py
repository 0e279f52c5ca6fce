"""Command-line interface: exit codes, output formats, config merging."""

import json
import time

import pytest

from weylrack.cli import main
from weylrack.ydmodule import Braiding, YDModule


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


def test_class_info_answers_by_division(tmp_path, monkeypatch):
    # |C(x)| = |G| / |class|: no centralizer is closed, so the identity of
    # B_8, whose centralizer is all 10321920 elements, is answered at once
    from weylrack import conjugacy

    def refuse(self, cls):
        raise AssertionError("class-info closed a centralizer")

    monkeypatch.setattr(conjugacy.Centralizer, "__init__", refuse)
    code, text = run(tmp_path, "class-info", "--n", "8", "--element", "00000000;()")
    assert code == 0
    payload = json.loads(text)
    assert payload["class_size"] == 1
    assert payload["centralizer_order"] == 10321920 == payload["group_order"]
    assert payload["product"] == 10321920


# SHA-256 of `scan-classes --n N --seed 0`, recorded before the racks moved
# onto row indices (n = 7: before certificates were verified from
# generators); a refactor of the search must keep these bytes
SCAN_DIGESTS = {
    4: "6933d4613011c111e6b2df69a7f95f27e9a8bb141d9aab43a99ff6f6e9156c0e",
    5: "49a2521dafedc7657d8c15388ee57d235ce7bc45e430203227da5999ac68c280",
    6: "dce1f3cdbd779624e7c43e8e24e52c131312694b00e16e67e8e448317a5a5fbe",
    7: "ff225a770130f3ea844afa302f3f3885a841ccc66752162b9cec774562339800",
}


@pytest.mark.parametrize("n", sorted(SCAN_DIGESTS))
def test_scan_report_bytes_are_pinned(tmp_path, n):
    import hashlib

    code, _ = run(tmp_path, "scan-classes", "--n", str(n), "--seed", "0")
    assert code == 0
    data = (tmp_path / "out.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == SCAN_DIGESTS[n]


# SHA-256 of the braiding-path outputs, recorded before the coset systems
# moved onto class rows: every consumer of the cocycle zeta feeds these.
# The B_3 `000;(1 2)` pin was recorded again when a class's coset
# representatives became its conjugator words: its q values change by the
# basis change x'_i = chi(h_i) x_i, and its rack does not
BRAIDING_DIGESTS = {
    ("braiding", "--n", "3", "--preset", "--terms"):
        "f5aa2d60944fdcd239fc02e49eb3c9cb4accad30e820b741baa8e5b2393b83a3",
    ("braiding", "--n", "4", "--preset", "--terms"):
        "6de20ada3d49614af21d7b043d8352afb8b6bad92ab756fb46ec0d83b07e7a59",
    ("braiding", "--group", "bn", "--n", "3", "--element", "100;(1 2 3)", "--terms"):
        "907f9f758e59d642a0724133a81520e754407bdeccb7651c10086d5240f0532f",
    ("braiding", "--group", "bn", "--n", "3", "--element", "000;(1 2)", "--terms"):
        "ab752a8e0192d8a42857b6287abbcafefef200855762e60f578cf732a6e48214",
    ("nichols-dim", "--group", "bn", "--n", "4", "--element", "0000;(1 2)", "--max-degree", "2"):
        "fdc4dbc6c0c42b9105a8f1c6a891bf81c15f2b81ec7646540df044714514c488",
}


@pytest.mark.parametrize("argv", sorted(BRAIDING_DIGESTS), ids=" ".join)
def test_braiding_path_bytes_are_pinned(tmp_path, argv):
    import hashlib

    code, _ = run(tmp_path, *argv)
    assert code == 0
    data = (tmp_path / "out.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == BRAIDING_DIGESTS[argv]


# SHA-256 and exit code of `verify-lemmas --select` the three sampled
# checks, recorded before they moved onto row stacks: drawing the same
# stream and reporting the earliest failure must keep these bytes
SAMPLED_CHECKS = "square-closed-forms,negative-control,juxtaposition-laws"
LEMMA_DIGESTS = {
    ("--seed", "0"): ("84204a2b68db44f434a91481ea07cd595381d43d9fca8259383576cbd6842128", 0),
    ("--seed", "7"): ("a64251619765dc97bdcae15ef594890dca203099e166cf943e9dcf83b4661e67", 0),
    ("--seed", "3", "--samples", "2000"):
        ("1f62ccde91e820b22d6803b1ae862d9163b3e6af4cb5042b88bb1b8fedeaf50e", 0),
    ("--seed", "3", "--samples", "2000", "--mutate"):
        ("b770cf0a31572fec5aed44e9170d3066924043b13ace8a5b9ee8ac4e9879d9ce", 1),
}


@pytest.mark.parametrize("argv", sorted(LEMMA_DIGESTS), ids=" ".join)
def test_sampled_lemma_report_bytes_are_pinned(tmp_path, argv):
    import hashlib

    digest, exit_code = LEMMA_DIGESTS[argv]
    code, _ = run(tmp_path, "verify-lemmas", "--select", SAMPLED_CHECKS, *argv)
    assert code == exit_code
    data = (tmp_path / "out.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


# SHA-256 of the whole `verify-lemmas` report, every check included,
# recorded before the draws moved onto getrandbits, the character check
# onto value indices and the coset identities onto permutation rows
FULL_LEMMA_DIGESTS = {
    ("--seed", "0"): "0abe173812ef9247e186e3f14c0aded23ddd1cc912ab8af610cc1ab61daf57b8",
    ("--seed", "7"): "cc6d43574be3d2fdabda170889c5a74fc8ec046fa83011961c8651024039268a",
}


@pytest.mark.parametrize("argv", sorted(FULL_LEMMA_DIGESTS), ids=" ".join)
def test_full_lemma_report_bytes_are_pinned(tmp_path, argv):
    import hashlib

    code, _ = run(tmp_path, "verify-lemmas", *argv)
    assert code == 0
    data = (tmp_path / "out.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == FULL_LEMMA_DIGESTS[argv]


# SHA-256 of the outputs that read a centralizer character, recorded
# before representations moved onto centralizer rows
CHARACTER_CHECKS = "character-table,sign-products,quadratic-relations,arrow-isomorphism,scalar-filter"
CHARACTER_DIGESTS = {
    ("verify-lemmas", "--select", CHARACTER_CHECKS, "--seed", "0"):
        "5d6303b3e5379b22cde83f33f80e907e4b1d4acab59c811cafb0d56fc3b4d6d2",
    ("verify-lemmas", "--select", CHARACTER_CHECKS, "--seed", "7"):
        "8b0748cdba73e9ec932e34d3663321e38df5eb7c1a876a0ed7384a5bfca23ecd",
    ("braiding", "--n", "4", "--preset", "--char", "eps-sgn", "--terms"):
        "b1c3bdb9c78a6bbbec222259702ecfb976af7d1d2bcf28c405b20731b2a25277",
}


@pytest.mark.parametrize("argv", sorted(CHARACTER_DIGESTS), ids=" ".join)
def test_character_path_bytes_are_pinned(tmp_path, argv):
    import hashlib

    code, _ = run(tmp_path, *argv)
    assert code == 0
    data = (tmp_path / "out.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == CHARACTER_DIGESTS[argv]


# SHA-256 of the six graded-dimension commands of the benchmark, recorded
# before the modular rank split S_k into blocks and the Groebner
# completion moved onto int coefficients
GRADED_DIGESTS = {
    ("nichols-dim", "--n", "3", "--preset", "--char", "sgn-sgn", "--max-degree", "5"):
        "c93e94afb667d5282ee93e65571e7e3b1c05fed30a854f8af335504040b9f25c",
    ("nichols-dim", "--n", "3", "--preset", "--char", "eps-sgn", "--max-degree", "5"):
        "c93e94afb667d5282ee93e65571e7e3b1c05fed30a854f8af335504040b9f25c",
    ("nichols-dim", "--n", "4", "--preset", "--char", "sgn-sgn", "--max-degree", "4"):
        "df9c687278d94b9b2e3047e3a7c56a1ee5af11375093ae4d0e77d744def15b61",
    ("nichols-dim", "--n", "4", "--preset", "--char", "eps-sgn", "--max-degree", "4"):
        "df9c687278d94b9b2e3047e3a7c56a1ee5af11375093ae4d0e77d744def15b61",
    ("hilbert", "--algebra", "fk", "--n", "4", "--cap", "13"):
        "a7bf66cb3f8f7df57e9b26aeaf44b2ef829651015c8cf6b96a89c11da53a3c17",
    ("hilbert", "--algebra", "fk", "--n", "5", "--cap", "8"):
        "bb8afc0ee5c8009385d96c97664aa1731c940a26ac3393d5cbc70e05d62c6e08",
    # beyond the benchmark's caps, recorded before S_k was ranked from its
    # arrays and the completion moved onto integer-coded words: a longer
    # completion, degree-1 leads, a mod-p degree 5, and a mod-p degree 6
    # followed by a budget truncation at 7
    ("hilbert", "--algebra", "fk", "--n", "5", "--cap", "9"):
        "172c4a7fe09328800c83d7a929856d4162ecd639a207cd8810e9807c2e0b1d9d",
    ("hilbert", "--algebra", "fk", "--n", "4", "--form", "all", "--cap", "9"):
        "0a1e07a29de3410c7f09765ab28882f8c13dee2836fec9d6115d89e6591308a8",
    ("nichols-dim", "--n", "4", "--preset", "--char", "eps-sgn", "--max-degree", "5"):
        "880483c0e7ac4e8dc0d46559669bfe42d7e393c38767fcb943e37039a93ace12",
    ("nichols-dim", "--n", "3", "--preset", "--char", "eps-sgn", "--max-degree", "7"):
        "bc710d234fc47898d27062a5ba43449a278901c46d6dab5eaeedc27a712c153e",
    # racks other than the S_3 and S_4 presets, recorded before S_k was
    # built on one rack degree per conjugacy orbit: D = 8 through a mod-p
    # degree 4, D = 6 through a mod-p degree 5, and D = 10
    ("nichols-dim", "--group", "bn", "--n", "3", "--element", "100;(1 2 3)", "--max-degree", "4"):
        "3ff56149c07013094bbab084a33fe8c5e9208537bfad44a0a5e4434b3377e588",
    ("nichols-dim", "--group", "bn", "--n", "3", "--element", "000;(1 2)", "--max-degree", "5"):
        "880483c0e7ac4e8dc0d46559669bfe42d7e393c38767fcb943e37039a93ace12",
    ("nichols-dim", "--n", "5", "--preset", "--max-degree", "3"):
        "da0df692c88a3d15bb98560019468edfb5f5df7063450603beab87857d24c396",
    # the B_8 (1^6, 2+) row, D = 56, recorded while its coset
    # representatives were the text-format-least conjugators
    ("nichols-dim", "--group", "bn", "--n", "8", "--element", "00000000;(1 2)", "--max-degree", "3"):
        "a58a1ad206a60c552791727b3a65cd49c80b69b5fe6e416c45cc2c78f87c30a5",
}


@pytest.mark.parametrize("argv", sorted(GRADED_DIGESTS), ids=" ".join)
def test_graded_path_bytes_are_pinned(tmp_path, argv):
    import hashlib

    code, _ = run(tmp_path, *argv)
    assert code == 0
    data = (tmp_path / "out.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == GRADED_DIGESTS[argv]


# SHA-256 of `class-info` on the class at the enumeration cap (645120
# elements), recorded before the class build moved onto blocked flat
# indices
CLASS_INFO_DIGESTS = {
    ("class-info", "--n", "8", "--element", "00000000;(1 2 3 4 5 6 7 8)"):
        "afb9a50100bb77c36a5d6583b98ce1508b6f653eba23bf6e8c229b8697edd5c5",
}


@pytest.mark.parametrize("argv", sorted(CLASS_INFO_DIGESTS), ids=" ".join)
def test_class_info_bytes_are_pinned(tmp_path, argv):
    import hashlib

    code, _ = run(tmp_path, *argv)
    assert code == 0
    data = (tmp_path / "out.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == CLASS_INFO_DIGESTS[argv]


def test_one_parser_serves_every_call(tmp_path, capsys, monkeypatch):
    # the parser is built once per process; a run of calls, a bad flag
    # among them, gives the bytes each call gives in a fresh process
    import os
    import subprocess
    import sys

    from weylrack.cli import build_parser

    calls = [
        ["scan-classes", "--n", "4"],
        ["scan-classes", "--n", "4", "--no-such-flag"],
        ["hilbert", "--algebra", "fk", "--n", "4"],
        ["scan-classes", "--n", "4"],
    ]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    # usage lines wrap at the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    out = tmp_path / "out.json"
    capsys.readouterr()
    for argv in calls:
        out.unlink(missing_ok=True)
        proc = subprocess.run(
            [sys.executable, "-m", "weylrack.cli", *argv, "--out", str(out)],
            cwd=root, env=env, capture_output=True, text=True,
        )
        fresh = (proc.returncode, proc.stderr, out.read_bytes() if out.exists() else None)
        out.unlink(missing_ok=True)
        try:
            code = main(argv + ["--out", str(out)])
        except SystemExit as exc:
            code = exc.code
        here = (code, capsys.readouterr().err, out.read_bytes() if out.exists() else None)
        assert here == fresh
    assert build_parser() is build_parser()


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


def test_s4_nichols_dims_through_degree_five(tmp_path):
    # Fomin-Kirillov: 1, 6, 19, 42, 71, 96, ... (total 576); degree 5 is a
    # 7776 x 7776 symmetrizer, ranked mod p block by block
    code, text = run(tmp_path, "nichols-dim", "--n", "4", "--preset", "--max-degree", "5")
    assert code == 0
    payload = json.loads(text)
    assert payload["dims"] == [1, 6, 19, 42, 71, 96]
    assert payload["truncated_at"] is None
    assert not payload["exact"]


def test_braiding_output(tmp_path):
    code, text = run(tmp_path, "braiding", "--n", "3", "--preset", "--terms")
    assert code == 0
    payload = json.loads(text)
    assert payload["dimension"] == 3
    assert payload["monomial"]
    assert payload["braid_equation"] == "verified"
    assert len(payload["terms"]) == 9


def test_braiding_refuses_a_wrong_braiding_of_the_b5_three_cycles(tmp_path, monkeypatch):
    # the B_5 3-cycles (D = 80) with q[0, 3] negated do not braid; the
    # command must name a failing triple rather than print "verified"
    braiding = YDModule.braiding

    def flipped(self):
        c = braiding(self)
        q = c.q.copy()
        q[0, 3] *= -1
        return Braiding(c.phi, q)

    monkeypatch.setattr(YDModule, "braiding", flipped)
    with pytest.raises(AssertionError, match=r"braid equation fails on basis \(0, 1, 3\)"):
        run(tmp_path, "braiding", "--group", "bn", "--n", "5", "--element", "00000;(1 2 3)")
    assert not (tmp_path / "out.json").exists()


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


def config_error(capsys, tmp_path, config, *argv) -> str:
    """The one error line that refusing `config` prints, with exit code 2."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["--config", str(cfg), *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("weylrack: error: ")
    assert err.count("\n") == 1
    return err


def test_hilbert_refuses_a_groebner_pass_it_cannot_finish(capsys):
    # FK_6 has 3141 overlap ambiguities at pass 8 and 7337 at pass 9,
    # which would run for minutes up to cap 12
    start = time.monotonic()
    assert main(["hilbert", "--algebra", "fk", "--n", "6", "--cap", "12"]) == 2
    assert time.monotonic() - start < 5
    err = capsys.readouterr().err
    assert err == "weylrack: error: Groebner pass 9 has 7337 overlap ambiguities, over the cap of 5000\n"


def test_bad_config_schema_is_rejected(tmp_path, capsys):
    err = config_error(capsys, tmp_path, {"schema": 99}, "verify-lemmas", "--list")
    assert "schema must be 1, got 99" in err


def test_config_without_schema_is_rejected(tmp_path, capsys):
    err = config_error(capsys, tmp_path, {"seed": 3}, "verify-lemmas", "--list")
    assert "missing \"schema\"" in err


def test_config_with_unknown_key_is_rejected(tmp_path, capsys):
    config = {"schema": 1, "seed": 3, "sample": 200}
    err = config_error(capsys, tmp_path, config, "verify-lemmas", "--list")
    assert "unknown keys sample" in err


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
        # out-of-range counts and degrees, which once ran as if valid
        (["verify-lemmas", "--samples", "0"], "samples must be at least 1"),
        (["verify-lemmas", "--samples", "-3"], "samples must be at least 1"),
        (["nichols-dim", "--preset", "--n", "3", "--max-degree", "-1"], "max_degree"),
        (["scan-classes", "--n", "0"], "degree must be positive"),
        (["scan-classes", "--n", "-1"], "degree must be positive"),
        # the B_6 6-cycles, D = 3840: 14.7 M braiding pairs, refused before
        # they are built instead of running out of memory
        (["nichols-dim", "--group", "bn", "--n", "6", "--element", "000000;(1 2 3 4 5 6)",
          "--max-degree", "2"],
         "memory budget"),
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


def test_config_keys_that_flags_always_set_are_rejected(tmp_path, capsys):
    # argparse fills --n, --cap and --max-degree before the config is read
    config = {"schema": 1, "max_degree": 2}
    err = config_error(capsys, tmp_path, config, "nichols-dim", "--n", "3", "--preset")
    assert "unknown keys max_degree" in err


@pytest.mark.parametrize(
    "values, key",
    [
        ({"seed": "x"}, "seed"),
        ({"seed": True}, "seed"),
        ({"samples": 0}, "samples"),
        ({"schema": 99}, "schema"),
    ],
)
def test_config_values_of_the_wrong_type_are_rejected(tmp_path, capsys, values, key):
    argv = ["verify-lemmas", "--select", "square-closed-forms"]
    err = config_error(capsys, tmp_path, {"schema": 1, **values}, *argv)
    assert f"{key} must be" in err


@pytest.mark.parametrize(
    "tables, needle",
    [
        ({}, "no sign table 'alpha'"),
        ({"alpha": {}, "beta": {}, "gamma": {}, "lambda": {}}, "sign table 'gamma' has no entry '2,1'"),
    ],
)
def test_sign_table_without_a_key_is_one_error_line(tmp_path, capsys, tables, needle):
    signs = tmp_path / "signs.json"
    signs.write_text(json.dumps(tables))
    assert main(["hilbert", "--algebra", "A", "--n", "3", "--signs", str(signs)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("weylrack: error: ")
    assert err.count("\n") == 1
    assert needle in err


def test_lemma_reports_do_not_depend_on_what_ran_before(tmp_path):
    # classes, racks and the S_n search cache keep lazily built state;
    # a report must not see any of it
    lemmas = ["verify-lemmas", "--select", "cycle-split,projection-pullback"]
    first = run(tmp_path, *lemmas)
    assert run(tmp_path, "scan-classes", "--n", "5")[0] == 0
    assert run(tmp_path, *lemmas) == first
    assert first[0] == 0


def test_commands_do_not_import_numpy_ma(tmp_path):
    # a bare np.unique imports numpy.ma (about 10 ms, once per process)
    # inside the timed commands; none of them may need it
    import os
    import subprocess
    import sys

    commands = [["scan-classes", "--n", "5"], ["verify-lemmas"]]
    commands += [list(argv) for argv in list(GRADED_DIGESTS)[:6]]  # the benchmark's six
    script = (
        "import sys\n"
        "sys.path[:0] = ['src']\n"
        "from weylrack.cli import main\n"
        f"for argv in {commands!r}:\n"
        f"    assert main(argv + ['--out', {str(tmp_path / 'out.json')!r}]) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run([sys.executable, "-c", script], cwd=root, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"
