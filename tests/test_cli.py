import argparse
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from sl2ybe import classify, cli, oracle
from sl2ybe.cli import main
from sl2ybe.exact import DomainError
from sl2ybe.spectral import RationalFunction, custom_family

pytestmark = pytest.mark.usefixtures("capsys")


ROOT = Path(__file__).resolve().parent.parent
PERTURBED = ROOT / "perfbench" / "perturbed_spin_half.json"

# the s = 1/2 yang table r_0 = (1 - l)/(1 + l), r_1 = 1, as family-file entries
YANG_HALF = [{"num": ["1", "-1"], "den": ["1", "1"]}, {"num": ["1", "1"], "den": ["1", "1"]}]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSixjCommand:
    def test_triangle_violation_prints_zero(self, capsys):
        code, out, _ = run_cli(capsys, "sixj", "1/2", "1/2", "2", "1/2", "1/2", "1")
        assert code == 0 and out.strip() == "0"

    def test_exact_value(self, capsys):
        code, out, _ = run_cli(capsys, "sixj", "1/2", "1/2", "1", "1/2", "1/2", "1")
        assert code == 0 and out.strip() == "1/6"

    def test_rational_even_when_entry_is_not(self, capsys):
        # the matrix entry carries sqrt(3) through its prefactor; the bare
        # symbol is rational
        code, out, _ = run_cli(capsys, "sixj", "1/2", "1/2", "1", "1/2", "1/2", "0")
        assert out.strip() == "1/2"

    def test_irrational_value(self, capsys):
        code, out, _ = run_cli(capsys, "sixj", "3/2", "3/2", "0", "1/2", "1/2", "2")
        assert out.strip() == "1/4*sqrt(2)"

    def test_missing_labels_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sixj", "1", "1", "1"])
        err = capsys.readouterr().err
        assert exc.value.code == 2 and "Traceback" not in err
        assert "the following arguments are required: label" in err

    def test_negative_label_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "sixj", "-1", "1", "1", "1", "1", "1")
        assert code == 2 and out == "" and err.startswith("error:")


class TestAmatCommand:
    def test_entries(self, capsys):
        code, out, _ = run_cli(capsys, "amat", "--s", "1/2", "--n", "1")
        assert code == 0
        assert "1/2*sqrt(3)" in out and "-1/2" in out

    def test_gauge_json(self, capsys):
        code, out, _ = run_cli(capsys, "amat", "--s", "1", "--n", "2",
                               "--gauge", "--json")
        doc = json.loads(out)
        assert doc["check"] == "recoupling-matrix"
        assert len(doc["weights"]) == 3

    def test_bad_level_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "amat", "--s", "1", "--n", "9")
        assert code == 2 and "error" in err


class TestEtaCommand:
    def test_value(self, capsys):
        code, out, _ = run_cli(capsys, "eta", "--s", "5/2", "--m", "3", "--n", "4")
        assert code == 0 and out.strip() == "1/2"

    def test_json_echoes_the_parsed_spin(self, capsys):
        # "4/2" is spin 2, printed as amat, classify-constant and rigidity do
        code, out, _ = run_cli(capsys, "eta", "--s", "4/2", "--m", "2", "--n", "2",
                               "--json")
        assert code == 0 and json.loads(out)["s"] == "2"


class TestVerifyCommand:
    def test_exceptional_full_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--family", "exceptional-s3",
                               "--levels", "0..9")
        assert code == 0 and out.startswith("PASS")

    def test_json_shape(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--family", "yang", "--s", "1/2",
                               "--json")
        doc = json.loads(out)
        assert doc["pass"] is True
        assert doc["family"] == "yang" and doc["s"] == "1/2"
        level = doc["levels"][0]
        assert {"lambda", "mu", "zero"} <= set(level["samples"][0])

    @pytest.mark.parametrize("grid", ["default", "dense"])
    def test_spin_zero_yang_is_constant(self, capsys, grid):
        # yang's one table at s = 0 is the constant 1: one marker sample, not
        # a grid, whichever --grid is asked for
        code, out, _ = run_cli(capsys, "verify", "--family", "yang", "--s", "0",
                               "--grid", grid, "--json")
        doc = json.loads(out)
        assert code == 0 and doc["pass"] is True
        assert doc["grid"] == "one marker sample per level (constant family)"
        assert doc["levels"] == [{"n": 0, "zero": True}] and "regularity" not in doc
        code, out, _ = run_cli(capsys, "family", "show", "--family", "yang", "--s", "0",
                               "--json")
        doc = json.loads(out)
        assert code == 0 and doc["constant"] is True
        assert doc["values"] == {x: {"0": "1"} for x in ("0", "1", "1/2")}

    def test_json_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "verify", "--family", "yang", "--s", "1", "--json")
        _, second, _ = run_cli(capsys, "verify", "--family", "yang", "--s", "1", "--json")
        assert first == second

    def test_family_file_negative_control(self, capsys, tmp_path):
        doc = {
            "tag": "custom", "s": "1/2",
            "coeffs": [
                {"num": ["1", "-1", "1", "-1"], "den": ["1", "1"]},
                {"num": ["1"], "den": ["1"]},
            ],
        }
        path = tmp_path / "perturbed.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "verify", "--family-file", str(path),
                               "--levels", "1")
        assert code == 1 and out.startswith("FAIL")

    @pytest.mark.parametrize("doc", [
        {},
        {"tag": "custom"},
        {"tag": "custom", "s": "1/2", "coeffs": [{"num": ["1"]}]},
        {"tag": "custom", "s": "1/2", "coeffs": [{"num": [], "den": ["1"]}]},
        [{"tag": "yang", "s": "1"}],
        {"tag": "custom", "s": "1/2", "coeffs": [{"num": ["1", -0.1], "den": ["1", "1"]},
                                                 {"num": ["1"], "den": ["1"]}]},
        {"tag": "custom", "s": "1/2", "coeffs": [{"num": [1.0, "-1"], "den": ["1", "1"]},
                                                 {"num": ["1"], "den": ["1"]}]},
        {"tag": "custom", "s": "1/2", "coeffs": [{"num": ["1", "-1"], "den": ["1", 2.5e-5]},
                                                 {"num": ["1"], "den": ["1"]}]},
        {"tag": "custom", "s": 1.5, "coeffs": YANG_HALF},
    ], ids=["empty", "custom-without-s", "missing-den", "empty-num", "list",
            "decimal-coefficient", "float-integer-coefficient", "exponent-coefficient",
            "decimal-spin"])
    def test_malformed_family_file_is_usage_error(self, capsys, tmp_path, doc):
        path = tmp_path / "family.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "verify", "--family-file", str(path))
        assert code == 2 and out == "" and err.startswith("error:")

    @pytest.mark.parametrize("argv", [
        ("verify",), ("family", "show"), ("oracle", "--lambda", "1", "--mu", "2"),
    ], ids=["verify", "family-show", "oracle"])
    def test_deeply_nested_family_file_is_usage_error(self, capsys, tmp_path, argv):
        # past the JSON decoder's depth: one error line, not a traceback
        path = tmp_path / "family.json"
        path.write_text("[" * 100000 + "]" * 100000)
        code, out, err = run_cli(capsys, *argv, "--family-file", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "nested too deeply" in err and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ("--family", "yang", "--s", "1", "--levels", "3..1"),
        ("--family", "yang", "--s", "-1"),
        ("--family", "permutation", "--s", "1", "--levels", "3..1"),
    ], ids=["empty-range", "negative-spin", "constant-empty-range"])
    def test_check_over_no_level_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2 and out == "" and err.startswith("error:")

    @pytest.mark.parametrize("levels", ["x", "0..2..4", "..2", "1.5", ""])
    def test_malformed_levels_is_usage_error(self, capsys, levels):
        code, out, err = run_cli(capsys, "verify", "--family", "yang", "--s", "1",
                                 "--levels", levels)
        assert (code, out, err) == (
            2, "", f"error: --levels takes n or lo..hi, not {levels!r}\n")

    def test_coefficient_mapping_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "family.json"
        path.write_text(json.dumps({"tag": "custom", "s": "1/2", "coeffs": {}}))
        code, out, err = run_cli(capsys, "verify", "--family-file", str(path))
        assert (code, out, err) == (2, "", 'error: "coeffs" must be a list\n')

    def test_catalog_family_without_spin_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--family", "yang")
        assert (code, out, err) == (2, "", "error: family 'yang' needs a spin\n")

    def test_family_show_prints_a_pole(self, capsys, tmp_path):
        # r_0 = 1/(1 - 2x) has its pole at the shown sample 1/2
        path = tmp_path / "pole.json"
        path.write_text(json.dumps({"tag": "custom", "s": "1/2", "coeffs": [
            {"num": ["1"], "den": ["1", "-2"]}, {"num": ["1"], "den": ["1"]}]}))
        code, out, _ = run_cli(capsys, "family", "show", "--family-file", str(path), "--json")
        assert code == 0 and '"1/2":"pole"' in out
        code, out, _ = run_cli(capsys, "family", "show", "--family-file", str(path))
        assert code == 0 and "  at 1/2: pole\n" in out

    @pytest.mark.parametrize("argv", [
        ("verify", "--family", "yang", "--s", "-1"),
        ("family", "show", "--family", "yang", "--s", "-1"),
        ("oracle", "--family", "yang", "--s", "-1", "--lambda", "1", "--mu", "1"),
        ("amat", "--s", "-1", "--n", "0"),
        ("eta", "--s", "-1", "--m", "2", "--n", "2"),
        ("rigidity", "--s", "-1", "--m", "2"),
        ("classify-constant", "--s", "-1", "--m", "2"),
    ], ids=["verify", "family-show", "oracle", "amat", "eta", "rigidity",
            "classify-constant"])
    def test_negative_spin_is_refused_first(self, capsys, argv):
        # one refusal, before any level or index range is read
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", "error: spin s=-1 is negative\n")

    @pytest.mark.parametrize("argv", [
        ("verify", "--family", "yang", "--s", "1", "--family-file", str(PERTURBED)),
        ("verify", "--s", "1", "--family-file", str(PERTURBED)),
        ("verify", "--m", "2", "--family-file", str(PERTURBED)),
        ("oracle", "--family", "yang", "--family-file", str(PERTURBED),
         "--lambda", "1", "--mu", "2"),
        ("oracle", "--s", "1/2", "--family-file", str(PERTURBED),
         "--lambda", "1", "--mu", "2"),
        ("family", "show", "--family", "yang", "--family-file", str(PERTURBED)),
        ("family", "show", "--s", "1", "--m", "2", "--family-file", str(PERTURBED)),
    ], ids=["verify-family-s", "verify-s", "verify-m", "oracle-family", "oracle-s",
            "show-tag", "show-s-m"])
    def test_family_file_with_catalog_options_is_usage_error(self, capsys, argv):
        # the file would silently replace the named family
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error:")
        named = [x for x in argv if x in ("--family", "--s", "--m")]
        assert all(opt in err for opt in named), err

    def test_constant_key_is_not_read(self, capsys, tmp_path):
        # constancy is read from the table alone: a leftover key claiming it
        # is refused like any unknown key, so the perturbed table can never
        # pass the one-sample braid check at the origin
        doc = json.loads(PERTURBED.read_text())
        doc["constant"] = True
        path = tmp_path / "family.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "verify", "--family-file", str(path), "--json")
        assert code == 2 and out == ""
        assert err == "error: a family document takes no key 'constant'\n"

    def test_table_of_constants_is_a_constant_family(self, capsys, tmp_path):
        # the permutation signs for s = 1 need no "constant" key
        doc = {"tag": "custom", "s": "1",
               "coeffs": [{"num": [sign], "den": ["1"]} for sign in ("1", "-1", "1")]}
        path = tmp_path / "family.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "verify", "--family-file", str(path), "--json")
        assert code == 0
        assert json.loads(out)["grid"] == "one marker sample per level (constant family)"

    @pytest.mark.parametrize("argv, tag, option", [
        (("verify", "--family", "exceptional-s3", "--s", "1"), "exceptional-s3", "s"),
        (("verify", "--family", "yang", "--s", "2", "--m", "3"), "yang", "m"),
        (("family", "show", "--family", "identity", "--s", "1", "--m", "5"), "identity", "m"),
        (("verify", "--family", "baxter-tl", "--s", "2", "--m", "4"), "baxter-tl", "m"),
    ], ids=["exceptional-s", "yang-m", "identity-m", "baxter-tl-m"])
    def test_option_the_tag_does_not_take_is_usage_error(self, capsys, argv, tag, option):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: family {tag!r} takes no {option}\n"

    @pytest.mark.parametrize("argv, label, points", [
        (("--family", "yang", "--s", "1"), "additive samples lambda", ["0", "1/2", "1"]),
        (("--family", "baxter-tl", "--s", "1"), "multiplicative samples t", ["2", "3"]),
    ], ids=["yang", "baxter-tl"])
    def test_family_show_prints_the_sampling(self, capsys, argv, label, points):
        code, out, _ = run_cli(capsys, "family", "show", *argv)
        lines = out.splitlines()
        assert code == 0 and lines[2] == label
        assert [line.split(":")[0] for line in lines[3:]] == [f"  at {x}" for x in points]

    def test_missing_index_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "family", "show", "--family",
                                 "constant-baxter", "--s", "2")
        assert code == 2 and out == ""
        assert err == "error: family 'constant-baxter' needs m\n"

    @pytest.mark.parametrize("doc, verdict", [
        ({"tag": "yang", "s": "2"}, 0), ({"tag": "baxter-tl", "s": "1"}, 0),
        ({"tag": "zamolodchikov", "s": "5/2", "m": 3}, 0), ({"tag": "krs-prefix", "s": "2"}, 0),
        ({"tag": "exceptional-s3"}, 0), ({"tag": "constant-baxter", "s": "2", "m": 3}, 1),
        ({"tag": "identity", "s": "1"}, 0),
    ], ids=["yang(s=2)", "baxter-tl(s=1)", "zamolodchikov(s=5/2)", "krs-prefix(s=2)",
            "exceptional-s3(s=3)", "constant-baxter(s=2)", "identity(s=1)"])
    def test_catalog_document_is_refused(self, capsys, tmp_path, doc, verdict):
        # a family file holds a custom family only; the catalog family it
        # names is reached through --family, --s and --m
        path = tmp_path / "family.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "verify", "--family-file", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: a family file holds a custom family") and "--family" in err
        options = [x for key in ("s", "m") if key in doc for x in (f"--{key}", str(doc[key]))]
        code, out, _ = run_cli(capsys, "verify", "--family", doc["tag"], *options, "--json")
        assert (code, json.loads(out)["family"]) == (verdict, doc["tag"])

    @pytest.mark.parametrize("doc, message", [
        ({"tag": "custom", "s": "1/2", "m": 3, "coeffs": YANG_HALF},
         "family 'custom' takes no m"),
    ], ids=["custom-m"])
    def test_key_the_tag_does_not_use_is_usage_error(self, capsys, tmp_path, doc, message):
        # read by its tag and table alone, the document is a yang table that passes
        path = tmp_path / "family.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "verify", "--family-file", str(path))
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    def test_label_beyond_two_s_is_usage_error(self, capsys, tmp_path):
        # r_2 = (1 + 5l)/(1 + l) is regular, but no s = 1/2 R-matrix has an r_2
        doc = {"tag": "custom", "s": "1/2",
               "coeffs": YANG_HALF + [{"num": ["1", "5"], "den": ["1", "1"]}]}
        path = tmp_path / "family.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "verify", "--family-file", str(path))
        assert code == 2 and out == ""
        assert err == "error: coefficient label j=2 outside 0..2s=1\n"

    @pytest.mark.parametrize("j", [-1, 3])
    def test_custom_label_outside_zero_to_two_s(self, j):
        one = RationalFunction((Fraction(1),), (Fraction(1),))
        with pytest.raises(DomainError, match=f"label j={j} outside 0..2s=2"):
            custom_family(1, {0: one, j: one})

    @pytest.mark.parametrize("value", ["false", 0], ids=["string", "zero"])
    def test_non_boolean_multiplicative_is_usage_error(self, capsys, tmp_path, value):
        # the yang-1/2 table, which passes as an additive family
        doc = {"tag": "custom", "s": "1/2", "multiplicative": value,
               "coeffs": [{"num": ["1", "-1"], "den": ["1", "1"]},
                          {"num": ["1", "1"], "den": ["1", "1"]}]}
        path = tmp_path / "family.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "verify", "--family-file", str(path))
        assert code == 2 and out == ""
        assert err.startswith('error: "multiplicative" must be true or false')

    @pytest.mark.parametrize("argv", [
        ("verify",), ("family", "show"), ("oracle", "--lambda", "1", "--mu", "2"),
    ], ids=["verify", "family-show", "oracle"])
    def test_unknown_document_key_is_usage_error(self, capsys, tmp_path, argv):
        # a misspelt "multiplicative" would load the table as an additive family
        path = tmp_path / "family.json"
        path.write_text(json.dumps({"tag": "custom", "s": "1/2", "multiplicativ": True,
                                    "coeffs": YANG_HALF}))
        code, out, err = run_cli(capsys, *argv, "--family-file", str(path))
        assert code == 2 and out == ""
        assert err == "error: a family document takes no key 'multiplicativ'\n"
        # a catalog document is refused for its tag first
        path.write_text(json.dumps({"tag": "yang", "s": "1/2", "coefs": YANG_HALF}))
        code, out, err = run_cli(capsys, *argv, "--family-file", str(path))
        assert code == 2 and "holds a custom family, not 'yang'" in err

    def test_unknown_coefficient_key_is_usage_error(self, capsys, tmp_path):
        entry = dict(YANG_HALF[0], denom=["2"])
        path = tmp_path / "family.json"
        path.write_text(json.dumps({"tag": "custom", "s": "1/2",
                                    "coeffs": [entry, YANG_HALF[1]]}))
        code, out, err = run_cli(capsys, "verify", "--family-file", str(path))
        assert code == 2 and out == ""
        assert err == "error: coeffs[0] takes no key 'denom', only 'num' and 'den'\n"

    def test_family_file_alone_still_loads(self, capsys):
        code, out, _ = run_cli(capsys, "family", "show", "--family-file", str(PERTURBED))
        assert code == 0 and out.startswith("custom: s=1/2")

    def test_custom_tag_points_to_family_file(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--family", "custom", "--s", "1")
        assert code == 2 and out == ""
        assert "--family-file" in err and "'custom'" not in err.split("one of")[1]

    def test_constant_family_verify(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--family", "permutation",
                               "--s", "1")
        assert code == 0

    @pytest.mark.parametrize("grid", ["default", "dense"])
    def test_constant_family_reports_the_marker_sample(self, capsys, grid):
        # constant_check tests one marker sample per level, whatever --grid says
        note = "one marker sample per level (constant family)"
        code, out, _ = run_cli(capsys, "verify", "--family", "permutation", "--s", "1",
                               "--grid", grid, "--json")
        assert code == 0 and json.loads(out)["grid"] == note
        code, out, _ = run_cli(capsys, "verify", "--family", "permutation", "--s", "1",
                               "--grid", grid)
        assert code == 0 and out.splitlines()[0].endswith(f"on {note}")


class TestExactInput:
    """Only integers and p/q literals enter the exact layer."""

    def test_integer_json_numbers_are_accepted(self, capsys, tmp_path):
        doc = {"tag": "custom", "s": 1,
               "coeffs": [{"num": [1, 1], "den": [1, 1]},
                          {"num": [1, -1], "den": [1, 1]},
                          {"num": [1], "den": [1]}]}
        path = tmp_path / "family.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "verify", "--family-file", str(path))
        assert code == 0 and out.startswith("PASS")

    @pytest.mark.parametrize("argv", [
        ("verify", "--family", "yang", "--s", "1.5"),
        ("verify", "--family", "yang", "--s", "2e0"),
        ("oracle", "--family", "yang", "--s", "1", "--lambda", "1e-1", "--mu", "0.25"),
        ("oracle", "--family", "yang", "--s", "1", "--lambda", "1/2", "--mu", "0.25"),
        ("oracle", "--family", "yang", "--s", "1", "--lambda", "1/0", "--mu", "1"),
        ("amat", "--s", "0.5", "--n", "1"),
        ("sixj", "0.5", "0.5", "1", "0.5", "0.5", "1"),
    ], ids=["verify-decimal-spin", "verify-exponent-spin", "oracle-float-samples",
            "oracle-decimal-mu", "oracle-zero-denominator", "amat-decimal-spin",
            "sixj-decimal-labels"])
    def test_inexact_number_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error:")


class TestScanCommand:
    def test_json_lines(self, capsys):
        code, out, _ = run_cli(capsys, "scan-degeneracy", "--max-2s", "4", "--json")
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        cells = [r for r in rows if "skipped" not in r]
        degen = [r for r in cells if r["transpose_pair"] and not r["shifted"]]
        assert [(r["s"], r["m"], r["n"]) for r in degen] == [("2", 3, 4)]
        beta2 = [r for r in degen if r["beta"] == "2"]
        assert beta2 == degen

    def test_human_summary(self, capsys):
        code, out, _ = run_cli(capsys, "scan-degeneracy", "--max-2s", "4")
        assert "unshifted degenerate cells" in out

    def test_spin_below_one_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "scan-degeneracy", "--max-2s", "1")
        assert (code, out, err) == (2, "", "error: max_two_s must be at least 2\n")


    def test_internal_check_failure_is_exit_one(self, capsys, monkeypatch):
        def broken_scan(max_two_s):
            raise AssertionError("simultaneity violated")

        monkeypatch.setattr(classify, "degeneracy_scan", broken_scan)
        code, out, err = run_cli(capsys, "scan-degeneracy", "--max-2s", "4")
        assert code == 1 and out == ""
        assert err == "error: internal check failed: simultaneity violated\n"


class TestClassifyCommands:
    def test_classify_constant(self, capsys):
        code, out, _ = run_cli(capsys, "classify-constant", "--s", "1", "--m", "2")
        assert code == 0
        assert "-9/2 + 3/2*sqrt(5)" in out and "m' = 3" in out

    def test_rational_roots_print_the_field_q(self, capsys):
        # at 2s = 3, m = 2 the roots -10/9 and -10 are rational: the field
        # prints as Q, as family show prints it, and the JSON keeps d = 1
        code, out, _ = run_cli(capsys, "classify-constant", "--s", "3/2", "--m", "2")
        assert code == 0 and "-10/9  |  -10" in out
        assert "field: Q\n" in out and "sqrt" not in out
        code, out, _ = run_cli(capsys, "family", "show", "--family", "constant-baxter",
                               "--s", "3/2", "--m", "2")
        assert code == 0 and out.splitlines()[0].endswith("field=Q")
        code, out, _ = run_cli(capsys, "classify-constant", "--s", "3/2", "--m", "2", "--json")
        assert json.loads(out)["discriminant"] == 1
        code, out, _ = run_cli(capsys, "classify-constant", "--s", "1", "--m", "2")
        assert "field: Q(sqrt(5))\n" in out

    def test_rigidity(self, capsys):
        code, out, _ = run_cli(capsys, "rigidity", "--s", "3", "--m", "3")
        assert code == 0 and "True" in out

    @pytest.mark.parametrize("m", ["0", "1", "7"])
    def test_rigidity_outside_its_domain_is_usage_error(self, capsys, m):
        code, out, err = run_cli(capsys, "rigidity", "--s", "3", "--m", m)
        assert code == 2 and out == ""
        assert err == f"error: m={m} must satisfy 2 <= m <= 2s=6\n"


class TestOracleCommand:
    def test_consistency(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--family", "yang", "--s", "1",
                               "--lambda", "1/2", "--mu", "1/3")
        assert code == 0 and "consistent: True" in out

    def test_dense_residual_computed_once(self, capsys, monkeypatch):
        calls = []
        real = oracle.dense_ybe_residual

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(oracle, "dense_ybe_residual", counting)
        # a call the command made itself would count too
        monkeypatch.setattr(cli, "dense_ybe_residual", counting, raising=False)
        code, _, _ = run_cli(capsys, "oracle", "--family", "yang", "--s", "1",
                             "--lambda", "1/2", "--mu", "1/3", "--json")
        assert code == 0 and len(calls) == 1

    def test_family_file_negative_control(self, capsys):
        # the dense oracle sees the perturbed family break (residual 1/2),
        # and so does the exact reduced check: two independent exact
        # verdicts agree
        code, out, _ = run_cli(capsys, "oracle", "--family-file", str(PERTURBED),
                               "--lambda", "1", "--mu", "2", "--json")
        doc = json.loads(out)
        assert code == 0 and doc["family"] == "custom"
        assert doc["exact_zero"] is False and doc["dense_zero"] is False
        assert doc["consistent"] is True
        assert doc["braid_residual"] == "1/2"

    def test_custom_tag_points_to_an_existing_option(self, capsys):
        code, out, err = run_cli(capsys, "oracle", "--family", "custom", "--s", "1",
                                 "--lambda", "1", "--mu", "1")
        assert code == 2 and out == "" and "--family-file" in err
        with pytest.raises(SystemExit):
            main(["oracle", "--help"])
        assert "--family-file" in capsys.readouterr().out

    def test_no_family_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "oracle", "--lambda", "1", "--mu", "1")
        assert code == 2 and out == ""
        assert err == "error: no family given: name one with --family or --family-file\n"


class TestSuiteCommand:
    def test_suite_small_grid_json(self, capsys):
        code, out, _ = run_cli(capsys, "suite", "--max-2s", "4", "--json")
        doc = json.loads(out)
        numbers = [c["number"] for c in doc["criteria"]]
        assert numbers == list(range(1, 12))
        # the one documented discrepancy is the literal rank expectation
        failing = [c for c in doc["criteria"] if not c["pass"]]
        assert [c["number"] for c in failing] == [6]
        assert failing[0]["documented_discrepancy"]
        assert code == 1 and doc["pass"] is False


def _leaf_parsers(parser, path=()):
    """(command words, parser) of every subcommand that takes no further
    subcommand."""
    groups = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not groups:
        yield " ".join(path), parser
    for group in groups:
        for name, child in group.choices.items():
            yield from _leaf_parsers(child, path + (name,))


class TestParserShape:
    """Each option is declared once and reaches every command that takes it
    under one name."""

    def test_every_command_takes_json(self):
        leaves = dict(_leaf_parsers(cli.build_parser()))
        assert len(leaves) == 10
        assert [name for name, p in leaves.items()
                if "--json" not in p._option_string_actions] == []

    def test_family_options_are_shared(self):
        leaves = dict(_leaf_parsers(cli.build_parser()))
        shapes = {name: [(a.option_strings, a.dest, a.type, a.required)
                         for a in leaves[name]._actions
                         if set(a.option_strings) & {"--family", "--family-file", "--s", "--m"}]
                  for name in ("family show", "verify", "oracle")}
        assert shapes["family show"] == [(["--family"], "family", None, False),
                                         (["--family-file"], "family_file", None, False),
                                         (["--s"], "s", None, False),
                                         (["--m"], "m", int, False)]
        assert shapes["verify"] == shapes["oracle"] == shapes["family show"]

    @pytest.mark.parametrize("argv", [
        ("--tag", "yang", "--s", "1"),
        ("--file", str(PERTURBED)),
    ], ids=["tag", "file"])
    def test_family_show_old_spelling_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(["family", "show", *argv])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert f"unrecognized arguments: {argv[0]}" in captured.err

    def test_family_show_custom_tag_points_to_its_own_option(self, capsys):
        # the hint comes from make_family, which does not know the command
        code, out, err = run_cli(capsys, "family", "show", "--family", "custom", "--s", "1")
        assert code == 2 and out == "" and "(--family-file)" in err
        with pytest.raises(SystemExit):
            main(["family", "show", "--help"])
        assert "--family-file" in capsys.readouterr().out


def run_module(*argv):
    """`python -m sl2ybe.cli` in a fresh interpreter, the package taken from
    this checkout whether or not it is installed."""
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run([sys.executable, "-m", "sl2ybe.cli", *argv], env=env,
                          capture_output=True, text=True)


class TestEntryPoint:
    def test_module_invocation(self):
        proc = run_module("sixj", "1", "1", "1", "1", "1", "1")
        assert proc.returncode == 0 and proc.stdout.strip() == "1/6"

    def test_unknown_flag_usage_error(self):
        proc = run_module("verify", "--nonsense")
        assert proc.returncode == 2

    @pytest.mark.parametrize("argv", [
        ("verify", "--family", "yang", "--s", "1", "--json"),
        ("suite", "--json"),
    ], ids=["verify-out", "suite-out"])
    def test_out_is_usage_error(self, capsys, tmp_path, argv):
        # `--json > file` writes the payload; there is no second way
        target = tmp_path / "report.json"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(target)])
        assert exc.value.code == 2 and not target.exists()
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments: --out" in captured.err


def test_readme_command_lines_parse():
    """Every `sl2ybe ...` line of the README's "Command line" block parses,
    so a removed or renamed option cannot stay documented."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True)[1:] for line in block.splitlines()
             if line.startswith("sl2ybe ")]
    assert len(lines) >= 10
    parser = cli.build_parser()
    for argv in lines:
        assert parser.parse_args(argv).fn, argv
