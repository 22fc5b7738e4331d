"""Command-line interface tests.

Every JSON envelope is validated against the shipped schema, and the
renderings are checked for byte determinism across runs and worker
counts.
"""

import functools
import json
import sys
import time
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from disckit.cli import _format_parser, build_parser, main

GOLDEN = Path(__file__).parent / "golden"

with resources.files("disckit").joinpath("schemas/cli_result_v1.json").open() as fh:
    SCHEMA = json.load(fh)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(argv, capsys, expect_code=0):
    code, out, err = run(argv + ["--format", "json"], capsys)
    assert code == expect_code
    text = out if code == 0 else err
    envelope = json.loads(text)
    jsonschema.validate(envelope, SCHEMA)
    return envelope


# ----- resultant / discriminant ------------------------------------------------

def test_resultant_plain(capsys):
    code, out, err = run(["resultant", "t - 2", "t - 5", "--ring", "ZZ"], capsys)
    assert code == 0 and err == ""
    assert "resultant: -3" in out
    # plain rendering lists keys in sorted order
    keys = [line.split(":")[0] for line in out.strip().splitlines()]
    assert keys == sorted(keys)


def test_resultant_json(capsys):
    env = run_json(["resultant", "t - 2", "t - 5", "--ring", "ZZ"], capsys)
    assert env["command"] == "resultant"
    assert env["status"] == "ok"
    assert env["diagnostics"] == []
    assert env["payload"]["resultant"] == "-3"
    assert env["payload"]["deg_f"] == 1 and env["payload"]["deg_g"] == 1


def test_resultant_declared_degree_padding(capsys):
    env = run_json(
        ["resultant", "t - 2", "t - 5", "--ring", "ZZ", "--deg-f", "2"], capsys
    )
    # one row of padding flips the sign: (-1)^(1*1) * lc(g)^1 * (-3)
    assert env["payload"]["resultant"] == "3"
    assert env["payload"]["deg_f"] == 2


def test_resultant_symbolic(capsys):
    env = run_json(
        ["resultant", "t^2 + b*t + c", "2*t + b", "--ring", "ZZ[b,c]"], capsys
    )
    assert env["payload"]["resultant"] == "-b^2 + 4*c"


def test_discriminant_generic_quadratic(capsys):
    env = run_json(["discriminant", "t^2 + b*t + c", "--ring", "ZZ[b,c]"], capsys)
    assert env["payload"]["discriminant"] == "-b^2 + 4*c"
    assert env["payload"]["classification"] == "neither"


def test_discriminant_separable_and_inseparable(capsys):
    env = run_json(["discriminant", "t^2 + 1", "--ring", "QQ"], capsys)
    assert env["payload"]["discriminant"] == "4"
    assert env["payload"]["classification"] == "separable"
    env = run_json(["discriminant", "t^2 - 2*t + 1", "--ring", "QQ"], capsys)
    assert env["payload"]["discriminant"] == "0"
    assert env["payload"]["classification"] == "inseparable"


def test_discriminant_declared_degree(capsys):
    env = run_json(
        ["discriminant", "t", "--ring", "QQ", "--degree", "2"], capsys
    )
    # t as a degenerate quadratic: discriminant of 0*t^2 + t + 0
    assert env["payload"]["degree"] == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["resultant", "t + 1", "t - 1", "--ring", "ZZ", "--deg-f", "100000000"],
        ["resultant", "t + 1", "t - 1", "--ring", "QQ", "--deg-g", "10001"],
        ["discriminant", "t + 1", "--ring", "QQ", "--degree", "100000000"],
        ["etale", "u*t^2 + t", "--ring", "QQ[u]", "--degree", "100000000", "--strata"],
    ],
)
def test_huge_declared_degree_is_a_parameter_error(argv, capsys):
    start = time.perf_counter()
    code, out, err = run(argv, capsys)
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert "exceeds the limit 10000" in err


@pytest.mark.parametrize("var", ["9", "+"])
def test_bad_main_variable_is_a_parameter_error(var, capsys):
    code, out, err = run(["resultant", "1", "2", "--ring", "ZZ", "--var", var], capsys)
    assert (code, out) == (3, "")
    assert f"bad variable name {var!r}" in err


# ----- disc-ideal ---------------------------------------------------------------

def test_disc_ideal_level_one_quadratic(capsys):
    env = run_json(["disc-ideal", "--d", "2", "--l", "1"], capsys)
    assert env["payload"]["gens"] == ["-u1^2 + 4*u0"]
    assert env["payload"]["chart"] == {"dehom_section": 2, "affine_chart": 0}
    assert env["payload"]["ring"] == "ZZ[u0,u1]"
    assert env["payload"]["homogeneous"] is False


def test_disc_ideal_level_two_cubic(capsys):
    env = run_json(["disc-ideal", "--d", "3", "--l", "2"], capsys)
    gens = env["payload"]["gens"]
    assert len(gens) == 2
    assert gens[1] == "-12*u2^2 + 36*u1"


def test_disc_ideal_homogeneous(capsys):
    env = run_json(["disc-ideal", "--d", "2", "--l", "1", "--homogeneous"], capsys)
    assert env["payload"]["gens"] == ["4*y0*y2 - y1^2"]
    assert env["payload"]["ring"] == "ZZ[y0,y1,y2]"
    assert env["payload"]["homogeneous"] is True


def test_disc_ideal_homogeneous_needs_level_one(capsys):
    env = run_json(
        ["disc-ideal", "--d", "3", "--l", "2", "--homogeneous"], capsys, expect_code=3
    )
    assert env["status"] == "error"
    assert env["payload"] is None
    assert any("level" in d for d in env["diagnostics"])


def test_disc_ideal_other_chart(capsys):
    env = run_json(["disc-ideal", "--d", "3", "--l", "1", "--i", "0"], capsys)
    assert env["payload"]["chart"] == {"dehom_section": 0, "affine_chart": 0}
    assert len(env["payload"]["gens"]) == 1


# ----- etale --------------------------------------------------------------------

def test_etale_verdicts(capsys):
    env = run_json(["etale", "t^2 + t + 1", "--ring", "QQ"], capsys)
    assert env["payload"]["verdict"] == "etale"
    assert env["payload"]["discriminant"] == "3"
    env = run_json(["etale", "t^2 - 2*t + 1", "--ring", "QQ"], capsys)
    assert env["payload"]["verdict"] == "ramified"


def test_etale_strata_matches_golden_bytes(capsys):
    code, out, err = run(
        ["etale", "u*t^2 + t", "--ring", "QQ[u]", "--strata", "--format", "json"],
        capsys,
    )
    assert code == 0
    golden = (GOLDEN / "etale_strata_json.golden").read_text()
    assert out == golden
    env = json.loads(out)
    jsonschema.validate(env, SCHEMA)
    strata = env["payload"]["strata"]
    assert len(strata) == 2
    assert strata[0]["inverted"] == ["u"] and strata[0]["verdict"] == "etale of degree 2"
    assert strata[1]["quotiented"] == ["u"] and strata[1]["verdict"] == "etale of degree 1"


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["verify", "--d", "3", "--l", "2", "--q", "5"], "verify_d3_l2_q5_json.golden"),
        (["verify", "--d", "2", "--l", "1", "--q", "5", "--q2", "11"],
         "verify_growth_d2_l1_q5_q11_json.golden"),
        (["dims", "--N", "1", "--d", "4", "--k", "1", "--j", "1"], "dims_N1_d4_k1_j1_json.golden"),
        (["disc-ideal", "--d", "3", "--l", "2", "--i", "1", "--chart", "1"],
         "disc_ideal_d3_l2_i1_chart1_json.golden"),
    ],
)
def test_report_payloads_match_golden_bytes(argv, golden, capsys):
    code, out, err = run(argv + ["--format", "json"], capsys)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / golden).read_text()
    jsonschema.validate(json.loads(out), SCHEMA)


# ----- dims ---------------------------------------------------------------------

def test_dims_single_value(capsys):
    env = run_json(["dims", "--N", "1", "--d", "3", "--k", "1", "--j", "1"], capsys)
    assert env["payload"] == {
        "N": 1, "d": 3, "k": 1, "j": 1, "i": 0, "value": 6, "object": "ext_jet",
    }


def test_dims_higher_cohomology_vanishes(capsys):
    env = run_json(
        ["dims", "--N", "1", "--d", "3", "--k", "1", "--j", "1", "--i", "1"], capsys
    )
    assert env["payload"]["value"] == 0


def test_dims_table(capsys):
    env = run_json(["dims", "--N", "1", "--d", "4", "--k", "1", "--table"], capsys)
    assert env["payload"]["object"] == "complex_table"
    assert env["payload"]["twists"] == [0, -1, -2]
    assert env["payload"]["module_dims"] == [1, 4, 5]


def test_dims_table_rejects_j(capsys):
    env = run_json(
        ["dims", "--N", "1", "--d", "4", "--k", "1", "--table", "--j", "1"],
        capsys,
        expect_code=3,
    )
    assert env["status"] == "error"


def test_dims_needs_j_or_table(capsys):
    code, out, err = run(["dims", "--N", "1", "--d", "4", "--k", "1"], capsys)
    assert code == 3
    assert "error" in err


# ----- verify -------------------------------------------------------------------

def test_verify_json(capsys):
    env = run_json(["verify", "--d", "2", "--l", "1", "--q", "5"], capsys)
    payload = env["payload"]
    assert payload["ideal_zero_count"] == 5
    assert payload["mult_root_count"] == 5
    assert payload["mismatches"] == []
    assert payload["soundness_mismatches"] == []
    assert payload["completeness_mismatches"] == []
    assert payload["chart"] == {"dehom_section": 2, "affine_chart": 0}


def test_verify_reports_mismatch_points(capsys):
    env = run_json(["verify", "--d", "4", "--l", "2", "--q", "5"], capsys)
    payload = env["payload"]
    assert payload["ideal_zero_count"] == 45
    assert payload["mult_root_count"] == 25
    assert payload["soundness_mismatches"] == []
    assert len(payload["completeness_mismatches"]) == 20
    assert payload["mismatches"] == payload["completeness_mismatches"]
    assert all(len(p) == 4 for p in payload["mismatches"])


def test_verify_growth(capsys):
    env = run_json(["verify", "--d", "2", "--l", "1", "--q", "5", "--q2", "11"], capsys)
    payload = env["payload"]
    assert payload["count_q1"] == 5 and payload["count_q2"] == 11
    assert payload["ratio"] == "11/5" and payload["expected"] == "11/5"
    assert payload["within_tolerance"] is True


def test_verify_budget_exit_code(capsys):
    env = run_json(
        ["verify", "--d", "3", "--l", "1", "--q", "7", "--budget", "100"],
        capsys,
        expect_code=4,
    )
    assert env["status"] == "error"
    assert any("budget" in d for d in env["diagnostics"])


def test_verify_refuses_a_huge_degree_without_building_q_to_the_d(capsys):
    start = time.perf_counter()
    code, out, err = run(["verify", "--d", "400000", "--l", "1", "--q", "400009"], capsys)
    assert time.perf_counter() - start < 1
    assert (code, out) == (4, "")
    assert "q^d = 400009^400000 points exceeds the budget" in err
    assert len(err) < 200


@pytest.mark.parametrize("extra", [[], ["--q2", "7"]])
def test_verify_budget_below_one_is_a_parameter_error(extra, capsys):
    argv = ["verify", "--d", "2", "--l", "1", "--q", "5", "--budget", "-1"] + extra
    code, out, err = run(argv, capsys)
    assert (code, out) == (3, "")
    assert "the budget must be at least 1, got -1" in err


# ----- error handling and determinism -------------------------------------------

def test_syntax_error_exit_code_and_caret(capsys):
    code, out, err = run(["discriminant", "t + (", "--ring", "QQ"], capsys)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert lines[0].startswith("error:")
    assert "^" in lines[-1]
    caret_col = lines[-1].index("^")
    assert lines[1][caret_col - 1 : caret_col + 1] != ""  # caret under the source line


@pytest.mark.parametrize("f", ["t^200000", "t^6000 * 3*t^6000"])
def test_oversized_input_is_a_syntax_error(f, capsys):
    code, out, err = run(["resultant", f, "t - 1", "--ring", "ZZ"], capsys)
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert "exceeds the limit 10000" in lines[0]
    assert lines[1] == "  " + f and lines[2].rstrip().endswith("^")


def test_overlong_integer_literal_is_a_syntax_error(capsys):
    f = "t + 1" + "0" * 4300
    code, out, err = run(["resultant", f, "t - 1", "--ring", "ZZ"], capsys)
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert lines[0] == (
        "error: integer literal of 4301 digits exceeds the limit 4300 (line 1, column 5)"
    )
    assert lines[1] == "  " + f and lines[2] == "      ^"


def test_value_longer_than_the_int_string_limit_prints(capsys):
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, err = run(["resultant", "3^9999", "t", "--ring", "ZZ"], capsys)
    assert (code, err) == (0, "")
    [digits] = [line[len("resultant: "):] for line in out.splitlines()
                if line.startswith("resultant: ")]
    # 3^9999 has 4771 digits, more than int() may read back here; compare
    # the digit count and the residue modulo a Mersenne prime instead
    p = 2**61 - 1
    assert len(digits) == 4771
    assert functools.reduce(lambda acc, c: (10 * acc + int(c)) % p, digits, 0) == pow(3, 9999, p)
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_main_runs_on_interpreters_without_the_limit_setter(monkeypatch, capsys):
    monkeypatch.delattr(sys, "set_int_max_str_digits", raising=False)
    code, out, err = run(["resultant", "t - 2", "t - 5", "--ring", "ZZ"], capsys)
    assert (code, err) == (0, "") and "resultant: -3" in out


def test_syntax_error_json_envelope(capsys):
    env = run_json(["discriminant", "t + (", "--ring", "QQ"], capsys, expect_code=2)
    assert env["status"] == "error"
    assert env["payload"] is None
    assert env["diagnostics"][0].startswith("error:")


def test_ring_error_exit_code(capsys):
    code, out, err = run(["discriminant", "t^2", "--ring", "RR"], capsys)
    assert code in (2, 3)
    assert "error" in err


def test_parameter_error_exit_code(capsys):
    code, out, err = run(["dims", "--N", "1", "--d", "2", "--k", "1", "--table"], capsys)
    assert code == 3
    assert "d - k - N - 1 >= 0" in err


@pytest.mark.parametrize("extra", [[], ["--format", "json"]])
def test_disc_ideal_above_the_symbolic_degree_cap(capsys, extra):
    code, out, err = run(["disc-ideal", "--d", "10", "--l", "1"] + extra, capsys)
    assert code == 3 and out == ""
    assert "exceeds the limit 9" in err


def test_unknown_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["dims", "--N", "x", "--d", "4", "--k", "1"], "--N"),
        (["verify", "--d", "2", "--l", "1"], "--q"),
        (["verify", "--d", "2", "--l", "1", "--q", "5", "--bogus"], "--bogus"),
    ],
)
def test_usage_error_json_envelope(argv, flag, capsys):
    env = run_json(argv, capsys, expect_code=2)
    assert capsys.readouterr().out == ""
    assert (env["command"], env["status"], env["payload"]) == (argv[0], "error", None)
    [diagnostic] = env["diagnostics"]
    assert diagnostic.startswith("error:") and flag in diagnostic


def test_usage_error_keeps_plain_text_without_json_or_a_known_command(capsys):
    for argv in (
        ["dims", "--N", "x", "--d", "4", "--k", "1"],
        ["dims", "--N", "x", "--d", "4", "--k", "1", "--format", "yaml"],
        ["frobnicate", "--format", "json"],
    ):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage: disckit")


def test_json_output_is_deterministic(capsys):
    argv = ["verify", "--d", "3", "--l", "1", "--q", "5", "--format", "json"]
    first = run(argv, capsys)
    second = run(argv, capsys)
    assert first == second


def test_worker_count_does_not_change_bytes(capsys, monkeypatch):
    argv = ["verify", "--d", "3", "--l", "2", "--q", "7", "--format", "json"]
    code, base, _ = run(argv, capsys)
    assert code == 0
    monkeypatch.setenv("DISCKIT_THREADS", "4")
    code, threaded, _ = run(argv, capsys)
    assert code == 0
    assert threaded == base


def test_plain_rendering_of_nested_payload(capsys):
    code, out, err = run(["disc-ideal", "--d", "2", "--l", "1"], capsys)
    assert code == 0
    assert "chart:" in out
    assert "  affine_chart: 0" in out
    assert "gens: [-u1^2 + 4*u0]" in out


def test_parser_built_once_matches_fresh_parsers(capsys):
    """One process reuses one parser; its outputs match freshly built parsers."""
    cases = [
        ["dims", "--N", "x", "--d", "4", "--k", "1", "--format", "json"],
        ["resultant", "t - 2", "t - 5", "--ring", "ZZ"],
        ["--help"],
    ]

    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("exit", exc.code)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    build_parser.cache_clear()
    _format_parser.cache_clear()
    shared = [outcome(argv) for argv in cases]
    assert build_parser() is build_parser()
    fresh = []
    for argv in cases:
        build_parser.cache_clear()
        _format_parser.cache_clear()
        fresh.append(outcome(argv))
    assert shared == fresh
    (usage, _, usage_err), (ok, ok_out, _), (helped, help_out, _) = shared
    assert usage == 2 and json.loads(usage_err)["status"] == "error"
    assert ok == 0 and "resultant: -3" in ok_out
    assert helped == ("exit", 0) and help_out.startswith("usage: disckit")
