import json
import math
import os
import re
import subprocess
import sys

import pytest
from decimal import Decimal

import freemoments
from freemoments import Scalar, catalan
from freemoments.cli import main
from freemoments.engine import MomentVector


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_moments_csv_semicircular(capsys):
    code, out, _ = run(
        capsys, "moments", "--poly", "x1", "--max-order", "8", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines() == [
        "m,re,im",
        "1,0,0",
        "2,1,0",
        "3,0,0",
        "4,2,0",
        "5,0,0",
        "6,5,0",
        "7,0,0",
        "8,14,0",
    ]


def test_moments_json_schema_golden(capsys):
    code, out, _ = run(
        capsys, "moments", "--poly", "x1^3 - 3*x1", "--max-order", "4",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == {
        "poly": "-3*x1 + x1^3",
        "n_vars": 1,
        "M": 4,
        "N": 3,
        "moments": [
            {"m": 1, "re": "0", "im": "0"},
            {"m": 2, "re": "2", "im": "0"},
            {"m": 3, "re": "0", "im": "0"},
            {"m": 4, "re": "6", "im": "0"},
        ],
        "warnings": [],
    }


def test_moments_text_includes_cumulant_line(capsys):
    code, out, _ = run(capsys, "moments", "--poly", "x1^3 - 3*x1", "--max-order", "4")
    assert code == 0
    assert "m=2  2" in out
    assert "m=4  6" in out
    assert "k=4  -2" in out


def test_moments_constant(capsys):
    code, out, _ = run(
        capsys, "moments", "--poly", "5", "--max-order", "3", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines()[1:] == ["1,5,0", "2,25,0", "3,125,0"]


def test_moments_decimal_alongside(capsys):
    code, out, _ = run(
        capsys, "moments", "--poly", "1/2*x1", "--max-order", "2", "--decimal"
    )
    assert code == 0
    assert "m=2  1/4  ~ 0.25" in out

    code, out, _ = run(
        capsys, "moments", "--poly", "1/2*x1", "--max-order", "2", "--decimal",
        "--format", "json",
    )
    doc = json.loads(out)
    assert doc["moments"][1]["re"] == "1/4"
    assert doc["moments"][1]["re_approx"] == 0.25

    # a moment past float range still prints exactly; its approximation is
    # inf or -inf (null in JSON), and the run succeeds
    huge = 1000**200 * math.comb(200, 100) // 101  # tau((1000*s)^200)
    big = ("moments", "--poly", "1000*x1", "--max-order", "200", "--decimal")
    code, out, err = run(capsys, *big)
    assert code == 0, err
    assert f"m=200  {huge}  ~ inf" in out
    assert "m=2  1000000  ~ 1000000.0" in out

    code, out, err = run(capsys, *big, "--format", "csv")
    assert code == 0, err
    assert out.splitlines()[-1] == f"200,{huge},0,inf,0.0"

    code, out, err = run(capsys, *big, "--format", "json")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["moments"][199] == {
        "m": 200, "re": str(huge), "im": "0", "re_approx": None, "im_approx": 0.0
    }
    assert doc["moments"][1]["re_approx"] == 1e6

    code, out, err = run(
        capsys, "moments", "--poly=-1000*x1^2", "--max-order", "101",
        "--decimal", "--format", "csv",
    )
    assert code == 0, err
    assert out.splitlines()[-1].endswith(",-inf,0.0")


def test_moments_does_not_import_reference():
    # a fresh process: ``import freemoments`` loads only the engine path, and
    # the oracle and the CLI load only when one of their names is asked for;
    # neither loads ``dataclasses`` (which pulls in ``inspect``, ``ast`` and
    # ``dis``).  No command loads the paper's reference route, which the
    # package does not export and the tests import by path
    test_only = (  # the enumerated pairings, the semicircular system, reference
        "enumerate_nc_pairings", "psemi_table", "psemi_coefficient",
        "LinearRepresentation", "ZPoly", "build_zq_star", "coefficient",
        "iterate_system", "reduce_rep", "rep_linear_combination", "rep_product",
        "rep_star", "rep_variable",
    )
    code = (
        "import contextlib, io, sys\n"
        "before = set(sys.modules)\n"
        "import freemoments\n"
        "unwanted = ['dataclasses', 'inspect', 'freemoments.oracle',"
        " 'freemoments.reference', 'freemoments.cli']\n"
        "loaded = [n for n in unwanted if n in set(sys.modules) - before]\n"
        "assert not loaded, loaded\n"
        "import freemoments.cli\n"
        "rc = freemoments.cli.main(['moments', '--poly', 'x1*x2 + x2*x1',"
        " '--max-order', '4', '--format', 'json'])\n"
        "assert rc == 0, rc\n"
        "loaded = set(sys.modules) - before\n"
        "assert 'dataclasses' not in loaded\n"
        "assert 'freemoments.reference' not in loaded\n"
        "assert 'statistics' not in loaded  # only bench fits a slope\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for argv in (['verify', '--poly', 'x1*x2 + x2*x1', '--max-order', '4'],\n"
        "                 ['bench', '--poly', 'x1*x2 + x2*x1', '--sweep', '4']):\n"
        "        assert freemoments.cli.main(argv) == 0, argv\n"
        "assert 'freemoments.reference' not in sys.modules\n"
        "from freemoments import *\n"
        "missing = [n for n in freemoments.__all__ if n not in globals()]\n"
        "assert not missing, missing\n"
        "assert freemoments.brute_moment is freemoments.oracle.brute_moment\n"
        "assert not hasattr(freemoments.oracle, 'psemi_table')\n"
        "assert not hasattr(freemoments.oracle, 'enumerate_nc_pairings')\n"
        "from freemoments.reference import ZPoly\n"
        "assert ZPoly((1,)) * ZPoly.z() == ZPoly.z()\n"
        f"for name in {test_only!r}:\n"
        "    assert not hasattr(freemoments, name), name\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(freemoments.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["moments"][1]["re"] == "2"


def test_non_self_adjoint_warning(capsys):
    code, out, _ = run(
        capsys, "moments", "--poly", "x1*x2", "--max-order", "2", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert any("self-adjoint" in w for w in doc["warnings"])
    warning = (
        "warning: polynomial is not self-adjoint; moments may have nonzero "
        "imaginary part"
    )
    for command in ("moments", "verify"):
        code, out, _ = run(capsys, command, "--poly", "x1*x2", "--max-order", "2")
        assert code == 0, command
        assert out.splitlines()[1 if command == "verify" else 2] == warning, command


def test_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "moments", "--poly", "x1 +", "--max-order", "2")
    assert code == 2
    assert "error" in err

    code, _, err = run(capsys, "moments", "--poly", "0.5*x1", "--max-order", "2")
    assert code == 2
    assert "exact fractions" in err

    code, _, err = run(
        capsys, "moments", "--poly", "x3", "--n-vars", "2", "--max-order", "2"
    )
    assert code == 2

    code, _, err = run(capsys, "moments", "--poly", "x1\u00b2", "--max-order", "2")
    assert code == 2
    assert "position 2" in err and "internal error" not in err

    # a number too long for int() is refused before it is converted, in the
    # variable count inferred from the text as in the parse itself
    for poly in ("1" * 5000, "x" + "1" * 5000):
        code, out, err = run(capsys, "moments", "--poly", poly, "--max-order", "2")
        assert code == 2 and not out
        assert "4300 digits" in err and "internal error" not in err

    # a fraction in an exponent is refused, not reduced to x1^2
    code, out, err = run(capsys, "moments", "--poly", "x1^4/2", "--max-order", "2")
    assert code == 2 and not out
    assert "exponent" in err and "position 3" in err


def test_usage_errors_exit_2(capsys, monkeypatch):
    for argv in [
        ("moments", "--poly", "x1", "--n-vars", "0", "--max-order", "2"),
        ("moments", "--poly", "x1", "--max-order", "0"),
        ("bench", "--poly", "x1", "--sweep", "2,oops"),
        ("verify", "--poly", "x1", "--max-order", "2", "--expansion-cap", "-5"),
        ("verify", "--poly", "x1", "--max-order", "2", "--expansion-cap", "0"),
        ("bench", "--poly", "x1", "--sweep", "2", "--expansion-cap", "-1"),
    ]:
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert "error" in err and "position" not in err, argv
    for env in ("lots", "0", "-3"):
        monkeypatch.setenv("FREEMOMENTS_EXPANSION_CAP", env)
        for argv in [
            ("verify", "--poly", "x1", "--max-order", "2"),
            ("bench", "--poly", "x1", "--sweep", "2"),
        ]:
            code, _, err = run(capsys, *argv)
            assert code == 2, (env, argv)
            assert "FREEMOMENTS_EXPANSION_CAP" in err and "position" not in err, env


def test_option_of_another_subcommand_exit_2(capsys):
    # each subcommand takes only the flags it reads; argparse refuses the rest
    for argv, rejected in [
        (("verify", "--poly", "x1", "--max-order", "4", "--decimal"), "--decimal"),
        (("bench", "--poly", "x1", "--sweep", "2", "--decimal"), "--decimal"),
        (("moments", "--poly", "x1", "--max-order", "2", "--expansion-cap", "0"),
         "--expansion-cap 0"),
        (("moments", "--poly", "x1", "--max-order", "2", "--sweep", "2"), "--sweep 2"),
        (("bench", "--poly", "x1", "--max-order", "2"), "--max-order 2"),
    ]:
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2, argv
        # the subcommand's own usage and name, not the top-level ones
        err = capsys.readouterr().err
        assert err.startswith(f"usage: freemoments {argv[0]} "), argv
        assert f"freemoments {argv[0]}: error: unrecognized arguments: {rejected}\n" in err, argv


def test_one_parser_per_subcommand_call(capsys, monkeypatch):
    # an argv that names a subcommand builds that subcommand's parser alone,
    # whether it runs or fails its usage
    import argparse
    import types

    import freemoments.cli as cli_module

    built = []

    class CountingParser(argparse.ArgumentParser):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            super().__init__(*args, **kwargs)

    # a copy of the module for cli alone: argparse's own methods look up
    # ArgumentParser in its globals, which must stay the original class
    counting = types.ModuleType("argparse")
    counting.__dict__.update(vars(argparse), ArgumentParser=CountingParser)
    monkeypatch.setattr(cli_module, "argparse", counting)
    for argv, expected in [
        (("moments", "--poly", "x1", "--max-order", "2"), 0),
        (("verify", "--poly", "x1", "--max-order", "2"), 0),
        (("bench", "--poly", "x1", "--sweep", "2"), 0),
        (("verify", "--poly", "x1", "--max-order", "2", "--decimal"), 2),
    ]:
        built.clear()
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        capsys.readouterr()
        assert code == expected, argv
        assert built == [f"freemoments {argv[0]}"], (argv, built)


def test_help_and_usage_surface(capsys, monkeypatch):
    import freemoments.cli as cli_module

    monkeypatch.setenv("COLUMNS", "200")

    def exits(*argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        captured = capsys.readouterr()
        return exc.value.code, captured.out, captured.err

    code, out, _ = exits("--help")
    assert code == 0
    assert out.startswith("usage: freemoments [-h] {moments,verify,bench} ...\n")
    for name, (_, help_text, _) in cli_module._COMMANDS.items():
        assert f"{name} {help_text}" in " ".join(out.split()), name
    code, _, err = exits()
    assert code == 2
    assert "the following arguments are required: command" in err
    code, _, err = exits("ver")
    assert code == 2 and "invalid choice: 'ver'" in err
    code, out, _ = exits("verify", "--help")
    assert code == 0
    assert out.startswith("usage: freemoments verify [-h] --poly POLY")
    assert "--decimal" not in out and "--sweep" not in out

    # abbreviated and attached option values
    for argv in [
        ("verify", "--poly", "x1", "--max", "3", "--format", "csv"),
        ("verify", "--poly=x1", "--max-order", "3", "--format", "csv"),
    ]:
        code, out, err = run(capsys, *argv)
        assert code == 0, (argv, err)
        assert out.splitlines()[-1] == "3,0,0,1", argv

    # main() reads sys.argv[1:]
    monkeypatch.setattr(
        sys, "argv",
        ["freemoments", "moments", "--poly", "x1", "--max-order", "2", "--format", "csv"],
    )
    assert main() == 0
    assert capsys.readouterr().out.splitlines() == ["m,re,im", "1,0,0", "2,1,0"]


def test_parser_blowup_exit_4(capsys):
    import time

    for poly in ("x1^100000", "(x1+x2)^40"):
        start = time.perf_counter()
        code, _, err = run(capsys, "moments", "--poly", poly, "--max-order", "2")
        assert time.perf_counter() - start < 1.0, poly
        assert code == 4, poly
        assert "--expansion-cap" not in err, poly


def test_verify_refuses_order_past_cap_before_engine(capsys):
    import time

    start = time.perf_counter()
    code, _, err = run(
        capsys, "verify", "--poly", "x1 + x2", "--max-order", "100000"
    )
    assert time.perf_counter() - start < 1.0
    assert code == 4
    assert "naive expansion needs 2^100000 monomials" in err


def test_verify_pass(capsys):
    code, out, _ = run(
        capsys, "verify", "--poly", "x1*x2 + x2*x1", "--max-order", "6"
    )
    assert code == 0
    assert "PASS" in out

    code, out, _ = run(capsys, "verify", "--poly", "x1 + x2^2", "--max-order", "6")
    assert code == 0
    assert "PASS" in out


def test_verify_json(capsys):
    code, out, _ = run(
        capsys, "verify", "--poly", "x1^2", "--max-order", "5", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["mismatches"] == []


def test_verify_detects_injected_fault(capsys, monkeypatch):
    import freemoments.cli as cli_module

    real = cli_module.moments

    def faulty(poly, max_order):
        mv = real(poly, max_order)
        values = list(mv.values)
        values[2] = values[2] + Scalar(1)  # corrupt m = 3
        return MomentVector(
            tuple(values), mv.rep_dim, mv.n_vars, mv.degree, mv.n_terms
        )

    monkeypatch.setattr(cli_module, "moments", faulty)
    code, out, _ = run(capsys, "verify", "--poly", "x1^2", "--max-order", "4")
    assert code == 1
    assert "MISMATCH at m=3" in out
    assert "FAIL" in out


def test_verify_calls_the_oracle_once(capsys, monkeypatch):
    import freemoments.cli as cli_module

    calls = []
    real = cli_module.brute_moments

    def counted(p, max_order, expansion_cap):
        calls.append(max_order)
        return real(p, max_order, expansion_cap)

    def refused(*args):
        raise AssertionError("verify called brute_moment")

    monkeypatch.setattr(cli_module, "brute_moments", counted)
    monkeypatch.setattr(cli_module, "brute_moment", refused)
    for poly, max_order in (("2*x1*x2*x1 - x2 + 1", "8"), ("x1*x2 + x2*x1", "6")):
        calls.clear()
        code, out, _ = run(capsys, "verify", "--poly", poly, "--max-order", max_order)
        assert code == 0 and "PASS" in out, poly
        assert calls == [int(max_order)], poly


def test_values_past_the_int_str_digit_limit(capsys):
    # tau(((10^50 - 1) x1)^m) has more than 4300 digits from m = 86 on, past
    # the interpreter's default limit on str(int); the output is exact at
    # every length and the limit is back in place afterwards.  Decimal reads
    # the digits without that limit.
    c = 10**50 - 1
    poly = f"{c}*x1"
    expected = [c**m * catalan(m // 2) if m % 2 == 0 else 0 for m in range(1, 201)]
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    limit = get_limit() if get_limit else None

    def check(argv, rows):
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        if get_limit:
            assert get_limit() == limit
        max_order = int(argv[argv.index("--max-order") + 1])
        got = rows(out)
        assert [m for m, _ in got] == list(range(1, max_order + 1))
        for m, value in got:
            assert Decimal(value) == expected[m - 1], m
        return out

    def csv_rows(out):
        return [(int(line.split(",")[0]), line.split(",")[1]) for line in out.splitlines()[1:]]

    moments_argv = ("moments", "--poly", poly, "--max-order", "200")
    check(moments_argv + ("--format", "csv"), csv_rows)
    check(moments_argv + ("--format", "csv", "--decimal"), csv_rows)
    check(
        moments_argv + ("--format", "json"),
        lambda out: [(row["m"], row["re"]) for row in json.loads(out)["moments"]],
    )
    check(
        moments_argv,
        lambda out: [
            (int(line.split()[0][2:]), line.split()[1])
            for line in out.splitlines()
            if line.startswith("  m=")
        ],
    )
    out = check(("verify", "--poly", poly, "--max-order", "100", "--format", "csv"), csv_rows)
    assert all(line.endswith(",1") for line in out.splitlines()[1:])


def test_verify_cap_exit_4(capsys):
    code, _, err = run(
        capsys, "verify", "--poly", "x1*x2 + x2*x1", "--max-order", "8",
        "--expansion-cap", "10",
    )
    assert code == 4
    assert "expansion" in err
    assert err.splitlines()[-1] == (
        "hint: lower --max-order or raise --expansion-cap (or FREEMOMENTS_EXPANSION_CAP)"
    )


def test_pairing_cap_refusal_names_its_own_hint(capsys, monkeypatch):
    # the pairing counter's limit is fixed: no order or expansion cap lifts
    # it, so its hint names neither, and the exit code stays 4
    import random

    from freemoments import oracle

    rng = random.Random(5)
    text = "*".join(f"x{rng.randint(1, 2)}" for _ in range(40))
    monkeypatch.setattr(oracle, "PAIRING_STACK_CAP", 200)
    oracle._pairing_table.cache_clear()
    code, _, err = run(
        capsys, "verify", "--poly", text, "--n-vars", "2", "--max-order", "1",
        "--expansion-cap", str(10**9),
    )
    oracle._pairing_table.cache_clear()
    assert code == 4
    assert "word of length 40 " in err
    assert err.splitlines()[-1] == (
        "hint: the oracle's pairing limits are fixed; no --max-order or --expansion-cap lifts them"
    )


def test_expansion_cap_env(capsys, monkeypatch):
    monkeypatch.setenv("FREEMOMENTS_EXPANSION_CAP", "10")
    code, _, err = run(
        capsys, "verify", "--poly", "x1*x2 + x2*x1", "--max-order", "8"
    )
    assert code == 4
    # the flag wins over the environment
    monkeypatch.setenv("FREEMOMENTS_EXPANSION_CAP", "10")
    code, out, _ = run(
        capsys, "verify", "--poly", "x1*x2 + x2*x1", "--max-order", "6",
        "--expansion-cap", str(10**6),
    )
    assert code == 0


def test_bench_json_has_slope_and_cap_marks(capsys):
    code, out, _ = run(
        capsys, "bench", "--poly", "x1*x2 + x2*x1", "--sweep", "2,4,24",
        "--format", "json", "--expansion-cap", "1000",
    )
    assert code == 0
    doc = json.loads(out)
    assert "engine_slope" in doc
    assert len(doc["sweep"]) == 3
    assert doc["sweep"][0]["naive_capped"] is False
    assert doc["sweep"][2]["naive_capped"] is True  # 2^24 > 1000
    assert doc["sweep"][2]["naive_seconds"] is None


def test_bench_text(capsys):
    code, out, _ = run(
        capsys, "bench", "--poly", "x1", "--sweep", "2,4", "--expansion-cap", "100"
    )
    assert code == 0
    assert "engine log-log slope" in out


def test_bench_csv(capsys):
    code, out, _ = run(
        capsys, "bench", "--poly", "x1*x2 + x2*x1", "--sweep", "2,24",
        "--format", "csv", "--expansion-cap", "1000",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "M,engine_seconds,naive_seconds,naive_capped"
    assert re.fullmatch(r"2,\d+\.\d{6},\d+\.\d{6},0", lines[1]), lines[1]
    # 2^24 > 1000: the naive field is empty and the capped flag 1
    assert re.fullmatch(r"24,\d+\.\d{6},,1", lines[2]), lines[2]
    assert len(lines) == 3


def test_bench_bad_sweep(capsys):
    code, _, _ = run(capsys, "bench", "--poly", "x1", "--sweep", "2,oops")
    assert code == 2


def test_max_order_validation(capsys):
    code, _, _ = run(capsys, "moments", "--poly", "x1", "--max-order", "0")
    assert code == 2
    # an absurd M is a usage error, refused before any length-M allocation
    huge = str(10**20)
    for argv in [
        ("moments", "--poly", "x1", "--max-order", huge),
        ("moments", "--poly", "2", "--max-order", "10001"),
        ("verify", "--poly", "x1", "--max-order", huge),
        ("bench", "--poly", "x1", "--sweep", huge),
        ("bench", "--poly", "x1", "--sweep", "2,10001"),
    ]:
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert "between 1 and 10000" in err, argv


def test_verify_csv(capsys, monkeypatch):
    code, out, _ = run(
        capsys, "verify", "--poly", "x1", "--max-order", "4", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "m,engine,oracle,match"
    assert lines[2] == "2,1,1,1"

    import freemoments.cli as cli_module

    real = cli_module.brute_moments

    def stand_in(p, max_order, expansion_cap):
        values = real(p, max_order, expansion_cap)
        values[1] = Scalar(7)  # tau(s^2) is 1
        return values

    monkeypatch.setattr(cli_module, "brute_moments", stand_in)
    code, out, _ = run(
        capsys, "verify", "--poly", "x1", "--max-order", "3", "--format", "csv"
    )
    assert code == 1
    assert out.splitlines() == ["m,engine,oracle,match", "1,0,0,1", "2,1,7,0", "3,0,0,1"]


def test_internal_error_exit_3(capsys, monkeypatch):
    import freemoments.cli as cli_module

    def boom(poly, max_order):
        raise RuntimeError("induced failure")

    monkeypatch.setattr(cli_module, "moments", boom)
    code, _, err = run(capsys, "moments", "--poly", "x1", "--max-order", "2")
    assert code == 3
    assert "internal error" in err


def test_kernel_invariant_exit_3(capsys, monkeypatch):
    import freemoments.engine as engine_module

    def cyclic(terms):
        # a z^0 self-loop on the start state makes the fixed-point solve
        # diverge: one variable, two states, no grading
        return [{0: [(0, (1,))]}], 2, None

    monkeypatch.setattr(engine_module, "build_residual_rows", cyclic)
    code, _, err = run(capsys, "moments", "--poly", "x1", "--max-order", "2")
    assert code == 3
    assert "not nilpotent" in err


def test_nonzero_constant_at_start_exit_3(capsys, monkeypatch):
    import freemoments._kernel as kernel_module

    def constant(mats, dim, n_coeffs, modulus=0, grading=None):
        # every path out of the start state carries z, so z^0 must read 0
        return [1] + [0] * (n_coeffs - 1)

    monkeypatch.setattr(kernel_module, "solve", constant)
    code, out, err = run(capsys, "moments", "--poly", "x1", "--max-order", "2")
    assert code == 3
    assert out == ""
    assert err == (
        "internal error: iteration produced a nonzero constant term at entry "
        "(start, start)\n"
    )


def test_out_of_memory_exit_5(capsys, monkeypatch):
    import freemoments._kernel as kernel_module

    def exhausted(*args):
        raise MemoryError()

    monkeypatch.setattr(kernel_module, "solve", exhausted)
    code, out, err = run(capsys, "moments", "--poly", "x1^2", "--max-order", "7")
    assert code == 5
    assert out == ""
    assert err == "error: out of memory in moments at --max-order 7\n"


def test_empty_internal_error_names_its_class(capsys, monkeypatch):
    import freemoments._kernel as kernel_module

    def failing(*args):
        raise RuntimeError()

    monkeypatch.setattr(kernel_module, "solve", failing)
    code, _, err = run(capsys, "moments", "--poly", "x1^2", "--max-order", "2")
    assert code == 3
    assert err == "internal error: RuntimeError\n"


def test_wrong_grading_exit_3(capsys, monkeypatch):
    import freemoments.engine as engine_module

    build = engine_module.build_residual_rows

    def wrong(terms):
        # a grading with every phase and weight 0 claims that every entry
        # sits at an even z-degree, but the start state's edges carry z
        mats, dim, _ = build(terms)
        return mats, dim, ([0] * dim, [0] * len(mats), 2)

    monkeypatch.setattr(engine_module, "build_residual_rows", wrong)
    # x1*x2 + x2*x1 has a grading, just not this one; x1^2 has none at all
    for poly in ("x1*x2 + x2*x1", "x1^2"):
        code, out, err = run(
            capsys, "moments", "--poly", poly, "--n-vars", "2", "--max-order", "4"
        )
        assert code == 3, poly
        assert out == ""
        assert "grading" in err, poly


def test_norm_bound_violation_exit_3(capsys, monkeypatch):
    import freemoments._kernel as kernel_module

    def out_of_bound(mats, dim, n_coeffs, modulus=0, grading=None):
        # |tau(s^2)| <= ||s||^2 = 4, but order 2 reads 5
        return [0, 0, 5] + [0] * (n_coeffs - 3)

    monkeypatch.setattr(kernel_module, "solve", out_of_bound)
    code, out, err = run(capsys, "moments", "--poly", "x1", "--max-order", "3")
    assert code == 3
    assert out == ""
    assert "order 2" in err and "norm bound" in err
    # the same guard catches a wrong decode of a complex weight: order 1
    # reads r + 3, i.e. tau = 3 + i where |tau(i*s)| <= 2 allows no real part
    def off_by_three(mats, dim, n_coeffs, modulus=0, grading=None):
        r = math.isqrt(modulus - 1)
        return [0, r + 3] + [0] * (n_coeffs - 2)

    monkeypatch.setattr(kernel_module, "solve", off_by_three)
    code, _, err = run(capsys, "moments", "--poly", "i*x1", "--max-order", "2")
    assert code == 3
    assert "order 1" in err and "norm bound" in err


def test_self_adjoint_moment_not_real_exit_3(capsys, monkeypatch):
    import freemoments._kernel as kernel_module

    def imaginary(mats, dim, n_coeffs, modulus=0, grading=None):
        # i*x1*x2 - i*x2*x1 is self-adjoint; order 2 reads tau = i
        r = math.isqrt(modulus - 1)
        return [0, 0, r] + [0] * (n_coeffs - 3)

    monkeypatch.setattr(kernel_module, "solve", imaginary)
    code, _, err = run(
        capsys, "moments", "--poly", "i*x1*x2 - i*x2*x1", "--n-vars", "2",
        "--max-order", "3",
    )
    assert code == 3
    assert "order 2" in err and "not real" in err


def test_keyboard_interrupt_exit_130(capsys, monkeypatch):
    import freemoments.cli as cli_module

    def interrupted(poly, max_order):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli_module, "moments", interrupted)
    code, out, err = run(capsys, "moments", "--poly", "x1", "--max-order", "2")
    assert code == 130
    assert out == ""
    assert err == "interrupted\n"
