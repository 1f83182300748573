import json
import math
import os
import subprocess
import sys

import freemoments
from freemoments import Scalar
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
    # a fresh process: the paper's reference route loads only when one of its
    # names is asked for
    code = (
        "import sys\n"
        "import freemoments, freemoments.cli\n"
        "rc = freemoments.cli.main(['moments', '--poly', 'x1*x2 + x2*x1',"
        " '--max-order', '4', '--format', 'json'])\n"
        "assert rc == 0, rc\n"
        "assert 'freemoments.reference' not in sys.modules\n"
        "from freemoments import *\n"
        "missing = [n for n in freemoments.__all__ if n not in globals()]\n"
        "assert not missing, missing\n"
        "assert freemoments.ZPoly is freemoments.reference.ZPoly\n"
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


def test_verify_cap_exit_4(capsys):
    code, _, err = run(
        capsys, "verify", "--poly", "x1*x2 + x2*x1", "--max-order", "8",
        "--expansion-cap", "10",
    )
    assert code == 4
    assert "expansion" in err


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


def test_verify_csv(capsys):
    code, out, _ = run(
        capsys, "verify", "--poly", "x1", "--max-order", "4", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "m,engine,oracle,match"
    assert lines[2] == "2,1,1,1"


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

    def cyclic(q):
        # a z^0 self-loop on the start state makes the fixed-point solve
        # diverge: one variable, two states
        return [{0: [(0, (1,))]}], 2

    monkeypatch.setattr(engine_module, "build_trie_rows", cyclic)
    code, _, err = run(capsys, "moments", "--poly", "x1", "--max-order", "2")
    assert code == 3
    assert "not nilpotent" in err


def test_norm_bound_violation_exit_3(capsys, monkeypatch):
    import freemoments._kernel as kernel_module

    def out_of_bound(mats, dim, n_coeffs, modulus=0):
        # |tau(s^2)| <= ||s||^2 = 4, but order 2 reads 5
        start = dim - 1
        return {start: {start: [0, 0, 5] + [0] * (n_coeffs - 3)}}

    monkeypatch.setattr(kernel_module, "solve", out_of_bound)
    code, out, err = run(capsys, "moments", "--poly", "x1", "--max-order", "3")
    assert code == 3
    assert out == ""
    assert "order 2" in err and "norm bound" in err
    # the same guard catches a wrong decode of a complex weight: order 1
    # reads r + 3, i.e. tau = 3 + i where |tau(i*s)| <= 2 allows no real part
    def off_by_three(mats, dim, n_coeffs, modulus=0):
        r = math.isqrt(modulus - 1)
        start = dim - 1
        return {start: {start: [0, r + 3] + [0] * (n_coeffs - 2)}}

    monkeypatch.setattr(kernel_module, "solve", off_by_three)
    code, _, err = run(capsys, "moments", "--poly", "i*x1", "--max-order", "2")
    assert code == 3
    assert "order 1" in err and "norm bound" in err


def test_self_adjoint_moment_not_real_exit_3(capsys, monkeypatch):
    import freemoments._kernel as kernel_module

    def imaginary(mats, dim, n_coeffs, modulus=0):
        # i*x1*x2 - i*x2*x1 is self-adjoint; order 2 reads tau = i
        r = math.isqrt(modulus - 1)
        start = dim - 1
        return {start: {start: [0, 0, r] + [0] * (n_coeffs - 3)}}

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
