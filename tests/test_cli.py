import json

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
        "N": 4,
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
        # diverge: one variable, two states, block width 1
        return [{0: [(0, (1,))]}], 2, 1

    monkeypatch.setattr(engine_module, "build_trie_rows", cyclic)
    code, _, err = run(capsys, "moments", "--poly", "x1", "--max-order", "2")
    assert code == 3
    assert "not nilpotent" in err


def test_keyboard_interrupt_exit_130(capsys, monkeypatch):
    import freemoments.cli as cli_module

    def interrupted(poly, max_order):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli_module, "moments", interrupted)
    code, out, err = run(capsys, "moments", "--poly", "x1", "--max-order", "2")
    assert code == 130
    assert out == ""
    assert err == "interrupted\n"
