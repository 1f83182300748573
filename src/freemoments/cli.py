"""Command-line interface.

Three subcommands:

* ``moments`` - run the engine and print tau(p(s)^m) for m = 1..M;
* ``verify``  - compute the same moments with the exponential expansion
  oracle and diff the two, exiting nonzero on any mismatch;
* ``bench``   - time the engine against the naive expansion over a sweep of
  orders and report the fitted log-log slope (informational only).

Values are always printed as exact fractions; ``--decimal`` adds a floating
approximation alongside (never instead).  Exit codes: 0 success, 1 verify
mismatch, 2 parse or usage error, 3 internal error, 4 size cap exceeded (the
oracle's expansion cap or the parser's fixed limits), 130 interrupted
(Ctrl-C).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .engine import MAX_ORDER, moments
from .errors import CapExceededError, ParseCapExceededError, PolyParseError, UsageError
from .ncpoly import NCPolynomial, infer_variable_count, parse_polynomial
from .oracle import (
    CUMULANT_CAP,
    DEFAULT_EXPANSION_CAP,
    brute_moment,
    check_expansion_cap,
    free_cumulants,
)
from .scalar import Scalar

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_PARSE = 2
EXIT_INTERNAL = 3
EXIT_CAP = 4
EXIT_INTERRUPTED = 130

ENV_EXPANSION_CAP = "FREEMOMENTS_EXPANSION_CAP"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freemoments",
        description=(
            "Exact moments of noncommutative polynomials evaluated at free "
            "independent standard semicircular elements."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--poly",
        required=True,
        help="polynomial in variables x1..xn, e.g. 'x1^3 - 3*x1'",
    )
    common.add_argument(
        "--n-vars",
        type=int,
        default=None,
        help="ambient variable count (default: highest index appearing)",
    )
    common.add_argument(
        "--format",
        choices=("text", "json", "csv"),
        default="text",
        help="output format (default: text)",
    )
    common.add_argument(
        "--decimal",
        action="store_true",
        help="also print decimal approximations next to exact values",
    )
    common.add_argument(
        "--expansion-cap",
        type=int,
        default=None,
        help=(
            "max term count for the naive oracle expansion "
            f"(default {DEFAULT_EXPANSION_CAP}; env {ENV_EXPANSION_CAP})"
        ),
    )

    p_moments = sub.add_parser(
        "moments", parents=[common], help="compute moments with the engine"
    )
    p_moments.add_argument(
        "--max-order", type=int, required=True, help="highest moment order M"
    )

    p_verify = sub.add_parser(
        "verify",
        parents=[common],
        help="check the engine against the brute-force oracle",
    )
    p_verify.add_argument(
        "--max-order", type=int, required=True, help="highest moment order M"
    )

    p_bench = sub.add_parser(
        "bench",
        parents=[common],
        help="time the engine vs the naive expansion over a sweep of orders",
    )
    p_bench.add_argument(
        "--sweep",
        default="8,16,32",
        help="comma-separated list of orders (default: 8,16,32)",
    )
    return parser


def _expansion_cap(args) -> int:
    if args.expansion_cap is not None:
        cap, source = args.expansion_cap, "--expansion-cap"
    else:
        env = os.environ.get(ENV_EXPANSION_CAP)
        if env is None:
            return DEFAULT_EXPANSION_CAP
        try:
            cap, source = int(env), ENV_EXPANSION_CAP
        except ValueError:
            raise UsageError(f"{ENV_EXPANSION_CAP} must be an integer, got {env!r}")
    if cap < 1:
        raise UsageError(f"{source} must be at least 1, got {cap}")
    return cap


def _load_polynomial(args) -> tuple[NCPolynomial, List[str]]:
    n_vars = args.n_vars if args.n_vars is not None else infer_variable_count(args.poly)
    if n_vars < 1:
        raise UsageError("--n-vars must be positive")
    poly = parse_polynomial(args.poly, n_vars)
    warnings = []
    if not poly.is_self_adjoint():
        warnings.append(
            "polynomial is not self-adjoint; moments may have nonzero "
            "imaginary part"
        )
    return poly, warnings


def _check_max_order(args) -> None:
    if not 1 <= args.max_order <= MAX_ORDER:
        raise UsageError(
            f"--max-order must be between 1 and {MAX_ORDER}, got {args.max_order}"
        )


def _approx(x: Fraction) -> float:
    """float(x), for display only; inf or -inf outside float range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _text_approx(value: Scalar) -> str:
    re = _approx(value.re)
    return f"  ~ {complex(re, _approx(value.im)) if value.im else re}"


def _cmd_moments(args, out) -> int:
    poly, warnings = _load_polynomial(args)
    _check_max_order(args)
    mv = moments(poly, args.max_order)

    if args.format == "json":
        rows = []
        for m, value in enumerate(mv.values, start=1):
            row = {"m": m, "re": str(value.re), "im": str(value.im)}
            if args.decimal:
                for key, x in (("re_approx", value.re), ("im_approx", value.im)):
                    approx = _approx(x)
                    # JSON has no infinity
                    row[key] = approx if math.isfinite(approx) else None
            rows.append(row)
        doc = {
            "poly": str(poly),
            "n_vars": poly.n_vars,
            "M": mv.max_order,
            "N": mv.rep_dim,
            "moments": rows,
            "warnings": warnings,
        }
        print(json.dumps(doc), file=out)
        return EXIT_OK

    if args.format == "csv":
        header = "m,re,im"
        if args.decimal:
            header += ",re_approx,im_approx"
        print(header, file=out)
        for m, value in enumerate(mv.values, start=1):
            line = f"{m},{value.re},{value.im}"
            if args.decimal:
                line += f",{_approx(value.re)!r},{_approx(value.im)!r}"
            print(line, file=out)
        return EXIT_OK

    print(f"poly: {poly}", file=out)
    print(
        f"n_vars: {poly.n_vars}  M: {mv.max_order}  N: {mv.rep_dim}  "
        f"deg: {mv.degree}  terms: {mv.n_terms}",
        file=out,
    )
    for warning in warnings:
        print(f"warning: {warning}", file=out)
    print("moments:", file=out)
    for m, value in enumerate(mv.values, start=1):
        line = f"  m={m}  {value}"
        if args.decimal:
            line += _text_approx(value)
        print(line, file=out)
    k_max = min(mv.max_order, CUMULANT_CAP)
    kappas = free_cumulants(mv.values[:k_max])
    print(f"free cumulants (orders 1..{k_max}):", file=out)
    for k, value in enumerate(kappas, start=1):
        line = f"  k={k}  {value}"
        if args.decimal:
            line += _text_approx(value)
        print(line, file=out)
    return EXIT_OK


def _cmd_verify(args, out) -> int:
    poly, warnings = _load_polynomial(args)
    cap = _expansion_cap(args)
    # (m_p)^m grows with m: an M past the cap exits 4 before the order check
    # and the engine (check_expansion_cap never refuses M < 1)
    check_expansion_cap(poly, args.max_order, cap)
    _check_max_order(args)
    mv = moments(poly, args.max_order)
    mismatches = []
    for m in range(1, args.max_order + 1):
        oracle_value = brute_moment(poly, m, cap)
        if mv.value(m) != oracle_value:
            mismatches.append((m, mv.value(m), oracle_value))

    if args.format == "json":
        doc = {
            "poly": str(poly),
            "n_vars": poly.n_vars,
            "M": args.max_order,
            "ok": not mismatches,
            "mismatches": [
                {"m": m, "engine": str(e), "oracle": str(o)}
                for m, e, o in mismatches
            ],
            "warnings": warnings,
        }
        print(json.dumps(doc), file=out)
    elif args.format == "csv":
        print("m,engine,oracle,match", file=out)
        oracle_values = {m: o for m, _, o in mismatches}
        for m in range(1, args.max_order + 1):
            engine_value = mv.value(m)
            if m in oracle_values:
                print(f"{m},{engine_value},{oracle_values[m]},0", file=out)
            else:
                print(f"{m},{engine_value},{engine_value},1", file=out)
    else:
        print(f"poly: {poly}", file=out)
        for warning in warnings:
            print(f"warning: {warning}", file=out)
        if mismatches:
            for m, engine_value, oracle_value in mismatches:
                print(
                    f"MISMATCH at m={m}: engine={engine_value} "
                    f"oracle={oracle_value}",
                    file=out,
                )
            print(f"FAIL ({len(mismatches)} of {args.max_order} orders differ)", file=out)
        else:
            print(f"PASS (orders 1..{args.max_order} agree exactly)", file=out)
    return EXIT_OK if not mismatches else EXIT_MISMATCH


@dataclass(frozen=True)
class BenchRow:
    max_order: int
    engine_seconds: float
    naive_seconds: Optional[float]   # None when the naive run was refused
    naive_capped: bool


@dataclass(frozen=True)
class BenchReport:
    rows: Tuple[BenchRow, ...]
    engine_slope: Optional[float] = None


def complexity_probe(
    p: NCPolynomial,
    orders: Sequence[int],
    expansion_cap: int = 10**6,
    include_naive: bool = True,
) -> BenchReport:
    """Wall-clock engine timings over a sweep of orders, with the naive
    expansion timed alongside until it hits the term cap.

    The naive column times the single highest moment (what the expansion
    method would compute); the engine column times all orders up to M.  The
    log-log slope of the engine timings is reported, never asserted: bigint
    coefficient growth makes wall-clock exponents machine-dependent.
    """
    rows = []
    for m in orders:
        start = time.perf_counter()
        moments(p, m)
        engine_seconds = time.perf_counter() - start
        naive_seconds = None
        naive_capped = False
        if include_naive:
            try:
                start = time.perf_counter()
                brute_moment(p, m, expansion_cap)
                naive_seconds = time.perf_counter() - start
            except CapExceededError:
                naive_capped = True
        rows.append(BenchRow(m, engine_seconds, naive_seconds, naive_capped))

    slope = None
    pts = [
        (math.log(r.max_order), math.log(max(r.engine_seconds, 1e-9)))
        for r in rows
    ]
    if len(pts) >= 2:
        xbar = sum(x for x, _ in pts) / len(pts)
        ybar = sum(y for _, y in pts) / len(pts)
        den = sum((x - xbar) ** 2 for x, _ in pts)
        if den > 0:
            slope = sum((x - xbar) * (y - ybar) for x, y in pts) / den
    return BenchReport(tuple(rows), slope)


def _cmd_bench(args, out) -> int:
    poly, warnings = _load_polynomial(args)
    try:
        orders = [int(s) for s in args.sweep.split(",") if s.strip()]
    except ValueError:
        raise UsageError(f"--sweep must be comma-separated integers, got {args.sweep!r}")
    if not orders or any(not 1 <= m <= MAX_ORDER for m in orders):
        raise UsageError(
            f"--sweep orders must be between 1 and {MAX_ORDER}, got {args.sweep!r}"
        )
    cap = _expansion_cap(args)
    report = complexity_probe(poly, orders, cap)

    if args.format == "json":
        doc = {
            "poly": str(poly),
            "n_vars": poly.n_vars,
            "sweep": [
                {
                    "M": row.max_order,
                    "engine_seconds": row.engine_seconds,
                    "naive_seconds": row.naive_seconds,
                    "naive_capped": row.naive_capped,
                }
                for row in report.rows
            ],
            "engine_slope": report.engine_slope,
            "warnings": warnings,
        }
        print(json.dumps(doc), file=out)
    elif args.format == "csv":
        print("M,engine_seconds,naive_seconds,naive_capped", file=out)
        for row in report.rows:
            naive = "" if row.naive_seconds is None else f"{row.naive_seconds:.6f}"
            print(
                f"{row.max_order},{row.engine_seconds:.6f},{naive},"
                f"{int(row.naive_capped)}",
                file=out,
            )
    else:
        print(f"poly: {poly}", file=out)
        print(f"{'M':>6}  {'engine (s)':>12}  {'naive (s)':>12}", file=out)
        for row in report.rows:
            if row.naive_capped:
                naive = "capped"
            elif row.naive_seconds is None:
                naive = "-"
            else:
                naive = f"{row.naive_seconds:.4f}"
            print(f"{row.max_order:>6}  {row.engine_seconds:>12.4f}  {naive:>12}", file=out)
        if report.engine_slope is not None:
            print(f"engine log-log slope: {report.engine_slope:.2f}", file=out)
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    out = sys.stdout
    try:
        if args.command == "moments":
            return _cmd_moments(args, out)
        if args.command == "verify":
            return _cmd_verify(args, out)
        return _cmd_bench(args, out)
    except (PolyParseError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ParseCapExceededError as exc:
        print(f"error: {exc}\nhint: these parser limits are fixed; write a smaller expression", file=sys.stderr)
        return EXIT_CAP
    except CapExceededError as exc:
        print(
            f"error: {exc}\nhint: lower --max-order or raise --expansion-cap "
            f"(or {ENV_EXPANSION_CAP})",
            file=sys.stderr,
        )
        return EXIT_CAP
    except Exception as exc:  # invariant violations and everything unexpected
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
