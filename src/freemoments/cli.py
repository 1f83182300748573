"""Command-line interface.

Three subcommands:

* ``moments`` - run the engine and print tau(p(s)^m) for m = 1..M;
* ``verify``  - compute the same moments with the exponential expansion
  oracle, all orders from one ``brute_moments`` call, and diff the two,
  exiting nonzero on any mismatch;
* ``bench``   - time the engine against the brute-force oracle
  (``brute_moment``, the naive column) over a sweep of orders and report the
  fitted log-log slope (informational only).

The oracle splits p's constant off by the binomial theorem, but its
``--expansion-cap`` still counts p's terms, the constant included.

Each subcommand takes only the flags it reads; ``_COMMANDS`` lists them.
A call builds only the parser of the subcommand its argv names, and builds
the top-level parser only for help or for an argv that names no subcommand.
Values are always printed as exact fractions, at any length (the
interpreter's ``str(int)`` digit limit is lifted while output is
formatted); ``moments --decimal`` adds a floating approximation alongside
(never instead).  Exit codes: 0 success, 1 verify mismatch, 2 parse or
usage error (an option the subcommand does not take included, reported
with that subcommand's usage), 3 internal error,
4 size cap exceeded (the oracle's expansion cap, the oracle's fixed
pairing limits or the parser's fixed limits), 5 out of memory (the
message names the subcommand and its ``--max-order``, or ``--sweep`` for
``bench``), 130 interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import time
from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .engine import MAX_ORDER, moments
from .errors import (
    CapExceededError,
    PairingCapExceededError,
    ParseCapExceededError,
    PolyParseError,
    UsageError,
)
from .ncpoly import NCPolynomial, infer_variable_count, parse_polynomial
from .oracle import (
    CUMULANT_CAP,
    DEFAULT_EXPANSION_CAP,
    brute_moment,
    brute_moments,
    check_expansion_cap,
    free_cumulants,
)
from .scalar import Scalar

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_PARSE = 2
EXIT_INTERNAL = 3
EXIT_CAP = 4
EXIT_MEMORY = 5
EXIT_INTERRUPTED = 130

ENV_EXPANSION_CAP = "FREEMOMENTS_EXPANSION_CAP"


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


def _check_orders(flag: str, orders: Sequence[int], given) -> None:
    """Refuse an empty order list or any order outside 1..MAX_ORDER."""
    if not orders or not all(1 <= m <= MAX_ORDER for m in orders):
        raise UsageError(f"{flag} must be between 1 and {MAX_ORDER}, got {given!r}")


def _approx(x: Fraction) -> float:
    """float(x), for display only; inf or -inf outside float range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _text_approx(value: Scalar) -> str:
    re = _approx(value.re)
    return f"  ~ {complex(re, _approx(value.im)) if value.im else re}"


@contextlib.contextmanager
def _unlimited_int_str():
    """Lift the interpreter's limit on ``str(int)`` digits while output is
    formatted, and restore it afterwards.

    The limit (Python 3.11+ and 3.10.7+; older versions have none) guards
    the conversion of untrusted text, but the values printed are the
    program's own exact results: tau(((10^50 - 1)*x1)^m) has more than 4300
    digits from m = 86 on.  The parser keeps its own ``MAX_DIGITS`` refusal.
    """
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:
        yield
        return
    limit = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _cmd_moments(args, out) -> int:
    poly, warnings = _load_polynomial(args)
    _check_orders("--max-order", [args.max_order], args.max_order)
    mv = moments(poly, args.max_order)
    with _unlimited_int_str():
        _print_moments(args, poly, warnings, mv, out)
    return EXIT_OK


def _print_moments(args, poly, warnings, mv, out) -> None:
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
        return

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
        return

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


def _cmd_verify(args, out) -> int:
    poly, warnings = _load_polynomial(args)
    cap = _expansion_cap(args)
    # (m_p)^m grows with m: an M past the cap exits 4 before the order check
    # and the engine (check_expansion_cap never refuses M < 1)
    check_expansion_cap(poly, args.max_order, cap)
    _check_orders("--max-order", [args.max_order], args.max_order)
    mv = moments(poly, args.max_order)
    oracle_values = brute_moments(poly, args.max_order, cap)
    mismatches = [
        (m, engine_value, oracle_value)
        for m, (engine_value, oracle_value) in enumerate(
            zip(mv.values, oracle_values), start=1
        )
        if engine_value != oracle_value
    ]
    with _unlimited_int_str():
        _print_verify(args, poly, warnings, mv, mismatches, out)
    return EXIT_OK if not mismatches else EXIT_MISMATCH


def _print_verify(args, poly, warnings, mv, mismatches, out) -> None:
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


class BenchRow(NamedTuple):
    max_order: int
    engine_seconds: float
    naive_seconds: Optional[float]   # None when the naive run was refused
    naive_capped: bool


class BenchReport(NamedTuple):
    rows: Tuple[BenchRow, ...]
    engine_slope: Optional[float] = None


def complexity_probe(
    p: NCPolynomial,
    orders: Sequence[int],
    expansion_cap: int = DEFAULT_EXPANSION_CAP,
) -> BenchReport:
    """Wall-clock engine timings over a sweep of orders, with the naive
    oracle timed alongside until it hits the term cap.

    The naive column times ``brute_moment`` on the single highest moment,
    refused once the m-th power has more term sequences than the cap; the
    engine column times all orders up to M.  The log-log slope of the engine
    timings is reported, never asserted: bigint coefficient growth makes
    wall-clock exponents machine-dependent.
    """
    rows = []
    for m in orders:
        start = time.perf_counter()
        moments(p, m)
        engine_seconds = time.perf_counter() - start
        naive_seconds = None
        naive_capped = False
        try:
            start = time.perf_counter()
            brute_moment(p, m, expansion_cap)
            naive_seconds = time.perf_counter() - start
        except CapExceededError:
            naive_capped = True
        rows.append(BenchRow(m, engine_seconds, naive_seconds, naive_capped))

    slope = None
    if len({r.max_order for r in rows}) >= 2:
        import statistics  # only bench fits a slope

        slope = statistics.linear_regression(
            [math.log(r.max_order) for r in rows],
            [math.log(max(r.engine_seconds, 1e-9)) for r in rows],
        ).slope
    return BenchReport(tuple(rows), slope)


def _cmd_bench(args, out) -> int:
    poly, warnings = _load_polynomial(args)
    try:
        orders = [int(s) for s in args.sweep.split(",") if s.strip()]
    except ValueError:
        raise UsageError(f"--sweep must be comma-separated integers, got {args.sweep!r}")
    _check_orders("--sweep orders", orders, args.sweep)
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
            naive = "capped" if row.naive_capped else f"{row.naive_seconds:.4f}"
            print(f"{row.max_order:>6}  {row.engine_seconds:>12.4f}  {naive:>12}", file=out)
        if report.engine_slope is not None:
            print(f"engine log-log slope: {report.engine_slope:.2f}", file=out)
    return EXIT_OK


# Every flag's argparse spec, given once.
_OPTIONS = {
    "--poly": dict(
        required=True, help="polynomial in variables x1..xn, e.g. 'x1^3 - 3*x1'"
    ),
    "--n-vars": dict(
        type=int,
        default=None,
        help="ambient variable count (default: highest index appearing)",
    ),
    "--format": dict(
        choices=("text", "json", "csv"),
        default="text",
        help="output format (default: text)",
    ),
    "--decimal": dict(
        action="store_true",
        help="also print decimal approximations next to exact values",
    ),
    "--expansion-cap": dict(
        type=int,
        default=None,
        help=(
            "max term count for the naive oracle expansion "
            f"(default {DEFAULT_EXPANSION_CAP}; env {ENV_EXPANSION_CAP})"
        ),
    ),
    "--max-order": dict(type=int, required=True, help="highest moment order M"),
    "--sweep": dict(
        default="8,16,32", help="comma-separated list of orders (default: 8,16,32)"
    ),
}

# Each subcommand: its handler, its help line and the flags it reads.  This is
# the only place that says which flag a subcommand takes; any other flag is a
# usage error (exit 2).
_COMMANDS = {
    "moments": (
        _cmd_moments,
        "compute moments with the engine",
        ("--poly", "--n-vars", "--format", "--decimal", "--max-order"),
    ),
    "verify": (
        _cmd_verify,
        "check the engine against the brute-force oracle",
        ("--poly", "--n-vars", "--format", "--expansion-cap", "--max-order"),
    ),
    "bench": (
        _cmd_bench,
        "time the engine vs the naive expansion over a sweep of orders",
        ("--poly", "--n-vars", "--format", "--expansion-cap", "--sweep"),
    ),
}


def _top_parser() -> argparse.ArgumentParser:
    """The subcommands' names and help lines, without their flags."""
    parser = argparse.ArgumentParser(
        prog="freemoments",
        description=(
            "Exact moments of noncommutative polynomials evaluated at free "
            "independent standard semicircular elements."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, _) in _COMMANDS.items():
        sub.add_parser(name, help=help_text)
    return parser


def _command_parser(name: str) -> argparse.ArgumentParser:
    """Subcommand ``name``'s parser, with the flags it takes."""
    parser = argparse.ArgumentParser(prog=f"freemoments {name}")
    for flag in _COMMANDS[name][2]:
        parser.add_argument(flag, **_OPTIONS[flag])
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv or argv[0] not in _COMMANDS:
        # help or a usage error, which exit; a parse that returns has read a
        # subcommand with no flags, which its own parser then reports
        argv = [_top_parser().parse_args(argv).command]
    args = _command_parser(argv[0]).parse_args(argv[1:])
    args.command = argv[0]
    handler = _COMMANDS[args.command][0]
    try:
        return handler(args, sys.stdout)
    except (PolyParseError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ParseCapExceededError as exc:
        print(f"error: {exc}\nhint: these parser limits are fixed; write a smaller expression", file=sys.stderr)
        return EXIT_CAP
    except PairingCapExceededError as exc:
        print(
            f"error: {exc}\nhint: the oracle's pairing limits are fixed; "
            f"no --max-order or --expansion-cap lifts them",
            file=sys.stderr,
        )
        return EXIT_CAP
    except CapExceededError as exc:
        print(
            f"error: {exc}\nhint: lower --max-order or raise --expansion-cap "
            f"(or {ENV_EXPANSION_CAP})",
            file=sys.stderr,
        )
        return EXIT_CAP
    except MemoryError:
        # str(MemoryError()) is usually empty: name the job that ran out
        orders = (
            f"--max-order {args.max_order}" if args.command != "bench"
            else f"--sweep {args.sweep}"
        )
        print(f"error: out of memory in {args.command} at {orders}", file=sys.stderr)
        return EXIT_MEMORY
    except Exception as exc:  # invariant violations and everything unexpected
        print(f"internal error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_INTERNAL
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
