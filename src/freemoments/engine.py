"""The end-to-end moment pipeline.

Given a noncommutative polynomial p and a target order M, the engine

1. splits p = c + q with q constant-free;
2. encodes (z*q)* as a linear representation (after clearing denominators,
   so the hot loop runs on integer coefficients);
3. reads the representation matrices into sparse rows over C[z]/(z^(M+1)),
   realizing the substitution X_i -> 1 at the matrix level;
4. solves P = sum_i (mu_i (P + I))^2 one order at a time, each order until a
   pass leaves it unchanged (at most N + 1 passes, else an internal error);
   the z^m coefficient of entry (1, N) is then tau(q(s)^m) for every m <= M;
5. recovers tau(p(s)^m) by the binomial theorem in c.

``reduce_rep`` and ``iterate_system`` are the paper's route through dense
truncated matrices and T = deg(q)*M full sweeps.  ``moments`` does not use
them; they stay as the reference that the stabilization checks run.

Everything is exact; the returned moments are Scalars.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from . import _kernel
from .linrep import LinearRepresentation, build_zq_star
from .ncpoly import NCPolynomial, split_constant
from .scalar import ONE, Scalar
from .series import TruncatedSeries, ZPoly

ReducedMats = List[List[List[TruncatedSeries]]]


@dataclass(frozen=True)
class MomentVector:
    """Moments tau(p(s)^m) for m = 1..M plus a few size statistics."""

    values: Tuple[Scalar, ...]
    rep_dim: int        # N, or 0 when p was constant and no encoding was built
    iterations: int     # single-order passes of the fixed-point solve
    n_vars: int
    degree: int
    n_terms: int

    @property
    def max_order(self) -> int:
        return len(self.values)

    def value(self, m: int) -> Scalar:
        """tau(p(s)^m) for 1 <= m <= M."""
        if m < 1:
            raise IndexError(f"moment order {m} outside 1..{self.max_order}")
        return self.values[m - 1]


def reduce_rep(rep: LinearRepresentation, truncation_order: int) -> ReducedMats:
    """Entrywise image of the representation in C[z]/(z^(M+1))."""
    return [
        [[entry.truncate(truncation_order) for entry in row] for row in mat]
        for mat in rep.mats
    ]


def _sparse_rows(mats, n_coeffs: int):
    """Matrices of ZPoly or TruncatedSeries entries as kernel input.

    Returns the per-variable sparse rows with coefficients truncated at z^M
    and converted to the cheapest ring, plus that ring's name and zero.
    """
    kind = _kernel.classify(
        c for mat in mats for row in mat for entry in row for c in entry.coeffs
    )
    sparse = []
    for mat in mats:
        rows = {}
        for j, row in enumerate(mat):
            entries = []
            for t, entry in enumerate(row):
                coeffs = ZPoly(entry.coeffs[:n_coeffs]).coeffs
                if coeffs:
                    entries.append(
                        (t, tuple(_kernel.scalar_to_ring(c, kind) for c in coeffs))
                    )
            if entries:
                rows[j] = entries
        sparse.append(rows)
    return sparse, kind, _kernel.scalar_to_ring(Scalar(0), kind)


def _to_scalars(raw: list, kind: str) -> List[Scalar]:
    """Kernel output back to Scalars, checking the constant term."""
    if raw[0]:
        # every path out of state 1 carries at least one factor of z
        raise AssertionError(
            "iteration produced a nonzero constant term at entry (1, N)"
        )
    return [_kernel.ring_to_scalar(v, kind) for v in raw]


def iterate_system(
    mats: ReducedMats, dim: int, truncation_order: int, iterations: int
) -> TruncatedSeries:
    """Iterate P <- sum_i (mu_i (P + I))^2 from P = 0; entry (1, N) of P^T.

    The z^m coefficient of the result equals tau(q(s_1,...,s_n)^m) for
    1 <= m <= M whenever ``iterations`` >= deg(q)*M.
    """
    if iterations < 1:
        raise ValueError("iteration count must be at least 1")
    n_coeffs = truncation_order + 1
    sparse, kind, zero = _sparse_rows(mats, n_coeffs)
    raw = _kernel.iterate(sparse, dim, n_coeffs, iterations, zero)
    return TruncatedSeries(_to_scalars(raw, kind), truncation_order)


def moments(p: NCPolynomial, max_order: int) -> MomentVector:
    """All moments tau(p(s_1,...,s_n)^m) for m = 1..max_order, exactly."""
    if max_order < 1:
        raise ValueError("max_order must be at least 1")
    c, q = split_constant(p)
    if q.is_zero():
        values = tuple(c ** m for m in range(1, max_order + 1))
        return MomentVector(values, 0, 0, p.n_vars, p.degree, p.n_terms)

    # clear denominators so the solve runs on (Gaussian) integers;
    # tau(q^m) = tau((lam*q)^m) / lam^m undoes the scaling exactly
    lam = math.lcm(
        *(
            d
            for _, coeff in q.terms()
            for d in (coeff.re.denominator, coeff.im.denominator)
        )
    )
    rep = build_zq_star(q.scale(lam) if lam != 1 else q)
    sparse, kind, zero = _sparse_rows(rep.mats, max_order + 1)
    raw, passes = _kernel.solve(sparse, rep.dim, max_order + 1, zero)
    series = _to_scalars(raw, kind)

    tau_q = [ONE] + [series[m] / Scalar(lam**m) for m in range(1, max_order + 1)]

    values = []
    for m in range(1, max_order + 1):
        if c:
            acc = tau_q[m]
            c_pow = ONE
            for k in range(1, m + 1):
                c_pow = c_pow * c
                acc = acc + Scalar(math.comb(m, k)) * c_pow * tau_q[m - k]
            values.append(acc)
        else:
            values.append(tau_q[m])
    return MomentVector(
        tuple(values), rep.dim, passes, p.n_vars, p.degree, p.n_terms
    )


# -- benchmark probe ------------------------------------------------------------


@dataclass(frozen=True)
class BenchRow:
    max_order: int
    engine_seconds: float
    naive_seconds: Optional[float]   # None when the naive run was refused
    naive_capped: bool


@dataclass(frozen=True)
class BenchReport:
    rows: Tuple[BenchRow, ...]
    engine_slope: Optional[float] = field(default=None)


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
    from .oracle import brute_moment
    from .errors import CapExceededError

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
        if r.max_order > 0
    ]
    if len(pts) >= 2:
        xbar = sum(x for x, _ in pts) / len(pts)
        ybar = sum(y for _, y in pts) / len(pts)
        den = sum((x - xbar) ** 2 for x, _ in pts)
        if den > 0:
            slope = sum((x - xbar) * (y - ybar) for x, y in pts) / den
    return BenchReport(tuple(rows), slope)
