"""The end-to-end moment pipeline.

Given a noncommutative polynomial p and a target order M, the engine

1. splits p = c + q with q constant-free and clears q's denominators, so
   every coefficient is a Gaussian integer;
2. builds (z*q)* as a weighted automaton on the prefix trie of q's words:
   one state per proper nonempty prefix, then a final and a start state,
   so N = 2 + #prefixes.  z rides on the edges leaving the start state, the
   term coefficient on the edge into the final state, and every edge into
   the final state is copied into the start state's column (the star);
3. writes the automaton straight into sparse kernel rows over plain ``int``,
   realizing the substitution X_i -> 1.  When a coefficient is complex,
   state s becomes rows 2s and 2s+1 and a + b*i the block [[a, -b], [b, a]],
   a ring homomorphism, so the solve stays over ``int``;
4. solves P = sum_i (mu_i (P + I))^2 one order at a time, each order in one
   pass over the rows from last to first: the z^0 part is strictly upper
   triangular, so this is a back-substitution.  The z^m coefficient of entry
   (start, final) is then tau(q(s)^m) for every m <= M (the imaginary part
   one row below the real part);
5. recovers tau(p(s)^m) by the binomial theorem in c.

``build_zq_star``, ``reduce_rep`` and ``iterate_system`` are the paper's
route through dense matrices of ``ZPoly`` entries cut after z^M and
T = deg(q)*M full sweeps.  ``moments`` does not use them; they stay as the
reference that the stabilization checks run, and ``_sparse_rows`` feeds them
to the kernel in ``int`` when every entry is a real integer and in ``Scalar``
otherwise.

Everything is exact; the returned moments are Scalars.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from . import _kernel
# build_zq_star: the paper's builder, kept here as the reference route
from .linrep import LinearRepresentation, build_zq_star  # noqa: F401
from .ncpoly import NCPolynomial, split_constant
from .scalar import ONE, Scalar
from .series import ZPoly

ReducedMats = List[List[List[ZPoly]]]


@dataclass(frozen=True)
class MomentVector:
    """Moments tau(p(s)^m) for m = 1..M plus a few size statistics."""

    values: Tuple[Scalar, ...]
    rep_dim: int        # N states of the trie automaton (not doubled for
                        # complex inputs), or 0 when p was constant
    n_vars: int
    degree: int
    n_terms: int

    @property
    def max_order(self) -> int:
        return len(self.values)

    def value(self, m: int) -> Scalar:
        """tau(p(s)^m) for 1 <= m <= M."""
        if not 1 <= m <= self.max_order:
            raise IndexError(f"moment order {m} outside 1..{self.max_order}")
        return self.values[m - 1]


def reduce_rep(rep: LinearRepresentation, truncation_order: int) -> ReducedMats:
    """Entrywise image of the representation in C[z]/(z^(M+1)): every entry
    cut after z^M."""
    n_coeffs = truncation_order + 1
    return [
        [[ZPoly(entry.coeffs[:n_coeffs]) for entry in row] for row in mat]
        for mat in rep.mats
    ]


def _sparse_rows(mats: ReducedMats):
    """Reduced matrices as kernel input: per-variable sparse rows, with the
    coefficients as plain ints when every one is a real integer and as
    Scalars otherwise."""
    as_int = all(
        c.is_real() and c.re.denominator == 1
        for mat in mats for row in mat for entry in row for c in entry.coeffs
    )
    sparse = []
    for mat in mats:
        rows = {}
        for j, row in enumerate(mat):
            entries = [
                (t, tuple(c.re.numerator for c in e.coeffs) if as_int else e.coeffs)
                for t, e in enumerate(row)
                if e
            ]
            if entries:
                rows[j] = entries
        sparse.append(rows)
    return sparse


def build_trie_rows(q: NCPolynomial) -> Tuple[List[dict], int, int]:
    """Kernel rows of (z*q)* on the prefix trie of q's words.

    q must be constant-free, nonzero and have Gaussian-integer coefficients.
    Returns the per-variable rows (row -> [(col, z-coefficient tuple)]), the
    state count N, and the block width: 1, or 2 when some coefficient is
    complex and every state s spans rows 2s, 2s+1.  Prefix states come
    first, parents before children, then the final state N - 2 and the
    start state N - 1, so every z^0 edge goes to a higher state.
    """
    terms = list(q.terms())
    block = 2 if any(c.im for _, c in terms) else 1
    states = {}  # proper nonempty prefix -> state, in creation order
    for word, _ in terms:
        for j in range(1, len(word)):
            states.setdefault(word[:j], len(states))
    final = len(states)
    start = states[()] = final + 1
    edges = {}  # (letter, src, dst) -> coefficient
    for word, c in terms:
        for j in range(1, len(word)):
            edges[word[j - 1], states[word[: j - 1]], states[word[:j]]] = ONE
        src = states[word[:-1]]
        edges[word[-1], src, final] = edges[word[-1], src, start] = c
    rows: List[dict] = [{} for _ in range(q.n_vars)]
    for (letter, src, dst), c in edges.items():
        re, im = c.re.numerator, c.im.numerator
        block_rows = ((re, -im), (im, re)) if block == 2 else ((re,),)
        for dr, parts in enumerate(block_rows):
            row = rows[letter - 1].setdefault(block * src + dr, [])
            for dc, x in enumerate(parts):
                if x:
                    # every edge leaving the start state carries one z
                    row.append((block * dst + dc, (0, x) if src == start else (x,)))
    return rows, start + 1, block


def iterate_system(
    mats: ReducedMats, dim: int, truncation_order: int, iterations: int
) -> ZPoly:
    """Iterate P <- sum_i (mu_i (P + I))^2 from P = 0; entry (1, N) of P^T.

    The z^m coefficient of the result equals tau(q(s_1,...,s_n)^m) for
    1 <= m <= M whenever ``iterations`` >= deg(q)*M.
    """
    if iterations < 1:
        raise ValueError("iteration count must be at least 1")
    sparse = _sparse_rows(mats)
    return ZPoly(_kernel.iterate(sparse, dim, truncation_order + 1, iterations))


def moments(p: NCPolynomial, max_order: int) -> MomentVector:
    """All moments tau(p(s_1,...,s_n)^m) for m = 1..max_order, exactly."""
    if max_order < 1:
        raise ValueError("max_order must be at least 1")
    c, q = split_constant(p)
    if q.is_zero():
        values = tuple(c ** m for m in range(1, max_order + 1))
        return MomentVector(values, 0, p.n_vars, p.degree, p.n_terms)

    # clear denominators so the solve runs on integers;
    # tau(q^m) = tau((lam*q)^m) / lam^m undoes the scaling exactly
    lam = math.lcm(
        *(
            d
            for _, coeff in q.terms()
            for d in (coeff.re.denominator, coeff.im.denominator)
        )
    )
    rows, n_states, block = build_trie_rows(q.scale(lam) if lam != 1 else q)
    n_coeffs = max_order + 1
    p_mat = _kernel.solve(rows, block * n_states, n_coeffs)
    zeros = [0] * n_coeffs
    start, final = block * (n_states - 1), block * (n_states - 2)
    re = p_mat.get(start, {}).get(final, zeros)
    im = p_mat.get(start + 1, {}).get(final, zeros) if block == 2 else zeros
    if re[0] or im[0]:
        # every path out of the start state carries at least one factor of z
        raise AssertionError(
            "iteration produced a nonzero constant term at entry (start, final)"
        )
    tau_q = [ONE] + [Scalar(re[m], im[m]) / Scalar(lam**m) for m in range(1, n_coeffs)]

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
    return MomentVector(tuple(values), n_states, p.n_vars, p.degree, p.n_terms)


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
