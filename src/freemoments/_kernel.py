"""Inner loop of the moment engine.

The fixed-point system P = sum_i (mu_i (P + I))^2 is solved here on plain
Python lists of the length-(M+1) series coefficients.  ``solve`` works over
``int`` (denominators cleared, complex coefficients written as 2x2 integer
blocks); ``iterate`` takes the ring's zero, so that the reference
``iterate_system`` can pass ``Scalar`` entries.

The mu_i matrices stay extremely sparse (a handful of nonzero rows, entries
of z-degree <= 1), so P and A_i = mu_i (P + I) are stored as dicts of
nonzero rows, each a dict of nonzero columns.  None of this changes the
result: it is classical matrix multiplication with zero blocks skipped.

``_a_row`` and ``_p_row`` add one order of one row to A_i and to P.
``iterate`` runs them on every row and order, ``steps`` times from P = 0:
the paper's sweep, kept as the reference.  ``solve`` runs each once.  Order
k of P depends on P[0..k-1] and on P[k] only through the z^0 part of the
mu_i; when that part is strictly upper triangular, row j of order k reads
only higher rows of order k, so taking the rows from last to first is a
back-substitution and every value is final when it is written.
"""

from __future__ import annotations

from operator import mul as _mul
from typing import Dict, List, Sequence, Tuple

# sparse matrix: per variable, row index -> list of (col, coeff tuple)
SparseMats = Sequence[Dict[int, List[Tuple[int, tuple]]]]


def _add(rows: dict, j: int, l: int, k: int, x, n_coeffs: int, zero):
    rows.setdefault(j, {}).setdefault(l, [zero] * n_coeffs)[k] += x


def _a_row(mu: dict, a: dict, p: dict, j: int, k: int, n_coeffs: int, zero):
    """Add order k of row j of A = mu (P + I), read from ``p``, to ``a``."""
    for t, zp in mu.get(j, ()):
        if k < len(zp) and zp[k]:  # the I in P + I
            _add(a, j, t, k, zp[k], n_coeffs, zero)
        for e, c in enumerate(zp[: k + 1]):
            if c:
                for l, src in p.get(t, {}).items():
                    if src[k - e]:
                        _add(a, j, l, k, c * src[k - e], n_coeffs, zero)


def _p_row(a: dict, p: dict, j: int, k: int, n_coeffs: int, zero):
    """Add order k of row j of A^2 to ``p``."""
    for t, f in a.get(j, {}).items():
        head = f[: k + 1]
        for l, g in a.get(t, {}).items():
            x = sum(map(_mul, head, g[k::-1]))
            if x:
                _add(p, j, l, k, x, n_coeffs, zero)


def iterate(
    mats: SparseMats, dim: int, n_coeffs: int, steps: int, zero
) -> list:
    """Run P <- sum_i (mu_i (P + I))^2 ``steps`` times from P = 0; entry (1, N).

    ``mats`` holds the reduced representation matrices with rows of
    (column, z-coefficient-tuple) pairs; ``n_coeffs`` is M + 1.  Each step
    reads only the previous P (a Jacobi sweep).
    """
    p: dict = {}
    for _ in range(steps):
        new: dict = {}
        for mu in mats:
            a: dict = {}
            for k in range(n_coeffs):
                for j in range(dim):
                    _a_row(mu, a, p, j, k, n_coeffs, zero)
                for j in range(dim):
                    _p_row(a, new, j, k, n_coeffs, zero)
        p = new
    return p.get(0, {}).get(dim - 1, [zero] * n_coeffs)


def solve(mats: SparseMats, dim: int, n_coeffs: int) -> dict:
    """Solve for P over ``int`` by back-substitution, one order at a time.

    Every z^0 entry (j, t) of the mu_i must have t > j; otherwise
    ``AssertionError`` is raised before any arithmetic.  Returns P as sparse
    rows.
    """
    for mu in mats:
        for j, entries in mu.items():
            for t, zp in entries:
                if t <= j and zp[0]:
                    raise AssertionError(
                        f"z^0 entry ({j}, {t}) is on or below the diagonal: "
                        "the z^0 part of the representation is not nilpotent"
                    )
    p: dict = {}
    a_s: List[dict] = [{} for _ in mats]
    for k in range(n_coeffs):
        for j in range(dim - 1, -1, -1):
            for mu, a in zip(mats, a_s):
                _a_row(mu, a, p, j, k, n_coeffs, 0)
            for a in a_s:
                _p_row(a, p, j, k, n_coeffs, 0)
    return p
