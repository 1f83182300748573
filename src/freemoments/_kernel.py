"""Inner loop of the moment engine.

The fixed-point system P = sum_i (mu_i (P + I))^2 is solved here on plain
Python lists of the length-(M+1) series coefficients.  ``solve`` works over
``int``, with denominators cleared; a complex weight arrives already
encoded as one ``int`` of Z/(r^2 + 1) (see ``engine``), and ``solve`` then
reduces every cell modulo n = r^2 + 1 once its order is done, so cells stay
within n/2 in absolute value instead of growing like r^k.  ``iterate`` also
takes ``Scalar`` entries from the reference ``iterate_system``: new cells
start as ``int`` zeros either way, and a ``Scalar`` combines with them
through ``__radd__`` and ``__rmul__``.

The mu_i matrices stay extremely sparse (a handful of nonzero rows, entries
of z-degree <= 1), so P and A_i = mu_i (P + I) are stored as dicts of
nonzero rows, each a dict of nonzero columns.  None of this changes the
result: it is classical matrix multiplication with zero blocks skipped.

The arithmetic lives in two helpers: ``_a_row`` adds one order of one row
to every A_i, and ``_p_row`` the same order and row of sum_i A_i^2 to P.
``iterate`` is the paper's sweep, kept as the reference: it runs them on
every row and order, ``steps`` times from P = 0.  ``solve`` runs them once
per row and order.  Order k of P depends on P[0..k-1] and on P[k] only through the z^0 part of
the mu_i; when that part is strictly upper triangular, row j of order k
reads only higher rows of order k, so taking the rows from last to first is
a back-substitution and every value is final when it is written.
"""

from __future__ import annotations

from operator import mul as _mul
from typing import Dict, List, Sequence, Tuple

# sparse matrices, one per letter: row index -> list of (col, coeff tuple)
SparseMats = Sequence[Dict[int, List[Tuple[int, tuple]]]]


def _a_row(pairs, p: dict, j: int, k: int, n_coeffs: int):
    """Add order k of row j of A_i = mu_i (P + I), read from ``p``, for every
    (mu_i, A_i) in ``pairs``."""
    for mu, a in pairs:
        entries = mu.get(j)
        if entries is None:
            continue
        a_j = a.get(j)
        if a_j is None:
            a_j = a[j] = {}
        for t, zp in entries:
            p_t = p.get(t)
            for e, c in enumerate(zp[: k + 1]):
                if not c:
                    continue
                if e == k:  # the I in P + I
                    cell = a_j.get(t)
                    if cell is None:
                        cell = a_j[t] = [0] * n_coeffs
                    cell[k] += c
                if p_t is None:
                    continue
                for l, src in p_t.items():
                    x = src[k - e]
                    if x:
                        cell = a_j.get(l)
                        if cell is None:
                            cell = a_j[l] = [0] * n_coeffs
                        cell[k] += c * x


def _p_row(pairs, p: dict, j: int, k: int, n_coeffs: int):
    """Add order k of row j of sum_i A_i^2 to ``p``."""
    p_j = p.get(j)
    for _, a in pairs:
        a_j = a.get(j)
        if not a_j:
            continue
        for t, f in a_j.items():
            a_t = a.get(t)
            if not a_t:
                continue
            head = f[: k + 1]
            for l, g in a_t.items():
                x = sum(map(_mul, head, g[k::-1]))
                if x:
                    if p_j is None:
                        p_j = p[j] = {}
                    cell = p_j.get(l)
                    if cell is None:
                        cell = p_j[l] = [0] * n_coeffs
                    cell[k] += x


def iterate(mats: SparseMats, dim: int, n_coeffs: int, steps: int) -> list:
    """Run P <- sum_i (mu_i (P + I))^2 ``steps`` times from P = 0; entry (1, N).

    ``mats`` holds the reduced representation matrices with rows of
    (column, z-coefficient-tuple) pairs; ``n_coeffs`` is M + 1.  Each step
    reads only the previous P (a Jacobi sweep): at every order, all rows of
    every A_i first, then all rows of the new P.
    """
    p: dict = {}
    for _ in range(steps):
        new: dict = {}
        pairs = [(mu, {}) for mu in mats]
        for k in range(n_coeffs):
            for j in range(dim):
                _a_row(pairs, p, j, k, n_coeffs)
            for j in range(dim):
                _p_row(pairs, new, j, k, n_coeffs)
        p = new
    return p.get(0, {}).get(dim - 1, [0] * n_coeffs)


def solve(mats: SparseMats, dim: int, n_coeffs: int, modulus: int = 0) -> dict:
    """Solve for P over ``int`` by back-substitution, one order at a time.

    Every z^0 entry (j, t) of the mu_i must have t > j; otherwise
    ``AssertionError`` is raised before any arithmetic.  With a ``modulus``
    n, every cell of P and of the A_i written at order k is brought back
    into (-n/2, n/2] once order k is done, so P is exact modulo n.  Returns
    P as sparse rows.
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
    pairs = [(mu, {}) for mu in mats]  # (mu_i, A_i)
    half = (modulus - 1) // 2
    for k in range(n_coeffs):
        for j in range(dim - 1, -1, -1):
            _a_row(pairs, p, j, k, n_coeffs)
            _p_row(pairs, p, j, k, n_coeffs)
        if modulus:
            for mat in (p, *(a for _, a in pairs)):
                for row in mat.values():
                    for cell in row.values():
                        if cell[k]:
                            cell[k] = (cell[k] + half) % modulus - half
    return p
