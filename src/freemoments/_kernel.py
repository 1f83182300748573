"""Inner loop of the moment engine.

The fixed-point system P = sum_i (mu_i (P + I))^2 is solved here on plain
Python lists of the length-(M+1) series coefficients.  ``solve`` works over
``int``, with denominators cleared; a complex weight arrives already
encoded as one ``int`` of Z/(r^2 + 1) (see ``engine``), and ``solve`` then
reduces every cell modulo n = r^2 + 1 once its order is done, so cells stay
within n/2 in absolute value instead of growing like r^k.  ``iterate`` also
takes ``Scalar`` entries from ``reference.iterate_system``: new cells start
as ``int`` zeros either way, and a ``Scalar`` combines with them through
``__radd__`` and ``__rmul__``.  This module imports nothing from
``reference``.

The mu_i matrices stay extremely sparse (a handful of nonzero rows, entries
of z-degree <= 1), so P and A_i = mu_i (P + I) are stored as dicts of
nonzero rows, each a dict of nonzero columns.  None of this changes the
result: it is classical matrix multiplication with zero blocks skipped.

The arithmetic lives in two helpers: ``_a_row`` adds one order of one row
to every A_i, and ``_p_row`` the same order and row of sum_i A_i^2 to P.
``iterate`` is the paper's sweep, which only the reference route calls: it
runs them on every row and order, ``steps`` times from P = 0.  ``solve``
runs them once per row and order.  Order k of P depends on P[0..k-1] and
on P[k] only through the z^0 part of the mu_i; when that part is strictly
upper triangular, row j of order k reads only higher rows of order k, so
taking the rows from last to first is a back-substitution and every value
is final when it is written.

``solve`` also skips the orders a cell cannot hold.  For free semicirculars
tau(w) = 0 unless every letter occurs in w an even number of times, and the
rows often carry the parity this leaves.  ``_grading`` looks for a phase
phi(j) per state and a weight chi_i per letter with
phi(j) + phi(t) + chi_i = e (mod 2) for every nonzero z^e coefficient at
(j, t) of mu_i, by elimination over GF(2).  If there is one, P[j][l] is
nonzero only at orders k = phi(j) + phi(l) and A_i[j][l] only at orders
k = phi(j) + phi(l) + chi_i (mod 2), by induction on the fixed point: a z^e
entry at (j, t) times (P + I)[t][l] at order k' = phi(t) + phi(l) (the I
at k' = 0, t = l) lands at e + k' = phi(j) + phi(l) + chi_i, and
A_i[j][t] A_i[t][l] at phi(j) + phi(l), since phi(t) and chi_i cancel.  So
every row of P and of the A_i keeps one column dict per phase, order k
writes only the phase it allows, and ``_p_row`` convolves with stride 2,
``f[r0:k+1:2]`` against ``g[k-r0::-2]``, where r0 is the parity of the
orders of f.  Rows without a grading (``x1^2 + x2^2``, or any entry with
both a z^0 and a z^1 part) run the same loop on the trivial grading: every
phase 0, stride 1, one column dict per row.  ``solve`` checks every entry
against the grading it derived before any arithmetic.
"""

from __future__ import annotations

from operator import mul as _mul
from typing import Dict, List, Optional, Sequence, Tuple

# sparse matrices, one per letter: row index -> list of (col, coeff tuple)
SparseMats = Sequence[Dict[int, List[Tuple[int, tuple]]]]
# (phase of each state, weight of each letter, order step); see ``_grading``
Grading = Tuple[Sequence[int], Sequence[int], int]


def _trivial(mats: SparseMats, dim: int) -> Grading:
    """Every phase 0, stride 1: every order may fill every cell."""
    return [0] * dim, [0] * len(mats), 1


def _grading(mats: SparseMats, dim: int) -> Optional[Grading]:
    """A Z/2 grading of the rows, or None when they have none.

    Finds phases phi(j) of the states and weights chi_i of the letters with
    phi(j) + phi(t) + chi_i = e (mod 2) for every nonzero z^e coefficient of
    every entry (j, t) of mu_i, by elimination over GF(2): an equation is an
    int whose bits 0..dim-1 are the phases, the next len(mats) bits the
    weights and the bit above them its right-hand side.
    """
    n_unknowns = dim + len(mats)
    rhs = 1 << n_unknowns
    pivots = {}  # lowest unknown bit -> reduced equation with that lowest bit
    for i, mu in enumerate(mats):
        letter = 1 << (dim + i)
        for j, entries in mu.items():
            for t, zp in entries:
                for e, c in enumerate(zp):
                    if not c:
                        continue
                    eq = (1 << j) ^ (1 << t) ^ letter ^ (rhs if e & 1 else 0)
                    while eq & (rhs - 1):
                        low = eq & -eq
                        if low not in pivots:
                            pivots[low] = eq
                            break
                        eq ^= pivots[low]
                    else:
                        if eq:  # 0 = 1
                            return None
    # the other unknowns of a pivot's equation are higher than its pivot, so
    # from the highest pivot down each value is fixed; free unknowns are 0
    value = 0
    for low in sorted(pivots, reverse=True):
        eq = pivots[low]
        if ((eq & value).bit_count() + (eq >> n_unknowns)) & 1:
            value |= low
    bits = [(value >> b) & 1 for b in range(n_unknowns)]
    return bits[:dim], bits[dim:], 2


def _rows(mats: SparseMats, grading: Grading) -> list:
    """Per row j, one ``(A_i, row j of A_i, row j of mu_i, phi(j) + chi_i)``
    for every letter i whose mu_i has row j, the phase sum taken mod step.

    Row j of A_i = mu_i (P + I) is nonzero only where mu_i has row j, so
    these lists hold every A_i row there is.  A row of A_i (and of P) is a
    tuple of ``step`` column dicts, one per column phase.
    """
    phase, chi, step = grading
    rows = [[] for _ in phase]
    for i, mu in enumerate(mats):
        a: dict = {}
        for j, entries in mu.items():
            a_j = a[j] = ({}, {})[:step]
            rows[j].append((a, a_j, entries, (phase[j] + chi[i]) % step))
    return rows


def _a_row(row: list, p: dict, k: int, n_coeffs: int, kp: int):
    """Add order k of row j of A_i = mu_i (P + I), read from ``p``, for every
    A_i in ``row``, the ``_rows`` entry of row j; ``kp`` is k mod step."""
    for _, a_j, entries, offset in row:
        # the one column phase of row j of A_i at order k: it is also the
        # phase of the P[t] columns that order k reads at z^(k-e)
        h = offset ^ kp
        out = a_j[h]
        for t, zp in entries:
            p_t = p.get(t)
            for e, c in enumerate(zp[: k + 1]):
                if not c:
                    continue
                if e == k:  # the I in P + I
                    cell = out.get(t)
                    if cell is None:
                        cell = out[t] = [0] * n_coeffs
                    cell[k] += c
                if p_t is None:
                    continue
                for l, src in p_t[h].items():
                    x = src[k - e]
                    if x:
                        cell = out.get(l)
                        if cell is None:
                            cell = out[l] = [0] * n_coeffs
                        cell[k] += c * x


def _p_row(row: list, p: dict, j: int, k: int, n_coeffs: int, h: int, step: int):
    """Add order k of row j of sum_i A_i^2 to ``p``, whose row j takes only
    column phase ``h`` at order k."""
    out = None
    for a, a_j, _, r0 in row:
        for mid in a_j:
            # A_i[j][t] is nonzero only at orders r = r0 mod step, and then
            # A_i[t][l] at order k - r only for l of phase h; the second
            # column phase of a graded row has the other parity
            if mid and r0 <= k:
                head_end = k + 1
                back = k - r0
                for t, f in mid.items():
                    a_t = a.get(t)
                    if a_t is None:
                        continue
                    cols = a_t[h]
                    if not cols:
                        continue
                    head = f[r0:head_end:step]
                    for l, g in cols.items():
                        x = sum(map(_mul, head, g[back::-step]))
                        if x:
                            if out is None:
                                p_j = p.get(j)
                                if p_j is None:
                                    p_j = p[j] = ({}, {})[:step]
                                out = p_j[h]
                            cell = out.get(l)
                            if cell is None:
                                cell = out[l] = [0] * n_coeffs
                            cell[k] += x
            r0 ^= 1


def _merged(p: dict) -> dict:
    """P with each row's column phases joined into one dict, keeping only the
    cells that are nonzero at some order: a cell is made when one product
    written into it is nonzero, and its sum can still cancel to 0."""
    return {
        j: {l: cell for phase in row for l, cell in phase.items() if any(cell)}
        for j, row in p.items()
    }


def iterate(mats: SparseMats, dim: int, n_coeffs: int, steps: int) -> list:
    """Run P <- sum_i (mu_i (P + I))^2 ``steps`` times from P = 0; entry (1, N).

    ``mats`` holds the reduced representation matrices with rows of
    (column, z-coefficient-tuple) pairs; ``n_coeffs`` is M + 1.  Each step
    reads only the previous P (a Jacobi sweep): at every order, all rows of
    every A_i first, then all rows of the new P.  It runs on the trivial
    grading.
    """
    grading = _trivial(mats, dim)
    p: dict = {}
    for _ in range(steps):
        new: dict = {}
        rows = _rows(mats, grading)
        for k in range(n_coeffs):
            # on the trivial grading every phase is 0 and the stride 1
            for row in rows:
                _a_row(row, p, k, n_coeffs, 0)
            for j, row in enumerate(rows):
                _p_row(row, new, j, k, n_coeffs, 0, 1)
        p = new
    return _merged(p).get(0, {}).get(dim - 1, [0] * n_coeffs)


def solve(mats: SparseMats, dim: int, n_coeffs: int, modulus: int = 0) -> dict:
    """Solve for P over ``int`` by back-substitution, one order at a time.

    Every z^0 entry (j, t) of the mu_i must have t > j, and every nonzero
    entry must satisfy the grading ``_grading`` derives; otherwise
    ``AssertionError`` is raised before any arithmetic.  With a ``modulus``
    n, every cell of P and of the A_i written at order k is brought back
    into (-n/2, n/2] once order k is done, so P is exact modulo n.  Returns
    exactly the nonzero cells of P, as sparse rows: row j -> {column l:
    coefficient list}.
    """
    found = _grading(mats, dim)
    grading = found or _trivial(mats, dim)
    phase, chi, step = grading
    for i, mu in enumerate(mats):
        for j, entries in mu.items():
            for t, zp in entries:
                if t <= j and zp[0]:
                    raise AssertionError(
                        f"z^0 entry ({j}, {t}) is on or below the diagonal: "
                        "the z^0 part of the representation is not nilpotent"
                    )
                if found is None:
                    continue
                for e, c in enumerate(zp):
                    if c and (phase[j] + phase[t] + chi[i] + e) % 2:
                        raise AssertionError(
                            f"z^{e} entry ({j}, {t}) of letter {i} breaks the "
                            "Z/2 grading derived for the representation"
                        )
    p: dict = {}
    rows = _rows(mats, grading)
    half = (modulus - 1) // 2
    for k in range(n_coeffs):
        kp = k % step
        for j in range(dim - 1, -1, -1):
            row = rows[j]
            _a_row(row, p, k, n_coeffs, kp)
            _p_row(row, p, j, k, n_coeffs, phase[j] ^ kp, step)
        if modulus:
            # only the column phase each row took at order k was written
            for j, p_j in p.items():
                for cell in p_j[phase[j] ^ kp].values():
                    if cell[k]:
                        cell[k] = (cell[k] + half) % modulus - half
            for row in rows:
                for _, a_j, _, offset in row:
                    for cell in a_j[offset ^ kp].values():
                        if cell[k]:
                            cell[k] = (cell[k] + half) % modulus - half
    return _merged(p)
