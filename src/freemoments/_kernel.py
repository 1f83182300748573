"""Inner loop of the moment engine.

The fixed-point system P = sum_i (mu_i (P + I))^2 is solved here on plain
Python lists.  Series are length-(M+1) coefficient lists over any ring whose
zero the caller passes: ``moments`` always hands in ``int`` (denominators
cleared, complex coefficients written as 2x2 integer blocks), and only the
reference ``iterate_system`` falls back to ``Scalar`` for rational or
complex entries.

The mu_i matrices stay extremely sparse (a handful of nonzero rows, entries
of z-degree <= 1), so P and A = mu_i (P + I) are stored as dicts of nonzero
rows, each a dict of nonzero columns.  None of this changes the result: it
is classical matrix multiplication with zero blocks skipped.

One step function serves two drivers.  ``iterate`` runs it on every order at
once, ``steps`` times from P = 0: the paper's sweep, kept as the reference.
``solve`` runs it on one order k at a time.  Coefficient k of P depends on
P[0..k-1] and on P[k] only through the z^0 part of the mu_i, which is
nilpotent of index at most N; so repeating the step on order k alone reaches
a fixed point within N passes, and the pass after that changes nothing.
"""

from __future__ import annotations

from operator import mul as _mul
from typing import Dict, List, Sequence, Tuple

# sparse matrix: per variable, row index -> list of (col, coeff tuple)
SparseMats = Sequence[Dict[int, List[Tuple[int, tuple]]]]


def _dot(a, b):
    return sum(map(_mul, a, b))


def _step(mats: SparseMats, p: dict, k0: int, k1: int, n_coeffs: int, zero) -> bool:
    """Recompute orders k0..k1-1 of P <- sum_i (mu_i (P + I))^2 in place.

    A_i is rebuilt on orders 0..k1-1 from P as it stands before the step, so
    the window updates all at once.  Returns whether any coefficient in the
    window changed.
    """
    new: dict = {}
    for mu in mats:
        a: dict = {}
        for j, entries in mu.items():
            arow = a[j] = {}
            for t, zp in entries:
                for e, c in enumerate(zp[:k1]):
                    if not c:
                        continue
                    cell = arow.setdefault(t, [zero] * k1)
                    cell[e] = cell[e] + c
                    for l, src in p.get(t, {}).items():
                        cell = arow.setdefault(l, [zero] * k1)
                        cell[e:] = [x + c * y for x, y in zip(cell[e:], src)]
        for j, arow in a.items():
            out = new.setdefault(j, {})
            for t, f in arow.items():
                for l, g in a.get(t, {}).items():
                    dst = out.setdefault(l, [zero] * (k1 - k0))
                    for k in range(k0, k1):
                        dst[k - k0] = dst[k - k0] + _dot(f[: k + 1], g[k::-1])
    changed = False
    for j, out in new.items():
        row = p.setdefault(j, {})
        for l, window in out.items():
            cell = row.setdefault(l, [zero] * n_coeffs)
            if cell[k0:k1] != window:
                cell[k0:k1] = window
                changed = True
    return changed


def iterate(
    mats: SparseMats, dim: int, n_coeffs: int, steps: int, zero
) -> list:
    """Run the step on every order ``steps`` times from P = 0; entry (1, N).

    ``mats`` holds the reduced representation matrices with rows of
    (column, z-coefficient-tuple) pairs; ``n_coeffs`` is M + 1.
    """
    p: dict = {}
    for _ in range(steps):
        _step(mats, p, 0, n_coeffs, n_coeffs, zero)
    return p.get(0, {}).get(dim - 1, [zero] * n_coeffs)


def solve(mats: SparseMats, dim: int, n_coeffs: int, zero) -> Tuple[dict, int]:
    """Solve for P one order at a time; P as sparse rows and the passes run.

    Order k is final once a pass on it alone changes nothing.  An order still
    changing after N + 1 passes means the z^0 part of the mu_i has a cycle,
    so the system has no finite solution and ``AssertionError`` is raised.
    """
    p: dict = {}
    passes = 0
    for k in range(n_coeffs):
        for _ in range(dim + 1):
            passes += 1
            if not _step(mats, p, k, k + 1, n_coeffs, zero):
                break
        else:
            raise AssertionError(
                f"order {k} still changing after {dim + 1} passes: the z^0 "
                "part of the representation is not nilpotent"
            )
    return p, passes
