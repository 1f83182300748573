"""Inner loop of the moment engine.

The fixed-point system P = sum_i (mu_i (P + I))^2 is solved here over
``int``, on plain Python lists of the length-(M+1) series coefficients, with
denominators cleared; a complex weight arrives already encoded as one ``int``
of Z/(r^2 + 1) (see ``engine``), and ``solve`` then reduces every cell modulo
n = r^2 + 1 once its order is done, so cells stay within n/2 in absolute
value instead of growing like r^k.  The engine reads one entry of P, that of
its start state, numbered dim - 1, and ``solve`` returns only that entry.

With Q = P + I, (mu_i Q)^2 = mu_i Q mu_i Q, so Q = I + B Q with
B = eta(Q) = sum_i mu_i Q mu_i: the operator-valued semicircular equation
(Helton, Rashidi Far and Speicher, IMRN 2007).  The mu_i entries have
z-degree <= 1, so order k of B is a sum of single products that read Q at
orders k, k - 1 and k - 2, and only B Q is a convolution: one
matrix-series product per order, whatever the number of letters.  B and Q
are rows of dicts of nonzero cells, zero blocks skipped.  A cell is its
M + 1 coefficients and then the order it was made at, below which it is 0;
a dict holds its cells in that order, so the convolution skips the
products that cannot reach k.

``solve`` runs one loop over orders k and, in each, over rows j.  Row j
first gets order k of B from a plan of flat lists, one per row and phase,
that ``_plan`` builds once from the mu_i and Q: one entry per product
mu_i[j][t] Q[t][u] mu_i[u][s], holding Q's column dict q[t][phi(u)]
(filled in place by the solve), u, s, the summed z-degree and the product
of the two weights, so an entry costs one dict lookup, one index and one
multiply.  Then order k of row j of B Q is added to Q.  Order k of B and
of Q reads Q[k] only through the z^0 part of the mu_i; when that part is
strictly upper triangular, so are those of P and B, and row j of order k
reads only higher rows of order k: taking the rows from last to first is
a back-substitution, and every value is final when it is written.  The
last order M is read only at Q[dim - 1][dim - 1].  Row dim - 1 has no z^0
entry, so B[dim - 1] is 0 at order 0 and its order M reads Q below M, and
order M of that cell is the sum over s and v >= 1 of B[dim - 1][s] at v
times Q[s][dim - 1] at M - v.  So order M visits row dim - 1 alone, with
all of its B cells and one convolution into that cell.

``solve`` also skips the orders a cell cannot hold.  For free semicirculars
tau(w) = 0 unless every letter occurs in w an even number of times, and the
rows often carry the parity this leaves: a Z/2 grading, a phase phi(j) per
state and a weight chi_i per letter with phi(j) + phi(t) + chi_i = e
(mod 2) for every nonzero z^e coefficient at (j, t) of mu_i.  The caller
that built the rows knows whether they have one and passes it in (the
engine's builder finds it from q's words).  With a grading, Q[j][l] and
B[j][l] are nonzero only at orders k = phi(j) + phi(l), by induction on the
fixed point: a z^e1 entry at (j, t) of mu_i, Q[t][u] at an order of
parity phi(t) + phi(u) and a z^e2 entry at (u, s) of the same mu_i land at
phi(j) + phi(s) + 2 (phi(t) + phi(u) + chi_i), where chi_i cancels, and
B[j][s] Q[s][l] at phi(j) + phi(l).  So B and Q share one layout, a
column dict per phase in every row; order k writes only the phase it
allows, and the convolution takes stride 2, ``f[v:k+1:2]`` against
``g[k-v::-2]``, where the order v that f was made at has the parity of its
orders.  Rows without a grading (``x1^2 + x2^2``, or any entry with both a
z^0 and a z^1 part) run the same loop on the trivial grading: every phase
0, stride 1, one column dict per row.  ``solve`` checks every entry
against the grading it was given before any arithmetic.
"""

from __future__ import annotations

from operator import mul as _mul
from typing import Dict, List, Optional, Sequence, Tuple

# sparse matrices, one per letter: row index -> list of (col, coeff tuple)
SparseMats = Sequence[Dict[int, List[Tuple[int, tuple]]]]
# (phase of each state, weight of each letter, order step); see above
Grading = Tuple[Sequence[int], Sequence[int], int]


def _plan(mats: SparseMats, grading: Grading, q: list) -> list:
    """Per row j and phase h, one ``(cols, u, s, e1 + e2, c1 * c2)`` for every
    product mu_i[j][t] Q[t][u] mu_i[u][s] of nonzero coefficients c1 z^e1 and
    c2 z^e2 with phi(s) = h, where ``cols`` is Q's column dict q[t][phi(u)]."""
    phase, _, step = grading
    plan = [([], [])[:step] for _ in phase]
    for mu in mats:
        tails = [(phase[u], u, s, e2, c2) for u, entries in mu.items()
                 for s, zp in entries for e2, c2 in enumerate(zp) if c2]
        for j, entries in mu.items():
            for t, zp in entries:
                q_t = q[t]
                for e1, c1 in enumerate(zp):
                    if c1:
                        for hu, u, s, e2, c2 in tails:
                            plan[j][phase[s]].append((q_t[hu], u, s, e1 + e2, c1 * c2))
    return plan


def _identity(grading: Grading, n_coeffs: int) -> list:
    """Q = P + I with P = 0, as rows of one column dict per phase."""
    phase, _, step = grading
    q = [({}, {})[:step] for _ in phase]
    for j, h in enumerate(phase):
        q[j][h][j] = [1] + [0] * n_coeffs
    return q


def solve(mats: SparseMats, dim: int, n_coeffs: int, modulus: int = 0,
          grading: Optional[Grading] = None) -> List[int]:
    """Entry (dim - 1, dim - 1) of P over ``int``, by back-substitution, one
    order at a time: its ``n_coeffs`` coefficients, all 0 when ``dim`` is 0.

    Every z^0 entry (j, t) of the mu_i must have t > j, and every nonzero
    entry must satisfy the ``grading`` given (None is the trivial grading,
    which every entry satisfies); otherwise ``AssertionError`` is raised
    before any arithmetic.  With a ``modulus`` n, every cell of B and of Q
    written at order k is brought back into (-n/2, n/2] once its row is
    done, so the entry is exact modulo n.  Every cell but the entry stops
    one order short: the last order computes the entry alone (see above).
    """
    grading = grading or ([0] * dim, [0] * len(mats), 1)
    phase, chi, step = grading
    for i, mu in enumerate(mats):
        for j, entries in mu.items():
            for t, zp in entries:
                if t <= j and zp[0]:
                    raise AssertionError(
                        f"z^0 entry ({j}, {t}) is on or below the diagonal: "
                        "the z^0 part of the representation is not nilpotent"
                    )
                if step == 1:  # every order may fill every cell
                    continue
                for e, c in enumerate(zp):
                    if c and (phase[j] + phase[t] + chi[i] + e) % 2:
                        raise AssertionError(
                            f"z^{e} entry ({j}, {t}) of letter {i} breaks the "
                            "Z/2 grading given for the representation"
                        )
    if not dim:
        return [0] * n_coeffs
    q = _identity(grading, n_coeffs)
    plan = _plan(mats, grading, q)
    b = [({}, {})[:step] for _ in plan]
    half = (modulus - 1) // 2
    top = dim - 1
    for k in range(n_coeffs):
        kp = k % step
        last = k == n_coeffs - 1  # only Q[top][top] is read at this order
        for j in (top,) if last else range(top, -1, -1):
            h = phase[j] ^ kp
            b_j, q_j = b[j][h], q[j][h]
            # order k of row j of B = eta(Q), one plan entry per product
            for cols, u, s, e, c in plan[j][h]:
                if k >= e:
                    src = cols.get(u)
                    if src is not None:
                        x = src[k - e]
                        if x:
                            cell = b_j.get(s)
                            if cell is None:
                                cell = b_j[s] = [0] * n_coeffs + [k]
                            cell[k] += c * x
            # order k of row j of B Q, added to Q
            for mid in b[j]:
                for s, f in mid.items():
                    cols = q[s][h]
                    if last:
                        cols = {top: cols[top]} if top in cols else None
                    if cols:
                        # B[j][s] is 0 below order v and off every step-th order:
                        # only the Q[s][l] of phase h made by order k - v count
                        v = f[-1]
                        back = k - v
                        head = f[v : k + 1 : step]
                        for l, g in cols.items():
                            if g[-1] > back:  # made too late, as is every later cell
                                break
                            x = sum(map(_mul, head, g[back::-step]))
                            if x:
                                cell = q_j.get(l)
                                if cell is None:
                                    cell = q_j[l] = [0] * n_coeffs + [k]
                                cell[k] += x
            if modulus:  # row j of order k is final
                for cells in (b_j, q_j):
                    for cell in cells.values():
                        if cell[k]:
                            cell[k] = (cell[k] + half) % modulus - half
    entry = q[top][phase[top]][top]  # the identity's cell, made at order 0
    entry.pop()
    entry[0] -= 1
    return entry


def __getattr__(name):
    # only for perfbench/spans.py, which still wraps ``iterate`` here: the
    # reference sweep.  Deleted with ``engine.__getattr__`` (ROADMAP item 1)
    if name == "iterate":
        from . import reference

        return reference._sweep
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
