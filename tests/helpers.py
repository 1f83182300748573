"""Shared test utilities: random generators and independent mini-oracles.

The series expander here is deliberately separate from the package's linear
representation code: it manipulates word -> z-polynomial dictionaries
directly, so representation soundness tests compare two genuinely different
computations.  Likewise the enumerated non-crossing pairings and the
semicircular algebraic system are a second oracle for the package's pairing
counter.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Dict, List, Tuple

from freemoments import NCPolynomial, Scalar
from freemoments.reference import (
    LinearRepresentation,
    ZPoly,
    rep_linear_combination,
    rep_product,
    rep_star,
    rep_variable,
)

Word = Tuple[int, ...]


# -- random value generators ------------------------------------------------------


def random_scalar(rng: random.Random, allow_imag=False, allow_frac=False) -> Scalar:
    def part():
        num = rng.randint(-4, 4)
        if allow_frac and rng.random() < 0.3:
            return Fraction(num, rng.randint(1, 4))
        return Fraction(num)

    re = part()
    im = part() if allow_imag and rng.random() < 0.4 else Fraction(0)
    return Scalar(re, im)


def random_nonzero_scalar(rng: random.Random, **kwargs) -> Scalar:
    while True:
        s = random_scalar(rng, **kwargs)
        if s:
            return s


def random_word(rng: random.Random, n_vars: int, min_len=1, max_len=3) -> Word:
    return tuple(
        rng.randint(1, n_vars) for _ in range(rng.randint(min_len, max_len))
    )


def random_poly(
    rng: random.Random,
    n_vars: int,
    max_terms=4,
    max_deg=3,
    allow_imag=False,
    allow_frac=False,
    allow_constant=True,
) -> NCPolynomial:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        word = random_word(rng, n_vars, 0 if allow_constant else 1, max_deg)
        terms[word] = random_nonzero_scalar(
            rng, allow_imag=allow_imag, allow_frac=allow_frac
        )
    poly = NCPolynomial(n_vars, terms)
    if poly.is_zero():
        return NCPolynomial.variable(n_vars, 1)
    return poly


# -- independent truncated-series expander for representation soundness -----------

Series = Dict[Word, ZPoly]


def exp_variable(index: int, coeff: ZPoly) -> Series:
    return {(index,): coeff} if coeff else {}


def exp_scale(series: Series, factor: ZPoly) -> Series:
    out = {}
    for word, c in series.items():
        v = c * factor
        if v:
            out[word] = v
    return out


def exp_add(a: Series, b: Series) -> Series:
    out = dict(a)
    for word, c in b.items():
        v = out.get(word, ZPoly()) + c
        if v:
            out[word] = v
        elif word in out:
            del out[word]
    return out


def exp_product(a: Series, b: Series, max_len: int) -> Series:
    out: Series = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            if len(wa) + len(wb) > max_len:
                continue
            word = wa + wb
            v = out.get(word, ZPoly()) + ca * cb
            if v:
                out[word] = v
            elif word in out:
                del out[word]
    return out


def exp_star(a: Series, max_len: int) -> Series:
    """sum_{k=1..max_len} a^k truncated at word length max_len."""
    total: Series = {}
    power = dict(a)
    for _ in range(max_len):
        total = exp_add(total, power)
        power = exp_product(power, a, max_len)
    return total


def exp_power(a: Series, k: int, max_len: int) -> Series:
    out: Series = {(): ZPoly((1,))}
    for _ in range(k):
        out = exp_product(out, a, max_len)
    return out


# -- random construction trees (rep and expander built side by side) ---------------


def random_construction(
    rng: random.Random, n_vars: int, depth: int, max_len: int
) -> Tuple[LinearRepresentation, Series]:
    """A random star-free-constant series built two ways."""
    if depth == 0 or rng.random() < 0.35:
        index = rng.randint(1, n_vars)
        if rng.random() < 0.5:
            coeff = ZPoly.constant(random_nonzero_scalar(rng))
        else:
            coeff = ZPoly.z(random_nonzero_scalar(rng))
        return rep_variable(index, n_vars, coeff), exp_variable(index, coeff)
    choice = rng.random()
    if choice < 0.4:
        ra, ea = random_construction(rng, n_vars, depth - 1, max_len)
        rb, eb = random_construction(rng, n_vars, depth - 1, max_len)
        return rep_product(ra, rb), exp_product(ea, eb, max_len)
    if choice < 0.8:
        ra, ea = random_construction(rng, n_vars, depth - 1, max_len)
        rb, eb = random_construction(rng, n_vars, depth - 1, max_len)
        r1 = ZPoly.constant(random_scalar(rng))
        r2 = ZPoly.z(random_scalar(rng)) if rng.random() < 0.5 else ZPoly.constant(
            random_scalar(rng)
        )
        rep = rep_linear_combination(r1, ra, r2, rb)
        return rep, exp_add(exp_scale(ea, r1), exp_scale(eb, r2))
    ra, ea = random_construction(rng, n_vars, depth - 1, max_len)
    if any(mat[r][0] for mat in ra.mats for r in range(ra.dim)):
        # restore the zero first column the star construction needs
        one = ZPoly((1,))
        ra = rep_linear_combination(one, ra, ZPoly(), rep_variable(1, n_vars, one))
    return rep_star(ra), exp_star(ea, max_len)


def all_words(n_vars: int, max_len: int):
    for length in range(max_len + 1):
        yield from itertools.product(range(1, n_vars + 1), repeat=length)


# -- independent oracles: pairings enumerated, and the semicircular system -------

Pairing = Tuple[Tuple[int, int], ...]


def enumerate_nc_pairings(k: int) -> List[Pairing]:
    """All non-crossing perfect pairings of {1..2k}, Catalan(k) of them.

    Deterministic order: position 1 pairs with 2, 4, ..., 2k in turn, with
    interior pairings enumerated before exterior ones.
    """
    return list(_pairings(1, 2 * k))


def _pairings(lo: int, hi: int):
    if lo > hi:
        yield ()
        return
    for mate in range(lo + 1, hi + 1, 2):
        for inner in _pairings(lo + 1, mate - 1):
            for outer in _pairings(mate + 1, hi):
                yield ((lo, mate),) + inner + outer


def _mul_word_truncated(
    a: Dict[Word, int], b: Dict[Word, int], max_length: int
) -> Dict[Word, int]:
    out: Dict[Word, int] = {}
    by_len: Dict[int, List[Tuple[Word, int]]] = {}
    for wb, cb in b.items():
        by_len.setdefault(len(wb), []).append((wb, cb))
    for wa, ca in a.items():
        room = max_length - len(wa)
        if room < 0:
            continue
        for length, items in by_len.items():
            if length > room:
                continue
            for wb, cb in items:
                w = wa + wb
                out[w] = out.get(w, 0) + ca * cb
    return out


def psemi_table(max_length: int, n_vars: int) -> Dict[Word, int]:
    """Coefficients of the semicircular moment series on words up to a length.

    Iterates Y <- sum_i (X_i (Y + 1))^2 from zero, ``max_length`` times, in
    the ring truncated at word length ``max_length``; the resulting
    coefficient of F equals tau(F(s_1,...,s_n)).  The unit word is not
    stored.
    """
    y: Dict[Word, int] = {}
    for _ in range(max_length):
        y_plus_1 = dict(y)
        y_plus_1[()] = y_plus_1.get((), 0) + 1
        new_y: Dict[Word, int] = {}
        for i in range(1, n_vars + 1):
            shifted = {
                (i,) + w: c for w, c in y_plus_1.items() if len(w) < max_length
            }
            for w, c in _mul_word_truncated(shifted, shifted, max_length).items():
                new_y[w] = new_y.get(w, 0) + c
        y = new_y
    return y


# -- an independent dense solve of the kernel's fixed point --------------------


def _dense_mats(mats, dim: int, n_coeffs: int) -> list:
    """Kernel rows as dense dim x dim matrices of coefficient lists."""
    mus = []
    for rows in mats:
        mu = [[[0] * n_coeffs for _ in range(dim)] for _ in range(dim)]
        for j, entries in rows.items():
            for t, zp in entries:
                for e, c in enumerate(zp[:n_coeffs]):
                    mu[j][t][e] += c
        mus.append(mu)
    return mus


def dense_solve(mats, dim: int, n_coeffs: int, modulus: int = 0) -> list:
    """P = sum_i (mu_i (P + I))^2 in Z[z]/(z^n_coeffs), dense, order by order.

    ``mats`` are kernel rows, one dict per letter: row -> [(col, z-coefficient
    tuple)].  Order k of P is taken from order k of the right-hand side, with
    orders below k already fixed, and recomputed until it stops changing.
    Only order k of P feeds back into order k, and only through the z^0
    parts of the mu_i, so with a strictly upper triangular z^0 part this
    settles after at most dim + 1 rounds.  Returns P as a dim x dim list of
    coefficient lists, each reduced into (-n/2, n/2] when a ``modulus`` n is
    given.  Nothing here is shared with ``freemoments._kernel``.
    """
    span = range(dim)
    mus = _dense_mats(mats, dim, n_coeffs)
    p = [[[0] * n_coeffs for _ in span] for _ in span]

    def a_order(mu, r):
        # order r of mu (P + I): sum over e of mu's z^e times order r - e of P + I
        return [
            [
                sum(
                    mu[j][t][e] * (p[t][l][r - e] + (t == l and e == r))
                    for t in span
                    for e in range(r + 1)
                )
                for l in span
            ]
            for j in span
        ]

    for k in range(n_coeffs):
        lower = [[a_order(mu, r) for r in range(k)] for mu in mus]
        for _ in range(dim + 2):
            rhs = [[0] * dim for _ in span]
            for mu, a in zip(mus, lower):
                a = a + [a_order(mu, k)]
                for r in range(k + 1):
                    for j in span:
                        for l in span:
                            rhs[j][l] += sum(a[r][j][t] * a[k - r][t][l] for t in span)
            if all(rhs[j][l] == p[j][l][k] for j in span for l in span):
                break
            for j in span:
                for l in span:
                    p[j][l][k] = rhs[j][l]
        else:
            raise AssertionError(f"order {k} of the dense solve did not settle")
    if modulus:
        half = (modulus - 1) // 2
        for row in p:
            for cell in row:
                cell[:] = [(c + half) % modulus - half for c in cell]
    return p


def dense_jacobi(mats, dim: int, n_coeffs: int, steps: int) -> list:
    """P after ``steps`` full sweeps P <- sum_i (mu_i (P + I))^2 from P = 0.

    Dense, in Z[z]/(z^n_coeffs): each sweep forms A_i = mu_i (P + I) and
    then A_i A_i for every letter, from the previous P only (a Jacobi
    sweep).  Returns P as a dim x dim list of coefficient lists, of any
    numbers the rows hold.  Nothing here is shared with
    ``freemoments._kernel`` or ``freemoments.reference``.
    """
    span = range(dim)
    orders = range(n_coeffs)

    def times(a, b):
        return [
            [
                [
                    sum(x * b[t][l][k - r] for t in span
                        for r, x in enumerate(a[j][t][: k + 1]) if x)
                    for k in orders
                ]
                for l in span
            ]
            for j in span
        ]

    mus = _dense_mats(mats, dim, n_coeffs)
    p = [[[0] * n_coeffs for _ in span] for _ in span]
    for _ in range(steps):
        q = [[[p[j][l][k] + (j == l and k == 0) for k in orders] for l in span]
             for j in span]
        new = [[[0] * n_coeffs for _ in span] for _ in span]
        for mu in mus:
            a = times(mu, q)
            for j, row in enumerate(times(a, a)):
                for l, cell in enumerate(row):
                    for k, c in enumerate(cell):
                        new[j][l][k] += c
        p = new
    return p


def random_kernel_rows(rng: random.Random, graded: bool):
    """Seeded kernel rows with a strictly upper triangular z^0 part.

    With ``graded``, a random phase per state and weight per letter decide
    which of z^0 and z^1 each entry may carry, so the rows have a Z/2
    grading; otherwise an entry takes either part or both.  Returns
    ``(mats, dim, grading)``, with the grading in ``_kernel``'s form
    ``(phases, letter weights, 2)`` when ``graded`` and None otherwise.
    """
    dim = rng.randint(1, 5)
    n_letters = rng.randint(1, 3)
    phase = [rng.randint(0, 1) for _ in range(dim)]
    chi = [rng.randint(0, 1) for _ in range(n_letters)]
    mats = []
    for i in range(n_letters):
        rows = {}
        for j in range(dim):
            entries = []
            for t in range(dim):
                if rng.random() < 0.45:
                    z0 = rng.randint(-4, 4) if t > j else 0
                    z1 = rng.randint(-4, 4)
                    if graded:
                        if (phase[j] + phase[t] + chi[i]) % 2:
                            z0 = 0
                        else:
                            z1 = 0
                    if z0 or z1:
                        entries.append((t, (z0, z1)))
            if entries:
                rows[j] = entries
        mats.append(rows)
    return mats, dim, ((phase, chi, 2) if graded else None)


def kernel_row_features(mats, grading) -> Tuple[bool, bool, bool]:
    """Whether two letters give the same product mu_i[j][t] Q[t][u] mu_i[u][s]
    at the same z-degree e (the kernel then adds both into one cell of B),
    whether some entry has both a z^0 and a z^1 part, and whether some row j
    has such products into columns s of both phases of ``grading`` (so its
    row of B holds cells of both phases; None is the trivial grading)."""
    letters = {}  # (j, t, u, s, e) -> letters that give it
    for i, mu in enumerate(mats):
        ends = [(u, s, e) for u, entries in mu.items() for s, zp in entries
                for e, c in enumerate(zp) if c]
        for j, entries in mu.items():
            for t, zp in entries:
                for e1, c1 in enumerate(zp):
                    if c1:
                        for u, s, e2 in ends:
                            letters.setdefault((j, t, u, s, e1 + e2), set()).add(i)
    shared = any(len(found) > 1 for found in letters.values())
    two_part = any(len(zp) > 1 and zp[0] and zp[1]
                   for mu in mats for entries in mu.values() for _, zp in entries)
    phases = {}  # j -> phases of the columns s that row j's products reach
    for j, _, _, s, _ in letters:
        phases.setdefault(j, set()).add(grading[0][s] if grading else 0)
    return shared, two_part, any(len(found) > 1 for found in phases.values())


# -- exact linear algebra helpers ---------------------------------------------------


def exact_det(matrix: List[List[Scalar]]) -> Scalar:
    """Determinant by Laplace expansion; fine for the 4x4 Hankel checks."""
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    total = Scalar(0)
    sign = Scalar(1)
    for j in range(n):
        entry = matrix[0][j]
        if entry:
            minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
            total = total + sign * entry * exact_det(minor)
        sign = -sign
    return total


def hankel_leading_minors(moment_values, size=4) -> List[Scalar]:
    """Leading principal minors of [m_{i+j}] with m_0 = 1."""
    ms = [Scalar(1)] + list(moment_values)
    out = []
    for k in range(1, size + 1):
        mat = [[ms[i + j] for j in range(k)] for i in range(k)]
        out.append(exact_det(mat))
    return out
