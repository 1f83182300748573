"""Shared test utilities: random generators and independent mini-oracles.

The series expander here is deliberately separate from the package's linear
representation code: it manipulates word -> z-polynomial dictionaries
directly, so representation soundness tests compare two genuinely different
computations.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Dict, List, Tuple

from freemoments import NCPolynomial, Scalar, ZPoly
from freemoments.reference import (
    LinearRepresentation,
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
