"""Randomized invariant suites, shared by module tests and the acceptance gate.

Each runner draws its own seeded generator so results are reproducible, and
asserts exact equality throughout (no tolerances anywhere).
"""

from __future__ import annotations

import math
import operator
import random
from fractions import Fraction

from freemoments import (
    NCPolynomial,
    Scalar,
    ZPoly,
    brute_moment,
    catalan,
    enumerate_nc_pairings,
    free_cumulants,
    moments,
    moments_from_cumulants,
    parse_polynomial,
    psemi_table,
    word_moment,
)
from freemoments.reference import (
    build_zq_star,
    coefficient,
    iterate_system,
    reduce_rep,
    rep_star,
)
from freemoments.ncpoly import split_constant

from helpers import (
    all_words,
    exp_power,
    hankel_leading_minors,
    random_construction,
    random_nonzero_scalar,
    random_poly,
    random_scalar,
    random_word,
)


def random_zpoly(rng, degree):
    return ZPoly(
        [random_scalar(rng, allow_imag=True, allow_frac=True) for _ in range(degree + 1)]
    )


def cut(poly, order):
    """The image of ``poly`` in C[z]/(z^(order+1)), as a ZPoly."""
    return ZPoly(poly.coeffs[: order + 1])


# -- scalar-series -----------------------------------------------------------------


def check_scalar_exactness(cases=200, seed=101):
    rng = random.Random(seed)
    for _ in range(cases):
        a = random_scalar(rng, allow_imag=True, allow_frac=True)
        b = random_scalar(rng, allow_imag=True, allow_frac=True)
        assert (a + b) - b == a
        assert a.re.denominator > 0 and a.im.denominator > 0


def check_scalar_string_roundtrip(cases=200, seed=102):
    rng = random.Random(seed)
    for _ in range(cases):
        s = random_scalar(rng, allow_imag=True, allow_frac=True)
        assert Scalar.from_string(str(s)) == s


def _random_part(rng):
    bound = 10**6 if rng.random() < 0.2 else 9
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def _random_gaussian(rng):
    """Parts of a Gaussian rational: real-only, pure imaginary, zero or general."""
    kind = rng.choice(("real", "imag", "zero", "general"))
    zero = Fraction(0)
    if kind == "real":
        return _random_part(rng), zero
    if kind == "imag":
        return zero, _random_part(rng) or Fraction(1)
    if kind == "zero":
        return zero, zero
    return _random_part(rng), _random_part(rng)


def _random_plain(rng):
    """An int, bool or Fraction operand."""
    kind = rng.choice(("int", "bool", "fraction"))
    if kind == "int":
        return rng.choice((0, 1, -1, rng.randint(-10**6, 10**6)))
    if kind == "bool":
        return rng.random() < 0.5
    return _random_part(rng)


_BINARY = {
    "+": (operator.add, lambda a, b, c, d: (a + c, b + d)),
    "-": (operator.sub, lambda a, b, c, d: (a - c, b - d)),
    "*": (operator.mul, lambda a, b, c, d: (a * c - b * d, a * d + b * c)),
    "/": (
        operator.truediv,
        lambda a, b, c, d: (
            (a * c + b * d) / (c * c + d * d),
            (b * c - a * d) / (c * c + d * d),
        ),
    ),
}


def _assert_result(got, want_parts, what):
    want = Scalar(*want_parts)
    assert type(got) is Scalar, what
    assert type(got.re) is Fraction and type(got.im) is Fraction, what
    assert got.re == want.re and got.im == want.im, what
    assert got == want and hash(got) == hash(want), what
    assert bool(got) == bool(want.re or want.im), what


def check_scalar_operators(cases=300, seed=118):
    """Every operator against the schoolbook formula, built through Scalar().

    Operands are Gaussian rationals of every shape, and int, bool and
    Fraction values on either side; a float on either side raises TypeError.
    """
    rng = random.Random(seed)
    for _ in range(cases):
        x_parts = _random_gaussian(rng)
        x = Scalar(*x_parts)
        y_parts = _random_gaussian(rng)
        plain = _random_plain(rng)
        operands = [(Scalar(*y_parts), y_parts), (plain, (Fraction(plain), Fraction(0)))]
        for y, (c, d) in operands:
            for name, (op, formula) in _BINARY.items():
                for left, right, parts in (
                    (x, y, x_parts + (c, d)),
                    (y, x, (c, d) + x_parts),
                ):
                    what = (name, left, right)
                    divisor = parts[2:]
                    if name == "/" and not any(divisor):
                        try:
                            op(left, right)
                        except ZeroDivisionError:
                            continue
                        raise AssertionError(f"no ZeroDivisionError for {what}")
                    _assert_result(op(left, right), formula(*parts), what)
            assert (x == y) == (x_parts == (c, d)), (x, y)
            assert (y == x) == (x_parts == (c, d)), (y, x)
        a, b = x_parts
        _assert_result(-x, (-a, -b), ("neg", x))
        _assert_result(x.conjugate(), (a, -b), ("conjugate", x))
        result = x * Scalar(*_random_gaussian(rng))
        for name in ("re", "im"):
            try:
                setattr(result, name, Fraction(1))
            except AttributeError:
                pass
            else:
                raise AssertionError("Scalar result is mutable")
        flt = rng.choice((0.5, -2.0, 0.0))
        for name, (op, _) in _BINARY.items():
            for left, right in ((x, flt), (flt, x)):
                try:
                    op(left, right)
                except TypeError:
                    continue
                raise AssertionError(f"float accepted by {name}: {left!r}, {right!r}")


def check_series_ring_laws(cases=200, seed=103):
    rng = random.Random(seed)
    one = ZPoly.constant(1)
    for _ in range(cases):
        a, b, c = (random_zpoly(rng, rng.randint(0, 8)) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert a + b == b + a
        assert a * one == a
        assert a + ZPoly() == a
        if a and b:
            assert (a * b).degree == a.degree + b.degree  # no zero divisors


def check_series_mul_vs_untruncated(cases=200, seed=104):
    rng = random.Random(seed)
    for _ in range(cases):
        order = rng.randint(0, 8)
        pa = random_zpoly(rng, rng.randint(0, order + 3))
        pb = random_zpoly(rng, rng.randint(0, order + 3))
        # cutting after z^M is a ring map: it commutes with + and *
        assert cut(cut(pa, order) * cut(pb, order), order) == cut(pa * pb, order)
        assert cut(pa, order) + cut(pb, order) == cut(pa + pb, order)


# -- ncpoly ---------------------------------------------------------------------------


def check_parser_roundtrip(cases=200, seed=105):
    rng = random.Random(seed)
    for _ in range(cases):
        n_vars = rng.randint(1, 3)
        poly = random_poly(
            rng, n_vars, max_terms=5, max_deg=4, allow_imag=True, allow_frac=True
        )
        assert parse_polynomial(str(poly), n_vars) == poly


def check_multiply_assoc_degree(cases=200, seed=106):
    rng = random.Random(seed)
    for _ in range(cases):
        n_vars = rng.randint(1, 3)
        p = random_poly(rng, n_vars, max_terms=3, max_deg=2, allow_frac=True)
        q = random_poly(rng, n_vars, max_terms=3, max_deg=2, allow_frac=True)
        r = random_poly(rng, n_vars, max_terms=2, max_deg=2, allow_frac=True)
        assert (p * q) * r == p * (q * r)
        assert (p * q).degree == p.degree + q.degree


# -- linrep ---------------------------------------------------------------------------


def check_linrep_soundness(cases=200, seed=107, max_len=5):
    rng = random.Random(seed)
    for _ in range(cases):
        n_vars = rng.randint(1, 2)
        rep, expanded = random_construction(rng, n_vars, rng.randint(1, 3), max_len)
        for word in all_words(n_vars, max_len):
            expected = expanded.get(word, ZPoly()) if word else ZPoly()
            got = coefficient(rep, word)
            if word:
                assert got == expected, (word, str(got), str(expected))
            else:
                assert not got


def check_rep_star_partial_sums(cases=100, seed=108, max_len=5):
    from freemoments.reference import rep_linear_combination, rep_variable

    rng = random.Random(seed)
    for _ in range(cases):
        n_vars = rng.randint(1, 2)
        rep, expanded = random_construction(rng, n_vars, rng.randint(0, 2), max_len)
        if any(mat[r][0] for mat in rep.mats for r in range(rep.dim)):
            rep = rep_linear_combination(
                ZPoly((1,)), rep, ZPoly(), rep_variable(1, n_vars, ZPoly((1,)))
            )
        starred = rep_star(rep)
        for word in all_words(n_vars, max_len):
            if not word:
                continue
            total = ZPoly()
            for k in range(1, len(word) + 1):
                total = total + exp_power(expanded, k, max_len).get(word, ZPoly())
            assert coefficient(starred, word) == total, word


def check_zq_star_dimension_bound(cases=200, seed=109):
    rng = random.Random(seed)
    for _ in range(cases):
        n_vars = rng.randint(1, 3)
        q = random_poly(
            rng, n_vars, max_terms=4, max_deg=3, allow_frac=True, allow_constant=False
        )
        rep = build_zq_star(q)
        assert rep.dim <= 2 * q.n_terms * q.degree + 2 * q.n_terms


# -- oracle ---------------------------------------------------------------------------


def check_pairing_catalan_counts(max_k=8):
    for k in range(max_k + 1):
        assert len(enumerate_nc_pairings(k)) == catalan(k)


def check_cross_oracle_words(max_len=8, n_vars=2):
    table = psemi_table(max_len, n_vars)
    for word in all_words(n_vars, max_len):
        if not word:
            continue
        assert word_moment(word) == Scalar(table.get(word, 0)), word


def check_brute_single_letter(max_order=12):
    p = NCPolynomial.variable(1, 1)
    for m in range(max_order + 1):
        expected = Scalar(catalan(m // 2)) if m % 2 == 0 else Scalar(0)
        assert brute_moment(p, m) == expected


def check_cumulant_roundtrip(cases=200, seed=110):
    rng = random.Random(seed)
    for _ in range(cases):
        length = rng.randint(1, 8)
        kappas = [random_scalar(rng, allow_imag=True, allow_frac=True) for _ in range(length)]
        ms = moments_from_cumulants(kappas)
        assert free_cumulants(ms) == kappas


def check_word_moment_traciality(cases=200, seed=111):
    rng = random.Random(seed)
    for _ in range(cases):
        word = random_word(rng, rng.randint(1, 3), min_len=1, max_len=8)
        base = word_moment(word)
        for r in range(1, len(word)):
            rotated = word[r:] + word[:r]
            assert word_moment(rotated) == base, (word, r)


def random_oracle_poly(rng):
    """1-3 variables, degree <= 4, rational and Gaussian-rational coefficients.

    About one in ten is constant-only and four in ten of the rest have a
    constant term; a coefficient part has a numerator and denominator up to
    10^6 about one time in five.  Coefficients are real, pure imaginary or
    general, never zero.
    """
    n_vars = rng.randint(1, 3)
    if rng.random() < 0.1:
        words = [()]
    else:
        words = [random_word(rng, n_vars, 1, 4) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.4:
            words.append(())
    terms = {}
    for word in words:
        coeff = Scalar(0)
        while not coeff:
            coeff = Scalar(*_random_gaussian(rng))
        terms[word] = coeff
    return NCPolynomial(n_vars, terms)


def check_brute_against_expansion(cases=220, seed=119, max_order=6, cap=10**4):
    """brute_moment against sum(coeff * word_moment(w)) over the terms of p^m.

    The reference expands p^m in NCPolynomial/Scalar arithmetic and reads
    each word's moment through ``word_moment``, so it shares neither the
    integer expansion nor the single division by lam^m with the oracle.
    """
    rng = random.Random(seed)
    seen = {"complex": 0, "constant_only": 0, "with_constant": 0, "big": 0}
    for _ in range(cases):
        p = random_oracle_poly(rng)
        coeffs = [c for _, c in p.terms()]
        seen["complex"] += any(c.im for c in coeffs)
        seen["constant_only"] += p.degree == 0 and not p.is_zero()
        seen["with_constant"] += p.degree > 0 and bool(p.coefficient(()))
        seen["big"] += any(
            part.denominator > 9 for c in coeffs for part in (c.re, c.im)
        )
        for m in range(max_order + 1):
            if p.n_terms ** m > cap:
                break
            max_len = max(16, p.degree * m)
            expected = sum(
                (
                    coeff * word_moment(word, max_length=max_len)
                    for word, coeff in (p ** m).unordered_terms()
                ),
                Scalar(0),
            )
            got = brute_moment(p, m)
            assert type(got.re) is Fraction and type(got.im) is Fraction
            assert got.re == expected.re and got.im == expected.im, (str(p), m)
    assert min(seen.values()) >= 10, seen


# -- engine ---------------------------------------------------------------------------

# the acceptance corpus: n in {1,2,3}, deg <= 3, m_p <= 4
CORPUS = [
    ("x1", 1),
    ("x1 + x2", 2),
    ("x1^2", 1),
    ("x1*x2 + x2*x1", 2),
    ("x1*x2*x1", 2),
    ("x1^2 + x2^2", 2),
    ("x1^3 - 3*x1 + x2", 2),
    ("x1^3", 1),
    ("x1*x2 + x2*x3", 3),
    ("x1^2 - x2^2 + x3", 3),
    ("2*x1*x2*x1 - x2 + 1", 2),
    ("1/2*x1^2 + 3/2*x2", 2),
]


def corpus_polynomials():
    return [(text, parse_polynomial(text, n_vars)) for text, n_vars in CORPUS]


def check_oracle_equivalence_corpus(max_order=8, expansion_cap=10**6):
    for text, poly in corpus_polynomials():
        mv = moments(poly, max_order)
        for m in range(1, max_order + 1):
            expected = brute_moment(poly, m, expansion_cap)
            assert mv.value(m) == expected, (text, m)


def check_stabilization(cases=200, seed=112, max_order=4):
    rng = random.Random(seed)
    for _ in range(cases):
        n_vars = rng.randint(1, 3)
        poly = random_poly(rng, n_vars, max_terms=3, max_deg=2, allow_frac=True)
        _, q = split_constant(poly)
        if q.is_zero():
            continue
        rep = build_zq_star(q)
        mats = reduce_rep(rep, max_order)
        steps = q.degree * max_order
        assert iterate_system(mats, rep.dim, max_order, steps) == iterate_system(
            mats, rep.dim, max_order, steps + 5
        )


def check_odd_vanishing(cases=200, seed=113, max_order=6):
    rng = random.Random(seed)
    for _ in range(cases):
        n_vars = rng.randint(1, 3)
        degree = rng.choice((1, 3))
        terms = {}
        for _ in range(rng.randint(1, 3)):
            terms[random_word(rng, n_vars, degree, degree)] = random_nonzero_scalar(
                rng, allow_frac=True
            )
        poly = NCPolynomial(n_vars, terms)
        if poly.is_zero():
            continue
        mv = moments(poly, max_order)
        for m in range(1, max_order + 1, 2):
            assert not mv.value(m), (str(poly), m)


def check_scaling_covariance(cases=200, seed=114, max_order=5):
    rng = random.Random(seed)
    for _ in range(cases):
        n_vars = rng.randint(1, 3)
        poly = random_poly(rng, n_vars, max_terms=3, max_deg=2, allow_frac=True)
        alpha = random_nonzero_scalar(rng, allow_frac=True)
        base = moments(poly, max_order)
        scaled = moments(poly.scale(alpha), max_order)
        power = Scalar(1)
        for m in range(1, max_order + 1):
            power = power * alpha
            assert scaled.value(m) == power * base.value(m), (str(poly), str(alpha), m)


def check_self_adjoint_reality(cases=200, seed=115, max_order=6):
    rng = random.Random(seed)
    for _ in range(cases):
        n_vars = rng.randint(1, 3)
        raw = random_poly(rng, n_vars, max_terms=3, max_deg=3, allow_frac=True)
        poly = raw + raw.adjoint()
        if poly.is_zero():
            continue
        assert poly.is_self_adjoint()
        mv = moments(poly, max_order)
        for value in mv.values:
            assert value.im == 0, str(poly)


def check_hankel_positivity(cases=200, seed=116):
    rng = random.Random(seed)
    for _ in range(cases):
        n_vars = rng.randint(1, 2)
        raw = random_poly(rng, n_vars, max_terms=2, max_deg=2, allow_frac=True)
        poly = raw + raw.adjoint()
        if poly.is_zero():
            continue
        mv = moments(poly, 6)
        for minor in hankel_leading_minors(mv.values, size=4):
            assert minor.im == 0 and minor.re >= 0, str(poly)


def random_differential_poly(rng, max_terms=3, max_deg=4):
    """Complex and rational coefficients, repeated words, unused variables.

    Variables above ``used`` never appear, and a word drawn twice has its
    coefficients summed (they may cancel), so the polynomial can be zero.
    """
    n_vars = rng.randint(1, 4)
    used = rng.randint(1, n_vars)
    poly = NCPolynomial.zero(n_vars)
    words = []
    for _ in range(rng.randint(1, max_terms)):
        if words and rng.random() < 0.3:
            word = rng.choice(words)
        else:
            word = random_word(rng, used, 0, max_deg)
        words.append(word)
        coeff = random_nonzero_scalar(rng, allow_imag=True, allow_frac=True)
        poly = poly + NCPolynomial(n_vars, {word: coeff})
    return poly


def check_fast_vs_reference(cases=60, seed=117, max_order=4, brute_cap=10**4):
    """moments() against the paper's sweeps and, where cheap, the oracle.

    The reference sweeps run on the unscaled rational coefficients, in the
    slow Scalar ring, so three drawn terms and M = 4 keep this to seconds.
    """
    rng = random.Random(seed)
    for _ in range(cases):
        poly = random_differential_poly(rng)
        if poly.is_zero():
            continue
        c, q = split_constant(poly)
        mv = moments(poly, max_order)
        tau_q = [Scalar(1)] + [Scalar(0)] * max_order
        if not q.is_zero():
            rep = build_zq_star(q)
            # the trie automaton: one state per proper prefix, then the start
            # state, which is also final
            prefixes = {w[:j] for w, _ in q.terms() for j in range(1, len(w))}
            assert mv.rep_dim == 1 + len(prefixes), str(poly)
            assert mv.rep_dim <= rep.dim, str(poly)
            series = iterate_system(
                reduce_rep(rep, max_order), rep.dim, max_order, q.degree * max_order
            )
            tau_q[1:] = [series.coefficient(m) for m in range(1, max_order + 1)]
        for m in range(1, max_order + 1):
            expected = sum(
                (Scalar(math.comb(m, k)) * c ** k * tau_q[m - k] for k in range(m + 1)),
                Scalar(0),
            )
            assert mv.value(m) == expected, (str(poly), m)
            if poly.n_terms ** m <= brute_cap:
                assert mv.value(m) == brute_moment(poly, m), (str(poly), m)
