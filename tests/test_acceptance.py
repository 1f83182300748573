"""Acceptance gate: every release criterion, one printed line per criterion.

All comparisons are exact (integer/rational equality, never tolerances); the
only numeric budgets are wall-clock ceilings.  Run with ``pytest -s`` to see
the per-criterion lines interleaved; they are also written to the real stdout
so they appear even under capture.
"""

import sys
import time

import pytest

from freemoments import (
    CapExceededError,
    Scalar,
    brute_moment,
    build_zq_star,
    catalan,
    free_cumulants,
    moments,
    parse_polynomial,
    psemi_table,
    word_moment,
)
from freemoments.reference import iterate_system, reduce_rep
from freemoments.ncpoly import split_constant

import properties
from helpers import all_words


def _report(number: int, ok: bool, detail: str):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}"
    print(line)
    if sys.stdout is not sys.__stdout__:
        print(line, file=sys.__stdout__)
    sys.__stdout__.flush()


def test_criterion_1_semicircular_moments():
    start = time.perf_counter()
    mv = moments(parse_polynomial("x1", 1), 16)
    elapsed = time.perf_counter() - start
    expected_even = [1, 2, 5, 14, 42, 132, 429, 1430]
    ok = all(mv.value(m) == Scalar(0) for m in range(1, 17, 2))
    ok = ok and [mv.value(2 * k) for k in range(1, 9)] == [
        Scalar(v) for v in expected_even
    ]
    ok = ok and elapsed < 5.0
    _report(1, ok, f"semicircular moments to order 16 exact in {elapsed:.2f}s")
    assert ok


def test_criterion_2_fourth_cumulant():
    start = time.perf_counter()
    p = parse_polynomial("x1^3 - 3*x1", 1)
    assert brute_moment(p, 2) == Scalar(2)  # oracle prerequisite
    mv = moments(p, 4)
    kappas = free_cumulants(mv.values)
    elapsed = time.perf_counter() - start
    ok = kappas[3] == Scalar(-2) and mv.value(2) == Scalar(2) and elapsed < 5.0
    _report(2, ok, f"kappa_4(x1^3 - 3*x1) = -2 exactly in {elapsed:.2f}s")
    assert ok


def test_criterion_3_oracle_equivalence_corpus():
    start = time.perf_counter()
    corpus = properties.corpus_polynomials()
    assert len(corpus) >= 10
    failures = []
    for text, poly in corpus:
        mv = moments(poly, 8)
        for m in range(1, 9):
            if mv.value(m) != brute_moment(poly, m):
                failures.append((text, m))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 120.0
    _report(
        3,
        ok,
        f"engine = oracle on {len(corpus)} polynomials, m <= 8, "
        f"in {elapsed:.1f}s",
    )
    assert ok, failures


def test_criterion_4_cross_oracle_agreement():
    table = psemi_table(8, 2)
    mismatches = [
        word
        for word in all_words(2, 8)
        if word and word_moment(word) != Scalar(table.get(word, 0))
    ]
    catalan_ok = all(
        word_moment((1,) * (2 * k)) == Scalar(catalan(k)) for k in range(0, 5)
    )
    ok = not mismatches and catalan_ok
    _report(4, ok, "word_moment = psemi coefficient on all 2-letter words to length 8")
    assert ok, mismatches


def test_criterion_5_size_bound():
    violations = []
    for text, poly in properties.corpus_polynomials():
        _, q = split_constant(poly)
        if q.is_zero():
            continue
        rep = build_zq_star(q)
        bound = 2 * q.n_terms * q.degree + 2 * q.n_terms
        if rep.dim > bound:
            violations.append((text, rep.dim, bound))
    ok = not violations
    _report(5, ok, "representation size N <= 2*m_q*deg(q) + 2*m_q on the corpus")
    assert ok, violations


def test_criterion_6_stabilization():
    failures = []
    for text, poly in properties.corpus_polynomials():
        _, q = split_constant(poly)
        if q.is_zero():
            continue
        rep = build_zq_star(q)
        mats = reduce_rep(rep, 8)
        steps = q.degree * 8
        if iterate_system(mats, rep.dim, 8, steps) != iterate_system(
            mats, rep.dim, 8, steps + 5
        ):
            failures.append(text)
    ok = not failures
    _report(6, ok, "iteration is stable at T = deg(q)*M vs T + 5 on the corpus")
    assert ok, failures


def test_criterion_7_tractability():
    p = parse_polynomial("x1*x2 + x2*x1", 2)

    start = time.perf_counter()
    mv = moments(p, 64)
    engine_elapsed = time.perf_counter() - start

    with pytest.raises(CapExceededError):
        brute_moment(p, 64)  # 2^64 monomials against the 10^6 cap

    naive_ok = all(
        moments(p, m).value(m) == brute_moment(p, m) for m in (10, 12)
    )

    m64 = mv.value(64)
    ok = engine_elapsed < 60.0 and naive_ok and m64.im == 0 and m64.re > 0
    _report(
        7,
        ok,
        f"M = 64 in {engine_elapsed:.2f}s while the naive expansion is capped "
        f"(naive matches at M <= 12)",
    )
    assert ok


def test_criterion_8_invariant_suites():
    suites = [
        properties.check_scalar_exactness,
        properties.check_scalar_string_roundtrip,
        properties.check_series_ring_laws,
        properties.check_series_mul_vs_untruncated,
        properties.check_parser_roundtrip,
        properties.check_multiply_assoc_degree,
        properties.check_linrep_soundness,
        properties.check_rep_star_partial_sums,
        properties.check_zq_star_dimension_bound,
        properties.check_pairing_catalan_counts,
        properties.check_cross_oracle_words,
        properties.check_brute_single_letter,
        properties.check_cumulant_roundtrip,
        properties.check_word_moment_traciality,
        properties.check_stabilization,
        properties.check_odd_vanishing,
        properties.check_scaling_covariance,
        properties.check_self_adjoint_reality,
        properties.check_hankel_positivity,
    ]
    failed = []
    for suite in suites:
        try:
            suite()
        except AssertionError:
            failed.append(suite.__name__)
    ok = not failed
    _report(8, ok, f"all {len(suites)} randomized invariant suites pass")
    assert ok, failed
