import copy
import math
import pickle
from fractions import Fraction

import pytest

from freemoments import (
    NCPolynomial,
    Scalar,
    ZPoly,
    brute_moment,
    build_zq_star,
    catalan,
    free_cumulants,
    moments,
    parse_polynomial,
)
from freemoments import _kernel
from freemoments.cli import complexity_probe
from freemoments.engine import MAX_ORDER
from freemoments.reference import iterate_system, reduce_rep, rep_variable

import properties


def test_reduce_rep_examples():
    rep = rep_variable(1, 1, ZPoly.z(3))
    mats = reduce_rep(rep, 4)
    assert mats[0][0][1] == ZPoly([0, 3])
    mats0 = reduce_rep(rep, 0)
    assert mats0[0][0][1] == ZPoly()  # 3z cut after z^0
    assert mats0[0][1][0] == ZPoly()


def test_iterate_semicircular_catalan():
    rep = build_zq_star(parse_polynomial("x1", 1))
    mats = reduce_rep(rep, 8)
    series = iterate_system(mats, rep.dim, 8, 8)
    assert [str(c) for c in series.coeffs] == [
        "0", "0", "1", "0", "2", "0", "5", "0", "14",
    ]


def test_iterate_two_variables():
    q = parse_polynomial("x1 + x2", 2)
    rep = build_zq_star(q)
    mats = reduce_rep(rep, 4)
    series = iterate_system(mats, rep.dim, 4, 4)
    assert series.coefficient(2) == Scalar(2)
    assert series.coefficient(4) == Scalar(8)


def test_iterate_stabilizes():
    q = parse_polynomial("x1*x2*x1 - x2", 2)
    rep = build_zq_star(q)
    mats = reduce_rep(rep, 6)
    steps = q.degree * 6
    assert iterate_system(mats, rep.dim, 6, steps) == iterate_system(
        mats, rep.dim, 6, steps + 5
    )


def test_iterate_requires_positive_steps():
    rep = build_zq_star(parse_polynomial("x1", 1))
    mats = reduce_rep(rep, 2)
    with pytest.raises(ValueError):
        iterate_system(mats, rep.dim, 2, 0)


def test_iterate_kernels_agree():
    # rational and complex inputs fall back to Scalar kernel entries, which
    # meet the kernel's int zeros; every input must give the integer path's
    # values, as Scalars from z^0 on
    for text, n_vars in [
        ("1/2*x1 + x2^2", 2),
        ("i*x1 + x2", 2),
        ("i*x1*x2 - i*x2*x1", 2),
        ("x1*x2", 2),
        ("x1*x2 + x2*x1", 2),
    ]:
        q = parse_polynomial(text, n_vars)
        rep = build_zq_star(q)
        mats = reduce_rep(rep, 6)
        direct = iterate_system(mats, rep.dim, 6, q.degree * 6)
        assert all(type(c) is Scalar for c in direct.coeffs), text
        scaled = moments(q, 6)  # runs the integer path after rescaling
        for m in range(1, 7):
            assert direct.coefficient(m) == scaled.value(m), (text, m)


def test_moments_cumulant_example():
    mv = moments(parse_polynomial("x1^3 - 3*x1", 1), 4)
    assert mv.value(2) == Scalar(2)
    assert mv.value(4) == Scalar(6)
    kappas = free_cumulants(mv.values)
    assert kappas[3] == Scalar(-2)


def test_moments_constant_polynomial():
    mv = moments(parse_polynomial("7", 1), 3)
    assert [str(v) for v in mv.values] == ["7", "49", "343"]
    assert mv.rep_dim == 0
    # a constant has no words, so the automaton is empty and tau(c^m) = c^m
    for text in ("0", "1/3", "2 + i"):
        c = parse_polynomial(text, 1).coefficient(())
        mv = moments(parse_polynomial(text, 1), 6)
        assert mv.rep_dim == 0
        assert mv.values == tuple(c**m for m in range(1, 7)), text
    # one term per order: summing over every k <= m instead would make the
    # top order cost O(M^2) bigint products
    mv = moments(parse_polynomial("2 + i", 1), MAX_ORDER)
    assert mv.values[-1] == Scalar(2, 1) ** MAX_ORDER


def test_moments_memory_independent_of_unused_variables():
    # rows exist only for the letters that occur, so a million declared
    # variables cost nothing (one row dict each used to take about 200 MB)
    import tracemalloc

    p = parse_polynomial("x1", 10**6)
    tracemalloc.start()
    try:
        mv = moments(p, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [str(v) for v in mv.values] == ["0", "1"]
    assert peak < 20 * 2**20


def test_moments_shifted_variable():
    mv = moments(parse_polynomial("x1 + 1", 1), 2)
    assert [str(v) for v in mv.values] == ["1", "2"]


def test_moments_metadata():
    p = parse_polynomial("x1*x2 + x2*x1", 2)
    mv = moments(p, 8)
    assert mv.max_order == 8
    assert mv.rep_dim == 3
    assert mv.n_vars == 2
    assert mv.degree == 2
    assert mv.n_terms == 2


def test_moments_metadata_complex():
    # a complex weight is one int, so N is that of the real twin:
    # prefixes x1 and x2, then the start state, which is also final
    mv = moments(parse_polynomial("i*x1*x2 - i*x2*x1", 2), 6)
    assert mv.rep_dim == 3
    assert [str(v) for v in mv.values] == ["0", "2", "0", "10", "0", "66"]


def test_moment_vector_deepcopy_and_pickle():
    mv = moments(parse_polynomial("i*x1*x2 - 1/2*x2*x1 + 1", 2), 4)
    for clone in (copy.deepcopy(mv), pickle.loads(pickle.dumps(mv))):
        assert clone == mv
        assert [str(v) for v in clone.values] == [str(v) for v in mv.values]


def test_moments_rational_scaling():
    # denominators are cleared internally; results stay exact rationals
    mv = moments(parse_polynomial("1/2*x1", 1), 4)
    assert mv.value(2) == Scalar(Fraction(1, 4))
    assert mv.value(4) == Scalar(Fraction(2, 16))


def test_moments_rejects_bad_order():
    with pytest.raises(ValueError):
        moments(NCPolynomial.variable(1, 1), 0)
    for max_order in (MAX_ORDER + 1, 10**20):
        for p in (NCPolynomial.variable(1, 1), parse_polynomial("2", 1)):
            with pytest.raises(ValueError, match="between 1 and 10000"):
                moments(p, max_order)


def test_moment_value_rejects_order_below_one():
    mv = moments(parse_polynomial("x1", 1), 4)
    for m in (0, -1, 5, 100):
        with pytest.raises(IndexError, match=rf"moment order {m} outside 1\.\.4"):
            mv.value(m)
    assert mv.value(4) == Scalar(2)


def test_solve_rejects_z0_cycle():
    # a z^0 self-loop, and a z^0 cycle through two states: neither z^0 part
    # is strictly upper triangular, so the solve refuses both up front
    for mats in ([{0: [(0, (1,))]}], [{0: [(1, (1,))], 1: [(0, (1,))]}]):
        with pytest.raises(AssertionError, match="not nilpotent"):
            _kernel.solve(mats, 2, 3)


def test_solve_modulus_congruent_to_plain_solve():
    # seeded random rows with a strictly upper triangular z^0 part: reducing
    # each order modulo n keeps every cell congruent to the exact solve and
    # inside (-n/2, n/2]
    import random

    rng = random.Random(1101)
    for case in range(40):
        dim = rng.randint(1, 6)
        n_coeffs = rng.randint(1, 6)
        mats = []
        for _ in range(rng.randint(1, 3)):
            rows = {}
            for j in range(dim):
                entries = []
                for t in range(dim):
                    if rng.random() < 0.5:
                        z0 = rng.randint(-5, 5) if t > j else 0
                        z1 = rng.randint(-5, 5)
                        if z0 or z1:
                            entries.append((t, (z0, z1)))
                if entries:
                    rows[j] = entries
            mats.append(rows)
        plain = _kernel.solve(mats, dim, n_coeffs)
        for modulus in (2, 97, 1000, 2**40 + 1):
            reduced = _kernel.solve(mats, dim, n_coeffs, modulus)
            zeros = [0] * n_coeffs
            for j in set(plain) | set(reduced):
                row, row_mod = plain.get(j, {}), reduced.get(j, {})
                for l in set(row) | set(row_mod):
                    exact, cell = row.get(l, zeros), row_mod.get(l, zeros)
                    for k in range(n_coeffs):
                        assert (exact[k] - cell[k]) % modulus == 0, (case, modulus)
                        assert -modulus < 2 * cell[k] <= modulus, (case, modulus)


def test_complex_decode():
    # (2+3i) s is normal with tau(((2+3i) s)^m) = (2+3i)^m Catalan(m/2)
    c = Scalar(2, 3)
    mv = moments(parse_polynomial("(2+3*i)*x1", 1), 40)
    quadrants = set()
    for m in range(1, 41):
        expected = c**m * catalan(m // 2) if m % 2 == 0 else Scalar(0)
        assert mv.value(m) == expected, m
        re, im = mv.value(m).re, mv.value(m).im
        if re and im:
            quadrants.add((re > 0, im > 0))
    # the decode splits v = a + b*r with every sign pattern of (a, b)
    assert len(quadrants) == 4
    # a real word beside a complex one, against the oracle
    p = parse_polynomial("(-5+7*i)*x1 + x1*x2*x1", 2)
    mv = moments(p, 8)
    for m in range(1, 9):
        assert mv.value(m) == brute_moment(p, m), m
    # i s^2 at M = 41: tau = i^m Catalan(m), and at m = 41 |Im| is within
    # a factor 500 of the norm bound B^M = 4^41 the decode is sized for
    i = Scalar(0, 1)
    mv = moments(parse_polynomial("i*x1^2", 1), 41)
    for m in range(1, 42):
        assert mv.value(m) == i**m * catalan(m), m
    top = mv.value(41).im
    assert top == catalan(41)
    assert 4**41 > top > 4**41 // 500


def test_moments_matches_oracle_smoke():
    polys = [
        ("x1^2 - 2", 1),
        ("x1*x2 - x2*x1", 2),
        ("i*x1", 1),
        ("1/2*i*x1 - x2^2", 2),  # complex and fractional together
    ]
    for text, n_vars in polys:
        p = parse_polynomial(text, n_vars)
        mv = moments(p, 6)
        for m in range(1, 7):
            assert mv.value(m) == brute_moment(p, m), (text, m)


def test_high_degree_inputs():
    # long words give long z^0 chains of prefix states in the trie
    assert moments(parse_polynomial("x1^80", 1), 1).value(1) == Scalar(catalan(40))
    assert moments(parse_polynomial("x1^40", 1), 2).value(2) == Scalar(catalan(40))
    for text, n_vars, max_order in [
        ("(x1+x2)^6", 2, 2),
        ("i*x1^7 - i*x2^7 + 1/2*x1*x2", 2, 3),
    ]:
        p = parse_polynomial(text, n_vars)
        mv = moments(p, max_order)
        for m in range(1, max_order + 1):
            assert mv.value(m) == brute_moment(p, m), (text, m)


def test_closed_forms_past_oracle_reach():
    # s1 + s2 is semicircular of variance 2: a single-letter term per
    # variable, i.e. z self-loops on the start state
    mv = moments(parse_polynomial("x1 + x2", 2), 64)
    for m in range(1, 65):
        expected = 2 ** (m // 2) * catalan(m // 2) if m % 2 == 0 else 0
        assert mv.value(m) == Scalar(expected), m
    # a complex coefficient: the answer is decoded from one int of Z/(r^2 + 1)
    mv = moments(parse_polynomial("i*x1", 1), 40)
    for m in range(1, 41):
        expected = (-1) ** (m // 2) * catalan(m // 2) if m % 2 == 0 else 0
        assert mv.value(m) == Scalar(expected), m
    # cleared denominators (lam = 3) together with the binomial recombination
    mv = moments(parse_polynomial("1/3*x1 + 2", 1), 24)
    for m in range(1, 25):
        expected = sum(
            Fraction(math.comb(m, 2 * k) * 2 ** (m - 2 * k) * catalan(k), 9**k)
            for k in range(m // 2 + 1)
        )
        assert mv.value(m) == Scalar(expected), m
    # lam = 3 comes from the constant alone
    mv = moments(parse_polynomial("x1 + 1/3", 1), 30)
    for m in range(1, 31):
        expected = sum(
            math.comb(m, 2 * k) * Fraction(1, 3) ** (m - 2 * k) * catalan(k)
            for k in range(m // 2 + 1)
        )
        assert mv.value(m) == Scalar(expected), m
    # a complex constant with a real q: the recombination's im part
    i = Scalar(0, 1)
    mv = moments(parse_polynomial("x1 + i", 1), 24)
    for m in range(1, 25):
        expected = sum(
            (math.comb(m, 2 * k) * catalan(k) * i ** (m - 2 * k)
             for k in range(m // 2 + 1)),
            Scalar(0),
        )
        assert mv.value(m) == expected, m
    # Nica-Speicher: the commutator i(s1 s2 - s2 s1) and the anticommutator
    # s1 s2 + s2 s1 have the same distribution
    commutator = moments(parse_polynomial("i*x1*x2 - i*x2*x1", 2), 64)
    anticommutator = moments(parse_polynomial("x1*x2 + x2*x1", 2), 64)
    assert commutator.values == anticommutator.values
    # Fuss-Catalan: tau((s1 s2^2 s1)^m) = C(3m, m) / (2m + 1)
    mv = moments(parse_polynomial("x1*x2^2*x1", 2), 40)
    for m in range(1, 41):
        assert mv.value(m) == Scalar(math.comb(3 * m, m) // (2 * m + 1)), m


def test_iterate_order_zero():
    rep = build_zq_star(parse_polynomial("x1", 1))
    mats = reduce_rep(rep, 0)
    series = iterate_system(mats, rep.dim, 0, 1)
    assert series == ZPoly()
    assert series.coefficient(0) == Scalar(0)


def test_concurrent_requests():
    import threading

    polys = [
        parse_polynomial(text, n)
        for text, n in [("x1 + x2", 2), ("x1^2", 1), ("x1*x2 + x2*x1", 2)]
    ]
    expected = [moments(p, 8).values for p in polys]
    results = [[None] * 4 for _ in polys]

    def work(poly_idx, slot):
        results[poly_idx][slot] = moments(polys[poly_idx], 8).values

    threads = [
        threading.Thread(target=work, args=(i, s))
        for i in range(len(polys))
        for s in range(4)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for i, per_poly in enumerate(results):
        assert all(r == expected[i] for r in per_poly)


def test_complexity_probe_shape():
    p = parse_polynomial("x1*x2 + x2*x1", 2)
    report = complexity_probe(p, [2, 4, 6], expansion_cap=10**4)
    assert len(report.rows) == 3
    for row in report.rows:
        assert row.engine_seconds >= 0
        assert not row.naive_capped
        assert row.naive_seconds is not None
    assert report.engine_slope is not None

    capped = complexity_probe(p, [40], expansion_cap=10**4)
    assert capped.rows[0].naive_capped
    assert capped.rows[0].naive_seconds is None
    assert capped.engine_slope is None  # one point fits no slope


def test_oracle_equivalence_suite():
    properties.check_oracle_equivalence_corpus()


def test_stabilization_suite():
    properties.check_stabilization()


def test_odd_vanishing_suite():
    properties.check_odd_vanishing()


def test_scaling_covariance_suite():
    properties.check_scaling_covariance()


def test_self_adjoint_reality_suite():
    properties.check_self_adjoint_reality()


def test_hankel_positivity_suite():
    properties.check_hankel_positivity()


def test_fast_vs_reference_suite():
    properties.check_fast_vs_reference()
