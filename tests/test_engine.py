import copy
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
from freemoments.engine import complexity_probe, iterate_system, reduce_rep
from freemoments.linrep import rep_variable

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


def test_moments_shifted_variable():
    mv = moments(parse_polynomial("x1 + 1", 1), 2)
    assert [str(v) for v in mv.values] == ["1", "2"]


def test_moments_metadata():
    p = parse_polynomial("x1*x2 + x2*x1", 2)
    mv = moments(p, 8)
    assert mv.max_order == 8
    assert mv.rep_dim == 4
    assert mv.n_vars == 2
    assert mv.degree == 2
    assert mv.n_terms == 2


def test_moments_metadata_complex():
    # complex coefficients double the kernel rows, not the reported N:
    # start, prefixes x1 and x2, final
    mv = moments(parse_polynomial("i*x1*x2 - i*x2*x1", 2), 6)
    assert mv.rep_dim == 4
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
