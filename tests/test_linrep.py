import pytest

from freemoments import (
    InvalidPolynomialError,
    NCPolynomial,
    Scalar,
    VariableMismatchError,
    ZPoly,
    parse_polynomial,
)
from freemoments.reference import (
    build_zq_star,
    coefficient,
    rep_linear_combination,
    rep_product,
    rep_star,
    rep_variable,
)

import properties

ONE = ZPoly((1,))
Z = ZPoly.z()


def test_rep_variable_examples():
    rep = rep_variable(1, 2)
    assert rep.dim == 2
    assert coefficient(rep, (1,)) == ONE
    assert coefficient(rep, (2,)) == ZPoly()
    assert coefficient(rep, (1, 1)) == ZPoly()  # nilpotent

    scaled = rep_variable(1, 2, ZPoly.z(3))
    assert coefficient(scaled, (1,)) == ZPoly.z(3)


def test_rep_variable_index_range():
    with pytest.raises(IndexError):
        rep_variable(3, 2)
    with pytest.raises(IndexError):
        rep_variable(0, 2)


def test_rep_product_examples():
    prod = rep_product(rep_variable(1, 2), rep_variable(2, 2))
    assert prod.dim == 4
    assert coefficient(prod, (1, 2)) == ONE
    assert coefficient(prod, (2, 1)) == ZPoly()
    assert coefficient(prod, ()) == ZPoly()

    square = rep_product(rep_variable(1, 2), rep_variable(1, 2))
    assert coefficient(square, (1, 1)) == ONE
    assert coefficient(square, (1,)) == ZPoly()


def test_rep_product_nvars_mismatch():
    with pytest.raises(VariableMismatchError):
        rep_product(rep_variable(1, 1), rep_variable(1, 2))


def test_rep_linear_combination_examples():
    lc = rep_linear_combination(ONE, rep_variable(1, 2), ONE, rep_variable(2, 2))
    assert lc.dim == 6
    assert coefficient(lc, (1,)) == ONE
    assert coefficient(lc, (2,)) == ONE
    assert coefficient(lc, (1, 2)) == ZPoly()

    zeroed = rep_linear_combination(
        ZPoly(), rep_variable(1, 2), ZPoly(), rep_variable(2, 2)
    )
    for word in [(1,), (2,), (1, 2), (1, 1)]:
        assert coefficient(zeroed, word) == ZPoly()

    zscaled = rep_linear_combination(Z, rep_variable(1, 2), ZPoly(), rep_variable(2, 2))
    assert coefficient(zscaled, (1,)) == Z


def test_rep_linear_combination_scales_once_per_word():
    # a two-letter word must pick up the scalar once, not once per letter
    word_rep = rep_product(rep_variable(1, 2), rep_variable(1, 2))
    lc = rep_linear_combination(
        ZPoly.constant(2), word_rep, ZPoly(), rep_variable(2, 2)
    )
    assert coefficient(lc, (1, 1)) == ZPoly.constant(2)


def test_rep_star_examples():
    star = rep_star(rep_variable(1, 2))
    assert star.dim == 2
    for k in range(1, 5):
        assert coefficient(star, (1,) * k) == ONE
    assert coefficient(star, (1, 2)) == ZPoly()
    assert coefficient(star, (2, 1)) == ZPoly()
    assert coefficient(star, ()) == ZPoly()  # star starts at k = 1

    zstar = rep_star(rep_variable(1, 1, Z))
    for k in range(1, 5):
        assert coefficient(zstar, (1,) * k) == ZPoly([0] * k + [1])


def test_rep_star_rejects_nonzero_first_column():
    starred = rep_star(rep_variable(1, 1))
    with pytest.raises(InvalidPolynomialError):
        rep_star(starred)
    # the pass-through linear combination restores the invariant
    wrapped = rep_linear_combination(ONE, starred, ZPoly(), rep_variable(1, 1))
    double = rep_star(wrapped)
    # (X1*)* has coefficient 2^(m-1) at X1^m
    for m in range(1, 6):
        assert coefficient(double, (1,) * m) == ZPoly.constant(2 ** (m - 1))


def test_build_zq_star_examples():
    rep = build_zq_star(parse_polynomial("x1", 1))
    assert rep.dim == 2
    for k in range(1, 5):
        assert coefficient(rep, (1,) * k) == ZPoly([0] * k + [1])
    assert coefficient(rep, (1, 1, 1)) == ZPoly([0, 0, 0, 1])

    rep2 = build_zq_star(parse_polynomial("x1 + x2", 2))
    assert coefficient(rep2, (1, 2)) == ZPoly([0, 0, 1])
    assert coefficient(rep2, ()) == ZPoly()

    rep3 = build_zq_star(parse_polynomial("x1*x2 + x2*x1 + x1^2", 2))
    assert rep3.dim <= 16  # 2*m_q*deg(q) + 2*m_q with m_q = 3, deg = 2


def test_build_zq_star_rejects_bad_input():
    with pytest.raises(InvalidPolynomialError):
        build_zq_star(NCPolynomial.zero(1))
    with pytest.raises(InvalidPolynomialError):
        build_zq_star(parse_polynomial("x1 + 1", 1))


def test_dimension_accounting():
    a = rep_variable(1, 2)           # N = 2
    b = rep_product(a, a)            # N = 4
    assert b.dim == a.dim + a.dim
    c = rep_linear_combination(ONE, a, ONE, b)
    assert c.dim == a.dim + b.dim + 2
    assert rep_star(c).dim == c.dim


def test_coefficient_letter_range():
    rep = rep_variable(1, 2)
    with pytest.raises(IndexError):
        coefficient(rep, (3,))


def test_dump_golden():
    rep = rep_variable(1, 2, ZPoly.z(Scalar("3/2")))
    assert rep.dump() == (
        "X1:\n"
        "  [0, 3/2*z]\n"
        "  [0, 0]\n"
        "X2:\n"
        "  [0, 0]\n"
        "  [0, 0]"
    )
    lc = rep_linear_combination(ONE, rep_variable(1, 1), Z, rep_variable(1, 1))
    assert lc.dump() == (
        "X1:\n"
        "  [0, 0, 1, 0, 1, 1 + z]\n"
        "  [0, 0, 1, 0, 0, 1]\n"
        "  [0, 0, 0, 0, 0, 0]\n"
        "  [0, 0, 0, 0, 1, z]\n"
        "  [0, 0, 0, 0, 0, 0]\n"
        "  [0, 0, 0, 0, 0, 0]"
    )


def test_soundness_suite():
    properties.check_linrep_soundness()


def test_star_partial_sums_suite():
    properties.check_rep_star_partial_sums()


def test_dimension_bound_suite():
    properties.check_zq_star_dimension_bound()
