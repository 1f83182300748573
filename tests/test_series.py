from freemoments import Scalar, ZPoly

import properties


def test_add_examples():
    assert ZPoly([1, 2]) + ZPoly([0, 3]) == ZPoly([1, 5])
    a = ZPoly([2, -1, 3])
    assert a + ZPoly() == a
    assert ZPoly([1, 1]) + ZPoly([0, 0, 1]) == ZPoly([1, 1, 1])
    assert ZPoly([1, 0, 2]) + ZPoly([0, 0, -2]) == ZPoly([1])  # cancels z^2


def test_mul_examples():
    z = ZPoly.z()
    assert z * z == ZPoly([0, 0, 1])
    ones = ZPoly([1, 1, 1])
    assert ones * ones == ZPoly([1, 2, 3, 2, 1])
    assert ones * ZPoly() == ZPoly()


def test_length_invariant():
    # no trailing zeros: equal polynomials have equal coefficient tuples
    s = ZPoly([1, 0, 0, 0])
    assert s.coeffs == (Scalar(1),)
    assert s == ZPoly.constant(1)
    assert ZPoly([0, 0]).coeffs == ()
    assert s.coefficient(3) == Scalar(0)


def test_identity_and_zero():
    one = ZPoly.constant(1)
    a = ZPoly([3, 0, -2, 1, 5])
    assert a * one == a
    assert a + ZPoly() == a
    assert not a + ZPoly([-3, 0, 2, -1, -5])


def test_zpoly_basics():
    p = ZPoly([1, 0, 2])  # 1 + 2z^2
    q = ZPoly.z(3)        # 3z
    assert p.degree == 2
    assert (p * q) == ZPoly([0, 3, 0, 6])
    assert p + ZPoly([-1]) == ZPoly([0, 0, 2])
    assert not ZPoly([0, 0])
    assert str(ZPoly([0, 1])) == "z"
    assert str(ZPoly([Scalar(0), Scalar(3)])) == "3*z"
    assert str(ZPoly()) == "0"


def test_ring_laws_suite():
    properties.check_series_ring_laws()


def test_mul_vs_untruncated_suite():
    properties.check_series_mul_vs_untruncated()
