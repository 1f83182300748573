import copy
import pickle
from fractions import Fraction

import pytest

from freemoments import Scalar

import properties


def test_construction_and_normal_form():
    s = Scalar(Fraction(2, 4), Fraction(-3, 6))
    assert s.re == Fraction(1, 2)
    assert s.im == Fraction(-1, 2)
    assert s.re_num == 1 and s.re_den == 2
    assert s.im_num == -1 and s.im_den == 2


def test_floats_rejected():
    with pytest.raises(TypeError):
        Scalar(0.5)
    with pytest.raises(TypeError):
        Scalar(1, 0.25)


def test_fraction_parts_kept():
    # a part whose class is exactly Fraction is stored as given, not copied
    half = Fraction(1, 2)
    s = Scalar(half, half)
    assert s.re is half and s.im is half
    assert Scalar(Fraction(2, 4)) == Scalar(half)


def test_basic_arithmetic():
    a = Scalar(Fraction(1, 2), 1)
    b = Scalar(3, Fraction(-1, 3))
    assert a + b == Scalar(Fraction(7, 2), Fraction(2, 3))
    assert a - a == Scalar(0)
    assert a * Scalar(0) == Scalar(0)
    # (1/2 + i)(3 - i/3) = 3/2 + 1/3 + i(3 - 1/6)
    assert a * b == Scalar(Fraction(11, 6), Fraction(17, 6))
    assert -a == Scalar(Fraction(-1, 2), -1)


def test_division_and_powers():
    i = Scalar(0, 1)
    assert i * i == Scalar(-1)
    assert i ** 2 == Scalar(-1)
    assert i ** 0 == Scalar(1)
    assert (Scalar(3) / Scalar(2)) == Scalar(Fraction(3, 2))
    a = Scalar(1, 2)
    assert (a * a) / a == a
    with pytest.raises(ZeroDivisionError):
        a / Scalar(0)


def test_hash_agrees_with_equality():
    # a real Scalar equals the int or Fraction of its value, so it must hash
    # like it: sets and dict keys then treat the two as one key
    for s, value in [(Scalar(1), 1), (Scalar(0), 0), (Scalar(-7), -7),
                     (Scalar(Fraction(2, 3)), Fraction(2, 3))]:
        assert s == value and hash(s) == hash(value)
    assert Scalar(3) in {3}
    assert len({Scalar(2), 2}) == 1
    assert {Fraction(1, 2): "half"}[Scalar(Fraction(1, 2))] == "half"
    # a complex Scalar equals no int or Fraction
    assert hash(Scalar(1, 2)) == hash(Scalar(Fraction(2, 2), 2))
    assert len({Scalar(1, 2), Scalar(1, -2), Scalar(1)}) == 3


def test_conjugate_and_predicates():
    a = Scalar(Fraction(1, 3), -2)
    assert a.conjugate() == Scalar(Fraction(1, 3), 2)
    assert not a.is_real()
    assert Scalar(5).is_real()
    assert Scalar(5, 1).is_gaussian_integer()
    assert not Scalar(Fraction(1, 2)).is_gaussian_integer()


def test_string_formats():
    assert str(Scalar(5)) == "5"
    assert str(Scalar(Fraction(-3, 2))) == "-3/2"
    assert str(Scalar(0, 1)) == "i"
    assert str(Scalar(0, -1)) == "-i"
    assert str(Scalar(0, Fraction(2, 3))) == "2/3*i"
    assert str(Scalar(1, 2)) == "1+2*i"
    assert str(Scalar(Fraction(1, 2), Fraction(-1, 3))) == "1/2-1/3*i"


def test_from_string_examples():
    for text in ["5", "-3/2", "i", "-i", "2/3*i", "1+2*i", "1/2-1/3*i", "0"]:
        assert str(Scalar.from_string(text)) == text
    with pytest.raises(ValueError):
        Scalar.from_string("1.5")
    with pytest.raises(ValueError):
        Scalar.from_string("x1")
    # a zero denominator, or an Arabic-Indic digit where ASCII is expected
    for text in [
        "1/0", "-3/00", "2/0*i", "1+1/0*i",
        "\u0661", "\u0661/2+3*i", "1/2+\u0663*i", "-1/2\u0663", "\u0665*i",
    ]:
        with pytest.raises(ValueError):
            Scalar.from_string(text)


def _clones(value):
    yield copy.copy(value)
    yield copy.deepcopy(value)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        yield pickle.loads(pickle.dumps(value, protocol))


def test_copy_and_pickle_roundtrip():
    values = [
        Scalar(0),
        Scalar(Fraction(-3, 7)),
        Scalar(Fraction(1, 2), -5),
        Scalar(0, 10**30),
    ]
    for s in values:
        for clone in _clones(s):
            assert type(clone) is Scalar
            assert type(clone.re) is Fraction and type(clone.im) is Fraction
            assert clone == s and hash(clone) == hash(s)
            assert str(clone) == str(s)
            with pytest.raises(AttributeError, match="immutable"):
                clone.re = Fraction(1)
    with pytest.raises(AttributeError, match="immutable"):
        values[2].im = Fraction(0)


def test_exactness_suite():
    properties.check_scalar_exactness()


def test_string_roundtrip_suite():
    properties.check_scalar_string_roundtrip()


def test_operator_suite():
    properties.check_scalar_operators()
