import copy
import pickle
import time
from fractions import Fraction

import pytest

from freemoments import (
    NCPolynomial,
    ParseCapExceededError,
    PolyParseError,
    Scalar,
    VariableMismatchError,
    infer_variable_count,
    multiply,
    parse_polynomial,
    split_constant,
)

from freemoments.ncpoly import MAX_DIGITS, MAX_PARSE_DEGREE

import properties


def test_parse_cumulant_example():
    p = parse_polynomial("x1^3 - 3*x1", 1)
    assert p.n_terms == 2
    assert p.coefficient((1, 1, 1)) == Scalar(1)
    assert p.coefficient((1,)) == Scalar(-3)
    assert p.degree == 3


def test_parse_commutator():
    p = parse_polynomial("x1*x2 - x2*x1", 2)
    assert p.n_terms == 2
    assert p.coefficient((1, 2)) == Scalar(1)
    assert p.coefficient((2, 1)) == Scalar(-1)


def test_parse_like_terms_combine():
    p = parse_polynomial("x1*x2 + x1*x2 + 1", 2)
    assert p.coefficient((1, 2)) == Scalar(2)
    assert p.coefficient(()) == Scalar(1)
    assert p.n_terms == 2


def test_parse_literals():
    p = parse_polynomial("3/2*x1 + i*x2 - 2", 2)
    assert p.coefficient((1,)) == Scalar(Fraction(3, 2))
    assert p.coefficient((2,)) == Scalar(0, 1)
    assert p.coefficient(()) == Scalar(-2)
    q = parse_polynomial("(1+2*i)*x1^2", 1)
    assert q.coefficient((1, 1)) == Scalar(1, 2)


def test_parse_unary_minus_and_parens():
    assert parse_polynomial("-x1 + 2", 1) == parse_polynomial("2 - x1", 1)
    assert parse_polynomial("(x1 + 1)^2", 1) == parse_polynomial(
        "x1^2 + 2*x1 + 1", 1
    )


def test_parse_syntax_errors_carry_position():
    with pytest.raises(PolyParseError) as err:
        parse_polynomial("x1 + + x2", 2)
    assert err.value.position == 5
    with pytest.raises(PolyParseError):
        parse_polynomial("x1 *", 1)
    with pytest.raises(PolyParseError):
        parse_polynomial("(x1", 1)
    with pytest.raises(PolyParseError):
        parse_polynomial("x1^x2", 2)
    with pytest.raises(PolyParseError):
        parse_polynomial("x1^-2", 1)
    with pytest.raises(PolyParseError):
        parse_polynomial("3x1", 1)  # juxtaposition is not multiplication
    # only ASCII digits: a superscript or another script's digit is refused,
    # never misread or leaked as a bare ValueError from int()
    for text, position in [("x1\u00b2", 2), ("2\u00b3*x1", 1), ("x\u0661 + x2", 1)]:
        with pytest.raises(PolyParseError) as err:
            parse_polynomial(text, 2)
        assert err.value.position == position, text


def test_parse_refuses_numbers_too_long_to_convert():
    # int() refuses a digit string past the interpreter's conversion limit;
    # the parser refuses the run first, at the position of its first digit,
    # for a literal, a variable index, a denominator and an exponent alike
    long = "1" * (MAX_DIGITS + 700)
    for text, position in [
        (long, 0), ("x" + long, 1), ("x1 + 1/" + long, 7), ("x1^" + long, 3),
    ]:
        with pytest.raises(PolyParseError, match=f"{MAX_DIGITS} digits") as err:
            parse_polynomial(text, 1)
        assert err.value.position == position, text[:12]
    # the CLI infers the variable count before it parses
    with pytest.raises(PolyParseError) as err:
        infer_variable_count("x2 + x" + long)
    assert err.value.position == 6
    # a run of exactly MAX_DIGITS digits still parses
    p = parse_polynomial("1" * MAX_DIGITS + "*x1", 1)
    assert p.coefficient((1,)) == Scalar(int("1" * MAX_DIGITS))


def test_parse_exponent_must_be_an_integer_literal():
    # the grammar has '^' uint: a fraction is refused at the exponent, not
    # reduced (4/2 is not 2, and 2/1 is not 2 either)
    for text, position in [
        ("x1^4/2", 3), ("x1^2/1", 3), ("x1^-1", 3), ("x1^x2", 3), ("(x1+1)^ 1/1", 8),
    ]:
        with pytest.raises(PolyParseError, match="exponent") as err:
            parse_polynomial(text, 2)
        assert err.value.position == position, text
    assert parse_polynomial("x1^02", 1) == parse_polynomial("x1*x1", 1)
    # a fraction as the base is still a literal
    assert parse_polynomial("1/2^2*x1", 1) == parse_polynomial("1/4*x1", 1)


def test_parse_rejects_decimals():
    with pytest.raises(PolyParseError) as err:
        parse_polynomial("1.5*x1", 1)
    assert "exact fractions" in str(err.value)
    with pytest.raises(PolyParseError):
        parse_polynomial("x1 + .5", 1)
    for text, position in [
        ("1.5*x1", 1), ("x1 + .5", 5), (".5*x1", 0), ("1/2.5*x1", 3),
    ]:
        with pytest.raises(PolyParseError) as err:
            parse_polynomial(text, 1)
        assert "exact fractions" in str(err.value), text
        assert err.value.position == position, text


def test_parse_variable_range():
    with pytest.raises(PolyParseError):
        parse_polynomial("x3", 2)
    with pytest.raises(PolyParseError):
        parse_polynomial("x0", 2)  # indices are 1-based
    # extra ambient variables are fine
    p = parse_polynomial("x1", 5)
    assert p.n_vars == 5


def test_infer_variable_count():
    assert infer_variable_count("x1*x7 + x3") == 7
    assert infer_variable_count("42") == 1


def test_split_constant_examples():
    c, q = split_constant(parse_polynomial("x1^2 + 5", 1))
    assert c == Scalar(5)
    assert q == parse_polynomial("x1^2", 1)

    c, q = split_constant(parse_polynomial("7", 1))
    assert c == Scalar(7)
    assert q.is_zero()

    p = parse_polynomial("x1^3 - 3*x1", 1)
    c, q = split_constant(p)
    assert c == Scalar(0)
    assert q == p
    assert q.coefficient(()) == Scalar(0)

    # the rest is in lowest terms: the constant's denominator goes with it
    c, q = split_constant(parse_polynomial("1/2 + x1", 1))
    assert c == Scalar(Fraction(1, 2))
    assert q == parse_polynomial("x1", 1)
    assert q.integer_terms() == (1, [((1,), 1, 0)])


def test_integer_terms():
    p = parse_polynomial("1/2*x1 + 1/3*i*x2 - 5/6", 2)
    assert p.integer_terms() == (6, [((), -5, 0), ((1,), 3, 0), ((2,), 0, 2)])
    assert NCPolynomial.zero(1).integer_terms() == (1, [])
    # lam is the least common denominator, and the parts share no factor with it
    p = parse_polynomial("2/3*x1 + 4/3*x2", 2)
    assert p.integer_terms() == (3, [((1,), 2, 0), ((2,), 4, 0)])
    for text in ["1/2*x1 + 1/2*x1", "2*(1/2*x1)", "(1/2 + x1) - 1/2", "(2/4*x1)^1*2"]:
        p = parse_polynomial(text, 1)
        assert p.integer_terms() == (1, [((1,), 1, 0)]), text
        assert p == parse_polynomial("x1", 1) == NCPolynomial.variable(1, 1), text


def test_multiply_examples():
    x1 = NCPolynomial.variable(2, 1)
    x2 = NCPolynomial.variable(2, 2)
    p = multiply(x1, x2)
    assert p.coefficient((1, 2)) == Scalar(1)
    assert p.coefficient((2, 1)) == Scalar(0)

    lhs = multiply(x1 + x2, x1 - x2)
    assert lhs == parse_polynomial("x1^2 - x1*x2 + x2*x1 - x2^2", 2)

    one = NCPolynomial.constant(2, 1)
    q = parse_polynomial("2*x1*x2 - x2", 2)
    assert multiply(q, one) == q

    # words that meet and cancel leave no zero term
    p = multiply(x1 + one, x1 - one)
    assert p.n_terms == 2 and p == parse_polynomial("x1^2 - 1", 2)


def test_multiply_nvars_mismatch():
    with pytest.raises(VariableMismatchError):
        multiply(NCPolynomial.variable(1, 1), NCPolynomial.variable(2, 1))


def test_power_and_zero():
    p = parse_polynomial("x1 + 1", 1)
    assert p ** 0 == NCPolynomial.constant(1, 1)
    assert p ** 2 == parse_polynomial("x1^2 + 2*x1 + 1", 1)
    assert NCPolynomial.zero(2).degree == 0
    assert NCPolynomial.zero(2).n_terms == 0


def test_parse_refuses_blowups_before_expanding():
    # the refusal comes before any expansion, so these return at once
    for text, n_vars in [
        ("x1^100000", 1),
        (f"x1^{MAX_PARSE_DEGREE + 1}", 1),
        ("(x1+x2)^40", 2),
        ("(x1+x2)^9*(x1+x2)^9", 2),  # 512 * 512 terms
        ("2^100000", 1),
        ("(2^10000)^10000", 1),
    ]:
        with pytest.raises(ParseCapExceededError):
            parse_polynomial(text, n_vars)
    assert parse_polynomial("(x1+x2)^8", 2).n_terms == 256
    assert parse_polynomial("x1^10000", 1).degree == 10000


def test_parse_cap_boundaries():
    # each cap is checked on the exact sizes of both operands: a size that
    # meets a cap is accepted, one past it refused
    p = parse_polynomial("(2^49999)*(2^49999)", 1)  # 50000 + 50000 bits
    assert p == NCPolynomial.constant(1, 2**99998)
    assert parse_polynomial("x1^5000*x1^5000", 1).degree == MAX_PARSE_DEGREE
    for text in [
        "(2^50000)*(2^50000)", "x1^5000*x1^5001", "(x1+x2)^17",
        "2^40000*2^40000*2^40000",  # the product's 80001 bits, not 40001
    ]:
        with pytest.raises(ParseCapExceededError):
            parse_polynomial(text, 2)
    # the product's sizes are its own after cancellation: (x1+1)*(x1-1) has
    # 2 terms, not 4, and x1*x1 - x1*x1 is 0 of degree 0
    assert parse_polynomial("((x1+1)*(x1-1))^16", 1).n_terms == 17
    # 2 * 2^15 terms are within the cap, 4 * 2^15 would not be
    assert parse_polynomial("(x1+1)*(x1-1)*(x1+x2)^15", 2).n_terms == 2**16
    assert parse_polynomial("(x1*x1 - x1*x1)^100000*x1^10000", 1).is_zero()
    assert parse_polynomial("0*x1^5000*x1^5001", 1).is_zero()
    # the bit cap reads each coefficient's reduced numerator and denominator:
    # 1/3 and 1/D have 2 and 14,285 bits, so the 7th power's 99,995 bits
    # pass, though 3*D, the common denominator, has 14,286 bits
    big = str(2**14284)
    assert len(big) == MAX_DIGITS
    p = parse_polynomial(f"(1/3 + 1/{big}*x1)^7", 1)
    assert p.degree == 7 and p.n_terms == 8
    with pytest.raises(ParseCapExceededError):
        parse_polynomial(f"(1/3 + 1/{big}*x1)^8", 1)
    # and so does a product: D^3 and D^4 have 42,853 and 57,137 bits, while
    # 27*D^3 and 81^4*D^4, the common denominators, have 100,019 together
    p = parse_polynomial(f"(1/3 + 1/{big}*x1)^3*(1/81 + 1/{big}*x1)^4", 1)
    assert p.degree == 7 and p.n_terms == 8
    with pytest.raises(ParseCapExceededError):
        parse_polynomial(f"(1/3 + 1/{big}*x1)^4*(1/81 + 1/{big}*x1)^4", 1)
    # the zero polynomial's power costs nothing
    start = time.perf_counter()
    assert parse_polynomial("(x1-x1)^100000", 1).is_zero()
    assert time.perf_counter() - start < 1.0


def test_canonical_term_order_and_str():
    p = parse_polynomial("x1^3 - 3*x1 + 2", 1)
    words = [w for w, _ in p.terms()]
    assert words == [(), (1,), (1, 1, 1)]
    assert str(p) == "2 - 3*x1 + x1^3"
    assert str(NCPolynomial.zero(1)) == "0"
    assert str(parse_polynomial("i*x1 - x2*x1", 2)) == "i*x1 - x2*x1"


def test_adjoint_and_self_adjointness():
    p = parse_polynomial("x1*x2 + x2*x1", 2)
    assert p.is_self_adjoint()
    q = parse_polynomial("x1*x2", 2)
    assert not q.is_self_adjoint()
    assert q.adjoint() == parse_polynomial("x2*x1", 2)
    r = parse_polynomial("i*x1", 1)
    assert r.adjoint() == parse_polynomial("-i*x1", 1)


def test_parser_roundtrip_suite():
    properties.check_parser_roundtrip()


def test_parser_expression_tree_suite():
    properties.check_parser_expression_trees()


def test_multiply_assoc_degree_suite():
    properties.check_multiply_assoc_degree()


def test_copy_and_pickle_roundtrip():
    p = parse_polynomial("1/2*x1*x2 - i*x2^2 + 3", 3)
    clones = [copy.copy(p), copy.deepcopy(p)] + [
        pickle.loads(pickle.dumps(p, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    for clone in clones:
        assert type(clone) is NCPolynomial
        assert clone == p and clone.n_vars == 3
        assert str(clone) == str(p)
        with pytest.raises(AttributeError, match="immutable"):
            clone.n_vars = 1
    with pytest.raises(AttributeError, match="immutable"):
        p._terms = {}
    assert NCPolynomial.zero(2) == copy.deepcopy(NCPolynomial.zero(2))
