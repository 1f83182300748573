"""Words of the free monoid and noncommutative polynomials over Scalar.

A word is a tuple of 1-based variable indices; the empty tuple is the monoid
unit.  A polynomial is a finite map from words to nonzero ``Scalar``
coefficients.  Terms iterate in length-lexicographic word order so printed
output and test fixtures are deterministic.

``parse_polynomial`` accepts the input language used by the CLI:

    expr   := ('+'|'-')? term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' uint)?
    atom   := var | literal | 'i' | '(' expr ')'
    var    := 'x' uint          (1-based: x1 .. xn)
    literal:= uint ('/' uint)?  (exact rationals only)

Juxtaposition is not multiplication; write ``3*x1``, not ``3x1``.  Decimal
literals are rejected so that every coefficient stays exact, and an exponent
is an integer literal (``x1^4/2`` is refused at the exponent).  The parser
evaluates on term maps (word -> nonzero Scalar) that carry their degree and
largest coefficient bit length, and wraps one ``NCPolynomial`` at the end.
It expands products and powers in full, so it refuses one whose result could
exceed ``MAX_PARSE_TERMS`` terms, ``MAX_PARSE_DEGREE`` in degree or
``MAX_PARSE_BITS`` in coefficient bit length, judged on the exact sizes of
both operands, before expanding it.
"""

from __future__ import annotations

import math
import re as _re
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Tuple

from .errors import ParseCapExceededError, PolyParseError, VariableMismatchError
from .scalar import I, ONE, ZERO, Scalar

Word = Tuple[int, ...]

WORD_UNIT: Word = ()

# fixed limits on what one product or power in polynomial text may expand to
MAX_PARSE_TERMS = 10**5
MAX_PARSE_DEGREE = 10**4
MAX_PARSE_BITS = 10**5
# the longest run of digits one number may have: Python's default limit on
# converting a digit string to int (sys.int_info.default_max_str_digits)
MAX_DIGITS = 4300


def word_key(word: Word):
    """Sort key for the canonical length-lexicographic term order."""
    return (len(word), word)


class NCPolynomial:
    """A noncommutative polynomial: finite map Word -> nonzero Scalar."""

    __slots__ = ("n_vars", "_terms")

    def __init__(self, n_vars: int, terms: Dict[Word, Scalar] | None = None):
        if n_vars < 1:
            raise ValueError("n_vars must be a positive integer")
        cleaned: Dict[Word, Scalar] = {}
        for word, coeff in (terms or {}).items():
            if not isinstance(coeff, Scalar):
                coeff = Scalar(coeff)
            if not coeff:
                continue
            for letter in word:
                if not 1 <= letter <= n_vars:
                    raise VariableMismatchError(
                        f"letter {letter} outside 1..{n_vars}"
                    )
            cleaned[tuple(word)] = coeff
        object.__setattr__(self, "n_vars", n_vars)
        object.__setattr__(self, "_terms", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("NCPolynomial is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor; the default slot
        # restore would go through the refusing __setattr__
        return (NCPolynomial, (self.n_vars, self._terms))

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, n_vars: int) -> "NCPolynomial":
        return cls(n_vars, {})

    @classmethod
    def constant(cls, n_vars: int, value) -> "NCPolynomial":
        return cls(n_vars, {WORD_UNIT: Scalar(value) if not isinstance(value, Scalar) else value})

    @classmethod
    def variable(cls, n_vars: int, index: int) -> "NCPolynomial":
        if not 1 <= index <= n_vars:
            raise VariableMismatchError(f"variable index {index} outside 1..{n_vars}")
        return cls(n_vars, {(index,): ONE})

    # -- structure ------------------------------------------------------------

    @property
    def degree(self) -> int:
        """Maximum word length among stored terms (0 for the zero polynomial)."""
        return max((len(w) for w in self._terms), default=0)

    @property
    def n_terms(self) -> int:
        return len(self._terms)

    def terms(self) -> Iterator[Tuple[Word, Scalar]]:
        """Terms in canonical length-lexicographic order."""
        for word in sorted(self._terms, key=word_key):
            yield word, self._terms[word]

    def unordered_terms(self) -> Iterable[Tuple[Word, Scalar]]:
        """Terms in storage order, without the sort of ``terms()``; for
        results that do not depend on the order, such as exact sums."""
        return self._terms.items()

    def integer_terms(self) -> Tuple[int, List[Tuple[Word, int, int]]]:
        """``(lam, [(word, re, im)])``: lam*p in canonical term order, with int
        parts and lam the least common multiple of every denominator, the
        constant's included.  The zero polynomial gives ``(1, [])``."""
        terms = list(self.terms())
        lam = math.lcm(*(x.denominator for _, c in terms for x in (c.re, c.im)))
        return lam, [
            (w, c.re.numerator * (lam // c.re.denominator),
             c.im.numerator * (lam // c.im.denominator))
            for w, c in terms
        ]

    def coefficient(self, word: Word) -> Scalar:
        return self._terms.get(tuple(word), ZERO)

    def is_zero(self) -> bool:
        return not self._terms

    # -- arithmetic -----------------------------------------------------------

    def _check_vars(self, other: "NCPolynomial"):
        if self.n_vars != other.n_vars:
            raise VariableMismatchError(
                f"variable counts differ: {self.n_vars} vs {other.n_vars}"
            )

    @staticmethod
    def _coerce(value, n_vars):
        if isinstance(value, NCPolynomial):
            return value
        if isinstance(value, (int, Fraction, Scalar)):
            return NCPolynomial.constant(n_vars, value)
        return NotImplemented

    def __add__(self, other):
        other = NCPolynomial._coerce(other, self.n_vars)
        if other is NotImplemented:
            return NotImplemented
        self._check_vars(other)
        out = dict(self._terms)
        for word, coeff in other._terms.items():
            out[word] = out.get(word, ZERO) + coeff
        return NCPolynomial(self.n_vars, out)

    __radd__ = __add__

    def __neg__(self):
        return _wrap(self.n_vars, {w: -c for w, c in self._terms.items()})

    def __sub__(self, other):
        other = NCPolynomial._coerce(other, self.n_vars)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = NCPolynomial._coerce(other, self.n_vars)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            return self.scale(other)
        if not isinstance(other, NCPolynomial):
            return NotImplemented
        self._check_vars(other)
        return _wrap(self.n_vars, _product(self._terms, other._terms))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            return self.scale(other)
        return NotImplemented

    def scale(self, factor) -> "NCPolynomial":
        if not isinstance(factor, Scalar):
            factor = Scalar(factor)
        return NCPolynomial(
            self.n_vars, {w: factor * c for w, c in self._terms.items()}
        )

    def __pow__(self, exponent: int) -> "NCPolynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial exponent must be a nonnegative integer")
        return _wrap(self.n_vars, _power(self._terms, exponent))

    def adjoint(self) -> "NCPolynomial":
        """Formal adjoint: reverse every word, conjugate every coefficient."""
        terms = {tuple(reversed(w)): c.conjugate() for w, c in self._terms.items()}
        return _wrap(self.n_vars, terms)

    def is_self_adjoint(self) -> bool:
        return self == self.adjoint()

    def __eq__(self, other):
        if not isinstance(other, NCPolynomial):
            return NotImplemented
        return self.n_vars == other.n_vars and self._terms == other._terms

    # -- printing ---------------------------------------------------------------

    @staticmethod
    def _word_str(word: Word) -> str:
        # compress runs of equal letters: (1,1,1,2) -> "x1^3*x2"
        parts = []
        k = 0
        while k < len(word):
            j = k
            while j < len(word) and word[j] == word[k]:
                j += 1
            run = j - k
            parts.append(f"x{word[k]}" if run == 1 else f"x{word[k]}^{run}")
            k = j
        return "*".join(parts)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        rendered = []
        for word, coeff in self.terms():
            word_str = self._word_str(word) if word else ""
            if coeff.is_real():
                negative = coeff.re < 0
                mag = -coeff.re if negative else coeff.re
                if not word_str:
                    body = str(mag)
                elif mag == 1:
                    body = word_str
                else:
                    body = f"{mag}*{word_str}"
            elif coeff.re == 0:
                negative = coeff.im < 0
                mag = -coeff.im if negative else coeff.im
                base = "i" if mag == 1 else f"{mag}*i"
                body = f"{base}*{word_str}" if word_str else base
            else:
                negative = False
                base = f"({coeff})"
                body = f"{base}*{word_str}" if word_str else base
            rendered.append((negative, body))
        first_neg, first_body = rendered[0]
        out = ("-" if first_neg else "") + first_body
        for negative, body in rendered[1:]:
            out += (" - " if negative else " + ") + body
        return out

    def __repr__(self):
        return f"NCPolynomial({self}, n_vars={self.n_vars})"


# -- term maps: dicts Word -> nonzero Scalar, the ``_terms`` of a polynomial -------


def _wrap(n_vars: int, terms: Dict[Word, Scalar]) -> NCPolynomial:
    """A polynomial that takes a term map as it is, without re-validating."""
    poly = object.__new__(NCPolynomial)
    object.__setattr__(poly, "n_vars", n_vars)
    object.__setattr__(poly, "_terms", terms)
    return poly


def _product(a: Dict[Word, Scalar], b: Dict[Word, Scalar]) -> Dict[Word, Scalar]:
    """The noncommutative product of two term maps, as a new term map."""
    out = {}
    get = out.get
    for wa, ca in a.items():
        for wb, cb in b.items():
            c = cb if ca is ONE else ca if cb is ONE else ca * cb
            word = wa + wb
            prev = get(word)
            out[word] = c if prev is None else prev + c
    if len(out) < len(a) * len(b):
        # some words met; their sums may have cancelled (without a meeting
        # every coefficient is a product of two nonzero scalars)
        out = {w: c for w, c in out.items() if c}
    return out


def _power(terms: Dict[Word, Scalar], k: int) -> Dict[Word, Scalar]:
    """``terms`` to the power k >= 0 by square and multiply; the factors are
    powers of one map, so they commute."""
    result = {WORD_UNIT: ONE}
    while k:
        if k & 1:
            result = _product(result, terms)
        k >>= 1
        if k:
            terms = _product(terms, terms)
    return result


def multiply(p: NCPolynomial, q: NCPolynomial) -> NCPolynomial:
    """Noncommutative product; factor order is preserved exactly."""
    return p * q


def split_constant(p: NCPolynomial) -> Tuple[Scalar, NCPolynomial]:
    """Split p = c + q with c the unit-word coefficient and q constant-free."""
    c = p.coefficient(WORD_UNIT)
    if not c:
        return ZERO, p
    return c, _wrap(p.n_vars, {w: coeff for w, coeff in p._terms.items() if w})


def infer_variable_count(text: str) -> int:
    """Highest variable index mentioned in the text (at least 1)."""
    best = 1
    for m in _re.finditer(r"x([0-9]+)", text):
        _check_digits(text, m.start(1), m.end(1))
        best = max(best, int(m.group(1)))
    return best


# -- parser ---------------------------------------------------------------------

# ASCII only: str.isdigit() also accepts superscripts and other scripts' digits,
# which int() then misreads or refuses
_DIGITS = frozenset("0123456789")


def _check_digits(text: str, start: int, end: int):
    """Refuse the digit run text[start:end] before int() would refuse it."""
    if end - start > MAX_DIGITS:
        raise PolyParseError(f"number longer than {MAX_DIGITS} digits", text, start)


def _tokenize(text: str):
    if "." in text:
        message = "decimal literals are not supported; use exact fractions like 3/2"
        raise PolyParseError(message, text, text.index("."))
    tokens = []
    i = 0
    length = len(text)
    while i < length:
        start = i
        ch = text[i]
        i += 1
        if ch in _DIGITS or ch == "x":
            while i < length and text[i] in _DIGITS:
                i += 1
            _check_digits(text, start + (ch == "x"), i)
            if ch == "x":
                if i == start + 1:
                    raise PolyParseError("expected variable index after 'x'", text, i)
                tokens.append(("VAR", int(text[start + 1 : i]), start))
                continue
            # an int, so that an exponent can refuse a fraction
            value = int(text[start:i])
            if i < length and text[i] == "/":
                i = den_start = i + 1
                while i < length and text[i] in _DIGITS:
                    i += 1
                if i == den_start:
                    raise PolyParseError("expected digits after '/'", text, i)
                _check_digits(text, den_start, i)
                denominator = int(text[den_start:i])
                if not denominator:
                    raise PolyParseError("zero denominator", text, den_start)
                value = Fraction(value, denominator)
            tokens.append(("NUM", value, start))
        elif ch in "+-*^()i":
            tokens.append(("IMAG" if ch == "i" else ch, None, start))
        elif not ch.isspace():
            raise PolyParseError(f"unexpected character {ch!r}", text, start)
    tokens.append(("END", None, length))
    return tokens


def _bits(coeffs: Iterable[Scalar]) -> int:
    """Largest bit length of a coefficient's numerator or denominator."""
    best = 0
    for c in coeffs:
        re, im = c.re, c.im
        best = max(best, re.numerator.bit_length(), re.denominator.bit_length(),
                   im.numerator.bit_length(), im.denominator.bit_length())
    return best


class _Parser:
    """Evaluates the grammar on term maps.  ``_expr`` and ``_term`` return
    ``(terms, degree)`` and ``_factor`` and ``_atom`` also the largest
    coefficient bit length; each is exact and the map is the caller's own."""

    def __init__(self, text: str, n_vars: int):
        self.text = text
        self.n_vars = n_vars
        # reversed, so that pop() takes the next token; taking END always raises
        self.tokens = _tokenize(text)[::-1]

    def _expr(self):
        acc = {}
        get = acc.get
        op = self.tokens.pop()[0] if self.tokens[-1][0] in ("+", "-") else "+"
        while True:
            terms, _ = self._term()
            for word, c in terms.items():
                if op == "-":
                    c = -c
                prev = get(word)
                acc[word] = c if prev is None else prev + c
            if self.tokens[-1][0] not in ("+", "-"):
                break
            op = self.tokens.pop()[0]
        acc = {w: c for w, c in acc.items() if c}
        return acc, max(map(len, acc), default=0)

    def _refuse_expansion(self, pos: int):
        raise ParseCapExceededError(
            f"expanding the expression at position {pos} could exceed "
            f"{MAX_PARSE_TERMS} terms, degree {MAX_PARSE_DEGREE} or "
            f"{MAX_PARSE_BITS}-bit coefficients"
        )

    def _term(self):
        terms, degree, bits = self._factor()
        while self.tokens[-1][0] == "*":
            pos = self.tokens.pop()[2]
            f_terms, f_degree, f_bits = self._factor()
            if bits is None:  # a product's is taken only once it is an operand
                bits = _bits(terms.values())
            if (degree + f_degree > MAX_PARSE_DEGREE or bits + f_bits > MAX_PARSE_BITS
                    or len(terms) * len(f_terms) > MAX_PARSE_TERMS):
                self._refuse_expansion(pos)
            terms = _product(terms, f_terms)
            # the free algebra has no zero divisors: a nonzero product's
            # degree is the sum of its factors'
            degree = degree + f_degree if terms else 0
            bits = None
        return terms, degree

    def _factor(self):
        terms, degree, bits = self._atom()
        if self.tokens[-1][0] != "^":
            return terms, degree, bits
        self.tokens.pop()
        kind, k, pos = self.tokens.pop()
        if kind != "NUM" or k.__class__ is not int:
            raise PolyParseError("exponent must be a nonnegative integer", self.text, pos)
        # the power is taken only once the degree and the bit length fit,
        # which bounds k (a nonzero coefficient has at least one bit)
        if (degree * k > MAX_PARSE_DEGREE or bits * k > MAX_PARSE_BITS
                or len(terms) ** k > MAX_PARSE_TERMS):
            self._refuse_expansion(pos)
        terms = _power(terms, k)
        return terms, degree * k, _bits(terms.values())

    def _atom(self):
        kind, value, pos = self.tokens.pop()
        if kind == "NUM":
            if not value:
                return {}, 0, 0
            bits = max(value.numerator.bit_length(), value.denominator.bit_length())
            return {WORD_UNIT: Scalar(value)}, 0, bits
        if kind == "IMAG":
            return {WORD_UNIT: I}, 0, 1
        if kind == "VAR":
            if not 1 <= value <= self.n_vars:
                message = f"variable index x{value} out of range (n_vars={self.n_vars})"
                raise PolyParseError(message, self.text, pos)
            return {(value,): ONE}, 1, 1
        if kind == "(":
            terms, degree = self._expr()
            kind, _, pos = self.tokens.pop()
            if kind != ")":
                raise PolyParseError("expected ')'", self.text, pos)
            return terms, degree, _bits(terms.values())
        message = "expected a variable, literal or parenthesized expression"
        raise PolyParseError(message, self.text, pos)


def parse_polynomial(text: str, n_vars: int) -> NCPolynomial:
    """Parse polynomial text over variables x1..xn into normal form.

    Like terms are combined; the order of noncommuting factors is preserved
    exactly as written.  Raises ``PolyParseError`` (with position) on invalid
    syntax, an out-of-range variable index, or a decimal literal.
    """
    if n_vars < 1:
        raise ValueError("n_vars must be a positive integer")
    parser = _Parser(text, n_vars)
    terms, _ = parser._expr()
    kind, _, pos = parser.tokens[-1]
    if kind != "END":
        raise PolyParseError("unexpected trailing input", text, pos)
    return _wrap(n_vars, terms)
