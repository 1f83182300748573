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
literals are rejected so that every coefficient stays exact.  The parser
expands products and powers in full, so it refuses one whose result could
exceed ``MAX_PARSE_TERMS`` terms, ``MAX_PARSE_DEGREE`` in degree or
``MAX_PARSE_BITS`` in coefficient bit length before expanding it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Tuple

from .errors import ParseCapExceededError, PolyParseError, VariableMismatchError
from .scalar import ONE, ZERO, Scalar

Word = Tuple[int, ...]

WORD_UNIT: Word = ()

# fixed limits on what one product or power in polynomial text may expand to
MAX_PARSE_TERMS = 10**5
MAX_PARSE_DEGREE = 10**4
MAX_PARSE_BITS = 10**5


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
        return NCPolynomial(
            self.n_vars, {w: -c for w, c in self._terms.items()}
        )

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
        out: Dict[Word, Scalar] = {}
        for wa, ca in self._terms.items():
            for wb, cb in other._terms.items():
                word = wa + wb
                prev = out.get(word)
                out[word] = ca * cb if prev is None else prev + ca * cb
        return NCPolynomial(self.n_vars, out)

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
        if exponent == 0:
            return NCPolynomial.constant(self.n_vars, ONE)
        # square and multiply; the factors are powers of self, so they commute
        result = None
        base = self
        while exponent:
            if exponent & 1:
                result = base if result is None else result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return result

    def adjoint(self) -> "NCPolynomial":
        """Formal adjoint: reverse every word, conjugate every coefficient."""
        return NCPolynomial(
            self.n_vars,
            {tuple(reversed(w)): c.conjugate() for w, c in self._terms.items()},
        )

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


def multiply(p: NCPolynomial, q: NCPolynomial) -> NCPolynomial:
    """Noncommutative product; factor order is preserved exactly."""
    return p * q


def split_constant(p: NCPolynomial) -> Tuple[Scalar, NCPolynomial]:
    """Split p = c + q with c the unit-word coefficient and q constant-free."""
    c = p.coefficient(WORD_UNIT)
    if not c:
        return ZERO, p
    rest = {w: coeff for w, coeff in p._terms.items() if w}
    return c, NCPolynomial(p.n_vars, rest)


def infer_variable_count(text: str) -> int:
    """Highest variable index mentioned in the text (at least 1)."""
    import re as _re

    best = 1
    for m in _re.finditer(r"x([0-9]+)", text):
        best = max(best, int(m.group(1)))
    return best


# -- parser ---------------------------------------------------------------------

# ASCII only: str.isdigit() also accepts superscripts and other scripts' digits,
# which int() then misreads or refuses
_DIGITS = frozenset("0123456789")


def _tokenize(text: str):
    if "." in text:
        raise PolyParseError(
            "decimal literals are not supported; use exact fractions like 3/2",
            text,
            text.index("."),
        )
    tokens = []
    i = 0
    length = len(text)
    while i < length:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _DIGITS:
            start = i
            while i < length and text[i] in _DIGITS:
                i += 1
            numerator = int(text[start:i])
            if i < length and text[i] == "/":
                i += 1
                if i >= length or text[i] not in _DIGITS:
                    raise PolyParseError("expected digits after '/'", text, i)
                den_start = i
                while i < length and text[i] in _DIGITS:
                    i += 1
                denominator = int(text[den_start:i])
                if denominator == 0:
                    raise PolyParseError("zero denominator", text, den_start)
                tokens.append(("NUM", Fraction(numerator, denominator), start))
            else:
                tokens.append(("NUM", Fraction(numerator), start))
            continue
        if ch == "x":
            start = i
            i += 1
            if i >= length or text[i] not in _DIGITS:
                raise PolyParseError("expected variable index after 'x'", text, i)
            while i < length and text[i] in _DIGITS:
                i += 1
            tokens.append(("VAR", int(text[start + 1 : i]), start))
            continue
        if ch == "i":
            tokens.append(("IMAG", None, i))
            i += 1
            continue
        if ch in "+-*^()":
            tokens.append((ch, None, i))
            i += 1
            continue
        raise PolyParseError(f"unexpected character {ch!r}", text, i)
    tokens.append(("END", None, length))
    return tokens


def _bits(poly: NCPolynomial) -> int:
    """Largest bit length of a coefficient's numerator or denominator."""
    return max(
        (
            x.bit_length()
            for c in poly._terms.values()
            for part in (c.re, c.im)
            for x in (part.numerator, part.denominator)
        ),
        default=0,
    )


class _Parser:
    def __init__(self, text: str, n_vars: int):
        self.text = text
        self.n_vars = n_vars
        self.tokens = _tokenize(text)
        self.cursor = 0

    def _peek(self):
        return self.tokens[self.cursor]

    def _advance(self):
        token = self.tokens[self.cursor]
        self.cursor += 1
        return token

    def parse(self) -> NCPolynomial:
        poly = self._expr()
        kind, _, pos = self._peek()
        if kind != "END":
            raise PolyParseError("unexpected trailing input", self.text, pos)
        return poly

    def _expr(self) -> NCPolynomial:
        sign = 1
        if self._peek()[0] in ("+", "-"):
            sign = -1 if self._advance()[0] == "-" else 1
        poly = self._term()
        if sign < 0:
            poly = -poly
        while self._peek()[0] in ("+", "-"):
            op = self._advance()[0]
            term = self._term()
            poly = poly - term if op == "-" else poly + term
        return poly

    def _refuse_expansion(self, pos: int):
        raise ParseCapExceededError(
            f"expanding the expression at position {pos} could exceed "
            f"{MAX_PARSE_TERMS} terms, degree {MAX_PARSE_DEGREE} or "
            f"{MAX_PARSE_BITS}-bit coefficients"
        )

    def _term(self) -> NCPolynomial:
        poly = self._factor()
        while self._peek()[0] == "*":
            pos = self._advance()[2]
            factor = self._factor()
            if (
                poly.degree + factor.degree > MAX_PARSE_DEGREE
                or poly.n_terms * factor.n_terms > MAX_PARSE_TERMS
                or _bits(poly) + _bits(factor) > MAX_PARSE_BITS
            ):
                self._refuse_expansion(pos)
            poly = poly * factor
        return poly

    def _factor(self) -> NCPolynomial:
        atom = self._atom()
        if self._peek()[0] == "^":
            self._advance()
            kind, value, pos = self._advance()
            if kind != "NUM" or value.denominator != 1 or value < 0:
                raise PolyParseError(
                    "exponent must be a nonnegative integer", self.text, pos
                )
            k = int(value)
            # n^k is evaluated only once the degree and the bit length fit,
            # which bounds k (a coefficient has at least one bit)
            if (
                atom.degree * k > MAX_PARSE_DEGREE
                or _bits(atom) * k > MAX_PARSE_BITS
                or atom.n_terms ** k > MAX_PARSE_TERMS
            ):
                self._refuse_expansion(pos)
            return atom ** k
        return atom

    def _atom(self) -> NCPolynomial:
        kind, value, pos = self._advance()
        if kind == "NUM":
            return NCPolynomial.constant(self.n_vars, Scalar(value))
        if kind == "IMAG":
            return NCPolynomial.constant(self.n_vars, Scalar(0, 1))
        if kind == "VAR":
            if not 1 <= value <= self.n_vars:
                raise PolyParseError(
                    f"variable index x{value} out of range (n_vars={self.n_vars})",
                    self.text,
                    pos,
                )
            return NCPolynomial.variable(self.n_vars, value)
        if kind == "(":
            poly = self._expr()
            kind, _, pos = self._advance()
            if kind != ")":
                raise PolyParseError("expected ')'", self.text, pos)
            return poly
        raise PolyParseError(
            "expected a variable, literal or parenthesized expression",
            self.text,
            pos,
        )


def parse_polynomial(text: str, n_vars: int) -> NCPolynomial:
    """Parse polynomial text over variables x1..xn into normal form.

    Like terms are combined; the order of noncommuting factors is preserved
    exactly as written.  Raises ``PolyParseError`` (with position) on invalid
    syntax, an out-of-range variable index, or a decimal literal.
    """
    if n_vars < 1:
        raise ValueError("n_vars must be a positive integer")
    return _Parser(text, n_vars).parse()
