"""Words of the free monoid and noncommutative polynomials over Gaussian rationals.

A word is a tuple of 1-based variable indices; the empty tuple is the monoid
unit.  A polynomial stores a term map ``(lam, {word: (re, im)})`` of nonzero
Gaussian-integer numerators over lam >= 1, with gcd(lam, every part) = 1: a
unique form, whose lam is the lcm of the coefficients' reduced denominators.
``terms()`` and ``coefficient()`` give ``Scalar``s, in length-lexicographic
word order, so printed output and test fixtures are deterministic.

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
evaluates on term maps and expands products and powers in full, so it
refuses one whose result could exceed ``MAX_PARSE_TERMS`` terms,
``MAX_PARSE_DEGREE`` in degree or ``MAX_PARSE_BITS`` in the bit length of a
coefficient's reduced numerators and denominators, judged on the exact
sizes of both operands, before expanding it.
"""

from __future__ import annotations

import math
import re as _re
from fractions import Fraction
from itertools import chain
from typing import Dict, Iterator, List, Tuple

from .errors import ParseCapExceededError, PolyParseError, VariableMismatchError
from .scalar import ONE, ZERO, Scalar, from_ints

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
    """A noncommutative polynomial: finite map Word -> nonzero Gaussian
    rational, stored as a term map over the least common denominator."""

    __slots__ = ("n_vars", "_map")

    def __init__(self, n_vars: int, terms: Dict[Word, Scalar] | None = None):
        if n_vars < 1:
            raise ValueError("n_vars must be a positive integer")
        coeffs: Dict[Word, Scalar] = {}
        for word, coeff in (terms or {}).items():
            if not isinstance(coeff, Scalar):
                coeff = Scalar(coeff)
            if not coeff:
                continue
            for letter in word:
                if not 1 <= letter <= n_vars:
                    raise VariableMismatchError(f"letter {letter} outside 1..{n_vars}")
            coeffs[tuple(word)] = coeff
        # over the lcm of reduced denominators no prime divides every part
        lam = math.lcm(*(x.denominator for c in coeffs.values() for x in (c.re, c.im)))
        cleared = {w: (int(c.re * lam), int(c.im * lam)) for w, c in coeffs.items()}
        object.__setattr__(self, "n_vars", n_vars)
        object.__setattr__(self, "_map", (lam, cleared))

    def __setattr__(self, name, value):
        raise AttributeError("NCPolynomial is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor; the default slot
        # restore would go through the refusing __setattr__
        return (NCPolynomial, (self.n_vars, dict(self.terms())))

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, n_vars: int) -> "NCPolynomial":
        return cls(n_vars, {})

    @classmethod
    def constant(cls, n_vars: int, value) -> "NCPolynomial":
        return cls(n_vars, {WORD_UNIT: value})

    @classmethod
    def variable(cls, n_vars: int, index: int) -> "NCPolynomial":
        if not 1 <= index <= n_vars:
            raise VariableMismatchError(f"variable index {index} outside 1..{n_vars}")
        return cls(n_vars, {(index,): ONE})

    # -- structure ------------------------------------------------------------

    @property
    def degree(self) -> int:
        """Maximum word length among stored terms (0 for the zero polynomial)."""
        return max(map(len, self._map[1]), default=0)

    @property
    def n_terms(self) -> int:
        return len(self._map[1])

    def terms(self) -> Iterator[Tuple[Word, Scalar]]:
        """Terms in canonical length-lexicographic order."""
        lam, parts = self.integer_terms()
        return ((w, from_ints(a, b, lam)) for w, a, b in parts)

    def integer_terms(self) -> Tuple[int, List[Tuple[Word, int, int]]]:
        """``(lam, [(word, re, im)])``: lam*p in canonical term order, with int
        parts and lam the least common multiple of every denominator, the
        constant's included.  The zero polynomial gives ``(1, [])``."""
        lam, terms = self._map
        return lam, [(w, *terms[w]) for w in sorted(terms, key=word_key)]

    def coefficient(self, word: Word) -> Scalar:
        c = self._map[1].get(tuple(word))
        return ZERO if c is None else from_ints(*c, self._map[0])

    def is_zero(self) -> bool:
        return not self._map[1]

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
        return _wrap(self.n_vars, _sum([(1, self._map), (1, other._map)]))

    __radd__ = __add__

    def __neg__(self):
        return _wrap(self.n_vars, _sum([(-1, self._map)]))

    def __sub__(self, other):
        other = NCPolynomial._coerce(other, self.n_vars)
        return NotImplemented if other is NotImplemented else self + (-other)

    def __rsub__(self, other):
        other = NCPolynomial._coerce(other, self.n_vars)
        return NotImplemented if other is NotImplemented else other - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            return self.scale(other)
        if not isinstance(other, NCPolynomial):
            return NotImplemented
        self._check_vars(other)
        return _wrap(self.n_vars, _product(self._map, other._map))

    # a scalar factor commutes, and a polynomial on the left uses its own __mul__
    __rmul__ = __mul__

    def scale(self, factor) -> "NCPolynomial":
        # a constant is central, so the order of the factors does not matter
        return self * NCPolynomial.constant(self.n_vars, factor)

    def __pow__(self, exponent: int) -> "NCPolynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial exponent must be a nonnegative integer")
        return _wrap(self.n_vars, _power(self._map, exponent))

    def adjoint(self) -> "NCPolynomial":
        """Formal adjoint: reverse every word, conjugate every coefficient."""
        lam, terms = self._map
        return _wrap(self.n_vars, (lam, {w[::-1]: (a, -b) for w, (a, b) in terms.items()}))

    def is_self_adjoint(self) -> bool:
        return self == self.adjoint()

    def __eq__(self, other):
        if not isinstance(other, NCPolynomial):
            return NotImplemented
        return self.n_vars == other.n_vars and self._map == other._map

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
        lam, parts = self.integer_terms()
        out = ""
        for word, a, b in parts:
            if a and b:  # parenthesized, with no sign of its own
                negative, factors = False, [f"({from_ints(a, b, lam)})"]
            else:
                x = a or b
                negative, g = x < 0, math.gcd(x, lam)
                # a magnitude of 1 is written only when nothing else is
                mag = f"{abs(x) // g}/{lam // g}" if lam > g else f"{abs(x) // g}"
                factors = [] if abs(x) == lam and (b or word) else [mag]
                factors += ["i"] if b else []
            body = "*".join(factors + [self._word_str(word)] if word else factors)
            if out:
                out += (" - " if negative else " + ") + body
            else:
                out = ("-" if negative else "") + body
        return out or "0"

    def __repr__(self):
        return f"NCPolynomial({self}, n_vars={self.n_vars})"


# -- term maps (lam, {Word: (re, im)}), the ``_map`` of a polynomial ------------

def _wrap(n_vars: int, tmap: tuple) -> NCPolynomial:
    """A polynomial that takes a canonical term map as it is."""
    poly = object.__new__(NCPolynomial)
    object.__setattr__(poly, "n_vars", n_vars)
    object.__setattr__(poly, "_map", tmap)
    return poly


def _canonical(lam: int, terms: dict) -> tuple:
    """The term map of (nonzero) ``terms`` over lam, in lowest terms."""
    g = math.gcd(lam, *chain.from_iterable(terms.values()))
    if g > 1:
        return lam // g, {w: (a // g, b // g) for w, (a, b) in terms.items()}
    return lam, terms


def _sum(signed: list) -> tuple:
    """The sum of the term maps of ``[(sign, map)]``, signs 1 or -1."""
    lam = math.lcm(*[tmap[0] for _, tmap in signed])
    out = {}
    for sign, (lam_t, terms) in signed:
        f = sign * lam // lam_t
        for word, (a, b) in terms.items():
            prev = out.get(word)
            out[word] = (a * f, b * f) if prev is None else (prev[0] + a * f, prev[1] + b * f)
    return _canonical(lam, {w: c for w, c in out.items() if c != (0, 0)})


def _product(a: tuple, b: tuple) -> tuple:
    """The noncommutative product of two term maps, as a new term map."""
    out = {}
    get = out.get
    for wa, (p, q) in a[1].items():
        for wb, (r, s) in b[1].items():
            c = (p * r - q * s, p * s + q * r) if q or s else (p * r, 0)
            word = wa + wb
            prev = get(word)
            out[word] = c if prev is None else (prev[0] + c[0], prev[1] + c[1])
    if len(out) < len(a[1]) * len(b[1]):
        # some words met; their sums may have cancelled (without a meeting
        # every part is a product of two nonzero Gaussian integers)
        out = {w: c for w, c in out.items() if c != (0, 0)}
    lam = a[0] * b[0]
    return (1, out) if lam == 1 else _canonical(lam, out)


def _power(tmap: tuple, k: int) -> tuple:
    """``tmap`` to the power k >= 0 by square and multiply (its powers commute)."""
    result = None
    while k:
        if k & 1:
            result = tmap if result is None else _product(result, tmap)
        k >>= 1
        if k:
            tmap = _product(tmap, tmap)
    return (1, {WORD_UNIT: (1, 0)}) if result is None else result


def multiply(p: NCPolynomial, q: NCPolynomial) -> NCPolynomial:
    """Noncommutative product; factor order is preserved exactly."""
    return p * q


def split_constant(p: NCPolynomial) -> Tuple[Scalar, NCPolynomial]:
    """Split p = c + q with c the unit-word coefficient and q constant-free."""
    lam, terms = p._map
    if WORD_UNIT not in terms:
        return ZERO, p
    rest = _canonical(lam, {w: c for w, c in terms.items() if w})
    return p.coefficient(WORD_UNIT), _wrap(p.n_vars, rest)


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
                value = (value, denominator)  # the expression's _sum reduces it
            tokens.append(("NUM", value, start))
        elif ch in "+-*^()i":
            tokens.append(("IMAG" if ch == "i" else ch, None, start))
        elif not ch.isspace():
            raise PolyParseError(f"unexpected character {ch!r}", text, start)
    tokens.append(("END", None, length))
    return tokens


def _bits(tmap: tuple, exact: bool = False) -> int:
    """max(bits(lam), bits(each part)), never below the largest bit length of
    a coefficient's reduced numerator or denominator; ``exact`` gives that."""
    lam, terms = tmap
    if exact:
        parts = chain.from_iterable(terms.values())
        return max([(max(abs(x), lam) // math.gcd(x, lam)).bit_length() for x in parts] or [0])
    top = lam
    for x, y in terms.values():
        top = max(top, x, -x, y, -y)
    return top.bit_length()


class _Parser:
    """Evaluates the grammar on term maps.  ``_factor`` also returns the degree
    and the cheap bit count (``_bits``); the exact count is taken only where
    the cheap one would refuse, so every refusal is the exact count's."""

    def __init__(self, text: str, n_vars: int):
        self.text = text
        self.n_vars = n_vars
        # reversed, so that pop() takes the next token; taking END always raises
        self.tokens = _tokenize(text)[::-1]

    def _expr(self):
        op = self.tokens.pop()[0] if self.tokens[-1][0] in ("+", "-") else "+"
        signed = [(-1 if op == "-" else 1, self._term())]
        while self.tokens[-1][0] in ("+", "-"):
            signed.append((-1 if self.tokens.pop()[0] == "-" else 1, self._term()))
        return _sum(signed)

    def _refuse_expansion(self, pos: int):
        raise ParseCapExceededError(
            f"expanding the expression at position {pos} could exceed "
            f"{MAX_PARSE_TERMS} terms, degree {MAX_PARSE_DEGREE} or "
            f"{MAX_PARSE_BITS}-bit coefficients"
        )

    def _term(self):
        tmap, degree, bits = self._factor()
        while self.tokens[-1][0] == "*":
            pos = self.tokens.pop()[2]
            f_map, f_degree, f_bits = self._factor()
            if bits is None:  # a product's is taken only once it is an operand
                bits = _bits(tmap)
            if (degree + f_degree > MAX_PARSE_DEGREE
                    or bits + f_bits > MAX_PARSE_BITS
                    and _bits(tmap, True) + _bits(f_map, True) > MAX_PARSE_BITS
                    or len(tmap[1]) * len(f_map[1]) > MAX_PARSE_TERMS):
                self._refuse_expansion(pos)
            tmap = _product(tmap, f_map)
            # the free algebra has no zero divisors: a nonzero product's
            # degree is the sum of its factors'
            degree = degree + f_degree if tmap[1] else 0
            bits = None
        return tmap

    def _factor(self):
        kind, value, pos = self.tokens.pop()
        if kind == "NUM":  # an int, or a pair (numerator, denominator)
            num, den = (value, 1) if value.__class__ is int else value
            tmap, degree = (den, {WORD_UNIT: (num, 0)} if num else {}), 0
            bits = max(num, den).bit_length()
        elif kind == "IMAG":
            tmap, degree, bits = (1, {WORD_UNIT: (0, 1)}), 0, 1
        elif kind == "VAR":
            if not 1 <= value <= self.n_vars:
                message = f"variable index x{value} out of range (n_vars={self.n_vars})"
                raise PolyParseError(message, self.text, pos)
            tmap, degree, bits = (1, {(value,): (1, 0)}), 1, 1
        elif kind == "(":
            tmap = self._expr()
            kind, _, pos = self.tokens.pop()
            if kind != ")":
                raise PolyParseError("expected ')'", self.text, pos)
            degree, bits = max(map(len, tmap[1]), default=0), _bits(tmap)
        else:
            message = "expected a variable, literal or parenthesized expression"
            raise PolyParseError(message, self.text, pos)
        if self.tokens[-1][0] != "^":
            return tmap, degree, bits
        self.tokens.pop()
        kind, k, pos = self.tokens.pop()
        if kind != "NUM" or k.__class__ is not int:
            raise PolyParseError("exponent must be a nonnegative integer", self.text, pos)
        # the power is taken only once the degree and the bit length fit,
        # which bounds k (a nonzero coefficient has at least one bit)
        if (degree * k > MAX_PARSE_DEGREE
                or bits * k > MAX_PARSE_BITS and _bits(tmap, True) * k > MAX_PARSE_BITS
                or len(tmap[1]) ** k > MAX_PARSE_TERMS):
            self._refuse_expansion(pos)
        tmap = _power(tmap, k)
        return tmap, degree * k, _bits(tmap)


def parse_polynomial(text: str, n_vars: int) -> NCPolynomial:
    """Parse polynomial text over variables x1..xn into normal form.

    Like terms are combined; the order of noncommuting factors is preserved
    exactly as written.  Raises ``PolyParseError`` (with position) on invalid
    syntax, an out-of-range variable index, or a decimal literal.
    """
    if n_vars < 1:
        raise ValueError("n_vars must be a positive integer")
    parser = _Parser(text, n_vars)
    tmap = parser._expr()
    kind, _, pos = parser.tokens[-1]
    if kind != "END":
        raise PolyParseError("unexpected trailing input", text, pos)
    return _wrap(n_vars, tmap)
