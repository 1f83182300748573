"""Exact Gaussian-rational scalars.

Every coefficient and every moment in this package is a ``Scalar``: a complex
number ``re + im*i`` whose real and imaginary parts are arbitrary-precision
rationals (``fractions.Fraction``).  All arithmetic is exact, so results can
be compared with ``==`` instead of tolerances.  Floating-point values are
rejected everywhere.

The public constructor ``Scalar(re, im)`` validates and converts its
arguments; a part whose class is exactly ``Fraction`` is kept as it is.
Arithmetic results are built by ``_make`` from parts that are already
``Fraction``s (a ``Fraction`` combined with a ``Fraction`` or an ``int`` is
again a ``Fraction``), so they skip that check, as do the moments built
by ``from_ints`` from int parts over a denominator.  An ``int``
operand of ``+`` or ``*`` is combined with the parts directly, since the
reference sweep's cells start as ``int`` zeros; operands of any other type
go through ``_coerce`` first, which refuses floats.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction

_RationalLike = "int | Fraction | str"


def _as_fraction(value) -> Fraction:
    if value.__class__ is Fraction:
        return value  # already in normal form; Fraction(value) would copy it
    if isinstance(value, float):
        raise TypeError(
            "floating-point values are not allowed; use int, Fraction or a "
            "string like '3/2'"
        )
    return Fraction(value)


class Scalar:
    """An exact Gaussian rational ``re + im*i``.

    Immutable.  ``re`` and ``im`` are ``Fraction`` instances, which keeps the
    usual normal-form invariants (reduced fractions, positive denominators)
    without extra bookkeeping.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _as_fraction(re))
        object.__setattr__(self, "im", _as_fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor; the default slot
        # restore would go through the refusing __setattr__
        return (Scalar, (self.re, self.im))

    # -- normal-form accessors matching the documented invariants ----------

    @property
    def re_num(self) -> int:
        return self.re.numerator

    @property
    def re_den(self) -> int:
        return self.re.denominator

    @property
    def im_num(self) -> int:
        return self.im.numerator

    @property
    def im_den(self) -> int:
        return self.im.denominator

    def is_real(self) -> bool:
        return self.im == 0

    def is_gaussian_integer(self) -> bool:
        return self.re.denominator == 1 and self.im.denominator == 1

    def conjugate(self) -> "Scalar":
        return _make(self.re, -self.im)

    # -- ring operations ----------------------------------------------------

    @staticmethod
    def _coerce(value) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        if isinstance(value, (int, Fraction)):
            return Scalar(value)
        return NotImplemented

    def __add__(self, other):
        if other.__class__ is not Scalar:
            if other.__class__ is int:
                return _make(self.re + other, self.im)
            other = Scalar._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        b, d = self.im, other.im
        return _make(self.re + other.re, b + d if d else b)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not Scalar:
            other = Scalar._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        b, d = self.im, other.im
        return _make(self.re - other.re, b - d if d else b)

    def __rsub__(self, other):
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return _make(-self.re, -self.im)

    def __mul__(self, other):
        if other.__class__ is not Scalar:
            if other.__class__ is int:
                return _make(self.re * other, self.im * other)
            other = Scalar._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b, c, d = self.re, self.im, other.re, other.im
        # a zero imaginary part drops its products; b or d is then that zero
        if not b:
            return _make(a * c, a * d if d else b)
        if not d:
            return _make(a * c, b * c)
        return _make(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.__class__ is not Scalar:
            other = Scalar._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b, c, d = self.re, self.im, other.re, other.im
        if not d:
            if not c:
                raise ZeroDivisionError("division by zero Scalar")
            return _make(a / c, b / c if b else d)
        norm = c * c + d * d
        return _make((a * c + b * d) / norm, (b * c - a * d) / norm)

    def __rtruediv__(self, other):
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, exponent: int) -> "Scalar":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("Scalar exponent must be a nonnegative integer")
        result = ONE
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- comparison / hashing -------------------------------------------------

    def __eq__(self, other):
        if other.__class__ is not Scalar:
            other = Scalar._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # a real Scalar equals its re, an int or a Fraction, so it hashes as one
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    # -- encoding -------------------------------------------------------------

    def __str__(self) -> str:
        """Exact fraction string: ``a/b``, or ``a/b+c/d*i`` when im != 0."""
        if self.im == 0:
            return str(self.re)
        imag = f"{abs(self.im)}*i" if abs(self.im) != 1 else "i"
        sign = "-" if self.im < 0 else "+"
        if self.re == 0:
            return f"-{imag}" if self.im < 0 else imag
        return f"{self.re}{sign}{imag}"

    def __repr__(self) -> str:
        return f"Scalar({self})"

    _STRING_RE = _re.compile(
        # a zero denominator does not match: "1/0" is malformed like any other;
        # ASCII, because a str pattern's \d also takes other scripts' digits
        r"^(?P<re>[+-]?\d+(?:/0*[1-9]\d*)?)?"
        r"(?P<im>(?:(?<=\d)[+-]|[+-]?)(?:\d+(?:/0*[1-9]\d*)?\*)?i)?$",
        _re.ASCII,
    )

    @classmethod
    def from_string(cls, text: str) -> "Scalar":
        """Parse the output of ``str()`` back into an equal Scalar."""
        s = text.strip().replace(" ", "")
        match = cls._STRING_RE.match(s)
        if not match or (match.group("re") is None and match.group("im") is None):
            raise ValueError(f"not a valid Scalar string: {text!r}")
        re_part = match.group("re") or "0"
        im_text = match.group("im")
        if im_text is None:
            im_part = Fraction(0)
        else:
            body = im_text[:-1]  # strip trailing 'i'
            sign = 1
            if body.startswith("+"):
                body = body[1:]
            elif body.startswith("-"):
                sign = -1
                body = body[1:]
            body = body.rstrip("*")
            im_part = sign * (Fraction(body) if body else Fraction(1))
        return cls(Fraction(re_part), im_part)


_new = object.__new__
_set_re = Scalar.re.__set__
_set_im = Scalar.im.__set__


def _make(re: Fraction, im: Fraction) -> Scalar:
    """A Scalar from two parts that are already ``Fraction``s, unchecked."""
    s = _new(Scalar)
    _set_re(s, re)
    _set_im(s, im)
    return s


_ZERO_PART = Fraction(0)  # every zero part ``from_ints`` builds


def from_ints(x: int, y: int, den: int) -> Scalar:
    """(x + y*i) / den in normal form, for ``int``s x, y and den >= 1, unchecked."""
    if den == 1:  # no gcd to take
        return _make(Fraction(x) if x else _ZERO_PART, Fraction(y) if y else _ZERO_PART)
    return _make(Fraction(x, den) if x else _ZERO_PART, Fraction(y, den) if y else _ZERO_PART)


ZERO = Scalar(0)
ONE = Scalar(1)
I = Scalar(0, 1)
