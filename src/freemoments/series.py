"""Univariate z-polynomials.

``ZPoly`` is a polynomial in z with ``Scalar`` coefficients; it is what
linear-representation matrix entries are made of.  The moment engine does
its arithmetic in C[z]/(z^(M+1)) on plain coefficient lists (``_kernel``);
an element there is passed around as a ``ZPoly`` of degree at most M.

Multiplication is schoolbook.  Everything is immutable.
"""

from __future__ import annotations

from typing import Iterable

from .scalar import ONE, ZERO, Scalar


def _coerce_scalar(value) -> Scalar:
    if isinstance(value, Scalar):
        return value
    return Scalar(value)


class ZPoly:
    """A polynomial in z over Scalar, stored dense with no trailing zeros."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [_coerce_scalar(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("ZPoly is immutable")

    @classmethod
    def constant(cls, value) -> "ZPoly":
        return cls((value,))

    @classmethod
    def z(cls, coeff=1) -> "ZPoly":
        """The monomial coeff*z."""
        return cls((ZERO, coeff))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial reported as degree 0."""
        return max(len(self.coeffs) - 1, 0)

    def coefficient(self, k: int) -> Scalar:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else ZERO

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, ZPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "ZPoly") -> "ZPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] = out[k] + c
        return ZPoly(out)

    def __mul__(self, other: "ZPoly") -> "ZPoly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ZPOLY_ZERO
        out = [ZERO] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = out[i + j] + ai * bj
        return ZPoly(out)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                zpow = "z" if k == 1 else f"z^{k}"
                if c == ONE:
                    parts.append(zpow)
                elif not c.is_real():
                    parts.append(f"({c})*{zpow}")
                else:
                    parts.append(f"{c}*{zpow}")
        return " + ".join(parts)

    def __repr__(self):
        return f"ZPoly({self})"


ZPOLY_ZERO = ZPoly()
ZPOLY_ONE = ZPoly((ONE,))
