"""Exact moments of noncommutative polynomials in free semicircular elements.

The engine computes tau(p(s_1,...,s_n)^m) for m = 1..M in time polynomial in
M by encoding the moment generating series as a weighted automaton and
solving a proper algebraic system in C[z]/(z^(M+1)).  A brute-force
non-crossing-pairing oracle provides independent ground truth.

``import freemoments`` loads only the engine path (``scalar``, ``ncpoly``,
``engine``, ``_kernel``, ``errors`` and the standard ``fractions``).  The
names of ``oracle`` and ``cli`` are exported too, and each loads its module
on first access.  ``freemoments.reference``, the paper's own route through
linear representations that the tests check against, exports no name here
and is imported by path.
"""

import importlib

from .engine import MomentVector, moments
from .errors import (
    CapExceededError,
    FreeMomentsError,
    InvalidPolynomialError,
    PairingCapExceededError,
    ParseCapExceededError,
    PolyParseError,
    UsageError,
    VariableMismatchError,
)
from .ncpoly import (
    NCPolynomial,
    Word,
    infer_variable_count,
    multiply,
    parse_polynomial,
    split_constant,
)
from .scalar import Scalar

__version__ = "0.1.0"

# names of the oracle and of the bench probe, imported on first access
# (PEP 562): ``import freemoments`` loads neither module
_LAZY = {
    "BenchReport": "cli",
    "BenchRow": "cli",
    "complexity_probe": "cli",
    "brute_moment": "oracle",
    "catalan": "oracle",
    "free_cumulants": "oracle",
    "moments_from_cumulants": "oracle",
    "word_moment": "oracle",
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value

__all__ = [
    "BenchReport",
    "BenchRow",
    "CapExceededError",
    "FreeMomentsError",
    "InvalidPolynomialError",
    "MomentVector",
    "NCPolynomial",
    "PairingCapExceededError",
    "ParseCapExceededError",
    "PolyParseError",
    "Scalar",
    "UsageError",
    "VariableMismatchError",
    "Word",
    "brute_moment",
    "catalan",
    "complexity_probe",
    "free_cumulants",
    "infer_variable_count",
    "moments",
    "moments_from_cumulants",
    "multiply",
    "parse_polynomial",
    "split_constant",
    "word_moment",
]
