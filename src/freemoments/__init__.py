"""Exact moments of noncommutative polynomials in free semicircular elements.

The engine computes tau(p(s_1,...,s_n)^m) for m = 1..M in time polynomial in
M by encoding the moment generating series as a weighted automaton and
solving a proper algebraic system in C[z]/(z^(M+1)).  A brute-force
non-crossing-pairing oracle provides independent ground truth, and
``reference`` keeps the paper's own route through linear representations.

``import freemoments`` loads only the engine path (``scalar``, ``ncpoly``,
``engine``, ``_kernel``, ``errors`` and the standard ``fractions``).  The
names of ``oracle``, ``reference`` and ``cli`` are exported too, and each
loads its module on first access.
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

# names of the oracle, of the paper's reference route and of the bench probe,
# imported on first access (PEP 562): ``import freemoments`` loads none of
# these modules, and ``freemoments moments`` never loads ``reference``
_LAZY = {
    "BenchReport": "cli",
    "BenchRow": "cli",
    "complexity_probe": "cli",
    "brute_moment": "oracle",
    "catalan": "oracle",
    "enumerate_nc_pairings": "oracle",
    "free_cumulants": "oracle",
    "moments_from_cumulants": "oracle",
    "psemi_coefficient": "oracle",
    "psemi_table": "oracle",
    "word_moment": "oracle",
    "LinearRepresentation": "reference",
    "ZPoly": "reference",
    "build_zq_star": "reference",
    "coefficient": "reference",
    "iterate_system": "reference",
    "reduce_rep": "reference",
    "rep_linear_combination": "reference",
    "rep_product": "reference",
    "rep_star": "reference",
    "rep_variable": "reference",
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
    "LinearRepresentation",
    "MomentVector",
    "NCPolynomial",
    "PairingCapExceededError",
    "ParseCapExceededError",
    "PolyParseError",
    "Scalar",
    "UsageError",
    "VariableMismatchError",
    "Word",
    "ZPoly",
    "brute_moment",
    "build_zq_star",
    "catalan",
    "coefficient",
    "complexity_probe",
    "enumerate_nc_pairings",
    "free_cumulants",
    "infer_variable_count",
    "iterate_system",
    "moments",
    "moments_from_cumulants",
    "multiply",
    "parse_polynomial",
    "psemi_coefficient",
    "psemi_table",
    "reduce_rep",
    "rep_linear_combination",
    "rep_product",
    "rep_star",
    "rep_variable",
    "split_constant",
    "word_moment",
]
