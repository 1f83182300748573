"""Exact moments of noncommutative polynomials in free semicircular elements.

The engine computes tau(p(s_1,...,s_n)^m) for m = 1..M in time polynomial in
M by encoding the moment generating series through a linear representation
and iterating a proper algebraic system in C[z]/(z^(M+1)).  A brute-force
non-crossing-pairing oracle provides independent ground truth.
"""

from .engine import (
    BenchReport,
    BenchRow,
    MomentVector,
    complexity_probe,
    iterate_system,
    moments,
    reduce_rep,
)
from .errors import (
    CapExceededError,
    FreeMomentsError,
    InvalidPolynomialError,
    OrderMismatchError,
    ParseCapExceededError,
    PolyParseError,
    UsageError,
    VariableMismatchError,
)
from .linrep import (
    LinearRepresentation,
    build_zq_star,
    coefficient,
    rep_linear_combination,
    rep_product,
    rep_star,
    rep_variable,
)
from .ncpoly import (
    NCPolynomial,
    Word,
    infer_variable_count,
    multiply,
    parse_polynomial,
    split_constant,
)
from .oracle import (
    brute_moment,
    catalan,
    enumerate_nc_pairings,
    free_cumulants,
    moments_from_cumulants,
    psemi_coefficient,
    psemi_table,
    word_moment,
)
from .scalar import Scalar
from .series import TruncatedSeries, ZPoly, series_add, series_mul

__version__ = "0.1.0"

__all__ = [
    "BenchReport",
    "BenchRow",
    "CapExceededError",
    "FreeMomentsError",
    "InvalidPolynomialError",
    "LinearRepresentation",
    "MomentVector",
    "NCPolynomial",
    "OrderMismatchError",
    "ParseCapExceededError",
    "PolyParseError",
    "Scalar",
    "TruncatedSeries",
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
    "series_add",
    "series_mul",
    "split_constant",
    "word_moment",
]
