"""The paper's route to the moments, kept only as the tests' reference.

``engine.moments`` never imports this module.  ``ZPoly`` is a polynomial in
z with ``Scalar`` coefficients, the entry type of the matrices here.  A
series a with zero constant term is *rational* iff some monoid
homomorphism F(X) -> M_N(R) recovers each coefficient as

    coefficient(a, X_{i1}...X_{ik}) = (mu(X_{i1}) ... mu(X_{ik}))[1, N].

The variable, product, linear-combination and pseudo-inverse constructions
(a* = sum_{k>=1} a^k) build such representations, and ``build_zq_star``
composes them into that of (z*q)* for a constant-free q.  ``reduce_rep``
cuts every entry after z^M, and ``iterate_system`` runs the paper's
T = deg(q)*M full sweeps in ``_sweep``, which shares no code with the
kernel that production solves with.  Everything is exact and immutable.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from .errors import InvalidPolynomialError, VariableMismatchError
from .ncpoly import NCPolynomial, Word
from .scalar import ONE, ZERO, Scalar


class ZPoly:
    """A polynomial in z over Scalar, stored dense with no trailing zeros."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [c if isinstance(c, Scalar) else Scalar(c) for c in coeffs]
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


# -- linear representations ----------------------------------------------------


def _as_zpoly(value) -> ZPoly:
    return value if isinstance(value, ZPoly) else ZPoly.constant(value)


class LinearRepresentation:
    """n square matrices of ZPoly entries, one per variable, plus dimension N."""

    __slots__ = ("n_vars", "dim", "mats")

    def __init__(self, n_vars: int, dim: int, mats: Sequence[Sequence[Sequence[ZPoly]]]):
        if n_vars < 1:
            raise ValueError("n_vars must be positive")
        if dim < 2:
            raise ValueError("representation dimension must be at least 2")
        if len(mats) != n_vars:
            raise ValueError("need one matrix per variable")
        frozen = []
        for mat in mats:
            if len(mat) != dim or any(len(row) != dim for row in mat):
                raise ValueError(f"matrices must be {dim}x{dim}")
            frozen.append(tuple(tuple(entry for entry in row) for row in mat))
        object.__setattr__(self, "n_vars", n_vars)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "mats", tuple(frozen))

    def __setattr__(self, name, value):
        raise AttributeError("LinearRepresentation is immutable")

    def dump(self) -> str:
        """Per-variable matrices as rows of exact coefficient strings."""
        lines = []
        for i, mat in enumerate(self.mats, start=1):
            lines.append(f"X{i}:")
            for row in mat:
                lines.append("  [" + ", ".join(str(e) for e in row) + "]")
        return "\n".join(lines)

    def __repr__(self):
        return f"LinearRepresentation(n_vars={self.n_vars}, dim={self.dim})"


def _zero_matrix(dim: int) -> list:
    return [[ZPOLY_ZERO] * dim for _ in range(dim)]


def rep_variable(index: int, n_vars: int, coeff=1) -> LinearRepresentation:
    """The 2x2 representation of the series coeff * X_index.

    mu(X_index) carries ``coeff`` at entry (1,2); every other matrix is zero.
    With coeff = 1 this is the textbook variable representation; a general
    coefficient rides along on the same entry.
    """
    if not 1 <= index <= n_vars:
        raise IndexError(f"variable index {index} out of range (n_vars={n_vars})")
    coeff = _as_zpoly(coeff)
    mats = []
    for i in range(1, n_vars + 1):
        mat = _zero_matrix(2)
        if i == index:
            mat[0][1] = coeff
        mats.append(mat)
    return LinearRepresentation(n_vars, 2, mats)


def rep_product(a: LinearRepresentation, b: LinearRepresentation) -> LinearRepresentation:
    """Representation of the series product a*b, with N = N1 + N2.

    Block layout per variable: the a-block sits top-left, its last column is
    duplicated into column N1+1, and the b-block occupies the bottom-right.
    """
    if a.n_vars != b.n_vars:
        raise VariableMismatchError(
            f"variable counts differ: {a.n_vars} vs {b.n_vars}"
        )
    n1, n2 = a.dim, b.dim
    dim = n1 + n2
    mats = []
    for za, wb in zip(a.mats, b.mats):
        mat = _zero_matrix(dim)
        for r in range(n1):
            for c in range(n1):
                mat[r][c] = za[r][c]
            mat[r][n1] = za[r][n1 - 1]
        for r in range(n2):
            for c in range(n2):
                mat[n1 + r][n1 + c] = wb[r][c]
        mats.append(mat)
    return LinearRepresentation(a.n_vars, dim, mats)


def rep_linear_combination(
    r1, a: LinearRepresentation, r2, b: LinearRepresentation
) -> LinearRepresentation:
    """Representation of r1*a + r2*b, with N = N1 + N2 + 2.

    Column 1 is zero and row N is zero; the a- and b-blocks are embedded
    unscaled with their last columns duplicated into column N, and row 1
    combines the first rows of both blocks.  The scalars r1, r2 multiply
    only the column-N duplicates: every accepting path crosses column N
    exactly once, so each word coefficient picks up its scalar exactly once
    (scaling the whole block would instead scale a length-k word by r^k).
    """
    if a.n_vars != b.n_vars:
        raise VariableMismatchError(
            f"variable counts differ: {a.n_vars} vs {b.n_vars}"
        )
    r1 = _as_zpoly(r1)
    r2 = _as_zpoly(r2)
    n1, n2 = a.dim, b.dim
    dim = n1 + n2 + 2
    mats = []
    for za, wb in zip(a.mats, b.mats):
        mat = _zero_matrix(dim)
        for c in range(n1):
            mat[0][1 + c] = za[0][c]
        for c in range(n2):
            mat[0][1 + n1 + c] = wb[0][c]
        mat[0][dim - 1] = r1 * za[0][n1 - 1] + r2 * wb[0][n2 - 1]
        for r in range(n1):
            for c in range(n1):
                mat[1 + r][1 + c] = za[r][c]
            mat[1 + r][dim - 1] = r1 * za[r][n1 - 1]
        for r in range(n2):
            for c in range(n2):
                mat[1 + n1 + r][1 + n1 + c] = wb[r][c]
            mat[1 + n1 + r][dim - 1] = r2 * wb[r][n2 - 1]
        mats.append(mat)
    return LinearRepresentation(a.n_vars, dim, mats)


def rep_star(a: LinearRepresentation) -> LinearRepresentation:
    """Representation of a* = sum_{k>=1} a^k, same dimension.

    Each matrix has its first column replaced by its last column, wiring the
    accepting state back to the start.  This requires that no transition
    enters state 1 (first columns all zero), which holds for every
    representation assembled from variables, products and linear
    combinations; a representation that has already been starred violates it
    and is rejected.  (Wrap such a representation in the pass-through linear
    combination 1*a + 0*b first; that restores a zero first column.)
    """
    for mat in a.mats:
        for r in range(a.dim):
            if mat[r][0]:
                raise InvalidPolynomialError(
                    "pseudo-inverse needs a representation with no "
                    "transitions into state 1 (zero first columns)"
                )
    mats = []
    for mat in a.mats:
        new = [list(row) for row in mat]
        for r in range(a.dim):
            new[r][0] = mat[r][a.dim - 1]
        mats.append(new)
    return LinearRepresentation(a.n_vars, a.dim, mats)


def build_zq_star(q: NCPolynomial) -> LinearRepresentation:
    """Representation of (z*q)* for a constant-free nonzero polynomial q.

    Each term c*X_{i1}...X_{ik} becomes a product of variable representations
    with c*z riding on the first letter; terms are folded pairwise with
    coefficient-1 linear combinations, then the pseudo-inverse is applied.
    The resulting dimension satisfies N <= 2*m_q*deg(q) + 2*m_q.
    """
    if q.is_zero():
        raise InvalidPolynomialError("q must be nonzero")
    if q.coefficient(()):
        raise InvalidPolynomialError("q must have no constant term")
    rep = None
    for word, coeff in q.terms():
        term_rep = rep_variable(word[0], q.n_vars, ZPoly.z(coeff))
        for letter in word[1:]:
            term_rep = rep_product(term_rep, rep_variable(letter, q.n_vars, ZPOLY_ONE))
        rep = term_rep if rep is None else rep_linear_combination(
            ZPOLY_ONE, rep, ZPOLY_ONE, term_rep
        )
    return rep_star(rep)


def coefficient(rep: LinearRepresentation, word: Word) -> ZPoly:
    """Entry (1, N) of mu(X_{i1})...mu(X_{ik}); the zero polynomial for e."""
    dim = rep.dim
    # fold as row-vector times matrix: start from e_1
    vec = [ZPOLY_ONE] + [ZPOLY_ZERO] * (dim - 1)
    for letter in word:
        if not 1 <= letter <= rep.n_vars:
            raise IndexError(
                f"variable index {letter} out of range (n_vars={rep.n_vars})"
            )
        mat = rep.mats[letter - 1]
        new_vec = []
        for c in range(dim):
            acc = ZPOLY_ZERO
            for r in range(dim):
                v = vec[r]
                entry = mat[r][c]
                if v and entry:
                    acc = acc + v * entry
            new_vec.append(acc)
        vec = new_vec
    if not word:
        return ZPOLY_ZERO
    return vec[dim - 1]


# -- the sweep --------------------------------------------------------------------

ReducedMats = List[List[List[ZPoly]]]


def reduce_rep(rep: LinearRepresentation, truncation_order: int) -> ReducedMats:
    """Entrywise image of the representation in C[z]/(z^(M+1)): every entry
    cut after z^M."""
    n_coeffs = truncation_order + 1
    return [
        [[ZPoly(entry.coeffs[:n_coeffs]) for entry in row] for row in mat]
        for mat in rep.mats
    ]


def _sparse_rows(mats: ReducedMats):
    """Reduced matrices as ``_sweep`` input: per-variable sparse rows, each
    coefficient a plain int when it is a real integer and a Scalar
    otherwise."""
    sparse = []
    for mat in mats:
        rows = {}
        for j, row in enumerate(mat):
            entries = [
                (t, tuple(
                    c if c.im or c.re.denominator != 1 else c.re.numerator
                    for c in e.coeffs
                ))
                for t, e in enumerate(row)
                if e
            ]
            if entries:
                rows[j] = entries
        sparse.append(rows)
    return sparse


def _add_product(row: dict, l: int, f, g, n_coeffs: int) -> None:
    """row[l] += f g, cut after z^(n_coeffs - 1); a new cell is ``int`` zeros."""
    cell = row.get(l)
    if cell is None:
        cell = row[l] = [0] * n_coeffs
    for r, x in enumerate(f[:n_coeffs]):
        if x:
            for k, y in enumerate(g[: n_coeffs - r], r):
                if y:
                    cell[k] += x * y


def _sweep(mats, dim: int, n_coeffs: int, steps: int) -> list:
    """Run P <- sum_i (mu_i (P + I))^2 ``steps`` times from P = 0; entry (1, N).

    ``mats`` are ``_sparse_rows`` output, with ``int`` or ``Scalar``
    coefficients; ``n_coeffs`` is M + 1.  P is sparse rows, row j -> {column
    l: coefficient list}, and each sweep reads only the previous P (a Jacobi
    sweep): per letter, A_i = mu_i (P + I) and then A_i A_i.
    """
    p = {}
    for _ in range(steps):
        new = {}
        for mu in mats:
            a = {}
            for j, entries in mu.items():
                row = a[j] = {}
                for t, zp in entries:
                    _add_product(row, t, zp, (1,), n_coeffs)
                    for l, cell in p.get(t, {}).items():
                        _add_product(row, l, zp, cell, n_coeffs)
            for j, row in a.items():
                out = new.setdefault(j, {})
                for t, f in row.items():
                    for l, g in a.get(t, {}).items():
                        _add_product(out, l, f, g, n_coeffs)
        p = new
    return p.get(0, {}).get(dim - 1, [0] * n_coeffs)


def iterate_system(
    mats: ReducedMats, dim: int, truncation_order: int, iterations: int
) -> ZPoly:
    """Iterate P <- sum_i (mu_i (P + I))^2 from P = 0; entry (1, N) of P.

    The z^m coefficient of the result equals tau(q(s_1,...,s_n)^m) for
    1 <= m <= M whenever ``iterations`` >= deg(q)*M.
    """
    if iterations < 1:
        raise ValueError("iteration count must be at least 1")
    sparse = _sparse_rows(mats)
    return ZPoly(_sweep(sparse, dim, truncation_order + 1, iterations))
