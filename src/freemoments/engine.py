"""The end-to-end moment pipeline.

Given a noncommutative polynomial p and a target order M, the engine

1. takes lam*p as p stores it (``NCPolynomial.integer_terms``): lam is the
   lcm of the denominators of every coefficient, the constant c's included,
   so lam*p has Gaussian-integer coefficients, which the parser computed
   on integers from the text on; it sets the constant lam*c aside:
   lam*p = lam*c + lam*q;
2. builds (z*lam*q)* as a weighted automaton on the residuals of q
   (Berstel and Reutenauer, Noncommutative Rational Series with
   Applications, ch. 2): its states are the distinct nonconstant
   residuals a^-1 f of q and of the states, each divided by its integer
   content and sign, then the start state q, which is also the final
   state.  From state f, a^-1 f = c0 + g*r gives an edge of weight g to
   state r and one of weight c0 back into the start state (the star), and
   z rides on the edges leaving the start state.  So N is at most
   1 + #prefixes of q's words, and a power of a sum collapses:
   ``(x1+x2)^8`` has N = 8 where its prefixes number 254;
3. writes the automaton straight into sparse kernel rows over plain ``int``,
   one set per letter that occurs, realizing the substitution X_i -> 1.
   When a coefficient is complex, a + b*i is written as the single int
   a + b*r of Z/(r^2 + 1), with r = 2^S: since r^2 = -1 there, this is a
   ring homomorphism from the Gaussian integers (Kronecker substitution),
   so the solve keeps N rows and does one int product per complex product;
4. solves P = sum_i (mu_i (P + I))^2 as Q = I + eta(Q) Q, with Q = P + I
   and eta(Q) = sum_i mu_i Q mu_i (the operator-valued semicircular
   equation), one order at a time, each order in one pass over the rows
   from last to first: the z^0 part is strictly upper triangular, so this
   is a back-substitution.  Every mu_i entry has z-degree <= 1, so eta(Q)
   takes no convolution, and each order does one matrix-series product,
   eta(Q) Q, whatever the number of letters, with eta(Q) summed over a flat
   plan per row and phase built once per solve.  When some weight chi of
   the letters makes every word of q odd, the rows have a Z/2 grading (a
   phase per state, with z on exactly the edges whose phases and letter
   weight sum to 1), which the builder finds from q's words alone and
   hands to ``_kernel.solve``: a cell of P is then nonzero only at orders
   of one parity, so each order writes half of the cells and the
   convolutions take every second order (see ``_kernel``).
   For free semicirculars tau(w) = 0 unless every letter occurs in w an
   even number of times, so such a q has tau(q^m) = 0 at odd m.  The z^m
   coefficient of entry (start, start) is then tau((lam*q)(s)^m) for every
   m <= M, and that entry is all the solve returns: the start state is
   state N - 1 and has no z^0 edge, so the last order computes row start
   of eta(Q) and the one convolution into the entry, and no other cell
   (see ``_kernel``).  For complex
   input the solve runs modulo n = r^2 + 1, and the entry, taken in
   (-n/2, n/2], is Re + Im*r exactly: ||s_i|| = 2 bounds
   |tau((lam*q)^m)| by B^m, B = sum_w (|re| + |im|) 2^|w|, and
   S = M*bitlen(B) + 2 makes r/2 exceed B^M, so Im = round(v / r) and
   Re = v - Im*r.  The cost is that every cell carries about 2S bits from
   order 0 on, where a real input's cells grow with the order: dense inputs
   run several times faster than with Re and Im in separate rows, but a
   sparse P at high M (``x1*x2*x3*x1 + x2*x2*x1 + 3*i*x3^5 - x1`` at
   M = 160) runs about 1.3 times slower;
5. checks, for every order, the norm bound Re^2 + Im^2 <= B^(2m) on
   tau((lam*q)^m), and that every moment is real when p is self-adjoint:
   O(M) int operations that also guard the decode (a violation raises
   ``AssertionError`` naming the order);
6. recovers tau((lam*p)(s)^m) by the binomial theorem in lam*c, over ``int``
   pairs and only the orders j with tau((lam*q)^j) != 0, and divides each
   order once by lam^m, a running product.  A constant p has no words:
   the automaton is empty (N = 0) and only the (lam*c)^m term remains.

The paper's route (its block constructions and the T = deg(q)*M sweep)
lives in ``reference``, which this module does not import: the tests check
the engine against it.

Everything is exact; the returned moments are Scalars, built once per
order from int parts over lam^m by ``scalar.from_ints``, unvalidated.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Optional, Tuple

from . import _kernel
from .ncpoly import NCPolynomial
from .scalar import Scalar, from_ints

# the solve keeps length-(M+1) coefficient lists; refuse an M whose lists
# alone would exhaust memory before any arithmetic (same bound as the
# parser's MAX_PARSE_DEGREE)
MAX_ORDER = 10**4


class MomentVector(NamedTuple):
    """Moments tau(p(s)^m) for m = 1..M plus a few size statistics.

    A ``NamedTuple`` (not a dataclass, whose module pulls ``inspect`` and
    ``ast`` into ``import freemoments``): immutable, copyable and picklable,
    and also a plain 5-tuple of its fields, so it unpacks, iterates, has
    ``len`` 5 and compares equal to any tuple with the same fields.
    """

    values: Tuple[Scalar, ...]
    rep_dim: int        # N states of the residual automaton, or 0 when p
                        # was constant
    n_vars: int
    degree: int
    n_terms: int

    @property
    def max_order(self) -> int:
        return len(self.values)

    def value(self, m: int) -> Scalar:
        """tau(p(s)^m) for 1 <= m <= M."""
        if not 1 <= m <= self.max_order:
            raise IndexError(f"moment order {m} outside 1..{self.max_order}")
        return self.values[m - 1]


def build_residual_rows(terms) -> Tuple[List[dict], int, Optional[_kernel.Grading]]:
    """Kernel rows of (z*q)* on the residual automaton of q, and its grading.

    ``terms`` lists q's terms as ``(word, weight)`` with nonempty words and
    nonzero ``int`` weights.  The states are q and the distinct nonconstant
    residuals a^-1 f of the states f, each divided by its integer content
    and sign: a^-1 f = c0 + g*r gives an edge of weight g to state r and
    one of weight c0 back into q, the start state, which is also final.
    The internal states are numbered by decreasing degree, in creation
    order, and the start state is N - 1; N is 0 without terms.  So every
    z^0 edge goes to a higher state, since only edges leaving the start
    state, which carry z, can end on or below their source.

    Returns the rows of each letter that occurs (row -> [(col, z-coefficient
    tuple)]), N, and the rows' grading, or None when they have none.  They
    have one exactly when some weight chi of the letters makes every word of
    q odd (see ``_kernel``); the start state's phase is then 0, and an
    internal state's the chi-parity of its words, which all share it.
    """
    if not terms:  # a constant p has no words, hence no states
        return [], 0, None
    polys = [dict(terms)]  # the start state q, then the residuals as created
    found = {}  # normalized residual, as a set of terms -> its index in polys
    edges = []  # (letter, src, dst, weight), indices in polys
    for src, f in enumerate(polys):
        parts = {}  # letter a -> a^-1 f
        for word, c in f.items():
            parts.setdefault(word[0], {})[word[1:]] = c
        for letter, part in parts.items():
            c0 = part.pop((), 0)
            if c0:
                edges.append((letter, src, 0, c0))
            if part:
                g = math.gcd(*part.values())
                g = -g if part[min(part)] < 0 else g
                if g != 1:
                    part = {word: c // g for word, c in part.items()}
                key = frozenset(part.items())
                if key not in found:
                    found[key] = len(polys)
                    polys.append(part)
                edges.append((letter, src, found[key], g))
    n_states = len(polys)
    internal = sorted(range(1, n_states), key=lambda s: -max(map(len, polys[s])))
    number = {s: n for n, s in enumerate([*internal, 0])}
    rows = {}  # letter -> row -> [(col, z-coefficient tuple)]
    for letter, src, dst, weight in edges:
        # every edge leaving the start state carries one z
        rows.setdefault(letter, {}).setdefault(number[src], []).append(
            (number[dst], (weight,) if src else (0, weight))
        )
    # chi by elimination over GF(2): bit 0 of an equation is its right-hand
    # side, and bit i + 1 the weight of the letter of rows[i]
    index = {letter: i for i, letter in enumerate(rows)}
    basis = []  # reduced equations, by decreasing leading bit
    for word in polys[0]:
        eq = 1
        for letter in word:
            eq ^= 2 << index[letter]
        for b in basis:
            eq = min(eq, eq ^ b)
        if eq == 1:  # 0 = 1
            return list(rows.values()), n_states, None
        if eq:
            basis.append(eq)
            basis.sort(reverse=True)
    # a reduced equation's other letters are below its leading one, so from
    # the lowest leading bit up each weight is fixed; free weights are 0
    chi = 0
    for b in reversed(basis):
        if ((b & chi).bit_count() + b) & 1:
            chi |= 1 << (b.bit_length() - 1)
    weights = [(chi >> i) & 1 for i in range(1, len(index) + 1)]
    phase = [sum(weights[index[a]] for a in next(iter(polys[s]))) & 1 for s in internal]
    return list(rows.values()), n_states, (phase + [0], weights, 2)


def moments(p: NCPolynomial, max_order: int) -> MomentVector:
    """All moments tau(p(s_1,...,s_n)^m) for m = 1..max_order, exactly."""
    if not 1 <= max_order <= MAX_ORDER:
        raise ValueError(f"max_order must be between 1 and {MAX_ORDER}")
    # p is stored with every denominator cleared, the constant's included,
    # so the whole path runs on integers: tau(p^m) = tau((lam*p)^m) / lam^m
    lam, terms = p.integer_terms()
    self_adjoint = p.is_self_adjoint()
    c_re = c_im = 0
    if terms and not terms[0][0]:  # the constant sorts first
        _, c_re, c_im = terms.pop(0)
    # |tau((lam*q)^m)| <= B^m, since ||s_i|| = 2
    bound = sum((abs(re) + abs(im)) << len(w) for w, re, im in terms)
    # a complex lam*q runs as one int per weight in Z/(r^2 + 1), where
    # r^2 = -1; r/2 > B^M makes the read-back exact
    shift = max_order * bound.bit_length() + 2
    r = 1 << shift if any(im for _, _, im in terms) else 0
    modulus = r * r + 1 if r else 0
    rows, n_states, grading = build_residual_rows(
        [(w, re + im * r) for w, re, im in terms]
    )
    n_coeffs = max_order + 1
    # entry (start, start) of P: the start state is N - 1
    entry = _kernel.solve(rows, n_states, n_coeffs, modulus, grading)
    if entry[0]:
        # every path out of the start state carries at least one factor of z
        raise AssertionError(
            "iteration produced a nonzero constant term at entry (start, start)"
        )
    # tau((lam*p)^m) = sum_j C(m, j) (lam*c)^(m-j) tau((lam*q)^j) over int
    # pairs, with only the j whose tau((lam*q)^j) is nonzero summed (a
    # constant p has just j = 0); each order is then divided once
    taus = [(0, 1, 0)]  # (j, re, im) for each nonzero tau((lam*q)^j), j < m
    c_pows = [(1, 0)]  # (lam*c)^k
    norm_bound = 1  # B^(2m)
    den = 1  # lam^m
    values = []
    for m in range(1, n_coeffs):
        t_re, t_im = entry[m], 0
        if r:
            # the solve leaves entry[m] in (-n/2, n/2], where it equals
            # Re + Im*r exactly
            t_im = (t_re + (r >> 1)) >> shift  # round(entry[m] / r)
            t_re -= t_im * r
        norm_bound *= bound * bound
        if t_re * t_re + t_im * t_im > norm_bound:
            raise AssertionError(
                f"order {m}: tau((lam*q)^{m}) exceeds the norm bound B^{m}, "
                f"B = {bound}"
            )
        x, y = t_re, t_im
        if c_re or c_im:
            a, b = c_pows[-1]
            c_pows.append((a * c_re - b * c_im, a * c_im + b * c_re))
            for j, u_re, u_im in taus:
                a, b = c_pows[m - j]
                binom = math.comb(m, j)
                x += binom * (a * u_re - b * u_im)
                y += binom * (a * u_im + b * u_re)
        if self_adjoint and y:
            raise AssertionError(
                f"order {m}: the moment of a self-adjoint polynomial is not real"
            )
        if t_re or t_im:
            taus.append((m, t_re, t_im))
        den *= lam
        values.append(from_ints(x, y, den))
    return MomentVector(tuple(values), n_states, p.n_vars, p.degree, p.n_terms)


def __getattr__(name):
    # only for perfbench/spans.py, which still wraps these reference names
    # here; delete once it wraps the production path (ROADMAP item 1)
    if name in ("build_zq_star", "reduce_rep", "iterate_system"):
        from . import reference

        return getattr(reference, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
