"""The end-to-end moment pipeline.

Given a noncommutative polynomial p and a target order M, the engine

1. clears the denominators of every coefficient of p, the constant c
   included (``NCPolynomial.integer_terms``), so lam*p has Gaussian-integer
   coefficients, and sets its constant lam*c aside: lam*p = lam*c + lam*q;
2. builds (z*lam*q)* as a weighted automaton on the prefix trie of q's words:
   one state per proper nonempty prefix, then the start state, which is
   also the final state, so N = 1 + #prefixes.  z rides on the edges
   leaving the start state, and the term coefficient on each word's last
   edge, which goes back into the start state (the star);
3. writes the automaton straight into sparse kernel rows over plain ``int``,
   one set per letter that occurs, realizing the substitution X_i -> 1.
   When a coefficient is complex, a + b*i is written as the single int
   a + b*r of Z/(r^2 + 1), with r = 2^S: since r^2 = -1 there, this is a
   ring homomorphism from the Gaussian integers (Kronecker substitution),
   so the solve keeps N rows and does one int product per complex product;
4. solves P = sum_i (mu_i (P + I))^2 one order at a time, each order in one
   pass over the rows from last to first: the z^0 part is strictly upper
   triangular, so this is a back-substitution.  The z^m coefficient of entry
   (start, start) is then tau((lam*q)(s)^m) for every m <= M.  For complex
   input the solve runs modulo n = r^2 + 1, and the entry, taken in
   (-n/2, n/2], is Re + Im*r exactly: ||s_i|| = 2 bounds
   |tau((lam*q)^m)| by B^m, B = sum_w (|re| + |im|) 2^|w|, and
   S = M*bitlen(B) + 2 makes r/2 exceed B^M, so Im = round(v / r) and
   Re = v - Im*r.  The cost is that every cell carries about 2S bits from
   order 0 on, where a real input's cells grow with the order: dense inputs
   run several times faster than with Re and Im in separate rows, but a
   sparse P at high M (``x1*x2*x3*x1 + x2*x2*x1 + 3*i*x3^5 - x1`` at
   M = 160) runs about 1.6 times slower;
5. checks, for every order, the norm bound Re^2 + Im^2 <= B^(2m) on
   tau((lam*q)^m), and that every moment is real when p is self-adjoint:
   O(M) int operations that also guard the decode (a violation raises
   ``AssertionError`` naming the order);
6. recovers tau((lam*p)(s)^m) by the binomial theorem in lam*c, over ``int``
   pairs and only the orders j with tau((lam*q)^j) != 0, and divides each
   order once by lam^m.  A constant p has no words: the automaton is empty
   (N = 0) and only the (lam*c)^m term remains.

The paper's route (its block constructions and the T = deg(q)*M sweep)
lives in ``reference``, which this module does not import: the tests check
the engine against it.

Everything is exact; the returned moments are Scalars, built once per
order from two ``Fraction``s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

from . import _kernel
from .ncpoly import NCPolynomial
from .scalar import Scalar

# the solve keeps length-(M+1) coefficient lists; refuse an M whose lists
# alone would exhaust memory before any arithmetic (same bound as the
# parser's MAX_PARSE_DEGREE)
MAX_ORDER = 10**4


@dataclass(frozen=True)
class MomentVector:
    """Moments tau(p(s)^m) for m = 1..M plus a few size statistics."""

    values: Tuple[Scalar, ...]
    rep_dim: int        # N states of the trie automaton, or 0 when p was
                        # constant
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


def build_trie_rows(terms) -> Tuple[List[dict], int]:
    """Kernel rows of (z*q)* on the prefix trie of q's words.

    ``terms`` lists q's terms as ``(word, weight)`` with nonempty words and
    nonzero ``int`` weights.  Returns the rows of each letter that occurs
    (row -> [(col, z-coefficient tuple)]) and the state count
    N = 1 + #prefixes (0 without terms).  Prefix states come first, parents
    before children, then the start state N - 1, which is also the final
    state: each word's last edge goes back into it.  Every z^0 edge goes to
    a higher state, since only edges leaving the start state, which carry
    z, can end on or below their source.
    """
    states = {}  # proper nonempty prefix -> state, in creation order
    for word, _ in terms:
        for j in range(1, len(word)):
            states.setdefault(word[:j], len(states))
    start = states[()] = len(states)
    edges = {}  # (letter, src, dst) -> weight
    for word, weight in terms:
        for j in range(1, len(word)):
            edges[word[j - 1], states[word[: j - 1]], states[word[:j]]] = 1
        edges[word[-1], states[word[:-1]], start] = weight
    rows = {}  # letter -> row -> [(col, z-coefficient tuple)]
    for (letter, src, dst), weight in edges.items():
        # every edge leaving the start state carries one z
        rows.setdefault(letter, {}).setdefault(src, []).append(
            (dst, (0, weight) if src == start else (weight,))
        )
    # a constant p has no words, hence no states
    return list(rows.values()), start + 1 if terms else 0


def moments(p: NCPolynomial, max_order: int) -> MomentVector:
    """All moments tau(p(s_1,...,s_n)^m) for m = 1..max_order, exactly."""
    if not 1 <= max_order <= MAX_ORDER:
        raise ValueError(f"max_order must be between 1 and {MAX_ORDER}")
    # clear every denominator, the constant's included, so the whole path
    # runs on integers: tau(p^m) = tau((lam*p)^m) / lam^m
    lam, terms = p.integer_terms()
    # p = p* term by term: reverse each word and conjugate (lam is real)
    parts = {w: (re, im) for w, re, im in terms}
    self_adjoint = all(parts.get(w[::-1]) == (re, -im) for w, re, im in terms)
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
    rows, n_states = build_trie_rows([(w, re + im * r) for w, re, im in terms])
    n_coeffs = max_order + 1
    p_mat = _kernel.solve(rows, n_states, n_coeffs, modulus)
    start = n_states - 1
    entry = p_mat.get(start, {}).get(start, [0] * n_coeffs)
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
        den = lam**m
        values.append(Scalar(Fraction(x, den), Fraction(y, den)))
    return MomentVector(tuple(values), n_states, p.n_vars, p.degree, p.n_terms)


def __getattr__(name):
    # only for perfbench/spans.py, which still wraps these reference names
    # here; delete once it wraps the production path (ROADMAP item 1)
    if name in ("build_zq_star", "reduce_rep", "iterate_system"):
        from . import reference

        return getattr(reference, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
