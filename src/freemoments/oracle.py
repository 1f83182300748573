"""Brute-force ground truth for moments of polynomials in free semicirculars.

Everything here is independent of the matrix-iteration engine and
deliberately exponential:

* moments of a single word come from counting non-crossing pairings whose
  paired positions carry equal letters (mixed free cumulants vanish and the
  only nonzero semicircular cumulant is kappa_2 = 1);
* moments of a polynomial expand (lam*p)^m term by term over integer
  coefficients, with lam the least common multiple of the denominators of
  p's coefficients, and divide the pairing-weighted sum by lam^m once;
* the moment <-> free-cumulant conversion sums over non-crossing partitions
  via the first-block recursion;
* a second oracle iterates the one-equation algebraic system
  Y <- sum_i (X_i (Y + 1))^2 in the word-truncated series ring and must
  reproduce the pairing counts.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

from .errors import CapExceededError
from .ncpoly import NCPolynomial, Word
from .scalar import ONE, ZERO, Scalar

Pairing = Tuple[Tuple[int, int], ...]

PAIRING_CAP = 8  # enumerate at most 2k = 16 points
WORD_MOMENT_CAP = 16
CUMULANT_CAP = 12
PSEMI_CAP = 12
DEFAULT_EXPANSION_CAP = 10**6
PAIRING_CACHE_MAX = 1 << 16  # words; brute_moment clears the cache past this


def catalan(k: int) -> int:
    """The k-th Catalan number C(2k, k) / (k + 1)."""
    return math.comb(2 * k, k) // (k + 1)


def enumerate_nc_pairings(k: int) -> List[Pairing]:
    """All non-crossing perfect pairings of {1..2k}, Catalan(k) of them.

    Deterministic order: position 1 pairs with 2, 4, ..., 2k in turn, with
    interior pairings enumerated before exterior ones.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k > PAIRING_CAP:
        raise CapExceededError(
            f"refusing to enumerate {catalan(k)} pairings (k={k} exceeds "
            f"cap {PAIRING_CAP})"
        )
    return list(_pairings(1, 2 * k))


def _pairings(lo: int, hi: int):
    if lo > hi:
        yield ()
        return
    for mate in range(lo + 1, hi + 1, 2):
        for inner in _pairings(lo + 1, mate - 1):
            for outer in _pairings(mate + 1, hi):
                yield ((lo, mate),) + inner + outer


@lru_cache(maxsize=None)
def _consistent_pairing_count(word: Word) -> int:
    """Non-crossing pairings of positions of ``word`` matching equal letters.

    First position pairs with a matching letter at odd distance; the interior
    and exterior segments are independent.  Subword tuples are cached, which
    shares work across overlapping queries.
    """
    length = len(word)
    if length == 0:
        return 1
    if length % 2:
        return 0
    first = word[0]
    total = 0
    for k in range(1, length, 2):
        if word[k] == first:
            inner = _consistent_pairing_count(word[1:k])
            if inner:
                total += inner * _consistent_pairing_count(word[k + 1 :])
    return total


def word_moment(word: Word, max_length: int = WORD_MOMENT_CAP) -> Scalar:
    """tau(F(s_1,...,s_n)) for a word F: a nonnegative integer.

    Zero for odd lengths, one for the empty word.  ``max_length`` guards
    against accidental huge inputs; callers that genuinely need longer words
    (the naive-expansion demo) may raise it.
    """
    word = tuple(word)
    if len(word) > max_length:
        raise CapExceededError(
            f"word of length {len(word)} exceeds cap {max_length}"
        )
    if len(word) % 2:
        return ZERO
    counts: Dict[int, int] = {}
    for letter in word:
        counts[letter] = counts.get(letter, 0) + 1
    if any(c % 2 for c in counts.values()):
        return ZERO
    return Scalar(_consistent_pairing_count(word))


def check_expansion_cap(
    p: NCPolynomial, m: int, expansion_cap: int = DEFAULT_EXPANSION_CAP
) -> None:
    """Refuse an order m whose expansion of p^m exceeds ``expansion_cap``.

    Raises ``CapExceededError`` when (m_p)^m > ``expansion_cap``; the zero
    polynomial and m <= 0 are never refused.  With two or more terms,
    (m_p)^m >= 2^m already exceeds the cap once m passes the cap's bit
    length, so a huge m is refused without building (m_p)^m.
    """
    n_terms = p.n_terms
    if m <= 0 or n_terms == 0:
        return
    if (
        n_terms >= 2 and m > expansion_cap.bit_length()
    ) or n_terms ** m > expansion_cap:
        raise CapExceededError(
            f"naive expansion needs {n_terms}^{m} monomials, over the cap "
            f"of {expansion_cap}"
        )


def brute_moment(
    p: NCPolynomial, m: int, expansion_cap: int = DEFAULT_EXPANSION_CAP
) -> Scalar:
    """tau(p(s_1,...,s_n)^m) by full expansion of the m-th power.

    Expands to up to (m_p)^m monomials; this is the exponential blow-up the
    engine avoids.  Requests whose raw expansion exceeds ``expansion_cap``
    are refused (``check_expansion_cap``).

    The expansion runs on integers only.  With lam and the integer
    coefficients of lam*p from ``NCPolynomial.integer_terms``, (lam*p)^m is
    expanded by square and multiply over a map from word to ``int``, or to
    an ``(re, im)`` pair of ``int``s when a coefficient is not real.  The
    pairing counts of its even-length words weight an integer sum, which is
    divided by lam^m once at the end.
    """
    if m < 0:
        raise ValueError("moment order must be nonnegative")
    if m == 0:
        return ONE
    if p.is_zero():
        return ZERO
    check_expansion_cap(p, m, expansion_cap)
    max_len = max(WORD_MOMENT_CAP, p.degree * m)
    lam, terms = p.integer_terms()
    gaussian = any(im for _, _, im in terms)
    if gaussian:
        mul = _mul_gaussian
        base = {w: (re, im) for w, re, im in terms}
    else:
        mul = _mul_int
        base = {w: re for w, re, _ in terms}
    # square and multiply; the factors are powers of lam*p, so they commute
    power = None
    n = m
    while n:
        if n & 1:
            power = base if power is None else mul(power, base)
        n >>= 1
        if n:
            base = mul(base, base)
    if gaussian:
        re = im = 0
        for k, (c_re, c_im) in _counted_words(power, max_len):
            re += k * c_re
            im += k * c_im
    else:
        re = sum(k * c for k, c in _counted_words(power, max_len))
        im = 0
    # keep the cached subwords shared across calls, but not without bound
    if _consistent_pairing_count.cache_info().currsize > PAIRING_CACHE_MAX:
        _consistent_pairing_count.cache_clear()
    den = lam ** m
    return Scalar(Fraction(re, den), Fraction(im, den))


def _counted_words(power: Dict[Word, object], max_len: int):
    """(pairing count, coefficient) for each even-length word of ``power``.

    The pairing count is tau(w) itself: the recursion returns 0 for a word
    with a letter of odd multiplicity, so no letter scan runs first.
    """
    count = _consistent_pairing_count
    for word, c in power.items():
        length = len(word)
        if length & 1:
            continue
        if length > max_len:
            raise CapExceededError(
                f"word of length {length} exceeds cap {max_len}"
            )
        yield count(word), c


def _mul_int(a: Dict[Word, int], b: Dict[Word, int]) -> Dict[Word, int]:
    """Product of two integer polynomials as word -> int maps."""
    out: Dict[Word, int] = {}
    get = out.get
    for wa, ca in a.items():
        for wb, cb in b.items():
            w = wa + wb
            out[w] = get(w, 0) + ca * cb
    return out


def _mul_gaussian(
    a: Dict[Word, Tuple[int, int]], b: Dict[Word, Tuple[int, int]]
) -> Dict[Word, Tuple[int, int]]:
    """Product of two Gaussian-integer polynomials, coefficients (re, im)."""
    out: Dict[Word, Tuple[int, int]] = {}
    get = out.get
    for wa, (ar, ai) in a.items():
        for wb, (br, bi) in b.items():
            w = wa + wb
            prev = get(w)
            re = ar * br - ai * bi
            im = ar * bi + ai * br
            out[w] = (re, im) if prev is None else (prev[0] + re, prev[1] + im)
    return out


# -- moment <-> free cumulant conversion ------------------------------------------


def _composition_sums(moments: List[Scalar], n: int) -> List[List[Scalar]]:
    """comps[s][t] = sum over (i_1..i_s >= 0, sum = t) of m_{i_1}*...*m_{i_s}.

    ``moments`` holds m_0..m_n.  Rows are built by convolution.
    """
    comps = [[ZERO] * (n + 1) for _ in range(n + 1)]
    if n >= 0:
        comps[0][0] = ONE
    for s in range(1, n + 1):
        prev = comps[s - 1]
        row = comps[s]
        for t in range(n + 1):
            acc = ZERO
            for i in range(t + 1):
                if prev[t - i] and moments[i]:
                    acc = acc + moments[i] * prev[t - i]
            row[t] = acc
    return comps


def free_cumulants(moments: Sequence[Scalar]) -> List[Scalar]:
    """kappa_1..kappa_k from m_1..m_k via non-crossing partitions.

    Inverts m_n = sum_{s=1}^{n} kappa_s * (sum over gap compositions of
    products of moments), the recursion obtained by conditioning on the block
    containing position 1.
    """
    k = len(moments)
    if k > CUMULANT_CAP:
        raise CapExceededError(f"cumulant order {k} exceeds cap {CUMULANT_CAP}")
    ms: List[Scalar] = [ONE] + [
        c if isinstance(c, Scalar) else Scalar(c) for c in moments
    ]
    comps = _composition_sums(ms, k)
    kappas: List[Scalar] = [ZERO] * (k + 1)
    for n in range(1, k + 1):
        acc = ms[n]
        for s in range(1, n):
            if kappas[s] and comps[s][n - s]:
                acc = acc - kappas[s] * comps[s][n - s]
        kappas[n] = acc
    return kappas[1:]


def moments_from_cumulants(cumulants: Sequence[Scalar]) -> List[Scalar]:
    """m_1..m_k from kappa_1..kappa_k; inverse of ``free_cumulants``."""
    k = len(cumulants)
    if k > CUMULANT_CAP:
        raise CapExceededError(f"cumulant order {k} exceeds cap {CUMULANT_CAP}")
    ks = [
        c if isinstance(c, Scalar) else Scalar(c) for c in cumulants
    ]
    ms: List[Scalar] = [ONE]
    for n in range(1, k + 1):
        comps = _composition_sums(ms + [ZERO], n)
        acc = ZERO
        for s in range(1, n + 1):
            if ks[s - 1] and comps[s][n - s]:
                acc = acc + ks[s - 1] * comps[s][n - s]
        ms.append(acc)
    return ms[1:]


# -- second oracle: the semicircular algebraic system ------------------------------


def _mul_word_truncated(
    a: Dict[Word, int], b: Dict[Word, int], max_length: int
) -> Dict[Word, int]:
    out: Dict[Word, int] = {}
    by_len: Dict[int, List[Tuple[Word, int]]] = {}
    for wb, cb in b.items():
        by_len.setdefault(len(wb), []).append((wb, cb))
    for wa, ca in a.items():
        room = max_length - len(wa)
        if room < 0:
            continue
        for length, items in by_len.items():
            if length > room:
                continue
            for wb, cb in items:
                w = wa + wb
                out[w] = out.get(w, 0) + ca * cb
    return out


def psemi_table(max_length: int, n_vars: int) -> Dict[Word, int]:
    """Coefficients of the semicircular moment series on words up to a length.

    Iterates Y <- sum_i (X_i (Y + 1))^2 from zero, ``max_length`` times, in
    the ring truncated at word length ``max_length``; the resulting
    coefficient of F equals tau(F(s_1,...,s_n)).
    """
    if max_length > PSEMI_CAP:
        raise CapExceededError(
            f"word length {max_length} exceeds cap {PSEMI_CAP}"
        )
    y: Dict[Word, int] = {}
    for _ in range(max_length):
        y_plus_1 = dict(y)
        y_plus_1[()] = y_plus_1.get((), 0) + 1
        new_y: Dict[Word, int] = {}
        for i in range(1, n_vars + 1):
            shifted = {
                (i,) + w: c for w, c in y_plus_1.items() if len(w) < max_length
            }
            for w, c in _mul_word_truncated(shifted, shifted, max_length).items():
                new_y[w] = new_y.get(w, 0) + c
        y = new_y
    return y


def psemi_coefficient(word: Word, degree_cap: int) -> Scalar:
    """Coefficient of F in the iterated semicircular system; equals
    ``word_moment(F)`` (the unit word is not stored and reads as 0)."""
    word = tuple(word)
    if degree_cap > PSEMI_CAP:
        raise CapExceededError(f"degree cap {degree_cap} exceeds {PSEMI_CAP}")
    if len(word) > degree_cap:
        raise CapExceededError(
            f"word of length {len(word)} exceeds degree cap {degree_cap}"
        )
    n_vars = max(word, default=1)
    table = psemi_table(degree_cap, n_vars)
    return Scalar(table.get(word, 0))
