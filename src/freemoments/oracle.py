"""Brute-force ground truth for moments of polynomials in free semicirculars.

This module holds what the CLI's ``verify`` and ``bench`` run, the free
cumulants of the text output and ``word_moment``.  Everything here is
independent of the matrix-iteration engine and deliberately exponential:

* moments of a single word come from counting non-crossing pairings whose
  paired positions carry equal letters (mixed free cumulants vanish and the
  only nonzero semicircular cumulant is kappa_2 = 1);
* moments of a polynomial sum over the term sequences of (lam*q)^j, with
  lam the least common multiple of the denominators of p's coefficients
  and q = p - c its nonconstant part, and divide the pairing-weighted sum
  by lam^m once.  Each coefficient is an ``int``, or a ``_Gaussian``
  integer for a term with an imaginary part, on one arithmetic path.  The
  constant c is central, so tau((lam*p)^m) is the binomial sum of
  C(m, j) (lam*c)^(m-j) tau((lam*q)^j).  tau is a trace and non-crossing
  pairings are invariant under rotation (Nica-Speicher, Lectures on the
  Combinatorics of Free Probability, 2006, Lect. 8 and 22), so the
  sequences are split into blocks (lam*q)^a and each rotation class of
  blocks, a necklace, is counted once, weighted by its number of
  rotations, in one walk per order that counts in place.  A necklace
  whose word has a letter of odd multiplicity has count 0; the walk joins
  no word for it.
  ``brute_moments`` returns every order up to M from one call, which shares
  the blocks and the sums of q's powers across the orders;
* inside the oracle a word is a ``str`` of dense letter codes: the letters
  that occur become chr(1), chr(2), ... (``_letter_codes``), which leaves
  tau unchanged, so the blocks, the joined words and the table's keys slice
  and hash in C;
* one counter, ``_pairing_count``, runs the pairing recursion from an
  explicit stack over one table of counts (``_pairing_table``) shared
  across orders and calls.  It empties the table before a new word once
  the table holds more than ``PAIRING_CACHE_MAX`` words, and refuses a
  word whose subwords pass ``PAIRING_STACK_CAP`` letters with
  ``PairingCapExceededError``, a ``CapExceededError`` that no option lifts;
* the moment <-> free-cumulant conversion is one first-block recursion,
  run forwards or backwards.
"""

from __future__ import annotations

import math
import operator
import sys
from bisect import bisect_right
from functools import lru_cache, reduce
from itertools import chain
from typing import Dict, List, Sequence

from .errors import CapExceededError, PairingCapExceededError
from .ncpoly import NCPolynomial, Word
from .scalar import ONE, ZERO, Scalar, from_ints

WORD_MOMENT_CAP = 16
CUMULANT_CAP = 12
DEFAULT_EXPANSION_CAP = 10**6
PAIRING_CACHE_MAX = 1 << 16  # words; the table is emptied past this before a new word
PAIRING_STACK_CAP = 1 << 22  # letters of subwords one word's count may add to the table
LETTER_CODE_CAP = sys.maxunicode  # distinct letters: the codes chr(1)..chr(sys.maxunicode)
# A necklace costs about two counted words: besides its pairing count, the
# FKM step, joining its blocks and multiplying their coefficients take about
# as long again (measured on the verify corpus and on one-letter inputs).
NECKLACE_COST = 2


def catalan(k: int) -> int:
    """The k-th Catalan number C(2k, k) / (k + 1)."""
    return math.comb(2 * k, k) // (k + 1)


@lru_cache(maxsize=1)
def _pairing_table() -> Dict[str, int]:
    """The pairing counts of the words and subwords counted so far.

    Words are strings of dense letter codes (``_letter_codes``).  One table,
    shared across orders and calls; ``cache_clear()`` empties it.
    """
    return {"": 1}


def _letter_codes(letters) -> Dict[int, str]:
    """chr(1), chr(2), ... for the distinct ``letters``, in increasing order.

    tau does not change when letters are relabelled, so the oracle counts
    words as strings of these codes, whose slices and hashes run in C.  More
    distinct letters than ``chr`` can code are refused with
    ``PairingCapExceededError``.
    """
    if len(letters) > LETTER_CODE_CAP:
        raise PairingCapExceededError(
            f"{len(letters)} distinct letters, more than the {LETTER_CODE_CAP} "
            f"the pairing counter can code"
        )
    return {x: chr(i) for i, x in enumerate(sorted(letters), 1)}


def _pairing_count(word: str, known: Dict[str, int]) -> int:
    """Non-crossing pairings of positions of ``word`` matching equal letters.

    ``word`` is a string of letter codes that ``known`` does not hold yet;
    callers look it up first.  The first position pairs with a matching
    letter at odd distance; the interior and exterior segments are
    independent.  The recursion runs from an explicit stack, so a word of
    any length counts without ``RecursionError``: a frame whose next subword
    is not in ``known`` yet is set aside until it is.  Every subword's count
    goes into ``known``.  Beforehand ``known`` is emptied if it holds more
    than ``PAIRING_CACHE_MAX`` words; a word whose subwords add more than
    ``PAIRING_STACK_CAP`` letters to it is refused with
    ``PairingCapExceededError``.
    """
    if len(known) > PAIRING_CACHE_MAX:
        known.clear()
        known[""] = 1
    get = known.get
    held = 0
    stack = []  # frames set aside: word, next position to pair with its first, sum
    w, start, total = word, 1, 0
    while True:
        first = w[0]
        for k in range(start, len(w), 2):
            if w[k] == first:
                missing = w[1:k]
                inner = get(missing)
                if inner is None:
                    break
                if inner:
                    missing = w[k + 1 :]
                    outer = get(missing)
                    if outer is None:
                        break
                    total += inner * outer
        else:
            known[w] = total
            held += len(w)
            if held > PAIRING_STACK_CAP:
                raise PairingCapExceededError(
                    f"counting the pairings of a word of length {len(word)} "
                    f"needs more than {PAIRING_STACK_CAP} letters of subwords"
                )
            if not stack:
                return total
            w, start, total = stack.pop()
            continue
        stack.append((w, k, total))
        w, start, total = missing, 1, 0


def word_moment(word: Word, max_length: int = WORD_MOMENT_CAP) -> Scalar:
    """tau(F(s_1,...,s_n)) for a word F: a nonnegative integer.

    Zero for odd lengths, one for the empty word.  ``max_length`` guards
    against accidental huge inputs; a caller that needs a longer word
    raises it.  The count comes from ``_pairing_count`` on the shared table,
    the letters coded as a string (``_letter_codes``), so it can also be
    refused with ``PairingCapExceededError`` (see ``PAIRING_STACK_CAP``).
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
    code = _letter_codes(counts)
    word = "".join(map(code.__getitem__, word))
    known = _pairing_table()
    count = known.get(word)
    return Scalar(_pairing_count(word, known) if count is None else count)


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


def brute_moments(
    p: NCPolynomial, max_order: int, expansion_cap: int = DEFAULT_EXPANSION_CAP
) -> List[Scalar]:
    """[tau(p^m) for m = 1..max_order] by full expansion, from one call.

    The cap is checked once, at ``max_order``: p's term count, its constant
    included, raised to that power must not exceed ``expansion_cap``
    (``check_expansion_cap``).  The blocks (lam*q)^a of p's nonconstant part
    q and the pairing table are shared across the orders; see
    ``brute_moment``.
    """
    if max_order < 0:
        raise ValueError("moment order must be nonnegative")
    check_expansion_cap(p, max_order, expansion_cap)
    return _brute_moments(p, range(1, max_order + 1))


def brute_moment(
    p: NCPolynomial, m: int, expansion_cap: int = DEFAULT_EXPANSION_CAP
) -> Scalar:
    """tau(p(s_1,...,s_n)^m) by full expansion of the m-th power.

    Sums over the term sequences of p^m; this is the exponential blow-up
    the engine avoids.  Requests with (m_p)^m over ``expansion_cap`` are
    refused (``check_expansion_cap``), m_p counting p's constant too.

    The sum runs on integers only, Gaussian ones for complex terms.  With
    lam and the integer coefficients of lam*p from
    ``NCPolynomial.integer_terms``, write lam*p = lam*c + lam*q with c the
    constant.  c is central, so by the binomial theorem
    tau((lam*p)^m) = sum_j C(m, j) (lam*c)^(m-j) tau((lam*q)^j), over the
    j <= m with tau((lam*q)^j) != 0, and only q's t terms are expanded:
    t^j sequences, not (t+1)^m.  With no constant only j = m is summed.
    For each j the blocks D_a = (lam*q)^a, up to a = ceil(j/2), are maps
    from word, a string of dense letter codes (``_letter_codes``), to a
    coefficient: an ``int``, or a ``_Gaussian`` integer for one with an
    imaginary part.  tau is a trace, so a cyclic rotation of a sequence of
    blocks has the same moment, and (lam*q)^j = D_a^(j/a) is summed over
    necklaces (rotation classes) of j/a blocks: each necklace's word is
    counted once, weighted by its number of rotations, and no word is
    joined for a necklace with a letter of odd multiplicity.
    The plan (``_block_length``) picks the a that costs the least; a = j
    counts the words of D_j one by one.  The integer sum is divided by
    lam^m once at the end.
    """
    if m < 0:
        raise ValueError("moment order must be nonnegative")
    if m == 0:
        return ONE
    check_expansion_cap(p, m, expansion_cap)
    return _brute_moments(p, range(m, m + 1))[0]


def _brute_moments(p: NCPolynomial, orders: range) -> List[Scalar]:
    """tau(p^m) for each m of ``orders`` (a range of orders >= 1)."""
    if p.is_zero() or not orders:
        return [ZERO] * len(orders)
    lam, terms = p.integer_terms()
    code = _letter_codes({x for w, _, _ in terms for x in w})
    base = {
        "".join(map(code.__getitem__, w)): _Gaussian(re, im) if im else re
        for w, re, im in terms
    }
    constant = base.pop("", 0)  # lam*c
    top = orders[-1]
    # tau((lam*q)^j) for the j where it is nonzero; without a constant only
    # the orders asked for are summed
    sums = {0: 1}
    if base:
        blocks = [{"": 1}, base]
        for j in range(1, top + 1) if constant else orders:
            total = _power_sum(blocks, j)
            if total:
                sums[j] = total
    powers = [1]  # (lam*c)^k
    for _ in range(top):
        powers.append(powers[-1] * constant)
    values = []
    for m in orders:
        total = sum(
            math.comb(m, j) * powers[m - j] * s for j, s in sums.items() if j <= m
        )
        values.append(from_ints(total.real, total.imag, lam**m))
    return values


def _power_sum(blocks: List[Dict[str, object]], m: int):
    """tau((lam*q)^m) times lam^m: an ``int``, or a ``_Gaussian`` once a
    term with an imaginary part joins the sum.

    ``blocks`` holds the blocks (lam*q)^0, (lam*q)^1 and whatever powers
    earlier orders built; ``_block_length`` extends it and picks the block
    length a.  One loop looks up each word that can count in the shared
    table, counts it with ``_pairing_count`` if it is missing, and adds its
    count times its coefficient and its number of rotations in place.  With
    a = m the words are the even-length words of (lam*q)^m.  Otherwise they
    are the necklaces of n = m/a blocks of (lam*q)^a whose word has no
    letter of odd multiplicity: each necklace's least rotation, joined over
    its smallest period and repeated, weighted by that period.

    The FKM algorithm (Fredricksen-Kessler-Maiorana; Ruskey-Savage-Wang,
    J. Algorithms 13, 1992) walks the necklaces without recursion, since a
    one-block (lam*q)^a can come with n in the thousands: each step bumps
    the last index below the top and repeats the prefix up to it, which
    gives the prenecklaces in lexicographic order; one whose prefix length
    divides n is a necklace, with that length as its period.  Bumping the
    last index always gives an aperiodic necklace, so those steps are one
    pass over the blocks above the last index whose odd-letter bits cancel
    the prefix's (``with_bits`` lists the blocks per bits value), and no
    odd aperiodic necklace is visited.  A periodic necklace with an odd
    number of periods is skipped when its bits do not cancel.  The prefix
    parities, joined words and coefficient products are folded lazily from
    the first position a step changed.
    """
    known = _pairing_table()
    get = known.get
    total = 0
    a = _block_length(m, blocks)
    if a == m:
        for word, c in _mul(blocks[m // 2], blocks[(m + 1) // 2]).items():
            if len(word) & 1:
                continue
            k = get(word)
            if k is None:
                k = _pairing_count(word, known)
            if k:
                total += k * c
        return total
    n, words, coeffs = m // a, list(blocks[a]), list(blocks[a].values())
    if n & 1 and all(len(word) & 1 for word in words):
        return 0  # every word joins an odd number of odd-length blocks
    # each block's letters of odd multiplicity, as bits: a word whose blocks
    # do not cancel them all has an odd letter and count 0
    bit = {x: 1 << i for i, x in enumerate(set(chain.from_iterable(words)))}
    odd = [reduce(operator.xor, map(bit.__getitem__, word), 0) for word in words]
    with_bits: Dict[int, List[int]] = {}
    for x, bits in enumerate(odd):
        with_bits.setdefault(bits, []).append(x)
    top, last = len(words) - 1, n - 1
    # repeats[p]: n // p for a period p < n of n, else 0.  parity[j],
    # joined[j] and coefficient[j] fold the first j blocks of seq; they
    # hold for j <= checked and j <= built
    repeats = [0] + [0 if n % p else n // p for p in range(1, n)]
    parity = [0] * n
    joined = [""] * n
    coefficient = [1] * n
    seq = [0] * n
    period, checked, built = 1, 0, 0
    while True:
        while checked < last:
            parity[checked + 1] = parity[checked] ^ odd[seq[checked]]
            checked += 1
        r = repeats[period]
        if r & 1 and parity[period]:
            r = 0  # an odd number of periods whose bits do not cancel
        above = with_bits.get(parity[last], ())
        first = bisect_right(above, seq[last])  # the last index's next bumps
        target = last if first < len(above) else period if r else 0
        while built < target:
            x = seq[built]
            joined[built + 1] = joined[built] + words[x]
            coefficient[built + 1] = coefficient[built] * coeffs[x]
            built += 1
        if r:
            word = joined[period] * r
            k = get(word)
            if k is None:
                k = _pairing_count(word, known)
            if k:
                c = reduce(operator.mul, [coefficient[period]] * r)
                total += period * k * c
        for x in above[first:]:
            word = joined[last] + words[x]
            k = get(word)
            if k is None:
                k = _pairing_count(word, known)
            if k:
                total += n * k * (coefficient[last] * coeffs[x])
        i = last - 1
        while seq[i] == top:
            i -= 1
            if i < 0:
                return total
        seq[i] += 1
        period = i + 1
        for j in range(period, n):
            seq[j] = seq[j - period]
        if checked > i:
            checked = i
        if built > i:
            built = i


def _block_length(m: int, blocks: List[Dict[str, object]]) -> int:
    """The block length a whose sum for the m-th power costs the least.

    ``blocks`` holds (lam*q)^0, (lam*q)^1 and any powers an earlier order
    built; each step past those appends the next power, as a product by
    ``_mul``, up to (lam*q)^ceil(m/2).  With |D_a| words in (lam*q)^a, and
    the cost counted in words:

    * a divisor a <= m/2 of m leaves about |D_a|^(m/a) * a/m necklaces of
      m/a blocks, each costing ``NECKLACE_COST`` words;
    * a = m counts the words of (lam*q)^m.  Of the |D_floor(m/2)| *
      |D_ceil(m/2)| products of two halves, about the share that stayed
      distinct one halving down, |D_h| / (|D_floor(h/2)| * |D_ceil(h/2)|)
      with h = floor(m/2), are distinct words.  That share is 1 unless
      words merge, as they do with one letter.

    Ties go to the longer blocks.  |D_a| never falls as a grows, so each
    later choice costs at least min(NECKLACE_COST |D_a|^2 (a+1)/m, |D_a|)
    words, and the steps stop once the best so far is below that.
    """
    half, h = (m + 1) // 2, m // 2
    best_a = best = None  # best: a cost times m
    for a in range(1, half + 1):
        if a == len(blocks):
            blocks.append(_mul(blocks[a - 1], blocks[1]))
        size = len(blocks[a])
        if a <= h and m % a == 0:
            cost = NECKLACE_COST * size ** (m // a) * a
            if best is None or cost <= best:
                best_a, best = a, cost
        if a < half and best is not None:
            if best < size * min(NECKLACE_COST * size * (a + 1), m):
                return best_a
    sizes = [len(block) for block in blocks]
    # the a = m cost times m, with the distinct share's denominator moved over
    cost = sizes[h] * sizes[half] * m * sizes[h]
    if best is None or cost <= best * sizes[h // 2] * sizes[(h + 1) // 2]:
        return m
    return best_a


class _Gaussian:
    """A Gaussian integer ``real + imag*i``, for a coefficient with an
    imaginary part; real ones stay ``int``s.  The parts are named as an
    ``int``'s, so a sum of either kind unpacks the same way."""

    __slots__ = ("real", "imag")

    def __init__(self, real: int, imag: int):
        self.real, self.imag = real, imag

    def __add__(self, other):
        if other.__class__ is int:
            return _Gaussian(self.real + other, self.imag)
        return _Gaussian(self.real + other.real, self.imag + other.imag)

    __radd__ = __add__

    def __mul__(self, other):
        if other.__class__ is int:
            return _Gaussian(self.real * other, self.imag * other)
        a, b, c, d = self.real, self.imag, other.real, other.imag
        return _Gaussian(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self.real or self.imag)


def _mul(a: Dict[str, object], b: Dict[str, object]) -> Dict[str, object]:
    """Product of two polynomials as word -> ``int`` or ``_Gaussian`` maps."""
    out: Dict[str, object] = {}
    get = out.get
    for wa, ca in a.items():
        for wb, cb in b.items():
            w = wa + wb
            out[w] = get(w, 0) + ca * cb
    return out


# -- moment <-> free cumulant conversion ------------------------------------------


def free_cumulants(moments: Sequence[Scalar]) -> List[Scalar]:
    """kappa_1..kappa_k from m_1..m_k via non-crossing partitions.

    Inverts m_n = sum_{s=1}^{n} kappa_s * [z^(n-s)] M(z)^s, the recursion
    obtained by conditioning on the block containing position 1, with
    M(z) = sum_i m_i z^i and m_0 = 1.
    """
    return _first_block(moments, to_moments=False)


def moments_from_cumulants(cumulants: Sequence[Scalar]) -> List[Scalar]:
    """m_1..m_k from kappa_1..kappa_k; inverse of ``free_cumulants``."""
    return _first_block(cumulants, to_moments=True)


def _first_block(given: Sequence[Scalar], to_moments: bool) -> List[Scalar]:
    """The first-block recursion m_n = kappa_n + rest_n, either way round.

    rest_n = sum_{s<n} kappa_s [z^(n-s)] M(z)^s needs only m_1..m_{n-1}:
    the coefficients of the powers of M are filled one antidiagonal
    s + t = n at a time.  ``given`` holds m_1..m_k, or kappa_1..kappa_k
    when ``to_moments``; the other sequence is returned.
    """
    k = len(given)
    if k > CUMULANT_CAP:
        raise CapExceededError(f"cumulant order {k} exceeds cap {CUMULANT_CAP}")
    given = [c if isinstance(c, Scalar) else Scalar(c) for c in given]
    ms: List[Scalar] = [ONE]
    ks: List[Scalar] = [ZERO]
    powers = [[ONE] + [ZERO] * k]  # powers[s][t] = [z^t] M(z)^s
    for n in range(1, k + 1):
        rest = ZERO
        for s in range(1, n):
            prev, t = powers[s - 1], n - s
            acc = ZERO
            for i in range(t + 1):
                if ms[i] and prev[t - i]:
                    acc = acc + ms[i] * prev[t - i]
            powers[s].append(acc)
            if ks[s] and acc:
                rest = rest + ks[s] * acc
        powers.append([ONE])
        if to_moments:
            ks.append(given[n - 1])
            ms.append(given[n - 1] + rest)
        else:
            ms.append(given[n - 1])
            ks.append(given[n - 1] - rest)
    return (ms if to_moments else ks)[1:]
