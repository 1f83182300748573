import functools
import itertools
import random
from fractions import Fraction

import pytest

from freemoments import (
    CapExceededError,
    NCPolynomial,
    PairingCapExceededError,
    Scalar,
    brute_moment,
    catalan,
    free_cumulants,
    infer_variable_count,
    moments,
    moments_from_cumulants,
    oracle,
    parse_polynomial,
    word_moment,
)
from freemoments.cli import main

import properties
from helpers import enumerate_nc_pairings, psemi_table


def is_noncrossing(pairing):
    for a, c in pairing:
        for b, d in pairing:
            if a < b < c < d:
                return False
    return True


def test_enumerate_examples():
    assert enumerate_nc_pairings(0) == [()]
    two = enumerate_nc_pairings(2)
    assert two == [((1, 2), (3, 4)), ((1, 4), (2, 3))]
    assert ((1, 3), (2, 4)) not in two  # crossing
    assert len(enumerate_nc_pairings(4)) == 14


def test_enumerate_structure():
    for k in range(6):
        for pairing in enumerate_nc_pairings(k):
            flat = [x for pair in pairing for x in pair]
            assert sorted(flat) == list(range(1, 2 * k + 1))
            assert all(a < b for a, b in pairing)
            assert is_noncrossing(pairing)


def test_word_moment_examples():
    assert word_moment((1, 1, 1, 1)) == Scalar(2)
    assert word_moment((1, 2, 1, 2)) == Scalar(0)
    assert word_moment((1, 1, 2, 2)) == Scalar(1)
    assert word_moment(()) == Scalar(1)
    assert word_moment((1, 2, 1)) == Scalar(0)  # odd length
    assert word_moment((1,) * 8) == Scalar(14)


def test_word_moment_matches_filtered_enumeration():
    # independent route: enumerate all pairings, keep letter-consistent ones
    words = [(1, 2, 2, 1), (1, 1, 1, 1, 2, 2), (1, 2, 1, 2, 1, 2), (2, 2, 1, 1, 1, 1)]
    for word in words:
        count = 0
        for pairing in enumerate_nc_pairings(len(word) // 2):
            if all(word[a - 1] == word[b - 1] for a, b in pairing):
                count += 1
        assert word_moment(word) == Scalar(count), word


def test_word_moment_cap():
    with pytest.raises(CapExceededError):
        word_moment((1,) * 18)
    # explicit override admits longer words
    assert word_moment((1,) * 18, max_length=18) == Scalar(catalan(9))


def test_brute_moment_examples():
    x1 = NCPolynomial.variable(1, 1)
    assert brute_moment(x1, 6) == Scalar(5)
    assert brute_moment(parse_polynomial("x1 + x2", 2), 4) == Scalar(8)
    assert brute_moment(parse_polynomial("x1^3 - 3*x1", 1), 2) == Scalar(2)
    assert brute_moment(x1, 0) == Scalar(1)
    assert brute_moment(NCPolynomial.zero(1), 5) == Scalar(0)


def test_brute_moment_closed_forms():
    # x1 + x2 = sqrt(2)*s: tau((x1+x2)^(2k)) = 2^k * Catalan(k)
    x = parse_polynomial("x1 + x2", 2)
    for k in range(1, 7):
        assert brute_moment(x, 2 * k) == Scalar(2**k * catalan(k)), k
        assert brute_moment(x, 2 * k - 1) == Scalar(0), k
    # the denominator 3 is cleared once per factor: divided by 3^(2k)
    third = parse_polynomial("1/3*x1", 1)
    # i^(2k) = (-1)^k
    imag = parse_polynomial("i*x1", 1)
    for k in range(9):
        assert brute_moment(third, 2 * k) == Scalar(Fraction(catalan(k), 9**k)), k
        assert brute_moment(imag, 2 * k) == Scalar((-1) ** k * catalan(k)), k
        assert brute_moment(third, 2 * k + 1) == Scalar(0), k
        assert brute_moment(imag, 2 * k + 1) == Scalar(0), k
    for text, c in (("3/2", Scalar(Fraction(3, 2))), ("2 + i", Scalar(2, 1))):
        constant = parse_polynomial(text, 1)
        for m in range(9):
            value = brute_moment(constant, m)
            assert value == c**m, (text, m)
            assert type(value.re) is Fraction and type(value.im) is Fraction


def test_brute_moment_cap_is_the_blowup():
    p = parse_polynomial("x1*x2 + x2*x1", 2)
    with pytest.raises(CapExceededError):
        brute_moment(p, 64)  # 2^64 monomials
    assert brute_moment(p, 10, expansion_cap=2**10) == Scalar(4066)
    with pytest.raises(CapExceededError):
        brute_moment(p, 10, expansion_cap=2**10 - 1)


def _even_subword_count(n):
    """How many contiguous even-length subwords a word of length n has,
    itself included: at most that many new words one count can add."""
    return sum(n - length + 1 for length in range(2, n + 1, 2))


def test_pairing_cache_stays_bounded(monkeypatch):
    # the necklace sum leaves 6,099 words in the table for this input; with
    # a small bound the table is emptied before new words, values unchanged
    p = parse_polynomial("x1 + x2 + x3 + x1*x2", 3)
    oracle._pairing_table.cache_clear()
    assert brute_moment(p, 9) == Scalar(11880)
    assert len(oracle._pairing_table()) <= oracle.PAIRING_CACHE_MAX == 1 << 16
    monkeypatch.setattr(oracle, "PAIRING_CACHE_MAX", 40)
    oracle._pairing_table.cache_clear()
    assert brute_moment(p, 9) == Scalar(11880)
    # past the bound, only the last word's subwords are left beside ()
    assert len(oracle._pairing_table()) <= 40 + 1 + _even_subword_count(18)


def test_pairing_cache_bound_holds_after_every_order(monkeypatch):
    # the counter checks the bound before every new word, inside an order as
    # well as between orders, so one brute_moments call stays bounded too
    p = parse_polynomial("x1*x2 + x2*x1 + x1^2 - 1/2", 2)
    oracle._pairing_table.cache_clear()
    expected = oracle.brute_moments(p, 8)
    monkeypatch.setattr(oracle, "PAIRING_CACHE_MAX", 40)
    count = oracle._pairing_count
    calls = []

    def recorded(word, known):
        before = len(known)
        new = word not in known
        result = count(word, known)
        calls.append((word, before, new, len(known)))
        return result

    monkeypatch.setattr(oracle, "_pairing_count", recorded)
    oracle._pairing_table.cache_clear()
    assert oracle.brute_moments(p, 8) == expected
    emptied = [(w, after) for w, before, new, after in calls if new and before > 40]
    assert emptied  # the bound was reached, and the table emptied
    for word, after in emptied:
        assert after <= 1 + _even_subword_count(len(word)), word
    assert max(after for *_, after in calls) <= 40 + 1 + _even_subword_count(16)


def test_pairing_cache_misses_one_per_rotation_class():
    # summing over rotation classes counts far fewer words than one per word
    # of (lam*p)^m, as the square-and-multiply expansion did (6485 misses)
    p = parse_polynomial("x1^2 - x2^2 + x3", 3)
    oracle._pairing_table.cache_clear()
    for m in range(1, 9):
        brute_moment(p, m)
    assert len(oracle._pairing_table()) <= 6485 // 4


def _times(a, b):
    """Product of two Gaussian integers given as ``(re, im)`` pairs."""
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _plain_power_sum(block, n):
    """The sum over all len(block)^n sequences of n block words of the
    coefficient product times ``word_moment`` of the joined word, on
    ``(re, im)`` coefficient pairs."""
    re = im = 0
    for seq in itertools.product(block.items(), repeat=n):
        word = "".join(w for w, _ in seq)
        k = word_moment(tuple(map(ord, word)), max_length=len(word)).re_num
        c = functools.reduce(_times, (c for _, c in seq), (1, 0))
        re, im = re + k * c[0], im + k * c[1]
    return re, im


def _oracle_power_sum(block, n):
    """``oracle._power_sum`` of the ``(re, im)`` coefficient pairs of
    ``block``, as an ``(re, im)`` pair: real coefficients go in as ``int``s."""
    coefficients = {w: oracle._Gaussian(re, im) if im else re for w, (re, im) in block.items()}
    got = oracle._power_sum([{"": 1}, coefficients], n)
    return got.real, got.imag


def test_necklaces_one_per_rotation_class(monkeypatch):
    # the necklace walk counts one word per rotation class, weighted by its
    # rotations, and drops the words with a letter of odd multiplicity: on
    # blocks of length 1 it equals the plain sum over all block sequences
    monkeypatch.setattr(oracle, "_block_length", lambda m, blocks: 1)
    families = [
        ["\x01", "\x02", "\x03"],  # odd-length words, bits that never cancel
        ["\x01\x02", "\x02\x01", "\x01\x02\x02\x01"],  # bits cancel in pairs
        ["\x01\x02\x01", "\x02", "\x01\x01"],  # equal bits, other words
        ["\x01\x02", "\x02\x03", "\x03\x01"],  # bits cancel three at a time
    ]
    integers, gaussians = [(2, 0), (-3, 0), (5, 0)], [(1, 2), (-3, 1), (2, -1)]
    oracle._pairing_table.cache_clear()
    for words in families:
        for k in range(1, 4):
            for coeffs in (integers, gaussians):
                block = dict(zip(words[:k], coeffs))
                for n in range(1, 9):
                    got = _oracle_power_sum(block, n)
                    assert got == _plain_power_sum(block, n), (words, k, n, coeffs)
    # 300 words at n = 2, most of them sharing their odd-letter bits with many
    rng = random.Random(27)
    block = {}
    while len(block) < 300:
        word = "".join(rng.choice("\x01\x02\x03\x04") for _ in range(rng.randint(1, 5)))
        block[word] = (rng.randint(-9, 9) or 1, 0)
    assert _oracle_power_sum(block, 2) == _plain_power_sum(block, 2)
    oracle._pairing_table.cache_clear()


# text: (the most _pairing_count calls, the largest final table) of
# brute_moments at M = 8 on a cleared table, for the verify corpus
ORACLE_WORK_BOUNDS = {
    "x1^2 + x2^2": (94, 210),
    "x1*x2 + x2*x3": (38, 40),
    "x1^3": (4, 13),
    "x1": (4, 5),
    "x1*x2 + x2*x1": (62, 238),
    "x1*x2*x1": (4, 29),
    "1/2*x1^2 + 3/2*x2": (51, 84),
    "x1^2 - x2^2 + x3": (703, 1098),
    "x1^2": (8, 9),
    "x1 + x2": (36, 49),
    "x1^3 - 3*x1 + x2": (330, 609),
    "2*x1*x2*x1 - x2 + 1": (60, 188),
}


# text: (order, the most _pairing_count calls, the largest final table) of
# brute_moments on a cleared table, for Gaussian inputs, each at its own order
GAUSSIAN_ORACLE_WORK_BOUNDS = {
    "x1 + i*x2 + 1": (7, 16, 18),
    "x1*x2 + i*x2*x1 + 1/2": (10, 170, 780),
    "x1^2 + i*x2*x3 - i*x3*x2 + x3": (9, 8275, 16743),
    "2*x1 + i*x1^2 - 1": (16, 16, 17),
}


def test_oracle_work_ratchet(monkeypatch):
    # a ratchet on the oracle's work: no change may count more words or
    # leave a larger table on any corpus or Gaussian input
    count = oracle._pairing_count
    calls = 0

    def counted(word, known):
        nonlocal calls
        calls += 1
        return count(word, known)

    monkeypatch.setattr(oracle, "_pairing_count", counted)
    cases = [(text, 8, *bounds) for text, bounds in ORACLE_WORK_BOUNDS.items()]
    cases += [(text, *bounds) for text, bounds in GAUSSIAN_ORACLE_WORK_BOUNDS.items()]
    for text, order, max_calls, max_size in cases:
        p = parse_polynomial(text, max(1, infer_variable_count(text)))
        oracle._pairing_table.cache_clear()
        calls = 0
        oracle.brute_moments(p, order, 3**16)  # the cap admits 2*x1 + i*x1^2 - 1 at 16
        size = len(oracle._pairing_table())
        assert 0 < calls <= max_calls and size <= max_size, (text, calls, size)
    oracle._pairing_table.cache_clear()


def test_brute_moment_cold_long_word(monkeypatch):
    # one 1500-letter word: a recursive count would nest 750 calls deep
    oracle._pairing_table.cache_clear()
    assert brute_moment(parse_polynomial("x1", 1), 1500) == Scalar(catalan(750))
    # the count agrees with the letter-consistent non-crossing pairings
    rng = random.Random(120)
    for _ in range(300):
        word = "".join(rng.choice("abc") for _ in range(rng.choice((2, 4, 6, 8, 10, 12))))
        expected = sum(
            all(word[a - 1] == word[b - 1] for a, b in pairing)
            for pairing in enumerate_nc_pairings(len(word) // 2)
        )
        assert oracle._pairing_count(word, {"": 1}) == expected, word
    # a word whose subwords would fill the table past its cap is refused
    monkeypatch.setattr(oracle, "PAIRING_STACK_CAP", 1000)
    with pytest.raises(PairingCapExceededError, match="word of length 200 "):
        oracle._pairing_count("a" * 200, {"": 1})
    assert oracle._pairing_count("a" * 60, {"": 1}) == catalan(30)


def test_short_word_past_the_stack_cap_is_refused(monkeypatch, capsys):
    # the cap holds for every word counted, not only one too deep to recurse
    # on: a short random word, counted on a cold table, past a low cap
    rng = random.Random(5)
    word = tuple(rng.randint(1, 2) for _ in range(40))
    monkeypatch.setattr(oracle, "PAIRING_STACK_CAP", 200)
    oracle._pairing_table.cache_clear()
    with pytest.raises(PairingCapExceededError, match="word of length 40 "):
        oracle._pairing_count("".join(map(chr, word)), oracle._pairing_table())
    oracle._pairing_table.cache_clear()
    with pytest.raises(PairingCapExceededError, match="word of length 40 "):
        word_moment(word, max_length=40)
    oracle._pairing_table.cache_clear()
    text = "*".join(f"x{x}" for x in word)
    assert main(["verify", "--poly", text, "--n-vars", "2", "--max-order", "1"]) == 4
    assert "word of length 40 " in capsys.readouterr().err


def test_more_letters_than_codes_are_refused(monkeypatch):
    # one code per distinct letter, chr(1)..chr(sys.maxunicode): past that
    # the oracle refuses the input at a limit no option lifts
    monkeypatch.setattr(oracle, "LETTER_CODE_CAP", 2)
    with pytest.raises(PairingCapExceededError, match="3 distinct letters"):
        oracle.brute_moments(parse_polynomial("x1 + x2 + x3", 3), 2)
    with pytest.raises(PairingCapExceededError, match="3 distinct letters"):
        word_moment((1, 2, 3, 3, 2, 1))
    assert oracle.brute_moments(parse_polynomial("x1 + x2", 2), 2) == [Scalar(0), Scalar(2)]


def test_values_on_letters_far_apart():
    # letters above 255 and past chr's range, with Gaussian coefficients: at
    # every order whose expansion has at most 10^4 term sequences, the
    # oracle equals the engine and the plain expansion
    cases = [
        ("x300*x70000 + x70000*x300", 70000),
        ("x2000000*x1*x2000000*x1 + x1*x2000000^2*x1", 2000000),
        ("(1+2*i)*x300*x70000 - 3/2*i*x70000*x300 + 1/3*x2000000^2 + 2", 2000000),
    ]
    for text, n_vars in cases:
        p = parse_polynomial(text, n_vars)
        order = 1
        while p.n_terms ** (order + 1) <= 10**4:
            order += 1
        values = oracle.brute_moments(p, order)
        assert values == list(moments(p, order).values), text
        for m, value in enumerate(values, start=1):
            assert value == properties._expanded_moment(p, m), (text, m)
    # word_moment on such letters against the letter-consistent pairings
    rng = random.Random(26)
    letters = (1, 300, 70000, 2000000)
    words = [(2000000, 1, 2000000, 1), (300, 70000, 70000, 300)] + [
        tuple(rng.choice(letters) for _ in range(rng.choice((2, 4, 6, 8, 10, 12))))
        for _ in range(200)
    ]
    for word in words:
        expected = sum(
            all(word[a - 1] == word[b - 1] for a, b in pairing)
            for pairing in enumerate_nc_pairings(len(word) // 2)
        )
        assert word_moment(word) == Scalar(expected), word


def test_free_cumulants_examples():
    semicircle = [Scalar(v) for v in (0, 1, 0, 2, 0, 5)]
    kappas = free_cumulants(semicircle)
    assert kappas == [Scalar(0), Scalar(1), Scalar(0), Scalar(0), Scalar(0), Scalar(0)]

    # moments of s^3 - 3s up to order 4
    kappas = free_cumulants([Scalar(0), Scalar(2), Scalar(0), Scalar(6)])
    assert kappas[3] == Scalar(-2)

    zeros = [Scalar(0)] * 6
    assert free_cumulants(zeros) == zeros


def test_cumulant_cap():
    with pytest.raises(CapExceededError):
        free_cumulants([Scalar(0)] * 13)
    with pytest.raises(CapExceededError):
        moments_from_cumulants([Scalar(0)] * 13)


def test_semicircular_from_kappa2():
    ms = moments_from_cumulants([Scalar(0), Scalar(1), Scalar(0), Scalar(0)] + [Scalar(0)] * 4)
    assert [str(v) for v in ms] == ["0", "1", "0", "2", "0", "5", "0", "14"]


def test_psemi_examples():
    assert psemi_table(2, 1)[(1, 1)] == 1
    table = psemi_table(4, 2)
    assert table.get((1, 2, 1, 2), 0) == 0
    assert () not in table  # no unit term
    assert table[(1, 1, 2, 2)] == 1


def test_pairing_catalan_suite():
    properties.check_pairing_catalan_counts()


def test_cross_oracle_suite():
    properties.check_cross_oracle_words()


def test_brute_single_letter_suite():
    properties.check_brute_single_letter()


def test_cumulant_roundtrip_suite():
    properties.check_cumulant_roundtrip()


def test_traciality_suite():
    properties.check_word_moment_traciality()


def test_brute_against_expansion_suite():
    properties.check_brute_against_expansion()


def test_brute_plans_suite():
    properties.check_brute_plans()


def test_brute_moments_suite():
    properties.check_brute_moments()
