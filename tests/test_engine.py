import copy
import itertools
import math
import pickle
from fractions import Fraction

import pytest

from freemoments import (
    NCPolynomial,
    Scalar,
    brute_moment,
    catalan,
    free_cumulants,
    moments,
    parse_polynomial,
)
from freemoments import _kernel
from freemoments.cli import complexity_probe
from freemoments.engine import MAX_ORDER, MomentVector, build_residual_rows
from freemoments.ncpoly import split_constant
from freemoments.reference import (
    ZPoly,
    _sweep,
    build_zq_star,
    iterate_system,
    reduce_rep,
    rep_variable,
)

import properties
from helpers import dense_jacobi, dense_solve, kernel_row_features, random_kernel_rows


def test_reduce_rep_examples():
    rep = rep_variable(1, 1, ZPoly.z(3))
    mats = reduce_rep(rep, 4)
    assert mats[0][0][1] == ZPoly([0, 3])
    mats0 = reduce_rep(rep, 0)
    assert mats0[0][0][1] == ZPoly()  # 3z cut after z^0
    assert mats0[0][1][0] == ZPoly()


def test_iterate_semicircular_catalan():
    rep = build_zq_star(parse_polynomial("x1", 1))
    mats = reduce_rep(rep, 8)
    series = iterate_system(mats, rep.dim, 8, 8)
    assert [str(c) for c in series.coeffs] == [
        "0", "0", "1", "0", "2", "0", "5", "0", "14",
    ]


def test_iterate_two_variables():
    q = parse_polynomial("x1 + x2", 2)
    rep = build_zq_star(q)
    mats = reduce_rep(rep, 4)
    series = iterate_system(mats, rep.dim, 4, 4)
    assert series.coefficient(2) == Scalar(2)
    assert series.coefficient(4) == Scalar(8)


def test_iterate_stabilizes():
    q = parse_polynomial("x1*x2*x1 - x2", 2)
    rep = build_zq_star(q)
    mats = reduce_rep(rep, 6)
    steps = q.degree * 6
    assert iterate_system(mats, rep.dim, 6, steps) == iterate_system(
        mats, rep.dim, 6, steps + 5
    )


def test_iterate_requires_positive_steps():
    rep = build_zq_star(parse_polynomial("x1", 1))
    mats = reduce_rep(rep, 2)
    with pytest.raises(ValueError):
        iterate_system(mats, rep.dim, 2, 0)


def test_iterate_kernels_agree():
    # rational and complex inputs fall back to Scalar kernel entries, which
    # meet the kernel's int zeros; every input must give the integer path's
    # values, as Scalars from z^0 on
    for text, n_vars in [
        ("1/2*x1 + x2^2", 2),
        ("i*x1 + x2", 2),
        ("i*x1*x2 - i*x2*x1", 2),
        ("x1*x2", 2),
        ("x1*x2 + x2*x1", 2),
    ]:
        q = parse_polynomial(text, n_vars)
        rep = build_zq_star(q)
        mats = reduce_rep(rep, 6)
        direct = iterate_system(mats, rep.dim, 6, q.degree * 6)
        assert all(type(c) is Scalar for c in direct.coeffs), text
        scaled = moments(q, 6)  # runs the integer path after rescaling
        for m in range(1, 7):
            assert direct.coefficient(m) == scaled.value(m), (text, m)


def test_reference_shares_nothing_with_kernel(monkeypatch):
    # with every kernel function the solve uses replaced by one that raises,
    # the paper's sweep still gives the moments: integer, rational and
    # Gaussian inputs
    texts = [(text, poly.n_vars) for text, poly in properties.corpus_polynomials()]
    texts += [("i*x1 + x2", 2), ("i*x1*x2 - i*x2*x1 + 1/3*x2^2", 2)]
    cases = []
    for text, n_vars in texts:
        q = split_constant(parse_polynomial(text, n_vars))[1]
        cases.append((text, q, moments(q, 6)))

    def refuse(*args, **kwargs):
        raise AssertionError("the reference called the kernel")

    for name in ("solve", "_plan", "_identity", "_mul"):
        monkeypatch.setattr(_kernel, name, refuse)
    for text, q, mv in cases:
        rep = build_zq_star(q)
        series = iterate_system(reduce_rep(rep, 6), rep.dim, 6, q.degree * 6)
        assert [series.coefficient(m) for m in range(1, 7)] == list(mv.values), text


def test_moments_cumulant_example():
    mv = moments(parse_polynomial("x1^3 - 3*x1", 1), 4)
    assert mv.value(2) == Scalar(2)
    assert mv.value(4) == Scalar(6)
    kappas = free_cumulants(mv.values)
    assert kappas[3] == Scalar(-2)


def test_moments_constant_polynomial():
    mv = moments(parse_polynomial("7", 1), 3)
    assert [str(v) for v in mv.values] == ["7", "49", "343"]
    assert mv.rep_dim == 0
    # a constant has no words, so the automaton is empty and tau(c^m) = c^m
    for text in ("0", "1/3", "2 + i"):
        c = parse_polynomial(text, 1).coefficient(())
        mv = moments(parse_polynomial(text, 1), 6)
        assert mv.rep_dim == 0
        assert mv.values == tuple(c**m for m in range(1, 7)), text
    # one term per order: summing over every k <= m instead would make the
    # top order cost O(M^2) bigint products
    mv = moments(parse_polynomial("2 + i", 1), MAX_ORDER)
    assert mv.values[-1] == Scalar(2, 1) ** MAX_ORDER


def test_moments_memory_independent_of_unused_variables():
    # rows exist only for the letters that occur, so a million declared
    # variables cost nothing (one row dict each used to take about 200 MB)
    import tracemalloc

    p = parse_polynomial("x1", 10**6)
    tracemalloc.start()
    try:
        mv = moments(p, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [str(v) for v in mv.values] == ["0", "1"]
    assert peak < 20 * 2**20


def test_moments_shifted_variable():
    mv = moments(parse_polynomial("x1 + 1", 1), 2)
    assert [str(v) for v in mv.values] == ["1", "2"]


def test_moments_metadata():
    p = parse_polynomial("x1*x2 + x2*x1", 2)
    mv = moments(p, 8)
    assert mv.max_order == 8
    assert mv.rep_dim == 3
    assert mv.n_vars == 2
    assert mv.degree == 2
    assert mv.n_terms == 2


def test_moments_metadata_complex():
    # a complex weight is one int, so N is that of the real twin:
    # prefixes x1 and x2, then the start state, which is also final
    mv = moments(parse_polynomial("i*x1*x2 - i*x2*x1", 2), 6)
    assert mv.rep_dim == 3
    assert [str(v) for v in mv.values] == ["0", "2", "0", "10", "0", "66"]


def test_moment_vector_deepcopy_and_pickle():
    mv = moments(parse_polynomial("i*x1*x2 - 1/2*x2*x1 + 1", 2), 4)
    clones = [copy.copy(mv), copy.deepcopy(mv)]
    clones += [
        pickle.loads(pickle.dumps(mv, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    for clone in clones:
        assert type(clone) is MomentVector
        assert clone == mv and hash(clone) == hash(mv)
        assert [str(v) for v in clone.values] == [str(v) for v in mv.values]
        assert clone.max_order == 4 and clone.value(3) == mv.value(3)
        for field in MomentVector._fields:
            with pytest.raises(AttributeError):
                setattr(clone, field, 0)
    # a NamedTuple: also the plain 5-tuple of its fields, in this order
    assert mv == (mv.values, mv.rep_dim, mv.n_vars, mv.degree, mv.n_terms)


def test_moment_values_are_in_normal_form():
    # moments() and brute_moments() build their Scalars without the
    # validating constructor; every part must still be a reduced Fraction,
    # and each value must behave exactly like Scalar(Fraction(x, den),
    # Fraction(y, den)) with den = lam^m
    from freemoments.oracle import brute_moments

    cases = (
        ("x1*x2 + x2*x1", 2),  # integer
        ("1/2*x1^2 + 3/2*x2", 2),  # rational, lam = 2
        ("2*x1*x2 - i*x2*x1 + 1/3*i*x1", 2),  # complex, lam = 3
        ("x1^2 - 2/3", 1),  # with a constant term
        ("5/2", 1),  # constant only, N = 0
        ("1 - 2*i", 1),
    )
    for text, n_vars in cases:
        p = parse_polynomial(text, n_vars)
        lam, _ = p.integer_terms()
        mv = moments(p, 5)
        oracle_values = brute_moments(p, 5)
        assert list(mv.values) == oracle_values, text
        assert (mv.rep_dim == 0) == (p.degree == 0), text
        for m, got in [*enumerate(mv.values, 1), *enumerate(oracle_values, 1)]:
            den = lam**m
            for part in (got.re, got.im):
                assert part.__class__ is Fraction, (text, m)
                assert part.denominator > 0, (text, m)
                assert math.gcd(part.numerator, part.denominator) == 1, (text, m)
                assert (part * den).denominator == 1, (text, m)
            x, y = int(got.re * den), int(got.im * den)
            built = Scalar(Fraction(x, den), Fraction(y, den))
            clones = [copy.deepcopy(got), pickle.loads(pickle.dumps(got))]
            for value in (got, *clones):
                assert value == built and hash(value) == hash(built), (text, m)
                assert str(value) == str(built), (text, m)
                assert value.re.__class__ is Fraction is value.im.__class__


def test_moments_rational_scaling():
    # denominators are cleared internally; results stay exact rationals
    mv = moments(parse_polynomial("1/2*x1", 1), 4)
    assert mv.value(2) == Scalar(Fraction(1, 4))
    assert mv.value(4) == Scalar(Fraction(2, 16))


def test_moments_rejects_bad_order():
    with pytest.raises(ValueError):
        moments(NCPolynomial.variable(1, 1), 0)
    for max_order in (MAX_ORDER + 1, 10**20):
        for p in (NCPolynomial.variable(1, 1), parse_polynomial("2", 1)):
            with pytest.raises(ValueError, match="between 1 and 10000"):
                moments(p, max_order)


def test_moment_value_rejects_order_below_one():
    mv = moments(parse_polynomial("x1", 1), 4)
    for m in (0, -1, 5, 100):
        with pytest.raises(IndexError, match=rf"moment order {m} outside 1\.\.4"):
            mv.value(m)
    assert mv.value(4) == Scalar(2)


def test_solve_rejects_z0_cycle():
    # a z^0 self-loop, and a z^0 cycle through two states: neither z^0 part
    # is strictly upper triangular, so the solve refuses both up front
    for mats in ([{0: [(0, (1,))]}], [{0: [(1, (1,))], 1: [(0, (1,))]}]):
        with pytest.raises(AssertionError, match="not nilpotent"):
            _kernel.solve(mats, 2, 3)


def test_solve_modulus_congruent_to_plain_solve():
    # seeded random rows with a strictly upper triangular z^0 part: reducing
    # each order modulo n keeps every coefficient of the returned entry
    # congruent to the exact solve's and inside (-n/2, n/2]
    import random

    rng = random.Random(1101)
    for case in range(40):
        dim = rng.randint(1, 6)
        n_coeffs = rng.randint(1, 6)
        mats = []
        for _ in range(rng.randint(1, 3)):
            rows = {}
            for j in range(dim):
                entries = []
                for t in range(dim):
                    if rng.random() < 0.5:
                        z0 = rng.randint(-5, 5) if t > j else 0
                        z1 = rng.randint(-5, 5)
                        if z0 or z1:
                            entries.append((t, (z0, z1)))
                if entries:
                    rows[j] = entries
            mats.append(rows)
        exact = _kernel.solve(mats, dim, n_coeffs)
        assert len(exact) == n_coeffs, case
        for modulus in (2, 97, 1000, 2**40 + 1):
            reduced = _kernel.solve(mats, dim, n_coeffs, modulus)
            assert len(reduced) == n_coeffs, (case, modulus)
            for x, y in zip(exact, reduced):
                assert (x - y) % modulus == 0, (case, modulus)
                assert -modulus < 2 * y <= modulus, (case, modulus)


def test_iterate_matches_dense_jacobi():
    # seeded rows, graded and ungraded: every sweep of the reference's Jacobi
    # iteration, not only its fixed point, gives entry (0, dim - 1) of the
    # dense sweep's P; then the same on rational and Gaussian Scalar rows
    import random

    rng = random.Random(2001)
    features = []
    for case in range(60):
        mats, dim, _ = random_kernel_rows(rng, case % 2 == 0)
        features.append(kernel_row_features(mats))
        n_coeffs = rng.randint(1, 6)
        for steps in range(1, dim + 3):
            expected = dense_jacobi(mats, dim, n_coeffs, steps)[0][dim - 1]
            got = _sweep(mats, dim, n_coeffs, steps)
            assert got == expected, (case, steps)
    # the corpus has letters that give one product of B twice, and entries
    # with both a z^0 and a z^1 part
    assert [any(seen) for seen in zip(*features)] == [True, True]
    for case in range(8):
        gaussian = case % 2 == 1
        mats, dim, _ = random_kernel_rows(rng, case % 4 < 2)
        for rows in mats:
            for j, entries in rows.items():
                rows[j] = [
                    (t, tuple(
                        Scalar(Fraction(c, rng.randint(1, 4)),
                               rng.randint(-2, 2) if gaussian and c else 0)
                        for c in zp
                    ))
                    for t, zp in entries
                ]
        n_coeffs = rng.randint(1, 6)
        for steps in (1, dim + 2):  # Scalar arithmetic is slow: first and last
            expected = dense_jacobi(mats, dim, n_coeffs, steps)[0][dim - 1]
            got = _sweep(mats, dim, n_coeffs, steps)
            assert got == expected, ("Scalar", case, steps)


def _violations(mats, grading):
    """Nonzero entries that break phi(j) + phi(t) + chi_i = e (mod 2)."""
    phase, chi, _ = grading
    return [
        (i, j, t, e)
        for i, rows in enumerate(mats)
        for j, entries in rows.items()
        for t, zp in entries
        for e, c in enumerate(zp)
        if c and (phase[j] + phase[t] + chi[i] + e) % 2
    ]


def _rows(text, n_vars):
    _, terms = parse_polynomial(text, n_vars).integer_terms()
    return build_residual_rows([(w, re) for w, re, _ in terms if w])


def _has_odd_weights(words, n_vars):
    """Whether some letter weight chi in {0, 1}^n makes every word odd."""
    return any(
        all(sum(chi[a - 1] for a in word) % 2 for word in words)
        for chi in itertools.product((0, 1), repeat=n_vars)
    )


def test_grading_examples():
    # every word of x1*x2 + x2*x1 and of x1^3 - 3*x1 is odd once chi = 1 on
    # each letter, and every word of x1*x2 + x2*x3 once chi is 1 on x2 alone
    # or on x1 and x3; x1^2 + x2^2 has no such chi
    for text, n_vars in (("x1*x2 + x2*x1", 2), ("x1^3 - 3*x1", 1), ("x1*x2 + x2*x3", 3)):
        mats, dim, grading = _rows(text, n_vars)
        assert grading is not None, text
        assert grading[2] == 2 and not _violations(mats, grading), text
        assert grading[0][dim - 1] == 0, text  # the start state
    assert sorted(_rows("x1*x2 + x2*x3", 3)[2][1]) in ([0, 0, 1], [0, 1, 1])
    assert _rows("x1^2 + x2^2", 2)[2] is None
    # solve checks every entry against the grading it is given: an entry
    # with both a z^0 and a z^1 part fits neither parity
    with pytest.raises(AssertionError, match="grading"):
        _kernel.solve([{0: [(1, (1, 1))]}], 2, 3, 0, ([0, 0], [0], 2))


def test_grading_satisfies_its_entries():
    # on seeded polynomials in up to 3 variables, the builder finds a grading
    # exactly when a brute force over all 2^n letter weights finds a chi that
    # makes every word odd; every grading found holds on every nonzero entry,
    # gives the start state phase 0 and leaves the solve's entry unchanged
    import random

    rng = random.Random(1502)
    found = 0
    for case in range(300):
        n_vars = rng.randint(1, 3)
        terms = {}
        for _ in range(rng.randint(1, 4)):
            word = tuple(rng.randint(1, n_vars) for _ in range(rng.randint(1, 4)))
            terms[word] = rng.choice((-3, -2, -1, 1, 2, 3))
        mats, dim, grading = build_residual_rows(list(terms.items()))
        assert (grading is not None) == _has_odd_weights(terms, n_vars), case
        if grading is not None:
            found += 1
            assert not _violations(mats, grading), case
            assert grading[0][dim - 1] == 0, case
            n_coeffs = rng.randint(1, 6)
            assert _kernel.solve(mats, dim, n_coeffs, 0, grading) == _kernel.solve(
                mats, dim, n_coeffs
            ), case
    assert 50 < found < 250


def test_solve_matches_dense_reference():
    # seeded rows, graded and ungraded, with and without a modulus: for every
    # n up to the case's n_coeffs, so that each order is the last one once,
    # the solve returns entry (dim - 1, dim - 1) of the dense order-by-order
    # solve, cut after z^(n - 1); on graded rows that entry is nonzero only
    # at even orders, since the start state's phase meets itself
    import random

    rng = random.Random(1515)
    features = []
    for case in range(60):
        mats, dim, grading = random_kernel_rows(rng, case % 2 == 0)
        features.append(kernel_row_features(mats))
        n_coeffs = rng.randint(1, 8)
        for modulus in (0, 2, 97, 2**40 + 1):
            expected = dense_solve(mats, dim, n_coeffs, modulus)[dim - 1][dim - 1]
            for n in range(1, n_coeffs + 1):
                got = _kernel.solve(mats, dim, n, modulus, grading)
                assert got == expected[:n], (case, modulus, n)
            if grading is not None and not modulus:
                assert not any(c for k, c in enumerate(expected) if k % 2), case
    assert [any(seen) for seen in zip(*features)] == [True, True]
    # no states: P is empty, and so is its entry
    assert _kernel.solve([], 0, 4) == [0] * 4


def test_complex_decode():
    # (2+3i) s is normal with tau(((2+3i) s)^m) = (2+3i)^m Catalan(m/2)
    c = Scalar(2, 3)
    mv = moments(parse_polynomial("(2+3*i)*x1", 1), 40)
    quadrants = set()
    for m in range(1, 41):
        expected = c**m * catalan(m // 2) if m % 2 == 0 else Scalar(0)
        assert mv.value(m) == expected, m
        re, im = mv.value(m).re, mv.value(m).im
        if re and im:
            quadrants.add((re > 0, im > 0))
    # the decode splits v = a + b*r with every sign pattern of (a, b)
    assert len(quadrants) == 4
    # a real word beside a complex one, against the oracle
    p = parse_polynomial("(-5+7*i)*x1 + x1*x2*x1", 2)
    mv = moments(p, 8)
    for m in range(1, 9):
        assert mv.value(m) == brute_moment(p, m), m
    # i s^2 at M = 41: tau = i^m Catalan(m), and at m = 41 |Im| is within
    # a factor 500 of the norm bound B^M = 4^41 the decode is sized for
    i = Scalar(0, 1)
    mv = moments(parse_polynomial("i*x1^2", 1), 41)
    for m in range(1, 42):
        assert mv.value(m) == i**m * catalan(m), m
    top = mv.value(41).im
    assert top == catalan(41)
    assert 4**41 > top > 4**41 // 500


def test_moments_matches_oracle_smoke():
    polys = [
        ("x1^2 - 2", 1),
        ("x1*x2 - x2*x1", 2),
        ("i*x1", 1),
        ("1/2*i*x1 - x2^2", 2),  # complex and fractional together
    ]
    for text, n_vars in polys:
        p = parse_polynomial(text, n_vars)
        mv = moments(p, 6)
        for m in range(1, 7):
            assert mv.value(m) == brute_moment(p, m), (text, m)


def test_residual_automaton_sizes():
    # one state per residual up to its content and sign, not one per prefix
    # (a prefix trie has 13, 255, 63 and 127 states): powers of sums collapse
    for text, n_vars, n_states in (
        ("(x1+x2+x3)^3", 3, 3),
        ("(x1+x2)^8", 2, 8),
        ("(x1+2*x2)^6 - i*x1*x2", 2, 7),
        ("(x1+i*x2)^4*(x2-x1)^3 + 2", 2, 10),
    ):
        assert moments(parse_polynomial(text, n_vars), 1).rep_dim == n_states, text
    # a single long word keeps a state per proper prefix (its solve takes
    # about a second, so only the builder runs)
    assert _rows("x1^200", 1)[1] == 200


def _linear_form(rng, n_vars):
    """A random sum of a_v x_v over a nonempty set of the variables, each a_v
    a positive integer, a fraction, a negative integer or a Gaussian integer."""
    kinds = (
        lambda: Scalar(rng.randint(1, 3)),
        lambda: Scalar(Fraction(rng.choice((1, 2, 3)), rng.choice((2, 3)))),
        lambda: Scalar(-rng.randint(1, 2)),
        lambda: Scalar(rng.randint(-2, 2), rng.choice((-1, 1))),
    )
    used = rng.sample(range(1, n_vars + 1), rng.randint(1, n_vars))
    return sum(
        (NCPolynomial.variable(n_vars, v).scale(rng.choice(kinds)()) for v in used),
        NCPolynomial.zero(n_vars),
    )


def test_structured_inputs_merge_residuals(monkeypatch):
    # seeded powers and products of random linear forms against the oracle
    # and, where the paper's sweeps are cheap, against them too; residuals
    # that differ by a factor merge into one state, which then has incoming
    # edges of different weights, one of them -1 or of absolute value > 1
    import random

    from freemoments import engine
    from freemoments.ncpoly import split_constant
    from freemoments.oracle import brute_moments

    built = []
    build = engine.build_residual_rows

    def recording(terms):
        built.append(build(terms))
        return built[-1]

    monkeypatch.setattr(engine, "build_residual_rows", recording)
    rng = random.Random(2302)
    merges = set()
    swept = 0
    for case in range(40):
        n_vars = rng.randint(1, 3)
        power = rng.randint(2, 4)
        p = _linear_form(rng, n_vars) ** power
        if rng.random() < 0.5:
            p = p * _linear_form(rng, n_vars) ** rng.randint(1, 4 - power + 1)
        if rng.random() < 0.3:
            p = p + rng.choice((1, -2, Scalar(0, 1)))
        max_order = 3 if p.n_terms <= 16 else 2
        built.clear()
        mv = moments(p, max_order)
        assert list(mv.values) == brute_moments(p, max_order), (str(p), case)
        mats, dim, _ = built[0]
        incoming = {}  # internal state -> weights of the edges into it
        for mu in mats:
            for entries in mu.values():
                for t, zp in entries:
                    if t != dim - 1:
                        incoming.setdefault(t, set()).add(zp[-1])
        for weights in incoming.values():
            if len(weights) > 1:
                merges.update(
                    "sign" if w == -1 else "content" for w in weights if abs(w) > 1 or w == -1
                )
        c, q = split_constant(p)
        if q.n_terms <= 8 and q.degree <= 3 and swept < 8:
            swept += 1
            rep = build_zq_star(q)
            series = iterate_system(reduce_rep(rep, 2), rep.dim, 2, q.degree * 2)
            for m in (1, 2):
                expected = sum(
                    (Scalar(math.comb(m, k)) * c**k * series.coefficient(m - k)
                     for k in range(m)),
                    c**m,
                )
                assert mv.value(m) == expected, (str(p), m)
    assert merges == {"sign", "content"}
    assert swept == 8


def test_high_degree_inputs():
    # long words give long z^0 chains of residual states
    assert moments(parse_polynomial("x1^80", 1), 1).value(1) == Scalar(catalan(40))
    assert moments(parse_polynomial("x1^40", 1), 2).value(2) == Scalar(catalan(40))
    for text, n_vars, max_order in [
        ("(x1+x2)^6", 2, 2),
        ("i*x1^7 - i*x2^7 + 1/2*x1*x2", 2, 3),
    ]:
        p = parse_polynomial(text, n_vars)
        mv = moments(p, max_order)
        for m in range(1, max_order + 1):
            assert mv.value(m) == brute_moment(p, m), (text, m)


def test_closed_forms_past_oracle_reach():
    # s1 + s2 is semicircular of variance 2: a single-letter term per
    # variable, i.e. z self-loops on the start state
    mv = moments(parse_polynomial("x1 + x2", 2), 64)
    for m in range(1, 65):
        expected = 2 ** (m // 2) * catalan(m // 2) if m % 2 == 0 else 0
        assert mv.value(m) == Scalar(expected), m
    # a complex coefficient: the answer is decoded from one int of Z/(r^2 + 1)
    mv = moments(parse_polynomial("i*x1", 1), 40)
    for m in range(1, 41):
        expected = (-1) ** (m // 2) * catalan(m // 2) if m % 2 == 0 else 0
        assert mv.value(m) == Scalar(expected), m
    # cleared denominators (lam = 3) together with the binomial recombination
    mv = moments(parse_polynomial("1/3*x1 + 2", 1), 24)
    for m in range(1, 25):
        expected = sum(
            Fraction(math.comb(m, 2 * k) * 2 ** (m - 2 * k) * catalan(k), 9**k)
            for k in range(m // 2 + 1)
        )
        assert mv.value(m) == Scalar(expected), m
    # lam = 3 comes from the constant alone
    mv = moments(parse_polynomial("x1 + 1/3", 1), 30)
    for m in range(1, 31):
        expected = sum(
            math.comb(m, 2 * k) * Fraction(1, 3) ** (m - 2 * k) * catalan(k)
            for k in range(m // 2 + 1)
        )
        assert mv.value(m) == Scalar(expected), m
    # a complex constant with a real q: the recombination's im part
    i = Scalar(0, 1)
    mv = moments(parse_polynomial("x1 + i", 1), 24)
    for m in range(1, 25):
        expected = sum(
            (math.comb(m, 2 * k) * catalan(k) * i ** (m - 2 * k)
             for k in range(m // 2 + 1)),
            Scalar(0),
        )
        assert mv.value(m) == expected, m
    # Nica-Speicher: the commutator i(s1 s2 - s2 s1) and the anticommutator
    # s1 s2 + s2 s1 have the same distribution
    commutator = moments(parse_polynomial("i*x1*x2 - i*x2*x1", 2), 64)
    anticommutator = moments(parse_polynomial("x1*x2 + x2*x1", 2), 64)
    assert commutator.values == anticommutator.values
    # Fuss-Catalan: tau((s1 s2^2 s1)^m) = C(3m, m) / (2m + 1)
    mv = moments(parse_polynomial("x1*x2^2*x1", 2), 40)
    for m in range(1, 41):
        assert mv.value(m) == Scalar(math.comb(3 * m, m) // (2 * m + 1)), m
    # graded inputs: s1 + ... + sn is semicircular of variance n, so
    # tau((s1 + ... + sn)^(3m)) = n^(3m/2) Catalan(3m/2), and 0 at odd m
    for n_vars in (3, 2):
        text = "(" + " + ".join(f"x{v}" for v in range(1, n_vars + 1)) + ")^3"
        mv = moments(parse_polynomial(text, n_vars), 192)
        for m in range(1, 193):
            expected = n_vars ** (3 * m // 2) * catalan(3 * m // 2) if m % 2 == 0 else 0
            assert mv.value(m) == Scalar(expected), (text, m)


# (text, n_vars, M, bound): the benchmark's deep and wide jobs at seed 1, in
# job order, and four structured inputs, each with the number of integer
# products its solve took when the bound was recorded
KERNEL_PRODUCT_BOUNDS = [
    ("x1*x2 + x2*x1", 2, 64, 2576),
    ("x1^3 - 3*x1", 1, 32, 3429),
    ("-2*x3*x1 + x1*x3", 3, 32, 648),
    ("x1^3 - 3*x1", 1, 16, 849),
    ("x1*x2 + x2*x1 + i*x2*x3 - i*x3*x2 + 1/2*x1^2 + x3^2 - 2/3*x2 + 2", 3, 4, 164),
    ("x1*x2*x3 + x3*x2*x1 + i*x1^2 - i*x2^2 + 1/2*x3 + x1*x3 + 1", 3, 4, 189),
    ("-1/2*x2^2 - x1^2 - x3*x2 - i*x1*x3 + 2/3*x3 + i*x3*x1 - x2*x3 + 2", 3, 2, 11),
    ("i*x2^2 - 1/2*x3 - x2*x1*x3 + x3*x1*x2 - i*x1^2 + x2*x3 + 1", 3, 2, 12),
    ("(x1+x2+x3)^3", 3, 48, 7737),
    ("(x1+x2)^8", 2, 2, 184),
    ("x1*x2*x3*x1 + x2*x2*x1 + 3*i*x3^5 - x1", 3, 96, 191986),
    ("x1^80", 1, 1, 21360),
]


def _products(monkeypatch, text, n_vars, max_order):
    """Integer products the solve takes for moments(text, max_order): every
    product of a series convolution goes through _kernel._mul."""
    count = 0

    def counting_mul(a, b):
        nonlocal count
        count += 1
        return a * b

    monkeypatch.setattr(_kernel, "_mul", counting_mul)
    moments(parse_polynomial(text, n_vars), max_order)
    return count


def test_kernel_product_count_ratchet(monkeypatch):
    # a ratchet on the solve's work: no change may make any count larger
    for text, n_vars, max_order, bound in KERNEL_PRODUCT_BOUNDS:
        count = _products(monkeypatch, text, n_vars, max_order)
        assert 0 < count <= bound, (text, max_order, count, bound)


# (bound on each doubling's ratio, sweep of (text, n_vars, M, products
# counted when recorded)): a chain of N = d states at M = 1, and the 3-state
# automaton of (x1+x2+x3)^3 at rising M.  The solve takes O(N^3 M^2)
# products: a ratio near 8 per doubling of the word, near 4 per doubling of M
KERNEL_SCALING = [
    (8.1, [("x1^25", 1, 1, 650), ("x1^50", 1, 1, 5225), ("x1^100", 1, 1, 41700)]),
    (4.1, [("(x1+x2+x3)^3", 3, 16, 849), ("(x1+x2+x3)^3", 3, 32, 3429),
           ("(x1+x2+x3)^3", 3, 64, 13773), ("(x1+x2+x3)^3", 3, 128, 55197)]),
]


def test_kernel_product_scaling(monkeypatch):
    # the paper's polynomial-time claim, on exact integers: each doubling of
    # the word length or of M multiplies the solve's products by at most the
    # recorded factor, and no count exceeds the one recorded
    for ratio, sweep in KERNEL_SCALING:
        counts = []
        for text, n_vars, max_order, bound in sweep:
            counts.append(_products(monkeypatch, text, n_vars, max_order))
            assert 0 < counts[-1] <= bound, (text, max_order, counts[-1], bound)
        for small, large in zip(counts, counts[1:]):
            assert large <= ratio * small, (counts, ratio)


def test_iterate_order_zero():
    rep = build_zq_star(parse_polynomial("x1", 1))
    mats = reduce_rep(rep, 0)
    series = iterate_system(mats, rep.dim, 0, 1)
    assert series == ZPoly()
    assert series.coefficient(0) == Scalar(0)


def test_concurrent_requests():
    import threading

    polys = [
        parse_polynomial(text, n)
        for text, n in [("x1 + x2", 2), ("x1^2", 1), ("x1*x2 + x2*x1", 2)]
    ]
    expected = [moments(p, 8).values for p in polys]
    results = [[None] * 4 for _ in polys]

    def work(poly_idx, slot):
        results[poly_idx][slot] = moments(polys[poly_idx], 8).values

    threads = [
        threading.Thread(target=work, args=(i, s))
        for i in range(len(polys))
        for s in range(4)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for i, per_poly in enumerate(results):
        assert all(r == expected[i] for r in per_poly)


def test_complexity_probe_shape():
    p = parse_polynomial("x1*x2 + x2*x1", 2)
    report = complexity_probe(p, [2, 4, 6], expansion_cap=10**4)
    assert len(report.rows) == 3
    for row in report.rows:
        assert row.engine_seconds >= 0
        assert not row.naive_capped
        assert row.naive_seconds is not None
    assert report.engine_slope is not None

    capped = complexity_probe(p, [40], expansion_cap=10**4)
    assert capped.rows[0].naive_capped
    assert capped.rows[0].naive_seconds is None
    assert capped.engine_slope is None  # one point fits no slope
    # nor do two runs at one order
    assert complexity_probe(p, [4, 4], expansion_cap=10**4).engine_slope is None


def test_oracle_equivalence_suite():
    properties.check_oracle_equivalence_corpus()


def test_stabilization_suite():
    properties.check_stabilization()


def test_odd_vanishing_suite():
    properties.check_odd_vanishing()


def test_scaling_covariance_suite():
    properties.check_scaling_covariance()


def test_self_adjoint_reality_suite():
    properties.check_self_adjoint_reality()


def test_hankel_positivity_suite():
    properties.check_hankel_positivity()


def test_fast_vs_reference_suite():
    properties.check_fast_vs_reference()
