import json
import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bubble_correction import polynomials as polynomials_module
from bubble_correction.errors import DimensionMismatchError, ExactnessError
from bubble_correction.polynomials import (
    Polynomial,
    compose_shift,
    directional_pairing,
    euler_operator,
    gradient,
    iterated_laplacian,
    laplacian,
    partial_derivative,
    r2_multiply,
)
from bubble_correction.reduction import a_multiplier, apply_L, h_of

import oracles
from conftest import harmonic_homogeneous, random_homogeneous, wire_polynomials


def var(n, i, p=1, c=1):
    return Polynomial.variable(n, i, p, c)


# ------------------------------------------------------- strategy machinery

rationals = st.fractions(
    min_value=-6, max_value=6, max_denominator=4
).filter(lambda f: f != 0)


@st.composite
def polynomials(draw, min_n=2, max_n=4, max_degree=4, homogeneous=False):
    n = draw(st.integers(min_n, max_n))
    ell = draw(st.integers(1 if homogeneous else 0, max_degree))
    term_count = draw(st.integers(1, 3))
    terms = {}
    for _ in range(term_count):
        if homogeneous:
            total = ell
        else:
            total = draw(st.integers(0, max_degree))
        alpha = [0] * n
        left = total
        for i in range(n - 1):
            a = draw(st.integers(0, left))
            alpha[i] = a
            left -= a
        alpha[-1] = left
        terms[tuple(alpha)] = draw(rationals)
    poly = Polynomial(n, terms)
    if homogeneous and (poly.is_zero or poly.degree() != ell):
        # collisions can cancel terms; retry through filtering
        st.just(None)
        return draw(polynomials(min_n, max_n, max_degree, homogeneous))
    return poly


# ------------------------------------------------------------------- basics


def test_zero_polynomial_degree_is_none():
    z = Polynomial.zero(3)
    assert z.is_zero
    assert z.degree() is None


def test_dimension_mismatch_is_an_error():
    with pytest.raises(DimensionMismatchError):
        Polynomial.variable(2, 0) + Polynomial.variable(3, 0)
    with pytest.raises(DimensionMismatchError):
        Polynomial.variable(2, 0) * Polynomial.variable(3, 0)


def test_float_coefficients_are_refused():
    with pytest.raises(ExactnessError):
        Polynomial(2, {(1, 0): 0.5})


def test_boolean_coefficients_are_refused():
    with pytest.raises(ExactnessError):
        Polynomial(2, {(1, 0): True})


@pytest.mark.parametrize(
    "alpha", [(1.5, 0), ("2", "0"), (True, 0)], ids=["float", "string", "bool"]
)
def test_exponents_must_be_ints(alpha):
    with pytest.raises(ValueError):
        Polynomial(2, {alpha: 1})


@pytest.mark.parametrize(
    "index", [-1, 3, True, 1.0], ids=["negative", "past-the-end", "bool", "float"]
)
def test_variable_index_must_lie_in_range(index):
    # y3^2 + y1 in n = 3: -1 once read as y3 and keyed a six-entry multi-index
    p = var(3, 2, 2) + var(3, 0)
    with pytest.raises(ValueError):
        partial_derivative(p, index)
    with pytest.raises(ValueError):
        Polynomial.variable(3, index)


def test_bool_exponents_are_refused():
    with pytest.raises(ValueError):
        var(3, 0) ** True
    with pytest.raises(ValueError):
        Polynomial.variable(3, 0, True)


@pytest.mark.parametrize("dimension", [True, 2.0, 0], ids=["bool", "float", "zero"])
def test_dimension_must_be_a_positive_int(dimension):
    with pytest.raises(ValueError):
        Polynomial(dimension, {})


def test_zero_coefficients_are_never_stored():
    p = var(2, 0) - var(2, 0)
    assert p.terms == {}


def assert_normalised(q, n):
    """No stored zero, only int-tuple keys of length n, and the public
    constructor accepts the terms unchanged."""
    assert q.dimension == n
    for alpha, coeff in q.terms.items():
        assert type(alpha) is tuple and len(alpha) == n
        assert all(type(a) is int and a >= 0 for a in alpha)
        assert type(coeff) is Fraction and coeff != 0
    assert Polynomial(q.dimension, q.terms) == q


@given(polynomials(), st.data())
@settings(max_examples=60, deadline=None)
def test_every_operation_returns_normalised_terms(p, data):
    n = p.dimension
    q = data.draw(polynomials(min_n=n, max_n=n))
    c = data.draw(rationals)
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    harmonic = harmonic_homogeneous(rng, n, rng.randint(2, 4))
    shift = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
    perm = rng.sample(range(n), n)
    signs = [rng.choice([1, -1]) for _ in range(n)]
    cancelled = [p - p, p + (-p), laplacian(harmonic), 0 * p]
    for r in cancelled:
        assert r.is_zero
    assert compose_shift(p, [0] * n) == p
    results = cancelled + [
        p + q, -p, p * q, (p + q) * (p - q), c * p, p**2, p**0,
        *(partial_derivative(p, i) for i in range(n)),
        laplacian(p), euler_operator(p), euler_operator(Polynomial.constant(n, c)),
        compose_shift(p, [0] * n), compose_shift(p, shift),
        oracles.apply_signed_permutation(p, perm, signs),
        *p.homogeneous_parts().values(),
    ]
    for r in results:
        assert_normalised(r, n)


def assert_lowest_terms(q):
    """The stored integer form: a positive int den, nonzero int numerators,
    and no common factor of den and the numerators."""
    assert type(q.den) is int and q.den >= 1
    assert all(type(v) is int and v for v in q.nums.values())
    assert gcd(q.den, *q.nums.values()) == 1


def dict_iterate(op, p, k):
    for _ in range(k):
        p = op(p)
    return p


@given(polynomials(), st.data())
@settings(max_examples=80, deadline=None)
def test_integer_form_matches_the_fraction_dict_reference(p, data):
    n = p.dimension
    q = data.draw(polynomials(min_n=n, max_n=n))
    c = data.draw(rationals)
    k = data.draw(st.integers(0, 3))
    P, Q = p.terms, q.terms
    cases = [
        (p + q, oracles.dict_add(P, Q)),
        (p - q, oracles.dict_add(P, oracles.dict_scale(Q, -1))),
        (p - p, {}),
        (p * q, oracles.dict_mul(P, Q)),
        (c * p, oracles.dict_scale(P, c)),
        (p * c, oracles.dict_scale(P, c)),
        *((partial_derivative(p, i), oracles.dict_partial(P, i)) for i in range(n)),
        (laplacian(p), oracles.dict_laplacian(P, n)),
        (
            iterated_laplacian(p, k),
            dict_iterate(lambda t: oracles.dict_laplacian(t, n), P, k),
        ),
        (euler_operator(p), oracles.dict_euler(P, n)),
        (r2_multiply(p, k), dict_iterate(lambda t: oracles.dict_r2(t, n), P, k)),
        (apply_L(p), oracles.dict_apply_L(P, n)),
    ]
    for result, expected in cases:
        assert_lowest_terms(result)
        assert result.dimension == n
        assert result.terms == expected
    assert (p - p).den == 1


@given(polynomials(), rationals)
@settings(max_examples=60, deadline=None)
def test_equal_values_built_by_different_routes_compare_and_hash_equal(p, c):
    n = p.dimension
    routes = [
        p * 2 * Fraction(1, 2),
        p * c * (1 / c),
        (p + p) - p,
        -(-p),
        Polynomial(n, p.terms),
        Polynomial.from_json(p.to_json()),
        sum((Polynomial(n, {a: v}) for a, v in p.terms.items()), Polynomial.zero(n)),
    ]
    for r in routes:
        assert r == p and hash(r) == hash(p)
        assert (r.den, r.nums) == (p.den, p.nums)
    alpha = (1,) + (0,) * (n - 1)
    half = Polynomial(n, {alpha: Fraction(1, 2)})
    assert Polynomial(n, {alpha: Fraction(2, 4)}) == half
    assert Polynomial(n, {alpha: "3/6"}) == half and hash(half) == hash(
        Polynomial(n, {alpha: "3/6"})
    )
    assert (half * 4).den == 1 and (half * 4).nums == {alpha: 2}


def test_terms_is_a_copy_and_nums_is_read_only():
    # a float or a zero written to ``terms`` must not reach the exact tier
    p = Polynomial(2, {(2, 0): 1})
    p.terms[(2, 0)] = 0.5
    p.terms[(0, 0)] = 0
    assert p == Polynomial(2, {(2, 0): 1})
    assert p.terms == {(2, 0): Fraction(1)}
    assert p.evaluate([1, 1]) == 1 and type(p.evaluate([1, 1])) is Fraction
    assert p.is_homogeneous()
    assert laplacian(p) == Polynomial.constant(2, 2)
    with pytest.raises(TypeError):
        p.nums[(2, 0)] = 2
    with pytest.raises(TypeError):
        p.nums[(0, 0)] = 0
    with pytest.raises(AttributeError):
        p.den = 3
    assert p.nums == {(2, 0): 1} and p.den == 1


# ------------------------------------------------------------- derivatives


def test_laplacian_of_square_is_two():
    assert laplacian(var(3, 0, 2)) == Polynomial.constant(3, 2)


def test_laplacian_of_product_square():
    # lap(y1^2 y2^2) = 2 y2^2 + 2 y1^2, by hand
    p = var(3, 0, 2) * var(3, 1, 2)
    assert laplacian(p) == 2 * var(3, 1, 2) + 2 * var(3, 0, 2)


def test_laplacian_of_mixed_monomial_vanishes():
    assert laplacian(var(3, 0) * var(3, 1)).is_zero


@given(polynomials(max_n=6, max_degree=8))
@settings(max_examples=200, deadline=None)
def test_laplacian_matches_second_partials(p):
    assert laplacian(p) == oracles.laplacian_by_partials(p)


def test_laplacian_matches_second_partials_on_mixed_denominators(rng):
    # dense polynomials whose denominators share some factors and not others
    for n in (3, 6, 10):
        p = Polynomial.zero(n)
        for _ in range(6):
            q = random_homogeneous(rng, n, rng.randint(2, 8), max_terms=40)
            p = p + q * Fraction(rng.randint(-99, 99) or 1, rng.randint(1, 10**12))
        assert laplacian(p) == oracles.laplacian_by_partials(p)


def test_iterated_laplacian_examples():
    p = var(3, 0, 2) * var(3, 1, 2)
    assert iterated_laplacian(p, 2) == Polynomial.constant(3, 8)
    assert iterated_laplacian(p, 0) == p
    assert iterated_laplacian(p, 3).is_zero


def test_iterated_laplacian_matches_repeated_second_partials(rng):
    # every pass runs on the same integer sums, unscaled once; k runs past
    # the degree, where the result is zero
    for n in (2, 5, 9):
        p = Polynomial.zero(n)
        for _ in range(4):
            q = random_homogeneous(rng, n, rng.randint(0, 7), max_terms=12)
            p = p + q * Fraction(rng.randint(-99, 99) or 1, rng.randint(1, 10**9))
        expected = p
        for k in range(p.degree() // 2 + 3):
            assert iterated_laplacian(p, k) == expected
            expected = oracles.laplacian_by_partials(expected)
        assert iterated_laplacian(p, 10**9).is_zero


def test_iterated_laplacian_kills_the_alternating_model():
    # even-degree model built from single-variable powers with cancelling
    # top Laplacians
    n, ell = 6, 4
    terms = {}
    for j in range(n):
        alpha = [0] * n
        alpha[j] = ell
        terms[tuple(alpha)] = Fraction(1 if j % 2 == 0 else -1)
    p = Polynomial(n, terms)
    assert iterated_laplacian(p, ell // 2).is_zero


def test_euler_operator_examples():
    p = var(3, 0, 2) * var(3, 1)
    assert euler_operator(p) == 3 * p
    assert euler_operator(Polynomial.constant(3, 7)).is_zero
    q = var(2, 0, 2) + var(2, 0) * var(2, 1)
    assert euler_operator(q) == 2 * q


def test_euler_operator_matches_sum_of_variable_times_partial(rng):
    # mixed degrees, always with a constant and a linear term
    for _ in range(40):
        n = rng.randint(1, 6)
        terms = {
            tuple(rng.randint(0, 3) for _ in range(n)): Fraction(
                rng.randint(-9, 9), rng.randint(1, 7)
            )
            for _ in range(rng.randint(0, 6))
        }
        j = rng.randrange(n)
        terms[(0,) * n] = Fraction(rng.randint(1, 9), rng.randint(1, 7))
        terms[tuple(int(i == j) for i in range(n))] = Fraction(
            rng.randint(1, 9), rng.randint(1, 7)
        )
        p = Polynomial(n, terms)
        assert euler_operator(p) == oracles.euler_operator_by_products(p)


def test_gradient_examples():
    assert gradient(var(3, 0, 2))[0] == 2 * var(3, 0)
    assert gradient(var(3, 0, 2))[1].is_zero
    g = gradient(var(3, 0) * var(3, 1))
    assert g[0] == var(3, 1) and g[1] == var(3, 0) and g[2].is_zero


def test_directional_pairing_matches_gradient_combination():
    rng = random.Random(7)
    for _ in range(10):
        n = rng.choice([2, 3, 4])
        p = random_homogeneous(rng, n, rng.choice([2, 3, 4]))
        x = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
        combo = Polynomial.zero(n)
        for xi, gi in zip(x, gradient(p)):
            combo = combo + xi * gi
        assert directional_pairing(x, p) == combo


def test_directional_pairing_trivial_cases():
    p = var(3, 0, 2)
    assert directional_pairing([1, 0, 0], p) == 2 * var(3, 0)
    assert directional_pairing([0, 0, 0], p).is_zero


def test_directional_pairing_drops_degree_by_one(rng):
    n = 6
    p = random_homogeneous(rng, n, n - 2)
    x = [Fraction(rng.randint(-2, 2)) for _ in range(n)]
    paired = directional_pairing(x, p)
    assert paired.is_zero or paired.degree() == n - 3


@given(polynomials(max_n=5, max_degree=5), st.integers(0, 3))
@settings(max_examples=80, deadline=None)
def test_r2_multiply_matches_products(p, k):
    n = p.dimension
    product = r2_multiply(p, k)
    assert product == oracles.radial_sum_by_products(n, [0] * k + [p])
    assert product == Polynomial.r_squared(n) ** k * p


def test_r2_multiply_degree_bookkeeping():
    n = 2
    assert r2_multiply(Polynomial.constant(n, 1), 1) == Polynomial.r_squared(n)
    assert r2_multiply(var(n, 0), 2).degree() == 5
    for power in (-1, 1.5, True):
        with pytest.raises(ValueError):
            r2_multiply(var(n, 0), power)


def test_evaluate_exact_and_float():
    p = var(2, 0, 2) - var(2, 1, 2)
    assert p.evaluate([1, 1]) == 0
    assert p.evaluate([Fraction(1, 2), Fraction(1, 3)]) == Fraction(5, 36)
    r2 = Polynomial.r_squared(3)
    assert r2.evaluate([1, 2, 2]) == 9


def test_evaluate_refuses_float_and_bool_points():
    p = var(2, 0, 2) - var(2, 1, 2)
    for point in ([0.5, 0.25], [Fraction(1, 2), 0.25], [True, 1], [1, False]):
        with pytest.raises(ExactnessError):
            p.evaluate(point)
    with pytest.raises(ExactnessError):
        Polynomial.zero(2).evaluate(np.array([0.5, 0.25]))


# --------------------------------------------------------------- properties


@given(polynomials(), polynomials(min_n=2, max_n=2), st.data())
@settings(max_examples=60, deadline=None)
def test_operator_linearity(p, _q, data):
    n = p.dimension
    q = data.draw(polynomials(min_n=n, max_n=n))
    a = data.draw(rationals)
    b = data.draw(rationals)
    combo = a * p + b * q
    assert laplacian(combo) == a * laplacian(p) + b * laplacian(q)
    assert euler_operator(combo) == a * euler_operator(p) + b * euler_operator(q)
    x = [Fraction(1, 2)] * n
    assert directional_pairing(x, combo) == a * directional_pairing(
        x, p
    ) + b * directional_pairing(x, q)
    assert r2_multiply(combo, 1) == a * r2_multiply(p, 1) + b * r2_multiply(q, 1)


@given(polynomials(homogeneous=True))
@settings(max_examples=60, deadline=None)
def test_euler_identity_on_homogeneous(p):
    assert euler_operator(p) == p.degree() * p


@given(polynomials(homogeneous=True, max_degree=6), st.data())
@settings(max_examples=40, deadline=None)
def test_product_rule_for_weighted_blocks(p, data):
    # lap((r^2)^j lap^k P) = (r^2)^j lap^(k+1) P + A * (r^2)^(j-1) lap^k P
    n = p.dimension
    ell = p.degree()
    h = h_of(ell) if ell >= 1 else 0
    k = data.draw(st.integers(0, max(h, 0)))
    j = data.draw(st.integers(0, k))
    block = r2_multiply(iterated_laplacian(p, k), j)
    lhs = laplacian(block)
    rhs = r2_multiply(iterated_laplacian(p, k + 1), j)
    if j >= 1:
        rhs = rhs + a_multiplier(n, ell, j, k) * r2_multiply(
            iterated_laplacian(p, k), j - 1
        )
    assert lhs == rhs


@given(polynomials(homogeneous=True, max_degree=6))
@settings(max_examples=40, deadline=None)
def test_degree_drop_under_iterated_laplacian(p):
    ell = p.degree()
    for k in range(ell // 2 + 2):
        q = iterated_laplacian(p, k)
        if not q.is_zero:
            assert q.degree() == ell - 2 * k
        if 2 * k > ell:
            assert q.is_zero


def test_laplacian_against_finite_differences():
    rng = random.Random(11)
    for _ in range(4):
        n = rng.choice([2, 3])
        terms = {}
        for _ in range(3):
            alpha = [rng.randint(0, 2) for _ in range(n)]
            terms[tuple(alpha)] = Fraction(rng.randint(-2, 2) or 1)
        p = Polynomial(n, terms)
        lap = laplacian(p)
        for _ in range(25):
            y = np.array([rng.uniform(-0.8, 0.8) for _ in range(n)])
            approx = oracles.fd_laplacian(
                lambda z: oracles.eval_polynomial(p, z[None, :])[0], y, step=1e-4
            )
            exact = lap.evaluate([Fraction(x) for x in y])
            assert abs(approx - float(exact)) <= 1e-6


# ------------------------------------------------------------ serialization


def test_json_round_trip_and_schema():
    p = Fraction(3, 7) * var(3, 0, 2) - var(3, 2)
    data = p.to_json()
    assert data["dimension"] == 3
    assert all(set(t) == {"alpha", "num", "den"} for t in data["terms"])
    assert all(
        isinstance(t["num"], str) and isinstance(t["den"], str)
        for t in data["terms"]
    )
    assert Polynomial.from_json(data) == p


def test_json_terms_are_graded_lexicographic():
    p = var(2, 1, 3) + var(2, 0) + Polynomial.constant(2, 1) + var(2, 0, 2)
    alphas = [tuple(t["alpha"]) for t in p.to_json()["terms"]]
    assert alphas == sorted(alphas, key=lambda a: (sum(a), a))


def test_malformed_json_raises_value_error():
    with pytest.raises(ValueError):
        Polynomial.from_json({"dimension": 2, "terms": [{"alpha": [1]}]})


@given(wire_polynomials())
@example(Polynomial.zero(1))
@example(Polynomial.zero(3))
@example(Polynomial.variable(1, 0, 7, Fraction(-(10**300) + 1, 10**299 + 3)))
@settings(max_examples=150, deadline=None)
def test_json_chunks_are_the_text_of_json_dumps(p):
    # the streamed text is json.dumps's compact layout, whatever the nesting
    text = json.dumps(p.to_json(), sort_keys=True, separators=(",", ":"))
    assert "".join(p.json_chunks()) == text


def test_from_json_reads_decimal_string_exponents():
    data = {"dimension": 3, "terms": [
        {"alpha": ["2", "+0", 0], "num": "-3", "den": "4"},
        {"alpha": [0, 1, "-0"], "num": "1", "den": "-2"},
    ]}
    expected = Polynomial(3, {(2, 0, 0): Fraction(-3, 4), (0, 1, 0): Fraction(-1, 2)})
    assert Polynomial.from_json(data) == expected


@pytest.mark.parametrize(
    "alpha, match",
    [
        ([2.0, 0, 0], "not an integer or decimal string: 2.0"),
        ([True, 1, 0], "not an integer or decimal string: True"),
        ([2, "0x1", 0], "not an integer or decimal string: '0x1'"),
        ([2, " 1", 0], "not an integer or decimal string: ' 1'"),
        ([2, "1_0", 0], "not an integer or decimal string: '1_0'"),
        ([2, "\u0663", 0], "not an integer or decimal string"),
        ([2, None, 0], "not an integer or decimal string: None"),
        ([2, [0], 0], "not an integer or decimal string: \\[0\\]"),
        ("200", "not a JSON list: '200'"),
        ({"2": 0, "0": 0, "00": 0}, "not a JSON list"),
        ([2, -1, 1], "exponents must be non-negative ints"),
        ([2, "-1", 1], "exponents must be non-negative ints"),
        ([2, 0], "has length 2, expected 3"),
    ],
    ids=["float", "bool", "hex-string", "spaced-string", "underscored-string",
         "non-ascii-digit", "null", "nested-list", "string", "object",
         "negative", "negative-string", "short"],
)
def test_from_json_refuses_every_malformed_exponent(alpha, match):
    data = {"dimension": 3, "terms": [{"alpha": alpha, "num": "1", "den": "1"}]}
    with pytest.raises(ValueError, match=match):
        Polynomial.from_json(data)


def test_from_json_refuses_a_multi_index_repeated_in_another_spelling():
    data = {"dimension": 2, "terms": [
        {"alpha": [2, 0], "num": "1", "den": "1"},
        {"alpha": ["2", "0"], "num": "1", "den": "1"},
    ]}
    with pytest.raises(ValueError, match=r"repeated multi-index \[2, 0\]"):
        Polynomial.from_json(data)


def _spellings(value):
    """A JSON integer as an int and as decimal strings, with a sign and
    leading zeros."""
    digits = str(abs(value))
    return st.sampled_from(
        [value, str(value), ("-" if value < 0 else "+") + "00" + digits]
    )


@st.composite
def wire_terms(draw):
    """(n, [(alpha, num, den)], data): a ``wire_polynomials`` polynomial's
    terms with each num and den scaled by one nonzero factor (negative,
    unreduced or 300 digits), zero numerators at fresh multi-indices, in any
    order, every integer of ``data`` spelled by ``_spellings``."""
    p = draw(wire_polynomials())
    n = p.dimension
    factors = (st.integers(-9, 9) | st.integers(-(10**300), 10**300)).filter(bool)
    terms = []
    for alpha, c in p.terms.items():
        k = draw(factors)
        terms.append((alpha, c.numerator * k, c.denominator * k))
    zeros = draw(st.sets(st.tuples(*[st.integers(0, 12)] * n), max_size=2))
    terms += [(alpha, 0, draw(factors)) for alpha in zeros - set(p.nums)]
    terms = draw(st.permutations(terms))
    entries = [
        {"alpha": [draw(_spellings(a)) for a in alpha],
         "num": draw(_spellings(num)), "den": draw(_spellings(den))}
        for alpha, num, den in terms
    ]
    return n, terms, {"dimension": draw(_spellings(n)), "terms": entries}


@given(wire_terms())
@example((2, [((1, 0), 2 * 10**300, -4 * 10**300), ((0, 3), 0, -7)], {
    "dimension": "02", "terms": [
        {"alpha": ["+01", 0], "num": str(2 * 10**300), "den": str(-4 * 10**300)},
        {"alpha": [0, "3"], "num": "-0", "den": -7},
    ]}))
@settings(max_examples=150, deadline=None)
def test_from_json_equals_the_constructor_on_wire_data(case):
    n, terms, data = case
    expected = Polynomial(n, {alpha: Fraction(num, den) for alpha, num, den in terms})
    assert Polynomial.from_json(data) == expected


def test_from_json_builds_no_fraction(monkeypatch):
    data = {"dimension": 3, "terms": [
        {"alpha": [2, 0, 0], "num": "3", "den": "7"},
        {"alpha": ["0", "+0", 1], "num": -6, "den": "-4"},
    ]}
    expected = Polynomial(3, {(2, 0, 0): Fraction(3, 7), (0, 0, 1): Fraction(3, 2)})

    def no_fraction(*args):
        raise AssertionError("from_json built a Fraction")

    monkeypatch.setattr(polynomials_module, "Fraction", no_fraction)
    got = Polynomial.from_json(data)
    monkeypatch.undo()
    assert got == expected


JSON_INT_VERDICTS = [
    (12, 12), (10**299, 10**299), (-5, -5), (True, None), (False, None),
    ("12", 12), ("-3", -3), (" 1", None), ("1.0", None), (1.0, None),
    (None, None),
]


@pytest.mark.parametrize("value, expected", JSON_INT_VERDICTS,
                         ids=[repr(v)[:12] for v, _ in JSON_INT_VERDICTS])
def test_json_int_verdicts(value, expected):
    # an int (not a bool) or a decimal string is read; anything else, a float
    # with an integral value included, is refused
    if expected is None:
        with pytest.raises(ValueError, match="^not an integer or decimal string: "):
            polynomials_module.json_int(value)
    else:
        got = polynomials_module.json_int(value)
        assert got == expected and type(got) is int


# ------------------------------------------------------------- symmetry ops


def test_signed_permutation_action():
    p = var(3, 0, 2) * var(3, 1) + var(3, 2, 3)
    q = oracles.apply_signed_permutation(p, [1, 0, 2], [1, -1, -1])
    # y1 -> y2, y2 -> -y1, y3 -> -y3
    expect = var(3, 1, 2) * (Fraction(-1) * var(3, 0)) - var(3, 2, 3)
    assert q == expect


@given(polynomials(min_n=1, max_n=4, max_degree=5), st.data())
@settings(max_examples=80, deadline=None)
def test_taylor_terms_match_the_binomial_and_partial_references(p, data):
    n = p.dimension
    shift = data.draw(
        st.one_of(
            st.just([0] * n),
            st.lists(
                st.fractions(min_value=-6, max_value=6, max_denominator=5),
                min_size=n,
                max_size=n,
            ),
        )
    )
    zero = Polynomial.zero(n)
    cases = [p, zero, Polynomial.constant(n, data.draw(rationals))]
    for q in cases + list(p.homogeneous_parts().values()):
        shifted = compose_shift(q, shift)
        assert shifted == oracles.compose_shift_by_binomials(q, shift)
        paired = directional_pairing(shift, q)
        assert paired == oracles.directional_pairing_by_partials(shift, q)
        assert_lowest_terms(shifted)
        assert_lowest_terms(paired)
        if q.is_zero or not q.is_homogeneous():
            continue
        # the piece of shift degree h is the z-degree ell - h part of the shift
        ell = q.degree()
        parts = oracles.compose_shift_by_binomials(q, shift).homogeneous_parts()
        pieces = oracles.shift_expansion(q, shift)
        assert pieces == [parts.get(ell - h, zero) for h in range(ell + 1)]
        for piece in pieces:
            assert_lowest_terms(piece)


@pytest.mark.parametrize("q", [Polynomial.zero(3), Polynomial.constant(3, 2)])
def test_a_float_shift_is_refused_where_no_pairing_is_made(q):
    for shift in ([0.5, 0, 0], [Fraction(1), True, 0]):
        with pytest.raises(ExactnessError):
            compose_shift(q, shift)
        with pytest.raises(ExactnessError):
            directional_pairing(shift, q)
    with pytest.raises(DimensionMismatchError):
        compose_shift(q, [0, 0])


def test_compose_shift_reconstructs_binomial():
    p = var(1, 0, 2)
    shifted = compose_shift(p, [Fraction(3)])
    expect = var(1, 0, 2) + 6 * var(1, 0) + Polynomial.constant(1, 9)
    assert shifted == expect


def test_compose_shift_evaluates_as_the_shifted_polynomial(rng):
    # exact oracle: (Q o shift)(y) == Q(y + s) at a rational point
    for _ in range(30):
        n = rng.randint(1, 5)
        q = random_homogeneous(rng, n, rng.randint(1, 6))
        s = [Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(n)]
        y = [Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(n)]
        assert compose_shift(q, s).evaluate(y) == q.evaluate(
            [a + b for a, b in zip(y, s)]
        )
