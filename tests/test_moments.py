import math
import re
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from bubble_correction import moments, polynomials, quadrature
from bubble_correction.balance import flexibility_falsifier, single_point_constraints
from bubble_correction.errors import (
    DimensionMismatchError,
    DivergentMomentError,
    ExactnessError,
)
from bubble_correction.moments import (
    change_of_center,
    gradient_moment,
    j_multiple,
    j_value,
    moment_integral,
    weighted_integral,
)
from bubble_correction.polynomials import (
    Polynomial,
    compose_shift,
    gradient,
    iterated_laplacian,
    laplacian,
)

import oracles
from oracles import double_factorial_minus2, j_multiple_by_bookkeeping, shift_expansion
from conftest import alternating_quartic, random_even_homogeneous, random_homogeneous


def var(n, i, p=1):
    return Polynomial.variable(n, i, p)


# ------------------------------------------------------------- double facts


def test_double_factorial_reference_values():
    assert double_factorial_minus2(0) == 1
    assert double_factorial_minus2(2) == 1
    assert double_factorial_minus2(4) == 3
    assert double_factorial_minus2(6) == 15
    assert double_factorial_minus2(5) == 0
    assert double_factorial_minus2(1) == 0


def test_b_constant_values_and_symbolic_cross_check():
    assert oracles.b_constant(2) == 2
    assert oracles.b_constant(4) == 8
    assert oracles.b_constant(6) == 48
    for ell in (2, 4, 6):
        h = ell // 2
        n = max(h, 3)
        alpha = [0] * n
        for i in range(h):
            alpha[i] = 2
        mono = Polynomial(n, {tuple(alpha): 1})
        assert iterated_laplacian(mono, h).constant_term() == oracles.b_constant(ell)


# ---------------------------------------------------------------- J values


@pytest.mark.parametrize("n,ell", [(3, 2), (5, 4), (6, 2), (8, 6), (7, 0)])
def test_j_closed_form_matches_quadrature_oracle(n, ell):
    h = ell // 2
    alpha = [0] * n
    for i in range(h):
        alpha[i] = 2
    mono = Polynomial(n, {tuple(alpha): 1})
    oracle = quadrature.weighted_poly_integral(mono)
    assert j_value(n, ell) == pytest.approx(oracle, rel=1e-8)


@pytest.mark.parametrize("n", [172, 200])
@pytest.mark.parametrize("ell", [0, 2, 10, 100])
def test_j_past_the_gamma_range_matches_mpmath(n, ell):
    # Gamma(n) overflows from n = 172 on; J itself is a normal float there
    with mpmath.workdps(40):
        exact = (
            mpmath.pi ** (mpmath.mpf(n) / 2) * mpmath.mpf(2) ** -(ell // 2)
            * mpmath.gamma(mpmath.mpf(n - ell) / 2) / mpmath.gamma(n)
        )
    assert j_value(n, ell) == pytest.approx(float(exact), rel=1e-12)


def test_j_is_positive_and_guarded():
    assert j_value(6, 4) > 0
    with pytest.raises(DivergentMomentError):
        j_value(4, 4)
    with pytest.raises(ValueError):
        j_value(6, 3)


@pytest.mark.slow
def test_quadrature_oracle_against_monte_carlo():
    # one-off validation of the deterministic oracle: 3 sigma agreement on a
    # seeded 10^7-sample importance estimate
    n, ell = 5, 2
    mono = Polynomial(n, {(2, 0, 0, 0, 0): 1})
    oracle = quadrature.weighted_poly_integral(mono)
    estimate, stderr = oracles.monte_carlo_weighted_integral(
        mono, samples=10_000_000, seed=123
    )
    assert abs(estimate - oracle) <= 3 * stderr
    assert stderr < 0.01 * abs(oracle)


# ----------------------------------------------------------------- moments


def test_odd_monomials_integrate_to_zero():
    p = var(5, 0)
    result = moment_integral(p)
    assert result.j_multiple == 0 and result.numeric == 0.0


def test_antisymmetric_difference_integrates_to_zero():
    p = var(5, 0, 2) - var(5, 1, 2)
    result = moment_integral(p)
    assert result.j_multiple == 0


def test_reference_even_monomial_is_exactly_j():
    p = var(6, 0, 2) * var(6, 1, 2)
    result = moment_integral(p)
    assert result.j_multiple == 1
    assert result.numeric == pytest.approx(j_value(6, 4), rel=1e-15)
    assert j_multiple_by_bookkeeping(p) == 1


def test_divergent_degrees_are_rejected():
    with pytest.raises(DivergentMomentError):
        moment_integral(var(4, 0, 4))


def test_dual_route_agreement(rng):
    for _ in range(30):
        n = rng.randint(4, 9)
        ell = rng.choice([e for e in range(2, n) if e % 2 == 0])
        p = random_even_homogeneous(rng, n, ell)
        assert j_multiple(p) == j_multiple_by_bookkeeping(p)


@st.composite
def homogeneous_sources(draw):
    """A homogeneous P of degree 0..12 in n <= 10 variables, zero included;
    in even degrees some terms have every exponent even, so that P's moment
    is often nonzero."""
    n = draw(st.integers(1, 10))
    d = draw(st.integers(0, 12))
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        if d % 2 == 0 and draw(st.booleans()):
            picks = 2 * draw(st.lists(st.integers(0, n - 1), min_size=d // 2,
                                      max_size=d // 2))
        else:
            picks = draw(st.lists(st.integers(0, n - 1), min_size=d, max_size=d))
        alpha = tuple(picks.count(i) for i in range(n))
        terms[alpha] = draw(
            st.fractions(min_value=-5, max_value=5, max_denominator=6)
        )
    return Polynomial(n, terms)


@given(homogeneous_sources())
@settings(max_examples=200, deadline=None)
def test_j_multiple_is_the_bookkeeping_at_every_degree(p):
    got = j_multiple(p)
    assert type(got) is Fraction
    assert got == j_multiple_by_bookkeeping(p)


@given(homogeneous_sources(), st.integers(0, 12), st.data())
@settings(max_examples=50, deadline=None)
def test_j_multiple_refuses_a_non_homogeneous_polynomial(p, other, data):
    # the bookkeeping would sum the moments of different degrees
    assume(not p.is_zero and other != p.degree())
    n = p.dimension
    picks = data.draw(st.lists(st.integers(0, n - 1), min_size=other, max_size=other))
    mixed = p + Polynomial(n, {tuple(picks.count(i) for i in range(n)): 1})
    with pytest.raises(ValueError, match="homogeneous"):
        j_multiple(mixed)


def test_vanishing_equivalence_both_directions(rng):
    zero_count = nonzero_count = 0
    while zero_count < 15 or nonzero_count < 15:
        n = rng.randint(5, 9)
        ell = rng.choice([e for e in range(2, n - 1) if e % 2 == 0])
        p = random_even_homogeneous(rng, n, ell)
        if nonzero_count < 15:
            top = iterated_laplacian(p, ell // 2)
            assert (j_multiple(p) == 0) == top.is_zero
            nonzero_count += 1
        if zero_count < 15:
            q = oracles.project_to_admissible(p)
            if q.is_zero:
                continue
            assert iterated_laplacian(q, ell // 2).is_zero
            assert j_multiple(q) == 0
            zero_count += 1


def test_closed_form_matches_quadrature_for_random_inputs(rng):
    for _ in range(12):
        n = rng.randint(4, 8)
        ell = rng.choice([e for e in range(2, n) if e % 2 == 0])
        p = random_even_homogeneous(rng, n, ell)
        closed = moment_integral(p).numeric
        oracle = quadrature.weighted_poly_integral(p)
        assert closed == pytest.approx(oracle, rel=1e-6, abs=1e-12)


# ---------------------------------------------------------- shift expansion


def reconstruct(pieces):
    """The sum of the shift pieces, which is Q(shift + z)."""
    out = pieces[0]
    for piece in pieces[1:]:
        out = out + piece
    return out


def test_shift_expansion_binomial_example():
    q = var(1, 0, 2)
    s = [Fraction(5)]
    pieces = shift_expansion(q, s)
    assert pieces[0] == q
    assert pieces[1] == 10 * var(1, 0)
    assert pieces[-1].constant_term() == 25
    assert reconstruct(pieces) == compose_shift(q, s)


def test_shift_expansion_reconstruction(rng):
    for _ in range(20):
        n = rng.randint(2, 4)
        ell = rng.randint(2, 5)
        q = random_homogeneous(rng, n, ell)
        shift = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
        pieces = shift_expansion(q, shift)
        assert len(pieces[1:-1]) == ell - 1
        assert reconstruct(pieces) == compose_shift(q, shift)


def test_shift_expansion_term_degrees(rng):
    n, ell = 3, 4
    q = random_homogeneous(rng, n, ell)
    shift = [Fraction(1), Fraction(-2), Fraction(1, 2)]
    pieces = shift_expansion(q, shift)
    for h in range(1, ell):
        piece = pieces[h]
        assert piece.is_zero or piece.degree() == ell - h


@pytest.mark.parametrize(
    "q", [Polynomial.zero(2), var(2, 0, 2) + var(2, 1)], ids=["zero", "mixed-degree"]
)
def test_shift_expansion_refuses_zero_and_non_homogeneous_input(q):
    with pytest.raises(ValueError, match="nonzero homogeneous"):
        shift_expansion(q, [Fraction(1), Fraction(2)])


# --------------------------------------------------------- gradient moments


def test_gradient_moment_vanishes_at_zero_drift_for_even_inputs():
    p = Polynomial(5, {(2, 0, 0, 0, 0): 1, (0, 2, 0, 0, 0): 2})
    assert np.allclose(gradient_moment(p, [0] * 5), 0.0)


def test_alternating_model_has_nonzero_drift_component():
    n = 8
    p = -1 * alternating_quartic(n)
    drift = [Fraction(1, 2)] + [Fraction(0)] * (n - 1)
    vec = gradient_moment(p, drift)
    assert abs(vec[0]) > 1e-12
    assert np.allclose(vec[1:], 0.0)


def test_gradient_moment_matches_finite_differences(rng):
    n, ell = 5, 3
    p = random_homogeneous(rng, n, ell)

    def scalar_moment(x):
        shifted = compose_shift(p, [Fraction(v).limit_denominator(10**12) for v in x])
        _, total = weighted_integral(shifted)
        return total

    x0 = np.array([0.3, -0.2, 0.1, 0.0, 0.25])
    vec = gradient_moment(p, [Fraction(v).limit_denominator(10**12) for v in x0])
    step = 1e-4
    for i in range(n):
        e = np.zeros(n)
        e[i] = step
        fd = (scalar_moment(x0 + e) - scalar_moment(x0 - e)) / (2 * step)
        assert fd == pytest.approx(vec[i], abs=1e-5)


@pytest.fixture
def shift_calls(monkeypatch):
    """Every run of the one Taylor loop, ``polynomials.compose_shift``, under
    either module's binding of it."""
    calls = []
    shift = polynomials.compose_shift

    def counting(poly, vector):
        calls.append(poly)
        return shift(poly, vector)

    monkeypatch.setattr(polynomials, "compose_shift", counting)
    monkeypatch.setattr(moments, "compose_shift", counting)
    return calls


def test_gradient_moment_is_the_per_component_route_bit_for_bit(rng, shift_calls):
    # the partials of P's Laplacian chain at X give the same exact multiples,
    # and so the same floats, as one Taylor shift per partial
    for _ in range(20):
        n = rng.randint(3, 8)
        ell = rng.randint(2, n - 1)
        p = random_homogeneous(rng, n, ell) + random_homogeneous(rng, n, ell - 1)
        x = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
        reference = [
            weighted_integral(compose_shift(dp, x))[1] for dp in gradient(p)
        ]
        shift_calls.clear()
        vec = gradient_moment(p, x)
        assert len(shift_calls) == 0
        assert [float(v).hex() for v in vec] == [v.hex() for v in reference]


def test_one_shift_per_moment_route(rng, shift_calls):
    # every shifted moment is read from the Laplacian chain; the Taylor loop
    # runs once, for change_of_center's quadrature cross-check
    n, ell = 6, 4
    q = random_homogeneous(rng, n, ell)
    shift = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
    routes = {
        "gradient_moment": (lambda: gradient_moment(q, shift), 0),
        "single_point_constraints": (lambda: single_point_constraints(q, shift), 0),
        "flexibility_falsifier": (lambda: flexibility_falsifier(q, budget=40), 0),
        "change_of_center": (
            lambda: change_of_center(q, [0.01] * n, lam=0.05, rho=1.0, nodes=32),
            1,
        ),
    }
    for name, (run, expected) in routes.items():
        shift_calls.clear()
        run()
        assert len(shift_calls) == expected, name


@pytest.mark.parametrize("p", [Polynomial.constant(3, 2), Polynomial.zero(3)])
def test_gradient_moment_refuses_an_inexact_or_wrong_length_point(p):
    # P's gradient is zero here, yet the point is still read exactly
    with pytest.raises(ExactnessError):
        gradient_moment(p, [0.5, 0, 0])
    with pytest.raises(ExactnessError):
        gradient_moment(p, [Fraction(1), True, 0])
    with pytest.raises(DimensionMismatchError):
        gradient_moment(p, [0, 0])


def test_gradient_moment_refuses_a_divergent_degree():
    p = Polynomial.variable(3, 0, 3)
    with pytest.raises(DivergentMomentError):
        gradient_moment(p, [0, 0, 0])
    with pytest.raises(DivergentMomentError):
        flexibility_falsifier(p, budget=10)


def _pizzetti_factor(n, k):
    """J(n, 2k) / J(n, 0) = 1 / prod_{i<k} (n - 2 - 2i), exactly."""
    out = Fraction(1)
    for i in range(k):
        out /= n - 2 - 2 * i
    return out


@st.composite
def moment_sources(draw):
    """A mixed-degree P of degree <= n - 1 in n <= 8 variables and an exact
    point X."""
    n = draw(st.integers(1, 8))
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        picks = draw(st.lists(st.integers(0, n - 1), max_size=n - 1))
        alpha = tuple(picks.count(i) for i in range(n))
        terms[alpha] = draw(
            st.fractions(min_value=-5, max_value=5, max_denominator=4)
        )
    point = draw(st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=5),
        min_size=n, max_size=n,
    ))
    return Polynomial(n, terms), point


@given(moment_sources())
@settings(max_examples=60, deadline=None)
def test_chain_levels_are_the_taylor_routes_shifted_moments(source):
    # level k at X is the multiple of J(n, 2k) of the y-degree-2k part of
    # P(X + y), expanded here by binomials and integrated by bookkeeping; so
    # the collapsed moment map M at X is the shifted moment over J(n, 0),
    # exactly
    p, x = source
    n = p.dimension
    levels = moments._pizzetti_levels(p)
    parts = oracles.compose_shift_by_binomials(p, x).homogeneous_parts()
    zero = Polynomial.zero(n)
    for k, level in enumerate(levels):
        assert level.evaluate(x) == j_multiple_by_bookkeeping(parts.get(2 * k, zero))
    # M = sum_k lap^k P / (2^k k! prod_{i<k} (n - 2 - 2i)), its own chain
    m, term = zero, p
    for k in range(len(levels)):
        if k:
            term = laplacian(term) * Fraction(1, 2 * k)
        m = m + term * _pizzetti_factor(n, k)
    shifted = sum(
        (j_multiple_by_bookkeeping(part) * _pizzetti_factor(n, d // 2)
         for d, part in parts.items() if d % 2 == 0),
        Fraction(0),
    )
    assert m.evaluate(x) == shifted


# --------------------------------------------------------- change of center


def test_change_of_center_centered_drift_vanishes(rng):
    n, ell, lam, rho = 6, 4, 0.05, 1.0
    q = random_even_homogeneous(rng, n, ell)
    breakdown = change_of_center(q, [0.0] * n, lam=lam, rho=rho)
    assert all(t == 0.0 for t in breakdown.intermediate)
    assert breakdown.drift == 0.0
    # the only gap is the integrable tail beyond the ball, of relative size
    # (lam / rho)^(n - ell)
    tail = 10.0 * (lam / rho) ** (n - ell)
    assert breakdown.main == pytest.approx(breakdown.quadrature, rel=tail)


def test_change_of_center_odd_degree_main_group_vanishes(rng):
    n, ell = 6, 3
    q = random_homogeneous(rng, n, ell)
    breakdown = change_of_center(q, [0.0] * n, lam=0.05, rho=1.0)
    assert breakdown.main == 0.0


def test_change_of_center_refuses_a_constant():
    # for degree 0 the centered piece and the drift piece are the same one
    with pytest.raises(ValueError, match="degree >= 1"):
        change_of_center(Polynomial.constant(6, 1), [0.01] * 6, lam=0.05, rho=1.0)


@pytest.mark.parametrize(
    "xi, lam, rho",
    [
        ([0.01] * 6, math.inf, 1.0),
        ([0.01] * 6, math.nan, 1.0),
        ([0.01] * 6, 0.05, math.inf),
        ([0.01] * 6, 0.05, math.nan),
        ([0.01] * 5 + [math.inf], 0.05, 1.0),
        ([0.01] * 5 + [-math.inf], 0.05, 1.0),
        ([math.nan] + [0.01] * 5, 0.05, 1.0),
    ],
    ids=["lam-inf", "lam-nan", "rho-inf", "rho-nan", "xi-inf", "xi-minus-inf",
         "xi-nan"],
)
def test_change_of_center_refuses_non_finite_input_before_any_work(
    monkeypatch, xi, lam, rho
):
    def no_work(poly):
        raise AssertionError("the chain was built")

    monkeypatch.setattr(moments, "_pizzetti_levels", no_work)
    q = Polynomial.variable(6, 0, 3)
    with pytest.raises(ValueError, match="must be finite"):
        change_of_center(q, xi, lam=lam, rho=rho, nodes=16)
    # the largest finite float at the same place passes the check, and so
    # reaches the chain; as lam its cube is beyond the float range, which the
    # next check refuses, still before the chain
    big = sys.float_info.max
    finite = [v if math.isfinite(v) else big for v in (lam, rho, *xi)]
    error, match = (AssertionError, "the chain was built") if math.isfinite(lam) else (
        ValueError, r"^lam\*\*ell is beyond the float range")
    with pytest.raises(error, match=match):
        change_of_center(q, finite[2:], lam=finite[0], rho=finite[1], nodes=16)


def test_change_of_center_takes_an_int_center_beyond_the_float_range():
    # the finiteness check converts no int: the moment itself is refused
    q = Polynomial.variable(6, 0, 3)
    with pytest.raises(ValueError, match="beyond the float range"):
        change_of_center(q, [10**400] + [0] * 5, lam=0.05, rho=1.0, nodes=16)


@pytest.mark.parametrize("value", [10**400, Fraction(10**400, 3)], ids=["int", "fraction"])
@pytest.mark.parametrize("name", ["lam", "rho"])
def test_change_of_center_refuses_a_scale_beyond_the_float_range(
    monkeypatch, name, value
):
    # both ended in an OverflowError, from rho / lam and from lam**ell times
    # a float
    def no_work(poly):
        raise AssertionError("the chain was built")

    monkeypatch.setattr(moments, "_pizzetti_levels", no_work)
    scales = {"lam": 0.05, "rho": 1.0, name: value}
    with pytest.raises(ValueError, match=f"^{name} is beyond the float range$"):
        change_of_center(Polynomial.variable(6, 0, 3), [0] * 6, nodes=16, **scales)


@pytest.mark.parametrize("lam", [1e300, 10**300], ids=["float", "int"])
def test_change_of_center_refuses_a_scale_whose_power_leaves_the_float_range(
    monkeypatch, lam
):
    # lam fits a float but lam**3 does not: the float power and the int
    # product with a float both ended in an OverflowError
    def no_work(poly):
        raise AssertionError("the chain was built")

    monkeypatch.setattr(moments, "_pizzetti_levels", no_work)
    message = "lam**ell is beyond the float range (ell = 3)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        change_of_center(Polynomial.variable(6, 0, 3), [0] * 6, lam, 1.0, nodes=16)


def test_change_of_center_groups_pin_the_taylor_pieces(rng):
    # the groups read from the chain are the moments of the Taylor pieces,
    # float for float; the quadrature cross-check is the shifted polynomial
    for _ in range(10):
        n = rng.randint(4, 8)
        ell = rng.randint(1, n - 2)
        q = random_homogeneous(rng, n, ell)
        lam = rng.choice([0.05, 0.1, 0.5])
        xi = [rng.uniform(-0.5, 0.5) * lam for _ in range(n)]
        breakdown = change_of_center(q, xi, lam, rho=1.0, nodes=16)
        pieces = shift_expansion(q, [Fraction(x) / Fraction(lam) for x in xi])
        groups = [lam**ell * weighted_integral(piece)[1] for piece in pieces]
        assert [g.hex() for g in groups] == [
            g.hex()
            for g in (breakdown.main, *breakdown.intermediate, breakdown.drift)
        ]


def test_change_of_center_slope(rng):
    n, ell = 6, 3
    q = Polynomial(n, {(2, 1, 0, 0, 0, 0): 1, (0, 0, 3, 0, 0, 0): Fraction(1, 2)})
    fixed = [0.3, -0.2, 0.1, 0.0, 0.05, 0.0]
    diffs = []
    lams = [0.1, 0.05, 0.025]
    for lam in lams:
        xi = [lam * x for x in fixed]
        breakdown = change_of_center(q, xi, lam, rho=1.0)
        diffs.append(abs(breakdown.total - breakdown.quadrature))
    slopes = [
        math.log(diffs[i] / diffs[i + 1]) / math.log(2) for i in range(len(diffs) - 1)
    ]
    assert min(slopes) >= ell + 1 - 0.2


# ------------------------------------------------------------ trade identity


def _even_alphas(width, budget):
    """Even multi-indices on ``width`` middle slots with |alpha| <= budget."""
    if width == 0:
        yield ()
        return
    for first in range(0, budget + 1, 2):
        for rest in _even_alphas(width - 1, budget - first):
            yield (first,) + rest


def test_trade_identities_exhaustive_small_range():
    n = 10
    checked_moment = checked_laplacian = 0
    for k in (2, 4, 6):
        for alpha_mid in _even_alphas(3, 4):
            alpha = (0,) + alpha_mid + (0,) * (n - 4 - 1) + (0,)
            assert len(alpha) == n
            total = k + 2 + sum(alpha)
            assert oracles.laplacian_identity_check(n, k, alpha)
            checked_laplacian += 1
            if total <= n - 1:
                assert oracles.reduction_identity_check(n, k, alpha)
                checked_moment += 1
    assert checked_laplacian >= 30
    assert checked_moment >= 5


def test_trade_identity_reference_cases():
    assert oracles.reduction_identity_check(6, 2, (0,) * 6)
    assert oracles.laplacian_identity_check(4, 2, (0,) * 4)
    lhs = Polynomial(6, {(4, 0, 0, 0, 0, 0): 1})
    rhs = Polynomial(6, {(2, 0, 0, 0, 0, 2): 1})
    assert j_multiple(lhs) == 3
    assert 3 * j_multiple(rhs) == 3


def test_trade_identity_rejects_odd_inputs():
    with pytest.raises(ValueError):
        oracles.reduction_identity_check(6, 3, (0,) * 6)
    with pytest.raises(ValueError):
        oracles.reduction_identity_check(6, 2, (0, 1, 0, 0, 0, 0))


def test_monomial_moment_factorization(rng):
    # product form of the top Laplacian over even monomials
    for _ in range(20):
        n = rng.randint(4, 8)
        ell = rng.choice([2, 4, 6])
        p = random_even_homogeneous(rng, n, ell, max_terms=1)
        ((alpha, coeff),) = p.terms.items()
        top = iterated_laplacian(p, ell // 2).constant_term()
        product = coeff * oracles.b_constant(ell)
        for a in alpha:
            product *= double_factorial_minus2(a)
        assert top == product
