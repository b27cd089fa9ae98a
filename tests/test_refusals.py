"""The refusals of the library's argument checks, in-process: each call
below raises its exception type with its exact message."""

import math
import re

import numpy as np
import pytest

from bubble_correction import balance, moments, polynomials, profiles, quadrature
from bubble_correction import reduction
from bubble_correction.errors import (
    DivergentMomentError, ExactnessError, UnsupportedCaseError)
from bubble_correction.polynomials import Polynomial


def var(n, i, p=1):
    return Polynomial.variable(n, i, p)


def _quadric():
    return var(3, 0, 2) + var(3, 1, 2) + var(3, 2, 2)


def _solution_marked_verified_by_an_int():
    data = reduction.solve_gamma(var(3, 0, 2) - var(3, 1, 2)).to_json()
    data["verified"] = 1
    return reduction.CorrectionSolution.from_json(data)


def _no_profile(points):
    raise AssertionError("the profile was sampled")


REFUSALS = {
    "a_multiplier_negative_index": (
        lambda: reduction.a_multiplier(8, 4, -1, 0),
        ValueError, "j must be an int >= 0, got -1"),
    "radial_completion_weight_count": (
        lambda: reduction.radial_completion(8, 4, [1, 1]),
        ValueError, "expected 3 residue weights, got 2"),
    "solution_verified_not_a_boolean": (
        _solution_marked_verified_by_an_int,
        ValueError, "malformed solution JSON: verified is not a boolean: 1"),
    "change_of_center_degree_above_n_minus_2": (
        lambda: moments.change_of_center(var(4, 0, 3), [0.0] * 4, 0.5, 1.0),
        DivergentMomentError, "change of center requires degree <= n - 2"),
    "change_of_center_scale_not_positive": (
        lambda: moments.change_of_center(var(6, 0, 2), [0.0] * 6, 0.0, 1.0),
        ValueError, "lam must be finite and positive, got 0.0"),
    "gradient_bound_degree_below_2": (
        lambda: balance.gradient_lower_bound(var(3, 0) + var(3, 1)),
        ValueError, "needs a homogeneous polynomial of degree >= 2"),
    "interference_check_dimension_6": (
        lambda: balance.interference_check(6, [1, 2]),
        UnsupportedCaseError, "interference condition needs dimension > 6"),
    "surface_integral_alpha_length": (
        lambda: quadrature.surface_monomial_integral(3, (2, 2)),
        ValueError, "alpha length 2 != n = 3"),
    "radial_integral_diverges": (
        lambda: quadrature.radial_weight_integral(4, 4),
        ValueError, "radial integral diverges for degree >= n"),
    "iterated_laplacian_negative_count": (
        lambda: polynomials.iterated_laplacian(var(3, 0, 2), -1),
        ValueError, "iteration count must be an int >= 0, got -1"),
    "bubble_short_center": (
        lambda: profiles.BubbleProfile(3, 1.0, [0.0, 0.0]),
        ValueError, "center length must equal the dimension"),
    "curvature_not_homogeneous": (
        lambda: profiles.SynthesizedCurvature(var(3, 0, 3) + var(3, 1, 2)),
        ValueError, "curvature model expects homogeneous degree >= 2"),
    "tail_source_at_the_origin": (
        lambda: profiles.HarmonicTail([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
                                      [1.0, 1.0], 1.0),
        ValueError, "tail sources must be away from the origin"),
    "tail_weight_not_positive": (
        lambda: profiles.HarmonicTail([[1.0, 0.0, 0.0]], [0.0], 1.0),
        ValueError, "tail weights must be positive"),
    "green_dimension_below_3": (
        lambda: profiles.GreensBall(2, 1.0),
        ValueError, "inverse-power form needs dimension >= 3"),
    "green_reflect_at_the_center": (
        lambda: profiles.GreensBall(3, 1.0).reflect([0.0, 0.0, 0.0]),
        ValueError, "reflection undefined at the center"),
    "green_on_the_diagonal": (
        lambda: profiles.GreensBall(3, 1.0).green([0.1, 0.2, 0.3], [0.1, 0.2, 0.3]),
        ValueError, "Green's function is singular on the diagonal"),
    "average_radius_not_positive": (
        lambda: profiles.rescaled_average(
            lambda pts: np.ones(len(pts)), [0.0] * 3, [0.5, 0.0]),
        ValueError, "radii must be positive"),
    # a repeated radius divided 0 by 0 in the slope step, and a NaN radius
    # was reported as a profile that is not positive and finite
    "average_radius_repeated": (
        lambda: profiles.rescaled_average(_no_profile, [0.0] * 3, [0.5, 1.0, 0.5]),
        ValueError, "radii must be finite and distinct"),
    "average_radius_nan": (
        lambda: profiles.rescaled_average(_no_profile, [0.0] * 3, [0.5, math.nan]),
        ValueError, "radii must be finite and distinct"),
    "average_radius_infinite": (
        lambda: profiles.rescaled_average(_no_profile, [0.0] * 3, [math.inf, 1.0]),
        ValueError, "radii must be finite and distinct"),
    "average_profile_not_positive": (
        lambda: profiles.rescaled_average(
            lambda pts: np.zeros(len(pts)), [0.0] * 3, [0.5, 1.0]),
        ValueError, "profile must be positive and finite on the annuli"),
    # the int rule: a bool was taken as 0 or 1, and a float ended in a bare
    # TypeError from the work it reached
    "gradient_bound_samples_a_boolean": (
        lambda: balance.gradient_lower_bound(_quadric(), samples=True),
        ValueError, "samples must be an int >= 1, got True"),
    "gradient_bound_samples_a_float": (
        lambda: balance.gradient_lower_bound(_quadric(), samples=2.5),
        ValueError, "samples must be an int >= 1, got 2.5"),
    "check_bounds_samples_a_boolean": (
        lambda: profiles.GreensBall(3, 1.0).check_bounds(0.1, samples=True),
        ValueError, "samples must be an int >= 1, got True"),
    "check_bounds_samples_a_float": (
        lambda: profiles.GreensBall(3, 1.0).check_bounds(0.1, samples=2.5),
        ValueError, "samples must be an int >= 1, got 2.5"),
    "iterated_laplacian_count_a_boolean": (
        lambda: polynomials.iterated_laplacian(var(3, 0, 2), True),
        ValueError, "iteration count must be an int >= 0, got True"),
    "iterated_laplacian_count_a_float": (
        lambda: polynomials.iterated_laplacian(var(3, 0, 2), 2.5),
        ValueError, "iteration count must be an int >= 0, got 2.5"),
    "green_report_seed_a_boolean": (
        lambda: profiles.green_report(3, 1.0, seed=True),
        ValueError, "--seed must be an int >= 0, got True"),
    "green_report_dimension_a_float": (
        lambda: profiles.green_report(3.5, 1.0, 0),
        ValueError, "--n must be an int in 3..11, got 3.5"),
    "interference_check_dimension_a_float": (
        lambda: balance.interference_check(7.5, [1, 2]),
        ValueError, "n must be an int, got 7.5"),
    "change_of_center_nodes_a_float": (
        lambda: moments.change_of_center(var(6, 0, 2), [0.0] * 6, 0.5, 1.0, nodes=2.5),
        ValueError, "nodes must be an int >= 1, got 2.5"),
    # j_value: a float n was computed, a bool ell read as 1, and a float n
    # equal to a cached int read that int's entry
    "j_value_dimension_a_float": (
        lambda: moments.j_value(7.5, 2),
        ValueError, "n must be an int, got 7.5"),
    "j_value_degree_a_boolean": (
        lambda: moments.j_value(6, True),
        ValueError, "ell must be an int, got True"),
    "j_value_float_dimension_after_its_int": (
        lambda: moments.j_value(6, 2) and moments.j_value(6.0, 2),
        ValueError, "n must be an int, got 6.0"),
    # the counts of reduction and quadrature: a float ended in a bare
    # TypeError, and a bool was taken as 1 (gauss_legendre(True) read the
    # cached entry of 1)
    "kernel_basis_dimension_a_float": (
        lambda: reduction.kernel_basis(2.5),
        ValueError, "n must be an int >= 1, got 2.5"),
    "gauss_legendre_count_a_boolean_after_1": (
        lambda: quadrature.gauss_legendre(1) and quadrature.gauss_legendre(True),
        ValueError, "count must be an int >= 1, got True"),
    "gauss_legendre_count_a_float": (
        lambda: quadrature.gauss_legendre(2.5),
        ValueError, "count must be an int >= 1, got 2.5"),
    "sphere_nodes_count_a_boolean": (
        lambda: quadrature.sphere_nodes(3, True),
        ValueError, "count must be an int >= 1, got True"),
    "sphere_nodes_count_a_float": (
        lambda: quadrature.sphere_nodes(3, 2.5),
        ValueError, "count must be an int >= 1, got 2.5"),
    "radial_integral_nodes_a_float": (
        lambda: quadrature.radial_weight_integral(6, 2, nodes=2.5),
        ValueError, "nodes must be an int >= 1, got 2.5"),
    # the scale rule: a bool was taken as 1.0
    "gradient_bound_rho_a_boolean": (
        lambda: balance.gradient_lower_bound(_quadric(), rho=True),
        ValueError, "rho must be finite and positive, got True"),
    "change_of_center_scale_a_boolean": (
        lambda: moments.change_of_center(var(6, 0, 2), [0.0] * 6, True, 1.0),
        ValueError, "lam must be finite and positive, got True"),
    "bubble_scale_a_boolean": (
        lambda: profiles.BubbleProfile(3, True, [0.0] * 3),
        ValueError, "bubble scale must be finite and positive, got True"),
    "tail_scale_a_boolean": (
        lambda: profiles.HarmonicTail([[1.0, 0.0, 0.0]], [1.0], True),
        ValueError, "tail scale must be finite and positive, got True"),
    "green_radius_a_boolean": (
        lambda: profiles.GreensBall(3, True),
        ValueError, "radius must be finite and positive, got True"),
    # the string-rational grammar: "1/0" ended in a ZeroDivisionError, and
    # Fraction's own grammar read decimals, exponents, non-ASCII digits,
    # surrounding whitespace and underscores
    "coefficient_zero_denominator": (
        lambda: polynomials.as_coefficient("1/0"),
        ValueError, "zero denominator in '1/0'"),
    "coefficient_exponent": (
        lambda: polynomials.as_coefficient("1e400"),
        ExactnessError, "not an exact rational coefficient: '1e400'"),
    "coefficient_decimal": (
        lambda: polynomials.as_coefficient("0.5"),
        ExactnessError, "not an exact rational coefficient: '0.5'"),
    "coefficient_non_ascii_digit": (
        lambda: polynomials.as_coefficient("٣"),
        ExactnessError, "not an exact rational coefficient: '٣'"),
    "coefficient_whitespace": (
        lambda: polynomials.as_coefficient(" 1"),
        ExactnessError, "not an exact rational coefficient: ' 1'"),
    "coefficient_underscore": (
        lambda: polynomials.as_coefficient("1_0"),
        ExactnessError, "not an exact rational coefficient: '1_0'"),
    # the solution reader's top level, read by the one field reader
    "solution_a_list": (
        lambda: reduction.CorrectionSolution.from_json([1]),
        ValueError, "malformed solution JSON: not a JSON object: [1]"),
    "solution_a_string": (
        lambda: reduction.CorrectionSolution.from_json("abc"),
        ValueError, "malformed solution JSON: not a JSON object: 'abc'"),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_refusal_raises_its_type_and_exact_message(name):
    call, error, message = REFUSALS[name]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("n", [3, 4, 7])
def test_green_with_its_source_at_the_center_is_the_closed_form(n):
    # G(y, 0) = -(|y|^(2-n) - a^(2-n)) / ((n - 2)|S^(n-1)|), with
    # |S^(n-1)| = 2 pi^(n/2) / Gamma(n/2)
    a = 1.5
    ball = profiles.GreensBall(n, a)
    area = 2 * math.pi ** (n / 2) / math.gamma(n / 2)
    for y in ([0.3] + [0.0] * (n - 1), [0.2] * n, [-0.5, 0.9] + [0.1] * (n - 2)):
        r = float(np.linalg.norm(y))
        expected = -(r ** (2 - n) - a ** (2 - n)) / ((n - 2) * area)
        assert ball.green(y, [0.0] * n) == pytest.approx(expected, rel=1e-13)
    # and the source at the center is where the boundary value is 0
    boundary = ball.green([a] + [0.0] * (n - 1), [0.0] * n)
    assert boundary == pytest.approx(0.0, abs=1e-15)

