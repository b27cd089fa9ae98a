"""The refusals of the library's argument checks, in-process: each call
below raises its exception type with its exact message."""

import math
import re

import numpy as np
import pytest

from bubble_correction import balance, moments, polynomials, profiles, quadrature
from bubble_correction import reduction
from bubble_correction.errors import DivergentMomentError, UnsupportedCaseError
from bubble_correction.polynomials import Polynomial


def var(n, i, p=1):
    return Polynomial.variable(n, i, p)


def _solution_marked_verified_by_an_int():
    data = reduction.solve_gamma(var(3, 0, 2) - var(3, 1, 2)).to_json()
    data["verified"] = 1
    return reduction.CorrectionSolution.from_json(data)


def _no_profile(points):
    raise AssertionError("the profile was sampled")


REFUSALS = {
    "a_multiplier_negative_index": (
        lambda: reduction.a_multiplier(8, 4, -1, 0),
        ValueError, "indices must be non-negative"),
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
        ValueError, "scale and radius must be positive"),
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
        ValueError, "iteration count must be non-negative"),
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

