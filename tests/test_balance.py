import dataclasses
import json
import random
from fractions import Fraction

import pytest

from bubble_correction.balance import (
    BlowupConfiguration,
    eta_admissible,
    flexibility_falsifier,
    gradient_lower_bound,
    interference_check,
    multi_point_balance,
    parity_certificate,
    pohozaev_volume_vs_surface,
    single_point_constraints,
)
from bubble_correction.errors import ExactnessError, UnsupportedCaseError
from bubble_correction.polynomials import (
    Polynomial,
    apply_signed_permutation,
    iterated_laplacian,
)
from bubble_correction.profiles import (
    BubbleParams,
    bubble,
)
from bubble_correction.profiles import constant_curvature
from bubble_correction.reduction import h_of, project_to_admissible

from conftest import alternating_quartic, random_homogeneous
from oracles import PerturbedProfile


def var(n, i, p=1):
    return Polynomial.variable(n, i, p)


def separable_even(n, ell):
    terms = {}
    for j in range(n):
        alpha = [0] * n
        alpha[j] = ell
        terms[tuple(alpha)] = Fraction(1 if j % 2 == 0 else -1)
    return Polynomial(n, terms)


# -------------------------------------------------------------- local checks


def test_gradient_bound_positive_for_the_separable_model():
    low, high = gradient_lower_bound(separable_even(4, 2), samples=10_000)
    assert low > 0
    assert high >= low


def test_gradient_bound_vanishes_for_single_axis_powers():
    low, _ = gradient_lower_bound(var(4, 0, 4), samples=10_000)
    assert low < 1e-3


def test_gradient_bound_scales_by_homogeneity():
    p = separable_even(4, 2)
    low1, high1 = gradient_lower_bound(p, rho=1.0, samples=4000)
    low2, high2 = gradient_lower_bound(p, rho=2.0, samples=4000)
    assert low2 == pytest.approx(2 * low1, rel=1e-12)
    assert high2 == pytest.approx(2 * high1, rel=1e-12)


def test_parity_certificate_classifies():
    assert parity_certificate(separable_even(4, 2))
    assert parity_certificate(separable_even(8, 4))
    assert not parity_certificate(var(4, 0, 4))  # not all variables present
    assert not parity_certificate(
        Polynomial(3, {(2, 0, 0): 1, (1, 1, 0): 1, (0, 0, 2): 1})
    )  # cross term


def test_falsifier_zero_polynomial_returns_any_direction():
    result = flexibility_falsifier(Polynomial.zero(4), budget=10)
    assert result.counterexample is not None
    assert result.min_residual == 0.0


def test_falsifier_finds_degenerate_axis():
    # singular quadratic: the moment map vanishes along the untouched axes
    p = var(4, 0, 2) - var(4, 1, 2)
    result = flexibility_falsifier(p, budget=800, seed=1)
    assert result.counterexample is not None
    assert result.min_residual < 1e-8
    x = result.counterexample
    assert abs(x[0]) < 1e-6 and abs(x[1]) < 1e-6


def test_falsifier_respects_the_certificate_class():
    p = separable_even(4, 2)
    result = flexibility_falsifier(p, budget=400, seed=2)
    assert result.counterexample is None
    assert result.certificate_proven
    assert result.nonvanishing_proven


def test_eta_admissibility_reference_values():
    assert eta_admissible(8, 6, Fraction(1, 20))  # bound 1/11
    assert not eta_admissible(8, 6, Fraction(1, 11))  # strict
    assert not eta_admissible(8, 5, Fraction(1, 50))  # bound 1/55
    assert eta_admissible(8, 5, Fraction(1, 56))
    assert eta_admissible(8, 6, 0)
    with pytest.raises(UnsupportedCaseError):
        eta_admissible(8, 4, Fraction(1, 100))
    with pytest.raises(UnsupportedCaseError):
        eta_admissible(6, 3, Fraction(1, 100))


@pytest.mark.parametrize("eta", [0.05, True])
def test_eta_admissibility_refuses_inexact_exponents(eta):
    # True would be read as 1, 0.05 as its binary expansion
    with pytest.raises(ExactnessError):
        eta_admissible(8, 6, eta)


def test_single_point_constraints_pass_at_origin():
    n = 6
    p = -1 * alternating_quartic(n)
    reports = single_point_constraints(p, (0,) * n)
    assert all(r.passed for r in reports)


def test_single_point_constraints_fail_off_origin():
    n = 6
    p = -1 * alternating_quartic(n)
    reports = single_point_constraints(p, (1,) + (0,) * (n - 1))
    value = next(r for r in reports if r.constraint == "taylor_value_at_drift")
    assert not value.passed
    assert abs(value.residual_exact) == 1


def test_single_point_constraints_on_symmetry_plane(rng):
    # swap-antisymmetric polynomial: value vanishes on the symmetry plane
    n = 6
    base = random_homogeneous(rng, n, n - 2)
    swapped = apply_signed_permutation(
        base, [1, 0] + list(range(2, n)), [1] * n
    )
    p = project_to_admissible(base - swapped)
    if p.is_zero:
        pytest.skip("projection collapsed the sample")
    x = (Fraction(1, 2), Fraction(1, 2)) + (Fraction(0),) * (n - 2)
    reports = single_point_constraints(p, x)
    value = next(r for r in reports if r.constraint == "taylor_value_at_drift")
    assert value.passed
    for r in reports:
        if r.constraint.startswith("shift_moment"):
            assert r.residual_exact is not None


def test_hypothesis_violations_are_flagged_but_checks_run():
    n = 6
    p = var(n, 0, 2) - var(n, 1, 2)  # degree 2, not n-2 or n-3
    reports = single_point_constraints(p, (0,) * n)
    flags = [r for r in reports if r.constraint.startswith("hypothesis")]
    assert flags and not flags[0].passed
    assert any(r.constraint == "taylor_value_at_drift" for r in reports)


# ------------------------------------------------------------ global checks


def test_interference_check():
    assert interference_check(8, [Fraction(1, 7), Fraction(1, 11)]).passed
    report = interference_check(8, [Fraction(1, 7), Fraction(1, 7)])
    assert not report.passed
    assert report.details["violations"]
    assert interference_check(8, [Fraction(1, 7)]).passed


def test_interference_check_refuses_inexact_exponents():
    # 4 * 3/10 == 3 * 2/5 exactly; as floats 0.3 and 0.4 miss the collision
    assert not interference_check(7, [Fraction(3, 10), Fraction(2, 5)]).passed
    assert not interference_check(7, ["3/10", "2/5"]).passed
    for etas in ([0.3, 0.4], [Fraction(1, 7), True]):
        with pytest.raises(ExactnessError):
            interference_check(7, etas)


def mirrored_pair_config(n=8, perturb=None):
    ell = n - 2
    base = project_to_admissible(
        Polynomial(
            n,
            {
                tuple(ell if i == 0 else 0 for i in range(n)): Fraction(1),
                (2, 2, 2) + (0,) * (n - 3): Fraction(1, 2),
            },
        )
    )
    assert iterated_laplacian(base, h_of(ell)).is_zero
    mirrored = Fraction(-1) * apply_signed_permutation(
        base, list(range(n)), [-1] * n
    )
    location = (Fraction(3),) + (Fraction(0),) * (n - 1)
    drift = (Fraction(1, 2), Fraction(-1, 3)) + (Fraction(0),) * (n - 2)
    if perturb is not None:
        drift1 = (drift[0] + perturb,) + drift[1:]
    else:
        drift1 = drift
    return BlowupConfiguration(
        n=n,
        points=((Fraction(0),) * n, location, tuple(-x for x in location)),
        k_values=(Fraction(n * (n - 2)), Fraction(2), Fraction(2)),
        taylor_polys=(Polynomial.zero(n), base, mirrored),
        flex_vectors=((Fraction(0),) * n, drift1, tuple(-x for x in drift)),
        flex_exponents=(Fraction(1, 13),) * 3,
        scale_ratios=(Fraction(1),) * 3,
    )


def test_mirrored_pair_balances_exactly():
    report = multi_point_balance(mirrored_pair_config())
    assert report.passed
    assert report.residual_exact == 0


def test_perturbed_mirror_fails():
    report = multi_point_balance(mirrored_pair_config(perturb=Fraction(1, 1000)))
    assert not report.passed


def test_individually_vanishing_pairings_pass():
    n = 8
    p = project_to_admissible(random_homogeneous(random.Random(5), n, n - 2))
    config = BlowupConfiguration(
        n=n,
        points=((Fraction(0),) * n, (Fraction(3),) + (Fraction(0),) * (n - 1)),
        k_values=(Fraction(n * (n - 2)), Fraction(1)),
        taylor_polys=(Polynomial.zero(n), Polynomial.zero(n)),
        flex_vectors=((Fraction(0),) * n,) * 2,
        flex_exponents=(Fraction(1, 9), Fraction(1, 10)),
        scale_ratios=(Fraction(1), Fraction(2)),
    )
    report = multi_point_balance(config)
    assert report.passed


def test_balance_verdict_invariant_under_signed_permutations():
    config = mirrored_pair_config()
    n = config.n
    perm = [1, 0] + list(range(2, n))
    signs = [-1, 1] + [1] * (n - 2)

    def transform_point(p):
        out = [Fraction(0)] * n
        for i in range(n):
            out[perm[i]] = signs[i] * Fraction(p[i])
        return tuple(out)

    transformed = BlowupConfiguration(
        n=n,
        points=tuple(transform_point(p) for p in config.points),
        k_values=config.k_values,
        taylor_polys=tuple(
            apply_signed_permutation(p, perm, signs) for p in config.taylor_polys
        ),
        flex_vectors=tuple(transform_point(v) for v in config.flex_vectors),
        flex_exponents=config.flex_exponents,
        scale_ratios=config.scale_ratios,
    )
    assert multi_point_balance(transformed).passed == multi_point_balance(
        config
    ).passed
    bad = mirrored_pair_config(perturb=Fraction(1, 1000))
    bad_transformed = BlowupConfiguration(
        n=n,
        points=tuple(transform_point(p) for p in bad.points),
        k_values=bad.k_values,
        taylor_polys=tuple(
            apply_signed_permutation(p, perm, signs) for p in bad.taylor_polys
        ),
        flex_vectors=tuple(transform_point(v) for v in bad.flex_vectors),
        flex_exponents=bad.flex_exponents,
        scale_ratios=bad.scale_ratios,
    )
    assert multi_point_balance(bad_transformed).passed == multi_point_balance(
        bad
    ).passed


def test_balance_verdict_invariant_under_curvature_rescaling():
    config = mirrored_pair_config()
    scaled = BlowupConfiguration(
        n=config.n,
        points=config.points,
        k_values=tuple(3 * Fraction(k) for k in config.k_values),
        taylor_polys=config.taylor_polys,
        flex_vectors=config.flex_vectors,
        flex_exponents=config.flex_exponents,
        scale_ratios=config.scale_ratios,
    )
    assert multi_point_balance(scaled).passed
    bad = mirrored_pair_config(perturb=Fraction(1, 1000))
    bad_scaled = BlowupConfiguration(
        n=bad.n,
        points=bad.points,
        k_values=tuple(3 * Fraction(k) for k in bad.k_values),
        taylor_polys=bad.taylor_polys,
        flex_vectors=bad.flex_vectors,
        flex_exponents=bad.flex_exponents,
        scale_ratios=bad.scale_ratios,
    )
    assert not multi_point_balance(bad_scaled).passed


def test_configuration_json_round_trip():
    config = mirrored_pair_config()
    data = json.loads(json.dumps(config.to_json()))
    back = BlowupConfiguration.from_json(data)
    assert back.points == config.points
    assert back.taylor_polys == config.taylor_polys
    assert multi_point_balance(back).passed


def test_configuration_invariants_enforced():
    n = 8
    with pytest.raises(ValueError):
        BlowupConfiguration(
            n=n,
            points=((Fraction(1),) + (Fraction(0),) * (n - 1),),
            k_values=(Fraction(1),),
            taylor_polys=(Polynomial.zero(n),),
            flex_vectors=((Fraction(0),) * n,),
            flex_exponents=(Fraction(1, 9),),
            scale_ratios=(Fraction(1),),
        )
    with pytest.raises(ValueError, match="at least one point"):
        BlowupConfiguration(n, (), (), (), (), (), ())


@pytest.mark.parametrize(
    "field, value",
    [
        ("flex_exponents", (Fraction(1, 10), Fraction(1, 10), 0.1)),
        ("k_values", (48, 0.1 + 0.2, Fraction(3, 10))),
        ("scale_ratios", (1, 1.0, True)),
    ],
    ids=["float-exponent", "float-curvature-scale", "float-and-bool-ratio"],
)
def test_configuration_refuses_inexact_values(field, value):
    # a float exponent would land in a group of its own and flip the verdict
    with pytest.raises(ExactnessError):
        dataclasses.replace(mirrored_pair_config(), **{field: value})


def test_configuration_stores_exact_fractions():
    config = dataclasses.replace(
        mirrored_pair_config(), k_values=(48, 2, "2"), scale_ratios=(1, 1, 1)
    )
    values = config.k_values + config.scale_ratios + config.flex_exponents
    values += sum(config.points + config.flex_vectors, ())
    assert all(type(x) is Fraction for x in values)
    assert multi_point_balance(config).passed


# -------------------------------------------------------------- balance law


@pytest.mark.parametrize("n", [3, 4, 5])
def test_balance_law_on_exact_bubble(n):
    profile = bubble(BubbleParams(n=n, eps=0.5, center=(0.0,) * n))
    report = pohozaev_volume_vs_surface(profile, constant_curvature(n), rho=1.0)
    assert report.passed
    assert abs(report.details["volume_side"]) < 1e-6
    assert abs(report.details["flux_side"]) < 1e-6


def test_balance_law_on_off_center_bubble():
    n = 4
    profile = bubble(BubbleParams(n=n, eps=0.5, center=(0.2, 0.0, 0.0, 0.0)))
    report = pohozaev_volume_vs_surface(profile, constant_curvature(n), rho=1.0)
    assert report.passed


def test_balance_law_negative_control():
    n = 4
    profile = PerturbedProfile(
        BubbleParams(n=n, eps=0.5, center=(0.0,) * n), amplitude=0.4
    )
    report = pohozaev_volume_vs_surface(profile, constant_curvature(n), rho=1.0)
    assert not report.passed
