import dataclasses
import json
import random
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from bubble_correction import balance as balance_module, quadrature
from bubble_correction.balance import (
    MAX_GROUP_BITS,
    MAX_RADICAND_BITS,
    MAX_ROOT_DEGREE,
    BlowupConfiguration,
    _floor_root,
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
from bubble_correction.moments import j_multiple
from bubble_correction.polynomials import (
    Polynomial,
    gradient,
    iterated_laplacian,
)
from bubble_correction.profiles import BubbleProfile, SynthesizedCurvature
from bubble_correction.reduction import h_of

from conftest import alternating_quartic, load_bench_inputs, random_homogeneous
from oracles import (
    PerturbedProfile,
    apply_signed_permutation,
    balance_group_sum_mp,
    eval_polynomial,
    project_to_admissible,
    shift_expansion,
)


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


@pytest.mark.parametrize("samples", [0, -4])
def test_gradient_bound_refuses_to_sample_nothing(samples, monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("a node was drawn")

    monkeypatch.setattr(balance_module.quadrature, "sphere_nodes", no_draw)
    with pytest.raises(ValueError, match=r"^samples must be >= 1, got "):
        gradient_lower_bound(separable_even(4, 2), samples=samples)


def test_gradient_bound_refuses_a_non_homogeneous_source(monkeypatch):
    # y1^3 + y1 + y2^2 used to be sampled on the unit sphere and rescaled by
    # rho**(ell - 1), both of which hold only for a homogeneous P
    def no_draw(*args, **kwargs):
        raise AssertionError("a node was drawn")

    monkeypatch.setattr(balance_module.quadrature, "sphere_nodes", no_draw)
    p = var(3, 0, 3) + var(3, 0) + var(3, 1, 2)
    message = r"^needs a homogeneous polynomial of degree >= 2$"
    with pytest.raises(ValueError, match=message):
        gradient_lower_bound(p, rho=2.0, samples=2000)


@pytest.mark.parametrize("rho", [-2.0, 0.0, float("nan"), float("inf")])
def test_gradient_bound_refuses_a_rho_that_is_not_finite_and_positive(
    monkeypatch, rho
):
    # for y1^4 + y2^4 + y3^4 at 200 samples these returned (-10.89, -31.78),
    # a "min" above the "max", then (0.0, 0.0), (nan, nan) and (inf, inf)
    def no_draw(*args, **kwargs):
        raise AssertionError("a node was drawn")

    monkeypatch.setattr(balance_module.quadrature, "sphere_nodes", no_draw)
    p = var(3, 0, 4) + var(3, 1, 4) + var(3, 2, 4)
    with pytest.raises(ValueError, match=r"^rho must be finite and positive, got "):
        gradient_lower_bound(p, rho=rho, samples=200)


def test_gradient_bound_runs_on_one_sample():
    # |grad(y1^2 - y2^2 + y3^2 - y4^2)| = 2 on the whole unit sphere
    low, high = gradient_lower_bound(separable_even(4, 2), samples=1)
    assert low == pytest.approx(2.0) and high == pytest.approx(2.0)


def sampled_gradient_norms(poly, samples=10_000, seed=0):
    """|grad P| at ``gradient_lower_bound``'s sphere nodes, by the oracle's
    one-shot evaluation of each partial."""
    nodes = quadrature.sphere_nodes(poly.dimension, samples, seed)
    squares = sum(eval_polynomial(g, nodes) ** 2 for g in gradient(poly))
    return np.sqrt(squares)


def cubes_plus_triple(n, dropped=None):
    """The sum of y_i^3 over i != dropped, plus y1 y2 y3: its gradient
    vanishes at e_dropped when one is dropped."""
    terms = {tuple(3 * (j == i) for j in range(n)): 1 for i in range(n) if i != dropped}
    terms[tuple(int(j < 3) for j in range(n))] = 1
    return Polynomial(n, terms)


@pytest.mark.parametrize("n", [3, 6])
def test_gradient_bound_is_zero_where_the_gradient_vanishes_at_a_coordinate_point(n):
    # grad P(e3) == 0 exactly; the sampled minimum read 0.0126 (n = 3) and
    # 0.0701 (n = 6) as if the gradient were bounded below
    p = cubes_plus_triple(n, dropped=2)
    assert sampled_gradient_norms(p).min() > 0.01
    low, high = gradient_lower_bound(p)
    assert low == 0.0
    assert high == sampled_gradient_norms(p).max()


def test_gradient_bound_is_zero_for_sparse_sources_with_a_coordinate_zero():
    # seeded sparse cubics and quartics: grad P(+-e_i) == 0 exactly when no
    # term is y_i^ell or y_i^(ell-1) y_j, which every source drawn here
    # satisfies at some i; none is caught by the sampled minimum alone
    rng = random.Random(14)
    found = 0
    while found < 8:
        n, ell = rng.randint(3, 8), rng.choice([3, 4])
        terms, count = {}, rng.randint(5, 10)
        while len(terms) < count:
            alpha = [0] * n
            for _ in range(ell):
                alpha[rng.randrange(n)] += 1
            terms[tuple(alpha)] = rng.choice([-3, -2, -1, 1, 2, 3])
        p = Polynomial(n, terms)
        if all(any(alpha[i] >= ell - 1 for alpha in p.terms) for i in range(n)):
            continue
        found += 1
        assert sampled_gradient_norms(p, samples=2_000).min() > 0
        low, high = gradient_lower_bound(p, samples=2_000)
        assert low == 0.0 and high > 0


@pytest.mark.parametrize("rho", [1.0, 2.5])
def test_gradient_bound_keeps_its_sampled_bits_without_a_coordinate_zero(rho):
    # y1^3 + y2^3 + y3^3 + y1 y2 y3 has a nonzero gradient at every +-e_i
    p = cubes_plus_triple(3)
    norms = sampled_gradient_norms(p)
    scale = rho**2
    assert gradient_lower_bound(p, rho=rho) == (
        float(norms.min()) * scale, float(norms.max()) * scale)


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


# min_residual.hex(), evaluations and whether a counterexample was found, as
# the Taylor-loop route gave them; every candidate is still evaluated
# exactly, so the search path keeps its bits
FALSIFIER_PINS = [
    (Polynomial.zero(4), 10, 0, ("0x0.0p+0", 1, True)),
    (var(4, 0, 2) - var(4, 1, 2), 800, 1, ("0x0.0p+0", 200, True)),
    # the pattern search used to finish its last sweep past the budget, at 401
    (separable_even(4, 2), 400, 2, ("0x1.50e1ece6c97c0p-3", 400, False)),
    (
        Polynomial(6, {
            (3, 2, 0, 0, 0, 0): 1, (0, 0, 5, 0, 0, 0): -2,
            (1, 1, 1, 1, 1, 0): 3, (0, 1, 0, 0, 2, 2): Fraction(1, 2),
        }),
        800, 0, ("0x1.4eda555cb4bd0p-2", 800, False),
    ),
]


@pytest.mark.parametrize(
    "p, budget, seed, expected", FALSIFIER_PINS,
    ids=["zero", "singular-quadratic", "separable-even", "n6-quintic"],
)
def test_falsifier_results_are_pinned(p, budget, seed, expected):
    result = flexibility_falsifier(p, budget=budget, seed=seed)
    found = result.counterexample is not None
    assert (result.min_residual.hex(), result.evaluations, found) == expected


@pytest.mark.parametrize("budget", [0, -5, 2.5, True])
def test_falsifier_refuses_a_budget_below_one(budget):
    with pytest.raises(ValueError, match="budget"):
        flexibility_falsifier(var(4, 0, 2) - var(4, 1, 2), budget=budget)


@pytest.mark.parametrize("budget", [1, 3, 9, 57])
def test_falsifier_never_exceeds_its_budget(budget):
    # the 2n = 8 axis probes alone would overrun the smaller budgets
    p = Polynomial(4, {(2, 1, 0, 0): 1, (0, 0, 3, 0): Fraction(-1, 3)})
    assert flexibility_falsifier(p, budget=budget).evaluations == budget


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


@pytest.mark.parametrize(
    "p", [Polynomial.zero(6), var(6, 0, 4) + var(6, 1, 3)], ids=["zero", "mixed"]
)
def test_single_point_constraints_refuse_zero_and_non_homogeneous_input(p):
    with pytest.raises(ValueError, match="nonzero homogeneous"):
        single_point_constraints(p, (0,) * 6)


def test_single_point_constraints_read_the_taylor_pieces_exactly(rng):
    # each order-h moment is the j_multiple of the Taylor piece of shift
    # degree h, as a Fraction, and the hypothesis flag is the top Laplacian
    for _ in range(10):
        n = rng.randint(4, 8)
        p = random_homogeneous(rng, n, rng.choice([n - 2, n - 3]))
        x = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
        reports = {r.constraint: r for r in single_point_constraints(p, x)}
        pieces = shift_expansion(p, x)
        for h in range(1, p.degree()):
            mult = reports[f"shift_moment_order_{h}"].residual_exact
            assert type(mult) is Fraction
            assert mult == j_multiple(pieces[h])
        top = iterated_laplacian(p, p.degree() // 2)
        flagged = "hypothesis:top_laplacian_vanishes" in reports
        assert flagged == (not top.is_zero)


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


def test_configuration_reports_the_first_malformed_field_in_field_order():
    # the documented order is the dataclass's: n, points, k_values, ...
    order = [f.name for f in dataclasses.fields(BlowupConfiguration)]
    data = mirrored_pair_config().to_json()
    for i, first in enumerate(order):
        for second in order[i + 1:]:
            bad = {**data, first: f"bad-{first}", second: f"bad-{second}"}
            with pytest.raises(ValueError) as info:
                BlowupConfiguration.from_json(bad)
            message = str(info.value)
            assert message.startswith("malformed balance configuration: ")
            assert f"'bad-{first}'" in message and "bad-" + second not in message


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
    # a point or a drift vector of another length than n was accepted, and
    # the balance report failed later inside ``directional_pairing``
    origin = (Fraction(0),) * n
    for name in ("points", "flex_vectors"):
        fields = dict(n=n, points=(origin,), k_values=(Fraction(48),),
                      taylor_polys=(Polynomial.zero(n),), flex_vectors=(origin,),
                      flex_exponents=(Fraction(1, 9),), scale_ratios=(Fraction(1),))
        fields[name] = (origin[:3],)
        with pytest.raises(ValueError, match=f"^every entry of {name} must have "
                                             f"length n = {n}$"):
            BlowupConfiguration(**fields)


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


# ------------------------------------------------------ exact balance verdict


def line_config(n, eta, pairings, k_values, scale_ratios):
    """The origin (zero Taylor polynomial) plus the points m * e_1 for
    m = 1, 2, ..., each with drift e_1 and Taylor polynomial
    c_m / (m (n - 2)) * y_1^(n-2), so that its pairing is exactly c_m."""
    zero = (Fraction(0),) * n
    e1 = (Fraction(1),) + zero[1:]
    count = len(pairings)
    return BlowupConfiguration(
        n=n,
        points=(zero,) + tuple((Fraction(m),) + zero[1:] for m in range(1, count + 1)),
        k_values=(n * (n - 2), *k_values),
        taylor_polys=(Polynomial.zero(n),) + tuple(
            Fraction(c) / (m * (n - 2)) * var(n, 0, n - 2)
            for m, c in enumerate(pairings, 1)
        ),
        flex_vectors=(zero,) + (e1,) * count,
        flex_exponents=(eta,) * (count + 1),
        scale_ratios=(1, *scale_ratios),
    )


def odd_mirror_config(n=7, scale=Fraction(1)):
    """The origin plus a mirrored pair (p, -p) with one Taylor polynomial,
    drift vector and curvature scale, as the balance bench builds them: the
    pairings cancel, and for odd n every weight is a square root."""
    p = (Fraction(3), Fraction(-1)) + (Fraction(0),) * (n - 2)
    taylor = var(n, 0, n - 2) + Fraction(2, 3) * var(n, 0, n - 4) * var(n, 1, 2)
    drift = (Fraction(1), Fraction(2)) + (Fraction(0),) * (n - 2)
    return BlowupConfiguration(
        n=n,
        points=((Fraction(0),) * n, p, tuple(-x for x in p)),
        k_values=(n * (n - 2), Fraction(5, 7), Fraction(5, 7) * scale),
        taylor_polys=(Polynomial.zero(n), taylor, taylor),
        flex_vectors=((Fraction(0),) * n, drift, drift),
        flex_exponents=(Fraction(3, 7),) * 3,
        scale_ratios=(1, 1, 1),
    )


def test_roadmap_perturbed_cases_fail():
    # both passed the 1e-10 relative float check the exact verdict replaced
    tiny = Fraction(1, 10**14)
    assert multi_point_balance(odd_mirror_config()).passed
    assert not multi_point_balance(odd_mirror_config(scale=1 + tiny)).passed
    config = mirrored_pair_config()
    even = dataclasses.replace(config, scale_ratios=(1, 2, 2))
    assert multi_point_balance(even).passed
    uneven = dataclasses.replace(config, scale_ratios=(1, 2, 2 + tiny))
    report = multi_point_balance(uneven)
    assert not report.passed
    assert report.residual_exact is None


@pytest.mark.parametrize("n", [7, 9])
def test_every_group_gets_an_exact_verdict(n):
    for scale, passed in ((Fraction(1), True), (Fraction(2), False)):
        report = multi_point_balance(odd_mirror_config(n, scale))
        (group,) = report.details["groups"]
        # the exact verdict is the group's one verdict, ``pass``
        assert "exact" not in group
        assert group["pass"] is report.passed is passed
        assert (report.residual_exact == 0) is passed
        assert (group["sum"] == 0.0) is passed


def test_classes_with_rational_ratios_cancel_separately():
    # n = 7, unit scale ratios: alpha = b^(7/2), and b = 4n(n-1)/K = 168/K.
    # K = 168 * {1, 4, 2, 8} puts the first two alphas in the rational class
    # (1 and 1/128) and the last two in the class of 2^(-7/2) (ratio 1/128)
    n = 7
    k_values = [168, 168 * 4, 168 * 2, 168 * 8]
    eta = Fraction(1, 3)
    config = line_config(n, eta, [1, -128, 5, -640], k_values, [1] * 4)
    report = multi_point_balance(config)
    assert report.passed and report.residual_exact == 0
    # moving weight between the two classes keeps the rational sum of all
    # coefficients but breaks both class sums
    config = line_config(n, eta, [2, -128, 4, -640], k_values, [1] * 4)
    report = multi_point_balance(config)
    assert not report.passed
    total, _ = balance_group_sum_mp(config, list(range(5)))
    assert report.residual_float == pytest.approx(abs(float(total)), rel=1e-12)


# square-free curvature and scale seeds: terms of one seed have rational
# weight ratios by construction, terms of different seeds mostly do not
SEEDS = [(1, 1), (2, 1), (1, 3), (3, 2)]


@st.composite
def colliding_configs(draw):
    n = draw(st.integers(7, 10))
    eta = Fraction(draw(st.integers(-4, 12)), draw(st.integers(1, 7)))
    e = (n - 3) * (1 + eta)
    count = draw(st.integers(1, 6))
    small = st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=4)
    seeds, k_values, ratios, weights, pairings = [], [], [], [], []
    for _ in range(count):
        seed = draw(st.integers(0, len(SEEDS) - 1))
        t, w = draw(small), draw(small)
        kappa, sigma = SEEDS[seed]
        seeds.append(seed)
        k_values.append(kappa * t**2)
        ratios.append(sigma * w**e.denominator)
        # alpha = A_seed * t^(-n) * w^(num e)
        weights.append(t**-n * w**e.numerator)
        pairings.append(Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9))))
    if draw(st.booleans()):
        # the last term of each seed cancels the others of its seed
        for seed in set(seeds):
            members = [m for m in range(count) if seeds[m] == seed]
            *rest, last = members
            rest_sum = sum(pairings[m] * weights[m] for m in rest)
            pairings[last] = -rest_sum / weights[last]
        if draw(st.booleans()):
            pairings[0] += Fraction(1, 10 ** draw(st.integers(1, 30)))
    return line_config(n, eta, pairings, k_values, ratios)


@given(colliding_configs())
@settings(max_examples=80, deadline=None)
def test_exact_verdict_matches_a_300_digit_sum(config):
    report = multi_point_balance(config)
    total, biggest = balance_group_sum_mp(config, list(range(len(config.points))))
    assert report.passed == (abs(total) <= mpmath.mpf(10) ** -250 * biggest)


def test_floor_root_on_powers_and_their_neighbours():
    rng = random.Random(3)
    for _ in range(400):
        # roots of up to 48 bits start from a float, longer ones recurse
        k = rng.choice([1, 2, 3, 7, 40, 997])
        r = rng.getrandbits(rng.choice([1, 8, 48, 49, 20_000 // k])) or 1
        for x in (r**k - 1, r**k, r**k + 1):
            if x >= 1:
                f = _floor_root(x, k)
                assert f**k <= x < (f + 1) ** k


def test_unit_ratios_need_only_square_roots(monkeypatch):
    # odd n, unit scale ratios: whatever eta's denominator, the weights
    # b^(n/2) reduce to square roots; eta = 1/4999 makes q = 9,998
    degrees = []
    real_root = balance_module._floor_root

    def root(x, k):
        degrees.append(k)
        return real_root(x, k)

    monkeypatch.setattr(balance_module, "_floor_root", root)
    # b = 168 / K: the first two weights differ by (1/4)^(7/2) = 1/128
    k = Fraction(2**31 - 1, 3)
    k_values = [k, 4 * k, Fraction(5, 7), Fraction(5, 7)]
    config = line_config(7, Fraction(1, 4999), [1, -128, 3, -3], k_values, [1] * 4)
    assert multi_point_balance(config).passed
    assert 2 in degrees and set(degrees) <= {1, 2}


def refuse_roots(monkeypatch):
    def root(x, k):
        raise AssertionError("a root was taken before the caps were checked")

    monkeypatch.setattr(balance_module, "_floor_root", root)


def test_root_degree_cap_boundary(monkeypatch):
    # n = 8: n/2 is whole and e = 5(1 + eta); eta = 1/50000 gives
    # e = 50001/10000, eta = 1/10001 gives den(e) = 10001
    n = 8
    at_cap = line_config(n, Fraction(1, 50_000), [1, -1], [2, 2], [1, 1])
    assert balance_module._root_degree(n, Fraction(1, 50_000)) == MAX_ROOT_DEGREE
    assert multi_point_balance(at_cap).passed
    above = line_config(n, Fraction(1, 10_001), [1, -1], [2, 2], [1, 1])
    refuse_roots(monkeypatch)
    message = r"degree 10001 in dimension 8 \(at most 10000\)"
    with pytest.raises(ValueError, match=message):
        multi_point_balance(above)


def test_radicand_bits_cap_boundary(monkeypatch):
    # n = 8, eta = -1/25: e = 24/5, q = 5, so S^e = S^4 * (S^4)^(1/5).  With
    # K = 224 the curvature weight b is 1 and drops out, and S = 2^16383
    # (16,384 bits) needs two powers of 4 * 16,384 = 65,536 bits
    n = 8
    eta = Fraction(-1, 25)
    assert MAX_RADICAND_BITS == 4 * 16_384
    at_cap = line_config(n, eta, [1, -1], [224, 224], [2**16383, 2**16383])
    assert multi_point_balance(at_cap).passed
    above = line_config(n, eta, [1, -1], [224, 224], [2**16384, 2**16384])
    refuse_roots(monkeypatch)
    with pytest.raises(ValueError, match=r"power of 65540 bits \(at most 65536\)"):
        multi_point_balance(above)


def refuse_pairings(monkeypatch):
    def pairing(config, m):
        raise AssertionError("a pairing was computed before the caps were checked")

    monkeypatch.setattr(balance_module, "_pairing_at", pairing)


def group_bits(config):
    """The bits ``multi_point_balance`` counts for a one-group configuration,
    read from its refusal under a zero cap."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(balance_module, "MAX_GROUP_BITS", 0)
        with pytest.raises(ValueError, match="carries") as caught:
            multi_point_balance(config)
    return int(re.search(r"carries (\d+) bits", str(caught.value)).group(1))


def test_group_bits_cap_boundary(monkeypatch):
    config = line_config(8, Fraction(1, 3), [3, -3], [Fraction(7, 5)] * 2, [2, 2])
    bits = group_bits(config)
    monkeypatch.setattr(balance_module, "MAX_GROUP_BITS", bits)
    assert multi_point_balance(config).passed
    monkeypatch.setattr(balance_module, "MAX_GROUP_BITS", bits - 1)
    refuse_roots(monkeypatch)
    refuse_pairings(monkeypatch)
    with pytest.raises(ValueError, match=rf"carries {bits} bits \(at most {bits - 1}\)"):
        multi_point_balance(config)


def test_group_bits_cap_refuses_a_large_group_before_any_work(monkeypatch):
    # n = 8: each 14,000-bit curvature scale counts about 4 * 14,000 bits,
    # and ten of them are over the cap (sixteen took 1.4 s, sixty-four 24 s)
    rnd = random.Random(8)
    k_values = [
        Fraction(rnd.getrandbits(14_000) | 1, rnd.getrandbits(14_000) | 1)
        for _ in range(10)
    ]
    config = line_config(8, Fraction(1, 3), [1] * 10, k_values, [1] * 10)
    refuse_roots(monkeypatch)
    refuse_pairings(monkeypatch)
    with pytest.raises(ValueError, match=f"at most {MAX_GROUP_BITS}"):
        multi_point_balance(config)


def test_group_bits_of_bench_and_test_inputs_sit_far_below_the_cap(monkeypatch):
    # the largest balance configuration of this suite, and every balance
    # request of three light-cli rounds for seeds 1-3, run under a fraction
    # of the cap
    largest = line_config(
        8, Fraction(-1, 25), [1, -1], [224, 224], [2**16383, 2**16383]
    )
    monkeypatch.setattr(balance_module, "MAX_GROUP_BITS", MAX_GROUP_BITS // 3)
    assert multi_point_balance(largest).passed
    monkeypatch.setattr(balance_module, "MAX_GROUP_BITS", MAX_GROUP_BITS // 500)
    inputs = load_bench_inputs()
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        for request in (r for i in range(3) for r in inputs.light_round(rng, f"r{i}")):
            if request["kind"] == "balance":
                (data,) = request["files"].values()
                report = multi_point_balance(BlowupConfiguration.from_json(data))
                assert report.passed == request["passes"]


def test_residue_primes_are_one_mod_k():
    for k in (2, 3, 7, 24, MAX_ROOT_DEGREE):
        primes = balance_module._residue_primes(k)
        assert len(primes) == balance_module._RESIDUE_PRIMES
        for p in primes:
            assert p % k == 1 and sympy.isprime(p)


def test_residue_pretest_keeps_every_verdict(monkeypatch):
    # the same ratios with the pre-test and with Newton's root alone: the
    # pre-test may only reject, and here it spares most roots
    rnd = random.Random(12)
    cases = []
    for _ in range(400):
        n = rnd.randint(7, 12)
        eta = Fraction(rnd.randint(-4, 30), rnd.randint(1, 12))
        q = balance_module._root_degree(n, eta)

        def base():
            x = Fraction(rnd.randint(1, 10**6), rnd.randint(1, 10**6))
            return x ** rnd.choice([1, 2, 3, q, 2 * q]) * rnd.choice([1, 1, 2, 3])

        cases.append((base(), base(), n, (n - 3) * (1 + eta), q))
    roots = []
    real_root = balance_module._floor_root

    def root(x, k):
        roots.append(k)
        return real_root(x, k)

    monkeypatch.setattr(balance_module, "_floor_root", root)
    tested = [balance_module._rational_power(*case) for case in cases]
    pretested_roots = len(roots)
    monkeypatch.setattr(balance_module, "_residue_primes", lambda k: ())
    roots.clear()
    assert [balance_module._rational_power(*case) for case in cases] == tested
    assert pretested_roots < len(roots) / 2
    rational = sum(ratio is not None for ratio in tested)
    assert 0 < rational < len(cases)


def test_non_positive_scale_ratios_are_refused():
    for ratios in ((1, -2, -2), (1, 0, 0)):
        with pytest.raises(ValueError, match="scale ratios must be positive"):
            dataclasses.replace(mirrored_pair_config(), scale_ratios=ratios)


@pytest.mark.parametrize(
    "field, value",
    [
        ("k_values", (48, Fraction(1, 10**400), Fraction(1, 10**400))),
        ("scale_ratios", (1, 10**200, 10**200)),
    ],
    ids=["tiny-curvature-scales", "huge-scale-ratios"],
)
def test_group_sums_beyond_the_float_range(field, value):
    # the verdict is exact either way; a zero sum reads 0.0, and a nonzero
    # one that no float holds is refused
    config = dataclasses.replace(mirrored_pair_config(), **{field: value})
    report = multi_point_balance(config)
    assert report.passed and report.residual_float == 0.0
    bad = dataclasses.replace(
        mirrored_pair_config(perturb=Fraction(1, 1000)), **{field: value}
    )
    with pytest.raises(ValueError, match="beyond the float range"):
        multi_point_balance(bad)


# -------------------------------------------------------------- balance law


@pytest.mark.parametrize("n", [3, 4, 5])
def test_balance_law_on_exact_bubble(n):
    profile = BubbleProfile(n, 0.5, (0.0,) * n)
    flat = SynthesizedCurvature(Polynomial.zero(n))
    report = pohozaev_volume_vs_surface(profile, flat, rho=1.0)
    assert report.passed
    assert abs(report.details["volume_side"]) < 1e-6
    assert abs(report.details["flux_side"]) < 1e-6


def test_balance_law_on_off_center_bubble():
    n = 4
    profile = BubbleProfile(n, 0.5, (0.2, 0.0, 0.0, 0.0))
    flat = SynthesizedCurvature(Polynomial.zero(n))
    report = pohozaev_volume_vs_surface(profile, flat, rho=1.0)
    assert report.passed


def test_balance_law_negative_control():
    n = 4
    profile = PerturbedProfile(n, 0.5, (0.0,) * n, amplitude=0.4)
    flat = SynthesizedCurvature(Polynomial.zero(n))
    report = pohozaev_volume_vs_surface(profile, flat, rho=1.0)
    assert not report.passed
