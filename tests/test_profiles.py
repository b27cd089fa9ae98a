import math
import random
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from bubble_correction import kernels, profiles
from bubble_correction.polynomials import Polynomial, euler_operator
from bubble_correction.profiles import (
    BubbleProfile,
    GreensBall,
    HarmonicTail,
    RefinedProfile,
    RefinedProfileSpec,
    SynthesizedCurvature,
    d_pi,
    interpolation_R,
    linearized_residual,
    pi_eval,
    rescaled_average,
)
from bubble_correction.reduction import (
    apply_L, kernel_basis, solve_gamma, solve_general,
)

import oracles
from conftest import alternating_quartic, random_homogeneous


def var(n, i, p=1):
    return Polynomial.variable(n, i, p)


def example_profile_spec(lam=0.05, n=6, ell=3):
    source = oracles.project_to_admissible(
        Polynomial(n, {(2, 1, 0, 0, 0, 0): Fraction(1)})
    )
    gamma = solve_gamma(source).gamma
    return RefinedProfileSpec(
        n=n,
        ell=ell,
        lam=lam,
        xi=(0.0,) * n,
        gamma=gamma,
        harmonic_points=((3.0, 0, 0, 0, 0, 0), (0, -4.0, 0, 0, 0, 0)),
        harmonic_weights=(1.0, 2.0),
        joint_radius_c=1.0,
    )


# ------------------------------------------------------------------ bubbles


def test_bubble_peak_and_center_value():
    n = 5
    profile = BubbleProfile(n, 1.0, (0.0,) * n)
    assert profile.values(np.zeros((1, n)))[0] == 1.0
    assert profile.values(np.asarray([profile.center]))[0] == profile.peak


def test_bubble_far_field_sandwich():
    n = 5
    profile = BubbleProfile(n, 1.0, (0.0,) * n)
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((200, n))
    pts = pts / np.linalg.norm(pts, axis=1, keepdims=True) * rng.uniform(
        1.0, 8.0, (200, 1)
    )
    r = np.linalg.norm(pts, axis=1)
    vals = profile.values(pts)
    decay = r ** -(n - 2.0)
    assert np.all(vals <= decay + 1e-15)
    assert np.all(vals >= 2.0 ** (-(n - 2) / 2.0) * decay - 1e-15)


def test_bubble_solves_critical_equation_by_fd():
    n = 5
    profile = BubbleProfile(n, 1.0, (0.1, 0.0, -0.2, 0.0, 0.3))
    rng = np.random.default_rng(1)
    worst = worst_closed_form = 0.0
    for point in rng.uniform(-2, 2, (60, n)):
        lap = oracles.fd_laplacian_4th(lambda y: profile.values(y[None, :])[0], point)
        v = profile.values(point[None, :])[0]
        worst = max(worst, abs(lap + n * (n - 2) * v ** ((n + 2) / (n - 2))))
        closed_form = profile.laplacians(point[None, :])[0]
        worst_closed_form = max(worst_closed_form, abs(lap - closed_form))
    assert worst < 1e-8
    assert worst_closed_form < 1e-8


def test_bubble_closed_form_gradient_matches_fd():
    n = 4
    profile = BubbleProfile(n, 0.7, (0.0,) * n)
    rng = np.random.default_rng(2)
    for point in rng.uniform(-1.5, 1.5, (20, n)):
        grad = profile.gradients(point[None, :])[0]
        approx = oracles.fd_gradient(lambda y: profile.values(y[None, :])[0], point)
        assert np.allclose(grad, approx, atol=1e-8)


# ------------------------------------------------------------- stereographic


def test_stereographic_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(100):
        y = rng.uniform(-4, 4, 5)
        x = oracles.stereographic_from_plane(y)
        assert abs(np.linalg.norm(x) - 1.0) < 1e-12
        assert np.allclose(oracles.stereographic_to_plane(x), y, atol=1e-12)


def test_conformal_pair_round_trip():
    n = 4
    u = lambda x: 1.0 + 0.3 * x[0] - 0.2 * x[-1] + 0.1 * x[1] ** 2
    v = oracles.flat_from_sphere_function(u, n)
    u_back = oracles.sphere_from_flat_function(v, n)
    rng = np.random.default_rng(4)
    for _ in range(50):
        y = rng.uniform(-3, 3, n)
        x = oracles.stereographic_from_plane(y)
        assert u(x) == pytest.approx(u_back(x), abs=1e-12)


def test_constant_function_transports_to_the_conformal_factor():
    v = oracles.flat_from_sphere_function(lambda x: 1.0, 4)
    assert v(np.zeros(4)) == pytest.approx(2.0)


def test_pole_is_flagged():
    with pytest.raises(ValueError):
        oracles.stereographic_to_plane(np.array([0.0, 0.0, 0.0, 0.0, 1.0]))


# ---------------------------------------------------------------- curvature


def test_synth_curvature_center_value():
    n = 6
    p = -1 * alternating_quartic(n)
    model = SynthesizedCurvature(p)
    assert model.ctilde_K(np.zeros((1, n)))[0] == n * (n - 2)


def test_synth_curvature_radial_pairing_is_exact_euler_scaling():
    n = 6
    p = -1 * alternating_quartic(n)
    model = SynthesizedCurvature(p)
    ell = p.degree()
    assert model.radial_pairing_scaled() == Fraction(-ell) * p
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1, 1, (20, n))
    expect = -ell * np.array(
        [float(p.evaluate([Fraction(x) for x in pt])) for pt in pts]
    )
    assert np.allclose(model.radial_pairing(pts) * model.ctilde, expect)


def test_synth_curvature_reproduces_the_alternating_model():
    # the curvature display carries a plus sign on the bracket, so the
    # matching source polynomial is its negative
    n = 8
    bracket = alternating_quartic(n)
    model = SynthesizedCurvature(Fraction(-1) * bracket)
    rng = np.random.default_rng(6)
    pts = rng.uniform(-0.5, 0.5, (10, n))
    brackets = np.array(
        [float(bracket.evaluate([Fraction(x) for x in p])) for p in pts]
    )
    assert np.allclose(
        model.ctilde_K(pts), n * (n - 2) + brackets, rtol=0, atol=1e-12
    )


def test_synth_curvature_with_remainder():
    n = 6
    p = -1 * alternating_quartic(n)
    rem = Polynomial(n, {(5, 0, 0, 0, 0, 0): Fraction(1, 10)})
    model = SynthesizedCurvature(p, remainder=rem)
    assert model.radial_pairing_scaled() == Fraction(-4) * p + 5 * rem
    assert euler_operator(rem) == 5 * rem


# --------------------------------------------------------------- correction


def test_pi_vanishes_at_origin_without_constant_term():
    n = 6
    gamma = var(n, 0, 2) + var(n, 1) * var(n, 2)
    pi = pi_eval(gamma)
    assert pi(np.zeros((1, n)))[0] == 0.0


def test_pi_decay_bound_for_low_degree():
    # deg(gamma) <= n - 2 gives |Pi(Y)| <= C (1 + |Y|)^(-2): fit C on one
    # sample, then verify the bound with that C on an independent sample
    # reaching much larger radii
    n = 6
    gamma = solve_gamma(oracles.project_to_admissible(alternating_quartic(n))).gamma
    assert gamma.degree() <= n - 2
    pi = pi_eval(gamma)
    fit_rng = np.random.default_rng(7)
    fit_pts = fit_rng.standard_normal((2000, n)) * 5
    fit_r = np.linalg.norm(fit_pts, axis=1)
    constant = (np.abs(pi(fit_pts)) * (1.0 + fit_r) ** 2).max()

    check_rng = np.random.default_rng(8)
    check_pts = check_rng.standard_normal((2000, n)) * 50
    check_r = np.linalg.norm(check_pts, axis=1)
    bound = constant / (1.0 + check_r) ** 2
    assert np.all(np.abs(pi(check_pts)) <= bound * (1 + 1e-12))


def test_linearized_residual_for_verified_solution():
    n = 6
    source = var(n, 0, 2) - var(n, 1, 2)
    gamma = Fraction(-1, 2 * n) * source
    report = linearized_residual(gamma, source, samples=1000, seed=0)
    assert report.max_abs < 1e-10


def test_linearized_residual_for_degree_one_fixture(degree_one_correction):
    n, gamma, source = degree_one_correction
    report = linearized_residual(gamma, source, samples=1000, seed=1)
    assert report.max_abs < 1e-10


def test_linearized_residual_for_kernel_elements():
    n = 5
    for kappa in kernel_basis(n):
        report = linearized_residual(kappa, Polynomial.zero(n), samples=300, seed=2)
        assert report.max_abs < 1e-10


def test_linearized_residual_refuses_unverified_input():
    n = 5
    with pytest.raises(ValueError):
        linearized_residual(var(n, 0, 2), var(n, 0, 2), samples=10)


def _scan(samples=10, seed=0):
    n = 6
    source = var(n, 0, 2) - var(n, 1, 2)
    gamma = Fraction(-1, 2 * n) * source
    return linearized_residual(gamma, source, samples=samples, seed=seed)


def _profile(samples=10, seed=0):
    return profiles.profile_rows(example_profile_spec(), samples, seed)


def _green(n=3, radius=1.0, seed=0):
    return profiles.green_report(n, radius, seed)


def _work(samples=10):
    return profiles.check_sample_work(samples, 3, 1)


_SAMPLES_RULE = f"--samples must be >= 1 and <= {profiles.MAX_SAMPLES}, got "
_SAMPLES = [
    ({"samples": value}, f"{_SAMPLES_RULE}{value}")
    for value in (0, -3, profiles.MAX_SAMPLES + 1)
]
_SEED = ({"seed": -1}, "--seed must be >= 0, got -1")
_RADIUS = "--radius must be in [1e-10, 1e+10], got "
# (call, its refused argument, the refusal's text); each call runs with its
# defaults
LIBRARY_REFUSALS = (
    [(_scan, *case) for case in [*_SAMPLES, _SEED]]
    + [(_profile, *case) for case in [*_SAMPLES, _SEED]]
    + [
        (_green, {"n": 2}, "--n must be >= 3, got 2"),
        (_green, {"n": 12}, "--n must be <= 11, got 12"),
        (_green, {"radius": 1e11}, f"{_RADIUS}{1e11!r}"),
        (_green, {"radius": 1e-11}, f"{_RADIUS}{1e-11!r}"),
        (_green, *_SEED),
    ]
    + [(_work, *case) for case in _SAMPLES]
)


@pytest.mark.parametrize(
    "call, kwargs, message",
    LIBRARY_REFUSALS,
    ids=[f"{call.__name__[1:]}-{key}={value}"
         for call, kwargs, _ in LIBRARY_REFUSALS for key, value in kwargs.items()],
)
def test_library_calls_refuse_the_cli_flag_rules_before_any_draw(
    monkeypatch, call, kwargs, message
):
    # the CLI's refusal, word for word, from the library call itself
    call()

    def draw(*args, **kwargs):
        raise AssertionError("a point was drawn before the refusal")

    monkeypatch.setattr(np.random, "default_rng", draw)
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        call(**kwargs)


@st.composite
def residual_inputs(draw, max_n=9, max_degree=8, max_terms=6):
    """A pair (gamma, P) in one dimension, unrelated: L(gamma) != P in general,
    so the residual is not zero."""
    n = draw(st.integers(1, max_n))

    def polynomial():
        terms = {}
        for _ in range(draw(st.integers(0, max_terms))):
            alpha = [0] * n
            for _ in range(draw(st.integers(0, max_degree))):
                alpha[draw(st.integers(0, n - 1))] += 1
            terms[tuple(alpha)] = draw(
                st.fractions(min_value=-50, max_value=50, max_denominator=30)
            )
        return Polynomial(n, terms)

    return polynomial(), polynomial()


# ``_damped`` and the product-rule oracle agree within this many units of
# rounding, 2^-53 times the oracle's absolute-value sum (4.7 at most over
# 3,000 random pairs of this shape)
RESIDUAL_UNITS = 64


@given(residual_inputs(), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_residual_formula_matches_the_product_rule(inputs, seed):
    # (1 + r^2)^(-(n+2)/2) (L(gamma) - P) from L's two parts, against lap Pi
    # expanded by the product rule, on inputs that do not solve
    gamma, source = inputs
    assume(apply_L(gamma) != source)
    n = gamma.dimension
    rng = np.random.default_rng(seed)
    points = profiles.RESIDUAL_SCALE * rng.standard_normal((20, n))
    expected, scale = oracles.residual_by_product_rule(gamma, source, points)
    polys = profiles._scan_polynomials(gamma, source)[1]
    got = profiles._damped([kernels.poly_arrays(p) for p in polys], points)
    assert np.all(np.abs(got - expected) <= RESIDUAL_UNITS * 2.0**-53 * scale)


def scan_solution(case):
    """(gamma, source): an n = 8, ell = 4 admissible solution, or an n = 10,
    ell = 4 solution with a radial completion."""
    rng = random.Random(31)
    if case == "admissible8":
        source = oracles.project_to_admissible(random_homogeneous(rng, 8, 4))
        return solve_gamma(source).gamma, source
    source = random_homogeneous(rng, 10, 4) + Polynomial.r_squared(10) ** 2
    solution = solve_general(source)
    assert solution.radial_completion is not None
    return solution.total(), source


@pytest.mark.parametrize("case", ["admissible8", "radial10"])
def test_scan_residual_stays_within_rounding_units(case):
    # gamma solves exactly, so the sampled residual is rounding alone: within
    # RESIDUAL_UNITS units of 2^-53 times M, the absolute-value sums of L's
    # two parts and the source, each weighted as ``_damped`` weights it
    gamma, source = scan_solution(case)
    n = gamma.dimension
    polys = profiles._scan_polynomials(gamma, source)[1]
    rng = np.random.default_rng(5)
    points = profiles.RESIDUAL_SCALE * rng.standard_normal((2000, n))
    got = profiles._damped([kernels.poly_arrays(p) for p in polys], points)
    one = 1.0 + (points * points).sum(axis=1)
    damping = one ** (-(n + 2) / 2.0)
    weights = (one * damping, damping, damping)
    scale = sum(w * oracles._abs_eval(p, points) for w, p in zip(weights, polys))
    assert np.all(np.abs(got) <= RESIDUAL_UNITS * 2.0**-53 * scale)


def test_scan_streams_one_draw_in_blocks(monkeypatch):
    # blocks of 7 rows give the max of one whole draw, bit for bit, and its
    # mean to rounding
    n = 6
    source = var(n, 0, 2) - var(n, 1, 2)
    gamma = Fraction(-1, 2 * n) * source
    polys = profiles._scan_polynomials(gamma, source)[1]
    points = profiles.RESIDUAL_SCALE * np.random.default_rng(3).standard_normal(
        (100, n))
    whole = np.abs(profiles._damped([kernels.poly_arrays(p) for p in polys], points))
    monkeypatch.setattr(profiles, "_BLOCK_ROWS", 7)
    report = linearized_residual(gamma, source, samples=100, seed=3)
    assert report.max_abs == whole.max()
    assert report.mean_abs == pytest.approx(whole.mean(), rel=1e-14)


def streamed_peak(call):
    """tracemalloc's peak over a call and the walk of what it returns."""
    tracemalloc.start()
    try:
        result = call()
        if isinstance(result, tuple):
            for _ in result[1]:
                pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


@pytest.mark.parametrize("call", [_scan, _profile], ids=["residual", "profile"])
def test_sampling_memory_does_not_grow_with_the_samples(call):
    # 10x the samples, the same blocks: one (100000, n) array of points alone
    # would add 4.8 MB
    small = streamed_peak(lambda: call(samples=10_000))
    large = streamed_peak(lambda: call(samples=100_000))
    assert large <= 1.1 * small + 64 * 1024


def test_profile_rows_yields_blocks_of_one_draw():
    spec = example_profile_spec()
    header, blocks = profiles.profile_rows(spec, 2 * profiles._BLOCK_ROWS + 5, 4)
    sizes = []
    rows = []
    for block in blocks:
        sizes.append(len(block))
        rows.append(block)
    assert sizes == [profiles._BLOCK_ROWS, profiles._BLOCK_ROWS, 5]
    rows = np.concatenate(rows)
    points = np.asarray(spec.xi)[None, :] + profiles.PROFILE_SCALE * (
        np.random.default_rng(4).standard_normal((len(rows), spec.n)))
    assert np.array_equal(rows[:, : spec.n], points)
    expected = RefinedProfile(spec).components(points)
    assert np.array_equal(rows[:, spec.n :], expected)
    assert len(header) == spec.n + 4


@pytest.mark.parametrize("call", [_scan, _profile], ids=["residual", "profile"])
def test_power_table_walk_is_capped_before_any_draw(monkeypatch, call):
    # the polynomials sampled walk to their top exponents one multiply at a
    # time, so samples x walk is capped; here the cap is lowered to the
    # walk of 10 samples
    if call is _scan:
        n = 6
        source = var(n, 0, 2) - var(n, 1, 2)
        walk = profiles._walk_length(
            *profiles._scan_polynomials(Fraction(-1, 2 * n) * source, source)[1])
    else:
        walk = profiles._walk_length(example_profile_spec().gamma)
    assert walk > 0
    monkeypatch.setattr(profiles, "MAX_SAMPLE_WALK", 10 * walk)
    call(samples=10)

    def draw(*args, **kwargs):
        raise AssertionError("a point was drawn before the refusal")

    monkeypatch.setattr(np.random, "default_rng", draw)
    message = (f"--samples must be <= 10 for top exponents summing to {walk} "
               f"(samples x walk <= {10 * walk}), got 11")
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        call(samples=11)


def test_walk_length_sums_the_top_exponent_of_each_variable():
    p = Polynomial(3, {(4, 0, 1): 1, (1, 0, 2): 1})
    assert profiles._walk_length(p) == 6
    assert profiles._walk_length(p, var(3, 1, 9)) == 9
    assert profiles._walk_length(Polynomial.zero(3)) == 0


# ------------------------------------------------------------ harmonic tail


def test_harmonic_tail_values_and_h_o():
    n = 5
    tail = HarmonicTail(np.array([[1.0, 0, 0, 0, 0]]), np.array([1.0]), lam=0.1)
    assert tail.values(np.zeros((1, n)))[0] == 1.0
    assert tail.h_o == 1.0


def test_harmonic_tail_is_harmonic_by_fd():
    n = 5
    tail = HarmonicTail(
        np.array([[2.0, 0, 0, 0, 0], [0, -3.0, 0, 0, 0]]),
        np.array([1.0, 2.0]),
        lam=0.1,
    )
    rng = np.random.default_rng(8)
    for point in rng.uniform(-2, 2, (20, n)):
        lap = oracles.fd_laplacian(lambda z: tail.values(z[None, :])[0], point)
        assert abs(lap) < 1e-6


@pytest.mark.parametrize(
    "points, weights",
    [([[3.0, 0, 0]], [1.0, 2.0]), ([[3.0, 0, 0], [0, 4.0, 0]], [1.0])],
    ids=["one-source-two-weights", "two-sources-one-weight"],
)
def test_harmonic_tail_refuses_a_weight_count_unlike_its_source_count(points, weights):
    # numpy would broadcast either list against the sources; one weight at
    # distance 3 in n = 3 gives h_o = 1/3
    with pytest.raises(ValueError, match=r"^need one tail weight per source, got "):
        HarmonicTail(points, weights, lam=0.5)
    assert HarmonicTail([[3.0, 0, 0]], [1.0], lam=0.5).h_o == pytest.approx(1 / 3)


@pytest.mark.parametrize("scale", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_bubble_and_tail_refuse_a_scale_outside_zero_to_infinity(scale):
    # NaN fails every comparison, so only "0 < scale < inf" refuses it
    with pytest.raises(ValueError, match=r"^bubble scale must be finite and positive"):
        BubbleProfile(3, scale, (0.0,) * 3)
    with pytest.raises(ValueError, match=r"^tail scale must be finite and positive"):
        HarmonicTail([[3.0, 0, 0]], [1.0], lam=scale)


def test_harmonic_tail_pole_is_an_error():
    n = 4
    tail = HarmonicTail(np.array([[1.0, 0, 0, 0]]), np.array([1.0]), lam=1.0)
    with pytest.raises(ValueError):
        tail.values(np.array([[1.0, 0, 0, 0]]))


# ------------------------------------------------------------- interpolation


def test_interpolation_matches_radius_outside_unit_ball():
    assert interpolation_R(np.array([[2.0, 0.0, 0.0]]))[0] == 2.0


def test_interpolation_flat_at_origin():
    grad = oracles.fd_gradient(
        lambda y: interpolation_R(y[None, :])[0], np.zeros(4), step=1e-6
    )
    assert np.linalg.norm(grad) < 1e-6
    assert interpolation_R(np.zeros((1, 4)))[0] == 0.0


def test_interpolation_laplacian_is_bounded():
    n = 4
    rng = np.random.default_rng(9)
    sup = 0.0
    for point in rng.uniform(-1.5, 1.5, (200, n)):
        if abs(np.linalg.norm(point) - 1.0) < 1e-2 or np.linalg.norm(point) < 1e-2:
            continue
        lap = oracles.fd_laplacian(lambda y: interpolation_R(y[None, :])[0], point)
        sup = max(sup, abs(lap))
    assert np.isfinite(sup)
    assert sup < 50.0


# ----------------------------------------------------------- refined profile


@pytest.mark.parametrize(
    "changes",
    [
        {"harmonic_weights": (1.0,)},
        {"harmonic_points": ((3.0, 0, 0, 0, 0, 0),), "harmonic_weights": ()},
        {"harmonic_points": ((3.0, 0, 0, 0, 0, 0), (0, -4.0, 0, 0, 0))},
        {"gamma": var(5, 0, 2)},
    ],
    ids=["two-points-one-weight", "one-point-no-weight", "short-point",
         "gamma-dimension"],
)
def test_spec_refuses_mismatched_sources_and_gamma(changes):
    spec = example_profile_spec()
    fields = {name: getattr(spec, name) for name in spec.__dataclass_fields__}
    with pytest.raises(ValueError):
        RefinedProfileSpec(**{**fields, **changes})


@pytest.mark.parametrize("field", ["lam", "joint_radius_c"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_spec_refuses_a_scale_that_is_not_finite(field, value):
    # a NaN passes ``<= 0`` and read NaN at every point; inf used to meet the
    # unrelated harmonic-source check
    spec = example_profile_spec()
    fields = {name: getattr(spec, name) for name in spec.__dataclass_fields__}
    with pytest.raises(ValueError, match="^scale and joint radius must be finite"):
        RefinedProfileSpec(**{**fields, field: value})


@pytest.mark.parametrize("field", ["lam", "joint_radius_c"])
def test_spec_keeps_its_refusal_of_a_scale_at_or_below_zero(field):
    spec = example_profile_spec()
    fields = {name: getattr(spec, name) for name in spec.__dataclass_fields__}
    message = "^scale and joint radius must be positive$"
    for value in (0.0, -1.0):
        with pytest.raises(ValueError, match=message):
            RefinedProfileSpec(**{**fields, field: value})


def test_profile_peak_value_is_exact():
    spec = example_profile_spec()
    profile = RefinedProfile(spec)
    at_center = profile.total(np.asarray([spec.xi]))[0]
    assert at_center == profile.bubble_profile.peak
    assert profile.harmonic_group(np.asarray([spec.xi]))[0] == 0.0


def test_profile_joint_identity():
    spec = example_profile_spec()
    profile = RefinedProfile(spec)
    n = spec.n
    # at the splice sphere |Y| = c / lam the group restores the plain tail
    Y = np.zeros(n)
    Y[0] = spec.joint_radius_c / spec.lam
    y = np.asarray(spec.xi) + spec.lam * Y
    group = profile.harmonic_group(y[None, :])[0]
    target = spec.lam ** ((n - 2) / 2.0) * spec.tail().values(Y[None, :])[0]
    assert abs(group - target) < 1e-12


def test_profile_correction_forms_agree():
    spec = example_profile_spec()
    profile = RefinedProfile(spec)
    rng = np.random.default_rng(10)
    pts = rng.uniform(-1, 1, (100, spec.n))
    direct = profile.correction(pts)
    critical = oracles.correction_critical_power_form(profile, pts)
    assert np.allclose(direct, critical, rtol=1e-12, atol=1e-18)


def test_profile_peak_scales_with_lam():
    n = 6
    a = RefinedProfile(example_profile_spec(lam=0.1)).total(
        np.zeros((1, n))
    )[0]
    b = RefinedProfile(example_profile_spec(lam=0.05)).total(
        np.zeros((1, n))
    )[0]
    assert b / a == pytest.approx(2.0 ** ((n - 2) / 2.0), rel=1e-12)


def test_estimator_vanishes_identically_on_the_assembled_profile():
    spec = example_profile_spec()
    profile = RefinedProfile(spec)
    rng = np.random.default_rng(11)
    Ys = rng.uniform(-3, 3, (100, spec.n))
    assert np.abs(d_pi(profile.total, spec, Ys)).max() < 1e-12


def test_estimator_zero_and_gradient_scaling_on_manufactured_solution():
    n = 6
    mags = []
    for lam in (0.1, 0.05, 0.025):
        spec = example_profile_spec(lam=lam)
        profile = RefinedProfile(spec)

        def manufactured(points):
            return profile.bubble(points) + profile.correction(points)

        assert d_pi(manufactured, spec, np.zeros((1, n)))[0] == 0.0
        grad = oracles.fd_gradient(
            lambda Y: d_pi(manufactured, spec, Y[None, :])[0],
            np.zeros(n),
            step=1e-3,
        )
        mags.append(np.linalg.norm(grad))
    slopes = [
        math.log(mags[i] / mags[i + 1]) / math.log(2.0) for i in range(len(mags) - 1)
    ]
    for slope in slopes:
        assert abs(slope - (n - 1)) < 0.2


def test_mezzo_scale_deviation_is_stable():
    n = 6
    rng = np.random.default_rng(12)
    constants = []
    for lam in (0.1, 0.05, 0.025):
        spec = example_profile_spec(lam=lam)
        profile = RefinedProfile(spec)
        directions = rng.standard_normal((200, n))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        radii = rng.uniform(0.2 / lam, 0.5 / lam, 200)
        Ys = directions * radii[:, None]
        ys = np.asarray(spec.xi) + lam * Ys
        V = lam ** ((n - 2) / 2.0) * profile.total(ys)
        A = (1.0 / (1.0 + (Ys * Ys).sum(axis=1))) ** ((n - 2) / 2.0)
        H = spec.tail().values(Ys)
        deviation = np.abs(V - A - lam ** (n - 2) * H)
        constants.append(deviation.max() / lam ** (n - 2))
    assert max(constants) / min(constants) < 1.5


def test_profile_components_sum_to_total():
    spec = example_profile_spec()
    profile = RefinedProfile(spec)
    rng = np.random.default_rng(13)
    pts = rng.uniform(-0.5, 0.5, (50, spec.n))
    table = profile.components(pts)
    assert table.shape == (50, 4)
    assert np.allclose(table[:, :3].sum(axis=1), table[:, 3], rtol=0, atol=0)


# ----------------------------------------------------------- Green function


def test_green_vanishes_on_the_boundary():
    ball = GreensBall(4, 1.0)
    xi = np.array([0.3, 0.1, -0.2, 0.0])
    rng = np.random.default_rng(14)
    for _ in range(40):
        direction = rng.standard_normal(4)
        direction /= np.linalg.norm(direction)
        assert abs(ball.green(direction, xi)) < 1e-8


def test_reflection_radius_identity():
    ball = GreensBall(5, 2.0)
    xi = np.array([0.5, 0.0, 0.3, 0.0, -0.1])
    assert np.linalg.norm(ball.reflect(xi)) == pytest.approx(
        ball.a**2 / np.linalg.norm(xi), rel=1e-14
    )


@pytest.mark.parametrize("n", [3, 4, 6])
def test_poisson_kernel_normalizes(n):
    ball = GreensBall(n, 1.5)
    xi = np.zeros(n)
    xi[0] = 0.4
    assert ball.poisson_normalization(xi) == pytest.approx(1.0, abs=1e-4)


def test_green_and_poisson_bound_constants():
    ball = GreensBall(4, 1.0)
    for delta in (0.1, 0.3):
        report = ball.check_bounds(delta, samples=300, seed=15)
        assert np.isfinite(report["green_measured"])
        assert np.isfinite(report["poisson_measured"])
        assert report["green_ok"] and report["poisson_ok"]


def test_check_bounds_refuses_to_measure_nothing():
    ball = GreensBall(4, 1.0)
    for samples in (0, -5):
        with pytest.raises(ValueError, match=r"^samples must be >= 1, got "):
            ball.check_bounds(0.1, samples=samples)
    report = ball.check_bounds(0.1, samples=1)
    assert report["green_measured"] > 0 and report["poisson_measured"] > 0
    assert report["green_ok"] and report["poisson_ok"]


# --------------------------------------------------------- rescaled average


def test_rescaled_average_of_pure_bubble_matches_sech_profile():
    n, eps = 4, 0.01
    profile = BubbleProfile(n, eps, (0.0,) * n)
    ts = np.linspace(-3, 3, 61)
    radii = np.exp(-(ts - np.log(eps)))
    wbar, (t_sorted, w_sorted), critical = rescaled_average(
        profile.values, np.zeros(n), radii
    )
    assert critical == 1
    for t, w in zip(t_sorted, w_sorted):
        model = 2.0 ** (-(n - 2) / 2.0) * (1.0 / np.cosh(t + np.log(eps))) ** (
            (n - 2) / 2.0
        )
        assert abs(w - model) < 1e-3


def test_rescaled_average_sees_two_bubbles():
    # the companion bubble is kept wide enough for the node set to resolve
    # its sphere average; the radii span both concentration scales
    n = 4
    one = BubbleProfile(n, 0.01, (0.0,) * n)
    two = BubbleProfile(n, 0.3, (1.0, 0.0, 0.0, 0.0))
    combined = lambda pts: one.values(pts) + two.values(pts)
    ts = np.linspace(-3, 6, 160)
    _, _, critical = rescaled_average(combined, np.zeros(n), np.exp(-ts))
    assert critical >= 2


# ------------------------------------------------------- inequality scanning


def test_inequality_scan_records_the_printed_form_discrepancy():
    report = oracles.linearization_bound_check(samples=10_000, seed=0, n=4)
    assert report["printed_power_difference_form_fails"]
    witness = report["printed_witness"]
    assert witness["lhs"] == 3.0 and witness["rhs"] < witness["lhs"]
    # the mean-value form with the factor p on the other side does hold
    assert 2.0 * (2.0 - 1.0) * 2.0 >= witness["lhs"]
    assert report["mean_value_form_ok"]


def test_inequality_scan_perturbation_bounds_hold():
    report = oracles.linearization_bound_check(samples=10_000, seed=1, n=4)
    assert report["perturbation_bound_ok"]
    assert report["three_term_bound_ok"]
    assert report["perturbation_worst_margin"] >= 0.0
    assert np.isfinite(report["decomposition_constant"])


def test_inequality_scan_zero_perturbation_is_trivial():
    beta = 4.0
    assert abs((1.0 + 0.0) ** beta - 1.0) <= 0.1
