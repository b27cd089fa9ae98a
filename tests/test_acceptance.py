"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they pass.  Every tolerance is pinned here; nothing is calibrated at
run time.
"""

import json
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from bubble_correction import quadrature
from bubble_correction.balance import (
    gradient_lower_bound,
    multi_point_balance,
    parity_certificate,
    pohozaev_volume_vs_surface,
    single_point_constraints,
)
from bubble_correction.errors import ResidueObstructionError
from bubble_correction.moments import (
    j_multiple,
    moment_integral,
)
from bubble_correction.polynomials import (
    Polynomial,
    iterated_laplacian,
)
from bubble_correction.profiles import (
    BubbleProfile,
    GreensBall,
    RefinedProfile,
    SynthesizedCurvature,
    d_pi,
    linearized_residual,
    rescaled_average,
)
from bubble_correction.reduction import (
    apply_L,
    h_of,
    kernel_basis,
    residue_terms,
    solve_gamma,
    solve_general,
    coefficient_table,
)
from bubble_correction.reduction import _combination, _laplacian_chain

import oracles
from conftest import (
    alternating_quartic,
    harmonic_homogeneous,
    random_even_homogeneous,
    random_homogeneous,
    run_cli,
)
from test_balance import mirrored_pair_config
from test_profiles import example_profile_spec


def verdict(number, label):
    print(f"[criterion {number:02d}] {label}: PASS")


def admissible_instance(rng, n, ell):
    poly = oracles.project_to_admissible(random_homogeneous(rng, n, ell))
    while poly.is_zero or poly.degree() != ell:
        poly = oracles.project_to_admissible(random_homogeneous(rng, n, ell))
    return poly


def obstructed_instance(rng, n, ell):
    poly = random_homogeneous(rng, n, ell)
    if iterated_laplacian(poly, h_of(ell)).is_zero:
        if ell % 2 == 0:
            poly = poly + Polynomial.r_squared(n) ** (ell // 2)
        else:
            poly = poly + Polynomial.r_squared(n) ** (
                (ell - 1) // 2
            ) * Polynomial.variable(n, 0)
    assert not iterated_laplacian(poly, h_of(ell)).is_zero
    return poly


def test_criterion_01_harmonic_sources_scale_exactly():
    rng = random.Random(101)
    start = time.monotonic()
    for _ in range(20):
        n = rng.randint(4, 8)
        ell = rng.randint(2, n - 2)
        poly = harmonic_homogeneous(rng, n, ell)
        solution = solve_gamma(poly)
        expected = Fraction(-1, 2 * n * (ell - 1)) * poly
        # the difference must lie in the kernel span; here it is exactly zero
        assert solution.gamma == expected
        assert apply_L(solution.gamma) == poly
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    verdict(1, "harmonic sources solved by a single exact scaling")


def test_criterion_02_degree_one_fixture_identity(degree_one_correction):
    n, gamma, source = degree_one_correction
    assert n == 4
    r2 = Polynomial.r_squared(n)
    y1 = Polynomial.variable(n, 0)
    explicit = Fraction(1, 12) * (r2 * y1) + Fraction(1, 96) * (r2**2 * y1)
    assert gamma == explicit
    assert apply_L(explicit) == y1
    verdict(2, "degree-one fixture solves the weighted equation exactly")


def test_criterion_03_kernel_annihilation():
    for n in range(3, 11):
        for kappa in kernel_basis(n):
            assert apply_L(kappa).is_zero
    verdict(3, "kernel annihilated exactly in dimensions 3..10")


def test_criterion_04_soundness_and_residue_ledger():
    rng = random.Random(104)
    start = time.monotonic()
    for _ in range(50):
        n = rng.randint(4, 10)
        ell = rng.randint(2, min(n - 2, n + 1))
        poly = admissible_instance(rng, n, ell)
        solution = solve_gamma(poly)
        assert apply_L(solution.gamma) == poly
    for _ in range(50):
        n = rng.randint(4, 10)
        ell = rng.randint(2, min(n + 1, 8))
        poly = random_homogeneous(rng, n, ell)
        h = h_of(ell)
        table = coefficient_table(n, ell)
        combo = _combination(poly, _laplacian_chain(poly, h), table)
        assert apply_L(combo) == poly + residue_terms(poly)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    verdict(4, "construction and residue ledger verified exactly on 100 draws")


def test_criterion_05_obstruction_iff():
    rng = random.Random(105)
    for _ in range(20):
        n = rng.randint(4, 9)
        ell = rng.randint(2, min(n - 2, n + 1))
        poly = admissible_instance(rng, n, ell)
        assert apply_L(solve_gamma(poly).gamma) == poly
    for _ in range(20):
        n = rng.randint(4, 9)
        ell = rng.randint(2, min(n - 2, n + 1))
        poly = obstructed_instance(rng, n, ell)
        with pytest.raises(ResidueObstructionError) as err:
            solve_gamma(poly)
        assert not err.value.residue.is_zero
    verdict(5, "solvability holds iff the top iterated Laplacian vanishes")


def test_criterion_06_radial_completion():
    rng = random.Random(106)
    for n in (4, 6, 8):
        r2 = Polynomial.r_squared(n)
        assert apply_L(r2 ** (n // 2)) == (2 * n * (n - 1)) * r2 ** (n // 2 - 1)
        assert apply_L(r2) == Polynomial.constant(n, 2 * n)
        for ell in range(2, n - 1, 2):
            for _ in range(10):
                poly = obstructed_instance(rng, n, ell)
                solution = solve_general(poly)
                assert solution.radial_completion is not None
                assert apply_L(solution.total()) == poly
    verdict(6, "radial completion absorbs every tested residue exactly")


def test_criterion_07_moment_calculus():
    rng = random.Random(107)
    for _ in range(30):
        n = rng.randint(4, 9)
        ell = rng.choice([e for e in range(2, n) if e % 2 == 0])
        poly = random_even_homogeneous(rng, n, ell)
        assert j_multiple(poly) == oracles.j_multiple_via_laplacian(poly)
    for _ in range(12):
        n = rng.randint(4, 8)
        ell = rng.choice([e for e in range(2, n) if e % 2 == 0])
        poly = random_even_homogeneous(rng, n, ell)
        closed = moment_integral(poly).numeric
        oracle = quadrature.weighted_poly_integral(poly)
        assert closed == pytest.approx(oracle, rel=1e-6, abs=1e-12)
    checked = 0
    while checked < 30:
        n = rng.randint(5, 9)
        ell = rng.choice([e for e in range(2, n - 1) if e % 2 == 0])
        poly = random_even_homogeneous(rng, n, ell)
        top = iterated_laplacian(poly, ell // 2)
        assert (j_multiple(poly) == 0) == top.is_zero
        projected = oracles.project_to_admissible(poly)
        if not projected.is_zero:
            assert j_multiple(projected) == 0
            checked += 1
    from test_moments import _even_alphas

    n = 10
    checked = 0
    for k in (2, 4, 6):
        for alpha_mid in _even_alphas(3, 4):
            alpha = (0,) + alpha_mid + (0,) * (n - 4)
            assert oracles.laplacian_identity_check(n, k, alpha)
            if k + 2 + sum(alpha) <= n - 1:
                assert oracles.reduction_identity_check(n, k, alpha)
            checked += 1
    assert checked >= 30
    verdict(7, "moment calculus: dual routes, oracle, and trade identities")


def test_criterion_08_end_to_end_separable_model(tmp_path):
    n = 8
    bracket = alternating_quartic(n)
    source = Fraction(-1) * bracket  # curvature sign convention
    assert iterated_laplacian(source, h_of(4)).is_zero
    low, _high = gradient_lower_bound(source, samples=10_000)
    assert low > 0
    assert parity_certificate(source)
    path = tmp_path / "source.json"
    path.write_text(json.dumps(source.to_json()))
    out = tmp_path / "solution.json"
    result = run_cli(["solve", "--input", str(path), "--output", str(out)], tmp_path)
    assert result.returncode == 0, result.stderr
    assert json.loads(out.read_text())["verified"] is True
    verdict(8, "separable model passes every non-degeneracy gate end to end")


def test_criterion_09_balance_controls():
    report = multi_point_balance(mirrored_pair_config())
    assert report.passed and report.residual_exact == 0
    perturbed = multi_point_balance(
        mirrored_pair_config(perturb=Fraction(1, 1000))
    )
    assert not perturbed.passed

    n = 6
    poly = Fraction(-1) * alternating_quartic(n)
    at_origin = single_point_constraints(poly, (0,) * n)
    assert all(r.passed for r in at_origin)
    off_origin = single_point_constraints(poly, (1,) + (0,) * (n - 1))
    value = next(
        r for r in off_origin if r.constraint == "taylor_value_at_drift"
    )
    assert not value.passed and abs(value.residual_exact) == 1
    verdict(9, "balance controls: exact cancelation and perturbation failure")


def test_criterion_10_profile_self_consistency():
    n = 6
    magnitudes = []
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
        magnitudes.append(np.linalg.norm(grad))
    for i in range(len(magnitudes) - 1):
        slope = math.log(magnitudes[i] / magnitudes[i + 1]) / math.log(2.0)
        assert abs(slope - (n - 1)) < 0.2

    spec = example_profile_spec(lam=0.05)
    profile = RefinedProfile(spec)
    Y = np.zeros(n)
    Y[0] = spec.joint_radius_c / spec.lam
    y = np.asarray(spec.xi) + spec.lam * Y
    group = profile.harmonic_group(y[None, :])[0]
    target = spec.lam ** ((n - 2) / 2.0) * spec.tail().values(Y[None, :])[0]
    assert abs(group - target) <= 1e-12
    assert profile.harmonic_group(np.asarray([spec.xi]))[0] == 0.0

    report = linearized_residual(
        spec.gamma, apply_L(spec.gamma), samples=1000, seed=10
    )
    assert report.max_abs < 1e-9
    verdict(10, "profile estimator, joint identity and residual within tolerance")


def test_criterion_11_balance_law_on_exact_bubbles():
    for n in (3, 4, 5):
        profile = BubbleProfile(n, 0.5, (0.0,) * n)
        report = pohozaev_volume_vs_surface(
            profile, SynthesizedCurvature(Polynomial.zero(n)), rho=1.0
        )
        assert abs(report.details["volume_side"]) < 1e-6
        assert abs(report.details["flux_side"]) < 1e-6
        assert report.passed
    verdict(11, "balance law vanishes on exact bubbles in dimensions 3..5")


def test_criterion_12_green_and_poisson():
    ball = GreensBall(4, 1.0)
    xi = np.array([0.25, -0.1, 0.05, 0.0])
    rng = np.random.default_rng(112)
    for _ in range(50):
        direction = rng.standard_normal(4)
        direction /= np.linalg.norm(direction)
        assert abs(ball.green(direction, xi)) < 1e-8
    assert ball.poisson_normalization(xi) == pytest.approx(1.0, abs=1e-4)
    for delta in (0.1, 0.3):
        report = ball.check_bounds(delta, samples=300, seed=112)
        assert np.isfinite(report["green_measured"])
        assert np.isfinite(report["poisson_measured"])
        assert report["green_ok"] and report["poisson_ok"]
    verdict(12, "Green boundary decay, Poisson mass and bound constants")


def test_criterion_13_rescaled_average_diagnostic():
    n, eps = 4, 0.01
    profile = BubbleProfile(n, eps, (0.0,) * n)
    ts = np.linspace(-3, 3, 61)
    radii = np.exp(-(ts - np.log(eps)))
    _wbar, (t_sorted, w_sorted), critical = rescaled_average(
        profile.values, np.zeros(n), radii
    )
    assert critical == 1
    for t, w in zip(t_sorted, w_sorted):
        model = 2.0 ** (-(n - 2) / 2.0) * (
            1.0 / np.cosh(t + np.log(eps))
        ) ** ((n - 2) / 2.0)
        assert abs(w - model) < 1e-3
    verdict(13, "rescaled average matches the sech profile with one peak")


def test_criterion_14_cli_determinism(tmp_path):
    n = 8
    source = Fraction(-1) * alternating_quartic(n)
    src = tmp_path / "source.json"
    src.write_text(json.dumps(source.to_json()))
    outputs = []
    for tag in ("a", "b"):
        sol = tmp_path / f"sol-{tag}.json"
        scan = tmp_path / f"scan-{tag}.json"
        table = tmp_path / f"table-{tag}.json"
        assert run_cli(
            ["solve", "--input", str(src), "--output", str(sol)], tmp_path
        ).returncode == 0
        assert run_cli(
            [
                "residual-scan",
                "--input", str(sol),
                "--source", str(src),
                "--seed", "9",
                "--output", str(scan),
            ],
            tmp_path,
        ).returncode == 0
        assert run_cli(
            ["table", "--n", "7", "--ell", "6", "--output", str(table)], tmp_path
        ).returncode == 0
        outputs.append((sol, scan, table))
    for first, second in zip(*outputs):
        assert first.read_bytes() == second.read_bytes()
    verdict(14, "repeated CLI runs with a fixed seed are byte identical")
