import math
from fractions import Fraction

import numpy as np
import pytest

from bubble_correction import kernels
from bubble_correction.polynomials import Polynomial

from conftest import random_homogeneous
from oracles import eval_poly_cube


def test_poly_arrays_follow_term_order():
    p = Polynomial(2, {(0, 2): Fraction(1, 2), (1, 0): 3})
    exps, coeffs = kernels.poly_arrays(p)
    assert exps.tolist() == [[1, 0], [0, 2]]
    assert coeffs.tolist() == [3.0, 0.5]


def test_eval_polynomial_matches_exact_evaluation(rng):
    for _ in range(10):
        n = rng.choice([2, 3, 4])
        p = random_homogeneous(rng, n, rng.choice([1, 2, 3, 4]))
        pts = np.array(
            [[rng.uniform(-2, 2) for _ in range(n)] for _ in range(20)]
        )
        fast = kernels.eval_polynomial(p, pts)
        slow = np.array([float(p.evaluate([Fraction(x) for x in pt])) for pt in pts])
        assert np.allclose(fast, slow, rtol=1e-12, atol=1e-12)


def test_bubble_and_tail_match_scalar_closed_forms():
    rng = np.random.default_rng(0)
    n = 3
    pts = rng.uniform(-1.5, 1.5, (64, n))
    center = np.array([0.2, -0.1, 0.3])
    eps, exponent = 0.7, (n - 2) / 2.0
    sources = np.array([[2.0, 0.0, 0.0], [0.0, -3.0, 1.0]])
    weights = np.array([1.0, 0.5])
    power = n - 2

    bubble = kernels.bubble_values(pts, eps, center, exponent)
    tail = kernels.tail_values(pts, sources, weights, power)
    for p, b, t in zip(pts.tolist(), bubble, tail):
        d2 = sum((x - c) ** 2 for x, c in zip(p, center.tolist()))
        assert b == pytest.approx((eps / (eps * eps + d2)) ** exponent, rel=1e-13)
        expected = sum(
            w * math.dist(p, s) ** -power
            for s, w in zip(sources.tolist(), weights.tolist())
        )
        assert t == pytest.approx(expected, rel=1e-13)


def test_empty_polynomial_evaluates_to_zero():
    exps, coeffs = kernels.poly_arrays(Polynomial.zero(3))
    pts = np.ones((5, 3))
    assert kernels.eval_poly(pts, exps, coeffs).tolist() == [0.0] * 5


def assert_matches_cube(points, exps, coeffs):
    fast = kernels.eval_poly(points, exps, coeffs)
    assert np.array_equal(fast, eval_poly_cube(points, exps, coeffs))


def test_eval_poly_matches_power_cube_bit_for_bit():
    rng = np.random.default_rng(20)
    for _ in range(60):
        n = int(rng.integers(1, 11))
        t = int(rng.integers(1, 80))
        m = int(rng.integers(1, 2000))
        exps = rng.integers(0, int(rng.integers(1, 9)) + 1, (t, n))
        coeffs = rng.standard_normal(t) * 10.0 ** int(rng.integers(-3, 4))
        points = 3.0 * rng.standard_normal((m, n))
        assert_matches_cube(points, exps, coeffs)


def test_eval_poly_lone_square_matches_pow():
    # a variable whose only exponent is 2: pow(x, 2), not numpy's x*x path
    rng = np.random.default_rng(21)
    points = 3.0 * rng.standard_normal((20_000, 3))
    assert_matches_cube(points, np.array([[0, 2, 0]]), np.array([1.3]))


def test_eval_poly_skips_all_zero_exponent_columns():
    rng = np.random.default_rng(22)
    points = rng.standard_normal((500, 4))
    exps = np.array([[3, 0, 1, 0], [0, 0, 2, 0], [1, 0, 0, 0]])
    assert_matches_cube(points, exps, rng.standard_normal(3))
    constant = np.zeros((2, 4), dtype=np.int64)
    assert_matches_cube(points, constant, np.array([0.5, 0.25]))
    assert kernels.eval_poly(points, constant, np.array([0.5, 0.25])).tolist() == (
        [0.75] * 500
    )


def test_eval_poly_matches_power_cube_on_many_rows():
    # enough rows for the matvec to take the threaded BLAS path
    rng = np.random.default_rng(23)
    exps = rng.integers(0, 6, (40, 8))
    points = rng.standard_normal((25_000, 8))
    assert_matches_cube(points, exps, rng.standard_normal(40))


def block_rows(t):
    """Rows of the monomial matrix that ``eval_poly`` fills per block."""
    return max(1, kernels._SCRATCH_BYTES // (8 * t))


@pytest.mark.parametrize(
    "t, m",
    [
        (40_000, 10),  # blocks of 3 rows, and a last block of 1
        (40_000, 2),  # less than one block
        (40_000, 1),
        (300, 2 * block_rows(300) + 17),  # m not a multiple of the block
        (300, block_rows(300)),  # exactly one block
        (1, 5),
    ],
)
def test_eval_poly_matches_power_cube_across_row_blocks(t, m):
    rng = np.random.default_rng(24)
    n = 4
    exps = rng.integers(0, 7, (t, n))
    points = 2.0 * rng.standard_normal((m, n))
    assert_matches_cube(points, exps, rng.standard_normal(t))


def test_eval_poly_peak_memory_is_one_monomial_matrix():
    import tracemalloc

    rng = np.random.default_rng(25)
    m, t, n = 20_000, 200, 6
    exps = rng.integers(0, 7, (t, n))
    points = rng.standard_normal((m, n))
    coeffs = rng.standard_normal(t)
    tracemalloc.start()
    try:
        kernels.eval_poly(points, exps, coeffs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the slack covers the (m,) result, the per-variable gather indexes and
    # exponent tables and numpy's bookkeeping; a second (m, t) matrix would
    # add 32 MB
    slack = 8 * m + 8 * t * n + 256 * 1024
    assert peak <= m * t * 8 + kernels._SCRATCH_BYTES + slack
