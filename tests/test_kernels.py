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
    # from the exponent matrix and from its power tables, built once
    cube = eval_poly_cube(points, exps, coeffs)
    for form in (exps, kernels.power_tables(exps)):
        assert np.array_equal(kernels.eval_poly(points, form, coeffs), cube)


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


def test_eval_poly_lone_square_is_x_times_x():
    # a variable whose only exponent is 2: its power table's running product
    # gives x*x, then the coefficient multiplies it, on every row
    rng = np.random.default_rng(21)
    points = 3.0 * rng.standard_normal((20_000, 3))
    exps, coeffs = np.array([[0, 2, 0]]), np.array([1.3])
    x = points[:, 1]
    assert np.array_equal(kernels.eval_poly(points, exps, coeffs), (x * x) * 1.3)
    assert_matches_cube(points, exps, coeffs)


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
    # many blocks of rows, each summed row by row
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


def traced_peak(call, *args):
    """tracemalloc's peak, in bytes, over one call."""
    import tracemalloc

    tracemalloc.start()
    try:
        call(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_eval_poly_peak_memory_is_two_blocks():
    # one (m, t) monomial matrix would be 32 MB; eval holds two blocks of
    # about 1 MiB, a power table of at most 8 columns and the (m,) result
    rng = np.random.default_rng(25)
    m, t, n = 20_000, 200, 6
    exps = rng.integers(0, 7, (t, n))
    points = rng.standard_normal((m, n))
    assert traced_peak(kernels.eval_poly, points, exps, rng.standard_normal(t)) < (
        4 * 2**20)


def test_eval_poly_lone_high_power_builds_no_wide_table():
    # y1**100 walks 99 multiplies but keeps only the exponents 0 and 100: an
    # (m, 101) table would be 16 MB
    m = 20_000
    points = np.random.default_rng(28).uniform(-2.0, 2.0, (m, 1))
    exps, coeffs = np.array([[100]]), np.array([0.5])
    got = kernels.eval_poly(points, exps, coeffs)
    assert np.array_equal(got, eval_poly_cube(points, exps, coeffs))
    assert traced_peak(kernels.eval_poly, points, exps, coeffs) < 16 * 8 * m


def test_eval_poly_is_row_local():
    # any run of rows evaluates to the bits it has in the whole batch, the
    # row blocks cutting it anywhere
    rng = np.random.default_rng(26)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        t = int(rng.integers(1, 400))
        m = int(rng.integers(1, 3000))
        exps = rng.integers(0, 7, (t, n))
        coeffs = rng.standard_normal(t)
        points = 3.0 * rng.standard_normal((m, n))
        whole = kernels.eval_poly(points, exps, coeffs)
        k = int(rng.integers(0, m))
        r = int(rng.integers(1, m - k + 1))
        part = kernels.eval_poly(points[k : k + r], exps, coeffs)
        assert np.array_equal(whole[k : k + r], part)


def test_eval_poly_is_within_its_rounding_bound():
    # |eval - exact| <= (d + t + 1) u sum_a |c_a| |y^a|, u = 2^-53 and d the
    # degree: d - 1 multiplies make a monomial, one applies its coefficient
    # and the row sum adds at most t - 1 roundings
    rng = np.random.default_rng(27)
    u = Fraction(1, 2**53)
    for _ in range(12):
        n = int(rng.integers(1, 5))
        t = int(rng.integers(1, 25))
        exps = rng.integers(0, 6, (t, n))
        coeffs = rng.standard_normal(t) * 10.0 ** rng.integers(-2, 3, t)
        points = 2.0 * rng.standard_normal((15, n))
        d = int(exps.sum(axis=1).max())
        got = kernels.eval_poly(points, exps, coeffs)
        for row, value in zip(points.tolist(), got.tolist()):
            terms = [
                Fraction(c) * math.prod(Fraction(x) ** a for x, a in zip(row, alpha))
                for c, alpha in zip(coeffs.tolist(), exps.tolist())
            ]
            scale = sum(abs(term) for term in terms)
            assert abs(Fraction(value) - sum(terms)) <= (d + t + 1) * u * scale
