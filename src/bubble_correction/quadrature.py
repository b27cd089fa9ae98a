"""Deterministic quadrature helpers for bubble-weighted integrals.

The workhorse is a radial-angular split: angular moments of monomials over
the unit sphere have an exact Gamma-function form, and the radial factor is
integrated with Gauss-Legendre nodes after the substitution r = tan(theta),
which maps [0, inf) onto [0, pi/2).  Node sets are fixed (256 points by
default) so every result is reproducible; there is no adaptivity.
"""

from __future__ import annotations

from functools import lru_cache
from math import gamma, pi, atan

from ._numpy import np

__all__ = [
    "gauss_legendre",
    "sphere_area",
    "latitude_rule",
    "surface_monomial_integral",
    "radial_weight_integral",
    "weighted_poly_integral",
    "sphere_nodes",
    "sphere_average",
    "ball_integral",
]

DEFAULT_RADIAL_NODES = 256
# the node counts of ``ball_integral``: 128 shells, each averaged over 4,096
# sphere nodes
BALL_RADIAL_NODES = 128
BALL_SPHERE_COUNT = 4096
# the node count of ``latitude_rule``, shared by the Poisson normalization and
# the balance law's axial flux nodes
LATITUDE_NODES = 512
# the one tolerance of quadrature-backed identities: ``green-check``'s Poisson
# normalization (absolute) and the balance law's volume-vs-flux verdict
# (relative)
TOL_QUAD = 1e-4


@lru_cache(maxsize=None)
def gauss_legendre(count):
    """Nodes/weights on [-1, 1], cached."""
    x, w = np.polynomial.legendre.leggauss(count)
    return x, w


def _mapped_nodes(a, b, count):
    x, w = gauss_legendre(count)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


def sphere_area(n):
    """Surface measure of the unit sphere in R^n."""
    return 2.0 * pi ** (n / 2.0) / gamma(n / 2.0)


def latitude_rule(n):
    """``LATITUDE_NODES``-point Gauss-Legendre rule in t = cos(theta) for
    functions of the polar angle on the unit sphere in R^n: nodes t, weights
    w and the latitude measure |S^(n-2)| * (1 - t^2)^((n-3)/2), so that
    sum(f(t) * lat * w) is the surface integral of f."""
    t, w = gauss_legendre(LATITUDE_NODES)
    lat = sphere_area(n - 1) * np.maximum(1 - t * t, 0) ** ((n - 3) / 2.0)
    return t, w, lat


def surface_monomial_integral(n, alpha):
    """Integral of y^alpha over the unit sphere in R^n (exact Gamma form).

    Zero whenever any exponent is odd.
    """
    if len(alpha) != n:
        raise ValueError(f"alpha length {len(alpha)} != n = {n}")
    if any(a % 2 for a in alpha):
        return 0.0
    num = 2.0
    for a in alpha:
        num *= gamma((a + 1) / 2.0)
    return num / gamma((sum(alpha) + n) / 2.0)


def radial_weight_integral(n, degree, upper=None, nodes=DEFAULT_RADIAL_NODES):
    """integral_0^upper r^(degree + n - 1) (1 + r^2)^(-n) dr, upper=None
    meaning infinity.  Requires degree <= n - 1 when upper is None."""
    if upper is None and degree >= n:
        raise ValueError("radial integral diverges for degree >= n")
    theta_max = pi / 2.0 if upper is None else atan(upper)
    theta, w = _mapped_nodes(0.0, theta_max, nodes)
    s, c = np.sin(theta), np.cos(theta)
    # r = tan(theta); integrand collapses to sin^(deg+n-1) * cos^(n-deg-1)
    return float((s ** (degree + n - 1) * c ** (n - degree - 1) * w).sum())


def weighted_poly_integral(poly, upper=None, nodes=DEFAULT_RADIAL_NODES):
    """integral of poly(y) * (1 + |y|^2)^(-n) over R^n (or the ball of radius
    ``upper``), via exact angular moments and Gauss-Legendre radial factors.

    This is the quadrature oracle against which the closed-form moment
    calculus is validated; it deliberately shares no code with it beyond the
    surface-moment formula.
    """
    n = poly.dimension
    total = 0.0
    radial_cache = {}
    for alpha, coeff in poly.sorted_terms():
        ang = surface_monomial_integral(n, alpha)
        if ang == 0.0:
            continue
        d = sum(alpha)
        if d not in radial_cache:
            radial_cache[d] = radial_weight_integral(n, d, upper, nodes)
        total += float(coeff) * ang * radial_cache[d]
    return total


def sphere_nodes(n, count, seed=0):
    """Quasi-uniform unit-sphere points: seeded Gaussian directions with
    antithetic pairs, so odd functions average to exactly zero."""
    rng = np.random.default_rng(seed)
    half = (count + 1) // 2
    g = rng.standard_normal((half, n))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return np.concatenate([g, -g], axis=0)


def sphere_average(func, n, center, radius, count=2048, seed=0):
    """Average of func over the sphere |y - center| = radius (equal-weight
    nodes from sphere_nodes)."""
    nodes = sphere_nodes(n, count, seed)
    pts = np.asarray(center, dtype=float)[None, :] + radius * nodes
    return float(np.mean(func(pts)))


def ball_integral(func, n, radius):
    """integral of func over the ball B_0(radius): ``BALL_RADIAL_NODES``
    Gauss-Legendre shells times averages over ``BALL_SPHERE_COUNT`` sphere
    nodes of seed 0."""
    r, w = _mapped_nodes(0.0, radius, BALL_RADIAL_NODES)
    area = sphere_area(n)
    total = 0.0
    nodes = sphere_nodes(n, BALL_SPHERE_COUNT)
    for ri, wi in zip(r, w):
        vals = func(ri * nodes)
        total += wi * ri ** (n - 1) * area * float(np.mean(vals))
    return total
