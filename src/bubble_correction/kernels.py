"""Hot float kernels: batch evaluation of polynomials, bubbles and tails.

Every sampling loop in the package (sphere scans, residual scans, quadrature
grids) funnels through the three vectorized numpy kernels here; there is one
implementation of each and nothing to configure.

The exact-rational tier of the package never comes through here: the
correctness-critical identities stay in ``Fraction`` arithmetic, and only
float sampling is vectorized.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "eval_poly",
    "bubble_values",
    "tail_values",
    "poly_arrays",
]


def poly_arrays(poly):
    """Exponent matrix (t, n) int64 and coefficient vector (t,) float64 for a
    Polynomial, in its deterministic term order."""
    items = poly.sorted_terms()
    if not items:
        return (
            np.zeros((0, poly.dimension), dtype=np.int64),
            np.zeros(0, dtype=np.float64),
        )
    exps = np.array([alpha for alpha, _ in items], dtype=np.int64)
    coeffs = np.array([float(c) for _, c in items], dtype=np.float64)
    return exps, coeffs


def eval_poly(points, exps, coeffs):
    """Evaluate sum_t coeffs[t] * prod_i points[:, i]**exps[t, i]."""
    points = np.asarray(points, dtype=np.float64)
    if coeffs.size == 0:
        return np.zeros(points.shape[0])
    powers = points[:, None, :] ** exps[None, :, :]
    return powers.prod(axis=2) @ coeffs


def bubble_values(points, eps, center, exponent):
    """(eps / (eps^2 + |y - center|^2))**exponent, row-wise."""
    points = np.asarray(points, dtype=np.float64)
    diff = points - np.asarray(center, dtype=np.float64)[None, :]
    return (eps / (eps * eps + (diff * diff).sum(axis=1))) ** exponent


def tail_values(points, sources, weights, power):
    """sum_j weights[j] * |y - sources[j]|^(-power), row-wise."""
    points = np.asarray(points, dtype=np.float64)
    diff = points[:, None, :] - np.asarray(sources, dtype=np.float64)[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    return (np.asarray(weights, dtype=np.float64)[None, :] * dist**-power).sum(
        axis=1
    )


def eval_polynomial(poly, points):
    """Convenience wrapper: float values of a Polynomial at an (m, n) array."""
    exps, coeffs = poly_arrays(poly)
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if points.shape[1] != poly.dimension:
        raise ValueError(
            f"points have {points.shape[1]} columns, polynomial dimension is "
            f"{poly.dimension}"
        )
    return eval_poly(points, exps, coeffs)
