"""Closed-form calculus of bubble-weighted polynomial moments.

All integrals here are against the weight (1 + |y|^2)^(-n) on R^n.  The
weighted integral of a homogeneous P of degree 2h is an exact rational
multiple of one normalizing integral J(n, 2h), and every such multiple is
read from P's Laplacian chain: the y-degree-2k part of P(X + y) integrates
to lap^k P (X) / (2^k k!) times J(n, 2k) (the Pizzetti mean-value series).
``j_multiple`` is the centred case, the constant lap^h P / (2^h h!), and
runs its h passes on P's all-even-exponent part alone (the Laplacian keeps
every exponent's parity, so no other monomial reaches the constant).  For
the shifted moments ``_pizzetti_levels`` scales P's Laplacian chain
(``polynomials``' one chain builder, which ``reduction``'s solvers read too)
into the levels lap^k P / (2^k k!), and a shifted moment is a level's exact
value at X, each point read once: ``gradient_moment`` evaluates the gradient
of each level, and ``change_of_center``'s groups are the levels at xi / lam.
One float rule, ``_float_total``, turns every exact multiple into a float.
The test suite keeps the monomial bookkeeping (a product of modified double
factorials per even monomial) as the independent oracle of the chain.
``compose_shift`` (the Taylor loop) is left only to ``change_of_center``'s
quadrature cross-check, which so stays independent of the groups.

J itself has the closed form

    J(n, ell) = pi^(n/2) * 2^(-ell/2) * Gamma((n - ell) / 2) / Gamma(n),

derived from the Gamma form of sphere surface moments and a Beta-function
radial factor.  It is validated against the Gauss-Legendre quadrature oracle
(which in turn was validated once against seeded Monte Carlo) before being
trusted in any test.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import exp, factorial, gamma, inf, isfinite, lgamma, log, pi
from numbers import Rational
from typing import NamedTuple

from . import quadrature
from ._numpy import np
from .errors import DivergentMomentError
from .polynomials import (
    Polynomial,
    _evaluate,
    _integer_vector,
    _laplacian_chain,
    compose_shift,
    gradient,
    iterated_laplacian,
    rational_to_json,
)

__all__ = [
    "j_value",
    "IntegralResult",
    "j_multiple",
    "moment_integral",
    "weighted_integral",
    "gradient_moment",
    "CenterBreakdown",
    "change_of_center",
]


@lru_cache(maxsize=None)
def j_value(n, ell):
    """The normalizing integral J(n, ell) of y_1^2...y_{ell/2}^2 against
    (1 + |y|^2)^(-n), by the Gamma closed form.

    Gamma(n) overflows from n = 172 on, while J stays a normal float well
    beyond (about 1e-167 at n = 200); the same form is then summed in logs
    through ``lgamma``, and a J below the float range comes out 0.0.
    """
    if ell % 2:
        raise ValueError("J is defined for even degrees")
    if not 0 <= ell <= n - 1:
        raise DivergentMomentError(
            f"J(n={n}, ell={ell}) requires 0 <= ell <= n - 1"
        )
    try:
        return pi ** (n / 2.0) * 0.5 ** (ell // 2) * gamma((n - ell) / 2.0) / gamma(n)
    except OverflowError:
        return exp(
            (n / 2.0) * log(pi) - (ell // 2) * log(2.0)
            + lgamma((n - ell) / 2.0) - lgamma(n)
        )


def j_multiple(poly):
    """Exact rational multiple of J(n, deg) in the weighted integral of a
    homogeneous polynomial: the constant lap^h P / (2^h h!), h = deg // 2,
    with the h passes run on P's all-even-exponent part (empty in an odd
    degree, whose moment is 0).  A non-homogeneous P is refused."""
    if not poly.is_homogeneous():
        raise ValueError("j_multiple expects a homogeneous polynomial")
    h = (poly.degree() or 0) // 2
    even = {a: v for a, v in poly.nums.items() if not any(x % 2 for x in a)}
    top = iterated_laplacian(Polynomial._of(poly.dimension, even, poly.den), h)
    return top.constant_term() / (2**h * factorial(h))


class IntegralResult(NamedTuple):
    """Weighted integral of a homogeneous polynomial of degree ell: the exact
    rational multiple of J plus its float value.  ``J`` is J(n, ell), the
    normalizing integral the multiple scales (``j_value``), or 0.0 for odd
    ell, where the integral vanishes by symmetry; ``to_json`` is the whole
    ``integrate`` artifact.  A NamedTuple, so an ``integrate`` run never
    imports ``dataclasses``."""

    j_multiple: Fraction
    J: float
    numeric: float
    method: str

    def to_json(self):
        return {
            "j_multiple": rational_to_json(self.j_multiple),
            "J": self.J,
            "numeric": self.numeric,
            "method": self.method,
        }


def _float_moment(mult, j):
    """mult * J as a float: float(mult) * J, or, when float(mult) overflows,
    the exact product rounded once (a huge multiple times a tiny J can be a
    normal float); inf when that product is beyond the float range too."""
    try:
        return float(mult) * j
    except OverflowError:
        try:
            return float(mult * Fraction(j))
        except OverflowError:
            return inf


def _float_total(n, multiples):
    """The float sum of mult * J(n, d) over a {d: mult} map in ascending
    degree, odd degrees and zero multiples skipped: the one float rule of
    every moment route.  A total beyond the float range (a moment too large
    for a float, or an infinite sum) is refused with a ValueError naming the
    degree."""
    total = 0.0
    for degree, mult in multiples.items():
        if degree % 2 == 0 and mult:
            total += _float_moment(mult, j_value(n, degree))
            if not isfinite(total):
                raise ValueError(
                    f"the weighted integral at degree {degree} is beyond the "
                    "float range"
                )
    return total


def weighted_integral(poly):
    """Weighted integral of a general polynomial of degree <= n - 1: exact
    multiples of J per homogeneous degree, plus the float total by
    ``_float_total``.  Odd degrees integrate to zero by symmetry."""
    n = poly.dimension
    multiples = {}
    for degree, part in poly.homogeneous_parts().items():
        if degree >= n:
            raise DivergentMomentError(
                f"degree {degree} moment diverges in dimension {n} "
                "(needs degree <= n - 1)"
            )
        multiples[degree] = j_multiple(part)
    return multiples, _float_total(n, multiples)


def moment_integral(poly):
    """Weighted integral of a homogeneous polynomial of degree <= n - 1: the
    homogeneous case of weighted_integral, with its one multiple of J."""
    if not poly.is_homogeneous():
        raise ValueError("moment_integral expects a homogeneous polynomial")
    multiples, numeric = weighted_integral(poly)
    degree = poly.degree() or 0
    return IntegralResult(
        j_multiple=sum(multiples.values(), Fraction(0)),
        J=j_value(poly.dimension, degree) if degree % 2 == 0 else 0.0,
        numeric=numeric,
        method="closed_form",
    )


# -------------------------------------------------------------------- shifts


def _pizzetti_levels(poly):
    """The levels lap^k P / (2^k k!) for k = 0 .. deg(P) // 2: P's Laplacian
    chain, each entry scaled.  Level k at X is the exact multiple of J(n, 2k)
    in the weighted integral of the y-degree-2k part of P(X + y); odd
    y-degrees integrate to zero."""
    chain = _laplacian_chain(poly, (poly.degree() or 0) // 2)
    return [lap * Fraction(1, 2**k * factorial(k)) for k, lap in enumerate(chain)]


def _gradient_moment_map(poly):
    """X -> the weighted moment vector of grad(P)(y + X) as floats, with the
    gradients of P's levels built once: component i is ``_float_total`` of
    d_i of each level at X, since differentiation commutes with the shift."""
    n = poly.dimension
    if poly.degree() is not None and poly.degree() > n - 1:
        raise DivergentMomentError("gradient moment requires degree <= n - 1")
    # partials[i][k] is d_i of level k
    partials = list(zip(*map(gradient, _pizzetti_levels(poly))))

    def moment_map(point):
        d, q = _integer_vector(point, n)
        return np.array([
            _float_total(n, {2 * k: _evaluate(p, d, q) for k, p in enumerate(ps)})
            for ps in partials
        ])

    return moment_map


def gradient_moment(poly, point):
    """Weighted moment vector of grad(P)(y + X) as floats, for an exact X."""
    return _gradient_moment_map(poly)(point)


# ---------------------------------------------------------- change of center


class CenterBreakdown(NamedTuple):
    """Leading groups of the off-center bubble moment at scale lam.

    ``main`` is lam^ell times the centered moment of Q, ``intermediate`` the
    moments of the pieces of shift degree 1 .. ell - 1 at xi / lam (read from
    Q's levels), ``drift`` the Q(xi / lam) mass term, each of order lam^ell.
    ``quadrature`` is an independent fixed-node evaluation of the original
    ball integral for cross-checking, and ``total`` the sum of the three
    groups.
    """

    main: float
    intermediate: tuple
    drift: float
    quadrature: float

    @property
    def total(self):
        return self.main + sum(self.intermediate) + self.drift


def change_of_center(poly, xi, lam, rho, nodes=192):
    """Break the moment of Q against the off-center bubble mass into its
    centered, intermediate-shift and drift groups, and cross-check against a
    deterministic quadrature of the original ball integral.  A NaN or
    infinite lam, rho or xi entry, an int or Fraction lam or rho beyond the
    float range, a lam whose lam**ell is beyond it, and an exact rho / lam
    beyond it, are refused before any work.
    """
    n = poly.dimension
    # degree 0 would make the centered and drift groups the same piece
    if not poly.is_homogeneous() or not poly.degree():
        raise ValueError("change_of_center expects a homogeneous input of degree >= 1")
    ell = poly.degree()
    if ell > n - 2:
        raise DivergentMomentError("change of center requires degree <= n - 2")
    if lam <= 0 or rho <= 0:
        raise ValueError("scale and radius must be positive")
    # an int or a Fraction is finite, and may be beyond isfinite's float range
    if not all(isinstance(v, Rational) or isfinite(v) for v in (lam, rho, *xi)):
        raise ValueError(
            f"scale, radius and center must be finite, got {lam!r}, {rho!r}, {xi!r}"
        )
    # lam and rho meet floats (rho / lam, lam**ell times a float), so an int
    # or a Fraction must fit one, and so must lam**ell (float(lam**ell) has
    # the bits that lam**ell has when a float multiplies it)
    for name, value in (("lam", lam), ("rho", rho)):
        try:
            float(value)
        except OverflowError:
            raise ValueError(f"{name} is beyond the float range") from None
    try:
        scale = float(lam**ell)
    except OverflowError:
        raise ValueError(f"lam**ell is beyond the float range (ell = {ell})") from None
    # the quadrature's upper limit; a quotient of two floats rounds to inf
    try:
        upper = float(rho / lam)
    except OverflowError:
        raise ValueError("rho / lam is beyond the float range") from None
    lam_f = Fraction(lam)
    center = [Fraction(x) / lam_f for x in xi]
    # the value of each level at xi / lam, the center read once
    d, q = _integer_vector(center, n)
    values = [_evaluate(level, d, q) for level in _pizzetti_levels(poly)]

    # the group of shift degree h is the moment of the y-degree ell - h part
    # (``_float_total`` skips the odd degrees)
    main, *intermediate, drift = [
        scale * _float_total(n, {d: values[d // 2]}) for d in range(ell, -1, -1)
    ]

    # independent evaluation of the original integral over the shifted ball,
    # whose integrand is Q(lam z + xi) = lam^ell Q(z + xi / lam), expanded by
    # the Taylor loop rather than read from the levels (centering the ball on
    # xi changes the value at a far smaller order than anything measured here)
    shifted = compose_shift(poly, center) * lam_f**ell
    quad = quadrature.weighted_poly_integral(shifted, upper=upper, nodes=nodes)

    return CenterBreakdown(main, tuple(intermediate), drift, quad)
