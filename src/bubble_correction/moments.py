"""Closed-form calculus of bubble-weighted polynomial moments.

All integrals here are against the weight (1 + |y|^2)^(-n) on R^n.  Each
even monomial has an exact rational moment: a product of modified double
factorials times one normalizing integral J that depends only on (n, degree).
The rational multiple of J is found one way, by monomial bookkeeping
(``j_multiple``); the test suite keeps the independent route, the iterated
Laplacian divided by a fixed constant, as its oracle.

Every shift point is expanded once, by the Taylor loop of ``polynomials``:
for a homogeneous Q of degree ell the Taylor term (s . grad)^h Q / h! is
exactly the piece of Q(s + z) of shift degree h, so ``shift_expansion``
returns the terms themselves, and ``change_of_center`` integrates its pieces
and builds its quadrature cross-check from their sum.  ``gradient_moment``
shifts P once, through ``compose_shift``.

J itself has the closed form

    J(n, ell) = pi^(n/2) * 2^(-ell/2) * Gamma((n - ell) / 2) / Gamma(n),

derived from the Gamma form of sphere surface moments and a Beta-function
radial factor.  It is validated against the Gauss-Legendre quadrature oracle
(which in turn was validated once against seeded Monte Carlo) before being
trusted in any test.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import exp, factorial, gamma, inf, isfinite, lgamma, log, pi

from . import quadrature
from ._numpy import np
from .errors import DivergentMomentError
from .polynomials import (
    _sum,
    _taylor_terms,
    compose_shift,
    gradient,
    rational_to_json,
)

__all__ = [
    "double_factorial_minus2",
    "j_value",
    "IntegralResult",
    "monomial_j_multiple",
    "j_multiple",
    "moment_integral",
    "weighted_integral",
    "shift_expansion",
    "gradient_moment",
    "CenterBreakdown",
    "change_of_center",
]


def double_factorial_minus2(m):
    """Modified double factorial: 1 for m in {0, 2}, 0 for odd m, and
    (m-1)(m-3)...3.1 for even m >= 4."""
    if m < 0:
        raise ValueError("argument must be non-negative")
    if m % 2:
        return 0
    if m in (0, 2):
        return 1
    return factorial(m - 1) // (2 ** (m // 2 - 1) * factorial(m // 2 - 1))


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


def monomial_j_multiple(alpha):
    """Product of modified double factorials over the exponents."""
    out = 1
    for a in alpha:
        out *= double_factorial_minus2(a)
        if not out:
            return 0
    return out


def j_multiple(poly):
    """Exact rational multiple of J(n, deg) in the weighted integral of a
    homogeneous polynomial, by monomial bookkeeping: one integer sum over
    the polynomial's denominator."""
    return Fraction(
        sum(v * monomial_j_multiple(alpha) for alpha, v in poly.nums.items()),
        poly.den,
    )


@dataclass(frozen=True)
class IntegralResult:
    """Weighted integral of a homogeneous polynomial of degree ell: the exact
    rational multiple of J plus its float value.  ``J`` is J(n, ell), the
    normalizing integral the multiple scales (``j_value``), or 0.0 for odd
    ell, where the integral vanishes by symmetry; ``to_json`` is the whole
    ``integrate`` artifact."""

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


def weighted_integral(poly):
    """Weighted integral of a general polynomial of degree <= n - 1: exact
    multiples of J per homogeneous degree, plus the float total.  Odd
    degrees integrate to zero by symmetry.  A total beyond the float range
    (a moment too large for a float, or an infinite sum) is refused with
    a ValueError naming the degree."""
    n = poly.dimension
    multiples = {}
    total = 0.0
    for degree, part in poly.homogeneous_parts().items():
        if degree >= n:
            raise DivergentMomentError(
                f"degree {degree} moment diverges in dimension {n} "
                "(needs degree <= n - 1)"
            )
        mult = j_multiple(part)
        multiples[degree] = mult
        if degree % 2 == 0 and mult:
            total += _float_moment(mult, j_value(n, degree))
            if not isfinite(total):
                raise ValueError(
                    f"the weighted integral at degree {degree} is beyond the "
                    "float range"
                )
    return multiples, total


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


def shift_expansion(poly, shift):
    """Decomposition of Q(shift + z) by homogeneity in the shift, for a
    nonzero homogeneous Q of degree ell and an exact shift vector.

    Returns the pieces of shift degree h = 0 .. ell as polynomials in z: the
    base Q(z) (h = 0), the intermediate terms (h = 1 .. ell - 1) and the
    constant Q(shift) (h = ell).  The piece of shift degree h is the Taylor
    term (shift . grad)^h Q / h!, so the pieces are Q's Taylor terms.
    """
    if not poly.is_homogeneous() or poly.is_zero:
        raise ValueError("shift expansion expects a nonzero homogeneous input")
    return _taylor_terms(poly, shift)


# ---------------------------------------------------------------- gradients


def gradient_moment(poly, point):
    """Weighted moment vector of grad(P)(y + X) as floats.  Differentiation
    commutes with the shift, so P is shifted once and then differentiated."""
    if poly.degree() is not None and poly.degree() > poly.dimension - 1:
        raise DivergentMomentError("gradient moment requires degree <= n - 1")
    shifted = compose_shift(poly, point)
    return np.array([weighted_integral(dp)[1] for dp in gradient(shifted)])


# ---------------------------------------------------------- change of center


@dataclass(frozen=True)
class CenterBreakdown:
    """Leading groups of the off-center bubble moment at scale lam.

    ``main`` is lam^ell times the centered moment of Q, ``intermediate`` the
    shift-degree pieces evaluated at xi / lam, ``drift`` the Q(xi / lam) mass
    term, each of order lam^ell.  ``quadrature`` is an independent fixed-node
    evaluation of the original ball integral for cross-checking, and
    ``total`` the sum of the three groups.
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
    deterministic quadrature of the original ball integral.
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
    lam_f = Fraction(lam)
    pieces = shift_expansion(poly, [Fraction(x) / lam_f for x in xi])
    scale = lam**ell

    main, *intermediate, drift = [
        scale * weighted_integral(piece)[1] for piece in pieces
    ]

    # independent evaluation of the original integral over the shifted ball,
    # whose integrand is Q(lam z + xi) = lam^ell Q(z + xi / lam), the sum of
    # the pieces times lam^ell (centering the ball on xi changes the value at
    # a far smaller order than anything measured here)
    shifted = _sum(n, pieces) * lam_f**ell
    quad = quadrature.weighted_poly_integral(shifted, upper=rho / lam, nodes=nodes)

    return CenterBreakdown(
        main=main,
        intermediate=tuple(intermediate),
        drift=drift,
        quadrature=quad,
    )
