"""Numeric assembly and self-consistency checks of refined bubble profiles.

A refined profile is the sum of a concentrated bubble, a polynomial
correction damped by the critical bubble power, and a harmonic group that
splices the influence of the other concentration points onto the bubble
region through a C^2 radial interpolation.  Real concentrating sequences are
out of reach at desk scale, so every sequence-level statement is restated on
profiles manufactured here, where each addend is exact and exposed
separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import kernels, quadrature
from ._numpy import np
from .polynomials import Polynomial, euler_operator, json_int
from .reduction import _L_parts, apply_L

__all__ = [
    "BubbleProfile",
    "SynthesizedCurvature",
    "pi_eval",
    "ResidualReport",
    "linearized_residual",
    "HarmonicTail",
    "interpolation_R",
    "RefinedProfileSpec",
    "RefinedProfile",
    "d_pi",
    "GreensBall",
    "rescaled_average",
]


# ------------------------------------------------------------------ bubbles


class BubbleProfile:
    """(eps / (eps^2 + |y - center|^2))^((n-2)/2) with closed-form gradient
    and Laplacian."""

    def __init__(self, n, eps, center):
        if eps <= 0:
            raise ValueError("bubble scale must be positive")
        if len(center) != n:
            raise ValueError("center length must equal the dimension")
        self.dimension = n
        self.center = np.asarray([float(c) for c in center])
        self.eps = float(eps)

    def values(self, points):
        return kernels.bubble_values(
            np.atleast_2d(points), self.eps, self.center, (self.dimension - 2) / 2.0
        )

    def gradients(self, points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        diff = points - self.center[None, :]
        d2 = self.eps**2 + (diff * diff).sum(axis=1)
        n = self.dimension
        base = kernels.bubble_values(points, self.eps, self.center, (n - 2) / 2.0)
        return -(n - 2) * (base / d2)[:, None] * diff

    def laplacians(self, points):
        # lap v = -n(n-2) v^((n+2)/(n-2)) for the critical-power equation
        points = np.atleast_2d(points)
        n = self.dimension
        high = kernels.bubble_values(points, self.eps, self.center, (n + 2) / 2.0)
        return -n * (n - 2) * high

    @property
    def peak(self):
        # written exactly as the kernel computes it, so that evaluating at
        # the center reproduces the peak bit for bit
        return (self.eps / (self.eps * self.eps)) ** ((self.dimension - 2) / 2.0)


# ------------------------------------------------------- synthetic curvature


class SynthesizedCurvature:
    """Curvature model c~ K = n(n-2) - P + remainder on a ball, with the
    radial pairing <y, grad K> available exactly through the degree-scaling
    identity on each polynomial part."""

    def __init__(self, poly, remainder=None):
        if not poly.is_zero and (not poly.is_homogeneous() or poly.degree() < 2):
            raise ValueError("curvature model expects homogeneous degree >= 2")
        self.poly = poly
        self.remainder = remainder
        self.dimension = poly.dimension
        n = poly.dimension
        self.ctilde = (n - 2) / (4.0 * (n - 1))
        self._model = -1 * poly if remainder is None else (remainder - poly)
        self._scaled_terms = euler_operator(self._model)

    def ctilde_K(self, points):
        n = self.dimension
        return n * (n - 2) + kernels.eval_polynomial(self._model, points)

    def values(self, points):
        return self.ctilde_K(points) / self.ctilde

    def radial_pairing(self, points):
        """<y, grad K(y)> (note: K itself, not c~ K)."""
        return kernels.eval_polynomial(self._scaled_terms, points) / self.ctilde

    def radial_pairing_scaled(self):
        """<y, grad(c~ K)> as an exact polynomial; equals -(deg) * P plus the
        remainder's scaled terms."""
        return self._scaled_terms


# --------------------------------------------------------------- correction


def pi_eval(gamma):
    """The damped correction Pi(Y) = Gamma(Y) / (1 + |Y|^2)^(n/2)."""
    n = gamma.dimension
    exps, coeffs = kernels.poly_arrays(gamma)

    def pi(points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        r2 = (points * points).sum(axis=1)
        return kernels.eval_poly(points, exps, coeffs) / (1.0 + r2) ** (n / 2.0)

    return pi


@dataclass(frozen=True)
class ResidualReport:
    """Sampled residual statistics; reproducible for a fixed seed."""

    count: int
    max_abs: float
    mean_abs: float

    def to_json(self):
        return {
            "count": self.count,
            "max_abs": self.max_abs,
            "mean_abs": self.mean_abs,
        }


# ``linearized_residual`` samples RESIDUAL_SCALE * N(0, I)
RESIDUAL_SCALE = 3.0


def _scan_polynomials(gamma, source):
    """The three polynomials the residual scan evaluates: L's Laplacian part
    and diagonal part of gamma (``reduction._L_parts``), and the source."""
    n, den = gamma.dimension, gamma.den
    lap, diagonal = (Polynomial._of(n, part, den) for part in _L_parts(gamma))
    return lap, diagonal, source


def _residual(gamma, source, points):
    """lap Pi + n(n+2)(1 + r^2)^(-2) Pi - P (1 + r^2)^(-(n+2)/2) at the
    points, for Pi = gamma (1 + r^2)^(-n/2) and r = |y|.

    By the product rule this is (L(gamma) - P)(1 + r^2)^(-(n+2)/2), so it is
    evaluated from L's two parts and the source, with one damping power:
    ((1 + r^2) lap + diagonal - P)(1 + r^2)^(-(n+2)/2).
    """
    one = 1.0 + (points * points).sum(axis=1)
    lap, diagonal, src = (
        kernels.eval_polynomial(p, points) for p in _scan_polynomials(gamma, source)
    )
    return (one * lap + diagonal - src) * one ** (-(gamma.dimension + 2) / 2.0)


def linearized_residual(gamma, source, samples=1000, seed=0):
    """Float residual of the damped correction in the linearized equation,
    sampled at seeded Gaussian points.

    Refuses unverified input: gamma must satisfy the weighted polynomial
    identity exactly (checked here), so the sampled residual is purely the
    float shadow of an exact identity and must sit at rounding level.
    """
    if apply_L(gamma) != source:
        raise ValueError(
            "gamma does not exactly solve the weighted polynomial equation "
            "for this source; refusing to sample"
        )
    rng = np.random.default_rng(seed)
    pts = RESIDUAL_SCALE * rng.standard_normal((samples, gamma.dimension))
    abs_res = np.abs(_residual(gamma, source, pts))
    return ResidualReport(
        count=samples,
        max_abs=float(abs_res.max()),
        mean_abs=float(abs_res.mean()),
    )


# ------------------------------------------------------------ harmonic tail


class HarmonicTail:
    """Influence of the other concentration points: the weighted inverse
    power sum H(Y) = sum_j w_j |lam * Y - p_j|^(2-n), harmonic away from the
    sources, with its value at the origin cached as ``h_o``."""

    def __init__(self, points, weights, lam):
        points = np.asarray(points, dtype=float)
        # counted before atleast_2d, which turns an empty list into one empty row
        if points.ndim and points.shape[0] == 0:
            raise ValueError("harmonic tail needs at least one source")
        points = np.atleast_2d(points)
        if np.any(np.linalg.norm(points, axis=1) == 0):
            raise ValueError("tail sources must be away from the origin")
        weights = np.asarray(weights, dtype=float)
        if np.any(weights <= 0):
            raise ValueError("tail weights must be positive")
        self.sources = points
        self.weights = weights
        self.lam = float(lam)
        self.dimension = points.shape[1]
        # through the same evaluation path as values(), so that the value at
        # the origin cancels h_o bit for bit
        self.h_o = float(self.values(np.zeros((1, self.dimension)))[0])

    def values(self, points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        scaled = self.lam * points
        mins = np.min(
            np.linalg.norm(scaled[:, None, :] - self.sources[None, :, :], axis=2)
        )
        if mins < 1e-12:
            raise ValueError("evaluation at a tail source")
        return kernels.tail_values(
            scaled, self.sources, self.weights, self.dimension - 2
        )


# ---------------------------------------------------------- interpolation R


def interpolation_R(points):
    """C^2 radial interpolation Rtilde(Y): equal to |Y| outside the unit
    ball, zero value/gradient at the origin, bounded Laplacian everywhere.
    Realized as the quintic 6r^3 - 8r^4 + 3r^5 on [0, 1], which matches
    value, first and second derivative at r = 1."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    r = np.linalg.norm(points, axis=1)
    # the quintic only inside the unit ball, so a far point cannot overflow
    t = np.minimum(r, 1.0)
    inner = 6.0 * t**3 - 8.0 * t**4 + 3.0 * t**5
    return np.where(r >= 1.0, r, inner)


# ------------------------------------------------------------ refined profile


def _json_float(value):
    """A float read from JSON: a finite int or float, not a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"not a JSON number: {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {value!r}")
    return float(value)


@dataclass(frozen=True)
class RefinedProfileSpec:
    """Everything needed to assemble a refined profile.

    ``gamma`` is the exact polynomial correction; ``harmonic_points`` and
    ``harmonic_weights`` describe the other concentration points (all outside
    twice the splice region); ``joint_radius_c`` fixes the splice radius
    c / lam in bubble coordinates.
    """

    n: int
    ell: int
    lam: float
    xi: tuple
    gamma: Polynomial
    harmonic_points: tuple
    harmonic_weights: tuple
    joint_radius_c: float

    def __post_init__(self):
        if not 2 <= self.ell <= self.n - 2:
            raise ValueError("profile degree must satisfy 2 <= ell <= n - 2")
        if self.lam <= 0 or self.joint_radius_c <= 0:
            raise ValueError("scale and joint radius must be positive")
        if len(self.xi) != self.n:
            raise ValueError("drift vector length must equal the dimension")
        if self.gamma.dimension != self.n:
            raise ValueError("gamma dimension must equal the dimension")
        if len(self.harmonic_weights) != len(self.harmonic_points):
            raise ValueError("need one harmonic weight per harmonic point")
        for p in self.harmonic_points:
            if len(p) != self.n:
                raise ValueError("harmonic point length must equal the dimension")
            if np.linalg.norm(np.asarray(p, float)) < 2.0 * self.joint_radius_c:
                raise ValueError(
                    "harmonic sources must stay outside twice the joint region"
                )

    def tail(self):
        return HarmonicTail(self.harmonic_points, self.harmonic_weights, self.lam)

    @classmethod
    def from_json(cls, data):
        """``n`` and ``ell`` are read by ``json_int``, the float fields by
        ``_json_float``."""
        try:
            fields = dict(
                n=json_int(data["n"]),
                ell=json_int(data["ell"]),
                lam=_json_float(data["lam"]),
                xi=tuple(_json_float(x) for x in data["xi"]),
                gamma=Polynomial.from_json(data["gamma"]),
                harmonic_points=tuple(
                    tuple(_json_float(x) for x in p) for p in data["harmonic_points"]
                ),
                harmonic_weights=tuple(
                    _json_float(w) for w in data["harmonic_weights"]
                ),
                joint_radius_c=_json_float(data["joint_radius_c"]),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"malformed profile spec: {exc}") from exc
        return cls(**fields)


class RefinedProfile:
    """Assembled refined profile with every addend exposed.

    In original coordinates y (with Y = (y - xi) / lam):
      bubble      (lam / (lam^2 + |y - xi|^2))^((n-2)/2)
      correction  lam^(ell+1) * Gamma(Y) * (lam / (lam^2 + |y - xi|^2))^(n/2)
      harmonic    the tail difference plus the joint term,
        lam^((n-2)/2) * sum_j w_j (|y - xi - p_j|^(2-n) - |p_j|^(2-n))
        + lam^((n-2)/2) * lam * h_o * Rtilde(Y) / c
    ``total`` is their sum.  The tail difference vanishes exactly at y = xi
    and the joint term vanishes at the origin and restores the plain tail on
    the splice sphere |Y| = c / lam.
    """

    def __init__(self, spec):
        self.spec = spec
        self.bubble_profile = BubbleProfile(spec.n, spec.lam, spec.xi)
        self._tail = spec.tail()

    def bubble(self, points):
        return self.bubble_profile.values(points)

    def correction(self, points):
        """lam^(ell+1) * Gamma(Y) * (lam / (lam^2 + |y - xi|^2))^(n/2)."""
        s = self.spec
        points = np.atleast_2d(np.asarray(points, dtype=float))
        diff = points - np.asarray(s.xi, float)[None, :]
        d2 = s.lam**2 + (diff * diff).sum(axis=1)
        Y = diff / s.lam
        return (
            s.lam ** (s.ell + 1)
            * kernels.eval_polynomial(s.gamma, Y)
            * (s.lam / d2) ** (s.n / 2.0)
        )

    def harmonic_group(self, points):
        """The tail difference plus the joint term."""
        s = self.spec
        n = s.n
        tail = self._tail
        scale = s.lam ** ((n - 2) / 2.0)
        points = np.atleast_2d(np.asarray(points, dtype=float))
        shifted = points - np.asarray(s.xi, float)[None, :]
        direct = kernels.tail_values(shifted, tail.sources, tail.weights, n - 2)
        rtilde = interpolation_R(shifted / s.lam)
        joint = scale * s.lam * tail.h_o * rtilde / s.joint_radius_c
        return scale * (direct - tail.h_o) + joint

    def total(self, points):
        return (
            self.bubble(points)
            + self.correction(points)
            + self.harmonic_group(points)
        )

    def components(self, points):
        """Columns: bubble, correction, harmonic_group, total."""
        b = self.bubble(points)
        c = self.correction(points)
        h = self.harmonic_group(points)
        return np.column_stack([b, c, h, b + c + h])


def d_pi(profile_func, spec, points):
    """The second-order deviation estimator in bubble coordinates Y:

        [V(Y) - A(Y) - lam^ell Pi(Y) - lam^(n-2) H(Y)]
            + lam^(n-2) h_o (1 - lam Rtilde(Y) / c),

    where V(Y) = v(xi + lam Y) / v(xi) is the profile renormalized by its own
    peak value (the scale lam is tied to the peak by lam^(-(n-2)/2) = v(xi),
    so this is the same normalization, evaluated without extra rounding) and
    A is the unit bubble.  ``profile_func`` is any callable on original
    coordinates.
    """
    s = spec
    n = s.n
    points = np.atleast_2d(np.asarray(points, dtype=float))
    y = np.asarray(s.xi, float)[None, :] + s.lam * points
    peak = float(np.atleast_1d(profile_func(np.asarray(s.xi, float)[None, :]))[0])
    V = np.atleast_1d(profile_func(y)) / peak
    r2 = (points * points).sum(axis=1)
    A = (1.0 / (1.0 + r2)) ** ((n - 2) / 2.0)
    pi_vals = pi_eval(s.gamma)(points)
    tail = s.tail()
    H = tail.values(points)
    rtilde = interpolation_R(points)
    return (
        V
        - A
        - s.lam**s.ell * pi_vals
        - s.lam ** (n - 2) * H
        + s.lam ** (n - 2) * tail.h_o * (1.0 - s.lam * rtilde / s.joint_radius_c)
    )


# ------------------------------------------------------------ Green function


class GreensBall:
    """Dirichlet Green's function and Poisson kernel of the flat Laplacian
    on the ball of radius a, with the reflection point and measured bound
    constants exposed."""

    # ``check_bounds`` draws source radii from uniform(0.05, 1 - delta), so
    # delta <= 0.95
    MAX_DELTA = 0.95

    def __init__(self, n, a):
        if not 0 < a < math.inf:
            raise ValueError(f"radius must be finite and positive, got {a!r}")
        if n < 3:
            raise ValueError("inverse-power form needs dimension >= 3")
        self.n = n
        self.a = float(a)
        self._norm = 1.0 / ((n - 2) * quadrature.sphere_area(n))

    def reflect(self, xi):
        xi = np.asarray(xi, dtype=float)
        r2 = float(xi @ xi)
        if r2 == 0.0:
            raise ValueError("reflection undefined at the center")
        return (self.a**2 / r2) * xi

    def green(self, y, xi):
        y = np.asarray(y, dtype=float)
        xi = np.asarray(xi, dtype=float)
        n = self.n
        d = np.linalg.norm(y - xi)
        if d == 0.0:
            raise ValueError("Green's function is singular on the diagonal")
        direct = d ** (2.0 - n)
        norm_xi = np.linalg.norm(xi)
        if norm_xi == 0.0:
            image = self.a ** (2.0 - n)
        else:
            image = (self.a / norm_xi) ** (n - 2) * np.linalg.norm(
                y - self.reflect(xi)
            ) ** (2.0 - n)
        return -self._norm * (direct - image)

    def poisson(self, y, xi):
        y = np.asarray(y, dtype=float)
        xi = np.asarray(xi, dtype=float)
        n = self.n
        return (
            (self.a**2 - float(xi @ xi))
            / (self.a * quadrature.sphere_area(n))
            / np.linalg.norm(y - xi) ** n
        )

    def poisson_normalization(self, xi):
        """Surface integral of the Poisson kernel, by the exact reduction to
        the polar angle around xi (Gauss-Legendre in cos(theta))."""
        xi = np.asarray(xi, dtype=float)
        n = self.n
        norm_xi = np.linalg.norm(xi)
        t, w, lat = quadrature.latitude_rule(n)
        d2 = self.a**2 - 2.0 * self.a * norm_xi * t + norm_xi**2
        kernel = (self.a**2 - norm_xi**2) / (
            self.a * quadrature.sphere_area(n) * d2 ** (n / 2.0)
        )
        return float((kernel * lat * w).sum()) * self.a ** (n - 1)

    def check_bounds(self, delta, samples=200, seed=0):
        """Measure the constants in the interior Green bound and the Poisson
        bound for sources with |xi| <= (1 - delta) a; returns the measured
        constants together with the reference envelopes."""
        if not 0 < delta <= self.MAX_DELTA:
            raise ValueError(
                f"delta must lie in (0, {self.MAX_DELTA}], got {delta!r}"
            )
        rng = np.random.default_rng(seed)
        n = self.n
        green_const = 0.0
        poisson_const = 0.0
        for _ in range(samples):
            xi = rng.uniform(-1.0, 1.0, n)
            norm = np.linalg.norm(xi)
            if norm == 0:
                continue
            xi = xi / norm * rng.uniform(0.05, 1.0 - delta) * self.a
            y_dir = rng.standard_normal(n)
            y_dir /= np.linalg.norm(y_dir)
            y = y_dir * rng.uniform(0.1, 0.999) * self.a
            if np.linalg.norm(y - xi) < 1e-9:
                continue
            g = abs(self.green(y, xi)) * np.linalg.norm(y - xi) ** (n - 2)
            green_const = max(green_const, g)
            yb = y_dir * self.a
            p = self.poisson(yb, xi) * self.a ** (n - 1)
            poisson_const = max(poisson_const, p)
        env_green = self._norm * (1.0 + 2.0 ** (n - 2) / delta ** (n - 2))
        env_poisson = 1.0 / (quadrature.sphere_area(n) * delta**n)
        return {
            "delta": float(delta),
            "green_measured": float(green_const),
            "green_envelope": float(env_green),
            "poisson_measured": float(poisson_const),
            "poisson_envelope": float(env_poisson),
            "green_ok": bool(green_const <= env_green * (1 + 1e-12)),
            "poisson_ok": bool(poisson_const <= env_poisson * (1 + 1e-12)),
        }


# --------------------------------------------------------- rescaled average


# ``rescaled_average`` averages over this many sphere nodes of seed 0
AVERAGE_SPHERE_COUNT = 512


def rescaled_average(v, xi, radii):
    """The diagnostic r -> r^((n-2)/2) * (sphere average of v about xi), n
    the length of xi.

    Returns the averages at the given radii, the log-radius reparametrized
    values (t = -log r), and the number of sign changes of the discrete
    derivative in t (= critical point count of the diagnostic).
    """
    xi = np.asarray(xi, dtype=float)
    n = xi.size
    radii = np.asarray(sorted(radii), dtype=float)
    if np.any(radii <= 0):
        raise ValueError("radii must be positive")
    nodes = quadrature.sphere_nodes(n, AVERAGE_SPHERE_COUNT)
    wbar = np.empty(radii.size)
    for i, r in enumerate(radii):
        pts = xi[None, :] + r * nodes
        vals = np.atleast_1d(v(pts))
        if np.any(~np.isfinite(vals)) or np.any(vals <= 0):
            raise ValueError("profile must be positive and finite on the annuli")
        wbar[i] = r ** ((n - 2) / 2.0) * float(np.mean(vals))
    t = -np.log(radii)
    order = np.argsort(t)
    t_sorted = t[order]
    w_sorted = wbar[order]
    slopes = np.diff(w_sorted) / np.diff(t_sorted)
    signs = np.sign(slopes[np.abs(slopes) > 1e-12])
    critical = int(np.count_nonzero(np.diff(signs) != 0))
    return wbar, (t_sorted, w_sorted), critical
