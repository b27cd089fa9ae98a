"""Numeric assembly and self-consistency checks of refined bubble profiles.

A refined profile is the sum of a concentrated bubble, a polynomial
correction damped by the critical bubble power, and a harmonic group that
splices the influence of the other concentration points onto the bubble
region through a C^2 radial interpolation.  Real concentrating sequences are
out of reach at desk scale, so every sequence-level statement is restated on
profiles manufactured here, where each addend is exact and exposed
separately.

Every float value comes through ``kernels``: a polynomial is prepared once
by ``kernels.poly_arrays`` and evaluated by ``kernels.eval_poly``, and every
bubble (``BubbleProfile``, its ``peak`` and the unit bubble of ``d_pi``) and
tail is ``kernels.bubble_values`` and ``kernels.tail_values``.  The damping
powers of ``pi_eval``, ``_damped`` and ``RefinedProfile.correction`` stay
plain numpy as written, (1 + |Y|^2)^(-s) and lam**2: the kernel's form
would move the last bit of the ``residual-scan`` and ``profile`` artifacts
(``kernels`` says by how much).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import kernels, quadrature
from ._numpy import np
from .polynomials import Polynomial, euler_operator, json_int
from .reduction import _L_parts, _L_sum

__all__ = [
    "BubbleProfile",
    "SynthesizedCurvature",
    "pi_eval",
    "ResidualReport",
    "MAX_SAMPLES",
    "MAX_SAMPLE_TERMS",
    "MAX_SAMPLE_WALK",
    "MAX_GATE_EXPONENTS",
    "check_sample_work",
    "linearized_residual",
    "HarmonicTail",
    "interpolation_R",
    "RefinedProfileSpec",
    "RefinedProfile",
    "PROFILE_SCALE",
    "profile_rows",
    "d_pi",
    "GreensBall",
    "GREEN_MAX_N",
    "GREEN_GAPS",
    "GREEN_RADII",
    "green_report",
    "rescaled_average",
]


def _require(ok, flag, rule, value):
    """Refuse an argument before any work, naming the CLI flag it comes
    from, so that a library caller and the CLI get the same refusal."""
    if not ok:
        raise ValueError(f"--{flag} must be {rule}, got {value!r}")


# ------------------------------------------------------------------ bubbles


class BubbleProfile:
    """(eps / (eps^2 + |y - center|^2))^((n-2)/2) with closed-form gradient
    and Laplacian."""

    def __init__(self, n, eps, center):
        if not 0 < eps < math.inf:
            raise ValueError(f"bubble scale must be finite and positive, got {eps!r}")
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
        return float(self.values(self.center)[0])


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
        self._model_arrays = kernels.poly_arrays(self._model)
        self._scaled_arrays = kernels.poly_arrays(self._scaled_terms)

    def ctilde_K(self, points):
        n = self.dimension
        points = np.atleast_2d(points)
        return n * (n - 2) + kernels.eval_poly(points, *self._model_arrays)

    def values(self, points):
        return self.ctilde_K(points) / self.ctilde

    def radial_pairing(self, points):
        """<y, grad K(y)> (note: K itself, not c~ K)."""
        values = kernels.eval_poly(np.atleast_2d(points), *self._scaled_arrays)
        return values / self.ctilde

    def radial_pairing_scaled(self):
        """<y, grad(c~ K)> as an exact polynomial; equals -(deg) * P plus the
        remainder's scaled terms."""
        return self._scaled_terms


# --------------------------------------------------------------- correction


def pi_eval(gamma):
    """The damped correction Pi(Y) = Gamma(Y) / (1 + |Y|^2)^(n/2)."""
    n = gamma.dimension
    arrays = kernels.poly_arrays(gamma)

    def pi(points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        r2 = (points * points).sum(axis=1)
        return kernels.eval_poly(points, *arrays) / (1.0 + r2) ** (n / 2.0)

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

# ``linearized_residual`` and ``profile_rows`` draw and evaluate their points
# this many at a time
_BLOCK_ROWS = 1_000

# ``--samples`` of the sampling commands, checked first by
# ``check_sample_work``
MAX_SAMPLES = 100_000
# Work caps of the sampling, checked before any point is drawn.  The sampling
# holds a fixed number of rows at a time (``_BLOCK_ROWS`` points, and
# ``kernels.eval_poly``'s two blocks of about 1 MiB), so the caps bound work,
# not memory.  ``kernels.eval_poly`` multiplies samples x terms factors per
# variable for a polynomial of ``terms`` terms, so samples x terms is capped
# for the largest polynomial sampled (``linearized_residual``: the source and
# L's two parts of gamma; ``profile_rows``: the spec's gamma), about 4e6
# multiplies per variable.  Drawing and reducing m points in n variables
# touches m * n values, so samples x n is capped by the same budget.
MAX_SAMPLE_TERMS = 4_000_000
# ``kernels.eval_poly``'s power tables take samples x walk multiplies, one
# numpy call per multiply and block, walk being the sum over the variables of
# their top exponents (``_walk_length``, the largest over the polynomials
# sampled).  A running product has no shortcut, so a one-term polynomial
# y1^(10^9) would otherwise run for hours; samples x walk is capped at 4e6.
MAX_SAMPLE_WALK = 4_000_000
# ``linearized_residual`` first checks gamma exactly, L(gamma) == source.
# L(gamma) = (1 + |y|^2) lap + diagonal has at most lap * (n + 1) + diagonal
# terms, lap and diagonal being the term counts of L's two parts, and each term
# holds n exponents: the one-term solution y1^2 ... yn^2 reaches n^3 + n^2 + n.
# The exponents are capped at 4e6, near 32 MB at about 8 bytes each; the
# solution of a source with all 24,310 monomials of degree 8 in n = 10, with
# its radial completion (32,083 terms), reaches 1.03e6.
MAX_GATE_EXPONENTS = 4_000_000


def check_sample_work(samples, n, terms, walk=0):
    """Refuse ``samples`` points in n variables when ``samples`` is outside
    1..MAX_SAMPLES, then when samples x ``terms``, the largest polynomial
    sampled, or samples x n, the points, is above MAX_SAMPLE_TERMS, or when
    samples x ``walk``, the power-table walk of ``_walk_length``, is above
    MAX_SAMPLE_WALK; each refusal names the CLI's --samples flag."""
    _require(1 <= samples <= MAX_SAMPLES, "samples", f">= 1 and <= {MAX_SAMPLES}",
             samples)
    terms = max(terms, 1)
    for count, label, name, cap in (
        (terms, f"{terms} terms", "terms", MAX_SAMPLE_TERMS),
        (n, f"dimension {n}", "dimension", MAX_SAMPLE_TERMS),
        (walk, f"top exponents summing to {walk}", "walk", MAX_SAMPLE_WALK),
    ):
        if samples * count > cap:
            raise ValueError(
                f"--samples must be <= {cap // count} for {label} "
                f"(samples x {name} <= {cap}), got {samples!r}"
            )


def _walk_length(*polys):
    """The largest, over the polynomials, of the sum over the variables of
    their top exponent: the multiplies per point of ``kernels.eval_poly``'s
    running-product power tables."""
    return max((sum(map(max, zip(*p.nums))) for p in polys), default=0)


def _scan_polynomials(gamma, source):
    """L's two parts of gamma (``reduction._L_parts``), as the integer sums
    over gamma's denominator that the exact gate adds, and the three
    polynomials the scan evaluates: those parts in lowest terms, and the
    source."""
    n, den = gamma.dimension, gamma.den
    parts = _L_parts(gamma)
    return parts, [*(Polynomial._of(n, part, den) for part in parts), source]


def _damped(arrays, points):
    """((1 + r^2) lap + diagonal - P)(1 + r^2)^(-(n+2)/2) at the points, r =
    |y|, from the ``kernels.poly_arrays`` of the three polynomials of
    ``_scan_polynomials``.  Row-local, as ``kernels.eval_poly`` is.

    By the product rule this is lap Pi + n(n+2)(1 + r^2)^(-2) Pi -
    P (1 + r^2)^(-(n+2)/2) for Pi = gamma (1 + r^2)^(-n/2), evaluated with
    one damping power.
    """
    one = 1.0 + (points * points).sum(axis=1)
    lap, diagonal, src = (kernels.eval_poly(points, *a) for a in arrays)
    return (one * lap + diagonal - src) * one ** (-(points.shape[1] + 2) / 2.0)


def linearized_residual(gamma, source, samples=1000, seed=0):
    """Float residual of the damped correction in the linearized equation,
    sampled at seeded Gaussian points.

    L's two parts of gamma are built once: their sizes and the source's
    bound the work by MAX_SAMPLE_TERMS and MAX_GATE_EXPONENTS,
    ``reduction._L_sum`` of them is the exact gate, and the scan samples
    them.  ``samples`` and ``seed`` (>= 0) are refused as the CLI's flags,
    and every refusal comes before any point is drawn.  Unverified input
    is refused: gamma must satisfy the weighted polynomial identity exactly
    (checked here), so the sampled residual is purely the float shadow of an
    exact identity and must sit at rounding level.  The points are drawn and
    evaluated ``_BLOCK_ROWS`` at a time, keeping a running max and sum, so
    memory does not grow with ``samples``.
    """
    n = gamma.dimension
    parts, polys = _scan_polynomials(gamma, source)
    lap, diagonal, src = (len(p.nums) for p in polys)
    check_sample_work(samples, n, max(lap, diagonal, src), _walk_length(*polys))
    _require(seed >= 0, "seed", ">= 0", seed)
    terms = lap * (n + 1) + diagonal
    if terms * n > MAX_GATE_EXPONENTS:
        raise ValueError(
            f"the exact check L(gamma) == source can reach {terms} terms of {n} "
            f"exponents each ({terms * n} exponents, at most {MAX_GATE_EXPONENTS})"
        )
    if _L_sum(n, *parts, gamma.den) != source:
        raise ValueError(
            "gamma does not exactly solve the weighted polynomial equation "
            "for this source; refusing to sample"
        )
    # each polynomial's arrays and power tables, built once for every block
    arrays = [kernels.poly_arrays(p) for p in polys]
    rng = np.random.default_rng(seed)
    # consecutive draws of a Generator continue one stream: the blocks hold
    # the rows of one (samples, n) draw
    top, total = 0.0, 0.0
    for start in range(0, samples, _BLOCK_ROWS):
        pts = RESIDUAL_SCALE * rng.standard_normal(
            (min(_BLOCK_ROWS, samples - start), n))
        abs_res = np.abs(_damped(arrays, pts))
        # np.maximum, unlike max(), keeps a NaN
        top = np.maximum(top, abs_res.max())
        total += abs_res.sum()
    return ResidualReport(samples, float(top), float(total / samples))


# ------------------------------------------------------------ harmonic tail


class HarmonicTail:
    """Influence of the other concentration points: the weighted inverse
    power sum H(Y) = sum_j w_j |lam * Y - p_j|^(2-n), harmonic away from the
    sources, with its value at the origin cached as ``h_o``."""

    def __init__(self, points, weights, lam):
        if not 0 < lam < math.inf:
            raise ValueError(f"tail scale must be finite and positive, got {lam!r}")
        points = np.asarray(points, dtype=float)
        # counted before atleast_2d, which turns an empty list into one empty row
        if points.ndim and points.shape[0] == 0:
            raise ValueError("harmonic tail needs at least one source")
        points = np.atleast_2d(points)
        if np.any(np.linalg.norm(points, axis=1) == 0):
            raise ValueError("tail sources must be away from the origin")
        weights = np.asarray(weights, dtype=float)
        # a weight list of another length would broadcast against the sources
        if weights.shape != points.shape[:1]:
            raise ValueError(f"need one tail weight per source, got {weights.size} "
                             f"weights for {len(points)} sources")
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
        # a NaN passes ``<= 0``: refuse any value outside (0, inf) first
        if not (0 < self.lam < math.inf and 0 < self.joint_radius_c < math.inf):
            if self.lam <= 0 or self.joint_radius_c <= 0:
                raise ValueError("scale and joint radius must be positive")
            raise ValueError(
                f"scale and joint radius must be finite, got {self.lam!r} and "
                f"{self.joint_radius_c!r}")
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
        self._gamma = kernels.poly_arrays(spec.gamma)

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
            * kernels.eval_poly(Y, *self._gamma)
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


# ``profile_rows`` samples xi + PROFILE_SCALE * N(0, I)
PROFILE_SCALE = 0.5


def profile_rows(spec, samples, seed):
    """The ``profile`` table of a spec: its header and an iterator of blocks
    of rows, ``_BLOCK_ROWS`` rows a block and fewer in the last.  Each row
    is a point xi + PROFILE_SCALE * N(0, I) of seed ``seed`` followed by the
    profile's components there, and the blocks hold the rows of one
    (samples, n) draw.  ``samples`` and ``seed`` (>= 0) are refused as the
    CLI's flags before any point is drawn; a block holding a value beyond
    the float range is refused as it is made."""
    gamma = spec.gamma
    check_sample_work(samples, spec.n, len(gamma.nums), _walk_length(gamma))
    _require(seed >= 0, "seed", ">= 0", seed)
    header = [f"y{i + 1}" for i in range(spec.n)] + [
        "bubble", "correction", "harmonic_group", "total"
    ]
    return header, _profile_blocks(RefinedProfile(spec), samples, seed)


def _profile_blocks(profile, samples, seed):
    """The rows of ``profile_rows``, ``_BLOCK_ROWS`` at a time."""
    spec = profile.spec
    xi = np.asarray(spec.xi, float)[None, :]
    rng = np.random.default_rng(seed)
    for start in range(0, samples, _BLOCK_ROWS):
        noise = rng.standard_normal((min(_BLOCK_ROWS, samples - start), spec.n))
        points = xi + PROFILE_SCALE * noise
        rows = np.column_stack([points, profile.components(points)])
        if not np.isfinite(rows).all():
            raise ValueError("profile values are not finite for this spec")
        yield rows


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
    A = kernels.bubble_values(points, 1.0, np.zeros(n), (n - 2) / 2.0)
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
        # no sample would leave both constants at 0 and both verdicts true
        if samples < 1:
            raise ValueError(f"samples must be >= 1, got {samples!r}")
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


# ``green_report`` draws its interior point from uniform(-0.3, 0.3)^n times
# the radius; 0.3 * sqrt(n) < 1 keeps it inside the ball, so n <= 11
GREEN_MAX_N = 11
# the boundary gaps whose Green and Poisson bounds ``green_report`` measures
GREEN_GAPS = (0.1, 0.3)
# the radii ``green_report`` accepts, checked before any work: the kernels
# raise the radius to powers that grow with n, which leave the float range
# from about 1e26 and below about 1e-27 at n = GREEN_MAX_N; both ends keep a
# wide margin inside that for every n <= GREEN_MAX_N.  The range stays here,
# not in ``GreensBall``, which takes any positive radius: at n = 40 its
# Poisson normalization overflows at radii inside it
GREEN_RADII = (1e-10, 1e10)


def green_report(n, radius, seed):
    """The ``green-check`` report of the ball of this radius in dimension n:
    the largest |G| at 32 boundary points of an interior source, the Poisson
    normalization there with its verdict at ``quadrature.TOL_QUAD``, and the
    bounds of ``GreensBall.check_bounds`` at each of GREEN_GAPS, all drawn
    from ``seed``.  ``n`` (3..GREEN_MAX_N), ``radius`` (in GREEN_RADII) and
    ``seed`` (>= 0) are refused as the CLI's flags before any work."""
    _require(n >= 3, "n", ">= 3", n)
    _require(n <= GREEN_MAX_N, "n", f"<= {GREEN_MAX_N}", n)
    lo, hi = GREEN_RADII
    _require(lo <= radius <= hi, "radius", f"in [{lo:g}, {hi:g}]", radius)
    _require(seed >= 0, "seed", ">= 0", seed)
    ball = GreensBall(n, radius)
    rng = np.random.default_rng(seed)
    xi = rng.uniform(-0.3, 0.3, n) * radius
    boundary = []
    for _ in range(32):
        direction = rng.standard_normal(n)
        direction /= np.linalg.norm(direction)
        boundary.append(abs(ball.green(radius * direction, xi)))
    normalization = ball.poisson_normalization(xi)
    ok = abs(normalization - 1.0) <= quadrature.TOL_QUAD
    return {
        "n": n, "radius": radius, "boundary_max_abs": max(boundary),
        "poisson_normalization": normalization, "poisson_normalization_ok": bool(ok),
        "bounds": [ball.check_bounds(delta, seed=seed) for delta in GREEN_GAPS],
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
