"""Non-degeneracy and balance constraints at simple concentration points.

Two kinds of checks live here.  Local ones interrogate a single Taylor
polynomial: the two-sided gradient bound on the unit sphere, the drift
moment map and its zero search, and the vanishing constraints that a drift
direction must satisfy.  Global ones couple several concentration points:
the exponent interference condition and the weighted balance sums over
groups of equal drift exponents.

Algebraic residuals (polynomial values, pairings, rational multiples of the
normalizing integral) are computed exactly and must vanish exactly to pass.
The balance sums have fractional powers of rationals as weights; their
verdict is exact too, by sorting the weights into classes with rational
ratios (see ``multi_point_balance``).  A float tolerance applies only to the
quadrature-backed balance law (default 1e-4 relative).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import kernels, quadrature
from ._numpy import np
from .errors import UnsupportedCaseError
from .moments import _gradient_moment_map, _pizzetti_levels
from .polynomials import (
    Polynomial,
    _evaluate,
    _integer_vector,
    _list_of,
    _read_fields,
    as_coefficient,
    directional_pairing,
    gradient,
    json_int,
    rational_from_json,
    rational_to_json,
)

__all__ = [
    "MAX_ROOT_DEGREE",
    "MAX_RADICAND_BITS",
    "MAX_GROUP_BITS",
    "ViolationReport",
    "BlowupConfiguration",
    "gradient_lower_bound",
    "parity_certificate",
    "FalsifierResult",
    "flexibility_falsifier",
    "eta_admissible",
    "single_point_constraints",
    "interference_check",
    "multi_point_balance",
    "balance_report",
    "pohozaev_volume_vs_surface",
]

# Caps on the exact balance verdict's work, checked before any power is built
# or any root taken (see ``multi_point_balance``): the degree q of the roots a
# group of drift exponent eta takes, q = lcm(den(n/2), den((n-3)(1+eta))), and
# the bit length of the powers it builds.  A root of a 65,536-bit integer
# takes under 10 ms.
MAX_ROOT_DEGREE = 10_000
MAX_RADICAND_BITS = 65_536
# Cap on the bits a group's terms carry, checked for every group before any
# pairing or root.  A member counts the bit length of each value it brings
# times the power its term raises it to: b to n/2, S to |e|, its largest
# drift entry to n - 3, its location and Taylor coefficients to 1.  A class
# sum adds Fractions whose denominators multiply, so its time grows with the
# square of this count: at n = 8, 9 points of 14,000-bit curvature scales
# (504,502 bits) take 0.4 s, 16 of them (896,000 bits) took 1.4 s and 64 of
# them 24 s.
MAX_GROUP_BITS = 524_288
# How many primes p = 1 (mod k) the k-th power pre-test of a ratio tries
_RESIDUE_PRIMES = 8


@dataclass(frozen=True)
class ViolationReport:
    """One checked constraint: exact residual when available, float residual
    always, and the verdict at the stated tolerance."""

    constraint: str
    residual_float: float
    passed: bool
    residual_exact: Fraction | None = None
    details: dict = field(default_factory=dict)

    def to_json(self):
        exact = self.residual_exact
        data = {
            "constraint": self.constraint,
            "residual_float": self.residual_float,
            "pass": self.passed,
            "residual_exact": None if exact is None else rational_to_json(exact),
        }
        if self.details:
            data["details"] = self.details
        return data


# the readers of a configuration file's list fields: a JSON list of
# {"num": ..., "den": ...} objects or exact values, a JSON list of such lists,
# and a JSON list of polynomials (``Polynomial.from_json`` is looked up at each
# read, so a rebinding of it is seen)
_rationals = _list_of(
    lambda x: rational_from_json(x) if isinstance(x, dict) else as_coefficient(x))
_vectors = _list_of(_rationals)
_polynomials = _list_of(lambda value: Polynomial.from_json(value))


# the fields of a configuration file and their readers, in the order they are
# read, so that the first malformed field in this order is the one reported
_FIELDS = (("n", json_int), ("points", _vectors), ("k_values", _rationals),
           ("taylor_polys", _polynomials), ("flex_vectors", _vectors),
           ("flex_exponents", _rationals), ("scale_ratios", _rationals))


@dataclass(frozen=True)
class BlowupConfiguration:
    """Concentration points with their local data.

    points: the locations, the first of which must be the origin; k_values:
    positive curvature scales c~ * K at the points (the origin is pinned to
    n(n-2)); taylor_polys: homogeneous degree-(n-2) polynomials attached to
    each point; flex_vectors / flex_exponents: drift direction and rate per
    point; scale_ratios: relative concentration scales, 1 at the origin.
    """

    n: int
    points: tuple
    k_values: tuple
    taylor_polys: tuple
    flex_vectors: tuple
    flex_exponents: tuple
    scale_ratios: tuple

    def __post_init__(self):
        # every per-point value becomes an exact Fraction here, once, so no
        # float or boolean reaches the exact balance sums
        def exact(values):
            return tuple(as_coefficient(x) for x in values)

        for name in ("points", "flex_vectors"):
            vectors = tuple(map(exact, getattr(self, name)))
            if any(len(v) != self.n for v in vectors):
                raise ValueError(f"every entry of {name} must have length n = {self.n}")
            object.__setattr__(self, name, vectors)
        for name in ("k_values", "flex_exponents", "scale_ratios"):
            object.__setattr__(self, name, exact(getattr(self, name)))
        counts = {
            len(self.points),
            len(self.k_values),
            len(self.taylor_polys),
            len(self.flex_vectors),
            len(self.flex_exponents),
            len(self.scale_ratios),
        }
        if len(counts) != 1:
            raise ValueError("all per-point lists must have equal length")
        if not self.points:
            raise ValueError("a configuration needs at least one point")
        if any(x != 0 for x in self.points[0]):
            raise ValueError("the first point must be the origin")
        if len({tuple(p) for p in self.points}) != len(self.points):
            raise ValueError("points must be pairwise distinct")
        if any(k <= 0 for k in self.k_values):
            raise ValueError("curvature scales must be positive")
        if any(s <= 0 for s in self.scale_ratios):
            raise ValueError("scale ratios must be positive")
        if self.scale_ratios[0] != 1:
            raise ValueError("the origin's scale ratio must be 1")
        for poly in self.taylor_polys:
            if poly.dimension != self.n:
                raise ValueError("taylor polynomial dimension mismatch")
            if not poly.is_homogeneous() or (
                not poly.is_zero and poly.degree() != self.n - 2
            ):
                raise ValueError(
                    "taylor polynomials must be homogeneous of degree n - 2"
                )

    @classmethod
    def from_json(cls, data):
        """The fields of ``_FIELDS``, read in order by ``_read_fields``."""
        return cls(**_read_fields(data, _FIELDS, "balance configuration"))

    def to_json(self):
        """Each field of ``_FIELDS`` by ``_value_to_json``."""
        return {name: _value_to_json(getattr(self, name)) for name, _ in _FIELDS}


def _value_to_json(value):
    """A configuration value's JSON: a tuple as a list of its entries'
    JSON, a Polynomial by ``to_json``, a Fraction by ``rational_to_json`` and
    the int ``n`` as it is."""
    if isinstance(value, tuple):
        return [_value_to_json(x) for x in value]
    if isinstance(value, Polynomial):
        return value.to_json()
    return rational_to_json(value) if isinstance(value, Fraction) else value


# ------------------------------------------------------------- local checks


def gradient_lower_bound(poly, rho=1.0, samples=10_000, seed=0):
    """Sampled two-sided gradient constants on the unit sphere.

    By homogeneity |grad P(y)| / |y|^(deg-1) equals |grad P| on the sphere,
    so the returned (min, max) estimate the sharp constants from ``samples``
    seeded sphere nodes.  The sampled min is no lower bound: a zero of
    grad P between the nodes reads as a small positive min.  One such zero
    is found exactly: when grad P == 0 at a coordinate point +-e_i, the min
    is 0.0.  ``rho`` only rescales the reported constants to the ball of
    that radius.  Both the sampling and the rescaling hold by homogeneity
    alone, so a P that is not homogeneous of degree >= 2 is refused with a
    ValueError before any node is drawn, as ``SynthesizedCurvature`` refuses
    it, and so is a ``rho`` that is not finite and positive.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples!r}")
    if not 0 < rho < math.inf:
        raise ValueError(f"rho must be finite and positive, got {rho!r}")
    if poly.is_zero or not poly.is_homogeneous() or poly.degree() < 2:
        raise ValueError("needs a homogeneous polynomial of degree >= 2")
    n, ell = poly.dimension, poly.degree()
    grad = gradient(poly)
    axes = [[sign * (i == j) for j in range(n)] for i in range(n) for sign in (1, -1)]
    vanishes = any(not any(_evaluate(g, e, 1) for g in grad) for e in axes)
    nodes = quadrature.sphere_nodes(n, samples, seed)
    norms_sq = np.zeros(len(nodes))
    for g in grad:
        vals = kernels.eval_poly(nodes, *kernels.poly_arrays(g))
        norms_sq += vals * vals
    norms = np.sqrt(norms_sq)
    scale = float(rho) ** (ell - 1)
    return (0.0 if vanishes else float(norms.min()) * scale), float(norms.max()) * scale


def parity_certificate(poly):
    """Prove the nonvanishing of the drift moment map for the separable
    even-power class P = sum_j c_j y_j^ell (ell even, every c_j nonzero).

    For such P, component j of the moment map at drift X is c_j * ell * X_j
    times a positive even series in X_j, so the map vanishes only at X = 0.
    Returns True when poly belongs to the class (certificate valid), False
    otherwise (no conclusion).
    """
    n = poly.dimension
    ell = poly.degree()
    if ell is None or ell % 2 or ell < 2:
        return False
    seen = set()
    for alpha in poly.nums:
        active = [i for i, a in enumerate(alpha) if a]
        if len(active) != 1 or alpha[active[0]] != ell:
            return False
        seen.add(active[0])
    # the even series is positive with no check: its coefficients are
    # binomials times the even moments j_multiple(y_1^m), and for even m
    # that is m! / (2^(m/2) (m/2)!) = (m - 1)(m - 3)...1 >= 1
    return seen == set(range(n))


@dataclass(frozen=True)
class FalsifierResult:
    """Outcome of the drift-moment zero search."""

    counterexample: np.ndarray | None
    certificate_proven: bool
    min_residual: float
    evaluations: int

    @property
    def nonvanishing_proven(self):
        return self.certificate_proven and self.counterexample is None


def flexibility_falsifier(poly, budget=2000, seed=0, tol=1e-8):
    """Search for a nonzero drift X at which the moment map of grad(P)
    vanishes.

    Grid seeding plus a deterministic shrinking pattern search, at most
    ``budget`` (>= 1) exact evaluations of the moment map in all.  Finding a
    counterexample disproves the nonvanishing condition; not finding one is
    NOT a proof.  For the separable even-power class the parity certificate
    is run as well, and that one IS a proof.
    """
    if type(budget) is not int or budget < 1:
        raise ValueError(f"budget must be an int >= 1, got {budget!r}")
    n = poly.dimension
    certificate = parity_certificate(poly)
    if poly.is_zero:
        # every X is a zero: report e_1 after one evaluation
        return FalsifierResult(counterexample=np.eye(n)[0], certificate_proven=False,
                               min_residual=0.0, evaluations=1)

    moment_map = _gradient_moment_map(poly)

    def residual(x):
        vec = moment_map([Fraction(v) for v in x])
        return float(np.linalg.norm(vec))

    rng = np.random.default_rng(seed)
    # the 2n axis probes +e_i, -e_i (0.0 - e keeps its zeros positive)
    candidates = [x for e in np.eye(n) for x in (e, 0.0 - e)]
    grid_budget = max(budget // 4 - len(candidates), 0)
    if grid_budget:
        extra = rng.uniform(-2.0, 2.0, size=(grid_budget, n))
        keep = np.linalg.norm(extra, axis=1) > 0.1
        candidates.extend(extra[keep])

    # the first candidate of least residual, within the budget
    candidates = candidates[:budget]
    evaluations = len(candidates)
    best_r, best = min((residual(x), i) for i, x in enumerate(candidates))
    best_x = np.array(candidates[best], dtype=float)

    # shrinking coordinate pattern search around the best grid point
    step = 0.5
    while evaluations < budget and step > 1e-10 and best_r > tol / 10:
        improved = False
        for i in range(n):
            for s in (step, -step):
                trial = best_x.copy()
                trial[i] += s
                if np.linalg.norm(trial) < 0.05 or evaluations == budget:
                    continue
                r = residual(trial)
                evaluations += 1
                if r < best_r:
                    best_x, best_r = trial, r
                    improved = True
        if not improved:
            step *= 0.5

    found = best_r < tol and np.linalg.norm(best_x) >= 0.05
    return FalsifierResult(
        counterexample=best_x if found else None,
        certificate_proven=certificate,
        min_residual=best_r,
        evaluations=evaluations,
    )


def eta_admissible(n, ell, eta):
    """Strict admissibility of a drift exponent.

    Degree n - 2: eta < 2 / (3n - 2).  Degree n - 3 (dimension > 6):
    eta < (n - 6) / ((n - 3)(3n - 2)).  Other degrees are unsupported.
    """
    eta = as_coefficient(eta)
    if ell == n - 2:
        bound = Fraction(2, 3 * n - 2)
    elif ell == n - 3:
        if n <= 6:
            raise UnsupportedCaseError(
                "degree n - 3 requires dimension > 6"
            )
        bound = Fraction(n - 6, (n - 3) * (3 * n - 2))
    else:
        raise UnsupportedCaseError(
            f"admissibility bounds cover degrees n - 2 and n - 3 only "
            f"(got n={n}, ell={ell})"
        )
    return eta < bound


def single_point_constraints(poly, point):
    """Necessary vanishing constraints on a drift direction X at one
    concentration point: the Taylor polynomial must vanish at X and every
    intermediate shift moment must vanish.  All residuals are exact.

    Hypothesis violations (wrong degree, nonvanishing top Laplacian) are
    reported as extra entries but do not stop the checks.
    """
    if poly.is_zero or not poly.is_homogeneous():
        raise ValueError("single_point_constraints expects a nonzero homogeneous input")
    n = poly.dimension
    ell = poly.degree()
    d, q = _integer_vector(point, n)
    reports = []

    if ell not in (n - 2, n - 3):
        reports.append(
            ViolationReport(
                constraint="hypothesis:degree",
                residual_float=float("nan"),
                passed=False,
                details={"degree": ell, "expected": [n - 2, n - 3]},
            )
        )
    levels = _pizzetti_levels(poly)
    if not levels[-1].is_zero:
        reports.append(
            ViolationReport(
                constraint="hypothesis:top_laplacian_vanishes",
                residual_float=float("nan"),
                passed=False,
            )
        )

    # every level at X from the one read of X.  The order-h moment is that
    # of the y-degree ell - h part of P(X + y): level (ell - h) / 2 at X, and
    # zero for odd ell - h; P(X) is the order-ell moment, level 0
    values = [_evaluate(level, d, q) for level in levels]
    for h in (ell, *range(1, ell)):
        k, odd = divmod(ell - h, 2)
        value = Fraction(0) if odd else values[k]
        name = "taylor_value_at_drift" if h == ell else f"shift_moment_order_{h}"
        reports.append(ViolationReport(constraint=name, residual_exact=value,
                                       residual_float=float(value), passed=value == 0))
    return reports


# ------------------------------------------------------------ global checks


def interference_check(n, etas, distinct_only=False):
    """No-interference condition on drift exponents: (n - 3) * eta_m must
    differ from h * eta_j for every other point j and every natural
    h <= n - 3.  Evaluated over exact rationals.

    Equal exponents always interfere (h = n - 3 fires); that is the regime
    handled by the grouped balance sums, so ``distinct_only=True`` restricts
    the check to pairs with different exponents, which is the condition the
    single-point conclusions actually need.
    """
    if n <= 6:
        raise UnsupportedCaseError("interference condition needs dimension > 6")
    etas = [as_coefficient(e) for e in etas]
    violations = []
    for m, em in enumerate(etas):
        for j, ej in enumerate(etas):
            if j == m or (distinct_only and em == ej):
                continue
            for h in range(1, n - 2):
                if (n - 3) * em == h * ej:
                    violations.append({"m": m, "j": j, "h": h})
    return ViolationReport(
        constraint="exponent_interference",
        residual_float=float(len(violations)),
        passed=not violations,
        details={"violations": violations, "distinct_only": distinct_only},
    )


def _pairing_at(config, m):
    poly = config.taylor_polys[m]
    paired = directional_pairing(config.points[m], poly)
    return paired.evaluate(config.flex_vectors[m])


def _root_degree(n, eta):
    """q = lcm(den(n/2), den(e)), e = (n-3)(1+eta): every weight of the group
    has a rational q-th power."""
    q = math.lcm(Fraction(n, 2).denominator, ((n - 3) * (1 + eta)).denominator)
    if q > MAX_ROOT_DEGREE:
        raise ValueError(
            f"drift exponent {eta} needs roots of degree {q} in dimension {n} "
            f"(at most {MAX_ROOT_DEGREE})"
        )
    return q


def _bits(x):
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def _floor_root(x, k):
    """floor(x^(1/k)) for integers x, k >= 1 by Newton's iteration, started
    from a float estimate (``math.log2`` reads big integers) for roots of up
    to 48 bits and from the root of x's top bits above.  One step from any
    start lands at or above the root; the steps then descend to it."""
    t = x.bit_length() // k
    if t <= 48:
        r = math.ceil(2.0 ** (math.log2(x) / k))
    else:
        r = _floor_root(x >> (k * (t // 2)), k) + 1 << t // 2

    def step(r):
        return ((k - 1) * r + x // r ** (k - 1)) // k

    r = step(r)
    while (y := step(r)) < r:
        r = y
    return r


@functools.lru_cache(maxsize=None)
def _residue_primes(k):
    """The first ``_RESIDUE_PRIMES`` primes p = 1 (mod k), found by trial
    division."""
    primes = []
    p = 1
    while len(primes) < _RESIDUE_PRIMES:
        p += k
        if p > 2 and all(p % d for d in range(2, math.isqrt(p) + 1)):
            primes.append(p)
    return tuple(primes)


def _may_be_power(x, k):
    """False when x is surely not a k-th power: for a prime p = 1 (mod k),
    a k-th power's x^((p - 1)/k) mod p is 0 or 1.  True proves nothing."""
    return all(pow(x % p, (p - 1) // k, p) <= 1 for p in _residue_primes(k))


def _rational_power(B, S, n, e, q):
    """B^(n/2) * S^e as a Fraction when it is rational, else None, for positive
    Fractions B, S and the group's e and q: the q-th root of B^a S^c, a = qn/2,
    c = qe.  The whole powers come out exactly, a unit base drops out, the
    exponents left mod q and q are divided by their gcd k, and the rest is
    rational when its numerator and denominator have integer k-th roots.  A
    residue test mod a few primes rejects most radicands before any root."""
    a = q * n // 2 if B != 1 else 0
    c = int(q * e) if S != 1 else 0
    (a_whole, a), (c_whole, c) = divmod(a, q), divmod(c, q)
    g = math.gcd(q, a, c)
    k, a, c = q // g, a // g, c // g
    bits = max(
        a_whole * _bits(B) + abs(c_whole) * _bits(S), a * _bits(B) + c * _bits(S)
    )
    if bits > MAX_RADICAND_BITS:
        raise ValueError(
            f"a balance weight needs a power of {bits} bits "
            f"(at most {MAX_RADICAND_BITS})"
        )
    radicand = B**a * S**c
    parts = (radicand.numerator, radicand.denominator)
    if k > 1 and not all(_may_be_power(x, k) for x in parts):
        return None
    root = []
    for x in parts:
        r = _floor_root(x, k)
        if r**k != x:
            return None
        root.append(r)
    return B**a_whole * S**c_whole * Fraction(*root)


def _group_bits(config, members, bases, e):
    """The bits a group's terms carry, counted as ``MAX_GROUP_BITS`` says."""
    n = config.n
    total = 0
    for m in members:
        total += math.ceil(n / 2) * _bits(bases[m])
        total += math.ceil(abs(e)) * _bits(config.scale_ratios[m])
        total += (n - 3) * max(map(_bits, config.flex_vectors[m]))
        total += sum(map(_bits, config.points[m]))
        total += sum(map(_bits, config.taylor_polys[m].terms.values()))
    return total


def _float_sum(n, e, classes):
    """The rational class's exact sum plus, for every other class, its exact
    sum times its representative's float weight."""
    (_, _, rational), *others = classes
    try:
        total = float(rational) + sum(
            float(x) * float(b) ** (n / 2) * float(s) ** float(e)
            for b, s, x in others
            if x
        )
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise ValueError("a balance group sum is beyond the float range")
    return total


def multi_point_balance(config):
    """Weighted balance sums over groups of equal drift exponents.

    Each point contributes c_m * alpha_m: c_m is the exact pairing of its
    location with the gradient of its Taylor polynomial at its drift vector,
    and alpha_m = b_m^(n/2) * S_m^e with b_m = n(n-2) / (c~ K_m), S_m its
    scale ratio and e = (n-3)(1+eta).  Every alpha has a rational q-th power,
    and such positive reals are linearly independent over Q unless their
    ratios are rational (Besicovitch 1940; Mordell 1953).  So the terms fall
    into classes of rational ratio to a representative (the first, 1, holds
    the rational alphas), each class sums c_m * alpha_m / alpha_rep exactly,
    and a group passes when every class sum == 0; a passing group's float
    ``sum`` reads 0.0.  Raises ValueError above ``MAX_ROOT_DEGREE``,
    ``MAX_GROUP_BITS`` or ``MAX_RADICAND_BITS`` and for a sum beyond the
    float range.
    """
    n = config.n
    if n <= 6:
        raise UnsupportedCaseError("balance sums need dimension > 6")
    ctilde = Fraction(n - 2, 4 * (n - 1))
    bases = [Fraction(n * (n - 2)) / (ctilde * k) for k in config.k_values]

    groups = {}
    for m, eta in enumerate(config.flex_exponents):
        groups.setdefault(eta, []).append(m)
    # every group's root degree and bits are capped before any pairing is
    # computed
    degrees = {eta: _root_degree(n, eta) for eta in groups}
    for eta, members in sorted(groups.items()):
        bits = _group_bits(config, members, bases, (n - 3) * (1 + eta))
        if bits > MAX_GROUP_BITS:
            raise ValueError(
                f"the balance group of drift exponent {eta} carries {bits} "
                f"bits (at most {MAX_GROUP_BITS})"
            )

    group_details = []
    worst = 0.0
    for eta, members in sorted(groups.items()):
        e = (n - 3) * (1 + eta)
        # [b, S, exact sum of c_m * alpha_m / alpha_rep] per class
        classes = [[Fraction(1), Fraction(1), Fraction(0)]]
        for m in members:
            pairing = _pairing_at(config, m)
            if not pairing:
                continue
            b, s = bases[m], config.scale_ratios[m]
            for cls in classes:
                ratio = _rational_power(b / cls[0], s / cls[1], n, e, degrees[eta])
                if ratio is not None:
                    cls[2] += pairing * ratio
                    break
            else:
                classes.append([b, s, pairing])
        passed = all(cls[2] == 0 for cls in classes)
        total = _float_sum(n, e, classes)
        worst = max(worst, abs(total))
        group_details.append(
            {
                "eta": rational_to_json(eta),
                "members": members,
                "sum": total,
                "pass": passed,
            }
        )

    passed = all(g["pass"] for g in group_details)
    return ViolationReport(
        constraint="multi_point_balance",
        residual_float=worst,
        residual_exact=Fraction(0) if passed else None,
        passed=passed,
        details={"groups": group_details},
    )


def balance_report(config):
    """The ``balance`` report of a configuration: ``multi_point_balance``,
    the interference check across distinct exponents, and the all-pairs
    interference check, as their JSON in that order, with the verdict.

    Equal exponents are handled by the grouped sums, so only interference
    across distinct exponents counts against the verdict; the all-pairs
    report is included for inspection.
    """
    report = multi_point_balance(config)
    etas = config.flex_exponents
    interference = interference_check(config.n, etas, distinct_only=True)
    reports = [report, interference, interference_check(config.n, etas)]
    return {
        "reports": [r.to_json() for r in reports],
        "pass": report.passed and interference.passed,
    }


# ----------------------------------------------------------------- balance law


def pohozaev_volume_vs_surface(profile, curvature, rho):
    """Compare the volume and flux sides of the balance law on the ball of
    radius rho.

    Volume side: the radial curvature pairing against the critical power of
    the profile.  Flux side: (1 / c~) * (2n / (n - 2)) times the surface
    integral of the normal component of the balance vector field built from
    the profile, its gradient, and the curvature.  For a profile that solves
    the equation exactly the two sides agree; the returned report carries
    both values and the verdict at ``quadrature.TOL_QUAD`` relative (floored at 1e-6
    absolute so that an exactly-zero identity cannot false-fail).

    ``profile`` must expose values(points), gradients(points) and the
    ambient dimension / center; ``curvature`` must expose values(points) and
    radial_pairing(points) (the pairing of the position vector with its
    gradient).
    """
    n = profile.dimension
    ctilde = (n - 2) / (4.0 * (n - 1))
    p_crit = 2.0 * n / (n - 2.0)

    def volume_integrand(points):
        return curvature.radial_pairing(points) * profile.values(points) ** p_crit

    lhs = quadrature.ball_integral(volume_integrand, n, rho)

    # the flux side: latitude circles around an off-center profile's axis,
    # or else the ball's own seed-0 sphere nodes
    axis = getattr(profile, "center", None)
    if axis is not None and np.linalg.norm(axis) > 0:
        nodes, weights = _axial_sphere_nodes(n, np.asarray(axis, float))
    else:
        nodes = quadrature.sphere_nodes(n, quadrature.BALL_SPHERE_COUNT)
        weights = np.full(len(nodes), quadrature.sphere_area(n) / len(nodes))

    pts = rho * nodes
    v = profile.values(pts)
    grad = profile.gradients(pts)
    kv = curvature.values(pts)
    normal = nodes
    v_dot_n = (grad * normal).sum(axis=1)
    grad_sq = (grad * grad).sum(axis=1)
    y_dot_grad = rho * v_dot_n
    field_normal = (
        0.5 * (n - 2) * v * v_dot_n
        - 0.5 * grad_sq * rho
        + y_dot_grad * v_dot_n
        + (n - 2) / (2.0 * n) * ctilde * v**p_crit * kv * rho
    )
    flux = float((field_normal * weights).sum()) * rho ** (n - 1)
    rhs = (1.0 / ctilde) * p_crit * flux

    residual = abs(lhs - rhs)
    scale = max(abs(lhs), abs(rhs))
    passed = residual <= max(quadrature.TOL_QUAD * scale, 1e-6)
    return ViolationReport(
        constraint="balance_volume_vs_surface",
        residual_float=residual,
        passed=passed,
        details={"volume_side": lhs, "flux_side": rhs},
    )


def _axial_sphere_nodes(n, axis):
    """Sphere nodes exploiting rotational symmetry around ``axis``: latitude
    circles with Gauss-Legendre weights; returns unit nodes and weights
    summing to the sphere area.  Exact for integrands depending only on the
    polar angle; a good deterministic set otherwise."""
    axis = axis / np.linalg.norm(axis)
    t, w, lat = quadrature.latitude_rule(n)  # t = cos(theta)
    # complete t to unit vectors in the plane spanned by axis and one
    # orthogonal direction
    ortho = np.zeros(n)
    ortho[np.argmin(np.abs(axis))] = 1.0
    ortho = ortho - axis * (ortho @ axis)
    ortho /= np.linalg.norm(ortho)
    s = np.sqrt(np.maximum(1.0 - t * t, 0.0))
    nodes = t[:, None] * axis[None, :] + s[:, None] * ortho[None, :]
    return nodes, w * lat
