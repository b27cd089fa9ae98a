"""Independent oracles and input builders that only the test suite uses:
finite differences, a perturbed bubble for negative controls, a Monte Carlo
estimator for the quadrature oracle, a second form of the profile
correction, the stereographic pair and the conformal transport between S^n
and R^n, the scan of the elementary inequalities of the linearization step,
the Euler operator by products, L built by sympy and L built operator by
operator, |y|^2-graded sums by Polynomial products, the block combination
cell by cell, the radial solve over the source's full table, the probe
constant of the admissible projection, the shift by binomials, its pieces by
shift degree (the Taylor route to the shifted moments) and the directional
pairing by partials, the projection that manufactures admissible sources,
the signed permutations of the weight's symmetry, the exact operators on
plain {alpha: Fraction} dicts, the moment's second route (monomial
bookkeeping by modified double factorials, beside ``b_constant``) and the
exact checks of the exponent trade, the power-cube formula the polynomial
kernel must match, the multi-point balance sums at 300 digits, and the
linearized residual with lap Pi expanded by the product rule."""

from fractions import Fraction
from math import comb, factorial, gamma, pi, prod

import mpmath
import numpy as np
import sympy

from bubble_correction import kernels
from bubble_correction.errors import DivergentMomentError
from bubble_correction.moments import j_multiple
from bubble_correction.polynomials import (
    Polynomial,
    directional_pairing,
    euler_operator,
    iterated_laplacian,
    laplacian,
    partial_derivative,
    r2_multiply,
)
from bubble_correction.profiles import BubbleProfile
from bubble_correction.reduction import (
    _validated_source,
    a_multiplier,
    coefficient_table,
    h_of,
    radial_completion,
    residue_terms,
)


# -------------------------------------------------------- finite differences


def fd_gradient(func, point, step=1e-6):
    """Central-difference gradient of a scalar function of one point."""
    point = np.asarray(point, dtype=float)
    out = np.zeros_like(point)
    for i in range(point.size):
        e = np.zeros_like(point)
        e[i] = step
        out[i] = (func(point + e) - func(point - e)) / (2.0 * step)
    return out


def fd_laplacian(func, point, step=1e-4):
    """Second-order central-difference Laplacian."""
    point = np.asarray(point, dtype=float)
    center = func(point)
    total = 0.0
    for i in range(point.size):
        e = np.zeros_like(point)
        e[i] = step
        total += func(point + e) - 2.0 * center + func(point - e)
    return total / step**2


def fd_laplacian_4th(func, point, step=5e-3):
    """Fourth-order central-difference Laplacian (five-point stencil per
    axis); preferred when the target tolerance is below ~1e-7."""
    point = np.asarray(point, dtype=float)
    center = func(point)
    total = 0.0
    for i in range(point.size):
        e = np.zeros_like(point)
        e[i] = step
        f1p, f1m = func(point + e), func(point - e)
        f2p, f2m = func(point + 2 * e), func(point - 2 * e)
        total += (-f2p + 16 * f1p - 30 * center + 16 * f1m - f2m) / 12.0
    return total / step**2


# ------------------------------------------------------------------ profiles


class PerturbedProfile:
    """Bubble plus a smooth positive ripple; used as a negative control for
    identities that hold only on exact solutions."""

    def __init__(self, n, eps, center, amplitude=0.3, width=1.0):
        self.base = BubbleProfile(n, eps, center)
        self.dimension = n
        self.center = self.base.center
        self.amplitude = float(amplitude)
        self.width = float(width)

    def values(self, points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        r2 = (points * points).sum(axis=1)
        bump = self.amplitude * (1.0 + r2 / self.width**2) ** (
            -(self.dimension - 2) / 2.0
        )
        return self.base.values(points) + bump

    def gradients(self, points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        r2 = (points * points).sum(axis=1)
        n = self.dimension
        w2 = self.width**2
        factor = (
            self.amplitude
            * (-(n - 2) / w2)
            * (1.0 + r2 / w2) ** (-(n - 2) / 2.0 - 1.0)
        )
        return self.base.gradients(points) + factor[:, None] * points


def correction_critical_power_form(profile, points):
    """The correction addend of a RefinedProfile written as
    lam^(ell+1) * Gamma(Y) times the bubble raised to n/(n-2)."""
    s = profile.spec
    points = np.atleast_2d(np.asarray(points, dtype=float))
    Y = (points - np.asarray(s.xi, float)[None, :]) / s.lam
    return (
        s.lam ** (s.ell + 1)
        * eval_polynomial(s.gamma, Y)
        * profile.bubble(points) ** (s.n / (s.n - 2.0))
    )


# ------------------------------------------------------- stereographic pair


def stereographic_to_plane(x):
    """Project a unit vector in R^(n+1) (not the north pole) to R^n."""
    x = np.asarray(x, dtype=float)
    denom = 1.0 - x[-1]
    if abs(denom) < 1e-14:
        raise ValueError("projection is singular at the north pole")
    return x[:-1] / denom


def stereographic_from_plane(y):
    """Inverse projection: R^n -> unit sphere in R^(n+1)."""
    y = np.asarray(y, dtype=float)
    r2 = float(y @ y)
    return np.append(2.0 * y / (1.0 + r2), (r2 - 1.0) / (1.0 + r2))


def flat_from_sphere_function(u_func, n):
    """Conformal partner on R^n of a function on S^n:
    v(y) = u(inverse-projection(y)) * (2 / (1 + |y|^2))^((n-2)/2)."""

    def v(y):
        y = np.asarray(y, dtype=float)
        r2 = float(y @ y)
        return u_func(stereographic_from_plane(y)) * (2.0 / (1.0 + r2)) ** (
            (n - 2) / 2.0
        )

    return v


def sphere_from_flat_function(v_func, n):
    """Inverse conformal transport: u(x) = v(projection(x)) divided by the
    same conformal factor."""

    def u(x):
        y = stereographic_to_plane(x)
        r2 = float(y @ y)
        return v_func(y) / (2.0 / (1.0 + r2)) ** ((n - 2) / 2.0)

    return u


# ------------------------------------------------ elementary inequality scan


def linearization_bound_check(samples=10_000, seed=0, n=4):
    """Property-scan of the elementary inequalities used by the linear
    approximation step, reporting measured margins.

    The printed power-difference inequality with the 1/p factor fails for
    generic p > 1 (witness a=2, b=1, p=2: difference 3 vs bound 2); that
    discrepancy is recorded and the standard mean-value form with factor p is
    the one scanned.  The perturbation bound |(1+t)^beta - 1| <= eps +
    C_beta/eps^beta |t|^beta is scanned with C_beta = (2^beta + 1)(beta +
    1)^beta, and its three-term corollary with an extra factor 2^(beta-1).
    """
    rng = np.random.default_rng(seed)
    beta = 2.0 * n / (n - 2.0)
    c_beta = (2.0**beta + 1.0) * (beta + 1.0) ** beta
    c_bar = 2.0 ** (beta - 1.0) * c_beta

    # documented discrepancy of the printed 1/p form
    a0, b0, p0 = 2.0, 1.0, 2.0
    printed_lhs = a0**p0 - b0**p0
    printed_rhs = (1.0 / p0) * (a0 - b0) * a0 ** (p0 - 1.0)
    printed_form_fails = printed_lhs > printed_rhs

    a = rng.uniform(0.5, 10.0, samples)
    b = a * rng.uniform(0.0, 1.0, samples)
    p = rng.uniform(1.0, 5.0, samples)
    mean_value_ok = bool(
        np.all(a**p - b**p <= p * (a - b) * a ** (p - 1.0) * (1 + 1e-12))
    )

    t = rng.uniform(-1.0, 10.0, samples)
    perturbation_ok = True
    worst_margin = np.inf
    for eps in (0.1, 0.01):
        lhs = np.abs((1.0 + t) ** beta - 1.0)
        rhs = eps + (c_beta / eps**beta) * np.abs(t) ** beta
        margin = float((rhs - lhs).min())
        worst_margin = min(worst_margin, margin)
        perturbation_ok = perturbation_ok and bool(np.all(lhs <= rhs))

    A = rng.uniform(0.1, 5.0, samples)
    B = rng.uniform(-2.0, 2.0, samples)
    C = rng.uniform(-2.0, 2.0, samples)
    keep = A + B + C > 0
    A, B, C = A[keep], B[keep], C[keep]
    three_term_ok = True
    for eps in (0.1, 0.01):
        lhs = np.abs((A + B + C) ** beta - A**beta)
        rhs = eps * A**beta + (c_bar / eps**beta) * (
            np.abs(B) ** beta + np.abs(C) ** beta
        )
        three_term_ok = three_term_ok and bool(np.all(lhs <= rhs))

    # decomposition residual of the critical-power difference
    p_crit = (n + 2.0) / (n - 2.0)
    V = A * rng.uniform(0.2, 1.0, A.size)
    direct = A**p_crit - V**p_crit
    linear = p_crit * (A - V) * A ** (p_crit - 1.0)
    residual = np.abs(direct - linear)
    envelope = (A - V) ** 2 * A ** (p_crit - 2.0)
    ratio = residual[envelope > 0] / envelope[envelope > 0]
    decomposition_constant = float(ratio.max()) if ratio.size else 0.0

    return {
        "printed_power_difference_form_fails": printed_form_fails,
        "printed_witness": {"a": a0, "b": b0, "p": p0, "lhs": printed_lhs, "rhs": printed_rhs},
        "mean_value_form_ok": mean_value_ok,
        "perturbation_bound_ok": perturbation_ok,
        "perturbation_worst_margin": worst_margin,
        "three_term_bound_ok": three_term_ok,
        "decomposition_constant": decomposition_constant,
        "samples": samples,
    }


# --------------------------------------------------------------- exact tier


def euler_operator_by_products(poly):
    """y . grad(poly) as the sum over i of y_i * d(poly)/d(y_i), one exact
    Polynomial product per variable."""
    out = Polynomial.zero(poly.dimension)
    for i in range(poly.dimension):
        out = out + Polynomial.variable(poly.dimension, i) * partial_derivative(
            poly, i
        )
    return out


def sympy_apply_L(poly):
    """L(G) = (1 + |y|^2) lap(G) - 2n (y . grad G) + 2n G computed by sympy's
    own polynomial arithmetic over QQ, converted back to an exact
    Polynomial; shares no code with ``reduction.apply_L``."""
    n = poly.dimension
    ys = sympy.symbols(f"y1:{n + 1}")
    g = sympy.Poly.from_dict(
        {alpha: sympy.Rational(c.numerator, c.denominator)
         for alpha, c in poly.terms.items()},
        *ys, domain=sympy.QQ,
    )
    zero = sympy.Poly(0, *ys, domain=sympy.QQ)
    lap = sum((g.diff((y, 2)) for y in ys), zero)
    r2 = sum((sympy.Poly(y**2, *ys) for y in ys), zero)
    euler = sum((sympy.Poly(y, *ys) * g.diff(y) for y in ys), zero)
    image = (1 + r2) * lap - 2 * n * euler + 2 * n * g
    return Polynomial(
        n,
        {alpha: Fraction(int(c.p), int(c.q))
         for alpha, c in image.as_dict(native=False).items()},
    )


def laplacian_by_partials(poly):
    """sum_i d^2(poly)/d(y_i)^2 by Fraction arithmetic, one exact Polynomial
    sum per variable: the Laplacian before its integer pass."""
    out = Polynomial.zero(poly.dimension)
    for i in range(poly.dimension):
        out = out + partial_derivative(partial_derivative(poly, i), i)
    return out


def apply_L_by_operators(poly):
    """L(G) = (1 + |y|^2) lap(G) - 2n (y . grad G) + 2n G assembled from the
    package's Laplacian and Euler operator with Polynomial arithmetic: the
    formula ``reduction.apply_L`` computed before its integer stencil."""
    n = poly.dimension
    lap = laplacian(poly)
    weighted = lap + Polynomial.r_squared(n) * lap
    return weighted - 2 * n * euler_operator(poly) + 2 * n * poly


def radial_sum_by_products(n, blocks):
    """sum_j (|y|^2)^j Q_j by Polynomial powers and products, block by block;
    a block is a polynomial or an exact weight."""
    out = Polynomial.zero(n)
    for j, q in enumerate(blocks):
        if not isinstance(q, Polynomial):
            q = Polynomial.constant(n, q)
        out = out + Polynomial.r_squared(n) ** j * q
    return out


def combination_by_cells(n, chain, table):
    """sum over the table's cells of C^j_k (|y|^2)^j chain[k], cell by cell:
    each cell added to its row by one ``Polynomial.__add__``, the rows then
    weighted by |y|^2 powers through ``radial_sum_by_products``."""
    rows = [Polynomial.zero(n)] * table.columns
    for (j, k), c in table.C.items():
        rows[j] = rows[j] + c * chain[k]
    return radial_sum_by_products(n, rows)


def solve_by_full_table(poly):
    """gamma + F for a source whose top Laplacian is a nonzero constant, by
    the construction the solver used before it split P at its radial
    component: gamma the combination over P's own chain and full table
    (``combination_by_cells``), with L(gamma) == P + R for the residue R of
    ``residue_terms``, and F the completion of the weights top * a_k, with
    L(F) == -R."""
    ell = _validated_source(poly, allow_radial=True)
    n = poly.dimension
    h = h_of(ell)
    table = coefficient_table(n, ell)
    chain = [iterated_laplacian(poly, k) for k in range(h)]
    gamma = combination_by_cells(n, chain, table)
    if apply_L_by_operators(gamma) != poly + residue_terms(poly):
        raise AssertionError("the full-table combination missed P + R")
    top = iterated_laplacian(poly, h).constant_term()
    return gamma + radial_completion(n, ell, [top * a for a in table.residues])


def projection_reference(n, ell):
    """The constant d with lap^h((|y|^2)^h T) = d T for the top Laplacian T
    of a degree-ell source, h = ell // 2, read off a probe: lap^h of
    (|y|^2)^(ell/2) for even ell, the y_1 coefficient of lap^h of
    (|y|^2)^((ell-1)/2) y_1 for odd ell."""
    h = ell // 2
    r2 = Polynomial.r_squared(n)
    if ell % 2 == 0:
        return iterated_laplacian(r2**h, h).constant_term()
    probe = iterated_laplacian(r2**h * Polynomial.variable(n, 0), h)
    return probe.coefficient((1,) + (0,) * (n - 1))


def compose_shift_by_binomials(poly, shift):
    """poly(y + shift) expanded on Fractions monomial by monomial, each
    (y_i + s_i)^a_i by the binomial theorem: the shift before its Taylor
    terms."""
    n = poly.dimension
    out = {}
    for alpha, coeff in poly.terms.items():
        partial = {(0,) * n: coeff}
        for i, a in enumerate(alpha):
            s = Fraction(shift[i])
            expanded = {}
            for beta, c in partial.items():
                for j in range(a + 1):
                    key = beta[:i] + (j,) + beta[i + 1 :]
                    term = c * comb(a, j) * s ** (a - j)
                    expanded[key] = expanded.get(key, 0) + term
            partial = expanded
        for beta, c in partial.items():
            out[beta] = out.get(beta, 0) + c
    return Polynomial(n, out)


def shift_expansion(poly, shift):
    """Decomposition of Q(shift + z) by homogeneity in the shift, for a
    nonzero homogeneous Q of degree ell and an exact shift vector: the
    pieces of shift degree h = 0 .. ell as polynomials in z, the Taylor
    terms (shift . grad)^h Q / h!, each one ``directional_pairing`` of the
    last divided by h.  Piece h has z-degree ell - h, so its moment is the
    Taylor route to the shifted moment that ``moments`` reads from Q's
    Laplacian chain."""
    if not poly.is_homogeneous() or poly.is_zero:
        raise ValueError("shift expansion expects a nonzero homogeneous input")
    pieces = [poly]
    for h in range(1, poly.degree() + 1):
        pieces.append(directional_pairing(shift, pieces[-1]) * Fraction(1, h))
    return pieces


def directional_pairing_by_partials(direction, poly):
    """<X, grad(poly)> as the sum of x_i * d(poly)/d(y_i), one exact
    Polynomial sum per variable."""
    out = Polynomial.zero(poly.dimension)
    for i, x in enumerate(direction):
        out = out + partial_derivative(poly, i) * Fraction(x)
    return out


def project_to_admissible(poly):
    """Subtract an exact radial (or radial-times-linear) multiple so that the
    top iterated Laplacian of the result vanishes identically.

    Used to manufacture admissible test inputs; already-admissible inputs are
    returned unchanged.  The top Laplacian T = lap^h P is a constant or a
    linear form, so it is harmonic and lap^h((|y|^2)^h T) = d T with
    d = prod_{i=1..h} a_multiplier(n, ell - 2h, i, 0).
    """
    ell = _validated_source(poly)
    n = poly.dimension
    h = h_of(ell)
    top = iterated_laplacian(poly, h)
    if top.is_zero:
        return poly
    d = prod(a_multiplier(n, ell - 2 * h, i, 0) for i in range(1, h + 1))
    adjusted = poly - r2_multiply(top, h) * (1 / d)
    if not iterated_laplacian(adjusted, h).is_zero:
        raise AssertionError("projection failed to clear the top Laplacian")
    return adjusted


def apply_signed_permutation(poly, permutation, signs):
    """poly(T y) for the signed permutation T: (Ty)_i = signs[i] * y_{perm[i]}.

    Used to check that verdicts of geometric tests are invariant under the
    symmetries of the weight (1 + |y|^2)^(-n).
    """
    n = poly.dimension
    if sorted(permutation) != list(range(n)):
        raise ValueError("permutation must be a rearrangement of 0..n-1")
    if any(s not in (1, -1) for s in signs):
        raise ValueError("signs must be +1 or -1")
    nums = {}
    for alpha, v in poly.nums.items():
        beta = [0] * n
        sign = 1
        for i in range(n):
            a = alpha[i]
            beta[permutation[i]] = a
            if a % 2 and signs[i] == -1:
                sign = -sign
        # T permutes the multi-indices, so keys stay distinct
        nums[tuple(beta)] = sign * v
    return Polynomial(n, {beta: Fraction(v, poly.den) for beta, v in nums.items()})


# ------------------------------------------- exact operators on plain dicts
# The reference for the integer form of ``Polynomial``: every operator
# written on {alpha: Fraction} dicts with zero coefficients dropped, term by
# term from its definition, sharing no code with ``polynomials``.


def dict_add(p, q):
    out = dict(p)
    for alpha, c in q.items():
        out[alpha] = out.get(alpha, 0) + c
    return {alpha: c for alpha, c in out.items() if c}


def dict_scale(p, c):
    return {alpha: v * c for alpha, v in p.items() if v * c}


def dict_mul(p, q):
    out = {}
    for a1, c1 in p.items():
        for a2, c2 in q.items():
            out = dict_add(out, {tuple(x + y for x, y in zip(a1, a2)): c1 * c2})
    return out


def dict_partial(p, i):
    """d/dy_i, one monomial at a time."""
    out = {}
    for alpha, c in p.items():
        if alpha[i]:
            lowered = alpha[:i] + (alpha[i] - 1,) + alpha[i + 1 :]
            out = dict_add(out, {lowered: c * alpha[i]})
    return out


def dict_laplacian(p, n):
    out = {}
    for i in range(n):
        out = dict_add(out, dict_partial(dict_partial(p, i), i))
    return out


def dict_euler(p, n):
    """y . grad p as sum_i y_i * d(p)/d(y_i)."""
    out = {}
    for i in range(n):
        y_i = {tuple(int(k == i) for k in range(n)): Fraction(1)}
        out = dict_add(out, dict_mul(y_i, dict_partial(p, i)))
    return out


def dict_r2(p, n):
    """|y|^2 * p."""
    r2 = {tuple(2 * (k == j) for k in range(n)): Fraction(1) for j in range(n)}
    return dict_mul(r2, p)


def dict_apply_L(p, n):
    """(1 + |y|^2) lap(p) - 2n (y . grad p) + 2n p."""
    lap = dict_laplacian(p, n)
    weighted = dict_add(lap, dict_r2(lap, n))
    return dict_add(weighted, dict_add(dict_scale(dict_euler(p, n), -2 * n),
                                       dict_scale(p, 2 * n)))


# ------------------------------------------------------------------ moments


def b_constant(ell):
    """ell(ell-2)(ell-4)...2, the top iterated Laplacian of
    y_1^2 ... y_{ell/2}^2."""
    if ell < 2 or ell % 2:
        raise ValueError("requires an even degree >= 2")
    out = 1
    for m in range(2, ell + 1, 2):
        out *= m
    return out


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


def monomial_j_multiple(alpha):
    """Product of modified double factorials over the exponents: the
    multiple of J in the weighted integral of y^alpha."""
    out = 1
    for a in alpha:
        out *= double_factorial_minus2(a)
        if not out:
            return 0
    return out


def j_multiple_by_bookkeeping(poly):
    """The multiple of J(n, deg) in the weighted integral of a homogeneous
    polynomial by monomial bookkeeping, the independent route to
    ``moments.j_multiple``'s top chain level: one integer sum over the
    polynomial's denominator."""
    return Fraction(
        sum(v * monomial_j_multiple(alpha) for alpha, v in poly.nums.items()),
        poly.den,
    )


def _identity_inputs(n, k, alpha):
    if k < 2 or k % 2:
        raise ValueError("k must be an even integer >= 2")
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != n:
        raise ValueError("alpha must have length n")
    if alpha[0] or alpha[-1]:
        raise ValueError("alpha must not use the first or last variable slot")
    if any(a % 2 for a in alpha):
        raise ValueError("alpha must be even in every slot")
    mono = {tuple(alpha): Fraction(1)}
    lhs = Polynomial(n, mono) * Polynomial.variable(n, 0, k + 2)
    rhs = (
        Polynomial(n, mono)
        * Polynomial.variable(n, 0, k)
        * Polynomial.variable(n, n - 1, 2)
    )
    return lhs, rhs


def reduction_identity_check(n, k, alpha):
    """Exactly verify that trading y_1^(k+2) for (k+1) * y_1^k y_n^2 leaves
    the weighted moment unchanged: both sides as rational multiples of J."""
    lhs, rhs = _identity_inputs(n, k, alpha)
    if lhs.degree() > n - 1:
        raise DivergentMomentError(
            "identity check requires total degree <= n - 1"
        )
    return j_multiple(lhs) == (k + 1) * j_multiple(rhs)


def laplacian_identity_check(n, k, alpha):
    """Exactly verify the polynomial form of the same trade: the top iterated
    Laplacians agree with the factor (k + 1)."""
    lhs, rhs = _identity_inputs(n, k, alpha)
    ell = lhs.degree()
    h = ell // 2
    return iterated_laplacian(lhs, h) == (k + 1) * iterated_laplacian(rhs, h)


# ------------------------------------------------------------------ kernels


def eval_polynomial(poly, points):
    """Float values of a Polynomial at an (m, n) array, or at one point."""
    return kernels.eval_poly(np.atleast_2d(points), *kernels.poly_arrays(poly))


def eval_poly_cube(points, exps, coeffs):
    """sum_t coeffs[t] * prod_i points[:, i]**exps[t, i] through the full
    (m, t, n) power cube: the rule ``kernels.eval_poly`` must reproduce bit
    for bit.  x**a is the left-to-right product of a factors of x (a running
    product, no ``pow``), the factors of a term are multiplied in variable
    order, and each row is multiplied by the coefficients and summed on its
    own."""
    points = np.asarray(points, dtype=np.float64)
    m, n = points.shape
    if coeffs.size == 0:
        return np.zeros(m)
    cube = np.empty((m, coeffs.size, n))
    for i in range(n):
        powers = [np.ones(m)]
        for _ in range(int(exps[:, i].max())):
            powers.append(powers[-1] * points[:, i])
        cube[:, :, i] = np.stack(powers, axis=1)[:, exps[:, i]]
    mono = np.ones((m, coeffs.size))
    for i in range(n):
        mono = mono * cube[:, :, i]
    return (mono * coeffs).sum(axis=1)


# ---------------------------------------------------------------- Monte Carlo


def monte_carlo_weighted_integral(poly, samples=10_000_000, seed=0, chunk=1_000_000):
    """Seeded importance-sampling estimate of the bubble-weighted integral of
    ``poly`` plus its standard error.

    Samples come from a multivariate-t with one degree of freedom, whose
    tails are heavy enough that the estimator has finite variance for every
    degree the closed form accepts.
    """
    n = poly.dimension
    rng = np.random.default_rng(seed)
    tables, coeffs = kernels.poly_arrays(poly)
    nu = 1.0
    log_norm = (
        np.log(gamma((nu + n) / 2.0))
        - np.log(gamma(nu / 2.0))
        - 0.5 * n * np.log(nu * pi)
    )
    total = 0.0
    total_sq = 0.0
    drawn = 0
    while drawn < samples:
        m = min(chunk, samples - drawn)
        g = rng.standard_normal((m, n))
        s = rng.chisquare(nu, m)
        y = g * np.sqrt(nu / s)[:, None]
        r2 = (y * y).sum(axis=1)
        log_p = log_norm - 0.5 * (nu + n) * np.log1p(r2 / nu)
        vals = kernels.eval_poly(y, tables, coeffs)
        w = vals * np.exp(-n * np.log1p(r2) - log_p)
        total += float(w.sum())
        total_sq += float((w * w).sum())
        drawn += m
    mean = total / drawn
    var = max(total_sq / drawn - mean * mean, 0.0)
    return mean, (var / drawn) ** 0.5


# ------------------------------------------------------------ balance sums


def balance_group_sum_mp(config, members, digits=300):
    """sum_m c_m * b_m^(n/2) * S_m^e over ``members`` at ``digits`` digits,
    with b_m = n(n-2) / (c~ K_m), e = (n-3)(1+eta) and c_m the pairing
    <p_m, grad T_m>(v_m) taken monomial by monomial; returns the sum and the
    largest |term|.  Shares no code with ``balance.multi_point_balance``."""
    n = config.n
    with mpmath.workdps(digits):

        def mp(x):
            x = Fraction(x)
            return mpmath.mpf(x.numerator) / x.denominator

        eta = config.flex_exponents[members[0]]
        e = mp((n - 3) * (1 + eta))
        terms = []
        for m in members:
            point, v = config.points[m], config.flex_vectors[m]
            pairing = Fraction(0)
            for alpha, c in config.taylor_polys[m].terms.items():
                for i, a in enumerate(alpha):
                    if a and point[i]:
                        term = c * a * point[i]
                        for k, d in enumerate(alpha):
                            term *= v[k] ** (d - (k == i))
                        pairing += term
            b = Fraction(4 * n * (n - 1)) / config.k_values[m]
            terms.append(
                mp(pairing) * mp(b) ** (mpmath.mpf(n) / 2)
                * mp(config.scale_ratios[m]) ** e
            )
        return mpmath.fsum(terms), max((abs(t) for t in terms), default=0)


# --------------------------------------------- linearized residual, by parts


def _abs_eval(poly, points):
    """sum_alpha |c_alpha| |y^alpha| at each point: the scale of the rounding
    error of evaluating ``poly`` there."""
    tables, coeffs = kernels.poly_arrays(poly)
    return kernels.eval_poly(np.abs(points), tables, np.abs(coeffs))


def residual_by_product_rule(gamma, source, points):
    """lap Pi + n(n+2)(1 + r^2)^(-2) Pi - P (1 + r^2)^(-(n+2)/2) at the points,
    for Pi = gamma (1 + r^2)^(-n/2), with lap Pi expanded by the product rule
    from lap(gamma), the Euler image y . grad gamma and gamma:

        lap Pi = lap(gamma) w - 2n (y . grad gamma) w / (1 + r^2)
                 + gamma (n(n+2) r^2 / (1 + r^2)^2 - n^2 / (1 + r^2)) w,

    w = (1 + r^2)^(-n/2).  Returns the values and their absolute-value sum:
    each polynomial's ``_abs_eval`` times the absolute value of its weight,
    summed over the four polynomials."""
    n = gamma.dimension
    r2 = (points * points).sum(axis=1)
    one = 1.0 + r2
    polys = [laplacian(gamma), euler_operator(gamma), gamma, source]
    lap_g, eul_g, gam, src = (eval_polynomial(p, points) for p in polys)
    lap_pi = (
        lap_g * one ** (-n / 2.0)
        - 2.0 * n * eul_g * one ** (-n / 2.0 - 1.0)
        + gam
        * (
            n * (n + 2) * r2 * one ** (-n / 2.0 - 2.0)
            - n * n * one ** (-n / 2.0 - 1.0)
        )
    )
    pi_vals = gam * one ** (-n / 2.0)
    values = (
        lap_pi + n * (n + 2) * one**-2.0 * pi_vals - src * one ** (-(n + 2) / 2.0)
    )
    weights = [
        one ** (-n / 2.0),
        2.0 * n * one ** (-n / 2.0 - 1.0),
        n * (n + 2) * r2 * one ** (-n / 2.0 - 2.0)
        + n * n * one ** (-n / 2.0 - 1.0)
        + n * (n + 2) * one**-2.0 * one ** (-n / 2.0),
        one ** (-(n + 2) / 2.0),
    ]
    scale = sum(w * _abs_eval(p, points) for w, p in zip(weights, polys))
    return values, scale
