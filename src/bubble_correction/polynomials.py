"""Exact multivariate polynomial arithmetic over the rationals.

Coefficients are ``fractions.Fraction`` throughout, so algebraic identities
can be asserted with ``==`` instead of tolerances.  A multi-index is a plain
tuple of non-negative ints (never bools or anything truncated to an int)
whose length equals the ambient dimension; stored terms never carry a zero
coefficient.  Input is validated once, by ``Polynomial(...)`` and the named
constructors built on it.  Every operation on polynomials returns through the
private normaliser ``Polynomial._of``, which trusts its already-validated
terms and only drops zero coefficients.  Iteration and serialized output
follow graded-lexicographic order so that artifacts are byte-reproducible.
Evaluation is exact only: a point's coordinates are read like coefficients.

The exact operators (``laplacian``, ``iterated_laplacian``, ``r2_multiply``,
``_radial_sum`` and ``reduction.apply_L``) are built from two stencils on
coefficients scaled to integers by the lcm of their denominators
(``_scaled``, undone once by ``_unscaled``): the Laplacian moves
a_i(a_i - 1)c to alpha - 2e_i, and |y|^2 copies c to every alpha + 2e_j.

The zero polynomial is the empty term map (with an explicit dimension); its
degree is reported as ``None`` rather than an arbitrary sentinel number.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb, lcm

from .errors import DimensionMismatchError, ExactnessError

__all__ = [
    "Polynomial",
    "as_coefficient",
    "json_int",
    "rational_from_json",
    "rational_to_json",
    "laplacian",
    "iterated_laplacian",
    "partial_derivative",
    "gradient",
    "euler_operator",
    "directional_pairing",
    "r2_multiply",
    "compose_shift",
    "apply_signed_permutation",
]


def as_coefficient(value):
    """Coerce ints / strings / Fractions to Fraction.  Floats and booleans
    are refused: they would silently break the exactness contract of this
    module."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise ExactnessError(f"not an exact rational coefficient: {value!r}")


def json_int(value):
    """An integer read from JSON: an int (not a bool) or a decimal string.
    Anything else, floats included, is refused rather than truncated."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and re.fullmatch(r"[+-]?[0-9]+", value):
        return int(value)
    raise ValueError(f"not an integer or decimal string: {value!r}")


def rational_from_json(data):
    """Fraction from {"num": ..., "den": ...}, both read by ``json_int``;
    a zero denominator is refused."""
    den = json_int(data["den"])
    if den == 0:
        raise ValueError(f"zero denominator in {data!r}")
    return Fraction(json_int(data["num"]), den)


def rational_to_json(value):
    """{"num": str, "den": str} for an int or a Fraction, taken as is."""
    return {"num": str(value.numerator), "den": str(value.denominator)}


def _grlex_key(alpha):
    return (sum(alpha), alpha)


def _accumulate(terms, alpha, coeff):
    """Add ``coeff`` at ``alpha``; a zero sum stays until ``Polynomial._of``."""
    terms[alpha] = terms.get(alpha, 0) + coeff


class Polynomial:
    """Sparse polynomial in ``dimension`` variables with rational coefficients."""

    __slots__ = ("dimension", "terms")

    def __init__(self, dimension, terms=None):
        """Validate outside input; operation results are built by ``_of``."""
        if type(dimension) is not int or dimension < 1:
            raise ValueError(f"dimension must be a positive int, got {dimension!r}")
        checked = {}
        for alpha, coeff in (terms or {}).items():
            alpha = tuple(alpha)
            if len(alpha) != dimension:
                raise DimensionMismatchError(
                    f"multi-index {alpha} has length {len(alpha)}, expected {dimension}"
                )
            if any(type(a) is not int or a < 0 for a in alpha):
                raise ValueError(f"exponents must be non-negative ints: {alpha!r}")
            checked[alpha] = as_coefficient(coeff)
        self._store(dimension, checked)

    def _store(self, dimension, terms):
        """The one normaliser: keep ``terms`` without its zero coefficients."""
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "terms", {a: c for a, c in terms.items() if c})

    @classmethod
    def _of(cls, dimension, terms):
        """Operation results: ``terms`` is already valid, so nothing is checked."""
        poly = object.__new__(cls)
        poly._store(dimension, terms)
        return poly

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # ---------------------------------------------------------------- basics

    @classmethod
    def zero(cls, dimension):
        return cls(dimension, {})

    @classmethod
    def constant(cls, dimension, value):
        return cls(dimension, {(0,) * dimension: value})

    @classmethod
    def variable(cls, dimension, index, power=1, coeff=1):
        """The monomial coeff * y_index**power (index is 0-based)."""
        _check_index(dimension, index)
        alpha = [0] * dimension
        alpha[index] = power
        return cls(dimension, {tuple(alpha): coeff})

    @classmethod
    def r_squared(cls, dimension):
        """|y|^2 = y_1^2 + ... + y_n^2."""
        terms = {}
        for i in range(dimension):
            alpha = [0] * dimension
            alpha[i] = 2
            terms[tuple(alpha)] = Fraction(1)
        return cls(dimension, terms)

    @property
    def is_zero(self):
        return not self.terms

    def degree(self):
        """Total degree, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(alpha) for alpha in self.terms)

    def is_homogeneous(self):
        degrees = {sum(alpha) for alpha in self.terms}
        return len(degrees) <= 1

    def coefficient(self, alpha):
        return self.terms.get(tuple(alpha), Fraction(0))

    def constant_term(self):
        return self.terms.get((0,) * self.dimension, Fraction(0))

    def homogeneous_parts(self):
        """Map degree -> homogeneous component (zero polynomial excluded)."""
        parts = {}
        for alpha, coeff in self.terms.items():
            parts.setdefault(sum(alpha), {})[alpha] = coeff
        return {
            d: Polynomial._of(self.dimension, t) for d, t in sorted(parts.items())
        }

    def sorted_terms(self):
        """Terms in graded-lexicographic order."""
        return sorted(self.terms.items(), key=lambda item: _grlex_key(item[0]))

    # ------------------------------------------------------------ arithmetic

    def _check_dimension(self, other):
        if self.dimension != other.dimension:
            raise DimensionMismatchError(
                f"cannot combine dimensions {self.dimension} and {other.dimension}"
            )

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.dimension == other.dimension and self.terms == other.terms

    def __hash__(self):
        return hash((self.dimension, frozenset(self.terms.items())))

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_dimension(other)
        terms = dict(self.terms)
        for alpha, coeff in other.terms.items():
            _accumulate(terms, alpha, coeff)
        return Polynomial._of(self.dimension, terms)

    def __neg__(self):
        return Polynomial._of(
            self.dimension, {a: -c for a, c in self.terms.items()}
        )

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._check_dimension(other)
            terms = {}
            for a1, c1 in self.terms.items():
                for a2, c2 in other.terms.items():
                    _accumulate(terms, tuple(x + y for x, y in zip(a1, a2)), c1 * c2)
            return Polynomial._of(self.dimension, terms)
        coeff = as_coefficient(other)
        return Polynomial._of(
            self.dimension, {a: c * coeff for a, c in self.terms.items()}
        )

    __rmul__ = __mul__

    def __pow__(self, exponent):
        if type(exponent) is not int or exponent < 0:
            raise ValueError(
                f"exponent must be a non-negative int, got {exponent!r}"
            )
        result = Polynomial.constant(self.dimension, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __repr__(self):
        if self.is_zero:
            return f"Polynomial({self.dimension}, 0)"
        bits = []
        for alpha, coeff in self.sorted_terms():
            mono = "*".join(
                f"y{i + 1}^{a}" if a > 1 else f"y{i + 1}"
                for i, a in enumerate(alpha)
                if a
            )
            bits.append(f"{coeff}*{mono}" if mono else f"{coeff}")
        return f"Polynomial({self.dimension}, {' + '.join(bits)})"

    # ------------------------------------------------------------ evaluation

    def evaluate(self, point):
        """Exact value at a point of exact coordinates, monomial by monomial
        (no Horner rewriting).  Every coordinate is read by ``as_coefficient``,
        so float and boolean points are refused; float evaluation is
        ``kernels.eval_polynomial``."""
        if len(point) != self.dimension:
            raise DimensionMismatchError(
                f"point length {len(point)} != dimension {self.dimension}"
            )
        point = [as_coefficient(x) for x in point]
        total = Fraction(0)
        for alpha, coeff in self.terms.items():
            term = coeff
            for x, a in zip(point, alpha):
                if a:
                    term *= x**a
            total += term
        return total

    # ------------------------------------------------------------- serialize

    def to_json(self):
        """Schema: {"dimension": n, "terms": [{"alpha": [...], "num": str,
        "den": str}, ...]} with integers as decimal strings."""
        return {
            "dimension": self.dimension,
            "terms": [
                {
                    "alpha": list(alpha),
                    "num": str(coeff.numerator),
                    "den": str(coeff.denominator),
                }
                for alpha, coeff in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json(cls, data):
        try:
            dimension = json_int(data["dimension"])
            terms = {
                tuple(json_int(a) for a in entry["alpha"]): rational_from_json(entry)
                for entry in data["terms"]
            }
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed polynomial JSON: {exc}") from exc
        return cls(dimension, terms)


# ------------------------------------------------------------- differential


def _check_index(n, index):
    """Refuse a variable index that is not an int in 0 .. n - 1 (a bool or a
    negative index would otherwise pick a variable silently)."""
    if type(index) is not int or not 0 <= index < n:
        raise ValueError(
            f"variable index must be an int in 0 .. {n - 1}, got {index!r}"
        )


def partial_derivative(poly, index):
    """d(poly)/d(y_index), index 0-based."""
    _check_index(poly.dimension, index)
    terms = {}
    for alpha, coeff in poly.terms.items():
        a = alpha[index]
        if a:
            # lowering one exponent is one-to-one, so keys stay distinct
            terms[alpha[:index] + (a - 1,) + alpha[index + 1 :]] = coeff * a
    return Polynomial._of(poly.dimension, terms)


def _scaled(*term_maps):
    """D, the lcm of the denominators in ``term_maps``, and each map with its
    coefficients times D, as ints: the integer form every exact operator
    below works on."""
    scale = lcm(*(c.denominator for terms in term_maps for c in terms.values()))
    return scale, [
        {a: c.numerator * (scale // c.denominator) for a, c in terms.items()}
        for terms in term_maps
    ]


def _unscaled(n, sums, scale):
    """The polynomial sum_alpha (sums[alpha] / scale) y^alpha, for integer
    ``sums`` of coefficients scaled by ``scale``."""
    return Polynomial._of(
        n, {alpha: Fraction(v, scale) for alpha, v in sums.items() if v}
    )


def _laplacian_stencil(sums):
    """The Laplacian stencil: v at alpha adds a_i(a_i - 1)v at alpha - 2e_i."""
    out = {}
    get = out.get
    for alpha, v in sums.items():
        for i, a in enumerate(alpha):
            if a >= 2:
                key = alpha[:i] + (a - 2,) + alpha[i + 1 :]
                out[key] = get(key, 0) + a * (a - 1) * v
    return out


def _r2_stencil(n, sums):
    """The |y|^2 stencil: v at alpha is added at every alpha + 2e_j."""
    out = {}
    get = out.get
    for alpha, v in sums.items():
        beta = list(alpha)
        for j in range(n):
            beta[j] += 2
            up = tuple(beta)
            out[up] = get(up, 0) + v
            beta[j] -= 2
    return out


def _horner(n, blocks):
    """sum_j (|y|^2)^j blocks[j] over integer sums, by Horner in |y|^2."""
    sums = {}
    for q in reversed(blocks):
        sums = _r2_stencil(n, sums)
        get = sums.get
        for alpha, v in q.items():
            sums[alpha] = get(alpha, 0) + v
    return sums


def _radial_sum(n, blocks):
    """sum_j (|y|^2)^j Q_j for the blocks Q_0, Q_1, ..., by Horner in |y|^2.

    A block is a polynomial or an exact weight (a constant polynomial); all
    blocks are scaled by one D and unscaled once at the end."""
    blocks = [
        q if isinstance(q, Polynomial) else Polynomial.constant(n, q) for q in blocks
    ]
    scale, sums = _scaled(*(q.terms for q in blocks))
    return _unscaled(n, _horner(n, sums), scale)


def laplacian(poly):
    """Sum of second partials over all variables: one stencil pass on the
    integer coefficients."""
    scale, (sums,) = _scaled(poly.terms)
    return _unscaled(poly.dimension, _laplacian_stencil(sums), scale)


def iterated_laplacian(poly, count):
    """count-fold composition of the Laplacian (count = 0 is the identity),
    every pass on the same integer sums, unscaled once."""
    if count < 0:
        raise ValueError("iteration count must be non-negative")
    scale, (sums,) = _scaled(poly.terms)
    for _ in range(count):
        if not sums:
            break
        sums = _laplacian_stencil(sums)
    return _unscaled(poly.dimension, sums, scale)


def gradient(poly):
    """All first partials, as a list of polynomials."""
    return [partial_derivative(poly, i) for i in range(poly.dimension)]


def euler_operator(poly):
    """y . grad(poly); equals (degree * poly) on homogeneous input.

    Each monomial is an eigenvector: y . grad(y^alpha) = |alpha| y^alpha."""
    return Polynomial._of(
        poly.dimension,
        {alpha: sum(alpha) * coeff for alpha, coeff in poly.terms.items()},
    )


def directional_pairing(direction, poly):
    """<X, grad(poly)> for an exact rational vector X."""
    if len(direction) != poly.dimension:
        raise DimensionMismatchError(
            f"direction length {len(direction)} != dimension {poly.dimension}"
        )
    out = Polynomial.zero(poly.dimension)
    for i, x in enumerate(direction):
        x = as_coefficient(x)
        if x:
            out = out + partial_derivative(poly, i) * x
    return out


def r2_multiply(poly, power):
    """(y_1^2 + ... + y_n^2)^power * poly: the radial sum with ``power`` zero
    blocks in front of poly."""
    if type(power) is not int or power < 0:
        raise ValueError(f"power must be a non-negative int, got {power!r}")
    return _radial_sum(poly.dimension, [0] * power + [poly])


def compose_shift(poly, shift):
    """poly(y + shift) expanded exactly, for an exact rational shift vector."""
    n = poly.dimension
    if len(shift) != n:
        raise DimensionMismatchError(f"shift length {len(shift)} != dimension {n}")
    shift = [as_coefficient(s) for s in shift]
    out = {}
    for alpha, coeff in poly.terms.items():
        # expand prod_i (y_i + s_i)^{alpha_i} one variable at a time
        partial = {(0,) * n: coeff}
        for i, a in enumerate(alpha):
            if a == 0:
                continue
            # every beta in partial has beta[i] == 0, so keys stay distinct
            expanded = {}
            powers = [shift[i] ** (a - j) for j in range(a + 1)]
            for beta, c in partial.items():
                for j in range(a + 1):
                    c2 = c * comb(a, j) * powers[j]
                    if c2:
                        expanded[beta[:i] + (j,) + beta[i + 1 :]] = c2
            partial = expanded
        for beta, c in partial.items():
            _accumulate(out, beta, c)
    return Polynomial._of(n, out)


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
    terms = {}
    for alpha, coeff in poly.terms.items():
        beta = [0] * n
        sign = 1
        for i in range(n):
            a = alpha[i]
            beta[permutation[i]] = a
            if a % 2 and signs[i] == -1:
                sign = -sign
        # T permutes the multi-indices, so keys stay distinct
        terms[tuple(beta)] = sign * coeff
    return Polynomial._of(n, terms)
