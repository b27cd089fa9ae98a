"""Exact multivariate polynomial arithmetic over the rationals.

A polynomial is stored in one integer form: a positive int denominator
``den`` and a read-only map ``nums`` from multi-index to nonzero int
numerator, the coefficient at alpha being nums[alpha] / den.  The form is
kept in lowest terms (gcd(den, *nums) == 1, and den == 1 for the zero
polynomial), so two polynomials are equal exactly when their dimensions,
denominators and numerators are, and algebraic identities can be asserted
with ``==`` instead of tolerances.  ``fractions.Fraction`` appears only at
the boundary: the coefficients ``Polynomial(...)`` reads, ``terms`` (a fresh
{alpha: Fraction} dict on each read), ``coefficient``, ``sorted_terms`` and
the one value ``evaluate`` returns (``to_json`` and the streaming writer
``json_chunks``, which writes the compact text of ``json.dumps`` with
``separators=(",", ":")``, reduce each coefficient by one integer gcd).  No
function does Fraction arithmetic beyond coercing its inputs.

A multi-index is a plain tuple of non-negative ints (never bools or anything
truncated to an int) whose length equals the ambient dimension.  Input is
validated once, by the one private validator ``Polynomial._validate`` that
``Polynomial(...)`` (with the named constructors built on it) and
``Polynomial.from_json`` share: it takes each term as a multi-index and an
integer numerator and denominator, checks the dimension and each exponent
once, and puts the numerators over the lcm of the denominators.
``Polynomial(...)`` feeds it each coefficient's numerator and denominator;
``from_json`` feeds it one ``json_int`` read of each exponent, numerator and
denominator, and builds no Fraction.  Every input file of the package is
read through one field reader, the private ``_read_fields``: a JSON object's
fields in a fixed order, each by its reader (a list field by ``_list_of``,
the one "JSON list of X" reader), with one ``malformed <what>: ...`` wrap
for a top level that is not an object, a missing key or a refused value.
``from_json`` is its polynomial case.  Three value rules are written here
once and used by every module: ``_int_arg`` (an int, never a bool, a float
or a str, in its range), ``_scale_arg`` (a real, not a bool, with
0 < value < inf) and the string-rational grammar of ``as_coefficient``
(``[+-]?[0-9]+(/[0-9]+)?``, so no decimal or exponent string is read).
Every operation on polynomials returns
through the private ``Polynomial._of``, whose one normaliser trusts its
already-valid numerators, drops the zero ones and divides out the gcd.
Iteration and serialized output follow graded-lexicographic order so that
artifacts are byte-reproducible.  Evaluation is exact only: a point's
coordinates are read like coefficients, once, by ``_integer_vector`` into
integers over one denominator, and the private ``_evaluate`` takes that
read, so the level routes of ``moments`` and ``balance`` evaluate every
level of a chain at a point from one read.

The exact operators work on the numerators: a sum first puts its operands
over one denominator (``_over_lcm``), a product multiplies the denominators,
and ``laplacian``, ``r2_multiply``, ``_radial_sum`` and ``reduction.apply_L``
are built from two integer stencils that keep the denominator: the Laplacian
moves a_i(a_i - 1)v to alpha - 2e_i, and |y|^2 copies v to every
alpha + 2e_j.  The private ``_laplacian_chain`` (P, lap P, ..., one
``laplacian`` pass each) is the one chain builder: ``reduction``'s solvers
combine its entries, ``moments`` scales them into its levels, and
``iterated_laplacian`` is its last entry.  A third, with an exact vector x
over the lcm q of its denominators (x_i = d_i / q), moves a_i d_i v to
alpha - e_i: ``partial_derivative`` is one pass of it along e_i,
``directional_pairing`` one pass over den * q, and ``compose_shift`` is the
one Taylor loop on it (T_0 = P and T_k = (s . grad) T_(k-1) / k), summing
the terms.  No shifted moment goes through the loop: ``moments`` reads
those from P's Laplacian chain, and ``compose_shift`` is left to a
quadrature cross-check there.

The zero polynomial has no numerators (with an explicit dimension); its
degree is reported as ``None`` rather than an arbitrary sentinel number.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, inf, lcm
from numbers import Real
from types import MappingProxyType

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
]


# the signed ASCII digits of ``json_int``, and the numerator of a string
# rational
_DECIMAL = re.compile(r"[+-]?[0-9]+")
_RATIONAL = re.compile(rf"({_DECIMAL.pattern})(?:/([0-9]+))?")


def as_coefficient(value):
    """Coerce ints / string rationals / Fractions to Fraction.  A string is
    read only when it fully matches ``[+-]?[0-9]+(/[0-9]+)?`` (ASCII digits,
    no whitespace or underscore), its numerator and denominator as ints, and
    a zero denominator is a ValueError; any other string, a float and a
    boolean are refused with ExactnessError: they would silently break the
    exactness contract of this module (a decimal string would need
    ``Fraction``'s own grammar, whose exponents are unbounded work)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    match = _RATIONAL.fullmatch(value) if isinstance(value, str) else None
    if match is None:
        raise ExactnessError(f"not an exact rational coefficient: {value!r}")
    den = int(match[2] or 1)
    if den == 0:
        raise ValueError(f"zero denominator in {value!r}")
    return Fraction(int(match[1]), den)


def _int_arg(name, value, low, high=None):
    """The one int rule of the package's arguments: ``value`` when it is an
    int (not a bool, a float or a str) in low..high, or else
    ``ValueError("<name> must be an int >= <low>, got <value!r>")`` (``in
    <low>..<high>`` under an upper bound).  A ``low`` of None checks the int
    clause alone, for a site whose range is a domain rule with its own
    message."""
    if type(value) is int and (low is None or low <= value) and (
            high is None or value <= high):
        return value
    rule = "" if low is None else f" >= {low}" if high is None else f" in {low}..{high}"
    raise ValueError(f"{name} must be an int{rule}, got {value!r}")


def _scale_arg(name, value):
    """The one scale rule: ``value`` when it is a real number, not a bool,
    with 0 < value < inf (a huge exact int or Fraction passes), or else
    ``ValueError("<name> must be finite and positive, got <value!r>")``."""
    if isinstance(value, Real) and not isinstance(value, bool) and 0 < value < inf:
        return value
    raise ValueError(f"{name} must be finite and positive, got {value!r}")


def json_int(value):
    """An integer read from JSON: an int (not a bool) or a decimal string.
    Anything else, floats included, is refused rather than truncated."""
    # the JSON case first: ``type`` is cheaper than two ``isinstance`` calls
    if type(value) is int or isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and _DECIMAL.fullmatch(value):
        return int(value)
    raise ValueError(f"not an integer or decimal string: {value!r}")


def _json_list(value):
    """A list read from JSON, refusing a string or an object, whose
    characters or keys would otherwise be read as its entries."""
    if not isinstance(value, list):
        raise ValueError(f"not a JSON list: {value!r}")
    return value


def _list_of(read):
    """The one "JSON list of X" reader: a reader of a ``_json_list`` whose
    entries are each read by ``read``, into a tuple."""
    return lambda value: tuple(map(read, _json_list(value)))


def _read_fields(data, fields, what):
    """{name: read(data[name])} for the ``(name, read)`` pairs of ``fields``,
    read in that order, so the first malformed field in it is the one
    reported.  The one place where an input file's top level that is not a
    JSON object, a missing key or a refused value becomes
    ``ValueError("malformed <what>: ...")``; an ``ExactnessError`` passes
    through unchanged."""
    try:
        if not isinstance(data, dict):
            raise ValueError(f"not a JSON object: {data!r}")
        return {name: read(data[name]) for name, read in fields}
    except ExactnessError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed {what}: {exc}") from exc


def _json_ratio(data):
    """(num, den) from {"num": ..., "den": ...}, the den read first, both by
    ``json_int``; a zero denominator is refused."""
    den = json_int(data["den"])
    if den == 0:
        raise ValueError(f"zero denominator in {data!r}")
    return json_int(data["num"]), den


def rational_from_json(data):
    """Fraction from {"num": ..., "den": ...}, read by ``_json_ratio``."""
    return Fraction(*_json_ratio(data))


def rational_to_json(value):
    """{"num": str, "den": str} for an int or a Fraction, taken as is."""
    return {"num": str(value.numerator), "den": str(value.denominator)}


def _accumulate(terms, alpha, coeff):
    """Add ``coeff`` at ``alpha``; a zero sum stays until ``Polynomial._of``."""
    terms[alpha] = terms.get(alpha, 0) + coeff


def _over_lcm(*polys):
    """D, the lcm of the polynomials' denominators, and each one's numerators
    over D, as fresh dicts: the one step that puts a sum on one denominator."""
    den = lcm(*(p.den for p in polys))
    return den, [{a: v * (den // p.den) for a, v in p.nums.items()} for p in polys]


def _sum(n, polys):
    """The sum of polynomials in n variables, over the lcm of their
    denominators."""
    den, (nums, *more) = _over_lcm(*polys)
    for part in more:
        for alpha, v in part.items():
            _accumulate(nums, alpha, v)
    return Polynomial._of(n, nums, den)


class Polynomial:
    """Sparse polynomial in ``dimension`` variables with rational
    coefficients nums[alpha] / den, kept in lowest terms."""

    __slots__ = ("dimension", "den", "nums")

    def __init__(self, dimension, terms=None):
        """Outside input: each coefficient, read by ``as_coefficient``, goes
        to ``_validate`` as its numerator and denominator; operation results
        are built by ``_of``."""
        coeffs = ((alpha, as_coefficient(c)) for alpha, c in (terms or {}).items())
        self._validate(dimension, ((a, c.as_integer_ratio()) for a, c in coeffs))

    def _validate(self, dimension, terms):
        """The one check of outside input, shared by ``Polynomial(...)`` and
        ``from_json``: ``terms`` yields (alpha, (num, den)) with int num and
        nonzero int den.  The dimension and each exponent are checked once,
        and the numerators go to ``_store`` over the lcm of the
        denominators; returns the polynomial."""
        _int_arg("dimension", dimension, 1)
        checked = {}
        for alpha, ratio in terms:
            alpha = tuple(alpha)
            if len(alpha) != dimension:
                raise DimensionMismatchError(
                    f"multi-index {alpha} has length {len(alpha)}, expected {dimension}"
                )
            if any(type(a) is not int or a < 0 for a in alpha):
                raise ValueError(f"exponents must be non-negative ints: {alpha!r}")
            checked[alpha] = ratio
        common = lcm(*(den for _, den in checked.values()))
        nums = {a: num * (common // den) for a, (num, den) in checked.items()}
        return self._store(dimension, nums, common)

    def _store(self, dimension, nums, den):
        """The one normaliser: ``nums`` over ``den`` without the zero
        numerators, both divided by their gcd (so the zero polynomial has
        den 1); returns the polynomial."""
        g = gcd(den, *nums.values())
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "den", den // g)
        nums = MappingProxyType({a: v // g for a, v in nums.items() if v})
        object.__setattr__(self, "nums", nums)
        return self

    @classmethod
    def _of(cls, dimension, nums, den):
        """Operation results: int ``nums`` over a positive int ``den``, already
        valid, so nothing is checked."""
        return object.__new__(cls)._store(dimension, nums, den)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # ---------------------------------------------------------------- basics

    @classmethod
    def zero(cls, dimension):
        return cls(dimension, {})

    @classmethod
    def constant(cls, dimension, value):
        """``value`` (read by ``as_coefficient``) in ``dimension`` variables,
        built by ``_of`` once both are checked: the |y|^2 sums take their
        exact weights through it."""
        c = as_coefficient(value)
        zero = (0,) * _int_arg("dimension", dimension, 1)
        return cls._of(dimension, {zero: c.numerator}, c.denominator)

    @classmethod
    def variable(cls, dimension, index, power=1, coeff=1):
        """The monomial coeff * y_index**power (index is 0-based)."""
        alpha = [0] * _int_arg("dimension", dimension, 1)
        alpha[_int_arg("variable index", index, 0, dimension - 1)] = power
        return cls(dimension, {tuple(alpha): coeff})

    @classmethod
    def r_squared(cls, dimension):
        """|y|^2 = y_1^2 + ... + y_n^2: the |y|^2 stencil on the constant 1."""
        one = cls.constant(dimension, 1)
        return cls._of(dimension, _r2_stencil(dimension, one.nums), one.den)

    @property
    def terms(self):
        """A fresh {alpha: Fraction} dict; writing to it changes nothing."""
        return {alpha: Fraction(v, self.den) for alpha, v in self.nums.items()}

    @property
    def is_zero(self):
        return not self.nums

    def degree(self):
        """Total degree, or None for the zero polynomial."""
        if not self.nums:
            return None
        return max(sum(alpha) for alpha in self.nums)

    def is_homogeneous(self):
        degrees = {sum(alpha) for alpha in self.nums}
        return len(degrees) <= 1

    def coefficient(self, alpha):
        return Fraction(self.nums.get(tuple(alpha), 0), self.den)

    def constant_term(self):
        return self.coefficient((0,) * self.dimension)

    def homogeneous_parts(self):
        """Map degree -> homogeneous component (zero polynomial excluded)."""
        parts = {}
        for alpha, v in self.nums.items():
            parts.setdefault(sum(alpha), {})[alpha] = v
        return {
            d: Polynomial._of(self.dimension, t, self.den)
            for d, t in sorted(parts.items())
        }

    def monomials(self):
        """The multi-indices in graded-lexicographic order."""
        return sorted(self.nums, key=lambda alpha: (sum(alpha), alpha))

    def sorted_terms(self):
        """(alpha, Fraction) pairs in graded-lexicographic order."""
        return [(a, Fraction(self.nums[a], self.den)) for a in self.monomials()]

    # ------------------------------------------------------------ arithmetic

    def _check_dimension(self, other):
        if self.dimension != other.dimension:
            raise DimensionMismatchError(
                f"cannot combine dimensions {self.dimension} and {other.dimension}"
            )

    def __eq__(self, other):
        """Lowest terms make this the coefficient-by-coefficient equality."""
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.dimension, self.den, self.nums) == (
            other.dimension, other.den, other.nums
        )

    def __hash__(self):
        return hash((self.dimension, self.den, frozenset(self.nums.items())))

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_dimension(other)
        return _sum(self.dimension, [self, other])

    def __neg__(self):
        return Polynomial._of(
            self.dimension, {a: -v for a, v in self.nums.items()}, self.den
        )

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._check_dimension(other)
            nums = {}
            for a1, v1 in self.nums.items():
                for a2, v2 in other.nums.items():
                    _accumulate(nums, tuple(x + y for x, y in zip(a1, a2)), v1 * v2)
            return Polynomial._of(self.dimension, nums, self.den * other.den)
        coeff = as_coefficient(other)
        nums = {a: v * coeff.numerator for a, v in self.nums.items()}
        return Polynomial._of(self.dimension, nums, self.den * coeff.denominator)

    __rmul__ = __mul__

    def __pow__(self, exponent):
        _int_arg("exponent", exponent, 0)
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
        """Exact value at a point of exact coordinates: ``_integer_vector``
        reads the point as d / q over the lcm q of its denominators, and
        ``_evaluate`` sums the monomials (no Horner rewriting) on integers.
        Every coordinate is read by ``as_coefficient``, so float and boolean
        points are refused; float evaluation is ``kernels.eval_poly`` on the
        ``kernels.poly_arrays`` of the polynomial."""
        return _evaluate(self, *_integer_vector(point, self.dimension))

    # ------------------------------------------------------------- serialize

    def to_json(self):
        """Schema: {"dimension": n, "terms": [{"alpha": [...], "num": str,
        "den": str}, ...]} with integers as decimal strings: each term's
        coefficient in lowest terms, reduced by one integer gcd."""
        terms = []
        for alpha in self.monomials():
            v = self.nums[alpha]
            g = gcd(v, self.den)
            terms.append(
                {"alpha": list(alpha), "num": str(v // g), "den": str(self.den // g)}
            )
        return {"dimension": self.dimension, "terms": terms}

    def json_chunks(self):
        """The text of ``json.dumps(self.to_json(), sort_keys=True,
        separators=(",", ":"))`` as chunks of one term each: written from
        ``monomials()``, ``nums`` and ``den``, each term reduced by one gcd as
        in ``to_json``, with no per-term dict built."""
        yield f'{{"dimension":{self.dimension},"terms":['
        # one term: its n exponents, then its den and num ("%d" is str(int))
        term = '{"alpha":[%s],"den":"%%d","num":"%%d"}' % ",".join(
            ["%d"] * self.dimension)
        den, nums = self.den, self.nums
        sep = ""
        for alpha in self.monomials():
            v = nums[alpha]
            g = gcd(v, den)
            yield sep + term % (*alpha, den // g, v // g)
            sep = ","
        yield "]}"

    @classmethod
    def from_json(cls, data):
        """The ``to_json`` schema, read by ``_read_fields``: the dimension by
        ``json_int`` and the terms by ``_json_terms``, into the integer
        (num, den) pairs that ``_validate`` checks.  No ``Fraction`` is
        built."""
        fields = _read_fields(data, _POLYNOMIAL_FIELDS, "polynomial JSON")
        return object.__new__(cls)._validate(fields["dimension"], fields["terms"])


def _json_terms(value):
    """A polynomial's JSON ``terms`` as (alpha, (num, den)) pairs: each list
    read by ``_json_list``, each exponent by ``json_int`` and each
    coefficient by ``_json_ratio``; a repeated multi-index is refused."""
    terms = {}
    for entry in _json_list(value):
        alpha = tuple(map(json_int, _json_list(entry["alpha"])))
        if alpha in terms:
            raise ValueError(f"repeated multi-index {list(alpha)}")
        terms[alpha] = _json_ratio(entry)
    return terms.items()


_POLYNOMIAL_FIELDS = (("dimension", json_int), ("terms", _json_terms))


# ------------------------------------------------------------- differential


def partial_derivative(poly, index):
    """d(poly)/d(y_index), index 0-based: the directional stencil along
    e_index."""
    _int_arg("variable index", index, 0, poly.dimension - 1)
    d = [int(i == index) for i in range(poly.dimension)]
    return Polynomial._of(poly.dimension, _pairing_stencil(poly.nums, d), poly.den)


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
            a = beta[j]
            beta[j] = a + 2
            up = tuple(beta)
            out[up] = get(up, 0) + v
            beta[j] = a
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
    blocks are put over one denominator first."""
    blocks = [
        q if isinstance(q, Polynomial) else Polynomial.constant(n, q) for q in blocks
    ]
    den, sums = _over_lcm(*blocks)
    return Polynomial._of(n, _horner(n, sums), den)


def laplacian(poly):
    """Sum of second partials over all variables: one stencil pass on the
    numerators."""
    return Polynomial._of(poly.dimension, _laplacian_stencil(poly.nums), poly.den)


def iterated_laplacian(poly, count):
    """count-fold composition of the Laplacian (count = 0 is the identity):
    the last entry of ``_laplacian_chain``, run for at most deg // 2 + 1
    passes, the first that reaches zero, so a huge count costs nothing."""
    _int_arg("iteration count", count, 0)
    return _laplacian_chain(poly, min(count, (poly.degree() or 0) // 2 + 1))[-1]


def _laplacian_chain(poly, count):
    """[P, lap P, ..., lap^count P], one ``laplacian`` pass on the last
    entry each: the chain that ``reduction``'s solvers and ``moments``'
    shifted moments read."""
    chain = [poly]
    for _ in range(count):
        chain.append(laplacian(chain[-1]))
    return chain


def gradient(poly):
    """All first partials, as a list of polynomials."""
    return [partial_derivative(poly, i) for i in range(poly.dimension)]


def euler_operator(poly):
    """y . grad(poly); equals (degree * poly) on homogeneous input.

    Each monomial is an eigenvector: y . grad(y^alpha) = |alpha| y^alpha."""
    nums = {alpha: sum(alpha) * v for alpha, v in poly.nums.items()}
    return Polynomial._of(poly.dimension, nums, poly.den)


def _integer_vector(vector, n):
    """An exact vector of length n as integers over the lcm q of its
    denominators: (d, q) with vector[i] == d[i] / q.  Every entry is read by
    ``as_coefficient``, so floats and booleans are refused."""
    if len(vector) != n:
        raise DimensionMismatchError(f"vector length {len(vector)} != dimension {n}")
    xs = [as_coefficient(x) for x in vector]
    q = lcm(*(x.denominator for x in xs))
    return [x.numerator * (q // x.denominator) for x in xs], q


def _evaluate(poly, d, q):
    """poly's exact value at the point d / q of ``_integer_vector``: the sum
    of v * d^alpha * q^(deg - |alpha|) over den * q^deg.  A caller that
    evaluates several polynomials at one point reads the point once."""
    deg = poly.degree() or 0
    total = 0
    for alpha, v in poly.nums.items():
        term = v * q ** (deg - sum(alpha))
        for x, a in zip(d, alpha):
            if a:
                term *= x**a
        total += term
    return Fraction(total, poly.den * q**deg)


def _pairing_stencil(sums, d):
    """The directional stencil: v at alpha adds a_i d_i v at alpha - e_i,
    for the axes i with d_i != 0 alone (one axis for a partial
    derivative)."""
    out = {}
    get = out.get
    axes = [(i, x) for i, x in enumerate(d) if x]
    for alpha, v in sums.items():
        for i, x in axes:
            a = alpha[i]
            if a:
                key = alpha[:i] + (a - 1,) + alpha[i + 1 :]
                out[key] = get(key, 0) + a * x * v
    return out


def directional_pairing(direction, poly):
    """<X, grad(poly)> for an exact rational vector X: one stencil pass with
    X over the lcm q of its denominators, the result over den * q."""
    d, q = _integer_vector(direction, poly.dimension)
    return Polynomial._of(poly.dimension, _pairing_stencil(poly.nums, d), poly.den * q)


def r2_multiply(poly, power):
    """(y_1^2 + ... + y_n^2)^power * poly: the radial sum with ``power`` zero
    blocks in front of poly."""
    _int_arg("power", power, 0)
    return _radial_sum(poly.dimension, [0] * power + [poly])


def compose_shift(poly, shift):
    """poly(y + shift) expanded exactly, for an exact rational shift vector s,
    by the one Taylor loop of the package: T_0 = poly and
    T_k = (s . grad) T_(k-1) / k for k = 1 .. deg(poly), each one pass of
    the directional stencil, summed over one denominator."""
    n = poly.dimension
    d, q = _integer_vector(shift, n)
    terms = [poly]
    for k in range(1, (poly.degree() or 0) + 1):
        last = terms[-1]
        nums = _pairing_stencil(last.nums, d)
        terms.append(Polynomial._of(n, nums, last.den * q * k))
    return _sum(n, terms)
