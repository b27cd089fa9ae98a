"""Constructive polynomial solver for the linearized bubble equation.

The operator under study is

    L(G) = (1 + |y|^2) * lap(G) - 2n * (y . grad G) + 2n * G,

acting on polynomials in n variables.  Given a homogeneous source P of degree
ell, one construction (``_solve``, behind ``solve_gamma`` and
``solve_general``) builds the Laplacian chain lap^k(P) once and combines the
building blocks (|y|^2)^j * lap^(k)(P).  The combination's coefficients C^j_k
satisfy a three-term recurrence whose cells are filled in an explicit
dependency order (same-degree diagonal first, then column by column in the
offset k - j, ascending j inside each column); each cell divides by a
characteristic denominator.  The table keeps only the C^j_k, in that order,
and, when it holds all h = ell // 2 columns, however it was asked for, the
residue weights: a cell's neighbours (``_neighbours``) and its multiplier
follow from (n, ell, j, k).  By its factorisation
-(2j - n)(2j - 2(ell - 1 - 2(k - j))) the denominator of a cell inside a
table vanishes only at the half-dimension root 2j = n: the second factor
needs 2k - j = ell - 1, while every cell has 2k - j <= 2k <= ell - 2.  So
one rule, checked before any cell is built, decides every table: a table
of ``columns`` columns is blocked exactly when n is even and n/2 < columns.

When the top iterated Laplacian lap^h P does not vanish, the combination
over P's full table leaves a purely radial residue R = top * sum_k a_k
(|y|^2)^k (``residue_terms``), which an obstruction report carries.  For
even ell the top is the constant c K_h, K_h = prod_{i=1..h}
a_multiplier(n, 0, i, 0), of P's radial component c (|y|^2)^h, and
P0 = P - c (|y|^2)^h has a vanishing top Laplacian.  For even n and even
ell <= n - 2 the solver splits P there: gamma is P0's combination, and an
even radial polynomial F of the powers (|y|^2)^(h+1) .. (|y|^2)^(n/2)
solves L(F) = c (|y|^2)^h (``radial_completion``), at the price of losing
uniqueness modulo the kernel of L.  The completion is the degree-0 column
of the same recurrence: L acts on (|y|^2)^k through
``a_multiplier(n, 0, k, 0)`` and ``characteristic_denominator(n, 0, k, 0)``.

Every |y|^2-graded sum here (the combination, grouped by row j; each level
of P0's chain; the residue; the completion) is expanded by one Horner loop
in |y|^2, ``_radial_sum``; each row of the combination is summed over one
lcm of its terms' denominators by ``polynomials._sum``; and every radial
constant of the construction is an ``a_multiplier``.
``apply_L`` and ``_radial_sum`` are built from the integer stencils of
``polynomials`` (the Laplacian and the |y|^2 product), which run on a
polynomial's numerators and keep its one denominator.  L's split into its
Laplacian part, which L multiplies by (1 + |y|^2), and its diagonal part is
written once, in ``_L_parts``, and their sum once, in ``_L_sum``:
``apply_L`` is the two composed.  ``profiles.linearized_residual`` builds
the parts of a loaded solution once and shares them: their term counts bound
its work, ``_L_sum`` of them is its exact gate, and it samples them apart.

Everything here is exact: every solution passes one gate before it is
returned, split by linearity.  L(gamma + F) == P holds when L(gamma) == P0
and L(F) == c (|y|^2)^h.  The first is checked by ``apply_L`` on the
expanded gamma, the second in the one variable s = |y|^2 on F's weights, by
a formula taken from L's definition, inside ``radial_completion`` itself,
so no caller receives an unchecked completion; without a completion
P0 = P.
Table dimensions are capped at ``_MAX_TABLE_N``, source degrees at
``MAX_ELL``, and the monomials a solution can reach at
``MAX_SOLUTION_TERMS``, so that no input asks for unbounded work.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import comb
from typing import NamedTuple

from .errors import (
    CharacteristicGuardError,
    ResidueObstructionError,
    UnsupportedCaseError,
)
from .polynomials import (
    Polynomial,
    _accumulate,
    _horner,
    _int_arg,
    _laplacian_chain,
    _laplacian_stencil,
    _radial_sum,
    _read_fields,
    _sum,
    as_coefficient,
    iterated_laplacian,
    json_int,
    rational_to_json,
)

__all__ = [
    "MAX_ELL",
    "MAX_SOLUTION_TERMS",
    "h_of",
    "a_multiplier",
    "characteristic_denominator",
    "CoefficientTable",
    "coefficient_table",
    "apply_L",
    "CorrectionSolution",
    "solve_gamma",
    "residue_terms",
    "radial_completion",
    "solve_general",
    "kernel_basis",
]


# Largest source degree that ``coefficient_table`` and the solvers accept.  The
# table has h(h + 1)/2 cells for h = ell // 2 and its denominators grow with
# ell, so 100 bounds it at 1,275 cells (ell = 401 at n = 9 takes 1.2 s).
MAX_ELL = 100

# Largest dimension that ``coefficient_table`` accepts.  The cells' numerators
# grow with the digits of n: the full table at MAX_ELL writes 0.7 MB of JSON
# in about 0.1 s at the cap, and 2.8 MB at n = 10^50 + 1.  A solve never
# comes near it, since MAX_SOLUTION_TERMS already keeps n <= 315.
_MAX_TABLE_N = 10_000

# Largest number of monomials a solve may produce, counted from n and ell
# before any work (``_solution_size``).  A dense source at n = 10, ell = 8
# with a completion reaches 33,088 (its solve takes about 2 s); a source y_1^ell
# at n = ell = 12 reaches 1.8 million (its obstruction report alone was 4.5 MB).
MAX_SOLUTION_TERMS = 50_000


def _check_degree(ell):
    """Refuse a degree that is not an int, a negative one (malformed, unlike
    the degree-below-2 obstruction) or one above ``MAX_ELL``."""
    if _int_arg("ell", ell, None) < 0:
        raise ValueError(f"source degree must be >= 0 (got ell={ell})")
    if ell > MAX_ELL:
        raise ValueError(f"source degree must be <= {MAX_ELL} (got ell={ell})")


def _solution_size(n, ell, allow_radial):
    """The most monomials a solve of a degree-ell source in n variables can
    produce: gamma and the residue have degree <= ell and ell's parity, and a
    completion (even n) is a polynomial of degree <= n/2 in |y|^2.

    The counts are added in increasing degree, and the sum stops at the
    first partial sum above ``MAX_SOLUTION_TERMS``, which it returns: a
    refused size costs a few binomials, not n/2 of them."""
    degrees = list(range(ell % 2, ell + 1, 2))
    if allow_radial and n % 2 == 0:
        degrees += range(1, n // 2 + 1)
    for size in accumulate(comb(n - 1 + d, d) for d in degrees):
        if size > MAX_SOLUTION_TERMS:
            break
    return size


def h_of(ell):
    """Largest integer <= ell / 2, for an int ell >= 1."""
    return _int_arg("degree", ell, 1) // 2


def a_multiplier(n, ell, j, k):
    """The multiplier (2j)(2j + n - 2 + 2*ell - 4k) produced when the
    weighted Laplacian acts on (|y|^2)^j * lap^(k)(P).  Every argument is an
    int (not a bool, and a float cell would be binary-rounded, not exact),
    and the indices are >= 0."""
    _int_arg("n", n, None)
    _int_arg("ell", ell, None)
    _int_arg("j", j, 0)
    _int_arg("k", k, 0)
    return Fraction(2 * j * (2 * j + n - 2 + 2 * ell - 4 * k))


def characteristic_denominator(n, ell, j, k):
    """A_{ell,j,k} - 2n * (ell + 2(j - k) - 1), the cell's own multiplier
    under L.  Factors as -(2j - n)(2j - 2(ell - 1 - 2(k - j))).  Its
    arguments are checked by ``a_multiplier``."""
    return a_multiplier(n, ell, j, k) - 2 * n * (ell + 2 * (j - k) - 1)


def _neighbours(j, k):
    """The cells that feed cell (j, k) in the three-term recurrence; the
    last, (j + 1, k), enters times a_multiplier(n, ell, j + 1, k)."""
    return (j - 1, k - 1), (j, k - 1), (j + 1, k)


class CoefficientTable(NamedTuple):
    """Recurrence coefficients C^j_k for 0 <= j <= k <= columns - 1, in build
    order, and the residue weights a_0..a_h assembled from the last column
    (present exactly when columns == h, whichever way the table was asked
    for; None otherwise).  Each cell's multiplier follows from (n, ell, j, k)
    and is written by ``to_json``; its dependencies, the ``_neighbours``
    (j - 1, k - 1), (j, k - 1) and (j + 1, k) that lie inside the table, are
    not written.
    A NamedTuple, like ``CorrectionSolution``: a ``solve`` or ``table`` run
    then never imports ``dataclasses``."""

    n: int
    ell: int
    h: int
    columns: int
    C: dict
    residues: tuple

    def cell(self, j, k):
        return self.C[(j, k)]

    def to_json(self):
        # a cell's dependencies are not written: they are its ``_neighbours``
        # inside the table, each written before it
        cells = [
            {
                "j": j,
                "k": k,
                "C": rational_to_json(c),
                "A": rational_to_json(a_multiplier(self.n, self.ell, j, k)),
            }
            for (j, k), c in self.C.items()
        ]
        data = {
            "n": self.n,
            "ell": self.ell,
            "h": self.h,
            "columns": self.columns,
            "cells": cells,
        }
        if self.residues is not None:
            data["residues"] = [rational_to_json(a) for a in self.residues]
        return data


def coefficient_table(n, ell, columns=None):
    """Build the coefficient table for dimension n and source degree ell.

    ``columns`` limits how many columns k = 0..columns-1 are materialized
    (used when an early iterated Laplacian vanishes): an int >= 1 (not a
    bool), clamped to h, or ValueError.  The default is all h columns.  A
    table of all h columns, by default or by ``columns >= h``, carries the
    residue weights; a narrower one carries None.

    Raises CharacteristicGuardError, before any cell is built, when n is
    even and n/2 < columns: only the cells of row j = n/2 have a vanishing
    denominator (see the module docstring), and (n/2, n/2) is the first of
    them in build order.  A full table, of h columns, is blocked exactly when
    h > n/2.
    """
    if not 1 <= _int_arg("n", n, None) <= _MAX_TABLE_N:
        raise ValueError(f"dimension must be >= 1 and <= {_MAX_TABLE_N} (got n={n})")
    _check_degree(ell)
    if ell < 2:
        raise UnsupportedCaseError("source degree must be >= 2")
    h = h_of(ell)
    columns = h if columns is None else min(_int_arg("columns", columns, 1), h)
    if n % 2 == 0 and n // 2 < columns:
        raise CharacteristicGuardError(n, ell)

    C = {}
    # Column-by-column in the offset u = k - j (the diagonal first), ascending
    # j inside each column: every neighbour of a cell inside the table then
    # precedes it, and one outside it counts 0.
    for u in range(columns):
        for j in range(columns - u):
            k = j + u
            below, left, right = _neighbours(j, k)
            feed = C.get(below, 0) + C.get(left, 0)
            feed += a_multiplier(n, ell, j + 1, k) * C.get(right, 0)
            source = 1 if (j, k) == (0, 0) else 0
            C[(j, k)] = (source - feed) / characteristic_denominator(n, ell, j, k)

    residues = None
    if columns == h:
        # a_m = C^m_{h-1} + C^{m-1}_{h-1}, a cell outside the table counting 0
        last = h - 1
        residues = tuple(
            C.get((m, last), 0) + C.get((m - 1, last), 0) for m in range(h + 1)
        )

    return CoefficientTable(
        n=n,
        ell=ell,
        h=h,
        columns=columns,
        C=C,
        residues=residues,
    )


def _L_parts(poly):
    """L's two parts on the numerators of G, each over G's one denominator:
    the Laplacian stencil's sums, which L multiplies by (1 + |y|^2), and the
    diagonal part 2n(1 - |alpha|)v at each alpha (the Euler and identity
    parts, y . grad y^alpha = |alpha| y^alpha)."""
    n = poly.dimension
    diagonal = {a: 2 * n * (1 - sum(a)) * v for a, v in poly.nums.items()}
    return _laplacian_stencil(poly.nums), diagonal


def _L_sum(n, lap, diagonal, den):
    """L(G) from its two parts of ``_L_parts``, over G's denominator ``den``:
    (1 + |y|^2) times the Laplacian part, a Horner sum in |y|^2, plus the
    diagonal part."""
    sums = _horner(n, [lap, lap])
    for alpha, v in diagonal.items():
        _accumulate(sums, alpha, v)
    return Polynomial._of(n, sums, den)


def apply_L(poly):
    """(1 + |y|^2) * lap(G) - 2n * (y . grad G) + 2n * G, exactly, on the
    numerators of G over its one denominator, which L keeps.

    L is split once, by ``_L_parts``, and summed once, by ``_L_sum``; this is
    their composition and nothing more.  The solver's gate applies it to
    gamma alone (the completion is checked in |y|^2, see ``_solve``).
    ``profiles.linearized_residual`` does not call it: it builds the two
    parts of a loaded solution once, bounds its work by their term counts,
    gates the solution with ``_L_sum`` of those parts and samples the same
    parts.
    """
    return _L_sum(poly.dimension, *_L_parts(poly), poly.den)


class CorrectionSolution(NamedTuple):
    """A verified polynomial solution of L(G) = P.

    ``gamma`` alone solves when ``radial_completion`` is None; otherwise
    gamma + radial_completion solves, split at P's radial component
    c (|y|^2)^h: gamma solves P - c (|y|^2)^h, and the completion, of the
    powers of |y|^2 above h only, solves c (|y|^2)^h.  ``vanishing_order``
    is the smallest k with lap^(k)(P) identically zero (h + 1 when none at
    or below h).  ``to_json`` keys each field by its name, so ``_asdict()``
    is the same object with its polynomials unencoded.
    """

    gamma: Polynomial
    radial_completion: Polynomial | None
    vanishing_order: int
    verified: bool
    n: int
    ell: int

    def total(self):
        if self.radial_completion is None:
            return self.gamma
        return self.gamma + self.radial_completion

    def to_json(self):
        return {
            key: value.to_json() if isinstance(value, Polynomial) else value
            for key, value in self._asdict().items()
        }

    @classmethod
    def from_json(cls, data):
        """The fields of ``_SOLUTION_FIELDS``, read in order by
        ``_read_fields`` (a missing ``radial_completion`` reads as null).  The
        record must agree with itself: gamma and the completion of dimension
        n, ell >= 2, and the vanishing order in 1..ell // 2 + 1 (h + 1 when
        no lap^k P vanishes at or below h)."""
        if isinstance(data, dict):
            data = {"radial_completion": None, **data}
        solution = cls(**_read_fields(data, _SOLUTION_FIELDS, "solution JSON"))
        n, ell, order = solution.n, solution.ell, solution.vanishing_order
        for name, poly in zip(("gamma", "radial_completion"), solution):
            if poly is not None and poly.dimension != n:
                raise ValueError(f"malformed solution JSON: {name} has dimension "
                                 f"{poly.dimension}, not n = {n}")
        if ell < 2:
            raise ValueError(f"malformed solution JSON: ell must be >= 2, got {ell}")
        if not 1 <= order <= ell // 2 + 1:
            raise ValueError(f"malformed solution JSON: vanishing_order must lie in "
                             f"1..{ell // 2 + 1} for ell = {ell}, got {order}")
        return solution


def _json_bool(value):
    """A boolean read from JSON, where an int would otherwise pass as one."""
    if not isinstance(value, bool):
        raise ValueError(f"verified is not a boolean: {value!r}")
    return value


# the fields of a solution file and their readers, in the order they are read
# (``Polynomial.from_json`` is looked up at each read, so a rebinding of it is
# seen); a null ``radial_completion`` is None
_SOLUTION_FIELDS = (
    ("gamma", lambda value: Polynomial.from_json(value)),
    ("radial_completion",
     lambda value: None if value is None else Polynomial.from_json(value)),
    ("vanishing_order", json_int), ("verified", _json_bool), ("n", json_int),
    ("ell", json_int),
)


def _validated_source(poly, allow_radial=False):
    if poly.is_zero or not poly.is_homogeneous():
        raise UnsupportedCaseError("source must be a nonzero homogeneous polynomial")
    ell = poly.degree()
    _check_degree(ell)
    size = _solution_size(poly.dimension, ell, allow_radial)
    if size > MAX_SOLUTION_TERMS:
        raise ValueError(
            f"a solution in dimension {poly.dimension} of degree {ell} can reach "
            f"{size} monomials (at most {MAX_SOLUTION_TERMS})"
        )
    if ell < 2:
        raise UnsupportedCaseError(
            "degree-1 sources are outside the construction; see the kernel "
            "basis for degree <= 1 behaviour"
        )
    return ell


def _radial_residue(top, table):
    """top * sum_k a_k (|y|^2)^k over the full table's residue weights."""
    return _radial_sum(top.dimension, [top * a for a in table.residues])


def residue_terms(poly):
    """The radial leftover [lap^h P] * sum_k a_k (|y|^2)^k that L produces on
    the full combination; identically zero exactly when lap^h P vanishes."""
    ell = _validated_source(poly)
    n = poly.dimension
    top = iterated_laplacian(poly, h_of(ell))
    if top.is_zero:
        return Polynomial.zero(n)
    return _radial_residue(top, coefficient_table(n, ell))


def _combination(poly, chain, table):
    """sum over the table's cells of C^j_k (|y|^2)^j lap^k(P), grouped by row:
    sum_j (|y|^2)^j Q_j with Q_j = sum_k C^j_k lap^k(P), each row summed over
    one lcm of its terms' denominators (every row holds its diagonal cell)."""
    n = poly.dimension
    rows = [[] for _ in range(table.columns)]
    for (j, k), c in table.C.items():
        rows[j].append(c * chain[k])
    return _radial_sum(n, [_sum(n, row) for row in rows])


def _completion_weights(n, ell, residues):
    """[B_0, B_1, ..., B_{n/2}] with B_0 = 0: the weights of the radial
    completion F = sum_k B_k (|y|^2)^k for the residue weights a_0..a_h (see
    ``radial_completion``)."""
    _int_arg("n", n, None)
    _int_arg("ell", ell, None)
    if n < 4 or n % 2 or ell % 2 or ell > n - 2:
        raise UnsupportedCaseError(
            "outside the radial-completion hypotheses (need n >= 4 even and "
            f"ell <= n - 2 even; got n={n}, ell={ell})"
        )
    residues = [as_coefficient(a) for a in residues]
    h = h_of(ell)
    if len(residues) != h + 1:
        raise ValueError(f"expected {h + 1} residue weights, got {len(residues)}")
    residues += [Fraction(0)] * (n // 2 - 1 - h)

    B = [Fraction(0)]
    for k in range(1, n // 2 + 1):
        climb = characteristic_denominator(n, 0, k - 1, 0) * B[k - 1]
        B.append(-(residues[k - 1] + climb) / a_multiplier(n, 0, k, 0))
    return B


def radial_completion(n, ell, residues):
    """Even radial polynomial F = sum_{k=1}^{n/2} B_k (|y|^2)^k with
    L(F) = -(a_0 + a_1 |y|^2 + ... + a_h (|y|^2)^h), built bottom-up.

    L maps (|y|^2)^k to a_multiplier(n, 0, k, 0) (|y|^2)^(k-1) plus
    characteristic_denominator(n, 0, k, 0) (|y|^2)^k, the degree-0 column of
    the block recurrence, so B_0 = 0 and B_k = -(a_{k-1} +
    characteristic_denominator(n, 0, k-1, 0) B_{k-1}) / a_multiplier(n, 0, k, 0).
    The top power (|y|^2)^(n/2) does not regenerate itself, which is what
    closes the construction.  Requires n >= 4 even and ell <= n - 2 even.

    Every completion passes its gate before it is expanded: L(F) == -(a_0 +
    ... + a_h s^h) in the one variable s = |y|^2 on F's weights
    (``_radial_L``), or an AssertionError is raised.
    """
    B = _completion_weights(n, ell, residues)
    negated = [-as_coefficient(a) for a in residues]
    if _radial_L(n, B) != negated + [0] * (len(B) - len(negated)):
        raise AssertionError("radial completion failed exact verification")
    return _radial_sum(n, B)


def _radial_L(n, f):
    """L(F) for the radial F = sum_k f[k] s^k, s = |y|^2, as the coefficient
    list of a polynomial in s (as long as f).

    Straight from L's definition, not from ``a_multiplier``: with
    lap F = 4s f'' + 2n f' and y . grad F = 2s f',
    L(F) = (1 + s)(4s f'' + 2n f') - 4n s f' + 2n f.
    """
    m = len(f)
    # 4s f'' + 2n f' at s^k, k = 0..m-2, and 0 at s^(m-1)
    lap = [
        4 * (k + 1) * k * f[k + 1] + 2 * n * (k + 1) * f[k + 1] for k in range(m - 1)
    ] + [0]
    return [
        lap[k] + (lap[k - 1] if k else 0) - 4 * n * k * f[k] + 2 * n * f[k]
        for k in range(m)
    ]


def _radial_weights(n, top, h):
    """[w_0, ..., w_h], w_k = c K_{h,k} the coefficient of (|y|^2)^(h-k) in
    lap^k of P's radial component c (|y|^2)^h, with K_{h,k} =
    prod_{i=h-k+1..h} a_multiplier(n, 0, i, 0).  Taken from the top down:
    w_h is the constant ``top`` = lap^h P, and w_(k-1) = w_k /
    a_multiplier(n, 0, h - k + 1, 0), so that w_0 = c."""
    weights = [top.constant_term()]
    for i in range(1, h + 1):
        weights.append(weights[-1] / a_multiplier(n, 0, i, 0))
    return weights[::-1]


def _split_levels(chain, weights):
    """The Laplacian chain of P0 = P - c (|y|^2)^h, read off P's chain
    [P, ..., lap^h P] with no Laplacian pass: level k is lap^k P -
    w_k (|y|^2)^(h-k) for the ``_radial_weights`` w_k, one ``_radial_sum``.
    Level h is zero by the choice of c; the levels returned stop before the
    first zero one, so there are as many as P0's vanishing order."""
    n, h = chain[0].dimension, len(chain) - 1
    zero = Polynomial.zero(n)
    levels = []
    for k in range(h):
        level = _radial_sum(n, [chain[k]] + [zero] * (h - k - 1) + [-weights[k]])
        if k and level.is_zero:
            break
        levels.append(level)
    return levels


def _solve(poly, allow_radial):
    """The one construction behind ``solve_gamma`` and ``solve_general``.

    Builds P's chain once.  When some lap^k P vanishes, k <= h, gamma is the
    combination over the partial table of that many columns.  A nonvanishing
    top Laplacian is a constant c * K_{h,h} (even ell) times its radial
    component c (|y|^2)^h, so when ``allow_radial`` is set and the
    completion's hypotheses hold, the split P = P0 + c (|y|^2)^h solves
    each part on its own: gamma is the combination for P0, whose chain is
    read off P's (``_split_levels``) and whose vanishing order picks its
    partial table, and the completion F solves L(F) = c (|y|^2)^h alone.
    Otherwise it is raised as a ResidueObstructionError carrying the residue
    of P's full table.

    Every result passes the exact gate L(gamma + F) == P before it is
    returned, split by linearity so that the completion F is never expanded
    to be checked: L(gamma) == P0 on the expanded gamma (P0 = P without a
    completion), and L(F) == c (|y|^2)^h, which ``radial_completion`` checks
    in the one variable s = |y|^2 on F's weights.  One postcondition
    follows: every term of gamma has degree 2..ell, since each block
    (|y|^2)^j lap^k P0, j <= k <= h - 1, has degree ell - 2(k - j); F holds
    only the powers (|y|^2)^(h+1) .. (|y|^2)^(n/2), so the two supports are
    disjoint.  A purely radial P gives gamma = 0.
    """
    ell = _validated_source(poly, allow_radial)
    n = poly.dimension
    chain = _laplacian_chain(poly, h_of(ell))
    h = len(chain) - 1
    vanishing = next((k for k in range(1, h + 1) if chain[k].is_zero), h + 1)

    completion = None
    levels = chain[:vanishing]
    if vanishing > h:
        top = chain[h]
        message = (
            f"top iterated Laplacian (order {h}) does not vanish; "
            "no pure polynomial solution of this form exists"
        )
        if allow_radial:
            weights = _radial_weights(n, top, h)
            try:
                completion = radial_completion(n, ell, [0] * h + [-weights[0]])
            except UnsupportedCaseError as exc:
                message = f"{message}; residue {exc}"
            else:
                levels = _split_levels(chain, weights)
        if completion is None:
            residue = _radial_residue(top, coefficient_table(n, ell))
            raise ResidueObstructionError(message, residue=residue, top_laplacian=top)

    table = coefficient_table(n, ell, columns=len(levels))
    gamma = _combination(poly, levels, table)
    if apply_L(gamma) != levels[0]:
        raise AssertionError("construction failed exact verification")
    if any(not 2 <= sum(alpha) <= ell for alpha in gamma.nums):
        raise AssertionError("solution has a term of degree outside 2..ell")
    return CorrectionSolution(gamma, completion, vanishing, verified=True, n=n, ell=ell)


def solve_gamma(poly):
    """Exact polynomial solution of L(G) = P for homogeneous P of degree >= 2
    with vanishing top iterated Laplacian.

    Raises ResidueObstructionError (carrying the residue polynomial) when the
    top iterated Laplacian does not vanish; the caller may route such inputs
    to ``solve_general``.
    """
    return _solve(poly, allow_radial=False)


def solve_general(poly):
    """Solve L(G) = P, absorbing a nonvanishing top Laplacian into an even
    radial completion when n >= 4 and ell <= n - 2 are both even.

    Returns the same result as ``solve_gamma`` when no completion is needed,
    and raises the same ResidueObstructionError, its message naming the
    failed hypotheses, when a residue is present outside them.
    """
    return _solve(poly, allow_radial=True)


def kernel_basis(n):
    """Polynomials annihilated by L: y_1, ..., y_n and |y|^2 - 1, for an
    int n >= 1."""
    _int_arg("n", n, 1)
    basis = [Polynomial.variable(n, i) for i in range(n)]
    basis.append(Polynomial.r_squared(n) - Polynomial.constant(n, 1))
    return basis
