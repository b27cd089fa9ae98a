"""Hot float kernels: batch evaluation of polynomials, bubbles and tails.

Every float evaluation of a Polynomial on a batch of points (sphere scans,
residual scans, quadrature grids) runs ``eval_poly``, and ``BubbleProfile``
and ``HarmonicTail`` evaluate through ``bubble_values`` and ``tail_values``;
there is one implementation of each of the three and nothing to configure.
The closed forms around them are plain numpy where they are used:
``GreensBall``'s per-point ``green`` and ``poisson``, the Pohozaev flux
field of the balance law, the damping powers in ``profiles._damped`` and
``pi_eval``, and the refined profile's own bubble and damping factors.  A
Polynomial is evaluated through ``eval_polynomial``, the entry point the
package's callers use: it builds the arrays with ``poly_arrays`` and runs
``eval_poly`` on them (``pi_eval`` builds them once and calls ``eval_poly``).

The exact-rational tier of the package never comes through here: the
correctness-critical identities stay in exact rational arithmetic, and only
float sampling is vectorized.

``eval_poly`` on m points, t terms and n variables works from per-variable
power tables: for each variable i it raises column i to the distinct
exponents that occur in it (always including 0) and gathers the factors of
every term from that table.  The factors are multiplied into one
C-contiguous (m, t) monomial matrix in variable order 0..n-1, variables whose
exponents are all 0 are skipped, and a single matvec over all m rows
finishes.  The matrix is filled in blocks of rows, so the factor scratch is
(rows, t) with rows = max(1, 2**20 // (8 * t)), about 1 MiB, and stays in
cache; each variable's exponent table and gather index are built once, for
all blocks.  Memory is about m * t * 8 bytes plus that 1 MiB scratch, never
an (m, t, n) cube.  The result is bit-identical to the cube formula
``(points[:, None, :] ** exps[None]).prod(axis=2) @ coeffs`` on C-contiguous
points: every power is the same ``pow``, the product runs in the same order,
and multiplying by 1.0 (the start value, and x**0) is exact.  Keep it so:
numpy's one-entry ``x ** [2]`` fast path rounds differently from ``pow``,
and a matvec split over row blocks changes the last bits, which is why the
monomial matrix is whole when the matvec runs.
"""

from __future__ import annotations

from ._numpy import np

__all__ = [
    "eval_poly",
    "bubble_values",
    "tail_values",
    "poly_arrays",
]

# size of ``eval_poly``'s factor scratch: one block of rows of the monomial
# matrix
_SCRATCH_BYTES = 2**20


def poly_arrays(poly):
    """Exponent matrix (t, n) int64 and coefficient vector (t,) float64 for a
    Polynomial, in its deterministic term order."""
    alphas = poly.monomials()
    if not alphas:
        return (
            np.zeros((0, poly.dimension), dtype=np.int64),
            np.zeros(0, dtype=np.float64),
        )
    exps = np.array(alphas, dtype=np.int64)
    # int / int is correctly rounded, so v / den is float(Fraction(v, den))
    coeffs = np.array([poly.nums[a] / poly.den for a in alphas], dtype=np.float64)
    return exps, coeffs


def eval_poly(points, exps, coeffs):
    """Evaluate sum_t coeffs[t] * prod_i points[:, i]**exps[t, i] from
    per-variable power tables (layout, memory and bit-identity rule: module
    docstring)."""
    points = np.asarray(points, dtype=np.float64)
    m = points.shape[0]
    t = coeffs.size
    if t == 0:
        return np.zeros(m)
    tables = []
    for i in range(exps.shape[1]):
        column = exps[:, i]
        if not column.any():
            continue
        # 0 is always in the table: a one-entry exponent vector [2] would
        # take numpy's x*x fast path, which need not round like pow(x, 2)
        used = np.union1d(0, column)
        tables.append((i, used, np.searchsorted(used, column)))
    mono = np.ones((m, t))
    rows = max(1, _SCRATCH_BYTES // (8 * t))
    factor = np.empty((min(rows, m), t))
    for start in range(0, m, rows):
        block = mono[start : start + rows]
        scratch = factor[: block.shape[0]]
        for i, used, index in tables:
            table = points[start : start + rows, i : i + 1] ** used
            # mode="clip" skips the bounds buffer; every index is in range
            np.take(table, index, axis=1, out=scratch, mode="clip")
            block *= scratch
    return mono @ coeffs


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
