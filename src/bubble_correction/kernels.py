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
``eval_poly`` on them.  A caller that evaluates one polynomial batch after
batch (``pi_eval``, the residual scan, the refined profile) builds its arrays
and their ``power_tables`` once and calls ``eval_poly`` on each batch.

The exact-rational tier of the package never comes through here: the
correctness-critical identities stay in exact rational arithmetic, and only
float sampling is vectorized.

``eval_poly`` on m points, t terms and n variables is row-local: each value
is computed from its own point alone, so a caller may split its points
anywhere without changing a bit.  The points are taken in blocks of rows =
max(1, 2**20 // (8 * t)) rows, about 1 MiB of (rows, t) float64.  For each
variable i whose exponents are not all 0, a block builds the power table of
column i at the distinct exponents that occur in it (always including 0) by
a running product, so x**a is the left-to-right product of a factors of x
(x**0 is 1.0, x**1 is x, x**2 is x*x, x**3 is (x*x)*x); no ``pow`` is
called.  The factors of every term are gathered from that table and
multiplied into the block's monomials in variable order 0..n-1, starting
from 1.0 (multiplying by 1.0 is exact).  Each row is then multiplied by the
coefficients and summed on its own, ``(block * coeffs).sum(axis=1)``: numpy
sums a C-contiguous row pairwise whatever the number of rows.  A BLAS matvec
would not do, since its last bits depend on the batch a row is in.  Memory
is two (rows, t) blocks, the monomials and the gathered factors, plus a
(rows, k) power table (k distinct exponents) and the (m,) result: no (m, t)
matrix and no (m, t, n) cube.  Work is m * t multiplies per variable for the
product, plus the table walk: m * (top exponent) multiplies per variable,
which ``profiles.check_sample_work`` bounds for the sampling commands.
"""

from __future__ import annotations

from ._numpy import np

__all__ = [
    "eval_poly",
    "bubble_values",
    "tail_values",
    "poly_arrays",
    "power_tables",
]

# size of one of ``eval_poly``'s two blocks of rows: its monomials and their
# gathered factors
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


def _powers(column, used):
    """(len(column), len(used)) table of column ** used for sorted exponents
    ``used`` starting at 0, by a running product: x**a is the left-to-right
    product of a factors of x."""
    table = np.empty((column.size, used.size))
    table[:, 0] = 1.0
    power = column.copy()
    done = 1
    for j, a in enumerate(used[1:].tolist(), 1):
        for _ in range(done, a):
            power *= column
        done = a
        table[:, j] = power
    return table


def power_tables(exps):
    """What ``eval_poly`` reads a (t, n) exponent matrix through: n, and for
    each variable i whose exponents are not all 0, i, the sorted distinct
    exponents of column i with 0, and each term's place among them.  A
    caller evaluating one polynomial on many batches of points builds this
    once and passes it in place of the matrix."""
    columns = [(i, column, np.union1d(0, column))
               for i, column in enumerate(exps.T) if column.any()]
    return exps.shape[1], [(i, u, np.searchsorted(u, c)) for i, c, u in columns]


def eval_poly(points, exps, coeffs):
    """Evaluate sum_t coeffs[t] * prod_i points[:, i]**exps[t, i], row by row
    and in blocks of rows (powers, layout, memory and bit rule: module
    docstring); ``exps`` is the exponent matrix or its ``power_tables``.
    The points must have one column per column of ``exps``."""
    points = np.asarray(points, dtype=np.float64)
    n, tables = exps if isinstance(exps, tuple) else power_tables(exps)
    if points.shape[1:] != (n,):
        raise ValueError(
            f"points of shape {points.shape} do not have the polynomial's "
            f"{n} columns"
        )
    m = points.shape[0]
    t = coeffs.size
    out = np.zeros(m)
    if t == 0:
        return out
    rows = max(1, _SCRATCH_BYTES // (8 * t))
    mono = np.empty((min(rows, m), t))
    factor = np.empty_like(mono)
    for start in range(0, m, rows):
        stop = min(start + rows, m)
        block, scratch = mono[: stop - start], factor[: stop - start]
        block.fill(1.0)
        for i, used, index in tables:
            table = _powers(points[start:stop, i], used)
            # mode="clip" skips the bounds buffer; every index is in range
            np.take(table, index, axis=1, out=scratch, mode="clip")
            block *= scratch
        block *= coeffs
        block.sum(axis=1, out=out[start:stop])
    return out


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
    return eval_poly(np.atleast_2d(points), exps, coeffs)
