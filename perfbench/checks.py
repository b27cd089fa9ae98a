"""Output checks that share no computation with the package.

``check(request, code, path)`` returns None when the artifact is
right and a one-line reason when it is not.  Each check recomputes what it
verifies from first principles (monomial evaluation over the integers,
double factorials, the recurrence, the bubble closed form, known facts of
the Green and Poisson kernels).  ``self_test`` corrupts an accepted artifact
and confirms the check rejects the copy, so a check cannot pass vacuously.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

RESIDUAL_BOUND = 1e-12  # sampled float residual of an exact solution
POISSON_TOL = 1e-6  # |integral of the Poisson kernel - 1|
GREEN_BOUNDARY_TOL = 1e-9  # Green's function on the sphere
PROFILE_RTOL = 1e-12


def _terms(poly):
    return {
        tuple(t["alpha"]): Fraction(int(t["num"]), int(t["den"]))
        for t in poly["terms"]
    }


def _monomial(point, alpha):
    value = 1
    for x, a in zip(point, alpha):
        value *= x**a
    return value


def _sum_by_denominator(pairs):
    """Exact sum of coefficient * integer, grouping numerators by
    denominator so that Fraction normalisation runs once per group."""
    groups = {}
    for c, value in pairs:
        groups[c.denominator] = groups.get(c.denominator, 0) + c.numerator * value
    return sum((Fraction(num, den) for den, num in groups.items()), Fraction(0))


def apply_l_at(terms, n, point):
    """L(G)(y) at a nonzero integer point, monomial by monomial:
    L(y^a) = (1 + |y|^2) sum_i a_i (a_i - 1) y^(a - 2 e_i)
             + 2n (1 - |a|) y^a."""
    r2 = 1 + sum(x * x for x in point)
    pairs = []
    for alpha, c in terms.items():
        m = _monomial(point, alpha)
        lap = sum(
            a * (a - 1) * (m // (x * x)) for x, a in zip(point, alpha) if a >= 2
        )
        pairs.append((c, r2 * lap + 2 * n * (1 - sum(alpha)) * m))
    return _sum_by_denominator(pairs)


def eval_at(terms, point):
    return _sum_by_denominator((c, _monomial(point, a)) for a, c in terms.items())


def top_laplacian(terms, n, ell):
    """lap^h P for h = ell // 2 in closed form: lap^h y^b = h! / prod(k_i!) *
    prod(b_i!) * y_i^(b_i - 2 k_i) with 2 k_i the even part of b_i, nonzero
    only when at most ell - 2h exponents are odd."""
    h = ell // 2
    out = {}
    for beta, c in terms.items():
        odd = [i for i, b in enumerate(beta) if b % 2]
        if len(odd) != ell - 2 * h:
            continue
        value = Fraction(math.factorial(h))
        for b in beta:
            value *= Fraction(math.factorial(b), math.factorial(b // 2))
        key = tuple(1 if i in odd else 0 for i in range(n))
        out[key] = out.get(key, Fraction(0)) + c * value
    return {k: v for k, v in out.items() if v}


def _load(path):
    with open(path) as handle:
        return json.load(handle)


# ------------------------------------------------------------------ checks


def _check_solve(request, path):
    data = _load(path)
    source = _terms(request["source"])
    n, ell = request["n"], request["ell"]
    if request["expect_exit"] == 2:
        if data.get("error") != "residue_obstruction":
            return "obstruction report missing"
        if not _terms(data["residue"]):
            return "residue is zero"
        if _terms(data["top_laplacian"]) != top_laplacian(source, n, ell):
            return "top Laplacian differs from lap^h P"
        return None
    if data.get("verified") is not True:
        return "solution not marked verified"
    if (data["n"], data["ell"]) != (n, ell):
        return "dimension or degree echoed wrongly"
    total = _terms(data["gamma"])
    if data["radial_completion"] is not None:
        for alpha, c in _terms(data["radial_completion"]).items():
            total[alpha] = total.get(alpha, Fraction(0)) + c
    for point in request["points"]:
        if apply_l_at(total, n, point) != eval_at(source, point):
            return f"L(G) != P at {point}"
    return None


def _check_residual(request, path):
    data = _load(path)
    if data["count"] != request["samples"]:
        return f"count {data['count']} != {request['samples']} samples"
    if not 0.0 <= data["max_abs"] <= RESIDUAL_BOUND:
        return f"max_abs {data['max_abs']} above {RESIDUAL_BOUND}"
    if not 0.0 <= data["mean_abs"] <= data["max_abs"]:
        return "mean_abs outside [0, max_abs]"
    return None


def _check_profile(request, path):
    spec = request["spec"]
    n = spec["n"]
    with open(path) as handle:
        header = handle.readline().strip().split(",")
    expected = [f"y{i + 1}" for i in range(n)] + [
        "bubble", "correction", "harmonic_group", "total"]
    if header != expected:
        return "unexpected CSV header"
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if rows.shape != (request["samples"], n + 4):
        return f"CSV shape {rows.shape}"
    y = rows[:, :n]
    bubble, corr, group, total = rows[:, n:].T
    parts = bubble + corr + group
    scale = np.abs(bubble) + np.abs(corr) + np.abs(group)
    if np.any(np.abs(total - parts) > PROFILE_RTOL * scale):
        return "total differs from the sum of its parts"
    lam = spec["lam"]
    d2 = ((y - np.asarray(spec["xi"])) ** 2).sum(axis=1)
    closed = (lam / (lam * lam + d2)) ** ((n - 2) / 2.0)
    if np.any(np.abs(bubble - closed) > PROFILE_RTOL * closed):
        return "bubble column differs from the closed form"
    return None


def _double_factorial_product(alpha):
    """prod_i (a_i - 1)!! over even exponents, 0 if any exponent is odd."""
    out = 1
    for a in alpha:
        if a % 2:
            return 0
        for k in range(a - 1, 1, -2):
            out *= k
    return out


def _check_integrate(request, path):
    data = _load(path)
    want = sum(
        (c * _double_factorial_product(a) for a, c in _terms(request["source"]).items()),
        Fraction(0),
    )
    got = Fraction(int(data["j_multiple"]["num"]), int(data["j_multiple"]["den"]))
    if got != want:
        return f"j_multiple {got} != {want}"
    if want == 0 and data["numeric"] != 0.0:
        return "nonzero numeric value for a vanishing multiple"
    return None


def _check_table(request, path):
    data = _load(path)
    n, ell = request["n"], request["ell"]
    h = ell // 2
    cells = {}
    A = {}
    for cell in data["cells"]:
        key = (cell["j"], cell["k"])
        cells[key] = Fraction(int(cell["C"]["num"]), int(cell["C"]["den"]))
        A[key] = Fraction(int(cell["A"]["num"]), int(cell["A"]["den"]))
    if set(cells) != {(j, k) for k in range(h) for j in range(k + 1)}:
        return "table cells do not cover 0 <= j <= k < h"

    def c(j, k):
        return cells.get((j, k), Fraction(0))

    for (j, k), value in cells.items():
        if A[(j, k)] != 2 * j * (2 * j + n - 2 + 2 * ell - 4 * k):
            return f"A at {(j, k)} is wrong"
        a_next = 2 * (j + 1) * (2 * (j + 1) + n - 2 + 2 * ell - 4 * k)
        denominator = A[(j, k)] - 2 * n * (ell + 2 * (j - k) - 1)
        feed = c(j - 1, k - 1) + c(j, k - 1) + c(j + 1, k) * a_next
        if value * denominator != int((j, k) == (0, 0)) - feed:
            return f"cell {(j, k)} breaks the recurrence"
    last = h - 1
    weights = [c(0, last)] + [c(m, last) + c(m - 1, last) for m in range(1, h)]
    weights.append(c(last, last))
    got = [Fraction(int(r["num"]), int(r["den"])) for r in data["residues"]]
    if got != weights:
        return "residue weights differ from the last column"
    return None


def _check_balance(request, path):
    data = _load(path)
    if data["pass"] is not request["passes"]:
        return f"verdict {data['pass']} where {request['passes']} was built"
    return None


def _check_green(request, path):
    data = _load(path)
    if data["n"] != request["n"] or data["radius"] != request["radius"]:
        return "dimension or radius echoed wrongly"
    if abs(data["poisson_normalization"] - 1.0) > POISSON_TOL:
        return f"Poisson kernel integrates to {data['poisson_normalization']}"
    if not data["poisson_normalization_ok"]:
        return "normalization flagged as failing"
    if not 0.0 <= data["boundary_max_abs"] <= GREEN_BOUNDARY_TOL:
        return f"Green's function {data['boundary_max_abs']} on the boundary"
    for bound in data["bounds"]:
        if not (bound["green_ok"] and bound["poisson_ok"]):
            return f"bound at delta={bound['delta']} flagged as failing"
        if bound["green_measured"] > bound["green_envelope"] * (1 + 1e-12):
            return "Green constant above its envelope"
        if bound["poisson_measured"] > bound["poisson_envelope"] * (1 + 1e-12):
            return "Poisson constant above its envelope"
    return None


CHECKS = {
    "solve": _check_solve,
    "residual-scan": _check_residual,
    "profile": _check_profile,
    "integrate": _check_integrate,
    "table": _check_table,
    "balance": _check_balance,
    "green-check": _check_green,
}


def family(request):
    return request["argv"][0]


def check(request, code, path):
    """None when the run is right, else the reason it is not."""
    if code != request["expect_exit"]:
        return f"exit {code}, expected {request['expect_exit']}"
    if code == 2 and family(request) != "solve":
        return None  # integrate / table obstructions write no artifact
    try:
        return CHECKS[family(request)](request, path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"unreadable artifact: {exc!r}"


# ------------------------------------------------------------- self-tests


def _bump(rational):
    rational["num"] = str(int(rational["num"]) + 1)


def _corrupt_json(edit):
    def corrupt(path, dest):
        data = _load(path)
        edit(data)
        with open(dest, "w") as handle:
            json.dump(data, handle)
    return corrupt


def _corrupt_solution(data):
    if "error" in data:
        data["residue"]["terms"] = []
    else:
        _bump(data["gamma"]["terms"][len(data["gamma"]["terms"]) // 2])


def _corrupt_residual(data):
    data["count"] -= 1


def _corrupt_profile(path, dest):
    with open(path) as handle:
        lines = handle.read().splitlines()
    cells = lines[1].split(",")
    cells[-1] = repr(float(cells[-1]) * (1 + 1e-6) + 1e-9)
    lines[1] = ",".join(cells)
    with open(dest, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def _corrupt_integrate(data):
    _bump(data["j_multiple"])


def _corrupt_table(data):
    _bump(data["cells"][len(data["cells"]) // 2]["C"])


def _corrupt_balance(data):
    data["pass"] = not data["pass"]


def _corrupt_green(data):
    data["poisson_normalization"] += 1e-3


CORRUPTIONS = {
    "solve": _corrupt_json(_corrupt_solution),
    "residual-scan": _corrupt_json(_corrupt_residual),
    "profile": _corrupt_profile,
    "integrate": _corrupt_json(_corrupt_integrate),
    "table": _corrupt_json(_corrupt_table),
    "balance": _corrupt_json(_corrupt_balance),
    "green-check": _corrupt_json(_corrupt_green),
}


def self_test(request, code, path):
    """Corrupt an accepted artifact; True when the check rejects the copy."""
    dest = path + ".corrupt"
    CORRUPTIONS[family(request)](path, dest)
    return check(request, code, dest) is not None
