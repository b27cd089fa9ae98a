"""Seeded request generation for the three workloads.

Everything here is built from the run's seed with the benchmark's own
arithmetic; nothing imports the package.  A request is a dict holding the
CLI arguments, the input files to write, and the facts the output check needs
(expected exit code, expected verdict, the exact source).  The monomial
pattern of each solve cell comes from a generator keyed by the cell's name,
and the seed draws coefficients, a relabelling of the variables, sample
seeds and configurations: the work of a run then hardly depends on the seed,
while its inputs differ.

Admissible sources are made by parity: the Laplacian lowers one exponent by
two, so it keeps the parity of every exponent.  For a source of degree
ell = 2h the h-fold Laplacian is a constant, so a monomial with an odd
exponent has vanishing top Laplacian; for ell = 2h + 1 it is linear, so a
monomial with three or more odd exponents has one too.  Monomials whose top
Laplacian does not vanish enter only as differences y^b - y^(pi b), pi a
permutation fixing the odd exponent, whose top Laplacians cancel.  An
obstructed source adds one such monomial unpaired.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

# Each round lists every request cell once and a run repeats whole rounds,
# so every run sends the same mix.
SOLVE_ADMISSIBLE = [(8, 6), (8, 8), (9, 5), (9, 7), (10, 4), (10, 8)]
SOLVE_RADIAL = [(8, 4), (8, 6), (10, 6), (10, 8)]
SOLVE_OBSTRUCTED = [(8, 5), (9, 6), (10, 8)]

SOURCE_TERMS = 4


def poly_json(n, terms):
    """Package polynomial schema for {alpha: Fraction}."""
    return {
        "dimension": n,
        "terms": [
            {"alpha": list(alpha), "num": str(c.numerator), "den": str(c.denominator)}
            for alpha, c in sorted(terms.items())
            if c
        ],
    }


def rat(value):
    value = Fraction(value)
    return {"num": str(value.numerator), "den": str(value.denominator)}


def _coefficient(rng):
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9))


def _composition(shape, n, total, odd_count):
    """Exponent vector of degree ``total`` with exactly ``odd_count`` odd
    entries at distinct random positions."""
    odd = set(shape.sample(range(n), odd_count))
    alpha = [1 if i in odd else 0 for i in range(n)]
    for _ in range((total - odd_count) // 2):
        alpha[shape.randrange(n)] += 2
    return tuple(alpha)


def _paired_difference(shape, rng, n, ell):
    """c * (y^b - y^(pi b)) with a nonvanishing top Laplacian on each part
    that cancels in the difference."""
    while True:
        beta = _composition(shape, n, ell, ell % 2)
        free = [i for i in range(n) if beta[i] % 2 == 0]
        shuffled = free[:]
        shape.shuffle(shuffled)
        image = list(beta)
        for src, dst in zip(free, shuffled):
            image[dst] = beta[src]
        image = tuple(image)
        if image != beta:
            c = _coefficient(rng)
            return {beta: c, image: -c}


def _add(terms, more):
    for alpha, c in more.items():
        terms[alpha] = terms.get(alpha, Fraction(0)) + c
        if not terms[alpha]:
            del terms[alpha]


def source_terms(shape, rng, n, ell, obstructed):
    """An admissible source, plus one unpaired monomial with nonvanishing top
    Laplacian when ``obstructed``.  ``shape`` draws the monomial pattern and
    ``rng`` (the run's seed) the coefficients and a relabelling of the
    variables, so the work a source causes does not depend on the seed."""
    terms = {}
    _add(terms, _paired_difference(shape, rng, n, ell))
    odd_count = 2 if ell % 2 == 0 else 3
    while len(terms) < SOURCE_TERMS:
        _add(terms, {_composition(shape, n, ell, odd_count): _coefficient(rng)})
    while obstructed:
        alpha = _composition(shape, n, ell, ell % 2)
        if alpha not in terms:
            terms[alpha] = _coefficient(rng)
            break
    relabel = rng.sample(range(n), n)
    return {tuple(alpha[relabel[i]] for i in range(n)): c for alpha, c in terms.items()}


# ------------------------------------------------------------------ requests


def _request(kind, argv, files, **facts):
    return {"kind": kind, "argv": argv, "files": files, **facts}


def _solve_request(rng, shape_key, case, n, ell, src, res):
    terms = source_terms(random.Random(shape_key), rng, n, ell, case != "admissible")
    argv = ["solve", "--input", src, "--output", res]
    if case == "radial":
        argv.insert(1, "--allow-radial")
    points = [[rng.choice([-1, 1]) * rng.randint(1, 4) for _ in range(n)]
              for _ in range(2)]
    return _request(
        f"solve-{case}", argv, {src: poly_json(n, terms)},
        output=res, expect_exit=2 if case == "obstructed" else 0,
        source=poly_json(n, terms), points=points, n=n, ell=ell,
    )


def solve_round(rng, tag):
    cells = (
        [("admissible", n, ell) for n, ell in SOLVE_ADMISSIBLE]
        + [("radial", n, ell) for n, ell in SOLVE_RADIAL]
        + [("obstructed", n, ell) for n, ell in SOLVE_OBSTRUCTED]
    )
    return [
        _solve_request(rng, f"solve-{tag}-{i}", case, n, ell,
                       f"{tag}-{i}-src.json", f"{tag}-{i}-out.json")
        for i, (case, n, ell) in enumerate(cells)
    ]


# -------------------------------------------------------------- scan-float

# Solutions made in set-up: (name, n, ell, case).  "radial" goes through the
# completion path and is the large n = 10, ell = 8 solution.
SCAN_SOLUTIONS = [("small8", 8, 4, "admissible"), ("small9", 9, 5, "admissible"),
                  ("large10", 10, 8, "radial")]
# (solution name, samples) per round
SCAN_RESIDUALS = [("small8", 50_000), ("small9", 20_000), ("large10", 200)]
# two profiles at 1e4 samples put the scan-float median inside one cluster
PROFILE_SAMPLES = [10_000, 10_000, 30_000]
GREEN_DIMENSIONS = range(3, 9)
GREEN_PER_ROUND = 4
HARMONIC_SOURCES = 2


def scan_setup(rng):
    """The solve requests that make the solutions the scans read."""
    return [
        _solve_request(rng, f"scan-{name}", case, n, ell,
                       f"{name}-src.json", f"{name}-sol.json")
        for name, n, ell, case in SCAN_SOLUTIONS
    ]


def _profile_spec(rng, gamma, n, ell):
    joint_c = 0.5
    points, weights = [], []
    for _ in range(HARMONIC_SOURCES):
        direction = [rng.gauss(0.0, 1.0) for _ in range(n)]
        norm = sum(x * x for x in direction) ** 0.5
        radius = rng.uniform(2.5, 4.0) * joint_c
        points.append([radius * x / norm for x in direction])
        weights.append(rng.uniform(0.5, 2.0))
    return {
        "n": n, "ell": ell, "lam": rng.uniform(0.2, 0.6),
        "xi": [rng.uniform(-0.2, 0.2) for _ in range(n)], "gamma": gamma,
        "harmonic_points": points, "harmonic_weights": weights,
        "joint_radius_c": joint_c,
    }


def scan_round(rng, tag, solutions):
    """``solutions`` maps a set-up solution name to its solution JSON."""
    out = []
    for i, (name, samples) in enumerate(SCAN_RESIDUALS):
        res = f"{tag}-scan{i}.json"
        out.append(_request(
            "residual-scan",
            ["residual-scan", "--input", f"{name}-sol.json", "--source",
             f"{name}-src.json", "--samples", str(samples), "--seed",
             str(rng.randrange(1 << 30)), "--output", res],
            {}, output=res, expect_exit=0, samples=samples,
        ))
    sol = solutions["small8"]
    for i, samples in enumerate(PROFILE_SAMPLES):
        spec = _profile_spec(rng, sol["gamma"], sol["n"], sol["ell"])
        spec_file, res = f"{tag}-prof{i}-spec.json", f"{tag}-prof{i}.csv"
        out.append(_request(
            "profile",
            ["profile", "--input", spec_file, "--samples", str(samples),
             "--seed", str(rng.randrange(1 << 30)), "--output", res],
            {spec_file: spec}, output=res, expect_exit=0, samples=samples,
            spec=spec,
        ))
    for n in sorted(rng.sample(GREEN_DIMENSIONS, GREEN_PER_ROUND)):
        res = f"{tag}-green{n}.json"
        radius = rng.uniform(0.5, 2.0)
        out.append(_request(
            "green-check",
            ["green-check", "--n", str(n), "--radius", repr(radius), "--seed",
             str(rng.randrange(1 << 30)), "--output", res],
            {}, output=res, expect_exit=0, n=n, radius=radius,
        ))
    return out


# --------------------------------------------------------------- light-cli

INTEGRATE_CASES = [(4, 2), (5, 3), (6, 4), (7, 6), (8, 5), (9, 8), (10, 6),
                   (11, 10), (12, 8), (12, 7), (6, 6), (9, 11)]
TABLE_CASES = [(3, 24), (5, 17), (7, 9), (9, 24), (11, 20), (12, 8), (16, 14),
               (20, 24), (4, 8), (6, 10)]
BALANCE_CASES = [(7, True), (8, True), (9, False), (10, False), (8, False),
                 (10, True)]


def _homogeneous(rng, n, degree, count):
    terms = {}
    while len(terms) < count:
        odd = rng.choice(range(degree % 2, min(n, degree) + 1, 2))
        terms[_composition(rng, n, degree, odd)] = _coefficient(rng)
    return terms


def _mirrored_configuration(rng, n, passes):
    """Origin plus two mirrored pairs (p, -p) sharing curvature, Taylor
    polynomial, drift vector and exponent, so every group sum cancels.  A
    failing configuration doubles the curvature of one pair member."""
    while True:
        etas = [Fraction(rng.randint(1, 12), rng.randint(1, 7)) for _ in range(2)]
        if not _interferes(n, [etas[0], etas[0], etas[0], etas[1], etas[1]]):
            break
    points, ks, polys, vectors, exps = [[0] * n], [n * (n - 2)], [], [], []
    polys.append(_homogeneous(rng, n, n - 2, 3))
    vectors.append([rng.randint(-3, 3) for _ in range(n)])
    exps.append(etas[0])
    for pair in range(2):
        while True:
            p = [rng.randint(-3, 3) for _ in range(n)]
            v = [rng.choice([-1, 1]) * rng.randint(1, 3) for _ in range(n)]
            taylor = _homogeneous(rng, n, n - 2, 3)
            fresh = p not in points and [-x for x in p] not in points
            if any(p) and fresh and _pairing(p, taylor, v):
                break
        k = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        for sign in (1, -1):
            points.append([sign * x for x in p])
            ks.append(k)
            polys.append(taylor)
            vectors.append(v)
            exps.append(etas[pair])
    if not passes:
        ks[1 + 2 * rng.randrange(2)] *= 2
    return {
        "n": n,
        "points": [[rat(x) for x in p] for p in points],
        "k_values": [rat(k) for k in ks],
        "taylor_polys": [poly_json(n, t) for t in polys],
        "flex_vectors": [[rat(x) for x in v] for v in vectors],
        "flex_exponents": [rat(e) for e in exps],
        "scale_ratios": [rat(1)] * len(points),
    }


def _interferes(n, etas):
    return any(
        (n - 3) * em == h * ej
        for m, em in enumerate(etas)
        for j, ej in enumerate(etas)
        if j != m and em != ej
        for h in range(1, n - 2)
    )


def _pairing(point, taylor, vector):
    """<point, grad T>(vector), exactly."""
    total = Fraction(0)
    for alpha, c in taylor.items():
        for i, a in enumerate(alpha):
            if a and point[i]:
                term = c * a * point[i]
                for k, b in enumerate(alpha):
                    term *= Fraction(vector[k]) ** (b - (k == i))
                total += term
    return total


def light_round(rng, tag):
    out = []
    for i, (n, degree) in enumerate(INTEGRATE_CASES):
        terms = _homogeneous(rng, n, degree, rng.randint(2, 6))
        src, res = f"{tag}-int{i}.json", f"{tag}-int{i}-out.json"
        out.append(_request(
            "integrate", ["integrate", "--input", src, "--output", res],
            {src: poly_json(n, terms)}, output=res,
            expect_exit=2 if degree >= n else 0, source=poly_json(n, terms),
        ))
    for i, (n, ell) in enumerate(TABLE_CASES):
        res = f"{tag}-table{i}.json"
        out.append(_request(
            "table", ["table", "--n", str(n), "--ell", str(ell), "--output", res],
            {}, output=res, expect_exit=2 if n % 2 == 0 and ell >= n + 2 else 0,
            n=n, ell=ell,
        ))
    for i, (n, passes) in enumerate(BALANCE_CASES):
        src, res = f"{tag}-bal{i}.json", f"{tag}-bal{i}-out.json"
        out.append(_request(
            "balance", ["balance", "--input", src, "--output", res],
            {src: _mirrored_configuration(rng, n, passes)}, output=res,
            expect_exit=0, passes=passes,
        ))
    return out


def write_files(request, directory):
    for name, payload in request["files"].items():
        with open(os.path.join(directory, name), "w") as handle:
            json.dump(payload, handle)
