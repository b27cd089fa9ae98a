"""Shared generators and fixtures for the test suite."""

import importlib.util
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

import bubble_correction
from bubble_correction.polynomials import Polynomial, laplacian

# Directory that holds the imported package (``src/`` or site-packages); a
# relative ``PYTHONPATH=src`` stops resolving once a child runs in ``tmp_path``.
PACKAGE_ROOT = str(Path(bubble_correction.__file__).resolve().parents[1])


def run_cli(args, cwd, launcher=("-m", "bubble_correction.cli")):
    """Run ``python -m bubble_correction.cli`` (or ``python <launcher>``) in
    ``cwd`` with the package root first on the child's ``PYTHONPATH``."""
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        PACKAGE_ROOT + os.pathsep + inherited if inherited else PACKAGE_ROOT
    )
    return subprocess.run(
        [sys.executable, *launcher, *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


def load_bench_module(name):
    """The benchmark's module ``perfbench/<name>.py``, read from the checkout."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_bench_inputs():
    """The benchmark's request generator, ``perfbench/inputs.py``."""
    return load_bench_module("inputs")


def random_homogeneous(rng, n, ell, max_terms=4, coeff_bound=5):
    """Deterministic random homogeneous polynomial of exact degree ell."""
    while True:
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            alpha = [0] * n
            left = ell
            for i in range(n - 1):
                a = rng.randint(0, left)
                alpha[i] = a
                left -= a
            alpha[rng.randrange(n)] += left
            num = rng.randint(-coeff_bound, coeff_bound)
            if num == 0:
                num = 1
            terms[tuple(alpha)] = terms.get(tuple(alpha), Fraction(0)) + Fraction(
                num, rng.randint(1, 3)
            )
        poly = Polynomial(n, terms)
        if not poly.is_zero and poly.degree() == ell:
            return poly


def random_even_homogeneous(rng, n, ell, max_terms=4):
    """Homogeneous polynomial whose every exponent is even (so its weighted
    moment is generically nonzero)."""
    assert ell % 2 == 0
    while True:
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            alpha = [0] * n
            left = ell // 2
            for i in range(n - 1):
                a = rng.randint(0, left)
                alpha[i] = 2 * a
                left -= a
            alpha[rng.randrange(n)] += 2 * left
            terms[tuple(alpha)] = Fraction(rng.randint(-4, 4) or 1)
        poly = Polynomial(n, terms)
        if not poly.is_zero and poly.degree() == ell:
            return poly


def harmonic_homogeneous(rng, n, ell):
    """Random harmonic homogeneous polynomial of degree ell, built from real
    and imaginary parts of planar powers times disjoint linear factors."""
    assert n >= 2 and ell >= 2
    a, b = rng.sample(range(n), 2)
    use_linear = ell >= 3 and n >= 3 and rng.random() < 0.5
    k = ell - 1 if use_linear else ell
    real_part = rng.random() < 0.5
    terms = {}
    for j in range(k + 1):
        if real_part and j % 2 == 0:
            c = comb(k, j) * (-1) ** (j // 2)
        elif not real_part and j % 2 == 1:
            c = comb(k, j) * (-1) ** ((j - 1) // 2)
        else:
            continue
        alpha = [0] * n
        alpha[a] = k - j
        alpha[b] = j
        terms[tuple(alpha)] = Fraction(c)
    poly = Polynomial(n, terms)
    if use_linear:
        others = [i for i in range(n) if i not in (a, b)]
        poly = poly * Polynomial.variable(n, rng.choice(others))
    scale = Fraction(rng.randint(1, 5), rng.randint(1, 3)) * rng.choice([1, -1])
    poly = scale * poly
    assert laplacian(poly).is_zero and poly.degree() == ell
    return poly


def alternating_quartic(n):
    """The separable model (y_1^4 - y_2^4) + ... + (y_{n-1}^4 - y_n^4); its
    negative is the matching source polynomial under the curvature sign
    convention."""
    assert n % 2 == 0
    terms = {}
    for j in range(n):
        alpha = [0] * n
        alpha[j] = 4
        terms[tuple(alpha)] = Fraction(1 if j % 2 == 0 else -1)
    return Polynomial(n, terms)


@pytest.fixture
def rng():
    return random.Random(20240811)


@pytest.fixture
def degree_one_correction():
    """Hard-coded regression data for the degree-one source in dimension 4:
    the correction needs degree-five terms, so it sits outside the generic
    construction and is kept as a fixture only."""
    n = 4
    r2 = Polynomial.r_squared(n)
    y1 = Polynomial.variable(n, 0)
    a = Fraction(1, 2 * n + 4)
    b = Fraction(2 * n - 4, 2 * n + 4) * Fraction(1, 4 * n + 16)
    gamma = a * (r2 * y1) + b * (r2**2 * y1)
    return n, gamma, y1
