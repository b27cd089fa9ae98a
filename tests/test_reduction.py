import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bubble_correction import polynomials, reduction
from bubble_correction.errors import (
    CharacteristicGuardError,
    ExactnessError,
    ResidueObstructionError,
    UnsupportedCaseError,
)
from bubble_correction.polynomials import (
    Polynomial,
    iterated_laplacian,
    r2_multiply,
)
from bubble_correction.reduction import (
    MAX_ELL,
    a_multiplier,
    apply_L,
    characteristic_denominator,
    coefficient_table,
    h_of,
    kernel_basis,
    radial_completion,
    residue_terms,
    solve_gamma,
    solve_general,
)

import oracles
from conftest import harmonic_homogeneous, load_bench_inputs, random_homogeneous


def var(n, i, p=1):
    return Polynomial.variable(n, i, p)


def admissible_instance(rng, n, ell):
    p = oracles.project_to_admissible(random_homogeneous(rng, n, ell))
    while p.is_zero or p.degree() != ell:
        p = oracles.project_to_admissible(random_homogeneous(rng, n, ell))
    return p


def obstructed_instance(rng, n, ell):
    p = random_homogeneous(rng, n, ell)
    h = h_of(ell)
    if iterated_laplacian(p, h).is_zero:
        if ell % 2 == 0:
            p = p + Polynomial.r_squared(n) ** (ell // 2)
        else:
            p = p + Polynomial.r_squared(n) ** ((ell - 1) // 2) * var(n, 0)
    assert not iterated_laplacian(p, h).is_zero
    return p


# -------------------------------------------------------------- small pieces


def test_h_of_values():
    assert h_of(2) == 1
    assert h_of(5) == 2
    assert h_of(4) == 2
    with pytest.raises(ValueError):
        h_of(0)


def test_h_of_even_degree_tops_out_at_a_constant(rng):
    for ell in (2, 4, 6):
        n = 7
        p = random_homogeneous(rng, n, ell)
        top = iterated_laplacian(p, h_of(ell))
        assert top.is_zero or top.degree() == 0


def test_a_multiplier_values():
    assert a_multiplier(5, 4, 0, 2) == 0
    assert a_multiplier(4, 4, 1, 1) == 16
    assert a_multiplier(6, 2, 1, 1) == 12


def test_characteristic_guard():
    # the guard's one rule, brute-forced over every cell: a denominator
    # vanishes in the first ``columns`` columns exactly when n is even and
    # n/2 < columns, and coefficient_table refuses exactly those tables.  The
    # denominator is written out from its definition A - 2n(ell + 2(j - k) - 1)
    # in ints (the module's Fractions would take seconds here; the
    # factorization test ties the two together)
    for n in range(1, 41):
        for ell in range(2, MAX_ELL + 1):
            h = h_of(ell)
            # the first column holding a zero denominator, h when none
            first = min(
                (k for k in range(h) for j in range(k + 1)
                 if 2 * j * (2 * j + n - 2 + 2 * ell - 4 * k)
                 == 2 * n * (ell + 2 * (j - k) - 1)),
                default=h,
            )
            if first < h:
                # the cell the guard names, by the module's own denominator
                assert characteristic_denominator(n, ell, n // 2, n // 2) == 0
            for columns in range(1, h + 1):
                blocked = n % 2 == 0 and n // 2 < columns
                assert (first < columns) == blocked, (n, ell, columns)
                if blocked:
                    with pytest.raises(CharacteristicGuardError):
                        coefficient_table(n, ell, columns=columns)


def test_characteristic_denominator_factorization(rng):
    for _ in range(40):
        n = rng.randint(3, 10)
        ell = rng.randint(2, 9)
        k = rng.randint(0, max(h_of(ell) - 1, 0))
        j = rng.randint(0, k)
        lhs = characteristic_denominator(n, ell, j, k)
        gap = k - j
        rhs = -Fraction(2 * j - n) * Fraction(2 * j - 2 * (ell - 1 - 2 * gap))
        assert lhs == rhs


# ------------------------------------------------------------------- tables


def test_table_reference_values():
    table = coefficient_table(5, 4)
    assert table.cell(0, 0) == Fraction(-1, 30)
    assert table.cell(1, 1) == Fraction(-1, 360)


def test_table_diagonal_recurrence_seed():
    for n in (4, 5, 6, 9):
        for ell in (2, 3, 4, 5):
            table = coefficient_table(n, ell)
            assert table.cell(0, 0) == Fraction(1, 2 * n * (1 - ell))


def test_small_degrees_have_single_cell():
    for ell in (2, 3):
        table = coefficient_table(6, ell)
        assert set(table.C) == {(0, 0)}


def test_table_json_cells_follow_their_dependencies():
    # each written cell's "depends" is exactly its neighbours inside the table,
    # all written before it, and "A" is the multiplier written out from its
    # closed form 2j(2j + n - 2 + 2 ell - 4k); full and partial tables.  The
    # table itself stores only the cells and the residue weights.
    stored = list(reduction.CoefficientTable._fields)
    assert stored == ["n", "ell", "h", "columns", "C", "residues"]
    for n, ell, columns in ((9, 8, None), (7, 9, None), (8, 10, 4), (6, 8, 3)):
        data = coefficient_table(n, ell, columns=columns).to_json()
        cells = [(cell["j"], cell["k"]) for cell in data["cells"]]
        size = data["columns"] * (data["columns"] + 1) // 2
        assert len(set(cells)) == len(cells) == size
        seen = set()
        for cell in data["cells"]:
            j, k = cell["j"], cell["k"]
            inside = [d for d in ((j - 1, k - 1), (j, k - 1), (j + 1, k)) if d in cells]
            depends = [tuple(d) for d in cell["depends"]]
            assert depends == inside, (n, ell, j, k)
            assert set(depends) <= seen, (n, ell, j, k)
            a = 2 * j * (2 * j + n - 2 + 2 * ell - 4 * k)
            assert cell["A"] == {"num": str(a), "den": "1"}, (n, ell, j, k)
            seen.add((j, k))


@pytest.mark.parametrize(
    "build, args",
    [
        (coefficient_table, (9.1, 4)),
        (coefficient_table, (True, 2)),
        (coefficient_table, (5, 4.0)),
        (radial_completion, (8.0, 4, [Fraction(1)] * 3)),
        (radial_completion, (8, 4.0, [Fraction(1)] * 3)),
        (radial_completion, (8, True, [Fraction(1)] * 2)),
    ],
)
def test_table_and_completion_refuse_a_non_int_dimension_or_degree(build, args):
    # a float n would give binary-rounded cells; a bool would pass as 0 or 1
    with pytest.raises(ValueError, match="must be an int"):
        build(*args)


@pytest.mark.parametrize("closed_form", [a_multiplier, characteristic_denominator])
@pytest.mark.parametrize(
    "args",
    [(9.1, 4, 1, 0), (True, 4, 1, 0), (9, 4.0, 1, 0), (9, 4, 1.0, 0), (9, 4, 1, False)],
)
def test_closed_forms_refuse_a_non_int_argument(closed_form, args):
    with pytest.raises(ValueError, match="must be an int"):
        closed_form(*args)


@pytest.mark.parametrize("columns", [0, -1, True, 2.0])
def test_table_refuses_columns_other_than_a_positive_int(columns):
    with pytest.raises(ValueError, match="columns must be an int >= 1"):
        coefficient_table(9, 8, columns=columns)


def test_table_clamps_columns_to_h():
    table = coefficient_table(9, 8, columns=7)
    assert table.columns == 4
    assert table.C == coefficient_table(9, 8).C
    assert table.residues is None


def test_table_cells_satisfy_the_three_term_recurrence():
    # denom * C[j,k] = [j = k = 0] - C[j-1,k-1] - C[j,k-1] - A(j+1,k) C[j+1,k],
    # absent neighbours 0; A and the denominator written out from their
    # closed forms rather than taken from the module
    checked = 0
    for n in range(3, 13):
        for ell in range(2, 11):
            try:
                C = coefficient_table(n, ell).C
            except CharacteristicGuardError:
                continue
            for (j, k), c in C.items():
                a_next = 2 * (j + 1) * (2 * (j + 1) + n - 2 + 2 * ell - 4 * k)
                denom = 2 * j * (2 * j + n - 2 + 2 * ell - 4 * k) - 2 * n * (
                    ell + 2 * (j - k) - 1
                )
                rhs = (
                    int((j, k) == (0, 0))
                    - C.get((j - 1, k - 1), 0)
                    - C.get((j, k - 1), 0)
                    - a_next * C.get((j + 1, k), 0)
                )
                assert denom * c == rhs, (n, ell, j, k)
                checked += 1
    assert checked > 300


def test_residue_weights_assemble_from_last_column():
    table = coefficient_table(7, 6)
    h = table.h
    last = h - 1
    assert table.residues[h] == table.cell(last, last)
    assert table.residues[0] == table.cell(0, last)
    for m in range(1, h):
        assert table.residues[m] == table.cell(m, last) + table.cell(m - 1, last)


def test_even_dimension_degree_limit():
    # a full table needs column n/2 exactly when ell >= n + 2
    for n in (2, 4, 6, 8):
        coefficient_table(n, n + 1)
        with pytest.raises(CharacteristicGuardError):
            coefficient_table(n, n + 2)


def test_guard_failure_names_the_cell(monkeypatch):
    # refused before any cell is built: nothing may compute a cell's numbers
    def built(*args):
        raise AssertionError("a cell was built before the guard")

    monkeypatch.setattr(reduction, "a_multiplier", built)
    monkeypatch.setattr(reduction, "characteristic_denominator", built)
    for n, ell, columns in [(4, 6, None), (6, 20, 4), (2, 100, 2)]:
        with pytest.raises(CharacteristicGuardError) as info:
            coefficient_table(n, ell, columns=columns)
        assert (info.value.n, info.value.ell) == (n, ell)
        assert f"cell (j={n // 2}, k={n // 2})" in str(info.value)
        assert f"n={n}, ell={ell}" in str(info.value)


@pytest.mark.parametrize("n, ell", [(4, 6), (4, 8), (4, 10), (6, 8), (6, 10), (6, 12)])
def test_even_dimension_sources_past_the_full_table_solve(rng, n, ell):
    # degree >= n + 2 in even n: the full table is blocked, but a source
    # whose Laplacian chain vanishes by order n/2 needs no column past n/2 - 1
    for k in range(n // 2):
        source = harmonic_homogeneous(rng, n, ell - 2 * k) * Polynomial.r_squared(n) ** k
        for solve in (solve_gamma, solve_general):
            solution = solve(source)
            assert solution.vanishing_order == k + 1
            assert solution.radial_completion is None
            assert apply_L(solution.gamma) == source


# ------------------------------------------------------------- the operator


def test_operator_annihilates_kernel_in_all_dimensions():
    for n in range(3, 11):
        for k in kernel_basis(n):
            assert apply_L(k).is_zero
        combo = 2 * kernel_basis(n)[0] - 3 * kernel_basis(n)[-1]
        assert apply_L(combo).is_zero


def test_operator_scales_harmonic_inputs(rng):
    for _ in range(10):
        n = rng.randint(4, 8)
        ell = rng.randint(2, n - 2)
        p = harmonic_homogeneous(rng, n, ell)
        assert apply_L(p) == (-2 * n * (ell - 1)) * p


def test_apply_L_on_zero_constant_and_cancelling_harmonic_input():
    n = 5
    assert apply_L(Polynomial.zero(n)).is_zero
    c = Polynomial.constant(n, Fraction(-7, 9))
    assert apply_L(c) == 2 * n * c
    # Re (y_1 + i y_2)^4 / 3 + Im (y_3 + i y_4)^2 / 5 + (y_3^2 - y_5^2) / 7:
    # the Laplacian stencil's sums at y_1^2, y_2^2 and 1 all cancel to zero
    h = Polynomial(n, {
        (4, 0, 0, 0, 0): Fraction(1, 3), (2, 2, 0, 0, 0): -2,
        (0, 4, 0, 0, 0): Fraction(1, 3), (0, 0, 1, 1, 0): Fraction(2, 5),
        (0, 0, 2, 0, 0): Fraction(1, 7), (0, 0, 0, 0, 2): Fraction(-1, 7),
    })
    assert apply_L(h) == oracles.apply_L_by_operators(h)
    parts = h.homogeneous_parts()
    assert apply_L(h) == -6 * n * parts[4] - 2 * n * parts[2]


def test_degree_one_regression_fixture(degree_one_correction):
    n, gamma, source = degree_one_correction
    assert apply_L(gamma) == source


# ------------------------------------------------------------------ solving


def test_harmonic_source_solves_with_a_single_scaling(rng):
    n = 6
    p = var(n, 0, 2) - var(n, 1, 2)
    solution = solve_gamma(p)
    assert solution.gamma == Fraction(-1, 2 * n) * p
    assert solution.vanishing_order == 1
    assert solution.verified


def test_alternating_quartic_model_solves_exactly(rng):
    from conftest import alternating_quartic

    n = 8
    p = -1 * alternating_quartic(n)
    solution = solve_gamma(p)
    assert apply_L(solution.gamma) == p


def test_solution_structure(rng):
    for _ in range(12):
        n = rng.randint(4, 9)
        ell = rng.randint(2, min(n - 2, n + 1))
        p = admissible_instance(rng, n, ell)
        solution = solve_gamma(p)
        gamma = solution.gamma
        assert apply_L(gamma) == p
        assert gamma.constant_term() == 0
        assert not any(sum(a) == 1 for a in gamma.terms)
        assert gamma.degree() <= ell


def test_kernel_invariance_of_solutions(rng):
    n, ell = 7, 4
    p = admissible_instance(rng, n, ell)
    gamma = solve_gamma(p).gamma
    for kappa in kernel_basis(n):
        assert apply_L(gamma + kappa) == p


def test_uniqueness_modulo_kernel_by_coefficient_solving(rng):
    n, ell = 6, 3
    p = admissible_instance(rng, n, ell)
    gamma = solve_gamma(p).gamma
    # perturb by a known kernel combination, then re-derive it from the
    # difference by reading off coefficients
    c0 = Fraction(3, 4)
    cs = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
    kb = kernel_basis(n)
    perturbed = gamma + c0 * kb[-1]
    for c, k in zip(cs, kb[:-1]):
        perturbed = perturbed + c * k
    assert apply_L(perturbed) == p
    diff = perturbed - gamma
    # constant coefficient determines the radial kernel weight
    recovered_c0 = -diff.constant_term()
    linear = diff - recovered_c0 * kb[-1]
    recovered = [
        linear.coefficient(tuple(1 if i == j else 0 for i in range(n)))
        for j in range(n)
    ]
    assert recovered_c0 == c0
    assert recovered == cs
    remainder = linear
    for c, k in zip(recovered, kb[:-1]):
        remainder = remainder - c * k
    assert remainder.is_zero


def test_obstruction_iff_top_laplacian_survives(rng):
    successes = failures = 0
    while successes < 12 or failures < 12:
        n = rng.randint(4, 9)
        ell = rng.randint(2, min(n - 2, n + 1))
        if successes < 12:
            p = admissible_instance(rng, n, ell)
            assert apply_L(solve_gamma(p).gamma) == p
            successes += 1
        if failures < 12:
            q = obstructed_instance(rng, n, ell)
            with pytest.raises(ResidueObstructionError) as err:
                solve_gamma(q)
            assert not err.value.residue.is_zero
            failures += 1


def test_pure_radial_source_is_rejected():
    n = 7
    p = Polynomial.r_squared(n) ** 2
    with pytest.raises(ResidueObstructionError):
        solve_gamma(p)


def test_early_termination_truncates_the_combination(rng):
    # harmonic source of degree 4: first Laplacian already vanishes, so only
    # the single-cell combination should appear
    n = 7
    p = harmonic_homogeneous(rng, n, 4)
    solution = solve_gamma(p)
    assert solution.vanishing_order == 1
    assert solution.gamma == Fraction(1, 2 * n * (1 - 4)) * p


def test_residue_ledger_identity(rng):
    from bubble_correction.reduction import _combination, _laplacian_chain

    for _ in range(20):
        n = rng.randint(4, 9)
        ell = rng.randint(2, min(n + 1, 8))
        p = random_homogeneous(rng, n, ell)
        h = h_of(ell)
        table = coefficient_table(n, ell)
        chain = _laplacian_chain(p, h)
        combo = _combination(p, chain, table)
        assert apply_L(combo) == p + residue_terms(p)


def test_residue_terms_vanish_iff_admissible(rng):
    n, ell = 6, 4
    p = admissible_instance(rng, n, ell)
    assert residue_terms(p).is_zero
    q = obstructed_instance(rng, n, ell)
    assert not residue_terms(q).is_zero


def test_pure_radial_residue_is_a_low_degree_radial_polynomial():
    n = 7
    p = Polynomial.r_squared(n) ** 2
    residue = residue_terms(p)
    assert not residue.is_zero
    assert residue.degree() <= 4
    # radial: invariant under every sign flip
    flipped = oracles.apply_signed_permutation(residue, list(range(n)), [-1] * n)
    assert residue == flipped


def _cancelling_chain(chain, table):
    """``chain`` with its first entry replaced so that row 0 of the table's
    combination sums to zero: chain[0] = -sum_{k>=1} C^0_k chain[k] / C^0_0."""
    rest = Polynomial.zero(chain[0].dimension)
    for k in range(1, table.columns):
        rest = rest + table.cell(0, k) * chain[k]
    return [(-1 / table.cell(0, 0)) * rest] + chain[1:]


@pytest.mark.parametrize("n", range(2, 11))
def test_combination_matches_the_per_cell_sum(rng, n):
    # every full and every partial table of n and ell 2-10 that is not
    # blocked, on the source's Laplacian chain, on that chain with each entry
    # over its own denominator, and on a chain whose row 0 cancels
    checked = 0
    for ell in range(2, 11):
        h = h_of(ell)
        p = random_homogeneous(rng, n, ell)
        chain = reduction._laplacian_chain(p, h)
        mixed = [q * Fraction(rng.randint(1, 9), rng.randint(2, 97)) for q in chain]
        for columns in range(1, h + 1):
            if n % 2 == 0 and n // 2 < columns:
                break
            table = coefficient_table(n, ell, columns=columns)
            chains = [chain, mixed]
            if columns > 1:
                chains.append(_cancelling_chain(mixed, table))
            for source in chains:
                combination = reduction._combination(p, source, table)
                assert combination == oracles.combination_by_cells(n, source, table)
                checked += 1
    assert checked >= 15


def test_a_solve_sums_each_row_over_one_lcm(rng, monkeypatch):
    # polynomials._over_lcm puts a sum on one denominator: the combination
    # takes one per row of the table (polynomials._sum) and one for the
    # Horner blocks (polynomials._radial_sum), not one per table cell
    over_lcm = polynomials._over_lcm
    calls = []

    def counted(*polys):
        calls.append(polys)
        return over_lcm(*polys)

    combination = reduction._combination
    seen = []

    def traced(poly, chain, table):
        start = len(calls)
        out = combination(poly, chain, table)
        seen.append((len(calls) - start, table.columns, len(table.C)))
        return out

    monkeypatch.setattr(polynomials, "_over_lcm", counted)
    monkeypatch.setattr(reduction, "_combination", traced)
    solve_gamma(admissible_instance(rng, 9, 8))
    solve_general(obstructed_instance(rng, 8, 6))
    assert len(seen) == 2
    for lcms, columns, cells in seen:
        assert cells > columns >= 2
        assert lcms == columns + 1


# -------------------------------------------------------- radial completion


def test_radial_single_term_identities():
    for n in (4, 6, 8):
        r2 = Polynomial.r_squared(n)
        assert apply_L(r2 ** (n // 2)) == (2 * n * (n - 1)) * r2 ** (n // 2 - 1)
        assert apply_L(r2) == Polynomial.constant(n, 2 * n)


def test_radial_completion_absorbs_the_residue(rng):
    for n in (4, 6, 8):
        for ell in range(2, n - 1, 2):
            for _ in range(4):
                p = obstructed_instance(rng, n, ell)
                solution = solve_general(p)
                assert solution.radial_completion is not None
                assert apply_L(solution.total()) == p
                assert solution.vanishing_order == h_of(ell) + 1


def test_completion_solves_the_negated_residue(rng):
    n, ell = 8, 4
    p = obstructed_instance(rng, n, ell)
    table = coefficient_table(n, ell)
    top = iterated_laplacian(p, h_of(ell)).constant_term()
    completion = radial_completion(n, ell, [top * a for a in table.residues])
    assert apply_L(completion) == -1 * residue_terms(p)


def test_composite_mixed_source():
    n = 8
    p = Polynomial.r_squared(n) ** 2 + var(n, 0, 4) - var(n, 1, 4)
    solution = solve_general(p)
    assert apply_L(solution.total()) == p
    assert solution.total().degree() <= n


def test_solve_general_matches_solve_gamma_when_admissible(rng):
    n, ell = 8, 4
    p = admissible_instance(rng, n, ell)
    a = solve_gamma(p)
    b = solve_general(p)
    assert b.radial_completion is None
    assert a.gamma == b.gamma


def test_radial_completion_parity_preconditions():
    with pytest.raises(UnsupportedCaseError):
        radial_completion(5, 4, [Fraction(1)] * 3)
    with pytest.raises(UnsupportedCaseError):
        radial_completion(6, 3, [Fraction(1)] * 2)
    with pytest.raises(UnsupportedCaseError):
        radial_completion(6, 6, [Fraction(1)] * 4)
    n = 5
    p = Polynomial.r_squared(n) ** 2
    with pytest.raises(ResidueObstructionError) as err:
        solve_general(p)
    assert err.value.residue == residue_terms(p)


def test_radial_completion_refuses_float_weights():
    # a float weight would carry its binary rounding into the rational tier
    with pytest.raises(ExactnessError):
        radial_completion(6, 2, [0.1, 0])


def random_radial_weights(rng, ell):
    return [
        Fraction(rng.randint(-99, 99), rng.randint(1, 60)) for _ in range(h_of(ell) + 1)
    ]


def negated_radial(n, weights):
    """-sum_k a_k (|y|^2)^k, summed in ascending powers of |y|^2."""
    r2 = Polynomial.r_squared(n)
    power, out = Polynomial.constant(n, 1), Polynomial.zero(n)
    for a in weights:
        out = out - a * power
        power = power * r2
    return out


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_radial_completion_solves_arbitrary_weights(rng, n):
    # weights not produced by a solve: the recurrence must absorb any
    # sum_k a_k (|y|^2)^k with k <= h, each power feeding the ones above it
    for ell in range(2, n - 1, 2):
        weights = random_radial_weights(rng, ell)
        assert apply_L(radial_completion(n, ell, weights)) == negated_radial(n, weights)


@pytest.mark.slow
def test_radial_completion_solves_arbitrary_weights_in_dimension_12(rng):
    # one apply_L on an n = 12 completion (18,563 terms) takes about 1 s, so
    # the five degrees share one: L is linear and each degree's weights are
    # drawn independently, so one wrong completion cannot cancel out
    n = 12
    completions = target = Polynomial.zero(n)
    for ell in range(2, n - 1, 2):
        weights = random_radial_weights(rng, ell)
        completions = completions + radial_completion(n, ell, weights)
        target = target + negated_radial(n, weights)
    assert apply_L(completions) == target


def test_solution_size_is_reached_by_a_dense_source():
    # every monomial of degree 4 in 6 variables: gamma fills degrees 2 and 4
    # (21 + 126 of the 148 counted, the constant never occurs) and the
    # completion every power of |y|^2 up to the third (6 + 21 + 56)
    n, ell = 6, 4
    rng = random.Random(4)
    terms = {}
    for alpha in itertools.product(range(ell + 1), repeat=n):
        if sum(alpha) == ell:
            num = rng.choice([-1, 1]) * rng.randint(1, 9)
            terms[alpha] = Fraction(num, rng.randint(1, 9))
    solution = solve_general(Polynomial(n, terms))
    assert reduction._solution_size(n, ell, True) == 148 + 83
    assert len(solution.gamma.terms) == 147
    assert len(solution.radial_completion.terms) == 83


# ----------------------------------------------------------------- projector


def test_projector_leaves_admissible_inputs_alone(rng):
    n, ell = 6, 4
    p = admissible_instance(rng, n, ell)
    assert oracles.project_to_admissible(p) == p


def test_projector_clears_even_top_laplacian():
    n = 4
    p = var(n, 0, 4)
    q = oracles.project_to_admissible(p)
    assert iterated_laplacian(q, 2).is_zero
    r2 = Polynomial.r_squared(n)
    c = iterated_laplacian(p, 2).constant_term() / iterated_laplacian(
        r2**2, 2
    ).constant_term()
    assert q == p - c * r2**2


def test_projector_clears_odd_top_laplacian(rng):
    n, ell = 6, 5
    p = obstructed_instance(rng, n, ell)
    q = oracles.project_to_admissible(p)
    assert iterated_laplacian(q, h_of(ell)).is_zero


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.integers(3, 8),
    st.integers(2, 7),
    st.randoms(use_true_random=False),
    st.lists(st.fractions(-5, 5, max_denominator=4), min_size=8, max_size=8),
)
def test_projector_subtracts_the_exact_radial_multiple(n, ell, rnd, weights):
    # adding (|y|^2)^h T for a constant T (even ell) or a linear form T in
    # every variable (odd ell) makes the top Laplacian nonzero in general
    h = h_of(ell)
    if ell % 2:
        top = sum(
            (c * var(n, i) for i, c in enumerate(weights[:n])), Polynomial.zero(n)
        )
    else:
        top = Polynomial.constant(n, weights[0])
    p = random_homogeneous(rnd, n, ell) + r2_multiply(top, h)
    assume(not p.is_zero)
    reference = oracles.projection_reference(n, ell)
    expected = p - r2_multiply(iterated_laplacian(p, h), h) * (1 / reference)
    assert oracles.project_to_admissible(p) == expected


# --------------------------------------------------------------- exceptions


def test_degree_one_sources_are_rejected():
    with pytest.raises(UnsupportedCaseError):
        solve_gamma(Polynomial.variable(4, 0))


def test_solution_json_round_trip(rng):
    from bubble_correction.reduction import CorrectionSolution

    p = admissible_instance(rng, 6, 4)
    solution = solve_gamma(p)
    data = solution.to_json()
    back = CorrectionSolution.from_json(data)
    assert back.gamma == solution.gamma
    assert back.radial_completion is None
    assert back.vanishing_order == solution.vanishing_order


# ------------------------------------------------------------- sympy oracle

SYMPY_ORACLE = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def rational_polynomials(draw, max_n=12, max_degree=10):
    """Up to six terms in n <= max_n variables of degree <= max_degree with
    small rational coefficients; not necessarily homogeneous."""
    n = draw(st.integers(1, max_n))
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        left = draw(st.integers(0, max_degree))
        alpha = []
        for _ in range(n):
            alpha.append(draw(st.integers(0, left)))
            left -= alpha[-1]
        terms[tuple(alpha)] = draw(st.fractions(-9, 9, max_denominator=7))
    return Polynomial(n, terms)


@st.composite
def construction_sources(draw):
    """Homogeneous sources inside the construction's range: n <= 5, degree
    2..6, and ell < n + 2 for even n."""
    n = draw(st.integers(2, 5))
    ell = draw(st.integers(2, 6 if n % 2 else min(6, n + 1)))
    return random_homogeneous(draw(st.randoms(use_true_random=False)), n, ell)


@SYMPY_ORACLE
@given(rational_polynomials())
@example(Polynomial.zero(1))
@example(Polynomial.zero(12))
@example(Polynomial.constant(7, Fraction(-3, 5)))
@example(Polynomial(4, {(0, 0, 0, 0): 2, (1, 0, 0, 0): Fraction(1, 3),
                        (0, 0, 0, 1): -7}))
@example(Polynomial(12, {(10,) + (0,) * 11: Fraction(5, 6),
                         (2,) * 5 + (0,) * 7: Fraction(-1, 4),
                         (1,) + (0,) * 11: 9}))
def test_apply_L_matches_sympy(poly):
    # the integer stencil against sympy and against the operator-by-operator
    # formula, for n up to 12 and degree up to 10
    image = apply_L(poly)
    assert image == oracles.sympy_apply_L(poly)
    assert image == oracles.apply_L_by_operators(poly)


@SYMPY_ORACLE
@given(construction_sources())
def test_solutions_satisfy_L_built_by_sympy(source):
    # every solution passed the split gate; the expanded gate and sympy agree
    admissible = oracles.project_to_admissible(source)
    if not admissible.is_zero:
        total = solve_gamma(admissible).total()
        assert apply_L(total) == admissible
        assert oracles.sympy_apply_L(total) == admissible
    try:
        solution = solve_general(source)
    except ResidueObstructionError:
        return
    assert apply_L(solution.total()) == source
    assert oracles.sympy_apply_L(solution.total()) == source


# ------------------------------------------------------ radial L, split gate


def random_weights(rng, count):
    return [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(count)]


@pytest.mark.parametrize("n", range(3, 13))
def test_radial_L_matches_sympy_and_the_stencil(n):
    # F = f(|y|^2) of degree up to n; sympy expands the top degree for n <= 9
    # and degree <= 6 above (at n = 12, degree 12 takes it 3 s), the stencil
    # every degree up to n
    rng = random.Random(n)
    f = random_weights(rng, n // 2 + 1)
    f[-1] = f[-1] or Fraction(1)
    expanded = reduction._radial_sum(n, f)
    assert reduction._radial_sum(n, reduction._radial_L(n, f)) == apply_L(expanded)
    low = f if n <= 9 else f[:4]
    assert reduction._radial_sum(n, reduction._radial_L(n, low)) == (
        oracles.sympy_apply_L(reduction._radial_sum(n, low))
    )


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(1, 8), st.randoms(use_true_random=False))
def test_radial_sum_matches_products(n, rnd):
    # Horner on scaled integers against powers of |y|^2 times each block
    blocks = []
    for _ in range(rnd.randint(0, 4)):
        if rnd.random() < 0.5:
            blocks.append(Fraction(rnd.randint(-9, 9), rnd.randint(1, 9)))
        else:
            blocks.append(random_homogeneous(rnd, n, rnd.randint(1, 4)) * Fraction(
                1, rnd.randint(1, 9)))
    assert reduction._radial_sum(n, blocks) == oracles.radial_sum_by_products(n, blocks)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_split_gate_agrees_with_the_expanded_gate_on_bench_requests(seed):
    # a 30-second solve-exact run has three rounds; scan-float adds three
    # set-up solves
    inputs = load_bench_inputs()
    rng = random.Random(seed)
    requests = [r for i in range(3) for r in inputs.solve_round(rng, f"r{i}")]
    requests += inputs.scan_setup(random.Random(seed))
    for request in requests:
        source = Polynomial.from_json(request["source"])
        solve = solve_general if "--allow-radial" in request["argv"] else solve_gamma
        if request["expect_exit"] == 2:
            with pytest.raises(ResidueObstructionError):
                solve(source)
        else:
            assert apply_L(solve(source).total()) == source


def radial_source(rng):
    # n = 8, ell = 6: both gate parts run, and the completion has four weights
    p = random_homogeneous(rng, 8, 6) + Polynomial.r_squared(8) ** 3
    assert not iterated_laplacian(p, 3).is_zero
    return p


@pytest.mark.parametrize("case", ["admissible", "radial"])
def test_split_gate_refuses_a_perturbed_combination_coefficient(
    rng, monkeypatch, case
):
    source = admissible_instance(rng, 8, 6) if case == "admissible" else (
        radial_source(rng))
    solve_general(source)
    table = reduction.coefficient_table

    def perturbed(*args, **kwargs):
        built = table(*args, **kwargs)
        C = dict(built.C)
        C[(0, 1)] += Fraction(1, 7)
        return built._replace(C=C)

    monkeypatch.setattr(reduction, "coefficient_table", perturbed)
    with pytest.raises(AssertionError, match="construction failed exact verification"):
        solve_general(source)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_split_gate_refuses_a_perturbed_completion_weight(rng, monkeypatch, k):
    source = radial_source(rng)
    solve_general(source)
    weights = reduction._completion_weights

    def perturbed(*args):
        B = weights(*args)
        B[k] += Fraction(1, 11)
        return B

    monkeypatch.setattr(reduction, "_completion_weights", perturbed)
    with pytest.raises(AssertionError, match="radial completion failed exact"):
        solve_general(source)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_radial_completion_refuses_a_perturbed_weight_on_its_own(rng, monkeypatch, k):
    # the gate sits in radial_completion itself, so a library caller cannot
    # receive an unchecked completion either
    n, ell = 8, 6
    weights = random_radial_weights(rng, ell)
    radial_completion(n, ell, weights)
    built = reduction._completion_weights

    def perturbed(*args):
        B = built(*args)
        B[k] += Fraction(1, 11)
        return B

    monkeypatch.setattr(reduction, "_completion_weights", perturbed)
    with pytest.raises(AssertionError, match="radial completion failed exact"):
        radial_completion(n, ell, weights)


def test_solve_builds_its_completion_through_radial_completion(rng, monkeypatch):
    calls = []
    built = reduction.radial_completion

    def counting(*args):
        calls.append(args)
        return built(*args)

    monkeypatch.setattr(reduction, "radial_completion", counting)
    solution = solve_general(radial_source(rng))
    assert len(calls) == 1
    assert solution.radial_completion == built(*calls[0])
