import json
import math
import os
import random
import stat
import sys
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bubble_correction import cli, profiles, reduction
from bubble_correction.polynomials import Polynomial
from bubble_correction.reduction import MAX_ELL, MAX_SOLUTION_TERMS, solve_gamma

from conftest import alternating_quartic, load_bench_module, run_cli, wire_polynomials


def assert_input_error(result):
    """Exit 1 from the CLI's own input check, not from a crash or a failed
    import, both of which also exit 1."""
    assert result.returncode == 1
    assert result.stderr.startswith("input error:"), result.stderr
    assert "Traceback" not in result.stderr


def write_poly(path, poly):
    path.write_text(json.dumps(poly.to_json()))


@pytest.fixture
def admissible_source(tmp_path):
    n = 8
    poly = Fraction(-1) * alternating_quartic(n)
    path = tmp_path / "source.json"
    write_poly(path, poly)
    return path


def test_solve_success_exit_zero(tmp_path, admissible_source):
    out = tmp_path / "solution.json"
    result = run_cli(
        ["solve", "--input", str(admissible_source), "--output", str(out)],
        tmp_path,
    )
    assert result.returncode == 0, result.stderr
    data = json.loads(out.read_text())
    assert data["verified"] is True
    assert data["radial_completion"] is None
    assert data["n"] == 8 and data["ell"] == 4


def test_solve_obstruction_exit_two_with_residue(tmp_path):
    n = 7
    poly = Polynomial.r_squared(n) ** 2
    path = tmp_path / "radial.json"
    write_poly(path, poly)
    out = tmp_path / "solution.json"
    result = run_cli(["solve", "--input", str(path), "--output", str(out)], tmp_path)
    assert result.returncode == 2
    data = json.loads(out.read_text())
    assert data["error"] == "residue_obstruction"
    assert data["residue"]["terms"]


def test_allow_radial_outside_the_hypotheses_writes_the_same_report(tmp_path):
    # |y|^4 in odd n: a residue that the radial completion cannot absorb
    path = tmp_path / "radial.json"
    write_poly(path, Polynomial.r_squared(7) ** 2)
    reports = []
    for flags in ([], ["--allow-radial"]):
        out = tmp_path / f"solution{len(flags)}.json"
        result = run_cli(
            ["solve", *flags, "--input", str(path), "--output", str(out)], tmp_path
        )
        assert result.returncode == 2
        assert result.stderr.startswith("obstruction:"), result.stderr
        reports.append(json.loads(out.read_text()))
    plain, radial = reports
    assert plain["error"] == radial["error"] == "residue_obstruction"
    assert plain["residue"] == radial["residue"]
    assert plain["top_laplacian"] == radial["top_laplacian"]
    assert radial["message"].startswith(plain["message"])
    assert "ell <= n - 2 even; got n=7, ell=4" in radial["message"]


def test_solve_with_radial_completion(tmp_path):
    n = 8
    poly = Polynomial.r_squared(n) ** 2
    path = tmp_path / "radial.json"
    write_poly(path, poly)
    out = tmp_path / "solution.json"
    result = run_cli(
        ["solve", "--allow-radial", "--input", str(path), "--output", str(out)],
        tmp_path,
    )
    assert result.returncode == 0, result.stderr
    data = json.loads(out.read_text())
    assert data["radial_completion"] is not None


def test_missing_input_exit_one(tmp_path):
    result = run_cli(
        ["solve", "--input", str(tmp_path / "nope.json"), "--output", str(tmp_path / "o.json")],
        tmp_path,
    )
    assert_input_error(result)


def test_malformed_input_exit_one(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    result = run_cli(
        ["solve", "--input", str(bad), "--output", str(tmp_path / "o.json")],
        tmp_path,
    )
    assert_input_error(result)


# y1^2 in dimension 3 integrates cleanly; each case spoils one field of it
CLEAN_TERM = {"alpha": [2, 0, 0], "num": "1", "den": "1"}


@pytest.mark.parametrize(
    "payload",
    [
        {"dimension": 3, "terms": [{**CLEAN_TERM, "num": 1.9}]},
        {"dimension": 3, "terms": [{**CLEAN_TERM, "alpha": [2.6, 0, 0]}]},
        {"dimension": 3, "terms": [{**CLEAN_TERM, "den": "0"}]},
        {"dimension": 3.0, "terms": [CLEAN_TERM]},
        {"dimension": 3, "terms": [{**CLEAN_TERM, "num": True}]},
    ],
    ids=["float-num", "float-alpha", "zero-den", "float-dimension", "bool-num"],
)
def test_integrate_rejects_inexact_polynomial_json(tmp_path, payload):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(payload))
    result = run_cli(
        ["integrate", "--input", str(path), "--output", str(tmp_path / "o.json")],
        tmp_path,
    )
    assert_input_error(result)


@pytest.mark.parametrize(
    "field, value",
    [
        ("k_values", [48, 2.0, 2]),
        ("k_values", [48, {"num": 2.5, "den": "1"}, 2]),
        ("n", 8.0),
        ("k_values", [True, 2, 2]),
        ("points", 5),
        ("flex_vectors", [1, 2, 3]),
        ("taylor_polys", None),
    ],
    ids=[
        "float-k", "float-num-in-dict", "float-n", "bool-k", "int-points",
        "int-vectors", "null-polys",
    ],
)
def test_balance_rejects_inexact_config(tmp_path, field, value):
    config = balance_config_json()
    config[field] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    result = run_cli(
        ["balance", "--input", str(path), "--output", str(tmp_path / "o.json")],
        tmp_path,
    )
    assert_input_error(result)


@pytest.mark.parametrize(
    "value, message",
    [
        ("1/0", "malformed balance configuration: zero denominator in '1/0'"),
        ("1e1000000", "not an exact rational coefficient: '1e1000000'"),
    ],
    ids=["zero-denominator", "decimal-exponent"],
)
def test_balance_refuses_a_string_rational_outside_the_grammar(
    tmp_path, value, message
):
    # "1/0" ended in a ZeroDivisionError traceback, and "1e1000000" was parsed
    # by Fraction's own grammar, a million-digit integer, before any check
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_with_entry("k_values", 1, value)))
    out = tmp_path / "report.json"
    start = time.perf_counter()
    result = run_cli(["balance", "--input", str(path), "--output", str(out)], tmp_path)
    elapsed = time.perf_counter() - start
    assert result.returncode == 1
    assert result.stderr == f"input error: {message}\n"
    assert not out.exists()
    assert elapsed < 1.0, elapsed


def test_table_dump_contains_reference_cell(tmp_path):
    out = tmp_path / "table.json"
    result = run_cli(["table", "--n", "5", "--ell", "4", "--output", str(out)], tmp_path)
    assert result.returncode == 0
    data = json.loads(out.read_text())
    first = next(c for c in data["cells"] if c["j"] == 0 and c["k"] == 0)
    assert first["C"] == {"num": "-1", "den": "30"}
    # a blocked table is refused before any cell is built, so no cell
    # carries a guard status; a cell's dependencies are its neighbours inside
    # the table and are not written
    assert all(set(c) == {"j", "k", "C", "A"} for c in data["cells"])
    assert len(data["residues"]) == data["h"] + 1


def test_table_rejects_large_even_degree(tmp_path):
    result = run_cli(
        ["table", "--n", "6", "--ell", "8", "--output", str(tmp_path / "t.json")],
        tmp_path,
    )
    assert result.returncode == 2


def test_table_rejects_nonpositive_dimension(tmp_path):
    result = run_cli(
        ["table", "--n", "0", "--ell", "2", "--output", str(tmp_path / "t.json")],
        tmp_path,
    )
    assert_input_error(result)


def assert_refused(capsys, argv, out, code, message):
    """``cli.main(argv)`` exits ``code`` with its family's prefix and
    ``message`` on stderr, and writes no ``out``."""
    assert cli.main(argv) == code
    prefix = {1: "input error", 2: "obstruction"}[code]
    assert capsys.readouterr().err == f"{prefix}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "ell, code, message",
    [
        (-1, 1, "source degree must be >= 0 (got ell=-1)"),
        (0, 2, "source degree must be >= 2"),
        (1, 2, "source degree must be >= 2"),
    ],
)
def test_table_degree_below_two(tmp_path, capsys, monkeypatch, ell, code, message):
    # a negative degree is malformed, and 0 and 1 are the degree-below-2
    # obstruction, each refused before any cell is built (degree 2 is
    # ``test_table_single_cell_for_degree_two``)
    def work(*args):
        raise AssertionError("a cell was built before the degree was checked")

    monkeypatch.setattr(reduction, "a_multiplier", work)
    monkeypatch.chdir(tmp_path)
    argv = ["table", "--n", "5", "--ell", str(ell), "--output", "t.json"]
    assert_refused(capsys, argv, tmp_path / "t.json", code, message)


def test_table_dimension_cap_is_an_input_error(tmp_path, capsys, monkeypatch):
    # the full table at MAX_ELL is built at the cap; one above it exits 1
    # before any cell is built
    cap = reduction._MAX_TABLE_N
    monkeypatch.chdir(tmp_path)
    argv = ["--ell", str(MAX_ELL), "--output", "t.json"]
    assert cli.main(["table", "--n", str(cap), *argv]) == 0
    (tmp_path / "t.json").unlink()
    capsys.readouterr()

    def work(*args):
        raise AssertionError("a cell was built before the cap was checked")

    monkeypatch.setattr(reduction, "a_multiplier", work)
    assert cli.main(["table", "--n", str(cap + 1), *argv]) == 1
    err = capsys.readouterr().err
    assert err == (
        f"input error: dimension must be >= 1 and <= {cap} (got n={cap + 1})\n"
    )
    assert list(tmp_path.iterdir()) == []


def test_artifacts_get_the_umask_mode(tmp_path):
    out = tmp_path / "table.json"
    old = os.umask(0o022)  # inherited by the child
    try:
        result = run_cli(
            ["table", "--n", "5", "--ell", "4", "--output", str(out)], tmp_path
        )
    finally:
        os.umask(old)
    assert result.returncode == 0, result.stderr
    assert stat.S_IMODE(out.stat().st_mode) == 0o644


def test_table_single_cell_for_degree_two(tmp_path):
    out = tmp_path / "table.json"
    result = run_cli(["table", "--n", "6", "--ell", "2", "--output", str(out)], tmp_path)
    assert result.returncode == 0, result.stderr
    data = json.loads(out.read_text())
    assert len(data["cells"]) == 1


def test_integrate_odd_monomial_is_zero(tmp_path):
    poly = Polynomial.variable(5, 0)
    path = tmp_path / "p.json"
    write_poly(path, poly)
    out = tmp_path / "result.json"
    result = run_cli(["integrate", "--input", str(path), "--output", str(out)], tmp_path)
    assert result.returncode == 0
    data = json.loads(out.read_text())
    assert data["j_multiple"] == {"num": "0", "den": "1"}
    assert data["numeric"] == 0.0


def test_integrate_divergent_degree_exit_two(tmp_path):
    poly = Polynomial.variable(4, 0, 4)
    path = tmp_path / "p.json"
    write_poly(path, poly)
    result = run_cli(
        ["integrate", "--input", str(path), "--output", str(tmp_path / "r.json")],
        tmp_path,
    )
    assert result.returncode == 2


def balance_config_json(perturb=None):
    from test_balance import mirrored_pair_config

    return mirrored_pair_config(perturb=perturb).to_json()


def test_balance_mirrored_configuration_passes(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(balance_config_json()))
    out = tmp_path / "report.json"
    result = run_cli(["balance", "--input", str(path), "--output", str(out)], tmp_path)
    assert result.returncode == 0, result.stderr
    data = json.loads(out.read_text())
    assert data["pass"] is True


TINY = {"num": "1", "den": "1" + "0" * 400}
HUGE = {"num": "1" + "0" * 200, "den": "1"}
# 13,953 bits: S^e at e = 5 + 5/13 needs powers of 5 * 13,953 bits
VAST = {"num": "1" + "0" * 4200, "den": "1"}


@pytest.mark.parametrize(
    "perturb, fields, message",
    [
        (None, {"scale_ratios": [1, -2, -2]}, "scale ratios must be positive"),
        (
            None,
            {"scale_ratios": [1, 0, 0], "flex_exponents": [-2, -2, -2]},
            "scale ratios must be positive",
        ),
        (Fraction(1, 1000), {"k_values": [48, TINY, TINY]}, "beyond the float range"),
        (
            Fraction(1, 1000),
            {"scale_ratios": [1, HUGE, HUGE]},
            "beyond the float range",
        ),
        (None, {"flex_exponents": [{"num": "1", "den": "10001"}] * 3}, "degree 10001"),
        (
            None,
            {"scale_ratios": [1, VAST, VAST]},
            "balance weight needs a power of",
        ),
    ],
    ids=[
        "negative-ratios", "zero-ratios-negative-eta", "tiny-curvature-scales",
        "huge-scale-ratios", "root-degree-cap", "radicand-bits-cap",
    ],
)
def test_balance_refuses_inputs_it_cannot_report(
    tmp_path, capsys, perturb, fields, message
):
    # the first two crashed with a TypeError and a ZeroDivisionError, the
    # next two with an OverflowError from the float sum
    config = balance_config_json(perturb)
    config.update(fields)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "report.json"
    assert cli.main(["balance", "--input", str(path), "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error:") and message in err, err
    assert not out.exists()


@pytest.mark.parametrize(
    "payload, message",
    [
        (lambda: {**balance_config_json(), "k_values": [48, 2]},
         "all per-point lists must have equal length"),
        (lambda: _with_entry("points", 2, balance_config_json()["points"][1]),
         "points must be pairwise distinct"),
        (lambda: _with_entry("k_values", 1, 0), "curvature scales must be positive"),
        (lambda: _with_entry("scale_ratios", 0, 2), "the origin's scale ratio must be 1"),
        (lambda: _with_entry("taylor_polys", 1, Polynomial.variable(7, 0, 5).to_json()),
         "taylor polynomial dimension mismatch"),
        (lambda: _with_entry("taylor_polys", 1, Polynomial.variable(8, 0, 5).to_json()),
         "taylor polynomials must be homogeneous of degree n - 2"),
        (lambda: _with_entry("taylor_polys", 1, (
            Polynomial.variable(8, 0, 6) + Polynomial.variable(8, 1, 2)).to_json()),
         "taylor polynomials must be homogeneous of degree n - 2"),
        # reported from inside ``directional_pairing`` as "vector length 3 !=
        # dimension 8"
        (lambda: _with_entry("points", 1, [3, 0, 0]),
         "every entry of points must have length n = 8"),
        (lambda: _with_entry("flex_vectors", 1, [1, 0, 0]),
         "every entry of flex_vectors must have length n = 8"),
    ],
    ids=["unequal-lists", "repeated-point", "zero-curvature-scale",
         "origin-scale-ratio", "taylor-dimension", "taylor-degree",
         "taylor-not-homogeneous", "short-point", "short-drift-vector"],
)
def test_balance_refuses_an_inconsistent_configuration(
    tmp_path, capsys, payload, message
):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload()))
    out = tmp_path / "report.json"
    argv = ["balance", "--input", str(path), "--output", str(out)]
    assert_refused(capsys, argv, out, 1, message)


def test_balance_in_dimension_six_is_an_obstruction(tmp_path, capsys):
    n = 6
    origin = [0] * n
    config = {
        "n": n, "points": [origin], "k_values": [n * (n - 2)],
        "taylor_polys": [Polynomial.zero(n).to_json()], "flex_vectors": [origin],
        "flex_exponents": [{"num": "1", "den": "13"}], "scale_ratios": [1],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "report.json"
    argv = ["balance", "--input", str(path), "--output", str(out)]
    assert_refused(capsys, argv, out, 2, "balance sums need dimension > 6")


def test_residual_scan(tmp_path, admissible_source):
    sol = tmp_path / "solution.json"
    result = run_cli(
        ["solve", "--input", str(admissible_source), "--output", str(sol)], tmp_path
    )
    assert result.returncode == 0, result.stderr
    out = tmp_path / "scan.json"
    result = run_cli(
        [
            "residual-scan",
            "--input", str(sol),
            "--source", str(admissible_source),
            "--samples", "500",
            "--seed", "7",
            "--output", str(out),
        ],
        tmp_path,
    )
    assert result.returncode == 0, result.stderr
    data = json.loads(out.read_text())
    assert data["max_abs"] < 1e-9
    assert data["count"] == 500


@pytest.mark.parametrize(
    "field, value",
    [("ell", 4.5), ("n", "8.0"), ("vanishing_order", None), ("verified", "false")],
    ids=["float-ell", "decimal-n", "null-order", "string-verified"],
)
def test_residual_scan_rejects_malformed_solution(
    tmp_path, admissible_source, field, value
):
    source = Polynomial.from_json(json.loads(admissible_source.read_text()))
    data = solve_gamma(source).to_json()
    data[field] = value
    sol = tmp_path / "solution.json"
    sol.write_text(json.dumps(data))
    result = run_cli(
        [
            "residual-scan",
            "--input", str(sol),
            "--source", str(admissible_source),
            "--samples", "10",
            "--output", str(tmp_path / "scan.json"),
        ],
        tmp_path,
    )
    assert_input_error(result)


def test_green_check_report(tmp_path):
    out = tmp_path / "green.json"
    result = run_cli(
        ["green-check", "--n", "4", "--radius", "1.0", "--output", str(out)],
        tmp_path,
    )
    assert result.returncode == 0
    data = json.loads(out.read_text())
    assert data["boundary_max_abs"] < 1e-8
    assert data["poisson_normalization"] == pytest.approx(1.0, abs=1e-4)
    assert {b["delta"] for b in data["bounds"]} == {0.1, 0.3}


@pytest.mark.parametrize(
    "flags",
    [
        ["--radius", "nan"], ["--radius", "inf"], ["--radius", "0"],
        ["--delta", "0"], ["--delta", "nan"], ["--delta", "1"],
        ["--delta", "0.1", "--delta", "1"],
        ["--tol-quad", "nan"], ["--tol-quad", "-1"],
    ],
    ids=[
        "nan-radius", "infinite-radius", "zero-radius", "zero-delta",
        "nan-delta", "unit-delta", "second-delta", "nan-tol", "negative-tol",
    ],
)
def test_green_check_rejects_out_of_range_flags(tmp_path, flags):
    # --radius is range-checked before any work; --delta and --tol-quad are
    # gone (the gaps are profiles.GREEN_GAPS and the tolerance
    # quadrature.TOL_QUAD), so any value of theirs is a usage error
    result = run_cli(
        ["green-check", "--n", "4", *flags, "--output", str(tmp_path / "g.json")],
        tmp_path,
    )
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert not list(tmp_path.iterdir())
    if flags[0] == "--radius":
        assert result.stderr.startswith("input error: --radius must be "), result.stderr
    else:
        assert result.stderr.startswith("usage:"), result.stderr
        last = result.stderr.splitlines()[-1]
        assert last.startswith("input error:"), result.stderr
        assert f"unrecognized arguments: {flags[0]} " in last, result.stderr


@pytest.mark.parametrize("end", [0, 1], ids=["smallest", "largest"])
def test_green_check_radius_range_boundaries(tmp_path, capsys, monkeypatch, end):
    # both ends of profiles.GREEN_RADII run clean (an overflow warning would
    # fail here) with every verdict true; one float step outside each is
    # refused before any work
    monkeypatch.chdir(tmp_path)
    radius = profiles.GREEN_RADII[end]
    argv = ["green-check", "--n", "3", "--output", "g.json", "--radius"]
    assert cli.main([*argv, repr(radius)]) == 0
    data = json.loads((tmp_path / "g.json").read_text())
    assert data["poisson_normalization_ok"]
    assert all(b["green_ok"] and b["poisson_ok"] for b in data["bounds"])
    (tmp_path / "g.json").unlink()
    outside = math.nextafter(radius, math.inf if end else 0.0)
    with monkeypatch.context() as patch:
        patch.setattr(cli.profiles_mod, "GreensBall", None)
        assert cli.main([*argv, repr(outside)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error: --radius must be in [1e-10, 1e+10]"), err
    assert not list(tmp_path.iterdir())


def profile_spec_json():
    from test_profiles import example_profile_spec

    spec = example_profile_spec()
    return {
        "n": spec.n,
        "ell": spec.ell,
        "lam": spec.lam,
        "xi": list(spec.xi),
        "gamma": spec.gamma.to_json(),
        "harmonic_points": [list(p) for p in spec.harmonic_points],
        "harmonic_weights": list(spec.harmonic_weights),
        "joint_radius_c": spec.joint_radius_c,
    }


def test_profile_csv_schema(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(profile_spec_json()))
    out = tmp_path / "profile.csv"
    result = run_cli(
        ["profile", "--input", str(path), "--samples", "20", "--output", str(out)],
        tmp_path,
    )
    assert result.returncode == 0, result.stderr
    lines = out.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[-4:] == ["bubble", "correction", "harmonic_group", "total"]
    assert header[:6] == [f"y{i}" for i in range(1, 7)]
    assert len(lines) == 21
    row = [float(x) for x in lines[1].split(",")]
    assert row[-1] == pytest.approx(sum(row[-4:-1]), rel=1e-12)


def test_profile_csv_is_streamed_byte_for_byte(tmp_path, capsys):
    # two whole blocks of rows and a partial one
    from bubble_correction import profiles

    data = profile_spec_json()
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "profile.csv"
    samples, seed, scale = 2 * profiles._BLOCK_ROWS + 345, 7, 0.5
    assert samples % profiles._BLOCK_ROWS and samples > 2 * profiles._BLOCK_ROWS
    code = cli.main(["profile", "--input", str(path), "--samples", str(samples),
                     "--seed", str(seed), "--output", str(out)])
    assert code == 0, capsys.readouterr().err
    spec = profiles.RefinedProfileSpec.from_json(data)
    rng = np.random.default_rng(seed)
    points = np.asarray(spec.xi, float)[None, :] + scale * rng.standard_normal(
        (samples, spec.n))
    columns = profiles.RefinedProfile(spec).components(points)
    header = [f"y{i + 1}" for i in range(spec.n)] + [
        "bubble", "correction", "harmonic_group", "total"]
    lines = [",".join(header)] + [
        ",".join(repr(float(x)) for x in row)
        for row in np.column_stack([points, columns])
    ]
    assert out.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_profile_failing_mid_stream_leaves_no_file(tmp_path, monkeypatch):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(profile_spec_json()))
    chunks = cli._csv_chunks

    def failing(header, rows):
        for i, chunk in enumerate(chunks(header, rows)):
            if i == 2:
                raise RuntimeError("stream broken")
            yield chunk

    monkeypatch.setattr(profiles, "_BLOCK_ROWS", 10)
    monkeypatch.setattr(cli, "_csv_chunks", failing)
    with pytest.raises(RuntimeError, match="stream broken"):
        cli.main(["profile", "--input", str(path), "--samples", "50",
                  "--output", str(tmp_path / "profile.csv")])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json"]


@pytest.mark.parametrize(
    "changes",
    [
        {"ell": 4.9}, {"n": 6.0}, {"xi": None}, {"lam": True},
        {"lam": float("nan")}, {"lam": float("inf")}, {"lam": "inf"},
        {"xi": [0.0] * 5 + [float("nan")]}, {"joint_radius_c": 10**400},
        {"harmonic_weights": [1.0]},
        {"harmonic_points": [[3.0, 0, 0, 0, 0, 0]], "harmonic_weights": []},
        {"harmonic_points": [[3.0, 0, 0, 0, 0, 0], [0, -4.0, 0, 0, 0]]},
        {"gamma": Polynomial.variable(5, 0, 2).to_json()},
    ],
    ids=[
        "float-ell", "float-n", "null-xi", "bool-lam", "nan-lam", "infinite-lam",
        "string-lam", "nan-in-xi", "huge-int-radius", "two-points-one-weight",
        "one-point-no-weight", "short-point", "gamma-dimension",
    ],
)
def test_profile_rejects_malformed_spec(tmp_path, changes):
    spec = profile_spec_json()
    spec.update(changes)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "profile.csv"
    result = run_cli(
        ["profile", "--input", str(path), "--samples", "5", "--output", str(out)],
        tmp_path,
    )
    assert_input_error(result)
    assert not out.exists()


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"ell": 1}, "profile degree must satisfy 2 <= ell <= n - 2"),
        ({"ell": 5}, "profile degree must satisfy 2 <= ell <= n - 2"),
        ({"xi": [0.0] * 5}, "drift vector length must equal the dimension"),
        ({"harmonic_points": [[1.5, 0, 0, 0, 0, 0], [0, -4.0, 0, 0, 0, 0]]},
         "harmonic sources must stay outside twice the joint region"),
    ],
    ids=["ell-below-2", "ell-above-n-2", "short-xi", "source-inside-2c"],
)
def test_profile_refuses_a_spec_outside_its_hypotheses(
    tmp_path, capsys, changes, message
):
    spec = profile_spec_json()
    spec.update(changes)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "profile.csv"
    argv = ["profile", "--input", str(path), "--samples", "5", "--output", str(out)]
    assert_refused(capsys, argv, out, 1, message)


@pytest.mark.parametrize(
    "command, source, code, message",
    [
        ("solve", Polynomial.zero(8), 2,
         "source must be a nonzero homogeneous polynomial"),
        ("solve", Polynomial.variable(8, 0, 4) + Polynomial.variable(8, 1, 2), 2,
         "source must be a nonzero homogeneous polynomial"),
        ("integrate", Polynomial.variable(8, 0, 4) + Polynomial.variable(8, 1, 2), 1,
         "moment_integral expects a homogeneous polynomial"),
    ],
    ids=["solve-zero", "solve-non-homogeneous", "integrate-non-homogeneous"],
)
def test_a_source_that_is_not_one_homogeneous_degree(
    tmp_path, capsys, command, source, code, message
):
    path = tmp_path / "source.json"
    write_poly(path, source)
    out = tmp_path / "out.json"
    argv = [command, "--input", str(path), "--output", str(out)]
    assert_refused(capsys, argv, out, code, message)


def test_repeated_runs_are_byte_identical(tmp_path, admissible_source):
    paths = []
    for tag in ("a", "b"):
        sol = tmp_path / f"solution-{tag}.json"
        scan = tmp_path / f"scan-{tag}.json"
        green = tmp_path / f"green-{tag}.json"
        runs = [
            ["solve", "--input", str(admissible_source), "--output", str(sol)],
            [
                "residual-scan",
                "--input", str(sol),
                "--source", str(admissible_source),
                "--seed", "3",
                "--output", str(scan),
            ],
            ["green-check", "--n", "4", "--seed", "5", "--output", str(green)],
        ]
        for args in runs:
            result = run_cli(args, tmp_path)
            assert result.returncode == 0, result.stderr
        paths.append((sol, scan, green))
    for first, second in zip(*paths):
        assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize(
    "args",
    [
        ["integrate", "--input", "folder", "--output", "o.json"],
        ["table", "--n", "5", "--ell", "4", "--output", "folder"],
    ],
    ids=["directory-input", "directory-output"],
)
def test_directory_paths_exit_one(tmp_path, args):
    folder = tmp_path / "folder"
    folder.mkdir()
    result = run_cli(args, tmp_path)
    assert_input_error(result)
    assert not list(tmp_path.rglob(".tmp-*.part"))
    assert [p.name for p in tmp_path.iterdir()] == ["folder"]
    assert not list(folder.iterdir())


@pytest.mark.parametrize(
    "args",
    [
        ["table", "--n", "x", "--ell", "2", "--output", "t.json"],
        ["solve", "--output", "o.json"],
        ["balance", "--input", "c.json", "--output", "o.json", "--tol-exact", "0"],
        ["balance", "--input", "c.json", "--output", "o.json", "--tol-float", "1e-10"],
        ["green-check", "--n", "4", "--output", "g.json", "--delta", "0.1"],
        ["green-check", "--n", "4", "--output", "g.json", "--tol-quad", "1e-4"],
        ["profile", "--input", "s.json", "--output", "p.csv", "--scale", "0.5"],
    ],
    ids=["non-integer-n", "missing-input", "removed-tol-exact", "removed-tol-float",
         "removed-delta", "removed-tol-quad", "removed-scale"],
)
def test_usage_errors_exit_one(tmp_path, args):
    result = run_cli(args, tmp_path)
    assert result.returncode == 1
    assert result.stderr.startswith("usage:"), result.stderr
    assert result.stderr.splitlines()[-1].startswith("input error:")
    assert "Traceback" not in result.stderr
    assert not list(tmp_path.iterdir())


def test_help_exits_zero(tmp_path):
    result = run_cli(["table", "--help"], tmp_path)
    assert result.returncode == 0, result.stderr
    assert "--ell" in result.stdout


def test_obstructions_share_one_prefix(tmp_path):
    path = tmp_path / "p.json"
    write_poly(path, Polynomial.variable(4, 0, 4))
    runs = [
        ["integrate", "--input", str(path), "--output", str(tmp_path / "r.json")],
        ["table", "--n", "6", "--ell", "8", "--output", str(tmp_path / "t.json")],
        ["solve", "--input", str(path), "--output", str(tmp_path / "s.json")],
    ]
    for args in runs:
        result = run_cli(args, tmp_path)
        assert result.returncode == 2
        assert result.stderr.startswith("obstruction:"), result.stderr


def test_green_check_delta_band():
    # green-check's fixed gaps lie in the band that GreensBall.check_bounds
    # accepts, (0, 0.95]: it draws source radii from [0.05, 1 - delta]
    top = profiles.GreensBall.MAX_DELTA
    assert all(0 < delta <= top for delta in profiles.GREEN_GAPS)
    ball = profiles.GreensBall(4, 1.0)
    assert ball.check_bounds(0.95)["delta"] == 0.95
    with pytest.raises(ValueError, match=r"\(0, 0\.95\]"):
        ball.check_bounds(0.96)


def test_green_check_largest_dimension_passes(tmp_path):
    out = tmp_path / "g.json"
    result = run_cli(["green-check", "--n", "11", "--output", str(out)], tmp_path)
    assert result.returncode == 0, result.stderr
    data = json.loads(out.read_text())
    assert data["poisson_normalization_ok"] is True
    assert all(b["green_ok"] and b["poisson_ok"] for b in data["bounds"])


@pytest.mark.parametrize("n", ["12", "250"])
def test_green_check_refuses_large_dimension(tmp_path, n):
    result = run_cli(
        ["green-check", "--n", n, "--output", str(tmp_path / "g.json")], tmp_path
    )
    assert_input_error(result)
    assert f"--n must be an int in 3..11, got {n}" in result.stderr
    assert not list(tmp_path.iterdir())


@pytest.fixture
def sampling_commands(tmp_path, admissible_source):
    """The sampling commands, each with its input files written."""
    source = Polynomial.from_json(json.loads(admissible_source.read_text()))
    sol = tmp_path / "solution.json"
    sol.write_text(json.dumps(solve_gamma(source).to_json()))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(profile_spec_json()))
    return {
        "residual-scan": [
            "residual-scan", "--input", str(sol), "--source", str(admissible_source),
        ],
        "profile": ["profile", "--input", str(spec)],
        "green-check": ["green-check", "--n", "3"],
    }


# (command, flag, rejected values with the first rejected one first, the
# first accepted value)
SAMPLING_RULES = [
    ("residual-scan", "--samples", ["0", "-1"], "1"),
    ("residual-scan", "--seed", ["-1"], "0"),
    ("profile", "--samples", ["0", "-1"], "1"),
    ("profile", "--seed", ["-1"], "0"),
    ("green-check", "--seed", ["-1"], "0"),
]


@pytest.mark.parametrize(
    "command, flag, rejected, accepted",
    SAMPLING_RULES,
    ids=[f"{command}{flag}" for command, flag, _, _ in SAMPLING_RULES],
)
def test_sampling_flags_are_checked_before_any_work(
    tmp_path, capsys, sampling_commands, command, flag, rejected, accepted
):
    out = tmp_path / "out"
    for value in rejected:
        assert cli.main([*sampling_commands[command], flag, value,
                         "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {flag} must be "), err
        assert not out.exists()
    code = cli.main([*sampling_commands[command], flag, accepted, "--output", str(out)])
    assert code == 0, capsys.readouterr().err
    assert out.exists()


def refuse_work(monkeypatch):
    """Make the sampling commands' first piece of work fail loudly, so that a
    refusal is seen to come before it."""

    def work(*args, **kwargs):
        raise AssertionError("work started before the caps were checked")

    # the scan's first piece of work is its exact gate, the sum of L's parts
    monkeypatch.setattr(profiles, "_L_sum", work)
    monkeypatch.setattr(cli.profiles_mod, "RefinedProfile", work)


def run_sampling(capsys, argv, out):
    code = cli.main([*argv, "--output", str(out)])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("command", ["residual-scan", "profile"])
def test_samples_cap_refuses_before_any_work(
    tmp_path, capsys, monkeypatch, sampling_commands, command
):
    out = tmp_path / "out"
    argv = sampling_commands[command]
    with monkeypatch.context() as patch:
        refuse_work(patch)
        code, err = run_sampling(
            capsys, [*argv, "--samples", str(profiles.MAX_SAMPLES + 1)], out
        )
    assert code == 1
    assert err.startswith(
        f"input error: --samples must be an int in 1..{profiles.MAX_SAMPLES}"
    ), err
    assert not out.exists()
    # at the cap, with the cap lowered so the run stays small
    monkeypatch.setattr(profiles, "MAX_SAMPLES", 7)
    code, err = run_sampling(capsys, [*argv, "--samples", "8"], out)
    assert code == 1 and "--samples must be an int in 1..7, got 8" in err
    assert not out.exists()
    code, err = run_sampling(capsys, [*argv, "--samples", "7"], out)
    assert code == 0, err
    assert out.exists()


@pytest.mark.parametrize("command", ["residual-scan", "profile"])
def test_samples_times_walk_cap_refuses_a_huge_exponent(
    tmp_path, capsys, monkeypatch, sampling_commands, command
):
    # one term, but its power table walks 10^9 multiplies a point
    if command == "residual-scan":
        data = json.loads((tmp_path / "solution.json").read_text())
        argv = ["residual-scan", "--input", str(tmp_path / "big-solution.json"),
                "--source", sampling_commands[command][4]]
    else:
        data = profile_spec_json()
        argv = ["profile", "--input", str(tmp_path / "big-spec.json")]
    n = data["n"]
    data["gamma"] = Polynomial(n, {(10**9,) + (0,) * (n - 1): 1}).to_json()
    (tmp_path / argv[2]).write_text(json.dumps(data))
    out = tmp_path / "out"
    with monkeypatch.context() as patch:
        refuse_work(patch)
        code, err = run_sampling(capsys, [*argv, "--samples", "1"], out)
    assert code == 1
    assert err == (
        "input error: --samples must be <= 0 for top exponents summing to "
        f"{10**9} (samples x walk <= {profiles.MAX_SAMPLE_WALK}), got 1\n"
    )
    assert not out.exists()


def many_terms(n, count):
    """A polynomial of ``count`` distinct monomials, for inputs refused
    before anything checks what they solve."""
    return Polynomial(n, {(k,) + (1,) * (n - 1): k + 1 for k in range(count)})


@pytest.mark.parametrize("command", ["residual-scan", "profile"])
def test_samples_times_terms_cap_refuses_before_any_work(
    tmp_path, capsys, monkeypatch, sampling_commands, command
):
    # 100 terms make the product cap bind below MAX_SAMPLES
    terms = 100
    if command == "residual-scan":
        solution = json.loads((tmp_path / "solution.json").read_text())
        solution["gamma"] = many_terms(solution["n"], terms).to_json()
        big = tmp_path / "big-solution.json"
        argv = ["residual-scan", "--input", str(big), "--source",
                sampling_commands[command][4]]
    else:
        solution = profile_spec_json()
        solution["gamma"] = many_terms(solution["n"], terms).to_json()
        big = tmp_path / "big-spec.json"
        argv = ["profile", "--input", str(big)]
    big.write_text(json.dumps(solution))
    over = profiles.MAX_SAMPLE_TERMS // terms + 1
    assert over <= profiles.MAX_SAMPLES
    out = tmp_path / "out"
    with monkeypatch.context() as patch:
        refuse_work(patch)
        code, err = run_sampling(capsys, [*argv, "--samples", str(over)], out)
    assert code == 1
    assert err.startswith(
        f"input error: --samples must be <= {over - 1} for {terms} terms"
    ), err
    assert not out.exists()
    # at the cap, lowered so that the run on the real input stays small
    argv = sampling_commands[command]
    if command == "residual-scan":
        real = json.loads((tmp_path / "solution.json").read_text())
    else:
        real = profile_spec_json()
    terms = len(real["gamma"]["terms"])
    monkeypatch.setattr(profiles, "MAX_SAMPLE_TERMS", 5 * terms)
    code, err = run_sampling(capsys, [*argv, "--samples", "6"], out)
    assert code == 1 and f"--samples must be <= 5 for {terms} terms" in err
    assert not out.exists()
    code, err = run_sampling(capsys, [*argv, "--samples", "5"], out)
    assert code == 0, err
    assert out.exists()


def test_residual_scan_cap_counts_the_source_and_both_parts_of_L(
    tmp_path, capsys, monkeypatch
):
    # the 1-term solution y1^2 ... y30^2 in n = 30 passes the exact gate with
    # a 901-term source: the scan evaluates the source and L's two parts (30
    # and 1 terms), so the cap counts 901 terms, not the solution's 1
    n = 30
    gamma = Polynomial(n, {(2,) * n: 1})
    source = reduction.apply_L(gamma)
    assert len(source.nums) == 901
    solution = reduction.CorrectionSolution(gamma, None, n + 1, True, n, 2 * n)
    (tmp_path / "sol.json").write_text(json.dumps(solution.to_json()))
    write_poly(tmp_path / "src.json", source)
    monkeypatch.chdir(tmp_path)
    argv = ["residual-scan", "--input", "sol.json", "--source", "src.json"]
    cap = profiles.MAX_SAMPLE_TERMS // 901
    out = tmp_path / "scan.json"
    with monkeypatch.context() as patch:
        refuse_work(patch)
        code, err = run_sampling(capsys, [*argv, "--samples", str(cap + 1)], out)
        assert code == 1
        assert err.startswith(
            f"input error: --samples must be <= {cap} for 901 terms"
        ), err
        assert not out.exists()
        # at the cap the refusal passes and the scan would start
        with pytest.raises(AssertionError, match="work started"):
            run_sampling(capsys, [*argv, "--samples", str(cap)], out)
    # and runs, with the cap lowered so that the run stays small
    monkeypatch.setattr(profiles, "MAX_SAMPLE_TERMS", 3 * 901)
    code, err = run_sampling(capsys, [*argv, "--samples", "4"], out)
    assert code == 1 and "--samples must be <= 3 for 901 terms" in err
    assert not out.exists()
    code, err = run_sampling(capsys, [*argv, "--samples", "3"], out)
    assert code == 0, err
    assert json.loads(out.read_text())["count"] == 3


@st.composite
def solutions(draw):
    """A CorrectionSolution record of random polynomials in one dimension,
    with or without a completion (nothing here checks what it solves)."""
    n = draw(st.integers(1, 4))
    completion = draw(st.none() | wire_polynomials(n))
    return reduction.CorrectionSolution(
        draw(wire_polynomials(n)), completion, draw(st.integers(1, 60)),
        draw(st.booleans()), n, draw(st.integers(2, 100)),
    )


def test_a_payload_holding_nan_is_refused_and_leaves_no_file(tmp_path):
    # the chunks are written as they come, so the refusal comes mid-stream
    path = tmp_path / "out.json"
    payload = {"gamma": Polynomial.r_squared(3), "max_abs": float("nan")}
    with pytest.raises(ValueError, match="Out of range float values"):
        cli._dump_json(str(path), payload)
    assert list(tmp_path.iterdir()) == []


@given(solutions())
@settings(max_examples=100, deadline=None)
def test_solve_streams_the_text_of_json_dumps_of_the_solution(solution):
    # what ``solve`` streams from the record is json.dumps of ``to_json``
    text = json.dumps(solution.to_json(), sort_keys=True, separators=(",", ":")) + "\n"
    assert "".join(cli._json_chunks(solution._asdict())) == text


@given(wire_polynomials(), st.text(max_size=40))
@settings(max_examples=100, deadline=None)
def test_solve_streams_the_text_of_json_dumps_of_the_residue_report(residue, message):
    # the message keeps json.dumps's escaping (quotes, control and non-ASCII
    # characters), and the two polynomials their ``to_json`` layout
    top = Polynomial.constant(residue.dimension, -3)
    report = {"error": "residue_obstruction", "message": message}
    text = json.dumps(
        {**report, "residue": residue.to_json(), "top_laplacian": top.to_json()},
        sort_keys=True, separators=(",", ":"),
    )
    streamed = cli._json_chunks({**report, "residue": residue, "top_laplacian": top})
    assert "".join(streamed) == text + "\n"


def write_squares_solution(path, n):
    """The one-term solution y1^2 ... yn^2, whose L holds n^2 + 1 terms."""
    gamma = Polynomial(n, {(2,) * n: 1})
    solution = reduction.CorrectionSolution(gamma, None, n + 1, True, n, 2 * n)
    path.write_text(json.dumps(solution.to_json()))
    return gamma


def test_residual_scan_caps_the_exact_gate_before_it_runs(
    tmp_path, capsys, monkeypatch
):
    # L's parts of y1^2 ... yn^2 hold n terms and 1, so the gate's L(gamma) is
    # counted as n(n + 1) + 1 terms of n exponents: n^3 + n^2 + n exponents,
    # 3,969,434 at n = 158 and 4,045,119 at n = 159 against the 4e6 cap.
    # Neither gate runs: the scan, gate included, fails as soon as it starts.
    assert profiles.MAX_GATE_EXPONENTS == 4_000_000
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "scan.json"
    for n, refused in ((159, True), (158, False)):
        write_squares_solution(tmp_path / "sol.json", n)
        write_poly(tmp_path / "src.json", Polynomial.variable(n, 0, 2))
        argv = ["residual-scan", "--input", "sol.json", "--source", "src.json",
                "--samples", "10"]
        with monkeypatch.context() as patch:
            refuse_work(patch)
            if refused:
                code, err = run_sampling(capsys, argv, out)
                assert code == 1
                assert err == (
                    "input error: the exact check L(gamma) == source can reach "
                    f"25441 terms of 159 exponents each (4045119 exponents, at "
                    f"most {profiles.MAX_GATE_EXPONENTS})\n"
                ), err
                assert not out.exists()
            else:
                with pytest.raises(AssertionError, match="work started"):
                    run_sampling(capsys, argv, out)
    # and at a cap lowered to n = 30's count, 27,930, the gate and the scan run
    n = 30
    source = reduction.apply_L(write_squares_solution(tmp_path / "sol.json", n))
    write_poly(tmp_path / "src.json", source)
    argv = ["residual-scan", "--input", "sol.json", "--source", "src.json",
            "--samples", "3"]
    monkeypatch.setattr(profiles, "MAX_GATE_EXPONENTS", 27_929)
    code, err = run_sampling(capsys, argv, out)
    assert code == 1 and "(27930 exponents, at most 27929)" in err, err
    assert not out.exists()
    monkeypatch.setattr(profiles, "MAX_GATE_EXPONENTS", 27_930)
    code, err = run_sampling(capsys, argv, out)
    assert code == 0, err
    assert json.loads(out.read_text())["count"] == 3


def refuse_draw(*args, **kwargs):
    raise AssertionError("a point was drawn before the caps were checked")


@pytest.mark.parametrize("command", ["residual-scan", "profile"])
def test_samples_times_dimension_cap_refuses_before_any_point_is_drawn(
    tmp_path, capsys, monkeypatch, command
):
    # zero polynomials leave one term to count, so the dimension binds: the
    # points of m samples in n variables hold m * n floats
    monkeypatch.chdir(tmp_path)
    if command == "residual-scan":
        n = 12
        zero = Polynomial.zero(n)
        solution = reduction.CorrectionSolution(zero, None, 1, True, n, 2)
        (tmp_path / "sol.json").write_text(json.dumps(solution.to_json()))
        write_poly(tmp_path / "src.json", zero)
        argv = ["residual-scan", "--input", "sol.json", "--source", "src.json"]
    else:
        spec = profile_spec_json()
        n = spec["n"]
        spec["gamma"] = Polynomial.zero(n).to_json()
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        argv = ["profile", "--input", "spec.json"]
    out = tmp_path / "out"
    monkeypatch.setattr(profiles, "MAX_SAMPLE_TERMS", 5 * n)
    with monkeypatch.context() as patch:
        refuse_work(patch)
        patch.setattr(np.random, "default_rng", refuse_draw)
        code, err = run_sampling(capsys, [*argv, "--samples", "6"], out)
    assert code == 1
    assert err == (
        f"input error: --samples must be <= 5 for dimension {n} (samples x "
        f"dimension <= {5 * n}), got 6\n"
    ), err
    assert not out.exists()
    code, err = run_sampling(capsys, [*argv, "--samples", "5"], out)
    assert code == 0, err
    assert out.exists()


def test_residual_scan_refuses_a_wide_empty_solution_before_any_point_is_drawn(
    tmp_path, capsys, monkeypatch
):
    # 133 bytes of solution in n = 40,000: 1,000 samples would draw 4e7
    # floats; refused at the default cap, with the draw made to fail
    n = 40_000
    zero = Polynomial.zero(n)
    solution = reduction.CorrectionSolution(zero, None, 1, True, n, 2)
    (tmp_path / "sol.json").write_text(json.dumps(solution.to_json()))
    write_poly(tmp_path / "src.json", zero)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(np.random, "default_rng", refuse_draw)
    argv = ["residual-scan", "--input", "sol.json", "--source", "src.json",
            "--samples", "1000"]
    code, err = run_sampling(capsys, argv, tmp_path / "out")
    assert code == 1
    assert err.startswith(
        "input error: --samples must be <= 100 for dimension 40000 (samples x "
        "dimension <= 4000000)"
    ), err


def spy_on_L_parts(monkeypatch):
    """Count the calls of ``reduction._L_parts`` through every package name
    bound to it; returns the list of the counted polynomials' sizes."""
    calls = []
    original = reduction._L_parts

    def spy(poly):
        calls.append(len(poly.nums))
        return original(poly)

    for name, module in list(sys.modules.items()):
        if name == "bubble_correction" or name.startswith("bubble_correction."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, spy)
    return calls


def test_residual_scan_builds_the_parts_of_L_once(
    tmp_path, capsys, monkeypatch, sampling_commands
):
    # the caps, the exact gate and the sampling share one build of L's parts
    calls = spy_on_L_parts(monkeypatch)
    out = tmp_path / "out"
    argv = [*sampling_commands["residual-scan"], "--samples", "10"]
    code, err = run_sampling(capsys, argv, out)
    assert code == 0, err
    gamma = json.loads((tmp_path / "solution.json").read_text())["gamma"]
    assert calls == [len(gamma["terms"])]


EDITED_SOLUTIONS = [
    ({"n": 3, "ell": 77, "vanishing_order": -5}, "gamma has dimension 8, not n = 3"),
    ({"n": 9}, "gamma has dimension 8, not n = 9"),
    ({"radial_completion": Polynomial.r_squared(3).to_json()},
     "radial_completion has dimension 3, not n = 8"),
    ({"ell": 1, "vanishing_order": 1}, "ell must be >= 2, got 1"),
    ({"vanishing_order": 0}, "vanishing_order must lie in 1..3 for ell = 4, got 0"),
    ({"vanishing_order": 4}, "vanishing_order must lie in 1..3 for ell = 4, got 4"),
]


@pytest.mark.parametrize(
    "edit, message", EDITED_SOLUTIONS,
    ids=["n-ell-order", "n", "completion", "ell", "order-0", "order-above"],
)
def test_residual_scan_refuses_a_solution_at_odds_with_itself(
    tmp_path, capsys, sampling_commands, edit, message
):
    sol = tmp_path / "solution.json"
    data = json.loads(sol.read_text())
    sol.write_text(json.dumps({**data, **edit}))
    out = tmp_path / "out"
    code, err = run_sampling(capsys, sampling_commands["residual-scan"], out)
    assert code == 1
    assert err == f"input error: malformed solution JSON: {message}\n", err
    assert not out.exists()


@pytest.mark.parametrize(
    "edit", [{"vanishing_order": 1}, {"vanishing_order": 3},
             {"ell": 2, "vanishing_order": 2}],
)
def test_residual_scan_loads_a_solution_at_its_bounds(
    tmp_path, capsys, sampling_commands, edit
):
    # the scan reads only the polynomials, so these records scan as before
    sol = tmp_path / "solution.json"
    sol.write_text(json.dumps({**json.loads(sol.read_text()), **edit}))
    out = tmp_path / "out"
    code, err = run_sampling(capsys, [*sampling_commands["residual-scan"],
                                      "--samples", "5"], out)
    assert code == 0, err
    assert json.loads(out.read_text())["count"] == 5


def test_residual_scan_and_profile_refuse_a_coefficient_beyond_the_float_range(
    tmp_path, capsys, monkeypatch
):
    # 10^400 (y1^2 - y2^2) is harmonic, so L(c (y1^2 - y2^2)) = -2n c
    # (y1^2 - y2^2) and gamma = -10^400 / 2n (y1^2 - y2^2) solves it exactly;
    # no float holds those coefficients
    monkeypatch.chdir(tmp_path)
    n = 6
    huge = 10**400 * (Polynomial.variable(n, 0, 2) - Polynomial.variable(n, 1, 2))
    gamma = Fraction(-1, 2 * n) * huge
    solution = reduction.CorrectionSolution(gamma, None, 1, True, n, 2)
    (tmp_path / "sol.json").write_text(json.dumps(solution.to_json()))
    write_poly(tmp_path / "src.json", huge)
    spec = profile_spec_json()
    spec["gamma"] = huge.to_json()
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    runs = [
        ["residual-scan", "--input", "sol.json", "--source", "src.json",
         "--samples", "5", "--output", "out"],
        ["profile", "--input", "spec.json", "--samples", "5", "--output", "out"],
    ]
    for argv in runs:
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error:") and "too large for a float" in err, err
        assert not (tmp_path / "out").exists()


def test_profile_refuses_a_scale_beyond_the_float_range(tmp_path):
    # lam^2 overflows: lam = 1e200 is a finite float, its square is not
    spec = profile_spec_json()
    spec["lam"] = 1e200
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "profile.csv"
    result = run_cli(
        ["profile", "--input", str(path), "--samples", "5", "--output", str(out)],
        tmp_path,
    )
    assert_input_error(result)
    assert not out.exists()


def test_profile_refuses_non_finite_values(tmp_path, capsys):
    # a tiny lam puts |Y| = |y - xi| / lam beyond float range at the
    # sampling scale profiles.PROFILE_SCALE: the rows would hold nan
    spec = profile_spec_json()
    spec["lam"] = 1e-200
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "profile.csv"
    with pytest.warns(RuntimeWarning):
        code, err = run_sampling(
            capsys, ["profile", "--input", str(path), "--samples", "5"], out
        )
    assert code == 1
    assert "input error: profile values are not finite for this spec" in err
    assert not out.exists()


def test_profile_refuses_an_empty_source_list(tmp_path, capsys):
    spec = profile_spec_json()
    spec["harmonic_points"] = []
    spec["harmonic_weights"] = []
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "profile.csv"
    code, err = run_sampling(
        capsys, ["profile", "--input", str(path), "--samples", "5"], out
    )
    assert code == 1
    assert err.startswith("input error: harmonic tail needs at least one source"), err
    assert not out.exists()


def test_residual_scan_refuses_a_non_finite_report(tmp_path, capsys, monkeypatch):
    # an exact solution whose float evaluation overflows: y1^400 at the
    # sampled points is beyond float range, and the residual comes out NaN,
    # which JSON cannot carry
    gamma = Polynomial.variable(2, 0, 400)
    solution = reduction.CorrectionSolution(gamma, None, 201, True, 2, 400)
    (tmp_path / "sol.json").write_text(json.dumps(solution.to_json()))
    write_poly(tmp_path / "src.json", reduction.apply_L(gamma))
    monkeypatch.chdir(tmp_path)
    with pytest.warns(RuntimeWarning):
        code = cli.main(["residual-scan", "--input", "sol.json", "--source", "src.json",
                         "--samples", "10", "--output", "scan.json"])
    assert code == 1
    assert capsys.readouterr().err.startswith("input error:")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sol.json", "src.json"]


def test_integrate_in_a_dimension_past_the_gamma_range(tmp_path, capsys, monkeypatch):
    # Gamma(1000) overflows and J(1000, 2) underflows: J comes out 0.0
    write_poly(tmp_path / "p.json", Polynomial.variable(1000, 3, 2))
    monkeypatch.chdir(tmp_path)
    assert cli.main(["integrate", "--input", "p.json", "--output", "o.json"]) == 0
    assert capsys.readouterr().err == ""
    data = json.loads((tmp_path / "o.json").read_text())
    assert math.isfinite(data["J"]) and math.isfinite(data["numeric"])
    assert data["j_multiple"] == {"num": "1", "den": "1"}


@pytest.mark.parametrize("exponent", [400, 308])
def test_integrate_refuses_a_moment_beyond_the_float_range(
    tmp_path, capsys, monkeypatch, exponent
):
    # 10^400 y1^2 in n = 3: the multiple of J is too large for a float; at
    # 10^308 it is a float, but times J (about 2.47) the total is inf
    write_poly(tmp_path / "p.json", Polynomial.variable(3, 0, 2, 10**exponent))
    monkeypatch.chdir(tmp_path)
    assert cli.main(["integrate", "--input", "p.json", "--output", "o.json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "degree 2" in err, err
    assert "beyond the float range" in err, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["p.json"]


def test_integrate_keeps_a_normal_moment_of_a_huge_multiple(
    tmp_path, capsys, monkeypatch
):
    # 10^400 y1^2 in n = 200: the multiple is beyond the float range, but J is
    # about 6.2e-170, so the moment is a normal float, rounded once
    write_poly(tmp_path / "p.json", Polynomial.variable(200, 0, 2, 10**400))
    monkeypatch.chdir(tmp_path)
    assert cli.main(["integrate", "--input", "p.json", "--output", "o.json"]) == 0
    assert capsys.readouterr().err == ""
    data = json.loads((tmp_path / "o.json").read_text())
    assert data["j_multiple"] == {"num": str(10**400), "den": "1"}
    assert data["numeric"] == float(10**400 * Fraction(data["J"]))
    assert data["numeric"] == pytest.approx(6.2010765058271445e230, rel=1e-12)


def test_integrate_keeps_a_large_finite_moment(tmp_path, capsys, monkeypatch):
    write_poly(tmp_path / "p.json", Polynomial.variable(3, 0, 2, 10**307))
    monkeypatch.chdir(tmp_path)
    assert cli.main(["integrate", "--input", "p.json", "--output", "o.json"]) == 0
    assert capsys.readouterr().err == ""
    data = json.loads((tmp_path / "o.json").read_text())
    assert data["j_multiple"] == {"num": str(10**307), "den": "1"}
    assert data["numeric"] == 10**307 * data["J"]
    assert math.isfinite(data["numeric"])


def test_solve_harmonic_sextic_in_dimension_four(tmp_path):
    # degree ell = 6 >= n + 2 in even n: the full table is blocked, but the
    # source is harmonic, so only column 0 is built; L(P) = -2n(ell - 1) P,
    # so gamma = -P/40
    y1, y2 = Polynomial.variable(4, 0), Polynomial.variable(4, 1)
    source = y1**6 - 15 * y1**4 * y2**2 + 15 * y1**2 * y2**4 - y2**6
    write_poly(tmp_path / "p.json", source)
    out = tmp_path / "s.json"
    result = run_cli(["solve", "--input", "p.json", "--output", str(out)], tmp_path)
    assert result.returncode == 0, result.stderr
    solution = reduction.CorrectionSolution.from_json(json.loads(out.read_text()))
    assert solution.gamma == source * Fraction(-1, 40)
    assert solution.vanishing_order == 1


def test_bench_requests_replay_in_process(tmp_path, capsys, monkeypatch):
    # one round of each benchmark workload at seed 1, scan-float's after its
    # three set-up solves (so residual-scan loads solutions through
    # from_json, and profile reads their gamma), each request's exit code
    # and artifact judged by the benchmark's own checks, which share no
    # computation with the package
    inputs, checks = load_bench_module("inputs"), load_bench_module("checks")
    monkeypatch.chdir(tmp_path)

    def replay(request):
        inputs.write_files(request, tmp_path)
        code = cli.main(request["argv"])
        err = capsys.readouterr().err
        assert checks.check(request, code, request["output"]) is None, request["argv"]
        return code, err

    blocked = 0
    requests = inputs.solve_round(random.Random(1), "r0")
    requests += inputs.light_round(random.Random(1), "r0")
    for request in requests:
        code, err = replay(request)
        if request["kind"] == "table" and code == 2:
            n = request["n"]
            assert f"cell (j={n // 2}, k={n // 2})" in err, err
            blocked += 1
    assert blocked == 3

    rng = random.Random(1)
    solutions = {}
    for request, (name, *_) in zip(inputs.scan_setup(rng), inputs.SCAN_SOLUTIONS):
        replay(request)
        solutions[name] = json.loads((tmp_path / request["output"]).read_text())
    kinds = []
    for request in inputs.scan_round(rng, "r0", solutions):
        replay(request)
        kinds.append(request["kind"])
    assert sorted(set(kinds)) == ["green-check", "profile", "residual-scan"]


def test_profile_with_a_tiny_lam_runs_clean(tmp_path, capsys):
    # the splice's quintic is evaluated only inside its radius: at lam =
    # 1e-100 every |Y| is about 1e100, which overflowed r^5 in the quintic
    # the splice then discarded
    spec = profile_spec_json()
    spec["lam"] = 1e-100
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "profile.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, err = run_sampling(
            capsys, ["profile", "--input", str(path), "--samples", "5"], out
        )
    assert code == 0 and err == "", err
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 5
    assert all(math.isfinite(float(x)) for row in rows for x in row)


def test_source_degree_cap_is_an_input_error(tmp_path):
    at_cap = run_cli(
        ["table", "--n", "9", "--ell", str(MAX_ELL), "--output", "t.json"], tmp_path
    )
    assert at_cap.returncode == 0, at_cap.stderr
    (tmp_path / "t.json").unlink()
    path = tmp_path / "p.json"
    write_poly(path, Polynomial.variable(3, 0, MAX_ELL + 1))
    runs = [
        ["table", "--n", "9", "--ell", str(MAX_ELL + 1), "--output", "t.json"],
        ["solve", "--input", str(path), "--output", "s.json"],
        ["solve", "--allow-radial", "--input", str(path), "--output", "s.json"],
    ]
    for args in runs:
        result = run_cli(args, tmp_path)
        assert_input_error(result)
        assert f"source degree must be <= {MAX_ELL}" in result.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["p.json"]


def test_solution_size_cap_refuses_before_any_work(tmp_path, capsys, monkeypatch):
    # n = 11, ell = 8 is the first (n, 8) above the cap: 52,834 monomials
    path = tmp_path / "p.json"
    write_poly(path, Polynomial.variable(11, 0, 8))
    out = tmp_path / "s.json"
    with monkeypatch.context() as patch:

        def work(*args, **kwargs):
            raise AssertionError("work started before the cap was checked")

        patch.setattr(reduction, "_laplacian_chain", work)
        for flags in ([], ["--allow-radial"]):
            argv = ["solve", *flags, "--input", str(path), "--output", str(out)]
            code = cli.main(argv)
            err = capsys.readouterr().err
            assert code == 1
            assert err.startswith(
                "input error: a solution in dimension 11 of degree 8 can reach "
                f"52834 monomials (at most {MAX_SOLUTION_TERMS})"
            ), err
            assert not out.exists()
    # at the cap, lowered to the count of a small source: 1 + 36 + 330 = 367
    # monomials of degree 0, 2 and 4 in 8 variables, plus 8 + 36 + 120 + 330
    # for a completion of degree <= 4 in |y|^2
    path = tmp_path / "q.json"
    write_poly(path, Fraction(-1) * alternating_quartic(8))
    for flags, size in (([], 367), (["--allow-radial"], 367 + 494)):
        argv = ["solve", *flags, "--input", str(path), "--output", str(out)]
        monkeypatch.setattr(reduction, "MAX_SOLUTION_TERMS", size - 1)
        assert cli.main(argv) == 1
        assert f"can reach {size} monomials" in capsys.readouterr().err
        assert not out.exists()
        monkeypatch.setattr(reduction, "MAX_SOLUTION_TERMS", size)
        assert cli.main(argv) == 0, capsys.readouterr().err
        out.unlink()


def test_solution_size_cap_stops_at_the_first_sum_above_it(
    tmp_path, capsys, monkeypatch
):
    # y1^2 in n = 20,000 with a completion: n/2 binomials of up to 4,000
    # digits each took about 50 s to sum; the sum now stops at the term of
    # degree 2, which alone crosses the cap
    write_poly(tmp_path / "p.json", Polynomial.variable(20_000, 0, 2))
    monkeypatch.chdir(tmp_path)
    calls = []

    def counting(n, k):
        calls.append((n, k))
        return math.comb(n, k)

    monkeypatch.setattr(reduction, "comb", counting)
    argv = ["solve", "--allow-radial", "--input", "p.json", "--output", "s.json"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err == (
        "input error: a solution in dimension 20000 of degree 2 can reach "
        f"200010001 monomials (at most {MAX_SOLUTION_TERMS})\n"
    )
    assert len(calls) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["p.json"]


@pytest.mark.parametrize("command", ["solve", "integrate"])
@pytest.mark.parametrize(
    "terms",
    [
        [([2, 0, 0], "1"), ([2, 0, 0], "3")],
        [([2, 0, 0], "1"), (["2", 0, "0"], "-1")],
    ],
    ids=["same-list", "string-exponent"],
)
def test_a_repeated_multi_index_is_malformed_input(
    tmp_path, capsys, monkeypatch, command, terms
):
    # a dict of the terms kept only the last one: integrate read the first
    # file as 3 y1^2 and exited 0
    data = {
        "dimension": 3,
        "terms": [{"alpha": a, "num": num, "den": "1"} for a, num in terms],
    }
    (tmp_path / "p.json").write_text(json.dumps(data))
    monkeypatch.chdir(tmp_path)
    assert cli.main([command, "--input", "p.json", "--output", "o.json"]) == 1
    err = capsys.readouterr().err
    assert err == (
        "input error: malformed polynomial JSON: repeated multi-index [2, 0, 0]\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["p.json"]


def _with_term(**changes):
    return {"dimension": 3, "terms": [{**CLEAN_TERM, **changes}]}


def _with_entry(field, index, value):
    config = balance_config_json()
    config[field][index] = value
    return config


@pytest.mark.parametrize(
    "command, payload",
    [
        ("integrate", lambda: _with_term(alpha="200")),
        ("integrate", lambda: _with_term(alpha={"2": 0, "0": 0, "00": 0})),
        ("solve", lambda: {"dimension": 3, "terms": ""}),
        ("solve", lambda: {"dimension": 3, "terms": {}}),
        ("balance", lambda: _with_entry("points", 1, "30000000")),
        ("balance", lambda: _with_entry("flex_vectors", 0, "00000000")),
        ("balance", lambda: {**balance_config_json(),
                             "k_values": {"48": 0, "2": 0, "02": 0}}),
        ("balance", lambda: {**balance_config_json(), "scale_ratios": "111"}),
        ("profile", lambda: {**profile_spec_json(), "xi": "00000"}),
        ("profile", lambda: {**profile_spec_json(), "harmonic_points": {"a": 1}}),
        ("profile", lambda: {**profile_spec_json(), "harmonic_weights": "1"}),
    ],
    ids=["string-alpha", "object-alpha", "string-terms", "object-terms",
         "string-point", "string-vector", "object-k-values", "string-ratios",
         "string-xi", "object-points", "string-weights"],
)
def test_a_string_or_object_where_a_list_belongs_is_malformed_input(
    tmp_path, capsys, monkeypatch, command, payload
):
    # each read its characters or keys as the list's entries: integrate took
    # the first two as y1^2 and exited 0, solve took "" and {} as the zero
    # polynomial and exited 2, balance took each configuration for the
    # mirrored pair it spells and exited 0, and profile refused "00000" as
    # "not a JSON number: '0'" and read {"a": 1} as the one point "a"
    (tmp_path / "in.json").write_text(json.dumps(payload()))
    monkeypatch.chdir(tmp_path)
    assert cli.main([command, "--input", "in.json", "--output", "o.json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error: malformed ") and "not a JSON list" in err, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.json"]


@pytest.mark.parametrize(
    "command, what",
    [("integrate", "polynomial JSON"), ("balance", "balance configuration"),
     ("profile", "profile spec")],
)
def test_an_input_file_whose_top_level_is_not_a_json_object_is_malformed(
    tmp_path, capsys, command, what
):
    # each was read as "list indices must be integers or slices, not str"
    path = tmp_path / "in.json"
    path.write_text("[1]")
    out = tmp_path / "out"
    argv = [command, "--input", str(path), "--output", str(out)]
    assert_refused(capsys, argv, out, 1, f"malformed {what}: not a JSON object: [1]")


# A child that runs one command in-process, then fails unless numpy's core
# is still unloaded; it exits with the command's own code.
EXACT_TIER_CHILD = """
import sys
from bubble_correction import cli
code = cli.main(sys.argv[1:])
assert "numpy._core" not in sys.modules, "numpy was executed"
sys.exit(code)
"""


@pytest.mark.parametrize(
    "command, source, expected",
    [
        (["solve"], lambda: (-1 * alternating_quartic(8)).to_json(), 0),
        (["solve", "--allow-radial"], lambda: (Polynomial.r_squared(8) ** 2).to_json(), 0),
        (["solve"], lambda: (Polynomial.r_squared(7) ** 2).to_json(), 2),
        (["table", "--n", "5", "--ell", "4"], None, 0),
        (["table", "--n", "0", "--ell", "2"], None, 1),
        (["integrate"], lambda: (-1 * alternating_quartic(8)).to_json(), 0),
        (["balance"], balance_config_json, 0),
    ],
    ids=["solve", "allow-radial", "solve-obstructed", "table", "table-malformed",
         "integrate", "balance"],
)
def test_exact_tier_never_executes_numpy(tmp_path, command, source, expected):
    args = list(command)
    if source is not None:
        (tmp_path / "in.json").write_text(json.dumps(source()))
        args += ["--input", "in.json"]
    result = run_cli(args + ["--output", "out.json"], tmp_path,
                     launcher=("-c", EXACT_TIER_CHILD))
    assert result.returncode == expected, result.stderr
    assert "Traceback" not in result.stderr


# Put on a child's path as ``sitecustomize``: at exit, the child prints the
# package modules that have executed.  ``type`` reads no attribute, so it
# executes nothing: a module not executed yet is still a lazy subclass.
EXECUTED_MODULES_PROBE = """
import atexit, sys, types

@atexit.register
def report():
    print(" ".join(sorted(
        name.rpartition(".")[2] for name, module in list(sys.modules.items())
        if name.startswith("bubble_correction.") and type(module) is types.ModuleType
    )))
"""

# executed by every launch: the numpy binding, and what ``cli`` imports from
BASE_MODULES = ["_numpy", "errors", "polynomials"]


def run_probed(args, tmp_path, monkeypatch, launcher=("-m", "bubble_correction.cli")):
    probe = tmp_path / "probe"
    probe.mkdir()
    (probe / "sitecustomize.py").write_text(EXECUTED_MODULES_PROBE)
    monkeypatch.setenv("PYTHONPATH", str(probe))
    return run_cli(args, tmp_path, launcher=launcher)


@pytest.mark.parametrize(
    "command, source, executed",
    [
        (["solve"], lambda: (-1 * alternating_quartic(8)).to_json(), ["reduction"]),
        (["solve", "--allow-radial"], lambda: (Polynomial.r_squared(8) ** 2).to_json(),
         ["reduction"]),
        (["table", "--n", "5", "--ell", "4"], None, ["reduction"]),
        (["integrate"], lambda: (-1 * alternating_quartic(8)).to_json(), ["moments"]),
        (["balance"], balance_config_json, ["balance", "moments"]),
    ],
    ids=["solve", "allow-radial", "table", "integrate", "balance"],
)
def test_each_command_executes_only_the_modules_it_runs(
    tmp_path, monkeypatch, command, source, executed
):
    args = list(command)
    if source is not None:
        (tmp_path / "in.json").write_text(json.dumps(source()))
        args += ["--input", "in.json"]
    result = run_probed(args + ["--output", "out.json"], tmp_path, monkeypatch)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == sorted(BASE_MODULES + executed)


# Put on a child's path as ``sitecustomize``: at exit, the child prints
# whether ``dataclasses`` has been imported.
DATACLASSES_PROBE = """
import atexit, sys

atexit.register(lambda: print("dataclasses" in sys.modules))
"""


@pytest.mark.parametrize(
    "command, source, expected",
    [
        (["solve"], lambda: (-1 * alternating_quartic(8)).to_json(), 0),
        (["solve", "--allow-radial"], lambda: (Polynomial.r_squared(8) ** 2).to_json(),
         0),
        (["solve"], lambda: (Polynomial.r_squared(7) ** 2).to_json(), 2),
        (["table", "--n", "5", "--ell", "4"], None, 0),
        (["integrate"], lambda: (-1 * alternating_quartic(8)).to_json(), 0),
    ],
    ids=["solve", "allow-radial", "residue-report", "table", "integrate"],
)
def test_solve_and_table_never_import_dataclasses(
    tmp_path, monkeypatch, command, source, expected
):
    # ``import dataclasses`` pulls in ``inspect``: about 15 ms of a child
    args = list(command)
    if source is not None:
        (tmp_path / "in.json").write_text(json.dumps(source()))
        args += ["--input", "in.json"]
    probe = tmp_path / "probe"
    probe.mkdir()
    (probe / "sitecustomize.py").write_text(DATACLASSES_PROBE)
    monkeypatch.setenv("PYTHONPATH", str(probe))
    result = run_cli(args + ["--output", "out.json"], tmp_path)
    assert result.returncode == expected, result.stderr
    assert (tmp_path / "out.json").exists()
    assert result.stdout.split() == ["False"]


def test_importing_cli_executes_only_what_it_imports_from(tmp_path, monkeypatch):
    result = run_probed([], tmp_path, monkeypatch,
                        launcher=("-c", "from bubble_correction import cli"))
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == sorted(BASE_MODULES + ["cli"])


def test_help_runs_clean_with_warnings_as_errors(tmp_path):
    # ``python -m`` warns when its target is in sys.modules before it runs,
    # so this fails if ``cli`` is ever bound as a lazy module
    result = run_cli(["--help"], tmp_path,
                     launcher=("-W", "error", "-m", "bubble_correction.cli"))
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""


def test_numpy_binding_keeps_an_earlier_import_and_a_missing_numpy_fails(tmp_path):
    earlier = (
        "import sys, types, numpy\n"
        "from bubble_correction import cli\n"
        "from bubble_correction._numpy import np\n"
        "assert np is numpy is sys.modules['numpy']\n"
        "assert type(np) is types.ModuleType\n"
    )
    result = run_cli([], tmp_path, launcher=("-c", earlier))
    assert result.returncode == 0, result.stderr
    blocked = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "try:\n"
        "    import bubble_correction\n"
        "except ModuleNotFoundError as exc:\n"
        "    assert exc.name == 'numpy', exc\n"
        "else:\n"
        "    raise SystemExit('imported without numpy')\n"
    )
    result = run_cli([], tmp_path, launcher=("-c", blocked))
    assert result.returncode == 0, result.stderr
