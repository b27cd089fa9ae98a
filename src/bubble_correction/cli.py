"""Batch command-line front end.

Subcommands wrap the library one to one and speak JSON/CSV on disk.  Exit
codes form a contract: 0 on success, 1 on malformed input (a value beyond
the float range included), usage errors or I/O problems, 2 on a
mathematical obstruction (nonvanishing residue, blocked recurrence cell,
divergent moment).  An obstruction is a result, not a crash.  Only a
residue obstruction writes a machine-readable report (``solve``, in place of
the solution); the other obstructions of ``solve``, a blocked table
(|y|^4 y1 y2 in n = 4) and a degree-1 source, exit 2 with none.

Runs are deterministic: fixed ``--seed`` plus identical inputs give byte
identical outputs; files are written atomically.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from . import balance as balance_mod
from . import moments as moments_mod
from . import profiles as profiles_mod
from . import quadrature, reduction
from ._numpy import np
from .errors import ExactnessError, Obstruction, ResidueObstructionError
from .polynomials import Polynomial

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_OBSTRUCTION = 2

# ``green-check`` draws its interior point from uniform(-0.3, 0.3)^n times the
# radius; 0.3 * sqrt(n) < 1 keeps it inside the ball, so n <= 11
GREEN_MAX_N = 11
# the boundary gaps whose Green and Poisson bounds ``green-check`` measures
GREEN_GAPS = (0.1, 0.3)
# the radii ``green-check`` accepts, checked before any work: the kernels
# raise the radius to powers that grow with n, which leave the float range
# from about 1e26 and below about 1e-27 at n = GREEN_MAX_N; both ends keep a
# wide margin inside that for every n
GREEN_RADII = (1e-10, 1e10)
# ``profile`` samples xi + PROFILE_SCALE * N(0, I)
PROFILE_SCALE = 0.5

# Work caps of the sampling commands, checked before any work.  ``profile``
# writes one CSV row per sample.  ``kernels.eval_poly`` holds about
# samples * terms * 8 bytes plus a 1 MiB scratch for a polynomial of ``terms``
# terms, so samples x terms is capped too, for the largest polynomial a command
# evaluates (``residual-scan``: the source and L's two parts of the solution;
# ``profile``: gamma): 4e6 is near 32 MB per evaluation.
MAX_SAMPLES = 100_000
MAX_SAMPLE_TERMS = 4_000_000
# ``residual-scan`` first checks the solution exactly, L(gamma) == source.
# L(gamma) = (1 + |y|^2) lap + diagonal has at most lap * (n + 1) + diagonal
# terms, lap and diagonal being the term counts of L's two parts, and each term
# holds n exponents: the one-term solution y1^2 ... yn^2 reaches n^3 + n^2 + n.
# The exponents are capped at 4e6, near 32 MB at about 8 bytes each; the
# solution of a source with all 24,310 monomials of degree 8 in n = 10, with
# its radial completion (32,083 terms), reaches 1.03e6.
MAX_GATE_EXPONENTS = 4_000_000
# ``profile`` formats and writes its CSV this many rows at a time
_CSV_BLOCK_ROWS = 1_000


def _write_atomic(path, chunks):
    """Write the text chunks to a temporary file beside ``path`` and move it
    into place; on any failure, one raised while the chunks are produced
    included, neither file is left."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.writelines(chunks)
        # mkstemp creates 0600; give the artifact the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _json_chunks(payload):
    """The text of ``json.dumps(payload, indent=2, sort_keys=True,
    allow_nan=False)`` and a newline, for a nonempty JSON object, as chunks:
    a Polynomial value is streamed by ``Polynomial.json_chunks`` in its
    ``to_json`` layout, and any other value is dumped and indented one level
    (a JSON string holds no raw newline, so only the layout's are indented)."""
    sep = "{"
    for key in sorted(payload):
        value = payload[key]
        yield f"{sep}\n  {json.dumps(key)}: "
        if isinstance(value, Polynomial):
            yield from value.json_chunks(1)
        else:
            text = json.dumps(value, indent=2, sort_keys=True, allow_nan=False)
            yield text.replace("\n", "\n  ")
        sep = ","
    yield "\n}\n"


def _dump_json(path, payload):
    """Write a JSON object as ``json.dumps(payload, indent=2, sort_keys=True)``
    and a newline, streamed by ``_json_chunks``.  ``solve``'s solution and
    residue report hold Polynomial values, which are written from their
    numerators with the bytes of their ``to_json`` form.  NaN and Infinity are
    not JSON: a payload holding one is refused with a ValueError, and no file
    is left."""
    _write_atomic(path, _json_chunks(payload))


def _csv_chunks(header, rows):
    """The header line, then the rows' lines a block at a time; each value is
    the ``repr`` of its Python float."""
    yield ",".join(header) + "\n"
    for start in range(0, len(rows), _CSV_BLOCK_ROWS):
        block = rows[start : start + _CSV_BLOCK_ROWS].tolist()
        yield "".join(",".join(map(repr, row)) + "\n" for row in block)


def _require(ok, flag, rule, value):
    """Refuse a flag value before any work, naming the flag."""
    if not ok:
        raise ValueError(f"--{flag} must be {rule}, got {value!r}")


def _require_samples(samples):
    _require(1 <= samples <= MAX_SAMPLES, "samples", f">= 1 and <= {MAX_SAMPLES}",
             samples)


def _require_work(samples, terms):
    """Refuse --samples above MAX_SAMPLE_TERMS in product with the ``terms``
    of the largest polynomial it samples."""
    terms = max(terms, 1)
    _require(
        samples * terms <= MAX_SAMPLE_TERMS, "samples",
        f"<= {MAX_SAMPLE_TERMS // terms} for {terms} terms (samples x terms <= "
        f"{MAX_SAMPLE_TERMS})", samples,
    )


def _require_gate(n, lap_terms, diagonal_terms):
    """Refuse a solution whose exact gate could build more than
    MAX_GATE_EXPONENTS exponents, counted from the terms of L's two parts."""
    terms = lap_terms * (n + 1) + diagonal_terms
    if terms * n > MAX_GATE_EXPONENTS:
        raise ValueError(
            f"the exact check L(gamma) == source can reach {terms} terms of {n} "
            f"exponents each ({terms * n} exponents, at most {MAX_GATE_EXPONENTS})"
        )


def _load_json(path):
    with open(path) as handle:
        return json.load(handle)


def _load_polynomial(path):
    return Polynomial.from_json(_load_json(path))


# ---------------------------------------------------------------- commands


def cmd_solve(args):
    poly = _load_polynomial(args.input)
    try:
        solution = reduction.solve_general(poly) if args.allow_radial else (
            reduction.solve_gamma(poly)
        )
    except ResidueObstructionError as exc:
        _dump_json(
            args.output,
            {
                "error": "residue_obstruction",
                "message": str(exc),
                "residue": exc.residue,
                "top_laplacian": exc.top_laplacian,
            },
        )
        print(f"obstruction: {exc}", file=sys.stderr)
        return EXIT_OBSTRUCTION
    # ``solution.to_json()`` with its polynomials unencoded
    _dump_json(args.output, solution._asdict())
    return EXIT_OK


def cmd_table(args):
    table = reduction.coefficient_table(args.n, args.ell)
    _dump_json(args.output, table.to_json())
    return EXIT_OK


def cmd_integrate(args):
    poly = _load_polynomial(args.input)
    result = moments_mod.moment_integral(poly)
    payload = result.to_json()
    degree = poly.degree() or 0
    payload["J"] = (
        moments_mod.j_value(poly.dimension, degree) if degree % 2 == 0 else 0.0
    )
    _dump_json(args.output, payload)
    return EXIT_OK


def cmd_balance(args):
    config = balance_mod.BlowupConfiguration.from_json(_load_json(args.input))
    report = balance_mod.multi_point_balance(config)
    # equal exponents are handled by the grouped sums, so only interference
    # across distinct exponents counts against the verdict; the full
    # all-pairs report is still included for inspection
    interference = balance_mod.interference_check(
        config.n, config.flex_exponents, distinct_only=True
    )
    full_interference = balance_mod.interference_check(
        config.n, config.flex_exponents
    )
    _dump_json(
        args.output,
        {
            "reports": [
                report.to_json(),
                interference.to_json(),
                full_interference.to_json(),
            ],
            "pass": report.passed and interference.passed,
        },
    )
    return EXIT_OK


def cmd_residual_scan(args):
    _require_samples(args.samples)
    _require(args.seed >= 0, "seed", ">= 0", args.seed)
    solution = reduction.CorrectionSolution.from_json(_load_json(args.input))
    source = _load_polynomial(args.source)
    total = solution.total()
    # the scan evaluates the source and L's two parts of the solution, and the
    # exact gate adds the two parts
    lap, diagonal, _ = polys = profiles_mod._scan_polynomials(total, source)
    _require_work(args.samples, max(len(p.nums) for p in polys))
    _require_gate(total.dimension, len(lap.nums), len(diagonal.nums))
    report = profiles_mod.linearized_residual(
        total, source, samples=args.samples, seed=args.seed
    )
    _dump_json(args.output, report.to_json())
    return EXIT_OK


def cmd_green_check(args):
    _require(args.n <= GREEN_MAX_N, "n", f"<= {GREEN_MAX_N}", args.n)
    lo, hi = GREEN_RADII
    _require(lo <= args.radius <= hi, "radius", f"in [{lo:g}, {hi:g}]", args.radius)
    _require(args.seed >= 0, "seed", ">= 0", args.seed)
    ball = profiles_mod.GreensBall(args.n, args.radius)
    rng = np.random.default_rng(args.seed)
    xi = rng.uniform(-0.3, 0.3, args.n) * args.radius
    boundary = []
    for _ in range(32):
        direction = rng.standard_normal(args.n)
        direction /= np.linalg.norm(direction)
        boundary.append(abs(ball.green(args.radius * direction, xi)))
    normalization = ball.poisson_normalization(xi)
    payload = {
        "n": args.n,
        "radius": args.radius,
        "boundary_max_abs": max(boundary),
        "poisson_normalization": normalization,
        "poisson_normalization_ok": bool(
            abs(normalization - 1.0) <= quadrature.TOL_QUAD
        ),
        "bounds": [ball.check_bounds(delta, seed=args.seed) for delta in GREEN_GAPS],
    }
    _dump_json(args.output, payload)
    return EXIT_OK


def cmd_profile(args):
    _require_samples(args.samples)
    _require(args.seed >= 0, "seed", ">= 0", args.seed)
    spec = profiles_mod.RefinedProfileSpec.from_json(_load_json(args.input))
    _require_work(args.samples, len(spec.gamma.nums))
    profile = profiles_mod.RefinedProfile(spec)
    rng = np.random.default_rng(args.seed)
    noise = rng.standard_normal((args.samples, spec.n))
    points = np.asarray(spec.xi, float)[None, :] + PROFILE_SCALE * noise
    columns = profile.components(points)
    header = [f"y{i + 1}" for i in range(spec.n)] + [
        "bubble",
        "correction",
        "harmonic_group",
        "total",
    ]
    rows = np.column_stack([points, columns])
    if not np.isfinite(rows).all():
        raise ValueError("profile values are not finite for this spec")
    _write_atomic(args.output, _csv_chunks(header, rows))
    return EXIT_OK


# ------------------------------------------------------------------- parser


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on a usage error; here 2 means an obstruction."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"input error: {self.prog}: {message}\n")


def build_parser():
    parser = _Parser(
        prog="bubble-correction",
        description=(
            "Exact polynomial corrections to bubble profiles, bubble-weighted "
            "moments, and concentration balance checks"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve the weighted polynomial equation")
    solve.add_argument("--input", required=True, help="source polynomial JSON")
    solve.add_argument("--output", required=True, help="solution JSON")
    solve.add_argument(
        "--allow-radial",
        action="store_true",
        help="absorb a nonvanishing residue into a radial completion when possible",
    )
    solve.set_defaults(func=cmd_solve)

    table = sub.add_parser("table", help="dump the recurrence coefficient table")
    table.add_argument("--n", type=int, required=True)
    table.add_argument("--ell", type=int, required=True)
    table.add_argument("--output", required=True)
    table.set_defaults(func=cmd_table)

    integrate = sub.add_parser(
        "integrate", help="bubble-weighted moment of a homogeneous polynomial"
    )
    integrate.add_argument("--input", required=True)
    integrate.add_argument("--output", required=True)
    integrate.set_defaults(func=cmd_integrate)

    bal = sub.add_parser("balance", help="multi-point balance report")
    bal.add_argument("--input", required=True, help="configuration JSON")
    bal.add_argument("--output", required=True)
    bal.set_defaults(func=cmd_balance)

    scan = sub.add_parser(
        "residual-scan", help="sampled float residual of a verified solution"
    )
    scan.add_argument("--input", required=True, help="solution JSON")
    scan.add_argument("--source", required=True, help="source polynomial JSON")
    scan.add_argument("--samples", type=int, default=1000)
    scan.add_argument("--seed", type=int, default=0)
    scan.add_argument("--output", required=True)
    scan.set_defaults(func=cmd_residual_scan)

    green = sub.add_parser("green-check", help="Green/Poisson bound report")
    green.add_argument("--n", type=int, required=True)
    green.add_argument("--radius", type=float, default=1.0)
    green.add_argument("--seed", type=int, default=0)
    green.add_argument("--output", required=True)
    green.set_defaults(func=cmd_green_check)

    prof = sub.add_parser("profile", help="sample a refined profile to CSV")
    prof.add_argument("--input", required=True, help="profile spec JSON")
    prof.add_argument("--samples", type=int, default=200)
    prof.add_argument("--seed", type=int, default=0)
    prof.add_argument("--output", required=True)
    prof.set_defaults(func=cmd_profile)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    # two families: obstructions (first, since two of them are also
    # ValueErrors), then malformed input (a value beyond the float range
    # included) or an unusable path
    try:
        return args.func(args)
    except Obstruction as exc:
        print(f"obstruction: {exc}", file=sys.stderr)
        return EXIT_OBSTRUCTION
    except (OSError, KeyError, ValueError, OverflowError, ExactnessError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
