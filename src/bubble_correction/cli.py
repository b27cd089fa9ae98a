"""Batch command-line front end.

Subcommands wrap the library one to one and speak JSON/CSV on disk.  The
rule: parse the arguments, read the input files, make one library call,
write what it returns, and map the outcome to an exit code.  Sampling, input
rules (flag ranges and work caps, so a library caller gets the same
refusals) and report assembly live in the module that does the work; only
argument parsing, file reading, the atomic JSON and CSV writers and the exit
map stay here.

Exit codes form a contract: 0 on success, 1 on malformed input (a value
beyond the float range included), usage errors or I/O problems, 2 on a
mathematical obstruction (nonvanishing residue, blocked recurrence cell,
divergent moment).  An obstruction is a result, not a crash.  ``main`` is
the one exit map: a command returns or raises, and ``main`` maps both
outcomes, a return to exit 0, an ``Obstruction`` to its stderr line and
exit 2, and malformed input to its stderr line and exit 1.  Only a residue
obstruction writes a machine-readable report (``solve``, in place of the
solution, from the payload its error carries, before it re-raises); the
other obstructions of ``solve``, a blocked table (|y|^4 y1 y2 in n = 4) and
a degree-1 source, exit 2 with none.

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
from . import reduction
from .errors import ExactnessError, Obstruction, ResidueObstructionError
from .polynomials import Polynomial

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_OBSTRUCTION = 2

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
    """The text of ``json.dumps(payload, sort_keys=True, separators=(",",
    ":"), allow_nan=False)`` and a newline, for a nonempty JSON object, as
    chunks: a Polynomial value is streamed by ``Polynomial.json_chunks`` in
    its ``to_json`` layout, and any other value is dumped whole."""
    sep = "{"
    for key in sorted(payload):
        value = payload[key]
        yield f"{sep}{json.dumps(key)}:"
        if isinstance(value, Polynomial):
            yield from value.json_chunks()
        else:
            yield json.dumps(value, sort_keys=True, separators=(",", ":"),
                             allow_nan=False)
        sep = ","
    yield "}\n"


def _dump_json(path, payload):
    """Write a JSON object as ``json.dumps(payload, sort_keys=True,
    separators=(",", ":"))`` and a newline, streamed by ``_json_chunks``:
    one line, no whitespace between tokens (``python -m json.tool --indent 2
    --sort-keys`` shows it indented).  ``solve``'s solution and residue
    report hold Polynomial values, which are written from their numerators
    with the bytes of their ``to_json`` form.  NaN and Infinity are not JSON:
    a payload holding one is refused with a ValueError, and no file is
    left."""
    _write_atomic(path, _json_chunks(payload))


def _csv_chunks(header, blocks):
    """The header line, then one chunk of lines per block of rows as the
    blocks arrive; each value is the ``repr`` of its Python float."""
    yield ",".join(header) + "\n"
    for block in blocks:
        yield "".join(",".join(map(repr, row)) + "\n" for row in block.tolist())


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
        raise
    # ``solution.to_json()`` with its polynomials unencoded
    _dump_json(args.output, solution._asdict())


def cmd_table(args):
    table = reduction.coefficient_table(args.n, args.ell)
    _dump_json(args.output, table.to_json())


def cmd_integrate(args):
    result = moments_mod.moment_integral(_load_polynomial(args.input))
    _dump_json(args.output, result.to_json())


def cmd_balance(args):
    config = balance_mod.BlowupConfiguration.from_json(_load_json(args.input))
    _dump_json(args.output, balance_mod.balance_report(config))


def cmd_residual_scan(args):
    solution = reduction.CorrectionSolution.from_json(_load_json(args.input))
    source = _load_polynomial(args.source)
    report = profiles_mod.linearized_residual(
        solution.total(), source, samples=args.samples, seed=args.seed
    )
    _dump_json(args.output, report.to_json())


def cmd_green_check(args):
    _dump_json(args.output, profiles_mod.green_report(args.n, args.radius, args.seed))


def cmd_profile(args):
    spec = profiles_mod.RefinedProfileSpec.from_json(_load_json(args.input))
    header, blocks = profiles_mod.profile_rows(spec, args.samples, args.seed)
    _write_atomic(args.output, _csv_chunks(header, blocks))


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
        args.func(args)
    except Obstruction as exc:
        print(f"obstruction: {exc}", file=sys.stderr)
        return EXIT_OBSTRUCTION
    except (OSError, KeyError, ValueError, OverflowError, ExactnessError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
