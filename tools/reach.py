"""The functions in src/ that the benchmark's requests never run.

    python3 tools/reach.py [--seeds 1 [2 ...]]

Runs the requests of one round of each benchmark workload for each seed,
made by ``tools/replay.py``'s ``workload_requests`` as ``perfbench/run.py``
makes them (each workload from a fresh ``random.Random(seed)``:
solve-exact, then scan-float with its set-up solves first, then light-cli,
54 requests a seed), in-process through ``cli.main`` of this checkout's
``src``, in a temporary directory.
Every call of a Python function is recorded by the stdlib ``sys.setprofile``
(``coverage`` is not a dependency), from before the package is imported, so
a function run at import time counts as run.

Prints, for each module, the functions defined in it (methods and nested
functions included, each by its qualified name) that no request ran, with
the lines each spans, then the totals.  Prints only; exits 0.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import glob
import io
import os
import sys
import tempfile

from replay import ROOT, WORKLOADS, _load, workload_requests


def functions(path):
    """[(qualified name, first line, lines)] of every function defined in
    the module at ``path``; the first line is the first decorator's, as in
    the function's code object."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found.append((name, first, child.end_lineno - child.lineno + 1))
                visit(child, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    with open(path) as handle:
        visit(ast.parse(handle.read()), "")
    return found


def _run_seed(main, inputs, seed, directory):
    """Run the seed's requests of every workload by ``main`` in
    ``directory``, each scan's set-up solves first; returns their number."""
    count = 0
    for workload in WORKLOADS:
        setup, requests = workload_requests(
            inputs, seed, workload, directory,
            lambda request: main(request["argv"]))
        for request in requests:
            main(request["argv"])
        count += len(setup) + len(requests)
    return count


def reach(seeds):
    """({module path: [(name, lines, ran)]}, number of requests run)."""
    src = os.path.join(ROOT, "src")
    package = os.path.join(src, "bubble_correction")
    ran = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            ran.add((code.co_filename, code.co_firstlineno))

    inputs = _load("inputs")
    count = 0
    here = os.getcwd()
    sys.path.insert(0, src)
    sys.setprofile(profile)
    try:
        from bubble_correction import cli

        with tempfile.TemporaryDirectory(prefix="reach-") as work:
            os.chdir(work)
            with contextlib.redirect_stderr(io.StringIO()):
                for seed in seeds:
                    count += _run_seed(cli.main, inputs, seed, work)
    finally:
        sys.setprofile(None)
        os.chdir(here)
    report = {}
    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        report[os.path.relpath(path, os.path.dirname(src))] = [
            (name, lines, (path, first) in ran)
            for name, first, lines in functions(path)
        ]
    return report, count


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    args = parser.parse_args(argv)
    report, count = reach(args.seeds)
    total = lines_total = unrun = unrun_lines = 0
    for module, found in report.items():
        missed = [(name, lines) for name, lines, ran in found if not ran]
        total += len(found)
        lines_total += sum(lines for _, lines, _ in found)
        unrun += len(missed)
        unrun_lines += sum(lines for _, lines in missed)
        print(f"{module}: {len(missed)} of {len(found)} functions never ran")
        for name, lines in missed:
            print(f"  {name} ({lines} lines)")
    seeds = " ".join(map(str, args.seeds))
    print(f"{unrun} of {total} functions ({unrun_lines} of {lines_total} lines) "
          f"never ran on {count} requests (seeds {seeds})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
