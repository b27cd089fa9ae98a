"""Byte-identity replay of the benchmark's requests against a source tree.

    python3 tools/replay.py run --src SRC --seeds 1 2 3 --out MANIFEST [--work DIR]
    python3 tools/replay.py diff A B
    python3 tools/replay.py pin [--src SRC] [--out PINNED]

``run`` makes the requests of one round of each benchmark workload for each
seed, with ``perfbench/inputs.py`` as ``perfbench/run.py`` makes them
(solve-exact, then scan-float with its set-up solves run first, then
light-cli: 54 requests a seed), and runs each as a fresh ``python -m
bubble_correction.cli`` child with ``SRC`` on ``PYTHONPATH``.  The manifest
records, per request: its argv, exit code, the sha256 of its stderr (with
the work directory written as ``<work>``), the sha256 of every file it
created or changed and its byte count, the sha256 of the value of each
such ``.json`` file that parses (of ``json.dumps(value, indent=2,
sort_keys=True)``, which no change of layout alters), for a ``solve``
solution the sha256 of its total gamma + radial_completion (its exact terms
summed with ``fractions``, the zero ones dropped, sorted; no package code is
imported), and the verdict of ``perfbench/checks.py`` on its artifact (null
when the check passes).  ``perfbench/`` is read, never
written: its modules are loaded from their files with no bytecode cache.

With ``--work DIR`` the inputs and artifacts are kept in DIR, one directory
per seed and workload, so a differing file can be read.  ``run`` exits 1 if
any artifact fails its check, once the manifest is written.

``diff`` prints each request whose record differs between two manifests,
with the fields and files that differ, a file whose bytes differ but whose
value digest is the same labelled ``(layout only)``, and a solution whose
value differs but whose total is the same (gamma and the completion split
the same polynomial another way) labelled ``(same total)``.  It then prints
each command's bytes written on both sides, and exits 1 if any request
differs, 0 if none.

``pin`` writes the exact tier's pinned results, by default to
``tests/exact_manifest.json`` (PINNED), which
``tests/test_replay.py::test_exact_artifacts_match_the_pinned_manifest``
replays.  Its requests are those of seeds 1 to 3 whose artifacts are exact:
each seed's solve-exact round, scan-float's three set-up solves, and the
``table`` and ``balance`` requests of its light-cli round (32 a seed).  They
run in-process, through ``cli.main`` of the package under ``SRC`` (by
default this checkout's ``src``), each seed in a directory of its own.  A
record holds the request's argv, the sha256 of its input files, its exit
code, the sha256 of its stderr and the sha256 of its artifact (null when
none was written).  The one artifact whose bytes depend on the platform's
libm, a failing ``balance`` configuration in odd n, whose irrational
classes are summed through float powers, has its verdicts (every "pass",
in document order) in place of its sha256.  ``integrate`` (its ``J`` is a
float) and the float tier stay with ``perfbench/checks.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
WORKLOADS = ("solve-exact", "scan-float", "light-cli")
PINNED = os.path.join(ROOT, "tests", "exact_manifest.json")
PINNED_SEEDS = (1, 2, 3)


def _load(name):
    """``perfbench/<name>.py`` as a module, without writing a .pyc."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _value_sha256(data):
    """The sha256 of a JSON document's value, whatever its layout, or None
    when it does not parse."""
    try:
        value = json.loads(data)
    except ValueError:
        return None
    return _sha256(json.dumps(value, indent=2, sort_keys=True).encode())


def _total_sha256(data):
    """The sha256 of a solution's total gamma + radial_completion, whatever
    the split: its exact terms summed with ``fractions``, the zero ones
    dropped, sorted by exponents; None when the file is not a solution."""
    try:
        value = json.loads(data)
    except ValueError:
        return None
    if not isinstance(value, dict) or "gamma" not in value:
        return None
    total = {}
    for part in (value["gamma"], value.get("radial_completion")):
        for term in [] if part is None else part["terms"]:
            alpha = tuple(term["alpha"])
            ratio = Fraction(int(term["num"]), int(term["den"]))
            total[alpha] = total.get(alpha, 0) + ratio
    terms = [[list(a), str(c)] for a, c in sorted(total.items()) if c]
    return _sha256(json.dumps(terms, separators=(",", ":")).encode())


def _snapshot(work):
    return {entry.name: (entry.stat().st_size, entry.stat().st_mtime_ns)
            for entry in os.scandir(work) if entry.is_file()}


class Runner:
    def __init__(self, src):
        self.env = dict(os.environ, PYTHONPATH=os.path.abspath(src),
                        PYTHONDONTWRITEBYTECODE="1")
        self.checks = _load("checks")

    def run(self, ident, request, directory):
        """Run one request in ``directory``; returns its record."""
        before = _snapshot(directory)
        proc = subprocess.run(
            [sys.executable, "-m", "bubble_correction.cli", *request["argv"]],
            cwd=directory, env=self.env, capture_output=True)
        after = _snapshot(directory)
        files, sizes, values, totals = {}, {}, {}, {}
        for name in sorted(after):
            if before.get(name) != after[name]:
                with open(os.path.join(directory, name), "rb") as handle:
                    data = handle.read()
                files[name] = _sha256(data)
                sizes[name] = len(data)
                if name.endswith(".json"):
                    values[name] = _value_sha256(data)
                if request["argv"][0] == "solve" and name == request["output"]:
                    totals[name] = _total_sha256(data)
        stderr = proc.stderr.replace(directory.encode(), b"<work>")
        output = os.path.join(directory, request["output"])
        return {
            "id": ident,
            "argv": request["argv"],
            "exit": proc.returncode,
            "stderr_sha256": _sha256(stderr),
            "files": files,
            "bytes": sizes,
            "values": values,
            "totals": totals,
            "check": self.checks.check(request, proc.returncode, output),
        }


def workload_requests(inputs, seed, workload, directory, run_setup):
    """(set-up requests, requests) of one round of the workload for the seed,
    made from a fresh ``random.Random(seed)`` as ``perfbench/run.py`` makes
    them.  For scan-float each set-up solve is written to ``directory`` and
    run by ``run_setup(request)`` before the scan's requests are made from
    the solutions it wrote there; every request's input files are written to
    ``directory``."""
    rng = random.Random(seed)
    setup = []
    if workload == "solve-exact":
        requests = inputs.solve_round(rng, "r0")
    elif workload == "light-cli":
        requests = inputs.light_round(rng, "r0")
    else:
        setup = inputs.scan_setup(rng)
        solutions = {}
        for request, (name, *_) in zip(setup, inputs.SCAN_SOLUTIONS):
            inputs.write_files(request, directory)
            run_setup(request)
            with open(os.path.join(directory, request["output"])) as handle:
                solutions[name] = json.load(handle)
        requests = inputs.scan_round(rng, "r0", solutions)
    for request in requests:
        inputs.write_files(request, directory)
    return setup, requests


def _requests(inputs, runner, seed, workload, directory):
    """The workload's records for one seed, its set-up solves first."""
    records = []

    def run_setup(request):
        ident = f"seed{seed}/{workload}/setup{len(records)}-{request['kind']}"
        records.append(runner.run(ident, request, directory))

    _, requests = workload_requests(inputs, seed, workload, directory, run_setup)
    for i, request in enumerate(requests):
        ident = f"seed{seed}/{workload}/{i:02d}-{request['kind']}"
        records.append(runner.run(ident, request, directory))
    return records


def run(src, seeds, out, work=None):
    inputs = _load("inputs")
    runner = Runner(src)
    records = []
    with contextlib.ExitStack() as stack:
        if work is None:
            work = stack.enter_context(tempfile.TemporaryDirectory(prefix="replay-"))
        for seed in seeds:
            for workload in WORKLOADS:
                directory = os.path.join(
                    os.path.abspath(work), f"seed{seed}-{workload}")
                os.makedirs(directory)
                records.extend(_requests(inputs, runner, seed, workload, directory))
    manifest = {"src": os.path.abspath(src), "seeds": list(seeds),
                "requests": records}
    with open(out, "w") as handle:
        json.dump(manifest, handle, indent=1, sort_keys=True)
        handle.write("\n")
    failed = [r["id"] for r in records if r["check"] is not None]
    print(f"{len(records)} requests, {len(failed)} failing perfbench's checks")
    for ident in failed:
        print(f"check failed: {ident}")
    return 1 if failed else 0


def exact_requests(inputs, seed):
    """[(request id, request)] of one seed's exact-tier requests, with the
    ids ``run`` gives them."""
    solve = inputs.solve_round(random.Random(seed), "r0")
    setup = inputs.scan_setup(random.Random(seed))
    light = inputs.light_round(random.Random(seed), "r0")
    return (
        [(f"seed{seed}/solve-exact/{i:02d}-{r['kind']}", r) for i, r in enumerate(solve)]
        + [(f"seed{seed}/scan-float/setup{i}-{r['kind']}", r)
           for i, r in enumerate(setup)]
        + [(f"seed{seed}/light-cli/{i:02d}-{r['kind']}", r)
           for i, r in enumerate(light) if r["kind"] in ("table", "balance")]
    )


def _libm_bound(request):
    """True for a failing balance configuration in odd n: its irrational
    classes are summed through float powers of libm (``balance._float_sum``)."""
    if request["kind"] != "balance" or request["passes"]:
        return False
    (config,) = request["files"].values()
    return config["n"] % 2 == 1


def _verdicts(value):
    """Every "pass" of a JSON value, in document order."""
    if isinstance(value, dict):
        return [v for key, x in value.items()
                for v in ([x] if key == "pass" else _verdicts(x))]
    if isinstance(value, list):
        return [v for x in value for v in _verdicts(x)]
    return []


def exact_records(main, seeds, work):
    """The pinned records of the seeds' exact-tier requests, each run
    in-process by ``main`` (``cli.main``) in ``work``/seed<seed>."""
    inputs = _load("inputs")
    records = []
    here = os.getcwd()
    try:
        for seed in seeds:
            directory = os.path.join(os.path.abspath(work), f"seed{seed}")
            os.makedirs(directory)
            os.chdir(directory)
            for ident, request in exact_requests(inputs, seed):
                inputs.write_files(request, directory)
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    code = main(request["argv"])
                record = {
                    "id": ident,
                    "argv": request["argv"],
                    "input_sha256": _sha256(
                        json.dumps(request["files"], sort_keys=True).encode()),
                    "exit": code,
                    "stderr_sha256": _sha256(
                        err.getvalue().replace(directory, "<work>").encode()),
                }
                try:
                    with open(request["output"], "rb") as handle:
                        data = handle.read()
                except FileNotFoundError:
                    data = None
                if data is not None and _libm_bound(request):
                    record["verdicts"] = _verdicts(json.loads(data))
                else:
                    record["artifact_sha256"] = None if data is None else _sha256(data)
                records.append(record)
    finally:
        os.chdir(here)
    return records


def pin(src, out):
    sys.path.insert(0, os.path.abspath(src))
    from bubble_correction import cli

    with tempfile.TemporaryDirectory(prefix="pin-") as work:
        records = exact_records(cli.main, PINNED_SEEDS, work)
    with open(out, "w") as handle:
        json.dump({"seeds": list(PINNED_SEEDS), "requests": records}, handle,
                  indent=1, sort_keys=True)
        handle.write("\n")
    print(f"{len(records)} exact-tier requests pinned to {out}")
    return 0


def _same_label(x, y, name):
    """The label of a file whose bytes differ between two records: `` (layout
    only)`` when its value is the same, `` (same total)`` when it is a
    solution of the same total, and none otherwise (a manifest written before
    value or total digests has none)."""
    for key, label in (("values", " (layout only)"), ("totals", " (same total)")):
        digest = x.get(key, {}).get(name)
        if digest is not None and digest == y.get(key, {}).get(name):
            return label
    return ""


def _bytes_by_command(manifest):
    """{command: bytes written by its requests} over the records that carry
    byte counts."""
    written = {}
    for record in manifest["requests"]:
        if "bytes" in record:
            command = record["argv"][0]
            written[command] = written.get(command, 0) + sum(record["bytes"].values())
    return written


def differences(a, b):
    """[(request id, [what differs])] between two manifests' records."""
    left = {r["id"]: r for r in a["requests"]}
    right = {r["id"]: r for r in b["requests"]}
    found = []
    for ident in sorted(left.keys() | right.keys()):
        if ident not in left or ident not in right:
            found.append((ident, ["only in " + ("B" if ident in right else "A")]))
            continue
        x, y = left[ident], right[ident]
        what = [key for key in ("argv", "exit", "stderr_sha256", "check")
                if x[key] != y[key]]
        names = sorted(x["files"].keys() | y["files"].keys())
        for name in names:
            if x["files"].get(name) != y["files"].get(name):
                what.append(f"file {name}" + _same_label(x, y, name))
        if what:
            found.append((ident, what))
    return found


def diff(path_a, path_b):
    with open(path_a) as handle:
        a = json.load(handle)
    with open(path_b) as handle:
        b = json.load(handle)
    found = differences(a, b)
    for ident, what in found:
        print(f"{ident}: {', '.join(what)}")
    left, right = _bytes_by_command(a), _bytes_by_command(b)
    for command in sorted(left.keys() | right.keys()):
        print(f"{command} bytes: A {left.get(command, 0):,}, "
              f"B {right.get(command, 0):,}")
    total = len({r["id"] for r in a["requests"]} | {r["id"] for r in b["requests"]})
    print(f"{len(found)} of {total} requests differ")
    return 1 if found else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run_cmd = sub.add_parser("run", help="replay the requests and write a manifest")
    run_cmd.add_argument("--src", required=True, help="the src/ directory to run")
    run_cmd.add_argument("--seeds", type=int, nargs="+", required=True)
    run_cmd.add_argument("--out", required=True, help="manifest JSON to write")
    run_cmd.add_argument(
        "--work", help="keep the inputs and artifacts here, one directory per seed "
        "and workload (default: a temporary directory, removed)")
    diff_cmd = sub.add_parser("diff", help="compare two manifests")
    diff_cmd.add_argument("a")
    diff_cmd.add_argument("b")
    pin_cmd = sub.add_parser(
        "pin", help="write the exact tier's pinned results of seeds 1 to 3")
    pin_cmd.add_argument("--src", default=os.path.join(ROOT, "src"),
                         help="the src/ directory to run (default: this checkout's)")
    pin_cmd.add_argument("--out", default=PINNED,
                         help="manifest JSON to write (default: %(default)s)")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.src, args.seeds, args.out, args.work)
    if args.command == "pin":
        return pin(args.src, args.out)
    return diff(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
