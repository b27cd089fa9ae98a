"""Byte-identity replay of the benchmark's requests against a source tree.

    python3 tools/replay.py run --src SRC --seeds 1 2 3 --out MANIFEST [--work DIR]
    python3 tools/replay.py diff A B

``run`` makes the requests of one round of each benchmark workload for each
seed, with ``perfbench/inputs.py`` as ``perfbench/run.py`` makes them
(solve-exact, then scan-float with its set-up solves run first, then
light-cli: 54 requests a seed), and runs each as a fresh ``python -m
bubble_correction.cli`` child with ``SRC`` on ``PYTHONPATH``.  The manifest
records, per request: its argv, exit code, the sha256 of its stderr (with
the work directory written as ``<work>``), the sha256 of every file it
created or changed, the sha256 of the value of each such ``.json`` file
that parses (of ``json.dumps(value, indent=2, sort_keys=True)``, which no
change of layout alters), and the verdict of ``perfbench/checks.py`` on its
artifact (null when the check passes).  ``perfbench/`` is read, never
written: its modules are loaded from their files with no bytecode cache.

With ``--work DIR`` the inputs and artifacts are kept in DIR, one directory
per seed and workload, so a differing file can be read.  ``run`` exits 1 if
any artifact fails its check, once the manifest is written.

``diff`` prints each request whose record differs between two manifests,
with the fields and files that differ, a file whose bytes differ but whose
value digest is the same labelled ``(layout only)``, and exits 1 if any
does, 0 if none.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import json
import os
import random
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
WORKLOADS = ("solve-exact", "scan-float", "light-cli")


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
        files, values = {}, {}
        for name in sorted(after):
            if before.get(name) != after[name]:
                with open(os.path.join(directory, name), "rb") as handle:
                    data = handle.read()
                files[name] = _sha256(data)
                if name.endswith(".json"):
                    values[name] = _value_sha256(data)
        stderr = proc.stderr.replace(directory.encode(), b"<work>")
        output = os.path.join(directory, request["output"])
        return {
            "id": ident,
            "argv": request["argv"],
            "exit": proc.returncode,
            "stderr_sha256": _sha256(stderr),
            "files": files,
            "values": values,
            "check": self.checks.check(request, proc.returncode, output),
        }


def _requests(inputs, runner, seed, workload, directory):
    """The workload's records for one seed, its set-up solves first."""
    rng = random.Random(seed)
    records = []
    if workload == "solve-exact":
        requests = inputs.solve_round(rng, "r0")
    elif workload == "light-cli":
        requests = inputs.light_round(rng, "r0")
    else:
        solutions = {}
        for i, (request, (name, *_)) in enumerate(
                zip(inputs.scan_setup(rng), inputs.SCAN_SOLUTIONS)):
            inputs.write_files(request, directory)
            ident = f"seed{seed}/{workload}/setup{i}-{request['kind']}"
            records.append(runner.run(ident, request, directory))
            with open(os.path.join(directory, request["output"])) as handle:
                solutions[name] = json.load(handle)
        requests = inputs.scan_round(rng, "r0", solutions)
    for request in requests:
        inputs.write_files(request, directory)
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
                # a manifest written before value digests has none
                value = x.get("values", {}).get(name)
                same = value is not None and value == y.get("values", {}).get(name)
                what.append(f"file {name}" + (" (layout only)" if same else ""))
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
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.src, args.seeds, args.out, args.work)
    return diff(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
