"""A seeded contract fuzzer over the CLI's inputs.

Seed 1's benchmark requests of all seven commands (made from
``perfbench/inputs.py`` by ``tools/replay.py`` as ``perfbench/run.py``
makes them, each workload from a fresh ``random.Random(1)``, ``--samples``
cut to a few points) are mutated and run in-process through ``cli.main``;
the residual scan of the large n = 10 solution is left out, since each of
its mutants would read about 2 MB of JSON.  A request that reads JSON files gets two slots of them
drawn at random from a stream of its own, an object or a list and a scalar,
and each slot gets every mutation: replaced by each of ``VALUES``, and
deleted from its object or duplicated in its list.  ``table`` and
``green-check`` read no file; each of their number flags gets each of
``ARGV_VALUES``.

Every mutant must keep the exit-code contract: exit 0, 1 or 2 with no
exception escaping ``main``, in under ``LIMIT_S`` seconds.  On exit 1 or 2,
stderr is one ``input error:`` or ``obstruction:`` line (after argparse's
usage lines, for a usage error) and no artifact or ``.tmp-*`` file is left,
except ``solve``'s residue report; on exit 0 the artifact parses.
"""

import contextlib
import copy
import csv
import io
import json
import os
import random
import signal
import time

from bubble_correction import cli

from test_replay import replay

SEED = 1
LIMIT_S = 5.0
# the alarm that stops a request far beyond LIMIT_S
ALARM_S = 20
SAMPLES = "16"
LARGE = "large10-sol.json"
VALUES = [None, True, 0, -0.0, 2**70, -(2**70), 10**400, 1e308, "", "1/0", "1e400",
          "NaN", [], {}, [[]], "٣"]
ARGV_VALUES = ["-1", "-7", "0", str(2**70), "2.5", "1e3", "nan", "inf", "-inf", "٣"]
NUMBER_FLAGS = ("--n", "--ell", "--radius", "--seed")
PREFIX = {1: "input error: ", 2: "obstruction: "}


def _run_setup(request):
    assert cli.main(request["argv"]) == 0


def _requests(inputs):
    """Seed 1's requests of one round of each workload but the large scan,
    made by ``tools/replay.py``'s ``workload_requests``, and every input
    document they read by name, the set-up solves' sources and solutions
    that ``residual-scan`` reads included."""
    requests, files = [], {}
    for workload in replay.WORKLOADS:
        setup, made = replay.workload_requests(inputs, SEED, workload, ".", _run_setup)
        for request in setup:
            with open(request["output"]) as handle:
                files[request["output"]] = json.load(handle)
        requests += [r for r in made if LARGE not in r["argv"]]
        for request in setup + made:
            files.update(request["files"])
    for request in requests:
        argv = request["argv"]
        if "--samples" in argv:
            argv[argv.index("--samples") + 1] = SAMPLES
    return requests, files


def _slots(doc, path=()):
    """(path, value) of every slot of a JSON document, the document itself
    (the empty path) first."""
    yield path, doc
    if isinstance(doc, dict):
        children = doc.items()
    else:
        children = enumerate(doc) if isinstance(doc, list) else ()
    for key, child in children:
        yield from _slots(child, (*path, key))


def _edit(doc, path, op, value=None):
    """``doc`` with one mutation at ``path``: ``op`` is "replace" (by
    ``value``), "delete" or "duplicate".  The containers on the path are
    copied and every other subtree is shared."""
    if not path:
        return value
    top = parent = copy.copy(doc)
    for key in path[:-1]:
        parent[key] = copy.copy(parent[key])
        parent = parent[key]
    key = path[-1]
    if op == "delete":
        del parent[key]
    elif op == "duplicate":
        parent.insert(key, parent[key])
    else:
        parent[key] = value
    return top


def _mutants(rng, request, files):
    """(argv, {input file: document}) of each mutant of the request, every
    input file it reads named, the mutated one and the others as they are."""
    argv = request["argv"]
    names = [argv[i + 1] for i, arg in enumerate(argv) if arg in ("--input", "--source")]
    if not names:
        for i, arg in enumerate(argv):
            if arg in NUMBER_FLAGS:
                for value in ARGV_VALUES:
                    yield [*argv[:i + 1], value, *argv[i + 2:]], {}
        return
    docs = {name: files[name] for name in names}
    for container in (True, False):
        name = rng.choice(names)
        doc = docs[name]
        path = rng.choice([path for path, value in _slots(doc)
                           if isinstance(value, (dict, list)) == container])
        for value in VALUES:
            yield argv, {**docs, name: _edit(doc, path, "replace", value)}
        if path:
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            op = "delete" if isinstance(parent, dict) else "duplicate"
            yield argv, {**docs, name: _edit(doc, path, op)}


def _parses(path):
    """True when the artifact parses: JSON, or a CSV of floats whose rows are
    as wide as its header."""
    try:
        with open(path) as handle:
            if not path.endswith(".csv"):
                json.load(handle)
                return True
            header, *rows = csv.reader(handle)
        return all(len(row) == len(header) and list(map(float, row)) for row in rows)
    except ValueError:
        return False


class _Alarm(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Alarm(f"over {ALARM_S} s")


def _run(argv, output):
    """One run's (exit code, stderr, seconds, escaped exception or None)."""
    with contextlib.suppress(FileNotFoundError):
        os.unlink(output)
    err = io.StringIO()
    escaped = None
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, ALARM_S)
    try:
        with contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse's usage error
        code = exc.code
    except BaseException as exc:  # each one is a finding
        code, escaped = None, exc
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return code, err.getvalue(), time.perf_counter() - start, escaped


def _broken(argv, output, code, stderr, seconds, escaped):
    """What the run broke of the contract, or None."""
    if escaped is not None:
        return f"escaped {type(escaped).__name__}: {escaped}"
    if code not in (0, 1, 2):
        return f"exit {code!r}"
    if seconds > LIMIT_S:
        return f"took {seconds:.1f} s"
    if any(name.startswith(".tmp-") for name in os.listdir(".")):
        return "left a .tmp-* file"
    if code == 0:
        if stderr:
            return f"exit 0 with stderr {stderr!r}"
        return None if _parses(output) else "an artifact that does not parse"
    *usage, last = stderr.splitlines() or [""]
    if not last.startswith(PREFIX[code]) or usage and not usage[0].startswith("usage:"):
        return f"exit {code} with stderr {stderr!r}"
    if os.path.exists(output):
        with open(output) as handle:
            report = json.load(handle) if argv[0] == "solve" and code == 2 else {}
        if report.get("error") != "residue_obstruction":
            return f"exit {code} left {output}"
    return None


def test_every_mutant_keeps_the_exit_code_contract(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        requests, files = _requests(replay._load("inputs"))
        assert {r["argv"][0] for r in requests} == {
            "solve", "table", "integrate", "balance", "residual-scan",
            "green-check", "profile"}
        on_disk, findings = {}, []
        for i, request in enumerate(requests):
            for argv, docs in _mutants(random.Random(f"{SEED}:{i}"), request, files):
                for name, doc in docs.items():
                    if on_disk.get(name) is not doc:
                        with open(name, "w") as handle:
                            json.dump(doc, handle)
                        on_disk[name] = doc
                result = _run(argv, request["output"])
                problem = _broken(argv, request["output"], *result)
                if problem is not None:
                    findings.append(f"{' '.join(argv)} {json.dumps(docs)[:300]}: "
                                    f"{problem}")
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert findings == []
