"""End-to-end benchmark of the ``bubble-correction`` command line.

Usage (from the repository root):

    python3 perfbench/run.py --workload solve-exact --seed 1 --seconds 30 --trace 0

Workloads: solve-exact, scan-float, light-cli (see BENCHMARK.json for why).

With ``--trace 0`` one client runs a closed loop, one request in flight, and
starts a fresh ``python -m bubble_correction.cli`` child per request, so
interpreter start and imports count.  The request list is a whole number of
rounds, sized from ``--seconds`` by the nominal round time below, so a run
does the same work on every seed and on every commit.  With ``--trace 1``
the same requests are replayed in-process through ``cli.main(argv)``, each
once untraced and once traced, and the per-layer figures come from the
traced calls; a start-up probe times bare interpreter start and the
package's import.

Every output is checked by ``checks.py`` after the loop.  The last line of
stdout is one JSON object: correct, attempted, failed and the metrics.  A
results file with provenance, per-request records and (traced) spans is
written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import importlib.util
import io
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import inputs  # noqa: E402

# Typical wall time of one round through the CLI, measured when the
# benchmark was written on a 2-core x86-64 VM (Python 3.11, numpy 2.4, no
# numba; rounds took 8.7-9.8, 9.6-11.3 and 7.0-9.6 s).  Only used to turn
# --seconds into a fixed round count: 3 rounds each at 30 s.
ROUND_SECONDS = {"solve-exact": 9.5, "scan-float": 10.5, "light-cli": 9.0}
# set-up runs at least SETUP_MIN and at most SETUP_MAX times, stopping once
# SETUP_BUDGET_S is spent; setup_s is the median
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 9, 6.0
PROBE_REPEATS = 7
# a request still running after REQUEST_TIMEOUT_S, or past RUN_LIMIT_S from
# the start of the run, is killed and fails; none starts after
# RUN_DEADLINE_S, so a run of a much slower program still ends in time
REQUEST_TIMEOUT_S, RUN_DEADLINE_S, RUN_LIMIT_S = 60.0, 120.0, 160.0
TAIL_BEYOND = 10  # samples beyond the tail percentile


def _rounds(workload, seconds):
    return max(1, round(seconds / ROUND_SECONDS[workload]))


# ------------------------------------------------------------------ set-up


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, cwd, timeout=REQUEST_TIMEOUT_S):
    """Run one CLI request; returns (seconds, exit code or None on timeout,
    peak RSS in KiB, stderr text)."""
    err_path = os.path.join(cwd, ".stderr")
    with open(err_path, "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv], cwd=cwd, env=_child_env(),
            stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        text = err.read().decode(errors="replace")
    code = None if proc.returncode < 0 else proc.returncode
    return elapsed, code, usage.ru_maxrss, text


CLI = ["-m", "bubble_correction.cli"]


def request_argv(request, output):
    """The request's CLI arguments with its ``--output`` replaced."""
    argv = list(request["argv"])
    argv[argv.index("--output") + 1] = output
    return argv


def setup(workload, seed, work, rounds):
    """Write every input of the run into ``work``; for scan-float also run
    the ``solve`` requests that make the solutions.  Returns the request
    list and the set-up requests (checked like the others)."""
    rng = random.Random(seed)
    made = []
    if workload == "solve-exact":
        requests = [r for i in range(rounds) for r in inputs.solve_round(rng, f"r{i}")]
    elif workload == "light-cli":
        requests = [r for i in range(rounds) for r in inputs.light_round(rng, f"r{i}")]
    else:
        solutions = {}
        for request, (name, *_) in zip(inputs.scan_setup(rng), inputs.SCAN_SOLUTIONS):
            inputs.write_files(request, work)
            _, code, _, _ = run_child(CLI + request["argv"], work)
            made.append((request, code))
            with open(os.path.join(work, request["output"])) as handle:
                solutions[name] = json.load(handle)
        requests = [r for i in range(rounds)
                    for r in inputs.scan_round(rng, f"r{i}", solutions)]
    for request in requests:
        inputs.write_files(request, work)
    return requests, made


# ------------------------------------------------------------ measurement


def first_of_each_kind(requests):
    first = {}
    for request in requests:
        first.setdefault(request["kind"], request)
    return list(first.values())


def _past_deadline(started):
    return time.perf_counter() - started > RUN_DEADLINE_S


def _not_started(request):
    return {"kind": request["kind"], "code": None,
            "reason": "not started: run deadline"}


def closed_loop(requests, work, started):
    # one untimed child per request kind loads what that kind imports into
    # the page cache, so the first timed request of a kind does not pay it
    for request in first_of_each_kind(requests):
        run_child(CLI + request_argv(request, request["output"] + ".warm"), work)
    records = []
    loop_start = time.perf_counter()
    for request in requests:
        if _past_deadline(started):
            records.append(_not_started(request))
            continue
        offset = time.perf_counter() - loop_start
        limit = RUN_LIMIT_S - (time.perf_counter() - started)
        elapsed, code, rss_kib, err = run_child(
            CLI + request["argv"], work, timeout=min(REQUEST_TIMEOUT_S, limit))
        out = os.path.join(work, request["output"])
        records.append({
            "kind": request["kind"], "code": code, "start": offset,
            "seconds": elapsed,
            "rss_kib": rss_kib,
            "output_bytes": os.path.getsize(out) if os.path.exists(out) else 0,
            "stderr": err[-300:],
        })
    return records


def _in_process(request, output):
    from bubble_correction import cli

    argv = request_argv(request, output)
    stderr = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash is a failed request, not a lost run
        code = None
        stderr.write(repr(exc))
    return time.perf_counter() - start, code, stderr.getvalue()


def traced_replay(requests, work, started):
    """Each request once untraced and once traced, alternating which goes
    first; returns records for both passes, the two time totals and the
    tracer holding the spans."""
    import tracer as tracing

    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import bubble_correction.cli  # noqa: F401  (load every module first)

    tracer = tracing.Tracer()
    totals = {"plain": 0.0, "traced": 0.0}
    records = []
    cwd = os.getcwd()
    os.chdir(work)
    try:
        # one untimed call per request kind finishes lazy imports and fills
        # caches, so that neither pass pays for them
        for request in first_of_each_kind(requests):
            _in_process(request, request["output"] + ".warm")
        for i, request in enumerate(requests):
            if _past_deadline(started):
                records += [_not_started(request), _not_started(request)]
                continue
            order = ("plain", "traced") if i % 2 == 0 else ("traced", "plain")
            for mode in order:
                output = request["output"] + (".traced" if mode == "traced" else "")
                if mode == "traced":
                    tracer.request = i
                    tracer.install()
                try:
                    elapsed, code, err = _in_process(request, output)
                finally:
                    tracer.uninstall()
                totals[mode] += elapsed
                records.append({"kind": request["kind"], "mode": mode,
                                "code": code, "seconds": elapsed,
                                "output": output, "stderr": err[-300:]})
    finally:
        os.chdir(cwd)
    return records, totals, tracer


def startup_probe(work):
    """Median wall time of a bare interpreter and of importing the CLI."""
    bare, loaded = [], []
    for _ in range(PROBE_REPEATS):
        bare.append(run_child(["-c", "pass"], work)[0])
        loaded.append(run_child(["-c", "import bubble_correction.cli"], work)[0])
    interp = statistics.median(bare)
    return interp * 1e3, (statistics.median(loaded) - interp) * 1e3


# ---------------------------------------------------------------- checking


def check_all(pairs, work):
    """pairs: (request, record) with the record's code and output name.
    Marks each record with its check result; returns the self-test table."""
    accepted = {}
    for request, record in pairs:
        path = os.path.join(work, record.get("output", request["output"]))
        reason = record.get("reason") or checks.check(request, record["code"], path)
        record["check"] = reason or "ok"
        if reason is None and os.path.exists(path):
            accepted.setdefault(request["kind"], (request, record["code"], path))
    return {kind: "rejected" if checks.self_test(*args) else "NOT REJECTED"
            for kind, args in sorted(accepted.items())}


# ----------------------------------------------------------------- results


def tail(latencies):
    """The value at the highest percentile with at least TAIL_BEYOND samples
    beyond it (the smallest value for short runs), that percentile and the
    number of samples beyond it."""
    ordered = sorted(latencies)
    index = max(0, len(ordered) - TAIL_BEYOND - 1)
    return {"value": ordered[index], "percentile": 100.0 * (index + 1) / len(ordered),
            "beyond": len(ordered) - 1 - index, "samples": len(ordered)}


def round_rate(records, rounds):
    """Median over rounds of requests completed per second of round wall
    time; each round holds the whole request mix once."""
    size = len(records) // rounds
    rates = []
    for k in range(rounds):
        timed = [r for r in records[k * size:(k + 1) * size] if "seconds" in r]
        if timed:
            wall = timed[-1]["start"] + timed[-1]["seconds"] - timed[0]["start"]
            rates.append(len(timed) / wall)
    return statistics.median(rates) if rates else 0.0


def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.exists(head):
        return None
    with open(head) as handle:
        ref = handle.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.exists(path):
        with open(path) as handle:
            return handle.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.exists(packed):
        with open(packed) as handle:
            for line in handle:
                if line.strip().endswith(ref[5:]):
                    return line.split()[0]
    return None


def _source_digest():
    digest = hashlib.sha256()
    package = os.path.join(SRC, "bubble_correction")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def provenance(args, requests, rounds):
    counts = {}
    for request in requests:
        counts[request["kind"]] = counts.get(request["kind"], 0) + 1
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "numba": "absent" if importlib.util.find_spec("numba") is None else "present",
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": rounds,
        "requests": len(requests),
        "requests_per_kind": counts,
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(ROUND_SECONDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "bubble_correction", "cli.py")):
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    rounds = _rounds(args.workload, args.seconds)
    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        # fill the bytecode and file caches before set-up is timed
        run_child(CLI + ["--help"], work)
        setup_times = []
        while not setup_times or not args.trace and (
                len(setup_times) < SETUP_MIN
                or len(setup_times) < SETUP_MAX and sum(setup_times) < SETUP_BUDGET_S):
            t0 = time.perf_counter()
            requests, made = setup(args.workload, args.seed, work, rounds)
            setup_times.append(time.perf_counter() - t0)
        result = {"provenance": provenance(args, requests, rounds)}
        pairs = [(r, {"kind": "setup-" + r["kind"], "code": code}) for r, code in made]

        if args.trace:
            interp_ms, import_ms = startup_probe(work)
            records, totals, tracer = traced_replay(requests, work, started)
            pairs += list(zip([r for r in requests for _ in range(2)], records))
            metrics = {name: _metric(v, unit)
                       for name, (v, unit) in tracer.layer_metrics().items()}
            metrics["cli.interp_ms"] = _metric(interp_ms, "ms")
            metrics["cli.import_ms"] = _metric(import_ms, "ms")
            metrics["trace.overhead_pct"] = _metric(
                100.0 * (totals["traced"] - totals["plain"]) / totals["plain"], "%")
            result["replay_seconds"] = totals
        else:
            records = closed_loop(requests, work, started)
            pairs += list(zip(requests, records))
            done = [r["seconds"] for r in records if "seconds" in r]
            result["latency_tail"] = tail(done)
            metrics = {
                "setup_s": _metric(statistics.median(setup_times), "s"),
                "req_per_s": _metric(round_rate(records, rounds), "1/s"),
                "latency_p50_ms": _metric(statistics.median(done) * 1e3, "ms"),
                "latency_tail_ms": _metric(result["latency_tail"]["value"] * 1e3, "ms"),
                "peak_rss_mb": _metric(max((r["rss_kib"] for r in records if "rss_kib" in r), default=0) / 1024, "MB"),
                "output_kb": _metric(sum(r.get("output_bytes", 0) for r in records) / 1024, "KB"),
            }

        self_tests = check_all(pairs, work)
        attempted = len(pairs)
        failed = sum(record["check"] != "ok" for _, record in pairs)
        if not args.trace:
            metrics["success_ratio"] = _metric((attempted - failed) / attempted, "ratio")
        correct = failed == 0 and all(v == "rejected" for v in self_tests.values())
        result.update({
            "setup_seconds": setup_times,
            "fail_ratio": failed / attempted,
            "check_self_tests": self_tests,
            "metrics": metrics,
            "records": [record for _, record in pairs],
        })
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        with open(os.path.join(out_dir, stem + ".json"), "w") as handle:
            json.dump(result, handle, indent=1)
        if args.trace:
            with open(os.path.join(out_dir, stem + "-spans.json"), "w") as handle:
                json.dump(tracer.spans_json(), handle)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
