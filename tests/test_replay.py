"""``tools/replay.py``'s manifest comparison (its ``run`` mode starts 54
children a seed, too many for Tier-1; CI runs it), and the exact tier's
artifacts against the manifest its ``pin`` mode writes."""

import collections
import importlib.util
import json
from fractions import Fraction
from pathlib import Path

import pytest

from bubble_correction import cli


def load_replay():
    path = Path(__file__).resolve().parents[1] / "tools" / "replay.py"
    spec = importlib.util.spec_from_file_location("replay", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


replay = load_replay()


def record(ident, **changes):
    base = {"id": ident, "argv": ["solve", "--input", "a.json"], "exit": 0,
            "stderr_sha256": "e3b0", "files": {"out.json": "aa"}, "check": None}
    return {**base, **changes}


def manifest(*records):
    return {"src": "src", "seeds": [1], "requests": list(records)}


def test_identical_manifests_have_no_differences():
    a = manifest(record("seed1/solve-exact/00-solve"),
                 record("seed1/light-cli/00-table"))
    assert replay.differences(a, json.loads(json.dumps(a))) == []


@pytest.mark.parametrize(
    "changes, what",
    [
        ({"exit": 1}, ["exit"]),
        ({"stderr_sha256": "ff"}, ["stderr_sha256"]),
        ({"files": {"out.json": "bb"}}, ["file out.json"]),
        ({"files": {"out.json": "aa", "extra.json": "cc"}}, ["file extra.json"]),
        ({"check": "row count"}, ["check"]),
        ({"exit": 2, "files": {}}, ["exit", "file out.json"]),
    ],
)
def test_each_differing_field_is_named(changes, what):
    a = manifest(record("r"))
    b = manifest(record("r", **changes))
    assert replay.differences(a, b) == [("r", what)]


def test_a_request_on_one_side_only_is_reported(tmp_path, capsys):
    a = manifest(record("r"), record("s"))
    b = manifest(record("r"))
    assert replay.differences(a, b) == [("s", ["only in A"])]
    paths = []
    for name, data in (("a.json", a), ("b.json", b)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(data))
    assert replay.main(["diff", *map(str, paths)]) == 1
    assert capsys.readouterr().out == "s: only in A\n1 of 2 requests differ\n"
    assert replay.main(["diff", str(paths[0]), str(paths[0])]) == 0


def test_a_file_whose_value_digest_matches_is_layout_only(tmp_path, capsys):
    value = {"b": [1, 2], "a": {"num": "1", "den": "3"}}
    compact = json.dumps(value, sort_keys=True, separators=(",", ":")).encode()
    indented = (json.dumps(value, indent=2, sort_keys=True) + "\n").encode()
    digest = replay._value_sha256(compact)
    assert digest == replay._value_sha256(indented) is not None
    assert replay._value_sha256(b'{"a": ') is None
    a = manifest(record("r", values={"out.json": digest}))
    b = manifest(record("r", files={"out.json": "bb"}, values={"out.json": digest}))
    assert replay.differences(a, b) == [("r", ["file out.json (layout only)"])]
    # a changed value, an unparsed file and a manifest without value digests
    # are plain differences
    for values in ({"out.json": "ff"}, {"out.json": None}, None):
        changes = {"files": {"out.json": "bb"}}
        if values is not None:
            changes["values"] = values
        c = manifest(record("r", **changes))
        assert replay.differences(a, c) == [("r", ["file out.json"])]
    # two files that do not parse have no value to compare
    x, y = (manifest(record("r", files={"out.json": h}, values={"out.json": None}))
            for h in ("aa", "bb"))
    assert replay.differences(x, y) == [("r", ["file out.json"])]
    # a layout-only difference is still a difference
    paths = []
    for name, data in (("a.json", a), ("b.json", b)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(data))
    assert replay.main(["diff", *map(str, paths)]) == 1
    assert capsys.readouterr().out == (
        "r: file out.json (layout only)\n1 of 1 requests differ\n")


def test_exact_artifacts_match_the_pinned_manifest(tmp_path):
    # the exact tier's requests of seeds 1 to 3 (48 solve requests, scan-float's
    # 9 set-up solves among them, 30 table and 18 balance requests), replayed
    # in-process and compared field by field with tests/exact_manifest.json,
    # which ``python3 tools/replay.py pin`` writes: exit code, stderr digest
    # and artifact sha256, and the digest of the inputs, which perfbench's
    # random.Random draws alike on Python 3.10 and 3.11.  A declared schema
    # change re-pins it.  The failing n = 9 balance configuration of each
    # seed sums its irrational classes through float powers of libm, so its
    # artifact is pinned by its exit code and verdicts only
    pinned = json.loads(Path(replay.PINNED).read_text())
    records = replay.exact_records(cli.main, pinned["seeds"], tmp_path)
    assert collections.Counter(r["argv"][0] for r in records) == {
        "solve": 48, "table": 30, "balance": 18}
    assert sum("verdicts" in r for r in records) == 3
    expected = {r["id"]: r for r in pinned["requests"]}
    assert [r["id"] for r in records] == list(expected)
    differing = [
        (r["id"], sorted(k for k in r.keys() | expected[r["id"]].keys()
                         if r.get(k) != expected[r["id"]].get(k)))
        for r in records if r != expected[r["id"]]
    ]
    assert differing == []


def solution_bytes(gamma, completion):
    """A solution artifact in n = 2 from {alpha: Fraction} parts."""

    def part(terms):
        return {"dimension": 2, "terms": [
            {"alpha": list(a), "num": str(c.numerator), "den": str(c.denominator)}
            for a, c in sorted(terms.items())]}

    value = {"gamma": part(gamma), "n": 2, "ell": 2, "verified": True,
             "vanishing_order": 2,
             "radial_completion": None if completion is None else part(completion)}
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode()


def solve_record(data):
    """The record ``run`` makes of a solve request whose artifact is ``data``."""
    return record("r", files={"out.json": replay._sha256(data)},
                  bytes={"out.json": len(data)},
                  values={"out.json": replay._value_sha256(data)},
                  totals={"out.json": replay._total_sha256(data)})


def test_a_solution_split_another_way_has_the_same_total(tmp_path, capsys):
    # gamma and the completion of the parent's split share the |y|^4-like
    # term (4, 0), which cancels in the total; a split that leaves it out of
    # both has the same total, and a changed coefficient does not
    half, one, two = Fraction(1, 2), Fraction(1), Fraction(2)
    parent = solution_bytes({(2, 0): half, (1, 1): one, (4, 0): one},
                            {(4, 0): -one, (6, 0): two})
    split = solution_bytes({(2, 0): half, (1, 1): one}, {(6, 0): two})
    changed = solution_bytes({(2, 0): half, (1, 1): one}, {(6, 0): one})
    assert replay._total_sha256(parent) == replay._total_sha256(split) is not None
    assert replay._total_sha256(changed) != replay._total_sha256(parent)
    assert replay._value_sha256(parent) != replay._value_sha256(split)
    # an obstruction report and an unparsed file have no total
    assert replay._total_sha256(b'{"error":"residue_obstruction"}') is None
    assert replay._total_sha256(b'{"gamma": ') is None
    a, b, c = (manifest(solve_record(data)) for data in (parent, split, changed))
    assert replay.differences(a, b) == [("r", ["file out.json (same total)"])]
    assert replay.differences(a, c) == [("r", ["file out.json"])]
    # diff prints each command's bytes on both sides
    paths = []
    for name, data in (("a.json", a), ("b.json", b)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(data))
    assert replay.main(["diff", *map(str, paths)]) == 1
    assert capsys.readouterr().out == (
        "r: file out.json (same total)\n"
        f"solve bytes: A {len(parent):,}, B {len(split):,}\n"
        "1 of 1 requests differ\n")
