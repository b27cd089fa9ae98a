"""``tools/replay.py``'s manifest comparison (its ``run`` mode starts 54
children a seed, too many for Tier-1; CI runs it)."""

import importlib.util
import json
from pathlib import Path

import pytest


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
