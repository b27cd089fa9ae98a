"""Golden digests of the exact-tier CLI artifacts.

Each case runs ``cli.main`` in-process on a small fixed input, written out
here as JSON so that no package code makes it, and compares two sha256
digests with those recorded at earlier commits: the artifact's bytes, in the
compact one-line layout, and the bytes of the artifact re-indented as
``json.dumps(..., indent=2, sort_keys=True)`` and a newline, which is what
``python -m json.tool --indent 2 --sort-keys`` prints and what the CLI wrote
before the compact layout, so the values are pinned since then.  Refactors
must keep these artifacts byte-identical.  Float-tier artifacts (``residual-scan``, ``green-check``,
``profile``, the floats of ``integrate``) are left out: their last bits
depend on the platform's libm.  A change that alters one of these digests
on purpose is a schema change and must say so.
"""

import hashlib
import json

import pytest

from bubble_correction import cli


def poly(n, *terms):
    """Polynomial JSON from (alpha, num, den) triples."""
    return {
        "dimension": n,
        "terms": [
            {"alpha": list(alpha), "num": str(num), "den": str(den)}
            for alpha, num, den in terms
        ],
    }


def axis(n, *exponents):
    return tuple(exponents) + (0,) * (n - len(exponents))


def rat(num, den=1):
    return {"num": str(num), "den": str(den)}


# -(y1^4 - y2^4 + ... - y8^4): its top Laplacian vanishes
ALTERNATING = poly(
    8, *((tuple(4 if i == j else 0 for i in range(8)), (-1) ** (j + 1), 1)
         for j in range(8))
)
# |y|^4 in n = 8 (absorbed by the radial completion) and n = 7 (obstructed)
R4_8 = poly(8, *(
    (tuple(2 * (i == a) + 2 * (i == b) for i in range(8)), 1 if a == b else 2, 1)
    for a in range(8) for b in range(a, 8)
))
R4_7 = poly(7, *(
    (tuple(2 * (i == a) + 2 * (i == b) for i in range(7)), 1 if a == b else 2, 1)
    for a in range(7) for b in range(a, 7)
))
# Re (y1 + i y2)^6 in n = 8, degree n - 2, and its negative
HARMONIC6 = [(axis(8, 6), 1), (axis(8, 4, 2), -15), (axis(8, 2, 4), 15),
             (axis(8, 0, 6), -1)]
ZERO8 = [rat(0)] * 8
BALANCE = {
    "n": 8,
    "points": [ZERO8, [rat(3)] + [rat(0)] * 7, [rat(-3)] + [rat(0)] * 7],
    "k_values": [rat(48), rat(2), rat(2)],
    "taylor_polys": [
        poly(8),
        poly(8, *((a, c, 1) for a, c in HARMONIC6)),
        poly(8, *((a, -c, 1) for a, c in HARMONIC6)),
    ],
    "flex_vectors": [
        ZERO8,
        [rat(1, 2), rat(-1, 3)] + [rat(0)] * 6,
        [rat(-1, 2), rat(1, 3)] + [rat(0)] * 6,
    ],
    "flex_exponents": [rat(1, 13)] * 3,
    "scale_ratios": [rat(1)] * 3,
}

# name -> (argv before --output, input file contents, exit code, sha256 of
# the re-indented artifact and sha256 of its bytes, or None, None when the
# command writes no artifact)
CASES = {
    "solve-admissible": (
        ["solve", "--input", "{in}"], ALTERNATING, 0,
        "fa2bb339dbff09f0de16250eda751143534d4b3a4a702106f32521edbc6e5bed",
        "bb9cee82b8a17fc96e801b923b9b62e3758219dc51a1c0ee18bd8c12ecdef757",
    ),
    "solve-radial": (
        ["solve", "--allow-radial", "--input", "{in}"], R4_8, 0,
        "abfe356deced89846573f75ac4093e460e2f7f855f176d8ca23a850ecea7a9f6",
        "59102126ae0c725ca11cf6d66c732350888fabaa2dd458e2fe9ae2c3269ca5fb",
    ),
    "solve-obstructed": (
        ["solve", "--input", "{in}"], R4_7, 2,
        "dd0e58adad7a95b736855941300721b7f37de6e311b7bee2b25a02820415b4f7",
        "31f3b59df20fa358fe84c697c91d4ad4188247ad780858e58f525a46643c248a",
    ),
    "table": (
        ["table", "--n", "7", "--ell", "6"], None, 0,
        "6eaa696f5e16f6607c6cbdb3efab32cedd7996f0599f407841b212f65d9ab26d",
        "389cb9b7e03ea33375ff6645d9c0ac8228bb8afb8ee82c5ae8e5dd02ce26a6b5",
    ),
    "table-obstructed": (["table", "--n", "6", "--ell", "8"], None, 2, None, None),
    "balance-exact": (
        ["balance", "--input", "{in}"], BALANCE, 0,
        "28244485db4d20cfb4c45d01e8790a0f042df603f0b336b9d2d923746e91450f",
        "628ef036630636faa4e4db7a4976cb3a22457aaed86ee59c8c7bcb7cd8d3276e",
    ),
}


def run_case(tmp_path, name):
    argv, contents, *_ = CASES[name]
    source = tmp_path / "input.json"
    if contents is not None:
        source.write_text(json.dumps(contents))
    out = tmp_path / "artifact.json"
    argv = [str(source) if a == "{in}" else a for a in argv]
    code = cli.main(argv + ["--output", str(out)])
    return code, out


@pytest.mark.parametrize("name", sorted(CASES))
def test_exact_artifact_digest(tmp_path, name):
    _, _, expected_code, indented_digest, compact_digest = CASES[name]
    code, out = run_case(tmp_path, name)
    assert code == expected_code
    if compact_digest is None:
        assert not out.exists()
    else:
        data = out.read_bytes()
        assert hashlib.sha256(data).hexdigest() == compact_digest
        indented = json.dumps(json.loads(data), indent=2, sort_keys=True) + "\n"
        assert hashlib.sha256(indented.encode()).hexdigest() == indented_digest


def test_integrate_exact_multiple(tmp_path):
    # (1/3) y1^2 y2^2 + (3/2) y3^4 in n = 7: 1/3 * 1 + 3/2 * 3 = 29/6
    source = tmp_path / "p.json"
    moment = poly(7, (axis(7, 2, 2), 1, 3), (axis(7, 0, 0, 4), 3, 2))
    source.write_text(json.dumps(moment))
    out = tmp_path / "moment.json"
    assert cli.main(["integrate", "--input", str(source), "--output", str(out)]) == 0
    assert json.loads(out.read_text())["j_multiple"] == {"num": "29", "den": "6"}
