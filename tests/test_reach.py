"""``tools/reach.py``: the functions in src/ that no benchmark request runs."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_reach_lists_the_functions_no_request_of_seed_one_runs(tmp_path):
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "reach.py"), "--seeds", "1"],
        capture_output=True, text=True, cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    never = {}
    for line in result.stdout.splitlines():
        if line.startswith("src/"):
            module = never[line.split(":")[0]] = []
        elif line.startswith("  "):
            module.append(line.split()[0])
    assert len(never) == len(list((ROOT / "src" / "bubble_correction").glob("*.py")))
    # sphere_average has no caller in src/, and eval_poly is the one float
    # kernel every scan evaluates through
    assert "sphere_average" in never["src/bubble_correction/quadrature.py"]
    assert "eval_poly" not in never["src/bubble_correction/kernels.py"]
    assert result.stdout.splitlines()[-1].endswith(" requests (seeds 1)")
    assert " 54 requests " in result.stdout.splitlines()[-1]
