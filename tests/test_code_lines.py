"""``tools/code_lines.py``: the src/ code-line count and its change against
a base checkout."""

import importlib.util
from pathlib import Path

path = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", path)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)


def tree(root, modules):
    package = root / "src" / "bubble_correction"
    package.mkdir(parents=True)
    for name, text in modules.items():
        (package / name).write_text(text)
    return str(root)


def test_code_lines_skip_comments_blanks_and_docstrings():
    text = ('"""Module."""\n\n# a comment\ndef f(x):\n    """Doc."""\n'
            "    return (x +\n            1)\n")
    assert code_lines.code_lines(text) == 3


def test_each_module_and_the_total_change_against_a_base(tmp_path, capsys):
    # kept: 2 -> 1 lines; dropped: 1 line, counted 0 in the head; added:
    # 2 lines, counted 0 in the base
    base = tree(tmp_path / "base", {"kept.py": "x = 1\ny = 2\n",
                                    "dropped.py": "z = 3\n"})
    head = tree(tmp_path / "head", {"kept.py": "x = 1  # y went\n",
                                    "added.py": '"""Doc."""\nimport os\nw = os.sep\n'})
    code_lines.main([head])
    assert capsys.readouterr().out == (
        "2 src/bubble_correction/added.py\n"
        "1 src/bubble_correction/kept.py\n"
        "3 code lines\n")
    code_lines.main([head, "--base", base])
    assert capsys.readouterr().out == (
        "2 +2 src/bubble_correction/added.py\n"
        "0 -1 src/bubble_correction/dropped.py\n"
        "1 -1 src/bubble_correction/kept.py\n"
        "3 +0 code lines\n")
    code_lines.main([base, "--base", base])
    assert capsys.readouterr().out == (
        "1 +0 src/bubble_correction/dropped.py\n"
        "2 +0 src/bubble_correction/kept.py\n"
        "3 +0 code lines\n")
