"""The src/ code-line count: lines holding a token other than a comment, a
blank line or a docstring.  Prints each module's count, then the total.

    python tools/code_lines.py [ROOT]

ROOT is the checkout to count, by default the one holding this script.
"""

import ast
import glob
import io
import os
import sys
import tokenize

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(text):
    """The number of lines of ``text`` that hold code."""
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, DOCUMENTED):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docs.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in SKIP and tok.start[0] not in docs:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv):
    here = os.path.dirname(os.path.abspath(__file__))
    root = argv[0] if argv else os.path.dirname(here)
    total = 0
    for path in sorted(glob.glob("src/bubble_correction/*.py", root_dir=root)):
        with open(os.path.join(root, path)) as handle:
            count = code_lines(handle.read())
        print(count, path)
        total += count
    print(total, "code lines")


if __name__ == "__main__":
    main(sys.argv[1:])
