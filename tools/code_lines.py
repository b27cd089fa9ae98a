"""The src/ code-line count: lines holding a token other than a comment, a
blank line or a docstring.  Prints each module's count, then the total.

    python tools/code_lines.py [ROOT] [--base BASE]

ROOT is the checkout to count, by default the one holding this script.
With ``--base``, BASE is a second checkout (say, the base commit of a
change) and each line also gives the change against it, a module found in
one checkout only counting 0 lines in the other.
"""

import argparse
import ast
import glob
import io
import os
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


def module_counts(root):
    """{path under ``root``: code lines} for the package's modules."""
    counts = {}
    for path in sorted(glob.glob("src/bubble_correction/*.py", root_dir=root)):
        with open(os.path.join(root, path)) as handle:
            counts[path] = code_lines(handle.read())
    return counts


def main(argv=None):
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root", nargs="?", default=os.path.dirname(here),
                        help="the checkout to count")
    parser.add_argument("--base", help="a checkout to print the change against")
    args = parser.parse_args(argv)
    counts = module_counts(args.root)
    if args.base is None:
        for path, count in counts.items():
            print(count, path)
        print(sum(counts.values()), "code lines")
        return
    base = module_counts(args.base)
    for path in sorted(counts.keys() | base.keys()):
        count = counts.get(path, 0)
        print(count, f"{count - base.get(path, 0):+d}", path)
    total = sum(counts.values())
    print(total, f"{total - sum(base.values()):+d}", "code lines")


if __name__ == "__main__":
    main()
