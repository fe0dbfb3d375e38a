"""Count the code lines of a Python source tree.

A code line holds a token other than a comment, outside docstrings: blank
lines, comment lines and the lines of module, class and function docstrings
are not counted, and a multi-line string or bracket counts every line it
spans that holds a token.  Prints one line per module and the total; it
checks nothing.

    python tools/code_lines.py [DIR]    # DIR defaults to the package, src/rtangle
"""
from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines of the source file ``path``."""
    with tokenize.open(path) as fh:
        source = fh.read()
        fh.seek(0)
        tokens = list(tokenize.generate_tokens(fh.readline))
    lines = set()
    for tok in tokens:
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1] / "src" / "rtangle"
    if not root.is_dir():
        print(f"code_lines: {root} is not a directory", file=sys.stderr)
        return 2
    total = 0
    for path in sorted(root.rglob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{n:6d}  {path.relative_to(root.parent)}")
    print(f"{total:6d}  {root.name} (total)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
