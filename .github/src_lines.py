"""Split the lines of a source tree into code, docstrings and the rest.

    python3 .github/src_lines.py SRC

reads every `*.py` file under SRC and prints one line, `code N docstrings
M other K`.  A docstring line is a line of the string that opens a
module, class or function body, found with `ast`.  A code line is any
other line that holds a token of the program, found with `tokenize`:
comments, blank lines and the encoding are not tokens of the program.
Every other line (a comment alone on its line, or a blank line) is
"other".  Deleting a comment or a docstring shortens a file but removes
no code, so a change that deletes code shows it in the first number.
Stdlib only.
"""

import ast
import sys
import tokenize
from pathlib import Path

# tokens that hold no code of the program
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every docstring in the module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int, int]:
    """(code, docstring, other) line counts of one file."""
    text = path.read_text(encoding="utf-8")
    docs = _docstring_lines(ast.parse(text))
    code = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in _LAYOUT:
                code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docs
    total = len(text.splitlines())
    return len(code), len(docs), total - len(code) - len(docs)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 .github/src_lines.py SRC", file=sys.stderr)
        return 2
    totals = [0, 0, 0]
    for path in sorted(Path(argv[0]).rglob("*.py")):
        for i, n in enumerate(count(path)):
            totals[i] += n
    print("code {} docstrings {} other {}".format(*totals))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
