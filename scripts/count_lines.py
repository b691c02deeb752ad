#!/usr/bin/env python3
"""Count the lines of each package module as code, docstring, comment or blank.

A docstring line is one spanned by a module, class or function docstring:
the string literal that is the first statement of its body, blank lines
inside it included. A comment line holds a comment and no code. A blank line
holds only whitespace outside any docstring. Every other line is code, so
the four counts of a file sum to its line count.

Run from the repository root:

    python3 scripts/count_lines.py [FILE ...]

Without arguments it counts every ``src/sensor_shapley/*.py``.
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KINDS = ("code", "docstring", "comment", "blank")
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
LAYOUT = (tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENDMARKER)


def docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, DOCUMENTED) or not node.body:
            continue
        first = node.body[0]
        if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
            if isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> dict[str, int]:
    """The four counts of one module's source text."""
    docstrings = docstring_lines(ast.parse(text))
    code, comments = set(), set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type == tokenize.COMMENT:
            comments.add(token.start[0])
        elif token.type not in LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), start=1):
        if number in docstrings:
            counts["docstring"] += 1
        elif number in comments and number not in code:
            counts["comment"] += 1
        elif number in code or line.strip():  # a lone backslash is code too
            counts["code"] += 1
        else:
            counts["blank"] += 1
    return counts


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*", type=Path)
    args = parser.parse_args(argv)
    files = args.files or sorted((ROOT / "src" / "sensor_shapley").glob("*.py"))
    print(f"{'module':<16}{'lines':>7}" + "".join(f"{k:>11}" for k in KINDS))
    totals = dict.fromkeys(KINDS, 0)
    for path in files:
        counts = count(path.read_text(encoding="utf-8"))
        for kind in KINDS:
            totals[kind] += counts[kind]
        row = "".join(f"{counts[k]:>11}" for k in KINDS)
        print(f"{path.name:<16}{sum(counts.values()):>7}{row}")
    row = "".join(f"{totals[k]:>11}" for k in KINDS)
    print(f"{'total':<16}{sum(totals.values()):>7}{row}")


if __name__ == "__main__":
    main()
