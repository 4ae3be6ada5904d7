"""Code-only line counts per module of the package.

A line counts when it holds a code token: blank lines, comment-only lines
and docstring lines (the leading string statement of a module, class or
function, found with ``ast``) do not.  Tokens come from ``tokenize``, so a
line inside a multi-line string that is not a docstring counts.

    python scripts/loc.py                      # every module of lucene_plugin_ray
    python scripts/loc.py lucene_plugin_ray/pipelines/query.py other/dir
"""

from __future__ import annotations

import argparse
import ast
import io
import pathlib
import sys
import tokenize

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers spanned by the docstrings in ``tree``."""
    out: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(
            node,
            (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
        ):
            continue
        body = node.body
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            out.update(range(body[0].lineno, body[0].end_lineno + 1))
    return out


def code_lines(source: str) -> int:
    """Number of lines of ``source`` that hold code."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument(
        "paths", nargs="*", default=["lucene_plugin_ray"],
        help="files or directories (searched for *.py)",
    )
    args = ap.parse_args(argv)
    files: list[pathlib.Path] = []
    for p in map(pathlib.Path, args.paths):
        files.extend(sorted(p.rglob("*.py")) if p.is_dir() else [p])
    total = 0
    for f in files:
        n = code_lines(f.read_text(encoding="utf-8"))
        total += n
        print(f"{n:7,d}  {f}")
    print(f"{total:7,d}  total ({len(files)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
