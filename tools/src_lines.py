"""Line counts of the package sources: total and code-only, per module.

Code-only lines leave out blank lines, comment lines and the lines of
docstrings (module, class and function).  Run from the repository root:

    python tools/src_lines.py            # src/grassgeo
    python tools/src_lines.py --src other/src/grassgeo
"""

from __future__ import annotations

import argparse
import ast
from pathlib import Path

DEFAULT_SRC = Path(__file__).resolve().parents[1] / "src" / "grassgeo"


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers spanned by the docstrings of ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """``(total, code_only)`` line counts of one Python source."""
    rows = text.splitlines()
    skip = docstring_lines(ast.parse(text))
    code = sum(1 for i, row in enumerate(rows, 1)
               if i not in skip and row.strip() and not row.strip().startswith("#"))
    return len(rows), code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, default=DEFAULT_SRC,
                    help="directory of the modules to count")
    args = ap.parse_args(argv)
    total = code = 0
    for path in sorted(args.src.glob("*.py")):
        t, c = count(path.read_text(encoding="utf-8"))
        total, code = total + t, code + c
        print(f"{path.name:<16} {t:>6} {c:>6}")
    print(f"{'total':<16} {total:>6} {code:>6}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
