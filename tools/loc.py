"""Line counts of the modules of a Python package.

    python3 tools/loc.py [DIRECTORY]

For each ``*.py`` file of DIRECTORY (default ``src/normcolour``), in name
order, prints its total lines and its code lines, then the totals. A code
line is one that is not blank, not a comment and not part of a docstring:
the string that opens a module, class or function body, found with ``ast``.
Standard library only.
"""
from __future__ import annotations

import ast
import sys
from pathlib import Path

_DEFAULT = Path(__file__).resolve().parents[1] / "src" / "normcolour"


def count(source: str) -> tuple[int, int]:
    """The total lines and the code lines of one module's source."""
    lines = source.splitlines()
    docstrings: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = sum(
        1
        for k, line in enumerate(lines, 1)
        if line.strip() and not line.lstrip().startswith("#") and k not in docstrings
    )
    return len(lines), code


def main(argv: list[str]) -> int:
    directory = Path(argv[0]) if argv else _DEFAULT
    total = code = 0
    for path in sorted(directory.glob("*.py")):
        lines, code_lines = count(path.read_text(encoding="utf-8"))
        total += lines
        code += code_lines
        print(f"{path.name:<20} {lines:>6,} {code_lines:>6,}")
    print(f"{'total':<20} {total:>6,} {code:>6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
