"""Count the code lines of each module of src/qcap, then their total.

A code line is a non-blank line that is neither a comment nor part of a
module, class or function docstring.  Modules are printed largest first:

    PYTHONPATH=src python scripts/code_lines.py
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qcap"


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_text(encoding="utf-8")
    skipped = docstring_lines(ast.parse(source))
    return sum(1 for number, line in enumerate(source.splitlines(), 1)
               if line.strip() and not line.lstrip().startswith("#") and number not in skipped)


def main() -> None:
    counts = {path.stem: code_lines(path) for path in PACKAGE.glob("*.py")}
    for name, count in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print(f"{name:16} {count}")
    print(f"{'total':16} {sum(counts.values())}")


if __name__ == "__main__":
    main()
