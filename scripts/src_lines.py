#!/usr/bin/env python3
"""Count the code, docstring, comment and blank lines of each module of the
package, and their total, as CSV.

Each line of a module falls in exactly one column:

* blank: a line that is empty or all whitespace, inside a docstring too;
* docstring: any other line of a module, class or function docstring,
  found from the AST (the string that opens the body);
* comment: any other line that starts with ``#`` once indented;
* code: every other line, a code line with a trailing comment included.

So the four columns of a module sum to its ``wc -l``:

    python scripts/src_lines.py
    python scripts/src_lines.py path/to/another/src/spectra_theta
"""

import argparse
import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "spectra_theta"
COLUMNS = ("code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.Module) -> set[int]:
    """The 1-based numbers of the lines that docstrings span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> dict[str, int]:
    """The lines of one module's source, per column."""
    docstrings = docstring_lines(ast.parse(text))
    counts = dict.fromkeys(COLUMNS, 0)
    for number, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped:
            counts["blank"] += 1
        elif number in docstrings:
            counts["docstring"] += 1
        elif stripped.startswith("#"):
            counts["comment"] += 1
        else:
            counts["code"] += 1
    return counts


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("package", nargs="?", type=pathlib.Path, default=PACKAGE,
                        help="the package directory (default: this tree's src/spectra_theta)")
    args = parser.parse_args()
    total = dict.fromkeys(COLUMNS, 0)
    print("module," + ",".join(COLUMNS) + ",lines")
    for path in sorted(args.package.glob("*.py")):
        counts = count(path.read_text())
        for column in COLUMNS:
            total[column] += counts[column]
        print(f"{path.name}," + ",".join(str(counts[c]) for c in COLUMNS) + f",{sum(counts.values())}")
    print("total," + ",".join(str(total[c]) for c in COLUMNS) + f",{sum(total.values())}")


if __name__ == "__main__":
    main()
