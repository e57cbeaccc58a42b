"""Every public function and class of the package is used by the package itself.

A public helper that only tests call is dead code that the suite keeps
alive, so this walks the syntax trees of ``src/bellpost/*.py`` and fails on
any public module-level ``def`` or ``class`` that no module of the package
reads.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bellpost"


def _read_names(node: ast.AST) -> set[str]:
    """The names a node reads, bare (``f``) or as an attribute (``module.f``)."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            names.add(n.attr)
    return names


def unused_public_names(package: Path) -> list[str]:
    """``module.name`` of each public top-level def or class that no other
    top-level statement of any module in ``package`` reads."""
    defined, statements = [], []
    for path in sorted(package.glob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            statements.append(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not stmt.name.startswith("_"):
                    defined.append((path.stem, stmt))
    reads = {id(stmt): _read_names(stmt) for stmt in statements}
    return [
        f"{module}.{stmt.name}"
        for module, stmt in defined
        if not any(stmt.name in reads[id(other)] for other in statements if other is not stmt)
    ]


def test_every_public_name_is_used_by_the_package():
    assert unused_public_names(PACKAGE) == []


def test_a_helper_only_tests_call_is_found(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used(): return helper()\n"
        "def helper(): return 1\n"
        "def recursive(n): return recursive(n - 1)\n"
        "def only_imported(): pass\n"
        "class Unused: pass\n"
        "def _private(): pass\n"
    )
    (tmp_path / "b.py").write_text("from .a import only_imported\nimport a\nx = a.used\n")
    assert unused_public_names(tmp_path) == ["a.recursive", "a.only_imported", "a.Unused"]
