"""The package declares ``dependencies = []``: it imports the standard library only.

Its modules import one another at the top only, and the trace's modules sit
below the engine: ``reconcile`` and ``trace`` import nothing from ``kernel``.
"""

import ast
import sys
from pathlib import Path

import ortrack

ALLOWED = set(sys.stdlib_module_names) | {"ortrack", "__future__"}
PACKAGE = Path(ortrack.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def imported(tree: ast.AST):
    """Each module an import below ``tree`` names, as ``ortrack.<name>`` if relative."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module
        elif isinstance(node, ast.ImportFrom):
            yield from ([f"ortrack.{node.module}"] if node.module
                        else [f"ortrack.{alias.name}" for alias in node.names])


def test_package_imports_only_the_standard_library():
    assert SOURCES
    outside = [f"{path.name}: {name}" for path in SOURCES for name in imported(parse(path))
               if name.partition(".")[0] not in ALLOWED]
    assert outside == []


def test_no_module_imports_inside_a_function():
    inside = [f"{path.name}: {func.name} imports {name}" for path in SOURCES
              for func in ast.walk(parse(path))
              if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
              for name in imported(func)]
    assert inside == []


def test_reconcile_and_trace_import_nothing_from_kernel():
    for name in ("reconcile", "trace"):
        assert "ortrack.kernel" not in set(imported(parse(PACKAGE / f"{name}.py"))), name
