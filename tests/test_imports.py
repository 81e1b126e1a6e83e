"""The package declares ``dependencies = []``: it imports the standard library only."""

import ast
import sys
from pathlib import Path

import ortrack

ALLOWED = set(sys.stdlib_module_names) | {"ortrack", "__future__"}


def test_package_imports_only_the_standard_library():
    sources = sorted(Path(ortrack.__file__).parent.glob("*.py"))
    assert sources
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.partition(".")[0] not in ALLOWED]
    assert outside == []
