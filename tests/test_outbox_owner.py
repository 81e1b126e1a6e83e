"""Only the engine makes an ``Outputs``: the one outbox a run's handlers append to.

A handler that made its own, or a module that bound a shared one, would bring
back outputs that every caller must return, merge or guard against appends, so
no function outside ``kernel._Engine`` may call ``Outputs``.
"""

import ast

from test_checklist_writer import scopes
from test_imports import SOURCES, parse


def outbox_makers():
    """(module, scope, line) for each call of ``Outputs`` in the package."""
    for path in SOURCES:
        for scope, node in scopes(parse(path)):
            for sub in ast.walk(node):
                if isinstance(sub, ast.Call) and "Outputs" in (
                        getattr(sub.func, "id", None), getattr(sub.func, "attr", None)):
                    yield path.name, scope, sub.lineno


def test_only_the_engine_makes_an_outbox():
    found = list(outbox_makers())
    assert [call for call in found
            if call[0] != "kernel.py" or not call[1].startswith("_Engine.")] == []
    # the scan sees the engine's own outbox and each fork's
    assert sorted(scope for _, scope, _ in found) == ["_Engine.__init__", "_Engine.fork"]
