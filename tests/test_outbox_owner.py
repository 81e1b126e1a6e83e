"""Only the engine makes an ``Outputs``: the one outbox a run's handlers append to.

A handler that made its own, or a module that bound a shared one, would bring
back outputs that every caller must return, merge or guard against appends, so
no function outside ``kernel._Engine`` may call ``Outputs``. The outbox is also
every node's one way out: only ``_Engine._emit``, which carries it out, sends a
message or records an alert or a phase change.
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
    # the scan sees the engine's own outbox
    assert [scope for _, scope, _ in found] == ["_Engine.__init__"]


def record_type(node: ast.Dict):
    """The constant value of a dict literal's ``"type"`` key, if it has one."""
    for key, value in zip(node.keys, node.values):
        if isinstance(key, ast.Constant) and key.value == "type" and isinstance(
                value, ast.Constant):
            return value.value


def engine_exits():
    """(scope, where and what) for each call of ``_send`` and each ``alert`` or
    ``phase`` record literal in the package."""
    for path in SOURCES:
        for scope, node in scopes(parse(path)):
            for sub in ast.walk(node):
                if isinstance(sub, ast.Call) and "_send" in (
                        getattr(sub.func, "id", None), getattr(sub.func, "attr", None)):
                    yield scope, f"{path.name}:{sub.lineno} calls _send"
                elif isinstance(sub, ast.Dict) and record_type(sub) in ("alert", "phase"):
                    yield scope, f"{path.name}:{sub.lineno} builds an {record_type(sub)} record"


def test_only_emit_sends_a_message_or_records_an_alert_or_a_phase():
    found = list(engine_exits())
    assert [what for scope, what in found if scope != "_Engine._emit"] == []
    # the scan sees _emit's one send, alert record and phase record
    assert len(found) == 3
