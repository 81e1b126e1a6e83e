"""One walk reads a trace and decides whether it is valid: ``trace.read_trace``.

A second walk over the records would keep its own idea of a valid trace, and drift
from the reader's, so in the package only ``read_trace`` and ``Trace.to_ndjson``,
which writes each record out, may loop over a trace's ``.records``.
"""

import ast

from test_checklist_writer import scopes
from test_imports import SOURCES, parse


def records_loops():
    """(module, scope, line) for each ``for`` loop or comprehension over a ``.records``."""
    for path in SOURCES:
        for scope, node in scopes(parse(path)):
            for sub in ast.walk(node):
                if isinstance(sub, (ast.For, ast.comprehension)) and any(
                        isinstance(leaf, ast.Attribute) and leaf.attr == "records"
                        for leaf in ast.walk(sub.iter)):
                    yield path.stem, scope, sub.iter.lineno


def test_only_read_trace_and_to_ndjson_loop_over_a_traces_records():
    found = list(records_loops())
    assert sorted({(module, scope) for module, scope, _ in found}) == [
        ("trace", "Trace.to_ndjson"), ("trace", "read_trace")], found
