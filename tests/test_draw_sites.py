"""Every draw from a random stream is tested once, as ``draw < threshold``.

``Plan.fold_runs`` runs a batch's seeds once per distinct path of draw outcomes,
which is exact only while a draw decides nothing but one such test: a draw
scaled, printed or compared twice would let two runs with the same outcomes
differ, and the memo would hand one the other's summary. So every call of a
``random.Random`` method, or of a name bound to a stream's ``random``, must be
the left operand of a single ``<``, or be handed to the recording stream's
``_Draw``, whose ``<`` logs that test. The outage schedule's ``expovariate`` is
the one exception: ``fold_runs`` runs every seed of a plan that has one.
"""

import ast
import random

from test_checklist_writer import scopes
from test_imports import SOURCES, parse

#: Methods whose call on a stream takes a draw.
DRAWS = {name for name in dir(random.Random)
         if not name.startswith("_")} - {"VERSION", "seed", "getstate", "setstate"}
#: (module, scope) -> why a draw there need not be a test.
EXCEPTIONS = {("sensing.py", "sensor_failure_schedule"):
              "outage onsets; fold_runs runs every seed of a plan with an mtbf_s reader"}


def bound_draws(tree: ast.Module) -> set[str]:
    """Names and attributes a module binds to a stream's uncalled ``random``."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = (zip(target.elts, node.value.elts)
                         if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple)
                         else [(target, node.value)])
                bound |= {getattr(name, "id", getattr(name, "attr", None))
                          for name, value in pairs
                          if isinstance(value, ast.Attribute) and value.attr == "random"}
    return bound


def use(call: ast.Call, parent: ast.AST | None) -> str:
    """How a draw is used: ``test``, ``recorded`` or the code it sits in."""
    if (isinstance(parent, ast.Compare) and parent.left is call
            and [type(op) for op in parent.ops] == [ast.Lt]):
        return "test"
    if isinstance(parent, ast.Call) and getattr(parent.func, "id", None) == "_Draw":
        return "recorded"
    return ast.unparse(parent or call)


def draw_sites():
    """(module, scope, use) for each draw the package takes."""
    for path in SOURCES:
        tree = parse(path)
        draws = DRAWS | bound_draws(tree)
        for scope, node in scopes(tree):
            parents = {child: parent for parent in ast.walk(node)
                       for child in ast.iter_child_nodes(parent)}
            for sub in ast.walk(node):
                if isinstance(sub, ast.Call) and (
                        getattr(sub.func, "id", None) or getattr(sub.func, "attr", None)) in draws:
                    yield path.name, scope, use(sub, parents.get(sub))


def test_every_draw_is_tested_once_against_a_threshold():
    found = list(draw_sites())
    assert [site for site in found
            if site[2] not in ("test", "recorded") and site[:2] not in EXCEPTIONS] == []
    # the scan sees the bus's, the readers' and the detector's tests, the memo's walk,
    # the recording stream's own draw and the outage schedule's onsets
    assert sorted(found) == [
        ("kernel.py", "Plan.fold_runs", "test"), ("kernel.py", "_Recorder.random", "recorded"),
        ("kernel.py", "deliver", "test"), ("sensing.py", "med_scan", "test"),
        ("sensing.py", "read_tags", "test"),
        ("sensing.py", "sensor_failure_schedule", "t += rng.expovariate(1.0 / model.mtbf_s)")]
