"""Every status change of a cart's checklist goes through ``MtcState.mark``.

The sweep sets the kernel trusts to skip a sweep stay exact only if nothing
else writes an entry's status or makes an entry, so no other function in the
package may assign a ``.status`` attribute or call ``ChecklistEntry``.
"""

import ast

from test_imports import SOURCES, parse

WRITER = "MtcState.mark"


def scopes(tree: ast.Module):
    """(qualified name, node) for each top-level statement and each class member."""
    for top in tree.body:
        if isinstance(top, ast.ClassDef):
            for member in top.body:
                yield f"{top.name}.{getattr(member, 'name', '')}", member
        else:
            yield getattr(top, "name", ""), top


def checklist_writes():
    """(scope, where and what) for each ``.status`` assignment and ``ChecklistEntry`` call."""
    for path in SOURCES:
        for scope, node in scopes(parse(path)):
            for sub in ast.walk(node):
                targets = (sub.targets if isinstance(sub, ast.Assign) else
                           [sub.target] if isinstance(sub, (ast.AugAssign, ast.AnnAssign))
                           else [])
                if any(isinstance(leaf, ast.Attribute) and leaf.attr == "status"
                       for target in targets for leaf in ast.walk(target)):
                    yield scope, f"{path.name}:{sub.lineno} assigns .status"
                if isinstance(sub, ast.Call) and getattr(sub.func, "id", None) == "ChecklistEntry":
                    yield scope, f"{path.name}:{sub.lineno} calls ChecklistEntry"


def test_only_the_writer_sets_a_status_or_makes_an_entry():
    found = list(checklist_writes())
    assert [what for scope, what in found if scope != WRITER] == []
    # the scan sees the writer's own status write and entry construction
    assert len(found) == 2
