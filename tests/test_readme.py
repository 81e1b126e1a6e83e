"""README's scenario table lists exactly the keys the loader accepts."""

import re
from pathlib import Path

from ortrack import kernel

README = Path(__file__).resolve().parent.parent / "README.md"

LOADER_KEYS = {"scenario": kernel.SCENARIO_KEYS, "item": kernel.ITEM_KEYS,
               "sensor": kernel.SENSOR_KEYS, "case": kernel.CASE_KEYS,
               "event": kernel.EVENT_KEYS, "bus": kernel.BUS_KEYS, "link": kernel.LINK_KEYS}


def readme_scenario_keys():
    """Object -> keys named in README's `| Object | Key | Type | Default |` table;
    a blank object cell continues the row above."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("| Object | Key | Type | Default |") + 2  # skip the rule row
    table, current = {}, None
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        current = cells[0] or current
        table.setdefault(current, set()).update(re.findall(r"`([^`]+)`", cells[1]))
    return table


def test_readme_scenario_table_lists_the_loader_keys():
    assert readme_scenario_keys() == LOADER_KEYS
