"""Ground-truth world: registration, movement, rebuilding it from a trace."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import load_bundled, random_scenario
from ortrack.kernel import run
from ortrack.model import (
    EQUIPMENT_ROOM,
    Location,
    SubLocation,
    WorldState,
)

GOLDENS = ("clean_case", "sponge_in_cavity", "sponge_in_cavity_recovered",
           "pocket_carry", "new_equipment", "dropped_link", "cavity_retention")


def _created(tags: list[str]) -> WorldState:
    """A world holding ``tags`` in the equipment room in creation order, as the kernel
    builds one: each tag's creation index, all the tags in one location list."""
    home = Location(EQUIPMENT_ROOM)
    return WorldState(dict.fromkeys(tags, home), {home: list(tags)},
                      {tag: idx for idx, tag in enumerate(tags)})


def test_create_item_starts_in_equipment_room():
    world = _created(["T-001"])
    assert world.placements["T-001"] == Location(EQUIPMENT_ROOM)
    assert world.placements["T-001"].sub is SubLocation.NONE


def test_ten_creations_all_placed():
    world = _created([f"T-{i:03d}" for i in range(10)])
    assert len(world.placements) == 10
    assert all(loc == Location(EQUIPMENT_ROOM) for loc in world.placements.values())


def test_apply_ground_truth_moves_item():
    world = _created(["T-1"])
    world.apply_ground_truth("T-1", Location("OR-1", SubLocation.TOOL_TRAY))
    world.apply_ground_truth("T-1", Location("OR-1", SubLocation.PATIENT_CAVITY))
    assert world.placements["T-1"].sub is SubLocation.PATIENT_CAVITY
    assert world.tags_at(Location("OR-1", SubLocation.PATIENT_CAVITY)) == ["T-1"]
    assert world.tags_at(Location("OR-1", SubLocation.TOOL_TRAY)) == []


def test_sub_location_only_in_operating_room():
    for site in (EQUIPMENT_ROOM, "SPD"):
        with pytest.raises(ValueError):
            Location(site, SubLocation.TOOL_TRAY)
    assert Location("OR-3", SubLocation.TRASH_BIN).sub is SubLocation.TRASH_BIN


def test_location_is_its_site_and_sub():
    location = Location("OR-3", sub=SubLocation.TRASH_BIN)
    assert (location.site, location.sub) == ("OR-3", SubLocation.TRASH_BIN)
    assert location == Location("OR-3", SubLocation.TRASH_BIN)
    assert hash(location) == hash(Location("OR-3", SubLocation.TRASH_BIN))
    assert location != Location("OR-3", SubLocation.TOOL_TRAY)
    assert location.to_json() == {"site": "OR-3", "sub": "TrashBin"}
    assert Location("SPD").sub is SubLocation.NONE


# A little walk machine for the index properties: at each step
# some item moves to a random spot, or back to where it was before its last
# move, so items leave locations and come back to them.

_SPOTS = [Location(EQUIPMENT_ROOM), Location("SPD"),
          Location("OR-1", SubLocation.TOOL_TRAY),
          Location("OR-1", SubLocation.TRASH_BIN),
          Location("OR-1", SubLocation.PATIENT_CAVITY),
          Location("OR-1", SubLocation.STAFF_CARRIED),
          Location("OR-1", SubLocation.ROOM_SPACE)]

_WALKS = (st.integers(1, 6),
          st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=40))


def _scan(world: WorldState, location: Location) -> list[str]:
    """``tags_at`` as a scan of every placement: the index must agree with it."""
    return [tag for tag, loc in world.placements.items() if loc == location]


def _walk(n_items: int, steps: list[tuple[int, int]], after_step=None) -> WorldState:
    world = _created([f"T-{i}" for i in range(n_items)])
    previous: dict[str, Location] = {}
    for item_idx, spot_idx in steps:
        tag = f"T-{item_idx % n_items}"
        src = world.placements[tag]
        if spot_idx < len(_SPOTS):
            dst = _SPOTS[spot_idx]
        else:
            dst = previous.get(tag, _SPOTS[0])
        if dst == src:
            continue
        world.apply_ground_truth(tag, dst)
        previous[tag] = src
        if after_step is not None:
            after_step(world, tag)
    return world


def _location(obj: dict) -> Location:
    return Location(obj["site"], SubLocation(obj["sub"]))


def _rebuild(trace) -> WorldState:
    """A fresh world given the trace's ``meta`` items, then moved by its ``gt`` records,
    each of which starts where the item is."""
    world = WorldState()
    for record in trace.records:
        if record["type"] == "meta":
            world = _created([item["tag"] for item in record["items"]])
        elif record["type"] == "gt":
            assert world.placements[record["tag"]] == _location(record["from"])
            world.apply_ground_truth(record["tag"], _location(record["to"]))
    return world


def test_trace_rebuilds_final_world():
    """The trace is the move log: replaying it gives the engine's final world."""
    scenarios = [load_bundled(name) for name in GOLDENS] + [random_scenario(s)
                                                            for s in range(50)]
    for scenario in scenarios:
        final = {}
        trace = run(scenario, observer=lambda time_s, world, engine: final.update(world=world))
        assert final, scenario.name
        world, rebuilt = final["world"], _rebuild(trace)
        assert rebuilt.placements == world.placements, scenario.name
        for location in set(world.at) | set(rebuilt.at):
            assert rebuilt.tags_at(location) == world.tags_at(location), scenario.name


@given(*_WALKS)
@settings(max_examples=200)
def test_conservation_of_items(n_items, steps):
    world = _walk(n_items, steps)
    # every item is in exactly one place at every point in the walk
    assert len(world.placements) == n_items
    counts = {}
    for loc in world.placements.values():
        counts[loc] = counts.get(loc, 0) + 1
    assert sum(counts.values()) == n_items


@given(*_WALKS)
@settings(max_examples=200)
def test_tags_at_index_matches_scan(n_items, steps):
    def check(world: WorldState, tag: str) -> None:
        assert [world.tags_at(s) for s in _SPOTS] == [_scan(world, s) for s in _SPOTS]

    world = _walk(n_items, steps, after_step=check)
    assert [world.tags_at(s) for s in _SPOTS] == [_scan(world, s) for s in _SPOTS]


def test_tags_at_cost_does_not_grow_with_item_count(monkeypatch):
    """One read of a location compares locations a constant number of times."""
    world = _created([f"T-{i}" for i in range(10_000)])
    world.apply_ground_truth("T-4999", Location("OR-1", SubLocation.TOOL_TRAY))
    calls = []
    original = Location.__eq__

    def counting_eq(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(Location, "__eq__", counting_eq)
    assert world.tags_at(Location("OR-1", SubLocation.TOOL_TRAY)) == ["T-4999"]
    assert len(calls) <= 2
