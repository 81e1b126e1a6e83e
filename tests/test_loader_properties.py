"""The scenario loader is total and every scenario it accepts runs cleanly.

Any JSON text given to ``load_scenario`` ends in a ``Scenario``, a
``ParseError`` or a ``ValidationError``. A scenario that loads runs to its
horizon, ``validate_trace`` accepts the trace it produces, and
``read_trace`` replays the same final cavity contents as the engine holds.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import GOLDENS, json_values, mutate_one_field, scenario_text
from ortrack.kernel import (
    ParseError,
    ValidationError,
    load_scenario,
    run,
    validate_trace,
)
from ortrack.model import Location, SubLocation
from ortrack.protocol import NODE_PRIORITY
from ortrack.trace import read_trace

FIXED = ("EquipmentRoom", "SPD")
OR_SUBS = ("ToolTray", "RoomSpace", "StaffCarried", "TrashBin", "PatientCavity")
LINK_KEYS = [f"{a}->{b}" for a in NODE_PRIORITY for b in NODE_PRIORITY]


def load_and_run(text: str):
    """The loaded scenario's trace, or None if the loader rejected the text."""
    try:
        scenario = load_scenario(text)
    except (ParseError, ValidationError):
        return None
    trace = run(scenario)
    assert validate_trace(trace) == []
    return trace


@given(json_values)
@settings(max_examples=200, deadline=None)
def test_any_json_value_loads_or_is_rejected(value):
    load_and_run(json.dumps(value))


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_golden_with_one_field_mutated_loads_or_is_rejected(data):
    obj = json.loads(scenario_text(data.draw(st.sampled_from(GOLDENS))))
    mutate_one_field(data, obj)
    load_and_run(json.dumps(obj))


@st.composite
def scenario_documents(draw):
    """A valid scenario document: several rooms, lossy readers and links, outages.

    Generalises ``helpers.random_scenario``: items take random legal moves
    between fixed sites and operating-room sub-locations, and closing and
    SPD acknowledgements arrive in any order. Returns the document and each
    tag's final (site, sub-location).
    """
    rooms = [f"OR-{k + 1}" for k in range(draw(st.integers(1, 3)))]
    tags = [f"T-{i + 1}" for i in range(draw(st.integers(1, 6)))]
    cases = [{"case_id": f"C-{room}", "room_id": room,
              "scan_passes": draw(st.integers(1, 3)), "max_rescans": draw(st.integers(0, 2))}
             for room in rooms if draw(st.booleans())]
    at = {tag: ("EquipmentRoom", "None") for tag in tags}
    events, clock = [], 0
    for _ in range(draw(st.integers(0, 30))):
        clock += draw(st.integers(0, 8))
        if cases and draw(st.integers(0, 5)) == 0:
            events.append({"t": clock, "case": draw(st.sampled_from(cases))["case_id"],
                           "kind": draw(st.sampled_from(["announce_closing", "spd_ack"]))})
            continue
        tag = draw(st.sampled_from(tags))
        site, sub = at[tag]
        moves = {("move", room, to_sub): (room, to_sub)
                 for room in rooms for to_sub in OR_SUBS if (room, to_sub) != (site, sub)}
        moves.update({("move", dest, None): (dest, "None") for dest in FIXED if dest != site})
        if sub == "PatientCavity":
            moves[("remove_from_cavity",)] = (site, "ToolTray")
        elif sub != "None":
            moves[("place_in_cavity",)] = (site, "PatientCavity")
            if sub != "TrashBin":
                moves[("discard",)] = (site, "TrashBin")
            moves.update({("carry_out", dest): (dest, "None" if dest in FIXED else "RoomSpace")
                          for dest in FIXED + tuple(rooms) if dest != site})
        move = draw(st.sampled_from(sorted(moves, key=str)))
        event = {"t": clock, "kind": move[0], "tag": tag}
        if move[0] == "move":
            event["to_site"] = move[1]
            if move[2]:
                event["to_sub"] = move[2]
        elif move[0] == "carry_out" and (move[1] != "EquipmentRoom" or draw(st.booleans())):
            event["to_site"] = move[1]
        if move[0] in ("move", "carry_out") and draw(st.booleans()):
            event["distance_m"] = draw(st.floats(0, 2.5))
        events.append(event)
        at[tag] = moves[move]

    sensor_ids = [f"entrance:{site}" for site in FIXED + tuple(rooms)] + [
        f"{role}:{room}" for role in ("tray", "bin", "med") for room in rooms]
    sensors = {}
    for sensor_id in draw(st.lists(st.sampled_from(sensor_ids), unique=True)):
        cfg = sensors[sensor_id] = {"p_detect": draw(st.floats(0.5, 1.0))}
        if draw(st.booleans()):
            cfg["range_m"] = draw(st.floats(0.2, 1.0))
        if draw(st.booleans()):
            cfg.update(mtbf_s=draw(st.floats(5, 200)), mttr_s=draw(st.integers(0, 30)))
    links = {key: draw(st.fixed_dictionaries({}, optional={
        "latency_s": st.integers(0, 5), "drop_rate": st.floats(0, 0.5)}))
        for key in draw(st.lists(st.sampled_from(LINK_KEYS), max_size=4, unique=True))}
    doc = {"name": "generated", "seed": draw(st.integers(0, 2**32)),
           "horizon_s": clock + draw(st.integers(1, 40)), "rooms": rooms,
           "items": [{"tag_id": tag, "kind": draw(st.sampled_from(
               ["Sponge", "Needle", "Blade", "Guidewire", "Instrument", "Consumable"]))}
               for tag in tags],
           "sensors": sensors, "cases": cases, "events": events,
           "bus": {"latency_s": draw(st.integers(0, 3)), "drop_rate": draw(st.floats(0, 0.3)),
                   "links": links}}
    return doc, at


@given(scenario_documents())
@settings(max_examples=150, deadline=None)
def test_generated_scenario_text_runs_to_a_valid_trace(generated):
    doc, final = generated
    trace = load_and_run(json.dumps(doc))
    assert trace is not None
    at = {tag: ("EquipmentRoom", "None") for tag in final}
    for record in trace.records:
        if record["type"] == "gt":
            at[record["tag"]] = (record["to"]["site"], record["to"]["sub"])
    assert at == final


@given(scenario_documents())
@settings(max_examples=100, deadline=None)
def test_read_trace_cavity_matches_final_world_state(generated):
    scenario = load_scenario(json.dumps(generated[0]))
    final = {}
    trace = run(scenario, observer=lambda time_s, world, engine: final.update(world=world))
    cavity = read_trace(trace).cavity
    assert set(cavity) <= set(scenario.rooms)
    for room in scenario.rooms:
        truth = (set(final["world"].tags_at(Location(room, SubLocation.PATIENT_CAVITY)))
                 if final else set())
        assert cavity.get(room, set()) == truth, room
