"""Seeded generator for a synthetic "hospital day" scenario.

Ten operating rooms run one surgery each, staggered through the day, over
a shared pool of tagged items. Every item enters its room from the
equipment room and then follows a short random walk over the legal
movements (tray, floor, cavity, bin, pocket, carry-out), so the run
exercises every sensing and bus path the simulator has:

* readers whose per-read probability is below 1;
* entrance crossings read from beyond the 0.9 m detection radius;
* MTBF/MTTR outages on a few antennas;
* a bus that drops a small share of messages;
* cavity placements (a few left in at closing), discards, pocket carries
  and carry-outs.

The output is scenario JSON text, the form ``ortrack simulate`` reads.
Only ``random.Random`` seeded from a string is used, so one seed gives the
same text in every process.
"""

from __future__ import annotations

import json
import random

KINDS = ("Sponge", "Needle", "Blade", "Guidewire", "Instrument", "Consumable")

#: Legal next steps from each item state: (operation, next state, weight).
STEPS = {
    "tray": (("place", "cavity", 4), ("discard", "bin", 3), ("pocket", "pocket", 2),
             ("carry_out", "home", 2), ("to_floor", "floor", 2)),
    "floor": (("to_tray", "tray", 4), ("place", "cavity", 2), ("discard", "bin", 2),
              ("pocket", "pocket", 1), ("carry_out", "home", 1)),
    "cavity": (("remove", "tray", 1),),
    "pocket": (("to_tray", "tray", 2), ("carry_out", "home", 3)),
    "bin": (),
    "home": (("enter", "tray", 1),),
}

CASE_STAGGER_S = 600
ENTRY_WINDOW_S = 1800
SURGERY_S = 7200
SPD_ACK_AFTER_S = 900
STAFF_RESPONSE_S = 120

P_FAR_CROSSING = 0.04   # an entry read from beyond the detection radius
P_LEFT_IN_CAVITY = 0.03  # a cavity item is still inside when closing is announced
P_STAFF_REMOVES = 0.6   # staff remove a retained item after the retention alert


def _distance(op: str, rng: random.Random) -> float:
    if op == "enter" and rng.random() < P_FAR_CROSSING:
        return round(rng.uniform(1.0, 2.5), 2)
    return round(rng.uniform(0.2, 0.85), 2)


def _event(t: int, op: str, tag: str, room: str, rng: random.Random) -> dict:
    if op in ("enter", "to_tray"):
        event = {"kind": "move", "tag": tag, "to_site": room, "to_sub": "ToolTray"}
    elif op == "to_floor":
        event = {"kind": "move", "tag": tag, "to_site": room, "to_sub": "RoomSpace"}
    elif op == "pocket":
        event = {"kind": "move", "tag": tag, "to_site": room, "to_sub": "StaffCarried"}
    elif op == "place":
        event = {"kind": "place_in_cavity", "tag": tag}
    elif op == "remove":
        event = {"kind": "remove_from_cavity", "tag": tag}
    elif op == "discard":
        event = {"kind": "discard", "tag": tag}
    else:
        event = {"kind": "carry_out", "tag": tag,
                 "to_site": "SPD" if rng.random() < 0.3 else "EquipmentRoom"}
    if op in ("enter", "carry_out"):
        event["distance_m"] = _distance(op, rng)
    event["t"] = t
    return event


def _item_events(tag: str, room: str, start: int, close: int,
                 rng: random.Random) -> list[dict]:
    """Entry plus a short legal random walk, strictly increasing in time."""
    t = start + rng.randrange(ENTRY_WINDOW_S)
    events = [_event(t, "enter", tag, room, rng)]
    state = "tray"
    for _ in range(rng.choice((1, 2, 2, 3, 3, 4))):
        steps = STEPS[state]
        if not steps or t >= close - 60:
            break
        op, state = rng.choices([s[:2] for s in steps], [s[2] for s in steps])[0]
        t = rng.randrange(t + 1, min(t + 1800, close - 30))
        events.append(_event(t, op, tag, room, rng))
    # Before closing, staff put loose items back on the tray or take them out.
    if state in ("floor", "pocket"):
        op = "to_tray" if rng.random() < 0.7 else "carry_out"
        t = rng.randrange(t + 1, close)
        events.append(_event(t, op, tag, room, rng))
    elif state == "cavity" and rng.random() >= P_LEFT_IN_CAVITY:
        t = rng.randrange(t + 1, close)
        events.append(_event(t, "remove", tag, room, rng))
        state = "tray"
    if state == "cavity" and rng.random() < P_STAFF_REMOVES:
        events.append(_event(close + STAFF_RESPONSE_S + rng.randrange(60),
                             "remove", tag, room, rng))
    return events


def generate(seed: int, rooms: int = 10, items: int = 1000) -> str:
    """Scenario JSON text for one hospital day; equal seeds give equal text."""
    rng = random.Random(f"ortrack-hospital-day:{seed}")
    room_ids = [f"OR-{k + 1}" for k in range(rooms)]
    starts = {room: 300 + k * CASE_STAGGER_S for k, room in enumerate(room_ids)}
    closes = {room: starts[room] + SURGERY_S + rng.randrange(300) for room in room_ids}

    item_specs = []
    keyed = []  # (t, room index, sequence, event) keeps equal ticks in a fixed order
    for i in range(items):
        tag = f"H-{i + 1:04d}"
        item_specs.append({"tag_id": tag, "kind": rng.choice(KINDS)})
        k = i % rooms
        room = room_ids[k]
        for event in _item_events(tag, room, starts[room], closes[room], rng):
            keyed.append((event["t"], k, len(keyed), event))
    cases = []
    for k, room in enumerate(room_ids):
        case_id = f"C-{k + 1}"
        cases.append({"case_id": case_id, "room_id": room,
                      "scan_passes": 2, "max_rescans": 2})
        for t, kind in ((closes[room], "announce_closing"),
                        (closes[room] + SPD_ACK_AFTER_S, "spd_ack")):
            keyed.append((t, k, len(keyed), {"t": t, "kind": kind, "case": case_id}))
    keyed.sort(key=lambda entry: entry[:3])

    sensors = {"entrance:EquipmentRoom": {"p_detect": 0.98},
               "entrance:SPD": {"p_detect": 0.98}}
    for room in room_ids:
        sensors[f"entrance:{room}"] = {"p_detect": round(rng.uniform(0.99, 0.999), 3)}
        sensors[f"tray:{room}"] = {"p_detect": round(rng.uniform(0.99, 0.999), 3)}
        sensors[f"bin:{room}"] = {"p_detect": round(rng.uniform(0.99, 0.999), 3)}
        sensors[f"med:{room}"] = {"p_detect": round(rng.uniform(0.85, 0.95), 3)}
    for sensor_id in rng.sample(sorted(sensors), 4):
        sensors[sensor_id].update({"mtbf_s": rng.choice((2400, 3600, 5400)),
                                   "mttr_s": rng.choice((60, 120, 240))})

    horizon = max(closes.values()) + SPD_ACK_AFTER_S + 300
    scenario = {
        "name": f"hospital-day-{seed}",
        "seed": seed,
        "horizon_s": horizon,
        "rooms": room_ids,
        "items": item_specs,
        "sensors": sensors,
        "cases": cases,
        "events": [event for *_, event in keyed],
        "bus": {"latency_s": 1, "drop_rate": 0.003},
    }
    return json.dumps(scenario, sort_keys=True) + "\n"
