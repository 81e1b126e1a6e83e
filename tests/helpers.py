"""Shared test utilities: bundled scenarios and a random scenario generator."""

from __future__ import annotations

import random
from importlib import resources

from hypothesis import strategies as st

from ortrack import kernel
from ortrack.kernel import BusConfig, CaseSpec, ItemSpec, Scenario, StaffEvent
from ortrack.model import ItemKind
from ortrack.protocol import Outputs
from ortrack.sensing import SensorModel

OR = "OR-1"
SENSOR_IDS = ("entrance:EquipmentRoom", "entrance:SPD", f"entrance:{OR}",
              f"tray:{OR}", f"bin:{OR}", f"med:{OR}")

#: Any JSON value, small: what a mutation writes in place of a field.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=12)

#: Names of the bundled golden scenarios.
GOLDENS = sorted(path.name.removesuffix(".json") for path in
                 resources.files("ortrack").joinpath("data/scenarios").iterdir())


def _paths(obj, prefix=()):
    if isinstance(obj, (dict, list)):
        keys = obj.keys() if isinstance(obj, dict) else range(len(obj))
        for key in keys:
            yield prefix + (key,)
            yield from _paths(obj[key], prefix + (key,))


def mutate_one_field(data, obj) -> None:
    """Replace, delete or add one value somewhere below ``obj``, drawn from ``data``."""
    *parents, key = data.draw(st.sampled_from(list(_paths(obj))))
    target = obj
    for parent in parents:
        target = target[parent]
    action = data.draw(st.sampled_from(["replace", "delete", "add"]))
    if action == "replace":
        target[key] = data.draw(json_values)
    elif action == "delete":
        del target[key]
    elif isinstance(target, dict):
        target[data.draw(st.text(max_size=8))] = data.draw(json_values)
    else:
        target.insert(key, data.draw(json_values))


def scenario_text(name: str) -> str:
    return resources.files("ortrack").joinpath(f"data/scenarios/{name}.json").read_text()


def load_bundled(name: str) -> Scenario:
    return kernel.load_scenario(scenario_text(name))


def handled(handler, *args, **kwargs) -> Outputs:
    """What one call of ``handler`` appends to a fresh outbox."""
    out = Outputs()
    handler(*args, **kwargs, out=out)
    return out


def full_sensor_suite(p_detect: float = 1.0) -> dict[str, SensorModel]:
    return {sid: SensorModel(p_detect=p_detect) for sid in SENSOR_IDS}


def one_room(events: list[StaffEvent], bus: BusConfig = BusConfig()) -> Scenario:
    """One room, one case, two sponges and perfect readers."""
    return Scenario(name="one-room", seed=0, horizon_s=60, rooms=[OR],
                    items=[ItemSpec("T-1", ItemKind.SPONGE), ItemSpec("T-2", ItemKind.SPONGE)],
                    sensors=full_sensor_suite(), cases=[CaseSpec("C-1", OR)],
                    events=events, bus=bus)


def random_scenario(seed: int, *, p_detect: float = 1.0, drop_rate: float = 0.0,
                    latency_s: int = 1) -> Scenario:
    """A random but valid single-room surgery.

    Items wander between equipment room, tray, cavity, pockets and bin;
    most runs announce closing, half of those clean the cavity first, and
    half of the dirty ones have staff respond to the retention alert.
    """
    rng = random.Random(seed)
    tags = [f"T-{i + 1}" for i in range(rng.randint(1, 5))]
    items = [ItemSpec(tag_id=tag, kind=rng.choice(list(ItemKind))) for tag in tags]
    state = {tag: "home" for tag in tags}
    events: list[StaffEvent] = []
    clock = 0
    entered_any = False

    def emit(**kwargs) -> None:
        nonlocal clock
        clock += 10
        events.append(StaffEvent(time_s=clock, **kwargs))

    for tag in tags:
        if rng.random() < 0.8:
            emit(kind="move", tag=tag, to_site=OR, to_sub="ToolTray")
            state[tag] = "tray"
            entered_any = True

    for _ in range(rng.randint(0, 8)):
        choices = []
        for tag in tags:
            at = state[tag]
            if at == "home":
                choices.append((tag, "enter"))
            elif at == "tray":
                choices += [(tag, "place"), (tag, "discard"),
                            (tag, "pocket"), (tag, "carry_out")]
            elif at == "cavity":
                choices.append((tag, "remove"))
            elif at in ("pocket", "floor"):
                choices += [(tag, "to_tray"), (tag, "carry_out")]
        if not choices:
            break
        tag, op = rng.choice(choices)
        if op == "enter":
            sub = rng.choice(["ToolTray", "RoomSpace"])
            emit(kind="move", tag=tag, to_site=OR, to_sub=sub)
            state[tag] = "tray" if sub == "ToolTray" else "floor"
            entered_any = True
        elif op == "place":
            emit(kind="place_in_cavity", tag=tag)
            state[tag] = "cavity"
        elif op == "remove":
            emit(kind="remove_from_cavity", tag=tag)
            state[tag] = "tray"
        elif op == "discard":
            emit(kind="discard", tag=tag)
            state[tag] = "bin"
        elif op == "pocket":
            emit(kind="move", tag=tag, to_site=OR, to_sub="StaffCarried")
            state[tag] = "pocket"
        elif op == "to_tray":
            emit(kind="move", tag=tag, to_site=OR, to_sub="ToolTray")
            state[tag] = "tray"
        else:
            emit(kind="carry_out", tag=tag, to_site="EquipmentRoom")
            state[tag] = "home"

    if entered_any and rng.random() < 0.75:
        in_cavity = [tag for tag in tags if state[tag] == "cavity"]
        if in_cavity and rng.random() < 0.5:
            for tag in in_cavity:
                emit(kind="remove_from_cavity", tag=tag)
                state[tag] = "tray"
            in_cavity = []
        emit(kind="announce_closing", case="C-1")
        if in_cavity and rng.random() < 0.5:
            # staff responds to the retention alert one removal at a time
            for tag in in_cavity:
                emit(kind="remove_from_cavity", tag=tag)
                state[tag] = "tray"
        emit(kind="spd_ack", case="C-1")

    return Scenario(name=f"generated-{seed}", seed=seed, horizon_s=clock + 10,
                    rooms=[OR], items=items, sensors=full_sensor_suite(p_detect),
                    cases=[CaseSpec(case_id="C-1", room_id=OR)], events=events,
                    bus=BusConfig(latency_s=latency_s, drop_rate=drop_rate))
