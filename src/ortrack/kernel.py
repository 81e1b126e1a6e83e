"""Deterministic discrete-event scheduler, scenario loader and trace emitter.

A run is a pure function of (scenario, seed): one logical seed is split
into independent named streams (one per sensor, one per bus link), so
adding a sensor never perturbs anyone else's draws. The future-event list
is a heap ordered by (time, receiver priority, sequence number); staff and
world events sort before any message at the same tick.

Traces serialize as newline-delimited JSON with alphabetically ordered
keys, which makes byte-identity across runs a meaningful check.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import random
from dataclasses import dataclass, field

from . import model, protocol, reconcile, sensing
from .model import (
    EQUIPMENT_ROOM,
    FIXED_SITES,
    ItemKind,
    Location,
    MoveCause,
    SubLocation,
    WorldState,
)
from .protocol import (
    Alert,
    AlertKind,
    CasePhase,
    CmsState,
    InvalidPhaseError,
    MtcState,
    Outputs,
    ProtocolMessage,
    RoomSensorState,
    Severity,
    StaleCaseError,
    SurgeryCase,
    UnknownCaseError,
    cms_handle,
    med_on_request,
    mtc_handle,
    mtc_staff_rescan,
    node_priority,
    node_type,
    room_sensor_on_reads,
    spd_acknowledge,
)
from .sensing import ReadKind, ScanRegion, ScanResult, SensorDownError, SensorModel


class ParseError(Exception):
    """Scenario text is not well-formed JSON."""


class ValidationError(Exception):
    """Scenario violates a schema or consistency rule."""


SCENARIO_KEYS = {"name", "seed", "horizon_s", "rooms", "items", "sensors",
                 "cases", "events", "bus"}

EVENT_KINDS = {"move", "place_in_cavity", "remove_from_cavity", "discard",
               "announce_closing", "spd_ack", "carry_out"}

SENSOR_ROLES = {"entrance", "tray", "bin", "med"}

_KIND_BY_NAME = {k.value: k for k in ItemKind}
_SUB_BY_NAME = {s.value: s for s in SubLocation}
_CAVITY = SubLocation.PATIENT_CAVITY.value

#: Cart antenna -> (sub-location it covers, read kind, name of its sweep
#: handler in ``protocol``, looked up at call time).
_ANTENNAS = {"tray": (SubLocation.TOOL_TRAY, ReadKind.TRAY, "mtc_tray_sweep"),
             "bin": (SubLocation.TRASH_BIN, ReadKind.BIN, "mtc_bin_sweep")}


def stream_seed(seed: int, name: str) -> int:
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def rng_stream(seed: int, name: str) -> random.Random:
    """Independent named random stream derived from the scenario seed."""
    return random.Random(stream_seed(seed, name))


@dataclass(frozen=True)
class StaffEvent:
    time_s: int
    kind: str
    tag: str | None = None
    case: str | None = None
    to_site: str | None = None
    to_sub: str | None = None
    distance_m: float = 0.0


@dataclass(frozen=True)
class LinkConfig:
    latency_s: int | None = None
    drop_rate: float | None = None


@dataclass(frozen=True)
class BusConfig:
    latency_s: int = 1
    drop_rate: float = 0.0
    links: dict = field(default_factory=dict)  # "CMS->MTC" -> LinkConfig

    def link_params(self, from_node: str, to_node: str) -> tuple[int, float]:
        key = f"{node_type(from_node)}->{node_type(to_node)}"
        override = self.links.get(key)
        if override is None:
            return self.latency_s, self.drop_rate
        latency = override.latency_s if override.latency_s is not None else self.latency_s
        drop = override.drop_rate if override.drop_rate is not None else self.drop_rate
        return latency, drop


@dataclass(frozen=True)
class ItemSpec:
    tag_id: str
    kind: ItemKind
    item_id: str | None = None
    sterile: bool = True


@dataclass(frozen=True)
class CaseSpec:
    case_id: str
    room_id: str
    scan_passes: int = sensing.DEFAULT_SCAN_PASSES
    max_rescans: int = 2


@dataclass
class Scenario:
    name: str
    seed: int
    horizon_s: int
    rooms: list[str]
    items: list[ItemSpec]
    sensors: dict[str, SensorModel]
    cases: list[CaseSpec]
    events: list[StaffEvent]
    bus: BusConfig = field(default_factory=BusConfig)


@dataclass
class Trace:
    """Ordered run records; equal traces serialize to identical bytes."""

    records: list[dict] = field(default_factory=list)

    def to_ndjson(self) -> str:
        return "".join(json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n"
                       for r in self.records)

    @classmethod
    def from_ndjson(cls, text: str) -> "Trace":
        return cls(records=[json.loads(line) for line in text.splitlines() if line])


# --------------------------------------------------------------------------
# Scenario loading and validation


def _fail(message: str) -> None:
    raise ValidationError(message)


def load_scenario(text: str) -> Scenario:
    """Parse and fully validate a scenario document."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(obj, dict):
        raise ParseError("scenario must be a JSON object")
    keys = set(obj)
    if keys != SCENARIO_KEYS:
        missing = sorted(SCENARIO_KEYS - keys)
        extra = sorted(keys - SCENARIO_KEYS)
        detail = "; ".join(p for p in (
            f"missing keys: {missing}" if missing else "",
            f"unknown keys: {extra}" if extra else "") if p)
        _fail(f"bad top-level keys ({detail})")

    rooms = obj["rooms"]
    if not isinstance(rooms, list) or not all(isinstance(r, str) for r in rooms):
        _fail("rooms must be a list of room ids")
    if len(set(rooms)) != len(rooms):
        _fail("duplicate room id")
    for room in rooms:
        if room in FIXED_SITES:
            _fail(f"room id {room} collides with a fixed site")

    items = []
    seen_tags: set[str] = set()
    for idx, spec in enumerate(obj["items"]):
        tag = spec.get("tag_id")
        if not tag:
            _fail(f"items[{idx}]: tag_id required")
        if tag in seen_tags:
            _fail(f"duplicate tag_id: {tag}")
        seen_tags.add(tag)
        kind = _KIND_BY_NAME.get(spec.get("kind"))
        if kind is None:
            _fail(f"items[{idx}]: unknown kind {spec.get('kind')!r}")
        items.append(ItemSpec(tag_id=tag, kind=kind, item_id=spec.get("item_id"),
                              sterile=spec.get("sterile", True)))

    sensors = {}
    known_sites = set(rooms) | set(FIXED_SITES)
    for sensor_id, cfg in obj["sensors"].items():
        role, _, site = sensor_id.partition(":")
        if role not in SENSOR_ROLES or site not in known_sites:
            _fail(f"unknown sensor id: {sensor_id}")
        if role in ("tray", "bin", "med") and site not in rooms:
            _fail(f"{role} sensor only exists in an operating room: {sensor_id}")
        try:
            sensors[sensor_id] = SensorModel.from_json(cfg)
        except sensing.InvalidParamError as exc:
            _fail(f"sensor {sensor_id}: {exc}")

    cases = []
    case_ids: set[str] = set()
    rooms_with_case: set[str] = set()
    for idx, spec in enumerate(obj["cases"]):
        case_id, room_id = spec.get("case_id"), spec.get("room_id")
        if not case_id or case_id in case_ids:
            _fail(f"cases[{idx}]: missing or duplicate case_id")
        if room_id not in rooms:
            _fail(f"cases[{idx}]: unknown room {room_id!r}")
        if room_id in rooms_with_case:
            _fail(f"cases[{idx}]: room {room_id} already has a case")
        case_ids.add(case_id)
        rooms_with_case.add(room_id)
        scan_passes = spec.get("scan_passes", sensing.DEFAULT_SCAN_PASSES)
        max_rescans = spec.get("max_rescans", 2)
        if scan_passes < 1:
            _fail(f"cases[{idx}]: scan_passes must be >= 1")
        if max_rescans < 0:
            _fail(f"cases[{idx}]: max_rescans must be >= 0")
        cases.append(CaseSpec(case_id=case_id, room_id=room_id,
                              scan_passes=scan_passes, max_rescans=max_rescans))

    horizon = obj["horizon_s"]
    if not isinstance(horizon, int) or horizon <= 0:
        _fail("horizon_s must be a positive integer")

    events = []
    for idx, ev in enumerate(obj["events"]):
        kind = ev.get("kind")
        if kind not in EVENT_KINDS:
            _fail(f"events[{idx}]: unknown kind {kind!r}")
        t = ev.get("t")
        if not isinstance(t, int) or t < 0:
            _fail(f"events[{idx}]: t must be a nonnegative integer")
        events.append(StaffEvent(
            time_s=t, kind=kind, tag=ev.get("tag"), case=ev.get("case"),
            to_site=ev.get("to_site"), to_sub=ev.get("to_sub"),
            distance_m=ev.get("distance_m", 0.0)))

    bus_obj = obj["bus"]
    links = {}
    for key, cfg in bus_obj.get("links", {}).items():
        links[key] = LinkConfig(latency_s=cfg.get("latency_s"),
                                drop_rate=cfg.get("drop_rate"))
    bus = BusConfig(latency_s=bus_obj.get("latency_s", 1),
                    drop_rate=bus_obj.get("drop_rate", 0.0),
                    links=links)
    if bus.latency_s < 0:
        _fail("bus latency_s must be >= 0")
    if not 0.0 <= bus.drop_rate <= 1.0:
        _fail("bus drop_rate must be within [0, 1]")

    scenario = Scenario(name=obj["name"], seed=obj["seed"], horizon_s=horizon,
                        rooms=list(rooms), items=items, sensors=sensors,
                        cases=cases, events=events, bus=bus)
    validate_scenario(scenario)
    return scenario


def validate_scenario(scenario: Scenario) -> None:
    """Check cross-references, ordering and movement consistency."""
    tags = {spec.tag_id for spec in scenario.items}
    case_by_id = {spec.case_id: spec for spec in scenario.cases}
    known_sites = set(scenario.rooms) | set(FIXED_SITES)

    last_t = 0
    placements: dict[str, tuple[str, SubLocation]] = {
        spec.tag_id: (EQUIPMENT_ROOM, SubLocation.NONE) for spec in scenario.items}
    for idx, ev in enumerate(scenario.events):
        if ev.time_s < last_t:
            _fail(f"events[{idx}]: events out of order")
        last_t = ev.time_s
        if ev.time_s > scenario.horizon_s:
            _fail(f"events[{idx}]: event after horizon")
        if ev.kind in ("announce_closing", "spd_ack"):
            if ev.case not in case_by_id:
                _fail(f"events[{idx}]: unknown case: {ev.case}")
            continue
        if ev.tag not in tags:
            _fail(f"events[{idx}]: unknown item: {ev.tag}")
        site, sub = placements[ev.tag]
        in_or = site in scenario.rooms
        if ev.kind == "move":
            to_site = ev.to_site
            if to_site not in known_sites:
                _fail(f"events[{idx}]: unknown site: {to_site}")
            if to_site in scenario.rooms:
                to_sub = _SUB_BY_NAME.get(ev.to_sub or "RoomSpace")
                if to_sub is None or to_sub is SubLocation.NONE:
                    _fail(f"events[{idx}]: bad sub-location {ev.to_sub!r}")
            else:
                if ev.to_sub not in (None, "None"):
                    _fail(f"events[{idx}]: sub-location outside an operating room")
                to_sub = SubLocation.NONE
            if (to_site, to_sub) == (site, sub):
                _fail(f"events[{idx}]: move to current location")
            placements[ev.tag] = (to_site, to_sub)
        elif ev.kind == "place_in_cavity":
            if not in_or or sub is SubLocation.PATIENT_CAVITY:
                _fail(f"events[{idx}]: {ev.tag} cannot enter the cavity from "
                      f"{site}/{sub.value}")
            placements[ev.tag] = (site, SubLocation.PATIENT_CAVITY)
        elif ev.kind == "remove_from_cavity":
            if not in_or or sub is not SubLocation.PATIENT_CAVITY:
                _fail(f"events[{idx}]: {ev.tag} is not in a cavity")
            placements[ev.tag] = (site, SubLocation.TOOL_TRAY)
        elif ev.kind == "discard":
            if not in_or or sub in (SubLocation.TRASH_BIN, SubLocation.PATIENT_CAVITY):
                _fail(f"events[{idx}]: {ev.tag} cannot be discarded from "
                      f"{site}/{sub.value}")
            placements[ev.tag] = (site, SubLocation.TRASH_BIN)
        elif ev.kind == "carry_out":
            if not in_or or sub is SubLocation.PATIENT_CAVITY:
                _fail(f"events[{idx}]: {ev.tag} cannot be carried out of "
                      f"{site}/{sub.value}")
            to_site = ev.to_site or EQUIPMENT_ROOM
            if to_site not in known_sites or to_site == site:
                _fail(f"events[{idx}]: bad carry_out destination {to_site!r}")
            to_sub = (SubLocation.ROOM_SPACE if to_site in scenario.rooms
                      else SubLocation.NONE)
            placements[ev.tag] = (to_site, to_sub)


# --------------------------------------------------------------------------
# Message bus


@dataclass(frozen=True)
class DeliveryOutcome:
    delivered: bool
    at_time: int | None = None


def deliver(bus: BusConfig, message: ProtocolMessage, now: int,
            rng: random.Random) -> DeliveryOutcome:
    """Decide one message's fate: dropped, or delivered after link latency."""
    latency, drop_rate = bus.link_params(message.from_node, message.to_node)
    if drop_rate > 0.0 and rng.random() < drop_rate:
        return DeliveryOutcome(delivered=False)
    return DeliveryOutcome(delivered=True, at_time=now + latency)


# --------------------------------------------------------------------------
# Simulation engine


class _Engine:
    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.world = WorldState()
        self.trace = Trace()
        self.heap: list[tuple[int, int, int, tuple]] = []
        self.seq = 0
        self.msg_seq = 0
        self.cms = CmsState()
        self.room_sensors: dict[str, RoomSensorState] = {}
        self.mtcs: dict[str, MtcState] = {}  # keyed by room id
        self.case_states: dict[str, SurgeryCase] = {}
        self.rngs: dict[str, random.Random] = {}  # named streams, made on first use
        self.outages: dict[str, list[tuple[float, float]]] = {}
        self.completed_s: dict[str, int] = {}
        self._setup()

    # -- initialization

    def _setup(self) -> None:
        scenario = self.scenario
        for spec in scenario.items:
            item = self.world.create_item(spec.kind, spec.tag_id, spec.item_id,
                                          spec.sterile)
            self.cms.register_tag(item.tag_id)
        for site in list(FIXED_SITES) + scenario.rooms:
            state = RoomSensorState(room_id=site)
            if site == EQUIPMENT_ROOM:
                # Registration places fresh stock in the equipment room, so
                # its entrance sensor starts believing those tags inside.
                state.believed_inside = {s.tag_id for s in scenario.items}
            self.room_sensors[site] = state
        for spec in scenario.cases:
            case = SurgeryCase(case_id=spec.case_id, room_id=spec.room_id)
            self.case_states[spec.case_id] = case
            self.mtcs[spec.room_id] = MtcState(case=case,
                                               scan_passes=spec.scan_passes,
                                               max_rescans=spec.max_rescans)
            self.cms.register_case(spec.case_id, spec.room_id)
        for sensor_id, model_ in scenario.sensors.items():
            if model_.mtbf_s is not None:
                self.outages[sensor_id] = sensing.sensor_failure_schedule(
                    model_, scenario.horizon_s,
                    rng_stream(scenario.seed, f"failures:{sensor_id}"))
        self.trace.records.append({
            "t": 0, "type": "meta", "name": scenario.name, "seed": scenario.seed,
            "horizon_s": scenario.horizon_s, "rooms": sorted(scenario.rooms),
            "items": [{"tag": s.tag_id, "kind": s.kind.value,
                       "item_id": self.world.item_by_tag[s.tag_id]}
                      for s in scenario.items],
            "cases": [{"case_id": s.case_id, "room_id": s.room_id}
                      for s in scenario.cases]})
        for ev in scenario.events:
            self._schedule(ev.time_s, 0, ("staff", ev))

    def _schedule(self, time_s: int, priority: int, action: tuple) -> None:
        heapq.heappush(self.heap, (time_s, priority, self.seq, action))
        self.seq += 1

    def _sensor_model(self, sensor_id: str) -> SensorModel:
        return self.scenario.sensors.get(sensor_id, SensorModel())

    def _rng(self, name: str) -> random.Random:
        rng = self.rngs.get(name)
        if rng is None:
            rng = self.rngs[name] = rng_stream(self.scenario.seed, name)
        return rng

    # -- trace helpers

    def _record_alert(self, alert: Alert, case_id: str | None, now: int) -> None:
        self.trace.records.append({"t": now, "type": "alert", "case": case_id,
                                   **alert.to_json()})

    def _record_error(self, op: str, detail: str, now: int) -> None:
        self.trace.records.append({"t": now, "type": "error", "op": op,
                                   "detail": detail})

    def _record_phases(self, changes, now: int) -> None:
        for case_id, old, new in changes:
            self.trace.records.append({"t": now, "type": "phase", "case": case_id,
                                       "from": old.value, "to": new.value})
            if new is CasePhase.COMPLETE:
                self.completed_s[case_id] = now

    def _sensor_down(self, exc: SensorDownError, case_id: str | None, now: int) -> None:
        self._record_alert(Alert(time_s=now, severity=Severity.WARNING,
                                 kind=AlertKind.SENSOR_DOWN, tags=frozenset(),
                                 text=str(exc)),
                           case_id, now)

    # -- message plumbing

    def _send(self, message: ProtocolMessage, now: int) -> None:
        message.msg_id = self.msg_seq
        self.msg_seq += 1
        link = f"{node_type(message.from_node)}->{node_type(message.to_node)}"
        outcome = deliver(self.scenario.bus, message, now, self._rng(f"bus:{link}"))
        if not outcome.delivered:
            self.trace.records.append({"t": now, "type": "msg", "status": "dropped",
                                       "sent_at": now, "msg": message.to_json()})
            return
        self._schedule(outcome.at_time, node_priority(message.to_node),
                       ("deliver", message, now))

    def _emit(self, outputs: Outputs, case_id: str | None, now: int) -> None:
        for message in outputs.messages:
            self._send(message, now)
        for alert in outputs.alerts:
            self._record_alert(alert, case_id, now)
        self._record_phases(outputs.phase_changes, now)

    # -- sensing hooks

    def _read(self, sensor_id: str, candidates: list[tuple[str, float]],
              read_kind: ReadKind, case_id: str | None, now: int) -> list | None:
        """One read cycle; None, with a SensorDown alert, if the reader is down."""
        try:
            return sensing.read_tags(sensor_id, self._sensor_model(sensor_id), candidates,
                                     self._rng(f"sensor:{sensor_id}"), now_s=now,
                                     read_kind=read_kind,
                                     outages=self.outages.get(sensor_id, ()))
        except SensorDownError as exc:
            self._sensor_down(exc, case_id, now)
            return None

    def _entrance_read(self, site: str, tag: str, distance_m: float, now: int) -> None:
        reads = self._read(f"entrance:{site}", [(tag, distance_m)],
                           ReadKind.ROOM_ENTRANCE, None, now)
        if reads is None:
            return
        for message in room_sensor_on_reads(self.room_sensors[site], reads):
            self._send(message, now)

    def _sweep(self, room: str, which: str, now: int) -> None:
        mtc = self.mtcs.get(room)
        if mtc is None or mtc.case.phase is CasePhase.COMPLETE:
            return
        detected = self._antenna_read(room, which, now)
        if detected is None:
            return
        handler = getattr(protocol, _ANTENNAS[which][2])
        self._emit(handler(mtc, detected, now), mtc.case.case_id, now)

    def _antenna_read(self, room: str, which: str, now: int) -> set[str] | None:
        """Read everything physically on the tray/bin antenna; None if it is down."""
        sub, read_kind, _ = _ANTENNAS[which]
        candidates = [(tag, 0.0) for tag in self.world.tags_at(Location(room, sub))]
        reads = self._read(f"{which}:{room}", candidates, read_kind,
                           self.mtcs[room].case.case_id, now)
        return None if reads is None else {r.tag_id for r in reads}

    # -- staff/world event handling

    def _on_staff(self, ev: StaffEvent, now: int) -> None:
        if ev.kind == "announce_closing":
            case = self.case_states[ev.case]
            mtc = self.mtcs[case.room_id]
            try:
                self._emit(protocol.announce_closing(mtc, now), ev.case, now)
            except InvalidPhaseError as exc:
                self._record_error("announce_closing", str(exc), now)
            return
        if ev.kind == "spd_ack":
            try:
                message = spd_acknowledge(ev.case, self.case_states)
            except (InvalidPhaseError, UnknownCaseError) as exc:
                self._record_error("spd_ack", str(exc), now)
                return
            message.time_s = now
            self._send(message, now)
            return

        item_id = self.world.item_by_tag[ev.tag]
        src = self.world.placements[item_id]
        dst, cause = self._destination(ev, src)
        gt = model.GroundTruthEvent(time_s=now, item_id=item_id, src=src,
                                    dst=dst, cause=cause)
        self.world.apply_ground_truth(gt)
        self.trace.records.append({
            "t": now, "type": "gt", "tag": ev.tag, "cause": cause.value,
            "from": src.to_json(), "to": dst.to_json()})

        if src.site != dst.site:
            self._entrance_read(src.site, ev.tag, ev.distance_m, now)
            self._entrance_read(dst.site, ev.tag, ev.distance_m, now)
        for room in (src.site, dst.site):
            if room in self.mtcs:
                self._sweep(room, "tray", now)
                self._sweep(room, "bin", now)
        if ev.kind == "remove_from_cavity":
            mtc = self.mtcs.get(src.site)
            if mtc is not None:
                self._emit(mtc_staff_rescan(mtc, now), mtc.case.case_id, now)

    @staticmethod
    def _destination(ev: StaffEvent, src: Location) -> tuple[Location, MoveCause]:
        if ev.kind == "move":
            sub = (_SUB_BY_NAME[ev.to_sub or "RoomSpace"]
                   if ev.to_site not in FIXED_SITES else SubLocation.NONE)
            return Location(ev.to_site, sub), MoveCause.STAFF_MOVE
        if ev.kind == "place_in_cavity":
            return Location(src.site, SubLocation.PATIENT_CAVITY), MoveCause.PLACE_IN_CAVITY
        if ev.kind == "remove_from_cavity":
            return Location(src.site, SubLocation.TOOL_TRAY), MoveCause.REMOVE_FROM_CAVITY
        if ev.kind == "discard":
            return Location(src.site, SubLocation.TRASH_BIN), MoveCause.DISCARD
        if ev.kind == "carry_out":
            to_site = ev.to_site or EQUIPMENT_ROOM
            sub = SubLocation.ROOM_SPACE if to_site not in FIXED_SITES else SubLocation.NONE
            return Location(to_site, sub), MoveCause.ROOM_TRANSIT
        raise ValueError(f"unhandled staff event kind {ev.kind!r}")

    # -- message delivery

    def _on_deliver(self, message: ProtocolMessage, sent_at: int, now: int) -> None:
        self.trace.records.append({"t": now, "type": "msg", "status": "delivered",
                                   "sent_at": sent_at, "msg": message.to_json()})
        target = message.to_node
        kind = message.payload["kind"]
        try:
            if target == protocol.CMS_NODE:
                self._emit(cms_handle(self.cms, message),
                           message.payload.get("case"), now)
            elif node_type(target) == "MED":
                self._med_scan(target.split(":", 1)[1], message.payload["case"], now)
            elif node_type(target) == "MTC":
                room = target.split(":", 1)[1]
                mtc = self.mtcs[room]
                if kind == "CavityScanResult":
                    self._on_scan_result(mtc, message, now)
                else:
                    self._emit(mtc_handle(mtc, message), mtc.case.case_id, now)
            else:
                self._record_error("deliver", f"no handler for node {target}", now)
        except (StaleCaseError, InvalidPhaseError, UnknownCaseError, ValueError) as exc:
            self._record_error(kind, str(exc), now)

    def _med_scan(self, room: str, case_id: str, now: int) -> None:
        sensor_id = f"med:{room}"
        try:
            sensing.raise_if_down(sensor_id, self.outages.get(sensor_id, ()), now)
        except SensorDownError as exc:
            self._sensor_down(exc, case_id, now)
            return
        cavity = [(tag, 0.0)
                  for tag in self.world.tags_at(Location(room, SubLocation.PATIENT_CAVITY))]
        scan = sensing.med_scan(ScanRegion.PATIENT_CAVITY, cavity,
                                self.mtcs[room].scan_passes,
                                self._sensor_model(sensor_id),
                                self._rng(f"sensor:{sensor_id}"))
        self._send(med_on_request(room, case_id, scan, now), now)

    def _on_scan_result(self, mtc: MtcState, message: ProtocolMessage, now: int) -> None:
        if mtc.case.phase is CasePhase.COMPLETE:
            raise StaleCaseError(f"case {mtc.case.case_id} already complete")
        payload = message.payload
        scan = ScanResult(region=ScanRegion(payload["scan"]["region"]),
                          detected=frozenset(payload["scan"]["detected"]),
                          passes=payload["scan"]["passes"])
        room = mtc.case.room_id
        tray = self._antenna_read(room, "tray", now)
        bin_ = self._antenna_read(room, "bin", now)
        if tray is None or bin_ is None:
            return  # antenna down; a later request will retry
        outputs, _report = reconcile.apply_scan_outcome(mtc, scan, tray, bin_, now)
        self._emit(outputs, mtc.case.case_id, now)

    # -- main loop

    def run(self, observer=None) -> Trace:
        horizon = self.scenario.horizon_s
        while self.heap:
            time_s = self.heap[0][0]
            if time_s > horizon:
                break
            self.world.clock_s = max(self.world.clock_s, time_s)
            while self.heap and self.heap[0][0] == time_s:
                _, _, _, action = heapq.heappop(self.heap)
                if action[0] == "staff":
                    self._on_staff(action[1], time_s)
                else:
                    self._on_deliver(action[1], action[2], time_s)
            if observer is not None:
                observer(time_s, self.world, self)
        self.world.clock_s = horizon
        for spec in self.scenario.cases:
            case = self.case_states[spec.case_id]
            mtc = self.mtcs[spec.room_id]
            self.trace.records.append({
                "t": horizon, "type": "case", "case_id": spec.case_id,
                "room_id": spec.room_id, "phase": case.phase.value,
                "spd_acked": case.spd_acked,
                "entries": {tag: {"status": e.status.value, "last_seen_s": e.last_seen_s}
                            for tag, e in sorted(case.checklist.entries.items())},
                "scans_done": mtc.scans_done, "rescans_used": mtc.rescans_used,
                "outcomes": ([mtc.last_outcome] if mtc.last_outcome else []),
                "completed_s": self.completed_s.get(spec.case_id)})
        return self.trace


def run(scenario: Scenario, observer=None) -> Trace:
    """Execute a scenario to its horizon; deterministic in (scenario, seed)."""
    return _Engine(scenario).run(observer=observer)


# --------------------------------------------------------------------------
# Trace validation


def validate_trace(trace: Trace) -> list[str]:
    """Structural checks: tick order, phase paths, causality, unique msg ids."""
    problems = []
    last_t = 0
    phase_by_case: dict[str, CasePhase] = {}
    seen_msg_ids: set[int] = set()
    for idx, record in enumerate(trace.records):
        t = record["t"]
        if t < last_t:
            problems.append(f"record {idx}: tick {t} before {last_t}")
        last_t = max(last_t, t)
        if record["type"] == "phase":
            case = record["case"]
            current = phase_by_case.get(case, CasePhase.SETUP)
            frm, to = CasePhase(record["from"]), CasePhase(record["to"])
            if frm is not current:
                problems.append(f"record {idx}: case {case} phase record from "
                                f"{frm.value}, believed {current.value}")
            if to not in protocol.PHASE_GRAPH[frm]:
                problems.append(f"record {idx}: illegal transition "
                                f"{frm.value} -> {to.value}")
            phase_by_case[case] = to
        elif record["type"] == "msg":
            msg_id = record["msg"]["msg_id"]
            if msg_id in seen_msg_ids:
                problems.append(f"record {idx}: duplicate msg_id {msg_id}")
            seen_msg_ids.add(msg_id)
            if record["status"] == "delivered" and record["sent_at"] > t:
                problems.append(f"record {idx}: delivered before sent")
    return problems


# --------------------------------------------------------------------------
# Ground-truth helpers used by reports and batch statistics


def replay_cavity(trace: Trace) -> tuple[dict[str, set[str]], set[str]]:
    """Replay ground-truth cavity contents from a trace.

    Returns the final contents per room and the phases some case entered
    while its room's cavity really held an item.
    """
    cavity: dict[str, set[str]] = {}
    room_by_case: dict[str, str] = {}
    retained_at: set[str] = set()
    for record in trace.records:
        kind = record["type"]
        if kind == "gt":
            tag = record["tag"]
            src, dst = record["from"], record["to"]
            if src["sub"] == _CAVITY:
                cavity.setdefault(src["site"], set()).discard(tag)
            if dst["sub"] == _CAVITY:
                cavity.setdefault(dst["site"], set()).add(tag)
        elif kind == "phase":
            if cavity.get(room_by_case.get(record["case"])):
                retained_at.add(record["to"])
        elif kind == "meta":
            for case in record["cases"]:
                room_by_case[case["case_id"]] = case["room_id"]
    return cavity, retained_at


def cavity_occupancy(trace: Trace) -> dict[str, set[str]]:
    """Final ground-truth cavity contents per room, replayed from the trace."""
    return replay_cavity(trace)[0]


def reconciled_with_retained_item(trace: Trace) -> bool:
    """True if any case passed reconciliation while the cavity really held an item."""
    return CasePhase.RECONCILED.value in replay_cavity(trace)[1]


def completed_with_retained_item(trace: Trace) -> bool:
    """True if any case completed while the cavity really held an item."""
    return CasePhase.COMPLETE.value in replay_cavity(trace)[1]
