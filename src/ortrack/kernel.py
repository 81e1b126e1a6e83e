"""Deterministic discrete-event scheduler, scenario loader, trace emitter and reader.

A run is a pure function of (scenario, seed). ``plan(s)`` does the seed-free
set-up once (id checks, initial world, staff-event heap, links), and
``plan(s).run(seed)`` copies it, so a Monte Carlo batch pays per run only for
what its seed changes; ``run(s)`` is ``plan(s).run(s.seed)``. One logical seed
is split into independent named streams, made on first use and only where a
draw can change an outcome: ``sensor:<id>`` for a reader with ``p_detect < 1``
and ``bus:<FROM>-><TO>`` for a link with ``drop_rate > 0``. So adding a sensor
never perturbs anyone else's draws. The future-event list is a
heap ordered by (time, receiver priority, sequence number); staff and
world events sort before any message at the same tick.

Traces serialize as newline-delimited JSON with alphabetically ordered
keys, which makes byte-identity across runs a meaningful check.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import random
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

from . import protocol, reconcile, sensing
from .model import (
    EQUIPMENT_ROOM,
    FIXED_SITES,
    ItemKind,
    Location,
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
    TagStatus,
    UnknownCaseError,
    cms_handle,
    med_on_request,
    mtc_handle,
    mtc_staff_rescan,
    node_type,
    room_sensor_on_reads,
    spd_acknowledge,
)
from .sensing import SensorDownError, SensorModel


class ParseError(Exception):
    """Scenario text is not well-formed JSON."""


class ValidationError(Exception):
    """Scenario violates a schema or consistency rule."""


SCENARIO_KEYS = {"name", "seed", "horizon_s", "rooms", "items", "sensors",
                 "cases", "events", "bus"}
ITEM_KEYS = {"tag_id", "kind", "item_id"}
SENSOR_KEYS = {"range_m", "p_detect", "mtbf_s", "mttr_s"}
CASE_KEYS = {"case_id", "room_id", "scan_passes", "max_rescans"}
EVENT_KEYS = {"t", "kind", "tag", "case", "to_site", "to_sub", "distance_m"}
BUS_KEYS = {"latency_s", "drop_rate", "links"}
LINK_KEYS = {"latency_s", "drop_rate"}

SENSOR_ROLES = {"entrance", "tray", "bin", "med"}

#: Most outages a sensor may expect over the horizon, horizon_s / (mtbf_s +
#: mttr_s); its whole failure schedule is drawn on the reader's first read.
MAX_EXPECTED_OUTAGES = 10_000
#: Most passes of one cavity scan and most count-mismatch re-scans of one case:
#: each pass takes a draw per candidate and each re-scan appends records within
#: the tick, so an unbounded count could exhaust memory before the horizon.
MAX_SCAN_PASSES = 100
MAX_RESCANS = 100

_KIND_BY_NAME = {k.value: k for k in ItemKind}
_SUB_BY_NAME = {s.value: s for s in SubLocation}
_CAVITY = SubLocation.PATIENT_CAVITY
_HOME = Location(EQUIPMENT_ROOM)
_NUMBER = (int, float)
_MAX = sys.float_info.max
_REQUIRED = object()
_DEFAULT_SENSOR = SensorModel()  # frozen, so every unconfigured reader shares it
#: What ``json.dumps(r, sort_keys=True, separators=(",", ":"))`` builds on every call.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

#: Staff event kind -> (sub-locations the item may start from, sub-location it
#: ends at, cause the ``gt`` record names). An end of None is a site the event names.
_OUT_OF_CAVITY = frozenset(SubLocation) - {SubLocation.NONE, SubLocation.PATIENT_CAVITY}
_MOVE_RULES = {
    "move": (frozenset(SubLocation), None, "StaffMove"),
    "place_in_cavity": (_OUT_OF_CAVITY, SubLocation.PATIENT_CAVITY, "PlaceInCavity"),
    "remove_from_cavity": ({SubLocation.PATIENT_CAVITY}, SubLocation.TOOL_TRAY,
                           "RemoveFromCavity"),
    "discard": (_OUT_OF_CAVITY - {SubLocation.TRASH_BIN}, SubLocation.TRASH_BIN, "Discard"),
    "carry_out": (_OUT_OF_CAVITY, None, "RoomTransit"),
}
EVENT_KINDS = {"announce_closing", "spd_ack", *_MOVE_RULES}

#: Cart antenna -> (sub-location it covers, status its sweep sets, name of its
#: sweep handler in ``protocol``, looked up on the antenna's first read in a run).
_ANTENNAS = {"tray": (SubLocation.TOOL_TRAY, TagStatus.ON_TRAY, "mtc_tray_sweep"),
             "bin": (SubLocation.TRASH_BIN, TagStatus.DISCARDED, "mtc_bin_sweep")}


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

    def link_params(self, from_type: str, to_type: str) -> tuple[int, float]:
        """Latency and drop rate of the link between two node types."""
        override = self.links.get(f"{from_type}->{to_type}")
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


@dataclass(frozen=True)
class CaseSpec:
    case_id: str
    room_id: str
    scan_passes: int = sensing.DEFAULT_SCAN_PASSES
    max_rescans: int = protocol.DEFAULT_MAX_RESCANS


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
        encode = _ENCODER.encode
        return "".join(encode(r) + "\n" for r in self.records)

    @classmethod
    def from_ndjson(cls, text: str) -> "Trace":
        """Parse NDJSON text; a torn record (no final newline, a blank or non-JSON
        line), a line too deep or with an integer too long to parse, or a line that
        is not a JSON object raises ``reconcile.TraceIOError``. Only ``\n`` ends a
        record: a raw U+2028 inside a JSON string is valid."""
        if text and not text.endswith("\n"):
            raise reconcile.TraceIOError("truncated record")
        records = []
        for lineno, line in enumerate(text.split("\n")[:-1], start=1):
            try:
                records.append(record := json.loads(line))
            except json.JSONDecodeError as exc:
                raise reconcile.TraceIOError(f"truncated record at line {lineno}") from exc
            except (ValueError, RecursionError) as exc:  # too deep, or an int too long
                raise reconcile.TraceIOError(f"unreadable record at line {lineno}: {exc}") from exc
            if not isinstance(record, dict):
                raise reconcile.TraceIOError(f"record at line {lineno} is not a JSON object")
        return cls(records=records)


# --------------------------------------------------------------------------
# Scenario loading and validation


def _fail(message: str) -> None:
    raise ValidationError(message)


def _reject_constant(name: str) -> None:
    raise ParseError(f"{name} is not a JSON number")


def _field(obj: dict, key: str, types, where: str, default=_REQUIRED,
           lo: float = -_MAX, hi: float = _MAX, choices=None):
    """One scenario field: of ``types`` (a bool is no number), in ``[lo, hi]``
    if a number, in ``choices`` if given; ``default`` when the key is absent."""
    if key not in obj:
        if default is _REQUIRED:
            _fail(f"{where}: missing {key}")
        return default
    value = obj[key]
    if not isinstance(value, types) or (isinstance(value, bool) and types is not bool):
        _fail(f"{where}.{key} must be {getattr(types, '__name__', 'number')}, "
              f"got {value!r:.40}")
    if isinstance(value, _NUMBER) and not lo <= value <= hi:
        _fail(f"{where}.{key} = {value} is outside [{lo:g}, {hi:g}]")
    if choices is not None and value not in choices:
        _fail(f"{where}: unknown {key} {value!r}")
    return value


def _object(value, where: str, keys: set) -> dict:
    """``value`` as a JSON object whose keys all belong to ``keys``."""
    if not isinstance(value, dict):
        _fail(f"{where} must be an object")
    if not value.keys() <= keys:
        _fail(f"{where}: unknown keys {sorted(value.keys() - keys)}")
    return value


def _entries(top: dict, key: str, keys: set):
    """(where, object) for each entry of the top-level list ``key``."""
    for idx, entry in enumerate(_field(top, key, list, "scenario")):
        yield f"{key}[{idx}]", _object(entry, f"{key}[{idx}]", keys)


def load_scenario(text: str) -> Scenario:
    """Parse and fully validate a scenario document."""
    try:
        top = json.loads(text, parse_constant=_reject_constant)
    except (ValueError, RecursionError) as exc:  # bad JSON, too deep, or an int too long
        raise ParseError(str(exc)) from exc
    top = _object(top, "scenario", SCENARIO_KEYS)
    rooms = _field(top, "rooms", list, "scenario")
    if not all(isinstance(room, str) for room in rooms):
        _fail("rooms must be a list of room ids")
    items = [ItemSpec(tag_id=_field(spec, "tag_id", str, where),
                      kind=_KIND_BY_NAME[_field(spec, "kind", str, where,
                                                choices=_KIND_BY_NAME)],
                      item_id=_field(spec, "item_id", str, where, None))
             for where, spec in _entries(top, "items", ITEM_KEYS)]
    sensors = {}
    for sensor_id, cfg in _field(top, "sensors", dict, "scenario").items():
        where = f"sensors[{sensor_id!r}]"
        cfg = _object(cfg, where, SENSOR_KEYS)
        try:
            sensors[sensor_id] = SensorModel(**{key: _field(cfg, key, _NUMBER, where)
                                                for key in cfg})
        except sensing.InvalidParamError as exc:
            _fail(f"{where}: {exc}")
    cases = [CaseSpec(case_id=_field(spec, "case_id", str, where),
                      room_id=_field(spec, "room_id", str, where),
                      scan_passes=_field(spec, "scan_passes", int, where,
                                         sensing.DEFAULT_SCAN_PASSES, lo=1, hi=MAX_SCAN_PASSES),
                      max_rescans=_field(spec, "max_rescans", int, where,
                                         protocol.DEFAULT_MAX_RESCANS, lo=0, hi=MAX_RESCANS))
             for where, spec in _entries(top, "cases", CASE_KEYS)]
    events = [StaffEvent(time_s=_field(ev, "t", int, where, lo=0),
                         kind=_field(ev, "kind", str, where, choices=EVENT_KINDS),
                         tag=_field(ev, "tag", str, where, None),
                         case=_field(ev, "case", str, where, None),
                         to_site=_field(ev, "to_site", str, where, None),
                         to_sub=_field(ev, "to_sub", str, where, None),
                         distance_m=_field(ev, "distance_m", _NUMBER, where, 0.0, lo=0))
              for where, ev in _entries(top, "events", EVENT_KEYS)]
    bus = _object(_field(top, "bus", dict, "scenario"), "bus", BUS_KEYS)
    links = {}
    for key, cfg in _field(bus, "links", dict, "bus", {}).items():
        where = f"bus.links[{key!r}]"
        src, _, dst = key.partition("->")
        if src not in protocol.NODE_PRIORITY or dst not in protocol.NODE_PRIORITY:
            _fail(f"{where}: a link is <from>-><to> over {sorted(protocol.NODE_PRIORITY)}")
        cfg = _object(cfg, where, LINK_KEYS)
        links[key] = LinkConfig(
            latency_s=_field(cfg, "latency_s", int, where, None, lo=0),
            drop_rate=_field(cfg, "drop_rate", _NUMBER, where, None, lo=0, hi=1))
    scenario = Scenario(
        name=_field(top, "name", str, "scenario"), seed=_field(top, "seed", int, "scenario"),
        horizon_s=_field(top, "horizon_s", int, "scenario", lo=1), rooms=rooms,
        items=items, sensors=sensors, cases=cases, events=events,
        bus=BusConfig(latency_s=_field(bus, "latency_s", int, "bus", 1, lo=0),
                      drop_rate=_field(bus, "drop_rate", _NUMBER, "bus", 0.0, lo=0, hi=1),
                      links=links))
    validate_scenario(scenario)
    return scenario


def _item_ids(items: list[ItemSpec]) -> list[str]:
    """Each item's id: its own, or ``item-<n>`` for the n-th item (1-based)."""
    return [f"item-{idx}" if spec.item_id is None else spec.item_id
            for idx, spec in enumerate(items, 1)]


def _unique(ids: list, what: str) -> None:
    if len(set(ids)) != len(ids) or not all(ids):
        _fail(f"empty or duplicate {what}: "
              f"{[i for i in dict.fromkeys(ids) if not i or ids.count(i) > 1]!r:.60}")


def validate_scenario(scenario: Scenario) -> None:
    """Check ids, cross-references, outage counts, event order and every move."""
    rooms, sites = scenario.rooms, [*FIXED_SITES, *scenario.rooms]
    _unique(sites, "room id or fixed site")
    _unique([spec.tag_id for spec in scenario.items], "tag_id")
    _unique(_item_ids(scenario.items), "item_id")
    case_ids = [spec.case_id for spec in scenario.cases]
    _unique(case_ids, "case_id")
    if slashed := [c for c in case_ids if "/" in c or "\\" in c]:  # reports are named by case id
        _fail(f"case_id may not contain / or \\: {slashed!r:.60}")
    _unique([spec.room_id for spec in scenario.cases], "room with a case")
    if unknown := {spec.room_id for spec in scenario.cases} - set(rooms):
        _fail(f"cases name unknown rooms: {sorted(unknown)}")
    for sensor_id, sensor in scenario.sensors.items():
        role, _, site = sensor_id.partition(":")
        if role not in SENSOR_ROLES or site not in (sites if role == "entrance" else rooms):
            _fail(f"unknown sensor id: {sensor_id}")
        if sensor.mtbf_s is not None and not (scenario.horizon_s / (
                sensor.mtbf_s + sensor.mttr_s) <= MAX_EXPECTED_OUTAGES):
            _fail(f"sensor {sensor_id}: more than {MAX_EXPECTED_OUTAGES} expected outages")

    placements = {spec.tag_id: Location(EQUIPMENT_ROOM) for spec in scenario.items}
    last_t = 0
    for idx, ev in enumerate(scenario.events):
        if ev.time_s < last_t:
            _fail(f"events[{idx}]: events out of order")
        last_t = ev.time_s
        if ev.time_s > scenario.horizon_s:
            _fail(f"events[{idx}]: event after horizon")
        if ev.kind not in _MOVE_RULES:
            if ev.case not in case_ids:
                _fail(f"events[{idx}]: unknown case: {ev.case}")
        elif ev.tag not in placements:
            _fail(f"events[{idx}]: unknown item: {ev.tag}")
        else:
            try:
                placements[ev.tag] = destination(ev, placements[ev.tag], rooms)[0]
            except ValueError as exc:
                _fail(f"events[{idx}]: {exc}")


def destination(ev: StaffEvent, src: Location, rooms: list[str]) -> tuple[Location, str]:
    """Where staff event ``ev`` moves an item now at ``src``; ValueError if it cannot."""
    sources, sub, cause = _MOVE_RULES[ev.kind]
    if src.sub not in sources:
        raise ValueError(f"{ev.tag} is not in a cavity" if ev.kind == "remove_from_cavity"
                         else f"{ev.tag} cannot {ev.kind} from {src.site}/{src.sub}")
    if sub is not None:
        return Location(src.site, sub), cause
    site = ev.to_site or (EQUIPMENT_ROOM if ev.kind == "carry_out" else None)
    if site in rooms:
        sub = (_SUB_BY_NAME.get(ev.to_sub or "RoomSpace") if ev.kind == "move"
               else SubLocation.ROOM_SPACE)
        if sub in (None, SubLocation.NONE):
            raise ValueError(f"bad sub-location {ev.to_sub!r}")
    elif site not in FIXED_SITES:
        raise ValueError(f"unknown site: {site}")
    elif ev.kind == "move" and ev.to_sub not in (None, "None"):
        raise ValueError("sub-location outside an operating room")
    dst = Location(site, sub or SubLocation.NONE)
    if dst == src or (ev.kind == "carry_out" and site == src.site):
        raise ValueError(f"{ev.kind} of {ev.tag} to where it already is")
    return dst, cause


# --------------------------------------------------------------------------
# Message bus


class DeliveryOutcome(NamedTuple):
    delivered: bool
    at_time: int | None = None


def deliver(latency: int, drop_rate: float, now: int,
            rng: random.Random | None) -> DeliveryOutcome:
    """Decide one message's fate on a resolved link: dropped, or delivered
    after its latency. ``rng`` may be None when ``drop_rate`` is 0."""
    if drop_rate > 0.0 and rng.random() < drop_rate:
        return DeliveryOutcome(delivered=False)
    return DeliveryOutcome(delivered=True, at_time=now + latency)


# --------------------------------------------------------------------------
# Simulation engine


class Plan:
    """A scenario's seed-free run set-up: its ids checked, each tag's ``(creation
    index, tag)`` entry, the heapified staff events, the sites, the meta record's
    parts and each link resolved on its first message in any run. ``run(seed)``
    makes a run's state from C-level copies; a run only adds links to the plan."""

    def __init__(self, scenario: Scenario):
        items, item_ids = scenario.items, _item_ids(scenario.items)
        self.scenario, self.tags = scenario, [spec.tag_id for spec in items]
        # run() does not validate; the world is keyed by tag and the trace names each item
        _unique(self.tags, "tag_id")
        _unique(item_ids, "item_id")
        self.entry_of = {tag: (idx, tag) for idx, tag in enumerate(self.tags)}
        self.sites = [*FIXED_SITES, *scenario.rooms]
        self.heap = [(ev.time_s, 0, seq, ("staff", ev)) for seq, ev in enumerate(scenario.events)]
        heapq.heapify(self.heap)
        self.meta = {"t": 0, "type": "meta", "name": scenario.name,
                     "horizon_s": scenario.horizon_s}
        self.items = [{"tag": s.tag_id, "kind": s.kind, "item_id": item_id}
                      for s, item_id in zip(items, item_ids)]
        self.cases = [{"case_id": s.case_id, "room_id": s.room_id} for s in scenario.cases]
        self.links: dict[tuple, tuple] = {}  # (from, to) -> (priority, latency, drop, stream name)

    def link(self, ends: tuple[str, str]) -> tuple:
        """Resolve the link between two nodes: receiver priority, latency, drop
        rate and the name of its ``bus:`` stream, None for a lossless link."""
        src, dst = node_type(ends[0]), node_type(ends[1])
        latency, drop_rate = self.scenario.bus.link_params(src, dst)
        link = self.links[ends] = (protocol.NODE_PRIORITY.get(dst, 9), latency, drop_rate,
                                   f"bus:{src}->{dst}" if drop_rate > 0.0 else None)
        return link

    def run(self, seed: int, observer=None) -> Trace:
        """Execute the scenario to its horizon under ``seed``."""
        return _Engine(self, seed).run(observer=observer)


class _Engine:
    def __init__(self, plan: Plan, seed: int):
        self.plan, self.scenario, self.seed = plan, plan.scenario, seed
        self.world = WorldState(dict.fromkeys(plan.tags, _HOME),
                                {_HOME: [*plan.entry_of.values()]}, plan.entry_of)
        self.trace = Trace([{**plan.meta, "seed": seed, "rooms": sorted(plan.scenario.rooms),
                             "items": list(map(dict.copy, plan.items)),
                             "cases": list(map(dict.copy, plan.cases))}])
        self.heap: list[tuple[int, int, int, tuple]] = list(plan.heap)
        self.seq = len(self.heap)
        self.msg_seq = 0
        self.cms = CmsState()
        self.room_sensors = {site: RoomSensorState(site) for site in plan.sites}
        # Registration places fresh stock in the equipment room, so its
        # entrance sensor starts believing those tags inside.
        self.room_sensors[EQUIPMENT_ROOM].believed_inside = set(plan.tags)
        self.mtcs: dict[str, MtcState] = {}  # keyed by room id
        self.mtcs_by_case: dict[str, MtcState] = {}  # the same carts, keyed by case id
        self.rngs: dict[str, random.Random] = {}  # named streams, made on first use
        self.readers: dict[str, tuple] = {}  # sensor id -> (id, model, stream or None, outages)
        # (room, which) -> (Location, status its sweep sets, handler, reader, the
        # location's list in world.at, whether the reader is certain)
        self.antennas: dict[tuple, tuple] = {}
        # node id -> (plain function, its state), called as fn(self, state, message, now);
        # a bound method here would tie every engine into a reference cycle
        self.handlers: dict[str, tuple] = {protocol.CMS_NODE: (_Engine._on_cms, self.cms)}
        for spec in self.scenario.cases:
            mtc = self.mtcs[spec.room_id] = self.mtcs_by_case[spec.case_id] = MtcState(
                case_id=spec.case_id, room_id=spec.room_id,
                scan_passes=spec.scan_passes, max_rescans=spec.max_rescans)
            self.cms.register_case(spec.case_id, spec.room_id)
            self.handlers[mtc.node_id] = (_Engine._on_mtc, mtc)
            self.handlers[mtc.med_node] = (_Engine._med_scan, mtc)

    def _reader(self, sensor_id: str) -> tuple:
        """A reader's id, model, stream (only when ``p_detect < 1``) and outage
        schedule (only with an ``mtbf_s``), all resolved on its first use."""
        if (reader := self.readers.get(sensor_id)) is None:
            scenario = self.scenario
            model_ = scenario.sensors.get(sensor_id, _DEFAULT_SENSOR)
            rng = self._rng(f"sensor:{sensor_id}") if model_.p_detect < 1.0 else None
            outages = () if model_.mtbf_s is None else sensing.sensor_failure_schedule(
                model_, scenario.horizon_s, rng_stream(self.seed, f"failures:{sensor_id}"))
            reader = self.readers[sensor_id] = (sensor_id, model_, rng, outages)
        return reader

    def _rng(self, name: str) -> random.Random:
        rng = self.rngs.get(name)
        if rng is None:
            rng = self.rngs[name] = rng_stream(self.seed, name)
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
                                       "from": old, "to": new})
            if new is CasePhase.COMPLETE:
                self.mtcs_by_case[case_id].completed_s = now

    def _sensor_down(self, exc: SensorDownError, case_id: str | None, now: int) -> None:
        self._record_alert(Alert(severity=Severity.WARNING, kind=AlertKind.SENSOR_DOWN,
                                 tags=frozenset(), text=str(exc)),
                           case_id, now)

    # -- message plumbing

    def _send(self, message: ProtocolMessage, now: int) -> None:
        message.msg_id = self.msg_seq
        self.msg_seq += 1
        ends = message.from_node, message.to_node
        priority, latency, drop_rate, stream = self.plan.links.get(ends) or self.plan.link(ends)
        outcome = deliver(latency, drop_rate, now, None if stream is None else self._rng(stream))
        if not outcome.delivered:
            self.trace.records.append({"t": now, "type": "msg", "status": "dropped",
                                       "sent_at": now, "msg": message.to_json()})
            return
        heapq.heappush(self.heap, (outcome.at_time, priority, self.seq,
                                   ("deliver", message, now)))
        self.seq += 1

    def _emit(self, outputs: Outputs, case_id: str | None, now: int) -> None:
        for message in outputs.messages:
            self._send(message, now)
        for alert in outputs.alerts:
            self._record_alert(alert, case_id, now)
        self._record_phases(outputs.phase_changes, now)

    # -- sensing hooks

    def _read(self, reader: tuple, candidates: list[str], case_id: str | None,
              now: int, distance_m: float = 0.0) -> list[str] | None:
        """The tags one read cycle saw; None, with a SensorDown alert, if the reader is down."""
        sensor_id, model_, rng, outages = reader
        try:
            return sensing.read_tags(sensor_id, model_, candidates, rng, now, outages, distance_m)
        except SensorDownError as exc:
            self._sensor_down(exc, case_id, now)
            return None

    def _entrance_read(self, site: str, tag: str, distance_m: float, now: int) -> None:
        reads = self._read(self._reader(f"entrance:{site}"), [tag], None, now, distance_m)
        if reads is None:
            return
        for message in room_sensor_on_reads(self.room_sensors[site], reads, now):
            self._send(message, now)

    def _sweep(self, mtc: MtcState, which: str, now: int) -> None:
        """Sweep one cart antenna; a certain one is not read when its location holds
        exactly the cart's tags of that sweep's status: the read would only move
        the tick of that kind of sweep."""
        antenna = self._antenna(mtc.room_id, which)
        _, status, handler, _, at, certain = antenna
        if certain and (swept := mtc.swept.get(status)) is not None and len(swept) == len(at):
            for _, tag in at:
                if tag not in swept:
                    break
            else:
                mtc.swept_at[status] = now
                return
        detected = self._antenna_read(antenna, mtc.case_id, now)
        if detected is not None:
            self._emit(handler(mtc, detected, now), mtc.case_id, now)

    def _antenna(self, room: str, which: str) -> tuple:
        if (antenna := self.antennas.get((room, which))) is None:
            sub, status, handler = _ANTENNAS[which]
            location, reader = Location(room, sub), self._reader(f"{which}:{room}")
            antenna = self.antennas[room, which] = (
                location, status, getattr(protocol, handler), reader,
                self.world.at.setdefault(location, []),
                reader[2] is None and not reader[3])  # certain: no stream, no outage
        return antenna

    def _antenna_read(self, antenna: tuple, case_id: str, now: int) -> set[str] | None:
        """Read everything physically on the tray/bin antenna; None if it is down."""
        reads = self._read(antenna[3], self.world.tags_at(antenna[0]), case_id, now)
        return None if reads is None else set(reads)

    # -- staff/world event handling

    def _on_staff(self, ev: StaffEvent, now: int) -> None:
        if ev.kind == "announce_closing":
            try:
                self._emit(protocol.announce_closing(self.mtcs_by_case[ev.case], now),
                           ev.case, now)
            except InvalidPhaseError as exc:
                self._record_error("announce_closing", str(exc), now)
            return
        if ev.kind == "spd_ack":
            try:
                message = spd_acknowledge(ev.case, self.mtcs_by_case, now)
            except (InvalidPhaseError, UnknownCaseError) as exc:
                self._record_error("spd_ack", str(exc), now)
                return
            self._send(message, now)
            return

        src = self.world.placements[ev.tag]
        dst, cause = destination(ev, src, self.scenario.rooms)
        self.world.apply_ground_truth(ev.tag, dst)
        self.trace.records.append({
            "t": now, "type": "gt", "tag": ev.tag, "cause": cause,
            "from": src.to_json(), "to": dst.to_json()})

        if src.site != dst.site:
            self._entrance_read(src.site, ev.tag, ev.distance_m, now)
            self._entrance_read(dst.site, ev.tag, ev.distance_m, now)
        for room in (src.site, dst.site):  # a room without a cart has no sweep
            if (mtc := self.mtcs.get(room)) is not None and mtc.phase is not CasePhase.COMPLETE:
                self._sweep(mtc, "tray", now)
                self._sweep(mtc, "bin", now)
        if ev.kind == "remove_from_cavity":
            mtc = self.mtcs.get(src.site)
            if mtc is not None:
                self._emit(mtc_staff_rescan(mtc, now), mtc.case_id, now)

    # -- message delivery

    def _on_deliver(self, message: ProtocolMessage, sent_at: int, now: int) -> None:
        self.trace.records.append({"t": now, "type": "msg", "status": "delivered",
                                   "sent_at": sent_at, "msg": message.to_json()})
        if (handler := self.handlers.get(message.to_node)) is None:
            self._record_error("deliver", f"no handler for node {message.to_node}", now)
            return
        try:
            handler[0](self, handler[1], message, now)
        except (StaleCaseError, InvalidPhaseError) as exc:
            self._record_error(message.payload["kind"], str(exc), now)

    def _on_cms(self, cms: CmsState, message: ProtocolMessage, now: int) -> None:
        self._emit(cms_handle(cms, message), message.payload.get("case"), now)

    def _med_scan(self, mtc: MtcState, message: ProtocolMessage, now: int) -> None:
        case_id = message.payload["case"]
        sensor_id, model_, rng, outages = self._reader(f"med:{mtc.room_id}")
        try:
            sensing.raise_if_down(sensor_id, outages, now)
        except SensorDownError as exc:
            self._sensor_down(exc, case_id, now)
            return
        cavity = self.world.tags_at(Location(mtc.room_id, SubLocation.PATIENT_CAVITY))
        scan = sensing.med_scan(cavity, mtc.scan_passes, model_, rng)
        self._send(med_on_request(mtc.room_id, case_id, scan, now), now)

    def _on_mtc(self, mtc: MtcState, message: ProtocolMessage, now: int) -> None:
        if message.payload["kind"] != "CavityScanResult":
            self._emit(mtc_handle(mtc, message), mtc.case_id, now)
            return
        if mtc.phase is CasePhase.COMPLETE:
            raise StaleCaseError(f"case {mtc.case_id} already complete")
        cavity = frozenset(message.payload["scan"]["detected"])
        tray = self._antenna_read(self._antenna(mtc.room_id, "tray"), mtc.case_id, now)
        bin_ = self._antenna_read(self._antenna(mtc.room_id, "bin"), mtc.case_id, now)
        if tray is None or bin_ is None:
            return  # antenna down; a later request will retry
        self._emit(reconcile.apply_scan_outcome(mtc, cavity, tray, bin_, now), mtc.case_id, now)

    # -- main loop

    def run(self, observer=None) -> Trace:
        horizon = self.scenario.horizon_s
        while self.heap:
            time_s = self.heap[0][0]
            if time_s > horizon:
                break
            while self.heap and self.heap[0][0] == time_s:
                _, _, _, action = heapq.heappop(self.heap)
                if action[0] == "staff":
                    self._on_staff(action[1], time_s)
                else:
                    self._on_deliver(action[1], action[2], time_s)
            if observer is not None:
                observer(time_s, self.world, self)
        for mtc in self.mtcs_by_case.values():
            self.trace.records.append({
                "t": horizon, "type": "case", "case_id": mtc.case_id,
                "room_id": mtc.room_id, "phase": mtc.phase,
                "spd_acked": mtc.spd_acked,
                "entries": {tag: {"status": e.status, "last_seen_s": mtc.last_seen(tag)}
                            for tag, e in sorted(mtc.entries.items())},
                "scans_done": mtc.scans_done, "rescans_used": mtc.rescans_used,
                "outcomes": ([mtc.last_outcome] if mtc.last_outcome else []),
                "completed_s": mtc.completed_s})
        return self.trace


def plan(scenario: Scenario) -> Plan:
    """The seed-free run plan: ``plan(s).run(seed)`` is ``run(replace(s, seed=seed))``."""
    return Plan(scenario)


def run(scenario: Scenario, observer=None) -> Trace:
    """Execute a scenario to its horizon; deterministic in (scenario, seed)."""
    return plan(scenario).run(scenario.seed, observer)


# --------------------------------------------------------------------------
# Trace validation


def validate_trace(trace: Trace) -> list[str]:
    """Structural checks: well-formed records, tick order, phase paths, causality, msg ids."""
    problems = []
    last_t = 0
    phase_by_case: dict[str, CasePhase] = {}
    seen_msg_ids: set[int] = set()
    for idx, record in enumerate(trace.records):
        try:
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
                                    f"{frm}, believed {current}")
                if to not in protocol.PHASE_GRAPH[frm]:
                    problems.append(f"record {idx}: illegal transition {frm} -> {to}")
                phase_by_case[case] = to
            elif record["type"] == "msg":
                msg_id = record["msg"]["msg_id"]
                if msg_id in seen_msg_ids:
                    problems.append(f"record {idx}: duplicate msg_id {msg_id}")
                seen_msg_ids.add(msg_id)
                if record["status"] == "delivered" and record["sent_at"] > t:
                    problems.append(f"record {idx}: delivered before sent")
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"record {idx}: malformed ({exc!r:.60})")
    return problems


# --------------------------------------------------------------------------
# Trace reading: the one pass that reports, summaries and findings project from


@dataclass
class TraceReading:
    """What post-run consumers read from a trace, collected in one pass.

    ``alerts`` holds the alert records per case id (None for no case); ``belief`` each
    tag's room (None once it left) and read tick from its last delivered ``RoomCrossing``;
    ``scan_passes`` the passes of each case's delivered cavity scans; ``first_seen`` the
    first tick each tag is named in a move, message or alert; ``cavity`` the ground-truth
    cavity contents per room; and ``retained_at`` the phases some case entered while its
    room's cavity really held an item.
    """

    meta: dict | None = None
    cases: dict[str, dict] = field(default_factory=dict)
    alerts: dict[str | None, list[dict]] = field(default_factory=dict)
    belief: dict[str, tuple[str | None, int]] = field(default_factory=dict)
    scan_passes: dict[str, int] = field(default_factory=dict)
    first_seen: dict[str, int] = field(default_factory=dict)
    cavity: dict[str, set[str]] = field(default_factory=dict)
    retained_at: set[str] = field(default_factory=set)


def read_trace(trace: Trace) -> TraceReading:
    """Walk the records once, in order, and collect a ``TraceReading``; a record
    of the wrong shape raises ``reconcile.TraceIOError``."""
    reading = TraceReading()
    seen, cavity, belief = reading.first_seen.setdefault, reading.cavity, reading.belief
    room_by_case = {}
    try:
        for idx, record in enumerate(trace.records):
            kind, t = record["type"], record["t"]
            if kind == "msg":
                payload = record["msg"]["payload"]
                if "tag" in payload:
                    seen(payload["tag"], t)
                    if payload["kind"] == "RoomCrossing" and record["status"] == "delivered":
                        room = payload["room"] if payload["direction"] == "in" else None
                        belief[payload["tag"]] = room, record["sent_at"]
                if "scan" in payload:
                    for tag in payload["scan"]["detected"]:
                        seen(tag, t)
                    if record["status"] == "delivered" and payload["kind"] == "CavityScanResult":
                        case = payload["case"]
                        reading.scan_passes[case] = (reading.scan_passes.get(case, 0)
                                                     + payload["scan"]["passes"])
            elif kind == "gt":
                tag, src, dst = record["tag"], record["from"], record["to"]
                seen(tag, t)
                if src["sub"] == _CAVITY:
                    cavity.setdefault(src["site"], set()).discard(tag)
                if dst["sub"] == _CAVITY:
                    cavity.setdefault(dst["site"], set()).add(tag)
            elif kind == "alert":
                for tag in record["tags"]:
                    seen(tag, t)
                reading.alerts.setdefault(record["case"], []).append(record)
            elif kind == "phase":
                if cavity.get(room_by_case.get(record["case"])):
                    reading.retained_at.add(record["to"])
            elif kind == "case":
                reading.cases[record["case_id"]] = record
            elif kind == "meta":
                reading.meta = record
                room_by_case = {case["case_id"]: case["room_id"] for case in record["cases"]}
    except (KeyError, TypeError, ValueError) as exc:
        raise reconcile.TraceIOError(f"record {idx}: malformed ({exc!r:.60})") from exc
    return reading
