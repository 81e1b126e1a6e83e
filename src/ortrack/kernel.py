"""Deterministic discrete-event scheduler, scenario loader and trace emitter.

A run is a pure function of (scenario, seed). ``Plan(s)`` does the seed-free
set-up once (id checks, initial world, staff-event heap, links), and each
``Plan(s).run(seed)`` starts a fresh engine from it; ``run(s)`` is
``Plan(s).run(s.seed)``. One logical seed is split into independent named streams,
made by ``_Engine._rng`` on first use and only where a draw can change an outcome:
``sensor:<id>`` for a reader with ``p_detect < 1``, ``failures:<id>`` for one with
an ``mtbf_s`` and ``bus:<FROM>-><TO>`` for a link with ``drop_rate > 0``. So adding a
sensor never perturbs anyone else's draws. Every draw but an outage schedule's is
tested once, as ``draw < threshold``, so ``Plan.fold_runs`` runs a batch's seeds
once per distinct path of outcomes. The future-event list is a heap of flat
``(time, receiver priority, sequence number, sent_at, item)`` entries, ``sent_at``
None for a staff event; staff and world events sort before any message at the same tick.

An engine appends its records to its own list, its ``trace.Trace``'s; ``validate_trace``
lists the problems ``trace.read_trace`` finds in one.
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
    cms_handle,
    med_on_request,
    mtc_handle,
    mtc_staff_rescan,
    room_sensor_on_reads,
)
from .sensing import SensorDownError, SensorModel
from .trace import Trace, read_trace


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
_HOME = Location(EQUIPMENT_ROOM)
_NUMBER = (int, float)
_MAX = sys.float_info.max
_REQUIRED = object()
_DEFAULT_SENSOR = SensorModel()  # frozen, so every unconfigured reader shares it
#: Seeds per check of ``Plan.fold_runs``' stop rule.
_MEMO_WINDOW = 32

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
#: Staff case event kind -> the ``protocol`` handler it calls on its case's cart.
_CASE_EVENTS = {"announce_closing": protocol.announce_closing,
                "spd_ack": protocol.spd_acknowledge}
EVENT_KINDS = {*_CASE_EVENTS, *_MOVE_RULES}

#: Cart antenna -> (sub-location it covers, status its sweep sets, name of its
#: sweep handler in ``protocol``, looked up on the cart's first sweep in a run).
_ANTENNAS = {"tray": (SubLocation.TOOL_TRAY, TagStatus.ON_TRAY, "mtc_tray_sweep"),
             "bin": (SubLocation.TRASH_BIN, TagStatus.DISCARDED, "mtc_bin_sweep")}


def stream_seed(seed: int, name: str) -> int:
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def rng_stream(seed: int, name: str) -> random.Random:
    """Independent named random stream derived from the scenario seed."""
    return random.Random(stream_seed(seed, name))


class _Draw(float):
    """A recorded stream's draw, which logs its one test, ``draw < threshold``."""

    __slots__ = ("stream",)

    def __lt__(self, threshold) -> bool:
        outcome = float(self) < threshold
        self.stream.path.append((self.stream.name, threshold, outcome))
        return outcome


class _Recorder:
    """``rng_stream(seed, name)``, each of whose draws logs its test to ``path``."""

    def __init__(self, seed: int, name: str, path: list):
        self.name, self.path, self.draw = name, path, rng_stream(seed, name).random

    def random(self) -> _Draw:
        draw = _Draw(self.draw())
        draw.stream = self
        return draw


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
        override = self.links.get(f"{from_type}->{to_type}") if self.links else None
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
        if ev.kind in _CASE_EVENTS:
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
    if (rule := _MOVE_RULES.get(ev.kind)) is None:
        raise ValueError(f"unknown kind {ev.kind!r}")
    sources, sub, cause = rule
    if src.sub not in sources:
        raise ValueError(f"{ev.tag} is not in a cavity" if ev.kind == "remove_from_cavity"
                         else f"{ev.tag} cannot {ev.kind} from {src.site}/{src.sub}")
    if sub is not None:  # src.sub is not NONE, so src.site is a room
        return tuple.__new__(Location, (src.site, sub)), cause
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


_DROPPED = DeliveryOutcome(False)


def deliver(latency: int, drop_rate: float, now: int,
            rng: random.Random | None) -> DeliveryOutcome:
    """Decide one message's fate on a resolved link: dropped, or delivered
    after its latency. The engine asks only for a lossy link's message; a
    direct caller may pass a ``drop_rate`` of 0, and then ``rng`` may be None.
    Every drop shares one outcome, and a delivery skips the NamedTuple's ``__new__``."""
    if drop_rate > 0.0 and rng.random() < drop_rate:
        return _DROPPED
    return tuple.__new__(DeliveryOutcome, (True, now + latency))


# --------------------------------------------------------------------------
# Simulation engine


class Plan:
    """A scenario's seed-free run set-up: its ids checked, each tag's creation
    index, the heapified staff events, the meta record's parts, each node's handler
    and each link, resolved by its (from type, to type) pair on the first message
    between two nodes in any run. Each run starts a fresh engine from it and only
    adds links; ``fold_runs`` runs each distinct path of draw outcomes once."""

    def __init__(self, scenario: Scenario):
        items, item_ids = scenario.items, _item_ids(scenario.items)
        self.scenario, self.tags = scenario, [spec.tag_id for spec in items]
        # run() does not validate; the world is keyed by tag and the trace names each item
        _unique(self.tags, "tag_id")
        _unique(item_ids, "item_id")
        _unique([spec.room_id for spec in scenario.cases], "room with a case")  # one cart each
        self.rank = {tag: idx for idx, tag in enumerate(self.tags)}
        self.heap = [(ev.time_s, 0, seq, None, ev) for seq, ev in enumerate(scenario.events)]
        heapq.heapify(self.heap)
        self.meta = {"t": 0, "type": "meta", "name": scenario.name,
                     "horizon_s": scenario.horizon_s}
        self.items = [{"tag": s.tag_id, "kind": s.kind, "item_id": item_id}
                      for s, item_id in zip(items, item_ids)]
        self.cases = [{"case_id": s.case_id, "room_id": s.room_id} for s in scenario.cases]
        self.dispatch = {protocol.CMS_NODE: None}  # node id -> (engine function, cart room)
        for room in (s.room_id for s in scenario.cases):
            self.dispatch[f"MTC:{room}"] = _Engine._on_mtc, room
            self.dispatch[f"MED:{room}"] = _Engine._med_scan, room
        # (from type, to type) -> (receiver priority, latency, drop rate, stream name),
        # and the same link by (from node, to node)
        self.links: dict[tuple, tuple] = {}
        self.routes: dict[tuple, tuple] = {}

    def link(self, ends: tuple[str, str]) -> tuple:
        """The link between two nodes: receiver priority, latency, drop rate and
        the name of its ``bus:`` stream, None for a lossless link."""
        types = ends[0].partition(":")[0], ends[1].partition(":")[0]
        if (link := self.links.get(types)) is None:
            src, dst = types
            latency, drop_rate = self.scenario.bus.link_params(src, dst)
            link = self.links[types] = (protocol.NODE_PRIORITY[dst], latency, drop_rate,
                                        f"bus:{src}->{dst}" if drop_rate > 0.0 else None)
        self.routes[ends] = link
        return link

    def run(self, seed: int, observer=None) -> Trace:
        """Execute the scenario to its horizon under ``seed``."""
        return _Engine(self, seed).run(observer)

    def fold_runs(self, seeds, summarize):
        """Yield ``summarize(self.run(seed))`` for each seed in order, running each
        distinct path of draw outcomes once. ``summarize`` must not read the seed, and
        a summary is yielded to every seed of its path, so a caller must not change it.

        Every draw is tested once, as ``draw < threshold``, so the outcomes so far decide
        the next test's stream and threshold, and all of them decide the run. The tree
        holds an inner node ``[stream name, threshold, miss, hit]`` per test and a leaf
        ``(summary,)`` per path: a seed walks it with its own streams, and one that walks
        off runs for real, its tests recorded, and adds its path. A plan with an outage
        schedule runs every seed, and so does the rest of a batch once more than half of
        a ``_MEMO_WINDOW`` of seeds made new paths."""
        tree = [None]  # the root's slot
        memo, grown = not any(m.mtbf_s is not None for m in self.scenario.sensors.values()), 0
        for count, seed in enumerate(seeds, 1):
            if not memo:
                yield summarize(self.run(seed))
                continue
            node, rngs = tree[0], {}
            while type(node) is list:
                if (rng := rngs.get(node[0])) is None:
                    rng = rngs[node[0]] = rng_stream(seed, node[0])
                node = node[2 + (rng.random() < node[1])]
            if node is None:
                path = []
                node = _graft(tree, path, summarize(_Engine(self, seed, path).run()))
                grown += 1
            yield node[0]
            if count % _MEMO_WINDOW == 0:
                memo, grown = grown * 2 <= _MEMO_WINDOW, 0


def _graft(tree: list, path: list, summary) -> tuple:
    """Add a recorded run's path of (stream name, threshold, outcome) tests and its
    leaf to ``tree``; a test that is not the one the tree holds there raises."""
    slots, slot = tree, 0
    for name, threshold, outcome in path:
        if (node := slots[slot]) is None:
            node = slots[slot] = [name, threshold, None, None]
        elif type(node) is not list or node[:2] != [name, threshold]:
            raise RuntimeError(f"a run tested {name} < {threshold} where another run "
                               f"with the same outcomes so far took {node[:2]}")
        slots, slot = node, 2 + outcome
    if slots[slot] is not None:
        raise RuntimeError("a run ended where another run with the same outcomes went on")
    leaf = slots[slot] = (summary,)
    return leaf


class _Engine:
    def __init__(self, plan: Plan, seed: int, path: list | None = None):
        self.plan, self.scenario, self.seed, self.path = plan, plan.scenario, seed, path
        self.world = WorldState(dict.fromkeys(plan.tags, _HOME), {_HOME: [*plan.tags]},
                                plan.rank)
        self.records = [{**plan.meta, "seed": seed, "rooms": sorted(plan.scenario.rooms),
                         "items": list(map(dict.copy, plan.items)),
                         "cases": list(map(dict.copy, plan.cases))}]
        self.trace = Trace(self.records)
        self.heap: list[tuple] = list(plan.heap)
        self.seq = len(self.heap)
        self.msg_seq = 0
        self.out = Outputs()  # the outbox each handler appends to; _emit empties it
        self.cms = CmsState()
        self.mtcs: dict[str, MtcState] = {}  # keyed by room id
        self.mtcs_by_case: dict[str, MtcState] = {}  # the same carts, keyed by case id
        self.rngs: dict[str, random.Random] = {}  # named streams, made on first use
        self.readers: dict[str, tuple] = {}  # sensor id -> (id, model, stream or None, outages)
        self.entrances: dict[str, tuple] = {}  # site -> (its reader, its RoomSensorState)
        self.antennas: dict[str, tuple] = {}  # room -> its cart's tray and bin antennas
        for spec in self.scenario.cases:
            self.mtcs[spec.room_id] = self.mtcs_by_case[spec.case_id] = MtcState(
                case_id=spec.case_id, room_id=spec.room_id,
                scan_passes=spec.scan_passes, max_rescans=spec.max_rescans)
            self.cms.register_case(spec.case_id, spec.room_id)

    def _reader(self, sensor_id: str) -> tuple:
        """A reader's id, model, stream (only when ``p_detect < 1``) and outage
        schedule (only with an ``mtbf_s``), all resolved on its first use."""
        if (reader := self.readers.get(sensor_id)) is None:
            scenario = self.scenario
            model_ = scenario.sensors.get(sensor_id, _DEFAULT_SENSOR)
            rng = self._rng(f"sensor:{sensor_id}") if model_.p_detect < 1.0 else None
            outages = () if model_.mtbf_s is None else sensing.sensor_failure_schedule(
                model_, scenario.horizon_s, self._rng(f"failures:{sensor_id}"))
            reader = self.readers[sensor_id] = (sensor_id, model_, rng, outages)
        return reader

    def _rng(self, name: str) -> random.Random:
        rng = self.rngs.get(name)
        if rng is None:  # a run that records its tests has a path to log them to
            rng = self.rngs[name] = (rng_stream(self.seed, name) if self.path is None
                                     else _Recorder(self.seed, name, self.path))
        return rng

    # -- trace helpers

    def _record_error(self, op: str, detail: str, now: int) -> None:
        self.records.append({"t": now, "type": "error", "op": op, "detail": detail})

    def _sensor_down(self, exc: SensorDownError, case_id: str | None, now: int) -> None:
        self.out.alerts.append(Alert(severity=Severity.WARNING, kind=AlertKind.SENSOR_DOWN,
                                     tags=frozenset(), text=str(exc)))
        self._emit(case_id, now)

    # -- message plumbing

    def _send(self, message: ProtocolMessage, now: int) -> None:
        message.msg_id = self.msg_seq
        self.msg_seq += 1
        ends = message.from_node, message.to_node
        priority, latency, drop_rate, stream = self.plan.routes.get(ends) or self.plan.link(ends)
        # only a lossy link has a stream; a message on any other is due after its latency
        if stream is not None and not deliver(latency, drop_rate, now,
                                              self._rng(stream)).delivered:
            self.records.append({"t": now, "type": "msg", "status": "dropped",
                                 "sent_at": now, "msg": message.to_json()})
            return
        heapq.heappush(self.heap, (now + latency, priority, self.seq, now, message))
        self.seq += 1

    def _emit(self, case_id: str | None, now: int) -> None:
        """Carry out what the last handler call appended to the outbox, and empty it."""
        out = self.out
        if not (out.messages or out.alerts or out.phase_changes):
            return  # most calls append nothing; skip the loops and clears
        for message in out.messages:
            self._send(message, now)
        for alert in out.alerts:
            self.records.append({"t": now, "type": "alert", "case": case_id, **alert.to_json()})
        for case, old, new in out.phase_changes:
            self.records.append({"t": now, "type": "phase", "case": case,
                                 "from": old, "to": new})
            if new is CasePhase.COMPLETE:
                self.mtcs_by_case[case].completed_s = now
        out.messages.clear()
        out.alerts.clear()
        out.phase_changes.clear()

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
        if (entrance := self.entrances.get(site)) is None:
            # registration places fresh stock in the equipment room, so its
            # entrance sensor starts believing those tags inside
            sensor = RoomSensorState(site, set(self.plan.tags if site == EQUIPMENT_ROOM else ()))
            entrance = self.entrances[site] = self._reader(f"entrance:{site}"), sensor
        if (reads := self._read(entrance[0], [tag], None, now, distance_m)) is not None:
            room_sensor_on_reads(entrance[1], reads, now, self.out)
            self._emit(None, now)

    def _sweep(self, mtc: MtcState, antenna: tuple, now: int) -> None:
        """Sweep one cart antenna; a certain one is not read when its location holds
        exactly the cart's tags of that sweep's status, and no handler is called for
        a read that saw exactly those tags: either would only move the tick of that
        kind of sweep."""
        location, status, handler, reader, at, certain = antenna
        if certain and len(swept := mtc.swept[status]) == len(at) and swept.issuperset(at):
            mtc.swept_at[status] = now
            return
        detected = self._read(reader, self.world.tags_at(location), mtc.case_id, now)
        if detected is None:
            return
        if len(detected) == len(swept := mtc.swept[status]) and swept.issuperset(detected):
            mtc.swept_at[status] = now
        else:
            handler(mtc, set(detected), now, self.out)
            self._emit(mtc.case_id, now)

    def _cart_antennas(self, room: str) -> tuple:
        """A cart's tray and bin antennas, each resolved once per run."""
        antennas = self.antennas[room] = self._antenna(room, "tray"), self._antenna(room, "bin")
        return antennas

    def _antenna(self, room: str, which: str) -> tuple:
        """(Location, status its sweep sets, handler, reader, the location's own tag
        list in world.at, whether the reader is certain: no stream, no outage)."""
        sub, status, handler = _ANTENNAS[which]
        location, reader = Location(room, sub), self._reader(f"{which}:{room}")
        return (location, status, getattr(protocol, handler), reader,
                self.world.at.setdefault(location, []), reader[2] is None and not reader[3])

    # -- staff/world event handling

    def _on_staff(self, ev: StaffEvent, now: int) -> None:
        if (handler := _CASE_EVENTS.get(ev.kind)) is not None:
            if (mtc := self.mtcs_by_case.get(ev.case)) is None:
                self._record_error(ev.kind, f"unknown case: {ev.case}", now)
                return
            try:
                handler(mtc, now, self.out)
                self._emit(ev.case, now)
            except InvalidPhaseError as exc:
                self._record_error(ev.kind, str(exc), now)
            return

        if (src := self.world.placements.get(ev.tag)) is None:  # run() does not validate
            raise ValueError(f"unknown item: {ev.tag}")
        dst, cause = destination(ev, src, self.scenario.rooms)
        self.world.apply_ground_truth(ev.tag, dst)
        self.records.append({
            "t": now, "type": "gt", "tag": ev.tag, "cause": cause,
            "from": src.to_json(), "to": dst.to_json()})

        if src.site != dst.site:
            self._entrance_read(src.site, ev.tag, ev.distance_m, now)
            self._entrance_read(dst.site, ev.tag, ev.distance_m, now)
        for room in (src.site, dst.site):  # a room without a cart has no sweep
            if (mtc := self.mtcs.get(room)) is not None and mtc.phase is not CasePhase.COMPLETE:
                tray, bin_ = self.antennas.get(room) or self._cart_antennas(room)
                self._sweep(mtc, tray, now)
                self._sweep(mtc, bin_, now)
        if ev.kind == "remove_from_cavity" and (mtc := self.mtcs.get(src.site)) is not None:
            mtc_staff_rescan(mtc, now, self.out)
            self._emit(mtc.case_id, now)

    # -- message delivery

    def _on_deliver(self, message: ProtocolMessage, sent_at: int, now: int) -> None:
        self.records.append({"t": now, "type": "msg", "status": "delivered",
                             "sent_at": sent_at, "msg": message.to_json()})
        handler = self.plan.dispatch[message.to_node]
        try:
            if handler is not None:
                handler[0](self, self.mtcs[handler[1]], message, now)
            else:
                cms_handle(self.cms, message, self.out)
                self._emit(message.payload.get("case"), now)
        except (StaleCaseError, InvalidPhaseError) as exc:
            self._record_error(message.payload["kind"], str(exc), now)

    def _med_scan(self, mtc: MtcState, message: ProtocolMessage, now: int) -> None:
        sensor_id, model_, rng, outages = self._reader(f"med:{mtc.room_id}")
        if outages:
            try:
                sensing.raise_if_down(sensor_id, outages, now)
            except SensorDownError as exc:
                self._sensor_down(exc, mtc.case_id, now)
                return
        cavity = self.world.tags_at(Location(mtc.room_id, SubLocation.PATIENT_CAVITY))
        med_on_request(mtc, sensing.med_scan(cavity, mtc.scan_passes, model_, rng), now, self.out)
        self._emit(mtc.case_id, now)

    def _on_mtc(self, mtc: MtcState, message: ProtocolMessage, now: int) -> None:
        if message.payload["kind"] != "CavityScanResult":
            mtc_handle(mtc, message, self.out)
            self._emit(mtc.case_id, now)
            return
        if mtc.phase is CasePhase.COMPLETE:
            raise StaleCaseError(f"case {mtc.case_id} already complete")
        cavity = frozenset(message.payload["scan"]["detected"])
        tray, bin_ = [self._read(reader, self.world.tags_at(location), mtc.case_id, now)
                      for location, _, _, reader, _, _ in
                      self.antennas.get(mtc.room_id) or self._cart_antennas(mtc.room_id)]
        if tray is None or bin_ is None:
            return  # antenna down; a later request will retry
        reconcile.apply_scan_outcome(mtc, cavity, set(tray), set(bin_), now, self.out)
        self._emit(mtc.case_id, now)

    # -- main loop

    def run(self, observer=None) -> Trace:
        horizon, heap, pop = self.scenario.horizon_s, self.heap, heapq.heappop
        while heap and (time_s := heap[0][0]) <= horizon:
            while heap and heap[0][0] == time_s:
                _, _, _, sent_at, item = pop(heap)
                if sent_at is None:
                    self._on_staff(item, time_s)
                else:
                    self._on_deliver(item, sent_at, time_s)
            if observer is not None:
                observer(time_s, self.world, self)
        for mtc in self.mtcs_by_case.values():
            self.records.append({
                "t": horizon, "type": "case", "case_id": mtc.case_id,
                "room_id": mtc.room_id, "phase": mtc.phase,
                "spd_acked": mtc.spd_acked,
                "entries": {tag: {"status": e.status, "last_seen_s": mtc.last_seen(tag)}
                            for tag, e in sorted(mtc.entries.items())},
                "scans_done": mtc.scans_done, "rescans_used": mtc.rescans_used,
                "outcomes": ([mtc.last_outcome] if mtc.last_outcome else []),
                "completed_s": mtc.completed_s})
        return self.trace


def run(scenario: Scenario, observer=None) -> Trace:
    """Execute a scenario to its horizon; deterministic in (scenario, seed)."""
    return Plan(scenario).run(scenario.seed, observer)


# --------------------------------------------------------------------------
# Trace validation


def validate_trace(trace: Trace) -> list[str]:
    """Every problem ``read_trace`` finds in a trace, in record order."""
    read_trace(trace, problems := [])
    return problems
