"""Communicating state machines: room sensors, tool cart, detector, central service.

Node responsibilities:

* Room sensors (``RS:<room>``) sit at entrances. One antenna cannot see
  direction, so each sensor keeps a believed inside-set per tag and toggles
  it on every successful read; a missed read desynchronizes the toggle,
  which is exactly the failure mode worth simulating.
* The central service (``CMS``) mirrors each case's checklist and decides
  when a crossing means new equipment arrived or tracked equipment left.
* The tool cart (``MTC:<room>``) is one ``MtcState`` holding its case's
  lifecycle, the monitoring checklist and the scan counters. Tray and bin
  antennas report full sweeps; everything else arrives as messages.
* The handheld detector (``MED:<room>``) performs cavity scans on request.
* ``SPD`` acknowledges readiness to receive contaminated instruments; a
  case cannot complete without that acknowledgment.

All handlers are deterministic: same state and input always produce the
same successor state and outputs. A handler appends the messages, alerts and
phase changes it asks for to the ``Outputs`` it is handed and returns None; it
raises, if it must, before it appends anything. The kernel serializes delivery,
so no handler ever runs concurrently with another.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import StrEnum

from .sensing import DEFAULT_SCAN_PASSES, ScanResult

CMS_NODE = "CMS"
SPD_NODE = "SPD"

#: Tie-break order for simultaneous deliveries; staff/world actions are 0.
NODE_PRIORITY = {"RS": 1, "MED": 2, "MTC": 3, "CMS": 4, "SPD": 5}


class TagStatus(StrEnum):
    ON_TRAY = "OnTray"
    IN_USE = "InUse"
    IN_CAVITY_BELIEF = "InCavityBelief"
    DISCARDED = "Discarded"
    REMOVED_FROM_OR = "RemovedFromOR"


class CasePhase(StrEnum):
    SETUP = "Setup"
    IN_PROGRESS = "InProgress"
    CLOSING_ANNOUNCED = "ClosingAnnounced"
    CAVITY_SCAN = "CavityScan"
    RECONCILED = "Reconciled"
    AWAITING_SPD = "AwaitingSpd"
    COMPLETE = "Complete"


#: Legal phase transitions. The cavity-scan loop may return to
#: ClosingAnnounced for a re-scan, but Reconciled can never be skipped on
#: the way to AwaitingSpd, and Complete is only reachable after the SPD ack.
PHASE_GRAPH: dict[CasePhase, tuple[CasePhase, ...]] = {
    CasePhase.SETUP: (CasePhase.IN_PROGRESS,),
    CasePhase.IN_PROGRESS: (CasePhase.CLOSING_ANNOUNCED,),
    CasePhase.CLOSING_ANNOUNCED: (CasePhase.CAVITY_SCAN,),
    CasePhase.CAVITY_SCAN: (CasePhase.RECONCILED, CasePhase.CLOSING_ANNOUNCED),
    CasePhase.RECONCILED: (CasePhase.AWAITING_SPD,),
    CasePhase.AWAITING_SPD: (CasePhase.COMPLETE,),
    CasePhase.COMPLETE: (),
}


class Severity(StrEnum):
    INFO = "Info"
    WARNING = "Warning"
    CRITICAL = "Critical"


class AlertKind(StrEnum):
    NEW_EQUIPMENT_DETECTED = "NewEquipmentDetected"
    EQUIPMENT_LEFT_OR = "EquipmentLeftOR"
    RSB_SUSPECTED = "RsbSuspected"
    COUNT_MISMATCH = "CountMismatch"
    SENSOR_DOWN = "SensorDown"
    MANUAL_OVERRIDE = "ManualOverride"


class InvalidPhaseError(Exception):
    """A case operation was attempted in the wrong lifecycle phase."""


class StaleCaseError(Exception):
    """A message referenced a case that has already completed."""


class UnknownCaseError(Exception):
    """No case with the given id exists."""


@dataclass
class Alert:
    """Staff-facing notification. Retention and count findings are always critical."""

    severity: Severity
    kind: AlertKind
    tags: frozenset[str]
    text: str

    def __post_init__(self) -> None:
        if self.kind in (AlertKind.RSB_SUSPECTED, AlertKind.COUNT_MISMATCH):
            self.severity = Severity.CRITICAL

    def to_json(self) -> dict:
        return {"severity": self.severity, "kind": self.kind,
                "tags": sorted(self.tags), "text": self.text}


@dataclass(init=False, slots=True)
class ProtocolMessage:
    """Typed message between nodes. ``msg_id`` is stamped by the bus on send
    (slotted, with a plain ``__init__``: a run builds one per send)."""

    time_s: int
    from_node: str
    to_node: str
    payload: dict
    msg_id: int

    def __init__(self, time_s: int, from_node: str, to_node: str, payload: dict,
                 msg_id: int = 0) -> None:
        if from_node == to_node:
            raise ValueError("a node cannot message itself")
        self.time_s, self.from_node, self.to_node = time_s, from_node, to_node
        self.payload, self.msg_id = payload, msg_id

    def to_json(self) -> dict:
        return {"msg_id": self.msg_id, "from": self.from_node, "to": self.to_node,
                "payload": self.payload}


@dataclass(init=False, slots=True)
class Outputs:
    """Everything a handler wants the kernel to do or record: the engine's outbox,
    which each handler appends to and the engine carries out and empties after each
    handler call. A handler that raises does so before it appends anything."""

    messages: list[ProtocolMessage]
    alerts: list[Alert]
    phase_changes: list[tuple[str, CasePhase, CasePhase]]

    def __init__(self) -> None:
        self.messages, self.alerts, self.phase_changes = [], [], []


def _twin(obj):
    """A shallow copy of ``obj``, made as ``copy.copy`` makes it but several times faster."""
    twin = object.__new__(type(obj))
    twin.__dict__.update(obj.__dict__)
    return twin


@dataclass
class ChecklistEntry:
    """A tag on a cart's checklist, written only by ``MtcState.mark``; an ``OnTray``
    or ``Discarded`` entry's ``last_seen_s`` is a lower bound (``MtcState.last_seen``)."""

    status: TagStatus
    last_seen_s: int


# --------------------------------------------------------------------------
# Room sensor


@dataclass
class RoomSensorState:
    room_id: str
    believed_inside: set[str] = field(default_factory=set)

    @property
    def node_id(self) -> str:
        return f"RS:{self.room_id}"


def room_sensor_on_reads(state: RoomSensorState, tags: list[str],
                         now: int) -> list[ProtocolMessage]:
    """Turn the tags an entrance read saw at ``now`` into crossing reports.

    Direction is inferred from the believed side of the entrance: a read of
    a tag believed outside means it came in, and vice versa.
    """
    messages = []
    for tag in tags:
        if tag in state.believed_inside:
            direction = "out"
            state.believed_inside.discard(tag)
        else:
            direction = "in"
            state.believed_inside.add(tag)
        messages.append(ProtocolMessage(
            time_s=now, from_node=state.node_id, to_node=CMS_NODE,
            payload={"kind": "RoomCrossing", "tag": tag,
                     "room": state.room_id, "direction": direction}))
    return messages


# --------------------------------------------------------------------------
# Central management service


@dataclass
class CmsState:
    """Each case's room and checklist mirror."""

    case_by_room: dict[str, str] = field(default_factory=dict)
    room_by_case: dict[str, str] = field(default_factory=dict)
    checklist_mirror: dict[str, set[str]] = field(default_factory=dict)

    def register_case(self, case_id: str, room_id: str) -> None:
        self.case_by_room[room_id] = case_id
        self.room_by_case[case_id] = room_id
        self.checklist_mirror[case_id] = set()


def cms_handle(state: CmsState, msg: ProtocolMessage, out: Outputs) -> None:
    """Route one message through the central service."""
    payload = msg.payload
    kind = payload["kind"]

    if kind == "RoomCrossing":
        tag, room, direction = payload["tag"], payload["room"], payload["direction"]
        case_id = state.case_by_room.get(room)
        if case_id is None:
            return  # a room without a case has no cart to tell
        mirror = state.checklist_mirror[case_id]
        if direction == "in" and tag not in mirror:
            news = "NewEquipmentInOR"
        elif direction == "out" and tag in mirror:
            news = "EquipmentLeftOR"
        else:
            return  # the cart already knows
        payload = {"kind": news, "tag": tag, "case": case_id}

    elif kind == "ChecklistUpdate":
        mirror = state.checklist_mirror[payload["case"]]
        if payload["action"] == "add":
            mirror.add(payload["tag"])
        else:
            mirror.discard(payload["tag"])
        return

    elif kind == "SpdReadyAck":
        room = state.room_by_case[payload["case"]]  # spd_acknowledge rejected an unknown case
        payload = dict(payload)

    elif kind == "ClosingAnnounced":
        return  # report bookkeeping only; the trace already records it

    else:
        raise ValueError(f"CMS cannot handle payload kind {kind!r}")
    out.messages.append(ProtocolMessage(
        time_s=msg.time_s, from_node=CMS_NODE, to_node=f"MTC:{room}", payload=payload))


# --------------------------------------------------------------------------
# Mobile tool cart


#: Re-scans a count mismatch may request before a manual override is demanded.
DEFAULT_MAX_RESCANS = 2


@dataclass
class MtcState:
    """The cart of one operating room: its case's lifecycle, checklist and scan counters.

    Every status change goes through ``mark``, which keeps ``swept[status]`` exactly the
    tags whose entry has ``status`` (``OnTray`` or ``Discarded``, set only by that kind
    of sweep); both sets are built from ``entries`` when the cart is made. Each tag in a
    set was seen at ``swept_at[status]``, that kind's last sweep, so its ``last_seen_s``
    is a lower bound that ``last_seen`` resolves. The kernel compares a set with an
    antenna's location to skip a sweep.
    """

    case_id: str
    room_id: str
    phase: CasePhase = CasePhase.SETUP
    spd_acked: bool = False
    entries: dict[str, ChecklistEntry] = field(default_factory=dict)
    scan_passes: int = DEFAULT_SCAN_PASSES
    max_rescans: int = DEFAULT_MAX_RESCANS
    rescans_used: int = 0
    awaiting_staff_removal: bool = False
    scans_done: int = 0
    last_outcome: str | None = None
    completed_s: int | None = None  # tick the case completed; stamped by the kernel
    swept: dict[TagStatus, set[str]] = field(init=False)  # sweep status -> its tags
    swept_at: dict[TagStatus, int] = field(default_factory=dict)  # sweep status -> last tick

    def __post_init__(self) -> None:
        self.swept = swept = {TagStatus.ON_TRAY: set(), TagStatus.DISCARDED: set()}
        for tag, entry in self.entries.items():
            if (held := swept.get(entry.status)) is not None:
                held.add(tag)

    def copy(self) -> "MtcState":
        """This cart with its own checklist entries, sweep sets and sweep ticks."""
        twin = _twin(self)
        twin.entries = {tag: _twin(entry) for tag, entry in self.entries.items()}
        twin.swept = {status: set(tags) for status, tags in self.swept.items()}
        twin.swept_at = dict(self.swept_at)
        return twin

    @property
    def node_id(self) -> str:
        return f"MTC:{self.room_id}"

    @property
    def med_node(self) -> str:
        return f"MED:{self.room_id}"

    def active_tags(self) -> set[str]:
        """Tags counted toward reconciliation (everything not removed from the OR)."""
        return {t for t, e in self.entries.items()
                if e.status is not TagStatus.REMOVED_FROM_OR}

    def last_seen(self, tag: str) -> int:
        """``tag``'s last sighting: the later of its own stamp and its status's last sweep."""
        entry = self.entries[tag]
        return max(entry.last_seen_s, self.swept_at.get(entry.status, 0))

    def mark(self, tag: str, status: TagStatus, seen_s: int, out: Outputs) -> None:
        """The one writer of an entry's status: give ``tag`` ``status`` and ``seen_s``,
        making its entry if it has none, and move it between the sweep sets. A tag
        joining the active checklist sends the CMS an ``add`` and takes the case out
        of Setup; one leaving it sends a ``remove``."""
        swept = self.swept
        if (entry := self.entries.get(tag)) is None:
            self.entries[tag] = ChecklistEntry(status, seen_s)
            was = TagStatus.REMOVED_FROM_OR  # off the active checklist, as a removed tag is
        else:
            was, entry.status, entry.last_seen_s = entry.status, status, seen_s
            if (held := swept.get(was)) is not None:
                held.discard(tag)
        if (held := swept.get(status)) is not None:
            held.add(tag)
        joins = status is not TagStatus.REMOVED_FROM_OR
        if joins is (was is not TagStatus.REMOVED_FROM_OR):
            return  # it neither joins nor leaves the active checklist
        out.messages.append(ProtocolMessage(
            time_s=seen_s, from_node=self.node_id, to_node=CMS_NODE,
            payload={"kind": "ChecklistUpdate", "case": self.case_id,
                     "action": "add" if joins else "remove", "tag": tag}))
        if joins and self.phase is CasePhase.SETUP:
            out.phase_changes.append(self.advance(CasePhase.IN_PROGRESS))

    def advance(self, to: CasePhase) -> tuple[str, CasePhase, CasePhase]:
        if to not in PHASE_GRAPH[self.phase]:
            raise InvalidPhaseError(f"{self.case_id}: illegal transition {self.phase} -> {to}")
        if to is CasePhase.COMPLETE and not self.spd_acked:
            raise InvalidPhaseError(f"{self.case_id}: cannot complete without SPD ack")
        change = (self.case_id, self.phase, to)
        self.phase = to
        return change


def request_cavity_scan(state: MtcState, now: int) -> ProtocolMessage:
    """The cart's request for a cavity scan from its room's detector."""
    return ProtocolMessage(
        time_s=now, from_node=state.node_id, to_node=state.med_node,
        payload={"kind": "RequestCavityScan", "case": state.case_id})


def mtc_handle(state: MtcState, msg: ProtocolMessage, out: Outputs) -> None:
    """Apply one message from the central service to the cart's checklist."""
    if state.phase is CasePhase.COMPLETE:
        raise StaleCaseError(f"case {state.case_id} already complete")
    payload = msg.payload
    kind = payload["kind"]
    now = msg.time_s

    if kind == "NewEquipmentInOR":
        tag = payload["tag"]
        entry = state.entries.get(tag)
        if entry is not None and entry.status is not TagStatus.REMOVED_FROM_OR:
            entry.last_seen_s = now  # idempotent: an active tag raises no second alert
            return
        state.mark(tag, TagStatus.IN_USE, now, out)
        out.alerts.append(Alert(
            severity=Severity.INFO, kind=AlertKind.NEW_EQUIPMENT_DETECTED,
            tags=frozenset([tag]),
            text=f"new equipment {tag} detected in {state.room_id}, "
                 f"added to monitoring checklist"))

    elif kind == "EquipmentLeftOR":
        tag = payload["tag"]
        entry = state.entries.get(tag)
        if entry is None or entry.status is TagStatus.REMOVED_FROM_OR:
            return
        state.mark(tag, TagStatus.REMOVED_FROM_OR, now, out)
        # Removing items mid-reconciliation can mask a retained item.
        severity = (Severity.WARNING
                    if state.phase in (CasePhase.CLOSING_ANNOUNCED, CasePhase.CAVITY_SCAN)
                    else Severity.INFO)
        out.alerts.append(Alert(
            severity=severity, kind=AlertKind.EQUIPMENT_LEFT_OR,
            tags=frozenset([tag]),
            text=f"{tag} left {state.room_id}, removed from monitoring checklist"))

    elif kind == "SpdReadyAck":
        if state.phase is not CasePhase.AWAITING_SPD:
            raise InvalidPhaseError(f"SPD ack for {state.case_id} in phase {state.phase}")
        state.spd_acked = True
        out.phase_changes.append(state.advance(CasePhase.COMPLETE))

    else:
        raise ValueError(f"MTC cannot handle payload kind {kind!r}")


def _sweep(state: MtcState, detected: set[str], now: int, status: TagStatus,
           out: Outputs) -> None:
    """Full antenna sweep: presence sets ``status``, absence demotes to InUse.

    Only the tags entering or leaving ``swept[status]`` are visited, each through
    ``MtcState.mark``, which leaves that set equal to ``detected``; a demoted tag is
    stamped with the last tick it was seen at."""
    if state.phase is CasePhase.COMPLETE:
        raise StaleCaseError(f"case {state.case_id} already complete")
    held = state.swept[status]
    for tag in sorted(detected ^ held):  # adds go out sorted
        if tag in held:  # gone: seen last at the previous sweep of this kind
            state.mark(tag, TagStatus.IN_USE, state.last_seen(tag), out)
        else:  # arrived, leaving the other kind's set if it was there
            state.mark(tag, status, now, out)
    state.swept_at[status] = now


def mtc_tray_sweep(state: MtcState, detected: set[str], now: int, out: Outputs) -> None:
    """Full tray antenna sweep: presence sets OnTray, absence demotes to InUse."""
    _sweep(state, detected, now, TagStatus.ON_TRAY, out)


def mtc_bin_sweep(state: MtcState, detected: set[str], now: int, out: Outputs) -> None:
    """Full trash-bin antenna sweep; discarded items stay on the count."""
    _sweep(state, detected, now, TagStatus.DISCARDED, out)


def announce_closing(state: MtcState, now: int, out: Outputs) -> None:
    """Staff announced closing: request a cavity scan from the detector."""
    if state.phase is not CasePhase.IN_PROGRESS:
        raise InvalidPhaseError(f"cannot announce closing in phase {state.phase}")
    out.phase_changes.append(state.advance(CasePhase.CLOSING_ANNOUNCED))
    out.messages.append(ProtocolMessage(
        time_s=now, from_node=state.node_id, to_node=CMS_NODE,
        payload={"kind": "ClosingAnnounced", "case": state.case_id}))
    out.messages.append(request_cavity_scan(state, now))


def mtc_staff_rescan(state: MtcState, now: int, out: Outputs) -> None:
    """Staff acted after a retention alert and asked for a verification re-scan."""
    if state.awaiting_staff_removal and state.phase is CasePhase.CLOSING_ANNOUNCED:
        state.awaiting_staff_removal = False
        out.messages.append(request_cavity_scan(state, now))


# --------------------------------------------------------------------------
# Medical equipment detector


def med_on_request(room_id: str, case_id: str, scan: ScanResult, now: int) -> ProtocolMessage:
    """Wrap a finished cavity scan into a result message for the cart."""
    return ProtocolMessage(
        time_s=now, from_node=f"MED:{room_id}", to_node=f"MTC:{room_id}",
        payload={"kind": "CavityScanResult", "case": case_id, "scan": scan.to_json()})


# --------------------------------------------------------------------------
# Sterile processing department


def spd_acknowledge(case_id: str, carts: dict[str, MtcState], now: int) -> ProtocolMessage:
    """SPD confirms readiness at ``now``; only valid while the case awaits it (a
    reconciled case moves on to AwaitingSpd within the same handler call)."""
    cart = carts.get(case_id)
    if cart is None:
        raise UnknownCaseError(f"unknown case: {case_id}")
    if cart.phase is not CasePhase.AWAITING_SPD:
        raise InvalidPhaseError(f"SPD ack for {case_id} in phase {cart.phase}")
    return ProtocolMessage(
        time_s=now, from_node=SPD_NODE, to_node=CMS_NODE,
        payload={"kind": "SpdReadyAck", "case": case_id})
