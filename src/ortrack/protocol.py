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
same successor state and outputs. The kernel serializes delivery, so no
handler ever runs concurrently with another.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import StrEnum

from .sensing import DEFAULT_SCAN_PASSES, ScanResult

CMS_NODE = "CMS"
SPD_NODE = "SPD"

#: Tie-break order for simultaneous deliveries (staff/world actions are 0,
#: a node of any other type 9).
NODE_PRIORITY = {"RS": 1, "MED": 2, "MTC": 3, "CMS": 4, "SPD": 5}


def node_type(node_id: str) -> str:
    return node_id.split(":", 1)[0]


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


@dataclass
class ProtocolMessage:
    """Typed message between nodes. ``msg_id`` is stamped by the bus on send."""

    time_s: int
    from_node: str
    to_node: str
    payload: dict
    msg_id: int = 0

    def __post_init__(self) -> None:
        if self.from_node == self.to_node:
            raise ValueError("a node cannot message itself")

    def to_json(self) -> dict:
        return {"msg_id": self.msg_id, "from": self.from_node, "to": self.to_node,
                "payload": self.payload}


class Outputs:
    """Everything a handler wants the kernel to do or record (slotted: most stay empty)."""

    __slots__ = ("messages", "alerts", "phase_changes")

    def __init__(self) -> None:
        self.messages: list[ProtocolMessage] = []
        self.alerts: list[Alert] = []
        self.phase_changes: list[tuple[str, CasePhase, CasePhase]] = []

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Outputs) and (
            self.messages, self.alerts, self.phase_changes) == (
            other.messages, other.alerts, other.phase_changes)

    def extend(self, other: "Outputs") -> None:
        self.messages.extend(other.messages)
        self.alerts.extend(other.alerts)
        self.phase_changes.extend(other.phase_changes)


@dataclass
class ChecklistEntry:
    """A tag on a cart's checklist; an ``OnTray`` or ``Discarded`` entry's
    ``last_seen_s`` is a lower bound, resolved by ``MtcState.last_seen``."""

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


def cms_handle(state: CmsState, msg: ProtocolMessage) -> Outputs:
    """Route one message through the central service."""
    out = Outputs()
    payload = msg.payload
    kind = payload["kind"]

    if kind == "RoomCrossing":
        tag, room, direction = payload["tag"], payload["room"], payload["direction"]
        case_id = state.case_by_room.get(room)
        if case_id is None:
            return out  # a room without a case has no cart to tell
        mirror = state.checklist_mirror[case_id]
        mtc = f"MTC:{room}"
        if direction == "in" and tag not in mirror:
            out.messages.append(ProtocolMessage(
                time_s=msg.time_s, from_node=CMS_NODE, to_node=mtc,
                payload={"kind": "NewEquipmentInOR", "tag": tag, "case": case_id}))
        elif direction == "out" and tag in mirror:
            out.messages.append(ProtocolMessage(
                time_s=msg.time_s, from_node=CMS_NODE, to_node=mtc,
                payload={"kind": "EquipmentLeftOR", "tag": tag, "case": case_id}))

    elif kind == "ChecklistUpdate":
        mirror = state.checklist_mirror[payload["case"]]
        if payload["action"] == "add":
            mirror.add(payload["tag"])
        else:
            mirror.discard(payload["tag"])

    elif kind == "SpdReadyAck":
        room = state.room_by_case[payload["case"]]  # spd_acknowledge rejected an unknown case
        out.messages.append(ProtocolMessage(
            time_s=msg.time_s, from_node=CMS_NODE, to_node=f"MTC:{room}",
            payload=dict(payload)))

    elif kind == "ClosingAnnounced":
        pass  # report bookkeeping only; the trace already records it

    else:
        raise ValueError(f"CMS cannot handle payload kind {kind!r}")
    return out


# --------------------------------------------------------------------------
# Mobile tool cart


#: Re-scans a count mismatch may request before a manual override is demanded.
DEFAULT_MAX_RESCANS = 2


@dataclass
class MtcState:
    """The cart of one operating room: its case's lifecycle, checklist and scan counters.

    ``swept[status]`` holds exactly the tags whose entry has ``status`` (``OnTray`` or
    ``Discarded``, set only by that kind of sweep); each was seen at ``swept_at[status]``,
    that kind's last sweep, so its ``last_seen_s`` is a lower bound that ``last_seen``
    resolves. The kernel compares the set with an antenna's location to skip a sweep.
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
    swept: dict[TagStatus, set[str]] = field(default_factory=dict)  # sweep status -> its tags
    swept_at: dict[TagStatus, int] = field(default_factory=dict)  # sweep status -> last tick

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

    def unsweep(self, tag: str) -> None:
        """Drop ``tag`` from the sweep sets; its entry is leaving a sweep status."""
        for held in self.swept.values():
            held.discard(tag)

    def advance(self, to: CasePhase) -> tuple[str, CasePhase, CasePhase]:
        if to not in PHASE_GRAPH[self.phase]:
            raise InvalidPhaseError(f"{self.case_id}: illegal transition {self.phase} -> {to}")
        if to is CasePhase.COMPLETE and not self.spd_acked:
            raise InvalidPhaseError(f"{self.case_id}: cannot complete without SPD ack")
        change = (self.case_id, self.phase, to)
        self.phase = to
        return change


def _checklist_update(state: MtcState, action: str, tag: str, now: int) -> ProtocolMessage:
    return ProtocolMessage(
        time_s=now, from_node=state.node_id, to_node=CMS_NODE,
        payload={"kind": "ChecklistUpdate", "case": state.case_id,
                 "action": action, "tag": tag})


def _add_or_reactivate(state: MtcState, tag: str, status: TagStatus, now: int,
                       out: Outputs) -> bool:
    """Put a tag on the active checklist; returns False if already active."""
    entry = state.entries.get(tag)
    if entry is None:
        state.entries[tag] = ChecklistEntry(status=status, last_seen_s=now)
    else:
        entry.last_seen_s = now
        if entry.status is not TagStatus.REMOVED_FROM_OR:
            return False
        entry.status = status
    out.messages.append(_checklist_update(state, "add", tag, now))
    if state.phase is CasePhase.SETUP:
        out.phase_changes.append(state.advance(CasePhase.IN_PROGRESS))
    return True


def mtc_handle(state: MtcState, msg: ProtocolMessage) -> Outputs:
    """Apply one message from the central service to the cart's checklist."""
    if state.phase is CasePhase.COMPLETE:
        raise StaleCaseError(f"case {state.case_id} already complete")
    out = Outputs()
    payload = msg.payload
    kind = payload["kind"]
    now = msg.time_s

    if kind == "NewEquipmentInOR":
        # idempotent: a tag already on the checklist raises no second alert
        if _add_or_reactivate(state, payload["tag"], TagStatus.IN_USE, now, out):
            out.alerts.append(Alert(
                severity=Severity.INFO, kind=AlertKind.NEW_EQUIPMENT_DETECTED,
                tags=frozenset([payload["tag"]]),
                text=f"new equipment {payload['tag']} detected in {state.room_id}, "
                     f"added to monitoring checklist"))

    elif kind == "EquipmentLeftOR":
        entry = state.entries.get(payload["tag"])
        if entry is not None and entry.status is not TagStatus.REMOVED_FROM_OR:
            state.unsweep(payload["tag"])
            entry.status = TagStatus.REMOVED_FROM_OR
            entry.last_seen_s = now
            out.messages.append(_checklist_update(state, "remove", payload["tag"], now))
            # Removing items mid-reconciliation can mask a retained item.
            severity = (Severity.WARNING
                        if state.phase in (CasePhase.CLOSING_ANNOUNCED, CasePhase.CAVITY_SCAN)
                        else Severity.INFO)
            out.alerts.append(Alert(
                severity=severity, kind=AlertKind.EQUIPMENT_LEFT_OR,
                tags=frozenset([payload["tag"]]),
                text=f"{payload['tag']} left {state.room_id}, "
                     f"removed from monitoring checklist"))

    elif kind == "SpdReadyAck":
        if state.phase not in (CasePhase.RECONCILED, CasePhase.AWAITING_SPD):
            raise InvalidPhaseError(f"SPD ack for {state.case_id} in phase {state.phase}")
        state.spd_acked = True
        if state.phase is CasePhase.RECONCILED:
            out.phase_changes.append(state.advance(CasePhase.AWAITING_SPD))
        out.phase_changes.append(state.advance(CasePhase.COMPLETE))

    else:
        raise ValueError(f"MTC cannot handle payload kind {kind!r}")
    return out


def _sweep(state: MtcState, detected: set[str], now: int, status: TagStatus) -> Outputs:
    """Full antenna sweep: presence sets ``status``, absence demotes to InUse.

    Only tags entering or leaving ``swept[status]`` are visited, and ``detected``
    becomes that set as given; a demoted tag is stamped with the last tick it was
    seen at. A cart's first sweep of a kind builds the set with one walk."""
    if state.phase is CasePhase.COMPLETE:
        raise StaleCaseError(f"case {state.case_id} already complete")
    out = Outputs()
    entries, swept = state.entries, state.swept
    if (held := swept.get(status)) is None:
        held = swept[status] = {t for t, e in entries.items() if e.status is status}
    if changed := detected ^ held:
        for tag in sorted(changed) if len(changed) > 1 else changed:  # adds go out sorted
            entry = entries.get(tag)
            if tag in held:  # gone: seen last at the previous sweep of this kind
                entry.status = TagStatus.IN_USE
                entry.last_seen_s = max(entry.last_seen_s, state.swept_at.get(status, 0))
            elif entry is None or entry.status is TagStatus.REMOVED_FROM_OR:
                _add_or_reactivate(state, tag, status, now, out)
            else:  # active: takes this status, leaving the other kind's set
                state.unsweep(tag)
                entry.status, entry.last_seen_s = status, now
        swept[status] = detected
    state.swept_at[status] = now
    return out


def mtc_tray_sweep(state: MtcState, detected: set[str], now: int) -> Outputs:
    """Full tray antenna sweep: presence sets OnTray, absence demotes to InUse."""
    return _sweep(state, detected, now, TagStatus.ON_TRAY)


def mtc_bin_sweep(state: MtcState, detected: set[str], now: int) -> Outputs:
    """Full trash-bin antenna sweep; discarded items stay on the count."""
    return _sweep(state, detected, now, TagStatus.DISCARDED)


def announce_closing(state: MtcState, now: int) -> Outputs:
    """Staff announced closing: request a cavity scan from the detector."""
    if state.phase is not CasePhase.IN_PROGRESS:
        raise InvalidPhaseError(f"cannot announce closing in phase {state.phase}")
    out = Outputs()
    out.phase_changes.append(state.advance(CasePhase.CLOSING_ANNOUNCED))
    out.messages.append(ProtocolMessage(
        time_s=now, from_node=state.node_id, to_node=CMS_NODE,
        payload={"kind": "ClosingAnnounced", "case": state.case_id}))
    out.messages.append(ProtocolMessage(
        time_s=now, from_node=state.node_id, to_node=state.med_node,
        payload={"kind": "RequestCavityScan", "case": state.case_id}))
    return out


def mtc_staff_rescan(state: MtcState, now: int) -> Outputs:
    """Staff acted after a retention alert and asked for a verification re-scan."""
    out = Outputs()
    if state.awaiting_staff_removal and state.phase is CasePhase.CLOSING_ANNOUNCED:
        state.awaiting_staff_removal = False
        out.messages.append(ProtocolMessage(
            time_s=now, from_node=state.node_id, to_node=state.med_node,
            payload={"kind": "RequestCavityScan", "case": state.case_id}))
    return out


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
    """SPD confirms readiness at ``now``; only valid once the case is reconciled."""
    cart = carts.get(case_id)
    if cart is None:
        raise UnknownCaseError(f"unknown case: {case_id}")
    if cart.phase not in (CasePhase.RECONCILED, CasePhase.AWAITING_SPD):
        raise InvalidPhaseError(f"SPD ack for {case_id} in phase {cart.phase}")
    return ProtocolMessage(
        time_s=now, from_node=SPD_NODE, to_node=CMS_NODE,
        payload={"kind": "SpdReadyAck", "case": case_id})
