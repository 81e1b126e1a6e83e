"""The trace, a run's record: its NDJSON file form, its one walk, and ``locate``.

Records serialize through one C encoder, built at import, with alphabetically ordered
keys, so equal runs are equal bytes. ``load`` reads a persisted trace back, ``read_trace``
walks it once, checking it and collecting the ``TraceReading`` every post-run consumer
projects from, and ``locate`` reads a tag's location belief from that; an unreadable or
invalid trace raises ``TraceIOError``. ``kernel.validate_trace`` lists its problems instead.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from json.encoder import c_make_encoder, encode_basestring_ascii

from .model import SubLocation
from .protocol import PHASE_GRAPH, CasePhase

_CAVITY = SubLocation.PATIENT_CAVITY
#: The C encoder that ``json.dumps(r, sort_keys=True, separators=(",", ":"))`` builds on
#: every call, built once: (markers, default, str encoder, indent, key and item separators,
#: sort_keys, skipkeys, allow_nan), with no cycle markers, as each record is a fresh tree.
_encode = c_make_encoder(None, json.JSONEncoder().default, encode_basestring_ascii, None,
                         ":", ",", True, False, True)


class TraceIOError(Exception):
    """A persisted trace could not be read back intact."""


class UnknownTagError(Exception):
    """Location query for a tag that was never registered."""


@dataclass
class Trace:
    """Ordered run records; equal traces serialize to identical bytes."""

    records: list[dict] = field(default_factory=list)

    def to_ndjson(self) -> str:
        return "".join(["".join(_encode(r, 0)) + "\n" for r in self.records])

    @classmethod
    def from_ndjson(cls, text: str) -> "Trace":
        """Parse NDJSON text; a torn record (no final newline, a blank or non-JSON line), a
        line too deep or with an integer too long to parse, or one that is not a JSON object
        raises ``TraceIOError``. Only ``\n`` ends a record: a raw U+2028 in a string is valid."""
        if text and not text.endswith("\n"):
            raise TraceIOError("truncated record")
        records = []
        for lineno, line in enumerate(text.split("\n")[:-1], start=1):
            try:
                records.append(record := json.loads(line))
            except json.JSONDecodeError as exc:
                raise TraceIOError(f"truncated record at line {lineno}") from exc
            except (ValueError, RecursionError) as exc:  # too deep, or an int too long
                raise TraceIOError(f"unreadable record at line {lineno}: {exc}") from exc
            if not isinstance(record, dict):
                raise TraceIOError(f"record at line {lineno} is not a JSON object")
        return cls(records=records)


def load(store_path: str) -> Trace:
    """Read a persisted trace back; a file that cannot be opened or is not UTF-8, or a
    record ``Trace.from_ndjson`` rejects, raises ``TraceIOError``."""
    try:
        with open(store_path, encoding="utf-8") as handle:
            data = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise TraceIOError(str(exc)) from exc
    return Trace.from_ndjson(data)


@dataclass
class TraceReading:
    """What post-run consumers read from a trace, collected in one pass.

    ``kinds`` holds the item kind of each tag the ``meta`` record registers; ``alerts`` the
    alert records per case id (None for no case); ``belief`` each tag's room (None once it
    left) and read tick from its last delivered ``RoomCrossing``; ``scan_passes`` the passes
    of each case's delivered cavity scans; ``first_seen`` the first tick each tag is named
    in a move, message or alert; ``cavity`` the ground-truth cavity contents per room; and
    ``retained_at`` the phases some case entered while its room's cavity held an item.
    """

    meta: dict | None = None
    kinds: dict[str, str] = field(default_factory=dict)
    cases: dict[str, dict] = field(default_factory=dict)
    alerts: dict[str | None, list[dict]] = field(default_factory=dict)
    belief: dict[str, tuple[str | None, int]] = field(default_factory=dict)
    scan_passes: dict[str, int] = field(default_factory=dict)
    first_seen: dict[str, int] = field(default_factory=dict)
    cavity: dict[str, set[str]] = field(default_factory=dict)
    retained_at: set[str] = field(default_factory=set)


def read_trace(trace: Trace, problems: list[str] | None = None) -> TraceReading:
    """Walk the records once, in order, into a ``TraceReading``, checking shapes, ticks, phase
    paths, msg ids, statuses and causality, and types: the first problem raises ``TraceIOError``,
    or, given ``problems``, each is appended there. A malformed record moves no check."""
    reading, room_by_case = TraceReading(), {}
    seen, cavity, belief = reading.first_seen.setdefault, reading.cavity, reading.belief
    last_t, phase_by_case, msg_ids = 0, {}, set()
    for idx, record in enumerate(trace.records):
        try:
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
            elif kind == "alert":  # with every field a report or a summary reads
                for tag in record["tags"]:
                    seen(tag, t)
                reading.alerts.setdefault(record["case"], []).append(record)
                if not isinstance(record["kind"], str):
                    raise TypeError("alert kind")
                _ = record["severity"], record["text"]
            elif kind == "phase":
                if cavity.get(room_by_case.get(record["case"])):
                    reading.retained_at.add(record["to"])
            elif kind == "case":  # with every field a report or a summary reads, typed
                phase, outcomes = record["phase"], record["outcomes"]
                if not (isinstance(phase, str) and isinstance(outcomes, list)
                        and all(isinstance(outcome, str) for outcome in outcomes)):
                    raise TypeError("case phase or outcomes")
                for entry in record["entries"].values():
                    _ = entry["status"], entry["last_seen_s"]
                reading.cases[record["case_id"]] = record
            elif kind == "meta":
                reading.meta = record
                reading.kinds = {item["tag"]: item["kind"] for item in record["items"]}
                room_by_case = {case["case_id"]: case["room_id"] for case in record["cases"]}
                _ = record["horizon_s"]
            found = (f"tick {t} before {last_t}",) if t < last_t else ()
            if kind == "phase":
                case, current = record["case"], phase_by_case.get(record["case"], CasePhase.SETUP)
                frm, to = CasePhase(record["from"]), CasePhase(record["to"])
                if frm is not current:
                    found += (f"case {case} phase record from {frm}, believed {current}",)
                if to not in PHASE_GRAPH[frm]:
                    found += (f"illegal transition {frm} -> {to}",)
                phase_by_case[case] = to
            elif kind == "msg":
                if (msg_id := record["msg"]["msg_id"]) in msg_ids:
                    found += (f"duplicate msg_id {msg_id}",)
                if (status := record["status"]) not in ("delivered", "dropped"):
                    found += (f"unknown msg status {status!r}",)
                elif status == "delivered" and record["sent_at"] > t:
                    found += ("delivered before sent",)
                msg_ids.add(msg_id)
            elif kind not in ("meta", "gt", "alert", "error", "case"):
                found += (f"unknown type {kind!r}",)
            last_t = t if t > last_t else last_t
        except (AttributeError, KeyError, TypeError, ValueError) as exc:  # entries not a mapping
            found = (f"malformed ({exc!r:.60})",)
        if found:
            if problems is None:
                raise TraceIOError(f"record {idx}: {found[0]}")
            problems.extend(f"record {idx}: {problem}" for problem in found)
    return reading


def locate(reading: TraceReading, tag_id: str) -> tuple[str | None, int | None]:
    """A tag's believed room and read tick; (None, None) if its entrance crossings
    were never read, a room of None once read leaving one."""
    if tag_id not in reading.kinds:
        raise UnknownTagError(f"unknown tag: {tag_id}")
    return reading.belief.get(tag_id, (None, None))
