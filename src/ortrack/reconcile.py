"""Closing-time counting, retention detection, per-case reports and the history store.

Reconciliation is a pure set computation over the cart's checklist, the
re-verification tray and bin reads, and the final cavity scan:

* expected   — every checklist tag not removed from the room
* accounted  — expected tags re-verified on the tray or in the bin
* missing    — expected minus accounted
* outcome    — retention suspected whenever the cavity scan saw anything;
               otherwise clean iff nothing is missing

A suspected retention loops the case back for staff action and a re-scan.
A persistent count mismatch burns a bounded re-scan budget and then demands
a manual override; the case can never quietly complete either way.
"""

from __future__ import annotations

import csv
import io
import os
import tempfile
from dataclasses import dataclass, field
from enum import StrEnum

from .protocol import (
    Alert,
    AlertKind,
    CasePhase,
    InvalidPhaseError,
    MtcState,
    Outputs,
    Severity,
    TagStatus,
    UnknownCaseError,
    mtc_bin_sweep,
    mtc_tray_sweep,
    request_cavity_scan,
)


class Outcome(StrEnum):
    CLEAN = "Clean"
    RSB_SUSPECTED = "RsbSuspected"
    COUNT_MISMATCH = "CountMismatch"


@dataclass(frozen=True)
class ReconciliationReport:
    case_id: str
    expected: frozenset[str]
    accounted: frozenset[str]
    missing: frozenset[str]
    cavity_detected: frozenset[str]
    outcome: Outcome


def reconcile(state: MtcState, tray_reads: set[str], bin_reads: set[str],
              cavity: frozenset[str]) -> ReconciliationReport:
    """Compare the cart's expected items against re-verified ones; pure set arithmetic."""
    expected = frozenset(state.active_tags())
    accounted = frozenset((tray_reads | bin_reads) & expected)
    missing = expected - accounted
    if cavity:
        outcome = Outcome.RSB_SUSPECTED
    elif missing:
        outcome = Outcome.COUNT_MISMATCH
    else:
        outcome = Outcome.CLEAN
    return ReconciliationReport(case_id=state.case_id, expected=expected,
                                accounted=accounted, missing=missing,
                                cavity_detected=cavity, outcome=outcome)


def apply_scan_outcome(state: MtcState, cavity: frozenset[str], tray_reads: set[str],
                       bin_reads: set[str], now: int, out: Outputs) -> None:
    """One reconciliation pass: sweep, reconcile, and move the case lifecycle.

    Appends the pass's messages, alerts and phase changes to ``out``. On a count
    mismatch within budget they carry a fresh scan request; past the budget a
    manual override is demanded and the phase stays at the cavity scan.
    """
    if state.phase is CasePhase.CLOSING_ANNOUNCED:
        out.phase_changes.append(state.advance(CasePhase.CAVITY_SCAN))
    elif state.phase is not CasePhase.CAVITY_SCAN:
        raise InvalidPhaseError(f"scan result in phase {state.phase}")

    mtc_tray_sweep(state, tray_reads, now, out)
    mtc_bin_sweep(state, bin_reads, now, out)
    report = reconcile(state, tray_reads, bin_reads, cavity)
    state.scans_done += 1
    state.last_outcome = report.outcome

    if report.outcome is Outcome.CLEAN:
        state.awaiting_staff_removal = False
        out.phase_changes.append(state.advance(CasePhase.RECONCILED))
        out.phase_changes.append(state.advance(CasePhase.AWAITING_SPD))

    elif report.outcome is Outcome.RSB_SUSPECTED:
        for tag in report.cavity_detected:
            entry = state.entries.get(tag)
            if entry is not None and entry.status is not TagStatus.REMOVED_FROM_OR:
                state.mark(tag, TagStatus.IN_CAVITY_BELIEF, now, out)
        out.alerts.append(Alert(
            severity=Severity.CRITICAL, kind=AlertKind.RSB_SUSPECTED,
            tags=report.cavity_detected,
            text=f"cavity scan detected {sorted(report.cavity_detected)}; "
                 f"remove before closing"))
        state.awaiting_staff_removal = True
        out.phase_changes.append(state.advance(CasePhase.CLOSING_ANNOUNCED))

    else:  # count mismatch
        out.alerts.append(Alert(
            severity=Severity.CRITICAL, kind=AlertKind.COUNT_MISMATCH,
            tags=report.missing,
            text=f"{len(report.missing)} item(s) unaccounted: {sorted(report.missing)}"))
        if state.rescans_used < state.max_rescans:
            state.rescans_used += 1
            out.phase_changes.append(state.advance(CasePhase.CLOSING_ANNOUNCED))
            out.messages.append(request_cavity_scan(state, now))
        else:
            out.alerts.append(Alert(
                severity=Severity.CRITICAL, kind=AlertKind.MANUAL_OVERRIDE,
                tags=report.missing,
                text="re-scan budget exhausted; manual override required"))


# --------------------------------------------------------------------------
# Reports


REPORT_COLUMNS = ("tag_id", "kind", "first_seen_s", "last_seen_s", "final_status")


@dataclass
class SurgeryReport:
    case_id: str
    items: list[dict]  # one dict per tag, keyed by REPORT_COLUMNS
    alerts: list[dict]
    scan_passes: int
    duration_s: int
    final_phase: str
    outcomes: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {"case_id": self.case_id, "items": self.items, "alerts": self.alerts,
                "scan_passes": self.scan_passes, "duration_s": self.duration_s,
                "final_phase": self.final_phase, "outcomes": self.outcomes}

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(REPORT_COLUMNS)
        writer.writerows([row[key] for key in REPORT_COLUMNS] for row in self.items)
        return out.getvalue()


def generate_report(reading, case_id: str) -> SurgeryReport:
    """Deterministic per-case summary projected from a ``trace.TraceReading``."""
    case_record = reading.cases.get(case_id)
    if case_record is None:
        raise UnknownCaseError(f"unknown case: {case_id}")
    meta = reading.meta
    items = [{"tag_id": tag, "kind": reading.kinds.get(tag, "?"),
              "first_seen_s": reading.first_seen.get(tag, entry["last_seen_s"]),
              "last_seen_s": entry["last_seen_s"], "final_status": entry["status"]}
             for tag, entry in sorted(case_record["entries"].items())]
    alerts = [{key: alert[key] for key in ("t", "severity", "kind", "tags", "text")}
              for alert in reading.alerts.get(case_id, ())]
    completed = case_record.get("completed_s")
    duration = completed if completed is not None else (meta["horizon_s"] if meta else 0)
    return SurgeryReport(case_id=case_id, items=items, alerts=alerts,
                         scan_passes=reading.scan_passes.get(case_id, 0), duration_s=duration,
                         final_phase=case_record["phase"],
                         outcomes=list(case_record["outcomes"]))


# --------------------------------------------------------------------------
# History store


def write_atomic(path: str, text: str) -> None:
    """Write ``text`` to ``path`` through a temp file and a rename, creating its directory."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".out-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def persist(trace, store_path: str) -> None:
    """Write a trace atomically as newline-delimited JSON; ``trace.load`` reads it back."""
    write_atomic(store_path, trace.to_ndjson())
