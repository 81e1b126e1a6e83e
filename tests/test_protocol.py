"""Node state machines: crossings, checklist upkeep, lifecycle gating."""

import copy
import json

import pytest

from helpers import handled
from ortrack.model import ItemKind, SubLocation
from ortrack.protocol import (
    Alert,
    AlertKind,
    CasePhase,
    ChecklistEntry,
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
    announce_closing,
    cms_handle,
    mtc_bin_sweep,
    mtc_handle,
    mtc_tray_sweep,
    room_sensor_on_reads,
    spd_acknowledge,
)
from ortrack.reconcile import Outcome
from ortrack.trace import Trace


def crossing(tag, direction, room="OR-1", t=0):
    return ProtocolMessage(time_s=t, from_node=f"RS:{room}", to_node="CMS",
                           payload={"kind": "RoomCrossing", "tag": tag,
                                    "room": room, "direction": direction})


def fresh_cms(room="OR-1", case="C-1"):
    cms = CmsState()
    cms.register_case(case, room)
    return cms


def fresh_mtc(case="C-1", room="OR-1"):
    return MtcState(case_id=case, room_id=room)


# -- room sensor toggle


def test_toggle_infers_in_then_out():
    sensor = RoomSensorState(room_id="OR-1")
    first = room_sensor_on_reads(sensor, ["T-5"], 1)
    second = room_sensor_on_reads(sensor, ["T-5"], 9)
    assert first[0].payload["direction"] == "in"
    assert second[0].payload["direction"] == "out"
    assert (first[0].time_s, second[0].time_s) == (1, 9)


def test_no_reads_no_messages():
    assert room_sensor_on_reads(RoomSensorState(room_id="OR-1"), [], 0) == []


# -- central service


def test_cms_new_tag_entering_or_notifies_cart():
    cms = fresh_cms()
    out = handled(cms_handle, cms, crossing("T-9", "in"))
    assert len(out.messages) == 1
    msg = out.messages[0]
    assert msg.to_node == "MTC:OR-1"
    assert msg.payload == {"kind": "NewEquipmentInOR", "tag": "T-9", "case": "C-1"}


def test_cms_checklist_tag_leaving_or_notifies_cart():
    cms = fresh_cms()
    cms.checklist_mirror["C-1"].add("T-3")
    out = handled(cms_handle, cms, crossing("T-3", "out"))
    assert out.messages[0].payload["kind"] == "EquipmentLeftOR"
    assert out.messages[0].payload["tag"] == "T-3"


def test_cms_non_or_room_crossing_sends_nothing():
    cms = fresh_cms()
    out = handled(cms_handle, cms, crossing("T-1", "in", room="SPD", t=30))
    assert out.messages == [] and out.alerts == []


def test_cms_known_tag_not_on_checklist_leaving_sends_nothing():
    cms = fresh_cms()
    out = handled(cms_handle, cms, crossing("T-1", "out"))
    assert out.messages == []


# -- tool cart


def new_equipment(tag, t=0, case="C-1"):
    return ProtocolMessage(time_s=t, from_node="CMS", to_node="MTC:OR-1",
                           payload={"kind": "NewEquipmentInOR", "tag": tag, "case": case})


def left_or(tag, t=0, case="C-1"):
    return ProtocolMessage(time_s=t, from_node="CMS", to_node="MTC:OR-1",
                           payload={"kind": "EquipmentLeftOR", "tag": tag, "case": case})


def test_mtc_adds_new_equipment_with_info_alert():
    mtc = fresh_mtc()
    out = handled(mtc_handle, mtc, new_equipment("T-9", t=22))
    entry = mtc.entries["T-9"]
    assert entry.status is TagStatus.IN_USE and entry.last_seen_s == 22
    assert out.alerts[0].kind is AlertKind.NEW_EQUIPMENT_DETECTED
    assert out.alerts[0].severity is Severity.INFO
    assert mtc.phase is CasePhase.IN_PROGRESS  # first add starts the case


def test_mtc_removal_excluded_from_count():
    mtc = fresh_mtc()
    handled(mtc_handle, mtc, new_equipment("T-3"))
    out = handled(mtc_handle, mtc, left_or("T-3", t=31))
    assert mtc.entries["T-3"].status is TagStatus.REMOVED_FROM_OR
    assert mtc.active_tags() == set()
    assert out.alerts[0].kind is AlertKind.EQUIPMENT_LEFT_OR


def test_mtc_removal_mid_reconciliation_is_warning():
    mtc = fresh_mtc()
    handled(mtc_handle, mtc, new_equipment("T-3"))
    handled(announce_closing, mtc, now=40)
    out = handled(mtc_handle, mtc, left_or("T-3", t=41))
    assert out.alerts[0].severity is Severity.WARNING


def test_mtc_tray_sweep_idempotent():
    mtc = fresh_mtc()
    handled(mtc_tray_sweep, mtc, {"T-2"}, now=5)
    before = copy.deepcopy(mtc.entries)
    out = handled(mtc_tray_sweep, mtc, {"T-2"}, now=6)
    assert out.alerts == [] and out.messages == []
    assert mtc.entries["T-2"].status is before["T-2"].status


def test_mtc_tray_absence_demotes_to_in_use():
    mtc = fresh_mtc()
    handled(mtc_tray_sweep, mtc, {"T-1", "T-2"}, now=5)
    handled(mtc_tray_sweep, mtc, {"T-2"}, now=6)
    assert mtc.entries["T-1"].status is TagStatus.IN_USE
    assert mtc.entries["T-2"].status is TagStatus.ON_TRAY


def test_mtc_duplicate_new_equipment_is_noop():
    mtc = fresh_mtc()
    handled(mtc_tray_sweep, mtc, {"T-2"}, now=5)
    out = handled(mtc_handle, mtc, new_equipment("T-2", t=7))
    assert out.alerts == []
    assert mtc.entries["T-2"].status is TagStatus.ON_TRAY


def test_mtc_message_that_changes_no_output_appends_nothing():
    mtc = fresh_mtc()
    handled(mtc_handle, mtc, new_equipment("T-1"))
    assert handled(mtc_handle, mtc, new_equipment("T-1", t=4)) == Outputs()  # already active
    assert mtc.entries["T-1"].last_seen_s == 4
    assert handled(mtc_handle, mtc, left_or("T-2", t=5)) == Outputs()  # never on the checklist
    handled(mtc_handle, mtc, left_or("T-1", t=6))
    assert handled(mtc_handle, mtc, left_or("T-1", t=7)) == Outputs()  # already off it
    assert mtc.entries["T-1"].last_seen_s == 6


def test_mtc_stale_case_rejected():
    mtc = fresh_mtc()
    mtc.phase = CasePhase.COMPLETE
    with pytest.raises(StaleCaseError):
        handled(mtc_handle, mtc, new_equipment("T-1"))


# -- closing announcement


def test_announce_closing_requests_scan():
    mtc = fresh_mtc()
    handled(mtc_handle, mtc, new_equipment("T-1"))
    out = handled(announce_closing, mtc, now=50)
    assert mtc.phase is CasePhase.CLOSING_ANNOUNCED
    kinds = [m.payload["kind"] for m in out.messages]
    assert "RequestCavityScan" in kinds
    assert out.messages[-1].to_node == "MED:OR-1"


def test_announce_closing_requires_in_progress():
    mtc = fresh_mtc()
    with pytest.raises(InvalidPhaseError):
        handled(announce_closing, mtc, now=50)  # still in setup


def test_double_announce_rejected():
    mtc = fresh_mtc()
    handled(mtc_handle, mtc, new_equipment("T-1"))
    handled(announce_closing, mtc, now=50)
    with pytest.raises(InvalidPhaseError):
        handled(announce_closing, mtc, now=51)


# -- SPD acknowledgment


def _awaiting_spd_case():
    mtc = fresh_mtc()
    mtc.phase = CasePhase.AWAITING_SPD
    return mtc


def test_spd_ack_goes_to_cms():
    carts = {"C-1": _awaiting_spd_case()}
    msg = spd_acknowledge("C-1", carts, 70)
    assert msg.from_node == "SPD" and msg.to_node == "CMS"
    assert msg.payload == {"kind": "SpdReadyAck", "case": "C-1"}
    assert msg.time_s == 70


def test_spd_ack_before_reconciliation_rejected():
    carts = {"C-1": fresh_mtc()}
    with pytest.raises(InvalidPhaseError):
        spd_acknowledge("C-1", carts, 0)


def test_spd_ack_of_a_reconciled_case_rejected():
    # apply_scan_outcome moves Reconciled on to AwaitingSpd in the same call
    mtc = fresh_mtc()
    mtc.phase = CasePhase.RECONCILED
    with pytest.raises(InvalidPhaseError):
        spd_acknowledge("C-1", {"C-1": mtc}, 0)


def test_spd_ack_unknown_case():
    with pytest.raises(UnknownCaseError):
        spd_acknowledge("C-404", {}, 0)


def test_ack_completes_case_via_cart():
    mtc = fresh_mtc()
    mtc.phase = CasePhase.AWAITING_SPD
    ack = ProtocolMessage(time_s=60, from_node="CMS", to_node="MTC:OR-1",
                          payload={"kind": "SpdReadyAck", "case": "C-1"})
    out = handled(mtc_handle, mtc, ack)
    assert mtc.spd_acked
    assert mtc.phase is CasePhase.COMPLETE
    assert out.phase_changes[-1][2] is CasePhase.COMPLETE


def test_complete_requires_ack():
    mtc = fresh_mtc()
    mtc.phase = CasePhase.AWAITING_SPD
    with pytest.raises(InvalidPhaseError):
        mtc.advance(CasePhase.COMPLETE)


def test_no_phase_skipping():
    mtc = fresh_mtc()
    with pytest.raises(InvalidPhaseError):
        mtc.advance(CasePhase.CAVITY_SCAN)
    with pytest.raises(InvalidPhaseError):
        mtc.advance(CasePhase.COMPLETE)


# -- alert invariant and handler determinism


def test_retention_alerts_always_critical():
    alert = Alert(severity=Severity.INFO, kind=AlertKind.RSB_SUSPECTED,
                  tags=frozenset({"T-1"}), text="x")
    assert alert.severity is Severity.CRITICAL
    alert = Alert(severity=Severity.INFO, kind=AlertKind.COUNT_MISMATCH,
                  tags=frozenset(), text="x")
    assert alert.severity is Severity.CRITICAL


def test_handlers_deterministic_on_equal_states():
    # same (state, input) must produce the same (state', outputs)
    cms1, cms2 = fresh_cms(), fresh_cms()
    msg = crossing("T-9", "in", t=3)
    out1 = handled(cms_handle, cms1, msg)
    out2 = handled(cms_handle, cms2, copy.deepcopy(msg))
    assert cms1 == cms2
    assert [m.payload for m in out1.messages] == [m.payload for m in out2.messages]

    mtc1, mtc2 = fresh_mtc(), fresh_mtc()
    out1 = handled(mtc_handle, mtc1, new_equipment("T-9"))
    out2 = handled(mtc_handle, mtc2, new_equipment("T-9"))
    assert mtc1.entries == mtc2.entries
    assert [a.kind for a in out1.alerts] == [a.kind for a in out2.alerts]


def test_message_equals_another_only_when_all_five_fields_do():
    fields = dict(time_s=4, from_node="CMS", to_node="MTC:OR-1",
                  payload={"kind": "NewEquipmentInOR", "tag": "T-1", "case": "C-1"}, msg_id=7)
    message = ProtocolMessage(**fields)
    assert message == ProtocolMessage(**copy.deepcopy(fields))
    for name, other in (("time_s", 5), ("from_node", "RS:OR-1"), ("to_node", "MED:OR-1"),
                        ("payload", {"kind": "EquipmentLeftOR"}), ("msg_id", 8)):
        assert message != ProtocolMessage(**{**fields, name: other}), name
    assert message != tuple(fields.values())
    assert repr(message) == ("ProtocolMessage(time_s=4, from_node='CMS', to_node='MTC:OR-1', "
                             "payload={'kind': 'NewEquipmentInOR', 'tag': 'T-1', "
                             "'case': 'C-1'}, msg_id=7)")
    assert ProtocolMessage(1, "CMS", "SPD", {}).msg_id == 0
    with pytest.raises(ValueError, match="cannot message itself"):
        ProtocolMessage(time_s=0, from_node="CMS", to_node="CMS", payload={})


def test_outputs_differing_in_one_list_compare_unequal():
    assert Outputs() == Outputs()
    for name, value in (
            ("messages", ProtocolMessage(1, "CMS", "MTC:OR-1", {"kind": "Ping"})),
            ("alerts", Alert(Severity.WARNING, AlertKind.SENSOR_DOWN, frozenset(), "down")),
            ("phase_changes", ("C-1", CasePhase.SETUP, CasePhase.IN_PROGRESS))):
        out = Outputs()
        getattr(out, name).append(value)
        assert out != Outputs() and Outputs() != out, name


def test_checklist_entry_uniqueness():
    mtc = fresh_mtc()
    handled(mtc_handle, mtc, new_equipment("T-1"))
    handled(mtc_tray_sweep, mtc, {"T-1"}, now=2)
    handled(mtc_handle, mtc, new_equipment("T-1", t=3))
    assert list(mtc.entries) == ["T-1"]
    assert isinstance(mtc.entries["T-1"], ChecklistEntry)


# --------------------------------------------------------------------------
# State members are their trace strings


STATE_MEMBERS = [member for enum in (TagStatus, CasePhase, Severity, AlertKind, Outcome,
                                     SubLocation, ItemKind) for member in enum]


@pytest.mark.parametrize("member", STATE_MEMBERS, ids=lambda m: f"{type(m).__name__}.{m.name}")
def test_state_member_is_its_trace_string(member):
    value = member.value
    assert type(value) is str
    assert Trace([member]).to_ndjson() == Trace([value]).to_ndjson()
    assert json.dumps(member, indent=2) == json.dumps(value, indent=2)
    assert Trace([{member: [member]}]).to_ndjson() == Trace([{value: [value]}]).to_ndjson()
    assert json.dumps({member: [member]}, indent=2) == json.dumps({value: [value]}, indent=2)
    assert f"{member}" == value
    assert member == value and hash(member) == hash(value)


# -- guards no scenario reaches


@pytest.mark.parametrize("handle, state, node", [
    (cms_handle, fresh_cms(), "CMS"), (mtc_handle, fresh_mtc(), "MTC"),
], ids=["cms", "mtc"])
def test_a_handler_rejects_a_payload_kind_it_does_not_know(handle, state, node):
    ping = ProtocolMessage(time_s=0, from_node="SPD", to_node="X", payload={"kind": "Ping"})
    with pytest.raises(ValueError, match=f"^{node} cannot handle payload kind 'Ping'$"):
        handled(handle, state, ping)


@pytest.mark.parametrize("phase", [p for p in CasePhase
                                   if p not in (CasePhase.AWAITING_SPD, CasePhase.COMPLETE)])
def test_a_cart_takes_an_spd_ack_only_while_awaiting_it(phase):
    mtc = fresh_mtc()
    mtc.phase = phase
    ack = ProtocolMessage(time_s=60, from_node="CMS", to_node="MTC:OR-1",
                          payload={"kind": "SpdReadyAck", "case": "C-1"})
    with pytest.raises(InvalidPhaseError, match="^SPD ack for C-1 in phase"):
        handled(mtc_handle, mtc, ack)
    assert mtc.phase is phase and not mtc.spd_acked


@pytest.mark.parametrize("sweep", [mtc_tray_sweep, mtc_bin_sweep])
def test_a_complete_cart_takes_no_sweep(sweep):
    mtc = fresh_mtc()
    mtc.phase = CasePhase.AWAITING_SPD
    assert handled(sweep, mtc, set(), 5) == Outputs()  # the phase before still sweeps
    mtc.phase = CasePhase.COMPLETE
    with pytest.raises(StaleCaseError, match="^case C-1 already complete$"):
        handled(sweep, mtc, {"T-1"}, 6)
    assert mtc.entries == {}
