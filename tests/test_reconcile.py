"""Counting, the closing re-scan loop, location queries, reports, persistence."""

import contextlib
import csv
import dataclasses
import functools
import io
import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import OR, handled, load_bundled, one_room, random_scenario
from ortrack import kernel, reconcile as reconcile_module
from ortrack.kernel import BusConfig, LinkConfig, StaffEvent, run
from ortrack.protocol import (
    AlertKind,
    CasePhase,
    ChecklistEntry,
    InvalidPhaseError,
    MtcState,
    Outputs,
    ProtocolMessage,
    TagStatus,
    announce_closing,
    mtc_handle,
    mtc_bin_sweep,
    mtc_staff_rescan,
    mtc_tray_sweep,
)
from ortrack.reconcile import (
    Outcome,
    apply_scan_outcome,
    generate_report,
    persist,
    reconcile as reconcile_sets,
)
from ortrack.trace import Trace, TraceIOError, UnknownTagError, load, locate, read_trace


def cart_of(active, removed=()):
    mtc = MtcState(case_id="C-1", room_id="OR-1")
    for tag in active:
        mtc.mark(tag, TagStatus.IN_USE, 0, Outputs())
    for tag in removed:
        mtc.mark(tag, TagStatus.REMOVED_FROM_OR, 0, Outputs())
    return mtc


def scan_of(detected):
    return frozenset(detected)


def test_reconcile_all_accounted_is_clean():
    sponges = {f"S-{i}" for i in range(10)}
    tray = set(list(sorted(sponges))[:8])
    binned = sponges - tray
    report = reconcile_sets(cart_of(sponges), tray, binned, scan_of([]))
    assert report.outcome is Outcome.CLEAN
    assert report.expected == frozenset(sponges)
    assert report.accounted == frozenset(sponges)
    assert report.missing == frozenset()


def test_reconcile_cavity_detection_wins():
    sponges = {f"S-{i}" for i in range(10)}
    accounted = sponges - {"S-4"}
    report = reconcile_sets(cart_of(sponges), accounted, set(), scan_of(["S-4"]))
    assert report.outcome is Outcome.RSB_SUSPECTED
    assert report.cavity_detected == frozenset({"S-4"})


def test_reconcile_missing_without_cavity_hit():
    sponges = {f"S-{i}" for i in range(10)}
    accounted = sponges - {"S-4"}
    report = reconcile_sets(cart_of(sponges), accounted, set(), scan_of([]))
    assert report.outcome is Outcome.COUNT_MISMATCH
    assert len(report.missing) == 1


def test_reconcile_ignores_removed_entries():
    cart = cart_of({"T-1"}, removed={"T-2"})
    report = reconcile_sets(cart, {"T-1"}, set(), scan_of([]))
    assert report.expected == frozenset({"T-1"})
    assert report.outcome is Outcome.CLEAN


@st.composite
def reconcile_instance(draw):
    universe = [f"T-{i}" for i in range(12)]
    active = draw(st.sets(st.sampled_from(universe)))
    tray = draw(st.sets(st.sampled_from(universe)))
    binned = draw(st.sets(st.sampled_from(universe)))
    cavity = draw(st.sets(st.sampled_from(universe)))
    return active, tray, binned, cavity


@given(reconcile_instance())
@settings(max_examples=500)
def test_reconcile_matches_independent_set_algebra(instance):
    active, tray, binned, cavity = instance
    report = reconcile_sets(cart_of(active), tray, binned, scan_of(cavity))

    # independent element-by-element oracle
    expected = {t for t in active}
    accounted = {t for t in expected if t in tray or t in binned}
    missing = {t for t in expected if t not in accounted}
    if cavity:
        outcome = Outcome.RSB_SUSPECTED
    elif missing:
        outcome = Outcome.COUNT_MISMATCH
    else:
        outcome = Outcome.CLEAN

    assert report.expected == frozenset(expected)
    assert report.accounted == frozenset(accounted)
    assert report.missing == frozenset(missing)
    assert report.outcome is outcome
    # the two defining equivalences
    assert (report.outcome is Outcome.CLEAN) == (not report.missing
                                                 and not report.cavity_detected)
    assert (report.outcome is Outcome.RSB_SUSPECTED) == bool(report.cavity_detected)


# -- the closing re-scan loop, driven as the kernel drives it


def make_mtc(tray_tags, cavity_tags, max_rescans=2):
    mtc = MtcState(case_id="C-1", room_id="OR-1", scan_passes=1, max_rescans=max_rescans)
    mtc.phase = CasePhase.IN_PROGRESS
    for tag in tray_tags:
        mtc.mark(tag, TagStatus.ON_TRAY, 0, Outputs())
    for tag in cavity_tags:
        mtc.mark(tag, TagStatus.IN_USE, 0, Outputs())
    mtc.phase = CasePhase.CLOSING_ANNOUNCED
    return mtc


def requests_rescan(out):
    return any(m.payload["kind"] == "RequestCavityScan" for m in out.messages)


def test_closing_loop_retention_then_staff_fix():
    state = make_mtc({"T-1", "T-2"}, {"T-4"})
    first = handled(apply_scan_outcome, state, scan_of(["T-4"]), {"T-1", "T-2"}, set(), 0)
    assert [alert.tags for alert in first.alerts] == [frozenset({"T-4"})]
    assert not requests_rescan(first)
    staff = handled(mtc_staff_rescan, state, 0)  # staff pulled T-4 out onto the tray
    assert requests_rescan(staff)
    second = handled(apply_scan_outcome, state, scan_of([]), {"T-1", "T-2", "T-4"}, set(), 0)
    kinds = [a.kind for a in first.alerts + staff.alerts + second.alerts]
    assert kinds == [AlertKind.RSB_SUSPECTED]
    assert state.scans_done == 2
    assert state.phase is CasePhase.AWAITING_SPD


def test_closing_loop_clean_single_pass():
    state = make_mtc({"T-1"}, set())
    out = handled(apply_scan_outcome, state, scan_of([]), {"T-1"}, set(), 0)
    assert out.alerts == []
    assert not requests_rescan(out)
    assert state.scans_done == 1
    assert state.phase is CasePhase.AWAITING_SPD


def test_closing_loop_persistent_mismatch_demands_override():
    # T-9 is on the checklist but never found anywhere
    state = make_mtc({"T-1", "T-9"}, set(), max_rescans=2)
    alerts = []
    while True:  # each re-scan request comes back as another scan result
        out = handled(apply_scan_outcome, state, scan_of([]), {"T-1"}, set(), 0)
        alerts += out.alerts
        if not requests_rescan(out):
            break
    kinds = [a.kind for a in alerts]
    assert kinds == [AlertKind.COUNT_MISMATCH] * 3 + [AlertKind.MANUAL_OVERRIDE]
    assert state.scans_done == 3
    assert state.phase is CasePhase.CAVITY_SCAN


def test_closing_loop_retention_without_staff_parks_case():
    state = make_mtc({"T-1"}, {"T-4"})
    out = handled(apply_scan_outcome, state, scan_of(["T-4"]), {"T-1"}, set(), 0)
    assert [a.kind for a in out.alerts] == [AlertKind.RSB_SUSPECTED]
    assert not requests_rescan(out)
    assert state.phase is CasePhase.CLOSING_ANNOUNCED
    assert state.awaiting_staff_removal


def test_scan_result_outside_closing_is_a_phase_error():
    state = make_mtc({"T-1"}, set())
    state.phase = CasePhase.IN_PROGRESS
    with pytest.raises(InvalidPhaseError, match="scan result in phase"):
        handled(apply_scan_outcome, state, scan_of([]), {"T-1"}, set(), 0)


# -- tray and bin sweeps against a walk of the whole checklist


def full_walk_sweep(status, state, detected, now, out):
    """Reference sweep: sorted adds, then every entry with ``status`` not seen is demoted."""
    for tag in sorted(detected):
        entry = state.entries.get(tag)
        if entry is not None and entry.status is not TagStatus.REMOVED_FROM_OR:
            entry.last_seen_s, entry.status = now, status
            continue
        state.entries[tag] = ChecklistEntry(status, now)
        out.messages.append(ProtocolMessage(
            time_s=now, from_node=state.node_id, to_node="CMS",
            payload={"kind": "ChecklistUpdate", "case": state.case_id,
                     "action": "add", "tag": tag}))
        if state.phase is CasePhase.SETUP:
            out.phase_changes.append(state.advance(CasePhase.IN_PROGRESS))
    for tag, entry in state.entries.items():
        if entry.status is status and tag not in detected:
            entry.status = TagStatus.IN_USE


SWEEP_TAGS = ("T-1", "T-2", "T-3", "T-4", "T-5")
_tag = st.sampled_from(SWEEP_TAGS)
_tags = st.frozensets(_tag)
SWEEP_STEPS = st.lists(st.one_of(
    st.tuples(st.sampled_from(("tray", "bin")), _tags),
    st.tuples(st.sampled_from(("NewEquipmentInOR", "EquipmentLeftOR")), _tag),
    st.tuples(st.just("close")),
    st.tuples(st.just("scan"), _tags, _tags, _tags),
), max_size=40)


@contextlib.contextmanager
def full_walk_sweeps():
    """Route the sweeps that ``reconcile`` names, also inside a scan, to the full walk."""
    with mock.patch.object(reconcile_module, "mtc_tray_sweep",
                           functools.partial(full_walk_sweep, TagStatus.ON_TRAY)), \
         mock.patch.object(reconcile_module, "mtc_bin_sweep",
                           functools.partial(full_walk_sweep, TagStatus.DISCARDED)):
        yield


def sweep_step(cart, step, now):
    kind = step[0]
    try:
        if kind in ("tray", "bin"):
            return handled(getattr(reconcile_module, f"mtc_{kind}_sweep"), cart, set(step[1]),
                           now)
        if kind == "close":
            return handled(announce_closing, cart, now)
        if kind == "scan":
            tray, bin_, cavity = step[1:]
            return handled(apply_scan_outcome, cart, scan_of(cavity), set(tray), set(bin_), now)
        return handled(mtc_handle, cart, ProtocolMessage(
            time_s=now, from_node="CMS", to_node=cart.node_id,
            payload={"kind": kind, "tag": step[1], "case": cart.case_id}))
    except InvalidPhaseError as exc:
        return str(exc)


@given(st.dictionaries(_tag, st.sampled_from(list(TagStatus))),
       st.sampled_from((CasePhase.SETUP, CasePhase.IN_PROGRESS)), SWEEP_STEPS)
@settings(max_examples=300)
def test_sweep_demotes_as_a_full_checklist_walk_does(hand_built, phase, steps):
    cart, reference = (MtcState(case_id="C-1", room_id="OR-1", phase=phase,
                                entries={tag: ChecklistEntry(status, 0)
                                         for tag, status in hand_built.items()})
                       for _ in range(2))
    for now, step in enumerate(steps, start=1):
        outputs = sweep_step(cart, step, now)
        with full_walk_sweeps():
            assert outputs == sweep_step(reference, step, now)
        assert resolved(cart) == resolved(reference)
        assert cart.phase is reference.phase
        assert cart.swept == {status: {tag for tag, entry in cart.entries.items()
                                       if entry.status is status}
                              for status in (TagStatus.ON_TRAY, TagStatus.DISCARDED)}


def resolved(cart):
    """Every entry's status and resolved ``last_seen_s``, as the final case record has them."""
    return {tag: (entry.status, cart.last_seen(tag)) for tag, entry in cart.entries.items()}


def test_first_tray_sweep_on_a_hand_built_cart_demotes_an_unseen_entry():
    state = make_mtc({"T-1", "T-2"}, set())
    assert handled(mtc_tray_sweep, state, {"T-2"}, 5) == Outputs()
    assert resolved(state) == {"T-1": (TagStatus.IN_USE, 0), "T-2": (TagStatus.ON_TRAY, 5)}


def test_a_tag_that_leaves_the_tray_keeps_the_tick_of_its_last_sighting():
    state = make_mtc(set(), set())
    for now in (5, 9):
        handled(mtc_tray_sweep, state, {"T-1", "T-2"}, now)
    handled(mtc_tray_sweep, state, {"T-2"}, 12)
    assert resolved(state) == {"T-1": (TagStatus.IN_USE, 9), "T-2": (TagStatus.ON_TRAY, 12)}


def test_a_tag_that_hops_from_the_tray_to_the_bin_leaves_the_tray_set():
    state = make_mtc(set(), set())
    handled(mtc_tray_sweep, state, {"T-1", "T-2"}, 5)
    handled(mtc_bin_sweep, state, {"T-1"}, 8)
    assert state.swept == {TagStatus.ON_TRAY: {"T-2"}, TagStatus.DISCARDED: {"T-1"}}
    handled(mtc_tray_sweep, state, {"T-2"}, 11)  # T-1 is no longer the tray's to demote
    assert resolved(state) == {"T-1": (TagStatus.DISCARDED, 8), "T-2": (TagStatus.ON_TRAY, 11)}


# -- location queries, read from a trace


T1_INTO_OR = StaffEvent(10, "move", tag="T-1", to_site=OR, to_sub="ToolTray")


def one_room_reading(events, bus=BusConfig(latency_s=3)):
    return read_trace(run(one_room(events, bus)))


def test_locate_follows_last_crossing():
    # read at t=10 and delivered at 13: the belief carries the read tick
    assert locate(one_room_reading([T1_INTO_OR]), "T-1") == (OR, 10)
    to_spd = [T1_INTO_OR, StaffEvent(20, "move", tag="T-1", to_site="SPD")]
    assert locate(one_room_reading(to_spd), "T-1") == ("SPD", 20)


def test_locate_never_read_is_unknown():
    assert locate(one_room_reading([T1_INTO_OR]), "T-2") == (None, None)
    lossy = BusConfig(latency_s=3, links={"RS->CMS": LinkConfig(drop_rate=1.0)})
    assert locate(one_room_reading([T1_INTO_OR], lossy), "T-1") == (None, None)


def test_locate_unregistered_rejected():
    with pytest.raises(UnknownTagError):
        locate(one_room_reading([T1_INTO_OR]), "T-404")
    with pytest.raises(UnknownTagError):  # no meta record, so no tag is registered
        locate(read_trace(Trace()), "T-1")


def test_locate_agrees_with_ground_truth_under_perfect_sensing():
    # every tag of the bundled cases moves; of a random case, each tag that moves
    scenarios = [(load_bundled(name), True)
                 for name in ("clean_case", "pocket_carry", "new_equipment")]
    scenarios += [(random_scenario(seed, latency_s=latency), False)
                  for seed in range(100) for latency in (1, 3)]
    for scenario, every_tag in scenarios:
        trace = run(scenario)
        reading = read_trace(trace)
        site = {r["tag"]: r["to"]["site"] for r in trace.records if r["type"] == "gt"}
        for tag in [item["tag"] for item in reading.meta["items"]] if every_tag else site:
            assert locate(reading, tag)[0] == site[tag], (scenario.name, tag)


# -- reports


def test_report_for_recovered_retention_case():
    trace = run(load_bundled("sponge_in_cavity_recovered"))
    report = generate_report(read_trace(trace), "C-1")
    criticals = [a for a in report.alerts if a["severity"] == "Critical"]
    assert len(criticals) == 1 and criticals[0]["kind"] == "RsbSuspected"
    t4 = next(row for row in report.items if row["tag_id"] == "T-4")
    assert t4["final_status"] == "OnTray"
    assert t4["kind"] == "Sponge"
    assert report.final_phase == "Complete"


def test_report_empty_case():
    scenario = kernel.load_scenario(json.dumps({
        "name": "empty-case", "seed": 1, "horizon_s": 77, "rooms": ["OR-1"],
        "items": [], "sensors": {}, "cases": [{"case_id": "C-1", "room_id": "OR-1"}],
        "events": [], "bus": {"latency_s": 1, "drop_rate": 0.0}}))
    report = generate_report(read_trace(run(scenario)), "C-1")
    assert report.items == []
    assert report.duration_s == 77


def test_report_of_a_trace_without_a_meta_record_lasts_zero_seconds():
    case = {"t": 0, "type": "case", "case_id": "C-1", "phase": "InProgress",
            "entries": {}, "outcomes": []}
    assert generate_report(read_trace(Trace([case])), "C-1").duration_s == 0


def test_report_unknown_case():
    trace = run(load_bundled("clean_case"))
    with pytest.raises(Exception, match="unknown case"):
        generate_report(read_trace(trace), "C-404")


def test_report_regenerates_identically_from_store(tmp_path):
    trace = run(load_bundled("sponge_in_cavity_recovered"))
    path = tmp_path / "trace.ndjson"
    persist(trace, str(path))
    live = generate_report(read_trace(trace), "C-1")
    stored = generate_report(read_trace(load(str(path))), "C-1")
    assert json.dumps(live.to_json(), sort_keys=True) == \
        json.dumps(stored.to_json(), sort_keys=True)
    assert live.to_csv() == stored.to_csv()


def test_report_csv_shape():
    trace = run(load_bundled("clean_case"))
    csv_text = generate_report(read_trace(trace), "C-1").to_csv()
    lines = csv_text.strip().splitlines()
    assert lines[0] == "tag_id,kind,first_seen_s,last_seen_s,final_status"
    assert len(lines) == 4  # header + three items


def test_report_csv_quotes_a_tag_with_a_comma_or_a_quote():
    scenario = load_bundled("clean_case")
    renamed = {"T-1": "T,1", "T-2": 'T"2'}
    scenario = dataclasses.replace(
        scenario,
        items=[dataclasses.replace(s, tag_id=renamed.get(s.tag_id, s.tag_id))
               for s in scenario.items],
        events=[dataclasses.replace(ev, tag=renamed.get(ev.tag, ev.tag))
                for ev in scenario.events])
    rows = list(csv.reader(io.StringIO(
        generate_report(read_trace(run(scenario)), "C-1").to_csv())))
    assert all(len(row) == 5 for row in rows)
    assert [row[0] for row in rows] == ["tag_id", 'T"2', "T,1", "T-3"]  # sorted by tag


# -- persistence


def test_persist_load_round_trip(tmp_path):
    trace = run(load_bundled("clean_case"))
    path = tmp_path / "store.ndjson"
    persist(trace, str(path))
    assert load(str(path)) == trace


def test_load_truncated_store(tmp_path):
    trace = run(load_bundled("clean_case"))
    path = tmp_path / "store.ndjson"
    persist(trace, str(path))
    data = path.read_text()
    path.write_text(data[: len(data) - 7])  # tear the last record
    with pytest.raises(TraceIOError, match="truncated record"):
        load(str(path))


@pytest.mark.parametrize("line", ["1", "[]", '"x"', "null"])
def test_load_a_record_that_is_not_an_object(tmp_path, line):
    path = tmp_path / "store.ndjson"
    persist(run(load_bundled("clean_case")), str(path))
    path.write_text(path.read_text() + line + "\n")
    records = len(path.read_text().splitlines())
    with pytest.raises(TraceIOError, match=f"^record at line {records} is not a JSON object$"):
        load(str(path))


@pytest.mark.parametrize("data", [
    pytest.param(b"[" * 100_000 + b"\n", id="nested-too-deep"),
    pytest.param(b'{"t":' + b"9" * 4_301 + b"}\n", id="integer-too-long"),
    pytest.param(b'\xff\xfe{"t":0}\n', id="not-utf-8"),
])
def test_load_an_unreadable_file_raises_trace_io_error(tmp_path, data):
    path = tmp_path / "store.ndjson"
    path.write_bytes(data)
    with pytest.raises(TraceIOError):
        load(str(path))


def test_persisted_runs_are_identical_files(tmp_path):
    scenario = load_bundled("pocket_carry")
    p1, p2 = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
    persist(run(scenario), str(p1))
    persist(run(scenario), str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_a_failed_rename_leaves_the_target_and_no_temp_file(tmp_path):
    path = tmp_path / "store.ndjson"
    path.write_text("before\n")
    with mock.patch.object(reconcile_module.os, "replace", side_effect=OSError("disk gone")):
        with pytest.raises(OSError, match="disk gone"):
            reconcile_module.write_atomic(str(path), "after\n")
    assert path.read_text() == "before\n"
    assert [p.name for p in tmp_path.iterdir()] == ["store.ndjson"]


def test_load_missing_file(tmp_path):
    with pytest.raises(TraceIOError):
        load(str(tmp_path / "nope.ndjson"))
